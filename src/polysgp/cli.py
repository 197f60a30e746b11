"""Command-line front end.

One subcommand per computation: ``msg`` (minimal generators), the three
ring-property deciders ``is-cm`` / ``is-gorenstein`` / ``is-buchsbaum``,
``gaps`` (the finite gap region), ``decompose`` (the structural report),
``family`` (the shipped Gorenstein tetrahedra), ``oracle-check`` (slow
definitional recomputation and diff), and ``export`` (geometry for
external viewers).

Input is a small text document naming the polytope by its vertices:

    # any line may carry a comment
    vertices
      3 3 2
      2 3 1
      1 2 3
      3/2, 3, 9/2
      [2.0625, 3.375, 3.9375]

Coordinates are integers, exact decimals, or fractions ``p/q``; commas,
brackets and parentheses are interchangeable with spaces.  An input path
of ``-`` (the default) reads standard input, so commands pipe:

    polysgp family --k 3 | polysgp is-gorenstein

Exit status: 0 for any computed verdict (including "no"), 2 when the
configuration falls outside the decided cases or a budget ran out, 1 for
malformed input.  Output is deterministic byte for byte; ``--format
structured`` emits canonical JSON.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from . import geometry, oracle
from .decomposition import (
    gap_region,
    gap_rows,
    ray_chord_class,
    ray_period,
    slab_integer_points,
    slabs,
)
from .errors import (
    BadParameter,
    BoxTooSmall,
    DegenerateInput,
    NotAGap,
    OriginInside,
    OutsideCone,
    ParseError,
    PolysgpError,
)
from .geometry import _BLOCK, Point3, Polyhedron, convex_hull, dilate
from .rings import (
    apery_table,
    gorenstein_family,
    is_buchsbaum,
    is_cohen_macaulay,
    is_gorenstein,
)
from .semigroup import (
    SemigroupHandle,
    _closure_rows,
    build,
    minimal_generators,
    apery_intersection,
)

_INPUT_ERRORS = (
    ParseError,
    BadParameter,
    DegenerateInput,
    OriginInside,
    OutsideCone,
    NotAGap,
    BoxTooSmall,
    OSError,
)


# ---------------------------------------------------------------------------
# input parsing


_PUNCT = str.maketrans({c: " " for c in ",[]()"})


def parse_vertices(text: str) -> list[Point3]:
    """Parse a vertex document to exact points.

    Raises ParseError with the 1-based line and column of the first
    offending token.
    """
    rows: list[Point3] = []
    saw_header = False
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        if not line.strip():
            continue
        if not saw_header:
            head = line.strip()
            if head.rstrip(":") != "vertices":
                raise ParseError(
                    "expected a 'vertices' header, got %r" % head, ln,
                    1 + len(line) - len(line.lstrip()),
                )
            saw_header = True
            continue
        cleaned = line.translate(_PUNCT)
        tokens: list[tuple[int, str]] = []
        col = 0
        for piece in cleaned.split(" "):
            if piece:
                tokens.append((col + 1, piece))
            col += len(piece) + 1
        if len(tokens) != 3:
            raise ParseError(
                "each vertex needs exactly three coordinates, got %d"
                % len(tokens),
                ln,
                tokens[0][0] if tokens else 1,
            )
        coords = []
        for col, tok in tokens:
            try:
                coords.append(Fraction(tok))
            except (ValueError, ZeroDivisionError):
                raise ParseError("bad coordinate %r" % tok, ln, col) from None
        rows.append(Point3(*coords))
    if not saw_header:
        raise ParseError("empty input: expected a 'vertices' document", 1, 1)
    if not rows:
        raise ParseError("the vertices list is empty", 1, 1)
    return rows


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _load_handle(path: str) -> SemigroupHandle:
    return build(parse_vertices(_read_text(path)))


# ---------------------------------------------------------------------------
# output rendering


def _fstr(v: Fraction) -> str:
    return str(v.numerator) if v.denominator == 1 else "%d/%d" % (
        v.numerator,
        v.denominator,
    )


def _pstr(p) -> str:
    if isinstance(p, Point3):
        return " ".join(_fstr(c) for c in p.as_tuple())
    return " ".join(str(c) for c in p)


def _json_default(obj):
    """Exact JSON image of what json cannot encode: points become lists,
    integral fractions numbers and the others strings, sets sorted
    lists, and anything else its str."""
    if isinstance(obj, Point3):
        return list(obj.as_tuple())
    if isinstance(obj, Fraction):
        return obj.numerator if obj.denominator == 1 else _fstr(obj)
    if isinstance(obj, (set, frozenset)):
        return sorted(obj)
    return str(obj)


def _emit_json(record: dict) -> None:
    print(json.dumps(record, default=_json_default, sort_keys=True, indent=2))


def _vertex_document(points: Sequence[Point3], comment: str) -> str:
    lines = ["# %s" % comment, "vertices"]
    lines += ["  %s" % _pstr(p) for p in points]
    return "\n".join(lines)


def _check_format(fmt: str, allowed: tuple[str, ...]) -> None:
    if fmt not in allowed:
        raise BadParameter(
            "format %r does not apply here (choose from %s)"
            % (fmt, ", ".join(allowed))
        )


def _validate_common(args) -> None:
    if getattr(args, "budget_layers", 1) < 1:
        raise BadParameter("--budget-layers must be positive")


# ---------------------------------------------------------------------------
# subcommands


def _cmd_msg(args) -> int:
    h = _load_handle(args.input)
    gens = minimal_generators(h, budget_layers=args.budget_layers)
    tuples = sorted(gens.int_tuples())
    status = 0 if gens.certified else 2

    oracle_lines: list[str] = []
    oracle_ok = True
    if args.oracle:
        box = oracle.default_box(h)
        naive = oracle.naive_msg(h, box)
        inside = {g for g in tuples if max(g) <= box.max_coord}
        missing = sorted(naive - inside)
        extra = sorted(inside - naive)
        if missing or extra:
            oracle_ok = False
            for p in missing:
                oracle_lines.append("oracle only: %s" % (_pstr(p),))
            for p in extra:
                oracle_lines.append("main only: %s" % (_pstr(p),))
        else:
            oracle_lines.append(
                "oracle: ok, %d generators match inside the box" % len(naive)
            )
    if not oracle_ok:
        status = max(status, 2)

    if args.format == "structured":
        record = {
            "command": "msg",
            "certified": gens.certified,
            "count": len(tuples),
            "generators": tuples,
            "layers_scanned": gens.layers_scanned,
        }
        if args.oracle:
            record["oracle_ok"] = oracle_ok
        _emit_json(record)
    else:
        label = "certified" if gens.certified else "partial, budget hit"
        print("generators: %d (%s)" % (len(tuples), label))
        for g in tuples:
            print("  %s" % (_pstr(g),))
        for line in oracle_lines:
            print(line)
    return status


def _cmd_property(args) -> int:
    h = _load_handle(args.input)
    v = args.decide(h, args)
    if args.format == "structured":
        record = {
            "command": args.command,
            "property": v.property,
            "verdict": v.verdict,
            "case": v.case_used,
            "witness": None
            if v.witness is None
            else {
                "point": v.witness.point,
                "generator_indices": list(v.witness.indices),
            },
            "diagnostics": v.diagnostics,
        }
        _emit_json(record)
    else:
        print("property: %s" % v.property)
        print("verdict: %s" % v.verdict)
        print("case: %s" % v.case_used)
        if v.witness is None:
            print("witness: none")
        else:
            i, j = v.witness.indices
            print(
                "witness: gap %s with member translates along ray "
                "generators %d and %d" % (_pstr(v.witness.point), i, j)
            )
        for key in sorted(v.diagnostics):
            val = v.diagnostics[key]
            if isinstance(val, (list, tuple, set, frozenset)):
                val = ", ".join(
                    _pstr(x) if isinstance(x, (Point3, tuple)) else str(x)
                    for x in (sorted(val) if isinstance(val, (set, frozenset)) else val)
                )
            print("%s: %s" % (key, val))
    return 0 if v.verdict in ("yes", "no") else 2


# one point as `json.dumps(..., indent=2)` lays it out two levels deep
_GAP_JSON = "    [\n      %d,\n      %d,\n      %d\n    ]"
_POINTS_SLOT = "@points@"


def _write_rows(rows: np.ndarray, fmt: str, sep: str) -> None:
    """Write `rows` formatted with `fmt` and joined by `sep`, `_BLOCK`
    rows at a time, so no string for the whole listing is built."""
    for i in range(0, len(rows), _BLOCK):
        block = rows[i : i + _BLOCK]
        sys.stdout.write(
            (sep if i else "")
            + sep.join([fmt] * len(block)) % tuple(block.ravel().tolist())
        )


def _cmd_gaps(args) -> int:
    h = _load_handle(args.input)
    region = gap_region(h)
    rows = gap_rows(h, region, extra_periods=args.extra_periods)
    status = 0

    oracle_lines: list[str] = []
    if args.oracle:
        top = int(rows.max()) if len(rows) else 1
        gaps = oracle.Cube(h, oracle.box_for(h, top + 1)).gaps()
        wrong = rows[~gaps[tuple(rows.T)]]
        if len(wrong):
            status = 2
            for p in wrong.tolist():
                oracle_lines.append("not a gap by the oracle: %s" % (_pstr(p),))
        else:
            oracle_lines.append(
                "oracle: ok, all %d points confirmed as gaps" % len(rows)
            )

    if args.format == "structured":
        record = {
            "command": "gaps",
            "overlap_level": region.overlap,
            "separation_level": region.separation,
            "base_level": region.base_level,
            "periods": {str(k): v for k, v in sorted(region.periods.items())},
            "count": len(rows),
            "points": _POINTS_SLOT,
        }
        if args.oracle:
            record["oracle_ok"] = status == 0
        head, _slot, tail = json.dumps(
            record, default=_json_default, sort_keys=True, indent=2
        ).partition('"%s"' % _POINTS_SLOT)
        if len(rows):
            sys.stdout.write(head + "[\n")
            _write_rows(rows, _GAP_JSON, ",\n")
            print("\n  ]" + tail)
        else:
            print(head + "[]" + tail)
    else:
        print("overlap_level: %d" % region.overlap)
        print(
            "separation_level: %s"
            % ("unavailable" if region.separation is None else region.separation)
        )
        print("base_level: %d" % region.base_level)
        print("gap points: %d" % len(rows))
        _write_rows(rows, "  %d %d %d\n", "")
        for line in oracle_lines:
            print(line)
    return status


def _cmd_decompose(args) -> int:
    h = _load_handle(args.input)
    cls = h.classification
    region = gap_region(h)

    verts = h.body.vertices
    names = (
        ("point_extremal", cls.point_extremal),
        ("entry_extremal", cls.entry_extremal),
        ("exit_extremal", cls.exit_extremal),
        ("entry_inner", cls.entry_inner),
        ("exit_inner", cls.exit_inner),
    )
    rays = []
    for i, r in enumerate(h.rays):
        entry = {
            "index": i,
            "direction": r.int_tuple(),
            "chord": ray_chord_class(h, i),
            "period": ray_period(h, i),
        }
        if h.simplicial:
            entry["generator"] = h.ray_generators[i]
        rays.append(entry)
    corners = [
        {
            "ray": s.ray,
            "level": s.level,
            "fan_size": len(s.fan),
            "integer_points": len(slab_integer_points(s)),
        }
        for s in region.corner_templates
    ]
    bridges = [
        {
            "rays": [s.ray, s.next_ray],
            "level": s.level,
            "integer_points": len(slab_integer_points(s)),
        }
        for s in region.bridge_templates
    ]

    if args.format == "structured":
        record = {
            "command": "decompose",
            "simplicial": h.simplicial,
            "rays": rays,
            "vertex_classes": {
                name: [verts[i] for i in idxs] for name, idxs in names
            },
            "overlap_level": region.overlap,
            "separation_level": region.separation,
            "separation_unavailable_reason": region.separation_reason,
            "base_level": region.base_level,
            "hull_part_vertices": list(region.hull_part.vertices),
            "corner_slabs": corners,
            "bridge_slabs": bridges,
        }
        _emit_json(record)
    else:
        print("rays: %d (%s)" % (len(h.rays), "simplicial" if h.simplicial else "not simplicial"))
        for entry in rays:
            line = "  ray %d: direction %s, chord %s, period %d" % (
                entry["index"],
                _pstr(entry["direction"]),
                entry["chord"],
                entry["period"],
            )
            if "generator" in entry:
                line += ", generator %s" % _pstr(entry["generator"])
            print(line)
        print("vertex classes:")
        for name, idxs in names:
            shown = ("; ".join(_pstr(verts[i]) for i in idxs)) or "none"
            print("  %s: %s" % (name, shown))
        print("overlap_level: %d" % region.overlap)
        if region.separation is None:
            print("separation_level: unavailable (%s)" % region.separation_reason)
        else:
            print("separation_level: %d" % region.separation)
        print("base_level: %d" % region.base_level)
        print(
            "corner slabs at the base level: %d (%s)"
            % (
                len(corners),
                ", ".join(
                    "ray %d with %d integer points"
                    % (c["ray"], c["integer_points"])
                    for c in corners
                )
                or "none",
            )
        )
        print(
            "bridge slabs at the base level: %d (%s)"
            % (
                len(bridges),
                ", ".join(
                    "rays %d-%d with %d integer points"
                    % (b["rays"][0], b["rays"][1], b["integer_points"])
                    for b in bridges
                )
                or "none",
            )
        )
    return 0


def _cmd_family(args) -> int:
    pts = gorenstein_family(args.k)
    if args.format == "structured":
        record = {"command": "family", "k": args.k, "vertices": pts}
        if args.table:
            table = apery_table(args.k)
            record["apery_rows"] = [list(row) for row in table.rows]
            record["empty_rows_checked"] = list(table.empty_rows_checked)
        _emit_json(record)
    else:
        print(_vertex_document(pts, "Gorenstein family member, k = %d" % args.k))
        if args.table:
            table = apery_table(args.k)
            for j, row in enumerate(table.rows):
                shown = "; ".join(_pstr(p) for p in row) or "empty"
                print("# apery row y=%d: %s" % (j, shown))
    return 0


def _diff_report(
    name: str, main: np.ndarray, naive: np.ndarray, unit: str
) -> bool:
    """Print one oracle-check line (and up to ten differing points, in
    lexicographic order) for two box masks; True when they differ."""
    diff = main ^ naive
    count = np.count_nonzero(diff)
    if not count:
        print("%s: ok, %d %s" % (name, np.count_nonzero(main), unit))
        return False
    print("%s: MISMATCH at %d points" % (name, count))
    for p in np.argwhere(diff)[:10].tolist():
        side = "main only" if main[tuple(p)] else "oracle only"
        print("  %s (%s)" % (_pstr(p), side))
    return True


def _box_mask(points, shape) -> np.ndarray:
    """The box mask of a collection of integer triples inside it."""
    mask = np.zeros(shape, dtype=bool)
    mask[tuple(np.array(list(points), dtype=np.int64).reshape(-1, 3).T)] = True
    return mask


def _cone_rows(h: SemigroupHandle, pts: np.ndarray) -> np.ndarray:
    """`in_cone_int` over the rows of an (N, 3) integer array, exact: on
    Python integers when |n|_1 * max |p_i|, the largest |n.p| a cone
    normal n can reach, could pass int64."""
    normals = np.array(h._cone, dtype=object)
    top = abs(normals).sum(axis=1).max() * int(abs(pts).max(initial=0))
    dtype = np.int64 if top < geometry._INT64_LIMIT else object
    return (pts.astype(dtype) @ normals.astype(dtype).T >= 0).all(axis=1)


def _cmd_oracle_check(args) -> int:
    h = _load_handle(args.input)
    if args.box is not None:
        if args.box < 1:
            raise BadParameter("--box must be at least 1")
        box = oracle.box_for(h, args.box)
    else:
        box = oracle.default_box(h)

    failures = 0
    print("box: coordinates up to %d, layers up to %d" % (box.max_coord, box.max_layer))

    cube = oracle.Cube(h, box)
    shape = cube.present.shape
    grid = np.indices(shape).reshape(3, -1).T
    member = _closure_rows(h, grid).reshape(shape)
    failures += _diff_report("membership", member, cube.present, "member points")
    main_gaps = _cone_rows(h, grid).reshape(shape) & ~member
    failures += _diff_report("gaps", main_gaps, cube.gaps(), "gap points")

    gens = minimal_generators(h, budget_layers=args.budget_layers)
    if gens.certified:
        inside = [g for g in gens.int_tuples() if max(g) <= box.max_coord]
        failures += _diff_report(
            "generators", _box_mask(inside, shape), cube.generators(),
            "generators",
        )
    else:
        print("generators: skipped (layer budget hit before certification)")

    if h.simplicial:
        rays_main = {r.int_tuple() for r in h.rays}
        rays_oracle = set(oracle.cone_rays(h))
        if rays_main != rays_oracle:
            failures += 1
            print("rays: MISMATCH (main %s, oracle %s)" % (
                sorted(rays_main), sorted(rays_oracle)))
        else:
            print("rays: ok, %d extremal rays" % len(rays_main))

        ap = apery_intersection(h, budget_layers=args.budget_layers)
        elems = {p.int_tuple() for p in ap.elements}
        if ap.complete and all(max(t) <= box.max_coord for t in elems):
            failures += _diff_report(
                "apery", _box_mask(elems, shape), cube.apery(), "elements"
            )
        else:
            print("apery: skipped (incomplete or outside the box)")
    else:
        print("rays: skipped (not simplicial)")
        print("apery: skipped (not simplicial)")

    print("result: %s" % ("ok" if failures == 0 else "%d mismatches" % failures))
    return 0 if failures == 0 else 2


def _mesh_vertex_lines(out: list[str], pts: Sequence[Point3]) -> None:
    for p in pts:
        out.append("# exact %s" % _pstr(p))
        out.append(
            "v %s %s %s"
            % tuple("%.9g" % float(c) for c in p.as_tuple())
        )


def _mesh_object(
    out: list[str], name: str, poly: Optional[Polyhedron],
    loose: Sequence[Point3], base: int,
) -> int:
    """Append one named object; returns the new global vertex count."""
    out.append("o %s" % name)
    if poly is not None:
        _mesh_vertex_lines(out, poly.vertices)
        for cyc in poly.facet_vertices:
            out.append("f " + " ".join(str(base + 1 + i) for i in cyc))
        return base + len(poly.vertices)
    _mesh_vertex_lines(out, loose)
    out.append("# flat piece, no faces")
    return base + len(loose)


def _cmd_export(args) -> int:
    h = _load_handle(args.input)
    if args.level < 1:
        raise BadParameter("--level must be at least 1")
    k = args.level

    if args.kind == "slabs":
        _check_format(args.format, ("structured", "mesh"))
        ss = slabs(h, k)
        if args.format == "structured":
            record = {
                "command": "export",
                "kind": "slabs",
                "level": k,
                "corner": [
                    {
                        "ray": s.ray,
                        "level": s.level,
                        "apexes": list(s.apex_pair),
                        "fan": list(s.fan),
                        "integer_points": sorted(slab_integer_points(s)),
                    }
                    for s in ss.corner
                ],
                "bridge": [
                    {
                        "rays": [s.ray, s.next_ray],
                        "level": s.level,
                        "triangles": [list(t) for t in s.triangles],
                        "integer_points": sorted(slab_integer_points(s)),
                    }
                    for s in ss.bridge
                ],
            }
            _emit_json(record)
            return 0
        out: list[str] = ["# slab decomposition at level %d" % k]
        base = 0
        for s in ss.corner:
            base = _mesh_object(
                out, "corner_ray%d_level%d" % (s.ray, s.level),
                s.hull(), s.vertex_list(), base,
            )
        for s in ss.bridge:
            base = _mesh_object(
                out, "bridge_%d_%d_level%d" % (s.ray, s.next_ray, s.level),
                s.hull(), s.vertex_list(), base,
            )
        print("\n".join(out))
        return 0

    if args.kind == "layer":
        poly = convex_hull(
            [*_dilate_body(h, k).vertices, *_dilate_body(h, k + 1).vertices]
        )
        label = "layer closure between levels %d and %d" % (k, k + 1)
        name = "layer_%d" % k
    else:
        poly = _dilate_body(h, k)
        label = "dilation at level %d" % k
        name = "dilation_%d" % k

    if args.format == "structured":
        record = {
            "command": "export",
            "kind": args.kind,
            "level": k,
            "vertices": list(poly.vertices),
            "facets": [
                {"normal": list(f.int_tuple()[:3]), "offset": f.int_tuple()[3]}
                for f in poly.facets
            ],
            "faces": [list(cyc) for cyc in poly.facet_vertices],
        }
        _emit_json(record)
    elif args.format == "mesh":
        out = ["# %s" % label]
        _mesh_object(out, name, poly, (), 0)
        print("\n".join(out))
    else:
        print(_vertex_document(poly.vertices, label))
    return 0


def _dilate_body(h: SemigroupHandle, k: int) -> Polyhedron:
    scaled = dilate(h.body, k)
    assert isinstance(scaled, Polyhedron)
    return scaled


# ---------------------------------------------------------------------------
# argument wiring


class _Parser(argparse.ArgumentParser):
    """Argument errors surface as ParseError so exit codes stay uniform."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise ParseError(message)


@functools.cache
def _build_parser() -> _Parser:
    ap = _Parser(prog="polysgp", description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="command", required=True)

    def command(name, handler, text, formats=("text", "structured"), source=True):
        p = sub.add_parser(name, help=text)
        p.set_defaults(handler=handler)
        if source:
            p.add_argument(
                "input", nargs="?", default="-",
                help="vertex document path, or - for stdin (default)",
            )
        p.add_argument(
            "--format", choices=formats, default="text",
            help="output format (default text)",
        )
        return p

    p = command("msg", _cmd_msg, "minimal generating set")
    p.add_argument("--budget-layers", type=int, default=400)
    p.add_argument(
        "--oracle", action="store_true",
        help="recompute inside a box by brute force and diff",
    )

    # the lambdas look the deciders up when called, so a wrapper put on
    # them after the parser is built still runs
    for name, label, decide in (
        ("is-cm", "Cohen-Macaulay", lambda h, a: is_cohen_macaulay(h)),
        ("is-gorenstein", "Gorenstein",
         lambda h, a: is_gorenstein(h, budget_layers=a.budget_layers)),
        ("is-buchsbaum", "Buchsbaum",
         lambda h, a: is_buchsbaum(h, budget_layers=a.budget_layers)),
    ):
        p = command(name, _cmd_property, "decide the %s property" % label)
        p.set_defaults(decide=decide)
        if name != "is-cm":
            # is_cohen_macaulay takes no layer budget
            p.add_argument("--budget-layers", type=int, default=400)

    p = command("gaps", _cmd_gaps, "enumerate the gap region")
    p.add_argument(
        "--extra-periods", type=int, default=2,
        help="slab periods to enumerate past the base level",
    )
    p.add_argument("--oracle", action="store_true")

    command("decompose", _cmd_decompose, "structural decomposition report")

    p = command(
        "family", _cmd_family, "emit a Gorenstein family member", source=False
    )
    p.add_argument("--k", type=int, required=True, help="family parameter, k >= 2")
    p.add_argument(
        "--table", action="store_true",
        help="also print the Apery intersection rows",
    )

    p = command(
        "oracle-check", _cmd_oracle_check, "diff against the slow oracle",
        formats=("text",),
    )
    p.add_argument("--budget-layers", type=int, default=400)
    p.add_argument("--box", type=int, default=None, help="coordinate bound")

    p = command(
        "export", _cmd_export, "emit geometry for viewers",
        formats=("text", "structured", "mesh"),
    )
    p.add_argument(
        "--kind", choices=("dilation", "layer", "slabs"), default="dilation",
    )
    p.add_argument("--level", type=int, default=1)

    return ap


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        _validate_common(args)
        return args.handler(args)
    except _INPUT_ERRORS as exc:
        print("error [%s]: %s" % (type(exc).__name__, exc), file=sys.stderr)
        return 1
    except PolysgpError as exc:
        # unsupported configurations, exhausted budgets, failed invariants
        print("error [%s]: %s" % (type(exc).__name__, exc), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
