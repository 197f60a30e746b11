"""End-to-end command line checks, run in-process through main()."""

import dataclasses
import hashlib
import json
import os
import resource
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import instancegen
from conftest import (
    GORENSTEIN_NO_VERTICES,
    NONSIMPLICIAL_VERTICES,
    S3_GENERATORS,
    S3_VERTICES,
    S5_VERTICES,
    WE_VERTICES,
    WIDE_NORMALS_VERTICES,
)
from polysgp import build, cli, in_cone_int, oracle
from polysgp.decomposition import gap_points, gap_region
from polysgp.cli import main, parse_vertices
from polysgp.errors import ParseError
from polysgp.geometry import Point3


def _document(points) -> str:
    lines = ["vertices"]
    for p in points:
        lines.append(" ".join(str(Fraction(c)) for c in p))
    return "\n".join(lines) + "\n"


@pytest.fixture()
def s3_file(tmp_path):
    path = tmp_path / "s3.txt"
    path.write_text(_document(S3_VERTICES), encoding="utf-8")
    return str(path)


@pytest.fixture()
def s5_file(tmp_path):
    path = tmp_path / "s5.txt"
    path.write_text(_document(S5_VERTICES), encoding="utf-8")
    return str(path)


# ---------------------------------------------------------------------------
# parsing


def test_parse_accepts_three_notations():
    doc = (
        "# leading comment\n"
        "vertices:\n"
        "3 0 0  # integer\n"
        "(2.2, 0, 1)\n"
        "[33/16, 1, 0]\n"
    )
    pts = parse_vertices(doc)
    assert [p.as_tuple() for p in pts] == [
        (3, 0, 0),
        (Fraction(11, 5), 0, 1),
        (Fraction(33, 16), 1, 0),
    ]


def test_parse_rejects_bad_header():
    with pytest.raises(ParseError) as exc:
        parse_vertices("  points\n1 2 3\n")
    assert exc.value.line == 1
    assert exc.value.column == 3


def test_parse_reports_bad_token_position():
    with pytest.raises(ParseError) as exc:
        parse_vertices("vertices\n1 2 3\n(1, 2, 3x)\n")
    assert exc.value.line == 3
    assert exc.value.column == 8
    assert "line 3, column 8" in str(exc.value)


def test_parse_rejects_wrong_arity():
    with pytest.raises(ParseError) as exc:
        parse_vertices("vertices\n1 2\n")
    assert exc.value.line == 2


def test_parse_rejects_empty_documents():
    with pytest.raises(ParseError):
        parse_vertices("")
    with pytest.raises(ParseError):
        parse_vertices("vertices\n# nothing\n")


# ---------------------------------------------------------------------------
# exit codes


def test_msg_reports_generators(s3_file, capsys):
    assert main(["msg", s3_file]) == 0
    out = capsys.readouterr().out
    assert "generators: 6 (certified)" in out
    for g in S3_GENERATORS:
        assert "%d %d %d" % g in out


def test_no_verdict_still_exits_zero(s5_file, capsys):
    assert main(["is-cm", s5_file]) == 0
    out = capsys.readouterr().out
    assert "verdict: no" in out
    assert "witness" in out


def test_unsupported_configuration_exits_two(tmp_path, capsys):
    path = tmp_path / "pyramid.txt"
    path.write_text(_document(NONSIMPLICIAL_VERTICES), encoding="utf-8")
    assert main(["is-cm", str(path)]) == 2
    assert "NotSimplicial" in capsys.readouterr().err


def test_exhausted_budget_exits_two(s3_file, capsys):
    assert main(["msg", "--budget-layers", "2", s3_file]) == 2
    capsys.readouterr()
    for cmd in ("is-gorenstein", "is-buchsbaum"):
        assert main([cmd, "--budget-layers", "1", s3_file]) == 2
        assert "verdict: inconclusive" in capsys.readouterr().out.splitlines()


def test_slab_export_below_base_level_exits_one(s3_file, capsys):
    # s3's overlap level is 3, so the default --level 1 has no slabs
    argv = ["export", "--kind", "slabs", "--format", "mesh", s3_file]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert "BadParameter" in err and "base level 3" in err


@pytest.mark.parametrize("seed", [0, 15])
def test_uncut_bridge_past_three_rays_is_unsupported(tmp_path, capsys, seed):
    # four-ray bodies whose bridge has no edge parallel to its chord
    path = tmp_path / "body.txt"
    path.write_text(_document(instancegen.poly_vertices(seed)), "utf-8")
    for cmd in ("gaps", "decompose"):
        assert main([cmd, str(path)]) == 2
        assert "error [UnsupportedCase]" in capsys.readouterr().err


@pytest.mark.parametrize(
    "cmd, refusal",
    [
        ("gaps", "span a box of"),
        ("is-cm", "the corner window spans"),
        ("is-gorenstein", "the corner window spans"),
        ("is-buchsbaum", "the corner window spans"),
    ],
)
def test_wide_normals_body_is_refused_not_listed(tmp_path, capsys, cmd, refusal):
    # each ray's period is 2 * 10**18 + 1: the gap listing would walk
    # about 4 * 10**18 shells and the decider window 6 * 10**18 slab
    # translates, so both are refused before anything is allocated;
    # is-buchsbaum asks the Cohen-Macaulay decider first and meets the
    # window's refusal before any Apery scan
    path = tmp_path / "wide.txt"
    path.write_text(_document(WIDE_NORMALS_VERTICES), encoding="utf-8")
    assert main([cmd, str(path)]) == 2
    err = capsys.readouterr().err
    assert "error [UnsupportedCase]" in err and refusal in err


def test_budget_flag_only_where_it_is_read(s3_file, capsys):
    # is_cohen_macaulay takes no layer budget, so is-cm has no flag
    assert main(["is-cm", "--budget-layers", "1", s3_file]) == 1
    assert "--budget-layers" in capsys.readouterr().err
    for cmd in ("msg", "is-gorenstein", "is-buchsbaum", "oracle-check"):
        with pytest.raises(SystemExit):
            main([cmd, "--help"])
        assert "--budget-layers" in capsys.readouterr().out


def test_main_builds_one_parser(monkeypatch, capsys):
    # a query pays for parsing its arguments, not for the argparse tree
    built = []
    init = cli._Parser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(cli._Parser, "__init__", counted)
    for _ in range(2):
        assert main(["family", "--k", "2"]) == 0
    capsys.readouterr()
    assert built.count("polysgp") <= 1


def test_parse_failure_exits_one(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("vertices\n1 2 oops\n", encoding="utf-8")
    assert main(["msg", str(path)]) == 1
    assert "ParseError" in capsys.readouterr().err


def test_missing_file_exits_one(tmp_path, capsys):
    assert main(["msg", str(tmp_path / "absent.txt")]) == 1
    capsys.readouterr()


def test_bad_parameters_exit_one(s3_file, capsys):
    assert main(["msg", "--budget-layers", "0", s3_file]) == 1
    assert main(["family", "--k", "1"]) == 1
    assert main(["gaps", "--extra-periods", "-1", s3_file]) == 1
    assert main(["msg", "--no-such-flag", s3_file]) == 1
    assert main(["msg", "--format", "mesh", s3_file]) == 1
    assert main(["export", "--kind", "slabs", "--format", "text", s3_file]) == 1
    capsys.readouterr()


# ---------------------------------------------------------------------------
# output formats


def test_text_output_is_deterministic(s3_file, capsys):
    assert main(["decompose", s3_file]) == 0
    first = capsys.readouterr().out
    assert main(["decompose", s3_file]) == 0
    assert capsys.readouterr().out == first


def test_structured_output_is_sorted_json(s3_file, capsys):
    assert main(["msg", "--format", "structured", s3_file]) == 0
    first = capsys.readouterr().out
    record = json.loads(first)
    assert record["command"] == "msg"
    assert list(record) == sorted(record)
    assert main(["msg", "--format", "structured", s3_file]) == 0
    assert capsys.readouterr().out == first


def test_msg_oracle_agrees(s3_file, capsys):
    assert main(["msg", "--oracle", s3_file]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[-1] == "oracle: ok, 6 generators match inside the box"


def test_structured_cm_witness(s5_file, capsys):
    assert main(["is-cm", "--format", "structured", s5_file]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["verdict"] == "no"
    assert record["witness"] == {
        "point": [5, 5, 5],
        "generator_indices": [0, 1],
    }


def test_decompose_names_why_separation_is_missing(tmp_path, capsys):
    path = tmp_path / "we.txt"
    path.write_text(_document(WE_VERTICES), encoding="utf-8")
    assert main(["decompose", str(path)]) == 0
    assert (
        "separation_level: unavailable (separation level needs at least "
        "two point-chord rays)"
    ) in capsys.readouterr().out.splitlines()


def test_structured_decompose_and_slab_export_agree(s3_file, capsys):
    assert main(["decompose", "--format", "structured", s3_file]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["simplicial"] is True
    assert [r["chord"] for r in record["rays"]] == [
        "entry_vertex",
        "point",
        "point",
    ]
    assert (record["overlap_level"], record["separation_level"]) == (3, 3)
    assert record["separation_unavailable_reason"] is None
    assert record["base_level"] == 3
    corners = [
        (c["ray"], c["level"], c["fan_size"]) for c in record["corner_slabs"]
    ]
    assert corners == [(1, 3, 2), (2, 3, 2)]
    assert [b["rays"] for b in record["bridge_slabs"]] == [[1, 2]]

    argv = ["export", "--kind", "slabs", "--level", "3"]
    assert main(argv + ["--format", "structured", s3_file]) == 0
    export = json.loads(capsys.readouterr().out)
    assert (export["kind"], export["level"]) == ("slabs", 3)
    assert [
        (c["ray"], c["level"], len(c["fan"])) for c in export["corner"]
    ] == corners
    assert [b["rays"] for b in export["bridge"]] == [[1, 2]]
    # the slabs the export lists are the ones decompose counts
    assert [len(c["integer_points"]) for c in export["corner"]] == [
        c["integer_points"] for c in record["corner_slabs"]
    ]
    assert [len(b["integer_points"]) for b in export["bridge"]] == [
        b["integer_points"] for b in record["bridge_slabs"]
    ]


def test_family_output_feeds_other_commands(tmp_path, capsys):
    assert main(["family", "--k", "3"]) == 0
    doc = capsys.readouterr().out
    pts = parse_vertices(doc)
    assert [p.int_tuple() for p in pts] == [
        (4, 0, 0),
        (10, 0, 0),
        (7, 3, 0),
        (7, 0, 1),
    ]
    path = tmp_path / "fam3.txt"
    path.write_text(doc, encoding="utf-8")
    assert main(["is-gorenstein", str(path)]) == 0
    assert "verdict: yes" in capsys.readouterr().out


def test_export_round_trips_exactly(s3_file, capsys):
    assert main(["export", "--kind", "dilation", "--level", "1", s3_file]) == 0
    doc = capsys.readouterr().out
    rebuilt = build(parse_vertices(doc))
    original = build(parse_vertices(_document(S3_VERTICES)))
    assert {v.as_tuple() for v in rebuilt.body.vertices} == {
        v.as_tuple() for v in original.body.vertices
    }
    assert {f.int_tuple() for f in rebuilt.body.facets} == {
        f.int_tuple() for f in original.body.facets
    }


def test_mesh_export_has_faces(s3_file, capsys):
    assert main(["export", "--format", "mesh", "--level", "2", s3_file]) == 0
    out = capsys.readouterr().out
    assert any(line.startswith("o ") for line in out.splitlines())
    assert any(line.startswith("v ") for line in out.splitlines())
    assert any(line.startswith("f ") for line in out.splitlines())
    assert any(line.startswith("# exact") for line in out.splitlines())


GOLDEN = Path(__file__).resolve().parent / "golden"


@pytest.mark.parametrize(
    "vertices, argv, golden",
    [
        (GORENSTEIN_NO_VERTICES, [], "layer_gorenstein_no.txt"),
        (
            GORENSTEIN_NO_VERTICES,
            ["--format", "structured"],
            "layer_gorenstein_no.json",
        ),
        (
            GORENSTEIN_NO_VERTICES,
            ["--format", "mesh", "--level", "2"],
            "layer2_gorenstein_no.obj",
        ),
    ],
)
def test_layer_export_matches_golden(tmp_path, capsys, vertices, argv, golden):
    path = tmp_path / "body.txt"
    path.write_text(_document(vertices), encoding="utf-8")
    assert main(["export", "--kind", "layer", *argv, str(path)]) == 0
    assert capsys.readouterr().out == (GOLDEN / golden).read_text("utf-8")


@pytest.mark.parametrize(
    "vertices, golden",
    [
        # flat corner slabs, one flat bridge and two solid ones
        (instancegen.tetra_vertices(14), "slabs_tetra14.obj"),
        # solid corner slabs and a solid bridge
        (instancegen.poly_vertices(3), "slabs_poly3.obj"),
    ],
)
def test_slab_mesh_export_matches_golden(tmp_path, capsys, vertices, golden):
    path = tmp_path / "body.txt"
    path.write_text(_document(vertices), encoding="utf-8")
    argv = ["export", "--kind", "slabs", "--format", "mesh", str(path)]
    assert main(argv) == 0
    assert capsys.readouterr().out == (GOLDEN / golden).read_text("utf-8")


# a body whose cone points are all members: its gap listing is empty
NO_GAP_VERTICES = [(1, 1, 1), (2, 1, 1), (1, 2, 1), (1, 1, 2)]


def _reference_gaps(vertices, structured, with_oracle):
    """The `gaps` listing rendered one point at a time, the way the
    command printed it before it wrote from the integer rows."""
    h = build(vertices)
    region = gap_region(h)
    pts = [p.int_tuple() for p in gap_points(h, region)]
    if structured:
        record = {
            "command": "gaps",
            "overlap_level": region.overlap,
            "separation_level": region.separation,
            "base_level": region.base_level,
            "periods": {str(k): v for k, v in sorted(region.periods.items())},
            "count": len(pts),
            "points": pts,
        }
        if with_oracle:
            record["oracle_ok"] = True
        return json.dumps(record, sort_keys=True, indent=2) + "\n"
    sep = region.separation
    lines = [
        "overlap_level: %d" % region.overlap,
        "separation_level: %s" % ("unavailable" if sep is None else sep),
        "base_level: %d" % region.base_level,
        "gap points: %d" % len(pts),
    ]
    lines += ["  %s" % cli._pstr(t) for t in pts]
    if with_oracle:
        lines.append("oracle: ok, all %d points confirmed as gaps" % len(pts))
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("with_oracle", [False, True])
@pytest.mark.parametrize("structured", [False, True])
@pytest.mark.parametrize(
    "vertices", [S3_VERTICES, WE_VERTICES, NO_GAP_VERTICES],
    ids=["s3", "we", "no_gaps"],
)
def test_gap_listing_matches_reference(
    tmp_path, capsys, vertices, structured, with_oracle
):
    path = tmp_path / "body.txt"
    path.write_text(_document(vertices), encoding="utf-8")
    argv = ["gaps", str(path)]
    argv += ["--format", "structured"] if structured else []
    argv += ["--oracle"] if with_oracle else []
    assert main(argv) == 0
    expect = _reference_gaps(vertices, structured, with_oracle)
    assert capsys.readouterr().out == expect


def test_gap_listing_joins_blocks(tmp_path, capsys, monkeypatch):
    # blocks of two rows: s3's 95 gaps end on a part block, we's 3 too
    monkeypatch.setattr(cli, "_BLOCK", 2)
    for vertices in (S3_VERTICES, WE_VERTICES):
        path = tmp_path / "body.txt"
        path.write_text(_document(vertices), encoding="utf-8")
        for structured in (False, True):
            argv = ["gaps", str(path)]
            argv += ["--format", "structured"] if structured else []
            assert main(argv) == 0
            expect = _reference_gaps(vertices, structured, False)
            assert capsys.readouterr().out == expect


def _limit_address_space():
    cap = 1_500_000 * 1024
    resource.setrlimit(resource.RLIMIT_AS, (cap, cap))


def test_gap_listing_fits_in_a_bounded_address_space(tmp_path):
    # tetra seed 8 lists 14 382 619 gaps (about 200 MB of text, a 345 MB
    # array); the listing holds its blocks and one stacked copy, so it
    # finishes under 1.5 GB of address space with the same bytes
    path = tmp_path / "tetra8.txt"
    path.write_text(_document(instancegen.tetra_vertices(8)), encoding="utf-8")
    src = str(Path(cli.__file__).resolve().parents[1])
    proc = subprocess.Popen(
        [sys.executable, "-m", "polysgp.cli", "gaps", str(path)],
        # one BLAS thread, so no per-thread arena counts against the limit
        env={**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"},
        stdout=subprocess.PIPE,
        preexec_fn=_limit_address_space,
    )
    digest = hashlib.sha256()
    while chunk := proc.stdout.read(1 << 20):
        digest.update(chunk)
    assert proc.wait() == 0
    assert digest.hexdigest() == (
        "f9aa02d403c04b1a5c8356ebb01bc7dc2d9ad3c92bec9cb11e5a0dc836823631"
    )


def _run_limited(tmp_path, command, seed):
    """`polysgp <command>` on tetra seed `seed` in a subprocess under
    1.5 GB of address space."""
    path = tmp_path / ("tetra%d.txt" % seed)
    path.write_text(_document(instancegen.tetra_vertices(seed)), encoding="utf-8")
    src = str(Path(cli.__file__).resolve().parents[1])
    return subprocess.run(
        [sys.executable, "-m", "polysgp.cli", command, str(path)],
        env={**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"},
        capture_output=True,
        preexec_fn=_limit_address_space,
        timeout=300,
    )


def test_cm_decider_fits_in_a_bounded_address_space(tmp_path):
    # tetra seed 891's corner window holds 19 046 821 points, all but
    # 832 of them in the hull; the decider reads it one kernel block at
    # a time
    proc = _run_limited(tmp_path, "is-cm", 891)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.decode() == (
        "property: Cohen-Macaulay\n"
        "verdict: yes\n"
        "case: corner-slab window at separation level 106 over 3 point "
        "chords\n"
        "witness: none\n"
        "chord_classes: point, point, point\n"
        "overlap_level: 106\n"
        "region_gaps: 14171445\n"
        "region_points: 19046821\n"
        "separation_level: 106\n"
    )


def test_generators_after_the_cm_decider_fit_in_a_bounded_address_space(
    tmp_path,
):
    # `msg` asks for the verdict on tetra seed 891 and reads the cosets;
    # the bytes are those of the shell scan
    proc = _run_limited(tmp_path, "msg", 891)
    assert proc.returncode == 0, proc.stderr
    assert hashlib.sha256(proc.stdout).hexdigest() == (
        "94f4ffd061c84a3ec8affb96880cd5975f2760ad6dc09ea85c4a396840d5e1c2"
    )


def test_a_corner_window_past_the_box_cap_is_refused(tmp_path):
    # tetra seed 1241's window hull has a box of 6.9e9 cells
    proc = _run_limited(tmp_path, "is-cm", 1241)
    assert proc.returncode == 2
    assert proc.stderr.decode() == (
        "error [UnsupportedCase]: the hull of the corner window at "
        "separation level 401 spans a box of 6871990224 cells, more than "
        "2^32\n"
    )


def test_oracle_check_passes_on_small_box(s3_file, capsys):
    assert main(["oracle-check", "--box", "9", s3_file]) == 0
    out = capsys.readouterr().out
    assert "membership: ok" in out
    assert "generators: ok" in out


def test_oracle_refuses_a_box_past_the_cell_cap(s3_file, capsys, monkeypatch):
    # --box 9 is a cube of 10^3 cells, --box 10 one of 11^3
    monkeypatch.setattr(oracle, "_MAX_CELLS", 1000)
    assert main(["oracle-check", "--box", "9", s3_file]) == 0
    assert capsys.readouterr().out.endswith("result: ok\n")
    assert main(["oracle-check", "--box", "10", s3_file]) == 2
    captured = capsys.readouterr()
    assert captured.out.startswith("box: coordinates up to 10,")
    assert captured.err == (
        "error [UnsupportedCase]: oracle box of 11^3 = 1331 cells exceeds "
        "the cap of 1000 cells\n"
    )
    # the gap listing's box reaches past its largest gap coordinate
    monkeypatch.setattr(oracle, "_MAX_CELLS", 8)
    assert main(["gaps", "--oracle", s3_file]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error [UnsupportedCase]: oracle box of ")
    assert main(["gaps", s3_file]) == 0


def test_family_table_output(capsys):
    assert main(["family", "--k", "3", "--table"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "# Gorenstein family member, k = 3",
        "vertices",
        "  4 0 0",
        "  10 0 0",
        "  7 3 0",
        "  7 0 1",
        "# apery row y=0: 0 0 0; 5 0 0; 6 0 0; 7 0 0",
        "# apery row y=1: 5 1 0; 6 1 0; 7 1 0; 8 1 0",
        "# apery row y=2: 6 2 0; 7 2 0; 8 2 0; 13 2 0",
    ]
    assert main(["family", "--k", "3", "--table", "--format", "structured"]) == 0
    assert json.loads(capsys.readouterr().out) == {
        "apery_rows": [
            [[0, 0, 0], [5, 0, 0], [6, 0, 0], [7, 0, 0]],
            [[5, 1, 0], [6, 1, 0], [7, 1, 0], [8, 1, 0]],
            [[6, 2, 0], [7, 2, 0], [8, 2, 0], [13, 2, 0]],
        ],
        "command": "family",
        "empty_rows_checked": [3, 4],
        "k": 3,
        "vertices": [[4, 0, 0], [10, 0, 0], [7, 3, 0], [7, 0, 1]],
    }



def test_grid_cone_test_stays_exact_past_int64():
    # the cone normal (-1, -1, 2 * 10**18 + 2) meets (1, 1, 5), a cone
    # point, at about 10**19, past int64
    h = build(WIDE_NORMALS_VERTICES)
    grid = np.indices((10, 10, 10)).reshape(3, -1).T
    expect = [in_cone_int(h, p) for p in map(tuple, grid.tolist())]
    assert cli._cone_rows(h, grid).tolist() == expect
    assert expect[115]

# ---------------------------------------------------------------------------
# oracle failure paths: a discrepancy is injected on the main side, so
# the oracle's own answer is what the report is checked against


@pytest.fixture()
def we_file(tmp_path):
    path = tmp_path / "we.txt"
    path.write_text(_document(WE_VERTICES), encoding="utf-8")
    return str(path)


def _swap_generator(monkeypatch):
    # drop the generator (4, 6, 7) of s3 and claim (5, 6, 7) instead
    real = cli.minimal_generators

    def doctored(h, **kwargs):
        gens = real(h, **kwargs)
        kept = [g for g in gens.generators if g.int_tuple() != (4, 6, 7)]
        return dataclasses.replace(gens, generators=(*kept, Point3(5, 6, 7)))

    monkeypatch.setattr(cli, "minimal_generators", doctored)


def test_msg_oracle_reports_both_sides(s3_file, capsys, monkeypatch):
    _swap_generator(monkeypatch)
    assert main(["msg", "--oracle", s3_file]) == 2
    assert capsys.readouterr().out == (
        "generators: 6 (certified)\n  1 2 3\n  2 3 1\n  2 3 2\n  2 3 3\n"
        "  3 3 2\n  5 6 7\noracle only: 4 6 7\nmain only: 5 6 7\n"
    )
    assert main(["msg", "--oracle", "--format", "structured", s3_file]) == 2
    record = json.loads(capsys.readouterr().out)
    assert record["oracle_ok"] is False
    assert record["generators"][-1] == [5, 6, 7]


def test_gaps_oracle_reports_members(we_file, capsys, monkeypatch):
    # (2, 2, 2) is a member of we; the repeated (1, 0, 0) is a gap
    real = cli.gap_rows
    monkeypatch.setattr(
        cli, "gap_rows",
        lambda h, region, **kw: np.vstack(
            [real(h, region, **kw), [[2, 2, 2], [1, 0, 0]]]
        ),
    )
    assert main(["gaps", "--oracle", we_file]) == 2
    assert capsys.readouterr().out == (
        "overlap_level: 3\nseparation_level: unavailable\nbase_level: 3\n"
        "gap points: 5\n  0 0 1\n  0 1 0\n  1 0 0\n  2 2 2\n  1 0 0\n"
        "not a gap by the oracle: 2 2 2\n"
    )
    assert main(["gaps", "--oracle", "--format", "structured", we_file]) == 2
    record = json.loads(capsys.readouterr().out)
    assert record["oracle_ok"] is False
    assert record["count"] == 5


def test_oracle_check_lists_ten_points_per_mismatch(s3_file, capsys, monkeypatch):
    # flip the first fifteen box points in lexicographic order: the
    # origin turns into a main-side gap, the rest into main-side members
    real = cli._closure_rows

    def doctored(h, pts, *args):
        ok = real(h, pts, *args)
        ok[:15] ^= True
        return ok

    monkeypatch.setattr(cli, "_closure_rows", doctored)
    assert main(["oracle-check", "--box", "9", s3_file]) == 2
    assert capsys.readouterr().out == (
        "box: coordinates up to 9, layers up to 4\n"
        "membership: MISMATCH at 15 points\n"
        "  0 0 0 (oracle only)\n"
        + "".join("  0 0 %d (main only)\n" % z for z in range(1, 10))
        + "gaps: MISMATCH at 1 points\n  0 0 0 (main only)\n"
        "generators: ok, 6 generators\nrays: ok, 3 extremal rays\n"
        "apery: skipped (incomplete or outside the box)\n"
        "result: 2 mismatches\n"
    )


def test_oracle_check_reports_generators_and_apery(s3_file, capsys, monkeypatch):
    _swap_generator(monkeypatch)
    real = cli.apery_intersection

    def doctored(h, **kwargs):
        ap = real(h, **kwargs)
        kept = [p for p in ap.elements if p.int_tuple() != (0, 0, 0)]
        return dataclasses.replace(ap, elements=(*kept, Point3(9, 9, 9)))

    monkeypatch.setattr(cli, "apery_intersection", doctored)
    assert main(["oracle-check", s3_file]) == 2
    assert capsys.readouterr().out == (
        "box: coordinates up to 28, layers up to 14\n"
        "membership: ok, 1372 member points\ngaps: ok, 279 gap points\n"
        "generators: MISMATCH at 2 points\n"
        "  4 6 7 (oracle only)\n  5 6 7 (main only)\n"
        "rays: ok, 3 extremal rays\n"
        "apery: MISMATCH at 2 points\n"
        "  0 0 0 (oracle only)\n  9 9 9 (main only)\n"
        "result: 2 mismatches\n"
    )
