"""The package names the benchmark under `perfbench/` reaches for.

The benchmark's tracer wraps package functions by name and its corpus
imports others; a rename or deletion in the package would break the
benchmark, so it fails here first.
"""

import ast
import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _parse(name: str) -> ast.Module:
    return ast.parse((PERFBENCH / name).read_text(encoding="utf-8"))


def _dict_literal(tree: ast.Module, var: str) -> dict[str, list[str]]:
    """Module name -> function names of the module-level dict `var`."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == var for t in node.targets
        ):
            return {
                key.id: [e.value for e in val.elts]
                for key, val in zip(node.value.keys, node.value.values)
            }
    raise AssertionError("no %s in perfbench/tracing.py" % var)


def test_traced_functions_exist():
    tree = _parse("tracing.py")
    missing = []
    for var in ("SPANNED", "COUNTED"):
        table = _dict_literal(tree, var)
        assert table
        for mod, names in table.items():
            module = importlib.import_module("polysgp." + mod)
            missing += [
                "%s.%s" % (mod, n)
                for n in names
                if not callable(getattr(module, n, None))
            ]
    assert not missing


def test_imported_names_exist():
    missing = []
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(_parse(path.name)):
            if not (
                isinstance(node, ast.ImportFrom)
                and (node.module or "").split(".")[0] == "polysgp"
            ):
                continue
            module = importlib.import_module(node.module)
            for alias in node.names:
                if hasattr(module, alias.name):
                    continue
                try:
                    importlib.import_module(node.module + "." + alias.name)
                except ImportError:
                    missing.append(
                        "%s: %s.%s" % (path.name, node.module, alias.name)
                    )
    assert not missing
