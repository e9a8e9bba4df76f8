"""Source layout checks on the shipped package, read with the stdlib ``ast``,
and the names the benchmark's tracer patches by lookup."""

import ast
import importlib.util
import inspect
from pathlib import Path

from ouperturb import drifts, engine, girsanov, harness

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "ouperturb"


def unused_imports(source: str) -> list:
    """Names bound by an import statement that the module never reads."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                bound[a.asname or a.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for a in node.names:
                bound[a.asname or a.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in bound.items() if name not in used)


def test_unused_imports_detected():
    src = "from __future__ import annotations\nimport os\nfrom a.b import c, d as e\ne()\n"
    assert unused_imports(src) == [(2, "os"), (3, "c")]


def test_no_unused_imports_in_package():
    found = [f"{path.name}:{line}: {name}"
             for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"
             for line, name in unused_imports(path.read_text())]
    assert not found, "unused imports:\n" + "\n".join(found)


def test_traced_names_exist():
    # perfbench/tracer.py replaces these names where their callers look them
    # up; a rename or a dropped import would silently untime a layer
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    names = [n for group in tracer.HARNESS_SPANS.values() for n in group]
    missing = [n for n in names + ["write_csv"] if not hasattr(harness, n)]
    assert not missing, f"not in ouperturb.harness: {missing}"
    assert callable(engine.run_ensemble)
    assert callable(girsanov.martingale_check)
    # Tracer.patch_drift: the resolvent on the drift's class, and for radial
    # drifts the Newton solve and the derivative it calls once per step
    assert callable(drifts.solve_radial_scale)
    assert callable(drifts.RadialGrowth.deriv)
    for cls in (drifts.RadialDrift, drifts.SaturatingDrift,
                drifts.TimeModulatedDrift):
        assert callable(cls.resolvent_warm)
    # one call per step: the stacked roles (w, X, y) of an integrate pass,
    # or w alone on a Girsanov-only pass, so the tracer counts one per step
    assert inspect.getsource(engine._run_block).count("drift.resolvent_warm(") == 2
