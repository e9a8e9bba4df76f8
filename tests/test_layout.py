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


# the src/ calls of np.linalg.norm that stay, as (module, enclosing function)
# -> the reason; every other Euclidean norm is drifts.norm, which sums the
# squares in the fixed order of the stepping loop (np.linalg.norm of a 1-D
# vector goes through a BLAS dot, and its sums over 8 or more modes pair terms)
LINALG_NORM_ALLOWED = {}


def linalg_norm_calls(source: str) -> list:
    """``(enclosing function, line)`` of each ``linalg.norm`` call and each
    import from ``numpy.linalg``, in source order."""
    found = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if (isinstance(child, ast.Call)
                    and ast.unparse(child.func).endswith("linalg.norm")) or (
                    isinstance(child, ast.ImportFrom)
                    and (child.module or "").startswith("numpy.linalg")):
                found.append((where, child.lineno))
            visit(child, where)
    visit(ast.parse(source), "<module>")
    return found


def test_linalg_norm_calls_detected():
    src = ("import numpy as np\nfrom numpy.linalg import norm\n"
           "r = np.linalg.norm(x)\ndef f(x):\n    return np.linalg.norm(x, axis=-1)\n")
    assert linalg_norm_calls(src) == [("<module>", 2), ("<module>", 3), ("f", 5)]


def test_linalg_norm_only_at_allowed_sites():
    found = [(path.stem, where, line) for path in sorted(PACKAGE.glob("*.py"))
             for where, line in linalg_norm_calls(path.read_text())]
    extra = [f"{m}.py:{line} in {w}" for m, w, line in found
             if (m, w) not in LINALG_NORM_ALLOWED]
    assert not extra, "np.linalg.norm outside the allowlist (use drifts.norm):\n" \
        + "\n".join(extra)
    assert set(LINALG_NORM_ALLOWED) <= {(m, w) for m, w, _ in found}, \
        "stale allowlist entries"


# the dataclass fields that may hold None, as (module, class, field); every
# other report field has one type.  EstimateConstant.closed_form is None where
# no closed form is known, which writes the empty cell of lemma_constants.csv
OPTIONAL_FIELDS_ALLOWED = {("weights", "EstimateConstant", "closed_form")}


def optional_fields(source: str) -> list:
    """``(class, field)`` of each dataclass field annotated ``X | None`` or
    ``Optional[X]``."""
    found = []
    for cls in ast.walk(ast.parse(source)):
        if not (isinstance(cls, ast.ClassDef) and any(
                "dataclass" in ast.unparse(d) for d in cls.decorator_list)):
            continue
        for stmt in cls.body:
            if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name) \
                    and ("Optional" in ast.unparse(stmt.annotation)
                         or any(isinstance(n, ast.Constant) and n.value is None
                                for n in ast.walk(stmt.annotation))):
                found.append((cls.name, stmt.target.id))
    return found


def test_optional_fields_detected():
    src = ("from dataclasses import dataclass\n@dataclass(frozen=True)\nclass A:\n"
           "    a: float\n    b: float | None\n    c: Optional[int] = None\n"
           "class B:\n    d: int | None\n")
    assert optional_fields(src) == [("A", "b"), ("A", "c")]


def test_no_optional_report_fields():
    found = {(path.stem, cls, name) for path in sorted(PACKAGE.glob("*.py"))
             for cls, name in optional_fields(path.read_text())}
    extra = sorted(found - OPTIONAL_FIELDS_ALLOWED)
    assert not extra, "dataclass fields that may be None:\n" + "\n".join(
        f"{m}.{c}.{f}" for m, c, f in extra)
    assert OPTIONAL_FIELDS_ALLOWED <= found, "stale allowlist entries"


# the names only run_stages may use: it runs the pass once, then announces,
# times and records each stage
RUNNER_NAMES = {"ensure_ensemble", "say", "stages_done", "stage_seconds"}


def stage_bookkeeping(source: str) -> list:
    """``(stage, name, line)`` of each use of a :data:`RUNNER_NAMES` name,
    called or read, inside a ``stage_*`` function."""
    found = []
    for fn in ast.parse(source).body:
        if isinstance(fn, ast.FunctionDef) and fn.name.startswith("stage_"):
            for node in ast.walk(fn):
                name = getattr(node, "id", None) or getattr(node, "attr", None)
                if isinstance(node, (ast.Name, ast.Attribute)) and name in RUNNER_NAMES:
                    found.append((fn.name, name, node.lineno))
    return found


def test_stage_bookkeeping_detected():
    src = ("def stage_a(state):\n    res = ensure_ensemble(state)\n"
           "    state.say('x')\n    state.stages_done.append('a')\n"
           "def run_stages(state):\n    state.stage_seconds['a'] = 1\n"
           "def stage_b(state):\n    return state.stage_seconds\n")
    assert stage_bookkeeping(src) == [("stage_a", "ensure_ensemble", 2),
                                      ("stage_a", "say", 3),
                                      ("stage_a", "stages_done", 4),
                                      ("stage_b", "stage_seconds", 8)]


def test_stages_leave_the_bookkeeping_to_run_stages():
    found = stage_bookkeeping((PACKAGE / "harness.py").read_text())
    assert not found, "stages that run the pass or record themselves:\n" + \
        "\n".join(f"harness.py:{line} {stage} uses {name}"
                  for stage, name, line in found)


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
