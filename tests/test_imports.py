"""Import contracts: kelvin loads SciPy only where it uses it (see
tests/import_guard.py), the engines leave the fixed-point verdict to the
shared solve, every function the benchmark traces exists, and the
package's settable values do not grow."""

import ast
import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_scipy_stays_off_the_import_path():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(ROOT / "tests" / "import_guard.py")],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "no SciPy module loaded" in proc.stdout


def test_scipy_and_engine_imports_by_source():
    """Only `optimize` names SciPy, and the CM engine does not import the Fock engine."""
    src = ROOT / "src" / "kelvin"
    naming_scipy = sorted(p.name for p in src.glob("*.py") if "scipy" in p.read_text())
    assert naming_scipy == ["optimize.py"]
    cm_imports = [line for line in (src / "cm.py").read_text().splitlines()
                  if line.startswith(("import ", "from "))]
    assert not any("fock" in line for line in cm_imports), cm_imports


def test_engines_leave_the_fixed_point_verdict_to_the_shared_solve():
    """Hermitization, the residual and its verdict live in
    `_linalg.affine_fixed_points` alone, so the engines cannot judge their
    states differently again."""
    src = ROOT / "src" / "kelvin"
    names = ("hermitize", "trace_norm", "FIXED_POINT_ATOL", "NonUniqueFixedPoint")
    found = [(path, name) for path in ("cm.py", "fock.py") for name in names
             if name in (src / path).read_text()]
    assert not found, found
    linalg = (src / "_linalg.py").read_text()
    assert "def hermitize" not in linalg and "def trace_norm" not in linalg


def test_perfbench_wrapped_names_resolve():
    """Every function the benchmark's tracer wraps exists under its name, so
    a rename fails here and not only in a traced benchmark run."""
    spec = importlib.util.spec_from_file_location("perfbench_spans",
                                                  ROOT / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = []
    for layer, names in spans.WRAPPED.items():
        module = importlib.import_module(f"kelvin.{layer}")
        for name in names:
            obj = module
            for part in name.split("."):
                obj = getattr(obj, part, None)
            if not callable(obj):
                missing.append(f"{layer}.{name}")
    assert not missing, missing


def test_every_export_resolves_once():
    """Every entry of every kelvin module's `__all__` exists and is listed
    once, so a deletion cannot leave a stale export behind."""
    problems = []
    for path in sorted((ROOT / "src" / "kelvin").glob("*.py")):
        name = "kelvin" if path.stem == "__init__" else f"kelvin.{path.stem}"
        module = importlib.import_module(name)
        exports = list(getattr(module, "__all__", ()))
        problems += [f"{name}.{e} is missing" for e in exports if not hasattr(module, e)]
        problems += [f"{name}.{e} is listed twice" for e in sorted(set(exports))
                     if exports.count(e) > 1]
    assert not problems, problems


# Settable values in src/kelvin/*.py after the last change that removed some.
SETTABLE_VALUES_BOUND = 410


def _settable_values(tree: ast.Module) -> int:
    """Function parameters other than self and cls (with *args and **kwargs)
    plus the annotated fields of dataclasses and NamedTuples."""
    count = 0
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            a = node.args
            params = a.posonlyargs + a.args + a.kwonlyargs + [p for p in (a.vararg, a.kwarg) if p]
            count += sum(p.arg not in ("self", "cls") for p in params)
        elif isinstance(node, ast.ClassDef):
            record = any(getattr(d.func if isinstance(d, ast.Call) else d, "id", None) == "dataclass"
                         for d in node.decorator_list)
            record = record or any(getattr(b, "id", None) == "NamedTuple" for b in node.bases)
            if record:
                count += sum(isinstance(s, ast.AnnAssign) for s in node.body)
    return count


def test_settable_values_do_not_grow():
    """Each settable value is a setting that tests and benchmarks must cover,
    so their count may only fall.  A change that adds a justified option
    raises SETTABLE_VALUES_BOUND in the same diff and says why in CHANGES.md;
    a change that removes some lowers it."""
    total = sum(_settable_values(ast.parse(path.read_text()))
                for path in sorted((ROOT / "src" / "kelvin").glob("*.py")))
    assert total <= SETTABLE_VALUES_BOUND, total
