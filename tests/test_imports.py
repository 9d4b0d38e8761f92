"""Import contracts: kelvin loads SciPy only where it uses it (see
tests/import_guard.py), and every function the benchmark traces exists."""

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
