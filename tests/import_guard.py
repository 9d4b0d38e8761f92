"""Check that kelvin loads SciPy only where it uses it.

Run it with kelvin importable, from the source tree or installed:

    PYTHONPATH=src python tests/import_guard.py
    cd /tmp && python /path/to/checkout/tests/import_guard.py   # installed package

It imports kelvin and runs small `spectrum`, `steady` (both engines),
`trajectory` and `rates` jobs through `kelvin.cli.main`, checking after each
step that no `scipy` module is loaded.  A short `optimize` job must then
succeed by importing SciPy on first use.  Exits non-zero on the first failure.
"""

import json
import sys
import tempfile
from pathlib import Path

MODEL = {"N": 8, "theta": 0.9}
SCHEME = {"nn": 0, "lambda": {"0": 1.0}, "mu": {"0": 1.0}, "g": 0.05}
BATH = {"delta": 1.1, "cycle_time": 4.3}
STEADY = {"model": MODEL, "scheme": SCHEME, "bath": BATH, "schedule": {"kind": "single"},
          "noise": {"kind": "none"}}

JOBS = [
    ("spectrum", [], {"model": MODEL}),
    ("steady", ["--engine", "fock"], STEADY),
    ("steady", ["--engine", "cm"], STEADY),
    ("trajectory", [],
     {**STEADY, "schedule": {"kind": "randomized", "L": 3}, "run": {"cycles": 10}, "seed": 1}),
    ("rates", [], {k: v for k, v in STEADY.items() if k != "noise"}),
]
OPTIMIZE = {"model": MODEL, "scheme": SCHEME,
            "optimize": {"objective": "theta_specific", "budget": 60, "restarts": 1,
                         "init": {"delta": 1.0, "t": 3.0}}}


def scipy_modules() -> list[str]:
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))


def run(cli, work: Path, n: int, command: str, options: list[str], config: dict) -> None:
    cfg = work / f"cfg{n}.json"
    cfg.write_text(json.dumps(config))
    rc = cli.main([command, "--config", str(cfg), "--out", str(work / f"out{n}"), *options])
    if rc != 0:
        sys.exit(f"kelvin {command} {' '.join(options)} exited with {rc}")


def main() -> None:
    import kelvin
    import kelvin.cli
    import kelvin.repro  # noqa: F401

    if scipy_modules():
        sys.exit(f"import kelvin loaded {scipy_modules()[:5]}")
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for n, (command, options, config) in enumerate(JOBS):
            run(kelvin.cli, work, n, command, options, config)
            if scipy_modules():
                sys.exit(f"kelvin {command} {' '.join(options)} loaded {scipy_modules()[:5]}")
        run(kelvin.cli, work, len(JOBS), "optimize", [], OPTIMIZE)
    if "scipy.optimize" not in sys.modules:
        sys.exit("kelvin optimize ran without scipy.optimize")
    jobs = ", ".join(" ".join([command, *options]) for command, options, _ in JOBS)
    print(f"kelvin from {Path(kelvin.__file__).parent}: no SciPy module loaded by the import "
          f"or by {jobs}; optimize imported it on first use")


if __name__ == "__main__":
    main()
