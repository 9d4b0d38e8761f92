"""Write the golden record of the `reproduce` outputs, tests/data/reproduce_golden.json.

    PYTHONPATH=src python tests/make_reproduce_golden.py
    PYTHONPATH=src python tests/make_reproduce_golden.py --moves

The record holds, for every target of `repro.TARGETS`, each assertion's
measured value, expected value and ok flag, and the target's `data` as JSON.
`test_reproduce_golden.py` reruns the targets and compares every number with
it.  A change that moves outputs on purpose reruns this script in the same
diff and reports each move.  `--moves` writes nothing: it reruns the targets
and prints each one's largest relative move against the record, whether
it passes the record's tolerances (relative plus the absolute floor; "ok
(floor)" when the move exceeds the relative tolerance and passes on the
floor alone), the path of that number and the count of leaves whose flag,
string, int or presence differs.
"""

from __future__ import annotations

import argparse
import json
import pathlib

from kelvin import repro

GOLDEN_PATH = pathlib.Path(__file__).parent / "data" / "reproduce_golden.json"

# every recorded float must match to REL_TOL relative plus ABS_FLOOR absolute,
# the floor for values near zero (no recorded nonzero value is below 1e-6 in
# magnitude)
REL_TOL = 1e-12
ABS_FLOOR = 1e-15

# Targets more sensitive than REL_TOL to a one-ulp change of their inputs:
# (tolerance, reason).  The move quoted is the largest relative change of any
# recorded number when every phi_k of `model._mode_row` moves up by one ulp
# (cos phi and sin phi recomputed); the optimizer's search path amplifies
# last-bit changes.  `table_optimal_avg` moved by 7.6e-14 and keeps REL_TOL.
TARGET_REL_TOL = {
    "fig_spec_reopt": (1e-11, "a one-ulp change of phi moves it by 7.4e-12"),
    "fig_scalability": (2e-12, "a one-ulp change of phi moves it by 1.2e-12"),
}


def target_record(result: repro.TargetResult) -> dict:
    """The JSON record of one target's result."""
    return json.loads(json.dumps({
        "passed": result.passed,
        "assertions": [{"name": a.name, "measured": a.measured, "expected": a.expected,
                        "ok": a.ok} for a in result.assertions],
        "data": result.data,
    }))


def leaves(record, path: str = "") -> dict[str, object]:
    """The leaves of a JSON record by path: numbers, flags, strings and None."""
    if isinstance(record, dict):
        items = ((f"{path}/{key}", value) for key, value in record.items())
    elif isinstance(record, list):
        items = ((f"{path}[{i}]", value) for i, value in enumerate(record))
    else:
        return {path: record}
    return {k: v for sub, value in items for k, v in leaves(value, sub).items()}


def mismatches(recorded, measured, rel_tol: float, abs_floor: float) -> list[str]:
    """The paths where `measured` differs from `recorded`: a missing or extra
    leaf, a different flag, string or int, or a float off by more than
    rel_tol relative plus abs_floor absolute."""
    want, got = leaves(recorded), leaves(measured)
    bad = sorted(set(want) ^ set(got))
    for path in sorted(set(want) & set(got)):
        a, b = want[path], got[path]
        if isinstance(a, float) and isinstance(b, float):
            close = abs(a - b) <= rel_tol * max(abs(a), abs(b)) + abs_floor
        else:
            close = a == b and type(a) is type(b)
        if not close:
            bad.append(f"{path}: recorded {a!r}, measured {b!r}")
    return bad


def largest_move(recorded, measured) -> tuple[float, str, int]:
    """(the largest |a - b| / max(|a|, |b|) over the floats both records hold,
    its path, the count of other leaves that differ or are missing)."""
    want, got = leaves(recorded), leaves(measured)
    move, where, other = 0.0, "", len(set(want) ^ set(got))
    for path in sorted(set(want) & set(got)):
        a, b = want[path], got[path]
        if isinstance(a, float) and isinstance(b, float):
            rel = 0.0 if a == b else abs(a - b) / max(abs(a), abs(b))
            if rel > move:
                move, where = rel, path
        elif not (a == b and type(a) is type(b)):
            other += 1
    return move, where, other


def print_moves() -> None:
    """Each target's largest relative move against the record; writes nothing."""
    golden = json.loads(GOLDEN_PATH.read_text())
    for name in repro.TARGETS:
        tol = golden["target_rel_tol"].get(name, {"rel_tol": golden["rel_tol"]})["rel_tol"]
        recorded, measured = golden["targets"][name], target_record(repro.run_target(name))
        move, where, other = largest_move(recorded, measured)
        bad = len(mismatches(recorded, measured, tol, golden["abs_floor"]))
        verdict = "FAILS" if bad else "ok (floor)" if move > tol else "ok"
        print(f"{name:20s} {move:9.2e} (rel_tol {tol:.0e}) {verdict:10s} "
              f"{where or '-'}{f'  {other} other leaves differ' if other else ''}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--moves", action="store_true",
                        help="print each target's largest move against the record, write nothing")
    if parser.parse_args().moves:
        print_moves()
        return
    record = {
        "rel_tol": REL_TOL,
        "abs_floor": ABS_FLOOR,
        "target_rel_tol": {name: {"rel_tol": tol, "reason": reason}
                           for name, (tol, reason) in TARGET_REL_TOL.items()},
        "targets": {name: target_record(repro.run_target(name)) for name in repro.TARGETS},
    }
    GOLDEN_PATH.parent.mkdir(exist_ok=True)
    GOLDEN_PATH.write_text(json.dumps(record, indent=1) + "\n")


if __name__ == "__main__":
    main()
