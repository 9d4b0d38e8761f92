"""Compare two sets of benchmark runs recorded with `run.py --record`.

    python3 perfbench/run.py --compare parent.jsonl change.jsonl

For each workload and metric it prints a markdown table row with both
medians and quartiles, the spread of A (quartile distance over median), the
ratio of medians B/A, and how many pairs B wins.  Runs pair up by seed (the
i-th run of A with the i-th of B when the seeds differ); a win is B strictly
better in the metric's direction from BENCHMARK.json, ties count for
neither.  The gain rule is: B wins at least 9 of 10 pairs and the medians
differ by more than A's quartile distance.  The regression rule is: B's
median is no worse than A's by more than the metric's bound.
"""

from __future__ import annotations

import json
import os
import statistics

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(path: str) -> dict[tuple[str, str], list[tuple[int, float]]]:
    """{(workload, metric): [(seed, value), ...]} from a --record file."""
    runs: dict[tuple[str, str], list[tuple[int, float]]] = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if not line.strip():
                continue
            rec = json.loads(line)
            for name, metric in rec["result"]["metrics"].items():
                runs.setdefault((rec["workload"], name), []).append((rec["seed"], metric["value"]))
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def pair_up(a: list[tuple[int, float]], b: list[tuple[int, float]]) -> list[tuple[float, float]]:
    a_by_seed, b_by_seed = dict(a), dict(b)
    if len(a_by_seed) == len(a) and set(a_by_seed) == set(b_by_seed):
        return [(a_by_seed[s], b_by_seed[s]) for s in sorted(a_by_seed)]
    return [(x, y) for (_, x), (_, y) in zip(a, b)]


def metric_specs() -> dict[str, dict]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    return {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}


def main(path_a: str, path_b: str) -> int:
    runs_a, runs_b = load(path_a), load(path_b)
    specs = metric_specs()
    print(f"A = {path_a}, B = {path_b}")
    print("| workload | metric | A median [q1, q3] | A spread | B median [q1, q3] "
          "| B/A | B wins | verdict |")
    print("|---|---|---|---|---|---|---|---|")
    for key in sorted(set(runs_a) & set(runs_b)):
        workload, name = key
        spec = specs.get(name, {"better": "lower", "unit": ""})
        a_vals = [v for _, v in runs_a[key]]
        b_vals = [v for _, v in runs_b[key]]
        a_q1, a_med, a_q3 = quartiles(a_vals)
        b_q1, b_med, b_q3 = quartiles(b_vals)
        sign = 1.0 if spec["better"] == "higher" else -1.0
        pairs = pair_up(runs_a[key], runs_b[key])
        wins = sum(1 for x, y in pairs if sign * (y - x) > 0)
        spread = (a_q3 - a_q1) / abs(a_med) if a_med else float("nan")
        ratio = b_med / a_med if a_med else float("nan")
        verdict = ""
        if "bound" in spec and a_med:
            worse = sign * (a_med - b_med) / abs(a_med)
            if 10 * wins >= 9 * len(pairs) and abs(b_med - a_med) > a_q3 - a_q1:
                verdict = "gain"
            elif worse > spec["bound"]:
                verdict = f"regression (> {spec['bound']:.0%})"
            elif spread > spec["bound"]:
                verdict = "unresolved (spread > bound)"
            else:
                verdict = "no regression"
        print(f"| {workload} | {name} ({spec['unit']}) | {a_med:.4g} [{a_q1:.4g}, {a_q3:.4g}] "
              f"| {spread:.1%} | {b_med:.4g} [{b_q1:.4g}, {b_q3:.4g}] | {ratio:.3f} "
              f"| {wins}/{len(pairs)} | {verdict} |")
    return 0
