"""Tests of the benchmark itself: output checks, tracing, result format.

    python3 -m pytest perfbench

The check tests run one real batch of each workload (about 20 s in all) and
then perturb the files the jobs wrote.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import shutil
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import kelvin.cli as cli  # noqa: E402
import kelvin.model  # noqa: E402
import kelvin.optimize  # noqa: E402
import kelvin.protocol  # noqa: E402

import compare  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(scope="module")
def batches(tmp_path_factory):
    """One batch of every workload, run once: {name: (workload, jobs)}."""
    done = {}
    for name, cls in workloads.WORKLOADS.items():
        wl = cls(seed=3, work_dir=str(tmp_path_factory.mktemp(name)))
        jobs = wl.batch(0)
        for job in jobs:
            assert cli.main(job.argv()) == 0, job
        done[name] = (wl, jobs)
    return done


def _job(jobs, job_id):
    return next(job for job in jobs if job.job_id == job_id)


@contextlib.contextmanager
def perturbed(path, edit):
    """Temporarily replace the file's text with edit(text)."""
    with open(path, encoding="utf-8") as fh:
        original = fh.read()
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(edit(original))
        yield
    finally:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(original)


def shift_csv(column_prefix, delta, row=None):
    def edit(text):
        rows = list(csv.reader(io.StringIO(text)))
        header = rows[0]
        cols = [i for i, h in enumerate(header) if h.startswith(column_prefix)]
        for r_i, r in enumerate(rows[1:], start=1):
            if row is None or r_i == row:
                for c in cols:
                    r[c] = repr(float(r[c]) + delta)
        out = io.StringIO()
        csv.writer(out, lineterminator="\n").writerows(rows)
        return out.getvalue()
    return edit


def set_json(path_keys, value):
    def edit(text):
        obj = json.loads(text)
        target = obj
        for key in path_keys[:-1]:
            target = target[key] if key != "*" else next(iter(target.values()))
        target[path_keys[-1]] = value
        return json.dumps(obj)
    return edit


def test_steady_check_rejects_perturbed_outputs(batches):
    wl, jobs = batches["steady"]
    bad, gaps = wl.check(jobs, set())
    assert bad == {}
    assert all(gap <= workloads.STEADY_TOL for gap in gaps.values())

    cm_out = _job(jobs, "none-cm").out_dir
    with perturbed(os.path.join(cm_out, "steady.csv"), shift_csv("E_k", 1e-6)):
        bad, _ = wl.check(jobs, set())
    assert set(bad) == {"none-cm", "none-fock"}

    with perturbed(os.path.join(cm_out, "summary.json"), set_json(["max_residual"], math.nan)):
        bad, _ = wl.check(jobs, set())
    assert bad == {"none-cm": "bad output: non-finite residual nan",
                   "none-fock": "partner job failed"}

    os.rename(cm_out, cm_out + ".moved")
    try:
        bad, _ = wl.check(jobs, set())
    finally:
        os.rename(cm_out + ".moved", cm_out)
    assert set(bad) == {"none-cm", "none-fock"}

    bad, _ = wl.check(jobs, {"depolarizing-fock"})
    assert set(bad) == {"depolarizing-cm"}


def test_trajectory_check_rejects_perturbed_outputs(batches):
    wl, jobs = batches["trajectory"]
    bad, gaps = wl.check(jobs, set())
    assert bad == {}
    assert all(gap <= workloads.TRAJECTORY_TOL for gap in gaps.values())

    path = os.path.join(_job(jobs, "multifreq-cm").out_dir, "trajectory.csv")
    with perturbed(path, shift_csv("E_k50", 1e-9, row=5)):
        bad, _ = wl.check(jobs, set())
    assert set(bad) == {"multifreq-cm", "multifreq-fock"}

    with perturbed(path, lambda text: "".join(text.splitlines(keepends=True)[:-1])):
        bad, _ = wl.check(jobs, set())
    assert set(bad) == {"multifreq-cm", "multifreq-fock"}


def test_optimize_check_rejects_perturbed_outputs(batches):
    wl, jobs = batches["optimize"]
    bad, gaps = wl.check(jobs, set())
    assert bad == {}
    assert gaps["optimize.max_J_opt_over_J_row"] <= 1.0 + workloads.OPTIMIZE_REL_SLACK

    job = _job(jobs, "nn0.5-high-cm")
    above_row = 1.01 * wl.reference["nn0.5-high"]
    with perturbed(os.path.join(job.out_dir, "optimum.json"), set_json(["objective"], above_row)):
        bad, _ = wl.check(jobs, set())
    assert set(bad) == {job.job_id}

    for value in (2 * workloads.VALIDATION_BOUND, math.nan):
        with perturbed(os.path.join(job.out_dir, "validation.json"),
                       set_json(["by_theta", "*", "difference"], value)):
            bad, _ = wl.check(jobs, set())
        assert set(bad) == {job.job_id}

    with perturbed(os.path.join(job.out_dir, "optimum.json"), lambda text: text[:-5]):
        bad, _ = wl.check(jobs, set())
    assert set(bad) == {job.job_id}


def test_batches_run_both_engines_and_alternate_which_goes_first(tmp_path):
    for name, cls in workloads.WORKLOADS.items():
        wl = cls(seed=1, work_dir=str(tmp_path / name))
        first = [wl.batch(index) for index in (0, 1)]
        assert {job.engine for job in first[0]} == {"fock", "cm"}
        assert all(os.path.isfile(job.config_path) for job in first[0])
        assert len({job.seed for batch in first for job in batch}) == 1
        if name != "optimize":
            assert first[0][0].engine != first[1][0].engine


def test_same_seed_gives_same_inputs(tmp_path):
    for name, cls in workloads.WORKLOADS.items():
        a, b, c = (cls(seed=seed, work_dir=str(tmp_path / f"{name}{i}"))
                   for i, seed in enumerate((5, 5, 6)))
        argv = [[job.argv()[:1] + job.argv()[5:] for job in wl.batch(3)] for wl in (a, b, c)]
        assert argv[0] == argv[1] != argv[2]
        for x, y in zip(a.batch(3), b.batch(3)):
            with open(x.config_path) as fx, open(y.config_path) as fy:
                assert fx.read() == fy.read()


def test_tracer_accounts_for_a_job_and_restores_bindings(tmp_path):
    cfg = {"model": {"N": 12, "theta": 1.0},
           "scheme": {"nn": 0, "lambda": {"0": 1.0}, "mu": {"0": 1.0}, "g": 0.05},
           "bath": {"delta": 1.0, "cycle_time": 3.0},
           "schedule": {"kind": "randomized", "L": 10}, "noise": {"kind": "none"}}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    original = kelvin.protocol.block_hamiltonian
    tracer = spans.Tracer()
    tracer.set_job("j0")
    with tracer.installed():
        assert kelvin.protocol.block_hamiltonian is not original
        assert kelvin.protocol.block_hamiltonian is kelvin.model.block_hamiltonian
        t0 = time.perf_counter()
        assert cli.main(["steady", "--config", str(path), "--out", str(tmp_path / "out"),
                         "--engine", "fock"]) == 0
        wall = time.perf_counter() - t0
    assert kelvin.protocol.block_hamiltonian is original
    assert kelvin.model.block_hamiltonian is original

    m = tracer.batch_metrics(wall)
    assert m["cli.main.calls"] == 1
    assert m["protocol.steady_report.calls"] == 1
    assert m["fock.averaged_cycle_map.calls"] == 12 // 2 + 1
    assert abs(m["trace.unattributed_frac"]) < 0.05
    assert sum(m[f"{layer}.share"] for layer in spans.LAYERS) == pytest.approx(
        1.0 - m["trace.unattributed_frac"])
    assert len(tracer.start) == sum(m[f"{fn}.calls"] for fn in spans.FUNCTIONS)
    assert max(tracer.parent) < len(tracer.start) and tracer.parent[0] == -1
    assert all(e >= s for s, e in zip(tracer.start, tracer.end))


def test_tracer_counts_an_exception_once_per_layer():
    tracer = spans.Tracer()
    params = kelvin.model.ModelParams(12, 1.0)
    bath = kelvin.model.BathSpec(1.0, 3.0)
    with tracer.installed(), pytest.raises(ValueError):
        kelvin.protocol.make_schedule({"kind": "randomized", "L": 0}, params, bath, 0)
    m = tracer.batch_metrics(1.0)
    assert m["protocol.errors"] == 1
    assert m["protocol.make_schedule.calls"] == 1


def test_tracer_counts_optimizer_evaluations():
    tracer = spans.Tracer()
    scheme = kelvin.model.CouplingScheme.local(1.0, 1.0, g=0.1)
    init = kelvin.optimize.ParamVector(scheme, 1.0, 3.0)
    with tracer.installed():
        res = kelvin.optimize.optimize(
            lambda pv: kelvin.optimize.objective_phase_averaged(pv, "low", 20),
            init, budget=60, restarts=1, seed=1)
    m = tracer.batch_metrics(1.0)
    assert m["optimize.evals_per_budget"] == res.evaluations / 60
    assert 0 < m["optimize.improving_eval_frac"] <= 1
    assert m["optimize.objective_phase_averaged.calls"] >= res.evaluations


def test_metric_names_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == spans.metric_units()
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)


def test_run_fails_without_kelvin_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "steady", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_compare_counts_pair_wins(tmp_path, capsys):
    def write(path, scale):
        with open(path, "w", encoding="utf-8") as fh:
            for seed in range(10):
                value = scale * (1.0 + 0.01 * seed)
                fh.write(json.dumps({"workload": "steady", "seed": seed, "result": {
                    "metrics": {"batch_s": {"value": value, "unit": "s"}}}}) + "\n")
    write(tmp_path / "a.jsonl", 1.0)
    write(tmp_path / "b.jsonl", 0.8)
    assert compare.main(str(tmp_path / "a.jsonl"), str(tmp_path / "b.jsonl")) == 0
    row = next(line for line in capsys.readouterr().out.splitlines() if "batch_s" in line)
    assert "| 10/10 | gain |" in row


def test_batch_times_sum_each_jobs_median_at_reference_speed():
    runner = run.Runner(cli, workload=None)
    runner.engine = {"a-fock": "fock", "a-cm": "cm", "b-fock": "fock"}
    batches = [{"ref": {"a-fock": 2.0, "a-cm": 1.0, "b-fock": 3.0}},
               {"ref": {"a-fock": 1.5, "a-cm": 1.25, "b-fock": 4.0}},
               {"ref": {"a-fock": 1.0, "a-cm": 1.5, "b-fock": 3.5}}]
    assert runner.batch_times(batches) == {"batch_s": 6.25, "fock_batch_s": 5.0, "cm_batch_s": 1.25}
    nominal = run.NOMINAL_REF_S
    assert run.at_reference_speed(2.0, 0.5 * nominal, 1.5 * nominal) == pytest.approx(2.0)
    assert run.at_reference_speed(2.0, 2 * nominal, 2 * nominal) == pytest.approx(1.0)
