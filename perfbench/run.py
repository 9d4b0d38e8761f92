"""kelvin's benchmark: seeded workloads of CLI jobs, timed end to end or traced.

    python3 perfbench/run.py --workload steady|trajectory|optimize --seed N \
        --seconds S --trace 0|1 [--record results.jsonl]
    python3 perfbench/run.py --compare A.jsonl B.jsonl

Run it from the root of a kelvin checkout: it imports kelvin from `src/` and
writes only under `.perfbench_out/`.  Each workload runs in this one process
with BLAS pinned to one thread.  A batch of jobs is repeated: a warm-up runs
one job per engine, then batches run while the next one is expected to end
within `--seconds` (at least MIN_BATCHES of them).  Every
job's output is checked; a job that raises, exits non-zero or fails its
check counts as failed.

Timings are reported at a reference speed.  On a shared host the same job's
wall time moves by 30 % and more from one second to the next and from one
minute to the next (see README.md).  So a fixed NumPy/Python kernel
(`reference_s`) is timed after every job and every set-up, and each job's
wall time is taken to the reference speed by multiplying it with
NOMINAL_REF_S / (mean of the kernel times just before and just after it).  A
batch timing is each job's median over the measured batches of that time,
summed over the batch's jobs; set-up time is the median of several set-ups,
taken the same way.  The kernel is benchmark code, so a change to kelvin
cannot move it.  Raw times are printed and recorded beside them.

The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics with `--trace 0`,
the per-layer metrics (see `spans.py`) with `--trace 1`.  The lines before it
give the same numbers by name, the output gaps and the host.  `--record`
appends the full result to a JSON-lines file that `--compare` reads.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")

# Set before numpy is imported, in this process and in the import probes.
THREAD_PINS = {var: "1" for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                    "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
                                    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}
SETUP_REPEATS = 3
MIN_BATCHES = 2
# A typical time of reference_s() on a 2-vCPU Xeon host at 2.1 GHz with one
# BLAS thread, NumPy 2.4.6 and Python 3.11.7.  Only its constancy matters: it
# fixes the speed that every reported time is taken to.
NOMINAL_REF_S = 0.06
END_TO_END_UNITS = {"setup_s": "s", "batch_s": "s", "fock_batch_s": "s",
                    "cm_batch_s": "s", "peak_rss_mb": "MB"}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", help="append the full result to this JSON-lines file")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"),
                        help="compare two --record files and exit")
    args = parser.parse_args(argv)
    if args.compare is None and None in (args.workload, args.seed, args.seconds):
        parser.error("--workload, --seed and --seconds are required")
    return args


def pin_threads():
    os.environ.update(THREAD_PINS)
    os.environ.pop("KELVIN_THREADS", None)
    os.environ["PYTHONPATH"] = SRC


def reference_s() -> float:
    """Wall time of a fixed kernel in kelvin's mix: 4x4 matrix products
    dominated by interpreter overhead, einsum and kron, and a plain loop."""
    import numpy as np
    rng = np.random.default_rng(0)
    small = rng.standard_normal((4, 4)) / 4
    mid = rng.standard_normal((48, 48)) / 48
    eye4, eye48 = np.eye(4), np.eye(48)
    t0 = time.perf_counter()
    x = eye4
    for _ in range(10000):
        x = small @ x + eye4
    y = eye48
    for _ in range(500):
        y = np.einsum("ij,jk->ik", mid, y) + np.kron(small, small)[0, 0]
    total = 0.0
    for i in range(100000):
        total += (i % 7) * 0.5
    return time.perf_counter() - t0


def blas_threads() -> dict[str, int]:
    """Threads each loaded OpenBLAS will use, asked of the library itself."""
    import ctypes
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.split()[-1].lower()}
    found = {}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.argtypes = []
                getter.restype = ctypes.c_int
                found[os.path.basename(path)] = getter()
                break
    return found


def host_metadata(loadavg: str) -> dict:
    import numpy as np
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_threads": blas_threads(),
        "thread_env": {var: os.environ.get(var) for var in (*THREAD_PINS, "KELVIN_THREADS")},
        "loadavg_at_start": loadavg,
    }


def at_reference_speed(wall: float, kernel_before: float, kernel_after: float) -> float:
    """`wall` taken to the reference speed, judged by the kernel times around it."""
    return wall * NOMINAL_REF_S * 2 / (kernel_before + kernel_after)


def set_up(name: str, seed: int, work_dir: str):
    """Set the workload up SETUP_REPEATS times: each time a fresh interpreter
    imports kelvin, then configs and references are made.  Returns the last
    workload and the set-up times, raw and at the reference speed."""
    raw, at_ref = [], []
    kernel = reference_s()
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(work_dir, ignore_errors=True)
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import kelvin.cli, kelvin.repro"],
                       check=True, timeout=120, cwd=ROOT)
        workload = workloads.WORKLOADS[name](seed, work_dir)
        raw.append(time.perf_counter() - t0)
        after = reference_s()
        at_ref.append(at_reference_speed(raw[-1], kernel, after))
        kernel = after
    return workload, raw, at_ref


class Runner:
    """Runs batches of one workload and keeps what they measured."""

    def __init__(self, cli, workload):
        self.cli = cli
        self.workload = workload
        self.attempted = 0
        self.failures: list[str] = []
        self.gaps: dict[str, float] = {}
        self.engine: dict[str, str] = {}
        self.kernel_times: list[float] = []
        self.index = 0

    def warm_up(self):
        """Run the first job of each engine once, unmeasured and unchecked, so
        lazy set-up is done before the first measured batch."""
        first = {}
        for job in self.workload.batch(0):
            first.setdefault(job.engine, job)
        for job in first.values():
            try:
                self.cli.main(job.argv())
            except (Exception, SystemExit):
                pass  # the measured batches run and report the same job
        self.kernel_times.append(reference_s())

    def batch(self, tracer=None) -> dict[str, dict[str, float]]:
        """Run the next batch; return each job's time by job id, raw ("wall")
        and at the reference speed ("ref")."""
        jobs = self.workload.batch(self.index)
        wall, ref = {}, {}
        failed: dict[str, str] = {}
        for job in jobs:
            self.engine[job.job_id] = job.engine
            if tracer is not None:
                tracer.set_job(f"{self.index}:{job.job_id}")
            t0 = time.perf_counter()
            try:
                code = self.cli.main(job.argv())
            except (Exception, SystemExit):
                failed[job.job_id] = "raised:\n" + traceback.format_exc()
            else:
                if code != 0:
                    failed[job.job_id] = f"exit code {code}"
            wall[job.job_id] = time.perf_counter() - t0
            self.kernel_times.append(reference_s())
            ref[job.job_id] = at_reference_speed(wall[job.job_id], *self.kernel_times[-2:])
        bad, gaps = self.workload.check(jobs, set(failed))
        failed.update(bad)
        for key, value in gaps.items():
            self.gaps[key] = workloads.worst([self.gaps.get(key, value), value])
        for job_id, reason in failed.items():
            self.failures.append(f"batch {self.index} job {job_id}: {reason}")
        self.attempted += len(jobs)
        self.index += 1
        return {"wall": wall, "ref": ref}

    def batch_times(self, batches: list[dict], key: str = "ref") -> dict[str, float]:
        """batch_s and its per-engine parts: each job's median time over
        `batches`, summed over the jobs."""
        typical = {job: statistics.median(b[key][job] for b in batches) for job in batches[0][key]}
        out = {"batch_s": sum(typical.values())}
        for engine in workloads.ENGINES:
            out[f"{engine}_batch_s"] = sum(t for job, t in typical.items()
                                           if self.engine[job] == engine)
        return out


def run(args) -> int:
    if not os.path.isfile(os.path.join(SRC, "kelvin", "cli.py")):
        print(f"no kelvin sources at {SRC}; run from the root of a kelvin checkout",
              file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    with open("/proc/loadavg", encoding="utf-8") as fh:
        loadavg = fh.read().strip()
    pin_threads()
    sys.path.insert(0, SRC)
    import kelvin.cli as cli
    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        print(f"kelvin imported from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import spans  # imports numpy, so only once the threads are pinned

    work_dir = os.path.join(OUT, f"work-{os.getpid()}")
    try:
        workload, setup_raw, setup_at_ref = set_up(args.workload, args.seed, work_dir)
        runner = Runner(cli, workload)
        runner.warm_up()
        untraced, traced, layer_rows = [], [], []
        tracer = spans.Tracer() if args.trace else None
        t_start = time.perf_counter()
        while True:
            t_step = time.perf_counter()
            if tracer is None:
                untraced.append(runner.batch())
            else:
                # alternate which goes first, so drift does not bias the overhead
                for traced_now in ((False, True) if len(traced) % 2 == 0 else (True, False)):
                    if not traced_now:
                        untraced.append(runner.batch())
                        continue
                    tracer.reset()
                    with tracer.installed():
                        row = runner.batch(tracer)
                    traced.append(row)
                    wall = sum(row["wall"].values())
                    layer_rows.append(tracer.batch_metrics(wall, sum(row["ref"].values()) / wall))
            now = time.perf_counter()
            if len(untraced) >= MIN_BATCHES and now - t_start + (now - t_step) > args.seconds:
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    host = host_metadata(loadavg)
    problems = []
    if tracer is None:
        values = {"setup_s": statistics.median(setup_at_ref), **runner.batch_times(untraced),
                  "peak_rss_mb": peak_rss_mb}
        units = END_TO_END_UNITS
    else:
        units = spans.metric_units()
        values = {name: statistics.median(row[name] for row in layer_rows) for name in units
                  if name != "trace.overhead_frac"}
        values["trace.overhead_frac"] = (runner.batch_times(traced)["batch_s"]
                                         / runner.batch_times(untraced)["batch_s"] - 1.0)
        os.makedirs(OUT, exist_ok=True)
        spans_path = os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.npz")
        tracer.write(spans_path)
        print(f"spans: {spans_path} ({len(tracer.start)} spans, {len(traced)} traced batches)")
        print("note: private helpers are not wrapped; CM stepping (_run_mode_cm) and the CM "
              "steady solve (_steady_mode_cm, _averaged_noisy_cm_kron) count as protocol self time")
        # the wrapped layers must account for the traced batch time
        bound = benchmark_bounds()["batch_s"]
        worst = max(abs(row["trace.unattributed_frac"]) for row in layer_rows)
        if worst > bound:
            problems.append(f"layer self times miss {worst:.1%} of the traced batch "
                            f"time (bound {bound:.0%})")

    failed = len(runner.failures)
    correct = failed == 0 and not problems
    for reason in runner.failures + problems:
        print(f"FAILED {reason}", file=sys.stderr)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(untraced)} measured batches, {len(traced)} traced, "
          f"{SETUP_REPEATS} set-ups; times at the reference speed")
    for name, value in values.items():
        print(f"  {name:44s} {value:.6g} {units[name]}")
    print(f"  {'failed_frac':44s} {failed / runner.attempted:.6g} ratio "
          f"({failed} of {runner.attempted} jobs)")
    print(f"  raw: set-up {statistics.median(setup_raw):.4g} s, batch "
          f"{runner.batch_times(untraced, 'wall')['batch_s']:.4g} s, kernel "
          f"{statistics.median(runner.kernel_times):.4g} s (reference {NOMINAL_REF_S:g} s)")
    for name, value in sorted(runner.gaps.items()):
        print(f"  gap {name:40s} {value:.3g}")
    print("host " + json.dumps(host, sort_keys=True))
    result = {"correct": correct, "attempted": runner.attempted, "failed": failed,
              "metrics": {name: {"value": value, "unit": units[name]}
                          for name, value in values.items()}}
    if args.record:
        with open(args.record, "a", encoding="utf-8") as fh:
            fh.write(json.dumps({"workload": args.workload, "seed": args.seed,
                                 "trace": args.trace, "seconds": args.seconds,
                                 "setup_raw": setup_raw, "setup_at_ref": setup_at_ref,
                                 "kernel_times": runner.kernel_times,
                                 "batches": untraced, "traced_batches": traced,
                                 "result": result, "gaps": runner.gaps, "host": host,
                                 "failures": runner.failures + problems}) + "\n")
    print(json.dumps(result))
    return 0


def benchmark_bounds() -> dict[str, float]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m["bound"] for m in json.load(fh)["end_to_end"]}


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.compare:
        import compare
        return compare.main(*args.compare)
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
