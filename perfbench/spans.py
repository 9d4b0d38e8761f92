"""In-memory span recorder around kelvin's public functions, for the traced run.

`Tracer.installed()` replaces every binding of each function in `WRAPPED`, in
every loaded `kelvin.*` module (several modules import functions by name), with
a wrapper that records one span: name, start, end, parent span and job id.
Self time is a span's duration minus the durations of its child spans; every
call is nested in the job's `cli.main` span, so the layers' self times add up
to the time spent in jobs.

Private helpers are not wrapped, so their time lands in the caller's self time:
CM trajectory stepping (`protocol._run_mode_cm`) and the CM steady solve
(`protocol._steady_mode_cm`, `protocol._averaged_noisy_cm_kron`) show up as
`protocol` self time.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import sys
import time
from array import array

import numpy as np

WRAPPED = {
    "cli": ("main",),
    "protocol": ("steady_report", "run_trajectory", "global_metrics", "make_schedule"),
    "model": ("block_hamiltonian", "dispersion"),
    "fock": ("second_quantize", "FockBlock.propagators", "averaged_cycle_map",
             "exact_cycle_map", "steady_state", "block_energy"),
    "cm": ("averaged_evolution_kron", "cm_energy", "cm_fidelity"),
    "analytic": ("mode_grid", "coupling_arrays", "chain_relative_energy",
                 "closed_form_relative_energies"),
    "optimize": ("optimize", "objective_phase_averaged", "objective_theta_specific"),
    "svgplot": ("line_plot",),
}
LAYERS = tuple(WRAPPED)
FUNCTIONS = tuple(f"{layer}.{fn}" for layer, fns in WRAPPED.items() for fn in fns)


def metric_units() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    units = {}
    for fn in FUNCTIONS:
        units[f"{fn}.calls"] = "count"
        units[f"{fn}.self_s"] = "s"
    for layer in LAYERS:
        units[f"{layer}.self_s"] = "s"
        units[f"{layer}.share"] = "ratio"
        units[f"{layer}.errors"] = "count"
    units["optimize.evals_per_budget"] = "ratio"
    units["optimize.improving_eval_frac"] = "ratio"
    units["trace.overhead_frac"] = "ratio"
    units["trace.unattributed_frac"] = "ratio"
    return units


class Tracer:
    """Records spans while installed; `batch_metrics` summarises one batch."""

    def __init__(self):
        self._layer = [fn.split(".", 1)[0] for fn in FUNCTIONS]
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.job = array("i")
        self.jobs: list[str] = []
        self._job = -1
        self._stack: list[int] = []
        self._child: list[float] = []
        self.reset()

    def reset(self):
        """Zero the per-batch counters (recorded spans are kept)."""
        self.calls = [0] * len(FUNCTIONS)
        self.self_s = [0.0] * len(FUNCTIONS)
        self.errors = dict.fromkeys(LAYERS, 0)
        self.evaluations = 0
        self.budget = 0
        self.improving = 0

    def set_job(self, job_id: str):
        self.jobs.append(job_id)
        self._job = len(self.jobs) - 1

    def _wrap(self, idx: int, fn):
        layer = self._layer[idx]
        signature = inspect.signature(fn) if FUNCTIONS[idx] == "optimize.optimize" else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(self.start)
            parent = self._stack[-1] if self._stack else -1
            self.name.append(idx)
            self.parent.append(parent)
            self.job.append(self._job)
            self.end.append(0.0)
            self._stack.append(sid)
            self._child.append(0.0)
            t0 = time.perf_counter()
            self.start.append(t0)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                # count an exception once per layer it leaves
                if parent < 0 or self._layer[self.name[parent]] != layer:
                    self.errors[layer] += 1
                raise
            finally:
                t1 = time.perf_counter()
                self._stack.pop()
                duration = t1 - t0
                self.end[sid] = t1
                self.calls[idx] += 1
                self.self_s[idx] += duration - self._child.pop()
                if self._child:
                    self._child[-1] += duration
            if signature is not None:
                self._count_evaluations(signature, args, kwargs, result)
            return result

        return wrapper

    def _count_evaluations(self, signature, args, kwargs, result):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        self.budget += bound.arguments["budget"]
        self.evaluations += result.evaluations
        best = float("inf")
        for _, value in result.history:
            if value < best:
                self.improving += 1
                best = value

    @contextlib.contextmanager
    def installed(self):
        """Wrap every binding of the functions in WRAPPED; restore them on exit."""
        modules = [m for name, m in list(sys.modules.items())
                   if name == "kelvin" or name.startswith("kelvin.")]
        patches = []
        try:
            for idx, full in enumerate(FUNCTIONS):
                layer, qualname = full.split(".", 1)
                home = sys.modules[f"kelvin.{layer}"]
                if "." in qualname:
                    cls_name, attr = qualname.split(".")
                    cls = getattr(home, cls_name)
                    original = cls.__dict__[attr]
                    patches.append((cls, attr, original))
                    setattr(cls, attr, self._wrap(idx, original))
                    continue
                original = getattr(home, qualname)
                wrapper = self._wrap(idx, original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            patches.append((module, attr, original))
                            setattr(module, attr, wrapper)
            yield self
        finally:
            for obj, attr, original in reversed(patches):
                setattr(obj, attr, original)

    def batch_metrics(self, batch_s: float, scale: float = 1.0) -> dict[str, float]:
        """Per-layer metrics of the batch recorded since the last `reset`.

        `batch_s` is the batch's wall time; self times are reported multiplied
        by `scale`, which takes them to the reference speed (see run.py).
        """
        out = {}
        layer_self = dict.fromkeys(LAYERS, 0.0)
        for idx, fn in enumerate(FUNCTIONS):
            out[f"{fn}.calls"] = self.calls[idx]
            out[f"{fn}.self_s"] = self.self_s[idx] * scale
            layer_self[self._layer[idx]] += self.self_s[idx]
        for layer in LAYERS:
            out[f"{layer}.self_s"] = layer_self[layer] * scale
            out[f"{layer}.share"] = layer_self[layer] / batch_s
            out[f"{layer}.errors"] = self.errors[layer]
        out["optimize.evals_per_budget"] = self.evaluations / self.budget if self.budget else 0.0
        out["optimize.improving_eval_frac"] = (self.improving / self.evaluations
                                               if self.evaluations else 0.0)
        out["trace.unattributed_frac"] = 1.0 - sum(layer_self.values()) / batch_s
        return out

    def write(self, path: str):
        """Write all recorded spans: names and jobs are indexed by `name` and `job`."""
        np.savez_compressed(
            path, names=np.array(FUNCTIONS), jobs=np.array(self.jobs, dtype=str),
            name=np.asarray(self.name), start=np.asarray(self.start),
            end=np.asarray(self.end), parent=np.asarray(self.parent),
            job=np.asarray(self.job))
