"""Coupling-parameter optimization for cooling and DSP objectives.

The decision variables are the coupling weights (lambda_j, mu_j), the bath
frequency, and the cycle time; objectives are the closed-form steady-state
relative energies (theta-specific or integrated over a phase), returned with
their exact gradients as a `ValueWithGrad`.  The search is a projected
quasi-Newton (L-BFGS-B) that takes value and gradient from one objective call
per step, with seeded multistarts; the largest coupling of the winner is
normalized to 1 with a compensating rescale of g, which leaves every
objective unchanged.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .analytic import NoiseSpec, chain_relative_energies_and_grad
from .errors import OptimizationFailed, UndefinedSteadyState
from .model import CouplingScheme, ModelParams, coupling_keys

__all__ = [
    "ParamVector",
    "OptResult",
    "ValueWithGrad",
    "objective_theta_specific",
    "objective_phase_averaged",
    "phase_grid",
    "optimize",
]

COUPLING_BOUNDS = (-1.0, 1.0)
DELTA_BOUNDS = (1e-3, 3.0)
TIME_BOUNDS = (1e-3, 50.0)
PHASE_INSET = math.pi / 80
PHASE_NODES = 21


@dataclass(frozen=True)
class ParamVector:
    """Decision variables of one protocol: couplings plus (delta, t)."""

    scheme: CouplingScheme
    delta: float
    t: float

    def __post_init__(self):
        if self.delta <= 0 or self.t <= 0:
            raise ValueError("delta and t must be positive")

    def normalized(self) -> "ParamVector":
        """Largest coupling rescaled to 1, with g compensated."""
        c = max(max(abs(v) for v in self.scheme.lam.values()),
                max(abs(v) for v in self.scheme.mu.values()))
        if c == 0 or abs(c - 1.0) < 1e-15:
            return self
        return ParamVector(self.scheme.rescaled(1.0 / c), self.delta, self.t)

    def to_array(self, vary_delta_t: bool = True) -> np.ndarray:
        keys = coupling_keys(self.scheme.nn)
        vals = [self.scheme.lam[j] for j in keys] + [self.scheme.mu[j] for j in keys]
        if vary_delta_t:
            vals += [self.delta, self.t]
        return np.array(vals, dtype=float)

    def with_array(self, x: np.ndarray, vary_delta_t: bool = True) -> "ParamVector":
        keys = coupling_keys(self.scheme.nn)
        n = len(keys)
        lam = {j: float(x[i]) for i, j in enumerate(keys)}
        mu = {j: float(x[n + i]) for i, j in enumerate(keys)}
        scheme = CouplingScheme(nn=self.scheme.nn, lam=lam, mu=mu, g=self.scheme.g)
        if vary_delta_t:
            return ParamVector(scheme, float(x[2 * n]), float(x[2 * n + 1]))
        return ParamVector(scheme, self.delta, self.t)


@dataclass
class OptResult:
    best: ParamVector
    objective: float
    evaluations: int
    restarts_used: int
    history: list[tuple[int, float]]


class ValueWithGrad(float):
    """An objective value carrying its gradient in `grad`.

    It compares and adds as the plain float it equals.  `grad` is the
    derivative with respect to `ParamVector.to_array()`: lambda_j and mu_j
    over `coupling_keys`, then delta and t.
    """

    __slots__ = ("grad",)

    def __new__(cls, value: float, grad: np.ndarray):
        self = super().__new__(cls, value)
        self.grad = grad
        return self


def objective_theta_specific(pv: ParamVector, params: ModelParams,
                             noise: NoiseSpec = NoiseSpec.none(), *,
                             dsp: bool = False) -> float:
    """Total closed-form steady-state relative energy at one theta, of
    cooling or, with `dsp`, of DSP.

    Returns a `ValueWithGrad`, or inf if the steady state is undefined.
    """
    try:
        vals, grad = chain_relative_energies_and_grad(params.N, (params.theta,), pv.scheme,
                                                      pv.delta, pv.t, noise, dsp=dsp)
    except UndefinedSteadyState:
        return math.inf
    return ValueWithGrad(vals[0], grad[0])


# the composite-trapezoid intervals np.diff(nodes) of every `phase_grid`,
# by (phase, number of nodes), filled by `phase_grid` (read-only)
_INTERVALS: dict[tuple[str, int], np.ndarray] = {}


@functools.lru_cache(maxsize=16)
def phase_grid(phase: str, n_nodes: int = PHASE_NODES) -> np.ndarray:
    """Theta nodes for one phase, inset from the critical point by pi/80
    (cached, read-only), cached with their intervals in `_INTERVALS`."""
    if phase == "low":
        nodes = np.linspace(0.0, math.pi / 4 - PHASE_INSET, n_nodes)
    elif phase == "high":
        nodes = np.linspace(math.pi / 4 + PHASE_INSET, math.pi / 2, n_nodes)
    else:
        raise ValueError(f"unknown phase {phase!r}; use 'low' or 'high'")
    intervals = np.diff(nodes)
    for arr in (nodes, intervals):
        arr.flags.writeable = False
    _INTERVALS[phase, n_nodes] = intervals
    return nodes


def objective_phase_averaged(pv: ParamVector, phase: str, n_sites: int,
                             noise: NoiseSpec = NoiseSpec.none(), *,
                             dsp: bool = False) -> float:
    """Integral over a phase of the theta-specific objective.

    The composite trapezoid over `phase_grid(phase)`, with every node
    evaluated in one closed-form pass.  The value and the gradient are
    np.trapezoid's sums, d_i (y_i + y_{i+1}) / 2 over the nodes' cached
    intervals d_i, without its per-call np.diff.  Returns a `ValueWithGrad`,
    or inf if any node has no steady state.
    """
    thetas = phase_grid(phase)
    d = _INTERVALS[phase, thetas.size]
    try:
        vals, grad = chain_relative_energies_and_grad(n_sites, thetas, pv.scheme, pv.delta,
                                                      pv.t, noise, dsp=dsp)
    except UndefinedSteadyState:
        return math.inf
    return ValueWithGrad((d * (vals[1:] + vals[:-1]) / 2.0).sum(),
                         (d[:, None] * (grad[1:] + grad[:-1]) / 2.0).sum(axis=0))


def optimize(objective, init: ParamVector, budget: int = 4000, restarts: int = 8,
             seed: int = 0, vary_delta_t: bool = True,
             extra_starts: list[ParamVector] | None = None) -> OptResult:
    """Projected quasi-Newton multistart minimization of objective(ParamVector).

    The objective returns a `ValueWithGrad`, whose gradient L-BFGS-B takes
    from the same call (only the coupling entries if not `vary_delta_t`), or
    a non-finite value, which the search sees as 1e30 with a zero gradient,
    so a non-finite start ends its restart after one call; a finite value
    without `grad` raises TypeError.
    Restart 0 begins at `init` (then any `extra_starts`); the rest perturb the
    couplings additively and (delta, t) log-normally, all from a seeded
    counter-based stream, so results are reproducible bit for bit.
    `evaluations` counts the value-and-gradient calls of the search.  A
    `budget` or a `restarts` below 1 raises ValueError.
    """
    from scipy.optimize import minimize  # imported here to keep SciPy off kelvin's import path

    if budget < 1:
        raise ValueError("budget must be >= 1")
    if restarts < 1:
        raise ValueError("restarts must be >= 1")
    keys = coupling_keys(init.scheme.nn)
    n_c = 2 * len(keys)
    bounds = [COUPLING_BOUNDS] * n_c
    if vary_delta_t:
        bounds += [DELTA_BOUNDS, TIME_BOUNDS]

    rng = np.random.Generator(np.random.Philox(key=seed))
    starts = [init.to_array(vary_delta_t)]
    for pv in extra_starts or []:
        starts.append(pv.to_array(vary_delta_t))
    while len(starts) < restarts:
        x = init.to_array(vary_delta_t).copy()
        x[:n_c] = np.clip(x[:n_c] + rng.uniform(-0.6, 0.6, n_c), *COUPLING_BOUNDS)
        if vary_delta_t:
            x[n_c] = float(np.clip(x[n_c] * math.exp(rng.uniform(-0.7, 0.7)), *DELTA_BOUNDS))
            x[n_c + 1] = float(np.clip(x[n_c + 1] * math.exp(rng.uniform(-0.7, 0.7)), *TIME_BOUNDS))
        starts.append(x)

    n_eval = 0
    history: list[tuple[int, float]] = []
    best_val = math.inf
    best_x: np.ndarray | None = None

    def fun(x: np.ndarray) -> tuple[float, np.ndarray]:
        nonlocal n_eval, best_val, best_x
        n_eval += 1
        val = objective(init.with_array(x, vary_delta_t))
        finite = math.isfinite(val)
        if finite and not hasattr(val, "grad"):
            raise TypeError("objective must return a ValueWithGrad (a float carrying "
                            f".grad) or a non-finite value, got {type(val).__name__}")
        if finite and val < best_val:
            best_val, best_x = float(val), x.copy()
        history.append((n_eval, best_val))
        if not finite:
            return 1e30, np.zeros_like(x)
        return float(val), np.asarray(val.grad[:len(x)], dtype=float)

    # the budget is the currency of the iteration cap: an iteration is priced
    # at 2*dim + 2 objective calls, and maxfun caps the calls themselves
    per_restart = max(budget // max(len(starts), 1), 25)
    dim = len(bounds)
    max_iter = max(per_restart // (2 * dim + 2), 4)
    for x0 in starts:
        minimize(fun, x0, jac=True, method="L-BFGS-B", bounds=bounds,
                 options={"maxfun": per_restart, "maxiter": max_iter,
                          "ftol": 1e-14, "gtol": 1e-10})
    if best_x is None:
        raise OptimizationFailed("objective non-finite at every start")

    best = init.with_array(best_x, vary_delta_t).normalized()
    return OptResult(best=best, objective=float(objective(best)), evaluations=n_eval,
                     restarts_used=len(starts), history=history)
