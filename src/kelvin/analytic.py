"""Closed-form weak-coupling predictions.

Everything here is second order in the coupling: overlap coefficients from
the time integrals, jump operators of the per-cycle Lindbladian, cooling and
heating rates (exact time averages),
the per-pair steady energy (one routine, `steady_energy`, on the bath's
cooling and heating weights at a fixed time or averaged over random times
and frequencies, covers the noiseless, depolarizing-noisy, DSP and
finite-environment cases), and the cycle-count and ground-state-cooling
scaling estimates.

Every closed-form energy, of a chain or per mode, at a fixed time or over
random times, goes through one pass over a mode row or a (theta x k) grid,
`_chain_pass`: one evaluation of the bath weights |x|^2 and |y|^2 (and the
environment's) gives `steady_energy` its values, and their fixed-time
derivatives, formed only for `chain_relative_energies_and_grad`, the gradient.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateBand,
    NoConvergenceRate,
    ResonantDenominator,
    UndefinedSteadyState,
)
from .model import (CouplingScheme, ModelParams, _coupling_sum, _mode_row, _phases,
                    _theta_grid, band_edges)
from .model import NoiseSpec  # re-exported
from .model import coupling_arrays, mode_grid  # re-exported; perfbench traces these names here

__all__ = [
    "NoiseSpec",
    "RateTable",
    "JumpOperators",
    "overlap_coeffs",
    "single_cycle_jump_ops",
    "multifreq_rates",
    "continuum_rates",
    "steady_energy",
    "cycle_estimates",
    "gs_cooling_plan",
    "CoolingPlan",
    "cross_term_weight",
    "mode_grid",
    "coupling_arrays",
    "chain_relative_energy",
    "chain_relative_energies",
    "chain_relative_energies_and_grad",
    "rate_table",
]


# ---------------------------------------------------------------------------
# overlap coefficients and jump operators
# ---------------------------------------------------------------------------

def _phase_integral(a, t: float, g: float):
    """g * integral_0^t e^{i a tau} d tau = g t e^{iv/2} sinc(v/2), v = a t.

    The sinc form has no branch and no e^{iv} - 1 cancellation, so both parts
    keep their relative precision at every v.  Accepts scalars or arrays of
    a.  Only the complex overlaps of `overlap_coeffs` take this form; every
    closed-form weight |phi|^2 comes from `_phase_weight_and_grad`.
    """
    v = np.asarray(a, dtype=float) * t
    out = g * t * np.exp(0.5j * v) * np.sinc(v / (2.0 * math.pi))
    return complex(out[()]) if out.ndim == 0 else out


def _phase_weight_and_grad(a, t: float, g: float):
    """The bath weight |phi|^2 = |g integral_0^t e^{i a tau} d tau|^2 on arrays
    of a, and a function that gives its a- and t-derivatives.

    With v = a t: |phi|^2 = (2 g t sin(v/2) / v)^2, d/dt |phi|^2 =
    2 g^2 t sin(v) / v and d/da |phi|^2 = 2 g^2 t^3 (v sin v - 4 sin^2(v/2)) / v^3.
    The last numerator cancels to -v^4/6 from terms of size v^2, so below
    |v| = 1e-2 all three take their Taylor series (truncation < 1e-19 of
    their scale).  The sine form keeps the relative precision of |phi|^2 at
    every v (no e^{iv} - 1 cancellation); the derivatives are formed on demand.
    """
    v = a * t
    small = np.abs(v) < 1e-2
    vs = np.where(small, 1.0, v)
    inv = 1.0 / vs
    v2 = v * v
    sin_h = np.sin(0.5 * vs)
    g2 = g * g
    weight = np.where(small, (g2 * t * t) * (1.0 - v2 * (1.0 / 12.0 - v2 / 360.0)),
                      (2.0 * g * t * sin_h * inv) ** 2)

    def grad():
        sin_f = np.sin(vs)
        d_a = np.where(small, (g2 * t**3) * v * (-1.0 / 6.0 + v2 * (1.0 / 90.0 - v2 / 3360.0)),
                       (2.0 * g2 * t**3) * (vs * sin_f - 4.0 * sin_h * sin_h) * (inv * inv * inv))
        d_t = np.where(small, (2.0 * g2 * t) * (1.0 - v2 * (1.0 / 6.0 - v2 / 120.0)),
                       (2.0 * g2 * t) * sin_f * inv)
        return d_a, d_t

    return weight, grad


def overlap_coeffs(epsilon: float, delta: float, t: float, g: float) -> tuple[complex, complex]:
    """Resonance overlaps (x, y) of one cycle.

    x integrates the co-rotating phase e^{i(eps-delta)tau}, y the
    counter-rotating one; |x| = g t at resonance, and x vanishes at the
    accidental resonances (delta - eps) t = 2 pi r.
    """
    if t < 0:
        raise ValueError(f"t must be >= 0, got {t}")
    x = _phase_integral(epsilon - delta, t, g)
    y = -_phase_integral(epsilon + delta, t, g)
    return x, y


@dataclass(frozen=True)
class JumpOperators:
    """Coefficient records of the two per-cycle jump operators.

    l1 = c1_a * a_k + c1_adag * a_-k^dag and
    l2 = c2_a * a_-k + c2_adag * a_k^dag.
    """

    c1_a: complex
    c1_adag: complex
    c2_a: complex
    c2_adag: complex


def single_cycle_jump_ops(a_k: complex, b_k: complex, x: complex, y: complex) -> JumpOperators:
    return JumpOperators(
        c1_a=np.conj(a_k) * x,
        c1_adag=np.conj(b_k) * y,
        c2_a=a_k * x,
        c2_adag=-b_k * y,
    )


# ---------------------------------------------------------------------------
# rates
# ---------------------------------------------------------------------------

GAMMA0_SQ_FACTOR = 1.5  # gamma_0^2 = 3 / (2 t^2)


# Taylor coefficients of (x - sin x) / x^3 in x^2, (-1)^n / (2n + 3)!, highest
# power first for np.polyval (numpy.polynomial would add 0.9 MB to an import)
_X_MINUS_SIN_SERIES = np.array([(-1) ** n / math.factorial(2 * n + 3) for n in range(8, -1, -1)])


def _avg_abs2_integral(a, t):
    """Time average over [0, 2t] of |int_0^{t'} e^{i a tau} d tau|^2.

    Equals 2/a^2 - sin(2 a t)/(a^3 t) = 8 t^2 (x - sin x) / x^3 with x =
    2 a t, and (4/3) t^2 at a = 0.  Below |x| = 1, where x - sin x cancels,
    the ratio takes its Taylor series, nine terms (truncation below 1e-19 of
    its value).
    """
    t = float(t)
    x = 2.0 * t * np.asarray(a, dtype=float)
    small = np.abs(x) < 1.0
    xs = np.where(small, 1.0, x)
    series = np.polyval(_X_MINUS_SIN_SERIES, x * x)
    return 8.0 * t * t * np.where(small, series, (xs - np.sin(xs)) / xs**3)


def multifreq_rates(epsilon, deltas, t: float, g: float, a2, b2):
    """Randomized-time cooling and heating rates per elementary cycle: the exact
    uniform time averages of g^2 |A|^2 |x|^2 and g^2 |B|^2 |y|^2, with
    a2, b2 = |A_k|^2 and |B_k|^2, averaged over the bath frequencies `deltas`.
    """
    deltas = list(deltas)
    if not deltas:
        raise ValueError("frequency list must be nonempty")
    if t <= 0:
        raise ValueError(f"t must be > 0, got {t}")
    epsilon = np.asarray(epsilon, dtype=float)
    a2 = np.asarray(a2, dtype=float)
    b2 = np.asarray(b2, dtype=float)
    gc_tot, gh_tot = 0.0, 0.0
    for d in deltas:
        gc_tot = gc_tot + g * g * a2 * _avg_abs2_integral(epsilon - d, t)
        gh_tot = gh_tot + g * g * b2 * _avg_abs2_integral(epsilon + d, t)
    r = len(deltas)
    return gc_tot / r, gh_tot / r


def continuum_rates(epsilon, theta: float, t: float, g: float):
    """Dense-frequency (R -> infinity) rates for the local coupling.

    gamma_h = 2 g^2 / ((eps_M + eps)(eps_m + eps)),
    gamma_c = 2 g^2 t beta / (eps_M - eps_m) with
    beta = sqrt(2/3) [atan(z_M) - atan(z_m)], z_x = (eps_x - eps) t sqrt(2/3).
    """
    eps_m, eps_max = band_edges(theta)
    if eps_max - eps_m < 1e-12:
        raise DegenerateBand(f"band degenerate at theta={theta}")
    epsilon = np.asarray(epsilon, dtype=float)
    s23 = math.sqrt(2.0 / 3.0)
    z_m = (eps_m - epsilon) * t * s23
    z_max = (eps_max - epsilon) * t * s23
    beta = s23 * (np.arctan(z_max) - np.arctan(z_m))
    gh = 2.0 * g * g / ((eps_max + epsilon) * (eps_m + epsilon))
    gc = 2.0 * g * g * t * beta / (eps_max - eps_m)
    return gc, gh, beta


@dataclass(frozen=True)
class RateTable:
    """Per-mode rates for one protocol (arrays indexed by k = 0..N/2)."""

    ks: np.ndarray
    gamma_c: np.ndarray
    gamma_h: np.ndarray
    gamma0: float

    def __post_init__(self):
        if np.any(self.gamma_c < 0) or np.any(self.gamma_h < 0):
            raise ValueError("rates must be nonnegative")

    @property
    def alpha(self) -> np.ndarray:
        return self.gamma_c + self.gamma_h


def rate_table(params: ModelParams, scheme: CouplingScheme, deltas, t: float) -> RateTable:
    """Time-averaged rates of every mode under `scheme` (g, |A_k|^2 and |B_k|^2
    from `coupling_arrays`), for bath frequencies `deltas` and mean time t."""
    ks, eps, _, _ = mode_grid(params)
    a, b = coupling_arrays(scheme, params)
    gc, gh = multifreq_rates(eps, deltas, t, scheme.g, np.abs(a) ** 2, np.abs(b) ** 2)
    return RateTable(ks=ks, gamma_c=gc, gamma_h=gh,
                     gamma0=math.sqrt(GAMMA0_SQ_FACTOR) / t)


# ---------------------------------------------------------------------------
# steady states
# ---------------------------------------------------------------------------

def steady_energy(epsilon, p, q, pad: float = 0.0, env=None):
    """Per-pair steady energy eps (Q - P + n_env) / (P + Q + P_e + Q_e + pad).

    P and Q are the bath's cooling and heating weights: |A x|^2 and |B y|^2
    of one fixed-time cycle, or the rates `multifreq_rates` averages over
    random times and bath frequencies (`_chain_pass` forms either).
    Depolarizing noise of rate kappa pads the denominator by pad = 2 kappa t.
    A finite environment env = (P_e, Q_e, p_e) adds its weights and
    n_env = p_e (Q_e - P_e): the bath carries polarization 1, the
    environment p_e.  Raises UndefinedSteadyState where the denominator is
    not positive.
    """
    num, denom = q - p, p + q
    if env is not None:
        p_env, q_env, p_e = env
        num = num + p_e * (q_env - p_env)
        denom = denom + p_env + q_env
    denom = denom + pad
    if np.any(denom <= 0):
        raise UndefinedSteadyState("total overlap weight vanishes")
    return np.asarray(epsilon, dtype=float) * num / denom


def cross_term_weight(a_k: complex, b_k: complex, epsilon: float, delta: float) -> complex:
    """Residual off-diagonal Lindblad weight A B* / (eps^2 - delta^2)."""
    denom = epsilon**2 - delta**2
    if abs(denom) < 1e-9:
        raise ResonantDenominator(f"eps^2 - delta^2 = {denom:.2e}")
    return a_k * np.conj(b_k) / denom


# ---------------------------------------------------------------------------
# cycle counts and ground-state cooling plan
# ---------------------------------------------------------------------------

def cycle_estimates(alpha: float, n_sites: int, target_eps: float) -> tuple[float, float]:
    """(cycles to eps-close state, cycles to eps-close energy density)."""
    if alpha <= 0:
        raise NoConvergenceRate(f"alpha = {alpha} <= 0")
    return math.log(n_sites / target_eps) / alpha, math.log(1.0 / target_eps) / alpha


@dataclass(frozen=True)
class CoolingPlan:
    """Multi-frequency schedule scaling that cools to the ground state."""

    R: int
    t: float
    g: float
    n_cycles: float
    total_time: float


# Plan constants: R = N/5 frequencies, (eps_M - eps_m) t = N/10, g R t = 0.1.
PLAN_R_FRACTION = 0.2
PLAN_BANDWIDTH_TIME = 0.1
PLAN_GRT = 0.1


def gs_cooling_plan(n_sites: int, theta: float) -> CoolingPlan:
    """Parameter scalings reaching O(1) ground-state fidelity in O(N^4) time."""
    if n_sites % 2 != 0:
        raise ValueError("N must be even")
    eps_m, eps_max = band_edges(theta)
    r = max(int(round(PLAN_R_FRACTION * n_sites)), 1)
    t = PLAN_BANDWIDTH_TIME * n_sites / max(eps_max - eps_m, 1e-12)
    g = PLAN_GRT / (r * t)
    n_c = eps_max * t / (g * t) ** 2
    return CoolingPlan(R=r, t=t, g=g, n_cycles=n_c, total_time=n_c * t)


# ---------------------------------------------------------------------------
# per-chain aggregation (vectorized over modes and theta)
# ---------------------------------------------------------------------------

def _chain_pass(grid, ab, scheme: CouplingScheme, deltas, t: float, noise: NoiseSpec, *,
                random_times: bool = False, dsp: bool = False):
    """The one closed-form pass over a mode grid, one `_mode_row` or
    `_theta_grid`'s (theta x k) stack, with (A, B) stacked on it in `ab`.

    The bath weights |x|^2, |y|^2 on the phase rates (delta -+ eps_evo),
    eps_evo = 0 under DSP, and the environment's on (delta_e -+ eps_evo) are
    one `_phase_weight_and_grad` call each at the fixed time t and
    delta = deltas[0], or with `random_times` the exact time averages of
    `multifreq_rates` (over `deltas` for the bath).  P = |A|^2 |x|^2,
    Q = |B|^2 |y|^2, P_e = cos^2 phi |x_e|^2, Q_e = sin^2 phi |y_e|^2 and the
    pad 2 kappa t feed `steady_energy`.  Returns those weights ((P, Q), pad,
    env), the relative energies and, at a fixed time, a function that forms
    their gradient from the same arrays; only it evaluates the derivatives.
    """
    eps, cos_phi, sin_phi = grid.eps, grid.cos_phi, grid.sin_phi
    eps_evo = np.zeros_like(eps) if dsp else eps
    if random_times:
        pq = multifreq_rates(eps_evo, deltas, t, scheme.g, *(np.abs(ab) ** 2))
    else:
        # |x|^2 is even in its phase rate eps - delta, so taking it at delta - eps
        # makes d/d delta of both |x|^2 and |y|^2 the rate derivative
        w2, w2_grad = _phase_weight_and_grad(
            np.stack([deltas[0] - eps_evo, deltas[0] + eps_evo]), t, scheme.g)
        ab2 = ab.real ** 2 + ab.imag ** 2
        pq = ab2 * w2
    pad, env = 2.0 * noise.kappa * t, None
    if noise.env is not None:
        c2, s2 = cos_phi ** 2, sin_phi ** 2
        if random_times:
            pq_env = multifreq_rates(eps_evo, [noise.delta_e], t, noise.kappa_prime, c2, s2)
        else:
            (xe2, ye2), env_grad = _phase_weight_and_grad(
                np.stack([noise.delta_e - eps_evo, noise.delta_e + eps_evo]), t,
                noise.kappa_prime)
            pq_env = c2 * xe2, s2 * ye2
        env = (*pq_env, noise.p_e)
    e = steady_energy(eps, pq[0], pq[1], pad, env)
    rel = np.abs((np.sum(grid.weights * e, axis=-1) - grid.e_gs) / grid.e_gs)

    def grad():
        """Gradient of rel per theta row, shape (thetas, 2 J + 2).

        Every noise kind has e = eps (Q - P + n_env) / D with D = P + Q + pad
        and pad = 2 kappa t + P_e + Q_e, so
        de = ((eps - e) dQ - (eps + e) dP + eps dn_env - e dpad) / D.  A and
        B are linear in the couplings (dA/dlambda_j = cos phi e^{-2 pi i j k/N},
        dA/dmu_j = i sin phi e^{..}, dB/dlambda_j = -sin phi e^{..},
        dB/dmu_j = i cos phi e^{..}); delta and t enter through |x|^2 and |y|^2,
        and t also through the noise terms.
        """
        dw2_ddelta, dw2_dt = w2_grad()
        phases = _phases(2 * (eps.shape[-1] - 1), scheme.nn)  # k runs over 0..N/2
        pad_all, dpad_dt, dn_dt = pad, 2.0 * noise.kappa, 0.0
        if env is not None:
            dxe2_dt, dye2_dt = env_grad()[1]
            pad_all = pad + (env[0] + env[1])
            dpad_dt = dpad_dt + (c2 * dxe2_dt + s2 * dye2_dt)
            dn_dt = noise.p_e * (s2 * dye2_dt - c2 * dxe2_dt)
        wd = grid.weights / (pq[0] + pq[1] + pad_all)
        de_dpq = np.stack([-(eps + e), eps - e]) * wd  # weighted dE/dP and dE/dQ
        # dP/dc = 2 |x|^2 Re(conj(A) dA/dc) and dQ/dc = 2 |y|^2 Re(conj(B) dB/dc)
        za, zb = 2.0 * de_dpq * w2 * np.conj(ab)
        d_lam, d_mu = np.stack([cos_phi * za - sin_phi * zb,
                                sin_phi * za + cos_phi * zb]) @ phases.T
        de_dw2 = de_dpq * ab2
        d_delta = np.sum(de_dw2 * dw2_ddelta, axis=(0, -1))
        d_t = np.sum(np.sum(de_dw2 * dw2_dt, axis=0) + (eps * dn_dt - e * dpad_dt) * wd,
                     axis=-1)
        de_total = np.concatenate([d_lam.real, -d_mu.imag, d_delta[..., None],
                                   d_t[..., None]], axis=-1)
        # e_total >= e_gs and e_gs < 0, so rel = (e_total - e_gs) / -e_gs
        return de_total / -grid.e_gs[..., None]

    return (pq, pad, env), rel, None if random_times else grad


def chain_relative_energies(n_sites: int, thetas, scheme: CouplingScheme,
                            delta: float, t: float, noise: NoiseSpec, *,
                            dsp: bool = False) -> np.ndarray:
    """`chain_relative_energy` at every theta in `thetas`, as one array.

    All thetas are evaluated in one pass over a (theta x k) grid; the
    theta-only inputs are cached per (N, thetas).  Raises
    UndefinedSteadyState if the steady state is undefined at any theta.
    """
    grid = _theta_grid(n_sites, tuple(float(th) for th in thetas))
    ab = np.stack(_coupling_sum(grid.cos_phi, grid.sin_phi, _phases(n_sites, scheme.nn), scheme))
    return _chain_pass(grid, ab, scheme, [delta], t, noise, dsp=dsp)[1]


def chain_relative_energies_and_grad(n_sites: int, thetas, scheme: CouplingScheme,
                                     delta: float, t: float, noise: NoiseSpec, *,
                                     dsp: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """`chain_relative_energies` and its exact gradient, from one pass.

    The values are the same floats `chain_relative_energies` returns.  Row i
    of the gradient, shape (thetas, 2 J + 2), is the derivative of value i
    with respect to `ParamVector.to_array()`: lambda_j and mu_j over the J
    `coupling_keys(scheme.nn)`, then delta and t.
    """
    grid = _theta_grid(n_sites, tuple(float(th) for th in thetas))
    ab = np.stack(_coupling_sum(grid.cos_phi, grid.sin_phi, _phases(n_sites, scheme.nn), scheme))
    _, rel, grad = _chain_pass(grid, ab, scheme, [delta], t, noise, dsp=dsp)
    return rel, grad()


def chain_relative_energy(params: ModelParams, scheme: CouplingScheme,
                          delta: float, t: float, noise: NoiseSpec, *,
                          dsp: bool = False) -> float:
    """Total relative energy of the closed-form steady state.

    Sums the per-pair steady energies (edge modes half-weighted) and
    normalizes by the ground-state energy.  DSP (`dsp=True`) evaluates the
    overlaps at zero system splitting, which removes the delta and t
    dependence in the noiseless case.
    """
    return float(chain_relative_energies(params.N, (params.theta,), scheme,
                                         delta, t, noise, dsp=dsp)[0])


def closed_form_relative_energies(params: ModelParams, scheme: CouplingScheme,
                                  deltas, t: float, noise: NoiseSpec, *,
                                  random_times: bool, dsp: bool = False) -> np.ndarray:
    """Per-mode relative energies e_k = (E_k + eps_k) / eps_k of `steady_energy`,
    from the weights of one `_chain_pass`: at the fixed time t and frequency
    `deltas[0]`, or averaged over random times and the frequencies `deltas`
    (`random_times`), at the evolution splitting (zero under DSP, `dsp=True`).

    e_k is formed as (2 Q + (1 - p_e) P_e + (1 + p_e) Q_e + pad) / D over
    `steady_energy`'s denominator D, which has no cancellation on cold modes.
    Entries are NaN where eps_k = 0.
    """
    row = _mode_row(params.N, params.theta)
    (p, q), pad, env = _chain_pass(row, np.stack(coupling_arrays(scheme, params)), scheme,
                                   deltas, t, noise, random_times=random_times, dsp=dsp)[0]
    num, denom = 2.0 * q, p + q
    if env is not None:
        p_env, q_env, p_e = env
        num = num + (1.0 - p_e) * p_env + (1.0 + p_e) * q_env
        denom = denom + p_env + q_env
    return np.where(row.eps > 0, (num + pad) / (denom + pad), np.nan)
