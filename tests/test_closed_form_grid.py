"""Closed forms on a (theta x k) grid against the per-theta scalar code.

The oracles below are the scalar closed-form path: `mode_grid` and
`coupling_arrays` rebuilt for every theta, the per-theta
`chain_relative_energy` body through the per-case steady-energy formulas
`analytic.steady_energy` replaced (kept in `oracles`), the single-time
closed-form e_k in its cancellation-free form, both on the bath weights
P = |A|^2 |x|^2 and Q = |B|^2 |y|^2 of `analytic._phase_weight_and_grad`, and
a phase average that evaluates one theta at a time through
`oracles.phase_average`.
The grid keeps every elementwise expression in the same operand order and
reduces each theta row with the same pairwise sum, so the package must agree
with them exactly (==), not to a tolerance: the objective values, and the
optimizer outputs built on them, stay reproducible bit for bit.
"""

import math

import numpy as np
import pytest

from kelvin import analytic as an
from kelvin import model
from kelvin import optimize as op
from kelvin.errors import UndefinedSteadyState
from kelvin.model import CouplingScheme, ModelParams, coupling_keys

from oracles import (finite_env_ss_energy, general_ss_energy, noisy_ss_energy, phase_average,
                     phase_averaged_on)

NN = (0, 0.5, 1, 1.5, 2)
SIZES = (2, 4, 20, 22, 200)
NOISES = ("none", "depolarizing", "depolarizing_zero", "finite_env")
MODES = ("cooling", "dsp")
NODES = (1, 2, 21, 41)


# ---------------------------------------------------------------------------
# per-theta scalar oracles
# ---------------------------------------------------------------------------

def _oracle_mode_grid(params):
    n, theta = params.N, params.theta
    ks = np.arange(n // 2 + 1)
    x = 2.0 * math.pi * ks / n
    eps = np.sqrt(np.maximum(1.0 + math.sin(2 * theta) * np.cos(x), 0.0))
    w = math.sin(theta) + math.cos(theta) * np.cos(x)
    r = math.cos(theta) * np.sin(x)
    phi = 0.5 * np.arctan2(r, w)
    phi[(np.abs(r) < 1e-15) & (w >= 0)] = 0.0
    phi[(np.abs(r) < 1e-15) & (w < 0)] = math.pi / 2
    weights = np.ones_like(eps)
    weights[0] = weights[-1] = 0.5
    return ks, eps, phi, weights


def _oracle_coupling_arrays(scheme, params):
    ks, _, phi, _ = _oracle_mode_grid(params)
    c, s = np.cos(phi), np.sin(phi)
    a = np.zeros(len(ks), dtype=complex)
    b = np.zeros(len(ks), dtype=complex)
    for j in coupling_keys(scheme.nn):
        ph = np.exp(-2j * math.pi * j * ks / params.N)
        a += (c * scheme.lam[j] + 1j * s * scheme.mu[j]) * ph
        b += (-s * scheme.lam[j] + 1j * c * scheme.mu[j]) * ph
    return a, b


def _weight(rate, t, g):
    return an._phase_weight_and_grad(rate, t, g)[0]


def _oracle_weights(params, scheme, delta, t, noise, mode):
    """eps and the bath's P, Q and, for a finite environment, (P_e, Q_e)."""
    _, eps, phi, _ = _oracle_mode_grid(params)
    a, b = _oracle_coupling_arrays(scheme, params)
    g = scheme.g
    eps_evo = np.zeros_like(eps) if mode == "dsp" else eps
    p = (a.real ** 2 + a.imag ** 2) * _weight(eps_evo - delta, t, g)
    q = (b.real ** 2 + b.imag ** 2) * _weight(eps_evo + delta, t, g)
    if noise.kind != "finite_env":
        return eps, p, q, None
    p_env = np.cos(phi) ** 2 * _weight(eps_evo - noise.delta_e, t, noise.kappa_prime)
    q_env = np.sin(phi) ** 2 * _weight(eps_evo + noise.delta_e, t, noise.kappa_prime)
    return eps, p, q, (p_env, q_env)


def _oracle_pair_energies(params, scheme, delta, t, noise, mode):
    eps, p, q, env = _oracle_weights(params, scheme, delta, t, noise, mode)
    if noise.kind == "none":
        return general_ss_energy(eps, p, q)
    if noise.kind == "depolarizing":
        return noisy_ss_energy(eps, p, q, noise.kappa, t)
    return finite_env_ss_energy(eps, (p, q), env, noise.p_e)


def _oracle_chain_relative_energy(params, scheme, delta, t, noise, mode):
    _, eps, _, wts = _oracle_mode_grid(params)
    e_k = _oracle_pair_energies(params, scheme, delta, t, noise, mode)
    e_total = float(np.sum(wts * e_k))
    e_gs = -float(np.sum(wts * eps))
    return abs((e_total - e_gs) / e_gs)


def _oracle_closed_form_single(params, scheme, delta, t, noise, mode):
    """e_k = (E_k + eps_k) / eps_k without cancellation:
    (2 Q + (1 - p_e) P_e + (1 + p_e) Q_e + pad) / (P + Q + P_e + Q_e + pad)."""
    eps, p, q, env = _oracle_weights(params, scheme, delta, t, noise, mode)
    pad = 2.0 * noise.kappa * t
    if env is None:
        num, denom = 2.0 * q + pad, p + q + pad
    else:
        p_env, q_env = env
        num = 2.0 * q + (1.0 - noise.p_e) * p_env + (1.0 + noise.p_e) * q_env + pad
        denom = p + q + p_env + q_env + pad
    return np.where(eps > 0, num / denom, np.nan)


def _oracle_theta_specific(pv, params, noise, mode):
    try:
        return _oracle_chain_relative_energy(params, pv.scheme, pv.delta, pv.t, noise, mode)
    except UndefinedSteadyState:
        return math.inf


def _oracle_phase_averaged(pv, phase, n_sites, noise, mode, n_nodes):
    def ev(theta):
        return _oracle_theta_specific(pv, ModelParams(n_sites, theta), noise, mode)
    return phase_average(ev, phase, n_nodes)


# ---------------------------------------------------------------------------
# randomized cases
# ---------------------------------------------------------------------------

def _noise(kind, rng):
    if kind == "none":
        return an.NoiseSpec.none()
    if kind == "depolarizing":
        return an.NoiseSpec.depolarizing(float(10.0 ** rng.uniform(-6, -1)))
    if kind == "depolarizing_zero":
        return an.NoiseSpec.depolarizing(0.0)
    return an.NoiseSpec.finite_env(float(rng.uniform(0.0, 0.1)),
                                   float(rng.uniform(0.1, 2.5)),
                                   float(rng.uniform(-1.0, 1.0)))


def _param_vector(nn, rng, g=None):
    keys = coupling_keys(nn)
    scheme = CouplingScheme(
        nn=nn,
        lam={j: float(rng.uniform(-1, 1)) for j in keys},
        mu={j: float(rng.uniform(-1, 1)) for j in keys},
        g=float(10.0 ** rng.uniform(-3, 0)) if g is None else g)
    return op.ParamVector(scheme, float(rng.uniform(1e-3, 3.0)),
                          float(10.0 ** rng.uniform(-2, 1.5)))


def _same(new, old):
    """Exactly equal values; NaN matches NaN, inf matches inf."""
    return np.array_equal(np.asarray(new), np.asarray(old), equal_nan=True)


def _outcome(fn):
    try:
        return fn()
    except UndefinedSteadyState:
        return UndefinedSteadyState


CASES = [(nn, n, noise, mode) for nn in NN for n in SIZES
         for noise in NOISES for mode in MODES]


@pytest.mark.parametrize("nn,n_sites,noise_kind,mode", CASES)
def test_matches_per_theta_code(nn, n_sites, noise_kind, mode):
    rng = np.random.default_rng([int(2 * nn), n_sites, NOISES.index(noise_kind),
                                 MODES.index(mode)])
    dsp = mode == "dsp"
    for i, n_nodes in enumerate(NODES):
        pv = _param_vector(nn, rng)
        noise = _noise(noise_kind, rng)
        phase = ("low", "high")[i % 2]
        new = phase_averaged_on(n_nodes, pv, phase, n_sites, noise, dsp=dsp)
        old = _oracle_phase_averaged(pv, phase, n_sites, noise, mode, n_nodes)
        assert _same(new, old), (new, old)

        params = ModelParams(n_sites, float(rng.uniform(0.0, math.pi / 2)))
        args = (params, pv.scheme, pv.delta, pv.t, noise)
        assert _same(_outcome(lambda: an.chain_relative_energy(*args, dsp=dsp)),
                     _outcome(lambda: _oracle_chain_relative_energy(*args, mode)))
        assert _same(an.closed_form_relative_energies(
            params, pv.scheme, [pv.delta], pv.t, noise, random_times=False, dsp=dsp),
            _oracle_closed_form_single(*args, mode))
        new_ab = an.coupling_arrays(pv.scheme, params)
        old_ab = _oracle_coupling_arrays(pv.scheme, params)
        assert _same(new_ab[0], old_ab[0]) and _same(new_ab[1], old_ab[1])


@pytest.mark.parametrize("n_sites", SIZES)
def test_relative_energies_over_arbitrary_thetas(n_sites):
    rng = np.random.default_rng(n_sites)
    thetas = np.sort(rng.uniform(0.0, math.pi / 2, 13))
    pv = _param_vector(1.5, rng)
    noise = an.NoiseSpec.depolarizing(1e-3)
    vals = an.chain_relative_energies(n_sites, thetas, pv.scheme, pv.delta, pv.t, noise)
    assert vals.shape == thetas.shape
    for th, v in zip(thetas, vals):
        old = _oracle_chain_relative_energy(ModelParams(n_sites, float(th)), pv.scheme,
                                            pv.delta, pv.t, noise, "cooling")
        assert v == old


UNDEFINED_NOISES = {"none": an.NoiseSpec.none(),
                    "depolarizing_zero": an.NoiseSpec.depolarizing(0.0),
                    "finite_env": an.NoiseSpec.finite_env(0.0, 0.8, 0.3)}


@pytest.mark.parametrize("noise_kind", list(UNDEFINED_NOISES))
@pytest.mark.parametrize("mode", MODES)
def test_undefined_steady_state(noise_kind, mode):
    """g = 0 with no environment coupling or noise leaves every ratio undefined.

    The per-case depolarizing formula divides 0 by 0 there, so that case is
    checked on the package alone.
    """
    rng = np.random.default_rng(7)
    pv = _param_vector(1, rng, g=0.0)
    noise = UNDEFINED_NOISES[noise_kind]
    with_oracle = noise_kind != "depolarizing_zero"
    dsp = mode == "dsp"
    for n_nodes in (2, 21):
        for phase in ("low", "high"):
            new = phase_averaged_on(n_nodes, pv, phase, 20, noise, dsp=dsp)
            assert new == math.inf
            if with_oracle:
                assert new == _oracle_phase_averaged(pv, phase, 20, noise, mode, n_nodes)
    params = ModelParams(20, 0.4)
    args = (params, pv.scheme, pv.delta, pv.t, noise)
    assert op.objective_theta_specific(pv, params, noise, dsp=dsp) == math.inf
    with pytest.raises(UndefinedSteadyState):
        an.chain_relative_energy(*args, dsp=dsp)
    if with_oracle:
        with pytest.raises(UndefinedSteadyState):
            _oracle_chain_relative_energy(*args, mode)
    with pytest.raises(UndefinedSteadyState):
        an.closed_form_relative_energies(params, pv.scheme, [pv.delta], pv.t, noise,
                                         random_times=False, dsp=dsp)
    # one node spans no interval; an undefined node still rejects the point
    assert phase_averaged_on(1, pv, "low", 20, noise, dsp=dsp) == math.inf


def test_cached_theta_inputs_are_read_only():
    thetas = tuple(float(th) for th in op.phase_grid("high"))
    grid = model._theta_grid(20, thetas)
    assert grid is model._theta_grid(20, thetas)
    phases = model._phases(20, 1.5)
    nodes = op.phase_grid("high")
    assert nodes is op.phase_grid("high")
    assert grid.eps.shape == (21, 11) and phases.shape == (4, 11)
    for arr in (*grid, phases, nodes):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[...] = 0


@pytest.mark.parametrize("objective", ["theta_specific", "phase_averaged"])
def test_optimizer_takes_the_same_path(objective):
    init = op.ParamVector(CouplingScheme(nn=1, lam={-1: 0.2, 0: 1.0, 1: -0.4},
                                         mu={-1: 0.1, 0: 0.3, 1: 0.5}, g=0.1), 0.8, 3.0)
    noise = an.NoiseSpec.depolarizing(1e-4)
    if objective == "theta_specific":
        params = ModelParams(20, 1.1)
        new_obj = lambda pv: op.objective_theta_specific(pv, params, noise)  # noqa: E731
        old_obj = lambda pv: _oracle_theta_specific(pv, params, noise, "cooling")  # noqa: E731
    else:
        new_obj = lambda pv: op.objective_phase_averaged(pv, "high", 20, noise)  # noqa: E731
        old_obj = lambda pv: _oracle_phase_averaged(pv, "high", 20, noise,  # noqa: E731
                                                     "cooling", op.PHASE_NODES)
    # the search needs a gradient: the oracle's values carry the package's
    # gradient, so only the values can steer the two searches apart
    old_with_grad = lambda pv: op.ValueWithGrad(old_obj(pv), new_obj(pv).grad)  # noqa: E731
    new = op.optimize(new_obj, init, budget=120, restarts=2, seed=3)
    old = op.optimize(old_with_grad, init, budget=120, restarts=2, seed=3)
    assert new.best == old.best
    assert new.objective == old.objective
    assert new.evaluations == old.evaluations
    assert new.history == old.history


PASS_NOISES = ("none", "depolarizing", "finite_env")


@pytest.mark.parametrize("nn", NN)
@pytest.mark.parametrize("noise_kind", PASS_NOISES)
@pytest.mark.parametrize("mode", MODES)
def test_values_with_and_without_gradient_are_one_pass(nn, noise_kind, mode):
    """The values-only entry points and the values that come with the
    gradient are the same floats, on seeded random theta grids."""
    rng = np.random.default_rng([int(2 * nn), PASS_NOISES.index(noise_kind), MODES.index(mode)])
    dsp = mode == "dsp"
    for n_sites in (4, 22, 200):
        pv = _param_vector(nn, rng)
        noise = _noise(noise_kind, rng)
        thetas = rng.uniform(0.0, math.pi / 2, int(rng.integers(1, 25)))
        args = (n_sites, thetas, pv.scheme, pv.delta, pv.t, noise)
        vals, grad = an.chain_relative_energies_and_grad(*args, dsp=dsp)
        assert np.array_equal(an.chain_relative_energies(*args, dsp=dsp), vals)
        assert grad.shape == (len(thetas), 2 * len(coupling_keys(nn)) + 2)
        params = ModelParams(n_sites, float(thetas[0]))
        one = an.chain_relative_energy(params, pv.scheme, pv.delta, pv.t, noise, dsp=dsp)
        assert op.objective_theta_specific(pv, params, noise, dsp=dsp) == one == vals[0]


@pytest.mark.parametrize("noise_kind,calls", [("none", 1), ("depolarizing", 1),
                                              ("finite_env", 2)])
def test_one_weight_evaluation_per_pass(monkeypatch, noise_kind, calls):
    """Every fixed-time entry point evaluates the bath weights once (and the
    environment's once more) and never the complex overlaps; only the
    gradient's entry points form the weights' derivatives."""
    rng = np.random.default_rng(11)
    pv = _param_vector(1, rng)
    noise = _noise(noise_kind, rng)
    counted, derivatives = [], []
    weights = an._phase_weight_and_grad

    def counting(*args):
        counted.append(args)
        weight, grad = weights(*args)

        def counting_grad():
            derivatives.append(args)
            return grad()
        return weight, counting_grad

    def forbidden(*args):
        raise AssertionError("the closed-form pass evaluated _phase_integral")

    monkeypatch.setattr(an, "_phase_weight_and_grad", counting)
    monkeypatch.setattr(an, "_phase_integral", forbidden)
    thetas = op.phase_grid("low")
    params = ModelParams(20, 0.7)
    values_only = (
        lambda: an.chain_relative_energies(20, thetas, pv.scheme, pv.delta, pv.t, noise),
        lambda: an.chain_relative_energy(params, pv.scheme, pv.delta, pv.t, noise),
        lambda: an.closed_form_relative_energies(params, pv.scheme, [pv.delta], pv.t, noise,
                                                 random_times=False))
    with_gradient = (
        lambda: an.chain_relative_energies_and_grad(20, thetas, pv.scheme, pv.delta, pv.t,
                                                    noise),
        lambda: op.objective_phase_averaged(pv, "low", 20, noise),
        lambda: op.objective_theta_specific(pv, params, noise))
    for runs, derivative_calls in ((values_only, 0), (with_gradient, calls)):
        for run in runs:
            counted.clear()
            derivatives.clear()
            run()
            assert len(counted) == calls
            assert len(derivatives) == derivative_calls
