import math

import numpy as np
import pytest

from kelvin import analytic as an
from kelvin import optimize as op
from kelvin import repro
from kelvin.errors import OptimizationFailed
from kelvin.model import CouplingScheme, ModelParams, coupling_keys, mode_grid

from oracles import phase_average, phase_averaged_on


@pytest.fixture
def params200():
    return ModelParams(200, math.pi / 3)


class TestParamVector:
    def test_roundtrip(self):
        pv = op.ParamVector(CouplingScheme(nn=1, lam={-1: 0.2, 0: 1.0, 1: -0.4},
                                           mu={-1: 0.0, 0: 0.5, 1: 0.1}, g=0.1),
                            0.9, 3.1)
        x = pv.to_array()
        assert pv.with_array(x) == pv

    def test_normalization(self):
        pv = op.ParamVector(CouplingScheme.local(0.5, 0.25, 0.1), 1.0, 3.0)
        n = pv.normalized()
        assert n.scheme.lam[0] == pytest.approx(1.0)
        assert n.scheme.mu[0] == pytest.approx(0.5)
        assert n.scheme.g == pytest.approx(0.05)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            op.ParamVector(CouplingScheme.local(1, 1, 0.1), 0.0, 1.0)


class TestObjectives:
    def test_normalization_invariance(self, params200):
        pv = op.ParamVector(CouplingScheme.local(0.6, 0.3, 0.1), 0.9, 3.3)
        a = op.objective_theta_specific(pv, params200)
        b = op.objective_theta_specific(pv.normalized(), params200)
        assert a == pytest.approx(b, abs=1e-12)

    def test_scaling_invariance_on_grid(self, params200, rng):
        for _ in range(5):
            pv = op.ParamVector(
                CouplingScheme.local(float(rng.uniform(0.1, 1)),
                                     float(rng.uniform(-1, 1)), 0.1),
                float(rng.uniform(0.5, 2)), float(rng.uniform(1, 10)))
            c = float(rng.uniform(0.2, 1.0))
            scaled = op.ParamVector(pv.scheme.rescaled(c), pv.delta, pv.t)
            a = op.objective_theta_specific(pv, params200)
            b = op.objective_theta_specific(scaled, params200)
            assert a == pytest.approx(b, abs=1e-12)

    def test_dsp_ignores_delta_t(self, params200, rng):
        scheme = CouplingScheme.local(1.0, 0.2, 0.1)
        vals = set()
        for _ in range(5):
            pv = op.ParamVector(scheme, float(rng.uniform(0.1, 3)),
                                float(rng.uniform(0.1, 50)))
            vals.add(round(op.objective_theta_specific(pv, params200, dsp=True), 14))
        assert len(vals) == 1

    @pytest.mark.parametrize("word", ["dsp", "cooling"])
    def test_protocol_switches_are_keyword_booleans(self, word):
        """DSP and random times are keyword-only booleans: a protocol name
        passed where a `mode` or `schedule_kind` string used to go raises
        TypeError, so no string can become a truthy switch."""
        p = ModelParams(12, 1.0)
        scheme = CouplingScheme.local(1.0, 0.5, 0.05)
        none = an.NoiseSpec.none()
        pv = op.ParamVector(scheme, 1.0, 3.0)
        calls = [
            lambda: an.chain_relative_energy(p, scheme, 1.0, 3.0, none, word),
            lambda: an.chain_relative_energies(12, [1.0], scheme, 1.0, 3.0, none, word),
            lambda: an.chain_relative_energies_and_grad(12, [1.0], scheme, 1.0, 3.0, none, word),
            lambda: an.closed_form_relative_energies(p, scheme, [1.0], 3.0, none, word),
            lambda: an.closed_form_relative_energies(p, scheme, [1.0], 3.0, none, "single", word),
            lambda: op.objective_theta_specific(pv, p, none, word),
            lambda: op.objective_phase_averaged(pv, "low", 12, none, word),
        ]
        for call in calls:
            with pytest.raises(TypeError):
                call()

    def test_noisy_objective_monotone_in_kappa(self, params200):
        pv = op.ParamVector(CouplingScheme.local(1.0, 0.0, 0.1), 0.9, 3.3)
        es = [op.objective_theta_specific(
            pv, params200, an.NoiseSpec.depolarizing(k)) for k in
            (0.0, 1e-5, 1e-4, 1e-3)]
        assert all(b >= a for a, b in zip(es, es[1:]))

    def test_phase_average_of_constant(self):
        for phase in ("low", "high"):
            grid = op.phase_grid(phase)
            val = phase_average(lambda th: 0.7, phase)
            assert val == pytest.approx(0.7 * (grid[-1] - grid[0]), abs=1e-12)

    def test_phase_grid_insets_critical_point(self):
        low = op.phase_grid("low")
        high = op.phase_grid("high")
        assert low[-1] == pytest.approx(math.pi / 4 - math.pi / 80)
        assert high[0] == pytest.approx(math.pi / 4 + math.pi / 80)

    def test_grid_refinement_stability(self):
        pv = op.ParamVector(CouplingScheme.local(1.0, 0.0, 0.1), 0.744, 3.33)
        a, b, c = (phase_averaged_on(n, pv, "high", 20) for n in (21, 41, 81))
        assert abs(a - b) <= 0.01 * abs(a)   # default grid within 1% of refined
        assert abs(b - c) <= 0.005 * abs(b)  # doubling a refined grid: < 0.5%


class TestOptimize:
    def test_high_phase_local_optimum_is_lambda_only(self, params200):
        init = op.ParamVector(CouplingScheme.local(1.0, 1.0, 0.1), 1.0, 3.0)
        res = op.optimize(lambda pv: op.objective_theta_specific(pv, params200),
                          init, budget=2500, restarts=5, seed=5)
        assert abs(res.best.scheme.mu[0]) <= 0.02
        assert res.best.scheme.lam[0] == pytest.approx(1.0)

    def test_deterministic(self, params200):
        init = op.ParamVector(CouplingScheme.local(1.0, 0.5, 0.1), 1.0, 3.0)
        args = dict(budget=800, restarts=3, seed=9)
        r1 = op.optimize(lambda pv: op.objective_theta_specific(pv, params200),
                         init, **args)
        r2 = op.optimize(lambda pv: op.objective_theta_specific(pv, params200),
                         init, **args)
        assert r1.best == r2.best and r1.objective == r2.objective
        assert r1.history == r2.history

    def test_box_constraints_and_normalization(self, params200):
        init = op.ParamVector(CouplingScheme.local(0.9, -0.8, 0.1), 2.9, 49.0)
        res = op.optimize(lambda pv: op.objective_theta_specific(pv, params200),
                          init, budget=600, restarts=3, seed=1)
        best = res.best
        assert all(abs(v) <= 1 + 1e-12 for v in best.scheme.lam.values())
        assert all(abs(v) <= 1 + 1e-12 for v in best.scheme.mu.values())
        assert op.DELTA_BOUNDS[0] <= best.delta <= op.DELTA_BOUNDS[1]
        assert op.TIME_BOUNDS[0] <= best.t <= op.TIME_BOUNDS[1]
        assert max(max(abs(v) for v in best.scheme.lam.values()),
                   max(abs(v) for v in best.scheme.mu.values())) == pytest.approx(1.0)

    def test_history_running_minimum(self, params200):
        init = op.ParamVector(CouplingScheme.local(1.0, 0.5, 0.1), 1.0, 3.0)
        res = op.optimize(lambda pv: op.objective_theta_specific(pv, params200),
                          init, budget=600, restarts=2, seed=2)
        vals = [v for _, v in res.history if math.isfinite(v)]
        assert all(b <= a for a, b in zip(vals, vals[1:]))
        assert res.objective == pytest.approx(min(vals), abs=1e-12)

    def test_all_infinite_fails(self):
        init = op.ParamVector(CouplingScheme.local(1.0, 0.5, 0.1), 1.0, 3.0)
        with pytest.raises(OptimizationFailed):
            op.optimize(lambda pv: math.inf, init, budget=100, restarts=2, seed=0)

    def test_reoptimization_beats_stale_parameters(self, params200):
        """Re-optimizing under noise does at least as well as reusing the
        noiseless optimum, for every (theta, kappa) probed."""
        g = 0.1
        for theta in (0.6, math.pi / 3):
            params = ModelParams(200, theta)
            init = op.ParamVector(CouplingScheme.local(1.0, 0.3, g), 1.0, 3.0)
            clean = op.optimize(
                lambda pv: op.objective_theta_specific(pv, params),
                init, budget=1200, restarts=3, seed=3)
            for ratio in (0.03, 0.3):
                noise = an.NoiseSpec.depolarizing(ratio * g * g)
                stale = op.objective_theta_specific(clean.best, params, noise)
                reopt = op.optimize(
                    lambda pv: op.objective_theta_specific(pv, params, noise),
                    init, budget=1200, restarts=3, seed=3,
                    extra_starts=[clean.best])
                assert reopt.objective <= stale + 1e-12

    def test_dsp_mode_optimizes_couplings_only(self):
        params = ModelParams(40, 1.3)
        init = op.ParamVector(CouplingScheme.local(0.8, 0.5, 0.1), 1.0, 3.0)
        res = op.optimize(
            lambda pv: op.objective_theta_specific(pv, params, dsp=True),
            init, budget=600, restarts=3, seed=4, vary_delta_t=False)
        assert res.best.delta == init.delta and res.best.t == init.t
        # near theta = pi/2 the best local DSP coupling is lambda-only
        assert abs(res.best.scheme.mu[0]) <= 0.05


# ---------------------------------------------------------------------------
# exact gradients
# ---------------------------------------------------------------------------

NOISE_KINDS = ("none", "depolarizing", "depolarizing_zero", "finite_env")


def _grad_case(nn, noise_kind, mode, objective, rng, g=0.1):
    """A seeded interior point (couplings inside (-1, 1), delta and t near the
    table rows') and its objective as a function of a ParamVector."""
    noise = {"none": lambda: an.NoiseSpec.none(),
             "depolarizing": lambda: an.NoiseSpec.depolarizing(
                 float(10.0 ** rng.uniform(-2, 0)) * g * g),
             "depolarizing_zero": lambda: an.NoiseSpec.depolarizing(0.0),
             "finite_env": lambda: an.NoiseSpec.finite_env(
                 float(rng.uniform(0.1, 0.5)) * g, float(rng.uniform(0.5, 1.5)),
                 float(rng.uniform(-1, 1)))}[noise_kind]()
    keys = coupling_keys(nn)
    scheme = CouplingScheme(nn=nn, lam={j: float(rng.uniform(-0.9, 0.9)) for j in keys},
                            mu={j: float(rng.uniform(-0.9, 0.9)) for j in keys}, g=g)
    pv = op.ParamVector(scheme, float(rng.uniform(0.6, 1.2)), float(rng.uniform(2.0, 5.0)))
    if objective == "theta_specific":
        params = ModelParams(20, float(rng.uniform(0.05, 1.5)))
        return pv, lambda p: op.objective_theta_specific(p, params, noise, dsp=mode == "dsp")
    phase = ("low", "high")[int(rng.integers(2))]
    return pv, lambda p: op.objective_phase_averaged(p, phase, 20, noise, dsp=mode == "dsp")


def _central_diff(fun, pv):
    x = pv.to_array()
    grad = np.zeros_like(x)
    for i in range(len(x)):
        h = 1e-5 * max(1.0, abs(x[i]))
        xp, xm = x.copy(), x.copy()
        xp[i] += h
        xm[i] -= h
        grad[i] = (fun(pv.with_array(xp)) - fun(pv.with_array(xm))) / (2 * h)
    return grad


def _assert_grad_close(grad, ref, rel):
    scale = np.max(np.abs(grad))
    assert scale > 0
    assert np.max(np.abs(grad - ref)) <= rel * scale, (grad, ref)


class TestGradient:
    @pytest.mark.parametrize("objective", ["theta_specific", "phase_averaged"])
    @pytest.mark.parametrize("mode", ["cooling", "dsp"])
    @pytest.mark.parametrize("noise_kind", NOISE_KINDS)
    @pytest.mark.parametrize("nn", [0, 0.5, 1, 1.5, 2])
    def test_matches_central_differences(self, nn, noise_kind, mode, objective):
        rng = np.random.default_rng([int(2 * nn), NOISE_KINDS.index(noise_kind),
                                     mode == "dsp", objective == "phase_averaged"])
        pv, fun = _grad_case(nn, noise_kind, mode, objective, rng)
        val = fun(pv)
        assert val.grad.shape == pv.to_array().shape
        _assert_grad_close(val.grad, _central_diff(fun, pv), 1e-6)

    @pytest.mark.parametrize("noise", [an.NoiseSpec.none(), an.NoiseSpec.depolarizing(1e-3)])
    @pytest.mark.parametrize("k", [0, 4, 8, 10])
    def test_resonant_mode(self, k, noise):
        """delta = eps_k exactly puts mode k on the series branch of the overlap."""
        params = ModelParams(20, 0.9)
        scheme = CouplingScheme(nn=1, lam={-1: 0.3, 0: 0.8, 1: -0.5},
                                mu={-1: 0.2, 0: 0.4, 1: 0.6}, g=0.1)
        pv = op.ParamVector(scheme, float(mode_grid(params)[1][k]), 3.5)
        assert pv.delta == mode_grid(params)[1][k]

        def fun(p):
            return op.objective_theta_specific(p, params, noise)
        _assert_grad_close(fun(pv).grad, _central_diff(fun, pv), 1e-6)

    def test_phase_weight_branches(self):
        """|phi|^2 and its derivatives on both sides of the series cut-over,
        against 30-digit central differences."""
        mpmath = pytest.importorskip("mpmath")
        t, g = 3.7, 0.3

        def weight_mp(a, tt):  # g^2 |e^{i a tt} - 1|^2 / a^2, without cancellation
            if a == 0:
                return (g * tt) ** 2
            return (2 * g * mpmath.sin(a * tt / 2) / a) ** 2

        for v in (0.0, 1e-9, -1e-7, 1e-3, 0.0099999, -0.0100001, 0.4, 5.0, -37.0):
            a = v / t
            weight, grad = an._phase_weight_and_grad(np.array(a), t, g)
            got = (weight, *grad())
            with mpmath.workdps(30):
                am, tm, h = mpmath.mpf(a), mpmath.mpf(t), mpmath.mpf("1e-12")
                want = (weight_mp(am, tm),
                        (weight_mp(am + h, tm) - weight_mp(am - h, tm)) / (2 * h),
                        (weight_mp(am, tm + h) - weight_mp(am, tm - h)) / (2 * h))
            assert abs(got[0] - abs(an._phase_integral(a, t, g)) ** 2) <= 1e-12 * g * g * t * t
            for x, ref, scale in zip(got, want, (t * t, t ** 3, t)):
                assert abs(x - float(ref)) <= 1e-13 * g * g * scale, (v, x, ref)

    def test_matches_mpmath_closed_form(self):
        """Noiseless N = 20 phase-averaged gradient against a 30-digit central
        difference of an mpmath copy of the closed form."""
        mpmath = pytest.importorskip("mpmath")
        n_sites, phase = 20, "high"
        scheme = CouplingScheme(nn=1, lam={-1: 0.27, 0: 1.0, 1: 0.31},
                                mu={-1: -0.15, 0: 0.05, 1: 0.22}, g=0.1)
        pv = op.ParamVector(scheme, 0.71, 3.63)
        keys = coupling_keys(1)

        def closed_form(x):
            lam, mu = x[:3], x[3:6]
            delta, t = x[6], x[7]
            thetas = [mpmath.mpf(float(th)) for th in op.phase_grid(phase)]
            vals = []
            for th in thetas:
                e_total = e_gs = 0
                for k in range(n_sites // 2 + 1):
                    q = 2 * mpmath.pi * k / n_sites
                    eps = mpmath.sqrt(1 + mpmath.sin(2 * th) * mpmath.cos(q))
                    w = mpmath.sin(th) + mpmath.cos(th) * mpmath.cos(q)
                    r = mpmath.cos(th) * mpmath.sin(q)
                    phi = (mpmath.mpf(0) if w >= 0 else mpmath.pi / 2) if abs(r) < 1e-15 \
                        else mpmath.atan2(r, w) / 2
                    c, s = mpmath.cos(phi), mpmath.sin(phi)
                    ph = [mpmath.expj(-q * j) for j in keys]
                    a_k = sum((c * lj + 1j * s * mj) * p for lj, mj, p in zip(lam, mu, ph))
                    b_k = sum((-s * lj + 1j * c * mj) * p for lj, mj, p in zip(lam, mu, ph))
                    ov = [scheme.g * (mpmath.expj(f * t) - 1) / (1j * f)
                          for f in (eps - delta, eps + delta)]
                    p_k, q_k = abs(a_k * ov[0]) ** 2, abs(b_k * ov[1]) ** 2
                    weight = mpmath.mpf(0.5) if k in (0, n_sites // 2) else 1
                    e_total += weight * eps * (q_k - p_k) / (p_k + q_k)
                    e_gs -= weight * eps
                vals.append(abs((e_total - e_gs) / e_gs))
            step = thetas[1] - thetas[0]
            return step * (sum(vals) - (vals[0] + vals[-1]) / 2)

        with mpmath.workdps(30):
            x0 = [mpmath.mpf(float(v)) for v in pv.to_array()]
            h = mpmath.mpf("1e-12")
            ref = []
            for i in range(len(x0)):
                xp, xm = list(x0), list(x0)
                xp[i] += h
                xm[i] -= h
                ref.append(float((closed_form(xp) - closed_form(xm)) / (2 * h)))
            value = float(closed_form(x0))
        val = op.objective_phase_averaged(pv, phase, n_sites)
        assert val == pytest.approx(value, rel=1e-12)
        _assert_grad_close(val.grad, np.array(ref), 1e-10)


class TestSearchInterface:
    def test_plain_float_objective_is_rejected(self, params200):
        init = op.ParamVector(CouplingScheme.local(1.0, 0.5, 0.1), 1.0, 3.0)
        with pytest.raises(TypeError):
            op.optimize(lambda pv: float(op.objective_theta_specific(pv, params200)),
                        init, budget=100, restarts=1, seed=0)

    @pytest.mark.parametrize("budget, restarts", [(0, 3), (100, 0), (100, -4)])
    def test_budget_and_restarts_below_one_are_rejected(self, params200, budget, restarts):
        init = op.ParamVector(CouplingScheme.local(1.0, 0.5, 0.1), 1.0, 3.0)
        with pytest.raises(ValueError, match="must be >= 1"):
            op.optimize(lambda pv: op.objective_theta_specific(pv, params200),
                        init, budget=budget, restarts=restarts, seed=0)

    def test_value_with_grad_is_its_float(self, params200):
        pv = op.ParamVector(CouplingScheme.local(1.0, 0.5, 0.1), 1.0, 3.0)
        val = op.objective_theta_specific(pv, params200)
        assert isinstance(val, op.ValueWithGrad)
        assert val == an.chain_relative_energy(params200, pv.scheme, pv.delta, pv.t,
                                               an.NoiseSpec.none())
        assert val + 1.0 == float(val) + 1.0

    @pytest.mark.parametrize("nn,phase", list(repro.table_rows()))
    def test_every_call_is_counted(self, nn, phase):
        """The objective is called `evaluations` times by the search, plus once
        to evaluate the normalized optimum."""
        _, init = repro.phase_objective_for_row(nn, phase)
        calls = 0

        def objective(pv):
            nonlocal calls
            calls += 1
            return op.objective_phase_averaged(pv, phase, 20)
        res = op.optimize(objective, init, budget=300, restarts=3, seed=1)
        assert calls == res.evaluations + 1

    def test_non_finite_start_costs_one_call(self):
        params = ModelParams(20, 1.1)
        bad = op.ParamVector(CouplingScheme.local(1.0, 0.5, 0.1), 1.0, 3.0)
        good = op.ParamVector(CouplingScheme.local(1.0, 0.5, 0.1), 0.9, 3.0)
        calls = 0

        def objective(pv):
            nonlocal calls
            calls += 1
            return math.inf if pv.delta == bad.delta else op.objective_theta_specific(pv, params)
        res = op.optimize(objective, bad, budget=200, restarts=2, seed=0, extra_starts=[good])
        assert res.history[0] == (1, math.inf)
        assert math.isfinite(res.history[1][1])
        assert calls == res.evaluations + 1

    @pytest.mark.parametrize("nn,phase", list(repro.table_rows()))
    def test_optimum_stable_under_one_ulp(self, nn, phase):
        """A one-ulp change of the start moves the optimum by rounding only."""
        _, init = repro.phase_objective_for_row(nn, phase)
        nudged = op.ParamVector(init.scheme, float(np.nextafter(init.delta, np.inf)), init.t)
        assert nudged.delta != init.delta

        def objective(pv):
            return op.objective_phase_averaged(pv, phase, 20)
        a = op.optimize(objective, init, budget=300, restarts=3, seed=5)
        b = op.optimize(objective, nudged, budget=300, restarts=3, seed=5)
        assert np.max(np.abs(a.best.to_array() - b.best.to_array())) <= 1e-9
        assert abs(a.objective - b.objective) <= 1e-12 * a.objective
