import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest

from kelvin import analytic as an
from kelvin import fock, model
from kelvin.errors import (
    DegenerateBand,
    NoConvergenceRate,
    ResonantDenominator,
    UndefinedSteadyState,
)
from kelvin.model import (
    BathSpec,
    CouplingScheme,
    ModelParams,
    band_edges,
    block_hamiltonian,
    dispersion,
)
from kelvin.protocol import schedule_frequencies, steady_report

import oracles
from oracles import lorentzian_rates, mode_values


class TestOverlapCoeffs:
    def test_resonant_limit(self):
        x, y = an.overlap_coeffs(1.0, 1.0, 20.0, 2.0)
        assert x == pytest.approx(2.0 * 20.0, abs=1e-9)

    def test_counter_rotating_zero(self):
        # (delta + eps) t = 2 pi kills y
        eps, delta = 0.4, 0.6
        t = 2 * math.pi / (eps + delta)
        _, y = an.overlap_coeffs(eps, delta, t, 1.0)
        assert abs(y) < 1e-12

    def test_co_rotating_zero(self):
        # (delta - eps) t = 2 pi kills x: accidental reheating point
        eps, delta = 0.5, 1.5
        t = 2 * math.pi / (delta - eps)
        x, _ = an.overlap_coeffs(eps, delta, t, 1.0)
        assert abs(x) < 1e-12

    def test_matches_quadrature(self, rng):
        from scipy.integrate import quad
        for _ in range(10):
            eps, delta = rng.uniform(0.1, 2.0, 2)
            t = float(rng.uniform(0.1, 30.0))
            x, y = an.overlap_coeffs(eps, delta, t, 1.0)
            xr = quad(lambda u: math.cos((eps - delta) * u), 0, t)[0]
            xi = quad(lambda u: math.sin((eps - delta) * u), 0, t)[0]
            assert x == pytest.approx(xr + 1j * xi, abs=1e-10)
            yr = quad(lambda u: math.cos((eps + delta) * u), 0, t)[0]
            yi = quad(lambda u: math.sin((eps + delta) * u), 0, t)[0]
            assert y == pytest.approx(-(yr + 1j * yi), abs=1e-10)


class TestJumpOps:
    def test_local_coupling_structure(self):
        phi = 0.4
        a = np.exp(1j * phi)
        b = 1j * np.exp(1j * phi)
        x, y = 0.3 + 0.1j, 0.02 - 0.05j
        ops = an.single_cycle_jump_ops(a, b, x, y)
        # l1 = e^{-i phi}(x a_k - i y a_-k^dag) up to the common phase
        assert ops.c1_a == pytest.approx(np.exp(-1j * phi) * x)
        assert ops.c1_adag == pytest.approx(np.exp(-1j * phi) * (-1j) * y)
        assert ops.c2_a == pytest.approx(np.exp(1j * phi) * x)
        assert ops.c2_adag == pytest.approx(np.exp(1j * phi) * (-1j) * y)

    def test_pure_loss_when_y_vanishes(self):
        ops = an.single_cycle_jump_ops(1.0, 1j, 0.5, 0.0)
        assert ops.c1_adag == 0 and ops.c2_adag == 0

    def test_lindblad_map_matches_oracle_scaling(self, small_params, bath):
        """Approximate map from the jump operators deviates from the exact
        cycle at O((gt)^2): halving g cuts the error by ~4."""
        errs = []
        for g in (2e-3, 1e-3):
            scheme = CouplingScheme.local(1.0, 1.0, g)
            blk = block_hamiltonian(small_params, scheme, bath, k=3)
            eps, _, a, b = mode_values(small_params, scheme, 3)
            exact = fock.exact_cycle_map(blk, bath.cycle_time_mean)
            x, y = an.overlap_coeffs(eps, bath.delta, bath.cycle_time_mean, g)
            ops_c = an.single_cycle_jump_ops(a, b, x, y)
            a1, a2 = fock.mode_operators(2)
            l1 = ops_c.c1_a * a1 + ops_c.c1_adag * a2.conj().T
            l2 = ops_c.c2_a * a2 + ops_c.c2_adag * a1.conj().T
            h_sys = eps * (a1.conj().T @ a1 + a2.conj().T @ a2 - np.eye(4))
            e, v = np.linalg.eigh(h_sys)
            u = (v * np.exp(-1j * e * bath.cycle_time_mean)) @ v.conj().T
            eye = np.eye(4)
            lind = np.zeros((16, 16), dtype=complex)
            for l in (l1, l2):
                n_op = l.conj().T @ l
                lind += np.kron(l, l.conj()) - 0.5 * (np.kron(n_op, eye)
                                                      + np.kron(eye, n_op.T))
            approx = np.kron(u, u.conj()) @ (np.eye(16) + lind)
            errs.append(np.max(np.abs(exact - oracles.physical_sector(approx))))
        assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.25)


class TestAveragedRates:
    def test_resonant_exact_integral(self):
        gc, _ = an.multifreq_rates(1.0, [1.0], 7.0, 1.0, 1.0, 1.0)
        # oracle: (1/2t) int_0^{2t} u^2 du = (4/3) t^2
        assert gc == pytest.approx(4.0 / 3.0 * 49.0, rel=1e-10)

    def test_resonant_lorentzian_coincides(self):
        gc, _ = lorentzian_rates(1.0, 1.0, 7.0, 1.0, 1.0, 1.0)
        assert gc == pytest.approx(4.0 / 3.0 * 49.0, rel=1e-12)

    def test_far_off_resonance(self):
        eps, delta, t = 1.0, 3.0, 50.0
        gc, _ = lorentzian_rates(eps, delta, t, 1.0, 1.0, 1.0)
        assert gc == pytest.approx(2.0 / (delta - eps) ** 2, rel=1e-3)

    def test_exact_integral_matches_quadrature(self, rng):
        """Oracle: numerically average |x(t')|^2 over the uniform time draw."""
        from scipy.integrate import quad
        for _ in range(8):
            eps, delta = rng.uniform(0.2, 2.0, 2)
            t = float(rng.uniform(1.0, 30.0))
            gc, gh = an.multifreq_rates(eps, [delta], t, 1.0, 1.0, 1.0)
            ref_c = quad(lambda u: abs(an.overlap_coeffs(eps, delta, u, 1.0)[0]) ** 2,
                         0, 2 * t, limit=400)[0] / (2 * t)
            ref_h = quad(lambda u: abs(an.overlap_coeffs(eps, delta, u, 1.0)[1]) ** 2,
                         0, 2 * t, limit=400)[0] / (2 * t)
            assert gc == pytest.approx(ref_c, rel=1e-8)
            assert gh == pytest.approx(ref_h, rel=1e-8)

    def test_series_branch_is_continuous(self):
        t = 20.0
        near = an.multifreq_rates(1.0, [1.0 + 1e-6], t, 1.0, 1.0, 1.0)[0]
        at = an.multifreq_rates(1.0, [1.0], t, 1.0, 1.0, 1.0)[0]
        assert near == pytest.approx(at, rel=1e-6)

    def test_lorentzian_envelope_vs_exact(self):
        """The Lorentzian line shape tracks the exact time average to within
        ~40% at intermediate detuning and a few percent in the wings
        (measured worst case 37% at |delta-eps| t = 1)."""
        t = 20.0
        for at in (0.0, 1.0, 10.0):
            delta = 1.0 + at / t
            exact, _ = an.multifreq_rates(1.0, [delta], t, 1.0, 1.0, 1.0)
            lor, _ = lorentzian_rates(1.0, delta, t, 1.0, 1.0, 1.0)
            assert 0.7 <= exact / lor <= 1.45

    def test_rates_nonnegative_and_continuous(self, rng):
        deltas = np.linspace(0.2, 2.5, 200)
        gc, gh = an.multifreq_rates(1.0, [0.0], 1.0, 1.0, 1.0, 1.0)  # delta = 0 edge
        for d in deltas:
            gc, gh = an.multifreq_rates(1.0, [float(d)], 20.0, 1.0, 1.0, 1.0)
            assert gc >= 0 and gh >= 0


# phase v = a t: zero, both sides of the old series cutoffs (1e-7 and 1e-4),
# the band where e^{iv} - 1 and x - sin x cancel, and well past it
_KERNEL_PHASES = [0.0, 1e-8, -1e-8, 1.01e-7, 1.01e-4, 3e-4, 1e-3, 1e-2, 0.5, 1.0, 10.0]


class TestKernelPrecision:
    """The random-time weight and the overlap integral keep their relative
    precision at every phase v = a t, against 50-digit mpmath."""

    T, G = 20.0, 0.3

    @pytest.mark.parametrize("v", _KERNEL_PHASES)
    def test_random_time_weight(self, v):
        mp = pytest.importorskip("mpmath")
        with mp.workdps(50):
            a, t = mp.mpf(v / self.T), mp.mpf(self.T)
            ref = 4 * t * t / 3 if v == 0 else 2 / a**2 - mp.sin(2 * a * t) / (a**3 * t)
            got = an._avg_abs2_integral(v / self.T, self.T)
            assert abs(got - ref) <= 1e-15 * ref

    @pytest.mark.parametrize("v", _KERNEL_PHASES)
    def test_phase_integral(self, v):
        mp = pytest.importorskip("mpmath")
        with mp.workdps(50):
            a, t = mp.mpf(v / self.T), mp.mpf(self.T)
            ref = self.G * t if v == 0 else self.G * (mp.expj(a * t) - 1) / (1j * a)
            got = an._phase_integral(v / self.T, self.T, self.G)
            # each part on its own: the imaginary part is v/2 of the real one
            assert abs(got.real - ref.real) <= 1e-15 * abs(ref.real)
            assert abs(got.imag - mp.im(ref)) <= 1e-15 * abs(mp.im(ref))


class TestMultifreqRates:
    def test_single_frequency_reduces(self):
        """One frequency gives g^2 a2 (2/a^2 - sin(2 a t)/(a^3 t)) at a = eps - delta,
        and the same with b2 at a = eps + delta."""
        eps, delta, t, g = 0.9, 1.1, 15.0, 1e-3
        gc, gh = an.multifreq_rates(eps, [delta], t, g, 0.3, 0.7)
        for rate, a2, a in ((gc, 0.3, eps - delta), (gh, 0.7, eps + delta)):
            ref = g * g * a2 * (2.0 / a**2 - math.sin(2.0 * a * t) / (a**3 * t))
            assert rate == pytest.approx(ref, rel=1e-12)

    def test_equal_frequencies_reduce(self):
        one = an.multifreq_rates(0.9, [1.1], 15.0, 1e-3, 1.0, 1.0)
        many = an.multifreq_rates(0.9, [1.1] * 5, 15.0, 1e-3, 1.0, 1.0)
        assert one[0] == pytest.approx(many[0])

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError):
            an.multifreq_rates(0.9, [], 15.0, 1e-3, 1.0, 1.0)

    def test_grid_sum_converges_to_continuum(self):
        theta, t, g = math.pi / 3, 50.0, 1e-3
        eps_m, eps_max = band_edges(theta)
        cc, ch, _ = an.continuum_rates(0.9, theta, t, g)
        prev_gap = None
        for r in (25, 50, 100):
            deltas = [eps_m + (eps_max - eps_m) / r * (i - 0.5)
                      for i in range(1, r + 1)]
            gc, gh = (rate.mean() for rate in lorentzian_rates(0.9, np.array(deltas), t, g,
                                                               1.0, 1.0))
            gap = abs(gc / cc - 1.0)
            assert gap <= 1.0 / r  # first-order Riemann-sum envelope
            assert abs(gh / ch - 1.0) <= 1.0 / r
        # and at R = 100, t = 50 the match is within 2%
        assert abs(gc / cc - 1.0) <= 0.02


class TestContinuumRates:
    def test_beta_range_in_resolved_regime(self):
        theta, t = math.pi / 3, 200.0
        for eps in np.linspace(0.45, 1.3, 9):
            *_, beta = an.continuum_rates(float(eps), theta, t, 1e-3)
            val = math.sqrt(1.5) * beta
            assert math.pi / 2 - 0.1 <= val <= math.pi + 1e-9

    def test_beta_small_bandwidth_limit(self):
        theta, t = 0.76, 0.01  # (eps_M - eps_m) t << 1
        eps_m, eps_max = band_edges(theta)
        *_, beta = an.continuum_rates(1.0, theta, t, 1e-3)
        assert beta == pytest.approx(2.0 / 3.0 * t * (eps_max - eps_m), rel=1e-3)

    def test_relative_energy_identity(self):
        # 2 gamma_h / gamma_c * (eps_M + eps)/2 equals the compact estimate
        # (eps_M - eps_m)/(beta (eps_m + eps) t) as an exact identity
        theta, t, g = math.pi / 3, 50.0, 1e-3
        eps_m, eps_max = band_edges(theta)
        for eps in (0.5, 0.9, 1.2):
            gc, gh, beta = an.continuum_rates(eps, theta, t, g)
            lhs = 2 * gh / gc * (eps_max + eps) / 2.0
            rhs = (eps_max - eps_m) / (beta * (eps_m + eps) * t)
            assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_degenerate_band_raises(self):
        for theta in (0.0, math.pi / 2, math.pi):
            with pytest.raises(DegenerateBand):
                an.continuum_rates(1.0, theta, 10.0, 1e-3)

    @pytest.mark.parametrize("theta", [2.0, -1.0, 3.6])
    def test_rates_and_plan_outside_the_first_quadrant(self, theta):
        """Where sin 2 theta < 0 the band is that of theta's image, so are the
        continuum rates and the cooling plan."""
        image = abs(math.remainder(theta, math.pi))
        eps = np.linspace(0.5, 1.2, 5)
        for rate, rate_image in zip(an.continuum_rates(eps, theta, 50.0, 1e-3),
                                    an.continuum_rates(eps, image, 50.0, 1e-3), strict=True):
            assert rate == pytest.approx(rate_image, rel=1e-13)
        assert dataclasses.astuple(an.gs_cooling_plan(40, theta)) == pytest.approx(
            dataclasses.astuple(an.gs_cooling_plan(40, image)), rel=1e-13)


class TestLindbladSteady:
    """`steady_energy` on the averaged Lindbladian's rates: P = gamma_c and
    Q = gamma_h, with depolarizing noise as pad = 2 kappa t."""

    def test_pure_cooling(self):
        e_val = an.steady_energy(0.8, 1.0, 0.0)
        assert e_val == pytest.approx(-0.8)
        # F_k = m_k^2 with m_k = (1 - E/eps)/2 the single-mode ground population
        assert ((1.0 - e_val / 0.8) / 2.0) ** 2 == pytest.approx(1.0)

    def test_balanced_rates(self):
        e_val = an.steady_energy(0.8, 0.5, 0.5)
        assert e_val == pytest.approx(0.0) and (e_val + 0.8) / 0.8 == pytest.approx(1.0)

    def test_noise_dominated(self):
        """The exact rational to 1e-15: the pad enters only the denominator, so
        no (gh + kappa t) - (gc + kappa t) cancellation loses the numerator."""
        gc, gh, kappa_t, eps = 1e-8, 1e-9, 10.0, 0.8
        e_val = float(an.steady_energy(eps, gc, gh, pad=2.0 * kappa_t))
        fr = [Fraction(v) for v in (gc, gh, kappa_t, eps)]
        exact = fr[3] * (fr[1] - fr[0]) / (fr[0] + fr[1] + 2 * fr[2])
        assert abs(Fraction(e_val) - exact) <= Fraction(1, 10 ** 15) * abs(exact)
        assert (e_val + eps) / eps == pytest.approx(1.0, abs=1e-8)

    def test_all_zero_raises(self):
        with pytest.raises(UndefinedSteadyState):
            an.steady_energy(0.8, 0.0, 0.0)


class TestSteadyEnergies:
    def test_general_limits(self):
        assert an.steady_energy(1.0, 100.0, 1e-12) == pytest.approx(-1.0, abs=1e-9)
        with pytest.raises(UndefinedSteadyState):
            an.steady_energy(1.0, 0.0, 0.0)

    def test_local_reduction(self):
        # nn = 0 with unit couplings: |A| = |B| = 1
        x, y = 0.5, 0.2j
        a, b = np.exp(0.3j), 1j * np.exp(0.3j)
        e1 = an.steady_energy(0.9, abs(a * x) ** 2, abs(b * y) ** 2)
        e2 = 0.9 * (-abs(x) ** 2 + abs(y) ** 2) / (abs(x) ** 2 + abs(y) ** 2)
        assert e1 == pytest.approx(e2, abs=1e-14)

    def test_matches_oracle_across_modes(self):
        p = ModelParams(40, math.pi / 3)
        scheme = CouplingScheme.local(1.0, 1.0, 1e-4)
        bath = BathSpec(1.0, 20.0)
        for k in range(1, 20, 3):
            blk = block_hamiltonian(p, scheme, bath, k=k)
            eps, _, a, b = mode_values(p, scheme, k)
            rho, _ = fock.steady_state(fock.exact_cycle_map(blk, 20.0))
            e_exact, _ = fock.block_energy(rho, eps, blk.weight)
            x, y = an.overlap_coeffs(eps, 1.0, 20.0, 1e-4)
            pred = float(an.steady_energy(eps, abs(a * x) ** 2, abs(b * y) ** 2))
            assert abs(e_exact - pred) <= 0.01 * abs(pred)

    @pytest.mark.parametrize("nn,lam,mu", [
        (0.5, {0: 1.0, 1: 1.0}, {0: 0.53, 1: -0.53}),
        (1.5, {-1: 0.2, 0: 1.0, 1: 0.4, 2: -0.3}, {-1: 0.0, 0: 0.1, 1: 0.0, 2: 0.2}),
    ])
    def test_half_integer_ranges_match_oracle(self, nn, lam, mu):
        """Half-integer coupling ranges wired end to end: closed-form steady
        energies against the exact engine at weak coupling."""
        p = ModelParams(24, 1.1)
        scheme = CouplingScheme(nn=nn, lam=lam, mu=mu, g=1e-4)
        bath = BathSpec(0.9, 15.0)
        for k in (2, 7, 11):
            blk = block_hamiltonian(p, scheme, bath, k=k)
            eps, _, a, b = mode_values(p, scheme, k)
            rho, _ = fock.steady_state(fock.exact_cycle_map(blk, 15.0))
            e_exact, _ = fock.block_energy(rho, eps, blk.weight)
            x, y = an.overlap_coeffs(eps, 0.9, 15.0, 1e-4)
            pred = float(an.steady_energy(eps, abs(a * x) ** 2, abs(b * y) ** 2))
            assert abs(e_exact - pred) <= 0.01 * abs(pred)

    def test_noisy_reduces_and_saturates(self):
        p, q = 0.25, 0.04  # |x|^2 and |y|^2 at x = 0.5, y = 0.2i
        base = an.steady_energy(0.9, p, q)
        # pad = 2 kappa t at t = 10: kappa = 0 and kappa = 100
        assert an.steady_energy(0.9, p, q, pad=0.0) == pytest.approx(float(base))
        assert abs(an.steady_energy(0.9, p, q, pad=2000.0)) < 1e-3

    def test_noisy_matches_oracle(self):
        p = ModelParams(40, math.pi / 3)
        g = 1e-4
        kappa = 0.1 * g * g
        scheme = CouplingScheme.local(1.0, 1.0, g)
        bath = BathSpec(1.0, 20.0)
        for k in (3, 10, 17):
            blk = block_hamiltonian(p, scheme, bath, k=k)
            eps, _, a, b = mode_values(p, scheme, k)
            rho, _ = fock.steady_state(fock.exact_cycle_map(blk, 20.0, kappa))
            e_exact, _ = fock.block_energy(rho, eps, blk.weight)
            x, y = an.overlap_coeffs(eps, 1.0, 20.0, g)
            pred = float(an.steady_energy(eps, abs(a * x) ** 2, abs(b * y) ** 2,
                                          pad=2.0 * kappa * 20.0))
            assert abs(e_exact - pred) <= 0.03 * abs(pred)

    def test_dsp_local_unit_couplings_vanish(self):
        p = ModelParams(12, 0.9)
        scheme = CouplingScheme.local(1.0, 1.0, 1.0)
        a, b = an.coupling_arrays(scheme, p)
        e = an.steady_energy(1.0, np.abs(a) ** 2, np.abs(b) ** 2)
        assert np.max(np.abs(e)) < 1e-12

    def test_dsp_lambda_only(self):
        p = ModelParams(12, 0.9)
        scheme = CouplingScheme.local(1.0, 0.0, 1.0)
        _, eps, phi, _ = an.mode_grid(p)
        a, b = an.coupling_arrays(scheme, p)
        e = an.steady_energy(eps, np.abs(a) ** 2, np.abs(b) ** 2)
        assert np.allclose(e, -eps * np.cos(2 * phi), atol=1e-12)

    def test_dsp_product_state_bound(self):
        """Sum of local-coupling DSP energies never beats -N sin(theta)/2."""
        for theta in (0.2, math.pi / 4, 1.1, math.pi / 2):
            p = ModelParams(24, theta)
            _, eps, _, wts = an.mode_grid(p)
            for lam0 in (1.0, 0.7, 0.2):
                for mu0 in (0.0, 0.4, 1.0):
                    if lam0 == mu0 == 0.0:
                        continue
                    scheme = CouplingScheme.local(lam0, mu0, 1.0)
                    a, b = an.coupling_arrays(scheme, p)
                    e = an.steady_energy(eps, np.abs(a) ** 2, np.abs(b) ** 2)
                    total = float(np.sum(wts * e))
                    assert total >= -p.N * math.sin(theta) / 2 - 1e-9

    def test_finite_env_reduces_at_zero_coupling(self):
        p, q = 0.25, 0.04
        base = float(an.steady_energy(0.9, p, q))
        # kappa' = 0: the environment's overlaps, and so its weights, vanish
        e = float(an.steady_energy(0.9, p, q, env=(0.0, 0.0, 0.5)))
        assert e == pytest.approx(base, abs=1e-14)

    def test_finite_env_sign_flip(self):
        """A dominant fully-excited environment flips the steady energy sign."""
        bath = (1e-12, 1e-14)  # P, Q: A = B = 1, x = 1e-6, y = 1e-7
        env = (0.25, 0.3 ** 2 * 0.05 ** 2)  # P_e, Q_e: A_e = 1, x_e = 0.5, B_e = 0.3, y_e = 0.05
        cold = float(an.steady_energy(0.9, *bath, env=(*env, 1.0)))
        hot = float(an.steady_energy(0.9, *bath, env=(*env, -1.0)))
        assert cold < 0 < hot
        assert hot == pytest.approx(-cold, rel=1e-6)

    def test_finite_env_matches_oracle(self):
        p = ModelParams(12, 1.0)
        g = 0.1
        scheme = CouplingScheme.local(1.0, 0.0, g)
        bath = BathSpec(0.9, 3.0)
        env = an.NoiseSpec.finite_env(g / 10.0, 0.5, -0.5)
        for k in (2, 4):
            blk = block_hamiltonian(p, scheme, bath, k=k, env=env)
            eps, phi, a, b = mode_values(p, scheme, k)
            rho, _ = fock.steady_state(fock.exact_cycle_map(blk, 3.0))
            e_exact, _ = fock.block_energy(rho, eps, blk.weight)
            x, y = an.overlap_coeffs(eps, bath.delta, 3.0, g)
            xe, ye = an.overlap_coeffs(eps, env.delta_e, 3.0, env.kappa_prime)
            pred = float(an.steady_energy(
                eps, abs(a * x) ** 2, abs(b * y) ** 2,
                env=(abs(math.cos(phi) * xe) ** 2, abs(math.sin(phi) * ye) ** 2,
                     env.p_e)))
            assert abs(e_exact - pred) <= 0.05 * abs(pred)


class TestClosedFormRelativeEnergies:
    @pytest.mark.parametrize("kind", ["single", "randomized", "multifreq"])
    @pytest.mark.parametrize("mode", ["cooling", "dsp"])
    @pytest.mark.parametrize("noise", [an.NoiseSpec.depolarizing(1e-4),
                                       an.NoiseSpec.finite_env(0.01, 0.8, 0.3)],
                             ids=["depolarizing", "finite_env"])
    def test_nan_where_no_closed_form_applies(self, kind, mode, noise):
        """NaN exactly where eps_k = 0, for both kinds of time and for finite
        environments too."""
        p = ModelParams(12, math.pi / 4)  # critical: eps_{N/2} = 0
        _, eps, _, _ = an.mode_grid(p)
        deltas = [0.6, 1.1] if kind == "multifreq" else [1.1]
        e = an.closed_form_relative_energies(p, CouplingScheme.local(1.0, 0.5, 0.05), deltas,
                                             4.3, noise, random_times=kind != "single",
                                             dsp=mode == "dsp")
        assert eps[-1] == 0
        assert np.array_equal(np.isnan(e), eps == 0)

    @pytest.mark.parametrize("random_times", [False, True])
    @pytest.mark.parametrize("noise", [an.NoiseSpec.depolarizing(1e-11),
                                       an.NoiseSpec.finite_env(1e-6, 0.8, 0.3)],
                             ids=["depolarizing", "finite_env"])
    def test_cold_modes_keep_their_relative_precision(self, random_times, noise):
        """e_k has no cancellation: on modes cooled to e_k ~ 1e-5 to 2e-3 it is
        within a few roundings (1e-15 relative) of
        (2 Q + (1 - p_e) P_e + (1 + p_e) Q_e + pad) / D in exact arithmetic on
        the pass's own float weights, where (E_k + eps_k) / eps_k loses
        ~1e-16 / e_k."""
        p = ModelParams(200, math.pi / 3)
        scheme = CouplingScheme.local(1.0, 1.0, 1e-4)
        row = model._mode_row(p.N, p.theta)
        (pw, qw), pad, env = an._chain_pass(row, np.stack(an.coupling_arrays(scheme, p)),
                                            scheme, [1.0], 20.0, noise,
                                            random_times=random_times)[0]
        e = an.closed_form_relative_energies(p, scheme, [1.0], 20.0, noise,
                                             random_times=random_times)
        assert np.min(e) < 2.5e-3
        for k in range(len(e)):
            num = 2 * Fraction(qw[k]) + Fraction(pad)
            den = Fraction(pw[k]) + Fraction(qw[k]) + Fraction(pad)
            if env is not None:
                p_env, q_env, p_e = (Fraction(env[0][k]), Fraction(env[1][k]),
                                     Fraction(env[2]))
                num += (1 - p_e) * p_env + (1 + p_e) * q_env
                den += p_env + q_env
            exact = num / den
            assert abs(float((Fraction(e[k]) - exact) / exact)) <= 1e-15


class TestCycleEstimates:
    def test_unit_case(self):
        n_state, n_energy = an.cycle_estimates(1.0, int(math.e), 1.0)
        assert n_state == pytest.approx(math.log(int(math.e)))
        assert n_energy == pytest.approx(0.0)

    def test_doubling_n_adds_log2(self):
        a, _ = an.cycle_estimates(0.5, 100, 1e-3)
        b, _ = an.cycle_estimates(0.5, 200, 1e-3)
        assert b - a == pytest.approx(math.log(2) / 0.5)

    def test_nonpositive_rate_raises(self):
        with pytest.raises(NoConvergenceRate):
            an.cycle_estimates(0.0, 10, 1e-3)


class TestGsCoolingPlan:
    def test_quartic_total_time(self):
        p1 = an.gs_cooling_plan(100, math.pi / 3)
        p2 = an.gs_cooling_plan(200, math.pi / 3)
        assert p2.total_time / p1.total_time == pytest.approx(16.0, rel=0.05)

    def test_weak_coupling_margin(self):
        plan = an.gs_cooling_plan(100, math.pi / 3)
        assert (plan.g * plan.R * plan.t) ** 2 <= 0.01 + 1e-12

    def test_per_mode_infidelity_scales_inverse_n(self):
        """Along the plan, 1 - F_k = O(1/N): ratio halves when N doubles."""
        vals = {}
        theta = math.pi / 3
        for n in (50, 100, 200):
            plan = an.gs_cooling_plan(n, theta)
            eps_m, eps_max = band_edges(theta)
            deltas = [eps_m + (eps_max - eps_m) / plan.R * (r - 0.5)
                      for r in range(1, plan.R + 1)]
            eps_k = dispersion(theta, n, n // 3)
            gc, gh = an.multifreq_rates(eps_k, deltas, plan.t, plan.g, 1.0, 1.0)
            # pair fidelity F_k = m_k^2, m_k = (1 - E_k/eps_k)/2 the ground population
            f_k = ((1.0 - an.steady_energy(eps_k, gc, gh) / eps_k) / 2.0) ** 2
            vals[n] = 1.0 - float(f_k)
        assert vals[50] / vals[100] == pytest.approx(2.0, rel=0.35)
        assert vals[100] / vals[200] == pytest.approx(2.0, rel=0.35)


class TestCrossTermWeight:
    def test_zero_for_vanishing_b(self):
        assert an.cross_term_weight(1.0, 0.0, 0.9, 1.3) == 0.0

    def test_conjugation_symmetry(self):
        # A conj(B) = conj(B) A: swapping conjugated arguments is the identity
        a, b = 0.7 + 0.2j, -0.3 + 0.5j
        w1 = an.cross_term_weight(a, b, 0.9, 1.3)
        w2 = an.cross_term_weight(np.conj(b), np.conj(a), 0.9, 1.3)
        assert w1 == pytest.approx(w2)

    def test_resonance_raises(self):
        with pytest.raises(ResonantDenominator):
            an.cross_term_weight(1.0, 1.0, 1.0, 1.0)

    def test_negligible_against_accumulated_cooling(self):
        eps, delta, t, g = 1.0, 1.0 + 0.05, 20.0, 1e-4
        gc, _ = an.multifreq_rates(eps, [delta], t, g, 1.0, 1.0)
        w = abs(an.cross_term_weight(1.0, 1j, eps, delta)) * g * g
        assert w < 100 * gc  # L = 100 cycles accumulate


def _cm_env_gap(n_sites, g, schedule):
    """Largest |e_k| gap between CM's exact randomized-time steady report and
    the closed form, at theta = pi/3, local(1, 1, g), delta = 1, t = 20 and
    finite_env(kappa' = g, 0.8, 0.2)."""
    p = ModelParams(n_sites, math.pi / 3)
    scheme = CouplingScheme.local(1.0, 1.0, g)
    bath = BathSpec(1.0, 20.0)
    noise = an.NoiseSpec.finite_env(g, 0.8, 0.2)
    rep = steady_report(p, scheme, bath, schedule, noise=noise, engine="cm")
    e = an.closed_form_relative_energies(p, scheme, schedule_frequencies(schedule, p, bath),
                                         20.0, noise, random_times=True)
    return float(np.nanmax(np.abs(rep.mode_relative_energy - e)))


class TestRandomizedSteadyInvariant:
    @pytest.mark.parametrize("schedule", [{"kind": "randomized", "L": 10},
                                          {"kind": "multifreq", "R": 3}],
                             ids=["randomized", "multifreq"])
    def test_finite_env_closed_form_matches_cm(self, schedule):
        """The random-time closed form with a finite environment misses CM's
        exact steady report by O(g^2): measured 2.8e-3 (randomized) and
        7.2e-3 (multifreq R = 3) at g = 1e-2, 2.5e-4 and 6.6e-4 at g = 3e-3,
        a fall of ~11x for 3.3x in g."""
        gaps = {g: _cm_env_gap(12, g, schedule) for g in (1e-2, 3e-3)}
        for g, gap in gaps.items():
            assert gap <= 100.0 * g * g
        assert gaps[1e-2] / gaps[3e-3] >= 8.0

    def test_randomized_energies_within_5pct(self):
        """Averaged-time exact steady energies against the closed-form rates
        (exact time-average form) across the mode grid."""
        p = ModelParams(40, math.pi / 3)
        g = 1e-4
        scheme = CouplingScheme.local(1.0, 1.0, g)
        bath = BathSpec(1.0, 20.0)
        rt = an.rate_table(p, scheme, [1.0], 20.0)
        for k in (0, 5, 10, 15, 20):
            blk = block_hamiltonian(p, scheme, bath, k=k)
            eps = mode_values(p, scheme, k)[0]
            s = fock.averaged_cycle_map(blk, 20.0)
            rho, _ = fock.steady_state(s)
            _, e_rel = fock.block_energy(rho, eps, blk.weight)
            e_val = an.steady_energy(eps, rt.gamma_c[k], rt.gamma_h[k])
            e_pred = (e_val + eps) / eps
            assert abs(e_rel - e_pred) <= 0.05 * abs(e_pred)
