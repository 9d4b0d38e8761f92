import math

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss
from scipy.linalg import expm

from kelvin import cm, fock
from kelvin.errors import NonUniqueFixedPoint, ResonantDenominator
from kelvin.model import (
    BathSpec,
    CouplingScheme,
    ModelParams,
    NoiseSpec,
    block_hamiltonian,
    mode_grid,
)

import oracles
from oracles import apply_transfer, mode_values


def _maps(blk, t):
    """The transfer on (1, vec gamma) of one block's cycle map at time t, from
    the stacked builder."""
    return next(cm.cycle_maps(blk, [t], t, 0.0))


def _step(transfer, gamma):
    return cm.matrices(transfer @ np.concatenate([[1.0], gamma.reshape(-1)]))


def _fixed(transfer):
    return cm.matrices(cm.fixed_points(transfer[None])[0][0])


class TestEvolveCm:
    """Closed evolution of the joint system+bath CM (noise-free Majorana check)."""

    def test_zero_time(self, small_params, generic_scheme, bath, rng):
        blk = block_hamiltonian(small_params, generic_scheme, bath, k=2)
        g0 = np.diag([0.3, -0.3, 0.5, -0.5]).astype(complex)
        assert np.allclose(oracles.majorana_damping_check(blk, 0.0, 0.0, g0), g0, atol=1e-14)

    def test_diagonal_commutes(self, small_params, bath):
        scheme = CouplingScheme.local(1.0, 1.0, g=0.0)
        blk = block_hamiltonian(small_params, scheme, bath, k=2)
        g0 = np.diag([0.5, -0.5, 0.5, -0.5]).astype(complex)
        assert np.allclose(oracles.majorana_damping_check(blk, 0.0, 3.3, g0), g0, atol=1e-13)

    def test_spectrum_preserved(self, small_params, generic_scheme, bath):
        blk = block_hamiltonian(small_params, generic_scheme, bath, k=2)
        g0 = np.diag([0.5, -0.5, 0.5, -0.5]).astype(complex)
        g1 = oracles.majorana_damping_check(blk, 0.0, 2.2, g0)
        assert np.allclose(np.sort(np.linalg.eigvalsh(g1)),
                           np.sort(np.linalg.eigvalsh(g0)), atol=1e-12)

    @pytest.mark.parametrize("k", [0, 2, 6])
    def test_energies_match_fock_along_evolution(self, k, small_params,
                                                 generic_scheme, bath):
        """The stacked cycle maps, one per time, give the system block of the
        joint CM evolution from (most excited) x (bath vacuum); it tracks the
        exact Fock expectation values on Gaussian states to 1e-10."""
        blk = block_hamiltonian(small_params, generic_scheme, bath, k=k)
        eps = mode_values(small_params, generic_scheme, k)[0]
        fb = fock.second_quantize(blk)
        edge = blk.is_edge
        rho = fock.most_excited_density(edge)
        d_b = 2 if edge else 4
        rho_b = np.zeros((d_b, d_b), dtype=complex)
        rho_b[0, 0] = 1.0
        joint = np.kron(rho, rho_b)
        ts = (0.7, 1.9, 4.1)
        maps = dict(zip(ts, cm.cycle_maps(blk, ts, 0.0, 0.0)))
        for t, u in zip(ts, fb.propagators(ts)):
            out = u @ joint @ u.conj().T
            rho_s = np.trace(out.reshape(fb.d_sys, fb.d_rest, fb.d_sys, fb.d_rest),
                             axis1=1, axis2=3)
            e_fock, _ = fock.block_energy(rho_s, eps, blk.weight)
            g_t = _step(maps[t], cm.most_excited_cm())
            e_cm = cm.cm_energy(g_t, eps, blk.weight)
            assert abs(e_fock - e_cm) < 1e-10


class TestCycleMapCm:
    def test_decoupled_is_rotation(self, small_params, bath):
        scheme = CouplingScheme.local(1.0, 1.0, g=0.0)
        blk = block_hamiltonian(small_params, scheme, bath, k=2)
        g0 = np.array([[0.2, 0.1j], [-0.1j, -0.2]], dtype=complex)
        out = _step(_maps(blk, 2.5), g0)
        assert np.allclose(np.sort(np.linalg.eigvalsh(out)),
                           np.sort(np.linalg.eigvalsh(g0)), atol=1e-12)

    def test_single_cycle_matches_fock(self, small_params, generic_scheme, bath):
        blk = block_hamiltonian(small_params, generic_scheme, bath, k=3)
        eps = mode_values(small_params, generic_scheme, 3)[0]
        s = fock.exact_cycle_map(blk, bath.cycle_time_mean)
        rho = apply_transfer(s, fock.most_excited_density(False))
        e_fock, _ = fock.block_energy(rho, eps, blk.weight)
        gam = _step(_maps(blk, bath.cycle_time_mean), cm.most_excited_cm())
        assert abs(e_fock - cm.cm_energy(gam, eps, blk.weight)) < 1e-10

    @pytest.mark.parametrize("kappa", [0.0, 0.03])
    def test_averaged_cycle_matches_fock(self, kappa):
        """One random-time-averaged cycle of a Gaussian pair state, over seeded
        random pair blocks: Fock's averaged map, reduced to the CM, is CM's
        averaged transfer applied to the CM."""
        rng = np.random.default_rng(27)
        for _ in range(8):
            n = int(rng.choice([8, 10, 12]))
            scheme = CouplingScheme(nn=1, lam={j: float(rng.uniform(-1, 1)) for j in (-1, 0, 1)},
                                    mu={j: float(rng.uniform(-1, 1)) for j in (-1, 0, 1)},
                                    g=10.0 ** rng.uniform(-3.0, 0.0))
            t_mean = float(rng.uniform(0.5, 10.0))
            block = block_hamiltonian(ModelParams(n, float(rng.uniform(0.0, math.pi / 2))), scheme,
                                      BathSpec(float(rng.uniform(0.2, 3.0)), t_mean),
                                      rng.integers(1, n // 2, size=3))
            fock_maps = next(fock.cycle_maps(block, [None], t_mean, kappa))
            cm_maps = next(cm.cycle_maps(block, [None], t_mean, kappa))
            for s_fock, s_cm in zip(fock_maps, cm_maps):
                h = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
                h = h + h.conj().T
                gam = 0.5 * rng.uniform() * h / np.abs(np.linalg.eigvalsh(h)).max()
                rho = apply_transfer(s_fock, oracles.cm_to_density(gam, False))
                assert np.max(np.abs(_step(s_cm, gam) - oracles.density_to_cm(rho))) <= 1e-13

    def test_repeated_application_converges_to_linear_solve(self, small_params,
                                                            generic_scheme, bath):
        blk = block_hamiltonian(small_params, generic_scheme, bath, k=3)
        transfer = _maps(blk, bath.cycle_time_mean)
        target = _fixed(transfer)
        gam = cm.most_excited_cm()
        for _ in range(2000):
            gam = _step(transfer, gam)
        eps = mode_values(small_params, generic_scheme, 3)[0]
        e1 = cm.cm_energy(gam, eps, blk.weight)
        e2 = cm.cm_energy(target, eps, blk.weight)
        assert abs(e1 - e2) < 1e-8

    def test_assembled_blocks_unitary(self, small_params, generic_scheme, bath):
        blk = block_hamiltonian(small_params, generic_scheme, bath, k=3)
        u = oracles.propagators(blk.generator, [1.7])[0]
        assert np.max(np.abs(u @ u.conj().T - np.eye(4))) < 1e-12


class TestSteadyStateCm:
    def test_decoupled_damped_fixed_point_vanishes(self, small_params, bath):
        scheme = CouplingScheme.local(1.0, 1.0, g=0.0)
        blk = block_hamiltonian(small_params, scheme, bath, k=2)
        transfer = _maps(blk, 2.0)
        transfer[1:] *= 0.9  # damps K and c, not the conserved 1
        gam = _fixed(transfer)
        assert np.max(np.abs(gam)) < 1e-12

    def test_decoupled_undamped_is_singular(self, small_params, bath):
        scheme = CouplingScheme.local(1.0, 1.0, g=0.0)
        blk = block_hamiltonian(small_params, scheme, bath, k=2)
        with pytest.raises(NonUniqueFixedPoint):
            _fixed(_maps(blk, 2.0))

    def test_weak_coupling_energy(self):
        from kelvin.analytic import overlap_coeffs, steady_energy
        p = ModelParams(40, 0.8)
        scheme = CouplingScheme.local(1.0, 1.0, 1e-4)
        bath = BathSpec(1.0, 20.0)
        blk = block_hamiltonian(p, scheme, bath, k=7)
        eps, _, a, b = mode_values(p, scheme, 7)
        gam = _fixed(_maps(blk, 20.0))
        x, y = overlap_coeffs(eps, 1.0, 20.0, 1e-4)
        pred = float(steady_energy(eps, abs(a * x) ** 2, abs(b * y) ** 2))
        assert abs(cm.cm_energy(gam, eps, blk.weight) - pred) <= 0.01 * abs(pred)

    @pytest.mark.parametrize("kappa_over_g2", [0.1])
    def test_noisy_fixed_point_matches_fock(self, kappa_over_g2, small_params,
                                            generic_scheme, bath):
        kappa = kappa_over_g2 * generic_scheme.g ** 2
        t = bath.cycle_time_mean
        blk = block_hamiltonian(small_params, generic_scheme, bath, k=3)
        eps = mode_values(small_params, generic_scheme, 3)[0]
        rho, _ = fock.steady_state(fock.exact_cycle_map(blk, t, kappa))
        e_fock, _ = fock.block_energy(rho, eps, blk.weight)
        stack = block_hamiltonian(small_params, generic_scheme, bath, k=[3])
        gam = _fixed(next(cm.cycle_maps(stack, [t], t, kappa))[0])
        assert abs(e_fock - cm.cm_energy(gam, eps, blk.weight)) < 1e-8


class TestFiniteEnvCm:
    def test_zero_coupling_matches_noiseless(self, small_params, generic_scheme, bath):
        env = NoiseSpec.finite_env(0.0, 0.6, 0.4)
        blk_e = block_hamiltonian(small_params, generic_scheme, bath, k=3, env=env)
        blk = block_hamiltonian(small_params, generic_scheme, bath, k=3)
        gam_env = _fixed(_maps(blk_e, 2.0))
        gam = _fixed(_maps(blk, 2.0))
        assert np.max(np.abs(gam_env - gam)) < 1e-12

    def test_unit_pe_equals_doubled_bath_injection(self, small_params, bath):
        """With p_E = 1 and environment couplings/splitting matching the bath,
        environment pair 1 contributes a second injection channel like the
        bath's, and pair 2 a third one through the bath."""
        scheme = CouplingScheme.local(1.0, 0.0, g=0.05)
        k = 3
        env = NoiseSpec.finite_env(scheme.g, bath.delta, 1.0)
        blk = block_hamiltonian(small_params, scheme, bath, k=k, env=env)
        gam = _fixed(_maps(blk, 2.0))
        # reference: the three vacuum injections cut from a dense propagator
        u = expm(-1j * blk.generator * 2.0)
        a_s, a_sb, a_se1, a_se2 = (u[:2, j:j + 2] for j in (0, 2, 4, 6))
        k_s = np.kron(a_s, a_s.conj())
        inj = sum(np.kron(a, a.conj())
                  for a in (a_sb, a_se1, a_se2)) @ cm.vacuum_cm().reshape(-1)
        ref = np.linalg.solve(np.eye(4) - k_s, inj).reshape(2, 2)
        assert np.max(np.abs(gam - ref)) < 1e-12
        # the two injection channels agree up to the bath-E2 channel, which
        # feeds back on the bath block at second order in kappa' t
        kt = env.kappa_prime * 2.0
        assert np.max(np.abs(np.abs(a_sb) - np.abs(a_se1))) < kt * kt

    def test_small_coupling_matches_fock(self, small_params):
        """With both environment pairs injected the CM map is exact, so it
        matches the Fock engine to rounding."""
        g = 0.1
        scheme = CouplingScheme.local(1.0, 0.0, g)
        bath = BathSpec(0.9, 3.0)
        env = NoiseSpec.finite_env(g / 20.0, 0.5, -0.5)
        blk = block_hamiltonian(small_params, scheme, bath, k=2, env=env)
        eps = mode_values(small_params, scheme, 2)[0]
        rho, _ = fock.steady_state(fock.exact_cycle_map(blk, 3.0))
        e_fock, _ = fock.block_energy(rho, eps, blk.weight)
        gam = _fixed(_maps(blk, 3.0))
        e_cm = cm.cm_energy(gam, eps, blk.weight)
        assert abs(e_cm - e_fock) <= 1e-12 * abs(e_fock)

    @pytest.mark.parametrize("kappa", [0.0, 0.05])
    def test_averaged_map_is_the_average_of_fixed_time_maps(self, kappa):
        """The random-time transfer of an environment block, its environment
        injections included, is the 200-node Gauss-Legendre average of the
        block's own fixed-time transfers over [0, 2 t_mean]."""
        block = block_hamiltonian(ModelParams(20, 0.9), CouplingScheme.local(1.0, 1.0, 0.3),
                                  BathSpec(1.0, 2.0), np.array([3]),
                                  env=NoiseSpec.finite_env(0.2, 0.7, 0.1))
        nodes, weights = leggauss(200)
        fixed = np.stack(list(cm.cycle_maps(block, 2.0 * (nodes + 1.0), 2.0, kappa)))
        averaged = next(cm.cycle_maps(block, [None], 2.0, kappa))
        assert np.max(np.abs(averaged - np.tensordot(weights / 2.0, fixed, 1))) <= 1e-13

    @pytest.mark.parametrize("k", [0, 2, 4])
    def test_engines_agree_reading_p_e_from_the_block(self, k):
        """An environment block (N = 8, theta = 0.9) with p_E = 0.6: both
        engines' maps, taken with no noise rate, give the same steady E_k,
        with p_E known only to the block."""
        params = ModelParams(8, 0.9)
        block = block_hamiltonian(params, CouplingScheme.local(1.0, 1.0, 0.2),
                                  BathSpec(1.0, 3.0), np.array([k]),
                                  env=NoiseSpec.finite_env(0.1, 0.8, 0.6))
        _, eps, _, wts = mode_grid(params)
        energy = {}
        for engine in (cm, fock):
            x, _, _ = engine.fixed_points(next(engine.cycle_maps(block, [3.0], 3.0, 0.0)))
            energy[engine] = engine.reduce(np.array([k]), x, wts * eps, 4)[0][0]
        assert abs(energy[cm] - energy[fock]) <= 1e-10 * abs(energy[fock])


class TestPerturbativeBlocks:
    def setup_method(self):
        self.args = dict(epsilon=0.8, delta=1.3, t=2.0)
        self.f, self.p = 0.7 - 0.2j, 1.1 + 0.4j

    def test_zeroth_order_is_rotation(self):
        a0, *_ = oracles.perturbative_blocks(g=0.01, f_k=self.f, p_k=self.p, **self.args)
        t2 = 2 * self.args["t"] * self.args["epsilon"]
        assert np.allclose(a0, [[math.cos(t2), math.sin(t2)],
                                [-math.sin(t2), math.cos(t2)]], atol=1e-14)
        assert np.max(np.abs(a0 @ a0.conj().T - np.eye(2))) < 1e-14

    def test_second_order_residual_scaling(self):
        errs = []
        for g in (2e-2, 1e-2, 5e-3):
            h = oracles.omega_basis_generator(self.args["epsilon"], g,
                                              self.args["delta"], self.f, self.p)
            u = expm(1j * h * 2 * self.args["t"])
            a0, a1, a2, _ = oracles.perturbative_blocks(g=g, f_k=self.f, p_k=self.p,
                                                        **self.args)
            errs.append(np.linalg.norm(u[:2, :2] - (a0 + g * g * a2)))
        # error is O(g^3) or better (it is in fact O(g^4))
        assert errs[1] / errs[0] <= 0.2
        assert errs[2] / errs[1] <= 0.2

    def test_first_order_block_scaling(self):
        errs = []
        for g in (2e-2, 1e-2, 5e-3):
            h = oracles.omega_basis_generator(self.args["epsilon"], g,
                                              self.args["delta"], self.f, self.p)
            u = expm(1j * h * 2 * self.args["t"])
            _, a1, _, _ = oracles.perturbative_blocks(g=g, f_k=self.f, p_k=self.p,
                                                      **self.args)
            errs.append(np.linalg.norm(u[:2, 2:4] - g * a1) / g)
        assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.05)
        assert errs[1] / errs[2] == pytest.approx(4.0, rel=0.05)

    def test_q_positive_on_grid(self, rng):
        count = 0
        while count < 100:
            eps, delta = rng.uniform(0.2, 2.0, 2)
            if abs(eps**2 - delta**2) < 1e-3:
                continue
            f = complex(rng.normal(), rng.normal())
            p = complex(rng.normal(), rng.normal())
            *_, q = oracles.perturbative_blocks(eps, 0.01, delta,
                                                float(rng.uniform(0.5, 8.0)), f, p)
            assert q > 0
            count += 1

    def test_resonant_denominator_raises(self):
        with pytest.raises(ResonantDenominator):
            oracles.perturbative_blocks(1.0, 0.01, 1.0, 2.0, self.f, self.p)

    def test_quadrature_couplings_consistency(self, small_params, generic_scheme):
        """f_k, p_k recovered from (A_k, B_k) match their direct sums."""
        from kelvin.model import coupling_keys
        for k in (1, 3, 5):
            f, p = oracles.quadrature_couplings(small_params, generic_scheme, k)
            phi = mode_values(small_params, generic_scheme, k)[1]
            n = small_params.N
            lam_s = sum(generic_scheme.lam[j] * np.exp(-2j * math.pi * j * k / n)
                        for j in coupling_keys(generic_scheme.nn))
            mu_s = sum(generic_scheme.mu[j] * np.exp(-2j * math.pi * j * k / n)
                       for j in coupling_keys(generic_scheme.nn))
            assert f == pytest.approx(-np.exp(1j * phi) * (lam_s + mu_s), abs=1e-12)
            assert p == pytest.approx(np.exp(-1j * phi) * (lam_s - mu_s), abs=1e-12)


class TestMajoranaDamping:
    def test_noise_matrices(self):
        m, y = oracles.bravyi_noise_matrices(4, 0.3)
        assert np.allclose(m, (0.3 / 4) * np.eye(8), atol=1e-15)
        assert np.max(np.abs(y)) == 0.0

    def test_zero_noise_is_unitary(self, small_params, generic_scheme, bath):
        blk = block_hamiltonian(small_params, generic_scheme, bath, k=2)
        g0 = np.diag([0.5, -0.5, 0.5, -0.5]).astype(complex)
        out = oracles.majorana_damping_check(blk, 0.0, 2.0, g0)
        assert np.allclose(np.sort(np.linalg.eigvalsh(out)),
                           np.sort(np.linalg.eigvalsh(g0)), atol=1e-12)

    def test_long_time_fully_mixes(self, small_params, generic_scheme, bath):
        blk = block_hamiltonian(small_params, generic_scheme, bath, k=2)
        g0 = np.diag([0.5, -0.5, 0.5, -0.5]).astype(complex)
        out = oracles.majorana_damping_check(blk, 1.0, 50.0, g0)
        assert np.max(np.abs(out)) < 1e-12

    def test_matches_noisy_fock_on_gaussian_states(self, small_params,
                                                   generic_scheme, bath):
        """Damped CM evolution of the joint block equals the exact noisy
        propagation of the corresponding Gaussian state."""
        blk = block_hamiltonian(small_params, generic_scheme, bath, k=3)
        fb = fock.second_quantize(blk)
        kappa, t = 0.08, 1.9
        # joint initial state: system most excited x bath vacuum
        rho = np.kron(fock.most_excited_density(False), fock.vacuum_density(False))
        gamma = np.zeros((4, 4), dtype=complex)
        gamma[:2, :2] = cm.most_excited_cm()
        gamma[2:, 2:] = cm.vacuum_cm()
        # exact: joint unitary of the block plus gain/loss on all four modes
        u = fb.propagators([t])[0]
        rho_t = oracles.noise_transfer(4, kappa, t) @ (
            np.kron(u, u.conj()) @ rho.reshape(-1))
        rho_t = rho_t.reshape(16, 16)
        gam_t = oracles.majorana_damping_check(blk, kappa, t, gamma)
        ops = fock.mode_operators(4)
        alpha = [ops[0], ops[1].conj().T, ops[2], ops[3].conj().T]
        for i in range(4):
            for j in range(4):
                mom = 0.5 * np.trace(rho_t @ (alpha[i] @ alpha[j].conj().T
                                              - alpha[j].conj().T @ alpha[i]))
                assert abs(mom - gam_t[i, j]) < 1e-8


class TestConversions:
    def test_density_cm_roundtrip(self, small_params, generic_scheme, bath):
        blk = block_hamiltonian(small_params, generic_scheme, bath, k=3)
        s = fock.exact_cycle_map(blk, 2.2)
        rho = fock.most_excited_density(False)
        for _ in range(5):
            rho = apply_transfer(s, rho)
        gam = oracles.density_to_cm(rho)
        oracles.check_cm_blocks([cm.vacuum_cm(), gam, cm.vacuum_cm()])  # gam as a pair
        rho_back = oracles.cm_to_density(gam, edge=False)
        assert np.max(np.abs(rho_back - rho)) < 1e-12
        oracles.check_density_blocks([fock.vacuum_density(True), rho_back,
                                      fock.vacuum_density(True)])

    def test_fidelity_matches_fock(self, small_params, generic_scheme, bath):
        for k in (0, 3):
            blk = block_hamiltonian(small_params, generic_scheme, bath, k=k)
            s = fock.exact_cycle_map(blk, 2.2)
            rho = fock.most_excited_density(blk.is_edge)
            for _ in range(7):
                rho = apply_transfer(s, rho)
            gam = oracles.density_to_cm(rho)
            assert cm.cm_fidelity(gam, blk.is_edge) == pytest.approx(rho[0, 0].real, abs=1e-12)

    def test_cm_spectrum_stays_bounded(self, small_params, generic_scheme, bath):
        blk = block_hamiltonian(small_params, generic_scheme, bath, k=3)
        transfer = _maps(blk, 2.7)
        gam = cm.most_excited_cm()
        for _ in range(50):
            gam = _step(transfer, gam)
            ev = np.linalg.eigvalsh(gam)
            assert ev.min() >= -0.5 - 1e-10 and ev.max() <= 0.5 + 1e-10
