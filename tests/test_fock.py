import itertools
import math

import numpy as np
import pytest

from kelvin import fock
from kelvin.errors import NonUniqueFixedPoint
from kelvin.fock import mode_operators
from kelvin.model import (
    BathSpec,
    CouplingScheme,
    ModelParams,
    NoiseSpec,
    block_hamiltonian,
    canonicalize_theta,
    coupling_keys,
)

import oracles
from oracles import apply_transfer, choi_min_eig, hamiltonian, mode_values, trace_norm


# ---------------------------------------------------------------------------
# independent constructions used as oracles
# ---------------------------------------------------------------------------

def tilde_basis_pair_hamiltonian(theta, n, scheme, delta, k):
    """Second-quantize the (k, -k) pair directly in the unrotated momentum
    basis, from the 2x2 system block, the flat bath, and the real-space
    coupling Fourier components.  Mode order: (a_k, a_-k, b_k, b_-k)."""
    a_k, a_mk, b_k, b_mk = mode_operators(4)
    w = math.sin(theta) + math.cos(theta) * math.cos(2 * math.pi * k / n)
    r = math.cos(theta) * math.sin(2 * math.pi * k / n)
    eye = np.eye(16)

    def lam_sum(kk):
        return sum(scheme.lam[j] * np.exp(-2j * math.pi * j * kk / n)
                   for j in coupling_keys(scheme.nn))

    def mu_sum(kk):
        return sum(scheme.mu[j] * np.exp(-2j * math.pi * j * kk / n)
                   for j in coupling_keys(scheme.nn))

    h = w * (a_k.conj().T @ a_k + a_mk.conj().T @ a_mk - eye)
    h = h + r * (a_k.conj().T @ a_mk.conj().T + a_mk @ a_k)
    h = h + delta * (b_k.conj().T @ b_k + b_mk.conj().T @ b_mk - eye)
    g = scheme.g
    v = g * lam_sum(k) * (a_k.conj().T @ b_k) \
        + 1j * g * mu_sum(k) * (a_mk @ b_k) \
        + g * lam_sum(-k) * (a_mk.conj().T @ b_mk) \
        + 1j * g * mu_sum(-k) * (a_k @ b_mk)
    h = h + v + v.conj().T
    return h, (a_k, a_mk, b_k, b_mk)


def tilde_basis_edge_hamiltonian(theta, n, scheme, delta, k):
    """Edge-mode (k = 0 or N/2) Hamiltonian in the unrotated basis.

    The Fourier factors e^{-2 pi i j k / N} are (+-1)^j at the zone edges, so
    the coupling sums are real.
    """
    a, b = mode_operators(2)
    w = math.sin(theta) + math.cos(theta) * math.cos(2 * math.pi * k / n)
    lam = sum(scheme.lam[j] * math.cos(2 * math.pi * j * k / n)
              for j in coupling_keys(scheme.nn))
    mu = sum(scheme.mu[j] * math.cos(2 * math.pi * j * k / n)
             for j in coupling_keys(scheme.nn))
    g = scheme.g
    eye = np.eye(4)
    h = w * (a.conj().T @ a - 0.5 * eye) + delta * (b.conj().T @ b - 0.5 * eye)
    v = g * lam * (a.conj().T @ b) + 1j * g * mu * (a @ b)
    return h + v + v.conj().T, (a, b)


def tp_defect(s):
    """Largest deviation of a transfer matrix from trace preservation."""
    vid = np.eye(math.isqrt(len(s))).reshape(-1)
    return np.max(np.abs(vid @ s - vid))


def evolve_and_trace(h, rho_s, rho_b, t, d_sys, d_rest):
    e, v = np.linalg.eigh(h)
    u = (v * np.exp(-1j * e * t)) @ v.conj().T
    joint = np.kron(rho_s, rho_b)
    out = u @ joint @ u.conj().T
    return np.trace(out.reshape(d_sys, d_rest, d_sys, d_rest), axis1=1, axis2=3)


# ---------------------------------------------------------------------------
# second quantization
# ---------------------------------------------------------------------------

class TestSecondQuantize:
    def test_decoupled_spectrum_is_occupation_enumeration(self, small_params, bath):
        scheme = CouplingScheme.local(1.0, 1.0, g=0.0)
        blk = block_hamiltonian(small_params, scheme, bath, k=3)
        fb = fock.second_quantize(blk)
        eps, dl = mode_values(small_params, scheme, 3)[0], bath.delta
        expect = sorted(
            eps * (n1 + n2 - 1) + dl * (m1 + m2 - 1)
            for n1, n2, m1, m2 in itertools.product((0, 1), repeat=4))
        assert np.allclose(np.sort(np.linalg.eigvalsh(hamiltonian(fb))), expect,
                           atol=1e-12)

    def test_edge_decoupled_spectrum(self, small_params, bath):
        scheme = CouplingScheme.local(1.0, 1.0, g=0.0)
        blk = block_hamiltonian(small_params, scheme, bath, k=0)
        fb = fock.second_quantize(blk)
        eps, dl = mode_values(small_params, scheme, 0)[0], bath.delta
        expect = sorted(eps * (n - 0.5) + dl * (m - 0.5)
                        for n, m in itertools.product((0, 1), repeat=2))
        assert np.allclose(np.sort(np.linalg.eigvalsh(hamiltonian(fb))), expect,
                           atol=1e-12)

    @pytest.mark.parametrize("ks, env", [
        (np.arange(1, 6), None), (np.array([0, 6]), None),
        (np.arange(1, 6), NoiseSpec.finite_env(0.02, 0.7, 0.1))], ids=["pairs", "edges", "env"])
    def test_stacked_block_views_are_the_per_mode_maps(self, ks, env, small_params,
                                                        generic_scheme, bath):
        """A stacked ModeBlock keeps every mode through second quantization:
        both one-block views give the per-mode maps, stacked, bit for bit."""
        stack = block_hamiltonian(small_params, generic_scheme, bath, ks, env=env)
        assert fock.second_quantize(stack).blocks.shape[0] == len(ks)
        singles = [block_hamiltonian(small_params, generic_scheme, bath, int(k), env=env)
                   for k in ks]
        kappa = 0.03 if env is None else 0.0
        assert np.array_equal(fock.averaged_cycle_map(stack, 4.3, kappa),
                              np.stack([fock.averaged_cycle_map(b, 4.3, kappa) for b in singles]))
        assert np.array_equal(fock.exact_cycle_map(stack, 2.3, kappa),
                              np.stack([fock.exact_cycle_map(b, 2.3, kappa) for b in singles]))

    def test_hermitian_and_parity_conserving(self, small_params, generic_scheme, bath):
        for k in (0, 2, 6):
            fb = fock.second_quantize(
                block_hamiltonian(small_params, generic_scheme, bath, k=k))
            h = hamiltonian(fb)
            assert np.max(np.abs(h - h.conj().T)) < 1e-12
            par = np.diag([(-1.0) ** bin(i).count("1") for i in range(h.shape[0])])
            assert np.max(np.abs(h @ par - par @ h)) < 1e-12

    @pytest.mark.parametrize("k", [1, 3, 5])
    def test_pair_block_matches_unrotated_construction(self, k, generic_scheme, bath):
        """The Bogoliubov-frame block is unitarily equivalent to the pair
        Hamiltonian built independently in the unrotated momentum basis, and
        generates identical cooling dynamics."""
        theta, n = 0.7, 12
        p = ModelParams(n, theta)
        blk = block_hamiltonian(p, generic_scheme, bath, k=k)
        eps, phi, _, _ = mode_values(p, generic_scheme, k)
        fb = fock.second_quantize(blk)
        h_tilde, (a_k, a_mk, _, _) = tilde_basis_pair_hamiltonian(
            theta, n, generic_scheme, bath.delta, k)

        assert np.allclose(np.sort(np.linalg.eigvalsh(hamiltonian(fb))),
                           np.sort(np.linalg.eigvalsh(h_tilde)), atol=1e-11)

        # dynamics check: evolve the unrotated vacuum |0000> in both frames
        # and compare the quasiparticle pair energy after every cycle.  The
        # pair Hamiltonian acts on the first two tensor factors only, so it
        # restricts exactly to the system block.
        ahat_k = math.cos(phi) * a_k + math.sin(phi) * a_mk.conj().T
        ahat_mk = math.cos(phi) * a_mk - math.sin(phi) * a_k.conj().T
        h_pair = eps * (ahat_k.conj().T @ ahat_k + ahat_mk.conj().T @ ahat_mk - np.eye(16))
        h_sys = np.trace(h_pair.reshape(4, 4, 4, 4), axis1=1, axis2=3) / 4.0
        assert np.max(np.abs(h_pair - np.kron(h_sys, np.eye(4)))) < 1e-12

        rho_t = np.zeros((4, 4), dtype=complex)
        rho_t[0, 0] = 1.0  # unrotated vacuum, system factor
        # the same state in the Bogoliubov frame: Gaussian with occupation
        # sin^2 phi per mode and pairing <a_k a_-k> = -sin phi cos phi
        s, c = math.sin(phi), math.cos(phi)
        gamma = np.array([[0.5 - s * s, -s * c], [-s * c, s * s - 0.5]],
                         dtype=complex)
        rho_h = oracles.cm_to_density(gamma, edge=False)
        assert np.trace(rho_h @ np.diag([-1.0, 0, 0, 1.0])).real * eps == \
            pytest.approx(np.trace(rho_t @ h_sys).real, abs=1e-12)

        s_map = fock.exact_cycle_map(fb, 2.1)
        rho_b = np.zeros((4, 4), dtype=complex)
        rho_b[0, 0] = 1.0
        for _ in range(4):
            rho_h = apply_transfer(s_map, rho_h)
            rho_t = evolve_and_trace(h_tilde, rho_t, rho_b, 2.1, 4, 4)
            e_h, _ = fock.block_energy(rho_h, eps, blk.weight)
            e_t = np.real(np.trace(rho_t @ h_sys))
            assert e_h == pytest.approx(e_t, abs=1e-10)

    @pytest.mark.parametrize("theta", [0.5, 1.0])
    @pytest.mark.parametrize("k_frac", [0.0, 0.5])
    def test_edge_block_matches_unrotated_construction(self, theta, k_frac,
                                                       generic_scheme, bath):
        """Edge modes: the doubled-basis block reproduces the map built from
        the real-space coupling in the unrotated frame, for both Bogoliubov
        branches (phi = 0 and phi = pi/2)."""
        n = 12
        k = int(k_frac * n)
        p = ModelParams(n, theta)
        blk = block_hamiltonian(p, generic_scheme, bath, k=k)
        s_map = fock.exact_cycle_map(blk, bath.cycle_time_mean)

        h_tilde, _ = tilde_basis_edge_hamiltonian(theta, n, generic_scheme,
                                                  bath.delta, k)
        flipped = mode_values(p, generic_scheme, k)[1] > 1.0  # phi = pi/2 branch: hatted mode is the hole
        rho_t = np.diag([0.0, 1.0]).astype(complex) if flipped \
            else np.diag([1.0, 0.0]).astype(complex)
        rho_h = np.diag([1.0, 0.0]).astype(complex)
        rho_b = np.diag([1.0, 0.0]).astype(complex)
        for _ in range(5):
            rho_h = apply_transfer(s_map, rho_h)
            rho_t = evolve_and_trace(h_tilde, rho_t, rho_b, bath.cycle_time_mean, 2, 2)
            n_h = rho_h[1, 1].real
            n_t = rho_t[1, 1].real
            expect = 1.0 - n_t if flipped else n_t
            assert n_h == pytest.approx(expect, abs=1e-11)


# ---------------------------------------------------------------------------
# parity superselection: the invariant the engine's parity blocks rest on
# ---------------------------------------------------------------------------

def _dense_hamiltonian(block):
    """H = alpha^dag h alpha of one block on the Fock basis, from dense
    Jordan-Wigner products summed in (i, j) order."""
    dim = block.h_sb.shape[-1]
    edge = bool(block.is_edge)
    ops = [a.real for a in mode_operators(dim // 2 if edge else dim)]  # real matrices
    alpha = [x for a in ops for x in (a, a.T)] if edge else \
        [x for p in range(dim // 2) for x in (ops[2 * p], ops[2 * p + 1].T)]
    h = np.zeros(ops[0].shape, dtype=complex)
    for (i, a_i), (j, a_j) in itertools.product(enumerate(alpha), repeat=2):
        h = h + block.h_sb[i, j] * (a_i.T @ a_j)
    return h


def _parity(d):
    return np.array([bin(i).count("1") % 2 for i in range(d)])


def _dense_cycle_map(block, t, kappa):
    """Transfer matrix on row-major vec(rho) of one cycle of a block, from
    the dense H: e^{-iHt} on the joint state, or, with gain/loss noise of
    rate kappa on every mode, the joint Lindbladian exponentiated, then the
    partial trace over the rest (bath vacuum, environments at p_E)."""
    from scipy.linalg import expm

    h = _dense_hamiltonian(block)
    d = len(h)
    ds = 2 if block.is_edge else 4
    dr = d // ds
    p_env = (1.0 - block.env.p_e) / 2.0 if block.env is not None else 0.0
    rest = np.ones(1)
    for m in range(round(math.log2(dr))):
        rest = np.kron(rest, [1.0, 0.0] if 2**m < ds else [1.0 - p_env, p_env])
    if kappa == 0.0:
        u = expm(-1j * t * h)

        def step(joint):
            return u @ joint @ u.conj().T
    else:
        eye = np.eye(d)
        liou = -1j * (np.kron(h, eye) - np.kron(eye, h.T))
        for a in mode_operators(round(math.log2(d))):
            for o in (a, a.conj().T):
                n_op = o.conj().T @ o
                liou += kappa * (np.kron(o, o.conj())
                                 - 0.5 * (np.kron(n_op, eye) + np.kron(eye, n_op.T)))
        prop = expm(t * liou)

        def step(joint):
            return (prop @ joint.reshape(-1)).reshape(d, d)
    cols = []
    for m, n in itertools.product(range(ds), repeat=2):
        unit = np.zeros((ds, ds))
        unit[m, n] = 1.0
        out = step(np.kron(unit, np.diag(rest)))
        cols.append(np.trace(out.reshape(ds, dr, ds, dr), axis1=1, axis2=3).reshape(-1))
    return np.array(cols).T


_NN2 = CouplingScheme(nn=2, lam={-2: 0.1, -1: 0.3, 0: 1.0, 1: -0.7, 2: 0.2},
                      mu={-2: -0.3, -1: 0.2, 0: 0.5, 1: 0.9, 2: 0.4}, g=0.25)
_ENV = NoiseSpec.finite_env(0.02, 0.7, 0.1).env
# (k, dsp, env, nn = 2) on a 12-site chain
_SUPERSELECTION_BLOCKS = {
    "pair": (2, False, None, False), "edge0": (0, False, None, False),
    "edgeN2": (6, False, None, False), "env_pair": (3, False, _ENV, False),
    "env_edge": (0, False, _ENV, False), "dsp": (4, True, None, False),
    "nn2_pair": (5, False, None, True), "nn2_edge": (6, False, None, True),
}


def _superselection_block(case, generic_scheme, bath):
    k, dsp, env, nn2 = _SUPERSELECTION_BLOCKS[case]
    return block_hamiltonian(ModelParams(12, 0.7), _NN2 if nn2 else generic_scheme, bath, k,
                             env=env, dsp=dsp)


class TestParitySuperselection:
    """Every block Hamiltonian is quadratic, so it keeps the fermion parity:
    the engine holds H as its even and odd blocks, and its cycle maps as
    their physical sector, because nothing couples the parities."""

    @pytest.mark.parametrize("case", _SUPERSELECTION_BLOCKS)
    def test_hamiltonian_blocks_are_the_whole_hamiltonian(self, case, generic_scheme, bath):
        blk = _superselection_block(case, generic_scheme, bath)
        h = _dense_hamiltonian(blk)
        par = _parity(len(h))
        assert np.all(h[np.not_equal.outer(par, par)] == 0.0)
        blocks = fock._hamiltonians(blk)[0]
        for q in (0, 1):
            states = np.flatnonzero(par == q)
            assert np.array_equal(blocks[q], h[np.ix_(states, states)]), q

    @pytest.mark.parametrize("case", _SUPERSELECTION_BLOCKS)
    def test_parity_block_eigh_rebuilds_the_hamiltonian(self, case, generic_scheme, bath):
        blk = _superselection_block(case, generic_scheme, bath)
        h = _dense_hamiltonian(blk)
        par = _parity(len(h))
        e, v = fock.second_quantize(blk).eig()
        rebuilt = (v * e[:, None, :]) @ v.conj().swapaxes(-1, -2)
        for q in (0, 1):
            states = np.flatnonzero(par == q)
            gap = np.max(np.abs(rebuilt[q] - h[np.ix_(states, states)]))
            assert gap <= 1e-14 * np.linalg.norm(h, 2), q

    @pytest.mark.parametrize("case, kappa", [
        ("pair", 0.0), ("pair", 0.03), ("edge0", 0.03), ("dsp", 0.03), ("nn2_pair", 0.03),
        ("env_pair", 0.0), ("env_edge", 0.0)])
    def test_cycle_maps_do_not_mix_the_sectors(self, case, kappa, generic_scheme, bath):
        """The dense joint evolution, with or without gain/loss noise and
        environments, maps the physical sector and the coherences each into
        themselves, and the engine's map is its physical block."""
        blk = _superselection_block(case, generic_scheme, bath)
        dense = _dense_cycle_map(blk, 2.3, kappa)
        ds = math.isqrt(len(dense))
        par = _parity(ds)
        phys = np.flatnonzero(np.equal.outer(par, par))
        coh = np.flatnonzero(np.not_equal.outer(par, par))
        assert np.max(np.abs(dense[np.ix_(phys, coh)])) <= 1e-15
        assert np.max(np.abs(dense[np.ix_(coh, phys)])) <= 1e-15
        engine = fock.exact_cycle_map(blk, 2.3, kappa)
        assert np.max(np.abs(engine - oracles.physical_sector(dense))) <= 1e-12


class TestAveragedMapOracle:
    """`averaged_cycle_map` builds the physical sector of the random-time
    average alone, one contraction per parity block of the eigenvectors;
    the physical sector of the whole-operator-space construction
    (`oracles.full_space_averaged_map`) must give the same map."""

    @pytest.mark.parametrize("draw", range(48))
    def test_sectors_match_the_full_space_average(self, draw):
        rng = np.random.default_rng([2024, draw])
        nn = draw % 3
        keys = coupling_keys(nn)
        scheme = CouplingScheme(nn=nn, lam={j: rng.uniform(-1, 1) for j in keys},
                                mu={j: rng.uniform(-1, 1) for j in keys},
                                g=float(np.exp(rng.uniform(math.log(1e-6), math.log(0.3)))))
        params = ModelParams(12, rng.uniform(0.0, math.pi / 2))
        bath = BathSpec(rng.uniform(0.3, 2.0), rng.uniform(0.5, 20.0))
        k = (0, int(rng.integers(1, 6)), 6)[(draw // 3) % 3]  # edges and pairs
        kappa = float(np.exp(rng.uniform(math.log(1e-6), math.log(0.1)))) if draw % 2 else 0.0
        fb = fock.second_quantize(block_hamiltonian(params, scheme, bath, k,
                                                    dsp=bool(rng.integers(2))))
        new = fock.averaged_cycle_map(fb, bath.cycle_time_mean, kappa)
        ref = oracles.physical_sector(
            oracles.full_space_averaged_map(fb, bath.cycle_time_mean, kappa))
        assert new.shape == ref.shape
        assert np.max(np.abs(new - ref)) <= 1e-15


# ---------------------------------------------------------------------------
# cycle maps
# ---------------------------------------------------------------------------

class TestExactCycleMap:
    def test_zero_time_is_identity(self, small_params, generic_scheme, bath):
        blk = block_hamiltonian(small_params, generic_scheme, bath, k=2)
        s = fock.exact_cycle_map(blk, 0.0)
        assert np.allclose(s, np.eye(8), atol=1e-12)

    def test_decoupled_preserves_populations(self, small_params, bath, rng):
        scheme = CouplingScheme.local(1.0, 1.0, g=0.0)
        blk = block_hamiltonian(small_params, scheme, bath, k=2)
        s = fock.exact_cycle_map(blk, 3.7)
        pops = rng.dirichlet(np.ones(4))
        rho = np.diag(pops).astype(complex)
        assert np.allclose(apply_transfer(s, rho), rho, atol=1e-12)

    def test_negative_time_rejected(self, small_params, generic_scheme, bath):
        blk = block_hamiltonian(small_params, generic_scheme, bath, k=2)
        with pytest.raises(ValueError):
            fock.exact_cycle_map(blk, -1.0)

    def test_trace_preserving_and_cp(self, rng, bath):
        """The sector map S, embedded with zero coherences, is S o P with P
        the parity pinching, a channel whenever S is one on the sector."""
        for _ in range(25):
            p = ModelParams(10, float(rng.uniform(0, math.pi / 2)))
            scheme = CouplingScheme.local(float(rng.uniform(-1, 1)),
                                          float(rng.uniform(-1, 1)),
                                          float(rng.uniform(0, 0.5)))
            k = int(rng.integers(0, 6))
            t = float(rng.uniform(0, 10))
            s = oracles.embed_sector(
                fock.exact_cycle_map(block_hamiltonian(p, scheme, bath, k=k), t))
            assert tp_defect(s) <= 1e-10
            assert choi_min_eig(s) >= -1e-9

    def test_resonant_averaged_steady_energy(self):
        """Randomized-time steady state at exact resonance: the closed-form
        limit gives e = 2 gamma_h / (gamma_c + gamma_h) with
        gamma_c = (4/3) g^2 t^2, which evaluates to 3/(4 (Delta t)^2) up to
        the small heating correction; tolerance 20%."""
        p = ModelParams(200, math.pi / 3)
        scheme = CouplingScheme.local(1.0, 1.0, 1e-4)
        bath = BathSpec(1.0, 20.0)
        blk = block_hamiltonian(p, scheme, bath, k=50)
        s = fock.averaged_cycle_map(blk, 20.0)
        rho, _ = fock.steady_state(s)
        _, e_rel = fock.block_energy(rho, mode_values(p, scheme, 50)[0], blk.weight)
        assert abs(e_rel - 3.0 / (4.0 * 400.0)) <= 0.2 * 3.0 / (4.0 * 400.0)

    def test_concatenation_matches_product(self, small_params, generic_scheme, bath):
        blk = block_hamiltonian(small_params, generic_scheme, bath, k=2)
        s1 = fock.exact_cycle_map(blk, 1.2)
        s2 = fock.exact_cycle_map(blk, 2.9)
        rho = fock.most_excited_density(False)
        step = apply_transfer(s2, apply_transfer(s1, rho))
        assert np.max(np.abs(apply_transfer(s2 @ s1, rho) - step)) < 1e-12


class TestNoisyCycleMap:
    def test_zero_noise_reduces_to_exact(self, small_params, generic_scheme, bath):
        blk = block_hamiltonian(small_params, generic_scheme, bath, k=2)
        a = fock.exact_cycle_map(blk, 2.0, 0.0)
        b = fock.exact_cycle_map(blk, 2.0)
        assert np.allclose(a, b, atol=1e-13)

    def test_strong_noise_depolarizes(self, small_params, generic_scheme, bath):
        blk = block_hamiltonian(small_params, generic_scheme, bath, k=2)
        s = fock.exact_cycle_map(blk, 2.0, kappa=50.0)
        rho, _ = fock.steady_state(s)
        assert np.allclose(rho, np.eye(4) / 4, atol=1e-8)
        e_val, e_rel = fock.block_energy(rho, mode_values(small_params, generic_scheme, 2)[0],
                                         blk.weight)
        assert abs(e_val) < 1e-8 and abs(e_rel - 1.0) < 1e-8

    def test_negative_kappa_rejected(self, small_params, generic_scheme, bath):
        blk = block_hamiltonian(small_params, generic_scheme, bath, k=2)
        with pytest.raises(ValueError):
            fock.exact_cycle_map(blk, 1.0, -0.1)

    def test_environment_block_rejected(self, small_params, generic_scheme, bath):
        env = NoiseSpec.finite_env(0.02, 0.7, 0.1)
        blk = block_hamiltonian(small_params, generic_scheme, bath, k=2, env=env)
        with pytest.raises(ValueError):
            fock.exact_cycle_map(blk, 1.0, 0.01)
        with pytest.raises(ValueError):
            fock.averaged_cycle_map(blk, 1.0, 0.01)

    @pytest.mark.parametrize("k", [0, 2])
    def test_factorized_equals_joint_liouvillian(self, k, small_params,
                                                 generic_scheme, bath):
        blk = block_hamiltonian(small_params, generic_scheme, bath, k=k)
        gap = oracles.noise_factorization_gap(blk, kappa=0.03, t=2.7)
        assert gap <= 1e-8

    def test_noise_order_independence(self, small_params, generic_scheme, bath):
        """On physical (parity-diagonal) states, pre-mixing bath and system
        (noise first) equals running the pure-bath cycle and applying the
        noise channel afterwards."""
        blk = block_hamiltonian(small_params, generic_scheme, bath, k=3)
        fb = fock.second_quantize(blk)
        t, kappa = 2.7, 0.03
        first = fock.exact_cycle_map(fb, t, kappa)
        noise = oracles.physical_sector(oracles.noise_transfer(fb.n_sys_modes, kappa, t))
        assert np.max(np.abs(first - noise @ fock.exact_cycle_map(fb, t))) < 1e-10


class TestFiniteEnvironmentMap:
    def test_zero_coupling_equals_exact(self, small_params, generic_scheme, bath):
        env = NoiseSpec.finite_env(0.0, 0.8, 0.3)
        blk_e = block_hamiltonian(small_params, generic_scheme, bath, k=2, env=env)
        blk = block_hamiltonian(small_params, generic_scheme, bath, k=2)
        a = fock.exact_cycle_map(blk_e, 2.0)
        b = fock.exact_cycle_map(blk, 2.0)
        assert np.max(np.abs(a - b)) < 1e-12

    def test_quadratic_noise_scaling(self):
        p = ModelParams(12, 1.0)
        g = 0.1
        scheme = CouplingScheme.local(1.0, 0.0, g)
        bath = BathSpec(0.744, 3.33)
        eps = mode_values(p, scheme, 3)[0]
        blk0 = block_hamiltonian(p, scheme, bath, k=3)
        rho0, _ = fock.steady_state(fock.exact_cycle_map(blk0, bath.cycle_time_mean))
        e0, _ = fock.block_energy(rho0, eps, blk0.weight)
        kps = [1e-3 * g, 1e-2 * g, 1e-1 * g]
        incr = []
        for kp in kps:
            env = NoiseSpec.finite_env(kp, 0.7, 0.0)
            blk = block_hamiltonian(p, scheme, bath, k=3, env=env)
            rho, _ = fock.steady_state(fock.exact_cycle_map(blk, bath.cycle_time_mean))
            e, _ = fock.block_energy(rho, eps, blk.weight)
            incr.append(e - e0)
        slope = np.polyfit(np.log(kps), np.log(incr), 1)[0]
        assert abs(slope - 2.0) <= 0.1

    def test_invalid_pe_rejected(self):
        with pytest.raises(ValueError):
            NoiseSpec.finite_env(0.1, 0.5, 1.5)


# ---------------------------------------------------------------------------
# steady states, energies, rates
# ---------------------------------------------------------------------------

class TestSteadyState:
    def test_identity_map_rejected(self, small_params, bath):
        scheme = CouplingScheme.local(1.0, 1.0, g=0.0)
        blk = block_hamiltonian(small_params, scheme, bath, k=2)
        with pytest.raises(NonUniqueFixedPoint) as exc:
            fock.steady_state(fock.exact_cycle_map(blk, 2.0))
        assert exc.value.eigenspace_dim > 1

    @pytest.mark.parametrize("g", [1e-5, 1e-6])
    def test_weak_coupling_gap_is_not_degeneracy(self, g):
        """T_res has several eigenvalues within 1e-9 of modulus one here,
        but only the trace eigenvalue is numerically 1."""
        p = ModelParams(40, math.pi / 3)
        scheme = CouplingScheme.local(1.0, 1.0, g)
        blk = block_hamiltonian(p, scheme, BathSpec(1.0, 20.0), k=4)
        s = fock.exact_cycle_map(blk, 20.0)
        rho, alpha = fock.steady_state(s)
        assert 0.0 < alpha < 1e-9
        assert trace_norm(apply_transfer(s, rho) - rho) <= 1e-10

    @pytest.mark.parametrize("g", [1e-4, 1e-5, 1e-6])
    def test_weak_coupling_energy_matches_high_precision_solve(self, g):
        """E_4 against a 50-digit solve of the same transfer matrix: the
        sector's fixed-point equations, with the trace condition in place of
        rho_00's.  The fixed point is conditioned like 1/alpha, so E_4's
        relative error is bounded in units of eps/alpha.  This measures the
        solve, not the rounding of T itself."""
        mpmath = pytest.importorskip("mpmath")
        p = ModelParams(40, math.pi / 3)
        scheme = CouplingScheme.local(1.0, 1.0, g)
        blk = block_hamiltonian(p, scheme, BathSpec(1.0, 20.0), k=4)
        eps = mode_values(p, scheme, 4)[0]
        s = fock.exact_cycle_map(blk, 20.0)
        rho, alpha = fock.steady_state(s)
        e_4, _ = fock.block_energy(rho, eps, blk.weight)
        idx = fock._physical_sector(4)
        n = len(idx)
        pops = [i for i, flat in enumerate(idx) if flat % 5 == 0]  # |j><j| sits at 5 j
        pop_0, pop_3 = (list(idx).index(5 * j) for j in (0, 3))
        with mpmath.workdps(50):
            a = mpmath.matrix([[mpmath.mpc(complex(s[i, j])) - (i == j) for j in range(n)]
                               for i in range(n)])
            b = mpmath.matrix(n, 1)
            for j in range(n):
                a[0, j] = int(j in pops)
            b[0] = 1
            v = mpmath.lu_solve(a, b)
            e_ref = eps * float(mpmath.re(v[pop_3] - v[pop_0]))
        assert abs(e_4 - e_ref) <= 4 * np.finfo(float).eps / alpha * abs(e_ref)

    def test_decoupled_noisy_steady_is_maximally_mixed(self, small_params, bath):
        scheme = CouplingScheme.local(1.0, 1.0, g=0.0)
        blk = block_hamiltonian(small_params, scheme, bath, k=2)
        rho, _ = fock.steady_state(fock.exact_cycle_map(blk, 2.0, kappa=0.05))
        assert np.allclose(rho, np.eye(4) / 4, atol=1e-9)
        e_val, _ = fock.block_energy(rho, mode_values(small_params, scheme, 2)[0], blk.weight)
        assert abs(e_val) < 1e-9

    def test_weak_coupling_energy_matches_closed_form(self):
        from kelvin.analytic import overlap_coeffs, steady_energy
        p = ModelParams(40, 0.8)
        scheme = CouplingScheme.local(1.0, 1.0, 1e-4)
        bath = BathSpec(1.0, 20.0)
        for k in (3, 10, 17):
            blk = block_hamiltonian(p, scheme, bath, k=k)
            eps, _, a, b = mode_values(p, scheme, k)
            rho, _ = fock.steady_state(fock.exact_cycle_map(blk, 20.0))
            e_val, _ = fock.block_energy(rho, eps, blk.weight)
            x, y = overlap_coeffs(eps, 1.0, 20.0, 1e-4)
            pred = float(steady_energy(eps, abs(a * x) ** 2, abs(b * y) ** 2))
            assert abs(e_val - pred) <= 0.01 * abs(pred)

    def test_fitted_decay_matches_alpha(self):
        # slow, well-separated decay: resonant randomized-time map
        p = ModelParams(40, math.pi / 3)
        scheme = CouplingScheme.local(1.0, 1.0, 3e-2)
        bath = BathSpec(1.0, 20.0)
        blk = block_hamiltonian(p, scheme, bath, k=10)
        s = fock.averaged_cycle_map(blk, 20.0)
        rho_ss, alpha = fock.steady_state(s)
        rho = fock.most_excited_density(False)
        cycles, dist = [], []
        for n in range(40):
            rho = apply_transfer(s, rho)
            if n >= 5:
                cycles.append(n + 1)
                dist.append(trace_norm(rho - rho_ss))
        fit = -np.polyfit(cycles, np.log(dist), 1)[0]
        assert abs(fit - alpha) <= 0.01 * alpha

    @pytest.mark.parametrize("theta_raw", [-math.pi / 3, -1.1, 2.0, math.pi - 0.4,
                                           math.pi + 0.4, 4.4])
    def test_theta_symmetry_of_steady_spectra(self, bath, rng, theta_raw):
        """Steady states computed before and after canonicalization agree in
        each branch (theta < 0, (pi/2, pi], (pi, 3pi/2]) for random couplings
        of every range: eps, the steady spectra and the rate alpha, with the
        raw block k compared to the canonical block N/2 - k where the modes
        are relabeled.  Besides the single-time Fock map this holds for both
        engines' maps averaged over random times, with and without
        depolarizing noise; a CM steady state is compared through its Gaussian
        density matrix, since relabeling k swaps the pair's modes and so
        negates the CM spectrum."""
        from kelvin import cm
        from kelvin.model import _block_raw, _mode_row
        n, t_mean = 12, bath.cycle_time_mean

        def steady_spectra(blk, edge):
            rho, alpha = fock.steady_state(fock.exact_cycle_map(blk, t_mean))
            out = [(np.linalg.eigvalsh(rho), alpha)]
            for kappa in (0.0, 0.01):
                rho, alpha = fock.steady_state(fock.averaged_cycle_map(blk, t_mean, kappa))
                out.append((np.linalg.eigvalsh(rho), alpha))
                transfer = next(cm.cycle_maps(blk, [None], t_mean, kappa))
                x, alpha, _ = cm.fixed_points(transfer[None])
                rho = oracles.cm_to_density(cm.matrices(x)[0], edge)
                out.append((np.linalg.eigvalsh(rho), alpha[0]))
            return out

        for nn in (0, 0.5, 1, 1.5):
            keys = coupling_keys(nn)
            scheme = CouplingScheme(nn=nn, lam={j: float(rng.uniform(-1, 1)) for j in keys},
                                    mu={j: float(rng.uniform(-1, 1)) for j in keys}, g=0.2)
            res = canonicalize_theta(theta_raw, scheme)
            for k in range(0, n // 2 + 1):
                k_can = n // 2 - k if res.mode_relabeled else k
                blk_raw = _block_raw(theta_raw, n, scheme, bath, k)
                blk_can = _block_raw(res.theta, n, res.scheme, bath, k_can)
                assert _mode_row(n, theta_raw).eps[k] == \
                    pytest.approx(_mode_row(n, res.theta).eps[k_can], abs=1e-12)
                edge = k in (0, n // 2)
                for i, ((ev_raw, alpha_raw), (ev_can, alpha_can)) in enumerate(
                        zip(steady_spectra(blk_raw, edge), steady_spectra(blk_can, edge))):
                    assert np.allclose(ev_raw, ev_can, rtol=0, atol=1e-11), (nn, k, i)
                    assert alpha_raw == pytest.approx(alpha_can, rel=1e-10), (nn, k, i)


class TestBlockEnergy:
    def test_vacuum(self):
        rho = fock.vacuum_density(False)
        e_val, e_rel = fock.block_energy(rho, 1.3, 1.0)
        assert e_val == pytest.approx(-1.3) and e_rel == pytest.approx(0.0)

    def test_maximally_mixed(self):
        rho = oracles.maximally_mixed_density(False)
        e_val, e_rel = fock.block_energy(rho, 1.3, 1.0)
        assert e_val == pytest.approx(0.0) and e_rel == pytest.approx(1.0)

    def test_most_excited(self):
        for edge in (False, True):
            rho = fock.most_excited_density(edge)
            _, e_rel = fock.block_energy(rho, 0.7, 0.5 if edge else 1.0)
            assert e_rel == pytest.approx(2.0)

    def test_edge_range(self):
        rho = fock.vacuum_density(True)
        e_val, e_rel = fock.block_energy(rho, 0.8, 0.5)
        assert e_val == pytest.approx(-0.4) and e_rel == pytest.approx(0.0)

    def test_zero_epsilon_sentinel(self):
        rho = fock.vacuum_density(True)
        e_val, e_rel = fock.block_energy(rho, 0.0, 0.5)
        assert e_val == 0.0 and e_rel is None


class TestDensityBlockValidation:
    """`oracles.check_density_blocks`, the physical-state check the tests use,
    on a chain of two vacuum edges around one pair block."""

    @staticmethod
    def _validate(pair):
        oracles.check_density_blocks([fock.vacuum_density(True), pair,
                                      fock.vacuum_density(True)])

    def test_accepts_valid(self):
        self._validate(oracles.maximally_mixed_density(False))

    def test_rejects_bad_trace(self):
        with pytest.raises(ValueError, match="k=1 trace"):
            self._validate(np.eye(4, dtype=complex))

    def test_rejects_parity_coherence(self):
        m = np.eye(4, dtype=complex) / 4
        m[0, 1] = m[1, 0] = 0.1
        with pytest.raises(ValueError, match="k=1 carries parity-violating"):
            self._validate(m)

    def test_rejects_non_hermitian(self):
        m = np.eye(4, dtype=complex) / 4
        m[0, 3] = 0.1
        with pytest.raises(ValueError, match="k=1 not hermitian"):
            self._validate(m)

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(ValueError, match="k=1 not positive semidefinite"):
            self._validate(np.diag([0.6, 0.5, 0.0, -0.1]).astype(complex))
