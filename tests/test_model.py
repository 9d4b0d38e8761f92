import math

import numpy as np
import pytest
from scipy.integrate import quad

from kelvin.model import (
    BathSpec,
    CouplingScheme,
    ModeBlock,
    ModelParams,
    NoiseSpec,
    _coupling_table,
    _mode_row,
    band_edges,
    block_hamiltonian,
    coupling_arrays,
    coupling_keys,
    dispersion,
    energy_density_limit,
    ground_state_energy,
    mode_grid,
)

from conftest import theta_grid


def brute_force_gs_energy(theta: float, n: int) -> float:
    """Oracle: enumerate the mode energies over the full Brillouin zone."""
    return -0.5 * sum(
        math.sqrt(1 + math.sin(2 * theta) * math.cos(2 * math.pi * k / n))
        for k in range(-n // 2 + 1, n // 2 + 1))


class TestDispersion:
    def test_gap_closes_at_criticality(self):
        assert dispersion(math.pi / 4, 8, 4) == 0.0

    @pytest.mark.parametrize("theta", theta_grid())
    def test_quarter_zone_mode_is_unit(self, theta):
        assert dispersion(theta, 8, 2) == pytest.approx(1.0, abs=1e-15)

    def test_direct_value(self):
        assert dispersion(math.pi / 3, 200, 0) == pytest.approx(
            math.sqrt(1 + math.sin(2 * math.pi / 3)), abs=1e-14)

    @pytest.mark.parametrize("theta", theta_grid())
    def test_symmetric_in_k(self, theta):
        for k in range(1, 5):
            assert dispersion(theta, 10, k) == pytest.approx(
                dispersion(theta, 10, -k), abs=1e-15)

    @pytest.mark.parametrize("theta", theta_grid())
    def test_band_edges_at_zone_ends(self, theta):
        eps_m, eps_max = band_edges(theta)
        assert dispersion(theta, 40, 20) == pytest.approx(eps_m, abs=1e-12)
        assert dispersion(theta, 40, 0) == pytest.approx(eps_max, abs=1e-12)

    @pytest.mark.parametrize("theta", [0.3, 1.2, 2.0, 2.9, 3.5, 4.4, -0.3, -1.2])
    def test_band_edges_bracket_the_band_in_every_quadrant(self, theta):
        """(eps_min, eps_max) is the band's range over k for theta in each
        quadrant, where sin 2 theta < 0 puts the minimum at k = 0, and it is
        invariant under theta -> -theta and theta -> pi - theta."""
        n = 40
        eps = dispersion(theta, n, np.arange(n // 2 + 1))
        eps_m, eps_max = band_edges(theta)
        assert eps_m < eps_max
        assert eps_m == pytest.approx(eps.min(), abs=1e-12)
        assert eps_max == pytest.approx(eps.max(), abs=1e-12)
        assert band_edges(-theta) == (eps_m, eps_max)
        assert band_edges(math.pi - theta) == pytest.approx((eps_m, eps_max), abs=1e-14)


def _phi(theta, n):
    return mode_grid(ModelParams(n, theta))[2]


class TestBogoliubovAngle:
    @pytest.mark.parametrize("theta", [0.2, 0.9, math.pi / 2])
    def test_zero_at_k0(self, theta):
        assert _phi(theta, 20)[0] == 0.0

    def test_zero_at_theta_half_pi(self):
        for k in range(0, 11):
            assert _phi(math.pi / 2, 20)[k] == pytest.approx(0.0, abs=1e-15)

    def test_half_pi_at_zone_edge_below_critical(self):
        # oracle: the 2x2 block at k = N/2 is diag(w, -w) with w < 0, so the
        # +eps eigenvector is (0, 1), i.e. phi = pi/2
        theta = math.pi / 6
        w = math.sin(theta) + math.cos(theta) * math.cos(math.pi)
        assert w < 0
        assert _phi(theta, 12)[6] == pytest.approx(math.pi / 2, abs=1e-15)

    @pytest.mark.parametrize("n", [8, 20, 200])
    def test_edges_match_mode_grid(self, n, local_scheme, bath):
        """At k = 0 and N/2 only phi in {0, pi/2} is a canonical frame; the
        blocks use mode_grid's, also at the gapless edge (theta = pi/4,
        k = N/2), where w is rounding noise."""
        thetas = theta_grid() + list(np.linspace(0.0, math.pi / 2, 21)) + [math.pi / 4]
        for theta in thetas:
            p = ModelParams(n, theta)
            _, eps, phi, wts = mode_grid(p)
            a, b = coupling_arrays(local_scheme, p)
            for k in (0, n // 2):
                assert _grid_entries(block_hamiltonian(p, local_scheme, bath, k).h_sb) == \
                    _grid_expected(eps[k], wts[k], local_scheme.g, a[k], b[k]), (theta, k)
                assert phi[k] in (0.0, math.pi / 2), (theta, k)

    @pytest.mark.parametrize("theta", theta_grid())
    def test_rotation_diagonalizes_block(self, theta):
        n = 14
        ks, eps_k, phi_k, _ = mode_grid(ModelParams(n, theta))
        for k, eps, phi in zip(ks, eps_k, phi_k):
            w = math.sin(theta) + math.cos(theta) * math.cos(2 * math.pi * k / n)
            r = math.cos(theta) * math.sin(2 * math.pi * k / n)
            h = np.array([[w, r], [r, -w]])
            u = np.array([[math.cos(phi), -math.sin(phi)],
                          [math.sin(phi), math.cos(phi)]])
            d = u.T @ h @ u
            assert np.allclose(d, np.diag([eps, -eps]), atol=1e-12)

    @pytest.mark.parametrize("n", [200, 1000])
    def test_sin_phi_matches_40_digit_angle(self, n):
        """phi_k against a 40-digit half-angle of the same float (w, r).  The
        form atan2(eps - w, r) misses sin(phi) by up to 8.2e-10 (N = 200) and
        6.1e-8 (N = 1000) relative here, where eps - w cancels."""
        mpmath = pytest.importorskip("mpmath")
        ks = np.arange(1, n // 2)
        x = 2 * math.pi * ks / n
        worst = 0.0
        for theta in (0.3, math.pi / 4, 1.0, math.pi / 3, 1.4923, 1.56):
            w = math.sin(theta) + math.cos(theta) * np.cos(x)
            r = math.cos(theta) * np.sin(x)
            sin_phi = np.sin(_phi(theta, n)[1:-1])
            with mpmath.workdps(40):
                for wk, rk, sk in zip(w, r, sin_phi):
                    ref = mpmath.sin(mpmath.atan2(mpmath.mpf(rk), mpmath.mpf(wk)) / 2)
                    worst = max(worst, float(abs((sk - ref) / ref)))
        assert worst <= 1e-13


class TestGroundStateEnergy:
    def test_flat_band(self):
        assert ground_state_energy(ModelParams(10, math.pi / 2)) == pytest.approx(-5.0)
        assert ground_state_energy(ModelParams(4, 0.0)) == pytest.approx(-2.0)

    def test_small_chain_enumeration(self):
        # modes at theta = pi/4, N = 4: eps in {1, sqrt(2), 1, 0}
        assert ground_state_energy(ModelParams(4, math.pi / 4)) == pytest.approx(
            -(2 + math.sqrt(2)) / 2, abs=1e-14)

    @pytest.mark.parametrize("theta,n", [(0.7, 6), (1.2, 8), (math.pi / 4, 10)])
    def test_matches_enumeration_oracle(self, theta, n):
        assert ground_state_energy(ModelParams(n, theta)) == pytest.approx(
            brute_force_gs_energy(theta, n), abs=1e-13)

    def test_large_n_density(self):
        p = ModelParams(200, math.pi / 3)
        f = energy_density_limit(p.theta)
        assert abs(ground_state_energy(p) / p.N + f) <= 0.01 * f

    @pytest.mark.parametrize("n", [100, 200, 1000])
    @pytest.mark.parametrize("theta", [0.3, math.pi / 4, 1.2])
    def test_density_convergence_bound(self, n, theta):
        e_gs = ground_state_energy(ModelParams(n, theta))
        assert abs(e_gs / n + energy_density_limit(theta)) <= 10.0 / n


class TestEnergyDensityLimit:
    def test_flat_cases(self):
        assert energy_density_limit(0.0) == pytest.approx(0.5, abs=1e-10)
        assert energy_density_limit(math.pi / 2) == pytest.approx(0.5, abs=1e-10)

    def test_critical_closed_form(self):
        # int_0^pi sqrt(1 + cos x) dx = 2 sqrt(2)
        assert energy_density_limit(math.pi / 4) == pytest.approx(
            math.sqrt(2) / math.pi, abs=1e-10)


QUARTER = math.pi / 4
# the named angles: flat, critical (sin 2theta = +-1) and next to it, and sin 2theta < 0
DENSITY_THETAS = [0.0, QUARTER, -QUARTER, QUARTER + 1e-9, QUARTER - 1e-9, math.pi / 2,
                  3 * QUARTER, -0.3, 2.0, 2.9, -1.2]


class TestEnergyDensityClosedForm:
    """The closed form against the quadrature it replaced and a 40-digit one."""

    def test_matches_quad(self):
        thetas = DENSITY_THETAS + list(np.random.default_rng(7).uniform(-math.pi, math.pi, 240))
        assert sum(math.sin(2 * t) < 0 for t in thetas) >= 100
        worst, at = 0.0, None
        for theta in thetas:
            s = math.sin(2 * theta)
            val, _ = quad(lambda x: math.sqrt(max(1 + s * math.cos(x), 0.0)), 0.0, math.pi,
                          epsabs=1e-12, epsrel=1e-12, limit=200)
            gap = abs(energy_density_limit(theta) - val / (2 * math.pi))
            if gap > worst:
                worst, at = gap, theta
        assert worst <= 1e-13, f"|closed form - quad| = {worst:.2e} at theta = {at!r}"

    def test_matches_40_digit_quadrature(self):
        # quad itself loses digits within ~1e-5 of the critical angles (1.7e-12
        # at pi/4 + 1e-6), so the angles closest to them are checked here
        mpmath = pytest.importorskip("mpmath")
        near = [QUARTER + d for d in (1e-12, -1e-12, 1e-8, -1e-8, 1e-6, -1e-6, 1e-4, -1e-4)]
        thetas = (DENSITY_THETAS + near + [3 * QUARTER + 1e-7, -QUARTER - 1e-5]
                  + list(np.random.default_rng(11).uniform(-math.pi, math.pi, 12)))
        with mpmath.workdps(40):
            for theta in thetas:
                s = mpmath.sin(2 * mpmath.mpf(theta))
                ref = mpmath.quad(lambda x: mpmath.sqrt(1 + s * mpmath.cos(x)),
                                  [0, mpmath.pi / 2, mpmath.pi]) / (2 * mpmath.pi)
                assert abs(energy_density_limit(theta) - float(ref)) <= 1e-15, theta


class TestCouplingCoefficients:
    @pytest.mark.parametrize("k", [1, 3, 5])
    def test_local_symmetric_coupling(self, k):
        scheme = CouplingScheme.local(1.0, 1.0, 1.0)
        p = ModelParams(12, 0.8)
        phi = _phi(p.theta, p.N)[k]
        a, b = coupling_arrays(scheme, p)
        assert a[k] == pytest.approx(np.exp(1j * phi), abs=1e-14)
        assert b[k] == pytest.approx(1j * np.exp(1j * phi), abs=1e-14)

    def test_local_lambda_only(self):
        scheme = CouplingScheme.local(1.0, 0.0, 1.0)
        p, k = ModelParams(12, 0.8), 3
        phi = _phi(p.theta, p.N)[k]
        a, b = coupling_arrays(scheme, p)
        assert a[k] == pytest.approx(math.cos(phi), abs=1e-14)
        assert b[k] == pytest.approx(-math.sin(phi), abs=1e-14)

    def test_symmetric_neighbor_sum(self):
        # phi = 0 at k = 0, so A = lam_0 + 2 c cos(2 pi k / N) evaluated at k=0
        c = 0.4
        scheme = CouplingScheme(nn=1, lam={-1: c, 0: 0.9, 1: c},
                                mu={-1: 0.0, 0: 0.0, 1: 0.0}, g=1.0)
        a, b = coupling_arrays(scheme, ModelParams(12, 0.8))
        assert a[0] == pytest.approx(0.9 + 2 * c, abs=1e-14)
        assert b[0] == pytest.approx(0.0, abs=1e-14)

    def test_matches_direct_sum(self, generic_scheme, rng):
        p = ModelParams(10, 1.1)
        a, _ = coupling_arrays(generic_scheme, p)
        for k, phi in enumerate(_phi(p.theta, p.N)):
            a_ref = sum((math.cos(phi) * generic_scheme.lam[j]
                         + 1j * math.sin(phi) * generic_scheme.mu[j])
                        * np.exp(-2j * math.pi * j * k / p.N)
                        for j in coupling_keys(generic_scheme.nn))
            assert a[k] == pytest.approx(a_ref, abs=1e-13)


class TestBlockHamiltonian:
    def test_decoupled_is_diagonal(self, small_params, bath):
        scheme = CouplingScheme.local(1.0, 1.0, g=0.0)
        eps = mode_grid(small_params)[1]
        blk = block_hamiltonian(small_params, scheme, bath, k=3)
        assert np.allclose(blk.h_sb, np.diag([eps[3], -eps[3], bath.delta, -bath.delta]),
                           atol=1e-14)
        edge = block_hamiltonian(small_params, scheme, bath, k=0)
        assert np.allclose(edge.h_sb,
                           0.5 * np.diag([eps[0], -eps[0], bath.delta, -bath.delta]), atol=1e-14)

    def test_local_coupling_entries(self, small_params, bath):
        scheme = CouplingScheme.local(1.0, 1.0, g=0.3)
        blk = block_hamiltonian(small_params, scheme, bath, k=4)
        _, eps, phi, _ = (arr[4] for arr in mode_grid(small_params))
        g = 0.3
        expected = np.array([
            [eps, 0, g * np.exp(1j * phi), 1j * g * np.exp(1j * phi)],
            [0, -eps, 1j * g * np.exp(1j * phi), -g * np.exp(1j * phi)],
            [g * np.exp(-1j * phi), -1j * g * np.exp(-1j * phi), bath.delta, 0],
            [-1j * g * np.exp(-1j * phi), -g * np.exp(-1j * phi), 0, -bath.delta],
        ])
        assert np.allclose(blk.h_sb, expected, atol=1e-14)

    def test_hermitian_for_random_inputs(self, rng, bath):
        for _ in range(20):
            nn = rng.choice([0, 0.5, 1, 1.5])
            keys = coupling_keys(nn)
            scheme = CouplingScheme(
                nn=float(nn),
                lam={j: float(rng.uniform(-1, 1)) for j in keys},
                mu={j: float(rng.uniform(-1, 1)) for j in keys},
                g=float(rng.uniform(0, 1)))
            p = ModelParams(16, float(rng.uniform(0, math.pi / 2)))
            k = int(rng.integers(0, 9))
            blk = block_hamiltonian(p, scheme, bath, k=k)
            assert np.max(np.abs(blk.h_sb - blk.h_sb.conj().T)) < 1e-14

    def test_weights_and_coeffs(self, small_params, local_scheme, bath):
        for k in range(0, 7):
            blk = block_hamiltonian(small_params, local_scheme, bath, k=k)
            assert blk.weight == (0.5 if k in (0, 6) else 1.0)
            assert blk.h_sb[0, 0] == pytest.approx(
                blk.weight * dispersion(small_params.theta, 12, k))

    def test_blocks_read_the_mode_grid(self, rng, bath):
        """One grid: every block's h_sb holds w eps_k, w g A_k and w g B_k of
        row k of mode_grid and coupling_arrays, bit for bit (no splitting
        under DSP), also at the edges, with an environment, and for raw theta
        outside [0, pi/2]."""
        env = NoiseSpec.finite_env(0.01, 0.5, 0.3)
        for _ in range(40):
            n = 2 * int(rng.integers(1, 60))
            nn = float(rng.choice([0, 0.5, 1, 1.5]))
            keys = coupling_keys(nn)
            scheme = CouplingScheme(
                nn=nn, lam={j: float(rng.uniform(-1, 1)) for j in keys},
                mu={j: float(rng.uniform(-1, 1)) for j in keys}, g=float(rng.uniform(0, 1)))
            theta = float(rng.choice([rng.uniform(0, math.pi / 2), 0.0, math.pi / 4,
                                      math.pi / 2]))
            theta_raw = float(rng.uniform(-math.pi / 2, 3 * math.pi / 2))
            p = ModelParams(n, theta)
            _, eps, _, wts = mode_grid(p)
            a, b = coupling_arrays(scheme, p)
            row, (a_raw, b_raw) = _mode_row(n, theta_raw), _coupling_table(n, theta_raw, scheme)
            for k in {0, n // 2, int(rng.integers(0, n // 2 + 1))}:
                for kw in ({}, {"env": env}, {"dsp": True}):
                    split = 0.0 if kw.get("dsp") else 1.0
                    blk = block_hamiltonian(p, scheme, bath, k, **kw)
                    assert _grid_entries(blk.h_sb) == \
                        _grid_expected(split * eps[k], wts[k], scheme.g, a[k], b[k]), \
                        (n, theta, k, kw)
                    raw = block_hamiltonian(ModelParams(n, theta_raw), scheme, bath, k, **kw)
                    assert _grid_entries(raw.h_sb) == _grid_expected(
                        split * row.eps[k], row.weights[k], scheme.g, a_raw[k], b_raw[k]), \
                        (n, theta_raw, k, kw)

    def test_dsp_removes_system_splitting(self, small_params, local_scheme, bath):
        blk = block_hamiltonian(small_params, local_scheme, bath, k=3, dsp=True)
        assert blk.h_sb[0, 0] == 0 and blk.h_sb[1, 1] == 0
        # and nothing else: the cooling block adds only the true splitting
        cool = block_hamiltonian(small_params, local_scheme, bath, k=3)
        eps = mode_grid(small_params)[1][3]
        assert eps > 0 and np.array_equal(cool.h_sb - blk.h_sb, np.diag([eps, -eps, 0, 0]))


def _grid_entries(h_sb: np.ndarray) -> tuple[complex, complex, complex]:
    """The system splitting and the bath couplings A and B in row 0 of a block."""
    return h_sb[0, 0], h_sb[0, 2], h_sb[0, 3]


def _grid_expected(eps, w, g, a, b) -> tuple[complex, complex, complex]:
    """What `_grid_entries` holds for mode values (eps, A, B), weight w and
    coupling strength g, in the block builder's operation order."""
    return w * eps, w * (g * a), w * (g * b)


# The per-mode builder that the stacked one replaced, kept verbatim as the
# oracle of `TestStackedBlocks`.
def _pair_coupling_block(a: complex, b: complex, edge: bool) -> tuple[np.ndarray, np.ndarray]:
    """Upper 2x2 coupling sub-blocks (rows X, cols Y) and their conjugate layout.

    Generic pairs use the translation-invariant pattern [[A, B], [B, -A]].
    Edge modes live on a doubled (x, x^dag) basis where each physical term is
    counted twice; consistency of the expansion then requires
    [[A, B], [-B*, -A*]] (the two coincide when A is real and B imaginary).
    """
    if edge:
        top = np.array([[a, b], [-np.conj(b), -np.conj(a)]], dtype=complex)
    else:
        top = np.array([[a, b], [b, -a]], dtype=complex)
    return top, top.conj().T


def _oracle_block(
    theta: float,
    N: int,
    scheme: CouplingScheme,
    bath: BathSpec,
    k: int,
    env: NoiseSpec | None = None,
    dsp: bool = False,
) -> ModeBlock:
    """The block of one mode k at any finite theta."""
    if not (0 <= k <= N // 2):
        raise ValueError(f"k must lie in [0, N/2], got {k}")
    row = _mode_row(N, theta)
    a_k, b_k = _coupling_table(N, theta, scheme)
    eps, weight = float(row.eps[k]), float(row.weights[k])
    a, b = complex(a_k[k]), complex(b_k[k])
    edge = k == 0 or k == N // 2

    n_pairs = 4 if env is not None else 2
    dim = 2 * n_pairs
    h = np.zeros((dim, dim), dtype=complex)

    eps_evo = 0.0 if dsp else eps
    diag = [eps_evo, bath.delta]
    if env is not None:
        diag += [env.delta_e, env.delta_e]
    for m, d in enumerate(diag):
        h[2 * m, 2 * m] = d
        h[2 * m + 1, 2 * m + 1] = -d

    def couple(m_row: int, m_col: int, amp_a: complex, amp_b: complex, strength: float):
        top, bot = _pair_coupling_block(strength * amp_a, strength * amp_b, edge)
        h[2 * m_row:2 * m_row + 2, 2 * m_col:2 * m_col + 2] = top
        h[2 * m_col:2 * m_col + 2, 2 * m_row:2 * m_row + 2] = bot

    couple(0, 1, a, b, scheme.g)
    if env is not None:
        couple(0, 2, float(row.cos_phi[k]), -float(row.sin_phi[k]), env.kappa_prime)
        couple(1, 3, 1.0, 0.0, env.kappa_prime)

    return ModeBlock(h_sb=weight * h, weight=weight, env=env)


class TestStackedBlocks:
    """`block_hamiltonian` over an array of k is, row by row, the per-mode
    builder, at any finite theta."""

    def test_rows_equal_per_mode_oracle(self):
        rng = np.random.default_rng(20261018)
        env = NoiseSpec.finite_env(0.03, 0.6, -0.4)
        for case in range(240):
            n = 2 * int(rng.integers(1, 61))
            nn = float(rng.choice([0, 0.5, 1, 1.5]))
            keys = coupling_keys(nn)
            scheme = CouplingScheme(
                nn=nn, lam={j: float(rng.uniform(-1, 1)) for j in keys},
                mu={j: float(rng.uniform(-1, 1)) for j in keys}, g=float(rng.uniform(0, 1)))
            theta = float(rng.choice([rng.uniform(-math.pi / 2, 3 * math.pi / 2), -math.pi / 2,
                                      0.0, math.pi / 4, math.pi / 2, math.pi]))
            bath = BathSpec(float(rng.uniform(0.1, 2.0)), 3.0)
            kw = {"env": env if case % 2 else None, "dsp": case % 3 == 0}
            ks = np.concatenate([[0, n // 2], rng.integers(0, n // 2 + 1, size=3)])
            params = ModelParams(n, theta)
            stack = block_hamiltonian(params, scheme, bath, ks, **kw)
            assert stack.env is kw["env"] and stack.weight.shape == ks.shape
            for i, k in enumerate(ks):
                oracle = _oracle_block(theta, n, scheme, bath, int(k), **kw)
                assert np.array_equal(stack.h_sb[i], oracle.h_sb), (case, k)
                assert np.array_equal(stack.generator[i], oracle.generator), (case, k)
                assert stack.weight[i] == oracle.weight, (case, k)
                one = block_hamiltonian(params, scheme, bath, int(k), **kw)
                assert np.array_equal(one.h_sb, oracle.h_sb), (case, k)
                assert (one.weight, one.env) == (oracle.weight, oracle.env), (case, k)

    def test_an_int_gives_one_block(self, small_params, generic_scheme, bath):
        blk = block_hamiltonian(small_params, generic_scheme, bath, 3)
        oracle = _oracle_block(small_params.theta, small_params.N, generic_scheme, bath, 3)
        assert blk.h_sb.shape == (4, 4) and type(blk.weight) is float
        assert (blk.weight, blk.env) == (oracle.weight, oracle.env)
        assert np.array_equal(blk.h_sb, oracle.h_sb) and blk.n_modes == oracle.n_modes

    def test_stack_checks(self, small_params, generic_scheme, bath):
        n2 = small_params.N // 2
        with pytest.raises(ValueError, match="k must lie"):
            block_hamiltonian(small_params, generic_scheme, bath, np.array([0, n2 + 1]))
        stack = block_hamiltonian(small_params, generic_scheme, bath, np.array([0, 2, n2]))
        assert stack.is_edge.tolist() == [True, False, True]
        with pytest.raises(ValueError, match="mixes edge and pair"):
            stack.n_modes
        assert block_hamiltonian(small_params, generic_scheme, bath, np.array([0, n2])).n_modes == 2


class TestNoiseSpec:
    @pytest.mark.parametrize("fields", [
        dict(kind="none", kappa=0.5),
        dict(kind="none", p_e=0.3),
        dict(kind="none", kappa_prime=0.1),
        dict(kind="none", delta_e=0.7),
        dict(kind="depolarizing", kappa=1e-3, p_e=0.3),
        dict(kind="depolarizing", kappa=1e-3, delta_e=0.7),
        dict(kind="finite_env", kappa=1e-3, kappa_prime=0.1, delta_e=0.7, p_e=0.3),
    ], ids=["none+kappa", "none+p_e", "none+kappa_prime", "none+delta_e",
            "depolarizing+p_e", "depolarizing+delta_e", "finite_env+kappa"])
    def test_field_of_another_kind_rejected(self, fields):
        with pytest.raises(ValueError, match="does not use"):
            NoiseSpec(**fields)

    @pytest.mark.parametrize("fields", [
        dict(kind="bogus"), dict(kind="depolarizing", kappa=-1e-3),
        dict(kind="finite_env", kappa_prime=-0.1),
    ])
    def test_invalid_values_rejected(self, fields):
        with pytest.raises(ValueError):
            NoiseSpec(**fields)

    def test_kappa_and_env_of_every_kind(self):
        env = NoiseSpec.finite_env(0.1, 0.7, 0.3)
        assert env.env is env and env.kappa == 0.0
        assert NoiseSpec.none().env is None and NoiseSpec.none().kappa == 0.0
        dep = NoiseSpec.depolarizing(1e-3)
        assert dep.env is None and dep.kappa == 1e-3

    @pytest.mark.parametrize("noise", [NoiseSpec.none(), NoiseSpec.depolarizing(1e-3)])
    def test_block_takes_only_an_environment(self, small_params, generic_scheme, bath, noise):
        with pytest.raises(ValueError, match="finite-environment"):
            block_hamiltonian(small_params, generic_scheme, bath, 2, env=noise)


class TestSchemeValidation:
    def test_half_integer_keys(self):
        assert coupling_keys(0.5) == [0, 1]
        assert coupling_keys(1.5) == [-1, 0, 1, 2]
        assert coupling_keys(2) == [-2, -1, 0, 1, 2]

    def test_rejects_bad_keys(self):
        with pytest.raises(ValueError):
            CouplingScheme(nn=0.5, lam={0: 1.0}, mu={0: 1.0, 1: 0.0}, g=1.0)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            CouplingScheme.local(1.5, 0.0, 1.0)
        with pytest.raises(ValueError):
            CouplingScheme.local(1.0, 0.0, -1.0)

    def test_model_params_validation(self):
        """Any finite theta constructs; odd or small N and a non-finite theta raise."""
        for theta in (2.0, -0.5, 4.5, -7.0):
            assert ModelParams(8, theta).theta == theta
        for n in (7, 0, -2):
            with pytest.raises(ValueError, match="N must be even"):
                ModelParams(n, 0.5)
        for theta in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="theta must be finite"):
                ModelParams(8, theta)

    def test_bath_validation(self):
        with pytest.raises(ValueError):
            BathSpec(-1.0, 1.0)
        with pytest.raises(ValueError):
            BathSpec(1.0, 0.0)
