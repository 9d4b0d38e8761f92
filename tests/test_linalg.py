import math

import numpy as np
import pytest

from kelvin._linalg import affine_fixed_points, random_time_average
from kelvin.errors import NonUniqueFixedPoint


def _contractions(rng, maps, n):
    """Random complex (maps, n, n) stack of operator norm below one."""
    k = rng.normal(size=(maps, n, n)) + 1j * rng.normal(size=(maps, n, n))
    norm = np.linalg.norm(k, ord=2, axis=(-2, -1))
    return k * (rng.uniform(0.1, 0.99, size=maps) / norm)[:, None, None]


def _linear(k, c, tau, conj):
    """Transfers T on x = (x_0, y) that conserve tau.x and act on y, with x_0
    = 1 - tau[1:].y eliminated, as the affine map y -> K y + c, made
    conjugation-symmetric, T <- (T + conj(T[conj][:, conj])) / 2, so that
    they take Hermitian x (x[conj] = conj(x)) to Hermitian x.  The average
    keeps K's operator norm below one when k's is."""
    rest = tau[1:].astype(float)
    t = np.zeros(k.shape[:-2] + (k.shape[-1] + 1,) * 2, dtype=complex)
    t[..., 1:, 0] = c
    t[..., 1:, 1:] = k + c[..., None] * rest
    t[..., 0, 0] = 1.0 - c @ rest
    t[..., 0, 1:] = rest - rest @ t[..., 1:, 1:]
    return 0.5 * (t + t[..., conj, :][..., conj].conj())


def _rates(t, tau):
    """-log rho(K) of K = T_yy - T_y0 tau[1:]^T, the map left once x_0 is eliminated."""
    k = t[:, 1:, 1:] - t[:, 1:, :1] * tau[1:]
    return -np.log(np.max(np.abs(np.linalg.eigvals(k)), -1))


def _e0(n):
    """tau = e_0, the conserved constant first entry of a CM state."""
    return np.arange(n) == 0


def _swaps(n):
    """An involution of 0..n-1 that fixes 0 and swaps 1 <-> 2, 3 <-> 4, ...
    (and fixes n-1 when n is even)."""
    i = np.arange(n)
    partner = i + 2 * (i % 2) - 1
    return np.where((i == 0) | (partner >= n), i, partner)


# a Fock pair's physical sector: its populations rho_00, rho_33 (even block)
# and rho_11, rho_22 (odd block), and the transpose inside each 2x2 block
_FOCK_TAU = np.isin(np.arange(8), [0, 3, 4, 7])
_FOCK_CONJ = np.array([0, 2, 1, 3, 4, 6, 5, 7])


class TestAffineFixedPoints:
    @pytest.mark.parametrize("n", [1, 4, 7])
    def test_solves_and_rates(self, n):
        rng = np.random.default_rng(n)
        tau, conj = _e0(n + 1), _swaps(n + 1)
        c = rng.normal(size=(20, n)) + 1j * rng.normal(size=(20, n))
        t = _linear(_contractions(rng, 20, n), c, tau, conj)
        x, alpha, resid = affine_fixed_points(t, tau, conj)
        assert np.all(x[:, 0] == 1.0)
        assert np.array_equal(x[:, conj], x.conj())
        np.testing.assert_allclose(x, (t @ x[..., None])[..., 0], rtol=0, atol=1e-13)
        np.testing.assert_allclose(alpha, _rates(t, tau), rtol=1e-14)
        assert np.all(resid <= 1e-13)

    def test_fock_shaped_marker(self):
        """tau marks the populations of a Fock pair's physical sector, rho_00
        first: the fixed point is conserved, tau.x = 1, and fixed by T."""
        rng = np.random.default_rng(8)
        c = rng.normal(size=(20, 7)) + 1j * rng.normal(size=(20, 7))
        t = _linear(_contractions(rng, 20, 7), c, _FOCK_TAU, _FOCK_CONJ)
        assert np.iscomplexobj(t) and np.any(t.imag != 0)
        np.testing.assert_allclose(_FOCK_TAU @ t, np.broadcast_to(_FOCK_TAU, (20, 8)),
                                   rtol=0, atol=1e-13)
        x, alpha, resid = affine_fixed_points(t, _FOCK_TAU, _FOCK_CONJ)
        np.testing.assert_allclose(x @ _FOCK_TAU, 1.0, rtol=0, atol=1e-13)
        np.testing.assert_allclose(x, (t @ x[..., None])[..., 0], rtol=0, atol=1e-12)
        np.testing.assert_allclose(alpha, _rates(t, _FOCK_TAU), rtol=1e-12)
        # sum |T x - x|, to the rounding of forming T x
        np.testing.assert_allclose(resid, np.abs((t @ x[..., None])[..., 0] - x).sum(-1),
                                   rtol=0, atol=1e-14)

    def test_each_map_solved_as_if_alone(self):
        """A map's fixed point, rate and residual have the same bits in any stack."""
        rng = np.random.default_rng(5)
        t = _linear(_contractions(rng, 9, 7), rng.normal(size=(9, 7)) + 1j * rng.normal(size=(9, 7)),
                    _FOCK_TAU, _FOCK_CONJ)
        x, alpha, resid = affine_fixed_points(t, _FOCK_TAU, _FOCK_CONJ)
        for i in range(9):
            x_i, alpha_i, resid_i = affine_fixed_points(t[i:i + 1], _FOCK_TAU, _FOCK_CONJ)
            assert np.array_equal(x_i[0], x[i]) and alpha_i[0] == alpha[i]
            assert resid_i[0] == resid[i]

    def test_unit_eigenvalues_raise_with_their_number(self):
        """Real maps, each entry its own conjugate."""
        k = np.diag([1.0, 1.0 + 1e-15, 0.5]).astype(complex)[None]
        t = _linear(np.concatenate([0.5 * k, k]), np.ones((2, 3), dtype=complex), _e0(4),
                    np.arange(4))
        with pytest.raises(NonUniqueFixedPoint) as exc:
            affine_fixed_points(t, _e0(4), np.arange(4))
        assert exc.value.eigenspace_dim == 2

    def test_weakly_attracting_map_is_unique(self):
        """A gap of 1e-12, an O(g^2) cooling rate at g = 1e-6, is no unit
        eigenvalue."""
        k = np.diag([1.0 - 1e-12, 0.5]).astype(complex)[None]
        t = _linear(k, np.array([[1e-12, 0.5]], dtype=complex), _e0(3), np.arange(3))
        x, alpha, _ = affine_fixed_points(t, _e0(3), np.arange(3))
        np.testing.assert_allclose(x[0], [1.0, 1.0, 1.0], rtol=1e-3)
        np.testing.assert_allclose(alpha, [1e-12], rtol=1e-3)

    def test_a_map_that_breaks_hermiticity_is_refused(self):
        """An entry fed by the conserved one and decaying at 1e-13, its
        conjugate partner at 1/2: the solve gives y_1 = 1e13 and y_2 = 0,
        hermitized to 5e12 each, which T does not fix."""
        t = np.diag([1.0, 1.0 - 1e-13, 0.5, 0.5]).astype(complex)[None]
        t[0, 1, 0] = 1.0
        with pytest.raises(NonUniqueFixedPoint) as exc:
            affine_fixed_points(t, _e0(4), _swaps(4))
        assert exc.value.eigenspace_dim == 1


def uniform_average(z) -> np.ndarray:
    """W_01 of `random_time_average` at z, through identity factors l_n = e_n,
    which return W itself: t_mean = 1/2, rate Re z and eigenvalues (Im z, 0)
    give exactly z = rate + i (e_0 - e_1)."""
    z = np.asarray(z, dtype=complex)
    e = np.stack([z.imag, np.zeros_like(z.imag)], axis=-1)
    return random_time_average(np.eye(2)[:, None, :], e, z.real, 0.5)[..., 0, 1]


class TestUniformAverage:
    """(1 - e^{-z}) / z, the mean of e^{-(gamma + i omega) t} over uniform t on
    [0, 2 t_mean] at z = 2 t_mean (gamma + i omega): the kernel W of
    `random_time_average`."""

    T_MEAN = 20.0

    def _grid(self):
        """z over gamma in {0, 1e-12, ..., 1e-3} and |omega| t_mean in [1e-12, 1e3]."""
        omega_t = np.logspace(-12.0, 3.0, 61)
        return np.array([2.0 * (gamma * self.T_MEAN + 1j * sign * wt)
                         for gamma in (0.0, 1e-12, 1e-9, 1e-6, 1e-3)
                         for wt in omega_t for sign in (1.0, -1.0)])

    def test_matches_mpmath(self):
        mpmath = pytest.importorskip("mpmath")
        z = self._grid()
        got = uniform_average(z)
        with mpmath.workdps(40):
            for z_i, got_i in zip(z, got):
                zm = mpmath.mpc(z_i.real, z_i.imag)
                ref = -mpmath.expm1(-zm) / zm
                assert abs(mpmath.mpc(got_i.real, got_i.imag) - ref) <= 2e-15 * abs(ref), z_i

    def test_small_z_matches_taylor_series(self):
        """1 - z/2 + z^2/6 - z^3/24 + ..., to rounding for |z| < 1e-3; checks
        complex expm1 without mpmath."""
        z = self._grid()
        z = z[np.abs(z) < 1e-3]
        series = sum((-z) ** n / math.factorial(n + 1) for n in range(6))
        assert np.all(np.abs(uniform_average(z) - series) <= 2e-15 * np.abs(series))

    def test_zero_is_one(self):
        """z = 0 (p = q without noise, or t_mean = 0) averages e^0 = 1."""
        assert uniform_average(0.0) == 1.0 and uniform_average(0j) == 1.0
        assert np.array_equal(uniform_average(np.zeros((2, 2), dtype=complex)),
                              np.ones((2, 2)))
