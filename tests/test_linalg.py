import math

import numpy as np
import pytest

from kelvin._linalg import affine_fixed_points, uniform_average
from kelvin.errors import NonUniqueFixedPoint


def _contractions(rng, maps, n):
    """Random complex (maps, n, n) stack with spectral radius below one."""
    k = rng.normal(size=(maps, n, n)) + 1j * rng.normal(size=(maps, n, n))
    radius = np.max(np.abs(np.linalg.eigvals(k)), axis=-1)
    return k * (rng.uniform(0.1, 0.99, size=maps) / radius)[:, None, None]


class TestAffineFixedPoints:
    @pytest.mark.parametrize("n", [1, 4, 7])
    def test_solves_and_rates(self, n):
        rng = np.random.default_rng(n)
        k = _contractions(rng, 20, n)
        c = rng.normal(size=(20, n)) + 1j * rng.normal(size=(20, n))
        x, alpha = affine_fixed_points(k, c)
        np.testing.assert_allclose(x, (k @ x[..., None])[..., 0] + c, rtol=0, atol=1e-13)
        np.testing.assert_allclose(alpha, -np.log(np.max(np.abs(np.linalg.eigvals(k)), -1)),
                                   rtol=1e-14)

    def test_each_map_solved_as_if_alone(self):
        """A map's fixed point and rate have the same bits in any stack."""
        rng = np.random.default_rng(5)
        k = _contractions(rng, 9, 7)
        c = rng.normal(size=(9, 7)) + 1j * rng.normal(size=(9, 7))
        x, alpha = affine_fixed_points(k, c)
        for i in range(9):
            x_i, alpha_i = affine_fixed_points(k[i:i + 1], c[i:i + 1])
            assert np.array_equal(x_i[0], x[i]) and alpha_i[0] == alpha[i]

    def test_unit_eigenvalues_raise_with_their_number(self):
        k = np.diag([1.0, 1.0 + 1e-15, 0.5]).astype(complex)[None]
        with pytest.raises(NonUniqueFixedPoint) as exc:
            affine_fixed_points(np.concatenate([0.5 * k, k]), np.ones((2, 3), dtype=complex))
        assert exc.value.eigenspace_dim == 2

    def test_weakly_attracting_map_is_unique(self):
        """A gap of 1e-12, an O(g^2) cooling rate at g = 1e-6, is no unit
        eigenvalue."""
        k = np.diag([1.0 - 1e-12, 0.5]).astype(complex)[None]
        x, alpha = affine_fixed_points(k, np.array([[1e-12, 0.5]], dtype=complex))
        np.testing.assert_allclose(x[0], [1.0, 1.0], rtol=1e-3)
        np.testing.assert_allclose(alpha, [1e-12], rtol=1e-3)


class TestUniformAverage:
    """(1 - e^{-z}) / z, the mean of e^{-(gamma + i omega) t} over uniform t on
    [0, 2 t_mean] at z = 2 t_mean (gamma + i omega)."""

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
