import numpy as np
import pytest

from kelvin._linalg import affine_fixed_points
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
