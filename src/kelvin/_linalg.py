"""Small dense linear-algebra helpers used by the exact engines: their one
random-time average (`random_time_average`) and their one fixed-point solve
and verdict (`affine_fixed_points`).

Vectorization is row-major throughout: vec(rho) = rho.reshape(-1), and a
superoperator acting as rho -> sum_b K_b rho K_b^dag has transfer matrix
sum_b kron(K_b, K_b.conj()).
"""

from __future__ import annotations

import numpy as np

from .errors import NonUniqueFixedPoint

HERMITICITY_ATOL = 1e-12
FIXED_POINT_ATOL = 1e-10
# an eigenvalue of K counts as 1 up to this multiple of eps ||K||_F: 10 n eps
# with n = 4, the size of a CM K once the conserved entry is eliminated (7 for
# a Fock pair)
UNIT_EIGENVALUE_TOL = 40.0 * float(np.finfo(float).eps)


def random_time_average(l: np.ndarray, e: np.ndarray, rate: float | np.ndarray,
                        t_mean: float) -> np.ndarray:
    """M = sum_b l_b W l_b^dag, the average of products of propagator entries
    over uniform cycle times t on [0, 2 t_mean]: the random-time average of
    both engines.

    With U = V e^{-iEt} V^dag, E[e^{-rate t} U_ab U*_cd] = sum_{p,q} V_ap
    V*_bp W_pq V*_cq V_dq, where W_pq = E[e^{-(rate + i (E_p - E_q)) t}] = (1
    - e^{-z}) / z, z = 2 t_mean (rate + i (E_p - E_q)), and 1 at z = 0 (expm1
    keeps it accurate to rounding at small |z| too).  So no propagator is
    formed: with l[..., n, b, p] = V[r_nb, p] V*[c_nb, p], gathered by the
    engine, M[n, n'] = sum_b E[e^{-rate t} U[r_nb, c_nb] U*[r_n'b, c_n'b]].
    `e` (..., p) and `rate` broadcast over the leading axes with `l`, and W
    is formed once per stack.
    """
    z = 2.0 * t_mean * (np.asarray(rate)[..., None, None] + 1j * (e[..., :, None] - e[..., None, :]))
    zero = z == 0
    z = np.where(zero, 1.0, z)
    w = np.where(zero, 1.0, -np.expm1(-z) / z)
    lw = l.reshape(l.shape[:-3] + (-1, l.shape[-1])) @ w
    lw = lw.reshape(lw.shape[:-2] + (l.shape[-3], -1))
    return lw @ l.reshape(l.shape[:-3] + (l.shape[-3], -1)).conj().swapaxes(-1, -2)


def affine_fixed_points(k: np.ndarray, tau: np.ndarray,
                        conj: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Unique Hermitian fixed points x = T x with tau.x = 1 of stacked maps T
    (maps, n, n) that conserve tau.x and Hermiticity, with rates and
    residuals: the one fixed-point verdict of both engines.

    tau is a boolean (n,) marker led by x_0, and `conj` the index
    permutation that takes x to the entries of its conjugate transpose (CM:
    gamma_01 <-> gamma_10; Fock: the transpose inside each parity block).
    Eliminating x_0 = 1 - tau[1:].y, y = x[1:], leaves y -> K y + c with K =
    T_yy - T_y0 tau[1:]^T, c = T_y0 and T's spectrum less its conserved 1
    (exact for tau = e_0, where K = T_yy).  The fixed point is unique iff 1
    is not an eigenvalue of K; eigenvalues within UNIT_EIGENVALUE_TOL ||K||_F
    of 1 count as 1, and a map with any raises NonUniqueFixedPoint with their
    number.  The rate alpha = -log max|lambda(K)| is O(g^2) in weak coupling,
    and the solve is conditioned like 1/alpha.  One batched LU solve of (I -
    K) y = c with one refinement step, whose residual is an einsum so that
    each map gets the same bits in any stack.  The solution is hermitized, x
    <- (x + conj(x[conj])) / 2, and a map whose state then misses T x = x by
    more than FIXED_POINT_ATOL in sum |T x - x| (at least the trace norm of
    the density's miss) raises NonUniqueFixedPoint with dimension 1: so does
    one that does not preserve Hermiticity.
    """
    k_y, c = k[:, 1:, 1:] - k[:, 1:, :1] * tau[1:], k[:, 1:, 0]
    evals = np.linalg.eigvals(k_y)
    unit_tol = UNIT_EIGENVALUE_TOL * np.linalg.norm(k_y, axis=(-2, -1))
    n_unit = np.sum(np.abs(evals - 1.0) <= unit_tol[:, None], axis=-1)
    if n_unit.any():
        raise NonUniqueFixedPoint(int(n_unit[np.argmax(n_unit > 0)]))
    a = np.eye(k_y.shape[-1]) - k_y
    y = np.linalg.solve(a, c[..., None])[..., 0]
    y += np.linalg.solve(a, (c - np.einsum("...ij,...j->...i", a, y))[..., None])[..., 0]
    x = np.concatenate([1.0 - y[:, tau[1:]].sum(axis=-1, keepdims=True), y], axis=-1)
    x = 0.5 * (x + x[:, conj].conj())
    resid = np.abs(np.einsum("...ij,...j->...i", k, x) - x).sum(axis=-1)
    if np.max(resid, initial=0.0) > FIXED_POINT_ATOL:
        raise NonUniqueFixedPoint(1, f"fixed-point residual {np.max(resid):.2e} above tolerance")
    return x, -np.log(np.max(np.abs(evals), axis=-1)), resid
