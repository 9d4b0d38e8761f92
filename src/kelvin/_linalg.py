"""Small dense linear-algebra helpers used by the exact engines.

Vectorization is row-major throughout: vec(rho) = rho.reshape(-1), and a
superoperator acting as rho -> sum_b K_b rho K_b^dag has transfer matrix
sum_b kron(K_b, K_b.conj()).
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss

HERMITICITY_ATOL = 1e-12
TRACE_ATOL = 1e-10
FIXED_POINT_ATOL = 1e-10


def vec(rho: np.ndarray) -> np.ndarray:
    return np.asarray(rho).reshape(-1)


def hermitize(m: np.ndarray) -> np.ndarray:
    """Hermitian part of a matrix, or of each matrix in a stack."""
    return 0.5 * (m + m.conj().swapaxes(-1, -2))


def trace_norm(m: np.ndarray) -> float:
    """Sum of singular values (Schatten 1-norm)."""
    return float(np.linalg.svd(np.asarray(m), compute_uv=False).sum())


def choi_from_transfer(t: np.ndarray) -> np.ndarray:
    """Choi matrix (unnormalized) of a transfer matrix in row-major vec.

    C[(m,i),(n,j)] = S(|m><n|)_{ij} = T[(i,j),(m,n)].
    """
    d2 = t.shape[0]
    d = int(round(np.sqrt(d2)))
    t4 = t.reshape(d, d, d, d)  # (i, j, m, n)
    c = np.transpose(t4, (2, 0, 3, 1))  # (m, i, n, j)
    return c.reshape(d2, d2)


def is_trace_preserving(t: np.ndarray, atol: float = TRACE_ATOL) -> bool:
    d = int(round(np.sqrt(t.shape[0])))
    vec_id = vec(np.eye(d, dtype=complex))
    return bool(np.max(np.abs(vec_id @ t - vec_id)) <= atol)


def choi_min_eig(t: np.ndarray) -> float:
    c = choi_from_transfer(t)
    return float(np.linalg.eigvalsh(hermitize(c)).min())


def apply_transfer(t: np.ndarray, rho: np.ndarray) -> np.ndarray:
    d = rho.shape[0]
    return (t @ vec(rho)).reshape(d, d)


@lru_cache(maxsize=16)
def gauss_legendre(nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only Gauss-Legendre nodes x on [-1, 1] and weights w/2.

    The halved weights sum to one, so t = t_mean (x + 1) with these weights
    averages over uniform times on [0, 2 t_mean].
    """
    x, w = leggauss(nodes)
    w = w / 2.0
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


def phase_average(w: np.ndarray, phases: np.ndarray) -> np.ndarray:
    """W_pq = sum_n w_n P_np P*_nq, the average of e^{-i (e_p - e_q) t} over nodes
    t_n with weights w_n, from phases P_np = e^{-i e_p t_n} of shape (nodes, ..., p)."""
    weighted = np.reshape(w, (-1,) + (1,) * (phases.ndim - 1)) * phases
    return np.einsum("n...p,n...q->...pq", weighted, phases.conj())
