"""Fast exact engine in the fermionic correlation-matrix formalism.

States are tracked per block through gamma_ij = (1/2) tr(rho [alpha_i,
alpha_j^dag]) over the operator vector (a_k, a_-k^dag) for the system pair
(2x2; edges reduce to a diagonal 2x2 on (a, a^dag)).  One cooling cycle acts
as gamma -> A_S gamma A_S^dag + A_SB gamma_B0 A_SB^dag with the A-blocks cut
out of the single-particle propagator, and uniform gain/loss noise of rate
kappa multiplies the whole cycle by exp(-2 kappa t).  A block built with
finite environments (`ModeBlock.env`) adds their injections, with the
polarization p_E read from the block.

Conventions differ from Majorana-covariance treatments that absorb a factor
of two into the time and normalize the noise rate differently; here the
propagator for a physical cycle of duration t is exp(-i G t) with G the
block's Heisenberg generator, which is what reproduces the Fock-space engine
exactly.

States and maps are plain arrays: `cycle_maps` yields the affine maps
vec(gamma) -> K vec(gamma) + c of a stack of modes, one per time, at fixed
times from one stacked eigendecomposition or averaged over random times
(`averaged_evolution_kron`).
"""

from __future__ import annotations

import math

import numpy as np

from ._linalg import affine_fixed_points, hermitize, uniform_average
from .model import ModeBlock, NoiseSpec

__all__ = [
    "vacuum_cm",
    "most_excited_cm",
    "mode_groups",
    "initial_blocks",
    "averaged_evolution_kron",
    "cycle_maps",
    "mode_chunks",
    "fixed_points",
    "reduce",
    "matrices",
    "cm_energy",
    "cm_fidelity",
]


def vacuum_cm() -> np.ndarray:
    """Ground-state (Bogoliubov vacuum) system CM."""
    return np.diag([0.5, -0.5]).astype(complex)


def most_excited_cm() -> np.ndarray:
    return np.diag([-0.5, 0.5]).astype(complex)


def mode_groups(n2: int) -> list[np.ndarray]:
    """Mode indices stepped as one stack: every CM block is 2x2, so one group."""
    return [np.arange(n2 + 1)]


def initial_blocks(kind: str, n2: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Product initial state over k = 0..n2, "vacuum" or "most_excited", as
    (ks, vec(gamma) stacked over ks) for each group of `mode_groups`."""
    if kind not in ("vacuum", "most_excited"):
        raise ValueError(f"unknown initial state kind {kind!r}")
    gamma = vacuum_cm() if kind == "vacuum" else most_excited_cm()
    return [(ks, np.tile(gamma.reshape(-1), (len(ks), 1))) for ks in mode_groups(n2)]


def _injection(a: np.ndarray) -> np.ndarray:
    """vec(A gamma_B0 A^dag) for stacked blocks A, gamma_B0 the vacuum CM."""
    return (a @ vacuum_cm() @ a.conj().swapaxes(-1, -2)).reshape(a.shape[:-2] + (4,))


def averaged_evolution_kron(block: ModeBlock | np.ndarray, t_mean: float,
                            kappa: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
    """(E[D A_S (x) A_S*], E[D A_SB (x) A_SB*]) over uniform times on [0, 2 t_mean].

    D = exp(-2 kappa t) is the damping of uniform gain/loss noise of rate
    kappa over a cycle of duration t (1 without noise).  These are the
    vectorized-map ingredients of the randomized-time cycle; the linear CM map
    averages directly because it is linear in the kron blocks.  `block` is one
    block, giving (4, 4) averages, or a (..., 4, 4) stack of generators,
    giving (..., 4, 4) stacks.

    Only the phases depend on the time: with G = V diag(e) V^dag,
    E[D U_ij U*_ab] = sum_pq V_ip V*_jp V*_aq V_bq W_pq, where
    W_pq = E[e^{-(2 kappa + i (e_p - e_q)) t}] = (1 - e^{-z}) / z with
    z = 2 t_mean (2 kappa + i (e_p - e_q)), so no propagator is formed.  With
    M_(ia),(pq) = V_ip V*_aq over the system rows and N the same over the bath
    rows, the averages are the matrix products M diag(vec W) M^dag and
    M diag(vec W) N^dag.
    """
    generators = block.generator if isinstance(block, ModeBlock) else np.asarray(block)
    e, v = np.linalg.eigh(generators)
    w_pq = uniform_average(2.0 * t_mean * (2.0 * kappa + 1j * (e[..., :, None] - e[..., None, :])))
    lead = generators.shape[:-2]
    m, n = ((r[..., :, None, :, None] * r[..., None, :, None, :].conj()).reshape(lead + (4, -1))
            for r in (v[..., :2, :], v[..., 2:4, :]))
    k = (m * w_pq.reshape(lead + (1, -1))) @ np.concatenate([m, n], axis=-2).conj().swapaxes(-1, -2)
    return k[..., :4], k[..., 4:]


def cycle_maps(block: ModeBlock, ts, t_mean: float, kappa: float):
    """Yield the maps vec(gamma) -> K vec(gamma) + c of one bath frequency,
    as (K, c) stacked over `block`, one per time in `ts`, in order.

    For the fixed times the generators are diagonalized once, G = V diag(e)
    V^dag, in one batched eigh.  A fixed time t gives the cycle gamma ->
    A_S gamma A_S^dag + A_SB gamma_B0 A_SB^dag in row-major vectorized form,
    K = A_S (x) A_S* and c = vec(A_SB gamma_B0 A_SB^dag), gamma_B0 the reset
    bath's vacuum CM, with the A-blocks cut from the propagator e^{-iGt}.
    Environment-extended (8x8) blocks add the injections p_e vec(A_SE
    gamma_B0 A_SE^dag) of both environment pairs, each pair starting in p_e =
    `block.env.p_e` times the bath's vacuum CM; pair 1 couples to the system
    and pair 2 to the bath, which passes its share on within the cycle, so
    with both the map is exact.  A time of None stands for
    `averaged_evolution_kron` over [0, 2 t_mean].  Gain/loss noise of rate
    `kappa` damps a map by exp(-2 kappa t), averaged with the phases.
    """
    generators = block.generator
    if any(t is not None for t in ts):
        e, v = np.linalg.eigh(generators)
        v_dag = v.conj().swapaxes(-1, -2)
    for t in ts:
        if t is None:
            k_s, k_sb = averaged_evolution_kron(generators, t_mean, kappa=kappa)
            yield k_s, k_sb @ vacuum_cm().reshape(-1)
            continue
        u = (v * np.exp(-1j * (t * e))[..., None, :]) @ v_dag
        a_s = u[..., :2, :2]
        k_s = np.einsum("...ij,...ab->...iajb", a_s, a_s.conj()).reshape(a_s.shape[:-2] + (4, 4))
        c = _injection(u[..., :2, 2:4])
        if block.env is not None:
            c = c + block.env.p_e * (_injection(u[..., :2, 4:6]) + _injection(u[..., :2, 6:8]))
        damping = np.exp(-2.0 * kappa * np.array([t]))
        yield damping * k_s, damping * c


def mode_chunks(ks: np.ndarray, env: NoiseSpec | None) -> list[np.ndarray]:
    """Chunks of the modes `ks` for `cycle_maps`: one, CM maps are 4x4."""
    return [ks]


_EDGE_DIRECTION = np.array([1.0, 0.0, 0.0, -1.0]) / math.sqrt(2.0)


def fixed_points(k_s: np.ndarray, c: np.ndarray,
                 edge=False) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Unique fixed points of stacked affine CM maps vec(gamma) -> K vec(gamma) + c.

    `k_s` is (modes, 4, 4), `c` is (modes, 4) and `edge` flags the edge modes
    (a bool or one per mode).  Returns the hermitized fixed points x (modes,
    4), the cooling rates alpha = -log|lambda_max| per map, and the residuals
    max |x - K x - c| per mode, from `_linalg.affine_fixed_points`, the solve
    the Fock engine shares.  Physical CMs span all of vec(gamma) for a pair,
    but only diag(1, -1) for an edge, whose gamma is diag(1/2 - n, n - 1/2):
    that direction is an eigenvector of K, and the other three carry no state
    (at eps = 0 they do not decay), so an edge is solved on it as a 1x1 map.
    """
    edge = np.broadcast_to(np.asarray(edge, dtype=bool), k_s.shape[:1])
    u = _EDGE_DIRECTION
    x = np.empty(c.shape, dtype=complex)
    alpha = np.empty(len(k_s))
    x[~edge], alpha[~edge] = affine_fixed_points(k_s[~edge], c[~edge])
    y, alpha[edge] = affine_fixed_points(np.einsum("i,mij,j->m", u, k_s[edge], u)[:, None, None],
                                         (c[edge] @ u)[:, None])
    x[edge] = y * u
    resid = np.max(np.abs(x - (k_s @ x[..., None])[..., 0] - c), axis=-1)
    return hermitize(x.reshape(-1, 2, 2)).reshape(-1, 4), alpha, resid


# ---------------------------------------------------------------------------
# energies and fidelities
# ---------------------------------------------------------------------------

def matrices(x: np.ndarray) -> np.ndarray:
    """The 2x2 CMs gamma of vec(gamma) stacked to (..., 4)."""
    return x.reshape(x.shape[:-1] + (2, 2))


def reduce(ks: np.ndarray, x: np.ndarray, eps: np.ndarray, wts: np.ndarray,
           n2: int) -> tuple[np.ndarray, np.ndarray]:
    """Energies w eps (gamma_22 - gamma_11) and vacuum fidelities of the modes
    `ks` (edges k = 0, n2: 1 - n; pairs: Wick) from x = vec(gamma) stacked to
    (..., len(ks), 4); `eps` and `wts` are indexed by k."""
    n_a = 0.5 - x[..., 0].real
    n_b = 0.5 + x[..., 3].real
    energy = wts[ks] * eps[ks] * (x[..., 3].real - x[..., 0].real)
    pair = 1.0 - n_a - n_b + (n_a * n_b + np.abs(x[..., 1]) ** 2)
    edge = (ks == 0) | (ks == n2)
    return energy, np.maximum(np.where(edge, 1.0 - n_a, pair), 0.0)


def cm_energy(gamma: np.ndarray, epsilon: float, weight: float) -> float:
    """Block energy weight * eps * (gamma_22 - gamma_11): one row of `reduce`."""
    return float(reduce(np.zeros(1, dtype=int), np.reshape(gamma, (1, 4)),
                        np.array([epsilon]), np.array([weight]), 0)[0][0])


def cm_fidelity(gamma: np.ndarray, edge: bool) -> float:
    """Vacuum probability of a block: one row of `reduce`, as mode 0 (an edge)
    or mode 1 (a pair) of n2 = 2."""
    return float(reduce(np.array([0 if edge else 1]), np.reshape(gamma, (1, 4)),
                        np.zeros(2), np.zeros(2), 2)[1][0])
