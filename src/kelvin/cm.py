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

States and maps are plain arrays.  A block's state is x = (1, vec gamma), on
which the affine cycle vec(gamma) -> K vec(gamma) + c is the linear transfer
[[1, 0], [c, K]], composed, powered and solved as the Fock engine's are.
`cycle_maps` yields the transfers of a stack of modes, one per time, at fixed
times from one stacked eigendecomposition or averaged over random times
(`averaged_evolution_kron`).
"""

from __future__ import annotations

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
    (ks, x = (1, vec gamma) stacked over ks) for each group of `mode_groups`."""
    if kind not in ("vacuum", "most_excited"):
        raise ValueError(f"unknown initial state kind {kind!r}")
    gamma = vacuum_cm() if kind == "vacuum" else most_excited_cm()
    return [(ks, np.tile(_states(gamma), (len(ks), 1))) for ks in mode_groups(n2)]


def _states(gamma: np.ndarray) -> np.ndarray:
    """State vectors x = (1, vec gamma) of CMs stacked to (..., 2, 2)."""
    lead = np.shape(gamma)[:-2]
    return np.concatenate([np.ones(lead + (1,)), np.reshape(gamma, lead + (4,))], axis=-1)


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
    """Yield the transfers [[1, 0], [c, K]] on x = (1, vec gamma) of one bath
    frequency, stacked over `block`, one per time in `ts`, in order.

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
    `kappa` damps K and c by exp(-2 kappa t), averaged with the phases.
    """
    generators = block.generator
    if any(t is not None for t in ts):
        e, v = np.linalg.eigh(generators)
        v_dag = v.conj().swapaxes(-1, -2)
    for t in ts:
        transfer = np.zeros(generators.shape[:-2] + (5, 5), dtype=complex)
        transfer[..., 0, 0] = 1.0
        if t is None:
            transfer[..., 1:, 1:], k_sb = averaged_evolution_kron(generators, t_mean, kappa=kappa)
            transfer[..., 1:, 0] = k_sb @ vacuum_cm().reshape(-1)
            yield transfer
            continue
        u = (v * np.exp(-1j * (t * e))[..., None, :]) @ v_dag
        a_s = u[..., :2, :2]
        k_s = np.einsum("...ij,...ab->...iajb", a_s, a_s.conj()).reshape(a_s.shape[:-2] + (4, 4))
        c = _injection(u[..., :2, 2:4])
        if block.env is not None:
            c = c + block.env.p_e * (_injection(u[..., :2, 4:6]) + _injection(u[..., :2, 6:8]))
        damping = np.exp(-2.0 * kappa * np.array([t]))
        transfer[..., 1:, 1:], transfer[..., 1:, 0] = damping * k_s, damping * c
        yield transfer


def mode_chunks(ks: np.ndarray, env: NoiseSpec | None) -> list[np.ndarray]:
    """Chunks of the modes `ks` for `cycle_maps`: one, CM maps are 5x5."""
    return [ks]


# projector onto the 1 and an edge's physical direction (1, 0, 0, -1)/sqrt(2)
_EDGE_PROJECTOR = np.diag([1.0, 0.5, 0.0, 0.0, 0.5])
_EDGE_PROJECTOR[1, 4] = _EDGE_PROJECTOR[4, 1] = -0.5


def fixed_points(k: np.ndarray, edge=False) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Unique fixed points of stacked CM transfers T (modes, 5, 5) on x = (1,
    vec gamma), `edge` flagging the edge modes (a bool or one per mode).

    Returns the fixed points x with hermitized gamma, the cooling rates alpha
    = -log|lambda_max| of K and the residuals max |x - T x| per mode, from
    `_linalg.affine_fixed_points`, the solve the Fock engine shares, with the
    1 as the conserved entry.  Physical CMs span all of vec(gamma) for a pair,
    but only diag(1, -1) for an edge, whose gamma is diag(1/2 - n, n - 1/2):
    that direction is an eigenvector of K, and the other three carry no state
    (at eps = 0 they do not decay), so an edge map is projected onto the 1 and
    that direction, which gives the other three the eigenvalue 0.
    """
    edge, projected = np.broadcast_to(edge, k.shape[:1]), k.copy()
    projected[edge] = _EDGE_PROJECTOR @ k[edge] @ _EDGE_PROJECTOR
    x, alpha = affine_fixed_points(projected, np.arange(5) == 0)
    resid = np.max(np.abs(x - (k @ x[..., None])[..., 0]), axis=-1)
    return _states(hermitize(matrices(x))), alpha, resid


# ---------------------------------------------------------------------------
# energies and fidelities
# ---------------------------------------------------------------------------

def matrices(x: np.ndarray) -> np.ndarray:
    """The 2x2 CMs gamma of state vectors x = (1, vec gamma) stacked to (..., 5)."""
    return x[..., 1:].reshape(x.shape[:-1] + (2, 2))


def reduce(ks: np.ndarray, x: np.ndarray, eps: np.ndarray, wts: np.ndarray,
           n2: int) -> tuple[np.ndarray, np.ndarray]:
    """Energies w eps (gamma_22 - gamma_11) and vacuum fidelities of the modes
    `ks` (edges k = 0, n2: 1 - n; pairs: Wick) from x = (1, vec gamma) stacked
    to (..., len(ks), 5); `eps` and `wts` are indexed by k."""
    gamma = matrices(x)
    n_a = 0.5 - gamma[..., 0, 0].real
    n_b = 0.5 + gamma[..., 1, 1].real
    energy = wts[ks] * eps[ks] * (gamma[..., 1, 1].real - gamma[..., 0, 0].real)
    pair = 1.0 - n_a - n_b + (n_a * n_b + np.abs(gamma[..., 0, 1]) ** 2)
    edge = (ks == 0) | (ks == n2)
    return energy, np.maximum(np.where(edge, 1.0 - n_a, pair), 0.0)


def cm_energy(gamma: np.ndarray, epsilon: float, weight: float) -> float:
    """Block energy weight * eps * (gamma_22 - gamma_11): one row of `reduce`."""
    return float(reduce(np.zeros(1, dtype=int), _states(np.reshape(gamma, (1, 2, 2))),
                        np.array([epsilon]), np.array([weight]), 0)[0][0])


def cm_fidelity(gamma: np.ndarray, edge: bool) -> float:
    """Vacuum probability of a block: one row of `reduce`, as mode 0 (an edge)
    or mode 1 (a pair) of n2 = 2."""
    return float(reduce(np.array([0 if edge else 1]), _states(np.reshape(gamma, (1, 2, 2))),
                        np.zeros(2), np.zeros(2), 2)[1][0])
