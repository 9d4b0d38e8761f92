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
`cycle_maps` yields the transfers of a stack of modes, one per time, all
assembled from the kron blocks A_B (x) A_B* of the propagator's column blocks
B: at fixed times gathered from U, and over random times their exact average
(`averaged_evolution_kron`, by `_linalg.random_time_average`).  Every block
has the same 5x5 transfer, so `mode_groups` stacks all modes at once, and
`cycle_maps` projects an edge's transfer onto its physical span, where it
reads `block.is_edge`; no other function needs to know the edges but
`reduce`.
"""

from __future__ import annotations

import numpy as np

from ._linalg import affine_fixed_points, random_time_average
from .model import ModeBlock, NoiseSpec

__all__ = [
    "vacuum_cm",
    "most_excited_cm",
    "mode_groups",
    "initial_blocks",
    "averaged_evolution_kron",
    "cycle_maps",
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


def mode_groups(n2: int, env: NoiseSpec | None) -> list[np.ndarray]:
    """The modes k = 0..n2 as stacks built and stepped at once: one, since
    every CM map is 5x5, with or without the environments `env`."""
    return [np.arange(n2 + 1)]


def initial_blocks(kind: str, ks: np.ndarray, n2: int) -> np.ndarray:
    """The product state "vacuum" or "most_excited" of the modes `ks` of k =
    0..n2: x = (1, vec gamma) stacked over ks, edges and pairs alike."""
    gamma = vacuum_cm() if kind == "vacuum" else most_excited_cm()
    return np.tile(_states(gamma), (len(ks), 1))


def _states(gamma: np.ndarray) -> np.ndarray:
    """State vectors x = (1, vec gamma) of CMs stacked to (..., 2, 2)."""
    lead = np.shape(gamma)[:-2]
    return np.concatenate([np.ones(lead + (1,)), np.reshape(gamma, lead + (4,))], axis=-1)


# K_B[(i,a),(j,b)] = U[i, 2B+j] U*[a, 2B+b], the kron blocks of the column
# blocks A_B = U[:2, 2B:2B+2] of the propagator, B = S, SB, SE1, SE2: the rows
# _I, _A and the columns _J, _B in U of the two factors, tables (B, 4, 4)
_I, _A, _J, _B = np.indices((2, 2, 2, 2)).reshape(4, 4, 4)
_J, _B = (2 * np.arange(4)[:, None, None] + x for x in (_J, _B))


def averaged_evolution_kron(block: ModeBlock | np.ndarray, t_mean: float,
                            kappa: float = 0.0) -> np.ndarray:
    """E[D A_B (x) A_B*] over uniform times on [0, 2 t_mean] for the column
    blocks A_B = U[:2, 2B:2B+2] of the propagator, B = S, SB (and SE1, SE2
    with environments), stacked first: (B, ..., 4, 4).

    D = exp(-2 kappa t) is the damping of uniform gain/loss noise of rate
    kappa over a cycle of duration t (1 without noise); the linear CM map
    averages directly because it is linear in the kron blocks.  `block` is
    one block or a (..., D, D) stack of generators G = V diag(e) V^dag.  The
    products U_ij U*_ab of the entries of U's system rows are averaged at once
    by `_linalg.random_time_average` from l_(ij) = V_i. V*_j., and the blocks
    read from them by the same tables as `cycle_maps`' fixed times.
    """
    generators = block.generator if isinstance(block, ModeBlock) else np.asarray(block)
    e, v = np.linalg.eigh(generators)
    lead, dim = generators.shape[:-2], generators.shape[-1]
    l = (v[..., :2, None, :] * v[..., None, :, :].conj()).reshape(lead + (2 * dim, 1, dim))
    m = random_time_average(l, e, 2.0 * kappa, t_mean).reshape(lead + (2, dim, 2, dim))
    return np.moveaxis(m[..., _I, _J[:dim // 2], _A, _B[:dim // 2]], -3, 0)


# projector onto the 1 and an edge's physical direction (1, 0, 0, -1)/sqrt(2)
_EDGE_PROJECTOR = np.diag([1.0, 0.5, 0.0, 0.0, 0.5])
_EDGE_PROJECTOR[1, 4] = _EDGE_PROJECTOR[4, 1] = -0.5


def cycle_maps(block: ModeBlock, ts, t_mean: float, kappa: float):
    """Yield the transfers [[1, 0], [c, K]] on x = (1, vec gamma) of one bath
    frequency, stacked over `block`, one per time in `ts`, in order.

    A cycle of duration t is gamma -> A_S gamma A_S^dag + A_SB gamma_B0
    A_SB^dag in row-major vectorized form, gamma_B0 the reset bath's vacuum
    CM, so with the kron blocks K_B = D A_B (x) A_B* (`averaged_evolution_kron`)
    K = K_S and c = K_SB vec gamma_B0.  Environment-extended (8x8) blocks add
    the injections p_e (K_SE1 + K_SE2) vec gamma_B0 of both environment
    pairs, each starting in p_e = `block.env.p_e` times the bath's vacuum CM;
    pair 1 couples to the system and pair 2 to the bath, which passes its
    share on within the cycle, so with both the map is exact.  A fixed time
    takes the kron blocks' entries of U from one batched eigh of the
    generators; a time of None their average over [0, 2 t_mean].

    Physical CMs span all of vec(gamma) for a pair, but only diag(1, -1) for
    an edge (`block.is_edge`), whose gamma is diag(1/2 - n, n - 1/2).  An
    edge's transfer leaves the span of the 1 and that direction invariant,
    and the other three directions carry no state (at eps = 0 they do not
    decay), so it is projected onto that span, which gives them the
    eigenvalue 0; products of projected transfers are the projected products.
    """
    generators = block.generator
    n_blocks = generators.shape[-1] // 2
    if any(t is not None for t in ts):
        e, v = np.linalg.eigh(generators)
        v_dag = v.conj().swapaxes(-1, -2)
    for t in ts:
        if t is None:
            k = averaged_evolution_kron(generators, t_mean, kappa=kappa)
        else:
            u = (v[..., :2, :] * np.exp(-1j * (t * e))[..., None, :]) @ v_dag
            k = np.exp(-2.0 * kappa * t) * np.moveaxis(
                u[..., _I, _J[:n_blocks]] * u[..., _A, _B[:n_blocks]].conj(), -3, 0)
        injection = k[1] if block.env is None else k[1] + block.env.p_e * (k[2] + k[3])
        transfer = np.zeros(generators.shape[:-2] + (5, 5), dtype=complex)
        transfer[..., 0, 0] = 1.0
        transfer[..., 1:, 1:], transfer[..., 1:, 0] = k[0], injection @ vacuum_cm().reshape(-1)
        transfer[block.is_edge] = _EDGE_PROJECTOR @ transfer[block.is_edge] @ _EDGE_PROJECTOR
        yield transfer


# x[_CONJ] = (1, vec gamma^T): conjugated, the entries of gamma^dag
_CONJ = np.array([0, 1, 3, 2, 4])


def fixed_points(k: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Unique fixed points of stacked CM transfers T (modes, 5, 5) on x = (1,
    vec gamma), as `cycle_maps` yields them (an edge's projected).

    Returns the fixed points x with Hermitian gamma, the cooling rates alpha
    = -log|lambda_max| of K and the residuals sum |T x - x| per mode, with
    the verdict on them, from `_linalg.affine_fixed_points`, the solve the
    Fock engine shares, with the 1 as the conserved entry.
    """
    return affine_fixed_points(k, np.arange(5) == 0, _CONJ)


# ---------------------------------------------------------------------------
# energies and fidelities
# ---------------------------------------------------------------------------

def matrices(x: np.ndarray) -> np.ndarray:
    """The 2x2 CMs gamma of state vectors x = (1, vec gamma) stacked to (..., 5)."""
    return x[..., 1:].reshape(x.shape[:-1] + (2, 2))


def reduce(ks: np.ndarray, x: np.ndarray, w_eps: np.ndarray,
           n2: int) -> tuple[np.ndarray, np.ndarray]:
    """Energies w eps (gamma_22 - gamma_11) and vacuum fidelities of the modes
    `ks` (edges k = 0, n2: 1 - n; pairs: Wick) from x = (1, vec gamma) stacked
    to (..., len(ks), 5); `w_eps`, the weighted mode energies w eps, is
    indexed by k on its last axis, and its leading axes, one row per case of
    a stack of chains, broadcast with x's."""
    gamma = matrices(x)
    n_a = 0.5 - gamma[..., 0, 0].real
    n_b = 0.5 + gamma[..., 1, 1].real
    energy = w_eps[..., ks] * (gamma[..., 1, 1].real - gamma[..., 0, 0].real)
    pair = 1.0 - n_a - n_b + (n_a * n_b + np.abs(gamma[..., 0, 1]) ** 2)
    edge = (ks == 0) | (ks == n2)
    return energy, np.maximum(np.where(edge, 1.0 - n_a, pair), 0.0)


def cm_energy(gamma: np.ndarray, epsilon: float, weight: float) -> float:
    """Block energy weight * eps * (gamma_22 - gamma_11): one row of `reduce`."""
    return float(reduce(np.zeros(1, dtype=int), _states(np.reshape(gamma, (1, 2, 2))),
                        np.array([weight * epsilon]), 0)[0][0])


def cm_fidelity(gamma: np.ndarray, edge: bool) -> float:
    """Vacuum probability of a block: one row of `reduce`, as mode 0 (an edge)
    or mode 1 (a pair) of n2 = 2."""
    return float(reduce(np.array([0 if edge else 1]), _states(np.reshape(gamma, (1, 2, 2))),
                        np.zeros(2), 2)[1][0])
