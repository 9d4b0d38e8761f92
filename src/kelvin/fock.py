"""Exact per-block engine on small Fock spaces.

Each (k, -k) pair closes on four operators (a_k, a_-k^dag, b_k, b_-k^dag),
optionally extended by two environment pairs; edge modes use two (or four)
physical modes on a doubled basis.  Blocks are second-quantized with explicit
Jordan-Wigner operators, cycle maps are built by exact exponentiation and a
partial trace over bath (and environments), and steady states and cooling
rates come from the transfer-matrix spectrum restricted to the physical
(parity-diagonal) sector.

This module doubles as the brute-force oracle for the closed-form layer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from ._linalg import (
    FIXED_POINT_ATOL,
    HERMITICITY_ATOL,
    TRACE_ATOL,
    apply_transfer,
    choi_min_eig,
    gauss_legendre,
    hermitize,
    trace_norm,
    vec,
)
from .errors import NonUniqueFixedPoint
from .model import ModeBlock

__all__ = [
    "FockBlock",
    "DensityBlock",
    "Superoperator",
    "second_quantize",
    "exact_cycle_map",
    "noisy_cycle_map",
    "finite_environment_map",
    "averaged_cycle_map",
    "noise_transfer",
    "steady_state",
    "fixed_points",
    "block_energy",
    "vacuum_density",
    "most_excited_density",
    "maximally_mixed_density",
    "fidelity_with_vacuum",
    "noise_factorization_gap",
]


@lru_cache(maxsize=16)
def mode_operators(n_modes: int) -> tuple[np.ndarray, ...]:
    """Annihilation operators for n_modes fermionic modes (Jordan-Wigner).

    Mode 0 is the most significant bit of the Fock index.
    """
    sm = np.array([[0.0, 1.0], [0.0, 0.0]])  # |0><1|
    z = np.diag([1.0, -1.0])
    eye = np.eye(2)
    ops = []
    for m in range(n_modes):
        factors = [z] * m + [sm] + [eye] * (n_modes - m - 1)
        full = factors[0]
        for f in factors[1:]:
            full = np.kron(full, f)
        ops.append(full.astype(complex))
    return tuple(ops)


def _parity_vector(n_modes: int) -> np.ndarray:
    idx = np.arange(2**n_modes)
    return np.array([bin(i).count("1") % 2 for i in idx])


@dataclass
class FockBlock:
    """Second-quantized block Hamiltonian with system/rest bookkeeping."""

    n_modes: int
    hamiltonian: np.ndarray
    mode_labels: tuple[str, ...]
    n_sys_modes: int
    block: ModeBlock
    _eig: tuple[np.ndarray, np.ndarray] | None = field(default=None, repr=False)

    @property
    def d_sys(self) -> int:
        return 2**self.n_sys_modes

    @property
    def d_rest(self) -> int:
        return 2 ** (self.n_modes - self.n_sys_modes)

    def eig(self) -> tuple[np.ndarray, np.ndarray]:
        if self._eig is None:
            e, v = np.linalg.eigh(self.hamiltonian)
            self._eig = (e, v)
        return self._eig

    def propagator(self, t: float) -> np.ndarray:
        e, v = self.eig()
        return (v * np.exp(-1j * e * t)) @ v.conj().T

    def propagators(self, ts: np.ndarray) -> np.ndarray:
        """Stack of e^{-iHt} for an array of times; shape (len(ts), d, d)."""
        e, v = self.eig()
        phases = np.exp(-1j * np.outer(ts, e))  # (n, d)
        return (v * phases[:, None, :]) @ v.conj().T


def second_quantize(block: ModeBlock) -> FockBlock:
    """Realize H = alpha^dag h alpha with explicit fermionic operators.

    Generic pairs use alpha = (a_k, a_-k^dag, b_k, b_-k^dag, ...), i.e. one
    independent mode per matrix row; edge blocks use the doubled basis
    (a, a^dag, b, b^dag, ...) over half as many physical modes.
    """
    h = block.h_sb
    dim = h.shape[0]
    if block.is_edge:
        n_modes = dim // 2
        ops = mode_operators(n_modes)
        alpha = []
        for m in range(n_modes):
            alpha.extend([ops[m], ops[m].conj().T])
        labels = tuple(f"{name}_{block.k}" for name in "abcd"[:n_modes])
        n_sys = 1
    else:
        n_modes = dim
        ops = mode_operators(n_modes)
        alpha = []
        for p in range(n_modes // 2):
            alpha.extend([ops[2 * p], ops[2 * p + 1].conj().T])
        names = "abcd"[: n_modes // 2]
        labels = tuple(f"{nm}_{pm}{block.k}" for nm in names for pm in ("+", "-"))
        n_sys = 2

    d = 2**n_modes
    ham = np.zeros((d, d), dtype=complex)
    for i in range(dim):
        for j in range(dim):
            if h[i, j] != 0:
                ham += h[i, j] * (alpha[i].conj().T @ alpha[j])
    if np.max(np.abs(ham - ham.conj().T)) > 1e-11:
        raise ValueError("second-quantized Hamiltonian not hermitian")
    return FockBlock(n_modes=n_modes, hamiltonian=ham, mode_labels=labels,
                     n_sys_modes=n_sys, block=block)


# ---------------------------------------------------------------------------
# density blocks
# ---------------------------------------------------------------------------

@dataclass
class DensityBlock:
    """Density matrix of one system block.

    Basis |n_k n_-k> (d = 4) for generic pairs, |n_k> (d = 2) for edges.
    """

    matrix: np.ndarray
    k: int

    def validate(self) -> "DensityBlock":
        m = self.matrix
        if np.max(np.abs(m - m.conj().T)) > HERMITICITY_ATOL:
            raise ValueError("density block not hermitian")
        if abs(np.trace(m).real - 1.0) > TRACE_ATOL:
            raise ValueError(f"density block trace {np.trace(m)!r} != 1")
        if np.linalg.eigvalsh(hermitize(m)).min() < -1e-10:
            raise ValueError("density block not positive semidefinite")
        par = _parity_vector(int(math.log2(m.shape[0])))
        off = m[np.not_equal.outer(par, par)]
        if off.size and np.max(np.abs(off)) > 1e-12:
            raise ValueError("density block carries parity-violating coherence")
        return self


def vacuum_density(edge: bool, k: int = 0) -> DensityBlock:
    d = 2 if edge else 4
    m = np.zeros((d, d), dtype=complex)
    m[0, 0] = 1.0
    return DensityBlock(m, k)


def most_excited_density(edge: bool, k: int = 0) -> DensityBlock:
    d = 2 if edge else 4
    m = np.zeros((d, d), dtype=complex)
    m[-1, -1] = 1.0
    return DensityBlock(m, k)


def maximally_mixed_density(edge: bool, k: int = 0) -> DensityBlock:
    d = 2 if edge else 4
    return DensityBlock(np.eye(d, dtype=complex) / d, k)


def fidelity_with_vacuum(rho: DensityBlock | np.ndarray) -> float:
    m = rho.matrix if isinstance(rho, DensityBlock) else rho
    return float(m[0, 0].real)


def block_energy(rho: DensityBlock | np.ndarray, epsilon: float, weight: float):
    """Mode energy and relative energy (E_k, e_k).

    Generic pairs measure eps*(n_k + n_-k - 1) in [-eps, eps]; edges measure
    eps*(n - 1/2) in [-eps/2, eps/2].  e_k is normalized so the ground state
    gives 0 and the most excited state 2; it is None when eps = 0.
    """
    m = rho.matrix if isinstance(rho, DensityBlock) else rho
    pops = np.real(np.diag(m))
    if m.shape[0] == 2:
        e_val = epsilon * (pops[1] - 0.5)
        denom = epsilon / 2
    else:
        e_val = epsilon * float(np.dot(pops, [-1.0, 0.0, 0.0, 1.0]))
        denom = epsilon
    e_rel = None if epsilon == 0.0 else (e_val + denom) / denom
    return float(e_val), e_rel


# ---------------------------------------------------------------------------
# superoperators
# ---------------------------------------------------------------------------

@lru_cache(maxsize=8)
def _parity_diag_mask(d: int) -> np.ndarray:
    """Read-only mask of the parity-diagonal sector over row-major vec indices."""
    par = _parity_vector(int(math.log2(d)))
    mask = np.equal.outer(par, par).reshape(-1)
    mask.flags.writeable = False
    return mask


@dataclass
class Superoperator:
    """Transfer-matrix form of a channel on one system block (row-major vec)."""

    matrix: np.ndarray
    d: int

    def apply(self, rho: DensityBlock | np.ndarray) -> np.ndarray:
        m = rho.matrix if isinstance(rho, DensityBlock) else rho
        return apply_transfer(self.matrix, m)

    def compose(self, other: "Superoperator") -> "Superoperator":
        """Map applying `other` first, then self."""
        return Superoperator(self.matrix @ other.matrix, self.d)

    def is_trace_preserving(self, atol: float = TRACE_ATOL) -> bool:
        vid = vec(np.eye(self.d, dtype=complex))
        return bool(np.max(np.abs(vid @ self.matrix - vid)) <= atol)

    def choi_min_eig(self) -> float:
        return choi_min_eig(self.matrix)

    def parity_leakage(self) -> float:
        """Largest coupling from the parity-diagonal sector to the rest."""
        mask = _parity_diag_mask(self.d)
        off = self.matrix[~mask][:, mask]
        return float(np.max(np.abs(off))) if off.size else 0.0

    def restricted(self) -> tuple[np.ndarray, np.ndarray]:
        """(transfer on the parity-diagonal sector, flat index list)."""
        idx = np.flatnonzero(_parity_diag_mask(self.d))
        return self.matrix[np.ix_(idx, idx)], idx


def _rest_weights(fb: FockBlock, bath_excitation, sign: float = 1.0) -> np.ndarray:
    """Occupation-probability weights over the traced-out modes, one row per node.

    Bath modes carry the excitation p of their node, with the occupied weight
    multiplied by `sign`; environment modes (when present) carry (1 - p_E)/2
    each.  Returns shape (len(bath_excitation), d_rest).
    """
    p = np.asarray(bath_excitation, dtype=float)[:, None]
    bath = np.concatenate([1.0 - p, sign * p], axis=1)
    n_bath = 1 if fb.block.is_edge else 2
    w = bath
    for m in range(1, fb.n_modes - fb.n_sys_modes):
        if m < n_bath:
            pair = bath
        else:
            p_env = (1.0 - fb.block.env.p_e) / 2.0
            pair = np.array([1.0 - p_env, p_env])
        w = (w[:, :, None] * pair[..., None, :]).reshape(len(p), -1)
    return w


@lru_cache(maxsize=32)
def _einsum_path(subscripts: str, shapes: tuple[tuple[int, ...], ...]) -> tuple:
    """Greedy contraction path for operands of these shapes, searched once."""
    return tuple(np.einsum_path(subscripts, *(np.empty(sh) for sh in shapes),
                                optimize="greedy")[0])


def _cycle_transfer(fb: FockBlock, us: np.ndarray, weights: np.ndarray,
                    summed: bool = False) -> np.ndarray:
    """Transfer matrices of rho -> Tr_rest[U (rho x diag-mixture) U^dag] per node.

    `us` stacks the nodes' propagators, shape (n, d, d), and `weights` their
    rest weights, shape (n, d_rest).  Returns the (n, ds^2, ds^2) stack, or
    its sum over nodes when `summed` (fold quadrature weights into `weights`).
    Weights may carry signs (used for the sector-resolved noisy map), so the
    contraction is done directly rather than through a Kraus square root.
    """
    ds, dr = fb.d_sys, fb.d_rest
    u4 = us.reshape(-1, ds, dr, ds, dr)
    subscripts = "nibxm,njbym,nm->" + ("ijxy" if summed else "nijxy")
    operands = (u4, u4.conj(), weights)
    t = np.einsum(subscripts, *operands,
                  optimize=_einsum_path(subscripts, tuple(o.shape for o in operands)))
    return t.reshape(t.shape[:-4] + (ds * ds, ds * ds))


def exact_cycle_map(block: ModeBlock | FockBlock, t: float,
                    bath_excitation: float = 0.0) -> Superoperator:
    """One bath-reset cooling cycle: rho -> Tr_B[e^{-iHt} (rho x rho_B) e^{iHt}].

    bath_excitation p prepares each bath mode in (1-p)|0><0| + p|1><1|; p = 0
    is the reset ground state.
    """
    if t < 0:
        raise ValueError(f"cycle time must be >= 0, got {t}")
    if not (0.0 <= bath_excitation <= 1.0):
        raise ValueError(f"bath excitation must lie in [0, 1], got {bath_excitation}")
    fb = block if isinstance(block, FockBlock) else second_quantize(block)
    u = fb.propagator(t)[None]
    w = _rest_weights(fb, [bath_excitation])
    return Superoperator(_cycle_transfer(fb, u, w)[0], fb.d_sys)


@lru_cache(maxsize=8)
def _noise_generator_eig(n_modes: int):
    """Eigendecomposition of the gain/loss Liouvillian at unit rate.

    Generator: sum over modes of L_a + L_adag with unit strength; scaled by
    kappa*t at evaluation time.
    """
    ops = mode_operators(n_modes)
    d = 2**n_modes
    eye = np.eye(d)
    gen = np.zeros((d * d, d * d), dtype=complex)
    for a in ops:
        for o in (a, a.conj().T):
            n_op = o.conj().T @ o
            gen += np.kron(o, o.conj())
            gen -= 0.5 * (np.kron(n_op, eye) + np.kron(eye, n_op.T))
    w, v = np.linalg.eig(gen)
    vinv = np.linalg.inv(v)
    if np.max(np.abs((v * w) @ vinv - gen)) > 1e-9:
        raise RuntimeError("noise generator eigendecomposition inaccurate")
    return w, v, vinv


def noise_transfer(n_sys_modes: int, kappa: float, t) -> np.ndarray:
    """Transfer matrix of the particle gain/loss channel e^{L_E t} on a block.

    An array of times gives the stack of transfer matrices, shape t.shape +
    (d^2, d^2).
    """
    if kappa < 0:
        raise ValueError(f"kappa must be >= 0, got {kappa}")
    w, v, vinv = _noise_generator_eig(n_sys_modes)
    decay = np.exp(w * kappa * np.asarray(t, dtype=float)[..., None])
    return (v * decay[..., None, :]) @ vinv


def noisy_cycle_map(block: ModeBlock | FockBlock, t: float, kappa: float) -> Superoperator:
    """Cooling cycle with uniform gain/loss noise of rate kappa on every mode.

    The noise commutes with the joint unitary, so the cycle factorizes into a
    pre-applied noise channel on the system and a bath prepared with thermal
    excitation p = (1 - e^{-2 kappa t})/2.  Bath jumps carry Jordan-Wigner
    strings over the system, which flip the sign of the effective bath
    excitation on the parity-off-diagonal (superselected) sector; resolving
    the two sectors separately makes the factorization exact on the whole
    operator space, not just on physical states.
    """
    if kappa < 0:
        raise ValueError(f"kappa must be >= 0, got {kappa}")
    fb = block if isinstance(block, FockBlock) else second_quantize(block)
    if fb.block.env is not None:
        raise ValueError("depolarizing noise on environment-extended blocks "
                         "is not supported; use finite_environment_map")
    us = fb.propagator(t)[None]
    return Superoperator(_noisy_transfers(fb, us, kappa, np.array([t]))[0], fb.d_sys)


def _noisy_transfers(fb: FockBlock, us: np.ndarray, kappa: float,
                     ts: np.ndarray) -> np.ndarray:
    """Noisy cycle transfers for stacked propagators `us` at times `ts`, (n, D, D)."""
    p = 0.5 * (1.0 - np.exp(-2.0 * kappa * ts))
    cycle_plus = _cycle_transfer(fb, us, _rest_weights(fb, p))
    # parity-off-diagonal sector: every bath jump carries a Jordan-Wigner
    # string over the system, negating the jump part; the bath "state" there
    # evolves to the signed pair (1 - p, -p) with decaying weight
    cycle_minus = _cycle_transfer(fb, us, _rest_weights(fb, p, sign=-1.0))
    sectors = np.where(_parity_diag_mask(fb.d_sys), cycle_plus, cycle_minus)
    return sectors @ noise_transfer(fb.n_sys_modes, kappa, ts)


def finite_environment_map(block: ModeBlock | FockBlock, t: float) -> Superoperator:
    """Cycle map with finite environments traced out along with the bath.

    The block must have been built with a FiniteEnvSpec attached; environment
    modes start in ((1+p_E)/2)|0><0| + ((1-p_E)/2)|1><1| per mode.
    """
    fb = block if isinstance(block, FockBlock) else second_quantize(block)
    if fb.block.env is None:
        raise ValueError("block carries no environment; build it with a FiniteEnvSpec")
    return exact_cycle_map(fb, t)


def averaged_cycle_map(block: ModeBlock | FockBlock, t_mean: float,
                       kappa: float = 0.0, nodes: int = 96) -> Superoperator:
    """Cycle map averaged over uniformly random times on [0, 2*t_mean].

    Gauss-Legendre quadrature of the transfer matrix; this is the ensemble
    limit of a long randomized-time subcycle sequence.
    """
    fb = block if isinstance(block, FockBlock) else second_quantize(block)
    x, wq = gauss_legendre(nodes)
    ts = t_mean * (x + 1.0)          # map [-1, 1] -> [0, 2 t_mean]
    us = fb.propagators(ts)
    if kappa > 0:
        total = np.tensordot(wq, _noisy_transfers(fb, us, kappa, ts), axes=1)
    else:
        weights = wq[:, None] * _rest_weights(fb, np.zeros(nodes))
        total = _cycle_transfer(fb, us, weights, summed=True)
    return Superoperator(total, fb.d_sys)


# ---------------------------------------------------------------------------
# steady states and rates
# ---------------------------------------------------------------------------

def steady_state(superop: Superoperator) -> tuple[DensityBlock, float]:
    """Unique fixed point and cooling rate alpha = -log|lambda_2|.

    The spectrum is taken on the parity-diagonal sector, which is where
    physical states live (single-fermion coherences are superselected away).
    Uniqueness is decided from the numerical kernel of T_res - I: a kernel of
    dimension above one raises NonUniqueFixedPoint with that dimension.
    """
    t_res, idx = superop.restricted()
    n = t_res.shape[0]
    # The gap of T_res - I is the cooling rate, O(g^2) in weak coupling, so
    # a fixed absolute threshold misreads weakly attracting modes as
    # degenerate.  Singular values count as zero up to a multiple of the
    # rounding floor n eps ||T_res||; the smallest one of a trace-preserving
    # map sits within about 2x of that floor.
    sv = np.linalg.svd(t_res - np.eye(n), compute_uv=False)
    kernel_tol = 10.0 * n * np.finfo(float).eps * np.linalg.norm(t_res, 2)
    n_kernel = int(np.sum(sv <= kernel_tol))
    if n_kernel > 1:
        raise NonUniqueFixedPoint(n_kernel)

    evals, evecs = np.linalg.eig(t_res)
    order = np.argsort(-np.abs(evals))
    evals, evecs = evals[order], evecs[:, order]

    def normalize(candidate: np.ndarray) -> np.ndarray | None:
        v = np.zeros(superop.d**2, dtype=complex)
        v[idx] = candidate
        rho_c = v.reshape(superop.d, superop.d)
        tr = np.trace(rho_c)
        if abs(tr) < 1e-12:  # eigenvector phase cannot be fixed by the trace
            return None
        return hermitize(rho_c / tr)

    # inverse iteration sharpens the unit eigenvector well below the
    # eps/gap floor of the dense eigensolver (the gap is the cooling rate
    # and can be ~1e-9 for weakly attracting modes)
    vec_c = evecs[:, 0]
    shifted = t_res - (1.0 + 1e-12) * np.eye(t_res.shape[0])
    for _ in range(2):
        try:
            vec_c = np.linalg.solve(shifted, vec_c)
        except np.linalg.LinAlgError:
            break
        vec_c = vec_c / np.linalg.norm(vec_c)

    rho = normalize(vec_c)
    resid = math.inf
    if rho is not None:
        resid = trace_norm(superop.apply(rho) - rho)
    if resid > FIXED_POINT_ATOL:
        # refine: smallest singular vector of (T_res - I)
        _, _, vh = np.linalg.svd(t_res - np.eye(t_res.shape[0]))
        rho = normalize(vh[-1].conj())
        if rho is None:
            raise NonUniqueFixedPoint(1, "fixed-point candidate is traceless")
        resid = trace_norm(superop.apply(rho) - rho)
        if resid > FIXED_POINT_ATOL:
            raise NonUniqueFixedPoint(1, f"fixed-point residual {resid:.2e} above tolerance")

    alpha = -math.log(abs(evals[1])) if len(evals) > 1 else math.inf
    return DensityBlock(rho, -1), alpha


def fixed_points(k_s: np.ndarray, c: np.ndarray | None = None,
                 edge=None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """`steady_state` of stacked transfer matrices (modes, d^2, d^2), one at a time.

    Returns the vectorized fixed points, the cooling rates and the trace-norm
    residuals.  `c` and `edge` keep the signature of `cm.fixed_points`: Fock
    cycle maps are linear, and every Fock edge block is physical.
    """
    d = math.isqrt(k_s.shape[-1])
    xs, alphas, resids = [], [], []
    for matrix in k_s:
        superop = Superoperator(matrix, d)
        rho, alpha = steady_state(superop)
        xs.append(rho.matrix.reshape(-1))
        alphas.append(alpha)
        resids.append(trace_norm(superop.apply(rho) - rho.matrix))
    return np.stack(xs), np.array(alphas), np.array(resids)


# ---------------------------------------------------------------------------
# verification helpers
# ---------------------------------------------------------------------------

def noise_factorization_gap(block: ModeBlock, kappa: float, t: float) -> float:
    """Max 1-norm gap between the factorized noisy cycle and the joint Lindbladian.

    Propagates d rho/dt = -i[H, rho] + L_E(rho) on the full system+bath space
    by dense exponentiation, traces out the bath, and compares channel outputs
    on all matrix units of the system block.  Should vanish because the noise
    generator commutes with the quadratic unitary.
    """
    from scipy.linalg import expm  # imported here to keep SciPy off kelvin's import path

    fb = second_quantize(block)
    d = 2**fb.n_modes
    ds, dr = fb.d_sys, fb.d_rest
    ops = mode_operators(fb.n_modes)
    eye = np.eye(d)
    liou = -1j * (np.kron(fb.hamiltonian, eye) - np.kron(eye, fb.hamiltonian.T))
    for a in ops:
        for o in (a, a.conj().T):
            n_op = o.conj().T @ o
            liou += kappa * (np.kron(o, o.conj())
                             - 0.5 * (np.kron(n_op, eye) + np.kron(eye, n_op.T)))
    prop = expm(liou * t)

    factorized = noisy_cycle_map(fb, t, kappa)
    rho_b = np.zeros((dr, dr), dtype=complex)
    rho_b[0, 0] = 1.0
    gap = 0.0
    for m in range(ds):
        for n in range(ds):
            unit = np.zeros((ds, ds), dtype=complex)
            unit[m, n] = 1.0
            joint = np.kron(unit, rho_b)
            out = (prop @ vec(joint)).reshape(d, d)
            out_s = np.trace(out.reshape(ds, dr, ds, dr), axis1=1, axis2=3)
            gap = max(gap, trace_norm(out_s - factorized.apply(unit)))
    return gap
