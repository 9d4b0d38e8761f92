"""Exact per-block engine on small Fock spaces.

Each (k, -k) pair closes on four operators (a_k, a_-k^dag, b_k, b_-k^dag),
optionally extended by two environment pairs; edge modes use two (or four)
physical modes on a doubled basis.  Blocks are second-quantized with explicit
Jordan-Wigner operators, and a cycle map rho -> Tr_rest[U (rho x rest) U^dag]
is built in the eigenbasis H = V diag(E) V^dag.  With the reset bath in its
vacuum and L_b[(i,x), a] = V[(i,b), a] V*[(x,0), a], the map at time t is
sum_b L_b P L_b^dag, P_ab = e^{-i (E_a - E_b) t}, and its average over
uniform random times on [0, 2 t_mean] the same sum with the exact average
G_ab = (1 - e^{-z}) / z, z = 2 t_mean i (E_a - E_b): only the phases are
averaged.  Steady states and cooling rates live on the physical
(parity-diagonal) sector: eliminating rho_00 through the trace turns each
transfer matrix into an affine map, solved for all modes at once by the
fixed-point routine the CM engine uses.

Everything is a plain array: a density is d x d (d = 4 for a pair, 2 for an
edge) and a cycle map its transfer matrix on row-major vec(rho).
`cycle_maps` yields the maps of a stack of modes, one per time, from one
stacked eigendecomposition, with the rest weights and populated columns
formed once per call; `exact_cycle_map` (one time, optionally noisy or
environment-extended) and `averaged_cycle_map` are its one-block views.

Gain/loss noise of rate kappa is X -> (c X c + c' X c')/2 - X per mode, in
the mode's Majoranas c, c'.  On a Majorana monomial of degree q, c X c =
+-X, so an even monomial decays at rate q and an odd one at 2n - q, n the
number of modes.  The quadratic unitary keeps degrees and commutes with the
noise, and the bath trace keeps system monomials, so the noisy cycle is the
noiseless one followed by system noise: T_kappa(t) = N_sys(t) T_0(t) C(t),
where C is 1 on the parity-diagonal (even) columns and e^{-2 n_bath kappa t},
the bath's share of the odd rate, on the others.  Averaged, N_sys's rate-r
projector Pi_r follows the average of the phases times e^{-c kappa t}, c = r
on even columns and r + 2 n_bath on odd ones, which adds 2 t_mean c kappa
to z.

This module doubles as the brute-force oracle for the closed-form layer.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from ._linalg import (
    FIXED_POINT_ATOL,
    affine_fixed_points,
    hermitize,
    trace_norm,
    uniform_average,
)
from .errors import NonUniqueFixedPoint
from .model import ModeBlock, NoiseSpec

__all__ = [
    "FockBlock",
    "second_quantize",
    "exact_cycle_map",
    "averaged_cycle_map",
    "cycle_maps",
    "mode_chunks",
    "noise_transfer",
    "steady_state",
    "fixed_points",
    "mode_groups",
    "initial_blocks",
    "reduce",
    "block_energy",
    "vacuum_density",
    "most_excited_density",
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


@dataclass
class FockBlock:
    """Second-quantized block Hamiltonian with system/rest bookkeeping."""

    n_modes: int
    hamiltonian: np.ndarray
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

    def propagators(self, ts: np.ndarray) -> np.ndarray:
        """Stack of e^{-iHt} for an array of times; shape (len(ts), d, d)."""
        e, v = self.eig()
        phases = np.exp(-1j * np.outer(ts, e))  # (n, d)
        return (v * phases[:, None, :]) @ v.conj().T


@lru_cache(maxsize=8)
def _quadratic_terms(dim: int, edge: bool) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(flat index into h, flat position in H, sign) of the entries of the
    products alpha_i^dag alpha_j, in (i, j) order; these products of
    Jordan-Wigner operators are signed partial permutations."""
    ops = [a.real for a in mode_operators(dim // 2 if edge else dim)]
    alpha = [x for a in ops for x in (a, a.T)] if edge else \
        [x for p in range(dim // 2) for x in (ops[2 * p], ops[2 * p + 1].T)]
    terms, positions, signs = [], [], []
    for ij, (ai, aj) in enumerate(itertools.product(alpha, repeat=2)):
        prod = (ai.T @ aj).reshape(-1)
        pos = np.flatnonzero(prod)
        terms += [ij] * len(pos)
        positions.append(pos)
        signs.append(prod[pos])
    return np.array(terms), np.concatenate(positions), np.concatenate(signs)


def _hamiltonians(block: ModeBlock) -> np.ndarray:
    """H = alpha^dag h alpha of a block, or of each mode of a stack of edges or
    of pairs, summed in (i, j) order; shape (modes, d, d)."""
    dim = block.h_sb.shape[-1]
    h = block.h_sb.reshape(-1, dim * dim)
    d = 2 ** block.n_modes
    terms, positions, signs = _quadratic_terms(dim, bool(np.all(block.is_edge)))
    ham = np.zeros((len(h), d * d), dtype=complex)
    np.add.at(ham, (slice(None), positions), h[:, terms] * signs)
    ham = ham.reshape(-1, d, d)
    if np.max(np.abs(ham - ham.conj().swapaxes(-1, -2))) > 1e-11:
        raise ValueError("second-quantized Hamiltonian not hermitian")
    return ham


def second_quantize(block: ModeBlock) -> FockBlock:
    """Realize H = alpha^dag h alpha with explicit fermionic operators.

    Generic pairs use alpha = (a_k, a_-k^dag, b_k, b_-k^dag, ...), i.e. one
    independent mode per matrix row; edge blocks use the doubled basis
    (a, a^dag, b, b^dag, ...) over half as many physical modes.
    """
    return FockBlock(block.n_modes, _hamiltonians(block)[0], 1 if block.is_edge else 2, block)


# ---------------------------------------------------------------------------
# density blocks: d x d arrays on the basis |n_k n_-k> (d = 4), or |n_k> for
# an edge (d = 2)
# ---------------------------------------------------------------------------

def vacuum_density(edge: bool) -> np.ndarray:
    m = np.zeros((2, 2) if edge else (4, 4), dtype=complex)
    m[0, 0] = 1.0
    return m


def most_excited_density(edge: bool) -> np.ndarray:
    m = np.zeros((2, 2) if edge else (4, 4), dtype=complex)
    m[-1, -1] = 1.0
    return m


def mode_groups(n2: int) -> list[np.ndarray]:
    """Mode indices stepped as one stack: the 2x2 edges and the 4x4 pairs."""
    ks = np.arange(n2 + 1)
    return [g for g in (np.array([0, n2]), ks[1:n2]) if g.size]


def initial_blocks(kind: str, n2: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Product initial state over k = 0..n2, "vacuum" or "most_excited", as
    (ks, vec(rho) stacked over ks) for each group of `mode_groups`."""
    if kind not in ("vacuum", "most_excited"):
        raise ValueError(f"unknown initial state kind {kind!r}")
    maker = vacuum_density if kind == "vacuum" else most_excited_density
    return [(ks, np.tile(maker(ks[0] in (0, n2)).reshape(-1), (len(ks), 1)))
            for ks in mode_groups(n2)]


def reduce(ks: np.ndarray, x: np.ndarray, eps: np.ndarray, wts: np.ndarray,
           n2: int) -> tuple[np.ndarray, np.ndarray]:
    """Energies and vacuum fidelities rho_00 of the modes `ks` from x = vec(rho)
    stacked to (..., len(ks), d * d), one block size d per call (see
    `block_energy`); `wts` and `n2` keep `cm.reduce`'s signature."""
    d = math.isqrt(x.shape[-1])
    pops = x[..., :: d + 1].real
    if d == 2:
        return eps[ks] * (pops[..., 1] - 0.5), pops[..., 0]
    return eps[ks] * (pops[..., 3] - pops[..., 0]), pops[..., 0]


def block_energy(rho: np.ndarray, epsilon: float, weight: float):
    """Mode energy and relative energy (E_k, e_k); E_k is one row of `reduce`.

    Generic pairs measure eps*(n_k + n_-k - 1) in [-eps, eps]; edges measure
    eps*(n - 1/2) in [-eps/2, eps/2].  e_k is normalized so the ground state
    gives 0 and the most excited state 2; it is None when eps = 0.
    """
    e_val = float(reduce(np.zeros(1, dtype=int), np.reshape(rho, (1, -1)), np.array([epsilon]),
                         np.array([weight]), 0)[0][0])
    denom = epsilon / 2 if rho.shape[0] == 2 else epsilon
    e_rel = None if epsilon == 0.0 else (e_val + denom) / denom
    return e_val, e_rel


# ---------------------------------------------------------------------------
# cycle maps: transfer matrices on row-major vec(rho) of a system block
# ---------------------------------------------------------------------------

@lru_cache(maxsize=8)
def _parity_diag_mask(d: int) -> np.ndarray:
    """Read-only mask of the parity-diagonal sector over row-major vec indices."""
    par = np.array([bin(i).count("1") % 2 for i in range(d)])
    mask = np.equal.outer(par, par).reshape(-1)
    mask.flags.writeable = False
    return mask


def _rest_weights(fb: FockBlock) -> np.ndarray:
    """Occupations of the rest's basis states: the bath (as many modes as the
    system) in its vacuum, and (1 - p_E)/2 per environment mode."""
    n_bath = fb.n_sys_modes
    p_env = (1.0 - fb.block.env.p_e) / 2.0 if fb.block.env is not None else 0.0
    pairs = [[1.0, 0.0]] * n_bath + [[1.0 - p_env, p_env]] * (fb.n_modes - 2 * n_bath)
    return functools.reduce(np.kron, pairs, np.ones(1))


def _transfers(a: np.ndarray, b: np.ndarray, ds: int) -> np.ndarray:
    """T[(i,j),(x,y)] = sum_k A[(i,x),k] B*[(j,y),k], stacked over leading axes."""
    t = (a @ b.conj().swapaxes(-1, -2)).reshape(a.shape[:-2] + (ds,) * 4)
    return t.swapaxes(-3, -2).reshape(a.shape[:-2] + (ds * ds, ds * ds))


def _fixed_time_maps(fb: FockBlock, e: np.ndarray, v: np.ndarray, ts, kappa: float = 0.0):
    """Yield the cycle transfers (blocks, D, D) of eigenbases stacked over
    blocks, one stack per time in `ts`, in order.

    Only the columns of U that start in a populated rest state r are formed:
    A[(i,x),(b,r)] = U[(i,b),(x,r)] and T = sum w_r A A^dag.  The rest
    weights, those columns of V^dag and the noise factors of every time are
    formed once, before the first map.
    """
    ds, dr = fb.d_sys, fb.d_rest
    w = _rest_weights(fb)
    rest = np.flatnonzero(w)
    cols = (dr * np.arange(ds)[:, None] + rest).reshape(-1)
    v_cols = v[..., cols, :].conj().swapaxes(-1, -2)
    w_rest = np.tile(w[rest], dr)
    ts = np.asarray(ts, dtype=float)
    if kappa > 0:  # T_kappa = N_sys T_0 C, see the module docstring
        odd = np.exp(-2.0 * fb.n_sys_modes * kappa * ts)[:, None]
        damp = np.where(_parity_diag_mask(ds), 1.0, odd)[:, None, :]
        noise = noise_transfer(fb.n_sys_modes, kappa, ts)
    for i, t in enumerate(ts):
        u = v @ (np.exp(-1j * (t * e))[..., :, None] * v_cols)
        a = u.reshape(u.shape[:-2] + (ds, dr, ds, len(rest))).swapaxes(-3, -2)
        a = a.reshape(u.shape[:-2] + (ds * ds, dr * len(rest)))
        maps = _transfers(a * w_rest, a, ds)
        yield noise[i] @ (maps * damp[i]) if kappa > 0 else maps


def exact_cycle_map(block: ModeBlock | FockBlock, t: float, kappa: float = 0.0) -> np.ndarray:
    """Transfer matrix of one cooling cycle, rho -> Tr_rest[e^{-iHt} (rho x
    rho_rest) e^{iHt}]: one block and one time of `cycle_maps`' fixed-time
    builder.

    The rest is the reset bath in its vacuum and, on an environment-extended
    block, each environment mode in ((1+p_E)/2)|0><0| + ((1-p_E)/2)|1><1|.
    Uniform gain/loss noise of rate kappa gives T_kappa(t) = N_sys T_0 C
    (module docstring), exact on the whole operator space, not just on
    physical states; it is not defined on environment-extended blocks.
    """
    if t < 0:
        raise ValueError(f"cycle time must be >= 0, got {t}")
    if kappa < 0:
        raise ValueError(f"kappa must be >= 0, got {kappa}")
    fb = block if isinstance(block, FockBlock) else second_quantize(block)
    if kappa > 0 and fb.block.env is not None:
        raise ValueError("depolarizing noise on environment-extended blocks is not supported")
    e, v = fb.eig()
    return next(_fixed_time_maps(fb, e[None], v[None], [t], kappa))[0]


@lru_cache(maxsize=4)
def _noise_projectors(n_modes: int) -> tuple[np.ndarray, np.ndarray]:
    """Rates r and projectors Pi_r = sum vec(c_S) vec(c_S)^dag / d of the unit-rate
    gain/loss generator, over the Majorana monomials c_S of rate r."""
    majoranas = [c for a in mode_operators(n_modes) for c in (a + a.conj().T, 1j * (a.conj().T - a))]
    proj: dict[int, np.ndarray] = {}
    for subset in itertools.product((False, True), repeat=2 * n_modes):
        mono = functools.reduce(np.matmul, itertools.compress(majoranas, subset),
                                np.eye(2**n_modes)).reshape(-1)
        q = sum(subset)
        rate = q if q % 2 == 0 else 2 * n_modes - q
        proj[rate] = proj.get(rate, 0) + np.outer(mono, mono.conj()) / 2**n_modes
    rates = np.array(sorted(proj))
    return rates, np.stack([proj[r] for r in rates])


def noise_transfer(n_sys_modes: int, kappa: float, t) -> np.ndarray:
    """Transfer matrix of the particle gain/loss channel e^{L_E t} on a block.

    An array of times gives the stack of transfer matrices, shape t.shape +
    (d^2, d^2).
    """
    if kappa < 0:
        raise ValueError(f"kappa must be >= 0, got {kappa}")
    rates, proj = _noise_projectors(n_sys_modes)
    decay = np.exp(-kappa * np.multiply.outer(np.asarray(t, dtype=float), rates))
    return np.tensordot(decay, proj, axes=1)


def averaged_cycle_map(block: ModeBlock | FockBlock, t_mean: float,
                       kappa: float = 0.0) -> np.ndarray:
    """Cycle map averaged over uniformly random times on [0, 2*t_mean].

    The transfer matrix sum_b L_b G L_b^dag with the exact time average G of
    the phases (module docstring), for every noise rate at once; this is the
    ensemble limit of a long randomized-time subcycle sequence.
    """
    fb = block if isinstance(block, FockBlock) else second_quantize(block)
    if fb.block.env is not None:
        raise ValueError("averaged maps of environment-extended blocks are not supported")
    e, v = fb.eig()
    ds, dr = fb.d_sys, fb.d_rest
    v4 = v.reshape(ds, dr, -1)
    l_b = (v4[:, None] * v4[None, :, :1].conj()).reshape(ds * ds, dr, -1)
    rates, proj = _noise_projectors(fb.n_sys_modes) if kappa > 0 else (np.zeros(1), None)
    odd = rates % 2 == 1
    c = (rates + 2 * fb.n_sys_modes * odd)[:, None, None]
    g = uniform_average(2.0 * t_mean * (c * kappa + 1j * np.subtract.outer(e, e)))
    maps = _transfers((l_b @ g[:, None]).reshape(len(g), ds * ds, -1),
                      l_b.reshape(ds * ds, -1), ds)
    if proj is None:
        return maps[0]
    cols = _parity_diag_mask(ds) != odd[:, None]
    return (proj @ (maps * cols[:, None, :])).sum(axis=0)


def cycle_maps(block: ModeBlock, ts, t_mean: float, kappa: float):
    """Yield the transfers (K, 0) of one bath frequency, stacked over `block`
    (a stack of edges or of pairs, one `mode_groups` group), one per time in
    `ts`, in order.

    The stack is second-quantized at once, with eigenbases from one stacked
    eigh, and held until the generator is done.  Each fixed time gives the
    stack of `exact_cycle_map`s at the gain/loss rate `kappa`, with the
    environments' p_E read from `block.env`; a time of None stands for
    `averaged_cycle_map` over [0, 2 t_mean], taken per mode.
    """
    ham = _hamiltonians(block)
    e, v = np.linalg.eigh(ham)
    n_modes, n_sys = block.n_modes, 1 if np.all(block.is_edge) else 2
    fbs = [FockBlock(n_modes, h, n_sys, block, (e_b, v_b)) for h, e_b, v_b in zip(ham, e, v)]
    fixed = _fixed_time_maps(fbs[0], e, v, [t for t in ts if t is not None], kappa)
    for t in ts:
        if t is None:
            k_s = np.stack([averaged_cycle_map(fb, t_mean, kappa) for fb in fbs])
        else:
            k_s = next(fixed)
        yield k_s, np.zeros(k_s.shape[:2], dtype=complex)


def mode_chunks(ks: np.ndarray, env: NoiseSpec | None) -> list[np.ndarray]:
    """Chunks of the `mode_groups` group `ks` for `cycle_maps`: 64 kB for one
    d x d complex stack over the chunk, d = 2^(Fock modes): 2 for the edges
    (the group with k = 0) and 4 for pairs, twice that with environments.
    So 16 pairs, 256 edges, 16 environment edges or one environment pair
    (1 MB alone) per chunk.

    A chunk holds a few such stacks at once: each open frequency's
    Hamiltonians and eigenvectors, the running product of `_global_maps`
    and one map's transients.  On the benchmark's N = 200 trajectories
    (theta = pi/3, g = 1e-2, t = 10, 100 cycles; randomized L = 10 and
    multifreq R = 3, L = 4; 2-vCPU host, one BLAS thread), 16-pair chunks
    took the Fock time from 0.091 to 0.063 s and the peak RSS from 43.8 to
    43.7 MB against 4-pair chunks (medians of ten runs each); 32-pair
    chunks saved 0.003 s more but added 0.8 MB to the peak.
    """
    n_modes = (2 if ks[0] == 0 else 4) * (2 if env is not None else 1)
    size = max(1, (1 << 16) // (16 * 4**n_modes))
    return [ks[i:i + size] for i in range(0, len(ks), size)]


# ---------------------------------------------------------------------------
# steady states and rates
# ---------------------------------------------------------------------------

def steady_state(transfer: np.ndarray) -> tuple[np.ndarray, float]:
    """Unique fixed state (d, d) of a transfer matrix (d^2, d^2) and its cooling
    rate alpha = -log|lambda_2|: a one-mode `fixed_points`."""
    x, alpha, _ = fixed_points(transfer[None])
    d = math.isqrt(transfer.shape[-1])
    return x[0].reshape(d, d), float(alpha[0])


def fixed_points(k_s: np.ndarray, c: np.ndarray | None = None,
                 edge=None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Unique fixed states of stacked transfer matrices T (modes, d^2, d^2).

    Returns the vectorized fixed states, the cooling rates and the trace-norm
    residuals.  `c` and `edge` keep the signature of `cm.fixed_points`: Fock
    cycle maps are linear, and every Fock edge block is physical.

    Physical states live on the parity-diagonal sector, with rho_00 first.
    Trace preservation eliminates rho_00 = 1 - tau.y, tau marking the other
    populations y, which leaves the affine map y -> (T_yy - T_y0 tau^T) y +
    T_y0 for `_linalg.affine_fixed_points`, the solve the CM engine shares.
    Its spectrum is that of the sector's transfer without the trace
    eigenvalue 1, so alpha is -log|lambda_2| of the sector.  A state whose
    trace-norm residual exceeds FIXED_POINT_ATOL raises NonUniqueFixedPoint.
    """
    d = math.isqrt(k_s.shape[-1])
    idx = np.flatnonzero(_parity_diag_mask(d))
    t_res = k_s[:, idx[:, None], idx]
    tau = idx[1:] % (d + 1) == 0
    y, alpha = affine_fixed_points(t_res[:, 1:, 1:] - t_res[:, 1:, :1] * tau, t_res[:, 1:, 0])
    x = np.zeros((len(k_s), d * d), dtype=complex)
    x[:, 0] = 1.0 - y[:, tau].sum(axis=-1)
    x[:, idx[1:]] = y
    rho = hermitize(x.reshape(-1, d, d))
    resid = trace_norm((k_s @ rho.reshape(-1, d * d, 1)).reshape(rho.shape) - rho)
    if np.max(resid, initial=0.0) > FIXED_POINT_ATOL:
        raise NonUniqueFixedPoint(1, f"fixed-point residual {np.max(resid):.2e} above tolerance")
    return rho.reshape(-1, d * d), alpha, resid
