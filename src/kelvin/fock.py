"""Exact per-block engine on small Fock spaces.

Each (k, -k) pair closes on four operators (a_k, a_-k^dag, b_k, b_-k^dag),
optionally extended by two environment pairs; edge modes use two (or four)
physical modes on a doubled basis.  Blocks are second-quantized with explicit
Jordan-Wigner operators.  Every Hamiltonian here is quadratic in the
fermions, so it conserves fermion parity: on the Fock basis ordered by
parity (`_parity_classes`: the even states, then the odd, each in
increasing order) H is block-diagonal, and a block is held, diagonalized and
propagated as its two d/2 x d/2 parity blocks, H = V diag(E) V^dag.

A cycle map rho -> Tr_rest[U (rho x rest) U^dag] reads only the entries
U[(i,b),(x,r)] of populated rest states r (`_cycle_layout`).  With their
weights w_r and L[(i,x),(b,r),a] = V[(i,b),a] V*[(x,r),a], zero unless the
eigenvector a is in the parity block of (i,b), the map is T[(i,j),(x,y)] =
sum_{b,r,a,a'} w_r L[(i,x),(b,r),a] P_aa' L*[(j,y),(b,r),a'], and only the
phase kernel P tells the cycles apart: at a fixed time t, P_aa' = e^{-i (E_a
- E_a') t} is rank one, so U is formed first (`_fixed_time_maps`), and over
uniform random times on [0, 2 t_mean] it is the exact average G_aa' = (1 -
e^{-z}) / z, z = 2 t_mean i (E_a - E_a') (`averaged_cycle_map`).

Parity superselection splits vec(rho) into two sectors that no cycle mixes,
with or without noise (`_vec_sectors`): the physical (parity-diagonal)
sector, which holds the even and the odd block of rho, and the coherences
between them.  Every transfer matrix is block-diagonal on the two, and
physical states live in the first.  So a chain state is a stack of sector
vectors x = (vec rho_even, vec rho_odd), d^2/2 entries with rho_00 first (8
for a pair, where d = 4, and 2 for an edge, where d = 2); `cycle_maps`
yields transfers on that sector alone, and `matrices` is the d x d density
of a sector vector.  Steady states and cooling rates: every sector transfer
conserves the trace, and the fixed-point routine the CM engine uses solves
all modes at once after eliminating rho_00 through it.

`cycle_maps` yields the maps of a stack of modes, one per time, from one
stacked eigendecomposition, with the rest weights and populated columns
formed once per call.  `exact_cycle_map` (one time, optionally noisy or
environment-extended) and `averaged_cycle_map` give one block's two
sectors on the whole operator space: transfer matrices on row-major vec(rho).

Gain/loss noise of rate kappa is X -> (c X c + c' X c')/2 - X per mode, in
the mode's Majoranas c, c'.  On a Majorana monomial of degree q, c X c =
+-X, so an even monomial decays at rate q and an odd one at 2n - q, n the
number of modes; even monomials are parity-diagonal and odd ones
coherences, so each sector s has the rates r of its parity, with the
projectors Pi_r of `_noise_projectors`.  The quadratic unitary keeps
degrees and commutes with the noise, and the bath trace keeps system
monomials, so the noisy cycle is the noiseless one followed by system noise:
T_kappa(t) = N_sys(t) T_0(t) C(t), C being e^{-2 n_bath kappa t}, the bath's
share of the odd rate, on the coherences and 1 on the physical sector.  So
Pi_r decays at c = r + 2 n_bath s: by e^{-c kappa t} at a fixed time, and,
averaged, inside G, whose z gains 2 t_mean c kappa.

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
    "matrices",
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
    """Second-quantized block Hamiltonian with system/rest bookkeeping.

    `blocks` is H on the even and on the odd Fock states (`_parity_classes`),
    shape (2, d/2, d/2), or a stack of such pairs over leading axes.
    """

    blocks: np.ndarray
    n_sys_modes: int
    block: ModeBlock
    _eig: tuple[np.ndarray, np.ndarray] | None = field(default=None, repr=False)

    @property
    def n_modes(self) -> int:
        """Fock modes n, from the parity blocks' size 2^(n-1)."""
        return self.blocks.shape[-1].bit_length()

    @property
    def d_sys(self) -> int:
        return 2**self.n_sys_modes

    @property
    def d_rest(self) -> int:
        return 2 ** (self.n_modes - self.n_sys_modes)

    @property
    def hamiltonian(self) -> np.ndarray:
        """H on the Fock basis, d x d."""
        return _unblock(self.blocks, _parity_classes(2 * self.blocks.shape[-1]))

    def eig(self) -> tuple[np.ndarray, np.ndarray]:
        """Eigenvalues (..., 2, d/2) and eigenvectors (..., 2, d/2, d/2) of the
        parity blocks."""
        if self._eig is None:
            self._eig = tuple(np.linalg.eigh(self.blocks))
        return self._eig

    def propagators(self, ts: np.ndarray) -> np.ndarray:
        """Stack of e^{-iHt} for an array of times; shape (len(ts), d, d)."""
        e, v = self.eig()
        phases = np.exp(-1j * np.multiply.outer(ts, e))  # (n, 2, d/2)
        u = (v * phases[..., None, :]) @ v.conj().swapaxes(-1, -2)
        return _unblock(u, _parity_classes(2 * self.blocks.shape[-1]))


@lru_cache(maxsize=16)
def _parity_classes(d: int) -> np.ndarray:
    """Read-only (2, d/2) array of the states of a d-state Fock basis by
    fermion parity: the even states, then the odd, each in increasing order."""
    par = np.array([bin(i).count("1") % 2 for i in range(d)])
    classes = np.stack([np.flatnonzero(par == 0), np.flatnonzero(par == 1)])
    classes.flags.writeable = False
    return classes


def _unblock(m: np.ndarray, index: np.ndarray) -> np.ndarray:
    """The d x d matrices, stacked over leading axes, that hold the blocks m
    (..., 2, d/2, d/2) on the rows and columns `index` (2, d/2), and zeros
    between."""
    d = 2 * m.shape[-1]
    out = np.zeros(m.shape[:-3] + (d, d), dtype=m.dtype)
    out[..., index[:, :, None], index[:, None, :]] = m
    return out


@lru_cache(maxsize=8)
def _vec_sectors(ds: int) -> np.ndarray:
    """Read-only (2, ds^2/2) positions in row-major vec(rho) of a ds-state
    system block: the physical sector, the blocks rho_qq of the parities q
    (even first) row-major, and the coherences rho_q,1-q in the same order."""
    c = _parity_classes(ds)
    sectors = np.stack([(ds * c[:, :, None] + c[:, None, :]).reshape(-1),
                        (ds * c[:, :, None] + c[::-1, None, :]).reshape(-1)])
    sectors.flags.writeable = False
    return sectors


@lru_cache(maxsize=8)
def _quadratic_terms(dim: int, edge: bool) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(flat index into h, flat position in H's parity blocks (2, d/2, d/2),
    sign) of the entries of the products alpha_i^dag alpha_j, in (i, j)
    order; these products of Jordan-Wigner operators are signed partial
    permutations, and they keep the fermion parity."""
    n_modes = dim // 2 if edge else dim
    ops = [a.real for a in mode_operators(n_modes)]
    alpha = [x for a in ops for x in (a, a.T)] if edge else \
        [x for p in range(dim // 2) for x in (ops[2 * p], ops[2 * p + 1].T)]
    half = 2 ** (n_modes - 1)
    block_pos = _unblock(np.arange(2 * half * half).reshape(2, half, half),
                         _parity_classes(2 * half)).reshape(-1)
    terms, positions, signs = [], [], []
    for ij, (ai, aj) in enumerate(itertools.product(alpha, repeat=2)):
        prod = (ai.T @ aj).reshape(-1)
        pos = np.flatnonzero(prod)
        terms += [ij] * len(pos)
        positions.append(block_pos[pos])
        signs.append(prod[pos])
    return np.array(terms), np.concatenate(positions), np.concatenate(signs)


def _hamiltonians(block: ModeBlock) -> np.ndarray:
    """H = alpha^dag h alpha of a block, or of each mode of a stack of edges or
    of pairs, summed in (i, j) order, as its even and odd parity blocks;
    shape (modes, 2, d/2, d/2)."""
    dim = block.h_sb.shape[-1]
    h = block.h_sb.reshape(-1, dim * dim)
    half = 2 ** (block.n_modes - 1)
    terms, positions, signs = _quadratic_terms(dim, bool(np.all(block.is_edge)))
    ham = np.zeros((len(h), 2 * half * half), dtype=complex)
    np.add.at(ham, (slice(None), positions), h[:, terms] * signs)
    ham = ham.reshape(-1, 2, half, half)
    if np.max(np.abs(ham - ham.conj().swapaxes(-1, -2))) > 1e-11:
        raise ValueError("second-quantized Hamiltonian not hermitian")
    return ham


def second_quantize(block: ModeBlock) -> FockBlock:
    """Realize H = alpha^dag h alpha with explicit fermionic operators.

    Generic pairs use alpha = (a_k, a_-k^dag, b_k, b_-k^dag, ...), i.e. one
    independent mode per matrix row; edge blocks use the doubled basis
    (a, a^dag, b, b^dag, ...) over half as many physical modes.
    """
    return FockBlock(_hamiltonians(block)[0], 1 if block.is_edge else 2, block)


# ---------------------------------------------------------------------------
# density blocks: d x d arrays on the basis |n_k n_-k> (d = 4), or |n_k> for
# an edge (d = 2), and their physical-sector vectors
# ---------------------------------------------------------------------------

def vacuum_density(edge: bool) -> np.ndarray:
    m = np.zeros((2, 2) if edge else (4, 4), dtype=complex)
    m[0, 0] = 1.0
    return m


def most_excited_density(edge: bool) -> np.ndarray:
    m = np.zeros((2, 2) if edge else (4, 4), dtype=complex)
    m[-1, -1] = 1.0
    return m


def matrices(x: np.ndarray) -> np.ndarray:
    """The d x d densities of physical-sector vectors x stacked to (...,
    d^2/2): their parity blocks in place, and zero coherences."""
    half = math.isqrt(x.shape[-1] // 2)
    return _unblock(x.reshape(x.shape[:-1] + (2, half, half)), _parity_classes(2 * half))


def mode_groups(n2: int) -> list[np.ndarray]:
    """Mode indices stepped as one stack: the 2x2 edges and the 4x4 pairs."""
    ks = np.arange(n2 + 1)
    return [g for g in (np.array([0, n2]), ks[1:n2]) if g.size]


def initial_blocks(kind: str, n2: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Product initial state over k = 0..n2, "vacuum" or "most_excited", as
    (ks, sector vectors stacked over ks) for each group of `mode_groups`."""
    if kind not in ("vacuum", "most_excited"):
        raise ValueError(f"unknown initial state kind {kind!r}")
    maker = vacuum_density if kind == "vacuum" else most_excited_density
    groups = []
    for ks in mode_groups(n2):
        rho = maker(ks[0] in (0, n2))
        groups.append((ks, np.tile(rho.reshape(-1)[_vec_sectors(len(rho))[0]], (len(ks), 1))))
    return groups


def reduce(ks: np.ndarray, x: np.ndarray, eps: np.ndarray, wts: np.ndarray,
           n2: int) -> tuple[np.ndarray, np.ndarray]:
    """Energies and vacuum fidelities rho_00 of the modes `ks` from sector
    vectors x stacked to (..., len(ks), d^2/2), one block size d per call (see
    `block_energy`); `wts` and `n2` keep `cm.reduce`'s signature."""
    pops = np.diagonal(matrices(x), axis1=-2, axis2=-1).real
    if pops.shape[-1] == 2:
        return eps[ks] * (pops[..., 1] - 0.5), pops[..., 0]
    return eps[ks] * (pops[..., 3] - pops[..., 0]), pops[..., 0]


def block_energy(rho: np.ndarray, epsilon: float, weight: float):
    """Mode energy and relative energy (E_k, e_k) of a d x d density; E_k is
    one row of `reduce`.

    Generic pairs measure eps*(n_k + n_-k - 1) in [-eps, eps]; edges measure
    eps*(n - 1/2) in [-eps/2, eps/2].  e_k is normalized so the ground state
    gives 0 and the most excited state 2; it is None when eps = 0.
    """
    rho = np.asarray(rho)
    x = rho.reshape(1, -1)[:, _vec_sectors(len(rho))[0]]
    e_val = float(reduce(np.zeros(1, dtype=int), x, np.array([epsilon]),
                         np.array([weight]), 0)[0][0])
    denom = epsilon / 2 if len(rho) == 2 else epsilon
    e_rel = None if epsilon == 0.0 else (e_val + denom) / denom
    return e_val, e_rel


# ---------------------------------------------------------------------------
# cycle maps: transfer matrices of a system block, on its physical sector and
# coherences (`cycle_maps`) or on row-major vec(rho) (the one-block views)
# ---------------------------------------------------------------------------

@lru_cache(maxsize=8)
def _cycle_layout(ds: int, dr: int) -> tuple[np.ndarray, ...]:
    """Index arrays of a cycle on the parity blocks of U = e^{-iHt}.

    The rest starts in the states r < dr / ds: the bath (as many modes as the
    system, the rest's leading bits) in its vacuum, and the environment modes
    in any state.  Returns, all read-only:

    - `cols` (2, c): the columns (x, r) of U's even and odd block that such
      starts reach, x a system state;
    - `gather` (2, ds^2/2, k): for s = 0, 1, the flat positions among those
      columns (2, d/2, c) of A_s[(i, x), (b, r)] = U[(i, b), (x, r)], over
      the rows (i, x) and columns (b, r) of parity s (parity conservation
      makes the entries between parities zero);
    - `rest` (2, k): the start r of each of those columns;
    - `out` (2, ds^2/2, ds^2/2): the flat position in M_s = A_s W A_s^dag
      (2, ds^2/2, ds^2/2) of each entry T[(i,j),(x,y)] = M[(i,x),(j,y)] of
      the physical sector and of the coherences (`_vec_sectors`);
    - `pairs` (2, 2, ds^2/2, k): U's row (i, b) and column (x, r) of each
      entry of A_s, in the parity-ordered basis (the even d/2 states first).
    """
    d, n_rest, half = ds * dr, dr // ds, ds * ds // 2
    par = np.array([bin(f).count("1") % 2 for f in range(d)])
    rank = np.empty(d, dtype=int)
    rank[_parity_classes(d)] = np.arange(d // 2)
    pos = par * (d // 2) + rank
    starts = (dr * np.arange(ds)[:, None] + np.arange(n_rest)).reshape(-1)
    starts = [starts[par[starts] == q] for q in (0, 1)]
    cols = np.stack([rank[f] for f in starts])
    col_pos = np.empty(d, dtype=int)
    for f in starts:
        col_pos[f] = np.arange(len(f))
    i, x = np.divmod(np.arange(ds * ds), ds)
    b, r = np.divmod(np.arange(dr * n_rest), n_rest)
    row_pos = np.empty(ds * ds, dtype=int)
    gather, rest, pairs = [], [], []
    for s in (0, 1):
        rows, keep = np.flatnonzero(par[i] ^ par[x] == s), par[b] ^ par[r] == s
        row_pos[rows] = np.arange(half)
        u_row = dr * i[rows, None] + b[keep]
        u_col = dr * x[rows, None] + r[keep]
        gather.append(pos[u_row] * cols.shape[1] + col_pos[u_col])
        rest.append(r[keep])
        pairs.append([pos[u_row], pos[u_col]])
    i, j = np.divmod(_vec_sectors(ds)[:, :, None], ds)
    x, y = np.divmod(_vec_sectors(ds)[:, None, :], ds)
    out = ((par[i] ^ par[x]) * half + row_pos[ds * i + x]) * half + row_pos[ds * j + y]
    layout = cols, np.array(gather), np.array(rest), out, np.array(pairs).swapaxes(0, 1)
    for a in layout:
        a.flags.writeable = False
    return layout


def _fixed_time_maps(fb: FockBlock, ts, kappa: float = 0.0):
    """Yield the cycle transfers of the eigenbases in `fb` (one block, or a
    stack over leading axes), one per time in `ts`, in order, as blocks
    (..., 2, D/2, D/2) on the physical sector and on the coherences
    (`_vec_sectors`), D = d_sys^2.

    Only the entries of U that a populated rest state reaches are formed, u
    = V e^{-iEt} V^dag[:, cols] per parity block (`_cycle_layout`), and A_s
    gathers them by the parity s of its rows and columns.  With W the rest
    weights of A's columns, M_s = A_s W A_s^dag, and T[(i,j),(x,y)] =
    M[(i,x),(j,y)].  The weights, those rows of V^dag and the noise factors
    of every time are formed once, before the first map.
    """
    e, v = fb.eig()
    ds, dr = fb.d_sys, fb.d_rest
    cols, gather, rest, out, _ = _cycle_layout(ds, dr)
    p_env = (1.0 - fb.block.env.p_e) / 2.0 if fb.block.env is not None else 0.0
    w = functools.reduce(np.kron, [[1.0 - p_env, p_env]] * (fb.n_modes - 2 * fb.n_sys_modes),
                         np.ones(1))[rest][:, None, :]
    # contiguous operands (and np.take below): the matmul path numpy picks
    # depends on the memory layout, so a block's bits would depend on its stack
    v_cols = np.ascontiguousarray(v[..., [[0], [1]], cols, :].conj().swapaxes(-1, -2))
    ts = np.asarray(ts, dtype=float)
    if kappa > 0:  # T_kappa = N_sys T_0 C per sector, see the module docstring
        rates, proj = _noise_projectors(fb.n_sys_modes)
        c = rates + 2 * fb.n_sys_modes * (rates % 2)
        noise = np.einsum("tjs,jsab->tsab", np.exp(-kappa * np.multiply.outer(ts, c)), proj)
    for i, t in enumerate(ts):
        u = v @ (np.exp(-1j * (t * e))[..., :, None] * v_cols)
        a = np.take(u.reshape(u.shape[:-3] + (-1,)), gather, axis=-1)
        m = (a * w) @ a.conj().swapaxes(-1, -2)
        maps = np.take(m.reshape(m.shape[:-3] + (-1,)), out, axis=-1)
        yield noise[i] @ maps if kappa > 0 else maps


def exact_cycle_map(block: ModeBlock | FockBlock, t: float, kappa: float = 0.0) -> np.ndarray:
    """Transfer matrix of one cooling cycle, rho -> Tr_rest[e^{-iHt} (rho x
    rho_rest) e^{iHt}], on row-major vec(rho): one block and one time of
    `cycle_maps`' fixed-time builder, its physical sector and coherences in
    place and zeros between.

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
    return _unblock(next(_fixed_time_maps(fb, [t], kappa)), _vec_sectors(fb.d_sys))


@lru_cache(maxsize=4)
def _noise_projectors(n_modes: int) -> tuple[np.ndarray, np.ndarray]:
    """Rates r = 2j + s (n+1, 2) and the blocks (n+1, 2, D/2, D/2) on sector s
    (`_vec_sectors`, D = d^2) of the projectors Pi_r = sum vec(c_S)
    vec(c_S)^dag / d of the unit-rate gain/loss generator, over the Majorana
    monomials c_S of rate r: sector s keeps the rates of its parity, and r =
    2n + 1, which no monomial has, a zero projector."""
    majoranas = [c for a in mode_operators(n_modes) for c in (a + a.conj().T, 1j * (a.conj().T - a))]
    sectors = _vec_sectors(2**n_modes)
    proj = np.zeros((n_modes + 1, 2) + sectors.shape[-1:] * 2, dtype=complex)
    for subset in itertools.product((False, True), repeat=2 * n_modes):
        q = sum(subset)
        mono = functools.reduce(np.matmul, itertools.compress(majoranas, subset),
                                np.eye(2**n_modes)).reshape(-1)[sectors[q % 2]]
        rate = q if q % 2 == 0 else 2 * n_modes - q
        proj[rate // 2, rate % 2] += np.outer(mono, mono.conj()) / 2**n_modes
    return 2 * np.arange(n_modes + 1)[:, None] + np.arange(2), proj


def noise_transfer(n_sys_modes: int, kappa: float, t) -> np.ndarray:
    """Transfer matrix of the particle gain/loss channel e^{L_E t} on a block;
    an array of times gives the stack of them, shape t.shape + (d^2, d^2)."""
    if kappa < 0:
        raise ValueError(f"kappa must be >= 0, got {kappa}")
    rates, proj = _noise_projectors(n_sys_modes)
    decay = np.exp(-kappa * np.multiply.outer(np.asarray(t, dtype=float), rates))
    return _unblock(np.einsum("...js,jsab->...sab", decay, proj), _vec_sectors(2**n_sys_modes))


def averaged_cycle_map(block: ModeBlock | FockBlock, t_mean: float,
                       kappa: float = 0.0) -> np.ndarray:
    """Cycle map averaged over uniformly random times on [0, 2*t_mean], the
    ensemble limit of a long randomized-time subcycle sequence, at every
    noise rate: one block's two sectors on row-major vec(rho), as
    `exact_cycle_map`, each M_s = sum_b L_b G L_b^dag (module docstring) on
    the parity blocks' eigenvectors, laid out by `_cycle_layout`."""
    fb = block if isinstance(block, FockBlock) else second_quantize(block)
    if fb.block.env is not None:
        raise ValueError("averaged maps of environment-extended blocks are not supported")
    e, v = fb.eig()
    ds, e = fb.d_sys, e.reshape(-1)
    *_, out, pairs = _cycle_layout(ds, fb.d_rest)
    v = _unblock(v, np.arange(len(e)).reshape(2, -1))
    l = v[pairs[0]] * v[pairs[1]].conj()  # (2, ds^2/2, k, d)
    rates, proj = _noise_projectors(fb.n_sys_modes) if kappa > 0 else (np.zeros((1, 1)), None)
    c = (rates + 2 * fb.n_sys_modes * (rates % 2))[..., None, None]
    g = uniform_average(2.0 * t_mean * (c * kappa + 1j * np.subtract.outer(e, e)))
    m = (l.reshape(2, -1, len(e)) @ g[..., None, :, :]).reshape(g.shape[:-2] + l.shape[:2] + (-1,))
    m = (m @ l.reshape(l.shape[:2] + (-1,)).conj().swapaxes(-1, -2)).reshape(len(g), -1)
    # each rate's sector s is read from the M of its own kernel G[:, s]
    m = np.take(m, out + out.size * np.arange(g.shape[1])[:, None, None], axis=-1)
    return _unblock(m[0] if proj is None else (proj @ m).sum(axis=0), _vec_sectors(ds))


def cycle_maps(block: ModeBlock, ts, t_mean: float, kappa: float):
    """Yield the transfers K on the physical sector of one bath frequency,
    stacked over `block` (a stack of edges or of pairs, one `mode_groups`
    group), one per time in `ts`, in order.

    The stack is second-quantized at once, with the eigenbases of its parity
    blocks from one stacked eigh, and held until the generator is done.
    Each fixed time gives the physical sectors of the stack of
    `exact_cycle_map`s at the gain/loss rate `kappa`, with the environments'
    p_E read from `block.env`; a time of None stands for the physical sector
    of `averaged_cycle_map` over [0, 2 t_mean], taken per mode.
    """
    ham = _hamiltonians(block)
    fb = FockBlock(ham, 1 if np.all(block.is_edge) else 2, block)
    sector = _vec_sectors(fb.d_sys)[0]
    fixed = _fixed_time_maps(fb, [t for t in ts if t is not None], kappa)
    for t in ts:
        if t is None:
            yield np.stack([averaged_cycle_map(FockBlock(h, fb.n_sys_modes, block, (e, v)), t_mean,
                                               kappa)[np.ix_(sector, sector)]
                            for h, e, v in zip(ham, *fb.eig())])
        else:
            yield next(fixed)[:, 0]


def mode_chunks(ks: np.ndarray, env: NoiseSpec | None) -> list[np.ndarray]:
    """Chunks of the `mode_groups` group `ks` for `cycle_maps`: 64 kB for the
    eigenvectors of the chunk's parity blocks, two d/2 x d/2 complex blocks
    per mode, d = 2^(Fock modes) with 2 Fock modes for the edges (the group
    with k = 0) and 4 for pairs, twice that with environments.  So 32 pairs,
    512 edges, 32 environment edges or one environment pair (512 kB alone)
    per chunk.

    A chunk holds a few stacks of that size at once: each open frequency's
    Hamiltonians and eigenvectors, one map's transients (both sectors) and,
    half that size, the running product of `_global_maps`.  On the
    benchmark's N = 200 trajectories (theta = pi/3, g = 1e-2, t = 10, 100
    cycles; randomized L = 10 and multifreq R = 3, L = 4; 2-vCPU host, one
    BLAS thread), 32-pair chunks took the Fock time from 0.044 to 0.040 s
    and the peak RSS from 43.1 to 43.5 MB against 16-pair chunks (medians
    of ten runs each); 16-pair chunks of whole 16 x 16 blocks had taken
    0.063 s and 43.7 MB.
    """
    n_modes = (2 if ks[0] == 0 else 4) * (2 if env is not None else 1)
    size = max(1, (1 << 16) // (8 * 4**n_modes))
    return [ks[i:i + size] for i in range(0, len(ks), size)]


# ---------------------------------------------------------------------------
# steady states and rates
# ---------------------------------------------------------------------------

def steady_state(transfer: np.ndarray) -> tuple[np.ndarray, float]:
    """Unique fixed state (d, d) of a transfer matrix (d^2, d^2) on row-major
    vec(rho) and its cooling rate alpha = -log|lambda_2|: a one-mode
    `fixed_points` of its physical sector."""
    sector = _vec_sectors(math.isqrt(transfer.shape[-1]))[0]
    x, alpha, _ = fixed_points(transfer[np.ix_(sector, sector)][None])
    return matrices(x)[0], float(alpha[0])


def fixed_points(k: np.ndarray, edge=None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Unique fixed states of stacked transfer matrices T (modes, d^2/2,
    d^2/2) on the physical sector (`cycle_maps`).

    Returns the fixed sector vectors, the cooling rates and the trace-norm
    residuals.  `edge` keeps the signature of `cm.fixed_points`: every Fock
    edge block is physical.  T conserves the trace tau.x, tau marking the
    populations, and `_linalg.affine_fixed_points`, the CM engine's solve
    too, eliminates rho_00 through it; alpha is -log|lambda_2| of the sector.
    A state whose trace-norm residual exceeds FIXED_POINT_ATOL raises
    NonUniqueFixedPoint.
    """
    n = k.shape[-1]
    ds = math.isqrt(2 * n)
    x, alpha = affine_fixed_points(k, _vec_sectors(ds)[0] % (ds + 1) == 0)
    x = hermitize(x.reshape(-1, 2, ds // 2, ds // 2)).reshape(-1, n)
    resid = trace_norm(matrices((k @ x[..., None])[..., 0] - x))
    if np.max(resid, initial=0.0) > FIXED_POINT_ATOL:
        raise NonUniqueFixedPoint(1, f"fixed-point residual {np.max(resid):.2e} above tolerance")
    return x, alpha, resid
