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
U[(i,b),(x,r)] of populated rest states r: with their weights w_r,
T[(i,j),(x,y)] = sum_{b,r} w_r U[(i,b),(x,r)] U*[(j,b),(y,r)].  Parity
superselection keeps the physical (parity-diagonal) sector of vec(rho), the
even and the odd block of rho, apart from the coherences between them, with
or without noise, and physical states live in it; so the engine builds
transfers on that sector alone.  A physical entry, par(x) = par(y) = q, with
a start r of parity s reads U's parity block q ^ s only, and the rows (i, b)
of b's parity par(i) ^ q ^ s (`_cycle_layout`).  One builder (`_maps`) reads
both kinds of time from that layout: at a fixed time it forms those entries
of U and sums the products per q; over uniform random times on [0, 2
t_mean] it averages them in closed form by `_linalg.random_time_average`,
from l[(i,x),(r,b),a] = V[(i,b),a] V*[(x,r),a] sqrt(w_r) with the
eigenvalues of block q ^ s, and sums over s.

A chain state is a stack of sector vectors x = (vec rho_even, vec
rho_odd), d^2/2 entries with rho_00 first (8 for a pair, where d = 4, and 2
for an edge, where d = 2); `cycle_maps` yields transfers on that sector, and
`reduce` reads the populations it needs from the vector itself.  The d x d
density of a sector vector, `matrices`, is built only for the one-block
view `steady_state` and for the tests.  Steady states and
cooling rates: every sector transfer conserves the trace, and the
fixed-point routine the CM engine uses solves all modes at once after
eliminating rho_00 through it, makes each parity block Hermitian and judges
the residual, with one verdict for both engines.

`cycle_maps` yields the maps of a stack of modes, one per time, from one
stacked eigendecomposition, with the rest weights and populated columns
formed once per call.  While its frequency is open it holds the eigenvalues
and eigenvectors of the parity blocks, not the Hamiltonian they came from,
and the conjugates of the eigenvector rows its fixed-time maps read (the
populated columns), not of every row; a random-time average conjugates the
eigenvectors for its own map alone.  `mode_groups` picks those stacks, one
block size each: the edges, then the pairs in stacks of 256 kB of
eigenvectors, 128 pairs, so up to N = 258 a frequency's pairs are one
stack.
`exact_cycle_map` (one time) and `averaged_cycle_map` (random times) are
one-block views of the same builder, environments included, and
`steady_state` solves one such transfer.

Gain/loss noise of rate kappa is X -> (c X c + c' X c')/2 - X per mode, in
the mode's Majoranas c, c'.  On a Majorana monomial of degree q, c X c =
+-X, so an even monomial decays at rate q and an odd one at 2n - q, n the
number of modes; even monomials are parity-diagonal, so the physical sector
has the even rates r, with the projectors Pi_r of `_noise_projectors`.  The
quadratic unitary keeps degrees and commutes with the noise, and the bath
trace keeps system monomials, so on the physical sector the noisy cycle is
the noiseless one followed by system noise, T_kappa(t) = N_sys(t) T_0(t)
(the bath's share of the rates falls on the coherences alone).  So Pi_r
decays by e^{-r kappa t} at a fixed time and, averaged, inside W at the
rate r kappa.  The channel N_sys is never formed on its own here (the
tests' reference `oracles.noise_transfer` builds it on the whole operator
space).

This module doubles as the brute-force oracle for the closed-form layer.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from ._linalg import affine_fixed_points, random_time_average
from .model import ModeBlock, NoiseSpec

__all__ = [
    "FockBlock",
    "second_quantize",
    "exact_cycle_map",
    "averaged_cycle_map",
    "cycle_maps",
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
    shape (2, d/2, d/2), or a stack of such pairs over leading axes; it may
    be None on a block built from its eigenbasis `_eig` alone.
    """

    blocks: np.ndarray | None
    block: ModeBlock
    _eig: tuple[np.ndarray, np.ndarray] | None = field(default=None, repr=False)

    @property
    def n_sys_modes(self) -> int:
        """System modes: two for a pair, whose single-particle matrix has a
        row per Fock mode, and one for an edge, whose doubled basis has two."""
        return 2 * self.n_modes // self.block.h_sb.shape[-1]

    @property
    def n_modes(self) -> int:
        """Fock modes n, from the parity blocks' size 2^(n-1)."""
        return (self.blocks if self._eig is None else self._eig[0]).shape[-1].bit_length()

    @property
    def d_sys(self) -> int:
        return 2**self.n_sys_modes

    @property
    def d_rest(self) -> int:
        return 2 ** (self.n_modes - self.n_sys_modes)

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
        return _unblock(u)


@lru_cache(maxsize=16)
def _parity_classes(d: int) -> np.ndarray:
    """Read-only (2, d/2) array of the states of a d-state Fock basis by
    fermion parity: the even states, then the odd, each in increasing order."""
    par = np.array([bin(i).count("1") % 2 for i in range(d)])
    classes = np.stack([np.flatnonzero(par == 0), np.flatnonzero(par == 1)])
    classes.flags.writeable = False
    return classes


def _unblock(m: np.ndarray) -> np.ndarray:
    """The d x d matrices, stacked over leading axes, that hold the parity
    blocks m (..., 2, d/2, d/2) on the rows and columns of their parity
    (`_parity_classes`), and zeros between."""
    d = 2 * m.shape[-1]
    index = _parity_classes(d)
    out = np.zeros(m.shape[:-3] + (d, d), dtype=m.dtype)
    out[..., index[:, :, None], index[:, None, :]] = m
    return out


@lru_cache(maxsize=8)
def _physical_sector(ds: int) -> np.ndarray:
    """Read-only (ds^2/2,) positions in row-major vec(rho) of a ds-state
    system block of its physical sector: the blocks rho_qq of the parities q
    (even first), row-major."""
    c = _parity_classes(ds)
    sector = (ds * c[:, :, None] + c[:, None, :]).reshape(-1)
    sector.flags.writeable = False
    return sector


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
    block_pos = _unblock(np.arange(2 * half * half).reshape(2, half, half)).reshape(-1)
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
    flattened to shape (modes, 2, d/2, d/2)."""
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
    (a, a^dag, b, b^dag, ...) over half as many physical modes.  A stack of
    blocks keeps its leading axes, (..., 2, d/2, d/2).
    """
    ham = _hamiltonians(block)
    return FockBlock(ham.reshape(block.h_sb.shape[:-2] + ham.shape[1:]), block)


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
    return _unblock(x.reshape(x.shape[:-1] + (2, half, half)))


def mode_groups(n2: int, env: NoiseSpec | None) -> list[np.ndarray]:
    """The modes k = 0..n2 as groups, each built and stepped as one stack:
    the edges (k = 0 and n2), then the pairs, in stacks of 256 kB for the
    eigenvectors of the stack's parity blocks, two d/2 x d/2 complex blocks
    per mode, d = 2^(Fock modes) with 2 Fock modes for the edges and 4 for
    pairs, twice that with the environments `env`.  So 128 pairs, 2048
    edges, 128 environment edges or one environment pair (512 kB alone) per
    stack; up to N = 258 a frequency's pairs are one stack.

    A stack holds a few arrays of that size at once: each open frequency's
    eigenvectors (`cycle_maps` drops the Hamiltonian after its eigh), one
    map's transients and, half that size, the running product of
    `_global_maps`.  Timed in-process on Fock trajectories (theta = pi/3,
    g = 1e-2, t = 10, 100 cycles; randomized L = 10 and multifreq R = 3,
    L = 4) and randomized L = 100 steady reports (theta = pi/4, g = 1e-4,
    t = 20), 2-vCPU host, one BLAS thread, the fastest of 60 interleaved
    rounds at N = 200 and of 20 at N = 1000, 128-pair stacks against
    32-pair chunks took randomized 7.5 -> 6.2 ms, multifreq 13.8 -> 11.9
    ms and steady 10.6 -> 9.3 ms at N = 200, and 31.3 -> 25.7, 57.8 -> 50.5
    and 45.8 -> 40.9 ms at N = 1000, where 256-pair stacks took 28.1, 51.9
    and 40.3 ms: no faster, so 128 is the cap.  Many open frequencies pay
    for it in memory: the tracemalloc peak of an N = 200 multifreq R = 20
    trajectory rose from 6.2 to 10.4 MB.
    """
    ks = np.arange(n2 + 1)
    groups = []
    for group, n_modes in ((np.array([0, n2]), 2), (ks[1:n2], 4)):
        size = max(1, (1 << 18) // (8 * 4 ** (n_modes * (2 if env is not None else 1))))
        groups += [group[i:i + size] for i in range(0, len(group), size)]
    return groups


def initial_blocks(kind: str, ks: np.ndarray, n2: int) -> np.ndarray:
    """The product state "vacuum" or "most_excited" of the modes `ks`, all
    edges (k = 0, n2) or all pairs: sector vectors stacked over ks."""
    rho = (vacuum_density if kind == "vacuum" else most_excited_density)(ks[0] in (0, n2))
    return np.tile(rho.reshape(-1)[_physical_sector(len(rho))], (len(ks), 1))


def reduce(ks: np.ndarray, x: np.ndarray, w_eps: np.ndarray,
           n2: int) -> tuple[np.ndarray, np.ndarray]:
    """Energies and vacuum fidelities rho_00 of the modes `ks` from sector
    vectors x stacked to (..., len(ks), d^2/2), one block size d per call (see
    `block_energy`); `w_eps` = w eps and `n2` as in `cm.reduce`.

    The populations are read from x: an edge's x is (rho_00, rho_11), and a
    pair's opens with its even block (rho_00, rho_03, rho_30, rho_33), whose
    last entry is rho_(11),(11), both modes full."""
    rho_00 = x[..., 0].real
    if x.shape[-1] == 2:
        return w_eps[..., ks] * (2.0 * x[..., 1].real - 1.0), rho_00
    return w_eps[..., ks] * (x[..., 3].real - rho_00), rho_00


def block_energy(rho: np.ndarray, epsilon: float, weight: float):
    """Mode energy and relative energy (E_k, e_k) of a d x d density; E_k is
    one row of `reduce`.

    Pairs (weight w = 1) measure w eps (n_k + n_-k - 1), edges (w = 1/2) w eps
    (2n - 1); e_k is normalized so the ground state gives 0 and the most
    excited state 2; it is None when eps = 0.
    """
    rho = np.asarray(rho)
    x = rho.reshape(1, -1)[:, _physical_sector(len(rho))]
    w_eps = weight * epsilon
    e_val = float(reduce(np.zeros(1, dtype=int), x, np.array([w_eps]), 0)[0][0])
    e_rel = None if epsilon == 0.0 else (e_val + w_eps) / w_eps
    return e_val, e_rel


# ---------------------------------------------------------------------------
# cycle maps: transfer matrices of a system block on its physical sector
# ---------------------------------------------------------------------------

@lru_cache(maxsize=8)
def _cycle_layout(ds: int, dr: int) -> tuple[np.ndarray, ...]:
    """Index arrays of a cycle's physical sector on the parity blocks of U =
    e^{-iHt} and of its eigenvectors.

    The rest starts in the states r < dr / ds: the bath (as many modes as the
    system, the rest's leading bits) in its vacuum, and the environment modes
    in any state.  A physical entry M[(i,x),(j,y)] has par(x) = par(y) = q;
    with a start r of parity s, U[(i,b),(x,r)] lies in U's parity block p =
    q ^ s and b has parity par(i) ^ p.  Returns, all read-only:

    - `cols` (2, c): the columns (x, r) of U's even and odd block that the
      starts reach, x a system state, as positions among the stacked parity
      blocks (2 d/2);
    - `rows`, `columns` (2, S, ds^2/2, n): for each block p and start parity
      s (S = 1 without environments, where r = 0 alone), over the rows (i,
      x) of par(x) = p ^ s and the columns (r, b) of those parities, the
      positions of (i, b) and (x, r) among the stacked parity blocks (2 d/2);
    - `gather` (2, S, ds^2/2, n): the flat position of U[(i,b),(x,r)] among
      the columns `cols` of U's blocks (2, d/2, c);
    - `take` (S, ds^2/2, ds^2/2): the flat position in the blocks M_ps (2,
      S, ds^2/2, ds^2/2) of the term of start parity s of each entry
      T[(i,j),(x,y)] = sum_s M_ps[(i,x),(j,y)] of the physical sector.
    """
    d, n_rest, half = ds * dr, dr // ds, ds * ds // 2
    par = np.array([bin(f).count("1") % 2 for f in range(d)])
    rank = np.empty(d, dtype=int)
    rank[_parity_classes(d)] = np.arange(d // 2)
    pos = par * (d // 2) + rank
    starts = (dr * np.arange(ds)[:, None] + np.arange(n_rest)).reshape(-1)
    starts = [starts[par[starts] == p] for p in (0, 1)]
    cols = np.stack([pos[f] for f in starts])
    col_pos = np.empty(d, dtype=int)
    for f in starts:
        col_pos[f] = np.arange(len(f))
    i, x = np.divmod(np.arange(ds * ds), ds)
    ix = np.stack([np.flatnonzero(par[x] == q) for q in (0, 1)])
    p, s = np.arange(2)[:, None], np.arange(min(n_rest, 2))
    i, x = i[ix[p ^ s]][..., None, None], x[ix[p ^ s]][..., None, None]  # (p, s, row, r, b)
    r = np.arange(n_rest)
    r = np.stack([r[par[r] == q] for q in s])
    b = _parity_classes(dr)[(par[i] ^ p[..., None, None, None])[..., 0]]
    u_row, u_col = np.broadcast_arrays(dr * i + b, dr * x + r[:, None, :, None])
    shape = (2, len(s), half, -1)
    rows, columns = pos[u_row].reshape(shape), pos[u_col].reshape(shape)
    gather = (pos[u_row] * cols.shape[1] + col_pos[u_col]).reshape(shape)
    row_q = np.empty(ds * ds, dtype=int)
    row_q[ix] = np.arange(half)
    i, j = np.divmod(_physical_sector(ds)[:, None], ds)
    x, y = np.divmod(_physical_sector(ds)[None, :], ds)
    s = s[:, None, None]
    take = (((par[x] ^ s) * len(s) + s) * half + row_q[ds * i + x]) * half + row_q[ds * j + y]
    layout = cols, rows, columns, gather, take
    for a in layout:
        a.flags.writeable = False
    return layout


@lru_cache(maxsize=4)
def _noise_projectors(n_modes: int) -> tuple[np.ndarray, np.ndarray]:
    """Even rates r = 0, 2, .., 2n and the blocks (n+1, D/2, D/2) on the
    physical sector (D = d^2) of the projectors Pi_r = sum vec(c_S)
    vec(c_S)^dag / d of the unit-rate gain/loss generator, over the even
    Majorana monomials c_S of degree r."""
    majoranas = [c for a in mode_operators(n_modes) for c in (a + a.conj().T, 1j * (a.conj().T - a))]
    sector = _physical_sector(2**n_modes)
    proj = np.zeros((n_modes + 1,) + sector.shape * 2, dtype=complex)
    for subset in itertools.product((False, True), repeat=2 * n_modes):
        if sum(subset) % 2 == 0:
            mono = functools.reduce(np.matmul, itertools.compress(majoranas, subset),
                                    np.eye(2**n_modes)).reshape(-1)[sector]
            proj[sum(subset) // 2] += np.outer(mono, mono.conj()) / 2**n_modes
    return 2 * np.arange(n_modes + 1), proj


def _maps(fb: FockBlock, ts, t_mean: float, kappa: float):
    """Yield the cycle transfers (..., D/2, D/2) on the physical sector of the
    eigenbases in `fb` (one block, or a stack over leading axes), D =
    d_sys^2, one per time in `ts`, in order; a time of None is the average
    over uniform random times on [0, 2 t_mean].

    Both kinds read the columns (r, b) of each block p and start parity s
    from `_cycle_layout`, give the blocks M_ps, and take the sector's
    entries from them, summed over s.  The rest weights w_r enter once, as
    sqrt(w_r) on the rows (x, r) of V* (without environments the one start
    is the bath's vacuum, of weight 1).  At a fixed time, u = V e^{-iEt}
    V^dag[:, cols] per parity block, `gather` reads a[(i,x),(r,b)] =
    U[(i,b),(x,r)] from it, M_ps = a a^dag, and the noise sum_r e^{-r kappa
    t} Pi_r follows; those rows of V^dag and the noise of every fixed time
    are formed once, before the first map.  Random times average M_ps =
    sum_b l_b W l_b^dag, with W of block p's eigenvalues at each even noise
    rate, and apply each rate's projector.  Gain/loss noise is not defined
    on environment-extended blocks (ValueError).
    """
    if kappa > 0 and fb.block.env is not None:
        raise ValueError("depolarizing noise on environment-extended blocks is not supported")
    e, v = fb.eig()
    cols, rows, columns, gather, take = _cycle_layout(fb.d_sys, fb.d_rest)
    vs = v.reshape(v.shape[:-3] + (-1, v.shape[-1]))  # the parity blocks' rows stacked
    sqrt_w = None
    if fb.block.env is not None:  # w_r: the bath empty, each environment mode full at p_env
        p_env = (1.0 - fb.block.env.p_e) / 2.0
        w = functools.reduce(np.kron, [[1.0, 0.0]] * fb.n_sys_modes
                             + [[1.0 - p_env, p_env]] * (fb.n_modes - 2 * fb.n_sys_modes))
        sqrt_w = np.sqrt(w)[_parity_classes(2 * v.shape[-1]).reshape(-1, 1) % fb.d_rest]
    rates, proj = _noise_projectors(fb.n_sys_modes)
    fixed = [t for t in ts if t is not None]
    if fixed:
        v_cols = vs[..., cols, :].conj()
        if sqrt_w is not None:
            v_cols *= sqrt_w[cols]
        # contiguous operands (and np.take below): the matmul path numpy picks
        # depends on the memory layout, so a block's bits would depend on its stack
        v_cols = np.ascontiguousarray(v_cols.swapaxes(-1, -2))
    if fixed and kappa > 0:
        noise = iter(np.einsum("tj,jab->tab", np.exp(-kappa * np.multiply.outer(fixed, rates)), proj))
    for t in ts:
        if t is None:
            # l (..., 1, p, s, ds^2/2, n, d/2), broadcast over the noise rates on its axis -6
            vc = vs.conj() if sqrt_w is None else vs.conj() * sqrt_w
            l = vs[..., rows, :] * vc[..., columns, :]
            m = random_time_average(l[..., None, :, :, :, :, :], e[..., None, :, None, :],
                                    rates[:, None, None] * kappa if kappa > 0 else 0.0, t_mean)
            m = np.take(m.reshape(m.shape[:-4] + (-1,)), take, axis=-1)
            yield (proj[:, None] @ m if kappa > 0 else m).sum(axis=(-4, -3))
        else:
            u = v @ (np.exp(-1j * (t * e))[..., :, None] * v_cols)
            a = np.take(u.reshape(u.shape[:-3] + (-1,)), gather, axis=-1)
            m = a @ a.conj().swapaxes(-1, -2)
            m = np.take(m.reshape(m.shape[:-4] + (-1,)), take, axis=-1).sum(axis=-3)
            yield next(noise) @ m if kappa > 0 else m


def exact_cycle_map(block: ModeBlock | FockBlock, t: float, kappa: float = 0.0) -> np.ndarray:
    """Transfer matrix of one cooling cycle, rho -> Tr_rest[e^{-iHt} (rho x
    rho_rest) e^{iHt}], on the physical sector of one block (D/2, D/2): one
    block and one time of `cycle_maps`.

    The rest is the reset bath in its vacuum and, on an environment-extended
    block, each environment mode in ((1+p_E)/2)|0><0| + ((1-p_E)/2)|1><1|.
    Uniform gain/loss noise of rate kappa gives T_kappa(t) = N_sys T_0
    (module docstring); it is not defined on environment-extended blocks.
    """
    if t < 0:
        raise ValueError(f"cycle time must be >= 0, got {t}")
    if kappa < 0:
        raise ValueError(f"kappa must be >= 0, got {kappa}")
    fb = block if isinstance(block, FockBlock) else second_quantize(block)
    return next(_maps(fb, [t], 0.0, kappa))


def averaged_cycle_map(block: ModeBlock | FockBlock, t_mean: float,
                       kappa: float = 0.0) -> np.ndarray:
    """Cycle map averaged over uniformly random times on [0, 2*t_mean], the
    ensemble limit of a long randomized-time subcycle sequence, at every
    noise rate: the transfer (..., D/2, D/2) on the physical sector of one
    block, or of a stack over leading axes, as `cycle_maps` yields it."""
    fb = block if isinstance(block, FockBlock) else second_quantize(block)
    return next(_maps(fb, [None], t_mean, kappa))


def cycle_maps(block: ModeBlock, ts, t_mean: float, kappa: float):
    """Yield the transfers K on the physical sector of one bath frequency,
    stacked over `block` (a stack of edges or of pairs, one `mode_groups`
    group), one per time in `ts`, in order.

    The stack is second-quantized at once, with the eigenbases of its parity
    blocks from one stacked eigh; they are held until the generator is done,
    and the Hamiltonian is not kept past its eigh.
    Each fixed time gives the stack of `exact_cycle_map`s at the gain/loss
    rate `kappa`, with the environments' p_E read from `block.env`; a time
    of None stands for `averaged_cycle_map` over [0, 2 t_mean], taken per
    mode and stacked.
    """
    fb = FockBlock(None, block, second_quantize(block).eig())
    fixed = _maps(fb, [t for t in ts if t is not None], t_mean, kappa)
    for t in ts:
        if t is None:
            yield np.stack([averaged_cycle_map(FockBlock(None, block, eig), t_mean, kappa)
                            for eig in zip(*fb.eig())])
        else:
            yield next(fixed)


# ---------------------------------------------------------------------------
# steady states and rates
# ---------------------------------------------------------------------------

def steady_state(transfer: np.ndarray) -> tuple[np.ndarray, float]:
    """Unique fixed state (d, d) of a transfer matrix (d^2/2, d^2/2) on the
    physical sector and its cooling rate alpha = -log|lambda_2|: a one-mode
    `fixed_points`."""
    x, alpha, _ = fixed_points(transfer[None])
    return matrices(x)[0], float(alpha[0])


def fixed_points(k: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Unique fixed states of stacked transfer matrices T (modes, d^2/2,
    d^2/2) on the physical sector (`cycle_maps`).

    Returns the fixed sector vectors, the cooling rates and the residuals
    sum |T x - x|, all from `_linalg.affine_fixed_points`, the CM engine's
    solve and verdict too.  T conserves the trace tau.x, tau
    marking the populations, and the solve eliminates rho_00 through it;
    alpha is -log|lambda_2| of the sector.  The conjugate transpose of a
    sector vector transposes each parity block.
    """
    ds = math.isqrt(2 * k.shape[-1])
    blocks = np.arange(k.shape[-1]).reshape(2, ds // 2, ds // 2)
    return affine_fixed_points(k, _physical_sector(ds) % (ds + 1) == 0,
                               blocks.swapaxes(1, 2).reshape(-1))
