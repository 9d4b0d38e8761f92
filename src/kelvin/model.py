"""Solvable chain model: dispersion, Bogoliubov frame, and per-mode blocks.

The chain of N fermionic sites is parametrized by a single angle theta (any
finite value).
Everything downstream works per momentum pair (k, -k), k = 0..N/2, on small
single-particle matrices ("blocks"): system pair, bath pair, and optionally
two environment pairs.  Edge modes k = 0 and k = N/2 are single modes and are
represented by half-weighted blocks on a doubled (particle-hole) basis.

All quantities are dimensionless.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from ._linalg import HERMITICITY_ATOL

__all__ = [
    "ModelParams",
    "CouplingScheme",
    "BathSpec",
    "NoiseSpec",
    "NOISE_KEYS",
    "ModeBlock",
    "coupling_keys",
    "dispersion",
    "mode_grid",
    "coupling_arrays",
    "ground_state_energy",
    "energy_density_limit",
    "block_hamiltonian",
    "band_edges",
]


@dataclass(frozen=True)
class ModelParams:
    """Chain size (even, >= 2) and angle theta, any finite value.

    The paper restricts theta to [0, pi/2] without loss of generality (any
    other theta is equivalent to one there after a change of couplings);
    the model computes every theta as given.
    """

    N: int
    theta: float

    def __post_init__(self):
        if self.N < 2 or self.N % 2 != 0:
            raise ValueError(f"N must be even and >= 2, got {self.N}")
        if not math.isfinite(self.theta):
            raise ValueError("theta must be finite")


def coupling_keys(nn: float) -> list[int]:
    """Neighbor offsets for range nn.

    Integer nn couples j = -nn..nn; half-integer nn couples only the +j side
    at the outermost distance, i.e. j = -floor(nn)..ceil(nn).
    """
    if nn < 0 or (2 * nn) != int(2 * nn):
        raise ValueError(f"nn must be a non-negative half-integer, got {nn}")
    return list(range(-math.floor(nn), math.ceil(nn) + 1))


@dataclass(frozen=True)
class CouplingScheme:
    """System-bath coupling: range nn, per-offset weights, overall strength g."""

    nn: float
    lam: dict[int, float]
    mu: dict[int, float]
    g: float

    def __post_init__(self):
        keys = coupling_keys(self.nn)
        for name, d in (("lambda", self.lam), ("mu", self.mu)):
            if sorted(d.keys()) != keys:
                raise ValueError(f"{name} keys {sorted(d.keys())} do not match nn={self.nn} (expect {keys})")
            for j, v in d.items():
                if abs(v) > 1 + 1e-12:
                    raise ValueError(f"{name}_{j} = {v} outside [-1, 1]")
        if self.g < 0:
            raise ValueError(f"g must be >= 0, got {self.g}")

    def __hash__(self):
        return hash((self.nn, tuple(sorted(self.lam.items())),
                     tuple(sorted(self.mu.items())), self.g))

    @classmethod
    def local(cls, lam0: float = 1.0, mu0: float = 1.0, g: float = 1.0) -> "CouplingScheme":
        return cls(nn=0, lam={0: lam0}, mu={0: mu0}, g=g)

    def rescaled(self, c: float) -> "CouplingScheme":
        """Multiply all couplings by c and divide g by c (leaves g*A_k, g*B_k fixed)."""
        return CouplingScheme(
            nn=self.nn,
            lam={j: v * c for j, v in self.lam.items()},
            mu={j: v * c for j, v in self.mu.items()},
            g=self.g / c,
        )


@dataclass(frozen=True)
class BathSpec:
    """Bath splitting and mean cycle time."""

    delta: float
    cycle_time_mean: float

    def __post_init__(self):
        if not (math.isfinite(self.delta) and self.delta > 0):
            raise ValueError(f"delta must be positive and finite, got {self.delta}")
        if not (math.isfinite(self.cycle_time_mean) and self.cycle_time_mean > 0):
            raise ValueError(f"cycle_time_mean must be positive and finite, got {self.cycle_time_mean}")


# The fields each noise kind uses; every other field of its NoiseSpec is 0.
NOISE_KEYS = {"none": (), "depolarizing": ("kappa",),
              "finite_env": ("kappa_prime", "delta_e", "p_e")}


@dataclass(frozen=True)
class NoiseSpec:
    """Noise on the cooling cycles, one of the kinds in `NOISE_KEYS`.

    "depolarizing" is uniform gain/loss of rate kappa on every mode;
    "finite_env" attaches one finite fermionic environment pair to the system
    and one to the bath, with coupling kappa_prime, splitting delta_e and
    polarization p_e.  A field the kind does not use must be 0, so every
    spec's gain/loss rate is `kappa` and its environment is `env`.
    """

    kind: str = "none"
    kappa: float = 0.0
    kappa_prime: float = 0.0
    delta_e: float = 0.0
    p_e: float = 0.0

    def __post_init__(self):
        if self.kind not in NOISE_KEYS:
            raise ValueError(f"unknown noise kind {self.kind!r}")
        foreign = [name for name in ("kappa", "kappa_prime", "delta_e", "p_e")
                   if name not in NOISE_KEYS[self.kind] and getattr(self, name) != 0]
        if foreign:
            raise ValueError(f"{self.kind!r} noise does not use {', '.join(foreign)}")
        if self.kappa < 0 or self.kappa_prime < 0:
            raise ValueError("noise strengths must be >= 0")
        if not (-1.0 <= self.p_e <= 1.0):
            raise ValueError(f"p_e must lie in [-1, 1], got {self.p_e}")

    @property
    def env(self) -> "NoiseSpec | None":
        """The spec itself if it describes finite environments, else None."""
        return self if self.kind == "finite_env" else None

    @classmethod
    def none(cls) -> "NoiseSpec":
        return cls("none")

    @classmethod
    def depolarizing(cls, kappa: float) -> "NoiseSpec":
        return cls("depolarizing", kappa=kappa)

    @classmethod
    def finite_env(cls, kappa_prime: float, delta_e: float, p_e: float) -> "NoiseSpec":
        return cls("finite_env", kappa_prime=kappa_prime, delta_e=delta_e, p_e=p_e)


def dispersion(theta: float, N: int, k):
    """Mode energy sqrt(1 + sin(2 theta) cos(2 pi k / N)) for an int or an
    array of k; symmetric in +-k."""
    x = 2 * math.pi * np.asarray(k) / N
    eps = np.sqrt(np.maximum(1.0 + math.sin(2 * theta) * np.cos(x), 0.0))
    return float(eps) if eps.ndim == 0 else eps


class _ModeGrid(NamedTuple):
    """Per-mode arrays over k = 0..N/2 (read-only) and the ground-state
    energy of one (N, theta); `_theta_grid` stacks them over theta."""

    ks: np.ndarray
    eps: np.ndarray
    phi: np.ndarray
    weights: np.ndarray
    cos_phi: np.ndarray
    sin_phi: np.ndarray
    e_gs: float


@functools.lru_cache(maxsize=256)
def _mode_row(N: int, theta: float) -> _ModeGrid:
    """The mode grid for any finite theta.

    phi_k rotates the pair block [[w, r], [r, -w]] to diag(eps, -eps), with
    w = sin theta + cos theta cos x, r = cos theta sin x, x = 2 pi k / N.
    The half-angle form arg(w + i r) / 2 has no eps - w cancellation and
    lies in [0, pi/2] for theta in [0, pi/2].
    At |r| < 1e-15 (k = 0, N/2) phi is 0 for w >= 0 and pi/2 for w < 0, the
    two canonical frames of an edge mode (at the gapless edge w is noise).
    """
    ks = np.arange(N // 2 + 1)
    eps = dispersion(theta, N, ks)
    x = 2 * math.pi * ks / N
    w = math.sin(theta) + math.cos(theta) * np.cos(x)
    r = math.cos(theta) * np.sin(x)
    phi = 0.5 * np.arctan2(r, w)
    edge = np.abs(r) < 1e-15
    phi[edge] = np.where(w[edge] >= 0, 0.0, math.pi / 2)
    weights = np.ones_like(eps)
    weights[0] = weights[-1] = 0.5
    row = _ModeGrid(ks, eps, phi, weights, np.cos(phi), np.sin(phi),
                    -float(np.sum(weights * eps)))
    for arr in row[:-1]:
        arr.flags.writeable = False
    return row


def mode_grid(params: ModelParams):
    """(k, eps_k, phi_k, weight_k) arrays over k = 0..N/2 (read-only)."""
    return _mode_row(params.N, params.theta)[:4]


def band_edges(theta: float) -> tuple[float, float]:
    """(eps_min, eps_max) = sqrt(1 -+ |sin 2 theta|), for any theta."""
    s = abs(math.sin(2 * theta))
    return math.sqrt(max(1 - s, 0.0)), math.sqrt(1 + s)


def ground_state_energy(params: ModelParams) -> float:
    """-1/2 sum_k eps_k over the full Brillouin zone."""
    return _mode_row(params.N, params.theta).e_gs


def _carlson_rd(x: float, y: float, z: float) -> float:
    """Carlson's R_D(x, y, z) by duplication (DLMF 19.36.2), relative error < 1e-15."""
    total, scale = 0.0, 1.0
    while max(x, y, z) - min(x, y, z) > 1e-3 * min(x, y, z):
        sx, sy, sz = math.sqrt(x), math.sqrt(y), math.sqrt(z)
        lam = sx * sy + sy * sz + sz * sx
        total += scale / (sz * (z + lam))
        scale /= 4
        x, y, z = (x + lam) / 4, (y + lam) / 4, (z + lam) / 4
    a = (x + y + 3 * z) / 5
    dx, dy = 1 - x / a, 1 - y / a
    dz = -(dx + dy) / 3
    xy, zz = dx * dy, dz * dz
    e2, e3 = xy - 6 * zz, (3 * xy - 8 * zz) * dz
    e4, e5 = 3 * (xy - zz) * zz, xy * zz * dz
    return 3 * total + scale * (1 - 3 * e2 / 14 + e3 / 6 + 9 * e2 * e2 / 88 - 3 * e4 / 22
                                - 9 * e2 * e3 / 52 + 3 * e5 / 26) / (a * math.sqrt(a))


def energy_density_limit(theta: float) -> float:
    """Thermodynamic-limit energy density f(theta) = (1/2pi) int_0^pi sqrt(1 + s cos x) dx
    with s = sin 2theta, in closed form.

    The integral is 2 sqrt(1+|s|) E(m) with m = 2|s|/(1+|s|) (x -> pi - x maps
    s < 0 onto |s|).  E(m) = (y/3) (R_D(0, y, 1) + R_D(0, 1, y)) with y = 1 - m
    (DLMF 19.25.1) sums two positive terms, so it keeps full precision as
    m -> 1, where it tends to E(1) = 1 (theta = pi/4).
    """
    s = abs(math.sin(2 * theta))
    y = (1 - s) / (1 + s)
    e = 1.0 if y == 0.0 else y / 3 * (_carlson_rd(0.0, y, 1.0) + _carlson_rd(0.0, 1.0, y))
    return math.sqrt(1 + s) * e / math.pi


@functools.lru_cache(maxsize=64)
def _phases(N: int, nn: float) -> np.ndarray:
    """exp(-2 pi i j k / N), shape (offsets j, modes k = 0..N/2) (read-only)."""
    ks = np.arange(N // 2 + 1)
    phases = np.stack([np.exp(-2j * math.pi * j * ks / N) for j in coupling_keys(nn)])
    phases.flags.writeable = False
    return phases


# (Lambda, M) -> (Lambda, i M), and (Lambda, i M) reversed -> (i M, -Lambda)
_LAMBDA_IMU = np.array([[1.0], [1j]])
_SWAP_SIGNS = np.array([[1.0], [-1.0]])


def _coupling_sum(cos_phi: np.ndarray, sin_phi: np.ndarray, phases: np.ndarray,
                  scheme: CouplingScheme) -> np.ndarray:
    """(A_k, B_k) in the Bogoliubov frame, stacked on a leading axis of 2 and
    shaped like cos_phi after it (modes last), with `phases` from
    `_phases(N, scheme.nn)`.

    The couplings enter only through their Fourier sums over the offsets j,
    Lambda_k = sum_j lambda_j e^{-2 pi i j k / N} and M_k = sum_j mu_j e^{..},
    formed once on the modes (not per theta); the frame then rotates them:
    A_k = cos phi Lambda_k + i sin phi M_k and
    B_k = -sin phi Lambda_k + i cos phi M_k.  At nn = 0 (one offset, phase 1)
    these are the floats of the per-offset sum
    sum_j (cos phi lambda_j + i sin phi mu_j) e^{..}; at nn > 0 this order of
    the sums moves A and B from it by at most a few ulp of max(|A|, |B|).
    """
    keys = coupling_keys(scheme.nn)
    coeffs = np.array([[scheme.lam[j] for j in keys], [scheme.mu[j] for j in keys]])
    # (Lambda, M) summed over j in order on the phases' (re, im) view; an
    # elementwise sum, not a BLAS product, whose last bits vary with the kernel
    fourier = (coeffs[..., None] * phases.view(float)).sum(axis=1).view(complex)
    lam_imu = fourier * _LAMBDA_IMU
    shape = (2,) + (1,) * (cos_phi.ndim - 1) + (-1,)
    return (cos_phi * lam_imu.reshape(shape)
            + sin_phi * (lam_imu[::-1] * _SWAP_SIGNS).reshape(shape))


@functools.lru_cache(maxsize=64)
def _coupling_table(N: int, theta: float, scheme: CouplingScheme) -> np.ndarray:
    """`coupling_arrays` on raw values, stacked, built once per (N, theta, scheme)."""
    row = _mode_row(N, theta)
    ab = _coupling_sum(row.cos_phi, row.sin_phi, _phases(N, scheme.nn), scheme)
    ab.flags.writeable = False
    return ab


def coupling_arrays(scheme: CouplingScheme, params: ModelParams):
    """(A_k, B_k) arrays over k = 0..N/2 (read-only)."""
    a, b = _coupling_table(params.N, params.theta, scheme)
    return a, b


@functools.lru_cache(maxsize=64)
def _theta_grid(n_sites: int, thetas: bytes) -> _ModeGrid:
    """The mode grids of the thetas stacked, one row per theta (read-only).

    `thetas` is the float64 thetas' `tobytes()`, a key that hashes without a
    Python float per theta.  Rows are the per-theta grids, so every entry is
    the float a single-theta evaluation computes (a theta-vectorized
    sin(2 theta) or cos(phi) may round differently).
    """
    rows = [_mode_row(p.N, p.theta)
            for p in (ModelParams(n_sites, float(th)) for th in np.frombuffer(thetas))]
    grid = _ModeGrid(*map(np.stack, zip(*rows)))
    for arr in grid:
        arr.flags.writeable = False
    return grid


@dataclass(frozen=True)
class ModeBlock:
    """Single-particle matrix of one (k, -k) pair, or of a stack of them.

    `h_sb` is the weighted matrix whose second quantization is the exact block
    Hamiltonian.  For edge modes (k = 0, N/2, weight 1/2) the operator basis is
    doubled, (a, a^dag, b, b^dag, ...), so the Heisenberg generator of the
    mode operators is h_sb / weight.  A stack (an array of k) holds an `h_sb`
    of shape (modes, D, D) and one weight per mode.  `env` is the
    finite-environment NoiseSpec the matrix includes, or None; eps_k, phi_k,
    A_k and B_k are read from `mode_grid` and `coupling_arrays`.
    """

    h_sb: np.ndarray = field(repr=False)
    weight: float | np.ndarray
    env: NoiseSpec | None = None

    def __post_init__(self):
        h = self.h_sb
        if np.max(np.abs(h - h.conj().swapaxes(-1, -2))) > HERMITICITY_ATOL:
            raise ValueError("block Hamiltonian is not hermitian")

    @property
    def is_edge(self) -> bool | np.ndarray:
        """Whether the block is an edge mode (k = 0, N/2); per mode for a stack."""
        return self.weight == 0.5

    @property
    def n_modes(self) -> int:
        """Number of independent fermionic modes in the block's Fock space; a
        stack must be all edges or all pairs."""
        edge = np.unique(self.is_edge)
        if edge.size != 1:
            raise ValueError("stack mixes edge and pair modes")
        dim = self.h_sb.shape[-1]
        return dim // 2 if edge[0] else dim

    @property
    def generator(self) -> np.ndarray:
        """Single-particle Heisenberg generator (h_sb with the edge weight undone)."""
        return self.h_sb / np.expand_dims(self.weight, (-2, -1))


def block_hamiltonian(
    params: ModelParams,
    scheme: CouplingScheme,
    bath: BathSpec,
    k,
    env: NoiseSpec | None = None,
    dsp: bool = False,
) -> ModeBlock:
    """Assemble the per-pair single-particle matrix of k, stacked for an array.

    Without environments the matrix is 4x4 over (a_k, a_-k^dag, b_k, b_-k^dag);
    with `env`, a finite-environment NoiseSpec (`noise.env`), it is 8x8,
    appending one environment pair coupled to the system (amplitudes
    cos phi, -sin phi) and one coupled to the bath (amplitudes 1, 0).  With
    dsp=True the system splitting is removed from the evolution (energies
    are still measured with the true epsilon of `mode_grid`).

    Each coupling of pairs (X, Y) with amplitudes (A, B) fills rows X, cols Y
    with the translation-invariant pattern [[A, B], [B, -A]] and rows Y,
    cols X with its adjoint.  Edge modes live on a doubled (x, x^dag) basis
    where each physical term is counted twice; consistency of the expansion
    then requires [[A, B], [-B*, -A*]] (the two coincide when A is real and
    B imaginary).
    """
    N, theta = params.N, params.theta
    ks = np.asarray(k)
    if not np.all((0 <= ks) & (ks <= N // 2)):
        raise ValueError(f"k must lie in [0, N/2], got {k}")
    if env is not None and env.env is None:
        raise ValueError(f"env must be a finite-environment NoiseSpec, got {env.kind!r} noise")
    kv = ks.reshape(-1)
    row = _mode_row(N, theta)
    a_k, b_k = _coupling_table(N, theta, scheme)
    eps, weight, a, b = row.eps[kv], row.weights[kv], a_k[kv], b_k[kv]
    edge = (kv == 0) | (kv == N // 2)

    n_pairs = 4 if env is not None else 2
    h = np.zeros((len(kv), 2 * n_pairs, 2 * n_pairs), dtype=complex)
    diag = [0.0 if dsp else eps, bath.delta]
    if env is not None:
        diag += [env.delta_e, env.delta_e]
    for m, d in enumerate(diag):
        h[:, 2 * m, 2 * m] = d
        h[:, 2 * m + 1, 2 * m + 1] = -d

    couplings = [(0, 1, scheme.g * a, scheme.g * b)]
    if env is not None:
        kp = env.kappa_prime
        couplings += [(0, 2, kp * row.cos_phi[kv], kp * -row.sin_phi[kv]),
                      (1, 3, kp * np.ones(len(kv)), kp * np.zeros(len(kv)))]
    for m_row, m_col, amp_a, amp_b in couplings:
        top = np.moveaxis(np.array([[amp_a, amp_b],
                                    [np.where(edge, -np.conj(amp_b), amp_b),
                                     np.where(edge, -np.conj(amp_a), -amp_a)]], dtype=complex),
                          -1, 0)
        h[:, 2 * m_row:2 * m_row + 2, 2 * m_col:2 * m_col + 2] = top
        h[:, 2 * m_col:2 * m_col + 2, 2 * m_row:2 * m_row + 2] = top.conj().swapaxes(-1, -2)
    h_sb = weight[:, None, None] * h
    if ks.ndim == 0:
        return ModeBlock(h_sb[0], weight.item(), env)
    return ModeBlock(h_sb, weight, env)
