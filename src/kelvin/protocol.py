"""Schedules, trajectories, steady-state reports, and global metrics.

A schedule is an ordered list of (bath frequency, cycle time) subcycles; a
global cycle applies all of them once, with the bath reset before each
subcycle.  Per-mode dynamics are independent and every subcycle acts on a
block's state vector x as a linear map x -> K x that conserves a sum led by
x's first entry (CM: the constant 1 of x = (1, vec gamma); Fock: the trace).
Trajectories and steady reports share one map pipeline, walked group by
group over the engine's `mode_groups`, the one partition of the modes: each
frequency's modes of a group are built as one stacked block by
`model.block_hamiltonian`, the engine's `cycle_maps` generator yields its
subcycle maps stacked over them (a randomized steady schedule uses each
map's exact time average), each is folded as soon as it is made into one
global-cycle map per momentum pair, and that map is then either raised to
the powers between snapshots or handed to the engine's fixed-point solve,
which both engines run through `_linalg.affine_fixed_points`, the one
verdict on whether a fixed point exists.  Both reduce the stacked blocks to
per-mode energies and fidelities with the engine's `reduce`, and those to
chain-level energy, relative energy and fidelity with `global_metrics`.

Steady reports also stack chains: `steady_reports` walks groups x cases,
building each group's block once per case of one N and cycle time (each at
its own theta and bath frequency) and concatenating them, so one map run
and one fixed-point solve serve every case, whose states `reduce` reads
with a leading case axis.  The maps, the solve and the reduction give a
mode the same bits in any stack, so `steady_report`, the one-case view,
returns what a case gets in any stack.

Engines are modules looked up in `ENGINES`, with one interface of five
functions that hides their block layout, edges included: `mode_groups`,
`initial_blocks`, `cycle_maps`, `fixed_points` and `reduce`.  A chain state
has one form throughout, the engine's stacked groups [(ks, x)]: for each
group ks of `mode_groups`, x stacks the engine's state vector of each block
over ks (CM: (1, vec gamma); Fock: the physical, parity-diagonal sector of
vec(rho)), and protocol reads states only as such vectors: a trajectory
converges on the entrywise change sum |x_n - x_{n-1}| of each mode's vector,
the measure the fixed-point verdict judges residuals by.  The NoiseSpec is
resolved here, once: its environment `noise.env` goes into `mode_groups` and
the blocks and its gain/loss rate `noise.kappa` into `cycle_maps`, so no
engine dispatches on the spec's kind.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from . import cm as _cm
from . import fock as _fock
from .model import (BathSpec, CouplingScheme, ModeBlock, ModelParams, NoiseSpec, band_edges,
                    block_hamiltonian, dispersion, ground_state_energy, mode_grid)

__all__ = [
    "ENGINES",
    "Schedule",
    "Trajectory",
    "TrajectorySnapshot",
    "make_schedule",
    "run_trajectory",
    "global_metrics",
    "SteadyStateReport",
    "steady_report",
    "steady_reports",
]

ENGINES = {"fock": _fock, "cm": _cm}
CONVERGENCE_STEP_TOL = 1e-10
CONVERGENCE_STREAK = 3


@dataclass(frozen=True)
class Schedule:
    """Ordered subcycles (delta_r, t_m) forming one global cycle."""

    subcycles: tuple[tuple[float, float], ...]

    @property
    def mean_time(self) -> float:
        return float(np.mean([t for _, t in self.subcycles]))


def schedule_frequencies(descriptor: dict, params: ModelParams, bath: BathSpec) -> list[float]:
    kind = descriptor.get("kind", "single")
    if kind in ("single", "randomized"):
        return [bath.delta]
    if kind != "multifreq":
        raise ValueError(f"unknown schedule kind {kind!r}")
    r = operator.index(descriptor["R"])
    if r < 1:
        raise ValueError(f"R must be >= 1, got {r}")
    rule = descriptor.get("freq_rule", "grid")
    if rule == "grid":
        eps_m, eps_max = band_edges(params.theta)
        delta_step = (eps_max - eps_m) / r
        return [eps_m + delta_step * (i - 0.5) for i in range(1, r + 1)]
    if rule == "mode_energies":
        if "k_modes" in descriptor:
            k_list = [operator.index(k) for k in descriptor["k_modes"]]
        else:
            fr = descriptor.get("k_fractions")
            if fr is None:
                # equally spaced interior momenta k_r = (N/2) r / (R + 1)
                fr = [i / (r + 1) for i in range(1, r + 1)]
            k_list = [int(round(f * params.N / 2)) for f in fr]
        return dispersion(params.theta, params.N, np.array(k_list)).tolist()
    raise ValueError(f"unknown freq_rule {rule!r}")


def make_schedule(descriptor: dict, params: ModelParams, bath: BathSpec, seed: int) -> Schedule:
    """Build the subcycle list; randomized times are uniform on [0, 2 t_mean].

    Multi-frequency schedules interleave the R frequencies round-robin, so
    subcycle index c uses delta_{c mod R}.  Deterministic given the seed
    (counter-based generator).
    """
    kind = descriptor.get("kind", "single")
    freqs = schedule_frequencies(descriptor, params, bath)
    t_mean = bath.cycle_time_mean
    if kind == "single":
        subs = [(freqs[0], t_mean)]
    else:
        l = operator.index(descriptor["L"])
        if l < 1:
            raise ValueError(f"L must be >= 1, got {l}")
        rng = np.random.Generator(np.random.Philox(key=seed))
        n_sub = l * len(freqs)
        times = rng.uniform(0.0, 2.0 * t_mean, size=n_sub)
        subs = [(freqs[c % len(freqs)], float(times[c])) for c in range(n_sub)]
    return Schedule(subcycles=tuple(subs))


# ---------------------------------------------------------------------------
# chain metrics
# ---------------------------------------------------------------------------

def _engine(name: str):
    """The engine module `ENGINES[name]`; ValueError for an unknown name."""
    if name not in ENGINES:
        raise ValueError(f"unknown engine {name!r}; choose from {list(ENGINES)}")
    return ENGINES[name]


def _chain_reduce(eng, w_eps: np.ndarray,
                  groups: list[tuple[np.ndarray, np.ndarray]]) -> tuple[np.ndarray, np.ndarray]:
    """(energies, fidelities) over k = 0..N/2 from per-group block stacks x
    (..., len(ks), D); `w_eps`, the weighted mode energies w eps over k, is
    one row or one row per case of a leading case axis of x."""
    n2 = w_eps.shape[-1] - 1
    lead = groups[0][1].shape[:-2]
    energies = np.empty(lead + (n2 + 1,))
    fids = np.empty(lead + (n2 + 1,))
    for ks, x in groups:
        energies[..., ks], fids[..., ks] = eng.reduce(ks, x, w_eps, n2)
    return energies, fids


def global_metrics(energies: np.ndarray, fidelities: np.ndarray,
                   params: ModelParams) -> tuple[float, float, float]:
    """(total E, relative energy e, fidelity F) of a chain from its per-mode
    energies and vacuum fidelities over k = 0..N/2."""
    e_total = float(np.sum(energies))
    e_gs = ground_state_energy(params)
    return e_total, abs((e_total - e_gs) / e_gs), float(np.prod(fidelities))


# ---------------------------------------------------------------------------
# trajectories
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TrajectorySnapshot:
    cycle: int
    energy: float
    relative_energy: float
    fidelity: float
    mode_energies: np.ndarray


@dataclass
class Trajectory:
    snapshots: list[TrajectorySnapshot]
    converged_at: int | None = None


def _global_maps(cases: list[ModelParams], scheme: CouplingScheme, noise: NoiseSpec,
                 dsp: bool, eng, ks: np.ndarray, t_mean: float, subcycles) -> np.ndarray:
    """Global-cycle maps x -> K x of the modes `ks`, one group of the engine
    `eng`'s `mode_groups`, for each chain of `cases` (one N), stacked
    case-major to (cases x modes, D, D).

    Subcycles are (deltas, t_m) pairs, deltas holding the bath frequency of
    each case, and t_m = None stands for the average over uniformly random
    times on [0, 2 t_mean] (exact, in closed form), the ensemble limit of a
    randomized schedule.  Each frequency is one `block_hamiltonian` call over
    ks per case (with `noise.env`), the cases' blocks concatenated into one
    stack, and the engine's `cycle_maps` generator turns that stacked block
    into the frequency's maps at the rate `noise.kappa`, one per subcycle of
    that frequency in schedule order.  Each map is folded into the running
    product as soon as it is made, K <- K_s K, and a frequency's generator,
    with its eigenbasis, is dropped after its last subcycle.
    """
    times: dict[tuple[float, ...], list[float | None]] = {}
    for deltas, t_m in subcycles:
        times.setdefault(deltas, []).append(t_m)
    last = {deltas: i for i, (deltas, _) in enumerate(subcycles)}
    maps, k_tot = {}, None
    for i, (deltas, _) in enumerate(subcycles):
        if deltas not in maps:
            blocks = [block_hamiltonian(params, scheme, BathSpec(delta_r, t_mean), ks,
                                        env=noise.env, dsp=dsp)
                      for params, delta_r in zip(cases, deltas)]
            # one case keeps its block as built: restacking would re-check it
            block = blocks[0] if len(blocks) == 1 else ModeBlock(
                np.concatenate([b.h_sb for b in blocks]),
                np.concatenate([b.weight for b in blocks]), noise.env)
            maps[deltas] = eng.cycle_maps(block, times[deltas], t_mean, noise.kappa)
        k_s = next(maps[deltas])
        if last[deltas] == i:
            del maps[deltas]
        k_tot = k_s if k_tot is None else k_s @ k_tot
    return k_tot


def _step_snapshots(k: np.ndarray, x0: np.ndarray, snap_cycles: list[int]) -> np.ndarray:
    """States after each snapshot cycle, stacked to (snapshots, modes, D): each
    gap between snapshots is one matrix power of k, formed once per gap length."""
    gaps = np.diff(snap_cycles, prepend=0).tolist()
    powers = {gap: np.linalg.matrix_power(k, gap) for gap in set(gaps)}
    states, x = [], x0
    for gap in gaps:
        x = (powers[gap] @ x[..., None])[..., 0]
        states.append(x)
    return np.stack(states)


def run_trajectory(params: ModelParams, scheme: CouplingScheme, schedule: Schedule,
                   noise: NoiseSpec = NoiseSpec.none(), engine: str = "fock",
                   n_global_cycles: int = 100, snapshot_stride: int = 10,
                   initial: str = "most_excited", dsp: bool = False) -> Trajectory:
    """Apply the schedule's subcycles for n global cycles, recording snapshots.

    The chain starts in the product state `initial` ("vacuum", the ground
    state, or "most_excited"), given by the engine's `initial_blocks` for
    each group of its `mode_groups` (CM: all modes; Fock: the edges, then
    stacks of pairs).  All modes see the same subcycle time sequence.  Each
    subcycle's map is built once, stacked over a group's modes, and folded
    in schedule order into one global-cycle map per mode, and each group is
    stepped from snapshot to snapshot by that map's stacked matrix power.
    Snapshots are taken at cycle 0, every `snapshot_stride` cycles and at
    the last cycle.  Convergence is declared when each mode's change between
    consecutive snapshots, the entrywise change sum |x_n - x_{n-1}| of its
    state vector (the verdict's measure, at least its trace-norm change),
    stays below 1e-10 three snapshots in a row.  An unknown `initial`, a
    negative `n_global_cycles` or a `snapshot_stride` below 1 raises
    ValueError.
    """
    if initial not in ("vacuum", "most_excited"):
        raise ValueError(f"unknown initial state kind {initial!r}")
    if n_global_cycles < 0:
        raise ValueError(f"n_global_cycles must be >= 0, got {n_global_cycles}")
    if snapshot_stride < 1:
        raise ValueError(f"snapshot_stride must be >= 1, got {snapshot_stride}")
    eng = _engine(engine)
    snap_cycles = sorted({0, n_global_cycles,
                          *range(snapshot_stride, n_global_cycles + 1, snapshot_stride)})
    n2 = params.N // 2
    subcycles = [((delta_r,), t_m) for delta_r, t_m in schedule.subcycles]
    groups = []
    for ks in eng.mode_groups(n2, noise.env):
        k_tot = _global_maps([params], scheme, noise, dsp, eng, ks, schedule.mean_time, subcycles)
        groups.append((ks, _step_snapshots(k_tot, eng.initial_blocks(initial, ks, n2),
                                           snap_cycles)))

    _, eps, _, wts = mode_grid(params)
    energies, fids = _chain_reduce(eng, wts * eps, groups)
    snapshots = [TrajectorySnapshot(cyc, *global_metrics(e_k, f_k, params), e_k)
                 for cyc, e_k, f_k in zip(snap_cycles, energies, fids)]

    # largest per-mode change between consecutive snapshots, sum |x_n - x_{n-1}|
    steps = np.max([np.abs(np.diff(x, axis=0)).sum(-1).max(-1) for _, x in groups], axis=0)
    converged_at = None
    streak = 0
    for cyc, step in zip(snap_cycles[1:], steps):
        streak = streak + 1 if step < CONVERGENCE_STEP_TOL else 0
        if streak >= CONVERGENCE_STREAK:
            converged_at = cyc
            break

    return Trajectory(snapshots=snapshots, converged_at=converged_at)


# ---------------------------------------------------------------------------
# steady-state reports
# ---------------------------------------------------------------------------

@dataclass
class SteadyStateReport:
    ks: np.ndarray
    epsilon: np.ndarray
    mode_energy: np.ndarray
    mode_relative_energy: np.ndarray  # NaN where undefined (eps = 0)
    alpha: np.ndarray
    energy: float
    relative_energy: float
    fidelity: float
    engine: str
    max_residual: float


def steady_report(params: ModelParams, scheme: CouplingScheme, bath: BathSpec,
                  schedule_descriptor: dict, noise: NoiseSpec = NoiseSpec.none(),
                  engine: str = "fock", dsp: bool = False) -> SteadyStateReport:
    """Per-mode steady states of the scheduled cycle map plus chain aggregates:
    the one-case `steady_reports`.

    Steady reports share the trajectory map pipeline: each schedule
    frequency's cycle map is built stacked over modes, the maps are composed
    in frequency order into one global-cycle map per mode, and the engine's
    stacked `fixed_points` solves each block shape's modes at once (both
    engines share `_linalg.affine_fixed_points`, which eliminates the
    conserved first entry, hermitizes the state and raises
    NonUniqueFixedPoint where it has no unique fixed point or the residual
    sum |T x - x| exceeds its tolerance; `max_residual` is the largest such
    residual over the modes, the same measure on both engines).
    Randomized-time schedules are
    evaluated in the ensemble limit: each elementary map is replaced by its
    uniform average over [0, 2 t_mean] (exact, in closed form), which is
    the object the closed-form rates describe, with or without finite
    environments.  alpha is reported per elementary subcycle.  There the CM
    `fidelity` is not the ensemble's: `cm.reduce` applies Wick's theorem to
    the averaged correlation matrix, but the averaged map mixes Gaussian
    channels, so its fixed point is not Gaussian; the energies agree with
    Fock's, whose fidelity is the ensemble's.
    """
    return steady_reports([(params, bath)], scheme, schedule_descriptor, noise=noise,
                          engine=engine, dsp=dsp)[0]


def steady_reports(cases: list[tuple[ModelParams, BathSpec]], scheme: CouplingScheme,
                   schedule_descriptor: dict, noise: NoiseSpec = NoiseSpec.none(),
                   engine: str = "fock", dsp: bool = False) -> list[SteadyStateReport]:
    """`steady_report` of each (params, bath) case, all from one pass over the
    engine's `mode_groups`: the pipeline walks groups x cases.

    The cases may differ in theta and in the bath frequency, but share N, the
    cycle time and, through the one descriptor, the number of schedule
    frequencies; a mismatch raises ValueError.  For each group, each
    frequency's block is built per case at that case's theta and frequency
    and the blocks are concatenated into one stack, so one `cycle_maps` run
    and one `fixed_points` call serve every case, and the states are read as
    (cases, modes, D) by `reduce`.  Maps, solves and reductions give each
    mode the same bits in any stack, so each report is bit-identical to the
    case's own `steady_report`; a case with no unique fixed point raises
    NonUniqueFixedPoint for the whole stack.
    """
    params = [p for p, _ in cases]
    n, t_mean = params[0].N, cases[0][1].cycle_time_mean
    if any(p.N != n or b.cycle_time_mean != t_mean for p, b in cases):
        raise ValueError("stacked steady reports need one N and one cycle time, got "
                         f"{[(p.N, b.cycle_time_mean) for p, b in cases]}")
    # strict: a frequency count that differs between the cases raises ValueError
    freqs = list(zip(*(schedule_frequencies(schedule_descriptor, p, b) for p, b in cases),
                     strict=True))
    t_m = t_mean if schedule_descriptor.get("kind", "single") == "single" else None
    subcycles = [(deltas, t_m) for deltas in freqs]
    eng = _engine(engine)
    n2 = n // 2
    alpha = np.empty((len(cases), n2 + 1))
    resid = np.empty((len(cases), n2 + 1))
    groups = []
    for ks in eng.mode_groups(n2, noise.env):
        k_tot = _global_maps(params, scheme, noise, dsp, eng, ks, t_mean, subcycles)
        x, a, r = eng.fixed_points(k_tot)
        alpha[:, ks], resid[:, ks] = a.reshape(len(cases), -1), r.reshape(len(cases), -1)
        groups.append((ks, x.reshape(len(cases), len(ks), -1)))
    alpha /= len(freqs)

    grids = [mode_grid(p) for p in params]
    eps = np.stack([grid[1] for grid in grids])
    scale = np.stack([grid[3] for grid in grids]) * eps
    energies, fids = _chain_reduce(eng, scale, groups)
    with np.errstate(divide="ignore", invalid="ignore"):
        e_rel = np.where(eps == 0.0, math.nan, (energies + scale) / scale)
    reports = []
    for c, p in enumerate(params):
        e_total, e_rel_total, fidelity = global_metrics(energies[c], fids[c], p)
        reports.append(SteadyStateReport(
            ks=grids[0][0], epsilon=eps[c], mode_energy=energies[c],
            mode_relative_energy=e_rel[c], alpha=alpha[c], energy=e_total,
            relative_energy=e_rel_total, fidelity=fidelity, engine=engine,
            max_residual=float(np.max(resid[c]))))
    return reports
