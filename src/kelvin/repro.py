"""Reproduction targets: runnable configs with embedded expected values.

Each target returns a list of assertion records and a list of free-text
annotations.  The acceptance suite and the `reproduce` CLI command both call
these functions, so the numbers asserted in tests and reports come from one
place.

Known deviations (annotated in the affected targets): several embedded
reference values carry an effective doubling of the cycle time relative to
the closed forms they are quoted with, and one multi-frequency series appears
to index its frequency count off by one.  Where a reference value is
unreachable from the stated parameters, the assertion is still made
faithfully and the diagnostic reading is reported next to it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import analytic as an
from . import optimize as op
from . import protocol as pr
from .model import BathSpec, CouplingScheme, ModelParams, dispersion, mode_grid

__all__ = ["Assertion", "TargetResult", "TARGETS", "run_target",
           "fig3_report", "fig4_sweep", "fig10_series", "reoptimized_series",
           "table_rows", "phase_objective_for_row"]


@dataclass
class Assertion:
    name: str
    measured: float
    expected: float | None = None
    rel_tol: float | None = None
    ok: bool | None = None
    note: str = ""

    def __post_init__(self):
        if self.ok is None:
            if self.expected is None or self.rel_tol is None:
                raise ValueError("either ok or (expected, rel_tol) must be given")
            lo = self.expected * (1 - self.rel_tol)
            hi = self.expected * (1 + self.rel_tol)
            lo, hi = min(lo, hi), max(lo, hi)
            self.ok = bool(lo <= self.measured <= hi)


@dataclass
class TargetResult:
    target: str
    assertions: list[Assertion]
    annotations: list[str] = field(default_factory=list)
    data: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(a.ok for a in self.assertions)


# ---------------------------------------------------------------------------
# shared computations
# ---------------------------------------------------------------------------

FIG3 = dict(N=200, theta=math.pi / 3, g=1e-4, t=20.0, L=100)


def fig3_report(kappa: float = 0.0) -> pr.SteadyStateReport:
    """The Fock steady report of the Fig. 3 protocol under gain/loss noise of
    rate kappa."""
    params = ModelParams(FIG3["N"], FIG3["theta"])
    scheme = CouplingScheme.local(1.0, 1.0, FIG3["g"])
    bath = BathSpec(dispersion(params.theta, params.N, params.N // 4), FIG3["t"])
    return pr.steady_report(params, scheme, bath, {"kind": "randomized", "L": FIG3["L"]},
                            noise=an.NoiseSpec.depolarizing(kappa))


def fig3_analytic():
    """The closed-form per-mode relative energies and rate table of the Fig. 3
    protocol."""
    params = ModelParams(FIG3["N"], FIG3["theta"])
    scheme = CouplingScheme.local(1.0, 1.0, FIG3["g"])
    e_rel = an.closed_form_relative_energies(params, scheme, [1.0], FIG3["t"],
                                             an.NoiseSpec.none(), random_times=True)
    return e_rel, an.rate_table(params, scheme, [1.0], FIG3["t"])


def fig4_sweep():
    """Total relative energy and bottleneck rate over a theta grid (exact).

    The grid is aligned on the critical point with spacing pi/40, matching
    the precision at which the peak location is asserted (the peak is a
    plateau, flat to ~3% over +-0.1 rad around criticality).  Each theta has
    its own bath frequency eps(theta, N/4), and one `steady_reports` pass
    stacks all of them.
    """
    thetas = np.array([math.pi / 4 + j * math.pi / 40 for j in range(-8, 10)])
    n_sites = FIG3["N"]
    cases = [(ModelParams(n_sites, float(th)),
              BathSpec(dispersion(float(th), n_sites, n_sites // 4), FIG3["t"]))
             for th in thetas]
    reps = pr.steady_reports(cases, CouplingScheme.local(1.0, 1.0, FIG3["g"]),
                             {"kind": "randomized", "L": FIG3["L"]})
    es = [rep.relative_energy for rep in reps]
    alphas = [float(np.min(rep.alpha)) for rep in reps]
    return thetas, np.array(es), np.array(alphas)


FIG10_RATIOS = (0.0, 0.03, 0.1, 0.3, 1.0)  # kappa / g^2 of the noisy Fig. 3 series
REOPT_RATIOS = (0.01, 0.03, 0.1, 0.3)  # kappa / g^2 of the re-optimized series


def fig10_series():
    """Total relative energy of the Fig. 3 protocol at each of `FIG10_RATIOS`."""
    g = FIG3["g"]
    return {r: fig3_report(kappa=r * g * g).relative_energy for r in FIG10_RATIOS}


def reoptimized_series():
    """Depolarizing-noise re-optimization at N = 200, g = 0.1, nn = 0,
    theta = pi/3, with budget 2200 and 5 restarts per ratio of `REOPT_RATIOS`.

    Returns per-ratio (analytic optimum, exact-engine validation at optimum).
    """
    g = 0.1
    params = ModelParams(200, math.pi / 3)
    results = {}
    prev_best: op.ParamVector | None = None
    for r in REOPT_RATIOS:
        kappa = r * g * g
        noise = an.NoiseSpec.depolarizing(kappa)
        init = op.ParamVector(CouplingScheme.local(1.0, 0.3, g), 1.0, 3.3)
        extra = [op.ParamVector(CouplingScheme.local(1.0, 0.0, g), 0.95, 7.0)]
        if prev_best is not None:
            extra.append(prev_best)  # warm start from the previous noise level
        res = op.optimize(lambda pv: op.objective_theta_specific(pv, params, noise),
                          init, budget=2200, restarts=5, seed=11,
                          extra_starts=extra)
        prev_best = res.best
        exact = _exact_chain_energy(params, res.best, noise)
        results[r] = (res.objective, exact, res.best)
    return results


def _exact_chain_energy(params: ModelParams, pv: op.ParamVector,
                        noise: an.NoiseSpec) -> float:
    bath = BathSpec(pv.delta, pv.t)
    rep = pr.steady_report(params, pv.scheme, bath, {"kind": "single"},
                           noise=noise, engine="fock")
    return rep.relative_energy


def table_rows() -> dict:
    """Phase-averaged optimal parameters reported for N = 20 (g = 0.1)."""
    return {
        (0.0, "low"): dict(delta=0.925, t=3.05, lam={0: 1.0}, mu={0: 1.0}),
        (0.0, "high"): dict(delta=0.744, t=3.33, lam={0: 1.0}, mu={0: 0.0}),
        (0.5, "low"): dict(delta=0.688, t=3.67, lam={0: 1.0, 1: 1.0},
                           mu={0: 0.53, 1: -0.53}),
        (0.5, "high"): dict(delta=0.793, t=3.12, lam={0: 1.0, 1: 0.34},
                            mu={0: 0.03, 1: 0.14}),
        (1.0, "low"): dict(delta=0.693, t=3.70, lam={-1: 0.01, 0: 1.0, 1: 0.97},
                           mu={-1: 0.05, 0: 0.47, 1: -0.51}),
        (1.0, "high"): dict(delta=0.700, t=3.71, lam={-1: 0.27, 0: 1.0, 1: 0.27},
                            mu={-1: -0.15, 0: 0.00, 1: 0.15}),
    }


def phase_objective_for_row(nn: float, phase: str) -> tuple[float, op.ParamVector]:
    """A `table_rows` row's phase-averaged objective at N = 20, and the row."""
    row = table_rows()[(nn, phase)]
    pv = op.ParamVector(CouplingScheme(nn=nn, lam=row["lam"], mu=row["mu"], g=0.1),
                        row["delta"], row["t"])
    return op.objective_phase_averaged(pv, phase, 20), pv


# ---------------------------------------------------------------------------
# targets
# ---------------------------------------------------------------------------

def _target_fig2() -> TargetResult:
    n = 200
    params = ModelParams(n, math.pi / 3)
    scheme = CouplingScheme.local(1.0, 1.0, 0.01)
    t = 10.0
    bath = BathSpec(dispersion(params.theta, n, n // 4), t)
    sched = pr.make_schedule({"kind": "single"}, params, bath, seed=0)
    cycles = 1000  # 200 cycles leave the resonant modes at e_k = 0.28
    traj = pr.run_trajectory(params, scheme, sched, engine="fock",
                             n_global_cycles=cycles, snapshot_stride=10)
    _, eps, _, wts = mode_grid(params)
    scale = wts * eps
    e_k = (traj.snapshots[-1].mode_energies + scale) / scale

    asserts = [
        Assertion("fig2/resonant modes cooled (e_k < 0.05 near k = N/4)",
                  float(np.max(e_k[48:53])), ok=bool(np.max(e_k[48:53]) < 0.05)),
    ]
    # accidental heating where (eps_k - delta) t = -2 pi: eps = 1 - 2 pi / t
    target_eps = 1.0 - 2.0 * math.pi / t
    k_heat = int(np.argmin(np.abs(eps - target_eps)))
    asserts.append(Assertion(
        f"fig2/heating peak at k={k_heat} where (eps-delta)t = -2pi (e_k > 1.5)",
        float(e_k[k_heat]), ok=bool(e_k[k_heat] > 1.5)))
    notes = [
        "the reference places heating peaks near k=20 and k=70, which matches an "
        "evolution time of 2t; at the stated t the accidental resonance "
        f"(eps_k - delta) t = -2 pi sits at k={k_heat}, where the peak is found",
    ]
    return TargetResult("fig2", asserts, notes,
                        data={"e_k": e_k.tolist(), "cycles": cycles})


def _target_fig3() -> TargetResult:
    n = FIG3["N"]
    rep = fig3_report()
    e_pred, rt = fig3_analytic()
    dev = np.abs(rep.mode_relative_energy - e_pred) / np.abs(e_pred)
    g2 = FIG3["g"] ** 2
    alpha_res = rep.alpha[n // 4] / g2
    alpha_analytic = (rt.gamma_c[n // 4] + rt.gamma_h[n // 4]) / g2
    asserts = [
        Assertion("fig3/max relative deviation of e_k from closed form (<= 5%)",
                  float(np.nanmax(dev)), ok=bool(np.nanmax(dev) <= 0.05)),
        Assertion("fig3/alpha(N/4)/g^2 in [500, 700]", float(alpha_res),
                  ok=bool(500 <= alpha_res <= 700)),
        Assertion("fig3/analytic alpha/g^2 = 533.8 +- 0.1", float(alpha_analytic),
                  ok=bool(abs(alpha_analytic - 533.8) <= 0.1)),
    ]
    return TargetResult("fig3", asserts, data={"total_e": rep.relative_energy})


def _target_fig4() -> TargetResult:
    th, es, alphas = fig4_sweep()
    i_max = int(np.argmax(es))
    g2 = FIG3["g"] ** 2
    amin = float(np.min(alphas)) / g2
    asserts = [
        Assertion("fig4/argmax_theta e within pi/4 +- pi/40", float(th[i_max]),
                  ok=bool(abs(th[i_max] - math.pi / 4) <= math.pi / 40 + 1e-12)),
        Assertion("fig4/max e = 0.065 +- 30%", float(es[i_max]), 0.065, 0.30),
        Assertion("fig4/min alpha/g^2 = 1 +- 50%", amin, 1.0, 0.50),
    ]
    notes = [
        "min alpha/g^2 evaluates to ~3.9: the slowest mode at criticality has "
        "eps ~ 0 and rate gamma_c + gamma_h = 2g^2/(delta^2+gamma_0^2) + "
        "2g^2/delta^2 ~ 4g^2 at delta = 1, from the same closed forms that "
        "reproduce every other rate here; the reference ~1 is not reachable "
        "from the stated parameters",
    ]
    return TargetResult("fig4", asserts, notes,
                        data={"theta": th.tolist(), "e": es.tolist(),
                              "alpha_over_g2": (alphas / g2).tolist()})


def _target_fig5() -> TargetResult:
    n = 200
    params = ModelParams(n, math.pi / 3)
    scheme = CouplingScheme.local(1.0, 1.0, 1e-4)
    bath = BathSpec(1.0, 50.0)
    rep = pr.steady_report(params, scheme, bath,
                           {"kind": "multifreq", "R": 3, "L": 100,
                            "freq_rule": "mode_energies",
                            "k_fractions": [0.25, 0.5, 0.75]})
    e_res = [rep.mode_relative_energy[k] for k in (25, 50, 75)]
    a_res = [rep.alpha[k] for k in (25, 50, 75)]
    med = float(np.median(rep.alpha))
    asserts = [
        Assertion("fig5/resonant modes reach e_k < 0.01", float(np.max(e_res)),
                  ok=bool(np.max(e_res) < 0.01)),
        Assertion("fig5/cooling-rate peaks at the three resonant modes (> 3x median)",
                  float(np.min(a_res) / med), ok=bool(np.min(a_res) > 3 * med)),
    ]
    return TargetResult("fig5", asserts)


def _target_fig6() -> TargetResult:
    n = 200
    params = ModelParams(n, math.pi / 3)
    scheme = CouplingScheme.local(1.0, 1.0, 1e-4)
    fr = [0.1 * i for i in range(1, 10)]
    out = {}
    for t in (50.0, 200.0):
        rep = pr.steady_report(params, scheme, BathSpec(1.0, t),
                               {"kind": "multifreq", "R": 9, "L": 100,
                                "freq_rule": "mode_energies", "k_fractions": fr})
        out[t] = rep
    med50 = float(np.nanmedian(out[50.0].mode_relative_energy))
    # longer times sharpen resonances: resonant modes get colder
    res_k = [int(round(f * n / 2)) for f in fr]
    e50 = float(np.mean([out[50.0].mode_relative_energy[k] for k in res_k]))
    e200 = float(np.mean([out[200.0].mode_relative_energy[k] for k in res_k]))
    asserts = [
        Assertion("fig6/median e_k < 0.02 across the spectrum (t = 50)",
                  med50, ok=bool(med50 < 0.02)),
        Assertion("fig6/longer cycles cool resonant modes further (t=200 < t=50)",
                  e200 / e50, ok=bool(e200 < e50)),
    ]
    return TargetResult("fig6", asserts)


def _target_fig8() -> TargetResult:
    params = ModelParams(1000, math.pi / 3)
    scheme = CouplingScheme.local(1.0, 1.0, 1e-3)
    _, eps, _, wts = mode_grid(params)

    def relative_energy(k_list):
        """Chain total sum w eps e_k / sum w eps of the randomized closed form
        at the bath frequencies eps_k of `k_list`."""
        e_k = an.closed_form_relative_energies(params, scheme, eps[k_list], 50.0,
                                               an.NoiseSpec.none(), random_times=True)
        return float(np.sum(wts * eps * e_k) / np.sum(wts * eps))

    es = {r: relative_energy([int(round(params.N / 2 * i / (r + 1))) for i in range(1, r + 1)])
          for r in (1, 10, 50, 250)}
    rs = sorted(es)
    mono = all(es[a] >= es[b] * (1 - 1e-2) for a, b in zip(rs, rs[1:]))
    asserts = [
        Assertion("fig8/e(R=1) = 0.025 +- 30%", es[1], 0.025, 0.30),
        Assertion("fig8/e(R=250) = 0.006 +- 30%", es[250], 0.006, 0.30),
        Assertion("fig8/monotone non-increasing over R in {1,10,50,250}",
                  float(max(es[b] / es[a] for a, b in zip(rs, rs[1:]))),
                  ok=mono),
    ]
    # diagnostic: the reference R=1 value matches two frequencies
    e_two = relative_energy([int(round(params.N / 2 * i / 3)) for i in (1, 2)])
    notes = [
        "e(R=1) evaluates to %.4f at the stated parameters (the same value the "
        "single-frequency baseline takes in the noisy-figure series, and nearly "
        "t-independent); the reference 0.025 matches R=2, where e = %.4f, "
        "suggesting an off-by-one in the reference frequency count" % (es[1], e_two),
    ]
    return TargetResult("fig8", asserts, notes, data={"e_by_R": es, "e_R2": e_two})


def _target_fig10() -> TargetResult:
    series = fig10_series()
    quadruple = [0.052, 0.292, 0.479, 0.673]
    reading_a = [0.0, 0.03, 0.1, 0.3]
    reading_b = [0.0, 0.1, 0.3, 1.0]

    def match(reading):
        return all(abs(series[r] - q) <= 0.15 * q for r, q in zip(reading, quadruple))

    vals = [series[r] for r in sorted(series)]
    increasing = all(b > a for a, b in zip(vals, vals[1:]))
    asserts = [
        Assertion("fig10/total e at kappa=0 = 0.052 +- 15%", series[0.0], 0.052, 0.15),
        Assertion("fig10/e strictly increasing in kappa",
                  float(min(b - a for a, b in zip(vals, vals[1:]))), ok=increasing),
        Assertion("fig10/quadruple matched under reading A or B (+-15%)",
                  float(series[0.1]), ok=bool(match(reading_a) or match(reading_b))),
    ]
    notes = [
        "five kappa/g^2 ratios are listed for four curves; reading A assigns "
        "{0, 0.03, 0.1, 0.3}, reading B {0, 0.1, 0.3, 1}",
        "measured series: " + ", ".join(f"kappa/g^2={r}: e={series[r]:.3f}"
                                        for r in sorted(series)),
        "the reference quadruple is reproduced (within 15%) only when the cycle "
        "time and noise exposure are doubled (t -> 2t), the same doubled-time "
        "imprint seen in the single-frequency figure's heating-peak positions; "
        "at the stated t the closed forms and the exact engine agree with each "
        "other (to 4+ digits) on the smaller values reported here",
    ]
    return TargetResult("fig10", asserts, notes, data={"series": {str(k): v for k, v in series.items()}})


def _target_fig_spec_reopt() -> TargetResult:
    targets = {0.01: 0.025, 0.03: 0.066, 0.1: 0.187, 0.3: 0.413}
    res = reoptimized_series()
    asserts = []
    for r, cap in targets.items():
        _, exact, _ = res[r]
        asserts.append(Assertion(
            f"fig_spec_reopt/kappa/g^2={r}: exact e <= 1.2 x {cap}",
            exact, ok=bool(exact <= 1.2 * cap)))
    return TargetResult("fig_spec_reopt", asserts,
                        data={str(r): {"analytic": v[0], "exact": v[1]}
                              for r, v in res.items()})


def _scan_starts(nn: float, objective) -> list[op.ParamVector]:
    """Deterministic coarse scan over structured coupling patterns and a
    (delta, t) grid; returns the best four candidates as optimizer starts."""
    import itertools

    from .model import coupling_keys
    keys = coupling_keys(nn)
    lam_patterns = [
        {j: 1.0 for j in keys},
        {j: (1.0 if j == 0 else 0.3) for j in keys},
        {j: (1.0 if j == 0 else 0.0) for j in keys},
    ]
    mu_patterns = [
        {j: 0.0 for j in keys},
        {j: 0.5 for j in keys},
        {j: (0.15 * float(np.sign(j))) for j in keys},
    ]
    cands = []
    for lp, mp in itertools.product(lam_patterns, mu_patterns):
        for delta in (0.5, 0.7, 0.9, 1.1):
            for t in (2.0, 3.0, 3.7, 5.0):
                pv = op.ParamVector(CouplingScheme(nn=nn, lam=dict(lp),
                                                   mu=dict(mp), g=0.1), delta, t)
                cands.append((objective(pv), pv))
    cands.sort(key=lambda c: c[0])
    return [c[1] for c in cands[:4]]


def _target_table_optimal_avg() -> TargetResult:
    asserts = []
    for nn in (0.0, 0.5, 1.0):
        for phase in ("low", "high"):
            j_row, _ = phase_objective_for_row(nn, phase)

            def objective(pv):
                return op.objective_phase_averaged(pv, phase, 20)

            starts = _scan_starts(nn, objective)
            res = op.optimize(objective, starts[0],
                              budget=4000, restarts=6, seed=17,
                              extra_starts=starts[1:])
            asserts.append(Assertion(
                f"table/nn={nn} {phase}: optimizer <= 1.05 x tabulated row",
                res.objective / j_row, ok=bool(res.objective <= 1.05 * j_row),
                note=f"J_opt={res.objective:.3e}, J_row={j_row:.3e}"))
    return TargetResult("table_optimal_avg", asserts)


def _target_fig_scalability() -> TargetResult:
    """Phase-averaged nn=2 couplings tuned at N=20 keep working at N=200.

    The range-2 optimum is recomputed here (seeded, deterministic) since only
    its scaling behavior is being tested, not its exact value.
    """
    from .model import coupling_keys
    worst = 0.0
    for phase in ("low", "high"):
        keys = coupling_keys(2)
        init = op.ParamVector(
            CouplingScheme(nn=2, lam={j: 1.0 for j in keys},
                           mu={j: 0.3 for j in keys}, g=0.1), 1.0, 3.0)
        res = op.optimize(lambda pv: op.objective_phase_averaged(pv, phase, 20),
                          init, budget=2500, restarts=3, seed=23)
        thetas = [th for th in op.phase_grid(phase, 13)
                  if not 0.22 * math.pi <= th <= 0.28 * math.pi]
        es = np.stack([an.chain_relative_energies(n, thetas, res.best.scheme, res.best.delta,
                                                  res.best.t, an.NoiseSpec.none())
                       for n in (20, 200)])
        worst = max(worst, float(np.max(es.max(axis=0) / es.min(axis=0))))
    asserts = [Assertion("scalability/e varies < 2x between N=20 and N=200 "
                         "(theta outside [0.22 pi, 0.28 pi])",
                         worst, ok=bool(worst < 2.0))]
    return TargetResult("fig_scalability", asserts)


TARGETS = {
    "fig2": _target_fig2,
    "fig3": _target_fig3,
    "fig4": _target_fig4,
    "fig5": _target_fig5,
    "fig6": _target_fig6,
    "fig8": _target_fig8,
    "fig10": _target_fig10,
    "fig_spec_reopt": _target_fig_spec_reopt,
    "table_optimal_avg": _target_table_optimal_avg,
    "fig_scalability": _target_fig_scalability,
}


def run_target(target_id: str) -> TargetResult:
    if target_id not in TARGETS:
        raise ValueError(f"unknown reproduction target {target_id!r}; "
                         f"choose from {sorted(TARGETS)}")
    return TARGETS[target_id]()
