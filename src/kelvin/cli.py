"""Command-line front end.

    kelvin spectrum|steady|trajectory|rates|optimize|reproduce \
        --config cfg.json --out outdir [--seed N] [--engine fock|cm]

Configs are strict JSON: keys a command does not read are rejected, and
physics parameters have no implicit defaults (only output and run-control
knobs do).  Files are written atomically (temp + rename), CSVs carry a
header row, and each summary.json embeds the config hash and package version.

Exit codes: 0 success, 1 reproduction assertion failure, 2 invalid config,
3 no unique steady state, 5 optimization failure.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import operator
import os
import sys
import tempfile

import numpy as np

from . import __version__
from . import analytic as an
from . import optimize as op
from . import protocol as pr
from . import repro, svgplot
from .errors import ConfigError, NonUniqueFixedPoint, OptimizationFailed, UndefinedSteadyState
from .model import (
    NOISE_KEYS,
    BathSpec,
    CouplingScheme,
    ModelParams,
    NoiseSpec,
    dispersion,
    energy_density_limit,
    ground_state_energy,
    mode_grid,
)

EXIT_ASSERTION = 1
EXIT_CONFIG = 2
EXIT_NO_STEADY_STATE = 3
EXIT_OPTFAIL = 5

# the errors `main` reports: JSON error name and exit code of each
_ERRORS = {
    ConfigError: ("config", EXIT_CONFIG),
    NonUniqueFixedPoint: ("non_unique_fixed_point", EXIT_NO_STEADY_STATE),
    UndefinedSteadyState: ("undefined_steady_state", EXIT_NO_STEADY_STATE),
    OptimizationFailed: ("optimization_failed", EXIT_OPTFAIL),
}


# ---------------------------------------------------------------------------
# config validation
# ---------------------------------------------------------------------------

_SCHEMA = {
    "model": {"N", "theta"},
    "scheme": {"nn", "lambda", "mu", "g"},
    "bath": {"delta", "cycle_time"},
    "schedule": {"kind", "L", "R", "freq_rule", "k_fractions", "k_modes"},
    "noise": {"kind", "kappa", "kappa_prime", "delta_e", "p_e"},
    "run": {"cycles", "snapshot_stride", "initial", "dsp", "cross_check", "wide"},
    "optimize": {"objective", "phase", "mode", "budget", "restarts", "init"},
    "reproduce": {"target"},
}
_REQUIRED = {
    "spectrum": ["model"],
    "steady": ["model", "scheme", "bath", "schedule", "noise"],
    "trajectory": ["model", "scheme", "bath", "schedule", "noise", "run"],
    "rates": ["model", "scheme", "bath", "schedule"],
    "optimize": ["model", "scheme", "optimize"],
    "reproduce": ["reproduce"],
}
# what a command reads besides those (and "seed" and "engine"): its optional
# sections and its run keys; a config may hold nothing else
_OPTIONAL = {"steady": ["run"], "optimize": ["noise"]}
_RUN_KEYS = {"steady": {"dsp"}, "trajectory": _SCHEMA["run"]}


def _check_keys(name: str, obj: dict, allowed: set):
    unknown = set(obj) - allowed
    if unknown:
        raise ConfigError(f"unknown keys in {name!r}: {sorted(unknown)}")


def load_config(path: str, command: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a JSON object")
    _check_keys(f"{command} config", cfg,
                {"seed", "engine", *_REQUIRED[command], *_OPTIONAL.get(command, [])})
    for section, val in cfg.items():
        if section in _SCHEMA:
            if not isinstance(val, dict):
                raise ConfigError(f"section {section!r} must be an object")
            _check_keys(section, val, _RUN_KEYS[command] if section == "run" else _SCHEMA[section])
    for section in _REQUIRED[command]:
        if section not in cfg:
            raise ConfigError(f"command {command!r} requires section {section!r}")
    return cfg


def config_hash(cfg: dict) -> str:
    blob = json.dumps(cfg, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


@contextlib.contextmanager
def _section(name: str):
    """Report a KeyError, ValueError or TypeError raised while reading config
    section `name` as a ConfigError."""
    try:
        yield
    except (KeyError, ValueError, TypeError) as exc:
        raise ConfigError(f"invalid {name} section: {exc}") from exc


def _params(cfg: dict) -> ModelParams:
    m = cfg["model"]
    with _section("model"):
        return ModelParams(operator.index(m["N"]), float(m["theta"]))


def _scheme(cfg: dict) -> CouplingScheme:
    s = cfg["scheme"]
    with _section("scheme"):
        lam = {int(k): float(v) for k, v in s["lambda"].items()}
        mu = {int(k): float(v) for k, v in s["mu"].items()}
        return CouplingScheme(nn=float(s["nn"]), lam=lam, mu=mu, g=float(s["g"]))


def _bath(cfg: dict, params: ModelParams) -> BathSpec:
    b = cfg["bath"]
    with _section("bath"):
        d = b["delta"]
        if isinstance(d, dict):
            _check_keys("bath.delta", d, {"mode_k", "mode_fraction"})
            if "mode_k" in d:
                k = operator.index(d["mode_k"])
            else:
                k = int(round(float(d["mode_fraction"]) * params.N / 2))
            delta = dispersion(params.theta, params.N, k)
        else:
            delta = float(d)
        return BathSpec(delta, float(b["cycle_time"]))


def _noise(cfg: dict) -> NoiseSpec:
    """The noise section as a NoiseSpec: its kind and exactly that kind's
    `NOISE_KEYS`."""
    n = cfg.get("noise", {"kind": "none"})
    kind = n.get("kind")
    if not isinstance(kind, str) or kind not in NOISE_KEYS:
        raise ConfigError(f"unknown noise kind {kind!r}")
    foreign = sorted(set(n) - {"kind", *NOISE_KEYS[kind]})
    if foreign:
        raise ConfigError(f"noise kind {kind!r} takes no {foreign}")
    with _section("noise"):
        return NoiseSpec(kind, **{key: float(n[key]) for key in NOISE_KEYS[kind]})


def _frequencies(cfg: dict, params: ModelParams, bath: BathSpec) -> list[float]:
    """The schedule section's bath frequencies (`protocol.schedule_frequencies`)."""
    with _section("schedule"):
        return pr.schedule_frequencies(cfg["schedule"], params, bath)


def _run_flag(cfg: dict, key: str) -> bool:
    """run.<key> as a JSON boolean, False when absent."""
    value = cfg.get("run", {}).get(key, False)
    if not isinstance(value, bool):
        raise ConfigError(f"run.{key} must be true or false, got {value!r}")
    return value


# ---------------------------------------------------------------------------
# output helpers
# ---------------------------------------------------------------------------

def _atomic_write(path: str, text: str):
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path) or ".",
                               prefix=os.path.basename(path) + ".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_csv(path: str, header: list[str], rows) -> None:
    lines = [",".join(header)]
    for row in rows:
        cells = []
        for v in row:
            if v is None or (isinstance(v, float) and math.isnan(v)):
                cells.append("")
            elif isinstance(v, float):
                cells.append(f"{v:.17g}")
            else:
                cells.append(str(v))
        lines.append(",".join(cells))
    _atomic_write(path, "\n".join(lines) + "\n")


def write_json(path: str, payload: dict) -> None:
    _atomic_write(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _summary(cfg: dict, extra: dict) -> dict:
    return {"config_hash": config_hash(cfg), "version": __version__, **extra}


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_spectrum(cfg: dict, out: str, args) -> int:
    params = _params(cfg)
    rows = zip(*(arr.tolist() for arr in mode_grid(params)))
    write_csv(os.path.join(out, "spectrum.csv"),
              ["k", "epsilon_k", "phi_k", "weight"], rows)
    write_json(os.path.join(out, "summary.json"), _summary(cfg, {
        "E_GS": ground_state_energy(params),
        "N_times_f_theta": params.N * energy_density_limit(params.theta),
    }))
    return 0


def cmd_steady(cfg: dict, out: str, args) -> int:
    params = _params(cfg)
    scheme = _scheme(cfg)
    bath = _bath(cfg, params)
    noise = _noise(cfg)
    dsp = _run_flag(cfg, "dsp")
    deltas = _frequencies(cfg, params, bath)
    rep = pr.steady_report(params, scheme, bath, cfg["schedule"], noise=noise,
                           engine=args.engine, dsp=dsp)
    e_closed = an.closed_form_relative_energies(
        params, scheme, deltas, bath.cycle_time_mean, noise,
        random_times=cfg["schedule"].get("kind", "single") != "single", dsp=dsp)

    # write_csv leaves NaN (undefined e_k) cells empty
    ks, e_rel = rep.ks, rep.mode_relative_energy
    rows = zip(ks.tolist(), *(a[ks].tolist() for a in (rep.epsilon, rep.mode_energy, e_rel,
                                                       rep.alpha, e_closed, e_rel - e_closed)))
    write_csv(os.path.join(out, "steady.csv"),
              ["k", "epsilon_k", "E_k", "e_k", "alpha_k",
               "e_k_closed_form", "e_k_delta"], rows)
    write_json(os.path.join(out, "summary.json"), _summary(cfg, {
        "E": rep.energy, "e": rep.relative_energy, "fidelity": rep.fidelity,
        "engine": rep.engine, "max_residual": rep.max_residual,
    }))
    return 0


def cmd_trajectory(cfg: dict, out: str, args) -> int:
    params = _params(cfg)
    run = cfg["run"]
    bath = _bath(cfg, params)
    with _section("schedule"):
        sched = pr.make_schedule(cfg["schedule"], params, bath, args.seed)
    initial = run.get("initial", "most_excited")
    if initial not in ("vacuum", "most_excited"):
        raise ConfigError(f"run.initial must be 'vacuum' or 'most_excited', got {initial!r}")
    with _section("run"):
        cycles, stride = map(operator.index, (run["cycles"], run.get("snapshot_stride", 10)))
    if cycles < 0:
        raise ConfigError(f"run.cycles must be >= 0, got {cycles}")
    if stride < 1:
        raise ConfigError(f"run.snapshot_stride must be >= 1, got {stride}")
    kwargs = dict(noise=_noise(cfg), n_global_cycles=cycles, snapshot_stride=stride,
                  initial=initial, dsp=_run_flag(cfg, "dsp"))
    wide, cross_check = _run_flag(cfg, "wide"), _run_flag(cfg, "cross_check")
    traj = pr.run_trajectory(params, _scheme(cfg), sched, engine=args.engine, **kwargs)

    header = ["cycle", "E", "e", "F"]
    if wide:
        header += [f"E_k{k}" for k in range(params.N // 2 + 1)]
    rows = []
    for s in traj.snapshots:
        row = [s.cycle, s.energy, s.relative_energy, s.fidelity]
        if wide:
            row += s.mode_energies.tolist()
        rows.append(row)
    write_csv(os.path.join(out, "trajectory.csv"), header, rows)

    cycles = [s.cycle for s in traj.snapshots]
    es = [s.relative_energy for s in traj.snapshots]
    try:
        svg = svgplot.line_plot({"relative energy": (cycles, es)},
                                title="cooling trajectory", xlabel="global cycle",
                                ylabel="e", ylog=all(v > 0 for v in es))
    except ValueError:
        pass
    else:
        _atomic_write(os.path.join(out, "trajectory.svg"), svg)

    extra = {"converged_at": traj.converged_at,
             "final_e": traj.snapshots[-1].relative_energy,
             "final_F": traj.snapshots[-1].fidelity}
    if cross_check:
        other = next(name for name in pr.ENGINES if name != args.engine)
        traj2 = pr.run_trajectory(params, _scheme(cfg), sched, engine=other, **kwargs)
        extra["cross_check_max_dE_k"] = float(max(
            np.max(np.abs(a.mode_energies - b.mode_energies))
            for a, b in zip(traj.snapshots, traj2.snapshots)))
    write_json(os.path.join(out, "summary.json"), _summary(cfg, extra))
    return 0


def cmd_rates(cfg: dict, out: str, args) -> int:
    params = _params(cfg)
    scheme = _scheme(cfg)
    bath = _bath(cfg, params)
    deltas = _frequencies(cfg, params, bath)
    rt = an.rate_table(params, scheme, deltas, bath.cycle_time_mean)
    _, eps, _, _ = mode_grid(params)
    # the table's rates are random-time averages over `deltas`, whatever the
    # schedule kind, and so is e_k
    e_rel = an.closed_form_relative_energies(params, scheme, deltas, bath.cycle_time_mean,
                                             NoiseSpec.none(), random_times=True)
    ks = rt.ks
    rows = zip(ks.tolist(), *(a[ks].tolist() for a in (eps, rt.gamma_c, rt.gamma_h, rt.alpha,
                                                       e_rel)))
    write_csv(os.path.join(out, "rates.csv"),
              ["k", "epsilon_k", "gamma_c", "gamma_h", "alpha_k", "e_k"], rows)
    write_json(os.path.join(out, "summary.json"),
               _summary(cfg, {"gamma0": rt.gamma0, "n_frequencies": len(deltas)}))
    return 0


def cmd_optimize(cfg: dict, out: str, args) -> int:
    params = _params(cfg)
    scheme = _scheme(cfg)
    o = cfg["optimize"]
    mode = o.get("mode", "cooling")
    if mode not in ("cooling", "dsp"):
        raise ConfigError(f"optimize.mode must be 'cooling' or 'dsp', got {mode!r}")
    dsp = mode == "dsp"
    noise = _noise(cfg)
    with _section("optimize"):
        objective_kind = o["objective"]
        init_cfg = o.get("init", {})
        if not isinstance(init_cfg, dict):
            raise TypeError(f"init must be an object, got {init_cfg!r}")
        _check_keys("optimize.init", init_cfg, {"delta", "t"})
        init = op.ParamVector(scheme, float(init_cfg.get("delta", 1.0)),
                              float(init_cfg.get("t", 3.0)))
        budget, restarts = map(operator.index, (o.get("budget", 4000), o.get("restarts", 8)))
    if budget < 1:
        raise ConfigError(f"optimize.budget must be >= 1, got {budget}")
    if restarts < 1:
        raise ConfigError(f"optimize.restarts must be >= 1, got {restarts}")

    if objective_kind == "theta_specific":
        def objective(pv):
            return op.objective_theta_specific(pv, params, noise, dsp=dsp)
    elif objective_kind == "phase_averaged":
        phase = o.get("phase")
        if phase not in ("low", "high"):
            raise ConfigError("phase_averaged objective requires phase: low|high")

        def objective(pv):
            return op.objective_phase_averaged(pv, phase, params.N, noise, dsp=dsp)
    else:
        raise ConfigError(f"unknown objective {objective_kind!r}")

    res = op.optimize(objective, init, budget=budget, restarts=restarts, seed=args.seed,
                      vary_delta_t=not dsp)
    best = res.best
    write_json(os.path.join(out, "optimum.json"), _summary(cfg, {
        "params": {
            "nn": best.scheme.nn,
            "lambda": {str(j): v for j, v in best.scheme.lam.items()},
            "mu": {str(j): v for j, v in best.scheme.mu.items()},
            "g": best.scheme.g, "delta": best.delta, "t": best.t,
        },
        "objective": res.objective,
        "evaluations": res.evaluations,
        "restarts_used": res.restarts_used,
        # the best is inf until a start has a steady state; JSON has no inf
        "history": [(n, v if math.isfinite(v) else None) for n, v in res.history[-200:]],
    }))

    # validation at the optimum: the exact engine against the closed form at
    # each theta of the objective (five nodes of a phase), in one stacked pass
    thetas = [params.theta] if objective_kind == "theta_specific" else \
        [float(t) for t in op.phase_grid(o["phase"], 5)]
    closed = an.chain_relative_energies(params.N, thetas, best.scheme, best.delta, best.t,
                                        noise, dsp=dsp)
    reps = pr.steady_reports([(ModelParams(params.N, th), BathSpec(best.delta, best.t))
                              for th in thetas], best.scheme, {"kind": "single"},
                             noise=noise, engine=args.engine, dsp=dsp)
    rows = {}
    for th, analytic, rep in zip(thetas, closed.tolist(), reps):
        rows[f"{th:.6f}"] = {"exact_e": rep.relative_energy, "analytic_e": analytic,
                             "difference": rep.relative_energy - analytic}
    write_json(os.path.join(out, "validation.json"),
               _summary(cfg, {"engine": args.engine, "by_theta": rows}))
    return 0


def cmd_reproduce(cfg: dict, out: str, args) -> int:
    r = cfg["reproduce"]
    if r.get("target") not in repro.TARGETS:
        raise ConfigError(f"unknown reproduction target {r.get('target')!r}; "
                          f"choose from {sorted(repro.TARGETS)}")
    result = repro.run_target(r["target"])
    payload = _summary(cfg, {
        "target": result.target,
        "passed": result.passed,
        "assertions": [{
            "name": a.name, "measured": a.measured, "expected": a.expected,
            "rel_tol": a.rel_tol, "pass": a.ok, "note": a.note,
        } for a in result.assertions],
        "annotations": result.annotations,
        "data": result.data,
    })
    write_json(os.path.join(out, "report.json"), payload)
    for a in result.assertions:
        status = "PASS" if a.ok else "FAIL"
        exp = "" if a.expected is None else f" expected={a.expected:g}+-{100 * a.rel_tol:g}%"
        print(f"[{status}] {a.name}: measured={a.measured:g}{exp}")
    for note in result.annotations:
        print(f"[note] {note}")
    return 0 if result.passed else EXIT_ASSERTION


COMMANDS = {
    "spectrum": cmd_spectrum,
    "steady": cmd_steady,
    "trajectory": cmd_trajectory,
    "rates": cmd_rates,
    "optimize": cmd_optimize,
    "reproduce": cmd_reproduce,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="kelvin",
        description="bath-reset cooling protocols on a free-fermion chain")
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--config", required=True, help="JSON experiment config")
    parser.add_argument("--out", required=True, help="output directory")
    parser.add_argument("--seed", type=int, default=None, help="64-bit RNG seed")
    parser.add_argument("--engine", choices=list(pr.ENGINES), default=None)
    args = parser.parse_args(argv)

    try:
        cfg = load_config(args.config, args.command)
        if args.seed is None:
            with _section("seed"):
                args.seed = operator.index(cfg.get("seed", 0))
        if args.engine is None:
            args.engine = cfg.get("engine", "fock")
            if args.engine not in pr.ENGINES:
                raise ConfigError(f"unknown engine {args.engine!r}")
        os.makedirs(args.out, exist_ok=True)
        return COMMANDS[args.command](cfg, args.out, args)
    except tuple(_ERRORS) as exc:
        name, code = next(v for cls, v in _ERRORS.items() if isinstance(exc, cls))
        payload = {"error": name, "message": str(exc)}
        if isinstance(exc, NonUniqueFixedPoint):
            payload["eigenspace_dim"] = exc.eigenspace_dim
        json.dump(payload, sys.stderr)
        sys.stderr.write("\n")
        return code


if __name__ == "__main__":
    sys.exit(main())
