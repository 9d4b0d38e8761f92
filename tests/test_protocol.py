import ast
import inspect
import math

import numpy as np
import pytest
from scipy.linalg import expm

from kelvin import analytic as an
from kelvin import cm, fock
from kelvin import protocol as pr
from kelvin.errors import NonUniqueFixedPoint
from kelvin.model import (
    BathSpec,
    CouplingScheme,
    ModelParams,
    band_edges,
    block_hamiltonian,
    dispersion,
    ground_state_energy,
    mode_grid,
)

import oracles
from oracles import FitQualityError, apply_transfer, trace_norm


class TestMakeSchedule:
    def test_single(self, small_params, bath):
        s = pr.make_schedule({"kind": "single"}, small_params, bath, seed=0)
        assert s.subcycles == ((bath.delta, bath.cycle_time_mean),)

    def test_randomized_deterministic(self, small_params, bath):
        a = pr.make_schedule({"kind": "randomized", "L": 100}, small_params, bath, 7)
        b = pr.make_schedule({"kind": "randomized", "L": 100}, small_params, bath, 7)
        assert a.subcycles == b.subcycles
        c = pr.make_schedule({"kind": "randomized", "L": 100}, small_params, bath, 8)
        assert a.subcycles != c.subcycles

    def test_uniform_law(self, small_params, bath):
        s = pr.make_schedule({"kind": "randomized", "L": 100000},
                             small_params, bath, seed=3)
        ts = np.array([t for _, t in s.subcycles])
        assert abs(ts.mean() - bath.cycle_time_mean) <= 0.01 * bath.cycle_time_mean
        assert ts.max() <= 2 * bath.cycle_time_mean
        assert ts.min() >= 0.0

    def test_multifreq_round_robin(self, small_params, bath):
        s = pr.make_schedule({"kind": "multifreq", "R": 3, "L": 4,
                              "freq_rule": "grid"}, small_params, bath, seed=1)
        deltas = [d for d, _ in s.subcycles]
        assert len(s.subcycles) == 12
        assert deltas[0::3] == [deltas[0]] * 4
        assert deltas[1::3] == [deltas[1]] * 4
        eps_m, eps_max = band_edges(small_params.theta)
        step = (eps_max - eps_m) / 3
        assert deltas[0] == pytest.approx(eps_m + 0.5 * step)

    def test_mode_energy_rule(self, small_params, bath):
        s = pr.make_schedule({"kind": "multifreq", "R": 2, "L": 1,
                              "freq_rule": "mode_energies",
                              "k_fractions": [0.25, 0.75]},
                             small_params, bath, seed=1)
        n = small_params.N
        expect = {dispersion(small_params.theta, n, round(0.25 * n / 2)),
                  dispersion(small_params.theta, n, round(0.75 * n / 2))}
        assert {d for d, _ in s.subcycles} == expect

    def test_invalid_sizes_rejected(self, small_params, bath):
        with pytest.raises(ValueError):
            pr.make_schedule({"kind": "randomized", "L": 0}, small_params, bath, 0)
        with pytest.raises(ValueError):
            pr.make_schedule({"kind": "multifreq", "R": 0, "L": 5},
                             small_params, bath, 0)


def _state_vector(engine, block):
    """A block as the engine's state vector: (1, vec gamma) for CM, the
    physical sector of vec(rho) for Fock."""
    if engine == "cm":
        return np.concatenate([[1.0], block.reshape(-1)])
    return block.reshape(-1)[fock._physical_sector(len(block))]


def _stacked(engine, params, blocks):
    """Per-mode blocks over k = 0..N/2 as the engine's stacked groups [(ks, x)]."""
    return [(ks, np.stack([_state_vector(engine, blocks[k]) for k in ks]))
            for ks in pr.ENGINES[engine].mode_groups(params.N // 2, None)]


def _initial(engine, params, kind):
    """The product state `kind` as the engine's stacked groups [(ks, x)]."""
    eng, n2 = pr.ENGINES[engine], params.N // 2
    return [(ks, eng.initial_blocks(kind, ks, n2)) for ks in eng.mode_groups(n2, None)]


def _metrics(engine, params, groups):
    """`global_metrics` of a chain state given as the engine's stacked groups."""
    _, eps, _, wts = mode_grid(params)
    return pr.global_metrics(*pr._chain_reduce(pr.ENGINES[engine], wts * eps, groups), params)


class TestInitialState:
    def test_ground_state_metrics(self, small_params):
        for engine in ("fock", "cm"):
            _, e, f = _metrics(engine, small_params, _initial(engine, small_params, "vacuum"))
            assert e == pytest.approx(0.0, abs=1e-13)
            assert f == pytest.approx(1.0)

    def test_most_excited_metrics(self, small_params):
        for engine in ("fock", "cm"):
            _, e, f = _metrics(engine, small_params,
                               _initial(engine, small_params, "most_excited"))
            assert e == pytest.approx(2.0, abs=1e-13)
            assert f == pytest.approx(0.0, abs=1e-13)

    def test_maximally_mixed_custom(self, small_params):
        n2 = small_params.N // 2
        blocks = [oracles.maximally_mixed_density(k in (0, n2)) for k in range(n2 + 1)]
        _, e, f = _metrics("fock", small_params, _stacked("fock", small_params, blocks))
        assert e == pytest.approx(1.0, abs=1e-13)
        # overlap of the maximally mixed block with the pair vacuum: 1/4
        # per generic pair, 1/2 per edge mode
        assert f == pytest.approx(0.25 ** (n2 - 1) * 0.25, abs=1e-15)

    def test_unknown_kind(self, small_params, local_scheme, bath):
        sched = pr.make_schedule({"kind": "single"}, small_params, bath, 0)
        for engine in ("fock", "cm"):
            with pytest.raises(ValueError, match="unknown initial state kind"):
                pr.run_trajectory(small_params, local_scheme, sched, engine=engine,
                                  n_global_cycles=1, initial="thermal")


class TestRunTrajectory:
    def test_zero_cycles_returns_initial_metrics(self, small_params, local_scheme, bath):
        sched = pr.make_schedule({"kind": "single"}, small_params, bath, 0)
        traj = pr.run_trajectory(small_params, local_scheme, sched,
                                 n_global_cycles=0, snapshot_stride=10)
        assert len(traj.snapshots) == 1
        assert traj.snapshots[0].relative_energy == pytest.approx(2.0)

    def test_negative_cycles_rejected(self, small_params, local_scheme, bath):
        sched = pr.make_schedule({"kind": "single"}, small_params, bath, 0)
        with pytest.raises(ValueError, match="n_global_cycles"):
            pr.run_trajectory(small_params, local_scheme, sched, n_global_cycles=-5)

    @pytest.mark.parametrize("stride", [-10, 0])
    def test_stride_below_one_rejected(self, local_scheme, bath, stride):
        """A negative stride used to record only cycles 0 and n, and 0 reached
        range()'s own error."""
        p = ModelParams(8, 0.9)
        sched = pr.make_schedule({"kind": "single"}, p, bath, 0)
        with pytest.raises(ValueError, match="snapshot_stride must be >= 1"):
            pr.run_trajectory(p, local_scheme, sched, n_global_cycles=30,
                              snapshot_stride=stride)

    def test_determinism(self, small_params, local_scheme, bath):
        sched = pr.make_schedule({"kind": "randomized", "L": 7},
                                 small_params, bath, seed=5)
        a = pr.run_trajectory(small_params, local_scheme, sched,
                              n_global_cycles=20, snapshot_stride=5)
        b = pr.run_trajectory(small_params, local_scheme, sched,
                              n_global_cycles=20, snapshot_stride=5)
        assert [s.relative_energy for s in a.snapshots] == [s.relative_energy for s in b.snapshots]

    @pytest.mark.parametrize("noise_kind,kappa", [("none", 0.0), ("depolarizing", 1e-3)])
    def test_engine_equivalence(self, small_params, local_scheme, bath,
                                noise_kind, kappa):
        noise = an.NoiseSpec.none() if noise_kind == "none" \
            else an.NoiseSpec.depolarizing(kappa)
        sched = pr.make_schedule({"kind": "randomized", "L": 5},
                                 small_params, bath, seed=11)
        tf = pr.run_trajectory(small_params, local_scheme, sched, noise,
                               "fock", 100, 10)
        tc = pr.run_trajectory(small_params, local_scheme, sched, noise,
                               "cm", 100, 10)
        for a, b in zip(tf.snapshots, tc.snapshots):
            assert np.max(np.abs(a.mode_energies - b.mode_energies)) <= 1e-9

    def test_engine_equivalence_across_theta_grid(self, bath):
        scheme = CouplingScheme.local(1.0, 1.0, 1e-2)
        for theta in (0.3, math.pi / 4):
            p = ModelParams(8, theta)
            sched = pr.make_schedule({"kind": "single"}, p, bath, 0)
            tf = pr.run_trajectory(p, scheme, sched, engine="fock",
                                   n_global_cycles=100, snapshot_stride=20)
            tc = pr.run_trajectory(p, scheme, sched, engine="cm",
                                   n_global_cycles=100, snapshot_stride=20)
            for a, b in zip(tf.snapshots, tc.snapshots):
                assert np.max(np.abs(a.mode_energies - b.mode_energies)) <= 1e-9

    def test_engines_agree_on_finite_env(self, bath):
        """Both engines inject from the bath and from both environment pairs
        (pair 2 reaches the system through the bath), so their
        finite-environment trajectories and fixed points agree to rounding,
        also at a strong environment coupling."""
        p = ModelParams(12, 1.0)
        scheme = CouplingScheme.local(1.0, 0.5, 0.3)
        noise = an.NoiseSpec.finite_env(0.3, 0.9, 0.4)
        sched = pr.make_schedule({"kind": "randomized", "L": 3}, p, bath, 0)
        tf, tc = (pr.run_trajectory(p, scheme, sched, noise, engine, n_global_cycles=60,
                                    snapshot_stride=20) for engine in ("fock", "cm"))
        for a, b in zip(tf.snapshots, tc.snapshots):
            assert np.max(np.abs(a.mode_energies - b.mode_energies)) <= 1e-12
        rf, rc = (pr.steady_report(p, scheme, bath, {"kind": "single"}, noise=noise,
                                   engine=engine) for engine in ("fock", "cm"))
        assert np.max(np.abs(rf.mode_energy - rc.mode_energy)) <= 1e-12
        np.testing.assert_allclose(rc.alpha, rf.alpha, rtol=1e-12)

    def test_resonant_mode_envelope_monotone(self):
        """Single-frequency noiseless run at resonance: e_{N/4} non-increasing
        after the first cycles."""
        p = ModelParams(16, math.pi / 3)
        scheme = CouplingScheme.local(1.0, 1.0, 0.01)
        bath_r = BathSpec(dispersion(p.theta, p.N, 4), 10.0)
        sched = pr.make_schedule({"kind": "single"}, p, bath_r, 0)
        traj = pr.run_trajectory(p, scheme, sched, n_global_cycles=400,
                                 snapshot_stride=10)
        eps4 = dispersion(p.theta, p.N, 4)
        e4 = np.array([(s.mode_energies[4] + eps4) / eps4 for s in traj.snapshots])
        diffs = np.diff(e4[1:])
        assert np.all(diffs <= 1e-9)

    def test_convergence_declared(self):
        p = ModelParams(8, 0.9)
        scheme = CouplingScheme.local(1.0, 1.0, 0.3)
        bath_f = BathSpec(1.0, 3.0)
        sched = pr.make_schedule({"kind": "single"}, p, bath_f, 0)
        traj = pr.run_trajectory(p, scheme, sched, n_global_cycles=3000,
                                 snapshot_stride=50)
        assert traj.converged_at is not None


def _reference_trajectory(params, scheme, schedule, noise, engine, n_cycles, stride, dsp):
    """Oracle for run_trajectory: every mode stepped one subcycle at a time.

    Returns (cycles, per-snapshot dicts, per-snapshot blocks) built from the
    scalar per-block maps and metrics; `_converged_at` reads the blocks.
    """
    n2 = params.N // 2
    env = noise.env
    blocks = [cm.most_excited_cm() if engine == "cm" else fock.most_excited_density(k in (0, n2))
              for k in range(n2 + 1)]
    mode_blocks = {(k, d): block_hamiltonian(params, scheme, BathSpec(d, 1.0), k,
                                             env=env, dsp=dsp)
                   for k in range(n2 + 1) for d in {d for d, _ in schedule.subcycles}}

    fock_maps = {}

    def step(k, delta_r, t_m, state):
        mb = mode_blocks[k, delta_r]
        if engine == "cm":
            # A-blocks cut from a dense propagator, independent of cm's eigh path
            u = expm(-1j * mb.generator * t_m)
            a_s, a_sb = u[:2, :2], u[:2, 2:4]
            out = a_s @ state @ a_s.conj().T + a_sb @ cm.vacuum_cm() @ a_sb.conj().T
            if noise.kind == "depolarizing":
                out = math.exp(-2.0 * noise.kappa * t_m) * out
            elif noise.kind == "finite_env":
                # each environment pair starts in p_E times the bath's vacuum CM
                for j in (4, 6):
                    a_se = u[:2, j:j + 2]
                    out = out + a_se @ (noise.p_e * cm.vacuum_cm()) @ a_se.conj().T
            return out
        key = (k, delta_r, t_m)
        if key not in fock_maps:
            fock_maps[key] = fock.exact_cycle_map(mb, t_m, noise.kappa)
        return apply_transfer(fock_maps[key], state)

    def metrics(state):
        e_k, f_k = [], []
        for k, b in enumerate(state):
            edge = k in (0, n2)
            eps = dispersion(params.theta, params.N, k)
            if engine == "cm":
                e_k.append(cm.cm_energy(b, eps, 0.5 if edge else 1.0))
                f_k.append(cm.cm_fidelity(b, edge))
            else:
                e_k.append(fock.block_energy(b, eps, 0.5 if edge else 1.0)[0])
                f_k.append(b[0, 0].real)
        e_tot = sum(e_k)
        e_gs = ground_state_energy(params)
        return {"mode_energies": np.array(e_k), "energy": e_tot,
                "relative_energy": abs((e_tot - e_gs) / e_gs),
                "fidelity": math.prod(f_k)}

    cycles, snaps, history = [0], [metrics(blocks)], [blocks]
    for n in range(1, n_cycles + 1):
        for delta_r, t_m in schedule.subcycles:
            blocks = [step(k, delta_r, t_m, b) for k, b in enumerate(blocks)]
        if n % stride == 0 or n == n_cycles:
            cycles.append(n)
            snaps.append(metrics(blocks))
            history.append(blocks)
    return cycles, snaps, history


def _entrywise(m):
    """sum |m_ij|: on a difference of blocks, the change of the state vector,
    sum |x_n - x_{n-1}| (a CM's leading 1 cancels, and a density's
    coherences between the parities are zero)."""
    return np.abs(m).sum()


def _converged_at(cycles, history, change=_entrywise):
    """The first snapshot cycle ending `CONVERGENCE_STREAK` consecutive
    snapshots whose largest per-block `change` from the one before is below
    `CONVERGENCE_STEP_TOL`, or None."""
    streak = 0
    for i in range(1, len(history)):
        step = max(change(a - b) for a, b in zip(history[i], history[i - 1]))
        streak = streak + 1 if step < pr.CONVERGENCE_STEP_TOL else 0
        if streak >= pr.CONVERGENCE_STREAK:
            return cycles[i]
    return None


_NOISES = {"none": an.NoiseSpec.none(),
           "depolarizing": an.NoiseSpec.depolarizing(1e-2),
           "finite_env": an.NoiseSpec.finite_env(0.02, 0.7, 0.1)}
_SCHEDULES = {"single": {"kind": "single"},
              "randomized": {"kind": "randomized", "L": 4},
              "multifreq": {"kind": "multifreq", "R": 2, "L": 3, "freq_rule": "grid"}}
_EQUIVALENCE_CASES = [
    (engine, sched, noise, False)
    for engine in ("fock", "cm") for sched in _SCHEDULES for noise in _NOISES
] + [(engine, sched, "none", True)
     for engine in ("fock", "cm") for sched in ("randomized", "multifreq")]


class TestSteppingEquivalence:
    """Precomposed, mode-batched stepping against the per-subcycle loop."""

    @pytest.mark.parametrize("engine,sched,noise,dsp", _EQUIVALENCE_CASES)
    def test_matches_per_subcycle_loop(self, generic_scheme, engine, sched, noise, dsp):
        # N = 6 has both edge modes plus two generic pairs; stride 7 does not
        # divide 30 cycles, so the last snapshot is off the stride
        p = ModelParams(6, 1.0)
        schedule = pr.make_schedule(_SCHEDULES[sched], p, BathSpec(1.1, 4.3), seed=7)
        traj = pr.run_trajectory(p, generic_scheme, schedule, _NOISES[noise], engine,
                                 n_global_cycles=30, snapshot_stride=7, dsp=dsp)
        cycles, ref, history = _reference_trajectory(
            p, generic_scheme, schedule, _NOISES[noise], engine, 30, 7, dsp)
        assert [s.cycle for s in traj.snapshots] == cycles == [0, 7, 14, 21, 28, 30]
        converged_at = _converged_at(cycles, history)
        assert traj.converged_at == converged_at
        # the entrywise change bounds the trace norm's from above, so it never
        # declares convergence before the trace-norm change would
        by_trace_norm = _converged_at(cycles, history, trace_norm)
        assert converged_at is None or by_trace_norm is not None and by_trace_norm <= converged_at
        _assert_snapshots_match(p, traj, ref)

    @pytest.mark.parametrize("engine", ["fock", "cm"])
    def test_powers_match_stepping_over_long_gaps(self, engine):
        """Snapshots 100 cycles apart, with a last gap of 30, are matrix powers
        of the global-cycle map; they match stepping one subcycle at a time
        over 1,030 cycles, and the run converges at the same snapshot."""
        p = ModelParams(8, 0.9)
        scheme = CouplingScheme.local(1.0, 1.0, 0.15)
        schedule = pr.make_schedule({"kind": "randomized", "L": 2}, p, BathSpec(1.0, 3.0), 0)
        traj = pr.run_trajectory(p, scheme, schedule, engine=engine,
                                 n_global_cycles=1030, snapshot_stride=100)
        cycles, ref, history = _reference_trajectory(
            p, scheme, schedule, an.NoiseSpec.none(), engine, 1030, 100, False)
        converged_at = _converged_at(cycles, history)
        assert [s.cycle for s in traj.snapshots] == cycles
        assert cycles[-2:] == [1000, 1030] and converged_at == 700
        assert traj.converged_at == converged_at
        _assert_snapshots_match(p, traj, ref)

    def test_convergence_step_matches_loop(self):
        p = ModelParams(8, 0.9)
        scheme = CouplingScheme.local(1.0, 1.0, 0.3)
        schedule = pr.make_schedule({"kind": "single"}, p, BathSpec(1.0, 3.0), 0)
        for engine in ("fock", "cm"):
            traj = pr.run_trajectory(p, scheme, schedule, engine=engine,
                                     n_global_cycles=300, snapshot_stride=20)
            cycles, _, history = _reference_trajectory(
                p, scheme, schedule, an.NoiseSpec.none(), engine, 300, 20, False)
            converged_at = _converged_at(cycles, history)
            assert converged_at is not None
            assert traj.converged_at == converged_at


def _assert_snapshots_match(p, traj, ref):
    """Snapshots of `traj` against `_reference_trajectory`'s, to 1e-12
    relative to each quantity's scale: |E_GS| for energies, 1 for the
    relative energy and the fidelity."""
    e_scale = abs(ground_state_energy(p))
    for snap, r in zip(traj.snapshots, ref, strict=True):
        np.testing.assert_allclose(snap.mode_energies, r["mode_energies"],
                                   rtol=1e-12, atol=1e-12 * e_scale)
        np.testing.assert_allclose(snap.energy, r["energy"],
                                   rtol=1e-12, atol=1e-12 * e_scale)
        np.testing.assert_allclose(snap.relative_energy, r["relative_energy"],
                                   rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(snap.fidelity, r["fidelity"],
                                   rtol=1e-12, atol=1e-12)


def _random_cm(rng, edge):
    """A random physical CM block: diag(1/2 - n, n - 1/2) at an edge, else any
    hermitian 2x2 with spectrum in [-1/2, 1/2]."""
    if edge:
        n = rng.uniform()
        return np.diag([0.5 - n, n - 0.5]).astype(complex)
    h = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    h = h + h.conj().T
    return (0.5 * rng.uniform() / np.abs(np.linalg.eigvalsh(h)).max() * h).astype(complex)


def _random_density(rng, edge):
    """A random parity-diagonal density block: 2x2 diagonal at an edge, else
    4x4 with a pair coherence rho_03 inside the positivity bound."""
    pops = rng.dirichlet(np.ones(2 if edge else 4))
    rho = np.diag(pops).astype(complex)
    if not edge:
        phase = np.exp(2j * math.pi * rng.uniform())
        rho[0, 3] = rng.uniform() * math.sqrt(pops[0] * pops[3]) * phase
        rho[3, 0] = np.conj(rho[0, 3])
    return rho


class TestEngineInterface:
    """Both engines expose one interface, and protocol only goes through it."""

    NAMES = ("mode_groups", "reduce", "initial_blocks", "cycle_maps", "fixed_points")

    def test_engines_share_one_interface(self):
        assert list(pr.ENGINES) == ["fock", "cm"]
        for name in self.NAMES:
            params = {engine: [(q.name, q.kind) for q in
                               inspect.signature(getattr(module, name)).parameters.values()]
                      for engine, module in pr.ENGINES.items()}
            assert params["fock"] == params["cm"], name

    def test_protocol_reaches_engines_through_the_interface_alone(self):
        """Every engine attribute protocol reads, `eng.<name>`, is one of the
        interface's functions, and no state is diagonalized there."""
        source = inspect.getsource(pr)
        used = {node.attr for node in ast.walk(ast.parse(source))
                if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id == "eng"}
        assert used and used <= set(self.NAMES), used
        assert "eigvalsh" not in source

    def test_unknown_engine_is_rejected(self, local_scheme, bath):
        p = ModelParams(8, 0.9)
        sched = pr.make_schedule({"kind": "single"}, p, bath, 0)
        with pytest.raises(ValueError, match="unknown engine"):
            pr.run_trajectory(p, local_scheme, sched, engine="bogus", n_global_cycles=1)
        with pytest.raises(ValueError, match="unknown engine"):
            pr.steady_report(p, local_scheme, bath, {"kind": "single"}, engine="bogus")

    def test_cm_custom_blocks_match_fock(self, small_params):
        """The same Gaussian chain state, given as CM or as Fock blocks, has
        the same global metrics."""
        n2 = small_params.N // 2
        scheme = CouplingScheme.local(1.0, 1.0, 0.3)
        rhos = []
        for k in range(n2 + 1):
            blk = block_hamiltonian(small_params, scheme, BathSpec(1.0, 2.0), k)
            s = fock.exact_cycle_map(blk, 2.0)
            rhos.append(apply_transfer(s, apply_transfer(s, fock.most_excited_density(k in (0, n2)))))
        gammas = [oracles.density_to_cm(r) for r in rhos]
        np.testing.assert_allclose(_metrics("cm", small_params, _stacked("cm", small_params, gammas)),
                                   _metrics("fock", small_params, _stacked("fock", small_params, rhos)),
                                   rtol=1e-12)

    def test_scalar_views_are_rows_of_reduce(self, rng):
        p = ModelParams(12, 0.9)
        n2 = p.N // 2
        ks, eps, _, wts = mode_grid(p)
        for _ in range(10):
            gammas = [_random_cm(rng, k in (0, n2)) for k in ks]
            oracles.check_cm_blocks(gammas)
            energies, fids = cm.reduce(ks, np.stack([_state_vector("cm", g) for g in gammas]),
                                       wts * eps, n2)
            for k, g in zip(ks, gammas):
                assert cm.cm_energy(g, eps[k], wts[k]) == energies[k]
                assert cm.cm_fidelity(g, k in (0, n2)) == fids[k]
            rhos = [_random_density(rng, k in (0, n2)) for k in ks]
            oracles.check_density_blocks(rhos)
            for group in fock.mode_groups(n2, None):
                x = np.stack([_state_vector("fock", rhos[k]) for k in group])
                assert all(np.array_equal(rho, rhos[k])
                           for rho, k in zip(fock.matrices(x), group))
                energies, fids = fock.reduce(group, x, wts * eps, n2)
                for k, e_k, f_k in zip(group, energies, fids):
                    assert fock.block_energy(rhos[k], eps[k], wts[k])[0] == e_k
                    assert rhos[k][0, 0].real == f_k


class TestCoolingRate:
    def test_map_and_fit_paths_agree(self):
        p = ModelParams(40, math.pi / 3)
        scheme = CouplingScheme.local(1.0, 1.0, 3e-2)
        bath_r = BathSpec(1.0, 20.0)
        from kelvin.model import block_hamiltonian
        blk = block_hamiltonian(p, scheme, bath_r, k=10)
        s = fock.averaged_cycle_map(blk, 20.0)
        rho_ss, alpha_map = fock.steady_state(s)
        rho = fock.most_excited_density(False)
        cycles, dist = [], []
        for n in range(40):
            rho = apply_transfer(s, rho)
            if n >= 5:
                cycles.append(n + 1)
                dist.append(trace_norm(rho - rho_ss))
        alpha_fit = oracles.rate_from_decay(cycles, dist)
        assert abs(alpha_fit - alpha_map) <= 0.01 * alpha_map

    def test_noisy_tail_rejected(self):
        with pytest.raises(FitQualityError):
            oracles.rate_from_decay(np.arange(20), np.abs(np.sin(np.arange(20)) + 1.1))

    def test_growth_rejected(self):
        with pytest.raises(FitQualityError):
            oracles.rate_from_decay(np.arange(10), np.exp(0.3 * np.arange(10)))


class TestKaleidoscope:
    def test_single_mode_equality(self):
        a = fock.vacuum_density(False)
        b = oracles.maximally_mixed_density(False)
        d = trace_norm(a - b)
        global_d = oracles.product_state_distance([a], [b])
        assert global_d == pytest.approx(d, abs=1e-12)
        assert global_d <= d + 1e-9

    def test_one_differing_factor(self):
        tau = oracles.maximally_mixed_density(False)
        rho = fock.vacuum_density(False)
        sig = fock.most_excited_density(False)
        global_d = oracles.product_state_distance([tau, rho], [tau, sig])
        assert global_d == pytest.approx(trace_norm(rho - sig), abs=1e-12)
        assert global_d <= trace_norm(rho - sig) + 1e-9

    def test_holds_along_trajectory(self):
        """True product-state distance vs the per-mode sum on a small chain."""
        p = ModelParams(6, 1.0)
        scheme = CouplingScheme.local(1.0, 1.0, 0.05)
        bath_f = BathSpec(1.0, 4.0)
        sched = pr.make_schedule({"kind": "single"}, p, bath_f, 0)
        states = oracles.steady_blocks(p, scheme, bath_f, {"kind": "single"})
        traj = pr.run_trajectory(p, scheme, sched, n_global_cycles=100,
                                 snapshot_stride=10)
        # rebuild the per-mode states at each snapshot to measure distances
        blocks = [fock.most_excited_density(k in (0, 3)) for k in range(4)]
        maps = [fock.exact_cycle_map(
            block_hamiltonian(p, scheme, bath_f, k=k), 4.0)
            for k in range(4)]
        for cycle in range(1, 101):
            blocks = [apply_transfer(maps[k], blocks[k]) for k in range(4)]
            if cycle % 10 == 0:
                per_mode = [trace_norm(blocks[k] - states[k]) for k in range(4)]
                global_d = oracles.product_state_distance(blocks, states)
                assert global_d <= sum(per_mode) + 1e-9


class TestSteadyReport:
    def test_one_block_build_per_frequency(self, monkeypatch):
        """CM builds each schedule frequency's blocks as one stack."""
        calls = []

        def counted(*args, **kwargs):
            calls.append(args[3])
            return block_hamiltonian(*args, **kwargs)

        monkeypatch.setattr(pr, "block_hamiltonian", counted)
        p = ModelParams(200, math.pi / 3)
        pr.steady_report(p, CouplingScheme.local(1.0, 1.0, 1e-2), BathSpec(1.0, 20.0),
                         {"kind": "multifreq", "R": 3, "L": 1}, engine="cm")
        assert len(calls) == 3
        assert all(np.array_equal(ks, np.arange(101)) for ks in calls)

    def test_fidelity_and_energy_consistency(self, small_params, local_scheme, bath):
        rep = pr.steady_report(small_params, local_scheme, bath, {"kind": "single"})
        assert 0.0 <= rep.fidelity <= 1.0
        assert rep.max_residual <= 1e-10
        assert np.all(np.isfinite(rep.mode_energy))

    def test_engines_agree_on_fixed_points(self, small_params, local_scheme, bath):
        for noise in (an.NoiseSpec.none(),
                      an.NoiseSpec.depolarizing(1e-3)):
            rf = pr.steady_report(small_params, local_scheme, bath,
                                  {"kind": "single"}, noise=noise)
            rc = pr.steady_report(small_params, local_scheme, bath,
                                  {"kind": "single"}, noise=noise, engine="cm")
            assert np.max(np.abs(rf.mode_energy - rc.mode_energy)) <= 1e-9

    @pytest.mark.parametrize("g", [1e-5, 1e-6])
    def test_weakly_attracting_fixed_points_are_unique(self, g):
        """Gaps of O(g^2) ~ 1e-12 are not a degenerate unit eigenvalue."""
        p = ModelParams(40, math.pi / 3)
        scheme = CouplingScheme.local(1.0, 1.0, g)
        bath_w = BathSpec(1.0, 20.0)
        rf = pr.steady_report(p, scheme, bath_w, {"kind": "single"}, engine="fock")
        rc = pr.steady_report(p, scheme, bath_w, {"kind": "single"}, engine="cm")
        assert rf.max_residual <= 1e-10 and rc.max_residual <= 1e-10
        np.testing.assert_allclose(rf.alpha, rc.alpha, rtol=1e-2)
        # the fixed point's condition number is ~1/alpha, so the engines agree
        # to a few machine epsilons over the gap (in units of eps_k)
        bound = 50 * np.finfo(float).eps * rc.epsilon / rc.alpha
        assert np.all(np.abs(rf.mode_energy - rc.mode_energy) <= bound)

    @pytest.mark.parametrize("engine", ["fock", "cm"])
    @pytest.mark.parametrize("kind", ["single", "randomized"])
    def test_engines_agree_a_fixed_point_is_missing(self, local_scheme, bath, engine, kind):
        """With dsp=True a mode of this chain never cools, so it has no unique
        fixed point; both engines must say so rather than return a state
        (such as the maximally mixed one)."""
        with pytest.raises(NonUniqueFixedPoint):
            pr.steady_report(ModelParams(8, 0.3), local_scheme, bath,
                             {"kind": kind, "L": 10}, engine=engine, dsp=True)

    def test_engines_agree_on_the_residual_verdict(self):
        """A trace-preserving map that feeds one off-diagonal entry from the
        conserved entry and lets it decay at 1e-13, its conjugate partner at
        1/2, has an isolated solution of 1e13 in that entry, which does not
        preserve Hermiticity; hermitized it misses T x = x by ~2.5e12, and
        both engines refuse it."""
        t_cm = np.diag([1.0, 0.5, 1.0 - 1e-13, 0.5, 0.5]).astype(complex)
        t_cm[2, 0] = 1.0  # gamma_01 <- the conserved 1
        t_fock = np.diag([0.0, 1.0 - 1e-13] + [0.5] * 6).astype(complex)
        t_fock[0, [0, 3, 4, 7]] = 1.0  # every population flows into rho_00
        t_fock[[3, 4, 7], [3, 4, 7]] = 0.0
        t_fock[1, 0] = 1.0  # the even block's rho_01 <- rho_00
        for engine, t in ((cm, t_cm), (fock, t_fock)):
            with pytest.raises(NonUniqueFixedPoint) as exc:
                engine.fixed_points(t[None])
            assert exc.value.eigenspace_dim == 1, engine.__name__

    @pytest.mark.parametrize("kind", ["single", "randomized"])
    def test_gapless_edge_mode_has_a_fixed_point(self, local_scheme, bath, kind):
        """At theta = pi/4 the k = N/2 edge has eps = 0, and its CM cycle map
        keeps a unit eigenvalue on the unphysical <a a> entries; the fixed
        point and the cooling rate are those of the physical direction."""
        p = ModelParams(8, math.pi / 4)
        sched = {"kind": kind, "L": 10}
        rf = pr.steady_report(p, local_scheme, bath, sched, engine="fock")
        rc = pr.steady_report(p, local_scheme, bath, sched, engine="cm")
        assert rc.epsilon[-1] == 0.0
        np.testing.assert_allclose(rc.alpha, rf.alpha, rtol=1e-10)
        assert np.max(np.abs(rf.mode_energy - rc.mode_energy)) <= 1e-12
        # edges are solved on diag(1, -1) alone, so no <a a> entry appears
        states = oracles.steady_blocks(p, local_scheme, bath, sched, engine="cm")
        for gamma in (states[0], states[-1]):
            assert gamma[0, 1] == 0.0 and gamma[1, 0] == 0.0

    # (case, params, scheme, bath, noise, dsp, schedule kinds, expected outcome)
    EXISTENCE_GRID = [
        ("g=0", ModelParams(8, 0.3), CouplingScheme.local(1.0, 1.0, 0.0),
         BathSpec(1.1, 4.3), an.NoiseSpec.none(), False, ("single", "randomized"),
         "NonUniqueFixedPoint"),
        ("dsp non-cooling mode", ModelParams(8, 0.3), CouplingScheme.local(1.0, 1.0, 0.05),
         BathSpec(1.1, 4.3), an.NoiseSpec.none(), True, ("single", "randomized"),
         "NonUniqueFixedPoint"),
        ("g=1e-6", ModelParams(40, math.pi / 3), CouplingScheme.local(1.0, 1.0, 1e-6),
         BathSpec(1.0, 20.0), an.NoiseSpec.none(), False, ("single", "randomized"),
         "returns"),
        ("depolarizing", ModelParams(8, 0.3), CouplingScheme.local(1.0, 1.0, 0.05),
         BathSpec(1.1, 4.3), an.NoiseSpec.depolarizing(1e-3), False,
         ("single", "randomized"), "returns"),
        ("depolarizing g=0", ModelParams(8, 0.3), CouplingScheme.local(1.0, 1.0, 0.0),
         BathSpec(1.1, 4.3), an.NoiseSpec.depolarizing(1e-3), False,
         ("single", "randomized"), "returns"),
        ("finite_env", ModelParams(8, 0.3), CouplingScheme.local(1.0, 1.0, 0.05),
         BathSpec(1.1, 4.3), an.NoiseSpec.finite_env(0.01, 0.5, 0.0), False,
         ("single",), "returns"),
        ("finite_env decoupled", ModelParams(8, 0.3), CouplingScheme.local(1.0, 1.0, 0.0),
         BathSpec(1.1, 4.3), an.NoiseSpec.finite_env(0.0, 0.5, 0.0), False,
         ("single",), "NonUniqueFixedPoint"),
    ]

    @pytest.mark.parametrize("case", EXISTENCE_GRID, ids=[c[0] for c in EXISTENCE_GRID])
    def test_engines_agree_on_existence(self, case):
        """Both engines raise NonUniqueFixedPoint, or both return a state."""
        _, p, scheme, bath_c, noise, dsp, kinds, expected = case
        for kind in kinds:
            outcomes = {}
            for engine in ("fock", "cm"):
                try:
                    pr.steady_report(p, scheme, bath_c, {"kind": kind, "L": 10},
                                     noise=noise, engine=engine, dsp=dsp)
                    outcomes[engine] = "returns"
                except NonUniqueFixedPoint:
                    outcomes[engine] = "NonUniqueFixedPoint"
            assert outcomes == {"fock": expected, "cm": expected}, kind

    def test_cm_finite_env_states_match_single_mode_solve(self, small_params,
                                                          local_scheme, bath):
        """The stacked CM finite-environment maps give, mode by mode, the
        fixed points of the cycle map with the bath and both environment
        injections, its A-blocks cut from a dense propagator."""
        noise = an.NoiseSpec.finite_env(0.01, 0.5, 0.3)
        states = oracles.steady_blocks(small_params, local_scheme, bath, {"kind": "single"},
                                       noise=noise, engine="cm")
        env = noise.env
        for k in range(small_params.N // 2 + 1):
            blk = block_hamiltonian(small_params, local_scheme, bath, k, env=env)
            u = expm(-1j * blk.generator * bath.cycle_time_mean)
            k_s = np.kron(u[:2, :2], u[:2, :2].conj())
            vac = cm.vacuum_cm().reshape(-1)
            inj = sum(w * np.kron(a, a.conj()) @ vac
                      for w, a in ((1.0, u[:2, 2:4]), (noise.p_e, u[:2, 4:6]),
                                   (noise.p_e, u[:2, 6:8])))
            if k in (0, small_params.N // 2):
                # edges live on the diag(1, -1) direction, an eigenvector of K
                v = np.array([1.0, 0.0, 0.0, -1.0]) / math.sqrt(2.0)
                ref = (v @ inj) / (1.0 - v @ k_s @ v) * v
            else:
                ref = np.linalg.solve(np.eye(4) - k_s, inj)
            ref = ref.reshape(2, 2)
            assert np.max(np.abs(states[k] - ref)) <= 1e-12, k

    @pytest.mark.parametrize("sched, noise", [
        ({"kind": "multifreq", "R": 2, "L": 10}, an.NoiseSpec.none()),
        ({"kind": "single"}, an.NoiseSpec.depolarizing(1e-3)),
    ], ids=["multifreq", "depolarizing"])
    def test_fock_states_are_the_oracle_fixed_points(self, small_params, local_scheme,
                                                     bath, sched, noise):
        """The stacked Fock pipeline returns exactly the fixed state of the
        per-frequency cycle maps composed in frequency order on the physical
        sector, and the report's mode energies are those of these states."""
        rep = pr.steady_report(small_params, local_scheme, bath, sched, noise=noise,
                               engine="fock")
        states = oracles.steady_blocks(small_params, local_scheme, bath, sched, noise=noise)
        deltas = pr.schedule_frequencies(sched, small_params, bath)
        t = bath.cycle_time_mean
        _, eps, _, wts = mode_grid(small_params)
        for k in range(small_params.N // 2 + 1):
            assert fock.block_energy(states[k], eps[k], wts[k])[0] == rep.mode_energy[k], k
            total = None
            for delta_r in deltas:
                blk = block_hamiltonian(small_params, local_scheme, BathSpec(delta_r, t), k)
                m = (fock.averaged_cycle_map(blk, t) if sched["kind"] != "single"
                     else fock.exact_cycle_map(blk, t, noise.kappa))
                total = m if total is None else m @ total
            rho, alpha = fock.steady_state(total)
            assert np.array_equal(states[k], rho), k
            assert rep.alpha[k] == alpha / len(deltas), k

    def test_scalability_of_tabulated_parameters(self):
        """Couplings tuned at N=20 stay effective at N=200 away from the
        critical window."""
        from kelvin.repro import _target_fig_scalability
        res = _target_fig_scalability()
        assert res.passed, [a.__dict__ for a in res.assertions]


# three chains of one N and cycle time, each at its own theta and bath frequency
_STACK_CASES = [(ModelParams(4, theta), BathSpec(delta, 4.3))
                for theta, delta in ((0.4, 0.9), (0.9, 1.1), (1.3, 1.3))]
_STACK_SCHEME = CouplingScheme.local(1.0, 0.5, g=0.05)


class TestSteadyReports:
    """`steady_reports` stacks its cases along the modes of each group of
    `mode_groups`; each of its reports is the case's own report, bit for bit."""

    @pytest.mark.parametrize("dsp", [False, True])
    @pytest.mark.parametrize("sched", list(_SCHEDULES))
    @pytest.mark.parametrize("noise", list(_NOISES))
    @pytest.mark.parametrize("engine", ["fock", "cm"])
    def test_each_report_is_the_one_case_report(self, engine, noise, sched, dsp):
        kwargs = dict(noise=_NOISES[noise], engine=engine, dsp=dsp)
        reports = pr.steady_reports(_STACK_CASES, _STACK_SCHEME, _SCHEDULES[sched], **kwargs)
        assert len(reports) == len(_STACK_CASES)
        for (params, bath), rep in zip(_STACK_CASES, reports):
            one = pr.steady_report(params, _STACK_SCHEME, bath, _SCHEDULES[sched], **kwargs)
            for name in ("mode_energy", "mode_relative_energy", "alpha", "energy",
                         "relative_energy", "fidelity", "max_residual"):
                assert np.array_equal(getattr(rep, name), getattr(one, name),
                                      equal_nan=True), (params.theta, name)

    @pytest.mark.parametrize("cases", [
        [(ModelParams(8, 0.4), BathSpec(1.0, 4.3)), (ModelParams(12, 0.9), BathSpec(1.0, 4.3))],
        [(ModelParams(8, 0.4), BathSpec(1.0, 4.3)), (ModelParams(8, 0.9), BathSpec(1.0, 4.0))],
    ], ids=["N", "cycle_time"])
    def test_cases_of_another_size_or_cycle_time_are_rejected(self, cases):
        with pytest.raises(ValueError, match="one N and one cycle time"):
            pr.steady_reports(cases, _STACK_SCHEME, {"kind": "single"})

    def test_cases_with_other_frequency_counts_are_rejected(self, monkeypatch):
        """One descriptor gives every case as many frequencies, so this takes
        a stand-in rule that drops the first case's second frequency."""
        real = pr.schedule_frequencies
        monkeypatch.setattr(pr, "schedule_frequencies",
                            lambda d, p, b: real(d, p, b)[:1 if p.theta < 0.5 else None])
        with pytest.raises(ValueError):
            pr.steady_reports(_STACK_CASES, _STACK_SCHEME, _SCHEDULES["multifreq"])

    @pytest.mark.parametrize("engine", ["fock", "cm"])
    def test_a_case_without_a_fixed_point_fails_the_stack(self, local_scheme, bath, engine):
        """The non-cooling chain of `test_engines_agree_a_fixed_point_is_missing`
        (dsp=True, N = 8, theta = 0.3) fails the stack it is solved in."""
        cases = [(ModelParams(8, theta), bath) for theta in (0.9, 0.3, 1.3)]
        with pytest.raises(NonUniqueFixedPoint):
            pr.steady_reports(cases, local_scheme, {"kind": "single"}, engine=engine, dsp=True)


class TestComposedMaps:
    """`_global_maps` folds each subcycle's map into the running product as
    it is built; on Fock the product is the per-mode `exact_cycle_map`s
    composed in schedule order, bit for bit, and the chain's reports do not
    depend on how `mode_groups` stacks the modes.  At N = 80 the 39 pairs
    span two Fock groups; environment pairs (d = 256) are one per group, so
    the first three span three."""

    PARAMS = ModelParams(80, math.pi / 3)
    SCHEME = CouplingScheme.local(1.0, 0.5, g=0.05)
    BATH = BathSpec(1.0, 4.0)
    NOISES = {"none": an.NoiseSpec.none(), "depolarizing": an.NoiseSpec.depolarizing(1e-4),
              "finite_env": an.NoiseSpec.finite_env(0.02, 0.7, 0.1)}
    # two randomized-time subcycles in the ensemble limit: averaged maps
    AVERAGED = [((1.0,), None), ((1.3,), None)]

    def _groups(self, engine, noise):
        groups = pr.ENGINES[engine].mode_groups(self.PARAMS.N // 2, self.NOISES[noise].env)
        return groups[:4] if engine == "fock" and noise == "finite_env" else groups

    def _maps(self, engine, noise, ks):
        sched = pr.make_schedule({"kind": "multifreq", "R": 2 if noise == "finite_env" else 3,
                                  "L": 2, "freq_rule": "grid"}, self.PARAMS, self.BATH, 5)
        return sched, pr._global_maps([self.PARAMS], self.SCHEME, self.NOISES[noise], False,
                                      pr.ENGINES[engine], ks, self.BATH.cycle_time_mean,
                                      [((d,), t) for d, t in sched.subcycles])

    @pytest.mark.parametrize("noise", ["depolarizing", "finite_env"])
    @pytest.mark.parametrize("engine", ["fock", "cm"])
    def test_one_mode_groups_give_the_same_bits(self, engine, noise, monkeypatch):
        """Steady reports and trajectories with every mode in a group of its
        own are bit-identical to the engine's own grouping: cycle maps, fixed
        points (`_linalg.affine_fixed_points`) and stepping (`_step_snapshots`)
        give each mode the same bits in any stack.  The finite-environment
        steady report is taken at a fixed time, where Fock builds its
        environment pairs fast, and on a shorter chain: Fock stacks those
        pairs one by one anyway."""
        eng, spec = pr.ENGINES[engine], self.NOISES[noise]
        params = ModelParams(16, math.pi / 3) if noise == "finite_env" else self.PARAMS
        n2 = params.N // 2
        assert len(eng.mode_groups(n2, spec.env)) < n2 + 1
        steady_sched = {"kind": "single"} if noise == "finite_env" else \
            {"kind": "multifreq", "R": 2, "L": 2}
        sched = pr.make_schedule({"kind": "randomized", "L": 3}, params, self.BATH, 5)

        def run():
            rep = pr.steady_report(params, self.SCHEME, self.BATH, steady_sched, noise=spec,
                                   engine=engine)
            traj = pr.run_trajectory(params, self.SCHEME, sched, noise=spec, engine=engine,
                                     n_global_cycles=20000, snapshot_stride=1000)
            return rep, traj

        default = run()
        monkeypatch.setattr(eng, "mode_groups",
                            lambda n2, env: [np.array([k]) for k in range(n2 + 1)])
        (rep, traj), (rep_1, traj_1) = default, run()
        for name in ("mode_energy", "mode_relative_energy", "alpha", "energy",
                     "relative_energy", "fidelity", "max_residual"):
            assert np.array_equal(getattr(rep, name), getattr(rep_1, name), equal_nan=True), name
        assert traj.converged_at is not None and traj.converged_at == traj_1.converged_at
        assert len(traj.snapshots) == len(traj_1.snapshots)
        for snap, snap_1 in zip(traj.snapshots, traj_1.snapshots):
            assert (snap.cycle, snap.energy, snap.relative_energy, snap.fidelity) == \
                (snap_1.cycle, snap_1.energy, snap_1.relative_energy, snap_1.fidelity)
            assert np.array_equal(snap.mode_energies, snap_1.mode_energies)

    @pytest.mark.parametrize("noise", ["depolarizing", "finite_env"])
    def test_fock_product_is_the_composed_exact_maps(self, noise):
        spec = self.NOISES[noise]
        for ks in self._groups("fock", noise):
            sched, k_tot = self._maps("fock", noise, ks)
            for k in ks:
                product = None
                for delta_r, t_m in sched.subcycles:
                    blk = block_hamiltonian(self.PARAMS, self.SCHEME,
                                            BathSpec(delta_r, self.BATH.cycle_time_mean), k,
                                            env=spec.env)
                    t_s = fock.exact_cycle_map(blk, t_m, spec.kappa)
                    product = t_s if product is None else t_s @ product
                assert np.array_equal(k_tot[np.flatnonzero(ks == k)[0]], product), k

    def _averaged_maps(self, engine, noise, ks):
        return pr._global_maps([self.PARAMS], self.SCHEME, self.NOISES[noise], False,
                               pr.ENGINES[engine], ks, self.BATH.cycle_time_mean, self.AVERAGED)

    @pytest.mark.parametrize("noise", ["depolarizing", "finite_env", "randomized"])
    def test_cm_maps_and_powers_keep_the_conserved_row(self, noise):
        """Composed CM transfers and their powers keep the first row (1, 0, 0,
        0, 0) bit for bit: gain/loss damping (kappa > 0 on the fixed-time
        schedule, and on time-averaged maps) scales K and c, never the 1."""
        ks = cm.mode_groups(self.PARAMS.N // 2, None)[0]
        if noise == "randomized":
            k_tot = self._averaged_maps("cm", "depolarizing", ks)
        else:
            k_tot = self._maps("cm", noise, ks)[1]
        for power in (1, 2, 7, 100):
            assert np.all(np.linalg.matrix_power(k_tot, power)[:, 0] == np.eye(5)[0]), power

    @pytest.mark.parametrize("noise, averaged", [
        ("depolarizing", False), ("finite_env", False), ("none", True), ("depolarizing", True),
        ("finite_env", True)])
    def test_fock_maps_conserve_the_trace(self, noise, averaged):
        """tau^T K = tau^T, tau marking the populations of the physical sector,
        to the rounding of the maps: one pair map conserves it to about 15
        eps, and these six- and four-subcycle products to 49 and 14 eps, and
        the products of two averaged subcycles to 27 eps (9 eps with
        environments)."""
        for ks in self._groups("fock", noise):
            if averaged:
                n_sub, k_tot = len(self.AVERAGED), self._averaged_maps("fock", noise, ks)
            else:
                sched, k_tot = self._maps("fock", noise, ks)
                n_sub = len(sched.subcycles)
            ds = 2 if ks[0] == 0 else 4
            tau = fock._physical_sector(ds) % (ds + 1) == 0
            bound = 16 * n_sub * np.finfo(float).eps
            assert np.max(np.abs(tau @ k_tot - tau)) <= bound

    @pytest.mark.parametrize("engine, n, bound_mb", [("cm", 400, 3.0), ("fock", 100, 1.5)])
    def test_plan_report_holds_one_frequency_at_a_time(self, engine, n, bound_mb):
        """The paper's plan (R = N/5 frequencies) as a steady report: each
        frequency's eigenbasis is dropped once its map is folded in.  The
        tracemalloc peaks (numpy 2.4.6, CPython 3.11) are 1.88 MB (CM, N=400)
        and 0.58 MB (Fock, N=100); holding every frequency's maps, as the
        dict of maps did, took 10.9 and 0.68 MB, and keeping every
        frequency's generator open takes 19.1 and 4.6 MB."""
        import tracemalloc

        plan = an.gs_cooling_plan(n, math.pi / 3)
        args = (ModelParams(n, math.pi / 3), CouplingScheme.local(1.0, 1.0, plan.g),
                BathSpec(1.0, plan.t), {"kind": "multifreq", "R": plan.R, "L": 1})
        pr.steady_report(*args, engine=engine)  # warm the caches
        tracemalloc.start()
        try:
            pr.steady_report(*args, engine=engine)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound_mb * 1e6


class TestFockReportMemory:
    """Chunked Fock map building holds no more memory than one mode at a time.

    The bounds are the tracemalloc peaks of the same calls, after the same
    warm-up call, on the builder that formed one propagator per quadrature
    node and mode (numpy 2.4.6, CPython 3.11): 3.265 MB and 7.502 MB.

    A trajectory holds one chunk's eigenbasis per open frequency and the
    running products.  On the benchmark's two trajectory schedules the peaks
    were 1.155 and 1.129 MB with 4-pair chunks and a dict of every map,
    1.120 and 1.446 MB with 16-pair chunks composed as they are built (the
    multifreq run keeps its three frequencies' eigenbases open), and are
    0.677 and 1.217 MB with 32-pair chunks of parity blocks and physical
    sectors; the bound is 2.0 MB.
    """

    @pytest.mark.parametrize("case, parent_peak_mb", [
        ("randomized_depolarizing", 3.265), ("single_finite_env", 7.502)])
    def test_peak_no_higher_than_per_node_builder(self, case, parent_peak_mb):
        import tracemalloc

        if case == "randomized_depolarizing":
            args = (ModelParams(200, math.pi / 3), CouplingScheme.local(1.0, 1.0, g=1e-3),
                    BathSpec(1.0, 20.0), {"kind": "randomized", "L": 10},
                    an.NoiseSpec.depolarizing(1e-7))
        else:
            args = (ModelParams(12, math.pi / 3), CouplingScheme.local(1.0, 1.0, g=0.05),
                    BathSpec(1.0, 5.0), {"kind": "single"},
                    an.NoiseSpec.finite_env(0.02, 0.7, 0.1))
        *head, noise = args
        pr.steady_report(*head, noise=noise, engine="fock")  # warm the caches
        tracemalloc.start()
        try:
            pr.steady_report(*head, noise=noise, engine="fock")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= parent_peak_mb * 1e6

    @pytest.mark.parametrize("descriptor", [
        {"kind": "randomized", "L": 10},
        {"kind": "multifreq", "R": 3, "L": 4, "freq_rule": "grid"}],
        ids=["randomized", "multifreq"])
    def test_trajectory_peak(self, descriptor):
        import tracemalloc

        params, bath = ModelParams(200, math.pi / 3), BathSpec(1.0, 10.0)
        sched = pr.make_schedule(descriptor, params, bath, 7)

        def run():
            pr.run_trajectory(params, CouplingScheme.local(1.0, 1.0, g=1e-2), sched,
                              engine="fock", n_global_cycles=100, snapshot_stride=10)

        run()  # warm the caches
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.0e6
