import json
import math

import numpy as np
import pytest

from kelvin import cli, repro


def write_cfg(tmp_path, payload, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(payload))
    return str(p)


def base_model(n=12, theta=0.9):
    return {"N": n, "theta": theta}


def base_scheme(g=0.05):
    return {"nn": 0, "lambda": {"0": 1.0}, "mu": {"0": 1.0}, "g": g}


STEADY_CFG = {
    "model": base_model(),
    "scheme": base_scheme(),
    "bath": {"delta": 1.1, "cycle_time": 4.3},
    "schedule": {"kind": "single"},
    "noise": {"kind": "none"},
}


class TestConfigValidation:
    def test_unknown_top_key(self, tmp_path):
        cfg = write_cfg(tmp_path, {"model": base_model(), "bogus": 1})
        assert cli.main(["spectrum", "--config", cfg, "--out", str(tmp_path / "o")]) == 2

    def test_unknown_section_key(self, tmp_path):
        cfg = write_cfg(tmp_path, {"model": {"N": 12, "theta": 0.9, "x": 1}})
        assert cli.main(["spectrum", "--config", cfg, "--out", str(tmp_path / "o")]) == 2

    def test_missing_required_section(self, tmp_path):
        cfg = write_cfg(tmp_path, {"model": base_model()})
        assert cli.main(["steady", "--config", cfg, "--out", str(tmp_path / "o")]) == 2

    def test_no_physics_defaults(self, tmp_path):
        payload = dict(STEADY_CFG)
        payload["bath"] = {"delta": 1.1}  # cycle_time missing
        cfg = write_cfg(tmp_path, payload)
        assert cli.main(["steady", "--config", cfg, "--out", str(tmp_path / "o")]) == 2

    def test_invalid_json(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{nope")
        assert cli.main(["spectrum", "--config", str(p), "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("noise", [
        {"kind": "none", "kappa": 0.5, "p_e": 0.3},
        {"kind": "none", "kappa": 0.5},
        {"kind": "none", "p_e": 0.3},
        {"kind": "depolarizing", "kappa": 1e-3, "p_e": 0.3},
        {"kind": "finite_env", "kappa_prime": 1e-3, "delta_e": 0.7, "p_e": 0.1, "kappa": 1e-3},
    ], ids=["none+kappa+p_e", "none+kappa", "none+p_e", "depolarizing+p_e", "finite_env+kappa"])
    def test_noise_key_of_another_kind(self, tmp_path, noise):
        cfg = write_cfg(tmp_path, {**STEADY_CFG, "noise": noise})
        assert cli.main(["steady", "--config", cfg, "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("mode", ["Dsp", "DSP", "", None, 1])
    def test_optimize_mode(self, tmp_path, mode):
        payload = {"model": base_model(), "scheme": base_scheme(),
                   "optimize": {"objective": "theta_specific", "mode": mode, "budget": 10}}
        cfg = write_cfg(tmp_path, payload)
        assert cli.main(["optimize", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert not (tmp_path / "o" / "optimum.json").exists()

    def test_optimizer_errors_are_not_config_errors(self, tmp_path, monkeypatch):
        """Only the section is parsed as config: a ValueError from the search
        itself propagates."""
        def failing(*args, **kwargs):
            raise ValueError("numerics")

        monkeypatch.setattr(cli.op, "optimize", failing)
        payload = {"model": base_model(), "scheme": base_scheme(),
                   "optimize": {"objective": "theta_specific", "budget": 10}}
        cfg = write_cfg(tmp_path, payload)
        with pytest.raises(ValueError, match="numerics"):
            cli.main(["optimize", "--config", cfg, "--out", str(tmp_path / "o")])

    @pytest.mark.parametrize("key", ["dsp", "cross_check", "wide"])
    @pytest.mark.parametrize("value", ["false", "true", 0, 1, None])
    def test_run_flags_are_booleans(self, tmp_path, key, value):
        payload = {**TestTrajectory.CFG, "run": {"cycles": 3, key: value}}
        cfg = write_cfg(tmp_path, payload)
        assert cli.main(["trajectory", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        if key == "dsp":
            cfg = write_cfg(tmp_path, {**STEADY_CFG, "run": {"dsp": value}}, name="s.json")
            assert cli.main(["steady", "--config", cfg, "--out", str(tmp_path / "s")]) == 2

    @pytest.mark.parametrize("command, section, value", [
        ("steady", "schedule", {"kind": "bogus"}),
        ("rates", "schedule", {"kind": "bogus"}),
        ("steady", "schedule", {"kind": "multifreq", "R": 0, "L": 1}),
        ("trajectory", "schedule", {"kind": "randomized", "L": 0}),
        ("trajectory", "run", {"cycles": 3, "initial": "hot"}),
        ("trajectory", "run", {"cycles": 3, "snapshot_stride": 0}),
        ("trajectory", "run", {"snapshot_stride": 1}),
        ("trajectory", "run", {"cycles": -5}),
        ("optimize", "optimize", {"objective": "theta_specific", "budget": 0}),
        ("optimize", "optimize", {"objective": "theta_specific", "budget": "many"}),
        ("optimize", "optimize", {"objective": "theta_specific", "restarts": "two"}),
        ("optimize", "optimize", {"objective": "theta_specific", "restarts": -4}),
        ("optimize", "optimize", {"objective": "theta_specific", "init": 3}),
        ("optimize", "optimize", {"objective": "theta_specific", "init": {"delta": -1}}),
        ("optimize", "optimize", {"objective": "theta_specific", "init": {"dt": 3.0}}),
        ("optimize", "optimize", {"budget": 10}),
        # counts are integers: a fractional one is rejected, not truncated
        ("trajectory", "model", base_model(12.9)),
        ("trajectory", "schedule", {"kind": "randomized", "L": 2.7}),
        ("trajectory", "run", {"cycles": 5.9}),
        ("trajectory", "run", {"cycles": 5, "snapshot_stride": 2.5}),
        ("trajectory", "seed", 1.5),
        ("trajectory", "seed", "abc"),
        ("steady", "bath", {"delta": {"mode_k": 2.5}, "cycle_time": 4.3}),
        ("steady", "schedule", {"kind": "multifreq", "R": 2.5, "L": 1}),
        ("steady", "schedule", {"kind": "multifreq", "R": 2, "L": 1,
                                "freq_rule": "mode_energies", "k_modes": [1.5, 2]}),
        ("optimize", "optimize", {"objective": "theta_specific", "budget": 10.5}),
        ("optimize", "optimize", {"objective": "theta_specific", "restarts": 2.5}),
    ], ids=["steady-kind", "rates-kind", "steady-R0", "trajectory-L0", "trajectory-initial",
            "trajectory-stride0", "trajectory-no-cycles", "trajectory-negative-cycles",
            "optimize-budget0", "optimize-budget-string", "optimize-restarts-string",
            "optimize-restarts-negative",
            "optimize-init-number", "optimize-init-negative-delta", "optimize-init-unknown-key",
            "optimize-no-objective", "trajectory-fractional-N", "trajectory-fractional-L",
            "trajectory-fractional-cycles", "trajectory-fractional-stride",
            "trajectory-fractional-seed", "trajectory-string-seed", "steady-fractional-mode-k",
            "steady-fractional-R", "steady-fractional-k-modes", "optimize-fractional-budget",
            "optimize-fractional-restarts"])
    def test_bad_schedule_and_run_inputs(self, tmp_path, capsys, command, section, value):
        base = TestTrajectory.CFG if command == "trajectory" else STEADY_CFG
        if command == "rates":  # `rates` reads no noise section
            base = {key: v for key, v in base.items() if key != "noise"}
        cfg = write_cfg(tmp_path, {**base, section: value})
        assert cli.main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert json.loads(capsys.readouterr().err.splitlines()[-1])["error"] == "config"

    @pytest.mark.parametrize("command, section, value", [
        ("rates", "noise", {"kind": "bogus"}),
        ("rates", "noise", {"kind": "depolarizing", "kappa": 0.5}),
        ("rates", "run", {"dsp": True}),
        ("spectrum", "noise", {"kind": "none"}),
        ("optimize", "bath", {"delta": 1.1, "cycle_time": 4.3}),
        ("steady", "run", {"cross_check": True, "initial": "bogus", "cycles": 5}),
        ("steady", "run", {"dsp": False, "wide": True}),
    ], ids=["rates-bogus-noise", "rates-depolarizing", "rates-run", "spectrum-noise",
            "optimize-bath", "steady-trajectory-run-keys", "steady-wide"])
    def test_config_a_command_does_not_read(self, tmp_path, capsys, command, section, value):
        """Each command takes only the sections and run keys it reads: the
        rest would be ignored without a word."""
        base = {"spectrum": {"model": base_model()},
                "optimize": {"model": base_model(), "scheme": base_scheme(),
                             "optimize": {"objective": "theta_specific", "budget": 10}},
                "rates": {key: v for key, v in STEADY_CFG.items() if key != "noise"},
                "steady": STEADY_CFG}[command]
        out = tmp_path / "o"
        assert cli.main([command, "--config", write_cfg(tmp_path, base), "--out", str(out)]) == 0
        cfg = write_cfg(tmp_path, {**base, section: value}, name="unread.json")
        assert cli.main([command, "--config", cfg, "--out", str(tmp_path / "x")]) == 2
        assert json.loads(capsys.readouterr().err.splitlines()[-1])["error"] == "config"

    def test_unknown_engine(self, tmp_path):
        cfg = write_cfg(tmp_path, {**STEADY_CFG, "engine": "bogus"})
        assert cli.main(["steady", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        cfg = write_cfg(tmp_path, STEADY_CFG, name="ok.json")
        with pytest.raises(SystemExit) as exc:
            cli.main(["steady", "--config", cfg, "--out", str(tmp_path / "o"),
                      "--engine", "bogus"])
        assert exc.value.code == 2


class TestSpectrum:
    def test_outputs(self, tmp_path):
        cfg = write_cfg(tmp_path, {"model": {"N": 4, "theta": math.pi / 2}})
        out = tmp_path / "o"
        assert cli.main(["spectrum", "--config", cfg, "--out", str(out)]) == 0
        rows = (out / "spectrum.csv").read_text().strip().split("\n")
        assert rows[0] == "k,epsilon_k,phi_k,weight"
        assert len(rows) == 4  # header + k = 0, 1, 2
        summary = json.loads((out / "summary.json").read_text())
        assert summary["E_GS"] == pytest.approx(-2.0)
        assert "config_hash" in summary and "version" in summary

    def test_quarter_mode_row_present(self, tmp_path):
        cfg = write_cfg(tmp_path, {"model": {"N": 200, "theta": math.pi / 3}})
        out = tmp_path / "o2"
        cli.main(["spectrum", "--config", cfg, "--out", str(out)])
        rows = (out / "spectrum.csv").read_text().strip().split("\n")[1:]
        eps50 = float(rows[50].split(",")[1])
        assert eps50 == pytest.approx(1.0, abs=1e-14)

    def test_density_limit_consistency(self, tmp_path):
        cfg = write_cfg(tmp_path, {"model": {"N": 2000, "theta": 1.1}})
        out = tmp_path / "o3"
        cli.main(["spectrum", "--config", cfg, "--out", str(out)])
        s = json.loads((out / "summary.json").read_text())
        assert abs(s["E_GS"] + s["N_times_f_theta"]) <= 10.0 / 2000 * 2000


class TestSteady:
    def test_outputs_and_schema(self, tmp_path):
        cfg = write_cfg(tmp_path, STEADY_CFG)
        out = tmp_path / "s"
        assert cli.main(["steady", "--config", cfg, "--out", str(out)]) == 0
        rows = (out / "steady.csv").read_text().strip().split("\n")
        assert rows[0] == "k,epsilon_k,E_k,e_k,alpha_k,e_k_closed_form,e_k_delta"
        assert len(rows) == 8
        summary = json.loads((out / "summary.json").read_text())
        assert summary["engine"] == "fock"
        assert summary["max_residual"] <= 1e-10

    def test_closed_form_delta_small_at_weak_coupling(self, tmp_path):
        """The closed form's e_k within 5% of the exact engines', with and
        without DSP (at mu = 0.5: local unit couplings leave DSP nothing to do)."""
        cases = [
            (1.0, {"kind": "randomized", "L": 100}, False),
            (0.5, {"kind": "randomized", "L": 100}, True),
            (0.5, {"kind": "multifreq", "R": 3, "L": 100, "freq_rule": "grid"}, True),
        ]
        for i, (mu, schedule, dsp) in enumerate(cases):
            payload = {
                "model": {"N": 40, "theta": math.pi / 3},
                "scheme": {"nn": 0, "lambda": {"0": 1.0}, "mu": {"0": mu}, "g": 1e-4},
                "bath": {"delta": {"mode_fraction": 0.5}, "cycle_time": 20.0},
                "schedule": schedule,
                "noise": {"kind": "none"},
                "run": {"dsp": dsp},
            }
            cfg = write_cfg(tmp_path, payload, name=f"cfg{i}.json")
            for engine in ("fock", "cm"):
                out = tmp_path / f"sd{i}{engine}"
                assert cli.main(["steady", "--config", cfg, "--out", str(out),
                                 "--engine", engine]) == 0
                data = np.genfromtxt(out / "steady.csv", delimiter=",", skip_header=1)
                rel = np.abs(data[:, 6]) / np.abs(data[:, 5])
                assert np.nanmax(rel) <= 0.05, (schedule, dsp, engine)

    def test_identity_map_exit_code(self, tmp_path):
        payload = dict(STEADY_CFG)
        payload["scheme"] = {"nn": 0, "lambda": {"0": 1.0}, "mu": {"0": 1.0}, "g": 0.0}
        cfg = write_cfg(tmp_path, payload)
        assert cli.main(["steady", "--config", cfg, "--out", str(tmp_path / "s2")]) == 3

    @pytest.mark.parametrize("engine", ["fock", "cm"])
    def test_missing_fixed_point_exit_code(self, tmp_path, engine):
        payload = dict(STEADY_CFG, model=base_model(8, 0.3), run={"dsp": True})
        cfg = write_cfg(tmp_path, payload)
        rc = cli.main(["steady", "--config", cfg, "--out", str(tmp_path / "s3"),
                       "--engine", engine])
        assert rc == 3

    def test_engine_delta_column(self, tmp_path):
        cfg = write_cfg(tmp_path, STEADY_CFG)
        out_f = tmp_path / "sf"
        out_c = tmp_path / "sc"
        cli.main(["steady", "--config", cfg, "--out", str(out_f), "--engine", "fock"])
        cli.main(["steady", "--config", cfg, "--out", str(out_c), "--engine", "cm"])
        ef = np.genfromtxt(out_f / "steady.csv", delimiter=",", skip_header=1)
        ec = np.genfromtxt(out_c / "steady.csv", delimiter=",", skip_header=1)
        assert np.max(np.abs(ef[:, 2] - ec[:, 2])) <= 1e-9


class TestTrajectory:
    CFG = {
        "model": base_model(8),
        "scheme": base_scheme(0.01),
        "bath": {"delta": 1.0, "cycle_time": 5.0},
        "schedule": {"kind": "randomized", "L": 5},
        "noise": {"kind": "none"},
        "run": {"cycles": 30, "snapshot_stride": 10},
        "seed": 42,
    }

    def test_outputs(self, tmp_path):
        cfg = write_cfg(tmp_path, self.CFG)
        out = tmp_path / "t"
        assert cli.main(["trajectory", "--config", cfg, "--out", str(out)]) == 0
        rows = (out / "trajectory.csv").read_text().strip().split("\n")
        assert rows[0] == "cycle,E,e,F"
        first = rows[1].split(",")
        assert first[0] == "0" and float(first[2]) == pytest.approx(2.0)
        assert (out / "trajectory.svg").read_text().startswith("<svg")

    def test_bit_identical_reruns(self, tmp_path):
        cfg = write_cfg(tmp_path, self.CFG)
        out1, out2 = tmp_path / "t1", tmp_path / "t2"
        cli.main(["trajectory", "--config", cfg, "--out", str(out1)])
        cli.main(["trajectory", "--config", cfg, "--out", str(out2)])
        assert (out1 / "trajectory.csv").read_bytes() == (out2 / "trajectory.csv").read_bytes()

    def test_cross_check_mode(self, tmp_path):
        payload = json.loads(json.dumps(self.CFG))
        payload["run"]["cross_check"] = True
        payload["noise"] = {"kind": "depolarizing", "kappa": 1e-3}
        cfg = write_cfg(tmp_path, payload)
        out = tmp_path / "tc"
        assert cli.main(["trajectory", "--config", cfg, "--out", str(out)]) == 0
        s = json.loads((out / "summary.json").read_text())
        assert s["cross_check_max_dE_k"] <= 1e-9

    def test_cross_check_runs_the_other_engine(self, tmp_path, monkeypatch):
        engines = []
        run = cli.pr.run_trajectory

        def spy(*args, engine, **kwargs):
            engines.append(engine)
            return run(*args, engine=engine, **kwargs)

        monkeypatch.setattr(cli.pr, "run_trajectory", spy)
        payload = json.loads(json.dumps(self.CFG))
        payload["run"]["cross_check"] = True
        cfg = write_cfg(tmp_path, payload)
        for engine in ("fock", "cm"):
            assert cli.main(["trajectory", "--config", cfg, "--out",
                             str(tmp_path / engine), "--engine", engine]) == 0
        assert engines == ["fock", "cm", "cm", "fock"]

    def test_unsupported_combination_exit(self, tmp_path):
        """Randomized finite-environment steady reports are not implemented."""
        payload = json.loads(json.dumps(self.CFG))
        del payload["run"]  # `steady` reads no cycles or stride
        payload["noise"] = {"kind": "finite_env", "kappa_prime": 1e-3,
                            "delta_e": 0.5, "p_e": 0.0}
        cfg = write_cfg(tmp_path, payload)
        for engine in ("fock", "cm"):
            rc = cli.main(["steady", "--config", cfg, "--out",
                           str(tmp_path / f"tu-{engine}"), "--engine", engine])
            assert rc == 4

    def test_wide_format(self, tmp_path):
        payload = json.loads(json.dumps(self.CFG))
        payload["run"]["wide"] = True
        cfg = write_cfg(tmp_path, payload)
        out = tmp_path / "tw"
        cli.main(["trajectory", "--config", cfg, "--out", str(out)])
        header = (out / "trajectory.csv").read_text().split("\n")[0]
        assert header.endswith("E_k4")


class TestRates:
    def test_outputs(self, tmp_path):
        payload = {
            "model": base_model(40, math.pi / 3),
            "scheme": {"nn": 0, "lambda": {"0": 1.0}, "mu": {"0": 1.0}, "g": 1e-4},
            "bath": {"delta": {"mode_fraction": 0.5}, "cycle_time": 20.0},
            "schedule": {"kind": "randomized", "L": 100},
        }
        cfg = write_cfg(tmp_path, payload)
        out = tmp_path / "r"
        assert cli.main(["rates", "--config", cfg, "--out", str(out)]) == 0
        data = np.genfromtxt(out / "rates.csv", delimiter=",", skip_header=1)
        # resonant mode: alpha/g^2 = 4/3 t^2 + 1/2 corrections
        alpha_res = data[10, 4] / 1e-8
        assert alpha_res == pytest.approx(533.84, abs=0.1)

    def test_vanishing_rates_exit_code(self, tmp_path, capsys):
        payload = {
            "model": base_model(),
            "scheme": base_scheme(g=0.0),
            "bath": {"delta": 1.1, "cycle_time": 4.3},
            "schedule": {"kind": "single"},
        }
        cfg = write_cfg(tmp_path, payload)
        assert cli.main(["rates", "--config", cfg, "--out", str(tmp_path / "r")]) == 3
        assert json.loads(capsys.readouterr().err)["error"] == "undefined_steady_state"


class TestOptimizeCmd:
    def test_theta_specific(self, tmp_path):
        payload = {
            "model": base_model(40, math.pi / 3),
            "scheme": base_scheme(0.1),
            "optimize": {"objective": "theta_specific", "budget": 400,
                         "restarts": 2, "init": {"delta": 1.0, "t": 3.0}},
            "seed": 7,
        }
        cfg = write_cfg(tmp_path, payload)
        out = tmp_path / "o"
        assert cli.main(["optimize", "--config", cfg, "--out", str(out)]) == 0
        opt = json.loads((out / "optimum.json").read_text())
        assert opt["objective"] < 0.05
        val = json.loads((out / "validation.json").read_text())
        point = list(val["by_theta"].values())[0]
        assert abs(point["difference"]) < 0.2 * abs(point["exact_e"]) + 1e-3

    def test_validation_runs_on_the_engine(self, tmp_path):
        """The validation of the table row nn = 1 (high phase) runs on
        --engine; both engines give the same exact e to 1e-10 relative."""
        row = repro.table_rows()[1.0, "high"]
        payload = {
            "model": base_model(20, 3 * math.pi / 8),
            "scheme": {"nn": 1.0, "lambda": {str(j): v for j, v in row["lam"].items()},
                       "mu": {str(j): v for j, v in row["mu"].items()}, "g": 0.1},
            "optimize": {"objective": "phase_averaged", "phase": "high", "budget": 300,
                         "restarts": 3, "init": {"delta": row["delta"], "t": row["t"]}},
        }
        cfg = write_cfg(tmp_path, payload)
        val = {}
        for engine in ("fock", "cm"):
            out = tmp_path / engine
            assert cli.main(["optimize", "--config", cfg, "--out", str(out),
                             "--engine", engine]) == 0
            val[engine] = json.loads((out / "validation.json").read_text())
            assert val[engine]["engine"] == engine
        fock_rows, cm_rows = val["fock"]["by_theta"], val["cm"]["by_theta"]
        assert fock_rows.keys() == cm_rows.keys() and len(fock_rows) == 5
        for theta, row_f in fock_rows.items():
            assert cm_rows[theta]["analytic_e"] == row_f["analytic_e"]
            assert cm_rows[theta]["exact_e"] == pytest.approx(row_f["exact_e"], rel=1e-10)

    def test_no_finite_start_exits_5(self, tmp_path, capsys):
        """Zero couplings leave the steady state undefined at every start, so
        the search fails and the CLI reports it with exit status 5."""
        payload = {"model": base_model(12, 1.0),
                   "scheme": {"nn": 0, "lambda": {"0": 0.0}, "mu": {"0": 0.0}, "g": 0.1},
                   "optimize": {"objective": "theta_specific", "restarts": 1}}
        cfg = write_cfg(tmp_path, payload)
        assert cli.main(["optimize", "--config", cfg, "--out", str(tmp_path / "o")]) == 5
        assert json.loads(capsys.readouterr().err)["error"] == "optimization_failed"
        assert not (tmp_path / "o" / "optimum.json").exists()

    def test_dsp_smoke(self, tmp_path):
        payload = {
            "model": base_model(12, 1.3),
            "scheme": base_scheme(0.1),
            "optimize": {"objective": "theta_specific", "mode": "dsp",
                         "budget": 300, "restarts": 2,
                         "init": {"delta": 1.0, "t": 3.0}},
        }
        cfg = write_cfg(tmp_path, payload)
        assert cli.main(["optimize", "--config", cfg, "--out",
                         str(tmp_path / "od")]) == 0


class TestReproduce:
    def test_fig8_target(self, tmp_path):
        cfg = write_cfg(tmp_path, {"reproduce": {"target": "fig8"}})
        out = tmp_path / "rep"
        rc = cli.main(["reproduce", "--config", cfg, "--out", str(out)])
        report = json.loads((out / "report.json").read_text())
        names = {a["name"]: a["pass"] for a in report["assertions"]}
        # e(R=250) and monotonicity reproduce; the reference R=1 value does
        # not follow from the stated parameters (see annotations)
        assert names["fig8/e(R=250) = 0.006 +- 30%"]
        assert names["fig8/monotone non-increasing over R in {1,10,50,250}"]
        assert not names["fig8/e(R=1) = 0.025 +- 30%"]
        assert rc == 1  # failed assertion is reported through the exit code
        assert any("off-by-one" in note for note in report["annotations"])

    def test_fig2_target_passes(self):
        from kelvin import repro
        result = repro.run_target("fig2")
        assert result.passed, [(a.name, a.measured) for a in result.assertions]

    def test_fast_key_rejected(self, tmp_path):
        cfg = write_cfg(tmp_path, {"reproduce": {"target": "fig2", "fast": True}})
        rc = cli.main(["reproduce", "--config", cfg, "--out", str(tmp_path / "x")])
        assert rc == 2

    def test_unknown_target(self, tmp_path):
        cfg = write_cfg(tmp_path, {"reproduce": {"target": "fig99"}})
        rc = cli.main(["reproduce", "--config", cfg, "--out", str(tmp_path / "x")])
        assert rc == 2
