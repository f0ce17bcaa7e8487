import contextlib
import io
import json
import os
import shutil
import tempfile
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from phasediversity.cli import main
from phasediversity.experiments import (
    _write_json,
    ConfigError,
    build_instance,
    config_from_mapping,
    config_from_sources,
    initial_guess,
    iterations_to_rms,
    run_analyze_hessian,
    run_compare_methods,
    run_compare_models,
    run_single,
    run_solve,
    simulate,
)
from phasediversity.fields import field_from_csv, save_field
from phasediversity.objectives import DataMisfit, ObjectiveSpec
from phasediversity.optimizers import LINE_SEARCH_METHODS, RunTrace
from phasediversity.problems import load_instance

from conftest import read_trace


def small_config(**over):
    mapping = {"problem.n": "12", "restarts": "2", "solver.max_iters": "25"}
    mapping.update({k: str(v) for k, v in over.items()})
    return config_from_mapping(mapping)


class TestConfigParsing:
    def test_defaults(self):
        cfg = config_from_mapping({})
        assert cfg.problem_type == "zernike"
        assert cfg.n == 32
        assert cfg.defocus == (-3.0, 3.0)
        assert cfg.amplitude_plane is True
        assert cfg.model == "LS"
        assert cfg.epsilon == 1e-14
        assert cfg.solver.method == "LBFGS"
        assert cfg.solver.max_iters == 150
        assert cfg.solver.c1 == 1e-4 and cfg.solver.c2 == 0.9
        assert cfg.solver.lbfgs_memory == 2
        assert cfg.restarts == 10

    def test_text_parsing_with_comments(self, tmp_path):
        p = tmp_path / "cfg.txt"
        p.write_text("""
        # benchmark
        problem.type = vonkarman
        problem.n = 16   # small
        plan.defocus = -2,2
        solver.method = sd
        noise.snr = 10
        """)
        cfg = config_from_sources(p)
        assert cfg.problem_type == "vonkarman"
        assert cfg.n == 16
        assert cfg.defocus == (-2.0, 2.0)
        assert cfg.solver.method == "SD"
        assert cfg.snr == 10.0

    def test_unknown_key_named_in_error(self):
        with pytest.raises(ConfigError, match="unknown config key 'solver.steps'"):
            config_from_mapping({"solver.steps": "3"})

    def test_unknown_problem_parameter(self):
        with pytest.raises(ConfigError):
            config_from_mapping({"problem.radius": "0.3"})

    def test_wrong_type_reported(self):
        with pytest.raises(ConfigError, match="problem.n"):
            config_from_mapping({"problem.n": "many"})

    def test_bad_problem_type(self):
        with pytest.raises(ConfigError):
            config_from_mapping({"problem.type": "airy"})

    def test_generator_rule_applies_at_config_time(self):
        with pytest.raises(ConfigError, match="problem.r0 must be > 0"):
            config_from_mapping({"problem.type": "vonkarman",
                                 "problem.r0": "-1"})

    def test_solver_constraint_violation_is_config_error(self):
        with pytest.raises(ConfigError):
            config_from_mapping({"solver.c1": "0.95"})

    def test_param_scoping_by_problem_type(self):
        # rings belongs to the segmented generator, not the zernike one
        with pytest.raises(ConfigError, match="rings"):
            config_from_mapping({"problem.type": "zernike",
                                 "problem.rings": "2"})
        cfg = config_from_mapping({"problem.type": "segmented",
                                   "problem.rings": "1"})
        assert cfg.problem_params["rings"] == 1

    def test_overrides_win(self, tmp_path):
        p = tmp_path / "cfg.txt"
        p.write_text("problem.n = 16\nrestarts = 3\n")
        cfg = config_from_sources(p, ["problem.n=8"])
        assert cfg.n == 8
        assert cfg.restarts == 3

    def test_hash_inside_a_value_is_data(self, tmp_path):
        # only a '#' at the start of a line or after whitespace is a comment
        p = tmp_path / "cfg.txt"
        p.write_text("# whole-line comment\n"
                     "  # indented whole-line comment\n"
                     "output_dir = runs/#1\n"
                     "restarts = 3  # three\n"
                     "problem.n = 8\t# tab before the comment\n")
        cfg = config_from_sources(p)
        assert cfg.output_dir == "runs/#1"
        assert cfg.restarts == 3
        assert cfg.n == 8

    def test_missing_config_file(self):
        with pytest.raises(ConfigError):
            config_from_sources("no/such/file.txt")

    def test_flat_dump_roundtrips_unset_values(self):
        cfg = small_config()
        flat = cfg.to_flat()
        assert flat["output_dir"] == flat["noise.snr"] == "none"
        back = config_from_mapping({k: str(v) for k, v in flat.items()})
        assert back.output_dir is None
        assert back.snr is None and back.solver.tn_cg_max is None
        assert back.to_flat() == flat

    def test_config_line_without_equals_rejected(self, tmp_path):
        p = tmp_path / "cfg.txt"
        p.write_text("problem.n = 8\nrestarts 3\n")
        with pytest.raises(ConfigError, match="cfg.txt: line 2: .* got 'restarts 3'$"):
            config_from_sources(p)

    def test_flat_dump_is_complete(self):
        cfg = small_config()
        flat = cfg.to_flat()
        for key in ("problem.type", "problem.r_inner", "plan.defocus",
                    "objective.model", "solver.method", "solver.c2",
                    "restarts", "noise.snr", "morozov.enabled", "output_dir"):
            assert key in flat


class TestInitialGuess:
    def test_unit_amplitude_in_pupil(self):
        mask = np.zeros((8, 8), dtype=bool)
        mask[2:6, 2:6] = True
        u = initial_guess(mask, 3)
        assert np.abs(np.abs(u[mask]) - 1.0).max() < 1e-15
        assert np.all(u[~mask] == 0)

    def test_phase_range_half_open(self):
        u = initial_guess(np.ones((64, 64), dtype=bool), 4)
        theta = np.angle(u)
        assert theta.max() <= np.pi
        assert theta.min() > -np.pi

    def test_seeded(self):
        mask = np.ones((6, 6), dtype=bool)
        assert np.array_equal(initial_guess(mask, 5), initial_guess(mask, 5))
        assert not np.array_equal(initial_guess(mask, 5), initial_guess(mask, 6))


class TestSimulate:
    def test_idempotent_bytes(self, tmp_path):
        cfg = small_config()
        paths = []
        for name in ("a", "b"):
            out = tmp_path / name
            simulate(cfg, out)
            paths.append(out)
        for fname in sorted(os.listdir(paths[0])):
            b1 = (paths[0] / fname).read_bytes()
            b2 = (paths[1] / fname).read_bytes()
            assert b1 == b2, fname

    def test_roundtrip_objective_at_truth(self, tmp_path):
        cfg = small_config()
        inst = simulate(cfg, tmp_path / "inst")
        back = load_instance(tmp_path / "inst")
        spec = ObjectiveSpec("LSI", 1e-14, back.plan, back.data, back.grid)
        assert DataMisfit(spec).value(back.truth) < 1e-8


class TestRunSolve:
    def test_summary_reproducible(self, tmp_path, monkeypatch):
        cfg = small_config(restarts=1)
        inst = build_instance(cfg)
        s1 = run_solve(cfg, inst, tmp_path / "r1")
        s2 = run_solve(cfg, inst, tmp_path / "r2")
        assert s1 == s2
        assert (tmp_path / "r1" / "summary.json").read_text() == \
            (tmp_path / "r2" / "summary.json").read_text()

    def test_outputs_embed_config_and_parse(self, tmp_path):
        cfg = small_config()
        inst = build_instance(cfg)
        run_solve(cfg, inst, tmp_path / "out")
        trace_path = tmp_path / "out" / "trace_restart_00.csv"
        header, rows = read_trace(trace_path)
        assert header["problem.type"] == "zernike"
        assert header["solver.method"] == "LBFGS"
        assert len(rows) >= 1
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["config"]["problem.n"] == 12
        assert len(summary["restarts"]) == cfg.restarts

    def test_aggregates_recompute_from_rows(self, tmp_path):
        cfg = small_config(restarts=3)
        inst = build_instance(cfg)
        summary = run_solve(cfg, inst, tmp_path / "out")
        rows = summary["restarts"]
        agg = summary["aggregates"]
        assert agg["mean_fft_calls"] == pytest.approx(
            np.mean([r["fft_calls"] for r in rows]))
        assert agg["mean_iterations"] == pytest.approx(
            np.mean([r["iterations"] for r in rows]))
        assert agg["success_rate"] == pytest.approx(
            np.mean([r["final_rms"] < cfg.success_rms for r in rows]))
        assert agg["best_rms"] == pytest.approx(
            min(r["final_rms"] for r in rows))

    def test_restart_seeds_derived_from_base(self, tmp_path):
        cfg = small_config(restarts=3, **{"solver.seed": 7})
        inst = build_instance(cfg)
        summary = run_solve(cfg, inst, tmp_path / "out")
        assert [r["seed"] for r in summary["restarts"]] == [7, 8, 9]

    def test_morozov_fields_present_with_noise(self, tmp_path):
        cfg = small_config(**{"noise.snr": 10, "morozov.enabled": "true",
                              "restarts": 2})
        inst = build_instance(cfg)
        summary = run_solve(cfg, inst, tmp_path / "out")
        for row in summary["restarts"]:
            assert "morozov_index" in row
            assert "morozov_reached" in row
            assert 0 <= row["morozov_index"] <= row["iterations"]

    @pytest.mark.parametrize("method", ["SD", "NCG", "LBFGS", "TN", "MISELL"])
    def test_fft_counter_matches_instrumented_transforms(self, numpy_ffts,
                                                         method):
        # on every solver path: TN's Hessian action and MISELL's projections too
        cfg = small_config(restarts=1, **{"solver.method": method})
        inst = build_instance(cfg)
        numpy_ffts["n"] = 0
        trace, row = run_single(cfg, inst, 0)
        assert row["fft_calls"] == numpy_ffts["n"] > 0

    def test_misell_method_runs_on_defocus_planes(self, tmp_path):
        cfg = small_config(**{"solver.method": "MISELL",
                              "solver.max_iters": 10, "restarts": 1})
        inst = build_instance(cfg)
        summary = run_solve(cfg, inst, tmp_path / "out")
        assert summary["restarts"][0]["iterations"] == 10

    def test_restart_failure_recorded_not_fatal(self, tmp_path, monkeypatch):
        import phasediversity.experiments as exp

        real = exp.run_single

        def flaky(config, instance, restart):
            if restart == 0:
                raise RuntimeError("synthetic blow-up")
            return real(config, instance, restart)

        monkeypatch.setattr(exp, "run_single", flaky)
        cfg = small_config(restarts=3)
        inst = build_instance(cfg)
        summary = exp.run_solve(cfg, inst, tmp_path / "out")
        assert len(summary["restarts"]) == 3
        failed = summary["restarts"][0]
        assert list(failed) == ["restart", "seed", "iterations", "fft_calls",
                                "stop_reason", "final_f", "final_rms",
                                "min_rms"]
        assert failed["restart"] == 0 and failed["seed"] == cfg.solver.seed
        assert failed["iterations"] == 0 and failed["fft_calls"] == 0
        assert failed["stop_reason"] == "error: synthetic blow-up"
        assert all(np.isnan(failed[key])
                   for key in ("final_f", "final_rms", "min_rms"))
        assert summary["restarts"][1]["stop_reason"] != ""
        assert not (tmp_path / "out" / "trace_restart_00.csv").exists()
        assert (tmp_path / "out" / "trace_restart_01.csv").exists()

    def test_tn_runs_just_above_the_smallest_epsilon(self, tmp_path):
        # at eps = 1.3e-77, eps^4 is still a normal float, so the MLP
        # Hessian coefficients of TN stay finite and no restart fails
        cfg = small_config(**{"problem.n": 8, "restarts": 3,
                              "solver.max_iters": 30, "solver.method": "TN",
                              "objective.model": "MLP",
                              "objective.epsilon": 1.3e-77})
        summary = run_solve(cfg, build_instance(cfg), tmp_path / "out")
        reasons = [row["stop_reason"] for row in summary["restarts"]]
        assert not [r for r in reasons if r.startswith("error:")], reasons

    def test_noise_applied_to_clean_instance_at_solve_time(self, tmp_path):
        clean = build_instance(small_config())
        cfg = small_config(**{"noise.snr": 10, "morozov.enabled": "true",
                              "restarts": 1, "solver.max_iters": 40})
        summary = run_solve(cfg, clean, tmp_path / "out")
        assert summary["config"]["noise.snr"] == 10.0
        # noisy data cannot be fit to the noiseless floor
        assert summary["restarts"][0]["final_rms"] > 1e-4

    def test_conflicting_noise_rejected(self, tmp_path):
        noisy_inst = build_instance(small_config(**{"noise.snr": 10}))
        cfg = small_config(**{"noise.snr": 20})
        with pytest.raises(ConfigError, match="snr"):
            run_solve(cfg, noisy_inst, tmp_path / "out")

    def test_noisy_instance_used_as_is_and_embedded(self, tmp_path):
        noisy_inst = build_instance(small_config(**{"noise.snr": 10,
                                                    "noise.seed": 3}))
        cfg = small_config(restarts=1)
        summary = run_solve(cfg, noisy_inst, tmp_path / "out")
        assert summary["config"]["noise.snr"] == 10.0
        assert summary["config"]["noise.seed"] == 3

    def test_misell_needs_two_defocus_planes(self, tmp_path):
        cfg = small_config(**{"solver.method": "MISELL",
                              "plan.defocus": "3", "restarts": 1})
        inst = build_instance(cfg)
        with pytest.raises(ConfigError):
            run_solve(cfg, inst, tmp_path / "out")
        assert not (tmp_path / "out").exists()


class TestCompareRunners:
    def test_compare_methods_four_rows_and_orderings(self, tmp_path):
        cfg = small_config(restarts=1, **{"solver.max_iters": 10})
        inst = build_instance(cfg)
        payload = run_compare_methods(cfg, inst, tmp_path / "cmp")
        assert [e["method"] for e in payload["methods"]] == list(LINE_SEARCH_METHODS)
        assert set(payload["fft_orderings"]) == {"lbfgs_lt_ncg", "ncg_lt_sd",
                                                 "lbfgs_lt_tn"}
        lines = [ln for ln in
                 (tmp_path / "cmp" / "compare_methods.csv").read_text().splitlines()
                 if ln and not ln.startswith("#")]
        assert lines[0] == "method,mean_fft_calls,mean_iterations,success_rate"
        assert len(lines) == 5

    def test_compare_models_series(self, tmp_path):
        cfg = small_config(restarts=2, **{"solver.max_iters": 12})
        inst = build_instance(cfg)
        payload = run_compare_models(cfg, inst, tmp_path / "cm")
        lines = [ln for ln in
                 (tmp_path / "cm" / "compare_models.csv").read_text().splitlines()
                 if ln and not ln.startswith("#")]
        assert lines[0] == "model,restart,iter,rms,f"
        body = [ln.split(",") for ln in lines[1:]]
        starts = {}
        for model, restart, it, rms, f in body:
            it = int(it)
            assert it <= cfg.solver.max_iters
            if it == 0:
                starts.setdefault(restart, set()).add(rms)
        # all models share the seeded start, so iteration-0 rms agrees
        for restart, vals in starts.items():
            assert len(vals) == 1

    def test_compare_models_csv_without_traces_ends_at_header(self, tmp_path,
                                                              monkeypatch):
        import phasediversity.experiments as exp

        def fail(config, instance, restart):
            raise RuntimeError("synthetic blow-up")

        monkeypatch.setattr(exp, "run_single", fail)
        cfg = small_config(restarts=2)
        run_compare_models(cfg, build_instance(cfg), tmp_path / "cm")
        text = (tmp_path / "cm" / "compare_models.csv").read_text()
        assert text.endswith("\n")
        assert text.splitlines()[-1] == "model,restart,iter,rms,f"

    def test_compare_models_keeps_restart_rows(self, tmp_path):
        cfg = small_config(restarts=2, **{"solver.max_iters": 12,
                                          "noise.snr": 10,
                                          "morozov.enabled": "true"})
        inst = build_instance(cfg)
        payload = run_compare_models(cfg, inst, tmp_path / "cm")
        on_disk = json.loads((tmp_path / "cm" / "compare_models.json").read_text())
        for model, entry in on_disk["models"].items():
            rows = entry["restarts"]
            assert [r["restart"] for r in rows] == [0, 1]
            assert rows == payload["models"][model]["restarts"]
            for row in rows:
                trace, direct = run_single(replace(cfg, model=model), inst,
                                           row["restart"])
                assert row["fft_calls"] == direct["fft_calls"] > 0
                assert row["iterations"] == direct["iterations"]
                assert row["stop_reason"] == direct["stop_reason"]
                assert row["morozov_index"] == direct["morozov_index"]
                assert row["morozov_reached"] == direct["morozov_reached"]

    @pytest.mark.parametrize("runner, key, which", [
        (run_compare_methods, "methods", "method"),
        (run_compare_models, "models", "model"),
    ])
    def test_compare_restart_failure_recorded_not_fatal(self, tmp_path,
                                                        monkeypatch, runner,
                                                        key, which):
        import phasediversity.experiments as exp

        real = exp.run_single
        bad = {"method": "TN", "model": "MLP"}[which]

        def flaky(config, instance, restart):
            name = {"method": config.solver.method, "model": config.model}[which]
            if restart == 1 and name == bad:
                raise RuntimeError("synthetic blow-up")
            return real(config, instance, restart)

        monkeypatch.setattr(exp, "run_single", flaky)
        cfg = small_config(restarts=2, **{"solver.max_iters": 8})
        payload = runner(cfg, build_instance(cfg), tmp_path / "cmp")
        entries = payload[key]
        if key == "methods":
            entries = {e["method"]: e for e in entries}
        for name, entry in entries.items():
            rows = entry["restarts"]
            assert [r["restart"] for r in rows] == [0, 1]
            for row in rows:
                if name == bad and row["restart"] == 1:
                    assert row["stop_reason"] == "error: synthetic blow-up"
                    assert row["seed"] == cfg.solver.seed + 1
                    assert np.isnan(row["final_rms"])
                else:
                    assert not row["stop_reason"].startswith("error:")
                    assert row["fft_calls"] > 0
            if key == "models":
                reached = entry["iterations_to_target"]
                assert len(reached) == 2
                assert name != bad or reached[1] is None
                assert entry["n_reached"] == sum(r is not None for r in reached)

    def test_failed_restarts_left_out_of_cost_means(self, tmp_path,
                                                     monkeypatch):
        import warnings

        import phasediversity.experiments as exp

        real = exp.run_single

        def flaky(config, instance, restart):
            method = config.solver.method
            if method == "SD" or (method == "TN" and restart == 1):
                raise RuntimeError("synthetic blow-up")
            return real(config, instance, restart)

        monkeypatch.setattr(exp, "run_single", flaky)
        cfg = small_config(restarts=2)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            payload = run_compare_methods(cfg, build_instance(cfg),
                                          tmp_path / "cmp")
        entries = {e["method"]: e for e in payload["methods"]}
        tn = entries["TN"]
        ran = tn["restarts"][0]
        assert tn["restarts"][1]["fft_calls"] == 0
        assert tn["mean_fft_calls"] == ran["fft_calls"]
        assert tn["mean_iterations"] == ran["iterations"]
        assert tn["failed_restarts"] == 1
        sd = entries["SD"]
        assert sd["failed_restarts"] == 2
        assert np.isnan(sd["mean_fft_calls"]) and np.isnan(sd["mean_iterations"])
        assert np.isnan(sd["best_rms"]) and sd["success_rate"] == 0.0
        assert payload["fft_orderings"]["ncg_lt_sd"] is False
        assert entries["LBFGS"]["failed_restarts"] == 0

    def test_lbfgs_cheapest_across_seed_batches(self, tmp_path, bench32):
        # Three independent seed batches on the n=32 benchmark (reduced
        # from a ten-batch repetition study): LBFGS takes the fewest mean
        # FFT calls in every batch and in >=8/10 individual seeds.
        for k, base in enumerate((0, 100, 777)):
            cfg = config_from_mapping({"solver.seed": str(base)})
            payload = run_compare_methods(cfg, bench32, tmp_path / f"b{k}")
            fft = {e["method"]: [r["fft_calls"] for r in e["restarts"]]
                   for e in payload["methods"]}
            means = {m: np.mean(v) for m, v in fft.items()}
            assert means["LBFGS"] == min(means.values())
            per_seed = sum(
                1 for i in range(cfg.restarts)
                if fft["LBFGS"][i] < min(fft["SD"][i], fft["NCG"][i],
                                         fft["TN"][i]))
            assert per_seed >= 8
            lbfgs = next(e for e in payload["methods"]
                         if e["method"] == "LBFGS")
            assert lbfgs["success_rate"] >= 0.7

    @pytest.mark.parametrize("setting, code", [
        ("noise.seed=4", 2), ("noise.snr=none", 2), ("noise.snr=20", 0),
        ("noise.snr=10", 2)])
    def test_noise_keys_must_agree_with_noisy_instance(self, tmp_path, capsys,
                                                       setting, code):
        inst_dir = tmp_path / "inst"
        assert main(["simulate", "--set", "problem.n=8", "--set", "noise.snr=20",
                     "--set", "noise.seed=3", "--out", str(inst_dir)]) == 0
        capsys.readouterr()
        out = tmp_path / "run"
        assert main(["solve", "--instance", str(inst_dir), "--set", setting,
                     "--set", "restarts=1", "--set", "solver.max_iters=3",
                     "--out", str(out)]) == code
        if code:
            assert "config error: instance has noise." in capsys.readouterr().err
            assert not out.exists()
        else:
            summary = json.loads((out / "summary.json").read_text())
            assert summary["config"]["noise.snr"] == 20.0
            assert summary["config"]["noise.seed"] == 3

    def test_iterations_to_rms(self):
        trace = RunTrace()
        from phasediversity.optimizers import TraceRecord

        for i, rms in enumerate([1.0, 0.5, 0.01, 0.002]):
            trace.append(TraceRecord(i, 1.0, 1.0, 1.0, rms, 0, False))
        assert iterations_to_rms(trace, 1e-1) == 2
        assert iterations_to_rms(trace, 1e-9) is None


class TestAnalyzeHessian:
    def test_report_schema_roundtrips(self, tmp_path):
        cfg = small_config(**{"problem.n": 8, "plan.defocus": "-3.1234567,3"})
        inst = build_instance(cfg)
        payload = run_analyze_hessian(cfg, inst, "truth", tmp_path / "hx")
        data = json.loads((tmp_path / "hx" / "hessian_analysis.json").read_text())
        assert data["point"] == "truth"
        assert [p["plane"] for p in data["planes"]] == [
            "amplitude", "defocus -3.1234567", "defocus 3"]
        for plane in data["planes"]:
            for model, entry in plane["models"].items():
                assert entry["lambda_min"] <= entry["lambda_max"]
                assert entry["dense_max_deviation"] < 1e-9
            assert plane["clustering"]["ls_max_times2"] <= 2.0 + 1e-12

    def test_size_guard_is_config_error(self, tmp_path):
        cfg = small_config(**{"problem.n": 16})
        inst = build_instance(cfg)
        with pytest.raises(ConfigError):
            run_analyze_hessian(cfg, inst, "truth", tmp_path / "hx")

    def test_point_from_file(self, tmp_path):
        cfg = small_config(**{"problem.n": 8})
        inst = build_instance(cfg)
        from phasediversity.fields import save_field

        save_field(tmp_path / "pt.npy", inst.truth)
        payload = run_analyze_hessian(cfg, inst, str(tmp_path / "pt.npy"),
                                      tmp_path / "hx")
        assert payload["point"].endswith("pt.npy")

    def test_missing_point_file(self, tmp_path):
        cfg = small_config(**{"problem.n": 8})
        inst = build_instance(cfg)
        with pytest.raises(ConfigError):
            run_analyze_hessian(cfg, inst, "nope.npy", tmp_path / "hx")

    def test_transforms_the_point_once_per_plane(self, tmp_path, monkeypatch):
        # each defocus plane's dense matrix takes one stacked transform of
        # all pixels (the amplitude plane's none), then the point one more
        cfg = small_config(**{"problem.n": 8})
        inst = build_instance(cfg)
        calls = []
        for name in ("fft", "ifft", "fft2", "ifft2", "fftn", "ifftn"):
            def counted(*args, _original=getattr(np.fft, name), **kwargs):
                calls.append(1)
                return _original(*args, **kwargs)
            monkeypatch.setattr(np.fft, name, counted)
        run_analyze_hessian(cfg, inst, "random", tmp_path / "hx")
        defocus_planes = len(inst.plan.defocus)
        assert len(calls) == defocus_planes * (1 + 1) == 4


class TestCli:
    def test_simulate_solve_pipeline(self, tmp_path, capsys):
        inst_dir = tmp_path / "inst"
        rc = main(["simulate", "--set", "problem.n=12", "--out", str(inst_dir)])
        assert rc == 0
        rc = main(["solve", "--instance", str(inst_dir), "--set", "problem.n=12",
                   "--set", "restarts=1", "--set", "solver.max_iters=15",
                   "--out", str(tmp_path / "run")])
        assert rc == 0
        assert (tmp_path / "run" / "summary.json").exists()

    def test_artifacts_describe_the_instance_not_the_defaults(self, tmp_path,
                                                               capsys):
        inst_dir = tmp_path / "inst"
        assert main(["simulate", "--set", "problem.type=vonkarman",
                     "--set", "problem.n=12", "--set", "plan.defocus=-2,2",
                     "--out", str(inst_dir)]) == 0
        run = ["--instance", str(inst_dir), "--set", "restarts=1",
               "--set", "solver.max_iters=5"]
        assert main(["solve", *run, "--out", str(tmp_path / "run")]) == 0
        config = json.loads((tmp_path / "run" / "summary.json").read_text())["config"]
        assert config["problem.type"] == "vonkarman"
        assert config["problem.n"] == 12
        assert config["plan.defocus"] == "-2,2"
        assert config["problem.r0"] == 0.1 and "problem.zernike_index" not in config
        header, _ = read_trace(tmp_path / "run" / "trace_restart_00.csv")
        assert header["problem.type"] == "vonkarman" and header["problem.n"] == "12"
        # a repeated key that agrees changes nothing
        assert main(["solve", *run, "--set", "problem.n=12",
                     "--out", str(tmp_path / "again")]) == 0
        assert (tmp_path / "again" / "summary.json").read_bytes() == \
            (tmp_path / "run" / "summary.json").read_bytes()
        capsys.readouterr()
        for sets in (["problem.n=16"], ["problem.type=zernike"],
                     ["plan.defocus=-3,3"],
                     ["problem.type=vonkarman", "problem.r0=0.2"]):
            args = [a for kv in sets for a in ("--set", kv)]
            assert main(["solve", *run, *args,
                         "--out", str(tmp_path / "bad")]) == 2
            err = capsys.readouterr().err
            assert "config error" in err and sets[-1].partition("=")[0] in err
        assert not (tmp_path / "bad").exists()

    def test_unknown_key_exits_2(self, tmp_path, capsys):
        rc = main(["simulate", "--set", "nope=1", "--out", str(tmp_path / "x")])
        assert rc == 2
        assert "config error" in capsys.readouterr().err

    def test_missing_instance_exits_2(self, tmp_path):
        rc = main(["solve", "--instance", str(tmp_path / "missing")])
        assert rc == 2

    def test_bad_problem_type_exits_2(self, tmp_path):
        rc = main(["simulate", "--set", "problem.type=airy",
                   "--out", str(tmp_path / "x")])
        assert rc == 2

    def test_env_var_output_dir(self, tmp_path, monkeypatch):
        out = tmp_path / "envout"
        monkeypatch.setenv("PHASEDIVERSITY_OUTPUT_DIR", str(out))
        rc = main(["simulate", "--set", "problem.n=12"])
        assert rc == 0
        assert (out / "truth.npy").exists()

    def test_config_output_dir_between_out_and_env_var(self, tmp_path,
                                                        monkeypatch):
        monkeypatch.setenv("PHASEDIVERSITY_OUTPUT_DIR", str(tmp_path / "env"))
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(f"problem.n = 8\noutput_dir = {tmp_path / 'from_cfg'}\n")
        assert main(["simulate", "--config", str(cfg)]) == 0
        assert (tmp_path / "from_cfg" / "truth.npy").exists()
        assert main(["simulate", "--config", str(cfg),
                     "--out", str(tmp_path / "flag")]) == 0
        assert (tmp_path / "flag" / "truth.npy").exists()
        assert not (tmp_path / "env").exists()

    @pytest.mark.parametrize("command", ["simulate", "solve"])
    def test_out_naming_a_file_exits_3_and_keeps_it(self, tmp_path, capsys,
                                                    command):
        inst_dir = tmp_path / "inst"
        assert main(["simulate", "--set", "problem.n=8",
                     "--out", str(inst_dir)]) == 0
        capsys.readouterr()
        out = tmp_path / "taken"
        out.write_text("keep me\n")
        given = [] if command == "simulate" else ["--instance", str(inst_dir)]
        assert main([command, *given, "--set", "problem.n=8",
                     "--set", "restarts=1", "--set", "solver.max_iters=3",
                     "--out", str(out)]) == 3
        assert capsys.readouterr().err.startswith("error:")
        assert out.read_text() == "keep me\n"

    def test_config_file_plus_override(self, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("problem.n = 12\nrestarts = 1\nsolver.max_iters = 10\n")
        inst_dir = tmp_path / "inst"
        assert main(["simulate", "--config", str(cfg),
                     "--out", str(inst_dir)]) == 0
        assert main(["compare-models", "--config", str(cfg), "--instance",
                     str(inst_dir), "--out", str(tmp_path / "cm")]) == 0
        data = json.loads((tmp_path / "cm" / "compare_models.json").read_text())
        assert set(data["models"]) == {"MLP", "LS", "LSI"}

    def test_analyze_hessian_cli(self, tmp_path):
        inst_dir = tmp_path / "inst8"
        assert main(["simulate", "--set", "problem.n=8",
                     "--out", str(inst_dir)]) == 0
        rc = main(["analyze-hessian", "--instance", str(inst_dir),
                   "--set", "problem.n=8", "--point", "random",
                   "--out", str(tmp_path / "hx")])
        assert rc == 0
        assert (tmp_path / "hx" / "hessian_analysis.json").exists()

    @pytest.mark.parametrize("case", ["not_npy", "wrong_shape", "too_large",
                                      "nan", "inf", "strings", "bool",
                                      "empty", "npz"])
    def test_analyze_hessian_bad_input_exits_2_before_any_output(
            self, tmp_path, capsys, case):
        # a text file as the point, a point of the wrong shape, an instance
        # above the dense-assembly size limit, a point with one NaN or
        # infinite entry, a grid of strings or of booleans, a zero-byte
        # file, and an .npz archive
        inst_dir = tmp_path / "inst"
        n = 16 if case == "too_large" else 8
        assert main(["simulate", "--set", f"problem.n={n}",
                     "--out", str(inst_dir)]) == 0
        point, cause = {"not_npy": (str(inst_dir / "config.txt"), "pickled"),
                        "wrong_shape": (str(tmp_path / "small.npy"), "shape"),
                        "too_large": ("truth", "limited to 64 pixels"),
                        "nan": (str(tmp_path / "bad.npy"), "non-finite"),
                        "inf": (str(tmp_path / "bad.npy"), "non-finite"),
                        "strings": (str(tmp_path / "bad.npy"),
                                    "not an array of numbers"),
                        "bool": (str(tmp_path / "bad.npy"),
                                 "not an array of numbers"),
                        "empty": (str(tmp_path / "empty.npy"),
                                  str(tmp_path / "empty.npy")),
                        "npz": (str(tmp_path / "grid.npz"),
                                "not an array of numbers")}[case]
        np.save(tmp_path / "small.npy", np.ones((4, 4), dtype=complex))
        bad = np.ones((8, 8), dtype={"strings": str, "bool": bool}.get(case,
                                                                     complex))
        if case in ("nan", "inf"):
            bad[3, 4] = np.nan if case == "nan" else np.inf
        np.save(tmp_path / "bad.npy", bad)
        (tmp_path / "empty.npy").write_bytes(b"")
        np.savez(tmp_path / "grid.npz", np.ones((8, 8), dtype=complex))
        capsys.readouterr()
        out = tmp_path / "hx"
        assert main(["analyze-hessian", "--instance", str(inst_dir),
                     "--point", point, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and cause in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["solve", "compare-methods",
                                         "compare-models"])
    @pytest.mark.parametrize("setting", ["objective.epsilon=0",
                                         "objective.epsilon=-1",
                                         "objective.epsilon=inf",
                                         "objective.epsilon=1e300",
                                         "objective.epsilon=1e-170",
                                         "objective.epsilon=1e-78",
                                         "noise.snr=0", "noise.snr=-1",
                                         "solver.tn_cg_max=0",
                                         "solver.tn_cg_max=-1",
                                         "solver.seed=-1",
                                         "morozov.tau=0", "morozov.tau=-1",
                                         "morozov.tau=nan",
                                         "summary.success_rms=0",
                                         "summary.success_rms=-1",
                                         "summary.success_rms=nan",
                                         "restarts=0", "objective.model=foo",
                                         "restarts",
                                         "solver.tol_fun=nan",
                                         "solver.tol_fun=inf",
                                         "solver.tol_fun=-1",
                                         "solver.tol_x=nan",
                                         "solver.tol_x=inf",
                                         "solver.tol_x=-1",
                                         "solver.grad_tol=nan",
                                         "solver.grad_tol=inf",
                                         "solver.grad_tol=-1"])
    def test_bad_value_exits_2_before_any_output(self, tmp_path, capsys,
                                                 command, setting):
        inst_dir = tmp_path / "inst"
        assert main(["simulate", "--set", "problem.n=8",
                     "--out", str(inst_dir)]) == 0
        capsys.readouterr()
        out = tmp_path / "run"
        assert main([command, "--instance", str(inst_dir), "--set", "restarts=1",
                     "--set", "solver.max_iters=3", "--set", setting,
                     "--out", str(out)]) == 2
        assert "config error" in capsys.readouterr().err
        assert not out.exists()

    @staticmethod
    def config_error_names(tmp_path, capsys, command, settings, key):
        """``command`` with ``settings`` exits 2 before any output, with a
        config error that names ``key``."""
        inst_dir = tmp_path / "inst"
        assert main(["simulate", "--set", "problem.n=8",
                     "--out", str(inst_dir)]) == 0
        capsys.readouterr()
        out = tmp_path / "run"
        given = [] if command == "simulate" else ["--instance", str(inst_dir)]
        sets = [arg for setting in settings for arg in ("--set", setting)]
        assert main([command, *given, "--set", "problem.n=8", *sets,
                     "--set", "restarts=1", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and key in err
        assert not out.exists()

    @pytest.mark.parametrize("ptype", ["zernike", "vonkarman", "segmented"])
    def test_negative_problem_seed_named_in_error(self, tmp_path, capsys,
                                                  ptype):
        self.config_error_names(tmp_path, capsys, "simulate",
                                [f"problem.type={ptype}", "problem.seed=-1"],
                                "problem.seed")

    @pytest.mark.parametrize("command", ["solve", "compare-methods",
                                         "compare-models", "analyze-hessian"])
    def test_misell_plan_checked_only_where_misell_runs(self, tmp_path, capsys,
                                                        command):
        # one defocus plane: solve would run MISELL on it; compare-models
        # refuses MISELL on any plan; compare-methods runs SD/NCG/LBFGS/TN
        # and analyze-hessian no solver, so both run
        inst_dir = tmp_path / "inst"
        assert main(["simulate", "--set", "problem.n=8",
                     "--set", "plan.defocus=3", "--out", str(inst_dir)]) == 0
        capsys.readouterr()
        out = tmp_path / "run"
        rc = main([command, "--instance", str(inst_dir),
                   "--set", "solver.method=MISELL", "--set", "restarts=1",
                   "--set", "solver.max_iters=3", "--out", str(out)])
        if command == "solve":
            assert rc == 2
            assert "two defocus planes" in capsys.readouterr().err
            assert not out.exists()
        elif command == "compare-models":
            assert rc == 2
            assert "MISELL fits none" in capsys.readouterr().err
            assert not out.exists()
        else:
            assert rc == 0 and any(out.iterdir())

    def test_compare_models_refuses_misell(self, tmp_path, capsys):
        # Misell's projections fit no misfit model: on a two-plane plan the
        # three batches would be one batch under three labels
        self.config_error_names(tmp_path, capsys, "compare-models",
                                ["solver.method=MISELL"], "MISELL fits none")

    @pytest.mark.parametrize("command", ["simulate", "solve"])
    def test_negative_noise_seed_named_in_error(self, tmp_path, capsys,
                                                command):
        self.config_error_names(tmp_path, capsys, command,
                                ["noise.snr=20", "noise.seed=-1"], "noise.seed")

    @pytest.mark.parametrize("command", ["simulate", "solve"])
    def test_infinite_snr_named_in_error(self, tmp_path, capsys, command):
        self.config_error_names(tmp_path, capsys, command, ["noise.snr=inf"],
                                "noise.snr")

    @pytest.mark.parametrize("command", ["simulate", "solve"])
    @pytest.mark.parametrize("snr", ["1e10", "1e200", "1e-200"])
    def test_snr_outside_poisson_range_named_in_error(self, tmp_path, capsys,
                                                      command, snr):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            self.config_error_names(tmp_path, capsys, command,
                                    [f"noise.snr={snr}"], "noise.snr")
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]

    @pytest.mark.parametrize("settings, key", [
        (["plan.defocus=nan"], "defocus"),
        (["plan.defocus=inf"], "defocus"),
        (["problem.zernike_coeff=nan"], "problem.zernike_coeff"),
        (["problem.type=vonkarman", "problem.r0=nan"], "problem.r0"),
    ], ids=["defocus-nan", "defocus-inf", "zernike_coeff-nan", "r0-nan"])
    def test_non_finite_instance_value_named_in_error(self, tmp_path, capsys,
                                                      settings, key):
        self.config_error_names(tmp_path, capsys, "simulate", settings, key)

    def test_one_pixel_screen_is_config_error(self, tmp_path, capsys):
        # the vonkarman pupil at n = 2 holds one pixel, where the
        # mean-removed screen has zero variance
        self.config_error_names(tmp_path, capsys, "simulate",
                                ["problem.type=vonkarman", "problem.n=2"],
                                "zero variance")

    def test_intensity_csvs_parse_with_headers(self, tmp_path):
        inst_dir = tmp_path / "inst"
        assert main(["simulate", "--set", "problem.n=12",
                     "--out", str(inst_dir)]) == 0
        arr = field_from_csv(inst_dir / "plane_00.csv", (12, 12))
        assert arr.shape == (12, 12)
        assert arr.min() >= 0


class TestArtifactFormat:
    """Instance and run artifacts: the literal ``config.txt``, CSV header key
    order, load-time checks and atomic rewrites."""

    CONFIG = ["problem.n=8", "problem.r_inner=0", "problem.r_outer=0.45",
              "restarts=1", "solver.max_iters=3"]

    def _simulate(self, tmp_path):
        inst = tmp_path / "inst"
        args = [a for kv in self.CONFIG for a in ("--set", kv)]
        assert main(["simulate", *args, "--out", str(inst)]) == 0
        return inst, args

    @staticmethod
    def _header_keys(path):
        with open(path) as fh:
            return [ln[1:].partition("=")[0].strip() for ln in fh
                    if ln.startswith("#")]

    def test_instance_and_run_headers(self, tmp_path):
        inst, args = self._simulate(tmp_path)
        assert (inst / "config.txt").read_text() == (
            "problem.type = zernike\n"
            "problem.n = 8\n"
            "problem.seed = 0\n"
            "problem.r_inner = 0.0\n"
            "problem.r_outer = 0.45\n"
            "problem.zernike_coeff = 0.1\n"
            "problem.zernike_index = 13\n"
            "plan.defocus = -3,3\n"
            "plan.amplitude_plane = True\n")
        meta_keys = [ln.partition("=")[0].strip()
                     for ln in (inst / "config.txt").read_text().splitlines()]
        for m in range(3):
            assert self._header_keys(inst / f"plane_{m:02d}.csv") == meta_keys

        run = tmp_path / "run"
        assert main(["solve", *args, "--instance", str(inst),
                     "--out", str(run)]) == 0
        config = list(json.loads((run / "summary.json").read_text())["config"])
        assert config[:4] == ["problem.type", "problem.n", "problem.seed",
                              "problem.r_inner"]
        assert config[-1] == "output_dir" and len(config) == 28
        assert self._header_keys(run / "trace_restart_00.csv") == config + [
            "restart", "seed", "method", "stop_reason"]

        cmp_dir = tmp_path / "cmp"
        assert main(["compare-methods", *args, "--instance", str(inst),
                     "--out", str(cmp_dir)]) == 0
        payload = json.loads((cmp_dir / "compare_methods.json").read_text())
        assert self._header_keys(cmp_dir / "compare_methods.csv") == list(
            payload["config"]) == config

    def test_truncated_plane_is_load_error(self, tmp_path, capsys):
        inst, args = self._simulate(tmp_path)
        plane = inst / "plane_01.csv"
        lines = plane.read_text().splitlines(keepends=True)
        header = [ln for ln in lines if ln.startswith("#")]
        rows = [ln for ln in lines if not ln.startswith("#")]
        assert len(rows) == 8
        plane.write_text("".join(header + rows[:6]))
        with pytest.raises(ValueError,
                           match=r"plane_01\.csv has shape \(6, 8\)"):
            load_instance(inst)
        for command in ("solve", "compare-methods"):
            assert main([command, *args, "--instance", str(inst),
                         "--out", str(tmp_path / command)]) == 2
            assert "cannot load instance" in capsys.readouterr().err

    def test_plane_file_outside_the_plan_is_load_error(self, tmp_path, capsys):
        # plan.defocus edited from -3,3 to -3 leaves plane_02.csv unnamed
        inst, args = self._simulate(tmp_path)
        config = inst / "config.txt"
        config.write_text(config.read_text().replace("plan.defocus = -3,3",
                                                     "plan.defocus = -3"))
        with pytest.raises(ValueError, match="plane_02.csv"):
            load_instance(inst)
        out = tmp_path / "run"
        assert main(["solve", *args, "--instance", str(inst),
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "cannot load instance" in err and "plane_02.csv" in err
        assert not out.exists()

    def test_simulate_removes_planes_of_a_larger_instance(self, tmp_path):
        inst = tmp_path / "inst"
        assert main(["simulate", "--set", "problem.n=8",
                     "--set", "plan.defocus=-3,0,3", "--out", str(inst)]) == 0
        assert (inst / "plane_03.csv").exists()
        inst, args = self._simulate(tmp_path)
        assert sorted(p.name for p in inst.glob("plane_*.csv")) == [
            "plane_00.csv", "plane_01.csv", "plane_02.csv"]
        assert len(load_instance(inst).plan) == 3

    @pytest.mark.parametrize("case", ["nan", "inf", "empty", "0-d", "strings",
                                      "bool", "n-mismatch"])
    def test_non_finite_truth_is_load_error(self, tmp_path, capsys, case):
        # a NaN or infinite entry, a zero-byte file, a 0-d array, a grid of
        # strings or of booleans, and a config.txt whose problem.n is not
        # the size of the 8 x 8 truth
        inst, args = self._simulate(tmp_path)
        if case in ("nan", "inf"):
            truth = np.load(inst / "truth.npy")
            truth[4, 4] = np.nan if case == "nan" else np.inf
            np.save(inst / "truth.npy", truth)
        elif case == "empty":
            (inst / "truth.npy").write_bytes(b"")
        elif case == "0-d":
            np.save(inst / "truth.npy", np.array(1.0 + 0.0j))
        elif case == "strings":
            np.save(inst / "truth.npy", np.full((8, 8), "1"))
        elif case == "bool":
            np.save(inst / "truth.npy", np.ones((8, 8), dtype=bool))
        else:
            config = inst / "config.txt"
            config.write_text(config.read_text().replace("problem.n = 8",
                                                         "problem.n = 16"))
        with pytest.raises(ValueError, match="truth.npy"):
            load_instance(inst)
        morozov = ["--set", "noise.snr=20", "--set", "morozov.enabled=true"]
        for command, extra in (("solve", []), ("solve", morozov),
                               ("compare-methods", [])):
            out = tmp_path / command
            assert main([command, *args, *extra, "--instance", str(inst),
                         "--out", str(out)]) == 2
            err = capsys.readouterr().err
            assert "cannot load instance" in err and "truth.npy" in err
            assert not out.exists()

    def test_plan_flag_read_like_the_config(self, tmp_path, capsys):
        inst, args = self._simulate(tmp_path)
        assert main(["solve", *args, "--instance", str(inst),
                     "--out", str(tmp_path / "as_written")]) == 0
        config = inst / "config.txt"
        text = config.read_text()
        assert "plan.amplitude_plane = True\n" in text
        config.write_text(text.replace("= True", "= true"))
        assert load_instance(inst).plan.planes[0] is None
        assert main(["solve", *args, "--instance", str(inst),
                     "--out", str(tmp_path / "lower")]) == 0
        assert (tmp_path / "lower" / "summary.json").read_bytes() == \
            (tmp_path / "as_written" / "summary.json").read_bytes()
        capsys.readouterr()
        # a value the config would reject, and a missing key, which the
        # config would default but the instance must state
        for written, cause in ((text.replace("= True", "= maybe"), "not a boolean"),
                               (text.replace("plan.amplitude_plane = True\n", ""),
                                "plan.amplitude_plane")):
            config.write_text(written)
            assert main(["solve", *args, "--instance", str(inst),
                         "--out", str(tmp_path / "bad")]) == 2
            err = capsys.readouterr().err
            assert "cannot load instance" in err and cause in err
            assert not (tmp_path / "bad").exists()

    def test_config_line_without_equals_is_load_error(self, tmp_path):
        inst, args = self._simulate(tmp_path)
        with open(inst / "config.txt", "a") as fh:
            fh.write("noise.snr 20\n")
        with pytest.raises(ValueError, match="line 10"):
            load_instance(inst)
        assert main(["solve", *args, "--instance", str(inst),
                     "--out", str(tmp_path / "run")]) == 2

    def test_failed_json_rewrite_keeps_old_file(self, tmp_path):
        path = tmp_path / "summary.json"
        _write_json(path, {"a": 1})
        first = path.read_bytes()

        class Unprintable:
            def __str__(self):
                raise RuntimeError("cannot serialize")

        with pytest.raises(RuntimeError):
            _write_json(path, {"a": 1, "b": Unprintable()})
        assert path.read_bytes() == first
        assert list(tmp_path.glob("*.tmp")) == []


def _edit_config(inst, key, value=None):
    """Replace ``key``'s value in ``inst``/config.txt, append the key if the
    file lacks it, or drop its line when ``value`` is None."""
    config = inst / "config.txt"
    lines = config.read_text().splitlines(keepends=True)
    line = "" if value is None else f"{key} = {value}\n"
    if not any(ln.startswith(f"{key} = ") for ln in lines):
        assert value is not None
        lines.append(line)
    config.write_text("".join(
        line if ln.startswith(f"{key} = ") else ln for ln in lines))


def _edit_plane_cell(plane, row, col, cell):
    """Replace one cell of a plane CSV's data rows."""
    lines = plane.read_text().splitlines(keepends=True)
    data = [i for i, ln in enumerate(lines) if not ln.startswith("#")]
    cells = lines[data[row]].rstrip("\n").split(",")
    cells[col] = cell
    lines[data[row]] = ",".join(cells) + "\n"
    plane.write_text("".join(lines))


# each file the CLI reads, and the defects a test puts in it
_INPUT_DEFECTS = {
    "--config": ["missing", "directory", "no-equals", "repeated-key"],
    "config.txt": ["missing", "directory", "no-equals", "repeated-key", "bad-n"],
    "plane_01.csv": ["missing", "directory", "empty", "x-cell"],
    "truth.npy": ["missing", "directory", "empty", "half", "dark"],
    "--point": ["missing", "directory", "empty", "half"],
}


class TestInputFiles:
    """Every file the CLI reads: a defect in it exits 2 before any output,
    with an error that names the file."""

    RUN = ["--set", "restarts=1", "--set", "solver.max_iters=1"]

    @pytest.mark.parametrize("sets, edit, named", [
        ([], ("problem.seed", None), "problem.seed"),
        ([], ("problem.r0", None), "problem.r0"),
        ([], ("problem.type", None), "problem.type"),
        ([], ("problem.type", "airy"), "problem.type"),
        ([], ("problem.n", "eight"), "problem.n"),
        ([], ("plan.defocus", "-3,x"), "plan.defocus"),
        ([], ("plan.defocus", "-3,nan"), "plan.defocus"),
        (["noise.snr=20", "noise.seed=3"], ("noise.seed", None), "noise.seed"),
        (["noise.snr=20", "noise.seed=3"], ("noise.seed", "abc"), "noise.seed"),
        (["noise.snr=20", "noise.seed=3"], ("noise.seed", "-2"), "noise.seed"),
        (["noise.snr=20", "noise.seed=3"], ("noise.snr", "-5"), "noise.snr"),
        ([], ("problem.seed", "-1"), "problem.seed"),
        ([], ("plane", "nan"), "plane_01.csv"),
        ([], ("plane", "-1"), "plane_01.csv"),
        ([], ("problem.bogus", "1"), "bogus"),
        ([], ("plan.extra", "1"), "plan.extra"),
        ([], ("noise.seed", "4"), "noise.snr"),
        ([], ("solver.method", "TN"), "solver.method"),
        ([], ("restarts", "7"), "restarts"),
        ([], ("output_dir", "x"), "output_dir"),
    ], ids=["no-seed", "no-r0", "no-type", "bad-type", "bad-n", "bad-defocus",
            "nan-defocus", "no-noise-seed", "bad-noise-seed",
            "negative-noise-seed", "negative-snr", "negative-seed",
            "plane-nan", "plane-negative", "extra-problem-key",
            "extra-plan-key", "seed-without-snr", "extra-solver-key",
            "extra-restarts-key", "extra-output-dir-key"])
    def test_instance_must_state_its_keys(self, tmp_path, capsys, sets, edit,
                                          named):
        # a vonkarman instance simulated with a non-default seed: a missing
        # key must not fall back to a default the instance never stated
        inst = tmp_path / "inst"
        args = [a for kv in ["problem.type=vonkarman", "problem.n=8",
                             "problem.seed=3", *sets] for a in ("--set", kv)]
        assert main(["simulate", *args, "--out", str(inst)]) == 0
        key, value = edit
        if key == "plane":
            _edit_plane_cell(inst / "plane_01.csv", 2, 3, value)
        else:
            _edit_config(inst, key, value)
        capsys.readouterr()
        out = tmp_path / "run"
        assert main(["solve", "--instance", str(inst), *self.RUN,
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert named in err
        assert key == "plane" or "config.txt" in err
        assert not out.exists()

    @pytest.mark.parametrize("ptype, key, value", [
        ("vonkarman", "r0", "-1"),
        ("vonkarman", "r0", "abc"),
        ("vonkarman", "r0", "nan"),
        ("vonkarman", "outer_scale", "0"),
        ("vonkarman", "target_rms", "inf"),
        ("vonkarman", "r_inner", "0.3"),
        ("vonkarman", "r_outer", "0.6"),
        ("zernike", "zernike_index", "0"),
        ("zernike", "zernike_index", "1.5"),
        ("zernike", "zernike_coeff", "nan"),
        ("segmented", "rings", "-1"),
        ("segmented", "gap_frac", "1"),
        ("segmented", "outer_radius", "0"),
    ])
    def test_generator_parameter_checked_on_load(self, tmp_path, capsys,
                                                 ptype, key, value):
        # a value simulate would reject, written into a simulated instance
        inst = tmp_path / "inst"
        assert main(["simulate", "--set", f"problem.type={ptype}",
                     "--set", "problem.n=16", "--out", str(inst)]) == 0
        _edit_config(inst, f"problem.{key}", value)
        capsys.readouterr()
        out = tmp_path / "run"
        assert main(["solve", "--instance", str(inst), *self.RUN,
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "config.txt" in err and f"problem.{key}" in err, err
        assert not out.exists()

    def test_inline_comments_in_config_txt_change_nothing(self, tmp_path):
        inst = tmp_path / "inst"
        assert main(["simulate", "--set", "problem.n=8",
                     "--set", "noise.snr=20", "--out", str(inst)]) == 0
        assert main(["solve", "--instance", str(inst), *self.RUN,
                     "--out", str(tmp_path / "plain")]) == 0
        config = inst / "config.txt"
        config.write_text("".join(f"{ln}  # note\n"
                                  for ln in config.read_text().splitlines()))
        assert main(["solve", "--instance", str(inst), *self.RUN,
                     "--out", str(tmp_path / "noted")]) == 0
        for name in ("summary.json", "trace_restart_00.csv"):
            assert (tmp_path / "noted" / name).read_bytes() == \
                (tmp_path / "plain" / name).read_bytes()

    @pytest.fixture(scope="module")
    def instance(self, tmp_path_factory):
        inst = tmp_path_factory.mktemp("input_files") / "inst"
        assert main(["simulate", "--set", "problem.n=8", "--out", str(inst)]) == 0
        return inst

    @settings(derandomize=True, max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(case=st.sampled_from([(file, defect) for file, defects
                                 in _INPUT_DEFECTS.items() for defect in defects]),
           cell=st.tuples(st.integers(0, 7), st.integers(0, 7)))
    @example(case=("truth.npy", "dark"), cell=(0, 0))
    @example(case=("--config", "repeated-key"), cell=(0, 0))
    @example(case=("config.txt", "repeated-key"), cell=(0, 0))
    def test_defective_input_file_named_once(self, instance, case, cell):
        file, defect = case
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            inst = tmp / "inst"
            shutil.copytree(instance, inst)
            config = tmp / "run.cfg"
            config.write_text("restarts = 1\nsolver.max_iters = 1\n")
            point = tmp / "point.npy"
            shutil.copy(inst / "truth.npy", point)
            path = {"--config": config, "--point": point}.get(file, inst / file)
            if defect == "missing":
                path.unlink()
            elif defect == "directory":
                path.unlink()
                path.mkdir()
            elif defect == "empty":
                path.write_bytes(b"")
            elif defect == "half":
                data = path.read_bytes()
                path.write_bytes(data[:len(data) // 2])
            elif defect == "no-equals":
                with open(path, "a") as fh:
                    fh.write("solver.max_iters 1\n")
            elif defect == "repeated-key":
                first = path.read_text().splitlines()[0]
                with open(path, "a") as fh:
                    fh.write(f"{first}\n")
            elif defect == "bad-n":
                _edit_config(inst, "problem.n", "x")
            elif defect == "dark":
                save_field(path, np.zeros((8, 8), complex))
            else:
                _edit_plane_cell(path, *cell, "x")
            out = tmp / "run"
            command = (["analyze-hessian", "--point", str(point)]
                       if file == "--point" else ["solve"])
            stderr = io.StringIO()
            with contextlib.redirect_stderr(stderr):
                rc = main([*command, "--instance", str(inst), "--config",
                           str(config), "--out", str(out)])
            err = stderr.getvalue()
            assert rc == 2, err
            assert err.count(str(path)) == 1, err
            assert not out.exists()
