import importlib.util
import itertools
import json
import math
import os
import sys
from pathlib import Path

import numpy as np
import pytest

from rotlasso import SeedSpec, SupportSet, harness, lasso_constrained, rno_constant
from rotlasso.harness import (
    EXPERIMENTS,
    ExperimentSpec,
    counterexample_witness,
    default_spec,
    emit_results,
    hard_experiments_pass,
    max_rno_over_disjoint_pairs,
    run_experiment,
)

from conftest import dual_bound


def mini_spec(name, grid, trials, seed=7):
    return ExperimentSpec(name=name, grid=tuple(grid), trials=trials, master_seed=seed)


class TestExperimentSpec:
    def test_unknown_name(self):
        with pytest.raises(ValueError):
            ExperimentSpec(name="nope", grid=({"n": 4, "d": 2, "k": 1},),
                           trials=1, master_seed=0)

    def test_inconsistent_grid(self):
        with pytest.raises(ValueError):
            ExperimentSpec(name="thm-main", grid=({"n": 10, "d": 2, "k": 5},),
                           trials=1, master_seed=0)

    @pytest.mark.parametrize("name, point", [
        ("lasso-rate", {"n": 100, "d": 20, "k": 2, "sigm": 5.0}),
        ("rot-check", {"n": 100, "d": 10, "k": 3, "rotation": "haar", "epsilon": 0.2,
                       "mc_trial": 50}),
        ("counterexample", {"k": 4, "n": 100, "d": 12, "rho": 0.1}),
    ])
    def test_unknown_grid_key(self, name, point):
        with pytest.raises(ValueError, match="allowed keys"):
            ExperimentSpec(name=name, grid=(point,), trials=1, master_seed=0)

    @pytest.mark.parametrize("sigma", [-1.0, float("nan")])
    def test_bad_sigma_rejected(self, sigma):
        with pytest.raises(ValueError, match="sigma"):
            ExperimentSpec(name="lasso-rate", grid=({"n": 60, "d": 24, "k": 2, "sigma": sigma},),
                           trials=1, master_seed=0)

    @pytest.mark.parametrize("name, point, problem", [
        ("thm-main", {"n": 50, "d": 8, "k": 3, "groups": 0}, "groups"),
        ("thm-main", {"n": 50, "d": 8, "k": 3, "groups": 6}, "groups"),
        ("thm-main", {"n": 50, "d": 8, "k": 8}, "groups"),
        ("lasso-rate", {"n": 50, "d": 8, "k": 2, "groups": 7}, "groups"),
        ("rno-whp", {"n": 50, "d": 8, "k": 3, "s": 1, "groups": 6}, "groups"),
        ("rno-whp", {"n": 50, "d": 8, "k": 3, "s": 0}, "s must lie"),
        ("rno-whp", {"n": 50, "d": 8, "k": 3, "s": 4}, "s must lie"),
        ("rno-whp", {"n": 50, "d": 8, "k": 6, "s": 3}, "s must lie"),
        ("rno-whp", {"n": 50, "d": 8, "k": 3}, "['s']"),
        ("rot-check", {"n": 50, "d": 8, "k": 3, "rotation": "haar"}, "['epsilon']"),
        ("counterexample", {"k": 1}, "['n', 'd']"),
        ("counterexample", {"k": 4, "n": 100}, "['d']"),
        ("counterexample", {"k": 4, "d": 12}, "['n']"),
        ("counterexample", {"k": 4, "n": 100, "d": 5}, "k + 2"),
        ("rip-rno", {"n": 50, "d": 8, "s": 5}, "s must lie"),
        ("thm-main", {"n": 50, "d": 8, "k": 3, "design": "semirandm"}, "design must be one of"),
        ("lasso-rate", {"n": 50, "d": 8, "k": 2, "design": "Correlated"}, "design must"),
        ("rno-whp", {"n": 50, "d": 8, "k": 3, "s": 1, "base": "cross_dup"}, "base must"),
        ("rno-whp", {"n": 50, "d": 8, "k": 3, "s": 1, "rotation": "hadamard"}, "rotation must"),
        ("rot-check", {"n": 50, "d": 8, "k": 3, "epsilon": 0.2, "rotation": "none"},
         "rotation must"),
        ("thm-main", {"n": 30.0, "d": 8, "k": 2}, "n must be an integer, got 30.0"),
        ("thm-main", {"n": 50, "d": 8, "k": 2, "groups": 2.7}, "groups must be an integer"),
        ("thm-main", {"n": 50, "d": 8, "k": 2, "groups": True}, "groups must be an integer"),
        ("rip-rno", {"n": 60, "d": 12, "s": True}, "s must be an integer"),
        ("thm-main", {"n": 50, "d": 8, "k": 2, "groups": 2, "rho": -0.1}, "rho must lie"),
        ("lasso-rate", {"n": 50, "d": 8, "k": 2, "rho": "x"}, "rho must be a finite number"),
        ("rot-check", {"n": 50, "d": 8, "k": 3, "epsilon": 0.2, "mc_trials": 0}, "mc_trials"),
        ("rot-check", {"n": 50, "d": 8, "k": 3, "epsilon": 0.2, "mc_trials": None},
         "mc_trials must be an integer"),
        ("rot-check", {"n": 50, "d": 8, "k": 3, "epsilon": float("nan")},
         "epsilon must be a finite number"),
        ("rot-check", {"n": 50, "d": 8, "k": 3, "epsilon": -1}, "epsilon must lie"),
        ("rot-check", {"n": 50, "d": 8, "k": 3, "epsilon": 0.2, "max_exceed": -1},
         "max_exceed must lie"),
        ("rot-check", {"n": 50, "d": 3, "k": 3, "epsilon": 0.5}, "k must be below d"),
        ("rno-whp", {"n": 50, "d": 8, "k": 3, "s": 1, "epsilon": -3}, "epsilon must lie"),
        ("rno-whp", {"n": 50, "d": 8, "k": 3, "s": 1, "epsilon": float("nan")},
         "epsilon must be a finite number"),
        ("sparsify-bound", {"n": 20, "d": 30, "s": 0}, "s must lie"),
        # keys that the trial ignores under the chosen design or base
        ("thm-main", {"n": 50, "d": 8, "k": 3, "design": "semirandom", "rho": 0.5},
         "rho must be 0.0 unless design is 'correlated'"),
        ("thm-main", {"n": 50, "d": 8, "k": 3, "design": "semirandom", "groups": 2},
         "groups must be 1 unless design is 'correlated'"),
        ("lasso-rate", {"n": 50, "d": 8, "k": 2, "design": "semirandom", "rho": 0.1},
         "rho must be 0.0 unless design is 'correlated'"),
        ("lasso-rate", {"n": 50, "d": 8, "k": 2, "design": "semirandom", "groups": 3},
         "groups must be 1 unless design is 'correlated'"),
        ("rno-whp", {"n": 50, "d": 8, "k": 3, "s": 1, "design": "semirandom", "rho": 0.5},
         "rho must be 0.0 unless design is 'correlated'"),
        ("rno-whp", {"n": 50, "d": 8, "k": 3, "s": 1, "design": "semirandom", "groups": 2},
         "groups must be 1 unless design is 'correlated'"),
        ("rno-whp", {"n": 50, "d": 8, "k": 3, "s": 1, "base": "cross-dup",
                     "design": "semirandom"}, "design must be 'correlated' unless base"),
        ("rno-whp", {"n": 50, "d": 8, "k": 3, "s": 1, "base": "cross-dup", "rho": 0.5},
         "rho must be 0.0 unless base is 'correlated'"),
        ("rno-whp", {"n": 50, "d": 8, "k": 3, "s": 1, "base": "cross-dup", "groups": 2},
         "groups must be 1 unless base is 'correlated'"),
    ])
    def test_unrunnable_grid_point_rejected(self, name, point, problem):
        # rejected when the spec is built, not when a trial runs
        with pytest.raises(ValueError) as exc:
            ExperimentSpec(name=name, grid=(point,), trials=1, master_seed=0)
        assert problem in str(exc.value)

    @pytest.mark.parametrize("trials, master_seed, problem", [
        (0, 0, "'trials' must be at least 1"),
        (True, 0, "'trials' must be an integer"),
        (1, -1, "'master_seed' must lie in [0, 2**64)"),
        (1, 2**64, "'master_seed' must lie in [0, 2**64)"),
        (1, 1.0, "'master_seed' must be an integer"),
    ])
    def test_bad_trials_or_seed_rejected(self, trials, master_seed, problem):
        with pytest.raises(ValueError) as exc:
            ExperimentSpec(name="rip-rno", grid=({"n": 60, "d": 12, "s": 2},), trials=trials,
                           master_seed=master_seed)
        assert problem in str(exc.value)

    def test_defaults_filled_and_floats_coerced(self):
        spec = mini_spec("rot-check", [{"n": 50, "d": 8, "k": 3, "epsilon": 1}], 30)
        assert spec.point(0) == {"n": 50, "d": 8, "k": 3, "rotation": "haar",
                                 "epsilon": 1.0, "max_exceed": None, "mc_trials": 30}
        assert spec.grid == ({"n": 50, "d": 8, "k": 3, "epsilon": 1},)

    def test_benchmark_grids_validate(self, bench_run):
        for experiments in bench_run.WORKLOADS.values():
            for name, cfg in experiments:
                ExperimentSpec(name=name, grid=tuple(cfg["grid"]), trials=cfg["trials"],
                               master_seed=0)


@pytest.fixture(scope="module")
def bench_run():
    """``bench/run.py`` as a module, with ``bench/`` on the import path for its
    ``checks`` and ``tracing`` modules."""
    bench = Path(__file__).resolve().parents[1] / "bench"
    sys.path.insert(0, str(bench))
    try:
        loader = importlib.util.spec_from_file_location("bench_run", bench / "run.py")
        module = importlib.util.module_from_spec(loader)
        loader.loader.exec_module(module)
        yield module
    finally:
        sys.path.remove(str(bench))


@pytest.mark.parametrize("workload", ["re-cert", "rot-tail", "lasso-rate", "enum-rno"])
def test_benchmark_pass_keeps_its_traced_calls(workload, bench_run, tmp_path):
    # one traced pass per workload: a refactor that hides a traced call from the
    # tracer, or renames an argument the checks read, fails here
    import checks
    import tracing

    from rotlasso import cli

    tracer = tracing.Tracer()
    tracer.install()
    try:
        p = bench_run.run_pass(cli, bench_run.WORKLOADS[workload], 1000, tmp_path)
    finally:
        tracer.uninstall()
    assert p["errors"] == [] and p["failed"] == 0
    report = bench_run.check_captures(checks, np, workload, tracer.captures, 1)
    assert {layer: r["failures"] for layer, r in report.items() if r["failures"]} == {}
    for layer in bench_run.REQUIRED_CAPTURES[workload]:
        assert report[layer]["checked"] > 0
    if workload == "rot-tail":
        # one tail check per grid point, one partial rotation per Monte Carlo
        # trial (400 + 400 + 100): batching or bypassing them hides them from the tracer
        assert tracer.stats["certificates.partial_rotation_failure_rate"]["calls"] == 3
        assert tracer.stats["designs.partially_rotate"]["calls"] == 900
    if workload == "lasso-rate":
        # every solve ends on the sphere with a relative duality gap of at
        # most 1e-8, at about 670 path segments a pass
        solves = [sol for _, sol in tracer.captures["lasso.lasso_constrained"]]
        assert solves and all(sol.stop == "sphere" for sol in solves)
        assert all(sol.duality_gap <= 1e-8 * sol.objective for sol in solves)
        assert tracer.stats["lasso.lasso_constrained"]["iterations"] <= 1_000


class TestThmMain:
    def test_small_run_passes(self):
        spec = mini_spec("thm-main", [{"n": 120, "d": 24, "k": 2}], 4)
        rows = run_experiment(spec)
        assert len(rows) == 4
        for r in rows:
            assert r.values["ratio"] == pytest.approx(
                r.values["gamma_x"] / r.values["gamma_xs"], rel=1e-12)
            assert r.passed is (r.values["ratio"] >= 0.9 * 0.99)

    def test_tiny_n_records_rows_without_crash(self):
        spec = mini_spec("thm-main", [{"n": 3, "d": 6, "k": 2}], 3)
        rows = run_experiment(spec)
        assert len(rows) == 3
        for r in rows:
            assert math.isfinite(r.values["ratio"])

    def test_semirandom_design_variant(self):
        spec = mini_spec("thm-main", [{"n": 100, "d": 16, "k": 2,
                                       "design": "semirandom"}], 2)
        rows = run_experiment(spec)
        assert all(r.values["design"] == "semirandom" for r in rows)
        assert all(r.passed for r in rows)


class TestLassoRate:
    def test_noiseless_grid_point(self):
        spec = mini_spec("lasso-rate", [{"n": 60, "d": 24, "k": 2, "sigma": 0.0,
                                         "groups": 4}], 2)
        rows = run_experiment(spec)
        for r in rows:
            assert r.values["pred_error"] <= 1e-8

    def test_error_decreases_with_n(self):
        medians = {}
        for n in (100, 400):
            spec = mini_spec("lasso-rate", [{"n": n, "d": 32, "k": 2, "sigma": 1.0,
                                             "groups": 8}], 10)
            rows = run_experiment(spec)
            medians[n] = np.median([r.values["pred_error"] for r in rows])
        assert medians[400] <= medians[100]

    def test_every_solve_of_an_off_benchmark_grid_is_exact(self, bench_run, monkeypatch):
        # 320 solves over both designs, groups 1 and 8, rho 0 and 0.05, n < d
        # and n > d, noiseless and noisy.  Each passes the benchmark's check,
        # and its objective is within 1e-12 ||y||^2 (the objective at b = 0,
        # a scale that also covers fits whose optimum is 0) of the dual lower
        # bound at its own residual, so of the optimum.  The worst is 2.4e-14.
        import checks

        solves = []

        def record(inst, radius):
            sol = lasso_constrained(inst, radius)
            solves.append((inst, radius, sol))
            return sol

        designs = [{"design": "semirandom"}] + [
            {"groups": g, "rho": rho} for g in (1, 8) for rho in (0.0, 0.05)]
        grid = [{"n": n, "d": d, "k": k, "sigma": sigma, **design}
                for design in designs for n in (50, 200) for d in (64, 300)
                for k in (2, 8) for sigma in (0.0, 1.0)]
        monkeypatch.setattr(harness, "lasso_constrained", record)
        run_experiment(mini_spec("lasso-rate", grid, 2))
        assert len(solves) == 320
        for inst, radius, sol in solves:
            E, y = inst.X.entries, inst.y
            assert checks.check_lasso(E, y, radius, sol.beta_hat, sol.objective_trace,
                                      sol.fixed_point_residual, sol.converged) == []
            assert sol.converged and sol.stop in ("sphere", "interior")
            assert sol.objective - dual_bound(E, y, sol.beta_hat, radius) <= 1e-12 * float(y @ y)

    def test_rows_within_bound(self):
        spec = mini_spec("lasso-rate", [{"n": 100, "d": 64, "k": 4, "sigma": 1.0,
                                         "groups": 16}], 4)
        rows = run_experiment(spec)
        for r in rows:
            assert r.values["pred_error"] <= 30 * r.values["theory_bound"]
            assert r.passed


class TestRnoWhp:
    def test_rotated_designs_decorrelate(self):
        spec = mini_spec("rno-whp", [{"n": 200, "d": 20, "k": 5, "s": 2,
                                      "rotation": "haar", "epsilon": 0.25}], 5)
        rows = run_experiment(spec)
        for r in rows:
            assert r.values["rno_eps"] <= 0.5
            assert r.passed

    def test_negative_control_hits_one(self):
        spec = mini_spec("rno-whp", [{"n": 50, "d": 10, "k": 3, "s": 1,
                                      "rotation": "none", "base": "cross-dup",
                                      "epsilon": 0.25}], 2)
        rows = run_experiment(spec)
        for r in rows:
            assert r.values["rno_eps"] == pytest.approx(1.0, abs=1e-9)
            assert r.passed is False

    def test_eps_decreases_with_n(self):
        medians = {}
        for n in (100, 400):
            spec = mini_spec("rno-whp", [{"n": n, "d": 16, "k": 4, "s": 2,
                                          "rotation": "haar", "epsilon": 0.25}], 8)
            rows = run_experiment(spec)
            medians[n] = np.median([r.values["rno_eps"] for r in rows])
        assert medians[400] <= medians[100]


class TestRipRno:
    def test_every_row_passes(self):
        spec = mini_spec("rip-rno", [{"n": 60, "d": 12, "s": 2}], 5)
        rows = run_experiment(spec)
        assert all(r.passed for r in rows)
        assert hard_experiments_pass(spec, rows)

    def test_pair_decomposition_matches_public_op(self):
        # the family-wide maximum equals the worst rno constant over all
        # boundary sets of the matching size
        from conftest import gaussian_design
        X = gaussian_design(40, 8, seed=123)
        s = 2
        eps_max, sup_a, sup_b = max_rno_over_disjoint_pairs(X, s)
        per_set = max(
            rno_constant(X, SupportSet(8, idx), s).value
            for idx in itertools.combinations(range(8), s)
        )
        assert eps_max == pytest.approx(per_set, abs=1e-12)
        assert not set(sup_a) & set(sup_b)


class TestCounterexample:
    def test_default_grid(self):
        spec = default_spec("counterexample")
        rows = run_experiment(spec)
        for r in rows:
            k = r.values["k"]
            assert r.values["witness_ratio"] == pytest.approx(k / (k + k * k / 2), rel=1e-12)
            assert abs(r.values["gamma_prime_xs"] - 1.0) <= 1e-6
            assert r.values["gamma_prime_x"] <= r.values["witness_ratio"] + 1e-6
            # the collapse is specific to the whole-vector denominator: the
            # on-support constant stays bounded away from zero as k grows
            assert r.values["gamma_x"] >= 0.5
            assert r.passed

    def test_witness_vector_shape(self):
        w = counterexample_witness(8, 4)
        dense = w.to_dense()
        assert list(dense) == [1, 1, 1, 1, 2, -2, 0, 0]


class TestSparsifyBound:
    def test_rows_always_within_bound(self):
        spec = mini_spec("sparsify-bound", [{"n": 30, "d": 50, "s": 25}], 50)
        rows = run_experiment(spec)
        assert all(r.passed for r in rows)
        assert np.median([r.values["attempts"] for r in rows]) <= 2


class TestRotCheck:
    def test_epsilon_one_is_exact(self):
        spec = mini_spec("rot-check", [{"n": 40, "d": 6, "k": 2, "rotation": "haar",
                                        "epsilon": 1.0}], 50)
        rows = run_experiment(spec)
        assert len(rows) == 1
        assert rows[0].values["exceedances"] == 0
        assert rows[0].passed

    def test_aggregates_trials_into_one_row(self):
        spec = mini_spec("rot-check", [{"n": 50, "d": 6, "k": 2, "rotation": "haar",
                                        "epsilon": 0.5, "max_exceed": 2}], 200)
        rows = run_experiment(spec)
        assert len(rows) == 1
        assert rows[0].values["mc_trials"] == 200


class TestEmitAndDeterminism:
    def test_outputs_are_bit_identical_across_runs_and_workers(self, tmp_path):
        spec = mini_spec("counterexample", [{"k": 4, "n": 50, "d": 8}], 2)
        rows1 = run_experiment(spec, workers=1)
        rows2 = run_experiment(spec, workers=2)
        emit_results(spec, rows1, tmp_path / "a")
        emit_results(spec, rows2, tmp_path / "b")
        for fname in ("counterexample.csv", "counterexample.summary.json"):
            assert (tmp_path / "a" / fname).read_bytes() == (tmp_path / "b" / fname).read_bytes()

    def test_experiments_of_one_command_share_a_pool(self, monkeypatch):
        specs = [mini_spec("sparsify-bound", [{"n": 20, "d": 30, "s": 10}], 3),
                 mini_spec("counterexample", [{"k": 4, "n": 50, "d": 8}], 2)]
        opened = []
        worker_pool = harness._worker_pool

        def counted(workers):
            opened.append(workers)
            return worker_pool(workers)

        monkeypatch.setattr(harness, "_worker_pool", counted)
        shared = list(harness.run_experiments(specs, workers=2))
        assert opened == [2]
        assert [spec for spec, _ in shared] == specs
        for spec, rows in shared:
            assert [(r.grid_index, r.trial, r.values) for r in rows] == [
                (r.grid_index, r.trial, r.values) for r in run_experiment(spec)]

    def test_workers_start_with_one_blas_thread(self, monkeypatch):
        # a count the caller set is kept; the parent's environment is restored
        monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        monkeypatch.setenv("MKL_NUM_THREADS", "3")
        names = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        with harness._worker_pool(2) as pool:
            seen = list(pool.map(os.getenv, names))
        assert seen == ["1", "1", "3"]
        assert [os.environ.get(v) for v in names] == [None, None, "3"]

    @pytest.mark.parametrize("workers", [0, -1])
    def test_workers_below_one_rejected(self, workers):
        spec = mini_spec("sparsify-bound", [{"n": 20, "d": 30, "s": 10}], 1)
        with pytest.raises(ValueError, match="workers"):
            run_experiment(spec, workers=workers)

    def test_master_seed_changes_measurements(self):
        g = [{"n": 30, "d": 40, "s": 10}]
        r1 = run_experiment(mini_spec("sparsify-bound", g, 3, seed=1))
        r2 = run_experiment(mini_spec("sparsify-bound", g, 3, seed=2))
        assert any(a.values["error"] != b.values["error"] for a, b in zip(r1, r2))

    def test_csv_columns_and_timing_sidecar(self, tmp_path):
        spec = mini_spec("sparsify-bound", [{"n": 20, "d": 30, "s": 10}], 3)
        rows = run_experiment(spec)
        paths = emit_results(spec, rows, tmp_path)
        header = (tmp_path / "sparsify-bound.csv").read_text().splitlines()[0]
        assert header == ",".join(EXPERIMENTS["sparsify-bound"].columns)
        assert "wall_time" not in header
        timing = json.loads((tmp_path / "sparsify-bound.timing.json").read_text())
        assert timing["rows"] == 3
        summary = json.loads((tmp_path / "sparsify-bound.summary.json").read_text())
        assert summary["hard"] is True
        assert summary["all_rows_pass"] is True
        assert summary["grid_points"][0]["medians"]["error"] is not None

    def test_version_is_read_once_per_process(self, tmp_path, monkeypatch):
        spec = mini_spec("sparsify-bound", [{"n": 20, "d": 30, "s": 10}], 1)
        rows = run_experiment(spec)
        calls = []
        run = harness.subprocess.run
        monkeypatch.setattr(harness.subprocess, "run",
                            lambda cmd, **kw: calls.append(cmd[0]) or run(cmd, **kw))
        harness.version_string.cache_clear()
        try:
            emit_results(spec, rows, tmp_path / "a")
            emit_results(spec, rows, tmp_path / "b")
        finally:
            harness.version_string.cache_clear()
        assert calls == ["git"]
        versions = [json.loads((tmp_path / sub / "sparsify-bound.summary.json").read_text())
                    ["version"] for sub in ("a", "b")]
        assert versions[0] == versions[1] == harness.version_string()

    def test_pass_recomputable_from_row(self, tmp_path):
        # every recorded pass flag is a pure function of the row's own fields
        spec = mini_spec("rip-rno", [{"n": 40, "d": 10, "s": 2}], 3)
        rows = run_experiment(spec)
        emit_results(spec, rows, tmp_path)
        import csv as csvmod
        with open(tmp_path / "rip-rno.csv") as fh:
            for rec in csvmod.DictReader(fh):
                recomputed = float(rec["rno_eps_max"]) <= float(rec["rno_bound"]) + 1e-9
                assert rec["pass"] == str(recomputed)

    def test_default_configs_cover_all_experiments(self):
        assert tuple(EXPERIMENTS) == ("thm-main", "lasso-rate", "rno-whp", "rip-rno",
                                      "counterexample", "sparsify-bound", "rot-check")
        for name in EXPERIMENTS:
            default_spec(name)

    @pytest.mark.parametrize("name, header", [
        ("thm-main", "grid_index,n,d,k,rho,design,trial,gamma_xs,gamma_x,ratio,pass"),
        ("lasso-rate", "grid_index,n,d,k,sigma,trial,gamma_hat,theory_bound,pred_error,"
                       "pred_error_gauss,pass"),
        ("rno-whp", "grid_index,n,d,k,s,rotation,base,epsilon,trial,rno_eps,gamma_xs,gamma_x,"
                    "ratio,c_min,holds_c2,holds_c4,holds_c8,pass"),
        ("rip-rno", "grid_index,n,d,s,trial,rip_delta,rno_bound,rno_eps_max,pass"),
        ("counterexample", "grid_index,n,d,k,trial,gamma_prime_xs,witness_ratio,"
                           "gamma_prime_x,gamma_x,pass"),
        ("sparsify-bound", "grid_index,n,d,s,trial,l1_beta,bound,error,attempts,pass"),
        ("rot-check", "grid_index,n,d,k,rotation,epsilon,max_exceed,trial,mc_trials,"
                      "exceedances,rate,pass"),
    ])
    def test_csv_header_is_append_only(self, name, header, tmp_path):
        # columns are only ever appended to their section: a reorder, rename
        # or removal changes a header pinned here
        emit_results(default_spec(name), [], tmp_path)
        assert (tmp_path / f"{name}.csv").read_text().splitlines()[0] == header
