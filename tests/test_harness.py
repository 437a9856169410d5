import importlib.util
import itertools
import json
import math
from pathlib import Path

import numpy as np
import pytest

from rotlasso import SeedSpec, SupportSet, rno_constant
from rotlasso.harness import (
    DEFAULT_CONFIGS,
    EXPERIMENT_NAMES,
    ExperimentSpec,
    columns_for,
    counterexample_witness,
    default_spec,
    emit_results,
    hard_experiments_pass,
    max_rno_over_disjoint_pairs,
    run_experiment,
)


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

    def test_json_round_trip(self):
        spec = default_spec("rip-rno")
        back = ExperimentSpec.from_json_dict(spec.to_json_dict())
        assert back == spec

    @pytest.mark.parametrize("name, point", [
        ("lasso-rate", {"n": 100, "d": 20, "k": 2, "sigm": 5.0}),
        ("rot-check", {"n": 100, "d": 10, "k": 3, "rotation": "haar", "epsilon": 0.2,
                       "mc_trial": 50}),
        ("counterexample", {"k": 4, "n": 100, "d": 12, "rho": 0.1}),
    ])
    def test_unknown_grid_key(self, name, point):
        with pytest.raises(ValueError, match="allowed keys"):
            ExperimentSpec(name=name, grid=(point,), trials=1, master_seed=0)

    def test_benchmark_grids_validate(self):
        path = Path(__file__).resolve().parents[1] / "bench" / "run.py"
        loader = importlib.util.spec_from_file_location("bench_run", path)
        bench_run = importlib.util.module_from_spec(loader)
        loader.loader.exec_module(bench_run)
        for experiments in bench_run.WORKLOADS.values():
            for name, cfg in experiments:
                ExperimentSpec(name=name, grid=tuple(cfg["grid"]), trials=cfg["trials"],
                               master_seed=0)


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
        assert header == ",".join(columns_for("sparsify-bound"))
        assert "wall_time" not in header
        timing = json.loads((tmp_path / "sparsify-bound.timing.json").read_text())
        assert timing["rows"] == 3
        summary = json.loads((tmp_path / "sparsify-bound.summary.json").read_text())
        assert summary["hard"] is True
        assert summary["all_rows_pass"] is True
        assert summary["grid_points"][0]["medians"]["error"] is not None

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
        assert set(DEFAULT_CONFIGS) == set(EXPERIMENT_NAMES)
        for name in EXPERIMENT_NAMES:
            default_spec(name)
