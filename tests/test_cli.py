import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import rotlasso
from rotlasso import read_design, read_support
from rotlasso.cli import main


def run_cli(args):
    return main([str(a) for a in args])


class TestGen:
    def test_counterexample_files(self, tmp_path):
        out = tmp_path / "cex"
        assert run_cli(["gen", "--kind", "counterexample", "--n", 30, "--d", 8,
                        "--k", 4, "--seed", 3, "--out", out]) == 0
        X, sidecar = read_design(out)
        assert (X.n_rows, X.n_cols) == (30, 8)
        assert sidecar["normalized"]
        S = read_support(tmp_path / "cex.support.json")
        assert S.indices == (0, 1, 2, 3)
        assert np.array_equal(X.entries[:, 4], X.entries[:, 5])

    @pytest.mark.parametrize("kind", ["partial-rot", "semirandom", "correlated"])
    def test_other_kinds_normalized(self, kind, tmp_path):
        out = tmp_path / kind
        assert run_cli(["gen", "--kind", kind, "--n", 24, "--d", 6, "--k", 2,
                        "--seed", 1, "--out", out]) == 0
        X, _ = read_design(out)
        assert np.allclose(np.linalg.norm(X.entries, axis=0), math.sqrt(24), rtol=1e-9)

    def test_adversary_appends_columns(self, tmp_path):
        out = tmp_path / "adv"
        assert run_cli(["gen", "--kind", "adversary", "--n", 20, "--d", 5,
                        "--d-prime", 3, "--seed", 2, "--out", out]) == 0
        X, _ = read_design(out)
        assert X.n_cols == 8
        S = read_support(tmp_path / "adv.support.json")
        assert S.indices == (0, 1, 2, 3, 4)

    @pytest.mark.parametrize("flags, flag", [
        (["--kind", "partial-rot", "--n", 0], "--n"),
        (["--kind", "partial-rot", "--d", 0], "--d"),
        (["--kind", "partial-rot", "--k", -1], "--k"),
        (["--kind", "partial-rot", "--k", 9], "--k"),
        (["--kind", "adversary", "--d-prime", -3], "--d-prime"),
        (["--kind", "adversary", "--d-prime", 10], "--d-prime"),
        (["--kind", "correlated", "--k", 2, "--groups", 0], "--groups"),
        (["--kind", "correlated", "--k", 2, "--groups", 5], "--groups"),
        (["--kind", "correlated", "--k", 0], "--k"),
        (["--kind", "correlated", "--k", 2, "--rho", -0.1], "--rho"),
        (["--kind", "correlated", "--k", 2, "--rho", "nan"], "--rho"),
        (["--kind", "correlated", "--k", 2, "--rho", "inf"], "--rho"),
        (["--kind", "counterexample", "--k", 0], "--k"),
        (["--kind", "counterexample", "--k", 4, "--n", 5], "--n"),
        (["--kind", "counterexample", "--k", 5], "--d"),
    ], ids=["n-zero", "d-zero", "k-negative", "k-above-d", "d-prime-negative", "d-prime-above-d",
            "groups-zero", "groups-above-d-minus-k", "correlated-k-zero", "rho-negative",
            "rho-nan", "rho-inf", "counterexample-k-zero", "counterexample-n-below-k-plus-2",
            "counterexample-d-below-k-plus-2"])
    def test_bad_counts_rejected(self, flags, flag, tmp_path, capsys):
        out = tmp_path / "bad"
        with pytest.raises(SystemExit) as exc:
            run_cli(["gen", "--n", 12, "--d", 6, "--seed", 1, "--out", out, *flags])
        assert exc.value.code == 2
        assert f"argument {flag}:" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("flags, flag", [
        (["--kind", "correlated", "--k", 2, "--d-prime", 3], "--d-prime"),
        (["--kind", "correlated", "--k", 2, "--rotation", "gaussian"], "--rotation"),
        (["--kind", "correlated", "--k", 2, "--base", "m"], "--base"),
        (["--kind", "counterexample", "--k", 2, "--base", "m"], "--base"),
        (["--kind", "semirandom", "--k", 2, "--rotation", "rademacher"], "--rotation"),
        (["--kind", "partial-rot", "--k", 2, "--rho", 0.1], "--rho"),
        (["--kind", "semirandom", "--k", 2, "--groups", 2], "--groups"),
        (["--kind", "adversary", "--k", 2], "--k"),
    ], ids=["d-prime-correlated", "rotation-correlated", "base-correlated",
            "base-counterexample", "rotation-semirandom", "rho-partial-rot",
            "groups-semirandom", "k-adversary"])
    def test_unread_flag_rejected(self, flags, flag, tmp_path, capsys):
        # a flag that the kind never reads would leave the design unchanged;
        # the missing --base file is never opened
        out = tmp_path / "bad"
        with pytest.raises(SystemExit) as exc:
            run_cli(["gen", "--n", 12, "--d", 6, "--seed", 1, "--out", out, *flags])
        assert exc.value.code == 2
        assert f"argument {flag}: not read by" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_gen_is_deterministic(self, tmp_path):
        for name in ("a", "b"):
            run_cli(["gen", "--kind", "correlated", "--n", 12, "--d", 5, "--k", 2,
                     "--seed", 9, "--out", tmp_path / name])
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


class TestCert:
    @pytest.fixture
    def stored_design(self, tmp_path):
        out = tmp_path / "design"
        run_cli(["gen", "--kind", "counterexample", "--n", 50, "--d", 9, "--k", 4,
                 "--seed", 5, "--out", out])
        return out

    def test_re_prime_output_schema(self, stored_design, tmp_path):
        out = tmp_path / "cert.json"
        assert run_cli(["cert", "--what", "re-prime", "--matrix", stored_design,
                        "--support", stored_design.parent / "design.support.json",
                        "--seed", 1, "--out", out]) == 0
        cert = json.loads(out.read_text())
        assert set(cert) == {"kind", "value", "witness", "method", "solver_report"}
        assert cert["kind"] == "re_gamma_prime"
        assert cert["value"] <= 4 / (4 + 8) + 1e-6
        assert cert["witness"]["type"] == "vector"
        # the rule that ended the joint descent, and converged as that rule reads it
        report = cert["solver_report"]
        assert report["stop"] == "residual" and report["converged"] is True

    def test_lambda_min(self, stored_design, tmp_path):
        out = tmp_path / "lam.json"
        run_cli(["cert", "--what", "lambda-min", "--matrix", stored_design,
                 "--support", '{"dim": 9, "indices": [0, 1, 2, 3]}', "--out", out])
        cert = json.loads(out.read_text())
        assert cert["value"] == pytest.approx(1.0, abs=1e-9)

    def test_rno_and_rip(self, stored_design, tmp_path):
        out = tmp_path / "rno.json"
        run_cli(["cert", "--what", "rno", "--matrix", stored_design,
                 "--support", '[0, 1, 2, 3]', "--s", 2, "--out", out])
        rno = json.loads(out.read_text())
        assert 0.0 <= rno["value"] <= 1.0
        assert rno["witness"]["type"] == "support_pair"
        assert rno["solver_report"]["stop"] is None  # an enumeration, not a descent
        out2 = tmp_path / "rip.json"
        run_cli(["cert", "--what", "rip", "--matrix", stored_design, "--s", 2,
                 "--out", out2])
        rip = json.loads(out2.read_text())
        # the duplicated pair forces the deviation of a two-column submatrix
        assert rip["value"] >= math.sqrt(2) - 1 - 1e-9
        assert rip["rescaled_by"] == "1/sqrt(50)"

    @pytest.mark.parametrize("what", ["rno", "rip"])
    @pytest.mark.parametrize("count", [0, -1])
    def test_sample_pairs_below_one_rejected(self, what, count, stored_design, tmp_path, capsys):
        out = tmp_path / "cert.json"
        with pytest.raises(SystemExit) as exc:
            run_cli(["cert", "--what", what, "--matrix", stored_design, "--support", "[0, 1]",
                     "--s", 1, "--sample-pairs", count, "--out", out])
        assert exc.value.code == 2
        assert "--sample-pairs" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("what, flag, value", [
        ("rip", "--s", 0), ("rip", "--cap", -5), ("rno", "--s", 0), ("rot-check", "--trials", 0)])
    def test_counts_below_one_rejected(self, what, flag, value, stored_design, tmp_path, capsys):
        out = tmp_path / "cert.json"
        with pytest.raises(SystemExit) as exc:
            run_cli(["cert", "--what", what, "--matrix", stored_design,
                     "--support", "[0, 1, 2, 3]", flag, value, "--out", out])
        assert exc.value.code == 2
        assert flag in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flags, flag", [
        (["--what", "re", "--support", "[0, 1]", "--cone-slack", 0.5], "--cone-slack"),
        (["--what", "re-prime", "--support", "[0, 1]", "--method", "oracle"], "--method"),
        (["--what", "re", "--support", "[0, 1, 2, 3]", "--method", "oracle"], "--method"),
        (["--what", "re"], "--support"),
        (["--what", "re", "--support", "[0, 9]"], "--support"),
        (["--what", "lambda-min", "--support", "[]"], "--support"),
        (["--what", "rno", "--support", "[0, 1, 2, 3]", "--s", 5], "--s"),
        (["--what", "rip", "--s", 10], "--s"),
    ], ids=["cone-slack-below-one", "oracle-re-prime", "oracle-four-columns", "no-support",
            "index-not-below-d", "empty-support", "rno-s-above-side", "rip-s-above-d"])
    def test_bad_input_rejected(self, flags, flag, stored_design, tmp_path, capsys):
        out = tmp_path / "cert.json"
        with pytest.raises(SystemExit) as exc:
            run_cli(["cert", "--matrix", stored_design, *flags, "--out", out])
        assert exc.value.code == 2
        assert f"argument {flag}:" in capsys.readouterr().err
        assert not out.exists()

    def test_oracle_method(self, tmp_path):
        out = tmp_path / "g"
        # perturbed groups, where the free minimiser leaves the cone
        run_cli(["gen", "--kind", "correlated", "--n", 16, "--d", 6, "--k", 2,
                 "--groups", 2, "--rho", 0.05, "--seed", 4, "--out", out])
        res_ms = tmp_path / "ms.json"
        res_go = tmp_path / "go.json"
        sup = '{"dim": 6, "indices": [0, 1]}'
        run_cli(["cert", "--what", "re", "--matrix", out, "--support", sup,
                 "--method", "multistart", "--out", res_ms])
        run_cli(["cert", "--what", "re", "--matrix", out, "--support", sup,
                 "--method", "oracle", "--out", res_go])
        ms = json.loads(res_ms.read_text())
        go = json.loads(res_go.read_text())
        assert ms["method"] == "multistart" and go["method"] == "grid_oracle"
        # mode gamma's descent ends on its residual certificate
        assert ms["solver_report"]["stop"] == "residual"
        assert abs(ms["value"] - go["value"]) <= 1e-3 * max(go["value"], 1e-12)

    def test_rot_check(self, stored_design, tmp_path):
        out = tmp_path / "rc.json"
        run_cli(["cert", "--what", "rot-check", "--matrix", stored_design,
                 "--support", '[0, 1, 2, 3]', "--epsilon", 1.0, "--trials", 50,
                 "--seed", 2, "--out", out])
        rc = json.loads(out.read_text())
        assert rc["rate"] == 0.0
        assert isinstance(rc["exceedances"], int)
        assert rc["exceedances"] / rc["trials"] == rc["rate"]

    def test_rot_check_rejects_nan_epsilon(self, stored_design, tmp_path, capsys):
        out = tmp_path / "rc.json"
        with pytest.raises(SystemExit) as exc:
            run_cli(["cert", "--what", "rot-check", "--matrix", stored_design,
                     "--support", '[0, 1, 2, 3]', "--epsilon", "nan", "--trials", 5,
                     "--out", out])
        assert exc.value.code == 2
        assert "argument --epsilon:" in capsys.readouterr().err
        assert not out.exists()


class TestSparsifyAndLasso:
    def test_sparsify_json(self, tmp_path):
        out = tmp_path / "m"
        run_cli(["gen", "--kind", "correlated", "--n", 20, "--d", 12, "--k", 3,
                 "--seed", 6, "--out", out])
        res = tmp_path / "sp.json"
        beta = json.dumps({"dim": 12, "terms": [[i, 1.0] for i in range(12)]})
        run_cli(["sparsify", "--s", 4, "--matrix", out, "--beta", beta,
                 "--seed", 3, "--out", res])
        data = json.loads(res.read_text())
        assert len(data["beta_prime"]["terms"]) <= 4
        assert data["error"] <= data["bound"]

    def test_sparsify_rejects_s_below_one(self, tmp_path, capsys):
        out = tmp_path / "m"
        run_cli(["gen", "--kind", "correlated", "--n", 20, "--d", 12, "--k", 3,
                 "--seed", 6, "--out", out])
        with pytest.raises(SystemExit) as exc:
            run_cli(["sparsify", "--s", 0, "--matrix", out, "--beta", "[1.0, 1.0]",
                     "--out", tmp_path / "sp.json"])
        assert exc.value.code == 2
        assert "argument --s:" in capsys.readouterr().err
        assert not (tmp_path / "sp.json").exists()

    def test_lasso_synthesize(self, tmp_path):
        out = tmp_path / "m"
        run_cli(["gen", "--kind", "correlated", "--n", 40, "--d", 10, "--k", 2,
                 "--seed", 8, "--out", out])
        res = tmp_path / "sol.json"
        beta = '{"dim": 10, "terms": [[0, 1.0], [1, -1.0]]}'
        run_cli(["lasso", "--matrix", out, "--y", "synthesize", "--beta", beta,
                 "--sigma", 0.0, "--seed", 4, "--out", res])
        sol = json.loads(res.read_text())
        assert sol["converged"]
        # the length of the solver's last projected-gradient step, as the converged rule reads it
        assert 0.0 <= sol["fixed_point_residual"] <= 1e-6 * (1.0 + np.linalg.norm(sol["beta_hat"]))
        # the duality gap bounds the objective's distance to the optimum, here 0
        assert 0.0 <= sol["objective"] <= sol["duality_gap"] <= 1e-5
        assert sol["prediction_error"] <= 1e-8
        assert sol["parameter_errors"]["l1"] >= 0.0
        # beta is the least-squares fit and has l1 norm the radius, so lam and
        # the distance to the sphere reach 0 together, and rounding decides
        # which one the walk reports.  Either way it ends on that exact point.
        X, _ = read_design(out)
        y = X.entries[:, 0] - X.entries[:, 1]
        assert np.abs(sol["beta_hat"]).sum() == pytest.approx(sol["radius"], rel=1e-12)
        assert sol["objective"] <= 1e-20 * float(y @ y)
        assert sol["stop"] in ("sphere", "interior")

    def test_lasso_requires_radius_for_file_response(self, tmp_path, capsys):
        out = tmp_path / "m"
        run_cli(["gen", "--kind", "correlated", "--n", 10, "--d", 4, "--k", 1,
                 "--seed", 1, "--out", out])
        y = tmp_path / "y.csv"
        np.savetxt(y, np.zeros(10), delimiter=",")
        with pytest.raises(SystemExit) as exc:
            run_cli(["lasso", "--matrix", out, "--y", y])
        assert exc.value.code == 2
        assert "argument --radius:" in capsys.readouterr().err

    def test_lasso_synthesize_requires_beta(self, tmp_path, capsys):
        out = tmp_path / "m"
        run_cli(["gen", "--kind", "correlated", "--n", 10, "--d", 4, "--k", 1,
                 "--seed", 1, "--out", out])
        with pytest.raises(SystemExit) as exc:
            run_cli(["lasso", "--matrix", out, "--y", "synthesize", "--radius", 1.0])
        assert exc.value.code == 2
        assert "argument --beta:" in capsys.readouterr().err

    def test_lasso_rejects_sigma_for_file_response(self, tmp_path, capsys):
        # the response file is the data; there is no noise to draw
        out = tmp_path / "m"
        run_cli(["gen", "--kind", "correlated", "--n", 10, "--d", 4, "--k", 1,
                 "--seed", 1, "--out", out])
        y = tmp_path / "y.csv"
        np.savetxt(y, np.zeros(10), delimiter=",")
        for sigma in (0.5, "nan"):
            with pytest.raises(SystemExit) as exc:
                run_cli(["lasso", "--matrix", out, "--y", y, "--radius", 1.0, "--sigma", sigma,
                         "--out", tmp_path / "sol.json"])
            assert exc.value.code == 2
            assert "argument --sigma:" in capsys.readouterr().err
        assert not (tmp_path / "sol.json").exists()

    def test_lasso_rejects_nan_radius(self, tmp_path, capsys):
        out = tmp_path / "m"
        run_cli(["gen", "--kind", "correlated", "--n", 10, "--d", 4, "--k", 1,
                 "--seed", 1, "--out", out])
        beta = '{"dim": 4, "terms": [[0, 1.0]]}'
        with pytest.raises(SystemExit) as exc:
            run_cli(["lasso", "--matrix", out, "--y", "synthesize", "--beta", beta,
                     "--radius", "nan", "--out", tmp_path / "sol.json"])
        assert exc.value.code == 2
        assert "argument --radius:" in capsys.readouterr().err
        assert not (tmp_path / "sol.json").exists()

    def test_lasso_rejects_nan_sigma(self, tmp_path, capsys):
        out = tmp_path / "m"
        run_cli(["gen", "--kind", "correlated", "--n", 10, "--d", 4, "--k", 1,
                 "--seed", 1, "--out", out])
        beta = '{"dim": 4, "terms": [[0, 1.0]]}'
        with pytest.raises(SystemExit) as exc:
            run_cli(["lasso", "--matrix", out, "--y", "synthesize", "--beta", beta,
                     "--sigma", "nan", "--out", tmp_path / "sol.json"])
        assert exc.value.code == 2
        assert "argument --sigma:" in capsys.readouterr().err
        assert not (tmp_path / "sol.json").exists()

    @pytest.mark.parametrize("flag", ["--sigma", "--radius"])
    def test_lasso_rejects_negative_sigma_or_radius(self, flag, tmp_path, capsys):
        out = tmp_path / "m"
        run_cli(["gen", "--kind", "correlated", "--n", 10, "--d", 4, "--k", 1,
                 "--seed", 1, "--out", out])
        beta = '{"dim": 4, "terms": [[0, 1.0]]}'
        with pytest.raises(SystemExit) as exc:
            run_cli(["lasso", "--matrix", out, "--y", "synthesize", "--beta", beta,
                     flag, -0.5, "--out", tmp_path / "sol.json"])
        assert exc.value.code == 2
        assert f"argument {flag}:" in capsys.readouterr().err
        assert not (tmp_path / "sol.json").exists()


class TestExp:
    def test_exp_with_inline_config(self, tmp_path):
        cfg = json.dumps({"grid": [{"k": 4, "n": 40, "d": 8}], "trials": 1})
        code = run_cli(["exp", "counterexample", "--config", cfg,
                        "--out-dir", tmp_path, "--seed", 3])
        assert code == 0
        assert (tmp_path / "counterexample.csv").exists()
        assert (tmp_path / "counterexample.summary.json").exists()

    def test_exp_rerun_bit_identical(self, tmp_path):
        cfg = json.dumps({"grid": [{"n": 20, "d": 30, "s": 10}], "trials": 5})
        run_cli(["exp", "sparsify-bound", "--config", cfg,
                 "--out-dir", tmp_path / "r1", "--seed", 9])
        run_cli(["exp", "sparsify-bound", "--config", cfg,
                 "--out-dir", tmp_path / "r2", "--seed", 9, "--workers", 2])
        a = (tmp_path / "r1" / "sparsify-bound.csv").read_bytes()
        b = (tmp_path / "r2" / "sparsify-bound.csv").read_bytes()
        assert a == b

    @pytest.mark.parametrize("config, problem", [
        ('{"trials": 1}', "'grid'"),
        ('{"grid": [{"n": 20, "d": 30, "s": 10}]}', "'trials'"),
        ('{}', "'grid' and 'trials'"),
        ('[1, 2]', "JSON object"),
        ('{"grid": ', "cannot read config"),
    ])
    def test_config_without_grid_or_trials_rejected(self, config, problem, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(["exp", "sparsify-bound", "--config", config, "--out-dir", tmp_path])
        assert exc.value.code == 2
        assert problem in capsys.readouterr().err
        assert not tmp_path.joinpath("sparsify-bound.csv").exists()

    @pytest.mark.parametrize("config, problem", [
        ('{"grid": [{"n": 20, "d": 30, "s": 10}], "trials": 1, "tirals": 3}',
         "unknown key(s) ['tirals']"),
        ('{"grid": [], "trials": 1}', "grid must contain at least one point"),
        ('{"grid": [{"n": 20, "d": 30, "s": 10}], "trials": "x"}',
         "'trials' must be an integer, got 'x'"),
        ('{"grid": [{"n": 20, "d": 30, "s": 10, "sigma": 1}], "trials": 1}',
         "unknown grid key(s) ['sigma']"),
        ('{"grid": {"n": 20}, "trials": 1}', "'grid' must be a list of JSON objects"),
        ('{"grid": [{"n": 20, "d": 30, "s": 10}], "trials": 1, "master_seed": 1.5}',
         "'master_seed' must be an integer"),
    ])
    def test_config_with_bad_content_rejected(self, config, problem, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(["exp", "sparsify-bound", "--config", config, "--out-dir", tmp_path])
        assert exc.value.code == 2
        assert problem in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("name, point", [
        ("thm-main", {"n": 50, "d": 8, "k": 3, "groups": 6}),
        ("lasso-rate", {"n": 50, "d": 8, "k": 2, "groups": 0}),
        ("rno-whp", {"n": 50, "d": 8, "k": 3, "s": 1, "groups": 6}),
        ("rno-whp", {"n": 50, "d": 8, "k": 3, "s": 4}),
        ("rot-check", {"n": 50, "d": 8, "k": 3, "rotation": "haar"}),
        ("counterexample", {"k": 1}),
        ("counterexample", {"k": 1, "d": 3}),
        ("thm-main", {"n": 50, "d": 8, "k": 3, "design": "semirandm"}),
        ("rno-whp", {"n": 50, "d": 8, "k": 3, "s": 1, "rotation": "hadamard"}),
        ("rot-check", {"n": 50, "d": 8, "k": 3, "epsilon": 0.2, "rotation": "hadamard"}),
    ])
    def test_unrunnable_grid_point_rejected(self, name, point, tmp_path, capsys):
        cfg = json.dumps({"grid": [point], "trials": 1})
        with pytest.raises(SystemExit) as exc:
            run_cli(["exp", name, "--config", cfg, "--out-dir", tmp_path])
        assert exc.value.code == 2
        assert "bad experiment config" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("name, config, flags, named", [
        ("thm-main", {"grid": [{"n": 30.0, "d": 8, "k": 2}], "trials": 1}, [], "n must be"),
        ("thm-main", {"grid": [{"n": 50, "d": 8, "k": 2, "groups": 2.7}], "trials": 1}, [],
         "groups must be"),
        ("rot-check", {"grid": [{"n": 50, "d": 8, "k": 3, "epsilon": float("nan")}],
                       "trials": 5}, [], "epsilon must be"),
        ("rno-whp", {"grid": [{"n": 50, "d": 8, "k": 3, "s": 1, "epsilon": -3}], "trials": 1},
         [], "epsilon must lie"),
        ("sparsify-bound", {"grid": [{"n": 20, "d": 30, "s": 10}], "trials": 1},
         ["--seed", "-1"], "'master_seed' must lie"),
        ("sparsify-bound", {"grid": [{"n": 20, "d": 30, "s": 10}], "trials": 1,
                            "master_seed": 2**64}, [], "'master_seed' must lie"),
    ], ids=["n-float", "groups-fraction", "epsilon-nan", "epsilon-negative", "seed-negative",
            "seed-above-64-bits"])
    def test_malformed_value_rejected(self, name, config, flags, named, tmp_path, capsys):
        # a value of the wrong type or range is named before any trial runs
        with pytest.raises(SystemExit) as exc:
            run_cli(["exp", name, "--config", json.dumps(config), "--out-dir", tmp_path, *flags])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "bad experiment config" in err and named in err
        assert not any(tmp_path.iterdir())

    def test_config_with_all_rejected(self, tmp_path, capsys):
        cfg = json.dumps({"grid": [{"n": 20, "d": 30, "s": 10}], "trials": 1})
        with pytest.raises(SystemExit) as exc:
            run_cli(["exp", "all", "--config", cfg, "--out-dir", tmp_path])
        assert exc.value.code == 2
        assert "not to 'all'" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("workers", [0, -2])
    def test_workers_below_one_rejected(self, workers, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run_cli(["exp", "sparsify-bound", "--out-dir", tmp_path, "--workers", workers])
        assert exc.value.code == 2
        assert not tmp_path.joinpath("sparsify-bound.csv").exists()


def _modules_after_cli_import(prefix):
    """The modules under ``prefix`` that a fresh interpreter holds after
    importing ``rotlasso.cli``."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(rotlasso.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    code = ("import sys, rotlasso.cli; "
            f"print(sorted(m for m in sys.modules if m.startswith({prefix!r})))")
    res = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    return res.stdout.strip()


def test_cli_import_leaves_scipy_unloaded():
    # the package runs on numpy alone; scipy is a test-only dependency
    assert _modules_after_cli_import("scipy") == "[]"


def test_cli_import_leaves_multiprocessing_unloaded():
    # the worker pool's modules load only when a run asks for workers
    assert _modules_after_cli_import("multiprocessing") == "[]"
