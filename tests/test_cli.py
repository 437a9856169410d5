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
        assert run_cli(["gen", "--kind", "adversary", "--n", 20, "--d", 5, "--k", 5,
                        "--d-prime", 3, "--seed", 2, "--out", out]) == 0
        X, _ = read_design(out)
        assert X.n_cols == 8
        S = read_support(tmp_path / "adv.support.json")
        assert S.indices == (0, 1, 2, 3, 4)

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

    def test_oracle_method(self, tmp_path):
        out = tmp_path / "g"
        run_cli(["gen", "--kind", "correlated", "--n", 16, "--d", 6, "--k", 2,
                 "--seed", 4, "--out", out])
        res_ms = tmp_path / "ms.json"
        res_go = tmp_path / "go.json"
        sup = '{"dim": 6, "indices": [0, 1]}'
        run_cli(["cert", "--what", "re", "--matrix", out, "--support", sup,
                 "--method", "multistart", "--out", res_ms])
        run_cli(["cert", "--what", "re", "--matrix", out, "--support", sup,
                 "--method", "oracle", "--out", res_go])
        ms = json.loads(res_ms.read_text())
        go = json.loads(res_go.read_text())
        assert go["method"] == "grid_oracle"
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

    def test_rot_check_rejects_nan_epsilon(self, stored_design, tmp_path):
        out = tmp_path / "rc.json"
        with pytest.raises(ValueError):
            run_cli(["cert", "--what", "rot-check", "--matrix", stored_design,
                     "--support", '[0, 1, 2, 3]', "--epsilon", "nan", "--trials", 5,
                     "--out", out])
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
        assert sol["prediction_error"] <= 1e-8
        assert sol["parameter_errors"]["l1"] >= 0.0

    def test_lasso_requires_radius_for_file_response(self, tmp_path):
        out = tmp_path / "m"
        run_cli(["gen", "--kind", "correlated", "--n", 10, "--d", 4, "--k", 1,
                 "--seed", 1, "--out", out])
        y = tmp_path / "y.csv"
        np.savetxt(y, np.zeros(10), delimiter=",")
        with pytest.raises(SystemExit):
            run_cli(["lasso", "--matrix", out, "--y", y])

    def test_lasso_rejects_nan_radius(self, tmp_path):
        out = tmp_path / "m"
        run_cli(["gen", "--kind", "correlated", "--n", 10, "--d", 4, "--k", 1,
                 "--seed", 1, "--out", out])
        beta = '{"dim": 4, "terms": [[0, 1.0]]}'
        with pytest.raises(ValueError):
            run_cli(["lasso", "--matrix", out, "--y", "synthesize", "--beta", beta,
                     "--radius", "nan", "--out", tmp_path / "sol.json"])

    def test_lasso_rejects_nan_sigma(self, tmp_path):
        out = tmp_path / "m"
        run_cli(["gen", "--kind", "correlated", "--n", 10, "--d", 4, "--k", 1,
                 "--seed", 1, "--out", out])
        beta = '{"dim": 4, "terms": [[0, 1.0]]}'
        with pytest.raises(ValueError, match="sigma"):
            run_cli(["lasso", "--matrix", out, "--y", "synthesize", "--beta", beta,
                     "--sigma", "nan", "--out", tmp_path / "sol.json"])
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


def test_cli_import_leaves_scipy_unloaded():
    # the package runs on numpy alone; scipy is a test-only dependency
    src = os.path.dirname(os.path.dirname(os.path.abspath(rotlasso.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    code = ("import sys, rotlasso.cli; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    res = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert res.stdout.strip() == "[]"
