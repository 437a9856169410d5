"""Each output check accepts the program's real output and rejects a corrupted one.

    python3 -m pytest -q bench/test_checks.py
"""

import csv
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import tracing  # noqa: E402
from rotlasso import cli, harness  # noqa: E402
from rotlasso.certificates import ConeSpec, re_constant, rip_constant  # noqa: E402
from rotlasso.core import (  # noqa: E402
    DesignMatrix, SeedSpec, SparseVector, SupportSet, normalize_columns,
)
from rotlasso.designs import RotationKind, partially_rotate, sample_rotation  # noqa: E402
from rotlasso.lasso import lasso_constrained, synth_response  # noqa: E402


def gaussian_design(n, d, seed=0):
    rng = np.random.default_rng(seed)
    return normalize_columns(DesignMatrix(rng.standard_normal((n, d))))


def has(failures, text):
    return any(text in m for m in failures)


# ---------------------------------------------------------------------------
# re_constant witnesses
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def gamma_cert():
    X = gaussian_design(30, 6)
    S = SupportSet(6, (0, 1))
    return X, S, re_constant(X, ConeSpec(S), S, mode="gamma", n_starts=8)


def test_re_witness_accepted(gamma_cert):
    X, S, cert = gamma_cert
    assert checks.check_re_certificate(X.entries, S.array(), 1.0, S.array(), "gamma",
                                       cert.value, cert.witness.to_dense()) == []


def test_re_witness_off_the_cone_rejected(gamma_cert):
    X, S, cert = gamma_cert
    z = cert.witness.to_dense()
    z[2:] = 0.0
    z[2] = 2.0 * np.abs(z[:2]).sum()
    value = float(np.sum((X.entries @ z) ** 2) / 30 / (z[:2] @ z[:2]))
    failures = checks.check_re_certificate(X.entries, S.array(), 1.0, S.array(), "gamma",
                                           value, z)
    assert has(failures, "off the cone") and not has(failures, "witness gives")


def test_re_value_not_attained_rejected(gamma_cert):
    X, S, cert = gamma_cert
    failures = checks.check_re_certificate(X.entries, S.array(), 1.0, S.array(), "gamma",
                                           cert.value * 0.99, cert.witness.to_dense())
    assert has(failures, "witness gives")


@pytest.mark.parametrize("mode", ["gamma", "gamma_prime"])
def test_full_cone_lambda_min(mode):
    X = gaussian_design(40, 3, seed=1)
    S = SupportSet(3, (0, 1, 2))
    cert = re_constant(X, ConeSpec(S), S, mode=mode, n_starts=8)
    args = (X.entries, S.array(), 1.0, S.array(), mode)
    assert checks.check_re_certificate(*args, cert.value, cert.witness.to_dense()) == []
    # a feasible but suboptimal witness reporting its own value: a wrong lambda_min
    z = np.array([1.0, 0.0, 0.0])
    value = float(np.sum((X.entries @ z) ** 2) / 40)
    failures = checks.check_re_certificate(*args, value, z)
    assert failures == [failures[0]] and has(failures, "lambda_min")


# ---------------------------------------------------------------------------
# experiment rows
# ---------------------------------------------------------------------------


def test_thm_rows():
    ok = {"trial": "0", "gamma_xs": "0.5", "gamma_x": "0.5000001"}
    bad = {"trial": "1", "gamma_xs": "0.5", "gamma_x": "0.6"}
    assert checks.check_thm_rows([ok]) == []
    assert len(checks.check_thm_rows([ok, bad])) == 1


def test_counterexample_rows():
    def row(**kw):
        base = {"k": "4", "gamma_prime_xs": "1.0000000001", "witness_ratio": repr(2 / 6),
                "gamma_prime_x": repr(2 / 6)}
        return {**base, **kw}

    assert checks.check_counterexample_rows([row()]) == []
    assert has(checks.check_counterexample_rows([row(gamma_prime_xs="0.99")]), "!= 1")
    assert has(checks.check_counterexample_rows([row(witness_ratio="0.3")]), "witness_ratio")
    assert has(checks.check_counterexample_rows([row(gamma_prime_x="0.34")]), "> 2/(k+2)")


def test_counterexample_rows_from_the_program(tmp_path):
    cfg = {"grid": [{"k": 4, "n": 100, "d": 12}], "trials": 1, "master_seed": 3}
    cli.main(["exp", "counterexample", "--config", json.dumps(cfg), "--out-dir", str(tmp_path)])
    with open(tmp_path / "counterexample.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert checks.check_counterexample_rows(rows) == []


def test_binomial_tails_match_direct_sums():
    m, p = 30, 0.2
    pmf = [math.comb(m, j) * p**j * (1 - p) ** (m - j) for j in range(m + 1)]
    for c in (0, 3, 6, 15, 30):
        lower, upper = checks.binomial_tails(c, m, p)
        assert lower == pytest.approx(sum(pmf[:c + 1]), rel=1e-10)
        assert upper == pytest.approx(sum(pmf[c:]), rel=1e-10)


def test_exact_cosine_law_matches_a_haar_sample():
    # 2000 draws of |cos| between e_1 and a Haar-rotated vector in R^20
    rng = np.random.default_rng(5)
    g = rng.standard_normal((2000, 20))
    cos = np.abs(g[:, 0]) / np.linalg.norm(g, axis=1)
    p = checks.cos_exceed_probability(20, 0.3)
    assert abs(np.mean(cos > 0.3) - p) < 4 * math.sqrt(p * (1 - p) / 2000)


def test_exceedances():
    def row(c, m=400, rate=None):
        return {"n": "100", "epsilon": "0.2", "mc_trials": str(m), "exceedances": str(c),
                "rate": repr(c / m if rate is None else rate)}

    p = checks.cos_exceed_probability(100, 0.2)
    assert p == pytest.approx(4.49e-2, rel=1e-2)
    assert checks.check_exceedances([row(18)]) == []
    assert has(checks.check_exceedances([row(60)]), "exceedances")
    assert has(checks.check_exceedances([row(0)]), "exceedances")
    assert has(checks.check_exceedances([row(18, rate=0.5)]), "inconsistent")


def test_rip_rno_rows():
    delta = 0.3
    bound = 4 * delta / (1 - delta) ** 2
    ok = {"d": "20", "rip_delta": repr(delta), "rno_eps_max": repr(bound)}
    bad = {**ok, "rno_eps_max": repr(bound + 1e-6)}
    assert checks.check_rip_rno_rows([ok]) == []
    assert len(checks.check_rip_rno_rows([bad])) == 1


def test_echo():
    rows = [{"grid_index": "0", "trial": "0", "n": "100", "sigma": "1.0", "rotation": "haar"}]
    columns = {"grid_index", "trial", "n", "sigma", "rotation"}
    assert checks.check_echo(rows, [{"n": 100, "sigma": 1.0, "rotation": "haar",
                                     "groups": 32}], columns) == []
    assert has(checks.check_echo(rows, [{"n": 100, "sigma": 5.0}], columns), "sigma")
    assert has(checks.check_echo(rows, [{"rotation": "gaussian"}], columns), "rotation")


# ---------------------------------------------------------------------------
# rotations
# ---------------------------------------------------------------------------


def test_rotation():
    Q = sample_rotation(RotationKind.haar(), 50, SeedSpec(1))
    assert checks.check_rotation(Q) == []
    skew = Q.copy()
    skew[:, 0] *= 1.0 + 1e-8
    assert checks.check_rotation(skew)
    assert checks.check_rotation(Q[:, :49])


def test_partial_rotation():
    X = gaussian_design(40, 6, seed=2)
    S = SupportSet(6, (0, 1))
    Xp = partially_rotate(X, S, RotationKind.haar(), SeedSpec(4)).entries
    assert checks.check_partial_rotation(X.entries, Xp, S.array()) == []
    moved = Xp.copy()
    moved[0, 1] = np.nextafter(moved[0, 1], np.inf)
    assert has(checks.check_partial_rotation(X.entries, moved, S.array()), "S columns")
    stretched = Xp.copy()
    stretched[:, 4] *= 1.001
    assert has(checks.check_partial_rotation(X.entries, stretched, S.array()), "Gram")


# ---------------------------------------------------------------------------
# the constrained Lasso
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def lasso_solution():
    X = gaussian_design(60, 20, seed=3)
    beta = SparseVector(20, ((0, 1.0), (1, -1.0)))
    inst = synth_response(X, beta, 0.5, SeedSpec(7))
    return inst, lasso_constrained(inst, 2.0)


def lasso_args(inst, sol, **over):
    args = dict(E=inst.X.entries, y=inst.y, radius=2.0, beta=sol.beta_hat,
                trace=sol.objective_trace, residual=sol.fixed_point_residual,
                converged=sol.converged)
    return {**args, **over}


def test_lasso_accepted(lasso_solution):
    inst, sol = lasso_solution
    assert sol.converged
    assert checks.check_lasso(**lasso_args(inst, sol)) == []


def test_lasso_infeasible_rejected(lasso_solution):
    inst, sol = lasso_solution
    assert has(checks.check_lasso(**lasso_args(inst, sol, beta=sol.beta_hat * 1.01)), "radius")


def test_lasso_rising_trace_rejected(lasso_solution):
    inst, sol = lasso_solution
    trace = sol.objective_trace.copy()
    trace[5] = trace[4] * 1.001
    assert has(checks.check_lasso(**lasso_args(inst, sol, trace=trace)), "rises")


def test_lasso_gap_rejected(lasso_solution):
    inst, sol = lasso_solution
    beta = sol.beta_hat.copy()
    beta[0] *= 0.9
    assert has(checks.check_lasso(**lasso_args(inst, sol, beta=beta)), "duality gap")


# ---------------------------------------------------------------------------
# RNO and RIP enumeration
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def rno_result():
    X = gaussian_design(20, 8, seed=4)
    return X, harness.max_rno_over_disjoint_pairs(X, 2)


def test_rno_pair_accepted(rno_result):
    X, (value, sa, sb) = rno_result
    rng = np.random.default_rng(0)
    assert checks.check_rno_pair(X.entries, 2, value, sa, sb, rng) == []


def test_rno_pair_swapped_rejected(rno_result):
    X, (value, sa, sb) = rno_result
    rng = np.random.default_rng(0)
    # one index of the pair moved to the other side: both sets overlap
    assert has(checks.check_rno_pair(X.entries, 2, value, sa, (sa[0], sb[1]), rng),
               "not two disjoint")
    # a different disjoint pair: the value is not reproduced
    other = tuple(i for i in range(8) if i not in sa + sb)[:2]
    assert has(checks.check_rno_pair(X.entries, 2, value, sa, other, rng), "rno pair gives")


def test_rno_value_too_low_rejected(rno_result):
    X, (value, sa, sb) = rno_result
    rng = np.random.default_rng(0)
    failures = checks.check_rno_pair(X.entries, 2, value * 0.5, sa, sb, rng, samples=2000)
    assert has(failures, "sampled disjoint pair")


def test_rip_witness():
    X = gaussian_design(20, 7, seed=6)
    Xu = DesignMatrix(X.entries / math.sqrt(20))
    cert = rip_constant(Xu, 3)
    assert checks.check_rip_witness(Xu.entries, cert.value, cert.witness.indices) == []
    other = tuple(i for i in range(7) if i not in cert.witness.indices)[:3]
    assert checks.check_rip_witness(Xu.entries, cert.value, other)


# ---------------------------------------------------------------------------
# tracing and the benchmark definition
# ---------------------------------------------------------------------------


def test_tracer_counts_restores_and_captures(tmp_path):
    original = harness.re_constant
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert harness.re_constant is not original
        cfg = {"grid": [{"k": 4, "n": 100, "d": 12}], "trials": 1, "master_seed": 3}
        cli.main(["exp", "counterexample", "--config", json.dumps(cfg),
                  "--out-dir", str(tmp_path)])
    finally:
        tracer.uninstall()
    assert harness.re_constant is original
    m = tracer.metrics()
    # gamma' on the 4-column support block, gamma' and gamma on the whole design
    assert m["certificates.re_constant.full_cone.calls"] == 1
    assert m["certificates.re_constant.gamma_prime.calls"] == 1
    assert m["certificates.re_constant.gamma.calls"] == 1
    assert m["designs.sample_rotation.calls"] == 1
    assert 0 < m["certificates.re_constant.gamma.self_s"] <= m["certificates.re_constant.gamma.s"]
    assert m["cli.main.s"] >= m["certificates.re_constant.gamma.s"]
    assert len(tracer.captures["certificates.re_constant"]) == 3


def test_benchmark_json_lists_what_the_run_prints():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == tracing.per_layer_names()
    assert all(m["unit"] == tracing.metric_unit(m["name"]) for m in spec["per_layer"])
    assert [m["name"] for m in spec["end_to_end"]] == ["cpu_ref", "wall_ref", "setup_s",
                                                       "peak_rss_mb"]
    import run
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(run.WORKLOADS)
