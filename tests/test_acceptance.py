"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
summary lines; every check is asserted, so a plain ``pytest`` run is
equivalent apart from the printing.
"""

import itertools
import math
import time

import numpy as np
import pytest

from rotlasso import (
    DesignMatrix,
    SeedSpec,
    SparseVector,
    SupportSet,
    lambda_min_restricted,
    lasso_constrained,
    normalize_columns,
    orthonormal_basis,
    project_l1_ball,
    re_constant,
    rip_constant,
    rno_constant,
    rno_fixed_supports,
    synth_response,
)
from rotlasso.certificates import ConeSpec
from rotlasso.harness import (
    ExperimentSpec,
    default_spec,
    emit_results,
    run_experiment,
    run_experiments,
)

from test_lasso import lasso_grid_oracle, project_qp_oracle


def report(num, ok, detail, elapsed, budget):
    status = "PASS" if ok else "FAIL"
    print(f"\n[{status}] criterion {num}: {detail} ({elapsed:.1f}s < {budget:.0f}s)")
    assert ok, detail
    assert elapsed < budget, f"criterion {num} exceeded its runtime budget"


def test_criterion_01_orthonormal_identities():
    t0 = time.time()
    rng = np.random.default_rng(20250811)
    n, d = 10, 7
    Q, _ = np.linalg.qr(rng.standard_normal((n, d)))
    X = DesignMatrix(Q * math.sqrt(n), normalized=True)
    Xu = DesignMatrix(X.entries / math.sqrt(n))
    worst_re = worst_rip = worst_rno = 0.0
    for r in range(1, d + 1):
        for idx in itertools.combinations(range(d), r):
            S = SupportSet(d, idx)
            cone = ConeSpec(S)
            worst_re = max(worst_re, abs(re_constant(X, cone, S, mode="gamma").value - 1))
            worst_re = max(worst_re, abs(re_constant(X, cone, S, mode="gamma_prime").value - 1))
            worst_re = max(worst_re, abs(lambda_min_restricted(X, S).value - 1))
            for s in range(1, min(S.size, d - S.size, 2) + 1):
                worst_rno = max(worst_rno, rno_constant(X, S, s).value)
    for s in range(1, 5):
        worst_rip = max(worst_rip, rip_constant(Xu, s).value)
    ok = worst_re <= 1e-6 and worst_rip <= 1e-9 and worst_rno <= 1e-9
    report(1, ok,
           f"orthonormal identities over all {2**d - 1} supports: "
           f"max |re-1|={worst_re:.2e}, rip={worst_rip:.2e}, rno={worst_rno:.2e}",
           time.time() - t0, 10)


def test_criterion_02_oracle_equivalence():
    t0 = time.time()
    rng = np.random.default_rng(42)
    worst_re = 0.0
    for _ in range(200):
        n = int(rng.integers(5, 21))
        d = int(rng.integers(4, 13))
        p = int(rng.integers(1, 4))
        X = normalize_columns(DesignMatrix(rng.standard_normal((n, d))))
        S = SupportSet.of(d, rng.choice(d, size=p, replace=False))
        ms = re_constant(X, ConeSpec(S), S, mode="gamma", method="multistart")
        go = re_constant(X, ConeSpec(S), S, mode="gamma", method="grid_oracle")
        assert ms.value >= go.value - 1e-3
        worst_re = max(worst_re, abs(ms.value - go.value) / max(go.value, 1e-12))
    worst_lasso = 0.0
    for trial in range(40):
        d = 2 + trial % 2
        n = int(rng.integers(6, 12))
        X = normalize_columns(DesignMatrix(rng.standard_normal((n, d))))
        beta = SparseVector.from_dense(rng.standard_normal(d))
        inst = synth_response(X, beta, 0.5, SeedSpec(500, trial))
        radius = beta.norm_l1()
        sol = lasso_constrained(inst, radius)
        grid = lasso_grid_oracle(X.entries, inst.y, radius)
        worst_lasso = max(worst_lasso, abs(sol.objective - grid) / max(1.0, grid))
    worst_proj = 0.0
    for _ in range(200):
        dim = int(rng.integers(1, 6))
        v = rng.standard_normal(dim) * 3.0
        radius = float(rng.uniform(0.05, 3.0))
        diff = np.max(np.abs(project_l1_ball(v, radius) - project_qp_oracle(v, radius)))
        worst_proj = max(worst_proj, diff)
    ok = worst_re <= 1e-3 and worst_lasso <= 1e-5 and worst_proj <= 1e-6
    report(2, ok,
           f"oracle equivalence: re rel dev {worst_re:.2e} (200 runs), "
           f"lasso dev {worst_lasso:.2e} (40 runs), proj dev {worst_proj:.2e} (200 runs)",
           time.time() - t0, 300)


def test_criterion_03_rno_exactness():
    t0 = time.time()
    rng = np.random.default_rng(7)
    worst_gap = 0.0
    for trial in range(100):
        X = normalize_columns(DesignMatrix(rng.standard_normal((30, 8))))
        S = SupportSet(8, (0, 1, 2, 3))
        Sa = SupportSet.of(8, rng.choice(4, size=2, replace=False))
        Sb = SupportSet.of(8, 4 + rng.choice(4, size=2, replace=False))
        val = rno_fixed_supports(X, S, Sa, Sb)
        Pa = orthonormal_basis(X.entries[:, Sa.array()])
        Pb = orthonormal_basis(X.entries[:, Sb.array()])
        ca = rng.standard_normal((Pa.shape[1], 100_000))
        cb = rng.standard_normal((Pb.shape[1], 100_000))
        ua = Pa @ (ca / np.linalg.norm(ca, axis=0))
        ub = Pb @ (cb / np.linalg.norm(cb, axis=0))
        sampled = np.abs(np.einsum("nm,nm->m", ua, ub))
        assert sampled.max() <= val + 1e-9, "sampling exceeded the principal-angle value"
        M = Pa.T @ Pb
        w = cb[:, int(np.argmax(sampled))]
        w /= np.linalg.norm(w)
        for _ in range(500):
            w = M.T @ (M @ w)
            nw = np.linalg.norm(w)
            if nw == 0:
                break
            w /= nw
        ascent = float(np.linalg.norm(M @ w))
        worst_gap = max(worst_gap, val - ascent)
    ok = worst_gap <= 1e-3
    report(3, ok, f"rno exactness on 100 designs: worst ascent gap {worst_gap:.2e}",
           time.time() - t0, 120)


def test_criterion_04_sparsify_bound():
    t0 = time.time()
    spec = default_spec("sparsify-bound")
    rows = run_experiment(spec)
    n_ok = sum(1 for r in rows if r.values["error"] <= r.values["bound"])
    med_attempts = float(np.median([r.values["attempts"] for r in rows]))
    ok = len(rows) == 1000 and n_ok == 1000 and med_attempts <= 2
    report(4, ok,
           f"sparsify bound: {n_ok}/1000 within bound, median attempts {med_attempts:.0f}",
           time.time() - t0, 60)


def test_criterion_05_rip_implies_rno():
    t0 = time.time()
    spec = default_spec("rip-rno")
    rows = run_experiment(spec)
    violations = sum(1 for r in rows if not r.passed)
    margins = [r.values["rno_bound"] - r.values["rno_eps_max"] for r in rows]
    ok = len(rows) == 100 and violations == 0
    report(5, ok,
           f"rip=>rno on 100 designs: {violations} violations, "
           f"min margin {min(margins):.3f}",
           time.time() - t0, 300)


def test_criterion_06_main_result_desk_scale():
    t0 = time.time()
    spec = default_spec("thm-main")
    rows = run_experiment(spec)
    passes = sum(1 for r in rows if r.passed)
    ratios = [r.values["ratio"] for r in rows]
    ok = len(rows) == 50 and passes >= 48
    report(6, ok,
           f"main-result ratio >= 0.891 in {passes}/50 trials "
           f"(min ratio {min(ratios):.4f})",
           time.time() - t0, 900)


def test_criterion_07_lasso_rate_scaling():
    t0 = time.time()
    spec = default_spec("lasso-rate")
    rows = run_experiment(spec)
    ok = True
    details = []
    for gi, g in enumerate(spec.grid):
        sub = [r for r in rows if r.grid_index == gi]
        med = float(np.median([r.values["pred_error"] for r in sub]))
        med_gauss = float(np.median([r.values["pred_error_gauss"] for r in sub]))
        bound = 30.0 * float(np.median([r.values["theory_bound"] for r in sub]))
        ratio = med_gauss / med
        point_ok = med <= bound and (1.0 / 3.0) <= ratio <= 3.0
        ok = ok and point_ok
        details.append(f"(n={g['n']},k={g['k']}): med={med:.3g} bound={bound:.3g} "
                       f"pair-ratio={ratio:.2f}")
    report(7, ok, "lasso fast-rate grid: " + "; ".join(details),
           time.time() - t0, 1800)


def test_criterion_08_counterexample():
    t0 = time.time()
    spec = default_spec("counterexample")
    rows = run_experiment(spec)
    ok = True
    details = []
    for r in rows:
        k = r.values["k"]
        wr = r.values["witness_ratio"]
        ok = ok and abs(r.values["gamma_prime_xs"] - 1.0) <= 1e-6
        ok = ok and r.values["gamma_prime_x"] <= wr + 1e-6
        ok = ok and abs(wr - k / (k + k * k / 2.0)) <= 1e-9
        details.append(f"k={k}: gamma'={r.values['gamma_prime_x']:.4f} <= {wr:.4f}")
    ok = ok and {r.values["k"] for r in rows} == {4, 10, 20}
    report(8, ok, "weak-form counterexample: " + "; ".join(details),
           time.time() - t0, 300)


def test_criterion_09_partial_rotation_tails():
    t0 = time.time()
    spec = default_spec("rot-check")
    rows = run_experiment(spec)
    by_point = {(r.values["n"], r.values["epsilon"]): r for r in rows}
    half = by_point[(100, 0.5)]
    ok = half.values["exceedances"] <= 2
    rate_100 = by_point[(100, 0.2)].values["rate"]
    rate_400 = by_point[(400, 0.2)].values["rate"]
    ok = ok and rate_400 <= rate_100
    report(9, ok,
           f"rotation tails: {half.values['exceedances']} exceedances at eps=0.5 "
           f"(10^4 trials); rate(n=400)={rate_400:.2e} <= rate(n=100)={rate_100:.2e}",
           time.time() - t0, 300)


DETERMINISM_GRIDS = {
    "thm-main": ({"grid": [{"n": 60, "d": 12, "k": 2}], "trials": 2}),
    "lasso-rate": ({"grid": [{"n": 60, "d": 24, "k": 2, "sigma": 1.0, "groups": 4}],
                    "trials": 2}),
    "rno-whp": ({"grid": [{"n": 60, "d": 10, "k": 3, "s": 2, "rotation": "haar",
                           "epsilon": 0.25}], "trials": 2}),
    "rip-rno": ({"grid": [{"n": 40, "d": 10, "s": 2}], "trials": 2}),
    "counterexample": ({"grid": [{"k": 4, "n": 50, "d": 8}], "trials": 1}),
    "sparsify-bound": ({"grid": [{"n": 20, "d": 30, "s": 10}], "trials": 20}),
    "rot-check": ({"grid": [{"n": 50, "d": 8, "k": 2, "rotation": "haar",
                             "epsilon": 0.5, "max_exceed": 5}], "trials": 200}),
}


def test_criterion_10_determinism(tmp_path):
    t0 = time.time()
    identical = True
    specs = [ExperimentSpec(name=name, grid=tuple(cfg["grid"]), trials=cfg["trials"],
                            master_seed=20250811)
             for name, cfg in DETERMINISM_GRIDS.items()]
    # the serial run, then every experiment through one pool of 2 workers
    for workers, out in ((1, "a"), (2, "b")):
        for spec, rows in run_experiments(specs, workers=workers):
            emit_results(spec, rows, tmp_path / out)
    for name in DETERMINISM_GRIDS:
        for fname in (f"{name}.csv", f"{name}.summary.json"):
            same = ((tmp_path / "a" / fname).read_bytes()
                    == (tmp_path / "b" / fname).read_bytes())
            identical = identical and same
    report(10, identical,
           "full suite re-run (and worker-count change) reproduces CSV and "
           "summary bytes exactly",
           time.time() - t0, 300)
