import itertools
import math
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from rotlasso import (
    DesignMatrix,
    EnumerationTooLargeError,
    InvalidSupportError,
    RotationKind,
    SeedSpec,
    SparseVector,
    SupportSet,
    cone_membership,
    counterexample_design,
    lambda_min_restricted,
    normalize_columns,
    partial_rotation_failure_rate,
    partially_rotate,
    re_constant,
    re_objective_value,
    restrict_columns,
    rip_constant,
    rip_to_rno_bound,
    rno_constant,
    rno_fixed_supports,
    rno_to_re_lower_bound,
)
from rotlasso.certificates import ConeSpec, _re_joint, max_rno_over_disjoint_pairs

from conftest import gaussian_design


def orthonormal_design(n, d, seed=0):
    rng = np.random.default_rng(seed)
    Q, _ = np.linalg.qr(rng.standard_normal((n, d)))
    return DesignMatrix(Q * math.sqrt(n), normalized=True)


class TestConeMembership:
    def test_inside_support(self):
        cone = ConeSpec(SupportSet(6, (0, 1)))
        assert cone_membership(SparseVector(6, ((0, 3.0), (1, -1.0))), cone)

    def test_outside_support(self):
        cone = ConeSpec(SupportSet(6, (0, 1)))
        assert not cone_membership(SparseVector(6, ((3, 0.5),)), cone)

    def test_appendix_style_boundary_witness(self):
        k = 6
        cone = ConeSpec(SupportSet(k + 2, tuple(range(k))))
        z = np.zeros(k + 2)
        z[:k] = 1.0
        z[k] = k / 2.0
        z[k + 1] = -k / 2.0
        # off-support l1 mass k equals on-support mass k
        assert cone_membership(z, cone)


class TestReConstant:
    def test_orthonormal_value_one(self):
        X = orthonormal_design(10, 6, seed=3)
        for idx in ((0,), (1, 4), (0, 2, 5)):
            S = SupportSet(6, idx)
            for mode in ("gamma", "gamma_prime"):
                cert = re_constant(X, ConeSpec(S), S, mode=mode)
                assert abs(cert.value - 1.0) <= 1e-9

    def test_counterexample_gamma_prime(self):
        k = 10
        X, S = counterexample_design(100, k + 2, k, SeedSpec(11))
        cert = re_constant(X, ConeSpec(S), S, mode="gamma_prime")
        assert cert.value <= k / (k + k * k / 2.0) + 1e-6

    def test_multistart_matches_grid_oracle(self):
        rng = np.random.default_rng(23)
        for _ in range(8):
            n = int(rng.integers(5, 14))
            d = int(rng.integers(4, 9))
            p = int(rng.integers(1, 4))
            X = normalize_columns(DesignMatrix(rng.standard_normal((n, d))))
            S = SupportSet.of(d, rng.choice(d, size=p, replace=False))
            ms = re_constant(X, ConeSpec(S), S, mode="gamma", method="multistart")
            go = re_constant(X, ConeSpec(S), S, mode="gamma", method="grid_oracle")
            assert ms.value >= go.value - 1e-3
            assert abs(ms.value - go.value) <= 1e-3 * max(go.value, 1e-12)

    def test_value_equals_objective_at_witness(self):
        X = gaussian_design(12, 7, seed=9)
        S = SupportSet(7, (0, 3))
        for mode in ("gamma", "gamma_prime"):
            cert = re_constant(X, ConeSpec(S), S, mode=mode)
            val = re_objective_value(X, cert.witness, S, mode)
            assert abs(cert.value - val) <= 1e-9 * max(abs(val), 1e-12)
            assert cone_membership(cert.witness, ConeSpec(S))

    def test_scale_invariance_of_objective(self):
        X = gaussian_design(9, 5, seed=4)
        S = SupportSet(5, (1, 2))
        cert = re_constant(X, ConeSpec(S), S, mode="gamma")
        z = cert.witness.to_dense()
        for c in (0.1, 7.0, -3.0):
            val = re_objective_value(X, c * z, S, "gamma")
            assert abs(val - cert.value) <= 1e-9 * max(cert.value, 1e-12)

    def test_sandwich_ordering(self):
        rng = np.random.default_rng(31)
        for trial in range(6):
            n, d = 14, 8
            X = gaussian_design(n, d, seed=100 + trial)
            S = SupportSet(d, (0, 1, 2, 3))
            Sp = SupportSet(d, (0, 2))
            gp = re_constant(X, ConeSpec(Sp), Sp, mode="gamma_prime").value
            g = re_constant(X, ConeSpec(Sp), Sp, mode="gamma").value
            XS = restrict_columns(X, S)
            Sp_rel = SupportSet(S.size, (0, 2))
            g_s = re_constant(XS, ConeSpec(Sp_rel), Sp_rel, mode="gamma").value
            assert gp <= g + 1e-6
            assert g <= g_s + 1e-6

    def test_full_cone_equals_lambda_min(self):
        for seed in range(4):
            XS = gaussian_design(20, 3, seed=seed)
            S = SupportSet(3, (0, 1, 2))
            lam = float(np.linalg.eigvalsh(XS.entries.T @ XS.entries / 20)[0])
            assert abs(lambda_min_restricted(XS, S).value - lam) <= 1e-12
            for mode in ("gamma", "gamma_prime"):
                cert = re_constant(XS, ConeSpec(S), S, mode=mode)
                assert abs(cert.value - lam) <= 1e-12
                assert cert.method == "exact_svd"
                z = cert.witness.to_dense()
                assert abs(np.linalg.norm(z) - 1.0) <= 1e-12
                assert abs(re_objective_value(XS, z, S, mode) - cert.value) <= 1e-15

    def test_full_cone_around_a_smaller_denominator(self):
        # no off-support block: gamma is the smallest eigenvalue of the Schur
        # complement of the rest in G, gamma' the smallest eigenvalue of G
        X = gaussian_design(12, 4, seed=3)
        G = X.entries.T @ X.entries / 12
        A, B, C = G[:2, :2], G[:2, 2:], G[2:, 2:]
        schur = float(np.linalg.eigvalsh(A - B @ np.linalg.solve(C, B.T))[0])
        cone = ConeSpec(SupportSet(4, (0, 1, 2, 3)))
        Sp = SupportSet(4, (0, 1))
        assert re_constant(X, cone, Sp, mode="gamma").value == pytest.approx(schur, abs=1e-9)
        assert re_constant(X, cone, Sp, mode="gamma_prime").value == pytest.approx(
            float(np.linalg.eigvalsh(G)[0]), abs=1e-9)

    def test_nonconvergence_is_flagged_not_raised(self):
        X = gaussian_design(10, 8, seed=7)
        S = SupportSet(8, (0, 1))
        cert = re_constant(X, ConeSpec(S), S, mode="gamma", max_inner_iter=2)
        assert not cert.solver_report.converged
        # still a valid upper bound certified by a feasible witness
        assert cert.value >= re_constant(X, ConeSpec(S), S, mode="gamma").value - 1e-6

    def test_joint_residual_tells_cut_short_from_finished(self):
        X = gaussian_design(23, 8, seed=509)
        S = SupportSet(8, (0, 4))
        order = np.concatenate([S.array(), S.complement().array()])
        E = X.entries[:, order]
        G = E.T @ E / 23
        runs = [_re_joint(G, 2, np.arange(2), slice(None), 1.0, None, 64, [], max_iter=m)[1]
                for m in (1, 8000)]
        assert not runs[0].converged and runs[1].converged
        assert runs[0].residual > runs[1].residual

    def test_validation_errors(self):
        X = gaussian_design(6, 4, seed=1)
        S = SupportSet(4, (0, 1))
        with pytest.raises(InvalidSupportError):
            re_constant(X, ConeSpec(S), SupportSet(4), mode="gamma")
        with pytest.raises(InvalidSupportError):
            re_constant(X, ConeSpec(SupportSet(4, (0,))), S, mode="gamma")
        with pytest.raises(ValueError):
            re_constant(X, ConeSpec(S), S, mode="gamma", method="annealing")
        big = SupportSet(4, (0, 1, 2, 3))
        with pytest.raises(ValueError):
            re_constant(X, ConeSpec(big), big, method="grid_oracle")


class TestLambdaMin:
    def test_counterexample_identity_gram(self):
        X, S = counterexample_design(100, 10, 6, SeedSpec(3))
        cert = lambda_min_restricted(X, S)
        assert cert.value == pytest.approx(1.0, abs=1e-12)
        assert cert.method == "exact_svd"

    def test_duplicated_columns_give_zero(self):
        col = np.random.default_rng(0).standard_normal((20, 1))
        X = normalize_columns(DesignMatrix(np.hstack([col, col, col * 0 + 1])))
        cert = lambda_min_restricted(X, SupportSet(3, (0, 1)))
        assert abs(cert.value) <= 1e-9

    def test_matches_singular_value_oracle(self):
        # independent route: smallest squared singular value of the block
        for seed in range(5):
            X = gaussian_design(20, 3, seed=seed)
            S = SupportSet(3, (0, 1, 2))
            sv = np.linalg.svd(X.entries, compute_uv=False)
            oracle = sv[-1] ** 2 / 20.0
            assert abs(lambda_min_restricted(X, S).value - oracle) <= 1e-10

    def test_witness_attains_value(self):
        X = gaussian_design(15, 5, seed=8)
        S = SupportSet(5, (1, 2, 4))
        cert = lambda_min_restricted(X, S)
        val = re_objective_value(X, cert.witness, S, "gamma")
        assert abs(val - cert.value) <= 1e-9


class TestRnoFixedSupports:
    def test_orthogonal_spans(self):
        X = DesignMatrix(np.eye(6) * math.sqrt(6), normalized=True)
        S = SupportSet(6, (0, 1, 2))
        val = rno_fixed_supports(X, S, SupportSet(6, (0, 1)), SupportSet(6, (3, 4)))
        assert val == pytest.approx(0.0, abs=1e-12)

    def test_shared_direction(self):
        col = np.random.default_rng(1).standard_normal((12, 1))
        other = np.random.default_rng(2).standard_normal((12, 2))
        X = normalize_columns(DesignMatrix(np.hstack([col, other, col])))
        S = SupportSet(4, (0, 1))
        val = rno_fixed_supports(X, S, SupportSet(4, (0,)), SupportSet(4, (3,)))
        assert val == pytest.approx(1.0, abs=1e-12)

    def test_sampling_never_exceeds_and_ascent_attains(self):
        rng = np.random.default_rng(5)
        for trial in range(5):
            X = gaussian_design(30, 8, seed=50 + trial)
            S = SupportSet(8, (0, 1, 2, 3))
            Sa = SupportSet(8, (0, 2))
            Sb = SupportSet(8, (5, 7))
            val = rno_fixed_supports(X, S, Sa, Sb)
            from rotlasso import orthonormal_basis
            Pa = orthonormal_basis(X.entries[:, Sa.array()])
            Pb = orthonormal_basis(X.entries[:, Sb.array()])
            ca = rng.standard_normal((Pa.shape[1], 20_000))
            cb = rng.standard_normal((Pb.shape[1], 20_000))
            ua = Pa @ (ca / np.linalg.norm(ca, axis=0))
            ub = Pb @ (cb / np.linalg.norm(cb, axis=0))
            sampled = np.abs(np.einsum("nm,nm->m", ua, ub))
            assert sampled.max() <= val + 1e-9
            # power-iteration ascent on the cross-Gram reaches the value
            M = Pa.T @ Pb
            w = cb[:, int(np.argmax(sampled))]
            w /= np.linalg.norm(w)
            for _ in range(200):
                w = M.T @ (M @ w)
                w /= np.linalg.norm(w)
            assert np.linalg.norm(M @ w) >= val - 1e-3

    def test_symmetry_under_block_swap(self):
        X = gaussian_design(25, 7, seed=12)
        S = SupportSet(7, (0, 1, 2))
        Sa, Sb = SupportSet(7, (0, 2)), SupportSet(7, (4, 6))
        from rotlasso import orthonormal_basis
        Pa = orthonormal_basis(X.entries[:, Sa.array()])
        Pb = orthonormal_basis(X.entries[:, Sb.array()])
        s1 = np.linalg.svd(Pa.T @ Pb, compute_uv=False)[0]
        s2 = np.linalg.svd(Pb.T @ Pa, compute_uv=False)[0]
        assert abs(s1 - s2) <= 1e-10
        assert abs(rno_fixed_supports(X, S, Sa, Sb) - s1) <= 1e-10


class TestRnoConstant:
    def test_block_orthogonal(self):
        X = DesignMatrix(np.eye(8) * math.sqrt(8), normalized=True)
        S = SupportSet(8, (0, 1, 2, 3))
        cert = rno_constant(X, S, 2)
        assert cert.value == pytest.approx(0.0, abs=1e-12)
        assert cert.solver_report.complete

    def test_duplicate_across_boundary(self):
        col = np.random.default_rng(3).standard_normal((15, 1))
        parts = [col, np.random.default_rng(4).standard_normal((15, 2)), col,
                 np.random.default_rng(5).standard_normal((15, 1))]
        X = normalize_columns(DesignMatrix(np.hstack(parts)))
        S = SupportSet(5, (0, 1))
        cert = rno_constant(X, S, 1)
        assert cert.value == pytest.approx(1.0, abs=1e-12)
        assert cert.witness[0].indices == (0,)
        assert cert.witness[1].indices == (3,)

    def test_matches_per_pair_reenumeration(self):
        X = gaussian_design(40, 10, seed=21)
        S = SupportSet(10, (0, 1, 2, 3))
        cert = rno_constant(X, S, 2)
        comp = S.complement()
        vals = [
            rno_fixed_supports(X, S, SupportSet(10, a), SupportSet(10, b))
            for a in itertools.combinations(S.indices, 2)
            for b in itertools.combinations(comp.indices, 2)
        ]
        assert len(vals) == 90
        assert cert.value == pytest.approx(max(vals), abs=1e-12)

    def test_cap_and_sampling(self):
        X = gaussian_design(30, 20, seed=2)
        S = SupportSet(20, tuple(range(10)))
        with pytest.raises(EnumerationTooLargeError):
            rno_constant(X, S, 3, cap=1000)
        exact = rno_constant(X, S, 3)
        sampled = rno_constant(X, S, 3, cap=1000, sample_pairs=200, seed=SeedSpec(1))
        assert not sampled.solver_report.complete
        assert sampled.value <= exact.value + 1e-12


def _oracle_designs():
    """A generic design, a duplicated column on orthonormal columns (ties at 1
    and rank-one cross products, where ||C||_F = sigma_max), and a column in the
    span of two others (a rank-deficient span of size 3)."""
    Q = orthonormal_design(12, 7, seed=5).entries
    dependent = gaussian_design(20, 8, seed=41).entries.copy()
    dependent[:, 2] = dependent[:, 0] + dependent[:, 1]
    return [gaussian_design(20, 7, seed=40),
            DesignMatrix(np.hstack([Q, Q[:, :1]]), normalized=True),
            normalize_columns(DesignMatrix(dependent))]


class TestRnoBruteForce:
    """Both enumerations against a loop of rno_fixed_supports over every pair."""

    @pytest.mark.parametrize("s", [1, 2, 3])
    def test_max_over_disjoint_pairs(self, s):
        for X in _oracle_designs():
            d = X.n_cols
            brute = max(
                rno_fixed_supports(X, SupportSet(d, a), SupportSet(d, a), SupportSet(d, b))
                for a, b in itertools.permutations(itertools.combinations(range(d), s), 2)
                if not set(a) & set(b))
            value, sa, sb = max_rno_over_disjoint_pairs(X, s)
            assert value == pytest.approx(brute, abs=1e-12)
            assert len(sa) == len(sb) == s and not set(sa) & set(sb)
            A = SupportSet(d, sa)
            assert rno_fixed_supports(X, A, A, SupportSet(d, sb)) == pytest.approx(value, abs=1e-12)

    @pytest.mark.parametrize("s", [1, 2, 3])
    def test_rno_constant(self, s):
        for X in _oracle_designs():
            d = X.n_cols
            for idx in ((0, 1, 2), (3, 4, 6)):
                S = SupportSet(d, idx)
                comp = S.complement()
                if s > min(S.size, comp.size):
                    continue
                brute = max(
                    rno_fixed_supports(X, S, SupportSet(d, a), SupportSet(d, b))
                    for a in itertools.combinations(S.indices, s)
                    for b in itertools.combinations(comp.indices, s))
                cert = rno_constant(X, S, s)
                assert cert.value == pytest.approx(brute, abs=1e-12)
                Sa, Sb = cert.witness
                assert S.contains(Sa) and comp.contains(Sb) and Sa.size == Sb.size == s
                assert rno_fixed_supports(X, S, Sa, Sb) == pytest.approx(cert.value, abs=1e-12)

    def test_duplicated_column_ties_at_one(self):
        X = _oracle_designs()[1]
        for s in (1, 2, 3):
            value, sa, sb = max_rno_over_disjoint_pairs(X, s)
            assert value == pytest.approx(1.0, abs=1e-12)
            assert {0, 7} <= set(sa) | set(sb)


def test_disjoint_pair_enumeration_memory_is_bounded():
    X = gaussian_design(60, 24, seed=77)
    tracemalloc.start()
    try:
        max_rno_over_disjoint_pairs(X, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20


class TestRipConstant:
    def test_orthonormal_zero(self):
        X = orthonormal_design(10, 6, seed=6)
        Xu = DesignMatrix(X.entries / math.sqrt(10))
        for s in (1, 2, 3):
            assert rip_constant(Xu, s).value <= 1e-9

    def test_duplicated_pair(self):
        col = np.random.default_rng(8).standard_normal((20, 1))
        X = normalize_columns(DesignMatrix(np.hstack([col, col, -col + 2.0])))
        Xu = DesignMatrix(X.entries / math.sqrt(20))
        cert = rip_constant(Xu, 2)
        assert cert.value >= math.sqrt(2) - 1 - 1e-12

    def test_matches_per_support_svd(self):
        X = gaussian_design(60, 12, seed=31)
        Xu = DesignMatrix(X.entries / math.sqrt(60))
        cert = rip_constant(Xu, 2)
        devs = {}
        for T in itertools.combinations(range(12), 2):
            sv = np.linalg.svd(Xu.entries[:, list(T)], compute_uv=False)
            devs[T] = max(1 - sv[-1], sv[0] - 1)
        assert len(devs) == 66
        assert cert.value == pytest.approx(max(devs.values()), abs=1e-12)
        assert cert.witness.indices == max(devs, key=devs.get)


class TestFormulaBounds:
    def test_rip_to_rno_values(self):
        assert rip_to_rno_bound(0.0) == 0.0
        assert rip_to_rno_bound(1.0 / 3.0) == pytest.approx(3.0, rel=1e-12)
        assert rip_to_rno_bound(0.1) == pytest.approx(0.4 / 0.81, rel=1e-12)
        with pytest.raises(ValueError):
            rip_to_rno_bound(1.0)

    def test_rno_to_re_values(self):
        # large s limit recovers gamma_S
        assert rno_to_re_lower_bound(0.0, 10**12, 1, 0.5, C=4.0) == pytest.approx(0.5, rel=1e-5)
        # epsilon=0.02 with the root term equal to 0.08 gives 0.9 * 0.5
        val = rno_to_re_lower_bound(0.02, 625, 1, 0.5, C=0.08 * math.sqrt(0.5 * 625))
        assert val == pytest.approx(0.45, rel=1e-12)
        # epsilon=1 forces a non-positive bound
        assert rno_to_re_lower_bound(1.0, 4, 1, 0.5, C=4.0) <= 0.0

    def test_rip_rno_dominance_small_designs(self):
        # deterministic theorem: orthogonality never beats the isometry bound
        for seed in range(5):
            X = gaussian_design(40, 8, seed=seed + 70)
            Xu = DesignMatrix(X.entries / math.sqrt(40))
            delta = rip_constant(Xu, 4).value
            bound = rip_to_rno_bound(delta) if delta < 1 else math.inf
            for idx in ((0, 1), (0, 1, 2, 3), (2, 5, 7)):
                S = SupportSet(8, idx)
                eps = rno_constant(X, S, 2).value
                assert eps <= bound + 1e-9


class TestPartialRotationFailureRate:
    def _setup(self):
        X = gaussian_design(100, 8, seed=44)
        S = SupportSet(8, (0, 1, 2))
        alpha = SparseVector.from_dense(np.array([1.0, -1.0, 2.0]))
        beta = SparseVector.from_dense(np.ones(5))
        return X, S, alpha, beta

    def test_epsilon_one_never_fails(self):
        X, S, alpha, beta = self._setup()
        regen = lambda sd: partially_rotate(X, S, RotationKind.haar(), sd)
        count = partial_rotation_failure_rate(regen, S, alpha, beta, 1.0, 200, SeedSpec(9))
        assert count == 0

    def test_haar_half_threshold(self):
        X, S, alpha, beta = self._setup()
        regen = lambda sd: partially_rotate(X, S, RotationKind.haar(), sd)
        count = partial_rotation_failure_rate(regen, S, alpha, beta, 0.5, 2000, SeedSpec(10))
        assert isinstance(count, int)
        assert count <= 2

    def test_determinism(self):
        X, S, alpha, beta = self._setup()
        regen = lambda sd: partially_rotate(X, S, RotationKind.gaussian(), sd)
        c1 = partial_rotation_failure_rate(regen, S, alpha, beta, 0.2, 300, SeedSpec(12))
        c2 = partial_rotation_failure_rate(regen, S, alpha, beta, 0.2, 300, SeedSpec(12))
        assert c1 == c2
