import math

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from rotlasso import (
    BlockSpec,
    CorrelatedGroup,
    DesignMatrix,
    RotationKind,
    SeedSpec,
    SupportSet,
    correlated_block_design,
    counterexample_design,
    partially_rotate,
    rotated_adversary_design,
    sample_rotation,
    semirandom_gaussian_design,
)

from conftest import gaussian_design


def column_norms(X):
    return np.linalg.norm(X.entries, axis=0)


class TestSampleRotation:
    def test_haar_is_orthogonal(self):
        for sid in range(5):
            R = sample_rotation(RotationKind.haar(), 12, SeedSpec(3, sid))
            assert np.max(np.abs(R.T @ R - np.eye(12))) <= 1e-10

    def test_haar_uniform_sphere_moments(self):
        # rotate one fixed unit vector many times; coordinates of the image
        # should have mean 0 and second moment 1/n
        n, trials = 8, 10_000
        v = np.zeros(n)
        v[0] = 1.0
        images = np.empty((trials, n))
        for t in range(trials):
            R = sample_rotation(RotationKind.haar(), n, SeedSpec(99, t))
            images[t] = R @ v
        mean_tol = 5.0 / math.sqrt(trials * n)
        assert np.max(np.abs(images.mean(axis=0))) <= mean_tol
        second = (images ** 2).mean(axis=0)
        assert np.max(np.abs(second - 1.0 / n)) <= 5.0 * math.sqrt(2.0 / (n * trials))

    def test_rademacher_support(self):
        R = sample_rotation(RotationKind.rademacher(), 9, SeedSpec(1))
        assert set(np.unique(R)) == {-1.0, 1.0}

    def test_gaussian_scale_and_determinism(self):
        kind = RotationKind.gaussian(sigma=0.5)
        R1 = sample_rotation(kind, 40, SeedSpec(5, 2))
        R2 = sample_rotation(kind, 40, SeedSpec(5, 2))
        assert_array_equal(R1, R2)
        assert abs(R1.std() - 0.5) < 0.05

    def test_rejects_bad_kind(self):
        with pytest.raises(ValueError):
            RotationKind("hadamard")
        with pytest.raises(ValueError):
            RotationKind.gaussian(sigma=0.0)


class TestPartiallyRotate:
    def test_support_columns_untouched(self):
        X = gaussian_design(30, 8, seed=4)
        S = SupportSet(8, (1, 5, 6))
        out = partially_rotate(X, S, RotationKind.haar(), SeedSpec(11))
        assert_array_equal(out.entries[:, S.array()], X.entries[:, S.array()])
        assert out.normalized

    def test_column_norms(self):
        X = gaussian_design(25, 6, seed=8)
        out = partially_rotate(X, SupportSet(6, (0,)), RotationKind.haar(), SeedSpec(2))
        assert np.max(np.abs(column_norms(out) - 5.0)) <= 1e-9 * 5.0

    def test_block_grams_preserved(self):
        X = gaussian_design(40, 10, seed=3)
        S = SupportSet(10, (0, 3, 4))
        comp = S.complement().array()
        out = partially_rotate(X, S, RotationKind.haar(), SeedSpec(21))
        g_in = X.entries[:, S.array()].T @ X.entries[:, S.array()] / 40
        g_out = out.entries[:, S.array()].T @ out.entries[:, S.array()] / 40
        assert_array_equal(g_out, g_in)
        c_in = X.entries[:, comp].T @ X.entries[:, comp] / 40
        c_out = out.entries[:, comp].T @ out.entries[:, comp] / 40
        assert np.max(np.abs(c_out - c_in)) <= 1e-9

    def test_subgaussian_kinds_renormalize(self):
        X = gaussian_design(30, 5, seed=9)
        for kind in (RotationKind.gaussian(), RotationKind.rademacher()):
            out = partially_rotate(X, SupportSet(5, (0, 1)), kind, SeedSpec(6))
            assert_allclose(column_norms(out), math.sqrt(30), rtol=1e-12)

    def test_cross_block_decorrelation(self):
        # fixed unit combinations from the two spans almost never correlate
        # above 0.5 after rotation: at n=100 that is a 5 sigma event
        n, d = 100, 10
        X = gaussian_design(n, d, seed=14)
        S = SupportSet(d, (0, 1, 2))
        comp = S.complement().array()
        alpha = np.array([1.0, -2.0, 0.5])
        beta = np.ones(d - 3)
        u = X.entries[:, S.array()] @ alpha
        exceed = 0
        for t in range(1000):
            out = partially_rotate(X, S, RotationKind.haar(), SeedSpec(1000, t))
            w = out.entries[:, comp] @ beta
            cos = abs(u @ w) / (np.linalg.norm(u) * np.linalg.norm(w))
            exceed += cos > 0.5
        assert exceed == 0


class TestSemirandomGaussian:
    def test_empty_support(self):
        X = gaussian_design(10, 4, seed=1)
        out = semirandom_gaussian_design(X, SupportSet(4), SeedSpec(3))
        assert_array_equal(out.entries, X.entries)

    def test_full_support(self):
        X = gaussian_design(10, 4, seed=1)
        out = semirandom_gaussian_design(X, SupportSet(4, (0, 1, 2, 3)), SeedSpec(3))
        assert not np.array_equal(out.entries, X.entries)
        assert_allclose(column_norms(out), math.sqrt(10), rtol=1e-12)

    def test_replaced_columns_nearly_orthogonal(self):
        # base with all-identical columns; the two planted Gaussian columns
        # still come out nearly orthogonal
        n, d = 64, 5
        base = DesignMatrix(np.ones((n, d)), normalized=True)
        worst = 0.0
        for t in range(100):
            out = semirandom_gaussian_design(base, SupportSet(d, (0, 1)), SeedSpec(17, t))
            val = abs(out.entries[:, 0] @ out.entries[:, 1]) / n
            worst = max(worst, val)
        assert worst <= 5.0 / math.sqrt(n)


class TestRotatedAdversary:
    def test_empty_adversary(self):
        X = gaussian_design(12, 3, seed=5)
        out = rotated_adversary_design(X, np.zeros((12, 0)), RotationKind.haar(), SeedSpec(1))
        assert out is X

    def test_identical_adversaries_stay_rank_one(self):
        X = gaussian_design(20, 4, seed=6)
        a = gaussian_design(20, 1, seed=7).entries
        A = np.tile(a, (1, 3))
        out = rotated_adversary_design(X, A, RotationKind.haar(), SeedSpec(9))
        assert out.n_cols == 7
        block = out.entries[:, 4:]
        sv = np.linalg.svd(block, compute_uv=False)
        assert sv[1] <= 1e-10 * sv[0]
        assert_allclose(column_norms(out), math.sqrt(20), rtol=1e-12)

    def test_copies_of_design_columns_decorrelate(self):
        n, d = 100, 6
        X = gaussian_design(n, d, seed=8)
        alpha = np.ones(d)
        beta = np.ones(d)
        u = X.entries @ alpha
        exceed = 0
        for t in range(300):
            out = rotated_adversary_design(X, X.entries, RotationKind.haar(), SeedSpec(31, t))
            w = out.entries[:, d:] @ beta
            cos = abs(u @ w) / (np.linalg.norm(u) * np.linalg.norm(w))
            exceed += cos > 0.5
        assert exceed == 0


class TestCounterexampleDesign:
    def test_duplicated_pair_bitwise_equal(self):
        X, S = counterexample_design(50, 12, 6, SeedSpec(13))
        assert_array_equal(X.entries[:, 6], X.entries[:, 7])
        assert S.indices == tuple(range(6))

    def test_restricted_gram_is_identity(self):
        n, k = 100, 5
        X, S = counterexample_design(n, 10, k, SeedSpec(4))
        gram = X.entries[:, :k].T @ X.entries[:, :k] / n
        assert_array_equal(gram, np.eye(k))

    def test_witness_image_energy(self):
        n, d, k = 100, 14, 10
        X, _ = counterexample_design(n, d, k, SeedSpec(21))
        beta = np.zeros(d)
        beta[:k] = 1.0
        beta[k] = k / 2.0
        beta[k + 1] = -k / 2.0
        img = X.entries @ beta
        assert_allclose(img @ img / n, k, rtol=1e-12)

    def test_size_errors(self):
        with pytest.raises(ValueError):
            counterexample_design(5, 10, 4, SeedSpec(0))
        with pytest.raises(ValueError):
            counterexample_design(10, 5, 4, SeedSpec(0))

    def test_extra_columns_are_normalized(self):
        X, _ = counterexample_design(30, 9, 3, SeedSpec(2))
        assert_allclose(column_norms(X), math.sqrt(30), rtol=1e-12)


class TestCorrelatedBlockDesign:
    def test_single_group_duplicates(self):
        S = SupportSet(10, (0, 1, 2))
        X = correlated_block_design(20, 10, S, BlockSpec.single_group(S), SeedSpec(5))
        block = X.entries[:, 3:]
        for j in range(1, 7):
            assert_array_equal(block[:, j], block[:, 0])

    def test_two_groups_rank_two(self):
        S = SupportSet(8, (0,))
        X = correlated_block_design(16, 8, S, BlockSpec.split(S, 2), SeedSpec(6))
        sv = np.linalg.svd(X.entries[:, 1:], compute_uv=False)
        assert sv[1] > 1e-6 * sv[0]
        assert sv[2] <= 1e-10 * sv[0]

    def test_perturbed_groups_high_cosine(self):
        S = SupportSet(12, (0, 1))
        X = correlated_block_design(40, 12, S, BlockSpec.single_group(S, rho=0.01), SeedSpec(7))
        block = X.entries[:, 2:] / math.sqrt(40)
        cos = block.T @ block
        assert np.min(cos) >= 0.999

    def test_partition_validation(self):
        S = SupportSet(6, (0, 1))
        with pytest.raises(ValueError):
            correlated_block_design(10, 6, S, BlockSpec((CorrelatedGroup((2, 3)),)), SeedSpec(1))
        with pytest.raises(ValueError):
            CorrelatedGroup(())
        with pytest.raises(ValueError):
            BlockSpec(())
