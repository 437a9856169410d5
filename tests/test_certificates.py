import functools
import itertools
import json
import math
import tracemalloc
from math import comb

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.special import betainc
from scipy.stats import binom

from rotlasso import (
    DesignMatrix,
    EnumerationTooLargeError,
    InvalidSupportError,
    RotationKind,
    SeedSpec,
    SparseVector,
    SupportSet,
    cone_membership,
    correlated_block_design,
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
    seeded_stream,
)
from rotlasso import certificates, write_design
from rotlasso.cli import main as cli_main
from rotlasso.certificates import (
    _DESCENT_CAP,
    ConeSpec,
    _combinations,
    _descend,
    _rip_clear_margin,
    _rip_cleared,
    _sampled_subsets,
    _step,
    max_rno_over_disjoint_pairs,
)

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


def sphere_grid_gamma_prime(G, sp, zooms=12):
    """Brute-force gamma' at d = 3: min z^T G z over unit z in the cone of the
    rows ``sp`` (L = 1), from a 1 degree grid on the sphere and then
    tangent-plane grids zoomed around each of the 100 best cone points."""
    def cone_values(Z):
        on = np.abs(Z[sp]).sum(axis=0)
        Z = Z[:, np.abs(Z).sum(axis=0) - on <= on]
        return np.einsum("dm,dm->m", Z, G @ Z), Z

    h = np.deg2rad(1.0)
    T, P = np.meshgrid(np.arange(0.0, 2.0 * np.pi, h), np.arange(0.0, np.pi + h / 2, h))
    sphere = np.stack([np.sin(P) * np.cos(T), np.sin(P) * np.sin(T), np.cos(P)])
    vals, Z = cone_values(sphere.reshape(3, -1))
    best = float(vals.min())
    A, B = np.meshgrid(np.linspace(-1.0, 1.0, 41), np.linspace(-1.0, 1.0, 41))
    offsets = np.stack([A.ravel(), B.ravel()])
    for c in Z[:, np.argsort(vals)[:100]].T:
        width = h
        for _ in range(zooms):
            tangent = np.linalg.svd(c[None, :])[2][1:]
            W = c[:, None] + width * (tangent.T @ offsets)
            v, W = cone_values(W / np.linalg.norm(W, axis=0))
            c = W[:, int(np.argmin(v))]
            best = min(best, float(v.min()))
            width /= 4.0
    return best


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

    def test_gamma_iterations_count_the_tight_descent(self, monkeypatch):
        counted = {"descents": 0, "descent": 0}
        descend = certificates._descend

        def descend_spy(*args, **kwargs):
            out = descend(*args, **kwargs)
            counted["descents"] += 1
            counted["descent"] += out[2]
            return out

        monkeypatch.setattr(certificates, "_descend", descend_spy)
        # an instance whose free minimiser leaves the cone, so the search runs
        X = gaussian_design(23, 8, seed=501)
        S = SupportSet(8, (0, 4))
        cert = re_constant(X, ConeSpec(S), S, mode="gamma")
        report = cert.solver_report
        assert cert.method == "multistart"
        assert counted["descents"] == 1 and counted["descent"] > 0
        assert report.iterations == counted["descent"]

    def test_gamma_starts_are_the_restarts_directions(self, monkeypatch):
        # mode gamma on its own cone descends from the distinct cone blocks of
        # the restarts, normalised, with the off-support block at 0
        seen = []
        descend = certificates._descend

        def descend_spy(G, Z, *args):
            seen.append((G, Z.copy()))
            return descend(G, Z, *args)

        monkeypatch.setattr(certificates, "_descend", descend_spy)
        X = gaussian_design(12, 10, seed=7)
        S = SupportSet(10, (1, 4, 6))
        certificates._re_search(X, ConeSpec(S), S, "gamma", "multistart", SeedSpec(3), 20)
        [(G, Z)] = seen
        U = np.unique(certificates._starts(G, 3, np.arange(3), 1.0, SeedSpec(3), 20)[:3], axis=1)
        U /= np.linalg.norm(U, axis=0)
        assert np.array_equal(Z[:3], U) and not Z[3:].any()

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
                assert cert.witness == lambda_min_restricted(XS, S).witness

    def test_gamma_prime_matches_sphere_grid(self):
        # below the full cone at d = 3; the cone must bind in some cases, or
        # the check would only repeat the smallest eigenvalue
        binding = 0
        for seed in range(4):
            X = gaussian_design(5 + seed, 3, seed=seed)
            G = X.entries.T @ X.entries / X.n_rows
            for p in (1, 2):
                S = SupportSet(3, tuple(range(p)))
                grid = sphere_grid_gamma_prime(G, S.array())
                ms = re_constant(X, ConeSpec(S), S, mode="gamma_prime").value
                assert abs(ms - grid) <= 1e-3 * grid
                binding += grid > float(np.linalg.eigvalsh(G)[0]) + 1e-3
        assert binding >= 2

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

    def test_nonconvergence_is_flagged_not_raised(self, monkeypatch):
        # an instance whose free minimiser leaves the cone: with the descent
        # capped at 2 iterations, before its first residual test, the search
        # stops on the cap
        X = gaussian_design(10, 8, seed=146)
        S = SupportSet(8, (0, 1))
        with monkeypatch.context() as m:
            m.setattr(certificates, "_DESCENT_CAP", 2)
            cert = re_constant(X, ConeSpec(S), S, mode="gamma")
        assert cert.method == "multistart"
        assert not cert.solver_report.converged
        uncapped = re_constant(X, ConeSpec(S), S, mode="gamma")
        assert uncapped.solver_report.converged
        # still a valid upper bound certified by a feasible witness
        assert cert.value >= uncapped.value - 1e-6

    def test_joint_residual_tells_cut_short_from_finished(self, monkeypatch):
        X = gaussian_design(23, 8, seed=509)
        S = SupportSet(8, (0, 4))
        runs = []
        for cap in (1, _DESCENT_CAP):
            monkeypatch.setattr(certificates, "_DESCENT_CAP", cap)
            runs.append(certificates._re_search(X, ConeSpec(S), S, "gamma_prime",
                                                "multistart", None, 64)[1])
        assert not runs[0].converged and runs[1].converged
        assert runs[0].residual > runs[1].residual
        # on the exact cone projection a finished descent is stationary
        assert runs[1].residual <= 1e-6

    def test_gamma_prime_does_not_depend_on_its_starts(self):
        X = gaussian_design(23, 8, seed=509)
        S = SupportSet(8, (0, 4))
        values = [re_constant(X, ConeSpec(S), S, mode="gamma_prime", seed=SeedSpec(s)).value
                  for s in range(6)]
        values.append(re_constant(X, ConeSpec(S), S, mode="gamma_prime", n_starts=640).value)
        assert max(values) - min(values) <= 1e-9 * min(values)

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


class TestBatchedDescent:
    """A block of starts descended together against each start descended alone."""

    @pytest.mark.parametrize("den", ["cone", "subset", "all"])
    def test_each_column_follows_its_own_path(self, den, monkeypatch):
        # with the residual stop off, every column runs to the cap
        monkeypatch.setattr(certificates, "_certificate", lambda step0: -math.inf)
        monkeypatch.setattr(certificates, "_DESCENT_CAP", 300)
        rng = np.random.default_rng(83)
        for seed, (n, d, p) in enumerate(((20, 12, 2), (30, 20, 3))):
            X = gaussian_design(n, d, seed=400 + seed)
            G = X.entries.T @ X.entries / n
            rows = {"cone": slice(None, p), "subset": np.arange(p - 1), "all": slice(None)}[den]
            Z = rng.standard_normal((d, 6))
            Z[:p, 2] = 0.0  # a vanishing denominator: this start is dropped
            # a step 8 times the safe one makes some columns reject steps
            args = (p, rows, 1.0, 8.0 * _step(G))
            _, rho, its, _, stop = _descend(G, Z.copy(), *args)
            alone = [_descend(G, Z[:, [c]].copy(), *args)[1] for c in (0, 1, 3, 4, 5)]
            assert its == 300 and stop == "cap"
            assert rho.shape == (5,)
            assert _descend(G, Z[:, [2]].copy(), *args)[1].size == 0
            assert_allclose(rho, np.concatenate(alone), rtol=1e-12, atol=0.0)


def _criterion_2_instances():
    """The 200 RE instances of acceptance criterion 2, in its order."""
    rng = np.random.default_rng(42)
    for _ in range(200):
        n = int(rng.integers(5, 21))
        d = int(rng.integers(4, 13))
        p = int(rng.integers(1, 4))
        X = normalize_columns(DesignMatrix(rng.standard_normal((n, d))))
        yield X, SupportSet.of(d, rng.choice(d, size=p, replace=False))


@functools.cache
def _criterion_2_searches(mode):
    """The iterative search of ``re_constant`` on each of criterion 2's
    instances, whether or not the closed form certifies it, with a spy on
    its face solve.  One (finished witness, report, the descent's witness,
    the face point or None) per instance, each dense in the design's
    coordinates."""
    face_solve = certificates._face_solve
    out = []
    for X, S in _criterion_2_instances():
        order = np.concatenate([S.array(), S.complement().array()])
        seen = []

        def spy(G, z, *args):
            seen.append((z, face_solve(G, z, *args)))
            return seen[-1][1]

        certificates._face_solve = spy
        try:
            finished, report = certificates._re_search(X, ConeSpec(S), S, mode, "multistart",
                                                       None, 64)
        finally:
            certificates._face_solve = face_solve
        [(z, face)] = seen
        dense = np.zeros((2, X.n_cols))
        dense[:, order] = z if face is None else np.stack([z, face])
        out.append((finished, report, dense[0], None if face is None else dense[1]))
    return out


class TestDescentStop:
    """Which rule ends the joint descent, and what ``converged`` then means."""

    def test_each_rule_reports_itself(self, monkeypatch):
        # the instance of test_joint_residual_tells_cut_short_from_finished
        X = gaussian_design(23, 8, seed=509)
        S = SupportSet(8, (0, 4))
        E = X.entries[:, [0, 4, 1, 2, 3, 5, 6, 7]]
        G = E.T @ E / 23
        step0 = _step(G)
        tol = math.sqrt(np.finfo(float).eps / 2) / (2.0 * step0)
        starts = certificates._starts(G, 2, np.arange(2), 1.0, None, 64)
        args = (G, starts, 2, slice(None), 1.0, step0)
        # the residual test passes on a check iteration, long before the cap
        _, _, its, res, stop = _descend(*args)
        assert stop == "residual" and its % 20 == 0 and its < _DESCENT_CAP and res <= tol
        monkeypatch.setattr(certificates, "_DESCENT_CAP", 7)
        _, _, its, res, stop = _descend(*args)
        assert stop == "cap" and its == 7 and res > tol
        for cap, stop in ((1, "cap"), (_DESCENT_CAP, "residual")):
            monkeypatch.setattr(certificates, "_DESCENT_CAP", cap)
            report = certificates._re_search(X, ConeSpec(S), S, "gamma_prime", "multistart",
                                             None, 64)[1]
            assert report.stop == stop and report.converged is (stop == "residual")

    @pytest.mark.parametrize("mode", ["gamma", "gamma_prime"])
    def test_gamma_prime_finishes_on_criterion_2(self, mode):
        # values near rounding level, where no relative fall settles, and a
        # creeping non-best restart once held the batch to the cap; in mode
        # gamma the stop is that of the batched descent, and the iterations
        # add the inner sweeps.  The search runs on every instance, those
        # that the closed form certifies included.
        reports = [search[1] for search in _criterion_2_searches(mode)]
        if mode == "gamma_prime":
            assert sum(r.iterations >= _DESCENT_CAP for r in reports) == 0
        assert all(r.converged and r.stop == "residual" for r in reports)

    def test_a_capped_descent_is_read_at_its_face_point(self):
        # groups 8, rho 0.05, seed 0: mode gamma's descent reaches its cap
        # short of its certificate, and the face solve finishes it.  The
        # report's residual and ``converged`` are those of the point returned;
        # ``stop`` still names the rule that ended the descent.
        S = SupportSet(64, (0, 1, 2))
        X = correlated_block_design(200, 64, S, 8, 0.05, SeedSpec(0))
        G = X.entries.T @ X.entries / X.n_rows
        tol = math.sqrt(np.finfo(float).eps / 2) * float(np.linalg.eigvalsh(G)[-1])
        cert = re_constant(X, ConeSpec(S), S, mode="gamma")
        report = cert.solver_report
        assert cert.method == "multistart" and report.stop == "cap"
        assert report.iterations == _DESCENT_CAP
        assert report.converged and report.residual <= tol

    def test_creeping_restart_does_not_hold_the_batch(self):
        X, S = list(_criterion_2_instances())[79]
        assert (X.n_rows, X.n_cols, S.indices) == (6, 8, (0, 2, 6))
        cert = re_constant(X, ConeSpec(S), S, mode="gamma_prime")
        assert cert.solver_report.converged
        assert f"{cert.value:.9e}" == "3.231862397e-04"


class TestClosedForm:
    """The free minimiser of the RE quotient, certified when it lies in the cone."""

    @pytest.mark.parametrize("mode", ["gamma", "gamma_prime"])
    def test_criterion_2_against_the_search(self, mode):
        # A closed-form witness lies in the cone and is no worse than the
        # search.  Where it falls back, the free value, a relaxation of the
        # cone, is at most the search's value.
        closed = 0
        for (X, S), (z, *_) in zip(_criterion_2_instances(), _criterion_2_searches(mode)):
            cone = ConeSpec(S)
            searched = re_objective_value(X, z, S, mode)
            cert = re_constant(X, cone, S, mode=mode)
            if cert.method == "exact_svd":
                closed += 1
                report = cert.solver_report
                assert report.converged and report.stop is None
                assert cone_membership(cert.witness, cone)
                assert cert.value <= searched * (1.0 + 1e-12) + 1e-15
            else:
                assert cert.value == searched
                free = re_objective_value(X, certificates._free_minimiser(X, S, mode), S, mode)
                assert free <= searched * (1.0 + 1e-12) + 1e-15
        # both branches are exercised: 78 and 27 of the 200 take the closed form
        assert 20 <= closed <= 180

    def test_below_the_grid_oracle(self):
        checked = 0
        for X, S in _criterion_2_instances():
            cert = re_constant(X, ConeSpec(S), S, mode="gamma")
            if cert.method != "exact_svd":
                continue
            go = re_constant(X, ConeSpec(S), S, mode="gamma", method="grid_oracle")
            assert go.method == "grid_oracle" and go.solver_report.stop == "residual"
            assert cert.value <= go.value * (1.0 + 1e-12) + 1e-15
            checked += 1
            if checked == 25:
                break
        assert checked == 25

    def test_a_binding_cone_falls_back_to_the_search(self):
        # thm-main's design with 8 perturbed off-support groups: the free
        # minimiser spends more l1 mass off the support than the cone allows
        S = SupportSet(64, (0, 1, 2))
        X = correlated_block_design(200, 64, S, 8, 0.05, SeedSpec(5))
        z = certificates._free_minimiser(X, S, "gamma")
        assert np.abs(z[3:]).sum() > np.abs(z[:3]).sum()
        cert = re_constant(X, ConeSpec(S), S, mode="gamma")
        assert cert.method == "multistart" and cert.solver_report.stop == "residual"
        assert cert.value >= re_objective_value(X, z, S, "gamma")

    def test_free_minimum_vanishes_when_the_rest_spans_the_support(self):
        # with the off-support columns inside span(X_{S'}), M = 0 and the
        # free minimum is 0: the least-norm block cancels X_{S'} u exactly
        rng = np.random.default_rng(5)
        B = rng.standard_normal((12, 2))
        E = np.column_stack([B, B @ rng.standard_normal((2, 3))])
        X = DesignMatrix(E)
        S = SupportSet(5, (0, 1))
        z = certificates._free_minimiser(X, S, "gamma")
        assert abs(np.linalg.norm(z[:2]) - 1.0) <= 1e-12
        assert re_objective_value(X, z, S, "gamma") <= 1e-24


class TestFaceSolve:
    """The exact minimum on the face of the cone that holds the descent's witness."""

    @pytest.mark.parametrize("mode", ["gamma", "gamma_prime"])
    def test_criterion_2_never_above_the_descent(self, mode):
        adopted = 0
        for (X, S), (finished, _, z, face) in zip(_criterion_2_instances(),
                                                  _criterion_2_searches(mode)):
            descent = re_objective_value(X, z, S, mode)
            assert re_objective_value(X, finished, S, mode) <= descent * (1.0 + 1e-12) + 1e-15
            assert cone_membership(finished, ConeSpec(S))
            if face is not None:
                # the face point stays on its face: the signs of z where z is
                # nonzero, and 0 off the support where z is 0
                assert np.all(np.sign(z) * face >= 0.0)
                assert not np.any(face[S.complement().array()][z[S.complement().array()] == 0])
                adopted += np.array_equal(finished, face)
        assert adopted >= 50

    def test_a_tied_lowest_eigenvalue_reaches_rounding(self):
        # gamma = 0 up to rounding: with p = 2 and more off-support columns
        # than rows the face's lowest eigenvalue is tied, and its point
        # nearest the descent's witness must be taken
        X, S = list(_criterion_2_instances())[6]
        finished, _, z, face = _criterion_2_searches("gamma")[6]
        assert (X.n_rows, X.n_cols, S.size) == (6, 12, 2)
        assert face is not None and np.array_equal(finished, face)
        assert re_objective_value(X, finished, S, "gamma") < 1e-15

    def test_a_face_minimum_off_its_face_is_refused(self):
        # z = (1, 1/2, 1/2) lies on the binding face {v_1 + v_2 = u} of the
        # cone with L = 1 on coordinate 0.  X(1, 2, -1) = 0.1 e_3 is the
        # minimum on that plane, and it breaks the sign of v_2, so it is not
        # a point of the face
        E = np.array([[-2.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.1, 0.0, 0.0]])
        G = E.T @ E
        z = np.array([1.0, 0.5, 0.5])
        assert certificates._face_solve(G, z, 1, slice(None, 1), 1.0) is None

    def test_a_point_on_the_cone_boundary_is_adopted(self):
        # the face point lies on the cone boundary, where the plain cone
        # inequality holds only once the off-support block is scaled back
        X, S = list(_criterion_2_instances())[114]
        finished, _, z, face = _criterion_2_searches("gamma")[114]
        assert (X.n_rows, X.n_cols, S.size) == (6, 7, 3)
        assert face is not None and np.array_equal(finished, face)
        on = np.abs(face[S.array()]).sum()
        assert np.abs(face).sum() - on == pytest.approx(on, rel=1e-14)
        assert re_objective_value(X, face, S, "gamma") < re_objective_value(X, z, S, "gamma")


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

    @pytest.mark.parametrize("count", [0, -3])
    def test_sample_count_below_one_rejected(self, count):
        X = gaussian_design(30, 8, seed=2)
        with pytest.raises(ValueError, match="sample_pairs"):
            rno_constant(X, SupportSet(8, (0, 1, 2)), 2, sample_pairs=count)


class TestCombinations:
    @pytest.mark.parametrize("d, s", [(5, 1), (7, 7), (10, 4), (18, 3), (20, 6)])
    def test_matches_itertools(self, d, s):
        want = np.array(list(itertools.combinations(range(d), s)), dtype=np.intp)
        got = _combinations(range(d), s)
        assert got.dtype == np.intp and got.shape == (comb(d, s), s)
        np.testing.assert_array_equal(got, want)

    def test_non_contiguous_pool(self):
        # the complement of a support, as rno_constant enumerates it
        pool = SupportSet(20, (2, 5, 6, 11, 19)).complement().indices
        for s in (1, 3, 15):
            want = np.array(list(itertools.combinations(pool, s)), dtype=np.intp)
            np.testing.assert_array_equal(_combinations(pool, s), want)


def _oracle_designs():
    """A generic design, a duplicated column on orthonormal columns (ties at 1
    and rank-one cross products, where ||C||_F = sigma_max), a column in the
    span of two others (a rank-deficient span of size 3), a wide design
    (n < d, enumerated on its own rows), a tall one (n >> d, enumerated on
    its triangular factor), and orthonormal columns perturbed by 1e-9, whose
    values are about 1e-9."""
    Q = orthonormal_design(12, 7, seed=5).entries
    dependent = gaussian_design(20, 8, seed=41).entries.copy()
    dependent[:, 2] = dependent[:, 0] + dependent[:, 1]
    near = orthonormal_design(12, 8, seed=44).entries
    near = near + 1e-9 * gaussian_design(12, 8, seed=45).entries
    return [gaussian_design(20, 7, seed=40),
            DesignMatrix(np.hstack([Q, Q[:, :1]]), normalized=True),
            normalize_columns(DesignMatrix(dependent)),
            gaussian_design(7, 9, seed=42),
            gaussian_design(300, 8, seed=43),
            normalize_columns(DesignMatrix(near))]


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

    @pytest.mark.parametrize("d, s", [(5, 3), (10, 6), (10, 0), (10, -1)])
    def test_disjoint_pairs_reject_sizes_without_a_pair(self, d, s):
        with pytest.raises(ValueError, match="d/2"):
            max_rno_over_disjoint_pairs(gaussian_design(10, d, seed=1), s)

    def test_spans_of_more_columns_than_rows(self):
        # with n = 2 < s = 3 every span of three columns is the whole plane
        X = gaussian_design(2, 7, seed=46)
        assert max_rno_over_disjoint_pairs(X, 3)[0] == pytest.approx(1.0, abs=1e-12)
        assert rno_constant(X, SupportSet(7, (0, 1, 2)), 3).value == pytest.approx(1.0, abs=1e-12)
        # and every three of its columns have sigma_min = 0, a deviation of 1
        cert = rip_constant(DesignMatrix(X.entries / math.sqrt(2)), 3)
        assert (cert.value, cert.witness.indices) == (1.0, (0, 1, 2))

    def test_duplicated_column_ties_at_one(self):
        X = _oracle_designs()[1]
        for s in (1, 2, 3):
            value, sa, sb = max_rno_over_disjoint_pairs(X, s)
            assert value == pytest.approx(1.0, abs=1e-12)
            assert {0, 7} <= set(sa) | set(sb)


def test_disjoint_pair_enumeration_memory_is_bounded():
    # d = 22 has 746,130 unordered pairs, the most at s = 3 under the cap;
    # d = 16 has 450,450 at s = 4, where thousands of pairs a chunk reach the floor
    for d, s in ((22, 3), (16, 4)):
        X = gaussian_design(60, d, seed=77)
        tracemalloc.start()
        try:
            max_rno_over_disjoint_pairs(X, s)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20, (d, s)


def test_disjoint_pair_enumeration_cap_raises_before_building():
    X = gaussian_design(60, 40, seed=78)
    tracemalloc.start()
    try:
        with pytest.raises(EnumerationTooLargeError, match="2691663975"):
            max_rno_over_disjoint_pairs(X, 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    # C(24, 3) * C(21, 3) / 2 = 1,345,960 pairs, just over the cap
    with pytest.raises(EnumerationTooLargeError):
        max_rno_over_disjoint_pairs(gaussian_design(60, 24, seed=77), 3)


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

    @pytest.mark.parametrize("count", [0, -3])
    def test_sample_count_below_one_rejected(self, count):
        Xu = DesignMatrix(gaussian_design(20, 6, seed=31).entries / math.sqrt(20))
        with pytest.raises(ValueError, match="sample_supports"):
            rip_constant(Xu, 2, sample_supports=count)


def _svd_deviation(Xu, T):
    sv = np.linalg.svd(Xu.entries[:, list(T)], compute_uv=False)
    sigma_min = sv[-1] if Xu.n_rows >= len(T) else 0.0
    return max(1.0 - sigma_min, sv[0] - 1.0)


def _rip_oracle_designs():
    """The RNO oracle designs, whose duplicated and dependent columns make
    some supports exactly singular; orthonormal columns, on which every
    support ties; two columns within 1e-9 and 3e-9 of two others, where
    sigma_min is below 1e-9 and the square root of a rounded Gram eigenvalue
    errs by up to about 2e-8, enough to misrank the winner; and two rows,
    fewer than the columns of a support of size 3, whose sigma_min is 0."""
    near = gaussian_design(20, 8, seed=56).entries.copy()
    noise = np.random.default_rng(56).standard_normal((20, 2))
    near[:, 7] = near[:, 0] + 1e-9 * noise[:, 0]
    near[:, 6] = near[:, 1] + 3e-9 * noise[:, 1]
    return _oracle_designs() + [orthonormal_design(12, 8, seed=7),
                                normalize_columns(DesignMatrix(near)),
                                gaussian_design(2, 7, seed=46)]


class TestRipBruteForce:
    """The enumeration against a per-support SVD loop."""

    @pytest.mark.parametrize("sampled", [False, True])
    @pytest.mark.parametrize("s", [1, 2, 3])
    def test_matches_svd_loop(self, s, sampled):
        for X in _rip_oracle_designs():
            n, d = X.n_rows, X.n_cols
            Xu = DesignMatrix(X.entries / math.sqrt(n))
            if sampled:
                cert = rip_constant(Xu, s, sample_supports=40, seed=SeedSpec(3))
                supports = _sampled_subsets(seeded_stream(SeedSpec(3)), np.arange(d), s, 40)
            else:
                cert = rip_constant(Xu, s)
                supports = itertools.combinations(range(d), s)
            brute = max(_svd_deviation(Xu, T) for T in supports)
            assert cert.solver_report.complete is not sampled
            assert cert.value == pytest.approx(brute, abs=1e-12)
            assert cert.witness.size == s
            # the witness attains the maximum, and a fresh SVD of its columns
            # gives the value (the benchmark's witness rule)
            witness_dev = _svd_deviation(Xu, cert.witness.indices)
            assert witness_dev == pytest.approx(brute, abs=1e-12)
            assert abs(witness_dev - cert.value) <= 1e-12 * max(1.0, cert.value)


def _rip_svd_everything(Xu, supports):
    """The SVD of every support, one at a time, as a reference.  Returns
    the largest deviation, the first support that attains it, and the
    number of supports."""
    dev = [_svd_deviation(Xu, T) for T in supports]
    i = int(np.argmax(dev))
    return float(dev[i]), tuple(int(c) for c in supports[i]), len(supports)


def _unequal_norm_design(n, d, seed):
    """Gaussian columns with norms spread over [0.3, 2] times sqrt(n)."""
    rng = np.random.default_rng(seed)
    E = rng.standard_normal((n, d))
    return DesignMatrix(E / np.linalg.norm(E, axis=0) * rng.uniform(0.3, 2.0, d) * math.sqrt(n))


class TestRipClearance:
    """Supports cleared by the Cholesky test leave every output of an SVD
    of every support unchanged, bit for bit."""

    @staticmethod
    def _check(Xu, s, sample=None, seed=None):
        d = Xu.n_cols
        if sample is None:
            cert = rip_constant(Xu, s)
            supports = np.array(list(itertools.combinations(range(d), s)), dtype=np.intp)
        else:
            cert = rip_constant(Xu, s, sample_supports=sample, seed=seed)
            supports = _sampled_subsets(seeded_stream(seed), np.arange(d), s, sample)
        assert cert.solver_report.complete is (sample is None)
        assert cert.solver_report.residual == 0.0
        assert ((cert.value, cert.witness.indices, cert.solver_report.iterations)
                == _rip_svd_everything(Xu, supports))

    @pytest.mark.parametrize("s", [1, 2, 3])
    def test_oracle_designs(self, s):
        for X in _rip_oracle_designs():
            Xu = DesignMatrix(X.entries / math.sqrt(X.n_rows))
            self._check(Xu, s)
            self._check(Xu, s, sample=40, seed=SeedSpec(3))

    @pytest.mark.parametrize("s", [1, 2, 3, 4, 5, 6])
    def test_gaussian_designs(self, s):
        X = gaussian_design(60, 14, seed=90 + s)
        self._check(DesignMatrix(X.entries / math.sqrt(60)), s)

    def test_many_chunks(self):
        # C(17, 6) = 12,376 supports: later chunks start from an earlier best
        X = gaussian_design(60, 17, seed=97)
        self._check(DesignMatrix(X.entries / math.sqrt(60)), 6)

    def test_sampled_supports_repeat(self):
        # 600 draws from C(7, 3) = 35 supports
        X = gaussian_design(30, 7, seed=98)
        Xu = DesignMatrix(X.entries / math.sqrt(30))
        supports = _sampled_subsets(seeded_stream(SeedSpec(5)), np.arange(7), 3, 600)
        assert len(np.unique(supports, axis=0)) < len(supports)
        self._check(Xu, 3, sample=600, seed=SeedSpec(5))

    @pytest.mark.parametrize("s", [1, 2, 4])
    def test_unequal_column_norms(self, s, tmp_path):
        X = _unequal_norm_design(40, 12, seed=99)
        Xu = DesignMatrix(X.entries / math.sqrt(40))
        self._check(Xu, s)
        self._check(Xu, s, sample=300, seed=SeedSpec(6))
        # the same design through `rotlasso cert --what rip`, which rescales it
        write_design(X, tmp_path / "u")
        out = tmp_path / "rip.json"
        assert cli_main(["cert", "--what", "rip", "--matrix", str(tmp_path / "u"),
                         "--s", str(s), "--out", str(out)]) == 0
        cert = json.loads(out.read_text())
        supports = np.array(list(itertools.combinations(range(12), s)), dtype=np.intp)
        report = cert["solver_report"]
        assert report["complete"] is True and report["residual"] == 0.0
        assert ((cert["value"], tuple(cert["witness"]["indices"]), report["iterations"])
                == _rip_svd_everything(Xu, supports))

    @pytest.mark.parametrize("s", [1, 2])
    def test_cleared_supports_keep_the_margin(self, s, monkeypatch):
        # Orthogonal columns with chosen norms: a support's deviation is the
        # largest |norm - 1| among its columns.  Nine columns of norm 1.5 fill
        # the leads and set the best, 0.5.  Ten columns sit j/8 margins below
        # the best, j = 1..10, and six have norm 1.  A cleared support's SVD
        # deviation must lie more than half a margin below the best, so
        # columns j <= 3 must never be cleared, and columns j >= 9 are.
        d = 25
        probe = np.diag(np.r_[np.full(9, 1.5), np.ones(d - 9)])
        margin = _rip_clear_margin(probe.T @ probe, d, s)
        norms = np.r_[np.full(9, 1.5), 1.5 - np.arange(1, 11) * margin / 8, np.ones(6)]
        Xu = DesignMatrix(np.diag(norms))
        assert _rip_clear_margin(Xu.entries.T @ Xu.entries, d, s) == margin
        cleared = []

        def spy(B, tau):
            ok = _rip_cleared(B, tau)
            cleared.append(ok)
            return ok

        monkeypatch.setattr(certificates, "_rip_cleared", spy)
        self._check(Xu, s)
        # one chunk, so the mask runs over the supports in enumeration order
        supports = list(itertools.combinations(range(d), s))
        (ok,) = cleared
        dev = np.array([_svd_deviation(Xu, T) for T in supports])
        assert dev.max() == 0.5
        assert dev[ok].max() < 0.5 - margin / 2
        cols = [set(T) for T in supports]
        assert not any(ok[i] and c & {9, 10, 11} for i, c in enumerate(cols))
        assert all(ok[i] for i, c in enumerate(cols) if c <= set(range(17, d)))


def test_rip_enumeration_memory_is_bounded():
    X = gaussian_design(60, 28, seed=78)
    Xu = DesignMatrix(X.entries / math.sqrt(60))
    tracemalloc.start()
    try:
        cert = rip_constant(Xu, 6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert cert.solver_report.iterations == 376_740
    assert peak < 32 * 2**20


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
        return gaussian_design(100, 8, seed=44), SupportSet(8, (0, 1, 2))

    def test_epsilon_one_never_fails(self):
        X, S = self._setup()
        assert partial_rotation_failure_rate(X, S, RotationKind.haar(), 1.0, 200,
                                             SeedSpec(9)) == 0

    def test_haar_half_threshold(self):
        X, S = self._setup()
        count = partial_rotation_failure_rate(X, S, RotationKind.haar(), 0.5, 2000, SeedSpec(10))
        assert isinstance(count, int)
        assert count <= 2

    @pytest.mark.parametrize("epsilon", [-0.1, float("nan")])
    def test_bad_epsilon_rejected(self, epsilon):
        X, S = self._setup()
        with pytest.raises(ValueError):
            partial_rotation_failure_rate(X, S, RotationKind.haar(), epsilon, 5, SeedSpec(9))

    def test_determinism(self):
        X, S = self._setup()
        c1 = partial_rotation_failure_rate(X, S, RotationKind.gaussian(), 0.2, 300, SeedSpec(12))
        c2 = partial_rotation_failure_rate(X, S, RotationKind.gaussian(), 0.2, 300, SeedSpec(12))
        assert c1 == c2

    @pytest.mark.parametrize("rotated", ["complement", "support"])
    @pytest.mark.parametrize("kind", [RotationKind.haar(), RotationKind.gaussian()],
                             ids=["haar", "gaussian"])
    def test_matches_a_loop_over_partial_rotations(self, kind, rotated):
        # the count against one partially_rotate per trial, with both column
        # sums taken from the rotated design
        X = gaussian_design(50, 8, seed=45)
        kept = SupportSet(8, (0, 1, 2))
        if rotated == "support":
            kept = kept.complement()
        rest = kept.complement()
        epsilon, trials, seed = 0.15, 200, SeedSpec(14)
        expected = 0
        for t in range(trials):
            Xp = partially_rotate(X, kept, kind, seed.substream(t)).entries
            u = Xp[:, kept.array()] @ np.ones(kept.size)
            v = Xp[:, rest.array()] @ np.ones(rest.size)
            if abs(float(u @ v)) > epsilon * float(np.linalg.norm(u)) * float(np.linalg.norm(v)):
                expected += 1
        assert 0 < expected < trials
        assert partial_rotation_failure_rate(X, kept, kind, epsilon, trials, seed) == expected

    @pytest.mark.parametrize("rotated", ["complement", "support"])
    def test_haar_count_follows_beta_law(self, rotated):
        # a Haar rotation sends either column sum to a uniform direction, so
        # cos^2 ~ Beta(1/2, (n-1)/2) whichever block it rotates; the cosine is
        # symmetric in the two blocks, so keeping S^c rotates S
        X, S = self._setup()
        kept = S.complement() if rotated == "support" else S
        trials = 1500
        p = 1.0 - betainc(0.5, (100 - 1) / 2.0, 0.2**2)
        assert p == pytest.approx(4.49e-2, abs=5e-5)
        lo, hi = binom.interval(1.0 - 1e-6, trials, p)
        count = partial_rotation_failure_rate(X, kept, RotationKind.haar(), 0.2, trials,
                                              SeedSpec(13))
        assert lo <= count <= hi
