import dataclasses
import sys

import numpy as np
import pytest

from dcquartic import (
    DualityError,
    SingularMatrixError,
    correspondence_report,
    find_critical_pairs,
    generate_instance,
    iter_ensemble,
    j1_star,
    lift_to_dual,
    linalg,
    primal_hessian,
    search_correspondence_counterexample,
    validate_instance,
)
from dcquartic import baseline, report
from dcquartic.instancefile import dumps_canonical
from dcquartic.report import analyze_instance


class TestValues:
    def test_hand_values(self, p_tri, p_min):
        assert j1_star(p_min, [1.0])[0] == pytest.approx(-0.5)
        assert j1_star(p_tri, [2.0])[0] == pytest.approx(2.0)

    def test_singular_matrix(self, p_tri):
        # A + v0 B = -1 + 1 = 0
        with pytest.raises(SingularMatrixError):
            j1_star(p_tri, [1.0])[0]


class TestGradient:
    def test_hand_values(self, p_tri, p_min):
        assert j1_star(p_min, [1.0])[1] == pytest.approx([0.0])
        assert j1_star(p_tri, [2.0])[1] == pytest.approx([2.0])
        assert j1_star(p_min, [0.0])[1] == pytest.approx([-1.0])

    def test_matches_fd(self):
        rng = np.random.default_rng(3)
        tested = 0
        for i in range(40):
            n = int(rng.integers(1, 5))
            N = int(rng.integers(1, 4))
            P = generate_instance(n, N, [50_000, i])
            v0 = rng.normal(scale=0.8, size=N)
            try:
                g = j1_star(P, v0)[1]
            except SingularMatrixError:
                continue
            fd = np.zeros(N)
            bad = False
            for j in range(N):
                h = 1e-6 * (1.0 + abs(v0[j]))
                vp = v0.copy(); vp[j] += h
                vm = v0.copy(); vm[j] -= h
                try:
                    fd[j] = (j1_star(P, vp)[0] - j1_star(P, vm)[0]) / (2 * h)
                except SingularMatrixError:
                    bad = True
            if bad:
                continue
            assert np.max(np.abs(g - fd)) <= 1e-5 * (1.0 + np.max(np.abs(g)))
            tested += 1
        assert tested >= 25


class TestHessian:
    def test_hand_values(self, p_tri, p_min):
        assert j1_star(p_min, [1.0])[2][0, 0] == pytest.approx(1.0)
        assert j1_star(p_tri, [2.0])[2][0, 0] == pytest.approx(1.0)

    def test_f_zero_gives_diag(self):
        P = validate_instance(np.eye(2), [np.eye(2), np.diag([1.0, -1.0])],
                              [2.0, 4.0], [0.1, 0.2], np.zeros(2), 3.0)
        H = j1_star(P, [0.3, 0.1])[2]
        assert np.array_equal(H, np.diag([0.5, 0.25]))

    def test_matches_fd(self):
        rng = np.random.default_rng(4)
        tested = 0
        for i in range(30):
            n = int(rng.integers(1, 4))
            N = int(rng.integers(1, 4))
            P = generate_instance(n, N, [51_000, i])
            v0 = rng.normal(scale=0.8, size=N)
            try:
                H = j1_star(P, v0)[2]
            except SingularMatrixError:
                continue
            fd = np.zeros((N, N))
            bad = False
            for j in range(N):
                h = 1e-6 * (1.0 + abs(v0[j]))
                vp = v0.copy(); vp[j] += h
                vm = v0.copy(); vm[j] -= h
                try:
                    fd[:, j] = (j1_star(P, vp)[1]
                                - j1_star(P, vm)[1]) / (2 * h)
                except SingularMatrixError:
                    bad = True
            if bad:
                continue
            rel = (np.linalg.norm(H - fd, "fro")
                   / (1.0 + np.linalg.norm(H, "fro")))
            assert rel <= 1e-4
            tested += 1
        assert tested >= 20

    def test_symmetric(self):
        P = generate_instance(3, 3, [52_000, 0])
        H = j1_star(P, [0.2, -0.1, 0.3])[2]
        assert np.array_equal(H, H.T)


class TestCorrespondence:
    def test_p_min_pair_agrees(self, p_min):
        pair = lift_to_dual(p_min, [0.0])
        rep = correspondence_report(p_min, pair)
        assert rep.correspondence
        assert rep.ab_matrix_pd
        assert rep.primal_hessian_inertia == (1, 0, 0)
        assert rep.baseline_hessian_inertia == (1, 0, 0)

    def test_p_tri_at_zero_counterexample(self, p_tri):
        # d2J = -1 (negative) but the baseline Hessian is [1] (positive);
        # the sign caveat A + v0 B = -1 < 0 explains the failure
        pair = lift_to_dual(p_tri, [0.0])
        rep = correspondence_report(p_tri, pair)
        assert not rep.correspondence
        assert not rep.ab_matrix_pd
        assert rep.primal_hessian_inertia == (0, 1, 0)
        assert rep.baseline_hessian_inertia == (1, 0, 0)

    @pytest.mark.parametrize("spec, expected", [
        ([-1.0], True), ([1.0], False), ([0.0], False)])
    def test_both_negative_definite_correspond(self, spec, expected):
        # no ensemble record is negative definite on both sides, so this
        # pins that branch: at vhat0 = 0, S = A = -1 and x0 = S^{-1} f =
        # -2 give -J1*'s Hessian 4 / -1 + 1 = -3, and the primal
        # spectrum is set by hand
        P = validate_instance([-1.0], [[1.0]], [1.0], [0.0], [2.0], 1.0)
        pair = dataclasses.replace(
            lift_to_dual(P, [0.0]), v0_hat=np.array([0.0]),
            d2j_spectrum=(np.array(spec), 1e-10))
        rep = correspondence_report(P, pair)
        assert rep.baseline_hessian_inertia == (0, 1, 0)
        assert rep.correspondence == expected

    def test_bundle_hessian_is_reused(self, monkeypatch):
        # d2J(x0) and its spectrum are the lift's: the baseline reports
        # the inertia of a freshly built d2J(x0), and no Hessian is built
        # after the lift, by correspondence_report or in a whole report
        lifted = []
        for P in iter_ensemble(12, 2024):
            for pair in find_critical_pairs(P, 12, 7):
                try:
                    lifted.append((correspondence_report(P, pair), P, pair))
                except DualityError:
                    continue
        assert len(lifted) >= 20
        for alone, P, pair in lifted:
            assert alone.primal_hessian_inertia == linalg.inertia(
                *linalg.spectrum(primal_hessian(P, pair.x0)))

        def no_hessian(*args):
            raise AssertionError("d2J(x0) rebuilt after the lift")

        def forbid_hessians(patch):
            for name, module in list(sys.modules.items()):
                for attr in ("primal_hessian", "hessian_from"):
                    if name.startswith("dcquartic") and hasattr(module, attr):
                        patch.setattr(module, attr, no_hessian)

        with monkeypatch.context() as patch:
            forbid_hessians(patch)
            for alone, P, pair in lifted:
                assert correspondence_report(P, pair) == alone
        lift = report._lift_stack
        for P in iter_ensemble(12, 2024):
            expected = dumps_canonical(analyze_instance(P, 12, 7, 20)[0])
            with monkeypatch.context() as patch:
                def lift_then_forbid(*args):
                    pairs = lift(*args)
                    forbid_hessians(patch)
                    return pairs
                patch.setattr(report, "_lift_stack", lift_then_forbid)
                assert dumps_canonical(analyze_instance(P, 12, 7, 20)[0]) \
                    == expected

    def test_scalar_pd_caveat_always_agrees(self):
        # every converged n = N = 1 pair with A + v0 B > 0 must agree
        from dcquartic import find_critical_pairs
        rng = np.random.default_rng(5)
        tested = 0
        for i in range(25):
            P = generate_instance(1, 1, [53_000, i])
            for pair in find_critical_pairs(P, 6, 7):
                if not pair.converged:
                    continue
                try:
                    rep = correspondence_report(P, pair)
                except Exception:
                    continue
                if rep.ab_matrix_pd:
                    assert rep.correspondence
                    tested += 1
        assert tested >= 10

    def test_large_gamma_minima_keep_matching_definiteness(self):
        # trifecta with gamma raised to 1e11: the minima +-sqrt(2/gamma)
        # must be found to rounding, or S(v0_hat), exactly 0 there, can
        # pass as inside B* and a record's baseline block holds "...
        # must give matching definiteness, got (1, 0, 0) vs (0, 0, 1)"
        # in place of a correspondence report (3.8e-8 relative off
        # gives S = 7.6e-8)
        P = validate_instance([-1.0], [[1.0]], [1e11], [0.0], [0.0], 1.0)
        records = analyze_instance(P, 12, 7, 0)[0]
        assert not any("matching definiteness" in
                       record["errors"].get("baseline", "")
                       for record in records)

    @pytest.mark.parametrize("gamma", [1e10, pytest.param(
        1e11, marks=pytest.mark.xfail(strict=True, reason=(
            "ROADMAP items 2 and 17: the absolute Newton test leaves "
            "x0 = -4.472136126e-6 e1, so S(v0_hat) = diag(7.6e-8, 1) "
            "passes as inside B*")))])
    def test_large_gamma_n2_minima_stay_outside_b_star(self, gamma):
        # trifecta beside a decoupled second coordinate (n = 2, N = 1):
        # at the minima +-sqrt(2/gamma) e1, S(v0_hat) = diag(0, 1) is
        # singular, so no record may count v0_hat inside B*
        P = validate_instance(np.diag([-1.0, 1.0]), [np.diag([1.0, 0.0])],
                              [gamma], [0.0], [0.0, 0.0], 2.0)
        records = analyze_instance(P, 12, 7, 0)[0]
        assert not any(record["membership"]["b_star"]
                       for record in records)

    def test_search_finds_counterexample(self):
        hit = search_correspondence_counterexample(2, 1, 30, 60_000)
        assert hit is not None
        assert not hit.report.correspondence

    def test_search_skips_failures(self, monkeypatch):
        # an instance whose pairs fail and a pair whose report fails are
        # skipped, and a search that finds nothing returns None
        found, reported = [], []

        def pairs(P, n_seeds, rng_seed):
            found.append(P)
            if len(found) == 1:
                raise DualityError("stub failure")
            return find_critical_pairs(P, n_seeds, rng_seed)

        def fail(P, pair):
            reported.append(pair)
            raise DualityError("stub failure")
        monkeypatch.setattr(baseline, "find_critical_pairs", pairs)
        monkeypatch.setattr(baseline, "correspondence_report", fail)
        assert search_correspondence_counterexample(2, 1, 2, 60_000) is None
        assert len(found) == 2 and len(reported) > 0
