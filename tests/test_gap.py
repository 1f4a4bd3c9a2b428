import numpy as np
import pytest

from dcquartic import (
    NotCase2Error,
    OutsideCstarError,
    SingularMatrixError,
    build_bundle,
    classify_case,
    epsilon_sweep,
    find_critical_pairs,
    generate_instance,
    global_min_certificate,
    in_B_star,
    iter_ensemble,
    j2_star,
    lift_to_dual,
    local_extremality_probe,
    multistart,
    primal_value,
    validate_instance,
    verify_zero_gap,
)
from dcquartic.gap import lagrangian_bound
from oracles import grid_min_1d, sampled_global_certificate


class TestClassification:
    def test_tri_sqrt2_case1(self, p_tri, sqrt2):
        pair = lift_to_dual(p_tri, [sqrt2])
        rep = classify_case(p_tri, pair, build_bundle(p_tri, pair))
        assert rep.case_id == "case1"
        assert rep.c_star and not rep.a_star
        assert rep.primal_hessian_margin == pytest.approx(2.0)

    def test_min_case2(self, p_min):
        pair = lift_to_dual(p_min, [0.0])
        rep = classify_case(p_min, pair, build_bundle(p_min, pair))
        assert rep.case_id == "case2"
        assert rep.a_star and rep.a_star_margin == pytest.approx(2.0)

    def test_tri_zero_case3(self, p_tri):
        pair = lift_to_dual(p_tri, [0.0])
        rep = classify_case(p_tri, pair, build_bundle(p_tri, pair))
        assert rep.case_id == "case3"
        assert rep.primal_hessian_margin == pytest.approx(-1.0)


class TestZeroGap:
    def test_hand_pairs(self, p_tri, p_min, sqrt2):
        for P, x in ((p_tri, [sqrt2]), (p_min, [0.0]), (p_tri, [0.0])):
            pair = lift_to_dual(P, x)
            assert abs(verify_zero_gap(P, pair)) <= 1e-12

    def test_outside_c_star_raises(self):
        # the instance of test_curvature's outside-C* bundle test: c = -2
        # puts the lifted multiplier past the C* boundary at x0 = 0
        P = validate_instance([1.0], [[1.0]], [1.0], [-2.0], [0.0], 1.5)
        pair = lift_to_dual(P, [0.0])
        with pytest.raises(OutsideCstarError):
            verify_zero_gap(P, pair)

    def test_random_ensemble(self):
        rng = np.random.default_rng(1)
        tested = 0
        for i in range(25):
            n = int(rng.integers(1, 7))
            N = int(rng.integers(1, 5))
            P = generate_instance(n, N, [40_000, i])
            for pair in find_critical_pairs(P, 8, 7):
                if not pair.converged:
                    continue
                try:
                    gap = verify_zero_gap(P, pair)
                except Exception:
                    continue
                j0 = primal_value(P, pair.x0)
                assert abs(gap) <= 1e-8 * (1.0 + abs(j0))
                tested += 1
        assert tested >= 25


class TestProbes:
    def test_case1_no_violations(self, p_tri, sqrt2):
        pair = lift_to_dual(p_tri, [sqrt2])
        ev = local_extremality_probe(p_tri, pair, 1000, 7)
        assert ev.case_id == "case1"
        assert ev.primal_min_violations == 0
        assert ev.dual_min_violations == 0

    def test_case3_no_violations(self, p_tri):
        pair = lift_to_dual(p_tri, [0.0])
        ev = local_extremality_probe(p_tri, pair, 1000, 7)
        assert ev.case_id == "case3"
        assert ev.primal_max_violations == 0
        assert ev.dual_max_violations == 0

    def test_deterministic(self, p_tri, sqrt2):
        pair = lift_to_dual(p_tri, [sqrt2])
        a = local_extremality_probe(p_tri, pair, 200, 11)
        b = local_extremality_probe(p_tri, pair, 200, 11)
        assert a == b

    def test_unclassified_saddle_reports_violations(self):
        # find a saddle-adjacent pair: indefinite Hessian keeps it
        # unclassified, and the probe reports violations on both sides
        found = False
        for i in range(20):
            P = generate_instance(2, 2, [43_000, i])
            for pair in find_critical_pairs(P, 10, 7):
                try:
                    bundle = build_bundle(P, pair)
                except Exception:
                    continue
                rep = classify_case(P, pair, bundle)
                if rep.case_id != "unclassified":
                    continue
                margins = np.linalg.eigvalsh(
                    0.5 * (bundle.dual_hessian + bundle.dual_hessian.T))
                if margins[0] > -1e-3 or margins[-1] < 1e-3:
                    continue  # want a clearly indefinite saddle
                ev = local_extremality_probe(P, pair, 400, 7,
                                             case_id=rep.case_id,
                                             bundle=bundle)
                assert ev.case_id == "unclassified"
                assert ev.primal_min_violations > 0
                assert ev.primal_max_violations > 0
                found = True
                break
            if found:
                break
        assert found


class TestGlobalCertificate:
    def test_p_min_certificate(self, p_min):
        pair = lift_to_dual(p_min, [0.0])
        case = classify_case(p_min, pair, build_bundle(p_min, pair))
        points = multistart(p_min, 32, 7).points
        cert = global_min_certificate(p_min, pair, case, points)
        assert cert.passed
        assert cert.inf_estimate == pytest.approx(0.5, abs=1e-12)
        # independent 1-d grid oracle over [-5, 5]
        assert abs(grid_min_1d(p_min) - primal_value(p_min, pair.x0)) <= 1e-8
        assert cert.j2_gap <= 1e-10
        sampled = sampled_global_certificate(p_min, pair, case, points)
        assert sampled.convexity_fail_count == 0
        assert sampled.weak_duality_ok

    def test_bound_below_grid_at_noncritical_point(self, p_min):
        # at x0 = 0.3 the gradient is not zero: the bound drops below
        # L(x0, vhat0) = J(x0) and stays below the grid minimum
        pair = lift_to_dual(p_min, [0.3])
        margin = in_B_star(p_min, pair.v0_hat).margin
        bound, lagrangian, drop, rounding = lagrangian_bound(
            p_min, pair.x0, pair.v0_hat, margin)
        assert drop > 0.0
        assert rounding > 0.0
        assert lagrangian == pytest.approx(primal_value(p_min, pair.x0))
        assert bound <= grid_min_1d(p_min)

    def test_not_case2(self, p_tri, sqrt2):
        pair = lift_to_dual(p_tri, [sqrt2])
        case = classify_case(p_tri, pair, build_bundle(p_tri, pair))
        with pytest.raises(NotCase2Error):
            global_min_certificate(p_tri, pair, case,
                                   multistart(p_tri, 32, 7).points)

    def test_weak_duality_spot_value(self, p_min):
        # J2*(vhat) = 1/2 <= J(1) = 1.625
        assert primal_value(p_min, [1.0]) == pytest.approx(1.625)

    def test_ensemble_case2_certificates(self):
        # every case2 pair in a small random ensemble certifies globally,
        # and the sampled oracle agrees and never goes below the bound
        rng = np.random.default_rng(2)
        certified = 0
        for i in range(30):
            if certified >= 8:
                break
            n = int(rng.integers(1, 4))
            N = int(rng.integers(1, 4))
            P = generate_instance(n, N, [42_000, i])
            for pair in find_critical_pairs(P, 10, 7):
                if not pair.converged:
                    continue
                try:
                    bundle = build_bundle(P, pair)
                except Exception:
                    continue
                case = classify_case(P, pair, bundle)
                if case.case_id != "case2":
                    continue
                points = multistart(P, 32, 7).points
                cert = global_min_certificate(P, pair, case, points)
                assert cert.passed, (i, pair.x0, cert)
                sampled = sampled_global_certificate(P, pair, case, points)
                assert sampled.passed, (i, pair.x0, sampled)
                assert sampled.inf_estimate >= cert.inf_estimate - 1e-9
                certified += 1
        assert certified >= 8

    def test_singular_barrier_matrix_is_named(self):
        # acceptance-ensemble member 8: the sampled certificate's twelfth
        # convexity draw around its case-2 pair meets a singular barrier
        # Newton matrix E + mu T
        P = list(iter_ensemble(9, 2024))[8]
        ms = multistart(P, 12, 7)
        pair = lift_to_dual(P, ms.points[0], newton_iterations=ms.iterations[0])
        case = classify_case(P, pair, build_bundle(P, pair))
        assert case.case_id == "case2"
        rng = np.random.default_rng([7, 3])
        scale = 0.5 * (1.0 + float(np.max(np.abs(pair.v_hat))))
        for _ in range(12):
            u = pair.v_hat + scale * rng.standard_normal(P.n)
            w = pair.v_hat + scale * rng.standard_normal(P.n)
        j2_star(P, u, init=pair.v0_hat)
        with pytest.raises(SingularMatrixError):
            j2_star(P, w, init=pair.v0_hat)
        sampled = sampled_global_certificate(P, pair, case, ms.points)
        assert sampled.convexity_excluded >= 1
        assert global_min_certificate(P, pair, case, ms.points).passed


class TestEpsilonSweep:
    def test_tri_norms_vanish(self, p_tri):
        rep = epsilon_sweep(p_tri, [0.1, 0.01, 0.001], 7)
        for point in rep.points:
            assert point.ok
            for rec in point.pairs:
                if rec["in_c_star"]:
                    assert rec["ka_alpha1_norm"] <= 1e-12
        # n = N = 1 means alpha1 = 0: no slope is fitted
        assert all(e["slope"] is None for e in rep.slopes)

    def test_eps_zero_rejected(self, p_tri):
        rep = epsilon_sweep(p_tri, [0.0], 7)
        assert not rep.points[0].ok
        assert "K-minus-A-not-PD" in rep.points[0].error

    def test_h1_norm_tracks_eps(self, p_tri):
        rep = epsilon_sweep(p_tri, [0.1, 0.001], 7)
        assert rep.points[0].h1_norm == pytest.approx(10.0)
        assert rep.points[1].h1_norm == pytest.approx(1000.0)

    def test_gap_and_chain_stable_across_sweep(self):
        P = generate_instance(2, 2, [41_000, 0], f_scale=0.2,
                              c_range=(0.1, 0.5))
        rep = epsilon_sweep(P, [0.1, 0.01, 0.001], 7)
        seen = 0
        for point in rep.points:
            assert point.ok
            for rec in point.pairs:
                if rec["in_c_star"]:
                    assert abs(rec["gap"]) <= 1e-8
                    if np.isfinite(rec["chain_residual"]):
                        assert rec["chain_residual"] <= 1e-8
                    seen += 1
        assert seen >= 3
