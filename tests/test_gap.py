import sys
from pathlib import Path

import numpy as np
import pytest

from dcquartic import (
    DualityError,
    NotCase2Error,
    OutsideCstarError,
    ProblemInstance,
    SingularMatrixError,
    build_bundle,
    classify_case,
    correspondence_report,
    epsilon_sweep,
    find_critical_pairs,
    generate_instance,
    global_min_certificate,
    implicit_sensitivity,
    in_B_star,
    iter_ensemble,
    j2_star,
    j_star,
    j_tilde_star,
    lift_to_dual,
    linalg,
    load_instance,
    local_extremality_probe,
    local_extremality_probes,
    multistart,
    primal_value,
    validate_instance,
    verify_chain_identity,
    verify_zero_gap,
)
from dcquartic import conjugates, gap
from dcquartic.curvature import _bundle_stack
from dcquartic.gap import _classify_stack, lagrangian_bound
from dcquartic.report import (
    analyze_instance,
    build_run_report,
    format_point_table,
)
from oracles import (
    grid_min_1d,
    j2_star_barrier_path,
    j2_star_grid,
    sampled_global_certificate,
)

SAMPLES = Path(__file__).resolve().parent.parent / "sample_instances"


def _probe_inputs(P):
    """The pairs of multistart(P, 12, 7)'s points where a bundle forms,
    their cases and their stacked bundle."""
    ms = multistart(P, 12, 7)
    pairs = [lift_to_dual(P, x0) for x0 in ms.points]
    bundle, errors = _bundle_stack(P, pairs)
    pairs = [pair for pair, error in zip(pairs, errors) if error is None]
    case_ids = [case.case_id for case in _classify_stack(P, pairs, bundle)]
    return pairs, case_ids, bundle


@pytest.fixture(scope="module")
def case2_pairs():
    """(P, pair, case, points) for every case-2 pair of global_min.json
    and of acceptance-ensemble members 0-24, at multistart(P, 12, 7)."""
    found = []
    for P in [load_instance(SAMPLES / "global_min.json"),
              *iter_ensemble(25, 2024)]:
        ms = multistart(P, 12, 7)
        for x0 in ms.points:
            pair = lift_to_dual(P, x0)
            try:
                case = classify_case(P, pair, build_bundle(P, pair))
            except DualityError:
                continue
            if case.case_id == "case2":
                found.append((P, pair, case, ms.points))
    return found


class TestClassification:
    def test_tri_sqrt2_case1(self, p_tri, sqrt2):
        pair = lift_to_dual(p_tri, [sqrt2])
        rep = classify_case(p_tri, pair, build_bundle(p_tri, pair))
        assert rep.case_id == "case1"
        assert pair.c_star.inside and not pair.b_star.inside
        assert pair.d2j_spectrum[0][0] == pytest.approx(2.0)

    def test_min_case2(self, p_min):
        pair = lift_to_dual(p_min, [0.0])
        rep = classify_case(p_min, pair, build_bundle(p_min, pair))
        assert rep.case_id == "case2"
        assert pair.b_star.inside and pair.b_star.margin == pytest.approx(2.0)

    def test_tri_zero_case3(self, p_tri):
        pair = lift_to_dual(p_tri, [0.0])
        rep = classify_case(p_tri, pair, build_bundle(p_tri, pair))
        assert rep.case_id == "case3"
        assert pair.d2j_spectrum[0][0] == pytest.approx(-1.0)

    def test_c_star_decided_once(self, p_tri, sqrt2, monkeypatch):
        # count the spectrum calls on M(vhat0) or its symmetrized copy,
        # tracked by identity: on p_tri, E and d2J(x0) can equal M in value
        handed_out, calls = [], []
        mixed_matrix = ProblemInstance.mixed_matrix
        symmetrize = linalg.symmetrize
        spectrum = linalg.spectrum

        def is_m(M):
            return any(M is m for m in handed_out)

        def tracked_mixed_matrix(self, v0):
            handed_out.append(mixed_matrix(self, v0))
            return handed_out[-1]

        def tracked_symmetrize(M):
            out = symmetrize(M)
            if is_m(M):
                handed_out.append(out)
            return out

        def counted_spectrum(M):
            calls.append(is_m(M))
            return spectrum(M)

        monkeypatch.setattr(ProblemInstance, "mixed_matrix",
                            tracked_mixed_matrix)
        monkeypatch.setattr(linalg, "symmetrize", tracked_symmetrize)
        monkeypatch.setattr(linalg, "spectrum", counted_spectrum)
        for x in ([-sqrt2], [0.0], [sqrt2]):
            calls.clear()
            pair = lift_to_dual(p_tri, x)
            classify_case(p_tri, pair, build_bundle(p_tri, pair))
            zero = verify_zero_gap(p_tri, pair)
            assert pair.c_star.inside and zero == pytest.approx(0.0, abs=1e-12)
            assert sum(calls) == 1
            assert len(calls) > 1   # the Hessians and S are still decided

    def test_b_star_and_hessians_decided_once(self, p_tri, p_min, sqrt2,
                                              monkeypatch):
        # S(vhat0) is decomposed once by the lift, and once more by
        # j1_star; d2J(x0) is built, and its spectrum taken, once, by the
        # lift, and no stage after the lift builds a Hessian
        handed_out = {"S": [], "d2J": []}
        decomposed, builds = [], []
        ab_matrix = ProblemInstance.ab_matrix
        symmetrize = linalg.symmetrize
        spectrum = linalg.spectrum

        def kind(M):
            for name, matrices in handed_out.items():
                if any(M is m for m in matrices):
                    return name
            return None

        def tracked_ab_matrix(self, v0):
            handed_out["S"].append(ab_matrix(self, v0))
            return handed_out["S"][-1]

        def tracked_symmetrize(M):
            out = symmetrize(M)
            if kind(M) is not None:
                handed_out[kind(M)].append(out)
            return out

        def counted_spectrum(M):
            decomposed.append(kind(M))
            return spectrum(M)

        def tracked(hessian):
            def built(*args):
                builds.append(args)
                handed_out["d2J"].append(hessian(*args))
                return handed_out["d2J"][-1]
            return built

        monkeypatch.setattr(ProblemInstance, "ab_matrix", tracked_ab_matrix)
        monkeypatch.setattr(linalg, "symmetrize", tracked_symmetrize)
        monkeypatch.setattr(linalg, "spectrum", counted_spectrum)
        # every module that imported a Hessian kernel by name
        for name, module in list(sys.modules.items()):
            for attr in ("primal_hessian", "hessian_from"):
                if name.startswith("dcquartic") and hasattr(module, attr):
                    monkeypatch.setattr(module, attr,
                                        tracked(getattr(module, attr)))
        for P, x, case_id in ((p_tri, [-sqrt2], "case1"),
                              (p_tri, [0.0], "case3"),
                              (p_min, [0.0], "case2")):
            decomposed.clear()
            builds.clear()
            pair = lift_to_dual(P, x)
            assert len(builds) == 1 and decomposed.count("d2J") == 1
            bundle = build_bundle(P, pair)
            case = classify_case(P, pair, bundle)
            assert case.case_id == case_id
            assert (case.case_id == "case2") == pair.b_star.inside
            verify_chain_identity(P, pair, bundle)
            local_extremality_probe(P, pair, 8, 0, case_id=case.case_id,
                                    bundle=bundle)
            assert decomposed.count("S") == 1
            try:
                report = correspondence_report(P, pair)
                assert report.ab_matrix_pd == pair.b_star.inside
            except SingularMatrixError:
                assert case_id == "case1"   # S(vhat0) = 0 at +-sqrt(2)
            assert decomposed.count("S") == 2
            assert len(builds) == 1 and decomposed.count("d2J") == 1

    def test_m_factored_once_per_report(self, monkeypatch):
        # one report factors each inside pair's M(vhat0) once, at the
        # lift; the inner sups of the certificate's J2* and of the
        # probes' Jt* samples, and the probes' Jt* brackets, which may
        # start at vhat0 (all of trifecta's x0 = 0 samples do), are not
        # counted
        factored, solving = [], []
        cho_factor = linalg.cho_factor

        def spy_cho_factor(M):
            if not solving:
                factored.append(np.reshape(M, (-1,) + np.shape(M)[-2:]))
            return cho_factor(M)

        def not_counted(solve):
            def wrapper(*args, **kwargs):
                solving.append(True)
                try:
                    return solve(*args, **kwargs)
                finally:
                    solving.pop()
            return wrapper

        monkeypatch.setattr(linalg, "cho_factor", spy_cho_factor)
        for name in ("j2_star", "j_tilde_star", "_j_tilde_star_bracket"):
            monkeypatch.setattr(gap, name, not_counted(getattr(gap, name)))
        for name in ("trifecta.json", "global_min.json"):
            P = load_instance(SAMPLES / name)
            factored.clear()
            records = build_run_report(P, 32, 7, 40)["critical_points"]
            inside = [r for r in records if r["membership"]["c_star"]]
            assert inside
            for r in inside:
                M = P.mixed_matrix(r["v0_hat"])
                assert sum(np.any(np.all(Ms == M, axis=(1, 2)))
                           for Ms in factored) == 1


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

    def test_primal_ball_is_one_stack(self, p_tri, sqrt2, monkeypatch):
        # J at the whole primal ball is one primal_value call, where one
        # per sample would make 50; J(x0) is the lift's
        from dcquartic import gap
        shapes = []
        value = gap.primal_value
        monkeypatch.setattr(gap, "primal_value", lambda P, x: shapes.append(
            np.shape(x)) or value(P, x))
        for x0 in (sqrt2, 0.0):
            pair = lift_to_dual(p_tri, [x0])
            bundle = build_bundle(p_tri, pair)
            case_id = classify_case(p_tri, pair, bundle).case_id
            shapes.clear()
            local_extremality_probe(p_tri, pair, 50, 7, case_id, bundle)
            assert shapes == [(50, 1)]

    def test_stack_is_the_one_pair_probes(self):
        # every probe-able pair of both samples and of members 0-24, probed
        # together, gets its one-pair evidence exactly
        checked = 0
        for P in [load_instance(SAMPLES / "trifecta.json"),
                  load_instance(SAMPLES / "global_min.json"),
                  *iter_ensemble(25, 2024)]:
            pairs, case_ids, bundle = _probe_inputs(P)
            stacked = local_extremality_probes(P, pairs, 1000, 7, case_ids,
                                               bundle)
            assert stacked == [
                local_extremality_probe(P, pair, 1000, 7, case_id,
                                        build_bundle(P, pair))
                for pair, case_id in zip(pairs, case_ids)]
            if not checked:
                # the one-pair bundle and case default to build_bundle
                # and classify_case
                assert stacked == [local_extremality_probe(P, pair, 1000, 7)
                                   for pair in pairs]
            checked += len(pairs)
        assert checked >= 40

    def test_bracket_decides_as_the_solve(self, monkeypatch):
        # with a bracket that decides nothing every sample is solved, as
        # before the bracket; the evidence is the same on both samples at
        # 1000 samples and on members 0-24 at 50, where the bracket
        # leaves some samples to the solve
        rows = []
        solve = gap.j_tilde_star
        monkeypatch.setattr(gap, "j_tilde_star", lambda P, v, init=None:
                            rows.append(len(v)) or solve(P, v, init))
        bracket = gap._j_tilde_star_bracket
        checked = solved = 0
        for P, n_samples in [(load_instance(SAMPLES / "trifecta.json"), 1000),
                             (load_instance(SAMPLES / "global_min.json"), 1000),
                             *((P, 50) for P in iter_ensemble(25, 2024))]:
            pairs, case_ids, bundle = _probe_inputs(P)
            monkeypatch.setattr(gap, "_j_tilde_star_bracket", bracket)
            rows.clear()
            bracketed = local_extremality_probes(P, pairs, n_samples, 7,
                                                 case_ids, bundle)
            solved += sum(rows)
            monkeypatch.setattr(gap, "_j_tilde_star_bracket", lambda P, v, s:
                                np.full((2, len(v)), np.nan))
            assert local_extremality_probes(P, pairs, n_samples, 7, case_ids,
                                            bundle) == bracketed
            checked += len(pairs) * n_samples
        assert checked >= 6000 and 0 < solved < checked / 2

    def test_report_makes_one_j_tilde_star_call(self, monkeypatch):
        # trifecta's three pairs: the bracket at the tangent start decides
        # all 3000 samples, so the one j_tilde_star call gets an empty
        # stack, makes no inner Newton iteration and needs no v0-hat retry
        P = load_instance(SAMPLES / "trifecta.json")
        rows, iterations = [], []
        solve, matrix = gap.j_tilde_star, conjugates._inner_matrix
        monkeypatch.setattr(gap, "j_tilde_star", lambda P, v, init=None:
                            rows.append(len(v)) or solve(P, v, init))
        monkeypatch.setattr(conjugates, "_inner_matrix", lambda *args:
                            iterations.append(1) or matrix(*args))
        records, _ = analyze_instance(P, 32, 7, 1000)
        assert rows == [0]
        assert len(iterations) == 0
        assert sum(r["probe"] is not None for r in records) == 3

    def test_failed_rows_are_solved_again_from_v0_hat(self):
        # acceptance-ensemble member 47: around its first point, some dual
        # samples solve only from the tangent start and some only from
        # vhat0; a sample is excluded only when both fail
        P = list(iter_ensemble(48, 2024))[47]
        ms = multistart(P, 12, 7)
        pair = lift_to_dual(P, ms.points[0])
        bundle = build_bundle(P, pair)
        evidence = local_extremality_probe(P, pair, 1000, 7, bundle=bundle)
        vs = linalg.ball_samples(np.random.default_rng([7, 1]), pair.v_hat,
                                 evidence.r1, 1000)
        starts = pair.v0_hat + (vs - pair.v_hat) \
            @ implicit_sensitivity(P, pair, bundle).T
        tangent = np.isnan(j_tilde_star(P, vs, init=starts)[0])
        v0_hat = np.isnan(j_tilde_star(P, vs, init=pair.v0_hat)[0])
        assert np.sum(tangent & ~v0_hat) > 0 and np.sum(v0_hat & ~tangent) > 0
        assert evidence.dual_excluded == np.sum(tangent & v0_hat)

    @pytest.mark.parametrize("n_samples", [2.5, -1, True, False])
    def test_n_samples_is_a_non_negative_integer(self, p_tri, sqrt2,
                                                 n_samples):
        pair = lift_to_dual(p_tri, [sqrt2])
        with pytest.raises(ValueError, match="n_samples"):
            local_extremality_probe(p_tri, pair, n_samples, 7)
        with pytest.raises(ValueError, match="n_samples"):
            local_extremality_probes(p_tri, [pair], n_samples, 7, ["case1"],
                                     _bundle_stack(p_tri, [pair])[0])

    @pytest.mark.parametrize("n_samples", [2.5, -3, True, False])
    @pytest.mark.parametrize("n_seeds", [0, 32])
    def test_report_checks_n_samples(self, n_seeds, n_samples):
        # also where no pair reaches the probes (no point at n_seeds 0)
        P = load_instance(SAMPLES / "trifecta.json")
        with pytest.raises(ValueError, match="n_samples"):
            build_run_report(P, n_seeds, 7, n_samples)

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
        cert = global_min_certificate(p_min, pair, points)
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

    def test_bound_is_nan_where_s_does_not_factor(self, p_tri):
        # at x0 = 0 the lift gives vhat0 = 0, where S = A = -1
        pair = lift_to_dual(p_tri, [0.0])
        margin = in_B_star(p_tri, pair.v0_hat).margin
        assert margin < 0.0
        assert np.all(np.isnan(
            lagrangian_bound(p_tri, pair.x0, pair.v0_hat, margin)))

    def test_not_case2(self, p_tri, sqrt2):
        # the case-1 and case-3 pairs: their lifted multipliers are
        # outside B*, and the certificate reads that off the pair
        points = multistart(p_tri, 32, 7).points
        for x0 in ([-sqrt2], [0.0], [sqrt2]):
            pair = lift_to_dual(p_tri, x0)
            assert not pair.b_star.inside
            with pytest.raises(NotCase2Error):
                global_min_certificate(p_tri, pair, points)

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
                cert = global_min_certificate(P, pair, points)
                assert cert.passed, (i, pair.x0, cert)
                sampled = sampled_global_certificate(P, pair, case, points)
                assert sampled.passed, (i, pair.x0, sampled)
                assert sampled.convexity_fail_count == 0
                assert sampled.convexity_excluded == 0
                assert sampled.inf_estimate >= cert.inf_estimate - 1e-9
                certified += 1
        assert certified >= 8

    def test_case2_certificates_skip_the_barrier(self, case2_pairs,
                                                 barrier_calls, monkeypatch):
        # at a case-2 pair the lifted multiplier is already J*(vhat, .)'s
        # interior stationary point, strictly inside A*: one j2_star call
        # per certificate, and no phase 1 or barrier ascent
        j2_calls = []
        monkeypatch.setattr(gap, "j2_star", lambda *args, **kwargs:
                            j2_calls.append(1) or j2_star(*args, **kwargs))
        for P, pair, case, points in case2_pairs:
            assert global_min_certificate(P, pair, points).passed
        assert len(case2_pairs) == 8
        assert len(j2_calls) == len(case2_pairs)
        assert barrier_calls == []

    def test_j2_star_matches_the_barrier_path(self, case2_pairs,
                                              barrier_calls):
        # j2_star against the oracle that always runs the barrier path,
        # at each case-2 pair and at four draws of v* around it: within
        # 1e-14 (1 + |J2*|) with the same boundary tag where the interior
        # solve answers, and bit for bit (or the same failure) where
        # j2_star falls back to the barrier path
        rng = np.random.default_rng([7, 4])
        paths = {"interior": 0, "barrier": 0}
        for P, pair, _, _ in case2_pairs:
            scale = 0.5 * (1.0 + float(np.max(np.abs(pair.v_hat))))
            draws = pair.v_hat + scale * rng.standard_normal((4, P.n))
            for k, v_star in enumerate([pair.v_hat, *draws]):
                barrier_calls.clear()
                try:
                    res = j2_star(P, v_star, init=pair.v0_hat)
                except DualityError as exc:
                    res = type(exc)
                interior = barrier_calls == []
                assert interior or k > 0
                paths["interior" if interior else "barrier"] += 1
                try:
                    ref = j2_star_barrier_path(P, v_star, init=pair.v0_hat)
                except DualityError as exc:
                    ref = type(exc)
                if interior:
                    assert abs(res.value - ref.value) <= \
                        1e-14 * (1.0 + abs(ref.value))
                    assert res.boundary_attained == ref.boundary_attained
                elif isinstance(ref, type):
                    assert res is ref
                else:
                    assert res.value == ref.value
                    assert np.array_equal(res.v0_star, ref.v0_star)
                    assert res.boundary_attained == ref.boundary_attained
                    assert res.a_star_margin == ref.a_star_margin
        assert min(paths.values()) >= 5, paths

    def test_singular_barrier_matrix_is_named(self, barrier_calls,
                                              monkeypatch):
        # acceptance-ensemble member 8: every one of the sampled
        # certificate's 100 convexity draws around its case-2 pair solves
        P, pair, case, points = _ensemble_case2_pair(8)
        sampled = sampled_global_certificate(P, pair, case, points)
        assert sampled.convexity_excluded == 0
        assert sampled.convexity_pass_count == 100
        assert global_min_certificate(P, pair, points).passed
        # the twelfth draw's w runs the barrier continuation; a singular
        # barrier Newton matrix E + mu T there is named
        w = _convexity_draws(pair, 12)[11][1]
        barrier_calls.clear()
        j2_star(P, w, init=pair.v0_hat)
        assert barrier_calls == ["_feasible_a_star_point",
                                 *conjugates.BARRIER_WEIGHTS]
        barrier_calls.clear()
        solve_rows = linalg.solve_rows

        def singular(H, b):
            # a singular matrix's nan solve, once a barrier stage has begun
            staged = barrier_calls[-1:] not in ([], ["_feasible_a_star_point"])
            return np.full_like(b, np.nan) if staged else solve_rows(H, b)

        monkeypatch.setattr(linalg, "solve_rows", singular)
        with pytest.raises(SingularMatrixError, match="mu = 0.1"):
            j2_star(P, w, init=pair.v0_hat)
        assert barrier_calls == ["_feasible_a_star_point",
                                 conjugates.BARRIER_WEIGHTS[0]]

    @pytest.mark.parametrize("member, draws", [(77, (40, 84)), (92, (81,))])
    def test_j2_star_at_the_a_star_boundary(self, member, draws):
        # sampled-certificate convexity draws (u, w) where the sup of
        # J*(v*, .) over A* sits on A*'s boundary: at u, w and their
        # midpoint, J2* is no lower than a grid maximum over A*, and it
        # is J*(v*, .) at a point of A*'s closure
        P, pair, _, _ = _ensemble_case2_pair(member)
        all_draws = _convexity_draws(pair, max(draws) + 1)
        half_width = 2.0 * (1.0 + float(np.max(np.abs(pair.v0_hat))))
        boundary = 0
        for k in draws:
            u, w = all_draws[k]
            for v_star in (u, w, 0.5 * (u + w)):
                res = j2_star(P, v_star, init=pair.v0_hat)
                grid, _ = j2_star_grid(P, v_star, pair.v0_hat, half_width)
                assert res.value >= grid - 1e-6 * (1.0 + abs(res.value))
                margin = in_B_star(P, res.v0_star).margin
                assert margin >= -conjugates.BOUNDARY_MARGIN
                assert res.value == j_star(P, v_star, res.v0_star)
                boundary += res.boundary_attained
        assert boundary >= 1

    def test_stationary_point_beyond_a_star_tags_the_boundary(self):
        # acceptance-ensemble member 8, first ten convexity draws: where
        # Newton from the returned barrier end point converges to a
        # stationary point outside A*, the sup sits on A*'s boundary, and
        # the end point is tagged boundary_attained whatever its own A*
        # margin (15 of these 25 margins are at least BOUNDARY_MARGIN);
        # the always-barrier oracle returns the same value and tag
        P, pair, _, _ = _ensemble_case2_pair(8)
        beyond = wide = 0
        for u, w in _convexity_draws(pair, 10):
            for v_star in (u, w, 0.5 * (u + w)):
                res = j2_star(P, v_star, init=pair.v0_hat)
                rows, _, status = conjugates._inner_newton_stack(
                    P, v_star[None], res.v0_star[None])
                if status[0] != conjugates.SOLVED or in_B_star(
                        P, rows[0]).margin >= -conjugates.BOUNDARY_MARGIN:
                    continue
                beyond += 1
                wide += res.a_star_margin >= conjugates.BOUNDARY_MARGIN
                assert res.boundary_attained
                ref = j2_star_barrier_path(P, v_star, init=pair.v0_hat)
                assert ref.boundary_attained and ref.value == res.value
        assert (beyond, wide) == (25, 15)


def _ensemble_case2_pair(member):
    """(P, pair, case, points) for the case-2 pair of acceptance-ensemble
    member ``member``, at multistart(P, 12, 7)."""
    P = list(iter_ensemble(member + 1, 2024))[member]
    ms = multistart(P, 12, 7)
    for x0 in ms.points:
        pair = lift_to_dual(P, x0)
        case = classify_case(P, pair, build_bundle(P, pair))
        if case.case_id == "case2":
            return P, pair, case, ms.points
    raise AssertionError(f"member {member} has no case-2 pair")


def _convexity_draws(pair, count):
    """The first ``count`` (u, w) midpoint-convexity draws of
    sampled_global_certificate around the pair, at its default seed."""
    rng = np.random.default_rng([7, 3])
    scale = 0.5 * (1.0 + float(np.max(np.abs(pair.v_hat))))
    shape = (2, pair.v_hat.size)
    return [tuple(pair.v_hat + scale * rng.standard_normal(shape))
            for _ in range(count)]


class TestEpsilonSweep:
    def test_tri_norms_vanish(self, p_tri):
        rep = epsilon_sweep(p_tri, [0.1, 0.01, 0.001], 7)
        for point in rep.points:
            assert point.ok
            for rec in point.pairs:
                if rec["in_c_star"]:
                    assert rec["ka_alpha1_norm"] <= 1e-12

    def test_bundle_failure_keeps_the_gap(self, p_tri, monkeypatch):
        rep = epsilon_sweep(p_tri, [0.1], 7)
        assert all(rec["bundle_error"] is None for rec in rep.points[0].pairs)
        monkeypatch.setattr(gap, "_bundle_stack", lambda P, pairs: (
            _bundle_stack(P, [])[0],
            [DualityError("stub failure") for _ in pairs]))
        rep = epsilon_sweep(p_tri, [0.1], 7)
        inside = [rec for rec in rep.points[0].pairs if rec["in_c_star"]]
        assert inside
        for rec in inside:
            assert abs(rec["gap"]) <= 1e-10
            assert rec["bundle_error"] == "stub failure"
            for key in ("chain_residual", "alpha1_norm", "ka_alpha1_norm"):
                assert np.isnan(rec[key])

    def test_eps_zero_rejected(self, p_tri):
        rep = epsilon_sweep(p_tri, [0.0], 7)
        assert not rep.points[0].ok
        assert "K-minus-A-not-PD" in rep.points[0].error

    def test_h1_norm_tracks_eps(self, p_tri):
        rep = epsilon_sweep(p_tri, [0.1, 0.001], 7)
        assert rep.points[0].h1_norm == pytest.approx(10.0)
        assert rep.points[1].h1_norm == pytest.approx(1000.0)

    def test_lifts_the_base_points_once(self, monkeypatch):
        # a golden sweep base with three points, one in C*; eps = 0 is
        # not a valid K
        P = generate_instance(2, 2, [3, 4])
        calls, find = [], gap.find_critical_points
        monkeypatch.setattr(gap, "find_critical_points", lambda *args:
                            calls.append(args) or find(*args))
        rep = epsilon_sweep(P, [0.1, 0.0, 0.001], 3, n_seeds=12)
        assert len(calls) == 1
        base = find(P, 12, 3).points
        assert len(base) == 3
        assert [point.ok for point in rep.points] == [True, False, True]
        for point in rep.points:
            assert [r["x0"].tobytes() for r in point.pairs] \
                == ([x.tobytes() for x in base] if point.ok else [])
            assert [r["base_point"] for r in point.pairs] \
                == list(range(len(point.pairs)))

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


class TestStageFailures:
    @pytest.mark.parametrize("stage, name", [
        ("bundle", "build_bundle"),
        ("certificate", "global_min_certificate")])
    def test_recorded_and_printed(self, stage, name, monkeypatch):
        # the sample's one point is a case-2 pair, so both stages run; the
        # report runs build_bundle as its stack, where a failing pair is
        # an error row, and calls the certificate by name
        def fail(*args):
            raise DualityError("stub failure")
        if name == "build_bundle":
            monkeypatch.setattr("dcquartic.report._bundle_stack",
                                lambda P, pairs: (_bundle_stack(P, [])[0], [
                                    DualityError("stub failure")
                                    for _ in pairs]))
        else:
            monkeypatch.setattr(f"dcquartic.report.{name}", fail)
        P = load_instance(SAMPLES / "global_min.json")
        records, _ = analyze_instance(P, 8, 7, 0)
        (rec,) = records
        assert rec["errors"] == {stage: "stub failure"}
        assert rec["certificate"] is None and rec["baseline"] is not None
        table = format_point_table(records).splitlines()
        assert table[3:] == [f"    [{stage}] stub failure"]
        if stage == "bundle":
            assert rec["case"] is rec["gap"] is rec["chain_residual"] is None
            assert table[2].split()[2:5] == ["error", "-", "-"]
        else:
            assert rec["case"] == "case2"


def test_point_table_elides_long_x0():
    # x0 prints its first four entries, then "..." when there are more
    P = generate_instance(5, 2, [7, 5])
    records, _ = analyze_instance(P, 4, 7, 0)
    rows = {line.split()[0]: line
            for line in format_point_table(records).splitlines()[2:]}
    assert records
    for r in records:
        head = ", ".join(f"{v:.6g}" for v in r["x0"][:4])
        assert rows[str(r["index"])].endswith(f"  [{head}, ...]")
