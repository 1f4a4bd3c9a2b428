import dataclasses
import sys
import warnings
from itertools import islice
from pathlib import Path

import numpy as np
import pytest

from dcquartic import (
    DualityError,
    OutsideCstarError,
    critical,
    dual_stationarity_residual,
    find_critical_pairs,
    find_critical_points,
    g1_star,
    g1_value,
    g2_star,
    g2_value,
    generate_instance,
    iter_ensemble,
    j_star,
    lift_to_dual,
    linalg,
    load_instance,
    multistart,
    primal_gradient,
    primal_hessian,
    primal_value,
    recover_primal,
    solve_primal_critical,
    validate_instance,
)
from dcquartic.critical import (
    DEDUP_DISTANCE,
    _backtrack,
    _lift_stack,
    _solve_stack,
    _starts,
)
from dcquartic.linalg import NEWTON_MAX_ITER
from dcquartic.problem import ProblemInstance
from oracles import (
    _grad_inf,
    exact_critical_points,
    gradient_roots_1d,
    solve_primal_critical_loop,
)

SAMPLES = Path(__file__).resolve().parent.parent / "sample_instances"


class TestSolve:
    def test_p_tri_from_one(self, p_tri, sqrt2):
        res = solve_primal_critical(p_tri, [1.0])
        assert res.converged
        assert res.x0[0] == pytest.approx(sqrt2, abs=1e-10)

    def test_p_tri_already_stationary(self, p_tri):
        res = solve_primal_critical(p_tri, [0.0])
        assert res.converged and res.iterations == 0
        assert res.x0[0] == 0.0

    def test_p_min_unique_root(self, p_min):
        res = solve_primal_critical(p_min, [3.0])
        assert res.converged
        assert res.x0[0] == pytest.approx(0.0, abs=1e-10)
        roots = gradient_roots_1d(p_min)
        assert len(roots) == 1 and roots[0] == pytest.approx(0.0, abs=1e-10)

    def test_singular_hessian_takes_the_retry(self, monkeypatch):
        # d2J(0) = 1 + (0 - 1) + 0 = 0 exactly, so the Newton solve at the
        # start raises, its NaN step finds no trial, and the retry along
        # -grad J takes the step
        P = validate_instance([1.0], [[1.0]], [1.0], [-1.0], [0.5], 2.0)
        assert primal_hessian(P, [0.0]).tolist() == [[0.0]]
        failed, searches = [], []
        solve, backtrack = np.linalg.solve, critical._backtrack

        def spy(a, b):
            try:
                return solve(a, b)
            except np.linalg.LinAlgError:
                failed.append(np.array(a))
                raise

        def search_spy(P, x, d, t0, g_norm):
            searches.append((x.tolist(), d.tolist(), np.asarray(t0).tolist()))
            return backtrack(P, x, d, t0, g_norm)

        monkeypatch.setattr(np.linalg, "solve", spy)
        monkeypatch.setattr(critical, "_backtrack", search_spy)
        res = solve_primal_critical(P, [0.0])
        monkeypatch.undo()
        # the one-row stack's solve raises once
        assert len(failed) == 1 and failed[0].tolist() == [[[0.0]]]
        # iteration 1's second search: along -grad J(0) = -0.5, scaled by
        # 1 / (1 + |d2J(0)|_2) = 1
        assert searches[1] == ([[0.0]], [[-0.5]], [1.0])
        assert res.converged and res.iterations == 6
        assert res.x0[0] == pytest.approx(-1.0, abs=1e-12)
        assert _same_result(res, solve_primal_critical_loop(P, [0.0]))


class TestMultistart:
    def test_p_tri_all_roots(self, p_tri, sqrt2):
        ms = multistart(p_tri, 32, 7)
        found = sorted(x[0] for x in ms.points)
        oracle = gradient_roots_1d(p_tri)
        assert len(found) == 3
        assert found == pytest.approx(oracle, abs=1e-9)
        assert found == pytest.approx([-sqrt2, 0.0, sqrt2], abs=1e-9)

    def test_p_min_single_root(self, p_min):
        ms = multistart(p_min, 32, 7)
        assert len(ms.points) == 1
        assert ms.points[0][0] == pytest.approx(0.0, abs=1e-10)

    def test_seed_count_must_be_a_nonnegative_integer(self):
        P = load_instance(SAMPLES / "trifecta.json")
        for bad in (2.5, 2.0, -1, "3", None, True, False):
            with pytest.raises(ValueError, match="n_seeds"):
                multistart(P, bad, 7)
        three = multistart(P, 3, 7)
        assert len(three.points) + three.n_dropped + three.n_merged == 3
        for count in (np.int64(3), np.uint8(3)):
            ms = multistart(P, count, 7)
            assert [x.tobytes() for x in ms.points] \
                == [x.tobytes() for x in three.points]
            assert (ms.iterations, ms.n_dropped, ms.n_merged) \
                == (three.iterations, three.n_dropped, three.n_merged)

    def test_zero_seeds(self, p_tri):
        # the empty stack
        assert _solve_stack(p_tri, np.empty((0, 1))) == []
        ms = multistart(p_tri, 0, 7)
        assert ms.points == [] and ms.iterations == []
        assert ms.n_dropped == 0 and ms.n_merged == 0

    def test_deterministic(self, p_tri):
        a = multistart(p_tri, 16, 3)
        b = multistart(p_tri, 16, 3)
        assert len(a.points) == len(b.points)
        for x, y in zip(a.points, b.points):
            assert np.array_equal(x, y)

    def test_sorted_by_value(self, p_tri):
        from dcquartic import primal_value
        ms = multistart(p_tri, 32, 7)
        values = [primal_value(p_tri, x) for x in ms.points]
        assert values == sorted(values)

    def test_small_scale_points_stay_apart(self):
        # critical points 0 and +-sqrt(2) 1e-7, closer than DEDUP_DISTANCE;
        # the N = 2 analogue has nine, each coordinate 0 or +-sqrt(2) 1e-7,
        # and the four of least J are its minima (+-, +-) sqrt(2) 1e-7
        r = np.sqrt(2) * 1e-7
        P = validate_instance([-1.0], [[1e7]], [1.0], [0.0], [0.0], 1.0)
        found = sorted(x[0] for x in find_critical_points(P, 32, 7).points)
        assert found == pytest.approx([-r, 0.0, r], rel=1e-8, abs=0)
        P = _nine_point_instance()
        points = np.array(find_critical_points(P, 32, 7).points)
        grid = [[a, b] for a in (-r, 0.0, r) for b in (-r, 0.0, r)]
        assert sorted(points.tolist()) == [
            pytest.approx(x, rel=1e-8, abs=0) for x in grid]
        assert sorted(np.sign(points[:4]).tolist()) == [
            [-1, -1], [-1, 1], [1, -1], [1, 1]]
        spectra = np.linalg.eigvalsh(primal_hessian(P, points))
        assert (spectra[:4] > 0).all() and (spectra[4:, 0] < 0).all()


def _nine_point_instance():
    """J = -|x|^2 / 2 + (1e14 / 8)(x1^4 + x2^4): n = N = 2, decoupled,
    with the nine critical points (a, b), a, b in {0, +-sqrt(2) 1e-7}."""
    B = np.zeros((2, 2, 2))
    B[0, 0, 0] = B[1, 1, 1] = 1e7
    return validate_instance(-np.eye(2), B, [1.0, 1.0], [0.0, 0.0],
                             [0.0, 0.0], 1.0)


def _rotated(diagonal, angle=0.7):
    """(Q diag Q', Q) for the plane rotation Q by ``angle``."""
    Q = np.array([[np.cos(angle), -np.sin(angle)],
                  [np.sin(angle), np.cos(angle)]])
    return Q @ np.diag(diagonal) @ Q.T, Q


def _near(x, points, tol):
    return min(float(np.max(np.abs(x - p))) for p in points) <= tol


class TestPencilRoute:
    def test_recalls_every_random_start(self):
        # on every N = 1 acceptance-ensemble member, each converged random
        # start at rng 7 and 11 lands on a point of the route; at n = 1
        # the route's points are the gradient's roots
        members = route_count = multistart_count = 0
        for P in iter_ensemble(200, 2024):
            if P.N != 1:
                continue
            members += 1
            ms = find_critical_points(P, 12, 7)
            assert ms.n_dropped == 0 and max(ms.iterations) <= 2
            route_count += len(ms.points)
            multistart_count += len(multistart(P, 12, 7).points)
            for rng in (7, 11):
                for res in _solve_stack(P, _starts(P, 12, rng)):
                    if res.converged:
                        assert _near(res.x0, ms.points, DEDUP_DISTANCE)
            if P.n == 1:
                assert sorted(x[0] for x in ms.points) == pytest.approx(
                    gradient_roots_1d(P), abs=1e-9)
        assert members == 39
        assert route_count > multistart_count
        print(f"\n[N = 1 recall] PASS ({members} members, route "
              f"{route_count} points, multistart(12, 7) {multistart_count}; "
              f"every converged start at rng 7 and 11 recalled)")

    def test_hard_case_with_nonzero_f(self):
        # S(1) = Q diag(0, 3/2) Q' is singular and f = Q (0, 1/2) is
        # orthogonal to its null vector Q e1, so two of the three
        # critical points are hard-case points, Q (+-sqrt(35/18), -1/3)
        A, Q = _rotated([-1.0, 1.0])
        B, _ = _rotated([1.0, 0.5])
        P = validate_instance(A, B, [1.0], [0.0], Q @ [0.0, 0.5], 2.0)
        ms = find_critical_points(P, 12, 7)
        oracle = multistart(P, 200, 0).points
        # the two hard-case points tie in J, so compare as sets
        assert len(ms.points) == len(oracle) == 3 and ms.n_dropped == 0
        assert all(_near(x, oracle, 1e-9) for x in ms.points)
        for sign in (1.0, -1.0):
            assert _near(Q @ [sign * np.sqrt(35 / 18), -1 / 3], ms.points,
                         1e-12)

    @pytest.mark.parametrize("seed, kwargs", [
        ([99, 86], dict(k_margin=0.1, c_range=(-10.0, 10.0))),
        ([99, 1], dict(k_margin=1e-3)),
    ], ids=["wide-c", "near-singular-k"])
    def test_ill_conditioned_s_keeps_every_point(self, seed, kwargs):
        # at two of the three points S(v) has an eigenvalue near 1e-4, so
        # x = -S(v)^{-1} f misses v = gamma w(x) by 1.2e-7 (wide-c, two
        # saddles) or 3.8e-8 (near-singular-k, both minima); one Newton
        # step still takes each such seed to its point
        P = generate_instance(2, 1, seed, f_scale=0.01, **kwargs)
        ms = find_critical_points(P, 12, 7)
        oracle = multistart(P, 400, 11).points
        assert len(ms.points) == len(oracle) == 3 and ms.n_dropped == 0
        assert all(_near(x, oracle, 1e-9) for x in ms.points)
        assert all(_near(y, ms.points, 1e-9) for y in oracle)

    def test_singular_b(self):
        # B = Q diag(1, 0) Q': in the rotated frame y2 = 2/10 and
        # y1 = -3/10 / t for each root t = v - 1 of t^3 + 4/5 t^2 - 9/200,
        # which are -3/10 and (-1/2 +- sqrt(17/20)) / 2
        A, Q = _rotated([-1.0, 2.0])
        B, _ = _rotated([1.0, 0.0])
        P = validate_instance(A, B, [1.0], [0.2], Q @ [0.3, -0.4], 3.0,
                              coercivity_override=True)
        ms = find_critical_points(P, 12, 7)
        oracle = multistart(P, 200, 0).points
        assert len(ms.points) == len(oracle) == 3
        assert all(_near(x, oracle, 1e-9) for x in ms.points)
        for t in (-0.3, (-0.5 + np.sqrt(0.85)) / 2, (-0.5 - np.sqrt(0.85)) / 2):
            assert _near(Q @ [-0.3 / t, 0.2], ms.points, 1e-12)

    def test_ill_conditioned_shift_is_skipped(self, monkeypatch):
        # a critical multiplier v makes M0 + v M1 singular: with v put
        # first, the route moves on to the next shift and gets the same
        # points
        P = next(P for P in iter_ensemble(200, 2024) if P.N == 1 and P.n >= 3)
        expected = find_critical_points(P, 12, 7)
        v = float(P.gamma[0] * P.quartic_terms(expected.points[0])[0])
        shifts = []
        real_shifted = critical._real_shifted
        monkeypatch.setattr(critical, "_real_shifted",
                            lambda M, M1, sigma: shifts.append(sigma)
                            or real_shifted(M, M1, sigma))
        monkeypatch.setattr(critical, "PENCIL_SHIFTS",
                            (v, *critical.PENCIL_SHIFTS))
        ms = find_critical_points(P, 12, 7)
        assert shifts == [critical.PENCIL_SHIFTS[1]] * 2
        assert [x.tobytes() for x in ms.points] \
            == [x.tobytes() for x in expected.points]

    def test_singular_pencil_falls_back_to_multistart(self):
        # A and B share the null vector e2 and f'e2 = 0, so J does not
        # depend on x2: S(sigma) is singular at every shift, and the
        # search is multistart's
        A = B = np.diag([1.0, 0.0])
        P = validate_instance(A, B, [1.0], [-1.0], [0.5, 0.0], 2.0,
                              coercivity_override=True)
        ms, ref = find_critical_points(P, 12, 7), multistart(P, 12, 7)
        assert len(ms.points) > 1
        assert [x.tobytes() for x in ms.points] \
            == [x.tobytes() for x in ref.points]
        assert (ms.n_dropped, ms.n_merged) == (ref.n_dropped, ref.n_merged)

    def test_seed_count_is_checked(self, p_tri):
        for bad in (2.5, 2.0, -1, "3", None, True, False):
            with pytest.raises(ValueError, match="n_seeds"):
                find_critical_points(p_tri, bad, 7)
        assert find_critical_points(p_tri, 0, 7).points == []
        # any positive count gives the same points, whatever the rng
        one, many = find_critical_points(p_tri, 1, 7), \
            find_critical_points(p_tri, np.int64(32), 3)
        assert [x.tobytes() for x in one.points] \
            == [x.tobytes() for x in many.points]


class TestCubicRoute:
    def test_n1_takes_neither_pencil_nor_multistart(self, monkeypatch):
        # at n = 1 the route is the cubic for every N: the 31 n = 1
        # members (N = 1 to 4) and both samples make no pencil or
        # multistart call
        def fail(*args):
            raise AssertionError("n = 1 left the cubic route")
        members = [P for P in iter_ensemble(200, 2024) if P.n == 1]
        members += [load_instance(SAMPLES / name)
                    for name in ("trifecta.json", "global_min.json")]
        monkeypatch.setattr(critical, "multistart", fail)
        monkeypatch.setattr(critical, "_pencil_seeds", fail)
        assert len(members) == 33 and {P.N for P in members} == {1, 2, 3, 4}
        for P in members:
            ms = find_critical_points(P, 12, 7)
            assert ms.points and ms.n_dropped == ms.n_merged == 0

    def test_linear_gradient_has_one_root(self):
        # every B_j = 0 (allowed by coercivity_override): grad J = 2x - 1
        # is linear, np.roots drops the zero leading coefficients, and
        # its one root x = 1/2 is exact
        P = validate_instance([2.0], np.zeros((2, 1, 1)), [1.0, 3.0],
                              [0.5, -1.0], [-1.0], 3.0,
                              coercivity_override=True)
        assert critical._cubic_seeds(P).tolist() == [[0.5]]
        ms = find_critical_points(P, 12, 7)
        assert [x.tolist() for x in ms.points] == [[0.5]]
        assert ms.iterations == [0] and ms.n_dropped == ms.n_merged == 0

    def test_zero_gradient_falls_back_to_multistart(self):
        # A = 0, every B_j = 0 and f = 0: grad J = 0 everywhere, so the
        # cubic has no coefficient and the search is multistart's
        P = validate_instance([0.0], np.zeros((2, 1, 1)), [1.0, 3.0],
                              [0.5, -1.0], [0.0], 1.0,
                              coercivity_override=True)
        assert critical._cubic_seeds(P) is None
        ms, ref = find_critical_points(P, 12, 7), multistart(P, 12, 7)
        assert len(ms.points) == 12
        assert [x.tobytes() for x in ms.points] \
            == [x.tobytes() for x in ref.points]
        assert find_critical_points(P, 0, 7).points == []

    @pytest.mark.parametrize("a, c, root", [(-1.0, -1.0, 1.0),
                                            (-10.546875, 0.0, 1.875)])
    def test_double_root_is_exact(self, a, c, root):
        # grad J = (x - r)^2 (x + 2r).  np.roots gives the double root r
        # only to about sqrt(u): at r = 1 as two reals 2e-8 apart, at
        # r = 1.875 as a complex pair past PENCIL_TOL, which drops it.
        # The root of d2J = 3 x^2 - 3 r^2 places it exactly, and d2J is
        # singular there: a stationary inflection point, not a minimum
        P = validate_instance([a], [[1.0]], [2.0], [c], [2.0 * root**3],
                              1.0)
        ms = find_critical_points(P, 12, 7)
        assert [x[0] for x in ms.points][1:] == [root]
        assert ms.points[0][0] == pytest.approx(-2.0 * root, abs=1e-14)
        assert ms.n_dropped == 0
        pair = find_critical_pairs(P, 12, 7)[1]
        assert pair.d2j.tolist() == [[0.0]]
        assert linalg.inertia(*pair.d2j_spectrum) == (0, 0, 1)

    def test_zero_f_gives_exactly_zero(self, p_tri, p_min, sqrt2):
        # at f = 0 the cubic's constant term is 0, and np.roots returns
        # that root as +0.0 exactly; at N = 2, 6.5 x^3 - 6.5 x has the
        # roots 0 and +-1
        P2 = validate_instance([-1.0], [[[1.0]], [[-2.0]]], [1.0, 3.0],
                               [0.5, 1.0], [0.0], 1.0)
        for P, roots in ((p_tri, [-sqrt2, 0.0, sqrt2]), (p_min, [0.0]),
                         (P2, [-1.0, 0.0, 1.0])):
            xs = sorted(x[0] for x in find_critical_points(P, 12, 7).points)
            assert xs == pytest.approx(roots, abs=1e-15)
            zero = xs[roots.index(0.0)]
            assert zero == 0.0 and not np.signbit(zero)
        # n = 2, N = 1 takes the pencil, whose -S(v)^{-1} f is -0 at
        # f = 0 until _pencil_seeds adds + 0.0
        P3 = validate_instance(np.diag([-1.0, 1.0]), [np.eye(2)], [1.0],
                               [0.0], [0.0, 0.0], 2.0)
        zero = [x for x in find_critical_points(P3, 12, 7).points
                if not x.any()]
        assert len(zero) == 1 and not np.signbit(zero[0]).any()


class TestResultantRoute:
    @pytest.fixture(scope="class")
    def members(self):
        """The 25 members with n = 2 and N >= 2."""
        members = [P for P in iter_ensemble(200, 2024)
                   if P.n == 2 and P.N >= 2]
        assert len(members) == 25 and {P.N for P in members} == {2, 3, 4}
        return members

    def test_n2_takes_neither_pencil_nor_multistart(self, members,
                                                    monkeypatch):
        # every seed is already at its point or one Newton step from it
        def fail(*args):
            raise AssertionError("n = 2, N >= 2 left the resultant route")
        monkeypatch.setattr(critical, "multistart", fail)
        monkeypatch.setattr(critical, "_pencil_seeds", fail)
        for P in members:
            ms = find_critical_points(P, 12, 7)
            assert ms.points and ms.n_dropped == ms.n_merged == 0
            assert max(ms.iterations) <= 1

    def test_no_runtime_warning(self, members):
        # in the nine-point instance grad_2 J does not depend on x1, so
        # at each of its roots x2 the residual test compares 0 with 0
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for P in members + [_nine_point_instance()]:
                assert len(critical._resultant_seeds(P))
                find_critical_points(P, 12, 7)

    def test_rotationally_symmetric_falls_back_to_multistart(self):
        # A = -I and B_j = I: grad J = (3 |x|^2 / 2 - 1) x vanishes on a
        # circle, both cubics share that factor, so the resultant is 0 in
        # x2 and no pencil shift is well conditioned
        P = validate_instance(-np.eye(2), [np.eye(2), np.eye(2)],
                              [1.0, 2.0], [0.0, 0.0], [0.0, 0.0], 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert critical._resultant_seeds(P) is None
            ms, ref = find_critical_points(P, 12, 7), multistart(P, 12, 7)
        assert len(ms.points) > 1
        assert [x.tobytes() for x in ms.points] \
            == [x.tobytes() for x in ref.points]
        assert (ms.n_dropped, ms.n_merged) == (ref.n_dropped, ref.n_merged)

    def test_vanishing_x1_cube_falls_back(self):
        # every B_j[0, 0] = 0: neither cubic in x1 has an x1^3 term, so
        # the Sylvester matrix's first column is 0 and so is the
        # resultant
        B = np.zeros((2, 2, 2))
        B[0, 0, 1] = B[0, 1, 0] = B[1, 1, 1] = 1.0
        P = validate_instance(-np.eye(2), B, [1.0, 2.0], [0.0, 0.0],
                              [0.3, -0.2], 1.0)
        assert critical._resultant_seeds(P) is None
        ms, ref = find_critical_points(P, 12, 7), multistart(P, 12, 7)
        assert [x.tobytes() for x in ms.points] \
            == [x.tobytes() for x in ref.points]

    @pytest.mark.parametrize("theta", [0.0, 1e-9, pytest.param(
        1e-12, marks=pytest.mark.xfail(strict=True, reason=(
            "known limit of the resultant route (ROADMAP item 13): where "
            "points share an x2 only nearly, the pencil's clustered "
            "eigenvalues split into complex pairs past PENCIL_TOL, and "
            "the route finds 8 of the 9 points")))], ids="{:g}".format)
    def test_nearly_shared_x2_keeps_every_point(self, theta):
        # J = -|x|^2 / 2 + (x1^4 + x2^4) / 8 rotated by theta: the nine
        # points Q (a, b), a, b in {0, +-sqrt(2)}, three to each x2
        # unrotated, and nearly so at small theta
        (B1, Q), (B2, _) = (_rotated(d, theta) for d in ([1.0, 0.0],
                                                          [0.0, 1.0]))
        P = validate_instance(-np.eye(2), [B1, B2], [1.0, 1.0], [0.0, 0.0],
                              [0.0, 0.0], 1.0)
        r = np.sqrt(2.0)
        exact = [Q @ [a, b] for a in (-r, 0.0, r) for b in (-r, 0.0, r)]
        points = find_critical_points(P, 12, 7).points
        assert len(points) == 9
        assert all(any(_close(x, y) for x in points) for y in exact)


TWO_PARAMETER_MEMBERS = (5, 7, 38, 42, 63, 69, 72, 95, 100, 102, 112, 113,
                         124, 151, 181, 190)


def _holds_every_point(points, reference):
    return all(any(_close(x, y) for x in points) for y in reference)


def _same_bytes(result, reference):
    return ([x.tobytes() for x in result.points]
            == [x.tobytes() for x in reference.points]
            and (result.n_dropped, result.n_merged)
            == (reference.n_dropped, reference.n_merged))


class TestTwoParameterRoute:
    @pytest.fixture(scope="class")
    def members(self):
        """The 16 members with N = 2 and n = 3 or 4."""
        members = [(k, P) for k, P in enumerate(iter_ensemble(200, 2024))
                   if P.N == 2 and P.n in (3, 4)]
        assert tuple(k for k, _ in members) == TWO_PARAMETER_MEMBERS
        return [P for _, P in members]

    def test_members_take_no_multistart(self, members, monkeypatch):
        def fail(*args):
            raise AssertionError("N = 2, n = 3-4 left the two-parameter "
                                 "route")
        monkeypatch.setattr(critical, "multistart", fail)
        for P in members:
            ms = find_critical_points(P, 12, 7)
            assert ms.points and ms.n_dropped == 0

    def test_holds_every_multistart_point(self, members):
        # the route's points are a superset: 80 points against the 42 of
        # multistart(P, 12, 7)
        route_count = 0
        for P in members:
            points = find_critical_points(P, 12, 7).points
            assert _holds_every_point(points, multistart(P, 12, 7).points)
            route_count += len(points)
        assert route_count == 80

    def test_no_runtime_warning(self, members):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for P in members:
                assert len(critical._two_parameter_seeds(P))
                find_critical_points(P, 12, 7)

    def test_zero_f_falls_back_to_multistart(self):
        # at f = 0 both det W_j(v) = det S(v)^2 (2c_j - 2v_j / gamma_j)
        # vanish on the whole curve det S(v) = 0, so the pencil is
        # singular and no shift passes the gate
        P = generate_instance(3, 2, [7, 0], f_scale=0.0)
        assert critical._two_parameter_seeds(P) is None
        assert _same_bytes(find_critical_points(P, 12, 7),
                           multistart(P, 12, 7))

    def test_over_the_gate_falls_back_to_multistart(self, monkeypatch):
        # f_scale 1e-3: every shift reads cond above 8e9, so the route
        # falls back; at the looser PENCIL_MAX_COND its first shift
        # passes, and the route misses points that multistart finds
        P = generate_instance(4, 2, [7, 2], f_scale=1e-3)
        reference = multistart(P, 12, 7)
        assert critical._two_parameter_seeds(P) is None
        assert _same_bytes(find_critical_points(P, 12, 7), reference)
        monkeypatch.setattr(critical, "TWO_PARAMETER_MAX_COND",
                            critical.PENCIL_MAX_COND)
        points = find_critical_points(P, 12, 7).points
        assert not _holds_every_point(points, reference.points)

    @pytest.mark.parametrize("draw, k_margin", [(127, 1e-3), (133, 0.1)],
                             ids=["draw127", "draw133"])
    def test_stress_draw_keeps_every_multistart_point(self, draw, k_margin):
        # stress draws 127 and 133 (tests/stress.py: n = 3, N = 2,
        # f_scale 0.01, c in +-10): the seeds of some points read a
        # screen ratio of 1e-4 to 1e-2, far above the others, and
        # TWO_PARAMETER_TOL must keep them
        P = generate_instance(3, 2, [99, draw], k_margin, 0.01,
                              (-10.0, 10.0))
        assert critical._two_parameter_seeds(P) is not None
        points = find_critical_points(P, 12, 7).points
        for reference in (multistart(P, 12, 7), multistart(P, 400, 11)):
            assert _holds_every_point(points, reference.points)


def _close(x, y):
    """x within 1e-8 (1 + |x|inf) of y."""
    return np.max(np.abs(x - y)) <= 1e-8 * (1.0 + np.max(np.abs(x)))


class TestExactOracle:
    @pytest.mark.parametrize("member", [83, 150, 168])
    def test_fixture_regenerates(self, exact_points, member):
        # the members where 12 multistart starts missed exact points
        # before the n = 2 resultant route; the file's
        # floats are the oracle's bit for bit on the kernel that wrote
        # them, and within rounding of the instance's bits elsewhere
        P = next(islice(iter_ensemble(200, 2024), member, None))
        points, fixture = exact_critical_points(P), exact_points[member]
        assert points.shape == fixture.shape and len(points) >= 3
        assert np.max(np.abs(points - fixture)) \
            <= 1e-12 * (1.0 + np.max(np.abs(fixture)))

    @pytest.mark.parametrize("draw, N, k_margin, f_scale", [
        (21, 2, 1e-3, 1.0), (43, 3, 0.1, 0.01), (51, 3, 1.0, 1.0)],
        ids=["draw21", "draw43", "draw51"])
    def test_n1_route_holds_every_cubic_root(self, draw, N, k_margin,
                                             f_scale):
        # at n = 1, grad J is a cubic for every N; stress draws 21, 43
        # and 51 (tests/stress.py) have three real roots each, and a
        # 12-start multistart misses one of them (at draw 21 the global
        # minimum x = 3.0443, J = 7.857)
        P = generate_instance(1, N, [99, draw], k_margin, f_scale,
                              (-10.0, 10.0))
        exact = exact_critical_points(P)
        points = np.reshape(find_critical_points(P, 12, 7).points, (-1, 1))
        assert len(exact) == 3
        assert all(any(_close(x, y) for x in points) for y in exact)

    @pytest.mark.parametrize("gamma", [1e-6, 1e-3, 1e4, 1e8, 1e10, 1e11,
                                       1e12, 1e14], ids="{:g}".format)
    def test_large_gamma_route_holds_every_point(self, gamma):
        # trifecta with gamma scaled: J = -x^2/2 + gamma x^4/8, whose
        # critical points are exactly 0 and +-sqrt(2/gamma), the roots
        # of the cubic gamma x^3 / 2 - x at every gamma; from 1e11 on
        # every pencil shift fails PENCIL_MAX_COND, and 12 multistart
        # starts all merge into the two minima
        P = validate_instance([-1.0], [[1.0]], [gamma], [0.0], [0.0], 1.0)
        root = np.sqrt(2.0 / gamma)
        points = np.reshape(find_critical_points(P, 12, 7).points, (-1, 1))
        assert all(any(_close(x, [y]) for x in points)
                   for y in (-root, 0.0, root))

    @pytest.mark.xfail(strict=True, reason=(
        "known far-point defect (ROADMAP item 17): linalg.converged's "
        "absolute test max|grad J| <= 1e-12 (1 + max|x|) = 1.295e-9 "
        "rejects the global minimum at |x| = 1294, polished to 1.975e-9"))
    def test_n1_route_keeps_a_far_global_minimum(self):
        # stress draw 119 (n = 3, N = 1): the pencil seeds the global
        # minimum at |x|inf ~ 1294 (J = -33747.152), and _distinct drops
        # it; the route reports only J = -779.062 and -552.564
        P = generate_instance(3, 1, [99, 119], 0.1, 30.0, (-10.0, 10.0))
        result = find_critical_points(P, 12, 7)
        assert min(primal_value(P, x) for x in result.points) < -33000.0


class TestLift:
    def test_hand_values(self, p_tri, p_min, sqrt2):
        pair = lift_to_dual(p_tri, [sqrt2])
        assert pair.v0_hat == pytest.approx([1.0])
        assert pair.v_hat == pytest.approx([2.0 * sqrt2])
        pair = lift_to_dual(p_tri, [0.0])
        assert pair.v0_hat == pytest.approx([0.0])
        assert pair.v_hat == pytest.approx([0.0])
        pair = lift_to_dual(p_min, [0.0])
        assert pair.v0_hat == pytest.approx([1.0])
        assert pair.v_hat == pytest.approx([0.0])

    def test_residuals_at_critical_pair(self, p_tri, sqrt2):
        pair = lift_to_dual(p_tri, [sqrt2])
        assert pair.primal_residual <= 1e-12
        assert pair.dual_residual_vstar <= 1e-12
        assert pair.dual_residual_v0 <= 1e-12

    def test_perturbed_pair_nonzero_residual(self, p_tri):
        # at the x0 = 0 pair, K - A = 2 while M = 1, so a v* bump shows
        # up in the first stationarity residual
        pair = lift_to_dual(p_tri, [0.0])
        bumped = dataclasses.replace(pair, v_hat=pair.v_hat + 0.1)
        r_vstar, _ = dual_stationarity_residual(p_tri, bumped)
        assert r_vstar > 1e-3

    def test_near_converged_point_lifts(self, p_tri, sqrt2):
        # grad J = 5e-9 here: inside the drift gate's 1e-8, above the
        # 1e-9 (1 + |vhat|) that the gradient itself would be held to
        pair = lift_to_dual(p_tri, [sqrt2 + 2.5e-9])
        assert 1e-9 * (1.0 + abs(pair.v_hat[0])) < pair.primal_residual <= 1e-8

    def test_residual_outside_c_star_raises(self):
        # M(vhat0) = gamma c + K = -4 at x0 = 0: the residuals need
        # M(vhat0)^{-1}, so the lift leaves them NaN and the call raises
        P = validate_instance([-1.0], [[1.0]], [1.0], [-5.0], [0.0], 1.0)
        pair = lift_to_dual(P, [0.0])
        assert not pair.c_star.inside and pair.c_star.margin == -4.0
        assert np.isnan(pair.dual_residual_vstar)
        with pytest.raises(OutsideCstarError):
            dual_stationarity_residual(P, pair)

    def test_failed_m_factor_raises(self, p_tri, sqrt2, monkeypatch):
        # M(vhat0) = 2 at x0 = sqrt 2 is inside C*, so a Cholesky factor
        # that reports a failed pivot there is an error, not a NaN row
        monkeypatch.setattr(linalg, "cho_factor", lambda M: (
            np.zeros_like(M), np.zeros(np.shape(M)[:-2], dtype=bool)))
        with pytest.raises(np.linalg.LinAlgError,
                           match="not positive definite"):
            lift_to_dual(p_tri, [sqrt2])

    def test_gradient_drift_raises(self, p_tri, sqrt2, monkeypatch):
        # a gradient off by 1e-6 reads ~0 at J'(x) = 2 (x - sqrt 2) = -1e-6
        monkeypatch.setattr(critical, "primal_gradient",
                            lambda P, x: primal_gradient(P, x) + 1e-6)
        with pytest.raises(DualityError, match="lift identity violated"):
            lift_to_dual(p_tri, [sqrt2 - 5e-7])
        # in a stack, the gate is decided per row: row 0 is far from
        # converged, so only row 1 is held to the identity
        lift_to_dual(p_tri, [1.0])
        with pytest.raises(DualityError, match="lift identity violated"):
            _lift_stack(p_tri, [[1.0], [sqrt2 - 5e-7]])

    def test_stack_rows_are_points(self):
        rng = np.random.default_rng(5)
        outside = inside = 0
        for P in iter_ensemble(40, 2024):
            assert _lift_stack(P, np.empty((0, P.n))) == []
            ms = find_critical_points(P, 12, 7)
            # the critical points and rows far from any, with their C*
            # residuals or the NaN ones outside C*
            X = np.concatenate([np.reshape(ms.points, (-1, P.n)),
                                3.0 * rng.standard_normal((4, P.n))])
            for row, x in zip(_lift_stack(P, X), X):
                pair = lift_to_dual(P, x)
                for a, b in ((row.x0, pair.x0), (row.v_hat, pair.v_hat),
                             (row.v0_hat, pair.v0_hat)):
                    assert a.tobytes() == b.tobytes()
                assert row.c_star == pair.c_star and row.b_star == pair.b_star
                assert np.array([row.primal_residual, row.dual_residual_vstar,
                                 row.dual_residual_v0]).tobytes() \
                    == np.array([pair.primal_residual, pair.dual_residual_vstar,
                                 pair.dual_residual_v0]).tobytes()
                # J, J* and the M(vhat0) factor are the one-point
                # kernels' bits, with NaN outside C*
                L = np.full((P.n, P.n), np.nan)
                jstar = np.nan
                if row.c_star.inside:
                    L = linalg.cho_factor(P.mixed_matrix(row.v0_hat))[0]
                    jstar = j_star(P, row.v_hat, row.v0_hat)
                assert np.array([row.J, row.J_star]).tobytes() \
                    == np.array([primal_value(P, x), jstar]).tobytes()
                assert row.m_factor.tobytes() == L.tobytes()
                outside += np.isnan(row.dual_residual_vstar)
                inside += row.c_star.inside
        assert outside > 0 and inside > 0


class TestRecover:
    def test_hand_values(self, p_tri, p_min, sqrt2):
        assert recover_primal(p_tri, [2 * sqrt2]) == pytest.approx([sqrt2])
        assert recover_primal(p_min, [0.0]) == pytest.approx([0.0])

    def test_identity_solve(self):
        P = validate_instance(np.zeros((2, 2)), [np.eye(2)], [1.0], [0.0],
                              [1.0, 0.0], 1.0)
        # A = 0, K = I, f = e1: recover(0) = e1
        assert recover_primal(P, [0.0, 0.0]) == pytest.approx([1.0, 0.0])

    def test_round_trip(self, p_tri, sqrt2):
        pair = lift_to_dual(p_tri, [sqrt2])
        back = recover_primal(p_tri, pair.v_hat)
        assert back == pytest.approx(pair.x0, abs=1e-9)


@pytest.fixture(scope="module")
def pair_batch():
    out = []
    rng = np.random.default_rng(0)
    for i in range(20):
        n = int(rng.integers(1, 5))
        N = int(rng.integers(1, 4))
        P = generate_instance(n, N, [20_000, i])
        for pair in find_critical_pairs(P, 10, 7):
            if pair.converged:
                out.append((P, pair))
    return out


class TestEnsembleInvariants:

    def test_dual_residuals_bounded(self, pair_batch):
        assert len(pair_batch) >= 20
        for P, pair in pair_batch:
            if not np.isfinite(pair.dual_residual_vstar):
                continue
            assert pair.dual_residual_vstar <= 1e-9
            assert pair.dual_residual_v0 <= 1e-9

    def test_recover_round_trip(self, pair_batch):
        for P, pair in pair_batch:
            if pair.primal_residual <= 1e-10:
                back = recover_primal(P, pair.v_hat)
                assert np.max(np.abs(back - pair.x0)) <= 1e-9

    def test_conjugate_attainment(self, pair_batch):
        # both Fenchel-Young inequalities are tight at the lifted pair
        for P, pair in pair_batch:
            x0, v_hat, v0_hat = pair.x0, pair.v_hat, pair.v0_hat
            lhs1 = g1_star(P, v_hat)
            rhs1 = float(v_hat @ x0) - g1_value(P, x0)
            assert abs(lhs1 - rhs1) <= 1e-9 * (1.0 + abs(lhs1))
            try:
                lhs2 = g2_star(P, v_hat, v0_hat)
            except OutsideCstarError:
                continue
            rhs2 = float(v_hat @ x0) - g2_value(P, x0, np.zeros(P.N))
            assert abs(lhs2 - rhs2) <= 1e-9 * (1.0 + abs(lhs2))


def _backtrack_loop(P, x, d, t0, g_norm):
    """The one-at-a-time halving loop of solve_primal_critical_loop."""
    t = t0
    for _ in range(linalg.NEWTON_MAX_BACKTRACKS):
        cand = x + t * d
        if _grad_inf(P, cand) < g_norm:
            return cand
        t *= 0.5
    return None


def _same_terms(a, b):
    return all(p.tobytes() == q.tobytes() for p, q in zip(a, b))


def _same_result(a, b):
    return (a.x0.tobytes() == b.x0.tobytes() and a.converged == b.converged
            and a.iterations == b.iterations
            and np.float64(a.grad_norm).tobytes()
            == np.float64(b.grad_norm).tobytes())


class TestStackedLineSearch:

    def test_same_results_as_loop(self):
        problems = [load_instance(SAMPLES / "trifecta.json"),
                    load_instance(SAMPLES / "global_min.json")]
        problems += list(iter_ensemble(25, 2024))
        n_starts = n_stalled = 0
        for P in problems:
            for s in _starts(P, 12, 7):
                fast = solve_primal_critical(P, s)
                slow = solve_primal_critical_loop(P, s)
                assert _same_result(fast, slow)
                n_starts += 1
                n_stalled += not fast.converged
        assert n_starts == 27 * 12
        assert n_stalled > 0

    def test_stack_gradient_rows_are_points(self):
        rng = np.random.default_rng(11)
        unit = np.finfo(float).eps
        for n in range(1, 7):
            for N in range(1, 5):
                Q = generate_instance(n, N, [31, n, N])
                # validation accepts A and B_j asymmetric up to 1e-12
                # relative; skew them by half that
                skew = 5e-13 * np.triu(np.ones((n, n)), 1)
                P = validate_instance(Q.A + skew, Q.B + skew, Q.gamma, Q.c,
                                      Q.f, Q.K)
                # rows at random scales, rows next to critical points
                # (where grad J is a sum of cancelling terms) and rows
                # that overflow
                roots = [pair.x0 for pair in find_critical_pairs(P, 4, 7)]
                X = np.concatenate(
                    [scale * rng.standard_normal((8, n))
                     for scale in (1e-3, 0.3, 1.0, 3.0, 1e3)]
                    + [x0 + 1e-9 * rng.standard_normal((4, n)) for x0 in roots]
                    + [1e110 * rng.standard_normal((8, n))])
                with np.errstate(over="ignore", invalid="ignore"):
                    stack = primal_gradient(P, X)
                    assert stack.shape == X.shape
                    for x, g in zip(X, stack):
                        assert g.tobytes() == primal_gradient(P, x).tobytes()
                finite = np.isfinite(stack).all(axis=1)
                assert not finite[-8:].any() and finite[:-8].all()
                # against A x + sum_j gamma_j w_j B_j x + f summed in
                # another order, which tells A x from A^T x on the skew:
                # each sum is within K u / (1 - K u) of the exact value
                # relative to the same sum over absolute values, with
                # K = n^2 + n + N + 5 roundings along any product
                X = X[finite]
                BX = np.einsum("jkl,sl->sjk", P.B, X)
                w = 0.5 * np.einsum("sjk,sk->sj", BX, X) + P.c
                other = X @ P.A.T + np.einsum("sjk,sj->sk", BX,
                                              P.gamma * w) + P.f
                aBX = np.einsum("jkl,sl->sjk", np.abs(P.B), np.abs(X))
                aw = 0.5 * np.einsum("sjk,sk->sj", aBX, np.abs(X)) \
                    + np.abs(P.c)
                scale = np.abs(X) @ np.abs(P.A).T + np.einsum(
                    "sjk,sj->sk", aBX, P.gamma * aw) + np.abs(P.f)
                roundings = n ** 2 + n + N + 5
                assert np.all(np.abs(stack[finite] - other)
                              <= 4 * roundings * unit * scale)

    def test_overflowing_rows_never_accepted(self):
        P = generate_instance(3, 2, [31, 3, 2])
        x = np.array([0.5, -1.0, 2.0])
        g_norm = _grad_inf(P, x)
        d = np.array([1.0, -2.0, 0.5]) * 1e110
        with np.errstate(over="ignore", invalid="ignore"):
            # one stack, two rows: from g_norm every trial step overflows;
            # from an infinite norm any finite row is a decrease, and both
            # pick the first step short enough not to overflow
            args = (P, np.array([x, x]), np.array([d, d]))
            norms = np.array([g_norm, np.inf])
            found, fast, g, gn, bx, w = picked = _backtrack(
                *args, np.ones(2), norms)
            # the Newton line search's float step scale picks the same
            assert _same_terms(_backtrack(*args, 1.0, norms), picked)
            assert not found[0]
            assert _backtrack_loop(P, x, d, 1.0, g_norm) is None
            assert found[1]
            fast, g = fast[1], g[1]
            slow = _backtrack_loop(P, x, d, 1.0, np.inf)
            assert np.array_equal(fast, slow)
            assert g.tobytes() == primal_gradient(P, slow).tobytes()
            assert gn[1] == _grad_inf(P, slow)
            assert _same_terms((bx[1], w[1]), P._bx_and_w(slow))
            t = linalg.HALVINGS
            k = int(np.flatnonzero((x + t[:, None] * d == fast).all(axis=1))[0])
            assert 0 < k
            before = x + t[:k, None] * d
            assert not np.isfinite(primal_gradient(P, before)).all(axis=1).any()
            assert not any(np.isfinite(_grad_inf(P, c)) for c in before)

    def test_near_tie_picks_as_the_loop(self):
        P = generate_instance(4, 2, [31, 4, 2])
        x = np.array([0.3, -0.8, 1.1, 0.2])
        H = primal_hessian(P, x)
        d = np.linalg.solve(H, -primal_gradient(P, x))
        cands = x + linalg.HALVINGS[:, None] * d
        single = np.array([_grad_inf(P, c) for c in cands])
        # row k's norm is g_norm exactly: not a decrease; all rows in one
        # stack
        rows = len(cands)
        args = (P, np.tile(x, (rows, 1)), np.tile(d, (rows, 1)))
        found, fast, g, gn, bx, w = picked = _backtrack(
            *args, np.ones(rows), single)
        # the Newton line search's float step scale picks the same
        assert _same_terms(_backtrack(*args, 1.0, single), picked)
        # the accepted rows' max |grad J|, handed to the next iteration
        assert np.abs(g[found]).max(axis=1).tobytes() == gn[found].tobytes()
        picked_later = 0
        for k in range(rows):
            slow = _backtrack_loop(P, x, d, 1.0, single[k])
            assert (not found[k]) == (slow is None)
            if not found[k]:
                continue
            assert np.array_equal(fast[k], slow)
            assert g[k].tobytes() == primal_gradient(P, slow).tobytes()
            assert gn[k] == _grad_inf(P, slow)
            assert _same_terms((bx[k], w[k]), P._bx_and_w(slow))
            assert not np.array_equal(fast[k], cands[k])
            picked_later += bool(np.flatnonzero(
                (cands == fast[k]).all(axis=1))[0] > k)
        assert picked_later > 0

    def test_iterations_count_an_early_stall(self, monkeypatch):
        # member 7, start 7 fails its line searches in the 8th iteration
        P = list(iter_ensemble(8, 2024))[7]
        s = _starts(P, 12, 7)[7]
        calls = []
        hessian = critical.hessian_from
        monkeypatch.setattr(critical, "hessian_from",
                            lambda P, bx, w: calls.append(1)
                            or hessian(P, bx, w))
        res = solve_primal_critical(P, s)
        assert not res.converged
        assert res.iterations == len(calls) == 8 < NEWTON_MAX_ITER
        assert _same_result(res, solve_primal_critical_loop(P, s))


class TestStackedNewton:
    """multistart solves its starts as one lockstep stack; each row must
    be what the start gets alone, from the per-start loop oracle."""

    def test_stack_rows_are_the_loop(self):
        # members 0-39 at rng 7, and members 0-19 at rng 11 so that the
        # check does not rest on one set of starts
        for rng, members in ((7, 40), (11, 20)):
            n_rows = n_stalled = 0
            for P in islice(iter_ensemble(200, 2024), members):
                starts = _starts(P, 12, rng)
                results = _solve_stack(P, starts)
                assert len(results) == 12
                for s, res in zip(starts, results):
                    assert _same_result(res, solve_primal_critical_loop(P, s))
                    n_rows += 1
                    n_stalled += not res.converged
            assert n_rows == 12 * members
            assert 0 < n_stalled < n_rows

    def test_singular_row_beside_regular_rows(self, monkeypatch):
        # d2J(0) = 0 exactly: the stacked solve raises for the whole
        # stack, each row is solved alone, and only the two rows at
        # x = 0 raise again
        P = validate_instance([1.0], [[1.0]], [1.0], [-1.0], [0.5], 2.0)
        starts = np.array([[0.0], [1.0], [-3.0], [0.7], [0.0]])
        failed = []
        solve = np.linalg.solve

        def spy(a, b):
            try:
                return solve(a, b)
            except np.linalg.LinAlgError:
                failed.append(np.array(a))
                raise

        monkeypatch.setattr(np.linalg, "solve", spy)
        results = _solve_stack(P, starts)
        monkeypatch.undo()
        assert [f.shape for f in failed] == [(5, 1, 1), (1, 1, 1), (1, 1, 1)]
        assert failed[1].tolist() == failed[2].tolist() == [[[0.0]]]
        for s, res in zip(starts, results):
            assert _same_result(res, solve_primal_critical_loop(P, s))
        assert results[0].converged and results[0].iterations == 6
        assert _same_result(results[0], results[4])

    def test_one_bx_per_iteration(self, monkeypatch):
        # B_j x is formed once for the starts and once per line search:
        # the next Hessian is built from the accepted trial rows, and no
        # point or stacked gradient or Hessian call is made
        P = list(iter_ensemble(8, 2024))[7]
        starts = _starts(P, 12, 7)
        expected = _solve_stack(P, starts)
        bx_calls, searches, forbidden = [], [], []
        bx_rows, backtrack = ProblemInstance._bx_rows, critical._backtrack
        monkeypatch.setattr(ProblemInstance, "_bx_rows",
                            lambda self, x: bx_calls.append(1)
                            or bx_rows(self, x))
        monkeypatch.setattr(critical, "_backtrack",
                            lambda *args: searches.append(1)
                            or backtrack(*args))
        for name, module in list(sys.modules.items()):
            for fn in ("primal_gradient", "primal_hessian"):
                if name.startswith("dcquartic") and hasattr(module, fn):
                    monkeypatch.setattr(
                        module, fn, lambda *args, fn=fn, f=getattr(module, fn):
                        forbidden.append(fn) or f(*args))
        results = _solve_stack(P, starts)
        monkeypatch.undo()
        assert len(searches) > NEWTON_MAX_ITER // 2
        assert len(bx_calls) == 1 + len(searches)
        assert forbidden == []
        for a, b in zip(results, expected):
            assert _same_result(a, b)
