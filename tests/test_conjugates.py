import dataclasses
import warnings
from pathlib import Path

import numpy as np
import pytest

from dcquartic import (
    AStarEmptyError,
    DimensionMismatchError,
    DualityError,
    LeftCstarError,
    NoConvergenceError,
    OutsideCstarError,
    build_bundle,
    classify_case,
    find_critical_pairs,
    g1_star,
    g1_value,
    g2_star,
    g2_value,
    generate_instance,
    implicit_sensitivity,
    in_A_star,
    in_B_star,
    in_C_star,
    iter_ensemble,
    j2_star,
    j_star,
    j_tilde_star,
    load_instance,
    local_extremality_probe,
    local_extremality_probes,
    validate_instance,
)
from dcquartic import conjugates, critical, linalg
from dcquartic.conjugates import (
    _FAILURES,
    LEFT_C_STAR,
    OUTSIDE_C_STAR,
    SOLVED,
    _inner_newton_stack,
    _j_tilde_star_bracket,
    default_inner_init,
)
from dcquartic.curvature import _bundle_stack
from dcquartic.gap import PROBE_TOL, _classify_stack
from dcquartic.report import analyze_instance
from oracles import (
    g1_star_grid,
    g2_star_grid,
    inner_newton_point,
    j_tilde_grid,
    j_tilde_star_loop,
)

SAMPLES = Path(__file__).resolve().parent.parent / "sample_instances"


class TestG1Star:
    def test_identity_quadratic(self):
        # A = 0, K = I, f = 0: G1* is half the squared norm
        P = validate_instance(np.zeros((2, 2)), [np.eye(2)], [1.0], [0.0],
                              np.zeros(2), 1.0)
        assert g1_star(P, [1.0, 0.0]) == pytest.approx(0.5)

    def test_hand_values(self, p_tri, p_min, sqrt2):
        assert g1_star(p_tri, [2 * sqrt2]) == pytest.approx(2.0)
        assert g1_star(p_min, [0.0]) == 0.0

    def test_grid_oracle(self, p_tri, sqrt2):
        assert g1_star_grid(p_tri, [2 * sqrt2]) == pytest.approx(2.0, abs=1e-5)


class TestG2Star:
    def test_hand_values(self, p_tri, p_min, sqrt2):
        assert g2_star(p_tri, [0.0], [0.0]) == 0.0
        assert g2_star(p_tri, [2 * sqrt2], [1.0]) == pytest.approx(2.5)
        assert g2_star(p_min, [0.0], [1.0]) == pytest.approx(-0.5)

    def test_outside_c_star_raises(self, p_tri):
        # M(v0) = v0 + 1 <= 0 at v0 = -1
        with pytest.raises(OutsideCstarError):
            g2_star(p_tri, [0.0], [-1.0])

    def test_grid_oracle(self, p_tri, sqrt2):
        assert g2_star_grid(p_tri, [2 * sqrt2], [1.0]) == pytest.approx(
            2.5, abs=1e-4)


class TestMembership:
    def test_hand_margins(self, p_tri, p_min):
        c = in_C_star(p_tri, [1.0])
        assert c.inside and c.margin == pytest.approx(2.0)
        b = in_B_star(p_tri, [1.0])
        assert not b.inside and b.margin == pytest.approx(0.0, abs=1e-14)
        a = in_A_star(p_min, [1.0])
        assert a.inside and a.margin == pytest.approx(2.0)


class TestJStar:
    def test_hand_values(self, p_tri, p_min, sqrt2):
        assert j_star(p_tri, [2 * sqrt2], [1.0]) == pytest.approx(-0.5)
        assert j_star(p_tri, [0.0], [0.0]) == 0.0
        assert j_star(p_min, [0.0], [1.0]) == pytest.approx(0.5)

    def test_takes_one_point(self, p_min):
        # a (1, n) v* is the point, as for g2_star, not a one-row stack
        assert type(j_star(p_min, [[0.0]], [1.0])) is float


class TestJTildeStar:
    def test_hand_values(self, p_tri, p_min, sqrt2):
        val, v0 = j_tilde_star(p_tri, [2 * sqrt2])
        assert val == pytest.approx(-0.5, abs=1e-10)
        assert v0 == pytest.approx([1.0], abs=1e-10)
        val, v0 = j_tilde_star(p_tri, [0.0])
        assert val == pytest.approx(0.0, abs=1e-12)
        assert v0 == pytest.approx([0.0], abs=1e-12)
        val, v0 = j_tilde_star(p_min, [0.0])
        assert val == pytest.approx(0.5, abs=1e-12)
        assert v0 == pytest.approx([1.0], abs=1e-12)

    def test_singular_newton_matrix_raises(self, p_tri, monkeypatch):
        # at mu = 0 a singular inner Newton matrix fails its own row: E is
        # zeroed where x_bar = v* / (1 + v0) > 0, that is at every start
        # in C* of the rows with v* > 0, first tries and fallbacks alike
        v_stars = np.array([[-2.0], [1.0], [-0.5], [2.0], [-1.0]])
        singular = v_stars[:, 0] > 0
        expected = j_tilde_star(p_tri, v_stars)
        assert not np.isnan(expected[0]).any()
        inner_matrix = conjugates._inner_matrix

        def zero_where_positive(P, x_bar, L):
            E = inner_matrix(P, x_bar, L)
            return np.where((x_bar <= 0.0).all(axis=1)[:, None, None], E, 0.0)

        monkeypatch.setattr(conjugates, "_inner_matrix", zero_where_positive)
        values, argmaxes = j_tilde_star(p_tri, v_stars)
        assert np.isnan(values[singular]).all()
        assert np.isnan(argmaxes[singular]).all()
        for got, want in zip((values, argmaxes), expected):
            assert got[~singular].tobytes() == want[~singular].tobytes()
        with pytest.raises(LeftCstarError) as info:
            j_tilde_star(p_tri, [1.0])
        assert isinstance(info.value, DualityError)
        assert not isinstance(info.value, np.linalg.LinAlgError)

    def test_grid_oracle_1d(self, p_tri, sqrt2):
        val, _ = j_tilde_star(p_tri, [2 * sqrt2])
        oracle, arg = j_tilde_grid(p_tri, [2 * sqrt2], [4.5], 5.5)
        assert val == pytest.approx(oracle, abs=1e-6)
        assert arg[0] == pytest.approx(1.0, abs=1e-4)

    def test_grid_oracle_small_random(self):
        # oracle equivalence for n <= 2, N <= 2 within 1e-4
        rng = np.random.default_rng(5)
        checked = 0
        for i in range(12):
            n = int(rng.integers(1, 3))
            N = int(rng.integers(1, 3))
            P = generate_instance(n, N, [777, i])
            v_star = rng.normal(scale=0.5, size=n)
            try:
                val, v0 = j_tilde_star(P, v_star)
            except Exception:
                continue
            oracle, _ = j_tilde_grid(P, v_star, v0, 2.0 + np.max(np.abs(v0)))
            assert val == pytest.approx(oracle, abs=1e-4)
            checked += 1
        assert checked >= 6

    def test_left_c_star(self):
        # strongly indefinite B with large quartic weight drives the
        # stationary system out of C* for a steep v*
        P = validate_instance([0.0], [[-1.0]], [4.0], [1.0], [0.0], 1.0)
        # C* = {v0 : 1 - v0 > 0}; stationarity wants v0 = 4 (x=0), outside
        with pytest.raises((LeftCstarError, OutsideCstarError)):
            j_tilde_star(P, [0.0], init=[0.5])


def _one_at_a_time(P, v_stars, init):
    """j_tilde_star_loop on each row alone, from init or, for an (S, N)
    init, from the row's start: values and argmaxes, nan where it raises,
    and the class it raises (None where it returns)."""
    values = np.full(len(v_stars), np.nan)
    argmaxes = np.full((len(v_stars), P.N), np.nan)
    raised = [None] * len(v_stars)
    for s, v in enumerate(v_stars):
        start = init[s] if np.ndim(init) == 2 else init
        try:
            values[s], argmaxes[s] = j_tilde_star_loop(P, v, init=start)
        except (NoConvergenceError, OutsideCstarError) as exc:
            raised[s] = type(exc)
    return values, argmaxes, raised


def _assert_stack_matches(P, v_stars, init):
    """The stacked solve gives each row its one-at-a-time outcome: the
    same exclusions, values within 1e-12 relative to 1 + |value|.
    Returns the stacked ok mask and the one-at-a-time values."""
    values, argmaxes = j_tilde_star(P, v_stars, init=init)
    ok = ~np.isnan(values)
    expected, expected_arg, _ = _one_at_a_time(P, v_stars, init)
    np.testing.assert_array_equal(ok, ~np.isnan(expected))
    assert np.all(np.isnan(argmaxes[~ok]))
    assert np.all(np.abs(values[ok] - expected[ok])
                  <= 1e-12 * (1.0 + np.abs(expected[ok])))
    assert np.all(np.abs(argmaxes[ok] - expected_arg[ok])
                  <= 1e-8 * (1.0 + np.abs(expected_arg[ok])))
    return ok, expected


def _dual_evidence_by_loop(evidence, jt0, values):
    """The dual counts of local_extremality_probe, read off one-at-a-time
    values (nan where j_tilde_star raised) by the probe's former loop."""
    d_min = d_max = excluded = 0
    for val in values:
        if np.isnan(val):
            excluded += 1
            continue
        d_min += val < jt0 - PROBE_TOL
        d_max += val > jt0 + PROBE_TOL
    return dataclasses.replace(
        evidence, dual_min_violations=d_min, dual_max_violations=d_max,
        dual_excluded=excluded)


def _probe_samples(P, pairs, n_samples, seed):
    """The dual-ball samples of local_extremality_probes(P, pairs,
    n_samples, seed, ...) and their tangent starts, as two stacks."""
    vs, starts = [], []
    bundle, errors = _bundle_stack(P, pairs)
    assert errors == [None] * len(pairs)
    case_ids = [case.case_id for case in _classify_stack(P, pairs, bundle)]
    evidence = local_extremality_probes(P, pairs, n_samples, seed, case_ids,
                                        bundle)
    for pair, probe in zip(pairs, evidence):
        v = linalg.ball_samples(np.random.default_rng([seed, 1]),
                                pair.v_hat, probe.r1, n_samples)
        vs.append(v)
        starts.append(pair.v0_hat + (v - pair.v_hat) @ implicit_sensitivity(
            P, pair, build_bundle(P, pair)).T)
    return np.concatenate(vs), np.concatenate(starts)


class TestJTildeStarStack:
    def test_probe_samples_match_one_at_a_time(self, p_tri, p_min):
        # acceptance-ensemble members 0 and 7 hold probe samples whose
        # first start fails: on member 0 every start fails for some, on
        # member 7 a later start rescues some
        members = list(iter_ensemble(8, 2024))
        seed, n_samples = 7, 1000
        pairs = checked = excluded = rescued = 0
        for P in (p_tri, p_min, members[0], members[7]):
            for pair in find_critical_pairs(P, 12, seed):
                if not (pair.converged and in_C_star(P, pair.v0_hat).inside):
                    continue
                try:
                    bundle = build_bundle(P, pair)
                except DualityError:
                    continue
                evidence = local_extremality_probe(P, pair, n_samples, seed,
                                                   bundle=bundle)
                # the probe's own dual-ball samples, each started on the
                # inner argmax's tangent, and solved again from vhat0
                # where that raises
                vs = linalg.ball_samples(np.random.default_rng([seed, 1]),
                                         pair.v_hat, evidence.r1, n_samples)
                starts = pair.v0_hat + (vs - pair.v_hat) \
                    @ implicit_sensitivity(P, pair, bundle).T
                ok, values = _assert_stack_matches(P, vs, starts)
                retry = np.flatnonzero(~ok)
                ok[retry], values[retry] = _assert_stack_matches(
                    P, vs[retry], pair.v0_hat)
                jt0 = j_star(P, pair.v_hat, pair.v0_hat)
                expected = _dual_evidence_by_loop(evidence, jt0, values)
                assert evidence == expected
                _, _, first_status = _inner_newton_stack(P, vs, starts)
                first_ok = first_status == SOLVED
                pairs += 1
                checked += int(np.sum(ok))
                excluded += int(np.sum(~ok))
                rescued += int(np.sum(ok & ~first_ok))
        assert pairs >= 10 and checked >= 9000
        assert excluded > 0 and rescued > 0

    def test_chunks_match_one_stack(self, monkeypatch):
        # the first acceptance-ensemble member whose 50-sample probe
        # samples hold a failing first start and a nan row: member 11
        # (n = 3, N = 1, 150 rows) under every OpenBLAS kernel tried,
        # though how many starts fail there depends on the kernel.
        # Solved 7 rows per chunk, every row keeps the one-chunk bits.
        for P in iter_ensemble(200, 2024):
            pairs = [pair for pair in find_critical_pairs(P, 12, 7)
                     if pair.converged and in_C_star(P, pair.v0_hat).inside]
            if not pairs:
                continue
            vs, starts = _probe_samples(P, pairs, 50, 7)
            values, argmaxes = j_tilde_star(P, vs, init=starts)
            _, _, first_status = _inner_newton_stack(P, vs, starts)
            if (first_status != SOLVED).any() and np.isnan(values).any():
                break
        else:
            pytest.fail("no member has a failing start and a nan row")
        assert len(vs) > 7
        monkeypatch.setattr(conjugates, "STACK_ENTRIES", 7 * P.n * P.n)
        chunked_values, chunked_argmaxes = j_tilde_star(P, vs, init=starts)
        assert np.array_equal(chunked_values, values, equal_nan=True)
        assert np.array_equal(chunked_argmaxes, argmaxes, equal_nan=True)

    def test_bracket_chunks_match_one_stack(self, monkeypatch):
        """The Jt* bracket of acceptance-ensemble member 11's 50-sample
        probe samples (n = 3, N = 1; 150 rows, 53 of them nan), taken 7
        rows per chunk, keeps the one-stack bits.  Bit for bit under the
        SkylakeX OpenBLAS kernel (an AVX-512 CPU's default), and under
        Haswell and Sandybridge; under Prescott some rows differ."""
        P = list(iter_ensemble(12, 2024))[11]
        pairs = [pair for pair in find_critical_pairs(P, 12, 7)
                 if pair.converged and in_C_star(P, pair.v0_hat).inside]
        vs, starts = _probe_samples(P, pairs, 50, 7)
        lower, upper = _j_tilde_star_bracket(P, vs, starts)
        assert np.isnan(lower).any() and not np.isnan(lower).all()
        monkeypatch.setattr(conjugates, "STACK_ENTRIES", 7 * P.n * P.n)
        chunked_lower, chunked_upper = _j_tilde_star_bracket(P, vs, starts)
        assert np.array_equal(chunked_lower, lower, equal_nan=True)
        assert np.array_equal(chunked_upper, upper, equal_nan=True)

    def test_bracket_holds_the_solve(self):
        # the 1000-sample probe samples of acceptance-ensemble members 0,
        # 7, 11 and 47, whose tangent starts include failing ones (outside
        # C* on members 0, 7 and 47): Jt* solved from those starts lies in
        # the bracket wherever the bracket is finite, and the bracket is
        # nan wherever the start fails the C* margin test
        members = list(iter_ensemble(48, 2024))
        finite = outside = 0
        for P in (members[0], members[7], members[11], members[47]):
            pairs = [pair for pair in find_critical_pairs(P, 12, 7)
                     if pair.converged and in_C_star(P, pair.v0_hat).inside]
            vs, starts = _probe_samples(P, pairs, 1000, 7)
            lower, upper = _j_tilde_star_bracket(P, vs, starts)
            values, _ = j_tilde_star(P, vs, init=starts)
            margin, eps = linalg.pd_margin(P.mixed_matrix(starts))
            assert np.all(np.isnan(lower[margin <= eps]))
            ok = ~np.isnan(lower)
            assert np.array_equal(ok, ~np.isnan(upper))
            tol = 1e-12 * (1.0 + np.abs(values[ok]))
            assert np.all(lower[ok] <= values[ok] + tol)
            assert np.all(values[ok] <= upper[ok] + tol)
            finite += int(np.sum(ok))
            outside += int(np.sum(margin <= eps))
        assert finite >= 8000 and outside > 0

    def test_failures_stay_in_their_rows(self, p_tri):
        # C* = {v0 < 1}; at v* = 0 stationarity wants v0 = 4, outside C*,
        # so that row fails its first start and every fallback start
        P = validate_instance([0.0], [[-1.0]], [4.0], [1.0], [0.0], 1.0)
        v_stars = np.array([[0.0], [3.0], [-3.0], [0.5], [1.0], [-1.5], [6.0]])
        for init in ([0.5], [2.0]):
            # init 2.0 is outside C*: every first start fails there and
            # only j_tilde_star's fallback starts can solve a row
            ok, _ = _assert_stack_matches(P, v_stars, init)
            assert not ok[0] and ok[1:].all()

        # per-row starts, inside and outside C* = {v0 > -1}, against the
        # single-point Newton row by row
        v_stars = np.array([[2.0], [0.3], [-1.0], [2.0], [0.0], [-2.5]])
        starts = np.array([[1.0], [-2.0], [0.5], [-1.0], [3.0], [-1.5]])
        v0, _, status = _inner_newton_stack(p_tri, v_stars, starts)
        for v, start, got, row_status in zip(v_stars, starts, v0, status):
            try:
                want = inner_newton_point(p_tri, v, start)
            except NoConvergenceError as exc:
                assert _FAILURES[row_status] is type(exc)
                continue
            assert row_status == SOLVED
            assert got == pytest.approx(want, rel=1e-12, abs=1e-12)
        assert (status == SOLVED).any() and not (status == SOLVED).all()

        with pytest.raises(DimensionMismatchError):
            j_tilde_star(p_tri, [[0.5, 1.0]], [0.0])
        with pytest.raises(DimensionMismatchError):
            j_tilde_star(p_tri, [0.5, 1.0], [0.0])

    @staticmethod
    def _mixed_outcomes(p_tri, p_min):
        """(P, stack, init) cases whose rows solve or fail with each of
        LeftCstarError and OutsideCstarError."""
        # C* = {v0 < 1}; at v* = 0 stationarity wants v0 = 4, outside C*
        left = validate_instance([0.0], [[-1.0]], [4.0], [1.0], [0.0], 1.0)
        # at v* = 0 the stationary v0 = 1 - 1e-11 has M(v0) = 1e-11:
        # Cholesky passes, the eigvalsh margin of j_star does not.  From
        # init 2.0, outside C*, only fallback starts reach that point.
        edge = validate_instance([0.0], [[-1.0]], [1.0], [1.0 - 1e-11],
                                 [0.0], 1.0)
        one_d = np.array([[0.0], [3.0], [-1.5], [6.0]])
        cases = [(left, one_d, [0.5]), (left, one_d, None),
                 (edge, one_d, [0.5]), (edge, one_d, [2.0]),
                 (p_tri, one_d, None), (p_min, one_d, [1.0])]
        # acceptance-ensemble member 0: 3 of its first 200 probe samples
        # around this pair fail every start
        P = next(iter_ensemble(1, 2024))
        pair = next(p for p in find_critical_pairs(P, 12, 7)
                    if p.converged and in_C_star(P, p.v0_hat).inside)
        r1 = local_extremality_probe(P, pair, 1, 7).r1
        vs = linalg.ball_samples(np.random.default_rng([7, 1]), pair.v_hat,
                                 r1, 1000)[:200]
        cases.append((P, vs, pair.v0_hat))
        return cases

    def test_single_point_is_row_zero_of_one_row_stack(self, p_tri, p_min):
        solved = 0
        for P, v_stars, init in self._mixed_outcomes(p_tri, p_min):
            for v in v_stars:
                values, argmaxes = j_tilde_star(P, v[None], init=init)
                try:
                    value, argmax = j_tilde_star(P, v, init=init)
                except DualityError:
                    assert np.isnan(values[0])
                    continue
                assert type(value) is float
                assert value == values[0]
                np.testing.assert_array_equal(argmax, argmaxes[0])
                solved += 1
        assert solved >= 200

    def test_row_starts_are_one_row_calls(self, p_tri, p_min):
        # an (S, N) init starts row s at init[s]: each row is its one-row
        # call from that start, bit for bit, nan rows included
        rng = np.random.default_rng(16)
        solved = failed = 0
        for P, v_stars, init in self._mixed_outcomes(p_tri, p_min):
            S = len(v_stars)
            base = default_inner_init(P, v_stars) if init is None \
                else np.tile(P.require_v0(init), (S, 1))
            starts = base + 0.1 * (1.0 + np.abs(base)) \
                * rng.standard_normal(base.shape)
            values, argmaxes = j_tilde_star(P, v_stars, init=starts)
            for s in range(S):
                value, argmax = j_tilde_star(P, v_stars[s:s + 1],
                                             init=starts[s])
                assert value.tobytes() == values[s:s + 1].tobytes()
                assert argmax.tobytes() == argmaxes[s:s + 1].tobytes()
                solved += int(~np.isnan(value[0]))
                failed += int(np.isnan(value[0]))
            # the default starts, passed as a stack, are the default
            for got, want in zip(j_tilde_star(P, v_stars, init=base),
                                 j_tilde_star(P, v_stars, init=init)):
                assert got.tobytes() == want.tobytes()
            for bad in (np.zeros((S + 1, P.N)), np.zeros((S, P.N + 1)),
                        starts[None]):
                with pytest.raises(DimensionMismatchError):
                    j_tilde_star(P, v_stars, init=bad)
        assert solved >= 200 and failed > 0

    def test_stack_row_nan_exactly_where_point_raises(self, p_tri, p_min,
                                                      monkeypatch):
        raised = set()
        cases = self._mixed_outcomes(p_tri, p_min)
        for P, v_stars, init in cases:
            values, argmaxes = j_tilde_star(P, v_stars, init=init)
            _, _, loop_raised = _one_at_a_time(P, v_stars, init)
            for s, v in enumerate(v_stars):
                try:
                    j_tilde_star(P, v, init=init)
                except DualityError as exc:
                    # the class the one-at-a-time loop raises for the row
                    assert type(exc) is loop_raised[s]
                    assert np.isnan(values[s]) and np.isnan(argmaxes[s]).all()
                    raised.add(type(exc))
                    continue
                assert loop_raised[s] is None
                assert not np.isnan(values[s])
        assert raised == {LeftCstarError, OutsideCstarError}

        # with a 2-iteration budget most rows run out of iterations
        monkeypatch.setattr(linalg, "NEWTON_MAX_ITER", 2)
        P, v_stars, init = cases[-1]
        values, _ = j_tilde_star(P, v_stars[:20], init=init)
        for value, v in zip(values, v_stars[:20]):
            if np.isnan(value):
                with pytest.raises(NoConvergenceError):
                    j_tilde_star(P, v, init=init)
                with pytest.raises(NoConvergenceError):
                    j_tilde_star_loop(P, v, init=init)
        assert np.isnan(values).sum() >= 10

    def test_default_start_rows_at_n2_N1(self):
        # at n = 2, N = 1 (members 19, 20 and 32 of the acceptance
        # ensemble) a stack's default starts are the point's, so each row
        # solves to the point's value
        members = [P for P in iter_ensemble(33, 2024)
                   if P.n == 2 and P.N == 1]
        assert len(members) == 3
        for P in members:
            pair = next(p for p in find_critical_pairs(P, 12, 7)
                        if p.converged and p.c_star.inside)
            vs = linalg.ball_samples(np.random.default_rng([7, 1]),
                                     pair.v_hat, 0.1, 64)
            values, _ = j_tilde_star(P, vs)
            for v, value in zip(vs, values):
                assert value == j_tilde_star(P, v)[0]

    def test_value_check_per_row(self):
        # _mixed_outcomes' edge instance, M(v0) = 1 - v0: row 1 converges
        # to v0 = 1 - 1e-11, where Cholesky succeeds but the eigvalsh
        # margin check of j_star fails
        edge = validate_instance([0.0], [[-1.0]], [1.0], [1.0 - 1e-11],
                                 [0.0], 1.0)
        v_stars = np.array([[0.5], [0.0], [-1.0]])
        starts = np.array([[0.0], [1.0 - 1e-11], [0.0]])
        v0, values, status = _inner_newton_stack(edge, v_stars, starts)
        assert list(status) == [SOLVED, OUTSIDE_C_STAR, SOLVED]
        with pytest.raises(OutsideCstarError):
            j_star(edge, v_stars[1], v0[1])
        assert np.isnan(values[1])
        for s in (0, 2):
            assert values[s] == pytest.approx(j_star(edge, v_stars[s], v0[s]),
                                              rel=1e-12, abs=1e-12)

    def test_last_budgeted_step_is_tested(self, p_tri, monkeypatch):
        # both damped-Newton loops test the iterate of their last step: at
        # v* = 0.5 from v0 = 0 the inner sup needs exactly 3 steps, and
        # so does the primal solve from x = 0.3
        monkeypatch.setattr(linalg, "NEWTON_MAX_ITER", 3)
        _, values, status = _inner_newton_stack(p_tri, np.array([[0.5]]),
                                                np.array([[0.0]]))
        assert status[0] == SOLVED and not np.isnan(values[0])
        result = critical._solve_stack(p_tri, np.array([[0.3]]))[0]
        assert result.converged and result.iterations == 3

    def test_step_that_rounds_to_the_iterate_leaves_c_star(self, p_tri,
                                                           monkeypatch):
        # E = 1e300 I where x_bar > 0, on the rows with v* > 0: their step
        # rounds to the iterate at every halving, so they end LEFT_C_STAR
        # at their starts, bit for bit, with nan values, and the other
        # rows solve as they do unpatched
        v_stars = np.array([[-2.0], [1.0], [-0.5], [2.0]])
        starts = np.array([[0.3], [0.7], [-0.2], [1.5]])
        stalled = v_stars[:, 0] > 0
        expected = _inner_newton_stack(p_tri, v_stars, starts)
        assert (expected[2] == SOLVED).all()
        inner_matrix = conjugates._inner_matrix

        def huge_where_positive(P, x_bar, L):
            E = inner_matrix(P, x_bar, L)
            return np.where((x_bar <= 0.0).all(axis=1)[:, None, None], E,
                            1e300 * np.eye(P.N))

        monkeypatch.setattr(conjugates, "_inner_matrix", huge_where_positive)
        v0, values, status = _inner_newton_stack(p_tri, v_stars, starts)
        assert (status[stalled] == LEFT_C_STAR).all()
        assert v0[stalled].tobytes() == starts[stalled].tobytes()
        assert np.isnan(values[stalled]).all()
        for got, want in zip((v0, values, status), expected):
            assert got[~stalled].tobytes() == want[~stalled].tobytes()

    def test_overflowing_pivot_fails_without_a_warning(self):
        # the pivot's dot overflows to inf: the pivot fails its test, and
        # no RuntimeWarning is printed, here or where an inner Newton trial
        # step meets such a matrix in a report at n = 20
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            _, ok = linalg.cho_factor([[1.0, 1e200], [1e200, 1.0]])
            assert not ok
            analyze_instance(generate_instance(20, 1, [9, 20, 2]), 12, 7, 200)

    def test_stacked_cholesky_kernels(self):
        rng = np.random.default_rng(16)
        G = rng.standard_normal((6, 3, 3))
        Ms = G @ np.swapaxes(G, 1, 2) + 0.1 * np.eye(3)
        Ms[1] = [[1.0, 0.0, 0.0], [0.0, 1.0, 1.0], [0.0, 1.0, 1.0]]  # singular
        Ms[3] = np.diag([1.0, -1e-3, 2.0])                           # indefinite
        L, ok = linalg.cho_factor(Ms)
        assert list(ok) == [_cholesky_succeeds(M) for M in Ms]
        assert list(ok) == [True, False, True, False, True, True]
        np.testing.assert_allclose(L[ok], np.linalg.cholesky(Ms[ok]),
                                   rtol=1e-12, atol=1e-12)
        # one matrix is row 0 of its one-row stack, bit for bit
        for M in Ms:
            alone, alone_ok = linalg.cho_factor(M)
            row, row_ok = linalg.cho_factor(M[None])
            assert alone.shape == (3, 3) and alone_ok.shape == ()
            assert alone.tobytes() == row[0].tobytes()
            assert bool(alone_ok) == bool(row_ok[0])
        b = rng.standard_normal((4, 3))
        np.testing.assert_allclose(linalg.cho_solve(L[ok], b),
                                   np.linalg.solve(Ms[ok], b[:, :, None])[:, :, 0],
                                   rtol=1e-10, atol=1e-12)
        # one factor, a vector and an (n, m) right-hand side
        B = rng.standard_normal((3, 5))
        for rhs in (B[:, 0], B):
            np.testing.assert_allclose(linalg.cho_solve(L[0], rhs),
                                       np.linalg.solve(Ms[0], rhs),
                                       rtol=1e-10, atol=1e-12)
        margin, eps = linalg.pd_margin(Ms)
        assert list(zip(margin, eps)) == [linalg.pd_margin(M) for M in Ms]
        # both ends of the spectrum from one eigvalsh, on Ms and -Ms so
        # that each end decides definiteness somewhere
        for M in np.concatenate([Ms, -Ms]):
            w, eps = linalg.spectrum(M)
            lo, hi = w[0], w[-1]
            assert (lo, eps) == linalg.pd_margin(M)
            n_pos, n_neg, _ = linalg.inertia(w, eps)
            assert (lo > eps) == (n_pos == 3)
            assert (hi < -eps) == (n_neg == 3)


def _cholesky_succeeds(M):
    try:
        np.linalg.cholesky(M)
    except np.linalg.LinAlgError:
        return False
    return True


def _global_min_case2_pair():
    P = load_instance(SAMPLES / "global_min.json")
    pair, = [p for p in find_critical_pairs(P, 32, 7)
             if classify_case(P, p, build_bundle(P, p)).case_id == "case2"]
    return P, pair


class TestJ2Star:
    def test_interior(self, p_min, barrier_calls):
        # the stationary point v0 = 1 is strictly inside A* = {v0 > -1}:
        # no barrier continuation
        res = j2_star(p_min, [0.0])
        assert res.value == pytest.approx(0.5, abs=1e-10)
        assert not res.boundary_attained
        assert res.v0_star == pytest.approx([1.0], abs=1e-8)
        assert barrier_calls == []

    def test_boundary_attained(self, p_tri, sqrt2, barrier_calls):
        # A* = {v0 > 1}; the stationary point v0 = 1 lies within
        # BOUNDARY_MARGIN of A*'s boundary, so it is J2*'s answer: no
        # phase 1 and no barrier stage
        res = j2_star(p_tri, [2 * sqrt2])
        assert res.boundary_attained
        assert res.value == pytest.approx(-0.5, abs=1e-6)
        assert res.v0_star == pytest.approx([1.0], abs=1e-3)
        assert barrier_calls == []

    def test_stationary_point_beyond_a_star(self, p_tri, barrier_calls,
                                            monkeypatch):
        # A* = {v0 > 1}; at v* = 2 the lift start v0 = 0.5 and Jt*'s
        # stationary point v0 ~ 0.6956 (margin ~ -0.304) both lie beyond
        # A*, so phase 1 and every barrier stage run, and the one
        # stationary point is not searched for again from the end point
        calls, chunk = [], conjugates._j_tilde_star_chunk
        monkeypatch.setattr(conjugates, "_j_tilde_star_chunk",
                            lambda *args: calls.append(args) or chunk(*args))
        res = j2_star(p_tri, [2.0])
        assert barrier_calls == ["_feasible_a_star_point",
                                 *conjugates.BARRIER_WEIGHTS]
        assert len(calls) == 1
        assert res.value == pytest.approx(-0.500000999997, abs=1e-12)
        assert res.v0_star == pytest.approx([1.000002], abs=1e-9)
        assert res.boundary_attained
        assert res.a_star_margin == pytest.approx(2.0e-6, rel=1e-4)

    def test_empty_a_star_raises(self, barrier_calls):
        # S(v) = diag(v - 1, -v - 1) is never positive definite, so phase 1
        # finds no A* start and no barrier stage runs
        P = validate_instance(-np.eye(2), np.diag([1.0, -1.0]), [1.0], [0.0],
                              [0.3, -0.2], 1.0)
        with pytest.raises(AStarEmptyError):
            j2_star(P, [1.0, 1.0])
        assert barrier_calls == ["_feasible_a_star_point"]

    def test_flat_margin_raises(self, barrier_calls, monkeypatch):
        # S(v) = diag(-1, 1 + v): B vanishes on A's negative eigenvector
        # e1, so lmin(S) = -1 for every v and its subgradient e1'B e1 is
        # 0; phase 1 stops at its first margin, before any line search
        P = validate_instance(np.diag([-1.0, 1.0]), np.diag([0.0, 1.0]),
                              [1.0], [0.0], [0.3, 0.2], 2.0)
        calls, eigh = [], np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh",
                            lambda M: calls.append(M) or eigh(M))
        with pytest.raises(AStarEmptyError, match="best margin -1.000e"):
            j2_star(P, [1.0, 1.0])
        assert barrier_calls == ["_feasible_a_star_point"]
        assert len(calls) == 1

    def test_sup_dominates_members(self, p_min):
        res = j2_star(p_min, [1.0])
        assert res.value >= j_star(p_min, [1.0], [1.0]) - 1e-9

    def test_factors_m_once(self, monkeypatch):
        # the value is formed on the Cholesky factor of M that the inner
        # Newton solve holds at its answer; M is not factored again
        P, pair = _global_min_case2_pair()
        calls, cho_factor = [], linalg.cho_factor
        monkeypatch.setattr(linalg, "cho_factor",
                            lambda M: calls.append(M) or cho_factor(M))
        res = j2_star(P, pair.v_hat, init=pair.v0_hat)
        assert len(calls) == 1
        assert res.value == j_star(P, pair.v_hat, res.v0_star)

    def test_fallback_starts_skip_the_barrier(self, barrier_calls):
        # global_min.json: C* = {v0 > -2}, A* = {v0 > -1}, and at its
        # case-2 pair (v-hat = 0) Jt*'s argmax is v0 = 1.  The first
        # Newton start, init = -3, lies outside C*; Jt*'s fallback starts
        # reach the argmax, strictly inside A*, with no phase 1 or
        # barrier stage
        P, pair = _global_min_case2_pair()
        res = j2_star(P, pair.v_hat, init=[-3.0])
        assert barrier_calls == []
        assert res.value == pair.J_star
        assert not res.boundary_attained

    @pytest.mark.xfail(strict=True, raises=AStarEmptyError, reason=(
        "phase 1's subgradient ascent stalls at best margin -2.096e-01 "
        "from the default init, though A* is not empty (ROADMAP item 5)"))
    def test_phase1_reaches_a_nonempty_a_star(self):
        # acceptance-ensemble member 104 (n = N = 3) at a default-init
        # census point: from v0, whose B* margin is 0.137, J2* is found
        # on A*'s boundary, so the default init's raise is false
        P = generate_instance(3, 3, [2024, 105])
        v_star = [-1.5286425181416172, 8.25440185318029, -3.0752955013517327]
        v0 = [0.27345687388780837, 0.28313075133048465, 0.14846980847218624]
        assert in_B_star(P, v0).margin == pytest.approx(0.137, abs=1e-3)
        res = j2_star(P, v_star, init=v0)
        assert res.value == pytest.approx(5.708464394606382, rel=1e-12)
        assert res.boundary_attained
        res = j2_star(P, v_star)
        assert res.value == pytest.approx(5.708464394606382, rel=1e-9)
        assert res.boundary_attained


class TestFenchelYoung:
    def test_g1(self):
        rng = np.random.default_rng(11)
        for i in range(20):
            n = int(rng.integers(1, 4))
            P = generate_instance(n, 1, [888, i])
            x = rng.normal(size=n)
            v = rng.normal(size=n)
            lhs = g1_value(P, x) + g1_star(P, v)
            assert lhs >= float(v @ x) - 1e-9
            # equality at the maximizing x
            x_opt = np.linalg.solve(P.K_minus_A, v + P.f)
            eq = g1_value(P, x_opt) + g1_star(P, v) - float(v @ x_opt)
            assert abs(eq) <= 1e-9 * (1.0 + abs(g1_star(P, v)))

    def test_g2(self):
        rng = np.random.default_rng(12)
        count = 0
        for i in range(30):
            n = int(rng.integers(1, 4))
            N = int(rng.integers(1, 3))
            P = generate_instance(n, N, [889, i])
            v0 = rng.normal(scale=0.3, size=N)
            if not in_C_star(P, v0).inside:
                continue
            x = rng.normal(size=n)
            v = rng.normal(size=N)
            vs = rng.normal(size=n)
            lhs = g2_value(P, x, v) + g2_star(P, vs, v0)
            assert lhs >= float(vs @ x + v0 @ v) - 1e-9
            count += 1
        assert count >= 10


class TestConcavityConvexity:
    def test_j_star_concave_in_v0(self):
        rng = np.random.default_rng(13)
        tested = 0
        for i in range(30):
            n = int(rng.integers(1, 4))
            N = int(rng.integers(1, 3))
            P = generate_instance(n, N, [890, i])
            vs = rng.normal(size=n)
            a = rng.normal(scale=0.3, size=N)
            b = rng.normal(scale=0.3, size=N)
            mid = 0.5 * (a + b)
            if not (in_C_star(P, a).inside and in_C_star(P, b).inside
                    and in_C_star(P, mid).inside):
                continue
            m = j_star(P, vs, mid)
            avg = 0.5 * (j_star(P, vs, a) + j_star(P, vs, b))
            assert m >= avg - 1e-9 * (1.0 + abs(avg))
            tested += 1
        assert tested >= 10

    def test_h1_minus_h2_pd_on_a_star(self):
        # on A*, (K-A)^{-1} - M(v0)^{-1} is positive definite
        rng = np.random.default_rng(14)
        tested = 0
        for i in range(40):
            n = int(rng.integers(1, 4))
            N = int(rng.integers(1, 3))
            P = generate_instance(n, N, [891, i])
            v0 = rng.normal(scale=0.4, size=N)
            if not in_A_star(P, v0).inside:
                continue
            H1 = np.linalg.inv(P.K_minus_A)
            H2 = np.linalg.inv(P.mixed_matrix(v0))
            w = np.linalg.eigvalsh(0.5 * (H1 - H2 + (H1 - H2).T))
            assert w[0] > 0.0
            tested += 1
        assert tested >= 8

    def test_j2_midpoint_convexity_in_vstar(self, p_min):
        rng = np.random.default_rng(15)
        for _ in range(20):
            u = rng.normal(scale=1.0, size=1)
            w = rng.normal(scale=1.0, size=1)
            ju = j2_star(p_min, u, init=[1.0]).value
            jw = j2_star(p_min, w, init=[1.0]).value
            jm = j2_star(p_min, 0.5 * (u + w), init=[1.0]).value
            tol = 5e-5 * (1.0 + max(abs(ju), abs(jw), abs(jm)))
            assert jm <= 0.5 * (ju + jw) + tol
