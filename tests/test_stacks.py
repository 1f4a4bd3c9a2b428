"""A report runs each per-pair stage once, on the stack of its pairs.
Every stacked row must be its one-row call bit for bit: row k of the
stacked bundle, the case, the chain residual, |alpha1|, the baseline
(j1_star and the correspondence) and the probe balls.  A failing row
gets the error, and the message, that its one-row call raises, and the
other rows do not change."""

import dataclasses
import itertools
from pathlib import Path

import numpy as np
import pytest

from dcquartic import (
    ProblemInstance,
    curvature,
    find_critical_pairs,
    generate_instance,
    iter_ensemble,
    lift_to_dual,
    linalg,
    load_instance,
    validate_instance,
)
from dcquartic.baseline import (
    _correspondence_stack,
    _j1_star_stack,
    correspondence_report,
    j1_star,
)
from dcquartic.conjugates import Membership
from dcquartic.curvature import (
    CurvatureBundle,
    _bundle_stack,
    _chain_stack,
    build_bundle,
    verify_chain_identity,
)
from dcquartic.errors import (
    DegenerateCriticalPointError,
    DualityError,
    NotConvergedPairError,
    OutsideCstarError,
    SingularMatrixError,
)
from dcquartic.gap import _classify_stack, classify_case, verify_zero_gap
from dcquartic.report import analyze_instance
from oracles import generate_instance_per_matrix

SAMPLES = Path(__file__).resolve().parent.parent / "sample_instances"


def _same(a, b):
    """Bitwise equality of two values: arrays, numbers, strings, tuples,
    dataclasses, or DualityErrors (same class and message)."""
    if isinstance(a, DualityError) or isinstance(b, DualityError):
        return type(a) is type(b) and str(a) == str(b)
    if dataclasses.is_dataclass(a):
        return type(a) is type(b) and all(
            _same(getattr(a, f.name), getattr(b, f.name))
            for f in dataclasses.fields(a))
    if isinstance(a, tuple):
        return isinstance(b, tuple) and len(a) == len(b) \
            and all(_same(x, y) for x, y in zip(a, b))
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype \
        and a.tobytes() == b.tobytes()


def _alone(call, *args):
    """A one-row call's result, or the DualityError it raises."""
    try:
        return call(*args)
    except DualityError as exc:
        return exc


def _row(bundle, k):
    """Row k of a stacked bundle, field by field (H1 is every row's)."""
    return CurvatureBundle(**{
        f.name: getattr(bundle, f.name) if f.name == "H1"
        else getattr(bundle, f.name)[k] for f in dataclasses.fields(bundle)})


def _check_rows(P, pairs):
    """Assert that every stacked stage at ``pairs`` gives each row its
    one-row result; returns, per pair, its row of the stacked bundle or
    its error, and the baseline rows."""
    bundle, errors = _bundle_stack(P, pairs)
    formed = [k for k, error in enumerate(errors) if error is None]
    assert all(len(getattr(bundle, f.name)) == len(formed)
               for f in dataclasses.fields(bundle) if f.name != "H1")
    bundles = list(errors)
    for j, k in enumerate(formed):
        bundles[k] = _row(bundle, j)
    for pair, row in zip(pairs, bundles):
        assert _same(row, _alone(build_bundle, P, pair))
    # a stack where no bundle forms has zero rows, and so has each stage
    held_pairs = [pairs[k] for k in formed]
    held = [bundles[k] for k in formed]
    cases = _classify_stack(P, held_pairs, bundle)
    assert len(cases) == len(formed)
    for case, pair, one in zip(cases, held_pairs, held):
        assert _same(case, classify_case(P, pair, one))
    assert _same(_chain_stack(bundle), np.array(
        [verify_chain_identity(P, pair, one)
         for pair, one in zip(held_pairs, held)]))
    assert _same(linalg.frobenius_norm(bundle.alpha1), np.array(
        [np.linalg.norm(one.alpha1, "fro") for one in held]))

    V0 = np.reshape([pair.v0_hat for pair in pairs], (-1, P.N))
    values, gradients, hessians, errors = _j1_star_stack(P, V0)
    ok = [k for k, error in enumerate(errors) if error is None]
    for k, pair in enumerate(pairs):
        alone = _alone(j1_star, P, pair.v0_hat)
        if errors[k] is not None:
            assert _same(errors[k], alone)
        else:
            row = ok.index(k)
            assert _same((values[row], gradients[row], hessians[row]), alone)

    baselines = _correspondence_stack(P, pairs)
    for pair, row in zip(pairs, baselines):
        assert _same(row, _alone(correspondence_report, P, pair))
    return bundles, baselines


class TestStackRows:
    def test_ensemble_pairs(self):
        # every critical pair of members 0-24, each member's pairs as one
        # stack; 19 of the 72 rows fail (outside C*, no bundle, but a
        # baseline)
        rows = failures = 0
        for P in iter_ensemble(25, 2024):
            pairs = find_critical_pairs(P, 12, 7)
            bundles, baselines = _check_rows(P, pairs)
            rows += len(pairs)
            failures += sum(isinstance(r, DualityError)
                            for r in bundles + baselines)
        assert rows == 72 and failures == 19

    def test_one_row_stacks(self, p_tri, sqrt2):
        # x0 = 1 is not critical: a stack with no bundle row
        for x in ([-sqrt2], [0.0], [sqrt2], [1.0]):
            _check_rows(p_tri, [lift_to_dual(p_tri, x)])

    def test_not_converged_singular_and_mismatch_rows(self, p_tri, sqrt2):
        # x0 = 1 is not critical; S(vhat0) = 0 at +-sqrt(2); at x0 = 0,
        # with B* membership forced, d2J = -1 and the baseline Hessian
        # [1] disagree where n = N = 1 makes agreement a theorem
        zero = lift_to_dual(p_tri, [0.0])
        forced = dataclasses.replace(zero, b_star=Membership(True, 1.0, 0.0))
        pairs = [lift_to_dual(p_tri, [-sqrt2]), zero,
                 lift_to_dual(p_tri, [1.0]), forced,
                 lift_to_dual(p_tri, [sqrt2])]
        bundles, baselines = _check_rows(p_tri, pairs)
        assert [type(b) for b in bundles] == [
            CurvatureBundle, CurvatureBundle, NotConvergedPairError,
            CurvatureBundle, CurvatureBundle]
        assert [type(b).__name__ for b in baselines] == [
            "SingularMatrixError", "BaselineReport", "BaselineReport",
            "DualityError", "SingularMatrixError"]
        assert "matching definiteness" in str(baselines[3])
        assert isinstance(baselines[0], SingularMatrixError)
        # no row of j1_star's stack is invertible
        _, baselines = _check_rows(p_tri, [pairs[0], pairs[4]])
        assert [type(b) for b in baselines] == [SingularMatrixError] * 2

    def test_outside_c_star_row(self, sqrt2):
        # c = -2 puts x0 = 0's multiplier past the C* boundary, while
        # the minima at +-sqrt(2) stay inside
        P = validate_instance([1.0], [[1.0]], [1.0], [-2.0], [0.0], 1.5)
        pairs = [lift_to_dual(P, [x]) for x in (-sqrt2, 0.0, sqrt2)]
        bundles, _ = _check_rows(P, pairs)
        assert [type(b) for b in bundles] == [
            CurvatureBundle, OutsideCstarError, CurvatureBundle]

    def test_degenerate_rows(self, monkeypatch):
        # E = diag(1/gamma) at x0 = 0 with gamma = (1e16, 1)
        P = validate_instance([1.0], [[1.0], [1.0]], [1e16, 1.0],
                              [0.0, 0.0], [0.0], 2.0)
        pairs = [lift_to_dual(P, [x]) for x in (0.0, 0.5)]
        bundles, _ = _check_rows(P, pairs)
        assert [type(b) for b in bundles] == [
            DegenerateCriticalPointError, NotConvergedPairError]
        assert _bundle_stack(P, pairs)[0].E.shape == (0, 2, 2)
        # a condition limit between the conditions of E at a member's
        # pairs makes its worst-conditioned pair degenerate among formed
        # rows
        P = next(iter(iter_ensemble(1, 2024)))
        pairs = find_critical_pairs(P, 12, 7)
        w = np.abs(np.linalg.eigvalsh(_bundle_stack(P, pairs)[0].E))
        conds = (w.max(-1) / w.min(-1)).tolist()
        top, second = sorted(conds)[-2:]
        monkeypatch.setattr(curvature, "E_COND_LIMIT", (top + second) / 2)
        bundles, _ = _check_rows(P, pairs)
        assert sum(isinstance(b, DegenerateCriticalPointError)
                   for b in bundles) == 1
        assert sum(isinstance(b, CurvatureBundle) for b in bundles) \
            == len(conds) - 1


@pytest.mark.parametrize("name", ["global_min.json", "trifecta.json"])
def test_report_rows_are_the_one_row_calls(name):
    # a 1-pair and a 3-pair report: each record holds its point's Newton
    # iteration count and its pair's one-row bundle, case, chain
    # residual, |alpha1| and baseline
    P = load_instance(SAMPLES / name)
    records, ms = analyze_instance(P, 32, 7, 0)
    assert len(records) == {"global_min.json": 1, "trifecta.json": 3}[name]
    for record, x0, its in zip(records, ms.points, ms.iterations):
        assert record["newton_iterations"] == its
        pair = lift_to_dual(P, x0)
        bundle = build_bundle(P, pair)
        case = classify_case(P, pair, bundle)
        assert record["case"] == case.case_id
        assert _same(record["gap"], verify_zero_gap(P, pair))
        assert _same(record["chain_residual"],
                     verify_chain_identity(P, pair, bundle))
        assert _same(record["alpha1_norm"],
                     float(np.linalg.norm(bundle.alpha1, "fro")))
        assert _same(record["dual_hessian_asymmetry"],
                     bundle.dual_hessian_asymmetry)
        c, b = pair.c_star, pair.b_star
        assert record["membership"] == {
            "c_star": c.inside, "c_star_margin": c.margin,
            "b_star": b.inside, "b_star_margin": b.margin,
            "a_star": b.inside, "a_star_margin": b.margin,
            "primal_hessian_margin": pair.d2j_spectrum[0][0],
            "shifted_hessian_margin": case.shifted_hessian_margin}
        _check_baseline(record, P, pair)


def _check_baseline(record, P, pair):
    """Assert that a report record holds the pair's one-row baseline."""
    base = _alone(correspondence_report, P, pair)
    if isinstance(base, DualityError):
        assert record["errors"]["baseline"] == str(base)
    else:
        assert _same(record["baseline"]["minus_j1_value"],
                     base.minus_j1_value)
        assert record["baseline"]["primal_inertia"] \
            == list(base.primal_hessian_inertia)
        assert record["baseline"]["baseline_inertia"] \
            == list(base.baseline_hessian_inertia)


def test_reports_with_no_bundle_row():
    # acceptance-ensemble member 14 has a point but no bundle row, and
    # member 24 has no point: the report runs every stage on zero rows
    members = itertools.islice(iter_ensemble(200, 2024), 14, 25, 10)
    for P, n_points in zip(members, (1, 0)):
        records, ms = analyze_instance(P, 12, 7, 50)
        assert len(records) == len(ms.points) == n_points
        for record, x0 in zip(records, ms.points):
            pair = lift_to_dual(P, x0)
            assert record["errors"]["bundle"] \
                == str(_alone(build_bundle, P, pair))
            assert record["case"] is record["chain_residual"] \
                is record["probe"] is None
            _check_baseline(record, P, pair)


@pytest.mark.parametrize("n", [1, 3])
def test_ball_stack_rows_are_the_one_center_balls(n):
    rng = np.random.default_rng(5)
    centers = rng.standard_normal((4, n))
    radii = rng.random(4) + 0.1
    stacked = linalg.ball_samples(np.random.default_rng([7, 1]), centers,
                                  radii, 200)
    assert stacked.shape == (4, 200, n)
    for center, radius, row in zip(centers, radii, stacked):
        alone = linalg.ball_samples(np.random.default_rng([7, 1]), center,
                                    radius, 200)
        assert _same(row, alone)
        assert np.all(np.linalg.norm(alone - center, axis=1)
                      <= radius * (1 + 1e-12))
    one = linalg.ball_samples(np.random.default_rng([7, 1]), centers[:1],
                              radii[:1], 200)
    assert _same(one[0], stacked[0])


@pytest.mark.parametrize("call", [
    linalg.symmetrize, linalg.spectrum, linalg.pd_margin, linalg.cho_factor,
    lambda M: linalg.cho_solve(M, M), lambda M: linalg.cho_solve(M, M[..., 0]),
    linalg.spectral_norm_sym, lambda M: linalg.inertia(*linalg.spectrum(M)),
    linalg.frobenius_norm,
    lambda M: linalg.ball_samples(np.random.default_rng(7), M[..., 0],
                                  np.zeros(0), 5),
], ids=["symmetrize", "spectrum", "pd_margin", "cho_factor", "cho_solve",
        "cho_solve_vector", "spectral_norm_sym", "inertia", "frobenius_norm",
        "ball_samples"])
def test_linalg_helpers_take_a_zero_row_stack(call):
    # order 1 takes the closed forms, order 3 the general path
    for shape in ((0, 1, 1), (0, 3, 3)):
        out = call(np.empty(shape))
        for value in out if isinstance(out, tuple) else (out,):
            assert value.shape[0] == 0


def _order_one_inputs():
    """(M, b): the special values, each M with each b, then a random
    stack of both with magnitudes from 1e-300 to 1e300 and either sign."""
    special = np.array([0.0, -0.0, 5e-324, -5e-324, 1e300, -1e300, 1e-300,
                        -1e-300, np.inf, -np.inf, np.nan, -1.0, 4.0])
    M, b = (a.ravel() for a in np.meshgrid(special, special))
    rng = np.random.default_rng(45)
    M, b = (np.concatenate([a, rng.choice([-1.0, 1.0], 10 ** 5)
                            * 10.0 ** rng.uniform(-300, 300, 10 ** 5)])
            for a in (M, b))
    return M[:, None, None], b[:, None]


def _diag_one(M):
    """diag(1, M) of each 1 x 1 matrix of a stack.  The general loops on
    it compute the n = 1 loop's pivot and sweeps in its last row: every
    product they add there has an exact zero factor and a finite one."""
    out = np.zeros(M.shape[:-2] + (2, 2))
    out[..., 0, 0], out[..., 1:, 1:] = 1.0, M
    return out


def test_order_one_closed_form_is_the_general_path():
    M, b = _order_one_inputs()
    with np.errstate(all="ignore"):
        S = linalg.symmetrize(M)
        w, eps = linalg.spectrum(M)
        ref = np.linalg.eigvalsh(S)
        assert _same(w, ref)
        assert _same(eps, linalg.EPS_PD_FACTOR * (1.0 + np.abs(ref)[:, 0]))
        assert _same(linalg.pd_margin(M), (ref[:, 0], eps))
        assert _same(linalg.spectral_norm_sym(M), np.abs(ref)[:, 0])
        L, ok = linalg.cho_factor(M)
        L2, ok2 = linalg.cho_factor(_diag_one(M))
        assert _same(L, L2[:, 1:, 1:]) and _same(ok, ok2)
        # any factor, the Cholesky ones among them, and a vector or a
        # matrix of right-hand sides
        for d in (L, M):
            assert _same(linalg.cho_solve(d, b), linalg.cho_solve(
                _diag_one(d), np.concatenate([np.zeros_like(b), b], -1))[:, 1:])
            B = np.stack([b, -b, 2.0 * b], -1)
            assert _same(linalg.cho_solve(d, B),
                         linalg.cho_solve(_diag_one(d), np.concatenate(
                             [np.zeros_like(B), B], -2))[:, 1:])
    one, ok_one = linalg.cho_factor(np.array([[4.0]]))
    assert one.shape == (1, 1) and ok_one.shape == () and ok_one


def test_symmetrize_halves_an_overflowing_sum_first():
    # a symmetric entry above half the largest double overflows M + M^T;
    # there it is halved before the sum, and its spectrum reads it
    assert linalg.spectrum([[1.7e308]])[0].tolist() == [1.7e308]
    big = np.array([[0.0, 1.7e308], [1.7e308, -1.0]])
    assert linalg.symmetrize(big).tolist() == big.tolist()
    assert linalg.spectrum([[0.0, 1.7e308], [1.7e308, 0.0]])[0].tolist() \
        == [-1.7e308, 1.7e308]
    # a stack with such a matrix among ordinary ones, of magnitudes from
    # subnormal to 1e300: the ordinary ones keep the bits of (M + M^T) / 2
    rng = np.random.default_rng(47)
    ordinary = rng.standard_normal((6, 3, 3)) \
        * 10.0 ** rng.uniform(-320, 300, (6, 3, 3))
    stack = np.concatenate([ordinary[:3], np.pad(big, (0, 1))[None],
                            ordinary[3:]])
    S = linalg.symmetrize(stack)
    assert S[3].tolist() == np.pad(big, (0, 1)).tolist()
    assert np.delete(S, 3, axis=0).tobytes() \
        == (0.5 * (ordinary + ordinary.mT)).tobytes()


def _same_instance(P, Q):
    for field in dataclasses.fields(ProblemInstance):
        a, b = getattr(P, field.name), getattr(Q, field.name)
        if isinstance(a, np.ndarray):
            assert a.shape == b.shape and a.tobytes() == b.tobytes(), \
                field.name
        else:
            assert a == b, field.name


def test_stacked_instance_is_the_per_matrix_draw():
    for n in range(1, 7):
        for N in range(1, 5):
            for seed in ([3, n, N], 11, 2024):
                _same_instance(generate_instance(n, N, seed),
                               generate_instance_per_matrix(n, N, seed))
    # the CLI sweep's largest n and N, and the other keywords
    options = dict(k_margin=0.25, f_scale=3.0, c_range=(-2.0, 0.5))
    _same_instance(generate_instance(16, 8, 41, **options),
                   generate_instance_per_matrix(16, 8, 41, **options))
