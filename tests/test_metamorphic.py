"""Metamorphic checks of the routes: transforms of an instance that
move its critical points in a known way must keep its report's verdicts.

Each transform T maps an instance to one whose critical points are the
old ones moved (or kept) with the same J.  On each of the 39 N = 1
members of iter_ensemble(200, 2024), analyze_instance(T(P), 12, 7, 0)
must keep the record count and the multiset of cases, and its sorted J
must agree within 1e-8 (1 + |J|).  On its 25 n = 2, N >= 2 members a
rotation must rotate the Macaulay route's point set, and on its 16
N = 2 members with n = 3 or 4 a rotation must rotate the two-parameter
route's point set and swapping the two multipliers' (B_j, c_j, gamma_j)
must keep it.
"""

import numpy as np
import pytest

from dcquartic import (
    ValidationError,
    find_critical_points,
    iter_ensemble,
    validate_instance,
)
from dcquartic.linalg import symmetrize
from dcquartic.report import analyze_instance

J_TOL = 1e-8


def _rotation(n):
    R, _ = np.linalg.qr(np.random.default_rng([3, n]).standard_normal(
        (n, n)))
    return R


def _rotated(P):
    # x -> R x: A, B_j, K -> R . R', f -> R f
    R = _rotation(P.n)
    return validate_instance(symmetrize(R @ P.A @ R.T),
                             symmetrize(R @ P.B @ R.T), P.gamma, P.c,
                             R @ P.f, symmetrize(R @ P.K @ R.T))


def _rescaled(k):
    # (B, c, gamma) -> (2^k B, 2^k c, 2^-2k gamma) leaves J unchanged
    def transform(P):
        return validate_instance(P.A, np.ldexp(P.B, k),
                                 np.ldexp(P.gamma, -2 * k), np.ldexp(P.c, k),
                                 P.f, P.K)
    return transform


def _x_scaled(s):
    # J'(y) = J(s y), so the critical points are x / s with the same J
    def transform(P):
        return validate_instance(s * s * P.A, s * s * P.B, P.gamma, P.c,
                                 s * P.f, s * s * P.K)
    return transform


def _verdicts(P):
    records, _ = analyze_instance(P, 12, 7, 0)
    return (sorted(str(r["case"]) for r in records),
            np.sort([r["J"] for r in records]))


@pytest.fixture(scope="module")
def members():
    """(index, instance, verdicts) of each N = 1 member."""
    out = [(k, P, _verdicts(P)) for k, P in enumerate(iter_ensemble(200, 2024))
           if P.N == 1]
    assert len(out) == 39
    return out


def _moved(members, transform):
    """The indices of the members whose verdicts T changes."""
    moved = []
    for k, P, (cases, J) in members:
        cases_t, J_t = _verdicts(transform(P))
        if cases_t != cases or not np.all(
                np.abs(J_t - J) <= J_TOL * (1.0 + np.abs(J))):
            moved.append(k)
    return moved


@pytest.mark.parametrize("transform", [
    _rotated, _rescaled(3), _rescaled(-3), _x_scaled(1e-3)],
    ids=["rotation", "rescale-2^3", "rescale-2^-3", "x-scale-1e-3"])
def test_transform_keeps_verdicts(members, transform):
    assert _moved(members, transform) == []


def _not_scale_free(s, finding):
    return pytest.param(s, marks=pytest.mark.xfail(strict=True, reason=(
        "ROADMAP item 2: the solver's absolute test max|grad J| <= 1e-12 "
        f"(1 + max|x|) is not scale-free, so at s = {finding}")))


@pytest.mark.parametrize("s", [
    _not_scale_free(1e3, "1e3 18 of the 39 members lose points (1, 9, 11, "
                    "13, 15, 19, 20, 45, ...)"),
    _not_scale_free(1e6, "1e6 34 of the 39 members move (1, 9, 11, 13, 15, "
                    "18, 19, 20, ...)"),
    pytest.param(1e-6, marks=pytest.mark.xfail(
        strict=True, raises=ValidationError, reason=(
            "ROADMAP item 2: linalg.spectrum's threshold 1e-10 (1 + "
            "max|w|) is absolute below scale 1, so at s = 1e-6 every "
            "member's K - A fails validate_instance with "
            "K-minus-A-not-PD (all 39 validate at s = 1e-4, none at "
            "1e-5)")))],
    ids=["1e3", "1e6", "1e-6"])
def test_x_scale_keeps_verdicts(members, s):
    assert _moved(members, _x_scaled(s)) == []


def _assert_same_points(points, expected):
    """Each row of either stack within 1e-8 (1 + |x|inf) of a row of the
    other, and as many rows in both."""
    assert points.shape == expected.shape
    for a, b in ((points, expected), (expected, points)):
        distance = np.abs(a[:, None] - b[None]).max(axis=2).min(axis=1)
        assert (distance <= 1e-8 * (1.0 + np.abs(a).max(axis=1))).all()


def _points(P):
    return np.array(find_critical_points(P, 12, 7).points)


def test_rotation_rotates_the_n2_route_points():
    # the Macaulay route finds every critical point at n = 2, N >= 2,
    # so the rotated instance's points are the rotated points
    R, members = _rotation(2), 0
    for P in iter_ensemble(200, 2024):
        if P.n != 2 or P.N < 2:
            continue
        members += 1
        _assert_same_points(_points(_rotated(P)), _points(P) @ R.T)
    assert members == 25


@pytest.fixture(scope="module")
def two_parameter_members():
    """The 16 members with N = 2 and n = 3 or 4."""
    out = [P for P in iter_ensemble(200, 2024) if P.N == 2 and P.n in (3, 4)]
    assert len(out) == 16
    return out


def test_rotation_rotates_the_two_parameter_route_points(
        two_parameter_members):
    for P in two_parameter_members:
        _assert_same_points(_points(_rotated(P)),
                            _points(P) @ _rotation(P.n).T)


def test_multiplier_swap_keeps_the_two_parameter_route_points(
        two_parameter_members):
    # (B_1, c_1, gamma_1) <-> (B_2, c_2, gamma_2) leaves J unchanged and
    # swaps W_1 and W_2, so Delta0, Delta1 and Delta2 change
    for P in two_parameter_members:
        swapped = validate_instance(P.A, P.B[::-1], P.gamma[::-1],
                                    P.c[::-1], P.f, P.K)
        _assert_same_points(_points(swapped), _points(P))
