"""The single-multiplier dual functional used elsewhere in the
literature, and the qualitative second-order comparison against it.

The displayed object is the negated functional

    -J1*(v0*) = f^T S(v0*)^{-1} f / 2
                + sum_p (v0*)_p^2 / (2 gamma_p) - sum_p c_p (v0*)_p,
    S(v0*)    = sum_p (v0*)_p B_p + A,

which only needs S invertible, not definite.  Its Hessian at a critical
pair is {x0^T B_j S^{-1} B_k x0 + delta_jk / gamma_j} with
x0 = S^{-1} f, and the sign correspondence with the primal Hessian
d2J(x0) = A + Bhat + sum_p (vhat0)_p B_p is guaranteed only for
n = N = 1 with S positive definite.  Note the displayed x0 = S^{-1} f
differs in sign from the primal stationarity solution -(S^{-1} f); the
quadratic forms compared here are unaffected by the sign.
"""

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from . import linalg
from .critical import find_critical_pairs
from .errors import DualityError, SingularMatrixError
from .problem import _finite


@dataclass(frozen=True)
class BaselineReport:
    minus_j1_value: float
    primal_hessian_inertia: Tuple[int, int, int]
    baseline_hessian_inertia: Tuple[int, int, int]
    correspondence: bool
    ab_matrix_pd: bool


def j1_star(P, v0_star):
    """(value, gradient, Hessian) of -J1* at v0*, from one spectrum of
    S = sum_p (v0*)_p B_p + A and the two solves with it: a one-row
    _j1_star_stack.

    With x0 = S^{-1} f, the gradient has components
    (v0*)_j/gamma_j - w_j(x0) = (v0*)_j/gamma_j - x0^T B_j x0 / 2 - c_j
    and the Hessian is
    {x0^T B_j S^{-1} B_k x0 + delta_jk / gamma_j}, symmetric by
    construction.  Requires only invertibility of S: raises
    SingularMatrixError when its smallest |eigenvalue| is at most
    1e-12 (1 + its largest), and ValidationError("non-finite") for a
    NaN or inf v0*.
    """
    value, gradient, hessian, singular = _j1_star_stack(
        P, _finite(P.require_v0(v0_star), "v0_star")[None])
    if singular[0] is not None:
        raise singular[0]
    return value[0], gradient[0], hessian[0]


def _j1_star_stack(P, V0):
    """j1_star at each row of the (S, N) stack V0, as one stack:
    (values, gradients, Hessians, errors), the error of a row being None
    or the SingularMatrixError that j1_star raises there.  The first
    three hold the invertible rows only."""
    S = linalg.symmetrize(P.ab_matrix(V0))
    w = np.abs(linalg.spectrum(S)[0])
    errors = [SingularMatrixError(
        f"sum_p (v0*)_p B_p + A is singular (|eig|min = {lo:.3e})")
        if lo <= 1e-12 * (1.0 + scale) else None
        for lo, scale in zip(w.min(-1).tolist(), w.max(-1).tolist())]
    ok = [error is None for error in errors]
    S, V0 = S[ok], V0[ok]
    x0 = np.linalg.solve(S, P.f)
    values = (np.vecdot(0.5 * P.f, x0) + 0.5 * (V0 ** 2 / P.gamma).sum(-1)
              - (P.c * V0).sum(-1)).tolist()
    gradients = V0 / P.gamma - P.quartic_terms(x0)
    W = P.bx_columns(x0).mT                 # rows B_j x0
    core = W @ np.linalg.solve(S, W.mT)
    hessians = linalg.symmetrize(core) + np.diag(1.0 / P.gamma)
    return values, gradients, hessians, errors


def correspondence_report(P, pair):
    """Compare the inertia of d2J(x0) with the baseline dual Hessian: a
    one-row _correspondence_stack.

    d2J(x0)'s spectrum is the lift's.  For n = N = 1 with S(vhat0)
    positive definite, sign agreement is a theorem and a disagreement
    raises; in every other regime the flag is recorded as data.
    """
    report = _correspondence_stack(P, [pair])[0]
    if isinstance(report, DualityError):
        raise report
    return report


def _correspondence_stack(P, pairs):
    """correspondence_report at each pair: one BaselineReport, or the
    DualityError it raises, per pair.  j1_star runs once on the stack."""
    values, _, hessians, out = _j1_star_stack(
        P, np.reshape([pair.v0_hat for pair in pairs], (-1, P.N)))
    rows = [i for i, error in enumerate(out) if error is None]
    w = np.reshape([pairs[i].d2j_spectrum[0] for i in rows], (-1, P.n))
    eps = np.array([pairs[i].d2j_spectrum[1] for i in rows])
    inertias = zip(linalg.inertia(w, eps).tolist(),
                   linalg.inertia(*linalg.spectrum(hessians)).tolist())
    for k, (i, (primal, baseline)) in enumerate(zip(rows, inertias)):
        primal, baseline = tuple(primal), tuple(baseline)
        # both positive definite (count 0) or both negative definite (1)
        correspondence = any(primal[s] == P.n and baseline[s] == P.N
                             for s in (0, 1))
        ab_pd = pairs[i].b_star.inside
        if P.n == 1 and P.N == 1 and ab_pd and not correspondence:
            out[i] = DualityError(
                "n = N = 1 with a positive definite multiplier matrix must "
                f"give matching definiteness, got {primal} vs {baseline}")
        else:
            out[i] = BaselineReport(
                minus_j1_value=values[k],
                primal_hessian_inertia=primal,
                baseline_hessian_inertia=baseline,
                correspondence=correspondence,
                ab_matrix_pd=ab_pd,
            )
    return out


@dataclass(frozen=True)
class Counterexample:
    seed: int
    instance_index: int
    pair_index: int
    report: BaselineReport


def search_correspondence_counterexample(n, N, count, rng_seed):
    """Scan seeded random instances for a pair where the baseline and
    primal Hessians disagree in sign; returns the first hit with its
    seed, or None."""
    from .ensembles import generate_instance

    for i in range(count):
        P = generate_instance(n, N, [rng_seed, i])
        try:
            pairs = find_critical_pairs(P, 12, rng_seed)
        except DualityError:
            continue
        for k, pair in enumerate(pairs):
            try:
                report = correspondence_report(P, pair)
            except DualityError:
                continue
            if not report.correspondence:
                return Counterexample(seed=rng_seed, instance_index=i,
                                      pair_index=k, report=report)
    return None
