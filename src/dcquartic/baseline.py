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
from .problem import primal_hessian


@dataclass(frozen=True)
class BaselineReport:
    minus_j1_value: float
    primal_hessian_inertia: Tuple[int, int, int]
    baseline_hessian_inertia: Tuple[int, int, int]
    correspondence: bool
    ab_matrix_pd: bool


def j1_star(P, v0_star):
    """(value, gradient, Hessian) of -J1* at v0*, from one spectrum of
    S = sum_p (v0*)_p B_p + A and the two solves with it.

    With x0 = S^{-1} f, the gradient has components
    (v0*)_j/gamma_j - w_j(x0) = (v0*)_j/gamma_j - x0^T B_j x0 / 2 - c_j
    and the Hessian is
    {x0^T B_j S^{-1} B_k x0 + delta_jk / gamma_j}, symmetric by
    construction.  Requires only invertibility of S: raises
    SingularMatrixError when its smallest |eigenvalue| is at most
    1e-12 (1 + its largest).
    """
    v0_star = P.require_v0(v0_star)
    S = linalg.symmetrize(P.ab_matrix(v0_star))
    w = np.linalg.eigvalsh(S)
    scale = float(np.max(np.abs(w))) if w.size else 0.0
    if float(np.min(np.abs(w))) <= 1e-12 * (1.0 + scale):
        raise SingularMatrixError(
            f"sum_p (v0*)_p B_p + A is singular (|eig|min = "
            f"{float(np.min(np.abs(w))):.3e})")
    x0 = np.linalg.solve(S, P.f)
    value = float(0.5 * P.f @ x0 + 0.5 * np.sum(v0_star ** 2 / P.gamma)
                  - np.sum(P.c * v0_star))
    gradient = v0_star / P.gamma - P.quartic_terms(x0)
    W = P.bx_columns(x0).T                  # rows B_j x0
    core = W @ np.linalg.solve(S, W.T)
    hessian = linalg.symmetrize(core) + np.diag(1.0 / P.gamma)
    return value, gradient, hessian


def correspondence_report(P, pair, bundle=None):
    """Compare the inertia of d2J(x0) with the baseline dual Hessian.

    d2J(x0) is read from ``bundle`` (the pair's CurvatureBundle) when
    one is given.  For n = N = 1 with S(vhat0) positive definite, sign
    agreement is a theorem and a disagreement raises; in every other
    regime the flag is recorded as data.
    """
    value, _, hess = j1_star(P, pair.v0_hat)
    d2j = primal_hessian(P, pair.x0) if bundle is None else bundle.d2j

    primal_inertia = linalg.inertia(d2j)
    baseline_inertia = linalg.inertia(hess)

    def _definite(inertia, size):
        n_pos, n_neg, n_zero = inertia
        if n_pos == size:
            return 1
        if n_neg == size:
            return -1
        return 0

    p_sign = _definite(primal_inertia, P.n)
    b_sign = _definite(baseline_inertia, P.N)
    correspondence = (p_sign == b_sign == 1) or (p_sign == b_sign == -1)

    ab_pd = pair.b_star.inside
    if P.n == 1 and P.N == 1 and ab_pd and not correspondence:
        raise DualityError(
            "n = N = 1 with a positive definite multiplier matrix must "
            f"give matching definiteness, got {primal_inertia} vs "
            f"{baseline_inertia}")

    return BaselineReport(
        minus_j1_value=value,
        primal_hessian_inertia=primal_inertia,
        baseline_hessian_inertia=baseline_inertia,
        correspondence=correspondence,
        ab_matrix_pd=ab_pd,
    )


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
