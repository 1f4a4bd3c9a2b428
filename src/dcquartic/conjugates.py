"""Closed-form conjugates, membership sets and the dual functionals.

The two convex blocks have explicit Legendre transforms:

    G1*(v*)       = (v* + f)^T (K - A)^{-1} (v* + f) / 2
    G2*(v*, v0*)  = v*^T M(v0*)^{-1} v* / 2
                    + sum_j (v0*)_j^2 / (2 gamma_j) - sum_j c_j (v0*)_j

with M(v0*) = sum_j (v0*)_j B_j + K.  The G2* formula is the supremum
only where M(v0*) is positive definite; that region is C*.  Outside C*
the operations raise rather than return a meaningless number.

The partial dual is J*(v*, v0*) = G1*(v*) - G2*(v*, v0*), which is
concave in v0* on C*, and

    Jt*(v*) = sup_{v0* in C*} J*(v*, v0*)      (evaluated via its
                                                interior stationarity
                                                system)
    J2*(v*) = sup_{v0* in A*} J*(v*, v0*)      (A* = B* intersect C*,
                                                log-det barrier
                                                continuation)
"""

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import linalg
from .errors import (
    AStarEmptyError,
    DimensionMismatchError,
    LeftCstarError,
    NoConvergenceError,
    OutsideCstarError,
    SingularMatrixError,
)

INNER_TOL_FACTOR = 1e-12
INNER_MAX_ITER = 100
INNER_MAX_BACKTRACKS = 40
INNER_EXTRA_INITS = 8  # multistart fallback budget for the inner sup
STACK_ENTRIES = 1 << 21  # matrix entries per stacked solve; bounds memory

# per-row outcome of the stacked inner sup; a single point that fails
# raises _FAILURES[status]
SOLVED, LEFT_C_STAR, NO_CONVERGENCE, OUTSIDE_C_STAR = range(4)
_FAILURES = (None, LeftCstarError, NoConvergenceError, OutsideCstarError)

BARRIER_WEIGHTS = (1e-2, 1e-4, 1e-6)
BOUNDARY_MARGIN = 1e-6


class Membership(NamedTuple):
    inside: bool
    margin: float


def in_C_star(P, v0_star):
    """Is M(v0*) positive definite?  Returns (bool, smallest eigenvalue)."""
    v0_star = P.require_v0(v0_star)
    margin, eps = linalg.pd_margin(P.mixed_matrix(v0_star))
    return Membership(margin > eps, margin)


def in_B_star(P, v0_star):
    """Is A + sum_j (v0*)_j B_j positive definite?"""
    v0_star = P.require_v0(v0_star)
    margin, eps = linalg.pd_margin(P.ab_matrix(v0_star))
    return Membership(margin > eps, margin)


def a_star_membership(c, b):
    """A* = B* intersect C*, from the C* and B* memberships; the margin
    is the smaller of the two."""
    return Membership(c.inside and b.inside, min(c.margin, b.margin))


def in_A_star(P, v0_star):
    """Is v0* in A* = B* intersect C*?"""
    return a_star_membership(in_C_star(P, v0_star), in_B_star(P, v0_star))


def g1_star(P, v_star):
    """Conjugate of G1, attained at x = (K - A)^{-1}(v* + f)."""
    v_star = P.require_x(v_star)
    rhs = v_star + P.f
    return float(0.5 * rhs @ linalg.solve_pd(P.K_minus_A, rhs))


def g2_star(P, v_star, v0_star):
    """Conjugate of G2 at the dual pair (v*, v0*).

    Raises OutsideCstarError when M(v0*) is not positive definite.
    """
    v_star = P.require_x(v_star)
    v0_star = P.require_v0(v0_star)
    M = P.mixed_matrix(v0_star)
    margin, eps = linalg.pd_margin(M)
    if margin <= eps:
        raise OutsideCstarError(
            f"M(v0*) has smallest eigenvalue {margin:.3e}; the closed form "
            "for G2* is not the supremum there")
    quad = 0.5 * v_star @ linalg.solve_pd(M, v_star)
    return float(quad + 0.5 * np.sum(v0_star ** 2 / P.gamma)
                 - np.sum(P.c * v0_star))


def j_star(P, v_star, v0_star):
    """J*(v*, v0*) = G1*(v*) - G2*(v*, v0*)."""
    return g1_star(P, v_star) - g2_star(P, v_star, v0_star)


def default_inner_init(P, v_star):
    """Lift of x0 = (K - A)^{-1}(v* + f) into the multiplier space."""
    x_bar = linalg.solve_pd(P.K_minus_A, v_star + P.f)
    return P.gamma * P.quartic_terms(x_bar)


def _inner_residual(P, v_star, v0, M_factor):
    """Stationarity residual of the inner sup and the matching x_bar."""
    x_bar = linalg.cho_solve(M_factor, v_star)
    w = P.quartic_terms(x_bar)
    return w - v0 / P.gamma, x_bar


def _inner_matrix(P, x_bar, M_factor):
    """E(x_bar) = P2 P1 + diag(1/gamma), the negated v0*-Hessian of J*."""
    p1 = P.bx_columns(x_bar)
    p2 = linalg.cho_solve(M_factor, p1).T
    return linalg.symmetrize(p2 @ p1) + np.diag(1.0 / P.gamma)


def _inner_newton(P, v_star, v0):
    """Damped Newton on the inner stationarity system.

    Returns the converged multiplier.  Raises LeftCstarError if the
    iterate cannot stay strictly inside C*, NoConvergenceError on
    iteration exhaustion.
    """
    factor = linalg.pd_factor(P.mixed_matrix(v0))
    if factor is None:
        raise LeftCstarError("inner start is not strictly inside C*")
    res, x_bar = _inner_residual(P, v_star, v0, factor)
    res_norm = float(np.max(np.abs(res)))
    for _ in range(INNER_MAX_ITER):
        if res_norm <= INNER_TOL_FACTOR * (1.0 + float(np.max(np.abs(v0)))):
            return v0
        E = _inner_matrix(P, x_bar, factor)
        step = np.linalg.solve(E, res)
        t = 1.0
        for _ in range(INNER_MAX_BACKTRACKS):
            cand = v0 + t * step
            cand_factor = linalg.pd_factor(P.mixed_matrix(cand))
            if cand_factor is not None:
                cand_res, cand_x = _inner_residual(P, v_star, cand, cand_factor)
                cand_norm = float(np.max(np.abs(cand_res)))
                if cand_norm < res_norm:
                    v0, factor, res, x_bar = cand, cand_factor, cand_res, cand_x
                    res_norm = cand_norm
                    break
            t *= 0.5
        else:
            raise LeftCstarError(
                "inner Newton could not find a feasible descent step; "
                "the supremum is not attained at an interior stationary point")
    raise NoConvergenceError(
        f"inner Newton residual {res_norm:.3e} after {INNER_MAX_ITER} iterations")


def _mixed_stack(P, v0):
    """M(v0*) for each row of an (S, N) stack."""
    return P.K + np.einsum("sj,jkl->skl", v0, P.B)


def _inner_residual_stack(P, v_stars, v0, L):
    """_inner_residual for each row, given the Cholesky factors of M."""
    x_bar = linalg.cho_solve_stack(L, v_stars)
    w = 0.5 * np.einsum("jkl,sk,sl->sj", P.B, x_bar, x_bar) + P.c
    return w - v0 / P.gamma, x_bar


def _inner_matrix_stack(P, x_bar, L):
    """_inner_matrix for each row, given the Cholesky factors of M."""
    p1 = np.einsum("jkl,sl->skj", P.B, x_bar)
    E = np.swapaxes(linalg.cho_solve_stack(L, p1), 1, 2) @ p1
    return 0.5 * (E + np.swapaxes(E, 1, 2)) + np.diag(1.0 / P.gamma)


def _inner_newton_stack(P, v_stars, v0):
    """_inner_newton on every row of a stack at once.

    Row s starts at v0[s].  The C* test, tolerance, iteration budget,
    halving backtrack and strict-decrease test are those of the
    single-point solve, decided for each row alone.  Returns
    (v0, L, status): where status[s] is SOLVED, v0[s] is the solution and
    L[s] the Cholesky factor of M(v0[s]).  Otherwise status[s] is
    LEFT_C_STAR or NO_CONVERGENCE, where _inner_newton raises
    LeftCstarError or NoConvergenceError.  np.linalg.solve raises for the
    whole stack on a singular E, as _inner_newton raises for that row.
    """
    v0 = np.array(v0, dtype=float)
    L, feasible = linalg.cholesky_stack(_mixed_stack(P, v0))
    status = np.where(feasible, NO_CONVERGENCE, LEFT_C_STAR)
    live = np.flatnonzero(feasible)
    res, x_bar = _inner_residual_stack(P, v_stars[live], v0[live], L[live])
    res_norm = np.max(np.abs(res), axis=1)
    for _ in range(INNER_MAX_ITER):
        done = res_norm <= INNER_TOL_FACTOR * (
            1.0 + np.max(np.abs(v0[live]), axis=1))
        status[live[done]] = SOLVED
        live, res, x_bar, res_norm = \
            live[~done], res[~done], x_bar[~done], res_norm[~done]
        if live.size == 0:
            break
        E = _inner_matrix_stack(P, x_bar, L[live])
        step = np.linalg.solve(E, res[:, :, None])[:, :, 0]
        pending = np.ones(live.size, dtype=bool)
        t = 1.0
        for _ in range(INNER_MAX_BACKTRACKS):
            rows = np.flatnonzero(pending)
            cand = v0[live[rows]] + t * step[rows]
            cand_L, feasible = linalg.cholesky_stack(_mixed_stack(P, cand))
            rows, cand, cand_L = rows[feasible], cand[feasible], cand_L[feasible]
            cand_res, cand_x = _inner_residual_stack(
                P, v_stars[live[rows]], cand, cand_L)
            cand_norm = np.max(np.abs(cand_res), axis=1)
            better = cand_norm < res_norm[rows]
            rows = rows[better]
            v0[live[rows]], L[live[rows]] = cand[better], cand_L[better]
            res[rows], x_bar[rows], res_norm[rows] = \
                cand_res[better], cand_x[better], cand_norm[better]
            pending[rows] = False
            if not pending.any():
                break
            t *= 0.5
        # a row with no feasible descent step has left C*
        status[live[pending]] = LEFT_C_STAR
        live, res, x_bar, res_norm = \
            live[~pending], res[~pending], x_bar[~pending], res_norm[~pending]
    return v0, L, status


def _j_star_stack(P, v_stars, v0, L):
    """J* at each row, given the Cholesky factors of M(v0*); nan where
    the eigvalsh-margin C* check of j_star fails."""
    margin, eps = linalg.pd_margin_stack(_mixed_stack(P, v0))
    rhs = v_stars + P.f
    g1 = 0.5 * np.einsum("si,is->s", rhs, linalg.solve_pd(P.K_minus_A, rhs.T))
    quad = 0.5 * np.einsum("si,si->s", v_stars,
                           linalg.cho_solve_stack(L, v_stars))
    g2 = (quad + 0.5 * np.sum(v0 ** 2 / P.gamma, axis=1)
          - np.sum(P.c * v0, axis=1))
    return np.where(margin > eps, g1 - g2, np.nan)


def _j_tilde_star_chunk(P, v_stars, inits):
    """j_tilde_star on one chunk of rows, row s started at inits[s].
    Returns (values, argmaxes, status)."""
    v0, L, status = _inner_newton_stack(P, v_stars, inits)
    ok = status == SOLVED
    values = np.full(len(v_stars), np.nan)
    values[ok] = _j_star_stack(P, v_stars[ok], v0[ok], L[ok])
    status[ok & np.isnan(values)] = OUTSIDE_C_STAR

    retry = np.flatnonzero(status != SOLVED)
    if retry.size:
        # fallback multistart around each row's start; J*(v*, .) is
        # concave on C*, so every converged start returns the same
        # interior point
        k = INNER_EXTRA_INITS
        base = inits[retry][:, None, :]
        noise = np.random.default_rng(0).standard_normal((k, P.N))
        starts = (base + (1.0 + np.abs(base)) * noise).reshape(-1, P.N)
        vs = np.repeat(v_stars[retry], k, axis=0)
        tv0, tL, tstatus = _inner_newton_stack(P, vs, starts)
        tok = tstatus == SOLVED
        tval = np.full(len(vs), np.nan)
        tval[tok] = _j_star_stack(P, vs[tok], tv0[tok], tL[tok])
        tok, tval = tok.reshape(-1, k), tval.reshape(-1, k)
        # a converged start that fails the value check fails the row with
        # OUTSIDE_C_STAR; otherwise the first best converged start wins
        outside = (tok & np.isnan(tval)).any(axis=1)
        rescued = tok.any(axis=1) & ~outside
        best = np.argmax(np.where(tok, tval, -np.inf), axis=1)
        rows = retry[rescued]
        picks = rescued.nonzero()[0] * k + best[rescued]
        values[rows], v0[rows], status[rows] = \
            tval.ravel()[picks], tv0[picks], SOLVED
        status[retry[outside]] = OUTSIDE_C_STAR
    v0[status != SOLVED] = np.nan
    return values, v0, status


def j_tilde_star(P, v_star, init=None):
    """Evaluate Jt*(v*) = sup over C* of J*(v*, .) at one dual point or
    at each row of an (S, n) stack.

    Solves the interior fixed-point system (v0*)_j = gamma_j
    (x_bar^T B_j x_bar / 2 + c_j) with x_bar = M(v0*)^{-1} v* by damped
    Newton, all rows at once, each decided alone.  Every solve starts at
    ``init``, or by default at the lift of (K - A)^{-1}(v* + f); where
    that start fails, a deterministic batch of perturbed starts is tried
    and the best converged value wins.

    For one point returns (value, argmax) and raises the point's failure:
    LeftCstarError, NoConvergenceError or OutsideCstarError.  For a stack
    returns (values, argmaxes), with nan rows where the solve fails; one
    row failing leaves the others as they are.
    """
    single = np.ndim(v_star) < 2
    v_stars = np.asarray(v_star, dtype=float)
    if single:
        v_stars = P.require_x(v_stars)[None]
    elif v_stars.ndim != 2 or v_stars.shape[1] != P.n:
        raise DimensionMismatchError(
            f"expected a dual point of length {P.n} or an (S, {P.n}) "
            f"stack, got shape {v_stars.shape}")
    S = len(v_stars)
    if init is None:
        inits = np.array([default_inner_init(P, v) for v in v_stars])
    else:
        inits = np.tile(P.require_v0(init), (S, 1))
    values, argmaxes = np.full(S, np.nan), np.full((S, P.N), np.nan)
    status = np.full(S, SOLVED)
    rows = max(1, STACK_ENTRIES // (P.n * P.n))
    for lo in range(0, S, rows):
        chunk = slice(lo, lo + rows)
        values[chunk], argmaxes[chunk], status[chunk] = _j_tilde_star_chunk(
            P, v_stars[chunk], inits[chunk])
    if not single:
        return values, argmaxes
    if status[0] != SOLVED:
        raise _FAILURES[status[0]](
            f"no start solves the inner sup at v* = {v_stars[0]}")
    return float(values[0]), argmaxes[0]


@dataclass(frozen=True)
class J2Result:
    value: float
    v0_star: np.ndarray
    boundary_attained: bool
    a_star_margin: float


def _feasible_a_star_point(P, v0, max_iter=200):
    """Push v0 toward strict A* feasibility by margin ascent.

    The objective min(lmin(A + sum v B), lmin(M(v))) is concave; we
    follow eigenvector subgradients with a halving line search.
    """
    def margins(v):
        wa, ua = np.linalg.eigh(linalg.symmetrize(P.ab_matrix(v)))
        wm, um = np.linalg.eigh(linalg.symmetrize(P.mixed_matrix(v)))
        if wa[0] <= wm[0]:
            u = ua[:, 0]
        else:
            u = um[:, 0]
        grad = np.einsum("jkl,k,l->j", P.B, u, u)
        return min(wa[0], wm[0]), grad

    target = max(10.0 * BOUNDARY_MARGIN, 1e-5)
    value, grad = margins(v0)
    if value > target:
        return v0
    step = 1.0
    for _ in range(max_iter):
        gnorm = float(np.linalg.norm(grad))
        if gnorm == 0.0:
            break
        cand = v0 + step * grad / gnorm
        cand_value, cand_grad = margins(cand)
        if cand_value > value:
            v0, value, grad = cand, cand_value, cand_grad
            step *= 1.5
            if value > target:
                return v0
        else:
            step *= 0.5
            if step < 1e-12:
                break
    raise AStarEmptyError(
        f"could not reach a strictly feasible A* point near the start "
        f"(best margin {value:.3e})")


def _barrier_ascent(P, v_star, v0, mu, max_iter=INNER_MAX_ITER):
    """Maximize J*(v*, .) + mu logdet(A + sum v B) inside A*."""
    def eval_point(v):
        S_factor = linalg.pd_factor(P.ab_matrix(v))
        if S_factor is None:
            return None
        M_factor = linalg.pd_factor(P.mixed_matrix(v))
        if M_factor is None:
            return None
        logdet = 2.0 * float(np.sum(np.log(np.diag(S_factor[0]))))
        value = j_star(P, v_star, v) + mu * logdet
        return value, S_factor, M_factor

    state = eval_point(v0)
    if state is None:
        raise AStarEmptyError("barrier start left A*")
    value, S_factor, M_factor = state
    for _ in range(max_iter):
        res, x_bar = _inner_residual(P, v_star, v0, M_factor)
        Sinv = linalg.symmetrize(
            linalg.cho_solve(S_factor, np.eye(P.n)))
        barrier_grad = mu * np.einsum("kl,jlk->j", Sinv, P.B)
        grad = res + barrier_grad
        if float(np.max(np.abs(grad))) <= 1e-10 * (1.0 + float(np.max(np.abs(v0)))):
            break
        E = _inner_matrix(P, x_bar, M_factor)
        X = np.einsum("kl,jlm->jkm", Sinv, P.B)
        T = linalg.symmetrize(np.einsum("jkm,imk->ji", X, X))
        try:
            step = np.linalg.solve(E + mu * T, grad)
        except np.linalg.LinAlgError as exc:
            raise SingularMatrixError(
                f"barrier Newton matrix E + mu T is singular at mu = {mu:g}"
            ) from exc
        t = 1.0
        improved = False
        for _ in range(INNER_MAX_BACKTRACKS):
            cand = v0 + t * step
            cand_state = eval_point(cand)
            if cand_state is not None and cand_state[0] > value:
                v0, (value, S_factor, M_factor) = cand, cand_state
                improved = True
                break
            t *= 0.5
        if not improved:
            break
    return v0


def j2_star(P, v_star, init=None):
    """Evaluate J2*(v*) = sup over A* of J*(v*, .).

    Interior stationary solve with a log-det barrier continuation on
    A + sum_j (v0*)_j B_j.  When the maximizer sits on the A* boundary
    the barrier-path limit value is returned tagged boundary_attained.
    Raises AStarEmptyError when no strictly feasible A* start is found
    near ``init``, and SingularMatrixError when a barrier Newton matrix
    is singular.
    """
    v_star = P.require_x(v_star)
    v0 = P.require_v0(init) if init is not None else default_inner_init(P, v_star)
    v0 = _feasible_a_star_point(P, v0)
    for mu in BARRIER_WEIGHTS:
        v0 = _barrier_ascent(P, v_star, v0, mu)

    # try to polish to the unconstrained interior stationary point; if it
    # lands on or beyond the A* boundary the sup is a boundary limit
    polished = None
    try:
        polished = _inner_newton(P, v_star, v0)
    except (NoConvergenceError, OutsideCstarError):
        polished = None
    if polished is not None:
        margin, _ = linalg.pd_margin(P.ab_matrix(polished))
        if margin >= BOUNDARY_MARGIN:
            return J2Result(j_star(P, v_star, polished), polished,
                            False, margin)
        if margin >= -BOUNDARY_MARGIN:
            # stationary point sits on the boundary; its value is the
            # exact barrier-path limit
            return J2Result(j_star(P, v_star, polished), polished,
                            True, margin)
    margin, _ = linalg.pd_margin(P.ab_matrix(v0))
    return J2Result(j_star(P, v_star, v0), v0,
                    margin < BOUNDARY_MARGIN, margin)
