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
    J2*(v*) = sup_{v0* in A*} J*(v*, v0*)      (A* = B* intersect C*:
                                                Jt*(v*) where Jt*'s
                                                argmax lies strictly
                                                inside A*, else log-det
                                                barrier continuation,
                                                then Jt* from its end
                                                point)

B* is where S(v0*) = A + sum_j (v0*)_j B_j is positive definite.  Since
M(v0*) = S(v0*) + (K - A) and validate_instance requires K - A positive
definite, B* lies inside C* and A* = B* (see in_A_star).
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
from .problem import _finite

INNER_MAX_ITER = 100
INNER_MAX_BACKTRACKS = 40
INNER_EXTRA_INITS = 8  # multistart fallback budget for the inner sup
STACK_ENTRIES = 1 << 21  # matrix entries per stacked solve; bounds memory

# per-row outcome of the stacked inner sup; a single point that fails
# raises _FAILURES[status]
SOLVED, LEFT_C_STAR, NO_CONVERGENCE, OUTSIDE_C_STAR = range(4)
_FAILURES = (None, LeftCstarError, NoConvergenceError, OutsideCstarError)

BARRIER_WEIGHTS = (1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6)
BOUNDARY_MARGIN = 1e-6
A_STAR_ASCENT_MAX_ITER = 200


class Membership(NamedTuple):
    """A positive-definiteness decision: inside when margin, the smallest
    eigenvalue, exceeds eps, the scale-aware threshold."""
    inside: bool
    margin: float
    eps: float


def _memberships(Ms):
    """One Membership per matrix of an (S, n, n) stack."""
    return [Membership(bool(m > e), float(m), float(e))
            for m, e in zip(*linalg.pd_margin(Ms))]


def _membership(M):
    return _memberships(M[None])[0]


def in_C_star(P, v0_star):
    """Is M(v0*) positive definite?  A NaN or inf v0* raises
    ValidationError("non-finite"), here and in in_B_star."""
    return _membership(P.mixed_matrix(_finite(P.require_v0(v0_star),
                                              "v0_star")))


def in_B_star(P, v0_star):
    """Is A + sum_j (v0*)_j B_j positive definite?"""
    return _membership(P.ab_matrix(_finite(P.require_v0(v0_star),
                                           "v0_star")))


def in_A_star(P, v0_star):
    """Is v0* in A* = B* intersect C*?  This is in_B_star: with K - A
    positive definite, lmin(M(v0*)) >= lmin(S(v0*)) + lmin(K - A) by
    Weyl's inequality, so B* lies inside C* and the B* margin is the
    smaller of the two."""
    return in_B_star(P, v0_star)


def recover_primal(P, v_star):
    """x_bar = (K - A)^{-1}(v* + f), the primal point behind a dual
    point, or behind each row of an (S, n) stack."""
    v_star = P.require_points(v_star)
    return linalg.cho_solve(P.kma_factor, (v_star + P.f).T).T


def g1_star(P, v_star):
    """Conjugate of G1, (v* + f)^T x_bar / 2 with x_bar = recover_primal,
    at a point (a float) or at each row of an (S, n) stack."""
    v_star = P.require_points(v_star)
    g1 = np.vecdot(0.5 * (v_star + P.f), recover_primal(P, v_star))
    return float(g1) if v_star.ndim == 1 else g1


def g2_star(P, v_star, v0_star):
    """Conjugate of G2 at the dual pair (v*, v0*).

    Raises OutsideCstarError when M(v0*) is not positive definite, and
    ValidationError("non-finite") for a NaN or inf v* or v0*.
    """
    v_star = _finite(P.require_x(v_star), "v_star")
    v0_star = _finite(P.require_v0(v0_star), "v0_star")
    # in_C_star's test, not its traced name: bench/spans.py times every
    # in_C_star call
    M = P.mixed_matrix(v0_star)
    c_star = _membership(M)
    if not c_star.inside:
        raise OutsideCstarError(
            f"M(v0*) has smallest eigenvalue {c_star.margin:.3e}; the "
            "closed form for G2* is not the supremum there")
    # a margin above eps is far above where a Cholesky pivot can fail
    L, _ = linalg.cho_factor(M)
    return float(_g2_star_solved(P, v_star, v0_star,
                                 linalg.cho_solve(L, v_star)))


def _g2_star_solved(P, v_star, v0_star, x):
    """The G2* formula at a dual pair, or at each row of a stack, given
    x = M(v0*)^{-1} v*; no membership check."""
    quad = 0.5 * np.vecdot(v_star, x)
    return (quad + 0.5 * np.sum(v0_star ** 2 / P.gamma, axis=-1)
            - np.sum(P.c * v0_star, axis=-1))


def j_star(P, v_star, v0_star):
    """J*(v*, v0*) = G1*(v*) - G2*(v*, v0*) at one dual pair."""
    g2 = g2_star(P, v_star, v0_star)
    return g1_star(P, P.require_x(v_star)) - g2


def default_inner_init(P, v_star):
    """Lift of x_bar = recover_primal(v*) into the multiplier space, for
    a point or each row of an (S, n) stack."""
    return P.gamma * P.quartic_terms(recover_primal(P, v_star))


def _inner_factor(P, v0, mu):
    """(L, Sinv, ok) at each row of a stack: L the Cholesky factor of
    M(v0), ok where it exists and, for mu > 0, where S(v0) factors too;
    Sinv is S(v0)^{-1} on those rows for mu > 0, else an empty stack."""
    L, ok = linalg.cho_factor(P.mixed_matrix(v0))
    Sinv = np.empty((len(v0), 0, 0))
    if mu:
        S = P.ab_matrix(v0)
        ok &= linalg.cho_factor(S)[1]
        Sinv = np.zeros_like(S)
        Sinv[ok] = linalg.symmetrize(np.linalg.inv(S[ok]))
    return L, Sinv, ok


def _inner_residual(P, v_star, v0, L, mu, Sinv):
    """Stationarity residual of the inner sup and the matching x_bar, at a
    point or each row of a stack, given the Cholesky factor L of M(v0);
    mu > 0 adds the barrier's mu tr(S^{-1} B_j), given Sinv = S^{-1}."""
    x_bar = linalg.cho_solve(L, v_star)
    res = P.quartic_terms(x_bar) - v0 / P.gamma
    if mu:
        res += mu * np.einsum("...kl,jlk->...j", Sinv, P.B)
    return res, x_bar


def _inner_matrix(P, x_bar, L, mu, Sinv):
    """E(x_bar) = P2 P1 + diag(1/gamma), the negated v0*-Hessian of J*, at
    a point or each row of a stack, given the Cholesky factor L of M;
    mu > 0 adds mu T, T_ji = tr(S^{-1} B_j S^{-1} B_i), given Sinv."""
    p1 = P.bx_columns(x_bar)
    E = np.swapaxes(linalg.cho_solve(L, p1), -1, -2) @ p1
    E = linalg.symmetrize(E) + np.diag(1.0 / P.gamma)
    if mu:
        X = np.einsum("...kl,jlm->...jkm", Sinv, P.B)
        E += mu * linalg.symmetrize(np.einsum("...jkm,...imk->...ji", X, X))
    return E


def _inner_newton_stack(P, v_stars, v0, mu=0.0):
    """Damped Newton on the inner stationarity system, on every row of an
    (S, n) stack at once; a single point is a one-row stack.  mu > 0
    solves for the maximizer of J*(v*, .) + mu logdet S instead, inside
    A* (where S factors), to a residual of 1e-10 (1 + max |v0|).

    Row s starts at v0[s].  The C* test (a Cholesky factor of M),
    tolerance, iteration budget, halving backtrack and strict-decrease
    test are decided for each row alone.  Returns (v0, L, status): where
    status[s] is SOLVED, v0[s] is the solution and L[s] the Cholesky
    factor of M(v0[s]).  Otherwise status[s] is LEFT_C_STAR (the start,
    or every backtracked step, leaves C*) or NO_CONVERGENCE (the budget
    ran out), and v0[s] is the last accepted iterate.  A singular E
    raises for the whole stack, SingularMatrixError when mu > 0.
    """
    v0 = np.array(v0, dtype=float)
    L, Sinv, feasible = _inner_factor(P, v0, mu)
    status = np.where(feasible, NO_CONVERGENCE, LEFT_C_STAR)
    live = np.flatnonzero(feasible)
    res, x_bar = _inner_residual(
        P, v_stars[live], v0[live], L[live], mu, Sinv[live])
    res_norm = np.max(np.abs(res), axis=1)
    tol = 1e-10 if mu else linalg.TOL_FACTOR
    for _ in range(INNER_MAX_ITER):
        done = res_norm <= tol * (1.0 + np.max(np.abs(v0[live]), axis=1))
        status[live[done]] = SOLVED
        live, res, x_bar, res_norm = \
            live[~done], res[~done], x_bar[~done], res_norm[~done]
        if live.size == 0:
            break
        E = _inner_matrix(P, x_bar, L[live], mu, Sinv[live])
        try:
            step = np.linalg.solve(E, res[:, :, None])[:, :, 0]
        except np.linalg.LinAlgError as exc:
            if not mu:
                raise
            raise SingularMatrixError(
                f"barrier Newton matrix E + mu T is singular at mu = {mu:g}"
            ) from exc
        pending = np.ones(live.size, dtype=bool)
        searching = pending.copy()
        t = 1.0
        for _ in range(INNER_MAX_BACKTRACKS):
            rows = np.flatnonzero(searching)
            cand = v0[live[rows]] + t * step[rows]
            # a row whose step rounds to its iterate (where a stage stalls
            # above its tolerance) cannot decrease the residual, at this t
            # or any shorter one
            searching[rows] = (cand != v0[live[rows]]).any(axis=1)
            cand_L, cand_Sinv, feasible = _inner_factor(P, cand, mu)
            rows, cand, cand_L, cand_Sinv = (
                rows[feasible], cand[feasible], cand_L[feasible],
                cand_Sinv[feasible])
            cand_res, cand_x = _inner_residual(
                P, v_stars[live[rows]], cand, cand_L, mu, cand_Sinv)
            cand_norm = np.max(np.abs(cand_res), axis=1)
            better = cand_norm < res_norm[rows]
            rows = rows[better]
            v0[live[rows]], L[live[rows]], Sinv[live[rows]] = \
                cand[better], cand_L[better], cand_Sinv[better]
            res[rows], x_bar[rows], res_norm[rows] = \
                cand_res[better], cand_x[better], cand_norm[better]
            pending[rows] = searching[rows] = False
            if not searching.any():
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
    margin, eps = linalg.pd_margin(P.mixed_matrix(v0))
    g2 = _g2_star_solved(P, v_stars, v0, linalg.cho_solve(L, v_stars))
    return np.where(margin > eps, g1_star(P, v_stars) - g2, np.nan)


def _in_chunks(P, solve, v_stars, starts, *outs):
    """Fill outs, one array of per-row outputs for each output of
    solve(P, v_stars, starts), chunk by chunk of STACK_ENTRIES // n^2
    rows (at least one), so that a stacked solve's memory is bounded."""
    rows = max(1, STACK_ENTRIES // (P.n * P.n))
    for lo in range(0, len(v_stars), rows):
        chunk = slice(lo, lo + rows)
        for out, part in zip(outs, solve(P, v_stars[chunk], starts[chunk])):
            out[chunk] = part
    return outs


def _j_tilde_star_bracket(P, v_stars, starts):
    """(lower, upper): bounds on Jt* at each row of an (S, n) stack from
    one evaluation at the row's start s, with no Newton step, in the
    chunks of rows that j_tilde_star solves.

    On C*, -d2J*/dv0*^2 = E >= D = diag(1/gamma) (see _inner_matrix), so
    J*(v*, y) <= J*(v*, s) + r'(y - s) - |y - s|_D^2 / 2, r the inner
    residual at s.  Every maximizer lies in |y - s|_D <= 2 |r|_{D^-1},
    where ||M(y) - M(s)||_2 <= rho = 2 |r|_{D^-1} sqrt(sum_j gamma_j
    ||B_j||_2^2).  Where lmin(M(s)) - rho passes the C* threshold (taken
    at the spectrum's largest possible scale there), that ball lies in
    C*, the sup is its interior stationary point, and lower = J*(v*, s)
    <= Jt*(v*) <= lower + sum_j gamma_j r_j^2 / 2 = upper.  Both are nan
    on the other rows, among them every start that fails _j_star_stack's
    C* margin test.
    """
    return _in_chunks(P, _j_tilde_star_bracket_chunk, v_stars, starts,
                      *np.full((2, len(v_stars)), np.nan))


def _j_tilde_star_bracket_chunk(P, v_stars, starts):
    """_j_tilde_star_bracket on one chunk of rows."""
    lower, upper = np.full((2, len(v_stars)), np.nan)
    M = P.mixed_matrix(starts)
    margin, eps = linalg.pd_margin(M)
    L, ok = linalg.cho_factor(M)
    rows = np.flatnonzero(ok & (margin > eps))
    v, s, L = v_stars[rows], starts[rows], L[rows]
    res, x_bar = _inner_residual(P, v, s, L, 0.0, None)
    r_sq = np.sum(P.gamma * res ** 2, axis=1)
    b_sq = np.sum(P.gamma * linalg.spectral_norm_sym(P.B) ** 2)
    rho = 2.0 * np.sqrt(r_sq * b_sq)
    inside = margin[rows] - rho > eps[rows] + linalg.EPS_PD_FACTOR * rho
    rows, v, s, x_bar, r_sq = (rows[inside], v[inside], s[inside],
                               x_bar[inside], r_sq[inside])
    lower[rows] = g1_star(P, v) - _g2_star_solved(P, v, s, x_bar)
    upper[rows] = lower[rows] + 0.5 * r_sq
    return lower, upper


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
    ``init``, one multiplier for all rows or an (S, N) stack of starts,
    one per row; by default it starts at the lift of (K - A)^{-1}(v* + f).
    Where that start fails, a deterministic batch of perturbed starts
    around it is tried and the best converged value wins.

    For one point returns (value, argmax) and raises the point's failure:
    LeftCstarError, NoConvergenceError or OutsideCstarError.  For a stack
    returns (values, argmaxes), with nan rows where the solve fails; one
    row failing leaves the others as they are.  An init of any other
    shape raises DimensionMismatchError, and a NaN or inf point or init
    of one point raises ValidationError("non-finite").
    """
    v_stars = P.require_points(v_star)
    single = v_stars.ndim == 1
    if single:
        _finite(v_stars, "v_star")
    inits = default_inner_init(P, v_stars) if init is None \
        else np.asarray(init, dtype=float)
    if inits.ndim < 2:
        inits = P.require_v0(inits)
    v_stars = v_stars.reshape(-1, P.n)
    S = len(v_stars)
    if inits.ndim > 1 and inits.shape != (S, P.N):
        raise DimensionMismatchError(
            f"expected a multiplier of length {P.N} or an ({S}, {P.N}) "
            f"stack of starts, got shape {inits.shape}")
    inits = np.broadcast_to(inits, (S, P.N))
    if single:
        _finite(inits, "init")
    values, argmaxes, status = _in_chunks(
        P, _j_tilde_star_chunk, v_stars, inits, np.full(S, np.nan),
        np.full((S, P.N), np.nan), np.full(S, SOLVED))
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


def _feasible_a_star_point(P, v0):
    """Push v0 toward strict A* feasibility by margin ascent.

    The objective lmin(A + sum v B) is concave, and its margin is the A*
    margin (A* = B*, see in_A_star); we follow eigenvector subgradients
    with a halving line search.
    """
    def margin(v):
        w, u = np.linalg.eigh(linalg.symmetrize(P.ab_matrix(v)))
        return w[0], np.einsum("jkl,k,l->j", P.B, u[:, 0], u[:, 0])

    target = max(10.0 * BOUNDARY_MARGIN, 1e-5)
    value, grad = margin(v0)
    if value > target:
        return v0
    step = 1.0
    for _ in range(A_STAR_ASCENT_MAX_ITER):
        gnorm = float(np.linalg.norm(grad))
        if gnorm == 0.0:
            break
        cand = v0 + step * grad / gnorm
        cand_value, cand_grad = margin(cand)
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


def _interior_sup(P, v_star, v0):
    """j_tilde_star on a one-row stack from v0: (value, argmax, the
    argmax's A* margin), or None where no start solves the inner sup."""
    values, argmaxes = j_tilde_star(P, v_star[None], init=v0[None])
    if np.isnan(values[0]):
        return None
    return float(values[0]), argmaxes[0], in_B_star(P, argmaxes[0]).margin


def j2_star(P, v_star, init=None):
    """Evaluate J2*(v*) = sup over A* of J*(v*, .).

    J*(v*, .) is concave on C* and A* is a convex subset of C*, so
    J2*(v*) = Jt*(v*) wherever Jt*'s argmax lies strictly inside A*.
    That argmax is solved for first, by j_tilde_star from ``init`` or by
    default from the lift of (K - A)^{-1}(v* + f).  Only where that solve
    fails or its argmax is within BOUNDARY_MARGIN of A*'s boundary, or
    outside A*, does a log-det barrier continuation run: from a strictly
    feasible A* point, one _inner_newton_stack solve per weight in
    BARRIER_WEIGHTS, then j_tilde_star again from the end point.  When
    the maximizer sits on the A* boundary the barrier-path limit value is
    returned tagged boundary_attained; so is the barrier end point's
    value, g1_star - g2_star there, whenever Jt*'s argmax lies beyond A*.
    Raises AStarEmptyError when no strictly feasible A* start is found
    near ``init``, SingularMatrixError when a barrier Newton matrix
    is singular, and ValidationError("non-finite") for a NaN or inf v*
    or init.
    """
    v_star = _finite(P.require_x(v_star), "v_star")
    v0 = _finite(P.require_v0(init), "init") if init is not None \
        else default_inner_init(P, v_star)
    interior = _interior_sup(P, v_star, v0)
    if interior is None or interior[2] < BOUNDARY_MARGIN:
        v0 = _feasible_a_star_point(P, v0)
        for mu in BARRIER_WEIGHTS:
            # each stage starts where the last one stopped, whatever its
            # status
            v0 = _inner_newton_stack(P, v_star[None], v0[None], mu)[0][0]
        # a margin below BOUNDARY_MARGIN puts the argmax on the A*
        # boundary, where its value is the exact barrier-path limit
        interior = _interior_sup(P, v_star, v0)
        if interior is None or interior[2] < -BOUNDARY_MARGIN:
            # an argmax beyond A* puts the sup on A*'s boundary, whatever
            # the end point's own margin
            margin = in_B_star(P, v0).margin
            return J2Result(g1_star(P, v_star) - g2_star(P, v_star, v0), v0,
                            interior is not None or margin < BOUNDARY_MARGIN,
                            margin)
    value, point, margin = interior
    return J2Result(value, point, margin < BOUNDARY_MARGIN, margin)
