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
                                                argmax lies in A*, else
                                                log-det barrier
                                                continuation)

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


def _inner_residual(P, v_star, v0, L):
    """Stationarity residual of the inner sup and the matching x_bar, at a
    point or each row of a stack, given the Cholesky factor L of M(v0)."""
    x_bar = linalg.cho_solve(L, v_star)
    return P.quartic_terms(x_bar) - v0 / P.gamma, x_bar


def _inner_matrix(P, x_bar, L):
    """E(x_bar) = P2 P1 + diag(1/gamma), the negated v0*-Hessian of J*, at
    a point or each row of a stack, given the Cholesky factor L of M(v0)."""
    p1 = P.bx_columns(x_bar)
    E = np.swapaxes(linalg.cho_solve(L, p1), -1, -2) @ p1
    return linalg.symmetrize(E) + np.diag(1.0 / P.gamma)


def _inner_newton_stack(P, v_stars, v0):
    """Damped Newton on the inner stationarity system, on every row of an
    (S, n) stack at once; a single point is a one-row stack.

    Row s starts at v0[s] and holds its iterate and the Cholesky factor
    of M there.  The C* test (that factor), tolerance, iteration budget,
    halving backtrack and strict-decrease test are decided for each row
    alone; a row takes at most NEWTON_MAX_ITER steps, and the iterate of
    each step, the last included, is tested.  Returns (v0, values,
    status): where status[s] is SOLVED, v0[s] is the solution and
    values[s] is J*(v*, v0[s]), formed on the row's factor, or nan and
    OUTSIDE_C_STAR where it fails j_star's eigvalsh-margin C* check.
    Otherwise status[s] is LEFT_C_STAR (the start is outside C*, or no
    trial step both stays in C* and lowers the residual, as where E is
    singular) or NO_CONVERGENCE (the budget ran out), v0[s] is the last
    accepted iterate and values[s] is nan.
    """
    v0 = np.array(v0, dtype=float)
    L, feasible = linalg.cho_factor(P.mixed_matrix(v0))
    status = np.where(feasible, NO_CONVERGENCE, LEFT_C_STAR)
    live = np.flatnonzero(feasible)
    res, x_bar = _inner_residual(P, v_stars[live], v0[live], L[live])
    res_norm = np.max(np.abs(res), axis=1)
    for it in range(linalg.NEWTON_MAX_ITER + 1):
        done = linalg.converged(res_norm, v0[live])
        status[live[done]] = SOLVED
        live, res, x_bar, res_norm = \
            live[~done], res[~done], x_bar[~done], res_norm[~done]
        if live.size == 0 or it == linalg.NEWTON_MAX_ITER:
            break
        step = linalg.solve_rows(_inner_matrix(P, x_bar, L[live]), res)
        pending = np.ones(live.size, dtype=bool)
        for t in linalg.HALVINGS:
            rows = np.flatnonzero(pending)
            cand = v0[live[rows]] + t * step[rows]
            cand_L, feasible = linalg.cho_factor(P.mixed_matrix(cand))
            rows, cand, cand_L = (
                rows[feasible], cand[feasible], cand_L[feasible])
            cand_res, cand_x = _inner_residual(
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
        # a row with no feasible descent step ends LEFT_C_STAR
        status[live[pending]] = LEFT_C_STAR
        live, res, x_bar, res_norm = \
            live[~pending], res[~pending], x_bar[~pending], res_norm[~pending]
    ok = status == SOLVED
    v, v0_ok = v_stars[ok], v0[ok]
    margin, eps = linalg.pd_margin(P.mixed_matrix(v0_ok))
    g2 = _g2_star_solved(P, v, v0_ok, linalg.cho_solve(L[ok], v))
    values = np.full(len(v0), np.nan)
    values[ok] = np.where(margin > eps, g1_star(P, v) - g2, np.nan)
    status[ok & np.isnan(values)] = OUTSIDE_C_STAR
    return v0, values, status


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
    on the other rows, among them every start that fails j_star's C*
    margin test.
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
    res, x_bar = _inner_residual(P, v, s, L)
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
    v0, values, status = _inner_newton_stack(P, v_stars, inits)
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
        tv0, tval, tstatus = _inner_newton_stack(P, vs, starts)
        tok, tval = (tstatus == SOLVED).reshape(-1, k), tval.reshape(-1, k)
        # a converged start that fails the value check fails the row with
        # OUTSIDE_C_STAR; otherwise the first best converged start wins
        outside = (tstatus == OUTSIDE_C_STAR).reshape(-1, k).any(axis=1)
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
    """_j_tilde_star_chunk on one row from v0: (value, argmax, the
    argmax's A* margin), or None where no start solves the inner sup."""
    values, argmaxes, _ = _j_tilde_star_chunk(P, v_star[None], v0[None])
    if np.isnan(values[0]):
        return None
    return float(values[0]), argmaxes[0], in_B_star(P, argmaxes[0]).margin


def _barrier_stage(P, v_star, v0, mu):
    """One barrier stage of j2_star: damped Newton on the stationarity of
    J*(v*, .) + mu logdet S from v0 in A* to 1e-10 (1 + max |v0|), with
    one S^{-1} per point.  Returns the last accepted iterate, whether the
    stage converges, stalls, finds no descent step in A* or runs out of
    budget; raises SingularMatrixError where E + mu T is singular."""
    def evaluate(v0):   # (max |residual|, residual, x_bar, L, S^{-1})
        MS = np.stack([P.mixed_matrix(v0), P.ab_matrix(v0)])
        L, ok = linalg.cho_factor(MS)
        if not ok.all():
            return None
        S_inv = linalg.symmetrize(np.linalg.inv(MS[1]))
        res, x_bar = _inner_residual(P, v_star, v0, L[0])
        res = res + mu * np.einsum("kl,jlk->j", S_inv, P.B)
        return np.max(np.abs(res)), res, x_bar, L[0], S_inv

    at = evaluate(v0)
    for _ in range(linalg.NEWTON_MAX_ITER):
        if at is None or linalg.converged(at[0], v0, 1e-10):
            break
        res_norm, res, x_bar, L, S_inv = at
        # T_ji = tr(S^{-1} B_j S^{-1} B_i), the barrier's matrix
        X = np.einsum("kl,jlm->jkm", S_inv, P.B)
        E = _inner_matrix(P, x_bar, L) + mu * linalg.symmetrize(
            np.einsum("jkm,imk->ji", X, X))
        step = linalg.solve_rows(E[None], res[None])[0]
        if np.isnan(step).any():
            raise SingularMatrixError(
                f"barrier Newton matrix E + mu T is singular at mu = {mu:g}")
        # the halving backtrack, up to the first step that rounds to v0
        cands, at = v0 + linalg.HALVINGS[:, None] * step, None
        for cand in cands[(cands != v0).any(axis=1)]:
            trial = evaluate(cand)
            if trial is not None and trial[0] < res_norm:
                v0, at = cand, trial
                break
    return v0


def j2_star(P, v_star, init=None):
    """Evaluate J2*(v*) = sup over A* of J*(v*, .).

    J*(v*, .) is strictly concave on C* (its negated Hessian is E >=
    diag(1/gamma)), so Jt*'s stationary point in C* is unique: j2_star
    solves for it once, by j_tilde_star's one-chunk solve from ``init``
    or by default from the lift of (K - A)^{-1}(v* + f), and J2*(v*) =
    Jt*(v*) wherever it lies in A*.  Within BOUNDARY_MARGIN of A*'s
    boundary it is still the answer, tagged boundary_attained.  Only
    where no start solves the inner sup, or the point lies beyond A*
    (margin below -BOUNDARY_MARGIN), does a log-det barrier continuation
    run: from a strictly feasible A* point, one _barrier_stage per
    weight in BARRIER_WEIGHTS, each from where the last stopped, then
    the one-chunk solve from the end point where the first found
    nothing.  Beyond A* the sup is on A*'s boundary, and the end point's
    value, g1_star - g2_star there, is returned tagged
    boundary_attained.  Raises AStarEmptyError when no strictly feasible
    A* start is found near ``init``, SingularMatrixError when a barrier
    Newton matrix is singular, and ValidationError("non-finite") for a
    NaN or inf v* or init.
    """
    v_star = _finite(P.require_x(v_star), "v_star")
    v0 = _finite(P.require_v0(init), "init") if init is not None \
        else default_inner_init(P, v_star)
    interior = _interior_sup(P, v_star, v0)
    if interior is None or interior[2] < -BOUNDARY_MARGIN:
        v0 = _feasible_a_star_point(P, v0)
        for mu in BARRIER_WEIGHTS:
            v0 = _barrier_stage(P, v_star, v0, mu)
        # the stationary point is unique: search again only where the
        # first solve found none
        interior = interior or _interior_sup(P, v_star, v0)
        if interior is None or interior[2] < -BOUNDARY_MARGIN:
            margin = in_B_star(P, v0).margin
            return J2Result(g1_star(P, v_star) - g2_star(P, v_star, v0), v0,
                            interior is not None or margin < BOUNDARY_MARGIN,
                            margin)
    value, point, margin = interior
    return J2Result(value, point, margin < BOUNDARY_MARGIN, margin)
