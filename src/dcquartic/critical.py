"""Primal critical points and their dual lifts.

A converged primal critical point x0 is lifted to the dual pair

    (vhat0)_j = gamma_j (x0^T B_j x0 / 2 + c_j)
    vhat      = sum_j (vhat0)_j B_j x0 + K x0

which satisfies the dual stationarity system whenever grad J(x0) = 0.
Nothing in the lift requires the solver: lift_to_dual accepts any x0
and reports residuals in both spaces.
"""

import numbers
from dataclasses import dataclass
from typing import List

import numpy as np

from . import linalg
from .conjugates import (
    Membership,
    _g2_star_solved,
    _memberships,
    g1_star,
    recover_primal,
)
from .errors import DualityError, OutsideCstarError
from .problem import (
    _finite,
    gradient_from,
    hessian_from,
    primal_gradient,
    primal_value,
)

DEDUP_DISTANCE = 1e-6
# the N = 1 route's shifts, tried in order; far from round numbers, so
# that hand-made instances rarely make M0 + sigma M1 or S(sigma) singular
PENCIL_SHIFTS = (0.5772, -1.2021, 2.6855, -3.3599)
PENCIL_MAX_COND = 1e10
PENCIL_TOL = 1e-8


@dataclass(frozen=True)
class SolveResult:
    x0: np.ndarray
    converged: bool
    iterations: int
    grad_norm: float


@dataclass(frozen=True)
class CriticalPair:
    """A primal point with its lifted dual point and residuals.

    ``c_star`` and ``b_star`` are the C* and B* memberships of vhat0
    (M(vhat0) and S(vhat0) positive definite), decided once at the lift,
    as are ``J`` = J(x0), ``J_star`` = J*(vhat, vhat0), ``m_factor``,
    the lower Cholesky factor of M(vhat0), and ``d2j`` = d2J(x0) with
    ``d2j_spectrum`` = linalg.spectrum(d2j).  ``J_star``, ``m_factor``,
    ``dual_residual_vstar`` and ``dual_residual_v0`` are NaN when the
    lifted multiplier is outside C* (they need M(vhat0)^{-1}).
    """

    x0: np.ndarray
    v_hat: np.ndarray
    v0_hat: np.ndarray
    c_star: Membership
    b_star: Membership
    primal_residual: float
    dual_residual_vstar: float
    dual_residual_v0: float
    J: float
    J_star: float
    m_factor: np.ndarray
    d2j: np.ndarray
    d2j_spectrum: tuple    # (eigenvalues, eps)

    @property
    def converged(self):
        # the solver's test; the lift recomputes its residual bit for bit
        return bool(linalg.converged(self.primal_residual, self.x0))


def _backtrack(P, x, d, t0, g_norm):
    """For each row of the (R, n) stack x: the first x + t d,
    t = t0, t0/2, ..., whose max |grad J| is below that row's g_norm
    (t0 a float, or one per row).

    Returns (found, x_new, g_new, gn_new, bx_new, w_new): per row,
    whether there is such a step, and the step with its gradient, that
    gradient's max |.| and its (B_j x and A x rows, w) for the next
    Hessian (meaningless where not found).  All R x 40 trial steps go
    through one stacked P._bx_and_w, one gemv per row, and one gradient.
    Their rows are the single point's bits, so each pick is the
    one-at-a-time halving loop's.  Past the full step (about 1 in 6), the
    accepted depths spread almost evenly, so trying t0 first is slower.
    """
    t = np.multiply.outer(t0, linalg.HALVINGS)[..., None]
    flat = (x[:, None, :] + t * d[:, None, :]).reshape(-1, P.n)
    bx, w = P._bx_and_w(flat)
    g = gradient_from(P, bx, w)
    gn = np.maximum.reduce(np.abs(g), axis=1)
    below = gn.reshape(len(x), -1) < g_norm[:, None]
    # each row's first trial below g_norm, else its first trial, which
    # then is not below: one flat index into the R x 40 trials
    pick = np.arange(0, gn.size, below.shape[1]) + below.argmax(axis=1)
    gn = gn[pick]
    return gn < g_norm, flat[pick], g[pick], gn, bx[pick], w[pick]


def _solve_stack(P, X):
    """Damped Newton on grad J from each row of the (S, n) stack X, in
    lockstep, with backtracking on the gradient norm; one SolveResult
    per row.

    Each iteration takes one stacked Hessian, solve and line search over
    the running rows, and forms B_j x and A x once, one gemv per row:
    the Hessian is built from the (B_j x and A x rows, w) that the last
    line search computed at its accepted rows, with their gradients and
    max |grad J|.  Only the running rows are carried, as compact arrays,
    and a row's result is written once, when it leaves.  A row leaves
    when it converges or its line search fails; its result is the one it
    would get alone.  A failed Newton line search (as at a singular
    Hessian's NaN step: no NaN trial is below max |grad J|) is retried
    once along -grad J, scaled by 1 / (1 + |H|_2) and kept only where
    max |grad J| falls.  Never raises for a singular Hessian: an
    unconverged row returns its last iterate, the best one since each
    accepted step lowers max |grad J|.
    ``iterations`` counts the Newton iterations run, including a last
    one whose line search failed.
    """
    x = np.array(X, dtype=float)
    x0, grad_norm = np.empty_like(x), np.empty(len(x))
    iterations = np.empty(len(x), dtype=int)
    converged = np.zeros(len(x), dtype=bool)
    rows = np.arange(len(x))
    bx, w = P._bx_and_w(x)
    g = gradient_from(P, bx, w)
    gn = np.maximum.reduce(np.abs(g), axis=1)
    for it in range(linalg.NEWTON_MAX_ITER + 1):
        done = linalg.converged(gn, x)
        leave = done | (it == linalg.NEWTON_MAX_ITER)
        if np.logical_or.reduce(leave):
            out, stay = rows[leave], ~leave
            x0[out], grad_norm[out], iterations[out] = x[leave], gn[leave], it
            converged[out] = done[leave]
            rows, x, g, gn, bx, w = (a[stay] for a in (rows, x, g, gn, bx, w))
        if not rows.size:
            break
        H = hessian_from(P, bx, w)
        found, *new = _backtrack(P, x, linalg.solve_rows(H, -g), 1.0, gn)
        if np.logical_and.reduce(found):
            x, g, gn, bx, w = new
            continue
        # try steepest descent on J once before giving up
        retry = ~found
        t = 1.0 / (1.0 + linalg.spectral_norm_sym(H[retry]))
        found[retry], *redo = _backtrack(P, x[retry], -g[retry], t, gn[retry])
        for a, b in zip(new, redo):
            a[retry] = b
        out = rows[~found]
        x0[out], grad_norm[out] = x[~found], gn[~found]
        iterations[out] = it + 1
        rows, (x, g, gn, bx, w) = rows[found], (a[found] for a in new)
    return [SolveResult(x, bool(c), int(its), float(gn)) for x, c, its, gn
            in zip(x0, converged, iterations, grad_norm)]


def solve_primal_critical(P, x_init):
    """Damped Newton on grad J from one start: row 0 of a one-row
    _solve_stack.  Raises ValidationError("non-finite") for a NaN or
    inf start."""
    return _solve_stack(P, _finite(P.require_x(x_init), "x_init")[None])[0]


@dataclass(frozen=True)
class MultistartResult:
    points: List[np.ndarray]
    iterations: List[int]
    n_dropped: int
    n_merged: int


def _count(value, name):
    """value as an int; ValueError unless it is a non-negative integer
    (a bool is not)."""
    if (not isinstance(value, numbers.Integral) or isinstance(value, bool)
            or value < 0):
        raise ValueError(
            f"{name} must be a non-negative integer, got {value!r}")
    return int(value)


def _starts(P, n_seeds, rng_seed):
    count = _count(n_seeds, "n_seeds")
    rng = np.random.default_rng(rng_seed)
    scale = 1.0 + float(np.linalg.norm(P.f)) / (1.0 + P.kma_min_eig)
    return scale * rng.standard_normal((count, P.n))


def _distinct(P, X):
    """Polish the rows of X as one _solve_stack; drop the unconverged
    rows, merge a converged point y into an earlier x within inf-distance
    DEDUP_DISTANCE min(1, max(|x|, |y|, DEDUP_DISTANCE)), relative below
    1, and sort by (J, x) so that equal inputs agree exactly."""
    found, iterations, n_dropped, n_merged = [], [], 0, 0
    for result in _solve_stack(P, X):
        y, y_max = result.x0, np.max(np.abs(result.x0))
        if not result.converged:
            n_dropped += 1
        elif any(np.max(np.abs(x - y)) <= DEDUP_DISTANCE
                 * min(1.0, max(np.max(np.abs(x)), y_max, DEDUP_DISTANCE))
                 for x in found):
            n_merged += 1
        else:
            found.append(y)
            iterations.append(result.iterations)
    values = primal_value(P, np.reshape(found, (-1, P.n)))
    order = sorted(range(len(found)),
                   key=lambda i: (values[i], tuple(found[i])))
    return MultistartResult([found[i] for i in order],
                            [iterations[i] for i in order],
                            n_dropped, n_merged)


def multistart(P, n_seeds, rng_seed):
    """Deterministic multistart search for distinct critical points.

    Starts are centered Gaussians with scale 1 + |f| / (1 + lmin(K - A)),
    polished, merged and sorted by _distinct, so two runs with the same
    seed agree exactly.  n_seeds must be a non-negative integer
    (ValueError otherwise).
    """
    return _distinct(P, _starts(P, n_seeds, rng_seed))


def _real_shifted(M, M1, sigma):
    """The real eigenvalues v of the pencil M + (v - sigma) M1, from
    mu = eig(-M^{-1} M1) as v = sigma + 1/mu over the real mu != 0, with
    their eigenvectors as rows."""
    mu, vecs = np.linalg.eig(-np.linalg.solve(M, M1))
    real = (np.abs(mu.imag) <= PENCIL_TOL * np.abs(mu)) & (mu != 0)
    return sigma + 1.0 / mu[real].real, vecs.T[real].real


def _pencil_seeds(P):
    """Starts at every critical point of an N = 1 instance, or None when
    no shift in PENCIL_SHIFTS is well conditioned.

    grad J(x) = 0 holds iff S(v) x = -f with v = gamma (x'Bx/2 + c).
    Where S(v) is invertible, these v are the real eigenvalues of the
    (2n+1) pencil M0 + v M1, M0 = [[-B, A, 0], [A, 0, -f], [0, f', 2c]],
    M1 = [[0, B, 0], [B, 0, 0], [0, 0, -2/gamma]], and every finite
    x = -S(v)^{-1} f is a seed.  Where S(v) is singular and f is
    orthogonal to a null vector z (the hard case), x = x_p + alpha z
    with x_p = -S(v)^+ f the least-norm solution, for each real root
    alpha of v = gamma (x'Bx/2 + c).  _distinct's polish alone decides
    which seeds are critical.  Condition numbers are 1-norm, and S(v)^+
    is from eigh: an SVD would load unused LAPACK code into memory.
    """
    n, A, B, f = P.n, P.A, P.B[0], P.f
    c, gamma = float(P.c[0]), float(P.gamma[0])
    M0 = np.zeros((2 * n + 1, 2 * n + 1))
    M1 = np.zeros_like(M0)
    M0[:n, :n], M0[:n, n:-1], M0[n:-1, :n] = -B, A, A
    M0[n:-1, -1], M0[-1, n:-1], M0[-1, -1] = -f, f, 2.0 * c
    M1[:n, n:-1], M1[n:-1, :n], M1[-1, -1] = B, B, -2.0 / gamma
    for sigma in PENCIL_SHIFTS:
        M, S = M0 + sigma * M1, P.ab_matrix([sigma])
        if max(np.linalg.cond(M, 1), np.linalg.cond(S, 1)) < PENCIL_MAX_COND:
            break
    else:
        return None
    v, _ = _real_shifted(M, M1, sigma)
    # x = -S(v)^{-1} f per row, NaN (so not kept) where S(v) is singular
    x = linalg.solve_rows(P.ab_matrix(v[:, None]), -np.tile(f, (len(v), 1)))
    seeds = [x[np.isfinite(x).all(axis=1)]]
    scale = PENCIL_TOL * (1.0 + np.abs(f).max())
    for v_hard, z in zip(*_real_shifted(S, B, sigma)):
        z = z / np.linalg.norm(z)
        if abs(z @ f) > scale:
            continue
        xp = -np.linalg.pinv(P.ab_matrix([v_hard]), rtol=PENCIL_TOL,
                             hermitian=True) @ f
        alpha = np.roots([0.5 * z @ B @ z, xp @ B @ z,
                          0.5 * xp @ B @ xp + c - v_hard / gamma])
        alpha = alpha[np.abs(alpha.imag) <= PENCIL_TOL * (1.0 + np.abs(alpha))]
        seeds.append(xp + alpha.real[:, None] * z)
    # + 0.0 turns the -0 that -S^{-1} f gives at f = 0 into +0
    return np.concatenate(seeds) + 0.0


def find_critical_points(P, n_seeds, rng_seed):
    """Distinct critical points, polished, merged and sorted by _distinct.

    At N = 1 every critical point comes from one (2n+1) eigenproblem
    (_pencil_seeds), whose seeds go to _distinct; n_seeds must still be
    a non-negative integer, and 0 asks for no point, as in multistart.
    At N >= 2, or at N = 1 when no shift is well conditioned (as when A
    and B share a null vector), this is multistart(P, n_seeds, rng_seed).
    """
    count = _count(n_seeds, "n_seeds")
    seeds = _pencil_seeds(P) if P.N == 1 and count else None
    if seeds is None:
        return multistart(P, n_seeds, rng_seed)
    return _distinct(P, seeds)


def _lift_stack(P, X):
    """Lift each row of the (S, n) stack X to its CriticalPair: each
    kernel runs once on the stack (the M(vhat0) factor, J* and the
    residuals on the rows inside C*, d2J(x0) and its spectrum on every
    row), and each row gets the bits it gets alone.  Raises DualityError
    at the first row that fails the lift, and LinAlgError where M(vhat0)
    does not factor at a row inside C*."""
    X = P.require_points(X)
    bx, w = P._bx_and_w(X)
    v0_hat = P.gamma * w
    kx = (P.K @ X[..., None])[..., 0]
    v_hat = (bx[:, :-1].mT @ v0_hat[..., None])[..., 0] + kx
    # primal_gradient, not gradient_from(P, bx, w), which gives the same
    # bits: this is the report path's one primal_gradient call, and
    # bench/selftest.py requires problem.gradient_calls > 0
    g = primal_gradient(P, X)
    primal_residual = np.max(np.abs(g), axis=-1)
    M = P.mixed_matrix(v0_hat)
    c_star = _memberships(M)
    b_star = _memberships(P.ab_matrix(v0_hat))
    inside = np.array([m.inside for m in c_star], dtype=bool)
    # a margin above eps is far above where a Cholesky pivot can fail
    L, ok = linalg.cho_factor(M[inside])
    if not ok.all():
        raise np.linalg.LinAlgError("matrix is not positive definite")
    m_factor = np.full_like(M, np.nan)
    m_factor[inside] = L
    j_star, r_vstar, r_v0 = np.full((3, len(X)), np.nan)
    v, v0 = v_hat[inside], v0_hat[inside]
    x = linalg.cho_solve(L, v)
    j_star[inside] = g1_star(P, v) - _g2_star_solved(P, v, v0, x)
    r_vstar[inside], r_v0[inside] = _stationarity_residuals(
        P, X[inside], v, v0, x)
    d2j = hessian_from(P, bx, w)
    d2j_w, d2j_eps = linalg.spectrum(d2j)

    # vhat = (K - A) x0 - f + grad J(x0) holds at any x0; at a converged
    # row a disagreement means lift and gradient code have diverged
    drift = np.max(np.abs(v_hat - ((-P.A @ X[..., None])[..., 0] + kx - P.f)
                          - g), axis=-1)
    broken = (primal_residual <= 1e-8) & (
        drift > 1e-9 * (1.0 + np.max(np.abs(v_hat), axis=-1)))
    if broken.any():
        raise DualityError(f"lift identity violated by "
                           f"{drift[broken][0]:.3e} at a converged point")
    return [CriticalPair(*row) for row in zip(
        X, v_hat, v0_hat, c_star, b_star, primal_residual.tolist(),
        r_vstar.tolist(), r_v0.tolist(), primal_value(P, X).tolist(),
        j_star.tolist(), m_factor, d2j, zip(d2j_w, d2j_eps))]


def lift_to_dual(P, x0):
    """Lift a primal point to its dual pair: a one-row _lift_stack.
    Raises ValidationError("non-finite") for a NaN or inf point."""
    return _lift_stack(P, _finite(P.require_x(x0), "x0")[None])[0]


def _stationarity_residuals(P, x0, v_hat, v0_hat, x):
    """The two dual stationarity residuals at a pair, or per stack row,
    given x = M(v0_hat)^{-1} v_hat: max |xbar(v_hat) - x| and
    max |w(x0) - v0_hat / gamma|.

    At a lifted pair neither is independent evidence.  The lift sets
    v_hat = M(v0_hat) x0, so x is x0 up to rounding, and since
    v_hat = (K - A) x0 - f + grad J(x0), the first is
    |(K - A)^{-1} grad J(x0)|inf (trifecta at x0 = 1: 0.5 / 2 = 0.25).
    The lift sets v0_hat = gamma w(x0), so the second is 0 up to
    rounding (at most 4.4e-16 over the 373 C* pairs of the acceptance
    ensemble's find_critical_pairs(P, 12, 7)).
    """
    return [np.max(np.abs(r), axis=-1)
            for r in (recover_primal(P, v_hat) - x,
                      P.quartic_terms(x0) - v0_hat / P.gamma)]


def dual_stationarity_residual(P, pair):
    """Residuals of the two dual stationarity identities at a pair: a
    scaled primal gradient and a rounding-level 0 at a lifted pair (see
    _stationarity_residuals)."""
    if not pair.c_star.inside:
        raise OutsideCstarError("lifted multiplier is outside C*")
    return tuple(map(float, _stationarity_residuals(
        P, pair.x0, pair.v_hat, pair.v0_hat,
        linalg.cho_solve(pair.m_factor, pair.v_hat))))


def find_critical_pairs(P, n_seeds, rng_seed):
    """find_critical_points followed by one stacked dual lift, one pair
    per distinct point: at N = 1 from the (2n+1) eigenproblem, else from
    multistart."""
    result = find_critical_points(P, n_seeds, rng_seed)
    return _lift_stack(P, np.reshape(result.points, (-1, P.n)))
