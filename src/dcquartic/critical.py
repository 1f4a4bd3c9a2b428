"""Primal critical points and their dual lifts.

A converged primal critical point x0 is lifted to the dual pair

    (vhat0)_j = gamma_j (x0^T B_j x0 / 2 + c_j)
    vhat      = sum_j (vhat0)_j B_j x0 + K x0

which satisfies the dual stationarity system whenever grad J(x0) = 0.
Nothing in the lift requires the solver: lift_to_dual accepts any x0
and reports residuals in both spaces.
"""

import functools
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
# the N = 2 route's test of each |grad_i J| at a seed, relative to the
# sum of its terms' sizes; over the 16 members and 36 stress draws with
# N = 2 and n = 3-4, each point of multistart(P, 400, 11) has a seed that
# polishes to it reading at most 6.0e-3, and without the test, far seeds
# near det S(v) = 0 run the polish to its budget
TWO_PARAMETER_TOL = 0.1
# the N = 2 route's gate on cond(Delta1 - sigma Delta0, 1): the 16
# members read at most 2.1e6; on generate_instance(n, 2, [7, s],
# f_scale=1e-3), n = 3-4, s < 12, the lowest reading at which the route
# lost a multistart(P, 12, 7) point was 2.2e8, while stress draws 139
# and 186 read 1.4e8 and 1.2e8 at their best shifts and fall back
TWO_PARAMETER_MAX_COND = 1e8
# the largest n on the N = 2 route: its eigenproblem has order (2n+1)^2,
# and at n = 5-6 the route took 182 ms over the 13 members, against
# 168 ms for multistart(P, 12, 7)
TWO_PARAMETER_MAX_N = 4
# the Macaulay route's gate on max |X| of its normal form X in y = x / s:
# its n = 2 and n = 3 members read at most 5.5e4 and 1.2e6, and the 54
# stress draws with n = 2, N >= 2 or n = N = 3 at most 4.2e6 (a margin of
# 2.4e5); B_j = blockdiag(b_j, 1e-2), a root near infinity, reads
# 8.4e10-6.2e11 on three draws (a margin of 1.6) and keeps every point,
# and blockdiag(b_j, 1e-6) reads 8.4e34 and would keep 1-2 of 3 points
MACAULAY_MAX_NORMAL_FORM = 1e12


@functools.cache
def _macaulay_layout(n):
    """The Macaulay route's index tables at n, over the monomials x^e,
    |e| <= 2n + 1, of x1, ..., xn (21 at n = 2, 120 at n = 3): the 3^n of
    the basis max e_i <= 2 first, then the rest, each by degree and then
    by e descending.  Each monomial's degree; the (n^3, m3) map from the
    index triples (a, b, c) to the coefficient of x_a x_b x_c among the
    m3 monomials of degree <= 3; the polynomial i and the m3 columns of
    x^mu x^e of each kept row x^mu g_i, by |mu| (12 at n = 2, 93 at
    n = 3); the offsets that split those rows by |mu| = d - 3 and the
    other monomials by degree d into square blocks; and the (n, 3^n)
    columns of x_i times each basis monomial."""
    top = 2 * n + 1
    exponents = np.indices((top + 1,) * n).reshape(n, -1).T[::-1]
    exponents = exponents[np.argsort(exponents.sum(axis=1), kind="stable")]
    degree = exponents.sum(axis=1)
    exponents, degree = exponents[degree <= top], degree[degree <= top]
    shifts = exponents[degree <= top - 3]
    exponents = exponents[np.argsort(exponents.max(axis=1) > 2,
                                     kind="stable")]
    degree = exponents.sum(axis=1)
    column = np.zeros((top + 1,) * n, dtype=int)
    column[tuple(exponents.T)] = np.arange(len(exponents))
    coefficient = np.cumsum(degree <= 3) - 1
    unit = np.eye(n, dtype=int)
    triples = unit[:, None, None] + unit[None, :, None] + unit[None, None, :]
    cube = np.zeros((n**3, coefficient[-1] + 1))
    cube[np.arange(n**3),
         coefficient[column[tuple(triples.reshape(-1, n).T)]]] = 1.0
    # the Koszul syzygies g_i g_j = g_j g_i make the rows x^mu g_i with
    # x_k^3 | x^mu for some k < i dependent
    dropped = [(shifts[:, :i] >= 3).any(axis=1) for i in range(n)]
    mu, poly = np.nonzero(~np.array(dropped).T)
    columns = column[tuple(np.moveaxis(shifts[mu, None]
                                       + exponents[degree <= 3], -1, 0))]
    blocks = np.searchsorted(degree[3**n:], np.arange(2, top + 1),
                             side="right")
    up = column[tuple(np.moveaxis(exponents[:3**n] + unit[:, None], -1, 0))]
    tables = degree, cube, poly, columns, blocks, up
    for table in tables:    # shared by every call through the cache
        table.setflags(write=False)
    return tables


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


def _real_shifted(mu, sigma, finite=0.0):
    """Given the eigenvalues mu of -M^{-1} M1: the real eigenvalues
    v = sigma + 1/mu of the pencil M + (v - sigma) M1, and the mask of
    their mu, the real mu with |mu| > finite max|mu| (mu = 0 is v at
    infinity).  Callers that need no eigenvectors take mu from eigvals."""
    size = np.abs(mu)
    real = ((np.abs(mu.imag) <= PENCIL_TOL * size)
            & (size > finite * size.max()))
    return sigma + 1.0 / mu[real].real, real


def _multiplier_pencils(P):
    """W[j - 1, k], the (2n+1) matrices with W_j(v) = W[j - 1, 0] +
    sum_k v_k W[j - 1, k] = [[-B_j, S(v), 0], [S(v), 0, -f],
    [0, f', 2c_j - 2v_j/gamma_j]] for each multiplier j: W_j(v) is
    singular where v_j = gamma_j w_j(x) at x = -S(v)^{-1} f."""
    n, N = P.n, P.N
    W = np.zeros((N, N + 1, 2 * n + 1, 2 * n + 1))
    W[:, 0, :n, :n], W[:, 0, -1, -1] = -P.B, 2.0 * P.c
    W[:, 0, :n, n:-1] = W[:, 0, n:-1, :n] = P.A
    W[:, 0, n:-1, -1], W[:, 0, -1, n:-1] = -P.f, P.f
    for k in range(1, N + 1):
        W[:, k, :n, n:-1] = W[:, k, n:-1, :n] = P.B[k - 1]
        W[k - 1, k, -1, -1] = -2.0 / P.gamma[k - 1]
    return W


def _pencil_seeds(P):
    """Starts at every critical point of an N = 1 instance, or None when
    no shift in PENCIL_SHIFTS is well conditioned.

    grad J(x) = 0 holds iff S(v) x = -f with v = gamma (x'Bx/2 + c).
    Where S(v) is invertible, these v are the real eigenvalues of the
    (2n+1) pencil M0 + v M1 (_multiplier_pencils), M0 = [[-B, A, 0],
    [A, 0, -f], [0, f', 2c]], M1 = [[0, B, 0], [B, 0, 0],
    [0, 0, -2/gamma]], and every finite x = -S(v)^{-1} f is a seed.
    Where S(v) is singular and f is orthogonal to a null vector z (the
    hard case), x = x_p + alpha z with x_p = -S(v)^+ f the least-norm
    solution, for each real root alpha of v = gamma (x'Bx/2 + c).
    _distinct's polish alone decides which seeds are critical.
    Condition numbers are 1-norm, and S(v)^+ is from eigh: an SVD would
    load unused LAPACK code into memory.
    """
    B, f = P.B[0], P.f
    c, gamma = float(P.c[0]), float(P.gamma[0])
    (M0, M1), = _multiplier_pencils(P)
    for sigma in PENCIL_SHIFTS:
        M, S = M0 + sigma * M1, P.ab_matrix([sigma])
        if max(np.linalg.cond(M, 1), np.linalg.cond(S, 1)) < PENCIL_MAX_COND:
            break
    else:
        return None
    v, _ = _real_shifted(np.linalg.eigvals(-np.linalg.solve(M, M1)), sigma)
    # x = -S(v)^{-1} f per row, NaN (so not kept) where S(v) is singular
    x = linalg.solve_rows(P.ab_matrix(v[:, None]), -np.tile(f, (len(v), 1)))
    seeds = [x[np.isfinite(x).all(axis=1)]]
    scale = PENCIL_TOL * (1.0 + np.abs(f).max())
    mu, vecs = np.linalg.eig(-np.linalg.solve(S, B))
    v_hard, real = _real_shifted(mu, sigma)
    for v_hard, z in zip(v_hard, vecs.T[real].real):
        z = z / np.linalg.norm(z)
        if abs(z @ f) > scale:
            continue
        xp = -np.linalg.pinv(P.ab_matrix([v_hard]), rtol=PENCIL_TOL,
                             hermitian=True) @ f
        alpha = np.roots([0.5 * z @ B @ z, xp @ B @ z,
                          0.5 * xp @ B @ xp + c - v_hard / gamma])
        alpha = alpha[np.abs(alpha.imag) <= PENCIL_TOL * (1.0 + np.abs(alpha))]
        seeds.append(xp + alpha.real[:, None] * z)
    return np.concatenate(seeds)


def _cubic_seeds(P):
    """Starts at every critical point of an n = 1 instance, or None
    where grad J vanishes identically.

    At n = 1 and any N, grad J(x) = alpha x^3 + beta x + f with
    alpha = sum_j gamma_j b_j^2 / 2 and beta = a + sum_j gamma_j b_j c_j,
    and its real roots (np.roots: the companion matrix's eigenvalues,
    real where the imaginary part is within PENCIL_TOL (1 + |r|)) are
    the seeds; _distinct's polish decides, as on every route.  np.roots
    gives a double root only to about sqrt(u), or as a complex pair, so
    the roots +-sqrt(-beta / (3 alpha)) of d2J go first where grad J
    passes linalg.converged there, and _distinct merges np.roots' pair
    into them.
    """
    b = P.B[:, 0, 0]
    # np.sum, not a BLAS dot, so that no BLAS kernel rounds the sums
    coefficients = [0.5 * np.sum(P.gamma * b**2), 0.0,
                    P.A[0, 0] + np.sum(P.gamma * b * P.c), P.f[0]]
    if not any(coefficients):
        return None
    r = np.roots(coefficients)
    seeds = r[np.abs(r.imag) <= PENCIL_TOL * (1.0 + np.abs(r))].real[:, None]
    alpha, beta = coefficients[0], coefficients[2]
    if alpha > 0.0 > beta:
        s = np.sqrt(-beta / (3.0 * alpha)) * np.array([[-1.0], [1.0]])
        g = gradient_from(P, *P._bx_and_w(s))
        seeds = np.concatenate([s[linalg.converged(np.abs(g[:, 0]), s)],
                                seeds])
    return seeds


def _balanced(G, degree):
    """(H, s) for a cubic system grad_i J = sum G[i, ...] x^e with a
    nonzero cubic part, each coefficient's monomial of total degree
    ``degree``: its coefficients H[i, ...] in y = x / s, with s a power
    of two near the size at which the cubic terms balance the others,
    and each polynomial scaled by a power of two to max |H[i]| in
    [1/2, 1)."""
    beta, a, phi = (np.abs(G[:, degree == k]).max() for k in (3, 1, 0))
    s = np.ldexp(1.0, np.frexp(max(np.sqrt(a / beta),
                                   np.cbrt(phi / beta)))[1])
    G = G * s ** degree
    top = np.abs(G).max(axis=tuple(range(1, G.ndim)), keepdims=True)
    return np.ldexp(G, -np.frexp(top)[1]), s


def _two_parameter_seeds(P):
    """Starts at the critical points of an N = 2 instance, or None where
    no shift in PENCIL_SHIFTS passes TWO_PARAMETER_MAX_COND.

    grad J(x) = 0 holds iff S(v) x = -f with v_j = gamma_j w_j(x), so,
    as in _pencil_seeds, the two (2n+1) matrices W_j(v) = W_j0 +
    v_1 W_j1 + v_2 W_j2 of _multiplier_pencils are singular together:
    a two-parameter eigenvalue problem.  Its v_1 are the eigenvalues of
    Delta1 z = v_1 Delta0 z, with the
    operator determinants Delta0 = W_11 (x) W_22 - W_12 (x) W_21,
    Delta1 = W_12 (x) W_20 - W_10 (x) W_22 and Delta2 = W_10 (x) W_21 -
    W_11 (x) W_20 of size (2n+1)^2, solved shift-inverted with
    _real_shifted less those at infinity (|mu| <= PENCIL_TOL max|mu|);
    v_2 is the least-squares quotient of Delta2 z = v_2 Delta0 z.  Each
    finite x = -S(v)^{-1} f is a seed where every |grad_i J| is within
    TWO_PARAMETER_TOL of the sum of its terms' sizes, |A x|_i +
    sum_j gamma_j |w_j (B_j x)_i| + |f_i|; _distinct's polish decides,
    as on every route.
    """
    f = P.f
    (W10, W11, W12), (W20, W21, W22) = _multiplier_pencils(P)
    D0 = np.kron(W11, W22) - np.kron(W12, W21)
    D1 = np.kron(W12, W20) - np.kron(W10, W22)
    D2 = np.kron(W10, W21) - np.kron(W11, W20)
    for sigma in PENCIL_SHIFTS:
        M = D1 - sigma * D0
        if np.linalg.cond(M, 1) < TWO_PARAMETER_MAX_COND:
            break
    else:
        return None
    mu, vecs = np.linalg.eig(-np.linalg.solve(M, -D0))
    v1, real = _real_shifted(mu, sigma, PENCIL_TOL)
    z = vecs.T[real].real
    d0z, d2z = z @ D0.T, z @ D2.T
    v = np.stack([v1, np.vecdot(d0z, d2z) / np.vecdot(d0z, d0z)], axis=1)
    # x = -S(v)^{-1} f per row, NaN (so not kept) where S(v) is singular
    x = linalg.solve_rows(P.ab_matrix(v), -np.tile(f, (len(v), 1)))
    x = x[np.isfinite(x).all(axis=1)]
    bx, w = P._bx_and_w(x)
    terms = (np.abs(bx[:, -1]) + np.abs(f) + np.vecdot(
        np.abs(bx[:, :-1]).mT, np.abs(P.gamma * w)[:, None, :]))
    keep = (np.abs(gradient_from(P, bx, w))
            <= TWO_PARAMETER_TOL * terms).all(axis=1)
    return x[keep]


def _macaulay_seeds(P):
    """Starts at every critical point of an n = 2 or n = 3 instance, or
    None where grad_1 J has no x1^3 term (every B_j[0, 0] = 0) or the
    normal form below is singular or exceeds MACAULAY_MAX_NORMAL_FORM,
    as at a continuum of critical points or a solution at infinity.

    grad_i J = g_i is a cubic: its linear terms are S = A + sum_j
    gamma_j c_j B_j, its constant f_i and its cubic terms
    sum_j (gamma_j / 2)(x'B_j x) B_j x.  By Bezout the n cubics have 3^n
    common roots in complex projective space; at N >= n, n generic
    quadrics x'B_j x share no isotropic vector, and no root lies at
    infinity.  The degree-(2n+1) Macaulay matrix M has the rows x^mu g_i,
    |mu| <= 2n - 2, over the monomials of degree <= 2n + 1
    (_macaulay_layout), less the rows that the Koszul syzygies
    g_i g_j = g_j g_i make dependent (x^mu g_i with x_k^3 | x^mu for a
    k < i: none at n = 2, 12 at n = 3): 12 x 21 at n = 2 and 93 x 120 at
    n = 3.  With its columns split as M = [M_B, M_rest] at the basis
    B = {x^e : max e_i <= 2}, its null space, spanned by the roots'
    monomial vectors, is N = [I; X], X = -M_rest^{-1} M_B: each
    monomial's normal form on B (Telen, Mourrain & Van Barel, SIAM J.
    Matrix Anal. Appl. 39, 2018).  With the rows by |mu|, M_rest is block
    lower triangular by degree and is solved one degree at a time; its
    square diagonal blocks hold the cubic terms alone, which a continuum
    of roots or a root at infinity makes singular.  Each eigenvector z of
    the 3^n x 3^n sum_i h_i N[x_i B], for the generic linear shift
    h_i = PENCIL_SHIFTS[i], gives a root x_i = <z, N[x_i B] z> / <z, z>,
    a seed where every |Im x_i| is within PENCIL_TOL (1 + |x_i|).  The
    polynomials are solved in y = x / s (_balanced); _distinct's polish
    decides, as on every route.
    """
    n = P.n
    degree, cube, poly, columns, blocks, up = _macaulay_layout(n)
    T = np.einsum("j,jab,jic->iabc", 0.5 * P.gamma, P.B, P.B)
    if not T[0, 0, 0, 0]:    # the x1^3 coefficient of g_1
        return None
    G = T.reshape(n, -1) @ cube
    G[:, 0], G[:, 1:n + 1] = P.f, P.ab_matrix(P.gamma * P.c)
    G, s = _balanced(G, degree[degree <= 3])
    M = np.zeros((len(poly), len(degree)))
    M[np.arange(len(M))[:, None], columns] = G[poly]
    b = len(up.T)
    X = -M[:, :b]
    for lo, hi in zip(blocks, blocks[1:]):
        try:
            X[lo:hi] = np.linalg.solve(M[lo:hi, b + lo:b + hi],
                                       X[lo:hi] - M[lo:hi, b:b + lo] @ X[:lo])
        except np.linalg.LinAlgError:
            return None
    if not np.abs(X).max() <= MACAULAY_MAX_NORMAL_FORM:    # or NaN
        return None
    shifted = np.concatenate([np.eye(b), X])[up]
    _, Z = np.linalg.eig(np.einsum("i,irk->rk", PENCIL_SHIFTS[:n], shifted))
    y = np.vecdot(Z.T, (shifted @ Z).mT) / np.vecdot(Z.T, Z.T)
    real = (np.abs(y.imag) <= PENCIL_TOL * (1.0 + np.abs(y))).all(axis=0)
    return s * y.T[real].real


def find_critical_points(P, n_seeds, rng_seed):
    """Distinct critical points, polished, merged and sorted by _distinct.

    The route is chosen by (n, N) alone:
      - n = 1: the real roots of the cubic grad J (_cubic_seeds), for
        every N;
      - N = 1, n >= 2: one (2n+1) eigenproblem (_pencil_seeds);
      - n = 2, N >= 2, and n = 3, N >= 3: the normal form of one
        Macaulay matrix on the 3^n monomials max e_i <= 2, 12 x 21 at
        n = 2 and 93 x 120 at n = 3, solved degree by degree
        (_macaulay_seeds);
      - N = 2, 3 <= n <= TWO_PARAMETER_MAX_N: one (2n+1)^2
        two-parameter eigenproblem (_two_parameter_seeds);
      - otherwise multistart(P, n_seeds, rng_seed), which is also the
        fallback where a route returns None (grad J = 0 identically at
        n = 1; no well-conditioned pencil shift, as when A and B share a
        null vector, or when the two-parameter problem fails
        TWO_PARAMETER_MAX_COND at every shift, as at f = 0; a normal
        form that is singular or exceeds MACAULAY_MAX_NORMAL_FORM at
        n = 2-3, as on a continuum of critical points or with a solution
        at infinity).
    A route's seeds go to _distinct.  n_seeds must be a non-negative
    integer on every route, and 0 asks for no point, as in multistart.
    """
    count = _count(n_seeds, "n_seeds")
    route = (_cubic_seeds if P.n == 1 else _pencil_seeds if P.N == 1
             else _macaulay_seeds if P.n == 2 or P.n == 3 and P.N >= 3
             else _two_parameter_seeds
             if P.N == 2 and P.n <= TWO_PARAMETER_MAX_N else None)
    seeds = route(P) if route and count else None
    if seeds is None:
        return multistart(P, n_seeds, rng_seed)
    # + 0.0 turns a -0 (as -S(v)^{-1} f gives at f = 0) into +0
    return _distinct(P, seeds + 0.0)


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
    per distinct point from find_critical_points."""
    result = find_critical_points(P, n_seeds, rng_seed)
    return _lift_stack(P, np.reshape(result.points, (-1, P.n)))
