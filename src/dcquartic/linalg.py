"""Small dense symmetric linear-algebra helpers.

Reported checks are eigenvalue based: positive definiteness is decided
by the smallest eigenvalue against a scale-aware margin, and reported
margins always come from ``spectrum``.  ``symmetrize``, ``spectrum``,
``pd_margin``, ``spectral_norm_sym``, ``frobenius_norm``, ``cho_factor``
and ``cho_solve`` take a matrix or an (S, n, n) stack, and each matrix
of a stack gets the result it would get alone.  Inside iteration loops
Cholesky is the feasibility probe: one factorization either comes back,
and is then used for the solves, or fails on a pivot that is not
positive.  The Cholesky pair is written in numpy, one dot per entry, so
a matrix or a right-hand side column is computed the same way alone or
in a stack.

On 1 x 1 matrices ``spectrum``, ``cho_factor`` and ``cho_solve`` take a
closed form, chosen from the input's shape, that gives the general
path's bits for every input: LAPACK returns a 1 x 1 matrix's entry as
its eigenvalue, and the loops' one pivot and two sweeps subtract an
empty dot, 0.0, which changes no float.  So at order 1 no eigenvalue
reaches LAPACK and no Cholesky loop runs.
"""

import numpy as np

SYM_TOL_FACTOR = 1e-12
EPS_PD_FACTOR = 1e-10
TOL_FACTOR = 1e-12  # converged's default factor
# the budget of both damped-Newton loops and of each line search
NEWTON_MAX_ITER = 100
NEWTON_MAX_BACKTRACKS = 40
# t0 * 2^-k is exact, so row k is the float that k halvings of t0 give
HALVINGS = np.ldexp(1.0, -np.arange(NEWTON_MAX_BACKTRACKS))


def converged(residual, iterate, factor=TOL_FACTOR):
    """Newton's test, per row: residual <= factor (1 + max |iterate|)."""
    return residual <= factor * (1.0 + np.maximum.reduce(np.abs(iterate), -1))


def solve_rows(H, b):
    """Solve H d = b for each row of an (R, n, n) and (R, n) stack; a row
    whose solve raises gets NaN.

    np.linalg.solve raises for the whole stack when one matrix is
    singular, so then each row is solved as a one-row stack.
    """
    try:
        return np.linalg.solve(H, b[..., None])[..., 0]
    except np.linalg.LinAlgError:
        if len(H) == 1:
            return np.full_like(b, np.nan)
        return np.concatenate([solve_rows(H[i:i + 1], b[i:i + 1])
                               for i in range(len(H))])


def symmetrize(M):
    """(M + M^T) / 2 of a matrix, or of each matrix of a stack; M / 2 +
    M^T / 2 where M + M^T overflows, whose halves cannot be subnormal."""
    M = np.asarray(M, dtype=float)
    with np.errstate(over="ignore"):
        S = 0.5 * (M + M.mT)
    big = np.isinf(S)   # where M itself holds an inf, both forms agree
    if big.any():
        S[big] = 0.5 * M[big] + 0.5 * M.mT[big]
    return S


def spectrum(M):
    """Return (w, eps): the ascending eigenvalues of the symmetrized
    matrix, or of each matrix of a stack, and the scale-aware
    definiteness threshold EPS_PD_FACTOR (1 + max |w|) of each.

    The matrix counts as positive definite when w[0] > eps and as
    negative definite when w[-1] < -eps.
    """
    S = symmetrize(M)
    # the entry itself: S[..., 0] + 0.0 would turn -0.0 into +0.0
    w = S[..., 0].copy() if S.shape[-1] == 1 else np.linalg.eigvalsh(S)
    return w, EPS_PD_FACTOR * (1.0 + np.abs(w).max(-1))


def pd_margin(M):
    """Return (smallest eigenvalue, eps) of a matrix, or two arrays for
    a stack; positive definite when margin > eps."""
    w, eps = spectrum(M)
    return w[..., 0], eps


def cho_factor(M):
    """Lower Cholesky factor of a matrix, or of each matrix of a stack,
    decided per matrix.

    Returns (L, ok).  ok is True where every pivot is positive (strictly
    positive definite), a 0-D array for one matrix, and L is the factor
    only where ok.  A stacked np.linalg.cholesky raises for the whole
    stack when one matrix fails; here that matrix fails alone.
    """
    M = np.asarray(M, dtype=float)
    if M.shape[-1] == 1:   # the loop at n = 1, whose pivot is M - 0.0
        ok = np.asarray(M[..., 0, 0] > 0.0)
        return np.sqrt(np.where(ok[..., None, None], M, 1.0)), ok
    L = np.zeros_like(M)
    ok = np.ones(M.shape[:-2], dtype=bool)
    # a dot that overflows makes its pivot -inf or nan, which fails the
    # pivot test like any other pivot that is not positive
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(M.shape[-1]):
            row = L[..., k, :k]
            pivot = M[..., k, k] - np.vecdot(row, row)
            ok &= pivot > 0.0
            L[..., k, k] = np.sqrt(np.where(ok, pivot, 1.0))
            L[..., k + 1:, k] = (
                M[..., k + 1:, k]
                - np.vecdot(L[..., k + 1:, :k], row[..., None, :])
            ) / L[..., k, k, None]
    return L, ok


def cho_solve(L, b):
    """Solve L L^T x = b for a Cholesky factor or each factor of a stack;
    b is (..., n) or (..., n, m).  Each column of b is solved as a row of
    its own, so its result does not depend on the other columns."""
    b = np.asarray(b, dtype=float)
    if b.ndim == L.ndim:
        columns = np.swapaxes(b, -1, -2)
        return np.swapaxes(cho_solve(L[..., None, :, :], columns), -1, -2)
    if L.shape[-1] == 1:   # both sweeps at n = 1
        return b / L[..., 0] / L[..., 0]
    x = b.copy()
    diag = np.diagonal(L, axis1=-2, axis2=-1)
    for i in range(L.shape[-1]):
        x[..., i] = (x[..., i] - np.vecdot(L[..., i, :i], x[..., :i])
                     ) / diag[..., i]
    for i in reversed(range(L.shape[-1])):
        x[..., i] = (x[..., i] - np.vecdot(L[..., i + 1:, i], x[..., i + 1:])
                     ) / diag[..., i]
    return x


def spectral_norm_sym(M):
    """max |eigenvalue| of a symmetric matrix, or of each matrix of a
    stack."""
    return np.maximum.reduce(np.abs(spectrum(M)[0]), axis=-1)


def inertia(w, eps):
    """(n_pos, n_neg, n_zero) eigenvalue counts from a spectrum (w, eps)
    = spectrum(M), or an (S, 3) array of counts from a stacked one.

    Eigenvalues within the scale-aware PD margin eps of zero count as
    zero.
    """
    eps = np.asarray(eps)[..., None]
    n_pos, n_neg = (w > eps).sum(-1), (w < -eps).sum(-1)
    counts = np.stack([n_pos, n_neg, w.shape[-1] - n_pos - n_neg], axis=-1)
    return tuple(counts.tolist()) if counts.ndim == 1 else counts


def frobenius_norm(M):
    """np.linalg.norm(M, "fro") of a matrix, or of each matrix of a
    stack, bit for bit for C-ordered input: the square root of one dot
    of the entries."""
    M = np.asarray(M, dtype=float)
    flat = M.reshape(M.shape[:-2] + (M.shape[-2] * M.shape[-1],))
    return np.sqrt(np.vecdot(flat, flat))


def ball_samples(rng, center, radius, count):
    """Uniform samples from the closed Euclidean ball around ``center``,
    (count, n); or, for a (k, n) stack of centers and k radii, (k, count,
    n).  The balls of a stack share one draw of directions and radial
    fractions, so ball i is the one that center i and radius i get alone
    from the same rng state."""
    center = np.asarray(center, dtype=float)
    n = center.shape[-1]
    directions = rng.standard_normal((count, n))
    norms = np.linalg.norm(directions, axis=1)
    norms[norms == 0.0] = 1.0
    radii = np.multiply.outer(radius, rng.random(count) ** (1.0 / n))
    return center[..., None, :] + directions * (radii / norms)[..., None]
