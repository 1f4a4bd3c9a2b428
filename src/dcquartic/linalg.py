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
"""

import numpy as np

SYM_TOL_FACTOR = 1e-12
EPS_PD_FACTOR = 1e-10
TOL_FACTOR = 1e-12  # Newton: residual <= TOL_FACTOR (1 + max |iterate|)


def symmetrize(M):
    """(M + M^T) / 2 of a matrix, or of each matrix of a stack."""
    M = np.asarray(M, dtype=float)
    return 0.5 * (M + M.mT)


def spectrum(M):
    """Return (w, eps): the ascending eigenvalues of the symmetrized
    matrix, or of each matrix of a stack, and the scale-aware
    definiteness threshold EPS_PD_FACTOR (1 + max |w|) of each.

    The matrix counts as positive definite when w[0] > eps and as
    negative definite when w[-1] < -eps.
    """
    w = np.linalg.eigvalsh(symmetrize(M))
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
    return np.maximum.reduce(np.abs(np.linalg.eigvalsh(symmetrize(M))),
                             axis=-1)


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
