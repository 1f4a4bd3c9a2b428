"""Small dense symmetric linear-algebra helpers.

Reported checks are eigenvalue based: positive definiteness is decided
by the smallest eigenvalue against a scale-aware margin, and reported
margins always come from ``spectrum``.  ``symmetrize``, ``spectrum`` and
``pd_margin`` take a matrix or an (S, n, n) stack, and each matrix of a
stack gets the result it would get alone.  Inside iteration loops Cholesky
is the feasibility probe: one factorization either comes back, and is
then used for the solves, or fails on a pivot that is not positive
(``pd_factor``, and ``cholesky_stack`` per matrix of a stack).
"""

import numpy as np
import scipy.linalg

SYM_TOL_FACTOR = 1e-12
EPS_PD_FACTOR = 1e-10
TOL_FACTOR = 1e-12  # Newton: residual <= TOL_FACTOR (1 + max |iterate|)


def sym_deviation(M):
    """max |M - M^T|, the absolute asymmetry of a square matrix."""
    M = np.asarray(M, dtype=float)
    return float(np.max(np.abs(M - M.T))) if M.size else 0.0


def is_symmetric(M):
    M = np.asarray(M, dtype=float)
    scale = float(np.max(np.abs(M))) if M.size else 0.0
    return sym_deviation(M) <= SYM_TOL_FACTOR * (1.0 + scale)


def symmetrize(M):
    """(M + M^T) / 2 of a matrix, or of each matrix of a stack."""
    M = np.asarray(M, dtype=float)
    return 0.5 * (M + np.swapaxes(M, -1, -2))


def spectrum(M):
    """Return (w, eps): the ascending eigenvalues of the symmetrized
    matrix, or of each matrix of a stack, and the scale-aware
    definiteness threshold EPS_PD_FACTOR (1 + max |w|) of each.

    The matrix counts as positive definite when w[0] > eps and as
    negative definite when w[-1] < -eps.
    """
    w = np.linalg.eigvalsh(symmetrize(M))
    return w, EPS_PD_FACTOR * (1.0 + np.max(np.abs(w), axis=-1))


def pd_margin(M):
    """Return (smallest eigenvalue, eps) of a matrix, or two arrays for
    a stack; positive definite when margin > eps."""
    w, eps = spectrum(M)
    return w[..., 0], eps


def cholesky_stack(Ms):
    """Lower Cholesky factors of an (S, n, n) stack, decided per matrix.

    Returns (L, ok).  ok[s] is the strict-PD test of pd_factor (every
    pivot positive) for Ms[s], and L[s] is its factor only where ok[s].
    A stacked np.linalg.cholesky raises for the whole stack when one
    matrix fails; here that matrix fails alone.
    """
    L = np.zeros_like(Ms)
    ok = np.ones(len(Ms), dtype=bool)
    for k in range(Ms.shape[1]):
        row = L[:, k, :k]
        pivot = Ms[:, k, k] - np.einsum("si,si->s", row, row)
        ok &= pivot > 0.0
        L[:, k, k] = np.sqrt(np.where(ok, pivot, 1.0))
        L[:, k + 1:, k] = (Ms[:, k + 1:, k]
                           - np.einsum("sij,sj->si", L[:, k + 1:, :k], row)
                           ) / L[:, k, k, None]
    return L, ok


def cho_solve_stack(L, b):
    """Solve L L^T x = b for each entry of a stack of Cholesky factors;
    b is (S, n) or (S, n, m)."""
    vector = b.ndim == 2
    x = np.array(b[:, :, None] if vector else b, dtype=float)
    diag = np.diagonal(L, axis1=1, axis2=2)[:, :, None]
    for i in range(L.shape[1]):
        x[:, i] -= np.einsum("sj,sjm->sm", L[:, i, :i], x[:, :i])
        x[:, i] /= diag[:, i]
    for i in reversed(range(L.shape[1])):
        x[:, i] -= np.einsum("sj,sjm->sm", L[:, i + 1:, i], x[:, i + 1:])
        x[:, i] /= diag[:, i]
    return x[:, :, 0] if vector else x


def cho_factor(M):
    return scipy.linalg.cho_factor(M, lower=True, check_finite=False)


def pd_factor(M):
    """cho_factor of M, or None where M is not strictly positive definite
    (a pivot is not positive): the one-matrix feasibility probe."""
    try:
        return cho_factor(M)
    except np.linalg.LinAlgError:
        return None


def cho_solve(factor, b):
    return scipy.linalg.cho_solve(factor, b, check_finite=False)


def solve_pd(M, b):
    """Solve M x = b for symmetric positive definite M via Cholesky."""
    return cho_solve(cho_factor(M), b)


def inv_pd(M):
    """Symmetrized inverse of a symmetric positive definite matrix."""
    n = M.shape[0]
    return symmetrize(solve_pd(M, np.eye(n)))


def spectral_norm_sym(M):
    return float(np.max(np.abs(spectrum(M)[0])))


def inertia(M):
    """(n_pos, n_neg, n_zero) eigenvalue counts of a symmetric matrix.

    Eigenvalues within the scale-aware PD margin of the spectrum
    (spectrum's eps) of zero count as zero.
    """
    w, eps = spectrum(M)
    n_pos = int(np.sum(w > eps))
    n_neg = int(np.sum(w < -eps))
    return n_pos, n_neg, int(w.size - n_pos - n_neg)


def ball_samples(rng, center, radius, count):
    """Uniform samples from the closed Euclidean ball around ``center``."""
    center = np.asarray(center, dtype=float)
    n = center.size
    directions = rng.standard_normal((count, n))
    norms = np.linalg.norm(directions, axis=1)
    norms[norms == 0.0] = 1.0
    radii = radius * rng.random(count) ** (1.0 / n)
    return center[None, :] + directions * (radii / norms)[:, None]
