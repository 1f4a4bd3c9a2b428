"""Small dense symmetric linear-algebra helpers.

Reported checks are eigenvalue based: positive definiteness is decided
by the smallest eigenvalue against a scale-aware margin, and reported
margins always come from ``eigvalsh``.  Inside iteration loops Cholesky
is the feasibility probe: one factorization either comes back, and is
then used for the solves, or fails on a pivot that is not positive
(``pd_factor``, and ``cholesky_stack`` per matrix of a stack).
"""

import numpy as np
import scipy.linalg

SYM_TOL_FACTOR = 1e-12
EPS_PD_FACTOR = 1e-10


def sym_deviation(M):
    """max |M - M^T|, the absolute asymmetry of a square matrix."""
    M = np.asarray(M, dtype=float)
    return float(np.max(np.abs(M - M.T))) if M.size else 0.0


def is_symmetric(M):
    M = np.asarray(M, dtype=float)
    scale = float(np.max(np.abs(M))) if M.size else 0.0
    return sym_deviation(M) <= SYM_TOL_FACTOR * (1.0 + scale)


def symmetrize(M):
    M = np.asarray(M, dtype=float)
    return 0.5 * (M + M.T)


def eps_pd(eigenvalues):
    """Scale-aware positive-definiteness margin for a symmetric spectrum."""
    eigenvalues = np.asarray(eigenvalues, dtype=float)
    scale = float(np.max(np.abs(eigenvalues))) if eigenvalues.size else 0.0
    return EPS_PD_FACTOR * (1.0 + scale)


def spectrum_ends(M):
    """Return (smallest eigenvalue, largest eigenvalue, eps) of the
    symmetrized matrix, from one eigvalsh.

    The matrix counts as positive definite when smallest > eps and as
    negative definite when largest < -eps.
    """
    w = np.linalg.eigvalsh(symmetrize(M))
    return float(w[0]), float(w[-1]), eps_pd(w)


def pd_margin(M):
    """Return (smallest eigenvalue, eps); positive definite when
    margin > eps."""
    margin, _, eps = spectrum_ends(M)
    return margin, eps


def pd_margin_stack(Ms):
    """pd_margin of each matrix of an (S, n, n) stack, as two arrays."""
    w = np.linalg.eigvalsh(0.5 * (Ms + np.swapaxes(Ms, 1, 2)))
    return w[:, 0], EPS_PD_FACTOR * (1.0 + np.max(np.abs(w), axis=1))


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
    w = np.linalg.eigvalsh(symmetrize(M))
    return float(np.max(np.abs(w))) if w.size else 0.0


def inertia(M):
    """(n_pos, n_neg, n_zero) eigenvalue counts of a symmetric matrix.

    Eigenvalues within the scale-aware PD margin of the spectrum
    (eps_pd) of zero count as zero.
    """
    w = np.linalg.eigvalsh(symmetrize(M))
    eps = eps_pd(w)
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
