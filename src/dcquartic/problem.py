"""Problem instances and the primal functional.

An instance is the data tuple (n, N, A, {B_j}, {gamma_j}, {c_j}, f, K)
defining

    J(x) = x^T A x / 2 + sum_j gamma_j/2 (x^T B_j x / 2 + c_j)^2 + f^T x,

together with the convex split J = -G1 + G2(.,0) where

    G1(x)    = -x^T A x / 2 + x^T K x / 2 - f^T x,
    G2(x, v) = sum_j gamma_j/2 (x^T B_j x / 2 + c_j + v_j)^2 + x^T K x / 2.

K is stored as a matrix; a scalar k is lifted to k*I so that the
K = A + eps*I sweep needs no second code path.  An instance holds frozen
copies of its data and is safe to share across workers.
"""

from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .errors import DimensionMismatchError, ValidationError


@dataclass(frozen=True)
class ProblemInstance:
    """Validated, immutable problem data.

    ``coercivity_override`` records that the caller waived the
    all-zero-B check of validate_instance.

    The four kernels, J, grad J, x_bar, G1* and the inner-sup start take
    a point or an (S, ...) stack (require_points), one result per row,
    bit for bit the point's: B_j x for every j and A x are one gemv per
    point or row, x @ BA with BA = [B_1 ... B_N A] laid out as n x (N+1) n
    (entry [k, j n + i] = B_j[i, k], the transpose of the B_j and A
    stacked by rows), and each other sum over x is one dot per entry,
    taken the same way for a point and for a row of a C-contiguous
    stack.  primal_hessian takes a point or a stack too
    (see there).  Both are _bx_and_w followed by gradient_from or
    hessian_from, so a solver that holds (B_j x and A x rows, w) at a
    point builds grad J or d2J there without forming them again.
    """

    n: int
    N: int
    A: np.ndarray
    B: np.ndarray          # stacked (N, n, n)
    gamma: np.ndarray
    c: np.ndarray
    f: np.ndarray
    K: np.ndarray
    coercivity_override: bool
    # cached derived quantities, filled by validate_instance
    K_minus_A: np.ndarray = field(repr=False, default=None)
    kma_min_eig: float = field(repr=False, default=0.0)
    kma_factor: np.ndarray = field(repr=False, default=None)  # Cholesky L
    BA: np.ndarray = field(repr=False, default=None)  # [B_1 ... B_N A], above

    def require_x(self, x):
        x = np.ascontiguousarray(x, dtype=float).reshape(-1)
        if x.shape != (self.n,):
            raise DimensionMismatchError(
                f"expected x of length {self.n}, got shape {np.shape(x)}")
        return x

    def require_points(self, x):
        """A point (0-D or 1-D input, checked by require_x) or an (S, n)
        stack (2-D, also (1, n)), C-contiguous; DimensionMismatchError
        otherwise."""
        x = np.ascontiguousarray(x, dtype=float)
        if x.ndim < 2:
            return self.require_x(x)
        if x.ndim != 2 or x.shape[1] != self.n:
            raise DimensionMismatchError(
                f"expected a point of length {self.n} or an (S, {self.n}) "
                f"stack, got shape {x.shape}")
        return x

    def require_v0(self, v0):
        v0 = np.asarray(v0, dtype=float).reshape(-1)
        if v0.shape != (self.N,):
            raise DimensionMismatchError(
                f"expected multiplier of length {self.N}, got shape {np.shape(v0)}")
        return v0

    def quartic_terms(self, x):
        """w_j(x) = x^T B_j x / 2 + c_j for all j."""
        return self._bx_and_w(x)[1]

    def bx_columns(self, x):
        """The n x N matrix whose columns are B_j x (S x n x N for a
        stack)."""
        return self._bx_rows(x)[..., :-1, :].mT

    def _bx_rows(self, x):
        """The (N+1) x n matrix whose rows are B_1 x, ..., B_N x and A x
        (S x (N+1) x n for a stack), one gemv per point or row."""
        return (x[..., None, :] @ self.BA).reshape(
            x.shape[:-1] + (self.N + 1, self.n))

    def _bx_and_w(self, x):
        """(B_j x and A x rows, w) at a point or each row of a stack,
        from one _bx_rows call: what grad J and d2J are built from."""
        bx = self._bx_rows(x)
        return bx, 0.5 * np.vecdot(bx[..., :-1, :], x[..., None, :]) + self.c

    def mixed_matrix(self, v0):
        """M(v0) = sum_j v0_j B_j + K."""
        return self.K + np.einsum("...j,jkl->...kl", v0, self.B)

    def ab_matrix(self, v0):
        """S(v0) = A + sum_j v0_j B_j."""
        return self.A + np.einsum("...j,jkl->...kl", v0, self.B)


def _as_square(M, n, name):
    if M.shape == (n, n):
        return M
    if M.size == n * n:
        return M.reshape(n, n)
    raise DimensionMismatchError(
        f"{name} must be {n}x{n}, got shape {M.shape}")


def _finite(x, name):
    """x, or ValidationError("non-finite") when an entry is NaN or inf.
    The one-point entries check their inputs with it, where a NaN would
    turn into a verdict or a bare LinAlgError; the stacked kernels take
    NaN rows on purpose and do not."""
    if not np.isfinite(x).all():
        raise ValidationError("non-finite", f"{name} has non-finite entries")
    return x


def validate_instance(A, B, gamma, c, f, K, coercivity_override=False):
    """Check the standing hypotheses and build a ProblemInstance.

    Raises ValidationError with reasons ``dimension-mismatch``,
    ``asymmetric-matrix``, ``nonpositive-gamma``, ``K-minus-A-not-PD``,
    ``coercivity-heuristic-failed`` or ``non-finite``.

    ``coercivity-heuristic-failed`` means every B_j is zero (J has no
    quartic term) and coercivity_override is False; no random numbers
    are drawn.  Passing does not prove J bounded below.
    """
    arrays = []
    for name, x in (("A", A), ("B", B), ("gamma", gamma), ("c", c),
                    ("f", f), ("K", K)):
        try:
            arrays.append(np.array(x, dtype=float))   # the instance's own copy
        except (TypeError, ValueError, OverflowError) as exc:
            raise DimensionMismatchError(
                f"{name} is not a numeric array: {exc}") from exc
    A, B, gamma, c, f, K = arrays
    f, gamma, c = f.reshape(-1), gamma.reshape(-1), c.reshape(-1)
    n = f.size
    N = gamma.size
    if n < 1 or N < 1:
        raise DimensionMismatchError("need n >= 1 and N >= 1")
    if c.shape != (N,):
        raise DimensionMismatchError(
            f"c must have length {N}, got {c.shape}")

    A = _as_square(A, n, "A")
    if B.size == N * n * n:
        B = B.reshape(N, n, n)
    else:
        raise DimensionMismatchError(
            f"B must hold {N} matrices of shape {n}x{n}, got shape {B.shape}")
    K = K * np.eye(n) if K.ndim == 0 else _as_square(K, n, "K")

    for arr, name in ((A, "A"), (B, "B"), (gamma, "gamma"), (c, "c"),
                      (f, "f"), (K, "K")):
        _finite(arr, name)

    # max |M - M^T| of each of A, K, B_1 ... B_N against its own scale
    mats = np.concatenate([A[None], K[None], B])
    deviation = np.abs(mats - mats.mT).max(axis=(1, 2))
    scale = np.abs(mats).max(axis=(1, 2))
    asymmetric = deviation > linalg.SYM_TOL_FACTOR * (1.0 + scale)
    if asymmetric.any():
        k = int(np.argmax(asymmetric))
        name = "AK"[k] if k < 2 else f"B[{k - 2}]"
        raise ValidationError("asymmetric-matrix",
                              f"{name} asymmetric by {deviation[k]:.3e}")

    if np.any(gamma <= 0.0):
        bad = int(np.argmin(gamma))
        raise ValidationError(
            "nonpositive-gamma", f"gamma[{bad}] = {gamma[bad]} must be > 0")

    K_minus_A = K - A
    margin, eps = linalg.pd_margin(K_minus_A)
    if margin <= eps:
        raise ValidationError(
            "K-minus-A-not-PD",
            f"smallest eigenvalue of K - A is {margin:.3e} (margin {eps:.3e})")

    if not np.any(B) and not coercivity_override:
        raise ValidationError(
            "coercivity-heuristic-failed",
            "every B_j is zero, so J has no quartic term; "
            "pass coercivity_override=True to accept")

    kma_factor, _ = linalg.cho_factor(K_minus_A)  # margin > eps: pivots > 0
    BA = np.concatenate([B, A[None]]).reshape(-1, n).T
    for arr in (A, B, gamma, c, f, K, K_minus_A, kma_factor, BA):
        arr.setflags(write=False)

    return ProblemInstance(
        n=n, N=N, A=A, B=B, gamma=gamma, c=c, f=f, K=K,
        coercivity_override=bool(coercivity_override),
        K_minus_A=K_minus_A,
        kma_min_eig=float(margin),
        kma_factor=kma_factor,
        BA=BA,
    )


def primal_value(P, x):
    """J(x) at a point (a float) or at each row of an (S, n) stack; per
    row, (0.5 x) A is one gemv and each vecdot one dot, as for a point."""
    x = P.require_points(x)
    w = P.quartic_terms(x)
    xa = ((0.5 * x)[..., None, :] @ P.A)[..., 0, :]
    J = np.vecdot(xa, x) + np.vecdot(0.5 * P.gamma, w ** 2) + np.vecdot(P.f, x)
    return float(J) if x.ndim == 1 else J


def primal_gradient(P, x):
    """grad J(x) = A x + sum_j gamma_j w_j(x) B_j x + f at a point, or
    at each row of an (S, n) stack, computed the same way per row."""
    x = P.require_points(x)
    return gradient_from(P, *P._bx_and_w(x))


def gradient_from(P, bx, w):
    """grad J at x from its (B_j x and A x rows, w) = P._bx_and_w(x)."""
    return (bx[..., -1, :]
            + np.vecdot(bx[..., :-1, :].mT, (P.gamma * w)[..., None, :])
            + P.f)


def primal_hessian(P, x):
    """Hessian of J: A + sum_j gamma_j w_j B_j + sum_j gamma_j (B_j x)(B_j x)^T
    at a point, or at each row of an (S, n) stack.

    The returned matrix is exactly symmetric.  A stack row is the point's
    matrix: the einsum sums over j in the same order, and the matmul
    makes the same BLAS call per matrix, for a point or a stack.
    """
    x = P.require_points(x)
    return hessian_from(P, *P._bx_and_w(x))


def hessian_from(P, bx, w):
    """d2J at x from its (B_j x and A x rows, w) = P._bx_and_w(x)."""
    bx = bx[..., :-1, :]
    H = P.ab_matrix(P.gamma * w) + (bx.mT * P.gamma) @ bx
    return 0.5 * (H + H.mT)


def g1_value(P, x):
    """G1(x) = -x^T A x / 2 + x^T K x / 2 - f^T x (convex when K - A > 0)."""
    x = P.require_x(x)
    return float(-0.5 * x @ P.A @ x + 0.5 * x @ P.K @ x - P.f @ x)


def g2_value(P, x, v):
    """G2(x, v) with the perturbation v entering each quartic term."""
    x = P.require_x(x)
    v = P.require_v0(v)
    w = P.quartic_terms(x) + v
    return float(0.5 * P.gamma @ (w ** 2) + 0.5 * x @ P.K @ x)

