"""The second-order matrix chain linking primal and dual Hessians.

At a converged pair with multiplier strictly inside C* the chain

    M  = sum_p (vhat0)_p B_p + K
    P1 = [B_1 x0  ...  B_N x0]                      (n x N)
    P2 = rows x0^T B_j M^{-1}                       (N x n)
    E  = {x0^T B_l M^{-1} B_eta x0 + delta/gamma_l} (N x N)
    H3 = P1 E^{-1} P2
    Bhat = sum_l gamma_l (B_l x0)(B_l x0)^T
    D  = Bhat M^{-1} + I
    alpha  = (I - H3) D - I
    alpha1 = -M^{-1} alpha M
    H1 = (K - A)^{-1},  H2 = M^{-1}

produces the dual Hessian

    d2Jt = -M^{-1} + (K - A)^{-1} + M^{-1} H3

and satisfies d2Jt . D = H1 (d2J(x0) + (K - A) alpha1) H2 exactly.
Since D = I + P1 diag(gamma) P2 and E = P2 P1 + diag(1/gamma), the
Woodbury identity gives (I - H3) D = I: alpha and alpha1 carry rounding
only, at every n and N.

E above is the implicit-function-theorem convention, the one that the
finite-difference oracles on the inner argmax and the dual Hessian
confirm.  The source derivation also states a second convention for E;
the test suite rebuilds it from a bundle and shows that it fails the
finite-difference check.
"""

from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import (
    DegenerateCriticalPointError,
    NotConvergedPairError,
    OutsideCstarError,
)

E_COND_LIMIT = 1e12


@dataclass(frozen=True)
class CurvatureBundle:
    """The chain matrices at one pair, or at each row of a stack of pairs
    (_bundle_stack): then every field but H1, which all rows share, is
    stacked, over zero rows when no bundle forms."""

    M: np.ndarray
    P1: np.ndarray
    P2: np.ndarray
    E: np.ndarray
    E_bar: np.ndarray
    H3: np.ndarray
    B_hat: np.ndarray
    D: np.ndarray
    alpha: np.ndarray
    alpha1: np.ndarray
    H1: np.ndarray
    H2: np.ndarray
    dual_hessian: np.ndarray
    dual_hessian_asymmetry: float
    shifted: np.ndarray    # d2J(x0) + (K - A) alpha1


def _map_rows(bundle, take):
    """bundle with take(value) in place of each stacked field."""
    return CurvatureBundle(**{name: value if name == "H1" else take(value)
                              for name, value in vars(bundle).items()})


def _one_row(bundle):
    """A one-pair bundle viewed as a one-row stack."""
    return _map_rows(bundle, lambda value: value[None])


def build_bundle(P, pair):
    """Assemble every chain matrix at a converged pair: row 0 of a
    one-row _bundle_stack.

    Raises NotConvergedPairError, OutsideCstarError (on the lift's C*
    decision, pair.c_star), or DegenerateCriticalPointError (E condition
    number above 1e12).
    """
    bundle, (error,) = _bundle_stack(P, [pair])
    if error is not None:
        raise error
    return _map_rows(bundle, lambda value: value[0])


def _bundle_stack(P, pairs):
    """build_bundle at each pair, as (bundle, errors): one CurvatureBundle
    stacked over the pairs where a bundle forms (zero rows when none
    does), and per pair None or the DualityError that build_bundle
    raises there.

    The unconverged rows and the rows outside C* are decided from the
    lift before any numerics, and the rows of a degenerate E after one
    stacked spectrum.  Every chain matrix is formed once on the stack of
    the rows left, and each row gets the bits it gets alone.
    """
    errors = []
    for pair in pairs:
        if not pair.converged:
            bound = linalg.TOL_FACTOR * (1.0 + float(np.max(np.abs(pair.x0))))
            errors.append(NotConvergedPairError(
                f"primal residual {pair.primal_residual:.3e} exceeds "
                f"{linalg.TOL_FACTOR:.0e} (1 + max|x0|) = {bound:.3e}"))
        elif not pair.c_star.inside:
            errors.append(OutsideCstarError(
                f"M(vhat0) smallest eigenvalue {pair.c_star.margin:.3e} "
                f"(margin {pair.c_star.eps:.3e})"))
        else:
            errors.append(None)
    rows = [i for i, error in enumerate(errors) if error is None]
    x0 = np.reshape([pairs[i].x0 for i in rows], (-1, P.n))
    v0 = np.reshape([pairs[i].v0_hat for i in rows], (-1, P.N))
    L = np.reshape([pairs[i].m_factor for i in rows], (-1, P.n, P.n))
    eye = np.eye(P.n)
    M_inv = linalg.symmetrize(linalg.cho_solve(L, eye[None].repeat(len(L), 0)))
    p1 = P.bx_columns(x0)                   # k x n x N
    p2 = p1.mT @ M_inv                      # k x N x n
    core = p2 @ p1                          # x0^T B_l M^{-1} B_eta x0
    E = linalg.symmetrize(core) + np.diag(1.0 / P.gamma)

    w = np.abs(linalg.spectrum(E)[0])
    keep = []
    for i, lo, hi in zip(rows, w.min(-1).tolist(), w.max(-1).tolist()):
        keep.append(not (lo <= 0.0 or hi / lo > E_COND_LIMIT))
        if not keep[-1]:
            errors[i] = DegenerateCriticalPointError(
                f"inner curvature matrix condition number "
                f"{hi / lo if lo > 0 else np.inf:.3e} exceeds "
                f"{E_COND_LIMIT:.0e}")
    rows = [i for i, k in zip(rows, keep) if k]
    x0, v0, M_inv, p2, E = (a[keep] for a in (x0, v0, M_inv, p2, E))
    p1 = P.bx_columns(x0)   # the view layout that a row gets alone

    M = P.mixed_matrix(v0)
    E_bar = linalg.symmetrize(np.linalg.inv(E))
    H3 = p1 @ E_bar @ p2
    B_hat = linalg.symmetrize((p1 * P.gamma) @ p1.mT)
    D = B_hat @ M_inv + eye
    alpha = (eye - H3) @ D - eye
    alpha1 = -M_inv @ alpha @ M
    H1 = linalg.symmetrize(linalg.cho_solve(P.kma_factor, eye))
    dual_hessian = -M_inv + H1 + M_inv @ H3   # kept unsymmetrized on purpose
    d2j = np.reshape([pairs[i].d2j for i in rows], (-1, P.n, P.n))
    return CurvatureBundle(
        M=M, P1=p1, P2=p2, E=E, E_bar=E_bar, H3=H3, B_hat=B_hat, D=D,
        alpha=alpha, alpha1=alpha1, H2=M_inv, dual_hessian=dual_hessian,
        dual_hessian_asymmetry=np.abs(dual_hessian - dual_hessian.mT).max(
            axis=(-2, -1)),
        H1=H1, shifted=d2j + P.K_minus_A @ alpha1), errors


def implicit_sensitivity(P, pair, bundle):
    """d(vhat0)/d(v*) at the pair, or at each row of a stacked bundle:
    the implicit derivative of the inner argmax, equal to E^{-1} P2."""
    return bundle.E_bar @ bundle.P2


def verify_chain_identity(P, pair, bundle):
    """Relative Frobenius residual of the product identity between the
    dual Hessian and the shifted primal Hessian: a one-row _chain_stack."""
    return float(_chain_stack(_one_row(bundle))[0])


def _chain_stack(bundle):
    """verify_chain_identity at each row of a stacked bundle."""
    rhs = bundle.H1 @ bundle.shifted @ bundle.H2
    return (linalg.frobenius_norm(bundle.dual_hessian @ bundle.D - rhs)
            / (1.0 + linalg.frobenius_norm(rhs)))
