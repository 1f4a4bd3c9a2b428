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
from .critical import CONVERGED_RESIDUAL
from .errors import (
    DegenerateCriticalPointError,
    NotConvergedPairError,
    OutsideCstarError,
)
from .problem import primal_hessian

E_COND_LIMIT = 1e12


@dataclass(frozen=True)
class CurvatureBundle:
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
    d2j: np.ndarray        # d2J(x0)
    shifted: np.ndarray    # d2J(x0) + (K - A) alpha1


def build_bundle(P, pair):
    """Assemble every chain matrix at a converged pair.

    Raises NotConvergedPairError, OutsideCstarError (on the lift's C*
    decision, pair.c_star), or DegenerateCriticalPointError (E condition
    number above 1e12).
    """
    if not pair.converged:
        bound = CONVERGED_RESIDUAL * (1.0 + float(np.max(np.abs(pair.x0))))
        raise NotConvergedPairError(
            f"primal residual {pair.primal_residual:.3e} exceeds "
            f"{CONVERGED_RESIDUAL:.0e} (1 + max|x0|) = {bound:.3e}")

    if not pair.c_star.inside:
        raise OutsideCstarError(
            f"M(vhat0) smallest eigenvalue {pair.c_star.margin:.3e} "
            f"(margin {pair.c_star.eps:.3e})")

    x0 = pair.x0
    M = P.mixed_matrix(pair.v0_hat)
    M_inv = linalg.symmetrize(linalg.cho_solve(pair.m_factor, np.eye(P.n)))
    p1 = P.bx_columns(x0)                   # n x N
    p2 = p1.T @ M_inv                       # N x n
    core = p2 @ p1                          # x0^T B_l M^{-1} B_eta x0
    E = linalg.symmetrize(core) + np.diag(1.0 / P.gamma)

    w = np.linalg.eigvalsh(E)
    lo, hi = float(np.min(np.abs(w))), float(np.max(np.abs(w)))
    if lo <= 0.0 or hi / lo > E_COND_LIMIT:
        raise DegenerateCriticalPointError(
            f"inner curvature matrix condition number "
            f"{hi / lo if lo > 0 else np.inf:.3e} exceeds {E_COND_LIMIT:.0e}")
    E_bar = linalg.symmetrize(np.linalg.inv(E))

    H3 = p1 @ E_bar @ p2
    B_hat = linalg.symmetrize((p1 * P.gamma) @ p1.T)
    D = B_hat @ M_inv + np.eye(P.n)
    alpha = (np.eye(P.n) - H3) @ D - np.eye(P.n)
    alpha1 = -M_inv @ alpha @ M
    H1 = linalg.symmetrize(linalg.cho_solve(P.kma_factor, np.eye(P.n)))
    H2 = M_inv
    dual_hessian = -H2 + H1 + H2 @ H3   # kept unsymmetrized on purpose
    asym = linalg.sym_deviation(dual_hessian)
    d2j = primal_hessian(P, x0)

    return CurvatureBundle(
        M=M, P1=p1, P2=p2, E=E, E_bar=E_bar, H3=H3, B_hat=B_hat, D=D,
        alpha=alpha, alpha1=alpha1, H1=H1, H2=H2,
        dual_hessian=dual_hessian, dual_hessian_asymmetry=asym,
        d2j=d2j, shifted=d2j + P.K_minus_A @ alpha1,
    )


def implicit_sensitivity(P, pair, bundle):
    """d(vhat0)/d(v*) at the pair: the implicit derivative of the inner
    argmax, equal to E^{-1} P2."""
    return bundle.E_bar @ bundle.P2


def verify_chain_identity(P, pair, bundle):
    """Relative Frobenius residual of the product identity between the
    dual Hessian and the shifted primal Hessian."""
    lhs = bundle.dual_hessian @ bundle.D
    rhs = bundle.H1 @ bundle.shifted @ bundle.H2
    return float(np.linalg.norm(lhs - rhs, "fro")
                 / (1.0 + np.linalg.norm(rhs, "fro")))
