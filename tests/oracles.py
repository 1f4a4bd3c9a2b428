"""Independent oracles used by the test suite.

Everything here is deliberately dumb: dense grids with zoom refinement,
bisection on sign changes, batched function evaluation and central
finite differences.  The grid and bisection oracles reuse none of the
closed forms under test beyond instance data and eigenvalue bounds
needed to size search boxes.  The finite-difference oracles difference
a lower-order quantity: J for the gradient, the gradient for the
Hessian, and the inner sup Jt* (and its argmax) for the dual Hessian
and the implicit argmax sensitivity.
"""

import numpy as np
from scipy.optimize import brentq

from dcquartic import j_star, j_tilde_star, primal_gradient
from dcquartic import linalg
from dcquartic.conjugates import INNER_EXTRA_INITS, _inner_newton, default_inner_init
from dcquartic.critical import (
    NEWTON_MAX_BACKTRACKS,
    NEWTON_MAX_ITER,
    NEWTON_TOL_FACTOR,
    TIKHONOV_FACTOR,
    SolveResult,
)
from dcquartic.errors import NoConvergenceError, OutsideCstarError, ProbeFailureError
from dcquartic.linalg import symmetrize
from dcquartic.problem import primal_hessian, primal_value

# central finite-difference step, relative to 1 + |x_i|
FD_STEP_FACTOR = 1e-5


def zoom_grid_max(batch_fn, center, half_width, points=11, levels=8):
    """Maximize a batched function over a box by iterative grid zooming.

    Reliable for functions with a unique local maximum in the box (the
    conjugate objectives are concave over their search boxes).
    """
    center = np.asarray(center, dtype=float)
    width = np.full_like(center, float(half_width))
    best_val = -np.inf
    for _ in range(levels):
        axes = [np.linspace(center[i] - width[i], center[i] + width[i], points)
                for i in range(center.size)]
        mesh = np.meshgrid(*axes, indexing="ij")
        pts = np.stack([m.ravel() for m in mesh], axis=1)
        vals = batch_fn(pts)
        k = int(np.argmax(vals))
        best_val = max(best_val, float(vals[k]))
        center = pts[k]
        spacing = 2.0 * width / (points - 1)
        width = 1.5 * spacing
    return best_val, center


def g1_star_grid(P, v_star, points=13, levels=9):
    """Numeric sup_x { v*.x - G1(x) } over a box guaranteed to hold the
    maximizer (|x| <= |v* + f| / lmin(K - A))."""
    v_star = np.asarray(v_star, dtype=float)
    radius = float(np.linalg.norm(v_star + P.f)) / P.kma_min_eig + 1.0

    def batch(xs):
        quad = 0.5 * np.einsum("sk,kl,sl->s", xs, P.K_minus_A, xs)
        return xs @ v_star - quad + xs @ P.f

    val, _ = zoom_grid_max(batch, np.zeros(P.n), radius,
                           points=points, levels=levels)
    return val


def g2_star_grid(P, v_star, v0_star, points=11, levels=12):
    """Numeric sup over (x, v) of v*.x + v0*.v - G2(x, v)."""
    v_star = np.asarray(v_star, dtype=float)
    v0_star = np.asarray(v0_star, dtype=float)
    M = P.mixed_matrix(v0_star)
    lmin = float(np.min(np.linalg.eigvalsh(0.5 * (M + M.T))))
    assert lmin > 0.0, "oracle only valid inside C*"
    x_radius = float(np.linalg.norm(v_star)) / lmin + 1.0

    # v maximizer satisfies w_j(x) + v_j = v0_j / gamma_j; bound the
    # quartic terms over the x box to size the v box
    b_norms = np.array([np.max(np.abs(np.linalg.eigvalsh(Bj)))
                        for Bj in P.B])
    w_bound = 0.5 * b_norms * x_radius ** 2 + np.abs(P.c)
    v_radius = float(np.max(np.abs(v0_star) / P.gamma + w_bound)) + 1.0

    def batch(zs):
        xs = zs[:, :P.n]
        vs = zs[:, P.n:]
        w = 0.5 * np.einsum("jkl,sk,sl->sj", P.B, xs, xs) + P.c + vs
        g2 = 0.5 * (w ** 2) @ P.gamma \
            + 0.5 * np.einsum("sk,kl,sl->s", xs, P.K, xs)
        return xs @ v_star + vs @ v0_star - g2

    center = np.zeros(P.n + P.N)
    half = max(x_radius, v_radius)
    val, _ = zoom_grid_max(batch, center, half, points=points, levels=levels)
    return val


def j_tilde_grid(P, v_star, center, half_width, points=41, levels=8):
    """Numeric sup over v0* in C* of the closed-form J*(v*, v0*).

    Grid points outside C* evaluate to -inf; the domain is convex and
    the objective concave, so zooming cannot get stuck.
    """

    def batch(v0s):
        out = np.full(v0s.shape[0], -np.inf)
        for i, v0 in enumerate(v0s):
            try:
                out[i] = j_star(P, v_star, v0)
            except OutsideCstarError:
                pass
        return out

    val, arg = zoom_grid_max(batch, center, half_width,
                             points=points, levels=levels)
    return val, arg


def gradient_roots_1d(P, lo=-6.0, hi=6.0, scans=20001):
    """All roots of the 1-d primal gradient in [lo, hi] by bisection on
    sign changes."""
    assert P.n == 1
    xs = np.linspace(lo, hi, scans)
    gs = np.array([primal_gradient(P, [x])[0] for x in xs])
    roots = []
    for i in range(scans - 1):
        if gs[i] == 0.0:
            roots.append(xs[i])
        elif gs[i] * gs[i + 1] < 0.0:
            roots.append(brentq(lambda t: primal_gradient(P, [t])[0],
                                xs[i], xs[i + 1], xtol=1e-14))
    merged = []
    for r in roots:
        if not merged or abs(r - merged[-1]) > 1e-8:
            merged.append(r)
    return merged


def grid_min_1d(P, lo=-5.0, hi=5.0, points=100001):
    xs = np.linspace(lo, hi, points)
    vals = [primal_value(P, [x]) for x in xs]
    return float(np.min(vals))


def fd_gradient(P, x, value_fn=primal_value):
    """Componentwise central differences of a scalar function of x."""
    x = P.require_x(x)
    g = np.zeros_like(x)
    for i in range(x.size):
        h = FD_STEP_FACTOR * (1.0 + abs(x[i]))
        xp = x.copy(); xp[i] += h
        xm = x.copy(); xm[i] -= h
        g[i] = (value_fn(P, xp) - value_fn(P, xm)) / (2.0 * h)
    return g


def fd_hessian(P, x):
    """Central differences of the analytic gradient."""
    x = P.require_x(x)
    H = np.zeros((x.size, x.size))
    for i in range(x.size):
        h = FD_STEP_FACTOR * (1.0 + abs(x[i]))
        xp = x.copy(); xp[i] += h
        xm = x.copy(); xm[i] -= h
        H[:, i] = (primal_gradient(P, xp) - primal_gradient(P, xm)) / (2.0 * h)
    return H


def dual_hessian_fd(P, pair, h):
    """Central-difference Hessian of v* -> Jt*(v*), symmetrized.

    Every probe solves the inner sup warm-started at the lifted
    multiplier; a probe that fails raises ProbeFailureError.
    """
    v_hat, v0_hat = pair.v_hat, pair.v0_hat
    n = P.n

    def value(v):
        try:
            val, _ = j_tilde_star(P, v, init=v0_hat)
        except (NoConvergenceError, OutsideCstarError) as exc:
            raise ProbeFailureError(
                f"inner sup failed at probe offset {v - v_hat}: {exc}") from exc
        return val

    H = np.zeros((n, n))
    center = value(v_hat)
    for k in range(n):
        ek = np.zeros(n); ek[k] = h
        fp = value(v_hat + ek)
        fm = value(v_hat - ek)
        H[k, k] = (fp - 2.0 * center + fm) / (h * h)
    for j in range(n):
        for k in range(j + 1, n):
            ej = np.zeros(n); ej[j] = h
            ek = np.zeros(n); ek[k] = h
            fpp = value(v_hat + ej + ek)
            fpm = value(v_hat + ej - ek)
            fmp = value(v_hat - ej + ek)
            fmm = value(v_hat - ej - ek)
            H[j, k] = H[k, j] = (fpp - fpm - fmp + fmm) / (4.0 * h * h)
    return symmetrize(H)


def argmax_sensitivity_fd(P, pair, h=1e-5):
    """Finite-difference oracle for implicit_sensitivity: re-solve the
    inner sup at v_hat +/- h e_k and difference the argmax."""
    v_hat, v0_hat = pair.v_hat, pair.v0_hat
    out = np.zeros((P.N, P.n))
    for k in range(P.n):
        ek = np.zeros(P.n); ek[k] = h
        _, vp = j_tilde_star(P, v_hat + ek, init=v0_hat)
        _, vm = j_tilde_star(P, v_hat - ek, init=v0_hat)
        out[:, k] = (vp - vm) / (2.0 * h)
    return out


def j_tilde_star_loop(P, v_star, init=None):
    """The one-point Jt* evaluator that j_tilde_star replaced, one start
    at a time: Jt*(v*) = sup over C* of J*(v*, .).

    Solves the interior fixed-point system (v0*)_j = gamma_j
    (x_bar^T B_j x_bar / 2 + c_j) with x_bar = M(v0*)^{-1} v* by damped
    Newton.  Returns (value, argmax).  The default start is the lift of
    (K - A)^{-1}(v* + f); if it fails, a deterministic batch of
    perturbed starts is tried and the best converged value wins.
    """
    v_star = P.require_x(v_star)
    inits = [P.require_v0(init) if init is not None
             else default_inner_init(P, v_star)]
    first_error = None
    try:
        v0 = _inner_newton(P, v_star, inits[0])
        return j_star(P, v_star, v0), v0
    except (NoConvergenceError, OutsideCstarError) as exc:
        first_error = exc

    # fallback multistart around the default init; J*(v*, .) is concave
    # on C*, so every converged start returns the same interior point
    rng = np.random.default_rng(0)
    base = inits[0]
    scale = 1.0 + np.abs(base)
    best = None
    for _ in range(INNER_EXTRA_INITS):
        trial = base + scale * rng.standard_normal(P.N)
        try:
            v0 = _inner_newton(P, v_star, trial)
        except (NoConvergenceError, OutsideCstarError):
            continue
        value = j_star(P, v_star, v0)
        if best is None or value > best[0]:
            best = (value, v0)
    if best is not None:
        return best
    raise first_error


def _grad_inf(P, x):
    return float(np.max(np.abs(primal_gradient(P, x))))


def solve_primal_critical_loop(P, x_init):
    """solve_primal_critical with its line searches run one trial step at
    a time: each halving of t is tried through the single-point gradient
    before the next is formed.  The stacked line search must return the
    same SolveResult bit for bit."""
    x = P.require_x(x_init).copy()
    g = primal_gradient(P, x)
    g_norm = float(np.max(np.abs(g)))
    best = (x.copy(), g_norm)
    iterations = NEWTON_MAX_ITER
    for it in range(NEWTON_MAX_ITER):
        tol = NEWTON_TOL_FACTOR * (1.0 + float(np.max(np.abs(x))))
        if g_norm <= tol:
            return SolveResult(x, True, it, g_norm)
        H = primal_hessian(P, x)
        step = None
        try:
            step = np.linalg.solve(H, -g)
            if not np.all(np.isfinite(step)):
                step = None
        except np.linalg.LinAlgError:
            step = None
        if step is None:
            shift = TIKHONOV_FACTOR * (1.0 + linalg.spectral_norm_sym(H))
            step = np.linalg.solve(H + shift * np.eye(P.n), -g)
        accepted = False
        t = 1.0
        for _ in range(NEWTON_MAX_BACKTRACKS):
            cand = x + t * step
            cand_norm = _grad_inf(P, cand)
            if cand_norm < g_norm:
                x, g_norm = cand, cand_norm
                accepted = True
                break
            t *= 0.5
        if not accepted:
            # try plain steepest descent on |g| once before giving up
            t = 1.0 / (1.0 + linalg.spectral_norm_sym(H))
            for _ in range(NEWTON_MAX_BACKTRACKS):
                cand = x - t * g
                cand_norm = _grad_inf(P, cand)
                if cand_norm < g_norm:
                    x, g_norm = cand, cand_norm
                    accepted = True
                    break
                t *= 0.5
        if not accepted:
            iterations = it + 1
            break
        g = primal_gradient(P, x)
        g_norm = float(np.max(np.abs(g)))
        if g_norm < best[1]:
            best = (x.copy(), g_norm)
    tol = NEWTON_TOL_FACTOR * (1.0 + float(np.max(np.abs(x))))
    if g_norm <= tol:
        return SolveResult(x, True, iterations, g_norm)
    x, g_norm = best if best[1] < g_norm else (x, g_norm)
    return SolveResult(x, False, iterations, g_norm)
