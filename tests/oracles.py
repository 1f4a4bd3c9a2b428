"""Independent oracles used by the test suite.

Everything here is deliberately dumb: dense grids with zoom refinement,
bisection on sign changes, batched function evaluation and central
finite differences.  The grid and bisection oracles reuse none of the
closed forms under test beyond instance data and eigenvalue bounds
needed to size search boxes.  The finite-difference oracles difference
a lower-order quantity: J for the gradient, the gradient for the
Hessian, and the inner sup Jt* (and its argmax) for the dual Hessian
and the implicit argmax sensitivity.  sampled_global_certificate is the
sampled case-2 certificate (a dense primal sample, J2* midpoint
convexity and weak duality) that the exact Lagrangian bound of
global_min_certificate replaced.  j2_star_barrier_path is the J2*
evaluator that runs the barrier continuation on every call; j2_star
runs it only where the interior stationary point is not strictly
inside A*.  j2_star_grid is J2* with none of the library's solvers: a
zooming grid over the multipliers where S and M are positive definite.
dumps_canonical_recursive is the report writer that the library's
one-pass dumps_canonical replaced: it renders every value through a
recursive call, with numpy's isfinite on each float and json.dumps on
each key and string.  generate_instance_per_matrix is the instance
generator that drew, symmetrized and scaled A and each B_j one matrix at
a time, before generate_instance did it on one stack.
exact_critical_points is the critical set of J from exact arithmetic at
n <= 2: a lex Groebner basis over the rationals and its univariate
polynomial's roots at 40 digits.
"""

import json
from dataclasses import dataclass

import numpy as np
import scipy.linalg
from scipy.optimize import brentq

from dcquartic import j2_star, j_star, j_tilde_star, primal_gradient
from dcquartic import conjugates, ensembles, linalg, validate_instance
from dcquartic.conjugates import INNER_EXTRA_INITS, default_inner_init
from dcquartic.critical import SolveResult
from dcquartic.errors import (
    DualityError,
    LeftCstarError,
    NoConvergenceError,
    NotCase2Error,
    OutsideCstarError,
    ParseError,
    ProbeFailureError,
)
from dcquartic.gap import CERT_GAP_TOL, CERT_SAMPLE_TOL
from dcquartic.linalg import (
    NEWTON_MAX_BACKTRACKS,
    NEWTON_MAX_ITER,
    TOL_FACTOR,
    symmetrize,
)
from dcquartic.problem import primal_hessian, primal_value

# central finite-difference step, relative to 1 + |x_i|
FD_STEP_FACTOR = 1e-5
# j2 values at boundary-attained points are the end of the barrier path
# at mu = 1e-6, short of the sup by at most n mu, so the midpoint
# convexity test gets a looser band
J2_CONVEXITY_TOL = 5e-5


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


def j2_star_grid(P, v_star, center, half_width, points=11, levels=8):
    """Numeric sup over v0* in A* of J*(v*, v0*), from its closed form
    with dense solves.

    Grid points where S(v0*) or M(v0*) is not positive definite evaluate
    to -inf; A* is convex and the objective concave on it, so zooming
    cannot get stuck, and every grid value is a lower bound of J2*(v*).
    """
    v_star = np.asarray(v_star, dtype=float)
    g1 = 0.5 * (v_star + P.f) @ np.linalg.solve(P.K_minus_A, v_star + P.f)

    def batch(v0s):
        S = P.A + np.einsum("sj,jkl->skl", v0s, P.B)
        M = P.K + np.einsum("sj,jkl->skl", v0s, P.B)
        inside = (np.linalg.eigvalsh(S)[:, 0] > 0.0) \
            & (np.linalg.eigvalsh(M)[:, 0] > 0.0)
        out = np.full(v0s.shape[0], -np.inf)
        v0 = v0s[inside]
        x = np.linalg.solve(M[inside], v_star[:, None])[..., 0]
        out[inside] = (g1 - 0.5 * x @ v_star + v0 @ P.c
                       - 0.5 * (v0 ** 2) @ (1.0 / P.gamma))
        return out

    return zoom_grid_max(batch, center, half_width,
                         points=points, levels=levels)


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


def _probe_stack(P, pair, offsets):
    """Jt* and its argmax at vhat + each offset, as one j_tilde_star
    stack warm-started at the lifted multiplier; a probe that fails
    raises ProbeFailureError."""
    values, argmaxes = j_tilde_star(P, pair.v_hat + offsets, init=pair.v0_hat)
    failed = np.flatnonzero(np.isnan(values))
    if failed.size:
        raise ProbeFailureError(
            f"inner sup failed at probe offset {offsets[failed[0]]}")
    return values, argmaxes


def dual_hessian_fd(P, pair, h):
    """Central-difference Hessian of v* -> Jt*(v*), symmetrized.

    Every probe solves the inner sup warm-started at the lifted
    multiplier, all probes of the pair in one stack; a probe that fails
    raises ProbeFailureError.
    """
    n = P.n
    steps = h * np.eye(n)
    pairs = [(j, k) for j in range(n) for k in range(j + 1, n)]
    offsets = [np.zeros(n)]
    for k in range(n):
        offsets += [steps[k], -steps[k]]
    for j, k in pairs:
        ej, ek = steps[j], steps[k]
        offsets += [ej + ek, ej - ek, -ej + ek, -ej - ek]
    f, _ = _probe_stack(P, pair, np.array(offsets))

    H = np.zeros((n, n))
    center = f[0]
    for k in range(n):
        fp, fm = f[1 + 2 * k], f[2 + 2 * k]
        H[k, k] = (fp - 2.0 * center + fm) / (h * h)
    for i, (j, k) in enumerate(pairs):
        fpp, fpm, fmp, fmm = f[1 + 2 * n + 4 * i:5 + 2 * n + 4 * i]
        H[j, k] = H[k, j] = (fpp - fpm - fmp + fmm) / (4.0 * h * h)
    return symmetrize(H)


def argmax_sensitivity_fd(P, pair, h=1e-5):
    """Finite-difference oracle for implicit_sensitivity: re-solve the
    inner sup at v_hat +/- h e_k, all in one stack, and difference the
    argmax."""
    steps = h * np.eye(P.n)
    _, v = _probe_stack(P, pair, np.concatenate([steps, -steps]))
    return ((v[:P.n] - v[P.n:]) / (2.0 * h)).T


def _lapack_factor(M):
    """LAPACK Cholesky of M, or None where a pivot is not positive."""
    try:
        return scipy.linalg.cho_factor(M, lower=True, check_finite=False)
    except np.linalg.LinAlgError:
        return None


def _inner_residual_point(P, v_star, v0, factor):
    x_bar = scipy.linalg.cho_solve(factor, v_star, check_finite=False)
    return P.quartic_terms(x_bar) - v0 / P.gamma, x_bar


def inner_newton_point(P, v_star, v0):
    """The single-point damped Newton on the inner stationarity system,
    on LAPACK's Cholesky: the reference for the stacked solve.

    Returns the converged multiplier.  Raises LeftCstarError if the
    iterate cannot stay strictly inside C*, NoConvergenceError when the
    iterate of the last budgeted step is not converged.  Reads the
    solve's budgets from linalg when it runs, so a test that changes
    them changes both solves.
    """
    factor = _lapack_factor(P.mixed_matrix(v0))
    if factor is None:
        raise LeftCstarError("inner start is not strictly inside C*")
    res, x_bar = _inner_residual_point(P, v_star, v0, factor)
    res_norm = float(np.max(np.abs(res)))
    for it in range(linalg.NEWTON_MAX_ITER + 1):
        if res_norm <= TOL_FACTOR * (1.0 + float(np.max(np.abs(v0)))):
            return v0
        if it == linalg.NEWTON_MAX_ITER:
            break
        p1 = P.bx_columns(x_bar)
        p2 = scipy.linalg.cho_solve(factor, p1, check_finite=False).T
        E = symmetrize(p2 @ p1) + np.diag(1.0 / P.gamma)
        step = np.linalg.solve(E, res)
        t = 1.0
        for _ in range(linalg.NEWTON_MAX_BACKTRACKS):
            cand = v0 + t * step
            cand_factor = _lapack_factor(P.mixed_matrix(cand))
            if cand_factor is not None:
                cand_res, cand_x = _inner_residual_point(P, v_star, cand,
                                                         cand_factor)
                cand_norm = float(np.max(np.abs(cand_res)))
                if cand_norm < res_norm:
                    v0, factor, res, x_bar = cand, cand_factor, cand_res, cand_x
                    res_norm = cand_norm
                    break
            t *= 0.5
        else:
            raise LeftCstarError(
                "inner Newton could not find a feasible descent step")
    raise NoConvergenceError(
        f"inner Newton residual {res_norm:.3e} after "
        f"{linalg.NEWTON_MAX_ITER} iterations")


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
        v0 = inner_newton_point(P, v_star, inits[0])
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
            v0 = inner_newton_point(P, v_star, trial)
        except (NoConvergenceError, OutsideCstarError):
            continue
        value = j_star(P, v_star, v0)
        if best is None or value > best[0]:
            best = (value, v0)
    if best is not None:
        return best
    raise first_error


def j2_star_barrier_path(P, v_star, init=None):
    """The J2* evaluator that j2_star's interior-first solve shortcuts:
    J2*(v*) = sup over A* of J*(v*, .) by a strictly feasible A* start,
    one log-det barrier stage per weight, then a polish to the interior
    stationary point, on every call.  Built from the library's pieces;
    returns a J2Result."""
    v_star = P.require_x(v_star)
    g1 = conjugates.g1_star(P, v_star)
    v0 = P.require_v0(init) if init is not None \
        else default_inner_init(P, v_star)
    v0 = conjugates._feasible_a_star_point(P, v0)
    for mu in conjugates.BARRIER_WEIGHTS:
        v0 = conjugates._inner_newton_stack(P, v_star[None], v0[None],
                                            mu)[0][0]
    rows, _, status = conjugates._inner_newton_stack(P, v_star[None],
                                                     v0[None])
    if status[0] == conjugates.SOLVED:
        margin = conjugates.in_B_star(P, rows[0]).margin
        if margin >= -conjugates.BOUNDARY_MARGIN:
            return conjugates.J2Result(
                g1 - conjugates.g2_star(P, v_star, rows[0]), rows[0],
                margin < conjugates.BOUNDARY_MARGIN, margin)
    # the polish converged beyond A*: the sup is on A*'s boundary
    margin = conjugates.in_B_star(P, v0).margin
    return conjugates.J2Result(g1 - conjugates.g2_star(P, v_star, v0), v0,
                               status[0] == conjugates.SOLVED
                               or margin < conjugates.BOUNDARY_MARGIN, margin)


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
    iterations = NEWTON_MAX_ITER
    for it in range(NEWTON_MAX_ITER):
        tol = TOL_FACTOR * (1.0 + float(np.max(np.abs(x))))
        if g_norm <= tol:
            return SolveResult(x, True, it, g_norm)
        H = primal_hessian(P, x)
        try:
            step = np.linalg.solve(H, -g)
        except np.linalg.LinAlgError:
            # as linalg.solve_rows: no trial along a NaN step is accepted
            step = np.full_like(g, np.nan)
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
    # each accepted step lowers g_norm, so the last iterate is the best
    tol = TOL_FACTOR * (1.0 + float(np.max(np.abs(x))))
    return SolveResult(x, g_norm <= tol, iterations, g_norm)


@dataclass
class SampledCertificate:
    passed: bool
    inf_estimate: float
    j2_value: float
    j2_gap: float
    multistart_ok: bool
    sample_ok: bool
    j2_matches_primal: bool
    convexity_pass_count: int
    convexity_fail_count: int
    convexity_excluded: int
    weak_duality_ok: bool
    n_samples: int


def sampled_global_certificate(P, pair, case, critical_points, rng_seed=7):
    """The sampled case-2 certificate that the exact Lagrangian bound of
    global_min_certificate replaced.

    ``case`` is the pair's CaseReport from classify_case; any case other
    than case2 raises NotCase2Error.  ``critical_points`` are the primal
    critical points already found for P, such as the ``points`` of a
    multistart run.  Checks: (i) J(x0) below every one of them and a
    coarse global sample; (ii) J2*(vhat) equals J(x0); (iii) midpoint
    convexity of J2* on sampled direction pairs; (iv) weak duality
    J2*(vhat) <= J(x) on every sample.
    """
    if case.case_id != "case2":
        raise NotCase2Error(f"pair classified as {case.case_id}")

    j0 = primal_value(P, pair.x0)

    # (i) every other critical point and a coarse global sample
    ms_values = [primal_value(P, x) for x in critical_points]
    multistart_ok = all(j0 <= v + CERT_SAMPLE_TOL for v in ms_values)

    span = 5.0 * (1.0 + float(np.max(np.abs(pair.x0))))
    if P.n <= 3:
        per_axis = {1: 100001, 2: 317, 3: 47}[P.n]
        axes = [np.linspace(-span, span, per_axis)] * P.n
        mesh = np.meshgrid(*axes, indexing="ij")
        samples = np.stack([m.ravel() for m in mesh], axis=1)
    else:
        rng = np.random.default_rng([rng_seed, 2])
        samples = rng.uniform(-span, span, size=(100000, P.n))
    sample_values = _batch_primal(P, samples)
    sample_ok = bool(np.all(j0 <= sample_values + CERT_SAMPLE_TOL))
    inf_estimate = float(min(np.min(sample_values), j0))

    # (ii) dual value agreement
    j2 = j2_star(P, pair.v_hat, init=pair.v0_hat)
    j2_gap = abs(j2.value - j0)
    j2_matches = j2_gap <= CERT_GAP_TOL * (1.0 + abs(j0))

    # (iii) midpoint convexity of J2*
    rng = np.random.default_rng([rng_seed, 3])
    scale = 0.5 * (1.0 + float(np.max(np.abs(pair.v_hat))))
    pass_count = fail_count = excluded = 0
    for _ in range(100):
        u = pair.v_hat + scale * rng.standard_normal(P.n)
        w = pair.v_hat + scale * rng.standard_normal(P.n)
        try:
            ju = j2_star(P, u, init=pair.v0_hat).value
            jw = j2_star(P, w, init=pair.v0_hat).value
            jm = j2_star(P, 0.5 * (u + w), init=pair.v0_hat).value
        except DualityError:
            excluded += 1
            continue
        tol = J2_CONVEXITY_TOL * (1.0 + max(abs(ju), abs(jw), abs(jm)))
        if jm <= 0.5 * (ju + jw) + tol:
            pass_count += 1
        else:
            fail_count += 1

    # (iv) weak duality against every sampled point
    weak_ok = bool(np.all(j2.value <= sample_values + CERT_SAMPLE_TOL)) \
        and all(j2.value <= v + CERT_SAMPLE_TOL for v in ms_values)

    passed = (multistart_ok and sample_ok and j2_matches
              and fail_count == 0 and pass_count >= 50 and weak_ok)
    return SampledCertificate(
        passed=passed, inf_estimate=inf_estimate,
        j2_value=j2.value, j2_gap=float(j2_gap),
        multistart_ok=multistart_ok, sample_ok=sample_ok,
        j2_matches_primal=j2_matches,
        convexity_pass_count=pass_count,
        convexity_fail_count=fail_count,
        convexity_excluded=excluded,
        weak_duality_ok=weak_ok,
        n_samples=int(samples.shape[0]),
    )


def _batch_primal(P, xs):
    w = 0.5 * np.einsum("jkl,sk,sl->sj", P.B, xs, xs) + P.c
    return (0.5 * np.einsum("sk,kl,sl->s", xs, P.A, xs)
            + 0.5 * (w ** 2) @ P.gamma + xs @ P.f)


def dumps_canonical_recursive(obj, indent=0):
    """Deterministic JSON writer with 17-significant-digit floats, one
    recursive call per value."""
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = []
        for key, value in obj.items():
            items.append(f"{pad}  {json.dumps(key)}: "
                         f"{dumps_canonical_recursive(value, indent + 1)}")
        return "{\n" + ",\n".join(items) + f"\n{pad}}}"
    if isinstance(obj, (list, tuple)):
        seq = list(obj)
        if not seq:
            return "[]"
        rendered = [dumps_canonical_recursive(v, indent + 1) for v in seq]
        if all(not isinstance(v, (dict, list, tuple)) for v in seq) \
                and sum(len(r) for r in rendered) < 72:
            return "[" + ", ".join(rendered) + "]"
        items = [f"{pad}  {r}" for r in rendered]
        return "[\n" + ",\n".join(items) + f"\n{pad}]"
    if isinstance(obj, bool) or obj is None:
        return json.dumps(obj)
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        if not np.isfinite(obj):
            return "null"
        return format(float(obj), ".17g")
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, np.ndarray):
        return dumps_canonical_recursive(obj.tolist(), indent)
    raise ParseError(f"cannot serialize object of type {type(obj)!r}")


def generate_instance_per_matrix(n, N, rng_seed, k_margin=1.0, f_scale=1.0,
                                 c_range=ensembles.C_RANGE):
    """generate_instance with one (n, n) draw per matrix: A, then each
    B_j, each symmetrized and scaled by its own spectral radius."""
    rng = np.random.default_rng(rng_seed)

    def unit_spectral_symmetric():
        S = linalg.symmetrize(rng.standard_normal((n, n)))
        radius = linalg.spectral_norm_sym(S)
        return S / radius if radius > 0.0 else S

    A = unit_spectral_symmetric()
    B = np.stack([unit_spectral_symmetric() for _ in range(N)])
    gamma = rng.uniform(*ensembles.GAMMA_RANGE, size=N)
    c = rng.uniform(*c_range, size=N)
    f = f_scale * rng.standard_normal(n)
    K = float(np.max(np.linalg.eigvalsh(A))) + k_margin
    return validate_instance(A, B, gamma, c, f, K)


def exact_critical_points(P, digits=40):
    """The real critical points of J, sorted, as float rows of an (R, n)
    array, from exact arithmetic: the float data as exact rationals, the
    lex Groebner basis of grad J = 0, the roots of its univariate
    polynomial by nroots at ``digits`` digits, back-substitution, and
    the real roots kept.  Raises ValueError when the basis is not in
    shape position (x_i - h_i(x_n) for i < n, then one polynomial in
    x_n).  Takes well under a second per instance at n <= 2; the plain
    rational basis does not finish at n = 3.
    """
    import sympy  # the test extra's; only this oracle needs it

    xs = sympy.symbols(f"x0:{P.n}")
    X = sympy.Matrix(xs)

    def exact(a):
        return sympy.Matrix(np.atleast_1d(a).tolist()).applyfunc(
            lambda v: sympy.Rational(float(v)))

    grad = exact(P.A) * X + exact(P.f)
    for B, gamma, c in zip(P.B, P.gamma, P.c):
        Bx = exact(B) * X
        w = (X.T * Bx)[0] / 2 + sympy.Rational(float(c))
        grad += sympy.Rational(float(gamma)) * w * Bx
    basis = sympy.groebner(list(sympy.expand(grad)), *xs, order="lex").exprs
    # shape position: x_i - h_i(x_n) with a constant leading coefficient
    linear = [sympy.Poly(p, x) for p, x in zip(basis[:-1], xs)]
    if len(basis) != P.n or any(
            p.degree() != 1 or p.LC().free_symbols
            or p.free_symbols - {x, xs[-1]} for p, x in zip(linear, xs)):
        raise ValueError("the lex basis is not in shape position")
    points = []
    for root in sympy.Poly(basis[-1], xs[-1]).nroots(n=digits):
        if not root.is_real:
            continue
        x = [(-p.TC() / p.LC()).subs(xs[-1], root).evalf(digits)
             for p in linear]
        points.append([float(v) for v in (*x, root)])
    return np.array(sorted(points)).reshape(-1, P.n)
