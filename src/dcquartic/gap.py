"""Case classification, duality-gap certification and extremality probes.

Three mutually exclusive conclusions are available at a critical pair:

    case1  local min of J at x0, local min of Jt* at vhat, zero gap
    case2  global min of J at x0 (multiplier in A*), zero gap
    case3  local max of J at x0, local max of Jt* at vhat, zero gap

case2 takes precedence over case1 because its conclusion subsumes the
local one.  Pairs on the C* boundary, or with indefinite shifted
Hessians, stay unclassified.

The shifted matrix d2J(x0) + (K - A) alpha1 is not symmetric in
general; its definiteness is read in the quadratic-form sense, i.e.
from the spectrum of the symmetric part.

The case test runs on the stack of a report's pairs, and so does the
epsilon sweep's chain check at each eps.  The extremality probes test
the local conclusions by sampling a ball around x0 and one around vhat
at each pair.  Each ball is drawn once per report, and the samples of
all the pairs of one report are evaluated as one stack.  Each dual
sample is first bounded from one evaluation at its start on the inner
argmax's tangent, and only the samples whose bounds straddle an edge of
the band Jt*(vhat) -+ PROBE_TOL are solved (local_extremality_probes).
"""

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from . import linalg
from .conjugates import _j_tilde_star_bracket, j2_star, j_tilde_star
from .critical import _count, _lift_stack, find_critical_points
from .curvature import (
    _bundle_stack,
    _chain_stack,
    _one_row,
    build_bundle,
    implicit_sensitivity,
)
from .errors import (
    NotCase2Error,
    OutsideCstarError,
    ValidationError,
)
from .problem import primal_value, validate_instance

PROBE_TOL = 1e-9
CERT_GAP_TOL = 1e-8
CERT_SAMPLE_TOL = 1e-9


@dataclass
class CaseReport:
    """What classification decides.  The facts it reads stay on the
    pair: the gap (verify_zero_gap), the C* and B* memberships
    (pair.c_star, pair.b_star; A* = B*) and d2J(x0)'s spectrum."""
    case_id: str                       # case1 | case2 | case3 | unclassified
    shifted_hessian_margin: float


def classify_case(P, pair, bundle):
    """Evaluate the three case predicates with eigenvalue margins: a
    one-row _classify_stack.

    The C* and B* memberships are the lift's (pair.c_star,
    pair.b_star).  A* membership is the B* one: A* = B* because K - A
    is positive definite (see in_A_star).  d2J(x0) and its spectrum are
    the lift's, and the shifted Hessian is the bundle's.
    """
    return _classify_stack(P, [pair], _one_row(bundle))[0]


def _classify_stack(P, pairs, bundle):
    """classify_case at each pair with its row of the stacked bundle,
    from one spectrum of the stacked shifted Hessians."""
    sh, sh_eps = linalg.spectrum(bundle.shifted)
    out = []
    for pair, s, s_eps in zip(pairs, sh, sh_eps):
        d2j, d2j_eps = pair.d2j_spectrum
        c, b = pair.c_star, pair.b_star
        if b.inside:
            case_id = "case2"
        elif c.inside and d2j[0] > d2j_eps and s[0] > s_eps:
            case_id = "case1"
        elif c.inside and d2j[-1] < -d2j_eps and s[-1] < -s_eps:
            case_id = "case3"
        else:
            case_id = "unclassified"
        out.append(CaseReport(case_id, float(s[0])))
    return out


def verify_zero_gap(P, pair):
    """J(x0) - J*(vhat, vhat0), both from the lift; zero at every
    critical pair in C*.

    Raises OutsideCstarError when the lift put vhat0 outside C*.
    """
    if not pair.c_star.inside:
        raise OutsideCstarError("lifted multiplier is outside C*")
    return pair.J - pair.J_star


@dataclass
class ProbeEvidence:
    case_id: str
    r: float
    r1: float
    n_samples: int
    primal_min_violations: int
    primal_max_violations: int
    dual_min_violations: int
    dual_max_violations: int
    dual_excluded: int

    def violations(self):
        """Violation count relevant to the recorded case."""
        if self.case_id in ("case1", "case2"):
            return self.primal_min_violations + self.dual_min_violations
        if self.case_id == "case3":
            return self.primal_max_violations + self.dual_max_violations
        return (self.primal_min_violations + self.primal_max_violations
                + self.dual_min_violations + self.dual_max_violations)


def local_extremality_probe(P, pair, n_samples, rng_seed,
                            case_id=None, bundle=None):
    """local_extremality_probes at one pair: its ProbeEvidence.  The
    bundle and the case default to build_bundle and classify_case."""
    if bundle is None:
        bundle = build_bundle(P, pair)
    if case_id is None:
        case_id = classify_case(P, pair, bundle).case_id
    return local_extremality_probes(P, [pair], n_samples, rng_seed,
                                    [case_id], _one_row(bundle))[0]


def local_extremality_probes(P, pairs, n_samples, rng_seed, case_ids,
                             bundle):
    """Sample balls around each pair's x0 and vhat and count extremality
    violations; one ProbeEvidence per pair, with its case from case_ids
    and its row of the stacked bundle.

    A pair's primal radius is 0.1 (1 + |x0|) / sqrt(1 + |d2J(x0)|) and
    its dual radius follows the same scaling with the dual Hessian.  The
    primal ball is one draw from default_rng([rng_seed, 0]) and the dual
    ball one from default_rng([rng_seed, 1]), each drawn once per report
    and moved to every pair's center and radius (linalg.ball_samples on
    the stacks): each pair gets the samples it would draw alone, so its
    evidence does not depend on the other pairs.  |d2J(x0)| is read
    from the lift's spectrum.  All pairs' samples are evaluated as one
    stack: J by primal_value, and Jt* from each dual sample v's start on
    the inner argmax's tangent, vhat0 + (v - vhat) (d vhat0 / d v*)'
    (curvature.implicit_sensitivity).  There conjugates'
    _j_tilde_star_bracket bounds Jt*(v) from both sides with no Newton
    step.  A sample whose bounds clear both edges Jt*(vhat) -+ PROBE_TOL
    by a rounding margin, 1e-12 (1 + |Jt*(vhat)|), is decided and counts
    with its lower bound; the others go to one j_tilde_star call from
    the same starts (an empty stack when the bounds decide every
    sample).  The samples whose solve fails (nan rows) are solved again,
    as one stack, from their pair's vhat0; a sample that fails both is
    excluded and counted.  n_samples must be a non-negative integer.
    """
    n_samples = _count(n_samples, "n_samples")
    if not pairs:
        return []
    x0, v_hat, v0_hat = (np.array([getattr(pair, name) for pair in pairs])
                         for name in ("x0", "v_hat", "v0_hat"))
    # |d2J(x0)|_2 from the lift's spectrum; the vector norms are
    # np.linalg.norm's, one dot per row
    d2j_norm = np.abs([pair.d2j_spectrum[0] for pair in pairs]).max(-1)
    r = 0.1 * (1.0 + np.sqrt(np.vecdot(x0, x0))) / np.sqrt(1.0 + d2j_norm)
    r1 = 0.1 * (1.0 + np.sqrt(np.vecdot(v_hat, v_hat))) \
        / np.sqrt(1.0 + linalg.spectral_norm_sym(bundle.dual_hessian))
    xs = linalg.ball_samples(np.random.default_rng([rng_seed, 0]), x0, r,
                             n_samples)
    vs = linalg.ball_samples(np.random.default_rng([rng_seed, 1]), v_hat, r1,
                             n_samples)
    starts = v0_hat[:, None, :] + (vs - v_hat[:, None, :]) \
        @ implicit_sensitivity(P, pairs, bundle).mT

    shape = (len(pairs), n_samples)
    jvals = primal_value(P, xs.reshape(-1, P.n)).reshape(shape)
    vs, starts = vs.reshape(-1, P.n), starts.reshape(-1, P.N)
    jt0 = np.repeat([pair.J_star for pair in pairs], n_samples)
    lower, upper = _j_tilde_star_bracket(P, vs, starts)
    margin = 1e-12 * (1.0 + np.abs(jt0))
    decided = np.ones(len(vs), dtype=bool)
    for edge in (jt0 - PROBE_TOL, jt0 + PROBE_TOL):
        decided &= (upper < edge - margin) | (lower > edge + margin)
    jtvals, undecided = lower, np.flatnonzero(~decided)
    jtvals[undecided], _ = j_tilde_star(P, vs[undecided],
                                        init=starts[undecided])
    failed = undecided[np.isnan(jtvals[undecided])]
    if failed.size:
        jtvals[failed], _ = j_tilde_star(
            P, vs[failed], init=v0_hat[failed // n_samples])

    # the five counts of every pair; a nan Jt* (an excluded sample)
    # compares false, so it is no violation
    j0 = np.array([pair.J for pair in pairs])[:, None]
    jtvals, jt0 = jtvals.reshape(shape), jt0.reshape(shape)
    counts = np.count_nonzero(
        [jvals < j0 - PROBE_TOL, jvals > j0 + PROBE_TOL,
         jtvals < jt0 - PROBE_TOL, jtvals > jt0 + PROBE_TOL,
         np.isnan(jtvals)], axis=-1)
    return [ProbeEvidence(case_id, r_k, r1_k, n_samples, *row)
            for case_id, r_k, r1_k, row
            in zip(case_ids, r.tolist(), r1.tolist(), counts.T.tolist())]


@dataclass
class GlobalCertificate:
    passed: bool
    inf_estimate: float
    lagrangian_value: float
    drop: float
    rounding_bound: float
    bound_ok: bool
    multistart_ok: bool
    j2_value: float
    j2_gap: float
    j2_matches_primal: bool

    # bench/spans.py::_on_certificate reads these three counts of the
    # sampled certificate that this one replaced; as class attributes
    # they are not dataclass fields and stay out of the report
    convexity_pass_count = 0
    convexity_fail_count = 0
    convexity_excluded = 0


def lagrangian_bound(P, x0, v0, margin):
    """Exact lower bound on inf J from the Lagrangian at (x0, v0).

    For every v, J(x) >= L(x, v) = x'Ax/2 + sum_j v_j w_j(x)
    - sum_j v_j^2 / (2 gamma_j) + f'x, since J - L is
    sum_j gamma_j/2 (w_j - v_j/gamma_j)^2.  L is quadratic in x with
    Hessian S = A + sum_j v_j B_j, so where S is positive definite

        inf J >= L(x0, v) - g'S^{-1}g / 2,   g = S x0 + f = grad_x L(x0, v).

    ``margin`` is the smallest eigenvalue of S (pair.b_star.margin at a
    lift).  Returns (bound, L(x0, v), drop, rounding): drop is
    g'S^{-1}g / 2 from one Cholesky of S, and the bound is
    L - drop - rounding.  All four are nan when S does not factor.

    rounding covers floating point.  Barring underflow, and to first
    order in the unit roundoff u, the computed L is within K u of the
    exact value relative to L_abs, the same sums taken over absolute
    values, and the computed g within K u relative to G = |S| |x0| + |f|,
    with |S| = |A| + sum_j |v_j| |B_j|.  The Cholesky solve is exact for
    a perturbed S + dS with ||dS|| <= K u n s, s = the largest row sum
    of |S|.  So the computed drop is within K u Q of the exact one, Q =
    (|g| |G| + (|g|^2 (1 + n s / margin) + K u |G|^2) / 2) / margin.
    K = (n + 2)^2 + N bounds the roundings along any product: n^2 + n in
    a quadratic form, 3n + 1 in the Cholesky solve, N in a sum over j
    and 3 more.  rounding is 2 K u (L_abs + Q), twice that distance.
    """
    w = P.quartic_terms(x0)
    lagrangian = float(0.5 * x0 @ P.A @ x0 + v0 @ w
                       - 0.5 * np.sum(v0 ** 2 / P.gamma) + P.f @ x0)
    S = P.ab_matrix(v0)
    factor, ok = linalg.cho_factor(S)
    if not ok:
        return (float("nan"),) * 4
    g = S @ x0 + P.f
    drop = float(0.5 * g @ linalg.cho_solve(factor, g))

    xa, va = np.abs(x0), np.abs(v0)
    wa = 0.5 * np.einsum("jkl,k,l->j", np.abs(P.B), xa, xa) + np.abs(P.c)
    l_abs = (0.5 * xa @ np.abs(P.A) @ xa + va @ wa
             + 0.5 * np.sum(v0 ** 2 / P.gamma) + np.abs(P.f) @ xa)
    S_abs = np.abs(P.A) + np.einsum("j,jkl->kl", va, np.abs(P.B))
    G = float(np.linalg.norm(S_abs @ xa + np.abs(P.f)))
    g_norm = float(np.linalg.norm(g))
    s = float(np.max(np.sum(S_abs, axis=1)))
    Ku = ((P.n + 2) ** 2 + P.N) * np.finfo(float).eps
    q_abs = (g_norm * G + 0.5 * (g_norm ** 2 * (1.0 + P.n * s / margin)
                                 + Ku * G ** 2)) / margin
    rounding = float(2.0 * Ku * (l_abs + q_abs))
    return lagrangian - drop - rounding, lagrangian, drop, rounding


def global_min_certificate(P, pair, critical_points):
    """Certify the case-2 conclusion that x0 is the global minimum.

    The pair is case 2 where its lifted multiplier is in A* = B*
    (pair.b_star.inside, classify_case's first test); any other pair
    raises NotCase2Error.  ``critical_points`` are the primal
    critical points already found for P, such as the ``points`` of
    find_critical_points.  inf_estimate is lagrangian_bound at the computed
    (x0, vhat0).  The bound holds for any multiplier v at which
    A + sum_j v_j B_j is positive definite, so drift in the lifted
    multiplier cannot weaken it.  Passes when that matrix
    factors, J(x0) is within CERT_GAP_TOL of the bound, J(x0) is below
    every one of the critical points, and one J2*(vhat) solve, the
    independent cross-check, matches J(x0).
    """
    if not pair.b_star.inside:
        raise NotCase2Error(f"lifted multiplier is outside A* "
                            f"(margin {pair.b_star.margin:.3e})")

    j0 = pair.J
    tol = CERT_GAP_TOL * (1.0 + abs(j0))
    bound, lagrangian, drop, rounding = lagrangian_bound(
        P, pair.x0, pair.v0_hat, pair.b_star.margin)
    bound_ok = bool(j0 - bound <= tol)
    multistart_ok = bool(np.all(j0 <= primal_value(
        P, np.reshape(critical_points, (-1, P.n))) + CERT_SAMPLE_TOL))
    j2 = j2_star(P, pair.v_hat, init=pair.v0_hat)
    j2_gap = abs(j2.value - j0)
    j2_matches = bool(j2_gap <= tol)
    return GlobalCertificate(
        passed=bound_ok and multistart_ok and j2_matches,
        inf_estimate=bound, lagrangian_value=lagrangian, drop=drop,
        rounding_bound=rounding, bound_ok=bound_ok,
        multistart_ok=multistart_ok,
        j2_value=j2.value, j2_gap=float(j2_gap), j2_matches_primal=j2_matches,
    )


@dataclass
class SweepPoint:
    eps: float
    ok: bool
    error: Optional[str]
    h1_norm: float
    pairs: List[dict] = field(default_factory=list)


@dataclass
class SweepReport:
    eps_list: List[float]
    points: List[SweepPoint]


def epsilon_sweep(P_base, eps_list, rng_seed, n_seeds=16):
    """Lift the instance's critical points into K = A + eps I per eps.

    J does not involve K, so find_critical_points(P_base, n_seeds,
    rng_seed) runs once and one _lift_stack lifts every point into each
    valid K, its records carrying its index as ``base_point``.  Each
    record inside C* holds the gap and, where a bundle forms, the chain
    residual, |alpha1| and |(K - A) alpha1| = eps |alpha1|, or else the
    message of build_bundle's error as ``bundle_error``.  The
    Woodbury identity gives (I - H3) D = I, so alpha and alpha1 carry
    rounding only and the last two norms stay at roundoff for every eps.
    """
    base = find_critical_points(P_base, n_seeds, rng_seed)
    X = np.reshape(base.points, (-1, P_base.n))
    points = []
    for eps in eps_list:
        try:
            P_eps = validate_instance(
                P_base.A, P_base.B, P_base.gamma, P_base.c, P_base.f,
                np.asarray(P_base.A) + eps * np.eye(P_base.n),
                coercivity_override=P_base.coercivity_override)
        except ValidationError as exc:
            points.append(SweepPoint(eps=float(eps), ok=False,
                                     error=f"{exc.reason}: {exc}",
                                     h1_norm=float("nan")))
            continue
        pairs = _lift_stack(P_eps, X)
        bundle, errors = _bundle_stack(P_eps, pairs)
        formed = zip(_chain_stack(bundle).tolist(),
                     linalg.frobenius_norm(bundle.alpha1).tolist(),
                     linalg.frobenius_norm(
                         P_eps.K_minus_A @ bundle.alpha1).tolist())
        nan, records = float("nan"), []
        for i, (pair, error) in enumerate(zip(pairs, errors)):
            inside = pair.c_star.inside
            chain, a1, ka = next(formed) if error is None else (nan,) * 3
            records.append({
                "x0": pair.x0,
                "gap": pair.J - pair.J_star,
                "chain_residual": chain,
                "alpha1_norm": a1,
                "ka_alpha1_norm": ka,
                "bundle_error": (str(error) if inside and error is not None
                                 else None),
                "in_c_star": inside,
                "base_point": i,
            })
        points.append(SweepPoint(eps=float(eps), ok=True, error=None,
                                 h1_norm=1.0 / eps, pairs=records))

    return SweepReport(eps_list=[float(e) for e in eps_list], points=points)
