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
"""

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from . import linalg
from .conjugates import (
    a_star_membership,
    in_B_star,
    in_C_star,
    j2_star,
    j_star,
    j_tilde_star,
)
from .critical import lift_to_dual, multistart
from .curvature import build_bundle, verify_chain_identity
from .errors import (
    DualityError,
    NotCase2Error,
    ValidationError,
)
from .problem import primal_hessian, primal_value, validate_instance

PROBE_TOL = 1e-9
CERT_GAP_TOL = 1e-8
CERT_SAMPLE_TOL = 1e-9


@dataclass
class CaseReport:
    case_id: str                       # case1 | case2 | case3 | unclassified
    gap: float
    primal_hessian_margin: float
    shifted_hessian_margin: float
    c_star: bool
    c_star_margin: float
    b_star: bool
    b_star_margin: float
    a_star: bool
    a_star_margin: float


def classify_case(P, pair, bundle):
    """Evaluate the three case predicates with eigenvalue margins."""
    d2j = primal_hessian(P, pair.x0)
    shifted = d2j + P.K_minus_A @ bundle.alpha1
    d2j_min, d2j_max, d2j_eps = linalg.spectrum_ends(d2j)
    sh_min, sh_max, sh_eps = linalg.spectrum_ends(shifted)

    c = in_C_star(P, pair.v0_hat)
    b = in_B_star(P, pair.v0_hat)
    a = a_star_membership(c, b)

    if a.inside:
        case_id = "case2"
    elif c.inside and d2j_min > d2j_eps and sh_min > sh_eps:
        case_id = "case1"
    elif c.inside and d2j_max < -d2j_eps and sh_max < -sh_eps:
        case_id = "case3"
    else:
        case_id = "unclassified"

    gap = verify_zero_gap(P, pair) if c.inside else float("nan")
    return CaseReport(
        case_id=case_id, gap=gap,
        primal_hessian_margin=d2j_min,
        shifted_hessian_margin=sh_min,
        c_star=c.inside, c_star_margin=c.margin,
        b_star=b.inside, b_star_margin=b.margin,
        a_star=a.inside, a_star_margin=a.margin,
    )


def verify_zero_gap(P, pair):
    """J(x0) - J*(vhat, vhat0); zero at every critical pair in C*.

    Raises OutsideCstarError (from J*) when vhat0 is outside C*.
    """
    return primal_value(P, pair.x0) - j_star(P, pair.v_hat, pair.v0_hat)


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
    primal_worst: float
    dual_worst: float

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
    """Sample balls around x0 and vhat and count extremality violations.

    The primal radius is 0.1 (1 + |x0|) / sqrt(1 + |d2J(x0)|) and the
    dual radius follows the same scaling with the dual Hessian.  The
    dual samples are solved as one stack by j_tilde_star, warm-started at
    the lifted multiplier; a sample whose solve fails (a nan row) is
    excluded and counted.
    """
    if bundle is None:
        bundle = build_bundle(P, pair)
    if case_id is None:
        case_id = classify_case(P, pair, bundle).case_id

    x0, v_hat, v0_hat = pair.x0, pair.v_hat, pair.v0_hat
    d2j = primal_hessian(P, x0)
    r = 0.1 * (1.0 + float(np.linalg.norm(x0))) \
        / np.sqrt(1.0 + linalg.spectral_norm_sym(d2j))
    r1 = 0.1 * (1.0 + float(np.linalg.norm(v_hat))) \
        / np.sqrt(1.0 + linalg.spectral_norm_sym(
            linalg.symmetrize(bundle.dual_hessian)))

    j0 = primal_value(P, x0)
    jt0 = j_star(P, v_hat, v0_hat)

    primal_rng = np.random.default_rng([rng_seed, 0])
    xs = linalg.ball_samples(primal_rng, x0, r, n_samples)
    jvals = np.array([primal_value(P, x) for x in xs])
    p_min = int(np.sum(jvals < j0 - PROBE_TOL))
    p_max = int(np.sum(jvals > j0 + PROBE_TOL))

    dual_rng = np.random.default_rng([rng_seed, 1])
    vs = linalg.ball_samples(dual_rng, v_hat, r1, n_samples)
    jtvals, _ = j_tilde_star(P, vs, init=v0_hat)
    solved = ~np.isnan(jtvals)
    jtvals = jtvals[solved]
    below = jtvals < jt0 - PROBE_TOL
    above = jtvals > jt0 + PROBE_TOL
    d_min, d_max = int(np.sum(below)), int(np.sum(above))
    excluded = int(n_samples - np.sum(solved))
    dual_worst = float(np.max(np.abs(jtvals - jt0)[below | above],
                              initial=0.0))

    primal_worst = 0.0
    if case_id in ("case1", "case2") and p_min:
        primal_worst = float(j0 - np.min(jvals))
    elif case_id == "case3" and p_max:
        primal_worst = float(np.max(jvals) - j0)

    return ProbeEvidence(
        case_id=case_id, r=float(r), r1=float(r1), n_samples=int(n_samples),
        primal_min_violations=p_min, primal_max_violations=p_max,
        dual_min_violations=d_min, dual_max_violations=d_max,
        dual_excluded=excluded,
        primal_worst=primal_worst, dual_worst=dual_worst,
    )


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

    ``margin`` is the smallest eigenvalue of S (a CaseReport's
    b_star_margin).  Returns (bound, L(x0, v), drop, rounding): drop is
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
    factor = linalg.pd_factor(S)
    if factor is None:
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


def global_min_certificate(P, pair, case, critical_points):
    """Certify the case-2 conclusion that x0 is the global minimum.

    ``case`` is the pair's CaseReport from classify_case; any case other
    than case2 raises NotCase2Error.  ``critical_points`` are the primal
    critical points already found for P, such as the ``points`` of a
    multistart run.  inf_estimate is lagrangian_bound at the computed
    (x0, vhat0).  The bound holds for any multiplier v at which
    A + sum_j v_j B_j is positive definite, so drift in the lifted
    multiplier cannot weaken it.  Passes when that matrix
    factors, J(x0) is within CERT_GAP_TOL of the bound, J(x0) is below
    every one of the critical points, and one J2*(vhat) solve, the
    independent cross-check, matches J(x0).
    """
    if case.case_id != "case2":
        raise NotCase2Error(f"pair classified as {case.case_id}")

    j0 = primal_value(P, pair.x0)
    tol = CERT_GAP_TOL * (1.0 + abs(j0))
    bound, lagrangian, drop, rounding = lagrangian_bound(
        P, pair.x0, pair.v0_hat, case.b_star_margin)
    bound_ok = bool(j0 - bound <= tol)
    multistart_ok = all(j0 <= primal_value(P, x) + CERT_SAMPLE_TOL
                        for x in critical_points)
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
    slopes: List[dict] = field(default_factory=list)


def epsilon_sweep(P_base, eps_list, rng_seed, n_seeds=16):
    """Re-solve the instance with K = A + eps I across a list of eps.

    The primal functional does not involve K, so critical points match
    across the sweep; matched pairs give per-point records of
    |(K - A) alpha1| = eps |alpha1| and a fitted log-log slope of that
    norm against eps (only over pairs present, with multiplier in C*, at
    every sweep value).
    """
    base_points = multistart(P_base, n_seeds, rng_seed).points
    points = []
    matched = {i: {} for i in range(len(base_points))}
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
        sp = SweepPoint(eps=float(eps), ok=True, error=None,
                        h1_norm=1.0 / eps)
        ms = multistart(P_eps, n_seeds, rng_seed)
        for x0, its in zip(ms.points, ms.iterations):
            pair = lift_to_dual(P_eps, x0, newton_iterations=its)
            record = {
                "x0": x0,
                "gap": float("nan"),
                "chain_residual": float("nan"),
                "alpha1_norm": float("nan"),
                "ka_alpha1_norm": float("nan"),
                "in_c_star": False,
                "base_point": None,
            }
            for i, bp in enumerate(base_points):
                if float(np.max(np.abs(bp - x0))) <= 1e-6:
                    record["base_point"] = i
                    break
            if in_C_star(P_eps, pair.v0_hat).inside:
                record["in_c_star"] = True
                record["gap"] = verify_zero_gap(P_eps, pair)
                try:
                    bundle = build_bundle(P_eps, pair)
                except DualityError:
                    bundle = None
                if bundle is not None:
                    record["chain_residual"] = verify_chain_identity(
                        P_eps, pair, bundle)
                    record["alpha1_norm"] = float(
                        np.linalg.norm(bundle.alpha1, "fro"))
                    record["ka_alpha1_norm"] = float(
                        np.linalg.norm(P_eps.K_minus_A @ bundle.alpha1, "fro"))
                    if record["base_point"] is not None:
                        matched[record["base_point"]][float(eps)] = \
                            record["ka_alpha1_norm"]
            sp.pairs.append(record)
        points.append(sp)

    valid_eps = [p.eps for p in points if p.ok]
    slopes = []
    for i, series in matched.items():
        if len(valid_eps) < 2 or any(e not in series for e in valid_eps):
            continue
        norms = np.array([series[e] for e in valid_eps])
        entry = {"base_point": i,
                 "eps": list(valid_eps),
                 "norms": [float(v) for v in norms],
                 "slope": None}
        # norms at roundoff scale mean alpha1 = 0; no slope to fit there
        if np.all(norms > 1e-12):
            slope = np.polyfit(np.log(valid_eps), np.log(norms), 1)[0]
            entry["slope"] = float(slope)
        slopes.append(entry)
    return SweepReport(eps_list=[float(e) for e in eps_list],
                       points=points, slopes=slopes)
