"""Verification pipeline orchestration and report assembly.

A RunReport is a plain dict (JSON-ready via the canonical writer) that
is byte-for-byte reproducible for identical inputs and seeds: no
timestamps, fixed key order, 17-significant-digit numbers.
"""

import numpy as np

from . import __version__, linalg
from .baseline import _correspondence_stack
from .critical import _count, _lift_stack, find_critical_points
from .curvature import _bundle_stack, _chain_stack
from .errors import DualityError
from .gap import (
    _classify_stack,
    global_min_certificate,
    local_extremality_probes,
)
from .instancefile import instance_digest, instance_to_doc


def analyze_instance(P, n_seeds, rng_seed, n_samples):
    """find_critical_points -> lift -> bundle -> classify -> gap ->
    certificate -> baseline, with per-stage failures recorded per point.

    Each stage runs once per report, on the stack of its critical pairs:
    the lift, the bundles, the cases, the chain residuals and |alpha1|,
    the probes of every point with a bundle (one draw of each ball) and
    the baseline.  _record then writes each record in one pass, and runs
    the certificate at a case-2 pair.  The points come from
    find_critical_points' route table: the real roots of one cubic at
    n = 1 (every N), one (2n+1) eigenproblem at N = 1, one 18 x 18
    resultant eigenproblem at n = 2 and N >= 2, one (2n+1)^2
    two-parameter eigenproblem at N = 2 and n = 3 or 4, and
    multistart(P, n_seeds, rng_seed) otherwise or where a route falls
    back.  n_seeds and n_samples must be non-negative integers
    (ValueError otherwise)."""
    n_samples = _count(n_samples, "n_samples")
    ms = find_critical_points(P, n_seeds, rng_seed)
    pairs = _lift_stack(P, np.reshape(ms.points, (-1, P.n)))
    bundle, errors = _bundle_stack(P, pairs)
    formed = [pair for pair, error in zip(pairs, errors) if error is None]
    cases = _classify_stack(P, formed, bundle)
    probes = local_extremality_probes(
        P, formed, n_samples, rng_seed, [case.case_id for case in cases],
        bundle) if n_samples > 0 else [None] * len(formed)
    stages = zip(cases, _chain_stack(bundle).tolist(),
                 bundle.dual_hessian_asymmetry.tolist(),
                 linalg.frobenius_norm(bundle.alpha1).tolist(), probes)
    return [_record(P, ms, idx, pair,
                    error if error is not None else next(stages), base)
            for idx, (pair, error, base) in enumerate(
                zip(pairs, errors, _correspondence_stack(P, pairs)))], ms


def _record(P, ms, idx, pair, stage, base):
    """One point's record.  stage is the bundle's error, or (case, chain
    residual, dual Hessian asymmetry, |alpha1|, probe) where the bundle
    formed; base is the BaselineReport or its DualityError.  The
    certificate runs here at a case-2 pair, so errors are keyed in stage
    order: bundle, certificate, baseline."""
    errors, certificate = {}, None
    if isinstance(stage, DualityError):
        errors["bundle"], stage = str(stage), None
    elif stage[0].case_id == "case2":
        try:
            certificate = dict(vars(
                global_min_certificate(P, pair, ms.points)))
        except DualityError as exc:
            errors["certificate"] = str(exc)
    if isinstance(base, DualityError):
        errors["baseline"], base = str(base), None
    case, chain, asymmetry, alpha1, probe = stage or (None,) * 5
    if probe is not None:
        probe = vars(probe) | {"violations": probe.violations()}
        del probe["case_id"]
    c, b = pair.c_star, pair.b_star
    return {
        "index": idx,
        "x0": pair.x0.tolist(),
        "J": pair.J,
        "primal_residual": pair.primal_residual,
        "newton_iterations": ms.iterations[idx],
        "v_hat": pair.v_hat.tolist(),
        "v0_hat": pair.v0_hat.tolist(),
        "dual_residual_vstar": pair.dual_residual_vstar,
        "dual_residual_v0": pair.dual_residual_v0,
        "case": None if case is None else case.case_id,
        "gap": None if case is None else pair.J - pair.J_star,
        "chain_residual": chain,
        "dual_hessian_asymmetry": asymmetry,
        "alpha1_norm": alpha1,
        # A* = B* (see conjugates.in_A_star)
        "membership": None if case is None else {
            "c_star": c.inside, "c_star_margin": c.margin,
            "b_star": b.inside, "b_star_margin": b.margin,
            "a_star": b.inside, "a_star_margin": b.margin,
            "primal_hessian_margin": float(pair.d2j_spectrum[0][0]),
            "shifted_hessian_margin": case.shifted_hessian_margin,
        },
        "probe": probe,
        "certificate": certificate,
        "baseline": None if base is None else {
            "minus_j1_value": base.minus_j1_value,
            "primal_inertia": list(base.primal_hessian_inertia),
            "baseline_inertia": list(base.baseline_hessian_inertia),
            "correspondence": base.correspondence,
            "ab_matrix_pd": base.ab_matrix_pd,
        },
        "errors": errors,
    }


def summarize_records(records):
    cases = {"case1": 0, "case2": 0, "case3": 0, "unclassified": 0}
    max_rel_gap = 0.0
    max_chain = 0.0
    max_dual_residual = 0.0
    probe_violations = 0
    correspondence_false = 0
    for r in records:
        if r["case"] is not None:
            cases[r["case"]] += 1
            max_rel_gap = max(max_rel_gap,
                              abs(r["gap"]) / (1.0 + abs(r["J"])))
            max_chain = max(max_chain, r["chain_residual"])
        for key in ("dual_residual_vstar", "dual_residual_v0"):
            if r[key] is not None and np.isfinite(r[key]):
                max_dual_residual = max(max_dual_residual, r[key])
        if r["probe"] is not None:
            probe_violations += r["probe"]["violations"]
        if r["baseline"] is not None and not r["baseline"]["correspondence"]:
            correspondence_false += 1
    return {
        "n_points": len(records),
        "cases": cases,
        "max_relative_gap": max_rel_gap,
        "max_chain_residual": max_chain,
        "max_dual_residual": max_dual_residual,
        "probe_violations": probe_violations,
        "correspondence_false": correspondence_false,
    }


def build_run_report(P, n_seeds, rng_seed, n_samples):
    records, ms = analyze_instance(P, n_seeds, rng_seed, n_samples)
    summary = summarize_records(records)
    summary["n_dropped_starts"] = ms.n_dropped
    summary["n_merged_starts"] = ms.n_merged
    return {
        "tool": {"name": "dcquartic", "version": __version__},
        "instance_digest": instance_digest(P),
        "instance": instance_to_doc(P),
        "settings": {"seeds": int(n_seeds), "rng": int(rng_seed),
                     "samples": int(n_samples)},
        "critical_points": records,
        "summary": summary,
    }


def _fmt(value):
    if value is None:
        return f"{'-':>11}"
    return f"{value:>11.3e}"


def _fmt_x(xs):
    parts = [f"{v:.6g}" for v in xs[:4]]
    if len(xs) > 4:
        parts.append("...")
    return "[" + ", ".join(parts) + "]"


def format_point_table(records):
    lines = []
    header = (f"{'pt':>3} {'J(x0)':>12} {'case':>12} {'gap':>11} "
              f"{'chain':>11} {'|grad|':>11} {'probes':>7} {'corr':>5}  x0")
    lines.append(header)
    lines.append("-" * len(header))
    for r in records:
        probes = r["probe"]["violations"] if r["probe"] is not None else None
        corr = r["baseline"]["correspondence"] if r["baseline"] else None
        case = r["case"] if r["case"] is not None else "error"
        lines.append(
            f"{r['index']:>3} {r['J']:>12.5e} {case:>12} "
            f"{_fmt(r['gap'])} {_fmt(r['chain_residual'])} "
            f"{_fmt(r['primal_residual'])} "
            f"{probes if probes is not None else '-':>7} "
            f"{('yes' if corr else 'no') if corr is not None else '-':>5}  "
            f"{_fmt_x(r['x0'])}")
        for stage, msg in r["errors"].items():
            lines.append(f"    [{stage}] {msg}")
        if r["certificate"] is not None:
            cert = r["certificate"]
            lines.append(
                f"    global certificate: "
                f"{'PASS' if cert['passed'] else 'FAIL'} "
                f"(inf J = {cert['inf_estimate']:.9e}, "
                f"|J2* - J| = {cert['j2_gap']:.3e})")
    return "\n".join(lines)
