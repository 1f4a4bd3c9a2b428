"""Verification pipeline orchestration and report assembly.

A RunReport is a plain dict (JSON-ready via the canonical writer) that
is byte-for-byte reproducible for identical inputs and seeds: no
timestamps, fixed key order, 17-significant-digit numbers.
"""

import dataclasses

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
    verify_zero_gap,
)
from .instancefile import instance_digest, instance_to_doc


def analyze_instance(P, n_seeds, rng_seed, n_samples):
    """find_critical_points -> lift -> bundle -> classify -> gap ->
    certificate -> baseline, with per-stage failures recorded per point.

    Each stage runs once per report, on the stack of its critical pairs:
    the lift, the bundles, the cases with their gaps, the chain
    residuals and |alpha1|, and the baseline.  Only the certificate runs
    per pair, at the case-2 pairs.  The probes of every point with a
    bundle then run as one stack, with one draw of each ball.  The
    points come from the (2n+1) eigenproblem at N = 1 and from
    multistart(P, n_seeds, rng_seed) otherwise.  n_seeds and n_samples
    must be non-negative integers (ValueError otherwise)."""
    n_samples = _count(n_samples, "n_samples")
    ms = find_critical_points(P, n_seeds, rng_seed)
    pairs = _lift_stack(P, np.reshape(ms.points, (-1, P.n)))
    bundle, errors = _bundle_stack(P, pairs)
    formed = [i for i, error in enumerate(errors) if error is None]
    stages = dict(zip(formed, zip(
        _classify_stack(P, [pairs[i] for i in formed], bundle),
        _chain_stack(bundle).tolist(),
        linalg.frobenius_norm(bundle.alpha1).tolist(),
        bundle.dual_hessian_asymmetry.tolist())))

    records = []
    for idx, pair in enumerate(pairs):
        record = {
            "index": idx,
            "x0": pair.x0.tolist(),
            "J": pair.J,
            "primal_residual": pair.primal_residual,
            "newton_iterations": ms.iterations[idx],
            "v_hat": pair.v_hat.tolist(),
            "v0_hat": pair.v0_hat.tolist(),
            "dual_residual_vstar": pair.dual_residual_vstar,
            "dual_residual_v0": pair.dual_residual_v0,
            "case": None,
            "gap": None,
            "chain_residual": None,
            "dual_hessian_asymmetry": None,
            "alpha1_norm": None,
            "membership": None,
            "probe": None,
            "certificate": None,
            "baseline": None,
            "errors": {},
        }
        records.append(record)
        if idx not in stages:
            record["errors"]["bundle"] = str(errors[idx])
            continue
        (case, record["chain_residual"], record["alpha1_norm"],
         record["dual_hessian_asymmetry"]) = stages[idx]
        c, b = pair.c_star, pair.b_star
        record["case"] = case.case_id
        record["gap"] = verify_zero_gap(P, pair) if c.inside else float("nan")
        # A* = B* (see conjugates.in_A_star)
        record["membership"] = {
            "c_star": c.inside, "c_star_margin": c.margin,
            "b_star": b.inside, "b_star_margin": b.margin,
            "a_star": b.inside, "a_star_margin": b.margin,
            "primal_hessian_margin": float(pair.d2j_spectrum[0][0]),
            "shifted_hessian_margin": case.shifted_hessian_margin,
        }
        if case.case_id == "case2":
            try:
                cert = global_min_certificate(P, pair, ms.points)
                record["certificate"] = dataclasses.asdict(cert)
            except DualityError as exc:
                record["errors"]["certificate"] = str(exc)

    for record, base in zip(records,
                            _correspondence_stack(P, pairs)):
        if isinstance(base, DualityError):
            record["errors"]["baseline"] = str(base)
            continue
        record["baseline"] = {
            "minus_j1_value": base.minus_j1_value,
            "primal_inertia": list(base.primal_hessian_inertia),
            "baseline_inertia": list(base.baseline_hessian_inertia),
            "correspondence": base.correspondence,
            "ab_matrix_pd": base.ab_matrix_pd,
        }
    if n_samples > 0:
        probes = local_extremality_probes(
            P, [pairs[i] for i in formed], n_samples, rng_seed,
            [stages[i][0].case_id for i in formed], bundle)
        for i, probe in zip(formed, probes):
            block = dataclasses.asdict(probe)
            del block["case_id"]
            records[i]["probe"] = {**block, "violations": probe.violations()}
    return records, ms


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
