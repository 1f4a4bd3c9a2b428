"""Verification pipeline orchestration and report assembly.

A RunReport is a plain dict (JSON-ready via the canonical writer) that
is byte-for-byte reproducible for identical inputs and seeds: no
timestamps, fixed key order, 17-significant-digit numbers.
"""

import numpy as np

from . import __version__
from .baseline import correspondence_report
from .critical import lift_to_dual, multistart
from .curvature import build_bundle, verify_chain_identity
from .errors import DualityError
from .gap import classify_case, global_min_certificate, local_extremality_probe
from .instancefile import instance_digest, instance_to_doc
from .problem import primal_value


# the report keys copied from CaseReport, ProbeEvidence and
# GlobalCertificate, in report order
MEMBERSHIP_KEYS = ("c_star", "c_star_margin", "b_star", "b_star_margin",
                   "a_star", "a_star_margin", "primal_hessian_margin",
                   "shifted_hessian_margin")
PROBE_KEYS = ("r", "r1", "n_samples", "primal_min_violations",
              "primal_max_violations", "dual_min_violations",
              "dual_max_violations", "dual_excluded")
CERTIFICATE_KEYS = ("passed", "inf_estimate", "lagrangian_value", "drop",
                    "rounding_bound", "bound_ok", "multistart_ok",
                    "j2_value", "j2_gap", "j2_matches_primal")


def _vec(x):
    return [float(v) for v in np.asarray(x).ravel()]


def _fields(obj, keys):
    return {key: getattr(obj, key) for key in keys}


def analyze_instance(P, n_seeds, rng_seed, n_samples):
    """multistart -> lift -> bundle -> classify -> gap -> probes ->
    baseline, with per-stage failures recorded per critical point."""
    ms = multistart(P, n_seeds, rng_seed)
    records = []
    for idx, (x0, its) in enumerate(zip(ms.points, ms.iterations)):
        pair = lift_to_dual(P, x0, newton_iterations=its)
        record = {
            "index": idx,
            "x0": _vec(pair.x0),
            "J": primal_value(P, pair.x0),
            "primal_residual": pair.primal_residual,
            "newton_iterations": pair.newton_iterations,
            "v_hat": _vec(pair.v_hat),
            "v0_hat": _vec(pair.v0_hat),
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
        bundle = None
        try:
            bundle = build_bundle(P, pair)
        except DualityError as exc:
            record["errors"]["bundle"] = str(exc)
        if bundle is not None:
            case = classify_case(P, pair, bundle)
            record["case"] = case.case_id
            record["gap"] = case.gap
            record["chain_residual"] = verify_chain_identity(P, pair, bundle)
            record["dual_hessian_asymmetry"] = bundle.dual_hessian_asymmetry
            record["alpha1_norm"] = float(np.linalg.norm(bundle.alpha1, "fro"))
            record["membership"] = _fields(case, MEMBERSHIP_KEYS)
            if n_samples > 0:
                probe = local_extremality_probe(
                    P, pair, n_samples, rng_seed,
                    case_id=case.case_id, bundle=bundle)
                record["probe"] = {**_fields(probe, PROBE_KEYS),
                                   "violations": probe.violations()}
            if case.case_id == "case2":
                try:
                    cert = global_min_certificate(P, pair, case, ms.points)
                    record["certificate"] = _fields(cert, CERTIFICATE_KEYS)
                except DualityError as exc:
                    record["errors"]["certificate"] = str(exc)
        try:
            base = correspondence_report(P, pair)
            record["baseline"] = {
                "minus_j1_value": base.minus_j1_value,
                "primal_inertia": list(base.primal_hessian_inertia),
                "baseline_inertia": list(base.baseline_hessian_inertia),
                "correspondence": base.correspondence,
                "ab_matrix_pd": base.ab_matrix_pd,
            }
        except DualityError as exc:
            record["errors"]["baseline"] = str(exc)
        records.append(record)
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


def _fmt(value, width=11):
    if value is None:
        return " " * (width - 1) + "-"
    if isinstance(value, bool):
        return f"{'yes' if value else 'no':>{width}}"
    if isinstance(value, (int, np.integer)):
        return f"{value:>{width}d}"
    if not np.isfinite(value):
        return f"{'nan':>{width}}"
    return f"{value:>{width}.3e}"


def _fmt_x(xs, limit=4):
    parts = [f"{v:.6g}" for v in xs[:limit]]
    if len(xs) > limit:
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
