"""Command line interface.

Subcommands: validate | verify | sweep | baseline | chain.

verify, chain, baseline and a plain sweep all print from
report.analyze_instance: chain and baseline print columns of the records
that verify reports, and sweep totals them with summarize_records.

Exit codes are stable for scripting: 0 success, 1 internal failure,
2 validation or parse failure.
"""

import argparse
import dataclasses
import math
import sys

from .ensembles import generate_instance
from .errors import DualityError, ParseError, ValidationError
from .gap import epsilon_sweep
from .instancefile import dumps_canonical, load_instance
from .report import (
    analyze_instance,
    build_run_report,
    format_point_table,
    summarize_records,
)

MAX_SWEEP_N = 16
MAX_SWEEP_BIG_N = 8
MAX_SWEEP_COUNT = 10_000
SEEDS_HELP = ("multistart starts per instance, used at n >= 4 with N >= 3, "
              "at n >= 5 with N = 2 and where a route falls back: the cubic "
              "(n = 1), the pencil (N = 1), the Macaulay route (n = 2, and "
              "n = 3 with N >= 3) and the two-parameter route (N = 2, "
              "n = 3-4) need none; 0 finds no point")


def _write_json(path, doc):
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(dumps_canonical(doc) + "\n")


def cmd_validate(args):
    P = load_instance(args.path)
    print(f"ok: instance valid (n={P.n}, N={P.N}, "
          f"K-A margin {P.kma_min_eig:.3e}"
          f"{', override' if P.coercivity_override else ''})")
    return 0


def cmd_verify(args):
    P = load_instance(args.path)
    report = build_run_report(P, args.seeds, args.rng, args.samples)
    summary = report["summary"]
    print(f"instance {report['instance_digest'][:12]}  "
          f"n={P.n} N={P.N}  seeds={args.seeds} rng={args.rng}")
    print(f"{summary['n_points']} critical point(s), "
          f"{summary['n_dropped_starts']} start(s) dropped")
    print(format_point_table(report["critical_points"]))
    print(f"max relative gap  {summary['max_relative_gap']:.3e}")
    print(f"max chain residual {summary['max_chain_residual']:.3e}")
    if args.json:
        _write_json(args.json, report)
    return 0


def cmd_chain(args):
    records, _ = analyze_instance(load_instance(args.path), args.seeds,
                                  args.rng, 0)
    print(f"{'pt':>3} {'J(x0)':>12} {'chain residual':>15} {'asym':>11}")
    for r in records:
        tail = (f"error: {r['errors']['bundle']}" if "bundle" in r["errors"]
                else f"{r['chain_residual']:>15.3e} "
                     f"{r['dual_hessian_asymmetry']:>11.3e}")
        print(f"{r['index']:>3} {r['J']:>12.5e} {tail}")
    return 0


def cmd_baseline(args):
    records, _ = analyze_instance(load_instance(args.path), args.seeds,
                                  args.rng, 0)
    print(f"{'pt':>3} {'-J1*':>12} {'primal inertia':>15} "
          f"{'dual inertia':>13} {'corr':>5} {'S pd':>5}")
    for r in records:
        base = r["baseline"]
        if base is None:
            print(f"{r['index']:>3} error: {r['errors']['baseline']}")
            continue
        print(f"{r['index']:>3} {base['minus_j1_value']:>12.5e} "
              f"{str(tuple(base['primal_inertia'])):>15} "
              f"{str(tuple(base['baseline_inertia'])):>13} "
              f"{'yes' if base['correspondence'] else 'no':>5} "
              f"{'yes' if base['ab_matrix_pd'] else 'no':>5}")
    return 0


def _parse_eps_list(text):
    """The eps values of --eps-list: at least one, each finite.  An eps
    <= 0 is kept; the sweep records it as a failed point."""
    try:
        eps_list = [float(v) for v in text.split(",") if v.strip()]
    except ValueError as exc:
        raise ParseError(f"bad --eps-list: {exc}") from exc
    if not eps_list:
        raise ParseError("bad --eps-list: no values")
    if not all(math.isfinite(e) for e in eps_list):
        raise ParseError(f"bad --eps-list: {eps_list} has a non-finite value")
    return eps_list


def cmd_sweep(args):
    if not (1 <= args.n <= MAX_SWEEP_N):
        raise ParseError(f"--n must be in [1, {MAX_SWEEP_N}]")
    if not (1 <= args.big_n <= MAX_SWEEP_BIG_N):
        raise ParseError(f"--N must be in [1, {MAX_SWEEP_BIG_N}]")
    if not (0 <= args.count <= MAX_SWEEP_COUNT):
        raise ParseError(f"--count must be in [0, {MAX_SWEEP_COUNT}]")
    eps_list = None if args.eps_list is None \
        else _parse_eps_list(args.eps_list)

    results = []
    for i in range(args.count):
        P = generate_instance(args.n, args.big_n, [args.rng, 1 + i])
        if eps_list is None:
            records, ms = analyze_instance(P, args.seeds, args.rng,
                                           args.samples)
            summary = summarize_records(records)
            summary["n_dropped_starts"] = ms.n_dropped
            results.append({"index": i, "summary": summary,
                            "critical_points": records})
        else:
            sweep = epsilon_sweep(P, eps_list, args.rng, n_seeds=args.seeds)
            results.append({"index": i, "sweep": dataclasses.asdict(sweep)})

    doc = {"settings": {"n": args.n, "N": args.big_n, "count": args.count,
                        "rng": args.rng, "seeds": args.seeds,
                        "samples": args.samples,
                        "eps_list": eps_list},
           "instances": results}
    if eps_list is None:
        _print_plain_sweep(results)
    else:
        _print_eps_sweep(results)
    if args.json:
        _write_json(args.json, doc)
    return 0


def _print_plain_sweep(results):
    records = [rec for r in results for rec in r["critical_points"]]
    totals = summarize_records(records)
    max_alpha1 = max([0.0] + [rec["alpha1_norm"] for rec in records
                              if rec["alpha1_norm"] is not None])
    print(f"instances           {len(results)}")
    print(f"critical points     {totals['n_points']}")
    print(f"max relative gap    {totals['max_relative_gap']:.3e}")
    print(f"max chain residual  {totals['max_chain_residual']:.3e}")
    print(f"max |alpha1|        {max_alpha1:.3e}")
    print(f"correspondence-false pairs {totals['correspondence_false']}")


def _print_eps_sweep(results):
    max_ka_alpha1 = max([0.0] + [
        rec["ka_alpha1_norm"] for r in results
        for point in r["sweep"]["points"] for rec in point["pairs"]
        if math.isfinite(rec["ka_alpha1_norm"])])
    print(f"instances           {len(results)}")
    print(f"max |(K-A)alpha1|   {max_ka_alpha1:.3e}")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="dcquartic",
        description="Duality certificates for quadratic-plus-quartic "
                    "functionals: critical points, dual lifts, curvature "
                    "chains, gap and extremality verification.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check an instance file")
    p.add_argument("path")
    p.set_defaults(func=cmd_validate)

    # the instance and search options of verify, chain and baseline
    one = argparse.ArgumentParser(add_help=False)
    one.add_argument("path")
    one.add_argument("--seeds", type=int, default=32,
                     help=SEEDS_HELP + " (default 32)")
    one.add_argument("--rng", type=int, default=7,
                     help="random seed (default 7)")

    p = sub.add_parser("verify", parents=[one],
                       help="full verification of one instance")
    p.add_argument("--samples", type=int, default=1000,
                   help="extremality probe samples per point (default 1000)")
    p.add_argument("--json", help="write the machine report here")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("sweep", help="seeded random ensemble runs")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--N", dest="big_n", type=int, required=True)
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--rng", type=int, default=3)
    p.add_argument("--seeds", type=int, default=12,
                   help=SEEDS_HELP + " (default 12)")
    p.add_argument("--samples", type=int, default=0,
                   help="probe samples per point (default 0: skip probes)")
    p.add_argument("--eps-list",
                   help="comma separated; drives K = A + eps I per "
                        "instance; write --eps-list=-0.5,0.1 when the "
                        "first value is negative")
    p.add_argument("--json", help="write the machine report here")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("baseline", parents=[one],
                       help="literature-dual correspondence per pair")
    p.set_defaults(func=cmd_baseline)

    p = sub.add_parser("chain", parents=[one],
                       help="curvature bundle and chain residual per pair")
    p.set_defaults(func=cmd_chain)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        for flag in ("seeds", "rng", "samples"):
            if getattr(args, flag, 0) < 0:
                raise ParseError(f"--{flag} must be >= 0")
        return args.func(args)
    except (ParseError, ValidationError) as exc:
        reason = getattr(exc, "reason", "parse-error")
        print(f"error ({reason}): {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error (parse-error): {exc}", file=sys.stderr)
        return 2
    except DualityError as exc:
        print(f"internal failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
