"""Check the paper's claims on reports off the acceptance distribution.

    python tests/stress.py

Draws 216 instances generate_instance(n, N, [99, i], k_margin, f_scale,
c_range), i counting the draws of the nested loops over n in 1..4, N in
1..3, k_margin in (1e-3, 0.1, 1), f_scale in (0.01, 1, 30) and c_range
in ((-1, 1), (-10, 10)), in that order, and adds one instance by name:
[99, 86] at n = 2, N = 1, k_margin 0.1, f_scale 0.01, c_range (-10, 10),
where the N = 1 route once dropped two of its three points.  Runs
analyze_instance(P, 12, 7, 100) on each and prints, for each check, how
many instances pass it and which fail it:
  - no exception escapes analyze_instance;
  - |gap| and the chain residual are at most 1e-8 (1 + |J|) wherever a
    case is set;
  - no probe violation in cases 1-3;
  - every case-2 certificate passes.
Then it prints the recall of the reported points against a reference
set: the exact critical points (tests/oracles.py::exact_critical_points)
at n <= 2, and multistart(P, 400, 11) at n >= 3, with the recall at
n = 1 apart (the cubic route, which should hold every exact point), at
N = 2, n = 3-4 apart (the two-parameter route, which should hold every
point of the 400 starts) and at n = N = 3 apart (the Macaulay route,
which should too), the instances that miss a point and those that miss
one below their lowest reported J.  A
point counts as found within 1e-8 (1 + |x|inf).  multistart is blind
where the critical points lie far outside |x| = 1, since its starts
have scale 1 + |f| / (1 + lmin(K - A)): draw 175 (n = 4, N = 1,
k_margin 1, f_scale 0.01, c_range (-10, 10)) has its global minimum
pair at |x| ~ 21, which the N = 1 route reports and multistart misses,
so it shows there as route points the reference lacks.

Pins one BLAS thread before numpy is imported.  Needs sympy and scipy
(the test extra).  Not collected by pytest: the file has no test_
prefix.
"""

import itertools
import os
import sys
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"   # before numpy is imported

import numpy as np  # noqa: E402

TESTS = Path(__file__).resolve().parent
sys.path[:0] = [str(TESTS.parent / "src"), str(TESTS)]
K_MARGINS = (1e-3, 0.1, 1.0)
F_SCALES = (0.01, 1.0, 30.0)
C_RANGES = ((-1.0, 1.0), (-10.0, 10.0))
TOL = 1e-8


def draws():
    """(label, generate_instance arguments) for every stress instance."""
    grid = itertools.product(range(1, 5), range(1, 4), K_MARGINS, F_SCALES,
                             C_RANGES)
    for i, (n, N, k_margin, f_scale, c_range) in enumerate(grid):
        yield f"draw {i}", (n, N, [99, i], k_margin, f_scale, c_range)
    yield "item-12 [99, 86]", (2, 1, [99, 86], 0.1, 0.01, (-10.0, 10.0))


def _found(x, points):
    """Is x within TOL (1 + |x|inf) of a row of points?"""
    return any(np.max(np.abs(x - y)) <= TOL * (1.0 + np.max(np.abs(x)))
               for y in points)


def main():
    from dcquartic import generate_instance, multistart, primal_value
    from dcquartic.report import analyze_instance
    from oracles import exact_critical_points

    # each check's failing instances
    failed = {name: [] for name in (
        "no exception escapes", "gap and chain within 1e-8 (1 + |J|)",
        "no probe violation in cases 1-3", "every case-2 certificate passes")}
    count = 0
    missed, missed_below, extra = [], [], []
    reference_count = found_count = 0
    n1_count = n1_found = 0
    two_count = two_found = 0
    three_count = three_found = 0
    for label, args in draws():
        P = generate_instance(*args)
        label = f"{label} (n = {P.n}, N = {P.N}, k_margin {args[3]:g}, " \
                f"f_scale {args[4]:g}, c_range {args[5]})"
        count += 1
        try:
            records, _ = analyze_instance(P, 12, 7, 100)
        except Exception as exc:
            failed["no exception escapes"].append(
                f"{label}: {type(exc).__name__}: {exc}")
            continue
        cased = [r for r in records if r["case"] is not None]
        if any(max(abs(r["gap"]), r["chain_residual"])
               > TOL * (1.0 + abs(r["J"])) for r in cased):
            failed["gap and chain within 1e-8 (1 + |J|)"].append(label)
        if any(r["probe"]["violations"] for r in cased
               if r["case"] != "unclassified"):
            failed["no probe violation in cases 1-3"].append(label)
        if any(r["certificate"] is None or not r["certificate"]["passed"]
               for r in cased if r["case"] == "case2"):
            failed["every case-2 certificate passes"].append(label)

        points = np.array([r["x0"] for r in records]).reshape(-1, P.n)
        reference = exact_critical_points(P) if P.n <= 2 else \
            np.reshape(multistart(P, 400, 11).points, (-1, P.n))
        hits = [_found(y, points) for y in reference]
        reference_count += len(reference)
        found_count += sum(hits)
        if P.n == 1:
            n1_count += len(reference)
            n1_found += sum(hits)
        if P.N == 2 and P.n in (3, 4):
            two_count += len(reference)
            two_found += sum(hits)
        if P.n == P.N == 3:
            three_count += len(reference)
            three_found += sum(hits)
        if not all(hits):
            missed.append(label)
            lowest = min((r["J"] for r in records), default=np.inf)
            if np.any(primal_value(P, reference[~np.array(hits)]) < lowest):
                missed_below.append(label)
        if not all(_found(x, reference) for x in points):
            extra.append(label)

    for name, labels in failed.items():
        print(f"{name}: {count - len(labels)} of {count}")
        for label in labels:
            print(f"    {label}")
    print(f"recall: {found_count} of {reference_count} reference points "
          f"(exact at n <= 2, multistart(P, 400, 11) at n >= 3); "
          f"at n = 1: {n1_found} of {n1_count}; at N = 2, n = 3-4: "
          f"{two_found} of {two_count}; at n = N = 3: {three_found} of "
          f"{three_count}")
    for title, labels in (
            ("instances that miss a reference point", missed),
            ("  of them, missing one below their lowest reported J",
             missed_below),
            ("instances with points the reference lacks", extra)):
        print(f"{title}: {len(labels)}")
        for label in labels:
            print(f"    {label}")


if __name__ == "__main__":
    main()
