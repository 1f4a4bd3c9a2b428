"""Write tests/exact_points.json: the exact real critical points of
every member with n <= 2 of the acceptance ensemble.

    python tests/exact_fixture.py

The members are those of iter_ensemble(200, 2024) with n <= 2 (65 of
them).  Each one's points are oracles.exact_critical_points(P): a lex
Groebner basis of grad J = 0 over the rationals, rooted at 40 digits,
rounded to floats and sorted.  The file holds, per member, its index in
the ensemble, n, N and the points, in ensemble order.  The instance
bits come from LAPACK calls in generate_instance, so the file is
written with one BLAS thread and is byte for byte the same on a machine
with the same numpy, OpenBLAS kernel and sympy; on another, the points
may move in their last bits.  tests/test_critical.py::TestExactOracle
reads the file and regenerates three members live.  Needs sympy and
scipy (the test extra).  Not collected by pytest: the file has no
test_ prefix.
"""

import json
import os
import sys
from pathlib import Path

TESTS = Path(__file__).resolve().parent
FIXTURE = TESTS / "exact_points.json"
ENSEMBLE = (200, 2024)   # iter_ensemble's count and seed
MAX_N = 2


def main():
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"   # before numpy is imported
    sys.path[:0] = [str(TESTS.parent / "src"), str(TESTS)]
    from dcquartic import iter_ensemble
    from oracles import exact_critical_points

    members = [{"member": k, "n": P.n, "N": P.N,
                "points": exact_critical_points(P).tolist()}
               for k, P in enumerate(iter_ensemble(*ENSEMBLE)) if P.n <= MAX_N]
    # one member a line
    FIXTURE.write_text(
        f'{{"ensemble": {json.dumps(ENSEMBLE)}, "members": [\n'
        + ",\n".join(map(json.dumps, members)) + "\n]}\n")
    print(f"wrote {len(members)} members, "
          f"{sum(len(m['points']) for m in members)} points to {FIXTURE}")


if __name__ == "__main__":
    main()
