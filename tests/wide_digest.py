"""One sha256 over a wide set of report texts, to check that a change
leaves every report byte for byte as it was.

    python tests/wide_digest.py

Hashes, in this order, the dumps_canonical text of
  - analyze_instance(P, 12, 7, 50 if k < 60 else 0)[0] for the 200
    members k of iter_ensemble(200, 2024);
  - build_run_report(P, 32, seed, 1000) for trifecta.json and then
    global_min.json, each at seeds 3, 7 and 11;
  - dataclasses.asdict(epsilon_sweep(...)) of 20 generated instances
    at eps 0.5, 0.1, 0.01, 0.0 and 0.001.
Prints the digest, then how many members form no bundle row and how
many valid sweep points have no pair in C*, then one sha256 for each of
the three groups (members, sample reports, sweeps) over the same texts
in the same order, to show which group moved.  A line "barriers" is
hashed apart from the digest: the j2_star results (value, v0_star,
boundary_attained and a_star_margin, or the name of the library error
raised) at six points w = v_hat + 0.8 (1 + |v_hat|) z around each case-2
pair of find_critical_pairs(P, 12, 7) over members 0-119, z from one
default_rng(5) stream, each started at the pair's v0_hat: 72 of those
246 calls run the log-det barrier, which no report reaches.  A line
"phase1" is hashed apart the same way: j2_star from its default init
at three points v_hat + 0.5 (1 + max |v_hat|) z around each converged
pair of find_critical_pairs(P, 12, 7) over members 0-39, z from one
default_rng(6) stream.  Far from v_hat0 phase 1's A* ascent runs: 171
of those 276 calls raise AStarEmptyError.  A last line, "solves", is
hashed apart too: for each member of
iter_ensemble(200, 2024), each SolveResult of the lockstep Newton
critical._solve_stack(P, critical._starts(P, 12, 7)), as its x0 bytes,
converged byte, iteration count and grad_norm bytes.  Run it at two
commits and compare the digests.  Pins one BLAS thread before
numpy is imported and needs only numpy and the library.  Not collected
by pytest: the file has no test_ prefix.
"""

import dataclasses
import hashlib
import itertools
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main():
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"   # before numpy is imported
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np

    from dcquartic import (
        DualityError,
        critical,
        epsilon_sweep,
        find_critical_pairs,
        generate_instance,
        iter_ensemble,
        j2_star,
        load_instance,
    )
    from dcquartic.instancefile import dumps_canonical
    from dcquartic.report import analyze_instance, build_run_report

    digest = hashlib.sha256()
    groups = {name: hashlib.sha256()
              for name in ("members", "samples", "sweeps")}

    def update(group, doc):
        text = dumps_canonical(doc).encode()
        digest.update(text)
        groups[group].update(text)

    no_row = 0
    for k, P in enumerate(iter_ensemble(200, 2024)):
        records = analyze_instance(P, 12, 7, 50 if k < 60 else 0)[0]
        no_row += all(record["case"] is None for record in records)
        update("members", records)
    for name in ("trifecta.json", "global_min.json"):
        P = load_instance(ROOT / "sample_instances" / name)
        for seed in (3, 7, 11):
            update("samples", build_run_report(P, 32, seed, 1000))
    no_inside = 0
    for i in range(20):
        P = generate_instance(2 + i % 3, 1 + i % 3, [5, i])
        sweep = epsilon_sweep(P, [0.5, 0.1, 0.01, 0.0, 0.001], 3, n_seeds=12)
        no_inside += sum(point.ok and not any(
            record["in_c_star"] for record in point.pairs)
            for point in sweep.points)
        update("sweeps", dataclasses.asdict(sweep))
    def j2_doc(P, v_star, init):
        try:
            res = j2_star(P, v_star, init=init)
            return [res.value, res.v0_star, bool(res.boundary_attained),
                    res.a_star_margin]
        except DualityError as exc:
            return type(exc).__name__

    barriers = hashlib.sha256()
    rng = np.random.default_rng(5)
    for P in itertools.islice(iter_ensemble(200, 2024), 120):
        for pair in find_critical_pairs(P, 12, 7):
            if not pair.b_star.inside:
                continue
            for z in rng.standard_normal((6, P.n)):
                w = pair.v_hat + 0.8 * (1.0 + np.abs(pair.v_hat)) * z
                barriers.update(
                    dumps_canonical(j2_doc(P, w, pair.v0_hat)).encode())
    phase1 = hashlib.sha256()
    rng = np.random.default_rng(6)
    for P in itertools.islice(iter_ensemble(200, 2024), 40):
        for pair in find_critical_pairs(P, 12, 7):
            if not pair.converged:
                continue
            for z in rng.standard_normal((3, P.n)):
                w = pair.v_hat + 0.5 * (1.0 + np.max(np.abs(pair.v_hat))) * z
                phase1.update(dumps_canonical(j2_doc(P, w, None)).encode())
    solves = hashlib.sha256()
    for P in iter_ensemble(200, 2024):
        for res in critical._solve_stack(P, critical._starts(P, 12, 7)):
            for part in (res.x0.tobytes(), bytes([res.converged]),
                         str(res.iterations).encode(),
                         np.float64(res.grad_norm).tobytes()):
                solves.update(part)
    print(digest.hexdigest())
    print(f"{no_row} members form no bundle row")
    print(f"{no_inside} valid sweep points have no pair in C*")
    for name, group in groups.items():
        print(f"{name:8} {group.hexdigest()}")
    print(f"barriers {barriers.hexdigest()}")
    print(f"phase1   {phase1.hexdigest()}")
    print(f"solves   {solves.hexdigest()}")


if __name__ == "__main__":
    main()
