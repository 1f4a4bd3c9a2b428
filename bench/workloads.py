"""The benchmark workloads: their inputs, one instance's work, and the
correctness gate on its output.

The instances are fixed: the two bundled sample files, and the first
members of the acceptance ensemble (``iter_ensemble(count, 2024)``, the
population of tests/test_acceptance.py).  ``--seed`` is the rng of
verify-samples (multistart starts, probe samples, certificate samples).
The ensemble workloads keep the acceptance fixture's rng 7, because
their run time hinges on discrete events the rng decides (a start that
stalls, a case-2 point found or missed); bench/LAYERS.md gives the
measured swings.

Library calls go through module attributes (``report.build_run_report``
rather than an imported name) so that the span wrappers see them.
"""

import hashlib
import math

import numpy as np

from dcquartic import conjugates, critical, ensembles, gap, instancefile, report
from dcquartic.problem import primal_value

VERIFY_FILES = ("trifecta.json", "global_min.json")
VERIFY_SEEDS = 32          # the `dcquartic verify` settings in README.md
VERIFY_SAMPLES = 1000

ENSEMBLE_SEED = 2024       # the acceptance ensemble
MULTISTART_SEEDS = 12      # the acceptance fixture's starts per instance
RNG_SEED = 7               # the acceptance fixture's multistart rng
GAP_COUNT = 130
CERTIFY_COUNT = 25

GAP_TOL = 1e-10            # trifecta |gap|
REL_GAP_TOL = 1e-8         # acceptance criterion 1
CHAIN_TOL = 1e-8           # acceptance criterion 3
POINT_TOL = 1e-8
INF_J_TOL = 1e-9


class Workload:
    """``load(root, seed)`` makes the (label, instance, rng) items (timed
    as set-up); ``run(item)`` is one instance's timed work;
    ``check(item, output)`` returns (critical points, canonical bytes,
    problems).  ``pass_s`` is one pass's nominal time at reference speed
    on the seed commit, which turns ``--seconds`` into a fixed number of
    passes.  ``expected_failures`` maps the
    label of an instance that is known to raise to the exception class
    name it raises; any other exception makes the run incorrect."""

    name = None
    why = None
    pass_s = None
    expected_failures = {}

    def load(self, root, seed):
        raise NotImplementedError

    def run(self, item):
        raise NotImplementedError

    def check(self, item, output):
        raise NotImplementedError


class VerifySamples(Workload):
    name = "verify-samples"
    why = ("`dcquartic verify` on both sample files; almost all conjugates "
           "(j_tilde_star probe solves, j2_star certificate calls) at n = 1")
    pass_s = 3.4

    def load(self, root, seed):
        return [(name, instancefile.load_instance(root / "sample_instances" / name), seed)
                for name in VERIFY_FILES]

    def run(self, item):
        label, P, rng = item
        doc = report.build_run_report(P, VERIFY_SEEDS, rng, VERIFY_SAMPLES)
        return doc, instancefile.dumps_canonical(doc)

    def check(self, item, output):
        doc, text = output
        records = doc["critical_points"]
        if item[0] == "trifecta.json":
            problems = _check_trifecta(records)
        else:
            problems = _check_global_min(records)
        return len(records), text.encode("utf-8"), \
            [f"{item[0]}: {p}" for p in problems]


def _check_trifecta(records):
    root2 = math.sqrt(2.0)
    expected = {-root2: "case1", 0.0: "case3", root2: "case1"}
    found = sorted((r["x0"][0], r["case"], r["gap"]) for r in records)
    if len(found) != 3:
        return [f"expected 3 critical points, found {len(found)}"]
    problems = []
    for (x, case, g), (want_x, want_case) in zip(found, sorted(expected.items())):
        if abs(x - want_x) > POINT_TOL:
            problems.append(f"point {x!r}, expected {want_x!r}")
        if case != want_case:
            problems.append(f"point {x!r} is {case}, expected {want_case}")
        if g is None or not abs(g) <= GAP_TOL:
            problems.append(f"point {x!r} has gap {g!r}")
    return problems


def _check_global_min(records):
    if len(records) != 1:
        return [f"expected 1 critical point, found {len(records)}"]
    cert = records[0]["certificate"]
    if cert is None or not cert["passed"]:
        return [f"global-minimum certificate did not pass: {cert!r}"]
    if not abs(cert["inf_estimate"] - 0.5) <= INF_J_TOL:
        return [f"inf J = {cert['inf_estimate']!r}, expected 0.5"]
    return []


def acceptance_prefix(count, rng):
    """The first ``count`` acceptance-ensemble members, as (index, P, rng)
    items."""
    return [(index, P, rng) for index, P
            in enumerate(ensembles.iter_ensemble(count, ENSEMBLE_SEED))]


class EnsembleGap(Workload):
    name = "ensemble-gap"
    why = ("timed phase of the acceptance fixture (multistart, lift, C* test, "
           "gap); almost all critical.multistart, closed-form conjugates only")
    pass_s = 25.0

    def load(self, root, seed):
        return acceptance_prefix(GAP_COUNT, RNG_SEED)

    def run(self, item):
        _, P, rng = item
        out = []
        for pair in critical.find_critical_pairs(P, MULTISTART_SEEDS, rng):
            if not pair.converged:
                continue
            if conjugates.in_C_star(P, pair.v0_hat).inside:
                out.append((pair, gap.verify_zero_gap(P, pair)))
            else:
                out.append((pair, None))
        return out

    def check(self, item, output):
        index, P, _ = item
        problems = []
        values = []
        for pair, g in output:
            values.extend(pair.x0)
            if g is None:
                values.append(math.nan)
                continue
            values.append(g)
            rel = abs(g) / (1.0 + abs(primal_value(P, pair.x0)))
            if not rel <= REL_GAP_TOL:
                problems.append(f"instance {index}: relative gap {rel:.3e}")
        return len(output), np.asarray(values, dtype=float).tobytes(), problems


class EnsembleCertify(Workload):
    name = "ensemble-certify"
    why = ("`dcquartic sweep` pipeline on the acceptance ensemble, with the "
           "case-2 certificate; mostly j2_star barrier ascent at n up to 6")
    pass_s = 30.0
    # the known crash: _barrier_ascent's solve on a singular E + mu T
    # escapes global_min_certificate and analyze_instance
    expected_failures = {8: "LinAlgError"}

    def load(self, root, seed):
        return acceptance_prefix(CERTIFY_COUNT, RNG_SEED)

    def run(self, item):
        records, ms = report.analyze_instance(item[1], MULTISTART_SEEDS, item[2], 0)
        summary = report.summarize_records(records)
        summary["n_dropped_starts"] = ms.n_dropped
        doc = {"index": item[0], "summary": summary, "critical_points": records}
        return records, instancefile.dumps_canonical(doc)

    def check(self, item, output):
        records, text = output
        problems = []
        for r in records:
            if r["case"] is None:
                continue
            if r["membership"]["c_star"]:
                rel = abs(r["gap"]) / (1.0 + abs(r["J"]))
                if not rel <= REL_GAP_TOL:
                    problems.append(
                        f"instance {item[0]} point {r['index']}: "
                        f"relative gap {rel:.3e}")
            if not r["chain_residual"] <= CHAIN_TOL:
                problems.append(
                    f"instance {item[0]} point {r['index']}: "
                    f"chain residual {r['chain_residual']:.3e}")
        return len(records), text.encode("utf-8"), problems


WORKLOADS = {w.name: w for w in (VerifySamples(), EnsembleGap(), EnsembleCertify())}


def digest(chunks):
    """sha256 over one pass's (label, canonical bytes) pairs, taken in
    label order so that the run order does not matter."""
    h = hashlib.sha256()
    for label, chunk in sorted(chunks, key=lambda c: str(c[0])):
        h.update(f"{label}\0{len(chunk)}\0".encode())
        h.update(chunk)
    return h.hexdigest()
