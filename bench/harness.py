"""Set-up timing, the measured loop, metrics and the report of one run.

Imported by run.py after the BLAS thread pin and the ``src/`` path are
in place.
"""

import contextlib
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter, defaultdict
from pathlib import Path

import numpy
import scipy

import spans
import speed
import workloads
from run import ROOT, SRC

SETUP_REPEATS = 7
TAIL_ABOVE = 10
IMPORT_PROBE = ("import time; t = time.perf_counter(); import dcquartic; "
                "print(time.perf_counter() - t)")


# --- set-up ------------------------------------------------------------

def import_seconds():
    """Time ``import dcquartic`` in a fresh interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env,
                          cwd=ROOT, capture_output=True, text=True,
                          check=True, timeout=120)
    return float(done.stdout.strip().splitlines()[-1])


def measure_setup(workload, seed, tracer):
    """Median over SETUP_REPEATS of (fresh import + instance load or
    generation), at reference speed; returns (setup_s, items)."""
    totals = []
    items = None
    for _ in range(SETUP_REPEATS):
        before = speed.slowdown()
        imported = import_seconds()
        ctx = spans.installed(tracer) if tracer else contextlib.nullcontext()
        t1 = time.perf_counter()
        with ctx:
            items = workload.load(ROOT, seed)
        loaded = time.perf_counter() - t1
        totals.append((imported + loaded) / (0.5 * (before + speed.slowdown())))
    return statistics.median(totals), items


# --- the measured loop -------------------------------------------------

class RunLog:
    def __init__(self):
        self.instance_s = defaultdict(list)  # label -> plain runs, at reference speed
        self.wall_s = []               # plain runs, as measured
        self.slowdowns = []
        self.plain_pass_s = []         # per pass: sum of instance times
        self.traced_pass_s = []        # at reference speed
        self.traced_wall_s = 0.0       # instance wall time in traced passes
        self.attempted = 0
        self.failures = Counter()
        self.first_failure = {}
        self.problems = []
        self.digests = set()
        self.points = set()


def run_pass(workload, items):
    """Run every item once; returns (seconds, slowdown, output) per item,
    where slowdown is the mean of the reference slowdowns measured just
    before and just after the item's run."""
    outputs = []
    before = speed.slowdown()
    for item in items:
        t0 = time.perf_counter()
        try:
            out = workload.run(item)
        except Exception as exc:  # counted per class; the run goes on
            out = exc
        seconds = time.perf_counter() - t0
        after = speed.slowdown()
        outputs.append((seconds, 0.5 * (before + after), out))
        before = after
    return outputs


def record_failure(log, workload, label, exc):
    name = type(exc).__name__
    log.failures[name] += 1
    if name not in log.first_failure:
        frames = traceback.extract_tb(exc.__traceback__)
        ours = [f for f in frames if "dcquartic" in Path(f.filename).parts]
        frame = (ours or frames)[-1]
        log.first_failure[name] = (
            f"instance {label}: {exc} "
            f"(raised at {Path(frame.filename).name}:{frame.lineno} "
            f"in {frame.name})")
    if workload.expected_failures.get(label) != name:
        log.problems.append(f"instance {label} raised {name}: {exc}")


def record_pass(log, workload, items, outputs, traced):
    chunks = []
    points = 0
    work = 0.0
    for item, (seconds, slow, out) in zip(items, outputs):
        label = item[0]
        log.attempted += 1
        work += seconds / slow
        if traced:
            log.traced_wall_s += seconds
        else:
            log.instance_s[label].append(seconds / slow)
            log.wall_s.append(seconds)
            log.slowdowns.append(slow)
        if isinstance(out, Exception):
            record_failure(log, workload, label, out)
            chunks.append((label, type(out).__name__.encode()))
            continue
        found, data, problems = workload.check(item, out)
        points += found
        chunks.append((label, data))
        log.problems.extend(problems)
    (log.traced_pass_s if traced else log.plain_pass_s).append(work)
    log.digests.add(workloads.digest(chunks))
    log.points.add(points)


def pass_count(workload, seconds):
    """Plain passes in one run: ``seconds`` over the workload's nominal
    pass time, rounded, and at least one.  The count depends on the
    window alone, never on how fast the program runs, so every run of a
    workload times the same instances the same number of times."""
    return max(1, round(seconds / workload.pass_s))


def measure(workload, items, seconds, tracer):
    """Closed loop of ``pass_count`` plain passes.  With a tracer, half
    as many plain passes (at least one), each followed by a traced one,
    so that a traced run takes about as long as a plain one."""
    log = RunLog()
    passes = pass_count(workload, seconds)
    if tracer:
        passes = max(1, passes // 2)
    for _ in range(passes):
        for traced in (False, True) if tracer else (False,):
            ctx = spans.installed(tracer) if traced else contextlib.nullcontext()
            with ctx:
                outputs = run_pass(workload, items)
            record_pass(log, workload, items, outputs, traced)
    return log


# --- metrics -----------------------------------------------------------

def tail(values):
    """The highest order statistic with TAIL_ABOVE values above it, and
    its percentile; with too few values for that, the largest."""
    ordered = sorted(values)
    k = len(ordered) - TAIL_ABOVE - 1
    if k < 0:
        k = len(ordered) - 1
    pct = 100.0 * k / (len(ordered) - 1) if len(ordered) > 1 else 100.0
    return ordered[k], pct


def instance_medians(log):
    """Each instance's median time over the plain passes: one value per
    instance of the workload's fixed list."""
    return [statistics.median(runs) for runs in log.instance_s.values()]


def end_to_end(log, setup_s):
    per_instance = instance_medians(log)
    runs = [t for runs in log.instance_s.values() for t in runs]
    return {
        "instance_s_p50": (statistics.median(per_instance), "s"),
        "instance_s_tail": (tail(per_instance)[0], "s"),
        "instances_per_s": (len(runs) / sum(runs), "1/s"),
        "critical_points": (float(min(log.points)), "count"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


SHARE_LAYERS = ("critical", "conjugates", "curvature", "gap", "baseline",
                "report", "instancefile")


def per_layer(tracer, setup_tracer, log):
    """Per-layer metrics from the traced passes; counts are per pass."""
    passes = len(log.traced_pass_s)
    loop_s = log.traced_wall_s
    durations = defaultdict(list)
    self_s = Counter()
    for span, own in zip(tracer.spans, spans.self_times(tracer.spans)):
        durations[span[0]].append(span[2] - span[1])
        self_s[span[0].split(".")[0]] += own
    counts = tracer.counts

    def calls(name):
        return len(durations[name])

    def mean_s(name, spans_by_name=durations):
        d = spans_by_name.get(name)
        return sum(d) / len(d) if d else 0.0

    def share(part, whole):
        return part / whole if whole else 0.0

    setup_durations = defaultdict(list)
    for span in setup_tracer.spans:
        setup_durations[span[0]].append(span[2] - span[1])

    starts = calls("critical.solve_primal_critical")
    j2_done = calls("conjugates.j2_star") - counts["conjugates.j2_star.raised"]
    certs_done = (calls("gap.global_min_certificate")
                  - counts["gap.global_min_certificate.raised"])
    metrics = {
        "critical.solve_s_per_start": (mean_s("critical.solve_primal_critical"), "s"),
        "critical.starts": (starts / passes, "count"),
        "critical.converged_share": (share(counts["critical.converged"], starts), "ratio"),
        "critical.newton_iters": (counts["critical.newton_iters"] / passes, "count"),
        "critical.multistart_calls": (calls("critical.multistart") / passes, "count"),
        "problem.gradient_calls": (counts["problem.gradient_calls"] / passes, "count"),
        "conjugates.j_tilde_star_calls": (calls("conjugates.j_tilde_star") / passes, "count"),
        "conjugates.j_tilde_star_s_per_call": (mean_s("conjugates.j_tilde_star"), "s"),
        "conjugates.probe_excluded": (counts["conjugates.probe_excluded"] / passes, "count"),
        "conjugates.probe_excluded_share": (
            share(counts["conjugates.probe_excluded"], counts["gap.probe_samples"]), "ratio"),
        "conjugates.j2_star_calls": (calls("conjugates.j2_star") / passes, "count"),
        "conjugates.j2_star_s_per_call": (mean_s("conjugates.j2_star"), "s"),
        "conjugates.j2_star_failed": (counts["conjugates.j2_star.raised"] / passes, "count"),
        "conjugates.j2_boundary_share": (share(counts["conjugates.j2_boundary"], j2_done), "ratio"),
        "conjugates.j2_star_share": (share(sum(durations["conjugates.j2_star"]), loop_s), "ratio"),
        "linalg.cho_factor_calls": (counts["linalg.cho_factor_calls"] / passes, "count"),
        "linalg.eigvalsh_calls": (counts["linalg.eigvalsh_calls"] / passes, "count"),
        "gap.probe_s_per_sample": (
            share(sum(durations["gap.local_extremality_probe"]), counts["gap.probe_samples"]), "s"),
        "gap.certificate_s": (mean_s("gap.global_min_certificate"), "s"),
        "gap.certificate_passed_share": (share(counts["gap.certificate_passed"], certs_done), "ratio"),
        "gap.convexity_excluded": (counts["gap.convexity_excluded"] / passes, "count"),
        "gap.convexity_excluded_share": (
            share(counts["gap.convexity_excluded"], counts["gap.convexity_checks"]), "ratio"),
        "gap.classify_s": (mean_s("gap.classify_case"), "s"),
        "curvature.build_bundle_s": (mean_s("curvature.build_bundle"), "s"),
        "curvature.bundle_errors": (counts["curvature.build_bundle.raised"] / passes, "count"),
        "baseline.correspondence_s": (mean_s("baseline.correspondence_report"), "s"),
        "report.self_s": (self_s["report"] / passes, "s"),
        "instancefile.dumps_s": (sum(durations["instancefile.dumps_canonical"]) / passes, "s"),
        "instancefile.report_bytes": (counts["instancefile.report_bytes"] / passes, "bytes"),
        "ensembles.generate_s": (mean_s("ensembles.generate_instance", setup_durations), "s"),
    }
    for layer in SHARE_LAYERS:
        metrics[f"{layer}.self_share"] = (share(self_s[layer], loop_s), "ratio")
    metrics["trace.overhead_share"] = (
        statistics.median(log.traced_pass_s) / statistics.median(log.plain_pass_s) - 1.0,
        "ratio")
    return metrics


# --- environment -------------------------------------------------------

def git_commit():
    """HEAD of the checkout when it is a git work tree, else None."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest():
    h = hashlib.sha256()
    for path in sorted((SRC / "dcquartic").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment(seed):
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "commit": git_commit() or "unknown (not a git checkout)",
        "source_sha256": source_digest(),
        "seed": seed,
    }


# --- one run -----------------------------------------------------------

def run(args):
    workload = workloads.WORKLOADS[args.workload]
    tracer = spans.Tracer() if args.trace else None
    setup_tracer = spans.Tracer() if args.trace else None

    setup_s, items = measure_setup(workload, args.seed, setup_tracer)
    log = measure(workload, items, args.seconds, tracer)

    if args.trace:
        metrics = per_layer(tracer, setup_tracer, log)
    else:
        metrics = end_to_end(log, setup_s)
    if len(log.digests) != 1:
        log.problems.append("canonical report bytes differ between passes")
    if len(log.points) != 1:
        log.problems.append("critical point count differs between passes")
    failed = sum(log.failures.values())
    correct = not log.problems

    print(f"workload {workload.name}: {workload.why}")
    for key, value in environment(args.seed).items():
        print(f"  {key:14} {value}")
    print(f"  {'passes':14} {len(log.plain_pass_s)} plain, {len(log.traced_pass_s)} traced "
          f"({len(items)} instances each)")
    print(f"  {'report_sha256':14} {next(iter(log.digests))}")
    print(f"  {'failed_share':14} {failed / log.attempted:.6g} "
          f"({failed} of {log.attempted} attempted)")
    for name, count in sorted(log.failures.items()):
        print(f"    {name} x{count}, first {log.first_failure[name]}")
    expected = ", ".join(f"instance {label} {name}"
                         for label, name in workload.expected_failures.items())
    print(f"  {'expected_fail':14} {expected or 'none'}")
    if log.instance_s:
        _, pct = tail(instance_medians(log))
        print(f"  {'tail':14} p{pct:.1f} of {len(log.instance_s)} instance medians, "
              f"each over {len(log.plain_pass_s)} plain runs")
        print(f"  {'wall':14} instance p50 {statistics.median(log.wall_s):.6g} s as measured, "
              f"slowdown against the reference {min(log.slowdowns):.3g}"
              f"..{max(log.slowdowns):.3g} (median {statistics.median(log.slowdowns):.3g})")
    for problem in log.problems[:20]:
        print(f"  WRONG: {problem}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:36} {value:.6g} {unit}")

    print(json.dumps({
        "correct": correct,
        "attempted": log.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0

