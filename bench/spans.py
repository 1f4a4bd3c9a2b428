"""Spans and counters recorded around dcquartic's public functions.

Nothing inside the library is instrumented.  ``installed(tracer)`` swaps
each function named in ``SPANS`` or ``COUNTS`` for a thin wrapper in
every dcquartic module that binds it by name (the defining module and
every module that did ``from .x import f``), so calls from one module
into another pass through the wrapper.  Leaving the ``with`` block puts
every original object back.

A span is ``[name, start, end, parent]``, where ``parent`` is the index
of the enclosing span (-1 at top level).  Spans stay in memory until
the run ends.  Small hot functions (the gradient, Cholesky factor and
eigenvalue calls) get a bare counter instead of a span, so that tracing
does not swamp the time it measures; their time is part of the self
time of the span that calls them.
"""

import contextlib
import functools
import sys
import time
from collections import Counter


class Tracer:
    """In-memory span list, open-span stack and named counters."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self._stack = []

    def open(self, name):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(index)
        return index

    def close(self, index):
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def innermost(self):
        return self.spans[self._stack[-1]][0] if self._stack else None


def self_times(spans):
    """Each span's duration minus the union of its children's intervals
    (clipped to the span)."""
    children = [[] for _ in spans]
    for index, span in enumerate(spans):
        if span[3] >= 0:
            children[span[3]].append(index)
    out = []
    for index, (_, start, end, _) in enumerate(spans):
        covered = 0.0
        run_start = run_end = None
        intervals = sorted((max(spans[c][1], start), min(spans[c][2], end))
                           for c in children[index])
        for lo, hi in intervals:
            if hi <= lo:
                continue
            if run_end is None or lo > run_end:
                if run_end is not None:
                    covered += run_end - run_start
                run_start, run_end = lo, hi
            else:
                run_end = max(run_end, hi)
        if run_end is not None:
            covered += run_end - run_start
        out.append((end - start) - covered)
    return out


# --- result hooks: counts read off a wrapped call's return value -------

def _on_solve(counts, result):
    counts["critical.converged"] += int(result.converged)
    counts["critical.newton_iters"] += int(result.iterations)


def _on_j2(counts, result):
    counts["conjugates.j2_boundary"] += int(result.boundary_attained)


def _on_probe(counts, result):
    counts["gap.probe_samples"] += int(result.n_samples)
    counts["conjugates.probe_excluded"] += int(result.dual_excluded)


def _on_certificate(counts, result):
    counts["gap.certificate_passed"] += int(result.passed)
    counts["gap.convexity_excluded"] += int(result.convexity_excluded)
    counts["gap.convexity_checks"] += int(
        result.convexity_pass_count + result.convexity_fail_count
        + result.convexity_excluded)


def _on_dumps(counts, result):
    counts["instancefile.report_bytes"] += len(result.encode("utf-8"))


# (defining module, function, result hook).  The span is named
# "<layer>.<function>", the layer being the module's short name.
SPANS = (
    ("dcquartic.critical", "find_critical_pairs", None),
    ("dcquartic.critical", "multistart", None),
    ("dcquartic.critical", "solve_primal_critical", _on_solve),
    ("dcquartic.critical", "lift_to_dual", None),
    ("dcquartic.conjugates", "in_C_star", None),
    ("dcquartic.conjugates", "j_tilde_star", None),
    ("dcquartic.conjugates", "j2_star", _on_j2),
    ("dcquartic.curvature", "build_bundle", None),
    ("dcquartic.curvature", "verify_chain_identity", None),
    ("dcquartic.gap", "classify_case", None),
    ("dcquartic.gap", "verify_zero_gap", None),
    ("dcquartic.gap", "local_extremality_probe", _on_probe),
    ("dcquartic.gap", "global_min_certificate", _on_certificate),
    ("dcquartic.baseline", "correspondence_report", None),
    ("dcquartic.report", "build_run_report", None),
    ("dcquartic.report", "analyze_instance", None),
    ("dcquartic.report", "summarize_records", None),
    ("dcquartic.instancefile", "load_instance", None),
    ("dcquartic.instancefile", "dumps_canonical", _on_dumps),
    ("dcquartic.ensembles", "generate_instance", None),
)

# (defining module, function, counter name)
COUNTS = (
    ("dcquartic.problem", "primal_gradient", "problem.gradient_calls"),
    ("dcquartic.linalg", "cho_factor", "linalg.cho_factor_calls"),
    ("numpy.linalg", "eigvalsh", "linalg.eigvalsh_calls"),
)


def _span_wrapper(tracer, name, fn, hook):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        # a recursive call (dumps_canonical) stays inside the outer span
        if tracer.innermost() == name:
            return fn(*args, **kwargs)
        index = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        except Exception:
            tracer.counts[name + ".raised"] += 1
            raise
        finally:
            tracer.close(index)
        if hook is not None:
            hook(tracer.counts, result)
        return result
    return wrapper


def _count_wrapper(counts, name, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        counts[name] += 1
        return fn(*args, **kwargs)
    return wrapper


def _bindings(module_name, attr):
    """Every (module, attr) that currently binds the function defined as
    ``module_name.attr``; empty when the function no longer exists."""
    defining = sys.modules.get(module_name)
    original = getattr(defining, attr, None) if defining else None
    if original is None:
        return None, []
    found = [defining]
    for name, module in list(sys.modules.items()):
        if module is defining or module is None:
            continue
        if (name == "dcquartic" or name.startswith("dcquartic.")) \
                and getattr(module, attr, None) is original:
            found.append(module)
    return original, found


def install(tracer):
    """Wrap every target; returns the (module, attr, original) patches."""
    patches = []
    for module_name, attr, hook in SPANS:
        original, modules = _bindings(module_name, attr)
        if original is None:
            continue
        layer = module_name.rsplit(".", 1)[-1]
        wrapped = _span_wrapper(tracer, f"{layer}.{attr}", original, hook)
        for module in modules:
            patches.append((module, attr, original))
            setattr(module, attr, wrapped)
    for module_name, attr, counter in COUNTS:
        original, modules = _bindings(module_name, attr)
        if original is None:
            continue
        wrapped = _count_wrapper(tracer.counts, counter, original)
        for module in modules:
            patches.append((module, attr, original))
            setattr(module, attr, wrapped)
    return patches


def restore(patches):
    for module, attr, original in reversed(patches):
        setattr(module, attr, original)


@contextlib.contextmanager
def installed(tracer):
    patches = install(tracer)
    try:
        yield patches
    finally:
        restore(patches)
