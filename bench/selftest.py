"""Self-test of the benchmark's tracing and failure gate.

    python3 bench/selftest.py

Checks that the span wrappers change no output byte, that every wrapped
attribute is put back (also when the traced code raises), that only a
workload's expected failures leave a run correct, and that self time
adds up on a hand-built span tree.
"""

import sys
import unittest

import run

run.pin_threads()
sys.path.insert(0, str(run.SRC))

import numpy  # noqa: E402  (after the thread pin)

import dcquartic  # noqa: E402
from dcquartic import ensembles, instancefile, report  # noqa: E402

import harness  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def snapshot():
    """id of every function-valued attribute the wrappers may replace."""
    modules = [m for name, m in sys.modules.items()
               if m is not None and (name == "dcquartic" or name.startswith("dcquartic."))]
    modules.append(numpy.linalg)
    return {(m.__name__, attr): id(value)
            for m in modules for attr, value in vars(m).items() if callable(value)}


class WrappersChangeNothing(unittest.TestCase):

    def reports(self):
        out = []
        for name in ("trifecta.json", "global_min.json"):
            P = instancefile.load_instance(run.ROOT / "sample_instances" / name)
            out.append(instancefile.dumps_canonical(report.build_run_report(P, 8, 7, 40)))
        P = next(ensembles.iter_ensemble(1, 2024))
        records, _ = report.analyze_instance(P, 12, 7, 0)
        out.append(instancefile.dumps_canonical(records))
        return out

    def test_report_bytes_identical_with_and_without_wrappers(self):
        plain = self.reports()
        tracer = spans.Tracer()
        with spans.installed(tracer):
            traced = self.reports()
        self.assertEqual(plain, traced)
        names = {s[0] for s in tracer.spans}
        for expected in ("report.build_run_report", "critical.multistart",
                         "conjugates.j_tilde_star", "conjugates.j2_star",
                         "gap.global_min_certificate", "instancefile.dumps_canonical"):
            self.assertIn(expected, names)
        for counter in ("problem.gradient_calls", "linalg.cho_factor_calls",
                        "linalg.eigvalsh_calls"):
            self.assertGreater(tracer.counts[counter], 0)

    def test_every_wrapped_attribute_is_restored(self):
        before = snapshot()
        tracer = spans.Tracer()
        with spans.installed(tracer) as patches:
            self.assertGreater(len(patches), len(spans.SPANS))
            self.assertNotEqual(before, snapshot())
        self.assertEqual(before, snapshot())
        with self.assertRaises(ZeroDivisionError):
            with spans.installed(tracer):
                raise ZeroDivisionError
        self.assertEqual(before, snapshot())

    def test_raising_call_closes_its_span_and_is_counted(self):
        tracer = spans.Tracer()
        P = instancefile.load_instance(run.ROOT / "sample_instances" / "trifecta.json")
        with spans.installed(tracer):
            with self.assertRaises(dcquartic.DimensionMismatchError):
                dcquartic.critical.lift_to_dual(P, [1.0, 2.0])
        self.assertEqual(tracer.counts["critical.lift_to_dual.raised"], 1)
        self.assertIsNotNone(tracer.spans[0][2])
        self.assertIsNone(tracer.innermost())


def raised(exc):
    try:
        raise exc
    except Exception as caught:
        return caught


class FailureGate(unittest.TestCase):

    def test_only_expected_failures_keep_the_run_correct(self):
        certify = workloads.WORKLOADS["ensemble-certify"]
        log = harness.RunLog()
        harness.record_failure(log, certify, 8, raised(numpy.linalg.LinAlgError("singular")))
        self.assertEqual(log.problems, [])
        harness.record_failure(log, certify, 8, raised(ValueError("other class")))
        harness.record_failure(log, certify, 3, raised(numpy.linalg.LinAlgError("other member")))
        harness.record_failure(log, workloads.WORKLOADS["ensemble-gap"], 8,
                               raised(numpy.linalg.LinAlgError("no failure expected")))
        self.assertEqual(len(log.problems), 3)
        self.assertEqual(log.failures, {"LinAlgError": 3, "ValueError": 1})


class SelfTime(unittest.TestCase):

    def test_hand_built_tree(self):
        tree = [
            ["root", 0.0, 10.0, -1],
            ["a", 1.0, 4.0, 0],
            ["b", 3.0, 6.0, 0],     # overlaps a: the union counts once
            ["a1", 2.0, 3.0, 1],
            ["c", 9.0, 12.0, 0],    # runs past the root: clipped to 9..10
        ]
        self.assertEqual(spans.self_times(tree), [4.0, 2.0, 3.0, 1.0, 3.0])

    def test_nested_tree_self_times_sum_to_root(self):
        tree = [
            ["root", 0.0, 8.0, -1],
            ["a", 0.5, 3.0, 0],
            ["a1", 1.0, 2.0, 1],
            ["b", 4.0, 7.5, 0],
            ["b1", 4.0, 5.0, 3],
            ["b2", 6.0, 7.5, 3],
        ]
        self.assertAlmostEqual(sum(spans.self_times(tree)), 8.0, places=12)


if __name__ == "__main__":
    unittest.main()
