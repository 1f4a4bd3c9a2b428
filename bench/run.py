"""dcquartic benchmark: one workload, one run, one JSON result line.

    python3 bench/run.py --workload verify-samples --seed 7 --seconds 30 --trace 0

Run from the root of a source checkout; the library is imported from
``src/``.  A run times set-up (``setup_s``), then makes passes over the
workload's fixed instance list, one instance after another in a single
process (a closed loop), and checks every output.  The number of passes
is ``--seconds`` over the workload's nominal pass time, rounded and at
least one, so it does not change with the speed of the code measured.
With ``--trace 0`` it prints the end-to-end metrics.  With ``--trace 1``
each plain pass is followed by a traced one, and it prints the
per-layer metrics read off the traced passes, with the traced/plain
pass-time ratio as the tracing overhead.  The last line of standard
output is the result object; the lines above it are for people.  See
bench/LAYERS.md for what each workload and metric is for.
"""

import argparse
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def pin_threads():
    """One BLAS/OpenMP thread: every matrix here is at most 6x6.  Must run
    before numpy is imported."""
    for var in THREAD_VARS:
        os.environ[var] = "1"


def parse_args(argv, workload_names):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workload_names)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None):
    if not (SRC / "dcquartic" / "__init__.py").is_file() \
            or not (ROOT / "sample_instances").is_dir():
        print(f"bench: no dcquartic source tree at {ROOT}", file=sys.stderr)
        return 2
    pin_threads()
    sys.dont_write_bytecode = True  # leave the checkout as it was
    sys.path.insert(0, str(SRC))
    import harness
    return harness.run(parse_args(argv, sorted(harness.workloads.WORKLOADS)))


if __name__ == "__main__":
    sys.exit(main())
