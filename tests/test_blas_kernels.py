"""Verdicts under each OpenBLAS kernel that numpy's wheel ships.

Report bytes depend on the BLAS kernel, which OpenBLAS picks for the CPU
at run time; the verdicts should not.  A member's verdict summary is the
sorted (J, case, c_star, b_star, certificate passed, sorted error
stages) of analyze_instance(P, 12, 7, 0), over the 200 members of
iter_ensemble(200, 2024).  It is computed in four child processes at one
BLAS thread: the default kernel, and OPENBLAS_CORETYPE set to Haswell,
Sandybridge and Prescott (the variable acts only on the child).  Each
forced kernel must give the default's summary (the same counts, J within
1e-9 (1 + |J|), the other fields equal), except at member 186 (n = 4,
N = 4), whose point set multistart's last-bit rounding changes (ROADMAP
item 4).  Member 63 (n = 4, N = 2) differed the same way until N = 2
at n = 3-4 took the two-parameter route, and now matches.  A kernel
whose child reports the default's core name (a build that ignores the
variable) is skipped, so the strict xfail cannot pass by accident.  Each child also hashes the canonical
text of build_run_report(P, 32, 7, 1000) on both sample files, and each
forced kernel must give the default's two hashes: n = 1 takes the
cubic route, which no kernel's rounding splits.

    python tests/test_blas_kernels.py    # one child: prints its summary
"""

import ctypes
import glob
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
KERNELS = ("Haswell", "Sandybridge", "Prescott")
KNOWN_MEMBERS = {186}
J_TOL = 1e-9


def _corename():
    """The core name of numpy's bundled OpenBLAS (SkylakeX, Haswell,
    ...), or None where numpy carries no scipy-openblas library."""
    root = Path(np.__file__).parent
    for path in (glob.glob(str(root.parent / "numpy.libs" / "*openblas*"))
                 + glob.glob(str(root / ".dylibs" / "*openblas*"))):
        get = getattr(ctypes.CDLL(path), "scipy_openblas_get_corename64_",
                      None)
        if get is not None:
            get.argtypes, get.restype = [], ctypes.c_char_p
            return get().decode()
    return None


def _summary():
    """{"corename": ..., "members": one verdict summary per member,
    "samples": {file name: sha256 of its run report}}."""
    from dcquartic import iter_ensemble, load_instance
    from dcquartic.instancefile import dumps_canonical
    from dcquartic.report import analyze_instance, build_run_report

    members = []
    for P in iter_ensemble(200, 2024):
        records, _ = analyze_instance(P, 12, 7, 0)
        rows = [[r["J"], r["case"],
                 r["membership"] and r["membership"]["c_star"],
                 r["membership"] and r["membership"]["b_star"],
                 r["certificate"] and r["certificate"]["passed"],
                 sorted(r["errors"])] for r in records]
        members.append(sorted(rows, key=lambda row: (row[0], repr(row))))
    samples = {name: hashlib.sha256(dumps_canonical(build_run_report(
        load_instance(ROOT / "sample_instances" / name), 32, 7, 1000))
        .encode()).hexdigest()
        for name in ("trifecta.json", "global_min.json")}
    return {"corename": _corename(), "members": members, "samples": samples}


@pytest.fixture(scope="module")
def summaries():
    """{kernel: summary} from four concurrent children; kernel None is
    the default."""
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join(
               [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])}
    env.pop("OPENBLAS_CORETYPE", None)
    children = {kernel: subprocess.Popen(
        [sys.executable, __file__], stdout=subprocess.PIPE, text=True,
        env=env if kernel is None else {**env, "OPENBLAS_CORETYPE": kernel})
        for kernel in (None,) + KERNELS}
    out = {}
    try:
        for kernel, child in children.items():
            stdout, _ = child.communicate(timeout=600)
            assert child.returncode == 0, kernel
            out[kernel] = json.loads(stdout)
    finally:
        for child in children.values():
            child.kill()
            child.wait()
    return out


def _forced(summaries, kernel):
    """(the default's summary, kernel's); skips a kernel that the build
    does not honour."""
    default, forced = summaries[None], summaries[kernel]
    if forced["corename"] in (None, default["corename"]):
        pytest.skip(f"OpenBLAS core {forced['corename']} under {kernel}")
    return default, forced


def _differing(summaries, kernel):
    """The members whose summary under kernel is not the default's."""
    default, forced = _forced(summaries, kernel)
    differing = set()
    for k, (rows, forced_rows) in enumerate(zip(default["members"],
                                                forced["members"])):
        if len(rows) != len(forced_rows) or any(
                abs(a[0] - b[0]) > J_TOL * (1.0 + abs(a[0])) or a[1:] != b[1:]
                for a, b in zip(rows, forced_rows)):
            differing.add(k)
    return differing


@pytest.mark.parametrize("kernel", KERNELS)
def test_verdicts_differ_only_at_known_members(summaries, kernel):
    assert _differing(summaries, kernel) <= KNOWN_MEMBERS


@pytest.mark.parametrize("kernel", KERNELS)
def test_sample_reports_match_the_default_kernel(summaries, kernel):
    default, forced = _forced(summaries, kernel)
    assert forced["samples"] == default["samples"]


@pytest.mark.xfail(strict=True, reason=(
    "multistart's last-bit rounding changes the point set of member 186 "
    "(n = 4, N = 4) under Sandybridge and Prescott (ROADMAP item 4)"))
@pytest.mark.parametrize("kernel", ["Sandybridge", "Prescott"])
def test_verdicts_match_the_default_kernel(summaries, kernel):
    assert _differing(summaries, kernel) == set()


if __name__ == "__main__":
    json.dump(_summary(), sys.stdout)
