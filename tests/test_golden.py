"""Golden digests of the report bytes that every refactoring must keep.

The reports are byte-reproducible for the same inputs and seeds, and a
change that only simplifies or speeds up the code must leave them as
they are.  These digests pin them: sha256 of the canonical JSON of
``build_run_report(P, 32, 7, 1000)`` on both sample files; of the
``analyze_instance(P, 12, 7, 0)`` records of acceptance-ensemble members
0-24, concatenated in member order, and of the same records with 50
probe samples per pair; and of ten ``epsilon_sweep`` reports, whose gaps
read G1*.

The digests were recorded with numpy 2.4.6 and OpenBLAS 0.3.31
(scipy-openblas, x86-64), with one BLAS thread or the default.
Another build of these libraries may round differently and fail here
with no fault in the code.  Re-pin a digest only for a change that is
meant to move report bytes, with the reason recorded in CHANGES.md.
"""

import dataclasses
import hashlib
from pathlib import Path

import pytest

from dcquartic import epsilon_sweep, generate_instance, iter_ensemble, \
    load_instance
from dcquartic.instancefile import dumps_canonical
from dcquartic.report import analyze_instance, build_run_report

SAMPLES = Path(__file__).resolve().parent.parent / "sample_instances"

RUN_REPORT_SHA256 = {
    "trifecta.json":
        "6dab23f9f230ecb2df5c08f04157e7fef99094f2ee42a4c895479dbc72fd8160",
    "global_min.json":
        "4a3232145c860f4767fc036a63fd4e0cbcc43619eb72e46a218f5de875d20d50",
}
MEMBERS_SHA256 = \
    "5e65dba8d7805a25383bdc4fb9c1630c8adc3d508d9186a49a1dfc5b1b95c41f"
PROBED_MEMBERS_SHA256 = \
    "db35fd53161616b8f5fc7f71291549b36fe24967848af1e71015ce79560e8715"
SWEEPS_SHA256 = \
    "372f59229848c963e2129412f55e532e935f1f5f221fba8e4aab0435be47eea8"


@pytest.mark.parametrize("name", sorted(RUN_REPORT_SHA256))
def test_sample_run_report_bytes(name):
    P = load_instance(SAMPLES / name)
    text = dumps_canonical(build_run_report(P, 32, 7, 1000))
    assert hashlib.sha256(text.encode()).hexdigest() == RUN_REPORT_SHA256[name]


def _members_digest(probe_samples):
    digest = hashlib.sha256()
    for P in iter_ensemble(25, 2024):
        records, _ = analyze_instance(P, 12, 7, probe_samples)
        digest.update(dumps_canonical(records).encode())
    return digest.hexdigest()


def test_ensemble_record_bytes():
    assert _members_digest(0) == MEMBERS_SHA256


def test_probed_ensemble_record_bytes():
    assert _members_digest(50) == PROBED_MEMBERS_SHA256


def test_epsilon_sweep_bytes():
    digest = hashlib.sha256()
    for i in range(10):
        sweep = epsilon_sweep(generate_instance(2, 2, [3, 1 + i]),
                              [0.1, 0.01, 0.001], 3, n_seeds=12)
        digest.update(dumps_canonical(dataclasses.asdict(sweep)).encode())
    assert digest.hexdigest() == SWEEPS_SHA256
