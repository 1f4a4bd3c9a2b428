"""Golden digests of the report bytes that every refactoring must keep.

The reports are byte-reproducible for the same inputs and seeds, and a
change that only simplifies or speeds up the code must leave them as
they are.  These digests pin them: sha256 of the canonical JSON of
``build_run_report(P, 32, 7, 1000)`` on both sample files; of the
``analyze_instance(P, 12, 7, 0)`` records of acceptance-ensemble members
0-24, concatenated in member order, and of the same records with 50
probe samples per pair; and of ten ``epsilon_sweep`` reports, whose gaps
read G1*.

The digests were recorded with numpy 2.4.6, scipy 1.17.1 and OpenBLAS
0.3.31 (scipy-openblas, x86-64), with one BLAS thread or the default.
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
        "3a63b405d5e552342c5f36a5dd8c1971611438349844d4ab95e3c85d7ef9e8e0",
    "global_min.json":
        "b0e5a0e4a05e309df3ac168bfd229313718c01a6f84bcf339c3f6b8176292ab2",
}
MEMBERS_SHA256 = \
    "36c3cf8853e4ea90e43d163e9ffe17e47ccd0ca90d0edc6d4ee46ac8665d3c58"
PROBED_MEMBERS_SHA256 = \
    "ed6d25c01def2b7a7c5382ff2b194c8f4b392a6672b8b009e841a2af4f7dee74"
SWEEPS_SHA256 = \
    "4f379435859e3a7e3508ecd9a74f5a792aa272e7969aec0360061e6581252a97"


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
