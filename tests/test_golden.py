"""Golden digests of the report bytes that every refactoring must keep.

The reports are byte-reproducible for the same inputs and seeds, and a
change that only simplifies or speeds up the code must leave them as
they are.  These digests pin them: sha256 of the canonical JSON of
``build_run_report(P, 32, 7, 1000)`` on both sample files, and of the
``analyze_instance(P, 12, 7, 0)`` records of acceptance-ensemble members
0-24, concatenated in member order.

The digests were recorded with numpy 2.4.6, scipy 1.17.1 and OpenBLAS
0.3.31 (scipy-openblas, x86-64), with one BLAS thread or the default.
Another build of these libraries may round differently and fail here
with no fault in the code.  Re-pin a digest only for a change that is
meant to move report bytes, with the reason recorded in CHANGES.md.
"""

import hashlib
from pathlib import Path

import pytest

from dcquartic import iter_ensemble, load_instance
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


@pytest.mark.parametrize("name", sorted(RUN_REPORT_SHA256))
def test_sample_run_report_bytes(name):
    P = load_instance(SAMPLES / name)
    text = dumps_canonical(build_run_report(P, 32, 7, 1000))
    assert hashlib.sha256(text.encode()).hexdigest() == RUN_REPORT_SHA256[name]


def test_ensemble_record_bytes():
    digest = hashlib.sha256()
    for P in iter_ensemble(25, 2024):
        records, _ = analyze_instance(P, 12, 7, 0)
        digest.update(dumps_canonical(records).encode())
    assert digest.hexdigest() == MEMBERS_SHA256
