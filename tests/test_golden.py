"""Golden digests of the report bytes that every refactoring must keep.

The reports are byte-reproducible for the same inputs and seeds, and a
change that only simplifies or speeds up the code must leave them as
they are.  These digests pin them: sha256 of the canonical JSON of
``build_run_report(P, 32, 7, 1000)`` on both sample files; of the
``analyze_instance(P, 12, 7, 0)`` records of acceptance-ensemble members
0-24, concatenated in member order, and of the same records with 50
probe samples per pair; and of ten ``epsilon_sweep`` reports, whose gaps
read G1*.  Every one of these documents must also come out of the
library's one-pass writer byte for byte as out of the recursive writer
it replaced (tests/oracles.py).

The digests were recorded with numpy 2.4.6 and OpenBLAS 0.3.31
(scipy-openblas, x86-64), with one BLAS thread or the default.
Another build of these libraries may round differently and fail here
with no fault in the code.  So may another kernel of the same build:
the digests hold for the SkylakeX kernel, which OpenBLAS picks on an
AVX-512 CPU, and ``OPENBLAS_CORETYPE`` forces another one.  Under
Haswell (an AVX2 CPU without AVX-512) or Sandybridge, the member,
probed-member and sweep digests fail, and so does trifecta.json's.
Of the kernels tried, only SkylakeX splits trifecta's double pencil
root v = 1 by rounding, into two roots that give finite seeds that
merge, so ``n_merged_starts`` reads 2 there and 0 under the others
(ROADMAP.md, State, lists the failures).  Re-pin a digest only for a change that is
meant to move report bytes, with the reason recorded in CHANGES.md.
"""

import dataclasses
import functools
import hashlib
import re
from pathlib import Path

import pytest

from dcquartic import epsilon_sweep, generate_instance, iter_ensemble, \
    load_instance
from dcquartic.instancefile import dumps_canonical
from dcquartic.report import analyze_instance, build_run_report
from oracles import dumps_canonical_recursive

SAMPLES = Path(__file__).resolve().parent.parent / "sample_instances"

RUN_REPORT_SHA256 = {
    "trifecta.json":
        "abd202af60844c09c42d197d3cb9678944ce307300290721901705cfaa18efbf",
    "global_min.json":
        "557b4fdc1f499dae733063531f24d6aa6c47c1214648f3f5834642103c40fd81",
}
MEMBERS_SHA256 = \
    "304693badfc63684ad8784c09d79c91c922f1cfa08de7269a493e9e2a9f79252"
PROBED_MEMBERS_SHA256 = \
    "650163b1fe5b1f92fb5771c4b6957cc45c74eb109cd26cd09486db940bc86c2e"
SWEEPS_SHA256 = \
    "f1628a28be17375d6397cd80385d0f58830cced5137e25a3efcf8a5cb51ffcfb"


@functools.cache
def _sample_report(name):
    return build_run_report(load_instance(SAMPLES / name), 32, 7, 1000)


@functools.cache
def _sample_report_text(name):
    return dumps_canonical(_sample_report(name))


@pytest.mark.parametrize("name", sorted(RUN_REPORT_SHA256))
def test_sample_run_report_bytes(name):
    text = _sample_report_text(name)
    assert hashlib.sha256(text.encode()).hexdigest() == RUN_REPORT_SHA256[name]


@pytest.mark.parametrize("name", sorted(RUN_REPORT_SHA256))
def test_sample_reports_have_no_negative_zero(name):
    # f = 0 in both files, so -S(v)^{-1} f is a signed zero
    assert re.search(r"-0(?![.\d])", _sample_report_text(name)) is None


@functools.cache
def _member_records(probe_samples):
    return [analyze_instance(P, 12, 7, probe_samples)[0]
            for P in iter_ensemble(25, 2024)]


def _members_digest(probe_samples):
    digest = hashlib.sha256()
    for records in _member_records(probe_samples):
        digest.update(dumps_canonical(records).encode())
    return digest.hexdigest()


def test_ensemble_record_bytes():
    assert _members_digest(0) == MEMBERS_SHA256


def test_probed_ensemble_record_bytes():
    assert _members_digest(50) == PROBED_MEMBERS_SHA256


@functools.cache
def _sweeps():
    return [dataclasses.asdict(epsilon_sweep(
        generate_instance(2, 2, [3, 1 + i]), [0.1, 0.01, 0.001], 3,
        n_seeds=12)) for i in range(10)]


def test_epsilon_sweep_bytes():
    digest = hashlib.sha256()
    for sweep in _sweeps():
        digest.update(dumps_canonical(sweep).encode())
    assert digest.hexdigest() == SWEEPS_SHA256


def test_writer_matches_the_recursive_oracle():
    # every golden document, written by the one-pass writer and by the
    # recursive writer it replaced
    docs = [_sample_report(name) for name in sorted(RUN_REPORT_SHA256)]
    docs += _member_records(0) + _member_records(50) + _sweeps()
    assert len(docs) == 62
    for doc in docs:
        assert dumps_canonical(doc) == dumps_canonical_recursive(doc)
