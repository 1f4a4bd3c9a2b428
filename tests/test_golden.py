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
each of Haswell (an AVX2 CPU without AVX-512), Sandybridge and
Prescott, the same three fail: test_ensemble_record_bytes,
test_probed_ensemble_record_bytes and test_epsilon_sweep_bytes (checked
in child processes with the variable set).  The two sample digests
(test_sample_run_report_bytes) hold under SkylakeX, Haswell,
Sandybridge and Prescott alike (tests/test_blas_kernels.py checks
this): both files are n = 1, whose critical points are the roots of
one cubic, found by np.roots with no BLAS-dependent pencil, so no
kernel splits trifecta's double multiplier v = 1 into seeds that
merge, as SkylakeX did when n = 1 took the N = 1 pencil.  Re-pin a
digest only for a change that is meant to move report bytes, with the
reason recorded in CHANGES.md.
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
        "f8eddc3faf68a51cd3624d302ee7fe2e83e7189f71d14b39ea51512d29730ea1",
    "global_min.json":
        "0bc4bcd4e4957104f796e0f2a1c3a3d353dc649cf5d96b4cb27f81d16fddaeb3",
}
MEMBERS_SHA256 = \
    "09d5c26468e4a5b5f24300bdf730993a5331b093069b005b7b161e4a6effc66d"
PROBED_MEMBERS_SHA256 = \
    "5cce3ffe45451d8e1da16b3051bb0621e7c43b90247e3b784847450590428869"
SWEEPS_SHA256 = \
    "3c7f86b0c8f1b0516a9362e21c8e6a3dfc017161d9e399c8e81d96e4c7319d69"


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
