"""Golden digests of the text that the CLI prints.

``chain``, ``baseline`` and ``sweep`` print tables and totals that no
other test reads number for number.  These digests pin their standard
output: sha256 of ``chain`` and ``baseline`` on both sample files and
on two generated instances (each with a chain error row), of one plain
sweep and of one ``--eps-list`` sweep.

The digests were recorded with numpy 2.4.6 and OpenBLAS 0.3.31
(scipy-openblas, x86-64), with one BLAS thread or the default.
Another build of these libraries may round differently and fail here
with no fault in the code.  So may another kernel of the same build:
the digests hold for the SkylakeX kernel, which OpenBLAS picks on an
AVX-512 CPU, and ``OPENBLAS_CORETYPE`` forces another one.  Under
Haswell (an AVX2 CPU without AVX-512) or Sandybridge, the ``chain``
tables of the two generated instances and one sweep (two under
Sandybridge) fail (ROADMAP.md, State, lists the failures).  Re-pin a
digest only for a change that is meant to move the printed text, with
the reason recorded in CHANGES.md.
"""

import hashlib
from pathlib import Path

import pytest

from dcquartic import generate_instance, serialize_instance
from dcquartic.cli import main

SAMPLES = Path(__file__).resolve().parent.parent / "sample_instances"

# (command, instance): a sample file name, or (n, N, i) for
# generate_instance(n, N, [5, i])
PAIR_TABLE_SHA256 = {
    ("chain", "trifecta.json"):
        "28665a3abd76cf1a2414c278edac55f8c9d732b44cc23eb54529b4dd5b126dc2",
    ("chain", "global_min.json"):
        "be86b0434239dd761a5b1c8336c00e1314abaca638c023f432215d2716a6e429",
    ("chain", (4, 2, 2)):
        "bb1cd871550f4cc00065a9df57216711e63bc12983dba7f853fd7572ac48dbf8",
    ("chain", (5, 3, 1)):
        "46de85302074d9604c820bd7328dcabeeffa63662560f26182aa10e0fcc247bd",
    ("baseline", "trifecta.json"):
        "6d0a00f5d76cd87441a2c4f6fce707a356dfc0e591a3347c5bd6815c08076be2",
    ("baseline", "global_min.json"):
        "47f43b1741e5426d145a2a38b12613d521858aed40dc2aaa2c038e583a953e68",
    ("baseline", (4, 2, 2)):
        "fe57e2fa766995557865d0184132c6cbb24b3fb247ca47b917438c9af90133c3",
    ("baseline", (5, 3, 1)):
        "73b3ba72c6bdef6540087e92f66837bf4793b704b8130148e89842ad79609193",
}
# sweep arguments: one plain sweep and one --eps-list sweep
SWEEP_SHA256 = {
    "--n 3 --N 2 --count 6 --rng 3":
        "bb8de48823b4d46c9650a9d27633364763a71ff36f1d708305b54c279554d863",
    "--n 2 --N 2 --count 4 --rng 3 --eps-list 0.1,0.01,0.001":
        "a37ee7a0debf73c3fdcd7e63ea47b3cd6f70dd293eebe1518e4bad7dfc848357",
}


def _stdout_digest(argv, capsys):
    assert main(argv) == 0
    return hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()


@pytest.mark.parametrize("command, instance", PAIR_TABLE_SHA256)
def test_pair_table_text(command, instance, tmp_path, capsys):
    if isinstance(instance, str):
        path = SAMPLES / instance
    else:
        n, N, i = instance
        path = tmp_path / "generated.json"
        path.write_text(serialize_instance(generate_instance(n, N, [5, i])))
    assert _stdout_digest([command, str(path)], capsys) \
        == PAIR_TABLE_SHA256[command, instance]


@pytest.mark.parametrize("args", SWEEP_SHA256)
def test_sweep_text(args, capsys):
    assert _stdout_digest(["sweep"] + args.split(), capsys) \
        == SWEEP_SHA256[args]
