import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from dcquartic import (
    DualityError,
    ParseError,
    ValidationError,
    generate_instance,
    instance_digest,
    load_instance,
    parse_instance_text,
    serialize_instance,
)
from dcquartic.cli import main
from dcquartic.instancefile import dumps_canonical
from oracles import dumps_canonical_recursive

SAMPLES = Path(__file__).resolve().parent.parent / "sample_instances"


def write_instance(tmp_path, doc, name="inst.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


TRI_DOC = {
    "schema_version": "1", "n": 1, "N": 1,
    "A": [-1.0], "B": [[1.0]], "gamma": [1.0], "c": [0.0], "f": [0.0],
    "K": 1.0,
}

MIN_DOC = {
    "schema_version": "1", "n": 1, "N": 1,
    "A": [1.0], "B": [[1.0]], "gamma": [1.0], "c": [1.0], "f": [0.0],
    "K": 2.0,
}


class TestInstanceFile:
    def test_parse_valid(self, tmp_path):
        P = load_instance(write_instance(tmp_path, TRI_DOC))
        assert P.n == 1 and P.K[0, 0] == 1.0

    def test_matrix_k(self, tmp_path):
        doc = dict(TRI_DOC, K=[1.0])
        P = load_instance(write_instance(tmp_path, doc))
        assert P.K[0, 0] == 1.0

    def test_unknown_field_rejected(self, tmp_path):
        doc = dict(TRI_DOC, extra=1)
        with pytest.raises(ParseError):
            load_instance(write_instance(tmp_path, doc))

    def test_missing_field_rejected(self):
        doc = {k: v for k, v in TRI_DOC.items() if k != "gamma"}
        with pytest.raises(ParseError):
            parse_instance_text(json.dumps(doc))

    def test_repeated_key_rejected(self):
        # a dict keeps the last "K"; the schema names the conflict instead
        text = json.dumps(dict(TRI_DOC, K=0.5))[:-1] + ', "K": 1.0}'
        with pytest.raises(ParseError, match="repeated field 'K'"):
            parse_instance_text(text)

    @pytest.mark.parametrize("text", [
        "[" * 100_000,                   # nested past the recursion limit
        '{"n": ' + "9" * 5000 + "}",     # past int's 4300-digit limit
    ])
    def test_json_beyond_decoder_limits(self, text):
        with pytest.raises(ParseError, match="invalid JSON"):
            parse_instance_text(text)

    @pytest.mark.parametrize("text", ["[]", "1", '"x"', "null"])
    def test_top_level_must_be_an_object(self, text):
        with pytest.raises(ParseError, match="must hold a JSON object"):
            parse_instance_text(text)

    def test_bad_schema_version(self):
        with pytest.raises(ParseError):
            parse_instance_text(json.dumps(dict(TRI_DOC, schema_version="2")))

    @pytest.mark.parametrize("value", [1, 1.0, None, ["1"]])
    def test_schema_version_must_be_a_string(self, value):
        with pytest.raises(ParseError, match="schema_version"):
            parse_instance_text(json.dumps(dict(TRI_DOC, schema_version=value)))

    @pytest.mark.parametrize("value", ["false", "true", 0, 1, None, []])
    def test_coercivity_override_must_be_a_bool(self, value):
        with pytest.raises(ParseError, match="coercivity_override"):
            parse_instance_text(
                json.dumps(dict(TRI_DOC, coercivity_override=value)))

    def test_coercivity_override_bool(self):
        # B = 0 fails the coercivity heuristic unless overridden
        doc = dict(TRI_DOC, B=[[0.0]])
        assert parse_instance_text(
            json.dumps(dict(doc, coercivity_override=True))).coercivity_override
        for flag in ({}, {"coercivity_override": False}):
            with pytest.raises(ValidationError) as err:
                parse_instance_text(json.dumps(dict(doc, **flag)))
            assert err.value.reason == "coercivity-heuristic-failed"

    @pytest.mark.parametrize("key, value", [
        ("n", "1e400"), ("n", "1.7"), ("n", "true"), ("N", "1.0"),
        ("K", '"2"'), ("K", "true"),
        pytest.param("K", "1" + "0" * 400, id="K-1e400-as-int"),
        ("n", "2"), ("B", "[]"), ("B", "[[1.0], [1.0]]")])
    def test_malformed_size_or_k_rejected(self, key, value):
        text = json.dumps(dict(TRI_DOC, **{key: "@"})).replace('"@"', value)
        with pytest.raises(ParseError):
            parse_instance_text(text)

    @pytest.mark.parametrize("key, value", [
        ("gamma", ["2"]), ("c", [" -1 "]), ("f", [True]), ("A", [False]),
        ("A", "-1"), ("B", [["1"]]), ("B", [[None]]), ("f", [[1.0, "x"]]),
        ("K", ["1"])])
    def test_numeric_entries_must_be_json_numbers(self, key, value):
        with pytest.raises(ParseError, match=f"^{key} entries must be JSON"):
            parse_instance_text(json.dumps(dict(TRI_DOC, **{key: value})))

    def test_int_entries_are_numbers(self):
        doc = dict(TRI_DOC, A=[-1], B=[[1]], gamma=[1], c=[0], f=[0], K=[1])
        P = parse_instance_text(json.dumps(doc))
        assert P.A.tolist() == [[-1.0]] and P.K.tolist() == [[1.0]]

    def test_round_trip_exact(self):
        # parse -> serialize -> parse keeps every double bit-identical
        P = generate_instance(3, 2, [70_000, 0])
        text = serialize_instance(P)
        Q = parse_instance_text(text)
        for name in ("A", "B", "gamma", "c", "f", "K"):
            assert np.array_equal(getattr(P, name), getattr(Q, name))
        assert serialize_instance(Q) == text
        assert instance_digest(P) == instance_digest(Q)

    def test_seventeen_digit_floats(self):
        for x in (0.1 + 0.2, 1.0 / 3.0, np.float64(1.0 / 3.0)):
            assert float(dumps_canonical(x)) == x

    def test_canonical_writer_nan_becomes_null(self):
        assert dumps_canonical({"x": float("nan")}) == '{\n  "x": null\n}'
        assert dumps_canonical(np.float64("nan")) == "null"

    def test_canonical_writer_edge_cases_match_the_oracle(self):
        # the one-pass writer against the recursive one it replaced
        docs = [
            {"f64": np.float64(0.1), "f32": np.float32(1.5),
             "i64": np.int64(-7), "u8": np.uint8(3), "int": 12,
             "array": np.arange(6.0).reshape(2, 3),
             "int_array": np.arange(4), "empty_array": np.zeros(0)},
            (1, 2.5, "three"), [(), [], {}, ""], {"nested": [[], {}]},
            [True, 1, False, 0, None, 1.0],
            [float("nan"), float("inf"), -float("inf"), np.float64("nan"),
             np.float64("-inf")],
            {"caf\u00e9 \u2603": "\u00fcber \"quoted\" \\ \n\t\u0001"},
            [0.1 * i for i in range(12)], [np.float64(1 / 3)] * 3,
            [[1.0, 2.0], np.array([3.0, 4.0]), {"k": [5]}],
            -0.0, 1e300, 5e-324, 2 ** 70, "text", None, True, 7.0,
        ]
        for doc in docs:
            assert dumps_canonical(doc) == dumps_canonical_recursive(doc)
        assert dumps_canonical([True, 1]) == "[true, 1]"
        assert dumps_canonical([float("inf")]) == "[null]"
        for bad in (object(), {1.5j}, [np.bool_(True)], {"x": b"bytes"}):
            with pytest.raises(ParseError, match="cannot serialize"):
                dumps_canonical(bad)
            with pytest.raises(ParseError, match="cannot serialize"):
                dumps_canonical_recursive(bad)


class TestValidateCommand:
    def test_valid_file(self, capsys):
        assert main(["validate", str(SAMPLES / "trifecta.json")]) == 0
        assert "ok" in capsys.readouterr().out

    def test_nonpositive_gamma(self, tmp_path, capsys):
        path = write_instance(tmp_path, dict(TRI_DOC, gamma=[-1.0]))
        assert main(["validate", path]) == 2
        assert "nonpositive-gamma" in capsys.readouterr().err

    def test_k_minus_a_singular(self, tmp_path, capsys):
        path = write_instance(tmp_path, dict(TRI_DOC, K=-1.0))
        assert main(["validate", path]) == 2
        assert "K-minus-A-not-PD" in capsys.readouterr().err

    def test_garbage_json(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{nope")
        assert main(["validate", str(path)]) == 2

    def test_overflowing_n(self, tmp_path, capsys):
        path = tmp_path / "inst.json"
        path.write_text(json.dumps(dict(TRI_DOC, n="@")).replace('"@"', "1e400"))
        assert main(["validate", str(path)]) == 2
        assert "n must be a JSON integer" in capsys.readouterr().err

    def test_string_coercivity_override(self, tmp_path, capsys):
        # "false" must not waive the coercivity check of B = 0
        doc = dict(TRI_DOC, B=[[0.0]], coercivity_override="false")
        assert main(["validate", write_instance(tmp_path, doc)]) == 2
        assert "coercivity_override must be a JSON bool" \
            in capsys.readouterr().err

    def test_string_or_bool_entries(self, tmp_path, capsys):
        for key, value in (("gamma", ["2"]), ("f", [True])):
            path = write_instance(tmp_path, dict(TRI_DOC, **{key: value}))
            assert main(["validate", path]) == 2
            assert f"{key} entries must be JSON numbers" \
                in capsys.readouterr().err

    def test_numeric_schema_version(self, tmp_path, capsys):
        doc = dict(TRI_DOC, schema_version=1)
        assert main(["validate", write_instance(tmp_path, doc)]) == 2
        assert "unsupported schema_version 1" in capsys.readouterr().err

    def test_non_utf8_file(self, tmp_path, capsys):
        path = tmp_path / "utf16.json"
        path.write_bytes(b"\xff\xfe" + json.dumps(TRI_DOC).encode("utf-16-le"))
        assert main(["validate", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error (parse-error)")

    def test_missing_file(self, capsys):
        assert main(["validate", "/nonexistent/x.json"]) == 2


class TestVerifyCommand:
    def test_trifecta(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = main(["verify", str(SAMPLES / "trifecta.json"),
                     "--seeds", "32", "--rng", "7", "--samples", "200",
                     "--json", str(out)])
        assert code == 0
        text = capsys.readouterr().out
        assert "3 critical point" in text
        report = json.loads(out.read_text())
        cases = [r["case"] for r in report["critical_points"]]
        assert sorted(cases) == ["case1", "case1", "case3"]
        xs = sorted(r["x0"][0] for r in report["critical_points"])
        root2 = math.sqrt(2.0)
        assert xs == pytest.approx([-root2, 0.0, root2], abs=1e-9)
        for r in report["critical_points"]:
            assert abs(r["gap"]) <= 1e-10
        assert report["summary"]["cases"]["case1"] == 2

    def test_global_min(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = main(["verify", str(SAMPLES / "global_min.json"),
                     "--seeds", "8", "--rng", "7", "--samples", "100",
                     "--json", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert len(report["critical_points"]) == 1
        point = report["critical_points"][0]
        assert point["case"] == "case2"
        assert point["certificate"]["passed"] is True
        assert "certificate: PASS" in capsys.readouterr().out

    @pytest.mark.parametrize("argv", [
        ["verify", "trifecta.json", "--seeds", "-1"],
        ["verify", "trifecta.json", "--samples", "-3"],
        ["baseline", "trifecta.json", "--rng", "-1"],
    ])
    def test_negative_count_is_a_parse_error(self, argv, capsys):
        assert main([argv[0], str(SAMPLES / argv[1])] + argv[2:]) == 2
        assert "must be >= 0" in capsys.readouterr().err

    def test_internal_failure_exits_1(self, capsys, monkeypatch):
        def fail(*args):
            raise DualityError("stub failure")
        monkeypatch.setattr("dcquartic.cli.build_run_report", fail)
        assert main(["verify", str(SAMPLES / "trifecta.json")]) == 1
        assert capsys.readouterr().err == "internal failure: stub failure\n"

    def test_zero_seeds(self, capsys):
        code = main(["verify", str(SAMPLES / "trifecta.json"),
                     "--seeds", "0", "--samples", "0"])
        assert code == 0
        assert "0 critical point" in capsys.readouterr().out

    def test_deterministic_reports(self, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        args = ["verify", str(SAMPLES / "trifecta.json"),
                "--seeds", "16", "--rng", "3", "--samples", "50"]
        assert main(args + ["--json", str(a)]) == 0
        assert main(args + ["--json", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


class TestChainAndBaselineCommands:
    def test_chain(self, capsys):
        assert main(["chain", str(SAMPLES / "trifecta.json"),
                     "--seeds", "16", "--rng", "7"]) == 0
        out = capsys.readouterr().out
        assert "chain residual" in out

    def test_baseline(self, capsys):
        assert main(["baseline", str(SAMPLES / "trifecta.json"),
                     "--seeds", "16", "--rng", "7"]) == 0
        out = capsys.readouterr().out
        # the x0 = 0 pair is the canonical correspondence counterexample
        assert "no" in out


class TestSweepCommand:
    def test_small_plain_sweep(self, tmp_path, capsys):
        out = tmp_path / "sweep.json"
        code = main(["sweep", "--n", "1", "--N", "1", "--count", "5",
                     "--rng", "3", "--seeds", "6", "--json", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert len(doc["instances"]) == 5
        for inst in doc["instances"]:
            for rec in inst["critical_points"]:
                if rec["alpha1_norm"] is not None:
                    assert rec["alpha1_norm"] <= 1e-10
        text = capsys.readouterr().out
        assert "max |alpha1|" in text

    def test_gap_bound_through_cli(self, tmp_path):
        out = tmp_path / "sweep.json"
        code = main(["sweep", "--n", "4", "--N", "2", "--count", "20",
                     "--rng", "3", "--seeds", "8", "--json", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        pairs = 0
        for inst in doc["instances"]:
            for rec in inst["critical_points"]:
                if rec["gap"] is None:
                    continue
                assert abs(rec["gap"]) <= 1e-8 * (1.0 + abs(rec["J"]))
                pairs += 1
        assert pairs >= 20

    def test_count_zero(self, capsys):
        assert main(["sweep", "--n", "2", "--N", "1", "--count", "0"]) == 0
        assert "instances      0" in capsys.readouterr().out.replace(
            "instances           0", "instances      0")

    def test_out_of_range(self, capsys):
        assert main(["sweep", "--n", "99", "--N", "1", "--count", "1"]) == 2

    @pytest.mark.parametrize("flag, value", [
        ("--N", "0"), ("--N", "9"), ("--count", "-1"), ("--count", "10001")])
    def test_size_out_of_range(self, flag, value, capsys):
        # argparse keeps the last value of a repeated option
        assert main(["sweep", "--n", "1", "--N", "1", "--count", "1",
                     flag, value]) == 2
        assert f"error (parse-error): {flag} must be in" \
            in capsys.readouterr().err

    def test_eps_sweep(self, tmp_path):
        out = tmp_path / "eps.json"
        code = main(["sweep", "--n", "1", "--N", "1", "--count", "3",
                     "--rng", "3", "--seeds", "6",
                     "--eps-list", "0.1,0.01", "--json", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["settings"]["eps_list"] == [0.1, 0.01]
        for inst in doc["instances"]:
            for point in inst["sweep"]["points"]:
                assert point["ok"]

    @pytest.mark.parametrize("eps_list", ["nan,0.1", "0.1,inf", "-inf",
                                          "0.1,NaN", ",,", "", " ",
                                          "0.1,abc"])
    def test_eps_list_non_finite_or_empty(self, eps_list, tmp_path, capsys):
        # a non-numeric or non-finite eps has no K = A + eps I to solve
        # with, and an empty list is no sweep: all are parse errors, and no
        # report is written
        out = tmp_path / "eps.json"
        code = main(["sweep", "--n", "1", "--N", "1", "--count", "1",
                     f"--eps-list={eps_list}", "--json", str(out)])
        assert code == 2
        assert "error (parse-error): bad --eps-list" in capsys.readouterr().err
        assert not out.exists()

    def test_eps_list_non_positive_is_a_failed_point(self, tmp_path):
        out = tmp_path / "eps.json"
        code = main(["sweep", "--n", "1", "--N", "1", "--count", "1",
                     "--rng", "3", "--seeds", "6",
                     "--eps-list", "0,-0.5,0.1", "--json", str(out)])
        assert code == 0
        points = json.loads(out.read_text())["instances"][0]["sweep"]["points"]
        assert [p["ok"] for p in points] == [False, False, True]
        assert all("K-minus-A-not-PD" in p["error"] for p in points[:2])

    def test_eps_list_negative_first_value(self, tmp_path, capsys,
                                           monkeypatch):
        # argparse reads "-0.5,0.1" after a space as an option; the
        # --eps-list=... form that --help documents passes it as the value
        monkeypatch.setenv("COLUMNS", "200")  # no line break inside the form
        with pytest.raises(SystemExit) as done:
            main(["sweep", "--help"])
        assert done.value.code == 0
        assert "--eps-list=-0.5,0.1" in capsys.readouterr().out
        out = tmp_path / "eps.json"
        code = main(["sweep", "--n", "1", "--N", "1", "--count", "1",
                     "--rng", "3", "--seeds", "6",
                     "--eps-list=-0.5,0.1", "--json", str(out)])
        assert code == 0
        points = json.loads(out.read_text())["instances"][0]["sweep"]["points"]
        assert [(p["eps"], p["ok"]) for p in points] == [(-0.5, False),
                                                          (0.1, True)]
        assert "K-minus-A-not-PD" in points[0]["error"]


def test_runs_without_scipy():
    # numpy is the only runtime dependency: with scipy blocked from
    # import, the package imports and builds both sample reports
    script = (
        "import sys\n"
        "sys.modules['scipy'] = None\n"
        "from dcquartic import load_instance\n"
        "from dcquartic.report import build_run_report\n"
        "for path in sys.argv[1:]:\n"
        "    build_run_report(load_instance(path), 32, 7, 200)\n")
    src = str(SAMPLES.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    done = subprocess.run(
        [sys.executable, "-c", script, str(SAMPLES / "trifecta.json"),
         str(SAMPLES / "global_min.json")],
        env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
