import contextlib
import copy
import functools
import io
import itertools
import json
import math
import os
import re
import stat
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nlrpb import serialize
from nlrpb.cli import _metric_scalars, main
from nlrpb.cryptoherm import CryptoPair, from_nlrpb, hermitize
from nlrpb.errors import ValidationError
from nlrpb.models import chebyshev_model, chebyshev_paper_normalization
from nlrpb.pseudoboson import MIN_EPS_GAP, build_metrics, build_system


@pytest.fixture(autouse=True)
def clean_env(monkeypatch):
    monkeypatch.delenv("NLRPB_TOL", raising=False)


def run_json(capsys, argv):
    rc = main(argv)
    out = capsys.readouterr().out
    return rc, json.loads(out)


def as_format_1(doc: dict) -> dict:
    """The format-1 twin of a format-2 artifact: no ``format`` key, and the
    frame operators from ``build_metrics`` stored after ``m``, ``a`` and ``b``."""
    doc = copy.deepcopy(doc)
    del doc["format"]
    metrics = build_metrics(serialize.system_from_dict(doc["system"]))
    doc["matrices"].update(s_phi=serialize.matrix_to_dict(metrics.s_phi), s_eta=serialize.matrix_to_dict(metrics.s_eta))
    return doc


def checks_by_name(doc):
    found = {}
    for sec in doc["sections"]:
        if sec["kind"] == "checks":
            for c in sec["checks"]:
                found[c["name"]] = c
    return found


class TestModelCommand:
    def test_chebyshev_report(self, capsys):
        rc, doc = run_json(capsys, ["model", "chebyshev", "--n", "5"])
        assert rc == 0
        assert doc["pass"] is True
        assert doc["command"] == "model"
        _, sys5 = chebyshev_model(5)
        spectrum = next(s for s in doc["sections"] if s["kind"] == "spectrum")
        assert np.abs(np.array(spectrum["values"]) - sys5.eps).max() < 1e-14
        checks = checks_by_name(doc)
        assert "p3_biorthonormality" in checks
        assert "commutator_gaps" in checks
        assert "eigen_relations" in checks

    def test_checks_sorted_by_name(self, capsys):
        rc, doc = run_json(capsys, ["model", "chebyshev", "--n", "3"])
        for sec in doc["sections"]:
            if sec["kind"] == "checks":
                names = [c["name"] for c in sec["checks"]]
                assert names == sorted(names)

    def test_two_param_report(self, capsys):
        rc, doc = run_json(capsys, ["model", "two-param", "--beta", "2", "--delta", "-1"])
        assert rc == 0
        spectrum = next(s for s in doc["sections"] if s["kind"] == "spectrum")
        assert np.abs(np.array(spectrum["values"]) - [0.0, 4.5]).max() < 1e-12

    def test_artifact_output(self, capsys, tmp_path):
        path = tmp_path / "model.json"
        rc, _ = run_json(capsys, ["model", "chebyshev", "--n", "4", "-o", str(path)])
        assert rc == 0
        art = serialize.load_document(path)
        assert serialize.detect_kind(art) == "artifact"
        assert art["family"] == "chebyshev"
        assert art["params"]["n"] == 4
        assert list(art) == ["format", "family", "params", "system", "matrices"]
        assert art["format"] == 2
        assert list(art["matrices"]) == ["m", "a", "b"]

    def test_two_param_artifact_params(self, capsys, tmp_path):
        path = tmp_path / "tp.json"
        rc, _ = run_json(capsys, ["model", "two-param", "--beta", "1", "--delta", "-1", "-o", str(path)])
        assert rc == 0
        art = serialize.load_document(path)
        assert art["family"] == "two-param"
        assert set(art["params"]) == {"beta", "delta", "y", "w"}

    @pytest.mark.parametrize("family", ["chebyshev", "two-param"])
    @pytest.mark.parametrize(
        "given",
        [flags for r in range(4) for flags in itertools.combinations(("n", "beta", "delta"), r)],
        ids=lambda flags: "+".join(flags) or "none",
    )
    def test_flag_messages(self, capsys, family, given):
        """Each mix of family flags exits 0, or 2 with exactly one of four messages."""
        values = {"n": "3", "beta": "1", "delta": "-1"}
        needed, requires, does_not_apply = {
            "chebyshev": ({"n"}, "model chebyshev requires --n", "--beta/--delta do not apply to the chebyshev family"),
            "two-param": (
                {"beta", "delta"},
                "model two-param requires --beta and --delta",
                "--n does not apply to the two-param family",
            ),
        }[family]
        rc = main(["model", family, *(arg for flag in given for arg in (f"--{flag}", values[flag]))])
        captured = capsys.readouterr()
        if set(given) == needed:
            assert rc == 0
            return
        assert rc == 2
        assert captured.out == ""
        assert captured.err == f"error: {requires if not needed <= set(given) else does_not_apply}\n"

    def test_equal_parameters_invalid(self, capsys):
        assert main(["model", "two-param", "--beta", "1", "--delta", "1"]) == 2
        assert "beta equals delta" in capsys.readouterr().err

    def test_out_of_memory_is_invalid_parameters(self, capsys, monkeypatch):
        def refuse(n):
            raise MemoryError("Unable to allocate 74.5 GiB for an array with shape (100000, 100000)")

        monkeypatch.setattr("nlrpb.cli.chebyshev_model", refuse)
        assert main(["model", "chebyshev", "--n", "100000"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error: out of memory")

    @pytest.mark.parametrize("n", ["99999999999999999999", "3037000500"])
    def test_unaddressable_size_is_invalid(self, capsys, n):
        # rejected by the spec before any array exists; N*N*8 exceeds sys.maxsize
        assert main(["model", "chebyshev", "--n", n]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error: chebyshev family: size")

    def test_unknown_family_is_parser_error(self, capsys):
        assert main(["model", "hydrogen"]) == 2

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "beta, delta",
        [("1e200", "-1"), ("1e300", "-1e300"), ("1e-320", "-1"), ("1", "-1e-320")],
    )
    def test_two_param_overflow_is_invalid(self, capsys, beta, delta):
        assert main(["model", "two-param", f"--beta={beta}", f"--delta={delta}"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error: two-param family:")

    def test_overflowing_parameter_difference_names_eps1(self, capsys):
        assert main(["model", "two-param", "--beta", "1e308", "--delta=-1e308"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: two-param family: eps[1] = -(beta-delta)^2/(beta*delta)")

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_output_to_fifo_is_refused(self, capsys, tmp_path):
        fifo = tmp_path / "fifo"
        os.mkfifo(fifo)
        assert main(["model", "chebyshev", "--n", "2", "-o", str(fifo)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error: ")
        assert stat.S_ISFIFO(os.stat(fifo).st_mode)
        assert sorted(os.listdir(tmp_path)) == ["fifo"]

    @pytest.mark.parametrize("command", ["model", "convert"])
    def test_output_into_missing_directory_names_the_target(self, capsys, tmp_path, command):
        art = tmp_path / "art.json"
        assert main(["model", "chebyshev", "--n", "3", "-o", str(art)]) == 0
        capsys.readouterr()
        target = tmp_path / "missing" / "out.json"
        argv = {"model": ["model", "chebyshev", "--n", "3"], "convert": ["convert", "nlrpb2crypto", str(art)]}[command]
        assert main([*argv, "-o", str(target)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error: ")
        assert str(target) in lines[0]
        assert ".nlrpb-" not in lines[0]
        assert sorted(os.listdir(tmp_path)) == ["art.json"]


class TestUnusableDestination:
    """An -o target that cannot be written exits 3 after the input gates and
    before any model build, round trip or serialization."""

    # each writing command, and the computation it must not reach
    WRITERS = {
        "chebyshev": (["model", "chebyshev", "--n", "8"], "chebyshev_model"),
        "two-param": (["model", "two-param", "--beta", "2", "--delta", "-1"], "two_param_model"),
        "nlrpb2crypto": (["convert", "nlrpb2crypto", "{art}"], "nlrpb_roundtrip"),
        "crypto2nlrpb": (["convert", "crypto2nlrpb", "{pair}"], "crypto_roundtrip"),
    }
    FAULTS = {
        "missing-parent": ("missing/out.json", "No such file or directory"),
        "parent-is-a-file": ("plain/out.json", "Not a directory"),
        "target-is-a-directory": ("dir", "not a regular file"),
        "fifo": ("fifo", "not a regular file"),
    }

    @staticmethod
    def inputs(tmp_path, capsys):
        inputs = tmp_path / "inputs"
        inputs.mkdir()
        art, pair = inputs / "art.json", inputs / "pair.json"
        assert main(["model", "chebyshev", "--n", "4", "-o", str(art)]) == 0
        assert main(["convert", "nlrpb2crypto", str(art), "-o", str(pair)]) == 0
        capsys.readouterr()
        return {"art": art, "pair": pair}

    @staticmethod
    def refuse(monkeypatch, *names):
        def fail(*args, **kwargs):
            raise AssertionError("computed for an unusable destination")

        for name in names:
            monkeypatch.setattr(f"nlrpb.cli.{name}", fail)
        monkeypatch.setattr(serialize, "dumps", fail)

    @staticmethod
    def assert_refused(capsys, tmp_path, target, words):
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error: ")
        assert str(target) in lines[0] and words in lines[0]
        assert ".nlrpb-" not in lines[0]
        assert not [name for _, _, names in os.walk(tmp_path) for name in names if name.startswith(".nlrpb-")]

    @pytest.mark.parametrize("fault", FAULTS)
    @pytest.mark.parametrize("writer", WRITERS)
    def test_refused_before_computing(self, capsys, tmp_path, monkeypatch, writer, fault):
        if fault == "fifo" and not hasattr(os, "mkfifo"):
            pytest.skip("needs named pipes")
        paths = self.inputs(tmp_path, capsys)
        (tmp_path / "plain").write_text("")
        (tmp_path / "dir").mkdir()
        if fault == "fifo":
            os.mkfifo(tmp_path / "fifo")
        argv, computation = self.WRITERS[writer]
        relative, words = self.FAULTS[fault]
        target = tmp_path / relative
        self.refuse(monkeypatch, computation)
        assert main([arg.format(**paths) for arg in argv] + ["-o", str(target)]) == 3
        self.assert_refused(capsys, tmp_path, target, words)
        assert (tmp_path / "plain").read_text() == ""
        assert os.listdir(tmp_path / "dir") == []
        if fault == "fifo":
            assert stat.S_ISFIFO(os.stat(target).st_mode)

    def test_invalid_parameters_come_first(self, capsys, tmp_path, monkeypatch):
        self.refuse(monkeypatch, "chebyshev_model")
        assert main(["model", "chebyshev", "--n", "1", "-o", str(tmp_path / "missing" / "x")]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: chebyshev family: size")

    @pytest.mark.parametrize("direction, source", [("nlrpb2crypto", "art"), ("crypto2nlrpb", "pair")])
    def test_schema_errors_come_first(self, capsys, tmp_path, monkeypatch, direction, source):
        path = tmp_path / "truncated.json"
        path.write_text(self.inputs(tmp_path, capsys)[source].read_text()[:200])
        self.refuse(monkeypatch, "nlrpb_roundtrip", "crypto_roundtrip")
        assert main(["convert", direction, str(path), "-o", str(tmp_path / "missing" / "x")]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {path}: not valid JSON")

    def test_invalid_system_comes_first(self, capsys, tmp_path, monkeypatch):
        paths = self.inputs(tmp_path, capsys)
        doc = json.loads(paths["art"].read_text())
        doc["system"]["phi"][0][1] += 1e-3  # broken biorthonormality
        path = tmp_path / "broken.json"
        path.write_text(json.dumps(doc))
        self.refuse(monkeypatch, "nlrpb_roundtrip")
        assert main(["convert", "nlrpb2crypto", str(path), "-o", str(tmp_path / "missing" / "x")]) == 2
        assert "biorthonormality" in capsys.readouterr().err

    def test_destination_comes_before_the_numerics(self, capsys, tmp_path):
        # The numerics overflow (exit 2 without -o); the destination is judged first.
        argv = ["model", "two-param", "--beta=1e-300", "--delta=-1"]
        assert main(argv) == 2
        capsys.readouterr()
        target = tmp_path / "missing" / "x"
        assert main([*argv, "-o", str(target)]) == 3
        self.assert_refused(capsys, tmp_path, target, "No such file or directory")


class TestVerifyCommand:
    def make_artifact(self, capsys, tmp_path, n=4, fmt=2):
        path = tmp_path / "art.json"
        rc, _ = run_json(capsys, ["model", "chebyshev", "--n", str(n), "-o", str(path)])
        assert rc == 0
        if fmt == 1:
            path.write_text(json.dumps(as_format_1(json.loads(path.read_text()))))
        return path

    def test_clean_artifact_passes(self, capsys, tmp_path):
        path = self.make_artifact(capsys, tmp_path)
        rc, doc = run_json(capsys, ["verify", str(path)])
        assert rc == 0
        assert doc["pass"] is True
        assert "eps_structure" in checks_by_name(doc)

    def test_corrupted_eps_fails_ladder_relations(self, capsys, tmp_path):
        path = self.make_artifact(capsys, tmp_path)
        art = json.loads(path.read_text())
        art["system"]["eps"][1] += 0.1
        path.write_text(json.dumps(art))
        rc, doc = run_json(capsys, ["verify", str(path)])
        assert rc == 1
        assert doc["pass"] is False
        checks = checks_by_name(doc)
        assert checks["p3_ladder_relations"]["pass"] is False
        assert checks["p3_biorthonormality"]["pass"] is True

    @pytest.mark.parametrize(
        "edit",
        [
            {"family": "two-param", "params": {"n": 7, "z": -3}},
            {"params": {"n": 1}},
        ],
        ids=["other-family-and-size", "spec-rejects"],
    )
    def test_params_that_do_not_describe_the_system_fail(self, capsys, tmp_path, edit):
        path = self.make_artifact(capsys, tmp_path, n=5)
        art = json.loads(path.read_text())
        art.update(edit)
        path.write_text(json.dumps(art))
        rc, doc = run_json(capsys, ["verify", str(path)])
        assert rc == 1
        checks = checks_by_name(doc)
        assert checks["stored_params"]["residual"] == 1.0
        assert all(c["pass"] for name, c in checks.items() if name != "stored_params")

    def test_two_param_artifact_params_pass(self, capsys, tmp_path):
        path = tmp_path / "tp.json"
        assert main(["model", "two-param", "--beta", "0.4", "--delta=-2.2", "-o", str(path)]) == 0
        capsys.readouterr()
        rc, doc = run_json(capsys, ["verify", str(path)])
        assert rc == 0
        assert checks_by_name(doc)["stored_params"]["residual"] == 0.0

    def test_bare_system_passes(self, capsys, tmp_path):
        path = tmp_path / "sys.json"
        serialize.write_document(path, serialize.system_to_dict(chebyshev_paper_normalization(3)))
        rc, doc = run_json(capsys, ["verify", str(path)])
        assert rc == 0
        assert "p4_resolution_of_identity" in checks_by_name(doc)

    def test_single_level_system_passes(self, capsys, tmp_path):
        path = tmp_path / "sys.json"
        serialize.write_document(path, {"n": 1, "eps": [0.0], "phi": [[2.0]], "eta": [[0.5]]})
        rc, doc = run_json(capsys, ["verify", str(path)])
        assert rc == 0
        assert checks_by_name(doc)["commutator_gaps"]["residual"] == 0.0

    def test_bad_ground_level_fails_structure_gate(self, capsys, tmp_path):
        doc_sys = serialize.system_to_dict(chebyshev_paper_normalization(3))
        doc_sys["eps"][0] = 0.5
        path = tmp_path / "sys.json"
        serialize.write_document(path, doc_sys)
        rc, doc = run_json(capsys, ["verify", str(path)])
        assert rc == 1
        checks = checks_by_name(doc)
        assert checks["eps_structure"]["pass"] is False
        assert checks["eps_structure"]["tolerance"] == 0.0
        # data-level pairing still reported, ladder checks skipped
        assert "p3_biorthonormality" in checks
        assert "p3_ladder_relations" not in checks

    def test_pair_document(self, capsys, tmp_path):
        _, sys3 = chebyshev_model(3)
        from nlrpb.cryptoherm import from_nlrpb

        pair = from_nlrpb(sys3)
        path = tmp_path / "pair.json"
        serialize.write_document(path, serialize.crypto_to_dict(pair))
        rc, doc = run_json(capsys, ["verify", str(path)])
        assert rc == 0
        checks = checks_by_name(doc)
        assert checks["cryptohermiticity"]["pass"] is True
        assert checks["metric_spd"]["pass"] is True
        assert checks["spectrum_min_gap"]["pass"] is True
        shifted = next(s for s in doc["sections"] if s["kind"] == "spectrum")
        assert np.abs(np.array(shifted["values"]) - sys3.eps).max() < 1e-10

    def test_pair_with_wrong_metric_fails(self, capsys, tmp_path):
        m, _ = chebyshev_model(3)
        pair = CryptoPair(m, np.eye(3))
        path = tmp_path / "pair.json"
        serialize.write_document(path, serialize.crypto_to_dict(pair))
        rc, doc = run_json(capsys, ["verify", str(path)])
        assert rc == 1
        checks = checks_by_name(doc)
        assert checks["cryptohermiticity"]["pass"] is False
        assert "spectrum_min_gap" not in checks

    def test_stored_metrics_read_zero_on_a_clean_artifact(self, capsys, tmp_path):
        path = self.make_artifact(capsys, tmp_path, n=32, fmt=1)
        rc, doc = run_json(capsys, ["verify", str(path)])
        assert rc == 0
        assert checks_by_name(doc)["stored_metrics"]["residual"] == 0.0

    @pytest.mark.parametrize("tamper", ["entries", "scaled"])
    def test_tampered_stored_metrics_fail(self, capsys, tmp_path, tamper):
        path = self.make_artifact(capsys, tmp_path, n=32, fmt=1)
        art = json.loads(path.read_text())
        s_phi = art["matrices"]["s_phi"]["data"]
        s_eta = art["matrices"]["s_eta"]["data"]
        if tamper == "entries":
            s_eta[0] += 1.0
            s_phi[5] = -7.0
        else:
            s_eta[:] = [v * (1.0 + 1e-6) for v in s_eta]
        path.write_text(json.dumps(art))
        rc, doc = run_json(capsys, ["verify", str(path)])
        assert rc == 1
        checks = checks_by_name(doc)
        assert checks["stored_metrics"]["pass"] is False
        assert all(c["pass"] for name, c in checks.items() if name != "stored_metrics")

    def test_missing_file(self, capsys):
        assert main(["verify", "/no/such/file.json"]) == 3

    def test_garbage_file(self, capsys, tmp_path):
        path = tmp_path / "garbage.json"
        path.write_text("certainly { not json")
        assert main(["verify", str(path)]) == 3

    @pytest.mark.parametrize(
        "content",
        [
            b'{"n": 1, "eps": [0.0], "phi": [[1.0\xff]], "eta": [[1.0]]}',
            b'{"n": ' + b"7" * 4301 + b"}",
            b"[" * 100_000 + b"]" * 100_000,
            b'{"h_matrix": {"rows": 2, "cols": 2, "data": [1.0, 0.0, 0.0, 1' + b"0" * 400 + b"]}, "
            b'"theta": {"rows": 2, "cols": 2, "data": [1.0, 0.0, 0.0, 1.0]}}',
            b'{"n": 1, "eps": [NaN], "phi": [[1.0]], "eta": [[1.0]]}',
            b'{"n": 1, "eps": [0.0], "phi": [[Infinity]], "eta": [[1.0]]}',
            b'{"n": 1, "eps": [0.0], "phi": [[1e400]], "eta": [[1.0]]}',
            b'{"n": 1, "eps": [0.0], "phi": [[1.0]], "eta": [[1.0]], "note": "\\ud800"}',
            b'\xef\xbb\xbf{"n": 1, "eps": [0.0], "phi": [[1.0]], "eta": [[1.0]]}',
            b'{"n": 1, "eps": [0.0], "phi": [[1.0]], "eta": [[1.0]], "x": ' + b"[" * 2000 + b"]" * 2000 + b"}",
            b'{"x": ' * 100_000 + b"1" + b"}" * 100_000,
        ],
        ids=[
            "non-utf8",
            "int-digit-limit",
            "deep-nesting",
            "int-beyond-float",
            "nan-literal",
            "infinity-literal",
            "float-beyond-range",
            "lone-surrogate",
            "utf8-bom",
            "nesting-2000",
            "deep-objects",
        ],
    )
    def test_unparseable_input_is_parse_error(self, capsys, tmp_path, content):
        path = tmp_path / "bad.json"
        path.write_bytes(content)
        assert main(["verify", str(path)]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err

    def test_unrecognized_schema(self, capsys, tmp_path):
        path = tmp_path / "odd.json"
        path.write_text('{"foo": 1}')
        assert main(["verify", str(path)]) == 3

    def test_env_tolerance_loosens(self, capsys, tmp_path, monkeypatch):
        path = self.make_artifact(capsys, tmp_path)
        art = json.loads(path.read_text())
        art["system"]["eps"][1] += 0.1
        path.write_text(json.dumps(art))
        monkeypatch.setenv("NLRPB_TOL", "1.0")
        rc, doc = run_json(capsys, ["verify", str(path)])
        assert rc == 0
        assert doc["tolerance"] == {"value": 1.0, "source": "env"}

    def test_flag_overrides_env(self, capsys, tmp_path, monkeypatch):
        path = self.make_artifact(capsys, tmp_path)
        art = json.loads(path.read_text())
        art["system"]["eps"][1] += 0.1
        path.write_text(json.dumps(art))
        monkeypatch.setenv("NLRPB_TOL", "1.0")
        rc, doc = run_json(capsys, ["verify", str(path), "--tol", "1e-10"])
        assert rc == 1
        assert doc["tolerance"] == {"value": 1e-10, "source": "flag"}

    def test_invalid_env_tolerance(self, capsys, tmp_path, monkeypatch):
        path = self.make_artifact(capsys, tmp_path)
        monkeypatch.setenv("NLRPB_TOL", "not-a-number")
        assert main(["verify", str(path)]) == 2

    def test_negative_flag_tolerance(self, capsys, tmp_path):
        path = self.make_artifact(capsys, tmp_path)
        assert main(["verify", str(path), "--tol", "-1"]) == 2

    @pytest.mark.parametrize("raw", ["nan", "inf", "-1"])
    @pytest.mark.parametrize("source", ["--tol", "NLRPB_TOL"])
    def test_tolerance_must_be_nonnegative_finite(self, capsys, tmp_path, monkeypatch, source, raw):
        path = self.make_artifact(capsys, tmp_path)
        if source == "--tol":
            argv = ["verify", str(path), f"--tol={raw}"]
        else:
            monkeypatch.setenv("NLRPB_TOL", raw)
            argv = ["verify", str(path)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith(f"error: {source} must be a nonnegative finite number, got ")


class TestConvertCommand:
    def test_system_to_pair_golden_metric(self, capsys, tmp_path):
        src = tmp_path / "sys.json"
        dst = tmp_path / "pair.json"
        serialize.write_document(src, serialize.system_to_dict(chebyshev_paper_normalization(2)))
        rc, doc = run_json(capsys, ["convert", "nlrpb2crypto", str(src), "-o", str(dst)])
        assert rc == 0
        pair = serialize.crypto_from_dict(serialize.load_document(dst))
        s2 = math.sqrt(2.0)
        ref = np.array([[3.0, -s2], [-s2, 6.0]]) / 4.0
        assert np.abs(pair.theta - ref).max() < 1e-12
        checks = checks_by_name(doc)
        assert checks["eps_roundtrip"]["pass"] is True
        assert checks["eigenline_cosines"]["pass"] is True

    def test_pair_to_system_identity_metric(self, capsys, tmp_path):
        s3 = math.sqrt(3.0)
        h_ref = np.array([[s3, math.sqrt(2.0), 0.0], [math.sqrt(2.0), s3, 1.0], [0.0, 1.0, s3]])
        src = tmp_path / "pair.json"
        dst = tmp_path / "sys.json"
        serialize.write_document(src, serialize.crypto_to_dict(CryptoPair(h_ref, np.eye(3))))
        rc, doc = run_json(capsys, ["convert", "crypto2nlrpb", str(src), "-o", str(dst)])
        assert rc == 0
        out = serialize.system_from_dict(serialize.load_document(dst))
        assert np.abs(out.phi - out.eta).max() < 1e-13
        assert np.abs(out.eps - [0.0, s3, 2.0 * s3]).max() < 1e-12

    def test_full_roundtrip_chebyshev_n4(self, capsys, tmp_path):
        art = tmp_path / "art.json"
        pair = tmp_path / "pair.json"
        back = tmp_path / "back.json"
        assert main(["model", "chebyshev", "--n", "4", "-o", str(art)]) == 0
        capsys.readouterr()
        assert main(["convert", "nlrpb2crypto", str(art), "-o", str(pair)]) == 0
        capsys.readouterr()
        rc, doc = run_json(capsys, ["convert", "crypto2nlrpb", str(pair), "-o", str(back)])
        assert rc == 0
        checks = checks_by_name(doc)
        assert checks["h_roundtrip"]["pass"] is True
        assert checks["theta_roundtrip"]["pass"] is True
        _, sys4 = chebyshev_model(4)
        out = serialize.system_from_dict(serialize.load_document(back))
        assert np.abs(out.eps - sys4.eps).max() < 1e-9

    def test_artifact_accepted_directly(self, capsys, tmp_path):
        art = tmp_path / "art.json"
        assert main(["model", "two-param", "--beta", "1.5", "--delta", "-0.5", "-o", str(art)]) == 0
        capsys.readouterr()
        rc, _ = run_json(capsys, ["convert", "nlrpb2crypto", str(art)])
        assert rc == 0

    def test_wrong_kind_for_direction(self, capsys, tmp_path):
        pair_path = tmp_path / "pair.json"
        serialize.write_document(pair_path, serialize.crypto_to_dict(CryptoPair(np.eye(2), np.eye(2))))
        assert main(["convert", "nlrpb2crypto", str(pair_path)]) == 3
        sys_path = tmp_path / "sys.json"
        serialize.write_document(sys_path, serialize.system_to_dict(chebyshev_paper_normalization(2)))
        assert main(["convert", "crypto2nlrpb", str(sys_path)]) == 3

    def test_semantically_broken_system_is_invalid(self, capsys, tmp_path):
        doc = {
            "n": 2,
            "eps": [0.0, 1.0],
            "phi": [[1.0, 0.0], [1.0, 1.0]],
            "eta": [[1.0, 0.0], [0.0, 1.0]],
        }
        path = tmp_path / "broken.json"
        serialize.write_document(path, doc)
        assert main(["convert", "nlrpb2crypto", str(path)]) == 2

    def test_degenerate_pair_is_invalid(self, capsys, tmp_path):
        path = tmp_path / "degenerate.json"
        serialize.write_document(path, serialize.crypto_to_dict(CryptoPair(np.eye(2), np.eye(2))))
        assert main(["convert", "crypto2nlrpb", str(path)]) == 2

    def test_env_tolerance_reaches_roundtrip(self, capsys, tmp_path, monkeypatch):
        art = tmp_path / "art.json"
        pair = tmp_path / "pair.json"
        assert main(["model", "chebyshev", "--n", "5", "-o", str(art)]) == 0
        capsys.readouterr()
        monkeypatch.setenv("NLRPB_TOL", "1e-3")
        for argv in (["nlrpb2crypto", str(art), "-o", str(pair)], ["crypto2nlrpb", str(pair)]):
            rc, doc = run_json(capsys, ["convert", *argv])
            assert rc == 0
            assert doc["tolerance"] == {"value": 1e-3, "source": "env"}
            (section,) = [s for s in doc["sections"] if s["kind"] == "checks"]
            assert section["title"] == "roundtrip"
            assert [c["tolerance"] for c in section["checks"]] == [1e-3, 1e-3]


class TestGapBoundary:
    """verify, convert and the builders apply one rule: a gap of MIN_EPS_GAP is admissible."""

    @pytest.mark.parametrize(
        "gap, admissible",
        [(MIN_EPS_GAP, True), (float(np.nextafter(MIN_EPS_GAP, 0.0)), False), (0.5 * MIN_EPS_GAP, False)],
        ids=["at-min-gap", "one-ulp-below", "half-min-gap"],
    )
    def test_all_paths_agree(self, capsys, tmp_path, gap, admissible):
        eye = np.eye(2)
        path = tmp_path / "sys.json"
        serialize.write_document(path, {"n": 2, "eps": [0.0, gap], "phi": eye.tolist(), "eta": eye.tolist()})
        pair_path = tmp_path / "pair.json"
        serialize.write_document(pair_path, serialize.crypto_to_dict(CryptoPair(np.diag([0.0, gap]), eye)))
        verify_rc = main(["verify", str(path)])
        convert_rc = main(["convert", "nlrpb2crypto", str(path)])
        verify_pair_rc = main(["verify", str(pair_path)])
        capsys.readouterr()
        built = hermitized = True
        try:
            build_system(eye, eye, [0.0, gap])
        except ValidationError as exc:
            assert "gap" in str(exc)
            built = False
        try:
            hermitize(np.diag([0.0, gap]), eye)
        except ValidationError as exc:
            assert "degenerate" in str(exc)
            hermitized = False
        if admissible:
            assert (verify_rc, convert_rc, verify_pair_rc, built, hermitized) == (0, 0, 0, True, True)
        else:
            assert (verify_rc, convert_rc, verify_pair_rc, built, hermitized) == (1, 2, 1, False, False)


AXIOMS = [
    ("p1_vacuum_phi", 1e-10),
    ("p2_vacuum_eta", 1e-10),
    ("p3_biorthonormality", 1e-10),
    ("p3_ladder_relations", 1e-10),
    ("p4_resolution_of_identity", 1e-10),
    ("p5_frame_bounds", 0.0),
    ("p5_metric_duality", 1e-10),
]


class TestFloat64Overflow:
    """Data whose float64 arithmetic overflows exits 2 with one error line."""

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "argv",
        [
            ["model", "two-param", "--beta=1e150", "--delta=-1e-150"],
            ["model", "two-param", "--beta=1e-250", "--delta=-1e-60"],
            ["model", "two-param", "--beta=1e-308", "--delta=-1"],
            ["model", "two-param", "--beta=1e-150", "--delta=-1e150"],
            ["model", "two-param", "--beta=1e-300", "--delta=-1"],
            ["verify", "pair"],
        ],
    )
    def test_overflow_is_invalid(self, capsys, tmp_path, argv):
        # ||H||_F is about 1.97e308, beyond the float64 range
        pair = tmp_path / "pair.json"
        serialize.write_document(pair, serialize.crypto_to_dict(CryptoPair([[1e308, 1.0], [1.0, 1.7e308]], np.eye(2))))
        assert main([str(pair) if arg == "pair" else arg for arg in argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error: ")

    @pytest.mark.parametrize(
        "doc",
        [
            # Theta H = 0 and H^T Theta != 0: the relative residual is beyond the float64 range
            {"h_matrix": {"rows": 2, "cols": 2, "data": [1e10, 0.0, 1e10, 0.0]},
             "theta": {"rows": 2, "cols": 2, "data": [1.0, -1.0, 0.0, 0.0]}},
            # ||S_phi|| is about 1e-304; the stored S_phi is off by 1e10
            {"family": "chebyshev", "params": {"n": 2},
             "system": {"n": 2, "eps": [0.0, 1.0], "phi": [[1e-152, 0.0], [0.0, 1e-152]],
                        "eta": [[1e152, 0.0], [0.0, 1e152]]},
             "matrices": {k: {"rows": 2, "cols": 2, "data": v} for k, v in {
                 "m": [0.0, 0.0, 0.0, 1.0], "a": [0.0] * 4, "b": [0.0] * 4,
                 "s_phi": [1e10, 0.0, 0.0, 1e10], "s_eta": [1e304, 0.0, 0.0, 1e304]}.items()}},
        ],
        ids=["null-metric-pair", "tiny-basis-artifact"],
    )
    def test_overflowing_relative_residual_is_invalid(self, capsys, tmp_path, doc):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        assert main(["verify", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

    def test_unrepresentable_condition_number_is_null(self, capsys):
        # lambda_max / lambda_min of S_eta is 1e320; every check is computable and three fail
        rc = main(["model", "two-param", "--beta=1e-160", "--delta=-1e-160"])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.err == ""
        doc = json.loads(captured.out)
        scalars = next(sec["values"] for sec in doc["sections"] if sec["kind"] == "scalars")
        assert scalars["condition_number"] is None
        assert scalars["lambda_min"] == 1e-160 and scalars["lambda_max"] == 1e160
        failed = {c["name"] for c in checks_by_name(doc).values() if not c["pass"]}
        assert failed == {"p4_resolution_of_identity", "p5_frame_bounds", "p5_metric_duality"}

    @pytest.mark.parametrize(
        "s_eta, cond",
        [([[2.0, 0.0], [0.0, 8.0]], 4.0), ([[0.0, 0.0], [0.0, 1.0]], None), ([[-1.0, 0.0], [0.0, 1.0]], None)],
    )
    def test_condition_number_is_null_without_a_positive_lambda_min(self, s_eta, cond):
        assert _metric_scalars(np.array(s_eta))["values"]["condition_number"] == cond

    def test_large_representable_pair_is_valid(self, capsys, tmp_path):
        # The sums of squares overflow; the norms (about 2.2e200) and every residual do not.
        pair, system = tmp_path / "pair.json", tmp_path / "system.json"
        serialize.write_document(pair, serialize.crypto_to_dict(CryptoPair([[1e200, 1.0], [1.0, 2e200]], np.eye(2))))
        assert main(["verify", str(pair)]) == 0
        assert main(["convert", "crypto2nlrpb", str(pair), "-o", str(system)]) == 0
        assert main(["verify", str(system)]) == 0
        assert main(["convert", "nlrpb2crypto", str(system)]) == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("sign, rc", [(1.0, 0), (-1.0, 1)])
    def test_metric_near_the_float64_range(self, capsys, tmp_path, sign, rc):
        # Theta + Theta^T overflows; the verdict comes from Theta's symmetric part.
        pair = tmp_path / "pair.json"
        theta = np.diag([sign * 1e308, sign * 5e307])
        serialize.write_document(pair, serialize.crypto_to_dict(CryptoPair(np.diag([0.25, 0.5]), theta)))
        assert main(["verify", str(pair)]) == rc
        captured = capsys.readouterr()
        assert captured.err == ""
        checks = checks_by_name(json.loads(captured.out))
        assert checks["metric_spd"]["pass"] == (sign > 0.0)
        assert checks["cryptohermiticity"]["pass"]

    @settings(deadline=None, max_examples=300)
    @given(st.floats(allow_nan=False, allow_infinity=False), st.floats(allow_nan=False, allow_infinity=False))
    def test_two_param_exit_is_honest_for_every_double(self, beta, delta):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(["model", "two-param", f"--beta={beta!r}", f"--delta={delta!r}"])
        assert rc in (0, 1, 2)
        if rc == 2:
            assert out.getvalue() == ""
            lines = err.getvalue().splitlines()
            assert len(lines) == 1 and lines[0].startswith("error: ")
        else:
            assert err.getvalue() == ""
            assert json.loads(out.getvalue())["pass"] is (rc == 0)


_MODEL_ARGVS = [["model", "chebyshev", "--n", str(n)] for n in range(2, 9)] + [
    ["model", "two-param", "--beta", "2", "--delta", "-1"]
]


@functools.lru_cache(maxsize=None)
def _model_artifacts(fmt: int = 2) -> tuple:
    """Artifacts of Chebyshev N = 2..8 and two-param (beta=2, delta=-1): as
    ``model -o`` writes them (format 2), or their format-1 twins."""
    if fmt == 1:
        return tuple(as_format_1(doc) for doc in _model_artifacts())
    docs = []
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
        path = os.path.join(tmp, "artifact.json")
        for argv in _MODEL_ARGVS:
            assert main(argv + ["-o", path]) == 0
            with open(path) as fh:
                docs.append(json.load(fh))
    return tuple(docs)


_BLOCKS = ("eps", "phi", "eta", "m", "a", "b", "s_phi", "s_eta")


def _entry(doc, block: str, k: int):
    """(list holding entry ``k`` of ``block``, its index there, the block's max |entry|)."""
    if block in ("eps", "phi", "eta"):
        values = doc["system"][block]
    else:
        values = doc["matrices"][block]["data"]
    flat = np.ravel(values)
    k %= flat.size
    if block in ("phi", "eta"):
        width = len(values[0])
        return values[k // width], k % width, float(np.abs(flat).max())
    return values, k, float(np.abs(flat).max())


def _verify_text(text: str):
    """(exit code, stdout, stderr) of ``verify`` on a file holding ``text``."""
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "doc.json")
        with open(path, "w") as fh:
            fh.write(text)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(["verify", path])
    return rc, out.getvalue(), err.getvalue()


class TestVerifyContract:
    """Artifacts edited in one entry get an honest exit: 0 or 1 with a report
    whose "pass" agrees, or 2 or 3 with one error line; never a traceback."""

    artifact = st.integers(0, 7)
    entry = st.tuples(st.sampled_from(_BLOCKS), st.integers(0, 10**6))
    # Format 2 stores no frame operators, so its twins draw the other blocks.
    entry_format_2 = st.tuples(st.sampled_from(_BLOCKS[:-2]), st.integers(0, 10**6))
    mutation = st.one_of(
        st.tuples(st.just("perturb"), st.floats(allow_nan=False, allow_infinity=False)),
        st.tuples(st.just("scale"), st.floats(-1.0, 1.0)),
        st.tuples(st.sampled_from(["delete", "reshape"]), st.none()),
    )

    @settings(deadline=None, max_examples=80)
    @given(artifact, entry, mutation)
    def test_every_exit_is_honest(self, artifact, entry, mutation):
        self.check_honest_exit(_model_artifacts(1)[artifact], entry, mutation)

    @settings(deadline=None, max_examples=80)
    @given(artifact, entry_format_2, mutation)
    def test_every_exit_is_honest_format_2(self, artifact, entry, mutation):
        self.check_honest_exit(_model_artifacts(2)[artifact], entry, mutation)

    @settings(deadline=None, max_examples=50)
    @given(artifact, entry, st.sampled_from([-1.0, 1.0]))
    def test_block_relative_edit_fails(self, artifact, entry, sign):
        self.check_relative_edit_fails(_model_artifacts(1)[artifact], entry, sign)

    @settings(deadline=None, max_examples=50)
    @given(artifact, entry_format_2, st.sampled_from([-1.0, 1.0]))
    def test_block_relative_edit_fails_format_2(self, artifact, entry, sign):
        self.check_relative_edit_fails(_model_artifacts(2)[artifact], entry, sign)

    @staticmethod
    def check_honest_exit(artifact: dict, entry, mutation):
        doc = copy.deepcopy(artifact)
        holder, i, biggest = _entry(doc, *entry)
        action, value = mutation
        if action == "perturb":
            holder[i] = value
        elif action == "scale":
            holder[i] += value * biggest
        elif action == "delete":
            del holder[i]
        else:
            holder[i] = [holder[i]]
        rc, out, err = _verify_text(json.dumps(doc))
        assert rc in (0, 1, 2, 3)
        assert "Traceback" not in err
        if rc in (2, 3):
            assert out == ""
            lines = err.splitlines()
            assert len(lines) == 1 and lines[0].startswith("error: ")
        else:
            assert err == ""
            assert json.loads(out)["pass"] is (rc == 0)

    @staticmethod
    def check_relative_edit_fails(artifact: dict, entry, sign):
        doc = copy.deepcopy(artifact)
        holder, i, biggest = _entry(doc, *entry)
        holder[i] += sign * 1e-6 * biggest
        rc, out, err = _verify_text(json.dumps(doc))
        assert (rc, err) == (1, "")
        assert json.loads(out)["pass"] is False


def _without_timestamp(report: str) -> dict:
    doc = json.loads(report)
    del doc["timestamp"]
    return doc


_MODEL_IDS = ["-".join(argv[1:2] + argv[3::2]) for argv in _MODEL_ARGVS]


class TestArtifactFormats:
    """A format-2 artifact and its format-1 twin get one verdict; the reader
    takes ``"format": 2`` or no format key (format 1), and nothing else."""

    @pytest.mark.parametrize("index", range(len(_MODEL_ARGVS)), ids=_MODEL_IDS)
    def test_verify_gives_the_same_report(self, index):
        (rc1, out1, err1), (rc2, out2, err2) = (
            _verify_text(json.dumps(_model_artifacts(fmt)[index])) for fmt in (1, 2)
        )
        assert (rc1, err1, rc2, err2) == (0, "", 0, "")
        v1, v2 = _without_timestamp(out1), _without_timestamp(out2)
        axioms = next(sec for sec in v1["sections"] if sec["title"] == "axioms")
        stored = next(c for c in axioms["checks"] if c["name"] == "stored_metrics")
        assert (stored["residual"], stored["pass"]) == (0.0, True)
        axioms["checks"].remove(stored)
        assert v1 == v2

    @pytest.mark.parametrize("index", range(len(_MODEL_ARGVS)), ids=_MODEL_IDS)
    def test_convert_writes_the_same_pair(self, tmp_path, capsys, index):
        results = []
        for fmt in (1, 2):
            src, dst = tmp_path / f"art{fmt}.json", tmp_path / f"pair{fmt}.json"
            src.write_text(json.dumps(_model_artifacts(fmt)[index]))
            rc = main(["convert", "nlrpb2crypto", str(src), "-o", str(dst)])
            captured = capsys.readouterr()
            results.append((rc, captured.err, _without_timestamp(captured.out), dst.read_bytes()))
        assert results[0] == results[1]
        assert results[0][0] == 0

    @pytest.mark.parametrize("fmt, block", [(2, "m"), (2, "a"), (2, "b"), (1, "m"), (1, "s_phi"), (1, "s_eta")])
    def test_missing_block_is_a_schema_error(self, fmt, block):
        doc = copy.deepcopy(_model_artifacts(fmt)[0])
        del doc["matrices"][block]
        assert _verify_text(json.dumps(doc)) == (3, "", f"error: matrices must include {block!r}\n")

    @pytest.mark.parametrize("value", [3, True, 2.0, "2", 1, None, [2]], ids=repr)
    def test_any_other_format_is_a_schema_error(self, value):
        doc = copy.deepcopy(_model_artifacts()[0])
        doc["format"] = value
        message = f"error: artifact format must be 2, or absent for format 1, not {value!r}\n"
        assert _verify_text(json.dumps(doc)) == (3, "", message)

    @pytest.mark.parametrize("keys", [("s_phi",), ("s_eta",), ("s_phi", "s_eta")], ids="+".join)
    def test_format_2_refuses_frame_operators(self, keys):
        doc = copy.deepcopy(_model_artifacts()[3])
        stored = as_format_1(doc)["matrices"]
        doc["matrices"].update({key: stored[key] for key in keys})
        message = f"error: format-2 matrices must not include {keys[0]!r}\n"
        assert _verify_text(json.dumps(doc)) == (3, "", message)


class TestCheckSets:
    """Each report's full sorted list of (check, tolerance) per section is pinned."""

    @staticmethod
    def check_sets(doc):
        return [
            (sec["title"], [(c["name"], c["tolerance"]) for c in sec["checks"]])
            for sec in doc["sections"]
            if sec["kind"] == "checks"
        ]

    @pytest.fixture
    def inputs(self, capsys, tmp_path):
        paths = {"artifact": tmp_path / "art.json"}
        assert main(["model", "chebyshev", "--n", "5", "-o", str(paths["artifact"])]) == 0
        capsys.readouterr()
        docs = {
            "artifact_format_1": as_format_1(serialize.load_document(paths["artifact"])),
            "system": serialize.system_to_dict(chebyshev_paper_normalization(3)),
            "bad_ground": serialize.system_to_dict(chebyshev_paper_normalization(3)),
            "pair": serialize.crypto_to_dict(from_nlrpb(chebyshev_model(3)[1])),
            "wrong_metric": serialize.crypto_to_dict(CryptoPair(chebyshev_model(3)[0], np.eye(3))),
        }
        docs["bad_ground"]["eps"][0] = 0.5
        for name, doc in docs.items():
            paths[name] = tmp_path / f"{name}.json"
            serialize.write_document(paths[name], doc)
        return paths

    @pytest.mark.parametrize(
        "argv, expected",
        [
            (
                ["model", "chebyshev", "--n", "5"],
                [
                    (
                        "verification",
                        sorted(AXIOMS + [("commutator_gaps", 1e-10), ("eigen_relations", 1e-10), ("eps_structure", 0.0)]),
                    )
                ],
            ),
            (
                ["model", "two-param", "--beta", "2", "--delta", "-1"],
                [
                    (
                        "verification",
                        sorted(AXIOMS + [("commutator_gaps", 1e-10), ("eigen_relations", 1e-10), ("eps_structure", 0.0)]),
                    )
                ],
            ),
            (
                ["verify", "artifact_format_1"],
                [
                    (
                        "axioms",
                        sorted(
                            AXIOMS
                            + [
                                ("commutator_gaps", 1e-10),
                                ("eigen_relations", 1e-10),
                                ("eps_structure", 0.0),
                                ("stored_metrics", 1e-10),
                                ("stored_params", 1e-10),
                            ]
                        ),
                    )
                ],
            ),
            (
                ["verify", "artifact"],
                [
                    (
                        "axioms",
                        sorted(
                            AXIOMS
                            + [
                                ("commutator_gaps", 1e-10),
                                ("eigen_relations", 1e-10),
                                ("eps_structure", 0.0),
                                ("stored_params", 1e-10),
                            ]
                        ),
                    )
                ],
            ),
            (
                ["verify", "system"],
                [("axioms", sorted(AXIOMS + [("commutator_gaps", 1e-10), ("eps_structure", 0.0)]))],
            ),
            (
                ["verify", "pair"],
                [
                    (
                        "cryptohermiticity",
                        [
                            ("cryptohermiticity", 1e-10),
                            ("hermitized_symmetry", 1e-10),
                            ("metric_spd", 0.0),
                            ("spectrum_min_gap", 0.0),
                        ],
                    )
                ],
            ),
            (["verify", "bad_ground"], [("axioms", [("eps_structure", 0.0), ("p3_biorthonormality", 1e-10)])]),
            (
                ["verify", "wrong_metric"],
                [("cryptohermiticity", [("cryptohermiticity", 1e-10), ("metric_spd", 0.0)])],
            ),
            (
                ["convert", "nlrpb2crypto", "artifact"],
                [("roundtrip", [("eigenline_cosines", 1e-9), ("eps_roundtrip", 1e-9)])],
            ),
            (
                ["convert", "crypto2nlrpb", "pair"],
                [("roundtrip", [("h_roundtrip", 1e-9), ("theta_roundtrip", 1e-9)])],
            ),
        ],
        ids=[
            "model-chebyshev",
            "model-two-param",
            "verify-artifact",
            "verify-artifact-format-2",
            "verify-system",
            "verify-pair",
            "verify-bad-ground",
            "verify-wrong-metric",
            "nlrpb2crypto",
            "crypto2nlrpb",
        ],
    )
    def test_check_set(self, capsys, inputs, argv, expected):
        argv = [str(inputs.get(arg, arg)) for arg in argv]
        main(argv)
        assert self.check_sets(json.loads(capsys.readouterr().out)) == expected


class TestEigensolveRouting:
    """Each command's (values-only, vector) eigensolve counts: checks that read
    only eigenvalues call ``numpy.linalg.eigvalsh``, the rest ``eigh``.  The
    sums (model 3, verify artifact 2, verify system 2, verify pair 4,
    nlrpb2crypto 7, crypto2nlrpb 11) are the benchmark's pinned eigensolves
    per command, so a change to them goes with the benchmark's baseline."""

    def test_counts_per_command(self, capsys, tmp_path, monkeypatch):
        counts = {"eigvalsh": 0, "eigh": 0}

        def counting(name):
            original = getattr(np.linalg, name)

            def solve(*args, **kwargs):
                counts[name] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(np.linalg, name, solve)

        counting("eigvalsh")
        counting("eigh")
        art, pair, system = (str(tmp_path / f"{name}.json") for name in ("art", "pair", "system"))
        chain = [
            ("model", ["model", "chebyshev", "--n", "8", "-o", art], (3, 0)),
            ("verify artifact", ["verify", art], (2, 0)),
            ("nlrpb2crypto", ["convert", "nlrpb2crypto", art, "-o", pair], (2, 5)),
            ("verify pair", ["verify", pair], (1, 3)),
            ("crypto2nlrpb", ["convert", "crypto2nlrpb", pair, "-o", system], (3, 8)),
            ("verify system", ["verify", system], (2, 0)),
        ]
        seen = {}
        for name, argv, _ in chain:
            counts.update(eigvalsh=0, eigh=0)
            assert main(argv) == 0, name
            seen[name] = (counts["eigvalsh"], counts["eigh"])
        capsys.readouterr()
        assert seen == {name: split for name, _, split in chain}


class TestJsonOutput:
    """Written documents and JSON reports are exactly json.dumps(..., indent=2) text."""

    def test_artifact_file_and_convert_report(self, capsys, tmp_path, assert_same_lines):
        art = tmp_path / "art.json"
        assert main(["model", "chebyshev", "--n", "32", "-o", str(art)]) == 0
        capsys.readouterr()
        text = art.read_text()
        assert_same_lines(text, json.dumps(json.loads(text), indent=2) + "\n")
        assert main(["convert", "nlrpb2crypto", str(art)]) == 0
        text = capsys.readouterr().out
        assert_same_lines(text, json.dumps(json.loads(text), indent=2) + "\n")


class TestPaperTablesCommand:
    @pytest.mark.parametrize("table", ["n2", "n3", "n4", "n5", "two-param"])
    def test_all_tables_pass(self, capsys, table):
        rc, doc = run_json(capsys, ["paper-tables", table])
        assert rc == 0
        assert doc["pass"] is True
        for sec in doc["sections"]:
            if sec["kind"] == "comparison":
                for row in sec["rows"]:
                    assert row["deviation"] < 1e-8

    def test_markdown_format(self, capsys):
        rc = main(["paper-tables", "n2", "--format", "md"])
        out = capsys.readouterr().out
        assert rc == 0
        assert out.startswith("# nlrpb paper-tables n2")
        assert "| check | residual | tolerance | pass |" in out

    def test_csv_format(self, capsys):
        rc = main(["paper-tables", "n3", "--format", "csv"])
        out = capsys.readouterr().out
        assert rc == 0
        lines = out.strip().splitlines()
        assert lines[0] == "section,check,residual,tolerance,pass"
        assert all(line.endswith(",true") for line in lines[1:])

    def test_unknown_table_rejected(self, capsys):
        assert main(["paper-tables", "n9"]) == 2

    LAYOUT = {
        "n2": (
            [
                ("checks", "golden values"),
                ("comparison", "spectrum"),
                ("comparison", "metric eigenvalues"),
                ("matrix", "m reference"),
                ("matrix", "m computed"),
                ("matrix", "s_eta reference"),
                ("matrix", "s_eta computed"),
            ],
            [("m_matrix", 1e-12), ("metric_eigenvalues", 1e-12), ("s_eta", 1e-12), ("spectrum", 1e-12)],
        ),
        "n3": (
            [
                ("checks", "golden values"),
                ("comparison", "spectrum"),
                ("matrix", "s_eta reference"),
                ("matrix", "s_eta computed"),
                ("matrix", "hermitized h reference"),
                ("matrix", "hermitized h computed"),
            ],
            [("hermitized_h", 1e-12), ("s_eta", 1e-12), ("spectrum", 1e-12)],
        ),
        "n4": ([("checks", "golden values"), ("comparison", "spectrum")], [("spectrum", 1e-12)]),
        "n5": ([("checks", "golden values"), ("comparison", "spectrum")], [("spectrum", 1e-8)]),
        "two-param": (
            [
                ("checks", "golden values"),
                ("comparison", "spectrum (beta=1, delta=-1)"),
                ("comparison", "spectrum (beta=2, delta=-1)"),
                ("matrix", "m computed (beta=1, delta=-1)"),
                ("matrix", "s_phi computed (beta=2, delta=-1)"),
                ("matrix", "s_eta computed (beta=2, delta=-1)"),
            ],
            [
                ("beta1_delta-1_m", 1e-12),
                ("beta1_delta-1_s_phi", 1e-12),
                ("beta1_delta-1_spectrum", 1e-12),
                ("beta2_delta-1_s_eta", 1e-12),
                ("beta2_delta-1_s_phi", 1e-12),
                ("beta2_delta-1_spectrum", 1e-12),
            ],
        ),
    }

    @pytest.mark.parametrize("table", list(LAYOUT))
    def test_layout(self, capsys, table):
        """Section kinds and titles in order, and each golden check's tolerance; no float text."""
        _, doc = run_json(capsys, ["paper-tables", table])
        sections = [(sec["kind"], sec["title"]) for sec in doc["sections"]]
        checks = [(c["name"], c["tolerance"]) for sec in doc["sections"] if sec["kind"] == "checks" for c in sec["checks"]]
        assert (sections, checks) == self.LAYOUT[table]

    @pytest.mark.parametrize("env", ["junk", "1e-3"])
    def test_env_tolerance_is_not_read(self, capsys, monkeypatch, env):
        expected = main(["paper-tables", "n5", "--format", "md"]), capsys.readouterr()
        monkeypatch.setenv("NLRPB_TOL", env)
        rc, doc = run_json(capsys, ["paper-tables", "n4"])
        assert rc == 0
        assert doc["tolerance"] == {"value": None, "source": "default"}
        assert (main(["paper-tables", "n5", "--format", "md"]), capsys.readouterr()) == expected


class TestParserBasics:
    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "model" in capsys.readouterr().out

    def test_no_command_is_error(self, capsys):
        assert main([]) == 2

    def test_unknown_command_is_error(self, capsys):
        assert main(["frobnicate"]) == 2

    @staticmethod
    def command_per_subcommand(tmp_path):
        system = tmp_path / "sys.json"
        serialize.write_document(system, serialize.system_to_dict(chebyshev_paper_normalization(2)))
        pair = tmp_path / "pair.json"
        serialize.write_document(pair, serialize.crypto_to_dict(from_nlrpb(chebyshev_model(3)[1])))
        return [
            ["model", "chebyshev", "--n", "3"],
            ["model", "two-param", "--beta", "2", "--delta=-1"],
            ["model", "chebyshev", "--n", "3", "-o", str(tmp_path / "out.json")],
            ["verify", str(system)],
            ["verify", str(pair)],
            ["convert", "nlrpb2crypto", str(system)],
            ["convert", "crypto2nlrpb", str(pair)],
            ["paper-tables", "n2"],
            ["paper-tables", "two-param", "--format", "md"],
        ]

    def test_main_builds_no_parser(self, capsys, tmp_path, monkeypatch):
        argvs = self.command_per_subcommand(tmp_path)

        def refuse():
            raise AssertionError("main must reuse the parser built at import")

        monkeypatch.setattr("nlrpb.cli.build_parser", refuse)
        for argv in argvs:
            assert main(argv) == 0, argv
        assert main(["model", "chebyshev"]) == 2
        assert main(["verify", str(tmp_path / "missing.json")]) == 3

    def test_repeated_calls_do_not_interact(self, capsys, tmp_path):
        argvs = self.command_per_subcommand(tmp_path) + [
            ["--help"],
            [],
            ["frobnicate"],
            ["paper-tables", "n9"],
            ["paper-tables", "n3", "--format", "xml"],
            ["verify", str(tmp_path / "sys.json"), "--tol", "-1"],
            ["model", "chebyshev"],
        ]

        def run(order):
            results = {}
            for argv in order:
                rc = main(list(argv))
                captured = capsys.readouterr()
                out = re.sub(r'"timestamp": "[^"]*"|- timestamp: \S+', "TIMESTAMP", captured.out)
                results[tuple(argv)] = (rc, out, captured.err)
            return results

        forward = run(argvs)
        assert run(argvs[::-1]) == forward
        assert [forward[tuple(argv)][0] for argv in argvs[-7:]] == [0, 2, 2, 2, 2, 2, 2]

    def test_module_entry_point(self, tmp_path):
        env = {k: v for k, v in os.environ.items() if k != "NLRPB_TOL"}
        proc = subprocess.run(
            [sys.executable, "-m", "nlrpb", "paper-tables", "n4"],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 0
        doc = json.loads(proc.stdout)
        assert doc["pass"] is True

    def test_timestamp_is_utc(self, capsys):
        _, doc = run_json(capsys, ["paper-tables", "n4"])
        assert doc["timestamp"].endswith("+00:00")
