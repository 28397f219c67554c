import copy
import errno
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

from nlrpb import pseudoboson, serialize
from nlrpb.cli import _metric_scalars, main
from nlrpb.cryptoherm import CryptoPair, from_nlrpb, hermitize
from nlrpb.errors import ValidationError
from nlrpb.models import chebyshev_model, chebyshev_paper_normalization
from nlrpb.pseudoboson import MIN_EPS_GAP, BiorthogonalSystem, build_metrics, build_system

from cli_runner import run_cli


@pytest.fixture(autouse=True)
def clean_env(monkeypatch):
    monkeypatch.delenv("NLRPB_TOL", raising=False)


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
    def test_chebyshev_report(self):
        doc = run_cli(["model", "chebyshev", "--n", "5"]).doc
        assert doc["pass"] is True
        assert doc["command"] == "model"
        _, sys5 = chebyshev_model(5)
        spectrum = next(s for s in doc["sections"] if s["kind"] == "spectrum")
        assert np.abs(np.array(spectrum["values"]) - sys5.eps).max() < 1e-14
        checks = checks_by_name(doc)
        assert "p3_biorthonormality" in checks
        assert "commutator_gaps" in checks
        assert "eigen_relations" in checks

    def test_checks_sorted_by_name(self):
        for sec in run_cli(["model", "chebyshev", "--n", "3"]).doc["sections"]:
            if sec["kind"] == "checks":
                names = [c["name"] for c in sec["checks"]]
                assert names == sorted(names)

    def test_two_param_report(self):
        rc, _, _, doc = run_cli(["model", "two-param", "--beta", "2", "--delta", "-1"])
        assert rc == 0
        spectrum = next(s for s in doc["sections"] if s["kind"] == "spectrum")
        assert np.abs(np.array(spectrum["values"]) - [0.0, 4.5]).max() < 1e-12

    @pytest.mark.xfail(
        strict=True,
        raises=AssertionError,
        reason="beta=1e8, delta=-1: a valid model, but model exits 1 (p3_ladder_relations 1.05e-8, "
        "eigen_relations 6.1e-10 against the flat 1e-10): the flat tolerance is not scale-free",
    )
    def test_two_param_at_a_large_beta_passes(self):
        assert run_cli(["model", "two-param", "--beta", "1e8", "--delta=-1"]).rc == 0

    def test_artifact_output(self, tmp_path):
        path = tmp_path / "model.json"
        assert run_cli(["model", "chebyshev", "--n", "4", "-o", path]).rc == 0
        art = serialize.load_document(path)
        assert serialize.detect_kind(art) == "artifact"
        assert art["family"] == "chebyshev"
        assert art["params"]["n"] == 4
        assert list(art) == ["format", "family", "params", "system", "matrices"]
        assert art["format"] == 2
        assert list(art["matrices"]) == ["m", "a", "b"]

    def test_two_param_artifact_params(self, tmp_path):
        path = tmp_path / "tp.json"
        assert run_cli(["model", "two-param", "--beta", "1", "--delta", "-1", "-o", path]).rc == 0
        art = serialize.load_document(path)
        assert art["family"] == "two-param"
        assert set(art["params"]) == {"beta", "delta", "y", "w"}

    @pytest.mark.parametrize("family", ["chebyshev", "two-param"])
    @pytest.mark.parametrize(
        "given",
        [flags for r in range(4) for flags in itertools.combinations(("n", "beta", "delta"), r)],
        ids=lambda flags: "+".join(flags) or "none",
    )
    def test_flag_messages(self, family, given):
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
        rc, _, err, _ = run_cli(["model", family, *(arg for flag in given for arg in (f"--{flag}", values[flag]))])
        if set(given) == needed:
            assert rc == 0
            return
        assert rc == 2
        assert err == f"error: {requires if not needed <= set(given) else does_not_apply}\n"

    def test_equal_parameters_invalid(self):
        rc, _, err, _ = run_cli(["model", "two-param", "--beta", "1", "--delta", "1"])
        assert rc == 2
        assert "beta equals delta" in err

    @pytest.mark.parametrize("beta", ["inf", "nan"])
    def test_non_finite_parameter_invalid(self, beta):
        rc, _, err, _ = run_cli(["model", "two-param", "--beta", beta, "--delta=-1"])
        assert (rc, err) == (2, "error: two-param family: beta and delta must be finite\n")

    def test_out_of_memory_is_invalid_parameters(self, monkeypatch):
        def refuse(n):
            raise MemoryError("Unable to allocate 74.5 GiB for an array with shape (100000, 100000)")

        monkeypatch.setattr("nlrpb.cli.chebyshev_model", refuse)
        rc, _, err, _ = run_cli(["model", "chebyshev", "--n", "100000"])
        assert rc == 2
        assert err.startswith("error: out of memory")

    @pytest.mark.parametrize("n", ["99999999999999999999", "3037000500"])
    def test_unaddressable_size_is_invalid(self, n):
        # rejected by the spec before any array exists; N*N*8 exceeds sys.maxsize
        rc, _, err, _ = run_cli(["model", "chebyshev", "--n", n])
        assert rc == 2
        assert err.startswith("error: chebyshev family: size")

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "beta, delta",
        [("1e200", "-1"), ("1e300", "-1e300"), ("1e-320", "-1"), ("1", "-1e-320")],
    )
    def test_two_param_overflow_is_invalid(self, beta, delta):
        rc, _, err, _ = run_cli(["model", "two-param", f"--beta={beta}", f"--delta={delta}"])
        assert rc == 2
        assert err.startswith("error: two-param family:")

    def test_overflowing_parameter_difference_names_eps1(self):
        rc, _, err, _ = run_cli(["model", "two-param", "--beta", "1e308", "--delta=-1e308"])
        assert rc == 2
        assert err.startswith("error: two-param family: eps[1] = -(beta-delta)^2/(beta*delta)")

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_output_to_fifo_is_refused(self, tmp_path):
        fifo = tmp_path / "fifo"
        os.mkfifo(fifo)
        assert run_cli(["model", "chebyshev", "--n", "2", "-o", fifo]).rc == 3
        assert stat.S_ISFIFO(os.stat(fifo).st_mode)
        assert sorted(os.listdir(tmp_path)) == ["fifo"]

    @pytest.mark.parametrize("command", ["model", "convert"])
    def test_output_into_missing_directory_names_the_target(self, tmp_path, command):
        art = tmp_path / "art.json"
        assert run_cli(["model", "chebyshev", "--n", "3", "-o", art]).rc == 0
        target = tmp_path / "missing" / "out.json"
        argv = {"model": ["model", "chebyshev", "--n", "3"], "convert": ["convert", "nlrpb2crypto", art]}[command]
        rc, _, err, _ = run_cli([*argv, "-o", target])
        assert rc == 3
        assert str(target) in err
        assert ".nlrpb-" not in err
        assert sorted(os.listdir(tmp_path)) == ["art.json"]

    def test_unwritable_stdout_is_an_io_error(self):
        # a report piped to a reader that has exited, as in `nlrpb ... | true`
        class ClosedPipe(io.StringIO):
            def write(self, text):
                raise BrokenPipeError(errno.EPIPE, os.strerror(errno.EPIPE))

        rc, _, err, _ = run_cli(["model", "chebyshev", "--n", "3"], stdout=ClosedPipe())
        assert (rc, err) == (3, "error: [Errno 32] Broken pipe\n")


class TestUnusableDestination:
    """An -o target is judged as given.  One that cannot be written exits 3
    after the input gates and before any model build, round trip or
    serialization; one that fails later exits 3 naming the target too."""

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
        # judged as given: no normalization drops the separator or the ".."
        "trailing-separator": ("nothere/", "No such file or directory"),
        "dotdot-after-missing": ("missing/../x.json", "No such file or directory"),
        "dotdot-after-file": ("plain/../x.json", "Not a directory"),
        "empty": ("", "No such file or directory: ''"),
    }

    @staticmethod
    def inputs(tmp_path):
        inputs = tmp_path / "inputs"
        inputs.mkdir()
        art, pair = inputs / "art.json", inputs / "pair.json"
        assert run_cli(["model", "chebyshev", "--n", "4", "-o", art]).rc == 0
        assert run_cli(["convert", "nlrpb2crypto", art, "-o", pair]).rc == 0
        return {"art": art, "pair": pair}

    @staticmethod
    def refuse(monkeypatch, *names):
        def fail(*args, **kwargs):
            raise AssertionError("computed for an unusable destination")

        for name in names:
            monkeypatch.setattr(f"nlrpb.cli.{name}", fail)
        monkeypatch.setattr(serialize, "dumps", fail)

    @staticmethod
    def assert_refused(tmp_path, argv, target, words):
        rc, _, err, _ = run_cli([*argv, "-o", target])
        assert rc == 3
        assert str(target) in err and words in err
        assert ".nlrpb-" not in err
        assert not [name for _, _, names in os.walk(tmp_path) for name in names if name.startswith(".nlrpb-")]

    @pytest.mark.parametrize("fault", FAULTS)
    @pytest.mark.parametrize("writer", WRITERS)
    def test_refused_before_computing(self, tmp_path, monkeypatch, writer, fault):
        if fault == "fifo" and not hasattr(os, "mkfifo"):
            pytest.skip("needs named pipes")
        paths = self.inputs(tmp_path)
        (tmp_path / "plain").write_text("")
        (tmp_path / "dir").mkdir()
        if fault == "fifo":
            os.mkfifo(tmp_path / "fifo")
        argv, computation = self.WRITERS[writer]
        target, words = self.FAULTS[fault]
        monkeypatch.chdir(tmp_path)
        self.refuse(monkeypatch, computation)
        self.assert_refused(tmp_path, [arg.format(**paths) for arg in argv], target, words)
        assert (tmp_path / "plain").read_text() == ""
        assert os.listdir(tmp_path / "dir") == []
        if fault == "fifo":
            assert stat.S_ISFIFO(os.stat(target).st_mode)

    def test_invalid_parameters_come_first(self, tmp_path, monkeypatch):
        self.refuse(monkeypatch, "chebyshev_model")
        rc, _, err, _ = run_cli(["model", "chebyshev", "--n", "1", "-o", tmp_path / "missing" / "x"])
        assert rc == 2
        assert err.startswith("error: chebyshev family: size")

    @pytest.mark.parametrize("direction, source", [("nlrpb2crypto", "art"), ("crypto2nlrpb", "pair")])
    def test_schema_errors_come_first(self, tmp_path, monkeypatch, direction, source):
        path = tmp_path / "truncated.json"
        path.write_text(self.inputs(tmp_path)[source].read_text()[:200])
        self.refuse(monkeypatch, "nlrpb_roundtrip", "crypto_roundtrip")
        rc, _, err, _ = run_cli(["convert", direction, path, "-o", tmp_path / "missing" / "x"])
        assert rc == 3
        assert err.startswith(f"error: {path}: not valid JSON")

    def test_invalid_system_comes_first(self, tmp_path, monkeypatch):
        paths = self.inputs(tmp_path)
        doc = json.loads(paths["art"].read_text())
        doc["system"]["phi"][0][1] += 1e-3  # broken biorthonormality
        path = tmp_path / "broken.json"
        path.write_text(json.dumps(doc))
        self.refuse(monkeypatch, "nlrpb_roundtrip")
        rc, _, err, _ = run_cli(["convert", "nlrpb2crypto", path, "-o", tmp_path / "missing" / "x"])
        assert rc == 2
        assert "biorthonormality" in err

    def test_destination_comes_before_the_numerics(self, tmp_path):
        # The numerics overflow (exit 2 without -o); the destination is judged first.
        argv = ["model", "two-param", "--beta=1e-300", "--delta=-1"]
        assert run_cli(argv).rc == 2
        self.assert_refused(tmp_path, argv, tmp_path / "missing" / "x", "No such file or directory")

    @pytest.mark.skipif(not hasattr(os, "symlink"), reason="needs symbolic links")
    def test_written_where_the_path_resolves(self, tmp_path, monkeypatch):
        # link/.. is real/, not the directory holding link
        (tmp_path / "real" / "sub").mkdir(parents=True)
        (tmp_path / "link").symlink_to(tmp_path / "real" / "sub")
        monkeypatch.chdir(tmp_path)
        dirs, real_open = [], os.open

        def open_(path, *args):  # records the directory of each temp file write_document creates
            if os.path.basename(path).startswith(".nlrpb-"):
                dirs.append(os.path.dirname(path))
            return real_open(path, *args)

        monkeypatch.setattr(serialize.os, "open", open_)
        argv = ["model", "chebyshev", "--n", "2", "-o"]
        assert run_cli([*argv, "expected.json"]).rc == 0
        assert run_cli([*argv, "link/../out.json"]).rc == 0
        assert dirs == [".", "link/.."]
        assert (tmp_path / "real" / "out.json").read_bytes() == (tmp_path / "expected.json").read_bytes()
        assert sorted(os.listdir(tmp_path)) == ["expected.json", "link", "real"]
        assert sorted(os.listdir(tmp_path / "real")) == ["out.json", "sub"]

    def test_failed_rename_names_the_target(self, tmp_path, monkeypatch):
        def replace(src, dst):
            raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), src, dst)

        monkeypatch.setattr(serialize.os, "replace", replace)
        self.assert_refused(tmp_path, ["model", "chebyshev", "--n", "2"], tmp_path / "out.json", "Permission denied")
        assert os.listdir(tmp_path) == []


class TestVerifyCommand:
    def make_artifact(self, tmp_path, n=4, fmt=2):
        path = tmp_path / "art.json"
        assert run_cli(["model", "chebyshev", "--n", str(n), "-o", path]).rc == 0
        if fmt == 1:
            path.write_text(json.dumps(as_format_1(json.loads(path.read_text()))))
        return path

    def test_clean_artifact_passes(self, tmp_path):
        doc = run_cli(["verify", self.make_artifact(tmp_path)]).doc
        assert doc["pass"] is True
        assert "eps_structure" in checks_by_name(doc)

    def test_corrupted_eps_fails_ladder_relations(self, tmp_path):
        path = self.make_artifact(tmp_path)
        art = json.loads(path.read_text())
        art["system"]["eps"][1] += 0.1
        path.write_text(json.dumps(art))
        rc, _, _, doc = run_cli(["verify", path])
        assert rc == 1
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
    def test_params_that_do_not_describe_the_system_fail(self, tmp_path, edit):
        path = self.make_artifact(tmp_path, n=5)
        art = json.loads(path.read_text())
        art.update(edit)
        path.write_text(json.dumps(art))
        rc, _, _, doc = run_cli(["verify", path])
        assert rc == 1
        checks = checks_by_name(doc)
        assert checks["stored_params"]["residual"] == 1.0
        assert all(c["pass"] for name, c in checks.items() if name != "stored_params")

    def test_two_param_artifact_params_pass(self, tmp_path):
        path = tmp_path / "tp.json"
        assert run_cli(["model", "two-param", "--beta", "0.4", "--delta=-2.2", "-o", path]).rc == 0
        rc, _, _, doc = run_cli(["verify", path])
        assert rc == 0
        assert checks_by_name(doc)["stored_params"]["residual"] == 0.0

    def test_bare_system_passes(self, tmp_path):
        path = tmp_path / "sys.json"
        serialize.write_document(path, serialize.system_to_dict(chebyshev_paper_normalization(3)))
        rc, _, _, doc = run_cli(["verify", path])
        assert rc == 0
        assert "p4_resolution_of_identity" in checks_by_name(doc)

    def test_single_level_system_passes(self, tmp_path):
        path = tmp_path / "sys.json"
        serialize.write_document(path, {"n": 1, "eps": [0.0], "phi": [[2.0]], "eta": [[0.5]]})
        rc, _, _, doc = run_cli(["verify", path])
        assert rc == 0
        assert checks_by_name(doc)["commutator_gaps"]["residual"] == 0.0

    def test_bad_ground_level_fails_structure_gate(self, tmp_path):
        doc_sys = serialize.system_to_dict(chebyshev_paper_normalization(3))
        doc_sys["eps"][0] = 0.5
        path = tmp_path / "sys.json"
        serialize.write_document(path, doc_sys)
        rc, _, _, doc = run_cli(["verify", path])
        assert rc == 1
        checks = checks_by_name(doc)
        assert checks["eps_structure"]["pass"] is False
        assert checks["eps_structure"]["tolerance"] == 0.0
        # data-level pairing still reported, ladder checks skipped
        assert "p3_biorthonormality" in checks
        assert "p3_ladder_relations" not in checks

    def test_pair_document(self, tmp_path):
        _, sys3 = chebyshev_model(3)
        path = tmp_path / "pair.json"
        serialize.write_document(path, serialize.crypto_to_dict(from_nlrpb(sys3)))
        rc, _, _, doc = run_cli(["verify", path])
        assert rc == 0
        checks = checks_by_name(doc)
        assert checks["cryptohermiticity"]["pass"] is True
        assert checks["metric_spd"]["pass"] is True
        assert checks["spectrum_min_gap"]["pass"] is True
        shifted = next(s for s in doc["sections"] if s["kind"] == "spectrum")
        assert np.abs(np.array(shifted["values"]) - sys3.eps).max() < 1e-10

    def test_pair_with_wrong_metric_fails(self, tmp_path):
        m, _ = chebyshev_model(3)
        path = tmp_path / "pair.json"
        serialize.write_document(path, serialize.crypto_to_dict(CryptoPair(m, np.eye(3))))
        rc, _, _, doc = run_cli(["verify", path])
        assert rc == 1
        checks = checks_by_name(doc)
        assert checks["cryptohermiticity"]["pass"] is False
        assert "spectrum_min_gap" not in checks

    def test_stored_metrics_read_zero_on_a_clean_artifact(self, tmp_path):
        rc, _, _, doc = run_cli(["verify", self.make_artifact(tmp_path, n=32, fmt=1)])
        assert rc == 0
        assert checks_by_name(doc)["stored_metrics"]["residual"] == 0.0

    @pytest.mark.parametrize("tamper", ["entries", "scaled"])
    def test_tampered_stored_metrics_fail(self, tmp_path, tamper):
        path = self.make_artifact(tmp_path, n=32, fmt=1)
        art = json.loads(path.read_text())
        s_phi = art["matrices"]["s_phi"]["data"]
        s_eta = art["matrices"]["s_eta"]["data"]
        if tamper == "entries":
            s_eta[0] += 1.0
            s_phi[5] = -7.0
        else:
            s_eta[:] = [v * (1.0 + 1e-6) for v in s_eta]
        path.write_text(json.dumps(art))
        rc, _, _, doc = run_cli(["verify", path])
        assert rc == 1
        checks = checks_by_name(doc)
        assert checks["stored_metrics"]["pass"] is False
        assert all(c["pass"] for name, c in checks.items() if name != "stored_metrics")

    def test_missing_file(self):
        assert run_cli(["verify", "/no/such/file.json"]).rc == 3

    def test_garbage_file(self, tmp_path):
        path = tmp_path / "garbage.json"
        path.write_text("certainly { not json")
        assert run_cli(["verify", path]).rc == 3

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
    def test_unparseable_input_is_parse_error(self, tmp_path, content):
        path = tmp_path / "bad.json"
        path.write_bytes(content)
        assert run_cli(["verify", path]).rc == 3

    def test_unrecognized_schema(self, tmp_path):
        path = tmp_path / "odd.json"
        path.write_text('{"foo": 1}')
        assert run_cli(["verify", path]).rc == 3

    def test_env_tolerance_loosens(self, tmp_path, monkeypatch):
        path = self.make_artifact(tmp_path)
        art = json.loads(path.read_text())
        art["system"]["eps"][1] += 0.1
        path.write_text(json.dumps(art))
        monkeypatch.setenv("NLRPB_TOL", "1.0")
        rc, _, _, doc = run_cli(["verify", path])
        assert rc == 0
        assert doc["tolerance"] == {"value": 1.0, "source": "env"}

    def test_flag_overrides_env(self, tmp_path, monkeypatch):
        path = self.make_artifact(tmp_path)
        art = json.loads(path.read_text())
        art["system"]["eps"][1] += 0.1
        path.write_text(json.dumps(art))
        monkeypatch.setenv("NLRPB_TOL", "1.0")
        rc, _, _, doc = run_cli(["verify", path, "--tol", "1e-10"])
        assert rc == 1
        assert doc["tolerance"] == {"value": 1e-10, "source": "flag"}

    def test_invalid_env_tolerance(self, tmp_path, monkeypatch):
        path = self.make_artifact(tmp_path)
        monkeypatch.setenv("NLRPB_TOL", "not-a-number")
        assert run_cli(["verify", path]).rc == 2

    def test_negative_flag_tolerance(self, tmp_path):
        assert run_cli(["verify", self.make_artifact(tmp_path), "--tol", "-1"]).rc == 2

    @pytest.mark.parametrize("raw", ["nan", "inf", "-1"])
    @pytest.mark.parametrize("source", ["--tol", "NLRPB_TOL"])
    def test_tolerance_must_be_nonnegative_finite(self, tmp_path, monkeypatch, source, raw):
        path = self.make_artifact(tmp_path)
        if source == "--tol":
            argv = ["verify", path, f"--tol={raw}"]
        else:
            monkeypatch.setenv("NLRPB_TOL", raw)
            argv = ["verify", path]
        rc, _, err, _ = run_cli(argv)
        assert rc == 2
        assert err.startswith(f"error: {source} must be a nonnegative finite number, got ")


class TestConvertCommand:
    def test_system_to_pair_golden_metric(self, tmp_path):
        src = tmp_path / "sys.json"
        dst = tmp_path / "pair.json"
        serialize.write_document(src, serialize.system_to_dict(chebyshev_paper_normalization(2)))
        rc, _, _, doc = run_cli(["convert", "nlrpb2crypto", src, "-o", dst])
        assert rc == 0
        pair = serialize.crypto_from_dict(serialize.load_document(dst))
        s2 = math.sqrt(2.0)
        ref = np.array([[3.0, -s2], [-s2, 6.0]]) / 4.0
        assert np.abs(pair.theta - ref).max() < 1e-12
        checks = checks_by_name(doc)
        assert checks["eps_roundtrip"]["pass"] is True
        assert checks["eigenline_cosines"]["pass"] is True

    def test_pair_to_system_identity_metric(self, tmp_path):
        s3 = math.sqrt(3.0)
        h_ref = np.array([[s3, math.sqrt(2.0), 0.0], [math.sqrt(2.0), s3, 1.0], [0.0, 1.0, s3]])
        src = tmp_path / "pair.json"
        dst = tmp_path / "sys.json"
        serialize.write_document(src, serialize.crypto_to_dict(CryptoPair(h_ref, np.eye(3))))
        assert run_cli(["convert", "crypto2nlrpb", src, "-o", dst]).rc == 0
        out = serialize.system_from_dict(serialize.load_document(dst))
        assert np.abs(out.phi - out.eta).max() < 1e-13
        assert np.abs(out.eps - [0.0, s3, 2.0 * s3]).max() < 1e-12

    def test_full_roundtrip_chebyshev_n4(self, tmp_path):
        art = tmp_path / "art.json"
        pair = tmp_path / "pair.json"
        back = tmp_path / "back.json"
        assert run_cli(["model", "chebyshev", "--n", "4", "-o", art]).rc == 0
        assert run_cli(["convert", "nlrpb2crypto", art, "-o", pair]).rc == 0
        rc, _, _, doc = run_cli(["convert", "crypto2nlrpb", pair, "-o", back])
        assert rc == 0
        checks = checks_by_name(doc)
        assert checks["h_roundtrip"]["pass"] is True
        assert checks["theta_roundtrip"]["pass"] is True
        _, sys4 = chebyshev_model(4)
        out = serialize.system_from_dict(serialize.load_document(back))
        assert np.abs(out.eps - sys4.eps).max() < 1e-9

    def test_chain_chebyshev_n32(self, tmp_path):
        # N = 32: the Chebyshev rows' memory layout sets the bases' last bits here
        art, pair, back = (tmp_path / f"{name}.json" for name in ("art", "pair", "back"))
        for argv in (
            ["model", "chebyshev", "--n", "32", "-o", art],
            ["verify", art],
            ["convert", "nlrpb2crypto", art, "-o", pair],
            ["verify", pair],
            ["convert", "crypto2nlrpb", pair, "-o", back],
            ["verify", back],
        ):
            assert run_cli(argv).rc == 0, argv

    def test_artifact_accepted_directly(self, tmp_path):
        art = tmp_path / "art.json"
        assert run_cli(["model", "two-param", "--beta", "1.5", "--delta", "-0.5", "-o", art]).rc == 0
        assert run_cli(["convert", "nlrpb2crypto", art]).rc == 0

    def test_wrong_kind_for_direction(self, tmp_path):
        pair_path = tmp_path / "pair.json"
        serialize.write_document(pair_path, serialize.crypto_to_dict(CryptoPair(np.eye(2), np.eye(2))))
        assert run_cli(["convert", "nlrpb2crypto", pair_path]).rc == 3
        sys_path = tmp_path / "sys.json"
        serialize.write_document(sys_path, serialize.system_to_dict(chebyshev_paper_normalization(2)))
        assert run_cli(["convert", "crypto2nlrpb", sys_path]).rc == 3

    def test_semantically_broken_system_is_invalid(self, tmp_path):
        doc = {
            "n": 2,
            "eps": [0.0, 1.0],
            "phi": [[1.0, 0.0], [1.0, 1.0]],
            "eta": [[1.0, 0.0], [0.0, 1.0]],
        }
        path = tmp_path / "broken.json"
        serialize.write_document(path, doc)
        assert run_cli(["convert", "nlrpb2crypto", path]).rc == 2

    def test_degenerate_pair_is_invalid(self, tmp_path):
        path = tmp_path / "degenerate.json"
        serialize.write_document(path, serialize.crypto_to_dict(CryptoPair(np.eye(2), np.eye(2))))
        assert run_cli(["convert", "crypto2nlrpb", path]).rc == 2

    def test_env_tolerance_reaches_roundtrip(self, tmp_path, monkeypatch):
        art = tmp_path / "art.json"
        pair = tmp_path / "pair.json"
        assert run_cli(["model", "chebyshev", "--n", "5", "-o", art]).rc == 0
        monkeypatch.setenv("NLRPB_TOL", "1e-3")
        for argv in (["nlrpb2crypto", art, "-o", pair], ["crypto2nlrpb", pair]):
            rc, _, _, doc = run_cli(["convert", *argv])
            assert rc == 0
            assert doc["tolerance"] == {"value": 1e-3, "source": "env"}
            (section,) = [s for s in doc["sections"] if s["kind"] == "checks"]
            assert section["title"] == "roundtrip"
            assert [c["tolerance"] for c in section["checks"]] == [1e-3, 1e-3]

    def test_env_tolerance_reaches_both_gates(self, tmp_path, monkeypatch):
        # phi = G, eta = G^-T with cond(G) = 3e4, exact to rounding: at NLRPB_TOL=1e-4 verify
        # passes the system and its pair, but the pairs that the conversions build leave
        # cryptohermiticity residuals above the default 1e-10 (4.0e-10 forward, 1.3e-9 back)
        r = np.random.default_rng(0)
        u, v = (np.linalg.qr(r.standard_normal((8, 8)))[0] for _ in range(2))
        g = (u * np.logspace(0, math.log10(3e4), 8)) @ v.T
        src, pair = tmp_path / "sys.json", tmp_path / "pair.json"
        serialize.write_document(src, serialize.system_to_dict(build_system(g, np.linalg.inv(g).T, np.arange(8.0), 1e-6)))
        monkeypatch.setenv("NLRPB_TOL", "1e-4")
        for argv in (
            ["verify", src],
            ["convert", "nlrpb2crypto", src, "-o", pair],
            ["verify", pair],
            ["convert", "crypto2nlrpb", pair],
        ):
            assert run_cli(argv).rc == 0, argv


class TestGapBoundary:
    """verify, convert and the builders apply one rule: a gap of MIN_EPS_GAP is admissible."""

    @pytest.mark.parametrize(
        "gap, admissible",
        [(MIN_EPS_GAP, True), (float(np.nextafter(MIN_EPS_GAP, 0.0)), False), (0.5 * MIN_EPS_GAP, False)],
        ids=["at-min-gap", "one-ulp-below", "half-min-gap"],
    )
    def test_all_paths_agree(self, tmp_path, gap, admissible):
        eye = np.eye(2)
        path = tmp_path / "sys.json"
        serialize.write_document(path, {"n": 2, "eps": [0.0, gap], "phi": eye.tolist(), "eta": eye.tolist()})
        pair_path = tmp_path / "pair.json"
        serialize.write_document(pair_path, serialize.crypto_to_dict(CryptoPair(np.diag([0.0, gap]), eye)))
        verify_rc = run_cli(["verify", path]).rc
        convert_rc = run_cli(["convert", "nlrpb2crypto", path]).rc
        verify_pair_rc = run_cli(["verify", pair_path]).rc
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


class TestEdgeDocuments:
    """Documents at the edges of the decoder and of the gates, each with its
    exit code and, for exits 2 and 3, its one error line.  Edits of a chain
    start from the Chebyshev N=8 artifact and the pair nlrpb2crypto writes."""

    @pytest.fixture
    def chain(self, tmp_path):
        art, pair = tmp_path / "art.json", tmp_path / "pair.json"
        assert run_cli(["model", "chebyshev", "--n", "8", "-o", art]).rc == 0
        assert run_cli(["convert", "nlrpb2crypto", art, "-o", pair]).rc == 0
        return json.loads(art.read_text()), json.loads(pair.read_text())

    @staticmethod
    def run(tmp_path, doc, *argv):
        """(exit code, stderr) of ``argv`` with ``doc`` written to the input path."""
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        rc, _, err, _ = run_cli([arg if arg != "DOC" else path for arg in argv])
        return rc, err

    @pytest.mark.parametrize(
        "doc",
        [
            {"n": 2, "eps": [0, 1], "phi": [[1, 0], [0, 1]], "eta": [[1, 0], [0, 1]]},
            {"h_matrix": {"rows": 2, "cols": 2, "data": [1, 0, 0, 2]}, "theta": {"rows": 2, "cols": 2, "data": [1, 0, 0, 1]}},
        ],
        ids=["system", "pair"],
    )
    def test_json_integers_are_decoded(self, tmp_path, doc):
        # no list starts with a float, so each takes the entry-by-entry walk
        assert self.run(tmp_path, doc, "verify", "DOC") == (0, "")

    @pytest.mark.parametrize("key", ["h_matrix", "theta"])
    def test_a_bool_among_floats_is_named(self, tmp_path, key):
        doc = {"h_matrix": serialize.matrix_to_dict(np.eye(2)), "theta": serialize.matrix_to_dict(np.eye(2))}
        doc[key] = {"rows": 2, "cols": 2, "data": [1.0, True, 0.0, 2.0]}
        assert self.run(tmp_path, doc, "verify", "DOC") == (3, f"error: {key}: data[1] must be a number\n")

    def test_eps_starting_with_an_integer(self, tmp_path, chain):
        system = chain[0]["system"]
        system["eps"][0] = 0
        assert self.run(tmp_path, system, "verify", "DOC") == (0, "")
        out = tmp_path / "pair.json"
        assert self.run(tmp_path, system, "convert", "nlrpb2crypto", "DOC", "-o", out) == (0, "")

    def test_theta_symmetric_only_within_tolerance(self, tmp_path, chain):
        # theta[0][1] moved by 1e-14: the eigensolvers' symmetry rule takes its
        # symmetrizing branch, and both roots of the conversion run on that theta
        pair = chain[1]
        pair["theta"]["data"][1] += 1e-14
        back = tmp_path / "back.json"
        assert self.run(tmp_path, pair, "verify", "DOC") == (0, "")
        assert self.run(tmp_path, pair, "convert", "crypto2nlrpb", "DOC", "-o", back) == (0, "")
        assert run_cli(["verify", back]).rc == 0

    def test_wrong_metric_is_not_converted(self, tmp_path, chain):
        # (H, I): the wrong metric for a non-symmetric H
        pair = dict(chain[1], theta=serialize.matrix_to_dict(np.eye(8)))
        rc, err = self.run(tmp_path, pair, "convert", "crypto2nlrpb", "DOC")
        assert rc == 2
        assert err.startswith("error: hermitize: pair is not cryptohermitian (cryptohermiticity residual ")

    def test_identity_pair_has_a_degenerate_spectrum(self, tmp_path):
        # (I, I) at N = 4 passes the metric checks, so the roots' solve and h's solve
        # run before spectrum_min_gap rejects the spectrum
        pair = {"h_matrix": serialize.matrix_to_dict(np.eye(4)), "theta": serialize.matrix_to_dict(np.eye(4))}
        rc, err = self.run(tmp_path, pair, "convert", "crypto2nlrpb", "DOC")
        assert rc == 2
        assert err.startswith("error: hermitize: degenerate spectrum, an eigenvalue gap below 1e-10 ")
        assert self.run(tmp_path, pair, "verify", "DOC") == (1, "")

    def test_zero_rule_gates_ignore_a_loose_tolerance(self, tmp_path, monkeypatch):
        # eps[2] = eps[1] still fails eps_structure, and S_eta = diag(1e-300, 1)
        # past the SPD gate still fails metric_spd, at NLRPB_TOL=1
        monkeypatch.setenv("NLRPB_TOL", "1")
        degenerate = {"n": 3, "eps": [0.0, 1.0, 1.0], "phi": np.eye(3).tolist(), "eta": np.eye(3).tolist()}
        assert self.run(tmp_path, degenerate, "verify", "DOC") == (1, "")
        ill_conditioned = {"n": 2, "eps": [0.0, 1.0], "phi": [[1e150, 0.0], [0.0, 1.0]], "eta": [[1e-150, 0.0], [0.0, 1.0]]}
        assert self.run(tmp_path, ill_conditioned, "convert", "nlrpb2crypto", "DOC") == (
            2,
            "error: from_nlrpb: S_eta is not positive definite within the SPD gate (1e-12) "
            "(metric_spd residual 1.000e-12 > 0)\n",
        )


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
    def test_overflow_is_invalid(self, tmp_path, argv):
        # ||H||_F is about 1.97e308, beyond the float64 range
        pair = tmp_path / "pair.json"
        serialize.write_document(pair, serialize.crypto_to_dict(CryptoPair([[1e308, 1.0], [1.0, 1.7e308]], np.eye(2))))
        assert run_cli([pair if arg == "pair" else arg for arg in argv]).rc == 2

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
    def test_overflowing_relative_residual_is_invalid(self, tmp_path, doc):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        assert run_cli(["verify", path]).rc == 2

    def test_unrepresentable_condition_number_is_null(self):
        # lambda_max / lambda_min of S_eta is 1e320; every check is computable and three fail
        rc, _, _, doc = run_cli(["model", "two-param", "--beta=1e-160", "--delta=-1e-160"])
        assert rc == 1
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
        assert _metric_scalars(np.linalg.eigvalsh(s_eta))["values"]["condition_number"] == cond

    def test_large_representable_pair_is_valid(self, tmp_path):
        # The sums of squares overflow; the norms (about 2.2e200) and every residual do not.
        pair, system = tmp_path / "pair.json", tmp_path / "system.json"
        serialize.write_document(pair, serialize.crypto_to_dict(CryptoPair([[1e200, 1.0], [1.0, 2e200]], np.eye(2))))
        assert run_cli(["verify", pair]).rc == 0
        assert run_cli(["convert", "crypto2nlrpb", pair, "-o", system]).rc == 0
        assert run_cli(["verify", system]).rc == 0
        assert run_cli(["convert", "nlrpb2crypto", system]).rc == 0

    def test_ill_conditioned_metric_is_named(self, tmp_path):
        # A valid system whose S_eta = diag(1e-300, 1) is past the SPD gate;
        # the pair's cryptohermiticity residual is 0.
        system = tmp_path / "system.json"
        sys = build_system(np.diag([1e150, 1.0]), np.diag([1e-150, 1.0]), [0.0, 1.0])
        serialize.write_document(system, serialize.system_to_dict(sys))
        rc, _, err, _ = run_cli(["convert", "nlrpb2crypto", system])
        assert (rc, err) == (
            2,
            "error: from_nlrpb: S_eta is not positive definite within the SPD gate (1e-12) "
            "(metric_spd residual 1.000e-12 > 0)\n",
        )

    @pytest.mark.parametrize("sign, rc", [(1.0, 0), (-1.0, 1)])
    def test_metric_near_the_float64_range(self, tmp_path, sign, rc):
        # Theta + Theta^T overflows; the verdict comes from Theta's symmetric part.
        pair = tmp_path / "pair.json"
        theta = np.diag([sign * 1e308, sign * 5e307])
        serialize.write_document(pair, serialize.crypto_to_dict(CryptoPair(np.diag([0.25, 0.5]), theta)))
        result = run_cli(["verify", pair])
        assert result.rc == rc
        checks = checks_by_name(result.doc)
        assert checks["metric_spd"]["pass"] == (sign > 0.0)
        assert checks["cryptohermiticity"]["pass"]

    @settings(deadline=None, max_examples=300)
    @given(st.floats(allow_nan=False, allow_infinity=False), st.floats(allow_nan=False, allow_infinity=False))
    def test_two_param_exit_is_honest_for_every_double(self, beta, delta):
        assert run_cli(["model", "two-param", f"--beta={beta!r}", f"--delta={delta!r}"]).rc in (0, 1, 2)


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
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "artifact.json")
        for argv in _MODEL_ARGVS:
            assert run_cli(argv + ["-o", path]).rc == 0
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


def _verify_doc(doc: dict):
    """``run_cli`` of ``verify`` on a file holding ``doc``."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "doc.json")
        with open(path, "w") as fh:
            json.dump(doc, fh)
        return run_cli(["verify", path])


_FORMATS = pytest.mark.parametrize("fmt", [1, 2], ids=["format-1", "format-2"])


class TestVerifyContract:
    """Artifacts edited in one entry get an honest exit, which ``run_cli``
    asserts: 0 or 1 with a report whose "pass" agrees, or 2 or 3 with one
    error line; never a traceback.  Each test runs on format-1 artifacts and
    on their format-2 twins."""

    artifact = st.integers(0, 7)
    index = st.integers(0, 10**6)
    # Format 2 stores no frame operators, so its twins draw the other blocks.
    entries = {1: st.tuples(st.sampled_from(_BLOCKS), index), 2: st.tuples(st.sampled_from(_BLOCKS[:-2]), index)}
    mutation = st.one_of(
        st.tuples(st.just("perturb"), st.floats(allow_nan=False, allow_infinity=False)),
        st.tuples(st.just("scale"), st.floats(-1.0, 1.0)),
        st.tuples(st.sampled_from(["delete", "reshape"]), st.none()),
    )

    @_FORMATS
    @settings(deadline=None, max_examples=80)
    @given(artifact=artifact, mutation=mutation, data=st.data())
    def test_every_exit_is_honest(self, fmt, artifact, mutation, data):
        doc = copy.deepcopy(_model_artifacts(fmt)[artifact])
        holder, i, biggest = _entry(doc, *data.draw(self.entries[fmt]))
        action, value = mutation
        if action == "perturb":
            holder[i] = value
        elif action == "scale":
            holder[i] += value * biggest
        elif action == "delete":
            del holder[i]
        else:
            holder[i] = [holder[i]]
        _verify_doc(doc)

    @_FORMATS
    @settings(deadline=None, max_examples=50)
    @given(artifact=artifact, sign=st.sampled_from([-1.0, 1.0]), data=st.data())
    def test_block_relative_edit_fails(self, fmt, artifact, sign, data):
        doc = copy.deepcopy(_model_artifacts(fmt)[artifact])
        holder, i, biggest = _entry(doc, *data.draw(self.entries[fmt]))
        holder[i] += sign * 1e-6 * biggest
        assert _verify_doc(doc).rc == 1


_MODEL_IDS = ["-".join(argv[1:2] + argv[3::2]) for argv in _MODEL_ARGVS]


class TestArtifactFormats:
    """A format-2 artifact and its format-1 twin get one verdict; the reader
    takes ``"format": 2`` or no format key (format 1), and nothing else."""

    @pytest.mark.parametrize("index", range(len(_MODEL_ARGVS)), ids=_MODEL_IDS)
    def test_verify_gives_the_same_report(self, index):
        (rc1, _, _, v1), (rc2, _, _, v2) = (_verify_doc(_model_artifacts(fmt)[index]) for fmt in (1, 2))
        assert (rc1, rc2) == (0, 0)
        del v1["timestamp"], v2["timestamp"]
        axioms = next(sec for sec in v1["sections"] if sec["title"] == "axioms")
        stored = next(c for c in axioms["checks"] if c["name"] == "stored_metrics")
        assert (stored["residual"], stored["pass"]) == (0.0, True)
        axioms["checks"].remove(stored)
        assert v1 == v2

    @pytest.mark.parametrize("index", range(len(_MODEL_ARGVS)), ids=_MODEL_IDS)
    def test_convert_writes_the_same_pair(self, tmp_path, index):
        results = []
        for fmt in (1, 2):
            src, dst = tmp_path / f"art{fmt}.json", tmp_path / f"pair{fmt}.json"
            src.write_text(json.dumps(_model_artifacts(fmt)[index]))
            rc, _, _, doc = run_cli(["convert", "nlrpb2crypto", src, "-o", dst])
            assert rc == 0
            del doc["timestamp"]
            results.append((doc, dst.read_bytes()))
        assert results[0] == results[1]

    @pytest.mark.parametrize("fmt, block", [(2, "m"), (2, "a"), (2, "b"), (1, "m"), (1, "s_phi"), (1, "s_eta")])
    def test_missing_block_is_a_schema_error(self, fmt, block):
        doc = copy.deepcopy(_model_artifacts(fmt)[0])
        del doc["matrices"][block]
        rc, _, err, _ = _verify_doc(doc)
        assert (rc, err) == (3, f"error: matrices must include {block!r}\n")

    @pytest.mark.parametrize(
        "key, edit, message",
        [
            ("x", lambda block: 5, "matrix document must be an object"),
            ("m", lambda block: {**block, "data": ["0", *block["data"][1:]]}, "data[0] must be a number"),
        ],
        ids=["extra-key", "broken-m"],
    )
    def test_matrix_decode_error_names_its_key(self, key, edit, message):
        doc = copy.deepcopy(_model_artifacts()[0])
        doc["matrices"][key] = edit(doc["matrices"].get(key))
        rc, _, err, _ = _verify_doc(doc)
        assert (rc, err) == (3, f"error: matrices[{key!r}]: {message}\n")

    @pytest.mark.parametrize("value", [3, True, 2.0, "2", 1, None, [2]], ids=repr)
    def test_any_other_format_is_a_schema_error(self, value):
        doc = copy.deepcopy(_model_artifacts()[0])
        doc["format"] = value
        rc, _, err, _ = _verify_doc(doc)
        assert (rc, err) == (3, f"error: artifact format must be 2, or absent for format 1, not {value!r}\n")

    @pytest.mark.parametrize("keys", [("s_phi",), ("s_eta",), ("s_phi", "s_eta")], ids="+".join)
    def test_format_2_refuses_frame_operators(self, keys):
        doc = copy.deepcopy(_model_artifacts()[3])
        stored = as_format_1(doc)["matrices"]
        doc["matrices"].update({key: stored[key] for key in keys})
        rc, _, err, _ = _verify_doc(doc)
        assert (rc, err) == (3, f"error: format-2 matrices must not include {keys[0]!r}\n")


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
    def inputs(self, tmp_path):
        paths = {"artifact": tmp_path / "art.json"}
        assert run_cli(["model", "chebyshev", "--n", "5", "-o", paths["artifact"]]).rc == 0
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
    def test_check_set(self, inputs, argv, expected):
        assert self.check_sets(run_cli([inputs.get(arg, arg) for arg in argv]).doc) == expected


class TestEigensolveRouting:
    """Each command's (values-only, vector) eigensolve counts: checks that read
    only eigenvalues call ``numpy.linalg.eigvalsh``, the rest ``eigh``.  Each
    metric is factorized once per command: a system's S_phi and S_eta once
    each, a pair's Theta by one values solve for its checks and one vector
    solve for both roots, plus the solve of h.  The benchmark's
    ``BASELINE_EIGENSOLVES`` (3/2/2/4/7/11) still holds the counts from
    before that change, until the benchmark is re-baselined."""

    def test_counts_per_command(self, tmp_path, eigensolves):
        art, pair, system = (tmp_path / f"{name}.json" for name in ("art", "pair", "system"))
        chain = [
            ("model", ["model", "chebyshev", "--n", "8", "-o", art], (2, 0)),
            ("verify artifact", ["verify", art], (2, 0)),
            ("nlrpb2crypto", ["convert", "nlrpb2crypto", art, "-o", pair], (1, 2)),
            ("verify pair", ["verify", pair], (1, 2)),
            ("crypto2nlrpb", ["convert", "crypto2nlrpb", pair, "-o", system], (2, 2)),
            ("verify system", ["verify", system], (2, 0)),
            ("paper-tables n2", ["paper-tables", "n2"], (0, 1)),
            ("paper-tables n3", ["paper-tables", "n3"], (1, 2)),
        ]
        seen = {}
        for name, argv, _ in chain:
            eigensolves.clear()
            assert run_cli(argv).rc == 0, name
            solves = [solve for solve, _ in eigensolves]
            seen[name] = (solves.count("eigvalsh"), solves.count("eigh"))
        assert seen == {name: split for name, _, split in chain}


class TestOneStructureMeasurement:
    """``model`` measures its system's eps and biorthonormality once: ``build_system``'s
    gate and the report's ``system_checks`` judge the same cached residuals."""

    def test_model_measures_structure_once(self, monkeypatch):
        measured, scans = [], []
        measure = BiorthogonalSystem.__dict__["_structure"].func
        counting = functools.cached_property(lambda sys: measured.append(sys) or measure(sys))
        counting.__set_name__(BiorthogonalSystem, "_structure")
        monkeypatch.setattr(BiorthogonalSystem, "_structure", counting)
        gap_deficit = pseudoboson.gap_deficit
        monkeypatch.setattr(pseudoboson, "gap_deficit", lambda values: scans.append(values) or gap_deficit(values))
        assert run_cli(["model", "chebyshev", "--n", "8"]).rc == 0
        assert len(measured) == 1
        assert len(scans) == 1


class TestJsonOutput:
    """Written documents and JSON reports are exactly json.dumps(..., indent=2) text."""

    def test_artifact_file_and_convert_report(self, tmp_path, assert_same_lines):
        art = tmp_path / "art.json"
        assert run_cli(["model", "chebyshev", "--n", "32", "-o", art]).rc == 0
        text = art.read_text()
        assert_same_lines(text, json.dumps(json.loads(text), indent=2) + "\n")
        rc, text, _, doc = run_cli(["convert", "nlrpb2crypto", art])
        assert rc == 0
        assert_same_lines(text, json.dumps(doc, indent=2) + "\n")


class TestPaperTablesCommand:
    @pytest.mark.parametrize("table", ["n2", "n3", "n4", "n5", "two-param"])
    def test_all_tables_pass(self, table):
        doc = run_cli(["paper-tables", table]).doc
        assert doc["pass"] is True
        for sec in doc["sections"]:
            if sec["kind"] == "comparison":
                for row in sec["rows"]:
                    assert row["deviation"] < 1e-8

    def test_markdown_format(self):
        rc, out, _, _ = run_cli(["paper-tables", "n2", "--format", "md"])
        assert rc == 0
        assert out.startswith("# nlrpb paper-tables n2")
        assert "| check | residual | tolerance | pass |" in out
        assert "\n- tolerance: null (source: default)\n" in out

    def test_csv_format(self):
        rc, out, _, _ = run_cli(["paper-tables", "n3", "--format", "csv"])
        assert rc == 0
        lines = out.strip().splitlines()
        assert lines[0] == "section,check,residual,tolerance,pass"
        assert all(line.endswith(",true") for line in lines[1:])

    @pytest.mark.parametrize("fmt", ["md", "csv"])
    @pytest.mark.parametrize("table", ["n2", "n3", "n4", "n5", "two-param"])
    def test_every_table_renders_as_text(self, table, fmt):
        rc, out, _, _ = run_cli(["paper-tables", table, "--format", fmt])
        assert rc == 0 and out

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
    def test_layout(self, table):
        """Section kinds and titles in order, and each golden check's tolerance; no float text."""
        doc = run_cli(["paper-tables", table]).doc
        sections = [(sec["kind"], sec["title"]) for sec in doc["sections"]]
        checks = [(c["name"], c["tolerance"]) for sec in doc["sections"] if sec["kind"] == "checks" for c in sec["checks"]]
        assert (sections, checks) == self.LAYOUT[table]

    @pytest.mark.parametrize("env", ["junk", "1e-3"])
    def test_env_tolerance_is_not_read(self, monkeypatch, env):
        def n5_markdown():  # the timestamp, in whole seconds, may tick between two runs
            rc, out, _, _ = run_cli(["paper-tables", "n5", "--format", "md"])
            return rc, re.sub(r"- timestamp: \S+", "TIMESTAMP", out)

        expected = n5_markdown()
        monkeypatch.setenv("NLRPB_TOL", env)
        rc, _, _, doc = run_cli(["paper-tables", "n4"])
        assert rc == 0
        assert doc["tolerance"] == {"value": None, "source": "default"}
        assert n5_markdown() == expected


class TestParserBasics:
    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "model" in capsys.readouterr().out

    def test_no_command_is_error(self, capsys):
        assert main([]) == 2

    def test_unknown_command_is_error(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_unknown_family_is_parser_error(self, capsys):
        assert main(["model", "hydrogen"]) == 2

    def test_unknown_table_rejected(self, capsys):
        assert main(["paper-tables", "n9"]) == 2

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

    def test_main_builds_no_parser(self, tmp_path, monkeypatch):
        argvs = self.command_per_subcommand(tmp_path)

        def refuse():
            raise AssertionError("main must reuse the parser built at import")

        monkeypatch.setattr("nlrpb.cli.build_parser", refuse)
        for argv in argvs:
            assert run_cli(argv).rc == 0, argv
        assert run_cli(["model", "chebyshev"]).rc == 2
        assert run_cli(["verify", tmp_path / "missing.json"]).rc == 3

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

    def test_timestamp_is_utc(self):
        doc = run_cli(["paper-tables", "n4"]).doc
        assert doc["timestamp"].endswith("+00:00")
