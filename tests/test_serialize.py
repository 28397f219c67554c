import dataclasses
import datetime
import json
import math
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nlrpb import serialize
from nlrpb.cli import main
from nlrpb.cryptoherm import CryptoPair, from_nlrpb
from nlrpb.errors import SchemaError
from nlrpb.models import chebyshev_model, chebyshev_paper_normalization
from nlrpb.pseudoboson import build_ladders, build_metrics, rescale


# An entry that is not a finite number, and the end of the message naming it.
BAD_ENTRIES = [
    pytest.param(True, "a number", id="bool"),
    pytest.param("1.5", "a number", id="str"),
    pytest.param(None, "a number", id="null"),
    pytest.param([1.0], "a number", id="list"),
    pytest.param(10**400, "finite", id="int-beyond-float"),
]


class TestMatrixCodec:
    def test_roundtrip(self):
        mat = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
        doc = serialize.matrix_to_dict(mat)
        assert doc == {"rows": 3, "cols": 2, "data": [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]}
        assert np.array_equal(serialize.matrix_from_dict(doc), mat)

    def test_row_major_layout(self):
        doc = serialize.matrix_to_dict(np.array([[1.0, 2.0], [3.0, 4.0]]))
        assert doc["data"] == [1.0, 2.0, 3.0, 4.0]

    def test_missing_key(self):
        with pytest.raises(SchemaError):
            serialize.matrix_from_dict({"rows": 2, "cols": 2})

    def test_wrong_data_length(self):
        with pytest.raises(SchemaError):
            serialize.matrix_from_dict({"rows": 2, "cols": 2, "data": [1.0, 2.0]})

    def test_non_numeric_entry(self):
        with pytest.raises(SchemaError):
            serialize.matrix_from_dict({"rows": 1, "cols": 1, "data": ["x"]})

    def test_bool_is_not_a_number(self):
        with pytest.raises(SchemaError):
            serialize.matrix_from_dict({"rows": 1, "cols": 1, "data": [True]})

    @pytest.mark.parametrize("bad, message", BAD_ENTRIES)
    def test_bad_entry_names_its_index(self, bad, message):
        data = [1.0, 2, 3.5, bad, 5.0, 6.0]
        with pytest.raises(SchemaError, match=rf"^data\[3\] must be {message}$"):
            serialize.matrix_from_dict({"rows": 2, "cols": 3, "data": data})

    def test_numpy_floats_accepted(self):
        data = [np.float64(1.5), 2.0, np.float64(-0.25), 4]
        mat = serialize.matrix_from_dict({"rows": 2, "cols": 2, "data": data})
        assert mat.dtype == np.float64
        assert np.array_equal(mat, [[1.5, 2.0], [-0.25, 4.0]])

    def test_bulk_check_matches_entrywise_conversion(self):
        data = [0, -1, 2**53 + 1, 2**63 + 1, -(2**64), 10**300, 5e-324, -0.0, 1e16]
        mat = serialize.matrix_from_dict({"rows": 1, "cols": len(data), "data": data})
        assert mat.ravel().tolist() == [float(v) for v in data]
        assert math.copysign(1.0, mat[0, 7]) == -1.0

    def test_bad_row_count(self):
        with pytest.raises(SchemaError):
            serialize.matrix_from_dict({"rows": 0, "cols": 1, "data": []})

    def test_nan_rejected_on_write(self):
        with pytest.raises(SchemaError):
            serialize.matrix_to_dict(np.array([[float("nan")]]))


class TestSystemCodec:
    def test_roundtrip(self):
        sys = chebyshev_paper_normalization(3)
        doc = serialize.system_to_dict(sys)
        assert set(doc) == {"n", "eps", "phi", "eta"}
        back = serialize.system_from_dict(doc)
        assert back.n == 3
        assert np.array_equal(back.eps, sys.eps)
        assert np.array_equal(back.phi, sys.phi)
        assert np.array_equal(back.eta, sys.eta)

    def test_eps_length_mismatch(self):
        doc = serialize.system_to_dict(chebyshev_paper_normalization(2))
        doc["eps"] = [0.0]
        with pytest.raises(SchemaError):
            serialize.system_from_dict(doc)

    def test_ragged_rows(self):
        doc = serialize.system_to_dict(chebyshev_paper_normalization(2))
        doc["phi"][0] = [1.0]
        with pytest.raises(SchemaError):
            serialize.system_from_dict(doc)

    @pytest.mark.parametrize("bad, message", BAD_ENTRIES)
    def test_bad_row_entry_names_its_index(self, bad, message):
        doc = serialize.system_to_dict(chebyshev_paper_normalization(3))
        doc["eta"][2][1] = bad
        with pytest.raises(SchemaError, match=rf"^eta\[2\]\[1\] must be {message}$"):
            serialize.system_from_dict(doc)

    def test_malformed_row_deep_in_phi_names_its_index(self, tmp_path):
        _, sys = chebyshev_model(40)
        doc = serialize.system_to_dict(sys)
        doc["phi"][37][29] = "0.5"
        path = tmp_path / "sys.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(SchemaError, match=r"^phi\[37\]\[29\] must be a number$"):
            serialize.system_from_dict(serialize.load_document(path))

    @pytest.mark.parametrize(
        "row, message",
        [([1.0, 2.0], r"phi\[1\] must have 3 entries"), ((1.0, 2.0, 3.0), r"phi\[1\] must be a list")],
        ids=["short-row", "tuple-row"],
    )
    def test_bad_row_shape_names_its_index(self, row, message):
        doc = serialize.system_to_dict(chebyshev_paper_normalization(3))
        doc["phi"][1] = row
        with pytest.raises(SchemaError, match=rf"^{message}$"):
            serialize.system_from_dict(doc)

    def test_numpy_float_rows_accepted(self):
        sys = chebyshev_paper_normalization(2)
        doc = serialize.system_to_dict(sys)
        doc["phi"] = [list(row) for row in sys.phi]
        assert np.array_equal(serialize.system_from_dict(doc).phi, sys.phi)

    def test_non_dict(self):
        with pytest.raises(SchemaError):
            serialize.system_from_dict([1, 2, 3])


class TestCryptoCodec:
    def test_roundtrip(self):
        _, sys = chebyshev_model(3)
        pair = from_nlrpb(sys)
        back = serialize.crypto_from_dict(serialize.crypto_to_dict(pair))
        assert np.array_equal(back.h_matrix, pair.h_matrix)
        assert np.array_equal(back.theta, pair.theta)

    def test_shape_mismatch(self):
        doc = {
            "h_matrix": serialize.matrix_to_dict(np.eye(2)),
            "theta": serialize.matrix_to_dict(np.eye(3)),
        }
        with pytest.raises(SchemaError):
            serialize.crypto_from_dict(doc)


class TestArtifactCodec:
    def make_artifact(self, fmt=2):
        m, sys = chebyshev_model(3)
        lad = build_ladders(sys)
        doc = serialize.model_artifact_to_dict("chebyshev", {"n": 3}, sys, {"m": m, "a": lad.a, "b": lad.b})
        if fmt == 1:
            met = build_metrics(sys)
            del doc["format"]
            doc["matrices"].update(s_phi=serialize.matrix_to_dict(met.s_phi), s_eta=serialize.matrix_to_dict(met.s_eta))
        return doc

    def test_roundtrip(self):
        doc = self.make_artifact(fmt=1)
        family, params, sys, mats = serialize.model_artifact_from_dict(doc)
        assert family == "chebyshev"
        assert params == {"n": 3}
        assert sys.n == 3
        assert set(mats) == {"m", "a", "b", "s_phi", "s_eta"}

    def test_roundtrip_format_2(self):
        family, params, sys, mats = serialize.model_artifact_from_dict(self.make_artifact())
        assert (family, params, sys.n) == ("chebyshev", {"n": 3}, 3)
        assert list(mats) == ["m", "a", "b"]

    def test_unknown_family(self):
        doc = self.make_artifact()
        doc["family"] = "mystery"
        with pytest.raises(SchemaError):
            serialize.model_artifact_from_dict(doc)

    def test_missing_matrix(self):
        doc = self.make_artifact(fmt=1)
        del doc["matrices"]["s_phi"]
        with pytest.raises(SchemaError, match="matrices must include 's_phi'"):
            serialize.model_artifact_from_dict(doc)

    def test_format_1_frame_operators_must_fit(self):
        doc = self.make_artifact(fmt=1)
        doc["matrices"]["s_phi"] = doc["matrices"]["s_eta"] = serialize.matrix_to_dict(np.eye(2))
        with pytest.raises(SchemaError, match=r"matrices\['s_phi'\] must be 3 x 3"):
            serialize.model_artifact_from_dict(doc)

    def test_wrong_matrix_size(self):
        doc = self.make_artifact()
        doc["matrices"]["m"] = serialize.matrix_to_dict(np.eye(2))
        with pytest.raises(SchemaError):
            serialize.model_artifact_from_dict(doc)


class TestDetectKind:
    def test_all_kinds(self):
        sys = chebyshev_paper_normalization(2)
        assert serialize.detect_kind(serialize.system_to_dict(sys)) == "system"
        pair = CryptoPair(np.eye(2), np.eye(2))
        assert serialize.detect_kind(serialize.crypto_to_dict(pair)) == "pair"
        m, sys3 = chebyshev_model(3)
        lad = build_ladders(sys3)
        met = build_metrics(sys3)
        art = serialize.model_artifact_to_dict(
            "chebyshev", {}, sys3,
            {"m": m, "a": lad.a, "b": lad.b, "s_phi": met.s_phi, "s_eta": met.s_eta},
        )
        assert serialize.detect_kind(art) == "artifact"

    def test_unknown(self):
        with pytest.raises(SchemaError):
            serialize.detect_kind({"foo": 1})

    def test_non_object(self):
        with pytest.raises(SchemaError):
            serialize.detect_kind([1, 2])


class TestFileIO:
    def test_write_then_load(self, tmp_path):
        path = tmp_path / "sys.json"
        doc = serialize.system_to_dict(chebyshev_paper_normalization(2))
        serialize.write_document(path, doc)
        assert serialize.load_document(path) == json.loads(path.read_text())
        assert serialize.load_document(path) == doc

    def test_no_temp_files_left_behind(self, tmp_path):
        path = tmp_path / "out.json"
        serialize.write_document(path, {"h_matrix": serialize.matrix_to_dict(np.eye(1)),
                                        "theta": serialize.matrix_to_dict(np.eye(1))})
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out.json"]

    def test_overwrite_is_atomic_replace(self, tmp_path):
        path = tmp_path / "out.json"
        serialize.write_document(path, {"a": 1})
        serialize.write_document(path, {"a": 2})
        assert serialize.load_document(path) == {"a": 2}

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(SchemaError):
            serialize.load_document(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            serialize.load_document(tmp_path / "absent.json")

    def test_dumps_rejects_nan(self):
        with pytest.raises(ValueError):
            serialize.dumps({"x": float("nan")})


def _unusable_destinations(tmp_path):
    """(target, words of its error) for each target check_destination refuses."""
    (tmp_path / "plain").write_text("")
    (tmp_path / "dir").mkdir()
    cases = [
        (tmp_path / "missing" / "out.json", "No such file or directory"),
        (tmp_path / "missing" / "deeper" / "out.json", "No such file or directory"),
        (tmp_path / "plain" / "out.json", "Not a directory"),
        (tmp_path / "dir", "not a regular file"),
    ]
    if hasattr(os, "mkfifo"):
        os.mkfifo(tmp_path / "fifo")
        cases.append((tmp_path / "fifo", "not a regular file"))
    return cases


class TestCheckDestination:
    def test_usable_targets_pass(self, tmp_path):
        (tmp_path / "old.json").write_text("{}")
        for target in (tmp_path / "new.json", tmp_path / "old.json", "relative.json"):
            assert serialize.check_destination(target) is None
        assert sorted(os.listdir(tmp_path)) == ["old.json"]

    def test_unusable_targets_raise_what_the_write_raises(self, tmp_path, monkeypatch):
        def refuse(obj):
            raise AssertionError("serialized for a refused target")

        for target, words in _unusable_destinations(tmp_path):
            before = sorted(os.listdir(tmp_path))
            with pytest.raises(OSError) as early:
                serialize.check_destination(target)
            with monkeypatch.context() as patch:
                patch.setattr(serialize, "dumps", refuse)
                with pytest.raises(OSError) as late:
                    serialize.write_document(target, {"a": 1})
            assert str(early.value) == str(late.value)
            assert type(early.value) is type(late.value)
            assert words in str(early.value) and str(target) in str(early.value)
            assert sorted(os.listdir(tmp_path)) == before

    def test_missing_parent_matches_the_temp_file_error(self, tmp_path):
        # The error the unchecked write gave: creating the temp file failed.
        target = tmp_path / "missing" / "out.json"
        with pytest.raises(OSError) as created:
            tempfile.mkstemp(dir=target.parent)
        with pytest.raises(OSError) as checked:
            serialize.check_destination(target)
        assert (checked.value.errno, checked.value.strerror) == (created.value.errno, created.value.strerror)
        assert checked.value.filename == str(target)


# json.dumps with indent set is the reference encoder that dumps must match byte for byte.
_FLOATS = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from([-0.0, 5e-324, 1e16, 1e-7, 1.0])
# Text that looks like a number dumps rewrites, which must stay as it is in a
# string or key, and DEL, which json escapes and orjson does not.
_LOOKALIKES = st.sampled_from(["1e5", "e-5", "e+5", "0.00001", "10.00001", "\x7f"])
_SCALARS = (
    st.text(alphabet=st.characters(), max_size=8)
    | st.sampled_from(['"', "\\", "\n", "\x00", "\x1f", "\u00e9", "\u2028", "\U0001f600"])
    | _LOOKALIKES
    | st.integers() | st.integers(min_value=2**63 - 2, max_value=2**70) | st.integers(max_value=-(2**63))
    | _FLOATS | st.booleans() | st.none()
)
_DOCUMENTS = st.recursive(
    _SCALARS,
    lambda children: st.lists(children, max_size=5)
    | st.lists(_FLOATS, max_size=8)
    | st.dictionaries(st.text(max_size=6) | _LOOKALIKES, children, max_size=5),
    max_leaves=30,
)
_NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])
# Valid documents for load_document, json.loads the reference.  orjson reads
# integers in 64 bits and strings without lone surrogates, as JSON requires.
_FLOATS_IN = _FLOATS | st.sampled_from([2.2250738585072014e-308, 1e-320, 0.1 + 0.2, 9007199254740993.0, 1.7976931348623157e308])
_TEXT_IN = st.text(alphabet=st.characters(blacklist_categories=("Cs",)), max_size=8)
_SCALARS_IN = (
    _TEXT_IN
    | st.sampled_from(['"', "\\", "\n", "\x00", "\x1f", "\u00e9", "\u2028", "\U0001f600"])
    | st.integers(min_value=-(2**63), max_value=2**63 - 1) | _FLOATS_IN | st.booleans() | st.none()
)
_DOCUMENTS_IN = st.recursive(
    _SCALARS_IN,
    lambda children: st.lists(children, max_size=5)
    | st.lists(_FLOATS_IN, max_size=8)
    | st.dictionaries(_TEXT_IN, children, max_size=5),
    max_leaves=30,
)


class TestLoadDocument:
    @given(_DOCUMENTS_IN, st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_matches_json_loads(self, tmp_path_factory, doc, ensure_ascii):
        text = json.dumps(doc, ensure_ascii=ensure_ascii)
        path = tmp_path_factory.mktemp("load") / "doc.json"
        path.write_text(text, encoding="utf-8")
        loaded = serialize.load_document(path)
        assert loaded == json.loads(text)
        assert json.dumps(loaded) == json.dumps(json.loads(text))  # -0.0 and int/float kept apart

    @pytest.mark.parametrize("depth", [1, serialize.MAX_DEPTH])
    def test_nesting_up_to_the_limit_loads(self, tmp_path, depth):
        path = tmp_path / "deep.json"
        path.write_bytes(b'{"k": "[[{{", "v": ' + b"[" * (depth - 1) + b"0" + b"]" * (depth - 1) + b"}")
        assert serialize.load_document(path)["k"] == "[[{{"

    @pytest.mark.parametrize("opener, closer", [(b"[", b"]"), (b'{"a":', b"}")], ids=["arrays", "objects"])
    def test_nesting_beyond_the_limit_is_malformed(self, tmp_path, opener, closer):
        depth = serialize.MAX_DEPTH + 1
        path = tmp_path / "deep.json"
        path.write_bytes(opener * depth + b"1" + closer * depth)
        with pytest.raises(SchemaError, match="nested deeper than"):
            serialize.load_document(path)

    def test_many_shallow_arrays_load(self, tmp_path):
        rows = [[float(i)] for i in range(2 * serialize.MAX_DEPTH)]  # a system above N of about 510
        path = tmp_path / "wide.json"
        path.write_text(json.dumps({"phi": rows}))
        assert serialize.load_document(path) == {"phi": rows}

    def test_brackets_in_strings_do_not_count_as_nesting(self, tmp_path):
        brackets = "[{" * serialize.MAX_DEPTH + '\\"['
        path = tmp_path / "strings.json"
        path.write_text(json.dumps({"s": brackets, "t": ['"[', "\\"]}))
        assert serialize.load_document(path) == {"s": brackets, "t": ['"[', "\\"]}


# Types json writes or refuses that orjson writes unless told to pass them on.
@dataclasses.dataclass
class Point:
    x: float
    y: float


class Mapping(dict):
    pass


class Sequence(list):
    pass


class TestDumps:
    @given(_DOCUMENTS)
    @settings(max_examples=200, deadline=None)
    def test_matches_json_dumps(self, doc):
        assert serialize.dumps(doc) == json.dumps(doc, indent=2, allow_nan=False)

    @given(_DOCUMENTS, st.lists(_FLOATS, max_size=6), _NON_FINITE, st.booleans())
    @settings(max_examples=50, deadline=None)
    def test_non_finite_float_raises(self, doc, floats, bad, in_float_list):
        floats.insert(len(floats) // 2, bad)
        doc = {"doc": doc, "bad": floats if in_float_list else [doc, {"x": bad}]}
        with pytest.raises(ValueError):
            json.dumps(doc, indent=2, allow_nan=False)
        with pytest.raises(ValueError):
            serialize.dumps(doc)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
    def test_non_finite_beside_null_raises(self, bad):
        # orjson writes both None and a non-finite float as null.
        doc = {"none": None, "x": [1.0, {"y": bad}]}
        with pytest.raises(ValueError):
            json.dumps(doc, indent=2, allow_nan=False)
        with pytest.raises(ValueError, match="not JSON compliant"):
            serialize.dumps(doc)

    def test_tuples_and_float_subclasses(self):
        doc = {"t": (1.5, 2), "f": (0.5, 1e-07), "n": [np.float64(0.1), 3.0], "e": [(), {}]}
        assert serialize.dumps(doc) == json.dumps(doc, indent=2, allow_nan=False)

    def test_unsupported_type_raises(self):
        # orjson writes dataclasses and dates, which json refuses.
        for value in (np.int64(1), Point(1.0, 2.0), datetime.date(2020, 1, 2)):
            with pytest.raises(TypeError):
                json.dumps({"x": value}, indent=2, allow_nan=False)
            with pytest.raises(TypeError):
                serialize.dumps({"x": value})

    @pytest.mark.parametrize(
        "obj, finite",
        [
            ([0.5] * 5000 + [math.nan] + [0.25] * 5000, False),
            ([1.0, math.inf, 2.0, -math.inf], False),
            ([1e308, 1e308], True),
            ([-1e308, -1e308, math.nan], False),
            ([10**400, 1.0], True),
            ([1.0, 10**400], True),
            ([10**400, math.inf], False),
            ([1.0, 10**400, -math.inf], False),
            ([[1.0, 2.0], [3.0, 4.0]], True),
            ([[1.0, 2.0], [[3.0], [math.nan]]], False),
            (["x", 1.0, None, True], True),
            ([0.5, "x", None, True], True),
            ([0.5, None, math.nan], False),
            ({"a": [None, {"b": (1.0, -math.inf)}]}, False),
        ],
        ids=["nan-deep", "inf-and-minus-inf", "sum-overflows", "sum-overflows-nan", "huge-int", "float-then-huge-int",
             "huge-int-inf", "float-then-huge-int-inf", "nested", "nested-nan", "mixed", "float-then-mixed",
             "float-then-mixed-nan", "tuple-in-dict"],
    )
    def test_all_finite(self, obj, finite):
        assert serialize._all_finite(obj) is finite
        doc = {"null": None, "x": obj}  # null makes dumps ask _all_finite
        if finite:
            assert serialize.dumps(doc) == json.dumps(doc, indent=2, allow_nan=False)
        else:
            with pytest.raises(ValueError, match="not JSON compliant"):
                serialize.dumps(doc)

    def test_non_finite_in_subclasses_raises(self):
        doc = Mapping(a=None, b=Sequence([1.0, math.nan]))
        with pytest.raises(ValueError):
            json.dumps(doc, indent=2, allow_nan=False)
        with pytest.raises(ValueError, match="not JSON compliant"):
            serialize.dumps(doc)


def _json_dumps(obj) -> str:
    return json.dumps(obj, indent=2, allow_nan=False)


# Every decade of float64, both signs, with 1-digit and 17-digit mantissas
# (those above the float64 range at 1e308 left out).
_DECADES = [
    value
    for exponent in range(-324, 309)
    for mantissa in ("1", "5", "1.2345678901234567", "9.876543210987654")
    for sign in ("", "-")
    if math.isfinite(value := float(f"{sign}{mantissa}e{exponent}"))
] + [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, 1e-5, 10.00001, -10.00001]


class TestDumpsFloatLists:
    """A list of exact floats takes its digits from orjson and is rewritten to repr's layout."""

    def test_every_decade(self, assert_same_lines):
        assert_same_lines(serialize.dumps({"x": _DECADES}), _json_dumps({"x": _DECADES}))

    def test_each_value_alone_and_last(self):
        # The last entry of a list has no comma after it to anchor a rewrite,
        # and a bare value starts the text, with nothing before it.
        for value in _DECADES:
            for doc in (value, [value], [1.0, value], [value, value]):
                assert serialize.dumps(doc) == _json_dumps(doc)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("position", [0, 500, 999], ids=["first", "middle", "last"])
    def test_non_finite_in_a_long_list_raises(self, bad, position):
        values = (np.random.default_rng(position).standard_normal(1000) * 10.0 ** np.arange(-8, 17).repeat(40)).tolist()
        values[position] = bad
        with pytest.raises(ValueError):
            _json_dumps(values)
        with pytest.raises(ValueError, match="not JSON compliant"):
            serialize.dumps({"data": values})

    def test_model_artifact(self, tmp_path, assert_same_lines):
        path = tmp_path / "model.json"
        assert main(["model", "chebyshev", "--n", "64", "-o", str(path)]) == 0
        text = path.read_text()
        assert_same_lines(text, _json_dumps(json.loads(text)) + "\n")

    def test_pair_from_a_gauged_system(self, tmp_path, capsys, assert_same_lines):
        _, sys = chebyshev_model(32)
        gauged = rescale(sys, np.geomspace(0.1, 10.0, 32))
        src, dst = tmp_path / "sys.json", tmp_path / "pair.json"
        serialize.write_document(src, serialize.system_to_dict(gauged))
        assert main(["convert", "nlrpb2crypto", str(src), "-o", str(dst)]) == 0
        report = capsys.readouterr().out
        for text in (src.read_text(), dst.read_text(), report):
            assert_same_lines(text, _json_dumps(json.loads(text)) + "\n")
