"""JSON encodings and atomic file I/O.

Layouts
-------
Matrix::

    {"rows": R, "cols": C, "data": [row-major floats]}

System::

    {"n": N, "eps": [...], "phi": [[row], ...], "eta": [[row], ...]}

Pair::

    {"h_matrix": Matrix, "theta": Matrix}

Model artifact::

    {"family": "chebyshev"|"two-param", "params": {...},
     "system": System,
     "matrices": {"m": Matrix, "a": Matrix, "b": Matrix,
                  "s_phi": Matrix, "s_eta": Matrix}}

Schema violations raise SchemaError, malformed files included.  Number
lists are checked in bulk: an exact int/float type test, one numpy
conversion and one finiteness test; only a list that fails is walked
entry by entry, to name its first bad index.

``dumps`` writes the same text as ``json.dumps(obj, indent=2,
allow_nan=False)`` byte for byte.  The stdlib falls back to its
pure-Python encoder whenever ``indent`` is set, one call per float;
here each list of floats is joined in one step instead.  Floats use the
shortest repr, so they round-trip exactly.  Writes go to a temp file
next to the target followed by os.replace, so readers never observe
partial documents.
"""

from __future__ import annotations

import json
import math
import os
import tempfile

import numpy as np

from .cryptoherm import CryptoPair
from .errors import SchemaError
from .pseudoboson import BiorthogonalSystem

__all__ = [
    "crypto_from_dict",
    "crypto_to_dict",
    "detect_kind",
    "dumps",
    "load_document",
    "matrix_from_dict",
    "matrix_to_dict",
    "model_artifact_from_dict",
    "model_artifact_to_dict",
    "system_from_dict",
    "system_to_dict",
    "write_document",
]

_ARTIFACT_MATRICES = ("m", "a", "b", "s_phi", "s_eta")

_encode_str = json.encoder.encode_basestring_ascii  # the C escaper json.dumps uses


def _require(cond, message: str) -> None:
    if not cond:
        raise SchemaError(message)


def _as_float(value, name: str) -> float:
    _require(isinstance(value, (int, float)) and not isinstance(value, bool), f"{name} must be a number")
    try:
        value = float(value)
    except OverflowError:  # an int beyond the float range
        value = math.inf
    _require(math.isfinite(value), f"{name} must be finite")
    return value


def _as_float_list(values, name: str) -> np.ndarray:
    _require(isinstance(values, list), f"{name} must be a list")
    # Exact types: numpy would also convert bool and numeric strings.
    if set(map(type, values)) <= {int, float}:
        try:
            arr = np.array(values, dtype=float)
        except OverflowError:  # an int beyond the float range, named below
            pass
        else:
            if np.isfinite(arr).all():
                return arr
    return np.array([_as_float(v, f"{name}[{i}]") for i, v in enumerate(values)], dtype=float)


def _as_positive_int(value, name: str) -> int:
    _require(isinstance(value, int) and not isinstance(value, bool) and value >= 1, f"{name} must be a positive integer")
    return value


def _rows_from(doc, n: int, name: str) -> np.ndarray:
    _require(isinstance(doc, list) and len(doc) == n, f"{name} must be a list of {n} rows")
    rows = []
    for i, row in enumerate(doc):
        vals = _as_float_list(row, f"{name}[{i}]")
        _require(len(vals) == n, f"{name}[{i}] must have {n} entries")
        rows.append(vals)
    return np.array(rows)


def matrix_to_dict(arr) -> dict:
    arr = np.asarray(arr, dtype=float)
    _require(arr.ndim == 2, "matrix must be 2-d")
    _require(bool(np.all(np.isfinite(arr))), "matrix entries must be finite")
    return {
        "rows": int(arr.shape[0]),
        "cols": int(arr.shape[1]),
        "data": arr.ravel().tolist(),
    }


def matrix_from_dict(doc) -> np.ndarray:
    _require(isinstance(doc, dict), "matrix document must be an object")
    _require({"rows", "cols", "data"} <= set(doc), "matrix document needs rows/cols/data")
    rows = _as_positive_int(doc["rows"], "rows")
    cols = _as_positive_int(doc["cols"], "cols")
    data = _as_float_list(doc["data"], "data")
    _require(len(data) == rows * cols, f"data length {len(data)} != rows*cols = {rows * cols}")
    return data.reshape(rows, cols)


def system_to_dict(sys: BiorthogonalSystem) -> dict:
    return {
        "n": int(sys.n),
        "eps": sys.eps.tolist(),
        "phi": sys.phi.tolist(),
        "eta": sys.eta.tolist(),
    }


def system_from_dict(doc) -> BiorthogonalSystem:
    """Schema-level load; semantic validity is left to verification."""
    _require(isinstance(doc, dict), "system document must be an object")
    _require({"n", "eps", "phi", "eta"} <= set(doc), "system document needs n/eps/phi/eta")
    n = _as_positive_int(doc["n"], "n")
    eps = _as_float_list(doc["eps"], "eps")
    _require(len(eps) == n, f"eps must have {n} entries")
    phi = _rows_from(doc["phi"], n, "phi")
    eta = _rows_from(doc["eta"], n, "eta")
    return BiorthogonalSystem(eps, phi, eta)


def crypto_to_dict(pair: CryptoPair) -> dict:
    return {"h_matrix": matrix_to_dict(pair.h_matrix), "theta": matrix_to_dict(pair.theta)}


def crypto_from_dict(doc) -> CryptoPair:
    _require(isinstance(doc, dict), "pair document must be an object")
    _require({"h_matrix", "theta"} <= set(doc), "pair document needs h_matrix/theta")
    h = matrix_from_dict(doc["h_matrix"])
    t = matrix_from_dict(doc["theta"])
    _require(h.shape[0] == h.shape[1] and h.shape == t.shape, "pair matrices must be square and of equal size")
    return CryptoPair(h, t)


def model_artifact_to_dict(family: str, params: dict, sys: BiorthogonalSystem, matrices: dict) -> dict:
    return {
        "family": family,
        "params": dict(params),
        "system": system_to_dict(sys),
        "matrices": {k: matrix_to_dict(v) for k, v in matrices.items()},
    }


def model_artifact_from_dict(doc):
    """Returns (family, params, system, matrices)."""
    _require(isinstance(doc, dict), "artifact document must be an object")
    _require({"family", "params", "system", "matrices"} <= set(doc), "artifact document needs family/params/system/matrices")
    family = doc["family"]
    _require(family in ("chebyshev", "two-param"), f"unknown family {family!r}")
    _require(isinstance(doc["params"], dict), "params must be an object")
    sys = system_from_dict(doc["system"])
    mats_doc = doc["matrices"]
    _require(isinstance(mats_doc, dict), "matrices must be an object")
    matrices = {k: matrix_from_dict(v) for k, v in mats_doc.items()}
    for key in _ARTIFACT_MATRICES:
        _require(key in matrices, f"matrices must include {key!r}")
        _require(matrices[key].shape == (sys.n, sys.n), f"matrices[{key!r}] must be {sys.n} x {sys.n}")
    return family, dict(doc["params"]), sys, matrices


def detect_kind(doc) -> str:
    """'artifact', 'system' or 'pair', judged from top-level keys."""
    if not isinstance(doc, dict):
        raise SchemaError("document root must be a JSON object")
    if "system" in doc and "matrices" in doc:
        return "artifact"
    if {"h_matrix", "theta"} <= set(doc):
        return "pair"
    if {"eps", "phi", "eta"} <= set(doc):
        return "system"
    raise SchemaError("unrecognized document: expected a model artifact, a system, or an (h_matrix, theta) pair")


def _float_reprs(values) -> map:
    """``float.__repr__`` of each value, as json writes floats; NaN and +-inf raise ValueError."""
    if not all(map(math.isfinite, values)):
        bad = next(v for v in values if not math.isfinite(v))
        raise ValueError(f"Out of range float values are not JSON compliant: {bad!r}")
    return map(float.__repr__, values)


def _encode(obj, newline: str) -> str:
    """JSON text of obj whose closing bracket follows ``newline``."""
    if isinstance(obj, str):
        return _encode_str(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, float):
        (text,) = _float_reprs((obj,))
        return text
    inner = newline + "  "
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = []
        for key, value in obj.items():
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            items.append(f"{_encode_str(key)}: {_encode(value, inner)}")
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        if set(map(type, obj)) == {float}:
            items = _float_reprs(obj)
        else:
            items = [_encode(value, inner) for value in obj]
        return "[" + inner + ("," + inner).join(items) + newline + "]"
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def dumps(obj) -> str:
    """``json.dumps(obj, indent=2, allow_nan=False)``, byte for byte, for
    documents with str keys; NaN and +-inf raise ValueError."""
    return _encode(obj, "\n")


def load_document(path):
    """Parse a JSON file; malformed JSON raises SchemaError, I/O errors propagate.

    Malformed covers bad syntax, bytes that are not UTF-8, integer literals
    over the interpreter's digit limit and nesting beyond the recursion limit.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except (ValueError, RecursionError) as exc:
            raise SchemaError(f"{path}: not valid JSON ({exc})") from exc


def write_document(path, obj) -> None:
    """Serialize obj to path via a temp file and atomic rename.

    An existing target that is not a regular file (a FIFO, a device node,
    a directory) raises OSError and is left untouched: the rename would
    replace it.
    """
    if os.path.exists(path) and not os.path.isfile(path):
        raise OSError(f"{os.fspath(path)}: not a regular file, refusing to replace it")
    text = dumps(obj) + "\n"
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(prefix=".nlrpb-", suffix=".tmp", dir=directory)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
