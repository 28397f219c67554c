"""JSON encodings and atomic file I/O.

Layouts
-------
Matrix::

    {"rows": R, "cols": C, "data": [row-major floats]}

System::

    {"n": N, "eps": [...], "phi": [[row], ...], "eta": [[row], ...]}

Pair::

    {"h_matrix": Matrix, "theta": Matrix}

Model artifact, format 2, as ``model -o`` writes it::

    {"format": 2, "family": "chebyshev"|"two-param", "params": {...},
     "system": System,
     "matrices": {"m": Matrix, "a": Matrix, "b": Matrix}}

Format 1 has no ``format`` key and stores the frame operators too,
``"s_phi"`` and ``"s_eta"`` in ``matrices``; it is still read.  The frame
operators are functions of the bases, so format 2 leaves them out, which
makes an artifact about a third smaller.  A format-2 document that
stores either one is a schema violation, and so is any other ``format``
value.

Input is parsed by orjson, from the file's bytes in one call.  Schema
violations raise SchemaError, malformed files included.  Number lists
are decoded in two tiers.  A list that starts with a float is packed by
one ``marshal.dumps(values, 2)``: n exact floats make a 5-byte header
and n records of ``b"g"`` and 8 little-endian bytes.  Any other entry has
another code byte (``b"s"`` and raw bytes for a numpy scalar) or makes
marshal raise ValueError (a float subclass), so entry k starts at byte
5 + 9k under ``b"g"`` only if all before it are exact floats, and a
packed length of 5 + 9n with ``b"g"`` at each such byte proves all n
are.  The array is a strided view of those bytes, copied once, and one
finiteness test follows; nothing is unmarshalled.  The rows of ``phi``
and ``eta`` are checked as one flattened block the same way, after one
pass over the row lengths.  Every other list or block is walked entry
by entry, which converts JSON integers and names the first bad index,
such as ``phi[i][j]``.  On one BLAS thread the lists of an N=32 artifact
decode in 0.10-0.12 ms, an N=64 pair's in 0.10 ms, and those of an
all-int N=8 or N=64 system, which nlrpb never writes, in 79 us or 3.0 ms.

orjson reads strict JSON, so some input fails at parsing that the stdlib
``json`` module parsed: NaN and Infinity literals, numbers beyond the
float64 range and lone surrogate escapes such as ``\\ud800``.  Integer literals
beyond 64 bits are read as floats, which the float entries become anyway
and which ``n``, ``rows`` and ``cols`` reject.

``dumps`` writes the same text as ``json.dumps(obj, indent=2,
allow_nan=False)`` byte for byte.  The stdlib falls back to its
pure-Python encoder whenever ``indent`` is set, one ``float.__repr__``
call per float.  Here one ``orjson.dumps`` call with ``OPT_INDENT_2``
lays out the whole document as json does.  orjson writes the same
shortest digits as repr, so floats round-trip exactly, but lays three
kinds of number out differently, and each is rewritten to repr's layout:

- exponent -5: ``0.00009356110258711765`` becomes ``9.356110258711765e-05``;
- one-digit negative exponents: ``1e-7`` becomes ``1e-07``;
- positive exponents: ``1e16`` becomes ``1e+16``.

A match is rewritten only in a number, where no ``"`` follows it on its
line; in a string or key it stays.  The rewrites are tied to orjson's
float text.  ``json.dumps`` itself writes the document, or raises its
error, when orjson cannot match it:

- orjson raises TypeError: on float subclasses, ints beyond 64 bits,
  non-str keys, and, by its passthrough options, on subclasses of the
  JSON types, dataclasses and datetimes;
- the text holds non-ASCII or DEL, which json escapes;
- the text holds ``null`` and a walk finds a NaN or +-inf, which orjson
  writes as ``null``.

orjson still writes ``uuid.UUID`` and enum members, which json refuses;
nlrpb passes neither.

Writes go to a temp file next to the target followed by os.replace, so
readers never observe partial documents.  The written file has the
permission bits ``open(path, "w")`` would leave: the temp file is created
with mode 0o666 and the kernel applies the umask (0o644 under the usual
umask 0o022), and a regular file being replaced keeps its own, copied
with ``os.chmod``.  The target is judged as given,
never normalized, by ``check_destination``, which returns the directory
the temp file goes in.  The CLI applies it before computing a document,
so a target that cannot be written is refused without the work.
"""

from __future__ import annotations

import contextlib
import errno
import itertools
import json
import marshal
import math
import os
import re
import stat

import numpy as np
import orjson

from .cryptoherm import CryptoPair
from .errors import SchemaError
from .models import _FAMILIES
from .pseudoboson import BiorthogonalSystem

__all__ = [
    "MAX_DEPTH",
    "check_destination",
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

_ARTIFACT_FORMAT = 2
_ARTIFACT_MATRICES = ("m", "a", "b")
_FRAME_OPERATORS = ("s_phi", "s_eta")

#: Deepest nesting of arrays and objects that load_document accepts; nlrpb
#: documents nest 4 deep.  orjson 3.8 builds nested containers by recursion
#: on the C stack with no limit of its own, and a valid document nested
#: about 80,000 deep (8 MB stack) crashes the process.
MAX_DEPTH = 1024
_STRING = re.compile(rb'"(?:[^"\\]+|\\.)*"?', re.DOTALL)  # unterminated: to the end
_NOT_BRACKETS = bytes(sorted(set(range(256)) - set(b"[]{}")))
_WINDOW = 1 << 16  # bytes per step of load_document's bracket count


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


def _bulk_floats(values):
    """``values`` as a float array if every entry is a finite exact float, as its
    marshal layout proves (see the module docstring); None otherwise, for the
    caller's walk, which decodes ints and names the first bad entry."""
    if not values or type(values[0]) is not float:  # the view of []'s header is invalid
        return None
    try:
        packed = marshal.dumps(values, 2)
    except ValueError:  # an unmarshallable entry
        return None
    n = len(values)
    if len(packed) != 5 + 9 * n or packed[5::9] != b"g" * n:
        return None
    arr = np.ndarray((n,), "<f8", packed, 6, (9,)).astype(float)
    return arr if np.isfinite(arr).all() else None


def _as_float_list(values, name: str) -> np.ndarray:
    _require(isinstance(values, list), f"{name} must be a list")
    arr = _bulk_floats(values)
    if arr is not None:
        return arr
    return np.array([_as_float(v, f"{name}[{i}]") for i, v in enumerate(values)], dtype=float)


def _as_positive_int(value, name: str) -> int:
    _require(isinstance(value, int) and not isinstance(value, bool) and value >= 1, f"{name} must be a positive integer")
    return value


def _rows_from(doc, n: int, name: str) -> np.ndarray:
    _require(isinstance(doc, list) and len(doc) == n, f"{name} must be a list of {n} rows")
    if all(type(row) is list and len(row) == n for row in doc):
        arr = _bulk_floats(list(itertools.chain.from_iterable(doc)))
        if arr is not None:
            return arr.reshape(n, n)
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


def _named_matrix(doc, name: str) -> np.ndarray:
    """``matrix_from_dict``, with ``name`` before the message of its SchemaError."""
    try:
        return matrix_from_dict(doc)
    except SchemaError as exc:
        raise SchemaError(f"{name}: {exc}") from exc


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
    h = _named_matrix(doc["h_matrix"], "h_matrix")
    t = _named_matrix(doc["theta"], "theta")
    _require(h.shape[0] == h.shape[1] and h.shape == t.shape, "pair matrices must be square and of equal size")
    return CryptoPair(h, t)


def model_artifact_to_dict(family: str, params: dict, sys: BiorthogonalSystem, matrices: dict) -> dict:
    return {
        "format": _ARTIFACT_FORMAT,
        "family": family,
        "params": dict(params),
        "system": system_to_dict(sys),
        "matrices": {k: matrix_to_dict(v) for k, v in matrices.items()},
    }


def model_artifact_from_dict(doc):
    """Returns (family, params, system, matrices); whether ``params`` describe
    the system is ``models.stored_params_check``'s verdict.

    A format-1 document (no ``format`` key) must store the frame operators,
    and a format-2 document must not.
    """
    _require(isinstance(doc, dict), "artifact document must be an object")
    _require({"family", "params", "system", "matrices"} <= set(doc), "artifact document needs family/params/system/matrices")
    fmt = doc.get("format")
    _require(
        "format" not in doc or (type(fmt) is int and fmt == _ARTIFACT_FORMAT),
        f"artifact format must be {_ARTIFACT_FORMAT}, or absent for format 1, not {fmt!r}",
    )
    family = doc["family"]
    _require(isinstance(family, str), "family must be a string")
    _require(family in _FAMILIES, f"unknown family {family!r}")
    _require(isinstance(doc["params"], dict), "params must be an object")
    sys = system_from_dict(doc["system"])
    mats_doc = doc["matrices"]
    _require(isinstance(mats_doc, dict), "matrices must be an object")
    keys = _ARTIFACT_MATRICES
    if "format" in doc:
        for key in _FRAME_OPERATORS:
            _require(key not in mats_doc, f"format-{_ARTIFACT_FORMAT} matrices must not include {key!r}")
    else:
        keys += _FRAME_OPERATORS
    matrices = {k: _named_matrix(v, f"matrices[{k!r}]") for k, v in mats_doc.items()}
    for key in keys:
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


# orjson lays out three kinds of float unlike repr (see the module
# docstring).  A match is in a number when no '"' follows it on its line.
# The literal after the 0 comes first, so that the search skips ahead to
# it; the lookbehinds require the 0 and leave 10.00001 alone.
_EXPONENT_MINUS_5 = re.compile(rb'\.0000(?<=0\.0000)(?<![0-9]0\.0000)([1-9])([0-9]*)(?=[^"\n]*$)', re.M)
_SHORT_EXPONENT = re.compile(rb'e(?:-(?=[0-9](?![0-9]))|(?=[0-9]))(?=[^"\n]*$)', re.M)
# Passed through, these raise TypeError, and json.dumps writes or refuses them.
_PASSTHROUGH = orjson.OPT_PASSTHROUGH_SUBCLASS | orjson.OPT_PASSTHROUGH_DATACLASS | orjson.OPT_PASSTHROUGH_DATETIME


def _repr_exponent(match) -> bytes:
    return b"e-0" if match[0] == b"e-" else b"e+"


def _all_finite(obj) -> bool:
    """No float in obj, built from exact JSON types, is NaN or +-inf."""
    kind = type(obj)
    if kind is float:
        return math.isfinite(obj)
    if kind is dict:
        obj = obj.values()
    elif kind is not list and kind is not tuple:
        return True
    return all(map(_all_finite, obj))


def dumps(obj) -> str:
    """``json.dumps(obj, indent=2, allow_nan=False)``, byte for byte, and
    its errors: NaN and +-inf raise ValueError."""
    try:
        out = orjson.dumps(obj, option=orjson.OPT_INDENT_2 | _PASSTHROUGH)
    except TypeError:  # a type orjson does not write exactly as json does
        out = None
    # "null" holds a "u", and one byte is found or ruled out about 50 times
    # faster than four: 2 against 110 us in a 136 KB artifact.
    if out is None or not out.isascii() or b"\x7f" in out or (b"u" in out and b"null" in out and not _all_finite(obj)):
        return json.dumps(obj, indent=2, allow_nan=False)
    pieces, end = [], 0
    for m in _EXPONENT_MINUS_5.finditer(out):  # 0.0000Dddd becomes D.ddde-05
        pieces += (out[end : m.start() - 1], m[1], b"." + m[2] if m[2] else b"", b"e-05")
        end = m.end()
    pieces.append(out[end:])
    return _SHORT_EXPONENT.sub(_repr_exponent, b"".join(pieces)).decode()


def _nesting_depth(data: bytes) -> int:
    """Deepest nesting of arrays and objects in JSON text, brackets inside
    strings not counted (exact for valid JSON)."""
    brackets = np.frombuffer(_STRING.sub(b"", data).translate(None, _NOT_BRACKETS), np.uint8)
    return int(np.cumsum(np.where((brackets | 32) == ord("{"), 1, -1)).max(initial=0))


def load_document(path):
    """Parse a JSON file with orjson; malformed JSON raises SchemaError, I/O
    errors propagate.

    Malformed covers bad syntax, bytes that are not UTF-8, a UTF-8 BOM,
    NaN and Infinity literals, numbers beyond the float64 range, lone
    surrogate escapes and nesting deeper than MAX_DEPTH.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    # b"[" | 32 is b"{".  With at most MAX_DEPTH of these bytes no nesting
    # is deeper, and the exact scan is skipped: on a 545 KB N=64 artifact it
    # takes about 0.5 ms.  The count goes by 64 KiB windows, whose temporaries
    # stay small: on that artifact it takes 0.06 ms, against 0.25 ms in one
    # pass that allocates two 545 KB arrays.
    view = np.frombuffer(data, np.uint8)
    opens = sum(np.count_nonzero((view[start : start + _WINDOW] | 32) == ord("{")) for start in range(0, len(view), _WINDOW))
    if opens > MAX_DEPTH and _nesting_depth(data) > MAX_DEPTH:
        raise SchemaError(f"{path}: arrays and objects nested deeper than {MAX_DEPTH} levels")
    try:
        return orjson.loads(data)
    except orjson.JSONDecodeError as exc:
        raise SchemaError(f"{path}: not valid JSON ({exc})") from exc


def check_destination(path) -> str:
    """Return the directory ``os.replace`` resolves ``path`` in, which
    ``write_document`` writes in; raise the OSError the write would raise,
    naming ``path``, for a target it cannot write at all.

    ``path`` is judged as given.  An existing target that is not a regular
    file (a FIFO, a device node, a directory) is refused: the rename would
    replace it.  A directory part that is missing or not a directory, as
    in ``nothere/`` or ``missing/../x``, and the empty path fail as creating
    the temp file would.  Nothing is created, and write permission is not judged.
    """
    target = os.fspath(path)
    if os.path.exists(target) and not os.path.isfile(target):
        raise OSError(f"{target}: not a regular file, refusing to replace it")
    directory = os.path.dirname(target) or target and os.curdir  # "" stays "": os.stat raises ENOENT
    try:
        if not stat.S_ISDIR(os.stat(directory).st_mode):
            raise NotADirectoryError(errno.ENOTDIR, os.strerror(errno.ENOTDIR))
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, target) from None
    return directory


def write_document(path, obj) -> None:
    """Serialize obj to path via a temp file and atomic rename.  The kernel
    applies the umask to a new file as for ``open(path, "w")``, and a regular
    file being replaced keeps its permission bits.  A target
    ``check_destination`` refuses is left untouched; every OSError names path."""
    directory = check_destination(path)
    text = dumps(obj) + "\n"
    tmp = None
    try:
        mode = None
        with contextlib.suppress(FileNotFoundError):
            mode = os.stat(path).st_mode & 0o777
        name = os.path.join(directory, f".nlrpb-{os.urandom(8).hex()}.tmp")
        fd = os.open(name, os.O_WRONLY | os.O_CREAT | os.O_EXCL | getattr(os, "O_BINARY", 0), 0o666)
        tmp = name
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        if mode is not None:
            os.chmod(tmp, mode)
        os.replace(tmp, path)
        tmp = None
    except OSError as exc:  # name the target, not the temp file's random name
        raise OSError(exc.errno, exc.strerror, os.fspath(path)) from None
    finally:
        if tmp is not None:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
