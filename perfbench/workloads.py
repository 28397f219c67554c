"""Seeded input documents and command lists for the benchmark workloads.

Each workload is a list of command groups.  A group holds every command
kind the workload measures, so a run that stops between groups keeps the
mix of kinds fixed.  Inputs are derived from the seed with numpy and
written as JSON before any timing; the base documents they start from
come from ``nlrpb model -o``, so the program sees only argv and files.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import time
import traceback
from dataclasses import dataclass

import numpy as np

EPS_TOL = 1e-9
COMMAND_KINDS = (
    "model",
    "verify_artifact",
    "verify_system",
    "verify_pair",
    "nlrpb2crypto",
    "crypto2nlrpb",
    "paper_tables",
)
DENSE_N = 32  # roundtrip-dense chain size
DENSE_GROUPS = 3  # roundtrip-dense command groups, one gauge each
SMALL_GROUPS = 4  # small-batch command groups
REJECT_N = 64  # reject-mix document size
REJECT_GROUPS = 4  # reject-mix command groups
TABLES = ("n2", "n3", "n4", "n5", "two-param")
FORMATS = ("json", "csv", "md")


@dataclass(frozen=True)
class Command:
    """One CLI call and what it must produce.

    ``kinds`` are the metric keys its time counts toward (COMMAND_KINDS
    and/or ``"reject"``).  When ``eps_ref`` is set
    the spectrum in the written document ``eps_doc`` (or, without one, in
    the report's ``spectrum`` section) must match it within EPS_TOL.
    """

    argv: tuple
    kinds: tuple
    rc: int
    eps_ref: tuple = None
    eps_doc: str = None


def invoke(main, argv):
    """(exit code, stdout, seconds) of one in-process CLI call.

    A call that raises gets exit code None, its time until the raise, and
    its traceback on stderr: a wrong verdict, not the end of the run.
    """
    out, err = io.StringIO(), io.StringIO()
    error = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            rc = main(list(argv))
        except Exception as exc:
            rc, error = None, exc
        seconds = time.perf_counter() - start
    if error is not None:
        traceback.print_exception(error)
    return rc, out.getvalue(), seconds


def chebyshev_eps(n):
    """eps_n = 2 (x_n - x_0) with x_n = -cos((n + 1/2) pi / N)."""
    x = [-math.cos((k + 0.5) * math.pi / n) for k in range(n)]
    return tuple(2.0 * (v - x[0]) for v in x)


def two_param_eps(beta, delta):
    return (0.0, -((beta - delta) ** 2) / (beta * delta))


def _write(path, obj):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(obj))


def _write_text(path, text):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _matrix(arr):
    return {"rows": int(arr.shape[0]), "cols": int(arr.shape[1]), "data": [float(v) for v in arr.ravel()]}


def _unmatrix(doc):
    return np.array(doc["data"], dtype=float).reshape(doc["rows"], doc["cols"])


def _pair(h, theta):
    return {"h_matrix": _matrix(h), "theta": _matrix(theta)}


def _system(n, eps, phi, eta):
    return {"n": n, "eps": [float(v) for v in eps], "phi": phi.tolist(), "eta": eta.tolist()}


def _truncated(obj):
    """The first half of the document's JSON text: parsing it costs the same for every seed."""
    text = json.dumps(obj)
    return text[: len(text) // 2]


def _log_uniform(rng, lo, hi, size=None):
    return np.exp(rng.uniform(math.log(lo), math.log(hi), size))


class _Inputs:
    """Base artifacts made by the CLI once per workload, cached by argv."""

    def __init__(self, main, root):
        self.main = main
        self.root = root
        self._cache = {}

    def artifact(self, model_argv):
        key = tuple(model_argv)
        if key not in self._cache:
            path = os.path.join(self.root, f"base-{len(self._cache)}.json")
            rc, _, _ = invoke(self.main, ("model",) + key + ("-o", path))
            if rc != 0:
                raise RuntimeError(f"generating {' '.join(key)} failed with exit code {rc}")
            with open(path, encoding="utf-8") as fh:
                self._cache[key] = json.load(fh)
        return self._cache[key]


def _gauged(artifact, rng):
    """The artifact's system under rescale(nu), nu log-uniform in [0.5, 2]."""
    sys_doc = artifact["system"]
    n = sys_doc["n"]
    nu = _log_uniform(rng, 0.5, 2.0, n)
    phi = np.array(sys_doc["phi"]) / nu[:, None]
    eta = np.array(sys_doc["eta"]) * nu[:, None]
    return n, np.array(sys_doc["eps"]), phi, eta


def _chain(d, model_argv, sys_path, eps_ref):
    """model -o, verify artifact, verify system, both conversions, verify pair."""
    art, pair, back = (os.path.join(d, f) for f in ("art.json", "pair.json", "back.json"))
    return [
        Command(("model",) + tuple(model_argv) + ("-o", art), ("model",), 0, eps_ref),
        Command(("verify", art), ("verify_artifact",), 0),
        Command(("verify", sys_path), ("verify_system",), 0),
        Command(("convert", "nlrpb2crypto", sys_path, "-o", pair), ("nlrpb2crypto",), 0),
        Command(("convert", "crypto2nlrpb", pair, "-o", back), ("crypto2nlrpb",), 0, eps_ref, back),
        Command(("verify", pair), ("verify_pair",), 0),
    ]


def _gauged_chain(inputs, d, model_argv, eps_ref, rng):
    os.makedirs(d, exist_ok=True)
    n, eps, phi, eta = _gauged(inputs.artifact(model_argv), rng)
    sys_path = os.path.join(d, "sys.json")
    _write(sys_path, _system(n, eps, phi, eta))
    return _chain(d, model_argv, sys_path, eps_ref), (n, eps, phi, eta)


def _paper_tables():
    return [
        Command(("paper-tables", table, "--format", fmt), ("paper_tables",), 0)
        for table in TABLES
        for fmt in FORMATS
    ]


def _reject_tail(d, artifact, gauged):
    """Cheap rejections built from a chain's own documents (exit 1, 2, 3, 3)."""
    n, eps, phi, eta = gauged
    h = _unmatrix(artifact["matrices"]["m"])
    bad_eps = np.array(eps)
    bad_eps[0] = 0.5
    paths = {name: os.path.join(d, f"{name}.json") for name in ("eps0", "pair_hi", "trunc")}
    _write(paths["eps0"], _system(n, bad_eps, phi, eta))
    _write(paths["pair_hi"], _pair(h, np.eye(n)))
    _write_text(paths["trunc"], _truncated(_pair(h, eta.T @ eta)))
    return [
        Command(("verify", paths["eps0"]), ("reject",), 1),
        Command(("convert", "crypto2nlrpb", paths["pair_hi"]), ("reject",), 2),
        Command(("verify", paths["trunc"]), ("reject",), 3),
        Command(("convert", "nlrpb2crypto", os.path.join(d, "pair.json")), ("reject",), 3),
    ]


def roundtrip_dense(main, seed, root):
    """Chebyshev N=DENSE_N chains on seeded gauges, plus paper tables and a reject tail.

    A gauge sets the Jacobi sweep counts: about one gauge in four needs
    some 10% fewer rotations in the conversions and the pair check than
    the rest.  Each run therefore averages over DENSE_GROUPS gauges.
    """
    inputs = _Inputs(main, root)
    model_argv = ("chebyshev", "--n", str(DENSE_N))
    groups = []
    for g in range(DENSE_GROUPS):
        rng = np.random.default_rng([seed, g])
        d = os.path.join(root, f"g{g}")
        chain, gauged = _gauged_chain(inputs, d, model_argv, chebyshev_eps(DENSE_N), rng)
        tail = _reject_tail(d, inputs.artifact(model_argv), gauged)
        groups.append(chain + _paper_tables() + tail)
    return groups


def small_batch(main, seed, root):
    """Chebyshev N=2..6 and one two-param chain on seeded gauges, all paper tables."""
    inputs = _Inputs(main, root)
    groups = []
    for g in range(SMALL_GROUPS):
        rng = np.random.default_rng([seed, g])
        group = []
        for n in range(2, 7):
            model_argv = ("chebyshev", "--n", str(n))
            chain, gauged = _gauged_chain(inputs, os.path.join(root, f"g{g}", f"n{n}"), model_argv, chebyshev_eps(n), rng)
            group += chain
        n6 = gauged
        beta = float(_log_uniform(rng, 0.2, 5.0))
        delta = -float(_log_uniform(rng, 0.2, 5.0))
        model_argv = ("two-param", "--beta", repr(beta), "--delta", repr(delta))
        chain, _ = _gauged_chain(inputs, os.path.join(root, f"g{g}", "tp"), model_argv, two_param_eps(beta, delta), rng)
        group += chain + _paper_tables()
        group += _reject_tail(os.path.join(root, f"g{g}", "n6"), inputs.artifact(("chebyshev", "--n", "6")), n6)
        groups.append(group)
    return groups


def reject_mix(main, seed, root):
    """N=REJECT_N documents made invalid in seeded ways; every command must be rejected."""
    n = REJECT_N
    inputs = _Inputs(main, root)
    artifact = inputs.artifact(("chebyshev", "--n", str(n)))
    small = inputs.artifact(("chebyshev", "--n", "8"))
    h = _unmatrix(artifact["matrices"]["m"])
    groups = []
    for g in range(REJECT_GROUPS):
        rng = np.random.default_rng([seed, g])
        d = os.path.join(root, f"g{g}")
        os.makedirs(d, exist_ok=True)
        missing = os.path.join(d, "missing")
        path = {name: os.path.join(d, f"{name}.json") for name in (
            "art_eps", "art_trunc", "sys_eps0", "sys_trunc", "sys_biorth", "sys8",
            "pair_ok", "pair_hi", "pair_ii", "pair_nonspd", "pair_trunc",
        )}
        _, eps, phi, eta = _gauged(artifact, rng)
        theta = eta.T @ eta

        art = json.loads(json.dumps(artifact))
        k = int(rng.integers(1, n - 1))
        art["system"]["eps"][k] += float(rng.uniform(0.1, 0.5)) * (eps[k + 1] - eps[k])
        _write(path["art_eps"], art)
        _write_text(path["art_trunc"], _truncated(artifact))

        bad_eps = np.array(eps)
        bad_eps[0] = 0.5
        _write(path["sys_eps0"], _system(n, bad_eps, phi, eta))
        _write_text(path["sys_trunc"], _truncated(_system(n, eps, phi, eta)))
        bad_phi = phi.copy()
        bad_phi[int(rng.integers(n)), int(rng.integers(n))] += 1e-3
        _write(path["sys_biorth"], _system(n, eps, bad_phi, eta))
        _, eps8, phi8, eta8 = _gauged(small, rng)
        _write(path["sys8"], _system(8, eps8, phi8, eta8))

        lam, vecs = np.linalg.eigh(theta)
        lam[int(rng.integers(n))] *= -1.0
        non_spd = (vecs * lam) @ vecs.T
        _write(path["pair_ok"], _pair(h, theta))
        _write(path["pair_hi"], _pair(h, np.eye(n)))
        _write(path["pair_ii"], _pair(np.eye(n), np.eye(n)))
        _write(path["pair_nonspd"], _pair(h, (non_spd + non_spd.T) / 2.0))
        _write_text(path["pair_trunc"], _truncated(_pair(h, theta)))

        beta, delta = (float(v) for v in _log_uniform(rng, 0.2, 5.0, 2))
        table = TABLES[int(rng.integers(len(TABLES)))]
        groups.append([
            Command(("verify", path["art_eps"]), ("verify_artifact", "reject"), 1),
            Command(("verify", path["art_trunc"]), ("verify_artifact", "reject"), 3),
            Command(("verify", path["sys_eps0"]), ("verify_system", "reject"), 1),
            Command(("verify", path["sys_trunc"]), ("verify_system", "reject"), 3),
            Command(("verify", path["pair_hi"]), ("verify_pair", "reject"), 1),
            Command(("verify", path["pair_nonspd"]), ("verify_pair", "reject"), 1),
            Command(("verify", path["pair_trunc"]), ("verify_pair", "reject"), 3),
            Command(("convert", "crypto2nlrpb", path["pair_hi"]), ("crypto2nlrpb", "reject"), 2),
            Command(("convert", "crypto2nlrpb", path["pair_nonspd"]), ("crypto2nlrpb", "reject"), 2),
            Command(("convert", "crypto2nlrpb", path["pair_ii"]), ("crypto2nlrpb", "reject"), 2),
            Command(("convert", "nlrpb2crypto", path["sys_biorth"]), ("nlrpb2crypto", "reject"), 2),
            Command(("convert", "nlrpb2crypto", path["pair_ok"]), ("nlrpb2crypto", "reject"), 3),
            Command(("convert", "nlrpb2crypto", path["sys8"], "-o", os.path.join(missing, "pair.json")),
                    ("nlrpb2crypto", "reject"), 3),
            Command(("model", "chebyshev", "--n", "8", "-o", os.path.join(missing, "art.json")), ("model", "reject"), 3),
            Command(("model", "two-param", "--beta", repr(beta), "--delta", repr(delta)), ("model", "reject"), 2),
            Command(("model", "chebyshev", "--n", "1"), ("model", "reject"), 2),
            Command(("paper-tables", "n6"), ("paper_tables", "reject"), 2),
            Command(("paper-tables", table, "--format", "xml"), ("paper_tables", "reject"), 2),
            Command(("paper-tables",), ("paper_tables", "reject"), 2),
        ])
    return groups


BUILDERS = {"roundtrip-dense": roundtrip_dense, "small-batch": small_batch, "reject-mix": reject_mix}


def _report_pass(stdout):
    """The report's overall pass flag in any of the three formats, or None."""
    if stdout.startswith("{"):
        return json.loads(stdout).get("pass")
    if stdout.startswith("section,check"):
        return all(row.endswith(",true") for row in stdout.splitlines()[1:])
    if stdout.startswith("# nlrpb"):
        return "- overall: PASS" in stdout.splitlines()
    return None


def _spectrum(cmd, stdout):
    if cmd.eps_doc is not None:
        with open(cmd.eps_doc, encoding="utf-8") as fh:
            return json.load(fh)["eps"]
    for section in json.loads(stdout)["sections"]:
        if section["kind"] == "spectrum" and section["title"] == "spectrum":
            return section["values"]
    return None


def check(cmd, rc, stdout):
    """None when the command produced what it must, else the reason it did not."""
    if rc != cmd.rc:
        return f"exit code {rc}, expected {cmd.rc}"
    if cmd.rc in (0, 1):
        try:
            passed = _report_pass(stdout)
        except ValueError:
            passed = None
        if passed is not (cmd.rc == 0):
            return f"report pass flag {passed!r} with exit code {rc}"
    elif stdout:
        return f"exit code {rc} but a report was printed"
    if cmd.eps_ref is not None:
        eps = _spectrum(cmd, stdout)
        if eps is None or len(eps) != len(cmd.eps_ref):
            return "spectrum missing or of the wrong length"
        dev = max(abs(a - b) for a, b in zip(eps, cmd.eps_ref))
        if not dev <= EPS_TOL:
            return f"spectrum deviates from the closed form by {dev:.3e}"
    return None
