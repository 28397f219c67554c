"""Exact metamorphic properties of ``verify`` and both ``convert`` directions.

Some transforms of valid data are exact in binary64, barring overflow and
underflow, so the verdict on the transformed data must be the verdict on
the data, at any N, and no oracle is needed (metamorphic testing: Chen,
Cheung & Yiu, HKUST-CS98-01, 1998).

* T1, uniform power-of-two scalings: phi -> 2^j phi with eta -> 2^-j eta,
  Theta -> 2^j Theta and H -> 4^k H.  For even j on Theta (its square roots
  scale by 2^(j/2)) every product and norm scales by an exact power of two,
  so exit codes are equal and every residual is bit identical.  An odd j
  scales the roots by an irrational factor, so there only the verdicts must
  be equal.
* T2, one coordinate permutation P applied to every matrix: phi -> phi P,
  eta -> eta P, and M -> P^T M P for the stored m, a, b, H and Theta.  Only
  the summation order changes, so exit codes and verdicts are equal.

The data are the ``model -o`` artifacts of Chebyshev N = 2..8, 16 and 32 and
two-param (beta=2, delta=-1), each as written and in seeded gauges (the
gauged chains), and the pairs ``convert nlrpb2crypto`` writes from them.
"""

import contextlib
import functools
import io
import json
import os
import tempfile

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nlrpb import serialize
from nlrpb.cli import main
from nlrpb.pseudoboson import rescale

_MODEL_ARGVS = (
    *(("chebyshev", "--n", str(n)) for n in (2, 3, 4, 5, 6, 7, 8, 16, 32)),
    ("two-param", "--beta", "2", "--delta", "-1"),
)

# Ranges of the exact scalings, stated as bounds.  phi and eta stay far from
# overflow and underflow for |j| <= 30, and Theta for |j| <= 100.  H is scaled
# up only: its residuals are relative to max(||.||, 1), and below a norm of 1
# that floor, not the scale, sets the divisor.
PHI_EXPONENT = 30
THETA_EXPONENT = 100
H_POWER_OF_4 = 10

_SOURCES = st.tuples(st.integers(0, len(_MODEL_ARGVS) - 1), st.none() | st.integers(0, 2**32 - 1))


def _cli(argv, doc=None, out_name=None):
    """(exit code, checks, document written to ``out_name``) of one in-process
    call on ``doc``, written to a file that ends ``argv``; ``checks`` are the
    report's (name, residual, pass) triples, residuals as ``float.hex``."""
    with tempfile.TemporaryDirectory() as tmp:
        argv = list(argv)
        if doc is not None:
            argv.append(os.path.join(tmp, "in.json"))
            serialize.write_document(argv[-1], doc)
        if out_name is not None:
            argv += ["-o", os.path.join(tmp, out_name)]
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            rc = main(argv)
        written = serialize.load_document(argv[-1]) if out_name is not None and rc == 0 else None
    checks = []
    if out.getvalue():
        for sec in json.loads(out.getvalue())["sections"]:
            if sec["kind"] == "checks":
                checks += [(c["name"], float(c["residual"]).hex(), c["pass"]) for c in sec["checks"]]
    return rc, tuple(checks), written


@functools.lru_cache(maxsize=None)
def _artifact(index: int) -> dict:
    return _cli(("model",) + _MODEL_ARGVS[index], out_name="artifact.json")[2]


@functools.lru_cache(maxsize=None)
def _nlrpb_doc(index: int, gauge_seed) -> dict:
    """The artifact, or (with a seed) its system in a gauge nu log-uniform in [0.5, 2]."""
    artifact = _artifact(index)
    if gauge_seed is None:
        return artifact
    system = serialize.system_from_dict(artifact["system"])
    nu = np.exp(np.random.default_rng(gauge_seed).uniform(np.log(0.5), np.log(2.0), system.n))
    return serialize.system_to_dict(rescale(system, nu))


@functools.lru_cache(maxsize=None)
def _pair_doc(index: int, gauge_seed) -> dict:
    return _cli(("convert", "nlrpb2crypto"), _nlrpb_doc(index, gauge_seed), "pair.json")[2]


def _nlrpb_commands(doc):
    return [_cli(argv, doc)[:2] for argv in (("verify",), ("convert", "nlrpb2crypto"))]


def _pair_commands(doc):
    return [_cli(argv, doc)[:2] for argv in (("verify",), ("convert", "crypto2nlrpb"))]


@functools.lru_cache(maxsize=None)
def _nlrpb_verdicts(index: int, gauge_seed):
    return _nlrpb_commands(_nlrpb_doc(index, gauge_seed))


@functools.lru_cache(maxsize=None)
def _pair_verdicts(index: int, gauge_seed):
    return _pair_commands(_pair_doc(index, gauge_seed))


def _matrix(block: dict) -> np.ndarray:
    return np.array(block["data"], dtype=float).reshape(block["rows"], block["cols"])


def _nlrpb_transformed(doc: dict, phi_map, eta_map, matrix_map) -> dict:
    """``doc`` (a system or an artifact) with phi, eta and every stored matrix mapped."""
    doc = json.loads(json.dumps(doc))
    system = doc.get("system", doc)
    system["phi"] = phi_map(np.array(system["phi"])).tolist()
    system["eta"] = eta_map(np.array(system["eta"])).tolist()
    for name, block in doc.get("matrices", {}).items():
        doc["matrices"][name] = serialize.matrix_to_dict(matrix_map(_matrix(block)))
    return doc


def _pair_transformed(doc: dict, h_map, theta_map) -> dict:
    return {"h_matrix": serialize.matrix_to_dict(h_map(_matrix(doc["h_matrix"]))), "theta": serialize.matrix_to_dict(theta_map(_matrix(doc["theta"])))}


def _verdicts(results):
    """Exit codes and (name, pass) of every check: what T2 keeps."""
    return [(rc, [(name, passed) for name, _, passed in checks]) for rc, checks in results]


def _assert_base_passes(results):
    # the property is about valid data: every command on the untransformed data exits 0
    assert [rc for rc, _ in results] == [0] * len(results)


class TestPowerOfTwoScalings:
    """T1: exit codes equal and every residual bit-identical."""

    @settings(deadline=None, max_examples=60)
    @given(_SOURCES, st.integers(-PHI_EXPONENT, PHI_EXPONENT))
    @example((8, 1), PHI_EXPONENT)  # the bounds, on gauged Chebyshev N=32 and two-param
    @example((9, None), -PHI_EXPONENT)
    def test_phi_and_eta_by_inverse_powers_of_two(self, source, j):
        base = _nlrpb_verdicts(*source)
        _assert_base_passes(base)
        doc = _nlrpb_transformed(_nlrpb_doc(*source), lambda phi: phi * 2.0**j, lambda eta: eta * 2.0**-j, lambda m: m)
        assert _nlrpb_commands(doc) == base

    @settings(deadline=None, max_examples=80)
    @given(_SOURCES, st.integers(-THETA_EXPONENT, THETA_EXPONENT), st.integers(0, H_POWER_OF_4))
    @example((8, 1), THETA_EXPONENT, H_POWER_OF_4)  # the bounds, on gauged Chebyshev N=32 and two-param
    @example((9, None), -THETA_EXPONENT, 0)
    @example((4, 2), 30, 5)
    def test_theta_by_a_power_of_two_and_h_by_a_power_of_four(self, source, j, k):
        base = _pair_verdicts(*source)
        _assert_base_passes(base)
        doc = _pair_transformed(_pair_doc(*source), lambda h: h * 4.0**k, lambda theta: theta * 2.0**j)
        if j % 2 == 0:
            assert _pair_commands(doc) == base
        else:
            assert _verdicts(_pair_commands(doc)) == _verdicts(base)


class TestCoordinatePermutation:
    """T2: exit codes and verdicts equal; residuals may move at the rounding level."""

    @settings(deadline=None, max_examples=60)
    @given(_SOURCES, st.data())
    def test_nlrpb_documents(self, source, data):
        n = _nlrpb_doc(*source).get("system", _nlrpb_doc(*source))["n"]
        p = np.array(data.draw(st.permutations(range(n))))
        base = _nlrpb_verdicts(*source)
        _assert_base_passes(base)
        doc = _nlrpb_transformed(_nlrpb_doc(*source), lambda phi: phi[:, p], lambda eta: eta[:, p], lambda m: m[np.ix_(p, p)])
        assert _verdicts(_nlrpb_commands(doc)) == _verdicts(base)

    @settings(deadline=None, max_examples=60)
    @given(_SOURCES, st.data())
    def test_pairs(self, source, data):
        n = _pair_doc(*source)["theta"]["rows"]
        p = np.array(data.draw(st.permutations(range(n))))
        base = _pair_verdicts(*source)
        _assert_base_passes(base)
        doc = _pair_transformed(_pair_doc(*source), lambda h: h[np.ix_(p, p)], lambda theta: theta[np.ix_(p, p)])
        assert _verdicts(_pair_commands(doc)) == _verdicts(base)
