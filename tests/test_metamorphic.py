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

The pair side also has an exact generator that no nlrpb system built: J the
free chain (ones off the diagonal, a drawn diagonal), D = diag(2^j_i),
H = D^-1 J D and Theta = D^2.  H_ik = J_ik 2^(j_k - j_i) and Theta are exact
in float64, Theta H = H^T Theta holds exactly, and the roots of the diagonal
Theta are exact, so the hermitized h is J (Wilkinson, The Algebraic
Eigenvalue Problem, 1965, ch. 5; Parlett, The Symmetric Eigenvalue Problem,
1998, ch. 7).  cond(Theta) = 4^(max j - min j) is the dial.  T1 and T2 on
the pair side also run over these pairs.

The system side has one too: W the Sylvester-Hadamard matrix of order
N = 2^m (entries +-1, W W^T = N I), D_r and D_c diagonals of powers of two,
phi = D_r W D_c and eta = D_r^-1 W D_c^-1 / N, and eps = 0, 1, ..., N-1.
Every entry is +- a power of two, so phi eta^T = I holds exactly (a Fraction
check proves it at N <= 8).  D_r is a pure gauge and D_c sets
cond(phi) = max(D_c)/min(D_c) (Higham, Accuracy and Stability of Numerical
Algorithms, 2nd ed., 2002, ch. 28).  Two more transforms are exact there:

* T3, a power-of-two gauge: phi_n -> 2^g_n phi_n, eta_n -> 2^-g_n eta_n.
* T4, eps -> 4^k eps: the ladder weights sqrt(eps_n) scale by 2^k.
"""

import functools
import json
import os
import tempfile
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nlrpb import serialize
from nlrpb.cryptoherm import CryptoPair, hermitize
from nlrpb.linalg import SPD_GATE
from nlrpb.pseudoboson import rescale

from cli_runner import run_cli

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

# Ranges of the exact pair generator, stated as bounds.
EXACT_MAX_N = 16
# Every j_i lies in [offset, offset + span] with |offset| <= 30: Theta stays
# within 2^(+-98), far from overflow and underflow.
EXACT_OFFSET = 30
# |J_ii| <= 1 keeps every gap of J's spectrum far above MIN_EPS_GAP at N <= 16
# (the smallest seen in a search of such chains is 6e-4).
DIAG_BOUND = 1.0
# Each J_ii is 0 or of magnitude at least 2^-30.  T1's scalings move a
# subnormal J_ii's products into or out of the subnormal range, where they round
# differently (J_00 = 5e-324 at N = 9 broke it): that is underflow, which T1 excludes.
DIAG_FLOOR = 2.0**-30
# cond(Theta) = 4^span must stay under the SPD cap 1/SPD_GATE = 1e12.
SPD_CAP_SPAN = 19
# cond(Theta) <= 4^12 = 1.7e7: the system that convert writes passes verify.  At
# span 14 its worst residual reached 0.87 of the default tolerance, and at 15
# (N = 14, exponents alternating) p5_metric_duality fails; the xfail case below
# is the known failure.
COHERENT_SPAN = 12
# A few ulps of ||J|| <= 3: eigh's spectrum, shifted and shifted back, against eigvalsh(J).
SPECTRUM_ATOL = 1e-13

# Ranges of the exact system generator, stated as bounds.  Exponents of D_r and
# D_c lie in [offset, offset + span] with |offset| <= EXACT_OFFSET, so phi, eta and
# their frame operators stay far from overflow and underflow.
SYSTEM_MAX_M = 4
FRACTION_MAX_N = 8
# verify passes up to these spans of the D_r and D_c exponents.  Past them it fails
# exact data: a row span of 8 with a column span of 14 gives cond(S_eta) past the
# SPD cap (the xfail cases below are the known failures).
ROW_SPAN = 8
COLUMN_SPAN = 12
# Up to this span of both exponents, verify and nlrpb2crypto pass, the system that
# crypto2nlrpb writes from nlrpb2crypto's pair passes verify, and T3 and T4 keep
# the verdict.  At N = 4, row exponents (7, 0, 0, 1) with column exponents
# (0, 3, 1, 0) already give a written system that verify rejects.
SYSTEM_COHERENT_SPAN = 4
# T3's gauges span at most this, on bases with D_r = I and a column span of at
# most SYSTEM_COHERENT_SPAN; a gauge span of 6 with a column span of 7 fails.
GAUGE_SPAN = 6
# T4's powers of 4, eps_n = 4^k n.  Below -16 the gap 4^k falls under MIN_EPS_GAP;
# at k = 5 commutator_gaps fails at N = 16 with a row span of 4.
EPS_POWER_MIN = -16
EPS_POWER_MAX = 4

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
        rc, _, _, report = run_cli(argv)
        written = serialize.load_document(argv[-1]) if out_name is not None and rc == 0 else None
    checks = []
    for sec in report["sections"] if report else ():
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


def _exact_pair(d, diag):
    """(J, H, Theta) = (the free chain with diagonal ``diag``, D^-1 J D, D^2) for D = diag(d)."""
    n = len(d)
    chain = np.diag(diag) + np.eye(n, k=1) + np.eye(n, k=-1)
    return chain, chain * (d / d[:, None]), np.diag(d * d)


@st.composite
def _exact_pairs(draw, max_span):
    """``_exact_pair`` for d_i = 2^j_i, the exponents spanning at most ``max_span``."""
    n = draw(st.integers(2, EXACT_MAX_N))
    offset = draw(st.integers(-EXACT_OFFSET, EXACT_OFFSET))
    span = draw(st.integers(0, max_span))
    j = draw(st.lists(st.integers(offset, offset + span), min_size=n, max_size=n))
    entry = st.just(0.0) | st.floats(DIAG_FLOOR, DIAG_BOUND) | st.floats(-DIAG_BOUND, -DIAG_FLOOR)
    diag = draw(st.lists(entry, min_size=n, max_size=n))
    return _exact_pair(2.0 ** np.array(j), diag)


def _assert_verify_accepts_what_convert_writes(h, theta):
    rc, _, written = _cli(("convert", "crypto2nlrpb"), serialize.crypto_to_dict(CryptoPair(h, theta)), "system.json")
    if rc == 0:
        assert _cli(("verify",), written)[0] == 0


def _assert_base_passes(results):
    # the property is about valid data: every command on the untransformed data exits 0
    assert [rc for rc, _ in results] == [0] * len(results)


def _assert_pair_scaling_holds(doc, base, j, k):
    """T1 on a pair document whose commands gave ``base``: Theta by 2^j, H by 4^k."""
    _assert_base_passes(base)
    scaled = _pair_commands(_pair_transformed(doc, lambda h: h * 4.0**k, lambda theta: theta * 2.0**j))
    if j % 2 == 0:
        assert scaled == base
    else:
        assert _verdicts(scaled) == _verdicts(base)


def _assert_pair_permutation_holds(doc, base, data):
    """T2 on a pair document whose commands gave ``base``, for a drawn permutation."""
    _assert_base_passes(base)
    p = np.array(data.draw(st.permutations(range(doc["theta"]["rows"]))))
    permuted = _pair_commands(_pair_transformed(doc, lambda h: h[np.ix_(p, p)], lambda theta: theta[np.ix_(p, p)]))
    assert _verdicts(permuted) == _verdicts(base)


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
        _assert_pair_scaling_holds(_pair_doc(*source), _pair_verdicts(*source), j, k)


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
        _assert_pair_permutation_holds(_pair_doc(*source), _pair_verdicts(*source), data)


class TestExactPairs:
    """The exact pair generator: verdicts on pairs with cond(Theta) as a dial."""

    def test_spd_cap_span(self):
        assert 4.0**SPD_CAP_SPAN * SPD_GATE < 1.0 <= 4.0 ** (SPD_CAP_SPAN + 1) * SPD_GATE

    @settings(deadline=None, max_examples=60)
    @given(_exact_pairs(SPD_CAP_SPAN))
    def test_verify_passes_and_hermitizes_to_the_chain(self, pair):
        chain, h, theta = pair
        assert _cli(("verify",), serialize.crypto_to_dict(CryptoPair(h, theta)))[0] == 0
        hs = hermitize(h, theta)
        np.testing.assert_allclose(hs.spectrum + hs.shift, np.linalg.eigvalsh(chain), rtol=0, atol=SPECTRUM_ATOL)

    @settings(deadline=None, max_examples=60)
    @given(_exact_pairs(COHERENT_SPAN))
    def test_verify_accepts_what_convert_writes(self, pair):
        _assert_verify_accepts_what_convert_writes(*pair[1:])

    @settings(deadline=None, max_examples=60)
    @given(_exact_pairs(COHERENT_SPAN), st.integers(-THETA_EXPONENT, THETA_EXPONENT), st.integers(0, H_POWER_OF_4))
    def test_power_of_two_scalings(self, pair, j, k):
        doc = serialize.crypto_to_dict(CryptoPair(*pair[1:]))
        _assert_pair_scaling_holds(doc, _pair_commands(doc), j, k)

    @settings(deadline=None, max_examples=60)
    @given(_exact_pairs(COHERENT_SPAN), st.data())
    def test_coordinate_permutation(self, pair, data):
        doc = serialize.crypto_to_dict(CryptoPair(*pair[1:]))
        _assert_pair_permutation_holds(doc, _pair_commands(doc), data)

    @pytest.mark.xfail(
        strict=True,
        raises=AssertionError,
        reason="N=8, J with zero diagonal, d = logspace(0, 6, 8) (cond(Theta) 1e12): convert crypto2nlrpb "
        "exits 0 and verify exits 1 on the system it writes (p4_resolution_of_identity 2.2e-10, "
        "p5_frame_bounds 2.4e-27, p5_metric_duality 4.1e-10): convert does not judge its output as verify does",
    )
    def test_verify_accepts_what_convert_writes_at_cond_1e12(self):
        _assert_verify_accepts_what_convert_writes(*_exact_pair(np.logspace(0, 6, 8), np.zeros(8))[1:])


def _hadamard(m: int) -> np.ndarray:
    """The Sylvester-Hadamard matrix of order 2^m."""
    w = np.ones((1, 1))
    for _ in range(m):
        w = np.block([[w, w], [w, -w]])
    return w


def _exact_system(m: int, row_exponents, column_exponents) -> dict:
    """The system document phi = D_r W D_c, eta = D_r^-1 W D_c^-1 / N, eps = 0, 1, ..., N-1."""
    n = 2**m
    r, c = 2.0 ** np.array(row_exponents, float), 2.0 ** np.array(column_exponents, float)
    w = _hadamard(m)
    phi, eta = r[:, None] * w * c, w / r[:, None] / c / n
    return {"n": n, "eps": np.arange(n, dtype=float).tolist(), "phi": phi.tolist(), "eta": eta.tolist()}


def _spread(n: int, span: int) -> list:
    """n exponents spread evenly over [0, span]."""
    return np.round(np.linspace(0, span, n)).astype(int).tolist()


@st.composite
def _exponents(draw, n, max_span):
    offset = draw(st.integers(-EXACT_OFFSET, EXACT_OFFSET))
    span = draw(st.integers(0, max_span))
    return draw(st.lists(st.integers(offset, offset + span), min_size=n, max_size=n))


@st.composite
def _exact_systems(draw, row_span, column_span):
    """``_exact_system`` with the D_r and D_c exponents spanning at most the given spans."""
    m = draw(st.integers(1, SYSTEM_MAX_M))
    return _exact_system(m, draw(_exponents(2**m, row_span)), draw(_exponents(2**m, column_span)))


def _assert_exactly_biorthonormal(doc):
    """phi eta^T = I in exact rational arithmetic."""
    phi = [[Fraction(x) for x in row] for row in doc["phi"]]
    eta = [[Fraction(x) for x in row] for row in doc["eta"]]
    n = doc["n"]
    assert [[sum(p * e for p, e in zip(phi[i], eta[j])) for j in range(n)] for i in range(n)] == np.eye(n).tolist()


def _assert_verify_passes(doc):
    assert _cli(("verify",), doc)[0] == 0


def _known_failure(check, args, name, reason):
    """A case of ``check`` on ``_exact_system(*args)`` that fails today, as a strict xfail."""
    return pytest.param(check, args, id=name, marks=pytest.mark.xfail(strict=True, raises=AssertionError, reason=reason))


def _assert_convert_output_verifies(doc):
    """Whatever nlrpb2crypto writes with exit 0 passes verify, and so does what
    crypto2nlrpb writes with exit 0 from that pair."""
    rc, _, pair = _cli(("convert", "nlrpb2crypto"), doc, "pair.json")
    if rc == 0:
        assert _cli(("verify",), pair)[0] == 0
        rc, _, system = _cli(("convert", "crypto2nlrpb"), pair, "system.json")
        if rc == 0:
            assert _cli(("verify",), system)[0] == 0


def _assert_gauge_keeps_the_verdict(doc, gauge_exponents):
    """T3 on a system document: rows phi_n by 2^g_n, eta_n by 2^-g_n."""
    base = _nlrpb_commands(doc)
    _assert_base_passes(base)
    g = 2.0 ** np.array(gauge_exponents, float)[:, None]
    gauged = _nlrpb_transformed(doc, lambda phi: phi * g, lambda eta: eta / g, lambda m: m)
    assert _verdicts(_nlrpb_commands(gauged)) == _verdicts(base)


def _assert_eps_scaling_keeps_the_verdict(doc, k):
    """T4 on a system document: eps by 4^k."""
    base = _nlrpb_commands(doc)
    _assert_base_passes(base)
    scaled = dict(doc, eps=[e * 4.0**k for e in doc["eps"]])
    assert _verdicts(_nlrpb_commands(scaled)) == _verdicts(base)


class TestExactSystems:
    """The exact system generator: verdicts on bases with cond(phi) and the gauge as dials."""

    @settings(deadline=None, max_examples=60)
    @given(_exact_systems(ROW_SPAN, COLUMN_SPAN))
    def test_verify_passes(self, doc):
        if doc["n"] <= FRACTION_MAX_N:
            _assert_exactly_biorthonormal(doc)
        _assert_verify_passes(doc)

    @settings(deadline=None, max_examples=40)
    @given(_exact_systems(0, SYSTEM_COHERENT_SPAN), st.data())
    def test_power_of_two_gauge(self, doc, data):
        _assert_gauge_keeps_the_verdict(doc, data.draw(_exponents(doc["n"], GAUGE_SPAN)))

    @settings(deadline=None, max_examples=40)
    @given(_exact_systems(SYSTEM_COHERENT_SPAN, SYSTEM_COHERENT_SPAN), st.integers(EPS_POWER_MIN, EPS_POWER_MAX))
    def test_eps_by_a_power_of_four(self, doc, k):
        _assert_eps_scaling_keeps_the_verdict(doc, k)

    @settings(deadline=None, max_examples=40)
    @given(_exact_systems(SYSTEM_COHERENT_SPAN, SYSTEM_COHERENT_SPAN))
    def test_verify_accepts_what_convert_writes(self, doc):
        _assert_convert_output_verifies(doc)

    @pytest.mark.parametrize(
        "check, args",
        [
            _known_failure(
                _assert_verify_passes,
                (3, _spread(8, 16), [0] * 8),
                "verify-row-span-16",
                "N=8, D_r exponents spread evenly over [0, 16], D_c = I: verify exits 1 "
                "(p5_metric_duality 3.1e-8); nlrpb2crypto exits 2 (transform asymmetric, 1.6e-9)",
            ),
            _known_failure(
                _assert_verify_passes,
                (3, [0] * 7 + [8], [0] * 7 + [14]),
                "verify-row-8-column-14",
                "N=8, D_r exponents (0, ..., 0, 8), D_c exponents (0, ..., 0, 14): "
                "verify exits 1 (p5_frame_bounds 9.6: cond(S_eta) is past the SPD cap)",
            ),
            _known_failure(
                lambda doc: _assert_gauge_keeps_the_verdict(doc, _spread(8, 16)),
                (3, [0] * 8, [0] * 8),
                "gauge-span-16",
                "N=8, D_r = D_c = I, a gauge spread evenly over [0, 16]: verify exits 0 before "
                "the gauge and 1 after it (p5_metric_duality 3.1e-8)",
            ),
            _known_failure(
                lambda doc: _assert_gauge_keeps_the_verdict(doc, [2, 0, 0, 0, 6, 0, 0, 0]),
                (3, [0] * 8, [0] * 7 + [7]),
                "gauge-6-column-7",
                "N=8, D_r = I, D_c exponents (0, ..., 0, 7), gauge exponents (2, 0, 0, 0, 6, 0, 0, 0): "
                "nlrpb2crypto exits 0 before the gauge and 2 after it (transform asymmetric, 1.8e-10)",
            ),
            _known_failure(
                lambda doc: _assert_eps_scaling_keeps_the_verdict(doc, 8),
                (4, [0] * 16, [0] * 16),
                "eps-by-4-to-the-8",
                "N=16, D_r = D_c = I, eps -> 4^8 eps: verify exits 0 before the scaling and 1 "
                "after it (commutator_gaps 2.5e-10)",
            ),
            _known_failure(
                lambda doc: _assert_eps_scaling_keeps_the_verdict(doc, 5),
                (4, [0, 0, 1] + [0] * 10 + [4, 0, 0], [0] * 16),
                "eps-by-4-to-the-5-row-span-4",
                "N=16, D_r exponents 0 but 1 at row 2 and 4 at row 13, D_c = I, eps -> 4^5 eps: "
                "verify exits 0 before the scaling and 1 after it (commutator_gaps 1.2e-10)",
            ),
            _known_failure(
                _assert_convert_output_verifies,
                (3, _spread(8, 12), [0] * 8),
                "convert-row-span-12",
                "N=8, D_r exponents spread evenly over [0, 12], D_c = I: nlrpb2crypto and "
                "crypto2nlrpb exit 0, and verify exits 1 on the system crypto2nlrpb writes "
                "(p5_metric_duality 2.5e-9)",
            ),
            _known_failure(
                _assert_convert_output_verifies,
                (2, [7, 0, 0, 1], [0, 3, 1, 0]),
                "convert-n4",
                "N=4, D_r exponents (7, 0, 0, 1), D_c exponents (0, 3, 1, 0): nlrpb2crypto and "
                "crypto2nlrpb exit 0, and verify exits 1 on the system crypto2nlrpb writes "
                "(p5_metric_duality 1.5e-10)",
            ),
        ],
    )
    def test_known_failures(self, check, args):
        check(_exact_system(*args))
