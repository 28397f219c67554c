import math
from sys import maxsize

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nlrpb.errors import ValidationError
from nlrpb.linalg import residual_norm
from nlrpb.models import (
    ChebyshevSpec,
    TwoParamSpec,
    _chebyshev_nodes,
    _chebyshev_rows,
    chebyshev_model,
    chebyshev_paper_normalization,
    stored_params_check,
    two_param_model,
)
from nlrpb.pseudoboson import BiorthogonalSystem, build_ladders, build_metrics, verify_axioms


def cheb_t(k, x):
    """T_k(x) from numpy's Chebyshev series, as an independent reference."""
    return np.polynomial.chebyshev.Chebyshev.basis(k)(x)


class TestChebyshevT:
    """The three-term recurrence behind the Chebyshev family's rows."""

    def test_base_cases(self):
        rows = _chebyshev_rows(4, np.array([0.3, 0.5, 2.0]))
        assert rows[0, 0] == 1.0
        assert rows[0, 1] == 0.3
        assert rows[1, 2] == pytest.approx(-0.5)
        assert rows[2, 3] == pytest.approx(26.0)

    @settings(deadline=None, max_examples=100)
    @given(
        st.integers(min_value=0, max_value=64),
        st.floats(min_value=-1.0, max_value=1.0, allow_nan=False),
    )
    def test_cosine_identity_on_unit_interval(self, k, x):
        t_k = _chebyshev_rows(k + 1, np.array([x]))[0, k]
        assert abs(t_k - math.cos(k * math.acos(x))) < 1e-8


class TestChebyshevNodes:
    def test_n2_golden(self):
        r = math.sqrt(2.0) / 2.0
        assert np.abs(_chebyshev_nodes(2) - [-r, r]).max() < 1e-15

    def test_ascending_roots(self):
        for n in (1, 3, 7):
            x = _chebyshev_nodes(n)
            assert np.all(np.diff(x) > 0.0)
            for xi in x:
                assert abs(cheb_t(n, xi)) < 1e-12


class TestChebyshevSpec:
    def test_default_shift_n2(self):
        assert ChebyshevSpec(2).z == pytest.approx(math.sqrt(2.0))

    def test_too_small_rejected(self):
        with pytest.raises(ValidationError):
            ChebyshevSpec(1)

    def test_non_integer_rejected(self):
        with pytest.raises(ValidationError):
            ChebyshevSpec(2.5)

    @pytest.mark.parametrize("n", ["x", None])
    def test_non_number_rejected(self, n):
        with pytest.raises(ValidationError, match=f"^chebyshev family: size must be an integer, got {n!r}$"):
            ChebyshevSpec(n)

    def test_size_bounded_by_addressable_array(self):
        # the spec allocates nothing, so the boundary itself can be probed
        largest = math.isqrt(maxsize // 8)
        assert ChebyshevSpec(largest).n == largest
        with pytest.raises(ValidationError, match="too large"):
            ChebyshevSpec(largest + 1)


class TestChebyshevModel:
    def test_n2_goldens(self):
        m, sys = chebyshev_model(2)
        s2 = math.sqrt(2.0)
        assert np.abs(m - [[s2, 2.0], [1.0, s2]]).max() < 1e-14
        assert np.abs(sys.eps - [0.0, 2.0 * s2]).max() < 1e-14

    def test_n3_spectrum(self):
        _, sys = chebyshev_model(3)
        s3 = math.sqrt(3.0)
        assert np.abs(sys.eps - [0.0, s3, 2.0 * s3]).max() < 1e-14

    def test_n4_spectrum_closed_form(self):
        _, sys = chebyshev_model(4)
        scale = math.sqrt(2.0 + math.sqrt(2.0))
        alpha = np.array([0.0, 2.0 - math.sqrt(2.0), math.sqrt(2.0), 2.0])
        assert np.abs(sys.eps - alpha * scale).max() < 1e-13

    def test_n5_spectrum_reference_decimals(self):
        _, sys = chebyshev_model(5)
        ref = [0.0, 0.726542529, 1.902113032, 3.077683536, 3.804226065]
        assert np.abs(sys.eps - ref).max() < 1e-8

    def test_matrix_structure(self):
        m, _ = chebyshev_model(6)
        z = ChebyshevSpec(6).z
        assert np.abs(np.diag(m) - z).max() < 1e-15
        sup = np.diag(m, 1)
        assert sup[0] == 2.0
        assert np.array_equal(sup[1:], np.ones(4))
        assert np.array_equal(np.diag(m, -1), np.ones(5))
        assert np.abs(np.triu(m, 2)).max() == 0.0
        assert np.abs(np.tril(m, -2)).max() == 0.0

    @pytest.mark.parametrize("n", [2, 4, 7])
    def test_rows_are_eigenvectors(self, n):
        m, sys = chebyshev_model(n)
        for k in range(n):
            assert residual_norm(m @ sys.phi[k], sys.eps[k] * sys.phi[k]) < 1e-12
            assert residual_norm(m.T @ sys.eta[k], sys.eps[k] * sys.eta[k]) < 1e-12

    def test_rows_are_polynomial_values(self):
        _, sys = chebyshev_model(4)
        x = _chebyshev_nodes(4)
        for level in range(4):
            expected = np.array([cheb_t(k, x[level]) for k in range(4)])
            expected[0] = 0.5  # the dual family halves the constant term
            assert np.abs(sys.eta[level] - expected).max() < 1e-13

    def test_ground_level_exactly_zero(self):
        for n in (2, 5, 11):
            _, sys = chebyshev_model(n)
            assert sys.eps[0] == 0.0

    def test_axioms_hold(self):
        _, sys = chebyshev_model(7)
        assert verify_axioms(sys, build_ladders(sys)).passed


class TestChebyshevPaperNormalization:
    def test_n2_metric(self):
        met = build_metrics(chebyshev_paper_normalization(2))
        s2 = math.sqrt(2.0)
        ref = np.array([[3.0, -s2], [-s2, 6.0]]) / 4.0
        assert np.abs(met.s_eta - ref).max() < 1e-14

    def test_n3_metric(self):
        met = build_metrics(chebyshev_paper_normalization(3))
        assert np.abs(met.s_eta - np.diag([3.0, 6.0, 6.0])).max() < 1e-14

    def test_same_lines_as_default(self):
        sys = chebyshev_paper_normalization(3)
        _, default = chebyshev_model(3)
        for got, want in ((sys.phi, default.phi), (sys.eta, default.eta)):
            dots = np.abs(np.sum(got * want, axis=1))
            norms = np.linalg.norm(got, axis=1) * np.linalg.norm(want, axis=1)
            assert np.abs(dots / norms - 1.0).max() < 1e-14

    def test_unsupported_size(self):
        with pytest.raises(ValidationError):
            chebyshev_paper_normalization(4)


class TestTwoParamSpec:
    def test_default_gauge_product(self):
        spec = TwoParamSpec(2.0, -1.0)
        assert spec.y * spec.w * (spec.beta - spec.delta) == pytest.approx(1.0)
        assert spec.y == pytest.approx(1.0 / math.sqrt(3.0))

    def test_reversed_order_gauge(self):
        spec = TwoParamSpec(-1.0, 2.0)
        assert spec.y * spec.w * (spec.beta - spec.delta) == pytest.approx(1.0)
        assert spec.w < 0.0 or spec.y < 0.0

    def test_eps1_formula(self):
        spec = TwoParamSpec(2.0, -1.0)
        assert spec.eps1 == pytest.approx(4.5)

    def test_equal_parameters_rejected(self):
        with pytest.raises(ValidationError, match="equals"):
            TwoParamSpec(1.0, 1.0)

    def test_zero_parameter_rejected(self):
        with pytest.raises(ValidationError, match="nonzero"):
            TwoParamSpec(0.0, 1.0)

    def test_same_sign_rejected(self):
        with pytest.raises(ValidationError, match="negative"):
            TwoParamSpec(1.0, 2.0)


class TestTwoParamModel:
    def test_symmetric_point_goldens(self):
        a, b, sys = two_param_model(1.0, -1.0)
        assert np.array_equal(a, [[-1.0, 1.0], [-1.0, 1.0]])
        assert np.array_equal(b, [[-1.0, -1.0], [1.0, 1.0]])
        assert np.abs(sys.eps - [0.0, 4.0]).max() < 1e-14
        assert residual_norm(b @ a, np.array([[2.0, -2.0], [-2.0, 2.0]])) < 1e-14
        met = build_metrics(sys)
        assert residual_norm(met.s_phi, np.eye(2)) < 1e-14
        assert residual_norm(met.s_eta, np.eye(2)) < 1e-14

    def test_asymmetric_point_goldens(self):
        a, b, sys = two_param_model(2.0, -1.0)
        assert np.abs(sys.eps - [0.0, 4.5]).max() < 1e-14
        met = build_metrics(sys)
        assert residual_norm(met.s_phi, np.diag([2.0, 1.0])) < 1e-14
        assert residual_norm(met.s_eta, np.diag([0.5, 1.0])) < 1e-14

    def test_returned_matrices_are_the_ladders(self):
        a, b, sys = two_param_model(0.4, -2.2)
        lad = build_ladders(sys)
        assert residual_norm(lad.a, a) < 1e-13
        assert residual_norm(lad.b, b) < 1e-13

    def test_ladder_matrices_are_nilpotent(self):
        a, b, _ = two_param_model(1.7, -0.3)
        assert residual_norm(a @ a, np.zeros((2, 2))) < 1e-14
        assert residual_norm(b @ b, np.zeros((2, 2))) < 1e-14


class TestBiorthonormalize:
    """chebyshev_model pairs its raw rows to 1 by scaling phi."""

    def test_chebyshev_raw_scaling(self):
        # raw diagonal pairings equal n/2, so phi rows shrink by 2/n and eta rows stay raw
        _, sys = chebyshev_model(3)
        x = _chebyshev_nodes(3)
        phi_raw = np.array([[cheb_t(k, xi) for k in range(3)] for xi in x])
        eta_raw = phi_raw.copy()
        eta_raw[:, 0] = 0.5
        assert np.abs(sys.phi - phi_raw * (2.0 / 3.0)).max() < 1e-14
        assert np.abs(sys.eta - eta_raw).max() < 1e-14
        assert residual_norm(sys.phi @ sys.eta.T, np.eye(3)) < 1e-14

    def test_unit_pairing_passthrough(self):
        # the model's pairings are already 1, so pairing its rows again changes nothing
        _, sys = chebyshev_model(2)
        again = sys.phi / np.diag(sys.phi @ sys.eta.T)[:, None]
        assert np.abs(again - sys.phi).max() < 1e-14


class TestStoredParamsCheck:
    def test_model_params_give_zero(self):
        _, sys = chebyshev_model(6)
        assert stored_params_check("chebyshev", {"n": 6, "z": 0.0}, sys).residual == 0.0
        _, _, sys2 = two_param_model(2.0, -1.0)
        assert stored_params_check("two-param", {"beta": 2.0, "delta": -1}, sys2).residual == 0.0

    def test_relative_spectrum_distance(self):
        _, sys = chebyshev_model(4)
        eps = sys.eps.copy()
        eps[2] += 1e-6 * eps[-1]
        check = stored_params_check("chebyshev", {"n": 4}, BiorthogonalSystem(eps, sys.phi, sys.eta))
        assert check.residual == pytest.approx(1e-6, rel=1e-9)
        assert not check.passed

    @pytest.mark.parametrize(
        "family, params",
        [
            ("chebyshev", {"n": 5}),
            ("chebyshev", {"n": 10**9}),  # compared by size, never built
            ("chebyshev", {"n": True}),
            ("chebyshev", {"n": "4"}),
            ("chebyshev", {"n": [4]}),
            ("chebyshev", {}),
            ("two-param", {"beta": 1.0, "delta": 1.0}),
            ("two-param", {"beta": 2.0}),
        ],
    )
    def test_params_naming_no_model_of_this_size_give_one(self, family, params):
        _, sys = chebyshev_model(4)
        check = stored_params_check(family, params, sys, tolerance=0.5)
        assert check.residual == 1.0
        assert not check.passed
