import math

import numpy as np
import pytest

from nlrpb.cryptoherm import (
    ROUNDTRIP_TOL,
    CryptoPair,
    HermitizedSystem,
    crypto_roundtrip,
    from_crypto,
    from_nlrpb,
    hermitize,
    nlrpb_roundtrip,
    verify_chwrt,
)
from nlrpb.errors import ValidationError
from nlrpb.linalg import jacobi_eigh, residual_norm, spd_deficit, symmetry_excess
from nlrpb.models import chebyshev_model, chebyshev_paper_normalization, two_param_model
from nlrpb.pseudoboson import build_metrics, build_system, rescale


S3 = math.sqrt(3.0)
H3_REF = np.array([[S3, math.sqrt(2.0), 0.0], [math.sqrt(2.0), S3, 1.0], [0.0, 1.0, S3]])


def reference_pair_n3():
    m, _ = chebyshev_model(3)
    theta = build_metrics(chebyshev_paper_normalization(3)).s_eta
    return m, theta


class TestDataclasses:
    def test_crypto_pair_rejects_mismatch(self):
        with pytest.raises(ValidationError):
            CryptoPair(np.eye(2), np.eye(3))

    def test_crypto_pair_read_only(self):
        pair = CryptoPair(np.eye(2), np.eye(2))
        with pytest.raises(ValueError):
            pair.theta[0, 0] = 2.0

    def test_hermitized_rejects_inconsistent_shapes(self):
        with pytest.raises(ValidationError):
            HermitizedSystem(np.eye(2), 0.0, np.array([0.0, 1.0, 2.0]), np.eye(2))


class TestVerifyChwrt:
    def test_symmetric_operator_with_identity_metric(self):
        rep = verify_chwrt(H3_REF, np.eye(3))
        assert rep.passed
        assert rep["cryptohermiticity"].residual < 1e-15

    def test_reference_pair_passes(self):
        m, theta = reference_pair_n3()
        rep = verify_chwrt(m, theta)
        assert rep.passed

    def test_wrong_metric_fails(self):
        m, _ = chebyshev_model(3)
        rep = verify_chwrt(m, np.eye(3))
        assert not rep.passed
        assert not rep["cryptohermiticity"].passed
        assert rep["metric_spd"].passed

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_metric_near_the_float64_range(self, sign):
        # Theta + Theta^T overflows; the symmetric part of Theta does not.
        h, theta = np.diag([0.25, 0.5]), np.diag([sign * 1e308, sign * 5e307])
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            rep = verify_chwrt(h, theta)
            assert rep["cryptohermiticity"].passed
            assert rep["metric_spd"].passed == (sign > 0.0)
            if sign > 0.0:
                assert hermitize(h, theta).spectrum == pytest.approx([0.0, 0.25], abs=1e-15)

    def test_indefinite_metric_fails_spd_gate(self):
        rep = verify_chwrt(np.diag([1.0, 2.0]), np.diag([1.0, -1.0]))
        assert not rep["metric_spd"].passed
        assert rep["metric_spd"].tolerance == 0.0

    def test_asymmetric_metric_fails_spd_gate(self):
        theta = np.array([[1.0, 0.5], [0.0, 1.0]])
        rep = verify_chwrt(np.eye(2), theta)
        assert not rep["metric_spd"].passed

    def test_dimension_mismatch_raises(self):
        with pytest.raises(ValidationError):
            verify_chwrt(np.eye(2), np.eye(3))

    def test_one_eigenvalue_solve_of_the_symmetric_part(self, monkeypatch):
        theta = np.array([[2.0, 0.5, 0.1], [0.3, 1.0, 0.0], [0.1, 0.0, 3.0]])  # asymmetric
        solved = []
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: solved.append(a.copy()) or eigvalsh(a))
        rep = verify_chwrt(np.eye(3), theta)
        assert len(solved) == 1
        assert np.array_equal(solved[0], (theta + theta.T) / 2.0)
        assert rep["metric_spd"].residual == max(0.0, symmetry_excess(theta), spd_deficit(eigvalsh(solved[0])))
        assert not rep["metric_spd"].passed


class TestHermitize:
    def test_two_param_golden(self):
        a, b, _ = two_param_model(1.0, -1.0)
        h = b @ a
        hs = hermitize(h, np.eye(2))
        assert abs(hs.shift) < 1e-12
        assert np.abs(hs.spectrum - [0.0, 4.0]).max() < 1e-12
        assert residual_norm(hs.h, np.array([[2.0, -2.0], [-2.0, 2.0]])) < 1e-12

    def test_n3_golden(self):
        m, theta = reference_pair_n3()
        hs = hermitize(m, theta)
        assert np.abs(hs.h - H3_REF).max() < 1e-12
        assert np.abs(hs.spectrum - [0.0, S3, 2.0 * S3]).max() < 1e-12
        assert abs(hs.shift) < 1e-12

    def test_n2_spectrum(self):
        m, _ = chebyshev_model(2)
        theta = build_metrics(chebyshev_paper_normalization(2)).s_eta
        hs = hermitize(m, theta)
        assert np.abs(hs.spectrum - [0.0, 2.0 * math.sqrt(2.0)]).max() < 1e-12

    def test_shift_bookkeeping(self):
        m, theta = reference_pair_n3()
        hs0 = hermitize(m, theta)
        hs2 = hermitize(m + 2.0 * np.eye(3), theta)
        assert hs2.shift == pytest.approx(hs0.shift + 2.0, abs=1e-12)
        assert np.abs(hs2.h - hs0.h).max() < 1e-12
        assert np.abs(hs2.spectrum - hs0.spectrum).max() < 1e-12

    def test_stored_h_is_shifted_symmetric(self):
        m, theta = reference_pair_n3()
        hs = hermitize(m, theta)
        assert residual_norm(hs.h, hs.h.T) == 0.0
        assert hs.spectrum[0] == 0.0
        lam = jacobi_eigh(hs.h).eigenvalues
        assert np.abs(lam - hs.spectrum).max() < 1e-12

    def test_eigenvector_rows_diagonalize(self):
        m, theta = reference_pair_n3()
        hs = hermitize(m, theta)
        assert residual_norm(hs.e @ hs.h @ hs.e.T, np.diag(hs.spectrum)) < 1e-12

    def test_degenerate_spectrum_rejected(self):
        with pytest.raises(ValidationError, match="degenerate"):
            hermitize(np.eye(2), np.eye(2))

    def test_non_cryptohermitian_rejected(self):
        m, _ = chebyshev_model(3)
        with pytest.raises(ValidationError, match="cryptohermitian"):
            hermitize(m, np.eye(3))


class TestFromCrypto:
    def test_identity_metric_gives_self_dual_system(self):
        sys, _ = from_crypto(H3_REF, np.eye(3))
        assert np.abs(sys.phi - sys.eta).max() < 1e-13
        assert residual_norm(sys.phi @ sys.phi.T, np.eye(3)) < 1e-13
        assert np.abs(sys.eps - [0.0, S3, 2.0 * S3]).max() < 1e-12

    def test_reference_pair_matches_reference_lines(self):
        m, theta = reference_pair_n3()
        sys, lad = from_crypto(m, theta)
        ref = chebyshev_paper_normalization(3)
        assert np.abs(sys.eps - ref.eps).max() < 1e-12
        for got, want in ((sys.phi, ref.phi), (sys.eta, ref.eta)):
            dots = np.abs(np.sum(got * want, axis=1))
            norms = np.linalg.norm(got, axis=1) * np.linalg.norm(want, axis=1)
            assert np.abs(dots / norms - 1.0).max() < 1e-12

    def test_ladders_satisfy_axioms(self):
        from nlrpb.pseudoboson import verify_axioms

        m, theta = reference_pair_n3()
        sys, lad = from_crypto(m, theta)
        assert verify_axioms(sys, lad).passed


class TestFromNlrpb:
    def test_operator_equals_model_matrix(self):
        m, sys = chebyshev_model(4)
        pair = from_nlrpb(sys)
        assert residual_norm(pair.h_matrix, m) < 1e-12
        assert residual_norm(pair.theta, build_metrics(sys).s_eta) == 0.0

    def test_pair_is_cryptohermitian(self):
        _, _, sys = two_param_model(2.0, -1.0)
        pair = from_nlrpb(sys)
        assert verify_chwrt(pair.h_matrix, pair.theta).passed

    def test_two_param_golden_operator(self):
        _, _, sys = two_param_model(2.0, -1.0)
        pair = from_nlrpb(sys)
        assert residual_norm(pair.h_matrix, np.array([[1.5, -3.0], [-1.5, 3.0]])) < 1e-12


class TestRoundtrip:
    @pytest.mark.parametrize("n", [2, 3, 5, 9])
    def test_chebyshev_eps_survives(self, n):
        _, sys = chebyshev_model(n)
        pair = from_nlrpb(sys)
        back, _ = from_crypto(pair.h_matrix, pair.theta)
        assert np.abs(back.eps - sys.eps).max() < 1e-10

    def test_theta_roundtrips_exactly(self):
        _, sys = chebyshev_model(4)
        pair = from_nlrpb(sys)
        back, _ = from_crypto(pair.h_matrix, pair.theta)
        assert residual_norm(build_metrics(back).s_eta, pair.theta) < 1e-12

    def test_h_roundtrips_up_to_shift(self):
        m, theta = reference_pair_n3()
        sys, _ = from_crypto(m, theta)
        hs = hermitize(m, theta)
        back = from_nlrpb(sys)
        assert residual_norm(back.h_matrix, m - hs.shift * np.eye(3)) < 1e-12


def lossy_system():
    """Chebyshev N=8 with eps scaled by 1000: the absolute eps_roundtrip is
    about 1e-12, while every relative residual of the conversions stays near 1e-15."""
    _, sys = chebyshev_model(8)
    return build_system(sys.phi, sys.eta, 1000.0 * sys.eps)


def lossy_pair():
    """Gauged Chebyshev N=2 (factors 1 and 1000): h_roundtrip is about 5e-11,
    while the pair's own checks and the built system's stay below 2e-13."""
    _, sys = chebyshev_model(2)
    return from_nlrpb(rescale(sys, [1.0, 1000.0]))


class TestRoundtripChecks:
    def test_default_tolerance(self):
        assert ROUNDTRIP_TOL == 1e-9
        _, sys = chebyshev_model(5)
        pair, checks = nlrpb_roundtrip(sys)
        _, shift, back_checks = crypto_roundtrip(pair)
        assert [c.name for c in checks] == ["eps_roundtrip", "eigenline_cosines"]
        assert [c.name for c in back_checks] == ["h_roundtrip", "theta_roundtrip"]
        for c in checks + back_checks:
            assert c.tolerance == 1e-9 and c.passed

    def test_explicit_tolerance_is_carried(self):
        _, sys = chebyshev_model(5)
        pair, checks = nlrpb_roundtrip(sys, 1e-6)
        _, _, back_checks = crypto_roundtrip(pair, 1e-6)
        for c in checks + back_checks:
            assert c.tolerance == 1e-6 and c.passed

    def test_outputs_match_the_conversions(self):
        _, sys = chebyshev_model(4)
        pair, _ = nlrpb_roundtrip(sys)
        direct = from_nlrpb(sys)
        assert np.array_equal(pair.h_matrix, direct.h_matrix)
        assert np.array_equal(pair.theta, direct.theta)
        back, shift, _ = crypto_roundtrip(pair)
        assert np.array_equal(back.eps, from_crypto(pair.h_matrix, pair.theta)[0].eps)
        assert shift == hermitize(pair.h_matrix, pair.theta).shift

    def test_nlrpb_tolerance_below_residual_fails(self):
        sys = lossy_system()
        _, checks = nlrpb_roundtrip(sys, 1e-13)
        by_name = {c.name: c for c in checks}
        assert by_name["eps_roundtrip"].residual > 1e-13
        assert not by_name["eps_roundtrip"].passed
        assert by_name["eigenline_cosines"].passed
        _, loose = nlrpb_roundtrip(sys, 1e-11)
        assert all(c.passed for c in loose)

    def test_crypto_tolerance_below_residual_fails(self):
        pair = lossy_pair()
        _, _, checks = crypto_roundtrip(pair, 3e-12)
        by_name = {c.name: c for c in checks}
        assert by_name["h_roundtrip"].residual > 3e-12
        assert not by_name["h_roundtrip"].passed
        assert by_name["theta_roundtrip"].passed
        _, _, loose = crypto_roundtrip(pair, 1e-9)
        assert all(c.passed for c in loose)
