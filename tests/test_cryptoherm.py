import math

import numpy as np
import pytest

from nlrpb import serialize
from nlrpb.cryptoherm import (
    ROUNDTRIP_TOL,
    CryptoPair,
    HermitizedSystem,
    _line_cosine_defect,
    crypto_roundtrip,
    from_crypto,
    from_nlrpb,
    hermitize,
    hermitized_checks,
    nlrpb_roundtrip,
    verify_chwrt,
)
from nlrpb.errors import ValidationError
from nlrpb.linalg import (
    SPD_GATE,
    frobenius_norm,
    jacobi_eigh,
    residual_norm,
    spd_deficit,
    spd_inv_sqrt,
    spd_sqrt,
    symmetric_part,
    symmetry_excess,
)
from nlrpb.models import chebyshev_model, chebyshev_paper_normalization, two_param_model
from nlrpb.pseudoboson import build_metrics, build_system, gap_deficit, rescale
from nlrpb.report import Check, default_tolerance, judge

from cli_runner import run_cli


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


class TestVerifyChwrt:
    def test_symmetric_operator_with_identity_metric(self):
        rep = verify_chwrt(H3_REF, np.eye(3))
        assert rep.passed
        assert rep["cryptohermiticity"].residual < 1e-15

    def test_unknown_check_name_is_a_key_error(self):
        with pytest.raises(KeyError):
            verify_chwrt(H3_REF, np.eye(3))["hermitized_symmetry"]

    @pytest.mark.parametrize("call", [verify_chwrt, hermitize])
    def test_overflowing_product_is_not_a_residual(self, call):
        # Theta H overflows to inf; residual_norm refuses it rather than report inf
        h = np.array([[1e308, 1.0], [1.0, 1.7e308]])
        with np.errstate(over="ignore"), pytest.raises(ValidationError, match="^residual_norm: entries must be finite$"):
            call(h, np.array([[2.0, 1.0], [1.0, 2.0]]))

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

    def test_singular_metric_under_a_subnormal_lambda_max_fails_spd_gate(self):
        # Theta = diag(0, 1e-315): 1e-12 * lambda_max underflows, and hermitize stops
        # at metric_spd before a root divides by the zero eigenvalue
        h, theta = np.diag([1.0, 2.0]), np.diag([0.0, 1e-315])
        assert verify_chwrt(h, theta)["metric_spd"].residual == math.ulp(0.0)
        with pytest.raises(ValidationError, match=r"^hermitize: pair is not cryptohermitian \(metric_spd"):
            hermitize(h, theta)

    def test_asymmetric_metric_fails_spd_gate(self):
        theta = np.array([[1.0, 0.5], [0.0, 1.0]])
        rep = verify_chwrt(np.eye(2), theta)
        assert not rep["metric_spd"].passed

    def test_dimension_mismatch_raises(self):
        with pytest.raises(ValidationError):
            verify_chwrt(np.eye(2), np.eye(3))

    def test_one_eigenvalue_solve_of_the_symmetric_part(self, eigensolves):
        asymmetric = np.array([[2.0, 0.5, 0.1], [0.3, 1.0, 0.0], [0.1, 0.0, 3.0]])
        within_tolerance = np.array([[2.0, 0.3 + 1e-14, 0.1], [0.3, 1.0, 0.0], [0.1, 0.0, 3.0]])
        for theta, passes in ((asymmetric, False), (within_tolerance, True)):
            eigensolves.clear()
            rep = verify_chwrt(np.eye(3), theta)
            ((name, solved),) = eigensolves
            assert name == "eigvalsh"
            assert np.array_equal(solved, (theta + theta.T) / 2.0)
            assert rep["metric_spd"].residual == max(0.0, symmetry_excess(theta), spd_deficit(np.linalg.eigvalsh(solved)))
            assert rep["metric_spd"].passed is passes


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


def written_pair(n, tmp_path):
    """The pair ``convert nlrpb2crypto`` writes for Chebyshev N=n in a seeded gauge."""
    _, sys = chebyshev_model(n)
    nu = np.exp(np.random.default_rng(n).uniform(np.log(0.5), np.log(2.0), n))
    src, dst = tmp_path / "sys.json", tmp_path / "pair.json"
    serialize.write_document(src, serialize.system_to_dict(rescale(sys, nu)))
    assert run_cli(["convert", "nlrpb2crypto", src, "-o", dst]).rc == 0
    return serialize.crypto_from_dict(serialize.load_document(dst))


def with_theta(pair, edit):
    """``pair`` with Theta replaced by ``edit`` of a writable copy of it."""
    return CryptoPair(pair.h_matrix, edit(pair.theta.copy()))


def moved_entry(theta):
    theta[0, 1] += 1e-14
    return theta


def negated_top_eigenvalue(theta):
    lam, v = np.linalg.eigh(theta)
    lam[-1] = -lam[-1]
    return symmetric_part((v * lam) @ v.T)


def composed_hermitized_checks(h, t):
    """The pair verdict composed of public calls, as it was before
    ``hermitized_checks`` reused verify_chwrt's split of Theta for its roots:
    ``verify_chwrt``, then h = spd_sqrt(t) @ h @ spd_inv_sqrt(t), its
    symmetric part, ``jacobi_eigh`` and the shift."""
    rep = verify_chwrt(h, t)
    checks = list(rep.checks)
    if not rep.passed:
        return checks, None
    n = h.shape[0]
    raw = spd_sqrt(t) @ h @ spd_inv_sqrt(t)
    asym = residual_norm(raw, raw.T) / max(float(frobenius_norm(raw)), 1.0)
    sym = symmetric_part(raw)
    eig = jacobi_eigh(sym)
    lam = eig.eigenvalues
    checks += [Check("hermitized_symmetry", asym, default_tolerance(n)), Check("spectrum_min_gap", gap_deficit(lam), 0.0)]
    shift = float(lam[0])
    return checks, HermitizedSystem(sym - shift * np.eye(n), shift, lam - shift, eig.eigenvectors.T)


class TestHermitizedChecksBitForBit:
    PAIRS = {
        **{f"chebyshev-{n}": (lambda tmp, n=n: written_pair(n, tmp)) for n in (2, 3, 4, 5, 6, 32)},
        "two-param-0.7-2.3": lambda tmp: from_nlrpb(two_param_model(0.7, -2.3)[2]),
        # symmetric only within tolerance: the roots run on the symmetric part
        "theta-skew-1e-14": lambda tmp: with_theta(written_pair(5, tmp), moved_entry),
        # metric_spd fails (and so does cryptohermiticity), so no HermitizedSystem
        "theta-indefinite": lambda tmp: with_theta(written_pair(5, tmp), negated_top_eigenvalue),
        # cryptohermiticity fails
        "h-identity-metric": lambda tmp: CryptoPair(written_pair(5, tmp).h_matrix, np.eye(5)),
        # spectrum_min_gap fails, and the HermitizedSystem is still returned
        "degenerate": lambda tmp: CryptoPair(np.eye(2), np.eye(2)),
    }

    @pytest.mark.parametrize("name", list(PAIRS))
    def test_same_bits_as_the_public_composition(self, name, tmp_path):
        pair = self.PAIRS[name](tmp_path)
        with np.errstate(over="raise", invalid="raise", divide="raise"):  # the CLI's setting
            checks, hs = hermitized_checks(pair)
            ref_checks, ref_hs = composed_hermitized_checks(pair.h_matrix, pair.theta)
        assert [(c.name, c.residual.hex(), c.tolerance, c.passed) for c in checks] == [
            (c.name, c.residual.hex(), c.tolerance, c.passed) for c in ref_checks
        ]
        expected_failure = {
            "theta-skew-1e-14": None,
            "theta-indefinite": "metric_spd",
            "h-identity-metric": "cryptohermiticity",
            "degenerate": "spectrum_min_gap",
        }.get(name)
        failed = [c.name for c in checks if not c.passed]
        assert expected_failure in failed if expected_failure else failed == []
        assert (hs is None) is (ref_hs is None) is (expected_failure in ("metric_spd", "cryptohermiticity"))
        if hs is not None:
            for field in ("h", "spectrum", "e"):
                assert getattr(hs, field).tobytes() == getattr(ref_hs, field).tobytes(), field
            assert hs.shift.hex() == ref_hs.shift.hex()

    def test_skewed_theta_takes_the_symmetrizing_branch(self, tmp_path):
        pair = self.PAIRS["theta-skew-1e-14"](tmp_path)
        assert pair.theta[0, 1] != pair.theta[1, 0] and symmetry_excess(pair.theta) <= 0.0

    @pytest.mark.parametrize(
        "h, theta, text",
        [
            (np.ones((2, 3)), np.eye(2), "crypto pair: need square matrices of equal size, got (2, 3)/(2, 2)"),
            ([[math.nan, 0.0], [0.0, 1.0]], np.eye(2), "h_matrix: entries must be finite"),
        ],
        ids=["shapes", "non-finite"],
    )
    def test_hermitize_validates_the_pair(self, h, theta, text):
        with pytest.raises(ValidationError) as exc:
            hermitize(h, theta)
        assert str(exc.value) == text


class TestPairCache:
    """A pair measures Theta once and holds no tolerance: judged again at any
    tolerance, it gives a fresh pair's verdict and solves only h."""

    def test_one_pair_judged_at_several_tolerances(self, tmp_path, eigensolves):
        pair = written_pair(5, tmp_path)
        tolerances = (1e-30, None, 1.0)
        fresh = {tol: hermitized_checks(CryptoPair(pair.h_matrix, pair.theta), tol) for tol in tolerances}
        for tol in tolerances:
            hermitized_checks(pair, tol)
        for tol in tolerances:
            eigensolves.clear()
            checks, hs = hermitized_checks(pair, tol)
            ref_checks, ref_hs = fresh[tol]
            assert [(c.name, c.residual, c.tolerance, c.passed) for c in checks] == [
                (c.name, c.residual, c.tolerance, c.passed) for c in ref_checks
            ]
            assert (hs is None) is (ref_hs is None)
            assert [name for name, _ in eigensolves] == ([] if hs is None else ["eigh"]), tol
        assert fresh[1e-30][1] is None and fresh[1.0][1] is not None


class TestOneSpdGate:
    """metric_spd is the pair's only SPD gate: a Theta that passes it on the values
    solve is not failed again by the roots' own eigh, whose lambda_min may round
    below the gate.  Such a pair is judged (exit 0 or 1), not an error (exit 2)."""

    def test_roots_solve_below_the_gate_is_not_an_error(self, tmp_path, monkeypatch):
        pair = written_pair(5, tmp_path)
        path = tmp_path / "pair.json"
        original, nudges = np.linalg.eigh, []

        def nudged(a, *args, **kwargs):
            lam, v = original(a, *args, **kwargs)
            if np.array_equal(a, pair.theta):
                nudges.append(lam[0])
                lam = lam.copy()
                lam[0] = 0.5 * SPD_GATE * lam[-1]
            return lam, v

        monkeypatch.setattr(np.linalg, "eigh", nudged)
        assert run_cli(["verify", path]).rc in (0, 1)
        assert len(nudges) == 1


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

    def test_judges_s_eta_only(self):
        # S_phi = diag(1e320, 1) would overflow, but the pair never reads it;
        # its metric S_eta = diag(1e-320, 1) fails the SPD gate.
        sys = build_system(np.diag([1e160, 1.0]), np.diag([1e-160, 1.0]), [0.0, 1.0])
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            with pytest.raises(ValidationError) as err:
                from_nlrpb(sys)
        assert str(err.value) == (
            "from_nlrpb: S_eta is not positive definite within the SPD gate (1e-12) (metric_spd residual 1.000e-12 > 0)"
        )

    def test_tolerance_reaches_the_gate(self):
        # phi = G, eta = G^-T with cond(G) = 1e5: exact to rounding, but Theta H - H^T Theta
        # is left at about 2e-9 relative, above the default tolerance of 1e-10
        r = np.random.default_rng(0)
        u, v = (np.linalg.qr(r.standard_normal((8, 8)))[0] for _ in range(2))
        g = (u * np.logspace(0, 5, 8)) @ v.T
        sys = build_system(g, np.linalg.inv(g).T, np.arange(8.0), 1e-6)
        pair = from_nlrpb(sys, tolerance=1e-6)
        assert 1e-9 < verify_chwrt(pair.h_matrix, pair.theta)["cryptohermiticity"].residual <= 1e-6
        with pytest.raises(ValidationError, match=r"cryptohermiticity residual \S+ > 1e-10"):
            from_nlrpb(sys)


class TestFromCryptoLayout:
    """from_crypto composes its bases from C-ordered eigenvector rows.  A
    transposed view rounds differently at some N (17-20, 25-28, 33-36 with
    numpy 2.4), so HermitizedSystem.e must keep that layout."""

    @pytest.mark.parametrize("n", range(2, 41))
    def test_bases_match_the_c_order_composition(self, n):
        pair = from_nlrpb(chebyshev_model(n)[1])
        sys, _ = from_crypto(pair.h_matrix, pair.theta)
        e = np.array(hermitize(pair.h_matrix, pair.theta).e, order="C")
        assert sys.phi.tobytes() == (e @ spd_inv_sqrt(pair.theta)).tobytes()
        assert sys.eta.tobytes() == (e @ spd_sqrt(pair.theta)).tobytes()


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


def composed_from_crypto(h, t):
    """(system, HermitizedSystem): ``from_crypto`` as it was composed before it
    reused the roots that hermitized the pair: ``hermitize``, then the bases
    from the public roots of Theta."""
    hs = hermitize(h, t)
    return build_system(hs.e @ spd_inv_sqrt(t), hs.e @ spd_sqrt(t), hs.spectrum), hs


def checks_bits(checks):
    return [(c.name, c.residual.hex(), c.tolerance, c.passed) for c in checks]


class TestRoundtripsBitForBit:
    """Both round trips give the bits of their composition from public calls:
    ``crypto_roundtrip`` hermitized the pair a second time for its shift, and
    ``nlrpb_roundtrip`` judged the pair it built a second time in ``hermitize``."""

    @pytest.mark.parametrize("n", range(2, 41))
    def test_same_bits_as_the_public_composition(self, n):
        _, plain = chebyshev_model(n)
        gauged = rescale(plain, np.exp(np.random.default_rng(n).uniform(np.log(0.5), np.log(2.0), n)))
        for sys in (plain, gauged):
            pair, checks = nlrpb_roundtrip(sys)
            ref_pair = from_nlrpb(sys)
            ref_back, _ = composed_from_crypto(ref_pair.h_matrix, ref_pair.theta)
            assert pair.h_matrix.tobytes() == ref_pair.h_matrix.tobytes()
            assert pair.theta.tobytes() == ref_pair.theta.tobytes()
            ref_checks = judge(
                n,
                None,
                eps_roundtrip=float(np.abs(ref_back.eps - sys.eps).max()),
                eigenline_cosines=_line_cosine_defect(sys, ref_back),
            )
            assert checks_bits(checks) == checks_bits(ref_checks)

            back, _ = from_crypto(pair.h_matrix, pair.theta)
            system, shift, back_checks = crypto_roundtrip(pair)
            h, t = pair.h_matrix, pair.theta
            again = hermitize(h, t)
            rebuilt = from_nlrpb(ref_back)
            ref_back_checks = judge(
                n,
                None,
                h_roundtrip=residual_norm(rebuilt.h_matrix, h - again.shift * np.eye(n)) / max(float(frobenius_norm(h)), 1.0),
                theta_roundtrip=residual_norm(rebuilt.theta, t) / max(float(frobenius_norm(t)), 1e-300),
            )
            for got in (back, system):
                for field in ("eps", "phi", "eta"):
                    assert getattr(got, field).tobytes() == getattr(ref_back, field).tobytes(), field
            assert shift.hex() == again.shift.hex()
            assert checks_bits(back_checks) == checks_bits(ref_back_checks)


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
