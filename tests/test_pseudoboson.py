import dataclasses
import math

import numpy as np
import pytest

from nlrpb.cli import checks_section
from nlrpb.cryptoherm import from_crypto, from_nlrpb, nlrpb_roundtrip
from nlrpb.errors import ValidationError
from nlrpb.linalg import _TINY, frobenius_norm, residual_norm, spd_deficit, symmetric_part_eigenvalues
from nlrpb.models import chebyshev_model, chebyshev_paper_normalization, two_param_model
from nlrpb.pseudoboson import (
    MIN_EPS_GAP,
    BiorthogonalSystem,
    LadderPair,
    MetricPair,
    build_ladders,
    build_metrics,
    build_system,
    commutator_defect,
    rescale,
    system_checks,
    verify_axioms,
)


def trivial_system(n=3):
    """Self-dual orthonormal system with integer spectrum 0..n-1."""
    eye = np.eye(n)
    return build_system(eye, eye, np.arange(float(n)))


class TestBiorthogonalSystem:
    def test_fields_read_only(self):
        sys = trivial_system()
        with pytest.raises(ValueError):
            sys.eps[0] = 1.0
        with pytest.raises(ValueError):
            sys.phi[0, 0] = 2.0

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValidationError):
            BiorthogonalSystem(np.zeros(2), np.eye(3), np.eye(2))

    def test_rejects_nan(self):
        eps = np.array([0.0, float("nan")])
        with pytest.raises(ValidationError):
            BiorthogonalSystem(eps, np.eye(2), np.eye(2))


class TestBuildSystem:
    def test_accepts_reference_normalization(self):
        sys = chebyshev_paper_normalization(3)
        assert sys.n == 3
        assert residual_norm(sys.phi @ sys.eta.T, np.eye(3)) < 1e-14

    def test_rejects_nonzero_ground_level(self):
        with pytest.raises(ValidationError, match="eps\\[0\\]"):
            build_system(np.eye(2), np.eye(2), [0.5, 1.0])

    def test_rejects_decreasing_eps(self):
        with pytest.raises(ValidationError, match="increase strictly"):
            build_system(np.eye(2), np.eye(2), [0.0, -1.0])

    def test_rejects_degenerate_eps(self):
        with pytest.raises(ValidationError, match="gap"):
            build_system(np.eye(3), np.eye(3), [0.0, 1.0, 1.0 + 0.5 * MIN_EPS_GAP])

    def test_rejects_non_biorthonormal_pair(self):
        phi = np.array([[1.0, 0.0], [1.0, 1.0]])
        with pytest.raises(ValidationError, match="biorthonormality"):
            build_system(phi, phi, [0.0, 1.0])

    def test_tolerance_loosens_pairing_gate(self):
        phi = np.array([[1.0, 0.0], [0.01, 1.0]])
        eta = np.eye(2)
        with pytest.raises(ValidationError):
            build_system(phi, eta, [0.0, 1.0])
        sys = build_system(phi, eta, [0.0, 1.0], tolerance=0.1)
        assert sys.n == 2

    def test_rejects_wrong_vector_count(self):
        with pytest.raises(ValidationError):
            build_system(np.eye(3), np.eye(3), [0.0, 1.0])


class TestBuildLadders:
    def test_trivial_shift_matrices(self):
        lad = build_ladders(build_system(np.eye(2), np.eye(2), [0.0, 1.0]))
        assert np.array_equal(lad.a, [[0.0, 1.0], [0.0, 0.0]])
        assert np.array_equal(lad.b, [[0.0, 0.0], [1.0, 0.0]])

    def test_rank_one_expansion_n2(self):
        _, sys = chebyshev_model(2)
        lad = build_ladders(sys)
        root = math.sqrt(2.0 * math.sqrt(2.0))
        assert residual_norm(lad.a, root * np.outer(sys.phi[0], sys.eta[1])) < 1e-14
        assert residual_norm(lad.b, root * np.outer(sys.phi[1], sys.eta[0])) < 1e-14

    def test_raising_action_n3(self):
        _, sys = chebyshev_model(3)
        lad = build_ladders(sys)
        s3 = math.sqrt(3.0)
        assert residual_norm(lad.b @ sys.phi[0], math.sqrt(s3) * sys.phi[1]) < 1e-12
        assert residual_norm(lad.b @ sys.phi[1], math.sqrt(2.0 * s3) * sys.phi[2]) < 1e-12
        assert float(np.linalg.norm(lad.a @ sys.phi[0])) < 1e-13

    def test_rejects_negative_eps(self):
        broken = BiorthogonalSystem(np.array([0.0, -1.0]), np.eye(2), np.eye(2))
        with pytest.raises(ValidationError, match="nonnegative"):
            build_ladders(broken)


class TestBuildMetrics:
    def test_two_param_goldens(self):
        _, _, sys = two_param_model(2.0, -1.0)
        met = build_metrics(sys)
        assert residual_norm(met.s_phi, np.diag([2.0, 1.0])) < 1e-14
        assert residual_norm(met.s_eta, np.diag([0.5, 1.0])) < 1e-14

    def test_reference_normalization_n3(self):
        met = build_metrics(chebyshev_paper_normalization(3))
        assert residual_norm(met.s_eta, np.diag([3.0, 6.0, 6.0])) < 1e-14

    def test_metrics_symmetric(self):
        _, sys = chebyshev_model(5)
        met = build_metrics(sys)
        assert residual_norm(met.s_phi, met.s_phi.T) == 0.0
        assert residual_norm(met.s_eta, met.s_eta.T) == 0.0


class TestVerifyAxioms:
    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    def test_chebyshev_all_green(self, n):
        _, sys = chebyshev_model(n)
        rep = verify_axioms(sys, build_ladders(sys))
        assert rep.passed
        assert max(c.residual for c in rep.checks) < 1e-13

    def test_two_param_all_green(self):
        a, b, sys = two_param_model(0.7, -1.3)
        rep = verify_axioms(sys, LadderPair(a, b))
        assert rep.passed

    def test_check_names(self):
        sys = trivial_system()
        rep = verify_axioms(sys, build_ladders(sys))
        names = {c.name for c in rep.checks}
        assert names == {
            "p1_vacuum_phi",
            "p2_vacuum_eta",
            "p3_biorthonormality",
            "p3_ladder_relations",
            "p4_resolution_of_identity",
            "p5_frame_bounds",
            "p5_metric_duality",
        }

    def test_corrupted_eps_breaks_ladder_relations(self):
        _, sys = chebyshev_model(4)
        lad = build_ladders(sys)
        eps_bad = sys.eps.copy()
        eps_bad[1] += 0.1
        corrupted = dataclasses.replace(sys, eps=eps_bad)
        rep = verify_axioms(corrupted, lad)
        assert not rep.passed
        assert not rep["p3_ladder_relations"].passed
        assert rep["p3_biorthonormality"].passed
        assert rep["p4_resolution_of_identity"].passed

    def test_frame_gate_ignores_tolerance_override(self):
        # degenerate data: duplicated phi rows give a singular frame operator
        broken = BiorthogonalSystem(
            np.array([0.0, 1.0]), np.array([[1.0, 0.0], [1.0, 0.0]]), np.eye(2)
        )
        rep = verify_axioms(broken, build_ladders(broken), tolerance=10.0)
        assert not rep["p5_frame_bounds"].passed
        assert rep["p5_frame_bounds"].tolerance == 0.0

    def test_ladder_shape_mismatch(self):
        sys = trivial_system(3)
        with pytest.raises(ValidationError):
            verify_axioms(sys, LadderPair(np.zeros((2, 2)), np.zeros((2, 2))))

    def test_report_dict_schema(self):
        sys = trivial_system()
        doc = checks_section("axioms", verify_axioms(sys, build_ladders(sys)).checks)
        assert set(doc) == {"title", "kind", "checks", "pass"}
        assert doc["pass"] is True
        for entry in doc["checks"]:
            assert set(entry) == {"name", "residual", "tolerance", "pass"}


class TestCommutatorDefect:
    @pytest.mark.parametrize("n_dim", [2, 4, 6])
    def test_small_on_chebyshev(self, n_dim):
        _, sys = chebyshev_model(n_dim)
        lad = build_ladders(sys)
        for level in range(n_dim - 1):
            assert commutator_defect(sys, lad, level) < 1e-12

    def test_small_on_two_param(self):
        a, b, sys = two_param_model(1.5, -0.5)
        assert commutator_defect(sys, LadderPair(a, b), 0) < 1e-12

    def test_gap_value_realized(self):
        # the commutator acts on phi_n by exactly the spectral gap
        _, sys = chebyshev_model(4)
        lad = build_ladders(sys)
        comm = lad.a @ lad.b - lad.b @ lad.a
        gap = sys.eps[2] - sys.eps[1]
        assert residual_norm(comm @ sys.phi[1], gap * sys.phi[1]) < 1e-12

    def test_top_level_rejected(self):
        _, sys = chebyshev_model(3)
        lad = build_ladders(sys)
        with pytest.raises(ValidationError, match="top level"):
            commutator_defect(sys, lad, 2)

    def test_negative_level_rejected(self):
        _, sys = chebyshev_model(3)
        lad = build_ladders(sys)
        with pytest.raises(ValidationError):
            commutator_defect(sys, lad, -1)


class TestCommutatorDefectLevels:
    """An array of levels gives one residual per level, as the int form does level by level."""

    @pytest.mark.parametrize("n_dim", [2, 5, 16])
    def test_matches_int_levels(self, n_dim):
        _, sys = chebyshev_model(n_dim)
        sys = rescale(sys, np.geomspace(0.5, 2.0, n_dim))
        lad = build_ladders(sys)
        levels = np.arange(n_dim - 1)
        defects = commutator_defect(sys, lad, levels)
        assert defects.shape == levels.shape
        for level in levels:
            single = commutator_defect(sys, lad, int(level))
            assert isinstance(single, float)
            assert defects[level] == pytest.approx(single, rel=1e-13)

    def test_perturbed_levels_match_a_loop(self):
        # One matrix-vector product per level is the reference; the residuals are
        # well above rounding, so each level's value is checked.
        _, sys = chebyshev_model(6)
        lad = build_ladders(sys)
        broken = LadderPair(lad.a + 1e-3 * np.arange(36.0).reshape(6, 6), lad.b)
        comm = broken.a @ broken.b - broken.b @ broken.a
        defects = commutator_defect(sys, broken, [3, 0, 3])
        assert defects.min() > 1e-6
        for got, level in zip(defects, [3, 0, 3]):
            phi_n, gap = sys.phi[level], sys.eps[level + 1] - sys.eps[level]
            assert got == pytest.approx(np.linalg.norm(comm @ phi_n - gap * phi_n) / np.linalg.norm(phi_n), rel=1e-13)

    def test_no_levels(self):
        sys = trivial_system(1)
        assert commutator_defect(sys, build_ladders(sys), np.arange(0)).shape == (0,)

    @pytest.mark.parametrize("levels", [[0, 1, 2], [-1, 0], np.array([2])], ids=["top", "negative", "top-only"])
    def test_outside_levels_rejected(self, levels):
        _, sys = chebyshev_model(3)
        with pytest.raises(ValidationError, match="outside 0..1"):
            commutator_defect(sys, build_ladders(sys), levels)

    @pytest.mark.parametrize(
        "levels",
        [0.5, 1.0, np.float64(1.0), True, False, "1", [True, False], [True, False, True]],
        ids=["half", "float", "float64", "true", "false", "str", "bool-mask-2", "bool-mask-3"],
    )
    def test_non_integer_levels_rejected(self, levels):
        # numpy would read a float as an index error, a bool array as a mask and
        # a string as a ufunc error; each is refused as the level it is not
        _, sys = chebyshev_model(3)
        with pytest.raises(ValidationError, match="^commutator_defect: "):
            commutator_defect(sys, build_ladders(sys), levels)


class TestSystemChecks:
    def test_gate_first_then_every_check(self):
        m, sys = chebyshev_model(4)
        names = [c.name for c in system_checks(sys, build_ladders(sys), m)]
        assert names[0] == "eps_structure"
        assert names[1:] == [c.name for c in verify_axioms(sys, build_ladders(sys)).checks] + [
            "commutator_gaps",
            "eigen_relations",
        ]

    def test_ladders_default_to_the_data(self):
        _, sys = chebyshev_model(4)
        assert system_checks(sys) == system_checks(sys, build_ladders(sys))

    def test_failed_gate_leaves_only_biorthonormality(self):
        ref = chebyshev_paper_normalization(3)
        bad = BiorthogonalSystem(np.array([0.5, 1.0, 2.0]), ref.phi, ref.eta)
        checks = system_checks(bad, LadderPair(np.eye(3), np.eye(3)), np.eye(3), 1e-3)
        assert [(c.name, c.passed) for c in checks] == [("eps_structure", False), ("p3_biorthonormality", True)]
        assert checks[1].tolerance == 1e-3


class TestRescale:
    def test_identity_factors_bitwise_noop(self):
        _, sys = chebyshev_model(3)
        out = rescale(sys, np.ones(3))
        assert np.array_equal(out.phi, sys.phi)
        assert np.array_equal(out.eta, sys.eta)
        assert np.array_equal(out.eps, sys.eps)

    def test_preserves_biorthonormality_and_expansion(self):
        _, sys = chebyshev_model(5)
        nu = np.array([0.5, 1.0, 2.0, 3.0, 0.25])
        out = rescale(sys, nu)
        assert residual_norm(out.phi @ out.eta.T, np.eye(5)) < 1e-13
        h_before = (sys.phi.T * sys.eps) @ sys.eta
        h_after = (out.phi.T * out.eps) @ out.eta
        assert residual_norm(h_before, h_after) < 1e-13

    def test_constant_factor_scales_metric_quadratically(self):
        _, sys = chebyshev_model(3)
        out = rescale(sys, np.full(3, 2.0))
        assert residual_norm(build_metrics(out).s_eta, 4.0 * build_metrics(sys).s_eta) < 1e-13

    def test_default_to_reference_normalization(self):
        # halving phi and doubling eta turns the default size-3 system
        # into the explicit reference normalization
        _, sys = chebyshev_model(3)
        ref = chebyshev_paper_normalization(3)
        out = rescale(sys, np.full(3, 2.0))
        assert np.abs(out.phi - ref.phi).max() < 1e-14
        assert np.abs(out.eta - ref.eta).max() < 1e-14

    def test_axioms_survive_rescale(self):
        _, sys = chebyshev_model(4)
        out = rescale(sys, np.array([3.0, 0.1, 7.0, 2.0]))
        assert verify_axioms(out, build_ladders(out)).passed

    def test_rejects_nonpositive(self):
        _, sys = chebyshev_model(2)
        with pytest.raises(ValidationError, match="positive"):
            rescale(sys, [1.0, 0.0])
        with pytest.raises(ValidationError, match="positive"):
            rescale(sys, [1.0, -2.0])

    def test_rejects_wrong_length(self):
        _, sys = chebyshev_model(2)
        with pytest.raises(ValidationError):
            rescale(sys, [1.0, 1.0, 1.0])


def _reference_residuals(sys, ladders, m):
    """Every ``system_checks`` residual by its own expression, one relation
    at a time, as the checks were written before they shared their passes."""
    n, phi, eta, eps = sys.n, sys.phi, sys.eta, sys.eps
    a, b = ladders.a, ladders.b
    eye = np.eye(n)
    nphi = np.maximum(np.linalg.norm(phi, axis=1), 1e-300)
    neta = np.maximum(np.linalg.norm(eta, axis=1), 1e-300)
    root = np.sqrt(np.clip(eps, 0.0, None))
    ladder = [0.0]
    if n > 1:
        aphi, bphi, ateta, bteta = phi @ a.T, phi @ b.T, eta @ a, eta @ b
        ladder += [
            float((np.linalg.norm(aphi[1:] - root[1:, None] * phi[:-1], axis=1) / nphi[1:]).max()),
            float((np.linalg.norm(bphi[:-1] - root[1:, None] * phi[1:], axis=1) / nphi[:-1]).max()),
            float((np.linalg.norm(ateta[:-1] - root[1:, None] * eta[1:], axis=1) / neta[:-1]).max()),
            float((np.linalg.norm(bteta[1:] - root[1:, None] * eta[:-1], axis=1) / neta[1:]).max()),
        ]
    s_phi, s_eta = phi.T @ phi, eta.T @ eta
    deficits = []
    for s in (s_phi, s_eta):
        lam = np.linalg.eigvalsh((s + s.T) / 2.0)
        deficits.append(max(0.0, 1e-12 * lam[-1] - lam[0]) if lam[-1] > 0.0 else 1.0 - lam[-1])
    comm = a @ b - b @ a
    levels = np.arange(n - 1)
    comm_res = phi[levels] @ comm.T - (eps[levels + 1] - eps[levels])[:, None] * phi[levels]
    commutator = (np.linalg.norm(comm_res, axis=1) / np.maximum(np.linalg.norm(phi[levels], axis=1), 1e-300)).max(initial=0.0)
    left = np.linalg.norm(phi @ m.T - eps[:, None] * phi, axis=1) / nphi
    right = np.linalg.norm(eta @ m - eps[:, None] * eta, axis=1) / neta
    return {
        "eps_structure": max(0.0, abs(float(eps[0])) - 1e-12, max(0.0, MIN_EPS_GAP - float(np.diff(eps).min()))),
        "p1_vacuum_phi": float(np.linalg.norm(a @ phi[0]) / nphi[0]),
        "p2_vacuum_eta": float(np.linalg.norm(b.T @ eta[0]) / neta[0]),
        "p3_biorthonormality": float(np.abs(phi @ eta.T - eye).max()),
        "p3_ladder_relations": max(ladder),
        "p4_resolution_of_identity": float(np.linalg.norm(phi.T @ eta - eye)),
        "p5_frame_bounds": max(deficits),
        "p5_metric_duality": float(np.linalg.norm(s_phi @ s_eta - eye)),
        "commutator_gaps": float(commutator),
        "eigen_relations": max(float(left.max()), float(right.max())),
    }


def _gauged_chebyshev(n):
    m, sys = chebyshev_model(n)
    nu = np.exp(np.random.default_rng(n).uniform(np.log(0.5), np.log(2.0), n))
    return rescale(sys, nu), None, m


def _two_param(beta, delta):
    a, b, sys = two_param_model(beta, delta)
    return sys, LadderPair(a, b), b @ a


class TestSystemChecksBitForBit:
    @pytest.mark.parametrize(
        "build, args",
        [*((_gauged_chebyshev, (n,)) for n in (2, 3, 4, 5, 6, 32)), *((_two_param, bd) for bd in ((1.0, -1.0), (0.7, -2.3), (3.1, -0.4)))],
        ids=[*(f"chebyshev-{n}" for n in (2, 3, 4, 5, 6, 32)), "two-param-1-1", "two-param-0.7-2.3", "two-param-3.1-0.4"],
    )
    def test_residuals_match_the_per_relation_expressions(self, build, args):
        # The two-param model at (0.7, -2.3) tells full products sliced from
        # products of slices (phi[1:] a^T), which round differently.
        sys, ladders, m = build(*args)
        with np.errstate(over="raise", invalid="raise", divide="raise"):  # the CLI's setting
            checks = system_checks(sys, ladders, m)
            expected = _reference_residuals(sys, ladders if ladders is not None else build_ladders(sys), m)
        assert {c.name: c.residual.hex() for c in checks} == {name: value.hex() for name, value in expected.items()}


def _reference_commutator_defect(sys, ladders, n):
    """``commutator_defect`` with each level's norm ||phi_n|| computed again."""
    levels = np.asarray(n)
    comm = ladders.a @ ladders.b - ladders.b @ ladders.a
    phi = sys.phi[levels]
    res = phi @ comm.T - (sys.eps[levels + 1] - sys.eps[levels])[..., None] * phi
    defects = frobenius_norm(res, axis=-1) / np.maximum(frobenius_norm(phi, axis=-1), _TINY)
    return defects if levels.ndim else float(defects)


def _reference_line_cosine_defect(sys_a, sys_b):
    """``eigenline_cosines`` with the row norms of both systems computed again."""
    worst = 0.0
    for rows_a, rows_b in ((sys_a.phi, sys_b.phi), (sys_a.eta, sys_b.eta)):
        dots = np.abs(np.sum(rows_a * rows_b, axis=1))
        norms = frobenius_norm(rows_a, axis=1) * frobenius_norm(rows_b, axis=1)
        worst = max(worst, float((1.0 - dots / np.maximum(norms, _TINY)).max()))
    return worst


class TestRowNormsBitForBit:
    """The residuals that divide by the system's cached row norms give the
    bits of norms computed per call."""

    @pytest.mark.parametrize(
        "build, args", [(_gauged_chebyshev, (5,)), (_gauged_chebyshev, (32,)), (_two_param, (0.7, -2.3))], ids=["chebyshev-5", "chebyshev-32", "two-param-0.7-2.3"]
    )
    def test_commutator_and_roundtrip_residuals(self, build, args):
        sys = build(*args)[0]
        ladders = build_ladders(sys)
        n = sys.n
        with np.errstate(over="raise", invalid="raise", divide="raise"):  # the CLI's setting
            for level in [*range(n - 1), np.int64(n - 2), np.uint8(0)]:
                got, want = commutator_defect(sys, ladders, level), _reference_commutator_defect(sys, ladders, level)
                assert isinstance(got, float) and got.hex() == want.hex()
            for levels in (np.arange(n - 1), [n - 2, 0, n - 2], np.arange(n - 1)[::-1].reshape(-1, 1), np.array([[0, n - 2], [n - 2, 0]], dtype=np.uint32)):
                got, want = commutator_defect(sys, ladders, levels), _reference_commutator_defect(sys, ladders, levels)
                assert got.shape == want.shape and got.tobytes() == want.tobytes()
            _, checks = nlrpb_roundtrip(sys)
            pair = from_nlrpb(sys)
            back, _ = from_crypto(pair.h_matrix, pair.theta)
            expected = {"eps_roundtrip": float(np.abs(back.eps - sys.eps).max()), "eigenline_cosines": _reference_line_cosine_defect(sys, back)}
        assert {c.name: c.residual.hex() for c in checks} == {name: value.hex() for name, value in expected.items()}


class TestFrameOperators:
    """``build_metrics`` and ``verify_axioms`` form S_phi and S_eta by one former."""

    def test_metric_pair_holds_the_arrays_it_is_given(self):
        s_phi, s_eta = np.diag([2.0, 1.0]), np.diag([0.5, 1.0])
        met = MetricPair(s_phi, s_eta)
        assert met.s_phi is s_phi and met.s_eta is s_eta
        for arr in (s_phi, s_eta):
            with pytest.raises(ValueError):
                arr[0, 0] = 5.0

    @pytest.mark.parametrize("n", [5, 32])
    def test_build_metrics_is_the_gram_products(self, n):
        sys = _gauged_chebyshev(n)[0]
        met = build_metrics(sys)
        assert met.s_phi.tobytes() == (sys.phi.T @ sys.phi).tobytes()
        assert met.s_eta.tobytes() == (sys.eta.T @ sys.eta).tobytes()

    def test_overflowing_s_phi_is_refused(self):
        # S_phi = diag(1e400, 1) overflows; S_eta = diag(1e-400, 1) underflows harmlessly
        sys = BiorthogonalSystem([0.0, 1.0], np.diag([1e200, 1.0]), np.diag([1e-200, 1.0]))
        with np.errstate(over="ignore"), pytest.raises(ValidationError) as exc:
            build_metrics(sys)
        assert str(exc.value) == "s_phi: entries must be finite"

    @pytest.mark.parametrize("n", [5, 32])
    def test_p5_residuals_match_the_inline_expressions(self, n):
        sys = _gauged_chebyshev(n)[0]
        s_phi, s_eta = sys.phi.T @ sys.phi, sys.eta.T @ sys.eta
        frame = max(spd_deficit(symmetric_part_eigenvalues(s)[0]) for s in (s_phi, s_eta))
        duality = float(frobenius_norm(s_phi @ s_eta - np.eye(n)))
        with np.errstate(over="raise", invalid="raise", divide="raise"):  # the CLI's setting
            report = verify_axioms(sys, build_ladders(sys))
        assert report["p5_frame_bounds"].residual.hex() == frame.hex()
        assert report["p5_metric_duality"].residual.hex() == duality.hex()
