import dataclasses
import math

import numpy as np
import pytest

from nlrpb.cli import checks_section
from nlrpb.errors import ValidationError
from nlrpb.linalg import residual_norm
from nlrpb.models import chebyshev_model, chebyshev_paper_normalization, two_param_model
from nlrpb.pseudoboson import (
    MIN_EPS_GAP,
    BiorthogonalSystem,
    LadderPair,
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
