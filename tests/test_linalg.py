import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from nlrpb import serialize
from nlrpb.cli import main
from nlrpb.cryptoherm import from_nlrpb, verify_chwrt
from nlrpb.errors import ConvergenceError, ValidationError
from nlrpb.linalg import (
    SPD_GATE,
    as_matrix,
    as_vector,
    default_tolerance,
    frobenius_norm,
    jacobi_eigh,
    residual_norm,
    spd_deficit,
    spd_inv_sqrt,
    spd_sqrt,
    symmetric_eigenvalues,
    symmetric_part,
    symmetry_excess,
)
from nlrpb.models import chebyshev_model
from nlrpb.pseudoboson import build_metrics, rescale


def random_symmetric(n, seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n))
    return (a + a.T) / 2.0


def random_spd(n, seed):
    rng = np.random.default_rng(seed)
    r = rng.standard_normal((n, n))
    return r.T @ r + n * np.eye(n)


class TestDefaultTolerance:
    def test_flat_region(self):
        assert default_tolerance(2) == 1e-10
        assert default_tolerance(16) == 1e-10

    def test_growth_region(self):
        assert default_tolerance(17) == pytest.approx(17e-12)
        assert default_tolerance(64) == pytest.approx(64e-12)


class TestCoercions:
    def test_as_matrix_copies(self):
        src = np.ones((2, 2))
        out = as_matrix(src)
        out[0, 0] = 5.0
        assert src[0, 0] == 1.0

    def test_as_matrix_rejects_vector(self):
        with pytest.raises(ValidationError):
            as_matrix([1.0, 2.0])

    def test_as_matrix_rejects_nan(self):
        with pytest.raises(ValidationError):
            as_matrix([[1.0, float("nan")], [0.0, 1.0]])

    def test_as_vector_rejects_matrix(self):
        with pytest.raises(ValidationError):
            as_vector([[1.0], [2.0]])

    def test_as_vector_rejects_inf(self):
        with pytest.raises(ValidationError):
            as_vector([1.0, float("inf")])


class TestResidualNorm:
    def test_golden(self):
        assert residual_norm([[3.0, 0.0]], [[0.0, 4.0]]) == pytest.approx(5.0)

    def test_zero_for_equal(self):
        a = np.arange(6.0).reshape(2, 3)
        assert residual_norm(a, a.copy()) == 0.0

    def test_shape_mismatch(self):
        with pytest.raises(ValidationError):
            residual_norm(np.ones((2, 2)), np.ones((3, 3)))


class TestFrobeniusNorm:
    # |x| <= 1e150 keeps every sum of squares of up to 36 entries finite.
    @given(
        hnp.arrays(
            np.float64,
            hnp.array_shapes(min_dims=1, max_dims=2, max_side=6),
            elements=st.floats(-1e150, 1e150, allow_nan=False) | st.sampled_from([5e-324, -0.0, 1e-160]),
        ),
        st.booleans(),
    )
    @settings(max_examples=300, deadline=None)
    def test_equals_numpy_bit_for_bit_on_finite_sums(self, x, transpose):
        x = x.T if transpose else x  # a transposed 2-d view is Fortran-ordered
        assert frobenius_norm(x).tobytes() == np.linalg.norm(x).tobytes()
        for axis in range(x.ndim):
            assert frobenius_norm(x, axis=axis).tobytes() == np.linalg.norm(x, axis=axis).tobytes()

    @pytest.mark.parametrize("over", ["raise", "ignore"])
    def test_overflowing_squares_give_the_representable_norm(self, over):
        x = np.array([[1e200, 1.0], [0.0, 2e200]])
        with np.errstate(over=over, invalid="raise", divide="raise"):
            total = frobenius_norm(x)
            rows = frobenius_norm(x, axis=1)
        assert total == pytest.approx(math.sqrt(5.0) * 1e200, rel=1e-15)
        assert rows.tolist() == [1e200, 2e200]

    @pytest.mark.parametrize("errstate", [{}, {"over": "raise", "invalid": "raise", "divide": "raise"}])
    @pytest.mark.parametrize("inf", [math.inf, -math.inf])
    def test_infinite_entry_gives_infinite_norm(self, inf, errstate):
        x = np.array([[inf, 1.0], [1.0, 2.0]])
        with np.errstate(**errstate):
            assert frobenius_norm(x[0]) == math.inf
            assert frobenius_norm(x) == math.inf
            assert frobenius_norm(x, axis=1).tolist() == [math.inf, math.sqrt(5.0)]
            assert frobenius_norm(x, axis=1).tobytes() == np.linalg.norm(x, axis=1).tobytes()

    def test_unrepresentable_norm_overflows(self):
        with np.errstate(over="raise"), pytest.raises(FloatingPointError):
            frobenius_norm([1e308, 1.7e308])


class TestJacobiEigh:
    def test_golden_metric_eigenvalues(self):
        s2 = math.sqrt(2.0)
        mat = np.array([[0.75, -s2 / 4.0], [-s2 / 4.0, 1.5]])
        lam = jacobi_eigh(mat).eigenvalues
        expected = [(9.0 - math.sqrt(17.0)) / 8.0, (9.0 + math.sqrt(17.0)) / 8.0]
        assert np.abs(lam - expected).max() < 1e-14

    def test_diagonal_input(self):
        eig = jacobi_eigh(np.diag([6.0, 3.0, 6.0]))
        assert np.array_equal(eig.eigenvalues, [3.0, 6.0, 6.0])
        assert residual_norm(eig.eigenvectors.T @ eig.eigenvectors, np.eye(3)) == 0.0

    def test_identity(self):
        eig = jacobi_eigh(np.eye(4))
        assert np.array_equal(eig.eigenvalues, np.ones(4))
        assert np.array_equal(eig.eigenvectors, np.eye(4))

    def test_zero_matrix(self):
        eig = jacobi_eigh(np.zeros((3, 3)))
        assert np.array_equal(eig.eigenvalues, np.zeros(3))
        assert np.array_equal(eig.eigenvectors, np.eye(3))

    def test_one_by_one(self):
        eig = jacobi_eigh([[7.0]])
        assert eig.eigenvalues[0] == 7.0

    @pytest.mark.parametrize("n", [2, 3, 8, 17, 33, 64])
    def test_matches_lapack_oracle(self, n):
        a = random_symmetric(n, seed=100 + n)
        eig = jacobi_eigh(a)
        ref = np.linalg.eigh(a)[0]
        scale = max(float(np.linalg.norm(a)), 1.0)
        assert np.abs(eig.eigenvalues - ref).max() < 1e-12 * scale

    @pytest.mark.parametrize("n", [2, 5, 16, 33, 64])
    def test_decomposition_properties(self, n):
        a = random_symmetric(n, seed=200 + n)
        eig = jacobi_eigh(a)
        v, lam = eig.eigenvectors, eig.eigenvalues
        assert residual_norm(v.T @ v, np.eye(n)) < 1e-13
        assert residual_norm(a @ v, v * lam) < 1e-12 * max(float(np.linalg.norm(a)), 1.0)
        assert np.all(np.diff(lam) >= 0.0)

    def test_deterministic(self):
        # A dense SPD metric: the gauged Chebyshev S_eta at N=64.
        _, system = chebyshev_model(64)
        nu = np.exp(np.random.default_rng(7).uniform(np.log(0.5), np.log(2.0), 64))
        s_eta = build_metrics(rescale(system, nu)).s_eta
        assert np.count_nonzero(np.abs(s_eta) > 1e-12) > 64 * 64 // 2
        first = jacobi_eigh(s_eta)
        values = symmetric_eigenvalues(s_eta)
        assert spd_deficit(first.eigenvalues) == 0.0
        for _ in range(49):
            again = jacobi_eigh(s_eta.copy())
            assert np.array_equal(again.eigenvalues, first.eigenvalues)
            assert np.array_equal(again.eigenvectors, first.eigenvectors)
            assert np.array_equal(symmetric_eigenvalues(s_eta.copy()), values)

    def test_sign_convention(self):
        a = random_symmetric(6, seed=11)
        vecs = jacobi_eigh(a).eigenvectors
        for j in range(6):
            lead = vecs[np.abs(vecs[:, j]) > 1e-12, j][0]
            assert lead > 0.0

    def test_rejects_asymmetric(self):
        with pytest.raises(ValidationError):
            jacobi_eigh([[1.0, 2.0], [0.0, 1.0]])

    def test_rejects_non_square(self):
        with pytest.raises(ValidationError):
            jacobi_eigh(np.ones((2, 3)))

    @pytest.mark.parametrize("skew", [0.0, 3e-13, 3.5e-13, 3.6e-13, 4e-13, 1e-9])
    def test_symmetry_rule_is_shared(self, skew):
        # ||a - a^T||_F is about 2 sqrt(2) skew, against 1e-12 max(||a||_F, 1) = 1e-12
        a = np.array([[0.5, 0.1 + skew], [0.1 - skew, 0.5]])
        excess = symmetry_excess(a)
        assert excess == residual_norm(a, a.T) - 1e-12
        if excess > 0.0:
            with pytest.raises(ValidationError, match="not symmetric"):
                jacobi_eigh(a)
        else:
            jacobi_eigh(a)
        metric_spd = verify_chwrt(np.eye(2), a)["metric_spd"]
        assert metric_spd.residual == max(0.0, excess)
        assert metric_spd.passed is (excess <= 0.0)

    def test_rejects_nan(self):
        with pytest.raises(ValidationError):
            jacobi_eigh([[float("nan"), 0.0], [0.0, 1.0]])

    def test_lapack_failure_is_convergence_error(self, monkeypatch, tmp_path, capsys):
        path = tmp_path / "pair.json"
        serialize.write_document(path, serialize.crypto_to_dict(from_nlrpb(chebyshev_model(4)[1])))

        def failing_eigh(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", failing_eigh)
        with pytest.raises(ConvergenceError):
            jacobi_eigh(random_symmetric(4, seed=3))
        assert main(["verify", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error: jacobi_eigh: ")

    def test_results_read_only(self):
        eig = jacobi_eigh(np.eye(2))
        with pytest.raises(ValueError):
            eig.eigenvalues[0] = 5.0

    @settings(deadline=None, max_examples=50)
    @given(
        st.integers(min_value=2, max_value=8),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_reconstruction_property(self, n, seed):
        a = random_symmetric(n, seed)
        eig = jacobi_eigh(a)
        recon = (eig.eigenvectors * eig.eigenvalues) @ eig.eigenvectors.T
        assert residual_norm(recon, a) < 1e-12 * max(float(np.linalg.norm(a)), 1.0)


class TestSymmetricEigenvalues:
    @settings(deadline=None, max_examples=60)
    @given(
        st.integers(min_value=1, max_value=64),
        st.integers(min_value=0, max_value=2**31 - 1),
        st.one_of(st.none(), st.floats(min_value=0.0, max_value=12.0)),
    )
    def test_matches_jacobi_eigh(self, n, seed, log_cond):
        # log_cond None: a random symmetric matrix; otherwise an SPD one
        # with eigenvalues log-spaced over [10**-log_cond, 1]
        if log_cond is None:
            a = random_symmetric(n, seed)
        else:
            q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((n, n)))
            a = (q * np.logspace(0.0, -log_cond, n)) @ q.T
            a = (a + a.T) / 2.0
        lam = symmetric_eigenvalues(a)
        ref = jacobi_eigh(a).eigenvalues
        assert lam.shape == (n,)
        assert np.all(np.diff(lam) >= 0.0)
        assert np.abs(lam - ref).max() <= 8 * n * np.finfo(float).eps * np.abs(ref).max()

    @pytest.mark.parametrize(
        "bad",
        [
            [[float("nan"), 0.0], [0.0, 1.0]],
            [[1.0, float("inf")], [float("inf"), 1.0]],
            [1.0, 2.0],
            np.ones((2, 2, 2)),
            np.ones((0, 0)),
            np.ones((2, 3)),
            [[1.0, 2.0], [0.0, 1.0]],
        ],
        ids=["nan", "inf", "1-d", "3-d", "empty", "non-square", "asymmetric"],
    )
    def test_rejects_what_jacobi_eigh_rejects(self, bad):
        with pytest.raises(ValidationError) as vectors:
            jacobi_eigh(bad)
        with pytest.raises(ValidationError) as values:
            symmetric_eigenvalues(bad)
        assert str(values.value) == str(vectors.value).replace("jacobi_eigh", "symmetric_eigenvalues")

    def test_lapack_failure_is_convergence_error(self, monkeypatch, tmp_path, capsys):
        path = tmp_path / "system.json"
        serialize.write_document(path, serialize.system_to_dict(chebyshev_model(4)[1]))

        def failing_eigvalsh(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigvalsh", failing_eigvalsh)
        with pytest.raises(ConvergenceError):
            symmetric_eigenvalues(random_symmetric(4, seed=3))
        assert main(["verify", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error: symmetric_eigenvalues: ")

    def test_input_is_not_modified(self):
        a = random_symmetric(5, seed=4)
        a[0, 1] += 1e-14  # asymmetric within the rule's tolerance
        before = a.copy()
        symmetric_eigenvalues(a)
        jacobi_eigh(a)
        assert np.array_equal(a, before)


# Entries whose halves are not subnormal and whose pairwise sums stay finite.
_NORMAL_HALVES = st.floats(min_value=-8e307, max_value=8e307).filter(lambda x: x == 0.0 or abs(x) >= 2 * np.finfo(float).tiny)


class TestSymmetricPart:
    @settings(deadline=None, max_examples=200)
    @given(st.integers(min_value=1, max_value=6).flatmap(lambda n: hnp.arrays(float, (n, n), elements=_NORMAL_HALVES)))
    def test_bit_for_bit_the_halved_sum(self, a):
        assert symmetric_part(a).tobytes() == ((a + a.T) / 2.0).tobytes()

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_entries_near_the_float64_range(self, sign):
        # a + a^T overflows to inf, which made both solvers return NaN
        # eigenvalues and spd_deficit read them as positive definite.
        a = np.diag([sign * 1e308, sign * 5e307])
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            assert np.array_equal(symmetric_part(a), a)
            lam = symmetric_eigenvalues(a)
            eig = jacobi_eigh(a)
        expected = sorted([sign * 1e308, sign * 5e307])
        assert lam.tolist() == expected
        assert eig.eigenvalues.tolist() == expected
        assert (spd_deficit(lam) == 0.0) == (sign > 0.0)

    def test_spd_roots_near_the_float64_range(self):
        a = np.diag([1e308, 5e307])
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            root, inv_root = spd_sqrt(a), spd_inv_sqrt(a)
        assert np.allclose(root, np.diag(np.sqrt([1e308, 5e307])), rtol=1e-15, atol=0.0)
        assert np.allclose(inv_root, np.diag(1.0 / np.sqrt([1e308, 5e307])), rtol=1e-15, atol=0.0)


class TestSpdDeficit:
    def test_zero_for_spd(self):
        assert spd_deficit(np.array([1.0, 2.0])) == 0.0

    def test_positive_for_negative_eigenvalue(self):
        assert spd_deficit(np.array([-1.0, 2.0])) > 0.0

    def test_zero_matrix_spectrum_fails(self):
        assert spd_deficit(np.array([0.0, 0.0])) == 1.0

    def test_relative_gate(self):
        lam = np.array([0.5 * SPD_GATE, 1.0])
        assert spd_deficit(lam) > 0.0
        lam_ok = np.array([2.0 * SPD_GATE, 1.0])
        assert spd_deficit(lam_ok) == 0.0


class TestSpdSqrt:
    def test_diagonal_golden(self):
        assert residual_norm(spd_sqrt(np.diag([4.0, 9.0])), np.diag([2.0, 3.0])) < 1e-15

    def test_square_roundtrip(self):
        a = random_spd(6, seed=21)
        r = spd_sqrt(a)
        assert residual_norm(r @ r, a) < 1e-12 * float(np.linalg.norm(a))
        assert residual_norm(r, r.T) == 0.0

    def test_inv_sqrt_inverts_sqrt(self):
        a = random_spd(5, seed=22)
        assert residual_norm(spd_sqrt(a) @ spd_inv_sqrt(a), np.eye(5)) < 1e-12

    def test_rejects_indefinite(self):
        with pytest.raises(ValidationError):
            spd_sqrt(np.diag([1.0, -1.0]))

    def test_rejects_singular(self):
        with pytest.raises(ValidationError):
            spd_inv_sqrt(np.diag([1.0, 0.0]))

    def test_rejects_asymmetric(self):
        with pytest.raises(ValidationError):
            spd_sqrt([[1.0, 1.0], [0.0, 1.0]])
