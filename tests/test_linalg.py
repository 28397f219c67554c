import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from nlrpb import linalg, serialize
from nlrpb.cli import main
from nlrpb.cryptoherm import from_nlrpb, verify_chwrt
from nlrpb.errors import ConvergenceError, ValidationError
from nlrpb.linalg import (
    SPD_GATE,
    SymEig,
    as_matrix,
    as_vector,
    default_tolerance,
    frobenius_norm,
    jacobi_eigh,
    residual_norm,
    spd_deficit,
    spd_inv_sqrt,
    spd_sqrt,
    symmetric_part,
    symmetric_part_eigenvalues,
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


def permuted_block_diagonal(seed):
    """Random symmetric blocks on the diagonal, rows and columns permuted:
    each eigenvector is zero outside its block, so its leading entry above
    the sign cutoff may lie below row 0."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 9))
    a = np.zeros((n, n))
    start = 0
    while start < n:
        stop = int(rng.integers(start + 1, n + 1))
        a[start:stop, start:stop] = random_symmetric(stop - start, seed=[seed, start])
        start = stop
    perm = rng.permutation(n)
    return a[np.ix_(perm, perm)]


def gauged_chebyshev_s_eta(n, seed):
    """A dense SPD metric: S_eta of the Chebyshev system in a seeded gauge."""
    _, system = chebyshev_model(n)
    nu = np.exp(np.random.default_rng(seed).uniform(np.log(0.5), np.log(2.0), n))
    return build_metrics(rescale(system, nu)).s_eta


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
        s_eta = gauged_chebyshev_s_eta(64, seed=7)
        assert np.count_nonzero(np.abs(s_eta) > 1e-12) > 64 * 64 // 2
        first = jacobi_eigh(s_eta)
        values = symmetric_part_eigenvalues(s_eta)[0]
        assert spd_deficit(first.eigenvalues) == 0.0
        for _ in range(49):
            again = jacobi_eigh(s_eta.copy())
            assert np.array_equal(again.eigenvalues, first.eigenvalues)
            assert np.array_equal(again.eigenvectors, first.eigenvectors)
            assert np.array_equal(symmetric_part_eigenvalues(s_eta.copy())[0], values)

    def test_sign_convention(self):
        # LAPACK's vectors, each column flipped when its first entry above
        # 1e-12 is negative and only then, every other bit kept.  Permuted
        # block-diagonal inputs put exact zeros above that entry.
        flipped_below_row_0 = 0
        inputs = [random_symmetric(6, seed=11)] + [permuted_block_diagonal(seed) for seed in range(400)]
        for i, a in enumerate(inputs):
            vecs = jacobi_eigh(a).eigenvectors
            for j in range(a.shape[0]):
                lead = vecs[np.abs(vecs[:, j]) > 1e-12, j][0]
                assert lead > 0.0
            raw = np.linalg.eigh(symmetric_part(a))[1]
            lead_row = np.argmax(np.abs(raw) > 1e-12, axis=0)
            negative = raw[lead_row, np.arange(raw.shape[1])] < 0.0
            raw[:, negative] *= -1.0
            assert vecs.tobytes() == raw.tobytes(), i
            flipped_below_row_0 += bool(np.any(negative & (lead_row > 0)))
        assert flipped_below_row_0 >= 100

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
    def test_rejects_invalid_input_by_name(self, bad):
        with pytest.raises(ValidationError, match="^jacobi_eigh: "):
            jacobi_eigh(bad)

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


class TestSymmetricPartEigenvalues:
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
        lam, excess, sym = symmetric_part_eigenvalues(a)
        ref = jacobi_eigh(a).eigenvalues
        assert excess == 0.0
        assert sym is a  # the split of an exactly symmetric matrix is the matrix
        assert lam.shape == (n,)
        assert np.all(np.diff(lam) >= 0.0)
        assert np.abs(lam - ref).max() <= 8 * n * np.finfo(float).eps * np.abs(ref).max()
        if n > 1:
            # one off-diagonal entry moved: the split is the symmetric part, solved as returned
            skew = a.copy()
            skew[0, 1] += 1e-14
            lam, excess, sym = symmetric_part_eigenvalues(skew)
            assert sym.tobytes() == symmetric_part(skew).tobytes()
            assert excess == symmetry_excess(skew) <= 0.0
            assert lam.tobytes() == np.linalg.eigvalsh(sym).tobytes()

    def test_lapack_failure_is_convergence_error(self, monkeypatch, tmp_path, capsys):
        path = tmp_path / "system.json"
        serialize.write_document(path, serialize.system_to_dict(chebyshev_model(4)[1]))

        def failing_eigvalsh(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigvalsh", failing_eigvalsh)
        with pytest.raises(ConvergenceError):
            symmetric_part_eigenvalues(random_symmetric(4, seed=3))
        assert main(["verify", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error: symmetric_part_eigenvalues: ")

    def test_input_is_not_modified(self):
        a = random_symmetric(5, seed=4)
        a[0, 1] += 1e-14  # asymmetric within the rule's tolerance
        before = a.copy()
        symmetric_part_eigenvalues(a)
        jacobi_eigh(a)
        assert np.array_equal(a, before)


SOLVERS = (jacobi_eigh, spd_sqrt, spd_inv_sqrt, symmetric_part_eigenvalues)


def solver_bytes(a):
    """What each of SOLVERS gives on ``a``: the bytes of its arrays, or its
    error text; for the values solve, its eigenvalues' bytes and the excess
    that ``metric_spd`` reports, max(0, excess)."""
    out = []
    for solve in SOLVERS:
        try:
            result = solve(a)
        except ValidationError as exc:
            out.append(str(exc))
            continue
        if isinstance(result, tuple):
            out.append((result[0].tobytes(), max(0.0, result[1])))
            continue
        arrays = (result.eigenvalues, result.eigenvectors) if isinstance(result, SymEig) else (result,)
        out.append(b"".join(x.tobytes() for x in arrays))
    return out


def full_split(a):
    """``_symmetric_split`` without its exact-symmetry test: every input is
    measured against the tolerance and solved as its symmetric part."""
    return symmetric_part(a), symmetry_excess(a)


class TestExactSymmetry:
    @pytest.mark.parametrize(
        "a",
        [
            [[2.0]],
            np.zeros((3, 3)),
            gauged_chebyshev_s_eta(5, seed=5),
            gauged_chebyshev_s_eta(32, seed=5),
            np.diag([1e308, 5e307]),
        ],
        ids=["n1", "zeros", "gauged-chebyshev-5", "gauged-chebyshev-32", "near-overflow"],
    )
    def test_same_bytes_as_the_full_rule(self, monkeypatch, a):
        a = np.array(a)
        assert np.array_equal(a.view(np.int64), a.T.view(np.int64))
        with np.errstate(over="raise", invalid="raise", divide="raise"):  # the CLI's setting
            fast = solver_bytes(a)
            monkeypatch.setattr(linalg, "_symmetric_split", full_split)
            assert solver_bytes(a) == fast

    def test_entries_below_the_halving_limit_are_kept(self, monkeypatch):
        # Halving rounds below 2^-1021 (5e-324 halves to 0), so the full rule
        # solves a rounded diag(3e-310, 1e-310); the exact path solves the
        # input as given, off-diagonal entries included.
        a = np.array([[3e-310, 5e-324], [5e-324, 1e-310]])
        rounded = symmetric_part(a)
        assert rounded[0, 1] == 0.0 and rounded[0, 0] != a[0, 0]
        fast = [solve(a) for solve in SOLVERS]
        monkeypatch.setattr(linalg, "_symmetric_split", full_split)
        full = [solve(a) for solve in SOLVERS]
        for out, solved in ((fast, a), (full, rounded)):
            lam, vecs = np.linalg.eigh(solved)
            vecs *= np.copysign(1.0, vecs[np.argmax(np.abs(vecs) > 1e-12, axis=0), [0, 1]])
            assert out[0].eigenvalues.tobytes() == lam.tobytes()
            assert out[0].eigenvectors.tobytes() == vecs.tobytes()
            assert out[3][0].tobytes() == np.linalg.eigvalsh(solved).tobytes()
        assert fast[0].eigenvalues == pytest.approx(full[0].eigenvalues, rel=1e-9)
        assert fast[0].eigenvectors[0, 0] == pytest.approx(-5e-324 / 2e-310, rel=1e-9)
        assert np.array_equal(full[0].eigenvectors, [[0.0, 1.0], [1.0, 0.0]])
        for fast_root, full_root in zip(fast[1:3], full[1:3]):
            assert fast_root[0, 1] == fast_root[1, 0] != 0.0
            assert full_root[0, 1] == full_root[1, 0] == 0.0

    @pytest.mark.parametrize(
        "a",
        [
            random_spd(4, seed=6) + np.triu(np.full((4, 4), 1e-14), 1),
            np.array([[2.0, 0.0], [-0.0, 1.0]]),
        ],
        ids=["skew-1e-14", "signed-zero"],
    )
    def test_asymmetric_within_tolerance_is_symmetrized(self, monkeypatch, a):
        # 0.0 == -0.0, but symmetric_part makes the pair +0.0, and LAPACK's
        # vectors can carry the sign of a zero input: exactness compares bits.
        assert symmetry_excess(a) <= 0.0 and not np.array_equal(a.view(np.int64), a.T.view(np.int64))
        solved = []

        def recording(solve):
            return lambda m: solved.append(m.copy()) or solve(m)

        for name in ("eigh", "eigvalsh"):
            monkeypatch.setattr(np.linalg, name, recording(getattr(np.linalg, name)))
        solver_bytes(a)
        assert len(solved) == len(SOLVERS)
        assert all(m.tobytes() == symmetric_part(a).tobytes() for m in solved)

    def test_asymmetric_beyond_tolerance_raises_or_returns_the_excess(self):
        a = random_spd(4, seed=6) + np.triu(np.full((4, 4), 1e-9), 1)
        out = solver_bytes(a)
        assert out[:3] == ["jacobi_eigh: matrix is not symmetric within tolerance"] * 3
        assert out[3] == (np.linalg.eigvalsh(symmetric_part(a)).tobytes(), symmetry_excess(a))
        assert symmetry_excess(a) > 0.0


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
            lam = symmetric_part_eigenvalues(a)[0]
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

    @pytest.mark.parametrize(
        "a",
        [[[2.0]], gauged_chebyshev_s_eta(32, seed=5), np.diag([1e308, 5e307])],
        ids=["n1", "gauged-chebyshev-32", "near-overflow"],
    )
    @pytest.mark.parametrize("root", [spd_sqrt, spd_inv_sqrt])
    def test_independent_of_eigenvector_signs(self, monkeypatch, a, root):
        eigh = np.linalg.eigh

        def flipping_eigh(m):
            lam, vecs = eigh(m)
            return lam, vecs * flip

        with np.errstate(over="raise", invalid="raise", divide="raise"):  # the CLI's setting
            expected = root(a)
            monkeypatch.setattr(np.linalg, "eigh", flipping_eigh)
            for seed in range(8):
                flip = np.where(np.random.default_rng(seed).random(len(a)) < 0.5, -1.0, 1.0)
                assert root(a).tobytes() == expected.tobytes(), seed
