import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contraction_lab.errors import NonFiniteError, NonSymmetricError
from contraction_lab.linalg import (
    SYMMETRY_TOL,
    log_norm_2,
    max_eigenvalue,
    spectral_norm,
    symmetric_eigenvalues,
    symmetric_part,
    vector_norms,
)


def random_symmetric(rng, n, scale=1.0):
    a = rng.normal(size=(n, n), scale=scale)
    return (a + a.T) / 2


class TestMaxEigenvalue:
    def test_identity(self):
        assert max_eigenvalue(np.eye(2)) == pytest.approx(1.0, abs=1e-12)

    def test_diagonal(self):
        assert max_eigenvalue(np.diag([-1.0, -3.0])) == pytest.approx(-1.0, abs=1e-12)

    @pytest.mark.parametrize(
        "a, lam",
        [
            ([[2.0, 1.0], [1.0, 2.0]], 3.0),
            (np.diag([-1.0, -1.0]), -1.0),
            (np.diag([-1.0, 0.0]), 0.0),
            ([[-2.0, 1.0], [1.0, -2.0]], -1.0),
        ],
    )
    def test_two_by_two(self, a, lam):
        assert max_eigenvalue(a) == pytest.approx(lam, abs=1e-12)

    def test_rejects_asymmetric(self):
        with pytest.raises(NonSymmetricError):
            max_eigenvalue([[0.0, 1.0], [0.0, 0.0]])

    def test_rejects_nonfinite(self):
        with pytest.raises(NonFiniteError):
            max_eigenvalue([[np.nan, 0.0], [0.0, 1.0]])

    def test_matches_lapack_oracle(self, rng):
        for _ in range(200):
            n = int(rng.integers(1, 9))
            a = random_symmetric(rng, n, scale=rng.uniform(0.1, 10))
            expected = np.linalg.eigvalsh(a)
            got = symmetric_eigenvalues(a)
            assert np.allclose(got, expected, rtol=1e-10, atol=1e-12)

    def test_matches_mpmath_oracle(self, rng):
        # Independent of LAPACK: mpmath's symmetric eigensolver at 40 digits
        # on the same entries, which convert to mpf exactly.
        for _ in range(30):
            n = int(rng.integers(2, 9))
            a = random_symmetric(rng, n, scale=rng.uniform(0.1, 10))
            with mp.workdps(40):
                exact = np.sort([float(v) for v in mp.eigsy(mp.matrix(a.tolist()), eigvals_only=True)])
            got = symmetric_eigenvalues(a)
            assert np.max(np.abs(got - exact)) <= 1e-12 * np.max(np.abs(exact))

    def test_similarity_invariance(self, rng):
        # QR of a random matrix gives a random orthogonal Q; the largest
        # eigenvalue of Q D Q^T must equal the largest diagonal of D.
        for _ in range(100):
            n = int(rng.integers(2, 9))
            q, _ = np.linalg.qr(rng.normal(size=(n, n)))
            d = rng.normal(size=n, scale=5)
            a = symmetric_part(q @ np.diag(d) @ q.T)
            assert max_eigenvalue(a) == pytest.approx(d.max(), rel=1e-9, abs=1e-10)


class TestSpectralNorm:
    def test_zero(self):
        assert spectral_norm(np.zeros((3, 3))) == 0.0

    def test_diagonal_abs_max(self):
        assert spectral_norm(np.diag([3.0, -4.0])) == pytest.approx(4.0, abs=1e-12)

    def test_single_singular_value(self):
        assert spectral_norm([[0.0, 2.0], [0.0, 0.0]]) == pytest.approx(2.0, abs=1e-12)

    def test_matches_numpy(self, rng):
        for _ in range(200):
            n = int(rng.integers(1, 9))
            a = rng.normal(size=(n, n))
            assert spectral_norm(a) == pytest.approx(np.linalg.norm(a, 2), rel=1e-9, abs=1e-11)


class TestLogNorm:
    def test_identity(self):
        assert log_norm_2(np.eye(3)) == pytest.approx(1.0, abs=1e-12)

    def test_skew_symmetric(self):
        assert log_norm_2([[0.0, 1.0], [-1.0, 0.0]]) == pytest.approx(0.0, abs=1e-12)

    def test_diagonal(self):
        assert log_norm_2(np.diag([-1.0, -2.0])) == pytest.approx(-1.0, abs=1e-12)

    def test_bounded_by_spectral_norm(self, rng):
        for _ in range(200):
            a = rng.normal(size=(4, 4))
            assert log_norm_2(a) <= spectral_norm(a) + 1e-10


class TestOrderingLemma:
    """mu_2 is monotone along the positive-semidefinite order."""

    def test_thousand_cases(self, rng):
        for _ in range(1000):
            n = int(rng.integers(1, 9))
            a = random_symmetric(rng, n, scale=3.0)
            r = rng.normal(size=(n, n))
            b = a + r.T @ r  # b - a is positive semidefinite
            assert log_norm_2(a) <= log_norm_2(b) + 1e-10


class TestProductLemma:
    """mu_2(AB) <= ||A||_2 ||B||_2."""

    def test_thousand_cases(self, rng):
        for _ in range(1000):
            n = int(rng.integers(1, 9))
            a = rng.normal(size=(n, n), scale=rng.uniform(0.1, 3))
            b = rng.normal(size=(n, n), scale=rng.uniform(0.1, 3))
            assert log_norm_2(a @ b) <= spectral_norm(a) * spectral_norm(b) + 1e-9


class TestSubadditivity:
    def test_thousand_cases(self, rng):
        for _ in range(1000):
            n = int(rng.integers(1, 9))
            a = rng.normal(size=(n, n))
            b = rng.normal(size=(n, n))
            assert log_norm_2(a + b) <= log_norm_2(a) + log_norm_2(b) + 1e-9


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(-50, 50), min_size=2, max_size=6))
def test_diagonal_max_eigenvalue_is_max_entry(entries):
    assert max_eigenvalue(np.diag(entries)) == pytest.approx(max(entries), rel=1e-12, abs=1e-12)


@settings(max_examples=100, deadline=None)
@given(
    st.integers(1, 5),
    st.floats(0.1, 10),
    st.integers(0, 2**32 - 1),
)
def test_scaling_homogeneity(n, scale, seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n, n))
    assert spectral_norm(scale * a) == pytest.approx(scale * spectral_norm(a), rel=1e-10, abs=1e-12)
    assert log_norm_2(scale * a) == pytest.approx(scale * log_norm_2(a), rel=1e-10, abs=1e-10)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 7])
def test_vector_norms_equal_per_vector_norms_bit_for_bit(rng, n):
    # The per-vector loop is the reference; the batch must not move a last digit.
    v = rng.normal(size=(6, 50, n)) * rng.uniform(0.01, 100.0, size=(6, 50, 1))
    expected = np.array([[np.linalg.norm(vec) for vec in block] for block in v])
    assert np.array_equal(vector_norms(v), expected)
    assert np.array_equal(vector_norms(v[:, 0] - v[:, 1]), [np.linalg.norm(a - b) for a, b in zip(v[:, 0], v[:, 1])])


class TestStacks:
    """A (..., n, n) stack gives each matrix's value in one call, checked as a whole."""

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_stack_equals_per_matrix_calls_bit_for_bit(self, rng, n):
        # The per-matrix loop is the reference; the stack must not move a last digit.
        general = rng.normal(size=(4, 25, n, n)) * rng.uniform(0.01, 100.0, size=(4, 25, 1, 1))
        sym = (general + np.swapaxes(general, -1, -2)) / 2
        assert np.array_equal(symmetric_eigenvalues(sym), [[symmetric_eigenvalues(a) for a in b] for b in sym])
        assert np.array_equal(max_eigenvalue(sym), [[max_eigenvalue(a) for a in b] for b in sym])
        assert np.array_equal(spectral_norm(general), [[spectral_norm(a) for a in b] for b in general])
        assert symmetric_eigenvalues(sym).shape == (4, 25, n)
        assert max_eigenvalue(sym).shape == spectral_norm(general).shape == (4, 25)
        assert isinstance(max_eigenvalue(sym[0, 0]), float) and isinstance(spectral_norm(general[0, 0]), float)

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("fn", [symmetric_eigenvalues, max_eigenvalue, spectral_norm])
    def test_one_non_finite_matrix_raises(self, rng, fn, bad, n):
        stack = np.stack([random_symmetric(rng, n) for _ in range(6)])
        stack[4, n - 1, 0] = bad
        with pytest.raises(NonFiniteError):
            fn(stack)

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("fn", [symmetric_eigenvalues, max_eigenvalue])
    def test_one_asymmetric_matrix_raises_beyond_tolerance(self, rng, fn, n):
        stack = np.stack([random_symmetric(rng, n) for _ in range(6)])
        stack[3, 0, n - 1] += 0.5 * SYMMETRY_TOL  # roundoff-level: scrubbed
        fn(stack)
        stack[4, n - 1, 0] += 2.0 * SYMMETRY_TOL
        with pytest.raises(NonSymmetricError):
            fn(stack)

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("fn", [symmetric_eigenvalues, max_eigenvalue, spectral_norm])
    def test_non_square_trailing_shape_raises(self, fn, n):
        for shape in [(5, n, n + 1), (5, n + 1, n), (2, 5, n), (n,)]:
            with pytest.raises(ValueError, match="square"):
                fn(np.zeros(shape))
