import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from conftest import SIGMA_X, SIGMA_Z, random_hermitian
from fisherlab import StateFamily, evaluate, hermitian_eig, seminorm
from fisherlab.errors import DimMismatchError, NonHermitianError
from fisherlab.numerics import HERMITICITY_RTOL, as_state_vector, require_hermitian
from test_measurement import count_eigh


def taylor_expm(matrix: np.ndarray, terms: int = 60) -> np.ndarray:
    """Term-by-term Taylor series of exp(matrix), the textbook definition."""
    result = np.eye(matrix.shape[0], dtype=complex)
    term = np.eye(matrix.shape[0], dtype=complex)
    for k in range(1, terms):
        term = term @ matrix / k
        result = result + term
    return result


class TestHermitianEig:
    def test_diagonal_two_level(self):
        dec = hermitian_eig(np.diag([0.0, 1.0]).astype(complex))
        assert_allclose(dec.eigenvalues, [0.0, 1.0], atol=1e-14)
        assert_allclose(dec.eigenvectors, np.eye(2), atol=1e-14)

    def test_sigma_x_spectrum(self):
        dec = hermitian_eig(SIGMA_X)
        assert_allclose(dec.eigenvalues, [-1.0, 1.0], atol=1e-14)

    def test_diagonal_sorted_ascending(self):
        dec = hermitian_eig(np.diag([3.0, 1.0, 0.0]).astype(complex))
        assert_allclose(dec.eigenvalues, [0.0, 1.0, 3.0], atol=1e-14)

    def test_rejects_non_hermitian(self):
        with pytest.raises(NonHermitianError):
            hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))

    @pytest.mark.parametrize("shape", [(2, 3), (4,), (0, 0), (1, 2, 2)])
    def test_rejects_non_square_operators(self, shape):
        with pytest.raises(NonHermitianError, match="square matrix"):
            require_hermitian(np.zeros(shape))

    def test_accepts_rounding_level_asymmetry(self):
        mat = SIGMA_X + np.array([[0.0, 1e-15], [0.0, 0.0]])
        require_hermitian(mat)

    @pytest.mark.parametrize("size", [1.0, 1e6])
    @pytest.mark.parametrize("skew, accepted", [(0.9e-12, True), (1.1e-12, False)])
    def test_hermiticity_band_edge(self, size, skew, accepted):
        # max|M| = size and max|M - M^H| = skew * size, against HERMITICITY_RTOL * max|M|.
        mat = size * np.array([[1.0, skew], [0.0, -1.0]])
        if accepted:
            require_hermitian(mat)
        else:
            with pytest.raises(NonHermitianError, match="is not Hermitian"):
                require_hermitian(mat)

    def test_reconstruction_and_orthonormality(self, rng):
        for dim in (2, 4, 8):
            mat = random_hermitian(dim, rng, spectral_radius=3.0)
            dec = hermitian_eig(mat)
            rebuilt = (dec.eigenvectors * dec.eigenvalues) @ dec.eigenvectors.conj().T
            assert_allclose(rebuilt, mat, atol=1e-9)
            gram = dec.eigenvectors.conj().T @ dec.eigenvectors
            assert_allclose(gram, np.eye(dim), atol=1e-10)

    def test_residual_per_eigenpair(self, rng):
        mat = random_hermitian(6, rng, spectral_radius=2.0)
        dec = hermitian_eig(mat)
        for val, vec in zip(dec.eigenvalues, dec.eigenvectors.T):
            assert np.linalg.norm(mat @ vec - val * vec) <= 1e-10 * (1.0 + abs(val))


def diagonal_cases():
    """2,790 diagonal operators with distinct entries, which ``hermitian_eig`` sorts.

    d = 2..32; magnitudes drawn from 1e-30..1e-20, 1e-5..1e5, 1e20..1e30 and
    1e-30..1e30, or distinct integers around 0; stored real, complex, or
    complex with diagonal imaginary parts inside the Hermiticity band, which
    LAPACK does not read.
    """
    rng = np.random.default_rng(36)
    scales = [(-30, -20), (-5, 5), (20, 30), (-30, 30), None]
    for dim in range(2, 33):
        for scale in scales:
            for kind in ("real", "complex", "rounding"):
                for _ in range(6):
                    if scale is None:
                        entries = (rng.permutation(dim) - dim // 2).astype(float)
                    else:
                        entries = rng.choice([-1.0, 1.0], dim) * 10.0 ** rng.uniform(*scale, dim)
                    assert len(set(entries.tolist())) == dim
                    mat = np.diag(entries)
                    if kind != "real":
                        mat = mat.astype(complex)
                    if kind == "rounding":
                        band = 0.4 * HERMITICITY_RTOL * np.abs(entries).max()
                        mat[np.diag_indices(dim)] += 1j * band * rng.uniform(-1.0, 1.0, dim)
                    yield mat


def assert_eigh_result(got, mat, eigh=np.linalg.eigh) -> None:
    """``got`` is what ``eigh`` returns for ``mat`` as a complex array, bit for bit."""
    want = eigh(np.asarray(mat, dtype=complex))
    assert type(got) is type(want)
    for part, other in zip(got, want):
        assert (part.dtype, part.shape) == (other.dtype, other.shape)
        assert part.flags.c_contiguous and other.flags.c_contiguous
        assert part.tobytes() == other.tobytes()


class TestDiagonalEig:
    """``hermitian_eig`` sorts a diagonal with distinct entries into ``eigh``'s own result."""

    def test_sorted_diagonals_equal_eigh_bit_for_bit(self, monkeypatch):
        eigh = np.linalg.eigh
        calls = count_eigh(monkeypatch)
        count = 0
        for mat in diagonal_cases():
            assert_eigh_result(hermitian_eig(mat), mat, eigh)
            count += 1
        assert (count, calls) == (2790, [])

    @pytest.mark.parametrize(
        "top, sorted_here",
        [
            (2.0**-485, True),
            (2.0**485, True),
            (np.nextafter(2.0**-485, 0.0), False),
            (np.nextafter(2.0**485, np.inf), False),
            (1e-200, False),
            (1e200, False),
        ],
    )
    def test_lapacks_scaling_range_bounds_the_sorted_path(self, top, sorted_here, monkeypatch):
        # zheevd rescales a matrix whose largest entry lies outside [2**-485, 2**485],
        # which rounds its eigenvalues: 1e-200 and 1e200 diagonals do not come back as given.
        eigh = np.linalg.eigh
        calls = count_eigh(monkeypatch)
        mat = np.diag([-0.3 * top, 0.0, 0.7 * top, top])
        assert_eigh_result(hermitian_eig(mat), mat, eigh)
        assert len(calls) == (0 if sorted_here else 1)

    @pytest.mark.parametrize(
        "entries",
        [[1.0, 1.0], [0.0, -0.0, 1.0], [-0.0, 0.0], [2.0, 1.0, 2.0], [3.0, -1.0, 5.0, -1.0]],
    )
    def test_tied_entries_reach_eigh(self, entries, monkeypatch):
        eigh = np.linalg.eigh
        calls = count_eigh(monkeypatch)
        mat = np.diag(entries)
        assert_eigh_result(hermitian_eig(mat), mat, eigh)
        assert len(calls) == 1

    @pytest.mark.parametrize("value", [1e-300, 1e-300j, 5e-324, -5e-324j, 0.5])
    @pytest.mark.parametrize("dim", [2, 5])
    def test_any_nonzero_off_diagonal_entry_reaches_eigh(self, dim, value, monkeypatch):
        eigh = np.linalg.eigh
        calls = count_eigh(monkeypatch)
        base = np.diag(np.arange(1.0, dim + 1.0)).astype(complex)
        for row, col in zip(*np.triu_indices(dim, 1)):
            mat = base.copy()
            mat[row, col], mat[col, row] = value, np.conj(value)
            assert_eigh_result(hermitian_eig(mat), mat, eigh)
        assert len(calls) == dim * (dim - 1) // 2

    def test_one_dimensional_operator_reaches_eigh(self, monkeypatch):
        eigh = np.linalg.eigh
        calls = count_eigh(monkeypatch)
        assert_eigh_result(hermitian_eig([[2.5]]), [[2.5]], eigh)
        assert calls == [(1, 1)]


class TestStateVector:
    @pytest.mark.parametrize("entries", [[], [[1.0]], [[1.0, 0.0], [0.0, 1.0]], 1.0])
    def test_rejects_empty_or_non_vector_input(self, entries):
        with pytest.raises(DimMismatchError, match="one-dimensional and non-empty"):
            as_state_vector(entries)


def evolution(gen, lam: float) -> np.ndarray:
    """``exp(-i lam gen)`` as families compute it from ``hermitian_eig``: evolved basis states."""
    basis = np.eye(len(gen), dtype=complex)
    return np.column_stack([evaluate(StateFamily(gen, state), lam) for state in basis])


class TestUnitaryExp:
    """The spectral matrix exponential behind ``evaluate`` against the Taylor series."""

    def test_diagonal_generator(self):
        lam = 0.83
        expected = np.diag([np.exp(-0.5j * lam), np.exp(0.5j * lam)])
        assert_allclose(evolution(SIGMA_Z / 2.0, lam), expected, atol=1e-12)

    def test_zero_parameter_is_identity(self, rng):
        mat = random_hermitian(5, rng)
        assert_allclose(evolution(mat, 0.0), np.eye(5), atol=1e-14)

    def test_sigma_x_half_turn_matches_taylor_series(self):
        got = evolution(SIGMA_X, np.pi)
        oracle = taylor_expm(-1j * np.pi * SIGMA_X)
        assert_allclose(got, oracle, atol=5e-15)
        assert_allclose(got, -np.eye(2), atol=1e-13)

    def test_sigma_x_quarter_turn_matches_taylor_series(self):
        got = evolution(SIGMA_X, np.pi / 2.0)
        oracle = taylor_expm(-0.5j * np.pi * SIGMA_X)
        assert_allclose(got, oracle, atol=5e-15)
        assert_allclose(got, -1j * SIGMA_X, atol=1e-13)

    def test_result_is_unitary(self, rng):
        for dim in (2, 3, 8):
            u = evolution(random_hermitian(dim, rng, spectral_radius=4.0), 1.7)
            assert np.max(np.abs(u.conj().T @ u - np.eye(dim))) <= 1e-10

    @settings(max_examples=30, deadline=None)
    @given(
        a=st.floats(min_value=-10.0, max_value=10.0),
        b=st.floats(min_value=-10.0, max_value=10.0),
    )
    def test_group_property(self, a, b):
        gen = random_hermitian(4, np.random.default_rng(7), spectral_radius=2.0)
        combined = evolution(gen, a + b)
        split = evolution(gen, a) @ evolution(gen, b)
        assert_allclose(combined, split, atol=1e-9)


class TestSeminorm:
    def test_half_sigma_z(self):
        assert seminorm(SIGMA_Z / 2.0) == pytest.approx(1.0, abs=1e-12)

    def test_identity_is_zero(self):
        assert seminorm(np.eye(4)) == pytest.approx(0.0, abs=1e-14)

    def test_diagonal(self):
        assert seminorm(np.diag([3.0, 1.0, 0.0])) == pytest.approx(3.0, abs=1e-12)

    @settings(max_examples=50, deadline=None)
    @given(shift=st.floats(min_value=-10.0, max_value=10.0))
    def test_shift_invariance(self, shift):
        mat = random_hermitian(5, np.random.default_rng(11), spectral_radius=2.0)
        base = seminorm(mat)
        shifted = seminorm(mat + shift * np.eye(5))
        assert abs(shifted - base) <= 1e-12

    @settings(max_examples=50, deadline=None)
    @given(scale=st.floats(min_value=-100.0, max_value=100.0))
    def test_absolute_homogeneity(self, scale):
        mat = random_hermitian(4, np.random.default_rng(13), spectral_radius=1.5)
        assert seminorm(scale * mat) == pytest.approx(abs(scale) * seminorm(mat), abs=1e-10)


class TestInner:
    """Inner-product conventions of ``np.vdot``, which the package uses for ``<a|b>``."""

    def test_basis_vectors(self):
        e0 = np.array([1.0, 0.0], dtype=complex)
        e1 = np.array([0.0, 1.0], dtype=complex)
        assert np.vdot(e0, e0) == pytest.approx(1.0)
        assert np.vdot(e0, e1) == pytest.approx(0.0)

    def test_circular_pair_by_hand_expansion(self):
        # conj((1, i)) . (1, -i) / 2 = (1*1 + (-i)*(-i)) / 2 = (1 - 1)/2 = 0
        a = np.array([1.0, 1.0j]) / np.sqrt(2.0)
        b = np.array([1.0, -1.0j]) / np.sqrt(2.0)
        assert np.vdot(a, b) == pytest.approx(0.0, abs=1e-15)

    def test_conjugate_linear_in_first_argument(self, rng):
        a = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        b = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        alpha = 0.8 - 0.3j
        assert np.vdot(alpha * a, b) == pytest.approx(alpha.conjugate() * np.vdot(a, b))
        assert np.vdot(a, alpha * b) == pytest.approx(alpha * np.vdot(a, b))

    def test_self_inner_real_nonnegative(self, rng):
        a = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        value = np.vdot(a, a)
        assert value.imag == pytest.approx(0.0, abs=1e-12)
        assert value.real >= 0.0

    def test_dim_mismatch(self):
        with pytest.raises(ValueError):
            np.vdot(np.ones(2), np.ones(3))
