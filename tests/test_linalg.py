import ast
import math
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg  # test-only: the independent reference for mat_exp
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from qregress import DimensionError, SystemModel, ValidationError, choi_matrix, kron, mat_exp, partial_trace
from qregress.linalg import EXP_NORM_LIMIT, matrix_unit, unvec, vec
from qregress.semigroup import PICTURES, generator_matrix
from qregress.verify import random_model

# Higham (2005), Table 2.3: the largest 1-norm served by the degree 3, 5, 7, 9
# and 13 Pade approximants; mat_exp changes degree (or halves once more) there
THETAS = (1.495585217958292e-2, 2.539398330063230e-1, 9.504178996162932e-1,
          2.097847961257068e0, 5.371920351148152e0)
# mat_exp's accuracy contract, relative in the Frobenius norm
EXP_RTOL = 1e-12


def complex_matrices(dim, scale=3.0):
    reals = hnp.arrays(
        np.float64,
        (dim, dim, 2),
        elements=st.floats(-scale, scale, allow_nan=False, allow_infinity=False),
    )
    return reals.map(lambda r: r[..., 0] + 1j * r[..., 1])


class TestMatExp:
    def test_zero(self):
        np.testing.assert_allclose(mat_exp(np.zeros((2, 2))), np.eye(2), atol=1e-14)

    def test_diagonal(self):
        out = mat_exp(np.diag([1.0, -1.0]))
        np.testing.assert_allclose(out, np.diag([np.e, 1 / np.e]), rtol=1e-13)

    def test_nilpotent(self):
        out = mat_exp(np.array([[0, 1], [0, 0]], dtype=complex))
        np.testing.assert_allclose(out, np.array([[1, 1], [0, 1]]), atol=1e-14)

    def test_commuting_product(self):
        rng = np.random.default_rng(3)
        R = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        R /= np.linalg.norm(R)
        M = 0.7 * R + 0.2 * R @ R
        N = -0.3 * np.eye(4) + 1.1 * R
        err = np.linalg.norm(mat_exp(M + N) - mat_exp(M) @ mat_exp(N))
        assert err <= 1e-10

    def test_rejects_non_square(self):
        with pytest.raises(DimensionError):
            mat_exp(np.zeros((2, 3)))

    def test_rejects_large_norm(self):
        with pytest.raises(ValidationError):
            mat_exp((EXP_NORM_LIMIT + 1) * np.eye(2))

    def test_rejects_nan(self):
        bad = np.array([[np.nan, 0], [0, 0]])
        with pytest.raises(ValidationError):
            mat_exp(bad)

    @given(complex_matrices(3, scale=2.0))
    @settings(max_examples=25, deadline=None)
    def test_adjoint_commutes(self, M):
        err = np.linalg.norm(mat_exp(M).conj().T - mat_exp(M.conj().T))
        assert err <= 1e-12


def expm_rel_err(A) -> float:
    """Relative Frobenius distance of mat_exp(A) from scipy.linalg.expm(A)."""
    ref = scipy.linalg.expm(A)
    return float(np.linalg.norm(mat_exp(A) - ref) / np.linalg.norm(ref))


def random_complex(rng, side, frobenius):
    A = rng.standard_normal((side, side)) + 1j * rng.standard_normal((side, side))
    return A * (frobenius / np.linalg.norm(A))


class TestMatExpAgainstScipy:
    @pytest.mark.parametrize("side", [2, 4, 9, 16, 64])
    def test_random_grid(self, side):
        rng = np.random.default_rng(side)
        for frobenius in np.geomspace(1e-3, 49.9, 16):
            assert expm_rel_err(random_complex(rng, side, frobenius)) <= EXP_RTOL

    def test_side_256(self):
        rng = np.random.default_rng(256)
        for frobenius in (0.1, 49.9):
            assert expm_rel_err(random_complex(rng, 256, frobenius)) <= EXP_RTOL

    @pytest.mark.parametrize("side", [2, 4, 16])
    @pytest.mark.parametrize("theta", [*THETAS, 2 * THETAS[-1], 4 * THETAS[-1]])
    def test_one_norm_on_both_sides_of_theta(self, side, theta):
        rng = np.random.default_rng(side)
        for target, side_of_theta in ((theta * (1 - 1e-9), -1), (theta * (1 + 1e-9), 1)):
            A = random_complex(rng, side, 1.0)
            A *= target / np.abs(A).sum(0).max()
            assert np.sign(np.abs(A).sum(0).max() - theta) == side_of_theta
            assert expm_rel_err(A) <= EXP_RTOL

    @pytest.mark.parametrize("dim", [2, 3, 4, 8])
    def test_lindblad_generators(self, dim):
        model = random_model(np.random.default_rng(40 + dim), dim)
        for picture in PICTURES:
            G = generator_matrix(model, picture).mat
            for frobenius in (1e-3, 0.3, 3.0, 30.0, 49.9):
                assert expm_rel_err(G * (frobenius / np.linalg.norm(G))) <= EXP_RTOL

    @pytest.mark.parametrize("side", [2, 4, 9, 16])
    def test_nilpotent_jordan_block(self, side):
        J = np.eye(side, k=1, dtype=np.complex128)
        for scale in (1e-3, 0.5, 3.0, 49.9 / np.sqrt(side - 1)):
            A = scale * J
            assert expm_rel_err(A) <= EXP_RTOL
            # exp(c J) has c^k / k! on its k-th superdiagonal
            exact = sum(np.eye(side, k=k) * scale**k / math.factorial(k) for k in range(side))
            assert np.linalg.norm(mat_exp(A) - exact) <= EXP_RTOL * np.linalg.norm(exact)

    def test_driven_qubit_exceptional_point(self):
        # H = sigma_x / 8, L = sigma_-: the generator is defective (kappa_1 = 2.3e8)
        model = SystemModel(dim=2, H=np.array([[0, 1], [1, 0]]) / 8,
                            L=np.array([[0, 1], [0, 0]]))
        for picture in PICTURES:
            G = generator_matrix(model, picture).mat
            for tau in (1e-3, 0.3, 2.0, 9.0, 49.9 / np.linalg.norm(G)):
                assert expm_rel_err(G * tau) <= EXP_RTOL


class TestKron:
    def test_identity(self):
        np.testing.assert_array_equal(kron(np.eye(2), np.eye(2)), np.eye(4))

    def test_scalar_factor(self):
        A = np.array([[1, 2], [3, 4]], dtype=complex)
        np.testing.assert_array_equal(kron(A, np.array([[2.0]])), 2 * A)

    def test_diagonal(self):
        out = kron(np.diag([1.0, 2.0]), np.diag([3.0, 4.0]))
        np.testing.assert_array_equal(out, np.diag([3.0, 4.0, 6.0, 8.0]))

    def test_associative_on_integers(self):
        rng = np.random.default_rng(0)
        A, B, C = (rng.integers(-3, 4, size=(2, 2)).astype(complex) for _ in range(3))
        np.testing.assert_array_equal(kron(kron(A, B), C), kron(A, kron(B, C)))

    @pytest.mark.parametrize("shape_a,shape_b", [((1, 1), (1, 1)), ((2, 3), (3, 2)), ((4, 4), (4, 4))])
    def test_bitwise_equal_to_numpy(self, shape_a, shape_b):
        rng = np.random.default_rng(sum(shape_a) + 10 * sum(shape_b))
        values = np.array([0.0, -0.0, 1.0, -1.5, 2.0**-1074, np.pi])
        A, B = (rng.choice(values, s) + 1j * rng.choice(values, s) for s in (shape_a, shape_b))
        pairs = [(A, B), (A, np.eye(shape_b[0])), (np.eye(shape_a[0]), B)]
        for a, b in pairs:
            got = kron(a, b)
            want = np.kron(a.astype(np.complex128), b.astype(np.complex128))
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()


def test_numpy_kron_is_called_only_in_linalg():
    # one Kronecker product for the package: linalg.kron validates its operands
    src = Path(__file__).resolve().parent.parent / "src" / "qregress"
    callers = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Attribute) and node.attr == "kron"
                    and isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy")):
                callers.append(path.name)
    assert not [name for name in callers if name != "linalg.py"]


class TestPartialTrace:
    def test_product_state(self):
        rho = np.array([[0.25, 0.1], [0.1, 0.75]], dtype=complex)
        sigma = np.array([[0.5, 0.2j], [-0.2j, 0.5]], dtype=complex)
        np.testing.assert_allclose(partial_trace(np.kron(rho, sigma), (2, 2), keep=0), rho, atol=1e-14)
        np.testing.assert_allclose(partial_trace(np.kron(rho, sigma), (2, 2), keep=1), sigma, atol=1e-14)

    def test_maximally_entangled(self):
        bell = np.zeros(4, dtype=complex)
        bell[0] = bell[3] = 1 / np.sqrt(2)
        proj = np.outer(bell, bell.conj())
        np.testing.assert_allclose(partial_trace(proj, (2, 2), keep=0), np.eye(2) / 2, atol=1e-14)

    def test_against_index_sum_oracle(self):
        rng = np.random.default_rng(11)
        M = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        # brute-force oracle: (Tr_B M)[i, j] = sum_k M[(i, k), (j, k)]
        oracle = np.zeros((2, 2), dtype=complex)
        for i in range(2):
            for j in range(2):
                for k in range(2):
                    oracle[i, j] += M[i * 2 + k, j * 2 + k]
        np.testing.assert_allclose(partial_trace(M, (2, 2), keep=0), oracle, atol=1e-14)

    def test_rejects_bad_side(self):
        with pytest.raises(DimensionError):
            partial_trace(np.eye(5), (2, 2), keep=0)

    @given(complex_matrices(6))
    @settings(max_examples=25, deadline=None)
    def test_preserves_trace(self, M):
        traced = partial_trace(M, (2, 3), keep=0)
        assert abs(np.trace(traced) - np.trace(M)) <= 1e-12 * max(1.0, abs(np.trace(M)))


class TestChoi:
    def test_identity_channel(self):
        choi = choi_matrix(np.eye(4))
        expected = np.zeros((4, 4), dtype=complex)
        for i, j in ((0, 0), (0, 3), (3, 0), (3, 3)):
            expected[i, j] = 1.0
        np.testing.assert_allclose(choi, expected, atol=1e-14)
        assert np.linalg.matrix_rank(choi) == 1

    def test_depolarizing(self):
        # full depolarization to I/2: S(X) = Tr(X) I/2
        eye_vec = vec(np.eye(2, dtype=complex))
        smat = 0.5 * np.outer(eye_vec, eye_vec.conj())
        # oracle: direct evaluation of sum_ij E_ij kron S(E_ij)
        oracle = np.zeros((4, 4), dtype=complex)
        for i in range(2):
            for j in range(2):
                unit = matrix_unit(2, i, j)
                oracle += np.kron(unit, np.trace(unit) * np.eye(2) / 2)
        choi = choi_matrix(smat)
        np.testing.assert_allclose(choi, oracle, atol=1e-14)
        np.testing.assert_allclose(choi, np.eye(4) / 2, atol=1e-14)

    def test_projection_conjugation(self):
        A = np.diag([1.0, 0.0]).astype(complex)
        smat = np.kron(A.conj(), A)
        # oracle: direct evaluation on matrix units
        oracle = np.zeros((4, 4), dtype=complex)
        for i in range(2):
            for j in range(2):
                unit = matrix_unit(2, i, j)
                oracle += np.kron(unit, A @ unit @ A.conj().T)
        choi = choi_matrix(smat)
        np.testing.assert_allclose(choi, oracle, atol=1e-14)
        np.testing.assert_allclose(choi, np.diag([1.0, 0, 0, 0]), atol=1e-14)


class TestVec:
    def test_column_stacking_convention(self):
        A = np.array([[1, 2], [3, 4]], dtype=complex)
        np.testing.assert_array_equal(vec(A), np.array([1, 3, 2, 4]))
        np.testing.assert_array_equal(unvec(vec(A)), A)

    def test_sandwich_matrix(self):
        rng = np.random.default_rng(5)
        A, X, B = (rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)) for _ in range(3))
        lhs = vec(A @ X @ B)
        rhs = np.kron(B.T, A) @ vec(X)
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)
