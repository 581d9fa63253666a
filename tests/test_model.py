import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from qregress import (
    DensityOperator,
    DimensionError,
    SystemModel,
    ValidationError,
    atom_model,
    lindblad_heisenberg,
    lindblad_schrodinger,
)
from qregress.verify import EYE2 as I2, NUMBER as NUM, SIGMA_MINUS as SM, SIGMA_PLUS as SP


def small_matrices(dim):
    reals = hnp.arrays(
        np.float64,
        (dim, dim, 2),
        elements=st.floats(-2, 2, allow_nan=False, allow_infinity=False),
    )
    return reals.map(lambda r: r[..., 0] + 1j * r[..., 1])


class TestValidation:
    def test_atom_is_valid(self):
        model = SystemModel(dim=2, H=np.zeros((2, 2)), L=SM)
        assert model.dim == 2

    def test_rejects_non_hermitian_h(self):
        with pytest.raises(ValidationError):
            SystemModel(dim=2, H=np.array([[0, 1], [0, 0]]), L=np.zeros((2, 2)))

    def test_rejects_dim_mismatch(self):
        with pytest.raises(DimensionError):
            SystemModel(dim=2, H=np.zeros((2, 2)), L=np.zeros((3, 3)))

    def test_rejects_small_dim(self):
        with pytest.raises(ValidationError):
            SystemModel(dim=1, H=np.zeros((1, 1)), L=np.zeros((1, 1)))

    def test_h_and_l_are_read_only_copies(self):
        H = np.zeros((2, 2), dtype=np.complex128)
        model = SystemModel(dim=2, H=H, L=SM)
        H[0, 0] = 1.0
        assert model.H[0, 0] == 0.0
        for mat in (model.H, model.L):
            with pytest.raises(ValueError):
                mat[0, 0] = 2.0

    def test_propagator_cache_stays_out_of_repr(self):
        assert "_propagators" not in repr(atom_model(1.0))

    def test_density_checks(self):
        with pytest.raises(ValidationError):
            DensityOperator(dim=2, rho=np.diag([0.6, 0.6]))
        with pytest.raises(ValidationError):
            DensityOperator(dim=2, rho=np.diag([1.5, -0.5]))
        with pytest.raises(ValidationError):
            DensityOperator(dim=2, rho=np.array([[0.5, 0.5], [0.1, 0.5]]))


class TestHeisenbergGenerator:
    def test_identity_annihilated(self, atom):
        np.testing.assert_allclose(lindblad_heisenberg(atom, I2), np.zeros((2, 2)), atol=1e-14)

    def test_number_decay(self, atom):
        # hand evaluation: L^dag N L = 0, {L^dag L, N} = 2N
        np.testing.assert_allclose(lindblad_heisenberg(atom, NUM), -NUM, atol=1e-14)

    def test_raising_decay(self, atom):
        # hand evaluation: L^dag SP L = 0, {L^dag L, SP} = SP
        np.testing.assert_allclose(lindblad_heisenberg(atom, SP), -0.5 * SP, atol=1e-14)

    def test_rejects_dim_mismatch(self, atom):
        with pytest.raises(DimensionError):
            lindblad_heisenberg(atom, np.eye(3))


class TestSchrodingerGenerator:
    def test_ground_stationary(self, atom):
        ground = np.diag([1.0, 0.0]).astype(complex)
        np.testing.assert_allclose(lindblad_schrodinger(atom, ground), np.zeros((2, 2)), atol=1e-14)

    def test_excited_decay(self, atom):
        excited = np.diag([0.0, 1.0]).astype(complex)
        expected = np.diag([1.0, -1.0]).astype(complex)
        np.testing.assert_allclose(lindblad_schrodinger(atom, excited), expected, atol=1e-14)

    def test_closed_system(self):
        model = SystemModel(dim=2, H=np.zeros((2, 2)), L=np.zeros((2, 2)))
        rng = np.random.default_rng(0)
        rho = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        np.testing.assert_allclose(lindblad_schrodinger(model, rho), np.zeros((2, 2)), atol=1e-14)


class TestGeneratorProperties:
    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_duality(self, dim):
        rng = np.random.default_rng(dim)
        A = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        H = 0.5 * (A + A.conj().T)
        L = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        model = SystemModel(dim=dim, H=H, L=L)
        X = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        Y = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        lhs = np.trace(Y @ lindblad_heisenberg(model, X))
        rhs = np.trace(lindblad_schrodinger(model, Y) @ X)
        assert abs(lhs - rhs) <= 1e-11 * max(1.0, abs(lhs))

    @given(small_matrices(3))
    @settings(max_examples=25, deadline=None)
    def test_trace_annihilation(self, sigma):
        rng = np.random.default_rng(9)
        A = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        model = SystemModel(dim=3, H=0.5 * (A + A.conj().T), L=A @ A)
        assert abs(np.trace(lindblad_schrodinger(model, sigma))) <= 1e-11 * max(
            1.0, np.linalg.norm(sigma)
        )

    @given(small_matrices(2))
    @settings(max_examples=25, deadline=None)
    def test_hermiticity_preserved(self, G):
        X = 0.5 * (G + G.conj().T)
        model = atom_model(0.7)
        out = lindblad_heisenberg(model, X)
        assert np.linalg.norm(out - out.conj().T) <= 1e-11 * max(1.0, np.linalg.norm(X))
        out_s = lindblad_schrodinger(model, X)
        assert np.linalg.norm(out_s - out_s.conj().T) <= 1e-11 * max(1.0, np.linalg.norm(X))
