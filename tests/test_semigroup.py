import numpy as np
import pytest

from qregress import (
    DimensionError,
    SuperOperator,
    SystemModel,
    TimeOrderError,
    choi_matrix,
    generator_matrix,
    heisenberg_evolve,
    lindblad_heisenberg,
    lindblad_schrodinger,
    mat_exp,
    propagate,
    propagator,
)
from qregress.linalg import matrix_unit, min_hermitian_eig, unvec, vec
from qregress.verify import EYE2 as I2, NUMBER as NUM, SIGMA_PLUS as SP
from qregress.verify import random_density, random_model


class TestGeneratorMatrix:
    def test_zero_model(self):
        model = SystemModel(dim=2, H=np.zeros((2, 2)), L=np.zeros((2, 2)))
        for picture in ("heisenberg", "schrodinger"):
            gen = generator_matrix(model, picture)
            np.testing.assert_allclose(gen.mat, np.zeros((4, 4)), atol=1e-14)

    def test_consistent_with_direct_formula(self, atom):
        gen = generator_matrix(atom, "schrodinger")
        excited = np.diag([0.0, 1.0]).astype(complex)
        np.testing.assert_allclose(
            gen.apply(excited), lindblad_schrodinger(atom, excited), atol=1e-14
        )

    @pytest.mark.parametrize("picture,direct", [
        ("schrodinger", lindblad_schrodinger),
        ("heisenberg", lindblad_heisenberg),
    ])
    def test_matrix_unit_columns(self, picture, direct):
        # brute-force oracle: column j of the matrix is vec(generator(E_j))
        model = random_model(np.random.default_rng(17), 3)
        gen = generator_matrix(model, picture)
        for i in range(3):
            for j in range(3):
                unit = matrix_unit(3, i, j)
                column = gen.mat @ vec(unit)
                np.testing.assert_allclose(column, vec(direct(model, unit)), atol=1e-12)

    def test_apply_is_linear(self):
        model = random_model(np.random.default_rng(23), 2)
        gen = generator_matrix(model, "schrodinger")
        rng = np.random.default_rng(1)
        X = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        Y = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        a, b = 1.3 - 0.2j, -0.4 + 0.9j
        lhs = gen.apply(a * X + b * Y)
        rhs = a * gen.apply(X) + b * gen.apply(Y)
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)


class TestPropagate:
    def test_zero_duration_is_identity(self, atom):
        rng = np.random.default_rng(2)
        sigma = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        np.testing.assert_allclose(propagate(atom, sigma, 1.0, 1.0), sigma, atol=1e-14)

    def test_population_decay(self, atom, excited):
        out = propagate(atom, excited.rho, 0.0, 1.0)
        expected = np.diag([1 - np.exp(-1.0), np.exp(-1.0)]).astype(complex)
        np.testing.assert_allclose(out, expected, atol=1e-12)

    def test_coherence_decay(self, atom):
        out = propagate(atom, SP, 0.0, 1.0)
        np.testing.assert_allclose(out, np.exp(-0.5) * SP, atol=1e-12)

    def test_rejects_reverse_time(self, atom):
        with pytest.raises(TimeOrderError):
            propagate(atom, I2 / 2, 1.0, 0.5)

    def test_maps_densities_to_densities(self):
        from qregress import DensityOperator

        model = random_model(np.random.default_rng(53), 3)
        rho = random_density(np.random.default_rng(7), 3).rho
        out = propagate(model, rho, 0.0, 2.0)
        DensityOperator(dim=3, rho=out)  # construction enforces the invariants


class TestHeisenbergEvolve:
    def test_identity_preserved(self, atom):
        np.testing.assert_allclose(heisenberg_evolve(atom, I2, 0.0, 2.5), I2, atol=1e-10)

    def test_number_decay(self, atom):
        out = heisenberg_evolve(atom, NUM, 0.0, 1.0)
        np.testing.assert_allclose(out, np.exp(-1.0) * NUM, atol=1e-12)

    def test_duality_spot_value(self, atom, excited):
        lhs = np.trace(excited.rho @ heisenberg_evolve(atom, NUM, 0.0, 1.0))
        rhs = np.trace(propagate(atom, excited.rho, 0.0, 1.0) @ NUM)
        assert abs(lhs - rhs) <= 1e-12
        assert abs(lhs - np.exp(-1.0)) <= 1e-12

    def test_rejects_reverse_time(self, atom):
        with pytest.raises(TimeOrderError):
            heisenberg_evolve(atom, NUM, 1.0, 0.0)


class TestSemigroupProperties:
    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_semigroup_law_and_homogeneity(self, dim):
        model = random_model(np.random.default_rng(dim + 5), dim)
        gen = generator_matrix(model, "schrodinger")
        rng = np.random.default_rng(dim)
        a, b = rng.uniform(0.0, 2.0, size=2)
        law = np.linalg.norm(
            propagator(gen, a + b).mat - propagator(gen, a).mat @ propagator(gen, b).mat
        )
        assert law <= 1e-9
        # propagation depends only on the duration
        sigma = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        np.testing.assert_allclose(
            propagate(model, sigma, 0.25, 0.75),
            propagate(model, sigma, 1.5, 2.0),
            atol=1e-12,
        )

    @pytest.mark.parametrize("t", [0.1, 0.5, 1.0, 5.0])
    def test_complete_positivity(self, t):
        model = random_model(np.random.default_rng(31), 3)
        gen = generator_matrix(model, "schrodinger")
        choi = choi_matrix(propagator(gen, t).mat)
        assert min_hermitian_eig(choi) >= -1e-9

    def test_trace_preservation(self):
        model = random_model(np.random.default_rng(41), 4)
        gen = generator_matrix(model, "schrodinger")
        rng = np.random.default_rng(4)
        sigma = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        evolved = unvec(propagator(gen, 1.7).mat @ vec(sigma), 4)
        assert abs(np.trace(evolved) - np.trace(sigma)) <= 1e-10

    def test_duality(self):
        model = random_model(np.random.default_rng(43), 3)
        gen_h = generator_matrix(model, "heisenberg")
        gen_s = generator_matrix(model, "schrodinger")
        rng = np.random.default_rng(6)
        X = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        Y = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        t = 0.9
        lhs = np.trace(Y @ unvec(propagator(gen_h, t).mat @ vec(X), 3))
        rhs = np.trace(unvec(propagator(gen_s, t).mat @ vec(Y), 3) @ X)
        assert abs(lhs - rhs) <= 1e-10

    def test_forward_difference_recovers_generator(self):
        model = random_model(np.random.default_rng(47), 3)
        gen = generator_matrix(model, "schrodinger")
        sigma = random_density(np.random.default_rng(8), 3).rho
        exact = lindblad_schrodinger(model, sigma)

        def err(h):
            forward = (unvec(mat_exp(gen.mat * h) @ vec(sigma), 3) - sigma) / h
            return np.linalg.norm(forward - exact)

        e1, e2 = err(1e-3), err(5e-4)
        assert 1.7 <= e1 / e2 <= 2.3  # first order in h

    def test_superoperator_shape_validation(self):
        with pytest.raises(DimensionError):
            SuperOperator(dim=2, mat=np.eye(3))
