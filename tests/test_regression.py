import numpy as np
import pytest

from qregress import (
    CorrelationQuery,
    DimensionError,
    TimeOrderError,
    ValidationError,
    kernel_heisenberg,
    kernel_schrodinger,
    two_time,
)
from qregress.linalg import min_hermitian_eig
from qregress.verify import (
    EYE2 as I2,
    NUMBER as NUM,
    SIGMA_MINUS as SM,
    SIGMA_PLUS as SP,
    random_density,
    random_model,
    random_operator,
)


class TestQueryValidation:
    def test_rejects_unsorted_times(self):
        with pytest.raises(TimeOrderError):
            CorrelationQuery(times=(1.0, 0.5), a_ops=(I2, I2), b_ops=(I2, I2))

    def test_rejects_negative_times(self):
        with pytest.raises(TimeOrderError):
            CorrelationQuery(times=(-0.1,), a_ops=(I2,), b_ops=(I2,))

    def test_rejects_length_mismatch(self):
        with pytest.raises(DimensionError):
            CorrelationQuery(times=(0.5, 1.0), a_ops=(I2,), b_ops=(I2, I2))

    def test_rejects_mixed_dims(self):
        with pytest.raises(DimensionError):
            CorrelationQuery(times=(0.5,), a_ops=(np.eye(3),), b_ops=(I2,))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_times(self, bad):
        with pytest.raises(ValidationError):
            CorrelationQuery(times=(0.5, bad), a_ops=(I2, I2), b_ops=(I2, I2))

    def test_equal_times_allowed(self):
        q = CorrelationQuery(times=(0.5, 0.5), a_ops=(I2, I2), b_ops=(I2, I2))
        assert q.n == 2


class TestSchrodingerKernel:
    def test_normalization(self, atom, excited):
        q = CorrelationQuery(times=(0.7,), a_ops=(I2,), b_ops=(I2,))
        assert abs(kernel_schrodinger(atom, excited, q) - 1.0) <= 1e-12

    def test_population_decay(self, atom, excited):
        q = CorrelationQuery(times=(1.0,), a_ops=(I2,), b_ops=(NUM,))
        w = kernel_schrodinger(atom, excited, q)
        assert abs(w - np.exp(-1.0)) <= 1e-10

    def test_two_time_dipole(self, atom, excited):
        q = CorrelationQuery(times=(0.5, 1.0), a_ops=(SM, I2), b_ops=(I2, SM))
        w = kernel_schrodinger(atom, excited, q)
        assert abs(w - np.exp(-0.75)) <= 1e-10

    def test_dimension_check(self, atom, excited):
        q = CorrelationQuery(times=(0.5,), a_ops=(np.eye(3),), b_ops=(np.eye(3),))
        with pytest.raises(DimensionError):
            kernel_schrodinger(atom, excited, q)


class TestHeisenbergKernel:
    def test_matches_schrodinger_on_atom_examples(self, atom, excited):
        queries = [
            CorrelationQuery(times=(0.7,), a_ops=(I2,), b_ops=(I2,)),
            CorrelationQuery(times=(1.0,), a_ops=(I2,), b_ops=(NUM,)),
            CorrelationQuery(times=(0.5, 1.0), a_ops=(SM, I2), b_ops=(I2, SM)),
        ]
        for q in queries:
            ws = kernel_schrodinger(atom, excited, q)
            wh = kernel_heisenberg(atom, excited, q)
            assert abs(ws - wh) <= 1e-10

    def test_two_point_normalization(self, atom, excited):
        q = CorrelationQuery(times=(0.3, 0.9), a_ops=(I2, I2), b_ops=(I2, I2))
        assert abs(kernel_heisenberg(atom, excited, q) - 1.0) <= 1e-12

    def test_three_point_random_hermitian(self):
        model = random_model(np.random.default_rng(71), 3)
        rho = random_density(np.random.default_rng(72), 3)
        rng = np.random.default_rng(73)

        def herm():
            G = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            return 0.5 * (G + G.conj().T)

        q = CorrelationQuery(
            times=(0.2, 0.7, 1.1),
            a_ops=(herm(), herm(), herm()),
            b_ops=(herm(), herm(), herm()),
        )
        ws = kernel_schrodinger(model, rho, q)
        wh = kernel_heisenberg(model, rho, q)
        assert abs(ws - wh) <= 1e-10


class TestTwoTime:
    def test_identity(self, atom, excited):
        assert abs(two_time(atom, excited, I2, I2, 0.2, 0.8) - 1.0) <= 1e-12

    def test_dipole(self, atom, excited):
        w = two_time(atom, excited, SP, SM, 0.5, 1.0)
        assert abs(w - np.exp(-0.75)) <= 1e-10

    def test_equal_times_population(self, atom, excited):
        w = two_time(atom, excited, NUM, I2, 1.0, 1.0)
        assert abs(w - np.exp(-1.0)) <= 1e-10

    def test_rejects_reverse_times(self, atom, excited):
        with pytest.raises(TimeOrderError):
            two_time(atom, excited, SP, SM, 1.0, 0.5)


class TestKernelStructure:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_form_equivalence_random(self, n):
        rng = np.random.default_rng(100 + n)
        for _ in range(10):
            d = int(rng.integers(2, 5))
            model = random_model(np.random.default_rng(int(rng.integers(1_000_000))), d)
            rho = random_density(np.random.default_rng(int(rng.integers(1_000_000))), d)
            times = tuple(np.sort(rng.uniform(0.0, 2.0, size=n)))
            q = CorrelationQuery(
                times=times,
                a_ops=tuple(random_operator(rng, d) for _ in range(n)),
                b_ops=tuple(random_operator(rng, d) for _ in range(n)),
            )
            assert abs(kernel_schrodinger(model, rho, q) - kernel_heisenberg(model, rho, q)) <= 1e-10

    def test_hermitian_symmetry(self):
        model = random_model(np.random.default_rng(201), 3)
        rho = random_density(np.random.default_rng(202), 3)
        rng = np.random.default_rng(203)
        ops = [
            (rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))) / 3
            for _ in range(4)
        ]
        q = CorrelationQuery(times=(0.4, 1.2), a_ops=(ops[0], ops[1]), b_ops=(ops[2], ops[3]))
        q_swapped = CorrelationQuery(times=(0.4, 1.2), a_ops=(ops[2], ops[3]), b_ops=(ops[0], ops[1]))
        w = kernel_schrodinger(model, rho, q)
        w_swapped = kernel_schrodinger(model, rho, q_swapped)
        assert abs(w - np.conj(w_swapped)) <= 1e-10

    def test_gram_positivity(self):
        model = random_model(np.random.default_rng(211), 2)
        rho = random_density(np.random.default_rng(212), 2)
        rng = np.random.default_rng(213)
        times = (0.3, 0.9)
        tuples = [
            tuple(
                (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))) / 2
                for _ in range(2)
            )
            for _ in range(5)
        ]
        gram = np.array(
            [
                [
                    kernel_schrodinger(
                        model, rho, CorrelationQuery(times=times, a_ops=ti, b_ops=tj)
                    )
                    for tj in tuples
                ]
                for ti in tuples
            ]
        )
        assert min_hermitian_eig(gram) >= -1e-9

    def test_coincident_times_collapse(self):
        model = random_model(np.random.default_rng(221), 3)
        rho = random_density(np.random.default_rng(222), 3)
        rng = np.random.default_rng(223)
        ops_a = [rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)) for _ in range(3)]
        ops_b = [rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)) for _ in range(3)]
        full = CorrelationQuery(times=(0.4, 0.9, 0.9), a_ops=tuple(ops_a), b_ops=tuple(ops_b))
        merged = CorrelationQuery(
            times=(0.4, 0.9),
            a_ops=(ops_a[0], ops_a[2] @ ops_a[1]),
            b_ops=(ops_b[0], ops_b[2] @ ops_b[1]),
        )
        w_full = kernel_schrodinger(model, rho, full)
        w_merged = kernel_schrodinger(model, rho, merged)
        assert abs(w_full - w_merged) <= 1e-10 * max(1.0, abs(w_full))

    def test_order_dependence_witness(self, atom, excited):
        w1 = kernel_schrodinger(
            atom,
            excited,
            CorrelationQuery(times=(0.5, 1.0), a_ops=(I2, I2), b_ops=(SM, SP)),
        )
        w2 = kernel_schrodinger(
            atom,
            excited,
            CorrelationQuery(times=(0.5, 1.0), a_ops=(I2, I2), b_ops=(SP, SM)),
        )
        # nested order matters: swapping which operator sits at which time
        # changes the value by a finite amount
        assert abs(w1 - w2) > 0.1
