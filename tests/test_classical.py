import re
from itertools import product

import numpy as np
import pytest

from qregress import (
    BudgetExceededError,
    ClassicalChain,
    CorrelationQuery,
    DensityOperator,
    SystemModel,
    TimeOrderError,
    ValidationError,
    classical_correlation,
    compare_quantum_classical,
    diagonal_invariance_check,
)
from qregress.classical import PATH_BUDGET
from qregress.verify import EYE2 as I2, NUMBER as NUM, SIGMA_MINUS as SM

# two states, ordering (g, e); decay e -> g at unit rate
DECAY_Q = np.array([[0.0, 0.0], [1.0, -1.0]])


def loop_path_sum(chain, times, f_list):
    """Reference: one Python product per path, summed path by path."""
    p1 = chain.p0 @ chain.transition_matrix(times[0])
    steps = [chain.transition_matrix(t2 - t1) for t1, t2 in zip(times, times[1:])]
    total = 0.0
    for path in product(range(chain.states), repeat=len(times)):
        weight = p1[path[0]] * f_list[0][path[0]]
        for k, P in enumerate(steps):
            weight *= P[path[k], path[k + 1]] * f_list[k + 1][path[k + 1]]
        total += weight
    return total


def random_chain(rng, r):
    rates = rng.uniform(0.0, 2.0, size=(r, r))
    Q = rates - np.diag(np.diag(rates))
    p = rng.uniform(0.1, 1.0, size=r)
    return ClassicalChain(states=r, Q=Q - np.diag(Q.sum(axis=1)), p0=p / p.sum())


class TestClassicalChain:
    def test_validation(self):
        with pytest.raises(ValidationError):
            ClassicalChain(states=2, Q=np.array([[0.0, -0.5], [1.0, -1.0]]), p0=[0.5, 0.5])
        with pytest.raises(ValidationError):
            ClassicalChain(states=2, Q=np.array([[0.0, 0.1], [1.0, -1.0]]), p0=[0.5, 0.5])
        with pytest.raises(ValidationError):
            ClassicalChain(states=2, Q=DECAY_Q, p0=[0.5, 0.6])

    def test_chapman_kolmogorov(self):
        chain = ClassicalChain(states=2, Q=DECAY_Q, p0=[0.0, 1.0])
        lhs = chain.transition_matrix(1.3)
        rhs = chain.transition_matrix(0.5) @ chain.transition_matrix(0.8)
        np.testing.assert_allclose(lhs, rhs, atol=1e-10)

    def test_stochasticity(self):
        chain = ClassicalChain(states=2, Q=DECAY_Q, p0=[0.0, 1.0])
        P = chain.transition_matrix(0.7)
        assert P.min() >= -1e-12
        np.testing.assert_allclose(P.sum(axis=1), [1.0, 1.0], atol=1e-10)


class TestClassicalCorrelation:
    def test_normalization(self):
        chain = ClassicalChain(states=2, Q=DECAY_Q, p0=[0.0, 1.0])
        w = classical_correlation(chain, [0.8], [[1.0, 1.0]])
        assert abs(w - 1.0) <= 1e-12

    def test_single_time_decay(self):
        chain = ClassicalChain(states=2, Q=DECAY_Q, p0=[0.0, 1.0])
        w = classical_correlation(chain, [1.0], [[0.0, 1.0]])
        assert abs(w - np.exp(-1.0)) <= 1e-12

    def test_absorbing_two_point(self):
        # e is only left, never re-entered: being in e at t2 implies e at t1
        chain = ClassicalChain(states=2, Q=DECAY_Q, p0=[0.0, 1.0])
        w = classical_correlation(chain, [0.5, 1.0], [[0.0, 1.0], [0.0, 1.0]])
        assert abs(w - np.exp(-1.0)) <= 1e-12

    @pytest.mark.parametrize("r", [2, 3, 4])
    def test_matches_the_per_path_loop(self, r):
        rng = np.random.default_rng(40 + r)
        for n in range(1, 7):
            for _ in range(5):
                chain = random_chain(rng, r)
                times = np.sort(rng.uniform(0.0, 2.0, size=n))
                f_list = [rng.uniform(-1.0, 1.0, size=r) for _ in range(n)]
                got = classical_correlation(chain, times, f_list)
                assert abs(got - loop_path_sum(chain, times, f_list)) <= 1e-15

    @pytest.mark.parametrize("r,n,message", [
        (2, 22, None),
        (4, 11, None),
        (2, 23, "needs 2**23 paths"),  # 23 times reach the budget's bit length
        (3, 14, "needs 4782969 paths"),
        (2, 10**4, "needs 2**10000 paths"),
    ], ids=["2**22", "4**11", "2**23", "3**14", "2**10000"])
    def test_path_budget_is_exact(self, r, n, message):
        assert PATH_BUDGET == 2**22
        chain = ClassicalChain(states=r, Q=np.zeros((r, r)), p0=np.full(r, 1.0 / r))
        times, f_list = [0.5] * n, [np.ones(r)] * n
        if message is None:
            assert abs(classical_correlation(chain, times, f_list) - 1.0) <= 1e-12
        else:
            with pytest.raises(BudgetExceededError, match=re.escape(message)):
                classical_correlation(chain, times, f_list)

    def test_rejects_unsorted_times(self):
        chain = ClassicalChain(states=2, Q=DECAY_Q, p0=[0.0, 1.0])
        with pytest.raises(TimeOrderError):
            classical_correlation(chain, [1.0, 0.5], [[1.0, 1.0], [1.0, 1.0]])


class TestDiagonalInvariance:
    def test_atom_decay(self, atom):
        ok, Q = diagonal_invariance_check(atom)
        assert ok
        np.testing.assert_allclose(Q, np.array([[0.0, 1.0], [0.0, -1.0]]), atol=1e-14)

    def test_transverse_hamiltonian_breaks_it(self):
        sx = np.array([[0, 1], [1, 0]], dtype=complex)
        model = SystemModel(dim=2, H=sx, L=SM)
        ok, Q = diagonal_invariance_check(model)
        assert not ok and Q is None

    def test_closed_diagonal_model(self):
        model = SystemModel(dim=2, H=np.diag([0.5, -0.5]), L=np.zeros((2, 2)))
        ok, Q = diagonal_invariance_check(model)
        assert ok
        np.testing.assert_allclose(Q, np.zeros((2, 2)), atol=1e-14)


class TestCompareQuantumClassical:
    def test_absorbing_number_correlation(self, atom, excited):
        q = CorrelationQuery(times=(0.5, 1.0), a_ops=(I2, I2), b_ops=(NUM, NUM))
        result = compare_quantum_classical(atom, excited, q)
        assert abs(result.quantum - np.exp(-1.0)) <= 1e-10
        assert abs(result.classical - np.exp(-1.0)) <= 1e-10
        assert result.diff <= 1e-10

    def test_identity_observables(self, atom, excited):
        q = CorrelationQuery(times=(0.5, 1.0), a_ops=(I2, I2), b_ops=(I2, I2))
        result = compare_quantum_classical(atom, excited, q)
        assert abs(result.quantum - 1.0) <= 1e-12
        assert abs(result.classical - 1.0) <= 1e-12

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_random_diagonal_queries(self, atom, n):
        rng = np.random.default_rng(300 + n)
        probs = rng.uniform(0.1, 1.0, size=2)
        rho = DensityOperator(dim=2, rho=np.diag(probs / probs.sum()).astype(complex))
        times = tuple(np.sort(rng.uniform(0.0, 2.0, size=n)))
        b_ops = tuple(np.diag(rng.uniform(-1, 1, size=2)).astype(complex) for _ in range(n))
        q = CorrelationQuery(times=times, a_ops=tuple(I2 for _ in range(n)), b_ops=b_ops)
        result = compare_quantum_classical(atom, rho, q)
        assert abs(result.quantum.imag) <= 1e-12
        assert result.diff <= 1e-10

    def test_rejects_non_diagonal_rho(self, atom):
        rho = DensityOperator(dim=2, rho=np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex))
        q = CorrelationQuery(times=(0.5,), a_ops=(I2,), b_ops=(NUM,))
        with pytest.raises(ValidationError):
            compare_quantum_classical(atom, rho, q)

    def test_rejects_non_identity_a_ops(self, atom, excited):
        q = CorrelationQuery(times=(0.5,), a_ops=(NUM,), b_ops=(NUM,))
        with pytest.raises(ValidationError):
            compare_quantum_classical(atom, excited, q)

    def test_rejects_non_invariant_model(self, excited):
        sx = np.array([[0, 1], [1, 0]], dtype=complex)
        model = SystemModel(dim=2, H=sx, L=SM)
        q = CorrelationQuery(times=(0.5,), a_ops=(I2,), b_ops=(NUM,))
        with pytest.raises(ValidationError):
            compare_quantum_classical(model, excited, q)
