import ast
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from qregress import (
    BudgetExceededError,
    CollisionConfig,
    GridAlignmentError,
    SystemModel,
    ValidationError,
    collision_channel,
    ito_table_check,
    kernel_schrodinger,
    mat_exp,
    oracle_kernel_joint,
    oracle_kernel_joint_mixed,
    oracle_kernel_sequential,
    pure_density,
    slot_annihilator,
    step_unitary,
    vacuum_conditional_expectation,
    verify,
)
from qregress import collision
from qregress.linalg import unvec, vec
from qregress.regression import CorrelationQuery
from qregress.verify import DIPOLE, EXCITED_KET, EYE2 as I2, NUMBER as NUM, SIGMA_MINUS as SM


class TestCollisionConfig:
    def test_rejects_infinite_dt(self):
        with pytest.raises(ValidationError):
            CollisionConfig(dt=np.inf)

    @pytest.mark.parametrize("budget", [0, 1.5, 1e6, np.nan])
    def test_budget_is_a_positive_integer(self, budget):
        with pytest.raises(ValidationError):
            CollisionConfig(dt=0.1, budget=budget)
        CollisionConfig(dt=0.1, budget=np.int64(7))


class TestSlotAnnihilator:
    def test_qubit(self):
        np.testing.assert_array_equal(slot_annihilator(2), np.array([[0, 1], [0, 0]]))

    def test_three_levels(self):
        a = slot_annihilator(3)
        assert a[0, 1] == 1.0
        assert abs(a[1, 2] - np.sqrt(2)) < 1e-15
        assert np.count_nonzero(a) == 2

    def test_canonical_commutator_below_truncation(self):
        for m in (2, 3, 5):
            a = slot_annihilator(m)
            comm = a @ a.conj().T - a.conj().T @ a
            np.testing.assert_allclose(comm[: m - 1, : m - 1], np.eye(m - 1), atol=1e-15)

    def test_rejects_small_truncation(self):
        with pytest.raises(ValidationError):
            slot_annihilator(1)


class TestStepUnitary:
    def test_trivial_model(self):
        model = SystemModel(dim=2, H=np.zeros((2, 2)), L=np.zeros((2, 2)))
        U = step_unitary(model, CollisionConfig(dt=0.1))
        np.testing.assert_allclose(U, np.eye(4), atol=1e-14)

    def test_decoupled_system(self):
        H = np.array([[0.3, 0.1], [0.1, -0.2]], dtype=complex)
        model = SystemModel(dim=2, H=H, L=np.zeros((2, 2)))
        U = step_unitary(model, CollisionConfig(dt=0.05, trunc=3))
        np.testing.assert_allclose(U, np.kron(mat_exp(-1j * H * 0.05), np.eye(3)), atol=1e-13)

    def test_unitarity(self):
        (unitarity,) = verify.check_step_unitarity(0)
        assert unitarity.passed, unitarity


class TestCollisionChannel:
    def test_trivial_model_is_identity(self):
        model = SystemModel(dim=2, H=np.zeros((2, 2)), L=np.zeros((2, 2)))
        E = collision_channel(model, CollisionConfig(dt=0.1))
        np.testing.assert_allclose(E, np.eye(4), atol=1e-14)

    def test_ground_state_stationary(self, atom):
        E = collision_channel(atom, CollisionConfig(dt=0.02))
        ground = np.diag([1.0, 0.0]).astype(complex)
        np.testing.assert_allclose(unvec(E @ vec(ground), 2), ground, atol=1e-12)

    def test_trace_preserving_and_cp(self, atom):
        from qregress import choi_matrix
        from qregress.linalg import min_hermitian_eig

        E = collision_channel(atom, CollisionConfig(dt=0.05))
        rng = np.random.default_rng(0)
        sigma = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        assert abs(np.trace(unvec(E @ vec(sigma), 2)) - np.trace(sigma)) <= 1e-10
        assert min_hermitian_eig(choi_matrix(E)) >= -1e-10

    def test_second_order_agreement_with_semigroup(self):
        atom_order, _ = verify.check_channel_order(0)
        assert atom_order.passed, atom_order


class TestSequentialOracle:
    def test_normalization_exact(self, atom, excited):
        q = CorrelationQuery(times=(0.5,), a_ops=(I2,), b_ops=(I2,))
        w = oracle_kernel_sequential(atom, excited, q, CollisionConfig(dt=1 / 16))
        assert abs(w - 1.0) <= 1e-12

    def test_dipole_at_fine_step(self, atom, excited):
        w = oracle_kernel_sequential(atom, excited, DIPOLE, CollisionConfig(dt=1 / 512))
        assert abs(w - np.exp(-0.75)) <= 5e-3

    def test_halving_halves_the_error(self):
        ratios = {r.name: r for r in verify.check_oracle_convergence()}
        ratio = ratios["collision.sequential_halving_ratio_n2"]
        assert ratio.passed, ratio

    def test_rejects_off_grid_times(self, atom, excited):
        q = CorrelationQuery(times=(0.3,), a_ops=(I2,), b_ops=(NUM,))
        with pytest.raises(GridAlignmentError):
            oracle_kernel_sequential(atom, excited, q, CollisionConfig(dt=1 / 16))

    def test_fine_step_above_the_rounding_floor(self, atom, excited):
        # 2**20 channel steps carry 2**-33 rounding, far below the O(dt) error
        dt = 2.0**-20
        w = oracle_kernel_sequential(atom, excited, DIPOLE, CollisionConfig(dt=dt))
        assert abs(w - kernel_schrodinger(atom, excited, DIPOLE)) <= 0.06 * dt

    def test_rounding_floor_is_inclusive(self, atom, excited):
        # 2**26 steps to t = 1 carry N * u = 2**-27 <= dt; at 2**-27 it is 2 dt
        dt = 2.0**-26
        w = oracle_kernel_sequential(atom, excited, DIPOLE, CollisionConfig(dt=dt))
        assert abs(w - kernel_schrodinger(atom, excited, DIPOLE)) <= 0.07 * dt + 2.0**-27

    @pytest.mark.parametrize("dt", [2.0**-27, 2.0**-60, 1e-300], ids=["2**-27", "2**-60", "1e-300"])
    def test_rejects_dt_below_the_rounding_floor(self, atom, excited, dt):
        with pytest.raises(ValidationError, match="rounding floor"):
            oracle_kernel_sequential(atom, excited, DIPOLE, CollisionConfig(dt=dt))


class TestJointOracle:
    def test_normalization_exact(self, atom):
        q = CorrelationQuery(times=(0.5,), a_ops=(I2,), b_ops=(I2,))
        w = oracle_kernel_joint(atom, EXCITED_KET, q, CollisionConfig(dt=1 / 16))
        assert abs(w - 1.0) <= 1e-12

    def test_agrees_with_sequential_same_grid(self):
        (agreement,) = verify.check_joint_matches_sequential()
        assert agreement.passed, agreement

    def test_norm_preserved_by_collisions(self, atom):
        # identity insertions keep the swept state normalized
        q = CorrelationQuery(times=(0.5,), a_ops=(I2,), b_ops=(I2,))
        for trunc in (2, 3):
            cfg = CollisionConfig(dt=1 / 8, trunc=trunc)
            w = oracle_kernel_joint(atom, EXCITED_KET, q, cfg)
            assert abs(w - 1.0) <= 1e-10

    def test_first_order_convergence(self, atom, excited):
        q = replace(DIPOLE, times=tuple(t / 4 for t in DIPOLE.times))
        exact = kernel_schrodinger(atom, excited, q)
        errs = [
            abs(oracle_kernel_joint(atom, EXCITED_KET, q, CollisionConfig(dt=dt)) - exact)
            for dt in (1 / 32, 1 / 64)
        ]
        assert errs[1] <= 2e-2
        assert 1.7 <= errs[0] / errs[1] <= 2.3

    def test_budget_gate(self, atom):
        # 64 slots at trunc 2 need 2 * 2^64 entries, far beyond any budget
        with pytest.raises(BudgetExceededError):
            oracle_kernel_joint(atom, EXCITED_KET, DIPOLE, CollisionConfig(dt=1 / 64))

    @pytest.mark.parametrize("budget,message", [
        (2**15, "needs 2 * 2**16 entries"),  # 16 slots reach the budget's bit length
        (2**17 - 1, "needs 131072 entries"),
        (2**17, None),
    ])
    def test_budget_gate_is_exact(self, atom, budget, message):
        q = CorrelationQuery(times=(1.0,), a_ops=(I2,), b_ops=(NUM,))
        cfg = CollisionConfig(dt=1 / 16, budget=budget)
        if message is None:
            assert abs(oracle_kernel_joint(atom, EXCITED_KET, q, cfg)) <= 1.0
        else:
            with pytest.raises(BudgetExceededError, match=re.escape(message)):
                oracle_kernel_joint(atom, EXCITED_KET, q, cfg)

    def test_subnormal_dt_is_a_validation_error(self, atom):
        q = CorrelationQuery(times=(0.5,), a_ops=(I2,), b_ops=(NUM,))
        with pytest.raises(ValidationError, match="too many steps"):
            oracle_kernel_joint(atom, EXCITED_KET, q, CollisionConfig(dt=1e-310))

    def test_rejects_off_grid_times(self, atom):
        q = CorrelationQuery(times=(0.3,), a_ops=(I2,), b_ops=(NUM,))
        with pytest.raises(GridAlignmentError):
            oracle_kernel_joint(atom, EXCITED_KET, q, CollisionConfig(dt=1 / 16))

    def test_rejects_unnormalized_state(self, atom):
        q = CorrelationQuery(times=(0.25,), a_ops=(I2,), b_ops=(NUM,))
        with pytest.raises(ValidationError):
            oracle_kernel_joint(atom, 2.0 * EXCITED_KET, q, CollisionConfig(dt=1 / 16))

    @pytest.mark.parametrize("d,trunc", [(3, 2), (3, 3), (4, 2), (4, 3)])
    def test_random_models_match_sequential(self, d, trunc):
        # the stacked joint state puts each new slot next to the system, so
        # d != m checks that the slot order is never confused with the system
        rng = np.random.default_rng(10 * d + trunc)
        cfg = CollisionConfig(dt=1 / 8, trunc=trunc)
        for _ in range(3):
            model, rho = verify.random_model(rng, d), verify.random_density(rng, d)
            psi = rng.standard_normal(d) + 1j * rng.standard_normal(d)
            psi /= np.linalg.norm(psi)
            n = int(rng.integers(1, 4))
            slots = np.sort(rng.integers(0, 6, size=n))
            q = CorrelationQuery(
                times=tuple(slots * cfg.dt),
                a_ops=tuple(verify.random_operator(rng, d) for _ in range(n)),
                b_ops=tuple(verify.random_operator(rng, d) for _ in range(n)),
            )
            pure = oracle_kernel_joint(model, psi, q, cfg)
            assert abs(pure - oracle_kernel_sequential(model, pure_density(psi), q, cfg)) <= 1e-10
            seq = oracle_kernel_sequential(model, rho, q, cfg)
            assert abs(oracle_kernel_joint_mixed(model, rho, q, cfg) - seq) <= 1e-10
            # the factor Psi = V diag(sqrt(w)), with rho = Psi Psi^dag, passed straight in
            weights, vectors = np.linalg.eigh(rho.rho)
            factor = vectors * np.sqrt(np.clip(weights, 0.0, None))
            assert abs(oracle_kernel_joint(model, factor, q, cfg) - seq) <= 1e-10

    def test_rejects_unnormalized_factor(self, atom):
        q = CorrelationQuery(times=(0.25,), a_ops=(I2,), b_ops=(NUM,))
        factor = np.diag([0.6, 0.6]).astype(complex)  # ||Psi||_F^2 = 0.72
        with pytest.raises(ValidationError, match="norm"):
            oracle_kernel_joint(atom, factor, q, CollisionConfig(dt=1 / 16))

    def test_mixed_state_forms_one_step_unitary(self, monkeypatch):
        calls = []
        original = collision.step_unitary

        def counted(model, cfg):
            calls.append(cfg)
            return original(model, cfg)

        monkeypatch.setattr(collision, "step_unitary", counted)
        rng = np.random.default_rng(5)
        model, rho = verify.random_model(rng, 3), verify.random_density(rng, 3)
        assert np.linalg.eigvalsh(rho.rho).min() > 1e-3  # full rank: three columns
        q = CorrelationQuery(times=(0.25,), a_ops=(np.eye(3),), b_ops=(np.eye(3),))
        cfg = CollisionConfig(dt=1 / 8, trunc=2)
        w = oracle_kernel_joint_mixed(model, rho, q, cfg)
        assert len(calls) == 1
        assert abs(w - oracle_kernel_sequential(model, rho, q, cfg)) <= 1e-10

    def test_mixed_state_at_the_density_tolerance(self):
        # trace 1 + 0.9e-10 and two eigenvalues at -0.9e-10 make a valid rho
        # whose kept weights sum to 1 + 2.7e-10: a factor of them has a norm
        # 1.35e-10 off 1, yet the kernel is still the weighted eigenvector sum
        from qregress import DensityOperator

        rng = np.random.default_rng(3)
        d, e = 4, 0.9e-10
        Q = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))[0]
        rho = DensityOperator(dim=d, rho=(Q * [0.5 + 3 * e, 0.5, -e, -e]) @ Q.conj().T)
        model = verify.random_model(rng, d)
        q = CorrelationQuery(times=(0.25,), a_ops=(np.eye(d),), b_ops=(np.eye(d),))
        cfg = CollisionConfig(dt=1 / 8)
        weights, vectors = np.linalg.eigh(rho.rho)
        ensemble = sum(w * oracle_kernel_joint(model, v, q, cfg)
                       for w, v in zip(weights, vectors.T) if w > 1e-12)
        assert abs(oracle_kernel_joint_mixed(model, rho, q, cfg) - ensemble) <= 1e-15

    def test_mixed_state_wrapper(self, atom):
        from qregress import DensityOperator

        rho = DensityOperator(dim=2, rho=np.diag([0.3, 0.7]).astype(complex))
        q = CorrelationQuery(times=(0.25,), a_ops=(I2,), b_ops=(NUM,))
        cfg = CollisionConfig(dt=1 / 16)
        w = oracle_kernel_joint_mixed(atom, rho, q, cfg)
        seq = oracle_kernel_sequential(atom, rho, q, cfg)
        assert abs(w - seq) <= 1e-12


class TestVacuumConditionalExpectation:
    d, m, slots = 2, 2, 3

    def _dim(self):
        return self.d * self.m**self.slots

    def test_adapted_operator_fixed(self):
        rng = np.random.default_rng(1)
        past = rng.standard_normal((self.d * self.m, self.d * self.m)) + 1j * rng.standard_normal(
            (self.d * self.m, self.d * self.m)
        )
        X = np.kron(past, np.eye(self.m ** (self.slots - 1)))
        out = vacuum_conditional_expectation(X, self.d, self.m, self.slots, cut=1)
        np.testing.assert_allclose(out, past, atol=1e-14)

    def test_late_photon_number_vanishes(self):
        number = slot_annihilator(self.m).conj().T @ slot_annihilator(self.m)
        X = np.kron(np.eye(self.d * self.m**2), number)
        out = vacuum_conditional_expectation(X, self.d, self.m, self.slots, cut=2)
        np.testing.assert_allclose(out, np.zeros_like(out), atol=1e-15)

    def _draws(self, seed, draws, slots, cut):
        # random A on the full space and Bp on the system and slots 1..cut
        rng = np.random.default_rng(seed)
        dim, past = self.d * self.m**slots, self.d * self.m**cut
        for _ in range(draws):
            A = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            Bp = rng.standard_normal((past, past)) + 1j * rng.standard_normal((past, past))
            yield A, Bp

    # slots4 is the 4-slot geometry the acceptance suite used to check: seed 17, 6 draws
    @pytest.mark.parametrize(
        "slots,cut,seed,draws", [(3, 1, 2, 1), (4, 2, 17, 6)], ids=["slots3", "slots4"]
    )
    def test_module_property(self, slots, cut, seed, draws):
        for A, Bp in self._draws(seed, draws, slots, cut):
            B = np.kron(Bp, np.eye(self.m ** (slots - cut)))
            lhs = vacuum_conditional_expectation(A @ B, self.d, self.m, slots, cut=cut)
            rhs = vacuum_conditional_expectation(A, self.d, self.m, slots, cut=cut) @ Bp
            assert np.abs(lhs - rhs).max() <= 1e-12

    @pytest.mark.parametrize(
        "slots,cut,seed,draws", [(3, 1, 3, 1), (4, 2, 17, 6)], ids=["slots3", "slots4"]
    )
    def test_tower_property(self, slots, cut, seed, draws):
        # condition down to slots - 1, then to 1, versus straight to 1
        for A, _ in self._draws(seed, draws, slots, cut):
            inner = vacuum_conditional_expectation(A, self.d, self.m, slots, cut=slots - 1)
            two_step = vacuum_conditional_expectation(inner, self.d, self.m, slots - 1, cut=1)
            one_step = vacuum_conditional_expectation(A, self.d, self.m, slots, cut=1)
            assert np.abs(two_step - one_step).max() <= 1e-14

    def test_markov_collapse(self):
        # operator on the system and slots 2..3, identity on slot 1:
        # conditioning at the first cut collapses it to a system operator
        rng = np.random.default_rng(4)
        part = rng.standard_normal((self.d * self.m**2,) * 2) + 1j * rng.standard_normal(
            (self.d * self.m**2,) * 2
        )
        p6 = part.reshape(self.d, self.m, self.m, self.d, self.m, self.m)
        full = np.einsum("iacjbd,ef->ieacjfbd", p6, np.eye(self.m)).reshape(
            self._dim(), self._dim()
        )
        out = vacuum_conditional_expectation(full, self.d, self.m, self.slots, cut=1)
        system_block = p6[:, 0, 0, :, 0, 0]
        np.testing.assert_allclose(out, np.kron(system_block, np.eye(self.m)), atol=1e-14)

    def test_dimension_validation(self):
        from qregress import DimensionError

        with pytest.raises(DimensionError):
            vacuum_conditional_expectation(np.eye(7), self.d, self.m, self.slots, cut=1)


def test_collision_imports_nothing_from_semigroup():
    # the collision oracle is the semigroup's independent cross-check
    tree = ast.parse(Path(collision.__file__).read_text())
    sources = [node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
    sources += [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                for alias in node.names]
    assert not [name for name in sources if name and name.split(".")[-1] == "semigroup"]


class TestItoTable:
    @pytest.mark.parametrize("dt,trunc", [(0.01, 2), (0.5, 3), (0.5, 2), (0.01, 3)])
    def test_vacuum_moments(self, dt, trunc):
        report = ito_table_check(CollisionConfig(dt=dt, trunc=trunc))
        assert report.moment_error <= report.moment_bound

    def test_single_slot_commutator(self):
        report = ito_table_check(CollisionConfig(dt=0.25, trunc=3), f_vals=(1.0,))
        assert report.commutator_defect <= report.commutator_bound

    def test_two_slot_step_functions(self):
        report = ito_table_check(
            CollisionConfig(dt=0.125, trunc=3),
            f_vals=(1.0, 0.5 - 0.5j),
            g_vals=(2.0, 1.0 + 1.0j),
        )
        assert report.commutator_defect <= report.commutator_bound
