"""Acceptance suite: one test per criterion, each asserting named verify checks.

Every criterion is a set of checks from the suite behind ``qregress verify``,
run at this suite's own seeds, so each property, bound and input generator is
defined once.  Run with ``pytest tests/test_acceptance.py -v -s`` to see one
report line per criterion with each check's measured value and bound.
"""

import pytest

from qregress import verify


def report(number: int, results: list[verify.CheckResult], names: tuple[str, ...]):
    by_name = {r.name: r for r in results}
    checks = [by_name[name] for name in names]
    passed = all(c.passed for c in checks)
    detail = ", ".join(f"{c.name} measured={c.measured:.6e} bound={c.bound}" for c in checks)
    print(f"[acceptance] criterion {number}: {'PASS' if passed else 'FAIL'} ({detail})")
    assert passed, f"criterion {number} failed: {detail}"


@pytest.fixture(scope="module")
def semigroup_checks():
    return verify.check_semigroup(2024)


def test_criterion_1_cptp_semigroup(semigroup_checks):
    report(1, semigroup_checks, ("semigroup.choi_min_eig", "semigroup.trace_preservation"))


def test_criterion_2_semigroup_law_and_duality(semigroup_checks):
    report(2, semigroup_checks, ("semigroup.law", "semigroup.duality"))


def test_criterion_3_form_equivalence():
    report(3, verify.check_form_equivalence(7), ("regression.form_equivalence",))


def test_criterion_4_atom_closed_forms():
    report(
        4,
        verify.check_atom_closed_forms(),
        ("regression.atom_population", "regression.atom_dipole"),
    )


def test_criterion_5_oracle_convergence():
    names = tuple(
        f"collision.{mode}_halving_ratio_n{n}"
        for mode in ("sequential", "joint")
        for n in (1, 2, 3)
    )
    report(5, verify.check_oracle_convergence(), names)


def test_criterion_6_ito_table():
    report(6, verify.check_ito(), ("collision.ito_moments",))


def test_criterion_7_conditional_expectation():
    report(
        7,
        verify.check_conditional_expectation(17),
        ("collision.conditional_module_property", "collision.conditional_tower"),
    )


def test_criterion_8_classical_embedding():
    report(
        8,
        verify.check_classical(23),
        ("classical.embedding_diff", "classical.absorbing_two_point"),
    )


def test_criterion_9_order_dependence():
    report(9, verify.check_order_dependence(), ("regression.order_dependence",))
