"""Order analysis: switching coefficients, problem order, parity, identities."""

import gc
import random
import weakref
from fractions import Fraction

import numpy as np
import pytest

from ctrlorder import (
    VectorField,
    ZeroTestPolicy,
    ad_pow,
    lie_bracket,
    local_order_at,
    problem_order,
    simplify,
    switching_coeffs,
    verify_bracket_identities,
    verify_single_input_parity,
)
from ctrlorder.order import consensus_of, evaluate_b_matrix

from helpers import (
    commuting,
    counterexample_extended,
    counterexample_raw,
    fuller,
    half_integer,
    load_system,
    random_single_input_system,
)


def assert_field_equal(a: VectorField, b: VectorField) -> None:
    for ca, cb in zip(a.components, b.components):
        assert simplify(ca) == simplify(cb)


# ---------------------------------------------------------------------------
# switching_coeffs
# ---------------------------------------------------------------------------


def test_level_one_b_fields_are_input_brackets():
    sys2 = half_integer()
    coeffs = switching_coeffs(sys2, 1)
    for i, gi in enumerate(sys2.inputs):
        for j, gj in enumerate(sys2.inputs):
            assert_field_equal(coeffs.b_fields[i][j], lie_bracket(gj, gi))


def test_counterexample_level_three_entry():
    sys6 = counterexample_raw()
    coeffs = switching_coeffs(sys6, 3)
    expected = VectorField.from_strings(
        sys6.state_names, ("sin(theta)", "cos(theta)", "0", "0", "0", "0")
    )
    assert_field_equal(coeffs.b_fields[0][2], expected)
    assert_field_equal(coeffs.a_fields[0], ad_pow(sys6.drift, sys6.inputs[0], 3))


def test_fuller_level_four_entry():
    sysf = fuller()
    coeffs = switching_coeffs(sysf, 4)
    expected = VectorField.from_strings(sysf.state_names, ("2", "0", "0"))
    assert_field_equal(coeffs.b_fields[0][0], expected)


def test_switching_coeffs_rejects_pending_cost():
    with pytest.raises(ValueError):
        switching_coeffs(load_system("counterexample"), 1)
    with pytest.raises(ValueError):
        switching_coeffs(counterexample_raw(), 0)


# ---------------------------------------------------------------------------
# problem_order
# ---------------------------------------------------------------------------


def test_counterexample_order_raw_and_extended():
    for sys_model in (counterexample_raw(), counterexample_extended()):
        report = problem_order(sys_model, 10)
        assert report.found
        assert report.k == 3
        assert report.q == Fraction(3, 2)
        assert isinstance(report.q, Fraction)


def test_fuller_order():
    report = problem_order(fuller(), 10)
    assert report.found and report.k == 4
    assert report.q == Fraction(2)


def test_half_integer_witness():
    report = problem_order(half_integer(), 10)
    assert report.found and report.k == 1
    assert report.q == Fraction(1, 2)


def test_commuting_system_truncates():
    report = problem_order(commuting(), 6)
    assert not report.found
    assert report.truncated_at == 6
    assert report.k is None and report.q is None
    assert len(report.evidence) == 6
    assert all(level.all_zero for level in report.evidence)


def test_evidence_levels_below_k_are_all_zero():
    report = problem_order(counterexample_raw(), 10)
    assert [level.level for level in report.evidence] == [1, 2, 3]
    assert report.evidence[0].all_zero
    assert report.evidence[1].all_zero
    nonzero = [e for e in report.evidence[2].entries if not e.zero]
    assert nonzero
    assert all(e.witness_component is not None for e in nonzero)


def test_problem_order_rejects_pending_cost_and_bad_kmax():
    with pytest.raises(ValueError):
        problem_order(load_system("counterexample"), 5)
    with pytest.raises(ValueError):
        problem_order(counterexample_raw(), 0)


def test_problem_order_deterministic_under_policy_seed():
    policy = ZeroTestPolicy(seed=12345)
    a = problem_order(counterexample_raw(), 5, policy)
    b = problem_order(counterexample_raw(), 5, policy)
    assert a == b


def test_problem_order_keeps_no_field_alive():
    sys6 = counterexample_raw()
    assert problem_order(sys6).found
    drift = weakref.ref(sys6.drift)
    del sys6
    gc.collect()
    assert drift() is None


# ---------------------------------------------------------------------------
# parity
# ---------------------------------------------------------------------------


def test_parity_fuller():
    check = verify_single_input_parity(fuller(), 10)
    assert check.applicable
    assert check.k_even is True
    assert check.report.k == 4


def test_parity_not_applicable_multi_input():
    check = verify_single_input_parity(counterexample_raw(), 10)
    assert not check.applicable
    assert check.k_even is None


def test_parity_not_applicable_when_truncated():
    check = verify_single_input_parity(commuting(), 4)
    assert not check.applicable
    assert not check.report.found


def test_parity_holds_on_random_sample():
    rng = random.Random(1202)
    found = 0
    for _ in range(20):
        sys_model = random_single_input_system(rng)
        check = verify_single_input_parity(sys_model, 6)
        if check.applicable:
            found += 1
            assert check.k_even, f"odd k = {check.report.k} for {sys_model}"
    assert found >= 5


# ---------------------------------------------------------------------------
# bracket identities
# ---------------------------------------------------------------------------


def test_identities_fuller():
    report = verify_bracket_identities(fuller())
    assert report.k_star == 3
    assert not report.capped
    assert report.all_passed
    sysf = fuller()
    f, g = sysf.drift, sysf.inputs[0]
    lhs = lie_bracket(g, ad_pow(f, g, 3))
    rhs = lie_bracket(ad_pow(f, g, 1), ad_pow(f, g, 2))
    assert_field_equal(lhs, VectorField.from_strings(sysf.state_names, ("2", "0", "0")))
    assert_field_equal(rhs, VectorField.from_strings(sysf.state_names, ("-2", "0", "0")))


def test_identities_k_star_one_system():
    doc = {
        "states": ["x1", "x2"],
        "inputs": 1,
        "f": ["x2^2", "0"],
        "g": [["0", "1"]],
    }
    from ctrlorder import load

    sys_model = load(doc)
    report = verify_bracket_identities(sys_model)
    assert report.k_star == 1
    assert report.all_passed


def test_identities_reject_multi_input():
    with pytest.raises(ValueError):
        verify_bracket_identities(counterexample_raw())


def test_identities_capped_on_commuting_system():
    report = verify_bracket_identities(commuting(), depth_cap=4)
    assert report.capped
    assert report.k_star == 4
    assert report.all_passed


# ---------------------------------------------------------------------------
# local order
# ---------------------------------------------------------------------------


def test_local_order_generic_matches_problem_order():
    sys6 = counterexample_raw()
    rng = random.Random(77)
    hits = 0
    for _ in range(100):
        x = [rng.uniform(-1, 1) for _ in range(6)]
        p = [rng.uniform(-1, 1) for _ in range(6)]
        result = local_order_at(sys6, x, p, 6, 1e-9)
        assert result.found
        assert result.k_local >= 3
        if result.k_local == 3:
            hits += 1
    assert hits >= 95


def test_local_order_zero_adjoint_not_found():
    sys6 = counterexample_raw()
    result = local_order_at(sys6, [0.1] * 6, [0.0] * 6, 5, 1e-9)
    assert not result.found
    assert result.k_local is None


def test_local_order_orthogonal_adjoint_not_found():
    # all level <= 3 bracket values at x live in the span of the first two
    # coordinates, so an adjoint supported elsewhere pairs to zero
    sys6 = counterexample_raw()
    x = [0.2, -0.4, 0.3, 0.5, -0.6, 0.7]
    p = [0.0, 0.0, 1.0, -0.5, 0.25, 2.0]
    result = local_order_at(sys6, x, p, 3, 1e-9)
    assert not result.found


def test_local_order_fuller_rank():
    result = local_order_at(fuller(), [0.3, 0.2, 0.1], [1.0, 0.5, 0.25], 6, 1e-9)
    assert result.found
    assert result.k_local == 4
    assert result.rank_estimate == 1
    assert abs(result.b_values[0][0] - 2.0) < 1e-12


def test_local_order_size_mismatch():
    with pytest.raises(ValueError):
        local_order_at(fuller(), [0.0, 0.0], [1.0, 0.0, 0.0], 4, 1e-9)


def test_evaluate_b_matrix_counterexample():
    sys6 = counterexample_raw()
    x = [0.0, 0.0, 0.3, 0.0, 0.0, 0.0]
    p = [1.0, 2.0, 0.0, 0.0, 0.0, 0.0]
    b3 = evaluate_b_matrix(sys6, 3, x, p)
    # entry (1, 3) pairs p with (sin th, cos th, 0, ...)
    expected = 1.0 * np.sin(0.3) + 2.0 * np.cos(0.3)
    assert abs(b3[0, 2] - expected) < 1e-12
    assert np.allclose(evaluate_b_matrix(sys6, 1, x, p), 0.0)
    assert np.allclose(evaluate_b_matrix(sys6, 2, x, p), 0.0)


def test_consensus_helper():
    assert consensus_of([3, 3, 4, None]) == (3, 1)
    assert consensus_of([None, None]) == (None, 2)
    assert consensus_of([4, 3, 4, 3]) == (3, 0)  # tie resolves to the smaller level
    assert consensus_of([5]) == (5, 0)
