"""Order analysis: switching coefficients, problem order, parity, identities."""

import gc
import json
import math
import random
import weakref
from fractions import Fraction

import numpy as np
import pytest

from ctrlorder import (
    BracketTable,
    VectorField,
    ZeroTestPolicy,
    ZeroVerdict,
    extend_with_cost,
    lie_bracket,
    load,
    local_order_at,
    problem_order,
    simplify,
    verify_bracket_identities,
    without_cost,
)
from ctrlorder import order
from ctrlorder.expr import FLOAT_SAMPLED, SYMBOLIC

from helpers import (
    commuting,
    counterexample_extended,
    counterexample_raw,
    double_integrator,
    fuller,
    half_integer,
    load_system,
    random_single_input_system,
    SYSTEMS_DIR,
)


def assert_field_equal(a: VectorField, b: VectorField) -> None:
    for ca, cb in zip(a.components, b.components):
        assert simplify(ca) == simplify(cb)


# ---------------------------------------------------------------------------
# the bracket fields behind A_k and B_k
# ---------------------------------------------------------------------------


def test_level_one_b_fields_are_input_brackets():
    sys2 = half_integer()
    table = BracketTable(sys2.drift, sys2.inputs)
    for i, gi in enumerate(sys2.inputs):
        for j, gj in enumerate(sys2.inputs):
            assert_field_equal(table.b(i, j, 1), lie_bracket(gj, gi))


def test_counterexample_level_three_entry():
    sys6 = counterexample_raw()
    table = BracketTable(sys6.drift, sys6.inputs)
    expected = VectorField.from_strings(
        sys6.state_names, ("sin(theta)", "cos(theta)", "0", "0", "0", "0")
    )
    assert_field_equal(table.b(0, 2, 3), expected)
    assert_field_equal(table.ad(0, 3), BracketTable(sys6.drift, (sys6.inputs[0],)).ad(0, 3))


def test_fuller_level_four_entry():
    sysf = fuller()
    expected = VectorField.from_strings(sysf.state_names, ("2", "0", "0"))
    assert_field_equal(BracketTable(sysf.drift, sysf.inputs).b(0, 0, 4), expected)


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


SHIPPED_F0 = "x^2 + y^2 + theta^2"


@pytest.mark.parametrize(
    "f0, g0, q",
    [
        # with g0 = 0, q = 3/2 exactly when f0 is affine in (v1, v2, Omega)
        (SHIPPED_F0, ("0", "0", "0"), Fraction(3, 2)),
        ("x*v1 + 3*Omega + y^2", ("0", "0", "0"), Fraction(3, 2)),
        ("v1^2", ("0", "0", "0"), Fraction(1)),
        ("Omega^2", ("0", "0", "0"), Fraction(1)),
        ("v1*v2", ("0", "0", "0"), Fraction(1)),
        # a control-dependent running cost can lower q further
        (SHIPPED_F0, ("v2", "0", "0"), Fraction(1, 2)),
        (SHIPPED_F0, ("x", "0", "0"), Fraction(1)),
    ],
    ids=["shipped", "affine-in-v", "v1^2", "Omega^2", "v1*v2", "g0-v2", "g0-x"],
)
def test_the_vehicle_order_depends_on_its_running_cost(f0, g0, q):
    doc = json.loads((SYSTEMS_DIR / "counterexample.json").read_text())
    assert doc["cost"]["f0"] == SHIPPED_F0
    report = problem_order(extend_with_cost(load({**doc, "cost": {"f0": f0, "g0": list(g0)}})))
    assert report.found and report.q == q


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
    nonzero = [e for e in report.evidence[2].entries if not e.verdict.is_zero]
    assert nonzero
    assert all(e.verdict.component is not None for e in nonzero)
    first = nonzero[0]
    assert (first.i, first.j, first.verdict.kind, first.verdict.component) == (0, 2, SYMBOLIC, 0)
    assert first.verdict.witness and math.isfinite(first.verdict.value)


def test_evidence_keeps_the_zero_tests_kind():
    # g1's second component is zero only by the double-angle identity, which the
    # normal form does not decide, so brackets with g1 are zero by sampling alone
    sys_model = load({
        "states": ["x1", "x2"],
        "inputs": 2,
        "f": ["0", "0"],
        "g": [["0", "sin(2*x1) - 2*sin(x1)*cos(x1)"], ["1", "0"]],
    })
    report = problem_order(sys_model, 1)
    verdicts = {(e.i, e.j): e.verdict for e in report.evidence[0].entries}
    assert verdicts == {
        (0, 0): ZeroVerdict(True, SYMBOLIC),
        (0, 1): ZeroVerdict(True, FLOAT_SAMPLED),
        (1, 0): ZeroVerdict(True, FLOAT_SAMPLED),
        (1, 1): ZeroVerdict(True, SYMBOLIC),
    }


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
    report = problem_order(fuller(), 10)
    assert report.found
    assert report.k == 4


def test_parity_holds_on_random_sample():
    rng = random.Random(1202)
    found = 0
    for _ in range(20):
        sys_model = random_single_input_system(rng)
        report = problem_order(sys_model, 6)
        if report.found:
            found += 1
            assert report.k % 2 == 0, f"odd k = {report.k} for {sys_model}"
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
    lhs = lie_bracket(g, BracketTable(f, (g,)).ad(0, 3))
    rhs = lie_bracket(BracketTable(f, (g,)).ad(0, 1), BracketTable(f, (g,)).ad(0, 2))
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


def test_identities_reject_a_pending_cost():
    s = double_integrator()
    with pytest.raises(ValueError, match="pending running cost"):
        verify_bracket_identities(s, depth_cap=3)
    report = verify_bracket_identities(without_cost(s), depth_cap=3)
    assert report.all_passed


def test_identities_capped_on_commuting_system():
    report = verify_bracket_identities(commuting(), depth_cap=4)
    assert report.capped
    assert report.k_star == 4
    assert report.all_passed


def test_identities_derive_only_the_order_searchs_level_seeds(monkeypatch):
    tags = []
    real = ZeroTestPolicy.derive

    def recorded(self, *t):
        tags.append(t)
        return real(self, *t)

    monkeypatch.setattr(ZeroTestPolicy, "derive", recorded)
    report = verify_bracket_identities(fuller(), depth_cap=6)
    assert report.k_star == 3 and report.all_passed
    assert [t for t in tags if t[0] == "order"] == [("order", k, 0, 0) for k in range(1, 5)]
    assert {t[0] for t in tags} == {"order", "component", "swap", "slide"}


def _spied_levels(monkeypatch) -> list:
    """The level searches that verify_bracket_identities runs."""
    searches = []
    real = order._levels

    def spied(*args):
        searches.append(real(*args))
        return searches[-1]

    monkeypatch.setattr(order, "_levels", spied)
    return searches


def _sampled_system(f1: str, f2: str):
    return load({"states": ["x1", "x2"], "inputs": 1, "f": [f1, f2], "g": [["0", "1"]]})


def test_identities_read_a_sampled_nonzero_level_from_the_order_search(monkeypatch):
    # [g, ad_f g] = (-2 + a sin/cos kernel identity, 0): a float-sampled nonzero
    s = _sampled_system("x2^2 + x1*(sin(2*x2) - 2*sin(x2)*cos(x2))", "0")
    searches = _spied_levels(monkeypatch)
    depth = 6
    report = verify_bracket_identities(s, depth_cap=depth)
    assert (report.k_star, report.capped, report.all_passed) == (1, False, True)
    [levels] = searches
    expected = problem_order(s, depth + 1)
    assert expected.k == 2
    assert levels[-1].entries[0].verdict.kind == FLOAT_SAMPLED
    assert levels == expected.evidence  # kind, witness and value, level by level


def test_identities_even_check_is_the_order_searchs_verdict(monkeypatch):
    # sin(2*x1) - 2*sin(x1)*cos(x1) is a float-sampled zero from level 4 on
    s = _sampled_system("x2", "sin(2*x1) - 2*sin(x1)*cos(x1)")
    assert not problem_order(s, 6).found
    report = verify_bracket_identities(s, depth_cap=5)
    assert (report.k_star, report.capped, report.all_passed) == (5, True, True)
    assert "even k* vanishing" not in [c.name for c in report.checks]

    searches = _spied_levels(monkeypatch)
    report = verify_bracket_identities(s, depth_cap=4)
    assert (report.k_star, report.capped, report.all_passed) == (4, True, True)
    [levels] = searches
    even = [c.verdict for c in report.checks if c.name == "even k* vanishing"]
    level5 = problem_order(s, 5).evidence[-1]
    assert level5.level == 5 and level5.entries[0].verdict.kind == FLOAT_SAMPLED
    assert even == [level5.entries[0].verdict] == [levels[-1].entries[0].verdict]


def test_identities_k_star_is_the_problem_order_minus_one_on_shipped_systems():
    policy = ZeroTestPolicy()
    shipped = [commuting(), without_cost(double_integrator()),
               extend_with_cost(double_integrator()), fuller()]
    for path in ("systems/stress/rational_pendulum.json", "ctrlbench/systems/chain.json",
                 "ctrlbench/systems/rational_chain.json"):
        shipped.append(without_cost(load(json.loads((SYSTEMS_DIR.parent / path).read_text()))))
    for s in shipped:
        name = (s.label, s.n)
        identities = verify_bracket_identities(s, policy, 10)
        report = problem_order(s, 11, policy)
        assert identities.all_passed, name
        assert identities.capped == (not report.found), name
        if report.found:
            assert identities.k_star + 1 == report.k, name


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


@pytest.mark.parametrize("c", [2.0**-1000, 1e-10, 1.0, 1e10])
def test_local_order_is_invariant_under_adjoint_scale(c):
    # B_k is linear in p, so the level test is relative to max_i |p_i|
    p = [c * v for v in (1.0, 0.5, 0.25)]
    result = local_order_at(fuller(), [0.3, 0.2, 0.1], p, 10, 1e-9)
    assert (result.found, result.k_local, result.rank_estimate) == (True, 4, 1)
    assert result.b_values[0][0] == pytest.approx(2.0 * c, rel=1e-12)


def test_local_order_size_mismatch():
    with pytest.raises(ValueError):
        local_order_at(fuller(), [0.0, 0.0], [1.0, 0.0, 0.0], 4, 1e-9)


def test_local_order_checks_its_options():
    # in order: k_max, tolerance, point sizes, then a pending cost
    raw, pending = fuller(), load_system("counterexample")
    with pytest.raises(ValueError, match="^k_max must be an integer >= 1$"):
        local_order_at(raw, [0.0], [1.0], 0, 0.0)
    with pytest.raises(ValueError, match="^tolerance must be > 0$"):
        local_order_at(raw, [0.0], [1.0], 3, 0.0)
    with pytest.raises(ValueError, match="^state and adjoint points must have dimension 6,"
                       " got 1 and 6$"):
        local_order_at(pending, [0.0], [1.0] * 6, 3, 1e-9)
    with pytest.raises(ValueError, match="pending running cost"):
        local_order_at(pending, [0.0] * 6, [1.0] * 6, 3, 1e-9)


def test_evaluate_b_matrix_counterexample():
    sys6 = counterexample_raw()
    x = [0.0, 0.0, 0.3, 0.0, 0.0, 0.0]
    p = [1.0, 2.0, 0.0, 0.0, 0.0, 0.0]
    # B_1 and B_2 vanish, so B_3 is the first matrix the local order reads
    result = local_order_at(sys6, x, p, 3, 1e-9)
    assert result.found and result.k_local == 3
    # entry (1, 3) pairs p with (sin th, cos th, 0, ...)
    expected = 1.0 * np.sin(0.3) + 2.0 * np.cos(0.3)
    assert abs(result.b_values[0][2] - expected) < 1e-12
