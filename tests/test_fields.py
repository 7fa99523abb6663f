"""Vector fields: Jacobians, Lie brackets, iterated brackets, zero tests."""

import json
import random
from pathlib import Path

import numpy as np
import pytest

from ctrlorder import fields, order
from ctrlorder import (
    BracketTable,
    DimensionMismatchError,
    Negate,
    Sum,
    VectorField,
    VfZeroVerdict,
    ZeroTestPolicy,
    ad_pow,
    const,
    jacobian,
    lie_bracket,
    load,
    parse,
    problem_order,
    simplify,
    verify_bracket_identities,
    vf_is_zero,
)
from ctrlorder.expr import EXACT_SAMPLED, FLOAT_SAMPLED, SYMBOLIC

from helpers import (
    SYSTEMS_DIR,
    counterexample_raw,
    eval_field,
    fuller,
    numeric_bracket,
    random_binding,
    random_poly_field,
)


def vf(names, *texts) -> VectorField:
    return VectorField.from_strings(tuple(names), texts)


def assert_field_equal(a: VectorField, b: VectorField) -> None:
    assert a.state_names == b.state_names
    for i, (ca, cb) in enumerate(zip(a.components, b.components)):
        assert simplify(ca) == simplify(cb), f"component {i}: {ca} != {cb}"


# ---------------------------------------------------------------------------
# jacobian
# ---------------------------------------------------------------------------


def test_jacobian_linear_field():
    m = jacobian(vf(("x1", "x2"), "x2", "0"))
    assert m.shape == (2, 2)
    assert m.rows[0] == (const(0), const(1))
    assert m.rows[1] == (const(0), const(0))


def test_jacobian_counterexample_first_row():
    sys6 = counterexample_raw()
    m = jacobian(sys6.drift)
    expected = (
        "0",
        "0",
        "-v1*sin(theta) + v2*cos(theta)",
        "cos(theta)",
        "sin(theta)",
        "0",
    )
    for entry, text in zip(m.rows[0], expected):
        assert simplify(entry) == simplify(parse(text, sys6.state_names))


def test_jacobian_constant_field_is_zero_matrix():
    m = jacobian(vf(("x1", "x2"), "3", "-1"))
    assert all(entry == const(0) for row in m.rows for entry in row)


# ---------------------------------------------------------------------------
# lie_bracket
# ---------------------------------------------------------------------------


def test_bracket_of_constant_fields_vanishes():
    a = vf(("x1", "x2"), "1", "2")
    b = vf(("x1", "x2"), "-1", "3")
    assert_field_equal(lie_bracket(a, b), VectorField.zero(("x1", "x2")))


def test_bracket_hand_example():
    a = vf(("x1", "x2"), "x2", "0")
    b = vf(("x1", "x2"), "0", "1")
    assert_field_equal(lie_bracket(a, b), vf(("x1", "x2"), "-1", "0"))


def test_bracket_dimension_mismatch():
    a = vf(("x1", "x2"), "x2", "0")
    b = vf(("y1", "y2"), "0", "1")
    with pytest.raises(DimensionMismatchError):
        lie_bracket(a, b)


def test_bracket_antisymmetry_random_fields():
    rng = random.Random(314)
    names = ("x1", "x2", "x3")
    policy = ZeroTestPolicy(seed=314)
    for _ in range(20):
        a = random_poly_field(rng, names)
        b = random_poly_field(rng, names)
        ab = lie_bracket(a, b)
        ba = lie_bracket(b, a)
        total = VectorField(
            names,
            tuple(simplify(Sum((x, y))) for x, y in zip(ab.components, ba.components)),
        )
        assert vf_is_zero(total, policy).is_zero


def test_bracket_bilinearity():
    rng = random.Random(2718)
    names = ("x1", "x2")
    policy = ZeroTestPolicy(seed=2718)
    for _ in range(10):
        a = random_poly_field(rng, names)
        b = random_poly_field(rng, names)
        c = random_poly_field(rng, names)
        b_plus_c = VectorField(
            names, tuple(Sum((x, y)) for x, y in zip(b.components, c.components))
        )
        lhs = lie_bracket(a, b_plus_c)
        rhs1 = lie_bracket(a, b)
        rhs2 = lie_bracket(a, c)
        residual = VectorField(
            names,
            tuple(
                simplify(Sum((x, Negate(Sum((y, z))))))
                for x, y, z in zip(lhs.components, rhs1.components, rhs2.components)
            ),
        )
        assert vf_is_zero(residual, policy).is_zero


def jacobi_sum(a, b, c):
    names = a.state_names
    t1 = lie_bracket(a, lie_bracket(b, c))
    t2 = lie_bracket(b, lie_bracket(c, a))
    t3 = lie_bracket(c, lie_bracket(a, b))
    return (
        VectorField(
            names,
            tuple(
                simplify(Sum((x, y, z)))
                for x, y, z in zip(t1.components, t2.components, t3.components)
            ),
        ),
        (t1, t2, t3),
    )


def test_jacobi_identity_symbolic_and_numeric():
    rng = random.Random(1618)
    names = ("x1", "x2")
    policy = ZeroTestPolicy(seed=1618)
    for _ in range(8):
        a = random_poly_field(rng, names)
        b = random_poly_field(rng, names)
        c = random_poly_field(rng, names)
        total, (t1, t2, t3) = jacobi_sum(a, b, c)
        assert vf_is_zero(total, policy).is_zero
        for _ in range(4):
            pt = random_binding(rng, names)
            residual = eval_field(t1, pt) + eval_field(t2, pt) + eval_field(t3, pt)
            assert np.max(np.abs(residual)) < 1e-8


def test_bracket_matches_finite_differences():
    rng = random.Random(555)
    names = ("x1", "x2", "x3")
    for _ in range(10):
        a = random_poly_field(rng, names)
        b = random_poly_field(rng, names)
        bracket = lie_bracket(a, b)
        pt = random_binding(rng, names)
        symbolic = eval_field(bracket, pt)
        numeric = numeric_bracket(a, b, pt, h=1e-5)
        assert np.max(np.abs(symbolic - numeric)) < 1e-6


# ---------------------------------------------------------------------------
# ad_pow
# ---------------------------------------------------------------------------


def test_ad_pow_level_zero_is_g():
    f = vf(("x1", "x2"), "x2", "0")
    g = vf(("x1", "x2"), "0", "1")
    assert_field_equal(ad_pow(f, g, 0), g)


def test_ad_pow_counterexample_chain():
    sys6 = counterexample_raw()
    f, g1 = sys6.drift, sys6.inputs[0]
    names = sys6.state_names
    assert_field_equal(
        ad_pow(f, g1, 1), vf(names, "-cos(theta)", "sin(theta)", "0", "0", "0", "0")
    )
    assert_field_equal(
        ad_pow(f, g1, 2),
        vf(names, "Omega*sin(theta)", "Omega*cos(theta)", "0", "0", "0", "0"),
    )


def test_ad_pow_fuller_chain_with_finite_difference_cross_check():
    sysf = fuller()
    f, g = sysf.drift, sysf.inputs[0]
    names = sysf.state_names
    ad2 = ad_pow(f, g, 2)
    assert_field_equal(ad2, vf(names, "2*x1", "0", "0"))
    ad3 = ad_pow(f, g, 3)
    assert_field_equal(ad3, vf(names, "2*x2", "0", "0"))
    # cross-check level 2 numerically: [f, [f, g]] via nested finite differences
    rng = random.Random(9)
    ad1 = ad_pow(f, g, 1)
    for _ in range(5):
        pt = random_binding(rng, names)
        numeric = numeric_bracket(f, ad1, pt, h=1e-5)
        assert np.max(np.abs(eval_field(ad2, pt) - numeric)) < 1e-6


def test_ad_pow_rejects_negative_level():
    f = vf(("x1",), "x1")
    with pytest.raises(ValueError):
        ad_pow(f, f, -1)


def test_bracket_table_memoises_each_chain():
    sys6 = counterexample_raw()
    t = BracketTable(sys6.drift, sys6.inputs)
    assert t.ad(0, 3) is t.ad(0, 3)
    assert_field_equal(t.ad(0, 3), ad_pow(sys6.drift, sys6.inputs[0], 3))


def test_bracket_table_rejects_mismatched_input():
    with pytest.raises(DimensionMismatchError):
        BracketTable(vf(("x1",), "x1"), (vf(("x2",), "1"),))


def test_ad_pow_concurrent_access_is_consistent():
    import threading

    sys6 = counterexample_raw()
    f, g1 = sys6.drift, sys6.inputs[0]
    results = [None] * 8
    errors = []

    def work(slot):
        try:
            results[slot] = ad_pow(f, g1, 4)
        except Exception as exc:  # noqa: BLE001 - surfaced via the errors list
            errors.append(exc)

    threads = [threading.Thread(target=work, args=(i,)) for i in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors
    reference = ad_pow(f, g1, 4)
    assert all(r == reference for r in results)


def _counted_diffs(monkeypatch) -> list:
    calls = []
    real = fields.diff

    def counted(e, var):
        calls.append(var)
        return real(e, var)

    monkeypatch.setattr(fields, "diff", counted)
    return calls


def test_problem_order_differentiates_each_field_once(monkeypatch):
    calls = _counted_diffs(monkeypatch)
    chain = Path(__file__).resolve().parents[1] / "ctrlbench" / "systems" / "chain.json"
    report = problem_order(load(json.loads(chain.read_text())))
    assert report.k == 6
    # f, g and ad_f^0..5 g: eight fields of 25 partial derivatives each
    assert len(calls) <= 200


def test_verify_bracket_identities_differentiates_each_distinct_field_once(monkeypatch):
    calls = _counted_diffs(monkeypatch)
    operands = []  # kept alive, so that each id() names one field
    real = fields.lie_bracket

    def recorded(a, b):
        operands.extend((a, b))
        return real(a, b)

    monkeypatch.setattr(fields, "lie_bracket", recorded)
    monkeypatch.setattr(order, "lie_bracket", recorded)
    sys3 = fuller()
    assert verify_bracket_identities(sys3).all_passed
    distinct = {id(field) for field in operands}
    assert len(operands) > 2 * len(distinct)  # fields recur as operands
    assert len(calls) == sys3.n**2 * len(distinct)


def test_jacobian_is_computed_once_per_field():
    field = vf(("x1", "x2"), "x2^2", "sin(x1)")
    assert jacobian(field) is jacobian(field) is field.jacobian


# ---------------------------------------------------------------------------
# vf_is_zero
# ---------------------------------------------------------------------------


def test_vf_is_zero_on_zero_field():
    assert vf_is_zero(VectorField.zero(("x1", "x2"))).is_zero


def test_vf_is_zero_identity_components():
    field = vf(("t", "x1"), "0", "sin(t)^2 + cos(t)^2 - 1")
    assert vf_is_zero(field).is_zero


def test_vf_is_zero_reports_component():
    field = vf(("x1", "x2"), "0", "x1")
    verdict = vf_is_zero(field)
    assert not verdict.is_zero
    assert verdict.component == 1
    assert "x1" in verdict.witness


def test_vf_is_zero_kind_is_the_weakest_of_its_components():
    names = ("t", "x1")
    zero = "x1*(x1 + 1)/(x1 + 1) - x1"  # sampled: simplify keeps the common factor
    assert vf_is_zero(vf(names, "0", "x1 - x1")) == VfZeroVerdict(True, SYMBOLIC)
    assert vf_is_zero(vf(names, "0", zero)) == VfZeroVerdict(True, EXACT_SAMPLED)
    trig = "sin(t)^2 + cos(t)^2 - 1"
    assert vf_is_zero(vf(names, trig, zero)) == VfZeroVerdict(True, FLOAT_SAMPLED)
    # a nonzero verdict carries the kind of the witnessing component
    verdict = vf_is_zero(vf(names, trig, "x1/10000000000000"))
    assert (verdict.is_zero, verdict.component, verdict.kind) == (False, 1, EXACT_SAMPLED)
    verdict = vf_is_zero(vf(names, zero, "exp(x1)"))
    assert (verdict.is_zero, verdict.component, verdict.kind) == (False, 1, FLOAT_SAMPLED)


def test_vector_field_validates_unknown_names():
    with pytest.raises(ValueError):
        VectorField(("x1",), (parse("x1 + x2", ("x1", "x2")),))


# ---------------------------------------------------------------------------
# sympy oracle for brackets on trig and rational fields
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", ["stress/rational_pendulum", "counterexample"])
def test_iterated_brackets_agree_with_sympy(name):
    sympy = pytest.importorskip("sympy")
    doc = json.loads((SYSTEMS_DIR / f"{name}.json").read_text())
    names = tuple(doc["states"])
    symbols = {n: sympy.Symbol(n) for n in names}
    x = sympy.Matrix([symbols[n] for n in names])

    def sym_field(texts):
        return sympy.Matrix([sympy.sympify(t, locals=symbols) for t in texts])

    f = sym_field(doc["f"])
    table = BracketTable(vf(names, *doc["f"]), [vf(names, *g) for g in doc["g"]])
    rng = random.Random(4242)
    points = [{n: rng.uniform(-1.5, 1.5) for n in names} for _ in range(8)]
    checked = 0
    for i, g_texts in enumerate(doc["g"]):
        h = sym_field(g_texts)
        for k in range(4):
            if k:  # [f, h] = (Dh) f - (Df) h
                h = h.jacobian(x) * f - f.jacobian(x) * h
            oracle = sympy.lambdify([symbols[n] for n in names], list(h), "math")
            field = table.ad(i, k)
            for pt in points:
                want = oracle(*(pt[n] for n in names))
                got = eval_field(field, pt)
                for a, b in zip(got, want):
                    assert abs(a - b) <= 1e-12 * abs(b), (name, i, k, pt)
                    checked += 1
    assert checked == len(doc["g"]) * 4 * len(points) * len(names)
