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
    ZeroTestPolicy,
    ZeroVerdict,
    const,
    evaluate,
    lie_bracket,
    load,
    parse,
    problem_order,
    simplify,
    to_text,
    verify_bracket_identities,
    vf_is_zero,
)
from ctrlorder.expr import FLOAT_SAMPLED, SYMBOLIC, DivisionByZeroError, ExprError

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
    rows = vf(("x1", "x2"), "x2", "0").jacobian
    assert len(rows) == 2 and all(len(row) == 2 for row in rows)
    assert rows[0] == (const(0), const(1))
    assert rows[1] == (const(0), const(0))


def test_jacobian_counterexample_first_row():
    sys6 = counterexample_raw()
    rows = sys6.drift.jacobian
    expected = (
        "0",
        "0",
        "-v1*sin(theta) + v2*cos(theta)",
        "cos(theta)",
        "sin(theta)",
        "0",
    )
    for entry, text in zip(rows[0], expected):
        assert simplify(entry) == simplify(parse(text, sys6.state_names))


def test_jacobian_constant_field_is_zero_matrix():
    rows = vf(("x1", "x2"), "3", "-1").jacobian
    assert all(entry == const(0) for row in rows for entry in row)


def _document(path: str) -> dict:
    return json.loads((SYSTEMS_DIR.parent / path).read_text())


def test_jacobian_of_a_rational_field_is_cancelled():
    # d(y2/(y4^2 + 1))/dy2, where the quotient rule leaves (y4^2 + 1)/(y4^2 + 1)^2
    doc = _document("ctrlbench/systems/rational_chain.json")
    f = vf(doc["states"], *doc["f"])
    assert to_text(f.jacobian[0][1]) == "1/(y4^2 + 1)"


@pytest.mark.parametrize(
    "path",
    [
        "systems/stress/rational_pendulum.json",
        "systems/counterexample.json",
        "ctrlbench/systems/rational_chain.json",
    ],
)
def test_jacobians_agree_with_sympy(path):
    sympy = pytest.importorskip("sympy")
    doc = _document(path)
    names = tuple(doc["states"])
    symbols = {n: sympy.Symbol(n) for n in names}
    x = list(symbols.values())
    rng = random.Random(f"jacobian-{path}")
    points = [[rng.uniform(-1.5, 1.5) for _ in names] for _ in range(8)]
    checked = 0
    for texts in (doc["f"], *doc["g"]):
        field = sympy.Matrix([sympy.sympify(t, locals=symbols) for t in texts])
        oracle = sympy.lambdify(x, field.jacobian(x).tolist(), "math")
        rows = vf(names, *texts).jacobian
        for pt in points:
            want = oracle(*pt)
            for i, row in enumerate(rows):
                for j, entry in enumerate(row):
                    got = evaluate(entry, dict(zip(names, pt)))
                    assert abs(got - want[i][j]) <= 1e-12 * abs(want[i][j]), (path, i, j, pt)
                    checked += 1
    assert checked == len(points) * (1 + len(doc["g"])) * len(names) ** 2


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
    assert_field_equal(BracketTable(f, (g,)).ad(0, 0), g)


def test_ad_pow_counterexample_chain():
    sys6 = counterexample_raw()
    f, g1 = sys6.drift, sys6.inputs[0]
    names = sys6.state_names
    assert_field_equal(
        BracketTable(f, (g1,)).ad(0, 1), vf(names, "-cos(theta)", "sin(theta)", "0", "0", "0", "0")
    )
    assert_field_equal(
        BracketTable(f, (g1,)).ad(0, 2),
        vf(names, "Omega*sin(theta)", "Omega*cos(theta)", "0", "0", "0", "0"),
    )


def test_ad_pow_fuller_chain_with_finite_difference_cross_check():
    sysf = fuller()
    f, g = sysf.drift, sysf.inputs[0]
    names = sysf.state_names
    ad2 = BracketTable(f, (g,)).ad(0, 2)
    assert_field_equal(ad2, vf(names, "2*x1", "0", "0"))
    ad3 = BracketTable(f, (g,)).ad(0, 3)
    assert_field_equal(ad3, vf(names, "2*x2", "0", "0"))
    # cross-check level 2 numerically: [f, [f, g]] via nested finite differences
    rng = random.Random(9)
    ad1 = BracketTable(f, (g,)).ad(0, 1)
    for _ in range(5):
        pt = random_binding(rng, names)
        numeric = numeric_bracket(f, ad1, pt, h=1e-5)
        assert np.max(np.abs(eval_field(ad2, pt) - numeric)) < 1e-6


def test_ad_pow_rejects_negative_level():
    f = vf(("x1",), "x1")
    with pytest.raises(ValueError):
        BracketTable(f, (f,)).ad(0, -1)


def test_bracket_table_memoises_each_chain():
    sys6 = counterexample_raw()
    t = BracketTable(sys6.drift, sys6.inputs)
    assert t.ad(0, 3) is t.ad(0, 3)
    assert_field_equal(t.ad(0, 3), BracketTable(sys6.drift, (sys6.inputs[0],)).ad(0, 3))


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
            results[slot] = BracketTable(f, (g1,)).ad(0, 4)
        except Exception as exc:  # noqa: BLE001 - surfaced via the errors list
            errors.append(exc)

    threads = [threading.Thread(target=work, args=(i,)) for i in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors
    reference = BracketTable(f, (g1,)).ad(0, 4)
    assert all(r == reference for r in results)


def test_one_ring_shared_by_threads_registers_each_kernel_and_factor_once():
    import os
    import sys
    import threading

    from ctrlorder.normal import Ring, render

    names = ("th", "w")
    texts = ("-sin(th)/(1 + w^2)", "cos(th)*exp(w*th)/(2 + 2*w^2)", "exp(th*w)/(1 + th^2)")
    trees = [parse(t, names) for t in texts]
    ring = Ring(names)
    results, errors = [], []

    def work():
        try:
            results.append(tuple(render(ring.convert(t)) for t in trees))
        except Exception as exc:  # noqa: BLE001 - surfaced via the errors list
            errors.append(exc)

    threads = [threading.Thread(target=work) for _ in range(min(64, (os.cpu_count() or 2) + 4))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not errors and not any(t.is_alive() for t in threads)
    assert len(results) == len(threads) and len(set(results)) == 1
    assert len(ring.kernels) == 2  # sin/cos(th) and exp(th*w)
    assert len(ring.factors) == 2  # w^2 + 1 (also from 2 + 2*w^2) and th^2 + 1


def _counted_diffs(monkeypatch) -> list:
    """The (id of the normal form, state) of every partial derivative taken."""
    calls = []
    real = fields.diff_index

    def counted(e, j):
        calls.append((id(e), e.ring.names[j]))
        return real(e, j)

    monkeypatch.setattr(fields, "diff_index", counted)
    return calls


def test_problem_order_differentiates_each_field_once(monkeypatch):
    calls = _counted_diffs(monkeypatch)
    bench = Path(__file__).resolve().parents[1] / "ctrlbench" / "systems"
    report = problem_order(load(json.loads((bench / "chain.json").read_text())))
    assert report.k == 6
    # f, g and ad_f^0..5 g, each differentiated only in the columns a bracket
    # reads (all of them would be 7 fields of 25 partials each, 175)
    assert len(calls) == 155
    calls.clear()
    report = problem_order(load(json.loads((bench / "rational_chain.json").read_text())))
    assert report.k is None
    # ad_f^k g is zero from k = 4 on, so no later level reads a column (176 with full Jacobians)
    assert len(calls) == 80


def test_verify_bracket_identities_differentiates_each_distinct_field_once(monkeypatch):
    calls = _counted_diffs(monkeypatch)
    operands = []  # kept alive, so that each id() names one field and one normal form
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
    assert len(set(calls)) == len(calls)  # no partial is taken twice
    assert len(calls) <= sys3.n**2 * len(distinct)


def test_jacobian_is_computed_once_per_field():
    field = vf(("x1", "x2"), "x2^2", "sin(x1)")
    assert field.jacobian is field.jacobian


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
    zero = "x1*(x1 + 1)/(x1 + 1) - x1"  # the common factor cancels, so N = 0
    assert vf_is_zero(vf(names, "0", "x1 - x1")) == ZeroVerdict(True, SYMBOLIC)
    assert vf_is_zero(vf(names, "0", zero)) == ZeroVerdict(True, SYMBOLIC)
    trig = "sin(t)^2 + cos(t)^2 - 1"
    assert vf_is_zero(vf(names, trig, zero)) == ZeroVerdict(True, SYMBOLIC)
    # sin(2t) beside sin(t): dependent arguments, so this zero is sampled in floats
    dependent = "sin(2*t) - 2*sin(t)*cos(t)"
    assert vf_is_zero(vf(names, trig, dependent)) == ZeroVerdict(True, FLOAT_SAMPLED)
    # a nonzero verdict carries the kind of the witnessing component
    verdict = vf_is_zero(vf(names, trig, "x1/10000000000000"))
    assert (verdict.is_zero, verdict.component, verdict.kind) == (False, 1, SYMBOLIC)
    verdict = vf_is_zero(vf(names, zero, "exp(x1)"))
    assert (verdict.is_zero, verdict.component, verdict.kind) == (False, 1, SYMBOLIC)
    # 0.5 is 1/2: a decimal constant is decided by N too
    verdict = vf_is_zero(vf(names, zero, "0.5*exp(x1)"))
    assert (verdict.is_zero, verdict.component, verdict.kind) == (False, 1, SYMBOLIC)
    verdict = vf_is_zero(vf(names, zero, "exp(sin(x1))"))  # a nested kernel
    assert (verdict.is_zero, verdict.component, verdict.kind) == (False, 1, FLOAT_SAMPLED)


def test_analysed_fields_pickle_and_copy_as_trees():
    import copy
    import pickle

    system = fuller()
    table = BracketTable(system.drift, system.inputs)
    bracket = table.b(0, 0, 4)
    for field in (system.drift, bracket):
        for clone in (pickle.loads(pickle.dumps(field)), copy.deepcopy(field)):
            # rebuilt by the constructor from the rendered trees, in a ring of its own
            assert clone == field and clone._normal[0] is not field._normal[0]
    assert problem_order(copy.deepcopy(system)).k == 4
    assert not vf_is_zero(pickle.loads(pickle.dumps(bracket))).is_zero


def test_a_field_built_from_trees_prints_its_normal_form():
    field = vf(("x1", "x2"), "x2 + x1*x1 - x1^2", "((x1 + 1)^2 - 1)/x1")
    assert str(field) == "(x2, x1 + 2)"
    assert field.components == tuple(simplify(c) for c in field.components)


def test_a_power_of_a_cosine_prints_as_written():
    # c^2 -> 1 - s^2 reduces cos(x1)^200 to 101 terms of up to C(100, 50), which
    # no float evaluates near x1 = pi/2; even powers of a sine are printed in the
    # cosine where their sum of |coefficients| is over 2^12 times smaller there
    field = vf(("x1", "x2"), "cos(x1)^200 + x2*(1 - sin(x1)^2)", "(cos(x1)^1000 + 1)^1000")
    assert str(field) == "(x2 + cos(x1)^200 - x2*sin(x1)^2, (cos(x1)^1000 + 1)^1000)"
    assert str(vf(("x1",), "cos(x1)^24")).startswith("(-12*sin(x1)^2 + 66*sin(x1)^4 - ")
    assert str(vf(("x1",), "cos(x1)^26")) == "(cos(x1)^26)"


def test_vector_field_validates_unknown_names():
    with pytest.raises(ValueError):
        VectorField(("x1",), (parse("x1 + x2", ("x1", "x2")),))


@pytest.mark.parametrize(
    "text, error",
    [("x1/0", DivisionByZeroError), ("(x1^1000)^2", ExprError)],
    ids=["division-by-zero", "exponent-past-max"],
)
def test_building_a_field_raises_the_normal_forms_errors(text, error):
    # a field is its normal forms, converted when it is built
    with pytest.raises(error):
        vf(("x1",), text)


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


# ---------------------------------------------------------------------------
# the normal form against oracles: sympy values, 50-digit mpmath zeros, Jacobi
# ---------------------------------------------------------------------------

NAMES2 = ("x1", "x2")
# kernel arguments that are Q-linearly independent together with 1: every
# verdict on fields built from them is symbolic
TRIG_ARGS = ("x1", "x2", "x1*x2", "x1 + x2^2", "x1/(1 + x2^2)")
EXP_ARGS = ("x2", "x1*x2 - x1")
DENOMINATORS = ("1 + x1^2", "2 + x2^2", "1 + x1^2*x2^2")


def random_component(rng: random.Random, kind: str) -> str:
    """A seeded random component: 'poly', 'rational' or 'trig' (trig, exp and
    rational terms, compound arguments included)."""
    terms = []
    for _ in range(rng.randint(1, 3)):
        factors = [rng.choice(("1", "-1", "2", "-3", "1/2", "-2/3"))]
        factors += [rng.choice(("x1", "x2", "x1^2", "x2^3", "x1*x2")) for _ in range(rng.randint(0, 2))]
        if kind == "trig":
            function = rng.choice(("sin", "cos", "exp"))
            arg = rng.choice(EXP_ARGS if function == "exp" else TRIG_ARGS)
            factors.append(f"{function}({arg})" + rng.choice(("", "^2")))
        term = "*".join(f"({f})" for f in factors)
        if kind != "poly" and rng.random() < 0.5:
            term = f"{term}/({rng.choice(DENOMINATORS)})"
        terms.append(term)
    return " + ".join(terms)


def random_texts(rng: random.Random, kind: str) -> tuple[str, ...]:
    return tuple(random_component(rng, kind) if rng.random() < 0.85 else "0" for _ in NAMES2)


class SympyOracle:
    def __init__(self, sympy):
        self.sympy = sympy
        self.symbols = [sympy.Symbol(n) for n in NAMES2]
        self.x = sympy.Matrix(self.symbols)

    def field(self, texts):
        locals_ = dict(zip(NAMES2, self.symbols))
        return self.sympy.Matrix([self.sympy.sympify(t, locals=locals_) for t in texts])

    def bracket(self, a, b):  # [a, b] = (Db) a - (Da) b
        return b.jacobian(self.x) * a - a.jacobian(self.x) * b


@pytest.mark.parametrize("kind", ["poly", "rational", "trig"])
def test_normal_form_brackets_agree_with_sympy_on_random_fields(kind):
    sympy = pytest.importorskip("sympy")
    oracle = SympyOracle(sympy)
    rng = random.Random(f"normal-{kind}")
    checked = 0
    for n in range(12):
        ta, tb = random_texts(rng, kind), random_texts(rng, kind)
        a, b = vf(NAMES2, *ta), vf(NAMES2, *tb)
        sa, sb = oracle.field(ta), oracle.field(tb)
        ab, sab = lie_bracket(a, b), oracle.bracket(sa, sb)
        pairs = [(ab, sab)]
        if n < 4:  # sympy is slow on the nested bracket
            pairs.append((lie_bracket(a, ab), oracle.bracket(sa, sab)))
        for ours, theirs in pairs:
            fn = sympy.lambdify(oracle.symbols, list(theirs), "math")
            for _ in range(4):
                pt = {n: rng.uniform(-1.5, 1.5) for n in NAMES2}
                want = fn(*(pt[n] for n in NAMES2))
                got = eval_field(ours, pt)
                for x, y in zip(got, want):
                    assert abs(x - y) <= 1e-9 * (1 + abs(y)), (ta, tb, pt)
                    checked += 1
    assert checked == 16 * 4 * 2


def _trig_cases(rng: random.Random):
    """(field, its sympy texts) pairs of bracket-built fields, zero and not."""
    for _ in range(6):
        ta, tb = random_texts(rng, "trig"), random_texts(rng, "trig")
        # fields along x1 that depend on x2 only commute
        sa = (random_component(rng, "trig").replace("x1", "x2"), "0")
        sb = (random_component(rng, "trig").replace("x1", "x2"), "0")
        yield ta, tb
        yield sa, sb
        yield (f"({ta[0]})*(sin(x1*x2)^2 + cos(x1*x2)^2 - 1)", ta[1]), tb


def test_trig_zero_verdicts_hold_at_50_digits():
    sympy = pytest.importorskip("sympy")
    mpmath = pytest.importorskip("mpmath")
    oracle = SympyOracle(sympy)
    rng = random.Random(5050)
    verdicts = {True: 0, False: 0}
    for ta, tb in _trig_cases(rng):
        a, b = vf(NAMES2, *ta), vf(NAMES2, *tb)
        sa, sb = oracle.field(ta), oracle.field(tb)
        fields_ = [
            (lie_bracket(a, b), oracle.bracket(sa, sb)),
            (lie_bracket(a, b) + lie_bracket(b, a), oracle.bracket(sa, sb) + oracle.bracket(sb, sa)),
        ]
        for ours, theirs in fields_:
            verdict = vf_is_zero(ours)
            assert verdict.kind == SYMBOLIC
            fn = sympy.lambdify(oracle.symbols, list(theirs), "mpmath")
            with mpmath.workdps(50):
                if verdict.is_zero:
                    for _ in range(3):
                        pt = [mpmath.mpf(rng.randint(-10**6, 10**6)) / 10**6 for _ in NAMES2]
                        assert all(abs(v) < mpmath.mpf(10) ** -35 for v in fn(*pt)), (ta, tb)
                else:
                    pt = [mpmath.mpf(verdict.witness[n]) for n in NAMES2]
                    value = fn(*pt)[verdict.component]
                    assert abs(value) > mpmath.mpf(10) ** -20, (ta, tb)
            verdicts[verdict.is_zero] += 1
    assert verdicts[True] >= 12 and verdicts[False] >= 6


@pytest.mark.parametrize("kind", ["poly", "rational", "trig"])
def test_jacobi_identity_is_a_symbolic_zero(kind):
    rng = random.Random(f"jacobi-{kind}")
    for _ in range(4):
        a, b, c = (vf(NAMES2, *random_texts(rng, kind)) for _ in range(3))
        total = (
            lie_bracket(a, lie_bracket(b, c))
            + lie_bracket(b, lie_bracket(c, a))
            + lie_bracket(c, lie_bracket(a, b))
        )
        assert vf_is_zero(total) == ZeroVerdict(True, SYMBOLIC)


@pytest.mark.parametrize(
    "text, zero",
    [
        ("0.5*x1*sin(x2)", False),  # a decimal constant is the rational it spells
        ("0.1*x1 + 0.2*x1 - 0.3*x1", True),  # and folds with no rounding
        ("x1*(0.5*x1 + x2)^3", False),  # in a numerator factor too
    ],
)
def test_a_decimal_constant_is_decided_by_n(text, zero):
    from ctrlorder import normal

    field = vf(NAMES2, "0", text)
    _, comps, _ = field._normal_in()
    assert normal.decides(comps[1])
    verdict = vf_is_zero(field)
    assert (verdict.is_zero, verdict.kind) == (zero, SYMBOLIC)


@pytest.mark.parametrize(
    "text, zero",
    [
        ("sin(x1 + 1)*sin(x1)", False),  # arguments that differ by a constant: dependent
        ("sin(x1 + 1) - sin(x1)*cos(1) - cos(x1)*sin(1)", True),
        ("sin(2*x1) - 2*sin(x1)*cos(x1)", True),  # sin x beside sin 2x: dependent
        ("exp(x1)*exp(x2) - exp(x1 + x2)", True),  # dependent exp arguments
        ("sin(sin(x1))", False),  # a nested kernel
        ("exp(sin(x1))^2 - exp(2*sin(x1))", True),
    ],
)
def test_each_fallback_case_is_sampled(text, zero):
    from ctrlorder import normal

    field = vf(NAMES2, "0", text)
    _, comps, _ = field._normal_in()
    assert not normal.decides(comps[1])
    verdict = vf_is_zero(field)
    assert verdict.is_zero == zero
    assert verdict.kind == FLOAT_SAMPLED
    # the same component without the offending feature is decided by N
    assert vf_is_zero(vf(NAMES2, "0", "x1*sin(x2) - exp(x1*x2)")).kind == SYMBOLIC


def test_a_symbolic_witness_is_the_point_the_sampled_test_draws():
    from ctrlorder import normal
    from ctrlorder.expr import _DENOM_BITS, sampled_is_zero

    policy = ZeroTestPolicy()
    draw = random.Random(policy.seed).randint(-(1 << _DENOM_BITS), 1 << _DENOM_BITS)
    a = f"{draw}/{1 << _DENOM_BITS}"  # x1 at the first seeded point
    texts = (
        f"x1 - {a}",  # N vanishes there: not a witness
        f"(x1 - {a})^3",  # a numerator factor that vanishes there: not a witness
        f"x2/(x1 - {a})",  # a denominator that vanishes there: redrawn
        "x1*x2 - 1",
        "sin(x1)*exp(x2/(1 + x1^2)) + x2",
        "x1/(2305843009213693951*(x1 + x2))",  # 1/(2^61 - 1) has no residue: in Fraction
    )
    for text in texts:
        _, comps, _ = vf(NAMES2, "0", text)._normal_in()
        verdict = normal.zero_verdict(comps[1], policy)
        sampled = sampled_is_zero(normal.render(comps[1]), policy)
        assert not verdict.is_zero and verdict.kind == SYMBOLIC, text
        assert verdict.witness == sampled.witness, text
        assert verdict.value == pytest.approx(sampled.value, rel=1e-12), text


def test_a_constant_part_alone_is_decided_by_n():
    # Ax's condition is independence modulo constants: x1 + 1 and x2 with 1 are
    # independent, so sin(x1 + 1) and exp(x2 + 1/2) are atoms like sin(x1)
    verdict = vf_is_zero(vf(NAMES2, "0", "sin(x1 + 1)*exp(x2 + 1/2) - x1"))
    assert not verdict.is_zero and verdict.kind == SYMBOLIC
    field = vf(NAMES2, "0", "sin(x1 + 1)^2 + cos(1 + x1)^2 - 1")
    assert vf_is_zero(field) == ZeroVerdict(True, SYMBOLIC)


POWER_STATES = ("x1", "x2", "x3", "x4")


@pytest.mark.parametrize(
    "first, atom",  # whether f itself needs the atom that stands for the sum
    [("(x1 + x2 + x3 + x4)^1000", False), ("x2 + (x1 + x2 + x3 + x4)^1000", True)],
)
def test_a_large_power_of_a_sum_is_not_expanded(first, atom):
    import time

    from ctrlorder import normal
    from ctrlorder.expr import EXACT_SAMPLED

    sympy = pytest.importorskip("sympy")

    f = VectorField.from_strings(POWER_STATES, (first, "x1", "x2", "x3"))
    g = VectorField.from_strings(POWER_STATES, ("0", "1", "0", "0"))
    start = time.perf_counter()
    table = BracketTable(f, (g,))
    ads = [table.ad(0, k) for k in range(5)]
    verdicts = [vf_is_zero(table.b(0, 0, k)) for k in range(1, 5)]
    texts = [str(field) for field in ads]
    assert time.perf_counter() - start < 10
    # each power prints whole: no expansion into its ~1.7e8 monomials
    assert max(map(len, texts)) < 20_000 and "(x1 + x2 + x3 + x4)^3996" in texts[4]
    ring = f._normal[0]
    assert all(len(p) <= normal._EXPAND for p in ring.factors)
    # b_k = [g, ad_f^(k-1) g] = d ad_f^(k-1) g / d x2, since g = e2; sympy
    # differentiates the power without expanding it
    point = {"x1": 0.25, "x2": 0.375, "x3": 0.25, "x4": 0.127}  # the sum is 1.002
    # the trees convert back, powers past MAX_EXPONENT included
    for c in ads[4].components:
        assert evaluate(simplify(c), point) == pytest.approx(evaluate(c, point), rel=1e-12)
    symbols = sympy.symbols(POWER_STATES)
    x = sympy.Matrix(symbols)
    sf = sympy.Matrix([sympy.sympify(t) for t in (first, "x1", "x2", "x3")])
    h = sympy.Matrix([0, 1, 0, 0])
    for k in range(1, 5):
        want = sympy.lambdify(symbols, list(h.diff(symbols[1])), "math")(*point.values())
        got = eval_field(table.b(0, 0, k), point)
        assert np.allclose(got, want, rtol=1e-9, atol=0), k
        h = h.jacobian(x) * sf - sf.jacobian(x) * h
    assert verdicts[0] == ZeroVerdict(True, SYMBOLIC)
    # where a sum has to stand as an atom, a nonzero verdict is sampled
    assert verdicts[1].kind == (EXACT_SAMPLED if atom else SYMBOLIC)
    assert {v.kind for v in verdicts[2:]} == {EXACT_SAMPLED}
    assert not any(v.is_zero for v in verdicts[1:])


def test_n_zero_decides_whatever_the_atoms():
    # cos(x1)^2 reduces to 1 - sin(x1)^2 inside a kernel argument too, so both
    # sines have one argument and N = 0, although the arguments nest kernels
    field = vf(NAMES2, "sin(cos(x1)^2) - sin(1 - sin(x1)^2)", "0.5*x2 - x2/2")
    assert vf_is_zero(field) == ZeroVerdict(True, SYMBOLIC)


SHIPPED_ORDERS = {  # system file: k, raw and (where it has a cost) cost-extended
    "systems/commuting.json": (None,),
    "systems/counterexample.json": (3, 3),
    "systems/double_integrator.json": (None, 4),
    "systems/fuller.json": (4,),
    "systems/half_integer.json": (1,),
    "systems/stress/rational_pendulum.json": (2,),
    "ctrlbench/systems/chain.json": (6,),
    "ctrlbench/systems/rational_chain.json": (None,),
}


@pytest.mark.parametrize("path", sorted(SHIPPED_ORDERS))
def test_every_shipped_b_field_verdict_is_symbolic(path):
    from ctrlorder import extend_with_cost, without_cost

    doc = json.loads((SYSTEMS_DIR.parent / path).read_text())
    systems = [without_cost(load(doc))] + ([extend_with_cost(load(doc))] if doc.get("cost") else [])
    for system, k in zip(systems, SHIPPED_ORDERS[path], strict=True):
        assert problem_order(system).k == k
        table = BracketTable(system.drift, system.inputs)
        for level in range(1, (k or 10) + 1):
            verdicts = [
                vf_is_zero(table.b(i, j, level)) for i in range(system.m) for j in range(system.m)
            ]
            assert {v.kind for v in verdicts} == {SYMBOLIC}
            assert all(v.is_zero for v in verdicts) == (level != k)


# ---------------------------------------------------------------------------
# brackets skip the work whose result is known
# ---------------------------------------------------------------------------


def _skip_case_texts(rng: random.Random, kind: str) -> tuple[str, ...]:
    """Components of `random_component`'s kind ('float': rational ones scaled by
    a float), a third of them zero, and one field in six zero throughout."""
    if rng.random() < 1 / 6:
        return ("0",) * len(NAMES2)
    texts = []
    for _ in NAMES2:
        text = random_component(rng, "rational" if kind == "float" else kind)
        if kind == "float":
            text = f"0.3*({text})"
        texts.append("0" if rng.random() < 1 / 3 else text)
    return tuple(texts)


def _full_jacobian_bracket(a: VectorField, b: VectorField) -> list:
    """Components of [a, b] in a's ring from both full Jacobians, every term summed."""
    from ctrlorder import normal

    ring, na = a._normal[:2]
    nb = b._normal_in(ring)[1]
    ja = [[normal.diff_index(c, j) for j in range(a.dim)] for c in na]
    jb = [[normal.diff_index(c, j) for j in range(b.dim)] for c in nb]
    return [
        normal.total(
            term
            for j in range(a.dim)
            for term in (normal.mul(jb[i][j], na[j]), normal.scale(normal.mul(ja[i][j], nb[j]), -1))
        )
        for i in range(a.dim)
    ]


@pytest.mark.parametrize("kind", ["poly", "rational", "trig", "float"])
def test_brackets_equal_the_full_jacobian_sum(kind):
    rng = random.Random(f"skip-{kind}")
    zero_operands = 0
    for n in range(16):
        a, b = (vf(NAMES2, *_skip_case_texts(rng, kind)) for _ in range(2))
        ab = lie_bracket(a, b)
        pairs = [(a, b, ab)]
        if n < 2:  # nested trig brackets grow fast
            pairs += [(a, ab, lie_bracket(a, ab)), (ab, b, lie_bracket(ab, b))]
        for x, y, xy in pairs:
            want = _full_jacobian_bracket(x, y)
            got = xy._normal[1]
            assert [list(c.num.items()) for c in got] == [list(c.num.items()) for c in want]
            assert [c.den for c in got] == [c.den for c in want]
            zero_operands += not any(c.num for c in (*x._normal[1], *y._normal[1]))
    assert zero_operands  # the draws include zero fields


@pytest.mark.parametrize(
    "path, depth",
    [
        ("ctrlbench/systems/chain.json", 6),  # polynomial
        ("ctrlbench/systems/rational_chain.json", 10),  # one denominator factor
        ("systems/counterexample.json", 3),  # sin/cos, so cosine squares are reduced
    ],
)
def test_shipped_ad_chains_equal_the_full_jacobian_sum(path, depth):
    from ctrlorder import extend_with_cost, without_cost

    doc = _document(path)
    system = extend_with_cost(load(doc)) if doc.get("cost") else without_cost(load(doc))
    table = BracketTable(system.drift, system.inputs)
    pairs = []
    for k in range(1, depth + 1):
        for i in range(system.m):
            if k >= 2:
                pairs.append((table.f, table.ad(i, k - 2), table.ad(i, k - 1)))
            for j in range(system.m):
                pairs.append((table.inputs[j], table.ad(i, k - 1), table.b(i, j, k)))
    for x, y, xy in pairs:
        want = _full_jacobian_bracket(x, y)
        got = xy._normal[1]
        assert [list(c.num.items()) for c in got] == [list(c.num.items()) for c in want]
        assert [c.den for c in got] == [c.den for c in want]


def _quotient_rule_by_terms(a, j: int):
    """d a / d x_j with each quotient-rule term a form of its own: N' D, then
    -e_i N p_i' D / p_i by `mul` and `scale`, summed by `total`."""
    from ctrlorder import normal

    ring = a.ring
    da = normal._dpoly(ring, a.num, j) if a.num else a
    if not a.den:
        return da
    terms = [normal.mul(da, normal.Rat(ring, {0: 1}, a.den))]
    for i, e in enumerate(a.den):
        if not e:
            continue
        dp = ring.factor_partial(i, j)
        if dp.num:
            raised = normal._trim([*[0] * i, 1])
            terms.append(normal.scale(normal.mul(normal.mul(a, dp), normal.Rat(ring, {0: 1}, raised)), -e))
    return normal.total(terms)


# quotients whose N p_i' the random draws do not form: partials of several
# terms, so that several terms pair with several ((x1 + x2)(2 x1 - 2 x2)
# cancels inside itself), and a partial cos(x2) that makes a cosine square
QUOTIENTS = (
    ("(x1 + x2)/(2 + x1^2 - 2*x1*x2)", "x1*x2/(1 + x1^2*x2 + x1*x2^2)^2"),
    ("sin(x1)*(x1 - x2)/(3 + x1^2 + x1*x2 + x2^2)", "cos(x2)^2/(1 + x1*x2 + x1^2)"),
    ("exp(x1*x2)/(1 + x1 + x2^2)^3 + x2/(1 + x1*x2 + x1^2)", "cos(x2)/(2 + x1*cos(x2))"),
)


def test_diff_index_equals_the_quotient_rule_summed_term_by_term():
    from ctrlorder import normal, without_cost

    forms = []
    for kind in ("poly", "rational", "trig", "float"):
        rng = random.Random(f"skip-{kind}")
        for n in range(16):
            a, b = (vf(NAMES2, *_skip_case_texts(rng, kind)) for _ in range(2))
            ab = lie_bracket(a, b)
            fields_ = [a, b, ab] + ([lie_bracket(a, ab)] if n < 2 else [])
            forms += [c for field in fields_ for c in field._normal[1]]
    forms += [c for texts in QUOTIENTS for c in vf(NAMES2, *texts)._normal[1]]
    system = without_cost(load(_document("ctrlbench/systems/rational_chain.json")))
    table = BracketTable(system.drift, system.inputs)
    forms += [c for k in range(10) for c in table.ad(0, k)._normal[1]]
    denominators = 0
    for form in forms:
        for j in range(len(form.ring.names)):
            got, want = normal.diff_index(form, j), _quotient_rule_by_terms(form, j)
            assert list(got.num.items()) == list(want.num.items())
            assert got.den == want.den
            denominators += bool(form.den)
    assert denominators > 100


def test_an_over_cap_product_of_a_bracket_component_raises(monkeypatch):
    from ctrlorder import normal

    names = ("x1", "x2", "x3", "x4", "x5")
    squares = " + ".join(f"{x}^2" for x in names)
    # (Db)_11 = 3*x1^2 + x2^2 + ... + x5^2 and (Da)_11 = 1: no column pairs more
    # than one term with more than one, while (Db)_11 a_1 pairs 5*5 or 5*3 terms
    b = VectorField.from_strings(names, (f"x1*({squares})",) + ("0",) * 4)
    wide, narrow = (
        VectorField.from_strings(names, (" + ".join(xs),) + ("0",) * 4)
        for xs in (names, names[:3])
    )
    ring = b._normal[0]
    for a in (wide, narrow):
        a._normal_in(ring)
    monkeypatch.setattr(normal, "MAX_TERMS", 16)
    for field in (b, wide, narrow):
        field._column(ring, 0)
    got = lie_bracket(narrow, b)._normal[1][0]
    assert list(got.num.items()) == list(_full_jacobian_bracket(narrow, b)[0].num.items())
    with pytest.raises(ExprError, match="pairs more than 16 terms"):
        lie_bracket(wide, b)


def test_a_zero_operand_takes_no_derivative(monkeypatch):
    calls = _counted_diffs(monkeypatch)
    zero = VectorField.zero(NAMES2)
    field = vf(NAMES2, "sin(x1*x2)/(1 + x1^2)", "exp(x2) + x1^3")
    for a, b in ((zero, field), (field, zero), (zero, zero)):
        bracket = lie_bracket(a, b)
        assert not any(c.num for c in bracket._normal[1])
        assert bracket.components == (const(0), const(0))
    assert calls == []
    # a zero component leaves a column unread: here a_2 = b_1 = 0, so column x1
    # of Db and column x2 of Da are read, 4 partials where full Jacobians take 8
    lie_bracket(vf(NAMES2, "x2", "0"), vf(NAMES2, "0", "x1^2"))
    assert sorted(var for _, var in calls) == ["x1", "x1", "x2", "x2"]


def test_zero_components_derive_no_seed(monkeypatch):
    from ctrlorder import expr

    seeds = []
    real = expr._derive_seed

    def counted(seed, tags):
        seeds.append(tags)
        return real(seed, tags)

    monkeypatch.setattr(expr, "_derive_seed", counted)
    assert vf_is_zero(VectorField.zero(NAMES2)) == ZeroVerdict(True, SYMBOLIC)
    assert seeds == []
    verdict = vf_is_zero(vf(NAMES2, "0", "x1"))
    assert (verdict.is_zero, verdict.component) == (False, 1)
    assert seeds == [("component", 1)]


def test_an_over_cap_product_in_an_unread_column_is_not_formed():
    from ctrlorder import normal
    from ctrlorder.expr import ExprError

    # b_1 = N / p with N of 2^11 terms and dp/dz of 2^10: the partial by z pairs
    # 2^21 > MAX_TERMS terms, while the partial by x11 pairs none
    names = tuple(f"x{k}" for k in range(1, 12)) + ("z",)
    numerator = "*".join(f"(x{k} + 1)" for k in range(1, 12))
    factor = "1 + z*" + "*".join(f"(x{k} + 1)" for k in range(1, 11))
    b = VectorField.from_strings(names, (f"{numerator}/({factor})",) + ("0",) * 11)

    def unit(name):
        return VectorField.from_strings(names, tuple("1" if x == name else "0" for x in names))

    with pytest.raises(ExprError, match="pairs more than"):
        normal.diff_index(b._normal_in()[1][0], names.index("z"))
    with pytest.raises(ExprError, match="pairs more than"):
        lie_bracket(unit("z"), b)
    # [e_x11, b] = db/dx11 reads column x11 of Db only: an answer, where the
    # full Jacobian raised
    bracket = lie_bracket(unit("x11"), b)
    assert len(bracket._normal[1][0].num) == 2**10
    assert not vf_is_zero(bracket).is_zero
    assert normal.MAX_TERMS == 2**20


@pytest.mark.parametrize("trig", [False, True])
def test_an_exponent_of_2_to_the_22_raises_on_every_product_path(trig):
    from ctrlorder import normal

    # without a cosine atom in the ring, a monomial times a polynomial is added
    # into the bracket's sum term by term; with one, it is formed by `_pmul`
    ring = vf(NAMES2, "x1", "cos(x2)" if trig else "x2")._normal[0]
    assert bool(ring.cmask) == trig

    def form(*terms):  # (x1 exponent, x2 exponent, coefficient) per term
        return normal.Rat(ring, {e1 + (e2 << normal._BITS): c for e1, e2, c in terms})

    bound = 1 << (normal._BITS - 2)
    assert bound == 2**22
    monomial, binomial = form((bound, 0, 1)), form((bound, 0, 1), (0, 1, 1))
    error = r"an exponent reaches 2\^22"
    for a, b in ((monomial, binomial), (binomial, monomial), (monomial, form((0, 1, 3)))):
        with pytest.raises(ExprError, match=error):
            normal.mul(a, b)

    def field(first):
        return VectorField._of_normal(NAMES2, ring, (first, normal.Rat(ring, {})))

    # b_1 = x1^2 x2 + x1 x2^2, so column x1 of Db is 2 x1 x2 + x2^2, which
    # [a, b] multiplies by a_1 = x1^(2^22) (a monomial times a polynomial) or by
    # a_1 = x1^(2^22) + x2 (two terms times two)
    b = field(form((2, 1, 1), (1, 2, 1)))
    for a in (monomial, binomial):
        with pytest.raises(ExprError, match=error):
            lie_bracket(field(a), b)
    # one below the bound, the products are formed
    assert lie_bracket(field(form((bound - 1, 0, 1))), b)._normal[1][0].num
