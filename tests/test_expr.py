"""Expression core: parsing, printing, differentiation, simplification, zero tests.

`simplify`, `diff` and `is_zero` go through the normal form; the tests of the
sampled test's own rules call `sampled_is_zero` directly.
"""

import json
import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ctrlorder import expr
from ctrlorder import (
    ArityError,
    BracketTable,
    Constant,
    Cos,
    DivisionByZeroError,
    EvalError,
    Exp,
    IndeterminateZeroTest,
    IntPower,
    MissingBindingError,
    Negate,
    Product,
    Quotient,
    Sin,
    Sum,
    UnknownIdentifierError,
    Variable,
    VectorField,
    ZeroTestPolicy,
    ZeroVerdict,
    const,
    diff,
    evaluate,
    is_zero,
    parse,
    simplify,
    to_text,
    variables,
)
from ctrlorder.expr import (
    EXACT_SAMPLED,
    FLOAT_SAMPLED,
    MAX_EXPONENT,
    MAX_NESTING,
    SYMBOLIC,
    ExprError,
    ExprSyntaxError,
    _nodes,
    _sort_key,
    compile_components,
    render_components,
    sampled_is_zero,
)
from ctrlorder.normal import Ring, check_input

from helpers import SYSTEMS_DIR, random_binding, random_expr

VARS = ("v1", "v2", "theta", "x1", "x2", "t")


# ---------------------------------------------------------------------------
# parse
# ---------------------------------------------------------------------------


def test_parse_counterexample_drift_row():
    e = parse("v1*cos(theta) + v2*sin(theta)", VARS)
    assert e == Sum(
        (
            Product((Variable("v1"), Cos(Variable("theta")))),
            Product((Variable("v2"), Sin(Variable("theta")))),
        )
    )


def test_parse_single_token():
    assert parse("x2", VARS) == Variable("x2")


def test_parse_arity_error():
    with pytest.raises(ArityError):
        parse("sin()", VARS)
    with pytest.raises(ArityError):
        parse("sin(x1, x2)", VARS)


def test_parse_unknown_identifier_names_offender():
    with pytest.raises(UnknownIdentifierError) as err:
        parse("x1 + bogus", VARS)
    assert err.value.name == "bogus"
    assert err.value.position == 5


def test_parse_unknown_function():
    with pytest.raises(UnknownIdentifierError) as err:
        parse("tan(x1)", VARS)
    assert err.value.name == "tan"


def test_parse_syntax_error_positions():
    with pytest.raises(ExprSyntaxError) as err:
        parse("x1 + ", VARS)
    assert err.value.position == 5
    with pytest.raises(ExprSyntaxError) as err:
        parse("(x1", VARS)
    assert err.value.position == 3
    with pytest.raises(ExprSyntaxError) as err:
        parse("x1 @ x2", VARS)
    assert err.value.position == 3


def test_parse_nesting_limit_positions_the_crossing_token():
    for opener, closer, width in (("(", ")", 1), ("sin(", ")", 4), ("-", "", 1)):
        parse(opener * MAX_NESTING + "x1" + closer * MAX_NESTING, VARS)
        text = opener * (MAX_NESTING + 1) + "x1" + closer * (MAX_NESTING + 1)
        with pytest.raises(ExprSyntaxError) as err:
            parse(text, VARS)
        assert err.value.position == width * MAX_NESTING
    # levels close again: siblings do not add up
    parse(" + ".join(["(" * MAX_NESTING + "x1" + ")" * MAX_NESTING] * 3), VARS)


def test_parse_operator_chains_count_toward_the_nesting_limit():
    # a*b*c... and a/b/c... build left-nested trees, one level per operator
    for op in "*/":
        parse(("x1" + op) * MAX_NESTING + "x1", VARS)
        with pytest.raises(ExprSyntaxError) as err:
            parse(("x1" + op) * (MAX_NESTING + 1) + "x1", VARS)
        assert err.value.position == 3 * MAX_NESTING + 2
    # the chain's levels add to the enclosing ones and close when its term ends
    half = MAX_NESTING // 2
    parse("(" * half + "x1*" * half + "x1" + ")" * half, VARS)
    with pytest.raises(ExprSyntaxError):
        parse("(" * half + "x1*" * (half + 1) + "x1" + ")" * half, VARS)
    parse(" + ".join(["x1*" * MAX_NESTING + "x1"] * 3), VARS)


def test_parse_precedence_and_unary():
    assert parse("-x1^2", VARS) == Negate(IntPower(Variable("x1"), 2))
    assert parse("x1 + x2*t", VARS) == Sum(
        (Variable("x1"), Product((Variable("x2"), Variable("t"))))
    )
    # right side of '^' must be an integer literal
    with pytest.raises(ExprSyntaxError):
        parse("x1^2.5", VARS)
    with pytest.raises(ExprSyntaxError):
        parse("x1^-2", VARS)


def test_parse_power_degenerate_exponents():
    assert parse("x1^0", VARS) == const(1)
    assert parse("x1^1", VARS) == Variable("x1")
    assert parse("x1^3", VARS) == IntPower(Variable("x1"), 3)


def test_parse_exponent_cap_positions_the_exponent():
    assert parse(f"x1^{MAX_EXPONENT}", VARS) == IntPower(Variable("x1"), MAX_EXPONENT)
    assert parse(f"x1^000{MAX_EXPONENT}", VARS) == IntPower(Variable("x1"), MAX_EXPONENT)
    # the last is past Python's limit for converting a digit string to int
    for exponent in (str(MAX_EXPONENT + 1), "99999999999", "9" * 5000):
        with pytest.raises(ExprSyntaxError, match=f"larger than {MAX_EXPONENT}") as err:
            parse(f"1 + x1^{exponent}", VARS)
        assert err.value.position == 7


def test_parse_rejects_literals_past_the_float_range():
    for literal in ("1e999", "1.5e309", ".1e400"):
        with pytest.raises(ExprSyntaxError, match="too large for a float") as err:
            parse(f"x1 + {literal}*x2", VARS)
        assert err.value.position == 5
    assert parse("1e308", VARS) == Constant(1e308)
    # exact, although its float underflows to 0.0
    assert parse("1e-999", VARS) == Constant(Fraction(1, 10**999))


def test_parse_positions_a_decimal_literal_past_the_conversion_limit():
    # each fails before 10^e is built: a naive Fraction("1e-99999999") takes seconds
    for literal in ("1e-99999999", "1e-" + "9" * 5000, "0." + "1" * 5000, "1e-4300"):
        start = time.perf_counter()
        with pytest.raises(ExprSyntaxError, match="decimal literal needs more than 4300") as err:
            parse(f"x1 + {literal}*x2", VARS)
        assert err.value.position == 5
        assert time.perf_counter() - start < 0.1
    assert parse("1e-4299", VARS) == Constant(Fraction(1, 10**4299))
    assert parse("0.000", VARS) == const(0)


def test_parse_whitespace_insensitive():
    assert parse(" v1 * cos( theta )\t+ v2*sin(theta) ", VARS) == parse(
        "v1*cos(theta)+v2*sin(theta)", VARS
    )


def test_parse_number_literals():
    # a decimal literal is the rational it spells, not the nearest float
    assert parse("3", VARS) == Constant(Fraction(3))
    assert parse("2.5", VARS).value == Fraction(5, 2)
    assert parse("1e-3", VARS).value == Fraction(1, 1000)
    assert parse("0.1", VARS).value == Fraction(1, 10) != Fraction(0.1)
    assert parse("1.5E+2", VARS).value == 150
    half = parse(".5", VARS)
    assert half == parse("5e-1", VARS) == parse("0.5e-0000000000", VARS) == const(Fraction(1, 2))
    assert to_text(parse("0.5*x1", VARS)) == "1/2*x1"


# ---------------------------------------------------------------------------
# to_text
# ---------------------------------------------------------------------------


def test_to_text_examples():
    assert to_text(Sum((Variable("x1"), const(1)))) == "x1 + 1"
    text = to_text(Negate(IntPower(Variable("x1"), 2)))
    assert text in ("-x1^2", "-(x1^2)")
    assert simplify(parse(text, VARS)) == simplify(Negate(IntPower(Variable("x1"), 2)))


def test_to_text_round_trip_random_trees():
    rng = random.Random(90125)
    for _ in range(1000):
        e = random_expr(rng, VARS[:4], depth=rng.randint(0, 4))
        text = to_text(e)
        again = parse(text, VARS)
        assert simplify(again) == simplify(e), f"round trip broke for: {text}"


def test_a_text_rendered_within_a_budget_starts_as_the_whole_text():
    rng = random.Random(6151)
    for _ in range(500):
        e = random_expr(rng, VARS[:4], depth=rng.randint(0, 5))
        whole = to_text(e)
        for budget in (0, 1, 7, 30, 100):
            text = expr._render(e, budget)[0]
            assert text == whole or (len(text) >= budget and text[:budget] == whole[:budget])
    # a 3000-term sum stops at the first term that reaches the budget
    e = Sum(tuple(Product((const(k), Variable("x1"))) for k in range(1, 3001)))
    assert expr._render(e, 10)[0] == "1*x1 + 2*x1"


def test_to_text_subtraction_rendering():
    e = simplify(parse("x1 - x2 - 1", VARS))
    assert to_text(e) == "x1 - x2 - 1"


# ---------------------------------------------------------------------------
# diff
# ---------------------------------------------------------------------------


def test_diff_examples():
    assert diff(Sin(Variable("theta")), "theta") == Cos(Variable("theta"))
    assert diff(IntPower(Variable("x1"), 2), "x1") == Product((const(2), Variable("x1")))
    assert diff(Product((Variable("v1"), Sin(Variable("theta")))), "v1") == Sin(
        Variable("theta")
    )


def test_diff_quotient_rule():
    # d/dx (x^2 / (x + 1)) at x = 2 is (2x(x+1) - x^2) / (x+1)^2 = 8/9
    e = parse("x1^2/(x1 + 1)", VARS)
    assert abs(evaluate(diff(e, "x1"), {"x1": 2.0}) - 8.0 / 9.0) < 1e-12


def test_diff_linearity_and_leibniz():
    rng = random.Random(424242)
    policy = ZeroTestPolicy(seed=11)
    for _ in range(30):
        a = random_expr(rng, VARS[:3], depth=3, allow_quotient=False)
        b = random_expr(rng, VARS[:3], depth=3, allow_quotient=False)
        v = rng.choice(VARS[:3])
        lin = Sum((diff(Sum((a, b)), v), Negate(Sum((diff(a, v), diff(b, v))))))
        assert is_zero(lin, policy).is_zero
        leib = Sum(
            (
                diff(Product((a, b)), v),
                Negate(Sum((Product((diff(a, v), b)), Product((a, diff(b, v)))))),
            )
        )
        assert is_zero(leib, policy).is_zero


def test_diff_matches_central_difference():
    rng = random.Random(1414)
    h = 1e-3
    for _ in range(25):
        e = random_expr(rng, VARS[:3], depth=3, allow_quotient=False, exp_budget=0)
        v = rng.choice(VARS[:3])
        pt = random_binding(rng, VARS[:3])
        up = dict(pt)
        down = dict(pt)
        up[v] += h
        down[v] -= h
        fd = (evaluate(e, up) - evaluate(e, down)) / (2 * h)
        exact = evaluate(diff(e, v), pt)
        assert abs(exact - fd) <= 100 * h * h * (1.0 + abs(exact))


# ---------------------------------------------------------------------------
# simplify
# ---------------------------------------------------------------------------


def test_simplify_examples():
    assert simplify(Product((const(0), Variable("x1")))) == const(0)
    assert simplify(Sum((Variable("x1"), Variable("x1")))) == Product(
        (const(2), Variable("x1"))
    )
    pythag = Sum((IntPower(Sin(Variable("t")), 2), IntPower(Cos(Variable("t")), 2)))
    assert simplify(pythag) == const(1)  # cos^2 is written 1 - sin^2
    # common factors cancel
    assert simplify(parse("x1*(x1 + 1)/(x1 + 1)", VARS)) == Variable("x1")
    # a quotient in a denominator: 1/(x2/x3) is x3/x2
    x1, x2, x3 = map(Variable, ("x1", "x2", "x3"))
    assert simplify(parse("x1/(x2/x3)", ("x1", "x2", "x3"))) == Quotient(Product((x1, x3)), x2)


def test_simplify_identity_elements():
    x = Variable("x1")
    assert simplify(Sum((x, const(0)))) == x
    assert simplify(Product((x, const(1)))) == x
    assert simplify(parse("x1*1 + 0*x2 + 0", VARS)) == x


def test_simplify_flattens_and_collects():
    e = parse("(x1 + (x2 + x1)) + x1", VARS)
    s = simplify(e)
    assert s == Sum((Product((const(3), Variable("x1"))), Variable("x2")))


def test_simplify_cancellation():
    assert simplify(parse("x1*x2 - x2*x1", VARS)) == const(0)
    assert simplify(parse("x1^2 - x1*x1", VARS)) == const(0)


def test_simplify_scales_collected_quotients_in_one_pass():
    x = Variable("x1")
    den = Sum((IntPower(x, 2), const(1)))
    cases = [
        ("x1/(x1^2 + 1) + x1/(x1^2 + 1)", Quotient(Product((const(2), x)), den)),
        (
            "x1/(x1^2 + 1) + x1/(x1^2 + 1) + 2*x1/(x1^2 + 1)",
            Quotient(Product((const(4), x)), den),
        ),
    ]
    for text, expected in cases:
        s = simplify(parse(text, VARS))
        assert s == expected, text
        assert simplify(s) == s


def test_simplify_constant_folding_prefers_exact():
    s = simplify(parse("1/3 + 1/6", VARS))
    assert s == Constant(Fraction(1, 2))
    assert isinstance(s.value, Fraction)


def test_simplify_division_by_constant_zero_raises():
    with pytest.raises(DivisionByZeroError):
        simplify(parse("x1/(2 - 2)", VARS))


def _walk(e):
    yield e
    for attr in ("children",):
        for child in getattr(e, attr, ()):
            yield from _walk(child)
    for attr in ("numerator", "denominator", "base", "child"):
        child = getattr(e, attr, None)
        if child is not None:
            yield from _walk(child)


def test_simplify_structural_invariants():
    rng = random.Random(7777)
    for _ in range(300):
        e = simplify(random_expr(rng, VARS[:4], depth=rng.randint(0, 4)))
        for node in _walk(e):
            if isinstance(node, (Sum, Product)):
                assert len(node.children) >= 2
                assert not any(type(c) is type(node) for c in node.children)
                constants = [c for c in node.children if isinstance(c, Constant)]
                assert len(constants) <= 1
                if isinstance(node, Product):
                    assert not any(c.value == 0 for c in constants)
            if isinstance(node, IntPower):
                assert node.exponent >= 2
            if isinstance(node, Quotient):
                den = node.denominator
                assert not (isinstance(den, Constant) and den.value == 0)


def test_simplify_idempotent_on_random_trees():
    rng = random.Random(5150)
    for _ in range(200):
        e = random_expr(rng, VARS[:4], depth=rng.randint(0, 6))
        s = simplify(e)
        assert simplify(s) == s, to_text(e)


def _copy(e):
    """A structural copy of `e`, with no stored hash or sort key."""
    if isinstance(e, (Sum, Product)):
        return type(e)(tuple(_copy(c) for c in e.children))
    if isinstance(e, Quotient):
        return Quotient(_copy(e.numerator), _copy(e.denominator))
    if isinstance(e, IntPower):
        return IntPower(_copy(e.base), e.exponent)
    if isinstance(e, (Negate, Sin, Cos, Exp)):
        return type(e)(_copy(e.child))
    return e


def _simplified_random_trees(seed: int, count: int):
    rng = random.Random(seed)
    return [simplify(random_expr(rng, VARS[:3], depth=rng.randint(0, 6))) for _ in range(count)]


def test_a_copy_builds_the_stored_hash_and_sort_key_of_its_original():
    checked = 0
    for s in _simplified_random_trees(6060, 500):
        seen = set()
        for node in _nodes(s):
            if id(node) in seen or isinstance(node, (Constant, Variable)):
                continue
            seen.add(id(node))
            copy = _copy(node)
            assert all(
                n._hash is None and n._key is None
                for n in _nodes(copy)
                if not isinstance(n, (Constant, Variable))
            )
            # the stored hash and key, built level by level, match the original's
            assert hash(copy) == hash(node) and _sort_key(copy) == _sort_key(node)
            assert copy == node
            checked += 1
    assert checked > 1000


def test_each_node_builds_its_hash_and_sort_key_at_most_once(monkeypatch):
    built = {"hash": [], "key": []}  # the nodes, kept alive so that each id() names one
    for name, rule in (("hash", expr._node_hash), ("key", expr._node_key)):

        def counted(e, rule=rule, nodes=built[name]):
            nodes.append(e)
            return rule(e)

        monkeypatch.setattr(expr, f"_node_{name}", counted)
    # rendered brackets: `render` sorts the nodes it builds and keys caches by
    # them, and hashing or sorting a whole tree then reads the stored values
    doc = json.loads((SYSTEMS_DIR / "stress" / "rational_pendulum.json").read_text())
    f = VectorField.from_strings(doc["states"], doc["f"])
    g = VectorField.from_strings(doc["states"], doc["g"][0])
    table = BracketTable(f, (g,))
    for tree in (c for k in range(5) for c in table.ad(0, k).components):
        hash(tree)
        _sort_key(tree)
    for nodes in built.values():
        assert len(nodes) > 1000
        assert len({id(n) for n in nodes}) == len(nodes)


def test_nodes_visits_each_distinct_node_once():
    doc = json.loads((SYSTEMS_DIR / "stress" / "rational_pendulum.json").read_text())
    f = VectorField.from_strings(doc["states"], doc["f"])
    g = VectorField.from_strings(doc["states"], doc["g"][0])
    field = BracketTable(f, (g,)).ad(0, 4)
    for tree in field.components:
        distinct, occurrences = set(), 0
        stack = [tree]
        while stack:  # every occurrence of every node
            node = stack.pop()
            distinct.add(id(node))
            occurrences += 1
            stack.extend(expr._children(node))
        steps = sum(1 for _ in _nodes(tree))
        assert steps == len(distinct) < occurrences  # the tree shares subtrees
        assert variables(tree) == {"th", "w"}


def test_equal_nodes_hash_alike_and_classes_hash_apart():
    x = Variable("x")
    assert hash(Constant(Fraction(1))) == hash(Constant(1.0))
    assert hash(Constant(0.0)) == hash(Constant(-0.0))
    text = "sin(x)/(1 + x^2) - x*cos(x)^3"
    a, b = (simplify(parse(text, ("x",))) for _ in range(2))
    assert a == b and a is not b and hash(a) == hash(b)
    # one child under each unary class: four distinct hashes
    assert len({hash(Sin(x)), hash(Cos(x)), hash(Exp(x)), hash(Negate(x))}) == 4
    assert hash(Sum((x, x))) != hash(Product((x, x)))


def test_diff_agrees_with_sympy_on_random_rational_trees():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(8080)
    names = ("x1", "x2")
    checked = 0
    while checked < 40:
        e = random_expr(rng, names, depth=3, allow_trig=False)
        if not _rational(e):
            continue
        for s in (e, simplify(e)):
            for v in names:
                residual = _to_sympy(diff(s, v), sympy) - sympy.diff(_to_sympy(e, sympy), v)
                assert sympy.cancel(residual) == 0, (to_text(s), v)
        checked += 1


def test_simplify_preserves_values():
    rng = random.Random(82)
    checked = 0
    while checked < 200:
        e = random_expr(rng, VARS[:3], depth=rng.randint(0, 4))
        pt = random_binding(rng, VARS[:3])
        try:
            before = evaluate(e, pt)
            after = evaluate(simplify(e), pt)
        except (ZeroDivisionError, OverflowError, DivisionByZeroError):
            continue
        except Exception:
            continue
        assert abs(before - after) < 1e-10
        checked += 1


# ---------------------------------------------------------------------------
# evaluate
# ---------------------------------------------------------------------------


def test_evaluate_examples():
    assert evaluate(parse("v1*cos(theta)", VARS), {"v1": 2, "theta": 0}) == 2.0
    assert evaluate(parse("x1^2", VARS), {"x1": 3}) == 9.0
    # a bound value is made a float as a constant is: no exact arithmetic
    assert evaluate(parse("3*x1", VARS), {"x1": Fraction(1, 10)}) == 3 * 0.1 != 0.3
    assert evaluate(parse("x1 + 1", VARS), {"x1": -(10**400)}) == -math.inf


def test_evaluate_division_by_zero_reports_subexpression():
    with pytest.raises(DivisionByZeroError) as err:
        evaluate(parse("1/x1", VARS), {"x1": 0})
    assert "1/x1" in str(err.value)


def test_evaluate_missing_binding():
    with pytest.raises(MissingBindingError) as err:
        evaluate(parse("x1 + x2", VARS), {"x1": 1})
    assert err.value.name == "x2"
    with pytest.raises(ValueError, match=r"undeclared variables \['x2'\]"):
        compile_components([parse("x1 + x2", VARS)], ("x1",))


def test_evaluate_overflow_names_the_node():
    with pytest.raises(EvalError, match=r"^overflow in 'exp\(x1\^2\)'$"):
        evaluate(parse("1 + exp(x1^2)", VARS), {"x1": 30.0})
    # constants are floats, as in the generated code: 10.0**400 overflows
    with pytest.raises(EvalError, match=r"^overflow in '10\^400'$"):
        evaluate(parse("10^400*x1/10^400", VARS), {"x1": 0.5})
    with pytest.raises(EvalError, match=r"^overflow in '10\^400'$"):
        evaluate(parse("10^400", VARS), {})


def test_an_evaluation_failure_quotes_a_large_node_in_one_short_line():
    x1, x2 = Variable("x1"), Variable("x2")
    big = Sum(tuple(Product((const(k), x2)) for k in range(1, 3001)))  # 4501500 at x2 = 1
    failing = {
        "division by zero": Quotient(big, Sum((x1, Negate(x1)))),
        "overflow": Exp(big),
        "infinite argument": Sin(Product((const(10), Exp(const(709)), big))),  # sin(inf)
    }
    for kind, node in failing.items():
        with pytest.raises(EvalError) as err:
            evaluate(Sum((node, x1)), {"x1": 1.0, "x2": 1.0})
        message = str(err.value)
        assert message.startswith(f"{kind} in '{to_text(node)[:200]}...' (")
        assert message.endswith(" distinct nodes)") and len(message) < 250


def test_evaluate_radians():
    assert abs(evaluate(parse("sin(t)", VARS), {"t": math.pi / 2}) - 1.0) < 1e-15


# ---------------------------------------------------------------------------
# is_zero
# ---------------------------------------------------------------------------


def test_is_zero_syntactic():
    assert is_zero(parse("0*x1", VARS)).is_zero


def test_is_zero_pythagorean_identity():
    assert is_zero(parse("sin(t)^2 + cos(t)^2 - 1", VARS)).is_zero


def test_a_power_of_a_sum_with_a_large_coefficient_sum_stays_a_power():
    # expanded, x1 + (x1 + 1)^60 has terms of C(60, 30) ~ 1e17 that cancel to
    # about 1e-60 at x1 = -0.9, so its float value there would be 1.1
    e = parse("x1 + (x1 + 1)^60", VARS)
    assert to_text(simplify(e)) == "x1 + (x1 + 1)^60"
    assert evaluate(simplify(e), {"x1": -0.9}) == -0.9
    assert evaluate(diff(e, "x1"), {"x1": -0.9}) == 1.0
    assert is_zero(e).kind == SYMBOLIC
    # its zero is decided with the power multiplied out: (x1 + 1)^13 stays a
    # power (2^13 > 4096), (x1 + 1)^12 is expanded
    zero = parse("(x1 + 1)^13 + x1 - (x1 + 1)*(x1 + 1)^12 - x1", VARS)
    assert is_zero(zero) == ZeroVerdict(True, SYMBOLIC)


def test_is_zero_float_tainted_residual_is_relative():
    # a scaled identity leaves rounding noise far above an absolute 1e-9 (about
    # 1e-4 here), but far below 1e-9 of the rounding scale of its terms
    verdict = sampled_is_zero(parse("10^12*(sin(x1)^2 + cos(x1)^2 - 1)", VARS))
    assert verdict.is_zero and verdict.kind == FLOAT_SAMPLED
    # a tiny term with no cancellation is no rounding noise
    verdict = sampled_is_zero(parse("1e-12*sin(x1)", VARS))
    assert not verdict.is_zero and verdict.kind == FLOAT_SAMPLED
    assert verdict.value == pytest.approx(1e-12 * math.sin(verdict.witness["x1"]), rel=1e-12)
    tiny_box = ZeroTestPolicy(box_halfwidth=1e-4)
    assert not sampled_is_zero(parse("cos(x1)*x1^3", VARS), tiny_box).is_zero
    assert sampled_is_zero(parse("x1*(sin(x1)^2 + cos(x1)^2) - x1", VARS), tiny_box).is_zero


def test_is_zero_nonzero_with_witness():
    verdict = is_zero(parse("x1", VARS))
    assert not verdict.is_zero
    assert set(verdict.witness) == {"x1"}
    assert abs(verdict.value - verdict.witness["x1"]) < 1e-15


def test_is_zero_deterministic():
    e = parse("x1*x2 + 1e-12", VARS)
    policy = ZeroTestPolicy(seed=99)
    a = is_zero(e, policy)
    b = is_zero(e, policy)
    assert a == b


def test_is_zero_policy_validation():
    with pytest.raises(ValueError):
        ZeroTestPolicy(sample_count=0)
    with pytest.raises(ValueError):
        ZeroTestPolicy(tolerance=0.0)
    with pytest.raises(ValueError, match="< 1"):  # relative: 1 would make every sample zero
        ZeroTestPolicy(tolerance=1.0)
    with pytest.raises(ValueError):
        ZeroTestPolicy(box_halfwidth=-1.0)


def test_is_zero_derive_changes_seed_deterministically():
    policy = ZeroTestPolicy(seed=7)
    assert policy.derive("a", 1) == policy.derive("a", 1)
    assert policy.derive("a", 1) != policy.derive("a", 2)


def test_derived_seeds_are_pinned():
    # every reported witness is drawn from a derived seed
    assert expr._derive_seed(1729, ("order", 1, 0, 0)) == 6016921715797602807
    derived = ZeroTestPolicy(8, 0.5, 1e-6, 1729).derive("order", 1, 0, 0)
    assert derived == ZeroTestPolicy(8, 0.5, 1e-6, 6016921715797602807)


def test_is_zero_indeterminate_when_nothing_evaluates():
    # exp overflows at every sample point in the box
    e = Exp(Exp(Sum((IntPower(Variable("x1"), 2), const(10)))))
    with pytest.raises(IndeterminateZeroTest):
        is_zero(e, ZeroTestPolicy(sample_count=4, seed=3))


def test_an_indeterminate_zero_test_quotes_a_large_tree_in_one_short_line():
    # every sample divides by x1 - x1 and is redrawn
    zero = Sum((Variable("x1"), Negate(Variable("x1"))))
    e = Sum(tuple(Quotient(Product((const(k), Variable("x2"))), zero) for k in range(1, 3001)))
    with pytest.raises(IndeterminateZeroTest) as err:
        sampled_is_zero(e)
    # x1, -x1, their sum, x2, 3000 constants, products and quotients, the sum
    assert str(err.value) == (
        f"no sample point of '{to_text(e)[:200]}...' (9005 distinct nodes) could be evaluated"
    )
    assert len(str(err.value)) < 300


def test_is_zero_exact_rational_sampling():
    # a rational expression is decided exactly: no tolerance hides a tiny constant
    assert not sampled_is_zero(Product((Constant(Fraction(1, 10**12)), Variable("x1")))).is_zero
    assert not sampled_is_zero(Product((Constant(Fraction(1, 10**6)), Variable("x1")))).is_zero
    for sign, text in ((1, "x1/10000000000000"), (-1, "-x1/10000000000000")):
        verdict = sampled_is_zero(parse(text, VARS))  # a negation is rational-exact too
        assert not verdict.is_zero and verdict.kind == EXACT_SAMPLED
        assert verdict.value == pytest.approx(sign * verdict.witness["x1"] / 1e13, rel=1e-15)


def test_is_zero_kinds():
    # a tree is decided by its normal form wherever N = 0 decides it
    assert is_zero(parse("0*x1 + x2 - x2", VARS)).kind == SYMBOLIC
    rational_zero = parse("x1*(x1 + 1)/(x1 + 1) - x1", VARS)
    assert is_zero(rational_zero) == ZeroVerdict(True, SYMBOLIC)
    assert is_zero(parse("x1^2/(x2^2 + 1)", VARS)).kind == SYMBOLIC
    assert is_zero(parse("sin(t)^2 + cos(t)^2 - 1", VARS)) == ZeroVerdict(True, SYMBOLIC)
    assert is_zero(parse("0.5*x1 + x2", VARS)).kind == SYMBOLIC  # 0.5 is 1/2
    nonzero = is_zero(parse("exp(x1) - 1", VARS))
    assert not nonzero.is_zero and nonzero.kind == SYMBOLIC
    assert is_zero(parse("sin(2*t) - 2*sin(t)*cos(t)", VARS)) == ZeroVerdict(True, FLOAT_SAMPLED)
    # a kernel of a zero argument is a number: sin(0) = 0, cos(0) = exp(0) = 1
    assert simplify(parse("sin(x1 - x1) + x1", VARS)) == Variable("x1")
    nonzero = is_zero(parse("sin(x1 - x1) + x1", VARS))
    assert not nonzero.is_zero and nonzero.kind == SYMBOLIC
    assert simplify(parse("exp(0)*x1 - x1", VARS)) == const(0)
    assert is_zero(parse("exp(0)*x1 - x1", VARS)) == ZeroVerdict(True, SYMBOLIC)
    assert is_zero(parse("cos(t - t) - 1", VARS)) == ZeroVerdict(True, SYMBOLIC)
    # the sampled test alone: exact where the tree is rational, else in floats
    assert sampled_is_zero(rational_zero) == ZeroVerdict(True, EXACT_SAMPLED)
    assert sampled_is_zero(parse("x1^2/(x2^2 + 1)", VARS)).kind == EXACT_SAMPLED
    pythag = parse("sin(t)^2 + cos(t)^2 - 1", VARS)
    assert sampled_is_zero(pythag) == ZeroVerdict(True, FLOAT_SAMPLED)
    nonzero = sampled_is_zero(parse("exp(x1) - 1", VARS))
    assert not nonzero.is_zero and nonzero.kind == FLOAT_SAMPLED


def test_decimal_literals_fold_exactly():
    # 0.5 is 1/2, so both sines have one argument and N = 0
    assert is_zero(parse("sin(0.5*x1) - sin(x1/2)", VARS)) == ZeroVerdict(True, SYMBOLIC)
    assert is_zero(parse("0.1 + 0.2 - 0.3", VARS)) == ZeroVerdict(True, SYMBOLIC)
    assert simplify(parse("(0.1*x1 + 0.2*x1)*1e-3", VARS)) == simplify(parse("3/10000*x1", VARS))


def test_is_zero_exact_sampling_draws_the_points_of_the_tolerance_rule():
    # x1*x2 is far above the tolerance wherever it is nonzero: both rules
    # must stop at the same first sample of the same seeded stream, and so
    # must the symbolic verdict's witness
    exact = sampled_is_zero(parse("2*x1*x2", VARS), ZeroTestPolicy(seed=5))
    tainted = sampled_is_zero(parse("2*x1*x2*exp(0)", VARS), ZeroTestPolicy(seed=5))
    symbolic = is_zero(parse("2*x1*x2", VARS), ZeroTestPolicy(seed=5))
    assert exact.kind == EXACT_SAMPLED and tainted.kind == FLOAT_SAMPLED
    assert symbolic.kind == SYMBOLIC
    assert exact.witness == tainted.witness == symbolic.witness
    assert exact.value == tainted.value == symbolic.value


def test_is_zero_confirms_a_zero_residue_exactly():
    prime = 2**61 - 1
    # every coefficient is a multiple of the prime, so every residue is 0
    assert not sampled_is_zero(Product((Constant(Fraction(prime)), Variable("x1")))).is_zero
    e = parse(f"(x1 + 1)*(x1 + {prime - 1}) - x1^2 - {prime - 1}", VARS)
    verdict = sampled_is_zero(e)
    assert not verdict.is_zero and verdict.kind == EXACT_SAMPLED
    assert verdict.value == pytest.approx(prime * verdict.witness["x1"])


def test_is_zero_samples_in_fractions_when_a_constant_has_no_residue():
    prime = 2**61 - 1
    zero = parse(f"x1*(x1 + 1)/({prime}*(x1 + 1)) - x1/{prime}", VARS)
    assert sampled_is_zero(zero) == ZeroVerdict(True, EXACT_SAMPLED)
    verdict = sampled_is_zero(parse(f"x1/{prime}", VARS))
    assert not verdict.is_zero and verdict.kind == EXACT_SAMPLED


def test_is_zero_redraws_a_point_where_a_denominator_vanishes():
    policy = ZeroTestPolicy(sample_count=1, seed=11)
    draws = random.Random(policy.seed)
    first, second = (Fraction(draws.randint(-(1 << 20), 1 << 20), 1 << 20) for _ in range(2))
    for test in (sampled_is_zero, is_zero):
        verdict = test(Quotient(const(1), Sum((Variable("x1"), Constant(-first)))), policy)
        assert not verdict.is_zero
        assert verdict.witness == {"x1": float(second)}
    zero = Sum((Quotient(Variable("x1"), Variable("x1")), const(-1)))
    assert sampled_is_zero(zero, policy) == ZeroVerdict(True, EXACT_SAMPLED)


def test_is_zero_decides_in_fractions_where_a_denominator_vanishes_mod_the_prime():
    prime = 2**61 - 1
    # the denominator is 0 mod the prime at every sample, and exactly 0 at none
    e = parse(f"1/({prime}*x1 + {prime}*x2)", VARS)
    verdict = sampled_is_zero(e)
    assert not verdict.is_zero and verdict.kind == EXACT_SAMPLED
    expected = 1 / (prime * (verdict.witness["x1"] + verdict.witness["x2"]))
    assert verdict.value == pytest.approx(expected)


def _to_sympy(e, sympy):
    if isinstance(e, Constant):
        return sympy.Rational(e.value.numerator, e.value.denominator)
    if isinstance(e, Variable):
        return sympy.Symbol(e.name)
    if isinstance(e, Negate):
        return -_to_sympy(e.child, sympy)
    if isinstance(e, Sum):
        return sympy.Add(*(_to_sympy(c, sympy) for c in e.children))
    if isinstance(e, Product):
        return sympy.Mul(*(_to_sympy(c, sympy) for c in e.children))
    if isinstance(e, Quotient):
        return _to_sympy(e.numerator, sympy) / _to_sympy(e.denominator, sympy)
    assert isinstance(e, IntPower)
    return _to_sympy(e.base, sympy) ** e.exponent


def _rational(e) -> bool:
    return all(isinstance(n.value, Fraction) for n in _nodes(e) if isinstance(n, Constant))


def test_is_zero_agrees_with_sympy_on_random_rational_trees():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(2024)
    names = ("x1", "x2", "x3")
    trees = []
    while len(trees) < 200:
        e = random_expr(rng, names, depth=4, allow_trig=False)
        if _rational(e):
            trees.append(e)
    sampled = {True: 0, False: 0}
    for n, e in enumerate(trees):
        # e itself, its difference with a re-simplified copy, and e*d/d - e
        d = random_expr(rng, names, depth=2, allow_quotient=False, allow_trig=False)
        cases = [e, Sum((e, Negate(simplify(parse(to_text(e), names)))))]
        if _rational(d) and sympy.cancel(_to_sympy(d, sympy)) != 0:
            cases.append(Sum((Quotient(Product((e, d)), d), Negate(e))))
        for case in cases:
            zero = sympy.cancel(_to_sympy(case, sympy)) == 0
            verdict = is_zero(case, ZeroTestPolicy(seed=n))
            assert verdict == ZeroVerdict(zero, SYMBOLIC, verdict.witness, verdict.value), to_text(case)
            # the sampled test alone, on the tree as it is
            verdict = sampled_is_zero(case, ZeroTestPolicy(seed=n))
            assert (verdict.is_zero, verdict.kind) == (zero, EXACT_SAMPLED), to_text(case)
            sampled[zero] += 1
    assert sampled[True] > 100 and sampled[False] > 100


# ---------------------------------------------------------------------------
# compiled evaluation agrees with the tree walker
# ---------------------------------------------------------------------------


_HYP_NAMES = ("x1", "x2", "x3")
_hyp_constants = st.one_of(
    st.integers(-3, 3).map(const),
    st.fractions(min_value=-4, max_value=4, max_denominator=7).map(Constant),
    st.floats(allow_nan=False, allow_infinity=False).map(Constant),
    # rationals past the float range, as a derivative can fold them
    st.builds(Fraction, st.integers(400, 500).map(lambda k: 10**k), st.integers(1, 3))
    .map(lambda q: Constant(q) if q.numerator % 2 else Constant(-q)),
)


def _hyp_nodes(children):
    operands = st.lists(children, min_size=2, max_size=3).map(tuple)
    return st.one_of(
        operands.map(Sum),
        operands.map(Product),
        st.builds(Quotient, children, children),
        st.builds(IntPower, children, st.integers(2, 4) | st.integers(2, MAX_EXPONENT)),
        *(children.map(node) for node in (Negate, Sin, Cos, Exp)),
    )


_hyp_constant_trees = st.recursive(_hyp_constants, _hyp_nodes, max_leaves=4)
_hyp_trees = st.recursive(
    st.sampled_from(_HYP_NAMES).map(Variable) | _hyp_constant_trees, _hyp_nodes, max_leaves=10
)
# mostly moderate points, some anywhere in the float range, infinities and NaN included
_hyp_points = st.tuples(*[st.floats(-2.0, 2.0) | st.floats()] * len(_HYP_NAMES))
# the nodes whose operation raises each failure
_FAILING_NODES = {
    "division by zero": Quotient, "overflow": (IntPower, Exp), "infinite argument": (Sin, Cos)
}


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(st.lists(_hyp_trees, min_size=1, max_size=3), _hyp_points)
def test_compile_components_matches_evaluate(trees, vec):
    exprs = [*trees, Sum((trees[0], trees[-1]))]  # the last shares subtrees with the others
    try:
        compiled = [v.hex() for v in compile_components(exprs, _HYP_NAMES)(list(vec))]
    except (ZeroDivisionError, OverflowError, ValueError):
        compiled = None
    try:
        interpreted = [v.hex() for v in expr.evaluator(exprs)(dict(zip(_HYP_NAMES, vec)))]
    except EvalError as err:
        interpreted = None
        kind, quoted = str(err).split(" in ", 1)
        assert any(
            isinstance(node, _FAILING_NODES[kind]) and quoted == expr._quote(node)
            for e in exprs for node in _nodes(e)
        ), str(err)
    assert interpreted == compiled


def _exact_bits(e) -> int:
    """A bound on the bits of the tree's Fraction value at a point of the sampler's grid."""
    if isinstance(e, Constant):
        return e.value.numerator.bit_length() + e.value.denominator.bit_length()
    if isinstance(e, Variable):
        return 2 * expr._DENOM_BITS + 2
    if isinstance(e, IntPower):
        return _exact_bits(e.base) * e.exponent
    if isinstance(e, Negate):
        return _exact_bits(e.child)
    children = (e.numerator, e.denominator) if isinstance(e, Quotient) else e.children
    return sum(_exact_bits(c) + 1 for c in children)


# the trees the exact sampler runs (ops up to _NEG), small enough to run in Fraction
_hyp_exact_trees = _hyp_trees.filter(
    lambda e: all(op <= expr._NEG for op, _ in expr._lower([e])[0]) and _exact_bits(e) <= 1 << 16
)
_hyp_grid = st.integers(-(1 << expr._DENOM_BITS), 1 << expr._DENOM_BITS).map(
    lambda n: Fraction(n, 1 << expr._DENOM_BITS)
)


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(st.lists(_hyp_exact_trees, min_size=1, max_size=3), st.tuples(*[_hyp_grid] * len(_HYP_NAMES)))
def test_the_residue_program_runs_as_the_fraction_program_does(trees, vec):
    # `_run` on the residue program is the Fraction run mod the prime: where it
    # completes, so does the Fraction run, with the same residue at every root;
    # so where the Fraction run divides by zero, the residue run does too
    exprs = [*trees, Sum((trees[0], trees[-1]))]
    code, roots = expr._lower(exprs)
    point = dict(zip(_HYP_NAMES, vec))
    try:
        exact = expr._run(code, point)
    except ZeroDivisionError:
        exact = None
    mod_code = expr._modular(code)
    assert mod_code is not None  # no denominator of these constants is a multiple of the prime
    try:
        residues = expr._run(mod_code, {name: expr._to_residue(q) for name, q in point.items()})
    except ZeroDivisionError:
        return
    assert exact is not None
    assert [residues[r] for r in roots] == [expr._to_residue(exact[r]) for r in roots]


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(st.floats(min_value=0.0, allow_infinity=False))
def test_a_float_constant_is_its_repr_and_compiles_to_itself(x):
    assert const(x) == parse(repr(x), VARS)
    compiled = compile_components([Product((const(x), Variable("x1")))], ("x1",))([1.0])[0]
    assert compiled.hex() == x.hex()


def test_evaluate_and_compiled_code_compute_powers_alike_bit_for_bit():
    rng = random.Random(3571)
    x = Variable("x1")
    powers = [IntPower(x, k) for k in (3, 5, 7)]
    fn = compile_components(powers, ("x1",))
    for _ in range(1000):
        v = rng.uniform(-2.0, 2.0)
        compiled = fn([v])
        for e, c in zip(powers, compiled):
            assert evaluate(e, {"x1": v}).hex() == c.hex(), (to_text(e), v)


def test_compile_components_parenthesises_only_where_python_needs_it():
    x = Variable("x1")
    cases = [
        (IntPower(const(-1), 2), 1.0),  # not -(1**2)
        (IntPower(const(-0.5), 3), -0.125),
        (IntPower(Negate(x), 2), 4.0),
        (Negate(IntPower(x, 2)), -4.0),
        (Quotient(x, Product((x, x))), 0.5),
        (Product((x, Quotient(const(1), x))), 1.0),
        (Quotient(Quotient(const(1), x), x), 0.25),
        (Sum((x, Negate(Sum((x, const(1)))))), -1.0),
        (IntPower(IntPower(x, 2), 3), 64.0),
    ]
    for e, value in cases:
        assert compile_components([e], ("x1",))([2.0]) == (value,)
        assert evaluate(e, {"x1": 2}) == value


def test_render_components_assigns_each_repeated_subexpression_once():
    x = Variable("x1")
    c = Cos(x)
    exprs = [Product((x, c)), Sum((c, x)), Cos(Variable("x1"))]  # the last is equal, not identical
    lines, values = render_components(exprs, {"x1": "a"})
    assert lines == ["_t1 = _cos(a)"]  # leaves stay inline
    assert values == ["a*_t1", "_t1 + a", "_t1"]
    assert compile_components(exprs, ("x1",))([0.5]) == (0.5 * math.cos(0.5), math.cos(0.5) + 0.5, math.cos(0.5))


def test_a_3000_operand_sum_and_product_compile_to_the_trees_floats():
    # a long chain accumulates in a local, at most 256 operands a statement
    x1, x2 = Variable("x1"), Variable("x2")
    total = Sum(tuple(Product((const(k), x1, x2)) for k in range(1, 3001)))
    product = Product(
        tuple(Sum((const(1), Product((const(Fraction(1, k)), x1)))) for k in range(1, 3001))
    )
    lines, _ = render_components([total], {"x1": "a", "x2": "b"})
    assert 0 < max(line.count(" + ") for line in lines) < 256
    fn = compile_components([total, product], ("x1", "x2"))
    interpreted = expr.evaluator([total, product])  # what `evaluate` runs, lowered once
    rng = random.Random(4099)
    for _ in range(20):
        pt = {"x1": rng.uniform(-1.0, 1.0), "x2": rng.uniform(-1.0, 1.0)}
        compiled = fn([pt["x1"], pt["x2"]])
        assert [v.hex() for v in compiled] == [v.hex() for v in interpreted(pt)]


def test_a_constant_is_the_rational_its_number_spells():
    # a float is the rational its repr spells, so it evaluates to itself
    assert Constant(0.5).value == Fraction(1, 2) and Constant(0.1).value == Fraction(1, 10)
    assert Constant(3).value == 3 and type(Constant(3).value) is Fraction
    assert const(1e-300) == parse("1e-300", VARS) and const(1e300) == parse("1e300", VARS)
    # -0.0 is 0: there is no signed zero constant
    assert Constant(-0.0) == Constant(0.0) == const(0)
    x = Variable("x1")
    (value,) = compile_components([Product((x, Constant(-0.0)))], ("x1",))([1.0])
    assert value.hex() == "0x0.0p+0"
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError, match="must be finite"):
            Constant(bad)
    for bad in (True, "1", None, 1j):
        with pytest.raises(TypeError, match="cannot make a constant"):
            const(bad)


def test_compile_components_renders_constants_past_the_float_range():
    # a derivative can fold a coefficient past the float range; the code stays valid
    x = Variable("x1")
    cases = [
        (Product((const(2 * 10**308), x)), math.inf),
        (Product((const(-(10**400)), x)), -math.inf),
    ]
    for e, value in cases:
        assert compile_components([e], ("x1",))([1.0]) == (value,)


def _checked(text: str):
    """Parse, then check the normal form as loading checks a field."""
    e = parse(text, VARS)
    check_input(Ring(VARS).convert(e))
    return e


def test_has_bounded_exponents():
    _checked(f"(x1^{MAX_EXPONENT // 2})^2")
    _checked(f"1/(x1 + 1)^{MAX_EXPONENT}")
    # what cancels is not held against the input
    _checked("x1^600*x1^600/(x1^600*x1^600)")
    over = f"larger than {MAX_EXPONENT}"
    for text in (
        "(x1^1000)^1000",  # refused by the power itself
        "(x1^600)^2/(x1^600)^2",  # a power of a power is refused before it cancels
        "((x1 + x2)^1000)^2",
        "x1^600*x1^600",
        "1/(x1^600*x1^600)",
        "1/((x1 + 1)^600*(x1 + 1)^600)",
        "(x1^600*x1^600 + 1)^2",  # in a factor
        "sin(x1^600*x1^600)",  # in a kernel argument
    ):
        with pytest.raises(ExprError, match=over):
            _checked(text)


def test_simplify_refuses_a_constant_power_past_the_bit_budget():
    assert simplify(parse("(2^1000)^1000", VARS)) == const(2**1000000)
    with pytest.raises(ExprError, match="constant power folds past"):
        simplify(parse("((2^1000)^1000)^1000*x1", VARS))


def test_parse_positions_an_integer_literal_past_the_conversion_limit():
    with pytest.raises(ExprSyntaxError, match="integer literal of 5000 digits is too long") as err:
        parse("x1 + " + "9" * 5000 + "*x2", VARS)
    assert err.value.position == 5


def test_has_finite_constants():
    _checked("1e308*x1 + 10^308")
    # a coefficient below the float range is exact, and its float is 0.0
    _checked("1e-200*1e-200*x1")
    for text in ("1e200*1e200*x1", "10^400*x1", "sin(1e200*1e200*x1)", "1/(1e200*1e200*x1 + 1)"):
        with pytest.raises(ExprError, match="not a finite float"):
            _checked(text)


def test_variables_listing():
    e = parse("v1*cos(theta) + x2", VARS)
    assert variables(e) == frozenset({"v1", "theta", "x2"})
