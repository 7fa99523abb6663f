"""Expression core: parsing, printing, differentiation, simplification, zero tests."""

import math
import random
from fractions import Fraction

import pytest

from ctrlorder import (
    ArityError,
    Constant,
    Cos,
    DivisionByZeroError,
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
    ZeroTestPolicy,
    const,
    diff,
    evaluate,
    is_zero,
    parse,
    simplify,
    to_text,
    variables,
)
from ctrlorder.expr import MAX_NESTING, ExprSyntaxError, compile_components

from helpers import random_binding, random_expr

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


def test_parse_whitespace_insensitive():
    assert parse(" v1 * cos( theta )\t+ v2*sin(theta) ", VARS) == parse(
        "v1*cos(theta)+v2*sin(theta)", VARS
    )


def test_parse_number_literals():
    assert parse("3", VARS) == Constant(Fraction(3))
    assert parse("2.5", VARS) == Constant(2.5)
    assert parse("1e-3", VARS) == Constant(1e-3)


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
    assert simplify(pythag) == pythag  # no trigonometric rewriting


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
        assert simplify(s) == s


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


def test_evaluate_division_by_zero_reports_subexpression():
    with pytest.raises(DivisionByZeroError) as err:
        evaluate(parse("1/x1", VARS), {"x1": 0})
    assert "1/x1" in str(err.value)


def test_evaluate_missing_binding():
    with pytest.raises(MissingBindingError) as err:
        evaluate(parse("x1 + x2", VARS), {"x1": 1})
    assert err.value.name == "x2"


def test_evaluate_radians():
    assert abs(evaluate(parse("sin(t)", VARS), {"t": math.pi / 2}) - 1.0) < 1e-15


# ---------------------------------------------------------------------------
# is_zero
# ---------------------------------------------------------------------------


def test_is_zero_syntactic():
    assert is_zero(parse("0*x1", VARS)).is_zero


def test_is_zero_pythagorean_identity():
    assert is_zero(parse("sin(t)^2 + cos(t)^2 - 1", VARS)).is_zero


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
    with pytest.raises(ValueError):
        ZeroTestPolicy(box_halfwidth=-1.0)


def test_is_zero_derive_changes_seed_deterministically():
    policy = ZeroTestPolicy(seed=7)
    assert policy.derive("a", 1) == policy.derive("a", 1)
    assert policy.derive("a", 1) != policy.derive("a", 2)


def test_is_zero_indeterminate_when_nothing_evaluates():
    # exp overflows at every sample point in the box
    e = Exp(Exp(Sum((IntPower(Variable("x1"), 2), const(10)))))
    with pytest.raises(IndeterminateZeroTest):
        is_zero(e, ZeroTestPolicy(sample_count=4, seed=3))


def test_is_zero_exact_rational_sampling():
    # tiny but nonzero rational constants stay below tolerance: documented risk
    assert is_zero(Product((Constant(Fraction(1, 10**12)), Variable("x1")))).is_zero
    # while anything above tolerance is flagged
    assert not is_zero(Product((Constant(Fraction(1, 10**6)), Variable("x1")))).is_zero


# ---------------------------------------------------------------------------
# compiled evaluation agrees with the tree walker
# ---------------------------------------------------------------------------


def test_compile_components_matches_evaluate():
    rng = random.Random(1001)
    names = VARS[:3]
    for _ in range(50):
        e = random_expr(rng, names, depth=3, allow_quotient=False, exp_budget=0)
        fn = compile_components([e], names)
        pt = random_binding(rng, names)
        vec = [pt[n] for n in names]
        assert abs(fn(vec)[0] - evaluate(e, pt)) < 1e-9


def test_variables_listing():
    e = parse("v1*cos(theta) + x2", VARS)
    assert variables(e) == frozenset({"v1", "theta", "x2"})
