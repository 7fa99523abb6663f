"""Immutable symbolic scalar expressions over named variables.

The expression language covers rational and decimal constants, named
variables, sums, products, quotients, integer powers (exponent >= 2), and
sin/cos/exp.  That is enough to write every vector field this package works
with while keeping simplification predictable: constants fold exactly
(rationals stay rational), products distribute over sums, repeated factors
group into powers, and syntactically identical sum terms collect with
rational coefficients.  No trigonometric rewriting is attempted; identities
such as sin(t)^2 + cos(t)^2 - 1 are caught by the probabilistic zero test
instead, which samples seeded pseudo-random points after simplification.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Mapping, Sequence, Union

NumberValue = Union[Fraction, float]

_FUNCTION_NAMES = ("sin", "cos", "exp")
# Parentheses, function calls and unary minuses nest at most this deep, so
# that the recursive passes over a parsed tree stay far below Python's
# recursion limit.
MAX_NESTING = 100


class ExprError(Exception):
    """Base class for expression-layer failures."""


class ExprSyntaxError(ExprError):
    """Malformed expression text; `position` is a 0-based offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class UnknownIdentifierError(ExprSyntaxError):
    def __init__(self, name: str, position: int):
        ExprError.__init__(self, f"unknown identifier '{name}' (at position {position})")
        self.name = name
        self.position = position


class ArityError(ExprSyntaxError):
    def __init__(self, name: str, position: int):
        ExprError.__init__(
            self, f"function '{name}' expects exactly one argument (at position {position})"
        )
        self.name = name
        self.position = position


class EvalError(ExprError):
    """Evaluation failed (missing binding, division by zero, overflow)."""


class MissingBindingError(EvalError):
    def __init__(self, name: str):
        super().__init__(f"no value bound for variable '{name}'")
        self.name = name


class DivisionByZeroError(EvalError):
    def __init__(self, expression_text: str):
        super().__init__(f"division by zero in '{expression_text}'")
        self.expression_text = expression_text


class IndeterminateZeroTest(ExprError):
    """Every sampled point failed to evaluate; no verdict possible."""


# ---------------------------------------------------------------------------
# Expression nodes
# ---------------------------------------------------------------------------


class Expr:
    """Base class for all expression nodes.  Instances are immutable."""

    __slots__ = ()


@dataclass(frozen=True)
class Constant(Expr):
    value: NumberValue


@dataclass(frozen=True)
class Variable(Expr):
    name: str


@dataclass(frozen=True)
class Negate(Expr):
    child: Expr


@dataclass(frozen=True)
class Sum(Expr):
    children: tuple[Expr, ...]

    def __post_init__(self):
        object.__setattr__(self, "children", tuple(self.children))
        if len(self.children) < 2:
            raise ValueError("Sum needs at least two children")


@dataclass(frozen=True)
class Product(Expr):
    children: tuple[Expr, ...]

    def __post_init__(self):
        object.__setattr__(self, "children", tuple(self.children))
        if len(self.children) < 2:
            raise ValueError("Product needs at least two children")


@dataclass(frozen=True)
class Quotient(Expr):
    numerator: Expr
    denominator: Expr


@dataclass(frozen=True)
class IntPower(Expr):
    base: Expr
    exponent: int

    def __post_init__(self):
        if not isinstance(self.exponent, int) or self.exponent < 2:
            raise ValueError("IntPower exponent must be an integer >= 2")


@dataclass(frozen=True)
class Sin(Expr):
    child: Expr


@dataclass(frozen=True)
class Cos(Expr):
    child: Expr


@dataclass(frozen=True)
class Exp(Expr):
    child: Expr


def const(value: Union[int, Fraction, float]) -> Constant:
    """Wrap a number as a Constant; integers become exact rationals."""
    if isinstance(value, bool):
        raise TypeError("boolean is not a number")
    if isinstance(value, int):
        return Constant(Fraction(value))
    if isinstance(value, (Fraction, float)):
        return Constant(value)
    raise TypeError(f"cannot make a constant from {type(value).__name__}")


_ZERO = const(0)
_ONE = const(1)


def variables(e: Expr) -> frozenset[str]:
    """Set of variable names appearing in the expression."""
    out: set[str] = set()
    stack = [e]
    while stack:
        node = stack.pop()
        if isinstance(node, Variable):
            out.add(node.name)
        elif isinstance(node, (Sum, Product)):
            stack.extend(node.children)
        elif isinstance(node, Quotient):
            stack.append(node.numerator)
            stack.append(node.denominator)
        elif isinstance(node, IntPower):
            stack.append(node.base)
        elif isinstance(node, (Negate, Sin, Cos, Exp)):
            stack.append(node.child)
    return frozenset(out)


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

_NUMBER_RE = re.compile(r"(?:\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?")
_INTEGER_RE = re.compile(r"\d+")
_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_OP_CHARS = "+-*/^(),"


@dataclass(frozen=True)
class _Token:
    kind: str  # "num" | "ident" | "op" | "end"
    text: str
    pos: int


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        m = _NUMBER_RE.match(text, i)
        if m:
            tokens.append(_Token("num", m.group(), i))
            i = m.end()
            continue
        m = _IDENT_RE.match(text, i)
        if m:
            tokens.append(_Token("ident", m.group(), i))
            i = m.end()
            continue
        if ch in _OP_CHARS:
            tokens.append(_Token("op", ch, i))
            i += 1
            continue
        raise ExprSyntaxError(f"unexpected character '{ch}'", i)
    tokens.append(_Token("end", "", n))
    return tokens


class _Parser:
    """Recursive-descent parser for the expression grammar.

    expr  := term (('+'|'-') term)*
    term  := unary (('*'|'/') unary)*
    unary := '-' unary | power
    power := atom ('^' integer)?
    atom  := number | identifier | identifier '(' expr ')' | '(' expr ')'

    Each '(', function call and unary '-' opens one nesting level; a level
    past MAX_NESTING is a syntax error at the token that opens it.
    """

    def __init__(self, text: str, allowed_vars: Iterable[str]):
        self.tokens = _tokenize(text)
        self.index = 0
        self.allowed = frozenset(allowed_vars)
        self.depth = 0

    def peek(self) -> _Token:
        return self.tokens[self.index]

    def advance(self) -> _Token:
        tok = self.tokens[self.index]
        self.index += 1
        return tok

    def at_op(self, *ops: str) -> bool:
        tok = self.peek()
        return tok.kind == "op" and tok.text in ops

    def open_level(self, tok: _Token) -> None:
        if self.depth == MAX_NESTING:
            raise ExprSyntaxError(f"expression nested deeper than {MAX_NESTING} levels", tok.pos)
        self.depth += 1

    def expect_op(self, op: str) -> _Token:
        tok = self.peek()
        if tok.kind != "op" or tok.text != op:
            raise ExprSyntaxError(f"expected '{op}'", tok.pos)
        return self.advance()

    def parse(self) -> Expr:
        e = self.expr()
        tok = self.peek()
        if tok.kind != "end":
            raise ExprSyntaxError(f"unexpected '{tok.text}'", tok.pos)
        return e

    def expr(self) -> Expr:
        terms = [self.term()]
        while self.at_op("+", "-"):
            op = self.advance().text
            rhs = self.term()
            terms.append(rhs if op == "+" else Negate(rhs))
        if len(terms) == 1:
            return terms[0]
        return Sum(tuple(terms))

    def term(self) -> Expr:
        cur = self.unary()
        while self.at_op("*", "/"):
            op = self.advance().text
            rhs = self.unary()
            cur = Product((cur, rhs)) if op == "*" else Quotient(cur, rhs)
        return cur

    def unary(self) -> Expr:
        if self.at_op("-"):
            self.open_level(self.advance())
            e = Negate(self.unary())
            self.depth -= 1
            return e
        return self.power()

    def power(self) -> Expr:
        base = self.atom()
        if self.at_op("^"):
            self.advance()
            tok = self.peek()
            if tok.kind != "num" or not _INTEGER_RE.fullmatch(tok.text):
                raise ExprSyntaxError("expected an integer exponent after '^'", tok.pos)
            self.advance()
            k = int(tok.text)
            if k == 0:
                return _ONE
            if k == 1:
                return base
            return IntPower(base, k)
        return base

    def atom(self) -> Expr:
        tok = self.peek()
        if tok.kind == "num":
            self.advance()
            if _INTEGER_RE.fullmatch(tok.text):
                return Constant(Fraction(int(tok.text)))
            return Constant(float(tok.text))
        if tok.kind == "ident":
            self.advance()
            if self.at_op("("):
                if tok.text not in _FUNCTION_NAMES:
                    raise UnknownIdentifierError(tok.text, tok.pos)
                self.open_level(tok)
                self.advance()
                if self.at_op(")"):
                    raise ArityError(tok.text, self.peek().pos)
                arg = self.expr()
                if self.at_op(","):
                    raise ArityError(tok.text, self.peek().pos)
                self.expect_op(")")
                self.depth -= 1
                node = {"sin": Sin, "cos": Cos, "exp": Exp}[tok.text]
                return node(arg)
            if tok.text not in self.allowed:
                raise UnknownIdentifierError(tok.text, tok.pos)
            return Variable(tok.text)
        if self.at_op("("):
            self.open_level(self.advance())
            e = self.expr()
            self.expect_op(")")
            self.depth -= 1
            return e
        raise ExprSyntaxError("expected a number, variable, function call, or '('", tok.pos)


def parse(text: str, allowed_vars: Iterable[str]) -> Expr:
    """Parse expression text; identifiers must come from `allowed_vars`."""
    return _Parser(text, allowed_vars).parse()


# ---------------------------------------------------------------------------
# Printing
# ---------------------------------------------------------------------------

_P_ADD, _P_MUL, _P_UNARY, _P_POW, _P_ATOM = 1, 2, 3, 4, 5


def _render_number(v: NumberValue) -> tuple[str, int]:
    if isinstance(v, Fraction):
        if v.denominator == 1:
            s = str(v.numerator)
            return s, (_P_ATOM if v >= 0 else _P_UNARY)
        s = f"{v.numerator}/{v.denominator}"
        return s, _P_MUL
    s = repr(v)
    return s, (_P_ATOM if not s.startswith("-") else _P_UNARY)


def _negated_form(e: Expr) -> Expr | None:
    """The expression with a leading minus stripped, or None."""
    if isinstance(e, Negate):
        return e.child
    if isinstance(e, Constant):
        if e.value < 0:
            return Constant(-e.value)
        return None
    if isinstance(e, Product) and isinstance(e.children[0], Constant):
        c = e.children[0].value
        if c < 0:
            rest = e.children[1:]
            if c == -1:
                return rest[0] if len(rest) == 1 else Product(rest)
            return Product((Constant(-c), *rest))
        return None
    if isinstance(e, Quotient):
        num = _negated_form(e.numerator)
        if num is not None:
            return Quotient(num, e.denominator)
        return None
    return None


def _render(e: Expr) -> tuple[str, int]:
    if isinstance(e, Constant):
        return _render_number(e.value)
    if isinstance(e, Variable):
        return e.name, _P_ATOM
    if isinstance(e, Sin):
        return f"sin({to_text(e.child)})", _P_ATOM
    if isinstance(e, Cos):
        return f"cos({to_text(e.child)})", _P_ATOM
    if isinstance(e, Exp):
        return f"exp({to_text(e.child)})", _P_ATOM
    if isinstance(e, Negate):
        body, prec = _render(e.child)
        if prec < _P_POW:
            body = f"({body})"
        return f"-{body}", _P_UNARY
    if isinstance(e, IntPower):
        body, prec = _render(e.base)
        if prec < _P_ATOM:
            body = f"({body})"
        return f"{body}^{e.exponent}", _P_POW
    if isinstance(e, Quotient):
        num, pn = _render(e.numerator)
        if pn < _P_MUL:
            num = f"({num})"
        den, pd = _render(e.denominator)
        if pd <= _P_MUL:
            den = f"({den})"
        return f"{num}/{den}", _P_MUL
    if isinstance(e, Product):
        if isinstance(e.children[0], Constant) and e.children[0].value == -1:
            neg = _negated_form(e)
            if neg is not None:
                body, prec = _render(neg)
                if prec < _P_MUL:
                    body = f"({body})"
                return f"-{body}", _P_UNARY
        parts = []
        for child in e.children:
            body, prec = _render(child)
            if prec < _P_MUL:
                body = f"({body})"
            parts.append(body)
        return "*".join(parts), _P_MUL
    if isinstance(e, Sum):
        first, _ = _render(e.children[0])
        out = [first]
        for child in e.children[1:]:
            neg = _negated_form(child)
            if neg is not None:
                body, prec = _render(neg)
                if prec <= _P_ADD:
                    body = f"({body})"
                out.append(f" - {body}")
            else:
                body, _ = _render(child)
                out.append(f" + {body}")
        return "".join(out), _P_ADD
    raise TypeError(f"not an expression node: {e!r}")


def to_text(e: Expr) -> str:
    """Render with minimal parenthesization; re-parsing is simplify-faithful."""
    return _render(e)[0]


# ---------------------------------------------------------------------------
# Differentiation
# ---------------------------------------------------------------------------


def _diff(e: Expr, var: str) -> Expr:
    if isinstance(e, Constant):
        return _ZERO
    if isinstance(e, Variable):
        return _ONE if e.name == var else _ZERO
    if isinstance(e, Negate):
        return Negate(_diff(e.child, var))
    if isinstance(e, Sum):
        return Sum(tuple(_diff(c, var) for c in e.children))
    if isinstance(e, Product):
        terms = []
        for i in range(len(e.children)):
            factors = list(e.children)
            factors[i] = _diff(e.children[i], var)
            terms.append(Product(tuple(factors)))
        return Sum(tuple(terms)) if len(terms) > 1 else terms[0]
    if isinstance(e, Quotient):
        n, d = e.numerator, e.denominator
        num = Sum((Product((_diff(n, var), d)), Negate(Product((n, _diff(d, var))))))
        return Quotient(num, IntPower(d, 2))
    if isinstance(e, IntPower):
        down = e.base if e.exponent == 2 else IntPower(e.base, e.exponent - 1)
        return Product((const(e.exponent), down, _diff(e.base, var)))
    if isinstance(e, Sin):
        return Product((Cos(e.child), _diff(e.child, var)))
    if isinstance(e, Cos):
        return Product((const(-1), Sin(e.child), _diff(e.child, var)))
    if isinstance(e, Exp):
        return Product((Exp(e.child), _diff(e.child, var)))
    raise TypeError(f"not an expression node: {e!r}")


def diff(e: Expr, var: str) -> Expr:
    """Exact partial derivative with respect to `var`, simplified."""
    return simplify(_diff(e, var))


# ---------------------------------------------------------------------------
# Simplification
# ---------------------------------------------------------------------------


def _sort_key(e: Expr):
    if isinstance(e, Constant):
        return (0, repr(e.value))
    if isinstance(e, Variable):
        return (1, e.name)
    if isinstance(e, IntPower):
        return (2, _sort_key(e.base), e.exponent)
    if isinstance(e, Sin):
        return (3, _sort_key(e.child))
    if isinstance(e, Cos):
        return (4, _sort_key(e.child))
    if isinstance(e, Exp):
        return (5, _sort_key(e.child))
    if isinstance(e, Negate):
        return (6, _sort_key(e.child))
    if isinstance(e, Quotient):
        return (7, _sort_key(e.numerator), _sort_key(e.denominator))
    if isinstance(e, Product):
        return (8, tuple(_sort_key(c) for c in e.children))
    if isinstance(e, Sum):
        return (9, tuple(_sort_key(c) for c in e.children))
    raise TypeError(f"not an expression node: {e!r}")


def _ipow(v: NumberValue, k: int) -> NumberValue:
    # Left-associated repeated multiplication, matching Product evaluation.
    out = v
    for _ in range(k - 1):
        out = out * v
    return out


def _recip(v: NumberValue) -> NumberValue:
    if isinstance(v, Fraction):
        return Fraction(1) / v
    return 1.0 / v


def _simp_power(base: Expr, k: int) -> Expr:
    if isinstance(base, Constant):
        return Constant(_ipow(base.value, k))
    if isinstance(base, IntPower):
        return _simp_power(base.base, base.exponent * k)
    if isinstance(base, Product):
        return _simp_product(tuple(_simp_power(c, k) for c in base.children))
    if isinstance(base, Quotient):
        return _simp_quotient(_simp_power(base.numerator, k), _simp_power(base.denominator, k))
    return IntPower(base, k)


def _simp_quotient(num: Expr, den: Expr) -> Expr:
    if isinstance(den, Constant):
        if den.value == 0:
            raise DivisionByZeroError(to_text(Quotient(num, den)))
        return _simp_product((num, Constant(_recip(den.value))))
    if isinstance(num, Constant) and num.value == 0:
        return _ZERO
    if isinstance(den, Quotient):
        return _simp_quotient(_simp_product((num, den.denominator)), den.numerator)
    if isinstance(num, Quotient):
        return _simp_quotient(num.numerator, _simp_product((num.denominator, den)))
    if isinstance(den, Product) and isinstance(den.children[0], Constant):
        # keep denominators constant-free: the coefficient moves to the numerator
        rest = den.children[1:]
        den_core = rest[0] if len(rest) == 1 else Product(rest)
        num_scaled = _simp_product((num, Constant(_recip(den.children[0].value))))
        return _simp_quotient(num_scaled, den_core)
    return Quotient(num, den)


def _simp_product(children: tuple[Expr, ...]) -> Expr:
    flat: list[Expr] = []
    for c in children:
        if isinstance(c, Product):
            flat.extend(c.children)
        else:
            flat.append(c)
    for c in flat:
        if isinstance(c, Constant) and c.value == 0:
            return _ZERO
    if any(isinstance(c, Quotient) for c in flat):
        nums: list[Expr] = []
        dens: list[Expr] = []
        for c in flat:
            if isinstance(c, Quotient):
                nums.append(c.numerator)
                dens.append(c.denominator)
            else:
                nums.append(c)
        num = nums[0] if len(nums) == 1 else _simp_product(tuple(nums))
        den = dens[0] if len(dens) == 1 else _simp_product(tuple(dens))
        return _simp_quotient(num, den)
    if any(isinstance(c, Sum) for c in flat):
        parts = [c.children if isinstance(c, Sum) else (c,) for c in flat]
        terms = tuple(
            combo[0] if len(combo) == 1 else _simp_product(combo)
            for combo in itertools.product(*parts)
        )
        return _simp_sum(terms)

    coeff: NumberValue = Fraction(1)
    exponents: dict[Expr, int] = {}
    for c in flat:
        if isinstance(c, Constant):
            coeff = coeff * c.value
        elif isinstance(c, IntPower):
            exponents[c.base] = exponents.get(c.base, 0) + c.exponent
        else:
            exponents[c] = exponents.get(c, 0) + 1
    if coeff == 0:
        return _ZERO
    factors = [
        base if k == 1 else IntPower(base, k) for base, k in exponents.items()
    ]
    factors.sort(key=_sort_key)
    if not factors:
        return Constant(coeff)
    if coeff == 1:
        return factors[0] if len(factors) == 1 else Product(tuple(factors))
    return Product((Constant(coeff), *factors))


def _simp_sum(children: tuple[Expr, ...]) -> Expr:
    flat: list[Expr] = []
    for c in children:
        if isinstance(c, Sum):
            flat.extend(c.children)
        else:
            flat.append(c)

    coeffs: dict[Expr, NumberValue] = {}
    const_part: NumberValue = Fraction(0)
    for t in flat:
        if isinstance(t, Constant):
            const_part = const_part + t.value
            continue
        if isinstance(t, Product) and isinstance(t.children[0], Constant):
            c = t.children[0].value
            rest = t.children[1:]
            core = rest[0] if len(rest) == 1 else Product(rest)
        else:
            c = Fraction(1)
            core = t
        coeffs[core] = coeffs.get(core, Fraction(0)) + c

    terms: list[Expr] = []
    rescaled = False
    for core in sorted(coeffs, key=_sort_key):
        c = coeffs[core]
        if c == 0:
            continue
        if c == 1:
            terms.append(core)
        elif isinstance(core, Quotient):
            # the coefficient joins the numerator; the new term may collect again
            terms.append(_simp_product((Constant(c), core)))
            rescaled = True
        elif isinstance(core, Product):
            terms.append(Product((Constant(c), *core.children)))
        else:
            terms.append(Product((Constant(c), core)))
    if const_part != 0:
        terms.append(Constant(const_part))
    if rescaled:
        return _simp_sum(tuple(terms))
    if not terms:
        return _ZERO
    if len(terms) == 1:
        return terms[0]
    return Sum(tuple(terms))


def _simp(e: Expr) -> Expr:
    if isinstance(e, (Constant, Variable)):
        return e
    if isinstance(e, Negate):
        return _simp_product((const(-1), _simp(e.child)))
    if isinstance(e, Sum):
        return _simp_sum(tuple(_simp(c) for c in e.children))
    if isinstance(e, Product):
        return _simp_product(tuple(_simp(c) for c in e.children))
    if isinstance(e, Quotient):
        return _simp_quotient(_simp(e.numerator), _simp(e.denominator))
    if isinstance(e, IntPower):
        return _simp_power(_simp(e.base), e.exponent)
    if isinstance(e, Sin):
        return Sin(_simp(e.child))
    if isinstance(e, Cos):
        return Cos(_simp(e.child))
    if isinstance(e, Exp):
        return Exp(_simp(e.child))
    raise TypeError(f"not an expression node: {e!r}")


def simplify(e: Expr) -> Expr:
    """Canonical form in one idempotent pass: folded constants, flat sorted, collected terms."""
    return _simp(e)


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------


def _eval(e: Expr, binding: Mapping[str, NumberValue]) -> NumberValue:
    if isinstance(e, Constant):
        return e.value
    if isinstance(e, Variable):
        try:
            return binding[e.name]
        except KeyError:
            raise MissingBindingError(e.name) from None
    if isinstance(e, Negate):
        return -_eval(e.child, binding)
    if isinstance(e, Sum):
        total = _eval(e.children[0], binding)
        for c in e.children[1:]:
            total = total + _eval(c, binding)
        return total
    if isinstance(e, Product):
        total = _eval(e.children[0], binding)
        for c in e.children[1:]:
            total = total * _eval(c, binding)
        return total
    if isinstance(e, Quotient):
        num = _eval(e.numerator, binding)
        den = _eval(e.denominator, binding)
        if den == 0:
            raise DivisionByZeroError(to_text(e))
        return num / den
    if isinstance(e, IntPower):
        return _ipow(_eval(e.base, binding), e.exponent)
    if isinstance(e, Sin):
        return math.sin(float(_eval(e.child, binding)))
    if isinstance(e, Cos):
        return math.cos(float(_eval(e.child, binding)))
    if isinstance(e, Exp):
        try:
            return math.exp(float(_eval(e.child, binding)))
        except OverflowError:
            raise EvalError(f"overflow in '{to_text(e)}'") from None
    raise TypeError(f"not an expression node: {e!r}")


def evaluate(e: Expr, binding: Mapping[str, NumberValue]) -> float:
    """Evaluate with real arithmetic (radians for sin/cos)."""
    return float(_eval(e, binding))


# ---------------------------------------------------------------------------
# Probabilistic zero testing
# ---------------------------------------------------------------------------

_DENOM_BITS = 20  # sample points are dyadic rationals so polynomials evaluate exactly


def _derive_seed(seed: int, tags: tuple) -> int:
    digest = hashlib.blake2b(repr((seed, tags)).encode(), digest_size=8).digest()
    return int.from_bytes(digest, "big")


@dataclass(frozen=True)
class ZeroTestPolicy:
    """How to decide "identically zero": sample count, box, tolerance, seed."""

    sample_count: int = 32
    box_halfwidth: float = 1.0
    tolerance: float = 1e-9
    seed: int = 1729

    def __post_init__(self):
        if self.sample_count < 1:
            raise ValueError("sample_count must be >= 1")
        if not self.box_halfwidth > 0:
            raise ValueError("box_halfwidth must be > 0")
        if not self.tolerance > 0:
            raise ValueError("tolerance must be > 0")

    def derive(self, *tags) -> "ZeroTestPolicy":
        """Policy with a substream seed mixed deterministically from `tags`."""
        return ZeroTestPolicy(
            sample_count=self.sample_count,
            box_halfwidth=self.box_halfwidth,
            tolerance=self.tolerance,
            seed=_derive_seed(self.seed, tags),
        )


@dataclass(frozen=True)
class ZeroVerdict:
    is_zero: bool
    witness: Mapping[str, float] | None = None
    value: float | None = None


def is_zero(e: Expr, policy: ZeroTestPolicy = ZeroTestPolicy()) -> ZeroVerdict:
    """Zero if simplify gives the constant 0, else sampled verdict.

    Sample points are exact dyadic rationals, so purely rational expressions
    evaluate without rounding and a true zero can never spuriously exceed the
    tolerance.  A "zero" verdict on expressions that merely vanish at every
    sampled point is probabilistic.
    """
    s = simplify(e)
    if isinstance(s, Constant) and s.value == 0:
        return ZeroVerdict(True)
    names = sorted(variables(s))
    rng = random.Random(policy.seed)
    scale = Fraction(policy.box_halfwidth)
    produced = 0
    attempts = 0
    max_attempts = 10 * policy.sample_count + 10
    while produced < policy.sample_count and attempts < max_attempts:
        attempts += 1
        point = {
            name: Fraction(rng.randint(-(1 << _DENOM_BITS), 1 << _DENOM_BITS), 1 << _DENOM_BITS)
            * scale
            for name in names
        }
        try:
            value = _eval(s, point)
        except EvalError:
            continue
        produced += 1
        if abs(value) > policy.tolerance:
            witness = {name: float(v) for name, v in point.items()}
            return ZeroVerdict(False, witness=witness, value=float(value))
    if produced == 0:
        raise IndeterminateZeroTest(
            f"no sample point of '{to_text(s)}' could be evaluated"
        )
    return ZeroVerdict(True)


# ---------------------------------------------------------------------------
# Compilation to plain Python (fast numeric paths)
# ---------------------------------------------------------------------------


def _pycode(e: Expr, names: Mapping[str, str]) -> str:
    if isinstance(e, Constant):
        return repr(float(e.value))
    if isinstance(e, Variable):
        return names[e.name]
    if isinstance(e, Negate):
        return f"(-{_pycode(e.child, names)})"
    if isinstance(e, Sum):
        return "(" + " + ".join(_pycode(c, names) for c in e.children) + ")"
    if isinstance(e, Product):
        return "(" + "*".join(_pycode(c, names) for c in e.children) + ")"
    if isinstance(e, Quotient):
        return f"({_pycode(e.numerator, names)}/{_pycode(e.denominator, names)})"
    if isinstance(e, IntPower):
        return f"({_pycode(e.base, names)}**{e.exponent})"
    if isinstance(e, Sin):
        return f"_sin({_pycode(e.child, names)})"
    if isinstance(e, Cos):
        return f"_cos({_pycode(e.child, names)})"
    if isinstance(e, Exp):
        return f"_exp({_pycode(e.child, names)})"
    raise TypeError(f"not an expression node: {e!r}")


def compile_components(
    exprs: Sequence[Expr], var_order: Sequence[str]
) -> Callable[[Sequence[float]], tuple[float, ...]]:
    """Compile expressions into one positional-vector function.

    The returned callable maps a sequence ordered like `var_order` to the
    tuple of expression values.  Division by zero raises ZeroDivisionError.
    """
    allowed = set(var_order)
    for e in exprs:
        extra = variables(e) - allowed
        if extra:
            raise ValueError(f"expression uses undeclared variables {sorted(extra)}")
    names = {name: f"_v[{i}]" for i, name in enumerate(var_order)}
    body = ", ".join(_pycode(e, names) for e in exprs)
    if len(exprs) == 1:
        body += ","
    src = f"def _fn(_v):\n    return ({body})"
    env = {"_sin": math.sin, "_cos": math.cos, "_exp": math.exp}
    exec(src, env)  # source is generated from our own AST only
    return env["_fn"]
