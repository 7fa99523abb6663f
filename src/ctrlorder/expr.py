"""Immutable symbolic scalar expressions over named variables.

The expression language covers exact rational constants (a decimal literal
is the rational it spells), named variables, sums, products, quotients,
integer powers (exponent >= 2), and sin/cos/exp.  That is enough to write
every vector field this package works with.  This module parses, prints,
evaluates and compiles trees, and holds the sampled zero test; simplifying
and differentiating a tree go through its rational normal form (see
`normal`).

Evaluation, the sampled zero test and the code generator share one lowering:
`_lower` turns trees into a straight-line program, and one interpreter,
`_run`, runs it in floats, in Fractions and in residues modulo the prime
2^61 - 1 (`_Residue`).  Float evaluation has one arithmetic, the generated
code's: the program's float copy (`_floats`) is what `render_components`
writes out as Python and what `evaluate` runs, so the two agree bit for bit
and fail alike.  The sampled zero test runs the program's residue copy
(`_modular`) at the residues of Fraction points, and the program itself at
the Fractions where a residue cannot decide: that exact arithmetic defines
the zero decision and is no float evaluation.
"""

from __future__ import annotations

import math
import random
import re
import sys
# hashlib.blake2b itself, without the OpenSSL bindings that importing hashlib loads
from _blake2 import blake2b
from fractions import Fraction
from operator import attrgetter
from typing import Callable, Iterable, Mapping, Sequence

_FUNCTION_NAMES = ("sin", "cos", "exp")
# Parentheses, function calls and unary minuses nest at most this deep, so
# that the recursive passes over a parsed tree stay far below Python's
# recursion limit.
MAX_NESTING = 100
# Largest integer exponent the parser accepts: x^1000 already costs `order`
# half a second, and exact powers grow with the exponent.
MAX_EXPONENT = 1000


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
    def __init__(self, node: Expr):
        super().__init__(f"division by zero in {_quote(node)}")


class IndeterminateZeroTest(ExprError):
    """Every sampled point failed to evaluate; no verdict possible."""


# ---------------------------------------------------------------------------
# Records
# ---------------------------------------------------------------------------


_setattr = object.__setattr__  # stores a field past Record.__setattr__, which refuses


class Record:
    """Base of the package's immutable value classes.

    A subclass declares each field once, in order, as a class annotation,
    `name: type` or `name: type = default`, the fields with defaults last;
    `__match_args__` lists them.  `Record.__init__` binds positional and
    keyword arguments to the fields and stores them.  A record with
    invariants checks or converts its arguments in its own `__init__`, then
    calls `Record.__init__` with every field.  Records of one class with
    equal fields are equal and hash alike; a record prints as
    `Name(field=value, ...)`, cannot be assigned to, is rebuilt through its
    `__init__` by pickle and copy, and `replace(**changes)` is a copy with
    some fields changed.
    """

    __match_args__: tuple[str, ...] = ()
    _defaults: dict = {}
    _required = 0  # the leading fields that have no default

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        fields = tuple(cls.__dict__.get("__annotations__", ()))
        if fields:
            slots = cls.__dict__.get("__slots__", ())  # a slot's descriptor is no default
            defaults = {n: cls.__dict__[n] for n in fields if n in cls.__dict__ and n not in slots}
            cls._required = len(fields) - len(defaults)
            if tuple(defaults) != fields[cls._required:]:
                raise TypeError(f"{cls.__name__}: a field without a default follows a default")
            cls.__match_args__, cls._defaults = fields, defaults
            cls._get = attrgetter(*fields)  # one field's value, or a tuple of several

    def __init__(self, *args, **kwargs):
        fields = self.__match_args__
        if kwargs or not self._required <= len(args) <= len(fields):
            args = self._bind(args, kwargs)
        # a trailing field left out is not stored: it reads as its default, the class attribute
        for name, value in zip(fields, args):
            _setattr(self, name, value)

    @classmethod
    def _bind(cls, args: tuple, kwargs: dict) -> tuple:
        """Every field's value, in order: the arguments, then the keywords or defaults."""
        fields, name = cls.__match_args__, cls.__name__
        if len(args) > len(fields):
            raise TypeError(f"{name}() takes {len(fields)} arguments but {len(args)} were given")
        for field in kwargs:
            if field not in fields:
                raise TypeError(f"{name}() got an unexpected keyword argument '{field}'")
            if fields.index(field) < len(args):
                raise TypeError(f"{name}() got multiple values for argument '{field}'")
        given = {**cls._defaults, **kwargs}
        try:
            return args + tuple(map(given.__getitem__, fields[len(args):]))
        except KeyError as err:
            raise TypeError(f"{name}() missing required argument '{err.args[0]}'") from None

    def _values(self) -> tuple:
        values = self._get(self)
        return values if len(self.__match_args__) > 1 else (values,)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            # in 1-tuples, which compare their items by identity first and then by ==
            return (self._get(self),) == (other._get(other),)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{n}={v!r}" for n, v in zip(self.__match_args__, self._values()))
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field '{name}'")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field '{name}'")

    def __reduce__(self):
        return self.__class__, self._values()

    def replace(self, **changes):
        """A copy with the named fields changed, checked as a new record is."""
        values = [changes.pop(n, v) for n, v in zip(self.__match_args__, self._values())]
        return self.__class__(*values, **changes)  # a name left in `changes` raises TypeError


# ---------------------------------------------------------------------------
# Expression nodes
# ---------------------------------------------------------------------------


class Expr(Record):
    """Base class for all expression nodes.  Instances are immutable.

    Each node class also lists its fields in `__slots__`, in field order, which
    is how the benchmark's tracer (`ctrlbench/tracer.py`) walks a tree.
    `_hash` and `_key` hold its hash and sort key, each built on first use
    from the children's stored ones (`_node_hash`, `_node_key`).  Neither is
    a field, so equality and printing ignore them.
    """

    __slots__ = ()
    _hash = None
    _key = None

    def __hash__(self) -> int:
        if self._hash is None:
            object.__setattr__(self, "_hash", _node_hash(self))
        return self._hash


class Constant(Expr):
    """A number, held as the exact rational it spells: an int as itself, a
    float as the rational its repr spells (so that float(value) is that float
    again, and 0.5 is 1/2), -0.0 as 0.  ValueError for inf and nan, TypeError
    for a bool or a value that is not a number."""

    __slots__ = ("value",)
    value: Fraction

    def __init__(self, value: int | float | Fraction):
        if type(value) is not Fraction:
            if isinstance(value, bool) or not isinstance(value, (int, float, Fraction)):
                raise TypeError(f"cannot make a constant from {type(value).__name__}")
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(f"a constant must be finite, got {value!r}")
            value = Fraction(repr(float(value)) if isinstance(value, float) else value)
        super().__init__(value)


class Variable(Expr):
    __slots__ = ("name",)
    name: str


class Negate(Expr):
    __slots__ = ("child",)
    child: Expr


class Sum(Expr):
    __slots__ = ("children",)
    children: tuple[Expr, ...]

    def __init__(self, children: tuple[Expr, ...]):
        children = tuple(children)
        if len(children) < 2:
            raise ValueError("Sum needs at least two children")
        super().__init__(children)


class Product(Expr):
    __slots__ = ("children",)
    children: tuple[Expr, ...]

    def __init__(self, children: tuple[Expr, ...]):
        children = tuple(children)
        if len(children) < 2:
            raise ValueError("Product needs at least two children")
        super().__init__(children)


class Quotient(Expr):
    __slots__ = ("numerator", "denominator")
    numerator: Expr
    denominator: Expr


class IntPower(Expr):
    __slots__ = ("base", "exponent")
    base: Expr
    exponent: int

    def __init__(self, base: Expr, exponent: int):
        if not isinstance(exponent, int) or exponent < 2:
            raise ValueError("IntPower exponent must be an integer >= 2")
        super().__init__(base, exponent)


class Sin(Expr):
    __slots__ = ("child",)
    child: Expr


class Cos(Expr):
    __slots__ = ("child",)
    child: Expr


class Exp(Expr):
    __slots__ = ("child",)
    child: Expr


const = Constant


_ZERO = const(0)
_ONE = const(1)
_FIELDS = {}  # node class -> (hash tag, getter of its fields)
for _tag, _cls in enumerate(Expr.__subclasses__()):
    _FIELDS[_cls] = (_tag, _cls._get)


def _node_hash(e: Expr) -> int:
    """One level of the hash: the class tag and the fields, child nodes by their stored hashes."""
    tag, fields = _FIELDS[type(e)]
    return hash((tag, fields(e)))


def _children(node: Expr) -> tuple[Expr, ...]:
    if isinstance(node, (Sum, Product)):
        return node.children
    if isinstance(node, Quotient):
        return (node.numerator, node.denominator)
    if isinstance(node, IntPower):
        return (node.base,)
    if isinstance(node, (Negate, Sin, Cos, Exp)):
        return (node.child,)
    return ()


def _nodes(e: Expr):
    """Every distinct node object of the tree, once: a shared subtree is walked once."""
    stack = [e]
    seen = {id(e)}
    while stack:
        node = stack.pop()
        yield node
        for child in _children(node):
            if id(child) not in seen:
                seen.add(id(child))
                stack.append(child)


def variables(e: Expr) -> frozenset[str]:
    """Set of variable names appearing in the expression."""
    return frozenset(node.name for node in _nodes(e) if isinstance(node, Variable))


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
# a number, else an identifier, else an operator, else one bad character; whitespace
# (what str.isspace accepts) matches none of them and is skipped.  re compiles the
# pattern on its first use, not on import.
_TOKEN = (
    r"(?P<num>(?:\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?)"
    rf"|(?P<ident>{_IDENT_RE.pattern})|(?P<op>[-+*/^(),])|(?P<bad>\S)"
)

_Token = tuple[str, str, int]  # (kind, text, pos); kind is "num", "ident", "op" or "end"


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    for m in re.finditer(_TOKEN, text):
        if m.lastgroup == "bad":
            raise ExprSyntaxError(f"unexpected character '{m.group()}'", m.start())
        tokens.append((m.lastgroup, m.group(), m.start()))
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    """Recursive-descent parser for the expression grammar.

    expr  := term (('+'|'-') term)*
    term  := unary (('*'|'/') unary)*
    unary := '-' unary | power
    power := atom ('^' integer)?     (integer <= MAX_EXPONENT)
    atom  := number | identifier | identifier '(' expr ')' | '(' expr ')'

    Each '(', function call, unary '-' and '*' or '/' opens one nesting
    level; a level past MAX_NESTING is a syntax error at the token that
    opens it.
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
        kind, text, _ = self.peek()
        return kind == "op" and text in ops

    def open_level(self, pos: int) -> None:
        if self.depth == MAX_NESTING:
            raise ExprSyntaxError(f"expression nested deeper than {MAX_NESTING} levels", pos)
        self.depth += 1

    def expect_op(self, op: str) -> None:
        if not self.at_op(op):
            raise ExprSyntaxError(f"expected '{op}'", self.peek()[2])
        self.index += 1

    def parse(self) -> Expr:
        e = self.expr()
        kind, text, pos = self.peek()
        if kind != "end":
            raise ExprSyntaxError(f"unexpected '{text}'", pos)
        return e

    def expr(self) -> Expr:
        terms = [self.term()]
        while self.at_op("+", "-"):
            _, op, _ = self.advance()
            rhs = self.term()
            terms.append(rhs if op == "+" else Negate(rhs))
        if len(terms) == 1:
            return terms[0]
        return Sum(tuple(terms))

    def term(self) -> Expr:
        cur = self.unary()
        opened = self.depth
        while self.at_op("*", "/"):
            _, op, pos = self.advance()
            self.open_level(pos)  # the tree nests one level per operator
            rhs = self.unary()
            cur = Product((cur, rhs)) if op == "*" else Quotient(cur, rhs)
        self.depth = opened
        return cur

    def unary(self) -> Expr:
        if self.at_op("-"):
            self.open_level(self.advance()[2])
            e = Negate(self.unary())
            self.depth -= 1
            return e
        return self.power()

    def power(self) -> Expr:
        base = self.atom()
        if self.at_op("^"):
            self.advance()
            kind, text, pos = self.advance()
            if kind != "num" or not text.isdecimal():
                raise ExprSyntaxError("expected an integer exponent after '^'", pos)
            # a digit string longer than the cap's is over it without converting it
            digits = text.lstrip("0")
            k = int(text) if len(digits) <= len(str(MAX_EXPONENT)) else MAX_EXPONENT + 1
            if k > MAX_EXPONENT:
                raise ExprSyntaxError(f"exponent larger than {MAX_EXPONENT}", pos)
            if k == 0:
                return _ONE
            if k == 1:
                return base
            return IntPower(base, k)
        return base

    def atom(self) -> Expr:
        kind, text, pos = self.peek()
        if kind == "num":
            self.advance()
            return Constant(_literal(text, pos))
        if kind == "ident":
            self.advance()
            if self.at_op("("):
                if text not in _FUNCTION_NAMES:
                    raise UnknownIdentifierError(text, pos)
                self.open_level(pos)
                self.advance()
                if self.at_op(")"):
                    raise ArityError(text, self.peek()[2])
                arg = self.expr()
                if self.at_op(","):
                    raise ArityError(text, self.peek()[2])
                self.expect_op(")")
                self.depth -= 1
                node = {"sin": Sin, "cos": Cos, "exp": Exp}[text]
                return node(arg)
            if text not in self.allowed:
                raise UnknownIdentifierError(text, pos)
            return Variable(text)
        if self.at_op("("):
            self.open_level(self.advance()[2])
            e = self.expr()
            self.expect_op(")")
            self.depth -= 1
            return e
        raise ExprSyntaxError("expected a number, variable, function call, or '('", pos)


def _max_digits() -> int:
    """The most digits of an int that Python converts to or from a string."""
    return sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits


def _literal(text: str, pos: int) -> Fraction:
    """The exact rational that a number token spells: 0.1 is 1/10, 1e-3 is 1/1000.

    Written out with no exponent, a literal may have at most as many digits
    as Python converts from a string to an int; that is checked before 10^e
    is built, so 1e-99999999 fails at once.
    """
    integer = text.isdecimal()
    if not integer and not math.isfinite(float(text)):
        raise ExprSyntaxError(f"number '{text}' is too large for a float", pos)
    mantissa, _, exponent = text.lower().partition("e")
    power = exponent.lstrip("+-0")
    limit = _max_digits()
    # an exponent longer than the limit's is past it without converting it
    if len(mantissa) + (int(power or 0) if len(power) <= len(str(limit)) else limit) > limit:
        if integer:
            raise ExprSyntaxError(f"integer literal of {len(text)} digits is too long", pos)
        raise ExprSyntaxError(f"decimal literal needs more than {limit} digits", pos)
    return Fraction(text)


def parse(text: str, allowed_vars: Iterable[str]) -> Expr:
    """Parse expression text; identifiers must come from `allowed_vars`."""
    return _Parser(text, allowed_vars).parse()


# ---------------------------------------------------------------------------
# Printing
# ---------------------------------------------------------------------------

_P_ADD, _P_MUL, _P_UNARY, _P_POW, _P_ATOM = 1, 2, 3, 4, 5


def _render_number(v: Fraction) -> tuple[str, int]:
    if v.denominator == 1:
        return str(v.numerator), (_P_ATOM if v >= 0 else _P_UNARY)
    return f"{v.numerator}/{v.denominator}", _P_MUL


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


def _render(e: Expr, budget: float = math.inf) -> tuple[str, int]:
    """(text, binding strength).  A sum or product renders no further operands
    once its text holds `budget` characters, so a cut text holds at least
    `budget` characters, the first `budget` of which are the whole text's."""
    if isinstance(e, Constant):
        return _render_number(e.value)
    if isinstance(e, Variable):
        return e.name, _P_ATOM
    if isinstance(e, Sin):
        return f"sin({_render(e.child, budget)[0]})", _P_ATOM
    if isinstance(e, Cos):
        return f"cos({_render(e.child, budget)[0]})", _P_ATOM
    if isinstance(e, Exp):
        return f"exp({_render(e.child, budget)[0]})", _P_ATOM
    if isinstance(e, Negate):
        body, prec = _render(e.child, budget)
        if prec < _P_POW:
            body = f"({body})"
        return f"-{body}", _P_UNARY
    if isinstance(e, IntPower):
        body, prec = _render(e.base, budget)
        if prec < _P_ATOM:
            body = f"({body})"
        return f"{body}^{e.exponent}", _P_POW
    if isinstance(e, Quotient):
        num, pn = _render(e.numerator, budget)
        if pn < _P_MUL:
            num = f"({num})"
        den, pd = _render(e.denominator, budget - len(num))
        if pd <= _P_MUL:
            den = f"({den})"
        return f"{num}/{den}", _P_MUL
    if isinstance(e, Product):
        if isinstance(e.children[0], Constant) and e.children[0].value == -1:
            neg = _negated_form(e)
            if neg is not None:
                body, prec = _render(neg, budget)
                if prec < _P_MUL:
                    body = f"({body})"
                return f"-{body}", _P_UNARY
        parts, size = [], -1  # the length of "*".join(parts)
        for child in e.children:
            if size >= budget:
                break
            body, prec = _render(child, budget - size)
            if prec < _P_MUL:
                body = f"({body})"
            parts.append(body)
            size += len(body) + 1
        return "*".join(parts), _P_MUL
    if isinstance(e, Sum):
        first, _ = _render(e.children[0], budget)
        out, size = [first], len(first)
        for child in e.children[1:]:
            if size >= budget:
                break
            neg = _negated_form(child)
            if neg is not None:
                body, prec = _render(neg, budget - size)
                if prec <= _P_ADD:
                    body = f"({body})"
                out.append(f" - {body}")
            else:
                out.append(f" + {_render(child, budget - size)[0]}")
            size += len(out[-1])
        return "".join(out), _P_ADD
    raise TypeError(f"not an expression node: {e!r}")


def to_text(e: Expr) -> str:
    """Render with minimal parenthesization; the text parses back to a tree with
    the same normal form."""
    return _render(e)[0]


# ---------------------------------------------------------------------------
# Ordering
# ---------------------------------------------------------------------------


def _sort_key(e: Expr):
    if e._key is None:
        object.__setattr__(e, "_key", _node_key(e))
    return e._key


def _node_key(e: Expr):
    """One level of the sort key: a class tag and the children's stored keys."""
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
        return (8, tuple(map(_sort_key, e.children)))
    if isinstance(e, Sum):
        return (9, tuple(map(_sort_key, e.children)))
    raise TypeError(f"not an expression node: {e!r}")


# ---------------------------------------------------------------------------
# Straight-line programs: evaluation and the sampled zero test
# ---------------------------------------------------------------------------

_DENOM_BITS = 20  # sample points are dyadic rationals so polynomials evaluate exactly
_QUOTED_CHARS = 200  # the most characters of a tree that an error message quotes


def _quote(e: Expr) -> str:
    """The tree's text in quotes, for an error message: where it is longer than
    _QUOTED_CHARS, its first _QUOTED_CHARS characters and its count of
    distinct nodes, rendering no more of it than that."""
    text = _render(e, _QUOTED_CHARS + 1)[0]
    if len(text) <= _QUOTED_CHARS:
        return f"'{text}'"
    return f"'{text[:_QUOTED_CHARS]}...' ({len(_lower([e])[0])} distinct nodes)"


def _derive_seed(seed: int, tags: tuple) -> int:
    digest = blake2b(repr((seed, tags)).encode(), digest_size=8).digest()
    return int.from_bytes(digest, "big")


class ZeroTestPolicy(Record):
    """How to decide "identically zero": sample count, box, tolerance (relative,
    for trees with sin, cos or exp only: see sampled_is_zero), seed."""

    sample_count: int
    box_halfwidth: float
    tolerance: float
    seed: int

    def __init__(
        self,
        sample_count: int = 32,
        box_halfwidth: float = 1.0,
        tolerance: float = 1e-9,
        seed: int = 1729,
    ):
        if sample_count < 1:
            raise ValueError("sample_count must be >= 1")
        if not box_halfwidth > 0:
            raise ValueError("box_halfwidth must be > 0")
        if not 0 < tolerance < 1:  # the rounding scale is at least |value|
            raise ValueError("tolerance must be > 0 and < 1")
        super().__init__(sample_count, box_halfwidth, tolerance, seed)

    def derive(self, *tags) -> "ZeroTestPolicy":
        """Policy with a substream seed mixed deterministically from `tags`."""
        return self.replace(seed=_derive_seed(self.seed, tags))


# How a verdict was reached, from the strongest to the weakest.
SYMBOLIC, EXACT_SAMPLED, FLOAT_SAMPLED = "symbolic", "exact-sampled", "float-sampled"
ZERO_TEST_KINDS = (SYMBOLIC, EXACT_SAMPLED, FLOAT_SAMPLED)


class ZeroVerdict(Record):
    is_zero: bool
    kind: str  # one of ZERO_TEST_KINDS
    witness: Mapping[str, float] | None = None
    value: float | None = None
    component: int | None = None  # a field's witnessing component; None for a scalar


# A straight-line program holds one instruction (op, operand) per
# structurally unique node of a tree, children before parents; an operand
# names earlier slots: one for a negation, sin, cos or exp, a tuple of them
# for a sum, product or quotient, and (slot, exponent) for a power.  A
# constant holds its value (a Fraction's residue in a modular program) and a
# variable its name.  The ops up to _NEG are rational-exact.
_CONST, _VAR, _ADD, _MUL, _DIV, _POW, _NEG, _SIN, _COS, _EXP = range(10)
_UNARY = {Negate: _NEG, Sin: _SIN, Cos: _COS, Exp: _EXP}
_MATH = {_SIN: math.sin, _COS: math.cos, _EXP: math.exp}
_MODULUS = (1 << 61) - 1  # a Mersenne prime


def _lower(exprs: Sequence[Expr], nodes: list | None = None) -> tuple[list[tuple], list[int]]:
    """The straight-line program of the trees, and the slot of each root (a
    single tree's root is the last instruction); `nodes`, if given, receives
    the tree node of each slot.

    Nodes are memoised by id() within this one call, and instructions by their
    operand slots, so equal subtrees share one slot.  A constant is keyed by
    its numerator and denominator, which hash faster than the Fraction.
    """
    code: list[tuple] = []
    slot_of: dict[tuple, int] = {}
    by_id: dict[int, int] = {}

    def visit(node: Expr) -> int:
        slot = by_id.get(id(node))
        if slot is not None:
            return slot
        t = type(node)
        if t is Constant:
            v = node.value
            ins, key = (_CONST, v), (_CONST, v.numerator, v.denominator)
        elif t is Variable:
            key = ins = (_VAR, node.name)
        elif t is Sum or t is Product:
            key = ins = (_ADD if t is Sum else _MUL, tuple(map(visit, node.children)))
        elif t is Quotient:
            key = ins = (_DIV, (visit(node.numerator), visit(node.denominator)))
        elif t is IntPower:
            key = ins = (_POW, (visit(node.base), node.exponent))
        else:
            key = ins = (_UNARY[t], visit(node.child))
        slot = slot_of.get(key)
        if slot is None:
            slot = slot_of[key] = len(code)
            code.append(ins)
            if nodes is not None:
                nodes.append(node)
        by_id[id(node)] = slot
        return slot

    return code, [visit(e) for e in exprs]


def _to_float(value: Fraction | float) -> float:
    """A number as a float: float(value), or +-inf past the float range (a
    derivative can fold a rational coefficient past it)."""
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def _floats(code: list[tuple]) -> list[tuple]:
    """The program with every constant a float (`_to_float`): the generated code's."""
    return [(op, _to_float(arg)) if op == _CONST else (op, arg) for op, arg in code]


def _run(
    code: list[tuple], point: Mapping[str, Fraction | float], v: list | None = None
) -> list:
    """Every slot's value in the arithmetic of the program's and `point`'s
    numbers: exact where all are Fractions, modulo the prime where all are
    residues (`_modular`), the generated code's where all are floats
    (`_floats`); sin, cos and exp take floats (radians).  The values are
    appended to `v` if given, so that after a failure its length is the
    failing slot."""
    v = [] if v is None else v
    for op, arg in code:
        if op == _CONST:
            x = arg
        elif op == _VAR:
            x = point[arg]
        elif op == _ADD or op == _MUL:
            x = v[arg[0]]
            for c in arg[1:]:
                x = x + v[c] if op == _ADD else x * v[c]
        elif op == _DIV:
            x = v[arg[0]] / v[arg[1]]
        elif op == _POW:
            x = v[arg[0]] ** arg[1]
        elif op == _NEG:
            x = -v[arg]
        else:
            x = _MATH[op](v[arg])
        v.append(x)
    return v


def evaluator(exprs: Sequence[Expr]) -> Callable[[Mapping[str, float]], list[float]]:
    """Lower `exprs` once; the returned function evaluates them all at a binding.

    It runs the float program (`_floats`) on each bound value made a float as
    a constant is (`_to_float`): the operations `compile_components`
    generates, in the same order, so at a float point the two give the same
    floats bit for bit and fail at the same points.  A variable the binding
    lacks raises MissingBindingError, a zero denominator DivisionByZeroError,
    a value past the float range (in a power or exp) and sin or cos of an
    infinite value EvalError, each quoting the failing node (`_quote`).
    """
    nodes: list[Expr] = []
    code, roots = _lower(exprs, nodes)
    code = _floats(code)

    def run(binding: Mapping[str, float]) -> list[float]:
        point = {name: _to_float(x) for name, x in binding.items()}
        v: list[float] = []
        try:
            _run(code, point, v)
        except KeyError as err:
            raise MissingBindingError(err.args[0]) from None
        except ZeroDivisionError:
            raise DivisionByZeroError(nodes[len(v)]) from None
        except OverflowError:
            raise EvalError(f"overflow in {_quote(nodes[len(v)])}") from None
        except ValueError:  # math.sin or math.cos of +-inf
            raise EvalError(f"infinite argument in {_quote(nodes[len(v)])}") from None
        return [v[r] for r in roots]

    return run


def evaluate(e: Expr, binding: Mapping[str, float]) -> float:
    """The tree's value at a binding, in floats (radians for sin/cos); see `evaluator`."""
    return evaluator([e])(binding)[0]


def _magnitude(code: list[tuple], v: list[float]) -> float:
    """The first-order scale of the rounding error in the program's value where its
    slots hold `v`: |value| at a leaf, the terms' scales summed for a sum and
    multiplied for a product or power, propagated through /, sin, cos and exp."""
    m: list[float] = []
    for (op, arg), x in zip(code, v):
        if op == _ADD:
            y = sum(m[c] for c in arg)
        elif op == _MUL:
            y = math.prod(m[c] for c in arg)
        elif op == _DIV:  # (scale(n) + |n/d| scale(d)) / |d|
            y = (m[arg[0]] + abs(x) * m[arg[1]]) / abs(v[arg[1]])
        elif op == _POW:
            y = m[arg[0]] ** arg[1]
        elif op == _NEG:
            y = m[arg]
        elif op == _EXP:
            y = abs(x) * (1.0 + m[arg])
        elif op >= _SIN:  # |sin'| and |cos'| are at most 1
            y = abs(x) + m[arg]
        else:
            y = abs(x)
        m.append(float(y))
    return m[-1]


class _Residue(int):
    """A residue modulo the prime _MODULUS, as `_run`'s third number type: +, *,
    /, ** and unary - stay modulo the prime, and dividing by a residue of 0
    raises ZeroDivisionError."""

    __slots__ = ()

    def __add__(self, other):
        return _Residue(int.__add__(self, other) % _MODULUS)

    def __mul__(self, other):
        return _Residue(int.__mul__(self, other) % _MODULUS)

    def __truediv__(self, other):
        if not other % _MODULUS:
            raise ZeroDivisionError("division by a residue of 0")
        return self * int.__pow__(other, -1, _MODULUS)

    def __pow__(self, exponent):
        return _Residue(int.__pow__(self, exponent, _MODULUS))

    def __neg__(self):
        return _Residue(-int(self) % _MODULUS)


def _to_residue(q: Fraction) -> _Residue:
    """A rational's residue; ZeroDivisionError where its denominator is a multiple of the prime."""
    return _Residue(q.numerator) / q.denominator


def _modular(code: list[tuple]) -> list[tuple] | None:
    """The program with every constant its residue (`_to_residue`), or None if one has none."""
    try:
        return [(op, _to_residue(arg)) if op == _CONST else (op, arg) for op, arg in code]
    except ZeroDivisionError:
        return None


def _exact_sampler(code: list[tuple]) -> Callable[[Mapping[str, Fraction]], bool | None]:
    """point -> nonzero?, or None where a denominator is 0.

    `_run` decides a sample on the residue program (`_modular`) at the
    point's residues, and on the Fraction program only where that cannot: a
    constant with no residue, or a denominator that is 0 mod the prime.
    """
    mod_code = _modular(code)

    def sample(point):
        if mod_code is not None:
            try:
                residues = {name: _to_residue(q) for name, q in point.items()}
                return _run(mod_code, residues)[-1] != 0
            except ZeroDivisionError:
                pass
        try:
            return _run(code, point)[-1] != 0
        except ZeroDivisionError:
            return None

    return sample


def _witness(code: list[tuple], point: Mapping[str, Fraction], kind: str) -> ZeroVerdict:
    witness = {name: float(v) for name, v in point.items()}
    try:  # as `evaluate` would, so that no large exact power is built
        value = _run(_floats(code), witness)[-1]
    except (ZeroDivisionError, OverflowError, ValueError):
        value = math.nan
    return ZeroVerdict(False, kind, witness=witness, value=value)


def _search(names: Sequence[str], sample, policy: ZeroTestPolicy):
    """(witness, last): the first seeded point over the sorted `names` where
    `sample` says nonzero, or None, and the last point it evaluated, or None
    where none evaluated; sample(point) is None where a point must be redrawn."""
    rng = random.Random(policy.seed)
    scale = Fraction(policy.box_halfwidth)
    produced = 0
    attempts = 0
    max_attempts = 10 * policy.sample_count + 10
    last = None
    while produced < policy.sample_count and attempts < max_attempts:
        attempts += 1
        point = {
            name: Fraction(rng.randint(-(1 << _DENOM_BITS), 1 << _DENOM_BITS), 1 << _DENOM_BITS)
            * scale
            for name in names
        }
        nonzero = sample(point)
        if nonzero is None:
            continue
        produced += 1
        if nonzero:
            return point, point
        last = point
    return None, last


def _sampled(e: Expr, policy: ZeroTestPolicy) -> tuple[list[tuple], str, Mapping | None, Mapping]:
    """The sampled test of the tree: (its program, the kind of verdict, the
    first seeded point where it is nonzero or None, the last point that
    evaluated, which is that point where there is one); IndeterminateZeroTest
    where no point evaluates."""
    code, _ = _lower([e])
    if all(op <= _NEG for op, _ in code):
        kind, sample = EXACT_SAMPLED, _exact_sampler(code)
    else:
        kind = FLOAT_SAMPLED

        def sample(point):
            try:
                v = _run(code, point)
                scale = policy.tolerance * _magnitude(code, v)
            except (ZeroDivisionError, OverflowError, ValueError):
                return None
            return abs(v[-1]) > scale if math.isfinite(scale) else None

    witness, last = _search(sorted(variables(e)), sample, policy)
    if last is None:
        raise IndeterminateZeroTest(f"no sample point of {_quote(e)} could be evaluated")
    return code, kind, witness, last


def sampled_is_zero(e: Expr, policy: ZeroTestPolicy = ZeroTestPolicy()) -> ZeroVerdict:
    """The sampled verdict on the tree as it is, with no symbolic step.

    The tree is lowered to a straight-line program.  A rational-exact one
    (no sin/cos/exp) is sampled modulo the prime 2^61 - 1, `_run` running
    its residue copy (`_exact_sampler`): a nonzero residue is a witness, with
    no tolerance.  Sample coordinates come from a grid of 2^21 + 1 dyadic
    rationals, so a nonzero rational function of degree d vanishes at one
    sample with probability at most d / (2^21 + 1) (Schwartz-Zippel).  A
    sample whose residue cannot be formed (a denominator that is 0 mod the
    prime) is run in Fraction instead, and redrawn only where a denominator
    is exactly 0.  One Fraction run then confirms a zero verdict, since a
    polynomial whose coefficients are all multiples of the prime has zero
    residues everywhere.  A program with sin, cos or exp is evaluated in
    floats at the same points together with its rounding scale
    (`_magnitude`), and a sample is a witness where |value| > tolerance *
    scale.
    """
    code, kind, witness, last = _sampled(e, policy)
    if witness is None and kind == EXACT_SAMPLED and _run(code, last)[-1] != 0:
        witness = last
    return ZeroVerdict(True, kind) if witness is None else _witness(code, witness, kind)


# ---------------------------------------------------------------------------
# Compilation to plain Python (fast numeric paths)
# ---------------------------------------------------------------------------


# Python binding strength of each rendered node.  A child is parenthesised
# only where the grammar needs it, so the code parses to the same tree as a
# fully parenthesised rendering while nesting fewer brackets.
_PY_SUM, _PY_MUL, _PY_NEG, _PY_POW, _PY_ATOM = range(5)
_PY_CALLS = {_SIN: "_sin", _COS: "_cos", _EXP: "_exp"}
# The most operands of a sum or product that one statement writes: Python's
# compiler recurses once per operand of a chain, and fails near 3000.
_CHAIN = 256


def _py_number(v: float) -> tuple[str, int]:
    # +-inf (a rational past the float range) is a name the code's namespace defines
    return repr(v), _PY_NEG if v < 0 else _PY_ATOM


def render_components(
    exprs: Sequence[Expr], names: Mapping[str, str], prefix: str = "_t"
) -> tuple[list[str], list[str]]:
    """Straight-line Python for `exprs`: assignment statements, and the text of each value.

    `names` maps each variable to the Python text that holds it.  Each repeated
    subexpression other than a leaf is assigned once, in topological order, to a
    local named `prefix` plus its slot; the rest is written inline.  A sum or
    product of more than _CHAIN operands accumulates in that local, _CHAIN
    operands a statement.  The code is the float program (`_floats`) that
    `evaluate` interprets: the trees' operations in their order.
    """
    code, roots = _lower(exprs)
    code = _floats(code)
    uses = [0] * len(code)
    for op, arg in code:
        operands = (arg,) if op >= _NEG else arg[:1] if op == _POW else arg if op > _VAR else ()
        for c in operands:
            uses[c] += 1
    for r in roots:
        uses[r] += 1
    lines: list[str] = []
    text: list[tuple[str, int]] = []  # (code, binding strength) per slot

    def operand(slot: int, binding: int) -> str:
        rendered, strength = text[slot]
        return rendered if strength >= binding else f"({rendered})"

    for slot, (op, arg) in enumerate(code):
        if op == _CONST:
            out = _py_number(arg)
        elif op == _VAR:
            out = names[arg], _PY_ATOM
        elif op == _ADD or op == _MUL:
            sep, strength = (" + ", _PY_SUM) if op == _ADD else ("*", _PY_MUL)
            first, *rest = arg  # left-associative: only later operands bind tighter
            terms = [operand(first, strength), *(operand(c, strength + 1) for c in rest)]
            while len(terms) > _CHAIN:  # a local accumulates a long chain, in the same order
                lines.append(f"{prefix}{slot} = {sep.join(terms[:_CHAIN])}")
                terms[:_CHAIN] = [f"{prefix}{slot}"]
            out = sep.join(terms), strength
        elif op == _DIV:
            out = f"{operand(arg[0], _PY_MUL)}/{operand(arg[1], _PY_NEG)}", _PY_MUL
        elif op == _POW:
            out = f"{operand(arg[0], _PY_ATOM)}**{arg[1]}", _PY_POW
        elif op == _NEG:
            out = "-" + operand(arg, _PY_NEG), _PY_NEG
        else:
            out = f"{_PY_CALLS[op]}({text[arg][0]})", _PY_ATOM
        if uses[slot] > 1 and op > _VAR:
            lines.append(f"{prefix}{slot} = {out[0]}")
            out = f"{prefix}{slot}", _PY_ATOM
        text.append(out)
    return lines, [text[r][0] for r in roots]


def compile_function(params: Sequence[str], lines: Sequence[str]) -> Callable:
    """`_fn(_v)`: unpack the sequence `_v` into the locals `params`, then run `lines`,
    the last of which returns.  ValueError where Python cannot compile it."""
    unpack = [f"{', '.join(params)}, = _v"] if params else []
    src = "def _fn(_v):\n" + "".join(f"    {line}\n" for line in [*unpack, *lines])
    try:
        code = compile(src, "<compile_components>", "exec")
    except (SyntaxError, RecursionError, MemoryError):  # nesting beyond the compiler's limits
        raise ValueError(f"expression too large to compile ({len(src)} characters)") from None
    env = {
        "_sin": math.sin, "_cos": math.cos, "_exp": math.exp, "_isfinite": math.isfinite,
        "inf": math.inf,
    }
    exec(code, env)  # source is generated from our own AST only
    return env["_fn"]


def compile_components(
    exprs: Sequence[Expr], var_order: Sequence[str]
) -> Callable[[Sequence[float]], tuple[float, ...]]:
    """Compile expressions into one positional-vector function.

    The returned callable maps a sequence ordered like `var_order` to the
    tuple of expression values, as straight-line code (render_components).
    Division by zero raises ZeroDivisionError.
    """
    allowed = set(var_order)
    for e in exprs:
        extra = variables(e) - allowed
        if extra:
            raise ValueError(f"expression uses undeclared variables {sorted(extra)}")
    params = [f"_x{i}" for i in range(len(var_order))]
    lines, values = render_components(exprs, dict(zip(var_order, params)))
    return compile_function(params, [*lines, "return (" + "".join(f"{v}, " for v in values) + ")"])
