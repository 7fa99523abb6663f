"""Bracket fields in a rational normal form over algebraically independent atoms.

Each component is N prod_i p_i^-e_i.

- N is a sparse polynomial: a dict from a packed monomial (one exponent of
  `_BITS` bits per atom, so that multiplying two monomials adds two ints) to
  a nonzero rational coefficient (an int, or a Fraction that is not one).
  The atoms are the states, plus s = sin u and c = cos u, or E = exp u, for
  each distinct kernel argument u, and an atom P for each factor p_i whose
  power is too large, or too ill-conditioned, to expand (below); N is
  reduced by c^2 -> 1 - s^2, so no monomial holds c twice (`render` writes
  an even power of s back in c where that is far smaller).
- The p_i are the factor list of the component's `Ring`: the distinct
  denominators met while converting the input trees (made primitive, with
  monomial factors split into atoms), the bases of powers of sums, plus any
  that a kernel argument's derivative adds.  `den` holds the e_i, signed: a
  positive e_i puts p_i in the denominator, a negative one in the numerator,
  so that a power of a sum such as (x1 + x2)^1000 is not expanded.

The operations are sums, products and partial derivatives.  A derivative
changes exponents only by one:
(N D)' = N' D - sum_i e_i N p_i' D / p_i, D = prod_i p_i^-e_i,
with ds = c du, dc = -s du, dE = E du and dP = dp_i.  A sum brings its terms to the
larger exponent of each factor (the common factor of the terms); no gcd is
needed.  `cancel` divides out a denominator p_i that divides N exactly,
which only makes the form smaller; converted trees are cancelled, brackets
are not (differentiating N / p^e, p irreducible and not dividing N, never
makes p divide the new numerator).  Where a sum would expand a large power
of a sum, as in x1 + (x1 + x2 + x3 + x4)^1000, or one whose float value
the expansion would lose, as in x1 + (x1 + 1)^60, it writes P^1000 or P^60
instead, P an atom that stands for the sum; a product that would pair
more than `MAX_TERMS` terms raises `ExprError` rather than run unbounded,
and so does a power that folds past MAX_EXPONENT or a constant past
`_MAX_POWER_BITS` bits.

This is the package's one simplifier and differentiator: `simplify`, `diff`
and `is_zero` of a tree convert it in a ring over its variables, and
`render` turns a normal form back into a tree.

The zero decision (`zero_verdict`).  A component is zero iff N = 0 where the
atoms in N and in its numerator factors are algebraically independent over
Q(x) modulo c^2 + s^2 = 1; each p_i is a nonzero polynomial.  By Ax's
theorem (Ax, "On Schanuel's conjectures", Ann. Math. 1971), exp(u_1), ...,
exp(u_n) of rational functions are algebraically independent over C(x) when
the u_i are Q-linearly independent modulo constants; sin and cos are
exp(+-iu).  Every coefficient is rational (a decimal literal is the
rational it spells), so a verdict is `symbolic` when the kernel arguments
that N and its numerator factors use are kernel-free and, together with 1,
Q-linearly independent (trig arguments and exp arguments each), and no atom
P once those whose powers expand to at most `_EXPAND` terms are multiplied
out (`_unfold`).  Otherwise, sin x beside sin 2x or beside sin(x + 1), a
nested kernel or an atom P, it is the sampled test (`expr.sampled_is_zero`)
of the component's tree.  The package has no evaluator of normal forms: a nonzero
symbolic verdict takes its witness and value from that same sampled test of
its tree, relabelled `symbolic`, or, where the test finds no witness (a
nonzero form that vanishes at every sample), the last point that evaluated.
"""

from __future__ import annotations

import math
import threading
from fractions import Fraction
from functools import reduce
from operator import or_

from .expr import (
    MAX_EXPONENT,
    SYMBOLIC,
    Constant,
    Cos,
    DivisionByZeroError,
    Exp,
    Expr,
    ExprError,
    IntPower,
    Negate,
    Product,
    Quotient,
    Sin,
    Sum,
    Variable,
    ZeroTestPolicy,
    ZeroVerdict,
    _max_digits,
    _sampled,
    _sort_key,
    _to_float,
    _witness,
    sampled_is_zero,
    variables,
)

_BITS = 24  # bits per atom in a packed monomial
_SLOT = (1 << _BITS) - 1
# A product is formed only while every exponent is below 2^(_BITS - 2), so no
# slot carries into the next and the top bit of each slot stays clear.
_HIGH = _SLOT ^ ((1 << (_BITS - 2)) - 1)
_TOP = 1 << (_BITS - 1)
MAX_TERMS = 1 << 20  # the most term pairs one product forms
_EXPAND = 1 << 12  # the largest factor, or a power's coefficient sum, `Ring.product` expands
# Most bits that a folded constant power may reach; a float needs about 1100,
# so this only stops ((2^1000)^1000)^1000 and the like.
_MAX_POWER_BITS = 1 << 20


class Rat:
    """One component N prod p_i^-e_i of `ring`: `num` maps packed monomials to
    nonzero coefficients; `den` holds the signed e_i by factor, trailing zeros
    trimmed."""

    __slots__ = ("ring", "num", "den")

    def __init__(self, ring: "Ring", num: dict, den: tuple = ()):
        self.ring, self.num, self.den = ring, num, den if num else ()


class _Kernel:
    """sin/cos (slots s, c) or exp (slot E) of one argument u, or (`trig` None)
    an atom P (slot P) that stands for the factor u = p_i itself; with u's
    partials."""

    __slots__ = ("trig", "arg", "slots", "partials")

    def __init__(self, trig: bool, arg: Rat, slots: tuple[int, ...]):
        self.trig, self.arg, self.slots = trig, arg, slots
        self.partials: dict[int, Rat] = {}


class Ring:
    """The atoms and denominator factors that the normal forms of one analysis share.

    Both lists only grow: converting a tree adds what it needs, and a form
    built earlier keeps its meaning, since new atoms take new slots and new
    factors new indices.  Registration holds a lock; everything else only
    reads the lists or fills caches whose entries do not depend on timing.
    """

    def __init__(self, state_names):
        self.names = tuple(state_names)
        self.index = {name: j for j, name in enumerate(self.names)}
        self._lock = threading.RLock()
        self.atoms: list[Expr] = []  # the tree of each slot's atom
        self.kernels: list[_Kernel] = []
        self._kernel_of: dict = {}
        self.kernel_of_slot: dict[int, _Kernel] = {}
        self.factors: list[dict] = []
        self._factor_of: dict = {}
        self._factor_trees: dict[int, Expr] = {}
        self._factor_partials: dict[tuple[int, int], Rat] = {}
        self._products: dict[tuple, dict] = {}
        self._powers: dict[tuple[Expr, int], Expr] = {}
        self._independent: dict[tuple, bool] = {}
        self._factor_atoms: dict[int, _Kernel] = {}
        self.pairs: list[tuple[int, int]] = []  # (s shift, c shift) per trig kernel
        self.cmask = 0  # the bits of every c exponent >= 2
        self.high = 0  # the bits of every exponent >= 2^(_BITS - 2)
        self.top = 0  # the top bit of every slot
        for name in self.names:
            self._atom(Variable(name))

    # -- registration -------------------------------------------------------

    def _atom(self, tree: Expr) -> int:
        slot = len(self.atoms)
        self.atoms.append(tree)
        self.high |= _HIGH << (slot * _BITS)
        self.top |= _TOP << (slot * _BITS)
        return slot

    def _kernel(self, node: Expr, arg: Rat) -> _Kernel:
        trig = not isinstance(node, Exp)
        key = (trig, frozenset(arg.num.items()), arg.den)
        with self._lock:
            kernel = self._kernel_of.get(key)
            if kernel is None:
                u = render(arg)
                if trig:
                    s, c = self._atom(Sin(u)), self._atom(Cos(u))
                    kernel = _Kernel(True, arg, (s, c))
                    self.pairs.append((s * _BITS, c * _BITS))
                    self.cmask |= (_SLOT ^ 1) << (c * _BITS)
                else:
                    kernel = _Kernel(False, arg, (self._atom(Exp(u)),))
                for slot in kernel.slots:
                    self.kernel_of_slot[slot] = kernel
                self.kernels.append(kernel)
                self._kernel_of[key] = kernel
        return kernel

    def _factor_atom(self, i: int) -> int:
        """The slot of the atom P that stands for p_i (see `product`)."""
        with self._lock:
            kernel = self._factor_atoms.get(i)
            if kernel is None:
                slot = self._atom(self.factor_tree(i))
                kernel = _Kernel(None, Rat(self, self.factors[i]), (slot,))
                self.kernel_of_slot[slot] = self._factor_atoms[i] = kernel
                self.kernels.append(kernel)
        return kernel.slots[0]

    def _factor(self, p: dict) -> int:
        key = frozenset(p.items())
        with self._lock:
            index = self._factor_of.get(key)
            if index is None:
                index = self._factor_of[key] = len(self.factors)
                self.factors.append(p)
        return index

    # -- cached derived values -----------------------------------------------

    def product(self, gap: tuple, atoms: bool = True) -> dict:
        """prod p_i^gap_i, expanded; but a factor p_i of more than `_EXPAND`
        terms, or a power p_i^k, k > 1, whose coefficients may sum past
        `_EXPAND` (they sum to at most l1^k, l1 the sum of p_i's |coefficients|)
        is kept as P^k of the atom P that stands for p_i, or, where `atoms` is
        false, expanded up to `MAX_TERMS` terms.  A float evaluation of an
        expanded power errs by up to that sum times the rounding unit, also
        where the power is near 0: x1 + (x1 + 1)^60, expanded, is 1.1 at
        x1 = -0.9."""
        out = self._products.get((gap, atoms))
        if out is None:
            out, atom = {0: 1}, 0
            for i, k in enumerate(gap):
                p = self.factors[i]
                if not atoms:
                    expand = math.comb(len(p) + k - 1, k) <= MAX_TERMS
                elif k > 1:
                    expand = k * math.log2(sum(map(abs, p.values()))) <= math.log2(_EXPAND)
                else:
                    expand = len(p) <= _EXPAND
                if expand:
                    for _ in range(k):
                        out = _pmul(self, out, p)
                elif atoms and not k >> (_BITS - 2):
                    atom += k << (self._factor_atom(i) * _BITS)
                else:
                    raise ExprError(f"a power of a sum expands past {MAX_TERMS} terms")
            if atom:
                out = {m + atom: c for m, c in out.items()}
            self._products[(gap, atoms)] = out
        return out

    def factor_partial(self, i: int, j: int) -> Rat:
        out = self._factor_partials.get((i, j))
        if out is None:
            out = self._factor_partials[(i, j)] = _dpoly(self, self.factors[i], j)
        return out

    def kernel_partial(self, kernel: _Kernel, j: int) -> Rat:
        out = kernel.partials.get(j)
        if out is None:
            out = kernel.partials[j] = diff_index(kernel.arg, j)
        return out

    def power(self, base: Expr, k: int) -> Expr:
        """base^k of an atom's or a factor's tree."""
        out = self._powers.get((base, k))
        if out is None:
            out = self._powers[(base, k)] = base if k == 1 else IntPower(base, k)
        return out

    def factor_tree(self, i: int) -> Expr:
        out = self._factor_trees.get(i)
        if out is None:
            out = self._factor_trees[i] = _render_poly(self, self.factors[i], {})
        return out

    # -- trees to normal forms -----------------------------------------------

    def convert(self, e: Expr) -> Rat:
        """The normal form of a tree, cancelled; a shared subtree is converted once."""
        memo: dict[int, Rat] = {}

        def conv(node: Expr) -> Rat:
            out = memo.get(id(node))
            if out is not None:
                return out
            t = type(node)
            if t is Constant:
                v = node.value
                out = Rat(self, {0: v.numerator if v.denominator == 1 else v} if v else {})
            elif t is Variable:
                out = Rat(self, {1 << (self.index[node.name] * _BITS): 1})
            elif t is Negate:
                out = scale(conv(node.child), -1)
            elif t is Sum:
                out = total([conv(c) for c in node.children])
            elif t is Product:
                out = reduce(mul, map(conv, node.children))
            elif t is IntPower:
                out = power(conv(node.base), node.exponent)
            elif t is Quotient:
                out = mul(conv(node.numerator), inverse(node.denominator))
            elif t in (Sin, Cos, Exp):
                arg = cancel(conv(node.child))
                if not arg.num:  # sin(0) = 0, cos(0) = exp(0) = 1
                    out = Rat(self, {} if t is Sin else {0: 1})
                else:
                    kernel = self._kernel(node, arg)
                    slot = kernel.slots[1] if t is Cos else kernel.slots[0]
                    out = Rat(self, {1 << (slot * _BITS): 1})
            else:
                raise TypeError(f"not an expression node: {node!r}")
            memo[id(node)] = out
            return out

        def inverse(node: Expr) -> Rat:
            """1/node, with the structure of a product or power kept as factors."""
            t = type(node)
            if t is Product:
                return reduce(mul, map(inverse, node.children))
            if t is IntPower:
                return power(inverse(node.base), node.exponent)
            if t is Negate:
                return scale(inverse(node.child), -1)
            if t is Quotient:
                return mul(conv(node.denominator), inverse(node.numerator))
            out = conv(node)
            if not out.num:
                raise DivisionByZeroError(node)
            return self._reciprocal(out)

        with self._lock:
            return cancel(conv(e))

    def _reciprocal(self, a: Rat) -> Rat:
        """1/a: N's monomial content becomes atom factors, and the rest one
        primitive factor; a's numerator factors move to the denominator, and
        its denominator is multiplied out."""
        n = a.num
        content = _monomial_gcd(n)
        rest = {m - content: c for m, c in n.items()} if content else n
        den = [max(-e, 0) for e in a.den]
        m, slot = content, 0
        while m:
            k = m & _SLOT
            if k:
                _bump(den, self._factor({1 << (slot * _BITS): 1}), k)
            m >>= _BITS
            slot += 1
        if len(rest) == 1:
            coeff = rest[0]
        else:
            coeff, primitive = _primitive(rest)
            _bump(den, self._factor(primitive), 1)
        top = self.product(_trim(max(e, 0) for e in a.den))
        return Rat(self, {m: _quotient(c, coeff) for m, c in top.items()}, _trim(den))


# ---------------------------------------------------------------------------
# Polynomials (dicts) and exponent tuples
# ---------------------------------------------------------------------------


def _trim(den) -> tuple:
    den = list(den)
    while den and not den[-1]:
        den.pop()
    return tuple(den)


def _bump(den: list, i: int, k: int) -> None:
    den.extend([0] * (i + 1 - len(den)))
    den[i] += k


def _den_max(dens) -> tuple:
    width = max(map(len, dens), default=0)
    return tuple(max(d[i] if i < len(d) else 0 for d in dens) for i in range(width))


def _gap(top: tuple, den: tuple) -> tuple:
    """top - den, by factor; top is at least den everywhere."""
    width = max(len(top), len(den))
    top, den = top + (0,) * (width - len(top)), den + (0,) * (width - len(den))
    return _trim(t - d for t, d in zip(top, den))


def _den_add(a: tuple, b: tuple) -> tuple:
    if not a or not b:
        return a or b
    if len(a) < len(b):
        a, b = b, a
    return _trim([x + y for x, y in zip(a, b)] + list(a[len(b) :]))


def _unit(i: int, e: int) -> tuple:
    """The exponent tuple of p_i^-e."""
    return (0,) * i + (e,)


def _quotient(c, d):
    """c/d, an int where it divides exactly."""
    if isinstance(c, int) and isinstance(d, int):
        q, r = divmod(c, d)
        return q if not r else Fraction(c, d)
    out = c / d
    return out.numerator if out.denominator == 1 else out


def _monomial_gcd(p: dict) -> int:
    """The packed monomial of the smallest exponent of each atom over p."""
    keys = iter(p)
    g = next(keys)
    for m in keys:
        if not g:
            break
        out, shift, a, b = 0, 0, g, m
        while a and b:
            out |= min(a & _SLOT, b & _SLOT) << shift
            a >>= _BITS
            b >>= _BITS
            shift += _BITS
        g = out
    return g


def _primitive(p: dict) -> tuple:
    """(k, q) with p = k q, q's coefficients coprime integers and its leading one
    positive."""
    lcm = 1
    for c in p.values():
        lcm = lcm * c.denominator // math.gcd(lcm, c.denominator)
    ints = {m: int(c * lcm) for m, c in p.items()}
    g = reduce(math.gcd, ints.values())
    if ints[max(ints)] < 0:
        g = -g
    return _quotient(g, lcm), {m: c // g for m, c in ints.items()}


def _padd(acc: dict, p: dict) -> None:
    get = acc.get
    for m, c in p.items():
        acc[m] = get(m, 0) + c


def _nonzero(p: dict) -> dict:
    return {m: c for m, c in p.items() if c}


def _check_pairs(ring: Ring, p: dict, q: dict) -> None:
    """ExprError where the product p q would carry an exponent out of its slot, or
    pair more than `MAX_TERMS` terms."""
    if (reduce(or_, p) | reduce(or_, q)) & ring.high:
        raise ExprError(f"an exponent reaches 2^{_BITS - 2}")
    if len(p) * len(q) > MAX_TERMS:
        raise ExprError(f"a product pairs more than {MAX_TERMS} terms")


def _pmul(ring: Ring, p: dict, q: dict, zeros: bool = False) -> dict:
    """p q, its keys in the order q's terms times p's; the entries that cancel
    inside the product are dropped unless `zeros` (for a caller that skips them
    as it adds the product into a sum, `_add_product`)."""
    if not p or not q:
        return {}
    if len(p) == 1 and 0 in p:
        c = p[0]
        return q if c == 1 else _nonzero({m: c * x for m, x in q.items()})
    if len(q) == 1 and 0 in q:
        return _pmul(ring, q, p)
    _check_pairs(ring, p, q)
    out: dict = {}
    get = out.get
    for mq, cq in q.items():
        for mp, cp in p.items():
            m = mp + mq
            out[m] = get(m, 0) + cp * cq
    if ring.cmask:
        _reduce_cos(ring, out)
    return out if zeros else _nonzero(out)


def _reduce_cos(ring: Ring, p: dict) -> None:
    """Rewrite, in place, every c^k with k >= 2 as c^(k mod 2) (1 - s^2)^(k div 2)."""
    for m in [m for m in p if m & ring.cmask]:
        terms = {m: p.pop(m)}
        for s_shift, c_shift in ring.pairs:
            terms = _squares(terms, c_shift, s_shift)
        _padd(p, terms)


def _squares(terms: dict, src: int, dst: int) -> dict:
    """terms with each a^k written a^(k mod 2) (1 - b^2)^(k div 2), a and b the
    atoms at shifts `src` and `dst` (the sine and cosine of one kernel)."""
    out: dict = {}
    for mono, coeff in terms.items():
        half = ((mono >> src) & _SLOT) >> 1
        base = mono - ((2 * half) << src)
        binom = 1
        for j in range(half + 1):  # sum_j C(half, j) (-b^2)^j
            key = base + ((2 * j) << dst)
            out[key] = out.get(key, 0) + (coeff * binom if j % 2 == 0 else -coeff * binom)
            binom = binom * (half - j) // (j + 1)
    return out


def _pdiv(ring: Ring, n: dict, p: dict) -> dict | None:
    """n / p where p divides n exactly, else None (lex order on packed monomials)."""
    lead = max(p)
    lc = p[lead]
    top = ring.top
    r = dict(n)
    q: dict = {}
    while r:
        m = max(r)
        d = (m | top) - lead  # no slot borrows: each keeps its top bit iff it divides
        if d & top != top:
            return None
        d -= top
        c = q[d] = _quotient(r.pop(m), lc)
        for mp, cp in p.items():
            if mp == lead:
                continue
            key = d + mp
            v = r.get(key, 0) - c * cp
            if v:
                r[key] = v
            else:
                r.pop(key, None)
    return q


# ---------------------------------------------------------------------------
# Operations on normal forms
# ---------------------------------------------------------------------------


def scale(a: Rat, k) -> Rat:
    return Rat(a.ring, {m: c * k for m, c in a.num.items()}, a.den) if k else Rat(a.ring, {})


def mul(a: Rat, b: Rat) -> Rat:
    if not a.num or not b.num:
        return Rat(a.ring, {})
    return Rat(a.ring, _pmul(a.ring, a.num, b.num), _den_add(a.den, b.den))


def power(a: Rat, k: int) -> Rat:
    """a^k, k >= 1.  A sum is not expanded: its primitive part becomes a
    numerator factor.  ExprError where a power of a power, as in (x1^1000)^2,
    folds an exponent past MAX_EXPONENT, or a rational coefficient past
    `_MAX_POWER_BITS` bits.  (A first power keeps its exponent, so that the
    tree of a bracket, which can hold (x1 + x2)^3996, converts back.)"""
    ring, num, den = a.ring, a.num, a.den
    if len(num) > 1:
        content = _monomial_gcd(num)
        coeff, base = _primitive({m - content: c for m, c in num.items()})
        num, den = {content: coeff}, _den_add(den, _unit(ring._factor(base), -1))
    if not num:
        return a
    ((m, c),) = num.items()
    top, rest = max(map(abs, den), default=0), m
    while rest:
        top, rest = max(top, rest & _SLOT), rest >> _BITS
    if top > 1 and top * k > MAX_EXPONENT:
        raise ExprError(f"a power folds to an exponent larger than {MAX_EXPONENT}")
    if top * k >> (_BITS - 2):
        raise ExprError(f"an exponent reaches 2^{_BITS - 2}")
    if k * max(c.numerator.bit_length(), c.denominator.bit_length()) > _MAX_POWER_BITS:
        raise ExprError(f"a constant power folds past {_MAX_POWER_BITS} bits")
    num = {m * k: c**k}
    if m * k & ring.cmask:
        _reduce_cos(ring, num)
        num = _nonzero(num)
    return Rat(ring, num, tuple(e * k for e in den))


def total(terms) -> Rat:
    """The sum, over the larger exponent of each factor; terms with one
    denominator are added before any is multiplied up."""
    groups: dict[tuple, dict] = {}
    ring = None
    for t in terms:
        ring = t.ring
        if not t.num:
            continue
        acc = groups.get(t.den)
        if acc is None:
            groups[t.den] = dict(t.num)
        else:
            _padd(acc, t.num)
    return _collect(ring, groups)


def _collect(ring: Ring, groups: dict) -> Rat:
    """The sum of numerators by denominator, zero entries dropped, over the larger
    exponent of each factor."""
    groups = {d: n for d, n in ((d, _nonzero(n)) for d, n in groups.items()) if n}
    if not groups:
        return Rat(ring, {})
    if len(groups) == 1:
        (den, num), = groups.items()
        return Rat(ring, num, den)
    top = _den_max(groups)
    out: dict = {}
    for den, num in groups.items():
        gap = _gap(top, den)
        _padd(out, _pmul(ring, num, ring.product(gap)) if gap else num)
    return Rat(ring, _nonzero(out), _trim(top))


def add(a: Rat, b: Rat, sign: int = 1) -> Rat:
    return total([a, scale(b, sign) if sign != 1 else b])


def cancel(a: Rat) -> Rat:
    """a with every denominator factor that divides its numerator exactly divided
    out."""
    if not a.den:
        return a
    ring, num, den = a.ring, a.num, list(a.den)
    for i, e in enumerate(den):
        while e > 0:
            q = _pdiv(ring, num, ring.factors[i])
            if q is None:
                break
            num, e = q, e - 1
        den[i] = e
    return Rat(ring, num, _trim(den))


def _dpoly(ring: Ring, n: dict, j: int) -> Rat:
    """d n / d x_j of a polynomial in the atoms."""
    shift = j * _BITS
    unit = 1 << shift
    terms = [Rat(ring, {m - unit: c * k for m, c in n.items() if (k := (m >> shift) & _SLOT)})]
    if not ring.kernels:
        return terms[0]
    used = reduce(or_, n, 0)
    for kernel in ring.kernels:
        if not any((used >> (slot * _BITS)) & _SLOT for slot in kernel.slots):
            continue
        du = ring.kernel_partial(kernel, j)
        if not du.num:
            continue
        out: dict = {}
        if kernel.trig:
            s_shift, c_shift = (slot * _BITS for slot in kernel.slots)
            swap = (1 << c_shift) - (1 << s_shift)
            for m, c in n.items():
                k = (m >> s_shift) & _SLOT
                if k:  # d s = c du
                    out[m + swap] = out.get(m + swap, 0) + c * k
                k = (m >> c_shift) & _SLOT
                if k:  # d c = -s du
                    out[m - swap] = out.get(m - swap, 0) - c * k
            _reduce_cos(ring, out)
        else:
            e_shift = kernel.slots[0] * _BITS
            unit = 0 if kernel.trig is False else 1 << e_shift
            for m, c in n.items():
                k = (m >> e_shift) & _SLOT
                if k:  # d E = E du, d P = du
                    out[m - unit] = c * k
        terms.append(mul(Rat(ring, _nonzero(out)), du))
    return terms[0] if len(terms) == 1 else total(terms)


def diff_index(a: Rat, j: int) -> Rat:
    """d a / d x_j, the j-th state of a's ring: N' D - sum_i e_i N p_i' D / p_i,
    each term added into its denominator's sum (`_add_product`) in that order."""
    ring = a.ring
    da = _dpoly(ring, a.num, j) if a.num else a
    if not a.den:
        return da
    groups: dict[tuple, dict] = {}
    _add_product(groups, da, Rat(ring, {0: 1}, a.den), 1)
    for i, e in enumerate(a.den):
        if not e:
            continue
        dp = ring.factor_partial(i, j)
        if dp.num:
            _add_product(groups, a, Rat(ring, dp.num, _den_add(dp.den, _unit(i, 1))), -e)
    return _collect(ring, groups)


def lie_component(a, b, da, db, i: int) -> Rat:
    """Component i of [a, b] = (Db) a - (Da) b, from the components and the
    Jacobians' columns (column j of Db is read only where a_j != 0, column j of
    Da only where b_j != 0), summed in the order sum_j (Db)_ij a_j - (Da)_ij b_j;
    each product is added into its denominator's sum as it is formed."""
    groups: dict[tuple, dict] = {}
    for j, (aj, bj) in enumerate(zip(a, b)):
        if aj.num:
            _add_product(groups, db[j][i], aj, 1)
        if bj.num:
            _add_product(groups, da[j][i], bj, -1)
    return _collect(a[0].ring, groups)


def _add_product(groups: dict, x: Rat, y: Rat, sign: int) -> None:
    """groups[den] += sign x y, den the product's denominator.

    Where one factor is a monomial, the other's terms are multiplied as they
    are added, and no product dict is built: a constant in any ring, any
    monomial in a ring without cosines (elsewhere a product can make a c^2 for
    `_reduce_cos`).  Any other product is formed by `_pmul`, and the entries that
    cancel inside it are skipped as it is added.  Either way the keys reach the
    sum in `_pmul`'s order (no two terms of a monomial times a polynomial share
    a monomial) with the same values, so the sum equals `total` of the
    products, key order included: `test_brackets_equal_the_full_jacobian_sum`
    and `test_diff_index_equals_the_quotient_rule_summed_term_by_term` pin
    it."""
    p, q = x.num, y.num
    if not p or not q:
        return
    ring = x.ring
    cmask = ring.cmask
    if len(q) == 1 and (not cmask or 0 in q):
        p, q = q, p
    den = _den_add(x.den, y.den)
    acc = groups.get(den) or {}  # a new group joins `groups` once it holds a term
    get = acc.get
    if len(p) == 1 and (not cmask or 0 in p):
        ((m, c),) = p.items()
        if m:
            _check_pairs(ring, p, q)
        c *= sign
        for k, v in q.items():
            k += m
            acc[k] = get(k, 0) + c * v
    else:
        for k, v in _pmul(ring, p, q, zeros=True).items():
            if v:
                acc[k] = get(k, 0) + sign * v
    if acc:
        groups[den] = acc


# ---------------------------------------------------------------------------
# Normal forms to trees
# ---------------------------------------------------------------------------


def _in_cosines(ring: Ring, p: dict) -> dict:
    """p, with the terms that differ only in an even power of s written in c
    (`_squares`) where the sum of their |coefficients| is more than `_EXPAND`
    times smaller so (the sum bounds a float evaluation's error, as |s|, |c| <=
    1): c^2 -> 1 - s^2 turns cos(u)^200 into 101 terms of up to C(100, 50),
    and this turns them back."""
    for s_shift, c_shift in ring.pairs:
        even = (_SLOT ^ 1) << s_shift
        if not any(m & even for m in p):
            continue
        groups: dict[int, dict] = {}
        for m, c in p.items():
            groups.setdefault(m & ~even, {})[m] = c
        p = {}
        for q in groups.values():
            r = _nonzero(_squares(q, s_shift, c_shift))
            p.update(r if sum(map(abs, r.values())) * _EXPAND < sum(map(abs, q.values())) else q)
    return p


def _render_poly(ring: Ring, p: dict, extra: dict) -> Expr:
    """The polynomial times the powers `extra` (base tree -> exponent), collected:
    cores sorted by their sort key, each with its coefficient in front, the
    constant term last.  An atom P joins the power of the sum it stands for;
    even powers of a sine are written in its cosine where that is smaller
    (`_in_cosines`)."""
    cores = []
    constant = 0
    if ring.pairs:
        p = _in_cosines(ring, p)
    for m, c in p.items():
        powers, slot = dict(extra), 0
        while m:
            k = m & _SLOT
            if k:
                base = ring.atoms[slot]
                powers[base] = powers.get(base, 0) + k
            m >>= _BITS
            slot += 1
        if not powers:
            constant = c
            continue
        factors = [ring.power(base, k) for base, k in powers.items()]
        if len(factors) == 1:
            core = factors[0]
        else:
            factors.sort(key=_sort_key)
            core = Product(tuple(factors))
        cores.append((_sort_key(core), core, c))
    cores.sort(key=lambda t: t[0])
    terms = []
    for _, core, c in cores:
        if c == 1:
            terms.append(core)
        else:
            rest = core.children if isinstance(core, Product) else (core,)
            terms.append(Product((Constant(c), *rest)))
    if constant:
        terms.append(Constant(constant))
    if not terms:
        return Constant(0)
    return terms[0] if len(terms) == 1 else Sum(tuple(terms))


def render(a: Rat) -> Expr:
    """The tree of N prod p_i^-e_i: N times its numerator factor powers,
    collected, over the sorted denominator factor powers."""
    ring = a.ring
    num = _render_poly(ring, a.num, {ring.factor_tree(i): -e for i, e in enumerate(a.den) if e < 0})
    factors = [ring.power(ring.factor_tree(i), e) for i, e in enumerate(a.den) if e > 0]
    factors.sort(key=_sort_key)
    if not factors:
        return num
    den = factors[0] if len(factors) == 1 else Product(tuple(factors))
    return Quotient(num, den)


# ---------------------------------------------------------------------------
# The zero decision
# ---------------------------------------------------------------------------


def decides(a: Rat) -> bool:
    """True when N = 0 decides whether `a` is zero (see the module docstring)."""
    if not a.num:
        return True
    ring = a.ring
    polys = [a.num, *(ring.factors[i] for i, e in enumerate(a.den) if e < 0)]
    used = reduce(or_, (m for p in polys for m in p))
    kernels = {
        id(k): k
        for slot, k in ring.kernel_of_slot.items()
        if (used >> (slot * _BITS)) & _SLOT
    }
    for k in kernels.values():
        if k.trig is None:
            return False  # an atom that stands for a polynomial
        if reduce(or_, (m for p in _polys(k.arg) for m in p), 0) >> (len(ring.names) * _BITS):
            return False  # a nested kernel
    for trig in (True, False):
        group = tuple(sorted(i for i, k in kernels.items() if k.trig is trig))
        if group and not _independent(ring, group, [kernels[i] for i in group]):
            return False
    return True


def _polys(a: Rat) -> list[dict]:
    """N and the factors of a's numerator and denominator."""
    return [a.num, *(a.ring.factors[i] for i, e in enumerate(a.den) if e)]


def _independent(ring: Ring, key: tuple, kernels) -> bool:
    """Whether the kernels' arguments and 1 are linearly independent over Q
    (each multiplied by one common polynomial, so that all are polynomials)."""
    out = ring._independent.get(key)
    if out is None:
        top = tuple(max(e, 0) for e in _den_max([k.arg.den for k in kernels]))
        vectors = [
            _pmul(ring, k.arg.num, ring.product(_gap(top, k.arg.den), False)) for k in kernels
        ]
        vectors.append(ring.product(_trim(top), False))
        out = ring._independent[key] = _rank(vectors) == len(vectors)
    return out


def _rank(vectors) -> int:
    """Rank over Q of sparse vectors (dicts), by elimination in Fractions."""
    basis: list[tuple[int, dict]] = []
    for v in vectors:
        v = {m: Fraction(c) for m, c in v.items()}
        for pivot, b in basis:
            c = v.get(pivot)
            if c:
                for m, x in b.items():
                    y = v.get(m, 0) - c * x
                    if y:
                        v[m] = y
                    else:
                        v.pop(m, None)
        if v:
            pivot = max(v)
            lead = v[pivot]
            basis.append((pivot, {m: c / lead for m, c in v.items()}))
    return len(basis)


def zero_verdict(a: Rat, policy: ZeroTestPolicy = ZeroTestPolicy()) -> ZeroVerdict:
    """The verdict on one normal form: N = 0 where that decides, with a nonzero
    verdict's witness from the sampled test of its tree (the last point that
    evaluated where that test finds none); else the sampled test itself."""
    n = _unfold(a)
    if not n.num:
        return ZeroVerdict(True, SYMBOLIC)
    if not decides(n):
        return sampled_is_zero(render(a), policy)
    code, _, _, last = _sampled(render(a), policy)
    return _witness(code, last, SYMBOLIC)


def _unfold(a: Rat) -> Rat:
    """a with each atom P that `Ring.product` kept for its powers' coefficient
    sums, not their size (every power of it in N has at most `_EXPAND` terms),
    multiplied out: the N whose zero decides as if P had never stood in."""
    ring, num = a.ring, a.num
    for i, kernel in list(ring._factor_atoms.items()):
        shift, n = kernel.slots[0] * _BITS, len(ring.factors[i])
        top = max(((m >> shift) & _SLOT for m in num), default=0)
        if not top or math.comb(n + top - 1, top) > _EXPAND:
            continue
        out: dict = {}
        for m, c in num.items():
            k = (m >> shift) & _SLOT
            _padd(out, _pmul(ring, {m - (k << shift): c}, ring.product(_unit(i, k), False)))
        num = _nonzero(out)
    return Rat(ring, num, a.den)


# ---------------------------------------------------------------------------
# Trees: simplify, differentiate, test for zero, check a loaded input
# ---------------------------------------------------------------------------


def _ring_over(e: Expr, *names: str) -> Ring:
    return Ring(sorted(variables(e).union(names)))


def simplify(e: Expr) -> Expr:
    """The tree of e's normal form: constants folded, polynomials expanded and
    collected, cos^2 written 1 - sin^2, common factors cancelled."""
    return render(_ring_over(e).convert(e))


def diff(e: Expr, var: str) -> Expr:
    """Exact partial derivative with respect to `var`, as the tree of its normal form."""
    ring = _ring_over(e, var)
    return render(diff_index(ring.convert(e), ring.index[var]))


def is_zero(e: Expr, policy: ZeroTestPolicy = ZeroTestPolicy()) -> ZeroVerdict:
    """The verdict on a tree: that on its normal form (`zero_verdict`)."""
    return zero_verdict(_ring_over(e).convert(e), policy)


def _closure(a: Rat) -> list[Rat]:
    """The forms that a's tree holds: a and the arguments of its kernels, theirs
    included."""
    seen, todo, forms = set(), [a], []
    while todo:
        form = todo.pop()
        forms.append(form)
        used = reduce(or_, (m for p in _polys(form) for m in p), 0)
        for slot, kernel in a.ring.kernel_of_slot.items():
            if (used >> (slot * _BITS)) & _SLOT and kernel not in seen:
                seen.add(kernel)
                todo.append(kernel.arg)
    return forms


def check_input(a: Rat) -> None:
    """ExprError unless every coefficient of a's tree, kernel arguments and
    factors included, is a rational within the float range whose numerator
    and denominator print (have at most `_max_digits()` digits), and every
    exponent, of an atom or a factor, is at most MAX_EXPONENT."""
    forms = _closure(a)
    polys = [p for form in forms for p in _polys(form)]
    if not all(math.isfinite(_to_float(c)) for p in polys for c in p.values()):
        raise ExprError("a constant folds to a value that is not a finite float")
    digits = _max_digits()
    # 8^digits < 10^digits, so an int of at most 3*digits bits is short enough
    if any(
        n.bit_length() > 3 * digits and n >= 10**digits
        for p in polys for c in p.values() for n in (abs(c.numerator), c.denominator)
    ):
        raise ExprError(f"a constant folds to a rational of more than {digits} digits")
    # Each exponent is below 2^(_BITS - 1) (see `_pmul`), so adding the bias
    # to every slot carries into the slot's two high bits exactly where the
    # exponent exceeds MAX_EXPONENT.
    high = a.ring.high
    bias = ((1 << (_BITS - 2)) - 1 - MAX_EXPONENT) * (high // _HIGH)
    if any(abs(e) > MAX_EXPONENT for form in forms for e in form.den) or any(
        (m + bias) & high for p in polys for m in p
    ):
        raise ExprError(f"a power folds to an exponent larger than {MAX_EXPONENT}")
