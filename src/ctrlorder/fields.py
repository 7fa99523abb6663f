"""Vector fields: Jacobians, Lie brackets, iterated brackets, zero tests.

The bracket convention is [a, b] = (Db)a - (Da)b, chosen so that along an
extremal d/dt<p, h(x)> = <p, [f, h] + sum_i u_i [g_i, h]> holds with the
adjoint dynamics p' = -(Df)^T p - sum_i u_i (Dg_i)^T p; the simulation module
checks that identity numerically.

A field holds only the rational normal forms of its components (see
`normal`), in a `Ring`: a field built from trees converts them at
construction, in a ring of its own, and keeps none of them, and `load`
converts a system's fields once, in one ring that its analyses share.
Brackets, sums, Jacobians and zero tests work on those forms; a field meeting
one of another ring is converted into it.  A field's components, and its
Jacobian's entries, are trees rendered from the forms when they are read, so
printing, validation and the integrator read what the brackets read.
"""

from __future__ import annotations

from functools import cached_property

from . import normal
from .expr import SYMBOLIC, ZERO_TEST_KINDS, Expr, ZeroTestPolicy, ZeroVerdict, const, parse
from .expr import to_text, variables
from .normal import Rat, Ring, diff_index


class DimensionMismatchError(ValueError):
    """Operands do not share state coordinates."""


class VectorField:
    """Ordered components over named state coordinates.

    `components` are expression trees rendered, on first read, from the
    normal forms that the field holds.
    """

    def __init__(self, state_names, components):
        names, comps = tuple(state_names), tuple(components)
        if len(comps) != len(names):
            raise DimensionMismatchError(f"{len(comps)} components for {len(names)} states")
        declared = set(names)
        if len(declared) < len(names):
            raise ValueError(f"duplicate state names in {names}")
        for i, comp in enumerate(comps):
            extra = variables(comp) - declared
            if extra:
                raise ValueError(f"component {i} uses undeclared variables {sorted(extra)}")
        ring = Ring(names)
        self.state_names, self._components = names, None
        self._normal = (ring, tuple(map(ring.convert, comps)), [None] * len(names))

    @classmethod
    def _of_normal(cls, state_names, ring: Ring, comps) -> "VectorField":
        """The field of normal forms in `ring`; its components render on first read."""
        field = cls.__new__(cls)
        field.state_names, field._components = tuple(state_names), None
        comps = tuple(comps)
        field._normal = (ring, comps, [None] * len(comps))
        return field

    @property
    def components(self) -> tuple[Expr, ...]:
        if self._components is None:
            self._components = tuple(map(normal.render, self._normal[1]))
        return self._components

    def _normal_in(self, ring: Ring | None = None) -> tuple:
        """(ring, normal forms, Jacobian columns, None until read) in `ring`, None
        meaning the field's own; a field of another ring moves into it,
        converting its components once."""
        if ring is not None and self._normal[0] is not ring:
            self._normal = (ring, tuple(map(ring.convert, self.components)), [None] * self.dim)
        return self._normal

    def _column(self, ring: Ring, j: int) -> tuple:
        """d(component_i)/d(state_j) for every i, in `ring`; computed on first read."""
        _, comps, columns = self._normal_in(ring)
        column = columns[j]
        if column is None:
            column = columns[j] = tuple(diff_index(c, j) for c in comps)
        return column

    def __reduce__(self):
        # rebuilt from its trees: a normal form belongs to its ring, which holds a lock
        return type(self), (self.state_names, self.components)

    def __eq__(self, other):
        if not isinstance(other, VectorField):
            return NotImplemented
        return self.state_names == other.state_names and self.components == other.components

    def __hash__(self) -> int:
        return hash((self.state_names, self.components))

    def __repr__(self) -> str:
        return f"VectorField(state_names={self.state_names!r}, components={self.components!r})"

    def __add__(self, other: "VectorField") -> "VectorField":
        return _combine(self, other, 1)

    def __sub__(self, other: "VectorField") -> "VectorField":
        return _combine(self, other, -1)

    @property
    def dim(self) -> int:
        return len(self.state_names)

    @cached_property
    def jacobian(self) -> tuple[tuple[Expr, ...], ...]:
        """Rows of trees, entry (i, j) = d(component_i)/d(state_j): the columns that
        brackets use, rendered once per field (what `simulate` compiles)."""
        ring = self._normal[0]
        columns = [tuple(map(normal.render, self._column(ring, j))) for j in range(self.dim)]
        return tuple(zip(*columns))

    @classmethod
    def from_strings(cls, state_names, texts) -> "VectorField":
        names = tuple(state_names)
        return cls(names, tuple(parse(t, names) for t in texts))

    @classmethod
    def zero(cls, state_names) -> "VectorField":
        names = tuple(state_names)
        return cls(names, tuple(const(0) for _ in names))

    def __str__(self) -> str:
        return "(" + ", ".join(to_text(c) for c in self.components) + ")"


def _require_same_space(a: VectorField, b: VectorField) -> None:
    if a.state_names != b.state_names:
        raise DimensionMismatchError(
            f"state coordinates differ: {a.state_names} vs {b.state_names}"
        )


def _combine(a: VectorField, b: VectorField, sign: int) -> VectorField:
    _require_same_space(a, b)
    ring = a._normal[0]
    na, nb = a._normal_in(ring)[1], b._normal_in(ring)[1]
    comps = [normal.add(x, y, sign) for x, y in zip(na, nb)]
    return VectorField._of_normal(a.state_names, ring, comps)


def lie_bracket(a: VectorField, b: VectorField) -> VectorField:
    """[a, b] = (Db)a - (Da)b, in normal form.  It reads column j of Db only where
    a_j != 0 and column j of Da only where b_j != 0 (each computed once per field
    and ring); a zero operand gives the zero field, which is exact by bilinearity."""
    _require_same_space(a, b)
    ring = b._normal[0]
    na, nb = a._normal_in(ring)[1], b._normal_in(ring)[1]
    if not any(c.num for c in na) or not any(c.num for c in nb):
        return VectorField._of_normal(a.state_names, ring, [Rat(ring, {})] * a.dim)
    da = [a._column(ring, j) if bj.num else None for j, bj in enumerate(nb)]
    db = [b._column(ring, j) if aj.num else None for j, aj in enumerate(na)]
    comps = [normal.lie_component(na, nb, da, db, i) for i in range(a.dim)]
    return VectorField._of_normal(a.state_names, ring, comps)


class BracketTable:
    """Brackets of one analysis: ad_f^k g_i memoised per input, grown on demand.

    Every field of the table lives in f's ring, which the g_i move into.
    """

    def __init__(self, f: VectorField, inputs) -> None:
        self.f, self.inputs = f, tuple(inputs)
        for g in self.inputs:
            _require_same_space(f, g)
            g._normal_in(f._normal[0])
        self._chains = [[g] for g in self.inputs]

    def ad(self, i: int, k: int) -> VectorField:
        """Iterated bracket: ad^0 = g_i, ad^k = [f, ad^(k-1)]."""
        if not isinstance(k, int) or k < 0:
            raise ValueError("bracket level must be an integer >= 0")
        chain = self._chains[i]
        while len(chain) <= k:
            chain.append(lie_bracket(self.f, chain[-1]))
        return chain[k]

    def b(self, i: int, j: int, k: int) -> VectorField:
        """The bracket field [g_j, ad_f^(k-1) g_i] behind B_k[i][j]."""
        return lie_bracket(self.inputs[j], self.ad(i, k - 1))


def vf_is_zero(h: VectorField, policy: ZeroTestPolicy = ZeroTestPolicy()) -> ZeroVerdict:
    """Zero iff every component's normal form is zero (normal.zero_verdict), of the
    weakest kind among theirs; else the first witnessing component's verdict, with
    that `component`."""
    kind = SYMBOLIC
    for i, comp in enumerate(h._normal[1]):
        if not comp.num:
            continue  # zero, symbolically: no seed to derive
        verdict = normal.zero_verdict(comp, policy.derive("component", i))
        if not verdict.is_zero:
            return verdict.replace(component=i)
        kind = max(kind, verdict.kind, key=ZERO_TEST_KINDS.index)
    return ZeroVerdict(True, kind)
