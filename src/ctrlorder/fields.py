"""Vector fields as expression vectors: Jacobians, Lie brackets, iterated brackets.

The bracket convention is [a, b] = (Db)a - (Da)b, chosen so that along an
extremal d/dt<p, h(x)> = <p, [f, h] + sum_i u_i [g_i, h]> holds with the
adjoint dynamics p' = -(Df)^T p - sum_i u_i (Dg_i)^T p; the simulation module
checks that identity numerically.
"""

from __future__ import annotations

from dataclasses import dataclass

from .expr import (
    Expr,
    ZeroTestPolicy,
    ZeroVerdict,
    _simp_product,
    _simp_sum,
    const,
    diff,
    is_zero,
    parse,
    simplify,
    to_text,
    variables,
)


class DimensionMismatchError(ValueError):
    """Operands do not share state coordinates."""


@dataclass(frozen=True)
class VectorField:
    """Ordered expression components over named state coordinates."""

    state_names: tuple[str, ...]
    components: tuple[Expr, ...]

    def __post_init__(self):
        object.__setattr__(self, "state_names", tuple(self.state_names))
        object.__setattr__(self, "components", tuple(self.components))
        if len(self.components) != len(self.state_names):
            raise DimensionMismatchError(
                f"{len(self.components)} components for {len(self.state_names)} states"
            )
        declared = set(self.state_names)
        for i, comp in enumerate(self.components):
            extra = variables(comp) - declared
            if extra:
                raise ValueError(
                    f"component {i} uses undeclared variables {sorted(extra)}"
                )

    @property
    def dim(self) -> int:
        return len(self.state_names)

    @classmethod
    def from_strings(cls, state_names, texts) -> "VectorField":
        names = tuple(state_names)
        return cls(names, tuple(parse(t, names) for t in texts))

    @classmethod
    def zero(cls, state_names) -> "VectorField":
        names = tuple(state_names)
        return cls(names, tuple(const(0) for _ in names))

    def simplified(self) -> "VectorField":
        return VectorField(self.state_names, tuple(simplify(c) for c in self.components))

    def __str__(self) -> str:
        return "(" + ", ".join(to_text(c) for c in self.components) + ")"


@dataclass(frozen=True)
class ExprMatrix:
    """Rectangular grid of expressions (rows x cols)."""

    rows: tuple[tuple[Expr, ...], ...]

    def __post_init__(self):
        rows = tuple(tuple(r) for r in self.rows)
        object.__setattr__(self, "rows", rows)
        if rows:
            width = len(rows[0])
            if any(len(r) != width for r in rows):
                raise ValueError("matrix rows have unequal lengths")

    @property
    def shape(self) -> tuple[int, int]:
        if not self.rows:
            return (0, 0)
        return (len(self.rows), len(self.rows[0]))


def _require_same_space(a: VectorField, b: VectorField) -> None:
    if a.state_names != b.state_names:
        raise DimensionMismatchError(
            f"state coordinates differ: {a.state_names} vs {b.state_names}"
        )


def jacobian(h: VectorField) -> ExprMatrix:
    """Entry (i, j) = d(component_i)/d(state_j), simplified."""
    return ExprMatrix(
        tuple(
            tuple(diff(comp, name) for name in h.state_names)
            for comp in h.components
        )
    )


def lie_bracket(a: VectorField, b: VectorField) -> VectorField:
    """[a, b] = (Db)a - (Da)b, component-wise simplified."""
    _require_same_space(a, b)
    da, db = jacobian(a).rows, jacobian(b).rows
    a_s = [simplify(c) for c in a.components]
    b_s = [simplify(c) for c in b.components]
    comps = []
    for i in range(a.dim):
        terms = []
        for j in range(a.dim):
            terms.append(_simp_product((db[i][j], a_s[j])))
            terms.append(_simp_product((const(-1), _simp_product((da[i][j], b_s[j])))))
        comps.append(_simp_sum(tuple(terms)))
    return VectorField(a.state_names, tuple(comps))


class BracketTable:
    """Brackets of one analysis: ad_f^k g_i memoised per input, grown on demand."""

    def __init__(self, f: VectorField, inputs) -> None:
        self.f, self.inputs = f, tuple(inputs)
        for g in self.inputs:
            _require_same_space(f, g)
        self._chains = [[g.simplified()] for g in self.inputs]

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


def ad_pow(f: VectorField, g: VectorField, k: int) -> VectorField:
    """Iterated bracket: ad^0 = g, ad^k = [f, ad^(k-1)]."""
    return BracketTable(f, (g,)).ad(0, k)


@dataclass(frozen=True)
class VfZeroVerdict:
    is_zero: bool
    component: int | None = None
    witness: dict | None = None
    value: float | None = None


def vf_is_zero(h: VectorField, policy: ZeroTestPolicy = ZeroTestPolicy()) -> VfZeroVerdict:
    """Zero iff every component tests zero; else first witnessing component."""
    for i, comp in enumerate(h.components):
        verdict: ZeroVerdict = is_zero(comp, policy.derive("component", i))
        if not verdict.is_zero:
            return VfZeroVerdict(
                False,
                component=i,
                witness=dict(verdict.witness) if verdict.witness else {},
                value=verdict.value,
            )
    return VfZeroVerdict(True)
