"""The problem order of a system and the local order at one (x, p).

Differentiating the switching vector phi_i = <p, g_i(x)> along an extremal k
times yields phi^(k) = A_k + B_k u with A_k[i] = <p, ad_f^k g_i> and
B_k[i][j] = <p, [g_j, ad_f^(k-1) g_i]>.  Because the adjoint p ranges freely,
B_k vanishes identically as a function of (x, p) exactly when every bracket
field [g_j, ad_f^(k-1) g_i] vanishes as a field, so the order search needs no
p sampling: the first level k with a non-vanishing bracket field gives the
problem order q = k/2 (an exact rational).  The local order at one (x, p)
is the first level whose B_k, evaluated there, is not zero.

For single-input systems the first such k is always even; this module also
provides a verifier for the bracket identities that prove it, usable as an
implementation self-check.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

from .expr import EvalError, Record, ZeroTestPolicy, ZeroVerdict, compile_components
from .fields import BracketTable, lie_bracket, vf_is_zero
from .system import ControlSystem


def _require_k_max(k_max: int) -> None:
    if not isinstance(k_max, int) or k_max < 1:
        raise ValueError("k_max must be an integer >= 1")


def _require_analysis_ready(sys: ControlSystem) -> None:
    if sys.cost is not None:
        raise ValueError(
            "system carries a pending running cost; extend_with_cost or drop it first"
        )


class BracketEvidence(Record):
    """The zero test's verdict on one b-field [g_j, ad_f^(k-1) g_i] (0-based i, j)."""

    i: int
    j: int
    verdict: ZeroVerdict


class LevelEvidence(Record):
    level: int
    entries: tuple[BracketEvidence, ...]

    @property
    def all_zero(self) -> bool:
        return all(e.verdict.is_zero for e in self.entries)


class OrderReport(Record):
    found: bool
    k: int | None
    q: Fraction | None
    evidence: tuple[LevelEvidence, ...]
    truncated_at: int | None = None


def problem_order(
    sys: ControlSystem, k_max: int = 10, policy: ZeroTestPolicy = ZeroTestPolicy()
) -> OrderReport:
    """First level k whose b-fields do not all vanish; q = k/2 exactly."""
    _require_k_max(k_max)
    _require_analysis_ready(sys)
    evidence = _levels(BracketTable(sys.drift, sys.inputs), k_max, policy)
    if evidence[-1].all_zero:
        return OrderReport(False, None, None, evidence, truncated_at=k_max)
    k = len(evidence)
    return OrderReport(True, k, Fraction(k, 2), evidence)


def _levels(table: BracketTable, k_max: int, policy: ZeroTestPolicy) -> tuple[LevelEvidence, ...]:
    """Evidence of levels 1, 2, ... up to the first whose b-fields do not all vanish,
    or up to k_max: the one level search of the order and the identity verifier."""
    m, evidence = len(table.inputs), []
    for k in range(1, k_max + 1):
        entries = tuple(
            BracketEvidence(i, j, vf_is_zero(table.b(i, j, k), policy.derive("order", k, i, j)))
            for i in range(m)
            for j in range(m)
        )
        evidence.append(LevelEvidence(k, entries))
        if not evidence[-1].all_zero:
            break
    return tuple(evidence)


class IdentityCheck(Record):
    name: str
    verdict: ZeroVerdict  # the identity holds where the verdict is zero


class IdentityReport(Record):
    k_star: int
    capped: bool
    checks: tuple[IdentityCheck, ...]

    @property
    def all_passed(self) -> bool:
        return all(c.verdict.is_zero for c in self.checks)


def verify_bracket_identities(
    sys: ControlSystem,
    policy: ZeroTestPolicy = ZeroTestPolicy(),
    depth_cap: int = 6,
) -> IdentityReport:
    """Single-input bracket identities under [g, ad_f^i g] = 0 for i < k*.

    k* is the first i with [g, ad_f^i g] not identically zero (capped at
    depth_cap), read from the order's own level search: that field is the
    level-(i + 1) b-field, so k* + 1 is the problem order, with the same seeds.
    Checked via zero tests on sums and differences of fields, formed in
    normal form, except the even check, which is that search's verdict:

      swap:   [ad_f^j g, ad_f^l g] + [ad_f^(j-1) g, ad_f^(l+1) g] = 0
              for 1 <= j <= k*, 0 <= l <= k* - (j+1);
      slide:  [g, ad_f^(k*) g] - (-1)^j [ad_f^j g, ad_f^(k*-j) g] = 0
              for 0 <= j <= k*;
      even:   [g, ad_f^(k*) g] = 0 when k* is even.
    """
    if sys.m != 1:
        raise ValueError("bracket identity verification needs a single-input system")
    _require_k_max(depth_cap)  # the CLI's --k-max
    _require_analysis_ready(sys)
    table = BracketTable(sys.drift, sys.inputs)
    ad = table.ad
    levels = _levels(table, depth_cap + 1, policy)
    k_star, capped = len(levels) - 1, levels[-1].all_zero

    checks: list[IdentityCheck] = []

    def check(name: str, field, *tags) -> None:
        checks.append(IdentityCheck(name, vf_is_zero(field, policy.derive(*tags))))

    for j in range(1, k_star + 1):
        for l in range(0, k_star - j):
            field = lie_bracket(ad(0, j), ad(0, l)) + lie_bracket(ad(0, j - 1), ad(0, l + 1))
            check(f"swap j={j} l={l}", field, "swap", j, l)

    top = table.b(0, 0, k_star + 1)  # [g, ad_f^(k*) g]
    for j in range(0, k_star + 1):
        other = lie_bracket(ad(0, j), ad(0, k_star - j))
        check(f"slide j={j}", top + other if j % 2 == 1 else top - other, "slide", j)

    if k_star % 2 == 0:
        checks.append(IdentityCheck("even k* vanishing", levels[-1].entries[0].verdict))

    return IdentityReport(k_star, capped, tuple(checks))


class LocalOrderResult(Record):
    found: bool
    k_local: int | None
    b_values: tuple[tuple[float, ...], ...] | None
    rank_estimate: int | None


def local_order_at(
    sys: ControlSystem,
    x: Sequence[float],
    p: Sequence[float],
    k_max: int = 10,
    tolerance: float = 1e-9,
) -> LocalOrderResult:
    """First level where B_l at this (x, p) has an entry above tolerance * max_i |p_i|.

    B_l[i][j] = <p, b_ij(x)>.  Each level is one compiled program that
    evaluates every b-field of the level, so subexpressions they share are
    evaluated once.
    """
    import numpy as np  # here: the symbolic commands never load it

    _require_k_max(k_max)
    if not tolerance > 0:
        raise ValueError("tolerance must be > 0")
    if len(x) != sys.n or len(p) != sys.n:
        raise ValueError(
            f"state and adjoint points must have dimension {sys.n},"
            f" got {len(x)} and {len(p)}"
        )
    floor = tolerance * max(abs(float(v)) for v in p)  # B_k is linear in p
    _require_analysis_ready(sys)
    m, n = sys.m, sys.n
    table, pvec = BracketTable(sys.drift, sys.inputs), np.asarray(p, dtype=float)
    for k in range(1, k_max + 1):
        program = compile_components(
            [c for i, j in np.ndindex(m, m) for c in table.b(i, j, k).components],
            sys.state_names,
        )
        try:
            values = program([float(v) for v in x])  # Python floats: division by zero raises
        except ZeroDivisionError:
            raise EvalError(f"B_{k} hit a division by zero at the given point") from None
        except (OverflowError, ValueError):  # ValueError: sin or cos of an overflowed inf
            raise EvalError(f"B_{k} overflowed at the given point") from None
        values = np.asarray(values, dtype=float).reshape(m, m, n)
        matrix = np.empty((m, m))
        for i, j in np.ndindex(m, m):
            with np.errstate(over="ignore", invalid="ignore"):
                matrix[i, j] = pvec @ values[i, j]
            if not math.isfinite(matrix[i, j]):
                raise EvalError(
                    f"<p, b-field [g_{j + 1}, ad_f^{k - 1} g_{i + 1}]> is not finite"
                    " at the given point"
                )
        if np.max(np.abs(matrix)) > floor:
            svals = np.linalg.svd(matrix, compute_uv=False)
            rank = int(np.sum(svals > tolerance * svals[0])) if svals[0] > 0 else 0
            return LocalOrderResult(
                True,
                k,
                tuple(tuple(float(v) for v in row) for row in matrix),
                rank,
            )
    return LocalOrderResult(False, None, None, None)
