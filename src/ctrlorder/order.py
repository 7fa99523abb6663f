"""Switching-derivative coefficients and the intrinsic order of a system.

Differentiating the switching vector phi_i = <p, g_i(x)> along an extremal k
times yields phi^(k) = A_k + B_k u with A_k[i] = <p, ad_f^k g_i> and
B_k[i][j] = <p, [g_j, ad_f^(k-1) g_i]>.  Because the adjoint p ranges freely,
B_k vanishes identically as a function of (x, p) exactly when every bracket
field [g_j, ad_f^(k-1) g_i] vanishes as a field, so the order search needs no
p sampling: the first level k with a non-vanishing bracket field gives the
problem order q = k/2 (an exact rational).

For single-input systems the first such k is always even; this module also
provides verifiers for that parity fact and for the bracket identities that
prove it, usable as implementation self-checks.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

import numpy as np

from .expr import EvalError, Negate, Sum, ZeroTestPolicy, compile_components, simplify
from .fields import BracketTable, VectorField, lie_bracket, vf_is_zero
from .system import ControlSystem


@dataclass(frozen=True)
class SwitchingCoefficients:
    """Bracket fields behind A_k (a_fields) and B_k (b_fields) at level k."""

    k: int
    a_fields: tuple[VectorField, ...]
    b_fields: tuple[tuple[VectorField, ...], ...]  # b_fields[i][j] = [g_j, ad_f^(k-1) g_i]


def _require_analysis_ready(sys: ControlSystem) -> None:
    if sys.cost is not None:
        raise ValueError(
            "system carries a pending running cost; extend_with_cost or drop it first"
        )


def switching_coeffs(sys: ControlSystem, k: int) -> SwitchingCoefficients:
    """Fields for the level-k derivative of the switching vector."""
    if not isinstance(k, int) or k < 1:
        raise ValueError("derivative level k must be an integer >= 1")
    _require_analysis_ready(sys)
    table = BracketTable(sys.drift, sys.inputs)
    a_fields = tuple(table.ad(i, k) for i in range(sys.m))
    b_fields = tuple(tuple(table.b(i, j, k) for j in range(sys.m)) for i in range(sys.m))
    return SwitchingCoefficients(k, a_fields, b_fields)


@dataclass(frozen=True)
class BracketEvidence:
    """Zero-test verdict for one b-field [g_j, ad_f^(k-1) g_i] (0-based i, j)."""

    i: int
    j: int
    zero: bool
    witness_component: int | None = None
    witness_point: Mapping[str, float] | None = None


@dataclass(frozen=True)
class LevelEvidence:
    level: int
    entries: tuple[BracketEvidence, ...]

    @property
    def all_zero(self) -> bool:
        return all(e.zero for e in self.entries)


@dataclass(frozen=True)
class OrderReport:
    found: bool
    k: int | None
    q: Fraction | None
    evidence: tuple[LevelEvidence, ...]
    truncated_at: int | None = None


def problem_order(
    sys: ControlSystem, k_max: int = 10, policy: ZeroTestPolicy = ZeroTestPolicy()
) -> OrderReport:
    """First level k whose b-fields do not all vanish; q = k/2 exactly."""
    if not isinstance(k_max, int) or k_max < 1:
        raise ValueError("k_max must be an integer >= 1")
    _require_analysis_ready(sys)
    table = BracketTable(sys.drift, sys.inputs)
    evidence: list[LevelEvidence] = []
    for k in range(1, k_max + 1):
        entries: list[BracketEvidence] = []
        hit = False
        for i in range(sys.m):
            for j in range(sys.m):
                verdict = vf_is_zero(table.b(i, j, k), policy.derive("order", k, i, j))
                if verdict.is_zero:
                    entries.append(BracketEvidence(i, j, True))
                else:
                    entries.append(
                        BracketEvidence(
                            i, j, False,
                            witness_component=verdict.component,
                            witness_point=verdict.witness,
                        )
                    )
                    hit = True
        evidence.append(LevelEvidence(k, tuple(entries)))
        if hit:
            return OrderReport(True, k, Fraction(k, 2), tuple(evidence))
    return OrderReport(False, None, None, tuple(evidence), truncated_at=k_max)


@dataclass(frozen=True)
class ParityCheck:
    """Theorem check: a single-input system with an order must have k even."""

    applicable: bool
    k_even: bool | None
    report: OrderReport


def verify_single_input_parity(
    sys: ControlSystem, k_max: int = 10, policy: ZeroTestPolicy = ZeroTestPolicy()
) -> ParityCheck:
    """k_even False on a found single-input order signals an implementation bug."""
    if sys.m != 1:
        return ParityCheck(False, None, problem_order(sys, k_max, policy))
    report = problem_order(sys, k_max, policy)
    if not report.found:
        return ParityCheck(False, None, report)
    return ParityCheck(True, report.k % 2 == 0, report)


@dataclass(frozen=True)
class IdentityCheck:
    name: str
    passed: bool
    detail: str = ""


@dataclass(frozen=True)
class IdentityReport:
    k_star: int
    capped: bool
    checks: tuple[IdentityCheck, ...]

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)


def verify_bracket_identities(
    sys: ControlSystem,
    policy: ZeroTestPolicy = ZeroTestPolicy(),
    depth_cap: int = 6,
) -> IdentityReport:
    """Single-input bracket identities under [g, ad_f^i g] = 0 for i < k*.

    k* is the first level with [g, ad_f^(k*) g] not identically zero (capped
    at depth_cap).  Checked, all via vector-field zero tests on differences:

      swap:   [ad_f^j g, ad_f^l g] + [ad_f^(j-1) g, ad_f^(l+1) g] = 0
              for 1 <= j <= k*, 0 <= l <= k* - (j+1);
      slide:  [g, ad_f^(k*) g] - (-1)^j [ad_f^j g, ad_f^(k*-j) g] = 0
              for 0 <= j <= k*;
      even:   [g, ad_f^(k*) g] = 0 when k* is even.
    """
    if sys.m != 1:
        raise ValueError("bracket identity verification needs a single-input system")
    if depth_cap < 1:
        raise ValueError("depth_cap must be >= 1")
    g, ad = sys.inputs[0], BracketTable(sys.drift, sys.inputs).ad

    k_star = depth_cap
    capped = True
    for i in range(depth_cap + 1):
        verdict = vf_is_zero(lie_bracket(g, ad(0, i)), policy.derive("kstar", i))
        if not verdict.is_zero:
            k_star = i
            capped = False
            break

    def bracket_sum(j: int, l: int) -> VectorField:
        left = lie_bracket(ad(0, j), ad(0, l))
        right = lie_bracket(ad(0, j - 1), ad(0, l + 1))
        return VectorField(
            left.state_names,
            tuple(
                _difference(a, b, negate=False)
                for a, b in zip(left.components, right.components)
            ),
        )

    checks: list[IdentityCheck] = []
    for j in range(1, k_star + 1):
        for l in range(0, k_star - j):
            field = bracket_sum(j, l)
            verdict = vf_is_zero(field, policy.derive("swap", j, l))
            checks.append(
                IdentityCheck(
                    f"swap j={j} l={l}",
                    verdict.is_zero,
                    "" if verdict.is_zero else f"nonzero component {verdict.component}",
                )
            )

    top = lie_bracket(g, ad(0, k_star))
    for j in range(0, k_star + 1):
        other = lie_bracket(ad(0, j), ad(0, k_star - j))
        sign_flip = j % 2 == 1
        field = VectorField(
            top.state_names,
            tuple(
                _difference(a, b, negate=not sign_flip)
                for a, b in zip(top.components, other.components)
            ),
        )
        verdict = vf_is_zero(field, policy.derive("slide", j))
        checks.append(
            IdentityCheck(
                f"slide j={j}",
                verdict.is_zero,
                "" if verdict.is_zero else f"nonzero component {verdict.component}",
            )
        )

    if k_star % 2 == 0:
        verdict = vf_is_zero(top, policy.derive("even"))
        checks.append(
            IdentityCheck(
                "even k* vanishing",
                verdict.is_zero,
                "" if verdict.is_zero else f"nonzero component {verdict.component}",
            )
        )

    return IdentityReport(k_star, capped, tuple(checks))


def _difference(a, b, negate: bool):
    rhs = Negate(b) if negate else b
    return simplify(Sum((a, rhs)))


@dataclass(frozen=True)
class LocalOrderResult:
    found: bool
    k_local: int | None
    b_values: tuple[tuple[float, ...], ...] | None
    rank_estimate: int | None


class _BMatrixEvaluator:
    """Compiled evaluation of B_l[i][j] = <p, b_ij(x)>, compiled per level on demand."""

    def __init__(self, sys: ControlSystem):
        self.sys = sys
        self._table = BracketTable(sys.drift, sys.inputs)
        self._levels: dict[int, list[list]] = {}

    def _level(self, k: int):
        funcs = self._levels.get(k)
        if funcs is None:
            _require_analysis_ready(self.sys)
            funcs = [
                [
                    compile_components(self._table.b(i, j, k).components, self.sys.state_names)
                    for j in range(self.sys.m)
                ]
                for i in range(self.sys.m)
            ]
            self._levels[k] = funcs
        return funcs

    def matrix(self, k: int, x: Sequence[float], p: Sequence[float]) -> np.ndarray:
        funcs = self._level(k)
        x = [float(v) for v in x]  # Python floats: division by zero raises
        pvec = np.asarray(p, dtype=float)
        out = np.empty((self.sys.m, self.sys.m))
        for i in range(self.sys.m):
            for j in range(self.sys.m):
                name = f"b-field [g_{j + 1}, ad_f^{k - 1} g_{i + 1}]"
                try:
                    values = funcs[i][j](x)
                except ZeroDivisionError:
                    raise EvalError(f"{name} hit a division by zero at the given point") from None
                except OverflowError:
                    raise EvalError(f"{name} overflowed at the given point") from None
                with np.errstate(over="ignore", invalid="ignore"):
                    out[i, j] = pvec @ np.asarray(values, dtype=float)
                if not math.isfinite(out[i, j]):
                    raise EvalError(f"<p, {name}> is not finite at the given point")
        return out


def evaluate_b_matrix(
    sys: ControlSystem, k: int, x: Sequence[float], p: Sequence[float]
) -> np.ndarray:
    """B_k evaluated at one (x, p) point."""
    _check_point_sizes(sys, x, p)
    return _BMatrixEvaluator(sys).matrix(k, x, p)


def _check_point_sizes(sys: ControlSystem, x: Sequence[float], p: Sequence[float]) -> None:
    if len(x) != sys.n or len(p) != sys.n:
        raise ValueError(
            f"state and adjoint points must have dimension {sys.n},"
            f" got {len(x)} and {len(p)}"
        )


def local_order_at(
    sys: ControlSystem,
    x: Sequence[float],
    p: Sequence[float],
    k_max: int = 10,
    tolerance: float = 1e-9,
    _evaluator: "_BMatrixEvaluator | None" = None,
) -> LocalOrderResult:
    """First level where B_l at this (x, p) has an entry above tolerance."""
    _check_point_sizes(sys, x, p)
    if not tolerance > 0:
        raise ValueError("tolerance must be > 0")
    evaluator = _evaluator if _evaluator is not None else _BMatrixEvaluator(sys)
    for k in range(1, k_max + 1):
        matrix = evaluator.matrix(k, x, p)
        if np.max(np.abs(matrix)) > tolerance:
            svals = np.linalg.svd(matrix, compute_uv=False)
            rank = int(np.sum(svals > tolerance * svals[0])) if svals[0] > 0 else 0
            return LocalOrderResult(
                True,
                k,
                tuple(tuple(float(v) for v in row) for row in matrix),
                rank,
            )
    return LocalOrderResult(False, None, None, None)


@dataclass(frozen=True)
class ArcOrderResult:
    """Per-sample local order along a trajectory slice, plus the modal level."""

    sample_times: tuple[float, ...]
    per_sample: tuple[int | None, ...]
    consensus_k: int | None
    dissent: int


def consensus_of(levels: Sequence[int | None]) -> tuple[int | None, int]:
    """Modal found level (ties to the smallest) and the not-found count."""
    found = [k for k in levels if k is not None]
    dissent = len(levels) - len(found)
    if not found:
        return None, dissent
    counts = Counter(found)
    best = max(counts.values())
    consensus = min(k for k, c in counts.items() if c == best)
    return consensus, dissent
