"""Switching-derivative coefficients and the intrinsic order of a system.

Differentiating the switching vector phi_i = <p, g_i(x)> along an extremal k
times yields phi^(k) = A_k + B_k u with A_k[i] = <p, ad_f^k g_i> and
B_k[i][j] = <p, [g_j, ad_f^(k-1) g_i]>.  Because the adjoint p ranges freely,
B_k vanishes identically as a function of (x, p) exactly when every bracket
field [g_j, ad_f^(k-1) g_i] vanishes as a field, so the order search needs no
p sampling: the first level k with a non-vanishing bracket field gives the
problem order q = k/2 (an exact rational).

For single-input systems the first such k is always even; this module also
provides a verifier for the bracket identities that prove it, usable as an
implementation self-check.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from typing import TYPE_CHECKING, Sequence

from .expr import EvalError, Record, ZeroTestPolicy, ZeroVerdict, compile_components
from .fields import BracketTable, VectorField, lie_bracket, vf_is_zero
from .system import ControlSystem

# numpy is imported by the functions that use it: the symbolic commands never
# load it, and it is most of the CLI's import time.
if TYPE_CHECKING:
    import numpy as np

    from .simulate import Trajectory


class SwitchingCoefficients(Record):
    """Bracket fields behind A_k (a_fields) and B_k (b_fields) at level k."""

    k: int
    a_fields: tuple[VectorField, ...]
    b_fields: tuple[tuple[VectorField, ...], ...]  # b_fields[i][j] = [g_j, ad_f^(k-1) g_i]


def _require_k_max(k_max: int) -> None:
    if not isinstance(k_max, int) or k_max < 1:
        raise ValueError("k_max must be an integer >= 1")


def _require_local_order_options(k_max: int, tolerance: float) -> None:
    _require_k_max(k_max)
    if not tolerance > 0:
        raise ValueError("tolerance must be > 0")


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


class _BMatrixEvaluator:
    """B_l[i][j] = <p, b_ij(x)>: one compiled program per level, on demand, that
    evaluates every b-field of the level, so subexpressions they share are
    evaluated once."""

    def __init__(self, sys: ControlSystem):
        self.sys = sys
        self._table = BracketTable(sys.drift, sys.inputs)
        self._levels: dict = {}  # level -> its compiled program

    def matrix(self, k: int, x: Sequence[float], p: Sequence[float]) -> np.ndarray:
        import numpy as np

        m, n = self.sys.m, self.sys.n
        program = self._levels.get(k)
        if program is None:
            _require_analysis_ready(self.sys)
            program = self._levels[k] = compile_components(
                [c for i, j in np.ndindex(m, m) for c in self._table.b(i, j, k).components],
                self.sys.state_names,
            )
        try:
            values = program([float(v) for v in x])  # Python floats: division by zero raises
        except ZeroDivisionError:
            raise EvalError(f"B_{k} hit a division by zero at the given point") from None
        except (OverflowError, ValueError):  # ValueError: sin or cos of an overflowed inf
            raise EvalError(f"B_{k} overflowed at the given point") from None
        values = np.asarray(values, dtype=float).reshape(m, m, n)
        pvec = np.asarray(p, dtype=float)
        out = np.empty((m, m))
        for i, j in np.ndindex(m, m):
            with np.errstate(over="ignore", invalid="ignore"):
                out[i, j] = pvec @ values[i, j]
            if not math.isfinite(out[i, j]):
                raise EvalError(
                    f"<p, b-field [g_{j + 1}, ad_f^{k - 1} g_{i + 1}]> is not finite"
                    " at the given point"
                )
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
) -> LocalOrderResult:
    """First level where B_l at this (x, p) has an entry above tolerance * max_i |p_i|."""
    _require_local_order_options(k_max, tolerance)
    return _local_order(_BMatrixEvaluator(sys), x, p, k_max, tolerance)


def local_order_on_arc(
    sys: ControlSystem,
    traj: Trajectory,
    interval: tuple[float, float],
    k_max: int = 10,
    tolerance: float = 1e-9,
) -> ArcOrderResult:
    """Local order at every grid sample of the interval, plus the modal level."""
    _require_local_order_options(k_max, tolerance)
    t0, t1 = interval
    eps = 1e-9 * max(1.0, traj.step)
    if traj.samples == 0:
        raise ValueError("trajectory has no samples")
    if t0 < traj.t[0] - eps or t1 > traj.t[-1] + eps:
        raise ValueError("interval is not contained in the trajectory span")
    indices = [s for s in range(traj.samples) if t0 - eps <= traj.t[s] <= t1 + eps]
    evaluator = _BMatrixEvaluator(sys)
    levels: list[int | None] = []
    for s in indices:
        result = _local_order(evaluator, traj.x[s], traj.p[s], k_max, tolerance)
        levels.append(result.k_local if result.found else None)
    consensus, dissent = consensus_of(levels)
    return ArcOrderResult(
        sample_times=tuple(float(traj.t[s]) for s in indices),
        per_sample=tuple(levels),
        consensus_k=consensus,
        dissent=dissent,
    )


def _local_order(evaluator: _BMatrixEvaluator, x, p, k_max: int, tolerance: float):
    import numpy as np

    _check_point_sizes(evaluator.sys, x, p)
    floor = tolerance * max(abs(float(v)) for v in p)  # B_k is linear in p
    for k in range(1, k_max + 1):
        matrix = evaluator.matrix(k, x, p)
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


class ArcOrderResult(Record):
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
