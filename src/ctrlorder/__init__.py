"""Intrinsic order of affine optimal control problems.

Symbolic Lie-bracket analysis of switching-function derivatives, exact
problem-order determination (q = k/2 as a rational), the local order at one
(x, p), identity verifiers for the single-input parity fact, and fixed-step
extremal simulation with singular-interval detection.  Every public function
and class is reached from the `ctrlorder` command, save `expr.evaluate` (the
float meaning of a tree, which tests compare against), `normal.simplify` and
`system.to_document`.
"""

__version__ = "0.1.0"

from .expr import (
    ArityError,
    Constant,
    Cos,
    DivisionByZeroError,
    EvalError,
    Exp,
    Expr,
    ExprError,
    ExprSyntaxError,
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
    ZeroVerdict,
    const,
    evaluate,
    parse,
    to_text,
    variables,
)
from .normal import diff, is_zero, simplify
from .fields import (
    BracketTable,
    DimensionMismatchError,
    VectorField,
    lie_bracket,
    vf_is_zero,
)
from .order import (
    BracketEvidence,
    IdentityCheck,
    IdentityReport,
    LevelEvidence,
    LocalOrderResult,
    OrderReport,
    local_order_at,
    problem_order,
    verify_bracket_identities,
)
from .simulate import (
    BangBang,
    FixedControl,
    PiecewiseControl,
    SimConfig,
    SingularIntervals,
    Trajectory,
    check_lemma1,
    detect_singular_intervals,
    integrate_extremal,
)
from .system import (
    ControlSystem,
    CostSpec,
    Finding,
    SystemLoadError,
    ValidationReport,
    extend_with_cost,
    load,
    to_document,
    validate,
    without_cost,
)

__all__ = [name for name in dir() if not name.startswith("_")]
