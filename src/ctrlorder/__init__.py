"""Intrinsic order of affine optimal control problems.

Symbolic Lie-bracket analysis of switching-function derivatives, exact
problem-order determination (q = k/2 as a rational), identity verifiers for
the single-input parity fact, and fixed-step extremal simulation with
singular-interval detection.
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
    diff,
    evaluate,
    is_zero,
    parse,
    simplify,
    to_text,
    variables,
)
from .fields import (
    BracketTable,
    DimensionMismatchError,
    ExprMatrix,
    VectorField,
    VfZeroVerdict,
    ad_pow,
    jacobian,
    lie_bracket,
    vf_is_zero,
)
from .order import (
    ArcOrderResult,
    BracketEvidence,
    IdentityCheck,
    IdentityReport,
    LevelEvidence,
    LocalOrderResult,
    OrderReport,
    ParityCheck,
    SwitchingCoefficients,
    evaluate_b_matrix,
    local_order_at,
    problem_order,
    switching_coeffs,
    verify_bracket_identities,
    verify_single_input_parity,
)
from .simulate import (
    BangBang,
    FixedControl,
    PiecewiseControl,
    SimConfig,
    SingularIntervals,
    Trajectory,
    bang_bang_control,
    check_lemma1,
    detect_singular_intervals,
    hamiltonian,
    integrate_extremal,
    local_order_on_arc,
    switching_values,
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
