"""Extremal integration: oracles, conservation, singular intervals, Lemma-style checks."""

import ast
import io
import json
import math
import random
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import ctrlorder
import ctrlorder.order
import ctrlorder.simulate

from ctrlorder import (
    BangBang,
    BracketTable,
    EvalError,
    FixedControl,
    PiecewiseControl,
    SimConfig,
    Trajectory,
    VectorField,
    check_lemma1,
    detect_singular_intervals,
    extend_with_cost,
    integrate_extremal,
    lie_bracket,
    load,
    local_order_at,
    without_cost,
)
from ctrlorder.expr import compile_components
from ctrlorder.simulate import MAX_STEPS

from helpers import (
    SYSTEMS_DIR,
    counterexample_extended,
    counterexample_raw,
    document_phi_and_h,
    double_integrator,
    sign_law,
)


def di_raw():
    return without_cost(double_integrator())


GENERIC_X0 = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6)
GENERIC_P0 = (1.0, 0.5, 0.25, 0.2, 0.1, 0.05)
FIXED_U3 = (0.3, 0.5, 0.7)


# ---------------------------------------------------------------------------
# package API
# ---------------------------------------------------------------------------

PACKAGE_API = [
    "ArityError", "BangBang", "BracketEvidence", "BracketTable",
    "Constant", "ControlSystem", "Cos", "CostSpec", "DimensionMismatchError",
    "DivisionByZeroError", "EvalError", "Exp", "Expr", "ExprError", "ExprSyntaxError",
    "Finding", "FixedControl", "IdentityCheck", "IdentityReport", "IndeterminateZeroTest",
    "IntPower", "LevelEvidence", "LocalOrderResult", "MissingBindingError", "Negate",
    "OrderReport", "PiecewiseControl", "Product", "Quotient", "SimConfig",
    "Sin", "SingularIntervals", "Sum", "SystemLoadError",
    "Trajectory", "UnknownIdentifierError", "ValidationReport", "Variable", "VectorField",
    "ZeroTestPolicy", "ZeroVerdict", "check_lemma1",
    "const", "detect_singular_intervals", "diff", "evaluate", "expr",
    "extend_with_cost", "fields", "integrate_extremal", "is_zero",
    "lie_bracket", "load", "local_order_at", "normal", "order",
    "parse", "problem_order", "simplify", "simulate",
    "system", "to_document", "to_text", "validate", "variables", "verify_bracket_identities",
    "vf_is_zero", "without_cost",
]


def test_package_api_is_pinned_and_resolves():
    assert sorted(ctrlorder.__all__) == PACKAGE_API
    for name in ctrlorder.__all__:
        assert getattr(ctrlorder, name) is not None
    assert set(ctrlorder.__all__) <= set(dir(ctrlorder))
    assert ctrlorder.SimConfig is ctrlorder.simulate.SimConfig
    assert ctrlorder.integrate_extremal is integrate_extremal
    with pytest.raises(AttributeError, match="no_such_name"):
        ctrlorder.no_such_name


# public functions and classes that the command never reaches, each with why it stays
KEPT_UNREACHED = {
    "expr.evaluate": "the float meaning of a tree, the reference tests compare compiled code to",
    "normal.diff": "a tree's exact derivative through its normal form, as tests check it",
    "normal.is_zero": "a tree's zero verdict through its normal form, as tests decide identities",
    "normal.simplify": "a tree's normal form as a tree, by which tests compare expressions",
    "system.to_document": "the inverse of load: a system written back as its document",
}


def test_every_public_function_and_class_is_reached_from_the_command():
    # a module-level definition is reached when reached code reads its name, bare or
    # as an attribute of a package module (`normal.render`; not `np.diff`, not a
    # field annotation): code starts at the script's `entry` and at each module's top level
    paths = sorted(Path(ctrlorder.__file__).parent.glob("*.py"))
    modules = {path.stem for path in paths}
    definitions, todo = {}, []
    for path in paths:
        if path.stem == "__init__":  # its imports are the exports, not uses
            continue
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                definitions.setdefault(node.name, []).append((path.stem, node))
            elif not isinstance(node, (ast.Import, ast.ImportFrom)):
                todo.append(node)  # runs on import
    todo += [node for _, node in definitions["entry"]]
    reached = {"entry"}
    while todo:
        for sub in ast.walk(todo.pop()):
            if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
                name = sub.id
            elif isinstance(sub, ast.Attribute) and getattr(sub.value, "id", None) in modules:
                name = sub.attr
            else:
                continue
            if name in definitions and name not in reached:
                reached.add(name)
                todo += [node for _, node in definitions[name]]
    unreached = {
        f"{module}.{name}"
        for name, nodes in definitions.items()
        for module, _ in nodes
        if not name.startswith("_") and name not in reached
    }
    assert sorted(unreached) == sorted(KEPT_UNREACHED)


def test_records_compare_print_copy_and_replace_by_their_fields():
    import copy
    import pickle

    verdict = ctrlorder.ZeroVerdict(True, "symbolic")
    assert repr(verdict) == (
        "ZeroVerdict(is_zero=True, kind='symbolic', witness=None, value=None, component=None)"
    )
    x = ctrlorder.Variable("x")
    assert ctrlorder.Sum((x, x)) == ctrlorder.Sum([x, ctrlorder.Variable("x")])
    assert ctrlorder.Sum((x, x)) != ctrlorder.Product((x, x))
    assert hash(ctrlorder.Sum((x, x))) == hash(ctrlorder.Sum((x, x)))
    with pytest.raises(AttributeError):
        x.name = "y"
    with pytest.raises(AttributeError):
        verdict.kind = "exact-sampled"

    config = SimConfig(initial_state=(0, 1), initial_adjoint=[1, 0])
    assert config.initial_state == (0.0, 1.0) and config.initial_adjoint == (1.0, 0.0)
    assert (config.horizon, config.step) == (1.0, 1e-3)
    assert config.control_policy == BangBang(0.0)
    assert (config.singular_tolerance, config.singular_min_length) == (1e-6, None)
    assert config.replace(step=0.01) == SimConfig((0, 1), (1, 0), step=0.01)
    with pytest.raises(ValueError, match="step must be > 0"):
        config.replace(step=0)

    system = double_integrator()
    assert system.cost is not None
    assert system.replace(cost=None) == without_cost(system)
    assert system.replace(cost=None).cost is None

    node = ctrlorder.Quotient(ctrlorder.Sum((x, ctrlorder.const(2))), ctrlorder.Sin(x))
    for original in (node, config):
        for clone in (pickle.loads(pickle.dumps(original)), copy.deepcopy(original)):
            assert clone == original and clone is not original


def _record_samples() -> dict:
    """Field values, in declaration order, for every record class of the package."""
    from fractions import Fraction

    x = ctrlorder.Variable("x")
    field = VectorField(("x",), (x,))
    t = ctrlorder.Variable("t")  # the one variable a bound may use
    zero = ctrlorder.ZeroVerdict(True, "symbolic")
    nonzero = ctrlorder.ZeroVerdict(False, "symbolic", {"x": 0.5}, 0.25, 2)
    check = ctrlorder.IdentityCheck("swap j=1 l=0", zero)
    finding = ctrlorder.Finding("warning", "bound is unused", "bound")
    return {
        ctrlorder.Constant: (Fraction(3, 2),),
        ctrlorder.Variable: ("x",),
        ctrlorder.Negate: (x,),
        ctrlorder.Sum: ((x, x),),
        ctrlorder.Product: ((x, x, x),),
        ctrlorder.Quotient: (x, ctrlorder.const(2)),
        ctrlorder.IntPower: (x, 3),
        ctrlorder.Sin: (x,),
        ctrlorder.Cos: (x,),
        ctrlorder.Exp: (x,),
        ctrlorder.ZeroTestPolicy: (8, 0.5, 1e-6, 7),
        ctrlorder.ZeroVerdict: (False, "exact-sampled", {"x": 0.5}, 0.25, 1),
        ctrlorder.BracketEvidence: (0, 1, nonzero),
        ctrlorder.LevelEvidence: (1, (ctrlorder.BracketEvidence(0, 0, zero),)),
        ctrlorder.OrderReport: (False, None, None, (), 4),
        ctrlorder.IdentityCheck: ("slide j=0", nonzero),
        ctrlorder.IdentityReport: (2, False, (check,)),
        ctrlorder.LocalOrderResult: (True, 2, ((0.5,),), 1),
        BangBang: (0.5,),
        FixedControl: ((1.0, -1.0),),
        PiecewiseControl: (((0.0, (1.0,)), (0.5, (-1.0,))),),
        SimConfig: ((0.0,), (1.0,), 2.0, 0.01, FixedControl((1.0,)), 1e-3, 0.5),
        Trajectory: (("x",), 1, 0.1, (0.0,), ((0.0,),), ((1.0,),), ((1.0,),), ((1.0,),),
                     (1.0,), "diverged", 0.1),
        ctrlorder.SingularIntervals: (((0.0, 0.5),),),
        ctrlorder.CostSpec: (x, (x,)),
        ctrlorder.ControlSystem: (("x",), field, (field,), None, t, "sample"),
        ctrlorder.Finding: ("error", "horizon must be positive", "horizon"),
        ctrlorder.ValidationReport: ((finding,),),
    }


def _record_classes(base):
    for cls in base.__subclasses__():
        yield cls
        yield from _record_classes(cls)


def _defaults(cls) -> dict:
    """The fields a record may be built without, and their values."""
    if cls.__init__ is ctrlorder.expr.Record.__init__:
        return cls._defaults
    import inspect

    params = inspect.signature(cls).parameters.values()
    return {p.name: p.default for p in params if p.default is not p.empty}


def test_every_record_class_keeps_the_record_contract():
    import copy
    import pickle

    samples = _record_samples()
    classes = {
        c for c in _record_classes(ctrlorder.expr.Record)
        if c.__match_args__ and c.__module__.startswith("ctrlorder.")
    }
    assert classes == set(samples)
    for cls, values in samples.items():
        fields = cls.__match_args__
        assert fields == tuple(cls.__annotations__)
        if issubclass(cls, ctrlorder.Expr):
            assert cls.__slots__ == fields  # read by the benchmark's tracer
        kwargs = dict(zip(fields, values))
        record = cls(*values)
        assert cls(**kwargs) == record
        assert record == cls(*values[:1], **dict(list(kwargs.items())[1:]))

        defaults = _defaults(cls)
        for name in fields:
            rest = {k: v for k, v in kwargs.items() if k != name}
            if name in defaults:
                assert getattr(cls(**rest), name) == defaults[name]
            else:
                with pytest.raises(TypeError, match=f"'{name}'"):
                    cls(**rest)
        given = values[: len(fields) - len(defaults)]  # positionally, defaults for the rest
        assert cls(*given) == cls(*given, *(defaults[name] for name in fields[len(given):]))
        if given:
            with pytest.raises(TypeError, match=f"'{fields[len(given) - 1]}'"):
                cls(*given[:-1])
        with pytest.raises(TypeError, match="takes"):
            cls(*values, values[0])
        with pytest.raises(TypeError, match="'no_such_field'"):
            cls(*values, no_such_field=1)
        with pytest.raises(TypeError, match=f"'{fields[0]}'"):
            cls(*values, **{fields[0]: values[0]})

        for clone in (pickle.loads(pickle.dumps(record)), copy.deepcopy(record), record.replace()):
            assert clone == record and type(clone) is cls
        shown = ", ".join(f"{name}={getattr(record, name)!r}" for name in fields)
        assert repr(record) == f"{cls.__qualname__}({shown})"


def test_a_record_field_without_a_default_cannot_follow_one_with_a_default():
    with pytest.raises(TypeError, match="Late: a field without a default follows a default"):

        class Late(ctrlorder.expr.Record):
            early: int = 0
            late: int


# ---------------------------------------------------------------------------
# H, phi and the sign law at the first sample of a run
# ---------------------------------------------------------------------------


def first_sample(system, x, p, policy=None) -> Trajectory:
    """A one-step run from (x, p): its sample 0 holds H, phi and u at (x, p)."""
    policy = FixedControl((0.0,) * system.m) if policy is None else policy
    cfg = SimConfig(initial_state=x, initial_adjoint=p, horizon=1e-3, step=1e-3,
                    control_policy=policy)
    traj = integrate_extremal(system, cfg)
    assert traj.status == "ok"
    return traj


def test_hamiltonian_examples():
    sys2 = di_raw()
    assert first_sample(sys2, (0, 1), (1, 0)).H[0] == 1.0
    assert first_sample(sys2, (0, 1), (0, 0)).H[0] == 0.0


def test_hamiltonian_linear_in_u():
    sys6 = counterexample_raw()
    rng = random.Random(4)
    for _ in range(5):
        x = [rng.uniform(-1, 1) for _ in range(6)]
        p = [rng.uniform(-1, 1) for _ in range(6)]
        u1 = [rng.uniform(-1, 1) for _ in range(3)]
        u2 = [rng.uniform(-1, 1) for _ in range(3)]
        both = [a + b for a, b in zip(u1, u2)]
        h_both, h1, h2, h0 = (
            first_sample(sys6, x, p, FixedControl(u)).H[0] for u in (both, u1, u2, (0, 0, 0))
        )
        assert abs(h_both - h1 - h2 + h0) < 1e-12


def test_hamiltonian_cost_term():
    # the cost-extended system's x0 adjoint -1 weights the running cost f0 = x1^2
    doc = json.loads((SYSTEMS_DIR / "double_integrator.json").read_text())
    x, p, u = (2.0, 1.0), (0.5, 0.5), (1.0,)
    ext = first_sample(extend_with_cost(load(doc)), (0.0, *x), (-1.0, *p), FixedControl(u))
    with_cost = ext.H[0]
    without = first_sample(di_raw(), x, p, FixedControl(u)).H[0]
    assert abs((without - with_cost) - 4.0) < 1e-12  # f0 = 2^2
    assert abs(document_phi_and_h(doc, ext.x[0], ext.p[0], u)[1] - with_cost) < 1e-12


def test_switching_values():
    sys2 = di_raw()
    assert first_sample(sys2, (0.3, -0.2), (0.7, 0.9)).phi[0].tolist() == [0.9]
    sys6 = counterexample_raw()
    p = [0, 0, 0, 1, 0, 0]
    assert first_sample(sys6, [0.1] * 6, p).phi[0].tolist() == [1.0, 0.0, 0.0]
    assert first_sample(sys6, [0.1] * 6, [0.0] * 6).phi[0].tolist() == [0.0, 0.0, 0.0]


def test_bang_bang_control_law():
    # on the vehicle phi_i is the adjoint of the i-th velocity state
    doc = json.loads((SYSTEMS_DIR / "counterexample.json").read_text())
    for bound, deadband, phi, u in (
        ("1", 0.0, (0.5, -0.2, 0.0), (1.0, -1.0, 0.0)),  # at phi = 0 the starting u = 0 holds
        ("2", 0.0, (1.0, 0.3, -0.1), (2.0, 2.0, -2.0)),
        ("1", 0.01, (0.001, -0.005, 0.02), (0.0, 0.0, 1.0)),  # and inside the deadband
    ):
        system = without_cost(load({**doc, "K": bound}))
        traj = first_sample(system, GENERIC_X0, (0.0, 0.0, 0.0, *phi), BangBang(deadband))
        assert traj.phi[0].tolist() == list(phi)
        assert traj.u[0].tolist() == list(u)


# ---------------------------------------------------------------------------
# integrate_extremal
# ---------------------------------------------------------------------------


def test_double_integrator_parabola():
    cfg = SimConfig(
        initial_state=(0, 0),
        initial_adjoint=(1, 0),
        horizon=1.0,
        step=1e-3,
        control_policy=FixedControl((1.0,)),
    )
    traj = integrate_extremal(di_raw(), cfg)
    assert traj.status == "ok"
    assert traj.samples == 1001
    assert abs(traj.x[-1, 0] - 0.5) < 1e-8
    assert abs(traj.x[-1, 1] - 1.0) < 1e-8


@pytest.mark.parametrize(
    "f1, value, slope, x1",
    [
        # the reduced normal form has terms sin(x1)^2j of sizes up to C(100, 50)
        ("cos(x1)^200", lambda x: math.cos(x) ** 200,
         lambda x: -200 * math.cos(x) ** 199 * math.sin(x), math.pi / 2 - 0.05),
        # expanded, the power has terms of up to C(60, 30) that cancel near x1 = -1
        ("x1 + (x1 + 1)^60", lambda x: x + (x + 1) ** 60,
         lambda x: 1 + 60 * (x + 1) ** 59, -0.95),
    ],
    ids=["cos-power", "power-of-a-sum"],
)
def test_an_ill_conditioned_expansion_integrates_as_written(f1, value, slope, x1):
    # errors near 1e14 (cos-power) or 1 (power-of-a-sum) in x2' and p1' if the
    # field were evaluated expanded; the extremal matches an RK4 of the field
    # as written and of its adjoint
    doc = {"states": ["x1", "x2"], "inputs": 1, "f": ["x2", f1], "g": [["0", "1"]]}
    x0, p0, h, steps = (x1, 1.0), (1.0, 1.0), 1e-3, 100
    cfg = SimConfig(initial_state=x0, initial_adjoint=p0, horizon=steps * h, step=h,
                    control_policy=FixedControl((0.0,)))
    traj = integrate_extremal(load(doc), cfg)
    assert traj.status == "ok"

    def rhs(z):
        x1, x2, p1, p2 = z
        return np.array([x2, value(x1), -slope(x1) * p2, -p1])

    z = np.array([*x0, *p0])
    reference = [z]
    for _ in range(steps):
        k1 = rhs(z)
        k2 = rhs(z + h / 2 * k1)
        k3 = rhs(z + h / 2 * k2)
        k4 = rhs(z + h * k3)
        z = z + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        reference.append(z)
    reference = np.array(reference)
    got = np.hstack([np.asarray(traj.x), np.asarray(traj.p)])
    assert got.shape == reference.shape
    assert np.max(np.abs(got - reference) / (1 + np.abs(reference))) < 1e-12


def test_simulating_compiles_the_jacobian_columns_that_brackets_read():
    # the integrator's Jacobians are the fields' normal-form columns, rendered
    from ctrlorder import normal

    system = counterexample_raw()
    cfg = SimConfig(initial_state=GENERIC_X0, initial_adjoint=GENERIC_P0, horizon=0.01)
    assert integrate_extremal(system, cfg).status == "ok"
    for field in (system.drift, *system.inputs):
        columns = field._normal[2]
        assert all(column is not None for column in columns)
        rendered = [tuple(map(normal.render, column)) for column in columns]
        assert field.jacobian == tuple(zip(*rendered))


def test_linear_drift_adjoint_closed_form():
    cfg = SimConfig(
        initial_state=(0.5, -0.2),
        initial_adjoint=(1, 0),
        horizon=1.0,
        step=1e-3,
        control_policy=FixedControl((0.0,)),
    )
    traj = integrate_extremal(di_raw(), cfg)
    assert abs(traj.p[-1, 0] - 1.0) < 1e-8
    assert abs(traj.p[-1, 1] + 1.0) < 1e-8


def test_hamiltonian_conserved_with_fixed_control():
    cfg = SimConfig(
        initial_state=GENERIC_X0,
        initial_adjoint=GENERIC_P0,
        horizon=1.0,
        step=1e-3,
        control_policy=FixedControl(FIXED_U3),
    )
    traj = integrate_extremal(counterexample_raw(), cfg)
    assert traj.status == "ok"
    assert np.max(np.abs(traj.H - traj.H[0])) < 1e-6


def test_controls_reject_non_finite_times_and_values():
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="fixed control values must be finite"):
            FixedControl((1.0, bad))
        with pytest.raises(ValueError, match="piecewise control times must be finite"):
            PiecewiseControl(((0.0, (1.0,)), (bad, (-1.0,))))
        with pytest.raises(ValueError, match="piecewise control values must be finite"):
            PiecewiseControl(((0.0, (bad,)),))


def test_controls_check_their_options():
    with pytest.raises(ValueError, match="^deadband must be >= 0$"):
        BangBang(-0.01)
    with pytest.raises(ValueError, match="^piecewise control table is empty$"):
        PiecewiseControl(())
    with pytest.raises(ValueError, match="^piecewise control times must be ascending$"):
        PiecewiseControl(((0.5, (1.0,)), (0.25, (-1.0,))))
    # equal start times are ascending: the later row applies from then on
    assert PiecewiseControl(((0.25, (1.0,)), (0.25, (-1.0,)))).at(0.25) == (-1.0,)


def test_hamiltonian_conserved_between_switches():
    table = ((0.0, (0.3, 0.5, 0.7)), (0.5, (-0.3, 0.5, -0.7)))
    cfg = SimConfig(
        initial_state=GENERIC_X0,
        initial_adjoint=GENERIC_P0,
        horizon=1.0,
        step=1e-3,
        control_policy=PiecewiseControl(table),
    )
    traj = integrate_extremal(counterexample_raw(), cfg)
    switch = np.searchsorted(traj.t, 0.5)
    first = traj.H[:switch]
    second = traj.H[switch + 1 :]
    assert np.max(np.abs(first - first[0])) < 1e-6
    assert np.max(np.abs(second - second[0])) < 1e-6


def test_phi_and_h_recomputed_from_samples():
    cfg = SimConfig(
        initial_state=GENERIC_X0,
        initial_adjoint=GENERIC_P0,
        horizon=0.05,
        step=1e-3,
        control_policy=FixedControl(FIXED_U3),
    )
    doc = json.loads((SYSTEMS_DIR / "counterexample.json").read_text())
    raw = {key: value for key, value in doc.items() if key != "cost"}
    traj = integrate_extremal(counterexample_raw(), cfg)
    assert traj.samples == 51
    for s in range(traj.samples):
        phi, h_val = document_phi_and_h(raw, traj.x[s], traj.p[s], traj.u[s])
        assert np.max(np.abs(np.asarray(phi) - traj.phi[s])) < 1e-12
        assert abs(h_val - traj.H[s]) < 1e-12


def reference_extremal(x0, p0, control, steps, h):
    """RK4 of the raw counterexample written out by hand: (x, p, u, phi, H) per sample.

    States (x, y, theta, v1, v2, Omega), u_k drives the (3 + k)-th state, and
    the control is frozen per step at control(t, phi, last_u).
    """

    def rhs(z, u):
        _, _, th, v1, v2, om, px, py, pth, _, _, _ = z
        c, s = math.cos(th), math.sin(th)
        return (
            v1 * c + v2 * s, v2 * c - v1 * s, om, u[0], u[1], u[2],
            0.0, 0.0, -(px * (v2 * c - v1 * s) - py * (v1 * c + v2 * s)),
            -(px * c - py * s), -(px * s + py * c), -pth,
        )

    z = [float(v) for v in (*x0, *p0)]
    rows = []
    last = (0.0, 0.0, 0.0)
    for k in range(steps + 1):
        phi = tuple(z[9:12])
        u = tuple(control(k * h, phi, last))
        k1 = rhs(z, u)
        # <p, f>: f is the first three entries of x' and zero below them
        energy = sum(pi * fi for pi, fi in zip(z[6:9], k1[:3])) + sum(
            ui * fi for ui, fi in zip(u, phi)
        )
        rows.append((z[:6], z[6:], u, phi, energy))
        last = u
        if k == steps:
            break
        k2 = rhs([a + 0.5 * h * b for a, b in zip(z, k1)], u)
        k3 = rhs([a + 0.5 * h * b for a, b in zip(z, k2)], u)
        k4 = rhs([a + h * b for a, b in zip(z, k3)], u)
        z = [
            a + h / 6.0 * (b1 + 2 * b2 + 2 * b3 + b4)
            for a, b1, b2, b3, b4 in zip(z, k1, k2, k3, k4)
        ]
    return [np.array(column) for column in zip(*rows)]


@pytest.mark.parametrize(
    "policy, control",
    [
        (FixedControl(FIXED_U3), lambda t, phi, last: FIXED_U3),
        (
            PiecewiseControl(((0.0, (0.3, 0.5, 0.7)), (0.5, (-0.3, 0.5, -0.7)))),
            lambda t, phi, last: (0.3, 0.5, 0.7) if t < 0.5 else (-0.3, 0.5, -0.7),
        ),
        (
            BangBang(),
            lambda t, phi, last: tuple(
                1.0 if f > 0 else -1.0 if f < 0 else l for f, l in zip(phi, last)
            ),
        ),
    ],
    ids=["fixed", "piecewise", "bang-bang"],
)
def test_integrator_matches_a_hand_written_rk4(policy, control):
    steps, h = 2000, 1e-3
    x0, p0 = GENERIC_X0, (1.0, 0.5, 0.25, 0.2, -0.1, 0.05)
    cfg = SimConfig(
        initial_state=x0, initial_adjoint=p0, horizon=steps * h, step=h, control_policy=policy
    )
    traj = integrate_extremal(counterexample_raw(), cfg)
    assert traj.status == "ok" and traj.samples == steps + 1
    ref_x, ref_p, ref_u, ref_phi, ref_h = reference_extremal(x0, p0, control, steps, h)
    # off phi = 0 on the grid, so last-bit rounding cannot flip a bang-bang switch
    assert np.min(np.abs(ref_phi)) > 1e-6
    assert np.array_equal(traj.u, ref_u)
    for got, ref in ((traj.x, ref_x), (traj.p, ref_p), (traj.phi, ref_phi), (traj.H, ref_h)):
        assert np.max(np.abs(got - ref) / (1.0 + np.abs(ref))) < 1e-12
    if isinstance(policy, BangBang):
        assert np.any(ref_u[1:] != ref_u[:-1])  # the run switches


@pytest.mark.parametrize("bound", ["1", "1 + t"])
@pytest.mark.parametrize("deadband", [0.0, 0.05])
def test_the_loop_applies_bang_bang_control_to_each_sample(bound, deadband):
    doc = json.loads((SYSTEMS_DIR / "counterexample.json").read_text())
    system = without_cost(load({**doc, "K": bound}))
    cfg = SimConfig(
        initial_state=GENERIC_X0, initial_adjoint=(1.0, 0.5, 0.25, 0.2, -0.1, 0.05),
        horizon=2.0, step=1e-3, control_policy=BangBang(deadband),
    )
    traj = integrate_extremal(system, cfg)
    assert traj.status == "ok"
    K = compile_components([system.bound], ("t",))
    last = (0.0, 0.0, 0.0)
    for s in range(traj.samples):
        last = sign_law(traj.phi[s].tolist(), K((float(traj.t[s]),))[0], last, deadband)
        assert traj.u[s].tolist() == list(last)
    assert np.any(traj.u[1:] != traj.u[:-1])  # the run switches
    held = (np.abs(traj.phi) <= deadband) & (traj.u != 0.0)
    assert np.any(held[1:]) == (deadband > 0)  # and holds inside the deadband


def patched_trig(monkeypatch, fail=()):
    """Patch math.sin and math.cos, which the generated loop binds when it is
    compiled, so that they record their arguments; the cos call whose number
    is in `fail` raises ZeroDivisionError instead."""
    calls = {"sin": [], "cos": []}

    def recorded(name, fn):
        def call(x):
            calls[name].append(x)
            if name == "cos" and len(calls[name]) in fail:
                raise ZeroDivisionError
            return fn(x)

        return call

    monkeypatch.setattr(math, "sin", recorded("sin", math.sin))
    monkeypatch.setattr(math, "cos", recorded("cos", math.cos))
    return calls


def test_one_compiled_call_per_sample_and_per_later_rk4_stage(monkeypatch):
    ext = counterexample_extended()
    cfg = SimConfig(
        initial_state=(0.0, *GENERIC_X0),
        initial_adjoint=(-1.0, *GENERIC_P0),
        horizon=0.01,
        step=1e-3,
    )
    calls = patched_trig(monkeypatch)
    traj = integrate_extremal(ext, cfg)
    assert traj.status == "ok" and traj.samples == 11
    # cos(theta) once for <p, f> and phi, once per RK4 stage; at the last
    # sample only stage 1 runs
    theta, omega = traj.x[:, 3], traj.x[:, 6]
    args = calls["cos"]
    assert len(args) == 5 * 10 + 2
    for s in range(11):
        assert args[5 * s] == args[5 * s + 1] == theta[s]  # sample and stage 1 at x[s]
        if s < 10:  # stage 2 at x[s] + (h/2) k1, and theta' = Omega
            assert args[5 * s + 2] == theta[s] + 0.5 * 1e-3 * omega[s]


def all_bundled_systems():
    """(name, system) for every system in systems/ and ctrlbench/systems/, raw and
    (where it has a running cost) cost-extended."""
    paths = sorted(SYSTEMS_DIR.glob("*.json"))
    paths += sorted((SYSTEMS_DIR.parent / "ctrlbench" / "systems").glob("*.json"))
    for path in paths:
        loaded = load(json.loads(path.read_text()))
        yield f"{path.stem}:raw", without_cost(loaded)
        if loaded.cost is not None:
            yield f"{path.stem}:extended", extend_with_cost(loaded)


def composed_rk4_step(rhs, y, u, h):
    """Four `rhs` calls composed as RK4, in the arithmetic order of the step code."""
    half, sixth = 0.5 * h, h / 6.0
    k1 = rhs(y + u)
    k2 = rhs([a + half * b for a, b in zip(y, k1)] + u)
    k3 = rhs([a + half * b for a, b in zip(y, k2)] + u)
    k4 = rhs([a + h * b for a, b in zip(y, k3)] + u)
    return [a + sixth * (b1 + 2.0 * b2 + 2.0 * b3 + b4) for a, b1, b2, b3, b4 in zip(y, k1, k2, k3, k4)]


@pytest.mark.parametrize("h", [1e-3, 0.3])
def test_step_equals_four_composed_rhs_stages_bit_for_bit(h):
    rng = random.Random(11)
    checked = 0
    for name, system in all_bundled_systems():
        exprs, _, state, controls = ctrlorder.simulate._coupled(system)
        rhs = compile_components(exprs, (*state, *controls))
        for _ in range(5):
            y = [rng.uniform(-1.0, 1.0) for _ in range(2 * system.n)]
            u = [rng.choice((-1.0, 0.0, 1.0)) * rng.uniform(0.5, 1.5) for _ in range(system.m)]
            cfg = SimConfig(
                initial_state=y[: system.n], initial_adjoint=y[system.n :], horizon=h, step=h,
                control_policy=FixedControl(u),
            )
            traj = integrate_extremal(system, cfg)  # one step: samples 0 and 1
            assert traj.status == "ok" and traj.samples == 2, name
            got = [*traj.x[1], *traj.p[1]]
            want = composed_rk4_step(rhs, y, u, h)
            assert list(map(float.hex, got)) == list(map(float.hex, want)), name
            checked += 1
    assert checked == 5 * 9  # 7 systems, 2 of them also cost-extended


def test_shared_sin_and_cos_are_evaluated_once_per_call(monkeypatch):
    systems = (counterexample_raw(), counterexample_extended())
    calls = patched_trig(monkeypatch)
    for system in systems:
        cfg = SimConfig(
            initial_state=[0.1 * (i + 1) for i in range(system.n)],
            initial_adjoint=[0.1 * (i + 1) for i in range(system.n, 2 * system.n)],
            horizon=5e-3,
            step=1e-3,
            control_policy=FixedControl(FIXED_U3),
        )
        calls["sin"].clear(), calls["cos"].clear()
        assert integrate_extremal(system, cfg).samples == 6
        # sin(theta) and cos(theta) once each per evaluation: <p, f> and phi,
        # and stage 1, at each of 6 samples; stages 2-4 in each of 5 steps
        assert (len(calls["sin"]), len(calls["cos"])) == (6 * 2 + 5 * 3,) * 2


def test_a_failing_stage_1_stores_no_sample_and_a_later_stage_keeps_it():
    fixed = FixedControl((0.0,))
    # 1/x1 evaluates at 1e-200, but its derivative's x1^2 underflows to 0: the
    # sample evaluates and stage 1 does not
    doc = {"states": ["x1"], "inputs": 1, "f": ["1/x1"], "g": [["0"]]}
    cfg = SimConfig(initial_state=(1e-200,), initial_adjoint=(1.0,), control_policy=fixed)
    traj = integrate_extremal(load(doc), cfg)
    assert (traj.status, traj.samples, traj.failure_time) == ("eval_error", 0, 0.0)
    # x1' = 1: stage 2 of the first step evaluates at x1 = h/2 = 0.125, where 8*x1 - 1 = 0
    doc = {"states": ["x1", "x2"], "inputs": 1, "f": ["1", "1/(8*x1 - 1)"], "g": [["0", "0"]]}
    cfg = SimConfig(
        initial_state=(0.0, 0.0), initial_adjoint=(1.0, 1.0), horizon=1.0, step=0.25,
        control_policy=fixed,
    )
    traj = integrate_extremal(load(doc), cfg)
    assert (traj.status, traj.samples, traj.failure_time) == ("eval_error", 1, 0.0)
    assert traj.x[0].tolist() == [0.0, 0.0]


@pytest.mark.parametrize(
    "fail, samples, failure_step",
    [
        # cos(theta) calls of step s: 5s + 1 for <p, f> and phi, 5s + 2..5s + 5 for the stages
        ({13}, 3, 2),  # stage 2 of step 2 fails: sample 2 is kept
        ({12}, 2, 2),  # stage 1 fails: sample 2 is not stored
        ({52}, 10, 10),  # stage 1 fails at the last sample: not stored
        ({11}, 2, 2),  # <p, f> and phi fail: sample 2 is not stored
    ],
)
def test_failure_rules_follow_stage_1(monkeypatch, fail, samples, failure_step):
    system = counterexample_raw()
    cfg = SimConfig(
        initial_state=GENERIC_X0, initial_adjoint=GENERIC_P0, horizon=0.01, step=1e-3,
        control_policy=FixedControl(FIXED_U3),
    )
    calls = patched_trig(monkeypatch, fail)
    traj = integrate_extremal(system, cfg)
    assert (traj.status, traj.samples) == ("eval_error", samples)
    assert traj.failure_time == failure_step * 1e-3
    assert len(calls["cos"]) == max(fail)  # nothing is evaluated after the failure


def time_varying_bound_trajectory(bound, horizon, step, p0):
    doc = json.loads((SYSTEMS_DIR / "double_integrator.json").read_text())
    cfg = SimConfig(
        initial_state=(0.0, 0.0), initial_adjoint=p0, horizon=horizon, step=step,
        control_policy=BangBang(),
    )
    return integrate_extremal(without_cost(load({**doc, "K": bound})), cfg)


def test_a_time_varying_bound_sets_the_bang_bang_magnitude():
    # phi = p2 = 0.4037 - t switches sign once, between grid points
    traj = time_varying_bound_trajectory("1 + t", 1.0, 1e-3, (1.0, 0.4037))
    assert traj.status == "ok" and traj.samples == 1001
    assert np.array_equal(np.abs(traj.u[:, 0]), 1.0 + traj.t)
    assert np.array_equal(np.sign(traj.u[:, 0]), np.sign(traj.phi[:, 0]))


def test_a_bound_reaching_zero_ends_the_run_with_eval_error():
    # K = 1 - t is 0 at t = 1, the 101st sample, where the sign law rejects it
    traj = time_varying_bound_trajectory("1 - t", 2.0, 0.01, (1.0, 0.5))
    assert (traj.status, traj.samples, traj.failure_time) == ("eval_error", 100, 1.0)
    assert np.array_equal(np.abs(traj.u[:, 0]), 1.0 - traj.t)


def test_divergence_flags_partial_trajectory():
    doc = {"states": ["x1"], "inputs": 1, "f": ["x1*x1"], "g": [["0"]]}
    sys1 = load(doc)
    cfg = SimConfig(
        initial_state=(3.0,),
        initial_adjoint=(1.0,),
        horizon=2.0,
        step=1e-3,
        control_policy=FixedControl((0.0,)),
    )
    traj = integrate_extremal(sys1, cfg)
    assert traj.status in ("diverged", "eval_error")
    assert traj.failure_time is not None
    assert 0 < traj.samples < 2001
    assert np.all(np.isfinite(traj.x))


@pytest.mark.parametrize(
    "f, p0, text",
    [
        (["1e200", "0"], (1e200, 0.0), "inf"),  # <p, f> = 1e200*1e200 overflows
        (["1e200", "-1e200"], (1e200, 1e200), "nan"),  # <p, f> = inf - inf
    ],
)
def test_non_finite_samples_are_stored_as_computed(tmp_path, f, p0, text):
    # x stays finite, so the run is ok; H is inf or nan at every sample
    doc = {"states": ["x1", "x2"], "inputs": 1, "f": f, "g": [["0", "1"]]}
    cfg = SimConfig(
        initial_state=(0.0, 0.0), initial_adjoint=p0, horizon=0.5, step=0.1,
        control_policy=FixedControl((1.0,)),
    )
    traj = integrate_extremal(load(doc), cfg)
    assert (traj.status, traj.samples) == ("ok", 6)
    for s in range(traj.samples):
        phi, h_val = document_phi_and_h(doc, traj.x[s], traj.p[s], traj.u[s])
        assert float(traj.H[s]).hex() == h_val.hex() == text
        assert [float(v).hex() for v in traj.phi[s]] == [v.hex() for v in phi]
    path = tmp_path / "traj.csv"
    traj.write_csv(path)
    rows = path.read_text().splitlines()[1:]
    assert len(rows) == 6 and all(row.endswith(f",{text}") for row in rows)


def test_input_field_overflowing_while_its_control_is_zero_diverges():
    # g = (0, x1*x2) is inf at x1 = x2 = 1e200; u*g = 0*inf is nan in x'
    doc = {"states": ["x1", "x2"], "inputs": 1, "f": ["0", "0"], "g": [["0", "x1*x2"]]}
    cfg = SimConfig(
        initial_state=(1e200, 1e200),
        initial_adjoint=(1.0, 1.0),
        horizon=0.01,
        step=1e-3,
        control_policy=FixedControl((0.0,)),
    )
    traj = integrate_extremal(load(doc), cfg)
    assert traj.status == "diverged"
    assert traj.failure_time == 1e-3
    assert traj.samples == 1
    assert traj.phi[0, 0] == math.inf
    assert traj.H[0] == 0.0  # u*phi is left out of H while u = 0


def test_integrate_rejects_pending_cost_and_bad_sizes():
    with pytest.raises(ValueError):
        integrate_extremal(
            double_integrator(),
            SimConfig(initial_state=(0, 0), initial_adjoint=(1, 0)),
        )
    with pytest.raises(ValueError):
        integrate_extremal(
            di_raw(), SimConfig(initial_state=(0, 0, 0), initial_adjoint=(1, 0, 0))
        )


def test_integrate_rejects_a_control_of_the_wrong_width():
    for policy, message in (
        (FixedControl((0.5, 0.5)), "fixed control must have dimension 1"),
        (
            PiecewiseControl(((0.0, (1.0,)), (0.5, (1.0, -1.0)))),
            "piecewise control rows must have dimension 1",
        ),
    ):
        config = SimConfig((0.0, 0.0), (1.0, 0.0), control_policy=policy)
        with pytest.raises(ValueError, match=f"^{message}$"):
            integrate_extremal(di_raw(), config)


def test_sim_config_validation():
    with pytest.raises(ValueError):
        SimConfig(initial_state=(0,), initial_adjoint=(1,), step=0.0)
    with pytest.raises(ValueError):
        SimConfig(initial_state=(0,), initial_adjoint=(1,), horizon=1e-6, step=1e-3)
    # a zero adjoint is allowed: lambda is -p_x0 of a cost-extended system
    SimConfig(initial_state=(0,), initial_adjoint=(0.0,))
    # the RK4 step count is capped, and a ratio that overflows is rejected
    SimConfig(initial_state=(0,), initial_adjoint=(1,), horizon=MAX_STEPS * 1e-3)
    with pytest.raises(ValueError, match="horizon/step"):
        SimConfig(initial_state=(0,), initial_adjoint=(1,), horizon=(MAX_STEPS + 1) * 1e-3)
    with pytest.raises(ValueError, match="horizon/step"):
        SimConfig(initial_state=(0,), initial_adjoint=(1,), horizon=1e300, step=1e-300)


def test_sim_config_checks_the_singular_options():
    for tolerance in (0.0, -1e-6, math.nan):
        with pytest.raises(ValueError, match="^singular_tolerance must be > 0$"):
            SimConfig((0.0,), (1.0,), singular_tolerance=tolerance)
    with pytest.raises(ValueError, match="^singular_min_length must be >= 0$"):
        SimConfig((0.0,), (1.0,), singular_min_length=-1e-3)
    assert SimConfig((0.0,), (1.0,), singular_min_length=0.0).resolved_min_length() == 0.0


def test_adjoint_scaling_leaves_bang_bang_control_invariant():
    base = None
    for c in (1.0, 2.0, 10.0):
        cfg = SimConfig(
            initial_state=GENERIC_X0,
            initial_adjoint=tuple(c * v for v in GENERIC_P0),
            horizon=1.0,
            step=1e-3,
            control_policy=BangBang(),
        )
        traj = integrate_extremal(counterexample_raw(), cfg)
        assert traj.status == "ok"
        if base is None:
            base = traj.u
        else:
            assert np.array_equal(base, traj.u)


def test_bang_bang_controls_take_bound_values():
    cfg = SimConfig(
        initial_state=GENERIC_X0,
        initial_adjoint=GENERIC_P0,
        horizon=0.5,
        step=1e-3,
        control_policy=BangBang(),
    )
    traj = integrate_extremal(counterexample_raw(), cfg)
    assert set(np.unique(traj.u)) <= {-1.0, 1.0}


# ---------------------------------------------------------------------------
# singular intervals
# ---------------------------------------------------------------------------


def test_invariantly_zero_phi_gives_full_interval():
    # a zero adjoint is allowed; phi stays identically zero
    cfg = SimConfig(
        initial_state=(0.2, -0.1),
        initial_adjoint=(0.0, 0.0),
        horizon=1.0,
        step=1e-3,
        control_policy=FixedControl((0.5,)),
    )
    traj = integrate_extremal(di_raw(), cfg)
    intervals = detect_singular_intervals(traj, cfg)
    assert intervals.per_input == (((0.0, 1.0),),)


def test_isolated_zero_crossing_is_not_singular():
    # p = (-1, t - 0.5): phi = p2 crosses zero transversally at t = 0.5
    cfg = SimConfig(
        initial_state=(0.0, 0.0),
        initial_adjoint=(-1.0, -0.5),
        horizon=1.0,
        step=1e-3,
        control_policy=FixedControl((0.0,)),
        singular_tolerance=1e-3,
    )
    traj = integrate_extremal(di_raw(), cfg)
    assert abs(traj.p[-1, 1] - 0.5) < 1e-8
    intervals = detect_singular_intervals(traj, cfg)
    assert intervals.per_input == ((),)


def test_empty_trajectory_gives_empty_intervals():
    traj = Trajectory(
        state_names=("x1",),
        input_count=2,
        step=1e-3,
        t=np.empty(0),
        x=np.empty((0, 1)),
        p=np.empty((0, 1)),
        u=np.empty((0, 2)),
        phi=np.empty((0, 2)),
        H=np.empty(0),
    )
    cfg = SimConfig(initial_state=(0.0,), initial_adjoint=(1.0,))
    assert detect_singular_intervals(traj, cfg).per_input == ((), ())


def reference_singular_intervals(traj, config):
    """The grid walk detect_singular_intervals replaced, kept as its reference."""
    min_length = config.resolved_min_length()
    per_input = []
    for i in range(traj.input_count):
        intervals = []
        mask = np.abs(traj.phi[:, i]) < config.singular_tolerance
        s = 0
        while s < traj.samples:
            if mask[s]:
                start = s
                while s + 1 < traj.samples and mask[s + 1]:
                    s += 1
                t0, t1 = float(traj.t[start]), float(traj.t[s])
                if t1 - t0 >= min_length:
                    intervals.append((t0, t1))
            s += 1
        per_input.append(tuple(intervals))
    return tuple(per_input)


@pytest.mark.parametrize("seed", range(20))
def test_singular_intervals_match_the_grid_walk_on_random_masks(seed):
    rng = np.random.default_rng(seed)
    samples, m = int(rng.integers(0, 60)), int(rng.integers(1, 4))
    # runs of |phi| < tol of every length, at either end too, nan included
    phi = np.where(rng.random((samples, m)) < rng.random(), 0.0, 1.0)
    phi[rng.random((samples, m)) < 0.05] = math.nan
    h = float(rng.choice([1e-3, 0.1, 0.3]))
    traj = Trajectory(
        state_names=("x1",), input_count=m, step=h, t=np.arange(samples) * h,
        x=np.zeros((samples, 1)), p=np.zeros((samples, 1)), u=np.zeros((samples, m)),
        phi=phi, H=np.zeros(samples),
    )
    for min_length in (None, 0.0, 2 * h, 5.5 * h):
        cfg = SimConfig(
            initial_state=(0.0,), initial_adjoint=(1.0,), step=h, horizon=1.0,
            singular_tolerance=0.5, singular_min_length=min_length,
        )
        got = detect_singular_intervals(traj, cfg).per_input
        assert got == reference_singular_intervals(traj, cfg)
        assert all(type(v) is float for runs in got for run in runs for v in run)


def test_intervals_invariant_under_appending_nonsingular_samples():
    cfg = SimConfig(
        initial_state=(0.2, -0.1),
        initial_adjoint=(0.0, 0.0),
        horizon=0.5,
        step=1e-3,
        control_policy=FixedControl((0.5,)),
    )
    traj = integrate_extremal(di_raw(), cfg)
    before = detect_singular_intervals(traj, cfg)
    extra = 50
    tail_t = traj.t[-1] + traj.step * np.arange(1, extra + 1)
    appended = Trajectory(
        state_names=traj.state_names,
        input_count=traj.input_count,
        step=traj.step,
        t=np.concatenate([traj.t, tail_t]),
        x=np.vstack([traj.x, np.tile(traj.x[-1], (extra, 1))]),
        p=np.vstack([traj.p, np.tile(traj.p[-1], (extra, 1))]),
        u=np.vstack([traj.u, np.tile(traj.u[-1], (extra, 1))]),
        phi=np.vstack([traj.phi, np.full((extra, 1), 10.0)]),
        H=np.concatenate([traj.H, np.full(extra, traj.H[-1])]),
    )
    after = detect_singular_intervals(appended, cfg)
    assert after.per_input == before.per_input


# ---------------------------------------------------------------------------
# local order along arcs
# ---------------------------------------------------------------------------


def local_orders(system, traj, k_max, samples=None):
    """local_order_at at each sample (all by default); a repeated (x, p) row is
    evaluated once."""
    seen, out = {}, []
    for s in range(traj.samples) if samples is None else samples:
        row = (*traj.x[s].tolist(), *traj.p[s].tolist())
        if row not in seen:
            seen[row] = local_order_at(system, traj.x[s], traj.p[s], k_max, 1e-9)
        out.append(seen[row])
    return out


def test_arc_consensus_on_generic_samples():
    cfg = SimConfig(
        initial_state=GENERIC_X0,
        initial_adjoint=GENERIC_P0,
        horizon=0.2,
        step=1e-3,
        control_policy=FixedControl(FIXED_U3),
    )
    sys6 = counterexample_raw()
    traj = integrate_extremal(sys6, cfg)
    results = local_orders(sys6, traj, 4)
    assert len(results) == traj.samples == 201
    assert all(r.found and r.k_local == 3 for r in results)


def stay_at_origin_trajectory():
    ext = counterexample_extended()
    cfg = SimConfig(
        initial_state=(0.0,) * 7,
        initial_adjoint=(-1.0,) + (0.0,) * 6,
        horizon=1.0,
        step=1e-3,
        control_policy=BangBang(),
    )
    return ext, cfg, integrate_extremal(ext, cfg)


def test_stay_at_origin_arc_is_fully_singular_with_degenerate_b3():
    ext, cfg, traj = stay_at_origin_trajectory()
    assert traj.status == "ok"
    assert np.max(np.abs(traj.x)) == 0.0
    assert np.max(np.abs(traj.phi)) == 0.0
    intervals = detect_singular_intervals(traj, cfg)
    assert intervals.per_input == (((0.0, 1.0),),) * 3
    # B_1, B_2 and B_3 stay under 1e-9 * max|p| = 1e-9 at every sample
    assert not any(r.found for r in local_orders(ext, traj, 3))
    # one level deeper the pairing becomes visible again, on [0.9, 1.0]
    tail = np.flatnonzero(traj.t >= 0.9 - 1e-9)
    assert len(tail) == 101
    assert all(r.found and r.k_local == 4 for r in local_orders(ext, traj, 5, tail))


def test_an_arc_compiles_one_program_per_level(monkeypatch):
    # one program per level holds every b-field of it: 3 x 3 fields of 7 components
    ext, _, traj = stay_at_origin_trajectory()
    sizes = []

    def counted(exprs, var_order):
        sizes.append(len(exprs))
        return compile_components(exprs, var_order)

    monkeypatch.setattr(ctrlorder.order, "compile_components", counted)
    result = local_order_at(ext, traj.x[-1], traj.p[-1], 5, 1e-9)
    assert result.found and result.k_local == 4
    assert sizes == [63] * 4


def test_arc_single_sample_consensus():
    cfg = SimConfig(
        initial_state=GENERIC_X0,
        initial_adjoint=GENERIC_P0,
        horizon=0.01,
        step=1e-3,
        control_policy=FixedControl(FIXED_U3),
    )
    sys6 = counterexample_raw()
    traj = integrate_extremal(sys6, cfg)
    (s,) = np.flatnonzero(np.abs(traj.t - 0.005) <= 1e-9)
    result = local_order_at(sys6, traj.x[s], traj.p[s], 4, 1e-9)
    assert result.found and result.k_local == 3


# ---------------------------------------------------------------------------
# derivative-law residual (check_lemma1)
# ---------------------------------------------------------------------------


def fixed_u_trajectory(step=1e-3):
    sys6 = counterexample_raw()
    cfg = SimConfig(
        initial_state=GENERIC_X0,
        initial_adjoint=GENERIC_P0,
        horizon=1.0,
        step=step,
        control_policy=FixedControl(FIXED_U3),
    )
    return sys6, integrate_extremal(sys6, cfg)


def switching_trajectory(step=1e-3):
    # phi = p2 = 0.3 - t on the double integrator: bang-bang u switches from 1 to -1
    system = without_cost(double_integrator())
    cfg = SimConfig((0.0, 0.0), (1.0, 0.3), horizon=1.0, step=step, control_policy=BangBang())
    return system, integrate_extremal(system, cfg)


def worst_residual(system, traj, field) -> float:
    residual, _ = check_lemma1(system, traj, field)
    return float(np.nanmax(np.abs(residual)))


def loop_residual(system, traj, field):
    """The residual one sample at a time, as a reference for check_lemma1's arrays."""
    fields = (field, lie_bracket(system.drift, field))
    fields += tuple(lie_bracket(g, field) for g in system.inputs)
    fn = compile_components([c for vf in fields for c in vf.components], system.state_names)
    values = [np.reshape(fn(x), (-1, system.n)) for x in traj.x.tolist()]
    inner = [float(traj.p[s] @ values[s][0]) for s in range(traj.samples)]
    residual = np.full(traj.samples, np.nan)
    for s in range(1, traj.samples - 1):
        if not np.array_equal(traj.u[s - 1], traj.u[s]):
            continue
        rhs = values[s][1] + sum(traj.u[s, i] * values[s][2 + i] for i in range(system.m))
        residual[s] = (inner[s + 1] - inner[s - 1]) / (2.0 * traj.step) - traj.p[s] @ rhs
    return residual


def test_lemma1_residual_matches_the_per_sample_loop():
    # the same arithmetic in another summation order: equal to a few eps of the scale
    for system, traj in (fixed_u_trajectory(), switching_trajectory()):
        for field in (*system.inputs, system.drift):
            residual, scale = check_lemma1(system, traj, field)
            want = loop_residual(system, traj, field)
            assert np.array_equal(np.isnan(residual), np.isnan(want))
            assert np.nanmax(np.abs(residual - want)) <= 8 * np.finfo(float).eps * scale


def test_lemma1_residual_small_for_input_fields_and_drift():
    sys6, traj = fixed_u_trajectory()
    for field in (*sys6.inputs, sys6.drift):
        assert worst_residual(sys6, traj, field) < 1e-4
    # across a switch <p, f> has a kink, and the samples next to it are skipped
    system, traj = switching_trajectory()
    assert set(traj.u[:, 0]) == {-1.0, 1.0}
    for field in (*system.inputs, system.drift):
        residual, _ = check_lemma1(system, traj, field)
        switches = np.flatnonzero(np.diff(traj.u[:, 0])) + 1
        assert np.isnan(residual[[0, *switches, -1]]).all()
        assert worst_residual(system, traj, field) < 1e-4


def test_lemma1_inner_product_with_drift_conserved_when_uncontrolled():
    sys6 = counterexample_raw()
    cfg = SimConfig(
        initial_state=GENERIC_X0,
        initial_adjoint=GENERIC_P0,
        horizon=1.0,
        step=1e-3,
        control_policy=FixedControl((0.0, 0.0, 0.0)),
    )
    traj = integrate_extremal(sys6, cfg)
    assert worst_residual(sys6, traj, sys6.drift) < 1e-4
    # <p, f> is a first integral here; verify directly as well
    fn = compile_components(sys6.drift.components, sys6.state_names)
    inner = np.array([traj.p[s] @ np.asarray(fn(traj.x[s])) for s in range(traj.samples)])
    assert np.max(np.abs(inner - inner[0])) < 1e-8


def test_lemma1_zero_field_residual_exactly_zero():
    sys6, traj = fixed_u_trajectory()
    residual, scale = check_lemma1(sys6, traj, VectorField.zero(sys6.state_names))
    assert np.nanmax(np.abs(residual)) == 0.0 and scale == 0.0


def test_lemma1_residual_contracts_with_step():
    sys6, coarse = fixed_u_trajectory(step=1e-3)
    _, fine = fixed_u_trajectory(step=5e-4)
    for field in (*sys6.inputs, sys6.drift):
        r_coarse = worst_residual(sys6, coarse, field)
        r_fine = worst_residual(sys6, fine, field)
        assert r_fine <= r_coarse / 3.0


def test_lemma1_needs_three_samples():
    sys6, traj = fixed_u_trajectory()
    short = Trajectory(
        state_names=traj.state_names,
        input_count=traj.input_count,
        step=traj.step,
        t=traj.t[:2],
        x=traj.x[:2],
        p=traj.p[:2],
        u=traj.u[:2],
        phi=traj.phi[:2],
        H=traj.H[:2],
    )
    with pytest.raises(ValueError):
        check_lemma1(sys6, short, sys6.drift)


def test_lemma1_checks_h_and_reports_a_division_by_zero():
    system, traj = switching_trajectory()  # from x = (0, 0)
    with pytest.raises(ValueError, match="^h must live on the system's state coordinates$"):
        check_lemma1(system, traj, VectorField.from_strings(("x1", "y"), ["0", "1"]))
    with pytest.raises(EvalError) as err:
        check_lemma1(system, traj, VectorField.from_strings(("x1", "x2"), ["1/x1", "0"]))
    assert str(err.value) == "lemma 1's h, [f, h] or [g_i, h] hit a division by zero on the extremal"
    # a float product past the float range is inf, not an OverflowError
    big = traj.replace(x=np.full_like(traj.x, 1e200))
    with pytest.raises(EvalError, match="^lemma 1's h, \\[f, h\\] or \\[g_i, h\\] overflowed on"):
        check_lemma1(system, big, VectorField.from_strings(("x1", "x2"), ["x1*x2", "0"]))


# ---------------------------------------------------------------------------
# derivative chain consistency: phi''' = A_3 + B_3 u on the counterexample
# ---------------------------------------------------------------------------


def test_third_derivative_matches_switching_coefficients():
    sys6, traj = fixed_u_trajectory()
    h = traj.step
    table = BracketTable(sys6.drift, sys6.inputs)
    a_fns = [compile_components(table.ad(i, 3).components, sys6.state_names) for i in range(3)]
    u = np.asarray(FIXED_U3)
    for s in range(2, traj.samples - 2, 97):
        stencil = (
            -traj.phi[s - 2] + 2 * traj.phi[s - 1] - 2 * traj.phi[s + 1] + traj.phi[s + 2]
        ) / (2 * h**3)
        local = local_order_at(sys6, traj.x[s], traj.p[s], 3, 1e-9)
        assert local.k_local == 3
        b3 = np.array(local.b_values)
        a3 = np.array([float(traj.p[s] @ np.asarray(fn(traj.x[s]))) for fn in a_fns])
        predicted = a3 + b3 @ u
        assert np.max(np.abs(stencil - predicted)) < 1e-4


# ---------------------------------------------------------------------------
# trajectory export
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("samples", [0, 1, 256, 257, 600])
def test_write_csv_is_byte_identical_to_savetxt(tmp_path, samples):
    rng = np.random.default_rng(samples)
    table = rng.normal(size=(samples, 8)) * 10.0 ** rng.integers(-300, 300, size=(samples, 8))
    specials = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, 1e308, 0.1]
    table.ravel()[: min(table.size, len(specials))] = specials[: table.size]
    traj = Trajectory(
        state_names=("a", "b"), input_count=1, step=1e-3, t=table[:, 0], x=table[:, 1:3],
        p=table[:, 3:5], u=table[:, 5:6], phi=table[:, 6:7], H=table[:, 7],
    )
    path = tmp_path / "traj.csv"
    traj.write_csv(path)
    reference = io.StringIO()
    reference.write("t,x_a,x_b,p_a,p_b,u_1,phi_1,H\n")
    np.savetxt(reference, table, fmt="%.17g", delimiter=",")
    assert path.read_bytes() == reference.getvalue().encode()


def test_write_csv_memory_is_bounded_by_the_block(tmp_path):
    # the vehicle's 22 columns: t, 7 x, 7 p, 3 u, 3 phi, H
    rng = np.random.default_rng(0)
    samples = 20_000
    columns = dict(
        t=rng.normal(size=samples), x=rng.normal(size=(samples, 7)),
        p=rng.normal(size=(samples, 7)), u=rng.normal(size=(samples, 3)),
        phi=rng.normal(size=(samples, 3)), H=rng.normal(size=samples),
    )
    traj = Trajectory(state_names=tuple("abcdefg"), input_count=3, step=1e-3, **columns)
    table_bytes = sum(c.nbytes for c in columns.values())
    tracemalloc.start()
    try:
        traj.write_csv(tmp_path / "traj.csv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < table_bytes / 4


def test_write_csv_format(tmp_path):
    cfg = SimConfig(
        initial_state=(0, 0),
        initial_adjoint=(1, 0),
        horizon=0.01,
        step=1e-3,
        control_policy=FixedControl((1.0,)),
    )
    traj = integrate_extremal(di_raw(), cfg)
    path = tmp_path / "traj.csv"
    traj.write_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,x_x1,x_x2,p_x1,p_x2,u_1,phi_1,H"
    assert len(lines) == traj.samples + 1
    last = [float(v) for v in lines[-1].split(",")]
    assert abs(last[1] - traj.x[-1, 0]) < 1e-16
    # 17 significant digits survive a float round trip
    assert last[1] == traj.x[-1, 0]
