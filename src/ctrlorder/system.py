"""Affine control systems: drift, input fields, optional running cost, bound.

A system models dynamics x' = f(x) + sum_i g_i(x) u_i with |u_i| <= K(t).
An optional running cost (f0, g0_i) can be absorbed into an extra leading
state coordinate "x0", raising the dimension by one; the adjoint component
paired with x0 then stays constant because nothing depends on x0.

`load` converts every input to its normal form and keeps no parsed tree:
f and the g_i once, in one `Ring`, and the cost and the bound K as the
trees rendered from the forms it checks.  So what `validate` checks, the
integrator compiles and `to_document` prints is what `load` checked, and a
division by zero or a constant that cannot be printed is a load error that
names its field.
"""

from __future__ import annotations

import random
from typing import Any, Mapping

from .expr import _FUNCTION_NAMES, _IDENT_RE, Expr, ExprError, Record, evaluator, parse, to_text
from .expr import variables
from .fields import VectorField
from .normal import Rat, Ring, check_input, render

_RESERVED_TIME_NAME = "t"
_COST_STATE_NAME = "x0"


class SystemLoadError(ValueError):
    """Document rejected; `location` points into the offending field."""

    def __init__(self, message: str, location: str):
        super().__init__(f"{location}: {message}")
        self.location = location


class CostSpec(Record):
    f0: Expr
    g0: tuple[Expr, ...]


class ControlSystem(Record):
    state_names: tuple[str, ...]
    drift: VectorField
    inputs: tuple[VectorField, ...]
    cost: CostSpec | None
    bound: Expr | None
    label: str

    def __init__(
        self,
        state_names: tuple[str, ...],
        drift: VectorField,
        inputs: tuple[VectorField, ...],
        cost: CostSpec | None = None,
        bound: Expr | None = None,  # expression over "t"; None means the constant 1
        label: str = "",
    ):
        state_names = tuple(state_names)
        inputs = tuple(inputs)
        if drift.state_names != state_names:
            raise ValueError("drift coordinates do not match the system states")
        if len(inputs) < 1:
            raise ValueError("at least one input field is required")
        for i, g in enumerate(inputs):
            if g.state_names != state_names:
                raise ValueError(f"input field {i} coordinates do not match the states")
        if cost is not None:
            if len(cost.g0) != len(inputs):
                raise ValueError("cost needs one g0 entry per input")
            for e in (cost.f0, *cost.g0):
                extra = variables(e) - set(state_names)
                if extra:
                    raise ValueError(f"cost uses undeclared variables {sorted(extra)}")
        if bound is not None:
            extra = variables(bound) - {_RESERVED_TIME_NAME}
            if extra:
                raise ValueError(f"bound K may only use '{_RESERVED_TIME_NAME}', got {sorted(extra)}")
        super().__init__(state_names, drift, inputs, cost, bound, label)

    @property
    def n(self) -> int:
        return len(self.state_names)

    @property
    def m(self) -> int:
        return len(self.inputs)


def without_cost(sys: ControlSystem) -> ControlSystem:
    """The same dynamics with any running cost dropped."""
    return sys.replace(cost=None)


def _parse_field(text: str, ring: Ring, location: str) -> Rat:
    """The normal form (`ring.convert`) of one field over the ring's states,
    which must not divide by zero, and whose constants must be within the
    float range and print, exponents at most MAX_EXPONENT and size within the
    normal form's caps (`check_input`)."""
    try:
        form = ring.convert(parse(text, ring.names))
        check_input(form)
    except ExprError as err:
        raise SystemLoadError(str(err), location) from err
    return form


def load(document: Mapping[str, Any]) -> ControlSystem:
    """Build a validated system from a key-value document (see README schema)."""
    if not isinstance(document, Mapping):
        raise SystemLoadError("document must be a key-value mapping", "$")
    known = {"states", "inputs", "f", "g", "cost", "K", "label"}
    for key in document:
        if key not in known:
            raise SystemLoadError(f"unknown key '{key}'", str(key))

    states = document.get("states")
    if not isinstance(states, list) or not states:
        raise SystemLoadError("'states' must be a non-empty list of names", "states")
    seen: set[str] = set()
    for i, name in enumerate(states):
        if not isinstance(name, str) or not name:
            raise SystemLoadError("state names must be non-empty strings", f"states[{i}]")
        if not _IDENT_RE.fullmatch(name):
            raise SystemLoadError(f"'{name}' is not a valid identifier", f"states[{i}]")
        if name in seen:
            raise SystemLoadError(f"duplicate state name '{name}'", f"states[{i}]")
        seen.add(name)
    names = tuple(states)
    n = len(names)
    ring = Ring(names)  # one for the whole system, which its analyses share

    m = document.get("inputs")
    if not isinstance(m, int) or isinstance(m, bool) or m < 1:
        raise SystemLoadError("'inputs' must be an integer >= 1", "inputs")

    def parse_at(text: Any, location: str) -> Rat:
        if not isinstance(text, str):
            raise SystemLoadError("expected an expression string", location)
        return _parse_field(text, ring, location)

    def field(texts: list, location: str) -> VectorField:
        forms = (parse_at(t, f"{location}[{i}]") for i, t in enumerate(texts))
        return VectorField._of_normal(names, ring, forms)

    f_doc = document.get("f")
    if not isinstance(f_doc, list) or len(f_doc) != n:
        raise SystemLoadError(f"'f' must list {n} expression strings", "f")
    drift = field(f_doc, "f")

    g_doc = document.get("g")
    if not isinstance(g_doc, list) or len(g_doc) != m:
        raise SystemLoadError(f"'g' must list {m} input fields", "g")
    inputs = []
    for i, row in enumerate(g_doc):
        if not isinstance(row, list) or len(row) != n:
            raise SystemLoadError(f"input field must list {n} expression strings", f"g[{i}]")
        inputs.append(field(row, f"g[{i}]"))

    cost = None
    cost_doc = document.get("cost")
    if cost_doc is not None:
        if not isinstance(cost_doc, Mapping) or set(cost_doc) - {"f0", "g0"}:
            raise SystemLoadError("'cost' must be a mapping with keys f0 and g0", "cost")
        f0 = render(parse_at(cost_doc.get("f0"), "cost.f0"))
        g0_doc = cost_doc.get("g0")
        if not isinstance(g0_doc, list) or len(g0_doc) != m:
            raise SystemLoadError(f"'cost.g0' must list {m} expression strings", "cost.g0")
        g0 = tuple(render(parse_at(t, f"cost.g0[{i}]")) for i, t in enumerate(g0_doc))
        cost = CostSpec(f0, g0)

    bound, text = None, document.get("K")
    if text is not None:
        if not isinstance(text, str):
            raise SystemLoadError("'K' must be an expression string in 't'", "K")
        bound = render(_parse_field(text, Ring((_RESERVED_TIME_NAME,)), "K"))

    label = document.get("label", "")
    if not isinstance(label, str):
        raise SystemLoadError("'label' must be a string", "label")

    return ControlSystem(names, drift, tuple(inputs), cost, bound, label)


def to_document(sys: ControlSystem) -> dict:
    """Serialize back to the document schema (expressions via to_text)."""
    doc: dict[str, Any] = {
        "states": list(sys.state_names),
        "inputs": sys.m,
        "f": [to_text(c) for c in sys.drift.components],
        "g": [[to_text(c) for c in g.components] for g in sys.inputs],
    }
    if sys.cost is not None:
        doc["cost"] = {
            "f0": to_text(sys.cost.f0),
            "g0": [to_text(e) for e in sys.cost.g0],
        }
    if sys.bound is not None:
        doc["K"] = to_text(sys.bound)
    if sys.label:
        doc["label"] = sys.label
    return doc


def extend_with_cost(sys: ControlSystem) -> ControlSystem:
    """Absorb the running cost into a new leading state "x0".

    The drift becomes (f0, f) and input i becomes (g0_i, g_i); the result
    carries no cost and is one dimension larger.
    """
    if sys.cost is None:
        raise ValueError("system has no running cost to absorb")
    if _COST_STATE_NAME in sys.state_names:
        raise ValueError(f"state name '{_COST_STATE_NAME}' already taken")
    names = (_COST_STATE_NAME, *sys.state_names)
    ring = Ring(names)  # one for the extended system, as `load` makes

    def field(trees) -> VectorField:
        return VectorField._of_normal(names, ring, map(ring.convert, trees))

    drift = field((sys.cost.f0, *sys.drift.components))
    inputs = tuple(field((g0, *g.components)) for g0, g in zip(sys.cost.g0, sys.inputs))
    return ControlSystem(names, drift, inputs, None, sys.bound, sys.label)


class Finding(Record):
    severity: str  # "error" | "warning"
    message: str
    location: str


class ValidationReport(Record):
    findings: tuple[Finding, ...]

    @property
    def ok(self) -> bool:
        return not any(f.severity == "error" for f in self.findings)

    def errors(self) -> tuple[Finding, ...]:
        return tuple(f for f in self.findings if f.severity == "error")


_K_SAMPLES = 100
_PROBE_SEED = 412739


def validate(sys: ControlSystem, horizon: float) -> ValidationReport:
    """Check names, bound positivity on [0, horizon], and evaluability."""
    if not horizon > 0:
        raise ValueError("horizon must be positive")
    findings: list[Finding] = []

    for i, name in enumerate(sys.state_names):
        if name == _RESERVED_TIME_NAME:
            message = "state named 't' shadows the bound's time variable"
        elif name in _FUNCTION_NAMES:
            message = f"state named '{name}' collides with a function name"
        else:
            continue
        findings.append(Finding("warning", message, f"states[{i}]"))

    if sys.bound is not None:
        bound = evaluator([sys.bound])
        # a K without t is one value: its first sample decides it
        samples = _K_SAMPLES if variables(sys.bound) else 1
        for s in range(samples):
            t = horizon * s / (_K_SAMPLES - 1)
            try:
                (value,) = bound({_RESERVED_TIME_NAME: t})
            except ExprError as err:
                findings.append(Finding("error", f"bound K failed to evaluate: {err}", "K"))
                break
            if not value > 0:
                findings.append(
                    Finding("error", f"bound K is not strictly positive at t={t:.6g}", "K")
                )
                break

    rng = random.Random(_PROBE_SEED)
    probe = {name: rng.uniform(-1.0, 1.0) for name in sys.state_names}
    targets: list[tuple[Expr, str]] = [
        (comp, f"f[{i}]") for i, comp in enumerate(sys.drift.components)
    ]
    for i, g in enumerate(sys.inputs):
        targets.extend((comp, f"g[{i}][{j}]") for j, comp in enumerate(g.components))
    if sys.cost is not None:
        targets.append((sys.cost.f0, "cost.f0"))
        targets.extend((e, f"cost.g0[{i}]") for i, e in enumerate(sys.cost.g0))
    for e, location in targets:
        try:
            evaluator([e])(probe)
        except ExprError as err:
            findings.append(
                Finding("error", f"failed to evaluate at a random interior point: {err}", location)
            )

    return ValidationReport(tuple(findings))
