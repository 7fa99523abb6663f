"""Shared test utilities: canned systems, random generators, finite differences,
and a float oracle of H, phi and the sign law."""

from __future__ import annotations

import json
import math
import random
from fractions import Fraction
from pathlib import Path

import numpy as np

from ctrlorder import (
    Constant,
    ControlSystem,
    Expr,
    IntPower,
    Negate,
    Product,
    Quotient,
    Sin,
    Cos,
    Exp,
    Sum,
    Variable,
    VectorField,
    const,
    evaluate,
    extend_with_cost,
    load,
    without_cost,
)

SYSTEMS_DIR = Path(__file__).resolve().parents[1] / "systems"


def strict_json(text: str):
    """json.loads that rejects NaN and Infinity."""

    def reject(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    return json.loads(text, parse_constant=reject)


def load_system(name: str) -> ControlSystem:
    return load(json.loads((SYSTEMS_DIR / f"{name}.json").read_text()))


def counterexample_raw() -> ControlSystem:
    return without_cost(load_system("counterexample"))


def counterexample_extended() -> ControlSystem:
    return extend_with_cost(load_system("counterexample"))


def fuller() -> ControlSystem:
    return load_system("fuller")


def double_integrator() -> ControlSystem:
    return load_system("double_integrator")


def commuting() -> ControlSystem:
    return load_system("commuting")


def half_integer() -> ControlSystem:
    return load_system("half_integer")


# ---------------------------------------------------------------------------
# Random expressions
# ---------------------------------------------------------------------------


def random_expr(
    rng: random.Random,
    names: tuple[str, ...],
    depth: int,
    allow_quotient: bool = True,
    allow_trig: bool = True,
    exp_budget: int = 1,
) -> Expr:
    """Random tree with bounded constants so values stay O(1e3) on [-1, 1]^n."""
    if depth <= 0 or rng.random() < 0.3:
        if rng.random() < 0.4:
            kind = rng.random()
            if kind < 0.5:
                return const(rng.randint(-2, 2))
            if kind < 0.8:
                return Constant(Fraction(rng.randint(-4, 4), rng.randint(1, 4)))
            return Constant(round(rng.uniform(-2.0, 2.0), 3))
        return Variable(rng.choice(names))

    def sub(budget=exp_budget):
        return random_expr(rng, names, depth - 1, allow_quotient, allow_trig, budget)

    choices = ["sum", "product", "negate", "power"]
    if allow_trig:
        choices += ["sin", "cos"]
        if exp_budget > 0:
            choices.append("exp")
    if allow_quotient:
        choices.append("quotient")
    kind = rng.choice(choices)
    if kind == "sum":
        return Sum(tuple(sub() for _ in range(rng.randint(2, 3))))
    if kind == "product":
        return Product(tuple(sub() for _ in range(2)))
    if kind == "negate":
        return Negate(sub())
    if kind == "power":
        return IntPower(sub(), rng.randint(2, 3))
    if kind == "sin":
        return Sin(sub())
    if kind == "cos":
        return Cos(sub())
    if kind == "exp":
        return Exp(sub(0))
    # quotient: denominator bounded away from zero on the sampling box
    den = Sum((IntPower(Variable(rng.choice(names)), 2), const(rng.randint(1, 3))))
    return Quotient(sub(), den)


def random_binding(rng: random.Random, names) -> dict[str, float]:
    return {n: rng.uniform(-1.0, 1.0) for n in names}


# ---------------------------------------------------------------------------
# Random polynomial fields and systems
# ---------------------------------------------------------------------------


def random_polynomial(
    rng: random.Random,
    names: tuple[str, ...],
    max_monomials: int = 3,
    degree: int = 2,
    exclude_square_of: str | None = None,
) -> Expr:
    """Sparse integer-coefficient polynomial, monomial degree <= `degree`."""
    terms: list[Expr] = []
    for _ in range(rng.randint(0, max_monomials)):
        coeff = rng.choice([-2, -1, 1, 2])
        d = rng.randint(0, degree)
        while True:
            factors = [rng.choice(names) for _ in range(d)]
            if exclude_square_of is None or factors.count(exclude_square_of) < 2:
                break
        term: Expr = const(coeff)
        for name in factors:
            term = Product((term, Variable(name)))
        terms.append(term)
    if not terms:
        return const(0)
    if len(terms) == 1:
        return terms[0]
    return Sum(tuple(terms))


def random_poly_field(
    rng: random.Random, names: tuple[str, ...], **kwargs
) -> VectorField:
    return VectorField(
        names, tuple(random_polynomial(rng, names, **kwargs) for _ in names)
    )


def random_single_input_system(rng: random.Random) -> ControlSystem:
    """n <= 4 states, degree <= 2 monomials, integer coefficients in [-2, 2]."""
    n = rng.randint(2, 4)
    names = tuple(f"x{i + 1}" for i in range(n))
    drift = random_poly_field(rng, names, max_monomials=2)
    g = random_poly_field(rng, names, max_monomials=2)
    return ControlSystem(names, drift, (g,))


def random_k2_system(rng: random.Random) -> ControlSystem:
    """Single input with [g, ad_f g] = 0 by construction (so k* >= 2).

    g is a constant coordinate direction e_d and no drift component carries
    an x_d^2 monomial, which makes the second drift derivative along e_d
    vanish identically.
    """
    n = rng.randint(2, 4)
    names = tuple(f"x{i + 1}" for i in range(n))
    d = rng.randrange(n)
    drift = VectorField(
        names,
        tuple(
            random_polynomial(rng, names, max_monomials=2, exclude_square_of=names[d])
            for _ in names
        ),
    )
    g = VectorField(names, tuple(const(1 if i == d else 0) for i in range(n)))
    return ControlSystem(names, drift, (g,))


# ---------------------------------------------------------------------------
# Malformed documents
# ---------------------------------------------------------------------------

# the double integrator with a running cost, a bound and a label: every key `load` reads
WELL_FORMED_DOCUMENT = {
    "states": ["x1", "x2"],
    "inputs": 1,
    "f": ["x2", "0"],
    "g": [["0", "1"]],
    "cost": {"f0": "x1^2", "g0": ["0"]},
    "K": "1",
    "label": "double integrator",
}


def _malformed(**changes) -> dict:
    return {**WELL_FORMED_DOCUMENT, **changes}


def _without(key: str) -> dict:
    return {k: v for k, v in WELL_FORMED_DOCUMENT.items() if k != key}


# (id, document, the location and the message of the SystemLoadError it raises)
MALFORMED_DOCUMENTS = [
    ("list-document", [WELL_FORMED_DOCUMENT], "$", "document must be a key-value mapping"),
    ("string-document", "x1", "$", "document must be a key-value mapping"),
    ("no-states", _without("states"), "states", "'states' must be a non-empty list of names"),
    ("empty-states", _malformed(states=[]), "states", "'states' must be a non-empty list of names"),
    ("string-states", _malformed(states="x1"), "states", "'states' must be a non-empty list of names"),
    ("number-state", _malformed(states=["x1", 2]), "states[1]", "state names must be non-empty strings"),
    ("empty-state", _malformed(states=["", "x2"]), "states[0]", "state names must be non-empty strings"),
    ("number-f", _malformed(f=["x2", 0]), "f[1]", "expected an expression string"),
    ("null-g-entry", _malformed(g=[["0", None]]), "g[0][1]", "expected an expression string"),
    ("no-f0", _malformed(cost={"g0": ["0"]}), "cost.f0", "expected an expression string"),
    (
        "number-g0",
        _malformed(cost={"f0": "x1^2", "g0": [1]}),
        "cost.g0[0]",
        "expected an expression string",
    ),
    ("empty-g", _malformed(g=[]), "g", "'g' must list 1 input fields"),
    ("string-g", _malformed(g="0, 1"), "g", "'g' must list 1 input fields"),
    ("short-g-row", _malformed(g=[["0"]]), "g[0]", "input field must list 2 expression strings"),
    ("string-g-row", _malformed(g=["0, 1"]), "g[0]", "input field must list 2 expression strings"),
    ("string-cost", _malformed(cost="x1^2"), "cost", "'cost' must be a mapping with keys f0 and g0"),
    (
        "extra-cost-key",
        _malformed(cost={"f0": "x1^2", "g0": ["0"], "h0": "0"}),
        "cost",
        "'cost' must be a mapping with keys f0 and g0",
    ),
    ("number-K", _malformed(K=1), "K", "'K' must be an expression string in 't'"),
    ("number-label", _malformed(label=3), "label", "'label' must be a string"),
]


# ---------------------------------------------------------------------------
# Finite differences
# ---------------------------------------------------------------------------


def eval_field(vf: VectorField, point: dict[str, float]) -> np.ndarray:
    return np.array([evaluate(c, point) for c in vf.components])


def numeric_jacobian(vf: VectorField, point: dict[str, float], h: float = 1e-6) -> np.ndarray:
    names = vf.state_names
    out = np.empty((len(names), len(names)))
    for j, name in enumerate(names):
        up = dict(point)
        down = dict(point)
        up[name] += h
        down[name] -= h
        out[:, j] = (eval_field(vf, up) - eval_field(vf, down)) / (2 * h)
    return out


def numeric_bracket(
    a: VectorField, b: VectorField, point: dict[str, float], h: float = 1e-6
) -> np.ndarray:
    """[a, b] at a point via central-difference Jacobians."""
    ja = numeric_jacobian(a, point, h)
    jb = numeric_jacobian(b, point, h)
    return jb @ eval_field(a, point) - ja @ eval_field(b, point)


# ---------------------------------------------------------------------------
# Float oracle: H, phi and the sign law, independent of the package
# ---------------------------------------------------------------------------


def document_phi_and_h(doc: dict, x, p, u) -> tuple[tuple[float, ...], float]:
    """phi_i = <p, g_i(x)> and H = <p, f + sum_i u_i g_i>, from the document's strings.

    Each string is evaluated by Python with `math`, `^` read as `**`: no tree or
    normal form of the package takes part.  With a "cost", x and p lead with the
    entries of the cost-extended system's x0, whose rate is f0 + sum_i u_i g0_i.
    """
    fields, values = [doc["f"], *doc["g"]], [float(v) for v in x]
    if "cost" in doc:
        cost = doc["cost"]
        fields = [[cost["f0"], *doc["f"]], *([g0, *g] for g0, g in zip(cost["g0"], doc["g"]))]
        values = values[1:]  # x0 appears in no string
    binding = dict(zip(doc["states"], values))
    scope = {"__builtins__": {}, "sin": math.sin, "cos": math.cos, "exp": math.exp}
    inner = [
        sum(float(pi) * eval(text.replace("^", "**"), scope, binding) for pi, text in zip(p, field))
        for field in fields
    ]
    phi = tuple(inner[1:])
    return phi, inner[0] + sum(float(ui) * fi for ui, fi in zip(u, phi))


def sign_law(phi, K: float, last, deadband: float = 0.0) -> tuple[float, ...]:
    """u_i = sign(phi_i) K where |phi_i| > deadband; inside the deadband the last u_i holds."""
    return tuple(K if f > deadband else -K if f < -deadband else l for f, l in zip(phi, last))
