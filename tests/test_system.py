"""System documents: loading, cost extension, validation."""

import json

import pytest

from ctrlorder import (
    ControlSystem,
    CostSpec,
    SimConfig,
    SystemLoadError,
    VectorField,
    const,
    extend_with_cost,
    integrate_extremal,
    load,
    parse,
    problem_order,
    simplify,
    to_document,
    to_text,
    validate,
    without_cost,
)

from helpers import (
    MALFORMED_DOCUMENTS,
    SYSTEMS_DIR,
    counterexample_raw,
    double_integrator,
    fuller,
)


def counterexample_doc() -> dict:
    return json.loads((SYSTEMS_DIR / "counterexample.json").read_text())


# ---------------------------------------------------------------------------
# load
# ---------------------------------------------------------------------------


def test_load_counterexample():
    sys6 = load(counterexample_doc())
    assert sys6.n == 6
    assert sys6.m == 3
    assert sys6.state_names == ("x", "y", "theta", "v1", "v2", "Omega")
    assert sys6.cost is not None
    assert sys6.bound is not None


def test_load_dimension_error():
    doc = {
        "states": ["x1", "x2"],
        "inputs": 1,
        "f": ["x2", "0", "0"],
        "g": [["0", "1"]],
    }
    with pytest.raises(SystemLoadError) as err:
        load(doc)
    assert err.value.location == "f"


def test_load_double_integrator():
    di = double_integrator()
    assert di.m == 1
    assert di.n == 2
    assert di.cost is not None


def test_load_reports_expression_location():
    doc = {
        "states": ["x1", "x2"],
        "inputs": 1,
        "f": ["x2", "0"],
        "g": [["0", "1 +"]],
    }
    with pytest.raises(SystemLoadError) as err:
        load(doc)
    assert err.value.location == "g[0][1]"


@pytest.mark.parametrize(
    "field, text, location",
    [
        ("f", "1e200*1e200*x1", "f[0]"),
        ("f", "x1*1e200 + x2*1e200*1e200", "f[0]"),
        ("f", "10^400*1.5*x1", "f[0]"),
        ("f", "10^400*x1", "f[0]"),
        ("g", "1e308 + 1e308", "g[0][1]"),
        ("g", "(1e200)^2", "g[0][1]"),
        ("f0", "1/1e-320", "cost.f0"),
        ("K", "1e300*1e300", "K"),
    ],
)
def test_load_rejects_constants_that_fold_past_the_float_range(field, text, location):
    doc = {"states": ["x1", "x2"], "inputs": 1, "f": ["x2", "0"], "g": [["0", "1"]]}
    if field == "f":
        doc["f"] = [text, "0"]
    elif field == "g":
        doc["g"] = [["0", text]]
    elif field == "f0":
        doc["cost"] = {"f0": text, "g0": ["0"]}
    else:
        doc["K"] = text
    with pytest.raises(SystemLoadError, match="not a finite float") as err:
        load(doc)
    assert err.value.location == location


def test_load_checks_the_cancelled_normal_form():
    # x1^1200 cancels: no exponent past MAX_EXPONENT is left to refuse
    doc = {"states": ["x1"], "inputs": 1, "f": ["x1^600*x1^600/(x1^600*x1^600)"], "g": [["1"]]}
    assert simplify(load(doc).drift.components[0]) == const(1)


def test_validate_reports_an_overflow_while_evaluating():
    # e^(x1 + 2) is finite on the probe's range, its 1000th power is not
    doc = {"states": ["x1"], "inputs": 1, "f": ["exp(x1 + 2)^1000"], "g": [["1"]]}
    report = validate(load(doc), 1.0)
    assert [(f.location, f.message) for f in report.errors()] == [
        ("f[0]", "failed to evaluate at a random interior point: overflow in 'exp(x1 + 2)^1000'")
    ]


def test_validate_accepts_a_finite_power_of_cosines():
    # f[1] never exceeds 2^1000; its normal form, reduced by c^2 -> 1 - s^2,
    # prints and evaluates as written, not as 501 terms of up to C(500, 250)
    doc = {
        "states": ["x1", "x2"], "inputs": 1, "f": ["x2", "(cos(x1)^1000 + 1)^1000"], "g": [["0", "1"]],
    }
    system = load(doc)
    assert to_text(system.drift.components[1]) == "(cos(x1)^1000 + 1)^1000"
    assert validate(system, 1.0).errors() == ()


@pytest.mark.parametrize(
    "key, text, location, quoted",
    [
        ("f", "x1/0", "f[0]", "'0'"),
        ("f", "1/(0*x1 + 0)", "f[0]", "'0*x1 + 0'"),
        ("g", "x1/(x1 - x1)", "g[0][0]", "'x1 - x1'"),
        ("f0", "1/(x1 - x1)", "cost.f0", "'x1 - x1'"),
        ("g0", "1/(x1 - x1)", "cost.g0[0]", "'x1 - x1'"),
        ("K", "1/(t - t)", "K", "'t - t'"),
    ],
)
def test_load_rejects_a_symbolic_division_by_zero(key, text, location, quoted):
    # the fields are their normal forms, and a zero denominator has none
    doc = {"states": ["x1"], "inputs": 1, "f": ["x1"], "g": [["1"]]}
    if key in ("f0", "g0"):
        doc["cost"] = {"f0": "0", "g0": ["0"], key: text if key == "f0" else [text]}
    else:
        doc[key] = [text] if key == "f" else [[text]] if key == "g" else text
    with pytest.raises(SystemLoadError) as err:
        load(doc)
    assert (err.value.location, str(err.value)) == (location, f"{location}: division by zero in {quoted}")


def test_loaded_fields_are_converted_once(monkeypatch):
    # load converts f, g and the cost once, in one ring, and the analysis and
    # the simulation read those forms; a cost-extended field converts once
    from ctrlorder.normal import Ring

    converted = []
    convert = Ring.convert
    monkeypatch.setattr(Ring, "convert", lambda ring, e: converted.append(e) or convert(ring, e))

    def analyse(sys) -> None:
        problem_order(sys, k_max=4)
        config = SimConfig((0.1,) * sys.n, (1.0,) * sys.n, horizon=0.05, step=0.01)
        integrate_extremal(sys, config)

    sys6 = load(counterexample_doc())
    loaded = sys6.n * (1 + sys6.m) + 1 + sys6.m + 1  # f, the g_i, f0, the g0_i and K
    assert len(converted) == loaded
    analyse(without_cost(sys6))
    assert len(converted) == loaded
    extended = extend_with_cost(sys6)
    analyse(extended)
    assert len(converted) == loaded + extended.n * (1 + extended.m)


def test_load_rejects_unknown_keys():
    doc = {
        "states": ["x1"],
        "inputs": 1,
        "f": ["0"],
        "g": [["1"]],
        "costs": {},
    }
    with pytest.raises(SystemLoadError) as err:
        load(doc)
    assert "costs" in str(err.value)


def test_load_rejects_bad_inputs_count():
    doc = {"states": ["x1"], "inputs": 0, "f": ["0"], "g": []}
    with pytest.raises(SystemLoadError):
        load(doc)


def test_load_rejects_wrong_g0_arity():
    doc = {
        "states": ["x1"],
        "inputs": 1,
        "f": ["0"],
        "g": [["1"]],
        "cost": {"f0": "x1^2", "g0": ["0", "0"]},
    }
    with pytest.raises(SystemLoadError) as err:
        load(doc)
    assert err.value.location == "cost.g0"


@pytest.mark.parametrize(
    "document, location, message",
    [case[1:] for case in MALFORMED_DOCUMENTS],
    ids=[case[0] for case in MALFORMED_DOCUMENTS],
)
def test_load_locates_a_malformed_document(document, location, message):
    with pytest.raises(SystemLoadError) as err:
        load(document)
    assert (err.value.location, str(err.value)) == (location, f"{location}: {message}")


def test_a_control_system_checks_its_parts():
    names = ("x1", "x2")
    drift = VectorField.from_strings(names, ["x2", "0"])
    g = VectorField.from_strings(names, ["0", "1"])
    other = VectorField.from_strings(("x1", "y"), ["0", "1"])
    cost = CostSpec(parse("x1^2", names), (const(0),))
    cases = [
        ((names, other, (g,)), "drift coordinates do not match the system states"),
        ((names, drift, ()), "at least one input field is required"),
        ((names, drift, (g, other)), "input field 1 coordinates do not match the states"),
        ((names, drift, (g,), cost.replace(g0=())), "cost needs one g0 entry per input"),
        (
            (names, drift, (g,), CostSpec(parse("y + x1", ("x1", "y")), (const(0),))),
            "cost uses undeclared variables ['y']",
        ),
        (
            (names, drift, (g,), cost, parse("1 + x1*t", ("x1", "t"))),
            "bound K may only use 't', got ['x1']",
        ),
    ]
    for args, message in cases:
        with pytest.raises(ValueError) as err:
            ControlSystem(*args)
        assert str(err.value) == message
    ControlSystem(names, drift, (g,), cost, parse("1 + t", ("t",)))


def test_document_round_trip():
    sys6 = load(counterexample_doc())
    again = load(to_document(sys6))
    assert again.state_names == sys6.state_names
    assert again.m == sys6.m
    for a, b in zip(again.drift.components, sys6.drift.components):
        assert simplify(a) == simplify(b)
    for ga, gb in zip(again.inputs, sys6.inputs):
        for a, b in zip(ga.components, gb.components):
            assert simplify(a) == simplify(b)
    assert simplify(again.cost.f0) == simplify(sys6.cost.f0)


def test_to_document_prints_what_load_checked():
    # the cost and K are the rendered forms that load checked, as f and g are
    vehicle = load(counterexample_doc())
    assert to_document(vehicle)["cost"] == {"f0": "theta^2 + x^2 + y^2", "g0": ["0", "0", "0"]}
    files = [*SYSTEMS_DIR.glob("*.json"), *SYSTEMS_DIR.glob("stress/*.json"),
             *SYSTEMS_DIR.parent.glob("ctrlbench/systems/*.json")]
    assert len(files) == 8
    for path in files:
        system = load(json.loads(path.read_text()))
        assert load(to_document(system)) == system, path.name


# ---------------------------------------------------------------------------
# extend_with_cost
# ---------------------------------------------------------------------------


def test_extend_double_integrator_gives_fuller():
    extended = extend_with_cost(double_integrator())
    reference = fuller()
    assert extended.n == 3
    assert extended.cost is None
    assert extended.state_names == ("x0", "x1", "x2")
    for a, b in zip(extended.drift.components, reference.drift.components):
        assert simplify(a) == simplify(b)
    for a, b in zip(extended.inputs[0].components, reference.inputs[0].components):
        assert simplify(a) == simplify(b)


def test_extend_counterexample_is_seven_states():
    extended = extend_with_cost(load(counterexample_doc()))
    assert extended.n == 7
    assert extended.m == 3
    assert extended.state_names[0] == "x0"


def test_extend_without_cost_errors():
    with pytest.raises(ValueError):
        extend_with_cost(counterexample_raw())


def test_extend_twice_errors():
    extended = extend_with_cost(double_integrator())
    with pytest.raises(ValueError):
        extend_with_cost(extended)


def test_extend_x0_collision_errors():
    doc = {
        "states": ["x0", "x1"],
        "inputs": 1,
        "f": ["x1", "0"],
        "g": [["0", "1"]],
        "cost": {"f0": "x0^2", "g0": ["0"]},
    }
    with pytest.raises(ValueError):
        extend_with_cost(load(doc))


def test_extend_increases_dimension_by_one():
    di = double_integrator()
    assert extend_with_cost(di).n == di.n + 1


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------


def test_validate_counterexample_clean():
    report = validate(load(counterexample_doc()), horizon=1.0)
    assert report.ok
    assert report.findings == ()


def test_validate_bound_positivity():
    doc = counterexample_doc()
    doc["K"] = "cos(t)"
    report = validate(load(doc), horizon=3.0)
    assert not report.ok
    assert any("K" == f.location for f in report.errors())
    # on a short horizon cos stays positive
    assert validate(load(doc), horizon=1.0).ok


def test_validate_reports_a_bound_that_fails_to_evaluate():
    doc = counterexample_doc()
    doc["K"] = "1/t"  # nonzero, but its first sample is t = 0
    report = validate(load(doc), horizon=1.0)
    assert [(f.location, f.message) for f in report.errors()] == [
        ("K", "bound K failed to evaluate: division by zero in '1/t'")
    ]


def _bound_times(monkeypatch) -> list:
    """The times t at which `validate` evaluates the bound K."""
    from ctrlorder import system

    times, real = [], system.evaluator

    def counted(exprs):
        run = real(exprs)

        def recorded(env):
            if "t" in env:  # the interior probe binds the states only
                times.append(env["t"])
            return run(env)

        return recorded

    monkeypatch.setattr(system, "evaluator", counted)
    return times


@pytest.mark.parametrize("text, samples", [("1", 1), ("1 + t", 100), ("t - t + 1", 1)])
def test_validate_evaluates_a_bound_without_t_once(monkeypatch, text, samples):
    times = _bound_times(monkeypatch)
    assert validate(load({**counterexample_doc(), "K": text}), horizon=2.0).findings == ()
    assert len(times) == samples
    assert (times[0], times[-1]) == (0.0, 2.0 if samples > 1 else 0.0)


@pytest.mark.parametrize(
    "text, message",
    [
        ("-1", "bound K is not strictly positive at t=0"),
        ("1 - t", "bound K is not strictly positive at t=1.0101"),
        # the rendered form keeps t, so K is sampled until exp(t)^709 overflows
        ("(exp(t)*exp(-t))^709", "bound K failed to evaluate: overflow in 'exp(t)^709'"),
    ],
)
def test_validate_finds_a_bad_bound_with_or_without_t(capsys, tmp_path, text, message):
    from ctrlorder.cli import main

    doc = {**counterexample_doc(), "K": text}
    assert [(f.location, f.message) for f in validate(load(doc), horizon=2.0).errors()] == [
        ("K", message)
    ]
    path = tmp_path / "k.json"
    path.write_text(json.dumps(doc))
    assert main(["order", str(path), "--horizon", "2"]) == 2
    assert f"[error] K: {message}" in capsys.readouterr().err


def test_validate_duplicate_state_names():
    # a field over repeated names cannot be built, so neither can a system
    zero = parse("0", ("x1",))
    with pytest.raises(ValueError, match="duplicate state names"):
        VectorField(("x1", "x1"), (zero, zero))
    with pytest.raises(ValueError, match="duplicate state names"):
        VectorField.from_strings(("x", "x"), ("x", "1"))


def test_validate_flags_unevaluable_expression():
    # e^(x1 - 1000) is nonzero, but underflows to 0.0 in floats
    doc = {
        "states": ["x1"],
        "inputs": 1,
        "f": ["1/exp(x1 - 1000)"],
        "g": [["1"]],
    }
    report = validate(load(doc), horizon=1.0)
    assert [(f.location, f.message) for f in report.errors()] == [
        ("f[0]", "failed to evaluate at a random interior point: division by zero in '1/exp(x1 - 1000)'")
    ]


def test_validate_rejects_bad_horizon():
    with pytest.raises(ValueError):
        validate(counterexample_raw(), horizon=0.0)


def test_validate_warns_on_reserved_time_name():
    doc = {"states": ["t", "x1"], "inputs": 1, "f": ["x1", "0"], "g": [["0", "1"]]}
    report = validate(load(doc), horizon=1.0)
    assert report.ok  # warning only
    assert any(f.severity == "warning" and "t" in f.message for f in report.findings)


def test_validate_warns_on_a_function_name():
    doc = {"states": ["sin", "cos", "exp"], "inputs": 1, "f": ["0", "0", "0"], "g": [["1", "0", "0"]]}
    report = validate(load(doc), horizon=1.0)
    assert [(f.severity, f.location, f.message) for f in report.findings] == [
        ("warning", f"states[{i}]", f"state named '{name}' collides with a function name")
        for i, name in enumerate(doc["states"])
    ]


def test_load_rejects_invalid_state_identifier():
    doc = {"states": ["2x"], "inputs": 1, "f": ["0"], "g": [["1"]]}
    with pytest.raises(SystemLoadError) as err:
        load(doc)
    assert err.value.location == "states[0]"


def test_load_rejects_duplicate_state_names():
    doc = {"states": ["x1", "x2", "x1"], "inputs": 1, "f": ["x2", "0", "0"], "g": [["0", "1", "0"]]}
    with pytest.raises(SystemLoadError, match="duplicate state name 'x1'") as err:
        load(doc)
    assert err.value.location == "states[2]"


def test_without_cost_drops_cost_only():
    sys6 = load(counterexample_doc())
    raw = without_cost(sys6)
    assert raw.cost is None
    assert raw.state_names == sys6.state_names
    assert raw.drift is sys6.drift
