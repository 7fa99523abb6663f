"""Command-line interface: outputs, exit codes, JSON manifests, fault injection."""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import ctrlorder.cli
import ctrlorder.order
import ctrlorder.simulate
from ctrlorder import VectorField, const, lie_bracket
from ctrlorder.cli import main
from ctrlorder.expr import MAX_NESTING

from helpers import MALFORMED_DOCUMENTS, SYSTEMS_DIR, strict_json

COUNTEREXAMPLE = str(SYSTEMS_DIR / "counterexample.json")
FULLER = str(SYSTEMS_DIR / "fuller.json")
COMMUTING = str(SYSTEMS_DIR / "commuting.json")
DOUBLE_INTEGRATOR = str(SYSTEMS_DIR / "double_integrator.json")
HALF_INTEGER = str(SYSTEMS_DIR / "half_integer.json")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# order
# ---------------------------------------------------------------------------


def test_order_counterexample(capsys):
    code, out, _ = run(capsys, "order", COUNTEREXAMPLE)
    assert code == 0
    assert "k = 3, q = 3/2" in out


def test_order_counterexample_extended(capsys):
    code, out, _ = run(capsys, "order", COUNTEREXAMPLE, "--extend-cost")
    assert code == 0
    assert "k = 3, q = 3/2" in out


def test_order_fuller(capsys):
    code, out, _ = run(capsys, "order", FULLER)
    assert code == 0
    assert "k = 4, q = 2" in out


def test_order_half_integer(capsys):
    code, out, _ = run(capsys, "order", HALF_INTEGER)
    assert code == 0
    assert "k = 1, q = 1/2" in out


def test_order_half_integer_with_a_tiny_coefficient(capsys, tmp_path):
    # [g2, g1] = (0, -1e-13): below the float tolerance, but exactly nonzero
    document = json.loads(Path(HALF_INTEGER).read_text())
    document["g"][1] = ["0", "x1/10000000000000"]
    path = tmp_path / "system.json"
    path.write_text(json.dumps(document))
    code, out, _ = run(capsys, "order", str(path))
    assert code == 0
    assert "k = 1, q = 1/2" in out


def test_a_decimal_literal_is_the_rational_it_spells(capsys, tmp_path):
    # 0.1 + 0.2 - 0.3 is exactly 0; as floats it left 5.6e-17 and gave k = 4
    document = json.loads(Path(COMMUTING).read_text())
    bodies = []
    for spelling in ("0.1*x1 + 0.2*x1 - 0.3*x1", "1/10*x1 + 2/10*x1 - 3/10*x1"):
        document["f"][0] = f"x2 + ({spelling})*x1"
        path = tmp_path / "system.json"
        path.write_text(json.dumps(document))
        reports = []
        for argv, exit_code in ((["order", "--k-max", "6"], 3), (["brackets", "--depth", "4"], 0)):
            code, out, _ = run(capsys, argv[0], str(path), *argv[1:], "--json")
            assert code == exit_code
            reports.append({key: v for key, v in json.loads(out).items() if key != "manifest"})
        bodies.append(reports)
    assert bodies[0] == bodies[1]


def test_a_large_power_of_a_sum_is_answered_in_bounded_time(capsys, tmp_path):
    document = {
        "states": ["x1", "x2", "x3", "x4"],
        "inputs": 1,
        "f": ["x2 + (x1 + x2 + x3 + x4)^1000", "x1", "x2", "x3"],
        "g": [["0", "1", "0", "0"]],
    }
    path = tmp_path / "system.json"
    path.write_text(json.dumps(document))
    for argv in (["order"], ["brackets", "--depth", "4"], ["verify", "identities"]):
        start = time.perf_counter()
        code, out, err = run(capsys, argv[0], str(path), *argv[1:])
        assert time.perf_counter() - start < 10, argv
        assert code == 0, (argv, err)
    assert "k = 2" in run(capsys, "order", str(path))[1]


def test_order_truncated_exit_code(capsys):
    code, out, _ = run(capsys, "order", COMMUTING, "--k-max", "6")
    assert code == 3
    assert "order not found up to k = 6" in out


def test_order_missing_file(capsys):
    code, _, err = run(capsys, "order", "no-such-file.json")
    assert code == 1
    assert "cannot read" in err


def test_order_invalid_json(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run(capsys, "order", str(bad))
    assert code == 1


def test_order_validation_failure(capsys, tmp_path):
    doc = {
        "states": ["x1", "x2"],
        "inputs": 1,
        "f": ["x2", "0"],
        "g": [["0", "1"]],
        "K": "cos(t)",
    }
    path = tmp_path / "badk.json"
    path.write_text(json.dumps(doc))
    code, _, err = run(capsys, "order", str(path), "--horizon", "3.0")
    assert code == 2
    assert "validation failed" in err


@pytest.mark.parametrize(
    "bound, failure",
    [
        # 10*exp(709) is inf, and sin(inf) is a domain error
        ("2 + sin(10*exp(709*t))", "infinite argument in 'sin(10*exp(709*t))'"),
        # a power past the float range fails as the generated code's b**k does
        ("exp(t)^1000", "overflow in 'exp(t)^1000'"),
        ("exp(1000*t)", "overflow in 'exp(1000*t)'"),
        pytest.param("1/t", "division by zero in '1/t'", id="1/t-at-t=0"),
    ],
)
@pytest.mark.parametrize(
    "argv",
    [["order"], ["simulate", "--x0", "0,0", "--p0", "1,0"], ["verify", "parity"]],
    ids=lambda a: a[0],
)
def test_a_bound_that_fails_to_evaluate_is_one_validation_finding(
    capsys, tmp_path, monkeypatch, bound, failure, argv
):
    monkeypatch.chdir(tmp_path)  # simulate would write its trajectory.csv here
    path = tmp_path / "k.json"
    path.write_text(json.dumps({"states": ["x1", "x2"], "inputs": 1, "f": ["x2", "0"],
                                "g": [["0", "1"]], "K": bound}))
    code, out, err = run(capsys, argv[0], str(path), *argv[1:])
    assert (code, out) == (2, "")
    assert err == f"validation failed:\n  [error] K: bound K failed to evaluate: {failure}\n"
    assert not (tmp_path / "trajectory.csv").exists()


@pytest.mark.parametrize(
    "cost, bound, argv, finding",
    [
        # the parsed tree overflows nowhere, but its normal form exp(x2)^800*exp(x2)^-800
        # is what the integrator runs: validation now fails where integration would
        ({"f0": "x1^2 + (exp(x2)*exp(-x2))^800", "g0": ["0"]}, "1",
         ["simulate", "--extend-cost", "--x0", "0,0,0.95", "--p0=-1,0.3,0.1",
          "--horizon", "0.01", "--step", "1e-3"],
         "cost.f0: failed to evaluate at a random interior point: overflow in 'exp(x2)^800'"),
        (None, "(exp(t)*exp(-t))^709", ["order", "--horizon", "2"],
         "K: bound K failed to evaluate: overflow in 'exp(t)^709'"),
    ],
    ids=["cost", "K"],
)
def test_validation_checks_the_cost_and_bound_that_run(capsys, tmp_path, monkeypatch, cost, bound,
                                                       argv, finding):
    monkeypatch.chdir(tmp_path)  # simulate would write its trajectory.csv here
    doc = json.loads(Path(DOUBLE_INTEGRATOR).read_text())
    doc.update(cost=cost, K=bound)
    path = tmp_path / "system.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, argv[0], str(path), *argv[1:])
    assert (code, out, err) == (2, "", f"validation failed:\n  [error] {finding}\n")
    assert not (tmp_path / "trajectory.csv").exists()


@pytest.mark.parametrize(
    "argv", [["brackets"], ["local-order", "--x0=1,2", "--p0=1,1"], ["order"]], ids=lambda a: a[0]
)
def test_duplicate_state_names_are_an_input_error(capsys, tmp_path, argv):
    doc = {"states": ["x1", "x1"], "inputs": 1, "f": ["x1", "0"], "g": [["0", "1"]]}
    path = tmp_path / "dup.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, argv[0], str(path), *argv[1:])
    assert (code, out) == (1, "")
    assert "states[1]: duplicate state name 'x1'" in err


@pytest.mark.parametrize(
    "argv", [["order"], ["simulate", "--x0=0,0", "--p0=1,1"]], ids=lambda a: a[0]
)
@pytest.mark.parametrize(
    "document, location, message",
    [case[1:] for case in MALFORMED_DOCUMENTS],
    ids=[case[0] for case in MALFORMED_DOCUMENTS],
)
def test_a_malformed_document_is_one_located_line(capsys, tmp_path, monkeypatch, argv,
                                                  document, location, message):
    monkeypatch.chdir(tmp_path)  # simulate would write its trajectory.csv here
    path = tmp_path / "system.json"
    path.write_text(json.dumps(document))
    code, out, err = run(capsys, argv[0], str(path), *argv[1:])
    assert (code, out, err) == (1, "", f"'{path}': {location}: {message}\n")
    assert not (tmp_path / "trajectory.csv").exists()


def test_order_json_manifest_reproducible(capsys):
    code, out1, _ = run(capsys, "order", COUNTEREXAMPLE, "--json")
    assert code == 0
    code, out2, _ = run(capsys, "order", COUNTEREXAMPLE, "--json")
    assert code == 0
    doc1, doc2 = json.loads(out1), json.loads(out2)
    for doc in (doc1, doc2):
        assert doc["manifest"]["command"] == "order"
        assert doc["manifest"]["options"]["k_max"] == 10
        assert doc["manifest"]["version"]
        del doc["manifest"]["timestamp"]
    assert doc1 == doc2
    assert doc1["q"] == "3/2"
    assert doc1["q_numerator"] == 3 and doc1["q_denominator"] == 2


def _dumps(value) -> str:
    return json.dumps(value, indent=2, sort_keys=True, allow_nan=False)


GOLDEN_REPORTS = [
    case["report"]
    for case in json.loads((Path(__file__).parent / "golden" / "cli_reports.json").read_text())
    if "report" in case
]


def test_the_json_writer_prints_each_golden_report_as_json_dumps():
    assert len(GOLDEN_REPORTS) >= 19
    for report in GOLDEN_REPORTS:
        assert ctrlorder.cli._to_json(report) == _dumps(report)


@pytest.mark.parametrize(
    "value",
    [
        {},
        [],
        (),
        {"a": {}, "b": [], "c": [{}, [[]], ()]},
        [[], [{}], {"x": []}],
        (1, (2.5, "three"), [None]),
        'quote " backslash \\ slash / tab \t newline \n nul \x00 bell \x07 del \x7f',
        "non-ASCII: é ü ß 中文 \U0001f600  ",
        {"z": 1, "a": 2, "M": 3, "é": 4, "": 5, "a b": 6},
        -0.0,
        0.0,
        1e-300,
        -1.5e308,
        0.1,
        2**200,
        -(2**70),
        True,
        False,
        None,
        [True, False, None, 0, -1, 1.0],
    ],
)
def test_the_json_writer_matches_json_dumps_on_edge_values(value):
    assert ctrlorder.cli._to_json(value) == _dumps(value)
    assert ctrlorder.cli._to_json({"nested": [value]}) == _dumps({"nested": [value]})


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_the_json_writer_refuses_non_finite_floats_as_json_dumps_does(value):
    for wrapped in (value, [value], {"k": {"v": (1, value)}}):
        with pytest.raises(ValueError, match="Out of range float values are not JSON compliant"):
            _dumps(wrapped)
        with pytest.raises(ValueError, match="Out of range float values are not JSON compliant"):
            ctrlorder.cli._to_json(wrapped)


# ---------------------------------------------------------------------------
# brackets
# ---------------------------------------------------------------------------


def test_brackets_depth_two_shows_chain(capsys):
    code, out, _ = run(capsys, "brackets", COUNTEREXAMPLE, "--depth", "2")
    assert code == 0
    assert "ad_f^2 g1 = (Omega*sin(theta), Omega*cos(theta), 0, 0, 0, 0)" in out


def test_brackets_depth_zero_prints_inputs_only(capsys):
    code, out, _ = run(capsys, "brackets", COUNTEREXAMPLE, "--depth", "0")
    assert code == 0
    assert "g1 = " in out
    assert "ad_f^" not in out
    assert "[g" not in out


def test_brackets_deterministic_across_runs(capsys):
    _, first, _ = run(capsys, "brackets", COUNTEREXAMPLE, "--depth", "3")
    _, second, _ = run(capsys, "brackets", COUNTEREXAMPLE, "--depth", "3")
    assert first == second
    # deeper run contains the shallow run's rows in the same order per level
    _, shallow, _ = run(capsys, "brackets", COUNTEREXAMPLE, "--depth", "2")
    for line in shallow.splitlines():
        if line.startswith(("g", "ad_f", "[g")):
            assert line in first


@pytest.mark.parametrize("as_json", [False, True])
def test_brackets_renders_each_component_once(capsys, monkeypatch, as_json):
    import ctrlorder.cli
    import ctrlorder.fields

    rendered = []
    real = ctrlorder.cli.to_text

    def counted(e):
        rendered.append(e)
        return real(e)

    monkeypatch.setattr(ctrlorder.cli, "to_text", counted)
    monkeypatch.setattr(ctrlorder.fields, "to_text", counted)  # VectorField.__str__
    pendulum = str(SYSTEMS_DIR / "stress" / "rational_pendulum.json")
    code, out, _ = run(capsys, "brackets", pendulum, "--depth", "3", *(["--json"] if as_json else []))
    assert code == 0
    # g, ad_f^1..3 g and [g, ad_f^0..2 g]: seven rows of two components
    assert len(rendered) == 7 * 2
    texts = [real(e) for e in rendered]
    if as_json:
        assert [t for row in strict_json(out)["rows"] for t in row["components"]] == texts
    else:
        assert [line.split(" = ", 1)[1] for line in out.splitlines()] == [
            f"({texts[i]}, {texts[i + 1]})" for i in range(0, len(texts), 2)
        ]


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def test_one_parser_serves_alternating_calls_without_leaking_state(capsys, tmp_path):
    out_path = tmp_path / "traj.csv"
    # phi = p2 = 0.05 - t: u = 1 throughout, or held at 0 by a deadband of 0.1
    simulate = [
        "simulate", DOUBLE_INTEGRATOR, "--x0", "0,0", "--p0", "1,0.05", "--horizon", "0.01",
        "--json", "--out", str(out_path),
    ]
    order = ["order", COUNTEREXAMPLE, "--json"]

    def call(argv):
        code, out, err = run(capsys, *argv)
        report = strict_json(out)
        del report["manifest"]["timestamp"]
        return code, report, err, out_path.read_bytes() if argv[0] == "simulate" else None

    ctrlorder.cli._parser.cache_clear()
    fresh = {"order": call(order), "simulate": call(simulate)}
    with_deadband = call([*simulate, "--deadband", "0.1"])
    assert with_deadband[1]["manifest"]["options"]["deadband"] == 0.1
    assert with_deadband[3] != fresh["simulate"][3]
    assert call(order) == fresh["order"]
    assert call(simulate) == fresh["simulate"]
    assert fresh["simulate"][1]["manifest"]["options"]["deadband"] == 0.0
    assert ctrlorder.cli._parser.cache_info().misses == 1


def test_simulate_double_integrator(capsys, tmp_path):
    out_path = tmp_path / "traj.csv"
    code, out, _ = run(
        capsys,
        "simulate",
        DOUBLE_INTEGRATOR,
        "--x0", "0,0",
        "--p0", "1,0",
        "--policy", "fixed:1",
        "--out", str(out_path),
    )
    assert code == 0
    lines = out_path.read_text().splitlines()
    final = dict(zip(lines[0].split(","), lines[-1].split(",")))
    assert abs(float(final["x_x1"]) - 0.5) < 1e-8
    assert "H drift" in out


def test_simulate_bang_bang_controls_hit_bounds(capsys, tmp_path):
    out_path = tmp_path / "traj.csv"
    code, _, _ = run(
        capsys,
        "simulate",
        COUNTEREXAMPLE,
        "--x0", "0.1,0.2,0.3,0.4,0.5,0.6",
        "--p0", "1,0.5,0.25,0.2,0.1,0.05",
        "--horizon", "0.2",
        "--out", str(out_path),
    )
    assert code == 0
    lines = out_path.read_text().splitlines()
    header = lines[0].split(",")
    u_cols = [i for i, name in enumerate(header) if name.startswith("u_")]
    values = set()
    for line in lines[1:]:
        parts = line.split(",")
        values.update(float(parts[i]) for i in u_cols)
    assert values <= {-1.0, 1.0}


def test_simulate_step_zero_is_input_error(capsys, tmp_path):
    code, _, err = run(
        capsys,
        "simulate",
        DOUBLE_INTEGRATOR,
        "--x0", "0,0",
        "--p0", "1,0",
        "--step", "0",
        "--out", str(tmp_path / "t.csv"),
    )
    assert code == 1
    assert "step" in err


@pytest.mark.parametrize("where", ["missing-dir", "a-directory"])
def test_simulate_unwritable_out_is_one_line_input_error(capsys, tmp_path, where):
    out_path = tmp_path / "no" / "such" / "x.csv" if where == "missing-dir" else tmp_path
    code, out, err = run(
        capsys,
        "simulate",
        DOUBLE_INTEGRATOR,
        "--x0", "0,0",
        "--p0", "1,0",
        "--horizon", "0.01",
        "--out", str(out_path),
    )
    assert code == 1
    assert out == ""
    assert err.startswith(f"cannot write '{out_path}': ")
    assert err.count("\n") == 1


def test_simulate_divergence_exit_code(capsys, tmp_path):
    doc = {"states": ["x1"], "inputs": 1, "f": ["x1*x1"], "g": [["0"]]}
    path = tmp_path / "explode.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run(
        capsys,
        "simulate",
        str(path),
        "--x0", "3",
        "--p0", "1",
        "--horizon", "2.0",
        "--policy", "fixed:0",
        "--out", str(tmp_path / "t.csv"),
        "--json",
    )
    assert code == 4
    payload = json.loads(out)
    assert payload["status"] in ("diverged", "eval_error")
    assert payload["failure_time"] is not None


def test_simulate_piecewise_policy(capsys, tmp_path):
    table_path = tmp_path / "controls.json"
    table_path.write_text(json.dumps([[0.0, [1.0]], [0.05, [-1.0]]]))
    out_path = tmp_path / "traj.csv"
    code, _, _ = run(
        capsys,
        "simulate",
        DOUBLE_INTEGRATOR,
        "--x0", "0,0",
        "--p0", "1,0",
        "--horizon", "0.1",
        "--policy", f"piecewise:{table_path}",
        "--out", str(out_path),
    )
    assert code == 0
    lines = out_path.read_text().splitlines()
    u_values = {float(line.split(",")[5]) for line in lines[1:]}
    assert u_values == {1.0, -1.0}


@pytest.mark.parametrize(
    "policy, message",
    [
        ("[[NaN, [1]]]", "bad piecewise control file"),
        ("[[0, [NaN]]]", "bad piecewise control file"),
        ("[[0, [1e400]]]", "bad piecewise control file"),
        ("[[0, [1]], [Infinity, [-1]]]", "bad piecewise control file"),
        ("fixed:nan", "must be finite"),
    ],
)
def test_a_non_finite_control_is_an_input_error(capsys, tmp_path, policy, message):
    if not policy.startswith("fixed:"):
        table_path = tmp_path / "controls.json"
        table_path.write_text(policy)
        policy = f"piecewise:{table_path}"
    out_path = tmp_path / "traj.csv"
    code, out, err = run(
        capsys, "simulate", FULLER, "--x0", "0,0,0", "--p0", "-1,1,1",
        "--policy", policy, "--out", str(out_path),
    )
    assert code == 1 and out == ""
    assert err.count("\n") == 1 and message in err and "finite" in err
    assert not out_path.exists()


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def test_verify_fuller_all_passes(capsys):
    code, out, _ = run(capsys, "verify", FULLER, "all")
    assert code == 0
    assert out.count("PASS") == 3
    assert "parity" in out and "identities" in out and "lemma1" in out


def test_verify_counterexample_parity_skipped(capsys):
    code, out, _ = run(capsys, "verify", COUNTEREXAMPLE, "parity")
    assert code == 0
    assert "SKIPPED" in out
    assert "m = 3" in out


def test_verify_commuting_parity_skipped_when_truncated(capsys):
    code, out, _ = run(capsys, "verify", COMMUTING, "parity", "--k-max", "4")
    assert code == 0
    assert "SKIPPED" in out


def test_verify_identities_fail_on_corrupted_bracket(capsys, monkeypatch):
    # fault injection: every bracket the verifier builds is offset by a
    # constant field, which breaks the vanishing identities
    def corrupted(a, b):
        real = lie_bracket(a, b)
        bumped = list(real.components)
        bumped[0] = const(1)
        return VectorField(real.state_names, tuple(bumped))

    monkeypatch.setattr(ctrlorder.order, "lie_bracket", corrupted)
    code, out, _ = run(capsys, "verify", FULLER, "identities")
    assert code == 5
    assert "FAIL" in out


def test_verify_identities_numbers_a_failing_component_from_one(capsys, monkeypatch):
    # only [ad_f g, g], the first bracket of "swap j=1 l=0", is offset in its
    # first component
    fuller = ctrlorder.load(json.loads(Path(FULLER).read_text()))
    ad = ctrlorder.BracketTable(fuller.drift, fuller.inputs).ad
    target = (ad(0, 1).components, ad(0, 0).components)

    def corrupted(a, b):
        real = lie_bracket(a, b)
        if (a.components, b.components) != target:
            return real
        return VectorField(real.state_names, (const(1), *real.components[1:]))

    monkeypatch.setattr(ctrlorder.order, "lie_bracket", corrupted)
    code, out, _ = run(capsys, "verify", FULLER, "identities")
    assert code == 5
    assert out.strip() == "identities FAIL  k* = 3: swap j=1 l=0 (nonzero component 1)"


ROOT = SYSTEMS_DIR.parent
SHIPPED_SYSTEMS = sorted(
    str(path.relative_to(ROOT))
    for directory in ("systems", "systems/stress", "ctrlbench/systems")
    for path in (ROOT / directory).glob("*.json")
)


def test_verify_lemma1_passes_where_the_residual_is_truncation(capsys, tmp_path):
    # the residual at the default step is 0.158, all of it the central
    # difference's h^2 term: an absolute tolerance of 1e-4 called it a bug
    path = tmp_path / "system.json"
    document = {"states": ["x1", "x2"], "inputs": 1, "g": [["3/7 - 1", "3/7 - 1"]]}
    path.write_text(json.dumps({**document, "f": ["1/(1 + x2^2)/x1", "x1^3*0.5"]}))
    code, out, _ = run(capsys, "verify", str(path), "all", "--k-max", "3")
    assert code == 0
    assert out.splitlines()[-1] == (
        "lemma1     PASS  g1: extrapolated violation 0.000458 <= step change 0.119"
    )


@pytest.mark.parametrize("path", SHIPPED_SYSTEMS)
def test_verify_lemma1_fails_on_brackets_of_the_wrong_sign(capsys, monkeypatch, path):
    # fault injection: lemma 1's [f, h] and [g_i, h] come out as [h, f] and [h, g_i]
    monkeypatch.setattr(ctrlorder.simulate, "lie_bracket", lambda a, b: lie_bracket(b, a))
    code, out, _ = run(capsys, "verify", str(ROOT / path), "lemma1")
    assert code == 5
    (line,) = [line for line in out.splitlines() if line.startswith("lemma1")]
    assert line.startswith("lemma1     FAIL  ") and line.endswith(": implementation bug")


def _counted_integrations(monkeypatch, status="ok") -> list:
    """The step of every extremal the CLI integrates; each ends with `status`."""
    steps = []
    real = ctrlorder.cli.integrate_extremal

    def counted(system, config):
        steps.append(config.step)
        return real(system, config).replace(status=status)

    monkeypatch.setattr(ctrlorder.cli, "integrate_extremal", counted)
    return steps


def test_verify_lemma1_integrates_one_extremal_per_step(capsys, monkeypatch):
    _, want, _ = run(capsys, "verify", COUNTEREXAMPLE, "lemma1", "--json")
    steps = _counted_integrations(monkeypatch)
    code, out, _ = run(capsys, "verify", COUNTEREXAMPLE, "lemma1", "--json")
    assert code == 0
    assert steps == [1e-3, 5e-4]  # f and the three g_i share both extremals
    assert json.loads(out)["results"] == json.loads(want)["results"]


def test_verify_lemma1_failed_integration_is_diverged(capsys, monkeypatch):
    steps = _counted_integrations(monkeypatch, status="diverged")
    code, _, err = run(capsys, "verify", COUNTEREXAMPLE, "lemma1")
    assert code == 4
    assert "lemma1 probe integration failed (diverged)" in err
    assert steps == [1e-3]


def test_verify_json_payload(capsys):
    code, out, _ = run(capsys, "verify", FULLER, "parity", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["results"][0]["suite"] == "parity"
    assert payload["results"][0]["status"] == "PASS"


# ---------------------------------------------------------------------------
# local-order
# ---------------------------------------------------------------------------


def test_local_order_counterexample_generic(capsys):
    code, out, _ = run(
        capsys,
        "local-order",
        COUNTEREXAMPLE,
        "--x0", "0.1,0.2,0.3,0.4,0.5,0.6",
        "--p0", "0.9,-0.4,0.3,0.2,0.1,0.5",
    )
    assert code == 0
    assert "k_local = 3" in out


def test_local_order_zero_adjoint_not_found(capsys):
    code, out, _ = run(
        capsys,
        "local-order",
        COUNTEREXAMPLE,
        "--x0", "0.1,0.2,0.3,0.4,0.5,0.6",
        "--p0", "0,0,0,0,0,0",
        "--k-max", "4",
    )
    assert code == 3
    assert "not found up to k = 4" in out


def test_local_order_fuller_rank(capsys):
    code, out, _ = run(
        capsys, "local-order", FULLER, "--x0", "0.3,0.2,0.1", "--p0", "1,0.5,0.25"
    )
    assert code == 0
    assert "k_local = 4" in out
    assert "rank = 1" in out


def test_local_order_size_mismatch(capsys):
    code, _, err = run(
        capsys, "local-order", COUNTEREXAMPLE, "--x0", "1,2", "--p0", "1,2"
    )
    assert code == 1
    assert "--x0" in err


# ---------------------------------------------------------------------------
# flag handling
# ---------------------------------------------------------------------------


def test_unknown_subcommand_is_input_error(capsys):
    assert main(["bogus"]) == 1


def test_bad_policy_string(capsys, tmp_path):
    code, _, err = run(
        capsys,
        "simulate",
        DOUBLE_INTEGRATOR,
        "--x0", "0,0",
        "--p0", "1,0",
        "--policy", "sliding",
        "--out", str(tmp_path / "t.csv"),
    )
    assert code == 1
    assert "policy" in err


@pytest.mark.parametrize(
    "argv, names",
    [
        (["simulate", DOUBLE_INTEGRATOR, "--x0", "0,0", "--p0", "1,0", "--horizon", "inf"],
         "--horizon"),
        (["order", FULLER, "--zero-box", "inf"], "--zero-box"),
        (["order", FULLER, "--horizon", "nan"], "--horizon"),
        (["order", FULLER, "--horizon", "0"], "horizon must be positive"),
        (["order", FULLER, "--k-max", "0"], "k_max must be an integer >= 1"),
        (["verify", FULLER, "lemma1", "--step", "0"], "step must be > 0"),
        (["verify", FULLER, "lemma1", "--step", "inf"], "--step"),
        (["simulate", DOUBLE_INTEGRATOR, "--x0", "nan,0", "--p0", "1,0"], "--x0"),
        (["local-order", FULLER, "--x0", "inf,0,0", "--p0", "1,0,0", "--json"], "--x0"),
        (["simulate", DOUBLE_INTEGRATOR, "--x0", "0,0", "--p0", "1,0",
          "--horizon", "1e300", "--step", "1e-300"], "horizon/step must be at most"),
        (["simulate", DOUBLE_INTEGRATOR, "--x0", "0,0", "--p0", "1,0",
          "--horizon", "10", "--step", "1e-6"], "horizon/step must be at most"),
        (["verify", FULLER, "parity", "--k-max", "0"], "k_max must be an integer >= 1"),
        (["verify", FULLER, "identities", "--k-max", "0"], "k_max must be an integer >= 1"),
        (["local-order", FULLER, "--x0", "0.1,0.2,0.3", "--p0", "1,0.5,0.2", "--k-max", "0"],
         "k_max must be an integer >= 1"),
        (["order", FULLER, "--extend-cost"], "--extend-cost given but the system has no cost"),
        (["brackets", FULLER, "--depth", "-1"], "--depth must be >= 0"),
    ],
)
def test_bad_flag_value_is_one_line_input_error(capsys, tmp_path, monkeypatch, argv, names):
    monkeypatch.chdir(tmp_path)  # simulate writes its default trajectory.csv here
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.count("\n") == 1 and names in err
    assert "Traceback" not in err


def test_simulate_accepts_separated_negative_vector(capsys, tmp_path):
    code, out, _ = run(
        capsys,
        "simulate",
        FULLER,
        "--x0", "0,0.5,-0.2",
        "--p0", "-1,0.3,0.1",
        "--horizon", "0.5",
        "--out", str(tmp_path / "t.csv"),
        "--json",
    )
    assert code == 0
    assert json.loads(out)["manifest"]["options"]["p0"] == [-1.0, 0.3, 0.1]


def test_local_order_accepts_separated_negative_vector(capsys):
    code, out, _ = run(
        capsys, "local-order", FULLER, "--x0", "0.3,0.2,0.1", "--p0", "-1,0.5,0.25"
    )
    assert code == 0
    assert "k_local = 4" in out


# ---------------------------------------------------------------------------
# non-finite values never reach a report
# ---------------------------------------------------------------------------


def write_system(tmp_path, f, g):
    names = [f"x{i + 1}" for i in range(len(f))]
    path = tmp_path / "system.json"
    path.write_text(json.dumps({"states": names, "inputs": 1, "f": f, "g": [g]}))
    return str(path)


def test_simulate_non_finite_h_drift_is_null(capsys, tmp_path):
    cases = [
        # 1/x1 at x1 = 0 is a division by zero, not a numpy inf
        (["1/x1"], ["1"], "0", "1"),
        # f and g evaluate at x2 = 1e-200, but d(x1/x2)/dx2 = -x1/x2^2 divides by
        # an underflowed 0, and a sample is stored only where the Jacobians evaluate
        (["x1/x2", "0"], ["0", "1"], "1,1e-200", "1,1"),
    ]
    for f, g, x0, p0 in cases:
        path = write_system(tmp_path, f, g)
        code, out, err = run(
            capsys, "simulate", path, "--x0", x0, "--p0", p0,
            "--out", str(tmp_path / "t.csv"), "--json",
        )
        assert code == 4
        report = strict_json(out)
        assert report["H_drift"] is None
        assert report["status"] == "eval_error"
        assert report["failure_time"] == 0.0
        assert report["samples"] == 0
        assert err == ""


@pytest.mark.parametrize(
    "f, message",
    [
        ("1e999*x1", "f[0]: number '1e999' is too large for a float (at position 0)"),
        ("1e200*1e200*x1", "f[0]: a constant folds to a value that is not a finite float"),
        ("x1^1001", "f[0]: exponent larger than 1000 (at position 3)"),
        pytest.param(
            "((x1^1000)^1000)^1000", "f[0]: a power folds to an exponent larger than 1000",
            id="folded-exponent",
        ),
        pytest.param(
            "((2^1000)^1000)^1000*x1", "f[0]: a constant power folds past 1048576 bits",
            id="folded-constant",
        ),
        pytest.param(
            "9" * 5000 + "*x1",
            "f[0]: integer literal of 5000 digits is too long (at position 0)",
            id="long-literal",
        ),
        pytest.param(
            "x1 + 1e-99999999*x1",
            "f[0]: decimal literal needs more than 4300 digits (at position 5)",
            id="tiny-decimal",
        ),
        pytest.param(
            "0." + "1" * 5000 + "*x1",
            "f[0]: decimal literal needs more than 4300 digits (at position 0)",
            id="long-decimal",
        ),
    ],
)
def test_non_finite_constants_and_huge_exponents_are_input_errors(capsys, tmp_path, f, message):
    path = write_system(tmp_path, [f], ["1"])
    for argv in (
        ["simulate", path, "--x0", "1", "--p0", "1", "--out", str(tmp_path / "t.csv")],
        ["order", path, "--k-max", "2"],
    ):
        start = time.monotonic()
        code, out, err = run(capsys, *argv)
        assert time.monotonic() - start < 5
        assert code == 1
        assert out == ""
        assert err.count("\n") == 1 and message in err


def test_a_wide_product_is_an_input_error_in_bounded_time(capsys, tmp_path):
    # 22 binomials over 44 states expand to 2^22 monomials, past the normal form's cap
    f = ["*".join(f"(x{2 * k + 1} + x{2 * k + 2})" for k in range(22))] + ["0"] * 43
    path = write_system(tmp_path, f, ["1"] + ["0"] * 43)
    start = time.monotonic()
    code, out, err = run(capsys, "order", path, "--k-max", "1")
    assert time.monotonic() - start < 15
    assert code == 1 and out == ""
    assert err.count("\n") == 1 and "f[0]: a product pairs more than 1048576 terms" in err


def test_simulate_with_a_derivative_past_the_float_range_ends_flagged(capsys, tmp_path):
    # d(1e308*x1^2)/dx1 = 2e308 is inf; the adjoint equation carries it
    path = write_system(tmp_path, ["1e308*x1^2"], ["1"])
    code, out, err = run(
        capsys, "simulate", path, "--x0", "1", "--p0", "1",
        "--out", str(tmp_path / "t.csv"), "--json",
    )
    assert code == 4
    assert strict_json(out)["status"] in ("diverged", "eval_error")
    assert err == ""


def test_simulate_eval_error_at_t0_leaves_a_header_only_csv(capsys, tmp_path):
    path = write_system(tmp_path, ["1/x1"], ["1"])
    out_path = tmp_path / "t.csv"
    out_path.write_text("stale trajectory\n")
    code, _, _ = run(capsys, "simulate", path, "--x0", "0", "--p0", "1", "--out", str(out_path))
    assert code == 4
    assert out_path.read_text() == "t,x_x1,p_x1,u_1,phi_1,H\n"


def nested_system(tmp_path, opener, closer, levels):
    return write_system(tmp_path, ["x2", opener * levels + "x1" + closer * levels], ["0", "1"])


# each '*' or '/' of a chain is one level; the Jacobian of the cos(x1)/... chain
# nests quotients twice as deep as the chain
@pytest.mark.parametrize(
    "opener, closer", [("(", ")"), ("sin(", ")"), ("-", ""), ("x1*", ""), ("cos(x1)/", "")]
)
def test_nesting_at_the_limit_runs_and_past_it_is_input_error(capsys, tmp_path, opener, closer):
    path = nested_system(tmp_path, opener, closer, MAX_NESTING)
    code, _, _ = run(capsys, "order", path, "--k-max", "2")
    assert code == 3
    code, _, _ = run(
        capsys, "simulate", path, "--x0", "0.1,0", "--p0", "1,1",
        "--horizon", "0.01", "--out", str(tmp_path / "t.csv"),
    )
    assert code == 0
    path = nested_system(tmp_path, opener, closer, MAX_NESTING + 1)
    for argv in (["order", path], ["simulate", path, "--x0", "0,0", "--p0", "1,1"]):
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == ""
        assert f"nested deeper than {MAX_NESTING} levels" in err


def test_a_3000_term_sum_orders_and_simulates(capsys, tmp_path):
    # the generated code adds the chain in statements of at most 256 operands
    path = write_system(tmp_path, ["x2", " + ".join(["x1"] * 3000)], ["0", "1"])
    code, _, _ = run(capsys, "order", path, "--k-max", "2")
    assert code == 3
    code, out, err = run(
        capsys, "simulate", path, "--x0", "0.1,0", "--p0", "1,1",
        "--out", str(tmp_path / "t.csv"),
    )
    assert code == 0
    assert "status: ok" in out
    assert err == ""


@pytest.mark.parametrize(
    "terms",
    [
        ["x1"] * 3000,
        [f"{i}*x1*x2" for i in range(1, 3001)],
        ["sin(x1)"] * 3000,
        [f"x1^{2 + i % 5}" for i in range(3000)],
    ],
    ids=["same-variable", "distinct-products", "shared-call", "powers"],
)
def test_3000_term_sum_simulates_or_is_one_line_input_error(capsys, tmp_path, terms):
    # every such sum compiles; the distinct products grow past the float range
    path = write_system(tmp_path, ["x2", " + ".join(terms)], ["0", "1"])
    code, out, err = run(
        capsys, "simulate", path, "--x0", "0.1,0", "--p0", "1,1",
        "--horizon", "0.01", "--out", str(tmp_path / "t.csv"),
    )
    diverges = terms[1] == "2*x1*x2"
    assert code == (4 if diverges else 0)
    assert f"status: {'diverged' if diverges else 'ok'}" in out
    assert err == ""


def test_float_tainted_zero_test_is_relative_in_a_small_box(capsys, tmp_path):
    # the b-field values at |th| <= 1e-4 are far below an absolute 1e-9
    path = write_system(tmp_path, ["x2", "-sin(x1)"], ["0", "cos(x1)*x1^3"])
    for box in ("1", "1e-4"):
        code, out, _ = run(capsys, "order", path, "--zero-box", box, "--k-max", "4")
        assert code == 0
        assert out.splitlines()[-1] == "k = 2, q = 1"


@pytest.mark.parametrize(
    "g, x0, p0, message",
    [
        (["0", "exp(x1)"], "1000,0", "1,1", "overflowed"),
        (["0", "x1^3"], "1e30,0", "1e300,1e300", "not finite"),
        (["0", "1/x1"], "0,1", "1,1", "B_2 hit a division by zero at the given point"),
        # 1e300*x1 overflows to inf, and sin(inf) is a domain error
        (["0", "sin(1e300*x1)"], "1e154,0", "1,1", "B_2 overflowed at the given point"),
    ],
)
def test_local_order_non_finite_b_matrix_is_input_error(capsys, tmp_path, g, x0, p0, message):
    path = write_system(tmp_path, ["x2", "0"], g)
    code, out, err = run(capsys, "local-order", path, "--x0", x0, "--p0", p0, "--json")
    assert code == 1
    assert out == ""
    assert message in err


def test_local_order_compiles_every_level_of_the_stress_pendulum(capsys):
    # from B_11 on, the pendulum's b-field holds sums too long for one statement
    path = str(SYSTEMS_DIR / "stress" / "rational_pendulum.json")
    code, out, err = run(
        capsys, "local-order", path, "--x0", "0.3,0.2", "--p0", "0,0", "--k-max", "12"
    )
    assert (code, out, err) == (3, "local order not found up to k = 12\n", "")


def test_verify_lemma1_overflow_is_one_line_input_error(capsys, tmp_path):
    # [f, g] holds x1^1201, past the float range at x1 = 2
    path = write_system(tmp_path, ["1/x1^600", "0"], ["0", "1/x1^600"])
    code, out, err = run(capsys, "verify", path, "lemma1", "--x0", "2,1", "--p0", "1,1")
    assert (code, out) == (1, "")
    assert err == "lemma 1's h, [f, h] or [g_i, h] overflowed on the extremal\n"


def test_an_unsampleable_b_field_is_quoted_in_bounded_time(capsys, tmp_path):
    # f[1] never exceeds 2^1000, so it validates; the symbolic nonzero b-field,
    # which no sample point evaluates, prints in cosines in a few hundred
    # characters, where its reduced form in sin(x1)^2 would print 61 MB
    path = write_system(tmp_path, ["x2", "(cos(x1)^1000 + 1)^1000"], ["0", "1"])
    start = time.monotonic()
    code, out, err = run(capsys, "order", path)
    assert (code, out) == (1, "")
    assert err.startswith("no sample point of '999000000*cos(x1)^998*(cos(x1)^1000 + 1)^")
    assert err.endswith("' could be evaluated\n")
    assert len(err) < 300
    assert time.monotonic() - start < 4.0


@pytest.mark.parametrize(
    "key, text, message",
    [
        pytest.param("f", "1/(0*x2 + 0)", "f[1]: division by zero in '0*x2 + 0'", id="f-over-0"),
        pytest.param("K", "1/(t - t)", "K: division by zero in 't - t'", id="K-over-0"),
        # 10^-8000 is a finite float, 0.0, but it cannot be printed or parsed back
        pytest.param(
            "f", "x1 + 1e-4000*1e-4000*x1^2",
            "f[1]: a constant folds to a rational of more than 4300 digits", id="long-constant",
        ),
    ],
)
@pytest.mark.parametrize(
    "argv",
    [
        ["order"],
        ["brackets"],
        ["local-order", "--x0=1,2", "--p0=1,1"],
        ["simulate", "--x0", "0,0", "--p0", "1,0"],
        ["verify", "parity"],
    ],
    ids=lambda a: a[0],
)
def test_an_unrepresentable_input_is_the_same_load_error_for_every_command(
    capsys, tmp_path, monkeypatch, key, text, message, argv
):
    monkeypatch.chdir(tmp_path)  # simulate would write its trajectory.csv here
    doc = {"states": ["x1", "x2"], "inputs": 1, "f": ["x2", "0"], "g": [["0", "1"]]}
    if key == "f":
        doc["f"] = ["x2", text]
    else:
        doc["K"] = text
    path = tmp_path / "system.json"
    path.write_text(json.dumps(doc))
    assert run(capsys, argv[0], str(path), *argv[1:]) == (1, "", f"'{path}': {message}\n")
    assert not (tmp_path / "trajectory.csv").exists()


# ---------------------------------------------------------------------------
# python -m ctrlorder
# ---------------------------------------------------------------------------


ROOT = Path(__file__).resolve().parents[1]


def _python_env() -> dict:
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


def run_python(*args):
    """A fresh interpreter in the repository root, with this checkout's package."""
    return subprocess.run(
        [sys.executable, *args],
        cwd=ROOT, env=_python_env(), capture_output=True, text=True, timeout=120,
    )


def run_module(*argv):
    return run_python("-m", "ctrlorder", *argv)


def test_module_entry_point():
    done = run_module("--version")
    assert done.returncode == 0
    assert done.stdout.startswith("ctrlorder ")
    done = run_module("order", "systems/fuller.json")
    assert done.returncode == 0
    assert "k = 4, q = 2" in done.stdout


@pytest.mark.parametrize(
    "argv",
    [
        # fits stdout's buffer: the write fails when the buffer is flushed at exit
        ["order", FULLER, "--json"],
        # about 16 kB, past the buffer: the write fails inside print
        ["brackets", "systems/stress/rational_pendulum.json", "--depth", "4", "--json"],
    ],
)
def test_a_closed_stdout_exits_1_without_a_traceback(argv):
    env = _python_env()
    env.pop("PYTHONUNBUFFERED", None)  # stdout to a pipe is block-buffered, as in a shell
    proc = subprocess.Popen(
        [sys.executable, "-m", "ctrlorder", *argv],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    proc.stdout.close()  # as `| head -1` does once it has its line
    _, err = proc.communicate(timeout=120)
    assert proc.returncode == 1
    assert err.count("\n") <= 1 and "Traceback" not in err and "Exception" not in err


# The test process already holds numpy, so what a command loads is seen in a
# fresh interpreter: four symbolic commands, then the numeric one in argv.
_NUMPY_LOADED_AFTER = """
import contextlib, io, json, sys
import ctrlorder.cli


def run(*argv):
    with contextlib.redirect_stdout(io.StringIO()):
        code = ctrlorder.cli.main(list(argv))
    loaded = ("numpy", "dataclasses", "inspect", "hashlib")
    return [code] + [name in sys.modules for name in loaded]


fuller = "systems/fuller.json"
print(json.dumps([
    run("order", fuller),
    run("brackets", fuller, "--depth", "3"),
    run("verify", fuller, "parity"),
    run("verify", fuller, "identities"),
    run(*sys.argv[1:]),
]))
"""


@pytest.mark.parametrize("numeric", ["local-order", "simulate"])
def test_only_the_numeric_commands_load_numpy(tmp_path, numeric):
    argv = [numeric, FULLER, "--x0", "0.1,0.2,0.3", "--p0", "1,0.5,0.25"]
    if numeric == "simulate":
        argv += ["--horizon", "0.01", "--out", str(tmp_path / "t.csv")]
    done = run_python("-c", _NUMPY_LOADED_AFTER, *argv)
    assert done.returncode == 0, done.stderr
    *symbolic, (code, numpy, dataclasses, _, _) = json.loads(done.stdout)
    # neither numpy, nor the modules that generate or inspect code, nor OpenSSL's hashlib
    assert symbolic == [[0, False, False, False, False]] * 4
    # numpy imports inspect itself, but nothing imports dataclasses
    assert (code, numpy, dataclasses) == (0, True, False)
