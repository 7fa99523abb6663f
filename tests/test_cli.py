"""Command-line interface: outputs, exit codes, JSON manifests, fault injection."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ctrlorder.order
from ctrlorder import VectorField, const, lie_bracket
from ctrlorder.cli import main
from ctrlorder.expr import MAX_NESTING

from helpers import SYSTEMS_DIR, strict_json

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


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


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
    path = write_system(tmp_path, ["1/x1"], ["1"])
    code, out, err = run(
        capsys, "simulate", path, "--x0", "0", "--p0", "1",
        "--out", str(tmp_path / "t.csv"), "--json",
    )
    assert code == 4
    report = strict_json(out)
    assert report["H_drift"] is None
    # 1/x1 at x1 = 0 is a division by zero, not a numpy inf
    assert report["status"] == "eval_error"
    assert report["failure_time"] == 0.0
    assert report["samples"] == 0
    assert err == ""


def nested_system(tmp_path, opener, closer, levels):
    return write_system(tmp_path, ["x2", opener * levels + "x1" + closer * levels], ["0", "1"])


@pytest.mark.parametrize("opener, closer", [("(", ")"), ("sin(", ")"), ("-", "")])
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


@pytest.mark.parametrize(
    "g, x0, p0, message",
    [
        (["0", "exp(x1)"], "1000,0", "1,1", "overflowed"),
        (["0", "x1^3"], "1e30,0", "1e300,1e300", "not finite"),
    ],
)
def test_local_order_non_finite_b_matrix_is_input_error(capsys, tmp_path, g, x0, p0, message):
    path = write_system(tmp_path, ["x2", "0"], g)
    code, out, err = run(capsys, "local-order", path, "--x0", x0, "--p0", p0, "--json")
    assert code == 1
    assert out == ""
    assert message in err


# ---------------------------------------------------------------------------
# python -m ctrlorder
# ---------------------------------------------------------------------------


def run_module(*argv):
    root = Path(__file__).resolve().parents[1]
    path = os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "ctrlorder", *argv],
        cwd=root, env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, timeout=120,
    )


def test_module_entry_point():
    done = run_module("--version")
    assert done.returncode == 0
    assert done.stdout.startswith("ctrlorder ")
    done = run_module("order", "systems/fuller.json")
    assert done.returncode == 0
    assert "k = 4, q = 2" in done.stdout
