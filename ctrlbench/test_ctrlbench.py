"""Tests of the benchmark itself: run with `python3 -m pytest ctrlbench` from the root.

They check that the per-layer counts repeat exactly between traced runs, that
the checkers reject wrong answers, that the sympy oracle agrees with
expected.json, and that the benchmark refuses to run without the sources.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import oracle
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MANIFEST = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
COUNT_UNITS = ("count", "bytes")


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "ctrlbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def _result(done: subprocess.CompletedProcess) -> dict:
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_counts_repeat_across_traced_runs(name):
    first, second = (
        _result(_run("--workload", name, "--seed", "3", "--seconds", "1", "--trace", "1"))
        for _ in range(2)
    )
    assert first["correct"] and second["correct"]
    assert set(first["metrics"]) == {m["name"] for m in MANIFEST["per_layer"]}
    counts = {k: v["value"] for k, v in first["metrics"].items() if v["unit"] in COUNT_UNITS}
    assert counts == {k: second["metrics"][k]["value"] for k in counts}
    assert any(v > 0 for v in counts.values())


def _one_op(name: str, seed: int):
    sys.path.insert(0, str(ROOT / "src"))
    from ctrlorder import cli

    argv, check = workloads.prepare(name, seed)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue(), check


@pytest.mark.parametrize("name, field, wrong", [
    ("order_poly", "k", 5),
    ("order_poly", "found", False),
    ("order_rational", "found", True),
    ("order_rational", "truncated_at", 9),
])
def test_order_checker_rejects_wrong_answers(name, field, wrong, monkeypatch):
    monkeypatch.chdir(ROOT)
    code, out, check = _one_op(name, 5)
    check(code, out)
    report = json.loads(out)
    report[field] = wrong
    with pytest.raises(workloads.Mismatch):
        check(code, json.dumps(report))
    with pytest.raises(workloads.Mismatch):
        check(code + 1, out)


def test_extremal_checker_rejects_a_perturbed_or_missing_trajectory(monkeypatch):
    monkeypatch.chdir(ROOT)
    (HERE / "out").mkdir(exist_ok=True)
    code, out, check = _one_op("extremal", 5)
    csv = Path(workloads.EXTREMAL_CSV)
    lines = csv.read_text(encoding="utf-8").splitlines()
    check(code, out)
    with pytest.raises(OSError):
        check(code, out)  # the checker consumed the CSV
    last = lines[-1].split(",")
    last[9] = repr(float(last[9]) * (1 + 1e-6))  # one adjoint component of the final sample
    csv.write_text("\n".join(lines[:-1] + [",".join(last)]) + "\n", encoding="utf-8")
    with pytest.raises(workloads.Mismatch):
        check(code, out)


def test_extremal_start_keeps_phi_off_zero():
    import random

    x0, p0, (_, p, u) = workloads.draw_extremal_start(random.Random(7), 2000, 1e-3)
    assert x0[0] == 0.0 and p0[0] == -1.0
    assert np.min(np.abs(p[:, 4:7])) >= workloads.SWITCH_MARGIN
    assert np.all(p[:, 0] == -1.0) and np.all(np.abs(u) == 1.0)


@pytest.mark.parametrize("name", ["order_poly", "order_rational"])
def test_oracle_agrees_with_expected(name):
    expected = workloads.EXPECTED[name]
    document = json.loads((ROOT / expected["input"]).read_text(encoding="utf-8"))
    k = oracle.first_order_level(document, k_max=expected.get("truncated_at", 10))
    assert k == (expected["k"] if expected["found"] else None)


def test_oracle_counterexample_order():
    document = json.loads((ROOT / workloads.EXPECTED["extremal"]["input"]).read_text(encoding="utf-8"))
    assert oracle.first_order_level(document, k_max=4) == workloads.EXPECTED["extremal"]["order_k_of_input"]


def test_refuses_to_run_without_sources():
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "ctrlbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        done = _run("--workload", "order_poly", "--seed", "1", "--seconds", "1", cwd=bare)
        assert done.returncode != 0
        assert '"correct"' not in done.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)
