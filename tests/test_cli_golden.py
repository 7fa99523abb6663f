"""Golden CLI reports: bundled-system invocations print what they printed when recorded.

Each invocation runs once in text mode and once with `--json`.  The exit
code, the text output and the parsed JSON report are compared with
`golden/cli_reports.json`; a JSON report must parse without NaN or Infinity.
The manifest timestamp is dropped, and the systems directory and the
trajectory path are replaced with `<systems>` and `<out>`.  A report change
must be intended and listed in CHANGES.md; the file is then rewritten with
`python tests/test_cli_golden.py`.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

import pytest

from ctrlorder.cli import main

from helpers import SYSTEMS_DIR, strict_json

GOLDEN = Path(__file__).resolve().parent / "golden" / "cli_reports.json"

CX = "<systems>/counterexample.json"
FULLER = "<systems>/fuller.json"
COMMUTING = "<systems>/commuting.json"
DI = "<systems>/double_integrator.json"
HALF = "<systems>/half_integer.json"

INVOCATIONS = [
    ["order", CX],
    ["order", FULLER],
    ["order", DI],
    ["order", HALF],
    ["order", COMMUTING, "--k-max", "6"],
    ["order", CX, "--extend-cost"],
    ["order", DI, "--extend-cost"],
    ["brackets", CX, "--depth", "2"],
    ["brackets", FULLER, "--depth", "3"],
    ["brackets", DI, "--depth", "2", "--extend-cost"],
    ["simulate", DI, "--x0", "0,0", "--p0", "1,0", "--policy", "fixed:1", "--out", "<out>"],
    ["simulate", CX, "--x0", "0.1,0.2,0.3,0.4,0.5,0.6", "--p0", "1,0.5,0.25,0.2,0.1,0.05",
     "--horizon", "0.2", "--out", "<out>"],
    ["simulate", FULLER, "--x0", "0,0.5,-0.2", "--p0=-1,0.3,0.1", "--horizon", "0.5",
     "--out", "<out>"],
    ["verify", FULLER, "all"],
    ["verify", CX, "all"],
    ["verify", COMMUTING, "parity", "--k-max", "4"],
    ["local-order", CX, "--x0", "0.1,0.2,0.3,0.4,0.5,0.6", "--p0", "0.9,-0.4,0.3,0.2,0.1,0.5"],
    ["local-order", CX, "--x0", "0.1,0.2,0.3,0.4,0.5,0.6", "--p0", "0,0,0,0,0,0",
     "--k-max", "4"],
    ["local-order", FULLER, "--x0", "0.3,0.2,0.1", "--p0", "1,0.5,0.25"],
]


def run_case(argv: list[str], as_json: bool, out_path: Path) -> dict:
    """Run one invocation and return its recorded form, paths as placeholders."""
    systems, out = str(SYSTEMS_DIR), str(out_path)
    real = [a.replace("<systems>", systems).replace("<out>", out) for a in argv]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(real + (["--json"] if as_json else []))
    text = buf.getvalue().replace(out, "<out>").replace(systems, "<systems>")
    case = {"argv": argv, "json": as_json, "exit_code": code}
    if as_json:
        report = strict_json(text)
        del report["manifest"]["timestamp"]
        case["report"] = report
    else:
        case["stdout"] = text
    return case


def _case_id(case: dict) -> str:
    command, path, *flags = case["argv"]
    return "-".join([command, Path(path).stem, *flags[:2], "json" if case["json"] else "text"])


CASES = json.loads(GOLDEN.read_text(encoding="utf-8")) if GOLDEN.is_file() else []


def test_golden_covers_every_invocation():
    assert [(c["argv"], c["json"]) for c in CASES] == [
        (argv, as_json) for argv in INVOCATIONS for as_json in (False, True)
    ]


@pytest.mark.parametrize("case", CASES, ids=[_case_id(c) for c in CASES])
def test_golden_report(case, tmp_path):
    assert run_case(case["argv"], case["json"], tmp_path / "traj.csv") == case


def record() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        cases = [
            run_case(argv, as_json, Path(tmp) / "traj.csv")
            for argv in INVOCATIONS
            for as_json in (False, True)
        ]
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(cases, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(cases)} cases to {GOLDEN}", file=sys.stderr)


if __name__ == "__main__":
    record()
