"""Compare the `--json` reports of two ctrlorder source trees, invocation by invocation.

    python3 tools/compare_reports.py PARENT_SRC CHANGE_SRC

PARENT_SRC and CHANGE_SRC are directories that contain the `ctrlorder`
package (a checkout's `src/`).  Each tree runs, in its own interpreter,
`brackets` (at its default depth and at `--depth 5`), `order`, `verify
identities`, `verify lemma1`, `local-order` and `simulate`, each with
`--json`, on every system in `systems/` and `ctrlbench/systems/`; `order`,
`local-order` and `simulate` again with `--extend-cost` on each system with a
running cost (so that analyses of the loaded fields and of new, cost-extended
ones are both covered); and, on every stress system in `systems/stress/`
(deep rational trees, where term collection and sort order matter most),
`brackets --depth 4 --json`, `order --json` (which reports the witness
points of its trig b-fields), `local-order --json`, and `local-order --k-max
12 --json` with p0 = 0, which evaluates B_1, ..., B_12 and finds none
nonzero; calling `ctrlorder.cli.main` with stdout and stderr captured.  The
manifest timestamp is dropped from each report.  `local-order` and
`simulate` start from x0_i = 0.1 i and p0_i = 1/i (p0 = -1 for the cost
state), and the CSV that `simulate` writes is compared byte for byte.

One line per invocation tells whether the exit code, the report body,
stderr and the CSV are equal.  Under an invocation whose body differs, the
JSON paths where it differs follow (such as `manifest.options.horizon`);
under one whose CSV differs, the largest |change - parent| / (1 + |parent|)
over its numeric cells and the column of that cell, or the first line
where a non-numeric cell or the shape differs.  The last line is PASS when
all of them are equal, and the exit code is 0 then and 1 when not.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SYSTEM_FILES = sorted((ROOT / "systems").glob("*.json")) + sorted(
    (ROOT / "ctrlbench" / "systems").glob("*.json")
)
STRESS_FILES = sorted((ROOT / "systems" / "stress").glob("*.json"))
COMMANDS = (
    ["brackets"],
    ["brackets", "--depth", "5"],
    ["order"],
    ["verify", "identities"],
    ["verify", "lemma1"],
)


def point(n: int, cost_state: bool = False) -> list[str]:
    x0 = [0.1 * (i + 1) for i in range(n)]
    p0 = [1.0 / (i + 1) for i in range(n)]
    if cost_state:
        x0, p0 = [0.0, *x0], [-1.0, *p0]
    return [f"--x0={','.join(map(repr, x0))}", f"--p0={','.join(map(repr, p0))}"]


def invocations(csv_path: str) -> list[list[str]]:
    out = []
    for path in SYSTEM_FILES:
        rel = str(path.relative_to(ROOT))
        doc = json.loads(path.read_text(encoding="utf-8"))
        n = len(doc["states"])
        for command in COMMANDS:
            out.append([command[0], rel, *command[1:], "--json"])
        out.append(["local-order", rel, *point(n), "--json"])
        out.append(["simulate", rel, *point(n), "--out", csv_path, "--json"])
        if doc.get("cost"):
            out.append(["order", rel, "--extend-cost", "--json"])
            out.append(["local-order", rel, "--extend-cost", *point(n, True), "--json"])
            out.append(
                ["simulate", rel, "--extend-cost", *point(n, True), "--out", csv_path, "--json"]
            )
    for path in STRESS_FILES:
        rel = str(path.relative_to(ROOT))
        n = len(json.loads(path.read_text(encoding="utf-8"))["states"])
        out.append(["brackets", rel, "--depth", "4", "--json"])
        out.append(["order", rel, "--json"])
        out.append(["local-order", rel, *point(n), "--json"])
        # p = 0: every level to k = 12 is evaluated, and the deep ones hold long sums
        zero = f"--p0={','.join(['0.0'] * n)}"
        out.append(["local-order", rel, point(n)[0], zero, "--k-max", "12", "--json"])
    return out


def body(stdout: str):
    """The parsed report without its timestamp; the raw text where it is not JSON."""
    try:
        report = json.loads(stdout)
    except json.JSONDecodeError:
        return stdout
    report.get("manifest", {}).pop("timestamp", None)
    return report


def dump(out_path: str) -> None:
    """Run every invocation with the ctrlorder on sys.path and write the results.

    The CSV goes next to `out_path`, so that both trees write the same path."""
    from ctrlorder.cli import main

    csv_path = Path(out_path).parent / "trajectory.csv"
    results = []
    for argv in invocations(str(csv_path)):
        csv_path.unlink(missing_ok=True)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        results.append(
            {
                "argv": argv,
                "code": code,
                "body": body(out.getvalue()),
                "stderr": err.getvalue(),
                "csv": csv_path.read_text(encoding="utf-8") if csv_path.exists() else None,
            }
        )
    Path(out_path).write_text(json.dumps(results), encoding="utf-8")


def run_tree(src: str, out_path: str) -> list[dict]:
    env = {**os.environ, "PYTHONPATH": str(Path(src).resolve())}
    command = [sys.executable, str(Path(__file__).resolve()), "--dump", out_path]
    subprocess.run(command, check=True, env=env, cwd=ROOT)
    return json.loads(Path(out_path).read_text(encoding="utf-8"))


def csv_of(result: dict) -> str | None:
    argv = result["argv"]
    return argv[argv.index("--out") + 1] if "--out" in argv else None


def json_paths(a, b, path: str = "") -> list[str]:
    """The paths (`key.key[index]`) at which two parsed reports differ."""
    if isinstance(a, dict) and isinstance(b, dict):
        out = []
        for key in sorted(a.keys() | b.keys()):
            sub = f"{path}.{key}" if path else key
            out += json_paths(a[key], b[key], sub) if key in a and key in b else [sub]
        return out
    if isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        return [p for i, (x, y) in enumerate(zip(a, b)) for p in json_paths(x, y, f"{path}[{i}]")]
    return [] if a == b else [path or "(the whole body)"]


def csv_difference(a: str | None, b: str | None) -> str:
    """Where two CSV texts differ: the largest relative difference of a numeric
    cell and its column, else the first line that differs."""
    if a is None or b is None:
        return "written by one tree only"
    rows_a, rows_b = list(csv.reader(io.StringIO(a))), list(csv.reader(io.StringIO(b)))
    worst, column = 0.0, None
    for line, (ra, rb) in enumerate(zip(rows_a, rows_b), start=1):
        if len(ra) != len(rb) or line == 1 and ra != rb:
            return f"line {line} differs in shape or header"
        for name, x, y in zip(rows_a[0], ra, rb):
            if x == y:
                continue
            try:
                rel = abs(float(y) - float(x)) / (1.0 + abs(float(x)))
            except ValueError:
                rel = math.nan
            if math.isnan(rel):
                return f"line {line}, column {name}: {x!r} vs {y!r}"
            if rel > worst:
                worst, column = rel, name
    if len(rows_a) != len(rows_b):
        return f"{len(rows_a)} vs {len(rows_b)} lines"
    return f"largest |change - parent| / (1 + |parent|) = {worst:.3g}, in column {column}"


def compare(parent: list[dict], change: list[dict]) -> bool:
    print(f"{'invocation':<64} {'exit':>9} {'body':>5} {'stderr':>6} {'csv':>5}")
    passed = 0
    for a, b in zip(parent, change):
        same = [a[key] == b[key] for key in ("code", "body", "stderr", "csv")]
        codes = f"{a['code']}/{b['code']}"
        # the listed invocation leaves out the --x0/--p0 vectors and the CSV path
        hidden = ("--out", csv_of(a))
        argv = " ".join(
            arg for arg in a["argv"] if not arg.startswith(("--x0=", "--p0=")) and arg not in hidden
        )
        print(f"{argv:<64} {codes:>9} {same[1]!s:>5} {same[2]!s:>6} {same[3]!s:>5}")
        if not same[1]:
            paths = json_paths(a["body"], b["body"])
            print(f"    body differs at {', '.join(paths[:10])}{' ...' if len(paths) > 10 else ''}")
        if not same[3]:
            print(f"    csv: {csv_difference(a['csv'], b['csv'])}")
        passed += all(same)
    ok = passed == len(parent) == len(change)
    print(
        f"{passed}/{len(parent)} invocations have equal exit codes, report bodies"
        f" (timestamps aside), stderr and CSV: {'PASS' if ok else 'FAIL'}"
    )
    return ok


def main(argv: list[str]) -> int:
    if len(argv) == 2 and argv[0] == "--dump":
        dump(argv[1])
        return 0
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        parent = run_tree(argv[0], str(Path(tmp) / "parent.json"))
        change = run_tree(argv[1], str(Path(tmp) / "change.json"))
    return 0 if compare(parent, change) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
