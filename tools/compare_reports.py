"""Compare the `--json` reports of two ctrlorder source trees, invocation by invocation.

    python3 tools/compare_reports.py PARENT_SRC CHANGE_SRC

PARENT_SRC and CHANGE_SRC are directories that contain the `ctrlorder`
package (a checkout's `src/`).  Each tree runs, in its own interpreter,
`brackets --json`, `order --json` and `verify identities --json` on every
system in `systems/` and `ctrlbench/systems/`, calling `ctrlorder.cli.main`
with stdout and stderr captured.  The manifest timestamp is dropped from
each report.

One line per invocation tells whether the exit code, the report body and
stderr are equal.  The last line is PASS when all of them are, and the exit
code is 0 then and 1 when not.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SYSTEM_FILES = sorted((ROOT / "systems").glob("*.json")) + sorted(
    (ROOT / "ctrlbench" / "systems").glob("*.json")
)
COMMANDS = (["brackets"], ["order"], ["verify", "identities"])


def invocations() -> list[list[str]]:
    out = []
    for path in SYSTEM_FILES:
        rel = str(path.relative_to(ROOT))
        for command in COMMANDS:
            out.append([command[0], rel, *command[1:], "--json"])
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
    """Run every invocation with the ctrlorder on sys.path and write the results."""
    from ctrlorder.cli import main

    results = []
    for argv in invocations():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        results.append(
            {"argv": argv, "code": code, "body": body(out.getvalue()), "stderr": err.getvalue()}
        )
    Path(out_path).write_text(json.dumps(results), encoding="utf-8")


def run_tree(src: str, out_path: str) -> list[dict]:
    env = {**os.environ, "PYTHONPATH": str(Path(src).resolve())}
    command = [sys.executable, str(Path(__file__).resolve()), "--dump", out_path]
    subprocess.run(command, check=True, env=env, cwd=ROOT)
    return json.loads(Path(out_path).read_text(encoding="utf-8"))


def compare(parent: list[dict], change: list[dict]) -> bool:
    print(f"{'invocation':<62} {'exit':>9} {'body':>5} {'stderr':>6}")
    passed = 0
    for a, b in zip(parent, change):
        same = [a["code"] == b["code"], a["body"] == b["body"], a["stderr"] == b["stderr"]]
        codes = f"{a['code']}/{b['code']}"
        print(f"{' '.join(a['argv']):<62} {codes:>9} {same[1]!s:>5} {same[2]!s:>6}")
        passed += all(same)
    ok = passed == len(parent) == len(change)
    print(
        f"{passed}/{len(parent)} invocations have equal exit codes, report bodies"
        f" (timestamps aside) and stderr: {'PASS' if ok else 'FAIL'}"
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
