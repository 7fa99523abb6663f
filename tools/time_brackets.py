"""Time bracket construction and zero tests of two ctrlorder source trees on the rational pendulum.

    python3 tools/time_brackets.py SRC_A SRC_B [--runs N] [--depth K]

SRC_A and SRC_B are directories that contain the `ctrlorder` package (a
checkout's `src/`).  Each run is a fresh interpreter with one tree on its
path, and the runs alternate A, B, A, B, ... (N of each, 3 by default).  A
run on `systems/stress/rational_pendulum.json` times, in this order:

- one in-process `ctrlorder brackets ... --depth 4 --json` call, stdout
  captured;
- for k = 1..K (4 by default), in one `BracketTable`: ad_f^k g (the table
  holds ad_f^(k-1) g already), the b-field [g, ad_f^k g], and `vf_is_zero`
  of that b-field.

The table gives the median seconds of each measurement per tree and their
ratio A/B.  The run with the slower tree takes as long as its deepest
bracket: at K = 4 that was about 20 s for a tree-simplifier bracket.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PENDULUM = ROOT / "systems" / "stress" / "rational_pendulum.json"


def child(depth: int) -> None:
    """One run with the ctrlorder on sys.path; prints {measurement: seconds} as JSON."""
    from ctrlorder import BracketTable, load, vf_is_zero
    from ctrlorder.cli import main

    times = {}
    started = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(["brackets", str(PENDULUM), "--depth", "4", "--json"])
    times["brackets --depth 4 --json"] = time.perf_counter() - started
    if code != 0:
        raise SystemExit(f"brackets exited {code}")
    system = load(json.loads(PENDULUM.read_text(encoding="utf-8")))
    table = BracketTable(system.drift, system.inputs)
    for k in range(1, depth + 1):
        started = time.perf_counter()
        table.ad(0, k)
        times[f"ad_f^{k} g"] = time.perf_counter() - started
        started = time.perf_counter()
        field = table.b(0, 0, k + 1)
        times[f"[g, ad_f^{k} g]"] = time.perf_counter() - started
        started = time.perf_counter()
        vf_is_zero(field)
        times[f"zero test of [g, ad_f^{k} g]"] = time.perf_counter() - started
    print(json.dumps(times))


def run(src: str, depth: int) -> dict[str, float]:
    env = {**os.environ, "PYTHONPATH": str(Path(src).resolve())}
    command = [sys.executable, str(Path(__file__).resolve()), "--child", str(depth)]
    done = subprocess.run(command, check=True, env=env, cwd=ROOT, capture_output=True, text=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def main(argv: list[str]) -> int:
    if len(argv) == 2 and argv[0] == "--child":
        child(int(argv[1]))
        return 0
    parser = argparse.ArgumentParser(description=__doc__.strip().splitlines()[0])
    parser.add_argument("src_a")
    parser.add_argument("src_b")
    parser.add_argument("--runs", type=int, default=3, help="fresh runs per tree")
    parser.add_argument("--depth", type=int, default=4, help="deepest k of ad_f^k g")
    args = parser.parse_args(argv)
    if args.runs < 1 or args.depth < 1:
        parser.error("--runs and --depth must be >= 1")
    samples: dict[str, list[dict[str, float]]] = {"A": [], "B": []}
    for _ in range(args.runs):
        samples["A"].append(run(args.src_a, args.depth))
        samples["B"].append(run(args.src_b, args.depth))
    print(f"medians of {args.runs} alternating fresh runs per tree, seconds")
    print(f"A = {args.src_a}\nB = {args.src_b}")
    print(f"{'measurement':<34} {'A':>10} {'B':>10} {'A/B':>8}")
    for name in samples["A"][0]:
        a = statistics.median(s[name] for s in samples["A"])
        b = statistics.median(s[name] for s in samples["B"])
        print(f"{name:<34} {a:>10.4f} {b:>10.4f} {a / b if b else float('inf'):>8.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
