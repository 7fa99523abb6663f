"""Time one-shot CLI runs, and the CLI's import, of two ctrlorder source trees.

    python3 tools/time_cli.py SRC_A SRC_B [--runs N] -- ARGV...

SRC_A and SRC_B are directories that contain the `ctrlorder` package (a
checkout's `src/`).  For each tree, every pair measures in fresh interpreters:

- `import ctrlorder.cli`, timed inside the interpreter (the benchmark's
  `setup_s` measurement);
- the wall time of `python -m ctrlorder ARGV...`, start-up included, stdout
  discarded.

Pairs alternate which tree runs first, N pairs (10 by default), after one
untimed run of each that fills the bytecode caches.  Every run of both trees
must end with the same exit code.  The process pins itself, and so its
children, to one CPU, as the benchmark does.  Relative paths in ARGV are read
from the current directory.

The table gives per tree the median and quartiles in seconds, the ratio of
the medians A/B, and the number of pairs in which B was faster.
"""

from __future__ import annotations

import argparse
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

IMPORT_CODE = (
    "import time; t = time.perf_counter(); import ctrlorder.cli; print(time.perf_counter() - t)"
)


def run(src: str, command: list[str]) -> tuple[dict[str, float], int]:
    """({measurement: seconds}, exit code of the command) for one tree."""
    env = {**os.environ, "PYTHONPATH": str(Path(src).resolve())}
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_CODE], check=True, env=env, capture_output=True, text=True
    )
    times = {"import ctrlorder.cli": float(done.stdout)}
    started = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-m", "ctrlorder", *command],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
    )
    times["ctrlorder " + " ".join(command)] = time.perf_counter() - started
    return times, done.returncode


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.strip().splitlines()[0],
        usage="%(prog)s SRC_A SRC_B [--runs N] -- ARGV...",
    )
    parser.add_argument("src_a")
    parser.add_argument("src_b")
    parser.add_argument("--runs", type=int, default=10, help="alternating pairs of fresh runs")
    if "--" not in argv:
        parser.error("give the ctrlorder arguments after --")
    split = argv.index("--")
    args, command = parser.parse_args(argv[:split]), argv[split + 1 :]
    if args.runs < 1 or not command:
        parser.error("--runs must be >= 1 and ARGV must not be empty")
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    trees = {"A": args.src_a, "B": args.src_b}
    codes = {name: run(src, command)[1] for name, src in trees.items()}  # untimed warm-up
    samples: dict[str, list[dict[str, float]]] = {"A": [], "B": []}
    for pair in range(args.runs):
        for name in ("A", "B") if pair % 2 == 0 else ("B", "A"):
            times, code = run(trees[name], command)
            if code != codes["A"] or code != codes["B"]:
                raise SystemExit(f"exit codes differ: warm-up A {codes['A']}, B {codes['B']},"
                                 f" pair {pair} {name} {code}")
            samples[name].append(times)

    print(f"{args.runs} alternating pairs of fresh runs, one CPU, seconds; exit code {codes['A']}")
    print(f"A = {args.src_a}\nB = {args.src_b}")
    for measurement in samples["A"][0]:
        a = [s[measurement] for s in samples["A"]]
        b = [s[measurement] for s in samples["B"]]
        wins = sum(y < x for x, y in zip(a, b))
        print(f"\n{measurement}")
        for name, values in (("A", a), ("B", b)):
            q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
            print(f"  {name}  median {median:.4f}  quartiles {q1:.4f} .. {q3:.4f}")
        ratio = statistics.median(a) / statistics.median(b)
        print(f"  A/B {ratio:.2f}; B faster in {wins} of {args.runs} pairs")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
