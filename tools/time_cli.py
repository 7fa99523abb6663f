"""Time one-shot CLI runs, and the CLI's import, of two ctrlorder source trees.

    python3 tools/time_cli.py SRC_A SRC_B [--runs N] -- ARGV...

SRC_A and SRC_B are directories that contain the `ctrlorder` package (a
checkout's `src/`).  For each tree, every pair measures in fresh interpreters:

- `import ctrlorder.cli`, timed inside the interpreter, with the package
  compiled from source as no bytecode cache holds it (the benchmark's
  `setup_s` measurement, which runs a fresh checkout with
  PYTHONDONTWRITEBYTECODE=1);
- the same import read from a bytecode cache of the package, as an installed
  package is;
- the wall time of `python -m ctrlorder ARGV...`, start-up included, stdout
  discarded, with the package compiled from source as in the first import.

Every interpreter reads and writes bytecode under a temporary
PYTHONPYCACHEPREFIX, never in `__pycache__` directories of the trees, so a
tree's own caches neither help nor change.  One untimed run of each tree
fills the caches; the package's own entries are then removed from the cache
the uncached runs read, and the timed runs write none.  Pairs alternate which
tree runs first, N pairs (10 by default).  Every run of both trees must end
with the same exit code.  The process pins itself, and so its children, to
one CPU, as the benchmark does.  Relative paths in ARGV are read from the
current directory.

The table gives per tree the median and quartiles in seconds, the ratio of
the medians A/B, and the number of pairs in which B was faster.
"""

from __future__ import annotations

import argparse
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

IMPORT_CODE = (
    "import time; t = time.perf_counter(); import ctrlorder.cli; print(time.perf_counter() - t)"
)


def timed_import(env: dict[str, str]) -> float:
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_CODE], check=True, env=env, capture_output=True, text=True
    )
    return float(done.stdout)


def run(src: str, caches: Path, command: list[str]) -> tuple[dict[str, float], int]:
    """({measurement: seconds}, exit code of the command) for one tree; `caches`
    holds its bytecode caches, "uncached" without the package and "cached" with it."""
    env = {**os.environ, "PYTHONPATH": src, "PYTHONDONTWRITEBYTECODE": "1"}
    uncached = {**env, "PYTHONPYCACHEPREFIX": str(caches / "uncached")}
    times = {
        "import ctrlorder.cli": timed_import(uncached),
        "import ctrlorder.cli, bytecode cached": timed_import(
            {**env, "PYTHONPYCACHEPREFIX": str(caches / "cached")}
        ),
    }
    started = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-m", "ctrlorder", *command],
        env=uncached, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
    )
    times["ctrlorder " + " ".join(command)] = time.perf_counter() - started
    return times, done.returncode


def fill_caches(src: str, caches: Path, command: list[str]) -> int:
    """Write both bytecode caches of one tree; the command's exit code."""
    writing = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    for name in ("uncached", "cached"):
        env = {**writing, "PYTHONPATH": src, "PYTHONPYCACHEPREFIX": str(caches / name)}
        timed_import(env)
        code = subprocess.run(
            [sys.executable, "-m", "ctrlorder", *command],
            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        ).returncode
    # a prefix cache mirrors each source directory's absolute path
    shutil.rmtree(caches / "uncached" / Path(src).relative_to(Path(src).anchor), ignore_errors=True)
    return code


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

    trees = {"A": str(Path(args.src_a).resolve()), "B": str(Path(args.src_b).resolve())}
    samples: dict[str, list[dict[str, float]]] = {"A": [], "B": []}
    with tempfile.TemporaryDirectory(prefix="time_cli-") as tmp:
        caches = {name: Path(tmp, name) for name in trees}
        codes = {name: fill_caches(src, caches[name], command) for name, src in trees.items()}
        for pair in range(args.runs):
            for name in ("A", "B") if pair % 2 == 0 else ("B", "A"):
                times, code = run(trees[name], caches[name], command)
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
