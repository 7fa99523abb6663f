"""Benchmark ctrlorder's CLI in-process: closed loop, one client, one workload.

Run from the repository root:

    python3 ctrlbench/run.py --workload order_poly --seed 1 --seconds 35 --trace 0
    python3 ctrlbench/run.py --workload all --seed 1 --seconds 35 --trace 0

An op is one `ctrlorder.cli.main(argv)` call with stdout captured; its
`--json` output is checked against answers derived without ctrlorder (see
workloads.py).  The next op starts only after the previous one has finished
and been checked.  Between ops, outside the op timing, the loop runs
`gc.collect()` and one calibration kernel.

With `--trace 0` the last stdout line is a JSON object with the end-to-end
metrics; with `--trace 1` it has the per-layer metrics, taken from spans that
tracer.py wraps around the package's public functions on every second op
(the other ops run untraced and give `trace.overhead_s`).  `--workload all`
runs each workload in its own process and prints a table.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracer  # noqa: E402
import workloads  # noqa: E402

MIN_OPS = 11  # so the tail percentile has ten ops beyond it
TAIL_BEYOND = 10
SETUP_REPEATS = 7
SETUP_CODE = (
    "import sys, time; sys.path.insert(0, 'src'); t = time.perf_counter();"
    " import ctrlorder.cli; print(time.perf_counter() - t)"
)
MANIFEST = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END_UNITS = {m["name"]: m["unit"] for m in MANIFEST["end_to_end"]}
PER_LAYER_UNITS = {m["name"]: m["unit"] for m in MANIFEST["per_layer"]}
# Printed in the summary only.  The host's speed swings (up to 1.5x, for
# seconds at a time) spread these by up to 25% from run to run, which no bound
# allowed in BENCHMARK.json covers; op_p50_rel is the steady form.
SUMMARY_UNITS = {"op_p50_s": "s", "op_tail_s": "s", "ops_per_s": "1/s"}


def calibration_kernel() -> int:
    """Fixed pure-Python work (rationals, tuples, dict hashing), about 25 ms.

    One kernel serves every workload: a numeric one shaped like an RK4 step
    tracked the extremal ops' host-speed swings worse than this one did.
    """
    acc = Fraction(0)
    table: dict = {}
    for i in range(1, 6001):
        acc += Fraction(i % 97 + 1, i % 89 + 1)
        key = (i % 61, str(i % 7))
        table[key] = table.get(key, 0) + i
    return sorted(table.items())[0][1] + acc.numerator % 7


def measure_setup() -> float:
    """Median seconds to import ctrlorder.cli in a fresh interpreter."""
    command = [sys.executable, "-c", SETUP_CODE]
    subprocess.run(command, check=True, capture_output=True, timeout=60)  # fills bytecode caches
    times = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(command, check=True, capture_output=True, text=True, timeout=60)
        times.append(float(done.stdout))
    return statistics.median(times)


def tail(times: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND ops beyond it."""
    rank = len(times) - TAIL_BEYOND
    if rank < 1:
        raise ValueError(f"{len(times)} ops leave no percentile with {TAIL_BEYOND} beyond it")
    return sorted(times)[rank - 1], 100.0 * rank / len(times)


class Loop:
    """Closed-loop client: runs and checks ops one after another."""

    def __init__(self, cli, argv, check, tracer_=None):
        self.cli = cli
        self.argv = argv
        self.check = check
        self.tracer = tracer_
        self.attempted = 0
        self.failed = 0
        self.op_times: list[float] = []  # untraced ops; a failed op counts as inf
        self.traced_times: list[float] = []
        self.traced_out_bytes: list[int] = []
        self.calibration: list[float] = []
        self.busy = 0.0  # seconds inside correct untraced ops
        self.rss_mb = 0.0  # peak RSS after MIN_OPS timed ops

    def one(self, op_id: int, timed: bool) -> None:
        traced = self.tracer is not None and timed and op_id % 2 == 1
        gc.collect()
        if timed:
            started = time.perf_counter()
            calibration_kernel()
            self.calibration.append(time.perf_counter() - started)
        buf = io.StringIO()
        if traced:
            self.tracer.op = op_id
            self.tracer.install()
        started = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                code = self.cli.main(self.argv)
        except Exception:  # the op's failure is counted, the loop goes on
            code = None
            traceback.print_exc()
        elapsed = time.perf_counter() - started
        if traced:
            self.tracer.uninstall()
        self.attempted += 1
        ok = code is not None
        if ok:
            try:
                self.check(code, buf.getvalue())
            except (workloads.Mismatch, ValueError, KeyError, TypeError, OSError) as err:
                print(f"op {op_id}: wrong answer: {err!r}", file=sys.stderr)
                ok = False
        if not ok:
            self.failed += 1
        if not timed:
            return
        if traced:
            self.traced_times.append(elapsed if ok else float("inf"))
            self.traced_out_bytes.append(len(buf.getvalue().encode("utf-8")))
        else:
            self.op_times.append(elapsed if ok else float("inf"))
            if ok:
                self.busy += elapsed

    def run(self, seconds: float) -> None:
        self.one(0, timed=False)  # warm-up: checked, not timed
        deadline = time.perf_counter() + seconds
        op_id = 1
        while time.perf_counter() < deadline or op_id <= MIN_OPS:
            self.one(op_id, timed=True)
            if op_id == MIN_OPS:
                # fixed work, not fixed time: the bracket cache keeps every
                # analysed system, so RSS grows with the number of ops
                self.rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            op_id += 1


def end_to_end(loop: Loop, setup_s: float) -> tuple[dict, list[str]]:
    p50 = statistics.median(loop.op_times)
    tail_s, percentile = tail(loop.op_times)
    correct_ops = sum(1 for t in loop.op_times if t != float("inf"))
    values = {
        "op_p50_s": p50,
        "op_tail_s": tail_s,
        "ops_per_s": correct_ops / loop.busy if loop.busy else 0.0,
        "op_p50_rel": p50 / statistics.median(loop.calibration),
        "setup_s": setup_s,
        "peak_rss_mb": loop.rss_mb,
    }
    notes = {"op_p50_s": "(summary only)",
             "op_tail_s": f"(summary only; p{percentile:.1f} of {len(loop.op_times)} ops)",
             "ops_per_s": "(summary only)",
             "setup_s": f"(median of {SETUP_REPEATS} fresh imports)",
             "peak_rss_mb": f"(after warm-up and {MIN_OPS} ops)"}
    units = {**END_TO_END_UNITS, **SUMMARY_UNITS}
    lines = [f"  {name:<14} {values[name]:>14.6g} {units[name]:<6} {notes.get(name, '')}".rstrip()
             for name in values]
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}, lines


def per_layer(loop: Loop, tr: tracer.Tracer) -> tuple[dict, list[str]]:
    ops = len(loop.traced_times)
    values = tracer.layer_metrics(tr.spans, tr.counts, ops)
    values["cli.main.out_bytes"] = sum(loop.traced_out_bytes) / ops
    values["trace.overhead_s"] = statistics.median(loop.traced_times) - statistics.median(loop.op_times)
    # a function the workload never calls reads 0
    metrics = {name: {"value": values.get(name, 0.0), "unit": unit} for name, unit in PER_LAYER_UNITS.items()}
    lines = [f"  {name:<44} {m['value']:>14.6g} {m['unit']}" for name, m in metrics.items()]
    return metrics, lines


def run_one(name: str, seed: int, seconds: int, trace: bool) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import ctrlorder.cli as cli

    if Path(cli.__file__).resolve().parents[2] != ROOT:
        print(f"imported ctrlorder from {cli.__file__}, not from {ROOT / 'src'}", file=sys.stderr)
        return 2
    (HERE / "out").mkdir(exist_ok=True)
    # One vCPU for the whole run: on a shared host each vCPU has speed phases
    # of its own.  In interleaved comparisons, runs free to migrate scattered
    # op_p50_s and op_p50_rel more than pinned runs did.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    argv, check = workloads.prepare(name, seed)
    setup_s = 0.0 if trace else measure_setup()
    tr = tracer.Tracer() if trace else None
    loop = Loop(cli, argv, check, tr)
    loop.run(seconds)

    if trace:
        metrics, lines = per_layer(loop, tr)
        tr.dump(HERE / "out" / f"spans-{name}-seed{seed}.tsv")
    else:
        metrics, lines = end_to_end(loop, setup_s)
    fail_ratio = loop.failed / loop.attempted
    print(f"workload {name}  seed {seed}  trace {int(trace)}  ops {loop.attempted}"
          f" (failed {loop.failed}, fail_ratio {fail_ratio:g})  closed loop, 1 client")
    print("\n".join(lines))
    print(json.dumps({
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": metrics,
    }))
    return 0


def run_all(seed: int, seconds: int, trace: bool) -> int:
    """Each workload in its own process, so caches and peak RSS stay separate."""
    results = {}
    status = 0
    for name in workloads.WORKLOADS:
        done = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(int(trace))],
            capture_output=True, text=True, timeout=900,
        )
        sys.stderr.write(done.stderr)
        lines = done.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if done.returncode != 0 or not lines:
            status = done.returncode or 1
            continue
        results[name] = json.loads(lines[-1])
    units = PER_LAYER_UNITS if trace else END_TO_END_UNITS
    print(f"\n{'metric':<44} {'unit':<6} " + " ".join(f"{n:>15}" for n in results))
    for metric, unit in units.items():
        print(f"{metric:<44} {unit:<6} "
              + " ".join(f"{r['metrics'][metric]['value']:>15.6g}" for r in results.values()))
    print(f"{'fail_ratio':<44} {'ratio':<6} "
          + " ".join(f"{r['failed'] / r['attempted']:>15.6g}" for r in results.values()))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    os.chdir(ROOT)
    if not (ROOT / "src" / "ctrlorder" / "cli.py").is_file():
        print(f"no ctrlorder sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
