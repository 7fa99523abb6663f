"""The three benchmark workloads: the CLI arguments of one op and its checker.

Each op is one `ctrlorder.cli.main(argv)` call.  `prepare(name, seed)` turns
the benchmark seed into the op's arguments and returns a checker that raises
`Mismatch` unless the op's exit code, its `--json` output (and, for
`extremal`, the CSV it wrote) agree with answers derived without ctrlorder:
`expected.json` for the order workloads, and a hand-coded RK4 of the
cost-extended vehicle for `extremal`.  Paths are relative to the repository
root, which must be the working directory.
"""

from __future__ import annotations

import json
import math
import random
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
EXPECTED = json.loads((HERE / "expected.json").read_text(encoding="utf-8"))
WORKLOADS = ("order_poly", "order_rational", "extremal")

EXTREMAL_CSV = "ctrlbench/out/extremal.csv"
EXTREMAL_HORIZON = 10.0
EXTREMAL_STEP = 1e-3
SWITCH_MARGIN = 1e-6  # |phi_i| at every grid point, so rounding cannot flip a switch
MATCH_RTOL = 1e-9


class Mismatch(Exception):
    """The program's answer differs from the independently derived one."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise Mismatch(message)


def prepare(name: str, seed: int):
    """(argv, check) for one op of workload `name`; check(exit_code, stdout)."""
    rng = random.Random(f"ctrlbench:{name}:{seed}")
    if name in ("order_poly", "order_rational"):
        return _prepare_order(name, rng)
    if name == "extremal":
        return _prepare_extremal(rng)
    raise ValueError(f"unknown workload '{name}'")


def _prepare_order(name: str, rng: random.Random):
    expected = EXPECTED[name]
    # fixed digit count, so the report length does not depend on the seed
    zero_seed = rng.randrange(10**8, 10**9)
    argv = ["order", expected["input"], "--json", "--seed", str(zero_seed)]

    def check(code: int, stdout: str) -> None:
        _require(code == expected["exit_code"], f"exit code {code}, expected {expected['exit_code']}")
        report = json.loads(stdout)
        _require(report["manifest"]["options"]["seed"] == zero_seed, "seed not echoed")
        _require(report["found"] is expected["found"], f"found = {report['found']}")
        levels = report["evidence"]
        if expected["found"]:
            k = expected["k"]
            _require(report["k"] == k and report["q"] == expected["q"],
                     f"k = {report.get('k')}, q = {report.get('q')}; expected k = {k}")
            _require([lv["level"] for lv in levels] == list(range(1, k + 1)), "evidence levels")
            _require(all(e["zero"] for lv in levels[:-1] for e in lv["entries"]),
                     "a level below k has a nonzero bracket field")
            _require(not all(e["zero"] for e in levels[-1]["entries"]), "level k all zero")
        else:
            top = expected["truncated_at"]
            _require(report.get("truncated_at") == top, f"truncated_at = {report.get('truncated_at')}")
            _require([lv["level"] for lv in levels] == list(range(1, top + 1)), "evidence levels")
            _require(all(e["zero"] for lv in levels for e in lv["entries"]),
                     "a bracket field of a coordinate-invariantly orderless system is nonzero")

    return argv, check


# --------------------------------------------------------------------------
# extremal: the cost-extended vehicle of systems/counterexample.json by hand
# --------------------------------------------------------------------------


def _vehicle_rhs(z, u):
    """(x, p)' for states (x0, x, y, theta, v1, v2, Omega), adjoints q, frozen u."""
    _, x, y, th, v1, v2, om, q0, qx, qy, qth, _, _, _ = z
    c, s = math.cos(th), math.sin(th)
    return (
        x * x + y * y + th * th,
        v1 * c + v2 * s,
        v2 * c - v1 * s,
        om,
        u[0],
        u[1],
        u[2],
        0.0,
        -2.0 * q0 * x,
        -2.0 * q0 * y,
        -(2.0 * q0 * th + qx * (v2 * c - v1 * s) - qy * (v2 * s + v1 * c)),
        -(qx * c - qy * s),
        -(qx * s + qy * c),
        -qth,
    )


def vehicle_extremal(x0, p0, steps: int, h: float):
    """Fixed-step RK4 samples (x, p, u) of the cost-extended vehicle.

    The control is frozen per step at u_i = sign(phi_i) with K = 1,
    phi = (p_v1, p_v2, p_Omega), holding the last value (initially 0) when
    phi_i = 0.
    """
    y = [float(v) for v in (*x0, *p0)]
    xs, ps, us = [], [], []
    last = (0.0, 0.0, 0.0)
    for s in range(steps + 1):
        phi = y[11:14]
        u = tuple(1.0 if f > 0 else -1.0 if f < 0 else l for f, l in zip(phi, last))
        xs.append(y[:7])
        ps.append(y[7:])
        us.append(u)
        last = u
        if s == steps:
            break
        k1 = _vehicle_rhs(y, u)
        k2 = _vehicle_rhs([a + 0.5 * h * b for a, b in zip(y, k1)], u)
        k3 = _vehicle_rhs([a + 0.5 * h * b for a, b in zip(y, k2)], u)
        k4 = _vehicle_rhs([a + h * b for a, b in zip(y, k3)], u)
        y = [a + (h / 6.0) * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
             for a, b1, b2, b3, b4 in zip(y, k1, k2, k3, k4)]
    return np.array(xs), np.array(ps), np.array(us)


def draw_extremal_start(rng: random.Random, steps: int, h: float):
    """(x0, p0, reference) with p_x0 = -1 and |phi_i| >= SWITCH_MARGIN on the grid."""
    for _ in range(1000):
        x0 = (0.0, *(round(rng.uniform(-0.5, 0.5), 3) for _ in range(6)))
        p0 = (-1.0, *(round(rng.uniform(-1.0, 1.0), 3) for _ in range(6)))
        reference = vehicle_extremal(x0, p0, steps, h)
        if np.min(np.abs(reference[1][:, 4:7])) >= SWITCH_MARGIN:
            return x0, p0, reference
    raise RuntimeError("no start point keeps phi away from zero")


def _vector_arg(values) -> str:
    return ",".join(f"{v:g}" for v in values)


def _prepare_extremal(rng: random.Random):
    expected = EXPECTED["extremal"]
    steps = round(EXTREMAL_HORIZON / EXTREMAL_STEP)
    x0, p0, (ref_x, ref_p, ref_u) = draw_extremal_start(rng, steps, EXTREMAL_STEP)
    argv = [
        "simulate", expected["input"], "--extend-cost",
        f"--x0={_vector_arg(x0)}",
        # the '=' form: argparse takes "--p0 -1,..." for a missing value
        f"--p0={_vector_arg(p0)}",
        "--horizon", f"{EXTREMAL_HORIZON:g}", "--step", f"{EXTREMAL_STEP:g}",
        "--json", "--out", EXTREMAL_CSV,
    ]
    n, m = ref_x.shape[1], ref_u.shape[1]

    def check(code: int, stdout: str) -> None:
        _require(code == expected["exit_code"], f"exit code {code}, expected {expected['exit_code']}")
        report = json.loads(stdout)
        _require(report["samples"] == expected["samples"], f"samples = {report['samples']}")
        _require(report["status"] == expected["status"], f"status = {report['status']}")
        _require(all(not runs for runs in report["singular_intervals"]),
                 "singular interval reported on an extremal kept off phi = 0")
        table = np.loadtxt(EXTREMAL_CSV, delimiter=",", skiprows=1, ndmin=2)
        Path(EXTREMAL_CSV).unlink()  # the next op must write its own
        _require(table.shape == (expected["samples"], 1 + 2 * n + 2 * m + 1),
                 f"CSV shape {table.shape}")
        x, p, u = table[:, 1:1 + n], table[:, 1 + n:1 + 2 * n], table[:, 1 + 2 * n:1 + 2 * n + m]
        _require(bool(np.all(p[:, 0] == -1.0)), "p_x0 left -1")
        _require(bool(np.all(np.abs(u) == 1.0)), "|u_i| != K")
        _require(bool(np.array_equal(u, ref_u)), "switching differs from the reference")
        for label, got, ref in (("x", x, ref_x), ("p", p, ref_p)):
            err = np.max(np.abs(got - ref) / (1.0 + np.abs(ref)))
            _require(err <= MATCH_RTOL, f"{label} differs from the reference RK4 by {err:.3g}")

    return argv, check
