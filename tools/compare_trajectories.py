"""Compare the extremal integrator of two ctrlorder source trees, trajectory by trajectory.

    python3 tools/compare_trajectories.py PARENT_SRC CHANGE_SRC

PARENT_SRC and CHANGE_SRC are directories that contain the `ctrlorder`
package (a checkout's `src/`).  Each tree integrates the same 252
trajectories in its own interpreter: every system in `systems/` and
`ctrlbench/systems/`, raw and (where it has a running cost) cost-extended,
under seven control policies (bang-bang, bang-bang with a deadband, fixed,
piecewise, and bang-bang with the system's bound replaced by the
time-varying K(t) = 1 + t/2, by K(t) = 1 + 0.5*t, which pins that a
decimal literal compiles to the same float as before, or by the product of
sums K(t) = (1 + t)*(2 + t)/2, whose normal form is multiplied out), each
from four seeded (x0, p0), over 1000 RK4 steps of 1e-3.

One line per trajectory gives the sample counts, whether status and the
signs of u are equal, the largest of |change - parent| / (1 + |parent|)
over u, x, p, phi and H on the common samples, and the smallest |phi_i| of
the parent.  The last line checks, on the trajectories whose parent |phi_i|
stays above 1e-9, that status, sample count and the signs of u (where the
control switches) are equal and that u, x, p, phi and H agree to 1e-12; the
exit code is 0 when they do and 1 when not.  A bang-bang u is +-K(t), so
a last-bit change in K shows in u's column, not as a switch.
"""

from __future__ import annotations

import json
import math
import os
import pickle
import random
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
SYSTEM_FILES = sorted((ROOT / "systems").glob("*.json")) + sorted(
    (ROOT / "ctrlbench" / "systems").glob("*.json")
)
# K(t) of the policies that replace the system's bound
TIME_VARYING_BOUNDS = {
    "bang-K": "1 + t/2",
    "bang-K-decimal": "1 + 0.5*t",
    "bang-K-product": "(1 + t)*(2 + t)/2",
}
POLICIES = ("bang", "deadband", "fixed", "piecewise", *TIME_VARYING_BOUNDS)
SEEDS = 4
STEPS, STEP = 1000, 1e-3
PHI_FLOOR = 1e-9
RTOL = 1e-12
FIELDS = ("u", "x", "p", "phi", "H")


def trajectories():
    """Yield (name, system, SimConfig) for the whole set; needs ctrlorder importable."""
    from ctrlorder import (
        BangBang,
        FixedControl,
        PiecewiseControl,
        SimConfig,
        extend_with_cost,
        load,
        without_cost,
    )

    def variants(doc):
        loaded = load(doc)
        yield "raw", without_cost(loaded)
        if loaded.cost is not None:
            yield "extended", extend_with_cost(loaded)

    for path in SYSTEM_FILES:
        doc = json.loads(path.read_text(encoding="utf-8"))
        time_varying = {
            policy: dict(variants({**doc, "K": bound}))
            for policy, bound in TIME_VARYING_BOUNDS.items()
        }
        for variant, system in variants(doc):
            for policy_name in POLICIES:
                for seed in range(SEEDS):
                    name = f"{path.stem}:{variant}:{policy_name}:{seed}"
                    rng = random.Random(name)
                    x0 = [rng.uniform(-1.0, 1.0) for _ in range(system.n)]
                    p0 = [rng.uniform(-1.0, 1.0) for _ in range(system.n)]
                    if variant == "extended":
                        x0[0], p0[0] = 0.0, -1.0  # cost state and lambda = 1
                    u = tuple(rng.uniform(-1.0, 1.0) for _ in range(system.m))
                    policy = {
                        **dict.fromkeys(("bang", *TIME_VARYING_BOUNDS), BangBang()),
                        "deadband": BangBang(deadband=0.05),
                        "fixed": FixedControl(u),
                        "piecewise": PiecewiseControl(
                            ((0.0, u), (0.5, tuple(-v for v in u)))
                        ),
                    }[policy_name]
                    config = SimConfig(
                        initial_state=x0,
                        initial_adjoint=p0,
                        horizon=STEPS * STEP,
                        step=STEP,
                        control_policy=policy,
                    )
                    if policy_name in time_varying:
                        yield name, time_varying[policy_name][variant], config
                    else:
                        yield name, system, config


def dump(out_path: str) -> None:
    """Integrate the set with the ctrlorder on sys.path and pickle the results."""
    from ctrlorder import integrate_extremal

    results = []
    for name, system, config in trajectories():
        traj = integrate_extremal(system, config)
        results.append(
            {
                "name": name,
                "status": traj.status,
                **{f: np.array(getattr(traj, f)) for f in FIELDS},
            }
        )
    with open(out_path, "wb") as fh:
        pickle.dump(results, fh)


def run_tree(src: str, out_path: str) -> list[dict]:
    env = {**os.environ, "PYTHONPATH": str(Path(src).resolve())}
    command = [sys.executable, str(Path(__file__).resolve()), "--dump", out_path]
    subprocess.run(command, check=True, env=env, cwd=ROOT)
    with open(out_path, "rb") as fh:
        return pickle.load(fh)


def max_rel(change: np.ndarray, parent: np.ndarray) -> float:
    """max |change - parent| / (1 + |parent|); equal entries (inf and nan too) count 0."""
    if parent.size == 0:
        return 0.0
    same = (change == parent) | (np.isnan(change) & np.isnan(parent))
    with np.errstate(invalid="ignore", over="ignore"):
        rel = np.abs(change - parent) / (1.0 + np.abs(parent))
    rel = np.where(same, 0.0, rel)
    return float(np.max(np.where(np.isnan(rel), np.inf, rel)))


def compare(parent: list[dict], change: list[dict]) -> bool:
    print(
        f"{'trajectory':<44} {'samples':>11} {'status':>6} {'sign':>5}"
        + "".join(f" {f:>9}" for f in FIELDS)
        + f" {'min|phi|':>9}"
    )
    checked = passed = 0
    for a, b in zip(parent, change):
        if a["name"] != b["name"]:
            raise RuntimeError("the two trees built different trajectory sets")
        common = min(len(a["H"]), len(b["H"]))
        same_status = a["status"] == b["status"]
        same_u = len(a["u"]) == len(b["u"]) and np.array_equal(np.sign(a["u"]), np.sign(b["u"]))
        diffs = [max_rel(b[f][:common], a[f][:common]) for f in FIELDS]
        floor = float(np.min(np.abs(a["phi"]))) if a["phi"].size else math.nan
        print(
            f"{a['name']:<44} {len(a['H']):>5}/{len(b['H']):<5} {same_status!s:>6} {same_u!s:>5}"
            + "".join(f" {d:>9.2g}" for d in diffs)
            + f" {floor:>9.2g}"
        )
        if floor > PHI_FLOOR:
            checked += 1
            passed += same_status and same_u and all(d <= RTOL for d in diffs)
    ok = passed == checked
    print(
        f"{passed}/{checked} trajectories with parent |phi_i| > {PHI_FLOOR:g} have equal"
        f" status, samples and sign(u) and u/x/p/phi/H within {RTOL:g}: {'PASS' if ok else 'FAIL'}"
        f" ({len(parent)} trajectories in all)"
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
        parent = run_tree(argv[0], str(Path(tmp) / "parent.pkl"))
        change = run_tree(argv[1], str(Path(tmp) / "change.pkl"))
    return 0 if compare(parent, change) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
