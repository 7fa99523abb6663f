"""Command-line interface: order analysis, bracket tables, simulation, verification.

Exit codes are a stable contract:

    0  success
    1  input error (bad file, bad flags, malformed vectors)
    2  validation error (the system document loaded but is unusable)
    3  order not found up to the requested level
    4  integration aborted on divergence
    5  verification failure (an identity the implementation must satisfy broke)

Machine-readable output (--json) is a single JSON document embedding the run
manifest, so any report can be reproduced from the report alone.

Each `cmd_*` returns (exit code, text lines, report body); `main` alone
builds the manifest, renders the text or the JSON document, and maps errors
to exit codes.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys as _sys
from datetime import datetime, timezone
from pathlib import Path

from . import __version__
from .expr import ExprError, ZeroTestPolicy, to_text
from .fields import BracketTable
from .order import (
    local_order_at,
    problem_order,
    verify_bracket_identities,
    verify_single_input_parity,
)
from .simulate import (
    BangBang,
    FixedControl,
    PiecewiseControl,
    SimConfig,
    check_lemma1,
    detect_singular_intervals,
    integrate_extremal,
)
from .system import ControlSystem, SystemLoadError, extend_with_cost, load, validate, without_cost

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_VALIDATION = 2
EXIT_TRUNCATED = 3
EXIT_DIVERGED = 4
EXIT_VERIFY = 5

# parsed attributes that are not options of the run
_NOT_OPTIONS = ("command", "file", "json", "func")
_VECTOR_FLAGS = ("--x0", "--p0")


class CliError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


def _real(text: str) -> float:
    """argparse type: one finite real."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a real number, got '{text}'") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got '{text}'")
    return value


def _vector(text: str) -> tuple[float, ...]:
    """argparse type: comma-separated finite reals."""
    return tuple(_real(part) for part in text.split(","))


def _sized(values: tuple[float, ...], expected: int, flag: str) -> tuple[float, ...]:
    if len(values) != expected:
        raise CliError(f"{flag} must have {expected} entries, got {len(values)}", EXIT_INPUT)
    return values


def _system(args) -> tuple[ControlSystem, list[str]]:
    """Load the system; validate it when the command takes --horizon; resolve its cost.

    A pending running cost is absorbed on --extend-cost, else dropped with a note.
    """
    path = args.file
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as err:
        raise CliError(f"cannot read '{path}': {err}", EXIT_INPUT) from err
    try:
        sys_model = load(json.loads(text))
    except json.JSONDecodeError as err:
        raise CliError(f"'{path}' is not valid JSON: {err}", EXIT_INPUT) from err
    except (SystemLoadError, ValueError) as err:
        raise CliError(f"'{path}': {err}", EXIT_INPUT) from err
    if "horizon" in args:
        report = validate(sys_model, args.horizon)
        if not report.ok:
            lines = [f"  [{f.severity}] {f.location}: {f.message}" for f in report.findings]
            raise CliError("validation failed:\n" + "\n".join(lines), EXIT_VALIDATION)
    if args.extend_cost:
        if sys_model.cost is None:
            raise CliError("--extend-cost given but the system has no cost", EXIT_INPUT)
        return extend_with_cost(sys_model), []
    if sys_model.cost is not None:
        note = "cost present: analyzing raw dynamics (use --extend-cost to absorb it)"
        return without_cost(sys_model), [note]
    return sys_model, []


# ---------------------------------------------------------------------------
# order
# ---------------------------------------------------------------------------


def cmd_order(args):
    sys_model, notes = _system(args)
    policy = ZeroTestPolicy(args.zero_samples, args.zero_box, args.zero_tol, args.seed)
    report = problem_order(sys_model, args.k_max, policy)

    label = sys_model.label or args.file
    lines = [f"system: {label} (n={sys_model.n} states, m={sys_model.m} inputs)"]
    for level in report.evidence:
        nonzero = [e for e in level.entries if not e.zero]
        if not nonzero:
            lines.append(f"level {level.level}: all {len(level.entries)} bracket fields vanish")
            continue
        first = nonzero[0]
        point = ", ".join(f"{k}={v:.6g}" for k, v in (first.witness_point or {}).items())
        lines.append(
            f"level {level.level}: {len(nonzero)}/{len(level.entries)} bracket fields"
            f" nonzero; first [g{first.j + 1}, ad_f^{level.level - 1} g{first.i + 1}]"
            f" (component {first.witness_component + 1} at {point or 'constant'})"
        )
    evidence = [
        {
            "level": level.level,
            "entries": [
                {
                    "i": e.i + 1,
                    "j": e.j + 1,
                    "zero": e.zero,
                    "witness_component": None
                    if e.witness_component is None
                    else e.witness_component + 1,
                    "witness_point": dict(e.witness_point) if e.witness_point else None,
                }
                for e in level.entries
            ],
        }
        for level in report.evidence
    ]
    body = {"notes": notes, "found": report.found, "evidence": evidence}
    if not report.found:
        lines.append(f"order not found up to k = {report.truncated_at}")
        body["truncated_at"] = report.truncated_at
        return EXIT_TRUNCATED, lines, body
    lines.append(f"k = {report.k}, q = {report.q}")
    body.update(
        k=report.k,
        q=str(report.q),
        q_numerator=report.q.numerator,
        q_denominator=report.q.denominator,
    )
    return EXIT_OK, lines, body


# ---------------------------------------------------------------------------
# brackets
# ---------------------------------------------------------------------------


def cmd_brackets(args):
    sys_model, notes = _system(args)
    if args.depth < 0:
        raise CliError("--depth must be >= 0", EXIT_INPUT)

    lines, rows = [], []

    def row(name: str, field, **keys) -> None:
        lines.append(f"{name} = {field}")
        rows.append({**keys, "components": [to_text(c) for c in field.components]})

    table = BracketTable(sys_model.drift, sys_model.inputs)
    for k in range(args.depth + 1):
        for i in range(sys_model.m):
            name = f"g{i + 1}" if k == 0 else f"ad_f^{k} g{i + 1}"
            row(name, table.ad(i, k), kind="ad", k=k, i=i + 1)
        if k >= 1:
            for i in range(sys_model.m):
                for j in range(sys_model.m):
                    name = f"[g{j + 1}, ad_f^{k - 1} g{i + 1}]"
                    row(name, table.b(i, j, k), kind="b", k=k, i=i + 1, j=j + 1)
    return EXIT_OK, lines, {"notes": notes, "rows": rows}


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def _parse_policy(args, m: int):
    text = args.policy
    if text == "bang":
        return BangBang(deadband=args.deadband)
    if text.startswith("fixed:"):
        try:
            u = _vector(text[len("fixed:"):])
        except argparse.ArgumentTypeError as err:
            raise CliError(f"--policy fixed: {err}", EXIT_INPUT) from None
        return FixedControl(_sized(u, m, "--policy fixed"))
    if text.startswith("piecewise:"):
        path = text[len("piecewise:"):]
        try:
            rows = json.loads(Path(path).read_text(encoding="utf-8"))
            table = tuple((float(t), tuple(float(v) for v in u)) for t, u in rows)
            return PiecewiseControl(table)
        except (OSError, ValueError, TypeError, json.JSONDecodeError) as err:
            raise CliError(f"bad piecewise control file '{path}': {err}", EXIT_INPUT) from err
    raise CliError("policy must be 'bang', 'fixed:u1,..,um', or 'piecewise:FILE'", EXIT_INPUT)


def cmd_simulate(args):
    sys_model, notes = _system(args)
    config = SimConfig(
        initial_state=_sized(args.x0, sys_model.n, "--x0"),
        initial_adjoint=_sized(args.p0, sys_model.n, "--p0"),
        lam=args.lam,
        horizon=args.horizon,
        step=args.step,
        control_policy=_parse_policy(args, sys_model.m),
        singular_tolerance=args.singular_tol,
        singular_min_length=args.singular_min_len,
    )
    traj = integrate_extremal(sys_model, config)
    out_path = Path(args.out)
    if traj.samples:
        traj.write_csv(out_path)

    intervals = detect_singular_intervals(traj, config)
    drift = abs(float(traj.H[-1]) - float(traj.H[0])) if traj.samples else float("nan")

    lines = [f"wrote {traj.samples} samples to {out_path}", f"status: {traj.status}"]
    for i, runs in enumerate(intervals.per_input):
        if runs:
            spans = ", ".join(f"[{a:.6g}, {b:.6g}]" for a, b in runs)
            lines.append(f"input {i + 1}: singular on {spans}")
        else:
            lines.append(f"input {i + 1}: no singular interval")
    lines.append(f"H drift |H(T) - H(0)| = {drift:.6g}")
    body = {
        "notes": notes,
        "samples": traj.samples,
        "status": traj.status,
        "failure_time": traj.failure_time,
        "singular_intervals": [[[a, b] for a, b in runs] for runs in intervals.per_input],
        "H_drift": drift if math.isfinite(drift) else None,
        "out": str(out_path),
    }
    code = EXIT_DIVERGED if traj.status in ("diverged", "eval_error") else EXIT_OK
    return code, lines, body


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def cmd_verify(args):
    sys_model, notes = _system(args)
    policy = ZeroTestPolicy(args.zero_samples, args.zero_box, args.zero_tol, args.seed)
    suites = ("parity", "identities", "lemma1") if args.suite == "all" else (args.suite,)

    lines, results = [], []

    def record(name: str, status: str, detail: str) -> None:
        lines.append(f"{name:<10} {status}  {detail}".rstrip())
        results.append({"suite": name, "status": status, "detail": detail})

    for suite in suites:
        if suite in ("parity", "identities") and sys_model.m != 1:
            record(suite, "SKIPPED", f"m = {sys_model.m}, single-input only")
        elif suite == "parity":
            check = verify_single_input_parity(sys_model, args.k_max, policy)
            if not check.report.found:
                record("parity", "SKIPPED", f"order not found up to k = {args.k_max}")
            elif check.k_even:
                record("parity", "PASS", f"k = {check.report.k} is even")
            else:
                record("parity", "FAIL", f"k = {check.report.k} is odd: implementation bug")
        elif suite == "identities":
            report = verify_bracket_identities(sys_model, policy, depth_cap=args.k_max)
            bad = [c for c in report.checks if not c.passed]
            if bad:
                detail = "; ".join(f"{c.name} ({c.detail})" for c in bad)
                record("identities", "FAIL", f"k* = {report.k_star}: {detail}")
            else:
                capped = " (capped)" if report.capped else ""
                record(
                    "identities",
                    "PASS",
                    f"k* = {report.k_star}{capped}, {len(report.checks)} checks",
                )
        else:
            record("lemma1", *_lemma1_suite(sys_model, args))

    failed = any(r["status"] == "FAIL" for r in results)
    return EXIT_VERIFY if failed else EXIT_OK, lines, {"notes": notes, "results": results}


def _lemma1_suite(sys_model: ControlSystem, args) -> tuple[str, str]:
    """(status, detail): PASS when every residual over f and the g_i is below the
    tolerance and halving the step contracts it at least 3x."""
    n = sys_model.n
    x0 = _sized(args.x0, n, "--x0") if args.x0 else tuple(0.1 * (i + 1) for i in range(n))
    p0 = _sized(args.p0, n, "--p0") if args.p0 else tuple(1.0 / (i + 1) for i in range(n))
    u_fixed = tuple(0.3 + 0.2 * i for i in range(sys_model.m))
    worst, ratios_ok = 0.0, True
    for field in (sys_model.drift, *sys_model.inputs):
        res_h, res_h2 = (
            _lemma1_residual(sys_model, x0, p0, u_fixed, step, args.horizon, field)
            for step in (args.step, args.step / 2.0)
        )
        worst = max(worst, res_h)
        if res_h > 1e-12 and not res_h2 <= res_h / 3.0:
            ratios_ok = False
    tol = args.lemma1_tol
    if worst < tol and ratios_ok:
        return "PASS", f"max residual {worst:.3g} < {tol:g}, halving contracts >= 3x"
    contraction = "ok" if ratios_ok else "violated"
    return "FAIL", f"max residual {worst:.3g} (tol {tol:g}), contraction {contraction}"


def _lemma1_residual(sys_model, x0, p0, u_fixed, step, horizon, field) -> float:
    config = SimConfig(
        initial_state=x0,
        initial_adjoint=p0,
        horizon=horizon,
        step=step,
        control_policy=FixedControl(u_fixed),
    )
    traj = integrate_extremal(sys_model, config)
    if traj.status != "ok":
        raise CliError(f"lemma1 probe integration failed ({traj.status})", EXIT_DIVERGED)
    return check_lemma1(sys_model, traj, field)


# ---------------------------------------------------------------------------
# local-order
# ---------------------------------------------------------------------------


def cmd_local_order(args):
    sys_model, notes = _system(args)
    x = _sized(args.x0, sys_model.n, "--x0")
    p = _sized(args.p0, sys_model.n, "--p0")
    result = local_order_at(sys_model, x, p, args.k_max, args.tolerance)

    body = {"notes": notes, "found": result.found}
    if not result.found:
        body["k_max"] = args.k_max
        return EXIT_TRUNCATED, [f"local order not found up to k = {args.k_max}"], body
    lines = [f"k_local = {result.k_local}"]
    lines += ["  [" + ", ".join(f"{v: .6g}" for v in row) + "]" for row in result.b_values]
    lines.append(f"rank = {result.rank_estimate}")
    body.update(
        k_local=result.k_local,
        b_values=[list(row) for row in result.b_values],
        rank=result.rank_estimate,
    )
    return EXIT_OK, lines, body


# ---------------------------------------------------------------------------
# argument wiring
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Bad flags raise CliError (one line on stderr, exit 1) instead of exiting 2."""

    def error(self, message):
        raise CliError(f"{self.prog}: error: {message}", EXIT_INPUT)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="ctrlorder",
        description="Intrinsic order of affine optimal control problems via Lie brackets",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    # shared flags, one parent parser per group
    common, k_max, horizon, step, zero_test, point = (
        argparse.ArgumentParser(add_help=False) for _ in range(6)
    )
    common.add_argument("file")
    common.add_argument("--extend-cost", dest="extend_cost", action="store_true")
    common.add_argument("--json", action="store_true")
    k_max.add_argument("--k-max", dest="k_max", type=int, default=10, metavar="N")
    horizon.add_argument("--horizon", type=_real, default=1.0, metavar="R")
    step.add_argument("--step", type=_real, default=1e-3, metavar="R")
    zero_test.add_argument("--zero-samples", type=int, default=32, metavar="N")
    zero_test.add_argument("--zero-box", type=_real, default=1.0, metavar="R")
    zero_test.add_argument("--zero-tol", type=_real, default=1e-9, metavar="R")
    zero_test.add_argument("--seed", type=int, default=1729, metavar="N")
    for flag in _VECTOR_FLAGS:
        point.add_argument(flag, type=_vector, required=True, metavar="v1,..,vn")

    def command(name, func, summary, *parents):
        p = sub.add_parser(name, help=summary, parents=[common, *parents])
        p.set_defaults(func=func)
        return p

    command("order", cmd_order, "determine the problem order q = k/2", k_max, horizon, zero_test)

    p_br = command("brackets", cmd_brackets, "print iterated bracket fields up to a depth")
    p_br.add_argument("--depth", type=int, default=2, metavar="N")

    p_sim = command(
        "simulate", cmd_simulate, "integrate an extremal and export it", point, horizon, step
    )
    p_sim.add_argument("--lambda", dest="lam", type=int, choices=(0, 1), default=1)
    p_sim.add_argument("--policy", default="bang", metavar="bang|fixed:u1,..|piecewise:FILE")
    p_sim.add_argument("--deadband", type=_real, default=0.0, metavar="R")
    p_sim.add_argument("--singular-tol", dest="singular_tol", type=_real, default=1e-6)
    p_sim.add_argument("--singular-min-len", dest="singular_min_len", type=_real, default=None)
    p_sim.add_argument("--out", default="trajectory.csv", metavar="PATH")

    p_ver = command(
        "verify",
        cmd_verify,
        "run parity / identity / derivative-law suites",
        k_max,
        horizon,
        step,
        zero_test,
    )
    p_ver.add_argument("suite", choices=("parity", "identities", "lemma1", "all"))
    p_ver.add_argument("--lemma1-tol", dest="lemma1_tol", type=_real, default=1e-4)
    for flag in _VECTOR_FLAGS:
        p_ver.add_argument(flag, type=_vector, default=None, metavar="v1,..,vn")

    p_loc = command("local-order", cmd_local_order, "local order at one (x, p) point", point, k_max)
    p_loc.add_argument("--tolerance", type=_real, default=1e-9, metavar="R")

    return parser


def _join_negative_vectors(argv: list[str]) -> list[str]:
    """Rewrite `--p0 -1,0.5` as `--p0=-1,0.5`; argparse takes the separated form for a flag."""
    out: list[str] = []
    for arg in argv:
        if out and out[-1] in _VECTOR_FLAGS and re.match(r"-[\d.]", arg):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def main(argv: list[str] | None = None) -> int:
    argv = _sys.argv[1:] if argv is None else argv
    try:
        args = build_parser().parse_args(_join_negative_vectors(argv))
        code, lines, body = args.func(args)
    except SystemExit as err:  # --help and --version
        return EXIT_OK if err.code in (0, None) else EXIT_INPUT
    except CliError as err:
        print(err, file=_sys.stderr)
        return err.code
    except (ExprError, ValueError) as err:  # evaluation failures, out-of-range option values
        print(err, file=_sys.stderr)
        return EXIT_INPUT
    if args.json:
        options = {
            "lambda" if k == "lam" else k: v for k, v in vars(args).items() if k not in _NOT_OPTIONS
        }
        manifest = {
            "command": args.command,
            "input": args.file,
            "options": options,
            "version": __version__,
            "timestamp": datetime.now(timezone.utc).isoformat(),
        }
        print(json.dumps({"manifest": manifest, **body}, indent=2, sort_keys=True, allow_nan=False))
    else:
        for line in body["notes"] + lines:
            print(line)
    return code


def entry() -> None:
    raise SystemExit(main())
