"""Numerical integration of extremals with bang-bang control.

The coupled state-adjoint system

    x' = f(x) + sum_i g_i(x) u_i
    p' = -(Df)^T p - sum_i u_i (Dg_i)^T p

is integrated with classical fixed-step RK4; the control is frozen at its
start-of-step value, so bang-bang switching happens on grid points.  The
trajectory records the switching vector phi_i = <p, g_i(x)> and the value of
the Hamiltonian at every sample, which makes singular-interval detection and
conservation checks a matter of reading columns.  One generated loop,
a function of (*x0, *p0, *u0, store, at, pack), computes H, phi and the sign
law, and packs each sample's row into one bytes object for `store`.

Systems must carry no pending running cost here: absorb it with
extend_with_cost first and encode the cost multiplier by setting the adjoint
component paired with "x0" to -lambda.
"""

from __future__ import annotations

import math
from array import array
from typing import TYPE_CHECKING, Sequence, Union

from .expr import Expr, Negate, Product, Sum, Variable, compile_components, compile_function
from .expr import EvalError, Record, const, render_components
from .fields import VectorField, lie_bracket
from .system import _RESERVED_TIME_NAME, ControlSystem

# numpy is imported by the functions that use it: the symbolic commands never
# load it, and it is most of the CLI's import time.
if TYPE_CHECKING:
    import numpy as np

# 10**6 steps of the 7-state cost-extended vehicle fill about 176 MB of arrays.
MAX_STEPS = 10**6
_ZERO, _ONE = const(0), const(1)
# CSV rows stacked and formatted per `%` a block at a time, so memory is bounded by the block
_CSV_BLOCK = 256
_EVAL_ERRORS = (ZeroDivisionError, OverflowError, ValueError)


class BangBang(Record):
    """u_i = sign(phi_i) K(t), holding the last value inside the deadband."""

    deadband: float

    def __init__(self, deadband: float = 0.0):
        if deadband < 0:
            raise ValueError("deadband must be >= 0")
        super().__init__(deadband)


def _finite(values, what: str) -> tuple[float, ...]:
    out = tuple(float(v) for v in values)
    if not all(map(math.isfinite, out)):
        raise ValueError(f"{what} must be finite")
    return out


class FixedControl(Record):
    u: tuple[float, ...]

    def __init__(self, u: tuple[float, ...]):
        super().__init__(_finite(u, "fixed control values"))


class PiecewiseControl(Record):
    """Step table: at time t the row with the largest start <= t applies."""

    table: tuple[tuple[float, tuple[float, ...]], ...]

    def __init__(self, table: tuple[tuple[float, tuple[float, ...]], ...]):
        rows = tuple(
            (_finite([t], "piecewise control times")[0], _finite(u, "piecewise control values"))
            for t, u in table
        )
        if not rows:
            raise ValueError("piecewise control table is empty")
        times = [t for t, _ in rows]
        if times != sorted(times):
            raise ValueError("piecewise control times must be ascending")
        super().__init__(rows)

    def at(self, t: float) -> tuple[float, ...]:
        chosen = self.table[0][1]
        for start, u in self.table:
            if start <= t:
                chosen = u
            else:
                break
        return chosen


ControlPolicy = Union[BangBang, FixedControl, PiecewiseControl]


class SimConfig(Record):
    initial_state: tuple[float, ...]
    initial_adjoint: tuple[float, ...]
    horizon: float
    step: float
    control_policy: ControlPolicy
    singular_tolerance: float
    singular_min_length: float | None

    def __init__(
        self,
        initial_state: tuple[float, ...],
        initial_adjoint: tuple[float, ...],
        horizon: float = 1.0,
        step: float = 1e-3,
        control_policy: ControlPolicy = BangBang(),  # immutable, so one instance serves
        singular_tolerance: float = 1e-6,
        singular_min_length: float | None = None,  # defaults to 10 * step
    ):
        initial_state = tuple(float(v) for v in initial_state)
        initial_adjoint = tuple(float(v) for v in initial_adjoint)
        if not step > 0:
            raise ValueError("step must be > 0")
        if horizon < step:
            raise ValueError("horizon must be at least one step")
        if not horizon / step <= MAX_STEPS:
            raise ValueError(f"horizon/step must be at most {MAX_STEPS} steps")
        if not singular_tolerance > 0:
            raise ValueError("singular_tolerance must be > 0")
        if singular_min_length is not None and singular_min_length < 0:
            raise ValueError("singular_min_length must be >= 0")
        super().__init__(
            initial_state, initial_adjoint, horizon, step, control_policy,
            singular_tolerance, singular_min_length,
        )

    def resolved_min_length(self) -> float:
        return 10.0 * self.step if self.singular_min_length is None else self.singular_min_length


class Trajectory(Record):
    """Uniform-grid samples of one extremal integration."""

    state_names: tuple[str, ...]
    input_count: int
    step: float
    t: np.ndarray
    x: np.ndarray  # (samples, n)
    p: np.ndarray  # (samples, n)
    u: np.ndarray  # (samples, m); u[s] applies on [t[s], t[s+1])
    phi: np.ndarray  # (samples, m)
    H: np.ndarray  # (samples,)
    status: str = "ok"  # "ok" | "diverged" | "eval_error"
    failure_time: float | None = None

    @property
    def samples(self) -> int:
        return len(self.t)

    def write_csv(self, path) -> None:
        """One row per sample, 17 significant digits, header with names: the
        bytes of np.savetxt(fmt="%.17g", delimiter=","), _CSV_BLOCK rows a time,
        each block stacked from its slices of the columns."""
        import numpy as np

        header = (
            ["t"]
            + [f"x_{name}" for name in self.state_names]
            + [f"p_{name}" for name in self.state_names]
            + [f"u_{i + 1}" for i in range(self.input_count)]
            + [f"phi_{i + 1}" for i in range(self.input_count)]
            + ["H"]
        )
        columns = (self.t, self.x, self.p, self.u, self.phi, self.H)
        row_format = ",".join(["%.17g"] * len(header)) + "\n"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(",".join(header) + "\n")
            for start in range(0, self.samples, _CSV_BLOCK):
                block = np.column_stack([c[start : start + _CSV_BLOCK] for c in columns])
                fh.write(row_format * len(block) % tuple(block.ravel().tolist()))


def _linear(pairs) -> Expr:
    """w_1*e_1 + w_2*e_2 + ... in the given order, a weight None meaning 1.

    Each e_i stays whole (no distribution over its sums), so a term rounds as
    the product of two floats; terms whose e_i is the constant 0 drop out.
    """
    terms = tuple(
        e if w is None else w if e == _ONE else Product((w, e))
        for w, e in pairs
        if e != _ZERO
    )
    return _ZERO if not terms else terms[0] if len(terms) == 1 else Sum(terms)


def _coupled(sys: ControlSystem):
    """The coupled system as scalar expressions: (rhs, sample, state, controls).

    rhs is x' = f + sum_k u_k g_k followed by p'_j = -sum_i p_i (df_i/dx_j +
    sum_k u_k dg_k,i/dx_j); sample is <p, f>, phi_1..phi_m.  The adjoint and
    control enter as variables named "p:<state>" and "u:<k>", which no state
    name can be; `state` is the states then the adjoint, `controls` the u:<k>.
    """
    n, fields = sys.n, (sys.drift, *sys.inputs)
    p = [Variable(f"p:{name}") for name in sys.state_names]
    u = [Variable(f"u:{k + 1}") for k in range(sys.m)]
    weights = [None, *u]  # f, then u_k for g_k
    comps = [vf.components for vf in fields]
    jacs = [vf.jacobian for vf in fields]
    xdot = [_linear(zip(weights, (c[i] for c in comps))) for i in range(n)]
    jac = [[_linear(zip(weights, (J[i][j] for J in jacs))) for j in range(n)] for i in range(n)]
    pdot = [_linear(zip(p, (row[j] for row in jac))) for j in range(n)]
    pdot = [e if e == _ZERO else Negate(e) for e in pdot]
    state = (*sys.state_names, *(v.name for v in p))
    return xdot + pdot, [_linear(zip(p, c)) for c in comps], state, tuple(v.name for v in u)


def _rk4_lines(rhs: list[Expr], state: Sequence[str], names: dict[str, str], h: float):
    """One classical RK4 step of y' = rhs as straight-line code: (stage 1, the rest).

    `names` maps each variable of `rhs` to its local, and y is that of `state`.  Each
    stage is the straight-line code of `rhs` on that stage's input.  The inputs
    y + (h/2) k, y + h k and the update y += (h/6)(k1 + 2 k2 + 2 k3 + k4) are
    written out per component, zero components included, with the operations
    of a loop over them: every float is that of four evaluations of `rhs`.
    """
    y = [names[name] for name in state]
    stages, ks, z = [], [], y
    for stage, weight in enumerate((None, 0.5 * h, 0.5 * h, h)):
        lines = []
        if weight is not None:
            z = [f"_z{stage}_{i}" for i in range(len(y))]
            lines += [f"{zi} = {yi} + {weight!r}*{ki}" for zi, yi, ki in zip(z, y, ks[-1])]
        body, values = render_components(rhs, {**names, **dict(zip(state, z))}, f"_s{stage}_")
        ks.append([f"_k{stage}_{i}" for i in range(len(y))])
        stages.append(lines + body + [f"{ki} = {value}" for ki, value in zip(ks[-1], values)])
    sixth = h / 6.0
    update = [
        f"{a} = {a} + {sixth!r}*({b1} + 2.0*{b2} + 2.0*{b3} + {b4})"
        for a, b1, b2, b3, b4 in zip(y, *ks)
    ]
    return stages[0], [*stages[1], *stages[2], *stages[3], *update]


def _extremal_loop(sys: ControlSystem, config: SimConfig):
    """The whole grid as one generated function of (*x0, *p0, *u0, store, at, pack).

    Per sample s, in locals: t = s*h; <p, f> and the phi_i; the control (set
    once before the loop for FixedControl, `at(t)` for PiecewiseControl, the
    sign law with K(t) inline for BangBang); RK4 stage 1; then `store` of the
    row (t, x, p, u, phi, H), packed by `pack` into one bytes object of
    doubles; then, but for the last sample, stages 2-4, the update and the
    finiteness check.  So a sample is stored exactly when its <p, f>, phi,
    control and stage 1 evaluate.  Returns (status, failure_time).  All
    arithmetic is on Python floats, so a division by zero raises
    ZeroDivisionError instead of returning inf.
    """
    h, policy = config.step, config.control_policy
    steps = max(1, round(config.horizon / h))
    rhs, sample, state, controls = _coupled(sys)
    y = [f"_y{i}" for i in range(len(state))]
    u = [f"_u{k}" for k in range(sys.m)]
    phi = [f"_f{k}" for k in range(sys.m)]
    names = {**dict(zip(state, y)), **dict(zip(controls, u))}
    lines, (energy, *values) = render_components(sample, names, "_a")
    body = [f"_t = _i*{h!r}", *lines, f"_e = {energy}", *map("{} = {}".format, phi, values)]
    if isinstance(policy, PiecewiseControl):
        body.append(f"{', '.join(u)}, = _at(_t)")
    elif isinstance(policy, BangBang):
        bound = _ONE if sys.bound is None else sys.bound
        lines, (K,) = render_components([bound], {_RESERVED_TIME_NAME: "_t"}, "_b")
        body += [*lines, f"_K = {K}", "if not _K > 0.0:"]
        body.append("    raise ValueError('K must be strictly positive')")
        # the sign law: sign(phi) K where |phi| > deadband, else the last u
        db = float(policy.deadband)
        for uk, fk in zip(u, phi):
            body += [f"if {fk} > {db!r}:", f"    {uk} = _K"]
            body += [f"elif {fk} < {-db!r}:", f"    {uk} = -_K"]
    first, rest = _rk4_lines(rhs, state, names, h)
    body += first
    # H = <p, f> + sum u_k phi_k, each term only where u_k != 0
    for uk, fk in zip(u, phi):
        body += [f"if {uk} != 0.0:", f"    _e += {uk}*{fk}"]
    body += [f"_store(_pack(_t, {', '.join(y + u + phi)}, _e))", f"if _i == {steps}:", "    break"]
    body += rest
    # overflow to inf is tolerated in the step and ends the run here as a divergence
    finite = " and ".join(f"_isfinite({v})" for v in y)
    body += [f"if not ({finite}):", f"    return 'diverged', _t + {h!r}"]
    loop = [
        "try:",
        f"    for _i in range({steps + 1}):",
        *(f"        {line}" for line in body),
        f"except ({', '.join(e.__name__ for e in _EVAL_ERRORS)}):",
        "    return 'eval_error', _t",
        "return 'ok', None",
    ]
    return compile_function([*y, *u, "_store", "_at", "_pack"], loop)


def integrate_extremal(sys: ControlSystem, config: SimConfig) -> Trajectory:
    """Fixed-step RK4 integration of the coupled (x, p) system.

    One generated function of (*x0, *p0, *u0, store, at, pack) runs the whole
    grid (_extremal_loop) on Python floats.  Each sample's row is packed by one
    struct call and appended to an array of doubles by `frombytes`, bit for bit
    the floats computed.  A sample is stored where <p, f>, phi, the control
    and RK4 stage 1 evaluate; a failure in a later stage keeps it.  The last
    sample runs stage 1 only.  On evaluation failure or divergence the
    trajectory returned is the finite prefix, flagged through `status` and
    `failure_time`.
    """
    import struct

    import numpy as np

    if sys.cost is not None:
        raise ValueError(
            "system carries a pending running cost; extend_with_cost first and"
            " set the x0 adjoint component to -lambda"
        )
    if len(config.initial_state) != sys.n or len(config.initial_adjoint) != sys.n:
        raise ValueError(f"initial state and adjoint must have dimension {sys.n}")
    policy = config.control_policy
    if isinstance(policy, FixedControl) and len(policy.u) != sys.m:
        raise ValueError(f"fixed control must have dimension {sys.m}")
    if isinstance(policy, PiecewiseControl):
        for _, u in policy.table:
            if len(u) != sys.m:
                raise ValueError(f"piecewise control rows must have dimension {sys.m}")

    n, m = sys.n, sys.m
    u0 = policy.u if isinstance(policy, FixedControl) else (0.0,) * m
    at = policy.at if isinstance(policy, PiecewiseControl) else None
    # one row per sample: t, x, p, u, phi, H (the CSV's column order)
    width = 2 + 2 * n + 2 * m
    store = array("d")
    run = _extremal_loop(sys, config)
    start = (*config.initial_state, *config.initial_adjoint, *u0)
    status, failure_time = run((*start, store.frombytes, at, struct.Struct(f"{width}d").pack))
    rows = np.frombuffer(store).reshape(-1, width)
    return Trajectory(
        state_names=sys.state_names,
        input_count=m,
        step=config.step,
        t=rows[:, 0],
        x=rows[:, 1 : 1 + n],
        p=rows[:, 1 + n : 1 + 2 * n],
        u=rows[:, 1 + 2 * n : 1 + 2 * n + m],
        phi=rows[:, 1 + 2 * n + m : 1 + 2 * n + 2 * m],
        H=rows[:, -1],
        status=status,
        failure_time=failure_time,
    )


class SingularIntervals(Record):
    """Per input, the [t_start, t_end] runs where |phi_i| stays below tolerance."""

    per_input: tuple[tuple[tuple[float, float], ...], ...]


def detect_singular_intervals(traj: Trajectory, config: SimConfig) -> SingularIntervals:
    """Maximal grid runs with |phi_i| < tolerance, at least min_length long."""
    import numpy as np

    min_length = config.resolved_min_length()
    per_input: list[tuple[tuple[float, float], ...]] = []
    for i in range(traj.input_count):
        # a run starts where the False-padded mask rises and ends before it falls
        mask = np.abs(traj.phi[:, i]) < config.singular_tolerance
        edges = np.flatnonzero(np.diff(np.concatenate(([False], mask, [False]))))
        t0, t1 = traj.t[edges[0::2]], traj.t[edges[1::2] - 1]
        keep = t1 - t0 >= min_length
        per_input.append(tuple(zip(t0[keep].tolist(), t1[keep].tolist())))
    return SingularIntervals(tuple(per_input))


def check_lemma1(sys: ControlSystem, traj: Trajectory, h: VectorField) -> tuple[np.ndarray, float]:
    """(d, scale) for d/dt<p, h(x)> = <p, [f, h] + sum_i u_i [g_i, h]> along `traj`.

    d[s] is the central difference of the sampled <p, h> minus the right side, from
    symbolically computed brackets: NaN at the first and last sample and next to a
    switch.  A residual rounds by a few eps of `scale`, max sum_j |p_j h_j| / step +
    max sum_j |p_j| (|[f, h]_j| + sum_i |u_i [g_i, h]_j|).  A division by zero or an
    overflow in h or a bracket raises EvalError.
    """
    import numpy as np

    if h.state_names != sys.state_names:
        raise ValueError("h must live on the system's state coordinates")
    if traj.samples < 3:
        raise ValueError("need at least three samples for a central difference")

    n, m = sys.n, sys.m
    fields = (h, lie_bracket(sys.drift, h))
    fields += tuple(lie_bracket(g, h) for g in sys.inputs)
    fn = compile_components([c for vf in fields for c in vf.components], sys.state_names)
    # rows per sample: h, [f, h], [g_1, h], ..., [g_m, h]; Python floats, as in the integrator
    name = "lemma 1's h, [f, h] or [g_i, h]"
    try:
        values = np.array([fn(x) for x in traj.x.tolist()], dtype=float)
    except ZeroDivisionError:
        raise EvalError(f"{name} hit a division by zero on the extremal") from None
    except (OverflowError, ValueError):  # ValueError: sin or cos of an overflowed inf
        raise EvalError(f"{name} overflowed on the extremal") from None
    if not np.isfinite(values).all():  # a float product overflows to inf, not to an error
        raise EvalError(f"{name} overflowed on the extremal")
    values = values.reshape(-1, 2 + m, n)
    p, u = traj.p, traj.u
    # sums in index order, one elementwise operation at a time: the same floats
    # from any numpy build, where einsum or a reduction may reorder them
    with np.errstate(all="ignore"):  # products of finite values may still overflow
        terms = [values[:, 1], *(u[:, i, None] * values[:, 2 + i] for i in range(m))]
        inner = sum((p * values[:, 0]).T)
        rhs = sum((p * sum(terms)).T)
        d = np.full(traj.samples, np.nan)
        d[1:-1] = (inner[2:] - inner[:-2]) / (2.0 * traj.step) - rhs[1:-1]
        d[1:-1][(u[:-2] != u[1:-1]).any(axis=1)] = np.nan
        scale = np.abs(p * values[:, 0]).sum(axis=1).max() / traj.step
        scale += (np.abs(p) * sum(map(np.abs, terms))).sum(axis=1).max()
    return d, float(scale)
