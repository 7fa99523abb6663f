"""Numerical integration of extremals with bang-bang control.

The coupled state-adjoint system

    x' = f(x) + sum_i g_i(x) u_i
    p' = -(Df)^T p - sum_i u_i (Dg_i)^T p

is integrated with classical fixed-step RK4; the control is frozen at its
start-of-step value, so bang-bang switching happens on grid points.  The
trajectory records the switching vector phi_i = <p, g_i(x)> and the value of
the Hamiltonian at every sample, which makes singular-interval detection and
conservation checks a matter of reading columns.

Systems must carry no pending running cost here: absorb it with
extend_with_cost first and encode the cost multiplier by setting the adjoint
component paired with "x0" to -lambda.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence, Union

import numpy as np

from .expr import compile_components, diff, evaluate
from .fields import VectorField, lie_bracket
from .system import ControlSystem

_RESERVED_TIME_NAME = "t"
# 10**6 steps of the 7-state cost-extended vehicle fill about 176 MB of arrays.
MAX_STEPS = 10**6


@dataclass(frozen=True)
class BangBang:
    """u_i = sign(phi_i) K(t), holding the last value inside the deadband."""

    deadband: float = 0.0

    def __post_init__(self):
        if self.deadband < 0:
            raise ValueError("deadband must be >= 0")


@dataclass(frozen=True)
class FixedControl:
    u: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "u", tuple(float(v) for v in self.u))


@dataclass(frozen=True)
class PiecewiseControl:
    """Step table: at time t the row with the largest start <= t applies."""

    table: tuple[tuple[float, tuple[float, ...]], ...]

    def __post_init__(self):
        rows = tuple((float(t), tuple(float(v) for v in u)) for t, u in self.table)
        object.__setattr__(self, "table", rows)
        if not rows:
            raise ValueError("piecewise control table is empty")
        times = [t for t, _ in rows]
        if times != sorted(times):
            raise ValueError("piecewise control times must be ascending")

    def at(self, t: float) -> tuple[float, ...]:
        chosen = self.table[0][1]
        for start, u in self.table:
            if start <= t:
                chosen = u
            else:
                break
        return chosen


ControlPolicy = Union[BangBang, FixedControl, PiecewiseControl]


@dataclass(frozen=True)
class SimConfig:
    initial_state: tuple[float, ...]
    initial_adjoint: tuple[float, ...]
    lam: int = 1  # cost multiplier, 0 for abnormal extremals
    horizon: float = 1.0
    step: float = 1e-3
    control_policy: ControlPolicy = field(default_factory=BangBang)
    singular_tolerance: float = 1e-6
    singular_min_length: float | None = None  # defaults to 10 * step

    def __post_init__(self):
        object.__setattr__(self, "initial_state", tuple(float(v) for v in self.initial_state))
        object.__setattr__(self, "initial_adjoint", tuple(float(v) for v in self.initial_adjoint))
        if not self.step > 0:
            raise ValueError("step must be > 0")
        if self.horizon < self.step:
            raise ValueError("horizon must be at least one step")
        if not self.horizon / self.step <= MAX_STEPS:
            raise ValueError(f"horizon/step must be at most {MAX_STEPS} steps")
        if self.lam not in (0, 1):
            raise ValueError("lambda must be 0 or 1")
        if self.lam == 0 and all(v == 0 for v in self.initial_adjoint):
            raise ValueError("lambda and the initial adjoint cannot both vanish")
        if not self.singular_tolerance > 0:
            raise ValueError("singular_tolerance must be > 0")
        if self.singular_min_length is not None and self.singular_min_length < 0:
            raise ValueError("singular_min_length must be >= 0")

    def resolved_min_length(self) -> float:
        return 10.0 * self.step if self.singular_min_length is None else self.singular_min_length


@dataclass
class Trajectory:
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
        """One row per sample, 17 significant digits, header with names."""
        header = (
            ["t"]
            + [f"x_{name}" for name in self.state_names]
            + [f"p_{name}" for name in self.state_names]
            + [f"u_{i + 1}" for i in range(self.input_count)]
            + [f"phi_{i + 1}" for i in range(self.input_count)]
            + ["H"]
        )
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(",".join(header) + "\n")
            rows = np.column_stack((self.t, self.x, self.p, self.u, self.phi, self.H))
            np.savetxt(fh, rows, fmt="%.17g", delimiter=",")


def hamiltonian(
    sys: ControlSystem,
    x: Sequence[float],
    p: Sequence[float],
    u: Sequence[float],
    lam: int = 1,
) -> float:
    """<p, f + sum g_i u_i>, minus lam * (f0 + sum g0_i u_i) when a cost is present."""
    if len(x) != sys.n or len(p) != sys.n:
        raise ValueError(f"x and p must have dimension {sys.n}")
    if len(u) != sys.m:
        raise ValueError(f"u must have dimension {sys.m}")
    binding = dict(zip(sys.state_names, x))
    value = sum(
        pi * evaluate(comp, binding) for pi, comp in zip(p, sys.drift.components)
    )
    for ui, g in zip(u, sys.inputs):
        value += ui * sum(
            pi * evaluate(comp, binding) for pi, comp in zip(p, g.components)
        )
    if sys.cost is not None and lam:
        running = evaluate(sys.cost.f0, binding)
        running += sum(ui * evaluate(e, binding) for ui, e in zip(u, sys.cost.g0))
        value -= lam * running
    return float(value)


def switching_values(
    sys: ControlSystem, x: Sequence[float], p: Sequence[float]
) -> tuple[float, ...]:
    """phi_i = <p, g_i(x)>."""
    if len(x) != sys.n or len(p) != sys.n:
        raise ValueError(f"x and p must have dimension {sys.n}")
    binding = dict(zip(sys.state_names, x))
    return tuple(
        float(sum(pi * evaluate(comp, binding) for pi, comp in zip(p, g.components)))
        for g in sys.inputs
    )


def bang_bang_control(
    phi: Sequence[float],
    K_value: float,
    last_u: Sequence[float],
    deadband: float = 0.0,
) -> tuple[float, ...]:
    """Sign law u_i = sign(phi_i) K; inside the deadband the last value holds."""
    if not K_value > 0:
        raise ValueError("K must be strictly positive")
    out = []
    for phi_i, last in zip(phi, last_u):
        if abs(phi_i) > deadband:
            out.append(K_value if phi_i > 0 else -K_value)
        else:
            out.append(float(last))
    return tuple(out)


class _CompiledSystem:
    """One compiled function of the state returning f, g_1..g_m and then their
    Jacobian entries, plus the compiled bound K(t) when the system has one.

    It is called with Python floats, not numpy scalars, so that a division
    by zero raises ZeroDivisionError instead of returning inf.
    """

    def __init__(self, sys: ControlSystem):
        names = sys.state_names
        fields = (sys.drift, *sys.inputs)
        self.n = sys.n
        self.m = sys.m
        self._fn = compile_components(
            [c for vf in fields for c in vf.components]
            + [diff(c, v) for vf in fields for c in vf.components for v in names],
            names,
        )
        self.k_bound = (
            None if sys.bound is None else compile_components([sys.bound], (_RESERVED_TIME_NAME,))
        )

    def bound_at(self, t: float) -> float:
        if self.k_bound is None:
            return 1.0
        return float(self.k_bound((t,))[0])

    def at(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """F (1+m, n): f and the g_i at x; J (1+m, n, n): their Jacobians."""
        n, k = self.n, 1 + self.m
        values = np.asarray(self._fn(x.tolist()), dtype=float)
        return values[: k * n].reshape(k, n), values[k * n :].reshape(k, n, n)

    def rhs(self, F: np.ndarray, J: np.ndarray, p: np.ndarray, u: np.ndarray) -> np.ndarray:
        xdot, jac = F[0], J[0]
        for i in range(self.m):
            if u[i] != 0.0:
                xdot = xdot + u[i] * F[1 + i]
                jac = jac + u[i] * J[1 + i]
        pdot = -jac.T @ p
        return np.concatenate((xdot, pdot))

    def stage(self, y: np.ndarray, u: np.ndarray) -> np.ndarray:
        """(x', p') at the stacked point y = (x, p)."""
        return self.rhs(*self.at(y[: self.n]), y[self.n :], u)


def integrate_extremal(sys: ControlSystem, config: SimConfig) -> Trajectory:
    """Fixed-step RK4 integration of the coupled (x, p) system.

    On evaluation failure or divergence the trajectory returned is the finite
    prefix, flagged through `status` and `failure_time`.
    """
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

    compiled = _CompiledSystem(sys)
    h = config.step
    steps = max(1, round(config.horizon / h))
    n, m = sys.n, sys.m

    t_arr = np.empty(steps + 1)
    x_arr = np.empty((steps + 1, n))
    p_arr = np.empty((steps + 1, n))
    u_arr = np.empty((steps + 1, m))
    phi_arr = np.empty((steps + 1, m))
    h_arr = np.empty(steps + 1)

    def control_at(t: float, phi: np.ndarray, last_u: np.ndarray):
        if isinstance(policy, FixedControl):
            return np.asarray(policy.u)
        if isinstance(policy, PiecewiseControl):
            return np.asarray(policy.at(t))
        return np.asarray(
            bang_bang_control(phi, compiled.bound_at(t), last_u, policy.deadband)
        )

    y = np.concatenate(
        (np.asarray(config.initial_state), np.asarray(config.initial_adjoint))
    )
    last_u = np.zeros(m)
    status = "ok"
    failure_time = None
    stored = 0
    for s in range(steps + 1):
        t = s * h
        x, p = y[:n], y[n:]
        try:
            F, J = compiled.at(x)
            phi = np.array([float(p @ F[1 + i]) for i in range(m)])
            u = control_at(t, phi, last_u)
        except (ZeroDivisionError, OverflowError, ValueError):
            status = "eval_error"
            failure_time = t
            break
        energy = float(p @ F[0])
        for i in range(m):
            if u[i] != 0.0:
                energy += u[i] * phi[i]
        t_arr[s] = t
        x_arr[s] = x
        p_arr[s] = p
        u_arr[s] = u
        phi_arr[s] = phi
        h_arr[s] = energy
        stored = s + 1
        last_u = u
        if s == steps:
            break
        try:
            # overflow to inf is tolerated here; the isfinite check below
            # turns it into a flagged divergence abort
            with np.errstate(over="ignore", invalid="ignore"):
                k1 = compiled.rhs(F, J, p, u)
                k2 = compiled.stage(y + 0.5 * h * k1, u)
                k3 = compiled.stage(y + 0.5 * h * k2, u)
                k4 = compiled.stage(y + h * k3, u)
                y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        except (ZeroDivisionError, OverflowError, ValueError):
            status = "eval_error"
            failure_time = t
            break
        if not np.all(np.isfinite(y)):
            status = "diverged"
            failure_time = t + h
            break

    return Trajectory(
        state_names=sys.state_names,
        input_count=m,
        step=h,
        t=t_arr[:stored],
        x=x_arr[:stored],
        p=p_arr[:stored],
        u=u_arr[:stored],
        phi=phi_arr[:stored],
        H=h_arr[:stored],
        status=status,
        failure_time=failure_time,
    )


@dataclass(frozen=True)
class SingularIntervals:
    """Per input, the [t_start, t_end] runs where |phi_i| stays below tolerance."""

    per_input: tuple[tuple[tuple[float, float], ...], ...]

    def total_length(self, input_index: int) -> float:
        return sum(t1 - t0 for t0, t1 in self.per_input[input_index])


def detect_singular_intervals(traj: Trajectory, config: SimConfig) -> SingularIntervals:
    """Maximal grid runs with |phi_i| < tolerance, at least min_length long."""
    min_length = config.resolved_min_length()
    tol = config.singular_tolerance
    per_input: list[tuple[tuple[float, float], ...]] = []
    for i in range(traj.input_count):
        intervals: list[tuple[float, float]] = []
        if traj.samples:
            mask = np.abs(traj.phi[:, i]) < tol
            s = 0
            while s < traj.samples:
                if mask[s]:
                    start = s
                    while s + 1 < traj.samples and mask[s + 1]:
                        s += 1
                    t0, t1 = float(traj.t[start]), float(traj.t[s])
                    if t1 - t0 >= min_length:
                        intervals.append((t0, t1))
                s += 1
        per_input.append(tuple(intervals))
    return SingularIntervals(tuple(per_input))


def check_lemma1(sys: ControlSystem, traj: Trajectory, h_field: VectorField) -> float:
    """Max residual of d/dt<p, h(x)> = <p, [f, h] + sum_i u_i [g_i, h]>.

    The left side is a central difference of the sampled inner product; the
    right side is evaluated per sample from symbolically computed brackets.
    Samples adjacent to a control switch are skipped.  Returns NaN when no
    interior sample qualifies.
    """
    if h_field.state_names != sys.state_names:
        raise ValueError("h must live on the system's state coordinates")
    if traj.samples < 3:
        raise ValueError("need at least three samples for a central difference")

    n, m = sys.n, sys.m
    fields = (h_field, lie_bracket(sys.drift, h_field))
    fields += tuple(lie_bracket(g, h_field) for g in sys.inputs)
    fn = compile_components([c for vf in fields for c in vf.components], sys.state_names)
    # rows per sample: h, [f, h], [g_1, h], ..., [g_m, h]; Python floats, as in the integrator
    values = np.asarray([fn(x) for x in traj.x.tolist()], dtype=float).reshape(-1, 2 + m, n)
    inner = np.array([float(traj.p[s] @ values[s, 0]) for s in range(traj.samples)])
    worst = math.nan
    for s in range(1, traj.samples - 1):
        if not np.array_equal(traj.u[s - 1], traj.u[s]):
            continue
        lhs = (inner[s + 1] - inner[s - 1]) / (2.0 * traj.step)
        rhs_vec = values[s, 1]
        for i in range(m):
            if traj.u[s, i] != 0.0:
                rhs_vec = rhs_vec + traj.u[s, i] * values[s, 2 + i]
        rhs = float(traj.p[s] @ rhs_vec)
        residual = abs(lhs - rhs)
        if math.isnan(worst) or residual > worst:
            worst = residual
    return worst
