"""Extremal integration: oracles, conservation, singular intervals, Lemma-style checks."""

import random

import numpy as np
import pytest

from ctrlorder import (
    BangBang,
    FixedControl,
    PiecewiseControl,
    SimConfig,
    Trajectory,
    VectorField,
    bang_bang_control,
    check_lemma1,
    detect_singular_intervals,
    hamiltonian,
    integrate_extremal,
    load,
    local_order_on_arc,
    switching_coeffs,
    switching_values,
    without_cost,
)
from ctrlorder.expr import compile_components
from ctrlorder.simulate import MAX_STEPS
from ctrlorder.order import evaluate_b_matrix

from helpers import (
    counterexample_extended,
    counterexample_raw,
    double_integrator,
)


def di_raw():
    return without_cost(double_integrator())


GENERIC_X0 = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6)
GENERIC_P0 = (1.0, 0.5, 0.25, 0.2, 0.1, 0.05)
FIXED_U3 = (0.3, 0.5, 0.7)


# ---------------------------------------------------------------------------
# pointwise operations
# ---------------------------------------------------------------------------


def test_hamiltonian_examples():
    sys2 = di_raw()
    assert hamiltonian(sys2, (0, 1), (1, 0), (0,)) == 1.0
    assert hamiltonian(sys2, (0, 1), (0, 0), (0,)) == 0.0


def test_hamiltonian_linear_in_u():
    sys6 = counterexample_raw()
    rng = random.Random(4)
    for _ in range(5):
        x = [rng.uniform(-1, 1) for _ in range(6)]
        p = [rng.uniform(-1, 1) for _ in range(6)]
        u1 = [rng.uniform(-1, 1) for _ in range(3)]
        u2 = [rng.uniform(-1, 1) for _ in range(3)]
        both = [a + b for a, b in zip(u1, u2)]
        residual = (
            hamiltonian(sys6, x, p, both)
            - hamiltonian(sys6, x, p, u1)
            - hamiltonian(sys6, x, p, u2)
            + hamiltonian(sys6, x, p, (0, 0, 0))
        )
        assert abs(residual) < 1e-12


def test_hamiltonian_cost_term():
    di = double_integrator()  # cost f0 = x1^2 still attached
    x, p, u = (2.0, 1.0), (0.5, 0.5), (1.0,)
    with_cost = hamiltonian(di, x, p, u, lam=1)
    without = hamiltonian(di, x, p, u, lam=0)
    assert abs((without - with_cost) - 4.0) < 1e-12  # lam * f0 = 2^2


def test_switching_values():
    sys2 = di_raw()
    assert switching_values(sys2, (0.3, -0.2), (0.7, 0.9)) == (0.9,)
    sys6 = counterexample_raw()
    p = [0, 0, 0, 1, 0, 0]
    assert switching_values(sys6, [0.1] * 6, p) == (1.0, 0.0, 0.0)
    assert switching_values(sys6, [0.1] * 6, [0.0] * 6) == (0.0, 0.0, 0.0)


def test_bang_bang_control_law():
    assert bang_bang_control((0.5, -0.2), 1.0, (0.0, 0.0)) == (1.0, -1.0)
    assert bang_bang_control((0.0, 0.3), 1.0, (0.5, 0.0)) == (0.5, 1.0)
    assert bang_bang_control((1.0,), 2.0, (0.0,)) == (2.0,)
    assert bang_bang_control((0.001,), 1.0, (-1.0,), deadband=0.01) == (-1.0,)
    with pytest.raises(ValueError):
        bang_bang_control((1.0,), 0.0, (0.0,))


# ---------------------------------------------------------------------------
# integrate_extremal
# ---------------------------------------------------------------------------


def test_double_integrator_parabola():
    cfg = SimConfig(
        initial_state=(0, 0),
        initial_adjoint=(1, 0),
        horizon=1.0,
        step=1e-3,
        control_policy=FixedControl((1.0,)),
    )
    traj = integrate_extremal(di_raw(), cfg)
    assert traj.status == "ok"
    assert traj.samples == 1001
    assert abs(traj.x[-1, 0] - 0.5) < 1e-8
    assert abs(traj.x[-1, 1] - 1.0) < 1e-8


def test_linear_drift_adjoint_closed_form():
    cfg = SimConfig(
        initial_state=(0.5, -0.2),
        initial_adjoint=(1, 0),
        horizon=1.0,
        step=1e-3,
        control_policy=FixedControl((0.0,)),
    )
    traj = integrate_extremal(di_raw(), cfg)
    assert abs(traj.p[-1, 0] - 1.0) < 1e-8
    assert abs(traj.p[-1, 1] + 1.0) < 1e-8


def test_hamiltonian_conserved_with_fixed_control():
    cfg = SimConfig(
        initial_state=GENERIC_X0,
        initial_adjoint=GENERIC_P0,
        horizon=1.0,
        step=1e-3,
        control_policy=FixedControl(FIXED_U3),
    )
    traj = integrate_extremal(counterexample_raw(), cfg)
    assert traj.status == "ok"
    assert np.max(np.abs(traj.H - traj.H[0])) < 1e-6


def test_hamiltonian_conserved_between_switches():
    table = ((0.0, (0.3, 0.5, 0.7)), (0.5, (-0.3, 0.5, -0.7)))
    cfg = SimConfig(
        initial_state=GENERIC_X0,
        initial_adjoint=GENERIC_P0,
        horizon=1.0,
        step=1e-3,
        control_policy=PiecewiseControl(table),
    )
    traj = integrate_extremal(counterexample_raw(), cfg)
    switch = np.searchsorted(traj.t, 0.5)
    first = traj.H[:switch]
    second = traj.H[switch + 1 :]
    assert np.max(np.abs(first - first[0])) < 1e-6
    assert np.max(np.abs(second - second[0])) < 1e-6


def test_phi_and_h_recomputed_from_samples():
    cfg = SimConfig(
        initial_state=GENERIC_X0,
        initial_adjoint=GENERIC_P0,
        horizon=0.05,
        step=1e-3,
        control_policy=FixedControl(FIXED_U3),
    )
    sys6 = counterexample_raw()
    traj = integrate_extremal(sys6, cfg)
    for s in (0, 17, 50):
        phi = switching_values(sys6, traj.x[s], traj.p[s])
        assert np.max(np.abs(np.asarray(phi) - traj.phi[s])) < 1e-12
        h_val = hamiltonian(sys6, traj.x[s], traj.p[s], traj.u[s])
        assert abs(h_val - traj.H[s]) < 1e-12


def test_divergence_flags_partial_trajectory():
    doc = {"states": ["x1"], "inputs": 1, "f": ["x1*x1"], "g": [["0"]]}
    sys1 = load(doc)
    cfg = SimConfig(
        initial_state=(3.0,),
        initial_adjoint=(1.0,),
        horizon=2.0,
        step=1e-3,
        control_policy=FixedControl((0.0,)),
    )
    traj = integrate_extremal(sys1, cfg)
    assert traj.status in ("diverged", "eval_error")
    assert traj.failure_time is not None
    assert 0 < traj.samples < 2001
    assert np.all(np.isfinite(traj.x))


def test_integrate_rejects_pending_cost_and_bad_sizes():
    with pytest.raises(ValueError):
        integrate_extremal(
            double_integrator(),
            SimConfig(initial_state=(0, 0), initial_adjoint=(1, 0)),
        )
    with pytest.raises(ValueError):
        integrate_extremal(
            di_raw(), SimConfig(initial_state=(0, 0, 0), initial_adjoint=(1, 0, 0))
        )


def test_sim_config_validation():
    with pytest.raises(ValueError):
        SimConfig(initial_state=(0,), initial_adjoint=(1,), step=0.0)
    with pytest.raises(ValueError):
        SimConfig(initial_state=(0,), initial_adjoint=(1,), horizon=1e-6, step=1e-3)
    with pytest.raises(ValueError):
        SimConfig(initial_state=(0,), initial_adjoint=(1,), lam=2)
    with pytest.raises(ValueError):
        SimConfig(initial_state=(0,), initial_adjoint=(0,), lam=0)
    # lam = 1 with a zero adjoint is allowed
    SimConfig(initial_state=(0,), initial_adjoint=(0.0,), lam=1)
    # the RK4 step count is capped, and a ratio that overflows is rejected
    SimConfig(initial_state=(0,), initial_adjoint=(1,), horizon=MAX_STEPS * 1e-3)
    with pytest.raises(ValueError, match="horizon/step"):
        SimConfig(initial_state=(0,), initial_adjoint=(1,), horizon=(MAX_STEPS + 1) * 1e-3)
    with pytest.raises(ValueError, match="horizon/step"):
        SimConfig(initial_state=(0,), initial_adjoint=(1,), horizon=1e300, step=1e-300)


def test_adjoint_scaling_leaves_bang_bang_control_invariant():
    base = None
    for c in (1.0, 2.0, 10.0):
        cfg = SimConfig(
            initial_state=GENERIC_X0,
            initial_adjoint=tuple(c * v for v in GENERIC_P0),
            horizon=1.0,
            step=1e-3,
            control_policy=BangBang(),
        )
        traj = integrate_extremal(counterexample_raw(), cfg)
        assert traj.status == "ok"
        if base is None:
            base = traj.u
        else:
            assert np.array_equal(base, traj.u)


def test_bang_bang_controls_take_bound_values():
    cfg = SimConfig(
        initial_state=GENERIC_X0,
        initial_adjoint=GENERIC_P0,
        horizon=0.5,
        step=1e-3,
        control_policy=BangBang(),
    )
    traj = integrate_extremal(counterexample_raw(), cfg)
    assert set(np.unique(traj.u)) <= {-1.0, 1.0}


# ---------------------------------------------------------------------------
# singular intervals
# ---------------------------------------------------------------------------


def test_invariantly_zero_phi_gives_full_interval():
    # lam = 1 permits a zero adjoint; phi stays identically zero
    cfg = SimConfig(
        initial_state=(0.2, -0.1),
        initial_adjoint=(0.0, 0.0),
        horizon=1.0,
        step=1e-3,
        control_policy=FixedControl((0.5,)),
    )
    traj = integrate_extremal(di_raw(), cfg)
    intervals = detect_singular_intervals(traj, cfg)
    assert intervals.per_input == (((0.0, 1.0),),)


def test_isolated_zero_crossing_is_not_singular():
    # p = (-1, t - 0.5): phi = p2 crosses zero transversally at t = 0.5
    cfg = SimConfig(
        initial_state=(0.0, 0.0),
        initial_adjoint=(-1.0, -0.5),
        horizon=1.0,
        step=1e-3,
        control_policy=FixedControl((0.0,)),
        singular_tolerance=1e-3,
    )
    traj = integrate_extremal(di_raw(), cfg)
    assert abs(traj.p[-1, 1] - 0.5) < 1e-8
    intervals = detect_singular_intervals(traj, cfg)
    assert intervals.per_input == ((),)


def test_empty_trajectory_gives_empty_intervals():
    traj = Trajectory(
        state_names=("x1",),
        input_count=2,
        step=1e-3,
        t=np.empty(0),
        x=np.empty((0, 1)),
        p=np.empty((0, 1)),
        u=np.empty((0, 2)),
        phi=np.empty((0, 2)),
        H=np.empty(0),
    )
    cfg = SimConfig(initial_state=(0.0,), initial_adjoint=(1.0,))
    assert detect_singular_intervals(traj, cfg).per_input == ((), ())


def test_intervals_invariant_under_appending_nonsingular_samples():
    cfg = SimConfig(
        initial_state=(0.2, -0.1),
        initial_adjoint=(0.0, 0.0),
        horizon=0.5,
        step=1e-3,
        control_policy=FixedControl((0.5,)),
    )
    traj = integrate_extremal(di_raw(), cfg)
    before = detect_singular_intervals(traj, cfg)
    extra = 50
    tail_t = traj.t[-1] + traj.step * np.arange(1, extra + 1)
    appended = Trajectory(
        state_names=traj.state_names,
        input_count=traj.input_count,
        step=traj.step,
        t=np.concatenate([traj.t, tail_t]),
        x=np.vstack([traj.x, np.tile(traj.x[-1], (extra, 1))]),
        p=np.vstack([traj.p, np.tile(traj.p[-1], (extra, 1))]),
        u=np.vstack([traj.u, np.tile(traj.u[-1], (extra, 1))]),
        phi=np.vstack([traj.phi, np.full((extra, 1), 10.0)]),
        H=np.concatenate([traj.H, np.full(extra, traj.H[-1])]),
    )
    after = detect_singular_intervals(appended, cfg)
    assert after.per_input == before.per_input


# ---------------------------------------------------------------------------
# local order along arcs
# ---------------------------------------------------------------------------


def test_arc_consensus_on_generic_samples():
    cfg = SimConfig(
        initial_state=GENERIC_X0,
        initial_adjoint=GENERIC_P0,
        horizon=0.2,
        step=1e-3,
        control_policy=FixedControl(FIXED_U3),
    )
    sys6 = counterexample_raw()
    traj = integrate_extremal(sys6, cfg)
    arc = local_order_on_arc(sys6, traj, (0.0, 0.2), 4, 1e-9)
    assert arc.consensus_k == 3
    assert arc.dissent == 0


def stay_at_origin_trajectory():
    ext = counterexample_extended()
    cfg = SimConfig(
        initial_state=(0.0,) * 7,
        initial_adjoint=(-1.0,) + (0.0,) * 6,
        horizon=1.0,
        step=1e-3,
        control_policy=BangBang(),
    )
    return ext, cfg, integrate_extremal(ext, cfg)


def test_stay_at_origin_arc_is_fully_singular_with_degenerate_b3():
    ext, cfg, traj = stay_at_origin_trajectory()
    assert traj.status == "ok"
    assert np.max(np.abs(traj.x)) == 0.0
    assert np.max(np.abs(traj.phi)) == 0.0
    intervals = detect_singular_intervals(traj, cfg)
    assert intervals.per_input == (((0.0, 1.0),),) * 3
    for s in (0, 500, 1000):
        b3 = evaluate_b_matrix(ext, 3, traj.x[s], traj.p[s])
        assert np.max(np.abs(b3)) < 1e-9
    arc = local_order_on_arc(ext, traj, (0.0, 1.0), 3, 1e-9)
    assert arc.consensus_k is None
    assert arc.dissent == traj.samples
    # one level deeper the pairing becomes visible again
    arc5 = local_order_on_arc(ext, traj, (0.9, 1.0), 5, 1e-9)
    assert arc5.consensus_k == 4


def test_arc_single_sample_consensus():
    cfg = SimConfig(
        initial_state=GENERIC_X0,
        initial_adjoint=GENERIC_P0,
        horizon=0.01,
        step=1e-3,
        control_policy=FixedControl(FIXED_U3),
    )
    sys6 = counterexample_raw()
    traj = integrate_extremal(sys6, cfg)
    arc = local_order_on_arc(sys6, traj, (0.005, 0.005), 4, 1e-9)
    assert len(arc.per_sample) == 1
    assert arc.consensus_k == arc.per_sample[0] == 3


def test_arc_interval_bounds_checked():
    cfg = SimConfig(
        initial_state=GENERIC_X0,
        initial_adjoint=GENERIC_P0,
        horizon=0.01,
        step=1e-3,
        control_policy=FixedControl(FIXED_U3),
    )
    sys6 = counterexample_raw()
    traj = integrate_extremal(sys6, cfg)
    with pytest.raises(ValueError):
        local_order_on_arc(sys6, traj, (0.0, 2.0), 3, 1e-9)


# ---------------------------------------------------------------------------
# derivative-law residual (check_lemma1)
# ---------------------------------------------------------------------------


def fixed_u_trajectory(step=1e-3):
    sys6 = counterexample_raw()
    cfg = SimConfig(
        initial_state=GENERIC_X0,
        initial_adjoint=GENERIC_P0,
        horizon=1.0,
        step=step,
        control_policy=FixedControl(FIXED_U3),
    )
    return sys6, integrate_extremal(sys6, cfg)


def test_lemma1_residual_small_for_input_fields_and_drift():
    sys6, traj = fixed_u_trajectory()
    for field in (*sys6.inputs, sys6.drift):
        assert check_lemma1(sys6, traj, field) < 1e-4


def test_lemma1_inner_product_with_drift_conserved_when_uncontrolled():
    sys6 = counterexample_raw()
    cfg = SimConfig(
        initial_state=GENERIC_X0,
        initial_adjoint=GENERIC_P0,
        horizon=1.0,
        step=1e-3,
        control_policy=FixedControl((0.0, 0.0, 0.0)),
    )
    traj = integrate_extremal(sys6, cfg)
    assert check_lemma1(sys6, traj, sys6.drift) < 1e-4
    # <p, f> is a first integral here; verify directly as well
    fn = compile_components(sys6.drift.components, sys6.state_names)
    inner = np.array([traj.p[s] @ np.asarray(fn(traj.x[s])) for s in range(traj.samples)])
    assert np.max(np.abs(inner - inner[0])) < 1e-8


def test_lemma1_zero_field_residual_exactly_zero():
    sys6, traj = fixed_u_trajectory()
    assert check_lemma1(sys6, traj, VectorField.zero(sys6.state_names)) == 0.0


def test_lemma1_residual_contracts_with_step():
    sys6, coarse = fixed_u_trajectory(step=1e-3)
    _, fine = fixed_u_trajectory(step=5e-4)
    for field in (*sys6.inputs, sys6.drift):
        r_coarse = check_lemma1(sys6, coarse, field)
        r_fine = check_lemma1(sys6, fine, field)
        assert r_fine <= r_coarse / 3.0


def test_lemma1_needs_three_samples():
    sys6, traj = fixed_u_trajectory()
    short = Trajectory(
        state_names=traj.state_names,
        input_count=traj.input_count,
        step=traj.step,
        t=traj.t[:2],
        x=traj.x[:2],
        p=traj.p[:2],
        u=traj.u[:2],
        phi=traj.phi[:2],
        H=traj.H[:2],
    )
    with pytest.raises(ValueError):
        check_lemma1(sys6, short, sys6.drift)


# ---------------------------------------------------------------------------
# derivative chain consistency: phi''' = A_3 + B_3 u on the counterexample
# ---------------------------------------------------------------------------


def test_third_derivative_matches_switching_coefficients():
    sys6, traj = fixed_u_trajectory()
    h = traj.step
    coeffs = switching_coeffs(sys6, 3)
    a_fns = [compile_components(f.components, sys6.state_names) for f in coeffs.a_fields]
    u = np.asarray(FIXED_U3)
    for s in range(2, traj.samples - 2, 97):
        stencil = (
            -traj.phi[s - 2] + 2 * traj.phi[s - 1] - 2 * traj.phi[s + 1] + traj.phi[s + 2]
        ) / (2 * h**3)
        b3 = evaluate_b_matrix(sys6, 3, traj.x[s], traj.p[s])
        a3 = np.array([float(traj.p[s] @ np.asarray(fn(traj.x[s]))) for fn in a_fns])
        predicted = a3 + b3 @ u
        assert np.max(np.abs(stencil - predicted)) < 1e-4


# ---------------------------------------------------------------------------
# trajectory export
# ---------------------------------------------------------------------------


def test_write_csv_format(tmp_path):
    cfg = SimConfig(
        initial_state=(0, 0),
        initial_adjoint=(1, 0),
        horizon=0.01,
        step=1e-3,
        control_policy=FixedControl((1.0,)),
    )
    traj = integrate_extremal(di_raw(), cfg)
    path = tmp_path / "traj.csv"
    traj.write_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,x_x1,x_x2,p_x1,p_x2,u_1,phi_1,H"
    assert len(lines) == traj.samples + 1
    last = [float(v) for v in lines[-1].split(",")]
    assert abs(last[1] - traj.x[-1, 0]) < 1e-16
    # 17 significant digits survive a float round trip
    assert last[1] == traj.x[-1, 0]
