"""Acceptance criteria, one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they execute.
"""

import contextlib
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from ctrlorder import (
    BracketTable,
    BangBang,
    FixedControl,
    PiecewiseControl,
    Negate,
    SimConfig,
    Sum,
    VectorField,
    ZeroTestPolicy,
    check_lemma1,
    detect_singular_intervals,
    integrate_extremal,
    lie_bracket,
    local_order_at,
    parse,
    problem_order,
    simplify,
    to_text,
    verify_bracket_identities,
    vf_is_zero,
)
from ctrlorder.expr import ExprSyntaxError

from helpers import (
    counterexample_extended,
    counterexample_raw,
    double_integrator,
    eval_field,
    fuller,
    half_integer,
    random_expr,
    random_k2_system,
    random_poly_field,
    random_single_input_system,
)


@contextlib.contextmanager
def criterion(number: int, label: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:2d} FAIL  {label}")
        raise
    print(f"ACCEPTANCE {number:2d} PASS  {label}")


def test_criterion_01_counterexample_order():
    with criterion(1, "counterexample order k=3, q=3/2 (raw and cost-extended)"):
        t0 = time.monotonic()
        for sys_model, n_expected in ((counterexample_raw(), 6), (counterexample_extended(), 7)):
            assert sys_model.n == n_expected
            report = problem_order(sys_model, 10)
            assert report.found
            assert report.k == 3
            assert report.q == Fraction(3, 2)
            assert isinstance(report.q, Fraction)
        assert time.monotonic() - t0 < 5.0


def test_criterion_02_fuller_order():
    with criterion(2, "Fuller system order k=4, q=2 with hand-derived chain"):
        t0 = time.monotonic()
        sysf = fuller()
        f, g = sysf.drift, sysf.inputs[0]
        ad3 = BracketTable(f, (g,)).ad(0, 3)
        expected_ad3 = VectorField.from_strings(sysf.state_names, ("2*x2", "0", "0"))
        for a, b in zip(ad3.components, expected_ad3.components):
            assert simplify(a) == simplify(b)
        b4 = lie_bracket(g, ad3)
        expected_b4 = VectorField.from_strings(sysf.state_names, ("2", "0", "0"))
        for a, b in zip(b4.components, expected_b4.components):
            assert simplify(a) == simplify(b)
        report = problem_order(sysf, 10)
        assert report.found and report.k == 4
        assert report.q == Fraction(2)
        assert time.monotonic() - t0 < 5.0


def test_criterion_03_half_integer_witness():
    with criterion(3, "two-input witness k=1, q=1/2 (fractional order)"):
        report = problem_order(half_integer(), 10)
        assert report.found and report.k == 1
        assert report.q == Fraction(1, 2)


def test_criterion_04_parity_property_suite():
    with criterion(4, "100 random single-input systems: found order is always even"):
        t0 = time.monotonic()
        rng = random.Random(20260808)
        policy = ZeroTestPolicy(seed=1729)
        found = 0
        for _ in range(100):
            sys_model = random_single_input_system(rng)
            report = problem_order(sys_model, 8, policy)
            if report.found:
                found += 1
                assert report.k % 2 == 0, (
                    f"odd level k={report.k} on system "
                    f"f={sys_model.drift}, g={sys_model.inputs[0]}"
                )
        assert found >= 30  # the sample must actually exercise the theorem
        assert time.monotonic() - t0 < 60.0


def test_criterion_05_bracket_identity_suite():
    with criterion(5, "bracket identities on Fuller and 25 random systems with k* >= 2"):
        report = verify_bracket_identities(fuller(), ZeroTestPolicy(seed=7))
        assert report.k_star == 3
        assert report.all_passed
        rng = random.Random(555111)
        policy = ZeroTestPolicy(seed=7)
        accepted = 0
        attempts = 0
        while accepted < 25:
            attempts += 1
            assert attempts < 500, "generator failed to produce k* >= 2 systems"
            sys_model = random_k2_system(rng)
            rep = verify_bracket_identities(sys_model, policy, depth_cap=6)
            if rep.k_star < 2:
                continue
            accepted += 1
            bad = [c for c in rep.checks if not c.verdict.is_zero]
            assert not bad, f"identity failures {bad} on f={sys_model.drift}"


def test_criterion_06_lie_algebra_laws():
    with criterion(6, "antisymmetry, bilinearity, Jacobi: symbolic + numeric on 50 triples"):
        rng = random.Random(161803)
        policy = ZeroTestPolicy(seed=161803)
        names = ("x1", "x2")
        for _ in range(50):
            a = random_poly_field(rng, names, max_monomials=2)
            b = random_poly_field(rng, names, max_monomials=2)
            c = random_poly_field(rng, names, max_monomials=2)

            ab, ba = lie_bracket(a, b), lie_bracket(b, a)
            anti = VectorField(
                names,
                tuple(simplify(Sum((x, y))) for x, y in zip(ab.components, ba.components)),
            )
            assert vf_is_zero(anti, policy).is_zero

            b_plus_c = VectorField(
                names, tuple(Sum((x, y)) for x, y in zip(b.components, c.components))
            )
            bil = VectorField(
                names,
                tuple(
                    simplify(Sum((x, Negate(Sum((y, z))))))
                    for x, y, z in zip(
                        lie_bracket(a, b_plus_c).components,
                        lie_bracket(a, b).components,
                        lie_bracket(a, c).components,
                    )
                ),
            )
            assert vf_is_zero(bil, policy).is_zero

            t1 = lie_bracket(a, lie_bracket(b, c))
            t2 = lie_bracket(b, lie_bracket(c, a))
            t3 = lie_bracket(c, lie_bracket(a, b))
            jac = VectorField(
                names,
                tuple(
                    simplify(Sum((x, y, z)))
                    for x, y, z in zip(t1.components, t2.components, t3.components)
                ),
            )
            assert vf_is_zero(jac, policy).is_zero

            for _ in range(32):
                pt = {n: rng.uniform(-1, 1) for n in names}
                anti_res = eval_field(ab, pt) + eval_field(ba, pt)
                jac_res = eval_field(t1, pt) + eval_field(t2, pt) + eval_field(t3, pt)
                assert np.max(np.abs(anti_res)) < 1e-8
                assert np.max(np.abs(jac_res)) < 1e-8


GENERIC_X0 = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6)
GENERIC_P0 = (1.0, 0.5, 0.25, 0.2, 0.1, 0.05)
FIXED_U3 = (0.3, 0.5, 0.7)


def _fixed_u_trajectory(step):
    sys6 = counterexample_raw()
    cfg = SimConfig(
        initial_state=GENERIC_X0,
        initial_adjoint=GENERIC_P0,
        horizon=1.0,
        step=step,
        control_policy=FixedControl(FIXED_U3),
    )
    return sys6, integrate_extremal(sys6, cfg)


def test_criterion_07_derivative_law_residual():
    with criterion(7, "d/dt<p,h> residual < 1e-4 on counterexample; halving contracts 3x"):
        sys6, coarse = _fixed_u_trajectory(1e-3)
        _, fine = _fixed_u_trajectory(5e-4)
        for field in (*sys6.inputs, sys6.drift):
            r_coarse = check_lemma1(sys6, coarse, field)
            r_fine = check_lemma1(sys6, fine, field)
            assert r_coarse < 1e-4
            assert r_fine <= r_coarse / 3.0


def test_criterion_08_hamiltonian_conservation():
    with criterion(8, "|H(t) - H(switch)| < 1e-6 between control switches"):
        sys6 = counterexample_raw()
        table = ((0.0, FIXED_U3), (0.5, (-0.3, 0.5, -0.7)))
        cfg = SimConfig(
            initial_state=GENERIC_X0,
            initial_adjoint=GENERIC_P0,
            horizon=1.0,
            step=1e-3,
            control_policy=PiecewiseControl(table),
        )
        traj = integrate_extremal(sys6, cfg)
        assert traj.status == "ok"
        switch = int(np.searchsorted(traj.t, 0.5))
        first, second = traj.H[:switch], traj.H[switch + 1 :]
        assert np.max(np.abs(first - first[0])) < 1e-6
        assert np.max(np.abs(second - second[0])) < 1e-6


def test_criterion_09_integrator_oracles():
    with criterion(9, "double integrator x1(T)=T^2/2 and adjoint p(T)=(1,-T) within 1e-8"):
        from ctrlorder import without_cost

        di = without_cost(double_integrator())
        traj = integrate_extremal(
            di,
            SimConfig(
                initial_state=(0, 0),
                initial_adjoint=(1, 0),
                horizon=1.0,
                step=1e-3,
                control_policy=FixedControl((1.0,)),
            ),
        )
        assert abs(traj.x[-1, 0] - 0.5) < 1e-8
        drift_only = integrate_extremal(
            di,
            SimConfig(
                initial_state=(0.3, -0.7),
                initial_adjoint=(1, 0),
                horizon=1.0,
                step=1e-3,
                control_policy=FixedControl((0.0,)),
            ),
        )
        assert abs(drift_only.p[-1, 0] - 1.0) < 1e-8
        assert abs(drift_only.p[-1, 1] + 1.0) < 1e-8


def test_criterion_10_parser_round_trip():
    with criterion(10, "1000 random trees round-trip; diagnostics carry positions"):
        rng = random.Random(90125)
        names = ("v1", "v2", "theta", "x1")
        for _ in range(1000):
            e = random_expr(rng, names, depth=rng.randint(0, 4))
            text = to_text(e)
            assert simplify(parse(text, names)) == simplify(e), text
        for bad, pos in (("x1 + ", 5), ("(x1", 3), ("sin()", 4), ("x1 $ 2", 3)):
            with pytest.raises(ExprSyntaxError) as err:
                parse(bad, names)
            assert err.value.position == pos


def test_criterion_11_local_vs_problem_order():
    with criterion(11, "generic k_local = 3 in >= 95/100 draws; stay-at-origin B_3 ~ 0"):
        sys6 = counterexample_raw()
        rng = random.Random(77)
        hits = 0
        for _ in range(100):
            x = [rng.uniform(-1, 1) for _ in range(6)]
            p = [rng.uniform(-1, 1) for _ in range(6)]
            result = local_order_at(sys6, x, p, 6, 1e-9)
            if result.found and result.k_local == 3:
                hits += 1
        assert hits >= 95

        ext = counterexample_extended()
        cfg = SimConfig(
            initial_state=(0.0,) * 7,
            initial_adjoint=(-1.0,) + (0.0,) * 6,
            horizon=1.0,
            step=1e-3,
            control_policy=BangBang(),
        )
        traj = integrate_extremal(ext, cfg)
        assert traj.status == "ok"
        intervals = detect_singular_intervals(traj, cfg)
        assert intervals.per_input == (((0.0, 1.0),),) * 3
        # B_1 to B_3 stay under 1e-9 * max|p| = 1e-9; each distinct (x, p) row is read once
        rows = {(*traj.x[s].tolist(), *traj.p[s].tolist()) for s in range(0, traj.samples, 50)}
        for row in rows:
            assert not local_order_at(ext, row[:7], row[7:], 3, 1e-9).found
