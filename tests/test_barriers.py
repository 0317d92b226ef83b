import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from respalloc.barriers import (Barrier, ClassKappaLinear, assemble_constraint,
                                make_ellipse_barrier,
                                make_pairwise_distance_barrier, validate_barrier)
from respalloc.dynamics import (euler_rollout, make_double_integrator_2d,
                                make_relative_double_integrator,
                                make_single_integrator_1d)
from respalloc.data import planar_group_scene, two_agent_line_scene, weaving_scene
from respalloc.filter_qp import FilterProblem, solve_filter

from oracles import (assert_rel_close, fd_grad, fd_jacobian,
                     softmin_pair_reference)


@pytest.fixture
def line_pair():
    return make_single_integrator_1d(2)


def test_pairwise_barrier_values(line_pair):
    b = make_pairwise_distance_barrier(line_pair, 1.0)
    assert b.value(np.array([0.0, 1.5])) == pytest.approx(1.25)
    assert b.value(np.array([0.0, 1.0])) == pytest.approx(0.0)
    assert b.value(np.array([0.0, 0.5])) == pytest.approx(-0.75)


def test_ellipse_barrier_values():
    b = make_ellipse_barrier(9.22, 1.76)
    assert b.value(np.array([9.22, 0.0, 0.0, 0.0])) == pytest.approx(0.0, abs=1e-12)
    assert b.value(np.zeros(4)) == pytest.approx(-1.0)
    assert b.value(np.array([9.22, 1.76, 0.0, 0.0])) == pytest.approx(1.0)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_barrier_derivatives_match_finite_differences(seed):
    rng = np.random.default_rng(seed)
    line = make_single_integrator_1d(2)
    planar = make_double_integrator_2d(3)
    cases = [
        (make_pairwise_distance_barrier(line, 1.0), rng.normal(size=2, scale=2)),
        (make_ellipse_barrier(9.22, 1.76), rng.normal(size=4, scale=3)),
        (make_pairwise_distance_barrier(planar, 1.0, temperature=10.0),
         rng.normal(size=12, scale=1.5)),
    ]
    for barrier, x in cases:
        g = barrier.grad(x)
        np.testing.assert_allclose(g, fd_grad(barrier.value, x), rtol=1e-5, atol=1e-7)
        h = barrier.hess(x)
        np.testing.assert_allclose(h, fd_jacobian(barrier.grad, x, step=1e-6),
                                   rtol=1e-4, atol=1e-6)


def test_validate_barrier_gate_rejects_wrong_gradient():
    bad = Barrier(value=lambda x: float(x[0] ** 2), grad=lambda x: np.array([1.0]),
                  name="bad")
    with pytest.raises(ValueError, match="gradient"):
        validate_barrier(bad, [np.array([1.3])])
    good = Barrier(value=lambda x: x[..., 0] ** 2, grad=lambda x: 2.0 * x)
    validate_barrier(good, [np.array([1.3]), np.array([-0.4])])


def test_validate_barrier_gate_rejects_batch_disagreement():
    # Per-state outputs pass the finite-difference gate; the batched ones do not
    # match them (a batch summed into one number, an offset only in batches).
    probes = [np.array([1.3]), np.array([-0.4])]
    summed = Barrier(value=lambda x: float(np.sum(np.asarray(x) ** 2)),
                     grad=lambda x: 2.0 * np.asarray(x), name="summed")
    with pytest.raises(ValueError, match="batched value"):
        validate_barrier(summed, probes)
    shifted = Barrier(value=lambda x: x[..., 0] ** 2,
                      grad=lambda x: 2.0 * x + (np.ndim(x) - 1), name="shifted")
    with pytest.raises(ValueError, match="batched gradient"):
        validate_barrier(shifted, probes)
    planar = make_double_integrator_2d(3)
    states = np.random.default_rng(0).normal(size=(4, 12))
    for temperature in (10.0, None):
        validate_barrier(make_pairwise_distance_barrier(planar, 1.0, temperature=temperature),
                         states, require_hess=True)


def test_softmin_is_conservative_and_matches_hard_min_off_ties():
    sys = make_double_integrator_2d(3)
    rng = np.random.default_rng(3)
    soft = make_pairwise_distance_barrier(sys, 1.0, temperature=10.0)
    hard = make_pairwise_distance_barrier(sys, 1.0, temperature=None)
    for _ in range(50):
        x = rng.normal(size=12, scale=2.0)
        assert soft.value(x) <= hard.value(x) + 1e-12
        assert hard.value(x) - soft.value(x) <= np.log(3.0) / 10.0 + 1e-12


def test_degree1_assembly_two_agent_scene(line_pair):
    barrier = make_pairwise_distance_barrier(line_pair, 1.0)
    con = assemble_constraint(line_pair, barrier, (ClassKappaLinear(1.0),),
                              np.array([0.0, 1.5]))
    np.testing.assert_allclose(con.a, [-3.0, 3.0])
    assert con.offset == pytest.approx(1.25)
    assert con.value([1.0, -1.0]) == pytest.approx(-4.75)
    assert con.value([0.0, 0.0]) == pytest.approx(1.25)


def test_constraint_is_affine_with_unit_control_coefficients(line_pair):
    barrier = make_pairwise_distance_barrier(line_pair, 1.0)
    con = assemble_constraint(line_pair, barrier, (ClassKappaLinear(2.0),),
                              np.array([-0.3, 1.1]))
    m = con.a.size
    base = con.value(np.zeros(m))
    for j in range(m):
        e = np.zeros(m)
        e[j] = 1.0
        assert con.value(e) - base == pytest.approx(con.a[j], abs=1e-12)


def test_degree2_requires_hessian_and_two_gains():
    sys = make_double_integrator_2d(2)
    barrier = make_pairwise_distance_barrier(sys, 1.0)
    x = np.array([0.0, 0.0, 0.5, 0.0, 1.2, 0.0, -0.5, 0.0])
    with pytest.raises(ValueError, match="alpha_chain"):
        assemble_constraint(sys, barrier, (ClassKappaLinear(1.0),), x)
    no_hess = Barrier(value=barrier.value, grad=barrier.grad, hess=None)
    with pytest.raises(ValueError, match="Hessian"):
        assemble_constraint(sys, no_hess,
                            (ClassKappaLinear(1.0), ClassKappaLinear(1.0)), x)


def _fd_second_derivative_chain(sys, barrier, x, u, k1, k2, dt=1e-4):
    """Oracle: b'' + (k1+k2) b' + k1 k2 b by central differences along the flow.

    Under a constant control a double integrator's flow is exactly
    x(t) = x + t xdot + t^2/2 F xdot, because F @ F = 0.
    """
    xdot = sys.xdot(x, u)

    def flow(t):
        return x + t * xdot + 0.5 * t ** 2 * (sys.F @ xdot)

    b0 = barrier.value(x)
    bp = barrier.value(flow(dt))
    bm = barrier.value(flow(-dt))
    bdot = (bp - bm) / (2 * dt)
    bddot = (bp - 2 * b0 + bm) / dt ** 2
    return bddot + (k1 + k2) * bdot + k1 * k2 * b0


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_degree2_assembly_matches_trajectory_finite_differences(seed):
    rng = np.random.default_rng(seed)
    sys = make_double_integrator_2d(2)
    barrier = make_pairwise_distance_barrier(sys, 1.0)
    x = rng.normal(size=8, scale=1.5)
    u = rng.normal(size=4)
    con = assemble_constraint(sys, barrier,
                              (ClassKappaLinear(1.0), ClassKappaLinear(1.0)), x)
    oracle = _fd_second_derivative_chain(sys, barrier, x, u, 1.0, 1.0)
    assert con.value(u) == pytest.approx(oracle, rel=1e-3, abs=1e-3)


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_degree2_relative_system_matches_finite_differences(seed):
    rng = np.random.default_rng(seed)
    sys = make_relative_double_integrator()
    barrier = make_ellipse_barrier(9.22, 1.76)
    r = rng.normal(size=4, scale=3.0)
    u = rng.normal(size=4)
    con = assemble_constraint(sys, barrier,
                              (ClassKappaLinear(1.0), ClassKappaLinear(1.0)), r)
    oracle = _fd_second_derivative_chain(sys, barrier, r, u, 1.0, 1.0)
    assert con.value(u) == pytest.approx(oracle, rel=1e-3, abs=1e-3)


def test_boundary_reduces_to_bdot(line_pair):
    # At b(x) = 0 with a linear gain the row offset is just grad b . drift = bdot.
    barrier = make_pairwise_distance_barrier(line_pair, 1.0)
    x = np.array([0.0, 1.0])
    con = assemble_constraint(line_pair, barrier, (ClassKappaLinear(1.0),), x)
    assert barrier.value(x) == pytest.approx(0.0, abs=1e-12)
    assert con.offset == pytest.approx(0.0, abs=1e-12)   # zero drift system


def test_closed_loop_forward_invariance(line_pair):
    # Filtered controls keep b nonnegative along an Euler rollout.
    barrier = make_pairwise_distance_barrier(line_pair, 1.0)
    chain = (ClassKappaLinear(1.0),)
    u_des = np.array([1.0, -1.0])     # head-on desired controls

    def policy(k, x):
        con = assemble_constraint(line_pair, barrier, chain, x)
        problem = FilterProblem(constraint=con, u_des=u_des,
                                gamma=np.array([0.5, 0.5]), beta1=0.0,
                                beta2=1e6, lb=-10.0, ub=10.0)
        return solve_filter(problem).u

    states, _ = euler_rollout(line_pair, np.array([0.0, 1.6]), policy,
                              dt=0.005, steps=400)
    b_along = np.array([barrier.value(x) for x in states])
    assert b_along.min() >= min(0.0, b_along[0]) - 1e-3


# -- batched evaluation ------------------------------------------------------------

# Scene and the scale of its random filter states.
BATCH_SCENES = {
    "line": (two_agent_line_scene(), 2.0),
    "planar6_softmin": (planar_group_scene(6), 1.2),
    "planar_hard_min": (planar_group_scene(4, temperature=None), 1.5),
    "weaving_ellipse": (weaving_scene(), 6.0),
}


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(sorted(BATCH_SCENES)), st.integers(1, 40),
       st.integers(0, 2 ** 32 - 1))
def test_batched_rows_equal_stacked_single_state_rows(name, batch, seed):
    scene, scale = BATCH_SCENES[name]
    states = np.random.default_rng(seed).normal(size=(batch, scene.system.state_dim),
                                                scale=scale)
    rows = scene.assemble(states)
    singles = [scene.assemble(x) for x in states]
    assert rows.a.shape == (batch, scene.system.control_dim_total)
    assert rows.offset.shape == (batch,)
    for i, (row, single) in enumerate(zip(zip(rows.a, rows.offset), singles)):
        assert_rel_close(row[0], single.a)
        assert_rel_close(row[1], single.offset)
        assert isinstance(single.offset, float) and single.a.ndim == 1
        listed = rows[i]
        assert np.array_equal(listed.a, row[0]) and listed.offset == row[1]


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(sorted(BATCH_SCENES)), st.integers(1, 40),
       st.integers(0, 2 ** 32 - 1))
def test_array_evaluators_equal_per_state_evaluators(name, batch, seed):
    scene, scale = BATCH_SCENES[name]
    n = scene.system.state_dim
    states = np.random.default_rng(seed).normal(size=(batch, n), scale=scale)
    barrier = scene.barrier
    values, grads, hessians = barrier.value(states), barrier.grad(states), barrier.hess(states)
    assert values.shape == (batch,) and grads.shape == (batch, n)
    assert hessians.shape == (batch, n, n)
    for x, v, g, h in zip(states, values, grads, hessians):
        assert isinstance(barrier.value(x), float)
        assert_rel_close(v, barrier.value(x))
        assert_rel_close(g, barrier.grad(x))
        assert_rel_close(h, barrier.hess(x))


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_softmin_evaluators_match_per_pair_loop_reference(seed):
    system = make_double_integrator_2d(5)
    barrier = make_pairwise_distance_barrier(system, 1.0, temperature=10.0)
    states = np.random.default_rng(seed).normal(size=(8, system.state_dim), scale=1.2)
    values, grads, hessians = barrier.value(states), barrier.grad(states), barrier.hess(states)
    for x, v, g, h in zip(states, values, grads, hessians):
        v_ref, g_ref, h_ref = softmin_pair_reference(x, 5, 1.0, 10.0)
        assert_rel_close(v, v_ref)
        assert_rel_close(g, g_ref)
        assert_rel_close(h, h_ref)
