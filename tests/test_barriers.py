import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from respalloc import barriers
from respalloc.barriers import (Barrier, assemble_constraint, make_ellipse_barrier,
                                make_pairwise_distance_barrier, validate_barrier)
from respalloc.dynamics import (make_double_integrator_2d, make_relative_double_integrator,
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


def _square_jet(grad, hess=None):
    """Jet of b(x) = x0^2 over states (B, n) with the given gradient and
    (optional) Hessian forms."""
    def jet(X, second):
        return X[:, 0] ** 2, grad(X), hess(X) if second and hess is not None else None
    return jet


def test_validate_barrier_gate_rejects_wrong_gradient():
    bad = Barrier(_square_jet(np.ones_like), name="bad")
    with pytest.raises(ValueError, match="gradient"):
        validate_barrier(bad, [np.array([1.3])])
    good = Barrier(_square_jet(lambda X: 2.0 * X))
    validate_barrier(good, [np.array([1.3]), np.array([-0.4])])
    wrong_hess = Barrier(_square_jet(lambda X: 2.0 * X, lambda X: np.ones(X.shape + (1,))),
                         name="wrong_hess")
    with pytest.raises(ValueError, match="wrong_hess: Hessian disagrees with finite"):
        validate_barrier(wrong_hess, [np.array([1.3])])
    with pytest.raises(ValueError, match="a Hessian is required"):
        validate_barrier(good, [np.array([1.3])], require_hess=True)
    validate_barrier(Barrier(_square_jet(lambda X: 2.0 * X,
                                         lambda X: np.full(X.shape + (1,), 2.0))),
                     [np.array([1.3]), np.array([-0.4])], require_hess=True)


def test_validate_barrier_gate_rejects_batch_disagreement():
    # Per-state outputs pass the finite-difference gate; the batched ones do not
    # match them (a batch summed into one number, an offset only in batches).
    probes = [np.array([1.3]), np.array([-0.4])]
    summed = Barrier(lambda X, second: (np.full(len(X), np.sum(X ** 2)), 2.0 * X, None),
                     name="summed")
    with pytest.raises(ValueError, match="batched value"):
        validate_barrier(summed, probes)
    shifted = Barrier(_square_jet(lambda X: 2.0 * X + (len(X) - 1)), name="shifted")
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
    con = assemble_constraint(line_pair, barrier, (1.0,), np.array([0.0, 1.5]))
    np.testing.assert_allclose(con.a, [-3.0, 3.0])
    assert con.offset == pytest.approx(1.25)
    assert con.value([1.0, -1.0]) == pytest.approx(-4.75)
    assert con.value([0.0, 0.0]) == pytest.approx(1.25)


def test_constraint_is_affine_with_unit_control_coefficients(line_pair):
    barrier = make_pairwise_distance_barrier(line_pair, 1.0)
    con = assemble_constraint(line_pair, barrier, (2.0,), np.array([-0.3, 1.1]))
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
    with pytest.raises(ValueError, match="gains"):
        assemble_constraint(sys, barrier, (1.0,), x)
    no_hess = Barrier(lambda X, second: (*barrier.jet(X, False)[:2], None))
    with pytest.raises(ValueError, match="Hessian"):
        assemble_constraint(sys, no_hess, (1.0, 1.0), x)


def test_a_jet_without_a_hessian_is_refused_where_one_is_needed():
    system = make_double_integrator_2d(2)
    full = make_pairwise_distance_barrier(system, 1.0)
    first_order = Barrier(lambda X, second: (*full.jet(X, False)[:2], None), name="first_order")
    states = np.random.default_rng(2).normal(size=(4, 8), scale=1.5)
    for x in (states, states[0]):
        with pytest.raises(ValueError, match="first_order: degree-2 assembly requires a Hessian"):
            assemble_constraint(system, first_order, (1.0, 1.0), x)
        with pytest.raises(ValueError, match="first_order: the jet gives no Hessian"):
            first_order.hess(x)
    with pytest.raises(ValueError, match="first_order: a Hessian is required"):
        validate_barrier(first_order, states, require_hess=True)
    assert validate_barrier(first_order, states) is first_order


@pytest.mark.parametrize("bad", [0.0, -1.0, np.nan, np.inf])
def test_barrier_factories_reject_parameters_that_are_not_positive_and_finite(bad):
    with pytest.raises(ValueError, match="margin must be positive and finite"):
        two_agent_line_scene(margin=bad)
    with pytest.raises(ValueError, match="margin must be positive and finite"):
        planar_group_scene(3, margin=bad)
    for agents in (2, 3):
        with pytest.raises(ValueError, match="temperature must be positive and finite"):
            planar_group_scene(agents, temperature=bad)
    for axes in ((bad, 1.76), (9.22, bad)):
        with pytest.raises(ValueError, match="semi-axes must be positive and finite"):
            weaving_scene(axis_lon=axes[0], axis_lat=axes[1])


@pytest.mark.parametrize("gains,message", [
    ((), "gains must have 1 element"), ((1.0, 1.0), "gains must have 1 element"),
    ((0.0,), "gains must be positive"), ((-1.0,), "gains must be positive"),
    ((float("nan"),), "gains must be positive")],
    ids=["none", "two", "zero", "negative", "nan"])
def test_assembly_rejects_a_wrong_gain_count_or_a_gain_that_is_not_positive(
        gains, message, line_pair):
    barrier = make_pairwise_distance_barrier(line_pair, 1.0)
    for x in (np.array([0.0, 1.5]), np.array([[0.0, 1.5], [0.2, 0.9]])):
        with pytest.raises(ValueError, match=message):
            assemble_constraint(line_pair, barrier, gains, x)


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
    con = assemble_constraint(sys, barrier, (1.0, 1.0), x)
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
    con = assemble_constraint(sys, barrier, (1.0, 1.0), r)
    oracle = _fd_second_derivative_chain(sys, barrier, r, u, 1.0, 1.0)
    assert con.value(u) == pytest.approx(oracle, rel=1e-3, abs=1e-3)


def test_boundary_reduces_to_bdot(line_pair):
    # At b(x) = 0 with a linear gain the row offset is just grad b . drift = bdot.
    barrier = make_pairwise_distance_barrier(line_pair, 1.0)
    x = np.array([0.0, 1.0])
    con = assemble_constraint(line_pair, barrier, (1.0,), x)
    assert barrier.value(x) == pytest.approx(0.0, abs=1e-12)
    assert con.offset == pytest.approx(0.0, abs=1e-12)   # zero drift system


def test_closed_loop_forward_invariance(line_pair):
    # Filtered controls keep b nonnegative along an Euler rollout.
    barrier = make_pairwise_distance_barrier(line_pair, 1.0)
    chain = (1.0,)
    u_des = np.array([1.0, -1.0])     # head-on desired controls

    states = [np.array([0.0, 1.6])]
    for _ in range(400):
        x = states[-1]
        con = assemble_constraint(line_pair, barrier, chain, x)
        problem = FilterProblem(constraint=con, u_des=u_des,
                                gamma=np.array([0.5, 0.5]), beta1=0.0,
                                beta2=1e6, lb=-10.0, ub=10.0)
        states.append(x + 0.005 * line_pair.xdot(x, solve_filter(problem).u))
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


# -- one evaluation of the pair terms per assembly ---------------------------------

PAIR_SCENES = [(agents, temperature) for agents in (4, 6) for temperature in (10.0, None)]


@pytest.mark.parametrize("agents,temperature", PAIR_SCENES)
@pytest.mark.parametrize("seed", range(3))
def test_joint_rows_equal_rows_from_the_three_evaluators(agents, temperature, seed):
    # The three evaluators are views of the one jet: a barrier whose jet calls
    # them one at a time gives the same rows bit for bit.
    scene = planar_group_scene(agents, temperature=temperature)
    b = scene.barrier
    separate = Barrier(lambda X, second: (b.value(X), b.grad(X), b.hess(X) if second else None))
    states = np.random.default_rng(seed).normal(size=(40, scene.system.state_dim), scale=1.2)
    for x in (states, states[0]):
        rows = scene.assemble(x)
        ref = assemble_constraint(scene.system, separate, scene.gains, x)
        assert np.array_equal(rows.a, ref.a) and np.array_equal(rows.offset, ref.offset)
    assert validate_barrier(scene.barrier, states[:3], require_hess=True) is scene.barrier


@pytest.mark.parametrize("agents,temperature", PAIR_SCENES + [(2, 10.0)])
def test_pair_terms_run_once_per_assembly(agents, temperature, monkeypatch):
    calls, pair_terms = [], barriers._pair_terms

    def counted_pair_terms(system, margin):
        hessians, terms = pair_terms(system, margin)
        return hessians, lambda X: calls.append(len(X)) or terms(X)

    monkeypatch.setattr(barriers, "_pair_terms", counted_pair_terms)
    scene = (planar_group_scene(agents, temperature=temperature) if agents > 2
             else two_agent_line_scene())
    states = np.random.default_rng(1).normal(size=(7, scene.system.state_dim))
    scene.assemble(states)
    scene.assemble(states[0])
    assert calls == [7, 1]


# -- the ellipse's one evaluation and the degree-2 leak check ----------------------


def test_ellipse_equals_its_closed_form_per_entry():
    a1, a2 = 9.22, 1.76
    barrier = make_ellipse_barrier(a1, a2)
    inv1, inv2 = 1.0 / a1 ** 2, 1.0 / a2 ** 2
    hessian = [[2.0 * inv1, 0.0, 0.0, 0.0], [0.0, 2.0 * inv2, 0.0, 0.0],
               [0.0] * 4, [0.0] * 4]
    states = np.random.default_rng(3).normal(size=(3000, 4), scale=6.0)
    # Python's r ** 2 (C pow) rounds differently from r * r on some of these.
    assert any(r * r != r ** 2 for r in states[:, :2].ravel().tolist())
    values, grads, hessians = barrier.jet(states, second=True)
    assert not hessians.flags.writeable
    for x, v, g, h in zip(states, values, grads, hessians):
        r = x.tolist()
        closed = (r[0] ** 2 * inv1 + r[1] ** 2 * inv2 - 1.0,
                  [2.0 * r[0] * inv1, 2.0 * r[1] * inv2, 0.0, 0.0])
        assert v == closed[0] and g.tolist() == closed[1] and h.tolist() == hessian
    for x in states[:20]:
        r = x.tolist()
        assert barrier.value(x) == r[0] ** 2 * inv1 + r[1] ** 2 * inv2 - 1.0
        assert barrier.grad(x).tolist() == [2.0 * r[0] * inv1, 2.0 * r[1] * inv2, 0.0, 0.0]
        assert barrier.hess(x).tolist() == hessian
    assert validate_barrier(barrier, states[:5], require_hess=True) is barrier
    for width in (2, 6):
        with pytest.raises(ValueError, match=r"relative states \(B, 4\), got \(1, %d\)" % width):
            barrier.hess(np.zeros(width))


def _leaky_barrier(index, weight):
    """b = (p1x - p2x)^2 + weight * v^2 / 2 over the velocity entry ``index`` of
    two planar double integrators: that velocity lets its agent's control into b'."""
    def jet(X, second):
        g = np.zeros_like(X)
        g[:, 0] = 2.0 * (X[:, 0] - X[:, 4])
        g[:, 4] = -g[:, 0]
        g[:, index] = weight * X[:, index]
        h = np.zeros(X.shape + X.shape[-1:])
        h[:, [0, 4], [0, 4]] = 2.0
        h[:, [0, 4], [4, 0]] = -2.0
        h[:, index, index] = weight
        return (X[:, 0] - X[:, 4]) ** 2 + 0.5 * weight * X[:, index] ** 2, g, h

    return Barrier(jet, name="leaky")


@pytest.mark.parametrize("index,agent", [(2, 0), (7, 1)])
def test_degree2_leak_is_rejected_naming_the_agent(index, agent):
    system = make_double_integrator_2d(2)
    chain = (1.0, 1.0)
    barrier = _leaky_barrier(index, 1.0)
    states = np.random.default_rng(0).normal(size=(5, 8))
    states[:, index] = 0.0
    rows = assemble_constraint(system, barrier, chain, states)   # no row leaks
    assert np.all(np.isfinite(rows.a))
    states[3, index] = 0.5                                       # one row leaks
    match = f"leaky: control enters the first derivative through agent {agent}"
    for x in (states, states[3]):
        with pytest.raises(ValueError, match=match):
            assemble_constraint(system, barrier, chain, x)
    # A leak below 1e-8 of the gradient's scale passes the scaled test.
    tiny = _leaky_barrier(index, 1e-10)
    assert np.any(tiny.grad(states) @ system.G != 0.0)
    rows = assemble_constraint(system, tiny, chain, states)
    assert np.all(np.isfinite(rows.a)) and np.all(np.isfinite(rows.offset))


@pytest.mark.parametrize("scene", [weaving_scene(), planar_group_scene(3),
                                   planar_group_scene(3, temperature=None)],
                         ids=["ellipse", "planar_softmin", "planar_hard_min"])
def test_position_barriers_pass_the_leak_check_with_exact_zeros(scene):
    states = np.random.default_rng(1).normal(size=(30, scene.system.state_dim), scale=3.0)
    grads = scene.barrier.grad(states)
    assert not (grads @ scene.system.G).any()
    rows = scene.assemble(states)
    assert rows.a.shape == (30, scene.system.control_dim_total)
