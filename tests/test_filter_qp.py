from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from respalloc.barriers import (CbfLinearConstraint, assemble_constraint,
                                make_pairwise_distance_barrier)
from respalloc.data import planar_group_scene, two_agent_line_scene, weaving_scene
from respalloc import filter_qp
from respalloc.dynamics import make_single_integrator_1d
from respalloc.filter_qp import (FilterError, FilterProblem,
                                 differentiate_filter, filtered_controls,
                                 kkt_residuals, solve_filter)

from oracles import (assert_rel_close, exact_filter_jacobians, exact_filter_pullback,
                     exact_filter_root, fd_jacobian, grid_solve_two_agent,
                     per_row_solve_and_pullback)


def two_agent_problem(x, u_des, gamma, beta1=0.0, beta2=600.0, bound=10.0):
    sys = make_single_integrator_1d(2)
    barrier = make_pairwise_distance_barrier(sys, 1.0)
    con = assemble_constraint(sys, barrier, (1.0,), np.asarray(x))
    return FilterProblem(constraint=con, u_des=np.asarray(u_des, dtype=float),
                         gamma=np.asarray(gamma, dtype=float), beta1=beta1,
                         beta2=beta2, lb=-bound, ub=bound)


def random_two_agent_problem(rng, beta1=None, beta2=None):
    """Positions straddle the separation boundary; moderate weights. Given
    weights replace the drawn ones (the draws are made either way)."""
    x1 = rng.uniform(-1.0, 1.0)
    x = np.array([x1, x1 + rng.uniform(0.6, 2.2) * rng.choice([-1.0, 1.0])])
    u_des = rng.uniform(-3.0, 3.0, size=2)
    g1 = rng.uniform(0.05, 0.95)
    drawn1, drawn2 = rng.uniform(0.0, 0.5), rng.uniform(1.0, 50.0)
    return two_agent_problem(x, u_des, [g1, 1.0 - g1],
                             beta1=drawn1 if beta1 is None else beta1,
                             beta2=drawn2 if beta2 is None else beta2)


def stack_problems(problems):
    """One batched problem from one-row problems sharing weights and box."""
    first = problems[0]
    rows = CbfLinearConstraint(np.stack([p.constraint.a for p in problems]),
                               np.array([p.constraint.offset for p in problems]),
                               first.constraint.agent_dims)
    return FilterProblem(rows, np.stack([p.u_des for p in problems]),
                         np.stack([p.gamma for p in problems]), first.beta1,
                         first.beta2, first.lb, first.ub)


def test_feasible_desired_control_passes_through():
    # Agents moving apart: the safety row is slack at the desired controls.
    problem = two_agent_problem([0.0, 1.5], [-1.0, 1.0], [0.5, 0.5])
    sol = solve_filter(problem)
    np.testing.assert_allclose(sol.u, [-1.0, 1.0], atol=1e-12)
    assert sol.eps == pytest.approx(0.0, abs=1e-12)
    assert sol.lam_cbf == pytest.approx(0.0, abs=1e-12)


def test_two_agent_scene_equal_split():
    # Frozen via the stationarity conditions solved by hand and confirmed by
    # grid search: lambda = 4.75 / (18 + 1/1200).
    problem = two_agent_problem([0.0, 1.5], [1.0, -1.0], [0.5, 0.5])
    sol = solve_filter(problem)
    lam = 4.75 / (18.0 + 1.0 / 1200.0)
    np.testing.assert_allclose(sol.u, [1.0 - 3 * lam, -1.0 + 3 * lam], atol=1e-9)
    assert sol.eps == pytest.approx(lam / 1200.0, abs=1e-12)
    assert sol.lam_cbf == pytest.approx(lam, abs=1e-9)
    res = kkt_residuals(problem, sol)
    assert max(res.values()) <= 1e-7


def test_kkt_residuals_rejects_a_batch_problem_naming_its_shape():
    problem = stack_problems([two_agent_problem([0.0, 1.5], [1.0, -1.0], [0.5, 0.5]),
                              two_agent_problem([0.0, 0.8], [0.0, 0.0], [0.3, 0.7])])
    with pytest.raises(FilterError, match=r"one row, a of shape \(m,\); got a of shape \(2, 2\)"):
        kkt_residuals(problem, solve_filter(problem))


def test_zero_weight_agent_absorbs_whole_deviation():
    # gamma = (0, 1) with a tiny ridge: agent 2 keeps (almost) its desired
    # control and agent 1 moves to the constraint. Frozen from the
    # closed-form stationarity solution (grid-confirmed to 1e-3).
    problem = two_agent_problem([0.0, 1.5], [1.0, -1.0], [0.0, 1.0], beta1=1e-3)
    sol = solve_filter(problem)
    assert sol.u[1] == pytest.approx(-1.0, abs=2e-3)
    assert sol.u[0] == pytest.approx(-0.581751, abs=1e-5)
    assert abs(sol.u[0] - 1.0) > 1.5          # full burden on agent 1
    u1g, u2g, _ = grid_solve_two_agent([-3.0, 3.0], 1.25, [1.0, -1.0],
                                       [0.0, 1.0], 1e-3, 600.0)
    assert sol.u[0] == pytest.approx(u1g, abs=2e-3)
    assert sol.u[1] == pytest.approx(u2g, abs=2e-3)


def test_deviation_split_monotone_in_gamma():
    devs = []
    for g1 in [0.0, 0.25, 0.5, 0.75, 1.0]:
        problem = two_agent_problem([0.0, 1.5], [1.0, -1.0], [g1, 1.0 - g1],
                                    beta1=0.05)
        sol = solve_filter(problem)
        devs.append((abs(sol.u[0] - 1.0), abs(sol.u[1] + 1.0)))
    d1 = [d[0] for d in devs]
    d2 = [d[1] for d in devs]
    assert all(a > b + 1e-9 for a, b in zip(d1, d1[1:]))
    assert all(a < b - 1e-9 for a, b in zip(d2, d2[1:]))
    # Endpoints: the unweighted agent takes (essentially) all the deviation.
    assert d1[0] > 10 * d2[0]
    assert d2[-1] > 10 * d1[-1]


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_solution_matches_grid_oracle(seed):
    rng = np.random.default_rng(seed)
    problem = random_two_agent_problem(rng)
    sol = solve_filter(problem)
    u1, u2, _ = grid_solve_two_agent(
        problem.constraint.a, problem.constraint.offset, problem.u_des,
        problem.gamma, problem.beta1, problem.beta2)
    assert sol.u[0] == pytest.approx(u1, abs=2e-3)
    assert sol.u[1] == pytest.approx(u2, abs=2e-3)
    assert max(kkt_residuals(problem, sol).values()) <= 1e-7


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_feasible_perturbations_do_not_improve(seed):
    rng = np.random.default_rng(seed)
    problem = random_two_agent_problem(rng)
    sol = solve_filter(problem)
    rows, rhs = problem.constraint_rows()
    z = np.concatenate([sol.u, [sol.eps]])
    better = 0
    for _ in range(200):
        dz = rng.normal(size=z.size, scale=10 ** rng.uniform(-4, 0))
        zp = z + dz
        if np.all(rows @ zp >= rhs - 1e-12):
            if problem.objective(zp[:-1], zp[-1]) < \
                    problem.objective(sol.u, sol.eps) - 1e-8:
                better += 1
    assert better == 0


def test_tight_box_binds_and_slack_absorbs():
    # Already-unsafe state: no box-feasible control satisfies the row, so the
    # slack must carry the violation.
    problem = two_agent_problem([0.0, 0.8], [1.0, -1.0], [0.5, 0.5],
                                beta2=5.0, bound=0.1)
    rows, rhs = problem.constraint_rows()
    best_row = problem.constraint.value([-0.1, 0.1])
    assert best_row < 0.0
    sol = solve_filter(problem)
    assert np.all(sol.u >= -0.1 - 1e-12) and np.all(sol.u <= 0.1 + 1e-12)
    assert sol.eps >= -best_row - 1e-9 > 0.01
    assert max(kkt_residuals(problem, sol).values()) <= 1e-7


def test_slack_vanishes_as_beta2_grows():
    eps_values = []
    for beta2 in [1.0, 100.0, 10000.0]:
        sol = solve_filter(two_agent_problem([0.0, 1.5], [1.0, -1.0],
                                             [0.5, 0.5], beta2=beta2))
        eps_values.append(sol.eps)
    assert eps_values[0] > eps_values[1] > eps_values[2]
    assert eps_values[2] < 1e-4


def test_problem_validation():
    con = CbfLinearConstraint(a=np.array([1.0, 1.0]), offset=0.0, agent_dims=(1, 1))
    with pytest.raises(FilterError, match="beta2"):
        FilterProblem(con, np.zeros(2), np.array([0.5, 0.5]), 0.0, 0.0, -1.0, 1.0)
    with pytest.raises(FilterError, match="unique"):
        FilterProblem(con, np.zeros(2), np.array([0.0, 1.0]), 0.0, 1.0, -1.0, 1.0)
    with pytest.raises(FilterError, match="lb > ub"):
        FilterProblem(con, np.zeros(2), np.array([0.5, 0.5]), 0.1, 1.0, 1.0, -1.0)
    problem = FilterProblem(con, np.zeros(2), np.array([0.3, 0.3]), 0.1, 1.0,
                            -1.0, 1.0)
    with pytest.raises(FilterError, match="sum"):
        problem.validate_allocation()
    rows = CbfLinearConstraint(a=np.ones((3, 2)), offset=np.zeros(3), agent_dims=(1, 1))
    gammas = np.full((3, 2), 0.5)
    with pytest.raises(FilterError, match="lb > ub"):
        FilterProblem(rows, np.zeros((3, 2)), gammas, 0.1, 1.0, [-1.0, 1.0], [1.0, -1.0])
    with pytest.raises(FilterError, match="u_des"):
        FilterProblem(rows, np.zeros(2), gammas, 0.1, 1.0, -1.0, 1.0)
    with pytest.raises(FilterError, match="gamma"):
        FilterProblem(rows, np.zeros((3, 2)), gammas[0], 0.1, 1.0, -1.0, 1.0)
    gammas[1] = [0.5, 0.6]
    with pytest.raises(FilterError, match=r"sum to 1 \(row 1\)"):
        FilterProblem(rows, np.zeros((3, 2)), gammas, 0.1, 1.0, -1.0, 1.0).validate_allocation()


@pytest.mark.parametrize("batch", [None, 3])
def test_agent_dims_and_bound_lengths_are_checked(batch):
    shape = () if batch is None else (batch,)
    offset = 0.0 if batch is None else np.zeros(batch)
    args = (np.zeros(shape + (4,)), 0.1, 1.0)
    for dims in ((1, 2), (2, 2, 0), (5, -1), ()):
        con = CbfLinearConstraint(np.ones(shape + (4,)), offset, dims)
        gamma = np.full(shape + (len(dims),), 1.0 / max(len(dims), 1))
        with pytest.raises(FilterError, match=rf"agent_dims \({', '.join(map(str, dims))}"):
            FilterProblem(con, args[0], gamma, *args[1:], -1.0, 1.0)
    con = CbfLinearConstraint(np.ones(shape + (4,)), offset, (2, 2))
    gamma = np.full(shape + (2,), 0.5)
    for lb, ub, name in ((np.full(3, -1.0), 1.0, "lb"), (-1.0, np.ones(5), "ub"),
                         (np.full((2, 4), -1.0), 1.0, "lb")):
        with pytest.raises(FilterError, match=rf"{name} must be a scalar or have shape \(4,\)"):
            FilterProblem(con, args[0], gamma, *args[1:], lb, ub)
    problem = FilterProblem(con, args[0], gamma, *args[1:], [-1.0], np.ones(4))
    assert problem.lb.shape == problem.ub.shape == (4,)


@pytest.mark.parametrize("field", ["a", "offset", "u_des", "gamma"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("batch", [None, 3])
def test_nonfinite_inputs_raise_naming_the_field(field, bad, batch):
    shape = () if batch is None else (batch,)
    values = {"a": np.ones(shape + (2,)), "offset": np.zeros(shape),
              "u_des": np.zeros(shape + (2,)), "gamma": np.full(shape + (2,), 0.5)}
    values[field].reshape(-1)[-1] = bad
    offset = float(values["offset"]) if batch is None else values["offset"]
    con = CbfLinearConstraint(a=values["a"], offset=offset, agent_dims=(1, 1))
    with pytest.raises(FilterError, match=f"{field} holds a NaN or infinite entry"):
        FilterProblem(con, values["u_des"], values["gamma"], 0.1, 1.0, -1.0, 1.0)


@pytest.mark.parametrize("batch", [None, 3])
def test_nan_bounds_raise_and_infinite_bounds_are_legal(batch):
    shape = () if batch is None else (batch,)
    con = CbfLinearConstraint(a=np.ones(shape + (2,)),
                              offset=0.0 if batch is None else np.zeros(batch),
                              agent_dims=(1, 1))
    args = (con, np.zeros(shape + (2,)), np.full(shape + (2,), 0.5), 0.1, 1.0)
    for lb, ub in (([np.nan, -1.0], 1.0), (-1.0, [1.0, np.nan])):
        with pytest.raises(FilterError, match="NaN"):
            FilterProblem(*args, lb, ub)
    sol = solve_filter(FilterProblem(*args, -np.inf, [np.inf, 2.0]))
    assert np.all(np.isfinite(sol.u)) and np.all(np.isfinite(sol.duals))
    for beta1, beta2 in ((np.nan, 1.0), (0.1, np.nan), (0.1, np.inf)):
        with pytest.raises(FilterError, match="beta"):
            FilterProblem(*args[:3], beta1, beta2, -1.0, 1.0)


# -- implicit differentiation -------------------------------------------------


def test_inactive_row_closed_form_derivative():
    # With the safety row slack, u_i = gamma u_des / (gamma + beta1), so
    # d u_i / d gamma_i = beta1 u_des / (gamma + beta1)^2 = 0.27778 here.
    problem = two_agent_problem([0.0, 5.0], [1.0, 1.0], [0.5, 0.5], beta1=0.1)
    sol = solve_filter(problem)
    assert sol.lam_cbf == 0.0
    jac = differentiate_filter(problem, sol)
    expected = 0.1 * 1.0 / (0.5 + 0.1) ** 2
    assert jac.du_dgamma[0, 0] == pytest.approx(expected, rel=1e-9)
    assert expected == pytest.approx(0.27778, abs=1e-4)
    assert jac.du_dgamma[0, 1] == pytest.approx(0.0, abs=1e-12)


def test_inactive_row_no_ridge_means_no_gradient():
    problem = two_agent_problem([0.0, 5.0], [1.0, 1.0], [0.5, 0.5], beta1=0.0)
    sol = solve_filter(problem)
    jac = differentiate_filter(problem, sol)
    np.testing.assert_allclose(jac.du_dgamma, 0.0, atol=1e-12)
    np.testing.assert_allclose(jac.deps_dgamma, 0.0, atol=1e-12)


def _fd_jacobians(problem):
    def u_of_gamma(g):
        p = FilterProblem(problem.constraint, problem.u_des, g, problem.beta1,
                          problem.beta2, problem.lb, problem.ub)
        return solve_filter(p).u

    def u_of_udes(d):
        p = FilterProblem(problem.constraint, d, problem.gamma, problem.beta1,
                          problem.beta2, problem.lb, problem.ub)
        return solve_filter(p).u

    return (fd_jacobian(u_of_gamma, problem.gamma, step=1e-5),
            fd_jacobian(u_of_udes, problem.u_des, step=1e-5))


def test_active_row_jacobian_matches_finite_differences():
    problem = two_agent_problem([0.0, 1.5], [1.0, -1.0], [0.5, 0.5], beta1=0.1)
    sol = solve_filter(problem)
    assert sol.lam_cbf > 1e-6
    jac = differentiate_filter(problem, sol)
    fd_g, fd_d = _fd_jacobians(problem)
    np.testing.assert_allclose(jac.du_dgamma, fd_g, rtol=1e-4, atol=1e-8)
    np.testing.assert_allclose(jac.du_dudes, fd_d, rtol=1e-4, atol=1e-8)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_jacobians_match_finite_differences_random(seed):
    rng = np.random.default_rng(seed)
    problem = random_two_agent_problem(rng)
    if problem.beta1 < 1e-3:
        problem.beta1 = 0.05       # keep the gamma map smooth for the FD probe
    sol = solve_filter(problem)
    # Skip near-degenerate instances where the active set flips inside the
    # FD stencil; derivative is one-sided there by design.
    if 0 < sol.lam_cbf < 1e-3 or (sol.eps > 0 and sol.eps < 1e-6):
        return
    slack = problem.constraint.value(sol.u) + sol.eps
    if sol.lam_cbf == 0.0 and slack < 1e-4:
        return
    jac = differentiate_filter(problem, sol)
    fd_g, fd_d = _fd_jacobians(problem)
    np.testing.assert_allclose(jac.du_dgamma, fd_g, rtol=1e-4, atol=1e-6)
    np.testing.assert_allclose(jac.du_dudes, fd_d, rtol=1e-4, atol=1e-6)


def test_eps_gamma_sensitivity_matches_finite_differences():
    problem = two_agent_problem([0.0, 1.2], [2.0, -2.0], [0.3, 0.7], beta2=50.0)
    sol = solve_filter(problem)
    assert sol.eps > 1e-4

    def eps_of_gamma(g):
        p = FilterProblem(problem.constraint, problem.u_des, g, problem.beta1,
                          problem.beta2, problem.lb, problem.ub)
        return np.array([solve_filter(p).eps])

    jac = differentiate_filter(problem, sol)
    fd = fd_jacobian(eps_of_gamma, problem.gamma, step=1e-5)[0]
    np.testing.assert_allclose(jac.deps_dgamma, fd, rtol=1e-4, atol=1e-8)


# -- batching ------------------------------------------------------------------


def test_singleton_batch_matches_single_solve():
    problem = two_agent_problem([0.0, 1.5], [1.0, -1.0], [0.5, 0.5])
    single = solve_filter(problem)
    batch = solve_filter(stack_problems([problem]))
    assert np.array_equal(batch.u[0], single.u)
    assert batch.eps[0] == single.eps


def test_batch_matches_elementwise_resolve():
    rng = np.random.default_rng(7)
    problems = [random_two_agent_problem(rng, beta1=0.2, beta2=20.0) for _ in range(128)]
    results = solve_filter(stack_problems(problems))
    for i, problem in enumerate(problems):
        again = solve_filter(problem)
        np.testing.assert_allclose(results.u[i], again.u, atol=1e-9)
        assert results.eps[i] == pytest.approx(again.eps, abs=1e-9)


def test_solver_is_deterministic():
    problem = two_agent_problem([0.2, 1.4], [1.7, -0.4], [0.4, 0.6], beta1=0.02)
    a = solve_filter(problem)
    b = solve_filter(problem)
    assert np.array_equal(a.u, b.u) and a.eps == b.eps


# -- whole arrays, symmetry and degenerate points -------------------------------

# Scene and the scale of its random filter states.
ARRAY_SCENES = {
    "line": (two_agent_line_scene(), 2.0),
    "planar6": (planar_group_scene(6), 1.2),
    "weaving": (weaving_scene(), 6.0),
}


def _random_rows(name, batch, rng):
    """Safety rows of a scene at random states, with random desired controls,
    allocations, weights and boxes (some bounds infinite, many clipping)."""
    scene, scale = ARRAY_SCENES[name]
    system = scene.system
    rows = scene.assemble(rng.normal(size=(batch, system.state_dim), scale=scale))
    m = system.control_dim_total
    lb = np.where(rng.random(m) < 0.25, -np.inf, -rng.uniform(0.05, 2.0, m))
    ub = np.where(rng.random(m) < 0.25, np.inf, rng.uniform(0.05, 2.0, m))
    gammas = rng.dirichlet(np.ones(system.n_agents), size=batch)
    return FilterProblem(rows, rng.uniform(-4.0, 4.0, (batch, m)), gammas,
                         beta1=float(rng.choice([0.0, 0.1])),
                         beta2=float(rng.uniform(1.0, 600.0)), lb=lb, ub=ub)


def _one_row(problem, i):
    row = CbfLinearConstraint(problem.constraint.a[i], float(problem.constraint.offset[i]),
                              problem.constraint.agent_dims)
    return FilterProblem(row, problem.u_des[i], problem.gamma[i], problem.beta1,
                         problem.beta2, problem.lb, problem.ub)


ROW_KINDS = ["random", "unbounded", "tied", "tiny box"]
ALL_KINDS = ROW_KINDS + ["phi0 zero", "at bound"]


def _rows_of_kind(name, batch, kind, seed):
    """``_random_rows`` shaped into one kind of row set.

    "random" clips channels and has +-inf bounds; "unbounded" rows have no
    positive breakpoint; "tied" gives two channels the same breakpoints;
    "tiny box" pushes most roots past one or more breakpoints;
    "phi0 zero" makes every other row exactly tight at lam = 0; "at bound"
    puts row 0's channel 0 exactly on its upper bound at lam = 0.
    """
    problem = _random_rows(name, batch, np.random.default_rng(seed))
    a, lb, ub = problem.constraint.a, problem.lb.copy(), problem.ub.copy()
    offset = problem.constraint.offset.copy()
    if kind == "unbounded":
        lb[:], ub[:] = -np.inf, np.inf
    elif kind == "tied":
        a[:, 1], problem.u_des[:, 1], lb[1], ub[1] = a[:, 0], problem.u_des[:, 0], lb[0], ub[0]
        problem.gamma[:, :2] = problem.gamma[:, :2].mean(axis=1, keepdims=True)
    elif kind == "tiny box":
        lb, ub = np.maximum(lb, -0.05), np.minimum(ub, 0.05)
    elif kind in ("phi0 zero", "at bound"):
        g = problem.gamma_per_channel()
        v = g * problem.u_des / (g + problem.beta1)
        if kind == "at bound":
            ub[0] = max(v[0, 0], lb[0])
        phi = (a * np.minimum(np.maximum(v, lb), ub)).sum(axis=1)
        offset[::2] = -phi[::2]
    return FilterProblem(CbfLinearConstraint(a, offset, problem.constraint.agent_dims),
                         problem.u_des, problem.gamma, problem.beta1, problem.beta2, lb, ub)


def _breakpoints_passed(problem, lam):
    """Each row's positive finite breakpoints <= lam (B,), counted from the problem data.

    Channel j meets a bound at lam = 2 (h_j bound_j - gamma_j u_des_j) / a_j.
    """
    g = problem.gamma_per_channel()
    h, a, d = g + problem.beta1, problem.constraint.a, problem.u_des
    with np.errstate(divide="ignore", invalid="ignore"):
        bp = np.stack([2.0 * (h * bound - g * d) / a for bound in (problem.lb, problem.ub)])
    return np.count_nonzero(np.isfinite(bp) & (bp > 0.0) & (bp <= lam[:, None]), axis=(0, 2))


def _with_every_kind_at_sizes_1_and_40(test):
    for name in sorted(ARRAY_SCENES):
        for kind in ROW_KINDS:
            for batch in (1, 40):
                test = example(name, batch, kind, batch)(test)
    return test


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(sorted(ARRAY_SCENES)), st.integers(1, 40),
       st.sampled_from(ROW_KINDS), st.integers(0, 2 ** 32 - 1))
@_with_every_kind_at_sizes_1_and_40
def test_batched_solve_equals_stacked_one_row_solves(name, batch, kind, seed):
    problem = _rows_of_kind(name, batch, kind, seed)
    sol = solve_filter(problem)
    jac = differentiate_filter(problem, sol)
    # The u*-only entry runs the same closed form: equal bit for bit.
    np.testing.assert_array_equal(filtered_controls(problem), sol.u)
    m, n_agents = problem.u_des.shape[1], problem.gamma.shape[1]
    assert sol.u.shape == (batch, m) and sol.duals.shape == (batch, 2 * m + 2)
    assert sol.eps.shape == sol.lam_cbf.shape == sol.n_pivots.shape == (batch,)
    assert jac.du_dgamma.shape == (batch, m, n_agents)
    assert jac.du_dudes.shape == (batch, m, m)
    np.testing.assert_array_equal(sol.n_pivots, _breakpoints_passed(problem, sol.lam_cbf))
    for i in range(batch):
        single = _one_row(problem, i)
        one = solve_filter(single)
        one_jac = differentiate_filter(single, one)
        np.testing.assert_array_equal(filtered_controls(single), one.u)
        assert isinstance(one.eps, float) and isinstance(one.lam_cbf, float)
        assert isinstance(one.n_pivots, int) and isinstance(one_jac.degenerate, bool)
        assert_rel_close(sol.u[i], one.u)
        assert_rel_close(sol.eps[i], one.eps)
        assert_rel_close(sol.duals[i], one.duals)
        assert sol.n_pivots[i] == one.n_pivots
        assert np.array_equal(sol.free[i], one.free)
        assert sol.degenerate[i] == one.degenerate == one_jac.degenerate
        assert_rel_close(jac.du_dgamma[i], one_jac.du_dgamma)
        assert_rel_close(jac.deps_dgamma[i], one_jac.deps_dgamma)
        assert_rel_close(jac.du_dudes[i], one_jac.du_dudes)
        assert max(kkt_residuals(single, one).values()) <= 1e-7


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(sorted(ARRAY_SCENES)), st.integers(0, 2 ** 32 - 1))
def test_permuting_agents_permutes_the_filter(name, seed):
    rng = np.random.default_rng(seed)
    problem = _random_rows(name, 8, rng)
    dims = problem.constraint.agent_dims
    perm = rng.permutation(len(dims))
    starts = np.cumsum((0,) + dims)
    channels = np.concatenate([np.arange(starts[k], starts[k + 1]) for k in perm])
    permuted = FilterProblem(
        CbfLinearConstraint(problem.constraint.a[:, channels], problem.constraint.offset,
                            tuple(dims[k] for k in perm)),
        problem.u_des[:, channels], problem.gamma[:, perm], problem.beta1,
        problem.beta2, problem.lb[channels], problem.ub[channels])
    sol, sol_p = solve_filter(problem), solve_filter(permuted)
    assert_rel_close(sol_p.u, sol.u[:, channels])
    assert_rel_close(sol_p.eps, sol.eps)
    jac, jac_p = differentiate_filter(problem, sol), differentiate_filter(permuted, sol_p)
    assert_rel_close(jac_p.du_dgamma, jac.du_dgamma[:, channels][:, :, perm])


def _exact_problem(u_des, gamma, a, c, beta1, beta2, lb, ub):
    return FilterProblem(CbfLinearConstraint(np.asarray(a, dtype=float), c, (1,) * len(a)),
                         np.asarray(u_des, dtype=float), np.asarray(gamma, dtype=float),
                         beta1, beta2, lb, ub)


def test_row_exactly_tight_at_zero_multiplier_takes_lam_zero():
    # phi(0) = a . u_des + c = 0 exactly: lam = 0 by convention, the row is
    # active with a zero multiplier, and the derivative is the slack-row one.
    problem = _exact_problem([1.0, -1.0], [0.5, 0.5], [1.0, 1.0], 0.0, 0.0, 10.0,
                             -5.0, 5.0)
    sol = solve_filter(problem)
    assert sol.lam_cbf == 0.0 and sol.eps == 0.0 and sol.n_pivots == 0
    np.testing.assert_array_equal(sol.u, [1.0, -1.0])
    jac = differentiate_filter(problem, sol)
    assert jac.degenerate
    np.testing.assert_array_equal(jac.du_dudes, np.eye(2))
    np.testing.assert_array_equal(jac.du_dgamma, 0.0)
    # Moving the row off zero either way ends the degeneracy.
    for c in (1e-3, -1e-3):
        assert not solve_filter(_exact_problem([1.0, -1.0], [0.5, 0.5], [1.0, 1.0], c,
                                               0.0, 10.0, -5.0, 5.0)).degenerate


def test_channel_exactly_at_its_bound_with_zero_multiplier_counts_as_free():
    # lam = 0: channel 0's shrunk desired control is exactly its upper bound.
    problem = _exact_problem([2.0, 0.0], [0.5, 0.5], [1.0, 1.0], 5.0, 0.5, 10.0,
                             -1.0, 1.0)
    sol = solve_filter(problem)
    assert sol.lam_cbf == 0.0 and sol.u[0] == 1.0
    assert sol.free[0] and sol.duals[1 + 2] == 0.0 and sol.degenerate
    jac = differentiate_filter(problem, sol)
    assert jac.degenerate and jac.du_dudes[0, 0] == 0.5       # one-sided: g / h
    # lam > 0: the root lands exactly on channel 0's breakpoint lam = 1/4
    # (h = 1, v = lam, phi(lam) = 8 lam - 2 below it).
    problem = _exact_problem([0.0, 0.0], [0.5, 0.5], [2.0, 2.0], -2.0, 0.5, 0.125,
                             -1.0, [0.25, np.inf])
    sol = solve_filter(problem)
    assert sol.lam_cbf == 0.25 and np.array_equal(sol.u, [0.25, 0.25])
    assert sol.free.all() and np.all(sol.duals[1:] == 0.0) and sol.degenerate
    jac = differentiate_filter(problem, sol)
    assert jac.degenerate and jac.du_dudes[0, 0] != 0.0
    assert max(kkt_residuals(problem, sol).values()) == 0.0
    # Inside the box the same channel is free and the point is regular.
    regular = _exact_problem([0.0, 0.0], [0.5, 0.5], [2.0, 2.0], -2.0, 0.5, 0.125,
                             -1.0, [0.5, np.inf])
    assert not solve_filter(regular).degenerate


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(sorted(ARRAY_SCENES)), st.integers(0, 2 ** 32 - 1))
@example("line", 111)       # row 3: both channels clipped at the root
def test_tied_breakpoints_match_nearly_tied_ones(name, seed):
    # Channel 1 copies channel 0 (same row entry, desired control, weight and
    # box), so both meet their bounds at the same lam; nudging channel 1's
    # bounds by 1e-10 separates the breakpoints and moves u* by about as
    # much. It shifts phi by at most |a_1| 1e-10, and phi rises with slope
    # at least 1 / (2 beta2), so lam moves by at most 2 beta2 |a_1| 1e-10:
    # about 1e-7 where every channel is clipped at the root. Both lams are
    # also held to the exact root.
    rng = np.random.default_rng(seed)
    problem = _random_rows(name, 16, rng)
    problem.gamma[:, 1] = problem.gamma[:, 0]
    problem.gamma /= problem.gamma.sum(axis=1, keepdims=True)
    owner = np.repeat(np.arange(len(problem.constraint.agent_dims)),
                      problem.constraint.agent_dims)
    j0, j1 = np.flatnonzero(owner == 0)[0], np.flatnonzero(owner == 1)[0]
    a = problem.constraint.a.copy()
    a[:, j1] = a[:, j0]
    lb, ub, u_des = problem.lb.copy(), problem.ub.copy(), problem.u_des.copy()
    lb[j1], ub[j1], u_des[:, j1] = lb[j0], ub[j0], u_des[:, j0]

    def solve(lb, ub):
        p = FilterProblem(CbfLinearConstraint(a, problem.constraint.offset,
                                              problem.constraint.agent_dims),
                          u_des, problem.gamma, problem.beta1, problem.beta2, lb, ub)
        return p, solve_filter(p)

    tied_problem, tied = solve(lb, ub)
    assert np.array_equal(tied.u[:, j0], tied.u[:, j1])
    nudged_lb, nudged_ub = lb.copy(), ub.copy()
    nudged_lb[j1] -= 1e-10
    nudged_ub[j1] += 1e-10
    nudged_problem, nudged = solve(nudged_lb, nudged_ub)
    scale = 1.0 + np.max(np.abs(tied.u))
    assert np.max(np.abs(nudged.u - tied.u)) <= 1e-8 * scale
    lam_tol = 1e-8 * (1.0 + np.max(tied.lam_cbf))
    shift = 2.0 * problem.beta2 * np.abs(a[:, j1]) * 1e-10
    assert np.all(np.abs(nudged.lam_cbf - tied.lam_cbf) <= shift + lam_tol)
    for p, sol in ((tied_problem, tied), (nudged_problem, nudged)):
        exact = [exact_filter_root(p, i) for i in range(16)]
        assert np.max(np.abs(sol.lam_cbf - exact)) <= lam_tol
    for i in range(16):
        assert max(kkt_residuals(_one_row(tied_problem, i),
                                 solve_filter(_one_row(tied_problem, i))).values()) <= 1e-7


def test_root_exactly_at_the_first_breakpoint_passes_no_breakpoint():
    # h = 1, v = lam: channel 0 meets its bound 1/4 where phi(lam) = 8 lam - 2
    # reaches 0, so the root ends the first segment and passes no breakpoint.
    problem = _exact_problem([0.0, 0.0], [0.5, 0.5], [2.0, 2.0], -2.0, 0.5, 0.125,
                             -1.0, [0.25, np.inf])
    sol = solve_filter(problem)
    assert sol.n_pivots == 0 and sol.lam_cbf == 0.25
    # A looser bound past the root, and one crossed before it.
    for bound, pivots in ((0.5, 0), (0.125, 1)):
        problem = _exact_problem([0.0, 0.0], [0.5, 0.5], [2.0, 2.0], -2.0, 0.5, 0.125,
                                 -1.0, [bound, np.inf])
        assert solve_filter(problem).n_pivots == pivots


def _bits(x):
    """Float entries as bit patterns: equal only if equal bit for bit, signed zeros too."""
    return np.ascontiguousarray(x, dtype=float).view(np.uint64)


def _certificate_equals_walk(problem):
    """``_solve_core`` against ``_root`` run alone on each tight row.

    The core runs on the whole batch and on each row alone, as (1, m) views.
    Asserts that both runs' lam, breakpoints passed, v and u equal the
    walk's bit for bit, and that lam of each row the one-step certificate
    settles equals the exact root. A row run alone shows whether the
    certificate settles it (no walk) or rejects it (one walk); the batch
    walks once, all its tight rows, when any is rejected. Returns the
    numbers of tight rows settled and rejected.
    """
    a, d, g, h = filter_qp._rows(problem)
    c, beta2, m = problem.constraint.offset, problem.beta2, a.shape[1]
    lb, ub = problem.lb.reshape(1, m), problem.ub.reshape(1, m)
    with mock.patch.object(filter_qp, "_root", wraps=filter_qp._root) as walk:
        batch = filter_qp._solve_core(a, d, g, h, c, lb, ub, beta2)
        batch_walks = [len(call.args[1]) for call in walk.call_args_list]
        alone, rejected = [], []
        for i in range(len(c)):
            walk.reset_mock()
            r = slice(i, i + 1)
            alone.append(filter_qp._solve_core(a[r], d[r], g[r], h[r], c[r], lb, ub, beta2))
            rejected.append(walk.call_count == 1)
    phi0 = batch[4]
    tight = phi0 < 0.0
    assert not np.any(rejected & ~tight)
    assert batch_walks == ([np.count_nonzero(tight)] if any(rejected) else [])
    v0, t = g * d / h, (0.5 * a) / h
    lam, passed, v = np.zeros(len(c)), np.zeros(len(c), dtype=int), v0.copy()
    for i in np.flatnonzero(tight):
        r = slice(i, i + 1)
        lam[r], passed[r] = filter_qp._root(a[r], c[r], phi0[r], v0[r], t[r], lb, ub, beta2)
        v[r] = v0[r] + lam[r, None] * t[r]
    for core in (batch, [np.concatenate(x) for x in zip(*alone)]):
        np.testing.assert_array_equal(_bits(core[2]), _bits(lam))
        np.testing.assert_array_equal(core[3], passed)
        np.testing.assert_array_equal(_bits(core[1]), _bits(v))
        np.testing.assert_array_equal(_bits(core[0]), _bits(np.minimum(np.maximum(v, lb), ub)))
    settled = np.flatnonzero(tight & ~np.array(rejected, dtype=bool))
    lam_tol = 1e-8 * (1.0 + np.max(lam))
    for i in settled:
        assert passed[i] == 0 and abs(lam[i] - exact_filter_root(problem, i)) <= lam_tol
    return len(settled), np.count_nonzero(rejected)


@pytest.mark.parametrize("name", sorted(ARRAY_SCENES))
def test_one_step_certificate_equals_the_walk_on_every_kind(name):
    counts = {}
    for kind in ALL_KINDS:
        for batch in (1, 40):
            settled, rejected = _certificate_equals_walk(_rows_of_kind(name, batch, kind, batch))
            counts[kind] = np.add(counts.get(kind, 0), (settled, rejected))
    # Both branches are reached: rows the step settles, and rows that walk.
    assert sum(counts.values()).min() > 0 and counts["tiny box"][1] > 0


@pytest.mark.parametrize("name", sorted(ARRAY_SCENES))
def test_one_step_certificate_where_the_root_lands_on_a_bound(name):
    # Each channel of a binding unbounded row in turn gets the bound it moves
    # towards at its value at the root, so the root lands exactly on that
    # breakpoint. The step then reaches the bound, so the row walks; keeping
    # the step would differ from the walk wherever the walk's phi at that
    # breakpoint rounds below 0 and it passes the breakpoint.
    walked = 0
    for seed in range(12):
        p = _rows_of_kind(name, 1, "unbounded", seed)
        sol = solve_filter(p)
        for j in np.flatnonzero(p.constraint.a[0] * (sol.lam_cbf[0] > 0.0)):
            lb, ub = p.lb.copy(), p.ub.copy()
            (ub if p.constraint.a[0, j] > 0.0 else lb)[j] = sol.u[0, j]
            walked += _certificate_equals_walk(FilterProblem(
                p.constraint, p.u_des, p.gamma, p.beta1, p.beta2, lb, ub))[1]
    assert walked > 0


def test_one_step_certificate_with_a_tight_row_channel_exactly_at_its_bound():
    # h = 1, t = a / 2, 1 / (2 beta2) = 2, and channel 0 starts exactly on
    # its lower bound -1. Row 0 pulls it further out (t_0 = -1): it stays
    # clipped, phi(lam) = 4 lam - 4, and the step settles lam = 1 with the
    # slope of channel 1 alone. Row 1 pulls it in (t_0 = 1): it frees at
    # once, phi(lam) = 6 lam - 6, and the row walks.
    problem = FilterProblem(
        CbfLinearConstraint(np.array([[-2.0, 2.0], [2.0, 2.0]]), np.array([-6.0, -4.0]),
                            (1, 1)),
        np.array([[-2.0, 0.0], [-2.0, 0.0]]), np.full((2, 2), 0.5), 0.5, 0.25,
        [-1.0, -1.0], [1.0, np.inf])
    assert _certificate_equals_walk(problem) == (1, 1)
    sol = solve_filter(problem)
    np.testing.assert_array_equal(sol.lam_cbf, [1.0, 1.0])
    np.testing.assert_array_equal(sol.u, [[-1.0, 1.0], [0.0, 1.0]])


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(sorted(ARRAY_SCENES)), st.integers(1, 40),
       st.sampled_from(ALL_KINDS), st.integers(0, 2 ** 32 - 1))
def test_one_step_certificate_equals_the_walk(name, batch, kind, seed):
    _certificate_equals_walk(_rows_of_kind(name, batch, kind, seed))


@pytest.mark.parametrize("name,batch,kind,seed", [
    ("planar6", 6, "random", 22143),
    ("planar6", 26, "random", 2 ** 32 - 1),
    ("weaving", 40, "tiny box", 5),
    ("line", 40, "unbounded", 9),
])
def test_jacobians_equal_the_exact_closed_form_where_one_channel_carries_the_row(
        name, batch, kind, seed):
    # In the first two batches a row has an agent with a small gamma whose
    # free channel carries most of the row. Its own term and its t d lam
    # term nearly cancel there (-12725.1 + 12723.7 in the first), and
    # forming their sum left relative errors of 1.5e-12 and 6e-13.
    problem = _rows_of_kind(name, batch, kind, seed)
    sol = solve_filter(problem)
    jac = differentiate_filter(problem, sol)
    for i in range(batch):
        du_dgamma, du_dudes = exact_filter_jacobians(problem, sol, i)
        assert_rel_close(jac.du_dgamma[i], du_dgamma, rtol=1e-14)
        assert_rel_close(jac.du_dudes[i], du_dudes, rtol=1e-14)


# -- the per-row core and the training pullback ---------------------------------


def _core_on_row(problem, i):
    """``_solve_core`` on row i's (1, m) views of a checked batch problem."""
    a, d, g, h = filter_qp._rows(problem)
    m, r = a.shape[1], slice(i, i + 1)
    return filter_qp._solve_core(a[r], d[r], g[r], h[r], problem.constraint.offset[r],
                                 problem.lb.reshape(1, m), problem.ub.reshape(1, m),
                                 problem.beta2)


def _assert_pullback_matches_jacobian(problem, rng):
    """Per-row u* equals ``solve_filter``'s; the pullback equals w @ du*/dgamma,
    contracted in exact rationals."""
    sol = solve_filter(problem)
    u, pullback = filter_qp.solve_rows_and_pullback(problem)
    np.testing.assert_array_equal(u, sol.u)
    w = rng.normal(size=u.shape)
    got = pullback(w)
    for i in range(len(u)):
        assert_rel_close(got[i], exact_filter_pullback(problem, sol, w[i], i))
    return sol


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(ARRAY_SCENES)), st.integers(1, 40),
       st.sampled_from(ALL_KINDS), st.integers(0, 2 ** 32 - 1))
@example("line", 37, "random", 5368)    # a pullback formed as w + (w . t) scale a cancels
def test_per_row_core_equals_solve_filter_and_pullback_equals_jacobian(name, batch, kind,
                                                                      seed):
    problem = _rows_of_kind(name, batch, kind, seed)
    sol = _assert_pullback_matches_jacobian(problem, np.random.default_rng(seed))
    for i in range(batch):
        u, v, lam, passed, phi0 = _core_on_row(problem, i)
        assert u.shape == v.shape == (1, problem.u_des.shape[1])
        np.testing.assert_array_equal(u[0], sol.u[i])
        np.testing.assert_array_equal(u[0] == v[0], sol.free[i])
        assert lam[0] == sol.lam_cbf[i] and passed[0] == sol.n_pivots[i]
        if kind == "phi0 zero" and i % 2 == 0:
            assert phi0[0] == 0.0 and lam[0] == 0.0 and sol.degenerate[i]


def test_pullback_on_slack_binding_and_degenerate_rows():
    # Exact rows: slack; binding inside the box; binding with a channel
    # clipped; phi(0) = 0; a channel exactly at its bound at lam = 0; the
    # root exactly on a breakpoint.
    cases = [([1.0, 1.0], [0.5, 0.5], [1.0, 1.0], 5.0, 0.1, 10.0, -5.0, 5.0),
             ([1.0, -1.0], [0.3, 0.7], [1.0, 1.0], -3.0, 0.1, 10.0, -5.0, 5.0),
             ([1.0, -1.0], [0.3, 0.7], [1.0, 1.0], -3.0, 0.1, 10.0, -5.0, [5.0, -0.5]),
             ([1.0, -1.0], [0.5, 0.5], [1.0, 1.0], 0.0, 0.0, 10.0, -5.0, 5.0),
             ([2.0, 0.0], [0.5, 0.5], [1.0, 1.0], 5.0, 0.5, 10.0, -1.0, 1.0),
             ([0.0, 0.0], [0.5, 0.5], [2.0, 2.0], -2.0, 0.5, 0.125, -1.0, [0.25, np.inf])]
    rng = np.random.default_rng(0)
    kinds = set()
    for case in cases:
        one = _exact_problem(*case)
        problem = FilterProblem(CbfLinearConstraint(one.constraint.a[None],
                                                    np.array([one.constraint.offset]),
                                                    one.constraint.agent_dims),
                                one.u_des[None], one.gamma[None], one.beta1, one.beta2,
                                one.lb, one.ub)
        sol = _assert_pullback_matches_jacobian(problem, rng)
        kinds.add(("binding" if sol.lam_cbf[0] > 0 else "slack", bool(sol.degenerate[0]),
                   bool(sol.free.all())))
    assert {("slack", False, True), ("binding", False, True), ("binding", False, False),
            ("slack", True, True), ("binding", True, True)} <= kinds
    # Rows with different weights and boxes sharing one batch problem.
    problem = stack_problems([random_two_agent_problem(rng) for _ in range(12)])
    _assert_pullback_matches_jacobian(problem, rng)


# -- the training filter in blocks of rows --------------------------------------


def _block_path_equals_per_row(problem, rng):
    """Block u* and pullback against the per-row reference, bit for bit.

    Returns, over the blocks, how many mix binding and slack rows and the
    row counts of the walks (``_root`` calls) the block solves ran.
    """
    b, k = len(problem.u_des), filter_qp.BLOCK_ROWS
    with mock.patch.object(filter_qp, "_solve_core", wraps=filter_qp._solve_core) as core, \
            mock.patch.object(filter_qp, "_root", wraps=filter_qp._root) as walk:
        u, pullback = filter_qp.solve_rows_and_pullback(problem)
    assert [len(call.args[0]) for call in core.call_args_list] == \
        [min(k, b - i) for i in range(0, b, k)]
    ref_u, ref_pullback = per_row_solve_and_pullback(problem)
    w = rng.normal(size=u.shape)
    np.testing.assert_array_equal(_bits(u), _bits(ref_u))
    np.testing.assert_array_equal(_bits(pullback(w)), _bits(ref_pullback(w)))
    binds = solve_filter(problem).lam_cbf > 0.0
    mixed = sum(0 < np.count_nonzero(binds[i:i + k]) < len(binds[i:i + k])
                for i in range(0, b, k))
    return mixed, [len(call.args[1]) for call in walk.call_args_list]


@pytest.mark.parametrize("name", sorted(ARRAY_SCENES))
def test_block_solve_and_pullback_equal_the_per_row_reference(name):
    rng = np.random.default_rng(11)
    mixed, walks = 0, {}
    for kind in ALL_KINDS:
        for batch in (1, 7, 8, 9, 40):
            block_mixed, block_walks = _block_path_equals_per_row(
                _rows_of_kind(name, batch, kind, batch), rng)
            mixed += block_mixed
            walks.setdefault(kind, []).extend(block_walks)
    # Blocks that mix binding and slack rows, and a "tiny box" block where one
    # rejected certificate walks the block's other tight rows too.
    assert mixed > 0 and max(walks["tiny box"]) > 1


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(sorted(ARRAY_SCENES)), st.integers(1, 40),
       st.sampled_from(ALL_KINDS), st.integers(0, 2 ** 32 - 1))
def test_block_solve_and_pullback_equal_the_per_row_reference_random(name, batch, kind,
                                                                     seed):
    _block_path_equals_per_row(_rows_of_kind(name, batch, kind, seed),
                               np.random.default_rng(seed))


def test_row_by_row_vector_matrix_products_do_not_depend_on_the_batch():
    # At m = 12 a (B, m) @ (m, n) product groups each row's sum differently
    # from a one-row call; filter_qp._vecmat must not.
    rng = np.random.default_rng(3)
    for m, n in ((2, 2), (4, 2), (12, 12), (12, 6)):
        matrix = (rng.random((m, n)) < 0.5).astype(float)
        x = rng.normal(size=(9, m)) * np.exp(5.0 * rng.normal(size=(9, m)))
        rows = np.concatenate([x[i:i + 1] @ matrix for i in range(len(x))])
        np.testing.assert_array_equal(_bits(filter_qp._vecmat(x, matrix)), _bits(rows))
