from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from respalloc.barriers import CbfLinearConstraint, ClassKappaLinear, \
    assemble_constraint, make_pairwise_distance_barrier
from respalloc.data import planar_group_scene, two_agent_line_scene, weaving_scene
from respalloc import filter_qp
from respalloc.dynamics import make_single_integrator_1d
from respalloc.filter_qp import (FilterError, FilterProblem,
                                 differentiate_filter, kkt_residuals,
                                 solve_filter)

from oracles import assert_rel_close, fd_jacobian, grid_solve_two_agent


def two_agent_problem(x, u_des, gamma, beta1=0.0, beta2=600.0, bound=10.0):
    sys = make_single_integrator_1d(2)
    barrier = make_pairwise_distance_barrier(sys, 1.0)
    con = assemble_constraint(sys, barrier, (ClassKappaLinear(1.0),), np.asarray(x))
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


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(sorted(ARRAY_SCENES)), st.integers(1, 40),
       st.integers(0, 2 ** 32 - 1))
def test_batched_solve_equals_stacked_one_row_solves(name, batch, seed):
    problem = _random_rows(name, batch, np.random.default_rng(seed))
    sol = solve_filter(problem)
    jac = differentiate_filter(problem, sol)
    m, n_agents = problem.u_des.shape[1], problem.gamma.shape[1]
    assert sol.u.shape == (batch, m) and sol.duals.shape == (batch, 2 * m + 2)
    assert sol.eps.shape == sol.lam_cbf.shape == sol.n_pivots.shape == (batch,)
    assert jac.du_dgamma.shape == (batch, m, n_agents)
    assert jac.du_dudes.shape == (batch, m, m)
    for i in range(batch):
        single = _one_row(problem, i)
        one = solve_filter(single)
        one_jac = differentiate_filter(single, one)
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
def test_tied_breakpoints_match_nearly_tied_ones(name, seed):
    # Channel 1 copies channel 0 (same row entry, desired control, weight and
    # box), so both meet their bounds at the same lam; nudging channel 1's
    # bounds by 1e-10 separates the breakpoints and moves the optimum by
    # about as much.
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
    _, nudged = solve(nudged_lb, nudged_ub)
    scale = 1.0 + np.max(np.abs(tied.u))
    assert np.max(np.abs(nudged.u - tied.u)) <= 1e-8 * scale
    assert np.max(np.abs(nudged.lam_cbf - tied.lam_cbf)) <= 1e-8 * (1.0 + np.max(tied.lam_cbf))
    for i in range(16):
        assert max(kkt_residuals(_one_row(tied_problem, i),
                                 solve_filter(_one_row(tied_problem, i))).values()) <= 1e-7


def _solve_every_tight_row_by_root(problem):
    """``solve_filter`` with the first-segment exit taking no row."""
    def no_row(a, c, *rest):
        return np.zeros(len(c)), np.zeros(len(c), dtype=bool)

    with mock.patch.object(filter_qp, "_first_segment", no_row):
        return solve_filter(problem)


def _assert_same_solution(fast, ref):
    for name in ("u", "eps", "duals", "n_pivots", "free", "degenerate"):
        np.testing.assert_array_equal(getattr(fast, name), getattr(ref, name), err_msg=name)


ROW_KINDS = ["random", "unbounded", "tied", "tiny box"]


def _rows_of_kind(name, batch, kind, seed):
    """``_random_rows`` shaped into one kind of row set.

    "random" clips channels and has +-inf bounds; "unbounded" rows have no
    positive breakpoint; "tied" gives two channels the same breakpoints;
    "tiny box" pushes most roots past the first breakpoint into _root;
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


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(ARRAY_SCENES)), st.integers(1, 40),
       st.sampled_from(ROW_KINDS), st.integers(0, 2 ** 32 - 1))
def test_first_segment_exit_equals_root_on_every_tight_row(name, batch, kind, seed):
    problem = _rows_of_kind(name, batch, kind, seed)
    _assert_same_solution(solve_filter(problem), _solve_every_tight_row_by_root(problem))
    for i in range(min(batch, 3)):
        one = _one_row(problem, i)
        _assert_same_solution(solve_filter(one), _solve_every_tight_row_by_root(one))


def test_root_exactly_at_the_first_breakpoint_stays_on_the_first_segment():
    # h = 1, v = lam: channel 0 meets its bound 1/4 where phi(lam) = 8 lam - 2
    # reaches 0, so the exit takes the row and passes no breakpoint.
    problem = _exact_problem([0.0, 0.0], [0.5, 0.5], [2.0, 2.0], -2.0, 0.5, 0.125,
                             -1.0, [0.25, np.inf])
    v = np.zeros((1, 2))
    t = np.ones((1, 2))
    lam, first = filter_qp._first_segment(np.array([[2.0, 2.0]]), np.array([-2.0]),
                                          np.array([-2.0]), v, t, problem.lb[None],
                                          problem.ub[None], 0.125)
    assert first.all() and lam[0] == 0.25
    sol = solve_filter(problem)
    assert sol.n_pivots == 0 and sol.lam_cbf == 0.25
    _assert_same_solution(sol, _solve_every_tight_row_by_root(problem))
    # A looser bound past the root, and one crossed before it.
    for bound, pivots in ((0.5, 0), (0.125, 1)):
        problem = _exact_problem([0.0, 0.0], [0.5, 0.5], [2.0, 2.0], -2.0, 0.5, 0.125,
                                 -1.0, [bound, np.inf])
        sol = solve_filter(problem)
        assert sol.n_pivots == pivots
        _assert_same_solution(sol, _solve_every_tight_row_by_root(problem))


# -- the per-row core and the training pullback ---------------------------------


def _core_on_row(problem, i):
    """``_solve_core`` on row i's (1, m) views of a checked batch problem."""
    a, d, g, h = filter_qp._rows(problem)
    m, r = a.shape[1], slice(i, i + 1)
    return filter_qp._solve_core(a[r], d[r], g[r], h[r], problem.constraint.offset[r],
                                 problem.lb.reshape(1, m), problem.ub.reshape(1, m),
                                 problem.beta2)


def _assert_pullback_matches_jacobian(problem, rng):
    """Per-row u* equals ``solve_filter``'s; the pullback equals w @ du*/dgamma."""
    sol = solve_filter(problem)
    u, pullback = filter_qp.solve_rows_and_pullback(problem)
    np.testing.assert_array_equal(u, sol.u)
    w = rng.normal(size=u.shape)
    expected = np.einsum("bm,bmn->bn", w, differentiate_filter(problem, sol).du_dgamma)
    got = pullback(w)
    for i in range(len(u)):
        assert_rel_close(got[i], expected[i])
    return sol


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(ARRAY_SCENES)), st.integers(1, 40),
       st.sampled_from(ROW_KINDS + ["phi0 zero", "at bound"]), st.integers(0, 2 ** 32 - 1))
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
