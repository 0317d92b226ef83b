"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every tolerance is pinned in the assertions below.
"""

import time

import numpy as np
import pytest

from respalloc.barriers import assemble_constraint, make_pairwise_distance_barrier
from respalloc.data import (WeavingConfig, augment, default_planar_group_config,
                            default_two_agent_config, generate_synthetic,
                            generate_weaving_trajectories, planar_group_scene,
                            speed_advantage_gamma, two_agent_line_scene,
                            weaving_scene)
from respalloc.dynamics import make_single_integrator_1d
from respalloc.filter_qp import (FilterProblem, differentiate_filter,
                                 kkt_residuals, solve_filter)
from respalloc.models import (ConstantGamma, MlpGamma, RelativeSymmetricGamma,
                              SymmetricGammaN)
from respalloc.training import (TrainConfig, batch_loss, batch_loss_and_grad,
                                fit, fit_windows, prepare_batch, time_loss_and_grad)

from oracles import fd_jacobian, grid_solve_two_agent


def _report(name):
    print(f"PASS: {name}")


# -- 1. constant-allocation recovery, two agents --------------------------------


def test_two_agent_constant_recovery():
    t0 = time.perf_counter()
    scene = two_agent_line_scene()
    cfg = default_two_agent_config(n_samples=128, noise_variance=0.1, seed=0)
    samples = generate_synthetic(cfg, scene, np.array([0.3, 0.7]))
    model = ConstantGamma(2)
    tc = TrainConfig(epochs=150, batch_size=8, learning_rate=0.005,
                     optimizer="sgd", seed=1)
    fit(samples, model, scene, tc)
    err = abs(model.gamma()[0] - 0.3)
    elapsed = time.perf_counter() - t0
    assert err <= 0.05, f"recovered gamma off by {err:.4f}"
    assert elapsed < 60.0
    _report(f"two-agent recovery: |gamma_hat - 0.3| = {err:.4f} <= 0.05 "
            f"({elapsed:.1f}s)")


# -- 2. constant-allocation recovery, six planar agents --------------------------


def test_six_agent_constant_recovery():
    t0 = time.perf_counter()
    scene = planar_group_scene(6)
    truth = np.random.default_rng(42).dirichlet(np.ones(6))
    cfg = default_planar_group_config(6, n_samples=128, noise_variance=0.1,
                                      seed=0)
    samples = generate_synthetic(cfg, scene, truth)
    model = ConstantGamma(6)
    tc = TrainConfig(epochs=150, batch_size=8, learning_rate=0.05,
                     optimizer="sgd", seed=1)
    fit(samples, model, scene, tc)
    err = float(np.max(np.abs(model.gamma() - truth)))
    elapsed = time.perf_counter() - t0
    assert err <= 0.05, f"max per-agent error {err:.4f}"
    assert elapsed < 300.0
    _report(f"six-agent recovery: max per-agent error = {err:.4f} <= 0.05 "
            f"({elapsed:.1f}s)")


# -- 3. time-varying schedule tracked by windowed refits -------------------------


def test_time_varying_schedule_tracking():
    scene = two_agent_line_scene()
    cfg = default_two_agent_config(n_samples=192, noise_variance=0.1, seed=4)
    levels = [0.2, 0.5, 0.8]

    def schedule(k, x):
        g1 = levels[min(k // 64, 2)]
        return np.array([g1, 1.0 - g1])

    samples = generate_synthetic(cfg, scene, schedule)
    tc = TrainConfig(epochs=100, batch_size=8, learning_rate=0.005,
                     optimizer="sgd", seed=0)
    estimates = fit_windows(samples, scene, tc, n_windows=3)
    errs = [abs(estimates[w][0] - levels[w]) for w in range(3)]
    assert max(errs) <= 0.1, f"window errors {errs}"
    _report(f"time-varying tracking: window errors {np.round(errs, 3).tolist()} "
            "all <= 0.1")


# -- 4. solver equivalence with a dense grid oracle ------------------------------


def _random_instance(rng):
    sys = make_single_integrator_1d(2)
    barrier = make_pairwise_distance_barrier(sys, 1.0)
    x1 = rng.uniform(-1.0, 1.0)
    x = np.array([x1, x1 + rng.uniform(0.6, 2.2) * rng.choice([-1.0, 1.0])])
    con = assemble_constraint(sys, barrier, (1.0,), x)
    g1 = rng.uniform(0.05, 0.95)
    return FilterProblem(
        constraint=con, u_des=rng.uniform(-3.0, 3.0, size=2),
        gamma=np.array([g1, 1.0 - g1]), beta1=rng.uniform(0.0, 0.5),
        beta2=rng.uniform(1.0, 50.0), lb=-10.0, ub=10.0)


def test_qp_matches_grid_oracle_with_kkt_certificates():
    rng = np.random.default_rng(2024)
    worst_coord, worst_kkt = 0.0, 0.0
    for _ in range(200):
        problem = _random_instance(rng)
        sol = solve_filter(problem)
        u1, u2, _ = grid_solve_two_agent(
            problem.constraint.a, problem.constraint.offset, problem.u_des,
            problem.gamma, problem.beta1, problem.beta2)
        worst_coord = max(worst_coord, abs(sol.u[0] - u1), abs(sol.u[1] - u2))
        worst_kkt = max(worst_kkt, max(kkt_residuals(problem, sol).values()))
    assert worst_coord <= 2e-3, f"worst coordinate gap {worst_coord:.2e}"
    assert worst_kkt <= 1e-7, f"worst KKT residual {worst_kkt:.2e}"
    _report(f"grid-oracle equivalence on 200 instances: max coordinate gap "
            f"{worst_coord:.2e} <= 2e-3, max KKT residual {worst_kkt:.2e} <= 1e-7")


# -- 5. deviation split monotone in the allocation -------------------------------


def test_deviation_monotone_in_allocation():
    sys = make_single_integrator_1d(2)
    barrier = make_pairwise_distance_barrier(sys, 1.0)
    con = assemble_constraint(sys, barrier, (1.0,), np.array([0.0, 1.5]))
    beta1 = 0.05
    grid = [0.0, 0.25, 0.5, 0.75, 1.0]
    dev1, dev2 = [], []
    for g1 in grid:
        problem = FilterProblem(con, np.array([1.0, -1.0]),
                                np.array([g1, 1.0 - g1]), beta1, 600.0,
                                -10.0, 10.0)
        sol = solve_filter(problem)
        assert sol.lam_cbf > 0, "safety row must be active for the sweep"
        dev1.append(abs(sol.u[0] - 1.0))
        dev2.append(abs(sol.u[1] + 1.0))
    assert all(a > b for a, b in zip(dev1, dev1[1:])), dev1
    assert all(a < b for a, b in zip(dev2, dev2[1:])), dev2
    # Endpoints: the fully weighted agent keeps its desired control up to the
    # ridge shrinkage; the unweighted one carries the rest of the burden.
    shrink_dev = 1.0 * beta1 / (1.0 + beta1)
    assert dev2[0] <= shrink_dev + 0.03 and dev1[0] > 1.4
    assert dev1[-1] <= shrink_dev + 0.03 and dev2[-1] > 1.4
    _report("deviation shift monotone in gamma; endpoints place the burden "
            f"on one agent (favored dev {dev2[0]:.3f} <= "
            f"{shrink_dev + 0.03:.3f})")


# -- 6. differentiation correctness ----------------------------------------------


def _strictly_complementary(problem, sol, margin=1e-3):
    # The eps >= 0 row is exempt: stationarity ties its multiplier to the
    # safety row's (eps = lam_cbf / (2 beta2)), so eps = 0 with a zero
    # multiplier is the generic inactive case, not a degenerate one.
    rows, rhs = problem.constraint_rows()
    z = np.concatenate([sol.u, [sol.eps]])
    slack = rows @ z - rhs
    for i in range(rows.shape[0] - 1):
        if not np.isfinite(rhs[i]):
            continue
        if sol.duals[i] < margin and slack[i] < margin:
            return False
    return True


def test_gradient_chain_and_qp_jacobians():
    rng = np.random.default_rng(77)

    # QP Jacobians: 100 instances with the safety row active, 100 inactive.
    checked = {True: 0, False: 0}
    while min(checked.values()) < 100:
        problem = _random_instance(rng)
        if problem.beta1 < 0.02:
            problem.beta1 = 0.1
        sol = solve_filter(problem)
        if not _strictly_complementary(problem, sol):
            continue
        active = sol.lam_cbf > 0
        if checked[active] >= 100:
            continue
        jac = differentiate_filter(problem, sol)

        def u_of_gamma(g, problem=problem):
            return solve_filter(FilterProblem(
                problem.constraint, problem.u_des, g, problem.beta1,
                problem.beta2, problem.lb, problem.ub)).u

        def u_of_udes(d, problem=problem):
            return solve_filter(FilterProblem(
                problem.constraint, d, problem.gamma, problem.beta1,
                problem.beta2, problem.lb, problem.ub)).u

        fd_g = fd_jacobian(u_of_gamma, problem.gamma, step=1e-5)
        fd_d = fd_jacobian(u_of_udes, problem.u_des, step=1e-5)
        scale_g = max(1e-8, float(np.max(np.abs(fd_g))))
        scale_d = max(1e-8, float(np.max(np.abs(fd_d))))
        assert np.max(np.abs(jac.du_dgamma - fd_g)) <= 1e-4 * scale_g
        assert np.max(np.abs(jac.du_dudes - fd_d)) <= 1e-4 * scale_d
        checked[active] += 1

    # Chained loss gradient: 20 small batches, half in each regime.
    scene = two_agent_line_scene()
    pool_cfg = default_two_agent_config(n_samples=256, noise_variance=0.1,
                                        seed=10)
    pool = generate_synthetic(pool_cfg, scene, np.array([0.4, 0.6]))
    prep_all = prepare_batch(pool, scene, 0)
    tc = TrainConfig(epochs=1, batch_size=4)

    def regime_indices(model):
        gamma = model.gamma()
        active_idx, inactive_idx = [], []
        for i in range(len(prep_all)):
            problem = FilterProblem(prep_all.constraints[i], prep_all.u_des[i],
                                    gamma, prep_all.beta1, prep_all.beta2,
                                    prep_all.lb, prep_all.ub)
            sol = solve_filter(problem)
            if not _strictly_complementary(problem, sol):
                continue
            (active_idx if sol.lam_cbf > 0 else inactive_idx).append(i)
        return active_idx, inactive_idx

    batches_checked = 0
    for trial in range(10):
        model = ConstantGamma(2, params=rng.normal(scale=0.4, size=2))
        active_idx, inactive_idx = regime_indices(model)
        for idx_pool in (active_idx, inactive_idx):
            idx = rng.choice(idx_pool, size=4, replace=False)
            prep = prep_all.subset(idx)
            _, grad = batch_loss_and_grad(prep, model, tc)
            step = 1e-6
            fd = np.zeros(2)
            for j in range(2):
                base = model.params.copy()
                model.params = base + step * np.eye(2)[j]
                up = batch_loss(prep, model, tc)
                model.params = base - step * np.eye(2)[j]
                down = batch_loss(prep, model, tc)
                model.params = base
                fd[j] = (up - down) / (2 * step)
            scale = max(1e-10, float(np.max(np.abs(fd))))
            assert np.max(np.abs(grad - fd)) <= 1e-3 * scale, \
                f"batch gradient {grad} vs fd {fd}"
            batches_checked += 1
    assert batches_checked == 20
    _report("differentiation: 200 QP Jacobians within rel 1e-4 of finite "
            "differences; chained loss gradient within rel 1e-3 on 20 batches")


# -- 7. symmetry suite -------------------------------------------------------------


def test_symmetry_properties_exact():
    rng = np.random.default_rng(5)
    d = 2
    for n in (2, 3, 4):
        model = SymmetricGammaN(n, d, rng=rng)
        x = rng.normal(size=(1000, n * d), scale=3.0)
        g = model.gamma_batch(x)
        assert np.max(np.abs(g.sum(axis=1) - 1.0)) <= 1e-12
        # Permutations fixing one agent leave that agent's share unchanged;
        # transpositions swap the two agents' shares.
        for i in range(n):
            others = [j for j in range(n) if j != i]
            order = list(range(n))
            shuffled = list(rng.permutation(others))
            for slot, j in zip(others, shuffled):
                order[slot] = int(j)
            xp = x.reshape(-1, n, d)[:, order, :].reshape(-1, n * d)
            assert np.max(np.abs(model.gamma_batch(xp)[:, i] - g[:, i])) <= 1e-12
        for i in range(n):
            for j in range(i + 1, n):
                order = list(range(n))
                order[i], order[j] = j, i
                xs = x.reshape(-1, n, d)[:, order, :].reshape(-1, n * d)
                gs = model.gamma_batch(xs)
                assert np.max(np.abs(gs[:, j] - g[:, i])) <= 1e-12
                assert np.max(np.abs(gs[:, i] - g[:, j])) <= 1e-12

    rel = RelativeSymmetricGamma(4, rng=rng)
    r = rng.normal(size=(1000, 4), scale=4.0)
    gap = rel.gamma_batch(r)[:, 0] + rel.gamma_batch(-r)[:, 0] - 1.0
    assert np.max(np.abs(gap)) <= 1e-12
    _report("symmetry: permutation properties exact (N=2,3,4) and "
            "gamma1(r) + gamma1(-r) = 1, all within 1e-12 on 1000 draws")


# -- 8 & 10. weaving corpus experiments --------------------------------------------


@pytest.fixture(scope="module")
def weaving_experiment():
    scene = weaving_scene()
    base = generate_weaving_trajectories(
        "rear_overtake", 4, seed=5,
        config=WeavingConfig(steps=150, noise_variance=0.05),
        gamma_truth=speed_advantage_gamma())[::2]
    mirrored = augment(base, "mirror_lateral")
    swapped_too = augment(mirrored, "swap_agents")
    tc = TrainConfig(epochs=60, batch_size=256, learning_rate=3e-3,
                     optimizer="adam", seed=0)

    symmetric = RelativeSymmetricGamma(4, rng=np.random.default_rng(1))
    fit(mirrored, symmetric, scene, tc)
    unconstrained_aug = MlpGamma(2, 4, rng=np.random.default_rng(2))
    fit(swapped_too, unconstrained_aug, scene, tc)
    unconstrained_plain = MlpGamma(2, 4, rng=np.random.default_rng(2))
    fit(mirrored, unconstrained_plain, scene, tc)

    states = np.array([scene.filter_state(s.x) for s in mirrored[::7]])
    probe = np.vstack([states, -states])
    return symmetric, unconstrained_aug, unconstrained_plain, probe


def test_symmetric_model_data_efficiency(weaving_experiment):
    symmetric, unconstrained_aug, unconstrained_plain, probe = weaving_experiment
    agree = np.abs(symmetric.gamma_batch(probe)[:, 0]
                   - unconstrained_aug.gamma_batch(probe)[:, 0])
    assert agree.mean() <= 0.1, f"mean landscape gap {agree.mean():.3f}"
    viol = np.abs(unconstrained_plain.gamma_batch(probe)[:, 0]
                  + unconstrained_plain.gamma_batch(-probe)[:, 0] - 1.0)
    assert viol.max() > 0.1, f"max swap-identity violation {viol.max():.3f}"
    _report(f"data efficiency: symmetric (no swap aug) vs unconstrained "
            f"(with swap aug) mean |dgamma| = {agree.mean():.3f} <= 0.1; "
            f"unconstrained without it violates the swap identity by "
            f"{viol.max():.3f} > 0.1")


def test_yield_direction_recovered(weaving_experiment):
    symmetric, _, _, _ = weaving_experiment
    # At equal longitudinal position the faster car should carry the larger
    # allocation (deviate less), i.e. gamma of the faster agent > 1/2.
    worst = 1.0
    for vr in (1.0, 2.0, 3.0):
        for r_lat in (3.7, 1.8, -1.8, -3.7):
            g = symmetric.gamma(np.array([0.0, r_lat, vr, 0.0]))
            worst = min(worst, g[1])        # agent 2 is the faster one
    assert worst > 0.5, f"faster agent's allocation dipped to {worst:.3f}"
    _report(f"yield direction: faster car's allocation > 0.5 at equal "
            f"longitudinal position (min {worst:.3f})")


# -- 9. batch scaling ---------------------------------------------------------------


def test_batch_scaling_linear():
    scene = two_agent_line_scene()
    cfg = default_two_agent_config(n_samples=512, noise_variance=0.1, seed=0)
    samples = generate_synthetic(cfg, scene, np.array([0.4, 0.6]))
    prep = prepare_batch(samples, scene, 0)
    model = ConstantGamma(2)
    tc = TrainConfig(epochs=1, batch_size=8)
    _, slope = time_loss_and_grad(prep, model, tc, [8, 16, 32, 64, 128, 256, 512], repeats=5)
    assert 0.8 <= slope <= 1.2, f"fitted exponent {slope:.3f}"
    _report(f"batch scaling: loss+gradient runtime exponent {slope:.3f} "
            "in [0.8, 1.2] over batch sizes 8..512")
