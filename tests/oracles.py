"""Independent reference computations for the test suite.

These deliberately avoid the package's solver and differentiation code
paths: the QP oracle is a dense grid search with the slack eliminated in
closed form, and the derivative oracles are central finite differences.
The symmetric-model reference runs the package's plain dense MLP on
explicitly gathered inputs: the construction the incidence-matrix first
layer replaced. The weaving-rollout reference is the per-step loop that the
array rollout replaced, and the file-writer references format one sample
object at a time, as the writers did before samples became one set of
arrays. The exact filter root and Jacobians evaluate the closed form in
rational arithmetic, so they show rounding and nothing else. The per-row
filter solve and pullback is the loop that the training step's blocks of
rows replaced.
"""

import itertools
import json
from dataclasses import replace
from fractions import Fraction

import numpy as np

from respalloc.data import (InteractionSample, WeavingConfig, _weaving_initial_state,
                            desired_controls_weaving, resolve_gamma_truth,
                            speed_advantage_gamma, weaving_scene)
from respalloc import filter_qp
from respalloc.filter_qp import solve_filter


def grid_objective(u1, u2, a, c, u_des, gamma, beta1, beta2):
    """Projection objective with the slack eliminated: eps(u) = max(0, -(a.u+c))."""
    eps = np.maximum(0.0, -(a[0] * u1 + a[1] * u2 + c))
    return (gamma[0] * (u1 - u_des[0]) ** 2 + gamma[1] * (u2 - u_des[1]) ** 2
            + beta1 * (u1 ** 2 + u2 ** 2) + beta2 * eps ** 2)


def grid_solve_two_agent(a, c, u_des, gamma, beta1, beta2, lb=-10.0, ub=10.0,
                         coarse=0.01, fine=1e-3, window=0.1):
    """Dense grid search over (u1, u2) refined to the fine resolution.

    Coarse pass over the full box, then a fine pass on a window around the
    coarse argmin (re-centered if the fine argmin lands on the window edge).
    Returns (u1, u2, eps) at the best grid point.
    """
    a = np.asarray(a, dtype=float)
    u_des = np.asarray(u_des, dtype=float)
    gamma = np.asarray(gamma, dtype=float)

    def argmin_on(grid1, grid2):
        v1, v2 = np.meshgrid(grid1, grid2, indexing="ij")
        obj = grid_objective(v1, v2, a, c, u_des, gamma, beta1, beta2)
        k = np.unravel_index(np.argmin(obj), obj.shape)
        return grid1[k[0]], grid2[k[1]], k

    n_coarse = int(round((ub - lb) / coarse)) + 1
    g = np.linspace(lb, ub, n_coarse)
    c1, c2, _ = argmin_on(g, g)

    for _ in range(8):
        f1 = np.arange(max(lb, c1 - window), min(ub, c1 + window) + fine / 2, fine)
        f2 = np.arange(max(lb, c2 - window), min(ub, c2 + window) + fine / 2, fine)
        u1, u2, k = argmin_on(f1, f2)
        on_edge = (k[0] in (0, len(f1) - 1) and not np.isclose(u1, lb) and
                   not np.isclose(u1, ub)) or \
                  (k[1] in (0, len(f2) - 1) and not np.isclose(u2, lb) and
                   not np.isclose(u2, ub))
        if not on_edge:
            break
        c1, c2 = u1, u2
    eps = max(0.0, -(a[0] * u1 + a[1] * u2 + c))
    return float(u1), float(u2), float(eps)


def assert_rel_close(actual, expected, rtol=1e-12):
    """Max abs gap within rtol times max(1, max |expected|), shapes equal."""
    actual, expected = np.asarray(actual, dtype=float), np.asarray(expected, dtype=float)
    assert actual.shape == expected.shape
    scale = max(1.0, float(np.max(np.abs(expected))))
    assert float(np.max(np.abs(actual - expected))) <= rtol * scale


def fd_grad(f, x, step=1e-6):
    x = np.asarray(x, dtype=float)
    g = np.zeros_like(x)
    for j in range(x.size):
        e = np.zeros_like(x)
        e[j] = step
        g[j] = (f(x + e) - f(x - e)) / (2 * step)
    return g


def fd_jacobian(f, x, step=1e-5):
    x = np.asarray(x, dtype=float)
    f0 = np.asarray(f(x), dtype=float)
    jac = np.zeros((f0.size, x.size))
    for j in range(x.size):
        e = np.zeros_like(x)
        e[j] = step
        jac[:, j] = (np.asarray(f(x + e)) - np.asarray(f(x - e))) / (2 * step)
    return jac


def softmin_pair_reference(x, n_agents, margin, temperature):
    """Softmin over planar pairs b_ij = ||p_i - p_j||^2 - margin^2, pair by pair.

    ``x`` stacks [px, py, vx, vy] per agent. Returns (value, gradient, Hessian)
    from the closed forms summed over pairs in a Python loop.
    """
    x = np.asarray(x, dtype=float)
    t, n = temperature, x.size
    vals, grads, hessians = [], [], []
    for i in range(n_agents):
        for j in range(i + 1, n_agents):
            d = x[4 * i:4 * i + 2] - x[4 * j:4 * j + 2]
            g = np.zeros(n)
            g[4 * i:4 * i + 2], g[4 * j:4 * j + 2] = 2.0 * d, -2.0 * d
            h = np.zeros((n, n))
            for a, b, sign in ((i, i, 1), (j, j, 1), (i, j, -1), (j, i, -1)):
                h[4 * a:4 * a + 2, 4 * b:4 * b + 2] = 2.0 * sign * np.eye(2)
            vals.append(float(d @ d) - margin ** 2)
            grads.append(g)
            hessians.append(h)
    z = -t * np.array(vals)
    w = np.exp(z - z.max())
    w /= w.sum()
    value = -(z.max() + np.log(np.sum(np.exp(z - z.max())))) / t
    gbar = sum(wk * gk for wk, gk in zip(w, grads))
    hess = t * np.outer(gbar, gbar)
    for wk, gk, hk in zip(w, grads, hessians):
        hess += wk * hk - t * wk * np.outer(gk, gk)
    return value, gbar, hess


def permutation_index_table(n, d):
    """Flat gather indices, shape (n, (n-1)!, n*d), of the symmetric model's orderings.

    Entry [i, s] reorders the context so agents 1<->i are swapped and the
    remaining blocks take their s-th permutation (slot one fixed).
    """
    tails = list(itertools.permutations(range(1, n)))
    table = np.empty((n, len(tails), n * d), dtype=np.intp)
    base = np.arange(n * d).reshape(n, d)
    for i in range(n):
        swapped = base.copy()
        swapped[[0, i]] = swapped[[i, 0]]
        for s, tail in enumerate(tails):
            order = (0,) + tail
            table[i, s] = swapped[list(order)].ravel()
    return table


def symmetric_gamma_reference(model, contexts, dgamma):
    """``SymmetricGammaN`` by gathering every ordering's input: (gamma, VJP).

    Copies each context into its N! reordered rows and runs them through the
    model's network as a plain dense MLP, so the incidence-matrix first layer
    is checked against the construction it replaces.
    """
    x = np.atleast_2d(np.asarray(contexts, dtype=float))
    table = permutation_index_table(model.n_agents, model.agent_dim)
    b = x.shape[0]
    n, s, dim = table.shape
    gathered = x[:, table.reshape(-1)].reshape(b * n * s, dim)
    vals, tape = model.net.forward_tape(gathered)
    logits = vals.reshape(b, n, s).sum(axis=2)
    z = np.exp(logits - logits.max(axis=1, keepdims=True))
    gamma = z / z.sum(axis=1, keepdims=True)
    dg = np.atleast_2d(np.asarray(dgamma, dtype=float))
    dlogits = gamma * (dg - np.sum(gamma * dg, axis=1, keepdims=True))
    seeds = np.repeat(dlogits.reshape(b * n), s)[:, None]
    return gamma, model.net.vjp_params(tape, seeds)


def synthetic_draws_reference(config, n_controls):
    """(X, U_des, noise) of ``generate_synthetic``, drawn the way it first did.

    Sample k calls ``Generator.uniform`` on the state box, then on the
    desired-control box, then draws ``n_controls`` standard normals: the
    draw order any faster generator must reproduce.
    """
    rng = np.random.default_rng(config.seed)
    draws = [(rng.uniform(config.state_low, config.state_high),
              rng.uniform(config.udes_low, config.udes_high),
              rng.standard_normal(n_controls))
             for _ in range(config.n_samples)]
    return tuple(np.array(column) for column in zip(*draws))


def weaving_rollout_reference(kind, count, seed=0, gamma_truth=None, scene=None,
                              config=None):
    """``generate_weaving_trajectories`` as a per-step loop over sample objects.

    Each step calls ``solve_filter`` on every trajectory's safety row, builds
    one ``InteractionSample`` per trajectory with a copy of its state, and
    the samples are regrouped by trajectory at the end.
    """
    scene = scene or weaving_scene()
    cfg = config or WeavingConfig()
    gamma_truth = gamma_truth if gamma_truth is not None else speed_advantage_gamma()
    rng = np.random.default_rng(seed)
    std = float(np.sqrt(cfg.noise_variance))
    lower, upper = cfg.lane_centers
    policy = replace(cfg.policy, lat_targets=(upper, lower))
    sub_kinds = ("side_by_side", "rear_overtake")
    X = np.empty((count, 8))
    noise = np.zeros((count, cfg.steps, 4))
    for traj in range(count):
        k_traj = kind if kind != "mixed" else sub_kinds[traj % len(sub_kinds)]
        X[traj] = _weaving_initial_state(k_traj, rng, cfg)
        if std > 0:
            noise[traj] = std * rng.standard_normal((cfg.steps, 4))
    per_traj = [[] for _ in range(count)]
    for step in range(cfg.steps):
        R = scene.filter_state(X)
        U_des = desired_controls_weaving(X, policy)
        gammas = resolve_gamma_truth(gamma_truth, [step] * count, R)
        sol = solve_filter(scene.problem(scene.assemble(R), U_des, gammas))
        U = (sol.u + noise[:, step]).reshape(count, 2, 2)
        for traj, x in enumerate(X):
            per_traj[traj].append(InteractionSample(
                x=x.copy(), u=U[traj], u_des=U_des[traj],
                t=step * cfg.dt, trajectory_id=traj))
        cars = X.reshape(count, 2, 4)
        cars[:, :, :2] += cfg.dt * cars[:, :, 2:]
        cars[:, :, 2:] += cfg.dt * U
    return [s for samples in per_traj for s in samples]


def ndjson_reference(samples, scenario="custom", extra_header=None):
    """The text ``save_trajectories`` writes, one ``json.dumps`` per row object
    of the set ``samples``, with the header's dimensions from its arrays."""
    n_agents, control_dim = samples.u.shape[1:]
    header = {"version": 1, "n_agents": n_agents, "state_dim": samples.x.shape[1],
              "control_dim": control_dim, "scenario": scenario}
    header.update(extra_header or {})
    lines = [json.dumps(header)]
    for s in samples:
        rec = {"trajectory_id": int(s.trajectory_id), "t": float(s.t),
               "x": s.x.tolist(), "u": s.u.tolist()}
        if s.u_des is not None:
            rec["u_des"] = s.u_des.tolist()
        lines.append(json.dumps(rec))
    return "\n".join(lines) + "\n"


def csv_reference(samples, header_comment=None):
    """The text ``export_csv`` writes, one line built per row object of the set
    ``samples``, with the columns from its arrays' dimensions."""
    lines = ["# " + header_comment] if header_comment else []
    n, m = samples.u.shape[1:]
    lines.append(",".join(["trajectory_id", "t"]
                          + [f"x{j}" for j in range(samples.x.shape[1])]
                          + [f"u{i}_{j}" for i in range(n) for j in range(m)]
                          + [f"udes{i}_{j}" for i in range(n) for j in range(m)]))
    for s in samples:
        row = [str(int(s.trajectory_id)), repr(float(s.t))]
        row += map(repr, s.x.tolist())
        row += map(repr, s.u.ravel().tolist())
        row += map(repr, s.u_des.ravel().tolist()) if s.u_des is not None else [""] * (n * m)
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def exact_filter_root(problem, i):
    """Row i's multiplier lam, rounded once from exact rationals.

    phi(lam) = a . clip(v0 + lam t, lb, ub) + c + lam / (2 beta2), with
    v0_j = gamma_j u_des_j / h_j and t_j = a_j / (2 h_j), is linear between
    the breakpoints where a channel meets a bound. The root is 0 when
    phi(0) >= 0; otherwise it is interpolated on the first segment whose end
    has phi >= 0, past the last breakpoint with the slope of the channels
    free there.
    """
    a = [Fraction(x) for x in np.atleast_2d(problem.constraint.a)[i]]
    d = [Fraction(x) for x in np.atleast_2d(problem.u_des)[i]]
    g = [Fraction(x) for x in np.atleast_2d(problem.gamma_per_channel())[i]]
    c = Fraction(float(np.atleast_1d(problem.constraint.offset)[i]))
    lb, ub = problem.lb, problem.ub
    h = [gj + Fraction(problem.beta1) for gj in g]
    v0 = [g[j] * d[j] / h[j] for j in range(len(a))]
    t = [a[j] / (2 * h[j]) for j in range(len(a))]
    floor = 1 / (2 * Fraction(problem.beta2))

    def phi(lam):
        total = c + lam * floor
        for j in range(len(a)):
            v = v0[j] + lam * t[j]
            if np.isfinite(lb[j]):
                v = max(v, Fraction(lb[j]))
            if np.isfinite(ub[j]):
                v = min(v, Fraction(ub[j]))
            total += a[j] * v
        return total

    lo, phi_lo = Fraction(0), phi(Fraction(0))
    if phi_lo >= 0:
        return 0.0
    ends = sorted({(Fraction(bound) - v0[j]) / t[j] for j in range(len(a)) if t[j] != 0
                   for bound in (lb[j], ub[j]) if np.isfinite(bound)
                   and (Fraction(bound) - v0[j]) / t[j] > 0})
    for end in ends:
        phi_end = phi(end)
        if phi_end >= 0:
            return float(lo - phi_lo * (end - lo) / (phi_end - phi_lo))
        lo, phi_lo = end, phi_end
    return float(lo - phi_lo / (phi(lo + 1) - phi_lo))


def _exact_filter_sensitivities(problem, solution, i):
    """Row i's (du*/dgamma, du*/du_des) as nested lists of exact rationals.

    At the solution's u*, free channels and binding flag (all taken as
    exact): on the free channels own_j = (u_des_j - u_j) / h_j,
    t_j = a_j / (2 h_j) and shrink_j = gamma_j / h_j; while the row binds,
    d lam = -(a . du at fixed lam) / (1 / (2 beta2) + sum_j a_j t_j).
    """
    a = [Fraction(x) for x in np.atleast_2d(problem.constraint.a)[i]]
    d = [Fraction(x) for x in np.atleast_2d(problem.u_des)[i]]
    g = [Fraction(x) for x in np.atleast_2d(problem.gamma_per_channel())[i]]
    u = [Fraction(x) for x in np.atleast_2d(solution.u)[i]]
    free = np.atleast_2d(solution.free)[i]
    binds = np.atleast_2d(solution.duals)[i, 0] > 0.0
    owner = np.repeat(np.arange(len(problem.constraint.agent_dims)),
                      problem.constraint.agent_dims)
    m, n = len(a), len(problem.constraint.agent_dims)
    on = [1 / (g[j] + Fraction(problem.beta1)) if free[j] else Fraction(0) for j in range(m)]
    t = [a[j] * on[j] / 2 for j in range(m)]
    slope = 1 / (2 * Fraction(problem.beta2)) + sum(a[j] * t[j] for j in range(m))
    scale = -1 / slope if binds else Fraction(0)
    own = [(d[j] - u[j]) * on[j] for j in range(m)]
    shrink = [g[j] * on[j] for j in range(m)]
    dlam = [scale * sum(a[j] * own[j] for j in range(m) if owner[j] == k) for k in range(n)]
    du_dgamma = [[(own[j] if owner[j] == k else 0) + t[j] * dlam[k] for k in range(n)]
                 for j in range(m)]
    du_dudes = [[(shrink[j] if q == j else 0) + t[j] * scale * a[q] * shrink[q]
                 for q in range(m)] for j in range(m)]
    return du_dgamma, du_dudes


def exact_filter_jacobians(problem, solution, i):
    """Row i's (du*/dgamma, du*/du_des) from the closed form in exact rationals,
    each entry rounded to a float once, at the end."""
    return tuple(np.array([[float(x) for x in row] for row in jac])
                 for jac in _exact_filter_sensitivities(problem, solution, i))


def exact_filter_pullback(problem, solution, w, i):
    """Row i's pullback w . du*/dgamma (N,) for a cotangent w (m,), from the
    exact du*/dgamma and the exact value of each float w_j, rounded once."""
    du_dgamma = _exact_filter_sensitivities(problem, solution, i)[0]
    w = [Fraction(x) for x in np.asarray(w, dtype=float)]
    return np.array([float(sum(w[j] * du_dgamma[j][k] for j in range(len(w))))
                     for k in range(len(du_dgamma[0]))])


def per_row_solve_and_pullback(problem):
    """``filter_qp.solve_rows_and_pullback`` one row at a time: (u*, pullback).

    Each row of a checked batch problem runs through ``_solve_core`` as its
    own (1, m) view, and ``pullback(w)`` contracts each row's Jacobian with
    that row of w, through ``_sensitivities`` on a binding row and the
    slack row's ``(own w) @ onehot`` otherwise.
    """
    a, d, g, h = filter_qp._rows(problem)
    c = np.asarray(problem.constraint.offset, dtype=float).reshape(-1)
    b, m = a.shape
    lb, ub = problem.lb.reshape(1, m), problem.ub.reshape(1, m)
    beta2 = problem.beta2
    _, onehot, others = filter_qp._channel_agent(problem.constraint.agent_dims)
    u, free, binds = np.empty((b, m)), np.empty((b, m), dtype=bool), np.empty(b, dtype=bool)
    for i in range(b):
        r = slice(i, i + 1)
        ur, vr, lam, _, _ = filter_qp._solve_core(a[r], d[r], g[r], h[r], c[r], lb, ub, beta2)
        u[r], free[r], binds[r] = ur, ur == vr, lam > 0.0

    def pullback(w):
        dgamma = np.empty((b, onehot.shape[1]))
        for i in range(b):
            r, wr = slice(i, i + 1), w[i:i + 1]
            if binds[i]:
                _, own, t, total, keep = filter_qp._sensitivities(
                    a[r], d[r], h[r], u[r], free[r], beta2, others)
                wr = wr * keep - a[r] * ((wr * t) @ others) / total[:, None]
            else:               # d lam = 0
                own = (d[r] - u[r]) * (free[r] / h[r])
            dgamma[r] = (own * wr) @ onehot
        return dgamma

    return u, pullback
