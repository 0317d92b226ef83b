"""Independent reference computations for the test suite.

These deliberately avoid the package's solver and differentiation code
paths: the QP oracle is a dense grid search with the slack eliminated in
closed form, and the derivative oracles are central finite differences.
The symmetric-model reference runs the package's plain dense MLP on
explicitly gathered inputs: the construction the incidence-matrix first
layer replaced.
"""

import itertools

import numpy as np


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
