"""Responsibility-weighted safety-filter QP and its implicit differentiation.

The filter projects desired controls onto the (slack-softened) safe set:

    min_{u, eps}  sum_i ( gamma_i ||u_i - u_i_des||^2 + beta1 ||u_i||^2 )
                  + beta2 eps^2
    s.t.          a . u + c >= -eps        (linearized safety row)
                  lb <= u <= ub            (per-channel box)
                  eps >= 0

A smaller gamma_i makes deviating cheap for agent i, i.e. assigns it more of
the burden of satisfying the safety row. The slack keeps the program feasible
even when the barrier is not a certified invariant-set generator.

The Hessian is diagonal and there is one general row, so with
h_j = gamma_j + beta1 the optimum is u_j(lam) = clip((gamma_j u_des_j +
lam a_j / 2) / h_j, lb_j, ub_j), eps = lam / (2 beta2), where lam >= 0 is the
root of the nondecreasing piecewise-linear phi(lam) = a . u(lam) + c +
lam / (2 beta2), or 0 when phi(0) >= 0 (README: "The safety filter in closed
form"). ``FilterProblem``, ``solve_filter`` and ``differentiate_filter`` take
one row (``a`` (m,)) or a batch (``a`` (B, m)); ``kkt_residuals`` and the
problem's dense pieces are one-row references. ``solve_rows_and_pullback``,
the training step's entry, solves a batch one row at a time and pulls a
cotangent on u* back to gamma without forming the Jacobians.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .barriers import CbfLinearConstraint


class FilterError(RuntimeError):
    """Raised for inconsistent or non-finite filter problems."""


@lru_cache(maxsize=64)
def _channel_agent(dims):
    """Agent index of every stacked channel, and the (m, N) channel-to-agent map."""
    owner = np.repeat(np.arange(len(dims)), dims)
    owner.setflags(write=False)
    onehot = np.eye(len(dims))[owner]
    onehot.setflags(write=False)
    return owner, onehot


@dataclass
class FilterProblem:
    """One instance of the weighted projection program, or a batch of them.

    One row: ``constraint.a`` and ``u_des`` of shape (m,), ``gamma`` (N,),
    ``constraint.offset`` a float. A batch of B rows: ``a`` and ``u_des``
    (B, m), ``gamma`` (B, N), ``offset`` (B,). ``lb``/``ub`` are the stacked
    box bounds (m,), shared by every row; entries may be +-inf.
    """

    constraint: CbfLinearConstraint
    u_des: np.ndarray
    gamma: np.ndarray
    beta1: float
    beta2: float
    lb: np.ndarray
    ub: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.constraint.a, dtype=float)
        offset = np.asarray(self.constraint.offset, dtype=float)
        if a.ndim not in (1, 2):
            raise FilterError(f"safety row a must have shape (m,) or (B, m), got {a.shape}")
        m = a.shape[-1]
        self.u_des = np.asarray(self.u_des, dtype=float)
        self.gamma = np.asarray(self.gamma, dtype=float)
        self.lb = np.asarray(self.lb, dtype=float)
        self.ub = np.asarray(self.ub, dtype=float)
        if self.lb.shape != (m,) or self.ub.shape != (m,):
            self.lb = np.broadcast_to(self.lb, (m,))
            self.ub = np.broadcast_to(self.ub, (m,))
        if self.u_des.shape != a.shape:
            raise FilterError(f"u_des must have shape {a.shape}")
        if self.gamma.shape != a.shape[:-1] + (len(self.constraint.agent_dims),):
            raise FilterError("gamma length must equal the number of agents")
        if offset.shape != a.shape[:-1]:
            raise FilterError(f"offset must have shape {a.shape[:-1]}")
        if not 0.0 < self.beta2 < math.inf:
            raise FilterError("beta2 must be positive and finite")
        if not 0.0 <= self.beta1 < math.inf:
            raise FilterError("beta1 must be nonnegative and finite")
        # A product sum is finite unless an entry is NaN or inf (or it overflows).
        if not math.isfinite(np.vdot(a, self.u_des) + np.vdot(self.gamma, self.gamma)
                             + np.vdot(offset, offset)):
            for name, value in (("a", a), ("offset", offset), ("u_des", self.u_des),
                                ("gamma", self.gamma)):
                if not np.all(np.isfinite(value)):
                    raise FilterError(f"{name} holds a NaN or infinite entry")
        gmin = self.gamma.min()
        if gmin < -1e-12:
            raise FilterError("gamma entries must be nonnegative")
        if gmin + self.beta1 <= 0:
            raise FilterError("need gamma_i + beta1 > 0 for a unique solution")
        if not (self.lb <= self.ub).all():
            if np.any(np.isnan(self.lb)) or np.any(np.isnan(self.ub)):
                raise FilterError("box bounds lb/ub hold a NaN entry")
            raise FilterError("inconsistent box bounds (lb > ub)")

    def validate_allocation(self, tol=1e-9):
        """Check the modeling contract on every row's gamma (simplex membership)."""
        g = np.atleast_2d(self.gamma)
        for bad, what in ((np.abs(g.sum(axis=1) - 1.0) > tol, "must sum to 1"),
                          (np.any((g < -tol) | (g > 1 + tol), axis=1),
                           "entries must lie in [0, 1]")):
            if bad.any():
                where = "" if self.gamma.ndim == 1 else f" (row {int(np.argmax(bad))})"
                raise FilterError(f"gamma {what}{where}")

    def gamma_per_channel(self):
        return self.gamma[..., _channel_agent(self.constraint.agent_dims)[0]]

    # -- one-row reference pieces (KKT certificates, tests) --------------------

    def hessian_diag(self):
        """Diagonal of the QP Hessian over z = (u, eps)."""
        gpc = self.gamma_per_channel()
        return np.concatenate([2.0 * (gpc + self.beta1), [2.0 * self.beta2]])

    def linear_term(self):
        gpc = self.gamma_per_channel()
        return np.concatenate([-2.0 * gpc * self.u_des, [0.0]])

    def constraint_rows(self):
        """All inequalities of one row as G z >= h over z = (u, eps).

        Row order: [cbf, lb_0..lb_{m-1}, ub_0..ub_{m-1}, eps]. Rows whose
        bound is infinite are kept (they can never activate) so that row
        indices are stable across problems of the same shape.
        """
        m = self.u_des.size
        n = m + 1
        rows = np.zeros((2 * m + 2, n))
        rhs = np.zeros(2 * m + 2)
        rows[0, :m] = self.constraint.a
        rows[0, m] = 1.0
        rhs[0] = -self.constraint.offset
        for j in range(m):
            rows[1 + j, j] = 1.0
            rhs[1 + j] = self.lb[j]
            rows[1 + m + j, j] = -1.0
            rhs[1 + m + j] = -self.ub[j]
        rows[2 * m + 1, m] = 1.0
        rhs[2 * m + 1] = 0.0
        return rows, rhs

    def objective(self, u, eps=0.0):
        gpc = self.gamma_per_channel()
        u = np.asarray(u, dtype=float)
        return float(np.sum(gpc * (u - self.u_des) ** 2)
                     + self.beta1 * np.sum(u ** 2)
                     + self.beta2 * eps ** 2)

    def shrunk_desired(self):
        """Optimum with the safety row ignored: per-channel shrink + clip."""
        gpc = self.gamma_per_channel()
        return np.clip(gpc * self.u_des / (gpc + self.beta1), self.lb, self.ub)


@dataclass
class FilterSolution:
    """QP optimum with the dual information needed for differentiation.

    Shapes follow the problem: one row gives ``u`` (m,), a float ``eps``,
    ``duals`` (2m+2,) and an int ``n_pivots``; a batch adds a leading B axis.
    """

    u: np.ndarray
    eps: float
    duals: np.ndarray          # [row, lb x m, ub x m, eps] multipliers
    n_pivots: int              # breakpoints passed before the root
    free: np.ndarray           # channels whose box multipliers are zero
    degenerate: bool = False   # a constraint is active with a zero multiplier

    @property
    def lam_cbf(self):
        lam = self.duals[..., 0]
        return float(lam) if lam.ndim == 0 else lam


@dataclass
class FilterJacobians:
    """Sensitivities of the optimum; shapes (m, N), (N,), (m, m) per row.

    ``degenerate`` (the solution's flag) marks a constraint that is active
    with a zero multiplier; the derivatives there are one-sided.
    """

    du_dgamma: np.ndarray
    deps_dgamma: np.ndarray
    du_dudes: np.ndarray
    degenerate: bool = False


def kkt_residuals(problem: FilterProblem, solution: FilterSolution):
    """Max violations of stationarity / primal / dual / complementarity (one row)."""
    z = np.concatenate([solution.u, [solution.eps]])
    rows, rhs = problem.constraint_rows()
    lam = solution.duals
    finite = np.isfinite(rhs)
    stat = problem.hessian_diag() * z + problem.linear_term() - rows.T @ lam
    slack = rows @ z - rhs
    return {
        "stationarity": float(np.max(np.abs(stat))),
        "primal": float(max(0.0, -np.min(slack[finite]))),
        "dual": float(max(0.0, -np.min(lam))),
        "complementarity": float(np.max(np.abs(lam[finite] * slack[finite]))),
    }


def _rows(problem):
    """Batch views (B, m) of a, u_des, per-channel gamma and h = gamma + beta1."""
    a = np.asarray(problem.constraint.a, dtype=float)
    m = a.shape[-1]
    g = problem.gamma_per_channel().reshape(-1, m)
    return a.reshape(-1, m), problem.u_des.reshape(-1, m), g, g + problem.beta1


def _clip(v, lb, ub):
    # Two ufunc calls cost a fraction of np.clip's dispatch on one-row arrays.
    return np.minimum(np.maximum(v, lb), ub)


def _breakpoints(v0, t, lb, ub):
    """Every channel's two breakpoints (b, 2m), and which are unused (<= 0 or inf).

    Channel j moves as v0_j + lam t_j and meets a bound at the breakpoint
    lam = (bound_j - v0_j) / t_j = 2 (h_j bound_j - gamma_j u_des_j) / a_j.
    """
    gap = np.concatenate([lb, ub]) - v0[:, None]
    bp = np.divide(gap, t[:, None], out=np.zeros_like(gap),
                   where=t[:, None] != 0.0).reshape(len(v0), -1)
    return bp, (bp <= 0.0) | (bp == np.inf)


def _root(a, c, v0, t, lb, ub, beta2):
    """Root lam > 0 of phi for rows with phi(0) < 0, and breakpoints passed.

    phi is evaluated at 0 and at the sorted positive breakpoints; on the
    first segment where it turns nonnegative (or past the last breakpoint)
    it is linear with slope sum_free a t + 1 / (2 beta2) over the channels
    free inside the segment, so one Newton step from its left end is exact.
    """
    b = len(c)
    bp, unused = _breakpoints(v0, t, lb, ub)
    bp[unused] = 0.0
    bp.sort(axis=1)
    lams = np.concatenate([np.zeros((b, 1)), bp, 2.0 * bp[:, -1:] + 1.0], axis=1)
    u = _clip(v0[:, None] + lams[:, :-1, None] * t[:, None], lb, ub)
    phis = (a[:, None] * u).sum(axis=2) + (c[:, None] + lams[:, :-1] / (2.0 * beta2))
    # phi is nondecreasing, so the negatives come first.
    k = np.count_nonzero(phis < 0.0, axis=1)
    r = np.arange(b)
    lo, phi_lo = lams[r, k - 1], phis[r, k - 1]
    v = v0 + (0.5 * (lo + lams[r, k]))[:, None] * t
    slope = np.where((lb < v) & (v < ub), a * t, 0.0).sum(axis=1) + 0.5 / beta2
    return lo - phi_lo / slope, k - 1 - np.count_nonzero(unused, axis=1)


def _first_segment(a, c, phi0, v0, t, lb, ub, beta2):
    """``_root``'s lam for the rows whose root lies on their first segment.

    The first segment runs from 0 to the smallest positive breakpoint, or to
    ``_root``'s end point 1 when there is none. Where phi is nonnegative at
    that end, ``_root`` stops on this segment; this takes the same Newton
    step, written as ``_root`` writes it, without sorting. Returns lam (the
    other rows' entries are meaningless) and which rows it holds for.
    """
    bp, unused = _breakpoints(v0, t, lb, ub)
    bp[unused] = np.inf
    first = bp.min(axis=1)
    none = first == np.inf
    end = np.where(none, 1.0, first)
    u = _clip(v0 + end[:, None] * t, lb, ub)
    done = none | ((a * u).sum(axis=1) + (c + end / (2.0 * beta2)) >= 0.0)
    v = v0 + (0.5 * (0.0 + end))[:, None] * t
    slope = np.where((lb < v) & (v < ub), a * t, 0.0).sum(axis=1) + 0.5 / beta2
    return 0.0 - phi0 / slope, done


def _solve_core(a, d, g, h, c, lb, ub, beta2):
    """The closed-form optimum of checked rows: ``a``, ``d`` (u_des), ``g``, ``h`` (B, m).

    Returns u, the unclipped v = v0 + lam t, lam, the breakpoints passed and
    phi(0). Each row's result depends on that row alone, bit for bit.
    """
    v = g * d / h                   # unclipped optimum, v0 + lam t once lam is known
    t = (0.5 * a) / h
    u = _clip(v, lb, ub)
    phi0 = (a * u).sum(axis=1) + c
    tight = phi0 < 0.0
    lam = np.zeros(len(c))
    passed = np.zeros(len(c), dtype=int)
    if tight.any():
        # Rows slack at lam = 0 keep the shrunk desired control. A tight row
        # whose root lies past its first breakpoint takes the sorted search.
        i = slice(None) if tight.all() else np.flatnonzero(tight)
        lam[i], first = _first_segment(a[i], c[i], phi0[i], v[i], t[i], lb, ub, beta2)
        if not first.all():
            j = np.flatnonzero(tight)[~first]
            lam[j], passed[j] = _root(a[j], c[j], v[j], t[j], lb, ub, beta2)
        v[i] += lam[i, None] * t[i]
        u[i] = _clip(v[i], lb, ub)
    return u, v, lam, passed, phi0


def solve_filter(problem: FilterProblem) -> FilterSolution:
    """Solve the projection QP in closed form; deterministic for fixed inputs."""
    a, d, g, h = _rows(problem)
    c = np.asarray(problem.constraint.offset, dtype=float).reshape(-1)
    m = a.shape[1]
    lb, ub = problem.lb.reshape(1, m), problem.ub.reshape(1, m)
    u, v, lam, passed, phi0 = _solve_core(a, d, g, h, c, lb, ub, problem.beta2)
    # Box multipliers from stationarity: 2 h (u - v) = mu_lb - mu_ub.
    gap = (u - v) * (2.0 * h)
    duals = np.zeros((len(c), 2 * m + 2))
    duals[:, 0] = lam
    np.maximum(gap, 0.0, out=duals[:, 1:m + 1])
    np.maximum(-gap, 0.0, out=duals[:, m + 1:-1])
    eps = lam / (2.0 * problem.beta2)
    # Active with a zero multiplier: the row at lam = 0 with phi(0) = 0, or a
    # free channel (u = v) exactly at a bound.
    degenerate = (phi0 == 0.0) | ((v == lb) | (v == ub)).any(axis=1)
    free = u == v
    if problem.u_des.ndim == 1:
        return FilterSolution(u=u[0], eps=float(eps[0]), duals=duals[0],
                              n_pivots=int(passed[0]), free=free[0],
                              degenerate=bool(degenerate[0]))
    return FilterSolution(u=u, eps=eps, duals=duals, n_pivots=passed, free=free,
                          degenerate=degenerate)


def _rowsum(x):
    # The ufunc reduction that ``x.sum(axis=1)`` calls, without its wrapper.
    return np.add.reduce(x, axis=1)


def _sensitivities(a, d, h, u, free, binds, beta2):
    """The closed form's pieces of du*/dgamma over rows (B, m).

    ``own`` is d u_j / d gamma_j at fixed lam, ``t`` = d u / d lam (zero on
    clipped channels) and ``scale`` = binds / -phi'(lam), so that, while the
    row binds, d lam = scale * (a . du at fixed lam). Also returns free / h.
    """
    on = free / h
    own = (d - u) * on
    t = (0.5 * a) * on
    scale = binds / (-0.5 / beta2 - _rowsum(a * t))
    return on, own, t, scale


def differentiate_filter(problem: FilterProblem, solution: FilterSolution) -> FilterJacobians:
    """Jacobians of (u*, eps*) in gamma and u_des, from the closed form.

    On the free channels u_j = (gamma_j u_des_j + lam a_j / 2) / h_j, so each
    Jacobian is a diagonal term there plus t d lam with t = a / (2h) on the
    free channels; clipped channels do not move. d lam follows from
    phi(lam) = 0 while the row binds (lam > 0) and is zero otherwise.
    """
    a, d, g, h = _rows(problem)
    b, m = a.shape
    onehot = _channel_agent(problem.constraint.agent_dims)[1]
    on, own, t, scale = _sensitivities(
        a, d, h, solution.u.reshape(b, m), solution.free.reshape(b, m),
        solution.duals.reshape(b, -1)[:, 0] > 0.0, problem.beta2)
    shrink = g * on                                 # d u_j / d u_des_j at fixed lam
    dlam_dgamma = ((a * own) * scale[:, None]) @ onehot
    du_dgamma = own[:, :, None] * onehot + t[:, :, None] * dlam_dgamma[:, None, :]
    du_dudes = t[:, :, None] * ((a * shrink) * scale[:, None])[:, None, :]
    du_dudes.reshape(b, -1)[:, ::m + 1] += shrink
    deps_dgamma = dlam_dgamma / (2.0 * problem.beta2)
    if problem.u_des.ndim == 1:
        return FilterJacobians(du_dgamma=du_dgamma[0], deps_dgamma=deps_dgamma[0],
                               du_dudes=du_dudes[0], degenerate=solution.degenerate)
    return FilterJacobians(du_dgamma=du_dgamma, deps_dgamma=deps_dgamma,
                           du_dudes=du_dudes, degenerate=solution.degenerate)


def solve_rows_and_pullback(problem: FilterProblem):
    """Each row's optimum u* (B, m), solved one row at a time, and its pullback.

    The rows of a checked batch problem go through the closed-form core one
    at a time, as (1, m) views, and skip the duals and flags of
    ``solve_filter``; u* equals that function's bit for bit. ``pullback(w)``
    maps a cotangent w (B, m) on u* to w . du*/dgamma (B, N), again one row
    at a time: each row of ``differentiate_filter``'s Jacobian contracted
    with that row of w, without forming it:

        (own (w + (w . t) scale a)) @ onehot
    """
    a, d, g, h = _rows(problem)
    c = np.asarray(problem.constraint.offset, dtype=float).reshape(-1)
    b, m = a.shape
    lb, ub = problem.lb.reshape(1, m), problem.ub.reshape(1, m)
    beta2, onehot = problem.beta2, _channel_agent(problem.constraint.agent_dims)[1]
    u, free, binds = np.empty((b, m)), np.empty((b, m), dtype=bool), np.empty(b, dtype=bool)
    for i in range(b):
        r = slice(i, i + 1)
        ur, vr, lam, _, _ = _solve_core(a[r], d[r], g[r], h[r], c[r], lb, ub, beta2)
        u[r], free[r], binds[r] = ur, ur == vr, lam > 0.0

    def pullback(w):
        dgamma = np.empty((b, onehot.shape[1]))
        for i in range(b):
            r = slice(i, i + 1)
            wr, ar = w[r], a[r]
            _, own, t, scale = _sensitivities(ar, d[r], h[r], u[r], free[r], binds[r], beta2)
            scale *= _rowsum(wr * t)
            dgamma[r] = (own * (wr + scale[:, None] * ar)) @ onehot
        return dgamma

    return u, pullback
