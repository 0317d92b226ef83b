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
form"). A tight row takes one Newton step from lam = 0 and keeps it when no
channel changes side of its box on the way; otherwise it walks its
breakpoints. ``FilterProblem``, ``solve_filter``, ``filtered_controls`` (its
u* alone, the generators' entry) and ``differentiate_filter`` take one row
(``a`` (m,)) or a batch (``a`` (B, m)); ``kkt_residuals`` and the problem's
dense pieces are one-row references. The checks are two functions:
``check_rows`` for everything but gamma and ``check_gamma``. ``FilterRows``
holds a batch's rows, checked once, for solves at many allocations.
``solve_rows_and_pullback``, the training step's entry, takes such rows and
a gamma, checks only the gamma, solves in blocks of ``BLOCK_ROWS`` = 8 rows
and pulls a cotangent on u* back to gamma, block by block, without forming
the Jacobians. Larger blocks are faster, but they bring the scaling tests'
fitted exponent of step time in batch size, from B = 8, closer to its lower
bound, where a step's fixed cost weighs most. With the rows checked once
per fit instead of once per step, 8-row blocks read the exponents that
4-row blocks read with the per-step check (README, "Allocation models and
their gradients").
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .barriers import CbfLinearConstraint


# Rows per ``_solve_core`` call and per pullback block in ``solve_rows_and_pullback``
# (see the module docstring for why 8).
BLOCK_ROWS = 8


class FilterError(RuntimeError):
    """Raised for inconsistent or non-finite filter problems."""


@lru_cache(maxsize=64)
def _channel_agent(dims):
    """Agent index of every stacked channel, the (m, N) channel-to-agent map and
    the (m, m) ``others``, ones off the diagonal: x @ others sums x over l != j."""
    owner = np.repeat(np.arange(len(dims)), dims)
    onehot, others = np.eye(len(dims))[owner], 1.0 - np.eye(len(owner))
    for array in (owner, onehot, others):
        array.setflags(write=False)
    return owner, onehot, others


def check_rows(a, offset, u_des, lb, ub, beta1, beta2, agent_dims):
    """Check everything of a problem but its allocation; a FilterError names the field.

    ``a`` and ``u_des`` are (m,) for one row or (B, m) for a batch, ``offset``
    a float or (B,), ``lb``/``ub`` scalars or (m,). Returns a, offset, u_des,
    lb and ub as float arrays, the bounds broadcast to (m,).
    """
    a = np.asarray(a, dtype=float)
    offset = np.asarray(offset, dtype=float)
    if a.ndim not in (1, 2):
        raise FilterError(f"safety row a must have shape (m,) or (B, m), got {a.shape}")
    if a.ndim == 2 and not len(a):
        raise FilterError("empty batch: a batch problem needs at least one row")
    m = a.shape[-1]
    if sum(agent_dims) != m or min(agent_dims, default=0) < 1:
        raise FilterError(f"agent_dims {agent_dims} must be positive and sum to m = {m}")
    u_des = np.asarray(u_des, dtype=float)
    lb, ub = np.asarray(lb, dtype=float), np.asarray(ub, dtype=float)
    if lb.shape != (m,) or ub.shape != (m,):
        for name, bound in (("lb", lb), ("ub", ub)):
            if bound.shape not in ((), (1,), (m,)):
                raise FilterError(f"{name} must be a scalar or have shape ({m},), "
                                  f"got {bound.shape}")
        lb, ub = np.broadcast_to(lb, (m,)), np.broadcast_to(ub, (m,))
    if u_des.shape != a.shape:
        raise FilterError(f"u_des must have shape {a.shape}")
    if offset.shape != a.shape[:-1]:
        raise FilterError(f"offset must have shape {a.shape[:-1]}")
    if not 0.0 < beta2 < math.inf:
        raise FilterError("beta2 must be positive and finite")
    if not 0.0 <= beta1 < math.inf:
        raise FilterError("beta1 must be nonnegative and finite")
    # A product sum is finite unless an entry is NaN or inf (or it overflows).
    if not math.isfinite(np.vdot(a, u_des) + np.vdot(offset, offset)):
        for name, value in (("a", a), ("offset", offset), ("u_des", u_des)):
            if not np.all(np.isfinite(value)):
                raise FilterError(f"{name} holds a NaN or infinite entry")
    if not (lb <= ub).all():
        if np.any(np.isnan(lb)) or np.any(np.isnan(ub)):
            raise FilterError("box bounds lb/ub hold a NaN entry")
        raise FilterError("inconsistent box bounds (lb > ub)")
    return a, offset, u_des, lb, ub


def check_gamma(gamma, shape, beta1):
    """Check an allocation of ``shape`` for rows that ``check_rows`` passed with
    ``beta1``; returns it as a float array. A FilterError names the field."""
    gamma = np.asarray(gamma, dtype=float)
    if gamma.shape != shape:
        raise FilterError("gamma length must equal the number of agents")
    if not math.isfinite(np.vdot(gamma, gamma)) and not np.all(np.isfinite(gamma)):
        raise FilterError("gamma holds a NaN or infinite entry")
    gmin = gamma.min()
    if gmin < -1e-12:
        raise FilterError("gamma entries must be nonnegative")
    if gmin + beta1 <= 0:
        raise FilterError("need gamma_i + beta1 > 0 for a unique solution")
    return gamma


def _read_only(x):
    x.setflags(write=False)
    return x


class FilterRows:
    """A batch of checked safety rows, to be solved at many allocations.

    ``a`` and ``u_des`` are (B, m), ``offset`` (B,) and ``lb``/``ub`` (m,),
    shared by every row, as in a batch ``FilterProblem`` without its gamma.
    Construction runs ``check_rows`` once and keeps read-only float copies in
    the layout ``solve_rows_and_pullback`` reads, so a solve checks only its
    gamma. ``subset`` takes rows of checked rows and does not check them
    again. Attributes cannot be rebound and the arrays cannot be written, so
    no row reaches the solver unchecked.
    """

    _ROW_FIELDS = ("a", "offset", "u_des")      # indexed by ``subset``

    def __init__(self, constraints, u_des, beta1, beta2, lb, ub):
        dims = tuple(constraints.agent_dims)
        a, offset, u_des, lb, ub = check_rows(constraints.a, constraints.offset, u_des,
                                              lb, ub, beta1, beta2, dims)
        if a.ndim != 2:
            raise FilterError(f"rows need a of shape (B, m), got {a.shape}")
        m = a.shape[1]
        a, offset, u_des, lb, ub = (_read_only(np.array(x)) for x in (a, offset, u_des, lb, ub))
        vars(self).update(a=a, offset=offset, u_des=u_des, lb=lb, ub=ub, beta1=float(beta1),
                          beta2=float(beta2), agent_dims=dims,
                          # What each solve reads: the bounds as (1, m) rows and
                          # the channel-to-agent maps.
                          _core=(lb.reshape(1, m), ub.reshape(1, m)) + _channel_agent(dims))

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is read-only; its rows were checked once")

    def __len__(self):
        return len(self.a)

    @property
    def constraints(self):
        """The rows as one ``CbfLinearConstraint``; indexing it gives one row."""
        return CbfLinearConstraint(self.a, self.offset, self.agent_dims)

    def subset(self, idx):
        """The rows at ``idx``, an index array or a slice (a view), unchecked:
        rows of checked rows are checked."""
        rows = object.__new__(type(self))
        fields = vars(rows)
        fields.update(vars(self))
        gathered = not isinstance(idx, slice)
        for name in self._ROW_FIELDS:
            value = fields[name][idx]
            fields[name] = _read_only(value) if gathered else value
        if not len(rows):
            raise FilterError("empty batch: a batch problem needs at least one row")
        return rows


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
        con = self.constraint
        a, _, self.u_des, self.lb, self.ub = check_rows(
            con.a, con.offset, self.u_des, self.lb, self.ub, self.beta1, self.beta2,
            con.agent_dims)
        self.gamma = check_gamma(self.gamma, a.shape[:-1] + (len(con.agent_dims),),
                                 self.beta1)

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
        return self.gamma.take(_channel_agent(self.constraint.agent_dims)[0], axis=-1)

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
    if np.ndim(problem.constraint.a) != 1:
        raise FilterError(f"kkt_residuals takes one row, a of shape (m,); "
                          f"got a of shape {np.shape(problem.constraint.a)}")
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


def _rowsum(x):
    # The ufunc reduction that ``x.sum(axis=1)`` calls, without its wrapper.
    return np.add.reduce(x, axis=1)


def _vecmat(x, matrix):
    # x @ matrix for x (B, m) as one vector-matrix product per row, the kernel
    # of a one-row call: a (B, m) @ (m, n) product can sum each row in another
    # order (OpenBLAS does at m = 12).
    return np.matmul(x[:, None], matrix)[:, 0]


def _root(a, c, phi0, v0, t, lb, ub, beta2):
    """Root lam > 0 of phi for rows with phi(0) < 0, and the breakpoints passed.

    ``_solve_core`` runs this walk only when its one-step certificate fails
    on a tight row, and the walk starts from lam = 0 whatever that step found.

    Channel j moves as v0_j + lam t_j and meets a bound at the breakpoint
    lam = (bound_j - v0_j) / t_j = 2 (h_j bound_j - gamma_j u_des_j) / a_j;
    those <= 0 or infinite are unused. Each pass moves every unfinished row
    from lo (first 0) to its next breakpoint, or to 2 lo + 1 past its last.
    A row whose phi is nonnegative there has its root on [lo, end], where
    phi is linear with slope sum_free a t + 1 / (2 beta2) over the channels
    free inside the segment, so one Newton step from lo is exact. The other
    rows pass every breakpoint up to the end (tied ones count once each) and
    go on.
    """
    gap = np.concatenate([lb, ub]) - v0[:, None]
    bp = np.divide(gap, t[:, None], out=np.zeros_like(gap),
                   where=t[:, None] != 0.0).reshape(len(c), -1)
    bp[bp <= 0.0] = np.inf              # unused; those at inf already are
    rows = np.arange(len(c))
    lam, passed = np.empty(len(c)), np.zeros(len(c), dtype=int)
    lo, phi_lo = 0.0, phi0
    while True:
        end = bp.min(axis=1)
        last = end == np.inf
        end = np.where(last, 2.0 * lo + 1.0, end)
        u = _clip(v0 + end[:, None] * t, lb, ub)
        phi = (a * u).sum(axis=1) + (c + end / (2.0 * beta2))
        v = v0 + (0.5 * (lo + end))[:, None] * t
        slope = np.where((lb < v) & (v < ub), a * t, 0.0).sum(axis=1) + 0.5 / beta2
        lam[rows] = lo - phi_lo / slope
        stop = last | (phi >= 0.0)
        if stop.all():
            return lam, passed
        go = ~stop
        rows, a, c, v0, t, bp = rows[go], a[go], c[go], v0[go], t[go], bp[go]
        lo, phi_lo = end[go], phi[go]
        behind = bp <= lo[:, None]
        passed[rows] += np.count_nonzero(behind, axis=1)
        bp[behind] = np.inf


def _solve_core(a, d, g, h, c, lb, ub, beta2):
    """The closed-form optimum of checked rows: ``a``, ``d`` (u_des), ``g``, ``h`` (B, m).

    Returns u, the unclipped v = v0 + lam t, lam, the breakpoints passed and
    phi(0). Each row's result depends on that row alone, bit for bit.

    A tight row first takes one Newton step from lam = 0 with the slope of
    the channels strictly inside their box there. If no channel changed side
    of a bound or landed on one, phi is linear up to that lam, which is the
    root and what ``_root`` gives, bit for bit. Otherwise every tight row of
    the call walks from lam = 0 (in ``solve_rows_and_pullback``, every tight
    row of the block): a walk's pass costs numpy dispatch, the same for one
    row as for all, so taking out the certified rows would cost more than it
    saves.
    """
    v = g * d / h                   # unclipped optimum, v0 + lam t once lam is known
    t = (0.5 * a) / h
    u = _clip(v, lb, ub)
    phi0 = (a * u).sum(axis=1) + c
    tight = phi0 < 0.0
    lam = np.zeros(len(c))
    passed = np.zeros(len(c), dtype=int)
    if tight.any():
        # Rows slack at lam = 0 keep the shrunk desired control.
        i = slice(None) if tight.all() else np.flatnonzero(tight)
        v0, t, a, phi0_i = v[i], t[i], a[i], phi0[i]
        above, below = v0 > lb, v0 < ub
        slope = _rowsum(np.where(above & below, a * t, 0.0)) + 0.5 / beta2
        lam_i = 0.0 - phi0_i / slope
        v_i = v0 + lam_i[:, None] * t
        same = ((v_i > lb) == above) & ((v_i < ub) == below)
        if not same.all():
            lam_i, passed[i] = _root(a, c[i], phi0_i, v0, t, lb, ub, beta2)
            v_i = v0 + lam_i[:, None] * t
        lam[i], v[i] = lam_i, v_i
        u[i] = _clip(v_i, lb, ub)
    return u, v, lam, passed, phi0


def _solve_rows(problem):
    """The closed-form core over every row of a checked problem, with h, lb, ub."""
    a, d, g, h = _rows(problem)
    c = np.asarray(problem.constraint.offset, dtype=float).reshape(-1)
    m = a.shape[1]
    lb, ub = problem.lb.reshape(1, m), problem.ub.reshape(1, m)
    return h, lb, ub, _solve_core(a, d, g, h, c, lb, ub, problem.beta2)


def filtered_controls(problem: FilterProblem) -> np.ndarray:
    """The optimum u* alone: (m,) for one row, (B, m) for a batch.

    The same closed form as ``solve_filter`` without its duals, flags and
    ``FilterSolution``; the result equals that function's ``u`` bit for bit.
    Generation, which keeps nothing but u*, calls this.
    """
    u = _solve_rows(problem)[3][0]
    return u[0] if problem.u_des.ndim == 1 else u


def solve_filter(problem: FilterProblem) -> FilterSolution:
    """Solve the projection QP in closed form; deterministic for fixed inputs."""
    h, lb, ub, (u, v, lam, passed, phi0) = _solve_rows(problem)
    m = u.shape[1]
    # Box multipliers from stationarity: 2 h (u - v) = mu_lb - mu_ub.
    gap = (u - v) * (2.0 * h)
    duals = np.zeros((len(lam), 2 * m + 2))
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


def _sensitivities(a, d, h, u, free, beta2, others):
    """The closed form's pieces of du*/dgamma over rows (B, m).

    ``own`` is d u_j / d gamma_j at fixed lam and ``t`` = d u / d lam (zero on
    clipped channels). While a row binds, d lam = (a . du at fixed lam) / -total
    with ``total`` = -phi'(lam) = 1 / (2 beta2) + sum_l a_l t_l, and channel j's
    own term is kept times ``keep`` = 1 - a_j t_j / total, formed as
    (1 / (2 beta2) + sum_{l != j} a_l t_l) / total: its sums have terms of one
    sign, where 1 - a_j t_j / total cancels when channel j carries most of the
    row (a small h_j). Also returns free / h.
    """
    on = free / h
    own = (d - u) * on
    t = (0.5 * a) * on
    at, floor = a * t, 0.5 / beta2
    total = floor + _rowsum(at)
    return on, own, t, total, (floor + _vecmat(at, others)) / total[:, None]


def differentiate_filter(problem: FilterProblem, solution: FilterSolution) -> FilterJacobians:
    """Jacobians of (u*, eps*) in gamma and u_des, from the closed form.

    On the free channels u_j = (gamma_j u_des_j + lam a_j / 2) / h_j, so each
    Jacobian is a diagonal term there plus t d lam with t = a / (2h) on the
    free channels; clipped channels do not move. d lam follows from
    phi(lam) = 0 while the row binds (lam > 0) and is zero otherwise.
    Channel j's own entries are formed from ``_sensitivities``' ``keep``.
    """
    a, d, g, h = _rows(problem)
    b, m = a.shape
    owner, onehot, others = _channel_agent(problem.constraint.agent_dims)
    binds = solution.duals.reshape(b, -1)[:, 0] > 0.0
    on, own, t, total, keep = _sensitivities(
        a, d, h, solution.u.reshape(b, m), solution.free.reshape(b, m), problem.beta2, others)
    scale, keep = binds / -total, np.where(binds[:, None], keep, 1.0)     # d lam = 0 if slack
    shrink = g * on                                 # d u_j / d u_des_j at fixed lam
    pull = (a * own) * scale[:, None]
    dlam_dgamma = pull @ onehot
    du_dgamma = t[:, :, None] * dlam_dgamma[:, None, :]
    du_dgamma[:, np.arange(m), owner] = (own * keep
                                         + t * (pull @ (onehot @ onehot.T - np.eye(m))))
    du_dudes = t[:, :, None] * ((a * shrink) * scale[:, None])[:, None, :]
    du_dudes.reshape(b, -1)[:, ::m + 1] = shrink * keep
    deps_dgamma = dlam_dgamma / (2.0 * problem.beta2)
    if problem.u_des.ndim == 1:
        return FilterJacobians(du_dgamma=du_dgamma[0], deps_dgamma=deps_dgamma[0],
                               du_dudes=du_dudes[0], degenerate=solution.degenerate)
    return FilterJacobians(du_dgamma=du_dgamma, deps_dgamma=deps_dgamma,
                           du_dudes=du_dudes, degenerate=solution.degenerate)


def solve_rows_and_pullback(rows: FilterRows, gamma):
    """Each row's optimum u* (B, m) at allocations ``gamma`` (B, N), solved in
    blocks of ``BLOCK_ROWS`` rows, and its pullback.

    Only ``gamma`` is checked (``check_gamma``); the rows were checked when
    ``rows`` was built. They go through the closed-form core one block at a
    time (the last block may be short) and skip the duals and flags of
    ``solve_filter``; u* equals that function's bit for bit, since each row's
    result depends on that row alone. ``pullback(w)`` maps a cotangent w
    (B, m) on u* to w . du*/dgamma (B, N), again block by block: each row of
    ``differentiate_filter``'s Jacobian contracted with that row of w,
    without forming it: (own w) @ onehot on a slack row,
    (own (w keep - a sum_{l != j} w_l t_l / total)) @ onehot on a binding one.
    """
    if not isinstance(rows, FilterRows):
        raise TypeError(f"rows must be FilterRows, got {type(rows).__name__}")
    gamma = check_gamma(gamma, (len(rows), len(rows.agent_dims)), rows.beta1)
    a, c, d, beta2 = rows.a, rows.offset, rows.u_des, rows.beta2
    lb, ub, owner, onehot, others = rows._core
    g = gamma.take(owner, axis=1)
    h = g + rows.beta1
    blocks = []
    for i in range(0, len(a), BLOCK_ROWS):
        r = slice(i, i + BLOCK_ROWS)
        ar, dr, hr = a[r], d[r], h[r]
        ur, vr, lam, _, _ = _solve_core(ar, dr, g[r], hr, c[r], lb, ub, beta2)
        blocks.append((r, ar, dr, hr, ur, ur == vr, lam > 0.0))

    def pullback(w):
        dgamma = []
        for r, ar, dr, hr, ur, free, binds in blocks:
            wr = w[r]
            _, own, t, total, keep = _sensitivities(ar, dr, hr, ur, free, beta2, others)
            wr = np.where(binds[:, None],       # d lam = 0 on a slack row
                          wr * keep - ar * _vecmat(wr * t, others) / total[:, None], wr)
            dgamma.append(_vecmat(own * wr, onehot))
        return dgamma[0] if len(dgamma) == 1 else np.concatenate(dgamma)

    u = blocks[0][4] if len(blocks) == 1 else np.concatenate([block[4] for block in blocks])
    return u, pullback
