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

The problem is a tiny strictly convex QP (diagonal Hessian, one general
inequality plus simple bounds), solved here with a dense primal active-set
method. Solutions are differentiated with respect to gamma and the desired
controls by linearizing the KKT conditions on the strictly active set.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .barriers import CbfLinearConstraint

KKT_TOL = 1e-9
MAX_PIVOTS = 100


class FilterError(RuntimeError):
    """Raised for inconsistent filter problems or solver non-convergence."""


@dataclass
class FilterProblem:
    """One instance of the weighted projection program.

    ``u_des`` is the stacked desired control (length = total control dim),
    ``gamma`` the per-agent responsibility weights, ``lb``/``ub`` the stacked
    box bounds (entries may be +-inf).
    """

    constraint: CbfLinearConstraint
    u_des: np.ndarray
    gamma: np.ndarray
    beta1: float
    beta2: float
    lb: np.ndarray
    ub: np.ndarray

    def __post_init__(self):
        self.u_des = np.asarray(self.u_des, dtype=float)
        self.gamma = np.asarray(self.gamma, dtype=float)
        m = self.constraint.a.size
        self.lb = np.broadcast_to(np.asarray(self.lb, dtype=float), (m,)).copy()
        self.ub = np.broadcast_to(np.asarray(self.ub, dtype=float), (m,)).copy()
        if self.u_des.shape != (m,):
            raise FilterError(f"u_des must have shape ({m},)")
        if self.gamma.shape != (len(self.constraint.agent_dims),):
            raise FilterError("gamma length must equal the number of agents")
        if self.beta2 <= 0:
            raise FilterError("beta2 must be positive")
        if self.beta1 < 0:
            raise FilterError("beta1 must be nonnegative")
        if np.any(self.gamma < -1e-12):
            raise FilterError("gamma entries must be nonnegative")
        if np.any(self.gamma + self.beta1 <= 0):
            raise FilterError("need gamma_i + beta1 > 0 for a unique solution")
        if np.any(self.lb > self.ub):
            raise FilterError("inconsistent box bounds (lb > ub)")

    def validate_allocation(self, tol=1e-9):
        """Check the modeling contract on gamma (simplex membership)."""
        if abs(float(np.sum(self.gamma)) - 1.0) > tol:
            raise FilterError("gamma must sum to 1")
        if np.any(self.gamma < -tol) or np.any(self.gamma > 1 + tol):
            raise FilterError("gamma entries must lie in [0, 1]")

    # -- dense pieces -------------------------------------------------------

    def gamma_per_channel(self):
        return np.repeat(self.gamma, self.constraint.agent_dims)

    def hessian_diag(self):
        """Diagonal of the QP Hessian over z = (u, eps)."""
        gpc = self.gamma_per_channel()
        return np.concatenate([2.0 * (gpc + self.beta1), [2.0 * self.beta2]])

    def linear_term(self):
        gpc = self.gamma_per_channel()
        return np.concatenate([-2.0 * gpc * self.u_des, [0.0]])

    def constraint_rows(self):
        """All inequalities as G z >= h over z = (u, eps).

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
    """QP optimum with the dual information needed for differentiation."""

    u: np.ndarray
    eps: float
    duals: np.ndarray          # one multiplier per constraint row
    active_rows: tuple         # rows with strictly positive multipliers
    n_pivots: int
    objective: float

    @property
    def lam_cbf(self):
        return float(self.duals[0])


@dataclass
class FilterJacobians:
    """Sensitivities of the optimum; shapes (m, N), (N,), (m, m)."""

    du_dgamma: np.ndarray
    deps_dgamma: np.ndarray
    du_dudes: np.ndarray
    degenerate: bool = False


def kkt_residuals(problem: FilterProblem, solution: FilterSolution):
    """Max violations of stationarity / primal / dual / complementarity."""
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


def solve_filter(problem: FilterProblem, tol=KKT_TOL, max_pivots=MAX_PIVOTS) -> FilterSolution:
    """Solve the projection QP with a dense primal active-set method.

    Deterministic for fixed inputs. Raises ``FilterError`` on inconsistent
    bounds (checked at construction) or if the pivot cap is exceeded.
    """
    if np.any(problem.lb > problem.ub):
        raise FilterError("inconsistent box bounds (lb > ub)")
    m = problem.u_des.size
    n = m + 1
    hdiag = problem.hessian_diag()
    q = problem.linear_term()
    rows, rhs = problem.constraint_rows()
    n_rows = rows.shape[0]

    # Feasible start: box-clipped shrink of the desired control, slack lifted
    # just enough to satisfy the safety row.
    u0 = problem.shrunk_desired()
    eps0 = max(0.0, -problem.constraint.value(u0))
    z = np.concatenate([u0, [eps0]])

    working = []           # ordered list of row indices
    lam_working = np.zeros(0)
    scale = max(1.0, float(np.max(np.abs(z))))

    for pivot in range(max_pivots):
        k = len(working)
        if k == 0:
            z_eq = -q / hdiag
            lam_working = np.zeros(0)
        else:
            G = rows[working]
            kkt = np.zeros((n + k, n + k))
            kkt[:n, :n] = np.diag(hdiag)
            kkt[:n, n:] = -G.T
            kkt[n:, :n] = G
            target = np.concatenate([-q, rhs[working]])
            try:
                sol = np.linalg.solve(kkt, target)
            except np.linalg.LinAlgError:
                sol, *_ = np.linalg.lstsq(kkt, target, rcond=None)
            z_eq = sol[:n]
            lam_working = sol[n:]

        p = z_eq - z
        if np.max(np.abs(p)) <= 1e-12 * scale:
            if k == 0 or np.min(lam_working) >= -tol:
                duals = np.zeros(n_rows)
                duals[working] = np.maximum(lam_working, 0.0)
                active = tuple(i for i, l in zip(working, lam_working) if l > tol)
                u = z[:m]
                eps = max(0.0, z[m])
                return FilterSolution(
                    u=u, eps=eps, duals=duals, active_rows=active,
                    n_pivots=pivot, objective=problem.objective(u, eps))
            worst = int(np.argmin(lam_working))
            working.pop(worst)
            continue

        # Longest feasible step along p; add the blocking row if cut short.
        alpha = 1.0
        blocking = -1
        gp = rows @ p
        for i in range(n_rows):
            if i in working or gp[i] >= -1e-14 or not np.isfinite(rhs[i]):
                continue
            t = (rows[i] @ z - rhs[i]) / (-gp[i])
            if t < alpha:
                alpha = max(t, 0.0)
                blocking = i
        z = z + alpha * p
        scale = max(scale, float(np.max(np.abs(z))))
        if blocking >= 0:
            working.append(blocking)
        # alpha == 1 with no blocking row: loop back to check multipliers.

    raise FilterError(f"active-set solver did not converge in {max_pivots} pivots")


def differentiate_filter(problem: FilterProblem, solution: FilterSolution,
                         active_tol=1e-9) -> FilterJacobians:
    """Jacobians of (u*, eps*) via the implicit function theorem.

    The strictly active rows (multiplier > active_tol) are pinned as
    equalities and the KKT system is linearized around the optimum. Rows that
    are active with a zero multiplier are treated as inactive; at such
    degenerate points the returned values are one-sided derivatives. A
    singular KKT matrix triggers a least-squares fallback, flagged via
    ``degenerate``.
    """
    m = problem.u_des.size
    n = m + 1
    n_agents = problem.gamma.size
    rows, _ = problem.constraint_rows()
    active = [i for i in range(rows.shape[0]) if solution.duals[i] > active_tol]
    k = len(active)
    hdiag = problem.hessian_diag()

    kkt = np.zeros((n + k, n + k))
    kkt[:n, :n] = np.diag(hdiag)
    if k:
        G = rows[active]
        kkt[:n, n:] = -G.T
        kkt[n:, :n] = G

    z = np.concatenate([solution.u, [solution.eps]])
    dims = problem.constraint.agent_dims
    n_rhs = n_agents + m
    rhs = np.zeros((n + k, n_rhs))
    # d/dgamma_i: H depends on gamma through agent i's channels, q through
    # -2 gamma_i u_des; combined top block is 2 (u_des - u*) on those channels.
    off = 0
    for i, d in enumerate(dims):
        rhs[off:off + d, i] = 2.0 * (problem.u_des[off:off + d] - z[off:off + d])
        off += d
    # d/du_des_j: q_j = -2 gamma_(agent of j) u_des_j.
    gpc = problem.gamma_per_channel()
    for j in range(m):
        rhs[j, n_agents + j] = 2.0 * gpc[j]

    degenerate = False
    try:
        sol = np.linalg.solve(kkt, rhs)
    except np.linalg.LinAlgError:
        degenerate = True
        sol, *_ = np.linalg.lstsq(kkt, rhs, rcond=None)

    return FilterJacobians(
        du_dgamma=sol[:m, :n_agents],
        deps_dgamma=sol[m, :n_agents],
        du_dudes=sol[:m, n_agents:],
        degenerate=degenerate,
    )


@dataclass
class FilterFailure:
    """Per-element failure marker for batched solves."""

    index: int
    message: str


def solve_filter_batch(problems, tol=KKT_TOL, max_pivots=MAX_PIVOTS):
    """Solve a sequence of problems; failures are reported per element.

    Returns a list aligned with the input, each entry a ``FilterSolution``
    or a ``FilterFailure``; one bad element does not abort the rest.
    """
    out = []
    for idx, prob in enumerate(problems):
        try:
            out.append(solve_filter(prob, tol=tol, max_pivots=max_pivots))
        except (FilterError, np.linalg.LinAlgError) as exc:
            out.append(FilterFailure(index=idx, message=str(exc)))
    return out
