"""Output checks of a benchmark run, with failure accounting.

Every check is one attempt; ``fail_share`` is failed / attempted. The KKT
certificate below is the benchmark's own: it re-derives the optimality
conditions of the filter QP from the problem data and does not call the
package's ``kkt_residuals``.
"""

from __future__ import annotations

import numpy as np

from respalloc import training

KKT_TOL = 1e-7          # acceptance-suite tolerance on KKT residuals
FD_RTOL = 1e-3          # acceptance-suite tolerance on the chained gradient
FD_STEP = 1e-6


class Checks:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes = []

    def record(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.notes.append(what)
        return ok

    @property
    def fail_share(self):
        return self.failed / self.attempted if self.attempted else 0.0


def kkt_certificate(problem, sol):
    """Largest violation of the filter QP's optimality conditions.

    Multipliers are read from ``sol.duals`` in the solver's documented row
    order [safety row, lower bounds, upper bounds, slack]; every residual is
    recomputed here from the problem data.
    """
    a = np.asarray(problem.constraint.a, dtype=float)
    c = float(problem.constraint.offset)
    m = a.size
    u, eps = np.asarray(sol.u, dtype=float), float(sol.eps)
    lam = np.asarray(sol.duals, dtype=float)
    if u.shape != (m,) or lam.shape != (2 * m + 2,):
        return np.inf
    lam_row, lam_lb, lam_ub, lam_eps = lam[0], lam[1:m + 1], lam[m + 1:2 * m + 1], lam[-1]
    gpc = np.repeat(np.asarray(problem.gamma, dtype=float), problem.constraint.agent_dims)
    lb, ub = np.asarray(problem.lb, dtype=float), np.asarray(problem.ub, dtype=float)
    row_slack = float(a @ u) + c + eps
    lo_gap, hi_gap = u - lb, ub - u
    finite_lo, finite_hi = np.isfinite(lb), np.isfinite(ub)

    stationarity = np.concatenate([
        2.0 * (gpc + problem.beta1) * u - 2.0 * gpc * problem.u_des
        - lam_row * a - lam_lb + lam_ub,
        [2.0 * problem.beta2 * eps - lam_row - lam_eps]])
    primal = [-row_slack, -eps, *(-lo_gap[finite_lo]), *(-hi_gap[finite_hi])]
    complementarity = [lam_row * row_slack, lam_eps * eps,
                       *(lam_lb[finite_lo] * lo_gap[finite_lo]),
                       *(lam_ub[finite_hi] * hi_gap[finite_hi])]
    worst = max(float(np.max(np.abs(stationarity))),
                max(0.0, float(np.max(primal))),
                max(0.0, -float(np.min(lam))),
                float(np.max(np.abs(complementarity))))
    return worst if np.all(np.isfinite(lam)) and np.isfinite(worst) else np.inf


def directional_fd_error(prep, model, config, direction):
    """Relative gap between the analytic and central-difference slope.

    The slope is that of ``batch_loss`` along ``direction`` at the model's
    current parameters; the parameters are restored afterwards.
    """
    _, grad = training.batch_loss_and_grad(prep, model, config)
    base = model.params.copy()
    try:
        model.params = base + FD_STEP * direction
        up = training.batch_loss(prep, model, config)
        model.params = base - FD_STEP * direction
        down = training.batch_loss(prep, model, config)
    finally:
        model.params = base
    fd = (up - down) / (2.0 * FD_STEP)
    return abs(float(grad @ direction) - fd) / max(1e-10, abs(fd))
