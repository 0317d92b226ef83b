"""Barrier functions and the linear-in-control safety inequality they induce.

A barrier b certifies safety through b(x) >= 0. For a control-affine system
the condition "b must not decay faster than a gain times its value" is affine
in the stacked control, so at a given state it collapses to

    sum_i a_i . u_i + c >= -eps

which is exactly the row consumed by the safety-filter QP. Relative-degree-2
systems (double integrators with position-only barriers) use the chained
condition  b'' + (k1 + k2) b' + k1 k2 b >= -eps  with two linear gains.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .dynamics import ControlAffineSystem

# Largest relative gap allowed between a barrier's batched and per-state outputs.
BATCH_RTOL = 1e-12


@dataclass(frozen=True)
class Barrier:
    """Scalar safety measure with closed-form derivatives.

    Every evaluator takes one state (n,) or a batch (B, n): ``value`` returns
    a float or (B,), ``grad`` (n,) or (B, n), ``hess`` (n, n) or (B, n, n).
    ``hess`` is only required for relative-degree-2 constraint assembly.
    The safe set convention is value(x) >= 0.
    """

    value: Callable[[np.ndarray], float]
    grad: Callable[[np.ndarray], np.ndarray]
    hess: Optional[Callable[[np.ndarray], np.ndarray]] = None
    name: str = "barrier"


def _state_or_batch(fn):
    """Lift an evaluator on (B, n) states so that it also takes one (n,) state."""
    def evaluate(x):
        x = np.asarray(x, dtype=float)
        if x.ndim == 2:
            return fn(x)
        out = fn(x[None, :])[0]
        return float(out) if out.ndim == 0 else out
    return evaluate


@dataclass(frozen=True)
class ClassKappaLinear:
    """Linear class-K-infinity function alpha(s) = gain * s."""

    gain: float = 1.0

    def __post_init__(self):
        if self.gain <= 0:
            raise ValueError("class-K gain must be positive")

    def __call__(self, s):
        return self.gain * s


@dataclass(frozen=True)
class CbfLinearConstraint:
    """Affine-in-control safety row: a . u_stacked + offset >= -eps.

    One row has ``a`` of shape (m,) and a float ``offset``; the rows of a
    batch of B states have ``a`` of shape (B, m) and ``offset`` of shape (B,).
    """

    a: np.ndarray
    offset: float
    agent_dims: tuple

    def __getitem__(self, i):
        """Row ``i`` of a batch as a one-row constraint."""
        return CbfLinearConstraint(self.a[i], float(self.offset[i]), self.agent_dims)

    def value(self, u):
        """Left-hand side of one row at a stacked control (without the slack)."""
        return float(self.a @ np.asarray(u, dtype=float)) + self.offset


def finite_difference_grad(f, x, step=1e-6):
    """Central-difference gradient of a scalar function."""
    x = np.asarray(x, dtype=float)
    g = np.zeros_like(x)
    for j in range(x.size):
        e = np.zeros_like(x)
        e[j] = step
        g[j] = (f(x + e) - f(x - e)) / (2 * step)
    return g


def finite_difference_jacobian(f, x, step=1e-6):
    """Central-difference Jacobian of a vector function."""
    x = np.asarray(x, dtype=float)
    f0 = np.asarray(f(x), dtype=float)
    jac = np.zeros((f0.size, x.size))
    for j in range(x.size):
        e = np.zeros_like(x)
        e[j] = step
        jac[:, j] = (np.asarray(f(x + e)) - np.asarray(f(x - e))) / (2 * step)
    return jac


def validate_barrier(barrier, states, rtol=1e-5, step=1e-6, require_hess=False):
    """Check closed-form derivatives against finite differences.

    Gate for user-supplied barriers: raises ValueError on mismatch, or when
    an evaluator given the probe states as one (B, n) batch disagrees with
    its per-state outputs. ``states`` is an iterable of probe states.
    """
    states = [np.asarray(x, dtype=float) for x in states]
    for x in states:
        g = np.asarray(barrier.grad(x), dtype=float)
        g_fd = finite_difference_grad(barrier.value, x, step)
        scale = max(1.0, float(np.max(np.abs(g_fd))))
        if np.max(np.abs(g - g_fd)) > rtol * scale:
            raise ValueError(f"{barrier.name}: gradient disagrees with finite differences")
        if barrier.hess is not None:
            h = np.asarray(barrier.hess(x), dtype=float)
            h_fd = finite_difference_jacobian(barrier.grad, x, step)
            scale = max(1.0, float(np.max(np.abs(h_fd))))
            if np.max(np.abs(h - h_fd)) > rtol * scale:
                raise ValueError(f"{barrier.name}: Hessian disagrees with finite differences")
        elif require_hess:
            raise ValueError(f"{barrier.name}: Hessian evaluator is required")
    evaluators = [("value", barrier.value), ("gradient", barrier.grad)]
    if barrier.hess is not None:
        evaluators.append(("Hessian", barrier.hess))
    for what, fn in evaluators:
        single = np.array([np.asarray(fn(x), dtype=float) for x in states])
        try:
            batch = np.asarray(fn(np.array(states)), dtype=float)
        except (TypeError, ValueError, IndexError) as exc:
            raise ValueError(f"{barrier.name}: {what} rejects a (B, n) batch of states") from exc
        scale = max(1.0, float(np.max(np.abs(single))))
        if batch.shape != single.shape or np.max(np.abs(batch - single)) > BATCH_RTOL * scale:
            raise ValueError(f"{barrier.name}: batched {what} disagrees with the per-state {what}")
    return barrier


def _pair_terms(system, margin):
    """Closed forms for b_k = ||p_i - p_j||^2 - margin^2 over all pairs k.

    Returns the constant pair Hessians (P, n, n) and an evaluator mapping
    states (B, n) to the pair values (B, P) and gradients (B, P, n).
    """
    n = system.n_agents
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    pdim, block = system.position_dim, system.agent_state_dim
    # diff[k] = D[k] @ x = p_i - p_j for pair k = (i, j).
    D = np.zeros((len(pairs), pdim, system.state_dim))
    for k, (i, j) in enumerate(pairs):
        D[k, :, i * block:i * block + pdim] = np.eye(pdim)
        D[k, :, j * block:j * block + pdim] = -np.eye(pdim)
    hessians = 2.0 * np.einsum("kdi,kdj->kij", D, D)

    def terms(X):
        diff = np.einsum("kdn,bn->bkd", D, X)
        values = np.sum(diff ** 2, axis=-1) - margin ** 2
        return values, 2.0 * np.einsum("bkd,kdn->bkn", diff, D)

    return hessians, terms


def make_pairwise_distance_barrier(system, margin, temperature=10.0):
    """Keep-apart barrier over the closest agent pair.

    For a single pair this is b = ||p_i - p_j||^2 - margin^2 exactly. With
    more agents the hard minimum over pairs is not differentiable at ties, so
    the default combines pairs with a soft minimum at the given temperature
    (which lower-bounds the hard min, hence is conservative). Pass
    ``temperature=None`` for the exact hard-min variant, which follows the
    first closest pair at ties.
    """
    if margin <= 0:
        raise ValueError("margin must be positive")
    if system.agent_state_dim is None:
        raise ValueError("pairwise barrier needs a per-agent concatenated state layout")
    if system.n_agents < 2:
        raise ValueError("pairwise barrier needs at least two agents")

    hessians, terms = _pair_terms(system, margin)

    if len(hessians) == 1 or temperature is None:
        # The closest pair per state (the only one, for two agents).
        def closest(X):
            values, grads = terms(X)
            k = np.argmin(values, axis=1)
            rows = np.arange(len(X))
            return k, values[rows, k], grads[rows, k]

        name = "pairwise_distance" if len(hessians) == 1 else "min_pairwise_distance"
        return Barrier(
            value=_state_or_batch(lambda X: closest(X)[1]),
            grad=_state_or_batch(lambda X: closest(X)[2]),
            hess=_state_or_batch(lambda X: hessians[closest(X)[0]]),
            name=f"{name}(margin={margin})",
        )

    t = float(temperature)
    if t <= 0:
        raise ValueError("temperature must be positive (or None for hard min)")

    def softmin(X):
        # softmin = -logsumexp(-t b) / t, with weights w_k = softmax(-t b)_k
        values, grads = terms(X)
        z = -t * values
        zmax = np.max(z, axis=1, keepdims=True)
        e = np.exp(z - zmax)
        total = np.sum(e, axis=1, keepdims=True)
        value = -(zmax[:, 0] + np.log(total[:, 0])) / t
        w = e / total
        return value, w, grads, np.matmul(w[:, None, :], grads)[:, 0]

    def hess(X):
        # d^2 softmin = sum w_k H_k + t (g_bar g_bar^T - sum w_k g_k g_k^T)
        _, w, grads, gbar = softmin(X)
        h = (w @ hessians.reshape(len(hessians), -1)).reshape(len(X), *hessians.shape[1:])
        h -= t * np.matmul((grads * w[:, :, None]).transpose(0, 2, 1), grads)
        h += t * gbar[:, :, None] * gbar[:, None, :]
        return h

    return Barrier(_state_or_batch(lambda X: softmin(X)[0]),
                   _state_or_batch(lambda X: softmin(X)[3]),
                   _state_or_batch(hess),
                   name=f"softmin_pairwise_distance(margin={margin}, t={t})")


def make_ellipse_barrier(a1, a2):
    """Elliptical keep-out region in relative coordinates.

    b(r) = r_lon^2 / a1^2 + r_lat^2 / a2^2 - 1 over a state whose two leading
    entries are the relative position; trailing entries (velocities) do not
    enter the barrier.
    """
    if a1 <= 0 or a2 <= 0:
        raise ValueError("ellipse semi-axes must be positive")
    inv1, inv2 = 1.0 / a1 ** 2, 1.0 / a2 ** 2

    def value(R):
        # Square through C pow on each entry, as the scalar arithmetic of the
        # per-state evaluator did: numpy's array square rounds about 1 value
        # in 1000 differently, and rollouts would not repeat bit for bit.
        sq = np.power(R[:, :2].astype(object), 2).astype(float)
        return sq[:, 0] * inv1 + sq[:, 1] * inv2 - 1.0

    def grad(R):
        g = np.zeros_like(R)
        g[:, 0] = 2.0 * R[:, 0] * inv1
        g[:, 1] = 2.0 * R[:, 1] * inv2
        return g

    def hess(R):
        h = np.zeros((len(R), R.shape[1], R.shape[1]))
        h[:, 0, 0] = 2.0 * inv1
        h[:, 1, 1] = 2.0 * inv2
        return h

    return Barrier(_state_or_batch(value), _state_or_batch(grad), _state_or_batch(hess),
                   name=f"ellipse(a1={a1}, a2={a2})")


def _rowdot(u, v):
    """Row-wise dot products of (B, n) arrays.

    The stacked matmul calls BLAS's dot once per row, so every row equals
    the single-state product ``u[i] @ v[i]`` bit for bit (an elementwise sum
    rounds differently when BLAS fuses the multiply-adds).
    """
    return np.matmul(u[:, None, :], v[:, :, None])[:, 0, 0]


def assemble_constraint(system: ControlAffineSystem, barrier: Barrier,
                        alpha_chain: Sequence[ClassKappaLinear], x) -> CbfLinearConstraint:
    """Linearize the safety condition in the controls at one state or a batch.

    ``x`` is one state (n,), giving one row, or a batch (B, n), giving every
    row at once (``a`` of shape (B, m), ``offset`` of shape (B,)); a single
    state is the B = 1 row of the batch computation. With drift f = F x:

    Relative degree 1 (one gain):   a = G^T grad b,
                                    c = grad b . f + alpha(b).
    Relative degree 2 (two gains):  with w = hess b . f + F^T grad b,
                                    a = G^T w,
                                    c = w . f + (k1 + k2) b' + k1 k2 b,
    valid when G^T grad b == 0 (control enters only through the second
    derivative), which is checked.
    """
    x = system.check_state(x)
    X = np.atleast_2d(x)
    degree = system.relative_degree
    if len(alpha_chain) != degree:
        raise ValueError(
            f"alpha_chain must have {degree} element(s) for a relative-degree-{degree} system")

    grad = np.asarray(barrier.grad(X), dtype=float)
    b = np.asarray(barrier.value(X), dtype=float)
    f = system.drift(X)
    bdot = _rowdot(grad, f)

    if degree == 1:
        a = grad @ system.G
        c = bdot + alpha_chain[0](b)
    else:
        if degree != 2:
            raise ValueError(f"unsupported relative degree {degree}")
        if barrier.hess is None:
            raise ValueError(f"{barrier.name}: degree-2 assembly requires a Hessian")
        scale = np.maximum(1.0, np.max(np.abs(grad), axis=1))
        leak = np.abs(grad @ system.G) > 1e-8 * scale[:, None]
        if np.any(leak):
            channel = int(np.argmax(leak[np.argmax(np.any(leak, axis=1))]))
            agent = int(np.searchsorted(np.cumsum(system.control_dims), channel, side="right"))
            raise ValueError(
                f"{barrier.name}: control enters the first derivative through agent {agent}; "
                "use a single-gain chain")
        k1, k2 = alpha_chain[0].gain, alpha_chain[1].gain
        hess = np.asarray(barrier.hess(X), dtype=float)
        w = np.matmul(hess, f[:, :, None])[:, :, 0] + grad @ system.F
        a = w @ system.G
        c = _rowdot(w, f) + (k1 + k2) * bdot + k1 * k2 * b

    rows = CbfLinearConstraint(a=a, offset=c, agent_dims=system.control_dims)
    return rows if x.ndim == 2 else rows[0]
