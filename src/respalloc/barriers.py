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

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from .dynamics import ControlAffineSystem

# Largest relative gap allowed between a barrier's batched and per-state outputs.
BATCH_RTOL = 1e-12


@dataclass(frozen=True)
class Barrier:
    """Scalar safety measure with closed-form derivatives, from one jet.

    ``jet(X, second)`` maps a batch of states (B, n) to the values (B,), the
    gradients (B, n) and, if ``second``, the Hessians (B, n, n) from one
    shared evaluation; the Hessians are None when ``second`` is False or the
    barrier has none. ``value``, ``grad`` and ``hess`` view the jet at one
    state (n,), giving a float, (n,) and (n, n), or at a batch (B, n). The
    safe set convention is value(x) >= 0.
    """

    jet: Callable[[np.ndarray, bool], tuple]
    name: str = "barrier"

    def _view(self, x, k):
        x = np.asarray(x, dtype=float)
        out = self.jet(x if x.ndim == 2 else x[None], k == 2)[k]
        if out is None:
            raise ValueError(f"{self.name}: the jet gives no Hessian")
        if x.ndim == 2:
            return out
        out = out[0]
        return float(out) if out.ndim == 0 else out

    def value(self, x):
        return self._view(x, 0)

    def grad(self, x):
        return self._view(x, 1)

    def hess(self, x):
        return self._view(x, 2)


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


def finite_difference_jacobian(f, x, step=1e-6):
    """Central-difference Jacobian of a vector function; (1, n) for a scalar one."""
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

    Gate for user-supplied barriers: raises ValueError on mismatch, when the
    jet given the probe states as one (B, n) batch disagrees with its
    per-state outputs, or when ``require_hess`` and the jet gives no
    Hessian. ``states`` is an iterable of probe states.
    """
    states = np.array([np.asarray(x, dtype=float) for x in states])
    second = barrier.jet(states[:1], True)[2] is not None
    if require_hess and not second:
        raise ValueError(f"{barrier.name}: a Hessian is required and the jet gives none")
    views = (("value", barrier.value), ("gradient", barrier.grad),
             ("Hessian", barrier.hess))[:2 + second]
    for x in states:
        # Each derivative against finite differences of the view before it.
        for (_, primitive), (what, closed) in zip(views, views[1:]):
            fd = finite_difference_jacobian(primitive, x, step)
            got = np.asarray(closed(x), dtype=float).reshape(fd.shape)
            if np.max(np.abs(got - fd)) > rtol * max(1.0, float(np.max(np.abs(fd)))):
                raise ValueError(f"{barrier.name}: {what} disagrees with finite differences")
    try:
        batch = barrier.jet(states, second)
    except (TypeError, ValueError, IndexError) as exc:
        raise ValueError(f"{barrier.name}: the jet rejects a (B, n) batch of states") from exc
    for k, (what, view) in enumerate(views):
        single = np.array([view(x) for x in states])
        got = np.asarray(batch[k], dtype=float)
        scale = max(1.0, float(np.max(np.abs(single))))
        if got.shape != single.shape or np.max(np.abs(got - single)) > BATCH_RTOL * scale:
            raise ValueError(f"{barrier.name}: batched {what} disagrees with the "
                             f"per-state {what}")
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
    # Written so that NaN fails these too.
    if not 0 < margin < math.inf:
        raise ValueError(f"margin must be positive and finite, got {margin}")
    if temperature is not None and not 0 < temperature < math.inf:
        raise ValueError(f"temperature must be positive and finite (or None for hard "
                         f"min), got {temperature}")
    if system.agent_state_dim is None:
        raise ValueError("pairwise barrier needs a per-agent concatenated state layout")
    if system.n_agents < 2:
        raise ValueError("pairwise barrier needs at least two agents")

    hessians, terms = _pair_terms(system, margin)

    if len(hessians) == 1 or temperature is None:
        # The closest pair per state (the only one, for two agents).
        def closest(X, second):
            values, grads = terms(X)
            k = np.argmin(values, axis=1)
            rows = np.arange(len(X))
            return values[rows, k], grads[rows, k], hessians[k] if second else None

        name = "pairwise_distance" if len(hessians) == 1 else "min_pairwise_distance"
        return Barrier(closest, f"{name}(margin={margin})")

    t = float(temperature)

    def softmin(X, second):
        # softmin = -logsumexp(-t b) / t, with weights w_k = softmax(-t b)_k
        values, grads = terms(X)
        z = -t * values
        zmax = np.max(z, axis=1, keepdims=True)
        e = np.exp(z - zmax)
        total = np.sum(e, axis=1, keepdims=True)
        value = -(zmax[:, 0] + np.log(total[:, 0])) / t
        w = e / total
        gbar = np.matmul(w[:, None, :], grads)[:, 0]
        if not second:
            return value, gbar, None
        # d^2 softmin = sum w_k H_k + t (g_bar g_bar^T - sum w_k g_k g_k^T)
        h = (w @ hessians.reshape(len(hessians), -1)).reshape(len(X), *hessians.shape[1:])
        h -= t * np.matmul((grads * w[:, :, None]).transpose(0, 2, 1), grads)
        h += t * gbar[:, :, None] * gbar[:, None, :]
        return value, gbar, h

    return Barrier(softmin, f"softmin_pairwise_distance(margin={margin}, t={t})")


def make_ellipse_barrier(a1, a2):
    """Elliptical keep-out region in relative coordinates.

    b(r) = r_lon^2 / a1^2 + r_lat^2 / a2^2 - 1 over a relative state
    [r_lon, r_lat, vr_lon, vr_lat]; the velocities do not enter the barrier,
    and the Hessian is one constant (4, 4) matrix.
    """
    if not (0 < a1 < math.inf and 0 < a2 < math.inf):     # NaN fails it too
        raise ValueError(f"ellipse semi-axes must be positive and finite, got {a1}, {a2}")
    inv = np.array([1.0 / a1 ** 2, 1.0 / a2 ** 2])
    hessian = np.diag(np.concatenate([2.0 * inv, [0.0, 0.0]]))
    hessian.setflags(write=False)
    # Read-only views of the one constant, per batch size.
    hessians = lru_cache(maxsize=8)(lambda b: np.broadcast_to(hessian, (b, 4, 4)))

    def ellipse(R, second):
        if R.shape[1] != 4:
            raise ValueError(f"ellipse: expected relative states (B, 4), got {R.shape}")
        # Square through C pow on each entry, as the scalar arithmetic of the
        # per-state evaluator did: numpy's array square rounds about 1 value
        # in 1000 differently, and rollouts would not repeat bit for bit.
        scaled = np.power(R[:, :2].astype(object), 2).astype(float) * inv
        grad = np.zeros(R.shape)
        grad[:, :2] = 2.0 * R[:, :2] * inv
        return (scaled[:, 0] + scaled[:, 1] - 1.0, grad,
                hessians(len(R)) if second else None)

    return Barrier(ellipse, f"ellipse(a1={a1}, a2={a2})")


def _rowdot(u, v):
    """Row-wise dot products of (B, n) arrays.

    The stacked matmul calls BLAS's dot once per row, so every row equals
    the single-state product ``u[i] @ v[i]`` bit for bit (an elementwise sum
    rounds differently when BLAS fuses the multiply-adds).
    """
    return np.matmul(u[:, None, :], v[:, :, None])[:, 0, 0]


def assemble_constraint(system: ControlAffineSystem, barrier: Barrier,
                        gains: Sequence[float], x) -> CbfLinearConstraint:
    """Linearize the safety condition in the controls at one state or a batch.

    ``x`` is one state (n,), giving one row, or a batch (B, n), giving every
    row at once (``a`` of shape (B, m), ``offset`` of shape (B,)); a single
    state is the B = 1 row of the batch computation. ``gains`` holds one
    positive linear class-K gain per relative degree. With drift f = F x:

    Relative degree 1 (one gain):   a = G^T grad b,
                                    c = grad b . f + k1 b.
    Relative degree 2 (two gains):  with w = hess b . f + F^T grad b,
                                    a = G^T w,
                                    c = w . f + (k1 + k2) b' + k1 k2 b,
    valid when G^T grad b == 0 (control enters only through the second
    derivative), which is checked.
    """
    x = system.check_state(x)
    X = x if x.ndim == 2 else x[None]
    degree = system.relative_degree
    if len(gains) != degree:
        raise ValueError(
            f"gains must have {degree} element(s) for a relative-degree-{degree} system")
    # Written so that a NaN gain fails it too.
    if not all(k > 0 for k in gains):
        raise ValueError(f"class-K gains must be positive, got {tuple(gains)}")

    if degree not in (1, 2):
        raise ValueError(f"unsupported relative degree {degree}")

    b, grad, hess = barrier.jet(X, degree == 2)
    if degree == 2 and hess is None:
        raise ValueError(f"{barrier.name}: degree-2 assembly requires a Hessian")
    f = system.drift(X)
    bdot = _rowdot(grad, f)

    if degree == 1:
        a = grad @ system.G
        c = bdot + gains[0] * b
    else:
        leak = grad @ system.G
        if leak.any():              # exact zeros, the usual case, need no scaled test
            scale = np.maximum(1.0, np.max(np.abs(grad), axis=1))
            leak = np.abs(leak) > 1e-8 * scale[:, None]
            if leak.any():
                channel = int(np.argmax(leak[np.argmax(np.any(leak, axis=1))]))
                agent = int(np.searchsorted(np.cumsum(system.control_dims), channel,
                                            side="right"))
                raise ValueError(f"{barrier.name}: control enters the first derivative "
                                 f"through agent {agent}; use a single-gain chain")
        k1, k2 = gains
        w = np.matmul(hess, f[:, :, None])[:, :, 0] + grad @ system.F
        a = w @ system.G
        c = _rowdot(w, f) + (k1 + k2) * bdot + k1 * k2 * b

    rows = CbfLinearConstraint(a=a, offset=c, agent_dims=system.control_dims)
    return rows if x.ndim == 2 else rows[0]
