"""Multi-agent linear dynamics: xdot = F x + sum_i G_i u_i.

Three system families are provided:

- 1D single integrators (one position coordinate per agent, relative degree 1),
- planar double integrators (state [px, py, vx, vy] per agent, relative
  degree 2 for position-only barriers),
- the two-agent relative double integrator, whose "joint state" is the
  relative coordinate r = x2 - x1 with layout [r_lon, r_lat, vr_lon, vr_lat].

Systems are immutable; each holds its constant (F, G) matrices.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

DEFAULT_CONTROL_BOUND = 10.0

# One planar double integrator [px, py, vx, vy]: positions integrate
# velocities (drift block), the two controls drive the velocities.
_DI_DRIFT = np.block([[np.zeros((2, 2)), np.eye(2)], [np.zeros((2, 4))]])
_DI_ACTUATION = np.vstack([np.zeros((2, 2)), np.eye(2)])


@dataclass(frozen=True)
class AgentSpec:
    """Per-agent dimensions and box control bounds."""

    state_dim: int
    control_dim: int
    control_lower: np.ndarray
    control_upper: np.ndarray

    def __post_init__(self):
        if self.state_dim <= 0 or self.control_dim <= 0:
            raise ValueError("agent dimensions must be positive")
        lo = np.broadcast_to(np.asarray(self.control_lower, dtype=float),
                             (self.control_dim,)).copy()
        hi = np.broadcast_to(np.asarray(self.control_upper, dtype=float),
                             (self.control_dim,)).copy()
        if np.any(lo > hi):
            raise ValueError("control_lower must be <= control_upper elementwise")
        object.__setattr__(self, "control_lower", lo)
        object.__setattr__(self, "control_upper", hi)


def agent_spec(state_dim, control_dim, bound=DEFAULT_CONTROL_BOUND):
    """Symmetric box bounds [-bound, bound] on every control channel."""
    return AgentSpec(state_dim, control_dim, -bound * np.ones(control_dim),
                     bound * np.ones(control_dim))


@dataclass(frozen=True)
class ControlAffineSystem:
    """A linear time-invariant joint system xdot = F x + G u.

    ``F`` (n x n) and ``G`` (n x m) are constant; the columns of ``G`` are
    the agents' control channels in stacked order. Every evaluator accepts
    one state (n,) or a batch (B, n).

    ``agent_state_dim`` is set for systems whose joint state is the
    concatenation of identical per-agent blocks; it is None for reduced
    coordinates (the relative two-agent system). ``position_dim`` gives the
    number of leading position coordinates inside each block.
    """

    name: str
    agents: tuple
    relative_degree: int
    F: np.ndarray
    G: np.ndarray
    agent_state_dim: Optional[int] = None
    position_dim: int = 1

    def __post_init__(self):
        n = self.F.shape[0]
        if self.F.shape != (n, n) or self.G.shape != (n, self.control_dim_total):
            raise ValueError(f"{self.name}: F must be (n, n) and G (n, {self.control_dim_total})")
        for mat in (self.F, self.G):
            mat.setflags(write=False)

    @property
    def state_dim(self) -> int:
        return self.F.shape[0]

    @property
    def n_agents(self) -> int:
        return len(self.agents)

    @property
    def control_dims(self):
        return tuple(a.control_dim for a in self.agents)

    @property
    def control_dim_total(self) -> int:
        return sum(self.control_dims)

    def control_bounds(self):
        """Stacked (lower, upper) arrays over all agents' control channels."""
        lo = np.concatenate([a.control_lower for a in self.agents])
        hi = np.concatenate([a.control_upper for a in self.agents])
        return lo, hi

    def drift(self, x):
        return np.asarray(x, dtype=float) @ self.F.T

    def xdot(self, x, u):
        """State derivative for stacked controls u (length control_dim_total)."""
        return self.drift(x) + np.asarray(u, dtype=float) @ self.G.T

    def check_state(self, x):
        """One finite state (n,) or a batch (B, n), as a float array."""
        x = np.asarray(x, dtype=float)
        if x.ndim not in (1, 2) or x.shape[-1] != self.state_dim:
            raise ValueError(f"{self.name}: expected state of shape ({self.state_dim},) "
                             f"or (B, {self.state_dim}), got {x.shape}")
        if not np.all(np.isfinite(x)):
            raise ValueError(f"{self.name}: non-finite state")
        return x


def make_single_integrator_1d(n_agents, control_bound=DEFAULT_CONTROL_BOUND):
    """N agents on a line, xdot_i = u_i."""
    if n_agents < 1:
        raise ValueError("n_agents must be >= 1")
    n = n_agents
    return ControlAffineSystem(
        name="single_integrator_1d",
        agents=tuple(agent_spec(1, 1, control_bound) for _ in range(n)),
        relative_degree=1,
        F=np.zeros((n, n)),
        G=np.eye(n),
        agent_state_dim=1,
        position_dim=1,
    )


def make_double_integrator_2d(n_agents, control_bound=DEFAULT_CONTROL_BOUND):
    """N planar agents, per-agent state [px, py, vx, vy], vdot = u."""
    if n_agents < 1:
        raise ValueError("n_agents must be >= 1")
    n = n_agents
    return ControlAffineSystem(
        name="double_integrator_2d",
        agents=tuple(agent_spec(4, 2, control_bound) for _ in range(n)),
        relative_degree=2,
        F=np.kron(np.eye(n), _DI_DRIFT),
        G=np.kron(np.eye(n), _DI_ACTUATION),
        agent_state_dim=4,
        position_dim=2,
    )


def make_relative_double_integrator(control_bound=DEFAULT_CONTROL_BOUND):
    """Two planar double integrators in relative coordinates r = x2 - x1.

    rdot = (vr_lon, vr_lat, u2 - u1), so g1 = -[0; I] and g2 = +[0; I].
    """
    return ControlAffineSystem(
        name="relative_double_integrator",
        agents=(agent_spec(4, 2, control_bound), agent_spec(4, 2, control_bound)),
        relative_degree=2,
        F=_DI_DRIFT.copy(),
        G=np.hstack([-_DI_ACTUATION, _DI_ACTUATION]),
        agent_state_dim=None,
        position_dim=2,
    )


def relative_state(x1, x2):
    """Relative coordinate r = x2 - x1 for per-agent states [lon, lat, vlon, vlat]."""
    return np.asarray(x2, dtype=float) - np.asarray(x1, dtype=float)


def euler_rollout(system, x0, policy, dt=0.1, steps=100):
    """Explicit-Euler closed-loop rollout.

    ``policy(k, x)`` returns the stacked control at step k. Returns
    (states, controls) with shapes (steps+1, state_dim) and
    (steps, control_dim_total).
    """
    x = system.check_state(x0).copy()
    states = np.empty((steps + 1, system.state_dim))
    controls = np.empty((steps, system.control_dim_total))
    states[0] = x
    for k in range(steps):
        u = np.asarray(policy(k, x), dtype=float)
        controls[k] = u
        x = x + dt * system.xdot(x, u)
        states[k + 1] = x
    return states, controls
