"""Interaction data: filtered-control samples, two-lane weaving rollouts, I/O.

A sample is one (state, observed controls, desired controls) triple. Two
generators are provided:

- ``generate_synthetic``: i.i.d. states and desired controls drawn from a
  box, pushed through the safety filter under a ground-truth allocation,
  then perturbed with Gaussian noise. States straddle the safety boundary so
  a large fraction of samples have the filter actually binding (inactive
  samples carry no allocation information when beta1 = 0).
- ``generate_weaving_trajectories``: closed-loop rollouts of two cars
  swapping lanes under handcrafted desired-control policies projected
  through the filter, in several initial-condition families.

Both generators, ``augment`` and ``load_trajectories`` return a
``SampleSet``: one array per field, row k holding sample k. Files are
newline-delimited JSON with a header record; see ``save_trajectories``.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field, replace
from typing import Callable, Optional

import numpy as np

from .barriers import (Barrier, ClassKappaLinear, assemble_constraint,
                       make_ellipse_barrier, make_pairwise_distance_barrier)
from .dynamics import (ControlAffineSystem, make_double_integrator_2d,
                       make_relative_double_integrator,
                       make_single_integrator_1d, relative_state)
from .filter_qp import FilterProblem, filtered_controls, solve_filter

TRAJECTORY_FORMAT_VERSION = 1

# Per-agent absolute state layout used by the weaving scenario.
X_LON, X_LAT, X_VLON, X_VLAT = 0, 1, 2, 3


class TrajectoryFormatError(ValueError):
    """Schema violation in a trajectory file, with record position."""


@dataclass
class InteractionSample:
    """One datapoint: joint state, observed controls, desired controls.

    ``u`` and ``u_des`` have shape (n_agents, control_dim). ``u_des`` may be
    None when the desired policy is to be recomputed downstream.
    """

    x: np.ndarray
    u: np.ndarray
    u_des: Optional[np.ndarray] = None
    t: float = 0.0
    trajectory_id: int = 0

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=float)
        self.u = np.asarray(self.u, dtype=float)
        if self.u_des is not None:
            self.u_des = np.asarray(self.u_des, dtype=float)


@dataclass(eq=False)
class SampleSet:
    """Samples as whole arrays: row k of every field is sample k.

    ``u_des`` holds NaN in the rows whose ``has_u_des`` is False, the samples
    whose desired controls the scene recomputes (``InteractionScene.
    desired_controls``). ``len``, iteration and an integer index give
    ``InteractionSample``s whose fields are row views; a slice, a step slice,
    an index array or a mask gives a ``SampleSet``.
    """

    x: np.ndarray               # (B, n) states
    u: np.ndarray               # (B, N, d) observed controls
    u_des: np.ndarray           # (B, N, d) desired controls
    has_u_des: np.ndarray       # (B,) bool
    t: np.ndarray               # (B,) float
    trajectory_id: np.ndarray   # (B,) int

    def __post_init__(self):
        shapes = [np.shape(column) for column in vars(self).values()]
        if (len(shapes[0]) != 2 or len(shapes[1]) != 3 or shapes[2] != shapes[1]
                or {shape[:1] for shape in shapes} != {shapes[0][:1]}):
            raise ValueError(f"a sample set needs x (B, n), u and u_des (B, N, d) and "
                             f"(B,) has_u_des, t and trajectory_id, got {shapes}")

    def __len__(self):
        return len(self.x)

    def __getitem__(self, key):
        if isinstance(key, (int, np.integer)):
            k = range(len(self))[key]
            return InteractionSample(self.x[k], self.u[k],
                                     self.u_des[k] if self.has_u_des[k] else None,
                                     float(self.t[k]), int(self.trajectory_id[k]))
        return SampleSet(*(column[key] for column in vars(self).values()))

    def __iter__(self):
        return map(self.__getitem__, range(len(self)))

    @classmethod
    def from_samples(cls, samples) -> "SampleSet":
        """``samples`` if it is a set, else a set stacked from a sequence of
        ``InteractionSample``s. Each sample's ``x`` must have sample 0's shape,
        and its ``u`` and ``u_des`` the shape of sample 0's ``u``."""
        if isinstance(samples, SampleSet):
            return samples
        if samples:
            want = {"x": samples[0].x.shape, "u": samples[0].u.shape,
                    "u_des": samples[0].u.shape}
        for k, s in enumerate(samples):
            for name, shape in want.items():
                value = getattr(s, name)
                if value is not None and value.shape != shape:
                    raise ValueError(f"sample {k}: {name} has shape {value.shape}, "
                                     f"expected {shape}")
        return cls._from_rows([vars(s) for s in samples])

    @classmethod
    def _from_rows(cls, rows) -> "SampleSet":
        """A set stacked from one dict of fields per sample, arrays of one
        shape; ``u_des`` is None or absent where the sample has none."""
        if not rows:
            return cls(np.zeros((0, 0)), np.zeros((0, 0, 0)), np.zeros((0, 0, 0)),
                       np.zeros(0, dtype=bool), np.zeros(0), np.zeros(0, dtype=int))
        has = np.array([row.get("u_des") is not None for row in rows])
        u = np.array([row["u"] for row in rows])
        u_des = np.full(u.shape, np.nan)
        if has.any():
            u_des[has] = [row["u_des"] for row in rows if row.get("u_des") is not None]
        return cls(np.array([row["x"] for row in rows]), u, u_des, has,
                   np.array([row["t"] for row in rows], dtype=float),
                   np.array([row["trajectory_id"] for row in rows], dtype=int))

    def nonfinite(self):
        """(row, field) of the first NaN or infinite entry, or None. Rows
        without desired controls are not read for ``u_des``."""
        for name in ("t", "x", "u", "u_des"):
            column = getattr(self, name)
            if not np.isfinite(column).all():
                bad = ~np.isfinite(column).reshape(len(self), -1).all(axis=1)
                if name == "u_des":
                    bad &= self.has_u_des
                if bad.any():
                    return int(np.argmax(bad)), name
        return None


@dataclass(frozen=True)
class InteractionScene:
    """Everything the filter needs at a sample: system, barrier, weights.

    ``state_map`` converts a stored sample state into the state the filter's
    system operates on (identity unless the system uses reduced coordinates,
    e.g. the weaving scene maps the absolute 8-dim joint state to the 4-dim
    relative state). ``desired_policy`` recomputes per-agent desired controls
    from a sample state, for datasets that do not store them.
    """

    system: ControlAffineSystem
    barrier: Barrier
    alpha_chain: tuple
    beta1: float = 0.1
    beta2: float = 600.0
    state_map: Optional[Callable[[np.ndarray], np.ndarray]] = None
    desired_policy: Optional[Callable[[np.ndarray], np.ndarray]] = None

    def __post_init__(self):
        if not 0.0 <= self.beta1 < math.inf:
            raise ValueError(f"beta1 must be nonnegative and finite, got {self.beta1}")
        if not 0.0 < self.beta2 < math.inf:
            raise ValueError(f"beta2 must be positive and finite, got {self.beta2}")

    def filter_state(self, x):
        x = np.asarray(x, dtype=float)
        return x if self.state_map is None else self.state_map(x)

    def desired_controls(self, samples: SampleSet):
        """Desired controls (B, N, d) of a sample set: its own rows, and the
        desired policy at the states of the rows without them."""
        if samples.has_u_des.all():
            return samples.u_des
        if self.desired_policy is None:
            raise ValueError("sample lacks desired controls and the scene has "
                             "no desired policy to recompute them")
        missing = ~samples.has_u_des
        u_des = samples.u_des.copy()
        u_des[missing] = self.desired_policy(samples.x[missing])
        return u_des

    def assemble(self, states):
        """Safety rows at one filter state (n,) or at a batch of them (B, n)."""
        return assemble_constraint(self.system, self.barrier, self.alpha_chain, states)

    def problem(self, constraint, u_des, gamma) -> FilterProblem:
        """The filter problem for one assembled safety row or a batch of them.

        ``u_des`` holds per-agent controls, (N, d) or (B, N, d), or stacked
        ones; it is reshaped to the rows' (m,) or (B, m).
        """
        lb, ub = self.system.control_bounds()
        return FilterProblem(constraint=constraint,
                             u_des=np.asarray(u_des, dtype=float).reshape(np.shape(constraint.a)),
                             gamma=gamma, beta1=self.beta1, beta2=self.beta2,
                             lb=lb, ub=ub)

    def build_problem(self, x, u_des, gamma) -> FilterProblem:
        return self.problem(self.assemble(self.filter_state(x)), u_des, gamma)


def two_agent_line_scene(gain=1.0, beta1=0.1, beta2=600.0, margin=1.0):
    """Two 1D single integrators that must stay ``margin`` apart."""
    system = make_single_integrator_1d(2)
    barrier = make_pairwise_distance_barrier(system, margin)
    return InteractionScene(system, barrier, (ClassKappaLinear(gain),),
                            beta1=beta1, beta2=beta2)


def planar_group_scene(n_agents=6, gains=(1.0, 1.0), beta1=0.1, beta2=600.0,
                       margin=1.0, temperature=10.0):
    """N planar double integrators with a closest-pair keep-apart barrier."""
    system = make_double_integrator_2d(n_agents)
    barrier = make_pairwise_distance_barrier(system, margin, temperature=temperature)
    chain = (ClassKappaLinear(gains[0]), ClassKappaLinear(gains[1]))
    return InteractionScene(system, barrier, chain, beta1=beta1, beta2=beta2)


def weaving_scene(gains=(1.0, 1.0), beta1=0.1, beta2=600.0,
                  axis_lon=9.22, axis_lat=1.76, policy=None):
    """Two cars in relative coordinates with an elliptical keep-out region.

    Sample states are absolute two-agent states (8 entries, layout
    [lon, lat, vlon, vlat] per agent), one (8,) or a batch (B, 8); the
    filter runs on r = x2 - x1. The handcrafted desired policy (with the
    given parameters) backs datasets that did not store desired controls.
    """
    system = make_relative_double_integrator()
    barrier = make_ellipse_barrier(axis_lon, axis_lat)
    chain = (ClassKappaLinear(gains[0]), ClassKappaLinear(gains[1]))
    params = policy or DesiredPolicyParams()

    def to_relative(x):
        x = np.asarray(x, dtype=float)
        if x.shape[-1:] == (4,):
            return x
        if x.shape[-1:] == (8,):
            return relative_state(x[..., :4], x[..., 4:])
        raise ValueError(f"expected 8-dim joint or 4-dim relative states, got {x.shape}")

    return InteractionScene(system, barrier, chain, beta1=beta1, beta2=beta2,
                            state_map=to_relative,
                            desired_policy=lambda x: desired_controls_weaving(x, params))


SCENE_BUILDERS = {
    "synthetic-2agent": two_agent_line_scene,
    "synthetic-6agent": planar_group_scene,
    "weaving": weaving_scene,
}


# -- handcrafted desired-control policies ------------------------------------


@dataclass(frozen=True)
class DesiredPolicyParams:
    """Tuning of the lane-change and spacing heuristics.

    Lateral: steer toward the target lane center, harder the farther the car
    has already traveled (lon_offset shifts where that ramp starts).
    Longitudinal: a car that is ahead speeds up, bounded by lon_limit; a car
    that is behind holds speed.
    """

    lon_offset: float = 4.7
    lat_gain: float = 0.022
    lat_rate: float = 0.8
    lon_limit: float = 2.0
    lat_targets: tuple = (1.85, -1.85)


def desired_lateral_control(x, params: DesiredPolicyParams, lat_target):
    """-(x_lon + lon_offset) * lat_gain * tanh(lat_rate * (x_lat - target)).

    ``x`` is one agent state (4,), giving a float, or an array of them (..., 4),
    giving (...); ``lat_target`` broadcasts against (...).
    """
    x = np.asarray(x, dtype=float)
    err = x[..., X_LAT] - lat_target
    out = (-(x[..., X_LON] + params.lon_offset) * params.lat_gain
           * np.tanh(params.lat_rate * err))
    return float(out) if out.ndim == 0 else out


def desired_longitudinal_control(r, params: DesiredPolicyParams = DesiredPolicyParams()):
    """Speed-up-when-ahead heuristic over r = other minus self.

    Zero when the other car is ahead (r_lon > 0); otherwise
    -(limit/2) * (tanh(r_lon * vr_lon) - 1), which saturates at the limit.
    ``r`` is one relative state (4,), giving a float, or an array of them
    (..., 4), giving (...).
    """
    r = np.asarray(r, dtype=float)
    out = np.where(r[..., 0] > 0, 0.0,
                   -(params.lon_limit / 2.0) * (np.tanh(r[..., 0] * r[..., 2]) - 1.0))
    return float(out) if out.ndim == 0 else out


def desired_controls_weaving(x_joint, params: DesiredPolicyParams):
    """Per-agent desired (lon, lat) controls for the two-car scenario.

    ``x_joint`` is one joint state (8,), giving (2, 2), or a batch (B, 8),
    giving (B, 2, 2). Both cars go through the per-car policies at once, on
    (..., 2, 4) views with relative states other minus self.
    """
    cars = np.asarray(x_joint, dtype=float).reshape(np.shape(x_joint)[:-1] + (2, 4))
    out = np.empty(cars.shape[:-1] + (2,))
    out[..., 0] = desired_longitudinal_control(cars[..., ::-1, :] - cars, params)
    out[..., 1] = desired_lateral_control(cars, params, params.lat_targets)
    return out


# -- ground-truth allocations -------------------------------------------------


def resolve_gamma_truth(gamma_truth, ks, states):
    """Allocations (B, N) at filter states (B, n), row b labelled ``ks[b]``.

    ``gamma_truth`` is a fixed vector (broadcast to every row), anything with
    a ``gamma_batch`` (a model, or ``speed_advantage_gamma``; called once on
    the whole state array), or a callable (k, x) -> vector (called once per
    row with that row's k and state).
    """
    if hasattr(gamma_truth, "gamma_batch"):
        return np.asarray(gamma_truth.gamma_batch(states), dtype=float)
    if callable(gamma_truth):
        return np.array([gamma_truth(k, x) for k, x in zip(ks, states)], dtype=float)
    gamma = np.asarray(gamma_truth, dtype=float)
    return np.broadcast_to(gamma, (len(states),) + gamma.shape)


def speed_advantage_gamma(sharpness=0.5, span=0.35):
    """Swap-symmetric truth for two cars: the faster car gets the larger share.

    gamma1(r) = 1/2 - span * tanh(sharpness * vr_lon) with r = x2 - x1, so a
    positive relative speed (car 2 faster) shifts deviation weight onto car 1
    while the swap identity gamma1(r) + gamma1(-r) = 1 holds exactly. The
    span keeps allocations away from 0/1 so the ridge term does not dominate
    either agent during closed-loop generation.

    The truth is called as ``truth(k, r)`` on one relative state (k is
    unused); ``truth.gamma_batch(R)`` maps relative states (B, 4) to (B, 2).
    """
    if not 0 < span <= 0.5:
        raise ValueError("span must lie in (0, 0.5]")

    def gamma_batch(R):
        gamma = np.empty((len(R), 2))
        gamma[:, 0] = 0.5 - span * np.tanh(sharpness * np.asarray(R, dtype=float)[:, 2])
        gamma[:, 1] = 1.0 - gamma[:, 0]
        return gamma

    def truth(k, r):
        return gamma_batch(np.asarray(r, dtype=float)[None])[0]

    truth.gamma_batch = gamma_batch
    return truth


# -- i.i.d. synthetic samples --------------------------------------------------


@dataclass
class ScenarioConfig:
    """Sampling box and noise for i.i.d. synthetic data."""

    state_low: np.ndarray
    state_high: np.ndarray
    udes_low: np.ndarray
    udes_high: np.ndarray
    n_samples: int = 128
    noise_variance: float = 0.1
    seed: int = 0

    def __post_init__(self):
        # Draws are formed as low + (high - low) * u, so the boxes are checked here.
        for lo, hi in (("state_low", "state_high"), ("udes_low", "udes_high")):
            for name in (lo, hi):
                value = np.asarray(getattr(self, name), dtype=float)
                if not np.all(np.isfinite(value)):
                    raise ValueError(f"{name} holds a NaN or infinite entry")
                setattr(self, name, value)
            low, high = getattr(self, lo), getattr(self, hi)
            if low.ndim != 1 or low.shape != high.shape:
                raise ValueError(f"{lo} and {hi} must be vectors of one shape, "
                                 f"got {low.shape} and {high.shape}")
            if np.any(low > high):
                raise ValueError(f"{lo} exceeds {hi} at entry {int(np.argmax(low > high))}")
        if self.n_samples <= 0:
            raise ValueError("n_samples must be positive")
        _check_noise(self.noise_variance)


def _check_noise(variance):
    if not 0.0 <= variance < math.inf:
        raise ValueError(f"noise_variance must be nonnegative and finite, got {variance}")


def default_two_agent_config(n_samples=128, noise_variance=0.1, seed=0):
    """Positions straddle the unit separation boundary; controls push together."""
    return ScenarioConfig(
        state_low=np.array([-1.0, 0.5]), state_high=np.array([1.0, 1.8]),
        udes_low=np.array([-3.0, -3.0]), udes_high=np.array([3.0, 3.0]),
        n_samples=n_samples, noise_variance=noise_variance, seed=seed)


def default_planar_group_config(n_agents=6, n_samples=128, noise_variance=0.1, seed=0):
    """Crowded positions (closest pairs near the margin), modest speeds."""
    lo, hi = [], []
    for _ in range(n_agents):
        lo += [-1.2, -1.2, -1.0, -1.0]
        hi += [1.2, 1.2, 1.0, 1.0]
    m = 2 * n_agents
    return ScenarioConfig(
        state_low=np.array(lo), state_high=np.array(hi),
        udes_low=-3.0 * np.ones(m), udes_high=3.0 * np.ones(m),
        n_samples=n_samples, noise_variance=noise_variance, seed=seed)


def generate_synthetic(config: ScenarioConfig, scene: InteractionScene,
                       gamma_truth) -> SampleSet:
    """Draw (state, desired control) pairs, filter them, add control noise.

    Sample k draws its state, desired control and noise in that order: the
    uniform doubles of the (state, desired control) box, scaled after the
    loop exactly as ``Generator.uniform`` scales them, then standard normals.
    """
    rng = np.random.default_rng(config.seed)
    dims = scene.system.control_dims
    if len(set(dims)) != 1:
        raise ValueError("heterogeneous control dims not supported in samples")
    n, B = config.state_low.size, config.n_samples
    raw = np.empty((B, n + config.udes_low.size))
    noise = np.empty((B, scene.system.control_dim_total))
    for k in range(B):
        rng.random(out=raw[k])
        rng.standard_normal(out=noise[k])
    X = config.state_low + (config.state_high - config.state_low) * raw[:, :n]
    U_des = config.udes_low + (config.udes_high - config.udes_low) * raw[:, n:]
    states = scene.filter_state(X)
    gammas = resolve_gamma_truth(gamma_truth, range(B), states)
    problem = scene.problem(scene.assemble(states), U_des, gammas)
    problem.validate_allocation(tol=1e-6)
    U_obs = filtered_controls(problem) + float(np.sqrt(config.noise_variance)) * noise
    shape = (B, len(dims), dims[0])
    return SampleSet(X, U_obs.reshape(shape), U_des.reshape(shape), np.ones(B, dtype=bool),
                     np.zeros(B), np.arange(B))


def active_fraction(samples, scene, gamma_truth):
    """Share of samples whose safety row binds under the given allocation.

    ``gamma_truth`` takes every form ``resolve_gamma_truth`` accepts; a
    callable receives the sample's position in ``samples`` as k.
    """
    samples = SampleSet.from_samples(samples)
    states = scene.filter_state(samples.x)
    gammas = resolve_gamma_truth(gamma_truth, range(len(states)), states)
    u_des = scene.desired_controls(samples)
    sol = solve_filter(scene.problem(scene.assemble(states), u_des, gammas))
    return float(np.mean(sol.lam_cbf > 1e-9))


# -- closed-loop two-lane weaving ---------------------------------------------


@dataclass
class WeavingConfig:
    """Geometry and horizon of the two-car lane-swap generator."""

    lane_centers: tuple = (-1.85, 1.85)
    speed_range: tuple = (8.0, 12.0)
    dt: float = 0.1
    steps: int = 150
    noise_variance: float = 0.0
    policy: DesiredPolicyParams = field(default_factory=DesiredPolicyParams)
    start_lon_spread: float = 2.0

    def __post_init__(self):
        if self.steps < 1:
            raise ValueError(f"steps must be at least 1, got {self.steps}")
        if not 0.0 < self.dt < math.inf:
            raise ValueError(f"dt must be positive and finite, got {self.dt}")
        _check_noise(self.noise_variance)


WEAVING_KINDS = ("single", "side_by_side", "rear_overtake", "mixed")


def _weaving_initial_state(kind, rng, cfg: WeavingConfig):
    lower, upper = cfg.lane_centers
    if kind == "side_by_side":
        speed = rng.uniform(*cfg.speed_range)
        lon = rng.uniform(-cfg.start_lon_spread, cfg.start_lon_spread)
        x1 = np.array([lon, lower, speed, 0.0])
        x2 = np.array([lon, upper, speed, 0.0])
    elif kind == "rear_overtake":
        # Upper-lane car starts ~2 m/s faster and ~3 m behind.
        v_slow = rng.uniform(*cfg.speed_range)
        lon = rng.uniform(-cfg.start_lon_spread, cfg.start_lon_spread)
        x1 = np.array([lon, lower, v_slow, 0.0])
        x2 = np.array([lon - 3.0, upper, v_slow + 2.0, 0.0])
    elif kind == "single":
        x1 = np.array([0.0, lower, 10.0, 0.0])
        x2 = np.array([-3.0, upper, 12.0, 0.0])
    else:
        raise ValueError(f"unknown weaving kind {kind!r}; expected one of {WEAVING_KINDS}")
    return np.concatenate([x1, x2])


def generate_weaving_trajectories(kind, count, seed=0, gamma_truth=None,
                                  scene: Optional[InteractionScene] = None,
                                  config: Optional[WeavingConfig] = None) -> SampleSet:
    """Roll out lane-swap interactions under the filtered desired policies.

    ``kind`` selects the initial-condition family ("mixed" alternates over
    the others). The ground-truth allocation defaults to the faster-car-
    yields-less rule. Samples from trajectory j carry trajectory_id j and
    come out grouped by trajectory. Trajectory j draws its initial state and
    then, if the noise is nonzero, a (steps, 4) block of control noise; all
    trajectories then advance in lockstep, with one u*-only filter solve
    over every trajectory's safety row per step, writing one (count, steps,
    ...) array per field; the set's fields are those arrays' (count * steps,
    ...) views.
    """
    if kind not in WEAVING_KINDS:
        raise ValueError(f"unknown weaving kind {kind!r}; expected one of {WEAVING_KINDS}")
    if count <= 0:
        raise ValueError("count must be positive")
    scene = scene or weaving_scene()
    cfg = config or WeavingConfig()
    gamma_truth = gamma_truth if gamma_truth is not None else speed_advantage_gamma()
    rng = np.random.default_rng(seed)
    std = float(np.sqrt(cfg.noise_variance))
    # Each car's lateral goal is the other lane's center.
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

    # Step k of trajectory j writes row [j, k] of each array.
    states = np.empty((count, cfg.steps, 8))
    executed = np.empty((count, cfg.steps, 2, 2))
    desired = np.empty((count, cfg.steps, 2, 2))
    positions, velocities = np.split(X.reshape(count, 2, 4), 2, axis=2)   # views of X
    for step in range(cfg.steps):
        states[:, step] = X
        R = scene.filter_state(X)
        desired[:, step] = U_des = desired_controls_weaving(X, policy)
        gammas = resolve_gamma_truth(gamma_truth, [step] * count, R)
        U = (filtered_controls(scene.problem(scene.assemble(R), U_des, gammas))
             + noise[:, step]).reshape(count, 2, 2)
        executed[:, step] = U
        # The noisy executed control drives the cars (process noise); it
        # also breaks the side-by-side tie so either car may end up ahead.
        positions += cfg.dt * velocities
        velocities += cfg.dt * U
    rows = count * cfg.steps
    return SampleSet(states.reshape(rows, 8), executed.reshape(rows, 2, 2),
                     desired.reshape(rows, 2, 2), np.ones(rows, dtype=bool),
                     np.tile(np.arange(cfg.steps) * cfg.dt, count),
                     np.repeat(np.arange(count), cfg.steps))


# -- augmentations --------------------------------------------------------------


def augment(samples, kind: str) -> SampleSet:
    """The samples followed by transformed copies of them (two-car lane samples).

    ``mirror_lateral`` flips every lateral state and control across the lane
    divider; ``swap_agents`` exchanges the two agents (negating the relative
    state). Both are involutions on the transformed copies. A copy keeps its
    sample's time, trajectory id and lack of desired controls.
    """
    if kind not in ("mirror_lateral", "swap_agents"):
        raise ValueError(f"unknown augmentation {kind!r}")
    s = SampleSet.from_samples(samples)
    if not len(s):
        return s
    if s.x.shape[1:] != (8,) or s.u.shape[1:] != (2, 2):
        raise ValueError("augmentations require two-agent [lon, lat, vlon, vlat] samples")
    if kind == "mirror_lateral":
        X, U, U_des = s.x.copy(), s.u.copy(), s.u_des.copy()
        X[:, [X_LAT, X_VLAT, 4 + X_LAT, 4 + X_VLAT]] *= -1.0
        U[:, :, 1] *= -1.0
        U_des[:, :, 1] *= -1.0
    else:
        X = np.concatenate([s.x[:, 4:], s.x[:, :4]], axis=1)
        U, U_des = s.u[:, ::-1], s.u_des[:, ::-1]
    copies = (X, U, U_des, s.has_u_des, s.t, s.trajectory_id)
    return SampleSet(*(np.concatenate(pair) for pair in zip(vars(s).values(), copies)))


# -- trajectory files ------------------------------------------------------------


def atomic_write(path, text):
    """Replace ``path`` with ``text`` via a temporary file in the same directory.

    The file gets the mode ``open(path, "w")`` gives a new file, 0o666 less
    the umask.
    """
    path = os.fspath(path)
    tmp = os.path.join(os.path.dirname(os.path.abspath(path)),
                       f".{os.path.basename(path)}.{os.urandom(8).hex()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def save_trajectories(samples, path, scenario="custom", extra_header: Optional[dict] = None):
    """Write newline-delimited JSON: one header record, then one per sample.

    Floats are written by repr and parse back bit-exactly. ``samples`` is a
    ``SampleSet`` or a sequence of ``InteractionSample``s of one shape; a NaN
    or infinite entry is a ValueError naming the sample and the field, and
    leaves ``path`` as it was.
    """
    s = SampleSet.from_samples(samples)
    bad = s.nonfinite()
    if bad is not None:
        raise ValueError(f"sample {bad[0]}: non-finite value in {bad[1]}; "
                         f"{path} not written")
    n_agents, control_dim = s.u.shape[1:] if len(s) else (0, 0)
    header = {"version": TRAJECTORY_FORMAT_VERSION, "n_agents": n_agents,
              "state_dim": s.x.shape[1] if len(s) else 0, "control_dim": control_dim,
              "scenario": scenario}
    if extra_header:
        header.update(extra_header)
    lines = [json.dumps(header)]
    # A list of finite floats reprs as JSON does.
    u_des = s.u_des.tolist()
    for tid, t, x, u, has, d in zip(s.trajectory_id.tolist(), s.t.tolist(), s.x.tolist(),
                                    s.u.tolist(), s.has_u_des.tolist(), u_des):
        tail = f', "u_des": {d!r}}}' if has else "}"
        lines.append(f'{{"trajectory_id": {tid}, "t": {t!r}, "x": {x!r}, "u": {u!r}{tail}')
    atomic_write(path, "\n".join(lines) + "\n")


def read_header(path) -> dict:
    with open(path) as fh:
        first = fh.readline()
    if not first.strip():
        raise TrajectoryFormatError(f"{path}: empty file, expected a header record")
    try:
        header = json.loads(first)
    except json.JSONDecodeError as exc:
        raise TrajectoryFormatError(f"{path}: header is not valid JSON: {exc}") from exc
    if not isinstance(header, dict):
        raise TrajectoryFormatError(f"{path}: header must be a JSON object, got {header!r}")
    for key in ("version", "n_agents", "state_dim", "control_dim", "scenario"):
        if key not in header:
            raise TrajectoryFormatError(f"{path}: header missing field {key!r}")
    if header["version"] != TRAJECTORY_FORMAT_VERSION:
        raise TrajectoryFormatError(
            f"{path}: unsupported format version {header['version']}")
    for key in ("n_agents", "state_dim", "control_dim"):
        value = header[key]
        # A JSON integer: true, 2.0 and "2" are not dimensions.
        if isinstance(value, bool) or not isinstance(value, int) or value < 0:
            raise TrajectoryFormatError(
                f"{path}: header {key} must be a nonnegative integer, got {value!r}")
    return header


REQUIRED_FIELDS = ("trajectory_id", "t", "x", "u")   # in the order they are checked
KNOWN_FIELDS = frozenset(REQUIRED_FIELDS + ("u_des",))


def _numbers_only(value):
    """False if ``value`` holds a JSON string or boolean anywhere."""
    text = json.dumps(value)
    return '"' not in text and "true" not in text and "false" not in text


def load_trajectories(path) -> SampleSet:
    """Parse and validate a trajectory file; order is preserved.

    Records are checked in file order, so an error names the first bad
    record and its line. A key given twice keeps its last value, as in
    ``json.loads``. Strings and booleans are looked for on the raw line:
    unless a value holds a string or a key repeats, the keys make all of the
    line's quotes, and then "true" or "false" can only be booleans. Only a
    line that fails this is searched value by value.
    """
    header = read_header(path)
    shapes = {"x": (header["state_dim"],), "u": (header["n_agents"], header["control_dim"])}
    shapes["u_des"] = shapes["u"]
    rows = []
    with open(path) as fh:
        fh.readline()
        for line_no, line in enumerate(fh, start=2):
            if not line.strip():
                continue
            where = f"{path}: record {len(rows)} (line {line_no})"
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as exc:
                raise TrajectoryFormatError(f"{where}: invalid JSON: {exc}") from exc
            if not isinstance(rec, dict):
                raise TrajectoryFormatError(f"{where}: record must be a JSON object, "
                                            f"got {type(rec).__name__}")
            for key in REQUIRED_FIELDS:
                if key not in rec:
                    raise TrajectoryFormatError(f"{where}: missing field {key!r}")
            if not KNOWN_FIELDS.issuperset(rec):
                unknown = next(key for key in rec if key not in KNOWN_FIELDS)
                raise TrajectoryFormatError(f"{where}: unknown field {unknown!r}")
            t, tid = rec["t"], rec["trajectory_id"]
            # bool is an int subclass; JSON true is not a number here.
            try:
                finite = not isinstance(t, bool) and math.isfinite(t)
            except (TypeError, OverflowError):      # not a number; an int beyond float range
                finite = False
            if not finite:
                raise TrajectoryFormatError(f"{where}: t must be a finite number, got {t!r}")
            if isinstance(tid, bool) or not isinstance(tid, int):
                raise TrajectoryFormatError(
                    f"{where}: trajectory_id must be an integer, got {tid!r}")
            if not -2 ** 63 <= tid < 2 ** 63:
                raise TrajectoryFormatError(
                    f"{where}: trajectory_id {tid} does not fit in 64 bits")
            plain = (line.count('"') == 2 * len(rec)
                     and "true" not in line and "false" not in line)
            row = {"t": t, "trajectory_id": tid}
            for key, shape in shapes.items():
                if key not in rec:      # only u_des is optional
                    continue
                if not (plain or _numbers_only(rec[key])):
                    raise TrajectoryFormatError(f"{where}: {key} is not an array of numbers")
                try:
                    value = row[key] = np.asarray(rec[key], dtype=float)
                except (TypeError, ValueError) as exc:
                    raise TrajectoryFormatError(f"{where}: {key} is not an array of "
                                                "numbers") from exc
                except OverflowError as exc:     # an integer beyond float range
                    raise TrajectoryFormatError(f"{where}: non-finite value in {key}") from exc
                if value.shape != shape:
                    raise TrajectoryFormatError(
                        f"{where}: {key} has shape {value.shape}, header says {shape}")
                if not np.isfinite(value).all():
                    raise TrajectoryFormatError(f"{where}: non-finite value in {key}")
            rows.append(row)
    return SampleSet._from_rows(rows)


def export_csv(samples, path, header_comment=None):
    """Flat CSV of the same columns, one row per sample, for plotting."""
    s = SampleSet.from_samples(samples)
    lines = []
    if header_comment:
        lines.append("# " + header_comment)
    if len(s):
        B, n, m = s.u.shape
        cols = (["trajectory_id", "t"]
                + [f"x{j}" for j in range(s.x.shape[1])]
                + [f"u{i}_{j}" for i in range(n) for j in range(m)]
                + [f"udes{i}_{j}" for i in range(n) for j in range(m)])
        lines.append(",".join(cols))
        values = np.hstack([s.t[:, None], s.x, s.u.reshape(B, -1), s.u_des.reshape(B, -1)])
        bare = values.shape[1] - n * m
        for tid, has, row in zip(s.trajectory_id.tolist(), s.has_u_des.tolist(),
                                 values.tolist()):
            if has:
                lines.append(f"{tid}," + ",".join(map(repr, row)))
            else:
                lines.append(f"{tid}," + ",".join(map(repr, row[:bare])) + "," * (n * m))
    else:
        lines.append("trajectory_id,t")
    atomic_write(path, "\n".join(lines) + "\n")
