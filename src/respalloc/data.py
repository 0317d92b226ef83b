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

Files are newline-delimited JSON with a header record; see
``save_trajectories``.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
from dataclasses import dataclass, field, replace
from typing import Callable, Optional, Sequence

import numpy as np

from .barriers import (Barrier, ClassKappaLinear, assemble_constraint,
                       make_ellipse_barrier, make_pairwise_distance_barrier)
from .dynamics import (ControlAffineSystem, make_double_integrator_2d,
                       make_relative_double_integrator,
                       make_single_integrator_1d, relative_state)
from .filter_qp import FilterProblem, solve_filter

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

    def desired_controls(self, sample):
        if sample.u_des is not None:
            return sample.u_des
        if self.desired_policy is None:
            raise ValueError("sample lacks desired controls and the scene has "
                             "no desired policy to recompute them")
        return np.asarray(self.desired_policy(sample.x), dtype=float)

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
                             u_des=np.reshape(np.asarray(u_des, dtype=float),
                                              np.shape(constraint.a)),
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

    ``x`` is one agent state (4,), giving a float, or a batch (B, 4), giving (B,).
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
    ``r`` is one relative state (4,), giving a float, or a batch (B, 4),
    giving (B,).
    """
    r = np.asarray(r, dtype=float)
    out = np.where(r[..., 0] > 0, 0.0,
                   -(params.lon_limit / 2.0) * (np.tanh(r[..., 0] * r[..., 2]) - 1.0))
    return float(out) if out.ndim == 0 else out


def desired_controls_weaving(x_joint, params: DesiredPolicyParams):
    """Per-agent desired (lon, lat) controls for the two-car scenario.

    ``x_joint`` is one joint state (8,), giving (2, 2), or a batch (B, 8),
    giving (B, 2, 2).
    """
    x = np.asarray(x_joint, dtype=float)
    x1, x2 = x[..., :4], x[..., 4:]
    out = np.zeros(x.shape[:-1] + (2, 2))
    out[..., 0, 0] = desired_longitudinal_control(relative_state(x1, x2), params)
    out[..., 1, 0] = desired_longitudinal_control(relative_state(x2, x1), params)
    out[..., 0, 1] = desired_lateral_control(x1, params, params.lat_targets[0])
    out[..., 1, 1] = desired_lateral_control(x2, params, params.lat_targets[1])
    return out


# -- ground-truth allocations -------------------------------------------------


def resolve_gamma_truth(gamma_truth, ks, states):
    """Allocations (B, N) at filter states (B, n), row b labelled ``ks[b]``.

    ``gamma_truth`` is a fixed vector (broadcast to every row), a callable
    (k, x) -> vector (called once per row with that row's k and state), or a
    model (its ``gamma`` called once per state).
    """
    if callable(gamma_truth):
        return np.array([gamma_truth(k, x) for k, x in zip(ks, states)], dtype=float)
    if hasattr(gamma_truth, "gamma"):
        return np.array([gamma_truth.gamma(x) for x in states], dtype=float)
    gamma = np.asarray(gamma_truth, dtype=float)
    return np.broadcast_to(gamma, (len(states),) + gamma.shape)


def speed_advantage_gamma(sharpness=0.5, span=0.35):
    """Swap-symmetric truth for two cars: the faster car gets the larger share.

    gamma1(r) = 1/2 - span * tanh(sharpness * vr_lon) with r = x2 - x1, so a
    positive relative speed (car 2 faster) shifts deviation weight onto car 1
    while the swap identity gamma1(r) + gamma1(-r) = 1 holds exactly. The
    span keeps allocations away from 0/1 so the ridge term does not dominate
    either agent during closed-loop generation.
    """
    if not 0 < span <= 0.5:
        raise ValueError("span must lie in (0, 0.5]")

    def truth(k, r):
        g1 = 0.5 - span * np.tanh(sharpness * np.asarray(r, dtype=float)[2])
        return np.array([g1, 1.0 - g1])

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
                       gamma_truth) -> list:
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
    U_obs = solve_filter(problem).u + float(np.sqrt(config.noise_variance)) * noise
    shape = (B, len(dims), dims[0])
    return [InteractionSample(x=x, u=u_obs, u_des=u_des, t=0.0, trajectory_id=k)
            for k, (x, u_obs, u_des) in enumerate(zip(X, U_obs.reshape(shape),
                                                      U_des.reshape(shape)))]


def active_fraction(samples, scene, gamma_truth):
    """Share of samples whose safety row binds under the given allocation.

    ``gamma_truth`` takes every form ``resolve_gamma_truth`` accepts; a
    callable receives the sample's position in ``samples`` as k.
    """
    states = scene.filter_state(np.array([s.x for s in samples]))
    gammas = resolve_gamma_truth(gamma_truth, range(len(states)), states)
    u_des = np.array([scene.desired_controls(s) for s in samples])
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
                                  config: Optional[WeavingConfig] = None) -> list:
    """Roll out lane-swap interactions under the filtered desired policies.

    ``kind`` selects the initial-condition family ("mixed" alternates over
    the others). The ground-truth allocation defaults to the faster-car-
    yields-less rule. Samples from trajectory j carry trajectory_id j and
    come out grouped by trajectory. Trajectory j draws its initial state and
    then, if the noise is nonzero, a (steps, 4) block of control noise; all
    trajectories then advance in lockstep, with one filter solve over every
    trajectory's safety row per step.
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
        # The noisy executed control drives the cars (process noise); it
        # also breaks the side-by-side tie so either car may end up ahead.
        cars = X.reshape(count, 2, 4)
        cars[:, :, :2] += cfg.dt * cars[:, :, 2:]
        cars[:, :, 2:] += cfg.dt * U
    return [s for samples in per_traj for s in samples]


# -- augmentations --------------------------------------------------------------


def augment(samples: Sequence[InteractionSample], kind: str) -> list:
    """Append transformed copies of two-car lane samples.

    ``mirror_lateral`` flips every lateral state and control across the lane
    divider; ``swap_agents`` exchanges the two agents (negating the relative
    state). Both are involutions on the transformed copies.
    """
    if kind not in ("mirror_lateral", "swap_agents"):
        raise ValueError(f"unknown augmentation {kind!r}")
    out = list(samples)
    for s in samples:
        if s.x.shape != (8,) or s.u.shape != (2, 2):
            raise ValueError(
                "augmentations require two-agent [lon, lat, vlon, vlat] samples")
        x = s.x.copy()
        u = s.u.copy()
        u_des = None if s.u_des is None else s.u_des.copy()
        if kind == "mirror_lateral":
            for i in range(2):
                x[4 * i + X_LAT] *= -1.0
                x[4 * i + X_VLAT] *= -1.0
            u[:, 1] *= -1.0
            if u_des is not None:
                u_des[:, 1] *= -1.0
        else:
            x = np.concatenate([x[4:], x[:4]])
            u = u[::-1].copy()
            if u_des is not None:
                u_des = u_des[::-1].copy()
        out.append(InteractionSample(x=x, u=u, u_des=u_des, t=s.t,
                                     trajectory_id=s.trajectory_id))
    return out


# -- trajectory files ------------------------------------------------------------


def atomic_write(path, text):
    """Replace ``path`` with ``text`` via a temporary file in the same directory."""
    path = os.fspath(path)
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)) or ".",
                               suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def save_trajectories(samples: Sequence[InteractionSample], path, scenario="custom",
                      extra_header: Optional[dict] = None):
    """Write newline-delimited JSON: one header record, then one per sample.

    Floats are serialized via repr and parse back bit-exactly.
    """
    if samples:
        n_agents, control_dim = samples[0].u.shape
        state_dim = samples[0].x.size
    else:
        n_agents, control_dim, state_dim = 0, 0, 0
    header = {"version": TRAJECTORY_FORMAT_VERSION, "n_agents": n_agents,
              "state_dim": state_dim, "control_dim": control_dim,
              "scenario": scenario}
    if extra_header:
        header.update(extra_header)
    lines = [json.dumps(header)]
    for s in samples:
        rec = {"trajectory_id": int(s.trajectory_id), "t": float(s.t),
               "x": [float(v) for v in s.x],
               "u": [[float(v) for v in row] for row in s.u]}
        if s.u_des is not None:
            rec["u_des"] = [[float(v) for v in row] for row in s.u_des]
        lines.append(json.dumps(rec))
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
    for key in ("version", "n_agents", "state_dim", "control_dim", "scenario"):
        if key not in header:
            raise TrajectoryFormatError(f"{path}: header missing field {key!r}")
    if header["version"] != TRAJECTORY_FORMAT_VERSION:
        raise TrajectoryFormatError(
            f"{path}: unsupported format version {header['version']}")
    return header


def load_trajectories(path) -> list:
    """Parse and validate a trajectory file; order is preserved."""
    header = read_header(path)
    n_agents, state_dim, control_dim = (header["n_agents"], header["state_dim"],
                                        header["control_dim"])
    samples = []
    with open(path) as fh:
        fh.readline()
        for line_no, line in enumerate(fh, start=2):
            if not line.strip():
                continue
            rec_no = len(samples)
            where = f"{path}: record {rec_no} (line {line_no})"
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as exc:
                raise TrajectoryFormatError(f"{where}: invalid JSON: {exc}") from exc
            for key in ("trajectory_id", "t", "x", "u"):
                if key not in rec:
                    raise TrajectoryFormatError(f"{where}: missing field {key!r}")
            x = np.asarray(rec["x"], dtype=float)
            u = np.asarray(rec["u"], dtype=float)
            if x.shape != (state_dim,):
                raise TrajectoryFormatError(
                    f"{where}: state has shape {x.shape}, header says ({state_dim},)")
            if u.shape != (n_agents, control_dim):
                raise TrajectoryFormatError(
                    f"{where}: controls have shape {u.shape}, header says "
                    f"({n_agents}, {control_dim})")
            u_des = None
            if "u_des" in rec:
                u_des = np.asarray(rec["u_des"], dtype=float)
                if u_des.shape != (n_agents, control_dim):
                    raise TrajectoryFormatError(f"{where}: u_des shape mismatch")
            arrays = [x, u] + ([u_des] if u_des is not None else [])
            if not all(np.all(np.isfinite(a)) for a in arrays):
                raise TrajectoryFormatError(f"{where}: non-finite value")
            samples.append(InteractionSample(x=x, u=u, u_des=u_des,
                                             t=float(rec["t"]),
                                             trajectory_id=int(rec["trajectory_id"])))
    return samples


def export_csv(samples: Sequence[InteractionSample], path, header_comment=None):
    """Flat CSV of the same columns, one row per sample, for plotting."""
    lines = []
    if header_comment:
        lines.append("# " + header_comment)
    if samples:
        sdim = samples[0].x.size
        n, m = samples[0].u.shape
        cols = (["trajectory_id", "t"]
                + [f"x{j}" for j in range(sdim)]
                + [f"u{i}_{j}" for i in range(n) for j in range(m)]
                + [f"udes{i}_{j}" for i in range(n) for j in range(m)])
        lines.append(",".join(cols))
        for s in samples:
            row = [str(int(s.trajectory_id)), repr(float(s.t))]
            row += [repr(float(v)) for v in s.x]
            row += [repr(float(v)) for v in s.u.ravel()]
            if s.u_des is not None:
                row += [repr(float(v)) for v in s.u_des.ravel()]
            else:
                row += [""] * (n * m)
            lines.append(",".join(row))
    else:
        lines.append("trajectory_id,t")
    atomic_write(path, "\n".join(lines) + "\n")
