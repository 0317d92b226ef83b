"""Bi-level allocation learning.

The outer problem regresses observed controls onto filter outputs: for each
sample the model produces an allocation gamma from the sample's context, the
safety-filter QP is solved at the sample's state, and the mismatch between
its optimum and the observed controls is scored (Huber by default). The
gradient chains d loss / d u*  .  d u* / d gamma  .  d gamma / d params,
with the middle factor coming from the QP's closed form (``filter_qp``).
Each chunk of the minibatch is checked once as one batch problem, then
solved and pulled back through w . du*/dgamma, without forming the
Jacobians, in blocks of ``filter_qp.BLOCK_ROWS`` = 4 rows: larger blocks
make step time grow more slowly in the batch size, and the scaling tests,
which start at B = 8, then fail more often on a noisy host.

A step runs the minibatch in the chunks of ``models.chunk_slices``: whole
contexts, at most ``models.CHUNK_ROWS`` network rows each
(``net_rows_per_context`` of the model per context), the split
``gamma_batch`` also uses. Each chunk goes forward through the model,
through its filter solves and their pullback, and back through the model
before the next starts, so the activations the pullback reads are still in
L2 cache. Models with few rows per context (constant, MLP, relative) take
the whole minibatch as one chunk; the 6-agent symmetric model, at 720 rows
per context, takes four contexts per chunk.

Safety rows do not depend on gamma, so constraint assembly is hoisted out of
the training loop (``prepare_batch``).
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np

from .barriers import CbfLinearConstraint
from .data import InteractionScene, SampleSet, atomic_write
# solve_filter and differentiate_filter stay bound here: perfbench's tracer wraps them by name.
from .filter_qp import (FilterProblem, differentiate_filter, solve_filter,  # noqa: F401
                        solve_rows_and_pullback)
from .models import ConstantGamma, chunk_slices

LOSS_METRICS = ("huber", "l2", "l1")
PROBE_COUNT = 16        # contexts whose allocation a network model's fit tracks per epoch


@dataclass
class TrainConfig:
    epochs: int = 3000
    batch_size: int = 16
    learning_rate: float = 1e-3
    optimizer: str = "adam"           # "adam" or "sgd"
    loss_metric: str = "huber"
    huber_delta: float = 1.0
    seed: int = 0
    divergence_limit: float = 1e6

    def __post_init__(self):
        if self.epochs <= 0 or self.batch_size <= 0:
            raise ValueError("epochs and batch_size must be positive")
        for name in ("learning_rate", "huber_delta"):
            value = getattr(self, name)
            if not 0.0 < value < math.inf:
                raise ValueError(f"{name} must be positive and finite, got {value}")
        if self.optimizer not in ("adam", "sgd"):
            raise ValueError(f"unknown optimizer {self.optimizer!r}")
        if self.loss_metric not in LOSS_METRICS:
            raise ValueError(f"unknown loss metric {self.loss_metric!r}")


def residual_loss(residual, metric="huber", delta=1.0):
    """Elementwise loss summed over a residual vector, and its derivative."""
    r = np.asarray(residual, dtype=float)
    if metric == "l2":
        return float(np.sum(r ** 2)), 2.0 * r
    if metric == "l1":
        return float(np.sum(np.abs(r))), np.sign(r)
    if metric == "huber":
        # The derivative is r clipped to [-delta, delta], and q (r - q / 2)
        # rounds as 0.5 r^2 inside and delta (|r| - delta / 2) outside.
        q = np.minimum(np.maximum(r, -delta), delta)
        return float((q * (r - 0.5 * q)).sum()), q
    raise ValueError(f"unknown loss metric {metric!r}")


@dataclass
class PreparedBatch:
    """Constraint rows and stacked controls hoisted out of the inner loop."""

    contexts: np.ndarray        # (B, context_dim) model inputs
    constraints: CbfLinearConstraint    # a (B, m), offset (B,)
    u_des: np.ndarray           # (B, m) stacked desired controls
    u_obs: np.ndarray           # (B, m) stacked observed controls
    lb: np.ndarray
    ub: np.ndarray
    beta1: float
    beta2: float

    def __len__(self):
        return len(self.u_des)

    def subset(self, idx):
        rows = self.constraints
        return PreparedBatch(
            contexts=self.contexts[idx],
            constraints=CbfLinearConstraint(rows.a[idx], rows.offset[idx], rows.agent_dims),
            u_des=self.u_des[idx], u_obs=self.u_obs[idx], lb=self.lb, ub=self.ub,
            beta1=self.beta1, beta2=self.beta2)


def prepare_batch(samples: SampleSet, scene: InteractionScene,
                  context_dim=None) -> PreparedBatch:
    """Assemble the samples' safety rows once; they do not depend on gamma."""
    B = len(samples)
    if not B:
        raise ValueError("empty batch")
    states = scene.filter_state(samples.x)
    cons = scene.assemble(states)
    u_des = scene.desired_controls(samples).reshape(B, -1)
    u_obs = samples.u.reshape(B, -1)
    lb, ub = scene.system.control_bounds()
    ctx = np.zeros((B, 0)) if context_dim == 0 else states
    return PreparedBatch(contexts=ctx, constraints=cons, u_des=u_des, u_obs=u_obs,
                         lb=lb, ub=ub, beta1=scene.beta1, beta2=scene.beta2)


def _solve(prep: PreparedBatch, gamma):
    """The rows' filter optima u* (B, m) at allocations ``gamma`` and their pullback."""
    return solve_rows_and_pullback(FilterProblem(
        prep.constraints, prep.u_des, gamma, prep.beta1, prep.beta2, prep.lb, prep.ub))


def _residual_loss(prep: PreparedBatch, u, config: TrainConfig):
    """Summed loss over the rows and its derivative in each row's u*.

    Every metric is even in the residual u_obs - u*, so it is scored on
    u* - u_obs, whose derivative is the one in u*.
    """
    return residual_loss(u - prep.u_obs, config.loss_metric, config.huber_delta)


def _mean_loss(total, rows):
    loss = total / rows
    if math.isnan(loss):
        raise FloatingPointError("loss is NaN; check data and filter weights")
    return loss


def batch_loss(prep: PreparedBatch, model, config: TrainConfig) -> float:
    """Mean per-sample loss of filter outputs against observed controls."""
    u, _ = _solve(prep, model.gamma_batch(prep.contexts))
    return _mean_loss(_residual_loss(prep, u, config)[0], len(prep))


def batch_loss_and_grad(prep: PreparedBatch, model, config: TrainConfig):
    """Loss plus its gradient in the model's flat parameters.

    The minibatch runs in the chunks of ``chunk_slices`` (whole contexts,
    at most ``models.CHUNK_ROWS`` network rows each): each chunk's forward, filter
    solves and the two pullbacks run back to back, while its activations
    are still in cache. Every row is in exactly one chunk, so each runs one
    model forward; the loss is the sum of the chunks' row losses over the
    batch size, and the gradient the sum of their pullbacks.
    """
    n = len(prep)
    parts = chunk_slices(model, n)
    total, grad = 0.0, 0.0
    for part in parts:
        chunk = prep if len(parts) == 1 else prep.subset(part)
        gamma, pullback = model.gamma_and_pullback(chunk.contexts)
        u, filter_pullback = _solve(chunk, gamma)
        chunk_total, dval_du = _residual_loss(chunk, u, config)
        total += chunk_total
        grad = grad + pullback(filter_pullback(dval_du) / n)
        # Dropped before the next chunk's forward, which can then reuse the
        # model's activation block (SymmetricGammaN).
        del pullback, filter_pullback
    return _mean_loss(total, n), grad


def time_loss_and_grad(prep: PreparedBatch, model, config: TrainConfig, sizes, repeats=5):
    """Seconds of ``batch_loss_and_grad`` on the first ``size`` rows of ``prep``
    for each size, best of ``repeats`` after one warm-up call, and the slope of
    log time against log size."""
    times = []
    for size in sizes:
        sub = prep.subset(np.arange(size))
        batch_loss_and_grad(sub, model, config)      # warm-up
        best = math.inf
        for _ in range(repeats):
            t0 = time.perf_counter()
            batch_loss_and_grad(sub, model, config)
            best = min(best, time.perf_counter() - t0)
        times.append(best)
    return times, float(np.polyfit(np.log(sizes), np.log(times), 1)[0])


def loss(samples, model, scene: InteractionScene, config: Optional[TrainConfig] = None):
    """Spec-level entry point over raw samples."""
    config = config or TrainConfig()
    return batch_loss(prepare_batch(samples, scene, model.context_dim), model, config)


class Sgd:
    def __init__(self, learning_rate):
        self.learning_rate = learning_rate

    def step(self, params, grad):
        return params - self.learning_rate * grad


class Adam:
    """Moment-averaged steps with bias correction."""

    BETA_M, BETA_V, EPS = 0.9, 0.999, 1e-8

    def __init__(self, learning_rate):
        self.learning_rate = learning_rate
        self.m = None
        self.v = None
        self.t = 0

    def step(self, params, grad):
        if self.m is None:
            self.m = np.zeros_like(params)
            self.v = np.zeros_like(params)
        self.t += 1
        self.m = self.BETA_M * self.m + (1 - self.BETA_M) * grad
        self.v = self.BETA_V * self.v + (1 - self.BETA_V) * grad ** 2
        m_hat = self.m / (1 - self.BETA_M ** self.t)
        v_hat = self.v / (1 - self.BETA_V ** self.t)
        return params - self.learning_rate * m_hat / (np.sqrt(v_hat) + self.EPS)


def make_optimizer(config: TrainConfig):
    if config.optimizer == "sgd":
        return Sgd(config.learning_rate)
    return Adam(config.learning_rate)


def gradient_step(model, batch_prep: PreparedBatch, config: TrainConfig,
                  optimizer=None):
    """One mini-batch update in place; returns the pre-step loss."""
    optimizer = optimizer or make_optimizer(config)
    value, grad = batch_loss_and_grad(batch_prep, model, config)
    model.params = optimizer.step(model.params, grad)
    return value


@dataclass
class TrainReport:
    """Loss/estimate traces and the final parameters of one run."""

    losses: np.ndarray                 # (epochs_run,)
    step_ms: np.ndarray                # (epochs_run,) mean per gradient step
    final_params: np.ndarray
    config: dict
    gamma_trace: Optional[np.ndarray] = None   # (epochs_run, N) constant models
    probe_trace: Optional[np.ndarray] = None   # (epochs_run, P, N) neural models
    probe_contexts: Optional[np.ndarray] = None
    diverged: bool = False

    @property
    def epochs_run(self):
        return len(self.losses)

    def final_gamma(self):
        if self.gamma_trace is None:
            raise ValueError("no constant-gamma trace in this report")
        return self.gamma_trace[-1]

    def to_dict(self):
        doc = {"losses": [float(v) for v in self.losses],
               "step_ms": [float(v) for v in self.step_ms],
               "final_params": [float(v) for v in self.final_params],
               "config": self.config,
               "diverged": self.diverged}
        if self.gamma_trace is not None:
            doc["gamma_trace"] = [[float(v) for v in row] for row in self.gamma_trace]
        if self.probe_trace is not None:
            doc["probe_trace"] = np.asarray(self.probe_trace).tolist()
            doc["probe_contexts"] = np.asarray(self.probe_contexts).tolist()
        return doc

    def save_json(self, path):
        atomic_write(path, json.dumps(self.to_dict()))

    def save_trace_csv(self, path):
        lines = []
        n = self.gamma_trace.shape[1] if self.gamma_trace is not None else 0
        cols = ["epoch", "loss", "wall_ms"] + [f"gamma{i + 1}" for i in range(n)]
        lines.append(",".join(cols))
        for e in range(self.epochs_run):
            row = [str(e), repr(float(self.losses[e])), repr(float(self.step_ms[e]))]
            if n:
                row += [repr(float(v)) for v in self.gamma_trace[e]]
            lines.append(",".join(row))
        atomic_write(path, "\n".join(lines) + "\n")


def fit(samples, model, scene: InteractionScene, config: TrainConfig) -> TrainReport:
    """Seed-deterministic mini-batch training over shuffled epochs.

    The last short batch of an epoch is kept. Aborts with a partial report
    (``diverged``) if an epoch's loss exceeds the divergence limit, or at
    once if a step's gradient or updated parameters are not finite; that
    update is not applied, so the model keeps its last finite parameters.
    """
    prep = prepare_batch(samples, scene, model.context_dim)
    rng = np.random.default_rng(config.seed)
    optimizer = make_optimizer(config)
    n = len(prep)
    is_constant = isinstance(model, ConstantGamma)
    probe = None
    if not is_constant:
        take = min(PROBE_COUNT, n)
        probe = prep.contexts[np.linspace(0, n - 1, take).astype(int)]

    losses, wall, gtrace, ptrace = [], [], [], []
    diverged = False
    for epoch in range(config.epochs):
        order = rng.permutation(n)
        epoch_loss, seen, steps, t0 = 0.0, 0, 0, time.perf_counter()
        for start in range(0, n, config.batch_size):
            idx = order[start:start + config.batch_size]
            value, grad = batch_loss_and_grad(prep.subset(idx), model, config)
            params = optimizer.step(model.params, grad)
            epoch_loss += value * len(idx)
            seen += len(idx)
            steps += 1
            if not (np.all(np.isfinite(grad)) and np.all(np.isfinite(params))):
                diverged = True
                break
            model.params = params
        elapsed_ms = 1e3 * (time.perf_counter() - t0) / steps
        losses.append(epoch_loss / seen)
        wall.append(elapsed_ms)
        if is_constant:
            gtrace.append(model.gamma())
        elif probe is not None:
            ptrace.append(model.gamma_batch(probe))
        if diverged or losses[-1] > config.divergence_limit:
            diverged = True
            break

    return TrainReport(
        losses=np.asarray(losses), step_ms=np.asarray(wall),
        final_params=model.params.copy(), config=asdict(config),
        gamma_trace=np.asarray(gtrace) if gtrace else None,
        probe_trace=np.asarray(ptrace) if ptrace else None,
        probe_contexts=probe, diverged=diverged)


def fit_windows(samples: SampleSet, scene: InteractionScene, config: TrainConfig,
                n_windows: int):
    """Fit a constant allocation per contiguous sample window.

    Used to track schedules that change over the course of a dataset.
    Returns an (n_windows, N) array of per-window estimates.
    """
    n = len(samples)
    if not 0 < n_windows <= n:
        raise ValueError(f"n_windows must lie in [1, {n}] for {n} samples, got {n_windows}")
    bounds = np.linspace(0, n, n_windows + 1).astype(int)
    out = []
    for w in range(n_windows):
        chunk = samples[bounds[w]:bounds[w + 1]]
        model = ConstantGamma(scene.system.n_agents)
        fit(chunk, model, scene, config)
        out.append(model.gamma())
    return np.asarray(out)
