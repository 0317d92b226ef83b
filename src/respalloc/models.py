"""Parameterized responsibility allocations gamma(.) and their gradients.

Four model families share one interface (flat parameter vector, batched
evaluation, batched parameter VJP):

- ``ConstantGamma``: context-free softmax of free logits.
- ``MlpGamma``: unconstrained softmax(mlp(context)) over N logits.
- ``SymmetricGammaN``: allocation over N agents that is invariant to how the
  agents are numbered, built by summing a scalar network over all agent
  permutations that pin slot one and softmaxing across "who sits in slot
  one". Cost grows factorially, so N is capped.
- ``RelativeSymmetricGamma``: two-agent allocation over a relative state r
  with the swap identity gamma1(r) + gamma1(-r) = 1 enforced exactly via
  gamma1 = (1 + tanh(phi(r) - phi(-r))) / 2.

Gradients are accumulated by hand over the fixed primitive set
(affine, tanh, softmax, permutation sums); there is no general tape.
"""

from __future__ import annotations

import functools
import itertools
import json
import math

import numpy as np

from .data import atomic_write

SYMMETRIC_N_CAP = 6

_CHECKPOINT_FORMAT = "respalloc-model"
_CHECKPOINT_VERSION = 1


def softmax(logits):
    """Row-wise stable softmax; accepts (..., N)."""
    z = np.asarray(logits, dtype=float)
    z = z - np.max(z, axis=-1, keepdims=True)
    e = np.exp(z)
    return e / np.sum(e, axis=-1, keepdims=True)


def softmax_vjp(gamma, dgamma):
    """Pull a cotangent on softmax outputs back to the logits (batched)."""
    inner = np.sum(gamma * dgamma, axis=-1, keepdims=True)
    return gamma * (dgamma - inner)


class Mlp:
    """Fixed-architecture perceptron: n_hidden tanh layers then a linear head.

    Parameters live in one flat float64 vector so optimizers can treat every
    model uniformly. ``forward`` accepts a batch (B, in_dim) and the tape
    returned by ``forward_tape`` feeds ``vjp_params``.
    """

    def __init__(self, in_dim, out_dim, hidden=16, n_hidden=3, rng=None, params=None):
        if in_dim <= 0 or out_dim <= 0 or hidden <= 0 or n_hidden < 1:
            raise ValueError("invalid MLP dimensions")
        self.in_dim = in_dim
        self.out_dim = out_dim
        self.hidden = hidden
        self.n_hidden = n_hidden
        widths = [in_dim] + [hidden] * n_hidden + [out_dim]
        self.shapes = [(widths[i + 1], widths[i]) for i in range(len(widths) - 1)]
        self.n_params = sum(r * c + r for r, c in self.shapes)
        if params is not None:
            self.params = params
        else:
            self._params = self._init_params(rng or np.random.default_rng())

    def _init_params(self, rng):
        # Uniform(-1/sqrt(fan_in), 1/sqrt(fan_in)) for weights and biases.
        chunks = []
        for rows, cols in self.shapes:
            a = 1.0 / math.sqrt(cols)
            chunks.append(rng.uniform(-a, a, size=rows * cols))
            chunks.append(rng.uniform(-a, a, size=rows))
        return np.concatenate(chunks)

    @property
    def params(self):
        return self._params

    @params.setter
    def params(self, value):
        value = np.asarray(value, dtype=float).ravel()
        if value.size != self.n_params:
            raise ValueError(f"expected {self.n_params} parameters, got {value.size}")
        self._params = value.copy()

    def _layers(self):
        out, k = [], 0
        for rows, cols in self.shapes:
            w = self._params[k:k + rows * cols].reshape(rows, cols)
            k += rows * cols
            b = self._params[k:k + rows]
            k += rows
            out.append((w, b))
        return out

    def forward(self, x):
        y, _ = self.forward_tape(x)
        return y

    def forward_tape(self, x):
        """Batched forward pass; returns (output, activations tape)."""
        h = np.atleast_2d(np.asarray(x, dtype=float))
        tape = [h]
        layers = self._layers()
        for w, b in layers[:-1]:
            h = np.tanh(h @ w.T + b)
            tape.append(h)
        w, b = layers[-1]
        return h @ w.T + b, tape

    def vjp_params(self, tape, dy):
        """Accumulate d(sum of seeded outputs)/d(params), summed over the batch."""
        dy = np.atleast_2d(np.asarray(dy, dtype=float))
        layers = self._layers()
        grads = [None] * len(layers)
        # Head layer is linear.
        w, _ = layers[-1]
        grads[-1] = (dy.T @ tape[-1], np.sum(dy, axis=0))
        dh = dy @ w
        for li in range(len(layers) - 2, -1, -1):
            act = tape[li + 1]                 # tanh output of this layer
            dpre = dh * (1.0 - act ** 2)
            w, _ = layers[li]
            grads[li] = (dpre.T @ tape[li], np.sum(dpre, axis=0))
            dh = dpre @ w
        flat = []
        for gw, gb in grads:
            flat.append(gw.ravel())
            flat.append(gb)
        return np.concatenate(flat)


class ResponsibilityModel:
    """Common surface: flat params, batched gamma, batched parameter VJP."""

    kind = "base"
    n_agents: int
    context_dim: int

    @property
    def params(self):
        raise NotImplementedError

    @params.setter
    def params(self, value):
        raise NotImplementedError

    def gamma_batch(self, contexts):
        raise NotImplementedError

    def vjp_params_batch(self, contexts, dgamma):
        raise NotImplementedError

    def _as_batch(self, context):
        if self.context_dim == 0:
            if context is None:
                return np.zeros((1, 0))
            c = np.asarray(context, dtype=float)
            return np.zeros((c.shape[0] if c.ndim > 1 else 1, 0))
        if context is None:
            raise ValueError(f"{self.kind} model needs a context of length {self.context_dim}")
        c = np.asarray(context, dtype=float)
        return c[None, :] if c.ndim == 1 else c

    def gamma(self, context=None):
        return self.gamma_batch(self._as_batch(context))[0]

    def checkpoint_dims(self):
        raise NotImplementedError


class ConstantGamma(ResponsibilityModel):
    """Context-free allocation: gamma = softmax(free logits)."""

    kind = "constant"

    def __init__(self, n_agents, params=None):
        if n_agents < 2:
            raise ValueError("need at least two agents")
        self.n_agents = n_agents
        self.context_dim = 0
        self._params = np.zeros(n_agents)
        if params is not None:
            self.params = params

    @property
    def params(self):
        return self._params

    @params.setter
    def params(self, value):
        value = np.asarray(value, dtype=float).ravel()
        if value.size != self.n_agents:
            raise ValueError("parameter count mismatch")
        self._params = value.copy()

    def gamma_batch(self, contexts):
        b = np.atleast_2d(np.asarray(contexts, dtype=float)).shape[0]
        g = softmax(self._params)
        return np.tile(g, (b, 1))

    def vjp_params_batch(self, contexts, dgamma):
        g = softmax(self._params)
        dg = np.atleast_2d(np.asarray(dgamma, dtype=float))
        return softmax_vjp(np.tile(g, (dg.shape[0], 1)), dg).sum(axis=0)

    def checkpoint_dims(self):
        return {"n_agents": self.n_agents}


class MlpGamma(ResponsibilityModel):
    """Unconstrained context-dependent allocation: softmax of N network logits."""

    kind = "mlp"

    def __init__(self, n_agents, context_dim, hidden=16, n_hidden=3, rng=None):
        if n_agents < 2:
            raise ValueError("need at least two agents")
        self.n_agents = n_agents
        self.context_dim = context_dim
        self.net = Mlp(context_dim, n_agents, hidden, n_hidden, rng=rng)

    @property
    def params(self):
        return self.net.params

    @params.setter
    def params(self, value):
        self.net.params = value

    def gamma_batch(self, contexts):
        logits, _ = self.net.forward_tape(contexts)
        return softmax(logits)

    def vjp_params_batch(self, contexts, dgamma):
        logits, tape = self.net.forward_tape(contexts)
        gamma = softmax(logits)
        dlogits = softmax_vjp(gamma, np.atleast_2d(dgamma))
        return self.net.vjp_params(tape, dlogits)

    def checkpoint_dims(self):
        return {"n_agents": self.n_agents, "context_dim": self.context_dim,
                "hidden": self.net.hidden, "n_hidden": self.net.n_hidden}


@functools.lru_cache(maxsize=None)
def _permutation_index_table(n, d):
    """Flat gather indices, shape (n, (n-1)!, n*d); memoized per (n, d).

    Entry [i, s] reorders the context so agents 1<->i are swapped and the
    remaining blocks take their s-th permutation (slot one fixed).
    """
    tails = list(itertools.permutations(range(1, n)))
    table = np.empty((n, len(tails), n * d), dtype=np.intp)
    base = np.arange(n * d).reshape(n, d)
    for i in range(n):
        swapped = base.copy()
        swapped[[0, i]] = swapped[[i, 0]]
        for s, tail in enumerate(tails):
            order = (0,) + tail
            table[i, s] = swapped[list(order)].ravel()
    table.setflags(write=False)
    return table


class SymmetricGammaN(ResponsibilityModel):
    """Numbering-invariant allocation over N agents.

    The context is the concatenation of N equal-sized agent blocks. With a
    scalar network s(.), the logit for agent i sums s over every block
    ordering that keeps the swapped-to-front agent i in slot one; softmax
    across i then yields an allocation that provably commutes with agent
    relabeling. Evaluation cost is N! network calls per context, so N is
    capped at ``SYMMETRIC_N_CAP``.
    """

    kind = "symmetric"

    def __init__(self, n_agents, agent_dim, hidden=16, n_hidden=3, rng=None):
        if n_agents < 2:
            raise ValueError("need at least two agents")
        if n_agents > SYMMETRIC_N_CAP:
            raise ValueError(
                f"permutation construction capped at N={SYMMETRIC_N_CAP} "
                f"(cost N! network evaluations); got N={n_agents}")
        self.n_agents = n_agents
        self.agent_dim = agent_dim
        self.context_dim = n_agents * agent_dim
        self.net = Mlp(self.context_dim, 1, hidden, n_hidden, rng=rng)
        self._index_table = _permutation_index_table(n_agents, agent_dim)
    @property
    def params(self):
        return self.net.params

    @params.setter
    def params(self, value):
        self.net.params = value

    def _logits_tape(self, contexts):
        x = np.atleast_2d(np.asarray(contexts, dtype=float))
        b = x.shape[0]
        n, s, dim = self._index_table.shape
        gathered = x[:, self._index_table.reshape(-1)].reshape(b * n * s, dim)
        vals, tape = self.net.forward_tape(gathered)
        logits = vals.reshape(b, n, s).sum(axis=2)
        return logits, tape, (b, n, s)

    def gamma_batch(self, contexts):
        logits, _, _ = self._logits_tape(contexts)
        return softmax(logits)

    def vjp_params_batch(self, contexts, dgamma):
        logits, tape, (b, n, s) = self._logits_tape(contexts)
        gamma = softmax(logits)
        dlogits = softmax_vjp(gamma, np.atleast_2d(dgamma))
        seeds = np.repeat(dlogits.reshape(b * n), s)[:, None]
        return self.net.vjp_params(tape, seeds)

    def checkpoint_dims(self):
        return {"n_agents": self.n_agents, "agent_dim": self.agent_dim,
                "hidden": self.net.hidden, "n_hidden": self.net.n_hidden}


class RelativeSymmetricGamma(ResponsibilityModel):
    """Two-agent allocation over a relative state with exact swap symmetry.

    gamma1(r) = (1 + tanh(phi(r) - phi(-r))) / 2, so gamma1(r) + gamma1(-r)
    is identically 1 and both entries stay inside (0, 1).
    """

    kind = "relative"

    def __init__(self, context_dim, hidden=16, n_hidden=3, rng=None):
        self.n_agents = 2
        self.context_dim = context_dim
        self.net = Mlp(context_dim, 1, hidden, n_hidden, rng=rng)

    @property
    def params(self):
        return self.net.params

    @params.setter
    def params(self, value):
        self.net.params = value

    def _delta_tape(self, contexts):
        r = np.atleast_2d(np.asarray(contexts, dtype=float))
        stacked = np.vstack([r, -r])
        vals, tape = self.net.forward_tape(stacked)
        b = r.shape[0]
        delta = vals[:b, 0] - vals[b:, 0]
        return delta, tape, b

    def gamma_batch(self, contexts):
        delta, _, _ = self._delta_tape(contexts)
        g1 = 0.5 * (1.0 + np.tanh(delta))
        return np.stack([g1, 1.0 - g1], axis=1)

    def vjp_params_batch(self, contexts, dgamma):
        delta, tape, b = self._delta_tape(contexts)
        dg = np.atleast_2d(np.asarray(dgamma, dtype=float))
        th = np.tanh(delta)
        ddelta = (dg[:, 0] - dg[:, 1]) * 0.5 * (1.0 - th ** 2)
        seeds = np.concatenate([ddelta, -ddelta])[:, None]
        return self.net.vjp_params(tape, seeds)

    def checkpoint_dims(self):
        return {"context_dim": self.context_dim, "hidden": self.net.hidden,
                "n_hidden": self.net.n_hidden}


def eval_gamma(model, context=None):
    """Allocation vector at one context: sums to 1, entries in [0, 1]."""
    return model.gamma(context)


def grad_gamma(model, context=None):
    """Full Jacobian d gamma / d params, shape (n_agents, n_params)."""
    ctx = model._as_batch(context)
    n = model.n_agents
    rows = []
    for i in range(n):
        seed = np.zeros((1, n))
        seed[0, i] = 1.0
        rows.append(model.vjp_params_batch(ctx, seed))
    return np.stack(rows, axis=0)


def init_model(kind, seed=0, *, n_agents=2, context_dim=4, agent_dim=None,
               hidden=16, n_hidden=3):
    """Seed-reproducible model factory.

    ``constant`` starts at the uniform allocation; network models draw from
    the fan-in-scaled uniform initializer.
    """
    rng = np.random.default_rng(seed)
    if kind == "constant":
        model = ConstantGamma(n_agents)
    elif kind == "mlp":
        model = MlpGamma(n_agents, context_dim, hidden, n_hidden, rng=rng)
    elif kind == "symmetric":
        if agent_dim is None:
            raise ValueError("symmetric model needs agent_dim")
        model = SymmetricGammaN(n_agents, agent_dim, hidden, n_hidden, rng=rng)
    elif kind == "relative":
        model = RelativeSymmetricGamma(context_dim, hidden, n_hidden, rng=rng)
    else:
        raise ValueError(f"unknown model kind {kind!r}")
    model.init_seed = seed
    return model


def save_model(model, path):
    """Write a JSON checkpoint that round-trips the parameters bit-exactly."""
    doc = {
        "format": _CHECKPOINT_FORMAT,
        "version": _CHECKPOINT_VERSION,
        "kind": model.kind,
        "dims": model.checkpoint_dims(),
        "seed": getattr(model, "init_seed", None),
        "params": [float(v) for v in model.params],
    }
    atomic_write(path, json.dumps(doc))


def load_model(path):
    with open(path) as fh:
        doc = json.load(fh)
    if doc.get("format") != _CHECKPOINT_FORMAT:
        raise ValueError(f"{path}: not a model checkpoint")
    if doc.get("version") != _CHECKPOINT_VERSION:
        raise ValueError(f"{path}: unsupported checkpoint version {doc.get('version')}")
    kind, dims = doc["kind"], doc["dims"]
    if kind == "constant":
        model = ConstantGamma(dims["n_agents"])
    elif kind == "mlp":
        model = MlpGamma(dims["n_agents"], dims["context_dim"],
                         dims["hidden"], dims["n_hidden"])
    elif kind == "symmetric":
        model = SymmetricGammaN(dims["n_agents"], dims["agent_dim"],
                                dims["hidden"], dims["n_hidden"])
    elif kind == "relative":
        model = RelativeSymmetricGamma(dims["context_dim"], dims["hidden"],
                                       dims["n_hidden"])
    else:
        raise ValueError(f"{path}: unknown model kind {kind!r}")
    model.params = np.array(doc["params"], dtype=float)
    if doc.get("seed") is not None:
        model.init_seed = doc["seed"]
    return model
