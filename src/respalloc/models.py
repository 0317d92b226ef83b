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

Each family's ``gamma_and_pullback`` runs one forward pass and returns the
allocation with a pullback to the parameter gradient. Gradients are
accumulated by hand over the fixed primitive set (affine, tanh, softmax,
permutation sums); there is no general tape.
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
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def softmax_vjp(gamma, dgamma):
    """Pull a cotangent on softmax outputs back to the logits (batched)."""
    inner = (gamma * dgamma).sum(axis=-1, keepdims=True)
    return gamma * (dgamma - inner)


class Mlp:
    """Fixed-architecture perceptron: n_hidden tanh layers then a linear head.

    Parameters live in one flat float64 vector so optimizers can treat every
    model uniformly. ``forward_tape`` takes a batch (B, in_dim); its tape
    feeds ``vjp_params``.
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

    def forward_tape(self, x):
        """Batched forward pass over (B, in_dim) inputs; returns the (B,
        out_dim) output and a tape holding the weights it ran with, the input
        and the (hidden, B) activations."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        layers = self._layers()
        w, b = layers[0]
        pre = w @ x.T
        pre += b[:, None]
        y, acts = _tanh_stack(layers, pre)
        return y.T, (layers, x, acts)

    def vjp_params(self, tape, dy):
        """Accumulate d(sum of seeded outputs)/d(params), summed over the
        batch, for a (B, out_dim) cotangent ``dy``."""
        layers, x, acts = tape
        dpre, grads = _tanh_stack_vjp(layers, acts, np.atleast_2d(dy).T)
        return _flatten([(dpre @ x, dpre.sum(axis=1))] + grads)


def _tanh_stack(layers, pre):
    """Every layer after the first, feature-major: from the first layer's
    pre-activation ``pre`` (hidden, rows), overwritten, the head output
    (out_dim, rows) and the hidden tanh activations, each (hidden, rows)."""
    # In place where possible: at N! rows per context, each large temporary
    # costs more in allocation than in arithmetic.
    acts = [np.tanh(pre, out=pre)]
    for w, b in layers[1:-1]:
        h = w @ acts[-1]
        h += b[:, None]
        acts.append(np.tanh(h, out=h))
    w, b = layers[-1]
    out = w @ acts[-1]
    out += b[:, None]
    return out, acts


def _tanh_stack_vjp(layers, acts, dout):
    """Pull an (out_dim, rows) cotangent back through ``_tanh_stack``: the
    (hidden, rows) cotangent of the first layer's pre-activation, and the
    (weight, bias) gradients of every later layer (the caller forms the
    first layer's own)."""
    grads = []
    for li in range(len(layers) - 1, 0, -1):
        grads.append((dout @ acts[li - 1].T, dout.sum(axis=1)))
        dout = layers[li][0].T @ dout
        slope = np.square(acts[li - 1])
        dout *= np.subtract(1.0, slope, out=slope)      # tanh' = 1 - tanh^2
    return dout, grads[::-1]


def _flatten(grads):
    """(weight, bias) gradients per layer, in parameter order, as one vector."""
    return np.concatenate([v for gw, gb in grads for v in (gw.ravel(), gb)])


class ResponsibilityModel:
    """Common surface: flat params, batched gamma, batched parameter VJP.

    Each family implements ``gamma_and_pullback`` and defines
    ``gamma_batch`` and ``vjp_params_batch`` on itself as views of it.
    """

    kind = "base"
    dims: tuple                     # init_model keywords in a checkpoint's dims
    n_agents: int
    context_dim: int
    net_rows_per_context: int       # rows each context sends through the network

    @property
    def params(self):
        raise NotImplementedError

    @params.setter
    def params(self, value):
        raise NotImplementedError

    def gamma_and_pullback(self, contexts):
        """One forward pass over (B, context_dim) contexts: (gamma, pullback).

        ``gamma`` is (B, N). ``pullback(dgamma)`` maps a (B, N) cotangent to
        the flat gradient of sum(dgamma * gamma) in the parameters at the
        time of the forward pass, reusing its activations; it may be called
        any number of times.
        """
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
        """The ``init_model`` keywords that rebuild this model's shape."""
        return {key: getattr(self, key) for key in self.dims}


class _NetworkModel(ResponsibilityModel):
    """A family whose parameters are those of its network ``self.net``."""

    @property
    def params(self):
        return self.net.params

    @params.setter
    def params(self, value):
        self.net.params = value

    @property
    def hidden(self):
        return self.net.hidden

    @property
    def n_hidden(self):
        return self.net.n_hidden


class ConstantGamma(ResponsibilityModel):
    """Context-free allocation: gamma = softmax(free logits)."""

    kind = "constant"
    dims = ("n_agents",)
    net_rows_per_context = 0

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

    def gamma_and_pullback(self, contexts):
        b = np.atleast_2d(np.asarray(contexts, dtype=float)).shape[0]
        gamma = softmax(self._params)[None].repeat(b, axis=0)
        return gamma, lambda dgamma: softmax_vjp(gamma, np.atleast_2d(dgamma)).sum(axis=0)

    def gamma_batch(self, contexts):
        return self.gamma_and_pullback(contexts)[0]

    def vjp_params_batch(self, contexts, dgamma):
        return self.gamma_and_pullback(contexts)[1](dgamma)


class MlpGamma(_NetworkModel):
    """Unconstrained context-dependent allocation: softmax of N network logits."""

    kind = "mlp"
    dims = ("n_agents", "context_dim", "hidden", "n_hidden")
    net_rows_per_context = 1

    def __init__(self, n_agents, context_dim, hidden=16, n_hidden=3, rng=None):
        if n_agents < 2:
            raise ValueError("need at least two agents")
        self.n_agents = n_agents
        self.context_dim = context_dim
        self.net = Mlp(context_dim, n_agents, hidden, n_hidden, rng=rng)

    def gamma_and_pullback(self, contexts):
        logits, tape = self.net.forward_tape(contexts)
        gamma = softmax(logits)
        return gamma, lambda dgamma: self.net.vjp_params(
            tape, softmax_vjp(gamma, np.atleast_2d(dgamma)))

    def gamma_batch(self, contexts):
        return self.gamma_and_pullback(contexts)[0]

    def vjp_params_batch(self, contexts, dgamma):
        return self.gamma_and_pullback(contexts)[1](dgamma)


@functools.lru_cache(maxsize=None)
def _ordering_incidence(n):
    """0/1 matrix (n!, n*n) of the agent orderings; memoized per n.

    Row i*(n-1)! + s is the ordering that swaps agent i into slot one and
    gives the other slots the s-th permutation of the rest (slot one fixed).
    It marks column slot*n + agent for each of its n (slot, agent) pairs.
    """
    tails = list(itertools.permutations(range(1, n)))
    incidence = np.zeros((n, len(tails), n, n))
    for i in range(n):
        relabel = list(range(n))
        relabel[0], relabel[i] = i, 0
        for s, tail in enumerate(tails):
            incidence[i, s, np.arange(n), [relabel[k] for k in (0,) + tail]] = 1.0
    incidence = incidence.reshape(-1, n * n)
    incidence.setflags(write=False)
    return incidence


class SymmetricGammaN(_NetworkModel):
    """Numbering-invariant allocation over N agents.

    The context is the concatenation of N equal-sized agent blocks. With a
    scalar network s(.), the logit for agent i sums s over every block
    ordering that keeps the swapped-to-front agent i in slot one; softmax
    across i then yields an allocation that provably commutes with agent
    relabeling. Evaluation cost is N! network calls per context, so N is
    capped at ``SYMMETRIC_N_CAP``.

    The first layer is linear, so the N^2 products of each slot's weight
    block with each agent's block are formed once per context, and the 0/1
    incidence matrix of the orderings sums them into every ordering's
    pre-activation in one matrix product.
    """

    kind = "symmetric"
    dims = ("n_agents", "agent_dim", "hidden", "n_hidden")

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
        self._incidence = _ordering_incidence(n_agents)
        self.net_rows_per_context = len(self._incidence)

    def gamma_and_pullback(self, contexts):
        x = np.atleast_2d(np.asarray(contexts, dtype=float))
        b, n, d = x.shape[0], self.n_agents, self.agent_dim
        incidence = self._incidence
        orderings, per_agent = len(incidence), len(incidence) // n
        layers = self.net._layers()
        (w1, b1), hid = layers[0], self.net.hidden
        # Rows (unit, slot) times columns (context, agent), regrouped to rows
        # (unit, context) and columns (slot, agent); the incidence matrix
        # then gives the (hidden, rows) pre-activation, rows (context, ordering).
        agents = x.reshape(b * n, d)
        blocks = w1.reshape(hid * n, d) @ agents.T
        blocks = blocks.reshape(hid, n, b, n).transpose(0, 2, 1, 3).reshape(hid * b, n * n)
        pre = (blocks @ incidence.T).reshape(hid, b * orderings)
        pre += b1[:, None]
        vals, acts = _tanh_stack(layers, pre)
        gamma = softmax(vals.reshape(b, n, per_agent).sum(axis=2))

        def pullback(dgamma):
            dlogits = softmax_vjp(gamma, np.atleast_2d(dgamma))
            seeds = np.repeat(dlogits, per_agent, axis=1).reshape(1, -1)
            dpre, grads = _tanh_stack_vjp(layers, acts, seeds)
            dblocks = dpre.reshape(hid * b, orderings) @ incidence
            dblocks = dblocks.reshape(hid, b, n, n).transpose(0, 2, 1, 3).reshape(hid * n, b * n)
            dw1 = (dblocks @ agents).reshape(hid, n * d)
            return _flatten([(dw1, dpre.sum(axis=1))] + grads)
        return gamma, pullback

    def gamma_batch(self, contexts):
        return self.gamma_and_pullback(contexts)[0]

    def vjp_params_batch(self, contexts, dgamma):
        return self.gamma_and_pullback(contexts)[1](dgamma)


class RelativeSymmetricGamma(_NetworkModel):
    """Two-agent allocation over a relative state with exact swap symmetry.

    gamma1(r) = (1 + tanh(phi(r) - phi(-r))) / 2, so gamma1(r) + gamma1(-r)
    is identically 1 and both entries stay inside (0, 1).
    """

    kind = "relative"
    dims = ("context_dim", "hidden", "n_hidden")
    net_rows_per_context = 2        # r and -r

    def __init__(self, context_dim, hidden=16, n_hidden=3, rng=None):
        self.n_agents = 2
        self.context_dim = context_dim
        self.net = Mlp(context_dim, 1, hidden, n_hidden, rng=rng)

    def gamma_and_pullback(self, contexts):
        r = np.atleast_2d(np.asarray(contexts, dtype=float))
        vals, tape = self.net.forward_tape(np.vstack([r, -r]))
        b = r.shape[0]
        th = np.tanh(vals[:b, 0] - vals[b:, 0])
        g1 = 0.5 * (1.0 + th)

        def pullback(dgamma):
            dg = np.atleast_2d(np.asarray(dgamma, dtype=float))
            ddelta = (dg[:, 0] - dg[:, 1]) * 0.5 * (1.0 - th ** 2)
            return self.net.vjp_params(tape, np.concatenate([ddelta, -ddelta])[:, None])
        return np.stack([g1, 1.0 - g1], axis=1), pullback

    def gamma_batch(self, contexts):
        return self.gamma_and_pullback(contexts)[0]

    def vjp_params_batch(self, contexts, dgamma):
        return self.gamma_and_pullback(contexts)[1](dgamma)


def eval_gamma(model, context=None):
    """Allocation vector at one context: sums to 1, entries in [0, 1]."""
    return model.gamma(context)


def grad_gamma(model, context=None):
    """Full Jacobian d gamma / d params, shape (n_agents, n_params)."""
    _, pullback = model.gamma_and_pullback(model._as_batch(context))
    return np.stack([pullback(seed[None]) for seed in np.eye(model.n_agents)])


MODEL_KINDS = {cls.kind: cls for cls in (ConstantGamma, MlpGamma, SymmetricGammaN,
                                          RelativeSymmetricGamma)}


def init_model(kind, seed=0, *, n_agents=2, context_dim=4, agent_dim=None,
               hidden=16, n_hidden=3):
    """Seed-reproducible model factory.

    ``constant`` starts at the uniform allocation; network models draw from
    the fan-in-scaled uniform initializer. Each kind reads the keywords named
    in its ``dims``.
    """
    if kind not in MODEL_KINDS:
        raise ValueError(f"unknown model kind {kind!r}")
    if kind == "symmetric" and agent_dim is None:
        raise ValueError("symmetric model needs agent_dim")
    cls = MODEL_KINDS[kind]
    given = {"n_agents": n_agents, "context_dim": context_dim, "agent_dim": agent_dim,
             "hidden": hidden, "n_hidden": n_hidden}
    dims = {key: given[key] for key in cls.dims}
    model = cls(**dims) if cls is ConstantGamma else cls(**dims, rng=np.random.default_rng(seed))
    model.init_seed = seed
    return model


def save_model(model, path):
    """Write a JSON checkpoint that round-trips the parameters bit-exactly."""
    bad = np.flatnonzero(~np.isfinite(model.params))
    if bad.size:
        raise ValueError(f"parameter {bad[0]} is {model.params[bad[0]]}; "
                         "refusing to save a non-finite model")
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
    """Rebuild a checkpointed model; ValueError naming ``path`` if malformed."""
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: not a model checkpoint ({exc})") from exc
    if not isinstance(doc, dict) or doc.get("format") != _CHECKPOINT_FORMAT:
        raise ValueError(f"{path}: not a model checkpoint")
    if doc.get("version") != _CHECKPOINT_VERSION:
        raise ValueError(f"{path}: unsupported checkpoint version {doc.get('version')}")
    kind, dims = doc.get("kind"), doc.get("dims")
    if not isinstance(kind, str) or kind not in MODEL_KINDS:
        raise ValueError(f"{path}: unknown model kind {kind!r}")
    want = MODEL_KINDS[kind].dims
    if not isinstance(dims, dict) or set(dims) != set(want):
        raise ValueError(f"{path}: a {kind} checkpoint needs dims {list(want)}, got {dims!r}")
    if "params" not in doc:
        raise ValueError(f"{path}: checkpoint has no params")
    try:
        model = init_model(kind, seed=doc.get("seed"), **dims)
        model.params = np.array(doc["params"], dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{path}: {exc}") from exc
    return model
