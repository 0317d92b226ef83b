"""In-memory spans around the package's layer entry points.

The benchmark never edits the package. ``Tracer.patched`` rebinds each
entry point at the name its caller looks it up by (a module attribute or a
class method) for the life of the block, and restores the original
afterwards. Every wrapped call records a span (name, start, end, parent) and
optional counts; self times are computed from the spans once a round ends.
"""

from __future__ import annotations

import contextlib
import functools
import time
from collections import defaultdict

import numpy as np


def _rows(a):
    return np.atleast_2d(np.asarray(a)).shape[0]


def _count_contexts(counts, args, kwargs, out):
    counts["models.forward_contexts"] += _rows(out)


def _count_vjp_contexts(counts, args, kwargs, out):
    counts["models.vjp_contexts"] += _rows(args[1])


def _count_net_rows(counts, args, kwargs, out):
    counts["models.net_rows"] += _rows(args[1])


def layer_targets(respalloc):
    """(owner, attribute, span name, counter) for every traced entry point.

    Owners are the modules or classes whose attribute the calling code reads
    at call time, so rebinding the attribute intercepts the call.
    """
    barriers, data, training, models, cli = (
        respalloc.barriers, respalloc.data, respalloc.training,
        respalloc.models, respalloc.cli)
    targets = [
        # prepare_batch imports assemble_constraint from barriers inside the
        # function; InteractionScene.build_problem uses data's binding.
        (barriers, "assemble_constraint", "barriers.assemble", None),
        (data, "assemble_constraint", "barriers.assemble", None),
        (training, "solve_filter", "filter_qp.solve", None),
        (data, "solve_filter", "filter_qp.solve", None),
        (cli, "solve_filter", "filter_qp.solve", None),
        (training, "differentiate_filter", "filter_qp.vjp", None),
        (models.ResponsibilityModel, "gamma", "models.forward", _count_contexts),
        (models.Mlp, "forward_tape", "models.net", _count_net_rows),
        (training, "batch_loss_and_grad", "training.loss_grad", None),
        (training, "prepare_batch", "training.prepare", None),
        (training.Sgd, "step", "training.optimizer", None),
        (training.Adam, "step", "training.optimizer", None),
        (data, "generate_synthetic", "data.generate", None),
        (data, "generate_weaving_trajectories", "data.generate", None),
        (data, "save_trajectories", "data.save", None),
        (data, "load_trajectories", "data.load", None),
    ]
    for cls in (models.ConstantGamma, models.MlpGamma, models.SymmetricGammaN,
                models.RelativeSymmetricGamma):
        targets.append((cls, "gamma_batch", "models.forward", _count_contexts))
        targets.append((cls, "vjp_params_batch", "models.vjp", _count_vjp_contexts))
    return targets


class Tracer:
    """Collects spans and counts; ``summary`` folds them into per-name totals."""

    def __init__(self):
        self.spans = []                 # [name, start, end, parent, nested]
        self.counts = defaultdict(float)
        self._stack = []
        self._open = defaultdict(int)   # open spans per name

    @contextlib.contextmanager
    def span(self, name):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        # A span nested inside one of its own name (gamma -> gamma_batch)
        # is not added again to that name's inclusive time.
        self.spans.append([name, time.perf_counter(), 0.0, parent,
                           self._open[name] > 0])
        self._stack.append(idx)
        self._open[name] += 1
        try:
            yield
        finally:
            self._open[name] -= 1
            self._stack.pop()
            self.spans[idx][2] = time.perf_counter()

    def wrap(self, name, fn, count=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            top = self._open[name] == 0     # count work once, at the outermost call
            with self.span(name):
                out = fn(*args, **kwargs)
            if count is not None and top:
                count(self.counts, args, kwargs, out)
            return out
        return traced

    @contextlib.contextmanager
    def patched(self, respalloc):
        """Route every layer entry point through ``wrap`` inside the block."""
        saved = []
        try:
            for owner, attr, name, count in layer_targets(respalloc):
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(name, original, count))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def summary(self):
        """Per span name: calls, inclusive seconds (outermost only), self seconds."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = defaultdict(lambda: {"calls": 0, "incl_s": 0.0, "self_s": 0.0})
        for i, (name, start, end, _, nested) in enumerate(self.spans):
            row = out[name]
            row["calls"] += 1
            if not nested:
                row["incl_s"] += end - start
            row["self_s"] += end - start - child_time[i]
        return dict(out)

    def clear(self):
        self.spans.clear()
        self.counts.clear()
