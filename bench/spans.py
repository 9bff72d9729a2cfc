"""In-memory span recorder and the wrappers that feed it.

A traced run patches the public functions and methods of `dattnet` listed
in `FUNCTIONS` and `METHODS` with thin wrappers.  Each call inside a recorded unit (one
training step or one eval round) appends a span: a name, its parent span,
and start and end times from `time.perf_counter`.  Spans live in flat
arrays until the run ends; `write` saves them as one `.npz` file.

A span's self time is its duration minus the durations of its direct
children.  Wrappers are installed only inside `Tracer.installed()`, which
restores every original attribute on exit, so an untraced run never sees
them.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from array import array

import numpy as np

from dattnet import attention, backbone, evaluation, features, model, scoring, training
from dattnet import tensor as T
from metrics import TENSOR_GROUPS

# (module, attribute, span name) for plain functions; the attribute is
# replaced in every dattnet module that imported the same object
FUNCTIONS = [
    *[(T, op, f"tensor.{group}") for group, ops in TENSOR_GROUPS.items() for op in ops],
    (T, "backward", "tensor.backward"),
    (attention, "compute_f_att", "attention.compute_f_att"),
    (attention, "self_attention", "attention.self_attention"),
    (attention, "mutual_attention_grid", "attention.mutual_attention_grid"),
    (scoring, "binary_head_scores", "scoring.binary_head_scores"),
    (scoring, "fuse_scores", "scoring.fuse_scores"),
    (model, "load_checkpoint", "model.load_checkpoint"),
    (features, "read_fbank", "features.read_fbank"),
    (features, "pad_or_crop", "features.pad_or_crop"),
    (evaluation, "segment_utterance", "features.segment_utterance"),
    (training, "build_pair_batch", "training.build_pair_batch"),
    (training, "pair_batch_losses", "training.pair_batch_losses"),
    (evaluation, "parse_trial_list", "evaluation.parse_trial_list"),
    (evaluation, "run_eval", "evaluation.run_eval"),
    (evaluation, "compute_eer", "evaluation.compute_eer"),
    (evaluation, "write_score_csv", "evaluation.write_score_csv"),
]

# (class, method, span name); backbone names gain the stage and the mode
METHODS = [
    (model.DattModel, "embed_utterance", "model.embed_utterance"),
    (model.DattModel, "score_records", "model.score_records"),
    (training.SGD, "step", "training.sgd"),
    (training.SGD, "zero_grad", "training.sgd"),
    (backbone.Preprocess, "__call__", "backbone.preprocess"),
    (backbone.Trunk, "__call__", "backbone.trunk"),
    (backbone.BasicBlock, "__call__", "backbone.trunk.stage"),
    (backbone.Backbone, "postprocess", "backbone.postprocess"),
]


class Tracer:
    """Spans recorded while `recording` is set; counts keyed by name."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts = {}
        self.recording = False
        self._stack = []
        self._stage_of = {}

    def _open(self, name):
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.name_id)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.start.append(0.0)
        self.end.append(0.0)
        self._stack.append(idx)
        return idx

    def _close(self, idx, t0):
        self.start[idx] = t0
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def count(self, name, n):
        self.counts[name] = self.counts.get(name, 0) + n

    @contextlib.contextmanager
    def unit(self, name):
        """Record one unit of work as a root span."""
        self.recording = True
        idx = self._open(name)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self._close(idx, t0)
            self.recording = False

    def _wrap(self, fn, name_of, after=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            idx = self._open(name_of(args, kwargs))
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(idx, t0)
            if after is not None:
                after(args, out)
            return out

        traced.__traced__ = True
        return traced

    def _name_fn(self, span):
        # backbone calls are (self, x, mode); their spans carry the mode
        if span == "backbone.trunk.stage":
            return lambda a, k: f"{span}{self._stage_of[id(a[0])]}.{_mode(a, k)}"
        if span.startswith("backbone."):
            return lambda a, k: f"{span}.{_mode(a, k)}"
        return lambda a, k: span

    def _after(self, span):
        if span == "tensor.backward":
            return lambda a, out: self.count("tensor.tape_nodes", len(a[1]))
        if span == "model.embed_utterance":
            return lambda a, out: self.count("model.embed_segments", out.embedding.shape[0])
        if span == "model.score_records":
            return lambda a, out: self.count(
                "model.segment_pairs", a[1].embedding.shape[0] * a[2].embedding.shape[0]
            )
        return None

    def _register_stages(self, fn):
        # BasicBlock spans are named after the trunk stage that owns them
        @functools.wraps(fn)
        def call(trunk, *args, **kwargs):
            for si, blocks in enumerate(trunk.stages):
                for block in blocks:
                    self._stage_of[id(block)] = si
            return fn(trunk, *args, **kwargs)

        return call

    @contextlib.contextmanager
    def installed(self):
        """Patch every target for the duration of the block."""
        saved = []
        try:
            for mod, attr, span in FUNCTIONS:
                original = getattr(mod, attr)
                wrapper = self._wrap(original, self._name_fn(span), self._after(span))
                for owner, name in targets_of(original, attr):
                    saved.append((owner, name, owner.__dict__[name]))
                    setattr(owner, name, wrapper)
            for cls, attr, span in METHODS:
                original = cls.__dict__[attr]
                wrapper = self._wrap(original, self._name_fn(span), self._after(span))
                if cls is backbone.Trunk:
                    wrapper = self._register_stages(wrapper)
                saved.append((cls, attr, original))
                setattr(cls, attr, wrapper)
            yield self
        finally:
            for owner, name, original in reversed(saved):
                setattr(owner, name, original)

    # -- analysis ----------------------------------------------------------

    def arrays(self):
        """(name ids, parents, starts, ends) as numpy arrays."""
        return (
            np.frombuffer(self.name_id, dtype=np.int32).copy(),
            np.frombuffer(self.parent, dtype=np.int32).copy(),
            np.frombuffer(self.start, dtype=np.float64).copy(),
            np.frombuffer(self.end, dtype=np.float64).copy(),
        )

    def self_times(self):
        """Per-span duration and self time (duration minus direct children)."""
        _, parent, start, end = self.arrays()
        dur = end - start
        child = np.zeros_like(dur)
        has = parent >= 0
        np.add.at(child, parent[has], dur[has])
        return dur, dur - child

    def totals(self):
        """name -> (calls, total seconds, self seconds)."""
        nid, _, _, _ = self.arrays()
        dur, own = self.self_times()
        n = len(self.names)
        calls = np.bincount(nid, minlength=n)
        total = np.bincount(nid, weights=dur, minlength=n)
        self_s = np.bincount(nid, weights=own, minlength=n)
        return {
            name: (int(calls[i]), float(total[i]), float(self_s[i]))
            for i, name in enumerate(self.names)
        }

    def write(self, path):
        nid, parent, start, end = self.arrays()
        with open(path, "wb") as fh:
            np.savez_compressed(
                fh, names=np.asarray(self.names), name_id=nid, parent=parent, start=start, end=end
            )


def _mode(args, kwargs):
    return args[2] if len(args) > 2 else kwargs["mode"]


def _dattnet_modules():
    return [
        (name, mod) for name, mod in list(sys.modules.items())
        if name.split(".")[0] == "dattnet" and mod is not None
    ]


def targets_of(original, attr):
    """Modules under dattnet whose `attr` is this very function object."""
    return [(mod, attr) for _, mod in _dattnet_modules() if mod.__dict__.get(attr) is original]


def installed_wrappers():
    """Targets currently holding a tracing wrapper (empty when untraced)."""
    found = [
        f"{name}.{attr}"
        for _, attr, _ in FUNCTIONS
        for name, mod in _dattnet_modules()
        if getattr(mod.__dict__.get(attr), "__traced__", False)
    ]
    found += [
        f"{cls.__name__}.{attr}"
        for cls, attr, _ in METHODS
        if getattr(cls.__dict__[attr], "__traced__", False)
    ]
    return found
