"""Self and mutual attention over frame-level features.

Both kinds produce a T' x num_f weight matrix, column-stochastic over time,
and collapse f_id to a single vector per utterance.  They differ only in
the per-channel scale applied to f_att before the softmax over time:
self-attention uses the utterance's own time average, mutual attention
the partner utterance's self-attended vector, so the weights highlight
frames that are discriminative for this particular pair.  One softmax-pool
helper does the weighting for both.  One parameter set serves both
utterances of a pair.

The grid variant evaluates every (i, j) combination of two utterance groups
in one broadcast pass, by giving mutual attention a group axis on each side.
"""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .backbone import BatchNorm, Dense, Module
from .errors import ShapeError


class AttentionParams(Module):
    """Two-layer dense stacks mapping f_raw to attention logits.

    Separate stacks feed the self and mutual paths by default; `shared`
    collapses them to one parameter set.
    """

    def __init__(self, rng, c_in, num_f, shared=False, dtype=np.float32):
        self.shared = shared
        self.self_fc1 = Dense(rng, c_in, num_f, dtype=dtype)
        self.self_bn = BatchNorm(num_f, dtype)
        self.self_fc2 = Dense(rng, num_f, num_f, dtype=dtype)
        if not shared:
            self.mutual_fc1 = Dense(rng, c_in, num_f, dtype=dtype)
            self.mutual_bn = BatchNorm(num_f, dtype)
            self.mutual_fc2 = Dense(rng, num_f, num_f, dtype=dtype)

    def stack(self, which):
        if which not in ("self", "mutual"):
            raise ShapeError(f"unknown attention stack {which!r}")
        if which == "self" or self.shared:
            return self.self_fc1, self.self_bn, self.self_fc2
        return self.mutual_fc1, self.mutual_bn, self.mutual_fc2


def attention_hidden(f_raw, params, which, mode):
    """The hidden layer of compute_f_att: relu(bn(fc1(f_raw)))."""
    fc1, bn, _ = params.stack(which)
    return bn(fc1(f_raw), mode, act="relu")


def compute_f_att(f_raw, params, which, mode):
    """Per-frame two-layer transform of f_raw; no cross-frame mixing."""
    return params.stack(which)[2](attention_hidden(f_raw, params, which, mode))


def _time_axis(t):
    if t.data.ndim < 2:
        raise ShapeError(f"attention input must be (.., T', num_f), got {t.data.shape}")
    return t.data.ndim - 2


def _pool(f_att, f_id, scale):
    """Softmax over time of f_att * scale, then the weighted time sum of f_id.

    f_att and f_id are (.., T', num_f); scale ends in num_f and broadcasts
    against f_att.  Returns (W, pooled), W column-stochastic over time.
    """
    if f_att.data.shape != f_id.data.shape:
        raise ShapeError(f"f_att {f_att.data.shape} vs f_id {f_id.data.shape}")
    axis = _time_axis(f_att)
    if scale.data.shape[-1:] != f_att.data.shape[-1:]:
        raise ShapeError(
            f"partner vector width {scale.data.shape} does not match {f_att.data.shape}"
        )
    w = T.softmax_over_axis(T.mul(f_att, scale), axis)
    return w, T.sum_over(T.mul(w, f_id), axis=axis)


def self_attention(f_att, f_id):
    """Weights from an utterance's own average activation.

    W[t, c] = softmax_t(f_att[t, c] * mean_t(f_att[., c])); the result
    pools f_id as f_self[c] = sum_t W[t, c] * f_id[t, c].
    """
    return _pool(f_att, f_id, T.mean_over(f_att, axis=_time_axis(f_att), keepdims=True))


def mutual_attention(f_att_1, f_id_1, f_self_2):
    """Weights for utterance 1 driven by utterance 2's pooled vector."""
    return _pool(f_att_1, f_id_1, f_self_2)  # partner broadcasts over time


def mutual_attention_grid(f_att_1, f_id_1, f_self_2):
    """All-pairs mutual attention for two utterance groups.

    f_att_1/f_id_1: (B1, T', num_f); f_self_2: (B2, num_f).  Returns
    (B1, B2, num_f) where [i, j] pools utterance i against partner j.
    """
    t, nf = f_att_1.data.shape[1:]
    return mutual_attention(
        T.reshape(f_att_1, (-1, 1, t, nf)),
        T.reshape(f_id_1, (-1, 1, t, nf)),
        T.reshape(f_self_2, (1, -1, 1, nf)),
    )[1]

