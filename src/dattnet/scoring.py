"""Pair similarity scores and their fusion.

Two raw scores per pair: cosine similarity of the pooled embeddings, and a
learned binary head on the dual-attention features.  The head multiplies
the two utterances' f_self difference with their f_mutual difference
elementwise, normalizes, and maps to a sigmoid probability in [0, 1] (a
float32 sigmoid saturates to exactly 1.0 for large logits); negating both
differences cancels, so the score is exactly order-invariant.  The
segment-averaged trial score keeps this property because
`DattModel.score_records` averages the pair-score grids in float64.

Raw scores are z-normalized with statistics sampled from training pairs and
averaged into the fused score.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .attention import mutual_attention_grid
from .backbone import BatchNorm, Dense, Module
from .errors import FormatError, NumericError

STD_FLOOR = 1e-6


def cosine_grid(e1, e2):
    """Cosine similarity of every row of e1 with every row of e2, in [-1, 1].

    (X, F) and (Y, F) give an (X, Y) grid; two vectors give a scalar.
    Zero vectors are an error.
    """
    n1 = np.linalg.norm(e1, axis=-1, keepdims=True)
    n2 = np.linalg.norm(e2, axis=-1, keepdims=True)
    if (n1 == 0).any() or (n2 == 0).any():
        raise NumericError("cosine_grid: zero-norm embedding")
    return (e1 / n1) @ (e2 / n2).T


class BinaryHeadParams(Module):
    """Normalization, train-only dropout, and a dense layer to one logit."""

    def __init__(self, rng, num_f, dropout_rate=0.5, dtype=np.float32):
        self.bn = BatchNorm(num_f, dtype)
        self.fc = Dense(rng, num_f, 1, dtype=dtype)
        self.dropout_rate = dropout_rate


def pair_difference_product(f_self_1, f_self_2, f_mutual_1, f_mutual_2):
    """(f_self1 - f_self2) * (f_mutual1 - f_mutual2), elementwise."""
    return T.mul(T.sub(f_self_1, f_self_2), T.sub(f_mutual_1, f_mutual_2))


def binary_head_scores(x, params, mode="infer", rng=None):
    """Head forward on (..., num_f) difference products -> (...) scores."""
    h = params.bn(x, mode)
    if mode == "train" and params.dropout_rate > 0:
        if rng is None:
            raise NumericError("train-mode dropout needs an rng")
        keep = 1.0 - params.dropout_rate
        mask = (rng.random(h.data.shape) < keep).astype(h.data.dtype) / keep
        h = T.mul(h, T.Tensor(mask))
    lead = h.data.shape[:-1]
    flat = T.reshape(h, (-1, h.data.shape[-1]))
    logit = params.fc(flat)
    return T.reshape(T.sigmoid(logit), lead)


def pair_grid_scores(a, b, head, mode="infer", rng=None):
    """(B1, B2) binary-head scores; [i, j] pairs utterance i of a with j of b.

    a and b are attended groups: (f_self, f_att_mutual, f_id) tensors shaped
    (B, num_f), (B, T', num_f) and (B, T', num_f).
    """
    self_a, att_a, id_a = a
    self_b, att_b, id_b = b
    nf = self_a.data.shape[-1]
    mutual_ab = mutual_attention_grid(att_a, id_a, self_b)  # (B1, B2, num_f)
    mutual_ba = mutual_attention_grid(att_b, id_b, self_a)  # (B2, B1, num_f)
    x = pair_difference_product(
        T.reshape(self_a, (-1, 1, nf)),
        T.reshape(self_b, (1, -1, nf)),
        mutual_ab,
        T.transpose(mutual_ba, (1, 0, 2)),
    )
    return binary_head_scores(x, head, mode, rng)


def binary_score(pa, params, mode="infer", rng=None):
    """Similarity of one attended pair, in [0, 1]."""
    x = pair_difference_product(
        pa.u1.f_self, pa.u2.f_self, pa.u1.f_mutual, pa.u2.f_mutual
    )
    x = T.reshape(x, (1, x.data.shape[-1]))
    return float(binary_head_scores(x, params, mode, rng).data[0])


@dataclass
class NormStats:
    mean_cos: float
    std_cos: float
    mean_bin: float
    std_bin: float

    KEYS = ("mean_cos", "std_cos", "mean_bin", "std_bin")

    def to_dict(self):
        return {k: float(getattr(self, k)) for k in self.KEYS}

    @classmethod
    def from_dict(cls, d):
        """Stats from a checkpoint manifest: four finite floats, both stds > 0."""
        vals = [d.get(k) for k in cls.KEYS] if isinstance(d, dict) else [None]
        if not all(isinstance(v, float) and np.isfinite(v) for v in vals):
            raise FormatError(f"norm stats need finite float {', '.join(cls.KEYS)}, got {d!r}")
        ns = cls(*vals)
        if ns.std_cos <= 0 or ns.std_bin <= 0:
            raise FormatError(f"norm stats need stds > 0, got {d!r}")
        return ns


def _floored_std(values, name):
    std = float(np.std(values))  # population formula
    if std < STD_FLOOR:
        warnings.warn(f"{name} scores are (near-)constant; std floored at {STD_FLOOR}")
        return STD_FLOOR
    return std


def norm_stats_from_scores(cos_scores, bin_scores):
    return NormStats(
        float(np.mean(cos_scores)),
        _floored_std(cos_scores, "cosine"),
        float(np.mean(bin_scores)),
        _floored_std(bin_scores, "binary"),
    )


def calibrate_norm_stats(model, corpus, n_pairs=10000, seed=0):
    """Score-distribution statistics from sampled training pairs.

    Pairs are drawn uniformly with replacement from all corpus utterances;
    each utterance is embedded once and reused across pairs.
    """
    if n_pairs < 2:
        raise NumericError(f"need at least 2 calibration pairs, got {n_pairs}")
    utts = [u for speaker in corpus.utterances for u in speaker]
    records = [model.embed_utterance(u) for u in utts]
    rng = np.random.default_rng(np.random.SeedSequence(entropy=(seed, 2)))
    cos_scores = np.empty(n_pairs)
    bin_scores = np.empty(n_pairs)
    for k in range(n_pairs):
        i = int(rng.integers(len(records)))
        j = int(rng.integers(len(records)))
        cos_scores[k], bin_scores[k] = model.score_records(records[i], records[j])
    return norm_stats_from_scores(cos_scores, bin_scores)


def fuse_scores(cos, binary, ns):
    """Mean of the two z-normalized scores; increasing in both arguments."""
    return 0.5 * ((cos - ns.mean_cos) / ns.std_cos + (binary - ns.mean_bin) / ns.std_bin)
