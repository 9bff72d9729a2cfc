"""Reference formulas that tests compare the model's code against."""

import numpy as np

from dattnet.errors import NumericError
from dattnet.evaluation import segment_utterance
from dattnet.model import UtteranceRecord


def am_softmax_prob(embedding, fc2_weights, label, s, m):
    """Posterior of the true class for one embedding (rows = class vectors)."""
    e = np.asarray(embedding, dtype=np.float64).reshape(-1)
    w = np.asarray(fc2_weights, dtype=np.float64)
    ne = np.linalg.norm(e)
    nw = np.linalg.norm(w, axis=1)
    if ne == 0.0 or (nw == 0.0).any():
        raise NumericError("zero-norm embedding or class vector")
    cos = (w @ e) / (nw * ne)
    z = s * cos
    z[label] = s * (cos[label] - m)
    z -= z.max()
    p = np.exp(z)
    return float(p[label] / p.sum())


def embed_utterance_per_segment(model, fbank):
    """UtteranceRecord of an utterance whose segments each run the whole
    backbone on their own: stacked, then forward_utterances and attend."""
    stack = np.stack([seg.frames for seg in segment_utterance(fbank)])
    feats = model.forward_utterances(stack, "infer")
    f_self, f_att_mutual = model.attend(feats.f_raw, feats.f_id, "infer")
    return UtteranceRecord(
        f_id=feats.f_id.data,
        f_att_mutual=f_att_mutual.data,
        f_self=f_self.data,
        embedding=feats.embedding.data,
    )
