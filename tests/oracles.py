"""Reference formulas that tests compare the model's code against."""

import numpy as np

from dattnet.errors import NumericError


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
