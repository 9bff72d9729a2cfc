"""Reference formulas that tests compare the model's code against, and the
tests' one tracemalloc helper."""

import contextlib
import tracemalloc

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from dattnet import tensor as T
from dattnet.backbone import Backbone, Trunk, conv_bn
from dattnet.errors import InputError, NumericError
from dattnet.evaluation import segment_utterance
from dattnet.model import UtteranceRecord


@contextlib.contextmanager
def traced_memory():
    """Traces allocations in the block.  Yields `mem`: mem() is (bytes
    allocated in the block and still held, the peak of those bytes since
    the block began or since the last mem() call)."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]

        def mem():
            held, peak = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            return held - base, peak - base

        yield mem
    finally:
        tracemalloc.stop()


def compute_eer_sweep(scores):
    """`evaluation.compute_eer` as a loop over the thresholds, counting FAR
    and FRR with two full comparisons each."""
    pos = np.asarray([s for s, lab in scores if lab], dtype=np.float64)
    neg = np.asarray([s for s, lab in scores if not lab], dtype=np.float64)
    if pos.size == 0 or neg.size == 0:
        raise InputError("EER needs at least one positive and one negative trial")
    thresholds = np.unique(np.concatenate([pos, neg]))
    thresholds = np.append(thresholds, thresholds[-1] + 1.0)  # FAR=0, FRR=1 endpoint
    # at the lowest threshold FAR=1, FRR=0, so the sweep always starts positive
    prev_t = prev_far = prev_frr = None
    for t in thresholds:
        far = float((neg >= t).mean())
        frr = float((pos < t).mean())
        d = far - frr
        if d == 0.0:
            return far, float(t)
        if d < 0.0:
            d_prev = prev_far - prev_frr
            alpha = d_prev / (d_prev - d)
            eer = (1 - alpha) * prev_far + alpha * far
            return float(eer), float((1 - alpha) * prev_t + alpha * t)
        prev_t, prev_far, prev_frr = t, far, frr
    raise InputError("threshold sweep never crossed")  # unreachable with sentinel


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


def embed_utterance_per_segment(model, fbank, route=Backbone.__call__):
    """UtteranceRecord of an utterance whose segments each run the whole
    backbone on their own: stacked, then `route(model.backbone, x, "infer")`
    and attend."""
    stack = np.stack([seg.frames for seg in segment_utterance(fbank)])
    x = T.Tensor(np.ascontiguousarray(stack, dtype=model.dtype)[..., None])
    feats = route(model.backbone, x, "infer")
    f_self, f_att_mutual = model.attend(feats.f_raw, feats.f_id, "infer")
    return UtteranceRecord(
        f_id=feats.f_id.data,
        f_att_mutual=f_att_mutual.data,
        f_self=f_self.data,
        embedding=feats.embedding.data,
    )


def im2col_sliding(xp, kh, kw, oh, ow, sh, sw):
    """(B*oh*ow, kh*kw*cin) patch matrix of padded input, K in (kh, kw, cin)
    order, built from a sliding-window view."""
    win = sliding_window_view(xp, (kh, kw), axis=(1, 2))[:, ::sh, ::sw]  # (b, oh, ow, cin, kh, kw)
    rows = xp.shape[0] * oh * ow
    return np.ascontiguousarray(win.transpose(0, 1, 2, 4, 5, 3)).reshape(rows, -1)


def conv2d_grads_loop(x, w, g, stride, pad):
    """(dW, dx) of `tensor.conv2d` in float64, one kernel tap and output cell
    at a time: dW[i, j] sums x_pad[cell + (i, j)]^T g[cell], and dx, the
    transposed conv, scatters g[cell] w[i, j]^T back to those input cells."""
    x, w, g = (np.asarray(a, dtype=np.float64) for a in (x, w, g))
    _, th, tf, _ = x.shape
    kh, kw = w.shape[:2]
    (sh, sw), (ph, pw) = stride, pad
    xp = np.pad(x, ((0, 0), (ph, ph), (pw, pw), (0, 0)))
    gw, gxp = np.zeros_like(w), np.zeros_like(xp)
    for i in range(kh):
        for j in range(kw):
            for oy in range(g.shape[1]):
                for ox in range(g.shape[2]):
                    r, c = oy * sh + i, ox * sw + j
                    gw[i, j] += xp[:, r, c].T @ g[:, oy, ox]
                    gxp[:, r, c] += g[:, oy, ox] @ w[i, j].T
    return gw, gxp[:, ph : ph + th, pw : pw + tf]


def pool2d_masked(x, kernel, stride, pad=(0, 0)):
    """`tensor.pool2d` with the backward as one masked add per kernel tap.

    Tap k adds `g * (argmax == k)` into its strided view of the input
    gradient, taps in row-major order, so each input sums its
    contributions in tap order.  The forward is `tensor.pool2d`'s.
    """
    xv = x.data
    kh, kw = kernel
    sh, sw = stride
    ph, pw = pad
    th, tf = xv.shape[1], xv.shape[2]
    oh = T.conv_out_extent(th, kh, sh, ph)
    ow = T.conv_out_extent(tf, kw, sw, pw)
    xp = np.pad(xv, ((0, 0), (ph, ph), (pw, pw), (0, 0)), constant_values=-np.inf)

    def tap(arr, ih, iw):
        return arr[:, ih : ih + (oh - 1) * sh + 1 : sh, iw : iw + (ow - 1) * sw + 1 : sw, :]

    yv = tap(xp, 0, 0).copy()
    am = np.zeros(yv.shape, dtype=np.int32)
    for k in range(1, kh * kw):
        t = tap(xp, *divmod(k, kw))
        np.maximum(am, np.multiply(t > yv, k, dtype=am.dtype), out=am)
        np.maximum(yv, t, out=yv)
    out = T.Tensor(yv)

    def bwd(g, xs):
        gx = np.zeros_like(xp)
        for k in range(kh * kw):
            dst = tap(gx, *divmod(k, kw))
            dst += g * (am == k)
        gx = gx[:, ph : ph + th, pw : pw + tf, :]
        T._accum(xs, gx)

    return T._record((x,), out, bwd)


def relu_float_mask(x):
    """`tensor.relu` with the backward multiplying by (x > 0) cast to floats,
    from the input it keeps."""
    xv = x.data
    out = T.Tensor(np.maximum(xv, 0))

    def bwd(g, xs):
        T._accum(xs, g * (xv > 0).astype(g.dtype))

    return T._record((x,), out, bwd)


def batch_norm_narrow(x, state, mode="train", act=None):
    """`tensor.batch_norm` with every per-channel broadcast on (N, C) rows.

    Each `x ∘ v[c]` runs as numpy's broadcast of a C-vector over the flat
    (N, C) array, and the ReLU backward multiplies by the bool mask.
    """
    xv = x.data
    c = xv.shape[-1]
    gamma, beta = state.gamma, state.beta
    eps = np.asarray(state.eps, dtype=xv.dtype)

    if mode == "train":
        flat = xv.reshape(-1, c)
        n = flat.shape[0]
        mu = np.einsum("nc->c", flat) / n
        xc = flat - mu
        var = np.einsum("nc,nc->c", xc, xc) / n
        m = state.momentum
        state.running_mean = ((1 - m) * state.running_mean + m * mu).astype(xv.dtype)
        state.running_var = ((1 - m) * state.running_var + m * var).astype(xv.dtype)
        invstd = 1.0 / np.sqrt(var + eps)
        ov = xc * (invstd * gamma.data)
        ov += beta.data
        if act is not None:
            np.maximum(ov, 0.0, out=ov)
        out = T.Tensor(ov.reshape(xv.shape))

        def bwd(g, xs, gs, bs):
            if act is not None:
                g = g * (out.data > 0)
            gf = g.reshape(-1, c)
            s1 = np.einsum("nc->c", gf)
            s2 = np.einsum("nc,nc->c", gf, xc)
            T._accum(bs, s1)
            T._accum(gs, s2 * invstd)
            if not xs.requires_grad:
                return
            gd = gamma.data
            dx = gf * (gd * invstd)
            dx -= xc * (s2 * gd / n * (invstd**3))
            dx -= s1 * gd / n * invstd
            T._accum(xs, dx.reshape(xv.shape))

    else:
        mean = state.running_mean
        invstd = 1.0 / np.sqrt(state.running_var + eps)
        ov = np.subtract(xv, mean)
        ov *= invstd
        ov *= gamma.data
        ov += beta.data
        if act is not None:
            np.maximum(ov, 0.0, out=ov)
        out = T.Tensor(ov)

        def bwd(g, xs, gs, bs):
            if act is not None:
                g = g * (out.data > 0)
            axes = tuple(range(xv.ndim - 1))
            xhat = (xv - mean) * invstd
            T._accum(bs, g.sum(axis=axes))
            T._accum(gs, (g * xhat).sum(axis=axes))
            T._accum(xs, g * (gamma.data * invstd))

    return T._record((x, gamma, beta), out, bwd)


def preprocess_unfolded(pre, x, mode):
    """`backbone.Preprocess` with bn_in as its own op: `batch_norm`'s affine
    forms the normalised input, and each of the two maps differentiates it,
    which carries bn_in's gradients back through its backward.  Stream 1
    and the merge go through `conv_bn` as in `Preprocess`, so only bn_in's
    route differs."""
    normed = T.batch_norm(x, pre.bn_in.state, mode)
    s1 = conv_bn(pre.stream1_conv, pre.stream1_bn, normed, mode, relu=True)
    s2 = pre.stream2_bn(pre.frequency_map(normed), mode, act="relu")
    merged = T.concat([s1, s2], axis=3)
    return conv_bn(pre.merge_conv, pre.merge_bn, merged, mode, relu=True)


def backbone_unfolded(bb, x, mode):
    """`backbone.Backbone` with every batch norm after its conv as its own
    layer, batch_norm(conv(x)), in any mode and with or without a tape."""
    pre = bb.pre
    st = pre.bn_in.state
    xhat, affine = T.standardize(x, st, mode), (st.gamma, st.beta)
    s1 = pre.stream1_bn(pre.stream1_conv(xhat, affine), mode, act="relu")
    s2 = pre.stream2_bn(pre.frequency_map(xhat, affine), mode, act="relu")
    merged = T.concat([s1, s2], axis=3)
    h = pre.merge_bn(pre.merge_conv(merged), mode, act="relu")
    for stage_idx, blocks in enumerate(bb.trunk.stages):
        if stage_idx == 0:
            h = T.pool2d(h, *Trunk.FRONT_POOL)
        elif stage_idx == 2:
            h = T.pool2d(h, (3, 1), (2, 1), (1, 0))
        for blk in blocks:
            y = blk.bn1(blk.conv1(h), mode, act="relu")
            y = blk.bn2(blk.conv2(y), mode)
            shortcut = h if blk.proj is None else blk.proj_bn(blk.proj(h), mode)
            h = T.relu(T.add(y, shortcut))
    return bb.postprocess(h, mode)
