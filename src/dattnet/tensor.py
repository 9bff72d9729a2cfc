"""Dense array engine with reverse-mode differentiation.

Every array-valued quantity in the model (spectrograms, frame features,
attention weights, logits, losses) is a `Tensor` wrapping a numpy array.
Operations executed inside a `GraphTape` context record a backward closure;
`backward()` replays the tape in reverse and accumulates gradients into
`Tensor.grad`.

Precision policy: float64 is the verification dtype (finite-difference
checks, bit-exact convolution ordering), float32 is the training dtype.
`conv2d` keeps a strict accumulation order (kh, kw, cin) on float64 inputs
so it matches a naive nested-loop reference bit for bit; float32 inputs take
an im2col/GEMM path.
"""

from __future__ import annotations

import threading
from itertools import zip_longest

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import InputError, NumericError, ShapeError, TapeError


class Tensor:
    """A dense numeric array, optionally tracked for differentiation."""

    __slots__ = ("data", "requires_grad", "grad")

    def __init__(self, data, requires_grad=False, dtype=None):
        self.data = np.asarray(data, dtype=dtype)
        if self.data.dtype.kind != "f":
            self.data = self.data.astype(np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def dtype(self):
        return self.data.dtype

    def item(self):
        return float(self.data.reshape(()))

    def __repr__(self):
        flag = ", grad" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype.name}{flag})"


def parameter(data, dtype=None):
    """A tracked leaf tensor."""
    return Tensor(data, requires_grad=True, dtype=dtype)


class GraphTape:
    """Ordered record of operations for one reverse sweep.

    Ops are appended in execution order, so the list is already a
    topological order of the graph.  A tape admits exactly one backward
    pass; tapes are confined to the thread that recorded them.
    """

    _tls = threading.local()

    def __init__(self):
        self._nodes = []
        self._used = False

    def __enter__(self):
        stack = getattr(GraphTape._tls, "stack", None)
        if stack is None:
            stack = GraphTape._tls.stack = []
        stack.append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        GraphTape._tls.stack.pop()
        return False

    def __len__(self):
        return len(self._nodes)

    @staticmethod
    def current():
        stack = getattr(GraphTape._tls, "stack", None)
        return stack[-1] if stack else None


def _record(inputs, out, backward_fn):
    tape = GraphTape.current()
    if tape is None:
        return out
    if not any(t.requires_grad for t in inputs):
        return out
    out.requires_grad = True
    tape._nodes.append((out, backward_fn))
    return out


def _accum(t, g):
    if not t.requires_grad:
        return
    # Rebinding (never in-place) keeps stored gradients immune to aliasing.
    t.grad = g if t.grad is None else t.grad + g


def backward(loss, tape):
    """Reverse sweep: seeds d(loss)/d(loss)=1, accumulates into .grad."""
    if tape._used:
        raise TapeError("tape already consumed by a previous backward pass")
    tape._used = True
    if loss.data.size != 1:
        raise ShapeError(f"backward needs a scalar loss, got shape {loss.data.shape}")
    loss.grad = np.ones_like(loss.data)
    for out, fn in reversed(tape._nodes):
        if out.grad is not None:
            fn(out.grad)


# ---------------------------------------------------------------------------
# broadcasting helpers


def _broadcast_shape(sa, sb):
    out = []
    for da, db in zip_longest(reversed(sa), reversed(sb), fillvalue=1):
        if da != db and da != 1 and db != 1:
            raise ShapeError(f"shapes not broadcast-compatible: {sa} vs {sb}")
        out.append(max(da, db))
    return tuple(reversed(out))


def _unbroadcast(g, shape):
    """Sum gradient over axes that were duplicated by broadcasting."""
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, (gd, sd) in enumerate(zip(g.shape, shape)) if sd == 1 and gd != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    if g.shape != shape:
        g = g.reshape(shape)
    return g


# ---------------------------------------------------------------------------
# elementwise / broadcast ops


def broadcast_binary(a, b, op):
    """Elementwise add/sub/mul with numpy-style (right-aligned) broadcasting.

    The smaller operand is logically duplicated along size-1 axes; its
    gradient is summed back over the duplicated axes.
    """
    _broadcast_shape(a.data.shape, b.data.shape)
    if op == "add":
        out = Tensor(a.data + b.data)

        def bwd(g):
            _accum(a, _unbroadcast(g, a.data.shape))
            _accum(b, _unbroadcast(g, b.data.shape))

    elif op == "sub":
        out = Tensor(a.data - b.data)

        def bwd(g):
            _accum(a, _unbroadcast(g, a.data.shape))
            _accum(b, _unbroadcast(-g, b.data.shape))

    elif op == "mul":
        out = Tensor(a.data * b.data)

        def bwd(g):
            _accum(a, _unbroadcast(g * b.data, a.data.shape))
            _accum(b, _unbroadcast(g * a.data, b.data.shape))

    else:
        raise InputError(f"unknown binary op {op!r}")
    return _record((a, b), out, bwd)


def add(a, b):
    return broadcast_binary(a, b, "add")


def sub(a, b):
    return broadcast_binary(a, b, "sub")


def mul(a, b):
    return broadcast_binary(a, b, "mul")


def matmul(a, b):
    """Matrix product; the left operand may carry leading batch axes."""
    av, bv = a.data, b.data
    if av.ndim < 2 or bv.ndim < 2:
        raise ShapeError(f"matmul needs >=2-d operands, got {av.shape} @ {bv.shape}")
    if av.shape[-1] != bv.shape[-2]:
        raise ShapeError(f"matmul inner extents differ: {av.shape} @ {bv.shape}")
    out = Tensor(np.matmul(av, bv))

    def bwd(g):
        ga = np.matmul(g, bv.swapaxes(-1, -2))
        gb = np.matmul(av.swapaxes(-1, -2), g)
        _accum(a, _unbroadcast(ga, av.shape))
        _accum(b, _unbroadcast(gb, bv.shape))

    return _record((a, b), out, bwd)


# ---------------------------------------------------------------------------
# convolution


def conv_out_extent(n, k, stride, pad):
    """Output extent convention used everywhere: floor((n+2p-k)/s)+1."""
    return (n + 2 * pad - k) // stride + 1


def _conv_forward_exact(xp, wv, oh, ow, sh, sw, dtype):
    # Accumulates in (kh, kw, cin) order with separate multiply/add
    # roundings, reproducing the naive nested-loop reference bit for bit.
    b = xp.shape[0]
    kh, kw, cin, cout = wv.shape
    y = np.zeros((b, oh, ow, cout), dtype=dtype)
    for ih in range(kh):
        for iw in range(kw):
            xs = xp[:, ih : ih + (oh - 1) * sh + 1 : sh, iw : iw + (ow - 1) * sw + 1 : sw, :]
            for ic in range(cin):
                y += xs[..., ic : ic + 1] * wv[ih, iw, ic, :]
    return y


def _conv_patches(xp, kh, kw, oh, ow, sh, sw):
    rows = xp.shape[0] * oh * ow
    cin = xp.shape[3]
    if kh == kw == 1:
        sub = xp if sh == sw == 1 else xp[:, ::sh, ::sw]
        return sub.reshape(rows, cin)
    if cin == 1:
        # tap-major build: each row is one strided plane copy, and the
        # transposed view lets both GEMMs run without another copy
        pt = np.empty((kh * kw, rows), dtype=xp.dtype)
        for k in range(kh * kw):
            ih, iw = divmod(k, kw)
            np.copyto(
                pt[k].reshape(xp.shape[0], oh, ow),
                xp[:, ih : ih + (oh - 1) * sh + 1 : sh, iw : iw + (ow - 1) * sw + 1 : sw, 0],
            )
        return pt.T
    win = sliding_window_view(xp, (kh, kw), axis=(1, 2))  # (b, H', W', cin, kh, kw)
    win = win[:, ::sh, ::sw]
    # canonical K order (kh, kw, cin) to match w.reshape(kh*kw*cin, cout)
    return np.ascontiguousarray(win.transpose(0, 1, 2, 4, 5, 3)).reshape(
        rows, kh * kw * cin
    )


def _conv2d_grads(xp, wv, g, sh, sw, oh, ow, patches, need_dx=True):
    """dW and d(padded x) for a conv2d node; factored out for fault injection."""
    kh, kw, cin, cout = wv.shape
    b = g.shape[0]
    gflat = g.reshape(-1, cout)
    if patches is None:
        patches = _conv_patches(xp, kh, kw, oh, ow, sh, sw)
    gw = (patches.T @ gflat).reshape(kh, kw, cin, cout)

    if not need_dx:
        return gw, None
    if kh == kw == 1 and sh == sw == 1 and xp.shape[1:3] == (oh, ow):
        return gw, (gflat @ wv.reshape(cin, cout).T).reshape(xp.shape)
    gx = np.zeros_like(xp)
    if cin == 1:
        # tap-major layout: each row of the GEMM result is one contiguous
        # (b, oh, ow) plane, so the scatter below streams sequentially
        gcol_t = (wv.reshape(kh * kw, cout) @ gflat.T).reshape(kh, kw, b, oh, ow, 1)
        for ih in range(kh):
            for iw in range(kw):
                gx[:, ih : ih + (oh - 1) * sh + 1 : sh, iw : iw + (ow - 1) * sw + 1 : sw, :] += (
                    gcol_t[ih, iw]
                )
        return gw, gx
    # one small GEMM per kernel tap keeps both the product and the
    # scatter-add contiguous; beats building the full column matrix
    for ih in range(kh):
        for iw in range(kw):
            c = gflat @ wv[ih, iw].T
            gx[:, ih : ih + (oh - 1) * sh + 1 : sh, iw : iw + (ow - 1) * sw + 1 : sw, :] += (
                c.reshape(b, oh, ow, cin)
            )
    return gw, gx


def conv2d(x, w, stride=(1, 1), pad=(0, 0)):
    """2-d cross-correlation over (time, freq) with channels-last layout.

    x: (T, F, Cin) or (B, T, F, Cin); w: (kh, kw, Cin, Cout).  No bias: every
    conv in the model feeds a batch norm, whose shift plays that role.
    Padding is zero-padding on both spatial axes.
    """
    xv = x.data
    batched = xv.ndim == 4
    if xv.ndim == 3:
        xv = xv[None]
    elif xv.ndim != 4:
        raise ShapeError(f"conv2d input must be 3-d or 4-d, got {x.data.shape}")
    wv = w.data
    if wv.ndim != 4:
        raise ShapeError(f"conv2d weight must be 4-d, got {wv.shape}")
    kh, kw, cin, cout = wv.shape
    if xv.shape[-1] != cin:
        raise ShapeError(f"input channels {xv.shape[-1]} != kernel depth {cin}")
    sh, sw = stride
    ph, pw = pad
    th, tf = xv.shape[1], xv.shape[2]
    oh = conv_out_extent(th, kh, sh, ph)
    ow = conv_out_extent(tf, kw, sw, pw)
    if oh < 1 or ow < 1:
        raise ShapeError(
            f"conv2d output extent non-positive: input {th}x{tf}, kernel {kh}x{kw}, "
            f"stride {stride}, pad {pad} -> {oh}x{ow}"
        )
    xp = np.pad(xv, ((0, 0), (ph, ph), (pw, pw), (0, 0))) if (ph or pw) else xv

    exact = xv.dtype == np.float64
    patches = None
    if exact:
        yv = _conv_forward_exact(xp, wv, oh, ow, sh, sw, xv.dtype)
    else:
        patches = _conv_patches(xp, kh, kw, oh, ow, sh, sw)
        yv = (patches @ wv.reshape(-1, cout)).reshape(xv.shape[0], oh, ow, cout)
    if not batched:
        yv = yv[0]
    out = Tensor(yv)

    def bwd(g):
        gb = g if batched else g[None]
        gw, gx = _conv2d_grads(xp, wv, gb, sh, sw, oh, ow, patches, x.requires_grad)
        if gx is not None:
            if ph or pw:
                gx = gx[:, ph : ph + th, pw : pw + tf, :]
            if not batched:
                gx = gx[0]
            _accum(x, gx)
        _accum(w, gw)

    return _record((x, w), out, bwd)


# ---------------------------------------------------------------------------
# pooling


def pool2d(x, kernel, stride=None, pad=(0, 0)):
    """Max pooling per channel over (time, freq) windows.

    `stride` defaults to the kernel.  Padding uses a -inf sentinel, so a
    padded cell never wins.  Backward routes each output's gradient to the
    first (row-major) maximum of its window.
    """
    xv = x.data
    batched = xv.ndim == 4
    if xv.ndim == 3:
        xv = xv[None]
    elif xv.ndim != 4:
        raise ShapeError(f"pool2d input must be 3-d or 4-d, got {x.data.shape}")
    kh, kw = kernel
    sh, sw = stride if stride is not None else kernel
    ph, pw = pad
    th, tf = xv.shape[1], xv.shape[2]
    oh = conv_out_extent(th, kh, sh, ph)
    ow = conv_out_extent(tf, kw, sw, pw)
    if oh < 1 or ow < 1:
        raise ShapeError(
            f"pool2d output extent non-positive: input {th}x{tf}, kernel {kernel}, "
            f"stride {(sh, sw)}, pad {pad} -> {oh}x{ow}"
        )
    if ph or pw:
        xp = np.pad(xv, ((0, 0), (ph, ph), (pw, pw), (0, 0)), constant_values=-np.inf)
    else:
        xp = xv

    def tap(arr, ih, iw):
        return arr[:, ih : ih + (oh - 1) * sh + 1 : sh, iw : iw + (ow - 1) * sw + 1 : sw, :]

    yv = tap(xp, 0, 0).copy()
    # running argmax with strict >, so the first (row-major) maximum wins,
    # matching a flat argmax; the tap index drives the backward
    am = np.zeros(yv.shape, dtype=np.uint8 if kh * kw <= 256 else np.int32)
    for k in range(1, kh * kw):
        t = tap(xp, *divmod(k, kw))
        np.copyto(am, k, where=t > yv)
        np.maximum(yv, t, out=yv)
    if not batched:
        yv = yv[0]
    out = Tensor(yv)

    def bwd(g):
        g = g if batched else g[None]
        gx = np.zeros_like(xp)
        for k in range(kh * kw):
            dst = tap(gx, *divmod(k, kw))
            dst += g * (am == k)
        if ph or pw:
            gx = gx[:, ph : ph + th, pw : pw + tf, :]
        _accum(x, gx if batched else gx[0])

    return _record((x,), out, bwd)


# ---------------------------------------------------------------------------
# batch normalization


class BNState:
    """Per-channel scale/shift parameters plus running statistics."""

    def __init__(self, channels, eps=1e-5, momentum=0.1, dtype=np.float32):
        self.gamma = parameter(np.ones(channels, dtype=dtype))
        self.beta = parameter(np.zeros(channels, dtype=dtype))
        self.running_mean = np.zeros(channels, dtype=dtype)
        self.running_var = np.ones(channels, dtype=dtype)
        self.eps = eps
        self.momentum = momentum

    @property
    def channels(self):
        return self.gamma.data.shape[0]


def batch_norm(x, state, mode="train", act=None):
    """Per-channel normalization over every axis but the last (channel) one.

    Train mode normalizes with the batch statistics (biased variance) and
    folds them into the running stats with the state's momentum; infer mode
    normalizes with the running stats.  `act="relu"` applies the rectifier
    in the same pass (equivalent to relu(batch_norm)).
    """
    xv = x.data
    c = xv.shape[-1]
    if c != state.channels:
        raise ShapeError(f"batch_norm: {c} channels vs state {state.channels}")
    if act not in (None, "relu"):
        raise InputError(f"unknown batch_norm activation {act!r}")
    gamma, beta = state.gamma, state.beta
    eps = np.asarray(state.eps, dtype=xv.dtype)

    if mode == "train":
        # flat (N, C) view: lets the squared-sum reductions fuse without
        # materializing extra temps (a copy if x is not C-contiguous)
        flat = xv.reshape(-1, c)
        n = flat.shape[0]
        # einsum streams the column reduction several times faster than
        # mean(axis=0) at these shapes
        mu = np.einsum("nc->c", flat) / n
        xc = flat - mu
        var = np.einsum("nc,nc->c", xc, xc) / n
        m = state.momentum
        state.running_mean = ((1 - m) * state.running_mean + m * mu).astype(xv.dtype)
        state.running_var = ((1 - m) * state.running_var + m * var).astype(xv.dtype)
        invstd = 1.0 / np.sqrt(var + eps)
        # keep xc unscaled and fold invstd into the affine scale; the
        # backward reductions pick the invstd factor back up per channel
        ov = xc * (invstd * gamma.data)
        ov += beta.data
        if act is not None:
            np.maximum(ov, 0.0, out=ov)
        out = Tensor(ov.reshape(xv.shape))

        def bwd(g):
            if act is not None:
                g = g * (out.data > 0)
            # dxh = gf * gamma, so its sum and xc-projection are just
            # gamma-scaled copies of the gf reductions: two fewer passes
            gf = g.reshape(-1, c)
            s1 = np.einsum("nc->c", gf)
            s2 = np.einsum("nc,nc->c", gf, xc)
            _accum(beta, s1)
            _accum(gamma, s2 * invstd)
            if not x.requires_grad:
                return
            gd = gamma.data
            dx = gf * (gd * invstd)
            dx -= xc * (s2 * gd / n * (invstd**3))
            dx -= s1 * gd / n * invstd
            _accum(x, dx.reshape(xv.shape))

    elif mode == "infer":
        invstd = 1.0 / np.sqrt(state.running_var + eps)
        xhat = (xv - state.running_mean) * invstd
        ov = xhat * gamma.data
        ov += beta.data
        if act is not None:
            np.maximum(ov, 0.0, out=ov)
        out = Tensor(ov)

        def bwd(g):
            if act is not None:
                g = g * (out.data > 0)
            axes = tuple(range(xv.ndim - 1))
            _accum(beta, g.sum(axis=axes))
            _accum(gamma, (g * xhat).sum(axis=axes))
            _accum(x, g * (gamma.data * invstd))

    else:
        raise InputError(f"unknown batch_norm mode {mode!r}")
    return _record((x, gamma, beta), out, bwd)


# ---------------------------------------------------------------------------
# softmax / activations / reductions


def softmax_over_axis(x, axis):
    """Numerically stable exp-normalization along one axis."""
    xv = x.data
    if not -xv.ndim <= axis < xv.ndim:
        raise ShapeError(f"softmax axis {axis} invalid for shape {xv.shape}")
    if np.isnan(xv).any():
        raise NumericError("softmax input contains NaN")
    z = xv - xv.max(axis=axis, keepdims=True)
    e = np.exp(z)
    yv = e / e.sum(axis=axis, keepdims=True)
    out = Tensor(yv)

    def bwd(g):
        _accum(x, yv * (g - (g * yv).sum(axis=axis, keepdims=True)))

    return _record((x,), out, bwd)


def activation(x, kind):
    xv = x.data
    if kind == "relu":
        yv = np.maximum(xv, 0)
        out = Tensor(yv)

        def bwd(g):
            # subgradient 0 at exactly 0
            _accum(x, g * (xv > 0))

    elif kind == "sigmoid":
        yv = np.empty_like(xv)
        pos = xv >= 0
        yv[pos] = 1.0 / (1.0 + np.exp(-xv[pos]))
        ex = np.exp(xv[~pos])
        yv[~pos] = ex / (1.0 + ex)
        out = Tensor(yv)

        def bwd(g):
            _accum(x, g * yv * (1.0 - yv))

    else:
        raise InputError(f"unknown activation {kind!r}")
    return _record((x,), out, bwd)


def relu(x):
    return activation(x, "relu")


def sigmoid(x):
    return activation(x, "sigmoid")


def _norm_axes(axis, ndim):
    if axis is None:
        return tuple(range(ndim))
    if isinstance(axis, int):
        axis = (axis,)
    return tuple(a % ndim for a in axis)


def _expand_reduced(g, shape, axes):
    out_shape = tuple(1 if i in axes else s for i, s in enumerate(shape))
    return g.reshape(out_shape)


def sum_over(x, axis=None, keepdims=False):
    axes = _norm_axes(axis, x.data.ndim)
    out = Tensor(x.data.sum(axis=axes, keepdims=keepdims))

    def bwd(g):
        if not keepdims:
            g = _expand_reduced(g, x.data.shape, axes)
        _accum(x, np.broadcast_to(g, x.data.shape))

    return _record((x,), out, bwd)


def mean_over(x, axis=None, keepdims=False):
    axes = _norm_axes(axis, x.data.ndim)
    n = int(np.prod([x.data.shape[a] for a in axes])) if axes else 1
    out = Tensor(x.data.mean(axis=axes, keepdims=keepdims))

    def bwd(g):
        if not keepdims:
            g = _expand_reduced(g, x.data.shape, axes)
        _accum(x, np.broadcast_to(g / n, x.data.shape))

    return _record((x,), out, bwd)


def concat(tensors, axis):
    shapes = [t.data.shape for t in tensors]
    ref = list(shapes[0])
    for s in shapes[1:]:
        if len(s) != len(ref) or any(a != b for i, (a, b) in enumerate(zip(s, ref)) if i != axis % len(ref)):
            raise ShapeError(f"concat shapes incompatible along axis {axis}: {shapes}")
    out = Tensor(np.concatenate([t.data for t in tensors], axis=axis))
    sizes = [s[axis % len(ref)] for s in shapes]
    offsets = np.cumsum([0] + sizes)

    def bwd(g):
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            sl = [slice(None)] * g.ndim
            sl[axis % g.ndim] = slice(lo, hi)
            _accum(t, g[tuple(sl)])

    return _record(tuple(tensors), out, bwd)


def reshape(x, shape):
    out = Tensor(x.data.reshape(shape))

    def bwd(g):
        _accum(x, g.reshape(x.data.shape))

    return _record((x,), out, bwd)


def transpose(x, axes):
    if sorted(axes) != list(range(x.data.ndim)):
        raise ShapeError(f"axes {axes} is not a permutation for shape {x.data.shape}")
    inverse = np.argsort(axes)
    out = Tensor(x.data.transpose(axes))

    def bwd(g):
        _accum(x, g.transpose(inverse))

    return _record((x,), out, bwd)


def narrow(x, axis, start, length):
    """Contiguous slice along one axis (used to split utterance groups)."""
    sl = [slice(None)] * x.data.ndim
    sl[axis] = slice(start, start + length)
    sl = tuple(sl)
    out = Tensor(x.data[sl])

    def bwd(g):
        gx = np.zeros_like(x.data)
        gx[sl] = g
        _accum(x, gx)

    return _record((x,), out, bwd)


def l2_normalize(x, axis):
    """Scale slices along `axis` to unit L2 norm; zero norm is an error."""
    xv = x.data
    norms = np.sqrt((xv * xv).sum(axis=axis, keepdims=True))
    if (norms == 0).any():
        raise NumericError("l2_normalize: zero-norm slice")
    yv = xv / norms
    out = Tensor(yv)

    def bwd(g):
        proj = (g * yv).sum(axis=axis, keepdims=True)
        _accum(x, (g - yv * proj) / norms)

    return _record((x,), out, bwd)


# ---------------------------------------------------------------------------
# loss primitives


def softmax_cross_entropy(logits, labels):
    """Mean cross-entropy of softmax over (N, K) logits against N integer labels."""
    lv = logits.data
    if lv.ndim != 2:
        raise ShapeError(f"softmax_cross_entropy expects (N, K) logits, got {lv.shape}")
    lab = np.asarray(labels, dtype=np.int64)
    n, k = lv.shape
    if lab.shape != (n,):
        raise ShapeError(f"labels shape {lab.shape} does not match batch {n}")
    if (lab < 0).any() or (lab >= k).any():
        raise InputError(f"label out of range [0, {k})")
    z = lv - lv.max(axis=1, keepdims=True)
    lse = np.log(np.exp(z).sum(axis=1))
    per = lse - z[np.arange(n), lab]
    out = Tensor(np.asarray(per.mean(), dtype=lv.dtype))

    def bwd(g):
        p = np.exp(z)
        p /= p.sum(axis=1, keepdims=True)
        p[np.arange(n), lab] -= 1.0
        _accum(logits, (float(g) / n) * p)

    return _record((logits,), out, bwd)


BCE_CLAMP = 1e-7


def binary_cross_entropy(probs, targets, pos_weight=None):
    """Mean binary cross-entropy on probabilities clamped to [1e-7, 1-1e-7]."""
    pv = probs.data
    y = np.asarray(targets, dtype=pv.dtype)
    if y.shape != pv.shape:
        raise ShapeError(f"targets shape {y.shape} != probs shape {pv.shape}")
    w = 1.0 if pos_weight is None else float(pos_weight)
    pc = np.clip(pv, BCE_CLAMP, 1.0 - BCE_CLAMP)
    per = -(w * y * np.log(pc) + (1.0 - y) * np.log(1.0 - pc))
    out = Tensor(np.asarray(per.mean(), dtype=pv.dtype))
    n = pv.size

    def bwd(g):
        inside = (pv > BCE_CLAMP) & (pv < 1.0 - BCE_CLAMP)
        dp = (-w * y / pc + (1.0 - y) / (1.0 - pc)) * (float(g) / n)
        _accum(probs, np.where(inside, dp, 0.0).astype(pv.dtype))

    return _record((probs,), out, bwd)
