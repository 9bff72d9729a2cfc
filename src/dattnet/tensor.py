"""Dense array engine with reverse-mode differentiation.

Every array-valued quantity in the model (spectrograms, frame features,
attention weights, logits, losses) is a `Tensor` wrapping a numpy array.
Operations executed inside a `GraphTape` context record a backward closure;
`backward()` replays the tape in reverse, dropping each node once its
closure has run, and accumulates gradients into `Tensor.grad`.

Precision policy: float64 is the verification dtype (finite-difference
checks, bit-exact convolution ordering), float32 is the training dtype.
`conv2d` keeps a strict accumulation order (kh, kw, cin) on float64 inputs
so it matches a naive nested-loop reference bit for bit; float32 inputs take
one GEMM over banded patches, each patch row the input strip read by up to 4
neighbouring outputs, against a band matrix of the kernel (see `conv2d`).

Layout rule: arrays are channels-last, so a per-channel broadcast
`x * v[c]` over the flat (N, C) view runs one C-element inner loop per row.
`batch_norm` instead runs its per-channel broadcasts on a wide-row view
(N/w, w*C) with the channel vector tiled w times (`_wide_rows`).  That is
exact: an elementwise IEEE operation rounds each element on its own, so its
result does not depend on the loop shape.  Reductions are left as they are,
on the (N, C) view, because their summation order does depend on it.

For the same reason train-mode `batch_norm` may run its chains of
elementwise passes (forward scale, shift and ReLU; the three dx updates)
over ~512 KB blocks of wide rows (`_row_blocks`), reading each block from
memory once per chain.  Its reductions, and the ReLU mask product, which
may read a concat's strided gradient slice, run once over whole arrays.
"""

from __future__ import annotations

import math
import threading
from itertools import zip_longest

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import InputError, NumericError, ShapeError, TapeError


class Tensor:
    """A dense numeric array, optionally tracked for differentiation."""

    # _scratch marks `data` as a buffer that only the next op reads, so that
    # op may overwrite it (see `batch_norm`); `backbone.conv_bn` sets it
    __slots__ = ("data", "requires_grad", "grad", "_scratch")

    def __init__(self, data, requires_grad=False, dtype=None):
        self.data = np.asarray(data, dtype=dtype)
        if self.data.dtype.kind != "f":
            self.data = self.data.astype(np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self._scratch = False

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
    topological order of the graph.  Each node is an op's output and its
    backward closure, which holds what the op saved for its gradient.  A
    tape admits exactly one backward pass, which empties it (see
    `backward`); `len(tape)` stays the number of ops it recorded.  Tapes
    are confined to the thread that recorded them.
    """

    _tls = threading.local()

    def __init__(self):
        self._nodes = []
        self._recorded = 0
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
        return self._recorded

    @staticmethod
    def current():
        stack = getattr(GraphTape._tls, "stack", None)
        return stack[-1] if stack else None


def _recording(inputs):
    """The tape that records an op on `inputs`, or None if nothing will."""
    tape = GraphTape.current()
    if tape is None or not any(t.requires_grad for t in inputs):
        return None
    return tape


def _record(inputs, out, backward_fn):
    tape = _recording(inputs)
    if tape is not None:
        out.requires_grad = True
        tape._nodes.append((out, backward_fn))
        tape._recorded += 1
    return out


def _accum(t, g):
    if not t.requires_grad:
        return
    # Rebinding (never in-place) keeps stored gradients immune to aliasing.
    t.grad = g if t.grad is None else t.grad + g


def backward(loss, tape):
    """Reverse sweep: seeds d(loss)/d(loss)=1, accumulates into .grad.

    Each node is popped off the tape before its closure runs and dropped
    after, so what the closure saved, and the output with the gradient it
    consumed, are freed as the sweep passes them unless a caller still
    holds them.  Leaves, and any output a caller holds, keep their .grad.
    """
    if tape._used:
        raise TapeError("tape already consumed by a previous backward pass")
    tape._used = True
    if loss.data.size != 1:
        raise ShapeError(f"backward needs a scalar loss, got shape {loss.data.shape}")
    loss.grad = np.ones_like(loss.data)
    nodes = tape._nodes
    while nodes:
        out, fn = nodes.pop()
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


def _window_extents(op, x, kernel, stride, pad):
    """(oh, ow) of `op`'s windows over 4-d (B, T, F, C) `x`; a ShapeError
    for any other rank or a non-positive extent."""
    if x.ndim != 4:
        raise ShapeError(f"{op} input must be 4-d, got {x.shape}")
    th, tf = x.shape[1:3]
    oh, ow = (conv_out_extent(*a) for a in zip((th, tf), kernel, stride, pad))
    if oh < 1 or ow < 1:
        raise ShapeError(
            f"{op} output extent non-positive: input {th}x{tf}, kernel {kernel[0]}x{kernel[1]}, "
            f"stride {stride}, pad {pad} -> {oh}x{ow}"
        )
    return oh, ow


def _pad(a, ph, pw, value=0.0):
    """(B, T, F, C) `a` with `ph` rows and `pw` columns of `value` on each
    side (`a` itself when both are 0): the bits of np.pad, without its
    per-call overhead.  Fills the four border slabs, then copies the
    interior once."""
    if not (ph or pw):
        return a
    b, t, f, c = a.shape
    out = np.empty((b, t + 2 * ph, f + 2 * pw, c), dtype=a.dtype)
    out[:, :ph] = value
    out[:, ph + t :] = value
    out[:, ph : ph + t, :pw] = value
    out[:, ph : ph + t, pw + f :] = value
    out[:, ph : ph + t, pw : pw + f] = a
    return out


def _tap(arr, ih, iw, oh, ow, sh, sw):
    """The (B, oh, ow, C) view of padded `arr` that kernel tap (ih, iw) reads."""
    return arr[:, ih : ih + (oh - 1) * sh + 1 : sh, iw : iw + (ow - 1) * sw + 1 : sw, :]


def _conv_forward_exact(xp, wv, oh, ow, sh, sw):
    # Accumulates in (kh, kw, cin) order with separate multiply/add
    # roundings, reproducing the naive nested-loop reference bit for bit.
    kh, kw, cin, cout = wv.shape
    y = np.zeros((xp.shape[0], oh, ow, cout), dtype=xp.dtype)
    for ih in range(kh):
        for iw in range(kw):
            xs = _tap(xp, ih, iw, oh, ow, sh, sw)
            for ic in range(cin):
                y += xs[..., ic : ic + 1] * wv[ih, iw, ic, :]
    return y


def _strip(kh, kw, cin, ow):
    """fo, the output columns of one band patch row: the largest of 4 and 2
    with fo * cin <= 32 that divides ow, else 1; 1 for a 1x1 kernel."""
    if kh == kw == 1:
        return 1
    return next((fo for fo in (4, 2) if fo * cin <= 32 and ow % fo == 0), 1)


def _band_patches(xp, kh, kw, oh, ow, sh, sw, fo):
    """(B*oh*ow/fo, kh*wi*cin) patch rows of padded input, as in `conv2d`:
    row (b, t, j) is the strip that outputs j*fo .. j*fo+fo-1 read."""
    b, _, _, cin = xp.shape
    if kh == kw == 1:
        sub = xp if sh == sw == 1 else xp[:, ::sh, ::sw]
        return sub.reshape(b * oh * ow, cin)
    if xp.strides[2] != cin * xp.strides[3]:
        xp = np.ascontiguousarray(xp)  # a strip needs (F, C) as one run
    wi = (fo - 1) * sw + kw
    sb, st, sf, sc = xp.strides
    view = as_strided(xp, (b, oh, ow // fo, kh, wi * cin), (sb, sh * st, fo * sw * sf, st, sc))
    return np.ascontiguousarray(view).reshape(b * oh * (ow // fo), kh * wi * cin)


def _band_weight(wv, fo, sw):
    """(kh*wi*cin, fo*cout) band matrix: block f is the kernel at column f*sw."""
    kh, kw, cin, cout = wv.shape
    band = np.zeros((kh, (fo - 1) * sw + kw, cin, fo, cout), dtype=wv.dtype)
    for f in range(fo):
        band[:, f * sw : f * sw + kw, :, f] = wv
    return band.reshape(-1, fo * cout)


def _band_conv(xp, wv, oh, ow, sh, sw):
    """Band-patch conv of padded input: (patches, output)."""
    kh, kw, cin, cout = wv.shape
    fo = _strip(kh, kw, cin, ow)
    patches = _band_patches(xp, kh, kw, oh, ow, sh, sw, fo)
    return patches, (patches @ _band_weight(wv, fo, sw)).reshape(xp.shape[0], oh, ow, cout)


def _conv2d_grads(xshape, wv, g, stride, pad, patches, need_dx=True):
    """dW and dx (of the unpadded input) for a conv2d node, as `conv2d`
    describes, from the padded input's shape and its band patches;
    factored out for fault injection."""
    kh, kw, cin, cout = wv.shape
    (sh, sw), (ph, pw) = stride, pad
    b, oh, ow, _ = g.shape
    fo = _strip(kh, kw, cin, ow)
    gb = (patches.T @ g.reshape(-1, fo * cout)).reshape(kh, -1, cin, fo, cout)
    gw = sum(gb[:, f * sw : f * sw + kw, :, f] for f in range(fo))

    if not need_dx:
        return gw, None
    th, tf = xshape[1] - 2 * ph, xshape[2] - 2 * pw
    # the band dx's patches hold th * (tf / fd) * kh * wi values per image
    # and channel of g, wi = fd - 1 + kw, against g's oh * ow: at most 9
    # times as many for a 3 x 3 kernel, 28 for the 7 x 7 stem, where the
    # per-tap scatter costs far less
    fd = _strip(kh, kw, cout, tf)
    band = th * (tf // fd) * kh * (fd - 1 + kw)
    if sh == sw == 1 and ph < kh and pw < kw and band <= 16 * oh * ow:
        qh, qw = kh - 1 - ph, kw - 1 - pw
        _, gx = _band_conv(_pad(g, qh, qw), wv[::-1, ::-1].transpose(0, 1, 3, 2), th, tf, 1, 1)
        return gw, gx
    gflat = g.reshape(-1, cout)
    gx = np.zeros(xshape, dtype=patches.dtype)
    # one small GEMM per kernel tap keeps both the product and the
    # scatter-add contiguous; beats building the full column matrix
    for ih in range(kh):
        for iw in range(kw):
            t = _tap(gx, ih, iw, oh, ow, sh, sw)
            t += (gflat @ wv[ih, iw].T).reshape(b, oh, ow, cin)
    return gw, gx[:, ph : ph + th, pw : pw + tf, :]


def conv2d(x, w, stride=(1, 1), pad=(0, 0), input_affine=None):
    """2-d cross-correlation over (time, freq) with channels-last layout.

    x: (B, T, F, Cin); w: (kh, kw, Cin, Cout).  No bias: every conv in the
    model feeds a batch norm, whose shift plays that role.  Padding is
    zero-padding on both spatial axes.

    `input_affine=(gamma, beta)`, one-element tensors, convolves the
    zero-padded gamma * x + beta.  Under a tape it is folded in, as
    conv(x; gamma * w) + beta * conv(1; w), where 1 is one (1, T, F, Cin)
    image of ones, padded like x; its output broadcasts over the batch.
    Both convs run the same kernels, and so do their weight gradients:
    P_x^T g of x, and P_1^T g of the ones image against the batch-summed g.
    dW = gamma P_x^T g + beta P_1^T g, dgamma = <w, P_x^T g> and
    dbeta = <w, P_1^T g>, with no dx unless x needs one.  Unrecorded
    (inference), it forms gamma * x + beta: one pass over the input, not
    the output.

    Float32 runs a k x k kernel as one GEMM over banded patches (a one-axis
    lowering, as in MEC, arXiv:1706.06873).  A patch row is the input strip
    that fo neighbouring outputs read: kh runs of wi * Cin contiguous values,
    wi = (fo - 1) * stride + kw.  The kernel becomes a (kh * wi * Cin, fo *
    Cout) band matrix, zero off each output's window, so the product is
    (B, T, F, Cout) as it lies.  fo is the largest of 4 and 2 with fo * Cin
    <= 32 that divides the output width, else 1: the (kh, kw, Cin) im2col.
    dW folds the fo diagonal blocks of P^T g.  A stride-1 dx is the band
    forward of g padded by k - 1 - pad, with the kernel rotated and its
    channels swapped; a strided dx adds one GEMM per tap into its view.
    The band's zeros multiply a whole strip, and 0 * inf is NaN, so an inf
    turns all fo outputs of each strip that reads it non-finite; im2col
    leaves those whose own windows miss it finite.  A stride-1 dx whose
    band patches would hold more than 16 times g's values (the 7 x 7 stem)
    takes the per-tap scatter too.

    A taped call's backward keeps, of x and of the ones image, the band
    patches in float32 and the padded array in float64, which builds no
    patches in its forward and rebuilds them there.  So a float32 call
    frees its padded copy of x when it returns.
    """
    xv, wv = x.data, w.data
    if wv.ndim != 4:
        raise ShapeError(f"conv2d weight must be 4-d, got {wv.shape}")
    kh, kw, cin, cout = wv.shape
    oh, ow = _window_extents("conv2d", xv, (kh, kw), stride, pad)
    if xv.shape[-1] != cin:
        raise ShapeError(f"input channels {xv.shape[-1]} != kernel depth {cin}")
    (sh, sw), (ph, pw) = stride, pad

    def forward(xp, wv):
        """(kept, output) of padded `xp`: kept is what the backward forms
        the band patches from, the patches themselves in float32 and `xp`
        in float64, whose forward builds none."""
        if xp.dtype == np.float64:
            return xp, _conv_forward_exact(xp, wv, oh, ow, sh, sw)
        return _band_conv(xp, wv, oh, ow, sh, sw)

    def patches(kept):
        if kept.ndim == 2:
            return kept
        return _band_patches(kept, kh, kw, oh, ow, sh, sw, _strip(kh, kw, cin, ow))

    inputs = (x, w) if input_affine is None else (x, w, *input_affine)
    weff = wv
    if input_affine is not None:
        gamma, beta = input_affine
        if _recording(inputs) is None:
            # no backward will run, and the affine costs a pass over the
            # input here against one over the (cout times larger) output
            xv, input_affine = xv * gamma.data + beta.data, None
        else:
            scale, shift = gamma.data.reshape(()), beta.data.reshape(())
            weff = wv * scale
            kept1, y1 = forward(_pad(np.ones((1, *xv.shape[1:]), dtype=xv.dtype), ph, pw), wv)
    xp = _pad(xv, ph, pw)
    xshape = xp.shape
    kept, yv = forward(xp, weff)
    if input_affine is not None:
        yv += shift * y1  # in place, with no temporary the size of the output
    out = Tensor(yv)

    def bwd(g):
        gw, gx = _conv2d_grads(xshape, weff, g, stride, pad, patches(kept), x.requires_grad)
        if gx is not None:
            _accum(x, gx)
        if input_affine is not None:
            g1, _ = _conv2d_grads(None, wv, g.sum(axis=0, keepdims=True), stride, pad, patches(kept1), False)
            _accum(gamma, np.vdot(wv, gw).reshape(gamma.data.shape))
            _accum(beta, np.vdot(wv, g1).reshape(beta.data.shape))
            gw = scale * gw + shift * g1
        _accum(w, gw)

    return _record(inputs, out, bwd)


# ---------------------------------------------------------------------------
# pooling


def pool2d(x, kernel, stride, pad=(0, 0)):
    """Max pooling per channel over (time, freq) windows of (B, T, F, C) input.

    Padding uses a -inf sentinel, so a padded cell never wins.  Backward
    routes each output's gradient to the first (row-major) maximum of its
    window; the map of those maxima is built only when a tape records the
    call, since nothing else reads it.  The backward is one scatter-add
    over the outputs in reverse raster order.  For a fixed input, a later
    tap in row-major order belongs to an earlier output in raster order, so
    the reversed scatter sums an input's terms in tap order: the bits of one
    masked add per tap, taps in order.  The backward keeps the argmax map
    and the shape of the -inf-padded copy, not the copy.
    """
    xv = x.data
    oh, ow = _window_extents("pool2d", xv, kernel, stride, pad)
    (kh, kw), (sh, sw), (ph, pw) = kernel, stride, pad
    th, tf = xv.shape[1:3]
    xp = _pad(xv, ph, pw, -np.inf)
    yv = _tap(xp, 0, 0, oh, ow, sh, sw).copy()
    # running argmax with strict >, so the first (row-major) maximum wins,
    # matching a flat argmax; the tap index drives the backward.  A tap
    # that beats the running max is the argmax so far, and taps come in
    # rising order, so a max with k * (t > yv) writes it (no masked copy).
    am = None
    if _recording((x,)) is not None:
        am = np.zeros(yv.shape, dtype=np.uint8 if kh * kw <= 256 else np.int32)
    for k in range(1, kh * kw):
        t = _tap(xp, *divmod(k, kw), oh, ow, sh, sw)
        if am is not None:
            np.maximum(am, np.multiply(t > yv, k, dtype=am.dtype), out=am)
        np.maximum(yv, t, out=yv)
    b, hp, wp, c = xp.shape
    out = Tensor(yv)

    def bwd(g):
        gx = np.zeros((b, hp, wp, c), dtype=xv.dtype)  # C order: reshape(-1) is a view
        # flat index in gx of each output's argmax: the offset of tap am
        # within its window, plus the window's origin
        ih, iw = np.divmod(np.arange(kh * kw), kw)
        src = (ih * (wp * c) + iw * c)[am]
        src += np.arange(b).reshape(-1, 1, 1, 1) * (hp * wp * c)
        src += np.arange(oh).reshape(-1, 1, 1) * (sh * wp * c)
        src += np.arange(ow).reshape(-1, 1) * (sw * c) + np.arange(c)
        # add.at applies its updates in index order, so the reversed
        # outputs sum each input's terms in tap order (see the docstring)
        np.add.at(gx.reshape(-1), src.reshape(-1)[::-1], g.reshape(-1)[::-1])
        if ph or pw:
            gx = gx[:, ph : ph + th, pw : pw + tf, :]
        _accum(x, gx)

    return _record((x,), out, bwd)


# ---------------------------------------------------------------------------
# batch normalization


def _wide_rows(xv):
    """`xv` as flat (N, C) rows and as wide (N/w, w*C) rows of the same memory,
    and a function tiling a C-vector to match the wide rows.

    w = gcd(N, 1024 // C), so a wide row holds up to 1024 elements and a
    per-channel broadcast runs one long inner loop per wide row instead of
    one C-element loop per channel row.  Flat rows that are not C-contiguous
    (a view of a transposed or channel-sliced array) take w = 1: they keep
    their layout, and so do the arrays computed from them, whose reductions
    then sum in the order they always did.  So do arrays of at most 1024
    elements, where the loops are too short for the tiling to pay.
    """
    c = xv.shape[-1]
    flat = xv.reshape(-1, c)  # a copy when no (N, C) view exists
    n = flat.shape[0]
    widen = flat.flags.c_contiguous and flat.size > 1024
    w = math.gcd(n, max(1, 1024 // c)) if widen else 1

    def tile(v):  # np.tile(v, w) with less per-call overhead
        if w == 1:
            return v
        t = np.empty((w, c), dtype=v.dtype)
        t[...] = v
        return t.reshape(-1)

    return flat, flat.reshape(n // w, w * c), tile


def _relu_grad(g, y):
    """g * (y > 0), with the mask as floats: a float mask multiplies faster
    than a bool one, and to the same bits, as numpy reads a bool as 0 / 1."""
    return g * (y > 0).astype(g.dtype)


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


def _row_blocks(a):
    """Slices cutting the rows of 2-d `a` into blocks of about 512 KB, which
    stay in cache through a chain of elementwise passes."""
    step = max(1, (1 << 19) // (a.shape[1] * a.itemsize))
    return [slice(i, i + step) for i in range(0, a.shape[0], step)]


def _centred(xv, state, mode, overwrite=False):
    """Flat rows, centred wide rows, per-channel 1/std and `tile` of `xv`:
    the batch statistics (biased variance), folded into the running ones
    with the state's momentum, in train mode; the running ones in infer.
    `overwrite` centres train-mode `xv` in its own buffer."""
    c = xv.shape[-1]
    if c != state.channels:
        raise ShapeError(f"batch_norm: {c} channels vs state {state.channels}")
    if mode not in ("train", "infer"):
        raise InputError(f"unknown batch_norm mode {mode!r}")
    eps = np.asarray(state.eps, dtype=xv.dtype)
    # the flat (N, C) view lets the squared-sum reductions fuse without
    # materializing extra temps
    flat, wide, tile = _wide_rows(xv)
    if mode == "infer":
        xc = np.subtract(wide, tile(state.running_mean))
        return flat, xc, 1.0 / np.sqrt(state.running_var + eps), tile
    n = flat.shape[0]
    # einsum streams the column reduction several times faster than
    # mean(axis=0) at these shapes
    mu = np.einsum("nc->c", flat) / n
    xc = np.subtract(wide, tile(mu), out=wide if overwrite else None)
    xcf = xc.reshape(n, c)
    var = np.einsum("nc,nc->c", xcf, xcf) / n
    m = state.momentum
    state.running_mean = ((1 - m) * state.running_mean + m * mu).astype(xv.dtype)
    state.running_var = ((1 - m) * state.running_var + m * var).astype(xv.dtype)
    return flat, xc, 1.0 / np.sqrt(var + eps), tile


def standardize(x, state, mode="train"):
    """`batch_norm` without its affine, untracked: (x - mean) / std per
    channel with `batch_norm`'s statistics in `mode`.  The layer's gamma and
    beta go to what it feeds, as conv2d's `input_affine`."""
    if _recording((x,)) is not None:
        raise TapeError("standardize does not differentiate its input")
    _, xc, invstd, tile = _centred(x.data, state, mode)
    xc *= tile(invstd)
    return Tensor(xc.reshape(x.data.shape))


def batch_norm(x, state, mode="train", act=None):
    """Per-channel normalization over every axis but the last (channel) one.

    Train mode normalizes with the batch statistics (biased variance) and
    folds them into the running stats with the state's momentum; infer mode
    normalizes with the running stats.  Infer mode writes one buffer in the
    reference order ((x - mean) * invstd) * gamma + beta, so its values are
    those of that expression bit for bit when x and the state share a dtype.
    It serves every taped call and the norms that `backbone.conv_bn` does
    not fold into their conv: stream 2's and the dense layers'.
    `act="relu"` applies the rectifier in the same pass (equivalent to
    relu(batch_norm)).

    Train mode keeps the centred input x - mean for its backward, and the
    output for the ReLU mask.  It centres an input marked `_scratch` (a
    fresh conv output that `backbone.conv_bn` hands over) in that input's
    own buffer, which then holds x - mean, not x; any other input, and
    infer mode, whose backward reads x, leave x as it is.  The bits are
    those of the out-of-place path.

    Per-channel broadcasts run on the wide-row view (see the module
    docstring) and the column reductions on the flat (N, C) view, so the
    values, gradients and running statistics of both modes are, bit for
    bit, those of the same expressions broadcast over (N, C) rows.  The
    train-mode chains of elementwise passes run block by block of wide
    rows (`_row_blocks`); the reductions and the ReLU mask product run on
    whole arrays.
    """
    xv = x.data
    if act not in (None, "relu"):
        raise InputError(f"unknown batch_norm activation {act!r}")
    gamma, beta = state.gamma, state.beta
    flat, xc, invstd, tile = _centred(xv, state, mode, overwrite=x._scratch)

    if mode == "train":
        n, c = flat.shape
        xcf = xc.reshape(n, c)
        # keep xc unscaled and fold invstd into the affine scale; the
        # backward reductions pick the invstd factor back up per channel
        scale, shift = tile(invstd * gamma.data), tile(beta.data)
        ov = np.empty(xc.shape, dtype=np.result_type(xc, scale))
        for r in _row_blocks(ov):
            o = np.multiply(xc[r], scale, out=ov[r])
            o += shift
            if act is not None:
                np.maximum(o, 0.0, out=o)
        out = Tensor(ov.reshape(xv.shape))

        def bwd(g):
            if act is not None:
                g = _relu_grad(g, out.data)
            # dxh = gf * gamma, so its sum and xc-projection are just
            # gamma-scaled copies of the gf reductions: two fewer passes
            gf = g.reshape(-1, c)
            s1 = np.einsum("nc->c", gf)
            s2 = np.einsum("nc,nc->c", gf, xcf)
            _accum(beta, s1)
            _accum(gamma, s2 * invstd)
            if not x.requires_grad:
                return
            gd = gamma.data
            gwide = gf.reshape(xc.shape)
            a = tile(gd * invstd)
            b = tile(s2 * gd / n * (invstd**3))
            d = tile(s1 * gd / n * invstd)
            # the masked gradient is a fresh buffer nothing else holds, so
            # dx takes it over rather than allocating another
            dx = gwide if act is not None else np.empty(gwide.shape, np.result_type(gwide, a))
            for r in _row_blocks(dx):
                blk = np.multiply(gwide[r], a, out=dx[r])
                blk -= xc[r] * b
                blk -= d
            _accum(x, dx.reshape(xv.shape))

    else:
        mean = state.running_mean
        ov = xc
        ov *= tile(invstd)
        ov *= tile(gamma.data)
        ov += tile(beta.data)
        if act is not None:
            np.maximum(ov, 0.0, out=ov)
        out = Tensor(ov.reshape(xv.shape))

        def bwd(g):
            if act is not None:
                g = _relu_grad(g, out.data)
            axes = tuple(range(xv.ndim - 1))
            xhat = (xv - mean) * invstd
            _accum(beta, g.sum(axis=axes))
            _accum(gamma, (g * xhat).sum(axis=axes))
            _accum(x, g * (gamma.data * invstd))

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
            _accum(x, _relu_grad(g, xv))

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


def sum_over(x, axis=None, keepdims=False):
    axes = _norm_axes(axis, x.data.ndim)
    out = Tensor(x.data.sum(axis=axes, keepdims=keepdims))

    def bwd(g):
        if not keepdims:
            g = np.expand_dims(g, axes)
        _accum(x, np.broadcast_to(g, x.data.shape))

    return _record((x,), out, bwd)


def mean_over(x, axis=None, keepdims=False):
    axes = _norm_axes(axis, x.data.ndim)
    n = int(np.prod([x.data.shape[a] for a in axes])) if axes else 1
    out = Tensor(x.data.mean(axis=axes, keepdims=keepdims))

    def bwd(g):
        if not keepdims:
            g = np.expand_dims(g, axes)
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
