"""Two-stream front block, residual trunk, and utterance-level heads.

Input is a batch of log-mel crops shaped (B, T, F, 1).  A normalization
layer feeds two parallel streams: a 7x7 convolution (16 filters) and a
frequency-wise dense map that treats the F bins as channels, so patterns at
different frequency positions stop being interchangeable.  The two streams'
concatenation passes through a 1x1 convolution into a four-stage residual
trunk (3x3 basic blocks, projection shortcuts on downsampling).  The head
averages out frequency (f_raw), maps frames to num_f (f_id), averages out
time (embedding), and classifies speakers (logits).

Both streams are linear in the input, so the normalization's scalar affine
is folded into them (batch-norm folding): `bn_in` only standardizes the
frames, and each map convolves gamma * xhat + beta through conv2d's
`input_affine`: gamma times the map of xhat plus beta times the map of one
image of ones, padded like the frames.  The frames need no gradient, so
neither map computes one; gamma and beta take theirs from the maps'
weight-gradient products of xhat and of the ones image.
Inference, which records no tape, applies the affine to the frames, bit for
bit as an unfolded layer would.  `bn_in` is a one-channel BatchNorm, so a
checkpoint stores its gamma, beta and running statistics like any other's.

Inference folds every other conv -> batch norm pair into its conv as well
(`conv_bn`): stream 1, the merge, and each block's two convs and
projection.  With running statistics a norm is a per-channel scale s and
shift t, so bn(conv(x; W)) = conv(x; W * s) + t; the shift, a block's
residual and the ReLU then go in place on the conv's output, where the
norm alone made several passes over it.  This applies only to infer-mode
calls that no tape records.  Train mode, and any taped call, runs the conv
and the norm as two layers, so gamma and beta get their gradients and
training keeps its bits.  Stream 2's one-channel norm after the frequency
map, and the dense layers' norms, stay unfolded.  In float32 the fold
rounds differently from the unfolded layers, about as far from a float64
forward as they are.

A train step's memory is what its tape keeps for the backward (`T`'s
module docstring); norm, residual-sum, ReLU and pool outputs are freed
once their forward consumers have run.  After one desk step's forward (16
crops of 300 x 64) tracemalloc counts 194 MB held: 109 MB of band patches,
48 MB of conv outputs their norms centre in place (`conv_bn`), the 21 MB
concat the 1x1 merge conv reads and 12 MB of bool ReLU masks.

Time shrinks by 32x and frequency by 16x through the stack; extents follow
floor((n + 2*pad - k)/stride) + 1 throughout, so e.g. T=300 lands on 10
frames rather than the nominal 300/32.

The prefix -- the front block, the first 3x3/2 max pool and stage 0 -- is
stride 1 in time after that one stride-2 pool.  So an input cut at an even
frame offset has the same stage-0 rows as the whole input at that place,
except the rows its own padding reaches (`prefix_reach`).  Stage 1 opens
with stride-2 convs, so the same holds one stage on for a cut at an even
stage-0 row, given the cut's fixed stage-0 rows (`stage1_reach`).  The
overlapping segments of one utterance therefore share a single pass
through the prefix and one through stage 1, with only the edge rows
recomputed.  Stage 2 opens with a stride-2 pool and the segment hop is 25
stage-1 rows, an odd count, so its rows are not shared; `Trunk` takes a
stage range so stages 2-3 run on the stacked segments.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .errors import ConfigError, ShapeError


@dataclass
class BackboneConfig:
    mel_bins: int = 64
    channels: tuple = (64, 128, 256, 512)
    blocks_per_stage: tuple = (2, 2, 2, 2)
    num_f: int = 256
    num_id: int = 2

    def __post_init__(self):
        if self.mel_bins < 16 or self.mel_bins % 16 != 0:
            raise ConfigError(f"mel_bins must be a positive multiple of 16, got {self.mel_bins}")
        if len(self.channels) != 4 or len(self.blocks_per_stage) != 4:
            raise ConfigError("channels and blocks_per_stage must each have 4 entries")
        if min(self.channels) < 1:
            raise ConfigError(f"channels must all be >= 1, got {self.channels}")
        if self.num_f < 1:
            raise ConfigError(f"num_f must be >= 1, got {self.num_f}")
        if self.num_id < 2:
            raise ConfigError(f"num_id must be >= 2, got {self.num_id}")


class Module:
    """Parameter container; children found by attribute walk (insertion order)."""

    def _leaves(self, prefix=""):
        """(name, Tensor or BNState) for every attribute leaf, depth first."""
        for key, val in vars(self).items():
            name = f"{prefix}.{key}" if prefix else key
            if isinstance(val, (T.Tensor, T.BNState)):
                yield name, val
            elif isinstance(val, Module):
                yield from val._leaves(name)
            elif isinstance(val, (list, tuple)) and val and isinstance(val[0], Module):
                for i, child in enumerate(val):
                    yield from child._leaves(f"{name}.{i}")

    def named_params(self, prefix=""):
        out = []
        for name, val in self._leaves(prefix):
            if isinstance(val, T.BNState):
                out += [(f"{name}.gamma", val.gamma), (f"{name}.beta", val.beta)]
            elif val.requires_grad:
                out.append((name, val))
        return out

    def named_bn_states(self, prefix=""):
        return [(name, val) for name, val in self._leaves(prefix) if isinstance(val, T.BNState)]

    def params(self):
        return [p for _, p in self.named_params()]


def he_normal(rng, shape, fan_in, dtype):
    return T.parameter(rng.normal(0.0, np.sqrt(2.0 / fan_in), size=shape), dtype=dtype)


class Conv2d(Module):
    """Cross-correlation layer; no bias (normalization always follows)."""

    def __init__(self, rng, kh, kw, cin, cout, stride, pad, dtype=np.float32):
        self.weight = he_normal(rng, (kh, kw, cin, cout), kh * kw * cin, dtype)
        self.stride = stride
        self.pad = pad

    def __call__(self, x, input_affine=None):
        return T.conv2d(x, self.weight, self.stride, self.pad, input_affine)


class Dense(Module):
    def __init__(self, rng, d_in, d_out, bias=True, dtype=np.float32):
        self.weight = he_normal(rng, (d_in, d_out), d_in, dtype)
        self.bias = T.parameter(np.zeros(d_out, dtype=dtype)) if bias else None

    def __call__(self, x):
        out = T.matmul(x, self.weight)
        if self.bias is not None:
            out = T.add(out, self.bias)
        return out


class BatchNorm(Module):
    def __init__(self, channels, dtype=np.float32):
        self.state = T.BNState(channels, dtype=dtype)

    def __call__(self, x, mode, act=None):
        return T.batch_norm(x, self.state, mode, act=act)


def conv_bn(conv, bn, x, mode, relu=False, residual=None, input_affine=None):
    """relu(bn(conv(x, input_affine)) + residual): the residual (a tensor)
    only if given, the ReLU only if `relu`.

    Train mode and taped calls run the conv, the norm (with the ReLU when
    there is no residual), then `T.add` and `T.relu`.  In train mode the
    conv's fresh output goes to the norm marked `_scratch`, as nothing else
    reads it, and the norm overwrites it with x - mean, which its backward
    keeps (`T.batch_norm`).  The conv's backward never reads its output,
    so the pair's tape nodes hold the centred input and at most a bool
    ReLU mask, no second float array of that size.

    An unrecorded infer-mode call runs conv(x; W * s) + t (see the module
    docstring), with s = gamma / sqrt(running_var + eps) and
    t = beta - running_mean * s from the state at the call, since training
    and calibration move it; the shift, the residual and the ReLU go in
    place on the conv's output.
    """
    st = bn.state
    leaves = (x, conv.weight, st.gamma, st.beta, *(input_affine or ()))
    if mode != "infer" or T._recording(leaves) is not None:
        y = conv(x, input_affine)
        y._scratch = mode == "train"
        h = bn(y, mode, act="relu" if relu and residual is None else None)
        if residual is None:
            return h
        h = T.add(h, residual)
        return T.relu(h) if relu else h
    # s and t in float64, so that W * s and t each round once
    s = st.gamma.data / np.sqrt(st.running_var.astype(np.float64) + st.eps)
    w = conv.weight.data
    y = T.conv2d(x, T.Tensor(w * s, dtype=w.dtype), conv.stride, conv.pad, input_affine).data
    _, wide, tile = T._wide_rows(y)  # a per-channel add runs faster on wide rows
    wide += tile((st.beta.data - st.running_mean * s).astype(y.dtype))
    if residual is not None:
        y += residual.data
    if relu:
        np.maximum(y, 0.0, out=y)
    return T.Tensor(y)


class BasicBlock(Module):
    """Two 3x3 convolutions with a residual connection.

    Downsampling (or a width change) switches the shortcut to a strided 1x1
    projection followed by normalization.
    """

    def __init__(self, rng, cin, cout, stride, dtype=np.float32):
        self.conv1 = Conv2d(rng, 3, 3, cin, cout, stride, (1, 1), dtype)
        self.bn1 = BatchNorm(cout, dtype)
        self.conv2 = Conv2d(rng, 3, 3, cout, cout, (1, 1), (1, 1), dtype)
        self.bn2 = BatchNorm(cout, dtype)
        if stride != (1, 1) or cin != cout:
            self.proj = Conv2d(rng, 1, 1, cin, cout, stride, (0, 0), dtype)
            self.proj_bn = BatchNorm(cout, dtype)
        else:
            self.proj = None
            self.proj_bn = None

    def __call__(self, x, mode):
        h = conv_bn(self.conv1, self.bn1, x, mode, relu=True)
        shortcut = x if self.proj is None else conv_bn(self.proj, self.proj_bn, x, mode)
        return conv_bn(self.conv2, self.bn2, h, mode, relu=True, residual=shortcut)


class Preprocess(Module):
    """Input normalization and the two parallel streams."""

    STREAM1_FILTERS = 16
    STEM = 7  # square stream-1 kernel, zero-padded by STEM // 2

    def __init__(self, rng, cfg, dtype=np.float32):
        f, k = cfg.mel_bins, self.STEM
        self.bn_in = BatchNorm(1, dtype)
        self.stream1_conv = Conv2d(
            rng, k, k, 1, self.STREAM1_FILTERS, (1, 1), (k // 2, k // 2), dtype
        )
        self.stream1_bn = BatchNorm(self.STREAM1_FILTERS, dtype)
        self.freq_conv = Conv2d(rng, 1, 1, f, f, (1, 1), (0, 0), dtype)
        self.stream2_bn = BatchNorm(1, dtype)
        self.merge_conv = Conv2d(rng, 1, 1, self.STREAM1_FILTERS + 1, cfg.channels[0], (1, 1), (0, 0), dtype)
        self.merge_bn = BatchNorm(cfg.channels[0], dtype)

    def frequency_map(self, x, input_affine=None):
        """Dense F->F map across frequency, shared over time (pre-norm).

        Treats the F bins of (B, T, F, 1) as channels of a (B, T, 1, F)
        image so a 1x1 convolution mixes frequencies; reshaped back after.
        """
        b, t, f, _ = x.data.shape
        as_channels = T.reshape(x, (b, t, 1, f))
        mixed = self.freq_conv(as_channels, input_affine)
        return T.reshape(mixed, (b, t, f, 1))

    def __call__(self, x, mode):
        if x.data.ndim != 4 or x.data.shape[3] != 1:
            raise ShapeError(f"expected (B, T, F, 1) input, got {x.data.shape}")
        if x.data.shape[2] != self.freq_conv.weight.data.shape[2]:
            raise ShapeError(
                f"input has {x.data.shape[2]} mel bins, model expects "
                f"{self.freq_conv.weight.data.shape[2]}"
            )
        # bn_in's affine is folded into both maps (see the module docstring)
        st = self.bn_in.state
        xhat, affine = T.standardize(x, st, mode), (st.gamma, st.beta)
        s1 = conv_bn(self.stream1_conv, self.stream1_bn, xhat, mode, relu=True, input_affine=affine)
        s2 = self.stream2_bn(self.frequency_map(xhat, affine), mode, act="relu")
        merged = T.concat([s1, s2], axis=3)
        return conv_bn(self.merge_conv, self.merge_bn, merged, mode, relu=True)


class Trunk(Module):
    """Four residual stages with pooling per the downsampling ledger."""

    FRONT_POOL = ((3, 3), (2, 2), (1, 1))  # kernel, stride, pad of the pool before stage 0

    def __init__(self, rng, cfg, dtype=np.float32):
        c = cfg.channels
        cin = c[0]
        for stage_idx, (cout, n_blocks) in enumerate(zip(c, cfg.blocks_per_stage)):
            blocks = []
            for b in range(n_blocks):
                stride = (2, 2) if stage_idx > 0 and b == 0 else (1, 1)
                blocks.append(BasicBlock(rng, cin, cout, stride, dtype))
                cin = cout
            # an attribute per stage: the Module walk names blocks stage{i}.{j}
            setattr(self, f"stage{stage_idx}", blocks)

    @property
    def stages(self):
        return [self.stage0, self.stage1, self.stage2, self.stage3]

    def __call__(self, x, mode, stages=(0, 1, 2, 3)):
        """Run `stages` in order: stage 0 opens with the front pool, stage 2
        with a time-only pool.  A stage range lets segments share stage 0."""
        h = x
        for stage_idx in stages:
            if stage_idx == 0:
                h = T.pool2d(h, *self.FRONT_POOL)
            elif stage_idx == 2:
                h = T.pool2d(h, (3, 1), (2, 1), (1, 0))
            for block in self.stages[stage_idx]:
                h = block(h, mode)
        return h


@dataclass
class UtteranceFeatures:
    """Backbone outputs for a batch of utterances (leading batch axis)."""

    f_raw: T.Tensor     # (B, T', C)
    f_id: T.Tensor      # (B, T', num_f)
    embedding: T.Tensor  # (B, num_f)
    logits: T.Tensor    # (B, num_id)


class Backbone(Module):
    def __init__(self, cfg, rng, dtype=np.float32):
        self.cfg = cfg
        self.pre = Preprocess(rng, cfg, dtype)
        self.trunk = Trunk(rng, cfg, dtype)
        self.fc1 = Dense(rng, cfg.channels[3], cfg.num_f, bias=True, dtype=dtype)
        self.fc1_bn = BatchNorm(cfg.num_f, dtype)
        # bias-free classifier keeps the cosine-margin loss well defined
        self.fc2 = Dense(rng, cfg.num_f, cfg.num_id, bias=False, dtype=dtype)

    def postprocess(self, trunk_out, mode):
        f_raw = T.mean_over(trunk_out, axis=2)  # average out frequency
        h = self.fc1(f_raw)
        f_id = self.fc1_bn(h, mode, act="relu")
        embedding = T.mean_over(f_id, axis=1)   # average out time
        logits = self.fc2(embedding)
        return UtteranceFeatures(f_raw, f_id, embedding, logits)

    def __call__(self, x, mode):
        h = self.pre(x, mode)
        h = self.trunk(h, mode)
        return self.postprocess(h, mode)


def prefix_reach(cfg):
    """(edge, halo) of the prefix: the front block, the front pool, stage 0.

    `edge` counts the stage-0 rows at each end of an input that its own
    padding reaches.  The stem pads STEM // 2 = 3 frames; pooled row j reads
    frames 2j-1..2j+1, so those reach pooled rows 0 and 1; each of stage 0's
    two 3x3 convs per block widens that by one row.  A band of `halo` frames
    has 2 * edge stage-0 rows, so the padding at its far end leaves the
    `edge` rows at its near end untouched.
    """
    stride = Trunk.FRONT_POOL[1][0]
    edge = Preprocess.STEM // 2 // stride + 1 + 2 * cfg.blocks_per_stage[0]
    return edge, 2 * edge * stride


def stage1_reach(cfg):
    """(edge1, band1) of stage 1 over segments whose stage-0 rows are fixed.

    `edge1` counts the stage-1 rows at each interior segment end that its
    own padding reaches.  The segment's `edge` stage-0 rows there differ
    from the shared pass's (`prefix_reach`).  Stage 1's stride-2 3x3 conv
    reads stage-0 rows 2r-1..2r+1 for row r, so rows 0..edge // 2 read them
    (row 0 reads the pad too), and its stride-2 1x1 projection reads row 2r,
    inside those.  The block's second conv widens that by one row and each
    further block's two convs by one each.  A segment's last rows are
    reached by one row fewer: its stage-0 row count is even, so the strided
    conv never reads the pad after it.

    A band of `band1` stage-0 rows run on its own has padding at its far
    end, which reaches 2 * blocks stage-1 rows back from its start (row 0
    reads the pad) and 2 * blocks - 1 from its end.  With band1 / 2 = edge1
    + 2 * blocks rows, the `edge1` rows at its near end are untouched.  An
    even band1 starts a segment's end band on an even stage-0 row, so its
    stage-1 rows line up with the segment's.
    """
    blocks = cfg.blocks_per_stage[1]
    edge1 = prefix_reach(cfg)[0] // 2 + 2 * blocks
    return edge1, 2 * (edge1 + 2 * blocks)


def predicted_trunk_shape(cfg, t_in):
    """Expected trunk output extents for a T-frame input (extent formula);
    an extent below 1 means the trunk has nothing left of that axis."""
    ext = T.conv_out_extent
    t = ext(t_in, 3, 2, 1)          # first max pool
    f = ext(cfg.mel_bins, 3, 2, 1)
    for stage_idx in range(1, 4):
        if stage_idx == 2:
            t = ext(t, 3, 2, 1)     # time-only max pool
        t = ext(t, 3, 2, 1)
        f = ext(f, 3, 2, 1)
    return t, f, cfg.channels[3]
