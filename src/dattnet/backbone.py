"""Two-stream front block, residual trunk, and utterance-level heads.

Input is a batch of log-mel crops shaped (B, T, F, 1).  A normalization
layer feeds two parallel streams: a 7x7 convolution (16 filters) and a
frequency-wise dense map that treats the F bins as channels, so patterns at
different frequency positions stop being interchangeable.  Their
concatenation passes through a 1x1 convolution into a four-stage residual
trunk (3x3 basic blocks, projection shortcuts on downsampling).  The head
averages out frequency (f_raw), maps frames to num_f (f_id), averages out
time (embedding), and classifies speakers (logits).

Time shrinks by 32x and frequency by 16x through the stack; extents follow
floor((n + 2*pad - k)/stride) + 1 throughout, so e.g. T=300 lands on 10
frames rather than the nominal 300/32.
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
        if self.mel_bins % 16 != 0:
            raise ConfigError(f"mel_bins must be divisible by 16, got {self.mel_bins}")
        if len(self.channels) != 4 or len(self.blocks_per_stage) != 4:
            raise ConfigError("channels and blocks_per_stage must each have 4 entries")
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

    def __init__(self, rng, kh, kw, cin, cout, stride=(1, 1), pad=None, dtype=np.float32):
        if pad is None:
            pad = (kh // 2, kw // 2)  # "same" for stride 1
        self.weight = he_normal(rng, (kh, kw, cin, cout), kh * kw * cin, dtype)
        self.stride = stride
        self.pad = pad

    def __call__(self, x):
        return T.conv2d(x, self.weight, self.stride, self.pad)


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
        h = self.bn1(self.conv1(x), mode, act="relu")
        h = self.bn2(self.conv2(h), mode)
        shortcut = x if self.proj is None else self.proj_bn(self.proj(x), mode)
        return T.relu(T.add(h, shortcut))


class Preprocess(Module):
    """Input normalization and the two parallel streams."""

    STREAM1_FILTERS = 16

    def __init__(self, rng, cfg, dtype=np.float32):
        f = cfg.mel_bins
        self.bn_in = BatchNorm(1, dtype)
        self.stream1_conv = Conv2d(rng, 7, 7, 1, self.STREAM1_FILTERS, (1, 1), (3, 3), dtype)
        self.stream1_bn = BatchNorm(self.STREAM1_FILTERS, dtype)
        self.freq_conv = Conv2d(rng, 1, 1, f, f, (1, 1), (0, 0), dtype)
        self.stream2_bn = BatchNorm(1, dtype)
        self.merge_conv = Conv2d(rng, 1, 1, self.STREAM1_FILTERS + 1, cfg.channels[0], (1, 1), (0, 0), dtype)
        self.merge_bn = BatchNorm(cfg.channels[0], dtype)

    def frequency_map(self, x):
        """Dense F->F map across frequency, shared over time (pre-norm).

        Treats the F bins of (B, T, F, 1) as channels of a (B, T, 1, F)
        image so a 1x1 convolution mixes frequencies; reshaped back after.
        """
        b, t, f, _ = x.data.shape
        as_channels = T.reshape(x, (b, t, 1, f))
        mixed = self.freq_conv(as_channels)
        return T.reshape(mixed, (b, t, f, 1))

    def __call__(self, x, mode):
        if x.data.ndim != 4 or x.data.shape[3] != 1:
            raise ShapeError(f"expected (B, T, F, 1) input, got {x.data.shape}")
        if x.data.shape[2] != self.freq_conv.weight.data.shape[2]:
            raise ShapeError(
                f"input has {x.data.shape[2]} mel bins, model expects "
                f"{self.freq_conv.weight.data.shape[2]}"
            )
        normed = self.bn_in(x, mode)
        s1 = self.stream1_bn(self.stream1_conv(normed), mode, act="relu")
        s2 = self.stream2_bn(self.frequency_map(normed), mode, act="relu")
        merged = T.concat([s1, s2], axis=3)
        return self.merge_bn(self.merge_conv(merged), mode, act="relu")


class Trunk(Module):
    """Four residual stages with pooling per the downsampling ledger."""

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

    def __call__(self, x, mode):
        h = T.pool2d(x, (3, 3), (2, 2), (1, 1))
        for stage_idx, blocks in enumerate(self.stages):
            if stage_idx == 2:
                h = T.pool2d(h, (3, 1), (2, 1), (1, 0))
            for block in blocks:
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


def predicted_trunk_shape(cfg, t_in):
    """Expected trunk output extents for a T-frame input (extent formula)."""
    ext = T.conv_out_extent
    t = ext(t_in, 3, 2, 1)          # first max pool
    f = ext(cfg.mel_bins, 3, 2, 1)
    for stage_idx in range(1, 4):
        if stage_idx == 2:
            t = ext(t, 3, 2, 1)     # time-only max pool
        t = ext(t, 3, 2, 1)
        f = ext(f, 3, 2, 1)
    if t < 1 or f < 1:
        raise ShapeError(f"trunk extents collapse for T={t_in}, F={cfg.mel_bins}")
    return t, f, cfg.channels[3]
