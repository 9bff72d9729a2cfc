"""Losses, pair batching, and the SGD training loop.

Each step draws B speakers without replacement, two utterance crops per
speaker, split into two groups; the i-th crop of group 1 against the j-th
of group 2 gives B^2 pairs with positives exactly on the diagonal.  One
backbone pass covers all 2B crops; the identity loss (plain or
additive-margin softmax) uses every crop, the binary loss scores the whole
pair grid through the attention branch.  SGD uses momentum, weight decay,
a half-cosine learning-rate decay, and a lower base rate for the attention
and head parameters than for the backbone.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields

import numpy as np

from . import tensor as T
from .backbone import BackboneConfig
from .errors import ConfigError, InputError, NumericError, ShapeError
from .features import generate_synthetic_corpus, pad_or_crop
from .model import DattModel
from .scoring import calibrate_norm_stats, pair_grid_scores


@dataclass
class TrainConfig:
    # optimization
    speakers_per_batch: int = 10
    lambda_: float = 1.0
    loss_kind: str = "am_softmax"
    s: float = 30.0
    m: float = 0.2
    lr_backbone: float = 0.1
    lr_attention: float = 0.01
    momentum: float = 0.9
    weight_decay: float = 0.001
    epochs: int = 20
    steps_per_epoch: int = 50
    crop_frames: int = 300
    pos_weight: float = 0.0  # 0 disables positive-class weighting
    seed: int = 0
    # model
    mel_bins: int = 64
    channels: tuple = (64, 128, 256, 512)
    blocks_per_stage: tuple = (2, 2, 2, 2)
    num_f: int = 256
    shared_attention: bool = False
    dropout_rate: float = 0.5
    # corpus + calibration
    num_speakers: int = 10
    utts_per_speaker: int = 20
    noise_sigma: float = 0.5
    calib_pairs: int = 10000

    def __post_init__(self):
        self.channels = tuple(self.channels)
        self.blocks_per_stage = tuple(self.blocks_per_stage)
        if self.speakers_per_batch < 2:
            raise ConfigError(f"speakers_per_batch must be >= 2, got {self.speakers_per_batch}")
        if self.speakers_per_batch > self.num_speakers:
            raise ConfigError(
                f"speakers_per_batch {self.speakers_per_batch} exceeds "
                f"num_speakers {self.num_speakers}"
            )
        if not 0.0 <= self.m < 1.0:
            raise ConfigError(f"margin m must be in [0, 1), got {self.m}")
        if self.s <= 0.0:
            raise ConfigError(f"scale s must be > 0, got {self.s}")
        if self.lambda_ < 0.0:
            raise ConfigError(f"lambda must be >= 0, got {self.lambda_}")
        if self.loss_kind not in ("softmax", "am_softmax"):
            raise ConfigError(f"loss_kind must be softmax or am_softmax, got {self.loss_kind!r}")
        if self.epochs < 1 or self.steps_per_epoch < 1:
            raise ConfigError("epochs and steps_per_epoch must be >= 1")
        if self.crop_frames < 1:
            raise ConfigError(f"crop_frames must be >= 1, got {self.crop_frames}")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ConfigError(f"dropout_rate must be in [0, 1), got {self.dropout_rate}")

    def backbone_config(self):
        return BackboneConfig(
            mel_bins=self.mel_bins,
            channels=self.channels,
            blocks_per_stage=self.blocks_per_stage,
            num_f=self.num_f,
            num_id=self.num_speakers,
        )

    @classmethod
    def desk(cls, **overrides):
        """Single-CPU sizing: full training finishes in minutes."""
        base = dict(
            speakers_per_batch=8,
            channels=(8, 16, 32, 64),
            num_f=32,
            epochs=10,
            calib_pairs=64,
        )
        base.update(overrides)
        return cls(**base)


# JSON documents use "lambda"; the dataclass field avoids the keyword.
_JSON_KEY = {"lambda_": "lambda"}
_FIELD_FOR_KEY = {v: k for k, v in _JSON_KEY.items()}


def config_to_dict(cfg):
    out = {}
    for f in fields(cfg):
        val = getattr(cfg, f.name)
        if isinstance(val, tuple):
            val = list(val)
        out[_JSON_KEY.get(f.name, f.name)] = val
    return out


def config_from_dict(doc):
    """Strict construction: every key must name a config field."""
    known = {f.name for f in fields(TrainConfig)}
    kwargs = {}
    for key, val in doc.items():
        field = _FIELD_FOR_KEY.get(key, key)
        if field not in known:
            raise ConfigError(f"unknown config key {key!r}")
        kwargs[field] = val
    return TrainConfig(**kwargs)


def load_config(path):
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as e:
            raise ConfigError(f"{path}: invalid JSON: {e}") from e
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: config must be a JSON object")
    return config_from_dict(doc)


# ---------------------------------------------------------------------------
# batches


@dataclass
class PairBatch:
    group1: np.ndarray      # (B, crop, F) float32
    group2: np.ndarray
    speaker_ids: np.ndarray  # (B,) global speaker indices

    @property
    def pair_labels(self):
        """Same-speaker matrix: positives exactly on the diagonal."""
        return np.eye(self.speaker_ids.size, dtype=np.float32)


def build_pair_batch(corpus, cfg, rng):
    """Two distinct crops per selected speaker, one per group."""
    b = cfg.speakers_per_batch
    if corpus.num_speakers < b:
        raise ConfigError(f"corpus has {corpus.num_speakers} speakers, batch needs {b}")
    speakers = rng.permutation(corpus.num_speakers)[:b]
    for s in speakers:
        if len(corpus.utterances[s]) < 2:
            raise ConfigError(f"speaker {s} has fewer than 2 utterances")
    g1, g2 = [], []
    for s in speakers:
        utt_a, utt_b = rng.permutation(len(corpus.utterances[s]))[:2]
        g1.append(pad_or_crop(corpus.utterances[s][utt_a], cfg.crop_frames, "random_crop", rng).frames)
        g2.append(pad_or_crop(corpus.utterances[s][utt_b], cfg.crop_frames, "random_crop", rng).frames)
    return PairBatch(np.stack(g1), np.stack(g2), speakers.astype(np.int64))


# ---------------------------------------------------------------------------
# losses


def am_softmax_loss(embeddings, weight, labels, s, m):
    """Additive-margin softmax on cosine logits.

    Embeddings (N, num_f) and classifier columns (num_f, num_id) are both
    L2-normalized; the true-class cosine is reduced by m before scaling.
    """
    e = T.l2_normalize(embeddings, axis=-1)
    w = T.l2_normalize(weight, axis=0)
    cos = T.matmul(e, w)
    n, c = cos.data.shape
    margin = np.zeros((n, c), dtype=cos.data.dtype)
    margin[np.arange(n), np.asarray(labels, dtype=np.int64)] = m
    logits = T.mul(T.sub(cos, T.Tensor(margin)), T.Tensor(np.asarray(s, dtype=cos.data.dtype)))
    return T.softmax_cross_entropy(logits, labels)


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


def lr_at(step, total_steps, base_lr):
    """Half-cosine decay from base_lr to 0 across total_steps."""
    if not 0 <= step <= total_steps:
        raise InputError(f"step {step} outside [0, {total_steps}]")
    return base_lr * 0.5 * (1.0 + math.cos(math.pi * step / total_steps))


# ---------------------------------------------------------------------------
# optimizer


def sgd_step(param, grad, velocity, lr, momentum, weight_decay):
    """One momentum update; returns (new param, new velocity)."""
    if grad.shape != param.shape:
        raise ShapeError(f"grad shape {grad.shape} != param shape {param.shape}")
    v = momentum * velocity + grad + weight_decay * param
    return param - lr * v, v


class SGD:
    """Momentum SGD over two parameter groups with separate base rates.

    Parameters whose gradient is absent (a branch skipped this step, e.g.
    the attention path when lambda=0) are left untouched, including by
    weight decay.
    """

    def __init__(self, model, cfg):
        backbone, attn = model.param_groups()
        self.groups = [(backbone, cfg.lr_backbone), (attn, cfg.lr_attention)]
        self.velocities = [
            [np.zeros_like(p.data) for p in params] for params, _ in self.groups
        ]
        self.momentum = cfg.momentum
        self.weight_decay = cfg.weight_decay

    def step(self, lr_scale):
        for (params, base_lr), vels in zip(self.groups, self.velocities):
            lr = base_lr * lr_scale
            for i, (p, v) in enumerate(zip(params, vels)):
                if p.grad is None:
                    continue
                p.data, vels[i] = sgd_step(
                    p.data, p.grad, v, lr, self.momentum, self.weight_decay
                )

    def zero_grad(self):
        for params, _ in self.groups:
            for p in params:
                p.grad = None


# ---------------------------------------------------------------------------
# the loop


def pair_batch_losses(model, batch, cfg, mode, dropout_rng=None):
    """(loss_id, loss_binary or None, loss_all) tensors for one batch."""
    b = batch.speaker_ids.size
    frames = np.concatenate([batch.group1, batch.group2], axis=0)
    feats = model.forward_utterances(frames, mode)
    labels = np.concatenate([batch.speaker_ids, batch.speaker_ids])
    if cfg.loss_kind == "am_softmax":
        loss_id = am_softmax_loss(feats.embedding, model.backbone.fc2.weight, labels, cfg.s, cfg.m)
    else:
        loss_id = T.softmax_cross_entropy(feats.logits, labels)
    if cfg.lambda_ == 0.0:
        return loss_id, None, loss_id

    # one attention call per group, group 1 first: train-mode BN statistics
    # are those of each group, not of the 2B crops together
    groups = []
    for start in (0, b):
        f_raw = T.narrow(feats.f_raw, 0, start, b)
        f_id = T.narrow(feats.f_id, 0, start, b)
        f_self, f_att_mutual = model.attend(f_raw, f_id, mode)
        groups.append((f_self, f_att_mutual, f_id))
    probs = pair_grid_scores(groups[0], groups[1], model.head, mode, dropout_rng)
    loss_binary = T.binary_cross_entropy(
        probs, batch.pair_labels.astype(probs.data.dtype),
        pos_weight=cfg.pos_weight if cfg.pos_weight > 0 else None,
    )
    lam = T.Tensor(np.asarray(cfg.lambda_, dtype=loss_id.data.dtype))
    return loss_id, loss_binary, T.add(loss_id, T.mul(loss_binary, lam))


def train_step(model, batch, cfg, optimizer, lr_scale, dropout_rng):
    with T.GraphTape() as tape:
        loss_id, loss_binary, loss_all = pair_batch_losses(
            model, batch, cfg, "train", dropout_rng
        )
    T.backward(loss_all, tape)
    optimizer.step(lr_scale)
    optimizer.zero_grad()
    return (
        loss_id.item(),
        loss_binary.item() if loss_binary is not None else 0.0,
        loss_all.item(),
    )


def _tune_allocator():
    """Raise glibc's mmap threshold so big activation temps reuse the heap.

    Each step allocates hundreds of MB of short-lived arrays; without this
    they round-trip through mmap/munmap and fault in fresh pages every time.
    Best effort: silently skipped off glibc.
    """
    try:
        import ctypes

        ctypes.CDLL("libc.so.6").mallopt(-3, 1 << 30)  # M_MMAP_THRESHOLD
    except Exception:
        pass


def train_model(cfg, corpus=None, log_fn=None):
    """Full training run; returns (model, norm_stats, log rows)."""
    _tune_allocator()
    if corpus is None:
        corpus = generate_synthetic_corpus(
            cfg.num_speakers, cfg.utts_per_speaker, cfg.seed, cfg.noise_sigma, cfg.mel_bins
        )
    model = DattModel(
        cfg.backbone_config(), cfg.seed, cfg.shared_attention, cfg.dropout_rate
    )
    optimizer = SGD(model, cfg)
    batch_rng = np.random.default_rng(np.random.SeedSequence(entropy=(cfg.seed, 4)))
    dropout_rng = np.random.default_rng(np.random.SeedSequence(entropy=(cfg.seed, 5)))
    total = cfg.epochs * cfg.steps_per_epoch
    log = []
    for step in range(total):
        batch = build_pair_batch(corpus, cfg, batch_rng)
        lr_scale = lr_at(step, total, 1.0)
        loss_id, loss_binary, loss_all = train_step(
            model, batch, cfg, optimizer, lr_scale, dropout_rng
        )
        row = {
            "step": step,
            "epoch": step // cfg.steps_per_epoch,
            "loss_id": loss_id,
            "loss_binary": loss_binary,
            "loss_all": loss_all,
            "lr_backbone": cfg.lr_backbone * lr_scale,
            "lr_attention": cfg.lr_attention * lr_scale,
        }
        log.append(row)
        if log_fn is not None:
            log_fn(row)
    norm_stats = calibrate_norm_stats(model, corpus, cfg.calib_pairs, cfg.seed)
    return model, norm_stats, log
