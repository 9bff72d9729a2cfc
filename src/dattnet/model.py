"""Full verification model and its on-disk checkpoint format.

A model bundles the backbone, the attention parameter stacks, and the
binary head.  Utterances are embedded once into per-segment features;
pair scoring reuses those records, evaluating all segment combinations of
a pair in a single broadcast pass.

Checkpoints are a small binary container: an 8-byte magic, a little-endian
u64 manifest length, a JSON manifest (format version, model config, a
name -> shape/byte-offset index over every parameter and normalization
buffer, score-normalization stats, training metadata), then the
concatenated little-endian float32 payload.  Files are written to a
temporary name and renamed, so failures never leave partial checkpoints.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .attention import AttentionParams, compute_f_att, self_attention
from .backbone import Backbone, BackboneConfig, Module
from .errors import FormatError
from .evaluation import segment_utterance
from .features import atomic_write
from .scoring import BinaryHeadParams, NormStats, cosine_grid, pair_grid_scores

CKPT_MAGIC = b"DATTCKP1"
CKPT_VERSION = 1


@dataclass
class UtteranceRecord:
    """Per-segment features cached for repeated pair scoring."""

    f_id: np.ndarray          # (X, T', num_f)
    f_att_mutual: np.ndarray  # (X, T', num_f)
    f_self: np.ndarray        # (X, num_f)
    embedding: np.ndarray     # (X, num_f)


class DattModel(Module):
    def __init__(self, cfg, seed=0, shared_attention=False, dropout_rate=0.5, dtype=np.float32):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=(seed, 3)))
        self.backbone = Backbone(cfg, rng, dtype)
        self.attention = AttentionParams(rng, cfg.channels[3], cfg.num_f, shared_attention, dtype)
        self.head = BinaryHeadParams(rng, cfg.num_f, dropout_rate, dtype)
        self.cfg = cfg
        self.seed = seed
        self.shared_attention = shared_attention
        self.dropout_rate = dropout_rate
        self.dtype = np.dtype(dtype)

    def config_dict(self):
        return {
            "mel_bins": self.cfg.mel_bins,
            "channels": list(self.cfg.channels),
            "blocks_per_stage": list(self.cfg.blocks_per_stage),
            "num_f": self.cfg.num_f,
            "num_id": self.cfg.num_id,
            "shared_attention": self.shared_attention,
            "dropout_rate": self.dropout_rate,
        }

    @classmethod
    def from_config_dict(cls, d, seed=0, dtype=np.float32):
        cfg = BackboneConfig(
            mel_bins=d["mel_bins"],
            channels=tuple(d["channels"]),
            blocks_per_stage=tuple(d["blocks_per_stage"]),
            num_f=d["num_f"],
            num_id=d["num_id"],
        )
        return cls(cfg, seed, d["shared_attention"], d["dropout_rate"], dtype)

    def param_groups(self):
        """(backbone params, attention + binary-head params) for the LR split."""
        return self.backbone.params(), self.attention.params() + self.head.params()

    def forward_utterances(self, frames, mode):
        """(B, T, F) float array -> backbone features."""
        x = T.Tensor(np.ascontiguousarray(frames, dtype=self.dtype)[..., None])
        return self.backbone(x, mode)

    def attend(self, f_raw, f_id, mode):
        """(f_self, f_att_mutual) of an utterance group, as pair_grid_scores takes them."""
        f_att_self = compute_f_att(f_raw, self.attention, "self", mode)
        f_att_mutual = compute_f_att(f_raw, self.attention, "mutual", mode)
        return self_attention(f_att_self, f_id)[1], f_att_mutual

    def embed_utterance(self, fbank):
        """Segment, run the backbone in inference mode, cache attention inputs."""
        segments = segment_utterance(fbank)
        stack = np.stack([s.frames for s in segments])
        feats = self.forward_utterances(stack, "infer")
        f_self, f_att_mutual = self.attend(feats.f_raw, feats.f_id, "infer")
        return UtteranceRecord(
            f_id=feats.f_id.data,
            f_att_mutual=f_att_mutual.data,
            f_self=f_self.data,
            embedding=feats.embedding.data,
        )

    def score_records(self, r1, r2):
        """(mean cosine, mean binary score) over all segment pairs.

        Both grids hold float32 per-segment-pair scores; each is returned as
        the float64 mean of its elements in row-major order.  Swapping r1 and
        r2 transposes the grids, and a float32 mean would round differently
        for the two orientations; the float64 mean agrees to float64 rounding,
        so the result does not depend on which utterance comes first.
        """
        cos = cosine_grid(r1.embedding, r2.embedding)
        a, b = ((T.Tensor(r.f_self), T.Tensor(r.f_att_mutual), T.Tensor(r.f_id)) for r in (r1, r2))
        probs = pair_grid_scores(a, b, self.head, "infer").data
        return (
            float(cos.astype(np.float64).mean()),
            float(probs.astype(np.float64).mean()),
        )

    def score_pair_raw(self, f1, f2):
        return self.score_records(self.embed_utterance(f1), self.embed_utterance(f2))


# ---------------------------------------------------------------------------
# checkpoints


def _checkpoint_entries(model):
    entries = list(model.named_params())
    for name, state in model.named_bn_states():
        entries.append((f"{name}.running_mean", state))
        entries.append((f"{name}.running_var", state))
    return entries


def _entry_array(entry):
    name, obj = entry
    if isinstance(obj, T.Tensor):
        return obj.data
    return getattr(obj, name.rsplit(".", 1)[1])


def save_checkpoint(path, model, norm_stats=None, train_meta=None):
    entries = _checkpoint_entries(model)
    index = {}
    offset = 0
    blobs = []
    for entry in entries:
        arr = np.ascontiguousarray(_entry_array(entry), dtype="<f4")
        index[entry[0]] = {"shape": list(arr.shape), "offset": offset}
        blobs.append(arr.tobytes())
        offset += arr.nbytes
    manifest = {
        "format_version": CKPT_VERSION,
        "model": model.config_dict(),
        "params": index,
        "payload_bytes": offset,
        "norm_stats": norm_stats.to_dict() if norm_stats is not None else None,
        "train_meta": train_meta or {},
    }
    doc = json.dumps(manifest).encode()

    def emit(tmp):
        with open(tmp, "wb") as fh:
            fh.write(CKPT_MAGIC)
            fh.write(len(doc).to_bytes(8, "little"))
            fh.write(doc)
            for blob in blobs:
                fh.write(blob)

    atomic_write(path, emit)


def load_checkpoint(path, dtype=np.float32):
    """Rebuild a model (and NormStats, metadata) from a checkpoint file."""
    with open(path, "rb") as fh:
        magic = fh.read(8)
        if magic != CKPT_MAGIC:
            raise FormatError(f"{path}: not a checkpoint (bad magic)")
        doc_len = int.from_bytes(fh.read(8), "little")
        try:
            manifest = json.loads(fh.read(doc_len))
        except (UnicodeDecodeError, json.JSONDecodeError) as e:
            raise FormatError(f"{path}: manifest is not valid JSON: {e}") from e
        payload = fh.read()
    if manifest.get("format_version") != CKPT_VERSION:
        raise FormatError(
            f"{path}: format version {manifest.get('format_version')}, "
            f"this build reads version {CKPT_VERSION}"
        )
    index = manifest["params"]
    declared = sum(int(np.prod(e["shape"])) * 4 for e in index.values())
    if len(payload) != declared or declared != manifest["payload_bytes"]:
        raise FormatError(
            f"{path}: payload is {len(payload)} bytes, index declares {declared}"
        )
    model = DattModel.from_config_dict(manifest["model"], dtype=dtype)
    entries = dict(_checkpoint_entries(model))
    if set(entries) != set(index):
        missing = set(entries) ^ set(index)
        raise FormatError(f"{path}: parameter index mismatch: {sorted(missing)[:5]}")
    for name, meta in index.items():
        shape = tuple(meta["shape"])
        size = int(np.prod(shape)) * 4
        arr = np.frombuffer(payload, dtype="<f4", count=size // 4, offset=meta["offset"])
        arr = arr.reshape(shape).astype(dtype)
        obj = entries[name]
        if isinstance(obj, T.Tensor):
            if obj.data.shape != shape:
                raise FormatError(f"{path}: {name} has shape {shape}, model wants {obj.data.shape}")
            obj.data = arr
        else:
            setattr(obj, name.rsplit(".", 1)[1], arr)
    ns = manifest.get("norm_stats")
    return (
        model,
        NormStats.from_dict(ns) if ns else None,
        manifest.get("train_meta", {}),
    )
