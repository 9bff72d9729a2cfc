"""Full verification model and its on-disk checkpoint format.

A model bundles the backbone, the attention parameter stacks, and the
binary head.  Utterances are embedded once into per-segment features;
pair scoring reuses those records, evaluating all segment combinations of
a pair in a single broadcast pass.

Checkpoints are a small binary container: an 8-byte magic, a little-endian
u64 manifest length, a JSON manifest (format version, model config, a
name -> shape/byte-offset index over every parameter and normalization
buffer, score-normalization stats, training metadata), then the
concatenated little-endian float32 payload.  The payload has one layout,
decided by `_layout` alone: save writes that index, and load accepts a file
only if its index is exactly the one `_layout` gives for the model its
config builds.  Files are written to a temporary name and renamed, so
failures never leave partial checkpoints.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import asdict, dataclass

import numpy as np

from . import tensor as T
from .attention import AttentionParams, compute_f_att, self_attention
from .backbone import Backbone, BackboneConfig, Module
from .codec import from_json
from .errors import ConfigError, FormatError
from .evaluation import segment_utterance
from .features import atomic_write
from .scoring import BinaryHeadParams, NormStats, cosine_grid, pair_grid_scores

CKPT_MAGIC = b"DATTCKP1"
CKPT_VERSION = 1


@dataclass
class ModelConfig(BackboneConfig):
    """The backbone, one attention stack for both paths or two, and the
    binary head's dropout: the checkpoint manifest's model object."""

    shared_attention: bool = False
    dropout_rate: float = 0.5

    def __post_init__(self):
        super().__post_init__()
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ConfigError(f"dropout_rate must be in [0, 1), got {self.dropout_rate}")


@dataclass
class UtteranceRecord:
    """Per-segment features cached for repeated pair scoring."""

    f_id: np.ndarray          # (X, T', num_f)
    f_att_mutual: np.ndarray  # (X, T', num_f)
    f_self: np.ndarray        # (X, num_f)
    embedding: np.ndarray     # (X, num_f)


class DattModel(Module):
    def __init__(self, cfg, seed=0, shared_attention=False, dropout_rate=0.5, dtype=np.float32):
        """cfg is a BackboneConfig; the two arguments after seed complete its ModelConfig."""
        cfg = ModelConfig(**{**asdict(cfg), "shared_attention": shared_attention,
                             "dropout_rate": dropout_rate})
        rng = np.random.default_rng(np.random.SeedSequence(entropy=(seed, 3)))
        self.backbone = Backbone(cfg, rng, dtype)
        self.attention = AttentionParams(rng, cfg.channels[3], cfg.num_f, shared_attention, dtype)
        self.head = BinaryHeadParams(rng, cfg.num_f, dropout_rate, dtype)
        self.cfg = cfg
        self.dtype = np.dtype(dtype)

    def param_groups(self):
        """(backbone params, attention + binary-head params) for the LR split."""
        return self.backbone.params(), self.attention.params() + self.head.params()

    def forward_utterances(self, frames, mode):
        """(B, T, F) float array -> backbone features."""
        x = T.Tensor(np.ascontiguousarray(frames, dtype=self.dtype)[..., None])
        return self.backbone(x, mode)

    def attend(self, f_raw, f_id, mode):
        """(f_self, f_att_mutual) of an utterance group, as pair_grid_scores takes them.

        A shared attention stack runs once: its one output feeds both paths,
        so its batch norm sees each group once per step.
        """
        f_att_self = compute_f_att(f_raw, self.attention, "self", mode)
        if self.attention.shared:
            f_att_mutual = f_att_self
        else:
            f_att_mutual = compute_f_att(f_raw, self.attention, "mutual", mode)
        return self_attention(f_att_self, f_id)[1], f_att_mutual

    def embed_utterance(self, fbank):
        """Segment, run the backbone in inference mode, cache attention inputs."""
        if fbank.mel_bins != self.cfg.mel_bins:
            raise FormatError(f"features have {fbank.mel_bins} mel bins, the model takes "
                              f"{self.cfg.mel_bins}")
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


def _layout(entries):
    """(index, payload bytes) of the one payload layout: the entries' float32
    arrays back to back in entry order, indexed as name -> shape, byte offset."""
    index = {}
    offset = 0
    for entry in entries:
        shape = _entry_array(entry).shape
        index[entry[0]] = {"shape": list(shape), "offset": offset}
        offset += math.prod(shape) * 4
    return index, offset


def _param_bytes_floor(cfg):
    """Payload bytes of tensors every model of cfg holds: freq_conv, each
    block's second 3x3 conv, fc1, the attention self_fc2 and fc2."""
    c, nf = cfg.channels, cfg.num_f
    convs = sum(9 * n * w * w for n, w in zip(cfg.blocks_per_stage, c))
    return 4 * (cfg.mel_bins * cfg.mel_bins + convs + c[3] * nf + nf * nf + nf * cfg.num_id)


def save_checkpoint(path, model, norm_stats=None, train_meta=None):
    entries = _checkpoint_entries(model)
    index, payload_bytes = _layout(entries)
    manifest = {
        "format_version": CKPT_VERSION,
        "model": asdict(model.cfg),
        "params": index,
        "payload_bytes": payload_bytes,
        "norm_stats": asdict(norm_stats) if norm_stats is not None else None,
        "train_meta": train_meta or {},
    }
    doc = json.dumps(manifest).encode()

    def emit(tmp):
        with open(tmp, "wb") as fh:
            fh.write(CKPT_MAGIC)
            fh.write(len(doc).to_bytes(8, "little"))
            fh.write(doc)
            for entry in entries:
                fh.write(np.ascontiguousarray(_entry_array(entry), dtype="<f4").tobytes())

    atomic_write(path, emit)


def load_checkpoint(path, dtype=np.float32):
    """Rebuild a model (and NormStats, metadata) from a checkpoint file.

    The file is accepted only if its index is the one `_layout` gives for
    the model its config builds and its payload is exactly that long.  Any
    other file is a FormatError, raised before the model is allocated when
    its config needs more bytes than the payload holds.
    """
    with open(path, "rb") as fh:
        magic = fh.read(8)
        if magic != CKPT_MAGIC:
            raise FormatError(f"{path}: not a checkpoint (bad magic)")
        doc_len = int.from_bytes(fh.read(8), "little")
        file_len = os.fstat(fh.fileno()).st_size
        if doc_len > file_len - 16:
            raise FormatError(
                f"{path}: manifest length {doc_len} runs past the end of the {file_len}-byte file"
            )
        try:
            manifest = json.loads(fh.read(doc_len))
        except (UnicodeDecodeError, json.JSONDecodeError) as e:
            raise FormatError(f"{path}: manifest is not valid JSON: {e}") from e
        payload = fh.read()
    if not isinstance(manifest, dict):
        raise FormatError(f"{path}: manifest is not a JSON object")
    if manifest.get("format_version") != CKPT_VERSION:
        raise FormatError(
            f"{path}: format version {manifest.get('format_version')}, "
            f"this build reads version {CKPT_VERSION}"
        )
    for key in ("model", "params", "payload_bytes"):
        if key not in manifest:
            raise FormatError(f"{path}: manifest has no {key!r} key")
    ns = manifest.get("norm_stats")
    try:
        cfg = from_json(ModelConfig, manifest["model"])
        ns = from_json(NormStats, ns) if ns is not None else None
    except ConfigError as e:
        raise FormatError(f"{path}: {e}") from e
    floor = _param_bytes_floor(cfg)
    if floor > len(payload):  # checked before anything is allocated
        raise FormatError(f"{path}: its model needs {floor}+ payload bytes, the file {len(payload)}")
    model = DattModel(cfg, 0, cfg.shared_attention, cfg.dropout_rate, dtype)
    entries = _checkpoint_entries(model)
    index, payload_bytes = _layout(entries)
    got = manifest["params"] if isinstance(manifest["params"], dict) else {}
    if got != index:  # name the first entry laid out differently, else the first extra
        name = next(n for n in [*index, *got] if n not in index or got.get(n) != index[n])
        raise FormatError(f"{path}: parameter index mismatch at {name}: "
                          f"{got.get(name)} in the file, {index.get(name)} in the model")
    if len(payload) != payload_bytes or manifest["payload_bytes"] != payload_bytes:
        raise FormatError(f"{path}: payload is {len(payload)} bytes, payload_bytes says "
                          f"{manifest['payload_bytes']}, the index declares {payload_bytes}")
    for name, obj in entries:
        shape, offset = index[name]["shape"], index[name]["offset"]
        arr = np.frombuffer(payload, dtype="<f4", count=math.prod(shape), offset=offset)
        if not np.isfinite(arr).all():
            raise FormatError(f"{path}: {name} has non-finite values")
        arr = arr.reshape(shape).astype(dtype)
        if isinstance(obj, T.Tensor):
            obj.data = arr
        else:
            setattr(obj, name.rsplit(".", 1)[1], arr)
    return model, ns, manifest.get("train_meta", {})
