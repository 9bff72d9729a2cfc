"""Full verification model and its on-disk checkpoint format.

A model bundles the backbone, the attention parameter stacks, and the
binary head.  Utterances are embedded once into per-segment features, the
segments sharing one pass through the backbone's prefix and one through
stage 1; pair scoring reuses those records, evaluating all segment
combinations of a pair in a single broadcast pass.

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
from .backbone import Backbone, BackboneConfig, Module, Trunk, prefix_reach, stage1_reach
from .codec import from_json
from .errors import ConfigError, FormatError
from .evaluation import SEGMENT_FRAMES, SEGMENT_HOP, segment_utterance
from .features import atomic_write
from .scoring import BinaryHeadParams, NormStats, cosine_grid, pair_grid_scores

CKPT_MAGIC = b"DATTCKP1"
CKPT_VERSION = 1
PREFIX_STRIDE = Trunk.FRONT_POOL[1][0]  # time stride of the prefix's stage-0 rows
# segments cut at multiples of the stride share the prefix's stage-0 rows, and
# at even multiples (an even stage-0 hop and row count) stage 1's rows
assert SEGMENT_HOP % (2 * PREFIX_STRIDE) == 0 and SEGMENT_FRAMES % (2 * PREFIX_STRIDE) == 0


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


def _tune_allocator():
    """Keep the big temporaries of a forward or train step on heap pages
    that stay mapped; every `DattModel` calls it when built.

    A train step allocates and frees hundreds of MB of short-lived arrays,
    an eval or BN-estimation forward tens of MB.  Setting either threshold
    below turns off glibc's dynamic thresholds, so both are needed:
    - the mmap threshold keeps arrays over 32 MB (the dynamic threshold's
      ceiling) on the heap instead of in a fresh mmap each;
    - the trim threshold keeps the freed heap top mapped; left at its
      128 KB default, every pass hands its heap back to the kernel and the
      next pass faults it in again.
    The cost: the process holds its peak heap, which every pass reaches
    anyway.  Best effort: silently skipped off glibc.
    """
    try:
        import ctypes

        libc = ctypes.CDLL("libc.so.6")
        libc.mallopt(-3, 1 << 30)  # M_MMAP_THRESHOLD
        libc.mallopt(-1, 1 << 30)  # M_TRIM_THRESHOLD
    except Exception:
        pass


class DattModel(Module):
    def __init__(self, cfg, seed=0, shared_attention=None, dropout_rate=None, dtype=np.float32):
        """cfg is a BackboneConfig or a ModelConfig.  shared_attention and
        dropout_rate override it when given; left as None they take a
        ModelConfig's own values, else ModelConfig's defaults.  Building
        one tunes the process's allocator (`_tune_allocator`)."""
        _tune_allocator()
        given = {"shared_attention": shared_attention, "dropout_rate": dropout_rate}
        cfg = ModelConfig(**{**asdict(cfg), **{k: v for k, v in given.items() if v is not None}})
        rng = np.random.default_rng(np.random.SeedSequence(entropy=(seed, 3)))
        self.backbone = Backbone(cfg, rng, dtype)
        self.attention = AttentionParams(
            rng, cfg.channels[3], cfg.num_f, cfg.shared_attention, dtype
        )
        self.head = BinaryHeadParams(rng, cfg.num_f, cfg.dropout_rate, dtype)
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
        """Segment, run the backbone in inference mode, cache attention inputs.

        The segments share one pass through the backbone's prefix (the front
        block, the front pool and stage 0) over the frames they cover, and
        one through stage 1 over its stage-0 rows: `_segment_rows` cuts each
        segment's rows from the shared pass and recomputes those its own
        padding reaches (`prefix_reach`, `stage1_reach`).  Stage 2 opens
        with a stride-2 pool and the hop is an odd 25 stage-1 rows, so
        stages 2-3, the head and attention run on the stacked segments (see
        the `backbone` module docstring).  In float64 the records equal the
        per-segment forward's bit for bit; in float32 they differ only by
        GEMM rounding.
        """
        if fbank.mel_bins != self.cfg.mel_bins:
            raise FormatError(f"features have {fbank.mel_bins} mel bins, the model takes "
                              f"{self.cfg.mel_bins}")
        backbone, trunk = self.backbone, self.backbone.trunk

        def prefix(frames):  # (B, T, F) -> stage-0 rows, (B, T / PREFIX_STRIDE, F', C)
            x = T.Tensor(np.ascontiguousarray(frames, dtype=self.dtype)[..., None])
            return trunk(backbone.pre(x, "infer"), "infer", stages=(0,)).data

        def stage1(rows):  # stage-0 rows -> stage-1 rows, half as many
            return trunk(T.Tensor(np.ascontiguousarray(rows)), "infer", stages=(1,)).data

        segments = [s.frames for s in segment_utterance(fbank)]
        n = len(segments)
        # the frames the segments cover; a lone segment may be eval_pad-ded
        covered = segments[0] if n == 1 else fbank.frames[: (n - 1) * SEGMENT_HOP + SEGMENT_FRAMES]
        hop = SEGMENT_HOP // PREFIX_STRIDE
        shared, stack = _segment_rows(prefix, covered, segments, hop, *prefix_reach(self.cfg))
        _, stack = _segment_rows(stage1, shared, stack, hop // 2, *stage1_reach(self.cfg))
        h = trunk(T.Tensor(stack), "infer", stages=(2, 3))
        feats = backbone.postprocess(h, "infer")
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
        the float64 mean of its elements in row-major order.  The pair is
        scored in one canonical orientation, the record with fewer segments
        first and, at equal counts, the one whose embedding bytes sort
        first, so swapping r1 and r2 gives the same bits on any BLAS.
        """
        if _orientation(r2) < _orientation(r1):
            r1, r2 = r2, r1
        cos = cosine_grid(r1.embedding, r2.embedding)
        a, b = ((T.Tensor(r.f_self), T.Tensor(r.f_att_mutual), T.Tensor(r.f_id)) for r in (r1, r2))
        probs = pair_grid_scores(a, b, self.head, "infer").data
        return (
            float(cos.astype(np.float64).mean()),
            float(probs.astype(np.float64).mean()),
        )


def _orientation(record):
    """The key `score_records` orders a pair of records by."""
    return len(record.embedding), record.embedding.tobytes()


def _segment_rows(run, whole, segments, hop, edge, band):
    """(shared, stack): `run` once over `whole`, and each segment's rows of it.

    `segments` are the n overlapping inputs that `whole` covers, one every
    `hop` output rows.  Segment i's output rows are rows i * hop.. of the
    shared pass, except the `edge` rows at each interior segment end, which
    its own padding reaches.  Those are recomputed in one batched `run` over
    `band`-row bands cut at the ends: the left ends of segments 1.., then
    the right ends of segments ..n-2.
    """
    shared = run(whole[None])[0]
    n = len(segments)
    rows = len(shared) - (n - 1) * hop
    stack = np.stack([shared[i * hop : i * hop + rows] for i in range(n)])
    if n > 1:
        bands = run([s[:band] for s in segments[1:]] + [s[-band:] for s in segments[:-1]])
        stack[1:, :edge] = bands[: n - 1, :edge]
        stack[:-1, -edge:] = bands[n - 1 :, -edge:]
    return shared, stack


# ---------------------------------------------------------------------------
# checkpoints


def _checkpoint_entries(model):
    """(name, owner, attribute) per stored array, in payload order; the
    array is getattr(owner, attribute)."""
    entries = [(name, p, "data") for name, p in model.named_params()]
    for name, state in model.named_bn_states():
        entries += [(f"{name}.{attr}", state, attr) for attr in ("running_mean", "running_var")]
    return entries


def _layout(entries):
    """(index, payload bytes) of the one payload layout: the entries' float32
    arrays back to back in entry order, indexed as name -> shape, byte offset."""
    index = {}
    offset = 0
    for name, owner, attr in entries:
        shape = getattr(owner, attr).shape
        index[name] = {"shape": list(shape), "offset": offset}
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
    with atomic_write(path, "wb") as fh:
        fh.write(CKPT_MAGIC)
        fh.write(len(doc).to_bytes(8, "little"))
        fh.write(doc)
        for _, owner, attr in entries:
            fh.write(np.ascontiguousarray(getattr(owner, attr), dtype="<f4").tobytes())


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
    model = DattModel(cfg, 0, dtype=dtype)
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
    for name, owner, attr in entries:
        shape, offset = index[name]["shape"], index[name]["offset"]
        arr = np.frombuffer(payload, dtype="<f4", count=math.prod(shape), offset=offset)
        if not np.isfinite(arr).all():
            raise FormatError(f"{path}: {name} has non-finite values")
        setattr(owner, attr, arr.reshape(shape).astype(dtype))
    return model, ns, manifest.get("train_meta", {})
