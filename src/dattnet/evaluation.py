"""Trial-list evaluation: segmentation, pair scoring, and EER.

Long utterances are cut into 500-frame segments every 100 frames; short
ones get one mean-frame-padded segment.  A trial with X and Y segments is
scored as the average over all X*Y segment pairs, separately for the cosine
and binary scores, and the fused score combines those two averages.  EER is
found by sweeping sorted unique thresholds and linearly interpolating where
the false-acceptance and false-rejection rates cross.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .errors import FormatError, InputError
from .features import FBankMatrix, atomic_write, pad_or_crop, read_fbank
from .scoring import fuse_scores

SEGMENT_FRAMES = 500
SEGMENT_HOP = 100


def segment_utterance(f):
    """500-frame views every 100 frames; short input -> one padded segment.

    The model embeds all segments through one shared pass of its prefix
    (front block, front pool, stage 0) and one of stage 1; see
    `DattModel.embed_utterance`.  The hop is 50 stage-0 rows and 25 stage-1
    rows: even, so segment rows line up with rows of the shared passes
    through the stride-1 prefix and stage 1's stride-2 convs; odd, so not
    through stage 2's stride-2 pool.
    """
    t = f.n_frames
    if t < SEGMENT_FRAMES:
        return [pad_or_crop(f, SEGMENT_FRAMES, "eval_pad")]
    return [
        FBankMatrix(f.frames[start : start + SEGMENT_FRAMES])
        for start in range(0, t - SEGMENT_FRAMES + 1, SEGMENT_HOP)
    ]


@dataclass
class Trial:
    label: int            # 1 = same speaker
    utt1: object          # FBankMatrix or feature-file path
    utt2: object


@dataclass
class TrialScore:
    label: int
    score_cos: float
    score_binary: float
    score_all: float


def _resolve(utt):
    if isinstance(utt, FBankMatrix):
        return utt
    return read_fbank(utt)


def score_trial(trial, model, ns, embed=None):
    """Segment-averaged raw scores plus their fusion for one trial.

    `embed` maps an utterance to its record; by default each utterance is
    read and embedded afresh.
    """
    if embed is None:
        def embed(utt):
            return model.embed_utterance(_resolve(utt))
    r1, r2 = embed(trial.utt1), embed(trial.utt2)
    cos, binary = model.score_records(r1, r2)
    return TrialScore(trial.label, cos, binary, fuse_scores(cos, binary, ns))


def compute_eer(scores):
    """Equal error rate and its threshold from (score, label) pairs.

    FAR(t) = fraction of negatives >= t, FRR(t) = fraction of positives
    < t, each counted by a binary search of the sorted scores; both stepped
    over sorted unique scores with a sentinel above the maximum, then
    linearly interpolated in (FAR - FRR) at the sign change.
    """
    pos = np.sort(np.asarray([s for s, lab in scores if lab], dtype=np.float64))
    neg = np.sort(np.asarray([s for s, lab in scores if not lab], dtype=np.float64))
    if pos.size == 0 or neg.size == 0:
        raise InputError("EER needs at least one positive and one negative trial")
    thresholds = np.unique(np.concatenate([pos, neg]))
    if np.isnan(thresholds[-1]):  # NaN sorts last; it has no place in the sweep
        raise InputError("EER needs scores that are not NaN")
    thresholds = np.append(thresholds, thresholds[-1] + 1.0)  # FAR=0, FRR=1 endpoint
    far = (neg.size - np.searchsorted(neg, thresholds)) / neg.size
    frr = np.searchsorted(pos, thresholds) / pos.size
    d = far - frr
    # at the lowest threshold FAR=1, FRR=0, so d starts positive and the
    # sentinel's d is -1: i is the first threshold at or past the crossing
    i = int(np.argmax(d <= 0.0))
    if d[i] == 0.0:
        return float(far[i]), float(thresholds[i])
    alpha = d[i - 1] / (d[i - 1] - d[i])
    eer = (1 - alpha) * far[i - 1] + alpha * far[i]
    return float(eer), float((1 - alpha) * thresholds[i - 1] + alpha * thresholds[i])


def parse_trial_list(path):
    """Lines of "label path1 path2" with label in {0, 1}."""
    trials = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 3 or parts[0] not in ("0", "1"):
                raise FormatError(f"{path}:{lineno}: expected 'label path1 path2', got {line!r}")
            trials.append(Trial(int(parts[0]), parts[1], parts[2]))
    return trials


def write_score_csv(path, rows):
    """Atomic CSV emission, rows ordered by trial index."""
    with atomic_write(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["trial_idx", "label", "score_cos", "score_binary", "score_all"])
        for idx, ts in sorted(rows):
            writer.writerow(
                [
                    idx,
                    ts.label,
                    repr(float(ts.score_cos)),
                    repr(float(ts.score_binary)),
                    repr(float(ts.score_all)),
                ]
            )


def run_eval(trials, model, ns, csv_path=None):
    """Score a trial list and compute the three EERs.

    Each distinct utterance is embedded once and reused across trials.
    Unreadable utterances and ones the model cannot take (a FormatError)
    skip their trial; skipped counts are reported, each with a message
    that names the file it failed on.
    Aggregation is order-independent (rows keyed by trial index).
    """
    if not trials:
        raise InputError("empty trial list")
    cache = {}

    def embed(utt):
        # paths are keyed by value, in-memory matrices by identity
        is_path = isinstance(utt, str)
        key = utt if is_path else id(utt)
        if key not in cache:
            fbank = _resolve(utt)  # read_fbank's own errors name the path
            try:
                cache[key] = model.embed_utterance(fbank)
            except FormatError as e:
                if not is_path:
                    raise
                raise FormatError(f"{utt}: {e}") from e
        return cache[key]

    rows, errors = [], []
    for idx, trial in enumerate(trials):
        try:
            rows.append((idx, score_trial(trial, model, ns, embed)))
        except (FormatError, OSError) as e:
            errors.append((idx, str(e)))
    if csv_path is not None:
        write_score_csv(csv_path, rows)
    report = {"n_scored": len(rows), "n_errors": len(errors), "errors": errors}
    for kind in ("score_cos", "score_binary", "score_all"):
        pairs = [(getattr(ts, kind), ts.label) for _, ts in rows]
        report[f"eer_{kind.removeprefix('score_')}"] = compute_eer(pairs)[0]
    return report
