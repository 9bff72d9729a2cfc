"""The two benchmark workloads and the loop that times them.

Each workload is set up, then runs units of work until `seconds` of unit
time have passed and at least `min_units` have run.  A unit is one
training step (`train_desk`) or one `dattnet eval` round (`eval_trials`):
load the checkpoint, parse a trial list, score it and write the score CSV.  Inputs for a unit are generated from the workload
seed before the unit starts and are not timed; outputs are checked after
it ends, also untimed.

Only public functions of `dattnet` are called, always through their
module so that a traced run sees them.  The one exception is
`training._tune_allocator`, which `train_model` calls before its first
step; `train_desk` calls it too, so its steps run in the same allocator
state as `dattnet train`.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import hashlib
import math
import os
import shutil
import time

import numpy as np

from dattnet import evaluation, features, model, scoring, training


BN_SPEAKERS = 4
BN_CROP_FRAMES = 100


@dataclasses.dataclass(frozen=True)
class RoundShape:
    """The utterances and trials of one eval round."""

    speakers: int
    utts: int          # per speaker
    durations: tuple   # (share of utterances, shortest s, longest s) pieces
    trials: int


@dataclasses.dataclass(frozen=True)
class Sizes:
    config: dict = dataclasses.field(default_factory=dict)  # TrainConfig.desk overrides
    setup_repeats: int = 5
    warmup_steps: int = 2
    min_steps: int = 40
    loss_window: int = 8        # last steps of the first min_steps, averaged into loss_last
    min_rounds: int = 4
    bn_passes: int = 20         # eval set-up: forward passes that estimate BN statistics
    # 30 utterances in 225 trials, each in 15 as in VoxCeleb1-O.  The mean
    # is 8 s; 60% have one segment, so the median embedding is a wide band.
    trials_round: RoundShape = RoundShape(3, 10, ((0.6, 2.0, 6.0), (0.4, 8.0, 20.0)), 225)


FULL = Sizes()

# TINY_RUN-style model and corpus, for the benchmark's own tests
TINY = Sizes(
    config=dict(
        speakers_per_batch=3, channels=(4, 4, 8, 8), blocks_per_stage=(1, 1, 1, 1), num_f=8,
        crop_frames=60, mel_bins=32, num_speakers=3, utts_per_speaker=4, calib_pairs=8,
        lr_backbone=0.02, s=10.0,  # gentle enough that loss falls within 8 steps
    ),
    setup_repeats=2,
    warmup_steps=1,
    min_steps=8,
    loss_window=4,
    min_rounds=2,
    bn_passes=2,
    trials_round=RoundShape(2, 3, ((0.5, 2.0, 5.0), (0.5, 5.0, 7.0)), 12),
)


def _rng(*key):
    return np.random.default_rng(np.random.SeedSequence(entropy=key))


def _sub_seed(*key):
    return int(np.random.SeedSequence(entropy=key).generate_state(1)[0])


def _frames_for(dur_s):
    samples = int(round(dur_s * features.SAMPLE_RATE))
    return 1 + (samples - features.FRAME_LEN) // features.FRAME_HOP


def stratified_frames(n, durations, rng):
    """Frame counts of n utterances, in rising order of length.

    Each (share, lo, hi) piece gets its share of the n utterances at the
    fixed quantiles (i + 0.5) / k of lo..hi.  Each length then moves to a
    random point of its segment bucket (one padded segment below 500
    frames, then one more segment per 100 frames), so every seed embeds
    the same segment counts while the frames themselves differ.
    """
    seg, hop = evaluation.SEGMENT_FRAMES, evaluation.SEGMENT_HOP
    counts = [round(share * n) for share, _, _ in durations]
    counts[-1] = n - sum(counts[:-1])
    secs = np.concatenate([
        lo + (hi - lo) * (np.arange(k) + 0.5) / k for k, (_, lo, hi) in zip(counts, durations)
    ])
    t = np.array([_frames_for(d) for d in secs])
    short = t < seg
    lo_t = np.where(short, _frames_for(durations[0][1]), seg + (t - seg) // hop * hop)
    hi_t = np.where(short, seg, lo_t + hop)
    return rng.integers(lo_t, hi_t)


class Workload:
    unit = "unit"
    min_units = 1

    def __init__(self, seed, sizes, workdir):
        self.seed = seed
        self.sizes = sizes
        self.workdir = workdir
        self.cfg = training.TrainConfig.desk(seed=seed, **sizes.config)
        self.main_s = []    # per-call seconds behind main_ms_*
        self.aux_s = []     # per-call seconds behind aux_us_*
        self.unit_s = []
        self.problems = []  # failed output checks, as messages
        self.failed = 0     # operations (steps; trials) whose output failed a check
        self.inputs = hashlib.sha256()
        self.outputs = hashlib.sha256()

    def setup(self):
        raise NotImplementedError

    def prepare(self, i):
        """Generate unit i's inputs (untimed)."""

    def run_unit(self, i):
        raise NotImplementedError

    def check(self, i):
        """Check unit i's outputs (untimed); append failures to `problems`."""

    def finish(self):
        """Whole-run checks, after the last unit."""

    def attempted(self):
        """Operations attempted so far: steps or trials."""
        raise NotImplementedError

    def items(self):
        """Work items behind items_per_s: crops or trials."""
        return self.attempted()

    def main_per_unit(self):
        """Guaranteed main-timer samples per unit."""
        return 1

    def aux_per_unit(self):
        return 1


class TrainDesk(Workload):
    """`TrainConfig.desk` training steps; warm-up steps belong to set-up."""

    unit = "bench.step"

    def __init__(self, seed, sizes, workdir):
        super().__init__(seed, sizes, workdir)
        self.min_units = sizes.min_steps

    def setup(self):
        cfg = self.cfg
        # train_model raises glibc's mmap threshold before its first step;
        # without it every step's big temporaries are mmapped afresh
        training._tune_allocator()
        self.corpus = features.generate_synthetic_corpus(
            cfg.num_speakers, cfg.utts_per_speaker, cfg.seed, cfg.noise_sigma, cfg.mel_bins
        )
        self.model = model.DattModel(
            cfg.backbone_config(), cfg.seed, cfg.shared_attention, cfg.dropout_rate
        )
        self.optimizer = TimedSGD(self.model, cfg, self.aux_s)
        self.batch_rng = _rng(cfg.seed, 4)
        self.dropout_rng = _rng(cfg.seed, 5)
        self.total_steps = cfg.epochs * cfg.steps_per_epoch
        self.losses = []
        for _ in range(self.sizes.warmup_steps):
            self._step()
        self.aux_s.clear()

    def _step(self):
        cfg = self.cfg
        batch = training.build_pair_batch(self.corpus, cfg, self.batch_rng)
        step = min(len(self.losses), self.total_steps)
        lr_scale = training.lr_at(step, self.total_steps, 1.0)
        self.losses.append(
            training.train_step(self.model, batch, cfg, self.optimizer, lr_scale, self.dropout_rng)
        )

    def prepare(self, i):
        if i == 0:
            for speaker in self.corpus.utterances:
                for utt in speaker:
                    self.inputs.update(utt.frames.tobytes())

    def run_unit(self, i):
        t0 = time.perf_counter()
        self._step()
        self.main_s.append(time.perf_counter() - t0)

    def check(self, i):
        loss = self.losses[-1]
        if not all(math.isfinite(v) for v in loss):
            self.failed += 1
            self.problems.append(f"step {len(self.losses) - 1}: non-finite loss {loss}")

    def attempted(self):
        return len(self.unit_s)

    def items(self):
        return 2 * self.cfg.speakers_per_batch * len(self.unit_s)

    def loss_last(self):
        """Mean loss_all over the last `loss_window` of the first min_steps timed steps."""
        end = self.sizes.warmup_steps + self.sizes.min_steps
        window = self.losses[end - self.sizes.loss_window : end]
        return float(np.mean([loss_all for _, _, loss_all in window]))

    def finish(self):
        # warm-up and the first min_steps timed steps run on every machine
        self.outputs.update(repr(self.losses[: self.sizes.warmup_steps + self.sizes.min_steps]).encode())
        first, last = self.losses[0][2], self.loss_last()
        if not last < first:
            self.problems.append(f"loss_last {last:.4f} is not below the first step's {first:.4f}")


class TimedSGD(training.SGD):
    """SGD that records the seconds spent in step() plus zero_grad() per step."""

    def __init__(self, model_, cfg, sink):
        super().__init__(model_, cfg)
        self._sink = sink
        self._step_s = 0.0

    def step(self, lr_scale):
        t0 = time.perf_counter()
        super().step(lr_scale)
        self._step_s = time.perf_counter() - t0

    def zero_grad(self):
        t0 = time.perf_counter()
        super().zero_grad()
        self._sink.append(self._step_s + time.perf_counter() - t0)


class EvalTrials(Workload):
    """Rounds of the `dattnet eval` path over freshly written .fbnk files.

    Trial lists have VoxCeleb1-O proportions: each utterance is in about
    15 trials, half of them targets.
    """

    unit = "bench.round"

    def __init__(self, seed, sizes, workdir):
        super().__init__(seed, sizes, workdir)
        self.shape = sizes.trials_round
        self.min_units = sizes.min_rounds
        self.ckpt = os.path.join(workdir, "model.ckpt")
        self.trials = 0
        self.saturated = 0  # trials whose binary score is exactly 0.0 or 1.0
        self.rounds = {}

    def setup(self):
        cfg = self.cfg
        m = model.DattModel(cfg.backbone_config(), cfg.seed, cfg.shared_attention, cfg.dropout_rate)
        n_spk = min(BN_SPEAKERS, cfg.num_speakers)
        calib = features.generate_synthetic_corpus(n_spk, 2, cfg.seed, cfg.noise_sigma, cfg.mel_bins)
        # Forward-only train-mode passes give every BN layer data-derived
        # running statistics, as the first steps of training would.  With
        # the initial (0, 1) statistics infer-mode activations are unscaled
        # and the float32 binary score saturates to exactly 1.0.
        bn_cfg = dataclasses.replace(cfg, speakers_per_batch=n_spk, crop_frames=BN_CROP_FRAMES)
        rng = _rng(cfg.seed, 6)
        for _ in range(self.sizes.bn_passes):
            batch = training.build_pair_batch(calib, bn_cfg, rng)
            training.pair_batch_losses(m, batch, bn_cfg, "train", rng)
        ns = scoring.calibrate_norm_stats(m, calib, cfg.calib_pairs, cfg.seed)
        model.save_checkpoint(self.ckpt, m, ns, {"config": training.config_to_dict(cfg)})
        # a user's first call pays for first-touch allocation; set-up absorbs it
        loaded, _, _ = model.load_checkpoint(self.ckpt)
        record = loaded.embed_utterance(calib.utterances[0][0])
        loaded.score_records(record, record)

    def prepare(self, i):
        cfg, shape = self.cfg, self.shape
        # The round's layout (which utterance has how many segments, which
        # pairs are trials) depends on the round only, so every seed does
        # the same work; the seed picks the frames and the exact lengths.
        layout = _rng(i)
        rng = _rng(self.seed, i)
        speakers = np.repeat(np.arange(shape.speakers), shape.utts)
        lengths = stratified_frames(speakers.size, shape.durations, rng)
        lengths = lengths[layout.permutation(speakers.size)]
        # utterances are cut from ones 1 s longer than the longest bucket start
        longest = shape.durations[-1][2] + 1.0
        corpus = features.generate_synthetic_corpus(
            shape.speakers, shape.utts, _sub_seed(self.seed, i), cfg.noise_sigma,
            cfg.mel_bins, min_dur_s=longest, max_dur_s=longest,
        )
        rdir = os.path.join(self.workdir, f"round{i}")
        os.makedirs(rdir, exist_ok=True)
        paths = []
        for k, (s, t) in enumerate(zip(speakers, lengths)):
            u = k % shape.utts
            frames = corpus.utterances[s][u].frames[:t]
            path = os.path.join(rdir, f"spk{s:02d}_utt{u:03d}.fbnk")
            features.write_fbank(path, features.FBankMatrix(frames))
            paths.append(os.path.relpath(path))
            if i < self.sizes.min_rounds:
                self.inputs.update(frames.tobytes())
        trials = self.trial_pairs(speakers, layout)
        trial_path = os.path.join(rdir, "trials.txt")
        with open(trial_path, "w") as fh:
            for label, a, b in trials:
                fh.write(f"{label} {paths[a]} {paths[b]}\n")
        if i < self.sizes.min_rounds:
            self.inputs.update(repr(trials).encode())
        self.rounds[i] = (rdir, trial_path, len(trials))

    def run_unit(self, i):
        rdir, trial_path, _ = self.rounds[i]
        loaded, ns, _ = model.load_checkpoint(self.ckpt)
        self._time_calls(loaded)
        trials = evaluation.parse_trial_list(trial_path)
        self.report = evaluation.run_eval(
            trials, loaded, ns, csv_path=os.path.join(rdir, "scores.csv")
        )

    def _time_calls(self, m):
        """Thin per-call timers on this model's embed_utterance and score_records."""
        embed, score = m.embed_utterance, m.score_records
        main_s, aux_s = self.main_s, self.aux_s

        def timed_embed(fbank):
            t0 = time.perf_counter()
            out = embed(fbank)
            main_s.append(time.perf_counter() - t0)
            return out

        def timed_score(r1, r2):
            t0 = time.perf_counter()
            out = score(r1, r2)
            aux_s.append(time.perf_counter() - t0)
            return out

        m.embed_utterance = timed_embed
        m.score_records = timed_score

    def check(self, i):
        rdir, _, n_trials = self.rounds.pop(i)
        self.trials += n_trials
        report = self.report
        if report["n_scored"] != n_trials or report["n_errors"] != 0:
            self.failed += n_trials - report["n_scored"]
            self.problems.append(
                f"round {i}: scored {report['n_scored']} of {n_trials} trials, "
                f"{report['n_errors']} errors"
            )
        csv_path = os.path.join(rdir, "scores.csv")
        with open(csv_path, "rb") as fh:
            raw = fh.read()
        if i < self.sizes.min_rounds:
            self.outputs.update(raw)
        rows = list(csv.DictReader(raw.decode().splitlines()))
        if len(rows) != n_trials:
            self.problems.append(f"round {i}: CSV has {len(rows)} rows for {n_trials} trials")
        for row in rows:
            cos, binary, fused = (float(row[k]) for k in ("score_cos", "score_binary", "score_all"))
            if not (math.isfinite(cos) and math.isfinite(binary) and math.isfinite(fused)):
                self.failed += 1
                self.problems.append(f"round {i} trial {row['trial_idx']}: non-finite score")
            elif not (-1.0 <= cos <= 1.0 and 0.0 <= binary <= 1.0):
                self.failed += 1
                self.problems.append(
                    f"round {i} trial {row['trial_idx']}: cosine {cos} or binary {binary} out of range"
                )
            # A float32 sigmoid rounds confident pairs to exactly 0 or 1;
            # counted so that the saturation stays visible in every run.
            self.saturated += binary in (0.0, 1.0)
        shutil.rmtree(rdir)

    def trial_pairs(self, speakers, rng):
        """(label, i, j) utterance-index trials for one round."""
        n, n_trials = speakers.size, self.shape.trials
        same = [(a, b) for a in range(n) for b in range(a + 1, n) if speakers[a] == speakers[b]]
        diff = [(a, b) for a in range(n) for b in range(a + 1, n) if speakers[a] != speakers[b]]
        n_target = n_trials // 2
        trials = [(1, a, b) for a, b in balanced_pairs(same, n_target, n, rng)]
        trials += [(0, a, b) for a, b in balanced_pairs(diff, n_trials - n_target, n, rng)]
        trials = [(lab, b, a) if rng.random() < 0.5 else (lab, a, b) for lab, a, b in trials]
        return [trials[k] for k in rng.permutation(len(trials))]

    def attempted(self):
        return self.trials

    def main_per_unit(self):
        return self.shape.speakers * self.shape.utts

    def aux_per_unit(self):
        return self.shape.trials


def balanced_pairs(candidates, n_pairs, n_nodes, rng):
    """n_pairs distinct candidate pairs, keeping every node's degree near even."""
    cap = math.ceil(2 * n_pairs / n_nodes)
    degree = np.zeros(n_nodes, dtype=int)
    chosen, rest = [], []
    for k in rng.permutation(len(candidates)):
        a, b = candidates[k]
        if len(chosen) < n_pairs and degree[a] < cap and degree[b] < cap:
            chosen.append((a, b))
            degree[a] += 1
            degree[b] += 1
        else:
            rest.append((a, b))
    return chosen + rest[: n_pairs - len(chosen)]


WORKLOAD_CLASSES = {"train_desk": TrainDesk, "eval_trials": EvalTrials}


def run_one(wl, i, tracer=None):
    """Prepare, run, time and check unit i; traced when a tracer is given."""
    wl.prepare(i)
    with contextlib.ExitStack() as traced:
        if tracer is not None:
            traced.enter_context(tracer.installed())
            traced.enter_context(tracer.unit(wl.unit))
        t0 = time.perf_counter()
        wl.run_unit(i)
        wl.unit_s.append(time.perf_counter() - t0)
    wl.check(i)


def timed_loop(wl, seconds):
    """Run units until `seconds` of unit time and at least min_units."""
    i = 0
    while i < wl.min_units or sum(wl.unit_s) < seconds:
        run_one(wl, i)
        i += 1
    wl.finish()
    return i


def lockstep_loop(plain, traced, tracer, seconds):
    """Run each unit untraced, then traced, until `seconds` of unit time in all.

    Unit i of both workloads has the same inputs and runs back to back, so
    drift of the machine's speed reaches both passes alike.
    """
    i = 0
    while i < plain.min_units or sum(plain.unit_s) + sum(traced.unit_s) < seconds:
        run_one(plain, i)
        run_one(traced, i, tracer)
        i += 1
    plain.finish()
    traced.finish()
    return i
