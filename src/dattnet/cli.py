"""Command-line entry points: train, eval, gradcheck, synth, fbank.

Only the standard library is imported at module scope; numpy and the
model modules load after the thread knobs are applied, so --threads and
DATT_DETERMINISTIC=1 reach the BLAS pool before it starts.

Output files are written to a temp name and renamed, so a failing
command leaves nothing partial behind.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys
from dataclasses import replace

EXIT_FAILURE = 1
EXIT_USAGE = 2

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

LOG_COLUMNS = (
    "step",
    "epoch",
    "loss_id",
    "loss_binary",
    "loss_all",
    "lr_backbone",
    "lr_attention",
)

SYNTH_TRIALS = 200


def _pin_threads(threads):
    if os.environ.get("DATT_DETERMINISTIC") == "1":
        threads = 1
    if threads is not None:
        for var in THREAD_VARS:
            os.environ[var] = str(threads)


def _fail(msg, code=EXIT_FAILURE):
    print(f"error: {msg}", file=sys.stderr)
    return code


def _load_config(args):
    """TrainConfig from --config JSON (strict keys) with --seed override."""
    from .training import TrainConfig, load_config

    cfg = load_config(args.config) if args.config is not None else TrainConfig()
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    return cfg


def _check_outputs(outputs, inputs):
    """Raise OSError before any work if an output is a directory, its
    directory takes no new file, or its real path names an input or
    another output.  Both arguments map a flag to its path (or None)."""
    taken = {os.path.realpath(p): f"{flag} {p}" for flag, p in inputs.items() if p}
    for flag, path in outputs.items():
        if not path:
            continue
        if os.path.isdir(path):
            raise OSError(f"{path}: is a directory")
        folder = os.path.dirname(os.path.abspath(path))
        if not (os.path.isdir(folder) and os.access(folder, os.W_OK | os.X_OK)):
            raise OSError(f"{path}: cannot create a file in {folder}")
        real = os.path.realpath(path)
        if real in taken:
            raise OSError(f"{flag} {path} names the same file as {taken[real]}")
        taken[real] = f"{flag} {path}"


def _write_log_csv(path, log):
    from .features import atomic_write

    with atomic_write(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(LOG_COLUMNS)
        for row in log:
            writer.writerow([row[c] for c in LOG_COLUMNS])


def _format_row(row):
    return (
        f"step {row['step']:4d} epoch {row['epoch']:2d} "
        f"loss_id {row['loss_id']:.4f} loss_binary {row['loss_binary']:.4f} "
        f"loss_all {row['loss_all']:.4f} lr {row['lr_backbone']:.5f}"
    )


def cmd_train(args):
    import resource

    from .errors import ConfigError
    from .model import save_checkpoint
    from .training import config_to_dict, train_model

    try:
        cfg = _load_config(args)
    except (OSError, ConfigError) as e:
        return _fail(e, EXIT_USAGE)

    _check_outputs({"--checkpoint": args.checkpoint, "--out": args.out}, {"--config": args.config})
    model, norm_stats, log = train_model(
        cfg, log_fn=lambda row: print(_format_row(row))
    )
    meta = {"config": config_to_dict(cfg), "steps": len(log)}
    save_checkpoint(args.checkpoint, model, norm_stats, meta)
    if args.out is not None:
        _write_log_csv(args.out, log)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # ru_maxrss is in KiB
    print(f"saved checkpoint {args.checkpoint} after {len(log)} steps, peak RSS {peak_mb:.0f} MB")
    return 0


def cmd_eval(args):
    from .evaluation import parse_trial_list, run_eval
    from .model import load_checkpoint

    _check_outputs({"--out": args.out}, {"--checkpoint": args.checkpoint, "--trials": args.trials})
    model, norm_stats, _ = load_checkpoint(args.checkpoint)
    if norm_stats is None:
        return _fail(f"{args.checkpoint}: checkpoint has no calibration stats")
    trials = parse_trial_list(args.trials)
    report = run_eval(trials, model, norm_stats, csv_path=args.out)
    print(f"scored {report['n_scored']} trials, {report['n_errors']} errors")
    for idx, msg in report["errors"]:
        print(f"  trial {idx}: {msg}", file=sys.stderr)
    for key in ("eer_cos", "eer_binary", "eer_all"):
        print(f"{key} {report[key]:.6f}")
    return 0


def cmd_gradcheck(args):
    from .gradcheck import run_gradcheck

    report = run_gradcheck(seed=args.seed if args.seed is not None else 0)
    for line in report.lines():
        print(line)
    return 0 if report.passed else EXIT_FAILURE


def _utterance_name(s, u):
    return f"spk{s:03d}_utt{u:03d}.fbnk"


def _synth_trials(corpus, rng, n):
    """Balanced same/different pairs over distinct utterances."""
    lines = []
    n_utts = [len(us) for us in corpus.utterances]
    for k in range(n):
        if k % 2 == 0:
            s = int(rng.integers(corpus.num_speakers))
            u1, u2 = rng.choice(n_utts[s], size=2, replace=False)
            lines.append((1, _utterance_name(s, u1), _utterance_name(s, u2)))
        else:
            s1, s2 = rng.choice(corpus.num_speakers, size=2, replace=False)
            u1 = int(rng.integers(n_utts[s1]))
            u2 = int(rng.integers(n_utts[s2]))
            lines.append((0, _utterance_name(s1, u1), _utterance_name(s2, u2)))
    return lines


def cmd_synth(args):
    import numpy as np

    from .errors import ConfigError
    from .features import atomic_write, generate_synthetic_corpus, write_fbank

    try:
        cfg = _load_config(args)
    except (OSError, ConfigError) as e:
        return _fail(e, EXIT_USAGE)

    os.makedirs(args.out, exist_ok=True)
    corpus = generate_synthetic_corpus(
        cfg.num_speakers, cfg.utts_per_speaker, cfg.seed, cfg.noise_sigma, cfg.mel_bins
    )
    n_files = 0
    for s in range(corpus.num_speakers):
        for u, utt in enumerate(corpus.utterances[s]):
            write_fbank(os.path.join(args.out, _utterance_name(s, u)), utt)
            n_files += 1
    rng = np.random.default_rng(np.random.SeedSequence(entropy=(cfg.seed, 3)))
    trials = _synth_trials(corpus, rng, SYNTH_TRIALS)
    with atomic_write(os.path.join(args.out, "trials.txt"), "w") as fh:
        for label, p1, p2 in trials:
            fh.write(f"{label} {os.path.join(args.out, p1)} {os.path.join(args.out, p2)}\n")
    print(f"wrote {n_files} feature files and {len(trials)} trials under {args.out}")
    return 0


def cmd_fbank(args):
    from .features import compute_fbank, read_wav, write_fbank

    if args.out is not None and len(args.wav) > 1:
        os.makedirs(args.out, exist_ok=True)
    for wav in args.wav:
        if args.out is None:
            dst = os.path.splitext(wav)[0] + ".fbnk"
        elif len(args.wav) > 1:
            dst = os.path.join(args.out, os.path.splitext(os.path.basename(wav))[0] + ".fbnk")
        else:
            dst = args.out
        feats = compute_fbank(read_wav(wav))
        write_fbank(dst, feats)
        print(f"{wav} -> {dst} ({feats.n_frames} frames)")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="dattnet",
        description="Speaker verification with dual attention pooling.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=None, help="override the config seed")
    common.add_argument("--threads", type=int, default=None, help="BLAS/OMP thread count")

    p = sub.add_parser("train", parents=[common], help="train a model end to end")
    p.add_argument("--config", default=None, help="JSON training config")
    p.add_argument("--checkpoint", default="dattnet.ckpt", help="checkpoint output path")
    p.add_argument("--out", default=None, help="per-step training log CSV")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", parents=[common], help="score a trial list")
    p.add_argument("--checkpoint", required=True, help="checkpoint to load")
    p.add_argument("--trials", required=True, help="trial list: 'label path1 path2' lines")
    p.add_argument("--out", required=True, help="per-trial score CSV")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("gradcheck", parents=[common], help="finite-difference gradient audit")
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("synth", parents=[common], help="write a synthetic corpus + trial list")
    p.add_argument("--config", default=None, help="JSON config for corpus fields")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("fbank", parents=[common], help="convert WAV files to feature files")
    p.add_argument("wav", nargs="+", help="16 kHz mono 16-bit PCM WAV files")
    p.add_argument("--out", default=None, help="output file (single input) or directory")
    p.set_defaults(func=cmd_fbank)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    _pin_threads(args.threads)
    from .errors import ConfigError, FormatError, InputError, NumericError

    try:
        return args.func(args)
    except (OSError, ConfigError, FormatError, InputError, NumericError) as e:
        # one exit for every failure a command does not translate itself
        return _fail(e)


if __name__ == "__main__":
    sys.exit(main())
