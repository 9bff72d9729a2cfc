"""CLI tests: config handling, exit codes, artifacts, determinism."""

import csv
import json
import math
import os
import struct
import wave

import numpy as np
import pytest

import dattnet.gradcheck
from dattnet.cli import main
from dattnet.evaluation import compute_eer, parse_trial_list
from dattnet.features import read_fbank
from dattnet.gradcheck import GradcheckReport, UNIT_CHECKS
from dattnet.model import DattModel, load_checkpoint
from dattnet.training import config_from_dict

TINY = {
    "speakers_per_batch": 2,
    "channels": [4, 4, 8, 8],
    "blocks_per_stage": [1, 1, 1, 1],
    "num_f": 8,
    "epochs": 1,
    "steps_per_epoch": 2,
    "crop_frames": 60,
    "mel_bins": 32,
    "num_speakers": 3,
    "utts_per_speaker": 4,
    "calib_pairs": 8,
    "seed": 1,
}


def write_config(tmp_path, **overrides):
    doc = dict(TINY)
    doc.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return str(path)


def train_tiny(tmp_path, name="model.ckpt", **overrides):
    cfg_path = write_config(tmp_path, **overrides)
    ckpt = str(tmp_path / name)
    log = str(tmp_path / (name + ".log.csv"))
    rc = main(["train", "--config", cfg_path, "--checkpoint", ckpt, "--out", log])
    assert rc == 0
    return ckpt, log


class TestTrain:
    def test_writes_checkpoint_and_full_log(self, tmp_path, capsys):
        ckpt, log = train_tiny(tmp_path)
        assert os.path.exists(ckpt)
        with open(log, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == TINY["epochs"] * TINY["steps_per_epoch"]
        for row in rows:
            assert float(row["loss_all"]) > 0.0
            assert float(row["lr_backbone"]) > 0.0
        out = capsys.readouterr().out
        assert "saved checkpoint" in out

    def test_unknown_config_key_names_it(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"learning_rate": 0.1}))
        rc = main(["train", "--config", str(path), "--checkpoint", str(tmp_path / "x.ckpt")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "learning_rate" in err
        assert not os.path.exists(tmp_path / "x.ckpt")

    def test_invalid_json_fails_cleanly(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        rc = main(["train", "--config", str(path), "--checkpoint", str(tmp_path / "x.ckpt")])
        assert rc == 2
        assert "bad.json" in capsys.readouterr().err

    def test_lambda_zero_leaves_attention_and_head_at_init(self, tmp_path, capsys):
        ckpt, _ = train_tiny(tmp_path, lambda_=0.0)
        model, _, _ = load_checkpoint(ckpt)
        cfg = config_from_dict(dict(TINY))
        fresh = DattModel(
            cfg.backbone_config(), cfg.seed, cfg.shared_attention, cfg.dropout_rate
        )
        trained = dict(model.named_params())
        moved = 0
        for name, p in fresh.named_params():
            if name.startswith(("attention.", "head.")):
                np.testing.assert_array_equal(trained[name].data, p.data, err_msg=name)
            else:
                moved += int(not np.array_equal(trained[name].data, p.data))
        assert moved > 0  # the backbone itself did train

    def test_seed_flag_overrides_config(self, tmp_path, capsys):
        a, _ = train_tiny(tmp_path, name="a.ckpt")
        cfg_path = write_config(tmp_path)
        b = str(tmp_path / "b.ckpt")
        rc = main(["train", "--config", cfg_path, "--seed", "9", "--checkpoint", b])
        assert rc == 0
        _, _, meta = load_checkpoint(b)
        assert meta["config"]["seed"] == 9
        with open(a, "rb") as fa, open(b, "rb") as fb:
            assert fa.read() != fb.read()


class TestDeterminism:
    def test_repeat_training_run_is_bit_identical(self, tmp_path, capsys):
        a, _ = train_tiny(tmp_path, name="a.ckpt")
        b, _ = train_tiny(tmp_path, name="b.ckpt")
        with open(a, "rb") as fa, open(b, "rb") as fb:
            assert fa.read() == fb.read()


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("corpus")
    cfg_path = tmp / "config.json"
    cfg_path.write_text(json.dumps(TINY))
    out = tmp / "data"
    rc = main(["synth", "--config", str(cfg_path), "--out", str(out)])
    assert rc == 0
    return out


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("train")
    cfg_path = tmp / "config.json"
    cfg_path.write_text(json.dumps(TINY))
    ckpt = str(tmp / "model.ckpt")
    rc = main(["train", "--config", str(cfg_path), "--checkpoint", ckpt])
    assert rc == 0
    return ckpt


class TestSynth:
    def test_writes_features_and_trials(self, corpus_dir):
        files = sorted(p.name for p in corpus_dir.iterdir())
        fbnk = [f for f in files if f.endswith(".fbnk")]
        assert len(fbnk) == TINY["num_speakers"] * TINY["utts_per_speaker"]
        trials = parse_trial_list(str(corpus_dir / "trials.txt"))
        assert len(trials) == 200
        labels = {t.label for t in trials}
        assert labels == {0, 1}
        f = read_fbank(str(corpus_dir / fbnk[0]))
        assert f.mel_bins == TINY["mel_bins"]

    def test_trial_paths_resolve(self, corpus_dir):
        trials = parse_trial_list(str(corpus_dir / "trials.txt"))
        for t in trials[:20]:
            assert os.path.exists(t.utt1) and os.path.exists(t.utt2)


def _split_checkpoint(raw):
    doc_len = int.from_bytes(raw[8:16], "little")
    return json.loads(raw[16 : 16 + doc_len]), raw[16 + doc_len :]


def _join_checkpoint(manifest, payload, doc_len=None):
    doc = json.dumps(manifest).encode()
    n = len(doc) if doc_len is None else doc_len
    return b"DATTCKP1" + n.to_bytes(8, "little") + doc + payload


def _with_param(manifest, **meta):
    """The manifest with its first index entry's fields replaced."""
    first = sorted(manifest["params"])[0]
    manifest["params"][first].update(meta)
    return manifest


def _with_stat(manifest, key, value):
    manifest["norm_stats"][key] = value
    return manifest


def _overlapping(manifest):
    a, b = sorted(manifest["params"].values(), key=lambda e: e["offset"])[:2]
    b["offset"] = a["offset"]
    return manifest


# defect -> (manifest, payload) -> corrupted checkpoint bytes
MALFORMED_CHECKPOINTS = {
    "manifest without params": lambda man, pl: _join_checkpoint(
        {k: v for k, v in man.items() if k != "params"}, pl),
    "manifest is a JSON list": lambda man, pl: _join_checkpoint([man], pl),
    "negative parameter offset": lambda man, pl: _join_checkpoint(_with_param(man, offset=-4), pl),
    "parameter past the payload": lambda man, pl: _join_checkpoint(
        _with_param(man, offset=len(pl)), pl),
    "overlapping parameters": lambda man, pl: _join_checkpoint(_overlapping(man), pl),
    "std_cos = 0": lambda man, pl: _join_checkpoint(_with_stat(man, "std_cos", 0.0), pl),
    "std_bin = NaN": lambda man, pl: _join_checkpoint(_with_stat(man, "std_bin", math.nan), pl),
    "manifest length 2^62": lambda man, pl: _join_checkpoint(man, pl, doc_len=2**62),
    "NaN weight": lambda man, pl: _join_checkpoint(man, np.float32(np.nan).tobytes() + pl[4:]),
}


class TestEval:
    def test_scores_all_trials_and_prints_matching_eers(
        self, trained, corpus_dir, tmp_path, capsys
    ):
        out_csv = str(tmp_path / "scores.csv")
        rc = main(
            ["eval", "--checkpoint", trained, "--trials", str(corpus_dir / "trials.txt"),
             "--out", out_csv]
        )
        assert rc == 0
        printed = {}
        for line in capsys.readouterr().out.splitlines():
            parts = line.split()
            if len(parts) == 2 and parts[0].startswith("eer_"):
                printed[parts[0]] = float(parts[1])
        assert set(printed) == {"eer_cos", "eer_binary", "eer_all"}
        with open(out_csv, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 200
        for key, col in (("eer_cos", "score_cos"), ("eer_binary", "score_binary"),
                         ("eer_all", "score_all")):
            scores = [(float(r[col]), int(r["label"])) for r in rows]
            eer, _ = compute_eer(scores)
            assert abs(eer - printed[key]) < 5e-7  # printed at 6 decimals

    def test_rerun_writes_identical_csv(self, trained, corpus_dir, tmp_path, capsys):
        outs = []
        for name in ("a.csv", "b.csv"):
            out_csv = str(tmp_path / name)
            rc = main(
                ["eval", "--checkpoint", trained, "--trials",
                 str(corpus_dir / "trials.txt"), "--out", out_csv]
            )
            assert rc == 0
            with open(out_csv, "rb") as fh:
                outs.append(fh.read())
        assert outs[0] == outs[1]

    def test_missing_checkpoint_leaves_no_csv(self, corpus_dir, tmp_path, capsys):
        out_csv = tmp_path / "scores.csv"
        rc = main(
            ["eval", "--checkpoint", str(tmp_path / "nope.ckpt"), "--trials",
             str(corpus_dir / "trials.txt"), "--out", str(out_csv)]
        )
        assert rc != 0
        assert not out_csv.exists()
        assert "nope.ckpt" in capsys.readouterr().err

    def test_malformed_trial_line_names_line_number(self, trained, tmp_path, capsys):
        bad = tmp_path / "trials.txt"
        bad.write_text("1 a.fbnk b.fbnk\n2 broken\n")
        out_csv = tmp_path / "scores.csv"
        rc = main(
            ["eval", "--checkpoint", trained, "--trials", str(bad), "--out", str(out_csv)]
        )
        assert rc != 0
        assert ":2:" in capsys.readouterr().err
        assert not out_csv.exists()

    @pytest.mark.parametrize("defect", sorted(MALFORMED_CHECKPOINTS))
    def test_malformed_checkpoint_is_one_error_line(
        self, defect, trained, corpus_dir, tmp_path, capsys
    ):
        with open(trained, "rb") as fh:
            manifest, payload = _split_checkpoint(fh.read())
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(MALFORMED_CHECKPOINTS[defect](manifest, payload))
        out_csv = tmp_path / "scores.csv"
        rc = main(
            ["eval", "--checkpoint", str(bad), "--trials", str(corpus_dir / "trials.txt"),
             "--out", str(out_csv)]
        )
        err = capsys.readouterr().err.splitlines()
        assert rc == 1
        assert len(err) == 1 and err[0].startswith("error: "), err
        assert "bad.ckpt" in err[0]
        assert not out_csv.exists()

    def test_unreadable_utterance_skips_trial(self, trained, corpus_dir, tmp_path, capsys):
        trials = parse_trial_list(str(corpus_dir / "trials.txt"))[:4]
        lst = tmp_path / "trials.txt"
        lines = [f"{t.label} {t.utt1} {t.utt2}" for t in trials]
        lines.append(f"1 {tmp_path / 'gone.fbnk'} {trials[0].utt1}")
        lst.write_text("\n".join(lines) + "\n")
        out_csv = str(tmp_path / "scores.csv")
        rc = main(["eval", "--checkpoint", trained, "--trials", str(lst), "--out", out_csv])
        assert rc == 0
        assert "scored 4 trials, 1 errors" in capsys.readouterr().out
        with open(out_csv, newline="") as fh:
            assert len(list(csv.DictReader(fh))) == 4


class TestGradcheckCommand:
    def _fake(self, passed):
        errs = {name: (1e-9 if passed else 5e-3) for name, _ in UNIT_CHECKS}
        return GradcheckReport(errs, {"conv": 1e-9}, 1)

    def test_exit_zero_on_pass(self, monkeypatch, capsys):
        monkeypatch.setattr(
            dattnet.gradcheck, "run_gradcheck", lambda seed=0: self._fake(True)
        )
        assert main(["gradcheck"]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_exit_nonzero_on_failure(self, monkeypatch, capsys):
        monkeypatch.setattr(
            dattnet.gradcheck, "run_gradcheck", lambda seed=0: self._fake(False)
        )
        assert main(["gradcheck"]) == 1
        assert "FAIL" in capsys.readouterr().out


class TestFbank:
    def write_wav(self, path, seconds=1.0, rate=16000):
        with wave.open(str(path), "wb") as wf:
            wf.setnchannels(1)
            wf.setsampwidth(2)
            wf.setframerate(rate)
            n = int(seconds * rate)
            wf.writeframes(
                b"".join(
                    struct.pack("<h", int(2e4 * math.sin(2 * math.pi * 440 * i / rate)))
                    for i in range(n)
                )
            )

    def test_wav_to_feature_file(self, tmp_path, capsys):
        wav = tmp_path / "tone.wav"
        self.write_wav(wav)
        out = tmp_path / "tone.fbnk"
        rc = main(["fbank", str(wav), "--out", str(out)])
        assert rc == 0
        f = read_fbank(str(out))
        assert f.mel_bins == 64
        assert f.n_frames == 98  # 1 + (16000 - 400) // 160

    def test_wrong_sample_rate_fails(self, tmp_path, capsys):
        wav = tmp_path / "slow.wav"
        self.write_wav(wav, rate=8000)
        rc = main(["fbank", str(wav), "--out", str(tmp_path / "x.fbnk")])
        assert rc != 0
        assert "8000" in capsys.readouterr().err
        assert not (tmp_path / "x.fbnk").exists()
