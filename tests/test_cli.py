"""CLI tests: config handling, exit codes, artifacts, determinism."""

import csv
import json
import math
import os
import re
import struct
import wave

import numpy as np
import pytest

import dattnet.gradcheck
from dattnet.cli import main
from dattnet.evaluation import compute_eer, parse_trial_list
from dattnet.features import FBankMatrix, read_fbank, write_fbank
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


def must_not_run(*args, **kwargs):
    pytest.fail("the command did its work before finding it could not write its output")


def train_tiny(tmp_path, name="model.ckpt", **overrides):
    cfg_path = write_config(tmp_path, **overrides)
    ckpt = str(tmp_path / name)
    log = str(tmp_path / (name + ".log.csv"))
    rc = main(["train", "--config", cfg_path, "--checkpoint", ckpt, "--out", log])
    assert rc == 0
    return ckpt, log


# defect -> (config key, value); each must end in one error line naming the key
MALFORMED_CONFIGS = {
    "a string among the channels": ("channels", [4, "a", 8, 8]),
    "three channel counts": ("channels", [4, 8, 8]),
    "blocks_per_stage is a number": ("blocks_per_stage", 2),
    "epochs is a string": ("epochs", "3"),
    "epochs is fractional": ("epochs", 2.5),
    "speakers_per_batch is true": ("speakers_per_batch", True),
    "shared_attention is 1": ("shared_attention", 1),
    "lambda is a string": ("lambda", "1"),
    "loss_kind is a number": ("loss_kind", 3),
    "mel_bins = 0": ("mel_bins", 0),
    "lr_backbone is NaN": ("lr_backbone", math.nan),
    "s is Infinity": ("s", math.inf),
    "s is 10^400, past the float range": ("s", 10**400),
    "one calibration pair": ("calib_pairs", 1),
    "one utterance per speaker": ("utts_per_speaker", 1),
    "negative noise_sigma": ("noise_sigma", -0.5),
    "negative pos_weight": ("pos_weight", -1.0),
}


class TestTrain:
    @pytest.mark.parametrize("defect", sorted(MALFORMED_CONFIGS))
    def test_malformed_config_is_one_error_line(self, defect, tmp_path, capsys):
        key, value = MALFORMED_CONFIGS[defect]
        ckpt = tmp_path / "x.ckpt"
        rc = main(["train", "--config", write_config(tmp_path, **{key: value}),
                   "--checkpoint", str(ckpt)])
        err = capsys.readouterr().err.splitlines()
        assert rc == 2
        assert len(err) == 1 and err[0].startswith("error: "), err
        assert key in err[0]
        assert not ckpt.exists()

    def test_checkpoint_in_missing_dir_is_one_error_line(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr("dattnet.training.train_model", must_not_run)
        cfg_path = write_config(tmp_path)
        ckpt = tmp_path / "missing" / "x.ckpt"
        rc = main(["train", "--config", cfg_path, "--checkpoint", str(ckpt),
                   "--out", str(tmp_path / "log.csv")])
        err = capsys.readouterr().err.splitlines()
        assert rc == 1
        assert len(err) == 1 and err[0].startswith("error: "), err
        assert [p.name for p in tmp_path.iterdir()] == ["config.json"]

    def test_log_in_missing_dir_fails_before_training(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr("dattnet.training.train_model", must_not_run)
        cfg_path = write_config(tmp_path)
        rc = main(["train", "--config", cfg_path, "--checkpoint", str(tmp_path / "x.ckpt"),
                   "--out", str(tmp_path / "missing" / "log.csv")])
        err = capsys.readouterr().err.splitlines()
        assert rc == 1
        assert len(err) == 1 and err[0].startswith("error: "), err
        assert [p.name for p in tmp_path.iterdir()] == ["config.json"]

    @pytest.mark.parametrize("flag", ["--checkpoint", "--out"])
    def test_output_naming_a_directory_fails_before_training(
        self, flag, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.setattr("dattnet.training.train_model", must_not_run)
        outputs = {"--checkpoint": str(tmp_path / "x.ckpt"), "--out": str(tmp_path / "log.csv")}
        outputs[flag] = str(tmp_path)
        rc = main(["train", "--config", write_config(tmp_path),
                   *(a for item in outputs.items() for a in item)])
        err = capsys.readouterr().err.splitlines()
        assert rc == 1
        assert len(err) == 1 and err[0].startswith("error: ") and "directory" in err[0], err
        assert [p.name for p in tmp_path.iterdir()] == ["config.json"]

    @pytest.mark.parametrize("clash", ["checkpoint=out", "out=config", "checkpoint=config"])
    def test_output_naming_another_path_fails_before_training(
        self, clash, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.setattr("dattnet.training.train_model", must_not_run)
        cfg_path = write_config(tmp_path)
        paths = {"checkpoint": str(tmp_path / "x.ckpt"), "out": str(tmp_path / "log.csv"),
                 "config": cfg_path}
        dst, src = clash.split("=")
        # the same file by another spelling: the check compares real paths
        paths[dst] = os.path.join(str(tmp_path), "sub", "..", os.path.basename(paths[src]))
        (tmp_path / "sub").mkdir()
        before = (tmp_path / "config.json").read_bytes()
        rc = main(["train", *(a for k, v in paths.items() for a in (f"--{k}", v))])
        err = capsys.readouterr().err.splitlines()
        assert rc == 1
        assert len(err) == 1 and err[0].startswith("error: ") and "same file" in err[0], err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json", "sub"]
        assert (tmp_path / "config.json").read_bytes() == before

    def test_integers_fit_number_fields(self):
        cfg = config_from_dict(dict(TINY, **{"lambda": 2, "s": 30, "dropout_rate": 0}))
        assert (cfg.lambda_, cfg.s, cfg.dropout_rate) == (2, 30, 0)

    def test_writes_checkpoint_and_full_log(self, tmp_path, capsys):
        ckpt, log = train_tiny(tmp_path)
        assert os.path.exists(ckpt)
        with open(log, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == TINY["epochs"] * TINY["steps_per_epoch"]
        for row in rows:
            assert float(row["loss_all"]) > 0.0
            assert float(row["lr_backbone"]) > 0.0
        out = capsys.readouterr().out.splitlines()
        # the closing line reports the process's peak resident set
        assert re.fullmatch(r"saved checkpoint .* after \d+ steps, peak RSS [1-9]\d* MB", out[-1]), out[-1]

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
        fresh = DattModel(cfg.backbone_config(), cfg.seed)
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

    def test_out_is_a_file_is_one_error_line(self, tmp_path, capsys):
        out = tmp_path / "data"
        out.write_text("")
        rc = main(["synth", "--config", write_config(tmp_path), "--out", str(out)])
        err = capsys.readouterr().err.splitlines()
        assert rc == 1
        assert len(err) == 1 and err[0].startswith("error: "), err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json", "data"]

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


def _swapped(manifest):
    """The first two same-shaped neighbours in the payload trade offsets."""
    entries = sorted(manifest["params"].values(), key=lambda e: e["offset"])
    a, b = next((a, b) for a, b in zip(entries, entries[1:]) if a["shape"] == b["shape"])
    a["offset"], b["offset"] = b["offset"], a["offset"]
    return manifest


def _reshaped(manifest):
    """The first index entry gains a trailing axis of 1: same bytes, another shape."""
    first = manifest["params"][sorted(manifest["params"])[0]]
    first["shape"] = first["shape"] + [1]
    return manifest


def _with_model(manifest, **conf):
    manifest["model"].update(conf)
    return manifest


def _without_model_key(manifest, key):
    del manifest["model"][key]
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
    "same-shape entries with swapped offsets": lambda man, pl: _join_checkpoint(_swapped(man), pl),
    "entry with a changed shape": lambda man, pl: _join_checkpoint(_reshaped(man), pl),
    "model.mel_bins = 30": lambda man, pl: _join_checkpoint(_with_model(man, mel_bins=30), pl),
    "model.dropout_rate = 'x'": lambda man, pl: _join_checkpoint(
        _with_model(man, dropout_rate="x"), pl),
    "model.dropout_rate = 7.0": lambda man, pl: _join_checkpoint(
        _with_model(man, dropout_rate=7.0), pl),
    "model.shared_attention = 0": lambda man, pl: _join_checkpoint(
        _with_model(man, shared_attention=0), pl),
    "unknown model key": lambda man, pl: _join_checkpoint(_with_model(man, num_heads=2), pl),
    "model without num_id": lambda man, pl: _join_checkpoint(
        _without_model_key(man, "num_id"), pl),
    # rejected on its size alone: building this model would exhaust memory
    "num_f = channels[3] = 10^9": lambda man, pl: _join_checkpoint(
        _with_model(man, num_f=10**9, channels=man["model"]["channels"][:3] + [10**9]), pl),
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
        out = capsys.readouterr().out.splitlines()
        for line in out:
            parts = line.split()
            if len(parts) == 2 and parts[0].startswith("eer_"):
                printed[parts[0]] = float(parts[1])
        assert set(printed) == {"eer_cos", "eer_binary", "eer_all"}
        # the closing line reports the process's peak resident set
        assert re.fullmatch(r"peak RSS [1-9]\d* MB", out[-1]), out[-1]
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

    def test_csv_in_missing_dir_is_one_error_line(
        self, trained, corpus_dir, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.setattr("dattnet.evaluation.run_eval", must_not_run)
        out_csv = tmp_path / "missing" / "scores.csv"
        rc = main(
            ["eval", "--checkpoint", trained, "--trials", str(corpus_dir / "trials.txt"),
             "--out", str(out_csv)]
        )
        err = capsys.readouterr().err.splitlines()
        assert rc == 1
        assert len(err) == 1 and err[0].startswith("error: "), err
        assert list(tmp_path.iterdir()) == []

    def test_csv_naming_a_directory_is_one_error_line(
        self, trained, corpus_dir, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.setattr("dattnet.evaluation.run_eval", must_not_run)
        rc = main(
            ["eval", "--checkpoint", trained, "--trials", str(corpus_dir / "trials.txt"),
             "--out", str(tmp_path)]
        )
        err = capsys.readouterr().err.splitlines()
        assert rc == 1
        assert len(err) == 1 and err[0].startswith("error: ") and "directory" in err[0], err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("clash", ["checkpoint", "trials"])
    def test_csv_naming_an_input_is_one_error_line(
        self, clash, trained, corpus_dir, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.setattr("dattnet.evaluation.run_eval", must_not_run)
        ckpt, trials = tmp_path / "model.ckpt", tmp_path / "trials.txt"
        ckpt.write_bytes(open(trained, "rb").read())
        trials.write_bytes((corpus_dir / "trials.txt").read_bytes())
        before = {p.name: p.read_bytes() for p in (ckpt, trials)}
        link = tmp_path / "out.csv"
        link.symlink_to({"checkpoint": ckpt, "trials": trials}[clash])
        rc = main(["eval", "--checkpoint", str(ckpt), "--trials", str(trials), "--out", str(link)])
        err = capsys.readouterr().err.splitlines()
        assert rc == 1
        assert len(err) == 1 and err[0].startswith("error: ") and "same file" in err[0], err
        assert {p.name: p.read_bytes() for p in (ckpt, trials)} == before

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

    def test_wrong_mel_bins_skips_trial(self, trained, corpus_dir, tmp_path, capsys):
        trials = parse_trial_list(str(corpus_dir / "trials.txt"))[:4]
        wide = tmp_path / "wide.fbnk"
        write_fbank(wide, FBankMatrix(np.zeros((300, 2 * TINY["mel_bins"]), dtype=np.float32)))
        lst = tmp_path / "trials.txt"
        lines = [f"{t.label} {t.utt1} {t.utt2}" for t in trials]
        lines.append(f"0 {trials[0].utt1} {wide}")
        lst.write_text("\n".join(lines) + "\n")
        out_csv = str(tmp_path / "scores.csv")
        rc = main(["eval", "--checkpoint", trained, "--trials", str(lst), "--out", out_csv])
        out, err = capsys.readouterr()
        assert rc == 0
        assert "scored 4 trials, 1 errors" in out
        assert err.splitlines() == [f"  trial 4: {wide}: features have 64 mel bins, the model takes 32"]
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
