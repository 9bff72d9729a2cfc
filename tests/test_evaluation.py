"""Segmentation, EER, trial parsing, and evaluation-loop tests."""

import csv
import struct

import numpy as np
import pytest
from numpy.testing import assert_allclose

from dattnet.backbone import BackboneConfig
from dattnet.errors import FormatError, InputError
from dattnet.evaluation import (
    SEGMENT_FRAMES,
    SEGMENT_HOP,
    Trial,
    compute_eer,
    parse_trial_list,
    run_eval,
    score_trial,
    segment_utterance,
    write_score_csv,
)
from dattnet.features import FBNK_MAGIC, FBankMatrix, write_fbank
from dattnet.model import DattModel
from dattnet.scoring import NormStats

TINY_CFG = BackboneConfig(
    mel_bins=32, channels=(4, 4, 8, 8), blocks_per_stage=(1, 1, 1, 1), num_f=8, num_id=3
)


def oracle_eer(scores):
    """Pure-python threshold sweep with explicit counting loops."""
    pos = [s for s, lab in scores if lab]
    neg = [s for s, lab in scores if not lab]
    cands = sorted(set(pos) | set(neg))
    cands.append(cands[-1] + 1.0)
    prev = None
    for t in cands:
        far = sum(1 for s in neg if s >= t) / len(neg)
        frr = sum(1 for s in pos if s < t) / len(pos)
        d = far - frr
        if d == 0.0:
            return far
        if d < 0.0:
            p_far, p_frr = prev
            dp = p_far - p_frr
            alpha = dp / (dp - d)
            return (1 - alpha) * p_far + alpha * far
        prev = (far, frr)
    raise AssertionError("no crossing")


class TestSegmentation:
    def test_long_utterance_start_grid(self):
        rng = np.random.default_rng(0)
        f = FBankMatrix(rng.standard_normal((700, 32)).astype(np.float32))
        segs = segment_utterance(f)
        assert len(segs) == 3
        for seg, start in zip(segs, (0, 100, 200)):
            assert seg.frames.shape == (SEGMENT_FRAMES, 32)
            assert np.array_equal(seg.frames, f.frames[start : start + SEGMENT_FRAMES])

    def test_exact_fit_single_segment(self):
        rng = np.random.default_rng(1)
        f = FBankMatrix(rng.standard_normal((500, 32)).astype(np.float32))
        segs = segment_utterance(f)
        assert len(segs) == 1
        assert np.array_equal(segs[0].frames, f.frames)

    def test_short_utterance_mean_padded(self):
        rng = np.random.default_rng(2)
        f = FBankMatrix(rng.standard_normal((400, 32)).astype(np.float32))
        segs = segment_utterance(f)
        assert len(segs) == 1
        assert segs[0].frames.shape == (500, 32)
        assert np.array_equal(segs[0].frames[:400], f.frames)
        mean_row = f.frames.mean(axis=0, dtype=np.float64).astype(np.float32)
        assert np.array_equal(segs[0].frames[400:], np.tile(mean_row, (100, 1)))

    def test_segment_count_sweep(self):
        rng = np.random.default_rng(3)
        for t in (1, 100, 499, 500, 599, 600, 700, 1234):
            f = FBankMatrix(rng.standard_normal((t, 8)).astype(np.float32))
            want = 1 if t < 500 else (t - SEGMENT_FRAMES) // SEGMENT_HOP + 1
            assert len(segment_utterance(f)) == want, t


class TestComputeEER:
    def test_perfect_separation(self):
        eer, thr = compute_eer([(0.9, 1), (0.8, 1), (0.2, 0), (0.1, 0)])
        assert eer == 0.0
        assert 0.2 < thr <= 0.8

    def test_interleaved_half(self):
        eer, thr = compute_eer([(0.8, 1), (0.2, 1), (0.7, 0), (0.3, 0)])
        assert eer == 0.5
        assert thr == 0.7

    def test_anti_separation(self):
        eer, _ = compute_eer([(0.1, 1), (0.2, 1), (0.8, 0), (0.9, 0)])
        assert eer == 1.0

    def test_interpolated_crossing(self):
        scores = [(0.3, 1), (0.7, 1), (0.9, 1), (0.1, 0), (0.5, 0)]
        eer, thr = compute_eer(scores)
        assert_allclose(eer, 1.0 / 3.0, rtol=0, atol=1e-12)
        assert 0.5 < thr < 0.7

    def test_matches_bruteforce_oracle(self):
        rng = np.random.default_rng(0)
        for trial in range(1000):
            n_pos = int(rng.integers(1, 26))
            n_neg = int(rng.integers(1, 26))
            if trial % 3 == 0:
                pos = rng.integers(0, 6, n_pos).astype(float)
                neg = rng.integers(0, 6, n_neg).astype(float)
            else:
                pos = rng.standard_normal(n_pos) + 0.5
                neg = rng.standard_normal(n_neg)
            scores = [(float(s), 1) for s in pos] + [(float(s), 0) for s in neg]
            eer, _ = compute_eer(scores)
            assert abs(eer - oracle_eer(scores)) <= 1e-9
            assert 0.0 <= eer <= 1.0

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            n = int(rng.integers(2, 30))
            raw = rng.standard_normal(n)
            labs = rng.integers(0, 2, n)
            if labs.min() == labs.max():
                labs[0] = 1 - labs[0]
            base = compute_eer(list(zip(raw.tolist(), labs.tolist())))[0]
            for xf in (lambda s: 2.0 * s + 3.0, np.exp, np.tanh):
                moved = compute_eer(list(zip(np.asarray(xf(raw)).tolist(), labs.tolist())))[0]
                assert abs(base - moved) <= 1e-9

    def test_single_class_raises(self):
        with pytest.raises(InputError):
            compute_eer([(0.5, 1), (0.2, 1)])
        with pytest.raises(InputError):
            compute_eer([(0.5, 0)])


class StubModel:
    """Scores trials by frame-mean closeness; keeps run_eval tests fast."""

    def embed_utterance(self, f):
        return float(np.float64(f.frames.mean()))

    def score_records(self, a, b):
        cos = -abs(a - b)
        return cos, 1.0 / (1.0 + np.exp(-cos))


def flat_fbank(value, t=40, f=8):
    return FBankMatrix(np.full((t, f), value, dtype=np.float32))


class TestScoreTrial:
    def test_real_model_symmetry(self):
        model = DattModel(TINY_CFG, seed=9)
        rng = np.random.default_rng(4)
        f1 = FBankMatrix(rng.standard_normal((700, 32)).astype(np.float32))
        f2 = FBankMatrix(rng.standard_normal((550, 32)).astype(np.float32))
        ns = NormStats(0.0, 1.0, 0.5, 0.1)
        a = score_trial(Trial(1, f1, f2), model, ns)
        b = score_trial(Trial(1, f2, f1), model, ns)
        assert abs(a.score_cos - b.score_cos) <= 1e-10
        assert abs(a.score_binary - b.score_binary) <= 1e-10
        assert abs(a.score_all - b.score_all) <= 1e-10

    def test_fusion_uses_norm_stats(self):
        model = StubModel()
        ns = NormStats(0.0, 2.0, 0.5, 0.25)
        ts = score_trial(Trial(1, flat_fbank(0.25), flat_fbank(0.25)), model, ns)
        assert ts.score_cos == 0.0
        z_cos = (ts.score_cos - 0.0) / 2.0
        z_bin = (ts.score_binary - 0.5) / 0.25
        assert_allclose(ts.score_all, 0.5 * (z_cos + z_bin), rtol=0, atol=1e-12)


class TestRunEval:
    def setup_corpus(self, tmp_path):
        paths = {}
        for name, value in [("a", 1.0), ("b", 1.1), ("c", -1.0), ("d", -1.2)]:
            p = tmp_path / f"{name}.fbank"
            write_fbank(p, flat_fbank(value))
            paths[name] = str(p)
        return paths

    def test_report_and_csv(self, tmp_path):
        paths = self.setup_corpus(tmp_path)
        trials = [
            Trial(1, paths["a"], paths["b"]),
            Trial(1, paths["c"], paths["d"]),
            Trial(0, paths["a"], paths["c"]),
            Trial(0, paths["b"], paths["d"]),
        ]
        csv_path = tmp_path / "scores.csv"
        ns = NormStats(0.0, 1.0, 0.5, 0.1)
        report = run_eval(trials, StubModel(), ns, csv_path)
        assert report["n_scored"] == 4
        assert report["n_errors"] == 0
        assert report["eer_cos"] == 0.0
        assert report["eer_binary"] == 0.0
        assert report["eer_all"] == 0.0
        with open(csv_path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["trial_idx", "label", "score_cos", "score_binary", "score_all"]
        assert [r[0] for r in rows[1:]] == ["0", "1", "2", "3"]
        assert float(rows[1][2]) == pytest.approx(-0.1, abs=1e-6)

    def test_unreadable_utterance_skipped(self, tmp_path):
        paths = self.setup_corpus(tmp_path)
        trials = [
            Trial(1, paths["a"], paths["b"]),
            Trial(1, paths["a"], str(tmp_path / "missing.fbank")),
            Trial(0, paths["a"], paths["c"]),
        ]
        report = run_eval(trials, StubModel(), NormStats(0, 1, 0, 1), tmp_path / "s.csv")
        assert report["n_scored"] == 2
        assert report["n_errors"] == 1
        assert report["errors"][0][0] == 1
        with open(tmp_path / "s.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert [r[0] for r in rows[1:]] == ["0", "2"]

    def test_corrupt_fbank_skipped(self, tmp_path):
        paths = self.setup_corpus(tmp_path)
        bad = tmp_path / "bad.fbank"
        bad.write_bytes(b"nope")
        trials = [
            Trial(1, paths["a"], paths["b"]),
            Trial(0, str(bad), paths["c"]),
            Trial(0, paths["a"], paths["c"]),
        ]
        report = run_eval(trials, StubModel(), NormStats(0, 1, 0, 1))
        assert report["n_scored"] == 2
        assert report["n_errors"] == 1

    def test_invalid_fbank_values_skip_their_own_trial(self, tmp_path):
        # well-formed files whose matrix FBankMatrix refuses: a NaN, no frames
        paths = self.setup_corpus(tmp_path)
        nan_frames = np.ones((40, 8), dtype="<f4")
        nan_frames[3, 5] = np.nan
        bad = {"nan": nan_frames, "empty": np.zeros((0, 8), dtype="<f4")}
        for name, frames in bad.items():
            header = FBNK_MAGIC + struct.pack("<III", *frames.shape, 0)
            (tmp_path / f"{name}.fbank").write_bytes(header + frames.tobytes())
        trials = [
            Trial(1, paths["a"], paths["b"]),
            Trial(0, str(tmp_path / "nan.fbank"), paths["c"]),
            Trial(0, paths["a"], paths["c"]),
            Trial(1, paths["c"], str(tmp_path / "empty.fbank")),
        ]
        report = run_eval(trials, StubModel(), NormStats(0, 1, 0, 1), tmp_path / "s.csv")
        assert report["n_scored"] == 2
        assert [idx for idx, _ in report["errors"]] == [1, 3]
        for (_, msg), name in zip(report["errors"], bad):
            assert f"{name}.fbank" in msg
        with open(tmp_path / "s.csv", newline="") as fh:
            assert [r[0] for r in list(csv.reader(fh))[1:]] == ["0", "2"]

    def test_embed_error_names_its_file_once(self, tmp_path):
        # a readable file the model refuses: 16 mel bins for a 32-bin model
        good, bad = tmp_path / "good.fbank", tmp_path / "narrow.fbank"
        rng = np.random.default_rng(0)
        write_fbank(good, FBankMatrix(rng.standard_normal((120, 32)).astype(np.float32)))
        write_fbank(bad, FBankMatrix(rng.standard_normal((120, 16)).astype(np.float32)))
        trials = [Trial(1, str(good), str(good)), Trial(0, str(good), str(bad)),
                  Trial(0, str(tmp_path / "missing.fbank"), str(good)),
                  Trial(1, str(bad), str(bad)), Trial(0, str(good), str(good))]
        report = run_eval(trials, DattModel(TINY_CFG, seed=0), NormStats(0, 1, 0, 1))
        assert [idx for idx, _ in report["errors"]] == [1, 2, 3]
        for (_, msg), name in zip(report["errors"], ["narrow", "missing", "narrow"]):
            assert msg.count(f"{name}.fbank") == 1, msg
            assert "good.fbank" not in msg

    def test_empty_trials_raise(self):
        with pytest.raises(InputError):
            run_eval([], StubModel(), NormStats(0, 1, 0, 1))

    def test_csv_rows_sorted_by_index(self, tmp_path):
        rows = [
            (2, score_trial(Trial(0, flat_fbank(0.1), flat_fbank(0.2)), StubModel(), NormStats(0, 1, 0, 1))),
            (0, score_trial(Trial(1, flat_fbank(0.3), flat_fbank(0.4)), StubModel(), NormStats(0, 1, 0, 1))),
        ]
        path = tmp_path / "out.csv"
        write_score_csv(path, rows)
        with open(path, newline="") as fh:
            got = list(csv.reader(fh))
        assert [r[0] for r in got[1:]] == ["0", "2"]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out.csv"]

    def test_csv_floats_roundtrip_exactly(self, tmp_path):
        ts = score_trial(Trial(1, flat_fbank(0.123), flat_fbank(0.456)), StubModel(), NormStats(0, 1, 0, 1))
        path = tmp_path / "r.csv"
        write_score_csv(path, [(0, ts)])
        with open(path, newline="") as fh:
            row = list(csv.reader(fh))[1]
        assert float(row[2]) == ts.score_cos
        assert float(row[3]) == ts.score_binary
        assert float(row[4]) == ts.score_all


class TestParseTrialList:
    def test_parses_labels_and_paths(self, tmp_path):
        p = tmp_path / "trials.txt"
        p.write_text("1 x.fbank y.fbank\n\n0 a.fbank b.fbank\n")
        trials = parse_trial_list(p)
        assert [t.label for t in trials] == [1, 0]
        assert trials[0].utt1 == "x.fbank"
        assert trials[1].utt2 == "b.fbank"

    def test_malformed_line_names_number(self, tmp_path):
        p = tmp_path / "trials.txt"
        p.write_text("1 x.fbank y.fbank\n1 only_two_fields\n")
        with pytest.raises(FormatError, match=":2:"):
            parse_trial_list(p)

    def test_bad_label_rejected(self, tmp_path):
        p = tmp_path / "trials.txt"
        p.write_text("2 x.fbank y.fbank\n")
        with pytest.raises(FormatError, match=":1:"):
            parse_trial_list(p)
