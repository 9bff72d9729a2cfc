"""Front-end and synthetic-corpus checks.

The mel argmax test recomputes filter center frequencies from the HTK
formula independently; the corpus mean test uses the law-of-large-numbers
bound with the modulation bias read off a noise-free corpus of the same seed.
"""

import os
import stat
import wave

import numpy as np
import pytest

from dattnet import features as F
from dattnet.errors import ConfigError, FormatError, InputError


def write_wav(path, samples, rate=16000):
    pcm = np.clip(np.asarray(samples) * 32768.0, -32768, 32767).astype("<i2")
    with wave.open(str(path), "wb") as wf:
        wf.setnchannels(1)
        wf.setsampwidth(2)
        wf.setframerate(rate)
        wf.writeframes(pcm.tobytes())


class TestComputeFbank:
    def test_frame_count_one_second(self):
        f = F.compute_fbank(np.zeros(16000))
        assert f.frames.shape == (98, 64)

    def test_zero_audio_hits_log_floor(self):
        f = F.compute_fbank(np.zeros(1000))
        np.testing.assert_allclose(f.frames, np.log(1e-10), rtol=1e-6)

    def test_1khz_sine_argmax_at_nearest_center(self):
        t = np.arange(16000) / 16000.0
        f = F.compute_fbank(0.5 * np.sin(2 * np.pi * 1000.0 * t))
        # independent center-frequency computation from the HTK mel formula
        mel = lambda hz: 2595.0 * np.log10(1.0 + hz / 700.0)
        inv = lambda m: 700.0 * (10.0 ** (m / 2595.0) - 1.0)
        centers = inv(np.linspace(mel(0.0), mel(8000.0), 66))[1:-1]
        expect = int(np.argmin(np.abs(centers - 1000.0)))
        assert int(f.frames[0].argmax()) == expect

    def test_shift_by_hop_drops_first_frame_bitwise(self):
        rng = np.random.default_rng(0)
        x = rng.normal(scale=0.1, size=16000)
        a = F.compute_fbank(x).frames
        b = F.compute_fbank(x[160:]).frames
        assert b.shape[0] == a.shape[0] - 1
        assert np.array_equal(b, a[1:])

    def test_deterministic(self):
        x = np.random.default_rng(1).normal(scale=0.1, size=8000)
        assert np.array_equal(F.compute_fbank(x).frames, F.compute_fbank(x).frames)

    def test_too_short_rejected(self):
        with pytest.raises(InputError):
            F.compute_fbank(np.zeros(399))


class TestPadOrCrop:
    def _mat(self, t, f=8, seed=0):
        return F.FBankMatrix(np.random.default_rng(seed).normal(size=(t, f)))

    def test_random_crop_bounds(self):
        f = self._mat(700)
        starts = set()
        for trial in range(50):
            rng = np.random.default_rng(trial)
            out = F.pad_or_crop(f, 500, "random_crop", rng)
            assert out.n_frames == 500
            # recover the start by matching the first row
            start = int(np.nonzero((f.frames == out.frames[0]).all(axis=1))[0][0])
            assert 0 <= start <= 200
            np.testing.assert_array_equal(out.frames, f.frames[start : start + 500])
            starts.add(start)
        assert len(starts) > 5, "seeded starts should vary"

    def test_eval_pad_appends_mean_frame(self):
        f = self._mat(400)
        out = F.pad_or_crop(f, 500, "eval_pad")
        assert out.n_frames == 500
        np.testing.assert_array_equal(out.frames[:400], f.frames)
        mean = f.frames.mean(axis=0, dtype=np.float64).astype(np.float32)
        for row in range(400, 500):
            np.testing.assert_array_equal(out.frames[row], mean)

    def test_exact_length_unchanged(self):
        f = self._mat(500)
        out = F.pad_or_crop(f, 500, "random_crop", np.random.default_rng(0))
        np.testing.assert_array_equal(out.frames, f.frames)

    def test_random_crop_short_falls_back_to_pad(self):
        f = self._mat(300)
        out = F.pad_or_crop(f, 500, "random_crop", np.random.default_rng(0))
        assert out.n_frames == 500
        mean = f.frames.mean(axis=0, dtype=np.float64).astype(np.float32)
        np.testing.assert_array_equal(out.frames[300], mean)

    def test_bad_target(self):
        with pytest.raises(InputError):
            F.pad_or_crop(self._mat(10), 0, "eval_pad")


class TestSyntheticCorpus:
    def test_same_seed_bit_identical(self):
        a = F.generate_synthetic_corpus(3, 2, seed=11)
        b = F.generate_synthetic_corpus(3, 2, seed=11)
        assert np.array_equal(a.templates, b.templates)
        for sa, sb in zip(a.utterances, b.utterances):
            for ua, ub in zip(sa, sb):
                assert np.array_equal(ua.frames, ub.frames)

    def test_different_seed_differs(self):
        a = F.generate_synthetic_corpus(3, 2, seed=11)
        b = F.generate_synthetic_corpus(3, 2, seed=12)
        assert not np.array_equal(a.templates, b.templates)

    def test_mean_frame_within_lln_bound(self):
        # frozen seed (verified against the 3-sigma bound over all 1024
        # bin draws).  An utterance draws its noise last, so the noise-free
        # corpus of the same seed holds the same envelopes: its mean frame
        # is mu * env_mean, and env_mean is that frame's projection on mu.
        corpus = F.generate_synthetic_corpus(4, 4, seed=11, noise_sigma=0.5)
        clean = F.generate_synthetic_corpus(4, 4, seed=11, noise_sigma=0.0)
        for s in range(4):
            for u in range(4):
                utt = corpus.utterances[s][u]
                mu = corpus.templates[s]
                clean_mean = clean.utterances[s][u].frames.mean(axis=0, dtype=np.float64)
                env_mean = clean_mean @ mu / (mu @ mu)
                t = utt.n_frames
                noise_bound = 3 * corpus.noise_sigma / np.sqrt(t)
                mean = utt.frames.mean(axis=0, dtype=np.float64)
                assert np.abs(mean - mu * env_mean).max() < noise_bound
                bound = noise_bound + np.abs(mu) * abs(env_mean - 1.0)
                assert (np.abs(mean - mu) <= bound).all()

    def test_noise_free_nearest_template_is_perfect(self):
        corpus = F.generate_synthetic_corpus(2, 5, seed=3, noise_sigma=0.0)
        for s in range(2):
            for utt in corpus.utterances[s]:
                mean = utt.frames.mean(axis=0, dtype=np.float64)
                sims = [
                    mean @ tpl / (np.linalg.norm(mean) * np.linalg.norm(tpl))
                    for tpl in corpus.templates
                ]
                assert int(np.argmax(sims)) == s

    def test_noise_free_within_speaker_cosine_is_one(self):
        corpus = F.generate_synthetic_corpus(3, 3, seed=4, noise_sigma=0.0)
        for s in range(3):
            means = [u.frames.mean(axis=0, dtype=np.float64) for u in corpus.utterances[s]]
            for i in range(3):
                for j in range(i + 1, 3):
                    cos = means[i] @ means[j] / (np.linalg.norm(means[i]) * np.linalg.norm(means[j]))
                    assert abs(cos - 1.0) < 1e-9

    def test_durations_in_range(self):
        corpus = F.generate_synthetic_corpus(3, 4, seed=5)
        lo = F._duration_to_frames(2.0)
        hi = F._duration_to_frames(8.0)
        for s in corpus.utterances:
            for u in s:
                assert lo <= u.n_frames <= hi

    def test_invalid_counts(self):
        with pytest.raises(ConfigError):
            F.generate_synthetic_corpus(1, 5, seed=0)
        with pytest.raises(ConfigError):
            F.generate_synthetic_corpus(5, 1, seed=0)


class TestExternalFormats:
    def test_fbank_roundtrip_bitwise(self, tmp_path):
        f = F.FBankMatrix(np.random.default_rng(6).normal(size=(37, 64)))
        p = tmp_path / "u.fbnk"
        F.write_fbank(p, f)
        g = F.read_fbank(p)
        assert np.array_equal(f.frames, g.frames)

    def test_fbank_bad_magic(self, tmp_path):
        p = tmp_path / "bad.fbnk"
        p.write_bytes(b"JUNK" + b"\x00" * 20)
        with pytest.raises(FormatError):
            F.read_fbank(p)

    def test_fbank_truncated(self, tmp_path):
        f = F.FBankMatrix(np.ones((10, 4)))
        p = tmp_path / "u.fbnk"
        F.write_fbank(p, f)
        p.write_bytes(p.read_bytes()[:-8])
        with pytest.raises(FormatError):
            F.read_fbank(p)

    def test_atomic_write_that_raises_keeps_the_target(self, tmp_path):
        p = tmp_path / "t.txt"
        p.write_bytes(b"old")
        with pytest.raises(RuntimeError):
            with F.atomic_write(p, "wb") as fh:
                fh.write(b"partial")
                raise RuntimeError("mid-write")
        assert p.read_bytes() == b"old"
        assert list(tmp_path.glob("*.tmp")) == []

    def test_atomic_write_that_completes_replaces_the_target(self, tmp_path):
        p = tmp_path / "t.txt"
        p.write_bytes(b"old")
        with F.atomic_write(p, "w", newline="") as fh:
            fh.write("new\r\n")
        assert p.read_bytes() == b"new\r\n"
        assert [q.name for q in tmp_path.iterdir()] == ["t.txt"]

    def test_atomic_write_through_a_symlink_replaces_its_target(self, tmp_path):
        (tmp_path / "real").mkdir()
        target, link = tmp_path / "real" / "scores.csv", tmp_path / "out.csv"
        target.write_text("old")
        link.symlink_to(target)
        with F.atomic_write(link, "w") as fh:
            fh.write("new")
        assert link.is_symlink() and os.readlink(link) == str(target)
        assert target.read_text() == "new"
        assert list((tmp_path / "real").glob("*.tmp")) == []

    def test_atomic_write_permissions_follow_open(self, tmp_path):
        # a new file gets 0o666 less the umask; an existing one keeps its mode
        fresh, kept = tmp_path / "fresh.csv", tmp_path / "kept.csv"
        kept.write_text("old")
        kept.chmod(0o640)
        umask = os.umask(0o022)
        try:
            for p in (fresh, kept):
                with F.atomic_write(p, "w") as fh:
                    fh.write("new")
        finally:
            os.umask(umask)
        assert stat.S_IMODE(fresh.stat().st_mode) == 0o644
        assert stat.S_IMODE(kept.stat().st_mode) == 0o640
        assert kept.read_text() == "new"

    def test_fbank_into_missing_dir_leaves_nothing(self, tmp_path):
        with pytest.raises(OSError):
            F.write_fbank(tmp_path / "missing" / "u.fbnk", F.FBankMatrix(np.ones((3, 4))))
        assert list(tmp_path.iterdir()) == []

    def test_wav_roundtrip(self, tmp_path):
        rng = np.random.default_rng(7)
        x = rng.uniform(-0.5, 0.5, size=16000)
        p = tmp_path / "a.wav"
        write_wav(p, x)
        y = F.read_wav(p)
        np.testing.assert_allclose(y, x, atol=1.0 / 32768)
        f = F.compute_fbank(y)
        assert f.frames.shape == (98, 64)

    def test_wav_wrong_rate(self, tmp_path):
        p = tmp_path / "a.wav"
        write_wav(p, np.zeros(8000), rate=8000)
        with pytest.raises(FormatError):
            F.read_wav(p)

    def test_wav_stereo_rejected(self, tmp_path):
        p = tmp_path / "a.wav"
        with wave.open(str(p), "wb") as wf:
            wf.setnchannels(2)
            wf.setsampwidth(2)
            wf.setframerate(16000)
            wf.writeframes(b"\x00" * 4000)
        with pytest.raises(FormatError):
            F.read_wav(p)

    def test_wav_not_riff(self, tmp_path):
        p = tmp_path / "a.wav"
        p.write_bytes(b"not audio at all")
        with pytest.raises(FormatError):
            F.read_wav(p)
