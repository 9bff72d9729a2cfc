"""Log-Mel filterbank front end and a synthetic desk-scale corpus.

Audio is 16 kHz mono PCM; frames are 25 ms (400 samples) every 10 ms (160),
Hann-windowed, power spectrum from a 512-point DFT, projected onto 64
triangular mel filters spanning 0..8000 Hz, then floored natural log.

The synthetic corpus lives directly in filterbank space: each speaker is a
fixed spectral template, each utterance is that template under a slow
sinusoidal amplitude modulation plus white Gaussian noise.  Templates and
utterances draw from counter-keyed RNG streams, so the corpus is
bit-reproducible per seed regardless of generation order.
"""

from __future__ import annotations

import os
import struct
import tempfile
import wave
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, FormatError, InputError

SAMPLE_RATE = 16000
FRAME_LEN = 400
FRAME_HOP = 160
N_FFT = 512
N_MELS = 64
LOG_FLOOR = 1e-10


@dataclass
class FBankMatrix:
    """T x F matrix of log-mel energies for one utterance or segment."""

    frames: np.ndarray

    def __post_init__(self):
        self.frames = np.ascontiguousarray(self.frames, dtype=np.float32)
        if self.frames.ndim != 2 or self.frames.shape[0] < 1:
            raise InputError(f"feature matrix must be T x F with T >= 1, got {self.frames.shape}")
        if not np.isfinite(self.frames).all():
            raise InputError("feature matrix contains non-finite values")

    @property
    def n_frames(self):
        return self.frames.shape[0]

    @property
    def mel_bins(self):
        return self.frames.shape[1]


def hann_window(n):
    """Periodic Hann window."""
    return 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(n) / n)


def _hz_to_mel(f):
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def _mel_to_hz(m):
    return 700.0 * (10.0 ** (np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)


def mel_filterbank(n_mels=N_MELS, n_fft=N_FFT, sample_rate=SAMPLE_RATE, fmin=0.0, fmax=None):
    """Triangular mel filters (unnormalized) and their center frequencies.

    Returns (weights: n_mels x (n_fft//2+1), centers_hz: n_mels).
    """
    if fmax is None:
        fmax = sample_rate / 2.0
    edges_hz = _mel_to_hz(np.linspace(_hz_to_mel(fmin), _hz_to_mel(fmax), n_mels + 2))
    bin_hz = np.arange(n_fft // 2 + 1) * (sample_rate / n_fft)
    weights = np.zeros((n_mels, bin_hz.size), dtype=np.float64)
    for m in range(n_mels):
        lo, center, hi = edges_hz[m], edges_hz[m + 1], edges_hz[m + 2]
        rising = (bin_hz - lo) / (center - lo)
        falling = (hi - bin_hz) / (hi - center)
        weights[m] = np.maximum(0.0, np.minimum(rising, falling))
    return weights, edges_hz[1:-1].copy()


def compute_fbank(audio, sample_rate=SAMPLE_RATE):
    """Log-mel energies of a mono waveform."""
    if sample_rate != SAMPLE_RATE:
        raise FormatError(f"sample rate must be {SAMPLE_RATE} Hz, got {sample_rate}")
    x = np.asarray(audio, dtype=np.float64).reshape(-1)
    if x.size < FRAME_LEN:
        raise InputError(f"need at least {FRAME_LEN} samples (one frame), got {x.size}")
    n_frames = 1 + (x.size - FRAME_LEN) // FRAME_HOP
    window = hann_window(FRAME_LEN)
    mel, _ = mel_filterbank()
    out = np.empty((n_frames, N_MELS), dtype=np.float64)
    # per-frame transform keeps frames bit-identical under hop-aligned shifts
    for i in range(n_frames):
        seg = x[i * FRAME_HOP : i * FRAME_HOP + FRAME_LEN] * window
        spec = np.fft.rfft(seg, n=N_FFT)
        power = spec.real * spec.real + spec.imag * spec.imag
        out[i] = mel @ power
    return FBankMatrix(np.log(np.maximum(out, LOG_FLOOR)))


def pad_or_crop(f, target_t, mode, rng=None):
    """Fix an utterance to `target_t` frames.

    random_crop takes a uniform-start window when the input is longer;
    shorter inputs fall back to mean-frame padding so the training loop
    always sees full crops.  eval_pad appends copies of the per-utterance
    mean frame.  Exact-length input is returned unchanged.
    """
    if target_t < 1:
        raise InputError(f"target frame count must be >= 1, got {target_t}")
    if mode not in ("random_crop", "eval_pad"):
        raise InputError(f"unknown pad_or_crop mode {mode!r}")
    t = f.n_frames
    if t == target_t:
        return f
    if t > target_t:
        if mode == "eval_pad":
            return f
        if rng is None:
            raise InputError("random_crop requires an rng")
        start = int(rng.integers(0, t - target_t + 1))
        return FBankMatrix(f.frames[start : start + target_t])
    mean_frame = f.frames.mean(axis=0, dtype=np.float64).astype(np.float32)
    pad = np.broadcast_to(mean_frame, (target_t - t, f.mel_bins))
    return FBankMatrix(np.concatenate([f.frames, pad], axis=0))


# ---------------------------------------------------------------------------
# synthetic corpus


@dataclass
class Modulation:
    """Per-utterance sinusoidal envelope parameters (used by oracles)."""

    rate: float   # cycles per frame
    phase: float
    amp: float
    env_mean: float  # exact time-mean of the envelope


@dataclass
class SyntheticCorpus:
    templates: np.ndarray                       # num_speakers x F
    utterances: list = field(default_factory=list)   # [speaker][utt] -> FBankMatrix
    modulations: list = field(default_factory=list)  # [speaker][utt] -> Modulation
    seed: int = 0
    noise_sigma: float = 0.5

    @property
    def num_speakers(self):
        return self.templates.shape[0]

    @property
    def mel_bins(self):
        return self.templates.shape[1]


def _stream(*key):
    # counter-keyed stream: same key -> same draws, independent of call order
    return np.random.default_rng(np.random.SeedSequence(entropy=key))


def _duration_to_frames(dur_s):
    n_samples = int(round(dur_s * SAMPLE_RATE))
    return 1 + (n_samples - FRAME_LEN) // FRAME_HOP


def generate_synthetic_corpus(
    num_speakers,
    utts_per_speaker,
    seed,
    noise_sigma=0.5,
    mel_bins=N_MELS,
    min_dur_s=2.0,
    max_dur_s=8.0,
    mod_amp=0.2,
):
    """Desk-scale stand-in for a real training set.

    Each speaker s has a template mu_s ~ N(0, 1)^F.  Utterance frames are
    mu_s * (1 + amp * sin(2*pi*rate*t + phase)) + N(0, sigma^2), with rate
    in [0.01, 0.04] cycles/frame and duration uniform in [min, max] seconds.
    The multiplicative envelope keeps noise-free mean frames exactly
    parallel to the template.
    """
    if num_speakers < 2:
        raise ConfigError(f"need at least 2 speakers, got {num_speakers}")
    if utts_per_speaker < 2:
        raise ConfigError(f"need at least 2 utterances per speaker, got {utts_per_speaker}")
    templates = np.empty((num_speakers, mel_bins), dtype=np.float64)
    utterances, modulations = [], []
    for s in range(num_speakers):
        templates[s] = _stream(seed, 0, s).normal(size=mel_bins)
        speaker_utts, speaker_mods = [], []
        for u in range(utts_per_speaker):
            rng = _stream(seed, 1, s, u)
            dur = rng.uniform(min_dur_s, max_dur_s)
            t = _duration_to_frames(dur)
            rate = rng.uniform(0.01, 0.04)
            phase = rng.uniform(0.0, 2.0 * np.pi)
            env = 1.0 + mod_amp * np.sin(2.0 * np.pi * rate * np.arange(t) + phase)
            frames = templates[s][None, :] * env[:, None]
            if noise_sigma > 0:
                frames = frames + noise_sigma * rng.normal(size=(t, mel_bins))
            speaker_utts.append(FBankMatrix(frames))
            speaker_mods.append(Modulation(rate, phase, mod_amp, float(env.mean())))
        utterances.append(speaker_utts)
        modulations.append(speaker_mods)
    return SyntheticCorpus(templates, utterances, modulations, seed, noise_sigma)


# ---------------------------------------------------------------------------
# external formats


def atomic_write(path, write_fn):
    """Call write_fn(tmp) on a fresh temp file beside path, then rename it to path.

    On any failure the temp file is removed and path is left as it was, so
    readers never see a partial file.
    """
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)) or ".", suffix=".tmp")
    os.close(fd)
    try:
        write_fn(tmp)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


FBNK_MAGIC = b"FBNK"


def write_fbank(path, f):
    """16-byte header (magic, u32 T, u32 F, u32 reserved) + row-major LE f32."""
    frames = np.ascontiguousarray(f.frames, dtype="<f4")
    t, fbins = frames.shape
    with open(path, "wb") as fh:
        fh.write(FBNK_MAGIC)
        fh.write(struct.pack("<III", t, fbins, 0))
        fh.write(frames.tobytes())


def read_fbank(path):
    with open(path, "rb") as fh:
        header = fh.read(16)
        if len(header) != 16 or header[:4] != FBNK_MAGIC:
            raise FormatError(f"{path}: not a feature file (bad magic)")
        t, fbins, _ = struct.unpack("<III", header[4:])
        payload = fh.read()
    if len(payload) != t * fbins * 4:
        raise FormatError(
            f"{path}: payload is {len(payload)} bytes, header declares {t * fbins * 4}"
        )
    frames = np.frombuffer(payload, dtype="<f4").reshape(t, fbins)
    return FBankMatrix(frames)


def read_wav(path):
    """16 kHz mono 16-bit PCM WAV -> float samples in [-1, 1)."""
    try:
        with wave.open(str(path), "rb") as wf:
            if wf.getframerate() != SAMPLE_RATE:
                raise FormatError(f"{path}: sample rate {wf.getframerate()}, need {SAMPLE_RATE}")
            if wf.getnchannels() != 1:
                raise FormatError(f"{path}: {wf.getnchannels()} channels, need mono")
            if wf.getsampwidth() != 2:
                raise FormatError(f"{path}: {8 * wf.getsampwidth()}-bit samples, need 16-bit")
            raw = wf.readframes(wf.getnframes())
    except wave.Error as e:
        raise FormatError(f"{path}: {e}") from e
    return np.frombuffer(raw, dtype="<i2").astype(np.float64) / 32768.0
