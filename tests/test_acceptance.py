"""Acceptance suite: one test per release criterion.

Each test prints the measured numbers it judged, so a failure shows the
margin, and `pytest -v` gives one verdict line per criterion.
"""

import json
import math
import time

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from dattnet import tensor as T
from dattnet.attention import mutual_attention, self_attention
from dattnet.backbone import BackboneConfig
from dattnet.cli import main
from dattnet.evaluation import Trial, compute_eer, run_eval, score_trial, segment_utterance
from dattnet.features import FBankMatrix, generate_synthetic_corpus
from dattnet.gradcheck import TOLERANCE, run_gradcheck
from dattnet.model import DattModel, UtteranceRecord
from dattnet.scoring import (
    BinaryHeadParams,
    NormStats,
    binary_head_scores,
    fuse_scores,
    pair_difference_product,
)
from dattnet.training import TrainConfig, config_from_dict, train_model
from oracles import am_softmax_prob, batch_norm_narrow, pool2d_masked

TINY_MODEL = BackboneConfig(
    mel_bins=16, channels=(2, 2, 4, 4), blocks_per_stage=(1, 1, 1, 1), num_f=4, num_id=3
)

TINY_RUN = {
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
    "seed": 5,
}


def test_c01_gradient_integrity():
    report = run_gradcheck(seed=0)
    for line in report.lines():
        print(line)
    assert report.passed
    assert len(report.unit_errors) >= 8
    for required in ("attention_self", "attention_mutual", "sigmoid_head"):
        assert report.unit_errors[required] < TOLERANCE
    assert report.max_unit_error < TOLERANCE
    assert report.max_model_error < TOLERANCE
    assert report.runtime_s < 120.0


def test_c02_attention_weights_are_column_stochastic():
    rng = np.random.default_rng(202)
    worst_sum = 0.0
    for _ in range(1000):
        tp = int(rng.integers(1, 9))
        nf = int(rng.integers(1, 17))
        scale = 10.0 ** rng.uniform(-2, 2)
        f_att = T.Tensor(rng.normal(size=(tp, nf)) * scale)
        f_id = T.Tensor(rng.normal(size=(tp, nf)))
        f_self_2 = T.Tensor(rng.normal(size=nf) * scale)
        w_self, _ = self_attention(f_att, f_id)
        w_mutual, _ = mutual_attention(f_att, f_id, f_self_2)
        for w in (w_self.data, w_mutual.data):
            assert (w >= 0.0).all()
            sums = w.sum(axis=0)
            worst_sum = max(worst_sum, float(np.abs(sums - 1.0).max()))
    print(f"worst column-sum deviation {worst_sum:.2e}")
    assert worst_sum <= 1e-5

    # time-constant activations spread weight uniformly
    worst_uni = 0.0
    for _ in range(50):
        tp = int(rng.integers(1, 9))
        nf = int(rng.integers(1, 17))
        f_att = T.Tensor(np.tile(rng.normal(size=(1, nf)), (tp, 1)))
        f_id = T.Tensor(rng.normal(size=(tp, nf)))
        w_self, _ = self_attention(f_att, f_id)
        w_mutual, _ = mutual_attention(f_att, f_id, T.Tensor(rng.normal(size=nf)))
        for w in (w_self.data, w_mutual.data):
            worst_uni = max(worst_uni, float(np.abs(w - 1.0 / tp).max()))
    print(f"worst uniformity deviation {worst_uni:.2e}")
    assert worst_uni <= 1e-6


def loop_self_attention(f_att, f_id):
    tp, nf = f_att.shape
    w = np.empty((tp, nf))
    f_self = np.empty(nf)
    for c in range(nf):
        mean_c = sum(f_att[t, c] for t in range(tp)) / tp
        col = [f_att[t, c] * mean_c for t in range(tp)]
        mx = max(col)
        ex = [math.exp(v - mx) for v in col]
        z = sum(ex)
        for t in range(tp):
            w[t, c] = ex[t] / z
        f_self[c] = sum(w[t, c] * f_id[t, c] for t in range(tp))
    return w, f_self


def loop_mutual_attention(f_att, f_id, f_self_2):
    tp, nf = f_att.shape
    w = np.empty((tp, nf))
    f_mutual = np.empty(nf)
    for c in range(nf):
        col = [f_att[t, c] * f_self_2[c] for t in range(tp)]
        mx = max(col)
        ex = [math.exp(v - mx) for v in col]
        z = sum(ex)
        for t in range(tp):
            w[t, c] = ex[t] / z
        f_mutual[c] = sum(w[t, c] * f_id[t, c] for t in range(tp))
    return w, f_mutual


def loop_binary_score(d, params):
    st = params.bn.state
    acc = float(params.fc.bias.data[0])
    for c in range(d.size):
        xn = (d[c] - st.running_mean[c]) / math.sqrt(st.running_var[c] + st.eps)
        acc += (xn * st.gamma.data[c] + st.beta.data[c]) * params.fc.weight.data[c, 0]
    return 1.0 / (1.0 + math.exp(-acc))


def test_c03_attention_and_head_match_loop_oracles():
    rng = np.random.default_rng(303)
    worst = 0.0
    for _ in range(100):
        tp = int(rng.integers(1, 9))
        nf = int(rng.integers(1, 17))
        f_att = rng.normal(size=(tp, nf))
        f_id = rng.normal(size=(tp, nf))
        f_self_2 = rng.normal(size=nf)

        w, f_self = self_attention(T.Tensor(f_att), T.Tensor(f_id))
        ow, of = loop_self_attention(f_att, f_id)
        assert_allclose(w.data, ow, rtol=1e-6, atol=1e-6)
        assert_allclose(f_self.data, of, rtol=1e-6, atol=1e-6)
        worst = max(worst, float(np.abs(w.data - ow).max()))

        w, f_mutual = mutual_attention(T.Tensor(f_att), T.Tensor(f_id), T.Tensor(f_self_2))
        ow, of = loop_mutual_attention(f_att, f_id, f_self_2)
        assert_allclose(w.data, ow, rtol=1e-6, atol=1e-6)
        assert_allclose(f_mutual.data, of, rtol=1e-6, atol=1e-6)

        params = BinaryHeadParams(rng, nf, dropout_rate=0.5, dtype=np.float64)
        st = params.bn.state
        st.running_mean[:] = rng.normal(size=nf)
        st.running_var[:] = 0.5 + rng.random(nf)
        st.gamma.data[:] = rng.normal(size=nf)
        st.beta.data[:] = rng.normal(size=nf)
        d = rng.normal(size=nf)
        got = float(binary_head_scores(T.Tensor(d[None, :]), params, "infer").data[0])
        want = loop_binary_score(d, params)
        assert_allclose(got, want, rtol=1e-6, atol=1e-6)
    print(f"worst loop-oracle deviation {worst:.2e}")


def test_c04_margin_softmax_identities():
    rng = np.random.default_rng(404)
    s, m = 30.0, 0.2

    # zero margin reduces to a softmax over scaled cosines
    worst = 0.0
    for _ in range(100):
        nf = int(rng.integers(2, 9))
        nc = int(rng.integers(2, 7))
        e = rng.normal(size=nf)
        w = rng.normal(size=(nc, nf))
        label = int(rng.integers(nc))
        cos = (w @ e) / (np.linalg.norm(w, axis=1) * np.linalg.norm(e))
        z = s * cos
        z -= z.max()
        p = np.exp(z)
        want = p[label] / p.sum()
        got = am_softmax_prob(e, w, label, s, 0.0)
        worst = max(worst, abs(got - want))
    print(f"zero-margin worst deviation {worst:.2e}")
    assert worst <= 1e-10

    # equal cosine to both classes puts the margin fully in charge
    want = 1.0 / (1.0 + math.exp(s * m))
    worst = 0.0
    for _ in range(100):
        theta = rng.uniform(0.1, math.pi / 2 - 0.1)
        r1, r2 = 0.5 + rng.random(), 0.5 + rng.random()
        w = np.array(
            [
                [r1 * math.cos(theta), r1 * math.sin(theta)],
                [r2 * math.cos(theta), -r2 * math.sin(theta)],
            ]
        )
        e = np.array([1.0, 0.0]) * (0.5 + rng.random())
        got = am_softmax_prob(e, w, 0, s, m)
        worst = max(worst, abs(got - want))
    print(f"equal-cosine posterior {want:.6f}, worst deviation {worst:.2e}")
    assert worst <= 1e-9


def test_c05_scores_are_order_symmetric():
    rng = np.random.default_rng(505)
    nf = 8
    params = BinaryHeadParams(rng, nf, dropout_rate=0.5, dtype=np.float64)
    st = params.bn.state
    st.running_mean[:] = rng.normal(size=nf)
    st.running_var[:] = 0.5 + rng.random(nf)
    st.gamma.data[:] = rng.normal(size=nf)
    st.beta.data[:] = rng.normal(size=nf)
    for _ in range(200):
        def binary_score(s1, s2, m1, m2):
            x = pair_difference_product(s1, s2, m1, m2)
            return float(binary_head_scores(T.reshape(x, (1, -1)), params).data[0])

        # (f_self, f_mutual) of utterance 1, then of utterance 2
        s1, m1, s2, m2 = (T.Tensor(rng.normal(size=nf)) for _ in range(4))
        fwd = binary_score(s1, s2, m1, m2)
        rev = binary_score(s2, s1, m2, m1)
        assert rev == fwd  # sign cancellation is exact

    model = DattModel(TINY_MODEL, seed=3)
    ns = NormStats(0.1, 0.8, 0.5, 0.2)
    fields = ("score_cos", "score_binary", "score_all")
    worst_by = dict.fromkeys(fields, 0.0)
    t0 = time.perf_counter()
    for _ in range(200):
        t1, t2 = (int(rng.integers(150, 701)) for _ in range(2))
        u1 = FBankMatrix(rng.normal(size=(t1, 16)).astype(np.float32))
        u2 = FBankMatrix(rng.normal(size=(t2, 16)).astype(np.float32))
        fwd = score_trial(Trial(1, u1, u2), model, ns)
        rev = score_trial(Trial(1, u2, u1), model, ns)
        for name in fields:
            dev = abs(getattr(fwd, name) - getattr(rev, name))
            worst_by[name] = max(worst_by[name], dev)
    worst = max(worst_by.values())
    per_score = ", ".join(f"{name} {w:.2e}" for name, w in worst_by.items())
    print(f"worst swap deviation {worst:.2e} ({per_score}; {time.perf_counter() - t0:.1f}s)")
    assert worst <= 1e-10


def oracle_eer(scores):
    """O(n^2) enumeration of every threshold with linear interpolation."""
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


def test_c06_eer_matches_enumeration_oracle():
    rng = np.random.default_rng(606)
    worst = 0.0
    for k in range(1000):
        n = int(rng.integers(2, 51))
        labels = np.zeros(n, dtype=int)
        labels[: int(rng.integers(1, n))] = 1
        rng.shuffle(labels)
        if k % 3 == 0:
            # coarse grid forces ties between and within classes
            s = rng.integers(0, 6, size=n).astype(np.float64)
        else:
            s = rng.normal(size=n)
        scores = list(zip(s.tolist(), labels.tolist()))
        eer, _ = compute_eer(scores)
        want = oracle_eer(scores)
        worst = max(worst, abs(eer - want))
        assert abs(eer - want) <= 1e-9

        # rank statistic: strictly increasing transforms change nothing
        for tf in (lambda v: math.exp(v / 10.0), lambda v: 2.5 * v + 1.0):
            eer_t, _ = compute_eer([(tf(v), lab) for v, lab in scores])
            assert abs(eer_t - eer) <= 1e-9
    print(f"worst oracle deviation {worst:.2e}")


def test_c07_segmentation_protocol():
    rng = np.random.default_rng(707)

    f = FBankMatrix(rng.normal(size=(700, 16)).astype(np.float32))
    segs = segment_utterance(f)
    assert len(segs) == 3
    for seg, start in zip(segs, (0, 100, 200)):
        assert_array_equal(seg.frames, f.frames[start : start + 500])

    f = FBankMatrix(rng.normal(size=(400, 16)).astype(np.float32))
    (seg,) = segment_utterance(f)
    assert seg.frames.shape == (500, 16)
    assert_array_equal(seg.frames[:400], f.frames)
    mean_frame = seg.frames[400]
    assert_allclose(mean_frame, f.frames.mean(axis=0), rtol=1e-6, atol=1e-7)
    assert_array_equal(seg.frames[400:], np.tile(mean_frame, (100, 1)))

    (seg,) = segment_utterance(FBankMatrix(rng.normal(size=(500, 16)).astype(np.float32)))
    assert seg.frames.shape == (500, 16)

    # averaging over the segment grid equals direct pair enumeration
    model = DattModel(TINY_MODEL, seed=3)
    u1 = FBankMatrix(rng.normal(size=(700, 16)).astype(np.float32))  # 3 segments
    u2 = FBankMatrix(rng.normal(size=(600, 16)).astype(np.float32))  # 2 segments
    r1 = model.embed_utterance(u1)
    r2 = model.embed_utterance(u2)
    assert (r1.embedding.shape[0], r2.embedding.shape[0]) == (3, 2)
    cos, binary = model.score_records(r1, r2)

    def single(r, k):
        return UtteranceRecord(
            r.f_id[k : k + 1], r.f_att_mutual[k : k + 1], r.f_self[k : k + 1],
            r.embedding[k : k + 1],
        )

    pair_cos = np.empty((3, 2))
    pair_bin = np.empty((3, 2))
    for i in range(3):
        for j in range(2):
            pair_cos[i, j], pair_bin[i, j] = model.score_records(single(r1, i), single(r2, j))
    assert cos == pair_cos.mean()
    assert binary == pair_bin.mean()
    print(f"grid mean cos {cos:.6f} over {pair_cos.size} segment pairs")


def held_out_trials(cfg, n_trials, extra=5):
    """Trial list over utterances the training run never saw.

    Utterance streams are keyed by (speaker, index), so regenerating the
    corpus with more utterances per speaker leaves the training ones
    bit-identical and appends fresh ones.
    """
    full = generate_synthetic_corpus(
        cfg.num_speakers, cfg.utts_per_speaker + extra, cfg.seed,
        cfg.noise_sigma, cfg.mel_bins,
    )
    held = [
        full.utterances[s][u]
        for s in range(cfg.num_speakers)
        for u in range(cfg.utts_per_speaker, cfg.utts_per_speaker + extra)
    ]
    rng = np.random.default_rng(np.random.SeedSequence(entropy=(cfg.seed, 6)))
    trials = []
    for k in range(n_trials):
        if k % 2 == 0:
            s = int(rng.integers(cfg.num_speakers))
            u1, u2 = rng.choice(extra, size=2, replace=False)
            trials.append(Trial(1, held[s * extra + u1], held[s * extra + u2]))
        else:
            s1, s2 = rng.choice(cfg.num_speakers, size=2, replace=False)
            trials.append(
                Trial(
                    0,
                    held[s1 * extra + int(rng.integers(extra))],
                    held[s2 * extra + int(rng.integers(extra))],
                )
            )
    return trials


def test_c08_end_to_end_synthetic_run():
    cfg = TrainConfig.desk(seed=7)
    assert cfg.num_speakers == 10 and cfg.noise_sigma == 0.5

    t0 = time.perf_counter()
    model, ns, log = train_model(cfg)
    report = run_eval(held_out_trials(cfg, 200), model, ns)
    elapsed = time.perf_counter() - t0

    first = np.mean([r["loss_all"] for r in log if r["epoch"] == 0])
    last_epoch = max(r["epoch"] for r in log)
    last = np.mean([r["loss_all"] for r in log if r["epoch"] == last_epoch])
    print(
        f"{elapsed:.0f}s, loss_all epoch0 {first:.3f} -> epoch{last_epoch} {last:.3f} "
        f"({last / first:.2%}), eer_cos {report['eer_cos']:.3f} "
        f"eer_binary {report['eer_binary']:.3f} eer_all {report['eer_all']:.3f}"
    )
    assert elapsed <= 600.0
    assert report["n_scored"] == 200
    assert last <= 0.5 * first
    assert report["eer_all"] <= 0.15
    assert report["eer_all"] <= max(report["eer_cos"], report["eer_binary"]) + 0.005


def test_c09_deterministic_reruns_are_bit_identical(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("DATT_DETERMINISTIC", "1")
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(TINY_RUN))
    corpus = tmp_path / "corpus"
    assert main(["synth", "--config", str(cfg_path), "--out", str(corpus)]) == 0

    artifacts = []
    for tag in ("a", "b"):
        ckpt = tmp_path / f"{tag}.ckpt"
        csv_out = tmp_path / f"{tag}.csv"
        assert main(
            ["train", "--config", str(cfg_path), "--checkpoint", str(ckpt)]
        ) == 0
        assert main(
            ["eval", "--checkpoint", str(ckpt), "--trials", str(corpus / "trials.txt"),
             "--out", str(csv_out)]
        ) == 0
        artifacts.append((ckpt.read_bytes(), csv_out.read_bytes()))
    assert artifacts[0][0] == artifacts[1][0]  # checkpoint bytes
    assert artifacts[0][1] == artifacts[1][1]  # score CSV bytes
    print(f"checkpoint {len(artifacts[0][0])} bytes, csv {len(artifacts[0][1])} bytes")


def test_c09_training_bits_match_narrow_oracles(monkeypatch):
    # the engine's wide-row batch norm and scatter pool backward must train
    # to the very bits of the narrow-row oracles: losses, every parameter,
    # every running statistic and the calibrated norm stats
    cfg = config_from_dict(TINY_RUN)
    assert cfg.epochs * cfg.steps_per_epoch == 2

    def train():
        model, norm_stats, log = train_model(cfg)
        state = {name: p.data for name, p in model.named_params()}
        for name, bn in model.named_bn_states():
            state[f"{name}.running_mean"] = bn.running_mean
            state[f"{name}.running_var"] = bn.running_var
        losses = np.array([[r["loss_id"], r["loss_binary"], r["loss_all"]] for r in log])
        return losses, state, norm_stats

    engine = train()
    monkeypatch.setattr(T, "batch_norm", batch_norm_narrow)
    monkeypatch.setattr(T, "pool2d", pool2d_masked)
    oracle = train()

    assert_array_equal(engine[0].view(np.uint64), oracle[0].view(np.uint64))
    assert engine[1].keys() == oracle[1].keys()
    for name, got in engine[1].items():
        want = oracle[1][name]
        assert got.dtype == want.dtype == np.float32, name
        assert_array_equal(got.view(np.uint32), want.view(np.uint32), err_msg=name)
    assert engine[2] == oracle[2]
    print(f"{len(engine[1])} arrays and {engine[0].size} losses bit-identical")


def expected_trunk_extent(n):
    """Extent recurrence shared by every halving layer (k=3, s=2, p=1)."""
    return (n + 2 - 3) // 2 + 1


def test_c10_shape_ledger():
    def predict(t, f):
        t, f = expected_trunk_extent(t), expected_trunk_extent(f)  # entry pool
        for stage in (1, 2, 3):
            if stage == 2:
                t = expected_trunk_extent(t)  # time-only pool
            t, f = expected_trunk_extent(t), expected_trunk_extent(f)
        return t, f

    rng = np.random.default_rng(1010)
    for mel in (32, 64):
        cfg = BackboneConfig(
            mel_bins=mel, channels=(2, 2, 4, 4), blocks_per_stage=(1, 1, 1, 1),
            num_f=4, num_id=3,
        )
        model = DattModel(cfg, seed=0)
        for t in range(100, 601, 50):
            x = T.Tensor(rng.normal(size=(1, t, mel, 1)).astype(np.float32))
            h = model.backbone.trunk(model.backbone.pre(x, "infer"), "infer")
            tp, fp = predict(t, mel)
            assert h.data.shape == (1, tp, fp, 4), (t, mel, h.data.shape)

    paper = BackboneConfig(
        mel_bins=64, channels=(64, 128, 256, 512), blocks_per_stage=(2, 2, 2, 2),
        num_f=256, num_id=10,
    )
    model = DattModel(paper, seed=0)
    x = T.Tensor(rng.normal(size=(1, 300, 64, 1)).astype(np.float32))
    h = model.backbone.trunk(model.backbone.pre(x, "infer"), "infer")
    assert h.data.shape == (1, 10, 4, 512)
    print(f"paper-width trunk output {h.data.shape[1:]}")
