"""Loss, optimizer, batching, and training-loop tests."""

import json
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from dattnet import tensor as T
from dattnet.errors import ConfigError, InputError, ShapeError
from dattnet.features import FBankMatrix, generate_synthetic_corpus
from dattnet.model import DattModel
from dattnet.training import (
    SGD,
    TrainConfig,
    am_softmax_loss,
    am_softmax_prob,
    build_pair_batch,
    config_from_dict,
    config_to_dict,
    load_config,
    lr_at,
    pair_batch_losses,
    sgd_step,
    train_model,
    train_step,
)

TINY_KW = dict(
    mel_bins=32,
    channels=(4, 4, 8, 8),
    blocks_per_stage=(1, 1, 1, 1),
    num_f=8,
    num_speakers=3,
    utts_per_speaker=3,
    speakers_per_batch=2,
    crop_frames=100,
    calib_pairs=8,
    epochs=1,
    steps_per_epoch=2,
)


def tiny_cfg(**over):
    kw = dict(TINY_KW)
    kw.update(over)
    return TrainConfig(**kw)


def tiny_corpus(cfg, seed=0):
    return generate_synthetic_corpus(
        cfg.num_speakers, cfg.utts_per_speaker, seed, cfg.noise_sigma, cfg.mel_bins
    )


class TestTrainConfig:
    def test_defaults_roundtrip(self):
        cfg = TrainConfig()
        assert config_from_dict(config_to_dict(cfg)) == cfg

    def test_lambda_json_key(self):
        doc = config_to_dict(TrainConfig(lambda_=0.5))
        assert doc["lambda"] == 0.5
        assert "lambda_" not in doc
        assert config_from_dict(doc).lambda_ == 0.5

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="typo_key"):
            config_from_dict({"typo_key": 1})

    def test_validation(self):
        for bad in (
            dict(speakers_per_batch=1),
            dict(speakers_per_batch=11, num_speakers=10),
            dict(m=1.0),
            dict(m=-0.1),
            dict(s=0.0),
            dict(lambda_=-1.0),
            dict(loss_kind="hinge"),
            dict(epochs=0),
            dict(crop_frames=0),
            dict(dropout_rate=1.0),
        ):
            with pytest.raises(ConfigError):
                TrainConfig(**bad)

    def test_load_config_file(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"lambda": 2.0, "epochs": 3}))
        cfg = load_config(p)
        assert cfg.lambda_ == 2.0
        assert cfg.epochs == 3

    def test_load_config_bad_json(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text("{not json")
        with pytest.raises(ConfigError, match="JSON"):
            load_config(p)
        p.write_text("[1, 2]")
        with pytest.raises(ConfigError, match="object"):
            load_config(p)

    def test_backbone_config_fields(self):
        cfg = tiny_cfg()
        bc = cfg.backbone_config()
        assert bc.num_id == cfg.num_speakers
        assert bc.channels == (4, 4, 8, 8)


class TestPairBatch:
    def test_composition_counts(self):
        cfg = tiny_cfg()
        corpus = tiny_corpus(cfg)
        rng = np.random.default_rng(0)
        batch = build_pair_batch(corpus, cfg, rng)
        assert batch.group1.shape == (2, 100, 32)
        assert batch.group2.shape == (2, 100, 32)
        assert batch.speaker_ids.shape == (2,)
        assert len(set(batch.speaker_ids.tolist())) == 2
        labels = batch.pair_labels
        assert labels.shape == (2, 2)
        assert labels.sum() == 2.0
        assert np.array_equal(labels, np.eye(2, dtype=np.float32))

    def test_larger_batch_counts(self):
        cfg = tiny_cfg(num_speakers=8, speakers_per_batch=6, utts_per_speaker=2)
        corpus = tiny_corpus(cfg)
        batch = build_pair_batch(corpus, cfg, np.random.default_rng(1))
        total_utts = batch.group1.shape[0] + batch.group2.shape[0]
        assert total_utts == 12
        assert batch.pair_labels.size == 36
        assert batch.pair_labels.sum() == 6.0
        assert len(set(batch.speaker_ids.tolist())) == 6

    def test_groups_are_distinct_crops(self):
        cfg = tiny_cfg()
        corpus = tiny_corpus(cfg)
        batch = build_pair_batch(corpus, cfg, np.random.default_rng(2))
        assert not np.array_equal(batch.group1, batch.group2)

    def test_too_few_speakers(self):
        # a valid 5-speaker config fed a 3-speaker corpus it was not built from
        cfg = tiny_cfg(speakers_per_batch=5, num_speakers=5)
        corpus = tiny_corpus(tiny_cfg())
        with pytest.raises(ConfigError, match="speakers"):
            build_pair_batch(corpus, cfg, np.random.default_rng(0))

    def test_batches_vary_with_rng(self):
        cfg = tiny_cfg()
        corpus = tiny_corpus(cfg)
        rng = np.random.default_rng(3)
        b1 = build_pair_batch(corpus, cfg, rng)
        b2 = build_pair_batch(corpus, cfg, rng)
        assert not (
            np.array_equal(b1.group1, b2.group1) and np.array_equal(b1.group2, b2.group2)
        )


class TestLosses:
    def test_softmax_ce_matches_logsumexp_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            n, c = int(rng.integers(2, 9)), int(rng.integers(2, 7))
            z = rng.standard_normal((n, c))
            y = rng.integers(0, c, n)
            loss = T.softmax_cross_entropy(T.Tensor(z), y)
            lse = np.log(np.exp(z - z.max(axis=1, keepdims=True)).sum(axis=1)) + z.max(axis=1)
            want = float(np.mean(lse - z[np.arange(n), y]))
            assert abs(loss.item() - want) <= 1e-10

    def test_am_softmax_zero_margin_reduces_to_scaled_softmax(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            n, nf, c = int(rng.integers(2, 7)), int(rng.integers(2, 9)), int(rng.integers(2, 6))
            e = rng.standard_normal((n, nf))
            w = rng.standard_normal((nf, c))
            y = rng.integers(0, c, n)
            s = float(rng.uniform(1.0, 40.0))
            loss = am_softmax_loss(T.Tensor(e), T.Tensor(w), y, s, 0.0)
            en = e / np.linalg.norm(e, axis=1, keepdims=True)
            wn = w / np.linalg.norm(w, axis=0, keepdims=True)
            want = T.softmax_cross_entropy(T.Tensor(s * (en @ wn)), y)
            assert abs(loss.item() - want.item()) <= 1e-10

    def test_am_softmax_equal_cosine_two_class(self):
        rng = np.random.default_rng(2)
        e = rng.standard_normal((1, 8))
        col = rng.standard_normal(8)
        w = np.stack([col, col], axis=1)  # both classes at the same direction
        prob = am_softmax_prob(e[0], w.T, 0, 30.0, 0.2)
        assert abs(prob - 1.0 / (1.0 + math.exp(6.0))) <= 1e-9
        loss = am_softmax_loss(T.Tensor(e), T.Tensor(w), np.array([0]), 30.0, 0.2)
        assert abs(loss.item() - math.log(1.0 + math.exp(6.0))) <= 1e-9

    def test_am_prob_consistent_with_loss(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            nf, c = int(rng.integers(2, 9)), int(rng.integers(2, 6))
            e = rng.standard_normal((1, nf))
            w = rng.standard_normal((nf, c))
            y = int(rng.integers(0, c))
            s, m = float(rng.uniform(5, 35)), float(rng.uniform(0, 0.5))
            loss = am_softmax_loss(T.Tensor(e), T.Tensor(w), np.array([y]), s, m)
            prob = am_softmax_prob(e[0], w.T, y, s, m)
            assert abs(loss.item() + math.log(prob)) <= 1e-10

    def test_am_prob_margin_lowers_true_class(self):
        rng = np.random.default_rng(4)
        e = rng.standard_normal(6)
        w = rng.standard_normal((4, 6))
        p0 = am_softmax_prob(e, w, 1, 30.0, 0.0)
        p_m = am_softmax_prob(e, w, 1, 30.0, 0.2)
        assert p_m < p0


class TestSchedule:
    def test_endpoints_and_midpoint(self):
        assert lr_at(0, 100, 0.1) == 0.1
        assert lr_at(100, 100, 0.1) == pytest.approx(0.0, abs=1e-18)
        assert lr_at(50, 100, 0.1) == pytest.approx(0.05)

    def test_monotone_decreasing(self):
        vals = [lr_at(s, 200, 1.0) for s in range(201)]
        assert all(a >= b for a, b in zip(vals, vals[1:]))

    def test_out_of_range(self):
        with pytest.raises(InputError):
            lr_at(-1, 10, 0.1)
        with pytest.raises(InputError):
            lr_at(11, 10, 0.1)


class TestSGD:
    def test_hand_unrolled_two_steps(self):
        p = np.array([1.0])
        v = np.zeros(1)
        g = np.array([0.5])
        p, v = sgd_step(p, g, v, lr=0.1, momentum=0.9, weight_decay=0.01)
        assert_allclose(v, [0.51], rtol=0, atol=1e-15)
        assert_allclose(p, [0.949], rtol=0, atol=1e-15)
        p, v = sgd_step(p, g, v, lr=0.1, momentum=0.9, weight_decay=0.01)
        assert_allclose(v, [0.9 * 0.51 + 0.5 + 0.01 * 0.949], rtol=0, atol=1e-15)
        assert_allclose(p, [0.949 - 0.1 * (0.9 * 0.51 + 0.5 + 0.01 * 0.949)], rtol=0, atol=1e-15)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            sgd_step(np.zeros(3), np.zeros(2), np.zeros(3), 0.1, 0.9, 0.0)

    def test_class_matches_functional(self):
        cfg = tiny_cfg()
        model = DattModel(cfg.backbone_config(), seed=1)
        opt = SGD(model, cfg)
        params = opt.groups[0][0] + opt.groups[1][0]
        rng = np.random.default_rng(5)
        grads = [rng.standard_normal(p.data.shape).astype(np.float32) for p in params]
        want = {}
        for (group, base_lr), vels in zip(opt.groups, opt.velocities):
            for p, v in zip(group, vels):
                g = grads[params.index(p)]
                want[id(p)] = sgd_step(
                    p.data.copy(), g, v.copy(), base_lr * 0.5, cfg.momentum, cfg.weight_decay
                )[0]
        for p, g in zip(params, grads):
            p.grad = g
        opt.step(0.5)
        for p in params:
            assert_allclose(p.data, want[id(p)], rtol=0, atol=1e-7)

    def test_missing_grad_skipped(self):
        cfg = tiny_cfg()
        model = DattModel(cfg.backbone_config(), seed=2)
        opt = SGD(model, cfg)
        backbone, attn = opt.groups[0][0], opt.groups[1][0]
        before_attn = [p.data.copy() for p in attn]
        before_backbone = [p.data.copy() for p in backbone]
        for p in backbone:
            p.grad = np.ones_like(p.data)
        opt.step(1.0)
        for p, prev in zip(attn, before_attn):
            assert np.array_equal(p.data, prev)
        assert all(
            not np.array_equal(p.data, prev) for p, prev in zip(backbone, before_backbone)
        )

    def test_zero_grad_clears(self):
        cfg = tiny_cfg()
        model = DattModel(cfg.backbone_config(), seed=3)
        opt = SGD(model, cfg)
        for group, _ in opt.groups:
            for p in group:
                p.grad = np.zeros_like(p.data)
        opt.zero_grad()
        assert all(p.grad is None for group, _ in opt.groups for p in group)


class TestPairBatchLosses:
    def test_loss_composition(self):
        cfg = tiny_cfg()
        corpus = tiny_corpus(cfg)
        model = DattModel(cfg.backbone_config(), cfg.seed, dropout_rate=0.0)
        batch = build_pair_batch(corpus, cfg, np.random.default_rng(0))
        loss_id, loss_binary, loss_all = pair_batch_losses(model, batch, cfg, "infer")
        assert loss_binary is not None
        assert_allclose(
            loss_all.item(),
            loss_id.item() + cfg.lambda_ * loss_binary.item(),
            rtol=0,
            atol=1e-6,
        )
        assert np.isfinite(loss_all.item())

    def test_lambda_zero_skips_binary_branch(self):
        cfg = tiny_cfg(lambda_=0.0)
        corpus = tiny_corpus(cfg)
        model = DattModel(cfg.backbone_config(), cfg.seed, dropout_rate=0.0)
        batch = build_pair_batch(corpus, cfg, np.random.default_rng(1))
        loss_id, loss_binary, loss_all = pair_batch_losses(model, batch, cfg, "infer")
        assert loss_binary is None
        assert loss_all is loss_id

    def test_lambda_zero_leaves_attention_at_init(self):
        cfg = tiny_cfg(lambda_=0.0, dropout_rate=0.0)
        corpus = tiny_corpus(cfg)
        model = DattModel(cfg.backbone_config(), cfg.seed, dropout_rate=0.0)
        opt = SGD(model, cfg)
        attn_before = [p.data.copy() for p in opt.groups[1][0]]
        backbone_before = [p.data.copy() for p in opt.groups[0][0]]
        batch = build_pair_batch(corpus, cfg, np.random.default_rng(2))
        train_step(model, batch, cfg, opt, 1.0, np.random.default_rng(3))
        for p, prev in zip(opt.groups[1][0], attn_before):
            assert np.array_equal(p.data, prev)
        assert any(
            not np.array_equal(p.data, prev)
            for p, prev in zip(opt.groups[0][0], backbone_before)
        )

    def test_infer_mode_deterministic(self):
        cfg = tiny_cfg()
        corpus = tiny_corpus(cfg)
        model = DattModel(cfg.backbone_config(), cfg.seed, dropout_rate=0.5)
        batch = build_pair_batch(corpus, cfg, np.random.default_rng(4))
        a = pair_batch_losses(model, batch, cfg, "infer")
        b = pair_batch_losses(model, batch, cfg, "infer")
        assert a[2].item() == b[2].item()

    def test_plain_softmax_loss_kind(self):
        cfg = tiny_cfg(loss_kind="softmax")
        corpus = tiny_corpus(cfg)
        model = DattModel(cfg.backbone_config(), cfg.seed, dropout_rate=0.0)
        batch = build_pair_batch(corpus, cfg, np.random.default_rng(5))
        loss_id, _, _ = pair_batch_losses(model, batch, cfg, "infer")
        feats = model.forward_utterances(
            np.concatenate([batch.group1, batch.group2]), "infer"
        )
        labels = np.concatenate([batch.speaker_ids, batch.speaker_ids])
        want = T.softmax_cross_entropy(feats.logits, labels)
        assert abs(loss_id.item() - want.item()) <= 1e-6

    def test_infer_binary_loss_matches_eval_scores(self):
        # whole 500-frame crops are each exactly one eval segment, so the
        # training pair grid and score_records see the same pairs
        cfg = tiny_cfg(crop_frames=500, speakers_per_batch=3)
        corpus = tiny_corpus(cfg)
        model = DattModel(cfg.backbone_config(), cfg.seed)
        batch = build_pair_batch(corpus, cfg, np.random.default_rng(6))
        _, loss_binary, _ = pair_batch_losses(model, batch, cfg, "infer")
        r1 = [model.embed_utterance(FBankMatrix(f)) for f in batch.group1]
        r2 = [model.embed_utterance(FBankMatrix(f)) for f in batch.group2]
        scores = np.array([[model.score_records(a, b)[1] for b in r2] for a in r1])
        want = T.binary_cross_entropy(T.Tensor(scores), np.eye(3))
        # the backbone runs once on all 2B crops, and once per utterance
        assert_allclose(loss_binary.item(), want.item(), rtol=1e-5)


class TestDescent:
    def test_single_step_reduces_loss_on_batch(self):
        # small enough step that descent follows from correct gradients
        cfg = tiny_cfg(dropout_rate=0.0, lr_backbone=1e-4, lr_attention=1e-5)
        corpus = tiny_corpus(cfg)
        wins = 0
        n_seeds = 40
        for seed in range(n_seeds):
            model = DattModel(cfg.backbone_config(), seed, dropout_rate=0.0)
            opt = SGD(model, cfg)
            batch = build_pair_batch(corpus, cfg, np.random.default_rng(seed))
            before = pair_batch_losses(model, batch, cfg, "train")[2].item()
            train_step(model, batch, cfg, opt, 1.0, np.random.default_rng(seed))
            after = pair_batch_losses(model, batch, cfg, "train")[2].item()
            wins += after < before
        assert wins >= int(0.95 * n_seeds)


class TestTrainModel:
    def test_smoke_run_structure(self):
        cfg = tiny_cfg(epochs=2, steps_per_epoch=2, dropout_rate=0.0)
        model, norm_stats, log = train_model(cfg)
        assert len(log) == 4
        assert [row["step"] for row in log] == [0, 1, 2, 3]
        assert [row["epoch"] for row in log] == [0, 0, 1, 1]
        for row in log:
            assert np.isfinite(row["loss_all"])
            assert row["loss_all"] >= row["loss_id"] - 1e-12 or cfg.lambda_ == 0
        lrs = [row["lr_backbone"] for row in log]
        assert all(a >= b for a, b in zip(lrs, lrs[1:]))
        assert lrs[0] == cfg.lr_backbone
        assert norm_stats.std_cos >= 1e-6
        assert norm_stats.std_bin >= 1e-6
        assert model.cfg.num_id == cfg.num_speakers

    def test_deterministic_given_seed(self):
        cfg = tiny_cfg(dropout_rate=0.0)
        m1, ns1, log1 = train_model(cfg)
        m2, ns2, log2 = train_model(cfg)
        assert log1 == log2
        assert ns1.to_dict() == ns2.to_dict()
        for (n1, p1), (n2, p2) in zip(m1.named_params(), m2.named_params()):
            assert n1 == n2
            assert np.array_equal(p1.data, p2.data)

    def test_custom_corpus_reused(self):
        cfg = tiny_cfg()
        corpus = tiny_corpus(cfg, seed=7)
        model, ns, log = train_model(cfg, corpus=corpus)
        assert len(log) == cfg.epochs * cfg.steps_per_epoch

    def test_log_fn_called_per_step(self):
        cfg = tiny_cfg()
        seen = []
        train_model(cfg, log_fn=seen.append)
        assert len(seen) == cfg.epochs * cfg.steps_per_epoch
        assert seen[0]["step"] == 0
