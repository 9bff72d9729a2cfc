"""Model composition and checkpoint container tests."""

import json
from dataclasses import asdict, fields

import numpy as np
import pytest
from numpy.testing import assert_allclose

from dattnet import model as model_mod
from dattnet import tensor as T
from dattnet.backbone import BackboneConfig, prefix_reach, stage1_reach
from dattnet.codec import from_json
from dattnet.errors import FormatError, NumericError
from dattnet.features import FBankMatrix, generate_synthetic_corpus
from dattnet.model import (
    DattModel,
    ModelConfig,
    UtteranceRecord,
    _checkpoint_entries,
    _layout,
    _param_bytes_floor,
    load_checkpoint,
    save_checkpoint,
)
from dattnet.scoring import NormStats
from dattnet.training import TrainConfig, build_pair_batch, pair_batch_losses
from oracles import backbone_unfolded, embed_utterance_per_segment

TINY_CFG = BackboneConfig(
    mel_bins=32, channels=(4, 4, 8, 8), blocks_per_stage=(1, 1, 1, 1), num_f=8, num_id=3
)


def tiny_model(seed=5, **kw):
    return DattModel(TINY_CFG, seed=seed, **kw)


def entry_arrays(m):
    """name -> the array each checkpoint entry stores."""
    return {name: getattr(owner, attr) for name, owner, attr in _checkpoint_entries(m)}


def random_fbank(rng, t, f=32):
    return FBankMatrix(rng.standard_normal((t, f)).astype(np.float32))


def perturb_running_stats(model, rng):
    """Run one train-mode forward so BN buffers leave their init values."""
    frames = rng.standard_normal((2, 120, TINY_CFG.mel_bins)).astype(np.float32)
    model.forward_utterances(frames, "train")


def rewrite_manifest(path, mutate):
    """Load, edit, and re-emit the manifest while keeping the payload."""
    with open(path, "rb") as fh:
        magic = fh.read(8)
        doc_len = int.from_bytes(fh.read(8), "little")
        manifest = json.loads(fh.read(doc_len))
        payload = fh.read()
    mutate(manifest)
    doc = json.dumps(manifest).encode()
    with open(path, "wb") as fh:
        fh.write(magic)
        fh.write(len(doc).to_bytes(8, "little"))
        fh.write(doc)
        fh.write(payload)


class TestModelBasics:
    def test_same_seed_same_init(self):
        m1, m2 = tiny_model(3), tiny_model(3)
        for (n1, p1), (n2, p2) in zip(m1.named_params(), m2.named_params()):
            assert n1 == n2
            assert np.array_equal(p1.data, p2.data)

    def test_different_seed_differs(self):
        m1, m2 = tiny_model(3), tiny_model(4)
        diffs = [
            not np.array_equal(p1.data, p2.data)
            for (_, p1), (_, p2) in zip(m1.named_params(), m2.named_params())
            if p1.data.std() > 0
        ]
        assert any(diffs)

    def test_config_dict_roundtrip(self):
        m = tiny_model(shared_attention=True, dropout_rate=0.25)
        cfg = from_json(ModelConfig, json.loads(json.dumps(asdict(m.cfg))))
        m2 = DattModel(cfg, 0, cfg.shared_attention, cfg.dropout_rate)
        assert m2.cfg == m.cfg
        assert m2.cfg.shared_attention is True
        assert m2.cfg.dropout_rate == 0.25

    def test_param_groups_partition(self):
        m = tiny_model()
        backbone, attn = m.param_groups()
        all_named = dict(m.named_params())
        assert len(backbone) + len(attn) == len(all_named)
        ids = {id(p) for p in backbone} | {id(p) for p in attn}
        assert len(ids) == len(all_named)

    def test_embed_record_shapes(self):
        m = tiny_model()
        rng = np.random.default_rng(0)
        rec = m.embed_utterance(random_fbank(rng, 700))
        tp = rec.f_id.shape[1]
        assert rec.f_id.shape == (3, tp, TINY_CFG.num_f)
        assert rec.f_att_mutual.shape == (3, tp, TINY_CFG.num_f)
        assert rec.f_self.shape == (3, TINY_CFG.num_f)
        assert rec.embedding.shape == (3, TINY_CFG.num_f)

    def test_short_utterance_single_segment(self):
        m = tiny_model()
        rng = np.random.default_rng(1)
        rec = m.embed_utterance(random_fbank(rng, 180))
        assert rec.embedding.shape[0] == 1

    def test_building_a_model_tunes_the_allocator(self, monkeypatch, tmp_path):
        # eval loads its model from a checkpoint and never runs train_model,
        # so the model itself must set the allocator up for its passes
        calls = []
        monkeypatch.setattr(model_mod, "_tune_allocator", lambda: calls.append(1))
        path = str(tmp_path / "m.ckpt")
        save_checkpoint(path, tiny_model())
        load_checkpoint(path)
        assert calls == [1, 1]


class TestConfigArguments:
    def test_model_config_values_are_kept(self):
        cfg = TrainConfig.desk(shared_attention=True, dropout_rate=0.2).backbone_config()
        m = DattModel(cfg)
        assert (m.cfg.shared_attention, m.cfg.dropout_rate) == (True, 0.2)
        assert m.attention.shared and m.head.dropout_rate == 0.2

    def test_arguments_override_and_backbone_config_defaults(self):
        cfg = TrainConfig.desk(shared_attention=True, dropout_rate=0.2).backbone_config()
        m = DattModel(cfg, 0, False, 0.0)
        assert (m.cfg.shared_attention, m.cfg.dropout_rate) == (False, 0.0)
        assert not m.attention.shared and m.head.dropout_rate == 0.0
        m = DattModel(TINY_CFG)
        assert (m.cfg.shared_attention, m.cfg.dropout_rate) == (False, 0.5)


RECORD_FIELDS = [f.name for f in fields(UtteranceRecord)]
# one padded segment, one exact, one cropped, then 2, 2, 3, 3, 7 and 16 segments
PREFIX_LENGTHS = (450, 500, 599, 600, 699, 700, 737, 1100, 2000)


def prefix_model(b0, b1=1):
    """Float64 model with b0 stage-0 and b1 stage-1 blocks and BN layers off
    their init values."""
    cfg = BackboneConfig(
        mel_bins=16, channels=(4, 4, 4, 4), blocks_per_stage=(b0, b1, 1, 1), num_f=4, num_id=3
    )
    m = DattModel(cfg, seed=b0, dtype=np.float64)
    rng = np.random.default_rng(b0)
    for _, st in m.named_bn_states():
        st.running_mean = rng.normal(0.0, 0.5, st.channels)
        st.running_var = rng.uniform(0.5, 2.0, st.channels)
        st.gamma.data = rng.uniform(0.5, 1.5, st.channels)
        st.beta.data = rng.normal(0.0, 0.3, st.channels)
    return m


class TestSharedPrefix:
    """embed_utterance runs one prefix pass and one stage-1 pass per
    utterance; the oracle runs the whole backbone per segment."""

    @pytest.mark.parametrize("b0", [1, 2, 3])
    def test_reach(self, b0):
        cfg = BackboneConfig(blocks_per_stage=(b0, 2, 2, 2))
        assert prefix_reach(cfg) == (2 * b0 + 2, 8 * b0 + 8)

    @pytest.mark.parametrize("b0", [1, 2, 3])
    def test_float64_records_equal_per_segment_forward(self, b0):
        m = prefix_model(b0)
        rng = np.random.default_rng(10 + b0)
        for t in PREFIX_LENGTHS:
            fb = random_fbank(rng, t, 16)
            got, want = m.embed_utterance(fb), embed_utterance_per_segment(m, fb)
            for name in RECORD_FIELDS:
                assert np.array_equal(getattr(got, name), getattr(want, name)), (t, name)

    @pytest.mark.parametrize("b0", [1, 2, 3])
    @pytest.mark.parametrize("cut", [(1, 0), (0, 2)], ids=["edge-1", "halo-2"])
    def test_reach_is_tight(self, b0, cut, monkeypatch):
        # one row fewer recomputed, or a band two frames short, shows in every array
        m = prefix_model(b0)
        fb = random_fbank(np.random.default_rng(20 + b0), 700, 16)
        want = embed_utterance_per_segment(m, fb)
        monkeypatch.setattr(model_mod, "prefix_reach", lambda cfg: tuple(
            v - d for v, d in zip(prefix_reach(cfg), cut)))
        got = m.embed_utterance(fb)
        for name in RECORD_FIELDS:
            assert not np.array_equal(getattr(got, name), getattr(want, name)), name

    @pytest.mark.parametrize("b0, b1", [(1, 1), (2, 2), (3, 3), (1, 3)])
    def test_stage1_reach(self, b0, b1):
        cfg = BackboneConfig(blocks_per_stage=(b0, b1, 2, 2))
        assert stage1_reach(cfg) == (b0 + 1 + 2 * b1, 2 * b0 + 2 + 8 * b1)

    @pytest.mark.parametrize("b1", [2, 3])
    @pytest.mark.parametrize("b0", [1, 2, 3])
    def test_float64_records_equal_with_stage1_blocks(self, b0, b1):
        m = prefix_model(b0, b1)
        rng = np.random.default_rng(30 + 3 * b0 + b1)
        for t in PREFIX_LENGTHS:
            fb = random_fbank(rng, t, 16)
            got, want = m.embed_utterance(fb), embed_utterance_per_segment(m, fb)
            for name in RECORD_FIELDS:
                assert np.array_equal(getattr(got, name), getattr(want, name)), (t, name)

    @pytest.mark.parametrize("b1", [1, 2, 3])
    @pytest.mark.parametrize("cut", [(1, 0), (0, 2)], ids=["edge1-1", "band1-2"])
    def test_stage1_reach_is_tight(self, b1, cut, monkeypatch):
        # one stage-1 row fewer recomputed, or a band two stage-0 rows short
        m = prefix_model(2, b1)
        fb = random_fbank(np.random.default_rng(40 + b1), 700, 16)
        want = embed_utterance_per_segment(m, fb)
        monkeypatch.setattr(model_mod, "stage1_reach", lambda cfg: tuple(
            v - d for v, d in zip(stage1_reach(cfg), cut)))
        got = m.embed_utterance(fb)
        for name in RECORD_FIELDS:
            assert not np.array_equal(getattr(got, name), getattr(want, name)), name

    def test_float32_desk_model_within_rounding(self):
        # The small GEMMs of the edge bands round differently in float32
        # (2-3 segment utterances); the self-attention softmax and the
        # binary head amplify that to about 2e-6 in f_self and 1e-5 in
        # scores.  A row off at the edges moves them by 1e-2 and 3e-2.
        # BN stats come from train-mode passes, as in the first training
        # steps; with the init stats the binary scores saturate at 1.0.
        cfg = TrainConfig.desk(seed=7, speakers_per_batch=4, crop_frames=200)
        m = DattModel(cfg.backbone_config(), cfg.seed)
        calib = generate_synthetic_corpus(4, 2, cfg.seed, cfg.noise_sigma, cfg.mel_bins)
        rng = np.random.default_rng(6)
        for _ in range(2):
            pair_batch_losses(m, build_pair_batch(calib, cfg, rng), cfg, "train", rng)
        corpus = generate_synthetic_corpus(
            3, 4, 11, cfg.noise_sigma, cfg.mel_bins, min_dur_s=21.0, max_dur_s=21.0
        )
        lengths = (450, 600, 650, 699, 700, 737, 799, 800, 1100, 2000)
        got, want = [], []
        for k, t in enumerate(lengths):
            fb = FBankMatrix(corpus.utterances[k % 3][k // 3].frames[:t])
            got.append(m.embed_utterance(fb))
            want.append(embed_utterance_per_segment(m, fb))
            for name in RECORD_FIELDS:
                a, r = getattr(got[-1], name), getattr(want[-1], name)
                assert np.abs(a - r).max() <= 2e-5 * np.abs(r).max(), (t, name)
        for i in range(len(lengths)):
            for j in range(len(lengths)):
                assert_allclose(m.score_records(got[i], got[j]),
                                m.score_records(want[i], want[j]), rtol=0, atol=5e-5)


class TestConvBnFold:
    def test_float32_fold_within_rounding_of_float64_unfolded(self):
        # embed_utterance folds each conv-fed norm into its conv; against the
        # float64 per-segment forward of the same weights with every norm
        # unfolded, it stays within TestSharedPrefix's float32 bounds.  BN
        # stats come from train-mode passes.
        cfg = TrainConfig.desk(seed=7, speakers_per_batch=4, crop_frames=200)
        m = DattModel(cfg.backbone_config(), cfg.seed)
        calib = generate_synthetic_corpus(4, 2, cfg.seed, cfg.noise_sigma, cfg.mel_bins)
        rng = np.random.default_rng(6)
        for _ in range(2):
            pair_batch_losses(m, build_pair_batch(calib, cfg, rng), cfg, "train", rng)
        m64 = DattModel(m.cfg, cfg.seed, dtype=np.float64)
        for (_, owner, attr), (_, owner64, attr64) in zip(_checkpoint_entries(m),
                                                           _checkpoint_entries(m64)):
            setattr(owner64, attr64, getattr(owner, attr).astype(np.float64))
        corpus = generate_synthetic_corpus(
            2, 2, 12, cfg.noise_sigma, cfg.mel_bins, min_dur_s=12.0, max_dur_s=12.0
        )
        got, want = [], []
        for k, t in enumerate((450, 700, 800, 1100)):
            fb = FBankMatrix(corpus.utterances[k % 2][k // 2].frames[:t])
            got.append(m.embed_utterance(fb))
            want.append(embed_utterance_per_segment(m64, fb, backbone_unfolded))
            for name in RECORD_FIELDS:
                a, r = getattr(got[-1], name), getattr(want[-1], name)
                assert np.abs(a - r).max() <= 2e-5 * np.abs(r).max(), (t, name)
        for i in range(len(got)):
            for j in range(len(got)):
                assert_allclose(m.score_records(got[i], got[j]),
                                m64.score_records(want[i], want[j]), rtol=0, atol=5e-5)


class TestSharedAttention:
    def test_one_bn_update_per_attend(self):
        # the shared stack runs once per group, so one train-mode attend
        # moves its running mean by exactly one momentum step from zero
        rng = np.random.default_rng(9)
        m = tiny_model(shared_attention=True, dtype=np.float64)
        f_raw = T.Tensor(rng.standard_normal((3, 5, TINY_CFG.channels[3])))
        f_id = T.Tensor(rng.standard_normal((3, 5, TINY_CFG.num_f)))
        h = m.attention.self_fc1(f_raw).data
        m.attend(f_raw, f_id, "train")
        want = 0.1 * h.reshape(-1, TINY_CFG.num_f).mean(axis=0)
        assert_allclose(m.attention.self_bn.state.running_mean, want, rtol=1e-12, atol=1e-15)


class TestScoreRecords:
    def test_symmetry(self):
        m = tiny_model()
        rng = np.random.default_rng(2)
        r1 = m.embed_utterance(random_fbank(rng, 700))
        r2 = m.embed_utterance(random_fbank(rng, 600))
        c12, b12 = m.score_records(r1, r2)
        c21, b21 = m.score_records(r2, r1)
        assert abs(c12 - c21) <= 1e-10
        assert abs(b12 - b21) <= 1e-10

    @pytest.mark.parametrize("frames", [(700, 600), (700, 700), (500, 500)])
    def test_swap_gives_the_same_bits(self, monkeypatch, frames):
        # one canonical orientation: the same float64 pair even from a grid
        # whose values depend on which record comes first, as a BLAS's may
        real = model_mod.cosine_grid
        monkeypatch.setattr(model_mod, "cosine_grid", lambda e1, e2: real(e1, e2) + 1e-3 * e1[:, :1])
        m = tiny_model()
        rng = np.random.default_rng(6)
        r1, r2 = (m.embed_utterance(random_fbank(rng, n)) for n in frames)
        assert m.score_records(r1, r2) == m.score_records(r2, r1)

    def test_grid_mean_matches_single_segment_pairs(self):
        m = tiny_model(dtype=np.float64)
        rng = np.random.default_rng(3)
        r1 = m.embed_utterance(random_fbank(rng, 700))
        r2 = m.embed_utterance(random_fbank(rng, 600))
        cos, binary = m.score_records(r1, r2)

        def row(rec, i):
            return UtteranceRecord(
                rec.f_id[i : i + 1],
                rec.f_att_mutual[i : i + 1],
                rec.f_self[i : i + 1],
                rec.embedding[i : i + 1],
            )

        singles = [m.score_records(row(r1, i), row(r2, j)) for i in range(3) for j in range(2)]
        assert_allclose(cos, np.mean([c for c, _ in singles]), rtol=0, atol=1e-12)
        assert_allclose(binary, np.mean([p for _, p in singles]), rtol=0, atol=1e-12)

    def test_self_pair_cosine_one(self):
        m = tiny_model()
        rng = np.random.default_rng(4)
        r = m.embed_utterance(random_fbank(rng, 500))
        cos, binary = m.score_records(r, r)
        assert_allclose(cos, 1.0, rtol=0, atol=1e-6)
        assert 0.0 <= binary <= 1.0

    def test_zero_norm_embedding_raises(self):
        m = tiny_model()
        nf = TINY_CFG.num_f
        rec = UtteranceRecord(
            f_id=np.zeros((1, 4, nf), np.float32),
            f_att_mutual=np.zeros((1, 4, nf), np.float32),
            f_self=np.zeros((1, nf), np.float32),
            embedding=np.zeros((1, nf), np.float32),
        )
        with pytest.raises(NumericError):
            m.score_records(rec, rec)


class TestCheckpoint:
    def test_roundtrip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(5)
        m = tiny_model()
        perturb_running_stats(m, rng)
        ns = NormStats(0.1, 1.2, -0.3, 0.9)
        meta = {"steps": 17, "final_loss": 0.25}
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, m, ns, meta)
        m2, ns2, meta2 = load_checkpoint(path)
        want, got = entry_arrays(m), entry_arrays(m2)
        assert set(want) == set(got)
        for name, a in want.items():
            b = got[name]
            assert np.array_equal(a, b), name
            assert b.dtype == np.float32
        assert ns2 == ns
        assert meta2 == meta

    def test_running_stats_survive(self, tmp_path):
        rng = np.random.default_rng(6)
        m = tiny_model()
        perturb_running_stats(m, rng)
        before = {
            name: arr.copy() for name, arr in entry_arrays(m).items() if name.endswith("running_mean")
        }
        assert any(v.std() > 0 for v in before.values())
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, m)
        m2, ns, meta = load_checkpoint(path)
        assert ns is None and meta == {}
        after = entry_arrays(m2)
        for name, val in before.items():
            assert np.array_equal(val, after[name])

    def test_loaded_model_scores_identically(self, tmp_path):
        rng = np.random.default_rng(7)
        m = tiny_model()
        perturb_running_stats(m, rng)
        f1, f2 = random_fbank(rng, 520), random_fbank(rng, 500)
        save_checkpoint(tmp_path / "m.ckpt", m)
        m2, _, _ = load_checkpoint(tmp_path / "m.ckpt")
        got = [mm.score_records(mm.embed_utterance(f1), mm.embed_utterance(f2)) for mm in (m, m2)]
        assert got[0] == got[1]

    def test_save_is_deterministic(self, tmp_path):
        m = tiny_model()
        save_checkpoint(tmp_path / "a.ckpt", m, None, {"k": 1})
        save_checkpoint(tmp_path / "b.ckpt", m, None, {"k": 1})
        assert (tmp_path / "a.ckpt").read_bytes() == (tmp_path / "b.ckpt").read_bytes()

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, tiny_model())
        raw = bytearray(path.read_bytes())
        raw[0] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="magic"):
            load_checkpoint(path)

    def test_wrong_version(self, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, tiny_model())
        rewrite_manifest(path, lambda man: man.update(format_version=2))
        with pytest.raises(FormatError, match="version"):
            load_checkpoint(path)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, tiny_model())
        raw = path.read_bytes()
        path.write_bytes(raw[:-4])
        with pytest.raises(FormatError, match="payload"):
            load_checkpoint(path)

    def test_index_name_mismatch(self, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, tiny_model())

        def rename_first(man):
            name = sorted(man["params"])[0]
            man["params"]["not_a_" + name] = man["params"].pop(name)

        rewrite_manifest(path, rename_first)
        with pytest.raises(FormatError, match="index"):
            load_checkpoint(path)

    def test_swapped_same_shape_offsets(self, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, tiny_model())

        def swap_bn_in(man):
            gamma, beta = (man["params"][f"backbone.pre.bn_in.state.{k}"] for k in ("gamma", "beta"))
            gamma["offset"], beta["offset"] = beta["offset"], gamma["offset"]

        rewrite_manifest(path, swap_bn_in)
        with pytest.raises(FormatError, match="index mismatch at backbone.pre.bn_in.state.gamma"):
            load_checkpoint(path)

    def test_oversized_config_rejected_before_building(self, tmp_path, monkeypatch):
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, tiny_model())
        rewrite_manifest(path, lambda man: man["model"].update(num_f=10**9, channels=[4, 4, 8, 10**9]))

        def no_build(*args, **kwargs):
            raise AssertionError("the model was built")

        monkeypatch.setattr(DattModel, "__init__", no_build)
        with pytest.raises(FormatError, match="payload bytes"):
            load_checkpoint(path)

    @pytest.mark.parametrize("cfg", [
        TINY_CFG, TrainConfig.desk().backbone_config(), BackboneConfig()
    ], ids=["tiny", "desk", "paper"])
    def test_param_bytes_floor_is_below_the_layout(self, cfg):
        _, payload_bytes = _layout(_checkpoint_entries(DattModel(cfg)))
        assert 0 < _param_bytes_floor(cfg) <= payload_bytes

    def test_garbage_file(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"\x00" * 64)
        with pytest.raises(FormatError):
            load_checkpoint(path)

    def test_no_temp_files_left(self, tmp_path):
        save_checkpoint(tmp_path / "m.ckpt", tiny_model())
        assert sorted(p.name for p in tmp_path.iterdir()) == ["m.ckpt"]

    def test_entries_cover_every_bn_buffer(self):
        m = tiny_model()
        names = [n for n, _, _ in _checkpoint_entries(m)]
        assert len(names) == len(set(names))
        means = {n for n in names if n.endswith(".running_mean")}
        variances = {n for n in names if n.endswith(".running_var")}
        assert len(means) == len(variances) == len(list(m.named_bn_states()))
