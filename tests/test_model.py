"""Model composition and checkpoint container tests."""

import json

import numpy as np
import pytest
from numpy.testing import assert_allclose

from dattnet import tensor as T
from dattnet.backbone import BackboneConfig
from dattnet.errors import FormatError, NumericError
from dattnet.features import FBankMatrix
from dattnet.model import (
    DattModel,
    UtteranceRecord,
    _checkpoint_entries,
    _entry_array,
    load_checkpoint,
    save_checkpoint,
)
from dattnet.scoring import NormStats

TINY_CFG = BackboneConfig(
    mel_bins=32, channels=(4, 4, 8, 8), blocks_per_stage=(1, 1, 1, 1), num_f=8, num_id=3
)


def tiny_model(seed=5, **kw):
    return DattModel(TINY_CFG, seed=seed, **kw)


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
        m2 = DattModel.from_config_dict(m.config_dict())
        assert m2.cfg == m.cfg
        assert m2.shared_attention is True
        assert m2.dropout_rate == 0.25

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
        want = dict(_checkpoint_entries(m))
        got = dict(_checkpoint_entries(m2))
        assert set(want) == set(got)
        for name in want:
            a = _entry_array((name, want[name]))
            b = _entry_array((name, got[name]))
            assert np.array_equal(a, b), name
            assert b.dtype == np.float32
        assert ns2.to_dict() == ns.to_dict()
        assert meta2 == meta

    def test_running_stats_survive(self, tmp_path):
        rng = np.random.default_rng(6)
        m = tiny_model()
        perturb_running_stats(m, rng)
        before = {
            name: _entry_array((name, obj)).copy()
            for name, obj in _checkpoint_entries(m)
            if name.endswith("running_mean")
        }
        assert any(v.std() > 0 for v in before.values())
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, m)
        m2, ns, meta = load_checkpoint(path)
        assert ns is None and meta == {}
        after = dict(_checkpoint_entries(m2))
        for name, val in before.items():
            assert np.array_equal(val, _entry_array((name, after[name])))

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
        names = [n for n, _ in _checkpoint_entries(m)]
        assert len(names) == len(set(names))
        means = {n for n in names if n.endswith(".running_mean")}
        variances = {n for n in names if n.endswith(".running_var")}
        assert len(means) == len(variances) == len(list(m.named_bn_states()))
