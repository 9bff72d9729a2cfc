"""Backbone structure checks: stream behavior, extents, head identities."""

import copy
import weakref

import numpy as np
import pytest
from oracles import (
    backbone_unfolded,
    batch_norm_narrow,
    pool2d_masked,
    preprocess_unfolded,
    relu_float_mask,
)

from dattnet import tensor as T
from dattnet.backbone import (
    Backbone,
    BackboneConfig,
    BasicBlock,
    BatchNorm,
    Conv2d,
    Preprocess,
    Trunk,
    conv_bn,
    predicted_trunk_shape,
)
from dattnet.errors import ConfigError, ShapeError

PAPER_CFG = BackboneConfig(mel_bins=64, channels=(64, 128, 256, 512),
                           blocks_per_stage=(2, 2, 2, 2), num_f=256, num_id=2)
TINY_CFG = BackboneConfig(mel_bins=32, channels=(4, 4, 8, 8),
                          blocks_per_stage=(1, 1, 1, 1), num_f=8, num_id=3)


def extent(n, k, s, p):
    return (n + 2 * p - k) // s + 1


def oracle_trunk_shape(t, f):
    """Independent recomputation of the downsampling chain."""
    t, f = extent(t, 3, 2, 1), extent(f, 3, 2, 1)           # max pool 1
    t, f = extent(t, 3, 2, 1), extent(f, 3, 2, 1)           # stage 2 stride
    t = extent(t, 3, 2, 1)                                  # time-only max pool
    t, f = extent(t, 3, 2, 1), extent(f, 3, 2, 1)           # stage 3
    t, f = extent(t, 3, 2, 1), extent(f, 3, 2, 1)           # stage 4
    return t, f


class TestPreprocess:
    def test_output_shape_paper_widths(self):
        pre = Preprocess(np.random.default_rng(0), PAPER_CFG)
        x = T.Tensor(np.random.default_rng(1).normal(size=(1, 300, 64, 1)).astype(np.float32))
        out = pre(x, "infer")
        assert out.data.shape == (1, 300, 64, 64)

    def test_identity_frequency_map(self):
        pre = Preprocess(np.random.default_rng(2), TINY_CFG, dtype=np.float64)
        f = TINY_CFG.mel_bins
        pre.freq_conv.weight.data[0, 0] = np.eye(f)
        x = T.Tensor(np.random.default_rng(3).normal(size=(2, 5, f, 1)))
        out = pre.frequency_map(x)
        assert np.array_equal(out.data, x.data)

    def test_frequency_position_sensitivity(self):
        # the same pattern placed at two frequency offsets must map differently
        pre = Preprocess(np.random.default_rng(4), TINY_CFG, dtype=np.float64)
        f = TINY_CFG.mel_bins
        pattern = np.random.default_rng(5).normal(size=4)
        x1 = np.zeros((1, 3, f, 1))
        x2 = np.zeros((1, 3, f, 1))
        x1[0, :, 0:4, 0] = pattern
        x2[0, :, 8:12, 0] = pattern
        y1 = pre.frequency_map(T.Tensor(x1)).data
        y2 = pre.frequency_map(T.Tensor(x2)).data
        assert not np.allclose(y1, y2)

    @pytest.mark.parametrize("mode", ["train", "infer"])
    @pytest.mark.parametrize("gamma, beta", [(1.3, -0.4), (0.0, 0.7), (-0.8, 0.0)])
    def test_folded_input_norm_matches_unfolded_route(self, mode, gamma, beta):
        # bn_in's affine folded into the stem conv and the frequency map
        # against batch_norm's affine feeding two maps that differentiate
        # their input; float64, so only the rounding of the two routes differs
        rng = np.random.default_rng(12)
        pre = Preprocess(rng, TINY_CFG, dtype=np.float64)
        st = pre.bn_in.state
        st.gamma.data[:], st.beta.data[:] = gamma, beta
        st.running_mean[:], st.running_var[:] = 0.3, 2.0
        x = T.Tensor(1.5 * rng.normal(size=(2, 20, TINY_CFG.mel_bins, 1)) + 0.2)
        proj = T.Tensor(rng.normal(size=(2, 20, TINY_CFG.mel_bins, TINY_CFG.channels[0])))

        def run(route):
            p = copy.deepcopy(pre)
            with T.GraphTape() as tape:
                out = route(p, x, mode)
                loss = T.sum_over(T.mul(out, proj))
            T.backward(loss, tape)
            return out.data, {name: t.grad for name, t in p.named_params()}, p.bn_in.state

        def assert_close(got, want, what):
            assert np.isfinite(got).all() and np.isfinite(want).all(), what
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max(), what

        got_out, got, got_st = run(Preprocess.__call__)
        want_out, want, want_st = run(preprocess_unfolded)
        assert_close(got_out, want_out, "output")
        # gamma's gradient is nearly zero, as the batch norms after the maps
        # cancel a common scale: bound the pair by its larger member
        pair = [f"bn_in.state.{k}" for k in ("gamma", "beta")]
        assert_close(np.concatenate([got.pop(k) for k in pair]),
                     np.concatenate([want.pop(k) for k in pair]), "bn_in gradients")
        assert got.keys() == want.keys()
        for name in want:
            assert_close(got[name], want[name], name)
        assert np.array_equal(got_st.running_mean, want_st.running_mean)
        assert np.array_equal(got_st.running_var, want_st.running_var)

        # the two maps alone; a tape makes them fold
        affine = (st.gamma, st.beta)
        xhat = T.standardize(x, copy.deepcopy(st), mode)
        normed = T.batch_norm(x, copy.deepcopy(st), mode).data
        with T.GraphTape():
            stem, freq = pre.stream1_conv(xhat, affine), pre.frequency_map(xhat, affine)
        assert_close(stem.data, pre.stream1_conv(T.Tensor(normed)).data, "stem")
        assert_close(freq.data, pre.frequency_map(T.Tensor(normed)).data, "frequency map")

        # with no tape the affine is applied to the input: in infer mode the
        # very bits of the unfolded bn_in route, whose stream 1 and merge
        # go through conv_bn as Preprocess's do
        got, want = (route(copy.deepcopy(pre), x, mode).data
                     for route in (Preprocess.__call__, preprocess_unfolded))
        if mode == "infer":
            assert np.array_equal(got, want)
        assert_close(got, want, "untaped output")

    def test_mel_bin_mismatch(self):
        pre = Preprocess(np.random.default_rng(6), TINY_CFG)
        x = T.Tensor(np.zeros((1, 10, 64, 1), dtype=np.float32))
        with pytest.raises(ShapeError):
            pre(x, "infer")


class TestTrunkShapes:
    def test_paper_case_300(self):
        model = Backbone(PAPER_CFG, np.random.default_rng(7))
        x = T.Tensor(np.random.default_rng(8).normal(size=(1, 300, 64, 1)).astype(np.float32))
        h = model.trunk(model.pre(x, "infer"), "infer")
        assert h.data.shape == (1, 10, 4, 512)
        assert predicted_trunk_shape(PAPER_CFG, 300) == (10, 4, 512)

    def test_paper_case_512(self):
        assert predicted_trunk_shape(PAPER_CFG, 512) == (16, 4, 512)
        model = Backbone(PAPER_CFG, np.random.default_rng(9))
        x = T.Tensor(np.random.default_rng(10).normal(size=(1, 512, 64, 1)).astype(np.float32))
        h = model.trunk(model.pre(x, "infer"), "infer")
        assert h.data.shape == (1, 16, 4, 512)

    def test_extent_sweep(self):
        for mel_bins in (32, 64):
            cfg = BackboneConfig(mel_bins=mel_bins, channels=(2, 2, 4, 4),
                                 blocks_per_stage=(1, 1, 1, 1), num_f=4, num_id=2)
            model = Backbone(cfg, np.random.default_rng(11))
            for t in range(100, 601, 50):
                want_t, want_f = oracle_trunk_shape(t, mel_bins)
                assert want_t >= 1 and want_f >= 1
                x = T.Tensor(np.random.default_rng(t).normal(size=(1, t, mel_bins, 1)).astype(np.float32))
                h = model.trunk(model.pre(x, "infer"), "infer")
                assert h.data.shape == (1, want_t, want_f, 4)
                assert predicted_trunk_shape(cfg, t) == (want_t, want_f, 4)


class TestBasicBlock:
    def test_zeroed_final_gamma_leaves_shortcut(self):
        blk = BasicBlock(np.random.default_rng(12), 4, 4, (1, 1), dtype=np.float64)
        blk.bn2.state.gamma.data[:] = 0.0
        x = T.Tensor(np.random.default_rng(13).normal(size=(2, 6, 6, 4)))
        out = blk(x, "train")
        np.testing.assert_array_equal(out.data, np.maximum(x.data, 0))

    def test_zero_input_zero_output(self):
        blk = BasicBlock(np.random.default_rng(14), 4, 8, (2, 2), dtype=np.float64)
        x = T.Tensor(np.zeros((2, 6, 6, 4)))
        out = blk(x, "train")
        np.testing.assert_array_equal(out.data, np.zeros_like(out.data))


FOLD_CFG = BackboneConfig(mel_bins=32, channels=(4, 4, 8, 8),
                          blocks_per_stage=(2, 1, 2, 1), num_f=8, num_id=3)


def random_bn_states(model, rng):
    """Every batch norm's gamma, beta and running statistics drawn away
    from their init values, some gammas negative."""
    for _, st in model.named_bn_states():
        st.gamma.data = rng.uniform(-0.5, 1.5, st.channels)
        st.beta.data = rng.normal(0.0, 0.3, st.channels)
        st.running_mean = rng.normal(0.0, 0.5, st.channels)
        st.running_var = rng.uniform(0.3, 2.0, st.channels)


class TestConvBnFold:
    """Untaped infer mode folds each conv-fed batch norm into its conv;
    train mode and taped calls run batch_norm(conv(x))."""

    def fold_model(self):
        rng = np.random.default_rng(50)
        model = Backbone(FOLD_CFG, rng, dtype=np.float64)
        random_bn_states(model, rng)
        return model, T.Tensor(rng.normal(size=(2, 70, FOLD_CFG.mel_bins, 1)))

    def test_float64_infer_matches_unfolded(self, monkeypatch):
        model, x = self.fold_model()
        want = backbone_unfolded(model, x, "infer")
        norms, batch_norm = [], T.batch_norm

        def spy(x, state, *args, **kw):
            norms.append(state)
            return batch_norm(x, state, *args, **kw)

        monkeypatch.setattr(T, "batch_norm", spy)
        got = model(x, "infer")
        # only the norms conv_bn leaves unfolded (stream 2's, fc1's) run as layers
        assert norms == [model.pre.stream2_bn.state, model.fc1_bn.state]
        for name in ("f_raw", "f_id", "embedding", "logits"):
            a, r = getattr(got, name).data, getattr(want, name).data
            assert np.abs(a - r).max() <= 1e-12 * np.abs(r).max(), name

    @pytest.mark.parametrize("mode", ["train", "infer"])
    def test_taped_call_runs_unfolded(self, mode, monkeypatch):
        # under a tape the backbone is batch_norm(conv(x)) bit for bit, and
        # every norm's gamma and beta get their gradients.  In train mode
        # each conv-fed norm, the stem's behind bn_in's folded affine and
        # the projections' among them, centres its input in place, where
        # the unfolded route's norms allocate; infer mode never does
        model, x = self.fold_model()
        proj = np.random.default_rng(51).normal(size=(2, FOLD_CFG.num_f))
        in_place, batch_norm = [], T.batch_norm

        def spy(x, state, *args, **kw):
            if x._scratch:
                in_place.append(state)
            return batch_norm(x, state, *args, **kw)

        monkeypatch.setattr(T, "batch_norm", spy)

        def run(route):
            m = copy.deepcopy(model)
            in_place.clear()
            with T.GraphTape() as tape:
                out = route(m, x, mode)
                loss = T.sum_over(T.mul(out.embedding, T.Tensor(proj)))
            T.backward(loss, tape)
            return out, dict(m.named_params()), dict(m.named_bn_states()), list(in_place)

        got_out, got, got_states, got_in_place = run(Backbone.__call__)
        want_out, want, want_states, want_in_place = run(backbone_unfolded)
        unfolded = ("pre.bn_in.state", "pre.stream2_bn.state", "fc1_bn.state")
        conv_fed = [st for name, st in got_states.items() if name not in unfolded]
        assert {"trunk.stage1.0.proj_bn.state", "pre.stream1_bn.state"} <= got_states.keys()
        assert sorted(map(id, got_in_place)) == sorted(map(id, conv_fed if mode == "train" else []))
        assert want_in_place == []
        for name, st in got_states.items():
            for stat in ("running_mean", "running_var"):
                assert np.array_equal(getattr(st, stat), getattr(want_states[name], stat)), name
        for name in ("f_raw", "f_id", "embedding", "logits"):
            assert np.array_equal(getattr(got_out, name).data, getattr(want_out, name).data), name
        assert got.keys() == want.keys()
        for name, p in got.items():
            if name.startswith("fc2"):
                continue  # the loss reads the embedding, before the classifier
            assert p.grad is not None, name
            assert np.array_equal(p.grad, want[name].grad), name
        for name in ("pre.merge_bn", "trunk.stage1.0.proj_bn", "trunk.stage0.1.bn2"):
            assert np.abs(got[f"{name}.state.gamma"].grad).max() > 0, name


def taped_run(build, monkeypatch, spied=(), ops=None):
    """(leaf gradients, live) of one taped train-mode forward and backward.

    build(rng) returns (leaves, forward), forward() the scalar loss; rng is
    seeded alike on every run.  `ops` maps engine op names to stand-ins for
    the run.  `live` counts the float outputs of the `spied` ops that are
    still referenced once the forward has returned."""
    for name, fn in (ops or {}).items():
        monkeypatch.setattr(T, name, fn)
    refs = []
    for name in spied:
        def spy(*a, real=getattr(T, name), **k):
            out = real(*a, **k)
            refs.append(weakref.ref(out.data))
            return out

        monkeypatch.setattr(T, name, spy)
    leaves, forward = build(np.random.default_rng(60))
    with T.GraphTape() as tape:
        loss = forward()
    live = sum(r() is not None for r in refs)
    assert refs
    T.backward(loss, tape)
    monkeypatch.undo()
    return [t.grad for t in leaves], live


class TestTapedForwardFrees:
    """A taped forward leaves an op's float output to its forward consumers
    when no backward reads it, and the backward keeps its bits: against
    oracles that keep those outputs (the norm's for its ReLU mask, the
    ReLU's input), every leaf gradient is equal."""

    @staticmethod
    def check(build, monkeypatch, spied, oracle_ops):
        got, live = taped_run(build, monkeypatch, spied)
        want, oracle_live = taped_run(build, monkeypatch, spied, oracle_ops)
        assert live == 0 and oracle_live > 0
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert g is not None and np.array_equal(g, w)

    @staticmethod
    def proj_sum(y, rng):
        return T.sum_over(T.mul(y, T.Tensor(rng.normal(size=y.data.shape).astype(np.float32))))

    def test_conv_bn_relu_output_into_a_conv(self, monkeypatch):
        def build(rng):
            conv1, bn1 = Conv2d(rng, 3, 3, 4, 8, (1, 1), (1, 1)), BatchNorm(8)
            conv2 = Conv2d(rng, 3, 3, 8, 8, (1, 1), (1, 1))
            x = T.parameter(rng.normal(size=(2, 12, 8, 4)).astype(np.float32))

            def forward():
                return self.proj_sum(conv2(conv_bn(conv1, bn1, x, "train", relu=True)), rng)

            return [x, conv1.weight, bn1.state.gamma, bn1.state.beta, conv2.weight], forward

        self.check(build, monkeypatch, ["batch_norm"], {"batch_norm": batch_norm_narrow})

    def test_basic_block_residual_sum_and_relu_output(self, monkeypatch):
        def build(rng):
            blk = BasicBlock(rng, 4, 4, (1, 1))
            conv = Conv2d(rng, 3, 3, 4, 4, (1, 1), (1, 1))
            x = T.parameter(rng.normal(size=(2, 12, 8, 4)).astype(np.float32))

            def forward():
                return self.proj_sum(conv(blk(x, "train")), rng)

            return [x, conv.weight, *blk.params()], forward

        oracle_ops = {"batch_norm": batch_norm_narrow, "relu": relu_float_mask}
        self.check(build, monkeypatch, ["add", "relu"], oracle_ops)

    def test_front_pool_input(self, monkeypatch):
        def build(rng):
            bn = BatchNorm(4)
            x = T.parameter(rng.normal(size=(2, 12, 8, 4)).astype(np.float32))

            def forward():
                return self.proj_sum(T.pool2d(bn(x, "train", act="relu"), *Trunk.FRONT_POOL), rng)

            return [x, bn.state.gamma, bn.state.beta], forward

        oracle_ops = {"batch_norm": batch_norm_narrow, "pool2d": pool2d_masked}
        self.check(build, monkeypatch, ["batch_norm"], oracle_ops)


class TestPostprocess:
    def test_constant_trunk_output(self):
        model = Backbone(TINY_CFG, np.random.default_rng(15))
        trunk_out = T.Tensor(np.full((1, 5, 2, 8), 0.7, dtype=np.float32))
        feats = model.postprocess(trunk_out, "infer")
        rows = feats.f_raw.data[0]
        assert np.array_equal(rows, np.broadcast_to(rows[0], rows.shape))
        np.testing.assert_allclose(feats.embedding.data[0], feats.f_id.data[0, 2], atol=1e-6)

    def test_paper_head_widths(self):
        cfg = BackboneConfig(mel_bins=64, channels=(2, 2, 4, 4),
                             blocks_per_stage=(1, 1, 1, 1), num_f=256, num_id=7205)
        model = Backbone(cfg, np.random.default_rng(16))
        trunk_out = T.Tensor(np.random.default_rng(17).normal(size=(1, 9, 4, 4)).astype(np.float32))
        feats = model.postprocess(trunk_out, "infer")
        assert feats.f_id.data.shape == (1, 9, 256)
        assert feats.logits.data.shape == (1, 7205)

    def test_embedding_is_time_mean_of_f_id(self):
        model = Backbone(TINY_CFG, np.random.default_rng(18))
        x = T.Tensor(np.random.default_rng(19).normal(size=(2, 120, 32, 1)).astype(np.float32))
        feats = model(x, "infer")
        np.testing.assert_allclose(
            feats.embedding.data, feats.f_id.data.mean(axis=1), atol=1e-6
        )


class TestForwardDeterminism:
    def test_repeat_forward_bitwise(self):
        model = Backbone(TINY_CFG, np.random.default_rng(20))
        x = T.Tensor(np.random.default_rng(21).normal(size=(2, 100, 32, 1)).astype(np.float32))
        a = model(x, "infer")
        b = model(x, "infer")
        for field in ("f_raw", "f_id", "embedding", "logits"):
            assert np.array_equal(getattr(a, field).data, getattr(b, field).data)

    def test_batch_duplication_no_leakage(self):
        model = Backbone(TINY_CFG, np.random.default_rng(22))
        one = np.random.default_rng(23).normal(size=(1, 100, 32, 1)).astype(np.float32)
        two = np.concatenate([one, one], axis=0)
        fa = model(T.Tensor(one), "infer")
        fb = model(T.Tensor(two), "infer")
        for field in ("f_raw", "f_id", "embedding", "logits"):
            va, vb = getattr(fa, field).data, getattr(fb, field).data
            assert np.array_equal(vb[0], vb[1]), f"{field}: duplicated rows diverged"
            assert np.array_equal(va[0], vb[0]), f"{field}: batching changed values"


class TestParamRegistry:
    def test_names_unique_and_complete(self):
        model = Backbone(TINY_CFG, np.random.default_rng(24))
        names = [n for n, _ in model.named_params()]
        assert len(names) == len(set(names))
        assert any("pre.stream1_conv" in n for n in names)
        assert any("trunk.stage3" in n for n in names)
        assert any(n.endswith("fc1.bias") for n in names)
        # classifier stays bias-free
        assert not any(n == "fc2.bias" for n in names)

    def test_same_seed_same_init(self):
        a = Backbone(TINY_CFG, np.random.default_rng(25))
        b = Backbone(TINY_CFG, np.random.default_rng(25))
        for (na, pa), (nb, pb) in zip(a.named_params(), b.named_params()):
            assert na == nb
            assert np.array_equal(pa.data, pb.data)


class TestConfigValidation:
    def test_bad_mel_bins(self):
        with pytest.raises(ConfigError):
            BackboneConfig(mel_bins=60)

    def test_bad_num_id(self):
        with pytest.raises(ConfigError):
            BackboneConfig(num_id=1)

    def test_bad_channels(self):
        with pytest.raises(ConfigError):
            BackboneConfig(channels=(1, 2, 3))

    def test_zero_width_stage(self):
        with pytest.raises(ConfigError, match="channels"):
            BackboneConfig(channels=(4, 0, 8, 8))
