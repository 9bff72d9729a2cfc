"""Score-path checks: cosine identities, head symmetry, fusion algebra."""

import math
from dataclasses import asdict

import numpy as np
import pytest

from dattnet import scoring as S
from dattnet import tensor as T
from dattnet.codec import from_json
from dattnet.errors import ConfigError, NumericError


def make_pair(rng, num_f=8, dtype=np.float64):
    """Two utterances, each an (f_self, f_mutual) pair of tensors."""
    def utt():
        f_self = T.Tensor(rng.normal(size=num_f).astype(dtype))
        f_mutual = T.Tensor(rng.normal(size=num_f).astype(dtype))
        return f_self, f_mutual

    return utt(), utt()


def binary_score(u1, u2, head):
    """The head's score of one pair, through the pair-grid head path."""
    x = S.pair_difference_product(u1[0], u2[0], u1[1], u2[1])
    return float(S.binary_head_scores(T.reshape(x, (1, -1)), head).data[0])


def make_head(num_f=8, seed=0, dtype=np.float64):
    head = S.BinaryHeadParams(np.random.default_rng(seed), num_f, dtype=dtype)
    rng = np.random.default_rng(seed + 1)
    head.bn.state.running_mean = rng.normal(size=num_f).astype(dtype)
    head.bn.state.running_var = rng.uniform(0.5, 2.0, size=num_f).astype(dtype)
    return head


class TestCosine:
    def test_identities(self):
        v = np.array([0.3, -1.2, 2.0])
        assert S.cosine_grid(v, v) == pytest.approx(1.0)
        assert S.cosine_grid([1.0, 0.0], [0.0, 1.0]) == pytest.approx(0.0)
        assert S.cosine_grid(v, -v) == pytest.approx(-1.0)

    def test_scale_invariance(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            v, w = rng.normal(size=6), rng.normal(size=6)
            a = rng.uniform(0.1, 50.0)
            assert S.cosine_grid(a * v, w) == pytest.approx(S.cosine_grid(v, w), abs=1e-6)

    def test_zero_norm_raises(self):
        with pytest.raises(NumericError):
            S.cosine_grid(np.zeros(4), np.ones(4))

    def test_range(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            s = S.cosine_grid(rng.normal(size=5), rng.normal(size=5))
            assert -1.0 - 1e-12 <= s <= 1.0 + 1e-12


class TestBinaryHead:
    def test_order_swap_exact(self):
        rng = np.random.default_rng(2)
        head = make_head()
        for _ in range(200):
            u1, u2 = make_pair(rng)
            assert binary_score(u1, u2, head) == binary_score(u2, u1, head)

    def test_identical_utterances_constant(self):
        rng = np.random.default_rng(3)
        head = make_head()
        u1, u2 = make_pair(rng)
        score = binary_score(u1, u1, head)
        # zero difference vector -> score depends only on head parameters
        assert binary_score(u2, u2, head) == score
        assert 0.0 < score < 1.0

    def test_formula_oracle(self):
        # explicit recomputation of the head on raw arrays
        rng = np.random.default_rng(4)
        head = make_head(seed=5)
        st = head.bn.state
        for _ in range(100):
            u1, u2 = make_pair(rng)
            got = binary_score(u1, u2, head)
            x = (u1[0].data - u2[0].data) * (u1[1].data - u2[1].data)
            xhat = (x - st.running_mean) / np.sqrt(st.running_var + st.eps)
            z = st.gamma.data * xhat + st.beta.data
            logit = z @ head.fc.weight.data[:, 0] + head.fc.bias.data[0]
            want = 1.0 / (1.0 + np.exp(-logit))
            assert got == pytest.approx(want, abs=1e-6)

    def test_dropout_train_only(self):
        head = make_head(seed=6)
        x = T.Tensor(np.ones((64, 8)))
        infer_a = S.binary_head_scores(x, head, "infer").data
        infer_b = S.binary_head_scores(x, head, "infer").data
        assert np.array_equal(infer_a, infer_b)
        train = S.binary_head_scores(x, head, "train", np.random.default_rng(7)).data
        assert not np.array_equal(train, infer_a)

    def test_dropout_needs_rng(self):
        head = make_head()
        with pytest.raises(NumericError):
            S.binary_head_scores(T.Tensor(np.ones((2, 8))), head, "train")

    def test_grid_head_matches_singles(self):
        rng = np.random.default_rng(8)
        head = make_head(seed=9)
        x = rng.normal(size=(3, 4, 8))
        grid = S.binary_head_scores(T.Tensor(x), head, "infer").data
        for i in range(3):
            for j in range(4):
                single = S.binary_head_scores(T.Tensor(x[i, j][None]), head, "infer").data[0]
                assert grid[i, j] == pytest.approx(single, abs=1e-12)


class TestNormStats:
    def test_degenerate_floored_with_warning(self):
        # the floor is STD_FLOOR_ULPS float32 spacings at the mean, and at
        # least STD_FLOOR, which holds near 0
        with pytest.warns(UserWarning):
            ns = S.norm_stats_from_scores([0.7] * 10, [0.0] * 10)
        assert ns.mean_cos == pytest.approx(0.7)
        assert ns.std_cos == S.STD_FLOOR_ULPS * float(np.spacing(np.float32(0.7)))
        assert ns.std_bin == S.STD_FLOOR

    def test_near_constant_calibration_bounds_a_last_bit_change(self):
        # calibration cosines a few float32 spacings apart near 1 (std
        # 2.8e-6, as a 6-step tiny run gives): a 6e-8 change of one cosine
        # moved its fused score by 0.011 under a 1e-6 floor
        rng = np.random.default_rng(12)
        cos = 0.999996 + 2.8e-6 * rng.standard_normal(27)
        binary = rng.random(27)
        with pytest.warns(UserWarning, match="cosine"):
            ns = S.norm_stats_from_scores(cos, binary)
        assert ns.std_cos > 20 * float(np.std(cos))
        jump = S.fuse_scores(0.99999 + 6e-8, 0.5, ns) - S.fuse_scores(0.99999, 0.5, ns)
        assert 0 < jump <= 1e-3

    def test_bernoulli_half(self):
        rng = np.random.default_rng(10)
        scores = (rng.random(1000) < 0.5).astype(float)
        ns = S.norm_stats_from_scores(scores, scores)
        assert ns.mean_cos == pytest.approx(0.5, abs=0.05)
        assert ns.std_cos == pytest.approx(0.5, abs=0.05)

    def test_population_formula(self):
        ns = S.norm_stats_from_scores([0.0, 1.0], [0.0, 1.0])
        assert ns.std_cos == pytest.approx(0.5)  # ddof=0

    def test_roundtrip_dict(self):
        ns = S.NormStats(0.1, 0.2, 0.3, 0.4)
        assert from_json(S.NormStats, asdict(ns)) == ns

    def test_zero_or_non_finite_rejected(self):
        for bad in ((0, 0, 0, 1), (0, 1, 0, -1), (math.nan, 1, 0, 1), (0, 1, 0, math.inf)):
            with pytest.raises(ConfigError):
                S.NormStats(*bad)


class TestCalibration:
    class StubModel:
        """Deterministic fake: scores derived from utterance means."""

        def embed_utterance(self, f):
            return float(f.frames.mean())

        def score_records(self, a, b):
            return np.tanh(a * b), 1.0 / (1.0 + np.exp(-(a + b)))

    def _corpus(self):
        from dattnet.features import generate_synthetic_corpus

        return generate_synthetic_corpus(3, 3, seed=20)

    def test_same_seed_bit_identical(self):
        corpus = self._corpus()
        a = S.calibrate_norm_stats(self.StubModel(), corpus, n_pairs=50, seed=4)
        b = S.calibrate_norm_stats(self.StubModel(), corpus, n_pairs=50, seed=4)
        assert a == b

    def test_different_seed_differs(self):
        corpus = self._corpus()
        a = S.calibrate_norm_stats(self.StubModel(), corpus, n_pairs=50, seed=4)
        b = S.calibrate_norm_stats(self.StubModel(), corpus, n_pairs=50, seed=5)
        assert a != b

    def test_too_few_pairs(self):
        with pytest.raises(NumericError):
            S.calibrate_norm_stats(self.StubModel(), self._corpus(), n_pairs=1, seed=0)


class TestFusion:
    def test_centered_is_zero(self):
        ns = S.NormStats(0.3, 0.2, 0.6, 0.1)
        assert S.fuse_scores(0.3, 0.6, ns) == pytest.approx(0.0)

    def test_unit_stats_average(self):
        ns = S.NormStats(0.0, 1.0, 0.0, 1.0)
        assert S.fuse_scores(0.4, 0.8, ns) == pytest.approx(0.6)

    def test_strictly_increasing(self):
        ns = S.NormStats(0.1, 0.5, 0.2, 0.3)
        base = S.fuse_scores(0.4, 0.4, ns)
        assert S.fuse_scores(0.4 + 1e-6, 0.4, ns) > base
        assert S.fuse_scores(0.4, 0.4 + 1e-6, ns) > base

    def test_affine_recalibration_equivariance(self):
        rng = np.random.default_rng(11)
        cos = rng.normal(size=200)
        binary = rng.uniform(0, 1, size=200)
        ns = S.norm_stats_from_scores(cos, binary)
        fused = [S.fuse_scores(c, b, ns) for c, b in zip(cos, binary)]
        alpha, beta = 2.5, -0.7
        ns2 = S.norm_stats_from_scores(alpha * cos + beta, alpha * binary + beta)
        fused2 = [
            S.fuse_scores(alpha * c + beta, alpha * b + beta, ns2) for c, b in zip(cos, binary)
        ]
        np.testing.assert_allclose(fused, fused2, atol=1e-6)
