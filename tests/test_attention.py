"""Attention math against explicit-loop oracles and structural identities."""

import numpy as np
import pytest

from dattnet import attention as A
from dattnet import tensor as T
from dattnet.errors import ShapeError

def oracle_self(f_att, f_id):
    """Self weights and pooled vector by direct loops."""
    t, nf = f_att.shape
    mean = np.zeros(nf)
    for c in range(nf):
        for i in range(t):
            mean[c] += f_att[i, c]
        mean[c] /= t
    w = np.zeros((t, nf))
    for c in range(nf):
        logits = np.array([f_att[i, c] * mean[c] for i in range(t)])
        e = np.exp(logits - logits.max())
        w[:, c] = e / e.sum()
    f_self = np.zeros(nf)
    for c in range(nf):
        for i in range(t):
            f_self[c] += w[i, c] * f_id[i, c]
    return w, f_self


def oracle_mutual(f_att_1, f_id_1, f_self_2):
    t, nf = f_att_1.shape
    w = np.zeros((t, nf))
    for c in range(nf):
        logits = np.array([f_att_1[i, c] * f_self_2[c] for i in range(t)])
        e = np.exp(logits - logits.max())
        w[:, c] = e / e.sum()
    f_mutual = np.zeros(nf)
    for c in range(nf):
        for i in range(t):
            f_mutual[c] += w[i, c] * f_id_1[i, c]
    return w, f_mutual


class TestSelfAttention:
    def test_loop_oracle_100_shapes(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            t = int(rng.integers(1, 9))
            nf = int(rng.integers(1, 17))
            f_att = rng.normal(size=(t, nf))
            f_id = rng.normal(size=(t, nf))
            w, f_self = A.self_attention(T.Tensor(f_att), T.Tensor(f_id))
            ow, os = oracle_self(f_att, f_id)
            np.testing.assert_allclose(w.data, ow, atol=1e-6)
            np.testing.assert_allclose(f_self.data, os, atol=1e-6)

    def test_constant_f_att_uniform_weights(self):
        f_att = np.full((5, 3), 1.7)
        f_id = np.random.default_rng(1).normal(size=(5, 3))
        w, f_self = A.self_attention(T.Tensor(f_att), T.Tensor(f_id))
        np.testing.assert_allclose(w.data, np.full((5, 3), 0.2), atol=1e-6)
        np.testing.assert_allclose(f_self.data, f_id.mean(axis=0), atol=1e-6)

    def test_single_frame_degenerate(self):
        f_att = np.random.default_rng(2).normal(size=(1, 4))
        f_id = np.random.default_rng(3).normal(size=(1, 4))
        w, f_self = A.self_attention(T.Tensor(f_att), T.Tensor(f_id))
        np.testing.assert_array_equal(w.data, np.ones((1, 4)))
        np.testing.assert_allclose(f_self.data, f_id[0], atol=1e-12)

    def test_column_stochastic_batched(self):
        rng = np.random.default_rng(4)
        f_att = rng.normal(size=(3, 7, 5)) * 3
        f_id = rng.normal(size=(3, 7, 5))
        w, f_self = A.self_attention(T.Tensor(f_att), T.Tensor(f_id))
        assert (w.data >= 0).all()
        np.testing.assert_allclose(w.data.sum(axis=1), np.ones((3, 5)), atol=1e-5)
        # pooled values stay inside the per-channel envelope of f_id
        assert (f_self.data <= f_id.max(axis=1) + 1e-9).all()
        assert (f_self.data >= f_id.min(axis=1) - 1e-9).all()

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            A.self_attention(T.Tensor(np.zeros((4, 3))), T.Tensor(np.zeros((5, 3))))


class TestMutualAttention:
    def test_loop_oracle_100_shapes(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            t = int(rng.integers(1, 9))
            nf = int(rng.integers(1, 17))
            f_att = rng.normal(size=(t, nf))
            f_id = rng.normal(size=(t, nf))
            partner = rng.normal(size=nf)
            w, f_m = A.mutual_attention(T.Tensor(f_att), T.Tensor(f_id), T.Tensor(partner))
            ow, om = oracle_mutual(f_att, f_id, partner)
            np.testing.assert_allclose(w.data, ow, atol=1e-6)
            np.testing.assert_allclose(f_m.data, om, atol=1e-6)

    def test_zero_partner_uniform(self):
        rng = np.random.default_rng(6)
        f_att = rng.normal(size=(4, 3))
        f_id = rng.normal(size=(4, 3))
        w, f_m = A.mutual_attention(T.Tensor(f_att), T.Tensor(f_id), T.Tensor(np.zeros(3)))
        np.testing.assert_allclose(w.data, np.full((4, 3), 0.25), atol=1e-6)
        np.testing.assert_allclose(f_m.data, f_id.mean(axis=0), atol=1e-6)

    def test_constant_f_att_uniform_any_partner(self):
        f_att = np.full((4, 3), -0.9)
        f_id = np.random.default_rng(7).normal(size=(4, 3))
        partner = np.random.default_rng(8).normal(size=3)
        w, _ = A.mutual_attention(T.Tensor(f_att), T.Tensor(f_id), T.Tensor(partner))
        np.testing.assert_allclose(w.data, np.full((4, 3), 0.25), atol=1e-6)

    def test_post_product_shift_invariance(self):
        rng = np.random.default_rng(9)
        logits = rng.normal(size=(6, 4))
        w1 = T.softmax_over_axis(T.Tensor(logits), 0).data
        w2 = T.softmax_over_axis(T.Tensor(logits + 3.7), 0).data
        np.testing.assert_allclose(w1, w2, atol=1e-12)

    def test_partner_width_mismatch(self):
        with pytest.raises(ShapeError):
            A.mutual_attention(
                T.Tensor(np.zeros((4, 3))), T.Tensor(np.zeros((4, 3))), T.Tensor(np.zeros(5))
            )


class TestGrid:
    def test_matches_per_pair_loop(self):
        rng = np.random.default_rng(10)
        b1, b2, t, nf = 3, 4, 5, 6
        f_att = rng.normal(size=(b1, t, nf))
        f_id = rng.normal(size=(b1, t, nf))
        partners = rng.normal(size=(b2, nf))
        grid = A.mutual_attention_grid(T.Tensor(f_att), T.Tensor(f_id), T.Tensor(partners)).data
        assert grid.shape == (b1, b2, nf)
        for i in range(b1):
            for j in range(b2):
                _, want = A.mutual_attention(
                    T.Tensor(f_att[i]), T.Tensor(f_id[i]), T.Tensor(partners[j])
                )
                np.testing.assert_allclose(grid[i, j], want.data, atol=1e-12)

    def test_grid_gradients(self):
        # finite differences through the broadcast grid
        rng = np.random.default_rng(11)
        f_att = rng.normal(size=(2, 3, 4))
        f_id = rng.normal(size=(2, 3, 4))
        partners = rng.normal(size=(2, 4))

        def build(a, i, p):
            g = A.mutual_attention_grid(a, i, p)
            return T.sum_over(T.mul(g, g))

        tensors = [T.parameter(x) for x in (f_att, f_id, partners)]
        with T.GraphTape() as tape:
            loss = build(*tensors)
        T.backward(loss, tape)

        def fd(idx):
            arrs = [f_att, f_id, partners]
            x = arrs[idx]
            g = np.zeros_like(x)
            flat, gf = x.reshape(-1), g.reshape(-1)
            for k in range(flat.size):
                orig = flat[k]
                flat[k] = orig + 1e-5
                fp = float(build(*[T.Tensor(a) for a in arrs]).data)
                flat[k] = orig - 1e-5
                fm = float(build(*[T.Tensor(a) for a in arrs]).data)
                flat[k] = orig
                gf[k] = (fp - fm) / 2e-5
            return g

        for idx, t in enumerate(tensors):
            np.testing.assert_allclose(t.grad, fd(idx), rtol=1e-4, atol=1e-7)


class TestComputeFAtt:
    def _params(self, dtype=np.float64):
        return A.AttentionParams(np.random.default_rng(12), c_in=8, num_f=6, dtype=dtype)

    def test_zero_input_zero_biases_zero_output(self):
        p = self._params()
        out = A.compute_f_att(T.Tensor(np.zeros((5, 8))), p, "self", "infer")
        np.testing.assert_array_equal(out.data, np.zeros((5, 6)))

    def test_single_frame_passthrough_shape(self):
        p = self._params()
        out = A.compute_f_att(T.Tensor(np.random.default_rng(13).normal(size=(1, 8))), p, "self", "infer")
        assert out.data.shape == (1, 6)

    def test_permuting_frames_permutes_rows(self):
        p = self._params()
        x = np.random.default_rng(14).normal(size=(6, 8))
        perm = np.random.default_rng(15).permutation(6)
        a = A.compute_f_att(T.Tensor(x), p, "self", "infer").data
        b = A.compute_f_att(T.Tensor(x[perm]), p, "self", "infer").data
        np.testing.assert_array_equal(b, a[perm])

    def test_stacks_independent_by_default(self):
        p = self._params()
        x = T.Tensor(np.random.default_rng(16).normal(size=(4, 8)))
        a = A.compute_f_att(x, p, "self", "infer").data
        b = A.compute_f_att(x, p, "mutual", "infer").data
        assert not np.allclose(a, b)

    def test_shared_mode_reuses_parameters(self):
        p = A.AttentionParams(np.random.default_rng(17), c_in=8, num_f=6, shared=True, dtype=np.float64)
        x = T.Tensor(np.random.default_rng(18).normal(size=(4, 8)))
        a = A.compute_f_att(x, p, "self", "infer").data
        b = A.compute_f_att(x, p, "mutual", "infer").data
        assert np.array_equal(a, b)
        names = [n for n, _ in p.named_params()]
        assert len(names) == len(set(names))
        assert not any("mutual" in n for n in names)
