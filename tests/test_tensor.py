"""Gradient and forward checks for the tensor engine.

Every differentiable op is checked against central finite differences in
float64 (h=1e-5, relative error < 1e-4).  The convolution forward is
additionally checked bit for bit against a naive nested-loop reference, and
its float32 forward and gradients, folded input affine included, against
float64 loops; batch norm and the max-pool backward are checked against
their narrow-row oracles.
"""

import tracemalloc
import weakref

import numpy as np
import pytest

from dattnet import tensor as T
from dattnet.errors import InputError, NumericError, ShapeError, TapeError
from oracles import batch_norm_narrow, conv2d_grads_loop, im2col_sliding, pool2d_masked


def fd_grad(f, x, h=1e-5):
    """Central-difference gradient of scalar f at array x."""
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    gf = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = f()
        flat[i] = orig - h
        fm = f()
        flat[i] = orig
        gf[i] = (fp - fm) / (2 * h)
    return g


def check_grads(build, arrays, rtol=1e-4, atol=1e-7):
    """Compare reverse-mode grads of build(tensors)->loss against FD."""
    tensors = [T.parameter(a) for a in arrays]
    with T.GraphTape() as tape:
        loss = build(*tensors)
    T.backward(loss, tape)
    for t, a in zip(tensors, arrays):
        want = fd_grad(lambda: float(build(*[T.Tensor(x) for x in arrays]).data), a)
        np.testing.assert_allclose(t.grad, want, rtol=rtol, atol=atol)


def traced(fn):
    """(fn(), bytes that tracemalloc counts as allocated by fn and still held
    after it, peak bytes allocated during fn)."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = fn()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, held - base, peak - base


def naive_conv2d(x, w, stride, pad):
    """Six-nested-loop cross-correlation reference, (kh, kw, cin) order;
    each step is elementwise over the batch axis."""
    b, th, tf, cin = x.shape
    kh, kw, _, cout = w.shape
    sh, sw = stride
    ph, pw = pad
    xp = np.pad(x, ((0, 0), (ph, ph), (pw, pw), (0, 0)))
    oh = (th + 2 * ph - kh) // sh + 1
    ow = (tf + 2 * pw - kw) // sw + 1
    y = np.zeros((b, oh, ow, cout), dtype=x.dtype)
    for ih in range(kh):
        for iw in range(kw):
            for ic in range(cin):
                for oy in range(oh):
                    for ox in range(ow):
                        for oc in range(cout):
                            y[:, oy, ox, oc] += (
                                xp[:, oy * sh + ih, ox * sw + iw, ic] * w[ih, iw, ic, oc]
                            )
    return y


class TestBroadcastOps:
    """Elementwise arithmetic with broadcasting."""

    def test_add_values_and_fanout(self):
        rng = np.random.default_rng(0)
        a = T.parameter(rng.normal(size=(3, 4)))
        b = T.parameter(rng.normal(size=(3, 4)))
        with T.GraphTape() as tape:
            c = T.add(a, b)
            d = T.mul(a, b)
            loss = T.sum_over(T.add(c, d))
        T.backward(loss, tape)
        # a feeds two downstream ops: gradients add
        np.testing.assert_allclose(a.grad, 1.0 + b.data)
        np.testing.assert_allclose(b.grad, 1.0 + a.data)

    def test_broadcast_grad_shapes(self):
        rng = np.random.default_rng(1)
        for sa, sb in [((3, 4), (4,)), ((2, 3, 4), (1, 4)), ((5, 1), (1, 6)), ((3, 4), ())]:
            a, b = rng.normal(size=sa), rng.normal(size=sb)
            for op in ("add", "sub", "mul"):
                check_grads(lambda x, y, op=op: T.sum_over(T.broadcast_binary(x, y, op)), [a, b])

    def test_incompatible_shapes_raise(self):
        a = T.Tensor(np.zeros((3, 4)))
        b = T.Tensor(np.zeros((5, 4)))
        with pytest.raises(ShapeError):
            T.add(a, b)

    def test_fd_random_property(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            sa = tuple(rng.integers(1, 4, size=rng.integers(1, 4)))
            a = rng.normal(size=sa)
            b = rng.normal(size=sa)
            op = ["add", "sub", "mul"][rng.integers(3)]
            check_grads(lambda x, y, op=op: T.sum_over(T.mul(T.broadcast_binary(x, y, op), x)), [a, b])


class TestMatmul:
    def test_values(self):
        rng = np.random.default_rng(3)
        a, b = rng.normal(size=(4, 5)), rng.normal(size=(5, 3))
        out = T.matmul(T.Tensor(a), T.Tensor(b))
        np.testing.assert_allclose(out.data, a @ b)

    def test_grads(self):
        rng = np.random.default_rng(4)
        a, b = rng.normal(size=(3, 4)), rng.normal(size=(4, 2))
        check_grads(lambda x, y: T.sum_over(T.mul(T.matmul(x, y), T.matmul(x, y))), [a, b])

    def test_batched_left(self):
        rng = np.random.default_rng(5)
        a, b = rng.normal(size=(2, 3, 4)), rng.normal(size=(4, 5))
        check_grads(lambda x, y: T.sum_over(T.matmul(x, y)), [a, b])

    def test_inner_mismatch(self):
        with pytest.raises(ShapeError):
            T.matmul(T.Tensor(np.zeros((2, 3))), T.Tensor(np.zeros((4, 5))))


class TestConv2d:
    """Forward exactness against the nested-loop reference, grads by FD."""

    def test_exact_match_float64(self):
        rng = np.random.default_rng(6)
        cases = [
            ((2, 9, 8, 2), (3, 3, 2, 4), (1, 1), (1, 1)),
            ((2, 10, 7, 3), (3, 3, 3, 2), (2, 2), (1, 1)),
            ((2, 8, 8, 1), (7, 7, 1, 5), (2, 2), (3, 3)),
            ((2, 12, 6, 2), (3, 1, 2, 3), (2, 1), (1, 0)),
            ((2, 6, 6, 4), (1, 1, 4, 8), (1, 1), (0, 0)),
        ]
        for xs, ws, stride, pad in cases:
            x = rng.normal(size=xs)
            w = rng.normal(size=ws)
            got = T.conv2d(T.Tensor(x), T.Tensor(w), stride, pad).data
            want = naive_conv2d(x, w, stride, pad)
            assert np.array_equal(got, want), "float64 conv must match loop reference bitwise"

    def test_fast_path_float32_close(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(1, 9, 8, 2)).astype(np.float32)
        w = rng.normal(size=(3, 3, 2, 4)).astype(np.float32)
        got = T.conv2d(T.Tensor(x), T.Tensor(w), (1, 1), (1, 1)).data
        want = naive_conv2d(x.astype(np.float64), w.astype(np.float64), (1, 1), (1, 1))
        np.testing.assert_allclose(got, want, rtol=1e-5, atol=1e-5)

    # (input, kernel, stride, pad): the stem's 7x7 on one channel, 3x3 at
    # stage-0 and stage-1 widths, a strided 3x3 (all with 4- or 2-column
    # strips); then widths whose strip falls back to 2 or 1 column: a TINY
    # stage-3 width of 2, odd widths 5 and 7, strided to 7
    BAND_CASES = [
        ((2, 9, 16, 1), (7, 7, 1, 4), (1, 1), (3, 3)),
        ((2, 7, 12, 8), (3, 3, 8, 8), (1, 1), (1, 1)),
        ((2, 7, 8, 16), (3, 3, 16, 16), (1, 1), (1, 1)),
        ((2, 9, 16, 8), (3, 3, 8, 16), (2, 2), (1, 1)),
        ((2, 5, 2, 8), (3, 3, 8, 8), (1, 1), (1, 1)),
        ((2, 6, 5, 4), (3, 3, 4, 4), (1, 1), (1, 1)),
        ((2, 6, 7, 8), (3, 3, 8, 8), (1, 1), (1, 1)),
        ((2, 7, 14, 4), (3, 3, 4, 8), (2, 2), (1, 1)),
    ]
    # the two maps a folded input norm feeds (`input_affine`): the stem's 7x7
    # on one channel, and the frequency map's 1x1 with the F bins as channels
    FOLDED_CASES = [
        ((2, 9, 16, 1), (7, 7, 1, 16), (1, 1), (3, 3)),
        ((2, 9, 1, 16), (1, 1, 16, 16), (1, 1), (0, 0)),
    ]
    # float32 against float64 loops, relative to the largest reference entry
    F32_TOL = 32 * np.finfo(np.float32).eps

    def _f32_against_loops(self, x, w, stride, pad, seed):
        oh, ow = (T.conv_out_extent(x.shape[1 + a], w.shape[a], stride[a], pad[a]) for a in (0, 1))
        g = np.random.default_rng(seed).normal(size=(x.shape[0], oh, ow, w.shape[3]))
        xt, wt = T.parameter(np.asarray(x, np.float32)), T.parameter(w.astype(np.float32))
        with T.GraphTape() as tape:
            y = T.conv2d(xt, wt, stride, pad)
            loss = T.sum_over(T.mul(y, T.Tensor(g.astype(np.float32))))
        T.backward(loss, tape)
        want_gw, want_gx = conv2d_grads_loop(x, w, g, stride, pad)
        for got, want in [
            (y.data, naive_conv2d(np.asarray(x, np.float64), w, stride, pad)),
            (wt.grad, want_gw),
            (xt.grad, want_gx),
        ]:
            assert got.dtype == np.float32 and got.shape == want.shape
            np.testing.assert_allclose(got, want, rtol=0, atol=self.F32_TOL * np.abs(want).max())

    def _folded_f32_against_loops(self, x, w, stride, pad, seed):
        # conv of the zero-padded gamma * x + beta: the output and dW, and
        # (dgamma, dbeta) = (<w, P_x^T g>, <w, P_1^T g>) bounded as a pair by
        # its larger member, as dgamma may be far smaller than dbeta
        rng = np.random.default_rng(seed)
        oh, ow = (T.conv_out_extent(x.shape[1 + a], w.shape[a], stride[a], pad[a]) for a in (0, 1))
        g = rng.normal(size=(x.shape[0], oh, ow, w.shape[3]))
        gamma, beta = rng.normal(size=2).astype(np.float32).astype(np.float64)
        wt, gt, bt = (T.parameter(np.asarray(a, np.float32)) for a in (w, [gamma], [beta]))
        with T.GraphTape() as tape:
            y = T.conv2d(T.Tensor(x.astype(np.float32)), wt, stride, pad, (gt, bt))
            loss = T.sum_over(T.mul(y, T.Tensor(g.astype(np.float32))))
        T.backward(loss, tape)
        gw_x = conv2d_grads_loop(x, w, g, stride, pad)[0]
        gw_1 = conv2d_grads_loop(np.ones_like(x), w, g, stride, pad)[0]
        for got, want in [
            (y.data, naive_conv2d(gamma * x + beta, w, stride, pad)),
            (wt.grad, gamma * gw_x + beta * gw_1),
            (np.concatenate([gt.grad, bt.grad]), np.array([np.vdot(w, gw_x), np.vdot(w, gw_1)])),
        ]:
            assert got.dtype == np.float32 and got.shape == want.shape
            np.testing.assert_allclose(got, want, rtol=0, atol=self.F32_TOL * np.abs(want).max())

    @pytest.mark.parametrize("xs, ws, stride, pad", BAND_CASES + FOLDED_CASES)
    def test_band_float32_matches_float64_loops(self, xs, ws, stride, pad):
        rng = np.random.default_rng(sum(xs + ws))
        x, w = rng.normal(size=xs), rng.normal(size=ws)
        if (xs, ws, stride, pad) in self.FOLDED_CASES:
            self._folded_f32_against_loops(x, w, stride, pad, 1)
        else:
            self._f32_against_loops(x, w, stride, pad, 1)

    def test_band_non_contiguous_input_without_padding(self):
        rng = np.random.default_rng(10)
        # every other frequency bin, first 5 of 8 channels: no (F, C) run
        x = rng.normal(size=(2, 7, 20, 8)).astype(np.float32)[:, :, ::2, :5]
        assert x.strides[2] != 5 * x.strides[3]
        self._f32_against_loops(x, rng.normal(size=(3, 3, 5, 4)), (1, 1), (0, 0), 2)

    @pytest.mark.parametrize("xs, ws, stride, pad", BAND_CASES)
    def test_one_column_strips_are_the_sliding_window_im2col(self, xs, ws, stride, pad):
        xp = np.pad(np.random.default_rng(11).normal(size=xs).astype(np.float32),
                    ((0, 0), pad, pad, (0, 0)))
        kh, kw = ws[:2]
        oh = T.conv_out_extent(xs[1], kh, stride[0], pad[0])
        ow = T.conv_out_extent(xs[2], kw, stride[1], pad[1])
        got = T._band_patches(xp, kh, kw, oh, ow, *stride, 1)
        assert np.array_equal(got, im2col_sliding(xp, kh, kw, oh, ow, *stride))

    def test_stem_dx_takes_the_per_tap_scatter(self):
        # as a band conv, the stem's 7x7, 1 -> 16 dx would build patches 28
        # times the gradient's size; the per-tap scatter stays under 2 times
        rng = np.random.default_rng(12)
        x, w = rng.normal(size=(2, 40, 64, 1)), rng.normal(size=(7, 7, 1, 16))
        g = rng.normal(size=(2, 40, 64, 16))
        x32, w32, g32 = (a.astype(np.float32) for a in (x, w, g))
        xp = T._pad(x32, 3, 3)
        patches = T._band_patches(xp, 7, 7, 40, 64, 1, 1, T._strip(7, 7, 1, 64))
        (gw, gx), _, peak = traced(
            lambda: T._conv2d_grads(xp.shape, w32, g32, (1, 1), (3, 3), patches))
        assert peak < 2 * g32.nbytes
        for got, want in zip((gw, gx), conv2d_grads_loop(x, w, g, (1, 1), (3, 3))):
            assert got.dtype == np.float32 and got.shape == want.shape
            np.testing.assert_allclose(got, want, rtol=0, atol=self.F32_TOL * np.abs(want).max())

    def test_taped_conv_holds_no_padded_input(self):
        # float32 keeps its band patches for the backward, not the padded x
        rng = np.random.default_rng(13)
        x = T.parameter(rng.normal(size=(2, 40, 32, 8)).astype(np.float32))
        w = T.parameter(rng.normal(size=(3, 3, 8, 8)).astype(np.float32))
        xp = T._pad(x.data, 1, 1)
        patches = T._band_patches(xp, 3, 3, 40, 32, 1, 1, T._strip(3, 3, 8, 32))
        with T.GraphTape() as tape:
            y, held, _ = traced(lambda: T.conv2d(x, w, (1, 1), (1, 1)))
        assert len(tape) == 1
        assert held - y.data.nbytes - patches.nbytes < xp.nbytes // 2

    def test_output_extent(self):
        assert T.conv_out_extent(300, 7, 2, 3) == 150
        assert T.conv_out_extent(10, 3, 1, 1) == 10
        assert T.conv_out_extent(75, 3, 2, 1) == 38

    def test_grads(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(1, 6, 5, 2))
        w = rng.normal(size=(3, 3, 2, 3))
        check_grads(
            lambda xx, ww: T.sum_over(T.mul(T.conv2d(xx, ww, (2, 1), (1, 1)),
                                            T.conv2d(xx, ww, (2, 1), (1, 1)))),
            [x, w],
        )

    def test_batched_grads(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=(2, 5, 4, 2))
        w = rng.normal(size=(3, 3, 2, 2))
        check_grads(lambda xx, ww: T.sum_over(T.conv2d(xx, ww, (1, 1), (1, 1))), [x, w])

    def test_channel_mismatch(self):
        with pytest.raises(ShapeError):
            T.conv2d(T.Tensor(np.zeros((1, 5, 5, 2))), T.Tensor(np.zeros((3, 3, 3, 4))))

    def test_too_small_input(self):
        with pytest.raises(ShapeError):
            T.conv2d(T.Tensor(np.zeros((1, 2, 2, 1))), T.Tensor(np.zeros((5, 5, 1, 1))))

    def test_unbatched_input_raises(self):
        with pytest.raises(ShapeError, match="4-d"):
            T.conv2d(T.Tensor(np.zeros((5, 5, 2))), T.Tensor(np.zeros((3, 3, 2, 4))))


class TestPad:
    @pytest.mark.parametrize("pad", [(3, 3), (1, 0), (0, 2), (2, 1)])
    @pytest.mark.parametrize("value", [0.0, -np.inf])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_matches_np_pad(self, pad, value, dtype):
        a = np.random.default_rng(0).standard_normal((2, 5, 4, 3)).astype(dtype)
        ph, pw = pad
        got = T._pad(a[:, :, ::-1], ph, pw, value)  # a strided input, too
        want = np.pad(a[:, :, ::-1], ((0, 0), (ph, ph), (pw, pw), (0, 0)), constant_values=value)
        assert got.dtype == want.dtype and got.flags.c_contiguous
        assert np.array_equal(got, want)

    def test_no_pad_returns_the_input(self):
        a = np.zeros((1, 2, 2, 1))
        assert T._pad(a, 0, 0) is a


class TestPool2d:
    def test_max_forward(self):
        x = np.arange(16, dtype=np.float64).reshape(1, 4, 4, 1)
        y = T.pool2d(T.Tensor(x), (2, 2), (2, 2)).data
        np.testing.assert_array_equal(y[0, ..., 0], [[5, 7], [13, 15]])

    def test_max_pad_sentinel(self):
        x = -np.ones((1, 2, 2, 1))
        y = T.pool2d(T.Tensor(x), (3, 3), (2, 2), (1, 1)).data
        np.testing.assert_allclose(y[0, ..., 0], -np.ones((1, 1)))

    def test_max_grads(self):
        rng = np.random.default_rng(10)
        x = rng.normal(size=(1, 7, 6, 2))
        check_grads(lambda xx: T.sum_over(T.mul(T.pool2d(xx, (3, 3), (2, 2), (1, 1)),
                                                T.pool2d(xx, (3, 3), (2, 2), (1, 1)))), [x])

    def test_max_tie_first_wins(self):
        x = T.parameter(np.zeros((1, 2, 2, 1)))
        with T.GraphTape() as tape:
            loss = T.sum_over(T.pool2d(x, (2, 2), (2, 2)))
        T.backward(loss, tape)
        want = np.zeros((1, 2, 2, 1))
        want[0, 0, 0, 0] = 1.0
        np.testing.assert_array_equal(x.grad, want)

    def test_unbatched_input_raises(self):
        with pytest.raises(ShapeError, match="4-d"):
            T.pool2d(T.Tensor(np.zeros((4, 4, 1))), (2, 2), (2, 2))

    def test_taped_pool_holds_no_padded_input(self):
        # the backward needs the shape of the -inf-padded copy, not the copy
        x = T.parameter(np.random.default_rng(14).normal(size=(2, 40, 32, 8)).astype(np.float32))
        xp_bytes = 2 * 42 * 34 * 8 * 4
        with T.GraphTape() as tape:
            y, held, _ = traced(lambda: T.pool2d(x, (3, 3), (2, 2), (1, 1)))
        assert len(tape) == 1
        argmax_bytes = y.data.size  # one uint8 tap index per output
        assert held - y.data.nbytes - argmax_bytes < xp_bytes // 2

    def test_values_do_not_depend_on_recording(self):
        # only a recorded call builds the argmax map; the pooled values must
        # be the same bits with no tape, under a tape, and under a tape that
        # does not record the call (input without requires_grad)
        rng = np.random.default_rng(20)
        x = rng.integers(-2, 3, size=(3, 9, 7, 4)).astype(np.float32)  # many ties
        args = ((3, 3), (2, 2), (1, 1))
        free = T.pool2d(T.Tensor(x), *args)
        with T.GraphTape() as tape:
            recorded = T.pool2d(T.parameter(x), *args)
            unrecorded = T.pool2d(T.Tensor(x), *args)
        assert len(tape) == 1
        assert recorded.requires_grad and not unrecorded.requires_grad
        for y in (recorded, unrecorded):
            assert y.data.dtype == free.data.dtype == np.float32
            np.testing.assert_array_equal(y.data, free.data)


    @pytest.mark.parametrize(
        "kernel, stride, pad",
        [((3, 3), (2, 2), (1, 1)), ((3, 1), (2, 1), (1, 0)), ((2, 2), (2, 2), (0, 0))],
    )
    def test_recorded_map_is_first_row_major_argmax(self, kernel, stride, pad):
        # the map routes each output's gradient to its window's first
        # row-major maximum; tie-heavy input makes "first" decide
        (kh, kw), (sh, sw), (ph, pw) = kernel, stride, pad
        rng = np.random.default_rng(21)
        x = rng.integers(-1, 2, size=(2, 7, 6, 3)).astype(np.float32)
        xp = np.pad(x, ((0, 0), (ph, ph), (pw, pw), (0, 0)), constant_values=-np.inf)
        out_shape = T.pool2d(T.Tensor(x), kernel, stride, pad).data.shape
        want_src = {}  # output index -> input index of its first maximum
        for b, i, j, c in np.ndindex(out_shape):
            win = xp[b, i * sh : i * sh + kh, j * sw : j * sw + kw, c]
            r, q = divmod(int(np.argmax(win)), kw)
            want_src[b, i, j, c] = (b, i * sh + r - ph, j * sw + q - pw, c)

        def grad_of(g):
            xt = T.parameter(x)
            with T.GraphTape() as tape:
                loss = T.sum_over(T.mul(T.pool2d(xt, kernel, stride, pad), T.Tensor(g)))
            T.backward(loss, tape)
            return xt.grad

        for idx, src in want_src.items():  # the map, one output at a time
            g = np.zeros(out_shape, dtype=np.float32)
            g[idx] = 1.0
            want = np.zeros_like(x)
            want[src] = 1.0
            np.testing.assert_array_equal(grad_of(g), want, err_msg=str(idx))
        # the whole gradient; eighths sum exactly in any order
        g = rng.integers(1, 64, size=out_shape).astype(np.float32) / 8
        want = np.zeros_like(x)
        for idx, src in want_src.items():
            want[src] += g[idx]
        np.testing.assert_array_equal(grad_of(g), want)


def bits(a):
    """The IEEE bit pattern of a float array, for exact comparisons."""
    a = np.ascontiguousarray(a)
    return a.view(np.uint32 if a.dtype == np.float32 else np.uint64)


def assert_same_bits(got, want, what):
    assert got.dtype == want.dtype and got.shape == want.shape, what
    np.testing.assert_array_equal(bits(got), bits(want), err_msg=what)


class TestPool2dScatterBitwise:
    """pool2d's one reverse-raster scatter against one masked add per tap."""

    @staticmethod
    def run(pool, x, g, args):
        xt = T.parameter(x)
        with T.GraphTape() as tape:
            y = pool(xt, *args)
            loss = T.sum_over(T.mul(y, T.Tensor(g)))
        T.backward(loss, tape)
        return y.data, xt.grad

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize(
        "shape, args",
        [
            ((2, 30, 16, 3), ((3, 3), (2, 2), (1, 1))),
            ((2, 30, 16, 3), ((3, 1), (2, 1), (1, 0))),
            ((2, 30, 16, 3), ((2, 2), (2, 2), (0, 0))),
            ((2, 30, 16, 3), ((2, 2), (1, 1))),  # overlapping windows
            ((1, 31, 17, 5), ((3, 3), (2, 2), (1, 1))),  # odd extents
        ],
    )
    def test_matches_masked_taps(self, dtype, shape, args):
        rng = np.random.default_rng(40)
        x = rng.normal(size=shape).astype(dtype)  # random, so maxima cluster
        g = rng.normal(size=T.pool2d(T.Tensor(x), *args).data.shape).astype(dtype)
        want_y, want_gx = self.run(pool2d_masked, x, g, args)
        got_y, got_gx = self.run(T.pool2d, x, g, args)
        assert_same_bits(got_y, want_y, "forward")
        assert_same_bits(got_gx, want_gx, "input gradient")
        if args[0] == (3, 3):
            # the order of an input's terms matters only where it has three
            # or more of them; make sure the case is exercised
            _, counts = self.run(T.pool2d, x, np.ones_like(g), args)
            assert (counts >= 3).sum() >= 10


class TestBatchNormWideRowsBitwise:
    """batch_norm on wide rows against the narrow (N, C) oracle, bit for bit."""

    @staticmethod
    def run(bn, x, c, mode, act, concat_grad, seed=41):
        rng = np.random.default_rng(seed)
        dtype = x.dtype
        st = T.BNState(c, dtype=dtype)
        st.gamma = T.parameter(rng.normal(size=c).astype(dtype) + 1.0)
        st.beta = T.parameter(rng.normal(size=c).astype(dtype))
        st.running_mean = rng.normal(size=c).astype(dtype)
        st.running_var = rng.uniform(0.2, 3.0, size=c).astype(dtype)
        xt = T.parameter(x)
        with T.GraphTape() as tape:
            y = bn(xt, st, mode, act=act)
            z = y
            if concat_grad:
                # concat's backward hands y the non-contiguous slice
                # g[..., :c] of a (..., c + 1) gradient, as in Preprocess
                extra = T.parameter(np.ones(x.shape[:-1] + (1,), dtype=dtype))
                z = T.concat([y, extra], axis=-1)
            w = rng.normal(size=z.data.shape).astype(dtype)
            loss = T.sum_over(T.mul(z, T.Tensor(w)))
        T.backward(loss, tape)
        return {
            "out": y.data,
            "running_mean": st.running_mean,
            "running_var": st.running_var,
            "dx": xt.grad,
            "dgamma": st.gamma.grad,
            "dbeta": st.beta.grad,
        }

    def check(self, x, c, mode, act=None, concat_grad=False):
        want = self.run(batch_norm_narrow, x, c, mode, act, concat_grad)
        got = self.run(T.batch_norm, x, c, mode, act, concat_grad)
        for key in want:
            assert_same_bits(got[key], want[key], f"{key} ({mode}, act={act})")

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("c", [1, 8, 16, 17, 64])
    @pytest.mark.parametrize("act", [None, "relu"])
    @pytest.mark.parametrize("mode", ["train", "infer"])
    def test_matches_narrow(self, dtype, c, act, mode):
        rng = np.random.default_rng(42)
        # 1536 rows give a wide view (w > 1) for every c here; 7 * 13 = 91
        # rows share no factor with any 1024 // c here, so they take w = 1
        for shape in ((2, 48, 16, c), (7, 13, c)):
            x = (2.0 * rng.normal(size=shape) + 0.3).astype(dtype)
            self.check(x, c, mode, act)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("act", [None, "relu"])
    @pytest.mark.parametrize("mode", ["train", "infer"])
    def test_many_row_blocks(self, dtype, act, mode):
        # train mode runs its elementwise chains block by block of wide
        # rows: these shapes span three or more blocks and end in a ragged
        # one, on wide rows (w = 64) and on narrow ones (an odd row count
        # gives w = 1), and with the concat's strided gradient slice
        rng = np.random.default_rng(45)
        for shape, concat_grad in (
            ((5, 150, 64, 16), False),
            ((3, 331, 51, 8), False),
            ((5, 150, 64, 16), True),
        ):
            x = (2.0 * rng.normal(size=shape) + 0.3).astype(dtype)
            wide = T._wide_rows(x)[1]
            blocks = T._row_blocks(wide)
            assert len(blocks) >= 3 and wide.shape[0] % (blocks[0].stop - blocks[0].start)
            self.check(x, shape[-1], mode, act, concat_grad)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("mode", ["train", "infer"])
    def test_non_contiguous_input(self, dtype, mode):
        rng = np.random.default_rng(43)
        x = (rng.normal(size=(3, 40, 12, 8)) + 0.5).astype(dtype)
        views = (
            x[:, ::2, 1::3],  # strided: its flat rows are a copy
            np.asfortranarray(x[0].reshape(-1, 8)),  # transposed flat rows
            x[..., 1:],  # channel slice: strided flat rows
        )
        for view in views:
            assert not view.flags.c_contiguous
            for act in (None, "relu"):
                self.check(view, view.shape[-1], mode, act)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("mode", ["train", "infer"])
    def test_non_contiguous_gradient(self, dtype, mode):
        rng = np.random.default_rng(44)
        x = (rng.normal(size=(2, 30, 16, 16)) - 0.2).astype(dtype)
        for act in (None, "relu"):
            self.check(x, 16, mode, act, concat_grad=True)


class TestBatchNorm:
    def test_train_stats(self):
        rng = np.random.default_rng(12)
        x = rng.normal(loc=3.0, scale=2.0, size=(50, 4))
        st = T.BNState(4, dtype=np.float64)
        y = T.batch_norm(T.Tensor(x), st, "train").data
        np.testing.assert_allclose(y.mean(axis=0), 0, atol=1e-12)
        np.testing.assert_allclose(y.std(axis=0), 1, atol=1e-3)

    def test_running_update(self):
        st = T.BNState(2, dtype=np.float64)
        x = np.array([[1.0, 10.0], [3.0, 30.0]])
        T.batch_norm(T.Tensor(x), st, "train")
        np.testing.assert_allclose(st.running_mean, 0.9 * 0 + 0.1 * np.array([2.0, 20.0]))
        np.testing.assert_allclose(st.running_var, 0.9 * 1 + 0.1 * np.array([1.0, 100.0]))

    def test_infer_uses_running(self):
        st = T.BNState(1, dtype=np.float64)
        st.running_mean[:] = 5.0
        st.running_var[:] = 4.0
        y = T.batch_norm(T.Tensor(np.array([[7.0]])), st, "infer").data
        np.testing.assert_allclose(y, (7.0 - 5.0) / np.sqrt(4.0 + 1e-5))

    def test_train_grads(self):
        rng = np.random.default_rng(13)
        x = rng.normal(size=(8, 3))
        g = rng.normal(size=3)
        b = rng.normal(size=3)

        def build(xx, gg, bb):
            st = T.BNState(3, dtype=np.float64)
            st.gamma, st.beta = gg, bb
            y = T.batch_norm(xx, st, "train")
            return T.sum_over(T.mul(y, y))

        check_grads(build, [x, g, b])

    def test_train_grads_4d(self):
        rng = np.random.default_rng(14)
        x = rng.normal(size=(2, 4, 3, 2))
        g = rng.normal(size=2)
        b = rng.normal(size=2)

        def build(xx, gg, bb):
            st = T.BNState(2, dtype=np.float64)
            st.gamma, st.beta = gg, bb
            y = T.batch_norm(xx, st, "train")
            return T.sum_over(T.mul(y, y))

        check_grads(build, [x, g, b])

    def test_infer_grads(self):
        rng = np.random.default_rng(15)
        x = rng.normal(size=(6, 2))

        def build(xx):
            st = T.BNState(2, dtype=np.float64)
            st.running_mean[:] = 0.3
            st.running_var[:] = 2.0
            y = T.batch_norm(xx, st, "infer")
            return T.sum_over(T.mul(y, y))

        check_grads(build, [x])

    def test_fused_relu_matches_separate(self):
        # fused act="relu" must be bit-identical to relu(batch_norm(..)),
        # forward and every gradient, in both modes and for 2-d, 4-d and
        # non-contiguous (copied to a flat (N, C) view) train inputs
        rng = np.random.default_rng(19)
        cases = [
            (rng.normal(size=(12, 5)), "train"),  # 2D
            (rng.normal(size=(3, 4, 2, 5)), "train"),  # 4D
            (np.asfortranarray(rng.normal(size=(6, 5))), "train"),  # non-contiguous
            (rng.normal(size=(7, 5)), "infer"),
        ]
        for x, mode in cases:
            w = rng.normal(size=x.shape)
            gmm = rng.normal(size=5) + 1.5
            bt = rng.normal(size=5)

            def run(fused):
                st = T.BNState(5, dtype=np.float64)
                st.gamma = T.parameter(gmm.copy())
                st.beta = T.parameter(bt.copy())
                st.running_mean[:] = 0.4
                st.running_var[:] = 1.7
                xx = T.parameter(x.copy(order="K"))
                with T.GraphTape() as tape:
                    if fused:
                        y = T.batch_norm(xx, st, mode, act="relu")
                    else:
                        y = T.relu(T.batch_norm(xx, st, mode))
                    loss = T.sum_over(T.mul(y, T.Tensor(w)))
                T.backward(loss, tape)
                return y.data, xx.grad, st.gamma.grad, st.beta.grad

            for a, b in zip(run(True), run(False)):
                np.testing.assert_array_equal(a, b)

    def test_infer_matches_reference_expression_bitwise(self):
        # infer mode computes in one buffer; it must give exactly the bits of
        # ((x - mean) * invstd) * gamma + beta in float32
        rng = np.random.default_rng(21)
        c = 6
        cases = [
            rng.normal(size=(40, c)),  # 2D
            rng.normal(size=(3, 7, 5, c)),  # 4D
            rng.normal(size=(2, 8, 10, c))[:, ::2, 1::3],  # non-contiguous
        ]
        for x in cases:
            x = (3.0 * x + 0.5).astype(np.float32)
            st = T.BNState(c)
            st.gamma = T.parameter(rng.normal(size=c).astype(np.float32) + 1.0)
            st.beta = T.parameter(rng.normal(size=c).astype(np.float32))
            st.running_mean = rng.normal(size=c).astype(np.float32)
            st.running_var = rng.uniform(0.2, 3.0, size=c).astype(np.float32)
            invstd = 1.0 / np.sqrt(st.running_var + np.float32(st.eps))
            want = ((x - st.running_mean) * invstd) * st.gamma.data + st.beta.data
            for act, ref in ((None, want), ("relu", np.maximum(want, 0.0))):
                y = T.batch_norm(T.Tensor(x), st, "infer", act=act).data
                assert y.dtype == np.float32
                np.testing.assert_array_equal(y, ref)

    def test_unknown_act_rejected(self):
        st = T.BNState(2, dtype=np.float64)
        with pytest.raises(InputError):
            T.batch_norm(T.Tensor(np.zeros((3, 2))), st, "train", act="gelu")


class TestSoftmax:
    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(16)
        x = rng.normal(size=(5, 7)) * 10
        y = T.softmax_over_axis(T.Tensor(x), 1).data
        np.testing.assert_allclose(y.sum(axis=1), np.ones(5), rtol=1e-12)
        assert (y > 0).all()

    def test_shift_invariance(self):
        rng = np.random.default_rng(17)
        x = rng.normal(size=(4, 6))
        a = T.softmax_over_axis(T.Tensor(x), 1).data
        b = T.softmax_over_axis(T.Tensor(x + 100.0), 1).data
        np.testing.assert_allclose(a, b, rtol=1e-12)

    def test_extreme_logits_stable(self):
        x = np.array([[1000.0, 0.0], [-1000.0, 0.0]])
        y = T.softmax_over_axis(T.Tensor(x), 1).data
        assert np.isfinite(y).all()
        np.testing.assert_allclose(y[0], [1.0, 0.0], atol=1e-12)

    def test_nan_raises(self):
        with pytest.raises(NumericError):
            T.softmax_over_axis(T.Tensor(np.array([np.nan, 0.0])), 0)

    def test_grads(self):
        rng = np.random.default_rng(18)
        for axis in (0, 1, -1):
            x = rng.normal(size=(3, 4, 2))
            w = rng.normal(size=(3, 4, 2))
            check_grads(
                lambda xx, ax=axis: T.sum_over(T.mul(T.softmax_over_axis(xx, ax), T.Tensor(w))),
                [x],
            )


class TestActivations:
    def test_relu_values(self):
        x = np.array([-2.0, 0.0, 3.0])
        np.testing.assert_array_equal(T.relu(T.Tensor(x)).data, [0, 0, 3])

    def test_sigmoid_stable(self):
        x = np.array([-800.0, 0.0, 800.0])
        y = T.sigmoid(T.Tensor(x)).data
        assert np.isfinite(y).all()
        np.testing.assert_allclose(y, [0.0, 0.5, 1.0], atol=1e-12)

    def test_grads(self):
        rng = np.random.default_rng(19)
        x = rng.normal(size=(5, 3)) + 0.05  # stay away from relu kink
        check_grads(lambda xx: T.sum_over(T.mul(T.relu(xx), T.relu(xx))), [x])
        check_grads(lambda xx: T.sum_over(T.mul(T.sigmoid(xx), T.sigmoid(xx))), [x])


class TestReductionsAndShape:
    def test_sum_mean_grads(self):
        rng = np.random.default_rng(20)
        x = rng.normal(size=(3, 4, 5))
        for axis in (None, 0, (1, 2), -1):
            check_grads(lambda xx, ax=axis: T.sum_over(T.mul(T.sum_over(xx, ax, keepdims=True), xx)), [x])
            check_grads(lambda xx, ax=axis: T.sum_over(T.mul(T.mean_over(xx, ax, keepdims=True), xx)), [x])

    def test_concat_roundtrip_and_grads(self):
        rng = np.random.default_rng(21)
        a = rng.normal(size=(2, 3))
        b = rng.normal(size=(2, 5))
        out = T.concat([T.Tensor(a), T.Tensor(b)], axis=1)
        np.testing.assert_array_equal(out.data, np.concatenate([a, b], axis=1))
        check_grads(lambda x, y: T.sum_over(T.mul(T.concat([x, y], 1), T.concat([x, y], 1))), [a, b])

    def test_concat_shape_mismatch(self):
        with pytest.raises(ShapeError):
            T.concat([T.Tensor(np.zeros((2, 3))), T.Tensor(np.zeros((3, 3)))], axis=1)

    def test_reshape_narrow_grads(self):
        rng = np.random.default_rng(22)
        x = rng.normal(size=(4, 6))
        check_grads(lambda xx: T.sum_over(T.mul(T.reshape(xx, (2, 12)), T.reshape(xx, (2, 12)))), [x])
        check_grads(lambda xx: T.sum_over(T.mul(T.narrow(xx, 0, 1, 2), T.narrow(xx, 0, 1, 2))), [x])

    def test_narrow_values(self):
        x = np.arange(24.0).reshape(4, 6)
        out = T.narrow(T.Tensor(x), 0, 1, 2)
        np.testing.assert_array_equal(out.data, x[1:3])

    def test_transpose_values_and_grads(self):
        rng = np.random.default_rng(37)
        x = rng.normal(size=(2, 3, 4))
        out = T.transpose(T.Tensor(x), (1, 0, 2))
        np.testing.assert_array_equal(out.data, x.transpose(1, 0, 2))
        w = rng.normal(size=(3, 2, 4))
        check_grads(lambda xx: T.sum_over(T.mul(T.transpose(xx, (1, 0, 2)), T.Tensor(w))), [x])
        with pytest.raises(ShapeError):
            T.transpose(T.Tensor(x), (0, 1))


class TestL2Normalize:
    def test_unit_norm(self):
        rng = np.random.default_rng(23)
        x = rng.normal(size=(4, 7))
        y = T.l2_normalize(T.Tensor(x), 1).data
        np.testing.assert_allclose(np.linalg.norm(y, axis=1), np.ones(4), rtol=1e-12)

    def test_scale_invariance(self):
        rng = np.random.default_rng(24)
        x = rng.normal(size=(3, 5))
        a = T.l2_normalize(T.Tensor(x), 1).data
        b = T.l2_normalize(T.Tensor(x * 7.5), 1).data
        np.testing.assert_allclose(a, b, rtol=1e-12)

    def test_zero_norm_raises(self):
        with pytest.raises(NumericError):
            T.l2_normalize(T.Tensor(np.zeros((2, 3))), 1)

    def test_grads(self):
        rng = np.random.default_rng(25)
        x = rng.normal(size=(3, 4))
        w = rng.normal(size=(3, 4))
        check_grads(lambda xx: T.sum_over(T.mul(T.l2_normalize(xx, 1), T.Tensor(w))), [x])


class TestLosses:
    def test_softmax_ce_uniform(self):
        # all-equal logits: loss is log(K) regardless of label
        logits = T.Tensor(np.zeros((3, 5)))
        loss = T.softmax_cross_entropy(logits, np.array([0, 2, 4]))
        np.testing.assert_allclose(loss.data, np.log(5.0), rtol=1e-12)

    def test_softmax_ce_grads(self):
        rng = np.random.default_rng(26)
        x = rng.normal(size=(4, 6))
        lab = rng.integers(0, 6, size=4)
        check_grads(lambda xx: T.softmax_cross_entropy(xx, lab), [x])

    def test_softmax_ce_label_range(self):
        from dattnet.errors import InputError
        with pytest.raises(InputError):
            T.softmax_cross_entropy(T.Tensor(np.zeros((2, 3))), np.array([0, 3]))
        # logits must be (N, K): a single 1-d row is rejected, not squeezed
        with pytest.raises(ShapeError):
            T.softmax_cross_entropy(T.Tensor(np.zeros(3)), np.array([0]))

    def test_bce_known_value(self):
        p = T.Tensor(np.array([0.9, 0.1]))
        loss = T.binary_cross_entropy(p, np.array([1.0, 0.0]))
        np.testing.assert_allclose(loss.data, -np.log(0.9), rtol=1e-10)

    def test_bce_clamp_no_inf(self):
        p = T.Tensor(np.array([0.0, 1.0]))
        loss = T.binary_cross_entropy(p, np.array([1.0, 0.0]))
        assert np.isfinite(loss.data)
        np.testing.assert_allclose(loss.data, -np.log(T.BCE_CLAMP), rtol=1e-6)

    def test_bce_pos_weight_scales_positive_term_only(self):
        p = T.Tensor(np.array([0.4, 0.4]))
        y = np.array([1.0, 0.0])
        loss = T.binary_cross_entropy(p, y, pos_weight=2.0)
        np.testing.assert_allclose(loss.data, -(2.0 * np.log(0.4) + np.log(0.6)) / 2, rtol=1e-12)

    def test_bce_grads(self):
        rng = np.random.default_rng(27)
        p = rng.uniform(0.05, 0.95, size=(6,))
        y = (rng.random(6) < 0.5).astype(np.float64)
        check_grads(lambda pp: T.binary_cross_entropy(pp, y), [p])
        check_grads(lambda pp: T.binary_cross_entropy(pp, y, pos_weight=2.5), [p])


class TestHandExamples:
    """Small closed-form cases checked against hand expansion."""

    def test_mul_row_broadcast(self):
        a = T.Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]))
        b = T.Tensor(np.array([10.0, 20.0]))
        np.testing.assert_array_equal(T.mul(a, b).data, [[10, 40], [30, 80]])

    def test_sub_self_zero(self):
        x = T.Tensor(np.random.default_rng(30).normal(size=(3, 2)))
        np.testing.assert_array_equal(T.sub(x, x).data, np.zeros((3, 2)))

    def test_mul_commutative_bitwise(self):
        rng = np.random.default_rng(31)
        a = T.Tensor(rng.normal(size=(4, 4)))
        b = T.Tensor(rng.normal(size=(4, 4)))
        assert np.array_equal(T.mul(a, b).data, T.mul(b, a).data)

    def test_matmul_identity(self):
        b = np.random.default_rng(32).normal(size=(3, 5))
        out = T.matmul(T.Tensor(np.eye(3)), T.Tensor(b))
        np.testing.assert_array_equal(out.data, b)

    def test_matmul_hand(self):
        out = T.matmul(T.Tensor([[1.0, 2.0]]), T.Tensor([[3.0], [4.0]]))
        np.testing.assert_array_equal(out.data, [[11.0]])

    def test_conv_scalar_scale(self):
        x = np.random.default_rng(33).normal(size=(1, 4, 4, 1))
        w = np.full((1, 1, 1, 1), 2.0)
        out = T.conv2d(T.Tensor(x), T.Tensor(w)).data
        np.testing.assert_array_equal(out, 2.0 * x)

    def test_conv_tap_count(self):
        x = np.ones((1, 3, 3, 1))
        w = np.ones((3, 3, 1, 1))
        out = T.conv2d(T.Tensor(x), T.Tensor(w), (1, 1), (1, 1)).data
        assert out[0, 1, 1, 0] == 9.0

    def test_bn_infer_identity(self):
        st = T.BNState(3, dtype=np.float64)
        x = np.random.default_rng(34).normal(size=(5, 3))
        y = T.batch_norm(T.Tensor(x), st, "infer").data
        np.testing.assert_allclose(y, x, rtol=1e-5)

    def test_bn_train_constant_gives_beta(self):
        st = T.BNState(2, dtype=np.float64)
        st.beta.data[:] = [1.5, -2.0]
        y = T.batch_norm(T.Tensor(np.full((6, 2), 7.0)), st, "train").data
        np.testing.assert_allclose(y, np.broadcast_to([1.5, -2.0], (6, 2)), atol=1e-12)

    def test_softmax_closed_forms(self):
        np.testing.assert_allclose(
            T.softmax_over_axis(T.Tensor(np.zeros(3)), 0).data, np.full(3, 1 / 3), rtol=1e-12
        )
        np.testing.assert_allclose(
            T.softmax_over_axis(T.Tensor(np.array([0.0, np.log(3.0)])), 0).data,
            [0.25, 0.75],
            rtol=1e-12,
        )

    def test_sigmoid_minus_six(self):
        y = T.sigmoid(T.Tensor(np.array(-6.0))).data
        np.testing.assert_allclose(y, 1.0 / (1.0 + np.exp(6.0)), rtol=1e-12)

    def test_backward_sum_gives_ones(self):
        x = T.parameter(np.random.default_rng(35).normal(size=(3, 4)))
        with T.GraphTape() as tape:
            loss = T.sum_over(x)
        T.backward(loss, tape)
        np.testing.assert_array_equal(x.grad, np.ones((3, 4)))

    def test_backward_quadratic(self):
        v = np.random.default_rng(36).normal(size=(5,))
        x = T.parameter(v.copy())
        with T.GraphTape() as tape:
            loss = T.sum_over(T.mul(x, x))
        T.backward(loss, tape)
        np.testing.assert_allclose(x.grad, 2 * v, rtol=1e-12)


class TestTape:
    def test_second_backward_raises(self):
        x = T.parameter(np.array([2.0]))
        with T.GraphTape() as tape:
            loss = T.sum_over(T.mul(x, x))
        T.backward(loss, tape)
        with pytest.raises(TapeError):
            T.backward(loss, tape)

    def test_backward_frees_what_it_has_run(self):
        x = T.parameter(np.array([2.0, 3.0]))
        with T.GraphTape() as tape:
            h = T.relu(x)
            h_data = weakref.ref(h.data)
            loss = T.sum_over(T.mul(h, x))
            del h
        assert len(tape) == 3
        T.backward(loss, tape)
        # the tape holds no node, so nothing of h, its closure or its grad,
        # and still counts the ops it recorded
        assert tape._nodes == [] and h_data() is None
        assert len(tape) == 3
        np.testing.assert_array_equal(x.grad, [4.0, 6.0])
        with pytest.raises(TapeError):
            T.backward(loss, tape)

    def test_no_tape_no_tracking(self):
        x = T.parameter(np.array([2.0]))
        y = T.mul(x, x)
        assert x.grad is None and y.grad is None

    def test_fanout_accumulates(self):
        x = T.parameter(np.array([3.0]))
        with T.GraphTape() as tape:
            loss = T.sum_over(T.add(T.mul(x, x), T.mul(x, x)))
        T.backward(loss, tape)
        np.testing.assert_allclose(x.grad, [12.0])

    def test_scalar_required(self):
        x = T.parameter(np.ones((2, 2)))
        with T.GraphTape() as tape:
            y = T.mul(x, x)
        with pytest.raises(ShapeError):
            T.backward(y, tape)

    def test_nested_tapes_independent(self):
        x = T.parameter(np.array([2.0]))
        with T.GraphTape() as outer:
            a_loss = T.sum_over(T.mul(x, x))
            with T.GraphTape() as inner:
                b_loss = T.sum_over(T.mul(x, x))
            T.backward(b_loss, inner)
        inner_grad = x.grad.copy()
        x.grad = None
        T.backward(a_loss, outer)
        np.testing.assert_allclose(x.grad, inner_grad)
        np.testing.assert_allclose(x.grad, [4.0])

    def test_grad_check_chain_property(self):
        # random small composite graph, 100 draws
        rng = np.random.default_rng(28)
        for _ in range(100):
            n = int(rng.integers(2, 5))
            x = rng.normal(size=(n, 3))
            w = rng.normal(size=(3, 2))

            def build(xx, ww):
                h = T.relu(T.matmul(xx, ww))
                s = T.softmax_over_axis(T.add(h, T.Tensor(np.full_like(h.data, 0.1))), 1)
                return T.mean_over(T.mul(s, s))

            check_grads(build, [x, w])
