import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from numpy.lib.stride_tricks import sliding_window_view

from taxelkit import nn, pipeline
from taxelkit.nn import (AdamState, CnnModel, ShapeError, Workspace, conv2d_backward,
                         conv2d_forward, dropout_backward, dropout_forward,
                         dropout_mask, linear_backward, linear_forward,
                         maxpool2_backward, maxpool2_forward, relu_backward,
                         relu_forward, softmax_cross_entropy)

RNG = np.random.default_rng(20240817)


def numeric_grad(f, x, step=1e-6):
    """Central finite differences of scalar f at array x."""
    g = np.zeros_like(x, dtype=float)
    it = np.nditer(x, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        orig = x[idx]
        x[idx] = orig + step
        hi = f()
        x[idx] = orig - step
        lo = f()
        x[idx] = orig
        g[idx] = (hi - lo) / (2 * step)
    return g


def shapes_of(model):
    return {k: v.shape for k, v in model.params.items()}


def rel_err(a, b):
    denom = max(np.abs(a).max(), np.abs(b).max(), 1e-12)
    return np.abs(a - b).max() / denom


class TestConv:
    def test_identity_kernel(self):
        x = RNG.normal(size=(2, 3, 5, 10))
        w = np.zeros((3, 3, 3, 3))
        for k in range(3):
            w[k, k, 1, 1] = 1.0
        y, _ = conv2d_forward(x, w, np.zeros(3))
        assert np.allclose(y, x)

    def test_shift_kernel(self):
        # kernel tap at (1, 2) reads the pixel to the right
        x = RNG.normal(size=(1, 1, 5, 10))
        w = np.zeros((1, 1, 3, 3))
        w[0, 0, 1, 2] = 1.0
        y, _ = conv2d_forward(x, w, np.zeros(1))
        assert np.allclose(y[0, 0, :, :-1], x[0, 0, :, 1:])
        assert np.allclose(y[0, 0, :, -1], 0.0)

    def test_bias(self):
        x = np.zeros((1, 2, 5, 10))
        w = np.zeros((4, 2, 3, 3))
        y, _ = conv2d_forward(x, w, np.array([1.0, 2.0, 3.0, 4.0]))
        for k in range(4):
            assert (y[0, k] == k + 1).all()

    def test_channel_mismatch(self):
        with pytest.raises(ShapeError):
            conv2d_forward(np.zeros((1, 2, 5, 10)), np.zeros((4, 3, 3, 3)), np.zeros(4))

    def test_gradients(self):
        x = RNG.normal(size=(2, 2, 4, 5))
        w = RNG.normal(size=(3, 2, 3, 3))
        b = RNG.normal(size=3)
        proj = RNG.normal(size=(2, 3, 4, 5))

        def loss():
            y, _ = conv2d_forward(x, w, b)
            return float((y * proj).sum())

        y, cache = conv2d_forward(x, w, b)
        _, dw, db = conv2d_backward(proj, cache)
        assert rel_err(dw, numeric_grad(loss, w)) < 1e-7
        assert rel_err(db, numeric_grad(loss, b)) < 1e-7


class TestConvProperties:
    """The stacked-tap conv at random batch, channel and map sizes, in both dtypes."""

    TOLERANCE = {np.float64: 1e-12, np.float32: 1e-5}  # relative to the largest |value|

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 40), c=st.integers(1, 9), k=st.integers(1, 9),
           h=st.integers(1, 6), wd=st.integers(1, 11), tap=st.tuples(st.integers(0, 2),
                                                                    st.integers(0, 2)),
           dtype=st.sampled_from([np.float64, np.float32]), seed=st.integers(0, 2**32 - 1))
    def test_conv_properties(self, n, c, k, h, wd, tap, dtype, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(n, c, h, wd)).astype(dtype)
        # one non-zero tap (i, j), output channel k reading input channel
        # k % c: y is exactly the zero-padded input shifted by the tap, times
        # the weight, which an off-by-one border slice would break
        i, j = tap
        w = np.zeros((k, c, 3, 3), dtype)
        weight = rng.normal(size=k).astype(dtype)
        w[np.arange(k), np.arange(k) % c, i, j] = weight
        y, _ = conv2d_forward(x, w, np.zeros(k, dtype))
        shifted = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))[:, :, i:i + h, j:j + wd]
        assert np.array_equal(y, weight[None, :, None, None] * shifted[:, np.arange(k) % c])

        # a dense kernel: forward and dW equal float64 tensordot to rounding
        w = rng.normal(size=(k, c, 3, 3)).astype(dtype)
        b = rng.normal(size=k).astype(dtype)
        dy = rng.normal(size=(n, k, h, wd)).astype(dtype)
        y, cache = conv2d_forward(x, w, b)
        _, dw, db = conv2d_backward(dy, cache)
        ref_y, ref_dw = tensordot_conv(x, w, b, dy)
        assert y.dtype == dw.dtype == db.dtype == dtype
        assert rel_err(y, ref_y) < self.TOLERANCE[dtype]
        assert rel_err(dw, ref_dw) < self.TOLERANCE[dtype]

        # db is the C-order sum whatever dy's memory order; the model hands
        # the conv a batch-minor dy, which numpy would sum in another order
        assert db.tobytes() == dy.sum(axis=(0, 2, 3)).tobytes()
        batch_minor = np.ascontiguousarray(dy.transpose(1, 2, 3, 0)).transpose(3, 0, 1, 2)
        _, dw_bm, db_bm = conv2d_backward(batch_minor, cache)
        assert db_bm.tobytes() == db.tobytes()
        assert dw_bm.tobytes() == dw.tobytes()


# Reference kernels: the stacked-tap tensordot convolution, the argmax maxpool
# with its np.add.at scatter, and the masked np.copyto/np.where maxpool, that
# the optimized layers must reproduce bit for bit; and the window-view float64
# tensordot convolution, which the conv must match to rounding.

def ref_tap_slices(d, n):
    """(target, source) slices of tap offset d along an axis of n cells: the
    targets t whose source t + d lies inside [0, n)."""
    target = slice(max(0, -d), n - max(0, d))
    return target, slice(target.start + d, target.stop + d)


OFF_CENTRE_TAPS = [(i, j) for i in range(3) for j in range(3) if (i, j) != (1, 1)]


def ref_conv2d_forward(x, w, b, work=None):
    # the model passes its workspace; the reference allocates its own arrays.
    # z[i, j] = w[:, :, i, j] @ X for the unpadded input X (C, H*W*N); y is the
    # centre tap plus the bias, then each other tap's shifted z in row-major
    # order. y is returned C-order, so the layers after it run in the memory
    # order the model used before its batch-minor layout
    n, c, h, wd = x.shape
    xt = x.astype(w.dtype).transpose(1, 2, 3, 0).reshape(c, -1)
    z = np.tensordot(w.transpose(2, 3, 0, 1), xt, axes=1).reshape(3, 3, -1, h, wd, n)
    y = z[1, 1] + b[:, None, None, None]
    for i, j in OFF_CENTRE_TAPS:
        (ht, hs), (wt, ws) = ref_tap_slices(i - 1, h), ref_tap_slices(j - 1, wd)
        y[:, ht, wt] += z[i, j, :, hs, ws]
    return np.ascontiguousarray(y.transpose(3, 0, 1, 2)), (xt, w)


def ref_conv2d_backward(dy, cache):
    # the conv is the input layer: no dx, as in conv2d_backward. dW is the
    # stack of dy shifted by each tap, zero where the shift leaves the map,
    # times X.T; db sums the C-order dy
    xt, w = cache
    n, k, h, wd = dy.shape
    stack = np.zeros((3, 3, k, h, wd, n), w.dtype)
    for i in range(3):
        for j in range(3):
            (ht, hs), (wt, ws) = ref_tap_slices(i - 1, h), ref_tap_slices(j - 1, wd)
            stack[i, j, :, hs, ws] = dy.transpose(1, 2, 3, 0)[:, ht, wt]
    dw = (stack.reshape(9 * k, -1) @ xt.T).reshape(3, 3, k, -1).transpose(2, 3, 0, 1)
    return None, dw, np.ascontiguousarray(dy).sum(axis=(0, 2, 3))


def tensordot_conv(x, w, b, dy):
    """(y, dW) of the window-view tensordot over the zero-padded input, in float64."""
    x, w, b, dy = (np.asarray(a, np.float64) for a in (x, w, b, dy))
    windows = sliding_window_view(np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1))), (3, 3),
                                  axis=(2, 3))  # (N, C, H, W, 3, 3)
    y = np.tensordot(windows, w, axes=([1, 4, 5], [1, 2, 3]))
    dw = np.tensordot(dy, windows, axes=([0, 2, 3], [0, 2, 3]))
    return np.transpose(y, (0, 3, 1, 2)) + b[None, :, None, None], dw


def ref_maxpool2_forward(x):
    windows = sliding_window_view(x, (2, 2), axis=(2, 3))
    flat = windows.reshape(*windows.shape[:4], 4)
    arg = flat.argmax(axis=-1)
    return np.take_along_axis(flat, arg[..., None], axis=-1)[..., 0], (x.shape, arg)


def ref_maxpool2_backward(dy, cache):
    x_shape, arg = cache
    dx = np.zeros(x_shape, dy.dtype)
    di, dj = np.divmod(arg, 2)
    ni, ci, hi, wi = np.indices(dy.shape)
    np.add.at(dx, (ni, ci, hi + di, wi + dj), dy)
    return dx


def ref_masked_maxpool2_forward(x):
    # slice maximum, then arg overwritten by 2, 1, 0 where that slice equals it;
    # unlike argmax, a window holding NaN gets 3
    ho, wo = x.shape[2] - 1, x.shape[3] - 1
    s = [x[:, :, di:di + ho, dj:dj + wo] for di in (0, 1) for dj in (0, 1)]
    y = np.maximum(np.maximum(s[3], s[2]), np.maximum(s[1], s[0]))
    arg = np.full(y.shape, 3, dtype=np.int8)
    for a in (2, 1, 0):
        np.copyto(arg, a, where=s[a] == y)
    return y, (x.shape, arg)


def ref_masked_maxpool2_backward(dy, cache):
    x_shape, arg = cache
    ho, wo = dy.shape[2:]
    dx = np.zeros(x_shape, dy.dtype)
    for a in (3, 2, 1, 0):
        di, dj = divmod(a, 2)
        dx[:, :, di:di + ho, dj:dj + wo] += np.where(arg == a, dy, 0.0)
    return dx


TIES = st.sampled_from([-2.0, -1.0, -0.0, 0.0, 1.0, 2.0])
SMALL_MAPS = hnp.array_shapes(min_dims=4, max_dims=4, min_side=2, max_side=6)


class TestReferenceEquivalence:
    def test_maxpool_backward_matches_add_at_with_ties(self):
        rng = np.random.default_rng(11)
        # small integers make tied maxima common, so windows share argmax pixels
        x = rng.integers(-2, 3, size=(4, 3, 5, 10)).astype(float)
        dy = rng.integers(-3, 4, size=(4, 3, 4, 9)) + rng.normal(size=(4, 3, 4, 9))
        dy[0, 0] = -0.0  # a signed zero the byte comparison can see
        _, cache = maxpool2_forward(x)
        dx = maxpool2_backward(dy, cache)
        assert dx.tobytes() == ref_maxpool2_backward(dy, cache).tobytes()
        assert dx.tobytes() == ref_masked_maxpool2_backward(dy, cache).tobytes()

    @settings(max_examples=100, deadline=None)
    @given(x=hnp.arrays(np.float64, SMALL_MAPS, elements=TIES), data=st.data())
    def test_maxpool_backward_matches_add_at(self, x, data):
        # every window a tie, and dy full of +0.0 and -0.0: the unpicked
        # windows add dy * False, a signed zero, which must leave dx's bits alone
        n, c, h, w = x.shape
        dy = data.draw(hnp.arrays(np.float64, (n, c, h - 1, w - 1),
                                  elements=st.sampled_from([-1.5, -0.0, 0.0, 0.25, 3.0])))
        _, cache = maxpool2_forward(x)
        dx = maxpool2_backward(dy, cache)
        assert dx.tobytes() == ref_maxpool2_backward(dy, cache).tobytes()
        assert dx.tobytes() == ref_masked_maxpool2_backward(dy, cache).tobytes()

    @settings(max_examples=100, deadline=None)
    @given(x=hnp.arrays(np.float64, SMALL_MAPS, elements=TIES))
    def test_maxpool_forward_matches_argmax(self, x):
        # ties everywhere, +0.0 against -0.0 included: y keeps the sign of
        # argmax's first maximum
        y, (shape, arg) = maxpool2_forward(x)
        ref_y, (_, ref_arg) = ref_maxpool2_forward(x)
        assert shape == x.shape and arg.dtype == np.int8
        assert y.tobytes() == ref_y.tobytes()
        assert np.array_equal(arg, ref_arg)

    @settings(max_examples=100, deadline=None)
    @given(x=hnp.arrays(np.float64, SMALL_MAPS,
                        elements=st.sampled_from([-1.0, -0.0, 0.0, 1.0, np.nan])))
    def test_maxpool_forward_nan_windows_match_masked_copyto(self, x):
        y, (_, arg) = maxpool2_forward(x)
        ref_y, (_, ref_arg) = ref_masked_maxpool2_forward(x)
        assert y.tobytes() == ref_y.tobytes()
        assert arg.tobytes() == ref_arg.tobytes()
        # a NaN anywhere in a window makes its maximum NaN, and no slice equals it
        assert (arg[np.isnan(y)] == 3).all()

    def test_conv_forward_matches_tensordot(self):
        x = RNG.normal(size=(8, 122, 5, 10))
        w = RNG.normal(size=(122, 122, 3, 3))
        b = RNG.normal(size=122)
        dy = RNG.normal(size=(8, 122, 5, 10))
        y, cache = conv2d_forward(x, w, b)
        _, dw, _ = conv2d_backward(dy, cache)
        assert y.tobytes() == ref_conv2d_forward(x, w, b)[0].tobytes()
        # the window-view float64 tensordot sums in another order: equal to
        # rounding (measured: about 1e-15 relative)
        ref_y, ref_dw = tensordot_conv(x, w, b, dy)
        assert rel_err(y, ref_y) < 1e-14
        assert rel_err(dw, ref_dw) < 1e-14

    def test_conv_matches_im2col_dot_over_batch_sizes(self):
        # the stacked-tap reference at every batch size from 1 to 70, in both
        # dtypes: the same GEMMs, so the same bits, batch sizes 1 and 2 included
        rng = np.random.default_rng(3)
        for dtype in (np.float64, np.float32):
            w = (rng.normal(size=(122, 122, 3, 3)) * 0.05).astype(dtype)
            b = rng.normal(size=122).astype(dtype)
            for n in range(1, 71):
                x = rng.normal(size=(n, 122, 5, 10))
                dy = rng.normal(size=(n, 122, 5, 10)).astype(dtype)
                y, cache = conv2d_forward(x, w, b)
                _, dw, db = conv2d_backward(dy, cache)
                ref_y, ref_cache = ref_conv2d_forward(x, w, b)
                _, ref_dw, ref_db = ref_conv2d_backward(dy, ref_cache)
                assert y.tobytes() == ref_y.tobytes(), (dtype, n)
                assert dw.tobytes() == ref_dw.tobytes(), (dtype, n)
                assert db.tobytes() == ref_db.tobytes(), (dtype, n)

    def test_conv_casts_float32_input_exactly(self):
        x = RNG.normal(size=(5, 4, 5, 10)).astype(np.float32)
        w = RNG.normal(size=(3, 4, 3, 3))
        b = RNG.normal(size=3)
        y, _ = conv2d_forward(x, w, b)
        assert y.dtype == np.float64
        assert y.tobytes() == conv2d_forward(x.astype(np.float64), w, b)[0].tobytes()

    @pytest.mark.parametrize("channels", [122, 366])
    @pytest.mark.parametrize("batch", [21, 22, 32, 47])
    def test_loss_and_grads_bit_identical(self, batch, channels, monkeypatch):
        # a float64 and a float32 model, each against the reference kernels
        rng = np.random.default_rng(channels + batch)
        x = rng.normal(size=(batch, channels, 5, 10))
        labels = rng.integers(0, 13, size=batch)
        results = {}
        for ref in (False, True):
            if ref:
                monkeypatch.setattr(nn, "conv2d_forward", ref_conv2d_forward)
                monkeypatch.setattr(nn, "conv2d_backward", ref_conv2d_backward)
                monkeypatch.setattr(nn, "maxpool2_forward", ref_maxpool2_forward)
                monkeypatch.setattr(nn, "maxpool2_backward", ref_maxpool2_backward)
            for dtype in (np.float64, np.float32):
                model = CnnModel(in_channels=channels, seed=1, dtype=dtype)
                results[ref, dtype] = model.loss_and_grads(x.astype(dtype), labels,
                                                           np.random.default_rng(5))
        for dtype in (np.float64, np.float32):
            (loss, grads), (ref_loss, ref_grads) = results[False, dtype], results[True, dtype]
            assert loss == ref_loss, dtype
            for name in grads:
                assert grads[name].dtype == dtype, name
                assert grads[name].tobytes() == ref_grads[name].tobytes(), (dtype, name)

    @pytest.mark.parametrize("channels", [122, 366])
    def test_train_matches_reference_kernels(self, channels, monkeypatch):
        # two epochs of pipeline.train over 54 float32 samples (as ``train``
        # gets them) and their float64 casts: a full batch of 32 and a partial
        # one of 22 per epoch, then a prediction of the validation set, all of
        # it the same bits with the reference kernels
        rng = np.random.default_rng(channels)
        train_x = rng.normal(size=(54, channels, 5, 10)).astype(np.float32)
        train_y = rng.integers(0, 13, size=54)
        val_x = rng.normal(size=(9, channels, 5, 10)).astype(np.float32)
        val_y = rng.integers(0, 13, size=9)
        config = pipeline.TrainConfig(epochs=2, batch_size=32, seed=3, lr=1e-3)
        results = {}
        for ref in (False, True):
            if ref:
                for name, kernel in [("conv2d_forward", ref_conv2d_forward),
                                     ("conv2d_backward", ref_conv2d_backward),
                                     ("maxpool2_forward", ref_maxpool2_forward),
                                     ("maxpool2_backward", ref_maxpool2_backward)]:
                    monkeypatch.setattr(nn, name, kernel)
            for dtype in (np.float64, np.float32):
                results[ref, dtype] = pipeline.train(train_x.astype(dtype), train_y,
                                                     val_x.astype(dtype), val_y, config)
        for dtype in (np.float64, np.float32):
            (model, history), (ref_model, ref_history) = results[False, dtype], results[True, dtype]
            assert [h.train_loss.hex() for h in history] == \
                [h.train_loss.hex() for h in ref_history]
            assert [h.val_acc for h in history] == [h.val_acc for h in ref_history]
            for name, value in model.params.items():
                assert value.dtype == dtype, name
                assert value.tobytes() == ref_model.params[name].tobytes(), (dtype, name)


class TestWorkspace:
    def test_take_grows_and_reuses(self):
        work = Workspace()
        a = work.take("cols", (3, 4))
        b = work.take("cols", (2, 5))
        assert b.flags.c_contiguous and b.shape == (2, 5)
        assert np.shares_memory(a, b)  # a smaller request reuses the buffer
        c = work.take("cols", (4, 4))
        assert not np.shares_memory(a, c)  # a larger one grows it
        assert not np.shares_memory(c, work.take("padded", (4, 4)))

    def test_a_training_step_holds_only_the_input_and_one_tap_buffer(self):
        # the weight gradient's shifted-dy stack reuses the forward's tap buffer
        model = CnnModel(in_channels=6, seed=0, conv_channels=4, hidden=3)
        x = RNG.normal(size=(7, 6, 5, 10))
        model.loss_and_grads(x, np.arange(7), np.random.default_rng(0))
        sizes = {name: buf.size for name, buf in model._work._bufs.items()}
        assert sizes == {"input": 6 * 7 * 50, "taps": 9 * 4 * 7 * 50}

    def test_forward_restores_the_ufunc_buffer_size(self):
        before = np.getbufsize()
        conv2d_forward(RNG.normal(size=(2, 3, 5, 10)), RNG.normal(size=(4, 3, 3, 3)), np.zeros(4))
        assert np.getbufsize() == before

    def test_conv_with_workspace_matches_fresh_buffers(self):
        # batch sizes up, down and repeated, over buffers left full of garbage,
        # against the reference's zero-filled stack: the backward builds its
        # shifted-dy stack over the forward's taps, so it zeroes each tap's
        # border itself and rewrites every other cell
        rng = np.random.default_rng(9)
        w = rng.normal(size=(6, 5, 3, 3))
        b = rng.normal(size=6)
        work = Workspace()
        for name, size in (("input", 5 * 70 * 50), ("taps", 9 * 6 * 70 * 50)):
            work.take(name, (size,))[:] = np.nan
        for n in (3, 70, 70, 5, 33, 33, 4):
            x = rng.normal(size=(n, 5, 5, 10))
            dy = rng.normal(size=(n, 6, 5, 10))
            y, cache = conv2d_forward(x, w, b, work)
            _, dw, db = conv2d_backward(dy, cache)
            ref_y, ref_cache = ref_conv2d_forward(x, w, b)
            _, ref_dw, ref_db = ref_conv2d_backward(dy, ref_cache)
            assert y.tobytes() == ref_y.tobytes(), n
            assert dw.tobytes() == ref_dw.tobytes(), n
            assert db.tobytes() == ref_db.tobytes(), n

    def test_model_passes_do_not_leak_into_each_other(self):
        # one model through the desk set's batch sequence, a full training
        # batch of 32, the partial one of 22 and a 15-sample prediction, twice:
        # each pass has the bits of the same pass on a fresh model, so no
        # buffer (the shifted-dy stack's zero border included) carries over.
        # A small float64 model, then the float32 model at C = 366
        rng = np.random.default_rng(4)
        for in_channels, conv_channels, hidden, dtype in [
                (8, 6, 5, np.float64), (366, nn.CONV_CHANNELS, nn.HIDDEN, np.float32)]:
            x = rng.normal(size=(32, in_channels, 5, 10)).astype(dtype)
            labels = rng.integers(0, 13, size=32)

            def new_model():
                return CnnModel(in_channels=in_channels, seed=2, conv_channels=conv_channels,
                                hidden=hidden, dtype=dtype)

            def run(model, n, seed):
                if n == 15:
                    return [model.predict(x[:n]).tobytes()]
                loss, grads = model.loss_and_grads(x[:n], labels[:n],
                                                   np.random.default_rng(seed))
                return [loss, *(grads[name].tobytes() for name in sorted(grads))]

            used = new_model()
            for seed, n in enumerate((32, 22, 15, 32, 22, 15)):
                assert run(used, n, seed) == run(new_model(), n, seed), (in_channels, seed, n)

    @staticmethod
    def assert_steps_allocate_no_im2col_buffer(dtype):
        # after the first step, a C = 366 step of the same or a smaller batch,
        # and the full batch after them, allocates less than half of an array
        # of the im2col matrix's 9*C*N*H*W elements, partial batches whose
        # N*H*W is not a multiple of 8 included
        rng = np.random.default_rng(6)
        model = CnnModel(in_channels=366, seed=0, dtype=dtype)
        x = rng.normal(size=(32, 366, 5, 10)).astype(np.float32)
        labels = rng.integers(0, 13, size=32)
        gen = np.random.default_rng(0)
        model.loss_and_grads(x, labels, gen)
        cols_bytes = 366 * 9 * 32 * 50 * np.dtype(dtype).itemsize
        tracemalloc.start()
        try:
            for n in (32, 24, 22, 21, 32):
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
                model.loss_and_grads(x[:n], labels[:n], gen)
                assert tracemalloc.get_traced_memory()[1] - base < cols_bytes / 2, n
        finally:
            tracemalloc.stop()

    def test_training_step_allocates_no_im2col_buffer(self):
        self.assert_steps_allocate_no_im2col_buffer(np.float64)

    def test_float32_training_step_allocates_no_im2col_buffer(self):
        self.assert_steps_allocate_no_im2col_buffer(np.float32)

    def test_a_training_step_holds_only_live_arrays(self, monkeypatch):
        # two epochs of float32 C = 366 steps through pipeline.train, four
        # batches of 32 each, every batch a fresh array read from an in-memory
        # TensorView. At each Adam step the memory held between steps is
        # what is traced less that step's gradients. Above it, reading the
        # next batch and running its step (and, at an epoch's end, validation)
        # may trace no more than the conv's weight-gradient GEMM needs live:
        # one step's gradients, the conv's dy and the (9K, C) dW the GEMM
        # returns beside its (K, C, 3, 3) copy. The margin is one byte per
        # conv unit, a ReLU mask's size, for the arrays of a few KiB (FC
        # activations, biases, labels) and the forward's peak in maxpool, which
        # holds the batch, the ReLU and dropout masks, maxpool's input and its
        # work arrays. The previous step's gradients, the batch, the used
        # cache entries, or a used activation or gradient of the conv's size
        # left alive would each cross it
        n, c, k = 4 * 32, 366, nn.CONV_CHANNELS
        rng = np.random.default_rng(8)
        frames = rng.normal(size=(n, 122, 49, 3)).astype(np.float32)
        labels = rng.integers(0, 13, size=n)
        mode = pipeline.AblationMode.NORMAL_AND_SHEAR
        stats = pipeline.NormalizationStats(mode, mean=np.zeros(3), std=np.ones(3))
        train_x = pipeline.TensorView(frames.__getitem__, range(n), mode, stats)
        val_x = pipeline.TensorView(frames.__getitem__, range(32), mode, stats)
        steps = []
        step = AdamState.step

        def traced_step(adam, params, grads):
            current, peak = tracemalloc.get_traced_memory()
            steps.append((current - sum(g.nbytes for g in grads.values()), peak))
            step(adam, params, grads)
            tracemalloc.reset_peak()
        monkeypatch.setattr(AdamState, "step", traced_step)
        config = pipeline.TrainConfig(epochs=2, batch_size=32, seed=0, lr=1e-3)
        tracemalloc.start()
        try:
            _, history = pipeline.train(train_x, labels, val_x, labels[:32], config)
        finally:
            tracemalloc.stop()
        assert len(steps) == 8 and len(history) == 2
        itemsize = np.dtype(np.float32).itemsize
        gradients = sum(math.prod(s) for s in nn.param_shapes(c).values()) * itemsize
        units = 32 * k * 5 * 10  # of the conv's output
        dw = 9 * k * c * itemsize
        bound = gradients + units * itemsize + dw + units
        for i, (held, peak) in enumerate(steps[1:], 1):  # the first step grows the buffers
            assert peak - held <= bound, (i, (peak - held) / 2**20, bound / 2**20)


LAYERS = ("conv2d_forward", "conv2d_backward", "maxpool2_forward", "maxpool2_backward",
          "relu_forward", "relu_backward", "dropout_mask", "dropout_forward",
          "dropout_backward", "linear_forward", "linear_backward", "softmax_cross_entropy")


def all_arrays(value):
    """Every array in a nested tuple or list, such as a forward's cache."""
    if isinstance(value, np.ndarray):
        return [value]
    if isinstance(value, (tuple, list)):
        return [a for v in value for a in all_arrays(v)]
    return []


def float_arrays(value):
    """Every floating-point array in a layer's result, caches included."""
    return [a for a in all_arrays(value) if a.dtype.kind == "f"]


class TestFloat32:
    @pytest.mark.parametrize("channels", [122, 366])
    def test_no_float64_leaks_into_a_training_step(self, channels, monkeypatch):
        # every array a float32 step forms or keeps is float32: each layer's
        # outputs and caches (the dropout mask and maxpool's dx among them),
        # the gradients, the parameters, Adam's moments and block buffers and
        # the conv workspace, over a full batch and a partial one
        rng = np.random.default_rng(channels)
        x = rng.normal(size=(32, channels, 5, 10)).astype(np.float32)
        labels = rng.integers(0, 13, size=32)
        formed = {}

        def recording(name, layer):
            def wrapped(*args, **kwargs):
                result = layer(*args, **kwargs)
                formed.setdefault(name, []).extend(float_arrays(result))
                return result
            return wrapped
        for name in LAYERS:
            monkeypatch.setattr(nn, name, recording(name, getattr(nn, name)))
        model = CnnModel(in_channels=channels, seed=0, dtype=np.float32)
        adam = AdamState()
        gen = np.random.default_rng(1)
        for n in (32, 22):
            _, grads = model.loss_and_grads(x[:n], labels[:n], gen)
            adam.step(model.params, grads)
        assert set(formed) == set(LAYERS)
        for name, arrays in formed.items():
            assert {a.dtype for a in arrays} == {np.dtype(np.float32)}, name
        kept = [*grads.values(), *model.params.values(), *adam.m.values(), *adam.v.values(),
                *adam._work, *model._work._bufs.values()]
        assert len(model._work._bufs) == 2 and len(adam._work) == 2
        assert {a.dtype for a in kept} == {np.dtype(np.float32)}

    @pytest.mark.parametrize("channels", [122, 366])
    def test_gradients_agree_with_float64(self, channels):
        # the same rounded parameters and inputs in both dtypes, no dropout
        rng = np.random.default_rng(channels + 1)
        x = rng.normal(size=(22, channels, 5, 10)).astype(np.float32)
        labels = rng.integers(0, 13, size=22)
        model32 = CnnModel(in_channels=channels, seed=4, dtype=np.float32)
        model64 = CnnModel(in_channels=channels, seed=4)
        model64.set_params(model32.params)
        loss32, grads32 = model32.loss_and_grads(x, labels)
        loss64, grads64 = model64.loss_and_grads(x, labels)
        # bounds of about 10 (loss) and 100 (gradients) float32 epsilons;
        # measured: the loss within 5e-8 and every gradient within 5e-7 relative
        assert loss32 == pytest.approx(loss64, rel=1e-6)
        for name in grads64:
            assert rel_err(grads32[name], grads64[name]) < 1e-5, name

    def test_model_casts_the_float64_draw(self):
        model32 = CnnModel(in_channels=8, seed=2, conv_channels=6, hidden=5, dtype=np.float32)
        model64 = CnnModel(in_channels=8, seed=2, conv_channels=6, hidden=5)
        for name, value in model64.params.items():
            assert model32.params[name].tobytes() == value.astype(np.float32).tobytes(), name
        model32.set_params(model64.params)
        assert all(v.dtype == np.float32 for v in model32.params.values())

    def test_given_params_draw_nothing(self, monkeypatch):
        # a checkpoint's model starts from its parameters: the same model as
        # drawing weights and overwriting them, without the draw
        drawn = CnnModel(in_channels=8, seed=2, conv_channels=6, hidden=5)
        assert nn.param_shapes(8, conv_channels=6, hidden=5) == shapes_of(drawn)
        assert nn.param_shapes(366) == shapes_of(CnnModel(in_channels=366))
        overwritten = CnnModel(in_channels=8, conv_channels=6, hidden=5, dtype=np.float32)
        overwritten.set_params(drawn.params)

        def no_draw(*args):
            raise AssertionError("a model given its parameters must not draw any")
        monkeypatch.setattr(CnnModel, "_kaiming", no_draw)
        given = CnnModel(in_channels=8, conv_channels=6, hidden=5, dtype=np.float32,
                         params=drawn.params)
        assert list(given.params) == list(overwritten.params)
        for name, value in overwritten.params.items():
            assert given.params[name].dtype == np.float32, name
            assert given.params[name].tobytes() == value.tobytes(), name

    def test_float32_dropout_mask_draws_float32_uniforms(self):
        mask = dropout_mask((4, 50), np.random.default_rng(3), np.float32)
        uniforms = np.random.default_rng(3).random((4, 50), dtype=np.float32)
        assert mask.dtype == np.float32
        assert np.array_equal(mask, np.where(uniforms >= nn.DROPOUT_P, 2.0, 0.0))


class TestMaxpool:
    def test_constant(self):
        y, _ = maxpool2_forward(np.full((1, 1, 3, 4), 2.5))
        assert y.shape == (1, 1, 2, 3)
        assert (y == 2.5).all()

    def test_picks_max(self):
        x = np.arange(12, dtype=float).reshape(1, 1, 3, 4)
        y, _ = maxpool2_forward(x)
        assert np.array_equal(y[0, 0], [[5, 6, 7], [9, 10, 11]])

    def test_too_small(self):
        with pytest.raises(ShapeError):
            maxpool2_forward(np.zeros((1, 1, 1, 4)))

    def test_gradients(self):
        # nudge inputs apart so the argmax is unambiguous at fd scale
        x = RNG.permuted(np.arange(2 * 2 * 4 * 5, dtype=float)).reshape(2, 2, 4, 5) * 0.1
        proj = RNG.normal(size=(2, 2, 3, 4))

        def loss():
            y, _ = maxpool2_forward(x)
            return float((y * proj).sum())

        _, cache = maxpool2_forward(x)
        dx = maxpool2_backward(proj, cache)
        assert rel_err(dx, numeric_grad(loss, x)) < 1e-7


class TestReluDropoutLinear:
    def test_relu(self):
        y, mask = relu_forward(np.array([-1.0, 0.0, 2.0]))
        assert y.tolist() == [0.0, 0.0, 2.0]
        assert relu_backward(np.ones(3), mask).tolist() == [0.0, 0.0, 1.0]

    def test_dropout_eval_identity(self):
        x = RNG.normal(size=(3, 4))
        assert dropout_forward(x, None) is x
        assert dropout_backward(x, None) is x

    def test_dropout_inverted_scaling(self):
        x = np.ones((1000, 10))
        mask = dropout_mask(x.shape, np.random.default_rng(0))
        assert set(np.unique(mask)) == {0.0, 2.0}  # pre-scaled by 1/(1-p)
        y = dropout_forward(x, mask)
        # survivors are scaled by 2, zeros elsewhere; mean stays near 1
        assert set(np.unique(y)) <= {0.0, 2.0}
        assert y.mean() == pytest.approx(1.0, abs=0.05)
        dy = dropout_backward(np.ones_like(x), mask)
        assert np.array_equal(dy, y)

    def test_linear(self):
        x = np.array([[1.0, 2.0]])
        w = np.array([[3.0, 4.0], [5.0, 6.0], [7.0, 8.0]])
        b = np.array([0.5, -0.5, 0.0])
        y, _ = linear_forward(x, w, b)
        assert np.allclose(y, [[11.5, 16.5, 23.0]])

    def test_linear_gradients(self):
        x = RNG.normal(size=(4, 6))
        w = RNG.normal(size=(3, 6))
        b = RNG.normal(size=3)
        proj = RNG.normal(size=(4, 3))

        def loss():
            y, _ = linear_forward(x, w, b)
            return float((y * proj).sum())

        _, cache = linear_forward(x, w, b)
        dx, dw, db = linear_backward(proj, cache)
        assert rel_err(dx, numeric_grad(loss, x)) < 1e-8
        assert rel_err(dw, numeric_grad(loss, w)) < 1e-8
        assert rel_err(db, numeric_grad(loss, b)) < 1e-8

    def test_linear_shape_mismatch(self):
        with pytest.raises(ShapeError):
            linear_forward(np.zeros((2, 5)), np.zeros((3, 6)), np.zeros(3))


class TestSoftmaxCrossEntropy:
    @staticmethod
    def softmax(logits, labels):
        # grad = (softmax - onehot) / N, so N * grad + onehot is the softmax
        _, grad = softmax_cross_entropy(logits, labels)
        p = len(logits) * grad
        p[np.arange(len(logits)), labels] += 1.0
        return p

    def test_softmax_uniform(self):
        assert np.allclose(self.softmax(np.zeros((2, 13)), [0, 7]), 1 / 13)

    def test_softmax_shift_invariant(self):
        z = RNG.normal(size=(3, 13))
        labels = [1, 5, 12]
        assert np.allclose(self.softmax(z, labels), self.softmax(z + 100.0, labels))
        loss, _ = softmax_cross_entropy(z, labels)
        assert loss == pytest.approx(softmax_cross_entropy(z + 100.0, labels)[0])

    def test_softmax_stable_at_extremes(self):
        logits = np.array([[1e4, 0.0, -1e4]])
        for label in range(3):
            loss, _ = softmax_cross_entropy(logits, [label])
            p = self.softmax(logits, [label])
            assert np.isfinite(loss) and np.isfinite(p).all()
            assert p.sum() == pytest.approx(1.0)

    def test_uniform_logits_loss(self):
        loss, grad = softmax_cross_entropy(np.zeros((1, 13)), [4])
        assert loss == pytest.approx(np.log(13))
        expected = np.full((1, 13), 1 / 13)
        expected[0, 4] -= 1.0
        assert np.allclose(grad, expected)

    def test_batch_mean(self):
        logits = RNG.normal(size=(5, 13))
        labels = np.array([0, 3, 7, 12, 5])
        loss, grad = softmax_cross_entropy(logits, labels)
        singles = [softmax_cross_entropy(logits[i:i + 1], labels[i:i + 1]) for i in range(5)]
        assert loss == pytest.approx(np.mean([s[0] for s in singles]))
        assert np.allclose(grad, np.concatenate([s[1] for s in singles]) / 5)

    def test_gradient(self):
        logits = RNG.normal(size=(3, 13))
        labels = np.array([2, 9, 11])

        def loss():
            return softmax_cross_entropy(logits, labels)[0]

        _, grad = softmax_cross_entropy(logits, labels)
        assert rel_err(grad, numeric_grad(loss, logits)) < 1e-7

    def test_label_out_of_range(self):
        with pytest.raises(ValueError):
            softmax_cross_entropy(np.zeros((1, 13)), [13])


class TestCnnModel:
    def tiny(self, seed=0):
        return CnnModel(in_channels=3, seed=seed, conv_channels=4, hidden=7)

    def test_shapes(self):
        model = self.tiny()
        assert shapes_of(model) == {
            "conv_w": (4, 3, 3, 3), "conv_b": (4,),
            "fc1_w": (7, 4 * 4 * 9), "fc1_b": (7,),
            "fc2_w": (13, 7), "fc2_b": (13,),
        }

    def test_full_scale_flat_dim(self):
        assert nn.param_shapes(122)["fc1_w"][1] == 4392
        assert shapes_of(CnnModel(in_channels=122))["fc1_w"] == (100, 4392)

    def test_forward_shape_and_determinism(self):
        model = self.tiny()
        x = RNG.normal(size=(6, 3, 5, 10))
        a, _ = model.forward(x)
        b, _ = model.forward(x)
        assert a.shape == (6, 13)
        assert np.array_equal(a, b)

    def test_seed_reproducible_init(self):
        a, b = self.tiny(5), self.tiny(5)
        for k in a.params:
            assert np.array_equal(a.params[k], b.params[k])
        c = self.tiny(6)
        assert not np.array_equal(a.params["conv_w"], c.params["conv_w"])

    def test_bad_input_shape(self):
        with pytest.raises(ShapeError):
            self.tiny().forward(np.zeros((2, 3, 5, 9)))

    def test_same_generator_same_loss_and_grads(self):
        model = self.tiny(2)
        x = RNG.normal(size=(4, 3, 5, 10))
        labels = np.array([0, 5, 9, 12])
        loss_a, grads_a = model.loss_and_grads(x, labels, np.random.default_rng(11))
        loss_b, grads_b = model.loss_and_grads(x, labels, np.random.default_rng(11))
        assert loss_a == loss_b
        for name in grads_a:
            assert grads_a[name].tobytes() == grads_b[name].tobytes(), name
        loss_c, _ = model.loss_and_grads(x, labels, np.random.default_rng(12))
        loss_d, _ = model.loss_and_grads(x, labels)  # inference: no dropout
        assert len({loss_a, loss_c, loss_d}) == 3

    def test_end_to_end_gradients(self):
        # finite differences against backprop, one freshly seeded dropout
        # generator per pass so every pass draws the same mask
        model = self.tiny(3)
        x = RNG.normal(size=(2, 3, 5, 10))
        labels = np.array([1, 8])
        _, grads = model.loss_and_grads(x, labels, np.random.default_rng(7))

        for name in model.params:
            p = model.params[name]

            def loss():
                l, _ = model.loss_and_grads(x, labels, np.random.default_rng(7))
                return l

            num = numeric_grad(loss, p, step=1e-5)
            assert rel_err(grads[name], num) < 1e-4, name

    def test_clone_set_params(self):
        a, b = self.tiny(0), self.tiny(1)
        b.set_params(a.clone_params())
        x = RNG.normal(size=(2, 3, 5, 10))
        assert np.array_equal(a.forward(x)[0], b.forward(x)[0])

    def test_predict_matches_argmax(self):
        model = self.tiny()
        x = RNG.normal(size=(4, 3, 5, 10))
        logits, _ = model.forward(x)
        assert np.array_equal(model.predict(x), logits.argmax(axis=1))

    @staticmethod
    def plain_logits(model, x, dropout_rng=None):
        """The model's layers composed by hand, over (N, C, H, W) values."""
        p = model.params
        h, _ = conv2d_forward(x, p["conv_w"], p["conv_b"])
        h = relu_forward(h)[0]
        if dropout_rng is not None:
            h = dropout_forward(h, dropout_mask(h.shape, dropout_rng))
        h, _ = maxpool2_forward(h)
        # flattened from a C-order copy, as the model does: a GEMM's bits depend
        # on its operands' memory order, and the maxpool output is batch-minor
        flat = np.ascontiguousarray(h).reshape(len(x), -1)
        h, _ = relu_forward(linear_forward(flat, p["fc1_w"], p["fc1_b"])[0])
        return linear_forward(h, p["fc2_w"], p["fc2_b"])[0]

    def test_forward_without_generator_is_inference(self):
        # no generator, no dropout: the logits are the plain layer composition,
        # and predict takes their argmax
        model = self.tiny(4)
        x = RNG.normal(size=(5, 3, 5, 10))
        ref = self.plain_logits(model, x)
        logits, _ = model.forward(x)
        assert logits.tobytes() == ref.tobytes()
        assert np.array_equal(model.predict(x), ref.argmax(axis=1))

    def test_dropout_mask_is_drawn_over_nchw_units(self):
        # the mask is one dropout_mask draw of the conv output's (N, K, H, W)
        # shape, so each uniform drops the unit it indexes in that order,
        # whatever memory order the model keeps the conv output in
        model = self.tiny(4)
        x = RNG.normal(size=(5, 3, 5, 10))
        logits, _ = model.forward(x, np.random.default_rng(8))
        assert logits.tobytes() == self.plain_logits(model, x, np.random.default_rng(8)).tobytes()

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_backward_matches_loss_and_grads_and_empties_the_cache(self, dtype):
        # backward over a forward's cache gives loss_and_grads' bits and pops
        # every entry; a backward over list(cache) first leaves the entries
        # usable, so the second gives the same bits
        rng = np.random.default_rng(13)
        model = CnnModel(in_channels=122, seed=3, dtype=dtype)
        x = rng.normal(size=(22, 122, 5, 10)).astype(dtype)
        labels = rng.integers(0, 13, size=22)
        loss, grads = model.loss_and_grads(x, labels, np.random.default_rng(5))
        logits, cache = model.forward(x, np.random.default_rng(5))
        forward_loss, dlogits = softmax_cross_entropy(logits, labels)
        assert forward_loss == loss
        copied = model.backward(dlogits, list(cache))
        again = model.backward(dlogits, cache)
        assert cache == []
        for result in (copied, again):
            assert list(result) == list(grads)
            for name, value in grads.items():
                assert result[name].dtype == dtype, name
                assert result[name].tobytes() == value.tobytes(), (dtype, name)


class TestAdam:
    def test_single_step_closed_form(self):
        # first step moves each coordinate by ~lr * sign(g)
        params = {"w": np.array([1.0, -2.0])}
        grads = {"w": np.array([0.3, -0.7])}
        opt = AdamState(lr=1e-2)
        opt.step(params, grads)
        expected = np.array([1.0, -2.0]) - 1e-2 * np.sign([0.3, -0.7])
        assert np.allclose(params["w"], expected, atol=1e-6)

    def test_matches_reference_sequence(self):
        rng = np.random.default_rng(4)
        params = {"w": rng.normal(size=(3, 2)), "b": rng.normal(size=2)}
        ref = {k: v.copy() for k, v in params.items()}
        opt = AdamState(lr=1e-3)
        m = {k: np.zeros_like(v) for k, v in ref.items()}
        v = {k: np.zeros_like(val) for k, val in ref.items()}
        for t in range(1, 21):
            grads = {k: rng.normal(size=val.shape) for k, val in ref.items()}
            opt.step(params, {k: g.copy() for k, g in grads.items()})
            for k in ref:
                m[k] = 0.9 * m[k] + 0.1 * grads[k]
                v[k] = 0.999 * v[k] + 0.001 * grads[k] ** 2
                mh = m[k] / (1 - 0.9**t)
                vh = v[k] / (1 - 0.999**t)
                ref[k] -= 1e-3 * mh / (np.sqrt(vh) + 1e-8)
        for k in ref:
            assert np.allclose(params[k], ref[k], atol=1e-12)

    def test_bit_identical_to_out_of_place_update(self):
        rng = np.random.default_rng(9)
        params = {"w": rng.normal(size=(40, 30)), "b": rng.normal(size=30)}
        ref = {k: v.copy() for k, v in params.items()}
        m = {k: np.zeros_like(v) for k, v in ref.items()}
        v = {k: np.zeros_like(val) for k, val in ref.items()}
        opt = AdamState(lr=1e-3)
        for t in range(1, 6):
            grads = {k: rng.normal(size=val.shape) for k, val in ref.items()}
            opt.step(params, grads)
            for k in ref:
                m[k] = 0.9 * m[k] + (1 - 0.9) * grads[k]
                v[k] = 0.999 * v[k] + (1 - 0.999) * grads[k] * grads[k]
                ref[k] -= 1e-3 * (m[k] / (1 - 0.9**t)) / (np.sqrt(v[k] / (1 - 0.999**t)) + 1e-8)
            for k in ref:
                assert params[k].tobytes() == ref[k].tobytes(), (t, k)

    def test_blocked_update_bit_identical(self):
        # one parameter spans two full blocks and a ragged tail, one is a single
        # partial block
        rng = np.random.default_rng(12)
        params = {"w": rng.normal(size=(2 * nn._ADAM_BLOCK + 123,)).reshape(-1, 1),
                  "b": rng.normal(size=7)}
        ref = {k: v.copy() for k, v in params.items()}
        m = {k: np.zeros_like(v) for k, v in ref.items()}
        v = {k: np.zeros_like(val) for k, val in ref.items()}
        opt = AdamState(lr=1e-3)
        for t in range(1, 4):
            grads = {k: rng.normal(size=val.shape) for k, val in ref.items()}
            opt.step(params, grads)
            for k in ref:
                m[k] = 0.9 * m[k] + (1 - 0.9) * grads[k]
                v[k] = 0.999 * v[k] + (1 - 0.999) * grads[k] * grads[k]
                ref[k] -= 1e-3 * (m[k] / (1 - 0.9**t)) / (np.sqrt(v[k] / (1 - 0.999**t)) + 1e-8)
            for k in ref:
                assert params[k].tobytes() == ref[k].tobytes(), (t, k)

    def test_param_without_flat_view_raises(self):
        # a transposed parameter would be flattened into a copy; updating the
        # copy would silently leave the parameter unchanged
        w = np.ones((3, 4)).T
        with pytest.raises(ShapeError):
            AdamState().step({"w": w}, {"w": np.ones((4, 3))})
        assert (w == 1.0).all()

    def test_zero_grad_no_move(self):
        params = {"w": np.array([1.0, 2.0])}
        opt = AdamState()
        opt.step(params, {"w": np.zeros(2)})
        assert np.array_equal(params["w"], [1.0, 2.0])

    def test_shape_mismatch(self):
        opt = AdamState()
        with pytest.raises(ShapeError):
            opt.step({"w": np.zeros(3)}, {"w": np.zeros(4)})

    def test_descends_quadratic(self):
        params = {"w": np.array([5.0, -3.0])}
        opt = AdamState(lr=0.05)
        for _ in range(2000):
            opt.step(params, {"w": 2 * params["w"]})
        assert np.abs(params["w"]).max() < 1e-2
