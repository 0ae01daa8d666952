import itertools
import re

import numpy as np
import pytest

from emotionforge import nn
from emotionforge.errors import NonFiniteActivationError, ShapeMismatchError, StaleCacheError
from emotionforge.rng import Prng
from helpers import UNWALKABLE, traced_peak, unwalkable_model


def rnd(shape, seed, scale=1.0, dtype=np.float64):
    n = int(np.prod(shape))
    return (Prng(seed).normal(n).reshape(shape) * scale).astype(dtype)


def fd_grad(f, tensor, eps=1e-6):
    """Central finite differences of scalar f() w.r.t. every tensor entry."""
    g = np.zeros_like(tensor)
    flat = tensor.reshape(-1)
    gf = g.reshape(-1)
    for i in range(flat.size):
        keep = flat[i]
        flat[i] = keep + eps
        up = f()
        flat[i] = keep - eps
        down = f()
        flat[i] = keep
        gf[i] = (up - down) / (2 * eps)
    return g


def max_rel_err(a, b):
    denom = np.abs(a) + np.abs(b)
    scale = np.where(denom < 1e-8, 1.0, denom)
    return float((np.abs(a - b) / scale).max())


class TestConv:
    def test_identity_kernel(self):
        x = rnd((2, 1, 5, 5), 0)
        w = np.ones((1, 1, 1, 1))
        y = nn.conv2d_forward(x, w, np.zeros(1), stride=1, pad=0)
        assert np.array_equal(y, x)

    def test_all_ones_kernel_on_constant(self):
        x = np.full((1, 1, 6, 6), 3.0)
        w = np.ones((1, 1, 3, 3))
        y = nn.conv2d_forward(x, w, np.array([2.0]), stride=1, pad=0)
        assert np.allclose(y, 9 * 3.0 + 2.0)

    def test_shape_formula(self):
        x = np.zeros((1, 1, 128, 128), dtype=np.float32)
        w = np.zeros((32, 1, 5, 5), dtype=np.float32)
        y = nn.conv2d_forward(x, w, np.zeros(32, dtype=np.float32), stride=2, pad=2)
        assert y.shape == (1, 32, 64, 64)

    def test_channel_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            nn.conv2d_forward(np.zeros((1, 3, 8, 8)), np.zeros((4, 2, 3, 3)),
                              np.zeros(4), 1, 1)

    def test_backward_scalar_case(self):
        x = np.array([[[[2.0]]]])
        w = np.array([[[[3.0]]]])
        dx, dw, db = nn.conv2d_backward(x, w, np.array([[[[5.0]]]]), 1, 0)
        assert (dx.item(), dw.item(), db.item()) == (15.0, 10.0, 5.0)

    def test_backward_zero_upstream(self):
        x = rnd((1, 2, 6, 6), 1)
        w = rnd((3, 2, 3, 3), 2)
        up = np.zeros((1, 3, 6, 6))
        dx, dw, db = nn.conv2d_backward(x, w, up, 1, 1)
        assert not dx.any() and not dw.any() and not db.any()

    def test_backward_matches_finite_differences(self):
        # random small case against the FD oracle; conv is linear, so the
        # pinned eps=1e-3 is exact up to float64 round-off
        x = rnd((1, 2, 6, 6), 3)
        w = rnd((3, 2, 3, 3), 4, scale=0.5)
        b = rnd((3,), 5)
        proj = rnd((1, 3, 6, 6), 6)  # fixed projection makes the output scalar

        def f():
            return float((nn.conv2d_forward(x, w, b, 1, 1) * proj).sum())

        _, dw, db = nn.conv2d_backward(x, w, proj, 1, 1)
        dx = nn.conv2d_backward(x, w, proj, 1, 1)[0]
        assert max_rel_err(dw, fd_grad(f, w, eps=1e-3)) < 1e-3
        assert max_rel_err(db, fd_grad(f, b, eps=1e-3)) < 1e-3
        assert max_rel_err(dx, fd_grad(f, x, eps=1e-3)) < 1e-3

    def test_strided_backward_matches_fd(self):
        x = rnd((2, 1, 8, 8), 7)
        w = rnd((2, 1, 5, 5), 8, scale=0.5)
        b = rnd((2,), 9)
        proj = rnd((2, 2, 4, 4), 10)

        def f():
            return float((nn.conv2d_forward(x, w, b, 2, 2) * proj).sum())

        dx, dw, db = nn.conv2d_backward(x, w, proj, 2, 2)
        assert max_rel_err(dw, fd_grad(f, w, eps=1e-3)) < 1e-3
        assert max_rel_err(dx, fd_grad(f, x, eps=1e-3)) < 1e-3


class TestRelu:
    def test_forward_backward(self):
        x = np.array([-1.0, 0.0, 2.0])
        assert nn.relu_forward(x).tolist() == [0.0, 0.0, 2.0]
        assert nn.relu_backward(x, np.array([5.0, 5.0, 5.0])).tolist() == [0.0, 0.0, 5.0]

    def test_backward_matches_fd_away_from_kink(self):
        x = rnd((4, 6), 11)
        x[np.abs(x) < 0.05] = 0.1  # keep clear of the kink for the FD probe
        proj = rnd((4, 6), 12)

        def f():
            return float((nn.relu_forward(x) * proj).sum())

        dx = nn.relu_backward(x, proj)
        assert max_rel_err(dx, fd_grad(f, x, eps=1e-3)) < 1e-3


class TestMaxpool:
    def test_window_and_routing(self):
        x = np.array([[[[1.0, 2.0], [4.0, 3.0]]]])
        out, idx = nn.maxpool_forward(x)
        assert out.item() == 4.0
        dx = nn.maxpool_backward(x.shape, idx, np.array([[[[7.0]]]]))
        assert dx.reshape(4).tolist() == [0.0, 0.0, 7.0, 0.0]

    def test_tie_goes_to_first_row_major(self):
        x = np.array([[[[5.0, 5.0], [5.0, 5.0]]]])
        _, idx = nn.maxpool_forward(x)
        assert idx.item() == 0
        dx = nn.maxpool_backward(x.shape, idx, np.array([[[[1.0]]]]))
        assert dx.reshape(4).tolist() == [1.0, 0.0, 0.0, 0.0]

    def test_odd_dims_rejected(self):
        with pytest.raises(ShapeMismatchError):
            nn.maxpool_forward(np.zeros((1, 1, 5, 4)))

    def test_backward_matches_fd(self):
        x = rnd((2, 3, 4, 4), 13)
        proj = rnd((2, 3, 2, 2), 14)

        def f():
            return float((nn.maxpool_forward(x)[0] * proj).sum())

        _, idx = nn.maxpool_forward(x)
        dx = nn.maxpool_backward(x.shape, idx, proj)
        assert max_rel_err(dx, fd_grad(f, x, eps=1e-3)) < 1e-3


class TestFc:
    def test_identity(self):
        x = rnd((3, 4), 15)
        y = nn.fc_forward(x, np.eye(4), np.zeros(4))
        assert np.allclose(y, x)

    def test_backward_matches_fd(self):
        x = rnd((3, 5), 16)
        w = rnd((4, 5), 17)
        b = rnd((4,), 18)
        proj = rnd((3, 4), 19)

        def f():
            return float((nn.fc_forward(x, w, b) * proj).sum())

        dx, dw, db = nn.fc_backward(x, w, proj)
        assert max_rel_err(dw, fd_grad(f, w, eps=1e-3)) < 1e-3
        assert max_rel_err(db, fd_grad(f, b, eps=1e-3)) < 1e-3
        assert max_rel_err(dx, fd_grad(f, x, eps=1e-3)) < 1e-3

    def test_dim_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            nn.fc_forward(np.zeros((2, 5)), np.zeros((4, 6)), np.zeros(4))


class TestDropout:
    def test_mask_scaling_and_determinism(self):
        x = np.ones((100, 100))
        y1, m1 = nn.dropout_forward(x, 0.5, Prng.derive(3, 2, 0))
        y2, m2 = nn.dropout_forward(x, 0.5, Prng.derive(3, 2, 0))
        assert np.array_equal(y1, y2) and np.array_equal(m1, m2)
        assert set(np.unique(y1)) == {0.0, 2.0}  # inverted scaling by 1/(1-p)
        assert abs(m1.mean() - 0.5) < 0.02

    def test_backward_routes_through_mask(self):
        x = np.ones((4, 4))
        y, mask = nn.dropout_forward(x, 0.5, Prng(9))
        dx = nn.dropout_backward(mask, 0.5, np.ones_like(x))
        assert np.array_equal(dx, mask * 2.0)


class TestArchitecture:
    def test_parameter_count(self):
        p = nn.init_params(seed=0)
        per_layer = [w.size + b.size for w, b in zip(p.weights, p.biases)]
        assert per_layer == [832, 18496, 73856, 2097408, 1799]
        assert p.param_count == 2_192_391

    def test_spatial_ladder(self):
        x = np.zeros((1, 1, 128, 128), dtype=np.float32)
        sizes = []
        pi = 0
        p = nn.init_params(seed=0)
        for spec in p.layers:
            if spec.kind == nn.CONV:
                x = nn.conv2d_forward(x, p.weights[pi], p.biases[pi], spec.stride, spec.pad)
                pi += 1
                sizes.append(x.shape[-1])
            elif spec.kind == nn.MAXPOOL:
                x, _ = nn.maxpool_forward(x)
                sizes.append(x.shape[-1])
            elif spec.kind == nn.FLATTEN:
                assert x.shape[1] * x.shape[2] * x.shape[3] == 8192
                break
        assert sizes == [64, 32, 32, 16, 16, 8]

    def test_init_deterministic_and_zero_biases(self):
        a = nn.init_params(seed=4)
        b = nn.init_params(seed=4)
        c = nn.init_params(seed=5)
        assert all(np.array_equal(x, y) for x, y in zip(a.weights, b.weights))
        assert not np.array_equal(a.weights[0], c.weights[0])
        assert all(not bb.any() for bb in a.biases)

    def test_reduced_clone_shapes(self):
        p = nn.init_params(seed=1, input_hw=16)
        logits = nn.forward(p, np.zeros((2, 1, 16, 16), dtype=np.float32))
        assert logits.shape == (2, 7)
        assert p.layers[10].in_dim == 128  # 128 channels * 1 * 1


class TestForwardBackward:
    def test_logits_shape(self):
        p = nn.init_params(seed=2)
        x = rnd((3, 1, 128, 128), 20, dtype=np.float32) * 0.1 + 0.5
        assert nn.forward(p, x).shape == (3, 7)

    def test_zero_input_zero_weights(self):
        p = nn.init_params(seed=0, input_hw=16)
        for w in p.weights:
            w[:] = 0
        logits = nn.forward(p, np.zeros((2, 1, 16, 16), dtype=np.float32))
        assert not logits.any()

    def test_infer_deterministic(self):
        p = nn.init_params(seed=3, input_hw=16)
        x = rnd((2, 1, 16, 16), 21, dtype=np.float32)
        a = nn.forward(p, x)
        b = nn.forward(p, x)
        assert np.array_equal(a, b)

    def test_train_dropout_differs_from_infer(self):
        p = nn.init_params(seed=3, input_hw=16)
        x = np.abs(rnd((2, 1, 16, 16), 22, dtype=np.float32))
        infer = nn.forward(p, x, mode="infer")
        trained, _ = nn.forward(p, x, mode="train", rng=Prng.derive(3, 2, 0))
        assert not np.array_equal(infer, trained)

    def test_zero_dlogits_zero_grads(self):
        p = nn.init_params(seed=4, input_hw=16).astype(np.float64)
        x = rnd((2, 1, 16, 16), 23)
        logits, caches = nn.forward(p, x, mode="train")
        dws, dbs = nn.backward(p, caches, np.zeros_like(logits))
        assert all(not g.any() for g in dws + dbs)

    def test_gradients_additive_over_batch(self):
        p = nn.init_params(seed=5, input_hw=16).astype(np.float64)
        x = rnd((2, 1, 16, 16), 24)
        dl = rnd((2, 7), 25)
        _, caches = nn.forward(p, x, mode="train")
        dws, dbs = nn.backward(p, caches, dl)
        parts = []
        for i in range(2):
            _, c = nn.forward(p, x[i : i + 1], mode="train")
            parts.append(nn.backward(p, c, dl[i : i + 1]))
        for g, g0, g1 in zip(dws + dbs, parts[0][0] + parts[0][1], parts[1][0] + parts[1][1]):
            assert np.allclose(g, g0 + g1, atol=1e-12)

    def test_frozen_forward_matches_at_base_point(self):
        p = nn.init_params(seed=6, input_hw=16).astype(np.float64)
        x = rnd((2, 1, 16, 16), 26)
        logits, caches = nn.forward(p, x, mode="train")
        assert np.allclose(nn.forward_frozen(p, x, caches), logits)

    def test_infer_keeps_no_activations(self, monkeypatch):
        import tracemalloc

        p = nn.init_params(seed=3, input_hw=32)
        x = rnd((16, 1, 32, 32), 28, dtype=np.float32)
        held = []  # bytes allocated while the last fc runs
        fc = nn.fc_forward

        def probe(a, w, b):
            held.append(tracemalloc.get_traced_memory()[0])
            return fc(a, w, b)

        monkeypatch.setattr(nn, "fc_forward", probe)
        tracemalloc.start()
        try:
            train_logits = nn.forward(p, x, mode="train")[0]
            train_held = held[-1]
            logits = nn.forward(p, x, mode="infer")
            infer_held = held[-1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(logits, train_logits)
        assert infer_held < 0.25 * train_held  # equal while infer kept caches

    def test_only_train_pools_build_an_argmax(self, monkeypatch):
        p = nn.init_params(seed=3, input_hw=16)
        x = rnd((2, 1, 16, 16), 29, dtype=np.float32)
        asked = []
        pool = nn.maxpool_forward

        def record(a, argmax=True):
            asked.append(argmax)
            return pool(a, argmax)

        monkeypatch.setattr(nn, "maxpool_forward", record)
        logits = nn.forward(p, x, mode="infer")
        assert asked == [False] * 3
        asked.clear()
        train_logits, _ = nn.forward(p, x, mode="train")
        assert asked == [True] * 3
        assert same_bits(logits, train_logits)

    def test_non_finite_raises(self):
        p = nn.init_params(seed=7, input_hw=16)
        x = np.full((1, 1, 16, 16), np.nan, dtype=np.float32)
        with pytest.raises(NonFiniteActivationError):
            nn.forward(p, x)

    def test_bad_input_shape(self):
        p = nn.init_params(seed=8, input_hw=16)
        with pytest.raises(ShapeMismatchError):
            nn.forward(p, np.zeros((1, 3, 16, 16), dtype=np.float32))
        with pytest.raises(ValueError, match="mode must be train or infer"):
            nn.forward(p, np.zeros((1, 1, 16, 16), dtype=np.float32), mode="eval")

    def test_stale_cache(self):
        p = nn.init_params(seed=9, input_hw=16)
        x = rnd((2, 1, 16, 16), 27, dtype=np.float32)
        _, caches = nn.forward(p, x, mode="train")
        with pytest.raises(StaleCacheError):
            nn.backward(p, caches, np.zeros((4, 7), dtype=np.float32))
        with pytest.raises(StaleCacheError):
            nn.backward(p, caches[:-1], np.zeros((2, 7), dtype=np.float32))
        # the first conv block's cache from a forward at another batch size
        _, other = nn.forward(p, x[:1], mode="train")
        with pytest.raises(StaleCacheError):
            nn.backward(p, other[:1] + caches[1:], np.zeros((2, 7), dtype=np.float32))


# --- reference kernels (window-copy maxpool, tensordot dw), the bit-exact oracles ---

def ref_maxpool_forward(x):
    n, c, h, w = x.shape
    win = (x.reshape(n, c, h // 2, 2, w // 2, 2)
            .transpose(0, 1, 2, 4, 3, 5)
            .reshape(n, c, h // 2, w // 2, 4))
    idx = win.argmax(axis=-1)
    return np.take_along_axis(win, idx[..., None], axis=-1)[..., 0], idx


def ref_maxpool_backward(x_shape, idx, upstream):
    n, c, h, w = x_shape
    dwin = np.zeros((n, c, h // 2, w // 2, 4), dtype=upstream.dtype)
    np.put_along_axis(dwin, idx[..., None], upstream[..., None], axis=-1)
    return (dwin.reshape(n, c, h // 2, w // 2, 2, 2)
                .transpose(0, 1, 2, 4, 3, 5)
                .reshape(n, c, h, w))


def ref_conv_dw(x, w, upstream, stride, pad):
    n, _, _, _ = x.shape
    k, _, kh, kw = w.shape
    _, _, ho, wo = upstream.shape
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad))) if pad else x
    cols = nn._im2col(xp, kh, kw, stride, ho, wo)
    up = upstream.reshape(n, k, ho * wo)
    return np.tensordot(up, cols, axes=([0, 2], [0, 2])).reshape(w.shape)


def ref_whole_batch_conv2d_forward(x, w, b, stride, pad):
    """conv2d_forward as one im2col copy and one stacked GEMM over the whole batch."""
    n, _, h, wd = x.shape
    k, _, kh, kw = w.shape
    ho, wo = (h + 2 * pad - kh) // stride + 1, (wd + 2 * pad - kw) // stride + 1
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad))) if pad else x
    y = np.matmul(w.reshape(k, -1), nn._im2col(xp, kh, kw, stride, ho, wo))
    y += b.reshape(1, k, 1)
    return y.reshape(n, k, ho, wo)


def ref_whole_batch_conv_dx(x_shape, w, upstream, stride, pad):
    """conv2d_backward's dx as one stacked GEMM and one col2im over the whole batch."""
    n, c, h, wd = x_shape
    k, _, kh, kw = w.shape
    _, _, ho, wo = upstream.shape
    dcols = np.matmul(w.reshape(k, -1).T, upstream.reshape(n, k, ho * wo))
    dcols = dcols.reshape(n, c, kh, kw, ho, wo)
    dxp = np.zeros((n, c, h + 2 * pad, wd + 2 * pad), dtype=upstream.dtype)
    for i in range(kh):
        for j in range(kw):
            dxp[:, :, i : i + stride * ho : stride,
                j : j + stride * wo : stride] += dcols[:, :, i, j]
    return dxp[:, :, pad : pad + h, pad : pad + wd]


def ref_whole_batch_maxpool_forward(x):
    """maxpool_forward over the whole batch at once: the strided-view compares."""
    a, b, c, d = nn._pool_views(x)
    top, bottom = np.maximum(b, a), np.maximum(d, c)
    idx = np.where(bottom > top, (d > c).view(np.int8) + np.int8(2), (b > a).view(np.int8))
    return np.maximum(bottom, top), idx


def ref_whole_batch_maxpool_backward(x_shape, idx, upstream):
    """maxpool_backward over the whole batch at once: four masked bit copies."""
    dx = np.empty(x_shape, dtype=upstream.dtype)
    as_int = np.dtype(f"i{upstream.itemsize}")
    for k, view in enumerate(nn._pool_views(dx.view(as_int))):
        mask = (idx == k).view(np.int8)
        np.negative(mask, out=mask)
        np.bitwise_and(upstream.view(as_int), mask, out=view)
    return dx


def ref_forward_backward(p, x, dlogits):
    """Logits and gradients with every layer in its serialized order (relu
    before maxpool) and the reference kernels; dropout off."""
    pairs = iter(zip(p.weights, p.biases))
    params = [next(pairs) if spec.parametric else (None, None) for spec in p.layers]
    caches = []
    for spec, (w, b) in zip(p.layers, params):
        caches.append(x)
        if spec.kind == nn.CONV:
            x = nn.conv2d_forward(x, w, b, spec.stride, spec.pad)
        elif spec.kind == nn.RELU:
            x = nn.relu_forward(x)
        elif spec.kind == nn.MAXPOOL:
            x, idx = ref_maxpool_forward(x)
            caches[-1] = (caches[-1].shape, idx)
        elif spec.kind == nn.FLATTEN:
            x = x.reshape(x.shape[0], -1)
        elif spec.kind == nn.FC:
            x = nn.fc_forward(x, w, b)
    logits, dx, grads = x, dlogits, []
    for spec, (w, _), cache in reversed(list(zip(p.layers, params, caches))):
        if spec.kind == nn.CONV:
            dx, dw, db = nn.conv2d_backward(cache, w, dx, spec.stride, spec.pad)
            grads.insert(0, (dw, db))
        elif spec.kind == nn.RELU:
            dx = nn.relu_backward(cache, dx)
        elif spec.kind == nn.MAXPOOL:
            dx = ref_maxpool_backward(*cache, dx)
        elif spec.kind == nn.FLATTEN:
            dx = dx.reshape(cache.shape)
        elif spec.kind == nn.FC:
            dx, dw, db = nn.fc_backward(cache, w, dx)
            grads.insert(0, (dw, db))
    return logits, grads


def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def post_relu_with_ties(dtype):
    """Post-ReLU activations with all-zero windows and tied maxima at window
    positions (1, 3) and (2, 3)."""
    x = nn.relu_forward(rnd((3, 4, 8, 8), 40, dtype=dtype))
    x[0, :, 0:2, 0:2] = 0                            # all-zero window
    x[1, :, 2:4, 4:6] = [[0.25, 0.75], [0.5, 0.75]]  # positions 1 and 3 tie
    x[2, :, 4:6, 2:4] = [[0.25, 0.5], [0.75, 0.75]]  # positions 2 and 3 tie
    return x


class TestKernelEquivalence:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_maxpool_matches_reference_bit_for_bit(self, dtype):
        x = post_relu_with_ties(dtype)
        out, idx = nn.maxpool_forward(x)
        ref_out, ref_idx = ref_maxpool_forward(x)
        assert idx.dtype == np.int8
        assert same_bits(out, ref_out)
        assert np.array_equal(idx, ref_idx)
        assert idx[0, 0, 0, 0] == 0 and idx[1, 0, 1, 2] == 1 and idx[2, 0, 2, 1] == 2
        up = rnd(out.shape, 41, dtype=dtype)
        assert same_bits(nn.maxpool_backward(x.shape, idx, up),
                         ref_maxpool_backward(x.shape, ref_idx, up))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_maxpool_without_argmax_has_the_same_bytes(self, dtype):
        x = rnd((2, 4, 8, 8), 47, dtype=dtype)  # pre-ReLU: about half negative
        x[0, 0, 0:2, 0:2] = [[-0.0, 0.0], [-1.0, -2.0]]  # signed zeros tie in a row
        x[0, 1, 0:2, 0:2] = [[0.0, -0.0], [-1.0, -2.0]]
        x[0, 2, 0:2, 0:2] = [[-1.0, -2.0], [-0.0, 0.0]]
        x[0, 3, 0:2, 0:2] = [[-3.0, 0.0], [-0.0, -2.0]]  # and across the rows
        for pos in range(4):
            x[1, pos, 2 + pos // 2, 2 + pos % 2] = np.nan
        out, idx = nn.maxpool_forward(x, argmax=False)
        assert idx is None
        assert same_bits(out, nn.maxpool_forward(x)[0])
        assert np.isnan(out[1, :, 1, 1]).all()

    @pytest.mark.parametrize("pos", [0, 1, 2, 3])
    def test_nan_at_any_window_position_reaches_the_logits(self, pos):
        # a one-window net: conv 1x1 (identity) - relu - maxpool - flatten - fc
        p = nn.ModelParams(
            layers=[nn.LayerSpec(nn.CONV, in_ch=1, out_ch=1, kh=1, kw=1, stride=1),
                    nn.LayerSpec(nn.RELU), nn.LayerSpec(nn.MAXPOOL), nn.LayerSpec(nn.FLATTEN),
                    nn.LayerSpec(nn.FC, in_dim=1, out_dim=nn.NUM_CLASSES)],
            weights=[np.ones((1, 1, 1, 1), np.float32), np.ones((7, 1), np.float32)],
            biases=[np.zeros(1, np.float32), np.zeros(7, np.float32)])
        x = np.array([1.0, 3.0, 2.0, 0.5], dtype=np.float32)
        x[pos] = np.nan
        with pytest.raises(NonFiniteActivationError):
            nn.forward(p, x.reshape(1, 1, 2, 2))
        with pytest.raises(NonFiniteActivationError):
            nn.forward(p, x.reshape(1, 1, 2, 2), mode="train")

    @pytest.mark.parametrize("spec", [s for s in nn.emo_net_layers() if s.kind == nn.CONV])
    def test_conv_dw_matches_tensordot(self, spec):
        hw = {1: 128, 32: 64, 64: 32}[spec.in_ch]
        x = rnd((2, spec.in_ch, hw, hw), 44, dtype=np.float32)
        w = rnd(spec.weight_shape, 45, dtype=np.float32)
        ho, wo = nn.conv_out_hw(hw, hw, spec)
        up = rnd((2, spec.out_ch, ho, wo), 46, dtype=np.float32)
        _, dw, _ = nn.conv2d_backward(x, w, up, spec.stride, spec.pad)
        assert same_bits(dw, ref_conv_dw(x, w, up, spec.stride, spec.pad))

    def test_first_conv_grads_equal_conv2d_backward(self, monkeypatch):
        p = nn.init_params(seed=10, input_hw=16)
        x = rnd((2, 1, 16, 16), 47, dtype=np.float32)
        logits, caches = nn.forward(p, x, mode="train")
        calls = []  # (upstream, input_grad) of each conv backward; conv1's is last
        conv_backward = nn.conv2d_backward

        def record(x, w, upstream, stride, pad, input_grad=True):
            calls.append((upstream.copy(), input_grad))
            return conv_backward(x, w, upstream, stride, pad, input_grad)

        monkeypatch.setattr(nn, "conv2d_backward", record)
        dws, dbs = nn.backward(p, caches, rnd(logits.shape, 48, dtype=np.float32))
        monkeypatch.undo()
        assert [grad for _, grad in calls] == [True, True, False]
        conv1 = p.layers[0]
        _, dw, db = nn.conv2d_backward(x, p.weights[0], calls[-1][0], conv1.stride, conv1.pad)
        assert same_bits(dws[0], dw) and same_bits(dbs[0], db)

    def test_frozen_forward_matches_bit_for_bit(self):
        p = nn.init_params(seed=6, input_hw=16).astype(np.float64)
        x = rnd((2, 1, 16, 16), 26)
        logits, caches = nn.forward(p, x, mode="train")
        assert same_bits(nn.forward_frozen(p, x, caches), logits)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_network_matches_serialized_order_bit_for_bit(self, dtype):
        # the walks pool before relu; the reference runs relu first
        p = nn.init_params(seed=11, input_hw=32).astype(dtype)
        x = rnd((4, 1, 32, 32), 49, dtype=dtype)
        logits, caches = nn.forward(p, x, mode="train")
        dl = rnd(logits.shape, 50, dtype=dtype)
        dws, dbs = nn.backward(p, caches, dl)
        ref_logits, ref_grads = ref_forward_backward(p, x, dl)
        assert same_bits(logits, ref_logits)
        for dw, db, (ref_dw, ref_db) in zip(dws, dbs, ref_grads):
            assert same_bits(dw, ref_dw) and same_bits(db, ref_db)


# EMO-NET's convs with their real input sides, and its pools' real input shapes
REAL_CONVS = list(zip([s for s in nn.emo_net_layers() if s.kind == nn.CONV], (128, 32, 16)))
REAL_POOLS = [(32, 64), (64, 32), (128, 16)]  # (channels, side)


def chunk_boundary_batches(monkeypatch, kernel):
    """The chunk length ``kernel(n)`` walks its batch with, and the batch sizes
    that test it: one sample, a chunk less one, one chunk, a chunk plus one,
    and two chunks with a ragged one-sample tail."""
    steps = []
    chunks = nn._chunks

    def record(n, sample_bytes):
        out = chunks(n, sample_bytes)
        steps.append(out[0].stop)
        return out

    monkeypatch.setattr(nn, "_chunks", record)
    kernel(1)
    monkeypatch.undo()
    step = steps[0]
    return step, sorted({1, max(1, step - 1), step, step + 1, 2 * step + 1})


def plant_ties_and_nans(x, samples):
    """Signed-zero ties and a NaN at each 2x2 window position, in channel 0 of
    each given sample."""
    ties = [[[-0.0, 0.0], [-1.0, -2.0]], [[0.0, -0.0], [-1.0, -2.0]],
            [[-1.0, -2.0], [-0.0, 0.0]], [[-3.0, 0.0], [-0.0, -2.0]]]
    for s in samples:
        for j, tie in enumerate(ties):
            x[s, 0, 0:2, 2 * j : 2 * j + 2] = tie
        for pos in range(4):
            x[s, 0, 2 + pos // 2, 2 * pos + pos % 2] = np.nan
    return x


def assert_block_is_unfused(block, x, y):
    """The block's train-mode output and caches, and its infer-mode output,
    are those of pooling and relu'ing ``y``, its conv's whole-batch output."""
    ref_pooled, ref_idx = ref_whole_batch_maxpool_forward(y)
    ref_out = nn.relu_forward(ref_pooled)
    out, cache = nn._conv_pool_relu(*block, x, None, keep=True)
    assert same_bits(out, ref_out)
    conv_in, y_shape, idx, relu_out = cache
    assert conv_in is x and y_shape == y.shape and relu_out is out
    assert same_bits(idx, ref_idx)
    infer_out, none = nn._conv_pool_relu(*block, x, None, keep=False)
    assert none is None and same_bits(infer_out, ref_out)


class TestChunkedKernels:
    """The cache-sized batch chunks give the whole-batch kernels' bits, with
    NaNs and signed-zero ties in the last sample of a chunk."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("spec,hw", REAL_CONVS, ids=["conv1", "conv2", "conv3"])
    def test_conv_forward(self, monkeypatch, spec, hw, dtype):
        # the conv block's chunks against one whole-batch conv, pool and relu
        w = rnd(spec.weight_shape, 60, dtype=dtype)
        b = rnd((spec.out_ch,), 61, dtype=dtype)
        block = spec, w, b

        def inputs(n):
            return rnd((n, spec.in_ch, hw, hw), 62, dtype=dtype)

        step, batches = chunk_boundary_batches(
            monkeypatch, lambda n: nn._conv_pool_relu(*block, inputs(n), None, keep=True))
        for n in batches:
            x = plant_ties_and_nans(inputs(n), {min(step, n) - 1, n - 1})
            pad = ((0, 0), (0, 0), (spec.pad, spec.pad), (spec.pad, spec.pad))
            assert same_bits(nn._pad(x, spec.pad), np.pad(x, pad))
            y = ref_whole_batch_conv2d_forward(x, w, b, spec.stride, spec.pad)
            assert same_bits(nn.conv2d_forward(x, w, b, spec.stride, spec.pad), y)
            assert_block_is_unfused(block, x, y)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("spec,hw", REAL_CONVS, ids=["conv1", "conv2", "conv3"])
    def test_conv_dx(self, monkeypatch, spec, hw, dtype):
        w = rnd(spec.weight_shape, 63, dtype=dtype)
        ho, wo = nn.conv_out_hw(hw, hw, spec)

        def inputs(n):
            return (rnd((n, spec.in_ch, hw, hw), 64, dtype=dtype),
                    rnd((n, spec.out_ch, ho, wo), 65, dtype=dtype))

        def dx(x, up):
            return nn.conv2d_backward(x, w, up, spec.stride, spec.pad)[0]

        step, batches = chunk_boundary_batches(monkeypatch, lambda n: dx(*inputs(n)))
        for n in batches:
            x, up = inputs(n)
            plant_ties_and_nans(up, {min(step, n) - 1, n - 1})
            assert same_bits(dx(x, up),
                             ref_whole_batch_conv_dx(x.shape, w, up, spec.stride, spec.pad))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("c,hw", REAL_POOLS, ids=["pool1", "pool2", "pool3"])
    def test_maxpool(self, monkeypatch, c, hw, dtype):
        # the block's pool and relu chunks, on planted values: its conv is
        # replaced by the identity, which a 1x1 conv of c channels sizes
        block = (nn.LayerSpec(nn.CONV, in_ch=c, out_ch=c, kh=1, kw=1, stride=1),
                 np.zeros((c, c, 1, 1), dtype=dtype), np.zeros(c, dtype=dtype))

        def inputs(n):
            return rnd((n, c, hw, hw), 66, dtype=dtype)

        step, batches = chunk_boundary_batches(
            monkeypatch, lambda n: nn._conv_pool_relu(*block, inputs(n), None, keep=True))
        monkeypatch.setattr(nn, "conv2d_forward", lambda x, w, b, stride, pad: x.copy())
        for n in batches:
            last = {min(step, n) - 1, n - 1}
            x = plant_ties_and_nans(inputs(n), last)
            assert_block_is_unfused(block, x, x)
            out, idx = nn.maxpool_forward(x)
            ref_out, ref_idx = ref_whole_batch_maxpool_forward(x)
            assert same_bits(out, ref_out) and same_bits(idx, ref_idx)
            assert same_bits(nn.maxpool_forward(x, argmax=False)[0], ref_out)
            up = plant_ties_and_nans(rnd(out.shape, 67, dtype=dtype), last)
            assert same_bits(nn.maxpool_backward(x.shape, idx, up),
                             ref_whole_batch_maxpool_backward(x.shape, ref_idx, up))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("spec,hw", REAL_CONVS, ids=["conv1", "conv2", "conv3"])
    def test_stacked_matmul_is_one_gemm_per_slice(self, spec, hw, dtype):
        # the chunks' byte identity rests on this: a numpy or BLAS whose
        # stacked matmul batched its slices differently would fail here
        ho, wo = nn.conv_out_hw(hw, hw, spec)
        w2 = rnd(spec.weight_shape, 68, dtype=dtype).reshape(spec.out_ch, -1)
        cols = rnd((3, w2.shape[1], ho * wo), 69, dtype=dtype)
        up = rnd((3, spec.out_ch, ho * wo), 70, dtype=dtype)
        for a, stack in ((w2, cols), (w2.T, up)):
            whole = np.matmul(a, stack)
            out = np.empty_like(whole)
            np.matmul(a, stack[:2], out=out[:2])
            np.matmul(a, stack[2:], out=out[2:])
            assert same_bits(out, whole)
            for s in range(3):
                assert same_bits(whole[s], np.matmul(a, stack[s]))


def unfused_walk(p, x, frozen=None):
    """The walk without the conv blocks' chunks: ``_blocks`` in order, a
    conv block as whole-batch conv2d_forward, maxpool_forward and
    relu_forward, dropout off. With ``frozen``, argmax and relu masks come
    from it."""
    caches = []
    for i, (spec, w, b) in enumerate(nn._blocks(p)):
        routing = None if frozen is None else frozen[i]
        cache = x
        if spec.kind == nn.CONV:
            y = nn.conv2d_forward(x, w, b, spec.stride, spec.pad)
            if routing is None:
                x, idx = nn.maxpool_forward(y)
                x = nn.relu_forward(x)
            else:
                idx = routing[2]
                x = np.choose(idx, nn._pool_views(y))
                x = x * (routing[3] > 0)
            cache = (cache, y.shape, idx, x)
        elif spec.kind == nn.RELU:
            x = cache = nn.relu_forward(x) if routing is None else x * (routing > 0)
        elif spec.kind == nn.FLATTEN:
            cache = x.shape
            x = x.reshape(x.shape[0], -1)
        elif spec.kind == nn.FC:
            x = nn.fc_forward(x, w, b)
        else:
            cache = None
        caches.append(cache)
    return x, caches


def assert_same_caches(caches, ref):
    assert len(caches) == len(ref)
    for cache, ref_cache in zip(caches, ref):
        if isinstance(ref_cache, tuple) and isinstance(ref_cache[0], np.ndarray):
            # a conv block's (conv input, conv-output shape, int8 argmax, output)
            assert len(cache) == 4 and cache[1] == ref_cache[1]
            assert all(same_bits(cache[j], ref_cache[j]) for j in (0, 2, 3))
        elif isinstance(ref_cache, np.ndarray):
            assert same_bits(cache, ref_cache)
        else:
            assert cache == ref_cache


def planted_faces(n, hw, dtype):
    """Inputs with a zero band in sample 0 (every conv output over it is its
    bias, so whole windows tie), signed zeros, and a NaN in the last sample:
    the ragged tail of each block's chunks."""
    x = rnd((n, 1, hw, hw), 91, dtype=dtype)
    x[0, 0, : hw // 2] = 0.0
    x[0, 0, hw // 2 : hw // 2 + 4, 0::2] = -0.0
    x[-1, 0, hw // 3, hw // 5] = np.nan
    return x


# batch 64 trains, 48 and 16 are smaller batches, 1 is a stream frame; float64
# runs on a 64x64 clone to keep the whole-batch oracle's patch copies small
BLOCK_CASES = [(n, np.float32, 128) for n in (64, 48, 16, 1)] + \
              [(n, np.float64, 64) for n in (64, 48, 16, 1)]


class TestConvBlocks:
    """The forward walk's conv -> maxpool -> relu blocks give the bits, the
    caches and the int8 argmax of the walk without chunks, and hold no
    full-resolution activation of the whole batch."""

    @pytest.mark.parametrize("n,dtype,hw", BLOCK_CASES,
                             ids=[f"b{n}-{np.dtype(d).name}" for n, d, _ in BLOCK_CASES])
    def test_walk_equals_unfused(self, n, dtype, hw):
        p = nn.init_params(seed=15, input_hw=hw).astype(dtype)
        for i, b in enumerate(p.biases[:3]):  # every conv's ties are at its bias
            b[:] = rnd(b.shape, 94 + i, scale=0.1, dtype=dtype)
        x = planted_faces(n, hw, dtype)
        logits, caches = nn._forward_walk(p, x)
        ref_logits, ref_caches = unfused_walk(p, x)
        assert same_bits(logits, ref_logits)
        assert_same_caches(caches, ref_caches)
        assert [c[2].dtype for (s, _, _), c in zip(nn._blocks(p), caches)
                if s.kind == nn.CONV] == [np.int8] * 3
        assert same_bits(nn._forward_walk(p, x, keep=False)[0], ref_logits)
        x2 = rnd(x.shape, 95, dtype=dtype)  # another point, under the frozen routing
        assert same_bits(nn.forward_frozen(p, x2, caches), unfused_walk(p, x2, ref_caches)[0])

        x[-1, 0, hw // 3, hw // 5] = 0.0  # finite, for gradients that are not all NaN
        logits, caches = nn._forward_walk(p, x)
        dl = rnd(logits.shape, 96, dtype=dtype)
        grads = nn.backward(p, caches, dl)
        ref_grads = nn.backward(p, unfused_walk(p, x)[1], dl)
        for g, ref in zip(grads[0] + grads[1], ref_grads[0] + ref_grads[1]):
            assert same_bits(g, ref)

    def test_train_forward_memory_peak(self):
        p = nn.init_params(seed=13)
        x = rnd((64, 1, 128, 128), 88, dtype=np.float32)
        peak = traced_peak(lambda: nn.forward(p, x, mode="train", rng=Prng.derive(13, 2, 0)))
        # ~18 MiB; a whole-batch conv1 output (32 MiB) would take it to ~43 MiB
        assert peak <= 24 * 2**20

    def test_infer_forward_memory_peak(self):
        p = nn.init_params(seed=13)
        x = rnd((64, 1, 128, 128), 88, dtype=np.float32)
        peak = traced_peak(lambda: nn.forward(p, x, mode="infer"))
        # ~14 MiB; a whole-batch conv1 output (32 MiB) would take it to ~41 MiB
        assert peak <= 20 * 2**20

    @pytest.mark.parametrize("table", UNWALKABLE)
    def test_unwalkable_table_raises(self, table):
        # the block is the only place a conv or a maxpool runs forward, so a
        # table outside its rows is rejected, not walked layer by layer
        p = unwalkable_model(table, 8)
        x = rnd((2, 1, 8, 8), 97, dtype=np.float32)
        caches = [(spec, None) for spec in p.layers]
        for run in (lambda: nn.forward(p, x, mode="train", rng=Prng.derive(1, 2, 0)),
                    lambda: nn.forward(p, x, mode="infer"),
                    lambda: nn.forward_frozen(p, x, caches),
                    lambda: nn.backward(p, caches, np.zeros((2, 7), dtype=np.float32))):
            with pytest.raises(ShapeMismatchError, match=re.escape(UNWALKABLE[table])):
                run()


class TestSubnormalFlush:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_subnormal_dlogits_count_as_zero(self, monkeypatch, dtype):
        tiny = np.finfo(dtype).tiny
        p = nn.init_params(seed=12, input_hw=16).astype(dtype)
        x = rnd((3, 1, 16, 16), 51, dtype=dtype)
        dl = rnd((3, 7), 52, dtype=dtype)
        dl[0, :4] = np.array([tiny / 2, -tiny / 3, tiny / 1024, -tiny * 0.999], dtype=dtype)
        dl[1, :3] = np.array([tiny, -tiny, 0.0], dtype=dtype)  # normal or zero: kept
        dl[2, 0] = 1e-40  # subnormal in float32 only
        assert ((dl != 0) & (np.abs(dl) < tiny)).sum() == (5 if dtype == np.float32 else 4)
        flushed = dl.copy()
        flushed[np.abs(flushed) < tiny] = 0
        sent = dl.copy()

        upstreams = []  # the first fc_backward call is the last fc's
        fc_backward = nn.fc_backward

        def record(a, w, upstream):
            upstreams.append(upstream.copy())
            return fc_backward(a, w, upstream)

        monkeypatch.setattr(nn, "fc_backward", record)
        dws, dbs = nn.backward(p, nn.forward(p, x, mode="train")[1], sent)
        up = upstreams[0]
        monkeypatch.undo()
        assert same_bits(sent, dl)  # the caller's array is not touched
        assert up.dtype == dtype and not ((up != 0) & (np.abs(up) < tiny)).any()
        assert same_bits(up, flushed)
        ref_dws, ref_dbs = nn.backward(p, nn.forward(p, x, mode="train")[1], flushed)
        for g, ref in zip(dws + dbs, ref_dws + ref_dbs):
            assert same_bits(g, ref)


# --- the lean backward: channel-major pool gradient, dw in row blocks, db's order ---

def channel_major(a):
    """``a`` with the same values, stored as (C, N, H, W) like maxpool_backward's dx."""
    return np.ascontiguousarray(a.transpose(1, 0, 2, 3)).transpose(1, 0, 2, 3)


def whole_gemm_dw(x, w, upstream, stride, pad):
    """dw as one GEMM against the whole (C*kh*kw, N*ho*wo) patch copy."""
    n, c, _, _ = x.shape
    k, _, kh, kw = w.shape
    _, _, ho, wo = upstream.shape
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    cols = nn._patch_windows(xp, kh, kw, stride, ho, wo).transpose(1, 2, 3, 0, 4, 5)
    u = upstream.transpose(1, 0, 2, 3).reshape(k, -1)
    return (u @ cols.reshape(c * kh * kw, -1).T).reshape(w.shape)


def plant_signed_zeros(up):
    """Scattered -0 and +0, a plane of -0 and a plane of +0, in place."""
    flat = up.reshape(-1)
    flat[::7] = -0.0
    flat[3::11] = 0.0
    up[0, 0] = -0.0
    up[-1, -1] = 0.0
    return up


GRAD_CHECK_CONVS = list(zip([s for s in nn.emo_net_layers(16) if s.kind == nn.CONV], (16, 4, 2)))


class TestLeanBackward:
    """The backward's memory savings change no bit."""

    @pytest.mark.parametrize("layout", [channel_major, np.ascontiguousarray])
    @pytest.mark.parametrize("spec,hw,n,dtype", [
        *[(s, hw, n, np.float32) for n in (64, 48, 16, 1) for s, hw in REAL_CONVS],
        *[(s, hw, 2, np.float64) for s, hw in GRAD_CHECK_CONVS],
    ], ids=[f"{name}-b{n}" for n in (64, 48, 16, 1) for name in ("conv1", "conv2", "conv3")]
       + ["check-conv1", "check-conv2", "check-conv3"])
    def test_row_blocked_dw_is_one_whole_gemm(self, spec, hw, n, dtype, layout):
        x = rnd((n, spec.in_ch, hw, hw), 80, dtype=dtype)
        w = rnd(spec.weight_shape, 81, dtype=dtype)
        ho, wo = nn.conv_out_hw(hw, hw, spec)
        up = layout(plant_signed_zeros(rnd((n, spec.out_ch, ho, wo), 82, dtype=dtype)))
        _, dw, _ = nn.conv2d_backward(x, w, up, spec.stride, spec.pad, input_grad=False)
        assert same_bits(dw, whole_gemm_dw(x, w, up, spec.stride, spec.pad))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("layout", [channel_major, np.ascontiguousarray])
    @pytest.mark.parametrize("shape", [
        (64, 32, 64, 64), (64, 64, 32, 32), (64, 128, 16, 16),
        (1, 32, 64, 64), (1, 64, 32, 32), (1, 128, 16, 16),
        (2, 32, 8, 8), (2, 64, 4, 4), (2, 128, 2, 2),
        (5, 1, 6, 6), (64, 1, 64, 64), (6, 4, 1, 1), (6, 1, 1, 1), (1, 5, 3, 3), (1, 1, 1, 1),
    ])
    def test_db_sums_in_numpys_c_order(self, shape, layout, dtype):
        n, k, ho, wo = shape
        up = layout(plant_signed_zeros(rnd(shape, 83, dtype=dtype)))
        # a 1x1 conv on one channel gives an upstream of any shape
        x = rnd((n, 1, ho, wo), 84, dtype=dtype)
        w = rnd((k, 1, 1, 1), 85, dtype=dtype)
        _, _, db = nn.conv2d_backward(x, w, up, 1, 0, input_grad=False)
        assert same_bits(db, np.ascontiguousarray(up).sum(axis=(0, 2, 3)))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_channel_major_maxpool_backward_equals_where(self, dtype):
        x = plant_ties_and_nans(rnd((3, 4, 8, 8), 86, dtype=dtype), {0, 2})
        _, idx = nn.maxpool_forward(x)
        up = plant_signed_zeros(rnd(idx.shape, 87, dtype=dtype))
        up.reshape(-1)[2::9] = np.nan
        up.reshape(-1)[5::13] = -np.nan
        dx = nn.maxpool_backward(x.shape, idx, up)
        ref = np.empty(x.shape, dtype=dtype)
        for k, view in enumerate(nn._pool_views(ref)):
            view[...] = np.where(idx == k, up, 0)
        assert same_bits(dx, ref)
        assert dx.transpose(1, 0, 2, 3).flags.c_contiguous  # conv reads it as a view

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_relu_backward_reads_output_as_input(self, dtype):
        tiny = np.finfo(dtype).tiny
        vals = np.array([np.nan, -np.nan, 0.0, -0.0, tiny / 4, -tiny / 4, tiny, -tiny,
                         np.inf, -np.inf, 1.5, -1.5], dtype=dtype)
        x, up = np.meshgrid(vals, vals)  # every input against every upstream value
        assert same_bits(nn.relu_backward(nn.relu_forward(x), up), nn.relu_backward(x, up))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_relu_backward_masks_to_positive_zero(self, dtype):
        # as np.where(y > 0, upstream, 0): an inf or NaN upstream is masked too
        up = np.array([np.inf, -np.inf, np.nan, -np.nan, 0.0, -0.0, -1.5], dtype=dtype)
        off = np.array([-1.0, 0.0, -0.0, np.nan, -np.nan, -np.inf], dtype=dtype)
        on = np.array([np.finfo(dtype).tiny, 1.0, np.inf], dtype=dtype)
        y, u = np.meshgrid(off, up)
        assert same_bits(nn.relu_backward(y, u), np.zeros_like(u))
        y, u = np.meshgrid(on, up)
        assert same_bits(nn.relu_backward(y, u), u)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_int8_argmax_equals_where_formula(self, dtype):
        # every window over a set with ties, both zeros and NaN
        vals = np.array([-2.0, -1.0, -0.0, 0.0, 1.0, np.nan], dtype=dtype)
        x = np.array(list(itertools.product(vals, repeat=4)), dtype=dtype).reshape(1, -1, 2, 2)
        _, idx = nn.maxpool_forward(x)
        a, b, c, d = nn._pool_views(x)
        top, bottom = np.maximum(b, a), np.maximum(d, c)
        ref = np.where(bottom > top, (d > c).view(np.int8) + np.int8(2), (b > a).view(np.int8))
        assert same_bits(idx, ref)

    def test_train_step_memory_peak(self):
        p = nn.init_params(seed=13)
        x = rnd((64, 1, 128, 128), 88, dtype=np.float32)
        dl = rnd((64, nn.NUM_CLASSES), 89, dtype=np.float32)
        peak = traced_peak(lambda: nn.backward(
            p, nn.forward(p, x, mode="train", rng=Prng.derive(13, 2, 0))[1], dl))
        # whole-batch patch and transpose copies would take it to ~153 MiB
        assert peak <= 120 * 2**20

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_zero_dlogits_give_no_negative_zero(self, dtype):
        # inputs of both signs, so products with a +0 gradient are -0
        p = nn.init_params(seed=14).astype(dtype)
        x = rnd((2, 1, 128, 128), 90, dtype=dtype)
        logits, caches = nn.forward(p, x, mode="train", rng=Prng.derive(14, 2, 0))
        dws, dbs = nn.backward(p, caches, np.zeros_like(logits))
        assert len(dws + dbs) == 10
        assert not any(np.signbit(g).any() for g in dws + dbs)
