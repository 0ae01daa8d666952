"""The network: layer primitives with exact backward passes, and EMO-NET.

Tensors are plain numpy arrays, row-major. Production runs in float32; every
primitive also works in float64, which the gradient checker uses for its
finite-difference oracle. Weight layouts: conv ``(out_ch, in_ch, kh, kw)``
(cross-correlation, zero padding), fully-connected ``(out_dim, in_dim)``
with ``y = x @ W.T + b``.

EMO-NET, the compact VGG-style stack used throughout (input 1x128x128):

    conv 5x5x32 /2 p2 - relu - maxpool 2x2
    conv 3x3x64 p1    - relu - maxpool 2x2
    conv 3x3x128 p1   - relu - maxpool 2x2
    flatten (8192) - fc 256 - relu - dropout 0.5 - fc 7

The forward runs each conv - relu - maxpool row as one block, walked over
cache-sized chunks of the batch (``_conv_pool_relu``), so a conv's
full-resolution output never exists for the whole batch. A conv or a
maxpool outside such a row is a ``ShapeMismatchError``.

2,192,391 parameters; about 8.8 MB as float32. ``emo_net_layers`` also
builds reduced-resolution clones (any input size whose spatial ladder stays
even until the last pool) for cheap gradient checking.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .dataset import NUM_CLASSES
from .errors import (
    ModelModeMismatchError,
    NonFiniteActivationError,
    ShapeMismatchError,
    StaleCacheError,
)
from .rng import Prng

DROPOUT_P = 0.5

CONV, RELU, MAXPOOL, FLATTEN, FC, DROPOUT = "conv", "relu", "maxpool", "flatten", "fc", "dropout"


@dataclass(frozen=True)
class LayerSpec:
    kind: str
    in_ch: int = 0
    out_ch: int = 0
    kh: int = 0
    kw: int = 0
    stride: int = 0
    pad: int = 0
    in_dim: int = 0
    out_dim: int = 0

    @property
    def parametric(self) -> bool:
        return self.kind in (CONV, FC)

    @property
    def weight_shape(self) -> tuple[int, ...] | None:
        """``(out_ch, in_ch, kh, kw)`` or ``(out_dim, in_dim)``; the bias is
        ``weight_shape[:1]``. None for a layer without parameters."""
        if self.kind == CONV:
            return (self.out_ch, self.in_ch, self.kh, self.kw)
        if self.kind == FC:
            return (self.out_dim, self.in_dim)
        return None


@dataclass
class ModelParams:
    layers: list[LayerSpec]
    weights: list[np.ndarray]  # one per parametric layer, in network order
    biases: list[np.ndarray]
    mode: str = "classification"  # head semantics: classification | regression

    def copy(self) -> "ModelParams":
        return ModelParams(layers=list(self.layers),
                           weights=[w.copy() for w in self.weights],
                           biases=[b.copy() for b in self.biases],
                           mode=self.mode)

    def astype(self, dtype) -> "ModelParams":
        return ModelParams(layers=list(self.layers),
                           weights=[w.astype(dtype) for w in self.weights],
                           biases=[b.astype(dtype) for b in self.biases],
                           mode=self.mode)

    def resolve_mode(self, requested: str | None) -> str:
        """The head mode to run: the model's own, which ``requested`` (when
        given) must name."""
        if requested is not None and requested != self.mode:
            raise ModelModeMismatchError(
                f"model head is {self.mode!r}, requested {requested!r}")
        return self.mode

    @property
    def param_count(self) -> int:
        return sum(w.size for w in self.weights) + sum(b.size for b in self.biases)


def conv_out_hw(h: int, w: int, spec: LayerSpec) -> tuple[int, int]:
    ho = (h + 2 * spec.pad - spec.kh) // spec.stride + 1
    wo = (w + 2 * spec.pad - spec.kw) // spec.stride + 1
    return ho, wo


def emo_net_layers(input_hw: int = 128) -> list[LayerSpec]:
    """The EMO-NET stack for a square 1-channel input of side ``input_hw``."""
    convs = [LayerSpec(CONV, in_ch=1, out_ch=32, kh=5, kw=5, stride=2, pad=2),
             LayerSpec(CONV, in_ch=32, out_ch=64, kh=3, kw=3, stride=1, pad=1),
             LayerSpec(CONV, in_ch=64, out_ch=128, kh=3, kw=3, stride=1, pad=1)]
    layers: list[LayerSpec] = []
    hw = input_hw
    for c in convs:
        layers += [c, LayerSpec(RELU), LayerSpec(MAXPOOL)]
        hw, _ = conv_out_hw(hw, hw, c)
        if hw % 2 != 0:
            raise ShapeMismatchError(f"input {input_hw}: spatial size {hw} not poolable")
        hw //= 2
    flat = 128 * hw * hw
    layers += [LayerSpec(FLATTEN),
               LayerSpec(FC, in_dim=flat, out_dim=256),
               LayerSpec(RELU),
               LayerSpec(DROPOUT),
               LayerSpec(FC, in_dim=256, out_dim=NUM_CLASSES)]
    return layers


def init_params(seed: int, input_hw: int = 128, mode: str = "classification") -> ModelParams:
    """He-normal weights (std sqrt(2/fan_in)), zero biases, deterministic."""
    rng = Prng.derive(seed, 0)
    layers = emo_net_layers(input_hw)
    weights, biases = [], []
    for shape in (spec.weight_shape for spec in layers if spec.parametric):
        w = rng.normal(int(np.prod(shape)))
        w *= np.sqrt(2.0 / np.prod(shape[1:]))
        weights.append(w.astype(np.float32).reshape(shape))
        biases.append(np.zeros(shape[0], dtype=np.float32))
    return ModelParams(layers=layers, weights=weights, biases=biases, mode=mode)


# --- layer primitives ----------------------------------------------------------

# A per-sample pass (a conv block's forward, conv dx, pool backward) walks the
# batch in chunks of about this many bytes of per-sample work (0.1-1.1 MiB per
# sample at EMO-NET's shapes), so that each chunk's copies and temporaries stay
# in a core's L2 cache instead of streaming a 9-75 MB batch tensor through
# memory several times.
_CHUNK_BYTES = 1 << 20


# conv2d_backward copies dw's patch matrix in row blocks of about this many
# bytes, not whole (26-75 MB at batch 64). Each block is one GEMM over the
# full N*ho*wo reduction. That gives the whole product's bits only while the
# BLAS runs each block on the kernel it would run the whole product on:
# OpenBLAS does for blocks this large at EMO-NET's shapes, but not for
# blocks of a few columns.
_BLOCK_BYTES = 16 << 20


def _chunks(n: int, sample_bytes: int) -> list[slice]:
    """Slices of a batch of ``n`` covering ~``_CHUNK_BYTES`` each, at least one
    sample; an empty batch is one empty slice."""
    step = max(1, _CHUNK_BYTES // max(1, sample_bytes))
    return [slice(i, i + step) for i in range(0, max(n, 1), step)]


def _pad(x: np.ndarray, pad: int) -> np.ndarray:
    """``x`` with ``pad`` zeros around each spatial side: np.pad's bytes, at a
    fraction of its per-call cost."""
    if not pad:
        return x
    n, c, h, w = x.shape
    xp = np.zeros((n, c, h + 2 * pad, w + 2 * pad), dtype=x.dtype)
    xp[:, :, pad : pad + h, pad : pad + w] = x
    return xp


def _patch_windows(xp: np.ndarray, kh: int, kw: int, stride: int, ho: int, wo: int) -> np.ndarray:
    """(N, C, kh, kw, ho, wo) strided view of the patches of a padded input."""
    sn, sc, sh, sw = xp.strides
    return as_strided(xp, shape=(*xp.shape[:2], kh, kw, ho, wo),
                      strides=(sn, sc, sh, sw, stride * sh, stride * sw))


def _im2col(xp: np.ndarray, kh: int, kw: int, stride: int, ho: int, wo: int) -> np.ndarray:
    """(N, C*kh*kw, ho*wo) patch matrix from a padded (N, C, H, W) input."""
    n, c, _, _ = xp.shape
    return _patch_windows(xp, kh, kw, stride, ho, wo).reshape(n, c * kh * kw, ho * wo)


def conv2d_forward(x: np.ndarray, w: np.ndarray, b: np.ndarray,
                   stride: int, pad: int) -> np.ndarray:
    """Cross-correlation plus bias; zero padding.

    The input is padded, copied into a patch matrix and multiplied by one
    stacked ``np.matmul``, which is one GEMM per sample: a call on a slice of
    a batch gives that slice of the whole call's bits. So the network's conv
    blocks call it one cache-sized chunk at a time (``_conv_pool_relu``).
    """
    n, c, h, wd = x.shape
    k, cw, kh, kw = w.shape
    if c != cw:
        raise ShapeMismatchError(f"input has {c} channels, kernel expects {cw}")
    ho, wo = conv_out_hw(h, wd, LayerSpec(CONV, kh=kh, kw=kw, stride=stride, pad=pad))
    if ho < 1 or wo < 1:
        raise ShapeMismatchError(f"kernel {kh}x{kw} does not fit {h}x{wd} input")
    y = np.matmul(w.reshape(k, -1), _im2col(_pad(x, pad), kh, kw, stride, ho, wo))
    y += b.reshape(1, k, 1)
    return y.reshape(n, k, ho, wo)


def conv2d_backward(x: np.ndarray, w: np.ndarray, upstream: np.ndarray,
                    stride: int, pad: int,
                    input_grad: bool = True) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gradients (dx, dw, db) of conv2d_forward.

    Without ``input_grad`` dx is not computed and comes back empty. The
    upstream gradient is read as a (K, N*ho*wo) matrix, a view when it is
    channel-major as ``maxpool_backward`` returns it. ``dw`` multiplies it by
    the patch matrix, copied in ``_BLOCK_BYTES`` row blocks of whole
    (channel, kernel row) groups, one GEMM per block. ``db`` adds as
    ``upstream.sum(axis=(0, 2, 3))`` does in C order: pairwise per (sample,
    channel) plane, then plane by plane over the batch; with one channel,
    pairwise over all of it. dx is per sample, so it walks the batch in
    cache-sized chunks: each chunk's patch gradients are one stacked GEMM,
    then summed into the padded input gradient tap by tap, in the same
    (i, j) order for every chunk.
    """
    n, c, h, wd = x.shape
    k, _, kh, kw = w.shape
    _, ku, ho, wo = upstream.shape
    if ku != k or upstream.shape[0] != n:
        raise ShapeMismatchError("upstream shape does not match forward output")
    u = upstream.transpose(1, 0, 2, 3).reshape(k, n * ho * wo)
    db = (u.sum(axis=1) if k == 1
          else np.add.accumulate(u.reshape(k, n, -1).sum(axis=2), axis=1)[:, -1])
    xp = _pad(x, pad)
    win = _patch_windows(xp, kh, kw, stride, ho, wo).transpose(1, 2, 3, 0, 4, 5)
    dw = np.empty((k, c * kh * kw), dtype=np.result_type(upstream, x))
    blocks = -(-c * kh * kw * u.shape[1] * x.itemsize // _BLOCK_BYTES)
    step = -(-c * kh // blocks)  # groups per block, as even as whole groups allow
    buf = np.empty((step * kw, u.shape[1]), dtype=x.dtype)
    for g0 in range(0, c * kh, step):
        rows = buf[: (min(g0 + step, c * kh) - g0) * kw]
        for g, group in enumerate(rows.reshape(-1, kw, n, ho, wo), start=g0):
            group[...] = win[divmod(g, kh)]
        np.matmul(u, rows.T, out=dw[:, g0 * kw : g0 * kw + len(rows)])
    dw = dw.reshape(w.shape)
    if not input_grad:
        return np.empty(0, dtype=x.dtype), dw, db
    del buf, rows, group  # free the patch block before dx is built
    up = upstream.reshape(n, k, ho * wo)
    w2t = w.reshape(k, -1).T
    dxp = np.zeros_like(xp)
    for sl in _chunks(n, w2t.shape[0] * ho * wo * upstream.itemsize):
        dcols = np.matmul(w2t, up[sl]).reshape(-1, c, kh, kw, ho, wo)
        dxs = dxp[sl]
        for i in range(kh):
            for j in range(kw):
                dxs[:, :, i : i + stride * ho : stride,
                    j : j + stride * wo : stride] += dcols[:, :, i, j]
    if pad:
        return dxp[:, :, pad : pad + h, pad : pad + wd], dw, db
    return dxp, dw, db


def relu_forward(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0)


def _bit_mask(cond: np.ndarray) -> np.ndarray:
    """``cond`` (a fresh bool array) as int8 -1, all bits set, or 0. A float's
    bits ANDed with it get ``np.where(cond, x, 0)``'s bits, several times
    faster than ``np.where`` computes them."""
    mask = cond.view(np.int8)
    np.negative(mask, out=mask)
    return mask


def relu_backward(y: np.ndarray, upstream: np.ndarray) -> np.ndarray:
    """``upstream`` where ``y`` > 0, else +0, whatever the upstream (an inf or
    NaN included). ``y`` is the relu's input or output: they are > 0 at the
    same elements, NaN and -0 included."""
    as_int = np.dtype(f"i{upstream.itemsize}")
    return np.bitwise_and(upstream.view(as_int), _bit_mask(y > 0)).view(upstream.dtype)


def _pool_views(x: np.ndarray) -> tuple[np.ndarray, ...]:
    """The four positions of every 2x2 window, row-major, as strided views."""
    return x[:, :, 0::2, 0::2], x[:, :, 0::2, 1::2], x[:, :, 1::2, 0::2], x[:, :, 1::2, 1::2]


def maxpool_forward(x: np.ndarray,
                    argmax: bool = True) -> tuple[np.ndarray, np.ndarray | None]:
    """2x2 stride-2 max pooling; returns (output, int8 argmax per window).

    The windows are read as four strided views of ``x``; nothing is copied
    into a window layout. Positions are numbered row-major (0 1 / 2 3) and
    the argmax is built from strict ``>`` compares, so a tie goes to the
    earliest position, as ``np.argmax`` would pick it. The output is an
    ``np.maximum`` tree, which carries a NaN at any position through to the
    logits. Without ``argmax`` (inference, where no backward reads it) the
    argmax is not built and comes back as None; the output is the same tree
    and has the same bytes. Every window is independent, so the network's
    conv blocks call it one cache-sized chunk of the batch at a time.
    """
    _, _, h, w = x.shape
    if h % 2 or w % 2:
        raise ShapeMismatchError(f"maxpool needs even spatial dims, got {h}x{w}")
    a, b, c, d = _pool_views(x)
    # np.maximum keeps its second operand on a tie, so the earlier position
    # goes second: the output is then the argmax element, down to a zero's sign
    top, bottom = np.maximum(b, a), np.maximum(d, c)
    out = np.maximum(bottom, top)
    if not argmax:
        return out, None
    # lo + (bottom > top) * (hi - lo + 2), with lo, hi in {0, 1}
    lo = (b > a).view(np.int8)
    idx = (d > c).view(np.int8) - lo
    idx += 2
    idx *= bottom > top
    idx += lo
    return out, idx


def maxpool_backward(x_shape: tuple, idx: np.ndarray, upstream: np.ndarray) -> np.ndarray:
    """Route each window's gradient to its argmax position, +0 elsewhere.

    The result is an (N, C, H, W) view of (C, N, H, W) storage, which
    ``conv2d_backward`` reads as a matrix without a copy. Each of the four
    strided views of ``dx`` gets the bits of ``np.where(idx == k, upstream,
    0)``, written as ``upstream``'s bits ANDed with an all-ones or all-zeros
    mask: one pass per view and no temporary the size of ``upstream``. The
    batch is walked in cache-sized chunks, so each chunk's four passes read
    ``idx`` and ``upstream`` from cache.
    """
    n, c, h, w = x_shape
    dx = np.empty((c, n, h, w), dtype=upstream.dtype).transpose(1, 0, 2, 3)
    as_int = np.dtype(f"i{upstream.itemsize}")
    bits = upstream.view(as_int)
    for sl in _chunks(n, c * h * w * dx.itemsize):
        for k, view in enumerate(_pool_views(dx[sl].view(as_int))):
            np.bitwise_and(bits[sl], _bit_mask(idx[sl] == k), out=view)
    return dx


def fc_forward(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    if x.shape[1] != w.shape[1]:
        raise ShapeMismatchError(f"fc input dim {x.shape[1]} != weight in_dim {w.shape[1]}")
    return x @ w.T + b


def fc_backward(x: np.ndarray, w: np.ndarray, upstream: np.ndarray):
    return upstream @ w, upstream.T @ x, upstream.sum(axis=0)


def dropout_forward(x: np.ndarray, p: float, rng: Prng) -> tuple[np.ndarray, np.ndarray]:
    """Inverted dropout: kept activations scaled by 1/(1-p)."""
    mask = (rng.uniform(x.size) >= p).reshape(x.shape)
    return x * mask / (1.0 - p), mask


def dropout_backward(mask: np.ndarray, p: float, upstream: np.ndarray) -> np.ndarray:
    return upstream * mask / (1.0 - p)


# --- whole-network passes --------------------------------------------------------

def _layer_params(params: ModelParams) -> list[tuple]:
    """Each layer with its (weight, bias), in the order the walks run them.

    A layer without parameters gets (None, None). A conv that does not start
    a conv - relu - maxpool row, or a maxpool that does not end one, raises
    ``ShapeMismatchError``. A row's relu runs after its maxpool: relu and max
    commute, and the first-match argmax picks the same element whenever the
    window's max is > 0 (else relu zeroes the gradient either way), so values
    and gradients are unchanged while relu works on a quarter of the data.
    """
    pairs = iter(zip(params.weights, params.biases))
    run = [(spec, *(next(pairs) if spec.parametric else (None, None)))
           for spec in params.layers]
    kinds = [spec.kind for spec in params.layers]
    ends = {i + 2 for i in range(len(kinds)) if kinds[i : i + 3] == [CONV, RELU, MAXPOOL]}
    for i, kind in enumerate(kinds):
        if kind in (CONV, MAXPOOL) and (i + 2 if kind == CONV else i) not in ends:
            raise ShapeMismatchError(f"layer {i} ({kind}) is not in a conv - relu - maxpool row")
    for i in ends:
        run[i - 1], run[i] = run[i], run[i - 1]
    return run


def _conv_pool_relu(block: list[tuple], x: np.ndarray, frozen: list | None,
                    keep: bool) -> tuple[np.ndarray, list | None]:
    """A conv -> maxpool -> relu triple of ``_layer_params``, in batch chunks.

    Each cache-sized chunk is convolved, pooled and relu'd (through the
    module's ``conv2d_forward``, ``maxpool_forward`` and ``relu_forward``)
    while it is still in cache, then written into the batch-sized output and
    int8 argmax; the conv's full-resolution output never exists for the
    whole batch. Every primitive is per sample, so the chunks change no bit.
    With ``frozen`` (the triple's caches from a train-mode pass) each chunk's
    argmax and relu mask come from it. Returns (output, caches): with
    ``keep``, the triple's caches as a layer-by-layer walk builds them (the
    conv input, (conv-output shape, argmax), the relu output), else None.
    """
    (conv, w, b), (pool, _, _), (relu, _, _) = block
    n = x.shape[0]
    ho, wo = conv_out_hw(x.shape[2], x.shape[3], conv)
    out = idx = None  # shaped by the first chunk, once the primitives have checked it
    for sl in _chunks(n, w[0].size * ho * wo * x.itemsize):
        y = conv2d_forward(x[sl], w, b, conv.stride, conv.pad)
        if frozen is None:
            pooled, chunk_idx = maxpool_forward(y, argmax=keep)
            r = relu_forward(pooled)
        else:
            pooled = np.choose(frozen[1][1][1][sl], _pool_views(y))
            r = pooled * (frozen[2][1][sl] > 0)
        if out is None:
            out = np.empty((n, *r.shape[1:]), dtype=r.dtype)
            idx = np.empty(out.shape, dtype=np.int8) if keep else None
        out[sl] = r
        if keep:
            idx[sl] = chunk_idx
    return out, [(conv, x), (pool, ((n, *y.shape[1:]), idx)), (relu, out)] if keep else None


def _forward_walk(params: ModelParams, x: np.ndarray, rng: Prng | None = None,
                  frozen: list | None = None,
                  keep: bool = True) -> tuple[np.ndarray, list | None]:
    """The one walk through the stack; returns (output, caches).

    Each conv starts a conv -> maxpool -> relu triple (``_layer_params``
    checks it), run as one ``_conv_pool_relu`` block; every other layer runs
    on the whole batch. Dropout fires when ``rng`` is given. With ``frozen``
    (the caches of an earlier train-mode pass), ReLU masks and maxpool argmax
    are taken from it instead of from ``x``. Without ``keep`` no cache is
    built, so each activation is freed as soon as the next layer has read it,
    no maxpool argmax is computed, and caches is None. A relu keeps its
    output, which the next layer keeps as its input anyway.
    """
    caches = [] if keep else None
    run = _layer_params(params)
    i = 0
    while i < len(run):
        spec, w, b = run[i]
        if spec.kind == CONV:
            x, block = _conv_pool_relu(run[i : i + 3], x,
                                       None if frozen is None else frozen[i : i + 3], keep)
            if keep:
                caches += block
            i += 3
            continue
        cache = x  # fc keeps its input for backward
        if spec.kind == RELU:
            x = cache = relu_forward(x) if frozen is None else x * (frozen[i][1] > 0)
        elif spec.kind == FLATTEN:
            cache = x.shape
            x = x.reshape(x.shape[0], -1)
        elif spec.kind == FC:
            x = fc_forward(x, w, b)
        elif spec.kind == DROPOUT:
            cache = None
            if rng is not None:
                x, cache = dropout_forward(x, DROPOUT_P, rng)
        else:
            raise ValueError(f"unknown layer kind {spec.kind!r}")
        if keep:
            caches.append((spec, cache))
        i += 1
    return x, caches


def forward(params: ModelParams, x: np.ndarray, mode: str = "infer",
            rng: Prng | None = None):
    """Run the stack. ``mode='train'`` returns (logits, caches) for backward;
    ``mode='infer'`` returns logits, skips dropout and keeps no caches.

    Dropout fires only in train mode *and* when an rng is supplied; gradient
    checking passes ``rng=None`` to keep the path deterministic.
    """
    if mode not in ("train", "infer"):
        raise ValueError(f"mode must be train or infer, got {mode!r}")
    first = params.layers[0]
    if x.ndim != 4 or x.shape[1] != first.in_ch:
        raise ShapeMismatchError(f"input shape {x.shape} does not fit first conv "
                                 f"(need (N, {first.in_ch}, H, W))")
    train = mode == "train"
    x, caches = _forward_walk(params, x, rng if train else None, keep=train)
    if not np.isfinite(x).all():
        raise NonFiniteActivationError("non-finite logits")
    return (x, caches) if train else x


def forward_frozen(params: ModelParams, x: np.ndarray, caches: list) -> np.ndarray:
    """Evaluate the network with routing decisions frozen from ``caches``.

    ReLU masks and maxpool argmax indices are held at the values recorded by
    a train-mode forward; dropout is identity. The result is the local
    linearization whose exact gradient backward computes — the function a
    finite-difference oracle must probe for the comparison to be meaningful
    at step sizes that would otherwise cross ReLU kinks.
    """
    return _forward_walk(params, x, frozen=caches, keep=False)[0]


def backward(params: ModelParams, caches: list, dlogits: np.ndarray):
    """Gradients w.r.t. every weight and bias, given dLoss/dlogits.

    Returns (dweights, dbiases) shaped exactly like params.weights/biases.
    Subnormal dlogits entries count as 0: numpy cannot set FTZ/DAZ, and once
    the loss saturates they would slow every layer's backward several-fold.
    """
    run = _layer_params(params)
    if len(caches) != len(params.layers):
        raise StaleCacheError("cache count does not match layer count")
    last_fc = params.layers[-1]
    if dlogits.ndim != 2 or dlogits.shape[1] != last_fc.out_dim:
        raise StaleCacheError(f"dlogits shape {dlogits.shape} does not match head")
    grads = []  # (dw, db) per parametric layer, last layer first
    dx = np.where(np.abs(dlogits) < np.finfo(dlogits.dtype).tiny, 0, dlogits)
    walk = reversed(list(enumerate(zip(run, caches))))
    for i, ((spec, w, _), (_, cache)) in walk:
        if spec.parametric and cache.shape[0] != dx.shape[0]:
            raise StaleCacheError("batch size changed between forward and backward")
        if spec.kind == CONV:
            # nothing reads the input gradient of the first layer
            dx, dw, db = conv2d_backward(cache, w, dx, spec.stride, spec.pad, input_grad=i > 0)
            grads.append((dw, db))
        elif spec.kind == RELU:
            dx = relu_backward(cache, dx)
        elif spec.kind == MAXPOOL:
            x_shape, idx = cache
            dx = maxpool_backward(x_shape, idx, dx)
        elif spec.kind == FLATTEN:
            dx = dx.reshape(cache)
        elif spec.kind == FC:
            dx, dw, db = fc_backward(cache, w, dx)
            grads.append((dw, db))
        elif spec.kind == DROPOUT:
            if cache is not None:
                dx = dropout_backward(cache, DROPOUT_P, dx)
    grads.reverse()
    return [dw for dw, _ in grads], [db for _, db in grads]
