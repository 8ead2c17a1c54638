"""Minimal deterministic CNN with manual backpropagation.

Architecture: conv3x3 (pad 1, stride 1) -> ReLU -> dropout(0.5) ->
maxpool 2x2 (stride 1) -> flatten -> fc -> ReLU -> fc -> 13 logits.
At full scale the conv has 122 output channels so the flattened feature
count is 122*4*9 = 4392. A model computes in the dtype of its parameters:
float64 by default, so finite-difference gradient checks hold to tight
tolerances; ``pipeline.train`` builds it in its float32 training tensor's dtype.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import COLS, ROWS
from .gestures import N_CLASSES

CONV_CHANNELS = 122
HIDDEN = 100
DROPOUT_P = 0.5
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPSILON = 1e-8
_ADAM_BLOCK = 32 * 1024  # elements per Adam block: 128 KiB of float32, 256 KiB of float64


class ShapeError(ValueError):
    pass


# ---------------------------------------------------------------------------
# layers (functional, cache-returning)

class Workspace:
    """Buffers of one dtype reused from call to call, one per name, each grown
    to the largest shape asked of it. A model keeps one in its parameters'
    dtype for its conv, so a training step or prediction allocates no buffer
    of the conv's stacked-tap size and the heap does not depend on which batch
    sizes came before."""

    def __init__(self, dtype=np.float64):
        self.dtype = np.dtype(dtype)
        self._bufs: dict[str, np.ndarray] = {}

    def take(self, name: str, shape: tuple[int, ...]) -> np.ndarray:
        """A C-contiguous view of ``shape`` over the buffer ``name``; its
        contents are whatever the last user left."""
        size = math.prod(shape)
        buf = self._bufs.get(name)
        if buf is None or buf.size < size:
            self._bufs.pop(name, None)  # free the smaller buffer before the larger one
            buf = self._bufs[name] = np.empty(size, self.dtype)
        return buf[:size].reshape(shape)


def _shift(d: int, n: int) -> tuple[slice, slice]:
    """(source, target) slices of a tap offset d along an axis of n cells:
    target cell t reads source cell t + d, for every t that keeps it inside."""
    return slice(max(0, d), n + min(0, d)), slice(max(0, -d), n - max(0, d))


def conv2d_forward(x: np.ndarray, w: np.ndarray, b: np.ndarray,
                   work: Workspace | None = None):
    """3x3 convolution, zero padding 1, stride 1. x: (N, C, H, W), any float dtype.

    The input is written once, cast to the workspace's dtype, into a
    batch-minor X (C, H*W*N). One GEMM of the stacked taps,
    Z = w (9K, C) @ X with row (i, j, k), gives every tap's product with the
    unpadded input; y is the centre tap's Z plus the bias, then the other
    eight taps' Z added at their shifts in row-major tap order, so no padded
    or im2col copy of the input is formed. y is returned as the (N, K, H, W)
    view of a batch-minor (K, H, W, N) array. X is cached for
    conv2d_backward; it and Z are taken from ``work`` (a fresh one in w's
    dtype when None), so the cache holds only until the next call with it.
    """
    n, c, h, wd = x.shape
    k_out, c_k, kh, kw = w.shape
    if c != c_k:
        raise ShapeError(f"conv input has {c} channels, kernel expects {c_k}")
    work = Workspace(w.dtype) if work is None else work
    xt = work.take("input", (c, h, wd, n))
    xt[...] = x.transpose(1, 2, 3, 0)
    xt = xt.reshape(c, -1)
    z = work.take("taps", (kh, kw, k_out, h, wd, n))
    np.matmul(w.transpose(2, 3, 0, 1).reshape(-1, c), xt, out=z.reshape(-1, xt.shape[1]))
    ci, cj = kh // 2, kw // 2
    y = z[ci, cj] + b[:, None, None, None]
    with np.errstate():  # restores the ufunc buffer size on exit
        np.setbufsize(256)  # a shifted slice has short contiguous runs: ~2x faster, same bits
        for i, j in np.ndindex(kh, kw):
            if (i, j) != (ci, cj):
                (hs, ht), (ws, wt) = _shift(i - ci, h), _shift(j - cj, wd)
                y[:, ht, wt] += z[i, j, :, hs, ws]
    return y.transpose(3, 0, 1, 2), (xt, w, work)


def conv2d_backward(dy: np.ndarray, cache):
    """Returns (None, dw, db). The conv is the network's input layer, so no
    input gradient is formed; the first slot keeps the (dx, dw, db) layout.

    dy may be in any memory order. db sums a C-order dy, so its bits do not
    depend on that order. dW is the (9K, H*W*N) stack of dy shifted by each
    tap times X.T. The stack is built in the forward's tap buffer, which the
    forward no longer needs; its GEMM left values in every cell, so each tap's
    border row and column, which the shift leaves out, is zeroed here.
    """
    xt, w, work = cache
    n, k_out, h, wd = dy.shape
    kh, kw = w.shape[2:]
    db = np.ascontiguousarray(dy).sum(axis=(0, 2, 3))
    stack = work.take("taps", (kh, kw, k_out, h, wd, n))
    dyt = dy.transpose(1, 2, 3, 0)
    for i, j in np.ndindex(kh, kw):
        (hs, ht), (ws, wt) = _shift(i - kh // 2, h), _shift(j - kw // 2, wd)
        tap = stack[i, j]
        tap[:, hs, ws] = dyt[:, ht, wt]
        tap[:, :hs.start] = tap[:, hs.stop:] = 0
        tap[:, :, :ws.start] = tap[:, :, ws.stop:] = 0
    dw = np.matmul(stack.reshape(-1, xt.shape[1]), xt.T)  # (9K, C), row (i, j, k)
    return None, np.ascontiguousarray(dw.reshape(kh, kw, k_out, -1).transpose(2, 3, 0, 1)), db


def maxpool2_forward(x: np.ndarray):
    """2x2 max pooling with stride 1; (N, C, H, W) -> (N, C, H-1, W-1).

    Both outputs are argmax's first maximum over the four shifted slices,
    window offset a = 2*di + dj. np.maximum returns its second operand when
    the two compare equal (+0.0 vs -0.0), so each earlier slice is passed
    second and wins ties. The cached int8 ``arg`` counts the leading slices
    that miss the maximum, a chain of ``!=`` (the exact complement of ``==``)
    with no masked loop; a window holding NaN misses everywhere and gets 3.
    """
    if x.shape[2] < 2 or x.shape[3] < 2:
        raise ShapeError("maxpool needs spatial dims >= 2")
    ho, wo = x.shape[2] - 1, x.shape[3] - 1
    s = [x[:, :, di:di + ho, dj:dj + wo] for di in (0, 1) for dj in (0, 1)]
    y = np.maximum(np.maximum(s[3], s[2]), np.maximum(s[1], s[0]))
    miss = s[0] != y
    arg = miss.astype(np.int8)
    for a in (1, 2):
        miss &= s[a] != y
        arg += miss
    return y, (x.shape, arg)


def maxpool2_backward(dy: np.ndarray, cache):
    x_shape, arg = cache
    n, c, ho, wo = dy.shape
    dx = np.zeros_like(dy, shape=x_shape)  # in dy's memory order
    # Window offset a = 2*di + dj. Overlapping windows of one pixel are summed
    # in the order a = 3, 2, 1, 0, the row-major order of the windows, so the
    # result equals the np.add.at scatter bit for bit. A window that did not
    # pick the pixel adds a finite dy times False, a ±0.0 (no masked loop): dx
    # starts at +0.0 and a partial sum is never -0.0, so its bits stay.
    for a in (3, 2, 1, 0):
        di, dj = divmod(a, 2)
        dx[:, :, di:di + ho, dj:dj + wo] += dy * (arg == a)
    return dx


def relu_forward(x: np.ndarray):
    mask = x > 0
    return x * mask, mask


def relu_backward(dy: np.ndarray, mask: np.ndarray):
    return dy * mask


def dropout_mask(shape, rng: np.random.Generator, dtype=np.float64) -> np.ndarray:
    """Inverted-dropout mask at rate ``DROPOUT_P``, its uniforms drawn in
    ``dtype``, pre-scaled: 0 for a dropped unit, 1/(1-DROPOUT_P) for a survivor."""
    return (rng.random(shape, dtype=dtype) >= DROPOUT_P) * np.asarray(1 / (1 - DROPOUT_P), dtype)


def dropout_forward(x: np.ndarray, mask: np.ndarray | None) -> np.ndarray:
    """Inverted dropout with a dropout_mask; identity without a mask."""
    return x if mask is None else x * mask


def dropout_backward(dy: np.ndarray, mask: np.ndarray | None) -> np.ndarray:
    return dy if mask is None else dy * mask


def linear_forward(x: np.ndarray, w: np.ndarray, b: np.ndarray):
    if x.shape[-1] != w.shape[1]:
        raise ShapeError(f"linear input dim {x.shape[-1]} != weight dim {w.shape[1]}")
    return x @ w.T + b, (x, w)


def linear_backward(dy: np.ndarray, cache):
    x, w = cache
    return dy @ w, dy.T @ x, dy.sum(axis=0)


def softmax_cross_entropy(logits: np.ndarray, labels: np.ndarray):
    """Mean cross-entropy loss of (N, 13) logits and its gradient dloss/dlogits."""
    labels = np.asarray(labels)
    if labels.min() < 0 or labels.max() >= logits.shape[1]:
        raise ValueError("label out of range")
    n = logits.shape[0]
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    total = e.sum(axis=1, keepdims=True)
    loss = -(z - np.log(total))[np.arange(n), labels].mean()
    grad = e / total
    grad[np.arange(n), labels] -= 1.0
    grad /= n
    return float(loss), grad


# ---------------------------------------------------------------------------
# model

def _batch_minor(a: np.ndarray) -> np.ndarray:
    """The (N, C, H, W) view of a copy of ``a`` laid out (C, H, W, N), the
    memory order the conv's output keeps through ReLU, dropout and maxpool."""
    return np.ascontiguousarray(a.transpose(1, 2, 3, 0)).transpose(3, 0, 1, 2)


def param_shapes(in_channels: int, conv_channels: int = CONV_CHANNELS,
                 hidden: int = HIDDEN) -> dict[str, tuple[int, ...]]:
    """The shape of each of a ``CnnModel``'s parameters, in declared order."""
    flat_dim = conv_channels * (ROWS - 1) * (COLS - 1)
    return {"conv_w": (conv_channels, in_channels, 3, 3), "conv_b": (conv_channels,),
            "fc1_w": (hidden, flat_dim), "fc1_b": (hidden,),
            "fc2_w": (N_CLASSES, hidden), "fc2_b": (N_CLASSES,)}


class CnnModel:
    """Conv/FC classifier; full scale is in_channels 122 or 366. Every pass
    computes in ``dtype``. Without ``params`` the weights are drawn in
    float64 (Kaiming uniform) and the biases are zero; given ``params``,
    such as a checkpoint's, the model starts from them and draws nothing.
    Either way they are cast to ``dtype``.
    The conv output keeps its batch-minor memory order through ReLU, dropout
    and maxpool, which see it as (N, K, H, W) views; the FC layers get a
    C-order (N, features) copy."""

    def __init__(self, in_channels: int, seed: int = 0, conv_channels: int = CONV_CHANNELS,
                 hidden: int = HIDDEN, dtype=np.float64,
                 params: dict[str, np.ndarray] | None = None):
        self.in_channels = in_channels
        self.dtype = np.dtype(dtype)
        shapes = param_shapes(in_channels, conv_channels, hidden)
        if params is None:
            rng = np.random.default_rng(np.random.SeedSequence([seed, 0x494E4954]))
            # weights in declared order, each with fan-in = the product of its trailing dims
            params = {k: self._kaiming(rng, s) if k.endswith("_w") else np.zeros(s)
                      for k, s in shapes.items()}
        self.params: dict[str, np.ndarray] = {k: params[k].astype(self.dtype) for k in shapes}
        self._work = Workspace(self.dtype)  # the conv's buffers, shared by every pass of this model

    @staticmethod
    def _kaiming(rng, shape):
        limit = np.sqrt(6.0 / np.prod(shape[1:]))
        return rng.uniform(-limit, limit, size=shape)

    def forward(self, x: np.ndarray, dropout_rng: np.random.Generator | None = None):
        """Returns (logits, cache). With a dropout generator the pass trains
        (a fresh dropout mask is drawn from it); without one it is inference.
        The cache is good for backward until this model's next forward. It is
        a list of what each layer's backward reads, first layer first, so a
        backward pops its entries from the end. Each layer's output ``a``
        replaces its input, so the pass holds no activation that no later
        layer or backward reads."""
        if x.ndim != 4 or x.shape[1:] != (self.in_channels, ROWS, COLS):
            raise ShapeError(f"expected (N, {self.in_channels}, {ROWS}, {COLS}), got {x.shape}")
        p = self.params
        a, conv_cache = conv2d_forward(x, p["conv_w"], p["conv_b"], self._work)
        a, r1_mask = relu_forward(a)
        drop_mask = (None if dropout_rng is None
                     else _batch_minor(dropout_mask(a.shape, dropout_rng, self.dtype)))
        a = dropout_forward(a, drop_mask)
        a, pool_cache = maxpool2_forward(a)
        pool_shape = a.shape
        # a C-order copy, features in (k, h, w) order: the reshape alone is a
        # transposed view, on which the FC GEMMs run about 3x slower and round
        # differently
        a = np.ascontiguousarray(a.reshape(a.shape[0], -1))
        a, fc1_cache = linear_forward(a, p["fc1_w"], p["fc1_b"])
        a, a1_mask = relu_forward(a)
        logits, fc2_cache = linear_forward(a, p["fc2_w"], p["fc2_b"])
        cache = [conv_cache, r1_mask, drop_mask, pool_cache, pool_shape,
                 fc1_cache, a1_mask, fc2_cache]
        return logits, cache

    def backward(self, dlogits: np.ndarray, cache: list) -> dict[str, np.ndarray]:
        """Parameter gradients from dloss/dlogits and a forward's cache, which
        it empties: each entry is popped when its layer runs, and each layer's
        input gradient ``d`` replaces the one before it. Given the only
        references, the conv's weight-gradient GEMM runs beside the finished
        gradients and its own dy alone. A caller who needs the cache afterwards
        passes ``list(cache)``."""
        grads: dict[str, np.ndarray] = {}
        d, grads["fc2_w"], grads["fc2_b"] = linear_backward(dlogits, cache.pop())
        d = relu_backward(d, cache.pop())
        d, grads["fc1_w"], grads["fc1_b"] = linear_backward(d, cache.pop())
        d = _batch_minor(d.reshape(cache.pop()))  # to the pool's (N, K, H, W) shape
        d = maxpool2_backward(d, cache.pop())
        d = dropout_backward(d, cache.pop())
        d = relu_backward(d, cache.pop())
        _, grads["conv_w"], grads["conv_b"] = conv2d_backward(d, cache.pop())
        return grads

    def loss_and_grads(self, x, labels, dropout_rng=None):
        """Mean loss and parameter gradients; dropout_rng as in forward. The
        batch and the logits are dropped once used, and the backward gets the
        only references to the cache's entries, so a step holds no array it
        no longer needs."""
        logits, cache = self.forward(x, dropout_rng)
        del x  # the conv copied it into its workspace
        loss, dlogits = softmax_cross_entropy(logits, labels)
        del logits
        return loss, self.backward(dlogits, cache)

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Inference argmax class per sample; ties resolve to the lowest index."""
        logits, _ = self.forward(x)
        return logits.argmax(axis=1)

    def clone_params(self) -> dict[str, np.ndarray]:
        return {k: v.copy() for k, v in self.params.items()}

    def set_params(self, params: dict[str, np.ndarray]) -> None:
        """Copies of ``params``, cast to the model's dtype."""
        for k in self.params:
            self.params[k] = params[k].astype(self.dtype)


@dataclass
class AdamState:
    """Bias-corrected Adam over a parameter dict."""

    lr: float = 1e-4
    step_count: int = field(default=0, init=False)
    m: dict[str, np.ndarray] = field(default_factory=dict, init=False)
    v: dict[str, np.ndarray] = field(default_factory=dict, init=False)
    # two block-sized work buffers in the parameters' dtype, reused across
    # parameters and steps
    _work: tuple[np.ndarray, ...] = field(default=(), init=False, repr=False, compare=False)

    def step(self, params: dict[str, np.ndarray], grads: dict[str, np.ndarray]) -> None:
        """Updates m, v and params in place, with the textbook operation order.

        Each parameter is updated in blocks of _ADAM_BLOCK elements so that a
        block's 14 passes stay in cache; every element sees the same operations
        as an unblocked update, so the result is bit-identical.
        """
        if not self.m:
            self.m = {k: np.zeros_like(v) for k, v in params.items()}
            self.v = {k: np.zeros_like(v) for k, v in params.items()}
            dtype = np.result_type(*params.values())
            self._work = (np.empty(_ADAM_BLOCK, dtype), np.empty(_ADAM_BLOCK, dtype))
        self.step_count += 1
        t = self.step_count
        c1 = 1 - ADAM_BETA1**t
        c2 = 1 - ADAM_BETA2**t
        for k, p in params.items():
            g = grads[k]
            if g.shape != p.shape:
                raise ShapeError(f"gradient shape {g.shape} != param shape {p.shape} for {k}")
            try:
                flat_p, flat_m, flat_v = (a.reshape(-1, copy=False)
                                          for a in (p, self.m[k], self.v[k]))
            except ValueError:
                raise ShapeError(f"parameter {k} cannot be updated in place as a flat view")
            flat_g = g.reshape(-1)
            for i in range(0, flat_p.size, _ADAM_BLOCK):
                blk = slice(i, i + _ADAM_BLOCK)
                g_, m, v, p_ = flat_g[blk], flat_m[blk], flat_v[blk], flat_p[blk]
                upd, den = self._work[0][:len(p_)], self._work[1][:len(p_)]
                np.multiply(g_, 1 - ADAM_BETA1, out=upd)
                m *= ADAM_BETA1
                m += upd
                np.multiply(g_, 1 - ADAM_BETA2, out=upd)
                upd *= g_
                v *= ADAM_BETA2
                v += upd
                np.divide(v, c2, out=den)  # v_hat
                np.sqrt(den, out=den)
                den += ADAM_EPSILON
                np.divide(m, c1, out=upd)  # m_hat
                upd *= self.lr
                upd /= den
                p_ -= upd
