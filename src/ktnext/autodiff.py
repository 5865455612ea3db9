"""Minimal reverse-mode tape over numpy arrays.

Nodes hold dense float64 or complex128 values.  A real scalar loss is
differentiated by walking the tape once in reverse topological order; each
node's vjp maps the upstream gradient to one gradient per parent.

Complex arrays follow the 2-channel real embedding convention: the stored
gradient for a complex tensor z is dL/dRe(z) + 1j*dL/dIm(z).  Under that
convention the vjp of any complex-linear unitary map (the centered FFTs) is
its inverse, and real diagonal maps (masking, hard/soft data consistency)
multiply the gradient by the same real factors.

Shapes follow two fixed layouts: real activation tensors are [n][c][h][w];
complex volumes are [t][y][x] (or [f][y][x] after a temporal transform).
"""

from __future__ import annotations

import math

import numpy as np

from .sampling import KtMeasurement
from .volume import _fft1c_arr, _ifft1c_arr
from .xf import dc_array

__all__ = [
    "Tensor",
    "add",
    "add_const",
    "backward",
    "channels_to_complex_image",
    "channels_to_complex_xf",
    "complex_to_channels_image",
    "complex_to_channels_xf",
    "concat_channels",
    "constant",
    "conv2d",
    "data_consistency",
    "fft2c",
    "fft_t",
    "ifft2c",
    "ifft_t",
    "leaky_relu",
    "parameter",
    "relu",
    "scale",
    "slice_frame",
    "stack_frames",
    "sum_scalar",
    "sumsq_diff",
    "sumsq_diff_real",
]


class Tensor:
    """One tape node: a value, its parents, and the vjp closing over them."""

    __slots__ = ("value", "parents", "vjp", "grad", "needs_grad", "name")

    def __init__(self, value, parents=(), vjp=None, needs_grad=False, name=""):
        self.value = value
        self.parents = parents
        self.vjp = vjp
        self.grad = None
        self.name = name
        self.needs_grad = needs_grad or any(p.needs_grad for p in parents)

    def __repr__(self):
        tag = self.name or "tensor"
        return f"<{tag} {self.value.shape} {self.value.dtype}>"


def _coerce(value):
    arr = np.asarray(value)
    if np.iscomplexobj(arr):
        return arr.astype(np.complex128, copy=False)
    return arr.astype(np.float64, copy=False)


def constant(value, name="") -> Tensor:
    return Tensor(_coerce(value), name=name)


def parameter(value, name="") -> Tensor:
    arr = np.array(value, dtype=np.complex128 if np.iscomplexobj(value) else np.float64)
    return Tensor(arr, needs_grad=True, name=name)


def backward(loss: Tensor) -> None:
    """Accumulate gradients of a real scalar loss into every needs_grad leaf."""
    if loss.value.size != 1 or np.iscomplexobj(loss.value):
        raise ValueError(f"backward needs a real scalar loss, got {loss.value.shape} {loss.value.dtype}")
    order = []
    seen = {id(loss)}
    stack = [(loss, iter(loss.parents))]
    while stack:
        node, children = stack[-1]
        for child in children:
            if id(child) not in seen:
                seen.add(id(child))
                stack.append((child, iter(child.parents)))
                break
        else:
            order.append(node)
            stack.pop()
    loss.grad = np.ones_like(loss.value)
    for node in reversed(order):
        if node.vjp is None or node.grad is None or not node.needs_grad:
            continue
        for parent, g in zip(node.parents, node.vjp(node.grad)):
            if g is None or not parent.needs_grad:
                continue
            parent.grad = g if parent.grad is None else parent.grad + g


# ------------------------------------------------------------- real ops


def conv2d(x: Tensor, w: Tensor, b, dilation: int) -> Tensor:
    """Same-size 2D convolution, zero padding dilation*(k-1)/2 per side.

    x is [n][ci][h][w], w is [co][ci][k][k], b is [co] or None.  The input is
    written once into a zero-padded grid laid out [ci][h+2p][n][w+2p] and
    flattened per channel, with 2p trailing zeros.  Every tap (i, j) is then
    one contiguous column window of that buffer, starting at i*d rows and
    j*d columns, so forward and vjp are one 2-D GEMM per tap on a view, with
    the batch folded into the GEMM's column axis.  The output is computed on
    the grid [co][h][n][w+2p]; its last 2p columns read past the row's end
    (into the next row, or the tail) and are cut away.
    """
    xv, wv = x.value, w.value
    if xv.ndim != 4 or wv.ndim != 4:
        raise ValueError(f"conv2d expects 4D tensors, got {xv.shape} and {wv.shape}")
    n, ci, h, wid = xv.shape
    co, ci_w, k, k2 = wv.shape
    if ci_w != ci or k != k2:
        raise ValueError(f"kernel {wv.shape} incompatible with input {xv.shape}")
    if dilation < 1:
        raise ValueError("dilation must be >= 1")
    pad = dilation * (k - 1) // 2
    hp, wp = h + 2 * pad, wid + 2 * pad
    span, body = h * n * wp, hp * n * wp
    taps = [(i, j, i * dilation * n * wp + j * dilation) for i in range(k) for j in range(k)]
    flat = np.zeros((ci, body + 2 * pad))
    grid = flat[:, :body].reshape(ci, hp, n, wp)
    grid[:, pad : pad + h, :, pad : pad + wid] = xv.transpose(1, 2, 0, 3)
    outp = np.zeros((co, span))
    for i, j, off in taps:
        outp += wv[:, :, i, j] @ flat[:, off : off + span]
    out = np.ascontiguousarray(outp.reshape(co, h, n, wp)[..., :wid].transpose(2, 0, 1, 3))
    parents = (x, w)
    if b is not None:
        out += b.value[None, :, None, None]
        parents = (x, w, b)

    def vjp(g):
        gp = np.zeros((co, h, n, wp))
        gp[..., :wid] = g.transpose(1, 2, 0, 3)
        gp = gp.reshape(co, span)
        gw = np.empty_like(wv)
        gflat = np.zeros_like(flat)
        for i, j, off in taps:
            gw[:, :, i, j] = gp @ flat[:, off : off + span].T
            gflat[:, off : off + span] += wv[:, :, i, j].T @ gp
        gx = gflat[:, :body].reshape(ci, hp, n, wp)[:, pad : pad + h, :, pad : pad + wid]
        gx = np.ascontiguousarray(gx.transpose(2, 0, 1, 3))
        if b is None:
            return gx, gw
        return gx, gw, g.sum(axis=(0, 2, 3))

    return Tensor(out, parents, vjp, name="conv2d")


def relu(x: Tensor) -> Tensor:
    mask = x.value > 0
    # selecting 0 where x <= 0 rather than x where x > 0 lets NaN through
    return Tensor(np.where(x.value <= 0, 0.0, x.value), (x,), lambda g: (g * mask,), name="relu")


def leaky_relu(x: Tensor, slope: float = 0.01) -> Tensor:
    mask = x.value > 0
    out = np.where(mask, x.value, slope * x.value)
    return Tensor(out, (x,), lambda g: (np.where(mask, g, slope * g),), name="leaky_relu")


def add(x: Tensor, y: Tensor) -> Tensor:
    if x.value.shape != y.value.shape:
        raise ValueError(f"add shapes differ: {x.value.shape} vs {y.value.shape}")
    return Tensor(x.value + y.value, (x, y), lambda g: (g, g), name="add")


def scale(x: Tensor, alpha: float) -> Tensor:
    return Tensor(x.value * alpha, (x,), lambda g: (g * alpha,), name="scale")


def add_const(x: Tensor, arr) -> Tensor:
    return Tensor(x.value + arr, (x,), lambda g: (g,), name="add_const")


def concat_channels(xs) -> Tensor:
    xs = list(xs)
    sizes = [t.value.shape[1] for t in xs]
    value = np.concatenate([t.value for t in xs], axis=1)
    splits = np.cumsum(sizes)[:-1]

    def vjp(g):
        return tuple(np.split(g, splits, axis=1))

    return Tensor(value, tuple(xs), vjp, name="concat")


def slice_frame(x: Tensor, i: int) -> Tensor:
    value = x.value[i : i + 1].copy()

    def vjp(g):
        out = np.zeros_like(x.value)
        out[i : i + 1] = g
        return (out,)

    return Tensor(value, (x,), vjp, name="slice")


def stack_frames(frames) -> Tensor:
    frames = list(frames)
    sizes = [f.value.shape[0] for f in frames]
    value = np.concatenate([f.value for f in frames], axis=0)
    splits = np.cumsum(sizes)[:-1]

    def vjp(g):
        return tuple(np.split(g, splits, axis=0))

    return Tensor(value, tuple(frames), vjp, name="stack")


def sum_scalar(x: Tensor) -> Tensor:
    return Tensor(
        np.asarray(x.value.sum()),
        (x,),
        lambda g: (np.ones_like(x.value) * g,),
        name="sum",
    )


def sumsq_diff_real(x: Tensor, target) -> Tensor:
    diff = x.value - target
    value = np.asarray(np.sum(diff * diff))
    return Tensor(value, (x,), lambda g: (2.0 * diff * g,), name="sumsq_real")


def sumsq_diff(z: Tensor, target) -> Tensor:
    """Sum of squared complex-magnitude differences; gradient is 2*(z-t)."""
    diff = z.value - target
    value = np.asarray(np.sum(diff.real**2 + diff.imag**2))
    return Tensor(value, (z,), lambda g: (2.0 * diff * g,), name="sumsq")


# ------------------------------------------------------------- complex ops


def complex_to_channels_image(z: Tensor) -> Tensor:
    """[t][y][x] complex -> [t][2][y][x] real (re, im channels)."""
    value = np.stack([z.value.real, z.value.imag], axis=1)
    return Tensor(value, (z,), lambda g: (g[:, 0] + 1j * g[:, 1],), name="c2ch_img")


def channels_to_complex_image(x: Tensor) -> Tensor:
    value = x.value[:, 0] + 1j * x.value[:, 1]

    def vjp(g):
        return (np.stack([g.real, g.imag], axis=1),)

    return Tensor(value, (x,), vjp, name="ch2c_img")


def complex_to_channels_xf(z: Tensor) -> Tensor:
    """[f][y][x] complex -> [y][2][f][x] real: rows batched, (x, f) planes."""
    re = z.value.real.transpose(1, 0, 2)
    im = z.value.imag.transpose(1, 0, 2)
    value = np.stack([re, im], axis=1)

    def vjp(g):
        return ((g[:, 0] + 1j * g[:, 1]).transpose(1, 0, 2),)

    return Tensor(value, (z,), vjp, name="c2ch_xf")


def channels_to_complex_xf(x: Tensor) -> Tensor:
    value = (x.value[:, 0] + 1j * x.value[:, 1]).transpose(1, 0, 2)

    def vjp(g):
        gt = g.transpose(1, 0, 2)
        return (np.stack([gt.real, gt.imag], axis=1),)

    return Tensor(value, (x,), vjp, name="ch2c_xf")


def _unitary_node(z, fwd, inv, name):
    return Tensor(fwd(z.value), (z,), lambda g: (inv(g),), name=name)


def fft2c(z: Tensor) -> Tensor:
    fwd = lambda a: _fft1c_arr(_fft1c_arr(a, 1), 2)
    inv = lambda a: _ifft1c_arr(_ifft1c_arr(a, 1), 2)
    return _unitary_node(z, fwd, inv, "fft2c")


def ifft2c(z: Tensor) -> Tensor:
    fwd = lambda a: _ifft1c_arr(_ifft1c_arr(a, 1), 2)
    inv = lambda a: _fft1c_arr(_fft1c_arr(a, 1), 2)
    return _unitary_node(z, fwd, inv, "ifft2c")


def fft_t(z: Tensor) -> Tensor:
    return _unitary_node(z, lambda a: _fft1c_arr(a, 0), lambda a: _ifft1c_arr(a, 0), "fft_t")


def ifft_t(z: Tensor) -> Tensor:
    return _unitary_node(z, lambda a: _ifft1c_arr(a, 0), lambda a: _fft1c_arr(a, 0), "ifft_t")


def data_consistency(pred_k: Tensor, m: KtMeasurement, lam: float) -> Tensor:
    """Differentiable DC layer on a [t][y][x] k-space tensor.

    The map is affine in the prediction with a real diagonal linear part:
    factor (1 - bits) at lam = inf, (1 - bits) + bits/(1 + lam) otherwise.
    """
    if lam < 0:
        raise ValueError(f"lambda must be nonnegative, got {lam}")
    if pred_k.value.shape != m.kspace.data.shape:
        raise ValueError(
            f"prediction {pred_k.value.shape} does not match measurement {m.kspace.data.shape}"
        )
    bits = m.mask.bits[:, None, :].astype(np.float64)
    factor = (1.0 - bits) if math.isinf(lam) else (1.0 - bits) + bits / (1.0 + lam)
    value = dc_array(pred_k.value, m.kspace.data, m.mask.bits, lam)
    return Tensor(value, (pred_k,), lambda g: (g * factor,), name="dc")
