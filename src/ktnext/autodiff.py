"""Minimal reverse-mode tape over numpy arrays.

Nodes hold dense float64 or complex128 values.  A real scalar loss is
differentiated by walking the tape once in reverse topological order; each
node's vjp maps the upstream gradient to one gradient per parent, and the
walk frees each node once its vjp has run.

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
import threading
from contextlib import contextmanager

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
    "crnn_sweep",
    "data_consistency",
    "fft2c",
    "fft_t",
    "ifft2c",
    "ifft_t",
    "no_tape",
    "parameter",
    "relu",
    "sumsq_diff",
]


_tape = threading.local()  # .off is True inside no_tape() in this thread


@contextmanager
def no_tape():
    """Record no graph in this thread: ops keep values, drop parents and vjp buffers."""
    was, _tape.off = getattr(_tape, "off", False), True
    try:
        yield
    finally:
        _tape.off = was


class Tensor:
    """One tape node: a value, its parents, and the vjp closing over them."""

    __slots__ = ("value", "parents", "vjp", "grad", "needs_grad")

    def __init__(self, value, parents=(), vjp=None, needs_grad=False):
        keep = not getattr(_tape, "off", False)
        self.value = value
        self.parents = parents if keep else ()
        self.vjp = vjp if keep else None
        self.grad = None
        self.needs_grad = keep and (needs_grad or any(p.needs_grad for p in parents))


def _coerce(value):
    arr = np.asarray(value)
    if np.iscomplexobj(arr):
        return arr.astype(np.complex128, copy=False)
    return arr.astype(np.float64, copy=False)


def constant(value) -> Tensor:
    return Tensor(_coerce(value))


def parameter(value) -> Tensor:
    arr = np.array(value, dtype=np.complex128 if np.iscomplexobj(value) else np.float64)
    return Tensor(arr, needs_grad=True)


def backward(loss: Tensor) -> None:
    """Accumulate gradients of a real scalar loss into every needs_grad leaf.

    This consumes the graph, as PyTorch does with retain_graph=False: once a
    node's vjp has run, the node drops its grad, its vjp and its parents
    (set to None), so the buffers each vjp closes over are freed during the
    walk.  Values and leaf gradients stay.  A second backward through a
    consumed node raises RuntimeError; rebuild the graph instead.
    """
    if loss.value.size != 1 or np.iscomplexobj(loss.value):
        raise ValueError(f"backward needs a real scalar loss, got {loss.value.shape} {loss.value.dtype}")

    def visit(node):
        if node.parents is None:
            raise RuntimeError("backward through a graph an earlier backward consumed; "
                               "build it again")
        return node, iter(node.parents)

    order = []
    seen = {id(loss)}
    stack = [visit(loss)]
    while stack:
        node, children = stack[-1]
        for child in children:
            if id(child) not in seen:
                seen.add(id(child))
                stack.append(visit(child))
                break
        else:
            order.append(node)
            stack.pop()
    loss.grad = np.ones_like(loss.value)
    while order:
        node = order.pop()  # reverse topological order; popping lets spent nodes go
        if node.vjp is None or node.grad is None or not node.needs_grad:
            continue
        grads, parents = node.vjp(node.grad), node.parents
        node.grad = node.vjp = node.parents = None
        for parent, g in zip(parents, grads):
            if g is None or not parent.needs_grad:
                continue
            parent.grad = g if parent.grad is None else parent.grad + g


# ------------------------------------------------------------- real ops


def _taps(k: int, dilation: int, row: int):
    """Each kernel tap (i, j) with the start of its window in a padded grid
    whose image rows lie `row` columns apart."""
    return [(i, j, i * dilation * row + j * dilation) for i in range(k) for j in range(k)]


def _taps_forward(wv, flat, taps, span):
    """Convolution on the padded grid: sum over taps of w[:, :, i, j] @ window."""
    out = np.zeros((wv.shape[0], span))
    for i, j, off in taps:
        out += wv[:, :, i, j] @ flat[:, off : off + span]
    return out


def _taps_weight_grad(gp, flat, taps, shape):
    """Weight gradient of _taps_forward for the grid gradient gp [co][span]."""
    gw = np.empty(shape)
    span = gp.shape[1]
    for i, j, off in taps:
        gw[:, :, i, j] = gp @ flat[:, off : off + span].T
    return gw


def _taps_input_grad(wv, gp, taps, gflat):
    """Accumulate the input gradient of _taps_forward into gflat, laid out as flat."""
    span = gp.shape[1]
    for i, j, off in taps:
        gflat[:, off : off + span] += wv[:, :, i, j].T @ gp
    return gflat


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
    taps = _taps(k, dilation, n * wp)
    flat = np.zeros((ci, body + 2 * pad))
    grid = flat[:, :body].reshape(ci, hp, n, wp)
    grid[:, pad : pad + h, :, pad : pad + wid] = xv.transpose(1, 2, 0, 3)
    outp = _taps_forward(wv, flat, taps, span)
    out = np.ascontiguousarray(outp.reshape(co, h, n, wp)[..., :wid].transpose(2, 0, 1, 3))
    parents = (x, w)
    if b is not None:
        out += b.value[None, :, None, None]
        parents = (x, w, b)

    def vjp(g):
        gp = np.zeros((co, h, n, wp))
        gp[..., :wid] = g.transpose(1, 2, 0, 3)
        gp = gp.reshape(co, span)
        gw = _taps_weight_grad(gp, flat, taps, wv.shape)
        gflat = _taps_input_grad(wv, gp, taps, np.zeros_like(flat))
        gx = gflat[:, :body].reshape(ci, hp, n, wp)[:, pad : pad + h, :, pad : pad + wid]
        gx = np.ascontiguousarray(gx.transpose(2, 0, 1, 3))
        if b is None:
            return gx, gw
        return gx, gw, g.sum(axis=(0, 2, 3))

    return Tensor(out, parents, vjp)


def crnn_sweep(pre: Tensor, w: Tensor, dilation: int) -> Tensor:
    """Both sweeps of a bidirectional convolutional recurrence, summed.

    pre is the input part of each frame's pre-activation, [t][c][h][w]; w is
    the hidden-to-hidden kernel [c][c][k][k].  Each direction runs
    h_s = relu(pre[frame s] + conv(h_(s-1), w)), with no conv at s = 0, and
    the output is the sum of the two directions' states per frame.

    Each direction keeps its states in one buffer: conv2d's zero-padded grid
    at n=1, one block per state in sweep order, laid out [c][s][h+2p][w+2p]
    and flattened per channel with 2p trailing zeros.  A state's h2h input
    is then a window of that buffer, and the vjp (backpropagation through
    time) gets a direction's weight gradient over all its frames as one GEMM
    per tap; windows that read across a block's edge land on zero gradient.
    """
    pv, wv = pre.value, w.value
    t_n, c, h, wid = pv.shape
    k = wv.shape[-1]
    if wv.shape != (c, c, k, k) or dilation < 1:
        raise ValueError(f"kernel {wv.shape} at dilation {dilation} does not fit "
                         f"recurrent input {pv.shape}")
    pad = dilation * (k - 1) // 2
    hp, wp = h + 2 * pad, wid + 2 * pad
    block, span = hp * wp, h * wp
    taps = _taps(k, dilation, wp)
    flats = [np.zeros((c, t_n * block + 2 * pad)) for _ in range(2)]
    states = [f[:, : t_n * block].reshape(c, t_n, hp, wp)[..., pad : pad + h, pad : pad + wid]
              for f in flats]
    sweeps = (range(t_n), range(t_n - 1, -1, -1))  # the frame at each sweep position

    for flat, hs, frames in zip(flats, states, sweeps):
        for s, f in enumerate(frames):
            x = pv[f]
            if s:
                conv = _taps_forward(wv, flat[:, (s - 1) * block :], taps, span)
                x = x + conv.reshape(c, h, wp)[..., :wid]
            # selecting 0 where x <= 0 rather than x where x > 0 lets NaN through
            hs[:, s] = np.where(x <= 0, 0.0, x)
    out = np.empty_like(pv)
    np.add(states[0].transpose(1, 0, 2, 3), states[1][:, ::-1].transpose(1, 0, 2, 3), out=out)

    def vjp(g):
        gpre = np.zeros_like(pv)
        gw = np.zeros(wv.shape)
        for flat, hs, frames in zip(flats, states, sweeps):
            # gradient of each h2h conv's output on its grid, at its input's block
            ggrid = np.zeros((c, t_n * block))
            carry = None
            for s in reversed(range(t_n)):
                f = frames[s]
                gh = g[f] if carry is None else g[f] + carry
                gx = gh * (hs[:, s] > 0)  # h > 0 exactly where its pre-activation is
                gpre[f] += gx
                if s:
                    ggrid.reshape(c, t_n, hp, wp)[:, s - 1, :h, :wid] = gx
                    gp = ggrid[:, (s - 1) * block :][:, :span]
                    gh_prev = _taps_input_grad(wv, gp, taps, np.zeros((c, block + 2 * pad)))
                    carry = gh_prev[:, :block].reshape(c, hp, wp)[:, pad : pad + h, pad : pad + wid]
            # the last state feeds no conv (and at t=1 no state does)
            gw += _taps_weight_grad(ggrid[:, : (t_n - 1) * block], flat, taps, wv.shape)
        return gpre, gw

    return Tensor(out, (pre, w), vjp)


def relu(x: Tensor) -> Tensor:
    mask = x.value > 0
    # selecting 0 where x <= 0 rather than x where x > 0 lets NaN through
    return Tensor(np.where(x.value <= 0, 0.0, x.value), (x,), lambda g: (g * mask,))


def add(x: Tensor, y: Tensor) -> Tensor:
    if x.value.shape != y.value.shape:
        raise ValueError(f"add shapes differ: {x.value.shape} vs {y.value.shape}")
    return Tensor(x.value + y.value, (x, y), lambda g: (g, g))


def add_const(x: Tensor, arr) -> Tensor:
    return Tensor(x.value + arr, (x,), lambda g: (g,))


def concat_channels(xs) -> Tensor:
    """Join [n][c][h][w] tensors along the channel axis."""
    xs = tuple(xs)
    value = np.concatenate([t.value for t in xs], axis=1)
    splits = np.cumsum([t.value.shape[1] for t in xs])[:-1]
    return Tensor(value, xs, lambda g: tuple(np.split(g, splits, axis=1)))


def sumsq_diff(z: Tensor, target) -> Tensor:
    """Sum of squared magnitude differences, real or complex; gradient is 2*(z-t)."""
    diff = z.value - target
    value = np.asarray(np.sum(diff.real**2 + diff.imag**2))
    return Tensor(value, (z,), lambda g: (2.0 * diff * g,))


# ------------------------------------------------------------- complex ops


def complex_to_channels_image(z: Tensor) -> Tensor:
    """[t][y][x] complex -> [t][2][y][x] real (re, im channels)."""
    value = np.stack([z.value.real, z.value.imag], axis=1)
    return Tensor(value, (z,), lambda g: (g[:, 0] + 1j * g[:, 1],))


def channels_to_complex_image(x: Tensor) -> Tensor:
    value = x.value[:, 0] + 1j * x.value[:, 1]

    def vjp(g):
        return (np.stack([g.real, g.imag], axis=1),)

    return Tensor(value, (x,), vjp)


def complex_to_channels_xf(z: Tensor) -> Tensor:
    """[f][y][x] complex -> [y][2][f][x] real: rows batched, (x, f) planes."""
    re = z.value.real.transpose(1, 0, 2)
    im = z.value.imag.transpose(1, 0, 2)
    value = np.stack([re, im], axis=1)

    def vjp(g):
        return ((g[:, 0] + 1j * g[:, 1]).transpose(1, 0, 2),)

    return Tensor(value, (z,), vjp)


def channels_to_complex_xf(x: Tensor) -> Tensor:
    value = (x.value[:, 0] + 1j * x.value[:, 1]).transpose(1, 0, 2)

    def vjp(g):
        gt = g.transpose(1, 0, 2)
        return (np.stack([gt.real, gt.imag], axis=1),)

    return Tensor(value, (x,), vjp)


def _unitary_node(z, fwd, inv):
    return Tensor(fwd(z.value), (z,), lambda g: (inv(g),))


def fft2c(z: Tensor) -> Tensor:
    fwd = lambda a: _fft1c_arr(_fft1c_arr(a, 1), 2)
    inv = lambda a: _ifft1c_arr(_ifft1c_arr(a, 1), 2)
    return _unitary_node(z, fwd, inv)


def ifft2c(z: Tensor) -> Tensor:
    fwd = lambda a: _ifft1c_arr(_ifft1c_arr(a, 1), 2)
    inv = lambda a: _fft1c_arr(_fft1c_arr(a, 1), 2)
    return _unitary_node(z, fwd, inv)


def fft_t(z: Tensor) -> Tensor:
    return _unitary_node(z, lambda a: _fft1c_arr(a, 0), lambda a: _ifft1c_arr(a, 0))


def ifft_t(z: Tensor) -> Tensor:
    return _unitary_node(z, lambda a: _ifft1c_arr(a, 0), lambda a: _fft1c_arr(a, 0))


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
    return Tensor(value, (pred_k,), lambda g: (g * factor,))
