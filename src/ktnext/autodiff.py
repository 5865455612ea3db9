"""Minimal reverse-mode tape over numpy arrays.

Tensors hold dense arrays in one of two precisions: float64/complex128, or
float32/complex64 when the leaves are float32.  Each op and its vjp allocate
in their inputs' dtype, so the graph computes in the precision of the weights
it is given (numpy >= 2 keeps complex64 through np.fft).

A Tensor is a value plus a graph Node.  Nodes hold no values and reference
their parents' nodes, and each vjp closes over only the arrays it reads, as
PyTorch's autograd saves only what each backward needs.  An intermediate
value then lives only as long as model code or a vjp refers to it.  A real
scalar loss is differentiated by walking the nodes once in reverse
topological order; each node's vjp maps the upstream gradient to one
gradient per parent, and the walk frees each node once its vjp has run.

Complex arrays follow the 2-channel real embedding convention: the stored
gradient for a complex tensor z is dL/dRe(z) + 1j*dL/dIm(z).  Under that
convention the vjp of a complex-linear unitary map (the centered FFTs along
t) is its inverse, and data consistency's linear part F_x^-1 D F_x, with D
real and diagonal, is self-adjoint and so its own vjp.

Real activation tensors are [n][c][h][w]; complex volumes are [t][y][x]
([f][y][x] after fft_t).  complex_to_channels and its inverse map between
the two, with the frames (axis 0) or rows (axis 1) as n.  A convolution's
input gradient is a correlation with the transposed, flipped kernel on a
zero-margined gradient grid, run by the forward's tap kernel.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .volume import _fft1c_arr, _ifft1c_arr
from .xf import dc_array

__all__ = [
    "Tensor",
    "add",
    "add_const",
    "backward",
    "channels_to_complex",
    "complex_to_channels",
    "constant",
    "conv2d",
    "crnn_sweep",
    "data_consistency",
    "fft_t",
    "ifft_t",
    "no_tape",
    "parameter",
    "relu",
    "sumsq_diff",
]


_tape = threading.local()  # .off is True inside no_tape() in this thread
_BLOCK = 16 * 3072  # output elements per block of _taps_forward
_STACK = 3072  # columns per block of a stacked narrow kernel


@contextmanager
def no_tape():
    """Record no graph in this thread: ops return values with no parents and
    no vjp, and crnn_sweep keeps one state per direction instead of all."""
    was, _tape.off = getattr(_tape, "off", False), True
    try:
        yield
    finally:
        _tape.off = was


class Node:
    """A tensor's place on the tape: its parents' nodes, its vjp and its gradient."""

    __slots__ = ("parents", "vjp", "grad", "needs_grad")

    def __init__(self, parents, vjp, needs_grad):
        self.parents, self.vjp, self.grad, self.needs_grad = parents, vjp, None, needs_grad


def _node_attr(name):
    return property(lambda t: getattr(t.node, name), lambda t, v: setattr(t.node, name, v))


class Tensor:
    """A value and its graph node.  The node does not hold the value, so once
    no code refers to a tensor its value is freed unless a vjp reads it.
    grad, vjp and needs_grad are the node's; backward calls the vjp assigned."""

    __slots__ = ("value", "node")
    grad, vjp, needs_grad = _node_attr("grad"), _node_attr("vjp"), _node_attr("needs_grad")

    def __init__(self, value, parents=(), vjp=None, needs_grad=False):
        keep = not getattr(_tape, "off", False)
        self.value = value
        self.node = Node(tuple(p.node for p in parents) if keep else (), vjp if keep else None,
                         keep and (needs_grad or any(p.needs_grad for p in parents)))


def _coerce(value):
    """float32 and complex64 arrays as they are; anything else as float64 or complex128."""
    arr = np.asarray(value)
    if arr.dtype in (np.float32, np.complex64):
        return arr
    return arr.astype(np.complex128 if np.iscomplexobj(arr) else np.float64, copy=False)


def constant(value) -> Tensor:
    return Tensor(_coerce(value))


def parameter(value) -> Tensor:
    return Tensor(np.array(_coerce(value)), needs_grad=True)


def backward(loss: Tensor) -> None:
    """Accumulate gradients of a real scalar loss into every needs_grad leaf.

    The walk is over nodes, which hold no values.  It consumes the graph, as
    PyTorch does with retain_graph=False: once a node's vjp has run, the node
    drops its grad, its vjp and its parents (set to None), so the arrays each
    vjp closes over are freed during the walk.  Leaf gradients stay, and so
    do the values of tensors the caller still holds.  A second backward
    through a consumed node raises RuntimeError; rebuild the graph instead.
    """
    if loss.value.size != 1 or np.iscomplexobj(loss.value):
        raise ValueError(f"backward needs a real scalar loss, got {loss.value.shape} {loss.value.dtype}")
    root = loss.node

    def visit(node):
        if node.parents is None:
            raise RuntimeError("backward through a graph an earlier backward consumed; "
                               "build it again")
        return node, iter(node.parents)

    order = []
    seen = {id(root)}
    stack = [visit(root)]
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
    root.grad = np.ones_like(loss.value)
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


def _block_columns(rows: int, ci: int, span: int) -> int:
    cols = max(3072, _BLOCK // rows // 16 * 16)
    return span if max(rows, ci) < 16 and span < 1.6 * cols else cols


def _stacked(rows: int, ci: int, span: int) -> bool:
    return rows > 2 and (ci <= 4 or ci < 16 and span <= _STACK)


def _taps_forward(wv, flat, taps, span):
    """Convolution on the padded grid: sum over taps of w[:, :, i, j] @ window.

    Builds the kernel once and returns run(offset), the [..][co][span] output
    for windows starting `offset` columns into flat, so a sweep runs one
    kernel at each step's block.  flat is [..][ci][columns]; matmul runs each
    leading index as its own GEMM, with the bits of a 2-D call.  Narrow
    kernels (_stacked) run each block of _STACK columns as one GEMM: w as
    [co][k*k*ci] times the k*k tap windows, copied from one strided view of
    every window start in flat into a [..][k*k*ci][block] stack (im2col).
    There numpy's dispatch of 2*k*k calls per block costs more than their
    arithmetic: 1.3-5.4x in float32.  The tap loop stays faster at 2 output
    rows, at 16 input channels and at 8 over long spans.  It runs all
    taps on a block of columns (_block_columns) before the next, writing the
    first into an accumulator that stays in cache and adding the rest in tap
    order: each element is the same sum, in the same order, as with one GEMM
    per tap over the span.  The BLAS may round the last columns of a narrow
    last block unlike a wide GEMM: 1-4 on the tap loop, which conv2d and
    crnn_sweep cut away when 2p >= 4, and more, kept ones among them, stacked.
    """
    (rows, ci, k), lead = wv.shape[:3], flat.shape[:-2]
    if _stacked(rows, ci, span):
        o, st = taps[0][2], flat.strides
        ij = [(taps[t % len(taps)][2] - o) * st[-1] for t in (k, 1)]  # taps (1, 0) and (0, 1)
        starts = flat.shape[-1] - max(off for *_, off in taps)
        wins = as_strided(flat[..., o:], (*lead, k, k, ci, starts), (*st[:-2], *ij, *st[-2:]))
        wk = wv.transpose(0, 2, 3, 1).reshape(rows, -1)

        def run(offset):
            out, win = np.empty((*lead, rows, span), dtype=flat.dtype), wins[..., offset:]
            for lo in range(0, span, _STACK):
                np.matmul(wk, np.ascontiguousarray(win[..., lo : min(lo + _STACK, span)]).reshape(
                    *lead, wk.shape[1], -1), out=out[..., lo : lo + _STACK])
            return out
        return run
    cols = _block_columns(rows, ci, span)
    tmp = np.empty((*lead, rows, min(span, cols)), dtype=flat.dtype)
    (i0, j0, off0), rest = taps[0], taps[1:]

    def run(offset):
        out, src = np.empty((*lead, rows, span), dtype=flat.dtype), flat[..., offset:]
        for lo in range(0, span, cols):
            hi = min(lo + cols, span)
            acc, prod = out[..., lo:hi], tmp[..., : hi - lo]
            np.matmul(wv[:, :, i0, j0], src[..., off0 + lo : off0 + hi], out=acc)
            for i, j, off in rest:
                np.matmul(wv[:, :, i, j], src[..., off + lo : off + hi], out=prod)
                acc += prod
        return out
    return run


def _taps_weight_grad(gp, flat, taps, shape):
    """Weight gradient of _taps_forward for the grid gradient gp [co][span]."""
    gw = np.empty(shape, dtype=flat.dtype)
    span = gp.shape[1]
    for i, j, off in taps:
        gw[:, :, i, j] = gp @ flat[:, off : off + span].T
    return gw


def conv2d(x: Tensor, w: Tensor, b, dilation: int) -> Tensor:
    """Same-size 2D convolution, zero padding dilation*(k-1)/2 per side.

    x is [n][ci][h][w], w is [co][ci][k][k], b is [co] or None.  The input is
    written once into a zero-padded grid laid out [ci][h+2p][n][w+2p] and
    flattened per channel, with 2p trailing zeros.  Every tap (i, j) is then
    one contiguous column window of that buffer, starting at i*d rows and
    j*d columns, so each tap is one 2-D GEMM on a view, with the batch folded
    into the GEMM's column axis, run a block of columns at a time
    (_taps_forward).  The output is computed on the grid [co][h][n][w+2p]; its
    last 2p columns read past the row's end and are cut away.  The vjp pads g
    onto the same grid, its first pixel at m = p*n*(w+2p) + p; the input
    gradient is its correlation with the transposed, flipped kernel, tap (i, j)
    at 2m - off, cut alike.  The vjp keeps x's value, not the padded grid, and
    pads it again, so no code may write a recorded value in place before backward.
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
    dtype = np.result_type(xv, wv)

    def padded(a):  # [n][c][h][w] -> the padded grid, flattened per channel
        flat = np.zeros((a.shape[1], body + 2 * pad), dtype=dtype)
        grid = flat[:, :body].reshape(-1, hp, n, wp)
        grid[:, pad : pad + h, :, pad : pad + wid] = a.transpose(1, 2, 0, 3)
        return flat

    def crop(flat):  # a result on the grid [c][h][n][wp] -> [n][c][h][w]
        return np.ascontiguousarray(flat.reshape(-1, h, n, wp)[..., :wid].transpose(2, 0, 1, 3))

    out = crop(_taps_forward(wv, padded(xv), taps, span)(0))
    parents = (x, w)
    if b is not None:
        out += b.value[None, :, None, None]
        parents = (x, w, b)

    def vjp(g):
        m = pad * n * wp + pad  # where the first unpadded pixel sits in the padded grid
        gbuf = padded(g)
        gw = _taps_weight_grad(gbuf[:, m : m + span], padded(xv), taps, wv.shape)
        flipped = [(i, j, 2 * m - off) for i, j, off in taps]
        gx = crop(_taps_forward(wv.transpose(1, 0, 2, 3), gbuf, flipped, span)(0))
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

    The directions run in lock step, step s being frame s of direction 0 and
    frame t-1-s of direction 1, so one kernel run covers both h2h convs.
    Their states share one buffer [2][c][..]: per direction, conv2d's
    zero-padded grid at n=1, one block per state in sweep order, with 2p
    trailing zeros, so an h2h input is a window of it, and the sweep builds
    one _taps_forward kernel on the buffer and runs it at each step's block.
    The vjp (BPTT) lays the gradients out alike: a step's h2h input gradients
    are one run of a second kernel, the correlation with the transposed,
    flipped kernel on zero-margined blocks; a direction's weight gradient is
    one GEMM per tap over its blocks.  Under no_tape() each
    direction keeps one block, each state overwriting the last once read.
    Each frame of the output and of pre's gradient is two adds onto +0.0,
    direction 0's first at odd t's middle frame; IEEE addition is
    commutative, so the bits are those of one direction after the other.
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
    kept = 1 if getattr(_tape, "off", False) else t_n  # state blocks per direction
    flat = np.zeros((2, c, kept * block + 2 * pad), dtype=np.result_type(pv, wv))
    pre_dtype = pv.dtype  # the vjp keeps pre's shape and dtype, not its value
    states = flat[..., : kept * block].reshape(2, c, kept, hp, wp)[..., pad : pad + h,
                                                                   pad : pad + wid]
    out = np.zeros_like(pv)  # states are never -0.0
    h2h = _taps_forward(wv, flat, taps, span)

    for s in range(t_n):
        x = pv[[s, t_n - 1 - s]]  # each direction's frame at step s
        if s:
            x += h2h((s - 1) % kept * block).reshape(2, c, h, wp)[..., :wid]
        # maximum(x, 0.0), not (0.0, x): NaN passes and -0.0 becomes +0.0
        hs = np.maximum(x, 0.0, out=states[:, :, s % kept])
        out[s] += hs[0]
        out[t_n - 1 - s] += hs[1]

    def vjp(g):
        gpre = np.zeros((t_n, c, h, wid), dtype=pre_dtype)
        m = pad * wp + pad  # as in conv2d's vjp; a block's 2p zero rows pad the others
        wt, flipped = wv.transpose(1, 0, 2, 3), [(i, j, 2 * m - off) for i, j, off in taps]
        # gradient of each h2h conv's output on its grid, at its input's block
        ggrid = np.zeros((2, c, m + (t_n - 1) * block), dtype=flat.dtype)
        gps = ggrid[..., m:].reshape(2, c, t_n - 1, hp, wp)[..., :h, :wid]
        grad_h2h = _taps_forward(wt, ggrid, flipped, span) if t_n > 1 else None  # t=1: no window
        for s in reversed(range(t_n)):
            gh = g[[s, t_n - 1 - s]] if s == t_n - 1 else g[[s, t_n - 1 - s]] + carry
            # h > 0 exactly where its pre-activation is; gps[:, :, s - 1] is read below
            gx = np.multiply(gh, states[:, :, s] > 0, out=gps[:, :, s - 1] if s else None)
            gpre[s] += gx[0]
            gpre[t_n - 1 - s] += gx[1]
            if s:
                carry = grad_h2h((s - 1) * block).reshape(2, c, h, wp)[..., :wid]
        # summed from 0 over the directions; the last state feeds no conv (none at t=1)
        gw = sum(_taps_weight_grad(ggrid[d, :, m:], flat[d], taps, wv.shape) for d in range(2))
        return gpre, gw

    return Tensor(out, (pre, w), vjp)


def relu(x: Tensor) -> Tensor:
    # maximum(x, 0.0), not (0.0, x): NaN passes and -0.0 becomes +0.0
    out = np.maximum(x.value, 0.0)
    return Tensor(out, (x,), lambda g: (g * (out > 0),))


def add(x: Tensor, y: Tensor) -> Tensor:
    if x.value.shape != y.value.shape:
        raise ValueError(f"add shapes differ: {x.value.shape} vs {y.value.shape}")
    return Tensor(x.value + y.value, (x, y), lambda g: (g, g))


def add_const(x: Tensor, arr) -> Tensor:
    return Tensor(x.value + arr, (x,), lambda g: (g,))


def sumsq_diff(z: Tensor, target) -> Tensor:
    """Sum of squared magnitude differences, real or complex; gradient is 2*(z-t).

    The target is cast to z's dtype, so the loss keeps the graph's precision."""
    diff = z.value - np.asarray(target).astype(z.value.dtype, copy=False)
    value = np.asarray(np.sum(diff.real**2 + diff.imag**2))
    return Tensor(value, (z,), lambda g: (2.0 * diff * g,))


# ------------------------------------------------------------- complex ops


def _pack(zs, axis):
    return np.stack([np.moveaxis(p, axis, 0) for z in zs for p in (z.real, z.imag)], axis=1)


def _unpack(x, axis):  # the inverse of _pack for x's first channel pair
    return np.moveaxis(x[:, 0] + 1j * x[:, 1], 0, axis)


def complex_to_channels(zs, axis: int) -> Tensor:
    """Complex [t][y][x] tensors as consecutive (re, im) channel pairs, with
    volume axis `axis` as the batch: 0 gives [t][2k][y][x], 1 gives [y][2k][t][x]."""
    zs = tuple(zs)
    count = len(zs)

    def vjp(g):
        return tuple(_unpack(g[:, 2 * i :], axis) for i in range(count))

    return Tensor(_pack([z.value for z in zs], axis), zs, vjp)


def channels_to_complex(x: Tensor, axis: int) -> Tensor:
    """Inverse of complex_to_channels for one tensor: [b][2][.][.] -> [t][y][x]."""
    return Tensor(_unpack(x.value, axis), (x,), lambda g: (_pack([g], axis),))


def _unitary_node(z, fwd, inv):
    return Tensor(fwd(z.value), (z,), lambda g: (inv(g),))


def fft_t(z: Tensor) -> Tensor:
    return _unitary_node(z, lambda a: _fft1c_arr(a, 0), lambda a: _ifft1c_arr(a, 0))


def ifft_t(z: Tensor) -> Tensor:
    return _unitary_node(z, lambda a: _ifft1c_arr(a, 0), lambda a: _fft1c_arr(a, 0))


def data_consistency(img: Tensor, k_hybrid, bits, lam: float) -> Tensor:
    """Differentiable DC layer on a [t][y][x] image tensor: F_x^-1 of
    :func:`ktnext.xf.dc_array` on F_x img, against the acquired samples
    k_hybrid on [t][y][k_x], with bits the [t][x] mask.  The map is affine in
    img; its linear part F_x^-1 D F_x, with D real and diagonal, is
    self-adjoint, so the vjp is the same map with zero data.
    """
    if lam < 0:
        raise ValueError(f"lambda must be nonnegative, got {lam}")
    if img.value.shape != k_hybrid.shape:
        raise ValueError(f"image {img.value.shape} does not match measurement {k_hybrid.shape}")

    def dc(a, k):
        return _ifft1c_arr(dc_array(_fft1c_arr(a, 2), k, bits, lam), 2)

    return Tensor(dc(img.value, k_hybrid), (img,), lambda g: (dc(g, 0.0),))
