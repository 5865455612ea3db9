"""Reverse-mode tape: forward oracles and finite-difference gradient checks.

conv2d and its vjp are checked against seven-deep nested loop transcriptions
of the definition; every differentiable op is checked against central finite
differences (step 1e-6, double precision, relative tolerance 1e-4).
"""

import contextlib
import threading
import weakref

import numpy as np
import pytest

from ktnext import autodiff as ad
from ktnext.sampling import make_shear_mask, undersample
from ktnext.volume import ComplexVolume, Domain, _fft1c_arr, _ifft1c_arr
from ktnext.xf import dc_array


def conv2d_oracle(x, w, b, dilation):
    n, ci, h_in, w_in = x.shape
    co, _, k, _ = w.shape
    p = dilation * (k - 1) // 2
    out = np.zeros((n, co, h_in, w_in))
    for nn in range(n):
        for oc in range(co):
            for hh in range(h_in):
                for ww in range(w_in):
                    acc = 0.0 if b is None else b[oc]
                    for ic in range(ci):
                        for i in range(k):
                            for j in range(k):
                                yy = hh + i * dilation - p
                                xx = ww + j * dilation - p
                                if 0 <= yy < h_in and 0 <= xx < w_in:
                                    acc += w[oc, ic, i, j] * x[nn, ic, yy, xx]
                    out[nn, oc, hh, ww] = acc
    return out


def conv2d_vjp_oracle(x, w, g, dilation):
    """Adjoint of conv2d_oracle: every product it sums, sent back to its
    input and its weight."""
    n, ci, h_in, w_in = x.shape
    co, _, k, _ = w.shape
    p = dilation * (k - 1) // 2
    gx = np.zeros_like(x)
    gw = np.zeros_like(w)
    for nn in range(n):
        for oc in range(co):
            for hh in range(h_in):
                for ww in range(w_in):
                    for ic in range(ci):
                        for i in range(k):
                            for j in range(k):
                                yy = hh + i * dilation - p
                                xx = ww + j * dilation - p
                                if 0 <= yy < h_in and 0 <= xx < w_in:
                                    gx[nn, ic, yy, xx] += w[oc, ic, i, j] * g[nn, oc, hh, ww]
                                    gw[oc, ic, i, j] += g[nn, oc, hh, ww] * x[nn, ic, yy, xx]
    return gx, gw, g.sum(axis=(0, 2, 3))


def numeric_grad(build_loss, leaf, step=1e-6, indices=None):
    """Central finite differences on a leaf; complex leaves get the
    derivative packed as d/dRe + i*d/dIm."""
    value = leaf.value
    if indices is None:
        indices = list(np.ndindex(value.shape))
    grad = np.zeros_like(value)
    complex_leaf = np.iscomplexobj(value)
    parts = (1.0, 1.0j) if complex_leaf else (1.0,)
    for idx in indices:
        acc = 0.0 + 0.0j if complex_leaf else 0.0
        for unit in parts:
            orig = value[idx]
            value[idx] = orig + step * unit
            up = build_loss().value.item()
            value[idx] = orig - step * unit
            down = build_loss().value.item()
            value[idx] = orig
            acc = acc + unit * (up - down) / (2 * step)
        grad[idx] = acc
    return grad


def assert_close_rel(got, want, tol=1e-4):
    scale = max(np.abs(want).max(), 1e-8)
    assert np.abs(got - want).max() < tol * scale


# ----------------------------------------------------------- conv forward


@pytest.mark.parametrize("value, dtype", [
    (np.ones(3, np.float32), np.float32),
    (np.ones(3, np.complex64), np.complex64),
    (np.ones(3, np.float16), np.float64),
    (np.arange(3), np.float64),
    ([1.0, 2.0], np.float64),
    (np.ones(3, np.complex128), np.complex128),
])
def test_leaves_keep_single_precision_and_coerce_the_rest(value, dtype):
    """float32 and complex64 stay as they are, so a float32 store gives a
    float32 graph; anything else becomes float64 or complex128."""
    for make in (ad.constant, ad.parameter):
        assert make(value).value.dtype == dtype
    leaf = ad.parameter(value)
    assert not np.shares_memory(leaf.value, np.asarray(value))  # a leaf owns its array


def test_conv2d_identity_kernel():
    rng = np.random.default_rng(1)
    x = ad.constant(rng.standard_normal((2, 3, 6, 6)))
    w = np.zeros((3, 3, 3, 3))
    for c in range(3):
        w[c, c, 1, 1] = 1.0
    out = ad.conv2d(x, ad.constant(w), None, dilation=1)
    assert np.abs(out.value - x.value).max() < 1e-15


def test_conv2d_ones_kernel_interior():
    x = ad.constant(np.ones((1, 1, 8, 8)))
    w = ad.constant(np.ones((1, 1, 3, 3)))
    for d in (1, 2):
        out = ad.conv2d(x, w, None, dilation=d).value[0, 0]
        interior = out[d : 8 - d, d : 8 - d]
        assert np.all(interior == 9.0)


ORACLE_SHAPES = [((1, 1, 5, 5), 3), ((2, 3, 8, 8), 3), ((1, 2, 8, 6), 3),
                 ((2, 3, 7, 5), 1), ((2, 2, 6, 9), 5),
                 ((3, 4, 40, 37), 3)]  # span 4,680 / 5,160 columns: more than one block


@pytest.mark.parametrize("dilation", [1, 3])
@pytest.mark.parametrize("shape, k", ORACLE_SHAPES,
                         ids=[f"shape{i}" for i in range(len(ORACLE_SHAPES))])
def test_conv2d_matches_nested_loop_oracle(dilation, shape, k, request):
    rng = np.random.default_rng(hash(request.node.name) % 2**32)
    x = rng.standard_normal(shape)
    w = rng.standard_normal((4, shape[1], k, k))
    b = rng.standard_normal(4)
    got = ad.conv2d(ad.constant(x), ad.constant(w), ad.constant(b), dilation).value
    want = conv2d_oracle(x, w, b, dilation)
    assert np.abs(got - want).max() < 1e-12


def unblocked_taps(wv, flat, taps, span):
    """The tap sum as one GEMM per tap over the whole span, in tap order."""
    out = np.zeros((wv.shape[0], span), dtype=flat.dtype)
    for i, j, off in taps:
        out += wv[:, :, i, j] @ flat[:, off : off + span]
    return out


def stacked_taps(wv, flat, taps, span):
    """The tap sum in the order of _taps_forward's stacked path: per block of
    _STACK columns, one matmul of the kernel as [co][k*k*ci], tap-major, by
    the explicit [..][k*k*ci][block] stack of its tap windows.  The kernel
    matrix is C-ordered, as the program's is: the BLAS may round the last
    1-4 columns of a transposed operand's product differently."""
    wk = np.ascontiguousarray(np.concatenate([wv[:, :, i, j] for i, j, _ in taps], axis=1))
    blocks = [np.matmul(wk, np.concatenate([flat[..., off + lo : off + min(lo + ad._STACK, span)]
                                            for _, _, off in taps], axis=-2))
              for lo in range(0, span, ad._STACK)]
    return np.concatenate(blocks, axis=-1)


def assert_roundoff(got, want):
    """got is want up to roundoff: within 1e-13 (float64) or 1e-5 (float32)
    of want's peak."""
    tol = 1e-13 if got.dtype == np.float64 else 1e-5
    assert np.abs(got - want).max() <= tol * np.abs(want).max()


# (co, ci, h, n, w, leading grids): every kernel the three benchmark workloads
# run stacked, on its grid at dilation 3: conv2d over all frames (or rows) and
# the lock-step sweep's steps at c = 4 and 8
STACKED_SHAPES = [(4, 2, 32, 8, 32, ()), (4, 4, 32, 1, 32, (2,)), (4, 4, 32, 8, 32, ()),
                  (8, 2, 32, 8, 32, ()), (8, 4, 32, 8, 32, ()), (8, 8, 32, 1, 32, (2,)),
                  (16, 2, 64, 8, 64, ()), (16, 4, 64, 8, 64, ())]
# (co, ci, span) the workloads run on the tap loop
TAP_LOOP_SHAPES = [(2, 4, 9728), (2, 8, 9728), (4, 8, 9728), (8, 8, 9728), (2, 16, 35840),
                   (16, 16, 4480), (16, 16, 35840)]


def test_narrow_kernels_run_stacked_and_the_rest_the_tap_loop():
    """The rule reads only the kernel's shape: stacked for more than 2 output
    rows with ci <= 4, or ci < 16 over at most _STACK columns; every kernel
    with 2 output rows or fewer, or 16 input channels or more, keeps the tap
    loop, whatever its span."""
    for co, ci, h, n, w, _ in STACKED_SHAPES:
        assert ad._stacked(co, ci, h * n * (w + 6))
    assert not any(ad._stacked(*shape) for shape in TAP_LOOP_SHAPES)
    assert [ad._stacked(8, 8, span) for span in (3072, 3073)] == [True, False]
    assert [ad._stacked(3, ci, 10**6) for ci in (4, 5)] == [True, False]
    spans = (1, 1216, 3072, 4480, 9728, 35840)
    assert not any(ad._stacked(co, ci, span) for co in (1, 2) for ci in (1, 2, 4, 8, 16, 32)
                   for span in spans)
    assert not any(ad._stacked(co, ci, span) for co in (3, 4, 8, 16, 32) for ci in (16, 32)
                   for span in spans)


@pytest.mark.parametrize("dilation", [1, 3])
@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("co, ci, h, n, w, lead", STACKED_SHAPES)
def test_stacked_kernels_are_one_gemm_per_block(co, ci, h, n, w, lead, dtype, dilation):
    """At every shape the rule sends to it, the stacked path has the bytes
    of one matmul per block over the explicit tap stack; in float64 it is
    one GEMM per tap over the span up to roundoff."""
    pad = dilation
    wp = w + 2 * pad
    span = h * n * wp
    rng = np.random.default_rng(co * ci + h + dilation)
    flat = rng.standard_normal((*lead, ci, (h + 2 * pad) * n * wp + 2 * pad)).astype(dtype)
    wv = rng.standard_normal((co, ci, 3, 3)).astype(dtype)
    taps = ad._taps(3, dilation, n * wp)
    assert ad._stacked(co, ci, span)
    got = ad._taps_forward(wv, flat, taps, span)(0)
    assert got.shape == (*lead, co, span) and got.dtype == dtype
    assert got.tobytes() == stacked_taps(wv, flat, taps, span).tobytes()
    if dtype == np.float64:
        for one, grid in zip(got.reshape(-1, co, span), flat.reshape(-1, *flat.shape[-2:])):
            assert_roundoff(one, unblocked_taps(wv, grid, taps, span))


@pytest.mark.parametrize("residue", [1, 2, 3, 4])
@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("rows, ci, h, least", [(4, 2, 157, 62), (8, 4, 157, 62), (16, 2, 157, 250),
                                                (8, 8, 11, 150)])
def test_stacked_blocks_and_leading_grids_keep_the_bits(rows, ci, h, least, dtype, residue):
    """Spans that split into blocks of _STACK columns (all but the 8-channel
    one, which the rule runs stacked only up to one block) and end 1-4 mod 8
    columns wide: two grids on a window of a wider buffer, as the sweep passes
    them, give the bytes of the explicit stack and of one call each."""
    pad = 1
    wp = width_ending_block(h, pad, least, residue) + 2 * pad
    span = h * wp
    assert ad._stacked(rows, ci, span) and span % 8 == residue
    assert (span > ad._STACK) == (ci < 8)
    rng = np.random.default_rng(10 * rows + ci + residue)
    flat = rng.standard_normal((2, ci, 5 + (h + 2 * pad) * wp + 2 * pad)).astype(dtype)[..., 5:]
    wv = rng.standard_normal((rows, ci, 3, 3)).astype(dtype)
    taps = ad._taps(3, 1, wp)
    got = ad._taps_forward(wv, flat, taps, span)(0)
    assert got.shape == (2, rows, span) and got.dtype == dtype
    assert got.tobytes() == stacked_taps(wv, flat, taps, span).tobytes()
    for grid, one in zip(got, flat):
        assert grid.tobytes() == ad._taps_forward(wv, one, taps, span)(0).tobytes()
    if dtype == np.float64:
        for grid, one in zip(got, flat):
            assert_roundoff(grid, unblocked_taps(wv, one, taps, span))


# (n, h, w) at dilation 3 for 16 output rows: grid spans of 1,720, 3,072 (one
# block) and 5,160 columns, and 5,329, whose last block is 2,257 columns
# (1 mod 8) wide
BLOCK_GRIDS = [(1, 40, 37), (1, 48, 58), (3, 40, 37), (1, 73, 67)]
# output rows -> (columns per block, grid side): a square grid of odd side,
# n=1, spans more than one block and ends in a last block 1 mod 8 columns wide
# (at 16 input channels, so no row count runs its span as one block)
BLOCK_ROWS = {2: (24576, 161), 4: (12288, 113), 8: (6144, 81), 16: (3072, 73), 32: (3072, 73)}
BLOCK_CASES = ([pytest.param(16, np.float64, *grid, id="-".join(map(str, grid))) for grid in BLOCK_GRIDS]
               + [pytest.param(rows, dtype, 1, side, side - 6, id=f"{rows}-{np.dtype(dtype).name}")
                  for rows, (_, side) in BLOCK_ROWS.items() for dtype in (np.float64, np.float32)
                  if (rows, dtype) != (16, np.float64)])  # that case is the last of BLOCK_GRIDS


@pytest.mark.parametrize("rows, dtype, n, h, wid", BLOCK_CASES)
def test_taps_forward_blocks_keep_the_bits(rows, dtype, n, h, wid):
    """Column blocking gives each output element the same tap sum, in the
    same order, as one GEMM per tap over the whole span, at every block
    width the row count gives."""
    pad, k, dilation = 3, 3, 3
    wp = wid + 2 * pad
    span = h * n * wp
    cols, side = BLOCK_ROWS[rows]
    assert ad._block_columns(rows, 16, side**2) == cols and side**2 > cols and side**2 % cols % 8 == 1
    spans = [h * n * (w + 2 * pad) for n, h, w in BLOCK_GRIDS[:3]]
    assert spans == [1720, ad._block_columns(16, 16, 3072), 5160]
    rng = np.random.default_rng(span + rows)
    flat = rng.standard_normal((16, (h + 2 * pad) * n * wp + 2 * pad)).astype(dtype)
    wv = rng.standard_normal((rows, 16, k, k)).astype(dtype)
    taps = ad._taps(k, dilation, n * wp)
    got = ad._taps_forward(wv, flat, taps, span)(0).reshape(rows, h, n, wp)
    want = unblocked_taps(wv, flat, taps, span).reshape(rows, h, n, wp)
    # the columns conv2d keeps; the cut-away ones read past each row's end
    assert got.dtype == dtype
    assert got[..., :wid].tobytes() == want[..., :wid].tobytes()


def scatter_taps_input_grad(wv, gp, taps, gflat):
    """The input gradient of the tap sum as a scatter: one GEMM per tap over
    the whole span, added in tap order into gflat, laid out as the padded
    input.  The program computes it as a correlation on _taps_forward."""
    span = gp.shape[1]
    for i, j, off in taps:
        gflat[:, off : off + span] += wv[:, :, i, j].T @ gp
    return gflat


def stacked_taps_input_grad(wv, gp, taps, gflat):
    """The input gradient of the tap sum in stacked_taps' order, as conv2d's
    vjp computes it for a kernel the rule runs stacked: the correlation with
    the transposed, flipped kernel on a zero-margined gradient grid, written
    into gflat from the first unpadded pixel, m, the centre tap's offset."""
    co, span = gp.shape
    m = taps[len(taps) // 2][2]
    gbuf = np.zeros((co, m + span + m), dtype=gp.dtype)
    gbuf[:, m : m + span] = gp
    flipped = [(i, j, 2 * m - off) for i, j, off in taps]
    gflat[:, m : m + span] = stacked_taps(wv.transpose(1, 0, 2, 3), gbuf, flipped, span)
    return gflat


def conv2d_input_grad_oracle(wv, g, dilation, input_grad=scatter_taps_input_grad):
    """conv2d's input gradient for upstream g, by scatter_taps_input_grad
    (or by input_grad, given the same arguments)."""
    n, co, h, wid = g.shape
    ci, k = wv.shape[1], wv.shape[-1]
    pad = dilation * (k - 1) // 2
    hp, wp = h + 2 * pad, wid + 2 * pad
    gp = np.zeros((co, h, n, wp), dtype=g.dtype)
    gp[..., :wid] = g.transpose(1, 2, 0, 3)
    gflat = np.zeros((ci, hp * n * wp + 2 * pad), dtype=g.dtype)
    input_grad(wv, gp.reshape(co, -1), ad._taps(k, dilation, n * wp), gflat)
    gx = gflat[:, : hp * n * wp].reshape(ci, hp, n, wp)[:, pad : pad + h, :, pad : pad + wid]
    return gx.transpose(2, 0, 1, 3)


def crnn_sweep_input_grad_oracle(pv, wv, g, dilation, input_grad=scatter_taps_input_grad):
    """crnn_sweep's gradient for pre, by backpropagation through time with
    scatter_taps_input_grad (or input_grad).  Each direction's states come
    from the same recurrence on a padded grid at n=1."""
    t_n, c, h, wid = pv.shape
    k = wv.shape[-1]
    pad = dilation * (k - 1) // 2
    hp, wp = h + 2 * pad, wid + 2 * pad
    taps = ad._taps(k, dilation, wp)
    gpre = np.zeros_like(pv)
    for frames in (range(t_n), range(t_n - 1, -1, -1)):
        flat = np.zeros((c, hp * wp + 2 * pad), dtype=pv.dtype)
        grid = flat[:, : hp * wp].reshape(c, hp, wp)[:, pad : pad + h, pad : pad + wid]
        hs = []
        for s, f in enumerate(frames):
            x = pv[f]
            if s:
                grid[...] = hs[-1]
                x = ad._taps_forward(wv, flat, taps, h * wp)(0).reshape(c, h, wp)[..., :wid] + pv[f]
            hs.append(np.maximum(x, 0.0))
        carry = None
        for s in reversed(range(t_n)):
            f = frames[s]
            gx = (g[f] if carry is None else g[f] + carry) * (hs[s] > 0)
            gpre[f] += gx
            if s:
                gp = np.zeros((c, h, wp), dtype=pv.dtype)
                gp[..., :wid] = gx
                gflat = input_grad(wv, gp.reshape(c, -1), taps, np.zeros_like(flat))
                carry = gflat[:, : hp * wp].reshape(c, hp, wp)[:, pad : pad + h, pad : pad + wid]
    return gpre


def relu_masked(rng, shape, dtype):
    """A standard normal upstream gradient, -0.0 wherever a ReLU mask drops
    a negative entry."""
    g = rng.standard_normal(shape).astype(dtype)
    return g * (rng.standard_normal(shape) > 0)


def width_ending_block(height, pad, least, residue):
    """The first width from `least` whose grid span of height * (width + 2p)
    columns ends in a last block `residue` mod 8 columns wide (height odd).
    Block widths are multiples of 16, so that is the span's own residue."""
    return next(w for w in range(least, least + 8) if height * (w + 2 * pad) % 8 == residue)


def test_narrow_kernels_run_a_span_under_1_6_blocks_as_one_block():
    """With rows and input channels under 16, a span under 1.6 blocks is one
    block; a kernel 16 wide on either side keeps its block width."""
    assert [ad._block_columns(8, 8, span) for span in (6145, 9728, 9830, 9831)] == [6145, 9728, 9830, 6144]
    assert [ad._block_columns(2, 4, span) for span in (39321, 39322)] == [39321, 24576]
    assert [ad._block_columns(2, 16, 35840), ad._block_columns(8, 16, 9728)] == [24576, 6144]
    assert [ad._block_columns(16, 4, span) for span in (3073, 4480, 35840)] == [3072] * 3


@pytest.mark.parametrize("residue", [1, 2, 3, 4])
@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("rows, least", [(2, 250), (4, 125), (8, 62), (16, 20)])
def test_taps_forward_runs_each_leading_grid_as_its_own_call(rows, least, dtype, residue):
    """Leading axes on flat are separate grids: two grids in one call give
    the bytes of one call each, here on a window of a wider buffer, as the
    sweep passes it, over a span that splits into blocks and ends in a last
    block `residue` mod 8 columns wide."""
    h, pad = 157, 1
    wp = width_ending_block(h, pad, least, residue) + 2 * pad
    span = h * wp
    assert span > ad._block_columns(rows, 8, span) and span % 8 == residue
    rng = np.random.default_rng(10 * rows + residue)
    flat = rng.standard_normal((2, 8, 5 + (h + 2 * pad) * wp + 2 * pad)).astype(dtype)[..., 5:]
    wv = rng.standard_normal((rows, 8, 3, 3)).astype(dtype)
    taps = ad._taps(3, 1, wp)
    got = ad._taps_forward(wv, flat, taps, span)(0)
    assert got.shape == (2, rows, span) and got.dtype == dtype
    for grid, one in zip(got, flat):
        assert grid.tobytes() == ad._taps_forward(wv, one, taps, span)(0).tobytes()


# (n, ci, co, h, least width, residue of the last block mod 8); the input
# gradients of the last two have 2 rows: the fourth spans 25,620 columns, one
# block, and the fifth 40,260, past 1.6 blocks of 24,576, so it splits
CONV_GRAD_CASES = [(1, 8, 8, 7, 9, 1), (3, 4, 16, 7, 9, 2), (1, 16, 2, 9, 11, 3), (3, 2, 8, 61, 134, 4),
                   (3, 2, 8, 61, 214, 4)]


@pytest.mark.parametrize("dilation", [1, 3])
@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("n, ci, co, h, least, residue", CONV_GRAD_CASES)
def test_conv2d_input_grad_is_the_scatter_bitwise(n, ci, co, h, least, residue, dtype, dilation):
    """conv2d's input gradient, a correlation with the transposed, flipped
    kernel on a zero-margined gradient grid, has the bytes of the scatter
    form, with -0.0 in the upstream gradient.  Where the rule runs that
    correlation stacked, it has the bytes of the stacked order instead, and
    is the scatter form up to roundoff."""
    pad = dilation
    wid = width_ending_block(n * h, pad, least, residue)
    rng = np.random.default_rng(1000 * ci + 10 * h + dilation)
    x = rng.standard_normal((n, ci, h, wid)).astype(dtype)
    wv = (0.3 * rng.standard_normal((co, ci, 3, 3))).astype(dtype)
    out = ad.conv2d(ad.constant(x), ad.constant(wv), None, dilation)
    g = relu_masked(rng, out.value.shape, dtype)
    gx = out.vjp(g)[0]
    want = conv2d_input_grad_oracle(wv, g, dilation)
    if ad._stacked(ci, co, n * h * (wid + 2 * pad)):
        assert_roundoff(gx, want)
        want = conv2d_input_grad_oracle(wv, g, dilation, stacked_taps_input_grad)
    assert gx.dtype == dtype and gx.shape == want.shape
    assert gx.tobytes() == np.ascontiguousarray(want).tobytes()


# (c, h, least width, residue of the last block mod 8); the last two have 2
# rows: the third spans about one 24,576-column block and runs as one, and the
# fourth spans 40,506 columns, past 1.6 blocks, so it splits
SWEEP_GRAD_CASES = [(8, 9, 9, 1), (4, 7, 13, 4), (2, 157, 150, 2), (2, 157, 250, 2)]


@pytest.mark.parametrize("dilation", [1, 3])
@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("t_n", [1, 2, 3, 5, 8])
@pytest.mark.parametrize("c, h, least, residue", SWEEP_GRAD_CASES)
def test_crnn_sweep_input_grad_is_the_scatter_bitwise(c, h, least, residue, t_n, dtype, dilation):
    """crnn_sweep's gradient for pre, whose h2h input gradients are
    correlations on a zero-margined gradient grid, has the bytes of
    backpropagation through time with the scatter form; where the rule runs
    them stacked, the bytes of the stacked order, and the scatter form's
    up to roundoff."""
    pad = dilation
    wid = width_ending_block(h, pad, least, residue)
    rng = np.random.default_rng(100 * c + 10 * t_n + dilation)
    pv = rng.standard_normal((t_n, c, h, wid)).astype(dtype)
    wv = (0.3 * rng.standard_normal((c, c, 3, 3))).astype(dtype)
    out = ad.crnn_sweep(ad.constant(pv), ad.constant(wv), dilation)
    g = relu_masked(rng, pv.shape, dtype)
    gpre = out.vjp(g)[0]
    want = crnn_sweep_input_grad_oracle(pv, wv, g, dilation)
    if ad._stacked(c, c, h * (wid + 2 * pad)):
        assert_roundoff(gpre, want)
        want = crnn_sweep_input_grad_oracle(pv, wv, g, dilation, stacked_taps_input_grad)
    assert gpre.dtype == dtype
    assert gpre.tobytes() == want.tobytes()


@pytest.mark.parametrize("tape", [True, False])
def test_a_sweep_builds_one_window_view_per_pass(monkeypatch, tape):
    """crnn_sweep builds one tap kernel for its forward steps and one for its
    BPTT carries, so a stacked sweep (c = 4) makes one strided window view
    per pass, over every window start of its grid, not one per step."""
    views = []
    strided = ad.as_strided
    monkeypatch.setattr(ad, "as_strided", lambda *args: views.append(args[1]) or strided(*args))
    t_n, c, h, wid = 8, 4, 7, 9
    block, span, m = (h + 2) * (wid + 2), h * (wid + 2), wid + 3
    assert ad._stacked(c, c, span)
    rng = np.random.default_rng(5)
    pre = ad.parameter(rng.standard_normal((t_n, c, h, wid)))
    w = ad.parameter(0.3 * rng.standard_normal((c, c, 3, 3)))
    with contextlib.nullcontext() if tape else ad.no_tape():
        out = ad.crnn_sweep(pre, w, 1)
    kept = t_n if tape else 1
    assert views == [(2, 3, 3, c, (kept - 1) * block + span)]
    if tape:
        ad.backward(ad.sumsq_diff(out, 0.0))
        assert views[1:] == [(2, 3, 3, c, (t_n - 1) * block - m)]


@pytest.mark.parametrize("dilation", [1, 3])
@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("c", [4, 2])
def test_a_bptt_kernel_reads_the_last_valid_window(c, dtype, dilation):
    """A kernel built once on a sweep's zero-margined BPTT grid, with the
    flipped taps, reaches the last window start whose taps stay on the grid:
    there it has the bytes of a kernel built on that window alone (and,
    stacked, of the explicit stack), and one column further does not fit."""
    t_n, h, wid, pad = 4, 7, 9, dilation
    wp = wid + 2 * pad
    block, span, m = (h + 2 * pad) * wp, h * wp, pad * wp + pad
    rng = np.random.default_rng(c + dilation)
    ggrid = rng.standard_normal((2, c, m + (t_n - 1) * block)).astype(dtype)
    wt = (0.3 * rng.standard_normal((c, c, 3, 3))).astype(dtype).transpose(1, 0, 2, 3)
    flipped = [(i, j, 2 * m - off) for i, j, off in ad._taps(3, dilation, wp)]
    last = ggrid.shape[-1] - 2 * m - span
    assert last >= (t_n - 2) * block  # the sweep's last carry starts there
    run = ad._taps_forward(wt, ggrid, flipped, span)
    got = run(last)
    assert got.shape == (2, c, span) and got.dtype == dtype
    assert got.tobytes() == ad._taps_forward(wt, ggrid[..., last:], flipped, span)(0).tobytes()
    if ad._stacked(c, c, span):
        assert got.tobytes() == stacked_taps(wt, ggrid[..., last:], flipped, span).tobytes()
    with pytest.raises(ValueError):
        run(last + 1)


def test_conv2d_shape_mismatch():
    x = ad.constant(np.ones((1, 2, 4, 4)))
    w = ad.constant(np.ones((3, 5, 3, 3)))  # channel mismatch
    with pytest.raises(ValueError):
        ad.conv2d(x, w, None, dilation=1)


# ----------------------------------------------------------- activations


def test_relu_values():
    x = ad.constant(np.array([[-2.0, -0.5, 0.0, 0.5, 2.0]]))
    assert np.array_equal(ad.relu(x).value, [[0.0, 0.0, 0.0, 0.5, 2.0]])


def test_relu_propagates_nan():
    """A NaN from inside the network must reach the non-finite checks, not
    turn into a silent 0; signed zeros and infinities map as before."""
    x = ad.constant(np.array([np.nan, -np.inf, -0.0, 0.0, np.inf]))
    got = ad.relu(x).value
    assert np.isnan(got[0])
    assert np.array_equal(got[1:], [0.0, 0.0, 0.0, np.inf])
    assert not np.signbit(got[1:4]).any()  # -0.0 too becomes +0.0


def test_crnn_sweep_relu_maps_signed_zero_and_nan():
    """The recurrent ReLU maps as relu does: a -0.0 pre-activation gives a
    +0.0 state and a NaN one a NaN state.  At one frame each direction's
    state is relu(pre), and the output is the sum of the two."""
    pre = np.full((1, 2, 4, 4), -0.0)
    pre[0, 1, 2, 2] = np.nan
    w = np.ones((2, 2, 3, 3))
    got = ad.crnn_sweep(ad.constant(pre), ad.constant(w), 3).value
    assert np.isnan(got[0, 1, 2, 2])
    got[0, 1, 2, 2] = 0.0
    assert np.array_equal(got, np.zeros_like(pre))
    assert not np.signbit(got).any()


def test_relu_gradient_indicator():
    rng = np.random.default_rng(3)
    xv = rng.standard_normal((2, 2, 4, 4))
    xv[np.abs(xv) < 1e-2] = 0.1  # keep away from the kink
    x = ad.parameter(xv.copy())
    t = rng.standard_normal(xv.shape)

    def build():
        return ad.sumsq_diff(ad.relu(x), t)

    loss = build()
    ad.backward(loss)
    assert_close_rel(x.grad, numeric_grad(build, x))
    assert np.array_equal(x.grad, 2.0 * (np.maximum(xv, 0.0) - t) * (xv > 0))


# ----------------------------------------------------------- conv backward


def test_conv_chain_finite_differences():
    rng = np.random.default_rng(4)
    x = ad.parameter(rng.standard_normal((2, 2, 6, 6)))
    w = ad.parameter(rng.standard_normal((3, 2, 3, 3)) * 0.5)
    b = ad.parameter(rng.standard_normal(3) * 0.1)
    t = rng.standard_normal((2, 3, 6, 6))

    def build():
        h = ad.conv2d(x, w, b, dilation=3)
        h = ad.relu(h)
        return ad.sumsq_diff(h, t)

    loss = build()
    ad.backward(loss)
    for leaf in (x, w, b):
        assert_close_rel(leaf.grad, numeric_grad(build, leaf))


@pytest.mark.parametrize("shape, co, k, dilation, bias", [
    ((2, 3, 7, 5), 4, 3, 1, True),
    ((2, 3, 7, 5), 2, 3, 3, False),
    ((2, 2, 6, 4), 3, 1, 1, True),
    ((2, 3, 7, 9), 2, 5, 1, True),
    ((1, 2, 9, 8), 3, 5, 3, False),
    ((2, 2, 3, 2), 3, 3, 3, True),  # every off-centre tap lands in the padding
    ((3, 4, 40, 37), 4, 3, 3, True),  # a forward span of 5,160: more than one block
])
def test_conv2d_vjp_matches_nested_loop_oracle(shape, co, k, dilation, bias):
    rng = np.random.default_rng(7)
    x = rng.standard_normal(shape)
    w = rng.standard_normal((co, shape[1], k, k))
    b = ad.constant(rng.standard_normal(co)) if bias else None
    out = ad.conv2d(ad.constant(x), ad.constant(w), b, dilation)
    g = rng.standard_normal(out.value.shape)
    got = out.vjp(g)
    want = conv2d_vjp_oracle(x, w, g, dilation)
    assert len(got) == (3 if bias else 2)
    for have, ref in zip(got, want):
        assert have.shape == ref.shape
        assert_close_rel(have, ref, tol=1e-12)


def test_shared_weight_reuse_accumulates():
    rng = np.random.default_rng(5)
    x = ad.constant(rng.standard_normal((1, 2, 5, 5)))
    w = ad.parameter(rng.standard_normal((2, 2, 3, 3)) * 0.3)

    def build():
        h = ad.conv2d(x, w, None, dilation=1)
        h = ad.conv2d(h, w, None, dilation=1)  # same weights twice
        return ad.sumsq_diff(h, 0.0)

    loss = build()
    ad.backward(loss)
    assert_close_rel(w.grad, numeric_grad(build, w))


def test_zero_upstream_gradient_gives_zero_params():
    rng = np.random.default_rng(6)
    x = ad.constant(rng.standard_normal((1, 1, 4, 4)))
    w = ad.parameter(rng.standard_normal((1, 1, 3, 3)))
    out = ad.conv2d(x, w, None, 1)
    ad.backward(ad.sumsq_diff(out, out.value))  # zero at its minimum, so g = 0 upstream
    assert np.all(w.grad == 0)


def test_backward_consumes_the_graph():
    """backward frees every interior node it walks, leaves the leaf gradients
    a fresh build gives, and refuses to walk the spent graph again."""
    rng = np.random.default_rng(9)
    x = ad.constant(rng.standard_normal((2, 2, 5, 5)))
    w = ad.parameter(rng.standard_normal((3, 2, 3, 3)))
    b = ad.parameter(rng.standard_normal(3))
    t = rng.standard_normal((2, 3, 5, 5))

    def build():
        h = ad.relu(ad.conv2d(x, w, b, 1))
        return h, ad.sumsq_diff(ad.add(h, ad.add_const(h, 0.5)), t)

    h, loss = build()
    interior, todo = [], [loss.node]
    while todo:
        node = todo.pop()
        if node.vjp is not None:
            interior.append(node)
            todo.extend(node.parents)
    assert len({id(node) for node in interior}) == 5  # sumsq, add, add_const, relu, conv2d
    ad.backward(loss)
    for node in interior:
        assert node.grad is None and node.vjp is None and node.parents is None
    assert x.node.parents == () and w.node.parents == () and b.node.parents == ()
    got = (w.grad.copy(), b.grad.copy())
    w.grad = b.grad = None
    ad.backward(build()[1])
    assert np.array_equal(got[0], w.grad) and np.array_equal(got[1], b.grad)
    with pytest.raises(RuntimeError, match="consumed"):
        ad.backward(loss)
    # a new loss over a consumed node cannot walk through it either
    with pytest.raises(RuntimeError, match="consumed"):
        ad.backward(ad.sumsq_diff(h, 0.0))


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_tape_frees_a_value_no_vjp_reads(dtype):
    """A node holds no value, and relu's vjp reads relu's own output, so once
    the caller drops a conv2d output that only a relu reads, its array is
    freed before backward.  The gradients are bitwise those of the same graph
    with the conv2d tensor kept."""
    rng = np.random.default_rng(21)
    leaves = [ad.parameter(rng.standard_normal(shape).astype(dtype))
              for shape in ((2, 2, 6, 5), (3, 2, 3, 3), (3,))]
    t = rng.standard_normal((2, 3, 6, 5))

    def gradients(keep):
        for leaf in leaves:
            leaf.grad = None
        conv = ad.conv2d(*leaves, 2)
        value = weakref.ref(conv.value)
        loss = ad.sumsq_diff(ad.relu(conv), t)
        if not keep:
            del conv
            assert value() is None
        ad.backward(loss)
        return [leaf.grad for leaf in leaves]

    for kept, dropped in zip(gradients(True), gradients(False)):
        assert kept.dtype == dropped.dtype == dtype
        assert kept.tobytes() == dropped.tobytes()


# ----------------------------------------------------------- no_tape scope


def conv_of_parameters(seed=8):
    rng = np.random.default_rng(seed)
    x = ad.parameter(rng.standard_normal((1, 2, 5, 5)))
    w = ad.parameter(rng.standard_normal((3, 2, 3, 3)))
    b = ad.parameter(rng.standard_normal(3))
    return x, w, b


def test_no_tape_records_no_graph():
    x, w, b = conv_of_parameters()
    taped = ad.conv2d(x, w, b, 1)
    with ad.no_tape():
        out = ad.conv2d(x, w, b, 1)
    assert out.node.parents == ()
    assert out.vjp is None
    assert out.needs_grad is False
    assert np.array_equal(out.value, taped.value)


@pytest.mark.parametrize("raises", [False, True])
def test_tape_records_again_after_no_tape(raises):
    """Once the scope exits, normally or by an exception, ops record again."""
    x, w, b = conv_of_parameters()
    with contextlib.suppress(RuntimeError):
        with ad.no_tape():
            ad.conv2d(x, w, b, 1)
            if raises:
                raise RuntimeError("inside the scope")
    out = ad.conv2d(x, w, b, 1)
    assert out.node.parents == (x.node, w.node, b.node)
    assert out.vjp is not None
    assert out.needs_grad is True
    ad.backward(ad.sumsq_diff(out, 0.0))
    for leaf in (x, w, b):
        assert leaf.grad is not None
        assert np.any(leaf.grad != 0)


def test_no_tape_is_per_thread():
    """A scope held open in one thread leaves another thread's tape intact."""
    x, w, b = conv_of_parameters()
    entered, built = threading.Event(), threading.Event()
    inside = []

    def hold_scope():
        with ad.no_tape():
            entered.set()
            assert built.wait(timeout=60)
            inside.append(ad.conv2d(x, w, b, 1))

    worker = threading.Thread(target=hold_scope)
    worker.start()
    try:
        assert entered.wait(timeout=60)
        out = ad.conv2d(x, w, b, 1)
    finally:
        built.set()
        worker.join(timeout=60)
    assert out.node.parents == (x.node, w.node, b.node) and out.vjp is not None
    assert inside[0].node.parents == () and inside[0].vjp is None
    ad.backward(ad.sumsq_diff(out, 0.0))
    assert all(leaf.grad is not None for leaf in (x, w, b))


@pytest.mark.parametrize("dilation", [1, 3])
@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("t_n", [1, 2, 3, 5, 8])
def test_no_tape_sweep_matches_the_taped_sweep_bitwise(t_n, dtype, dilation):
    """Without a tape crnn_sweep keeps one state block per direction, where the
    taped sweep keeps every state for its vjp.  Both add each state into the
    output as they sweep, so the outputs are bitwise equal, here at an odd
    width of 13 columns."""
    rng = np.random.default_rng(10 * t_n + dilation)
    pre = ad.constant(rng.standard_normal((t_n, 4, 7, 13)).astype(dtype))
    w = ad.parameter((0.3 * rng.standard_normal((4, 4, 3, 3))).astype(dtype))
    taped = ad.crnn_sweep(pre, w, dilation)
    with ad.no_tape():
        lean = ad.crnn_sweep(pre, w, dilation)
    assert taped.vjp is not None and lean.vjp is None
    assert lean.value.dtype == taped.value.dtype == dtype
    assert lean.value.tobytes() == taped.value.tobytes()


# ----------------------------------------------------------- structure ops


def test_concat_gradients():
    """Two volumes packed side by side, frames or rows batched: each gets
    its own channel pair's gradient."""
    rng = np.random.default_rng(7)
    a = ad.parameter(rng.standard_normal((3, 4, 4)) + 1j * rng.standard_normal((3, 4, 4)))
    b = ad.parameter(rng.standard_normal((3, 4, 4)) + 1j * rng.standard_normal((3, 4, 4)))
    for axis, shape in ((0, (3, 4, 4, 4)), (1, (4, 4, 3, 4))):
        t = rng.standard_normal(shape)

        def build():
            cat = ad.complex_to_channels([a, b], axis)
            return ad.sumsq_diff(ad.add(cat, ad.relu(cat)), t)

        a.grad = b.grad = None
        ad.backward(build())
        for leaf in (a, b):
            assert_close_rel(leaf.grad, numeric_grad(build, leaf))


def test_add_values():
    a = ad.constant(np.full((2, 2), 3.0))
    b = ad.constant(np.full((2, 2), -1.0))
    assert np.all(ad.add(a, b).value == 2.0)


# ----------------------------------------------------------- complex plumbing


def test_channel_embedding_round_trips():
    rng = np.random.default_rng(8)
    z = rng.standard_normal((3, 4, 5)) + 1j * rng.standard_normal((3, 4, 5))
    zc = ad.constant(z)
    img_ch = ad.complex_to_channels([zc], 0)
    assert img_ch.value.shape == (3, 2, 4, 5)
    assert np.array_equal(img_ch.value[:, 1], z.imag)
    back = ad.channels_to_complex(img_ch, 0)
    assert np.array_equal(back.value, z)

    xf_ch = ad.complex_to_channels([zc], 1)
    assert xf_ch.value.shape == (4, 2, 3, 5)  # rows become the batch axis
    assert np.array_equal(xf_ch.value[:, 0], z.real.transpose(1, 0, 2))
    back2 = ad.channels_to_complex(xf_ch, 1)
    assert np.array_equal(back2.value, z)


def test_fft_nodes_match_volume_ops():
    from ktnext import volume

    rng = np.random.default_rng(9)
    z = rng.standard_normal((4, 6, 6)) + 1j * rng.standard_normal((4, 6, 6))
    zc = ad.constant(z)
    ref_t = volume.fft_t(ComplexVolume(z, Domain.IMAGE)).data
    assert np.array_equal(ad.fft_t(zc).value, ref_t)
    assert np.abs(ad.ifft_t(ad.fft_t(zc)).value - z).max() < 1e-12


def test_complex_chain_finite_differences():
    rng = np.random.default_rng(10)
    zv = rng.standard_normal((3, 4, 6)) + 1j * rng.standard_normal((3, 4, 6))
    z = ad.parameter(zv.copy())
    target = rng.standard_normal((3, 4, 6)) + 1j * rng.standard_normal((3, 4, 6))
    bits = make_shear_mask(3, 3, 6, n_center=1).bits

    def build():
        img = ad.data_consistency(z, np.zeros_like(zv), bits, 0.0)  # the x-pass and its inverse
        rho = ad.fft_t(img)
        back = ad.ifft_t(rho)
        return ad.sumsq_diff(back, target)

    loss = build()
    ad.backward(loss)
    assert_close_rel(z.grad, numeric_grad(build, z))


def test_dc_node_hard_gradient_mask():
    """Under hard DC the gradient in (y, k_x) space is exactly 0 at every
    acquired sample and the upstream gradient elsewhere; the node's gradient
    is that masked array taken back along x, bit for bit."""
    rng = np.random.default_rng(11)
    img = ComplexVolume(
        rng.standard_normal((4, 6, 8)) + 1j * rng.standard_normal((4, 6, 8)),
        Domain.IMAGE,
    )
    meas = undersample(img, make_shear_mask(4, 4, 8, n_center=2))
    k_hybrid = _ifft1c_arr(meas.kspace.data, 1)
    zv = rng.standard_normal((4, 6, 8)) + 1j * rng.standard_normal((4, 6, 8))
    z = ad.parameter(zv.copy())
    target = rng.standard_normal((4, 6, 8)) + 1j * rng.standard_normal((4, 6, 8))

    def build():
        dc = ad.data_consistency(z, k_hybrid, meas.mask.bits, np.inf)
        return ad.sumsq_diff(dc, target)

    loss = build()
    dc_value = ad.data_consistency(z, k_hybrid, meas.mask.bits, np.inf).value
    upstream = _fft1c_arr(2.0 * (dc_value - target), 2)
    ad.backward(loss)
    g_k = dc_array(upstream, 0.0, meas.mask.bits, np.inf)
    bits = np.broadcast_to(meas.mask.bits[:, None, :], zv.shape)
    assert np.all(g_k[bits == 1] == 0)
    assert np.array_equal(g_k[bits == 0], upstream[bits == 0])
    assert np.all(g_k[bits == 0] != 0)
    assert np.array_equal(z.grad, _ifft1c_arr(g_k, 2))
    assert_close_rel(z.grad, numeric_grad(build, z))


@pytest.mark.parametrize("dtype", [np.complex128, np.complex64])
@pytest.mark.parametrize("lam", [np.inf, 1.5])
def test_dc_node_is_the_composed_map_bitwise(dtype, lam):
    """The DC node is F_x^-1 dc_array(F_x img, k_hybrid) bit for bit, and its
    vjp is the same map with zero data, in either precision."""
    rng = np.random.default_rng(19)

    def cplx():
        return (rng.standard_normal((4, 6, 8)) + 1j * rng.standard_normal((4, 6, 8))).astype(dtype)

    bits = make_shear_mask(4, 4, 8, n_center=2).bits
    img, k_hybrid, g = cplx(), cplx(), cplx()

    def composed(a, k):
        return _ifft1c_arr(dc_array(_fft1c_arr(a, 2), k, bits, lam), 2)

    node = ad.data_consistency(ad.parameter(img), k_hybrid, bits, lam)
    (grad,) = node.vjp(g)
    assert node.value.dtype == grad.dtype == dtype
    assert np.array_equal(node.value, composed(img, k_hybrid))
    assert np.array_equal(grad, composed(g, 0.0))


def test_dc_node_soft_finite_differences():
    rng = np.random.default_rng(12)
    img = ComplexVolume(
        rng.standard_normal((3, 4, 6)) + 1j * rng.standard_normal((3, 4, 6)),
        Domain.IMAGE,
    )
    meas = undersample(img, make_shear_mask(3, 3, 6, n_center=1))
    z = ad.parameter(
        rng.standard_normal((3, 4, 6)) + 1j * rng.standard_normal((3, 4, 6))
    )
    target = rng.standard_normal((3, 4, 6)) + 1j * rng.standard_normal((3, 4, 6))

    def build():
        dc = ad.data_consistency(z, _ifft1c_arr(meas.kspace.data, 1), meas.mask.bits, 2.5)
        return ad.sumsq_diff(dc, target)

    loss = build()
    ad.backward(loss)
    assert_close_rel(z.grad, numeric_grad(build, z))


def test_embedding_chain_finite_differences():
    # complex -> channels -> conv -> channels -> complex -> loss
    rng = np.random.default_rng(13)
    z = ad.parameter(rng.standard_normal((3, 4, 6)) + 1j * rng.standard_normal((3, 4, 6)))
    w = ad.parameter(rng.standard_normal((2, 2, 3, 3)) * 0.4)
    target = rng.standard_normal((3, 4, 6)) + 1j * rng.standard_normal((3, 4, 6))

    def build():
        ch = ad.complex_to_channels([z], 0)
        h = ad.conv2d(ch, w, None, dilation=1)
        out = ad.channels_to_complex(h, 0)
        return ad.sumsq_diff(out, target)

    loss = build()
    ad.backward(loss)
    assert_close_rel(z.grad, numeric_grad(build, z))
    assert_close_rel(w.grad, numeric_grad(build, w))


def test_add_complex_and_constants():
    rng = np.random.default_rng(14)
    z = ad.parameter(rng.standard_normal((2, 3, 3)) + 1j * rng.standard_normal((2, 3, 3)))
    shift = rng.standard_normal((2, 3, 3)) + 1j * rng.standard_normal((2, 3, 3))

    def build():
        return ad.sumsq_diff(ad.add_const(z, shift), np.zeros((2, 3, 3), dtype=complex))

    loss = build()
    expect = np.abs(z.value + shift) ** 2
    assert abs(loss.value.item() - expect.sum()) < 1e-10
    ad.backward(loss)
    assert_close_rel(z.grad, numeric_grad(build, z))


def test_loss_values():
    z = ad.constant(np.array([[[1.0 + 1.0j]]]))
    t = np.array([[[0.0 + 0.0j]]])
    assert abs(ad.sumsq_diff(z, t).value.item() - 2.0) < 1e-15
    r = ad.constant(np.array([2.0, -1.0]))
    assert abs(ad.sumsq_diff(r, np.zeros(2)).value.item() - 5.0) < 1e-15


def test_backward_requires_scalar():
    x = ad.parameter(np.ones((2, 2)))
    with pytest.raises(ValueError):
        ad.backward(ad.relu(x))
