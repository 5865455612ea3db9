"""Reverse-mode tape: forward oracles and finite-difference gradient checks.

conv2d and its vjp are checked against seven-deep nested loop transcriptions
of the definition; every differentiable op is checked against central finite
differences (step 1e-6, double precision, relative tolerance 1e-4).
"""

import contextlib
import threading

import numpy as np
import pytest

from ktnext import autodiff as ad
from ktnext.sampling import AcquisitionSpec, make_shear_mask, undersample
from ktnext.volume import ComplexVolume, Domain


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
                 ((2, 3, 7, 5), 1), ((2, 2, 6, 9), 5)]


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
    interior, todo = [], [loss]
    while todo:
        node = todo.pop()
        if node.vjp is not None:
            interior.append(node)
            todo.extend(node.parents)
    assert len({id(node) for node in interior}) == 5  # sumsq, add, add_const, relu, conv2d
    ad.backward(loss)
    for node in interior:
        assert node.grad is None and node.vjp is None and node.parents is None
    assert x.parents == () and w.parents == () and b.parents == ()
    got = (w.grad.copy(), b.grad.copy())
    w.grad = b.grad = None
    ad.backward(build()[1])
    assert np.array_equal(got[0], w.grad) and np.array_equal(got[1], b.grad)
    with pytest.raises(RuntimeError, match="consumed"):
        ad.backward(loss)
    # a new loss over a consumed node cannot walk through it either
    with pytest.raises(RuntimeError, match="consumed"):
        ad.backward(ad.sumsq_diff(h, 0.0))


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
    assert out.parents == ()
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
    assert out.parents == (x, w, b)
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
    assert out.parents == (x, w, b) and out.vjp is not None
    assert inside[0].parents == () and inside[0].vjp is None
    ad.backward(ad.sumsq_diff(out, 0.0))
    assert all(leaf.grad is not None for leaf in (x, w, b))


# ----------------------------------------------------------- structure ops


def test_concat_gradients():
    rng = np.random.default_rng(7)
    a = ad.parameter(rng.standard_normal((3, 2, 4, 4)))
    b = ad.parameter(rng.standard_normal((3, 1, 4, 4)))
    t = rng.standard_normal((3, 3, 4, 4))

    def build():
        cat = ad.concat_channels([a, b])
        return ad.sumsq_diff(ad.add(cat, ad.relu(cat)), t)

    loss = build()
    ad.backward(loss)
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
    img_ch = ad.complex_to_channels_image(zc)
    assert img_ch.value.shape == (3, 2, 4, 5)
    back = ad.channels_to_complex_image(img_ch)
    assert np.array_equal(back.value, z)

    xf_ch = ad.complex_to_channels_xf(zc)
    assert xf_ch.value.shape == (4, 2, 3, 5)  # rows become the batch axis
    back2 = ad.channels_to_complex_xf(xf_ch)
    assert np.array_equal(back2.value, z)


def test_fft_nodes_match_volume_ops():
    from ktnext import volume

    rng = np.random.default_rng(9)
    z = rng.standard_normal((4, 6, 6)) + 1j * rng.standard_normal((4, 6, 6))
    zc = ad.constant(z)
    ref = volume.fft2c(ComplexVolume(z, Domain.IMAGE)).data
    assert np.array_equal(ad.fft2c(zc).value, ref)
    ref_t = volume.fft_t(ComplexVolume(z, Domain.IMAGE)).data
    assert np.array_equal(ad.fft_t(zc).value, ref_t)
    assert np.abs(ad.ifft2c(ad.fft2c(zc)).value - z).max() < 1e-12


def test_complex_chain_finite_differences():
    rng = np.random.default_rng(10)
    zv = rng.standard_normal((3, 4, 6)) + 1j * rng.standard_normal((3, 4, 6))
    z = ad.parameter(zv.copy())
    target = rng.standard_normal((3, 4, 6)) + 1j * rng.standard_normal((3, 4, 6))

    def build():
        k = ad.fft2c(z)
        img = ad.ifft2c(k)
        rho = ad.fft_t(img)
        back = ad.ifft_t(rho)
        return ad.sumsq_diff(back, target)

    loss = build()
    ad.backward(loss)
    assert_close_rel(z.grad, numeric_grad(build, z))


def test_dc_node_hard_gradient_mask():
    rng = np.random.default_rng(11)
    img = ComplexVolume(
        rng.standard_normal((4, 6, 8)) + 1j * rng.standard_normal((4, 6, 8)),
        Domain.IMAGE,
    )
    meas = undersample(img, make_shear_mask(AcquisitionSpec(accel=4, n_center=2), 4, 8))
    zv = rng.standard_normal((4, 6, 8)) + 1j * rng.standard_normal((4, 6, 8))
    z = ad.parameter(zv.copy())
    target = rng.standard_normal((4, 6, 8)) + 1j * rng.standard_normal((4, 6, 8))

    def build():
        return ad.sumsq_diff(ad.data_consistency(z, meas, np.inf), target)

    loss = build()
    ad.backward(loss)
    bits = np.broadcast_to(meas.mask.bits[:, None, :], zv.shape)
    assert np.all(z.grad[bits == 1] == 0)
    assert np.all(z.grad[bits == 0] != 0)
    assert_close_rel(z.grad, numeric_grad(build, z))


def test_dc_node_soft_finite_differences():
    rng = np.random.default_rng(12)
    img = ComplexVolume(
        rng.standard_normal((3, 4, 6)) + 1j * rng.standard_normal((3, 4, 6)),
        Domain.IMAGE,
    )
    meas = undersample(img, make_shear_mask(AcquisitionSpec(accel=3, n_center=1), 3, 6))
    z = ad.parameter(
        rng.standard_normal((3, 4, 6)) + 1j * rng.standard_normal((3, 4, 6))
    )
    target = rng.standard_normal((3, 4, 6)) + 1j * rng.standard_normal((3, 4, 6))

    def build():
        return ad.sumsq_diff(ad.data_consistency(z, meas, 2.5), target)

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
        ch = ad.complex_to_channels_image(z)
        h = ad.conv2d(ch, w, None, dilation=1)
        out = ad.channels_to_complex_image(h)
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
