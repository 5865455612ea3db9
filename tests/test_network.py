"""Parameter store, ADAM, the bidirectional recurrent layer, KTNP files."""

import struct

import numpy as np
import pytest

from ktnext import autodiff as ad
from ktnext.network import (
    AdamState,
    ParamStore,
    adam_step,
    crnn_bidir_layer,
    init_adam,
    load_checkpoint,
    save_checkpoint,
)
from ktnext.sampling import FileFormatError

from gradcheck import check_gradients


# ------------------------------------------------------------ param store


def test_param_store_basics():
    w0 = np.zeros((4, 2, 3, 3))
    store = ParamStore({"w": w0, "b": np.zeros(4), "a": np.ones(1)})
    assert [name for name, _ in store.items()] == ["w", "b", "a"]  # given order, not sorted
    assert all(t.needs_grad and t.value.dtype == np.float64 for _, t in store.items())
    store["w"].value += 1.0  # the store owns its leaves, and a snapshot owns its arrays
    snap = store.snapshot()
    snap["w"] += 1.0
    assert np.all(w0 == 0.0) and np.all(store["w"].value == 1.0)
    assert list(snap) == ["w", "b", "a"]


def test_param_store_set_values_shape_guard():
    store = ParamStore({"w": np.ones((2, 2))})
    with pytest.raises(ValueError):
        store.set_values({"w": np.ones((3, 3))})
    with pytest.raises(KeyError):
        store.set_values({"nope": np.ones((2, 2))})
    store.set_values({"w": np.full((2, 2), 5.0)})
    assert np.all(store["w"].value == 5.0)


# ------------------------------------------------------------ adam


def test_adam_zero_gradient_leaves_params():
    store = ParamStore({"w": np.full((2, 2), 3.0)})
    w = store["w"]
    state = init_adam(store)
    w.grad = np.zeros((2, 2))
    adam_step(store, state, lr=0.1, grads=store)
    assert np.all(w.value == 3.0)
    assert state.step == 1


def test_adam_none_gradient_treated_as_zero():
    store = ParamStore({"w": np.full(3, 1.0)})
    w = store["w"]
    state = init_adam(store)
    adam_step(store, state, lr=0.1, grads=store)
    assert np.all(w.value == 1.0)


def test_adam_reads_float32_gradients_as_float64():
    """A float32 copy's gradient updates the float64 master in float64: its
    square, 1e60, is beyond float32 but not float64, so the first step moves
    the weight by lr."""
    store = ParamStore({"w": np.full(2, 1.0)})
    copy = ParamStore({"w": np.full(2, 1.0, dtype=np.float32)})
    copy["w"].grad = np.full(2, 1e30, dtype=np.float32)
    state = init_adam(store)
    adam_step(store, state, lr=0.1, grads=copy)
    assert state.m["w"].dtype == state.v["w"].dtype == store["w"].value.dtype == np.float64
    assert np.allclose(store["w"].value, 0.9, rtol=0, atol=1e-12)
    assert store["w"].grad is None


def test_adam_quadratic_converges():
    # scalar f(x) = x^2; |x| shrinks monotonically once moments warm up
    store = ParamStore({"x": np.array([3.0])})
    x = store["x"]
    state = init_adam(store)
    trace = []
    for _ in range(300):
        x.grad = 2.0 * x.value
        adam_step(store, state, lr=0.05, grads=store)
        trace.append(abs(float(x.value[0])))
    # monotone approach until |x| reaches the step-size scale, then it may
    # dither below that scale but never climbs back out
    cross = next(i for i, v in enumerate(trace) if v < 0.1)
    assert all(b <= a + 1e-12 for a, b in zip(trace[:cross], trace[1:cross]))
    assert max(trace[cross:]) < 0.1
    assert trace[-1] < 1e-3
    assert state.step == 300


def test_adam_matches_reference_formula():
    store = ParamStore({"x": np.array([1.0, -2.0])})
    x = store["x"]
    state = init_adam(store)
    g = np.array([0.5, 1.5])
    x.grad = g.copy()
    adam_step(store, state, lr=1e-2, grads=store)
    m = 0.1 * g
    v = 0.001 * g * g
    mh = m / (1 - 0.9)
    vh = v / (1 - 0.999)
    expect = np.array([1.0, -2.0]) - 1e-2 * mh / (np.sqrt(vh) + 1e-8)
    assert np.allclose(x.value, expect, atol=1e-15)


# ------------------------------------------------------------ crnn layer


def layer_params(rng, ci, ch, scale=0.3):
    w_i2h = ad.parameter(rng.standard_normal((ch, ci, 3, 3)) * scale)
    w_h2h = ad.parameter(rng.standard_normal((ch, ch, 3, 3)) * scale)
    w_ih = ad.parameter(rng.standard_normal((ch, ch, 3, 3)) * scale)
    bias = ad.parameter(rng.standard_normal(ch) * 0.1)
    return w_i2h, w_h2h, w_ih, bias


def test_crnn_zero_weights_zero_output():
    rng = np.random.default_rng(1)
    seq = ad.constant(rng.standard_normal((4, 2, 5, 5)))
    zeros = lambda *shape: ad.parameter(np.zeros(shape))
    out = crnn_bidir_layer(
        seq, zeros(3, 2, 3, 3), zeros(3, 3, 3, 3), zeros(3, 3, 3, 3), zeros(3), None, dilation=1
    )
    assert isinstance(out, ad.Tensor)
    assert np.all(out.value == 0)


def test_crnn_single_frame_degenerate():
    rng = np.random.default_rng(2)
    seq = ad.constant(rng.standard_normal((1, 2, 6, 6)))
    w_i2h, w_h2h, w_ih, bias = layer_params(rng, 2, 4)
    out = crnn_bidir_layer(seq, w_i2h, w_h2h, w_ih, bias, None, dilation=1)
    ref = ad.relu(ad.conv2d(seq, w_i2h, bias, 1))
    assert np.abs(out.value - 2.0 * ref.value).max() < 1e-12


def test_crnn_uses_prev_iteration_hidden():
    rng = np.random.default_rng(3)
    seq = ad.constant(rng.standard_normal((3, 2, 4, 4)))
    params = layer_params(rng, 2, 4)
    out0 = crnn_bidir_layer(seq, *params, None, dilation=1)
    hidden_prev = ad.constant(rng.standard_normal((3, 4, 4, 4)))
    out1 = crnn_bidir_layer(seq, *params, hidden_prev, dilation=1)
    assert np.abs(out0.value - out1.value).max() > 1e-6


def test_crnn_temporal_coupling_both_directions():
    # output at frame 0 must react to the input at the last frame (backward
    # stream) and vice versa (forward stream)
    rng = np.random.default_rng(4)
    base = rng.standard_normal((3, 1, 4, 4))
    params = layer_params(rng, 1, 3)
    out_a = crnn_bidir_layer(ad.constant(base), *params, None, dilation=1)
    bumped = base.copy()
    bumped[2] += 1.0
    out_b = crnn_bidir_layer(ad.constant(bumped), *params, None, dilation=1)
    assert np.abs(out_b.value[0] - out_a.value[0]).max() > 1e-8
    bumped0 = base.copy()
    bumped0[0] += 1.0
    out_c = crnn_bidir_layer(ad.constant(bumped0), *params, None, dilation=1)
    assert np.abs(out_c.value[2] - out_a.value[2]).max() > 1e-8


def unrolled_layer(seq, w_i2h, w_h2h, w_ih, bias, hidden_prev, dilation):
    """The layer built frame by frame from conv2d, add and relu nodes."""
    base = ad.conv2d(seq, w_i2h, bias, dilation)
    if hidden_prev is not None:
        base = ad.add(base, ad.conv2d(hidden_prev, w_ih, None, dilation))
    t_n = base.value.shape[0]
    frames = [ad.constant(base.value[t : t + 1]) for t in range(t_n)]

    def sweep(order):
        states, h = [None] * t_n, None
        for t in order:
            pre = frames[t] if h is None else ad.add(frames[t], ad.conv2d(h, w_h2h, None, dilation))
            h = states[t] = ad.relu(pre)
        return np.concatenate([st.value for st in states])

    return sweep(range(t_n)) + sweep(range(t_n - 1, -1, -1))


@pytest.mark.parametrize("with_prev", [False, True])
def test_crnn_matches_frame_by_frame_unroll_bitwise(with_prev):
    # 41x83 frames: a sweep span of 41 * 89 = 3,649 columns, more than one block
    for h, w in ((7, 6), (41, 83)):
        rng = np.random.default_rng(9)
        seq = ad.constant(rng.standard_normal((5, 2, h, w)))
        params = layer_params(rng, 2, 4)
        hidden_prev = ad.constant(rng.standard_normal((5, 4, h, w))) if with_prev else None
        out = crnn_bidir_layer(seq, *params, hidden_prev, dilation=3)
        assert np.array_equal(out.value, unrolled_layer(seq, *params, hidden_prev, 3)), (h, w)


def test_crnn_gradients_finite_differences():
    for frames in (1, 2, 3):
        rng = np.random.default_rng(5)
        seq = ad.parameter(rng.standard_normal((frames, 2, 4, 4)))
        w_i2h, w_h2h, w_ih, bias = layer_params(rng, 2, 3)
        hidden_prev = ad.constant(rng.standard_normal((frames, 3, 4, 4)) * 0.3)
        target = rng.standard_normal((frames, 3, 4, 4))

        def build():
            out = crnn_bidir_layer(seq, w_i2h, w_h2h, w_ih, bias, hidden_prev, dilation=3)
            return ad.sumsq_diff(out, target)

        leaves = [seq, w_i2h, w_h2h, w_ih, bias]
        err, _ = check_gradients(build, leaves, np.random.default_rng(6), samples=12)
        assert err < 1e-4, frames
        if frames == 1:  # no frame has a neighbour, so h2h takes no part
            assert np.all(w_h2h.grad == 0)


def test_crnn_nan_reaches_output():
    rng = np.random.default_rng(10)
    seq_v = rng.standard_normal((3, 2, 5, 5))
    params = layer_params(rng, 2, 3)
    seq_v[1, 0, 2, 2] = np.nan
    out = crnn_bidir_layer(ad.constant(seq_v), *params, None, dilation=1)
    assert np.isnan(out.value[1]).any()
    # the neighbours' recurrence carries it on in both directions
    assert np.isnan(out.value[0]).any() and np.isnan(out.value[2]).any()


def test_crnn_shape_mismatch():
    rng = np.random.default_rng(7)
    seq = ad.constant(rng.standard_normal((3, 2, 4, 4)))
    w_i2h, w_h2h, w_ih, bias = layer_params(rng, 5, 3)  # wrong ci
    with pytest.raises(ValueError):
        crnn_bidir_layer(seq, w_i2h, w_h2h, w_ih, bias, None, dilation=1)
    w_i2h, _, w_ih, bias = layer_params(rng, 2, 3)
    with pytest.raises(ValueError):  # h2h must map the hidden width to itself
        crnn_bidir_layer(seq, w_i2h, ad.parameter(np.zeros((3, 2, 3, 3))), w_ih, bias, None, 1)


# ------------------------------------------------------------ checkpoints


def test_checkpoint_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(8)
    arrays = {
        "layer0.w": rng.standard_normal((4, 2, 3, 3)),
        "layer0.b": rng.standard_normal(4),
        "scalar": rng.standard_normal(()),
    }
    path = tmp_path / "params.ktnp"
    save_checkpoint(path, arrays)
    loaded = load_checkpoint(path)
    assert list(loaded) == ["layer0.w", "layer0.b", "scalar"]
    for name, arr in loaded.items():
        assert arr.dtype == np.float64
        assert np.array_equal(arr, arrays[name])

    # what load_checkpoint returns, save_checkpoint writes back byte for byte
    p2 = tmp_path / "params2.ktnp"
    save_checkpoint(p2, loaded)
    assert path.read_bytes() == p2.read_bytes()


def test_checkpoint_bytes_match_documented_layout(tmp_path):
    """KTNP: magic, u32 record count, then per record u16 name length, the
    UTF-8 name, u8 rank, rank u32 dims and the float64 payload, all
    little-endian, in mapping order."""
    path = tmp_path / "p.ktnp"
    save_checkpoint(path, {"w": np.array([[1.0, -2.0, 0.5]]), "é": np.array(3.0)})
    want = (b"KTNP" + struct.pack("<I", 2)
            + struct.pack("<H", 1) + b"w" + struct.pack("<B2I", 2, 1, 3)
            + struct.pack("<3d", 1.0, -2.0, 0.5)
            + struct.pack("<H", 2) + "é".encode("utf-8") + struct.pack("<B", 0)
            + struct.pack("<d", 3.0))
    assert path.read_bytes() == want


def test_checkpoint_bad_magic_and_truncation(tmp_path):
    path = tmp_path / "p.ktnp"
    save_checkpoint(path, {"w": np.ones((2, 2))})
    raw = path.read_bytes()

    bad = tmp_path / "bad.ktnp"
    bad.write_bytes(b"XXXX" + raw[4:])
    with pytest.raises(FileFormatError, match="magic"):
        load_checkpoint(bad)

    trunc = tmp_path / "trunc.ktnp"
    trunc.write_bytes(raw[:-4])
    with pytest.raises(FileFormatError, match="truncated"):
        load_checkpoint(trunc)

    # an empty record whose other extents no numpy array can have
    huge = tmp_path / "huge.ktnp"
    huge.write_bytes(b"KTNP" + struct.pack("<IH", 1, 1) + b"w"
                     + struct.pack("<B3I", 3, 0, 0xFFFFFFFF, 0xFFFFFFFF))
    with pytest.raises(FileFormatError, match="too big"):
        load_checkpoint(huge)


def test_check_gradients_flags_broken_vjp():
    # a deliberately wrong gradient must be caught
    x = ad.parameter(np.array([1.0, 2.0]))

    def build():
        wrong = ad.Tensor(
            np.asarray((x.value**2).sum()), (x,), lambda g: (3.0 * x.value * g,)
        )
        return wrong

    err, resolved = check_gradients(build, [x], np.random.default_rng(0), samples=2)
    assert err > 1e-2 and resolved > 1e-2


def test_check_gradients_reports_error_above_noise_floor():
    # a right gradient agrees within the noise floor, so it passes with 0;
    # the reported figure is still the relative error those coordinates show
    rng = np.random.default_rng(1)
    x = ad.parameter(rng.standard_normal((1, 2, 4, 4)))
    w = ad.parameter(rng.standard_normal((2, 2, 3, 3)))
    target = rng.standard_normal((1, 2, 4, 4))

    def build():
        return ad.sumsq_diff(ad.relu(ad.conv2d(x, w, None, 1)), target)

    err, resolved = check_gradients(build, [x, w], np.random.default_rng(2), samples=6)
    assert err == 0.0
    assert 0.0 < resolved < 1e-4


def test_check_gradients_rejects_single_precision_leaves():
    # at step 1e-6 a float32 difference is mostly roundoff, so it proves nothing
    x = ad.parameter(np.array([1.0, 2.0], dtype=np.float32))
    assert x.value.dtype == np.float32
    with pytest.raises(TypeError, match="float64"):
        check_gradients(lambda: ad.sumsq_diff(x, 0.0), [x], np.random.default_rng(0))
