"""End-to-end model: cascade assembly, collapse identities, gradients, training."""

import hashlib
import json
import math
import tracemalloc
import weakref
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from ktnext import autodiff as ad
from ktnext import model as km
from ktnext.model import (
    KtNextConfig,
    NonFiniteLossError,
    fit,
    init_params,
    ktnext_forward,
    load_params,
    save_params,
)
from ktnext.network import save_checkpoint
from ktnext.sampling import (
    AcquisitionSpec,
    SamplingMask,
    generate_phantom,
    make_shear_mask,
    undersample,
    zero_filled,
)
from ktnext.volume import ComplexVolume, Domain, _ifft1c_arr, fft2c, fft_t, ifft2c
from ktnext.xf import dc_array, kspace_temporal_average

from gradcheck import check_gradients


def small_config(**kw):
    base = dict(n_cascades=2, channels=3)
    base.update(kw)
    return KtNextConfig(**base)


def make_case(seed, t_frames=4, rows=8, cols=8, accel=2, n_center=2):
    gt = generate_phantom(seed, t_frames, rows, cols)
    spec = AcquisitionSpec(accel=accel, n_center=n_center)
    mask = make_shear_mask(spec, t_frames, cols)
    return gt, mask, undersample(gt, mask)


def xf_inputs(meas):
    """The first cascade's de-aliasing inputs, built as the cascade builds
    them from the zero-filled estimate: (x-f residual, x-f DC'd baseline)."""
    avg = kspace_temporal_average(meas)
    residual = km._xf_residual(ad.constant(zero_filled(meas).data), average_image(avg)).value
    baseline = fft_t(ifft2c(baseline_kspace(meas))).data
    return residual, baseline


def baseline_kspace(meas):
    """The temporal average on every frame, each frame's own samples put back."""
    k = meas.kspace.data
    avg = np.broadcast_to(kspace_temporal_average(meas), k.shape)
    return ComplexVolume(dc_array(avg, k, meas.mask.bits, math.inf), Domain.KSPACE)


def average_image(avg):
    """F_2^-1 of the k-space temporal average, as the cascade subtracts it."""
    return ifft2c(ComplexVolume(avg[None], Domain.KSPACE)).data


def xfcnn_pass(meas, params):
    """One de-aliasing pass on the zero-filled estimate: (rho, baseline)."""
    residual, baseline = xf_inputs(meas)
    rho = km._xfcnn_apply(ad.constant(residual), ad.constant(baseline), params)
    return rho.value, baseline


def crnn_pass(img, meas, params, cfg, hidden=None):
    """One recurrent refinement with data consistency: (sigma, hidden states)."""
    k_hybrid = _ifft1c_arr(meas.kspace.data, 1)
    sigma, new_hidden = km._crnn_apply(ad.constant(img), k_hybrid, meas.mask.bits,
                                       params, cfg, hidden)
    return sigma.value, new_hidden


def loss_value(sigma, rho, sigma_gt, rho_gt):
    """Value of the training loss node for final estimates given as arrays."""
    return float(km._loss_node(ad.constant(sigma), ad.constant(rho), sigma_gt, rho_gt).value)


def zero_all(params):
    params.set_values({name: np.zeros_like(t.value) for name, t in params.items()})
    return params


def randomize_biases(params, seed):
    """Move biases off zero so no ReLU input sits at the kink during FD probes."""
    rng = np.random.default_rng(seed)
    params.set_values(
        {
            name: 0.1 * rng.standard_normal(t.value.shape) if t.value.ndim == 1 else t.value
            for name, t in params.items()
        }
    )
    return params


def leaves(params, prefix=""):
    """The parameters whose record names start with prefix, in layout order."""
    return [t for name, t in params.items() if name.startswith(prefix)]


# --------------------------------------------------------------- config


def test_config_defaults():
    cfg = KtNextConfig()
    assert cfg.n_cascades == 4
    assert cfg.channels == 16
    assert cfg.dc_lambda == np.inf
    assert [f.name for f in fields(KtNextConfig)] == ["n_cascades", "channels", "dc_lambda"]


@pytest.mark.parametrize(
    "kw",
    [
        # explicit ids keep each case's test name stable
        pytest.param(dict(n_cascades=0), id="kw0"),
        pytest.param(dict(channels=0), id="kw3"),
        pytest.param(dict(dc_lambda=-1.0), id="kw6"),
        pytest.param(dict(dc_lambda=float("nan")), id="kw7"),
    ],
)
def test_config_rejects_bad_values(kw):
    with pytest.raises(ValueError):
        KtNextConfig(**kw)


# --------------------------------------------------------------- init


def test_init_params_deterministic():
    cfg = small_config()
    a = init_params(cfg, 7)
    b = init_params(cfg, 7)
    c = init_params(cfg, 8)
    sa, sb, sc = a.snapshot(), b.snapshot(), c.snapshot()
    for name in sa:
        assert np.array_equal(sa[name], sb[name])
    assert any(not np.array_equal(sa[name], sc[name]) for name in sa)


def test_init_params_draw_order_is_pinned():
    """Values drawn at seed 0, width 2, pinned so that any change in draw
    order or scaling shows up."""
    p = init_params(KtNextConfig(channels=2), 0).snapshot()
    pins = {
        "xfcnn.w0": (0.029634897311740765, 0.16114638056722905),
        "xfcnn.w4": (-0.06817416279988694, 0.1886059489426977),
        "crnn.i2h0": (-0.000981341750869136, -0.005284779367144751),
        "crnn.h2h2": (-0.040520068948537914, -0.09909479169157538),
        "crnn.ih2ih3": (-0.02612696796380449, -0.17198620819146104),
        "crnn.out_w": (-0.035756373556092465, 0.050425073949054405),
    }
    for name, (first, last) in pins.items():
        assert (p[name].flat[0], p[name].flat[-1]) == (first, last), name
    assert len(p) == 28 and list(p)[:3] == ["xfcnn.w0", "xfcnn.b0", "xfcnn.w1"]


def count_audit(cfg):
    """Independent per-layer arithmetic, written out longhand for the
    5-layer de-aliasing CNN, 4 recurrent layers and 3x3 kernels."""
    k2 = 3 * 3
    ch = cfg.channels
    xf = 0
    for i in range(5):
        ci = 4 if i == 0 else ch  # residual and baseline, real and imaginary
        co = 2 if i == 4 else ch
        xf += co * ci * k2 + co
    cr = 0
    for layer in range(4):
        ci = 2 if layer == 0 else ch
        cr += ch * ci * k2  # input conv
        cr += ch * ch * k2  # neighbor-frame conv
        cr += ch * ch * k2  # previous-cascade hidden conv
        cr += ch  # bias
    cr += 2 * ch * k2 + 2  # projection back to 2 channels
    return xf + cr  # one set of weights, shared by every cascade


def test_parameter_count_matches_hand_audit():
    for cfg in (KtNextConfig(), small_config()):
        sizes = [v.size for v in init_params(cfg, 0).snapshot().values()]
        assert sum(sizes) == count_audit(cfg)
    assert count_audit(KtNextConfig()) == 33828  # pinned so drift is visible


def test_init_params_shapes():
    cfg = KtNextConfig()
    p = init_params(cfg, 0)
    assert p["xfcnn.w0"].value.shape == (16, 4, 3, 3)
    assert p["xfcnn.w4"].value.shape == (2, 16, 3, 3)
    assert p["crnn.i2h0"].value.shape == (16, 2, 3, 3)
    assert p["crnn.h2h3"].value.shape == (16, 16, 3, 3)
    assert p["crnn.out_w"].value.shape == (2, 16, 3, 3)
    assert np.all(p["xfcnn.b0"].value == 0.0)
    assert np.all(p["crnn.bias0"].value == 0.0)


def test_init_params_he_scaled():
    """Every wide kernel's std is within 10% of sqrt(2 / fan_in) for the
    fan-in `_layout` gives it (test_init_params_deterministic covers seeds)."""
    cfg = KtNextConfig(channels=32)
    a = init_params(cfg, 1).snapshot()
    wide = [(name, fan_in) for name, shape, fan_in in km._layout(cfg.channels)
            if fan_in is not None and np.prod(shape) >= 4096]
    assert {name for name, _ in wide} >= {"xfcnn.w1", "crnn.h2h1"}
    for name, fan_in in wide:
        expect_std = np.sqrt(2.0 / fan_in)
        assert abs(a[name].std() - expect_std) < 0.1 * expect_std, name


def test_init_params_keeps_unit_gain_at_overfit_shape():
    """At the overfit benchmark's shape (T=8, 32x32, N=2, ch=8) the untrained
    network must not amplify its zero-filled input: the recurrent kernels'
    three summed convolutions and two summed sweep directions share one
    fan-in.  Counting each kernel's own fan-in instead amplifies it about
    200-fold."""
    gt = generate_phantom(0, 8, 32, 32)
    mask = make_shear_mask(AcquisitionSpec(accel=4, n_center=4), 8, 32)
    cfg = KtNextConfig(n_cascades=2, channels=8)
    meas = undersample(gt, mask)
    sigma = ktnext_forward(meas, init_params(cfg, 0), cfg)[-1]
    gain = np.abs(sigma.data).max() / np.abs(zero_filled(meas).data).max()
    assert gain < 2.0


# --------------------------------------------------------------- x-f CNN


def test_xfcnn_zero_weights_returns_baseline():
    _, _, meas = make_case(1)
    cfg = small_config()
    params = zero_all(init_params(cfg, 1))
    rho, baseline = xfcnn_pass(meas, params)
    assert np.array_equal(rho, baseline)


def test_xfcnn_zero_weights_static_full_mask_recovers_truth():
    frame = generate_phantom(2, 1, 8, 8)
    static = ComplexVolume(np.broadcast_to(frame.data[0], (4, 8, 8)).copy(), Domain.IMAGE)
    mask = make_shear_mask(AcquisitionSpec(accel=1, n_center=0), 4, 8)
    meas = undersample(static, mask)
    cfg = small_config()
    params = zero_all(init_params(cfg, 2))
    rho, _ = xfcnn_pass(meas, params)
    assert np.max(np.abs(rho - fft_t(static).data)) < 1e-12


def test_xfcnn_config_param_mismatch():
    _, _, meas = make_case(3)
    cfg = small_config()
    params = init_params(cfg, 3)
    with pytest.raises(ValueError, match="first de-aliasing layer"):
        ktnext_forward(meas, params, small_config(channels=4))


def test_xfcnn_gradient_check():
    _, _, meas = make_case(4)
    cfg = small_config()
    params = randomize_biases(init_params(cfg, 4), 104)
    residual_arr, baseline_arr = xf_inputs(meas)
    rng = np.random.default_rng(4)
    target = rng.standard_normal(residual_arr.shape) + 1j * rng.standard_normal(residual_arr.shape)

    def build_loss():
        residual = ad.constant(residual_arr)
        base = ad.constant(baseline_arr)
        rho = km._xfcnn_apply(residual, base, params)
        return ad.sumsq_diff(rho, target)

    err, _ = check_gradients(build_loss, leaves(params, "xfcnn."), rng, samples=4)
    assert err < 1e-4


# --------------------------------------------------------------- recurrent block


def test_crnn_zero_weights_is_dc_of_input():
    gt, _, meas = make_case(5)
    cfg = small_config()
    params = zero_all(init_params(cfg, 5))
    rng = np.random.default_rng(5)
    img = ComplexVolume(
        rng.standard_normal(gt.data.shape) + 1j * rng.standard_normal(gt.data.shape),
        Domain.IMAGE,
    )
    out, hidden = crnn_pass(img.data, meas, params, cfg)
    # hard DC: acquired samples replace the prediction's, the rest pass through
    k = np.where(meas.mask.bits[:, None, :] == 1, meas.kspace.data, fft2c(img).data)
    want = ifft2c(ComplexVolume(k, Domain.KSPACE))
    assert np.max(np.abs(out - want.data)) < 1e-12
    assert len(hidden) == 4  # one carry per recurrent layer


def test_crnn_full_mask_recovers_truth_for_any_weights():
    gt = generate_phantom(6, 4, 8, 8)
    mask = make_shear_mask(AcquisitionSpec(accel=1, n_center=0), 4, 8)
    meas = undersample(gt, mask)
    cfg = small_config()
    params = init_params(cfg, 6)
    rng = np.random.default_rng(6)
    img = rng.standard_normal(gt.data.shape) + 1j * rng.standard_normal(gt.data.shape)
    out, _ = crnn_pass(img, meas, params, cfg)
    assert np.max(np.abs(out - gt.data)) < 1e-8


def test_crnn_hidden_carry_changes_output():
    gt, _, meas = make_case(7)
    cfg = small_config()
    params = init_params(cfg, 7)
    _, baseline = xf_inputs(meas)
    img = _ifft1c_arr(baseline, 0)
    out0, hidden = crnn_pass(img, meas, params, cfg)
    out1, _ = crnn_pass(img, meas, params, cfg, hidden)
    # hard DC pins sampled k-space, so compare where the network can act
    assert np.max(np.abs(out0 - out1)) > 1e-8


def test_crnn_apply_consumes_the_hidden_states_it_reads():
    """Without a tape, _crnn_apply sets each entry of the hidden list it is
    given to None as its layer reads it, so no previous-cascade state
    outlives its layer: a weakref to each consumed array is dead once the
    call returns.  The output is bitwise that of a call given a copy."""
    _, _, meas = make_case(7)
    cfg = small_config()
    params = init_params(cfg, 7)
    img = _ifft1c_arr(xf_inputs(meas)[1], 0)
    with ad.no_tape():
        _, hidden = crnn_pass(img, meas, params, cfg)
        want, _ = crnn_pass(img, meas, params, cfg, list(hidden))
        values = [weakref.ref(t.value) for t in hidden]
        got, _ = crnn_pass(img, meas, params, cfg, hidden)
    assert hidden == [None] * km.CRNN_LAYERS
    assert all(value() is None for value in values)
    assert got.tobytes() == want.tobytes()


def test_crnn_gradient_check():
    gt, _, meas = make_case(8, t_frames=3)
    cfg = small_config()
    params = randomize_biases(init_params(cfg, 8), 108)
    rng = np.random.default_rng(8)
    img_arr = rng.standard_normal(gt.data.shape) + 1j * rng.standard_normal(gt.data.shape)
    target = rng.standard_normal(gt.data.shape) + 1j * rng.standard_normal(gt.data.shape)

    k_hybrid = _ifft1c_arr(meas.kspace.data, 1)

    def build_loss():
        img = ad.constant(img_arr)
        sigma, _ = km._crnn_apply(img, k_hybrid, meas.mask.bits, params, cfg, None)
        return ad.sumsq_diff(sigma, target)

    err, _ = check_gradients(build_loss, leaves(params, "crnn."), rng, samples=4)
    assert err < 1e-4


# --------------------------------------------------------------- ktnext_forward


def test_forward_zero_weights_matches_hand_pipeline():
    for seed in range(3):
        _, _, meas = make_case(20 + seed, accel=3, n_center=2)
        cfg = small_config()
        params = zero_all(init_params(cfg, seed))
        inter = ktnext_forward(meas, params, cfg)
        sigma = inter[-1]
        with ad.no_tape():
            rho, _ = km._forward_graph(meas, params, cfg)[-1]
        want_img = ifft2c(baseline_kspace(meas))
        want_xf = fft_t(want_img)
        assert np.max(np.abs(sigma.data - want_img.data)) < 1e-10
        assert np.max(np.abs(rho.value - want_xf.data)) < 1e-10
        for stage in inter:
            assert np.max(np.abs(stage.data - want_img.data)) < 1e-10


def test_forward_n1_equals_manual_unroll():
    _, _, meas = make_case(9)
    cfg = small_config(n_cascades=1)
    params = init_params(cfg, 9)
    inter = ktnext_forward(meas, params, cfg)
    sigma = inter[-1]
    with ad.no_tape():
        rho, _ = km._forward_graph(meas, params, cfg)[-1]
    rho_hand, _ = xfcnn_pass(meas, params)
    sigma_hand, _ = crnn_pass(_ifft1c_arr(rho_hand, 0), meas, params, cfg)
    assert np.max(np.abs(sigma.data - sigma_hand)) < 1e-13
    assert np.max(np.abs(rho.value - rho_hand)) < 1e-13
    assert len(inter) == 1


def test_forward_measurement_consistency_every_cascade():
    gt, mask, meas = make_case(10, accel=4, n_center=2)
    cfg = small_config()
    params = init_params(cfg, 10)
    inter = ktnext_forward(meas, params, cfg)
    sampled = np.broadcast_to(mask.bits[:, None, :] == 1, gt.data.shape)
    for stage in inter:
        k = fft2c(stage)
        assert np.max(np.abs(k.data[sampled] - meas.kspace.data[sampled])) < 1e-8


def test_forward_full_mask_fixed_point_any_weights():
    gt = generate_phantom(11, 4, 8, 8)
    mask = make_shear_mask(AcquisitionSpec(accel=1, n_center=0), 4, 8)
    meas = undersample(gt, mask)
    cfg = small_config()
    params = init_params(cfg, 11)
    sigma = ktnext_forward(meas, params, cfg)[-1]
    assert np.max(np.abs(sigma.data - gt.data)) < 1e-8


def test_forward_intermediate_structure():
    _, _, meas = make_case(12)
    cfg = small_config(n_cascades=3)
    params = init_params(cfg, 12)
    inter = ktnext_forward(meas, params, cfg)
    with ad.no_tape():
        traces = km._forward_graph(meas, params, cfg)
    assert len(inter) == len(traces) == 3
    for stage, (rho, sigma) in zip(inter, traces):
        assert np.array_equal(stage.data, sigma.value)
        assert stage.domain is Domain.IMAGE
        assert rho.value.shape == sigma.value.shape


def test_forward_records_no_tape(monkeypatch):
    """ktnext_forward returns _forward_graph's values bit for bit, records no
    graph, and leaves every parameter's gradient unset."""
    _, _, meas = make_case(13)
    cfg = small_config(n_cascades=3)
    params = init_params(cfg, 13)
    with ad.no_tape():
        traces = km._forward_graph(meas, params, cfg)
    real, built = km._forward_graph, []

    def spy(*args):
        out = real(*args)
        built.extend(out)
        return out

    monkeypatch.setattr(km, "_forward_graph", spy)
    inter = ktnext_forward(meas, params, cfg)
    assert len(inter) == len(traces) == 3
    for stage, (rho, sigma), (rho_seen, _) in zip(inter, traces, built):
        assert np.array_equal(rho_seen.value, rho.value)
        assert np.array_equal(stage.data, sigma.value)
    assert len(built) == 3
    for rho, sigma in built:
        for t in (rho, sigma):
            assert t.node.parents == () and t.vjp is None and not t.needs_grad
    assert all(t.grad is None for _, t in params.items())


def test_each_cascade_makes_four_fft_passes(monkeypatch):
    """One more cascade costs exactly four more 1-D FFT calls: the x-f
    residual's fft_t, the ifft_t back to image space, and the x-pass and its
    inverse inside the data-consistency node.  On top of those, each
    sequence makes six: F_y^-1 of the data and of the average, then an
    x-pass each for the zero-filled start and the average's image, and an
    x-pass and a t-pass for the x-f baseline."""
    _, _, meas = make_case(16)
    calls = []

    def counting(fn):
        def wrapper(*args, **kwargs):
            calls.append(fn.__name__)
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(np.fft, "fft", counting(np.fft.fft))
    monkeypatch.setattr(np.fft, "ifft", counting(np.fft.ifft))
    counts = []
    for n in (1, 2):
        cfg = small_config(n_cascades=n)
        params = init_params(cfg, 16)
        calls.clear()
        ktnext_forward(meas, params, cfg)
        counts.append(len(calls))
    assert counts[1] - counts[0] == 4
    assert counts == [10, 14]


def test_forward_hidden_carry_toggle_matters():
    """N=2 equals a manual unroll that hands cascade 1's hidden states to
    cascade 2, and differs from one that starts cascade 2 afresh."""
    _, _, meas = make_case(14)
    cfg = small_config()
    params = init_params(cfg, 14)
    with ad.no_tape():
        rho, sigma = km._forward_graph(meas, params, cfg)[-1]
    rho1, baseline = xfcnn_pass(meas, params)
    sigma1, hidden1 = crnn_pass(_ifft1c_arr(rho1, 0), meas, params, cfg)
    residual2 = km._xf_residual(ad.constant(sigma1), average_image(kspace_temporal_average(meas)))
    rho2 = km._xfcnn_apply(residual2, ad.constant(baseline), params).value
    img2 = _ifft1c_arr(rho2, 0)
    carried, _ = crnn_pass(img2, meas, params, cfg, hidden1)
    fresh, _ = crnn_pass(img2, meas, params, cfg)
    assert np.max(np.abs(rho.value - rho2)) < 1e-13
    assert np.max(np.abs(sigma.value - carried)) < 1e-13
    assert np.max(np.abs(sigma.value - fresh)) > 1e-10


def test_full_model_gradient_check():
    gt, _, meas = make_case(15)
    cfg = small_config()
    params = randomize_biases(init_params(cfg, 15), 115)
    rho_gt = fft_t(gt)

    def build_loss():
        rho_T, sigma_T = km._forward_graph(meas, params, cfg)[-1]
        return ad.add(ad.sumsq_diff(sigma_T, gt.data), ad.sumsq_diff(rho_T, rho_gt.data))

    rng = np.random.default_rng(15)
    err, _ = check_gradients(build_loss, leaves(params), rng, samples=2)
    assert err < 1e-4


# --------------------------------------------------------------- precision


def as_float32(params, cfg):
    """The store every forward and training step runs: the same records, cast to float32."""
    return km.float32_params(params.snapshot(), cfg, "weights")


def tape_nodes(*outputs):
    """Every node the outputs' tape reaches, leaves included."""
    seen, stack, nodes = set(), [t.node for t in outputs], []
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            nodes.append(node)
            stack.extend(node.parents)
    return nodes


def record_ops(monkeypatch):
    """Wrap every op in `autodiff.__all__`; the list returned keeps each op's
    output tensor, since the tape's nodes hold no values."""
    made = []

    def recording(op):
        def wrapper(*args, **kwargs):
            made.append(op(*args, **kwargs))
            return made[-1]
        return wrapper

    for name in set(ad.__all__) - {"Tensor", "backward", "no_tape"}:
        monkeypatch.setattr(ad, name, recording(getattr(ad, name)))
    return made


def graph_dtypes(made, *outputs):
    """The value dtypes of every node the outputs' tape reaches, each read
    off the recorded op output that node belongs to."""
    dtypes = {id(t.node): t.value.dtype for t in made}
    nodes = tape_nodes(*outputs)
    assert all(id(node) in dtypes for node in nodes)
    return {dtypes[id(node)] for node in nodes}


@pytest.mark.parametrize("lam", [math.inf, 0.5])
@pytest.mark.parametrize("single", [True, False])
def test_graph_computes_in_the_weights_dtype(single, lam, monkeypatch):
    """Float32 weights give a graph of float32 and complex64 nodes alone, and
    float64 weights one of float64 and complex128 alone: no op up- or
    downcasts, soft or hard data consistency alike."""
    made = record_ops(monkeypatch)
    _, _, meas = make_case(17)
    cfg = small_config(dc_lambda=lam)
    params = init_params(cfg, 17)
    if single:
        params = as_float32(params, cfg)
    rho, sigma = km._forward_graph(meas, params, cfg)[-1]
    want = (np.float32, np.complex64) if single else (np.float64, np.complex128)
    assert graph_dtypes(made, sigma, rho) == {np.dtype(d) for d in want}


def criterion8_case():
    """Phantom 0 on the criterion-8 shape (T=8, 32x32, N=2, ch=8), as
    (ground truth, its criterion-8 mask's measurement, config, init-seed-0 weights)."""
    gt = generate_phantom(0, 8, 32, 32)
    mask = make_shear_mask(AcquisitionSpec(accel=4, n_center=4), 8, 32)
    cfg = KtNextConfig(n_cascades=2, channels=8)
    return gt, undersample(gt, mask), cfg, init_params(cfg, 0)


def test_training_step_tape_node_count():
    """One training step at the criterion-8 shape (T=8, 32x32, N=2, ch=8)
    reaches 97 tape nodes from its loss: the 28 parameters, two constants
    (the zero-filled start and the x-f baseline) and 67 ops, each cascade's
    data consistency among them as one node.  README quotes the total."""
    gt, meas, cfg, params = criterion8_case()
    rho, sigma = km._forward_graph(meas, params, cfg)[-1]
    nodes = tape_nodes(km._loss_node(sigma, rho, gt.data, fft_t(gt).data))
    leaves = [node for node in nodes if node.vjp is None]
    assert len(nodes) == 97
    assert sum(node.needs_grad for node in leaves) == 28 and len(leaves) == 30


def test_training_step_traced_peak_is_bounded():
    """One float32 training step at the criterion-8 shape, forward, loss and
    backward, peaks under 14 MB of traced allocations.  The tape keeps only
    what each vjp reads: 11.5 MB measured, against 27.5 MB when every node
    held its value and conv2d's vjp its zero-padded input."""
    gt, meas, cfg, params = criterion8_case()
    params, rho_gt = as_float32(params, cfg), fft_t(gt).data
    tracemalloc.start()
    try:
        rho, sigma = km._forward_graph(meas, params, cfg)[-1]
        ad.backward(km._loss_node(sigma, rho, gt.data, rho_gt))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 14 * 2**20, f"{peak / 2**20:.1f} MB"


@pytest.mark.parametrize("lam", [math.inf, 0.5])
@pytest.mark.parametrize("shape", [(2, 8, 32), (1, 4, 16)])
def test_fit_float32_gradient_matches_float64_backward(shape, lam, monkeypatch):
    """The gradient `fit` steps with, the float32 backward on float32 copies
    of the weights, is within 3e-3 relative L2 of the float64 backward per
    leaf, at the criterion-8 shape and a smaller one (N, ch, size), over
    three seeds.  Measured worst, both at seed 0 on the criterion-8 shape:
    1.2e-3 under hard DC and 7.2e-4 at lambda 0.5, in `crnn.bias0`; every
    other case read below 2e-6.  Under hard DC `crnn.out_b`'s exact
    gradient is zero (every frame samples the k-space centre), so its
    norms are bounded absolutely: measured at most 5.1e-15 in float64 and
    2.1e-6 in float32.  N=1 leaves the ih2ih kernels with no gradient on
    either side."""
    n, ch, size = shape
    cfg = KtNextConfig(n_cascades=n, channels=ch, dc_lambda=lam)
    mask = make_shear_mask(AcquisitionSpec(accel=4, n_center=4), 8, size)
    stepped, adam_step = [], km.adam_step

    def spy_adam_step(store, state, lr, grads):
        stepped.append({name: t.grad for name, t in grads.items()})
        adam_step(store, state, lr, grads)

    monkeypatch.setattr(km, "adam_step", spy_adam_step)
    for seed in range(3):
        img = generate_phantom(seed, 8, size, size)
        fit([img], mask, cfg, steps=1, seed=seed)
        params = init_params(cfg, seed)  # fit's draw from the same seed
        rho, sigma = km._forward_graph(undersample(img, mask), params, cfg)[-1]
        ad.backward(km._loss_node(sigma, rho, img.data, fft_t(img).data))
        got = stepped.pop()
        for name, t in params.items():
            g32, g64 = got[name], t.grad
            assert (g32 is None) == (g64 is None) == (n == 1 and "ih2ih" in name), name
            if g64 is None:
                continue
            assert g32.dtype == np.float32, name
            if lam == math.inf and name == "crnn.out_b":
                assert np.linalg.norm(g64) < 1e-13 and np.linalg.norm(g32) < 2e-5
            else:
                err = np.linalg.norm(g32 - g64) / np.linalg.norm(g64)
                assert err < 3e-3, (seed, name, err)


def out_b_after_fit(lam, mask):
    """crnn.out_b after three `fit` steps at lr 1e-3 (T=8, 16x16, N=1, ch=4)."""
    cfg = KtNextConfig(n_cascades=1, channels=4, dc_lambda=lam)
    img = generate_phantom(3, 8, 16, 16)
    params, _ = fit([img], mask, cfg, steps=3, seed=3, lr=1e-3)
    return params["crnn.out_b"].value


def test_out_b_stays_zero_under_hard_dc():
    """Under hard DC with the k-space centre column sampled in every frame,
    out_b's exact gradient is zero, so fit leaves it at its init value of 0,
    bit for bit, where ADAM would turn float32 roundoff into steps of lr."""
    mask = make_shear_mask(AcquisitionSpec(accel=4, n_center=4), 8, 16)
    assert mask.bits[:, 8].all()
    got = out_b_after_fit(math.inf, mask)
    assert got.tobytes() == np.zeros(2).tobytes()


def test_out_b_trains_under_soft_dc_or_a_frame_without_the_centre():
    """At lambda 0.5, or under hard DC with one frame lacking the centre
    column, out_b acts on the image and trains."""
    mask = make_shear_mask(AcquisitionSpec(accel=4, n_center=4), 8, 16)
    assert np.abs(out_b_after_fit(0.5, mask)).min() > 1e-4
    bits = mask.bits.copy()
    bits[5, 8] = 0
    assert np.abs(out_b_after_fit(math.inf, SamplingMask(bits))).min() > 1e-4


def test_float32_backward_keeps_each_leaf_dtype():
    """Every vjp allocates in the dtype of the values it pairs with, and the
    loss casts its targets to the graph's dtype, so a backward through a
    float32 graph against complex128 ground truth, as `fit` passes it,
    leaves float32 gradients on all 28 leaves, the conv and recurrent
    kernels included."""
    gt, _, meas = make_case(18)
    cfg = small_config()
    params = as_float32(init_params(cfg, 18), cfg)
    rho, sigma = km._forward_graph(meas, params, cfg)[-1]
    loss = km._loss_node(sigma, rho, gt.data, fft_t(gt).data)
    assert loss.value.dtype == np.float32
    ad.backward(loss)
    assert len(params.items()) == 28
    for name, t in params.items():
        assert t.grad is not None and t.grad.dtype == np.float32, name


def test_float32_params_names_the_record_beyond_float32():
    cfg = small_config()
    records = init_params(cfg, 19).snapshot()
    records["crnn.bias2"][1] = -1e39
    with pytest.raises(FloatingPointError, match=r"^step 3: record 'crnn.bias2' overflows"):
        km.float32_params(records, cfg, "step 3")


# name: (n_cascades, channels, size), the benchmark's three workload shapes
WORKLOAD_SHAPES = {"train_c8": (2, 8, 32), "eval_wide": (4, 16, 64), "eval_toy": (1, 4, 32)}


def workload_case(name):
    n, ch, size = WORKLOAD_SHAPES[name]
    cfg = KtNextConfig(n_cascades=n, channels=ch)
    _, _, meas = make_case(5, t_frames=8, rows=size, cols=size, accel=4, n_center=4)
    return meas, init_params(cfg, 5), cfg


def test_inference_forward_traced_peak_is_bounded():
    """A float32 forward at the `eval_wide` shape (T=8, 64x64, N=4, ch=16)
    peaks under 21 MB of traced allocations: 18.9 MB measured, against
    25.9 MB when each sweep kept every state and each cascade held all of
    the previous one's hidden states to its end.  The peak is now the x-f
    CNN's conv2d, on top of the four hidden states it carries."""
    meas, params, cfg = workload_case("eval_wide")
    params = as_float32(params, cfg)
    tracemalloc.start()
    try:
        km.ktnext_forward(meas, params, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 21 * 2**20, f"{peak / 2**20:.1f} MB"


@pytest.mark.parametrize("name", ["train_c8", "eval_toy"])
def test_float32_forward_matches_float64(name):
    """The float32 forward is the float64 one to within 1e-5 of each output's
    peak, at every cascade (measured: under 1e-6)."""
    meas, params, cfg = workload_case(name)
    with ad.no_tape():
        double = km._forward_graph(meas, params, cfg)
        single = km._forward_graph(meas, as_float32(params, cfg), cfg)
    for d, s in zip(double, single):
        for want, got in zip(d, s):
            assert np.abs(got.value - want.value).max() <= 1e-5 * np.abs(want.value).max()


# sha256 of the float64 forward's final (sigma, rho) at each workload shape,
# with OpenBLAS 0.3.31 and numpy 2.4 on x86-64; a BLAS that rounds the
# fingerprint below differently may round the forward differently too
FORWARD_SHA256 = {
    "eval_toy": ("27a577c3677dea3910d76d7a95ffcd48742191232454073c5276907dca8e36de",
                 "4a9382f193e9ab010c98a98d96952b968c56dfeb0d442c7b4b64468d54550b63"),
    "eval_wide": ("003b7a41d6b7818508bb7fb10bb900df3f1bc0e3b674b391ca0dc3cd700312e3",
                  "d6bd25912dc4f22401bd17d4b49265bdc36cda37dacfdfb197eb05c363bb5873"),
    "train_c8": ("752d7bea3cb36ba372e50ddf142f59296d1cf70cef257abb0dc664ac57b1fe25",
                 "09525a14099039e1b92a980bccf560e3b928a44376d14f0767ebea245c8ded2d"),
}
BLAS_FINGERPRINT = "5ecf398687693443"


def blas_fingerprint():
    """sha256 prefix of one tap-shaped GEMM (16 x 16 channels over a block's
    width of columns) and one FFT on fixed inputs.  The forward's own GEMMs
    have this shape, and like them it rounds alike at any BLAS thread count."""
    rng = np.random.default_rng(0)
    a, b = rng.standard_normal((16, 16)), rng.standard_normal((16, 3075))
    z = rng.standard_normal((8, 64)) + 1j * rng.standard_normal((8, 64))
    return hashlib.sha256((a @ b).tobytes() + np.fft.fft(z, axis=0).tobytes()).hexdigest()[:16]


def pin_report(name, got, want):
    """What moved against the pinned sha256 table `name`: each changed,
    missing and new key, then the table as it now reads, as the Python
    literal to paste once the move is reviewed."""
    moved = [f"{kind} {', '.join(keys)}" for kind, keys in (
        ("changed:", sorted(k for k in got.keys() & want.keys() if got[k] != want[k])),
        ("missing:", sorted(want.keys() - got.keys())),
        ("new:", sorted(got.keys() - want.keys()))) if keys]
    lines = []
    for key, value in sorted(got.items()):
        if isinstance(value, str):
            lines.append(f"    {json.dumps(key)}:\n        {json.dumps(value)},")
        else:
            head = f"    {json.dumps(key)}: ("
            lines.append(head + f",\n{' ' * len(head)}".join(map(json.dumps, value)) + "),")
    return "\n".join([f"{name} moved; " + "; ".join(moved), f"{name} = {{", *lines, "}"])


def forward_pins(name):
    """sha256 of the float64 forward's final (sigma, rho) at a workload shape."""
    meas, params, cfg = workload_case(name)
    with ad.no_tape():
        rho, sigma = km._forward_graph(meas, params, cfg)[-1]
    return tuple(hashlib.sha256(v.value.tobytes()).hexdigest() for v in (sigma, rho))


@pytest.mark.parametrize("name", sorted(WORKLOAD_SHAPES))
def test_float64_forward_bits_are_pinned(name):
    """The float64 forward keeps its bits: float32 inference must not move
    the precision training and the oracle tests run in.  On a mismatch the
    message names what moved and prints the table as it now reads."""
    if blas_fingerprint() != BLAS_FINGERPRINT:
        pytest.skip("the pins were taken with a BLAS that rounds differently")
    got = forward_pins(name)
    assert got == FORWARD_SHA256[name], pin_report(
        "FORWARD_SHA256", {n: forward_pins(n) for n in WORKLOAD_SHAPES}, FORWARD_SHA256)


# --------------------------------------------------------------- joint loss


def test_joint_loss_identical_is_zero():
    gt, _, _ = make_case(16)
    rho = fft_t(gt).data
    assert loss_value(gt.data, rho, gt.data, rho) == 0.0


def test_joint_loss_single_voxel():
    gt, _, _ = make_case(17)
    rho = fft_t(gt).data
    bumped = gt.data.copy()
    bumped[1, 2, 3] += 1.0
    loss = loss_value(bumped, rho, gt.data, rho)
    assert abs(loss - 1.0) < 1e-12


def test_joint_loss_matches_double_loop_oracle():
    rng = np.random.default_rng(19)
    shape = (3, 8, 8)

    def rand_arr():
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    sp, sg = rand_arr(), rand_arr()
    rp, rg = rand_arr(), rand_arr()
    want = 0.0
    for t in range(3):
        for y in range(8):
            for x in range(8):
                want += abs(sp[t, y, x] - sg[t, y, x]) ** 2
                want += abs(rp[t, y, x] - rg[t, y, x]) ** 2
    assert abs(loss_value(sp, rp, sg, rg) - want) < 1e-12


# --------------------------------------------------------------- fit


def fit_setup(seed, n_seq=2, t_frames=4, rows=8, cols=8, accel=2):
    dataset = [generate_phantom(seed + i, t_frames, rows, cols) for i in range(n_seq)]
    mask = make_shear_mask(AcquisitionSpec(accel=accel, n_center=2), t_frames, cols)
    return dataset, mask


def test_fit_deterministic_and_history_shape():
    dataset, mask = fit_setup(30)
    cfg = small_config()
    p1, h1 = fit(dataset, mask, cfg, steps=4, seed=123)
    p2, h2 = fit(dataset, mask, cfg, steps=4, seed=123)
    assert [r.step for r in h1] == [1, 2, 3, 4]
    assert all(np.isfinite(r.loss) and r.loss >= 0.0 for r in h1)
    assert all(np.isfinite(r.psnr_train) for r in h1)
    assert [(r.step, r.loss, r.psnr_train) for r in h1] == [
        (r.step, r.loss, r.psnr_train) for r in h2
    ]
    s1, s2 = p1.snapshot(), p2.snapshot()
    assert s1.keys() == s2.keys()
    for name in s1:
        assert np.array_equal(s1[name], s2[name])


def test_fit_empty_dataset_raises():
    _, mask = fit_setup(32)
    with pytest.raises(ValueError):
        fit([], mask, small_config(), steps=1, seed=0)


def test_fit_steps_in_float32_against_float64_masters(monkeypatch):
    """Each step's graph is float32/complex64 alone, ADAM reads float32
    gradients into float64 moments, and the returned store is float64."""
    dataset, mask = fit_setup(31)
    cfg = small_config()
    made = record_ops(monkeypatch)
    step_dtypes, adam_calls = set(), []
    backward, adam_step = ad.backward, km.adam_step

    def spy_backward(loss):
        step_dtypes.update(graph_dtypes(made, loss))
        backward(loss)

    def spy_adam_step(store, state, lr, grads):
        adam_calls.append(({t.grad.dtype for _, t in grads.items()}, state))
        adam_step(store, state, lr, grads)

    monkeypatch.setattr(ad, "backward", spy_backward)
    monkeypatch.setattr(km, "adam_step", spy_adam_step)
    params, _ = fit(dataset, mask, cfg, steps=2, seed=5)
    assert step_dtypes == {np.dtype(np.float32), np.dtype(np.complex64)}
    assert len(adam_calls) == 2
    for grad_dtypes, state in adam_calls:
        assert grad_dtypes == {np.dtype(np.float32)}
        moments = [*state.m.values(), *state.v.values()]
        assert {a.dtype for a in moments} == {np.dtype(np.float64)}
    assert {t.value.dtype for _, t in params.items()} == {np.dtype(np.float64)}


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_fit_nonfinite_loss_aborts_with_step():
    dataset, mask = fit_setup(33)
    # a phantom scaled by 1e200 squares past float64's range in the loss
    overflowing = [ComplexVolume(img.data * 1e200, Domain.IMAGE) for img in dataset]
    with pytest.raises(NonFiniteLossError, match="step 1"):
        fit(overflowing, mask, small_config(), steps=3, seed=0)


# --------------------------------------------------------------- checkpoints


def test_save_load_params_roundtrip(tmp_path):
    cfg = small_config()
    params = init_params(cfg, 40)
    path = tmp_path / "weights.ktnp"
    save_params(path, params)
    loaded = load_params(path, cfg)
    a, b = params.snapshot(), loaded.snapshot()
    assert a.keys() == b.keys()
    for name in a:
        assert np.array_equal(a[name], b[name])


def test_load_params_config_mismatch(tmp_path):
    cfg = small_config()
    path = tmp_path / "weights.ktnp"
    save_params(path, init_params(cfg, 41))
    with pytest.raises(ValueError):
        load_params(path, small_config(channels=5))



# Record names and shapes a KtNextConfig(n_cascades=2, channels=8) checkpoint
# has always carried, written out so a change to the naming shows up here.
_OLD_RECORDS = [
    ("xfcnn.w0", (8, 4, 3, 3)), ("xfcnn.b0", (8,)),
    ("xfcnn.w1", (8, 8, 3, 3)), ("xfcnn.b1", (8,)),
    ("xfcnn.w2", (8, 8, 3, 3)), ("xfcnn.b2", (8,)),
    ("xfcnn.w3", (8, 8, 3, 3)), ("xfcnn.b3", (8,)),
    ("xfcnn.w4", (2, 8, 3, 3)), ("xfcnn.b4", (2,)),
    ("crnn.i2h0", (8, 2, 3, 3)), ("crnn.h2h0", (8, 8, 3, 3)),
    ("crnn.ih2ih0", (8, 8, 3, 3)), ("crnn.bias0", (8,)),
    ("crnn.i2h1", (8, 8, 3, 3)), ("crnn.h2h1", (8, 8, 3, 3)),
    ("crnn.ih2ih1", (8, 8, 3, 3)), ("crnn.bias1", (8,)),
    ("crnn.i2h2", (8, 8, 3, 3)), ("crnn.h2h2", (8, 8, 3, 3)),
    ("crnn.ih2ih2", (8, 8, 3, 3)), ("crnn.bias2", (8,)),
    ("crnn.i2h3", (8, 8, 3, 3)), ("crnn.h2h3", (8, 8, 3, 3)),
    ("crnn.ih2ih3", (8, 8, 3, 3)), ("crnn.bias3", (8,)),
    ("crnn.out_w", (2, 8, 3, 3)), ("crnn.out_b", (2,)),
]


def test_load_params_reads_old_checkpoint(tmp_path):
    rng = np.random.default_rng(42)
    records = {name: rng.standard_normal(shape) for name, shape in _OLD_RECORDS}
    path = tmp_path / "old.ktnp"
    save_checkpoint(path, records)
    loaded = load_params(path, KtNextConfig(n_cascades=2, channels=8)).snapshot()
    assert list(loaded) == [name for name, _ in _OLD_RECORDS]
    for name, value in records.items():
        assert np.array_equal(loaded[name], value)


def test_load_params_names_a_wrong_shaped_record(tmp_path):
    """A record other than xfcnn.w0 with the wrong shape is named with its prefix."""
    cfg = small_config()
    records = init_params(cfg, 43).snapshot()
    records["crnn.h2h2"] = np.zeros((3, 3, 3, 1))
    path = tmp_path / "w.ktnp"
    save_checkpoint(path, records)
    with pytest.raises(ValueError, match=r"crnn\.h2h2 has shape \(3, 3, 3, 1\)"):
        load_params(path, cfg)


PERFBENCH_CHECKPOINT_SHA256 = {
    "train_c8": "533e44a9dac9aa46df678bc55256bc560169f5fd6187a67d47a9c8ff98865daf",
    "eval_wide": "3bfd5acf35c2a6bb114b88603e2a47fe03b84d216d9459cfb20aa2455a5a7c49",
    "eval_toy": "7b38307fa9dc48f745b9941361e4e570b316c6ff94d3256e8f52dc0aa30d3a35",
}


def test_perfbench_writes_checkpoints_the_model_loads(tmp_path, monkeypatch):
    """The benchmark builds each workload's checkpoint from init_params'
    store and reads it back with load_params: that API must keep working,
    and the checkpoint bytes the benchmark measures must not move."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
    import workloads

    for w in workloads.WORKLOADS.values():
        path = tmp_path / f"{w.name}.ktnp"
        workloads.write_checkpoint(w, 3, path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == PERFBENCH_CHECKPOINT_SHA256[w.name]
        values = load_params(path, workloads.config_of(w)).snapshot().values()
        assert len(values) == 28
        assert all(np.isfinite(v).all() for v in values)
