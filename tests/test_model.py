"""End-to-end model: cascade assembly, collapse identities, gradients, training."""

from dataclasses import fields

import numpy as np
import pytest

from ktnext import autodiff as ad
from ktnext import model as km
from ktnext.model import (
    KtNextConfig,
    KtNextParams,
    NonFiniteLossError,
    fit,
    init_params,
    ktnext_forward,
    load_params,
    parameter_count,
    save_params,
)
from ktnext.network import save_checkpoint
from ktnext.sampling import (
    AcquisitionSpec,
    generate_phantom,
    make_shear_mask,
    undersample,
    zero_filled,
)
from ktnext.volume import ComplexVolume, Domain, fft2c, fft_t, ifft2c, ifft_t
from ktnext.xf import dc_baseline_kspace, kspace_temporal_average


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
    residual = km._xf_residual(ad.constant(zero_filled(meas).data), avg).value
    baseline = fft_t(ifft2c(dc_baseline_kspace(avg, meas))).data
    return residual, baseline


def xfcnn_pass(meas, params):
    """One de-aliasing pass on the zero-filled estimate: (rho, baseline)."""
    residual, baseline = xf_inputs(meas)
    rho = km._xfcnn_apply(ad.constant(residual), ad.constant(baseline), params.xfcnn)
    return rho.value, baseline


def crnn_pass(img, meas, params, cfg, hidden=None):
    """One recurrent refinement with data consistency: (sigma, hidden states)."""
    sigma, new_hidden = km._crnn_apply(ad.constant(img), meas, params.crnn, cfg, hidden)
    return sigma.value, new_hidden


def loss_value(sigma, rho, sigma_gt, rho_gt):
    """Value of the training loss node for final estimates given as arrays."""
    return float(km._loss_node(ad.constant(sigma), ad.constant(rho), sigma_gt, rho_gt).value)


def zero_all(params: KtNextParams):
    for store in params.stores():
        store.set_values({name: np.zeros_like(t.value) for name, t in store.items()})
    return params


def randomize_biases(params: KtNextParams, seed):
    """Move biases off zero so no ReLU input sits at the kink during FD probes."""
    rng = np.random.default_rng(seed)
    for store in params.stores():
        store.set_values(
            {
                name: 0.1 * rng.standard_normal(t.value.shape) if t.value.ndim == 1 else t.value
                for name, t in store.items()
            }
        )
    return params


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
    for sa, sb in zip(a.stores(), b.stores()):
        for name in sa.names():
            assert np.array_equal(sa[name].value, sb[name].value)
    assert any(
        not np.array_equal(sa[name].value, sc[name].value)
        for sa, sc in zip(a.stores(), c.stores())
        for name in sa.names()
    )


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
        assert parameter_count(init_params(cfg, 0)) == count_audit(cfg)
    assert count_audit(KtNextConfig()) == 33828  # pinned so drift is visible


def test_init_params_shapes():
    cfg = KtNextConfig()
    p = init_params(cfg, 0)
    assert p.xfcnn["w0"].value.shape == (16, 4, 3, 3)
    assert p.xfcnn["w4"].value.shape == (2, 16, 3, 3)
    assert p.crnn["i2h0"].value.shape == (16, 2, 3, 3)
    assert p.crnn["h2h3"].value.shape == (16, 16, 3, 3)
    assert p.crnn["out_w"].value.shape == (2, 16, 3, 3)
    assert np.all(p.xfcnn["b0"].value == 0.0)
    assert np.all(p.crnn["bias0"].value == 0.0)


def test_init_params_keeps_unit_gain_at_overfit_shape():
    """At the overfit benchmark's shape (T=8, 32x32, N=2, ch=8) the untrained
    network must not amplify its zero-filled input: the recurrent kernels'
    three summed convolutions and two summed sweep directions share one
    fan-in.  Counting each kernel's own fan-in instead amplifies it about
    200-fold."""
    gt = generate_phantom(0, 8, 32, 32)
    mask = make_shear_mask(AcquisitionSpec(accel=4, n_center=4, pe_lines=32), 8, 32)
    cfg = KtNextConfig(n_cascades=2, channels=8)
    meas = undersample(gt, mask)
    sigma, _, _ = ktnext_forward(meas, init_params(cfg, 0), cfg)
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
        rho = km._xfcnn_apply(residual, base, params.xfcnn)
        return ad.sumsq_diff(rho, target)

    from ktnext.network import check_gradients

    err = check_gradients(build_loss, list(params.xfcnn.tensors()), rng, samples=4)
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
    img = ifft_t(ComplexVolume(baseline, Domain.XF)).data
    out0, hidden = crnn_pass(img, meas, params, cfg)
    out1, _ = crnn_pass(img, meas, params, cfg, hidden)
    # hard DC pins sampled k-space, so compare where the network can act
    assert np.max(np.abs(out0 - out1)) > 1e-8


def test_crnn_gradient_check():
    gt, _, meas = make_case(8, t_frames=3)
    cfg = small_config()
    params = randomize_biases(init_params(cfg, 8), 108)
    rng = np.random.default_rng(8)
    img_arr = rng.standard_normal(gt.data.shape) + 1j * rng.standard_normal(gt.data.shape)
    target = rng.standard_normal(gt.data.shape) + 1j * rng.standard_normal(gt.data.shape)

    def build_loss():
        img = ad.constant(img_arr)
        sigma, _ = km._crnn_apply(img, meas, params.crnn, cfg, None)
        return ad.sumsq_diff(sigma, target)

    from ktnext.network import check_gradients

    err = check_gradients(build_loss, list(params.crnn.tensors()), rng, samples=4)
    assert err < 1e-4


# --------------------------------------------------------------- ktnext_forward


def test_forward_zero_weights_matches_hand_pipeline():
    for seed in range(3):
        _, _, meas = make_case(20 + seed, accel=3, n_center=2)
        cfg = small_config()
        params = zero_all(init_params(cfg, seed))
        sigma, rho, inter = ktnext_forward(meas, params, cfg)
        baseline_k = dc_baseline_kspace(kspace_temporal_average(meas), meas)
        want_img = ifft2c(baseline_k)
        want_xf = fft_t(want_img)
        assert np.max(np.abs(sigma.data - want_img.data)) < 1e-10
        assert np.max(np.abs(rho.data - want_xf.data)) < 1e-10
        for stage in inter:
            assert np.max(np.abs(stage.sigma.data - want_img.data)) < 1e-10


def test_forward_n1_equals_manual_unroll():
    _, _, meas = make_case(9)
    cfg = small_config(n_cascades=1)
    params = init_params(cfg, 9)
    sigma, rho, inter = ktnext_forward(meas, params, cfg)
    rho_hand, _ = xfcnn_pass(meas, params)
    sigma_hand, _ = crnn_pass(ifft_t(ComplexVolume(rho_hand, Domain.XF)).data, meas, params, cfg)
    assert np.max(np.abs(sigma.data - sigma_hand)) < 1e-13
    assert np.max(np.abs(rho.data - rho_hand)) < 1e-13
    assert len(inter) == 1


def test_forward_measurement_consistency_every_cascade():
    gt, mask, meas = make_case(10, accel=4, n_center=2)
    cfg = small_config()
    params = init_params(cfg, 10)
    _, _, inter = ktnext_forward(meas, params, cfg)
    sampled = np.broadcast_to(mask.bits[:, None, :] == 1, gt.data.shape)
    for stage in inter:
        k = fft2c(stage.sigma)
        assert np.max(np.abs(k.data[sampled] - meas.kspace.data[sampled])) < 1e-8


def test_forward_full_mask_fixed_point_any_weights():
    gt = generate_phantom(11, 4, 8, 8)
    mask = make_shear_mask(AcquisitionSpec(accel=1, n_center=0), 4, 8)
    meas = undersample(gt, mask)
    cfg = small_config()
    params = init_params(cfg, 11)
    sigma, _, _ = ktnext_forward(meas, params, cfg)
    assert np.max(np.abs(sigma.data - gt.data)) < 1e-8


def test_forward_intermediate_structure():
    _, _, meas = make_case(12)
    cfg = small_config(n_cascades=3)
    params = init_params(cfg, 12)
    sigma, rho, inter = ktnext_forward(meas, params, cfg)
    assert len(inter) == 3
    assert np.array_equal(inter[-1].sigma.data, sigma.data)
    assert np.array_equal(inter[-1].rho.data, rho.data)
    for stage in inter:
        assert stage.sigma.domain is Domain.IMAGE
        assert stage.rho.domain is Domain.XF


def test_forward_records_no_tape(monkeypatch):
    """ktnext_forward returns _forward_graph's values bit for bit, records no
    graph, and leaves every parameter's gradient unset."""
    _, _, meas = make_case(13)
    cfg = small_config(n_cascades=3)
    params = init_params(cfg, 13)
    _, _, traces = km._forward_graph(meas, params, cfg)
    real, built = km._forward_graph, []

    def spy(*args):
        out = real(*args)
        built.extend(out[2])
        return out

    monkeypatch.setattr(km, "_forward_graph", spy)
    _, _, inter = ktnext_forward(meas, params, cfg)
    assert len(inter) == len(traces) == 3
    for stage, (rho, sigma) in zip(inter, traces):
        assert np.array_equal(stage.rho.data, rho.value)
        assert np.array_equal(stage.sigma.data, sigma.value)
    assert len(built) == 3
    for rho, sigma in built:
        for node in (rho, sigma):
            assert node.parents == () and node.vjp is None and not node.needs_grad
    for store in params.stores():
        assert all(t.grad is None for t in store.tensors())


def test_forward_hidden_carry_toggle_matters():
    """N=2 equals a manual unroll that hands cascade 1's hidden states to
    cascade 2, and differs from one that starts cascade 2 afresh."""
    _, _, meas = make_case(14)
    cfg = small_config()
    params = init_params(cfg, 14)
    sigma, rho, _ = ktnext_forward(meas, params, cfg)
    rho1, baseline = xfcnn_pass(meas, params)
    sigma1, hidden1 = crnn_pass(ifft_t(ComplexVolume(rho1, Domain.XF)).data, meas, params, cfg)
    residual2 = km._xf_residual(ad.constant(sigma1), kspace_temporal_average(meas))
    rho2 = km._xfcnn_apply(residual2, ad.constant(baseline), params.xfcnn).value
    img2 = ifft_t(ComplexVolume(rho2, Domain.XF)).data
    carried, _ = crnn_pass(img2, meas, params, cfg, hidden1)
    fresh, _ = crnn_pass(img2, meas, params, cfg)
    assert np.max(np.abs(rho.data - rho2)) < 1e-13
    assert np.max(np.abs(sigma.data - carried)) < 1e-13
    assert np.max(np.abs(sigma.data - fresh)) > 1e-10


def test_full_model_gradient_check():
    gt, _, meas = make_case(15)
    cfg = small_config()
    params = randomize_biases(init_params(cfg, 15), 115)
    rho_gt = fft_t(gt)

    def build_loss():
        sigma_T, rho_T, _ = km._forward_graph(meas, params, cfg)
        return ad.add(ad.sumsq_diff(sigma_T, gt.data), ad.sumsq_diff(rho_T, rho_gt.data))

    from ktnext.network import check_gradients

    leaves = [t for store in params.stores() for t in store.tensors()]
    rng = np.random.default_rng(15)
    err = check_gradients(build_loss, leaves, rng, samples=2)
    assert err < 1e-4


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


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_fit_nonfinite_loss_aborts_with_step():
    dataset, mask = fit_setup(33)
    cfg = small_config()
    params = init_params(cfg, 33)
    params.xfcnn.set_values(
        {name: np.full_like(t.value, 1e200) for name, t in params.xfcnn.items()}
    )
    with pytest.raises(NonFiniteLossError, match="step 1"):
        fit(dataset, mask, cfg, steps=3, seed=0, params=params)


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
