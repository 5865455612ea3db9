"""Acceptance suite: one test per shipped criterion, each printing a single
pass/fail line with the measured numbers.

Criterion 8 runs its pinned overfit recipe exactly as stated and currently
fails the loss-ratio clause: 0.169 against a bound of 0.05. The PSNR
(29.34 dB against 28.15 dB), runtime, and monotonicity clauses hold. When
each recurrent kernel was drawn with its own fan-in, the untrained network
amplified its input 204-fold at this shape; the inflated first loss made
the ratio pass (0.0073) while the PSNR failed (-12.78 dB). See README for
the analysis. The other ten criteria pass.
"""

import json
import math
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
import scipy.ndimage

import ktnext.autodiff as ad
from ktnext.metrics import compute_metrics, hfen, psnr, ssim
from ktnext.model import (
    KtNextConfig,
    fit,
    init_params,
    ktnext_forward,
)
from ktnext.network import crnn_bidir_layer
from ktnext.sampling import (
    AcquisitionSpec,
    KtMeasurement,
    SamplingMask,
    generate_phantom,
    make_shear_mask,
    undersample,
    zero_filled,
)
from ktnext.volume import ComplexVolume, Domain, _fft1c_arr, _ifft1c_arr, fft2c, fft_t, ifft2c
from ktnext.xf import dc_array, kspace_temporal_average

from gradcheck import check_gradients


def report(n: int, ok: bool, detail: str) -> bool:
    print(f"[criterion {n:2d}] {'PASS' if ok else 'FAIL'}: {detail}")
    return ok


def random_volume(rng, t, y, x, domain=Domain.IMAGE) -> ComplexVolume:
    data = rng.standard_normal((t, y, x)) + 1j * rng.standard_normal((t, y, x))
    return ComplexVolume(data, domain)


def random_mask(rng, t, x) -> SamplingMask:
    bits = rng.integers(0, 2, size=(t, x))
    for frame in range(t):
        bits[frame, rng.integers(x)] = 1
    return SamplingMask(bits)


def zero_all(params):
    for _, tensor in params.items():
        tensor.value = np.zeros_like(tensor.value)
    return params


def randomize_biases(params, seed):
    """Move biases off zero so no ReLU input sits at the kink during FD probes."""
    rng = np.random.default_rng(seed)
    for _, tensor in params.items():
        if tensor.value.ndim == 1:
            tensor.value = rng.standard_normal(tensor.value.shape) * 0.1
    return params


# ---------------------------------------------------------------- criterion 1


def test_criterion_01_full_scale_results_out_of_scope():
    """Clinical-scale cine benchmarks (for instance 34.23 dB PSNR / 0.979
    SSIM / 0.196 HFEN at 9x on real multi-subject data) are NOT reproduced
    by this artifact: they require the real dataset and full-length
    training. The desk-scale property criteria below substitute."""
    criteria = [name for name in globals() if name.startswith("test_criterion_")]
    ok = len(criteria) == 11
    assert report(1, ok, "full-scale cine numbers stated as out of scope; "
                         f"{len(criteria) - 1} desk-scale property criteria substitute")


# ---------------------------------------------------------------- criterion 2


def _dft_matrix(n: int) -> np.ndarray:
    c = n // 2
    j = np.arange(n)
    return np.exp(-2j * np.pi * np.outer(j - c, j - c) / n) / np.sqrt(n)


def _apply_oracle(arr: np.ndarray, axis: int) -> np.ndarray:
    out = np.tensordot(_dft_matrix(arr.shape[axis]), arr, axes=(1, axis))
    return np.moveaxis(out, 0, axis)


def test_criterion_02_fft_oracle_suite():
    rng = np.random.default_rng(2)
    t0 = time.monotonic()
    worst = 0.0
    volumes = 0

    def rel_err(got, oracle):
        return float(np.abs(got - oracle).max() / np.abs(oracle).max())

    # systematic sweep: every axis length 1..8 hit on every axis, through the
    # one-axis kernel every transform calls
    for axis in (0, 1, 2):
        for n in range(1, 9):
            shape = [int(rng.integers(1, 9)) for _ in range(3)]
            shape[axis] = n
            vol = random_volume(rng, *shape)
            volumes += 1
            oracle = _apply_oracle(vol.data, axis)
            worst = max(worst, rel_err(_fft1c_arr(vol.data, axis), oracle))
    # random volumes up to the stated count, checking the composed transforms
    while volumes < 1000:
        shape = tuple(int(v) for v in rng.integers(1, 9, size=3))
        vol = random_volume(rng, *shape)
        volumes += 1
        oracle_2d = _apply_oracle(_apply_oracle(vol.data, 1), 2)
        worst = max(worst, rel_err(fft2c(vol).data, oracle_2d))
        worst = max(worst, rel_err(fft_t(vol).data, _apply_oracle(vol.data, 0)))
    dt = time.monotonic() - t0
    ok = worst <= 1e-10 and dt < 10.0
    assert report(2, ok, f"direct-DFT oracle on {volumes} volumes, all axis "
                         f"lengths <= 8: worst rel err {worst:.2e} in {dt:.1f}s")


# ---------------------------------------------------------------- criterion 3


def _temporal_average_two_pass(meas: KtMeasurement) -> np.ndarray:
    kdata = meas.kspace.data
    t_n, rows, cols = kdata.shape
    sums = np.zeros((rows, cols), dtype=np.complex128)
    counts = np.zeros((rows, cols), dtype=np.int64)
    for t in range(t_n):  # pass 1: accumulate
        for y in range(rows):
            for x in range(cols):
                sums[y, x] = sums[y, x] + kdata[t, y, x]
                counts[y, x] = counts[y, x] + int(meas.mask.bits[t, x])
    out = np.zeros((rows, cols), dtype=np.complex128)
    for y in range(rows):  # pass 2: divide
        for x in range(cols):
            out[y, x] = sums[y, x] / max(1, counts[y, x])
    return out


def test_criterion_03_temporal_average_exactness():
    rng = np.random.default_rng(3)
    mismatches = 0
    for _ in range(200):
        t, y, x = int(rng.integers(1, 9)), int(rng.integers(1, 7)), int(rng.integers(1, 9))
        meas = undersample(random_volume(rng, t, y, x), random_mask(rng, t, x))
        if not np.array_equal(kspace_temporal_average(meas), _temporal_average_two_pass(meas)):
            mismatches += 1

    # forced: a column sampled in no frame averages to exactly zero
    bits = np.zeros((3, 4), dtype=np.uint8)
    bits[:, 1] = 1
    meas = undersample(random_volume(rng, 3, 2, 4), SamplingMask(bits))
    never_ok = bool(np.all(kspace_temporal_average(meas)[:, [0, 2, 3]] == 0))

    # forced: two acquisitions of one position average to (a + b) / 2 exactly
    vol = random_volume(rng, 2, 2, 3)
    meas = undersample(vol, SamplingMask(np.ones((2, 3), dtype=np.uint8)))
    k = meas.kspace.data
    pair_ok = bool(np.all(kspace_temporal_average(meas) == (k[0] + k[1]) / 2))

    ok = mismatches == 0 and never_ok and pair_ok
    assert report(3, ok, f"200 random masked sequences bit-exact against the "
                         f"two-pass oracle ({mismatches} mismatches); forced "
                         f"never-sampled and two-sample cases hold")


# ---------------------------------------------------------------- criterion 4


def test_criterion_04_data_consistency_properties():
    rng = np.random.default_rng(4)
    worst = 0.0
    for _ in range(200):
        t, y, x = int(rng.integers(1, 7)), int(rng.integers(1, 7)), int(rng.integers(1, 9))
        meas = undersample(random_volume(rng, t, y, x), random_mask(rng, t, x))
        pred = random_volume(rng, t, y, x, Domain.KSPACE).data
        bits = meas.mask.bits[:, None, :]

        kdata, mbits = meas.kspace.data, meas.mask.bits
        hard = dc_array(pred, kdata, mbits, np.inf)
        again = dc_array(hard, kdata, mbits, np.inf)
        worst = max(worst, float(np.abs(again - hard).max()))
        sampled_err = np.abs((hard - meas.kspace.data) * bits).max()
        worst = max(worst, float(sampled_err))
        passthrough = np.abs((hard - pred) * (1 - bits)).max()
        worst = max(worst, float(passthrough))

        mid = dc_array(pred, kdata, mbits, 1.0)
        avg_err = np.abs((mid - (pred + meas.kspace.data) / 2) * bits).max()
        worst = max(worst, float(avg_err))
        worst = max(worst, float(np.abs((mid - pred) * (1 - bits)).max()))
    ok = worst <= 1e-12
    assert report(4, ok, f"idempotence, sampled exactness (hard), lambda=1 "
                         f"averaging, off-support pass-through on 200 cases: "
                         f"worst abs err {worst:.2e}")


# ---------------------------------------------------------------- criterion 5


def test_criterion_05_zero_weight_collapse():
    rng = np.random.default_rng(5)
    config = KtNextConfig()
    worst = 0.0
    for case in range(50):
        t, y, x = int(rng.integers(2, 7)), int(rng.integers(4, 9)), int(rng.integers(4, 9))
        meas = undersample(random_volume(rng, t, y, x), random_mask(rng, t, x))
        params = zero_all(init_params(config, case))
        sigma = ktnext_forward(meas, params, config)[-1]
        k = meas.kspace.data
        avg = np.broadcast_to(kspace_temporal_average(meas), k.shape)
        baseline = dc_array(avg, k, meas.mask.bits, math.inf)
        expected = ifft2c(ComplexVolume(baseline, Domain.KSPACE))
        worst = max(worst, float(np.abs(sigma.data - expected.data).max()))

    full_worst = 0.0
    for seed in range(5):
        gt = generate_phantom(seed, 4, 8, 8)
        meas = undersample(gt, SamplingMask(np.ones((4, 8), dtype=np.uint8)))
        params = zero_all(init_params(config, seed))
        sigma = ktnext_forward(meas, params, config)[-1]
        full_worst = max(full_worst, float(np.abs(sigma.data - gt.data).max()))

    ok = worst <= 1e-10 and full_worst <= 1e-8
    assert report(5, ok, f"zero weights equal the temporal-average + DC "
                         f"pipeline on 50 measurements (worst {worst:.2e}); "
                         f"full-mask fixed point recovers ground truth "
                         f"(worst {full_worst:.2e})")


# ---------------------------------------------------------------- criterion 6


def _op_cases():
    """One small finite-difference case per differentiable operation."""
    rng = np.random.default_rng(60)

    def cplx(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    cases = []

    x = ad.parameter(rng.standard_normal((2, 3, 4, 5)))
    w = ad.parameter(rng.standard_normal((2, 3, 3, 3)))
    b = ad.parameter(rng.standard_normal(2))
    tgt = rng.standard_normal((2, 2, 4, 5))
    cases.append(("conv2d", [x, w, b],
                  lambda: ad.sumsq_diff(ad.conv2d(x, w, b, 2), tgt)))

    r = ad.parameter(rng.standard_normal((2, 2, 3, 3)) + 0.1)
    rt = rng.standard_normal((2, 2, 3, 3))
    cases.append(("relu", [r], lambda: ad.sumsq_diff(ad.relu(r), rt)))

    a1 = ad.parameter(rng.standard_normal((2, 3, 4)))
    a2 = ad.parameter(rng.standard_normal((2, 3, 4)))
    at = rng.standard_normal((2, 3, 4))
    cases.append(("add", [a1, a2], lambda: ad.sumsq_diff(ad.add(a1, a2), at)))
    cases.append(("add_const", [a1],
                  lambda: ad.sumsq_diff(ad.add_const(a1, at), 2 * at)))

    sp = ad.parameter(rng.standard_normal((3, 2, 4, 5)))
    sw = ad.parameter(rng.standard_normal((2, 2, 3, 3)) * 0.4)
    sweep_t = rng.standard_normal((3, 2, 4, 5))
    cases.append(("crnn_sweep", [sp, sw],
                  lambda: ad.sumsq_diff(ad.crnn_sweep(sp, sw, 3), sweep_t)))

    u = ad.parameter(rng.standard_normal((2, 3)))
    cases.append(("sumsq_diff(real)", [u], lambda: ad.sumsq_diff(u, np.ones((2, 3)))))

    z = ad.parameter(cplx(2, 3, 4))
    zt = cplx(2, 3, 4)
    cases.append(("sumsq_diff", [z], lambda: ad.sumsq_diff(z, zt)))
    cases.append(("fft_t", [z], lambda: ad.sumsq_diff(ad.fft_t(z), zt)))
    cases.append(("ifft_t", [z], lambda: ad.sumsq_diff(ad.ifft_t(z), zt)))

    # a [2][3][4] volume packs to [2][2][3][4] at axis 0 and [3][2][2][4] at axis 1
    zi = ad.parameter(cplx(2, 3, 4))
    for axis, shape in ((0, (2, 2, 3, 4)), (1, (3, 2, 2, 4))):
        chan_t = rng.standard_normal(shape)
        cases.append((f"complex_to_channels(axis {axis})", [zi],
                      lambda a=axis, t=chan_t: ad.sumsq_diff(ad.complex_to_channels([zi], a), t)))
        ch = ad.parameter(rng.standard_normal(shape))
        cases.append((f"channels_to_complex(axis {axis})", [ch],
                      lambda a=axis, c=ch: ad.sumsq_diff(ad.channels_to_complex(c, a), zt)))
    # the x-f CNN's pack: the residual beside a constant baseline, [3][4][2][4]
    zb = ad.constant(cplx(2, 3, 4))
    pair_t = rng.standard_normal((3, 4, 2, 4))
    cases.append(("complex_to_channels(two inputs, constant second)", [zi],
                  lambda: ad.sumsq_diff(ad.complex_to_channels([zi, zb], 1), pair_t)))

    rng_m = np.random.default_rng(61)
    meas = undersample(random_volume(rng_m, 2, 3, 4), random_mask(rng_m, 2, 4))
    p = ad.parameter(cplx(2, 3, 4))  # an image estimate; DC runs against k_hybrid
    pt = cplx(2, 3, 4)
    acq = (_ifft1c_arr(meas.kspace.data, 1), meas.mask.bits)
    cases.append(("data_consistency(inf)", [p],
                  lambda: ad.sumsq_diff(ad.data_consistency(p, *acq, np.inf), pt)))
    cases.append(("data_consistency(1.5)", [p],
                  lambda: ad.sumsq_diff(ad.data_consistency(p, *acq, 1.5), pt)))

    seq = ad.parameter(rng.standard_normal((3, 2, 4, 4)))
    wi = ad.parameter(rng.standard_normal((2, 2, 3, 3)) * 0.4)
    wh = ad.parameter(rng.standard_normal((2, 2, 3, 3)) * 0.4)
    wih = ad.parameter(rng.standard_normal((2, 2, 3, 3)) * 0.4)
    cb = ad.parameter(rng.standard_normal(2) * 0.1)
    hid = ad.parameter(rng.standard_normal((3, 2, 4, 4)))
    crnn_t = rng.standard_normal((3, 2, 4, 4))

    def crnn_loss():
        out = crnn_bidir_layer(seq, wi, wh, wih, cb, hidden_prev=hid, dilation=1)
        return ad.sumsq_diff(out, crnn_t)

    cases.append(("crnn_bidir_layer", [seq, wi, wh, wih, cb, hid], crnn_loss))
    return cases


def test_every_differentiable_op_has_an_oracle_case():
    """Each differentiable name autodiff exports labels a finite-difference
    case above (the text before any "("), so an op added or renamed without
    an oracle fails here."""
    not_ops = {"Tensor", "backward", "constant", "parameter", "no_tape"}
    labelled = {label.split("(")[0] for label, _, _ in _op_cases()}
    missing = sorted(set(ad.__all__) - not_ops - labelled)
    assert not missing, f"autodiff ops without a criterion-6 oracle case: {missing}"


def test_criterion_06_gradient_suite():
    t0 = time.monotonic()
    worst_op = resolved_op = 0.0
    cases = _op_cases()
    for case_n, (label, leaves, build_loss) in enumerate(cases):
        err, resolved = check_gradients(build_loss, leaves, np.random.default_rng(600 + case_n),
                                        samples=6)
        worst_op, resolved_op = max(worst_op, err), max(resolved_op, resolved)

    # full model at the stated scale, 1% random parameter subsample
    import ktnext.model as km

    config = KtNextConfig(n_cascades=2, channels=8)
    gt = generate_phantom(6, 4, 8, 8)
    mask = make_shear_mask(AcquisitionSpec(accel=2, n_center=2), 4, 8)
    meas = undersample(gt, mask)
    params = randomize_biases(init_params(config, 6), 66)
    rho_gt = fft_t(gt)

    def model_loss():
        rho_t, sigma_t = km._forward_graph(meas, params, config)[-1]
        return ad.add(ad.sumsq_diff(sigma_t, gt.data), ad.sumsq_diff(rho_t, rho_gt.data))

    rng = np.random.default_rng(666)
    worst_model = resolved_model = 0.0
    probed = 0
    for _, tensor in params.items():
        n = max(1, round(0.01 * tensor.value.size))
        probed += min(n, tensor.value.size)
        err, resolved = check_gradients(model_loss, [tensor], rng, samples=n)
        worst_model, resolved_model = max(worst_model, err), max(resolved_model, resolved)
    dt = time.monotonic() - t0
    ok = worst_op < 1e-4 and worst_model < 1e-4 and dt < 300.0
    # the printed figures are over coordinates above the finite-difference
    # noise floor, which the pass figures count as exact
    assert report(6, ok, f"{len(cases)} op checks (worst rel err {resolved_op:.2e}) and "
                         f"full N=2/ch=8/T=4/8x8 model on {probed} sampled coordinates "
                         f"(worst {resolved_model:.2e}) in {dt:.0f}s")


# ---------------------------------------------------------------- criterion 7


def test_criterion_07_aliasing_replica_superposition():
    worst = 0.0
    checked = 0
    for accel in (2, 4, 8):
        for (t_n, rows, cols, y0, x0) in ((8, 4, 16, 1, 5), (8, 3, 8, 0, 2)):
            img = np.zeros((t_n, rows, cols), dtype=np.complex128)
            img[:, y0, x0] = 1.0  # static point object
            vol = ComplexVolume(img, Domain.IMAGE)
            spec = AcquisitionSpec(accel=accel, n_center=0)
            meas = undersample(vol, make_shear_mask(spec, t_n, cols))
            got = fft_t(zero_filled(meas)).data

            # R replicas sheared across (x, f), each 1/R of the fully
            # sampled peak, with the lattice phase exp(-2i pi n (cX-cT) / R)
            ct, cx = t_n // 2, cols // 2
            pred = np.zeros_like(got)
            for n in range(accel):
                xn = (x0 + n * cols // accel) % cols
                fn = (ct + n * t_n // accel) % t_n
                pred[fn, y0, xn] = (np.sqrt(t_n) / accel
                                    * np.exp(-2j * np.pi * n * (cx - ct) / accel))
            worst = max(worst, float(np.abs(got - pred).max()))
            checked += 1
    ok = worst <= 1e-8
    assert report(7, ok, f"zero-filled x-f of a lattice-sampled static point "
                         f"matches the 1/R replica superposition on {checked} "
                         f"configurations, R in {{2,4,8}}: worst abs err {worst:.2e}")


# ---------------------------------------------------------------- criterion 8


@pytest.mark.slow
def test_criterion_08_overfit_benchmark():
    t0 = time.monotonic()
    gt = generate_phantom(0, 8, 32, 32)
    mask = make_shear_mask(AcquisitionSpec(accel=4, n_center=4), 8, 32)
    config = KtNextConfig(n_cascades=2, channels=8)
    params, history = fit([gt], mask, config, steps=500, seed=0, lr=1e-4)
    dt = time.monotonic() - t0

    meas = undersample(gt, mask)
    sigma = ktnext_forward(meas, params, config)[-1]
    psnr_model = psnr(sigma, gt)
    psnr_zf = psnr(zero_filled(meas), gt)
    ratio = history[-1].loss / history[0].loss

    losses = [rec.loss for rec in history]
    violations = sum(1 for i in range(99, len(losses) - 100)
                     if losses[i + 100] > 1.05 * losses[i])

    loss_ok = ratio < 0.05
    psnr_ok = psnr_model >= psnr_zf + 5.0
    time_ok = dt < 900.0
    window_ok = violations == 0
    ok = loss_ok and psnr_ok and time_ok and window_ok
    detail = (f"loss ratio {ratio:.4f} (<0.05: {loss_ok}); model PSNR "
              f"{psnr_model:.2f} dB vs zero-filled+5 = {psnr_zf + 5.0:.2f} dB "
              f"({psnr_ok}); 100-step windows non-increasing: {window_ok}; "
              f"{dt:.0f}s (<900s: {time_ok})")
    assert report(8, ok, detail), detail


# ---------------------------------------------------------------- criterion 9


def test_criterion_09_generalization_smoke():
    t_n, rows, cols = 4, 16, 16
    config = KtNextConfig(n_cascades=1, channels=4)
    mask = make_shear_mask(AcquisitionSpec(accel=4, n_center=2), t_n, cols)
    train_set = [generate_phantom(seed, t_n, rows, cols) for seed in range(8)]
    params, _ = fit(train_set, mask, config, steps=400, seed=0, lr=1e-3)

    results = []
    for seed in (100, 101):
        gt = generate_phantom(seed, t_n, rows, cols)
        meas = undersample(gt, mask)
        sigma = ktnext_forward(meas, params, config)[-1]
        model_m = compute_metrics(sigma, gt)
        zf_m = compute_metrics(zero_filled(meas), gt)
        results.append((seed, model_m, zf_m,
                        model_m.psnr > zf_m.psnr and model_m.hfen < zf_m.hfen))
    ok = all(r[3] for r in results)
    parts = "; ".join(f"seed {s}: psnr {m.psnr:.2f}>{z.psnr:.2f}, "
                      f"hfen {m.hfen:.3f}<{z.hfen:.3f}" for s, m, z, _ in results)
    assert report(9, ok, f"8 train / 2 held-out phantoms, model beats "
                         f"zero-filled on both ({parts})")


# --------------------------------------------------------------- criterion 10


def _ssim_oracle_frame(a, b, peak):
    """Literal per-pixel 11x11 Gaussian SSIM with whole-sample reflection."""
    win = np.empty((11, 11))
    for i in range(11):
        for j in range(11):
            win[i, j] = np.exp(-((i - 5) ** 2 + (j - 5) ** 2) / (2 * 1.5**2))
    win /= win.sum()
    c1, c2 = (0.01 * peak) ** 2, (0.03 * peak) ** 2
    pa = np.pad(a, 5, mode="reflect")
    pb = np.pad(b, 5, mode="reflect")
    out = np.empty_like(a)
    for y in range(a.shape[0]):
        for x in range(a.shape[1]):
            wa = pa[y:y + 11, x:x + 11]
            wb = pb[y:y + 11, x:x + 11]
            mu_a = (win * wa).sum()
            mu_b = (win * wb).sum()
            va = (win * wa * wa).sum() - mu_a**2
            vb = (win * wb * wb).sum() - mu_b**2
            cov = (win * wa * wb).sum() - mu_a * mu_b
            num = (2 * mu_a * mu_b + c1) * (2 * cov + c2)
            den = (mu_a**2 + mu_b**2 + c1) * (va + vb + c2)
            out[y, x] = 1.0 if den == 0 else num / den
    return out.mean()


def _log_kernel_oracle():
    ax = np.arange(15) - 7
    xx, yy = np.meshgrid(ax, ax)
    g = np.exp(-(xx**2 + yy**2) / (2 * 1.5**2))
    g /= g.sum()
    h = g * (xx**2 + yy**2 - 2 * 1.5**2) / 1.5**4
    return h - h.mean()


def test_criterion_10_metric_sanity():
    rng = np.random.default_rng(10)
    gt = ComplexVolume(rng.standard_normal((2, 8, 8)) + 1j * rng.standard_normal((2, 8, 8)),
                       Domain.IMAGE)
    rec = ComplexVolume(gt.data + 0.1 * (rng.standard_normal((2, 8, 8))
                                         + 1j * rng.standard_normal((2, 8, 8))),
                        Domain.IMAGE)
    same = ComplexVolume(gt.data.copy(), Domain.IMAGE)

    trivial_ok = (psnr(same, gt) == np.inf and ssim(same, gt) == 1.0
                  and hfen(same, gt) == 0.0)

    a = np.abs(rec.data)
    b = np.abs(gt.data)
    peak = b.max()
    psnr_oracle = 10 * np.log10(peak**2 / np.mean((a - b) ** 2))
    psnr_err = abs(psnr(rec, gt) - psnr_oracle)

    ssim_oracle = np.mean([_ssim_oracle_frame(a[t], b[t], peak) for t in range(2)])
    ssim_err = abs(ssim(rec, gt) - ssim_oracle)

    log = _log_kernel_oracle()
    num = den = 0.0
    for t in range(2):
        fa = scipy.ndimage.convolve(a[t], log, mode="constant", cval=0.0)
        fb = scipy.ndimage.convolve(b[t], log, mode="constant", cval=0.0)
        num += np.sum((fa - fb) ** 2)
        den += np.sum(fb**2)
    hfen_err = abs(hfen(rec, gt) - np.sqrt(num / den))

    worst = max(psnr_err, ssim_err, hfen_err)
    ok = trivial_ok and worst <= 1e-9
    assert report(10, ok, f"equality => inf/1/0 holds; oracle equivalence on "
                          f"random 8x8 pairs: worst abs err {worst:.2e}")


# --------------------------------------------------------------- criterion 11


def test_criterion_11_cli_determinism(tmp_path, cli_env):
    commands = [
        ["mask", "--accel", "2", "--center", "1", "--frames", "3", "--cols", "8",
         "--output", "m.ckm"],
        ["simulate", "--seed", "3", "--frames", "3", "--rows", "8", "--cols", "8",
         "--mask", "m.ckm", "--output", "sim"],
        ["train", "--input", "sim/sequence.ckt", "--mask", "m.ckm", "--steps", "1",
         "--cascades", "1", "--channels", "2", "--checkpoint", "w.ktnp",
         "--output", "h.csv"],
        ["reconstruct", "--input", "sim/kspace.ckt", "--mask", "m.ckm",
         "--checkpoint", "w.ktnp", "--cascades", "1", "--channels", "2",
         "--output", "rec"],
        ["evaluate", "--input", "sim/sequence.ckt", "--mask", "m.ckm",
         "--checkpoint", "w.ktnp", "--cascades", "1", "--channels", "2",
         "--output", "metrics.csv"],
        ["render", "--input", "sim/sequence.ckt", "--mask", "m.ckm",
         "--checkpoint", "w.ktnp", "--cascades", "1", "--channels", "2",
         "--output", "figs"],
    ]

    def run_all():
        for argv in commands:
            proc = subprocess.run([sys.executable, "-m", "ktnext.cli",
                                   *argv, "--deterministic"],
                                  cwd=tmp_path, env=cli_env, capture_output=True, text=True)
            assert proc.returncode == 0, f"{argv[0]}: {proc.stderr}"
        return {str(p.relative_to(tmp_path)): p.read_bytes()
                for p in sorted(tmp_path.rglob("*")) if p.is_file()}

    first = run_all()
    second = run_all()
    same = first == second
    ok = same and len(first) > 10
    assert report(11, ok, f"all six subcommands repeated with --deterministic: "
                          f"{len(first)} output files byte-identical "
                          f"(match: {same})")
