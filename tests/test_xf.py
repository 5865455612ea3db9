"""Temporal-average baseline, data consistency, and x-f residual formation.

The average oracle is the literal two-pass rule: one pass summing values per
k-position in ascending t, one pass counting sampled frames, then an
element-wise divide by max(1, count).  Running both passes as plain Python
loops keeps the oracle independent of the vectorized code under test; the
comparison is exact equality in doubles.  The data-consistency map is tested
as ``dc_array`` on k-space arrays, and the tape's DC node, which runs it in
(y, k_x) space on an image, against the 2-D k-space form.  The cascade's
per-sequence inputs are compared bit for bit with the 2-D forms they replace.
"""

import math

import numpy as np
import pytest

from ktnext import autodiff as ad
from ktnext.model import _xf_residual
from ktnext.sampling import KtMeasurement, SamplingMask, make_shear_mask, undersample
from ktnext.volume import ComplexVolume, Domain, _ifft1c_arr, fft2c, fft_t, ifft2c
from ktnext.xf import cascade_inputs, dc_array, kspace_temporal_average


def temporal_average_oracle(kdata, bits):
    t_frames, rows, cols = kdata.shape
    out = np.zeros((rows, cols), dtype=complex)
    for y in range(rows):
        for x in range(cols):
            acc = 0.0 + 0.0j
            for t in range(t_frames):
                acc = acc + kdata[t, y, x]
            cnt = 0
            for t in range(t_frames):
                cnt = cnt + int(bits[t, x])
            out[y, x] = acc / max(1, cnt)
    return out


def random_measurement(seed, t_frames=4, rows=6, cols=8, accel=3, n_center=2):
    rng = np.random.default_rng(seed)
    img = ComplexVolume(
        rng.standard_normal((t_frames, rows, cols))
        + 1j * rng.standard_normal((t_frames, rows, cols)),
        Domain.IMAGE,
    )
    mask = make_shear_mask(accel, t_frames, cols, n_center=n_center)
    return undersample(img, mask), img


def data_consistency(pred, meas, lam):
    """The data-consistency map on a k-space prediction."""
    return dc_array(pred, meas.kspace.data, meas.mask.bits, lam)


def xf_inputs(sigma, meas):
    """The de-aliasing inputs a cascade forms for the estimate sigma: the x-f
    residual (through the tape helper) and the x-f DC'd baseline."""
    avg = kspace_temporal_average(meas)
    avg_img = ifft2c(ComplexVolume(avg[None], Domain.KSPACE)).data
    residual = _xf_residual(ad.constant(sigma.data), avg_img).value
    baseline = fft_t(ifft2c(ComplexVolume(baseline_kspace(meas), Domain.KSPACE))).data
    return residual, baseline


def baseline_kspace(meas):
    """The temporal average on every frame, each frame's own samples put back."""
    k = meas.kspace.data
    avg = np.broadcast_to(kspace_temporal_average(meas), k.shape)
    return dc_array(avg, k, meas.mask.bits, math.inf)


def baseline_back_to_kspace(meas):
    """cascade_inputs' x-f baseline taken back to k-space: F_2 F_t^-1."""
    baseline_xf = cascade_inputs(meas)[3]
    return fft2c(ComplexVolume(_ifft1c_arr(baseline_xf, 0), Domain.IMAGE)).data


def centered_dft_matrix(n):
    c = n // 2
    k = np.arange(n).reshape(-1, 1)
    m = np.arange(n).reshape(1, -1)
    return np.exp(-2j * np.pi * (k - c) * (m - c) / n) / np.sqrt(n)


# ------------------------------------------------------- temporal average


def test_average_two_of_eight_frames():
    bits = np.zeros((8, 4), dtype=np.uint8)
    bits[:, 0] = 1  # keep every frame non-empty
    bits[1, 2] = 1
    bits[5, 2] = 1
    k = np.zeros((8, 1, 4), dtype=complex)
    k[:, 0, 0] = 1.0
    k[1, 0, 2] = 1.0
    k[5, 0, 2] = 3.0
    m = KtMeasurement(ComplexVolume(k, Domain.KSPACE), SamplingMask(bits))
    avg = kspace_temporal_average(m)
    assert avg[0, 2] == 2.0


def test_average_never_sampled_is_zero():
    bits = np.zeros((4, 6), dtype=np.uint8)
    bits[:, 3] = 1
    k = np.zeros((4, 2, 6), dtype=complex)
    k[:, :, 3] = 7.0 - 2.0j
    m = KtMeasurement(ComplexVolume(k, Domain.KSPACE), SamplingMask(bits))
    avg = kspace_temporal_average(m)
    assert np.all(avg[:, [0, 1, 2, 4, 5]] == 0)
    assert np.all(avg[:, 3] == 7.0 - 2.0j)


def test_average_fully_sampled_static_pair_is_exact():
    rng = np.random.default_rng(1)
    frame = rng.standard_normal((5, 6)) + 1j * rng.standard_normal((5, 6))
    k = np.stack([frame, frame])
    m = KtMeasurement(ComplexVolume(k, Domain.KSPACE), SamplingMask(np.ones((2, 6), dtype=np.uint8)))
    assert np.array_equal(kspace_temporal_average(m), frame)


@pytest.mark.parametrize("seed", range(6))
def test_average_matches_two_pass_oracle_bitwise(seed):
    meas, _ = random_measurement(seed, t_frames=5, rows=4, cols=7, accel=3, n_center=1)
    got = kspace_temporal_average(meas)
    want = temporal_average_oracle(meas.kspace.data, meas.mask.bits)
    # tobytes, not array_equal, which takes -0.0 and 0.0 as equal
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_average_of_single_position_sequences_adds_in_frame_order():
    """A [t][1][1] sequence has a contiguous t axis, along which numpy's
    sum(axis=0) adds pairwise; the average still adds in ascending t."""
    for seed in range(6):
        meas, _ = random_measurement(seed, t_frames=7, rows=1, cols=1, accel=3, n_center=1)
        got = kspace_temporal_average(meas)
        want = temporal_average_oracle(meas.kspace.data, meas.mask.bits)
        assert got.tobytes() == want.tobytes()


# ------------------------------------------------------- baseline DC


def test_dc_baseline_full_mask_returns_acquired():
    meas, _ = random_measurement(2, accel=1, n_center=0)
    out = baseline_back_to_kspace(meas)
    assert np.abs(out - meas.kspace.data).max() <= 1e-13 * np.abs(meas.kspace.data).max()


def test_dc_baseline_positionwise_oracle():
    meas, _ = random_measurement(3, t_frames=4, rows=5, cols=8, accel=3, n_center=2)
    avg = temporal_average_oracle(meas.kspace.data, meas.mask.bits)
    out = baseline_back_to_kspace(meas)
    tol = 1e-13 * np.abs(meas.kspace.data).max()
    for t in range(4):
        for y in range(5):
            for x in range(8):
                if meas.mask.bits[t, x]:
                    assert abs(out[t, y, x] - meas.kspace.data[t, y, x]) <= tol
                else:
                    assert abs(out[t, y, x] - avg[y, x]) <= tol


def test_dc_baseline_empty_mask_hypothetical():
    # not constructible through SamplingMask (frames may not be empty), so
    # exercise the blending rule directly with an all-zero support
    rng = np.random.default_rng(4)
    avg = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
    k = np.zeros((2, 3, 4), dtype=complex)
    bits = np.zeros((2, 4), dtype=np.uint8)
    out = dc_array(avg[None].repeat(2, axis=0), k, bits, np.inf)
    assert np.array_equal(out[0], avg)
    assert np.array_equal(out[1], avg)


# ------------------------------------------------------- cascade inputs


@pytest.mark.parametrize("mask_seed", [1, 2, None], ids=["random1", "random2", "full"])
@pytest.mark.parametrize("shape", [(8, 32, 32), (8, 64, 64), (1, 6, 8), (5, 7, 9), (6, 12, 20)])
def test_cascade_inputs_match_2d_forms_bitwise(shape, mask_seed):
    """Each of the four arrays equals, bit for bit, the 2-D k-space form it
    replaces: the y-transform commutes with a y-constant mask and with DC."""
    t_frames, rows, cols = shape
    rng = np.random.default_rng([*shape, mask_seed or 0])
    if mask_seed is None:
        bits = np.ones((t_frames, cols), dtype=np.uint8)
    else:
        bits = rng.integers(0, 2, size=(t_frames, cols))
        bits[np.arange(t_frames), rng.integers(cols, size=t_frames)] = 1
    mask = SamplingMask(bits)
    k = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) * mask.bits[:, None, :]
    meas = KtMeasurement(ComplexVolume(k, Domain.KSPACE), mask)
    avg = kspace_temporal_average(meas)

    zero_img, avg_img, k_hybrid, baseline_xf = cascade_inputs(meas)
    assert np.array_equal(zero_img, ifft2c(meas.kspace).data)
    assert np.array_equal(avg_img, ifft2c(ComplexVolume(avg[None], Domain.KSPACE)).data)
    assert np.array_equal(k_hybrid, _ifft1c_arr(k, 1))
    want = fft_t(ifft2c(ComplexVolume(baseline_kspace(meas), Domain.KSPACE))).data
    assert np.array_equal(baseline_xf, want)


# ------------------------------------------------------- data consistency


def test_dc_infinite_lambda_hard_replacement():
    meas, img = random_measurement(5)
    rng = np.random.default_rng(6)
    pred = rng.standard_normal(img.data.shape) + 1j * rng.standard_normal(img.data.shape)
    out = data_consistency(pred, meas, np.inf)
    bits = meas.mask.bits[:, None, :]
    assert np.array_equal(out * bits, meas.kspace.data * bits)
    assert np.array_equal(out * (1 - bits), pred * (1 - bits))


def test_dc_lambda_one_averages():
    meas, img = random_measurement(7)
    rng = np.random.default_rng(8)
    pred = rng.standard_normal(img.data.shape) + 1j * rng.standard_normal(img.data.shape)
    out = data_consistency(pred, meas, 1.0)
    bits = np.broadcast_to(meas.mask.bits[:, None, :], pred.shape).astype(bool)
    expect = (pred[bits] + meas.kspace.data[bits]) / 2.0
    assert np.allclose(out[bits], expect, atol=1e-15)
    assert np.array_equal(out[~bits], pred[~bits])


def test_dc_lambda_zero_passes_prediction():
    meas, img = random_measurement(9)
    pred = np.ones_like(img.data)
    out = data_consistency(pred, meas, 0.0)
    assert np.allclose(out, pred, atol=1e-15)


def test_dc_idempotent_and_measurement_invariant():
    meas, img = random_measurement(10)
    rng = np.random.default_rng(11)
    pred = rng.standard_normal(img.data.shape) + 1j * rng.standard_normal(img.data.shape)
    once = data_consistency(pred, meas, np.inf)
    twice = data_consistency(once, meas, np.inf)
    assert np.array_equal(once, twice)
    remeasured = once * meas.mask.bits[:, None, :]
    assert np.array_equal(remeasured, meas.kspace.data)


def test_dc_rejects_negative_lambda_and_wrong_shape():
    meas, img = random_measurement(12)
    k_hybrid, bits = cascade_inputs(meas)[2], meas.mask.bits
    with pytest.raises(ValueError, match="nonnegative"):
        ad.data_consistency(ad.constant(np.ones_like(img.data)), k_hybrid, bits, -0.5)
    with pytest.raises(ValueError, match="does not match"):
        ad.data_consistency(ad.constant(np.ones_like(img.data[1:])), k_hybrid, bits, np.inf)


# ------------------------------------------------------- x-f residual


def test_xf_transform_static_fully_sampled():
    rng = np.random.default_rng(13)
    frame = rng.standard_normal((6, 8)) + 1j * rng.standard_normal((6, 8))
    img = ComplexVolume(np.stack([frame, frame]), Domain.IMAGE)
    meas = undersample(img, SamplingMask(np.ones((2, 8), dtype=np.uint8)))
    residual, baseline = xf_inputs(img, meas)
    # the frame and the average's image differ at roundoff, and only at f=0
    assert np.all(np.delete(residual, 1, axis=0) == 0)  # f=0 plane sits at index T//2
    assert np.abs(residual[1]).max() <= 1e-14 * np.abs(frame).max()
    f_nonzero = np.delete(baseline, 1, axis=0)
    assert np.abs(f_nonzero).max() < 1e-10


def test_xf_transform_decomposition_identity():
    meas, img = random_measurement(14, t_frames=6, rows=6, cols=8, accel=3, n_center=2)
    sigma = ComplexVolume(img.data * 0.7 + 0.1, Domain.IMAGE)  # any current estimate
    residual, _ = xf_inputs(sigma, meas)
    v = fft2c(sigma)
    avg = kspace_temporal_average(meas)
    broadcast = np.broadcast_to(avg, v.data.shape)
    baseline_pre_dc = fft_t(ifft2c(ComplexVolume(broadcast.copy(), Domain.KSPACE)))
    lhs = residual + baseline_pre_dc.data
    rhs = fft_t(ifft2c(v)).data
    assert np.abs(lhs - rhs).max() < 1e-10


@pytest.mark.parametrize("t_frames", [1, 7, 8])
def test_one_axis_forms_match_composed_2d_forms(t_frames):
    """The residual by linearity and DC along x alone against the 2-D forms
    they replace: F_t F_2^-1 (F_2 sigma - avg) and F_2^-1 dc(F_2 r, k)."""
    meas, _ = random_measurement(40 + t_frames, t_frames=t_frames, rows=6, cols=8)
    rng = np.random.default_rng(t_frames)
    sigma, r = (rng.standard_normal(meas.kspace.data.shape)
                + 1j * rng.standard_normal(meas.kspace.data.shape) for _ in range(2))

    def rel_err(got, want):
        return np.abs(got - want).max() / np.abs(want).max()

    avg = kspace_temporal_average(meas)
    k_sigma = fft2c(ComplexVolume(sigma, Domain.IMAGE)).data
    old = fft_t(ifft2c(ComplexVolume(k_sigma - avg[None], Domain.KSPACE))).data
    new, _ = xf_inputs(ComplexVolume(sigma, Domain.IMAGE), meas)
    assert rel_err(new, old) <= 1e-14

    k_r = fft2c(ComplexVolume(r, Domain.IMAGE)).data
    for lam in (np.inf, 1.5):
        dc_k = dc_array(k_r, meas.kspace.data, meas.mask.bits, lam)
        old = ifft2c(ComplexVolume(dc_k, Domain.KSPACE)).data
        dc_x = ad.data_consistency(ad.constant(r), cascade_inputs(meas)[2], meas.mask.bits, lam)
        assert rel_err(dc_x.value, old) <= 1e-14


def test_xf_transform_baseline_pre_dc_support():
    # the broadcast average is temporally constant, so its x-f spectrum
    # lives in the f=0 plane only
    meas, _ = random_measurement(15, t_frames=5, rows=4, cols=8, accel=4, n_center=2)
    avg = kspace_temporal_average(meas)
    broadcast = np.broadcast_to(avg, (5, 4, 8)).copy()
    xf = fft_t(ifft2c(ComplexVolume(broadcast, Domain.KSPACE)))
    others = np.delete(xf.data, 5 // 2, axis=0)
    assert np.abs(others).max() < 1e-10


def test_xf_transform_point_phantom_vs_composed_primitives():
    # independent composition: centered DFT matrices + two-pass average
    t_frames, rows, cols = 4, 6, 8
    data = np.zeros((t_frames, rows, cols), dtype=complex)
    data[:, 2, 5] = 1.0
    img = ComplexVolume(data, Domain.IMAGE)
    mask = make_shear_mask(4, t_frames, cols, n_center=0)
    meas = undersample(img, mask)
    sigma = ComplexVolume(np.zeros_like(data), Domain.IMAGE)
    residual, baseline = xf_inputs(sigma, meas)

    wy, wx, wt = centered_dft_matrix(rows), centered_dft_matrix(cols), centered_dft_matrix(t_frames)
    v = np.einsum("ab,tbc,cd->tad", wy, sigma.data, wx.T)
    avg = temporal_average_oracle(meas.kspace.data, mask.bits)
    res_k = v - avg[None]
    res_img = np.einsum("ab,tbc,cd->tad", wy.conj().T, res_k, wx.conj())
    res_xf = np.einsum("ft,tyx->fyx", wt, res_img)
    assert np.abs(residual - res_xf).max() < 1e-10

    base_k = np.where(mask.bits[:, None, :] == 1, meas.kspace.data, avg[None])
    base_img = np.einsum("ab,tbc,cd->tad", wy.conj().T, base_k, wx.conj())
    base_xf = np.einsum("ft,tyx->fyx", wt, base_img)
    assert np.abs(baseline - base_xf).max() < 1e-10


# ------------------------------------------------------- back to image


def test_xf_to_image_round_trip():
    rng = np.random.default_rng(17)
    img = ComplexVolume(
        rng.standard_normal((5, 4, 6)) + 1j * rng.standard_normal((5, 4, 6)),
        Domain.IMAGE,
    )
    back = _ifft1c_arr(fft_t(img).data, 0)
    assert np.abs(back - img.data).max() < 1e-10


def test_xf_to_image_zero_and_oracle():
    assert np.all(_ifft1c_arr(np.zeros((3, 4, 4), dtype=complex), 0) == 0)

    rng = np.random.default_rng(18)
    rho = rng.standard_normal((6, 3, 4)) + 1j * rng.standard_normal((6, 3, 4))
    wt = centered_dft_matrix(6)
    expect = np.einsum("tf,fyx->tyx", wt.conj().T, rho)
    assert np.abs(_ifft1c_arr(rho, 0) - expect).max() < 1e-10
