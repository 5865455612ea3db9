"""Temporal-average baseline, data consistency, and x-f residual formation.

The average oracle is the literal two-pass rule: one pass summing values per
k-position in ascending t, one pass counting sampled frames, then an
element-wise divide by max(1, count).  Running both passes as plain Python
loops keeps the oracle independent of the vectorized code under test; the
comparison is exact equality in doubles.  Data consistency is tested on the
tape's DC node, the one the cascade runs.
"""

import numpy as np
import pytest

from ktnext import autodiff as ad
from ktnext.model import _xf_residual
from ktnext.sampling import AcquisitionSpec, KtMeasurement, SamplingMask, make_shear_mask, undersample
from ktnext.volume import ComplexVolume, Domain, fft2c, fft_t, ifft2c, ifft_t
from ktnext.xf import dc_baseline_kspace, kspace_temporal_average


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
    mask = make_shear_mask(AcquisitionSpec(accel=accel, n_center=n_center), t_frames, cols)
    return undersample(img, mask), img


def data_consistency(pred, meas, lam):
    """The tape's DC node on a constant k-space prediction, as an array."""
    return ad.data_consistency(ad.constant(pred), meas, lam).value


def xf_inputs(sigma, meas):
    """The de-aliasing inputs a cascade forms for the estimate sigma: the x-f
    residual (through the tape helper) and the x-f DC'd baseline."""
    avg = kspace_temporal_average(meas)
    residual = _xf_residual(ad.constant(sigma.data), avg).value
    baseline = fft_t(ifft2c(dc_baseline_kspace(avg, meas))).data
    return residual, baseline


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
    assert np.array_equal(got, want)


# ------------------------------------------------------- baseline DC


def test_dc_baseline_full_mask_returns_acquired():
    meas, _ = random_measurement(2, accel=1, n_center=0)
    avg = kspace_temporal_average(meas)
    out = dc_baseline_kspace(avg, meas)
    assert np.array_equal(out.data, meas.kspace.data)
    assert out.domain is Domain.KSPACE


def test_dc_baseline_positionwise_oracle():
    meas, _ = random_measurement(3, t_frames=4, rows=5, cols=8, accel=3, n_center=2)
    avg = kspace_temporal_average(meas)
    out = dc_baseline_kspace(avg, meas)
    for t in range(4):
        for y in range(5):
            for x in range(8):
                if meas.mask.bits[t, x]:
                    assert out.data[t, y, x] == meas.kspace.data[t, y, x]
                else:
                    assert out.data[t, y, x] == avg[y, x]


def test_dc_baseline_empty_mask_hypothetical():
    # not constructible through SamplingMask (frames may not be empty), so
    # exercise the blending rule directly with an all-zero support
    from ktnext.xf import dc_array

    rng = np.random.default_rng(4)
    avg = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
    k = np.zeros((2, 3, 4), dtype=complex)
    bits = np.zeros((2, 4), dtype=np.uint8)
    out = dc_array(avg[None].repeat(2, axis=0), k, bits, np.inf)
    assert np.array_equal(out[0], avg)
    assert np.array_equal(out[1], avg)


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
    with pytest.raises(ValueError, match="nonnegative"):
        data_consistency(np.ones_like(img.data), meas, -0.5)
    with pytest.raises(ValueError, match="does not match"):
        data_consistency(np.ones_like(img.data[1:]), meas, np.inf)


# ------------------------------------------------------- x-f residual


def test_xf_transform_static_fully_sampled():
    rng = np.random.default_rng(13)
    frame = rng.standard_normal((6, 8)) + 1j * rng.standard_normal((6, 8))
    img = ComplexVolume(np.stack([frame, frame]), Domain.IMAGE)
    meas = undersample(img, SamplingMask(np.ones((2, 8), dtype=np.uint8)))
    residual, baseline = xf_inputs(img, meas)
    assert np.all(residual == 0)
    f_nonzero = np.delete(baseline, 1, axis=0)  # f=0 plane sits at index T//2
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
    mask = make_shear_mask(AcquisitionSpec(accel=4, n_center=0), t_frames, cols)
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
    back = ifft_t(fft_t(img))
    assert np.abs(back.data - img.data).max() < 1e-10
    assert back.domain is Domain.IMAGE


def test_xf_to_image_zero_and_oracle():
    zero = ComplexVolume(np.zeros((3, 4, 4), dtype=complex), Domain.XF)
    assert np.all(ifft_t(zero).data == 0)

    rng = np.random.default_rng(18)
    rho = ComplexVolume(
        rng.standard_normal((6, 3, 4)) + 1j * rng.standard_normal((6, 3, 4)),
        Domain.XF,
    )
    wt = centered_dft_matrix(6)
    expect = np.einsum("tf,fyx->tyx", wt.conj().T, rho.data)
    assert np.abs(ifft_t(rho).data - expect).max() < 1e-10
