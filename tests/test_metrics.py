"""PSNR / SSIM / HFEN against direct-formula oracles on magnitude sequences."""

import numpy as np
import pytest

from ktnext.metrics import (
    GroundTruth,
    ReconMetrics,
    _LOG_TERMS,
    _SSIM_TERMS,
    _band,
    _bands,
    _gaussian_taps,
    _log_terms,
    _filter,
    compute_metrics,
    hfen,
    psnr,
    ssim,
)
from ktnext.volume import ComplexVolume, Domain


def vol(arr):
    return ComplexVolume(np.asarray(arr, dtype=complex), Domain.IMAGE)


def random_pair(seed, shape=(3, 8, 8), noise=0.3):
    rng = np.random.default_rng(seed)
    gt = rng.uniform(0.0, 1.0, shape) * np.exp(1j * rng.uniform(0, 2 * np.pi, shape))
    rec = gt + noise * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    return vol(rec), vol(gt)


# --------------------------------------------------------------- psnr


def test_psnr_identical_is_inf():
    rec, gt = random_pair(1, noise=0.0)
    assert psnr(rec, gt) == np.inf


def test_psnr_unit_mse_zero_db():
    gt = np.zeros((1, 4, 4))
    gt[0, 0, 0] = 1.0  # peak 1
    rec = gt + 1.0  # |rec| - |gt| = 1 everywhere, MSE 1
    assert abs(psnr(vol(rec), vol(gt))) < 1e-12


def test_psnr_matches_formula_oracle():
    rec, gt = random_pair(2)
    mr, mg = np.abs(rec.data), np.abs(gt.data)
    mse = np.mean((mr - mg) ** 2)
    want = 10.0 * np.log10(mg.max() ** 2 / mse)
    assert abs(psnr(rec, gt) - want) < 1e-12


def test_psnr_noise_ladder_decreases():
    rng = np.random.default_rng(3)
    gt = vol(np.abs(rng.uniform(0.2, 1.0, (2, 16, 16))))
    noise = rng.standard_normal((2, 16, 16)) + 1j * rng.standard_normal((2, 16, 16))
    values = []
    for amp in np.linspace(0.01, 0.5, 20):
        values.append(psnr(vol(gt.data + amp * noise), gt))
    inversions = sum(1 for a, b in zip(values, values[1:]) if b >= a)
    assert inversions <= 1


# --------------------------------------------------------------- ssim


def gaussian_window(size=11, sigma=1.5):
    half = size // 2
    y, x = np.mgrid[-half : half + 1, -half : half + 1]
    g = np.exp(-(x * x + y * y) / (2.0 * sigma * sigma))
    return g / g.sum()


def ssim_oracle_frame(rec_mag, gt_mag, peak, size=11, sigma=1.5, k1=0.01, k2=0.03):
    """Literal per-pixel windowed SSIM with whole-sample reflect padding."""
    win = gaussian_window(size, sigma)
    half = size // 2
    c1 = (k1 * peak) ** 2
    c2 = (k2 * peak) ** 2
    xp = np.pad(rec_mag, half, mode="reflect")
    yp = np.pad(gt_mag, half, mode="reflect")
    h, w = rec_mag.shape
    total = 0.0
    for i in range(h):
        for j in range(w):
            a = xp[i : i + size, j : j + size]
            b = yp[i : i + size, j : j + size]
            mu_a = (win * a).sum()
            mu_b = (win * b).sum()
            va = (win * a * a).sum() - mu_a * mu_a
            vb = (win * b * b).sum() - mu_b * mu_b
            cov = (win * a * b).sum() - mu_a * mu_b
            num = (2 * mu_a * mu_b + c1) * (2 * cov + c2)
            den = (mu_a**2 + mu_b**2 + c1) * (va + vb + c2)
            total += num / den
    return total / (h * w)


def test_ssim_identical_is_one():
    rec, gt = random_pair(4, noise=0.0)
    assert abs(ssim(rec, gt) - 1.0) < 1e-12


def test_ssim_constant_images():
    a = vol(np.full((2, 8, 8), 0.6))
    assert abs(ssim(a, a) - 1.0) < 1e-12


def test_ssim_matches_windowed_oracle_single_frame():
    rec, gt = random_pair(5, shape=(1, 8, 8))
    peak = np.abs(gt.data).max()
    want = ssim_oracle_frame(np.abs(rec.data[0]), np.abs(gt.data[0]), peak)
    assert abs(ssim(rec, gt) - want) < 1e-9


def test_ssim_multi_frame_is_frame_mean():
    rec, gt = random_pair(6, shape=(3, 8, 8))
    peak = np.abs(gt.data).max()
    per_frame = [
        ssim_oracle_frame(np.abs(rec.data[t]), np.abs(gt.data[t]), peak) for t in range(3)
    ]
    assert abs(ssim(rec, gt) - np.mean(per_frame)) < 1e-9


def test_ssim_bounded_above():
    rec, gt = random_pair(7, noise=0.5)
    assert ssim(rec, gt) <= 1.0 + 1e-9


# --------------------------------------------------------------- hfen


def log_kernel_oracle(size=15, sigma=1.5):
    half = size // 2
    y, x = np.mgrid[-half : half + 1, -half : half + 1]
    g = np.exp(-(x * x + y * y) / (2.0 * sigma * sigma))
    g = g / g.sum()
    h = g * (x * x + y * y - 2.0 * sigma * sigma) / sigma**4
    return h - h.mean()


def hfen_oracle(rec, gt):
    from scipy.ndimage import convolve

    kern = log_kernel_oracle()
    num = 0.0
    den = 0.0
    for t in range(gt.data.shape[0]):
        fr = convolve(np.abs(rec.data[t]), kern, mode="constant", cval=0.0)
        fg = convolve(np.abs(gt.data[t]), kern, mode="constant", cval=0.0)
        num += ((fr - fg) ** 2).sum()
        den += (fg**2).sum()
    return np.sqrt(num) / np.sqrt(den)


def test_hfen_identical_is_zero():
    rec, gt = random_pair(8, noise=0.0)
    assert hfen(rec, gt) == 0.0


def test_hfen_zero_reconstruction_is_one():
    _, gt = random_pair(9)
    zero = vol(np.zeros_like(gt.data))
    assert abs(hfen(zero, gt) - 1.0) < 1e-12


def test_hfen_matches_convolution_oracle():
    rec, gt = random_pair(10, shape=(2, 16, 16))
    assert abs(hfen(rec, gt) - hfen_oracle(rec, gt)) < 1e-9


def test_hfen_undefined_for_zero_gt():
    zero = vol(np.zeros((1, 8, 8)))
    rec = vol(np.ones((1, 8, 8)))
    with pytest.raises(FloatingPointError):
        hfen(rec, zero)


# ------------------------------------------------- separable band filter

@pytest.mark.parametrize("terms, oracle_kernel, mode", [
    (_SSIM_TERMS, gaussian_window, "mirror"),
    (_LOG_TERMS, log_kernel_oracle, "constant"),
], ids=["ssim-mirror", "log-zero"])
@pytest.mark.parametrize("shape", [(1, 1), (3, 2), (5, 5), (8, 8), (7, 33), (64, 64)],
                         ids=lambda s: f"{s[0]}x{s[1]}")
def test_filter_matches_scipy_correlate(terms, oracle_kernel, mode, shape):
    """The batched band-matrix filter equals scipy's 2-D correlation frame by
    frame; at 5x5 and below the 11-tap mirror reflects more than once."""
    from scipy.ndimage import correlate

    planes = np.random.default_rng(15).standard_normal((3, *shape))
    got = _filter(planes, _bands(shape, terms, mirror=mode == "mirror"))
    want = np.stack([correlate(p, oracle_kernel(), mode=mode, cval=0.0) for p in planes])
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


@pytest.mark.parametrize("terms, mirror, oracle_terms", [
    (_SSIM_TERMS, True, [[_gaussian_taps(11, 1.5)[1]] * 2]),
    (_LOG_TERMS, False, _log_terms(15, 1.5)),
], ids=["ssim-mirror", "log-zero"])
def test_cached_bands_are_a_fresh_build_and_read_only(terms, mirror, oracle_terms):
    """The cache keys a band set by (h, w, terms, boundary): a hit returns the
    same read-only arrays, which hold the bytes of bands built afresh from the
    kernels' own float64 taps, and a second shape gets its own entry."""
    _bands.cache_clear()
    for count, shape in enumerate([(8, 8), (7, 33)], start=1):
        cached = _bands(shape, terms, mirror)
        assert _bands(shape, terms, mirror) is cached
        assert _bands.cache_info().currsize == count
        fresh = [(_band(shape[0], rows, mirror), _band(shape[1], cols, mirror).T)
                 for rows, cols in oracle_terms]
        assert len(cached) == len(fresh)
        for pair, want in zip(cached, fresh):
            for band, oracle in zip(pair, want):
                assert band.dtype == oracle.dtype and band.shape == oracle.shape
                assert band.tobytes() == np.ascontiguousarray(oracle).tobytes()
                assert not band.flags.writeable
                with pytest.raises(ValueError):
                    band[0, 0] = 1.0


def test_band_cache_under_concurrent_misses():
    """Eight threads, more than the cores, with a short switch interval, each
    ask a cleared cache for the same shapes: every thread gets bands with
    the bytes of a serial build, and the cache stays within its size."""
    import sys
    import threading

    shapes = [(8, 8), (9, 7), (16, 12), (5, 33)]
    want = {shape: [band.tobytes() for pair in _bands.__wrapped__(shape, _LOG_TERMS, False)
                    for band in pair] for shape in shapes}
    _bands.cache_clear()
    got, interval = [], sys.getswitchinterval()

    def work():
        for shape in shapes * 5:
            got.append((shape, [band.tobytes() for pair in _bands(shape, _LOG_TERMS, False)
                                for band in pair]))

    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert len(got) == 8 * 5 * len(shapes)
    assert all(bands == want[shape] for shape, bands in got)
    assert _bands.cache_info().currsize == len(shapes) <= _bands.cache_info().maxsize


def test_ssim_matches_windowed_oracle_non_square():
    rec, gt = random_pair(16, shape=(3, 7, 13))
    peak = np.abs(gt.data).max()
    per_frame = [
        ssim_oracle_frame(np.abs(rec.data[t]), np.abs(gt.data[t]), peak) for t in range(3)
    ]
    assert abs(ssim(rec, gt) - np.mean(per_frame)) < 1e-9


def test_identical_volumes_are_exact_at_batched_shape():
    """Identical planes go through identical arithmetic in the batched products."""
    rec, gt = random_pair(17, shape=(8, 64, 64), noise=0.0)
    assert ssim(rec, gt) == 1.0
    assert hfen(rec, gt) == 0.0


# --------------------------------------------------------------- shared


def test_metrics_phase_invariance():
    rng = np.random.default_rng(11)
    rec, gt = random_pair(12)
    for _ in range(3):
        phi = rng.uniform(0, 2 * np.pi)
        rot = ComplexVolume(rec.data * np.exp(1j * phi), Domain.IMAGE)
        assert abs(psnr(rot, gt) - psnr(rec, gt)) < 1e-9
        assert abs(ssim(rot, gt) - ssim(rec, gt)) < 1e-9
        assert abs(hfen(rot, gt) - hfen(rec, gt)) < 1e-9


def test_compute_metrics_bundle():
    """compute_metrics and GroundTruth.score take |rec| once for all three
    metrics and read, bit for bit, what each metric reads called alone; one
    GroundTruth scores several reconstructions, as evaluate scores two."""
    for seed, shape, noise in [(13, (3, 8, 8), 0.3), (15, (2, 12, 9), 0.1), (16, (4, 8, 8), 0.0)]:
        rec, gt = random_pair(seed, shape, noise)
        m = compute_metrics(rec, gt)
        assert isinstance(m, ReconMetrics)
        assert m.psnr == psnr(rec, gt)
        assert m.ssim == ssim(rec, gt)
        assert m.hfen == hfen(rec, gt)
        assert m.ssim <= 1.0 + 1e-9 and m.hfen >= 0.0
        truth = GroundTruth(gt)
        for other in (rec, vol(0.5 * rec.data), rec):
            mr = truth.magnitude(other)
            alone = ReconMetrics(truth.psnr(mr), truth.ssim(mr), truth.hfen(mr))
            assert truth.score(other) == alone == compute_metrics(other, gt)


def test_metrics_shape_mismatch():
    rec, gt = random_pair(14)
    short = ComplexVolume(gt.data[:2], Domain.IMAGE)
    with pytest.raises(ValueError):
        psnr(short, gt)
