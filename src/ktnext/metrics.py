"""Reconstruction quality metrics on magnitude sequences.

All three metrics compare ``|rec|`` against ``|gt|`` frame by frame, so they
are invariant to a global phase on either argument.  The dynamic range used
by PSNR and SSIM is the peak ground-truth magnitude over the whole sequence,
not per frame, so a quiet frame is not graded on an inflated scale.

SSIM's 11x11 Gaussian window and HFEN's 15x15 Laplacian of Gaussian are both
sums of outer products of 1-D tap vectors (one term and three terms), taken
from the kernels' formulas rather than from a decomposition.  Each term
filters a stack of frames as ``L @ frames @ R.T``, where ``L`` ([h][h]) and
``R`` ([w][w]) are band matrices holding the taps, with the boundary folded
into them.  SSIM uses whole-sample reflection ("mirror": index -1 reads 1,
and frames narrower than the window reflect more than once), which keeps
the map the size of the frame; HFEN uses zero extension.  Every frame and
map of one call goes through the same products, so identical inputs give
identical filtered planes.
"""

from dataclasses import dataclass

import numpy as np

from .volume import ComplexVolume

_SSIM_SIZE = 11
_SSIM_SIGMA = 1.5
_SSIM_K1 = 0.01
_SSIM_K2 = 0.03
_LOG_SIZE = 15
_LOG_SIGMA = 1.5


class UndefinedMetricError(ValueError):
    """The metric has no value for this input (zero normalization)."""


@dataclass(frozen=True)
class ReconMetrics:
    psnr: float
    ssim: float
    hfen: float


def _magnitudes(rec: ComplexVolume, gt: ComplexVolume):
    if rec.data.shape != gt.data.shape:
        raise ValueError(
            f"shape mismatch: rec {rec.data.shape} vs gt {gt.data.shape}"
        )
    return np.abs(rec.data), np.abs(gt.data)


def psnr(rec: ComplexVolume, gt: ComplexVolume) -> float:
    """Peak signal-to-noise ratio in dB; +inf when the volumes agree exactly."""
    mr, mg = _magnitudes(rec, gt)
    mse = float(np.mean((mr - mg) ** 2))
    if mse == 0.0:
        return float(np.inf)
    peak = float(mg.max())
    if peak == 0.0:
        raise UndefinedMetricError("PSNR needs a nonzero ground-truth peak")
    return float(10.0 * np.log10(peak * peak / mse))


def _gaussian_taps(size: int, sigma: float) -> tuple[np.ndarray, np.ndarray]:
    """Offsets -size//2..size//2 and the 1-D Gaussian over them, summing to 1.

    The 2-D normalised Gaussian window is the outer product of these taps.
    """
    half = size // 2
    x = np.arange(-half, half + 1, dtype=float)
    g = np.exp(-(x * x) / (2.0 * sigma * sigma))
    return x, g / g.sum()


def _band(n: int, taps: np.ndarray, mirror: bool) -> np.ndarray:
    """[n][n] matrix M with (M @ v)[i] = sum_k taps[k] * v[i + k - len(taps)//2].

    Indices outside 0..n-1 reflect about the end samples when ``mirror``
    (scipy.ndimage's "mirror" mode, period 2(n-1)) and read zero otherwise.
    """
    half = len(taps) // 2
    cols = np.arange(n)[:, None] + np.arange(-half, half + 1)
    weights = np.broadcast_to(taps, cols.shape)
    if mirror:
        period = max(2 * (n - 1), 1)
        cols = cols % period
        cols = np.where(cols >= n, period - cols, cols)
    else:
        weights = np.where((cols >= 0) & (cols < n), weights, 0.0)
        cols = np.clip(cols, 0, n - 1)
    flat = (np.arange(n)[:, None] * n + cols).ravel()
    return np.bincount(flat, weights.ravel(), minlength=n * n).reshape(n, n)


def _log_terms(size: int, sigma: float):
    """The zero-mean LoG kernel as three (row taps, column taps) outer products.

    With the normalised Gaussian g and q = g * (x^2 - sigma^2) / sigma^4, the
    kernel g(y)g(x)(x^2 + y^2 - 2 sigma^2) / sigma^4 is outer(g, q) + outer(q, g);
    its mean over the size x size support is subtracted as a constant term.
    """
    x, g = _gaussian_taps(size, sigma)
    q = g * (x * x - sigma * sigma) / sigma**4
    mean = 2.0 * g.sum() * q.sum() / (size * size)
    ones = np.ones(size)
    return ((g, q), (q, g), (-mean * ones, ones))


_SSIM_WINDOW_TAPS = _gaussian_taps(_SSIM_SIZE, _SSIM_SIGMA)[1]
_SSIM_TERMS = ((_SSIM_WINDOW_TAPS, _SSIM_WINDOW_TAPS),)
_LOG_TERMS = _log_terms(_LOG_SIZE, _LOG_SIGMA)


def _filter(planes: np.ndarray, terms, mirror: bool) -> np.ndarray:
    """Correlate every trailing [h][w] plane of ``planes`` with the kernel
    sum(outer(row_taps, col_taps) for row_taps, col_taps in terms)."""
    # The band matrices are rebuilt per call (tens of microseconds each): a
    # cache of them, allocated between forward passes and kept, pinned the
    # heap and raised evaluate's peak RSS at 64x64 by about 4 MB.
    h, w = planes.shape[-2:]
    out = None
    for row_taps, col_taps in terms:
        part = _band(h, row_taps, mirror) @ planes @ _band(w, col_taps, mirror).T
        out = part if out is None else out + part
    return out


def ssim(rec: ComplexVolume, gt: ComplexVolume) -> float:
    """Mean structural similarity, 11x11 Gaussian windows, averaged over frames."""
    mr, mg = _magnitudes(rec, gt)
    peak = float(mg.max())
    c1 = (_SSIM_K1 * peak) ** 2
    c2 = (_SSIM_K2 * peak) ** 2
    maps = np.stack([mr, mg, mr * mr, mg * mg, mr * mg])
    mu_a, mu_b, ea2, eb2, eab = _filter(maps, _SSIM_TERMS, mirror=True)
    var_a = ea2 - mu_a * mu_a
    var_b = eb2 - mu_b * mu_b
    cov = eab - mu_a * mu_b
    num = (2.0 * mu_a * mu_b + c1) * (2.0 * cov + c2)
    den = (mu_a * mu_a + mu_b * mu_b + c1) * (var_a + var_b + c2)
    with np.errstate(invalid="ignore"):
        ssim_map = np.where(den == 0.0, 1.0, num / np.where(den == 0.0, 1.0, den))
    return float(np.mean(ssim_map.mean(axis=(1, 2))))


def hfen(rec: ComplexVolume, gt: ComplexVolume) -> float:
    """High-frequency error norm: relative L2 distance of LoG-filtered magnitudes.

    Uses a 15x15 Laplacian-of-Gaussian kernel (sigma 1.5) with zero padding,
    pooling the squared errors over every frame before taking the ratio.
    Raises UndefinedMetricError when the filtered ground truth has zero norm.
    """
    mr, mg = _magnitudes(rec, gt)
    # the kernel is symmetric, so correlation and convolution coincide
    fr, fg = _filter(np.stack([mr, mg]), _LOG_TERMS, mirror=False)
    num = float(((fr - fg) ** 2).sum())
    den = float((fg * fg).sum())
    if den == 0.0:
        raise UndefinedMetricError("LoG of the ground truth is identically zero")
    return float(np.sqrt(num) / np.sqrt(den))


def compute_metrics(rec: ComplexVolume, gt: ComplexVolume) -> ReconMetrics:
    return ReconMetrics(psnr=psnr(rec, gt), ssim=ssim(rec, gt), hfen=hfen(rec, gt))
