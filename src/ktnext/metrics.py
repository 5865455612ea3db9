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
map goes through the same products, so identical inputs give identical
filtered planes.  The bands depend only on the frame shape: each shape's are
built once, read-only, and shared by every sequence and thread.

A GroundTruth prepares the ground truth's side once, and ``score`` takes
``|rec|`` once for its three metric methods; ``psnr``, ``ssim``, ``hfen`` and
``compute_metrics`` wrap it, so each formula exists once.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .volume import ComplexVolume

_SSIM_SIZE = 11
_SSIM_SIGMA = 1.5
_SSIM_K1 = 0.01
_SSIM_K2 = 0.03
_LOG_SIZE = 15
_LOG_SIGMA = 1.5


@dataclass(frozen=True)
class ReconMetrics:
    psnr: float
    ssim: float
    hfen: float


def _gaussian_taps(size: int, sigma: float) -> tuple[np.ndarray, np.ndarray]:
    """Offsets -size//2..size//2 and the 1-D Gaussian over them, summing to 1.

    The 2-D normalised Gaussian window is the outer product of these taps.
    """
    half = size // 2
    x = np.arange(-half, half + 1, dtype=float)
    g = np.exp(-(x * x) / (2.0 * sigma * sigma))
    return x, g / g.sum()


def _band(n: int, taps, mirror: bool) -> np.ndarray:
    """Read-only [n][n] matrix M with (M @ v)[i] = sum_k taps[k] * v[i + k - len(taps)//2].

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
    band = np.bincount(flat, weights.ravel(), minlength=n * n).reshape(n, n)
    band.setflags(write=False)
    return band


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


_SSIM_WINDOW_TAPS = tuple(_gaussian_taps(_SSIM_SIZE, _SSIM_SIGMA)[1])  # tuples key _bands' cache
_SSIM_TERMS = ((_SSIM_WINDOW_TAPS, _SSIM_WINDOW_TAPS),)
_LOG_TERMS = tuple(tuple(map(tuple, term)) for term in _log_terms(_LOG_SIZE, _LOG_SIGMA))


@lru_cache(maxsize=8)
def _bands(shape, terms, mirror: bool):
    """Each term's row band and transposed column band for [h][w] planes,
    built once per (h, w, terms, mirror) and read-only, so threads share them."""
    h, w = shape
    return tuple((_band(h, rows, mirror), _band(w, cols, mirror).T) for rows, cols in terms)


def _filter(planes: np.ndarray, bands) -> np.ndarray:
    """Correlate every trailing [h][w] plane of ``planes`` with the kernel
    sum(outer(row_taps, col_taps) for row_taps, col_taps in terms), by _bands."""
    out = None
    for left, right in bands:
        part = left @ planes @ right
        out = part if out is None else out + part
    return out


class GroundTruth:
    """A ground truth prepared once for scoring any number of reconstructions;
    the metric methods take |rec| as ``magnitude`` returns it, shape checked."""

    def __init__(self, gt: ComplexVolume):
        self.mag = np.abs(gt.data)
        self.peak = float(self.mag.max())
        self._planes = None

    def magnitude(self, rec: ComplexVolume) -> np.ndarray:
        if rec.data.shape != self.mag.shape:
            raise ValueError(f"shape mismatch: rec {rec.data.shape} vs gt {self.mag.shape}")
        return np.abs(rec.data)

    def _gt_planes(self):
        """SSIM's bands and |gt|'s mean and mean square under them, then the
        LoG's bands, |gt|'s LoG and its squared norm; built on first use (psnr
        builds none), with no lock, as evaluate's threads each score their own."""
        if self._planes is None:
            ssim = _bands(self.mag.shape[-2:], _SSIM_TERMS, mirror=True)
            log = _bands(self.mag.shape[-2:], _LOG_TERMS, mirror=False)
            plane = _filter(self.mag, log)
            self._planes = (ssim, *_filter(np.stack([self.mag, self.mag * self.mag]), ssim),
                            log, plane, float((plane * plane).sum()))
        return self._planes

    def psnr(self, mr: np.ndarray) -> float:
        mse = float(np.mean((mr - self.mag) ** 2))
        if mse == 0.0:
            return float(np.inf)
        if self.peak == 0.0:
            raise FloatingPointError("PSNR needs a nonzero ground-truth peak")
        return float(10.0 * np.log10(self.peak * self.peak / mse))

    def ssim(self, mr: np.ndarray) -> float:
        bands, mu_b, eb2 = self._gt_planes()[:3]
        c1, c2 = (_SSIM_K1 * self.peak) ** 2, (_SSIM_K2 * self.peak) ** 2
        mu_a, ea2, eab = _filter(np.stack([mr, mr * mr, mr * self.mag]), bands)
        var_a = ea2 - mu_a * mu_a
        var_b = eb2 - mu_b * mu_b
        cov = eab - mu_a * mu_b
        num = (2.0 * mu_a * mu_b + c1) * (2.0 * cov + c2)
        den = (mu_a * mu_a + mu_b * mu_b + c1) * (var_a + var_b + c2)
        with np.errstate(invalid="ignore"):
            ssim_map = np.where(den == 0.0, 1.0, num / np.where(den == 0.0, 1.0, den))
        return float(np.mean(ssim_map.mean(axis=(1, 2))))

    def hfen(self, mr: np.ndarray) -> float:
        # the kernel is symmetric, so correlation and convolution coincide
        bands, fg, den = self._gt_planes()[3:]
        num = float(((_filter(mr, bands) - fg) ** 2).sum())
        if den == 0.0:
            raise FloatingPointError("LoG of the ground truth is identically zero")
        return float(np.sqrt(num) / np.sqrt(den))

    def score(self, rec: ComplexVolume) -> ReconMetrics:
        mr = self.magnitude(rec)
        return ReconMetrics(psnr=self.psnr(mr), ssim=self.ssim(mr), hfen=self.hfen(mr))


def psnr(rec: ComplexVolume, gt: ComplexVolume) -> float:
    """Peak signal-to-noise ratio in dB; +inf when the volumes agree exactly."""
    truth = GroundTruth(gt)
    return truth.psnr(truth.magnitude(rec))


def ssim(rec: ComplexVolume, gt: ComplexVolume) -> float:
    """Mean structural similarity, 11x11 Gaussian windows, averaged over frames."""
    truth = GroundTruth(gt)
    return truth.ssim(truth.magnitude(rec))


def hfen(rec: ComplexVolume, gt: ComplexVolume) -> float:
    """High-frequency error norm: relative L2 distance of magnitudes filtered by
    a 15x15 Laplacian of Gaussian (sigma 1.5, zero padding), pooled over every
    frame.  Raises FloatingPointError when the filtered ground truth is 0."""
    truth = GroundTruth(gt)
    return truth.hfen(truth.magnitude(rec))


def compute_metrics(rec: ComplexVolume, gt: ComplexVolume) -> ReconMetrics:
    return GroundTruth(gt).score(rec)
