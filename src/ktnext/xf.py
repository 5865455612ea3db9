"""Temporal-average baseline, the cascade's per-sequence inputs, and the
data-consistency map.

One de-aliasing step takes the current image estimate sigma, forms the
temporal average of the acquired k-space (a motion-blurred but alias-reduced
baseline) and re-imposes each frame's own acquired data on that baseline.
The cascade in :mod:`ktnext.model` expresses that baseline and the residual
(current estimate minus average) in x-f space, where a CNN can separate
signal from aliasing; by linearity the residual is F_t (sigma - F_2^-1 avg).

The Cartesian mask is constant along the readout y, so the y-transform
commutes with it and with hard data consistency:
F_2^-1 dc(p, k) = F_x^-1 dc(F_y^-1 p, F_y^-1 k).  :func:`cascade_inputs`
therefore transforms the data and the average along y once each and builds
every per-sequence input from those two arrays with one x- or t-pass.  Each
1-D pass acts on every line alone, and DC only selects values, so each input
keeps the bits of the 2-D form it replaces.

:func:`dc_array` is the one data-consistency map.  The tape's DC node,
:func:`ktnext.autodiff.data_consistency`, takes an image estimate and runs
it in (y, k_x) space against k_hybrid, between an x-pass and its inverse.
"""

from __future__ import annotations

import math

import numpy as np

from .sampling import KtMeasurement
from .volume import _fft1c_arr, _ifft1c_arr

__all__ = [
    "cascade_inputs",
    "dc_array",
    "kspace_temporal_average",
]


def kspace_temporal_average(m: KtMeasurement) -> np.ndarray:
    """Per-position mean of acquired samples: sum_t v / max(1, sum_t sampled).

    The builtin sum adds the frames in ascending t from 0, so the result is
    bit-identical to a literal per-position loop; ``sum(axis=0)`` is not,
    since numpy adds pairwise along an axis it finds contiguous, as it is for
    a [t][1][1] sequence.  Positions never sampled anywhere come out exactly
    0 because the measurement is zero off the mask support.
    """
    return sum(m.kspace.data) / np.maximum(1, m.mask.bits.sum(axis=0))[None, :]


def dc_array(pred: np.ndarray, kdata: np.ndarray, bits: np.ndarray, lam: float) -> np.ndarray:
    """The data-consistency map on [t][y][x] arrays, with bits a [t][x] mask.

    Sampled positions become (pred + lam*kdata) / (1 + lam), or exactly
    kdata at lam = inf; unsampled positions keep pred.
    """
    acquired = kdata if math.isinf(lam) else (pred + lam * kdata) / (1.0 + lam)
    return np.where(bits[:, None, :] == 1, acquired, pred)


def cascade_inputs(m: KtMeasurement):
    """The arrays a cascade needs that do not depend on its estimate.

    Returns (zero-filled image F_2^-1 k, the average's image F_2^-1 avg as a
    [1][y][x] array, k_hybrid = F_y^-1 k on [t][y][k_x], and the x-f
    baseline F_t F_2^-1 of the average with each frame's own samples put
    back).  avg is :func:`kspace_temporal_average`.
    """
    k_hybrid = _ifft1c_arr(m.kspace.data, 1)
    avg_hybrid = _ifft1c_arr(kspace_temporal_average(m)[None], 1)
    baseline = dc_array(np.broadcast_to(avg_hybrid, k_hybrid.shape), k_hybrid, m.mask.bits,
                        math.inf)
    return (_ifft1c_arr(k_hybrid, 2), _ifft1c_arr(avg_hybrid, 2), k_hybrid,
            _fft1c_arr(_ifft1c_arr(baseline, 2), 0))
