"""Temporal-average baseline and the data-consistency map.

One de-aliasing step takes the current image estimate sigma, forms the
temporal average of the acquired k-space (a motion-blurred but alias-reduced
baseline) and re-imposes each frame's own acquired data on that baseline.
The cascade in :mod:`ktnext.model` expresses that baseline and the residual
(current estimate minus average) in x-f space, where a CNN can separate
signal from aliasing.  Each readout row y is independent throughout: all
operations act on (x, f) or (x, t) planes broadcast over y.

:func:`dc_array` is the one data-consistency map; the tape's DC node,
:func:`ktnext.autodiff.data_consistency`, calls it too.
"""

from __future__ import annotations

import math

import numpy as np

from .sampling import KtMeasurement
from .volume import ComplexVolume, Domain

__all__ = [
    "dc_array",
    "dc_baseline_kspace",
    "kspace_temporal_average",
]


def kspace_temporal_average(m: KtMeasurement) -> np.ndarray:
    """Per-position mean of acquired samples: sum_t v / max(1, sum_t sampled).

    Accumulates in ascending t so the result is bit-identical to a literal
    per-position loop; positions never sampled anywhere come out exactly 0
    because the measurement is zero off the mask support.
    """
    kdata = m.kspace.data
    acc = np.zeros(kdata.shape[1:], dtype=np.complex128)
    for t in range(kdata.shape[0]):
        acc = acc + kdata[t]
    counts = np.zeros(m.mask.cols, dtype=np.int64)
    for t in range(m.mask.t_frames):
        counts = counts + m.mask.bits[t]
    return acc / np.maximum(1, counts)[None, :]


def dc_array(pred: np.ndarray, kdata: np.ndarray, bits: np.ndarray, lam: float) -> np.ndarray:
    """The data-consistency map on [t][y][x] arrays, with bits a [t][x] mask.

    Sampled positions become (pred + lam*kdata) / (1 + lam), or exactly
    kdata at lam = inf; unsampled positions keep pred.
    """
    acquired = kdata if math.isinf(lam) else (pred + lam * kdata) / (1.0 + lam)
    return np.where(bits[:, None, :] == 1, acquired, pred)


def dc_baseline_kspace(avg: np.ndarray, m: KtMeasurement) -> ComplexVolume:
    """Replicate the average over frames, hard-replacing each frame's own
    acquired samples."""
    rows, cols = m.kspace.rows, m.kspace.cols
    if avg.shape != (rows, cols):
        raise ValueError(f"average plane {avg.shape} does not match k-space ({rows}, {cols})")
    frames = np.broadcast_to(avg, m.kspace.data.shape)
    out = dc_array(frames, m.kspace.data, m.mask.bits, math.inf)
    return ComplexVolume(out, Domain.KSPACE)

