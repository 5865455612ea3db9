"""Temporal-average baseline and data consistency.

One de-aliasing step takes the current image estimate sigma, forms the
temporal average of the acquired k-space (a motion-blurred but alias-reduced
baseline) and re-imposes each frame's own acquired data on that baseline.
The cascade in :mod:`ktnext.model` expresses that baseline and the residual
(current estimate minus average) in x-f space, where a CNN can separate
signal from aliasing.  Each readout row y is independent throughout: all
operations act on (x, f) or (x, t) planes broadcast over y.
"""

from __future__ import annotations

import math

import numpy as np

from .sampling import KtMeasurement
from .volume import ComplexVolume, Domain, DomainMismatchError

__all__ = [
    "data_consistency",
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


def _blend_with_acquired(base_frames: np.ndarray, kdata: np.ndarray, bits: np.ndarray) -> np.ndarray:
    """Pure selection: acquired value where sampled, base value elsewhere."""
    return np.where(bits[:, None, :] == 1, kdata, base_frames)


def dc_baseline_kspace(avg: np.ndarray, m: KtMeasurement) -> ComplexVolume:
    """Replicate the average over frames, hard-replacing each frame's own
    acquired samples."""
    rows, cols = m.kspace.rows, m.kspace.cols
    if avg.shape != (rows, cols):
        raise ValueError(f"average plane {avg.shape} does not match k-space ({rows}, {cols})")
    frames = np.broadcast_to(avg, m.kspace.data.shape)
    out = _blend_with_acquired(frames, m.kspace.data, m.mask.bits)
    return ComplexVolume(out, Domain.KSPACE)


def data_consistency(pred_k: ComplexVolume, m: KtMeasurement, lam: float) -> ComplexVolume:
    """Re-impose acquired k-space on a prediction.

    Sampled positions become (pred + lam*acquired) / (1 + lam); lam = inf
    means hard replacement.  Unsampled positions pass through untouched.
    """
    if pred_k.domain.spatial != "k":
        raise DomainMismatchError(f"data consistency acts in k-space, got {pred_k.domain.value}")
    if pred_k.data.shape != m.kspace.data.shape:
        raise ValueError(
            f"prediction {pred_k.data.shape} does not match measurement {m.kspace.data.shape}"
        )
    if lam < 0:
        raise ValueError(f"lambda must be nonnegative, got {lam}")
    bits = m.mask.bits[:, None, :]
    if math.isinf(lam):
        out = np.where(bits == 1, m.kspace.data, pred_k.data)
    else:
        blended = (pred_k.data + lam * m.kspace.data) / (1.0 + lam)
        out = np.where(bits == 1, blended, pred_k.data)
    return ComplexVolume(out, pred_k.domain)

