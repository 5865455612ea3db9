"""Complex dynamic volumes and centered orthonormal Fourier transforms.

A dynamic sequence lives on a [t][y][x] grid and moves between four spaces:
image (x-t), k-space (k-t), x-f, and k-f.  The spatial pair is connected by a
2D transform over (y, x), the temporal pair by a 1D transform over t.  All
transforms here are centered (zero frequency at index ``N // 2`` for even and
odd N alike) and orthonormal (``1/sqrt(N)`` on both directions), so the
inverse is the adjoint and Parseval holds exactly up to rounding.

Everything is double precision and purely functional: no operation mutates
its input.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

__all__ = [
    "ComplexVolume",
    "Domain",
    "DomainMismatchError",
    "fft2c",
    "fft_t",
    "ifft2c",
    "ifft_t",
]


class Domain(Enum):
    """Which of the four k-t/x-f spaces a volume's values live in."""

    IMAGE = "image"
    KSPACE = "k-space"
    XF = "x-f"
    KF = "k-f"

    @property
    def spatial(self) -> str:
        return "image" if self in (Domain.IMAGE, Domain.XF) else "k"

    @property
    def temporal(self) -> str:
        return "t" if self in (Domain.IMAGE, Domain.KSPACE) else "f"


def _domain_from(spatial: str, temporal: str) -> Domain:
    table = {
        ("image", "t"): Domain.IMAGE,
        ("k", "t"): Domain.KSPACE,
        ("image", "f"): Domain.XF,
        ("k", "f"): Domain.KF,
    }
    return table[(spatial, temporal)]


class DomainMismatchError(ValueError):
    """An operation received a volume tagged with the wrong domain."""


@dataclass(frozen=True)
class ComplexVolume:
    """Dense complex-valued sequence with shape [t_frames, rows, cols].

    Parameters
    ----------
    data : array_like
        Three-dimensional complex array; coerced to complex128.
    domain : Domain
        Space the values are expressed in.  The constructor does not verify
        the tag (it cannot), only shape and finiteness.
    """

    data: np.ndarray
    domain: Domain

    def __post_init__(self):
        arr = np.asarray(self.data, dtype=np.complex128)
        if arr.ndim != 3:
            raise ValueError(f"expected a [t][y][x] array, got ndim={arr.ndim}")
        if min(arr.shape) < 1:
            raise ValueError(f"all dimensions must be >= 1, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("volume contains NaN or Inf")
        object.__setattr__(self, "data", arr)

    @property
    def t_frames(self) -> int:
        return self.data.shape[0]

    @property
    def rows(self) -> int:
        return self.data.shape[1]

    @property
    def cols(self) -> int:
        return self.data.shape[2]


def _fft1c_arr(arr: np.ndarray, axis: int) -> np.ndarray:
    # ifftshift moves index N//2 to the origin, so the kernel is
    # exp(-2i pi (k - N//2)(n - N//2) / N) / sqrt(N) after the final fftshift.
    return np.fft.fftshift(
        np.fft.fft(np.fft.ifftshift(arr, axes=axis), axis=axis, norm="ortho"),
        axes=axis,
    )


def _ifft1c_arr(arr: np.ndarray, axis: int) -> np.ndarray:
    return np.fft.fftshift(
        np.fft.ifft(np.fft.ifftshift(arr, axes=axis), axis=axis, norm="ortho"),
        axes=axis,
    )


def fft2c(v: ComplexVolume) -> ComplexVolume:
    """Per-frame 2D transform over (y, x): image spatial tag -> k."""
    if v.domain.spatial != "image":
        raise DomainMismatchError(f"fft2c needs an image-space volume, got {v.domain.value}")
    out = _fft1c_arr(_fft1c_arr(v.data, 1), 2)
    return ComplexVolume(out, _domain_from("k", v.domain.temporal))


def ifft2c(v: ComplexVolume) -> ComplexVolume:
    """Per-frame inverse 2D transform over (y, x): k spatial tag -> image."""
    if v.domain.spatial != "k":
        raise DomainMismatchError(f"ifft2c needs a k-space volume, got {v.domain.value}")
    out = _ifft1c_arr(_ifft1c_arr(v.data, 1), 2)
    return ComplexVolume(out, _domain_from("image", v.domain.temporal))


def fft_t(v: ComplexVolume) -> ComplexVolume:
    """Temporal transform t -> f; image sequences land in x-f space."""
    if v.domain.temporal != "t":
        raise DomainMismatchError(f"fft_t needs a t-domain volume, got {v.domain.value}")
    return ComplexVolume(_fft1c_arr(v.data, 0), _domain_from(v.domain.spatial, "f"))


def ifft_t(v: ComplexVolume) -> ComplexVolume:
    """Temporal transform f -> t, inverse of :func:`fft_t`."""
    if v.domain.temporal != "f":
        raise DomainMismatchError(f"ifft_t needs an f-domain volume, got {v.domain.value}")
    return ComplexVolume(_ifft1c_arr(v.data, 0), _domain_from(v.domain.spatial, "t"))

