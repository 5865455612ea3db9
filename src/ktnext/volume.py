"""Complex dynamic volumes and centered orthonormal Fourier transforms.

A dynamic sequence lives on a [t][y][x] grid, and the program visits three
spaces: image (x-t), k-space (k-t) and x-f.  A 2D transform over (y, x)
connects image and k-space, a 1D transform over t takes image to x-f.  All
transforms here are centered (zero frequency at index ``N // 2`` for even and
odd N alike) and orthonormal (``1/sqrt(N)`` on both directions), so the
inverse is the adjoint and Parseval holds exactly up to rounding.  The
centring shifts are each one copy of two slices, the values np.fft's move.

A ComplexVolume holds complex128; the array transforms keep their input's
precision, so the tape's float32 graph runs them on complex64.  Nothing here
mutates its input.
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
]


class Domain(Enum):
    """Which of the three spaces a volume's values live in."""

    IMAGE = "image"
    KSPACE = "k-space"
    XF = "x-f"


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


def _shift(arr: np.ndarray, axis: int, inverse: bool = False) -> np.ndarray:
    """np.fft.fftshift (ifftshift if inverse) along axis, as one two-slice copy:
    the entries from index ``at`` on, then those before it."""
    n, lead = arr.shape[axis], (slice(None),) * (axis % arr.ndim)
    at = n // 2 if inverse else n - n // 2
    return np.concatenate((arr[lead + (slice(at, None),)], arr[lead + (slice(0, at),)]), axis=axis)


def _fft1c_arr(arr: np.ndarray, axis: int) -> np.ndarray:
    # ifftshift moves index N//2 to the origin, so the kernel is
    # exp(-2i pi (k - N//2)(n - N//2) / N) / sqrt(N) after the final fftshift.
    return _shift(np.fft.fft(_shift(arr, axis, inverse=True), axis=axis, norm="ortho"), axis)


def _ifft1c_arr(arr: np.ndarray, axis: int) -> np.ndarray:
    return _shift(np.fft.ifft(_shift(arr, axis, inverse=True), axis=axis, norm="ortho"), axis)


def fft2c(v: ComplexVolume) -> ComplexVolume:
    """Per-frame 2D transform over (y, x): image -> k-space."""
    if v.domain is not Domain.IMAGE:
        raise DomainMismatchError(f"fft2c needs an image volume, got {v.domain.value}")
    return ComplexVolume(_fft1c_arr(_fft1c_arr(v.data, 1), 2), Domain.KSPACE)


def ifft2c(v: ComplexVolume) -> ComplexVolume:
    """Per-frame inverse 2D transform over (y, x): k-space -> image."""
    if v.domain is not Domain.KSPACE:
        raise DomainMismatchError(f"ifft2c needs a k-space volume, got {v.domain.value}")
    return ComplexVolume(_ifft1c_arr(_ifft1c_arr(v.data, 1), 2), Domain.IMAGE)


def fft_t(v: ComplexVolume) -> ComplexVolume:
    """Temporal transform t -> f: image -> x-f."""
    if v.domain is not Domain.IMAGE:
        raise DomainMismatchError(f"fft_t needs an image volume, got {v.domain.value}")
    return ComplexVolume(_fft1c_arr(v.data, 0), Domain.XF)
