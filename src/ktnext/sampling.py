"""k-t sampling: shear-grid masks, retrospective undersampling, phantoms, files.

The acquisition model is single-coil Cartesian: every frame fully samples the
readout axis y and subsamples phase-encode columns x.  A mask is therefore a
binary [t][x] array broadcast over y.

Sequence files ("CKT1") and mask files ("CKM1") are little-endian binary with
a 4-byte magic; loading failures raise distinct error types so callers can
map them to exit codes.  :class:`BinaryReader` holds the checks those readers
share with the checkpoint reader in :mod:`ktnext.network`.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .volume import ComplexVolume, Domain, DomainMismatchError, fft2c, ifft2c

__all__ = [
    "AcquisitionSpec",
    "BadMagicError",
    "BadPayloadError",
    "BinaryReader",
    "DimensionOverflowError",
    "FileFormatError",
    "KtMeasurement",
    "SamplingMask",
    "TruncatedPayloadError",
    "generate_phantom",
    "load_mask",
    "load_sequence",
    "make_shear_mask",
    "save_mask",
    "save_sequence",
    "undersample",
    "zero_filled",
]


class FileFormatError(ValueError):
    """Base class for sequence/mask/checkpoint file violations."""


class BadMagicError(FileFormatError):
    pass


class TruncatedPayloadError(FileFormatError):
    pass


class DimensionOverflowError(FileFormatError):
    pass


class BadPayloadError(FileFormatError):
    """The file is complete but holds values its format does not allow."""


# refuse to allocate for absurd headers (1 TiB payload cap)
_MAX_PAYLOAD_BYTES = 1 << 40


class BinaryReader:
    """Cursor over the bytes of one little-endian binary file, read whole.

    The constructor checks the 4-byte magic.  Every read advances the cursor
    and raises TruncatedPayloadError when the file ends first; ``array``
    refuses a payload over the size cap before looking for it, and returns
    a read-only view into the file's bytes; ``finish`` rejects trailing
    bytes.
    """

    def __init__(self, path, magic: bytes):
        self.path = path
        self.raw = Path(path).read_bytes()
        if len(self.raw) < 4:
            raise TruncatedPayloadError(f"{path}: shorter than the magic")
        if self.raw[:4] != magic:
            raise BadMagicError(f"{path}: expected magic {magic.decode()}, got {self.raw[:4]!r}")
        self.pos = 4

    def _take(self, n: int, what: str) -> int:
        start = self.pos
        if start + n > len(self.raw):
            raise TruncatedPayloadError(f"{self.path}: truncated while reading {what}")
        self.pos = start + n
        return start

    def unpack(self, fmt: str, what: str) -> tuple:
        return struct.unpack_from(fmt, self.raw, self._take(struct.calcsize(fmt), what))

    def array(self, dtype, shape, what: str) -> np.ndarray:
        dtype = np.dtype(dtype)
        count = math.prod(shape)
        if count * dtype.itemsize > _MAX_PAYLOAD_BYTES:
            raise DimensionOverflowError(f"{self.path}: {what} of shape {shape} out of range")
        start = self._take(count * dtype.itemsize, what)
        flat = np.frombuffer(self.raw, dtype=dtype, count=count, offset=start)
        try:
            return flat.reshape(shape)
        except ValueError as exc:  # more axes, or a larger extent, than numpy allows
            raise DimensionOverflowError(f"{self.path}: {what} of shape {shape}: {exc}") from exc

    def finish(self) -> None:
        if self.pos != len(self.raw):
            raise FileFormatError(f"{self.path}: {len(self.raw) - self.pos} trailing bytes")


@dataclass(frozen=True)
class AcquisitionSpec:
    """Nominal acquisition protocol.

    accel is the nominal acceleration factor; n_center lines around the
    k-space center are always acquired on top of the shear lattice.
    """

    accel: int
    n_center: int = 4

    def __post_init__(self):
        if self.accel < 1:
            raise ValueError(f"accel must be >= 1, got {self.accel}")
        if self.n_center < 0:
            raise ValueError(f"n_center must be >= 0, got {self.n_center}")


@dataclass(frozen=True)
class SamplingMask:
    """Binary [t][x] mask; every frame must sample at least one column."""

    bits: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.bits)
        if arr.ndim != 2:
            raise ValueError(f"mask must be [t][x], got ndim={arr.ndim}")
        if min(arr.shape) < 1:
            raise ValueError(f"mask dimensions must be >= 1, got {arr.shape}")
        if not np.isin(arr, (0, 1)).all():
            raise ValueError("mask entries must be 0 or 1")
        arr = arr.astype(np.uint8)
        if not arr.any(axis=1).all():
            raise ValueError("every frame must sample at least one column")
        object.__setattr__(self, "bits", arr)

    @property
    def t_frames(self) -> int:
        return self.bits.shape[0]

    @property
    def cols(self) -> int:
        return self.bits.shape[1]


@dataclass(frozen=True)
class KtMeasurement:
    """Acquired k-t data with its mask; zero everywhere off the mask support."""

    kspace: ComplexVolume
    mask: SamplingMask

    def __post_init__(self):
        if self.kspace.domain is not Domain.KSPACE:
            raise DomainMismatchError("measurement k-space must carry the k-space domain tag")
        if (self.kspace.t_frames, self.kspace.cols) != (self.mask.t_frames, self.mask.cols):
            raise ValueError(
                f"k-space {self.kspace.data.shape} does not match "
                f"mask {self.mask.bits.shape}"
            )
        off = self.kspace.data * (1 - self.mask.bits[:, None, :])
        if np.any(off != 0):
            raise ValueError("k-space carries energy at unsampled positions")


def make_shear_mask(spec: AcquisitionSpec, t_frames: int, cols: int) -> SamplingMask:
    """Shear-grid k-t lattice plus an always-on center block.

    Frame t samples {x : (x - t) mod accel == 0} together with the n_center
    columns starting at cols//2 - n_center//2.
    """
    if cols < spec.n_center:
        raise ValueError(f"cols={cols} is smaller than n_center={spec.n_center}")
    if t_frames < 1:
        raise ValueError("t_frames must be >= 1")
    t = np.arange(t_frames)[:, None]
    x = np.arange(cols)[None, :]
    bits = ((x - t) % spec.accel == 0).astype(np.uint8)
    start = cols // 2 - spec.n_center // 2
    bits[:, start : start + spec.n_center] = 1
    return SamplingMask(bits)


def undersample(img: ComplexVolume, mask: SamplingMask) -> KtMeasurement:
    """Mask the 2D spectrum of an image sequence, broadcast over readout y."""
    if img.domain is not Domain.IMAGE:
        raise DomainMismatchError(f"undersample expects an image sequence, got {img.domain.value}")
    if (img.t_frames, img.cols) != (mask.t_frames, mask.cols):
        raise ValueError(
            f"image {img.data.shape} does not match mask {mask.bits.shape}"
        )
    k = fft2c(img)
    data = k.data * mask.bits[:, None, :]
    return KtMeasurement(ComplexVolume(data, Domain.KSPACE), mask)


def zero_filled(m: KtMeasurement) -> ComplexVolume:
    """Inverse 2D transform with missing k-space entries left at zero."""
    return ifft2c(m.kspace)


# ------------------------------------------------------------------ phantom


def _soft_ellipse(yy, xx, cy, cx, ry, rx, edge=0.35):
    d = ((yy - cy) / ry) ** 2 + ((xx - cx) / rx) ** 2
    u = np.clip((1.0 - d) / edge, 0.0, 1.0)
    return u * u * (3.0 - 2.0 * u)


def generate_phantom(seed, t_frames, rows, cols) -> ComplexVolume:
    """Seeded dynamic ellipse phantom with one motion cycle over its t_frames.

    A static background ellipse plus 2 to 4 inner ellipses whose centers and
    radii oscillate sinusoidally.  A smooth static spatial phase makes the
    data genuinely complex.  Magnitudes are clipped to [0, 1].  All random
    draws happen before the frame loop, so the geometry depends only on the
    seed and the grid size, never on t_frames.
    """
    if rows < 8 or cols < 8:
        raise ValueError(f"rows and cols must be >= 8, got {rows}x{cols}")
    if t_frames < 1:
        raise ValueError("t_frames must be >= 1")
    rng = np.random.default_rng(seed)

    bg_cy, bg_cx = rows / 2.0, cols / 2.0
    bg_ry, bg_rx = 0.42 * rows, 0.44 * cols
    bg_val = 0.30

    n_inner = int(rng.integers(2, 5))
    cy0 = bg_cy + rng.uniform(-0.16, 0.16, n_inner) * rows
    cx0 = bg_cx + rng.uniform(-0.16, 0.16, n_inner) * cols
    ry0 = rng.uniform(0.08, 0.18, n_inner) * rows
    rx0 = rng.uniform(0.08, 0.18, n_inner) * cols
    amp_cy = rng.uniform(0.02, 0.06, n_inner) * rows
    amp_cx = rng.uniform(0.02, 0.06, n_inner) * cols
    amp_r = rng.uniform(0.05, 0.20, n_inner)
    osc_phase = rng.uniform(0.0, 2.0 * np.pi, n_inner)
    vals = rng.uniform(0.25, 0.65, n_inner)

    p_lin = rng.uniform(-0.8, 0.8, 2)
    p_sin = rng.uniform(-0.6, 0.6)
    p_off = rng.uniform(0.0, 2.0 * np.pi, 2)

    yy, xx = np.meshgrid(np.arange(rows, dtype=float), np.arange(cols, dtype=float), indexing="ij")
    phase_map = (
        p_lin[0] * yy / rows
        + p_lin[1] * xx / cols
        + p_sin * np.sin(2 * np.pi * yy / rows + p_off[0]) * np.sin(2 * np.pi * xx / cols + p_off[1])
    )
    phase_factor = np.exp(1j * phase_map)

    data = np.empty((t_frames, rows, cols), dtype=np.complex128)
    for t in range(t_frames):
        osc = np.sin(2.0 * np.pi * t / t_frames + osc_phase)
        mag = bg_val * _soft_ellipse(yy, xx, bg_cy, bg_cx, bg_ry, bg_rx)
        for k in range(n_inner):
            cy = cy0[k] + amp_cy[k] * osc[k]
            cx = cx0[k] + amp_cx[k] * osc[k]
            ry = ry0[k] * (1.0 + amp_r[k] * osc[k])
            rx = rx0[k] * (1.0 + amp_r[k] * osc[k])
            mag = mag + vals[k] * _soft_ellipse(yy, xx, cy, cx, ry, rx)
        data[t] = np.clip(mag, 0.0, 1.0) * phase_factor
    return ComplexVolume(data, Domain.IMAGE)


# ------------------------------------------------------------------ files


def save_sequence(path, v: ComplexVolume) -> None:
    """Write a CKT1 file: magic, u32 T/Y/X, float32 interleaved re/im."""
    t, y, x = v.data.shape
    if max(t, y, x) > 0xFFFFFFFF or 8 * t * y * x > _MAX_PAYLOAD_BYTES:
        raise DimensionOverflowError(f"volume shape {v.data.shape} too large for CKT1")
    payload = np.empty((t, y, x, 2), dtype="<f4")
    payload[..., 0] = v.data.real
    payload[..., 1] = v.data.imag
    Path(path).write_bytes(b"CKT1" + struct.pack("<III", t, y, x) + payload.tobytes())


def load_sequence(path, domain: Domain = Domain.IMAGE) -> ComplexVolume:
    """Read a CKT1 file; the domain tag is supplied by the caller."""
    reader = BinaryReader(path, b"CKT1")
    t, y, x = reader.unpack("<III", "the header")
    if min(t, y, x) < 1:
        raise DimensionOverflowError(f"{path}: declared shape {(t, y, x)} out of range")
    arr = reader.array("<f4", (t, y, x, 2), "the payload")
    reader.finish()
    with np.errstate(invalid="ignore"):  # a signaling NaN warns here; ComplexVolume rejects it
        data = arr[..., 0].astype(np.float64) + 1j * arr[..., 1].astype(np.float64)
    try:
        return ComplexVolume(data, domain)
    except ValueError as exc:
        raise BadPayloadError(f"{path}: {exc}") from exc


def save_mask(path, mask: SamplingMask) -> None:
    """Write a CKM1 file: magic, u32 T/X, then T*X bytes of 0/1."""
    t, x = mask.bits.shape
    if max(t, x) > 0xFFFFFFFF:
        raise DimensionOverflowError(f"mask shape {mask.bits.shape} too large for CKM1")
    Path(path).write_bytes(b"CKM1" + struct.pack("<II", t, x) + mask.bits.tobytes())


def load_mask(path) -> SamplingMask:
    reader = BinaryReader(path, b"CKM1")
    t, x = reader.unpack("<II", "the header")
    if min(t, x) < 1:
        raise DimensionOverflowError(f"{path}: declared shape {(t, x)} out of range")
    bits = reader.array(np.uint8, (t, x), "the mask bits")
    reader.finish()
    try:
        return SamplingMask(bits)
    except ValueError as exc:
        raise BadPayloadError(f"{path}: {exc}") from exc
