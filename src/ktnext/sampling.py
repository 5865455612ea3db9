"""k-t sampling: shear-grid masks, retrospective undersampling, phantoms, files.

The acquisition model is single-coil Cartesian: every frame fully samples the
readout axis y and subsamples phase-encode columns x.  A mask is therefore a
binary [t][x] array broadcast over y.

Sequence ("CKT1") and mask ("CKM1") files each hold one little-endian array:
a 4-byte magic, one u32 per axis, the payload; one writer and one reader serve
both.  :func:`check_size` is the one size rule, which the KTNP checkpoints of
:mod:`ktnext.network` share, as they share :class:`BinaryReader`.  Every loading
failure raises :class:`FileFormatError`, whose message names the fault.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .volume import ComplexVolume, Domain, fft2c, ifft2c

__all__ = [
    "BinaryReader",
    "FileFormatError",
    "KtMeasurement",
    "SamplingMask",
    "check_size",
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
    """A sequence, mask or checkpoint file that breaks its format."""


_MAX_PAYLOAD_BYTES = 1 << 40  # 1 TiB


def check_size(shape, itemsize: int, where: str) -> None:
    """The size rule of CKT1, CKM1 and KTNP: each extent fits a u32 and the
    payload is at most 1 TiB, the cap every reader keeps too.  Writers call it,
    and so does a command before it allocates an array for one."""
    fits_u32 = all(0 <= n <= 0xFFFFFFFF for n in shape)
    if not fits_u32 or math.prod(shape) * itemsize > _MAX_PAYLOAD_BYTES:
        raise ValueError(f"shape {tuple(shape)} does not fit {where} (u32 extents, 1 TiB payload)")


class BinaryReader:
    """Cursor over the bytes of one little-endian binary file, read whole.

    The constructor checks the 4-byte magic.  Every read advances the cursor
    and raises FileFormatError when the file ends first; ``array``
    refuses a payload over the size cap before looking for it, and returns
    a read-only view into the file's bytes; ``finish`` rejects trailing
    bytes.
    """

    def __init__(self, path, magic: bytes):
        self.path = path
        self.raw = Path(path).read_bytes()
        if len(self.raw) < 4:
            raise FileFormatError(f"{path}: shorter than the magic")
        if self.raw[:4] != magic:
            raise FileFormatError(f"{path}: expected magic {magic.decode()}, got {self.raw[:4]!r}")
        self.pos = 4

    def _take(self, n: int, what: str) -> int:
        start = self.pos
        if start + n > len(self.raw):
            raise FileFormatError(f"{self.path}: truncated while reading {what}")
        self.pos = start + n
        return start

    def unpack(self, fmt: str, what: str) -> tuple:
        return struct.unpack_from(fmt, self.raw, self._take(struct.calcsize(fmt), what))

    def array(self, dtype, shape, what: str) -> np.ndarray:
        dtype = np.dtype(dtype)
        count = math.prod(shape)
        if count * dtype.itemsize > _MAX_PAYLOAD_BYTES:
            raise FileFormatError(f"{self.path}: {what} of shape {shape} out of range")
        start = self._take(count * dtype.itemsize, what)
        flat = np.frombuffer(self.raw, dtype=dtype, count=count, offset=start)
        try:
            return flat.reshape(shape)
        except ValueError as exc:  # more axes, or a larger extent, than numpy allows
            raise FileFormatError(f"{self.path}: {what} of shape {shape}: {exc}") from exc

    def finish(self) -> None:
        if self.pos != len(self.raw):
            raise FileFormatError(f"{self.path}: {len(self.raw) - self.pos} trailing bytes")


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
            raise ValueError("measurement k-space must carry the k-space domain tag")
        if (self.kspace.t_frames, self.kspace.cols) != (self.mask.t_frames, self.mask.cols):
            raise ValueError(
                f"k-space {self.kspace.data.shape} does not match "
                f"mask {self.mask.bits.shape}"
            )
        off = self.kspace.data * (1 - self.mask.bits[:, None, :])
        if np.any(off != 0):
            raise ValueError("k-space carries energy at unsampled positions")


def make_shear_mask(accel: int, t_frames: int, cols: int, n_center: int = 4) -> SamplingMask:
    """Shear-grid k-t lattice at nominal acceleration accel, plus an always-on
    center block.

    Frame t samples {x : (x - t) mod accel == 0} together with the n_center
    columns starting at cols//2 - n_center//2.  A shape CKM1 cannot hold is
    refused before anything is allocated.
    """
    if accel < 1:
        raise ValueError(f"accel must be >= 1, got {accel}")
    if n_center < 0:
        raise ValueError(f"n_center must be >= 0, got {n_center}")
    if cols < n_center:
        raise ValueError(f"cols={cols} is smaller than n_center={n_center}")
    if min(t_frames, cols) < 1:
        raise ValueError(f"mask shape {(t_frames, cols)} must be at least 1 x 1")
    check_size((t_frames, cols), 1, "CKM1")
    t = np.arange(t_frames)[:, None]
    x = np.arange(cols)[None, :]
    bits = ((x - t) % accel == 0).astype(np.uint8)
    start = cols // 2 - n_center // 2
    bits[:, start : start + n_center] = 1
    return SamplingMask(bits)


def undersample(img: ComplexVolume, mask: SamplingMask) -> KtMeasurement:
    """Mask the 2D spectrum of an image sequence, broadcast over readout y."""
    if img.domain is not Domain.IMAGE:
        raise ValueError(f"undersample expects an image sequence, got {img.domain.value}")
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
    draws happen first, so the geometry depends only on the seed and the grid
    size, never on t_frames.  Each ellipse is computed for all frames at once.
    """
    if rows < 8 or cols < 8:
        raise ValueError(f"rows and cols must be >= 8, got {rows}x{cols}")
    if t_frames < 1:
        raise ValueError("t_frames must be >= 1")
    rng = np.random.default_rng(seed)

    bg_cy, bg_cx = rows / 2.0, cols / 2.0

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

    # one sin call per frame: a single [t][n_inner] call may round otherwise
    osc = np.array([np.sin(2.0 * np.pi * t / t_frames + osc_phase) for t in range(t_frames)])
    osc = osc.T[:, :, None, None]  # [n_inner][t][1][1], against the [y][x] grids
    mag = 0.30 * _soft_ellipse(yy, xx, bg_cy, bg_cx, 0.42 * rows, 0.44 * cols)  # static
    for k in range(n_inner):
        cy = cy0[k] + amp_cy[k] * osc[k]
        cx = cx0[k] + amp_cx[k] * osc[k]
        ry = ry0[k] * (1.0 + amp_r[k] * osc[k])
        rx = rx0[k] * (1.0 + amp_r[k] * osc[k])
        mag = mag + vals[k] * _soft_ellipse(yy, xx, cy, cx, ry, rx)
    data = np.clip(mag, 0.0, 1.0) * phase_factor
    return ComplexVolume(data, Domain.IMAGE)


# ------------------------------------------------------------------ files


def _save_array(path, magic: bytes, arr: np.ndarray, dtype: str) -> None:
    """Write the magic, one u32 per axis, then arr cast to dtype (CKT1, CKM1)."""
    check_size(arr.shape, np.dtype(dtype).itemsize, magic.decode())
    header = magic + struct.pack(f"<{arr.ndim}I", *arr.shape)
    Path(path).write_bytes(header + arr.astype(dtype, copy=False).tobytes())


def _load_array(path, magic: bytes, dtype: str, ndim: int, build):
    """Read what _save_array wrote into build(array); its ValueError is a FileFormatError."""
    reader = BinaryReader(path, magic)
    shape = reader.unpack(f"<{ndim}I", "the header")
    if min(shape) < 1:
        raise FileFormatError(f"{path}: declared shape {shape} out of range")
    arr = reader.array(dtype, shape, "the payload")
    reader.finish()
    try:
        with np.errstate(invalid="ignore"):  # a signaling NaN warns when cast; build rejects it
            return build(arr)
    except ValueError as exc:
        raise FileFormatError(f"{path}: {exc}") from exc


def save_sequence(path, v: ComplexVolume) -> None:
    """Write a CKT1 file: magic, u32 T/Y/X, complex64 (float32 re/im pairs)."""
    _save_array(path, b"CKT1", v.data, "<c8")


def load_sequence(path, domain: Domain = Domain.IMAGE) -> ComplexVolume:
    """Read a CKT1 file; the domain tag is supplied by the caller."""
    return _load_array(path, b"CKT1", "<c8", 3, lambda data: ComplexVolume(data, domain))


def save_mask(path, mask: SamplingMask) -> None:
    """Write a CKM1 file: magic, u32 T/X, then T*X bytes of 0/1."""
    _save_array(path, b"CKM1", mask.bits, "u1")


def load_mask(path) -> SamplingMask:
    return _load_array(path, b"CKM1", "u1", 2, SamplingMask)
