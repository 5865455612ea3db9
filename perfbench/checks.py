"""Output checks, written against the file formats rather than ktnext code.

The readers and transforms here are independent numpy versions, so a check
does not pass merely because the program agrees with itself.
"""

from __future__ import annotations

import csv
import math
import struct
from pathlib import Path

import numpy as np

EVAL_HEADER = ["file", "psnr", "ssim", "hfen", "psnr_zero_filled", "ssim_zero_filled",
               "hfen_zero_filled"]
TRAIN_HEADER = ["step", "loss", "psnr_train"]
PSNR_TOL_DB = 1e-6
DC_TOL = 1e-5  # relative to the peak k-space magnitude; both files are float32


class CheckFailed(Exception):
    """An output of the program is missing, malformed or wrong."""


def require(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


def read_ckt(path) -> np.ndarray:
    raw = Path(path).read_bytes()
    require(raw[:4] == b"CKT1", f"{path}: not a CKT1 file")
    t, y, x = struct.unpack("<III", raw[4:16])
    require(len(raw) == 16 + 8 * t * y * x, f"{path}: size does not match its header")
    pairs = np.frombuffer(raw, dtype="<f4", offset=16).reshape(t, y, x, 2).astype(np.float64)
    return pairs[..., 0] + 1j * pairs[..., 1]


def read_ckm(path) -> np.ndarray:
    raw = Path(path).read_bytes()
    require(raw[:4] == b"CKM1", f"{path}: not a CKM1 file")
    t, x = struct.unpack("<II", raw[4:12])
    require(len(raw) == 12 + t * x, f"{path}: size does not match its header")
    return np.frombuffer(raw, dtype=np.uint8, offset=12).reshape(t, x).copy()


def _fft2c(a):
    return np.fft.fftshift(np.fft.fft2(np.fft.ifftshift(a, axes=(1, 2)), norm="ortho"), axes=(1, 2))


def _ifft2c(a):
    return np.fft.fftshift(np.fft.ifft2(np.fft.ifftshift(a, axes=(1, 2)), norm="ortho"), axes=(1, 2))


def psnr(rec: np.ndarray, gt: np.ndarray) -> float:
    mr, mg = np.abs(rec), np.abs(gt)
    return float(10.0 * np.log10(mg.max() ** 2 / np.mean((mr - mg) ** 2)))


def zero_filled_psnr(gt: np.ndarray, bits: np.ndarray) -> float:
    return psnr(_ifft2c(_fft2c(gt) * bits[:, None, :]), gt)


def _finite(values, what: str) -> list[float]:
    out = [float(v) for v in values]
    require(all(math.isfinite(v) for v in out), f"{what}: non-finite value in {out}")
    return out


def check_history(path, steps: int) -> float:
    """Rows 1..steps, finite loss and PSNR; returns the final-step training PSNR."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    require(rows and rows[0] == TRAIN_HEADER, f"{path}: header {rows[:1]}")
    body = rows[1:]
    require(len(body) == steps, f"{path}: {len(body)} rows, expected {steps}")
    require([r[0] for r in body] == [str(s) for s in range(1, steps + 1)], f"{path}: step column")
    for r in body:
        _finite(r[1:], f"{path} step {r[0]}")
    return float(body[-1][2])


def check_metrics(path, names: list[str], zf_psnr: dict[str, float]) -> list[tuple[float, float]]:
    """One finite row per sequence, zero-filled PSNR equal to numpy's.

    Returns (model PSNR, zero-filled PSNR) per row.
    """
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    require(rows and rows[0] == EVAL_HEADER, f"{path}: header {rows[:1]}")
    body = rows[1:]
    require([r[0] for r in body] == names, f"{path}: files {[r[0] for r in body]}")
    out = []
    for r in body:
        values = _finite(r[1:], f"{path} {r[0]}")
        require(abs(values[3] - zf_psnr[r[0]]) <= PSNR_TOL_DB,
                f"{path} {r[0]}: zero-filled PSNR {values[3]!r}, numpy gives {zf_psnr[r[0]]!r}")
        out.append((values[0], values[3]))
    return out


def check_data_consistency(recon_path, kspace_path, bits: np.ndarray) -> None:
    """Sampled k-space of the reconstruction equals the measurement."""
    rec = read_ckt(recon_path)
    meas = read_ckt(kspace_path)
    require(rec.shape == meas.shape, f"{recon_path}: shape {rec.shape} vs {meas.shape}")
    require(bool(np.isfinite(rec).all()), f"{recon_path}: non-finite values")
    k = _fft2c(rec)
    sampled = np.broadcast_to(bits[:, None, :] == 1, k.shape)
    err = float(np.abs(k[sampled] - meas[sampled]).max())
    peak = float(max(np.abs(k).max(), np.abs(meas).max()))
    require(err <= DC_TOL * peak,
            f"{recon_path}: sampled k-space differs from the measurement by {err:.3g} (peak {peak:.3g})")
