"""Parameter store, ADAM, the recurrent layer, checkpoints.

Parameters are tape leaves (see :mod:`ktnext.autodiff`) held by record name
in one :class:`ParamStore`; shapes are fixed when the store is built and all
updates happen in place, so the same leaves can be reused across training
steps and cascades.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .sampling import BinaryReader, FileFormatError, check_size

__all__ = [
    "AdamState",
    "ParamStore",
    "adam_step",
    "crnn_bidir_layer",
    "init_adam",
    "load_checkpoint",
    "save_checkpoint",
]


class ParamStore:
    """Real trainable arrays as tape leaves, by name, in the order given."""

    def __init__(self, records):
        self._tensors = {name: ad.parameter(value) for name, value in records.items()}

    def __getitem__(self, name: str) -> ad.Tensor:
        return self._tensors[name]

    def items(self):
        return self._tensors.items()

    def stores(self):
        """This store alone; `perfbench/workloads.py::write_checkpoint` iterates it."""
        return (self,)

    def snapshot(self) -> dict:
        return {name: tensor.value.copy() for name, tensor in self._tensors.items()}

    def set_values(self, mapping) -> None:
        """Copy new values into existing parameters; shapes must match."""
        for name, arr in mapping.items():
            if name not in self._tensors:
                raise KeyError(name)
            tensor = self._tensors[name]
            arr = np.asarray(arr, dtype=np.float64)
            if arr.shape != tensor.value.shape:
                raise ValueError(
                    f"parameter {name!r} has shape {tensor.value.shape}, got {arr.shape}"
                )
            tensor.value[...] = arr


# --------------------------------------------------------------- ADAM

BETA1, BETA2, EPS = 0.9, 0.999, 1e-8  # ADAM's moment decays and denominator guard


class AdamState:
    """First/second moment arrays mirroring a ParamStore, plus a step count."""

    def __init__(self, m, v, step=0):
        self.m = m
        self.v = v
        self.step = step


def init_adam(store: ParamStore) -> AdamState:
    m = {name: np.zeros_like(t.value) for name, t in store.items()}
    v = {name: np.zeros_like(t.value) for name, t in store.items()}
    return AdamState(m, v)


def adam_step(store: ParamStore, state: AdamState, lr: float, grads: ParamStore) -> None:
    """In-place bias-corrected ADAM update of store from the gradients on the
    same-named leaves of grads, read as float64 (grads may be store itself, or
    its float32 copy); a missing gradient counts as zero."""
    state.step += 1
    t = state.step
    bc1 = 1.0 - BETA1**t
    bc2 = 1.0 - BETA2**t
    for name, tensor in store.items():
        g = grads[name].grad
        g = 0.0 if g is None else g.astype(np.float64, copy=False)
        m = state.m[name]
        v = state.v[name]
        m *= BETA1
        m += (1.0 - BETA1) * g
        v *= BETA2
        v += (1.0 - BETA2) * np.square(g)
        tensor.value -= lr * (m / bc1) / (np.sqrt(v / bc2) + EPS)


# --------------------------------------------------------------- CRNN layer


def crnn_bidir_layer(seq: ad.Tensor, w_i2h: ad.Tensor, w_h2h: ad.Tensor,
                     w_ih2ih: ad.Tensor, bias: ad.Tensor, hidden_prev,
                     dilation: int) -> ad.Tensor:
    """Bidirectional convolutional recurrence over the frame axis.

    seq is [t][c][h][w] with frames as the batch axis.  Each direction runs
    h_t = relu(conv(x_t) + conv(h_neighbor) + conv(hidden_prev_t) + bias)
    with one shared set of weights; the two streams are summed.  Returns the
    summed sequence, which is both the layer output and the hidden_prev the
    same layer takes at the next cascade iteration (conv over a zero hidden
    state contributes nothing, so an absent hidden_prev is simply skipped).
    The input terms are one conv2d over all frames; both recurrent sweeps
    are one tape node, `autodiff.crnn_sweep`.
    """
    base = ad.conv2d(seq, w_i2h, bias, dilation)
    if hidden_prev is not None:
        base = ad.add(base, ad.conv2d(hidden_prev, w_ih2ih, None, dilation))
    return ad.crnn_sweep(base, w_h2h, dilation)


# --------------------------------------------------------------- checkpoints


def save_checkpoint(path, arrays) -> None:
    """Write a name -> array mapping, as load_checkpoint returns, to KTNP.

    KTNP: magic, u32 record count, then (u16 name len, name, u8 rank,
    rank*u32 dims, f64 LE payload) per record, in mapping order.
    """
    chunks = [b"KTNP", struct.pack("<I", len(arrays))]
    for name, value in arrays.items():
        encoded = name.encode("utf-8")
        if len(encoded) > 0xFFFF:
            raise ValueError(f"parameter name too long: {name!r}")
        value = np.asarray(value, dtype="<f8")  # numpy's 64 axes fit the u8 rank
        check_size(value.shape, 8, f"KTNP record {name!r}")
        chunks.append(struct.pack("<H", len(encoded)))
        chunks.append(encoded)
        chunks.append(struct.pack("<B", value.ndim))
        chunks.append(struct.pack(f"<{value.ndim}I", *value.shape))
        chunks.append(value.tobytes())
    Path(path).write_bytes(b"".join(chunks))


def load_checkpoint(path) -> dict:
    """Read a KTNP file back into an ordered name -> float64 array mapping.

    A record holding NaN or Inf raises FileFormatError, as CKT1 does.
    """
    reader = BinaryReader(path, b"KTNP")
    (count,) = reader.unpack("<I", "the record count")
    out = {}
    for _ in range(count):
        (name_len,) = reader.unpack("<H", "name length")
        (encoded,) = reader.unpack(f"<{name_len}s", "name")
        try:
            name = encoded.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise FileFormatError(f"{path}: record name {encoded!r} is not UTF-8") from exc
        (rank,) = reader.unpack("<B", "rank")
        shape = reader.unpack(f"<{rank}I", "dims")
        arr = reader.array("<f8", shape, f"payload of {name!r}").astype(np.float64)
        if not np.all(np.isfinite(arr)):
            raise FileFormatError(f"{path}: record {name!r} holds NaN or Inf")
        if name in out:
            raise FileFormatError(f"{path}: duplicate record {name!r}")
        out[name] = arr
    reader.finish()
    return out
