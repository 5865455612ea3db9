"""Parameter store, ADAM, weight init, the recurrent layer, checkpoints.

Parameters are tape leaves (see :mod:`ktnext.autodiff`) held by name in a
:class:`ParamStore`; shapes are fixed at registration and all updates happen
in place, so the same leaves can be reused across training steps and
cascades.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .sampling import BadPayloadError, BinaryReader, DimensionOverflowError, FileFormatError

__all__ = [
    "AdamState",
    "ParamStore",
    "adam_step",
    "check_gradients",
    "crnn_bidir_layer",
    "he_conv_weights",
    "init_adam",
    "load_checkpoint",
    "save_checkpoint",
]


class ParamStore:
    """Ordered, uniquely named collection of real trainable arrays."""

    def __init__(self):
        self._tensors: dict[str, ad.Tensor] = {}

    def add(self, name: str, value) -> ad.Tensor:
        if name in self._tensors:
            raise ValueError(f"duplicate parameter name {name!r}")
        if np.iscomplexobj(value):
            raise ValueError("parameters must be real arrays")
        tensor = ad.parameter(value)
        self._tensors[name] = tensor
        return tensor

    def __getitem__(self, name: str) -> ad.Tensor:
        return self._tensors[name]

    def names(self):
        return self._tensors.keys()

    def items(self):
        return self._tensors.items()

    def tensors(self):
        return self._tensors.values()

    @property
    def total_count(self) -> int:
        return sum(t.value.size for t in self._tensors.values())

    def zero_grads(self) -> None:
        for t in self._tensors.values():
            t.grad = None

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

    def snapshot(self) -> dict:
        return {name: t.value.copy() for name, t in self._tensors.items()}


def he_conv_weights(rng, c_out: int, c_in: int, k: int, fan_in: int | None = None) -> np.ndarray:
    """He normal init for a conv kernel [c_out][c_in][k][k]: std = sqrt(2 / fan_in).

    fan_in defaults to the kernel's own c_in*k*k, which keeps unit gain when
    the convolution alone makes a pre-activation.  When several convolutions
    are summed into one pre-activation, pass the fan-in of the whole sum (the
    total of every summand's c_in*k*k), so that the sum keeps unit gain rather
    than each term.
    """
    if fan_in is None:
        fan_in = c_in * k * k
    std = np.sqrt(2.0 / fan_in)
    return rng.standard_normal((c_out, c_in, k, k)) * std


# --------------------------------------------------------------- ADAM


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


def adam_step(store: ParamStore, state: AdamState, lr: float = 1e-4,
              beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8) -> None:
    """In-place bias-corrected ADAM update; a missing gradient counts as zero."""
    state.step += 1
    t = state.step
    bc1 = 1.0 - beta1**t
    bc2 = 1.0 - beta2**t
    for name, tensor in store.items():
        g = tensor.grad
        if g is None:
            g = 0.0
        m = state.m[name]
        v = state.v[name]
        m *= beta1
        m += (1.0 - beta1) * g
        v *= beta2
        v += (1.0 - beta2) * np.square(g)
        tensor.value -= lr * (m / bc1) / (np.sqrt(v / bc2) + eps)


# --------------------------------------------------------------- CRNN layer


def crnn_bidir_layer(seq: ad.Tensor, w_i2h: ad.Tensor, w_h2h: ad.Tensor,
                     w_ih2ih: ad.Tensor, bias: ad.Tensor, hidden_prev=None,
                     dilation: int = 3) -> ad.Tensor:
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


# --------------------------------------------------------------- gradient check


def check_gradients(build_loss, leaves, rng, samples: int = 8, step: float = 1e-6) -> float:
    """Central finite differences on a random coordinate subsample.

    build_loss must rebuild the graph from the leaves' current values.
    Returns the worst relative error over all probed coordinates; complex
    leaves are probed on real and imaginary parts separately.  A central
    difference of a loss L carries ~eps*|L|/step of cancellation noise, so
    coordinates where analytic and numeric values agree within that
    resolution count as exact (a hard data-consistency layer makes some
    directions genuinely dead, with both values at roundoff level).
    """
    for leaf in leaves:
        leaf.grad = None
    loss = build_loss()
    ad.backward(loss)
    fd_floor = 50.0 * np.finfo(float).eps * max(1.0, abs(float(loss.value))) / step
    analytic = []
    for leaf in leaves:
        g = leaf.grad if leaf.grad is not None else np.zeros_like(leaf.value)
        analytic.append(g.copy())

    def probe(value, idx, unit):
        orig = value[idx]
        value[idx] = orig + step * unit
        up = float(build_loss().value)
        value[idx] = orig - step * unit
        down = float(build_loss().value)
        value[idx] = orig
        return (up - down) / (2.0 * step)

    worst = 0.0
    for leaf, ana in zip(leaves, analytic):
        flat_n = leaf.value.size
        count = min(samples, flat_n)
        chosen = rng.choice(flat_n, size=count, replace=False)
        for flat_idx in chosen:
            idx = np.unravel_index(int(flat_idx), leaf.value.shape)
            if np.iscomplexobj(leaf.value):
                num = probe(leaf.value, idx, 1.0) + 1j * probe(leaf.value, idx, 1.0j)
            else:
                num = probe(leaf.value, idx, 1.0)
            a = ana[idx]
            if abs(num - a) <= fd_floor:
                continue
            rel = abs(num - a) / max(abs(a), abs(num), 1e-6)
            worst = max(worst, rel)
    return worst


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
            raise DimensionOverflowError(f"parameter name too long: {name!r}")
        value = np.asarray(value, dtype="<f8")
        if value.ndim > 0xFF:
            raise DimensionOverflowError(f"rank {value.ndim} exceeds format limit")
        if max(value.shape, default=0) > 0xFFFFFFFF:
            raise DimensionOverflowError(f"dimension of {name!r} exceeds u32")
        chunks.append(struct.pack("<H", len(encoded)))
        chunks.append(encoded)
        chunks.append(struct.pack("<B", value.ndim))
        chunks.append(struct.pack(f"<{value.ndim}I", *value.shape))
        chunks.append(value.tobytes())
    Path(path).write_bytes(b"".join(chunks))


def load_checkpoint(path) -> dict:
    """Read a KTNP file back into an ordered name -> float64 array mapping.

    A record holding NaN or Inf raises BadPayloadError, as CKT1 does.
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
            raise BadPayloadError(f"{path}: record name {encoded!r} is not UTF-8") from exc
        (rank,) = reader.unpack("<B", "rank")
        shape = reader.unpack(f"<{rank}I", "dims")
        arr = reader.array("<f8", shape, f"payload of {name!r}").astype(np.float64)
        if not np.all(np.isfinite(arr)):
            raise BadPayloadError(f"{path}: record {name!r} holds NaN or Inf")
        if name in out:
            raise FileFormatError(f"{path}: duplicate record {name!r}")
        out[name] = arr
    reader.finish()
    return out
