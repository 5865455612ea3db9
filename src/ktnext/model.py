"""Cascaded dynamic-MRI reconstruction network and its training loop.

Each cascade alternates two refinements: a small CNN de-aliases the signal
in the x-f domain (working on the residual around a data-consistent
temporal-average baseline), then a bidirectional convolutional-recurrent
block refines the image sequence frame by frame and re-imposes the acquired
k-space samples.  The whole stack is differentiable through the tape in
`autodiff`, so training is plain backprop + ADAM on the joint image/x-f
squared error.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .metrics import psnr
from .network import (
    ParamStore,
    adam_step,
    crnn_bidir_layer,
    he_conv_weights,
    init_adam,
    load_checkpoint,
    save_checkpoint,
)
from .sampling import KtMeasurement, undersample, zero_filled
from .sampling import augment as augment_sequence
from .volume import ComplexVolume, Domain, fft_t, ifft2c
from .xf import dc_baseline_kspace, kspace_temporal_average

_XF_INPUT_MODES = ("residual_plus_baseline", "residual_only")


class NonFiniteLossError(FloatingPointError):
    """Training loss left the representable range; the run cannot continue."""


@dataclass(frozen=True)
class KtNextConfig:
    """Architecture and reconstruction hyperparameters.

    Defaults follow the reference design: 4 cascades, a 5-layer de-aliasing
    CNN, a 4-layer recurrent image block, 3x3 kernels with dilation 3, and
    hard data consistency (dc_lambda = inf).  channels is the desk-scale
    width; widen it for more capacity.  xf_input_mode picks whether the
    de-aliasing CNN sees only the residual or the residual concatenated
    with the baseline.  Hidden states carry across cascades unless
    iteration_recurrent is switched off.
    """

    n_cascades: int = 4
    xf_layers: int = 5
    crnn_layers: int = 4
    kernel: int = 3
    dilation: int = 3
    channels: int = 16
    dc_lambda: float = math.inf
    xf_input_mode: str = "residual_plus_baseline"
    share_weights_across_cascades: bool = True
    iteration_recurrent: bool = True

    def __post_init__(self):
        for name in ("n_cascades", "xf_layers", "crnn_layers", "kernel", "dilation", "channels"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1")
        if self.kernel % 2 == 0:
            raise ValueError("kernel must be odd so convolutions preserve frame size")
        if not self.dc_lambda >= 0.0:  # also rejects nan
            raise ValueError("dc_lambda must be nonnegative (inf = hard replacement)")
        if self.xf_input_mode not in _XF_INPUT_MODES:
            raise ValueError(f"unknown xf_input_mode {self.xf_input_mode!r}")


@dataclass
class KtNextParams:
    """Trainable weights, split into the two sub-networks."""

    xfcnn: ParamStore
    crnn: ParamStore

    def stores(self):
        return (self.xfcnn, self.crnn)

    def zero_grads(self) -> None:
        for store in self.stores():
            store.zero_grads()

    def snapshot(self) -> dict:
        out = {}
        for prefix, store in (("xfcnn.", self.xfcnn), ("crnn.", self.crnn)):
            for name, value in store.snapshot().items():
                out[prefix + name] = value
        return out


def parameter_count(params: KtNextParams) -> int:
    return params.xfcnn.total_count + params.crnn.total_count


def _prefixes(config: KtNextConfig):
    if config.share_weights_across_cascades:
        return [""]
    return [f"c{n}." for n in range(config.n_cascades)]


def init_params(config: KtNextConfig, seed) -> KtNextParams:
    """He-initialized conv weights, zero biases, deterministic per seed.

    The de-aliasing layers and the output projection each form their
    pre-activation from one convolution, so they use the kernel's own fan-in.
    In the recurrent block the i2h, h2h and ih2ih convolutions are summed
    into one pre-activation, and the two sweep directions are summed again;
    those kernels therefore share the fan-in of the whole sum,
    2*(c_in + 2*channels)*k*k, giving std = sqrt(1 / ((c_in + 2*channels)*k*k)).

    Draw order is fixed (per cascade: de-aliasing layers, then recurrent
    layers, then the output projection) so identical seeds give identical
    weights regardless of platform.
    """
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    k = config.kernel
    ch = config.channels
    c_in0 = 4 if config.xf_input_mode == "residual_plus_baseline" else 2
    xfcnn = ParamStore()
    crnn = ParamStore()
    for prefix in _prefixes(config):
        for i in range(config.xf_layers):
            ci = c_in0 if i == 0 else ch
            co = 2 if i == config.xf_layers - 1 else ch
            xfcnn.add(f"{prefix}w{i}", he_conv_weights(rng, co, ci, k))
            xfcnn.add(f"{prefix}b{i}", np.zeros(co))
        for layer in range(config.crnn_layers):
            ci = 2 if layer == 0 else ch
            fan_in = 2 * (ci + 2 * ch) * k * k
            crnn.add(f"{prefix}i2h{layer}", he_conv_weights(rng, ch, ci, k, fan_in))
            crnn.add(f"{prefix}h2h{layer}", he_conv_weights(rng, ch, ch, k, fan_in))
            crnn.add(f"{prefix}ih2ih{layer}", he_conv_weights(rng, ch, ch, k, fan_in))
            crnn.add(f"{prefix}bias{layer}", np.zeros(ch))
        crnn.add(f"{prefix}out_w", he_conv_weights(rng, 2, ch, k))
        crnn.add(f"{prefix}out_b", np.zeros(2))
    return KtNextParams(xfcnn=xfcnn, crnn=crnn)


def _check_params(params: KtNextParams, config: KtNextConfig) -> None:
    want_xf, want_cr = set(), set()
    for prefix in _prefixes(config):
        for i in range(config.xf_layers):
            want_xf.update((f"{prefix}w{i}", f"{prefix}b{i}"))
        for layer in range(config.crnn_layers):
            want_cr.update(
                (f"{prefix}i2h{layer}", f"{prefix}h2h{layer}", f"{prefix}ih2ih{layer}", f"{prefix}bias{layer}")
            )
        want_cr.update((f"{prefix}out_w", f"{prefix}out_b"))
    if set(params.xfcnn.names()) != want_xf or set(params.crnn.names()) != want_cr:
        raise ValueError("parameter names do not match the configured architecture")
    prefix = _prefixes(config)[0]
    w0 = params.xfcnn[f"{prefix}w0"].value
    c_in0 = 4 if config.xf_input_mode == "residual_plus_baseline" else 2
    c_out0 = 2 if config.xf_layers == 1 else config.channels
    if w0.shape != (c_out0, c_in0, config.kernel, config.kernel):
        raise ValueError(
            f"first de-aliasing layer has shape {w0.shape}, expected "
            f"{(c_out0, c_in0, config.kernel, config.kernel)}; check xf_input_mode/channels/kernel"
        )


# ------------------------------------------------------------------ forward


def _xf_residual(sigma, avg):
    """The current estimate minus the temporal average of the acquired
    k-space, expressed in x-f space: F_t F_2^-1 (F_2 sigma - avg)."""
    return ad.fft_t(ad.ifft2c(ad.add_const(ad.fft2c(sigma), -avg[None, :, :])))


def _xfcnn_apply(residual, baseline, store, config, prefix):
    # residual and baseline are complex x-f tape tensors [F, Y, X]
    x = ad.complex_to_channels_xf(residual)
    if config.xf_input_mode == "residual_plus_baseline":
        x = ad.concat_channels([x, ad.complex_to_channels_xf(baseline)])
    for i in range(config.xf_layers):
        x = ad.conv2d(x, store[f"{prefix}w{i}"], store[f"{prefix}b{i}"], config.dilation)
        if i < config.xf_layers - 1:
            x = ad.relu(x)
    return ad.add(baseline, ad.channels_to_complex_xf(x))


def _crnn_apply(img, meas, store, config, prefix, hidden):
    seq = ad.complex_to_channels_image(img)
    new_hidden = []
    for layer in range(config.crnn_layers):
        prev = None if hidden is None else hidden[layer]
        seq, carry = crnn_bidir_layer(
            seq,
            store[f"{prefix}i2h{layer}"],
            store[f"{prefix}h2h{layer}"],
            store[f"{prefix}ih2ih{layer}"],
            store[f"{prefix}bias{layer}"],
            hidden_prev=prev,
            dilation=config.dilation,
        )
        new_hidden.append(carry)
    out = ad.conv2d(seq, store[f"{prefix}out_w"], store[f"{prefix}out_b"], config.dilation)
    refined = ad.add(img, ad.channels_to_complex_image(out))
    k = ad.data_consistency(ad.fft2c(refined), meas, config.dc_lambda)
    return ad.ifft2c(k), new_hidden


def _forward_graph(meas: KtMeasurement, params: KtNextParams, config: KtNextConfig):
    """Build the full differentiable cascade; returns tape tensors.

    The x-f baseline is the data-consistent temporal average of the
    acquired k-space, which does not depend on the evolving estimate, so it
    is computed once and reused as a constant by every cascade.
    """
    _check_params(params, config)
    avg = kspace_temporal_average(meas)
    baseline_xf = fft_t(ifft2c(dc_baseline_kspace(avg, meas)))
    base = ad.constant(baseline_xf.data)
    sigma = ad.constant(zero_filled(meas).data)
    hidden = None
    rho = None
    traces = []
    prefixes = _prefixes(config)
    for n in range(config.n_cascades):
        prefix = prefixes[n % len(prefixes)]
        rho = _xfcnn_apply(_xf_residual(sigma, avg), base, params.xfcnn, config, prefix)
        img = ad.ifft_t(rho)
        sigma, hidden = _crnn_apply(
            img,
            meas,
            params.crnn,
            config,
            prefix,
            hidden if config.iteration_recurrent else None,
        )
        traces.append((rho, sigma))
    return sigma, rho, traces


@dataclass(frozen=True)
class CascadeOutput:
    """Per-cascade estimates kept for inspection."""

    rho: ComplexVolume
    sigma: ComplexVolume


def ktnext_forward(m: KtMeasurement, params: KtNextParams, config: KtNextConfig):
    """Run the full cascade from the zero-filled estimate.

    Returns (final image sequence, final x-f estimate, per-cascade
    CascadeOutput list); the last list entry holds the same arrays as the
    first two return values.
    """
    _, _, traces = _forward_graph(m, params, config)
    inter = [
        CascadeOutput(
            rho=ComplexVolume(r.value, Domain.XF),
            sigma=ComplexVolume(s.value, Domain.IMAGE),
        )
        for r, s in traces
    ]
    return inter[-1].sigma, inter[-1].rho, inter


# ------------------------------------------------------------------ loss


def _loss_node(stages, sigma_gt_arr, rho_gt_arr):
    terms = [
        ad.add(ad.sumsq_diff(s, sigma_gt_arr), ad.sumsq_diff(r, rho_gt_arr))
        for r, s in stages
    ]
    node = terms[0]
    for extra in terms[1:]:
        node = ad.add(node, extra)
    if len(terms) > 1:
        node = ad.scale(node, 1.0 / len(terms))
    return node


# ------------------------------------------------------------------ training


@dataclass(frozen=True)
class TrainRecord:
    step: int
    loss: float
    psnr_train: float


def fit(dataset, mask, config: KtNextConfig, steps: int, seed,
        lr: float = 1e-4, augment: bool = False, batch_size: int = 1,
        supervise_intermediates: bool = False, params=None):
    """Train on fully sampled sequences by simulated undersampling.

    Per step: draw a sequence (optionally augmented by a random rotation
    and scaling), undersample it with the given mask, run the cascade,
    backpropagate the joint loss, and apply one ADAM update.  batch_size
    accumulates gradients over several draws before updating; the loss is
    then the batch mean.  supervise_intermediates averages the loss over
    every cascade's output instead of grading only the final one.
    Deterministic for a fixed seed when numpy runs single-threaded.
    """
    dataset = list(dataset)
    if not dataset:
        raise ValueError("training dataset is empty")
    if steps < 1:
        raise ValueError("steps must be at least 1")
    if batch_size < 1:
        raise ValueError("batch_size must be at least 1")
    rng = np.random.default_rng(seed)
    if params is None:
        params = init_params(config, rng)
    _check_params(params, config)
    adam_xf = init_adam(params.xfcnn)
    adam_cr = init_adam(params.crnn)
    history = []
    for step in range(1, steps + 1):
        params.zero_grads()
        step_loss = 0.0
        step_psnr = 0.0
        for _ in range(batch_size):
            img = dataset[int(rng.integers(len(dataset)))]
            if augment:
                img = augment_sequence(img, rng)
            meas = undersample(img, mask)
            sigma, rho, traces = _forward_graph(meas, params, config)
            rho_gt = fft_t(img)
            node = _loss_node(
                traces if supervise_intermediates else [(rho, sigma)],
                img.data,
                rho_gt.data,
            )
            if batch_size > 1:
                node = ad.scale(node, 1.0 / batch_size)
            loss_val = float(node.value)
            if not math.isfinite(loss_val):
                raise NonFiniteLossError(
                    f"training loss became non-finite ({loss_val!r}) at step {step}; "
                    "lower the learning rate or check the input scaling"
                )
            ad.backward(node)
            step_loss += loss_val
            step_psnr += psnr(ComplexVolume(sigma.value, Domain.IMAGE), img)
        adam_step(params.xfcnn, adam_xf, lr=lr)
        adam_step(params.crnn, adam_cr, lr=lr)
        history.append(TrainRecord(step=step, loss=step_loss, psnr_train=step_psnr / batch_size))
    return params, history


# ------------------------------------------------------------------ persistence


def save_params(path, params: KtNextParams) -> None:
    merged = ParamStore()
    for prefix, store in (("xfcnn.", params.xfcnn), ("crnn.", params.crnn)):
        for name, tensor in store.items():
            merged.add(prefix + name, tensor.value)
    save_checkpoint(path, merged)


def load_params(path, config: KtNextConfig) -> KtNextParams:
    """Read a checkpoint into freshly shaped parameters; shapes must agree."""
    values = load_checkpoint(path)
    params = init_params(config, 0)
    expected = {"xfcnn." + n for n in params.xfcnn.names()}
    expected |= {"crnn." + n for n in params.crnn.names()}
    if set(values) != expected:
        missing = sorted(expected - set(values))[:4]
        surplus = sorted(set(values) - expected)[:4]
        raise ValueError(
            f"checkpoint does not match the configuration (missing {missing}, unexpected {surplus})"
        )
    params.xfcnn.set_values({n: values["xfcnn." + n] for n in params.xfcnn.names()})
    params.crnn.set_values({n: values["crnn." + n] for n in params.crnn.names()})
    return params

