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
from .volume import ComplexVolume, Domain, fft_t, ifft2c
from .xf import dc_baseline_kspace, kspace_temporal_average


class NonFiniteLossError(FloatingPointError):
    """Training loss left the representable range; the run cannot continue."""


# The one architecture; KtNextConfig's docstring describes it.
XF_LAYERS = 5
CRNN_LAYERS = 4
KERNEL = 3
DILATION = 3


@dataclass(frozen=True)
class KtNextConfig:
    """Width and run-time choices of the one architecture.

    The architecture is fixed by the module constants: a 5-layer de-aliasing
    CNN and a 4-layer recurrent image block, 3x3 kernels with dilation 3.
    The de-aliasing CNN sees the residual concatenated with the baseline,
    all cascades share one set of weights, and the recurrent block's hidden
    states carry from each cascade into the next.  channels is the width;
    n_cascades (unrolls of the shared cascade) and dc_lambda (inf = hard
    data consistency) are run-time choices a checkpoint does not store.
    """

    n_cascades: int = 4
    channels: int = 16
    dc_lambda: float = math.inf

    def __post_init__(self):
        for name in ("n_cascades", "channels"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1")
        if not self.dc_lambda >= 0.0:  # also rejects nan
            raise ValueError("dc_lambda must be nonnegative (inf = hard replacement)")


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


def init_params(config: KtNextConfig, seed) -> KtNextParams:
    """He-initialized conv weights, zero biases, deterministic per seed.

    One set of weights serves every cascade; its shapes follow XF_LAYERS,
    CRNN_LAYERS, KERNEL and config.channels.  The first de-aliasing layer
    takes 4 channels: the real and imaginary parts of the x-f residual and
    of the x-f baseline.

    The de-aliasing layers and the output projection each form their
    pre-activation from one convolution, so they use the kernel's own fan-in.
    In the recurrent block the i2h, h2h and ih2ih convolutions are summed
    into one pre-activation, and the two sweep directions are summed again;
    those kernels therefore share the fan-in of the whole sum,
    2*(c_in + 2*channels)*k*k, giving std = sqrt(1 / ((c_in + 2*channels)*k*k)).

    Draw order is fixed (de-aliasing layers, then recurrent layers, then
    the output projection) so identical seeds give identical weights
    regardless of platform.
    """
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    k = KERNEL
    ch = config.channels
    xfcnn = ParamStore()
    crnn = ParamStore()
    for i in range(XF_LAYERS):
        ci = 4 if i == 0 else ch
        co = 2 if i == XF_LAYERS - 1 else ch
        xfcnn.add(f"w{i}", he_conv_weights(rng, co, ci, k))
        xfcnn.add(f"b{i}", np.zeros(co))
    for layer in range(CRNN_LAYERS):
        ci = 2 if layer == 0 else ch
        fan_in = 2 * (ci + 2 * ch) * k * k
        crnn.add(f"i2h{layer}", he_conv_weights(rng, ch, ci, k, fan_in))
        crnn.add(f"h2h{layer}", he_conv_weights(rng, ch, ch, k, fan_in))
        crnn.add(f"ih2ih{layer}", he_conv_weights(rng, ch, ch, k, fan_in))
        crnn.add(f"bias{layer}", np.zeros(ch))
    crnn.add("out_w", he_conv_weights(rng, 2, ch, k))
    crnn.add("out_b", np.zeros(2))
    return KtNextParams(xfcnn=xfcnn, crnn=crnn)


def _check_params(params: KtNextParams, config: KtNextConfig) -> None:
    want_xf, want_cr = set(), {"out_w", "out_b"}
    for i in range(XF_LAYERS):
        want_xf.update((f"w{i}", f"b{i}"))
    for layer in range(CRNN_LAYERS):
        want_cr.update((f"i2h{layer}", f"h2h{layer}", f"ih2ih{layer}", f"bias{layer}"))
    if set(params.xfcnn.names()) != want_xf or set(params.crnn.names()) != want_cr:
        raise ValueError("parameter names do not match the configured architecture")
    w0 = params.xfcnn["w0"].value
    if w0.shape != (config.channels, 4, KERNEL, KERNEL):
        raise ValueError(
            f"first de-aliasing layer has shape {w0.shape}, expected "
            f"{(config.channels, 4, KERNEL, KERNEL)}; check channels"
        )


# ------------------------------------------------------------------ forward


def _xf_residual(sigma, avg):
    """The current estimate minus the temporal average of the acquired
    k-space, expressed in x-f space: F_t F_2^-1 (F_2 sigma - avg)."""
    return ad.fft_t(ad.ifft2c(ad.add_const(ad.fft2c(sigma), -avg[None, :, :])))


def _xfcnn_apply(residual, baseline, store):
    # residual and baseline are complex x-f tape tensors [F, Y, X]
    x = ad.concat_channels(
        [ad.complex_to_channels_xf(residual), ad.complex_to_channels_xf(baseline)]
    )
    for i in range(XF_LAYERS):
        x = ad.conv2d(x, store[f"w{i}"], store[f"b{i}"], DILATION)
        if i < XF_LAYERS - 1:
            x = ad.relu(x)
    return ad.add(baseline, ad.channels_to_complex_xf(x))


def _crnn_apply(img, meas, store, config, hidden):
    seq = ad.complex_to_channels_image(img)
    new_hidden = []
    for layer in range(CRNN_LAYERS):
        prev = None if hidden is None else hidden[layer]
        seq = crnn_bidir_layer(
            seq,
            store[f"i2h{layer}"],
            store[f"h2h{layer}"],
            store[f"ih2ih{layer}"],
            store[f"bias{layer}"],
            hidden_prev=prev,
            dilation=DILATION,
        )
        new_hidden.append(seq)
    out = ad.conv2d(seq, store["out_w"], store["out_b"], DILATION)
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
    for _ in range(config.n_cascades):
        rho = _xfcnn_apply(_xf_residual(sigma, avg), base, params.xfcnn)
        sigma, hidden = _crnn_apply(ad.ifft_t(rho), meas, params.crnn, config, hidden)
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
    first two return values.  Raises FloatingPointError when an estimate
    holds NaN or Inf, as weights that overflow the forward pass produce.
    """
    with ad.no_tape():
        _, _, traces = _forward_graph(m, params, config)
    for n, (r, s) in enumerate(traces):
        if not (np.isfinite(r.value).all() and np.isfinite(s.value).all()):
            raise FloatingPointError(f"cascade {n} produced a non-finite estimate")
    inter = [
        CascadeOutput(
            rho=ComplexVolume(r.value, Domain.XF),
            sigma=ComplexVolume(s.value, Domain.IMAGE),
        )
        for r, s in traces
    ]
    return inter[-1].sigma, inter[-1].rho, inter


# ------------------------------------------------------------------ loss


def _loss_node(sigma, rho, sigma_gt_arr, rho_gt_arr):
    """Joint squared error of the final image and x-f estimates."""
    return ad.add(ad.sumsq_diff(sigma, sigma_gt_arr), ad.sumsq_diff(rho, rho_gt_arr))


# ------------------------------------------------------------------ training


@dataclass(frozen=True)
class TrainRecord:
    step: int
    loss: float
    psnr_train: float


def fit(dataset, mask, config: KtNextConfig, steps: int, seed,
        lr: float = 1e-4, params=None):
    """Train on fully sampled sequences by simulated undersampling.

    Per step: draw one sequence, undersample it with the given mask, run
    the cascade, backpropagate the joint loss of the final image and x-f
    estimates, and apply one ADAM update.  params, when given, is trained
    in place instead of a fresh init_params draw.  Deterministic for a
    fixed seed when numpy runs single-threaded.  lr must be finite and
    positive.
    """
    if not 0.0 < lr < math.inf:  # also rejects nan
        raise ValueError(f"learning rate must be finite and positive, got {lr!r}")
    dataset = list(dataset)
    if not dataset:
        raise ValueError("training dataset is empty")
    if steps < 1:
        raise ValueError("steps must be at least 1")
    rng = np.random.default_rng(seed)
    if params is None:
        params = init_params(config, rng)
    _check_params(params, config)
    adam_xf = init_adam(params.xfcnn)
    adam_cr = init_adam(params.crnn)
    history = []
    for step in range(1, steps + 1):
        params.zero_grads()
        img = dataset[int(rng.integers(len(dataset)))]
        sigma, rho, _ = _forward_graph(undersample(img, mask), params, config)
        node = _loss_node(sigma, rho, img.data, fft_t(img).data)
        loss = float(node.value)
        if not math.isfinite(loss):
            raise NonFiniteLossError(
                f"training loss became non-finite ({loss!r}) at step {step}; "
                "lower the learning rate or check the input scaling"
            )
        ad.backward(node)
        psnr_train = psnr(ComplexVolume(sigma.value, Domain.IMAGE), img)
        adam_step(params.xfcnn, adam_xf, lr=lr)
        adam_step(params.crnn, adam_cr, lr=lr)
        history.append(TrainRecord(step=step, loss=loss, psnr_train=psnr_train))
    return params, history


# ------------------------------------------------------------------ persistence


def save_params(path, params: KtNextParams) -> None:
    save_checkpoint(path, params.snapshot())


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

