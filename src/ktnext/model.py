"""Cascaded dynamic-MRI reconstruction network and its training loop.

Each cascade alternates two refinements: a small CNN de-aliases the signal
in the x-f domain (working on the residual around a data-consistent
temporal-average baseline), then a bidirectional convolutional-recurrent
block refines the image sequence frame by frame, and one data-consistency
node re-imposes the acquired samples; both networks see complex estimates
as (re, im) channels.  The whole stack is differentiable through the tape in
`autodiff`, so training is plain backprop + ADAM on the joint image/x-f
squared error of the last cascade, each step in float32 against float64
master weights.
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
    init_adam,
    load_checkpoint,
    save_checkpoint,
)
from .sampling import KtMeasurement, undersample
from .volume import ComplexVolume, Domain, fft_t
from .xf import cascade_inputs


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


def _layout(channels: int):
    """Every parameter of the one architecture at this width, in draw and
    checkpoint order: (record name, shape, He fan-in, or None for a zero bias).

    The first de-aliasing layer takes 4 channels: the real and imaginary
    parts of the x-f residual and of the x-f baseline.  A de-aliasing layer
    or the output projection forms its pre-activation from one convolution,
    so it uses the kernel's own fan-in.  In the recurrent block the i2h,
    h2h and ih2ih convolutions are summed into one pre-activation, and the
    two sweep directions are summed again; those kernels share the fan-in
    of the whole sum, 2*(c_in + 2*channels)*k*k.
    """
    k = KERNEL
    ch = channels
    for i in range(XF_LAYERS):
        ci = 4 if i == 0 else ch
        co = 2 if i == XF_LAYERS - 1 else ch
        yield f"xfcnn.w{i}", (co, ci, k, k), ci * k * k
        yield f"xfcnn.b{i}", (co,), None
    for layer in range(CRNN_LAYERS):
        ci = 2 if layer == 0 else ch
        fan_in = 2 * (ci + 2 * ch) * k * k
        yield f"crnn.i2h{layer}", (ch, ci, k, k), fan_in
        yield f"crnn.h2h{layer}", (ch, ch, k, k), fan_in
        yield f"crnn.ih2ih{layer}", (ch, ch, k, k), fan_in
        yield f"crnn.bias{layer}", (ch,), None
    yield "crnn.out_w", (2, ch, k, k), ch * k * k
    yield "crnn.out_b", (2,), None


def _check_shapes(shapes: dict, channels: int) -> None:
    """Raise ValueError unless a record name -> shape mapping is the layout at this width."""
    want = {name: shape for name, shape, _ in _layout(channels)}
    if shapes.keys() != want.keys():
        missing = sorted(want.keys() - shapes.keys())[:4]
        surplus = sorted(shapes.keys() - want.keys())[:4]
        raise ValueError(f"parameters do not match the architecture "
                         f"(missing {missing}, unexpected {surplus})")
    for i, (name, shape) in enumerate(want.items()):
        if shapes[name] != shape:
            what = "first de-aliasing layer " if i == 0 else ""
            raise ValueError(f"{what}{name} has shape {shapes[name]}, "
                             f"expected {shape} at {channels} channels")


def record_width(records: dict):
    """The width a checkpoint's records were written at: the output width of
    the layout's first record, or None when it is missing or rank 0."""
    name, _, _ = next(_layout(1))
    first = records.get(name)
    return first.shape[0] if first is not None and first.ndim else None


def init_params(config: KtNextConfig, seed) -> ParamStore:
    """He-initialized conv weights, zero biases, deterministic per seed.

    One set of weights serves every cascade.  `_layout` gives each shape and
    fan-in, and its order is the draw order, so identical seeds give
    identical weights regardless of platform.
    """
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    drawn = {name: np.zeros(shape) if fan_in is None
             else rng.standard_normal(shape) * np.sqrt(2.0 / fan_in)
             for name, shape, fan_in in _layout(config.channels)}
    return params_from(drawn, config)


def params_from(records: dict, config: KtNextConfig) -> ParamStore:
    """Parameters holding name -> array records, such as a checkpoint's; they
    must be the layout at config.channels, and the store keeps its order."""
    _check_shapes({name: value.shape for name, value in records.items()}, config.channels)
    return ParamStore({name: records[name] for name, _, _ in _layout(config.channels)})


def float32_params(records: dict, config: KtNextConfig, source: str) -> ParamStore:
    """The float32 store every forward and training step computes in, from
    float64 name -> array records (see `params_from`).  Raises
    FloatingPointError naming, after source, a record beyond float32's range."""
    with np.errstate(over="ignore"):
        params = params_from({name: v.astype(np.float32) for name, v in records.items()}, config)
    for name, t in params.items():
        if not np.isfinite(t.value).all():
            raise FloatingPointError(f"{source}: record {name!r} overflows float32")
    return params


# ------------------------------------------------------------------ forward


def _xf_residual(sigma, avg_img):
    """The current estimate minus the temporal average of the acquired k-space, in
    x-f space: F_t F_2^-1 (F_2 sigma - avg) = F_t (sigma - avg_img), avg_img = F_2^-1 avg."""
    return ad.fft_t(ad.add_const(sigma, -avg_img))


def _xfcnn_apply(residual, baseline, params):
    # residual and baseline are complex x-f tape tensors [F, Y, X]; rows are the batch
    x = ad.complex_to_channels([residual, baseline], 1)
    for i in range(XF_LAYERS):
        x = ad.conv2d(x, params[f"xfcnn.w{i}"], params[f"xfcnn.b{i}"], DILATION)
        if i < XF_LAYERS - 1:
            x = ad.relu(x)
    return ad.add(baseline, ad.channels_to_complex(x, 1))


def _crnn_apply(img, k_hybrid, bits, params, config, hidden):
    """One recurrent refinement and its DC, as (sigma, this cascade's hidden
    states).  It consumes hidden, the previous cascade's states or None: each
    layer sets its entry to None as it reads it, so without a tape no state
    outlives the layer that reads it."""
    seq = ad.complex_to_channels([img], 0)
    new_hidden = []
    for layer in range(CRNN_LAYERS):
        prev = None
        if hidden is not None:
            prev, hidden[layer] = hidden[layer], None
        seq = crnn_bidir_layer(
            seq,
            params[f"crnn.i2h{layer}"],
            params[f"crnn.h2h{layer}"],
            params[f"crnn.ih2ih{layer}"],
            params[f"crnn.bias{layer}"],
            hidden_prev=prev,
            dilation=DILATION,
        )
        new_hidden.append(seq)
    out = ad.conv2d(seq, params["crnn.out_w"], params["crnn.out_b"], DILATION)
    refined = ad.add(img, ad.channels_to_complex(out, 0))
    return ad.data_consistency(refined, k_hybrid, bits, config.dc_lambda), new_hidden


def _forward_graph(meas: KtMeasurement, params: ParamStore, config: KtNextConfig):
    """Build the full differentiable cascade: each cascade's (rho, sigma) tape tensors.

    The zero-filled start, the x-f baseline, the average's image and the
    acquired samples that each cascade's DC node re-imposes do not depend on
    the evolving estimate: `xf.cascade_inputs` builds them once per sequence.

    The graph computes in the weights' precision: the inputs are built in
    complex128 and cast once to the complex dtype of the weights, so float32
    weights give a complex64/float32 graph and float64 weights leave every
    bit as it was.
    """
    _check_shapes({name: t.value.shape for name, t in params.items()}, config.channels)
    cdtype = np.result_type(params["xfcnn.w0"].value, np.complex64)
    zero_img, avg_img, k_hybrid, baseline_xf = (a.astype(cdtype, copy=False)
                                                for a in cascade_inputs(meas))
    base = ad.constant(baseline_xf)
    sigma = ad.constant(zero_img)
    hidden = None
    traces = []
    for _ in range(config.n_cascades):
        rho = _xfcnn_apply(_xf_residual(sigma, avg_img), base, params)
        sigma, hidden = _crnn_apply(ad.ifft_t(rho), k_hybrid, meas.mask.bits, params, config,
                                    hidden)
        traces.append((rho, sigma))
    return traces


def ktnext_forward(m: KtMeasurement, params: ParamStore, config: KtNextConfig):
    """Run the full cascade from the zero-filled estimate, in the weights'
    precision (see `_forward_graph`).

    Returns the image estimate after each cascade, as complex128 image
    volumes in cascade order; the last one is the reconstruction.  Raises
    FloatingPointError when an x-f or image estimate holds NaN or Inf, as
    weights that overflow the forward pass produce.
    """
    with ad.no_tape():
        traces = _forward_graph(m, params, config)
    for n, (r, s) in enumerate(traces):
        if not (np.isfinite(r.value).all() and np.isfinite(s.value).all()):
            raise FloatingPointError(f"cascade {n} produced a non-finite estimate")
    return [ComplexVolume(s.value, Domain.IMAGE) for _, s in traces]


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


def fit(dataset, mask, config: KtNextConfig, steps: int, seed, lr: float = 1e-4):
    """Train on fully sampled sequences by simulated undersampling.

    Per step: draw one sequence, undersample it with the given mask, run
    the cascade, backpropagate the joint loss of the final image and x-f
    estimates, and apply one ADAM update to a fresh init_params draw.
    Mixed precision: the weights and ADAM moments are float64 masters, and
    each step's forward and backward run on their float32 copy
    (`float32_params`), whose gradients ADAM reads as float64.  Under hard DC
    with the k-space centre sampled in every frame, `crnn.out_b` stays 0.
    Returns the float64 store.  Deterministic for a fixed seed when numpy
    runs single-threaded.  lr must be finite and positive.
    """
    if not 0.0 < lr < math.inf:  # also rejects nan
        raise ValueError(f"learning rate must be finite and positive, got {lr!r}")
    dataset = list(dataset)
    if not dataset:
        raise ValueError("training dataset is empty")
    if steps < 1:
        raise ValueError("steps must be at least 1")
    rng = np.random.default_rng(seed)
    params = init_params(config, rng)
    adam = init_adam(params)
    history = []
    # under hard DC, a mask that samples the k-space centre column in every
    # frame removes out_b's constant image offset: its exact gradient is zero,
    # and ADAM would scale the float32 roundoff in it to steps of about lr
    hold_out_b = config.dc_lambda == math.inf and bool(mask.bits[:, mask.cols // 2].all())
    for step in range(1, steps + 1):
        work = float32_params(params.snapshot(), config, f"training weights at step {step}")
        img = dataset[int(rng.integers(len(dataset)))]
        rho, sigma = _forward_graph(undersample(img, mask), work, config)[-1]
        node = _loss_node(sigma, rho, img.data, fft_t(img).data)
        loss = float(node.value)
        if not math.isfinite(loss):
            raise NonFiniteLossError(
                f"training loss became non-finite ({loss!r}) at step {step}; "
                "lower the learning rate or check the input scaling"
            )
        ad.backward(node)
        if hold_out_b:
            work["crnn.out_b"].grad[...] = 0.0  # a zero ADAM step: out_b keeps its init 0
        psnr_train = psnr(ComplexVolume(sigma.value, Domain.IMAGE), img)
        adam_step(params, adam, lr, grads=work)
        history.append(TrainRecord(step=step, loss=loss, psnr_train=psnr_train))
    return params, history


# ------------------------------------------------------------------ persistence


def save_params(path, params: ParamStore) -> None:
    save_checkpoint(path, params.snapshot())


def load_params(path, config: KtNextConfig) -> ParamStore:
    """Read a KTNP checkpoint written at config's width (see `params_from`)."""
    return params_from(load_checkpoint(path), config)
