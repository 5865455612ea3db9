"""Command-line front end: mask generation, simulation, training, reconstruction,
evaluation, and figure emission.

Heavy imports happen inside the command handlers so the BLAS thread caps set
by _configure_threads (from KTNEXT_THREADS, forced to 1 by --deterministic)
take effect before numpy first loads.

Each command handler returns its run record (config, outputs and any extra
keys); main writes it, with the input flags its subparser declares, as the
run's JSON manifest once the command has succeeded.  A failed run writes none.

After numpy loads, main sets one glibc allocator policy for the whole process,
which outlives main (later in-process calls keep it) and changes no result:
freed heap up to 256 MiB stays mapped (M_TOP_PAD), so an op's temporaries reuse
the last op's pages instead of faulting fresh ones in, and arrays under 32 MiB
stay on the heap (M_MMAP_THRESHOLD), as any mallopt call ends glibc's sliding
mmap threshold, which would then map every array of 128 KiB or more afresh.

`train` writes its checkpoint and history to temporary siblings and renames
both into place only once both are written, so a failed run leaves neither.

Exit codes: 0 success, 2 bad flags or values, 3 I/O or allocation failure,
4 file format violation, 5 numeric failure.
"""

import argparse
import csv
import json
import math
import os
import sys
from dataclasses import asdict
from datetime import datetime, timezone
from pathlib import Path

_EXIT_FLAGS = 2
_EXIT_IO = 3  # also an allocation failure
_EXIT_FORMAT = 4
_EXIT_NUMERIC = 5


def _configure_threads(args) -> int:
    """Split KTNEXT_THREADS (1 under --deterministic) between evaluate's pool,
    one worker per sequence up to that count, and the BLAS threads of each
    worker; return the worker count.  Must run before numpy first loads."""
    raw = "1" if args.deterministic else os.environ.get("KTNEXT_THREADS", "").strip()
    if not raw:
        return 1
    count = int(raw) if raw.isdecimal() else 0
    if count < 1:
        raise ValueError(f"KTNEXT_THREADS must be a positive integer, got {raw!r}")
    workers = 1
    if args.command == "evaluate":
        try:
            workers = min(count, len(_sequence_files(args.input)))
        except OSError:
            pass  # cmd_evaluate reports the missing input
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        os.environ[var] = str(count // workers)
    return workers


def _lambda_value(text: str) -> float:
    if text == "inf":
        return math.inf
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number or 'inf', got {text!r}")
    if not value >= 0.0:
        raise argparse.ArgumentTypeError("--lambda must be nonnegative")
    return value


def _jsonable(value):
    if isinstance(value, float) and math.isinf(value):
        return "inf"
    return value


def _manifest_path(output) -> Path:
    out = Path(output)
    if out.is_dir():
        return out / "manifest.json"
    return Path(str(out) + ".manifest.json")


def _write_manifest(args, config: dict, outputs: dict, **extra) -> None:
    doc = {
        "command": args.command,
        "config": {k: _jsonable(v) for k, v in config.items()},
        "seed": getattr(args, "seed", None),
        "inputs": {name: getattr(args, name) for name in args.inputs},
        "outputs": outputs,
        "deterministic": bool(args.deterministic),
        "timestamp": None if args.deterministic
        else datetime.now(timezone.utc).isoformat(timespec="seconds"),
        **extra,
    }
    path = _manifest_path(args.output)
    path.write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n")


def _ensure_parent(path) -> None:
    parent = Path(path).parent
    if str(parent):
        parent.mkdir(parents=True, exist_ok=True)


def _write_csv(path, header, rows) -> None:
    _ensure_parent(path)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _model_config(args, channels):
    from .model import KtNextConfig

    return KtNextConfig(n_cascades=args.cascades, channels=channels, dc_lambda=args.dc_lambda)


def _load_model(args):
    """The network and weights of the checkpoint a command reads, parsing the
    KTNP once.  An omitted --channels takes the checkpoint's width.

    Inference runs in float32: the float64 records are cast once, so the
    forward computes in float32 (see `model._forward_graph`).  A record
    beyond float32's range is a numeric failure."""
    from .model import float32_params, record_width
    from .network import load_checkpoint

    # bad flag values exit 2 before the file is read
    config = None if args.channels is None else _model_config(args, args.channels)
    records = load_checkpoint(args.checkpoint)
    width = record_width(records)
    if config is None:
        if not width:
            raise ValueError(f"{args.checkpoint} has no xfcnn.w0 of nonzero width "
                             "to take --channels from")
        config = _model_config(args, width)
    elif width is not None and width != config.channels:
        raise ValueError(f"--channels {config.channels} does not match {args.checkpoint}, "
                         f"whose network is {width} channels wide")
    return config, float32_params(records, config, args.checkpoint)


def _sequence_files(path):
    """One .ckt file, or every .ckt in a directory (sorted for determinism)."""
    p = Path(path)
    if p.is_dir():
        files = sorted(p.glob("*.ckt"))
        if not files:
            raise FileNotFoundError(f"no .ckt sequences in {p}")
        return files
    if not p.exists():
        raise FileNotFoundError(str(p))
    return [p]


def _write_pgm(path, image) -> None:
    """Binary PGM, maxval 255; image is a 2-D float array already in [0, 1]."""
    import numpy as np

    u8 = np.clip(np.rint(np.asarray(image) * 255.0), 0, 255).astype(np.uint8)
    h, w = u8.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        fh.write(u8.tobytes())


# ------------------------------------------------------------------ commands


def cmd_mask(args) -> dict:
    from .sampling import AcquisitionSpec, make_shear_mask, save_mask

    spec = AcquisitionSpec(accel=args.accel, n_center=args.center)
    mask = make_shear_mask(spec, args.frames, args.cols)
    _ensure_parent(args.output)
    save_mask(args.output, mask)
    sampled = int(mask.bits.sum())
    effective = args.frames * args.cols / sampled
    print(f"wrote {args.output}: {args.frames} frames x {args.cols} columns, "
          f"{sampled} sampled, effective acceleration {effective!r}")
    return {"config": {"accel": args.accel, "center": args.center,
                       "frames": args.frames, "cols": args.cols, "shear_step": 1},
            "outputs": {"mask": str(args.output)},
            "effective_acceleration": effective}


def cmd_simulate(args) -> dict:
    from .sampling import generate_phantom, load_mask, load_sequence, save_sequence, undersample

    # every input is checked before the first file is written
    mask = load_mask(args.mask) if args.mask else None
    if mask is not None and (mask.t_frames, mask.cols) != (args.frames, args.cols):
        raise ValueError(f"mask {mask.bits.shape} does not match "
                         f"{args.frames} frames x {args.cols} columns")
    gt = generate_phantom(args.seed, args.frames, args.rows, args.cols)
    out = Path(args.output)
    out.mkdir(parents=True, exist_ok=True)
    written = {"sequence": str(out / "sequence.ckt")}
    save_sequence(out / "sequence.ckt", gt)
    if mask is not None:
        # measure the stored sequence, not the pre-quantization one, so the
        # file pair stays consistent after the float32 round trip
        meas = undersample(load_sequence(out / "sequence.ckt"), mask)
        save_sequence(out / "kspace.ckt", meas.kspace)
        written["kspace"] = str(out / "kspace.ckt")
    print(f"wrote {', '.join(sorted(written.values()))}")
    return {"config": {"seed": args.seed, "frames": args.frames,
                       "rows": args.rows, "cols": args.cols},
            "outputs": written}


def cmd_train(args) -> dict:
    import errno
    import tempfile

    from .model import fit, save_params
    from .sampling import load_mask, load_sequence

    config = _model_config(args, 16 if args.channels is None else args.channels)
    mask = load_mask(args.mask)
    files = _sequence_files(args.input)
    dataset = [load_sequence(f) for f in files]
    params, history = fit(dataset, mask, config, steps=args.steps,
                          seed=args.seed, lr=args.lr)
    targets, temps = (Path(args.checkpoint), Path(args.output)), []
    try:
        for target in targets:
            _ensure_parent(target)
            fd, temp = tempfile.mkstemp(prefix=f".{target.name}.", suffix=".tmp", dir=target.parent)
            os.close(fd)
            temps.append(Path(temp))
        save_params(temps[0], params)
        _write_csv(temps[1], ["step", "loss", "psnr_train"],
                   ([rec.step, repr(rec.loss), repr(rec.psnr_train)] for rec in history))
        for target in targets:
            if target.is_dir():
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(target))
        for temp, target in zip(temps, targets):
            os.replace(temp, target)
    finally:
        for temp in temps:
            temp.unlink(missing_ok=True)
    print(f"trained {args.steps} steps on {len(dataset)} sequences; "
          f"loss {history[0].loss!r} -> {history[-1].loss!r}")
    return {"config": asdict(config),
            "outputs": {"checkpoint": str(args.checkpoint), "history": str(args.output)},
            "steps": args.steps, "lr": args.lr}


def cmd_reconstruct(args) -> dict:
    from .model import ktnext_forward
    from .sampling import KtMeasurement, load_mask, load_sequence, save_sequence
    from .volume import Domain

    config, params = _load_model(args)
    mask = load_mask(args.mask)
    kspace = load_sequence(args.input, domain=Domain.KSPACE)
    meas = KtMeasurement(kspace=kspace, mask=mask)
    stages = ktnext_forward(meas, params, config)
    # a .ckt path gets only the final volume; anything else is a directory
    # that also receives the per-cascade intermediates
    if str(args.output).endswith(".ckt"):
        _ensure_parent(args.output)
        save_sequence(args.output, stages[-1])
        written = {"reconstruction": str(args.output)}
    else:
        out = Path(args.output)
        out.mkdir(parents=True, exist_ok=True)
        save_sequence(out / "reconstruction.ckt", stages[-1])
        written = {"reconstruction": str(out / "reconstruction.ckt")}
        for n, stage in enumerate(stages):
            name = f"cascade_{n:02d}.ckt"
            save_sequence(out / name, stage)
            written[f"cascade_{n:02d}"] = str(out / name)
    print(f"reconstructed {args.input} -> {written['reconstruction']}")
    return {"config": asdict(config), "outputs": written}


def cmd_evaluate(args) -> dict:
    from concurrent.futures import ThreadPoolExecutor

    import numpy as np

    from .metrics import GroundTruth
    from .model import ktnext_forward
    from .sampling import load_mask, load_sequence, undersample, zero_filled

    config, params = _load_model(args)
    mask = load_mask(args.mask)
    files = _sequence_files(args.input)

    def score(path):
        with np.errstate(all="ignore"):  # pool threads do not inherit main's
            gt = load_sequence(path)
            meas = undersample(gt, mask)
            sigma = ktnext_forward(meas, params, config)[-1]
            truth = GroundTruth(gt)  # scored twice: one |gt|, one set of its planes
            return truth.score(sigma), truth.score(zero_filled(meas))

    if args.workers > 1:
        with ThreadPoolExecutor(max_workers=args.workers) as pool:
            scored = list(pool.map(score, files))
    else:
        scored = [score(path) for path in files]
    _write_csv(args.output, ["file", "psnr", "ssim", "hfen",
                             "psnr_zero_filled", "ssim_zero_filled", "hfen_zero_filled"],
               ([path.name, repr(model_m.psnr), repr(model_m.ssim), repr(model_m.hfen),
                 repr(zf_m.psnr), repr(zf_m.ssim), repr(zf_m.hfen)]
                for path, (model_m, zf_m) in zip(files, scored)))
    print(f"evaluated {len(files)} sequences -> {args.output}")
    return {"config": asdict(config), "outputs": {"metrics": str(args.output)}}


def _render_sequence(out: Path, prefix: str, vol) -> None:
    import numpy as np

    from .volume import fft_t

    mags = np.abs(vol.data)
    scale = float(mags.max()) or 1.0
    for t in range(mags.shape[0]):
        _write_pgm(out / f"{prefix}frame_{t:03d}.pgm", mags[t] / scale)
    row = vol.rows // 2
    _write_pgm(out / f"{prefix}xt_profile.pgm", mags[:, row, :] / scale)
    xf_mag = np.abs(fft_t(vol).data)[:, row, :]
    xf_scale = float(xf_mag.max()) or 1.0  # f=0 dominates; own scale keeps replicas visible
    _write_pgm(out / f"{prefix}xf_plane.pgm", xf_mag / xf_scale)


def cmd_render(args) -> dict:
    import numpy as np

    from .sampling import load_sequence

    # the reconstruction is computed before the first figure is written
    if bool(args.checkpoint) != bool(args.mask):
        raise ValueError("rendering a reconstruction needs --mask and --checkpoint together")
    seq = load_sequence(args.input)
    sigma, config = None, {}
    if args.checkpoint:
        from .model import ktnext_forward
        from .sampling import load_mask, undersample

        model_config, params = _load_model(args)
        meas = undersample(seq, load_mask(args.mask))
        sigma = ktnext_forward(meas, params, model_config)[-1]
        config = asdict(model_config)
    out = Path(args.output)
    out.mkdir(parents=True, exist_ok=True)
    _render_sequence(out, "", seq)
    if sigma is not None:
        _render_sequence(out, "recon_", sigma)
        scale = float(np.abs(seq.data).max()) or 1.0
        for t in range(seq.t_frames):
            err = np.abs(sigma.data[t] - seq.data[t]) / scale
            _write_pgm(out / f"error_{t:03d}.pgm", 6.0 * err)  # x6, as error maps are usually shown
    print(f"rendered {seq.t_frames} frames to {out}"
          + (" (with reconstruction and error maps)" if sigma is not None else ""))
    return {"config": config, "outputs": {"directory": str(out)}}


# ------------------------------------------------------------------ wiring


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--deterministic", action="store_true",
                        help="single-threaded, timestamp-free, byte-reproducible run")
    # the architecture of the checkpoint a command writes or reads
    arch = argparse.ArgumentParser(add_help=False)
    arch.add_argument("--cascades", type=int, default=4)
    arch.add_argument("--channels", type=int,
                      help="network width (train: 16; otherwise the checkpoint's)")
    arch.add_argument("--lambda", dest="dc_lambda", type=_lambda_value, default="inf")

    parser = argparse.ArgumentParser(
        prog="ktnext",
        description="Dynamic MRI reconstruction by alternating x-f de-aliasing "
                    "and recurrent image refinement.",
        epilog="exit codes: 0 success, 2 bad flags or values, 3 I/O or allocation "
               "failure, 4 file format violation, 5 numeric failure",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("mask", parents=[common], help="generate a shear-grid sampling mask")
    p.add_argument("--accel", type=int, required=True)
    p.add_argument("--center", type=int, default=4)
    p.add_argument("--frames", type=int, required=True)
    p.add_argument("--cols", type=int, required=True)
    p.add_argument("--output", required=True)
    p.set_defaults(func=cmd_mask, inputs=())

    p = sub.add_parser("simulate", parents=[common],
                       help="generate a dynamic phantom (and its masked k-space)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--frames", type=int, default=8)
    p.add_argument("--rows", type=int, default=32)
    p.add_argument("--cols", type=int, default=32)
    p.add_argument("--mask")
    p.add_argument("--output", required=True, help="output directory")
    p.set_defaults(func=cmd_simulate, inputs=("mask",))

    p = sub.add_parser("train", parents=[common, arch], help="train on fully sampled sequences")
    p.add_argument("--input", required=True, help=".ckt file or directory of them")
    p.add_argument("--mask", required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--lr", type=float, default=1e-4)
    p.add_argument("--checkpoint", required=True, help="output weights file")
    p.add_argument("--output", required=True, help="output history CSV")
    p.set_defaults(func=cmd_train, inputs=("input", "mask"))

    p = sub.add_parser("reconstruct", parents=[common, arch],
                       help="reconstruct a measured k-space sequence")
    p.add_argument("--input", required=True, help="k-space .ckt file")
    p.add_argument("--mask", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--output", required=True,
                   help=".ckt file for the final volume, or a directory "
                        "to also keep per-cascade intermediates")
    p.set_defaults(func=cmd_reconstruct, inputs=("input", "mask", "checkpoint"))

    p = sub.add_parser("evaluate", parents=[common, arch],
                       help="score reconstructions against ground truth")
    p.add_argument("--input", required=True, help="ground-truth .ckt file or directory")
    p.add_argument("--mask", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--output", required=True, help="output metrics CSV")
    p.set_defaults(func=cmd_evaluate, inputs=("input", "mask", "checkpoint"))

    p = sub.add_parser("render", parents=[common, arch],
                       help="emit grayscale PGM figures for a sequence")
    p.add_argument("--input", required=True, help="image-domain .ckt file")
    p.add_argument("--mask")
    p.add_argument("--checkpoint", help="also render the model reconstruction and error maps")
    p.add_argument("--output", required=True, help="output directory")
    p.set_defaults(func=cmd_render, inputs=("input", "mask", "checkpoint"))

    return parser


def main(argv=None) -> int:
    """Run one command and return its exit code.  Once the flags are read, sets
    the allocator policy of the module docstring for the whole process, past
    this return: the heap top pad, with the mmap threshold the pad needs."""
    args = _build_parser().parse_args(argv)
    try:
        args.workers = _configure_threads(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_FLAGS
    # imported lazily so the thread caps above are already in place
    import ctypes  # numpy imports it too

    import numpy as np

    libc = ctypes.CDLL(None) if sys.platform == "linux" else None
    if hasattr(libc, "gnu_get_libc_version") and hasattr(libc, "mallopt"):
        libc.mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
        libc.mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD
        libc.mallopt(-2, 256 << 20)  # M_TOP_PAD

    from .metrics import UndefinedMetricError
    from .sampling import FileFormatError

    try:
        # overflow surfaces through the non-finite checks, not numpy warnings
        with np.errstate(all="ignore"):
            _write_manifest(args, **args.func(args))
        return 0
    except FileFormatError as exc:
        print(f"error: malformed file: {exc}", file=sys.stderr)
        return _EXIT_FORMAT
    except (FloatingPointError, UndefinedMetricError) as exc:
        print(f"error: numeric failure: {exc}", file=sys.stderr)
        return _EXIT_NUMERIC
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_IO
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return _EXIT_IO
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_FLAGS


if __name__ == "__main__":
    sys.exit(main())
