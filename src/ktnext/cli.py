"""Command-line front end: mask generation, simulation, training, reconstruction,
evaluation, and figure emission.

Heavy imports happen inside the command handlers so the BLAS thread caps set
by _configure_threads (from KTNEXT_THREADS, forced to 1 by --deterministic)
take effect before numpy first loads.

A process builds one parser (_build_parser is cached), and it holds the flags
alone: main runs the handler `cmd_<command>`, looked up by name at call time,
which returns its run record (config, outputs, its summary line and any extra
keys); main writes it, with the command's input files (_INPUTS), as the run's
JSON manifest, and prints the summary on success.

After numpy loads, main sets one glibc allocator policy for the whole process,
which outlives main (later in-process calls keep it) and changes no result:
freed heap up to 256 MiB stays mapped (M_TOP_PAD), so an op's temporaries reuse
the last op's pages instead of faulting fresh ones in, and arrays under 32 MiB
stay on the heap (M_MMAP_THRESHOLD), as any mallopt call ends glibc's sliding
mmap threshold, which would then map every array of 128 KiB or more afresh.

Every file a command writes, `mask` and `evaluate` included, goes to the
temporary sibling that main's one staging scope (_staged) hands the handler,
the manifest last; all are renamed into place only once all are written, so
a failed run adds no file or directory, changes none and prints only `error:`.

Exit codes: 0 success, 2 bad flags or values, 3 I/O or allocation failure,
4 file format violation, 5 numeric failure.
"""

import argparse
import csv
import errno
import functools
import json
import math
import os
import sys
from contextlib import contextmanager, suppress
from dataclasses import asdict, replace
from datetime import datetime, timezone
from pathlib import Path

_EXIT_FLAGS = 2
_EXIT_IO = 3  # also an allocation failure
_EXIT_FORMAT = 4
_EXIT_NUMERIC = 5
# the flags naming the files each command reads, which its manifest records
_INPUTS = {"mask": (), "simulate": ("mask",), "train": ("input", "mask"),
           **dict.fromkeys(("reconstruct", "evaluate", "render"), ("input", "mask", "checkpoint"))}


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


def _jsonable(value):
    if isinstance(value, float) and math.isinf(value):
        return "inf"
    return value


def _manifest_path(output) -> Path:
    out = Path(output)
    if out.is_dir():
        return out / "manifest.json"
    return Path(str(out) + ".manifest.json")


def _write_manifest(path, args, config: dict, outputs: dict, **extra) -> None:
    doc = {
        "command": args.command,
        "config": {k: _jsonable(v) for k, v in config.items()},
        "seed": getattr(args, "seed", None),
        "inputs": {name: getattr(args, name) for name in _INPUTS[args.command]},
        "outputs": outputs,
        "deterministic": bool(args.deterministic),
        "timestamp": None if args.deterministic
        else datetime.now(timezone.utc).isoformat(timespec="seconds"),
        **extra,
    }
    path.write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n")


@contextmanager
def _staged():
    """Yield stage(target), which makes the target's directory and returns the
    temporary sibling to write.  Once the block returns, rename each temporary
    over its target in the order staged.  If a target is a directory, or
    anything fails, none is renamed, every temporary and every directory stage
    made is removed (nearest first), and an OSError names the target instead."""
    temps, made = {}, []

    def stage(target):
        target = Path(target)
        made.extend(p for p in reversed(target.parents) if not p.exists())
        target.parent.mkdir(parents=True, exist_ok=True)
        temp = target.with_name(f".{target.name}.{os.getpid()}.tmp")
        temps[str(temp)] = target
        return temp

    try:
        yield stage
        for target in temps.values():
            if target.is_dir():
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(target))
        for temp, target in temps.items():
            os.replace(temp, target)
    except BaseException as exc:
        for temp in temps:
            Path(temp).unlink(missing_ok=True)
        for directory in reversed(made):
            with suppress(OSError):  # holds a file only if a rename got that far
                directory.rmdir()
        if isinstance(exc, OSError) and str(exc.filename) in temps:
            exc.filename = str(temps[str(exc.filename)])
        raise


def _write_csv(path, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _model_config(args):
    """The network flags given, with KtNextConfig's defaults for the rest;
    KtNextConfig checks them all, so a bad one exits 2 before any file is read."""
    from .model import KtNextConfig

    given = {"n_cascades": args.cascades, "channels": args.channels, "dc_lambda": args.dc_lambda}
    return KtNextConfig(**{name: value for name, value in given.items() if value is not None})


def _load_model(args):
    """The network and weights of the checkpoint a command reads, parsing the
    KTNP once.  An omitted --channels takes the checkpoint's width.

    Inference runs in float32: the float64 records are cast once, so the
    forward computes in float32 (see `model._forward_graph`).  A record
    beyond float32's range is a numeric failure."""
    from .model import float32_params, record_width
    from .network import load_checkpoint

    config = _model_config(args)
    records = load_checkpoint(args.checkpoint)
    width = record_width(records)
    if args.channels is None:
        if not width:
            raise ValueError(f"{args.checkpoint} has no xfcnn.w0 of nonzero width "
                             "to take --channels from")
        config = replace(config, channels=width)
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


def cmd_mask(args, stage) -> dict:
    from .sampling import make_shear_mask, save_mask

    mask = make_shear_mask(args.accel, args.frames, args.cols, n_center=args.center)
    save_mask(stage(args.output), mask)
    sampled = int(mask.bits.sum())
    effective = args.frames * args.cols / sampled
    return {"config": {"accel": args.accel, "center": args.center,
                       "frames": args.frames, "cols": args.cols, "shear_step": 1},
            "outputs": {"mask": str(args.output)},
            "effective_acceleration": effective,
            "summary": f"wrote {args.output}: {args.frames} frames x {args.cols} columns, "
                       f"{sampled} sampled, effective acceleration {effective!r}"}


def cmd_simulate(args, stage) -> dict:
    from .sampling import check_size, generate_phantom, load_mask, save_sequence, undersample

    # every input, and the size against CKT1's rule, is checked before the phantom is made
    mask = load_mask(args.mask) if args.mask else None
    if mask is not None and (mask.t_frames, mask.cols) != (args.frames, args.cols):
        raise ValueError(f"mask {mask.bits.shape} does not match "
                         f"{args.frames} frames x {args.cols} columns")
    check_size((args.frames, args.rows, args.cols), 8, "CKT1")
    gt = generate_phantom(args.seed, args.frames, args.rows, args.cols)
    out = Path(args.output)
    names = ("sequence", "kspace") if mask is not None else ("sequence",)
    written = {name: str(out / f"{name}.ckt") for name in names}
    save_sequence(stage(written["sequence"]), gt)
    if mask is not None:  # measure the complex64 CKT1 stores, so the file pair agrees
        stored = replace(gt, data=gt.data.astype("<c8"))
        save_sequence(stage(written["kspace"]), undersample(stored, mask).kspace)
    return {"config": {"seed": args.seed, "frames": args.frames,
                       "rows": args.rows, "cols": args.cols},
            "outputs": written, "summary": f"wrote {', '.join(sorted(written.values()))}"}


def cmd_train(args, stage) -> dict:
    from .model import fit, save_params
    from .sampling import load_mask, load_sequence

    config = _model_config(args)
    mask = load_mask(args.mask)
    files = _sequence_files(args.input)
    dataset = [load_sequence(f) for f in files]
    params, history = fit(dataset, mask, config, steps=args.steps,
                          seed=args.seed, lr=args.lr)
    save_params(stage(args.checkpoint), params)
    _write_csv(stage(args.output), ["step", "loss", "psnr_train"],
               ([rec.step, repr(rec.loss), repr(rec.psnr_train)] for rec in history))
    return {"config": asdict(config),
            "outputs": {"checkpoint": str(args.checkpoint), "history": str(args.output)},
            "steps": args.steps, "lr": args.lr,
            "summary": f"trained {args.steps} steps on {len(dataset)} sequences; "
                       f"loss {history[0].loss!r} -> {history[-1].loss!r}"}


def cmd_reconstruct(args, stage) -> dict:
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
        volumes = {"reconstruction": (Path(args.output), stages[-1])}
    else:
        out = Path(args.output)
        volumes = {"reconstruction": (out / "reconstruction.ckt", stages[-1]),
                   **{f"cascade_{n:02d}": (out / f"cascade_{n:02d}.ckt", vol)
                      for n, vol in enumerate(stages)}}
    for path, vol in volumes.values():
        save_sequence(stage(path), vol)
    written = {key: str(path) for key, (path, _) in volumes.items()}
    return {"config": asdict(config), "outputs": written,
            "summary": f"reconstructed {args.input} -> {written['reconstruction']}"}


def cmd_evaluate(args, stage) -> dict:
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
    else:  # no pool for one worker: a pool thread's own glibc malloc arena read +7%
        # eval_wide peak RSS; one arena (M_ARENA_MAX) undid that but grew two workers'
        scored = [score(path) for path in files]
    _write_csv(stage(args.output), ["file", "psnr", "ssim", "hfen",
                                    "psnr_zero_filled", "ssim_zero_filled", "hfen_zero_filled"],
               ([path.name, repr(model_m.psnr), repr(model_m.ssim), repr(model_m.hfen),
                 repr(zf_m.psnr), repr(zf_m.ssim), repr(zf_m.hfen)]
                for path, (model_m, zf_m) in zip(files, scored)))
    return {"config": asdict(config), "outputs": {"metrics": str(args.output)},
            "summary": f"evaluated {len(files)} sequences -> {args.output}"}


def _sequence_figures(prefix: str, vol) -> dict:
    """A sequence's figures, by file name: its frames, an x-t and an x-f plane."""
    import numpy as np

    from .volume import fft_t

    mags = np.abs(vol.data)
    scale = float(mags.max()) or 1.0
    figures = {f"{prefix}frame_{t:03d}.pgm": mags[t] / scale for t in range(mags.shape[0])}
    row = vol.rows // 2
    figures[f"{prefix}xt_profile.pgm"] = mags[:, row, :] / scale
    xf_mag = np.abs(fft_t(vol).data)[:, row, :]
    xf_scale = float(xf_mag.max()) or 1.0  # f=0 dominates; own scale keeps replicas visible
    figures[f"{prefix}xf_plane.pgm"] = xf_mag / xf_scale
    return figures


def cmd_render(args, stage) -> dict:
    import numpy as np

    from .sampling import load_sequence

    # the flags are checked before any file is read, and the reconstruction
    # is computed before the first figure is written
    if bool(args.checkpoint) != bool(args.mask):
        raise ValueError("rendering a reconstruction needs --mask and --checkpoint together")
    model_config, params = _load_model(args) if args.checkpoint else (_model_config(args), None)
    seq = load_sequence(args.input)
    sigma, config = None, {}
    if params is not None:
        from .model import ktnext_forward
        from .sampling import load_mask, undersample

        meas = undersample(seq, load_mask(args.mask))
        sigma = ktnext_forward(meas, params, model_config)[-1]
        config = asdict(model_config)
    out = Path(args.output)
    figures = _sequence_figures("", seq)
    if sigma is not None:
        figures.update(_sequence_figures("recon_", sigma))
        scale = float(np.abs(seq.data).max()) or 1.0
        for t in range(seq.t_frames):
            err = np.abs(sigma.data[t] - seq.data[t]) / scale
            figures[f"error_{t:03d}.pgm"] = 6.0 * err  # x6, as error maps are usually shown
    for name, image in figures.items():
        _write_pgm(stage(out / name), image)
    return {"config": config, "outputs": {"directory": str(out)},
            "summary": f"rendered {seq.t_frames} frames to {out}"
            + (" (with reconstruction and error maps)" if sigma is not None else "")}


# ------------------------------------------------------------------ wiring


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--deterministic", action="store_true",
                        help="single-threaded, timestamp-free, byte-reproducible run")
    # the network a command trains or runs; KtNextConfig holds the defaults and rules
    arch = argparse.ArgumentParser(add_help=False)
    arch.add_argument("--cascades", type=int)
    arch.add_argument("--channels", type=int,
                      help="network width (default: the checkpoint's; train: KtNextConfig's)")
    arch.add_argument("--lambda", dest="dc_lambda", type=float,
                      help="data-consistency weight (inf = hard replacement)")

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

    p = sub.add_parser("simulate", parents=[common],
                       help="generate a dynamic phantom (and its masked k-space)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--frames", type=int, default=8)
    p.add_argument("--rows", type=int, default=32)
    p.add_argument("--cols", type=int, default=32)
    p.add_argument("--mask")
    p.add_argument("--output", required=True, help="output directory")

    p = sub.add_parser("train", parents=[common, arch], help="train on fully sampled sequences")
    p.add_argument("--input", required=True, help=".ckt file or directory of them")
    p.add_argument("--mask", required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--lr", type=float, default=1e-4)
    p.add_argument("--checkpoint", required=True, help="output weights file")
    p.add_argument("--output", required=True, help="output history CSV")

    p = sub.add_parser("reconstruct", parents=[common, arch],
                       help="reconstruct a measured k-space sequence")
    p.add_argument("--input", required=True, help="k-space .ckt file")
    p.add_argument("--mask", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--output", required=True,
                   help=".ckt file for the final volume, or a directory "
                        "to also keep per-cascade intermediates")

    p = sub.add_parser("evaluate", parents=[common, arch],
                       help="score reconstructions against ground truth")
    p.add_argument("--input", required=True, help="ground-truth .ckt file or directory")
    p.add_argument("--mask", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--output", required=True, help="output metrics CSV")

    p = sub.add_parser("render", parents=[common, arch],
                       help="emit grayscale PGM figures for a sequence")
    p.add_argument("--input", required=True, help="image-domain .ckt file")
    p.add_argument("--mask")
    p.add_argument("--checkpoint", help="also render the model reconstruction and error maps")
    p.add_argument("--output", required=True, help="output directory")

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

    from .sampling import FileFormatError

    try:
        # overflow surfaces through the non-finite checks, not numpy warnings
        with _staged() as stage, np.errstate(all="ignore"):
            record = globals()[f"cmd_{args.command}"](args, stage)
            summary = record.pop("summary")
            _write_manifest(stage(_manifest_path(args.output)), args, **record)
        print(summary)
        return 0
    except FileFormatError as exc:
        print(f"error: malformed file: {exc}", file=sys.stderr)
        return _EXIT_FORMAT
    except FloatingPointError as exc:
        print(f"error: numeric failure: {exc}", file=sys.stderr)
        return _EXIT_NUMERIC
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_IO
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return _EXIT_IO
    except (ValueError, OverflowError) as exc:  # an int too large for numpy
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_FLAGS


if __name__ == "__main__":
    sys.exit(main())
