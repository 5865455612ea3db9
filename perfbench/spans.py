"""Span recorder for the traced run, installed from outside the program.

Every public function of every ktnext module is replaced, at each place its
name is bound (a `from ... import` binds it again in the importing module),
by a wrapper that records a span.  The vjp closure on each tensor an
autodiff op returns is wrapped too, so backward time splits into vjps and
the walk itself.  Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import threading
import time
import types
from collections import defaultdict
from pathlib import Path

MODULES = ("volume", "sampling", "xf", "autodiff", "network", "model", "metrics", "cli")

GLUE_OPS = ("relu", "leaky_relu", "add", "scale", "add_const", "concat_channels", "slice_frame",
            "stack_frames", "complex_to_channels_image", "channels_to_complex_image",
            "complex_to_channels_xf", "channels_to_complex_xf")
FFT_OPS = ("fft2c", "ifft2c", "fft_t", "ifft_t")
VOLUME_FFTS = ("fft2c", "ifft2c", "fft_t", "ifft_t", "fft1c", "ifft1c")
FILE_IO = ("load_sequence", "save_sequence", "load_mask", "save_mask")
CHECKPOINT_IO = ("save_checkpoint", "load_checkpoint")
# what one sequence costs inside `cmd_evaluate`, whichever thread runs it
PER_SEQUENCE = ("sampling.load_sequence", "sampling.undersample", "sampling.zero_filled",
                "model.ktnext_forward", "metrics.compute_metrics")


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "thread", "work")

    def __init__(self, id_, name, start, parent, thread):
        self.id = id_
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.thread = thread
        self.work = None  # conv2d: (flops, bytes, output bytes); files, tape nodes: bytes


class SpanRecorder:
    """Records spans while installed; `uninstall` puts every function back."""

    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack: list[Span] = []
        self._local.stack = self._main_stack
        self._saved = []
        self._tensor = None

    # ---------------------------------------------------------- spans

    def _open(self, name: str) -> Span:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        if stack:
            parent = stack[-1].id
        else:
            # a pool thread's outermost span belongs to whatever the
            # installing thread is waiting in (cmd_evaluate's pool.map)
            try:
                parent = self._main_stack[-1].id
            except IndexError:
                parent = None
        span = Span(next(self._ids), name, time.perf_counter(), parent, threading.get_ident())
        stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._local.stack.pop()
        self.spans.append(span)

    # ---------------------------------------------------------- wrapping

    def install(self) -> None:
        mods = [importlib.import_module(f"ktnext.{m}") for m in MODULES]
        self._tensor = importlib.import_module("ktnext.autodiff").Tensor
        wrappers = {}
        for mod in mods:
            for attr, fn in list(vars(mod).items()):
                if (not isinstance(fn, types.FunctionType) or fn.__name__.startswith("_")
                        or not fn.__module__.startswith("ktnext.")):
                    continue
                if fn not in wrappers:
                    wrappers[fn] = self._wrap(fn, f"{fn.__module__.split('.')[-1]}.{fn.__name__}")
                self._saved.append((mod, attr, fn))
                setattr(mod, attr, wrappers[fn])

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._saved):
            setattr(mod, attr, fn)
        self._saved.clear()

    def _wrap(self, fn, name: str):
        module, short = name.split(".", 1)
        if module == "autodiff":
            note = self._conv_note if short == "conv2d" else self._node_note
        elif short in FILE_IO or short in CHECKPOINT_IO:
            note = self._file_note
        else:
            note = None
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = rec._open(name)
            try:
                out = fn(*args, **kwargs)
                if note is not None:
                    note(span, args, out)
                return out
            finally:
                rec._close(span)

        return wrapper

    def _node_note(self, span, args, out):
        if isinstance(out, self._tensor):
            span.work = out.value.nbytes
            if out.vjp is not None:
                out.vjp = self._wrap_vjp(out.vjp, span.name + ".vjp", None)

    def _conv_note(self, span, args, out):
        x, w = args[0].value, args[1].value
        n, ci, h, wid = x.shape
        co, _, k, _ = w.shape
        flops = 2 * n * co * ci * k * k * h * wid
        # computed traffic, each array moved once: forward reads x and w and
        # writes the output; the vjp (twice the multiply-adds, for gx and gw)
        # reads g, x and w and writes gx and gw
        out_bytes = out.value.nbytes
        span.work = (flops, x.nbytes + w.nbytes + out_bytes, out_bytes)
        out.vjp = self._wrap_vjp(out.vjp, span.name + ".vjp",
                                 (2 * flops, out_bytes + 2 * x.nbytes + 2 * w.nbytes))

    def _file_note(self, span, args, out):
        span.work = Path(args[0]).stat().st_size

    def _wrap_vjp(self, vjp, name, work):
        rec = self

        def timed(g):
            span = rec._open(name)
            span.work = work
            try:
                return vjp(g)
            finally:
                rec._close(span)

        return timed

    # ---------------------------------------------------------- output

    def write(self, path) -> None:
        rows = [[s.id, s.name, s.start, s.end, s.parent, s.thread] for s in self.spans]
        Path(path).write_text(json.dumps({"fields": ["id", "name", "start", "end", "parent", "thread"],
                                          "spans": rows}))


def self_times(spans: list[Span]) -> dict[int, float]:
    """Per span: its duration minus the union of its child spans' intervals."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    out = {}
    for s in spans:
        covered = 0.0
        cursor = s.start
        for a, b in sorted(children.get(s.id, ())):
            a, b = max(a, cursor), min(b, s.end)
            if b > a:
                covered += b - a
                cursor = b
        out[s.id] = (s.end - s.start) - covered
    return out


def per_layer(spans: list[Span], items: int, workers: int, dgemm_gflops: float,
              overhead_pct: float) -> dict[str, float]:
    """Per-layer metrics from one traced stretch, per step or per sequence."""
    dur = defaultdict(float)
    calls = defaultdict(int)
    for s in spans:
        dur[s.name] += s.end - s.start
        calls[s.name] += 1
    selfs = self_times(spans)
    self_ms = defaultdict(float)
    for s in spans:
        self_ms[s.name] += selfs[s.id] * 1e3

    def ms(*names):
        return sum(dur[n] for n in names) * 1e3 / items

    def file_bytes(*names):
        return sum(s.work for s in spans if s.name in names) / items

    files = tuple(f"sampling.{n}" for n in FILE_IO)
    ckpts = tuple(f"network.{n}" for n in CHECKPOINT_IO)

    conv = [s for s in spans if s.name in ("autodiff.conv2d", "autodiff.conv2d.vjp")]
    flops = sum(s.work[0] for s in conv)
    conv_bytes = sum(s.work[1] for s in conv)
    conv_s = dur["autodiff.conv2d"] + dur["autodiff.conv2d.vjp"]
    nodes = [s for s in spans if s.name.startswith("autodiff.") and not s.name.endswith(".vjp")
             and s.work is not None]
    tape_bytes = sum(s.work[2] if isinstance(s.work, tuple) else s.work for s in nodes)

    busy = 0.0
    pool_wall = 0.0
    evaluate_ids = {s.id for s in spans if s.name == "cli.cmd_evaluate"}
    for s in spans:
        if s.id in evaluate_ids:
            pool_wall += workers * (s.end - s.start)
        elif s.parent in evaluate_ids and s.name in PER_SEQUENCE:
            busy += s.end - s.start

    def both(op):
        return (f"autodiff.{op}", f"autodiff.{op}.vjp")

    return {
        "autodiff.conv2d.calls": calls["autodiff.conv2d"] / items,
        "autodiff.conv2d.fwd_ms": ms("autodiff.conv2d"),
        "autodiff.conv2d.vjp_ms": ms("autodiff.conv2d.vjp"),
        "autodiff.conv2d.gflops": flops / 1e9 / items,
        "autodiff.conv2d.bytes": conv_bytes / items,
        "autodiff.conv2d.gflops_per_s": flops / 1e9 / conv_s if conv_s else 0.0,
        "machine.dgemm_gflops_per_s": dgemm_gflops,
        "autodiff.glue_ms": ms(*(n for op in GLUE_OPS for n in both(op))),
        "autodiff.fft_ms": ms(*(n for op in FFT_OPS for n in both(op))),
        "autodiff.dc_ms": ms(*both("data_consistency")),
        "autodiff.backward.self_ms": self_ms["autodiff.backward"] / items,
        "autodiff.nodes": len(nodes) / items,
        "autodiff.tape_mb": tape_bytes / 2**20 / items,
        "network.crnn_bidir_layer.ms": ms("network.crnn_bidir_layer"),
        "network.crnn_bidir_layer.calls": calls["network.crnn_bidir_layer"] / items,
        "network.adam_step.ms": ms("network.adam_step"),
        "network.checkpoint.ms": ms(*ckpts),
        "network.checkpoint.bytes": file_bytes(*ckpts),
        "model.fit.self_ms": self_ms["model.fit"] / items,
        "model.ktnext_forward.self_ms": self_ms["model.ktnext_forward"] / items,
        "model.load_params.ms": ms("model.load_params"),
        "xf.baseline_ms": ms("xf.kspace_temporal_average", "xf.dc_baseline_kspace"),
        "volume.fft_ms": ms(*(f"volume.{n}" for n in VOLUME_FFTS)),
        "sampling.io_ms": ms(*files),
        "sampling.io_bytes": file_bytes(*files),
        "sampling.undersample_ms": ms("sampling.undersample"),
        "metrics.ssim_ms": ms("metrics.ssim"),
        "metrics.hfen_ms": ms("metrics.hfen"),
        "metrics.psnr_ms": ms("metrics.psnr"),
        "cli.self_ms": sum(v for k, v in self_ms.items() if k.startswith("cli.")) / items,
        "cli.evaluate.worker_busy_share": busy / pool_wall if pool_wall else 0.0,
        "trace.overhead_pct": overhead_pct,
    }
