"""ktnext benchmark: drives the real CLI (`ktnext.cli.main`, in-process).

    python3 perfbench/run.py --workload train_c8 --seed 1 --seconds 15 --trace 0

Run from the root of a checkout.  Workloads are defined in workloads.py.
Each run

1. sets up several times, each in a fresh interpreter: imports `ktnext.cli`
   and the modules it loads lazily, then writes every input from the seed
   with `ktnext mask` / `ktnext simulate` and `model.save_params`;
   a fresh interpreter importing numpy and scipy alone is timed before and
   after each set-up, as the set-up's reference;
2. makes one warm-up CLI call, then repeats the workload's CLI call until
   `--seconds` have passed, checking every call's outputs and timing a
   fixed reference loop between calls;
3. after the timed calls, reconstructs one measurement with
   `ktnext reconstruct` and checks hard data consistency, and (train) loads
   the trained checkpoint back.

End-to-end metrics (`--trace 0`):

* `items_per_ref`: training steps or evaluated sequences completed in the
  time the reference loop takes (see `_reference_s`), median over calls.
  The raw rate (`steps_per_s` / `seqs_per_s`) and the reference time are
  printed beside it; the raw rate alone swings with the shared host.
* `peak_rss_mb`: `ru_maxrss` of this process, fresh per run.
* `rmse_vs_zero_filled`: RMSE of the program's reconstruction over that of
  zero-filling, geometric mean over the phantoms (train: the final step of
  each call).  Deterministic per seed; it guards the numbers, not speed.
* `setup_s`: set-up wall time over the mean of its two reference times,
  median over the set-ups, times `SETUP_REF_NOMINAL_S`: the set-up time on
  a host where the reference takes that long.  The host's speed drifts by
  a quarter over minutes and set-up is nine tenths imports, so the raw
  time followed the drift; the raw time (`setup_wall_s`) and the reference
  (`setup_ref_s`) are printed beside it.

`train_psnr_db` / `eval_psnr_db` and `error_rate` are printed too; they are
left out of the JSON line because the training PSNR is negative at the
current init and the error rate is zero when all is well.  The JSON's
`attempted` and `failed` carry the error rate.

With `--trace 1` it alternates untraced and traced calls (see spans.py) and
prints the per-layer metrics instead.  The last stdout line is one JSON
object.  BLAS is pinned to one thread before numpy loads; the evaluate pool
size comes from `KTNEXT_THREADS`, set to `POOL_WORKERS`.
"""

from __future__ import annotations

import os

BLAS_THREADS = "1"
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import contextlib
import hashlib
import io
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from workloads import (BENCHMARK, POOL_WORKERS, TRAIN_SEED, TRAIN_STEPS, WORKLOADS, Layout,
                       config_of, make_inputs)

HERE = Path(__file__).resolve().parent
SETUP_REPEATS = 7
# the set-up's reference: what the program's imports cost, without ktnext
SETUP_REF_CODE = ("import time; t0 = time.perf_counter(); "
                  "import argparse, concurrent.futures, csv, json, numpy, scipy.ndimage; "
                  "print(time.perf_counter() - t0)")
SETUP_REF_NOMINAL_S = 0.4  # the reference's time, about, on a 2-vCPU Xeon VM
SETUP_TIMEOUT_S = 120
REFERENCE_ROUNDS = 40


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--make-inputs", metavar="DIR", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def _checkout() -> Path:
    root = Path.cwd()
    if not (root / "src" / "ktnext" / "cli.py").is_file():
        raise SystemExit(f"error: {root} holds no ktnext source (src/ktnext/cli.py); "
                         "run from the root of a checkout")
    sys.path.insert(0, str(root / "src"))
    sys.path.insert(0, str(HERE))
    return root


def _make_inputs_child(args) -> int:
    """Fresh-interpreter setup: time the imports and the input writing."""
    t0 = time.perf_counter()
    import ktnext.cli  # noqa: F401
    import ktnext.metrics  # noqa: F401  (the CLI imports these lazily)
    import ktnext.model  # noqa: F401
    import ktnext.sampling  # noqa: F401

    make_inputs(WORKLOADS[args.workload], args.seed, Path(args.make_inputs))
    print(time.perf_counter() - t0)
    return 0


# ------------------------------------------------------------------ set-up


def _setup(root: Path, args, work: Path, repeats: int) -> tuple[list[float], list[float], Path]:
    """Set up `repeats` times; the wall times, each one's reference time
    (mean of the reference runs just before and after it), and the inputs."""
    env = dict(os.environ, KTNEXT_THREADS="1", PYTHONDONTWRITEBYTECODE="1")
    walls, refs, dirs = [], [], []
    before = _child_seconds([sys.executable, "-c", SETUP_REF_CODE], root, env)
    for i in range(repeats):
        d = work / f"setup{i}"
        walls.append(_child_seconds(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload, "--seed",
             str(args.seed), "--seconds", "0", "--make-inputs", str(d)], root, env))
        after = _child_seconds([sys.executable, "-c", SETUP_REF_CODE], root, env)
        refs.append((before + after) / 2)
        before = after
        dirs.append(d)
    # the same seed must give the same inputs (manifests carry timestamps)
    ref = _digests(dirs[0])
    for d in dirs[1:]:
        if _digests(d) != ref:
            raise RuntimeError(f"set-up {d.name} wrote different inputs than {dirs[0].name}")
        shutil.rmtree(d)
    return walls, refs, dirs[0]


def _child_seconds(argv, root: Path, env) -> float:
    """Run a child that prints the seconds it measured as its last line."""
    proc = subprocess.run(argv, cwd=root, env=env, capture_output=True, text=True,
                          timeout=SETUP_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up child failed ({proc.returncode}):\n{proc.stderr}")
    return float(proc.stdout.strip().splitlines()[-1])


def _digests(d: Path) -> dict[str, str]:
    return {str(p.relative_to(d)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(d.rglob("*")) if p.is_file() and not p.name.endswith("manifest.json")}


# ------------------------------------------------------------------ calls


class Runner:
    """Builds, runs and checks the workload's CLI calls; counts failures."""

    def __init__(self, w, lay):
        import checks
        from ktnext import cli

        self.w = w
        self.lay = lay
        self.cli = cli
        self.attempted = 0
        self.failed = 0
        self.bits = checks.read_ckm(lay.mask)
        self.zf_psnr = {i: checks.zero_filled_psnr(checks.read_ckt(lay.sequence(i)), self.bits)
                        for i in range(w.phantoms)}
        self.quality = {}  # phantom (train) or 0 (evaluate) -> [(model PSNR, zero-filled PSNR)]
        self.outputs = {}  # call key -> digest of its outputs, which must repeat exactly
        self.calls = 0
        lay.out.mkdir(exist_ok=True)

    def argv(self, call: int):
        w, lay = self.w, self.lay
        net = ["--cascades", w.cascades, "--channels", w.channels]
        if w.command == "train":
            return ["train", "--input", lay.sequence(call % w.phantoms), "--mask", lay.mask,
                    "--steps", TRAIN_STEPS, "--seed", TRAIN_SEED, *net, "--lr", "1e-4",
                    "--checkpoint", lay.out / "trained.ktnp", "--output", lay.out / "history.csv"]
        return ["evaluate", "--input", lay.data, "--mask", lay.mask, "--checkpoint",
                lay.checkpoint, *net, "--output", lay.out / "metrics.csv"]

    def call(self) -> float | None:
        """One CLI call; its wall time, or None when it failed."""
        argv = [str(a) for a in self.argv(self.calls)]
        key = self.calls % self.w.phantoms if self.w.command == "train" else 0
        self.calls += 1
        self.attempted += 1
        try:
            t0 = time.perf_counter()
            with contextlib.redirect_stdout(io.StringIO()):
                code = self.cli.main(argv)
            wall = time.perf_counter() - t0
            if code != 0:
                raise RuntimeError(f"ktnext {argv[0]} exited {code}")
            self._check(key)
            return wall
        except (Exception, SystemExit):  # SystemExit: argparse rejected the flags
            self.failed += 1
            print(f"failed: ktnext {' '.join(argv)}", file=sys.stderr)
            traceback.print_exc()
            return None

    def _check(self, key) -> None:
        import checks

        out = self.lay.out
        if self.w.command == "train":
            files = [out / "history.csv", out / "trained.ktnp"]
            rows = [(checks.check_history(files[0], TRAIN_STEPS), self.zf_psnr[key])]
        else:
            files = [out / "metrics.csv"]
            names = [self.lay.sequence(i).name for i in range(self.w.phantoms)]
            zf = {self.lay.sequence(i).name: v for i, v in self.zf_psnr.items()}
            rows = checks.check_metrics(files[0], names, zf)
        digest = hashlib.sha256(b"".join(f.read_bytes() for f in files)).hexdigest()
        checks.require(self.outputs.setdefault(key, digest) == digest,
                       f"outputs of a repeated call differ ({', '.join(f.name for f in files)})")
        self.quality[key] = rows

    def final_checks(self) -> None:
        """Data consistency of one reconstruction; the trained checkpoint loads back."""
        import checks

        w, lay = self.w, self.lay
        ckpt = lay.out / "trained.ktnp" if w.command == "train" else lay.checkpoint
        argv = ["reconstruct", "--input", lay.kspace(0), "--mask", lay.mask, "--checkpoint", ckpt,
                "--cascades", w.cascades, "--channels", w.channels, "--output", lay.out / "recon.ckt"]
        argv = [str(a) for a in argv]
        self.attempted += 1
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code = self.cli.main(argv)
            checks.require(code == 0, f"ktnext reconstruct exited {code}")
            checks.check_data_consistency(lay.out / "recon.ckt", lay.kspace(0), self.bits)
            if w.command == "train":
                import numpy as np
                from ktnext.model import load_params

                params = load_params(ckpt, config_of(w))
                checks.require(all(np.isfinite(v).all() for v in params.snapshot().values()),
                               "trained checkpoint holds non-finite weights")
        except (Exception, SystemExit):
            self.failed += 1
            print(f"failed: final checks ({' '.join(argv)})", file=sys.stderr)
            traceback.print_exc()

    def rmse_vs_zero_filled(self) -> float:
        """Geometric mean of model RMSE / zero-filled RMSE over the phantoms."""
        gaps = [zf - model for rows in self.quality.values() for model, zf in rows]
        return 10.0 ** (statistics.fmean(gaps) / 20.0)

    def mean_model_psnr(self) -> float:
        return statistics.fmean(model for rows in self.quality.values() for model, _ in rows)


def _reference_s(w) -> float:
    """Wall time of a fixed numpy/scipy/Python loop that uses no ktnext code.

    The host's speed drifts by a quarter or more over minutes, far more
    than the calls in one run differ from each other.  This loop does what
    the workload spends its time on, at the workload's own shapes (3x3
    tensordot taps over `channels` planes, a fresh output array for every
    frame of them, whose pages the kernel must fault in, an 11x11
    correlation, frame FFTs, interpreter work), so timing it around each
    call tracks that drift.
    """
    import numpy as np
    from scipy.ndimage import correlate

    n, c = w.size, w.channels
    rng = np.random.default_rng(0)
    x = rng.standard_normal((1, c, n + 2, n + 2))
    k = rng.standard_normal((c, c))
    img = rng.standard_normal((n, n))
    win = rng.standard_normal((11, 11))
    z = rng.standard_normal((8, n, n)) + 0j
    t0 = time.perf_counter()
    for _ in range(REFERENCE_ROUNDS):
        for i in range(3):
            for j in range(3):
                np.tensordot(k, x[:, :, i : i + n, j : j + n], axes=([1], [1]))
        np.ones((8, c, n, n))
        correlate(img, win, mode="mirror")
        np.fft.fftshift(np.fft.fft(np.fft.ifftshift(z, axes=1), axis=1), axes=1)
        sum(v * v for v in range(300))
    return time.perf_counter() - t0


def _timed(runner, seconds: float, min_calls: int) -> tuple[list[float], list[float]]:
    """Wall times of the calls made in `seconds` (at least min_calls), each
    with the mean of the reference times measured just before and after it."""
    walls, refs = [], []
    before = _reference_s(runner.w)
    deadline = time.perf_counter() + seconds
    while len(walls) < min_calls or time.perf_counter() < deadline:
        wall = runner.call()
        after = _reference_s(runner.w)
        if wall is not None:
            walls.append(wall)
            refs.append((before + after) / 2)
        elif runner.failed > 3:
            break
        before = after
    return walls, refs


def _dgemm_gflops() -> float:
    import numpy as np

    a = np.random.default_rng(0).standard_normal((384, 384))
    rates = []
    for _ in range(7):
        t0 = time.perf_counter()
        a @ a
        rates.append(2 * 384**3 / (time.perf_counter() - t0) / 1e9)
    return statistics.median(rates)


def _environment(w, args, setup_repeats, calls) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": w.name, "why": w.why, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "numpy": np.__version__, "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}", "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas_threads": int(BLAS_THREADS),
        "pool_workers": POOL_WORKERS, "setup_repeats": setup_repeats, "timed_calls": calls,
        "items_per_call": w.items_per_call, "item": w.unit,
    }


def _metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    args = _parse(argv)
    root = _checkout()
    if args.make_inputs:
        return _make_inputs_child(args)
    import numpy  # noqa: F401  (loads OpenBLAS now, while it is pinned to one thread)

    if args.workload not in WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    w = WORKLOADS[args.workload]
    work = root / ".bench_work" / f"{w.name}-s{args.seed}-p{os.getpid()}"
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    try:
        return _run(w, args, root, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run(w, args, root, work) -> int:
    setup_walls, setup_refs, inputs = _setup(root, args, work,
                                             SETUP_REPEATS if not args.trace else 1)
    os.environ["KTNEXT_THREADS"] = str(POOL_WORKERS)
    runner = Runner(w, Layout(inputs))
    runner.call()  # warm-up: lazy imports, first-touch allocations
    if not args.trace:
        walls, refs = _timed(runner, args.seconds, w.min_calls)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        runner.final_checks()
        throughput = statistics.median(w.items_per_call / t for t in walls) if walls else 0.0
        # items done in the time the reference loop took around the call
        per_ref = statistics.median(w.items_per_call / t * r
                                    for t, r in zip(walls, refs)) if walls else 0.0
        metrics = {
            "setup_s": _metric(SETUP_REF_NOMINAL_S * statistics.median(
                t / r for t, r in zip(setup_walls, setup_refs)), "s"),
            "items_per_ref": _metric(per_ref, "1/ref"),
            "peak_rss_mb": _metric(rss_mb, "MB"),
            "rmse_vs_zero_filled": _metric(runner.rmse_vs_zero_filled() if runner.quality
                                           else 0.0, "ratio"),
        }
        human = {
            "setup_wall_s": (statistics.median(setup_walls), "s"),
            "setup_ref_s": (statistics.median(setup_refs), "s"),
            ("steps_per_s" if w.command == "train" else "seqs_per_s"): (throughput, "1/s"),
            "reference_ms": (1e3 * statistics.median(refs) if refs else float("nan"), "ms"),
            ("train_psnr_db" if w.command == "train" else "eval_psnr_db"):
                (runner.mean_model_psnr() if runner.quality else float("nan"), "dB"),
            "error_rate": (runner.failed / runner.attempted, "ratio"),
        }
    else:
        import spans

        recorder = spans.SpanRecorder()
        plain, traced = [], []
        deadline = time.perf_counter() + args.seconds
        # alternate untraced and traced calls so both see the same machine state
        while not traced or time.perf_counter() < deadline:
            plain += [t for t in [runner.call()] if t is not None]
            recorder.install()
            try:
                traced += [t for t in [runner.call()] if t is not None]
            finally:
                recorder.uninstall()
            if runner.failed > 3:
                break
        runner.final_checks()
        items = len(traced) * w.items_per_call
        overhead = 100.0 * (statistics.median(traced) / statistics.median(plain) - 1.0) \
            if plain and traced else 0.0
        layer = spans.per_layer(recorder.spans, items, POOL_WORKERS, _dgemm_gflops(), overhead)
        spans_file = root / ".bench_work" / f"spans-{w.name}-s{args.seed}.json"
        recorder.write(spans_file)
        walls = plain + traced
        metrics = {m["name"]: _metric(layer[m["name"]], m["unit"]) for m in BENCHMARK["per_layer"]}
        human = {"spans_written": (len(recorder.spans), "count"),
                 "error_rate": (runner.failed / runner.attempted, "ratio")}

    env = _environment(w, args, len(setup_walls), len(walls))
    print(f"# {w.name}: {w.why}")
    print("# measurement: " + json.dumps(env))
    for name, m in metrics.items():
        print(f"{name:34s} {m['value']:.6g} {m['unit']}")
    for name, (value, unit) in human.items():
        print(f"{name:34s} {value:.6g} {unit}")
    correct = runner.failed == 0 and len(walls) > 0
    print(json.dumps({"correct": correct, "attempted": runner.attempted, "failed": runner.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
