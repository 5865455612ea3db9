"""Self-test of the benchmark itself, run by hand from the root of a checkout:

    python3 perfbench/selftest.py [--seed 0] [--workload NAME ...]

For each workload it makes the inputs, runs the workload's CLI call and the
final reconstruction once untraced and once under the span recorder, and
checks that

* every output file (CSV, checkpoint, reconstruction) is byte-identical
  between the two runs, so tracing does not change what the program computes;
* conv2d is called exactly as often as the seed code's architecture implies,
  per training step or per sequence, and once more per reconstructed sequence.

Exits 1 if anything differs.  The exact counts describe the current
program; a change that batches convolutions updates EXPECTED_CONV2D here.
"""

from __future__ import annotations

import argparse
import os
import shutil
import sys
from pathlib import Path

import run  # pins BLAS before anything loads numpy

EXPECTED_CONV2D = {"train_c8": 136, "eval_wide": 276, "eval_toy": 66}
OUTPUTS = ("history.csv", "trained.ktnp", "metrics.csv", "recon.ckt")


def _outputs(out: Path) -> dict[str, bytes]:
    return {name: (out / name).read_bytes() for name in OUTPUTS if (out / name).exists()}


def _conv_calls(recorder) -> int:
    return sum(1 for s in recorder.spans if s.name == "autodiff.conv2d")


def check(name: str, seed: int, root: Path, work: Path) -> list[str]:
    import spans
    from workloads import POOL_WORKERS, WORKLOADS, Layout

    w = WORKLOADS[name]
    args = argparse.Namespace(workload=name, seed=seed)
    _, _, inputs = run._setup(root, args, work, 1)
    os.environ["KTNEXT_THREADS"] = str(POOL_WORKERS)
    runner = run.Runner(w, Layout(inputs))
    problems = []

    runner.call()
    runner.final_checks()
    plain = _outputs(runner.lay.out)

    runner.calls = 0  # the same call again (train: the same phantom)
    rec_call, rec_recon = spans.SpanRecorder(), spans.SpanRecorder()
    rec_call.install()
    try:
        runner.call()
    finally:
        rec_call.uninstall()
    rec_recon.install()
    try:
        runner.final_checks()
    finally:
        rec_recon.uninstall()
    traced = _outputs(runner.lay.out)

    if runner.failed:
        problems.append(f"{runner.failed} of {runner.attempted} calls failed")
    if set(plain) != set(traced) or not plain:
        problems.append(f"outputs differ in kind: {sorted(plain)} vs {sorted(traced)}")
    problems += [f"{f} differs between untraced and traced runs"
                 for f in sorted(set(plain) & set(traced)) if plain[f] != traced[f]]
    per_item = _conv_calls(rec_call) / w.items_per_call
    if per_item != EXPECTED_CONV2D[name]:
        problems.append(f"conv2d calls per {w.unit}: {per_item}, expected {EXPECTED_CONV2D[name]}")
    if _conv_calls(rec_recon) != EXPECTED_CONV2D[name]:
        problems.append(f"conv2d calls per reconstruction: {_conv_calls(rec_recon)}, "
                        f"expected {EXPECTED_CONV2D[name]}")
    print(f"{name}: outputs {sorted(plain)} identical={not problems}, "
          f"conv2d per {w.unit} {per_item:g} (expected {EXPECTED_CONV2D[name]})")
    return problems


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="self-test of the ktnext benchmark")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--workload", action="append", choices=sorted(EXPECTED_CONV2D))
    args = p.parse_args(argv)
    root = run._checkout()
    work = root / ".bench_work" / f"selftest-p{os.getpid()}"
    failures = []
    try:
        for name in args.workload or sorted(EXPECTED_CONV2D):
            d = work / name
            d.mkdir(parents=True)
            failures += [f"{name}: {msg}" for msg in check(name, args.seed, root, d)]
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for msg in failures:
        print(f"FAIL {msg}")
    print("selftest " + ("failed" if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
