"""Workload definitions and the generation of their input files.

Every input is made from the benchmark seed through the program's own CLI
(`mask`, `simulate`) plus one checkpoint written with `model.save_params`.
The program under test only ever sees the resulting files.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path

# the benchmark's definition: workload reasons, per-layer metric names and units
BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())

POOL_WORKERS = 1  # KTNEXT_THREADS for every workload: two evaluate workers were not steady
TRAIN_STEPS = 5  # fit steps per `ktnext train` call
TRAIN_SEED = 0  # the recipe's init seed; a constant, so every run starts from the same weights
ACCEL = 4
CENTER = 4
FRAMES = 8


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # "train" or "evaluate"
    size: int  # rows = cols
    phantoms: int
    cascades: int
    channels: int

    @property
    def unit(self) -> str:
        """What one throughput item is."""
        return "step" if self.command == "train" else "sequence"

    @property
    def why(self) -> str:
        return next(w["why"] for w in BENCHMARK["workloads"] if w["name"] == self.name)

    @property
    def items_per_call(self) -> int:
        return TRAIN_STEPS if self.command == "train" else self.phantoms

    @property
    def min_calls(self) -> int:
        # train cycles through its phantoms one call each, and the quality
        # figure needs every phantom trained once
        return self.phantoms if self.command == "train" else 2


WORKLOADS = {
    w.name: w
    for w in (
        Workload("train_c8", "train", size=32, phantoms=16, cascades=2, channels=8),
        Workload("eval_wide", "evaluate", size=64, phantoms=4, cascades=4, channels=16),
        Workload("eval_toy", "evaluate", size=32, phantoms=16, cascades=1, channels=4),
    )
}


class Layout:
    """Where a run's files live under its work directory."""

    def __init__(self, root: Path):
        self.root = Path(root)
        self.mask = self.root / "mask.ckm"
        self.data = self.root / "data"  # ground-truth sequences, one .ckt per phantom
        self.sim = self.root / "sim"  # simulate outputs: measured k-space + manifests
        self.checkpoint = self.root / "eval.ktnp"
        self.out = self.root / "out"

    def sequence(self, i: int) -> Path:
        return self.data / f"p{i:02d}.ckt"

    def kspace(self, i: int) -> Path:
        return self.sim / f"p{i:02d}" / "kspace.ckt"


def phantom_seed(seed: int, i: int) -> int:
    return seed * 1000 + i


def config_of(w: Workload):
    from ktnext.model import KtNextConfig

    return KtNextConfig(n_cascades=w.cascades, channels=w.channels)


def make_inputs(w: Workload, seed: int, root: Path) -> None:
    """Write the workload's mask, phantoms and (for evaluate) checkpoint."""
    import contextlib
    import io

    from ktnext import cli

    lay = Layout(root)
    lay.data.mkdir(parents=True, exist_ok=True)
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink):
        _cli(cli, ["mask", "--accel", ACCEL, "--center", CENTER, "--frames", FRAMES,
                   "--cols", w.size, "--output", lay.mask])
        for i in range(w.phantoms):
            sim = lay.kspace(i).parent
            _cli(cli, ["simulate", "--seed", phantom_seed(seed, i), "--frames", FRAMES,
                       "--rows", w.size, "--cols", w.size, "--mask", lay.mask, "--output", sim])
            os.replace(sim / "sequence.ckt", lay.sequence(i))
    if w.command == "evaluate":
        write_checkpoint(w, seed, lay.checkpoint)


def _cli(cli, argv) -> None:
    code = cli.main([str(a) for a in argv])
    if code != 0:
        raise RuntimeError(f"ktnext {argv[0]} exited {code}")


def write_checkpoint(w: Workload, seed: int, path: Path) -> None:
    """Seeded weights with unit-gain scaling, independent of `init_params`.

    Each kernel is drawn N(0, 1/fan) where fan counts every input summed
    into its pre-activation: for the recurrent kernels that is the i2h, h2h
    and ih2ih inputs of both sweep directions.  Biases are zero.
    `init_params` is used only as the template of names and shapes.
    """
    import re

    import numpy as np

    from ktnext.model import init_params, save_params

    config = config_of(w)
    params = init_params(config, 0)
    rng = np.random.default_rng([seed, 7])
    for store in params.stores():
        values = {}
        for name, tensor in store.items():
            shape = tensor.value.shape
            if len(shape) != 4:
                values[name] = np.zeros(shape)
                continue
            _, ci, k, _ = shape
            fan = ci * k * k
            recurrent = re.fullmatch(r"(.*?)(?:i2h|h2h|ih2ih)(\d+)", name)
            if recurrent:
                prefix, layer = recurrent.groups()
                c_in = store[f"{prefix}i2h{layer}"].value.shape[1]
                fan = 2 * (c_in + 2 * config.channels) * k * k
            values[name] = rng.standard_normal(shape) / np.sqrt(fan)
        store.set_values(values)
    save_params(path, params)
