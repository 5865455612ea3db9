"""End-to-end checks of the command-line interface.

Most tests drive ktnext.cli.main in process; determinism of whole runs is
additionally checked through fresh interpreters so the thread environment
setup on import is exercised too.
"""

import argparse
import csv
import ctypes
import hashlib
import json
import os
import platform
import re
import resource
import shutil
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest

from ktnext import cli, metrics, model, network
from ktnext.cli import main
from ktnext.metrics import compute_metrics
from ktnext.model import KtNextConfig, init_params, ktnext_forward, load_params, save_params
from ktnext.network import save_checkpoint
from ktnext.sampling import (
    KtMeasurement,
    load_mask,
    load_sequence,
    save_sequence,
    undersample,
    zero_filled,
)
from ktnext.volume import ComplexVolume, Domain, fft2c
from test_model import BLAS_FINGERPRINT, blas_fingerprint, pin_report


def run_cli(*argv) -> int:
    return main([str(a) for a in argv])


def read_pgm(path):
    raw = path.read_bytes()
    magic, dims, maxval, payload = raw.split(b"\n", 3)
    assert magic == b"P5"
    assert maxval == b"255"
    w, h = (int(v) for v in dims.split())
    arr = np.frombuffer(payload, dtype=np.uint8)
    assert arr.size == w * h
    return arr.reshape(h, w)


def tiny_setup(tmp_path, frames=3, rows=8, cols=8):
    """mask + phantom + measured k-space on an 8x8 grid."""
    mask_p = tmp_path / "m.ckm"
    assert run_cli("mask", "--accel", 2, "--center", 1, "--frames", frames,
                   "--cols", cols, "--output", mask_p) == 0
    sim = tmp_path / "sim"
    assert run_cli("simulate", "--seed", 1, "--frames", frames, "--rows", rows,
                   "--cols", cols, "--mask", mask_p, "--output", sim) == 0
    return mask_p, sim / "sequence.ckt", sim / "kspace.ckt"


def inference_params(ckpt, config):
    """The store `reconstruct`, `evaluate` and `render` run: the KTNP records cast to float32."""
    return model.float32_params(network.load_checkpoint(ckpt), config, str(ckpt))


def tiny_train(tmp_path, mask_p, seq_p, steps=2):
    ckpt = tmp_path / "w.ktnp"
    hist = tmp_path / "h.csv"
    rc = run_cli("train", "--input", seq_p, "--mask", mask_p, "--steps", steps,
                 "--cascades", 1, "--channels", 2, "--checkpoint", ckpt,
                 "--output", hist, "--deterministic")
    assert rc == 0
    return ckpt, hist


TINY = KtNextConfig(n_cascades=1, channels=2)


def written_files(directory):
    return sorted(p.name for p in directory.rglob("*") if p.is_file())


# ----------------------------------------------------------------- mask


def test_mask_center_block_always_on(tmp_path):
    out = tmp_path / "m.ckm"
    assert run_cli("mask", "--accel", 9, "--center", 4, "--frames", 30,
                   "--cols", 190, "--output", out) == 0
    mask = load_mask(out)
    assert mask.bits.shape == (30, 190)
    start = 190 // 2 - 2
    assert (mask.bits[:, start:start + 4] == 1).all()
    assert mask.bits.any(axis=1).all()


def test_mask_effective_acceleration_matches_count(tmp_path, capsys):
    out = tmp_path / "m.ckm"
    assert run_cli("mask", "--accel", 4, "--center", 4, "--frames", 12,
                   "--cols", 32, "--output", out) == 0
    printed = capsys.readouterr().out
    got = float(re.search(r"effective acceleration ([0-9.]+)", printed).group(1))
    mask = load_mask(out)
    assert got == 12 * 32 / int(mask.bits.sum())
    # center block pushes the true rate below the nominal one
    assert got < 4.0


def test_mask_accel_one_samples_everything(tmp_path):
    out = tmp_path / "m.ckm"
    assert run_cli("mask", "--accel", 1, "--center", 0, "--frames", 5,
                   "--cols", 7, "--output", out) == 0
    assert (load_mask(out).bits == 1).all()


def test_mask_center_wider_than_columns_exits_2(tmp_path, capsys):
    out = tmp_path / "m.ckm"
    assert run_cli("mask", "--accel", 4, "--center", 40, "--frames", 6,
                   "--cols", 32, "--output", out) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "cols=32" in err and "n_center=40" in err
    assert not any(tmp_path.iterdir())


def test_mask_manifest_contents(tmp_path):
    out = tmp_path / "m.ckm"
    assert run_cli("mask", "--accel", 3, "--center", 2, "--frames", 6,
                   "--cols", 16, "--output", out) == 0
    doc = json.loads((tmp_path / "m.ckm.manifest.json").read_text())
    assert doc["command"] == "mask"
    assert doc["config"]["accel"] == 3
    assert doc["deterministic"] is False
    assert doc["timestamp"]  # wall-clock runs carry one
    assert run_cli("mask", "--accel", 3, "--center", 2, "--frames", 6,
                   "--cols", 16, "--output", out, "--deterministic") == 0
    doc = json.loads((tmp_path / "m.ckm.manifest.json").read_text())
    assert doc["timestamp"] is None


# ------------------------------------------------------------- simulate


def test_simulate_is_reproducible(tmp_path):
    for name in ("a", "b"):
        assert run_cli("simulate", "--seed", 7, "--frames", 4, "--rows", 8,
                       "--cols", 8, "--output", tmp_path / name,
                       "--deterministic") == 0
    a = (tmp_path / "a" / "sequence.ckt").read_bytes()
    b = (tmp_path / "b" / "sequence.ckt").read_bytes()
    assert a == b


def test_simulate_kspace_respects_mask(tmp_path):
    mask_p, seq_p, ksp_p = tiny_setup(tmp_path)
    mask = load_mask(mask_p)
    kspace = load_sequence(ksp_p, domain=Domain.KSPACE)
    # constructor rejects energy off the mask support
    KtMeasurement(kspace=kspace, mask=mask)
    gt = load_sequence(seq_p)
    meas = undersample(gt, mask)
    # the file holds float32, so compare against the stored precision
    stored = meas.kspace.data.astype(np.complex64).astype(np.complex128)
    np.testing.assert_array_equal(kspace.data, stored)


@pytest.mark.parametrize("mask, code", [("four_frames", 2), ("missing", 3)])
def test_simulate_with_bad_mask_writes_nothing(tmp_path, mask, code):
    """The mask is checked before the phantom is saved."""
    mask_p = tmp_path / "m.ckm"
    if mask == "four_frames":
        assert run_cli("mask", "--accel", 2, "--frames", 4, "--cols", 8,
                       "--output", mask_p) == 0
    out = tmp_path / "sim"
    rc = run_cli("simulate", "--frames", 8, "--rows", 8, "--cols", 8,
                 "--mask", mask_p, "--output", out)
    assert rc == code
    assert written_files(out) == []


# ---------------------------------------------------------------- train


def test_train_writes_checkpoint_and_history(tmp_path):
    mask_p, seq_p, _ = tiny_setup(tmp_path)
    ckpt, hist = tiny_train(tmp_path, mask_p, seq_p, steps=3)
    params = load_params(ckpt, TINY)
    assert sum(v.size for v in params.snapshot().values()) > 0
    with open(hist, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["step", "loss", "psnr_train"]
    assert len(rows) == 1 + 3
    assert [int(r[0]) for r in rows[1:]] == [1, 2, 3]
    for r in rows[1:]:
        assert np.isfinite(float(r[1]))
        float(r[2])


def test_train_accepts_directory_input(tmp_path):
    mask_p, seq_p, _ = tiny_setup(tmp_path)
    ckpt = tmp_path / "w.ktnp"
    rc = run_cli("train", "--input", seq_p.parent, "--mask", mask_p,
                 "--steps", 1, "--cascades", 1, "--channels", 2,
                 "--checkpoint", ckpt, "--output", tmp_path / "h.csv")
    assert rc == 0
    assert ckpt.exists()


@pytest.mark.parametrize("lr", ["nan", "inf", "0", "-1"])
def test_train_rejects_learning_rate_not_finite_and_positive(tmp_path, lr):
    mask_p, seq_p, _ = tiny_setup(tmp_path)
    out = tmp_path / "run"
    rc = run_cli("train", "--input", seq_p, "--mask", mask_p, "--steps", 1,
                 "--cascades", 1, "--channels", 2, "--lr", lr,
                 "--checkpoint", out / "w.ktnp", "--output", out / "h.csv")
    assert rc == 2
    assert written_files(out) == []


# ---------------------------------------------------------- reconstruct


def test_reconstruct_single_file_output(tmp_path):
    mask_p, seq_p, ksp_p = tiny_setup(tmp_path)
    ckpt, _ = tiny_train(tmp_path, mask_p, seq_p)
    out = tmp_path / "rec.ckt"
    rc = run_cli("reconstruct", "--input", ksp_p, "--mask", mask_p,
                 "--checkpoint", ckpt, "--cascades", 1, "--channels", 2,
                 "--output", out)
    assert rc == 0
    rec = load_sequence(out)
    assert rec.data.shape == (3, 8, 8)
    assert (tmp_path / "rec.ckt.manifest.json").exists()


def test_reconstruct_directory_keeps_cascade_intermediates(tmp_path):
    mask_p, seq_p, ksp_p = tiny_setup(tmp_path)
    ckpt, _ = tiny_train(tmp_path, mask_p, seq_p)
    out = tmp_path / "rec"
    rc = run_cli("reconstruct", "--input", ksp_p, "--mask", mask_p,
                 "--checkpoint", ckpt, "--cascades", 1, "--channels", 2,
                 "--output", out)
    assert rc == 0
    assert (out / "reconstruction.ckt").exists()
    assert (out / "cascade_00.ckt").exists()
    assert not (out / "cascade_01.ckt").exists()
    final = load_sequence(out / "reconstruction.ckt")
    last = load_sequence(out / "cascade_00.ckt")
    np.testing.assert_array_equal(final.data, last.data)


def test_reconstruct_matches_library_forward(tmp_path):
    mask_p, seq_p, ksp_p = tiny_setup(tmp_path)
    ckpt, _ = tiny_train(tmp_path, mask_p, seq_p)
    out = tmp_path / "rec.ckt"
    assert run_cli("reconstruct", "--input", ksp_p, "--mask", mask_p,
                   "--checkpoint", ckpt, "--cascades", 1, "--channels", 2,
                   "--output", out) == 0
    # feed the forward pass exactly what the CLI read from disk
    mask = load_mask(mask_p)
    meas = KtMeasurement(kspace=load_sequence(ksp_p, domain=Domain.KSPACE), mask=mask)
    sigma = ktnext_forward(meas, inference_params(ckpt, TINY), TINY)[-1]
    expected = sigma.data.astype(np.complex64).astype(np.complex128)
    np.testing.assert_array_equal(load_sequence(out).data, expected)


def test_reconstruct_keeps_the_measured_samples(tmp_path):
    """The float32 forward ends in hard data consistency: the stored output's
    sampled k-space is the measurement to within float32 roundoff."""
    mask_p, seq_p, ksp_p = tiny_setup(tmp_path, frames=8, rows=16, cols=16)
    ckpt, _ = tiny_train(tmp_path, mask_p, seq_p)
    out = tmp_path / "rec.ckt"
    assert run_cli("reconstruct", "--input", ksp_p, "--mask", mask_p, "--checkpoint", ckpt,
                   "--cascades", 2, "--output", out) == 0
    k = fft2c(load_sequence(out)).data
    meas = load_sequence(ksp_p, domain=Domain.KSPACE).data
    sampled = np.broadcast_to(load_mask(mask_p).bits[:, None, :] == 1, k.shape)
    err = np.abs(k[sampled] - meas[sampled]).max()
    assert err <= 4 * np.finfo(np.float32).eps * np.abs(meas).max()


# ------------------------------------------------------------- evaluate


def test_evaluate_csv_matches_library_metrics(tmp_path):
    mask_p, seq_p, _ = tiny_setup(tmp_path)
    ckpt, _ = tiny_train(tmp_path, mask_p, seq_p)
    out = tmp_path / "metrics.csv"
    rc = run_cli("evaluate", "--input", seq_p, "--mask", mask_p,
                 "--checkpoint", ckpt, "--cascades", 1, "--channels", 2,
                 "--output", out)
    assert rc == 0
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["file", "psnr", "ssim", "hfen",
                       "psnr_zero_filled", "ssim_zero_filled", "hfen_zero_filled"]
    assert len(rows) == 2
    assert rows[1][0] == "sequence.ckt"

    gt = load_sequence(seq_p)
    mask = load_mask(mask_p)
    meas = undersample(gt, mask)
    sigma = ktnext_forward(meas, inference_params(ckpt, TINY), TINY)[-1]
    model_m = compute_metrics(sigma, gt)
    zf_m = compute_metrics(zero_filled(meas), gt)
    assert rows[1][1:] == [repr(model_m.psnr), repr(model_m.ssim), repr(model_m.hfen),
                           repr(zf_m.psnr), repr(zf_m.ssim), repr(zf_m.hfen)]


def two_sequences(tmp_path):
    """tiny_setup's mask and a directory of two sequences, and a checkpoint."""
    mask_p, seq_p, _ = tiny_setup(tmp_path)
    assert run_cli("simulate", "--seed", 2, "--frames", 3, "--rows", 8,
                   "--cols", 8, "--output", tmp_path / "sim2") == 0
    data_dir = tmp_path / "data"
    data_dir.mkdir()
    (data_dir / "a.ckt").write_bytes(seq_p.read_bytes())
    (data_dir / "b.ckt").write_bytes((tmp_path / "sim2" / "sequence.ckt").read_bytes())
    ckpt, _ = tiny_train(tmp_path, mask_p, seq_p)
    return mask_p, data_dir, ckpt


def test_evaluate_parallel_matches_serial(tmp_path, monkeypatch):
    # two sequences so the pool has more than one item to hand out
    mask_p, data_dir, ckpt = two_sequences(tmp_path)

    serial = tmp_path / "serial.csv"
    assert run_cli("evaluate", "--input", data_dir, "--mask", mask_p,
                   "--checkpoint", ckpt, "--cascades", 1, "--channels", 2,
                   "--output", serial) == 0
    monkeypatch.setenv("KTNEXT_THREADS", "2")
    parallel = tmp_path / "parallel.csv"
    assert run_cli("evaluate", "--input", data_dir, "--mask", mask_p,
                   "--checkpoint", ckpt, "--cascades", 1, "--channels", 2,
                   "--output", parallel) == 0
    assert serial.read_bytes() == parallel.read_bytes()


def test_evaluate_builds_each_band_matrix_once_per_sequence(tmp_path, monkeypatch):
    """The model and zero-filled images are scored against one prepared
    ground truth, so each sequence's eight band matrices (SSIM's two, the
    LoG's six) are built once, not once per score."""
    mask_p, data_dir, ckpt = two_sequences(tmp_path)
    built = []
    band = metrics._band
    monkeypatch.setattr(metrics, "_band", lambda *args: built.append(args[0]) or band(*args))
    assert run_cli("evaluate", "--input", data_dir, "--mask", mask_p, "--checkpoint", ckpt,
                   "--cascades", 1, "--channels", 2, "--output", tmp_path / "e.csv") == 0
    assert len(built) == 2 * 8


# --------------------------------------------------------------- render


def test_render_emits_expected_figures(tmp_path):
    _, seq_p, _ = tiny_setup(tmp_path)
    out = tmp_path / "figs"
    assert run_cli("render", "--input", seq_p, "--output", out) == 0
    for t in range(3):
        frame = read_pgm(out / f"frame_{t:03d}.pgm")
        assert frame.shape == (8, 8)
    assert read_pgm(out / "xt_profile.pgm").shape == (3, 8)
    assert read_pgm(out / "xf_plane.pgm").shape == (3, 8)
    assert not (out / "error_000.pgm").exists()


def test_render_with_checkpoint_adds_recon_and_error_maps(tmp_path):
    mask_p, seq_p, _ = tiny_setup(tmp_path)
    ckpt, _ = tiny_train(tmp_path, mask_p, seq_p)
    out = tmp_path / "figs"
    rc = run_cli("render", "--input", seq_p, "--mask", mask_p,
                 "--checkpoint", ckpt, "--cascades", 1, "--channels", 2,
                 "--output", out)
    assert rc == 0
    for t in range(3):
        assert (out / f"recon_frame_{t:03d}.pgm").exists()
        assert (out / f"error_{t:03d}.pgm").exists()
    assert (out / "recon_xf_plane.pgm").exists()
    assert (out / "manifest.json").exists()


def test_render_checkpoint_without_mask_is_a_usage_error(tmp_path):
    mask_p, seq_p, _ = tiny_setup(tmp_path)
    ckpt, _ = tiny_train(tmp_path, mask_p, seq_p)
    out = tmp_path / "figs"
    rc = run_cli("render", "--input", seq_p, "--checkpoint", ckpt,
                 "--cascades", 1, "--channels", 2, "--output", out)
    assert rc == 2
    assert written_files(out) == []


def test_render_mask_without_checkpoint_is_a_usage_error(tmp_path):
    _, seq_p, _ = tiny_setup(tmp_path)
    out = tmp_path / "figs"
    rc = run_cli("render", "--input", seq_p, "--mask", tmp_path / "missing.ckm",
                 "--output", out)
    assert rc == 2
    assert written_files(out) == []


# ------------------------------------------------------------ manifests


def command_argv(command, files, out):
    """A small run of each command that reads the setup's files and writes under out."""
    net = ["--cascades", 1, "--channels", 2]
    return {
        "mask": ["mask", "--accel", 2, "--frames", 3, "--cols", 8, "--output", out / "m.ckm"],
        "simulate": ["simulate", "--frames", 3, "--rows", 8, "--cols", 8, "--output", out / "sim"],
        "train": ["train", "--input", files["sequence"], "--mask", files["mask"], "--steps", 1,
                  *net, "--checkpoint", out / "w.ktnp", "--output", out / "h.csv"],
        "reconstruct": ["reconstruct", "--input", files["kspace"], "--mask", files["mask"],
                        "--checkpoint", files["checkpoint"], *net, "--output", out / "r.ckt"],
        "evaluate": ["evaluate", "--input", files["sequence"], "--mask", files["mask"],
                     "--checkpoint", files["checkpoint"], *net, "--output", out / "e.csv"],
        "render": ["render", "--input", files["sequence"], "--output", out / "figs"],
    }[command]


def setup_files(tmp_path):
    mask_p, seq_p, k_p = tiny_setup(tmp_path)
    ckpt, _ = tiny_train(tmp_path, mask_p, seq_p)
    return {"mask": mask_p, "sequence": seq_p, "kspace": k_p, "checkpoint": ckpt}


def manifests(directory):
    return sorted(p for p in directory.rglob("*") if p.name.endswith("manifest.json"))


@pytest.mark.parametrize("command, manifest, inputs", [
    ("mask", "m.ckm.manifest.json", {}),
    ("simulate", "sim/manifest.json", {"mask": None}),
    ("train", "h.csv.manifest.json", {"input": "sequence", "mask": "mask"}),
    ("reconstruct", "r.ckt.manifest.json",
     {"input": "kspace", "mask": "mask", "checkpoint": "checkpoint"}),
    ("evaluate", "e.csv.manifest.json",
     {"input": "sequence", "mask": "mask", "checkpoint": "checkpoint"}),
    ("render", "figs/manifest.json", {"input": "sequence", "mask": None, "checkpoint": None}),
])
def test_each_command_writes_one_manifest_of_its_run(tmp_path, command, manifest, inputs):
    """Every command writes exactly one manifest, beside its file output or
    inside its directory output, naming the command and exactly the input
    flags it declares; an omitted optional input is null."""
    files = setup_files(tmp_path)
    out = tmp_path / "out"
    assert run_cli(*command_argv(command, files, out)) == 0
    assert manifests(out) == [out / manifest]
    doc = json.loads((out / manifest).read_text())
    assert doc["command"] == command
    assert doc["inputs"] == {flag: None if role is None else str(files[role])
                             for flag, role in inputs.items()}
    assert doc["outputs"] and all(os.path.exists(p) for p in doc["outputs"].values())


@pytest.mark.parametrize("command, code", [("mask", 2), ("simulate", 3), ("train", 3),
                                           ("reconstruct", 3), ("evaluate", 3), ("render", 3)])
def test_failed_run_writes_no_manifest(tmp_path, command, code):
    """A run that fails, here on missing input files (mask: a centre block
    wider than the grid), keeps its exit code and writes no manifest."""
    missing = tmp_path / "missing"
    argv = command_argv(command, dict.fromkeys(["mask", "sequence", "kspace", "checkpoint"],
                                               missing), tmp_path / "out")
    if command == "simulate":
        argv += ["--mask", missing]
    elif command == "mask":
        argv += ["--center", 9]
    assert run_cli(*argv) == code
    assert manifests(tmp_path / "out") == []


def test_manifest_write_error_exits_3(tmp_path, capsys):
    """The manifest is written after the command succeeds; failing to write
    it is an I/O failure like any other."""
    out = tmp_path / "sim"
    (out / "manifest.json").mkdir(parents=True)
    rc = run_cli("simulate", "--frames", 3, "--rows", 8, "--cols", 8, "--output", out)
    assert rc == 3
    assert capsys.readouterr().err.startswith("error: ")


# ----------------------------------------------------------- exit codes


def test_missing_input_file_exits_3(tmp_path):
    mask_p, seq_p, _ = tiny_setup(tmp_path)
    rc = run_cli("train", "--input", tmp_path / "nope.ckt", "--mask", mask_p,
                 "--steps", 1, "--checkpoint", tmp_path / "w.ktnp",
                 "--output", tmp_path / "h.csv")
    assert rc == 3


# each command's handler and the flags it needs to parse; none reads a file
# once its handler is replaced
HANDLER_ARGV = {
    "mask": ("--accel", 4, "--frames", 8, "--cols", 32, "--output", "m.ckm"),
    "simulate": ("--output", "s"),
    "train": ("--input", "s.ckt", "--mask", "m.ckm", "--steps", 1, "--checkpoint", "w.ktnp",
              "--output", "h.csv"),
    "reconstruct": ("--input", "k.ckt", "--mask", "m.ckm", "--checkpoint", "w.ktnp",
                    "--output", "r.ckt"),
    "evaluate": ("--input", "s.ckt", "--mask", "m.ckm", "--checkpoint", "w.ktnp",
                 "--output", "e.csv"),
    "render": ("--input", "s.ckt", "--output", "figs"),
}


@pytest.mark.parametrize("command", sorted(HANDLER_ARGV))
def test_an_allocation_failure_exits_3(command, tmp_path, monkeypatch, capsys):
    """A MemoryError, as numpy raises for `mask --frames 1000000000000 --cols
    1000000000000` (7.28 TiB), exits 3 with one error line and no manifest.
    It is injected: a real request that large may succeed lazily and be
    killed on first touch."""
    def handler(args):
        raise MemoryError("Unable to allocate 7.28 TiB for an array")

    monkeypatch.setattr(cli, f"cmd_{command}", handler)
    monkeypatch.chdir(tmp_path)
    assert run_cli(command, *HANDLER_ARGV[command]) == 3
    err = capsys.readouterr().err
    assert err == "error: out of memory: Unable to allocate 7.28 TiB for an array\n"
    assert list(tmp_path.iterdir()) == []


def test_help_documents_every_exit_code(capsys):
    with pytest.raises(SystemExit):
        main(["--help"])
    assert "3 I/O or allocation failure" in " ".join(capsys.readouterr().out.split())


def test_a_failed_train_leaves_no_file(tmp_path, monkeypatch, capsys):
    """train writes its checkpoint and history to temporary siblings and
    renames them only once both are written: with the history path a
    directory it exits 3 and leaves the directory as it was, with no
    checkpoint and no temporary file."""
    mask_p, seq_p, _ = tiny_setup(tmp_path)
    (tmp_path / "isdir.csv").mkdir()
    before = sorted((p.name, p.stat().st_size) for p in tmp_path.iterdir())
    monkeypatch.chdir(tmp_path)
    rc = run_cli("train", "--input", seq_p, "--mask", mask_p, "--steps", 1, "--channels", 2,
                 "--cascades", 1, "--checkpoint", "partial.ktnp", "--output", "isdir.csv")
    assert rc == 3
    assert capsys.readouterr().err == "error: [Errno 21] Is a directory: 'isdir.csv'\n"
    assert sorted((p.name, p.stat().st_size) for p in tmp_path.iterdir()) == before


def test_malformed_mask_file_exits_4(tmp_path):
    bad = tmp_path / "bad.ckm"
    bad.write_bytes(b"JUNKJUNKJUNKJUNK")
    _, seq_p, _ = tiny_setup(tmp_path)
    rc = run_cli("train", "--input", seq_p, "--mask", bad, "--steps", 1,
                 "--checkpoint", tmp_path / "w.ktnp", "--output", tmp_path / "h.csv")
    assert rc == 4


def empty_first_mask_frame(mask_p, seq_p, ckpt):
    raw = bytearray(mask_p.read_bytes())
    raw[12:20] = bytes(8)  # CKM1 header is 12 bytes; frame 0 has 8 columns
    mask_p.write_bytes(bytes(raw))


def non_utf8_record_name(mask_p, seq_p, ckpt):
    raw = bytearray(ckpt.read_bytes())
    raw[10] = 0xFF  # first byte of the first record's name, after magic, count, length
    ckpt.write_bytes(bytes(raw))


def nan_in_sequence(mask_p, seq_p, ckpt):
    raw = bytearray(seq_p.read_bytes())
    raw[16:20] = np.array([np.nan], dtype="<f4").tobytes()  # first value after the header
    seq_p.write_bytes(bytes(raw))


def nan_in_checkpoint(mask_p, seq_p, ckpt):
    raw = bytearray(ckpt.read_bytes())
    name_len = int.from_bytes(raw[8:10], "little")
    rank = raw[10 + name_len]
    start = 11 + name_len + 4 * rank  # first value of the first record's payload
    raw[start : start + 8] = np.array([np.nan], dtype="<f8").tobytes()
    ckpt.write_bytes(bytes(raw))


@pytest.mark.parametrize("corrupt", [empty_first_mask_frame, non_utf8_record_name,
                                     nan_in_sequence, nan_in_checkpoint])
def test_malformed_payload_exits_4(tmp_path, corrupt):
    """Files that are complete but hold values their format forbids are
    format violations, whichever of the three files it is."""
    mask_p, seq_p, _ = tiny_setup(tmp_path)
    ckpt, _ = tiny_train(tmp_path, mask_p, seq_p)
    corrupt(mask_p, seq_p, ckpt)
    rc = run_cli("evaluate", "--input", seq_p, "--mask", mask_p, "--checkpoint", ckpt,
                 "--cascades", 1, "--channels", 2, "--output", tmp_path / "e.csv")
    assert rc == 4


@pytest.mark.parametrize("command, output", [("reconstruct", "r.ckt"),
                                             ("evaluate", "e.csv"), ("render", "figs")])
def test_channels_default_to_the_checkpoint(tmp_path, command, output):
    """Without --channels, a command that reads a checkpoint takes its width
    and writes the bytes that --channels 2 writes, manifest included; a
    --channels that does not match the checkpoint exits 2."""
    mask_p, seq_p, k_p = tiny_setup(tmp_path)
    ckpt, _ = tiny_train(tmp_path, mask_p, seq_p)
    out = tmp_path / "out"
    argv = [command, "--input", k_p if command == "reconstruct" else seq_p, "--mask", mask_p,
            "--checkpoint", ckpt, "--cascades", 1, "--output", out / output, "--deterministic"]
    written = []
    for width in ([], ["--channels", 2]):
        assert run_cli(*argv, *width) == 0
        written.append({p.name: p.read_bytes() for p in out.rglob("*") if p.is_file()})
        for p in out.rglob("*"):
            if p.is_file():
                p.unlink()
    assert written[0] == written[1]
    manifest = next(v for k, v in written[0].items() if k.endswith("manifest.json"))
    assert json.loads(manifest)["config"]["channels"] == 2
    assert run_cli(*argv, "--channels", 3) == 2


def test_checkpoint_without_first_layer_needs_channels(tmp_path, capsys):
    """A checkpoint with no xfcnn.w0 has no width to default to: exit 2."""
    mask_p, seq_p, _ = tiny_setup(tmp_path)
    records = init_params(TINY, 0).snapshot()
    del records["xfcnn.w0"]
    ckpt = tmp_path / "w.ktnp"
    save_checkpoint(ckpt, records)
    rc = run_cli("evaluate", "--input", seq_p, "--mask", mask_p, "--checkpoint", ckpt,
                 "--cascades", 1, "--output", tmp_path / "e.csv")
    assert rc == 2
    assert "no xfcnn.w0" in capsys.readouterr().err


def test_checkpoint_with_extra_layer_exits_2(tmp_path, capsys):
    """A KTNP whose records describe another architecture is rejected by name."""
    mask_p, seq_p, _ = tiny_setup(tmp_path)
    records = init_params(TINY, 0).snapshot()
    records["xfcnn.w5"] = np.zeros((2, 2, 3, 3))
    records["xfcnn.b5"] = np.zeros(2)
    ckpt = tmp_path / "w.ktnp"
    save_checkpoint(ckpt, records)
    rc = run_cli("evaluate", "--input", seq_p, "--mask", mask_p, "--checkpoint", ckpt,
                 "--cascades", 1, "--channels", 2, "--output", tmp_path / "e.csv")
    assert rc == 2
    err = capsys.readouterr().err
    assert "unexpected ['xfcnn.b5', 'xfcnn.w5']" in err


@pytest.mark.parametrize("width", [[], ["--channels", 2]])
@pytest.mark.parametrize("command", ["reconstruct", "evaluate", "render"])
def test_checkpoint_is_read_once(tmp_path, monkeypatch, command, width):
    """A command that reads a checkpoint parses the KTNP once, whether it
    takes the width from the flag or from the file."""
    mask_p, seq_p, k_p = tiny_setup(tmp_path)
    ckpt, _ = tiny_train(tmp_path, mask_p, seq_p)
    calls = []

    def counting(path, _load=network.load_checkpoint):
        calls.append(path)
        return _load(path)

    monkeypatch.setattr(network, "load_checkpoint", counting)
    monkeypatch.setattr(model, "load_checkpoint", counting)
    outputs = {"reconstruct": "r.ckt", "evaluate": "e.csv", "render": "figs"}
    rc = run_cli(command, "--input", k_p if command == "reconstruct" else seq_p,
                 "--mask", mask_p, "--checkpoint", ckpt, "--cascades", 1, *width,
                 "--output", tmp_path / outputs[command])
    assert rc == 0
    assert len(calls) == 1


def test_checkpoint_errors_name_their_cause(tmp_path, capsys):
    """Each checkpoint mismatch exits 2 and names what is wrong: the flag
    against the checkpoint's width, a width-0 checkpoint without a flag, and
    a wrong-shaped record by its full name."""
    mask_p, seq_p, _ = tiny_setup(tmp_path)
    ckpt = tmp_path / "w.ktnp"
    argv = ["evaluate", "--input", seq_p, "--mask", mask_p, "--checkpoint", ckpt,
            "--cascades", 1, "--output", tmp_path / "e.csv"]
    save_params(ckpt, init_params(TINY, 0))
    assert run_cli(*argv, "--channels", 3) == 2
    err = capsys.readouterr().err
    assert "--channels 3" in err and "2 channels wide" in err, err

    records = init_params(TINY, 0).snapshot()
    records["xfcnn.w0"] = np.zeros((0, 4, 3, 3))
    save_checkpoint(ckpt, records)
    assert run_cli(*argv) == 2
    err = capsys.readouterr().err
    assert "no xfcnn.w0 of nonzero width" in err and "at least 1" not in err, err

    records = init_params(TINY, 0).snapshot()
    records["crnn.h2h2"] = np.zeros((2, 2, 3, 1))
    save_checkpoint(ckpt, records)
    assert run_cli(*argv) == 2
    assert "crnn.h2h2 has shape (2, 2, 3, 1)" in capsys.readouterr().err


BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
             "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")


@pytest.mark.parametrize("value", ["abc", "0", "-2"])
def test_bad_thread_count_exits_2(tmp_path, monkeypatch, capsys, value):
    """KTNEXT_THREADS must be a positive integer; anything else stops the
    run before any BLAS variable is set or any output is written."""
    for var in BLAS_VARS:
        monkeypatch.delenv(var, raising=False)
    monkeypatch.setenv("KTNEXT_THREADS", value)
    out = tmp_path / "m.ckm"
    rc = run_cli("mask", "--accel", 2, "--frames", 4, "--cols", 8, "--output", out)
    assert rc == 2
    assert capsys.readouterr().err == (
        f"error: KTNEXT_THREADS must be a positive integer, got {value!r}\n"
    )
    assert not out.exists()
    assert not any(var in os.environ for var in BLAS_VARS)


@pytest.mark.parametrize("command, n_files, threads, workers, blas", [
    ("evaluate", 4, "2", 2, "1"),   # the pool takes the cores, not 2x2 threads
    ("evaluate", 3, "2", 2, "1"),
    ("evaluate", 2, "4", 2, "2"),
    ("evaluate", 1, "2", 1, "2"),   # one sequence: BLAS takes both threads
    ("evaluate", None, "2", 1, "2"),  # a single .ckt file
    ("evaluate", 0, "2", 1, "2"),   # no input: evaluate itself reports it
    ("train", None, "2", 1, "2"),
])
def test_thread_count_splits_between_pool_and_blas(tmp_path, monkeypatch, command, n_files,
                                                   threads, workers, blas):
    """KTNEXT_THREADS=N gives evaluate one worker per sequence up to N and
    each worker N // workers BLAS threads; other commands give BLAS all N."""
    for var in BLAS_VARS:  # setenv first so the test restores them afterwards
        monkeypatch.setenv(var, "unset")
    monkeypatch.setenv("KTNEXT_THREADS", threads)
    if n_files is None:
        source = tmp_path / "p00.ckt"
        source.touch()
    else:
        source = tmp_path / "seqs"
        source.mkdir()
        for i in range(n_files):
            (source / f"p{i:02d}.ckt").touch()
    args = argparse.Namespace(deterministic=False, command=command, input=str(source))
    assert cli._configure_threads(args) == workers
    assert {var: os.environ[var] for var in BLAS_VARS} == dict.fromkeys(BLAS_VARS, blas)


# ----------------------------------------------------------- allocator


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the heap policy is glibc's")
def test_repeated_evaluate_reuses_the_freed_heap(tmp_path):
    """After one warm-up call, a second in-process `evaluate` at the benchmark's
    eval_toy shape (N=1, ch=4, T=8, 32x32, four phantoms) faults in fewer than
    300 pages: the heap the first call freed stays mapped.  Measured: 5-14;
    without the policy about 1,300 per sequence."""
    mask_p = tmp_path / "m.ckm"
    assert run_cli("mask", "--accel", 4, "--center", 4, "--frames", 8, "--cols", 32,
                   "--output", mask_p) == 0
    data = tmp_path / "data"
    data.mkdir()
    for i in range(4):
        assert run_cli("simulate", "--seed", i, "--frames", 8, "--rows", 32, "--cols", 32,
                       "--output", tmp_path / f"sim{i}") == 0
        os.replace(tmp_path / f"sim{i}" / "sequence.ckt", data / f"p{i}.ckt")
    config = KtNextConfig(n_cascades=1, channels=4)
    save_params(tmp_path / "w.ktnp", init_params(config, 7))
    argv = ("evaluate", "--input", data, "--mask", mask_p, "--checkpoint", tmp_path / "w.ktnp",
            "--cascades", 1, "--channels", 4, "--output", tmp_path / "e.csv")
    assert run_cli(*argv) == 0
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    assert run_cli(*argv) == 0
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    assert faults < 300, faults


@pytest.mark.skipif(sys.platform != "linux", reason="main looks the C library up on Linux")
def test_a_libc_without_mallopt_changes_nothing(tmp_path, monkeypatch):
    """Where the C library has no mallopt, main sets no heap policy and still
    exits 0, writing the same bytes as with the policy."""
    files = setup_files(tmp_path)
    out = tmp_path / "out"

    def train_and_evaluate():
        for command in ("train", "evaluate"):
            assert run_cli(*command_argv(command, files, out), "--deterministic") == 0
        written = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
        shutil.rmtree(out)
        return written

    with_policy = train_and_evaluate()
    looked_up = []
    monkeypatch.setattr(ctypes, "CDLL", lambda name: looked_up.append(name) or
                        SimpleNamespace(gnu_get_libc_version=None))
    assert train_and_evaluate() == with_policy
    assert looked_up == [None, None]
    assert len(with_policy) == 5


def test_invalid_accel_value_exits_2(tmp_path):
    rc = run_cli("mask", "--accel", 0, "--center", 0, "--frames", 4,
                 "--cols", 8, "--output", tmp_path / "m.ckm")
    assert rc == 2


def test_unparseable_lambda_exits_2(tmp_path):
    with pytest.raises(SystemExit) as caught:
        run_cli("train", "--input", "x", "--mask", "y", "--steps", 1,
                "--lambda", "banana", "--checkpoint", "w", "--output", "h")
    assert caught.value.code == 2


def test_unknown_flag_exits_2():
    with pytest.raises(SystemExit) as caught:
        run_cli("mask", "--acceleration", 4)
    assert caught.value.code == 2


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_diverging_training_exits_5(tmp_path):
    mask_p, seq_p, _ = tiny_setup(tmp_path)
    rc = run_cli("train", "--input", seq_p, "--mask", mask_p, "--steps", 2,
                 "--cascades", 1, "--channels", 2, "--lr", "1e200",
                 "--checkpoint", tmp_path / "w.ktnp", "--output", tmp_path / "h.csv")
    assert rc == 5


def test_training_loss_beyond_float32_exits_5(tmp_path, capsys):
    """Training runs in float32, so data whose squared error overflows
    float32 (about 3.4e38), though not float64, is a numeric failure
    reported in one error line."""
    mask_p, seq_p, _ = tiny_setup(tmp_path)
    gt = load_sequence(seq_p)
    save_sequence(tmp_path / "loud.ckt", ComplexVolume(gt.data * 1e20, Domain.IMAGE))
    rc = run_cli("train", "--input", tmp_path / "loud.ckt", "--mask", mask_p, "--steps", 2,
                 "--cascades", 1, "--channels", 2,
                 "--checkpoint", tmp_path / "w.ktnp", "--output", tmp_path / "h.csv")
    assert rc == 5
    err = capsys.readouterr().err
    assert re.fullmatch(r"error: numeric failure: training loss became non-finite "
                        r"\(inf\) at step 1[^\n]*\n", err), err
    assert not (tmp_path / "w.ktnp").exists()


def overflowing_checkpoint(tmp_path):
    """A finite TINY checkpoint whose x-f weights, all 1e200, overflow the forward pass."""
    params = init_params(TINY, 0)
    params.set_values({name: np.full_like(t.value, 1e200)
                       for name, t in params.items() if name.startswith("xfcnn.")})
    ckpt = tmp_path / "w.ktnp"
    save_params(ckpt, params)
    return ckpt


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("command", ["reconstruct", "evaluate", "render"])
def test_overflowing_forward_exits_5(tmp_path, command):
    """A finite checkpoint whose weights overflow the forward pass is a
    numeric failure, not a bad flag."""
    mask_p, seq_p, kspace_p = tiny_setup(tmp_path)
    ckpt = overflowing_checkpoint(tmp_path)
    inputs = {"reconstruct": kspace_p, "evaluate": seq_p, "render": seq_p}
    outputs = {"reconstruct": "r.ckt", "evaluate": "e.csv", "render": "figs"}
    rc = run_cli(command, "--input", inputs[command], "--mask", mask_p,
                 "--checkpoint", ckpt, "--cascades", 1, "--channels", 2,
                 "--output", tmp_path / outputs[command])
    assert rc == 5


@pytest.mark.parametrize("command", ["reconstruct", "evaluate", "render"])
def test_checkpoint_beyond_float32_exits_5(tmp_path, capsys, command):
    """A record that is finite in float64 but overflows float32, where
    inference runs, is a numeric failure named in one error line, although
    the float64 forward of the same weights is finite."""
    mask_p, seq_p, kspace_p = tiny_setup(tmp_path)
    params = init_params(TINY, 0)
    params["crnn.out_b"].value[0] = 1e39
    ckpt = tmp_path / "w.ktnp"
    save_params(ckpt, params)
    ktnext_forward(undersample(load_sequence(seq_p), load_mask(mask_p)), params, TINY)
    inputs = {"reconstruct": kspace_p, "evaluate": seq_p, "render": seq_p}
    rc = run_cli(command, "--input", inputs[command], "--mask", mask_p, "--checkpoint", ckpt,
                 "--output", tmp_path / "out")
    assert rc == 5
    err = capsys.readouterr().err
    assert err == f"error: numeric failure: {ckpt}: record 'crnn.out_b' overflows float32\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("threads", ["1", "2"])
def test_overflowing_forward_prints_only_the_error(tmp_path, cli_env, threads):
    """In a fresh interpreter, where numpy's warnings would reach stderr,
    an overflowing forward pass reports one line, from the main thread or
    from an evaluate worker."""
    mask_p, seq_p, _ = tiny_setup(tmp_path)
    ckpt = overflowing_checkpoint(tmp_path)
    proc = subprocess.run(
        [sys.executable, "-m", "ktnext.cli", "evaluate", "--input", str(seq_p),
         "--mask", str(mask_p), "--checkpoint", str(ckpt), "--cascades", "1",
         "--channels", "2", "--output", str(tmp_path / "e.csv")],
        env=dict(cli_env, KTNEXT_THREADS=threads), capture_output=True, text=True,
    )
    assert proc.returncode == 5
    assert re.fullmatch(r"error: numeric failure: [^\n]*\n", proc.stderr), proc.stderr


def test_parsing_flags_does_not_load_numpy(cli_env):
    """numpy must load after _configure_threads has set the BLAS thread
    caps, so importing the CLI and parsing every command's flags leaves it
    unloaded; this is why each handler imports what it needs itself."""
    argvs = [["mask", "--accel", "2", "--frames", "3", "--cols", "8", "--output", "m"],
             ["simulate", "--output", "s"],
             ["train", "--input", "i", "--mask", "m", "--steps", "1", "--checkpoint", "w",
              "--output", "h"],
             ["reconstruct", "--input", "k", "--mask", "m", "--checkpoint", "w", "--output", "r"],
             ["evaluate", "--input", "i", "--mask", "m", "--checkpoint", "w", "--output", "e"],
             ["render", "--input", "i", "--output", "f", "--deterministic"]]
    script = (
        "import sys\n"
        "import ktnext.cli\n"
        f"for argv in {argvs!r}:\n"
        "    ktnext.cli._build_parser().parse_args(argv)\n"
        "print('numpy' in sys.modules)\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], env=cli_env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "False"


def test_train_and_evaluate_do_not_load_scipy(tmp_path, cli_env):
    """The program needs numpy alone: a fresh interpreter that trains one
    step and evaluates has not imported scipy."""
    mask_p, seq_p, _ = tiny_setup(tmp_path)
    net = ["--cascades", 1, "--channels", 2]
    train = ["train", "--input", seq_p, "--mask", mask_p, "--steps", 1, *net,
             "--checkpoint", tmp_path / "w.ktnp", "--output", tmp_path / "h.csv"]
    evaluate = ["evaluate", "--input", seq_p, "--mask", mask_p, *net,
                "--checkpoint", tmp_path / "w.ktnp", "--output", tmp_path / "e.csv"]
    script = (
        "import sys\n"
        "from ktnext.cli import main\n"
        f"for argv in {[[str(a) for a in argv] for argv in (train, evaluate)]!r}:\n"
        "    assert main(argv) == 0\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=cli_env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


# -------------------------------------------------------- determinism


def run_fresh(*argv, cwd, env):
    proc = subprocess.run([sys.executable, "-m", "ktnext.cli", *map(str, argv)],
                          cwd=cwd, env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc


def test_deterministic_runs_are_byte_identical_across_interpreters(tmp_path, cli_env):
    """Repeating the same deterministic run of all six commands in fresh
    interpreters rewrites every output, manifest included, with identical
    bytes."""
    # relative paths so the manifests do not depend on tmp_path itself
    mask_argv = ("mask", "--accel", 2, "--center", 1, "--frames", 3, "--cols", 8,
                 "--output", "m.ckm", "--deterministic")
    sim_argv = ("simulate", "--seed", 3, "--frames", 3, "--rows", 8, "--cols", 8,
                "--mask", "m.ckm", "--output", "sim", "--deterministic")
    net = ("--cascades", 1, "--channels", 2, "--deterministic")
    train_argv = ("train", "--input", "sim/sequence.ckt", "--mask", "m.ckm",
                  "--steps", 3, *net, "--checkpoint", "w.ktnp", "--output", "h.csv")
    reconstruct_argv = ("reconstruct", "--input", "sim/kspace.ckt", "--mask", "m.ckm",
                        "--checkpoint", "w.ktnp", *net, "--lambda", 0.5, "--output", "rec")
    evaluate_argv = ("evaluate", "--input", "sim/sequence.ckt", "--mask", "m.ckm",
                     "--checkpoint", "w.ktnp", *net, "--output", "e.csv")
    render_argv = ("render", "--input", "sim/sequence.ckt", "--mask", "m.ckm",
                   "--checkpoint", "w.ktnp", *net, "--output", "figs")

    snapshots = []
    for _ in range(2):
        for argv in (mask_argv, sim_argv, train_argv, reconstruct_argv, evaluate_argv,
                     render_argv):
            run_fresh(*argv, cwd=tmp_path, env=cli_env)
        snapshots.append({str(p.relative_to(tmp_path)): p.read_bytes()
                          for p in sorted(tmp_path.rglob("*")) if p.is_file()})
        for p in tmp_path.iterdir():  # the second round writes every file anew
            if p.is_dir():
                shutil.rmtree(p)
            else:
                p.unlink()
    assert sum(name.endswith("manifest.json") for name in snapshots[0]) == 6
    assert snapshots[0] == snapshots[1]


# A --deterministic round trip through every command at the criterion-8 shape
# (T=8, 32x32, N=2, ch=8), plus a 5-frame sequence whose middle frame both
# recurrent sweep directions write at the same step.  Relative paths keep the
# manifests free of the working directory.
PIN_NET = ("--cascades", 2, "--channels", 8, "--deterministic")
PIN_RUNS = (
    ("mask", "--accel", 4, "--frames", 8, "--cols", 32, "--output", "m8.ckm", "--deterministic"),
    ("mask", "--accel", 4, "--frames", 5, "--cols", 32, "--output", "m5.ckm", "--deterministic"),
    ("simulate", "--seed", 0, "--mask", "m8.ckm", "--output", "s0", "--deterministic"),
    ("simulate", "--seed", 1, "--output", "s1", "--deterministic"),
    ("simulate", "--seed", 2, "--frames", 5, "--mask", "m5.ckm", "--output", "s5", "--deterministic"),
    ("train", "--input", "s0/sequence.ckt", "--mask", "m8.ckm", "--steps", 3, "--lr", 1e-3,
     *PIN_NET, "--checkpoint", "hard.ktnp", "--output", "hard.csv"),
    ("train", "--input", "s1/sequence.ckt", "--mask", "m8.ckm", "--steps", 3, "--lr", 1e-3,
     *PIN_NET, "--lambda", 0.5, "--checkpoint", "soft.ktnp", "--output", "soft.csv"),
    ("train", "--input", "s5/sequence.ckt", "--mask", "m5.ckm", "--steps", 3, "--lr", 1e-3,
     *PIN_NET, "--checkpoint", "odd.ktnp", "--output", "odd.csv"),
    ("reconstruct", "--input", "s0/kspace.ckt", "--mask", "m8.ckm", "--checkpoint", "hard.ktnp",
     *PIN_NET, "--output", "rec.ckt"),
    ("reconstruct", "--input", "s0/kspace.ckt", "--mask", "m8.ckm", "--checkpoint", "soft.ktnp",
     *PIN_NET, "--lambda", 0.5, "--output", "rec"),
    ("reconstruct", "--input", "s5/kspace.ckt", "--mask", "m5.ckm", "--checkpoint", "odd.ktnp",
     *PIN_NET, "--output", "rec5.ckt"),
    ("evaluate", "--input", "s0/sequence.ckt", "--mask", "m8.ckm", "--checkpoint", "hard.ktnp",
     *PIN_NET, "--output", "e0.csv"),
    ("evaluate", "--input", "s1", "--mask", "m8.ckm", "--checkpoint", "soft.ktnp",
     *PIN_NET, "--lambda", 0.5, "--output", "e1.csv"),
    ("evaluate", "--input", "s5/sequence.ckt", "--mask", "m5.ckm", "--checkpoint", "odd.ktnp",
     *PIN_NET, "--output", "e5.csv"),
    ("render", "--input", "s0/sequence.ckt", "--mask", "m8.ckm", "--checkpoint", "hard.ktnp",
     *PIN_NET, "--output", "figs"),
)


def pinned_round_trip(directory):
    """Run PIN_RUNS in `directory` and return each file's sha256 by relative path."""
    cwd = os.getcwd()
    os.chdir(directory)
    try:
        for argv in PIN_RUNS:
            assert run_cli(*argv) == 0, argv
    finally:
        os.chdir(cwd)
    return {p.relative_to(directory).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(directory.rglob("*")) if p.is_file()}


ROUND_TRIP_SHA256 = {
    "e0.csv":
        "181909ec143e18a02f7a98351311241d98d376632b70edbd3f3439b231278d17",
    "e0.csv.manifest.json":
        "bffa6165858c41779bcc33d4688db9129c74c5e9eb67950130447de2d8b2e1e3",
    "e1.csv":
        "f68210cbd29db73eb8fce4e5b553fe44a4fdd4f0796fb340d4f228f0f200effe",
    "e1.csv.manifest.json":
        "bdf2d5d302adda2185ee25ef6624f410597c371678da8871d524d8f80bfaa725",
    "e5.csv":
        "2d228fbebce51749e3c90ab096be767cc9265cafa02cc2edc8afbbf9ff9ff8e4",
    "e5.csv.manifest.json":
        "cc005ebb08b3dd157f05b7b8e264ec355e2f37bdd87445eb977afb32c06b29e4",
    "figs/error_000.pgm":
        "765d88eba5363115035c2f7b57a0ef6c791f02615edd459d6a2b634365ce72de",
    "figs/error_001.pgm":
        "86261ede0b77e6b5c8be3da6e1cd1ae1e1da867de17af6e5a4309de4c656b982",
    "figs/error_002.pgm":
        "3b114042f3c0a4136ee3e697dae6d4690d7f01c79310f9718701fadad211e150",
    "figs/error_003.pgm":
        "eee96ae9fc8f9bfc3503b554926e8e9252ff87a134af68acc27ecfe18c13a19b",
    "figs/error_004.pgm":
        "62779cd821488fe49aa2edb67c181e49fba8ef072260fdce97045ca0d7387acd",
    "figs/error_005.pgm":
        "1e371a2966b931c64903bdd800703357d4b4021efdfa9bf5c5bd3049fad1d2bb",
    "figs/error_006.pgm":
        "de6a7d8644ba3ff756dca9b7646797b6c53055d6209362606d561266dc6c42fd",
    "figs/error_007.pgm":
        "88b8e644562521e8a0d6ea35a85a73b5a89615f2956bfa952561f3b12930c33a",
    "figs/frame_000.pgm":
        "48d424fadf282f17f62fd935d8cd2d17d3cb5f284ddd3dc2d6dbc606b22d6b56",
    "figs/frame_001.pgm":
        "815c8f6e4fe1e8cc91837a757212866c11212d17477507c33d360742bfe9190c",
    "figs/frame_002.pgm":
        "e96cbee966219c64940254fb4d1ae1776550261c0633ee3e13ec17d155b77ea7",
    "figs/frame_003.pgm":
        "ffbcd4d7fa81d13ebfe80f1d6710f4665233238efe661d76b675fe011814ca31",
    "figs/frame_004.pgm":
        "7bb0f0ddb1dec26e470cf57a12d309c7a5e56da535d2145bd193c86a4918f077",
    "figs/frame_005.pgm":
        "f15202591069ae753eb25a714fab2befd1cbbc36b09fe5b5677015cad7f0f99b",
    "figs/frame_006.pgm":
        "50056e421f01a2bdbc4fc3559ad6682af1a18311516d14dc44eeb0f54df551ed",
    "figs/frame_007.pgm":
        "393354006b295ad16e371309f774797942a4f4ee45992032215ec19a2842afed",
    "figs/manifest.json":
        "8421438facd3eb0a59c18fd8b49f6464e6ae2b44db88e12fa687b82c987040b2",
    "figs/recon_frame_000.pgm":
        "0c25d0f2e23349848d8887f083dec3131d4de1c7736ca6293a2c68b5e50ef368",
    "figs/recon_frame_001.pgm":
        "65b423aad800815343f338b7e6194ce5c357fe8cbe9ad0f4f44143b91218263b",
    "figs/recon_frame_002.pgm":
        "178020bcb5d82b45547e1c65827263735ca28c649152b7ec6788cecc3841d71b",
    "figs/recon_frame_003.pgm":
        "b6dc03e89974b0eb22a720f77014dd3c7316f29faf0fc593c72dcc4440f7e3b2",
    "figs/recon_frame_004.pgm":
        "2f55df73c0613df1934569f74b4feef12b5b7dcfceedf10433c743ae5f17610e",
    "figs/recon_frame_005.pgm":
        "f2187bed6114de53d15f50f4f8d7e09073673c62b49242b11dd2181ac758e879",
    "figs/recon_frame_006.pgm":
        "82800f4009f8d2ad1c62d3928ef4b6658758f6cdd33aeae72335c483077336bf",
    "figs/recon_frame_007.pgm":
        "f530bec3845070a2b2b62b542c68dfcb22b6d1bddce1aa1fb54b40c0d1ee2af4",
    "figs/recon_xf_plane.pgm":
        "25dc4a36149449579eaa7cc4d3e7b8faab72b9e9244b401b0bd58400a3a871c2",
    "figs/recon_xt_profile.pgm":
        "ffd11971ed3e0e56efdc4ba65d91db25591df79a314d4f11a9981de173f82231",
    "figs/xf_plane.pgm":
        "c17288bfd9857ce640d6df12316c37f1ad2e4c73d8f1d944232f941fc3243409",
    "figs/xt_profile.pgm":
        "9db1b940b35e943545306c8984553b1312faea10c84d44c880fa69011409746c",
    "hard.csv":
        "079c9e890f279fc6f31dbe61506d509deee74cabe813356e5746bd25349db069",
    "hard.csv.manifest.json":
        "d304343dc3e22a7c4ca011b0b4f46b450f94a956a42880944eda65928d3e7312",
    "hard.ktnp":
        "edcc94d5438a82795a1a081d13cae8f218fb9eef77c14f7ecc9040575c0db679",
    "m5.ckm":
        "99cbc7fbc046e1ab42d6ec911b3bbdae2cc74d969935277101d0f3a9c6a79b3b",
    "m5.ckm.manifest.json":
        "26fb6c7b407e1cf27859e83e2971b8239cb47af56ee55f7d9687af04a29bf810",
    "m8.ckm":
        "87ee6c01a5abc6e50ef93efc06094f3c8037a054a36c43f78237f593e3e79ecd",
    "m8.ckm.manifest.json":
        "7e9c86ba3c5c966f6fd253b5d4f2858a54b88ce6d0c11b2b8d4cc2acb27292a8",
    "odd.csv":
        "aedce5ae5304bdaee71eb3d94cba7d665fdea6e94af109186849ea9fb6c5c647",
    "odd.csv.manifest.json":
        "70c8fdd890478ac93e4ffe969eb3d9228db8115234f31e10725275e1ffeb6016",
    "odd.ktnp":
        "1e2290a360c047afbbce709b0fe6d7436547d6d3638d8a2267b33e83939a6faa",
    "rec.ckt":
        "ccb58e41cd84a11c535d74effb03ea3d5e719967072f18867dc3fa2e80e0e746",
    "rec.ckt.manifest.json":
        "515468025d332e50bc0a8063bd26745f8c0f40ec59d68ea989b9fc42f297d035",
    "rec/cascade_00.ckt":
        "7176bd7c813fdc9f5ed8494ab2ff44cc2447feadea65fa1aae1e722c2a4fbe58",
    "rec/cascade_01.ckt":
        "09be8b7297c3bff0b109cf0f125bcccd10c42c1fb882bfc8907d59b82ba5f06d",
    "rec/manifest.json":
        "8ce03f207bce1a81b5eea4a670d389d11f2798e0f26ac5d5dc2a7208e83c2cda",
    "rec/reconstruction.ckt":
        "09be8b7297c3bff0b109cf0f125bcccd10c42c1fb882bfc8907d59b82ba5f06d",
    "rec5.ckt":
        "260d6c1220c2030913049af0678cdff520b00854e895ed7e3cedb6fb46d15a27",
    "rec5.ckt.manifest.json":
        "973910ac13334383a9b36b8679cce35e65924bd3a2620f0f89d38428dc7e1a0e",
    "s0/kspace.ckt":
        "f53bd8100acb0b3edff07762a4c0179e1ac557779cc3697454ab92fc07ea6015",
    "s0/manifest.json":
        "abef1097b60f2b7714ffbc8bbfb74ff60c06697a90a8815c471c1af67f7fde6d",
    "s0/sequence.ckt":
        "de71df32adab8e7bf968666f0f1336b880d5f86456daca82b9dd690545914d3e",
    "s1/manifest.json":
        "fc477e22a609c1e66923976ac5c50559916551dbdbb48d464257eb1c6fac7273",
    "s1/sequence.ckt":
        "11db0ed8be61cf3506ecea48becc4ecf024413efd553934469614cf382e25df8",
    "s5/kspace.ckt":
        "b029f1e802e9d0b29e3154d7502b3574e6fb07f839f9c437811fc462d69d2a85",
    "s5/manifest.json":
        "568cea53bcb04e108dd7700b1f789a42f5a9c34609cca16a0e38a57ced011e54",
    "s5/sequence.ckt":
        "70a1ec61f75c2458261481a54ca27486f5c1a6896bd2a8e62c20e807a85da1db",
    "soft.csv":
        "aba29b0e64648aa961cc213d581025d06b1a10b56729b5bcc9febd96556494cc",
    "soft.csv.manifest.json":
        "3e39db572712816465b652a487393c6be657c08627ad1d10b9e031ce90f88682",
    "soft.ktnp":
        "59d407862d0a7f3ca445a3f7bc8a3cfd5d0d112024140ff9c9e2de988aee81a2",
}


def test_deterministic_outputs_keep_their_bytes(tmp_path):
    """Every file the round trip writes, manifests included, keeps the bytes
    pinned below.  A change that moves bits on purpose updates this table and
    records the move beside its exception in the change log.  On a mismatch
    the message names each changed, missing or new file and prints the table
    as it now reads."""
    if blas_fingerprint() != BLAS_FINGERPRINT:
        pytest.skip("the pins were taken with a BLAS that rounds differently")
    got = pinned_round_trip(tmp_path)
    assert got == ROUND_TRIP_SHA256, pin_report("ROUND_TRIP_SHA256", got, ROUND_TRIP_SHA256)
