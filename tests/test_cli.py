"""End-to-end checks of the command-line interface.

Most tests drive ktnext.cli.main in process; determinism of whole runs is
additionally checked through fresh interpreters so the thread environment
setup on import is exercised too.
"""

import argparse
import csv
import ctypes
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

from ktnext import cli, model, network
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


def test_evaluate_parallel_matches_serial(tmp_path, monkeypatch):
    mask_p, seq_p, _ = tiny_setup(tmp_path)
    # second sequence so the pool has more than one item to hand out
    assert run_cli("simulate", "--seed", 2, "--frames", 3, "--rows", 8,
                   "--cols", 8, "--output", tmp_path / "sim2") == 0
    data_dir = tmp_path / "data"
    data_dir.mkdir()
    (data_dir / "a.ckt").write_bytes(seq_p.read_bytes())
    (data_dir / "b.ckt").write_bytes((tmp_path / "sim2" / "sequence.ckt").read_bytes())
    ckpt, _ = tiny_train(tmp_path, mask_p, seq_p)

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
