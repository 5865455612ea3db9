"""Shear-grid masks, undersampling, phantoms and sequence files.

Mask tests enumerate the sampled-column sets straight from the definition
(lattice hits plus center block) with Python sets, independently of the
vectorized implementation.  Replica tests predict zero-filled aliasing from
literal centered-DFT summations.
"""

import numpy as np
import pytest

from ktnext.sampling import (
    FileFormatError,
    KtMeasurement,
    SamplingMask,
    generate_phantom,
    load_mask,
    load_sequence,
    make_shear_mask,
    save_mask,
    save_sequence,
    undersample,
    zero_filled,
)
from ktnext.volume import ComplexVolume, Domain, fft2c


def sampled_set_oracle(accel, n_center, shear_step, t, cols):
    lattice = {x for x in range(cols) if (x - t * shear_step) % accel == 0}
    start = cols // 2 - n_center // 2
    centers = set(range(start, start + n_center))
    return lattice | centers


def centered_dft_matrix(n):
    c = n // 2
    k = np.arange(n).reshape(-1, 1)
    m = np.arange(n).reshape(1, -1)
    return np.exp(-2j * np.pi * (k - c) * (m - c) / n) / np.sqrt(n)


# ---------------------------------------------------------------- masks


def test_shear_mask_center_lines_always_sampled():
    mask = make_shear_mask(9, t_frames=12, cols=190, n_center=4)
    start = 190 // 2 - 2
    assert np.all(mask.bits[:, start : start + 4] == 1)


def test_shear_mask_lattice_union_covers_all_columns():
    mask = make_shear_mask(4, t_frames=4, cols=8, n_center=0)
    for t in range(4):
        assert set(np.flatnonzero(mask.bits[t])) == {t, t + 4}
    union = np.flatnonzero(mask.bits.any(axis=0))
    assert list(union) == list(range(8))


def test_shear_mask_counts_match_enumeration_oracle():
    mask = make_shear_mask(9, t_frames=30, cols=190, n_center=4)
    for t in range(30):
        expect = sampled_set_oracle(9, 4, 1, t, 190)
        assert set(np.flatnonzero(mask.bits[t])) == expect


def test_shear_mask_exhaustive_small_grid():
    # every constructible (accel, n_center, cols) with cols <= 32, accel <= 9;
    # n_center=0 needs cols >= accel or some frame would sample nothing
    for accel in range(1, 10):
        for n_center in (0, 2, 4):
            lo = max(n_center, 1) if n_center else accel
            for cols in range(lo, 33):
                mask = make_shear_mask(accel, t_frames=6, cols=cols, n_center=n_center)
                for t in range(6):
                    expect = sampled_set_oracle(accel, n_center, 1, t, cols)
                    got = set(np.flatnonzero(mask.bits[t]))
                    assert got == expect, (accel, n_center, cols, t)


def test_shear_mask_empty_frame_combo_rejected():
    # lattice misses every column of some frame when accel > cols and no
    # center block backs it up; the mask invariant catches that
    with pytest.raises(ValueError):
        make_shear_mask(9, t_frames=9, cols=5, n_center=0)


def test_shear_mask_deterministic():
    a = make_shear_mask(6, t_frames=10, cols=24, n_center=2)
    b = make_shear_mask(6, t_frames=10, cols=24, n_center=2)
    assert np.array_equal(a.bits, b.bits)


def test_shear_mask_rejects_too_few_columns():
    with pytest.raises(ValueError):
        make_shear_mask(4, t_frames=2, cols=3, n_center=4)


def test_acquisition_spec_validation():
    with pytest.raises(ValueError, match="accel must be >= 1, got 0"):
        make_shear_mask(0, t_frames=2, cols=8)
    with pytest.raises(ValueError, match="n_center must be >= 0, got -1"):
        make_shear_mask(4, t_frames=2, cols=8, n_center=-1)
    # the center block is checked against the real column count
    with pytest.raises(ValueError, match="cols=190 is smaller than n_center=200"):
        make_shear_mask(4, t_frames=2, cols=190, n_center=200)
    default = make_shear_mask(9, 2, 16)
    assert np.array_equal(default.bits, make_shear_mask(9, 2, 16, n_center=4).bits)


def test_sampling_mask_validation():
    with pytest.raises(ValueError):
        SamplingMask(np.array([[0, 2]], dtype=np.uint8))  # non-binary
    with pytest.raises(ValueError):
        SamplingMask(np.zeros((2, 4), dtype=np.uint8))  # empty frames
    m = SamplingMask(np.ones((3, 5), dtype=np.uint8))
    assert (m.t_frames, m.cols) == (3, 5)


# ---------------------------------------------------------------- undersampling


def test_undersample_full_mask_is_fft2c():
    rng = np.random.default_rng(2)
    img = ComplexVolume(
        rng.standard_normal((3, 8, 8)) + 1j * rng.standard_normal((3, 8, 8)),
        Domain.IMAGE,
    )
    mask = SamplingMask(np.ones((3, 8), dtype=np.uint8))
    meas = undersample(img, mask)
    assert np.array_equal(meas.kspace.data, fft2c(img).data)
    assert meas.kspace.domain is Domain.KSPACE


def test_undersample_zero_image():
    img = ComplexVolume(np.zeros((2, 8, 8), dtype=complex), Domain.IMAGE)
    mask = make_shear_mask(4, 2, 8, n_center=2)
    assert np.all(undersample(img, mask).kspace.data == 0)


def test_undersample_support_matches_mask():
    rng = np.random.default_rng(3)
    img = ComplexVolume(
        rng.standard_normal((4, 8, 12)) + 1j * rng.standard_normal((4, 8, 12)),
        Domain.IMAGE,
    )
    mask = make_shear_mask(3, 4, 12, n_center=0)
    meas = undersample(img, mask)
    for t in range(4):
        sampled = sampled_set_oracle(3, 0, 1, t, 12)
        for x in range(12):
            col = meas.kspace.data[t, :, x]
            if x in sampled:
                assert np.any(col != 0)
            else:
                assert np.all(col == 0)


def test_undersample_dimension_mismatch():
    img = ComplexVolume(np.ones((2, 8, 8), dtype=complex), Domain.IMAGE)
    mask = SamplingMask(np.ones((3, 8), dtype=np.uint8))
    with pytest.raises(ValueError):
        undersample(img, mask)


def test_kt_measurement_rejects_offsupport_energy():
    bits = np.zeros((1, 8), dtype=np.uint8)
    bits[0, 0] = 1
    k = np.ones((1, 4, 8), dtype=complex)  # nonzero everywhere
    with pytest.raises(ValueError):
        KtMeasurement(ComplexVolume(k, Domain.KSPACE), SamplingMask(bits))


def test_zero_filled_full_mask_round_trip():
    rng = np.random.default_rng(5)
    img = ComplexVolume(
        rng.standard_normal((3, 8, 8)) + 1j * rng.standard_normal((3, 8, 8)),
        Domain.IMAGE,
    )
    mask = SamplingMask(np.ones((3, 8), dtype=np.uint8))
    rec = zero_filled(undersample(img, mask))
    assert np.linalg.norm(rec.data - img.data) < 1e-10 * np.linalg.norm(img.data)
    assert rec.domain is Domain.IMAGE


def test_zero_filled_projection_property():
    # undersampling the zero-filled image reproduces the measurement
    rng = np.random.default_rng(6)
    img = ComplexVolume(
        rng.standard_normal((4, 8, 12)) + 1j * rng.standard_normal((4, 8, 12)),
        Domain.IMAGE,
    )
    mask = make_shear_mask(3, 4, 12, n_center=2)
    meas = undersample(img, mask)
    again = undersample(zero_filled(meas), mask)
    err = np.abs(again.kspace.data - meas.kspace.data).max()
    assert err < 1e-10


def test_zero_filled_point_object_replicas():
    # lattice-only mask: frame t of the zero-filled image has R replicas along
    # x spaced X/R with magnitude 1/R, phases from the literal DFT sums
    t_frames, rows, cols, accel = 6, 8, 16, 4
    y0, x0 = 3, 5
    data = np.zeros((t_frames, rows, cols), dtype=complex)
    data[:, y0, x0] = 1.0
    img = ComplexVolume(data, Domain.IMAGE)
    mask = make_shear_mask(accel, t_frames, cols, n_center=0)
    rec = zero_filled(undersample(img, mask)).data

    wy = centered_dft_matrix(rows)
    wx = centered_dft_matrix(cols)
    for t in range(t_frames):
        full_k = np.outer(wy[:, y0], wx[:, x0])
        masked = full_k * mask.bits[t][None, :]
        expect = wy.conj().T @ masked @ wx.conj()
        assert np.abs(rec[t] - expect).max() < 1e-12
        mags = np.abs(rec[t, y0])
        hits = np.flatnonzero(mags > 1e-9)
        assert len(hits) == accel
        assert np.allclose(mags[hits], 1.0 / accel, atol=1e-12)
        assert np.abs(rec[t, np.arange(rows) != y0]).max() < 1e-12


# ---------------------------------------------------------------- phantom


def test_phantom_deterministic():
    a = generate_phantom(42, t_frames=6, rows=16, cols=16)
    b = generate_phantom(42, t_frames=6, rows=16, cols=16)
    assert np.array_equal(a.data, b.data)
    c = generate_phantom(43, t_frames=6, rows=16, cols=16)
    assert not np.array_equal(a.data, c.data)


def test_phantom_magnitude_bounds_and_domain():
    v = generate_phantom(7, t_frames=4, rows=24, cols=20)
    mags = np.abs(v.data)
    assert mags.max() <= 1.0 + 1e-12
    assert v.domain is Domain.IMAGE
    assert v.data.shape == (4, 24, 20)


def test_phantom_is_genuinely_complex_and_moves():
    v = generate_phantom(11, t_frames=8, rows=16, cols=16)
    assert np.abs(v.data.imag).max() > 1e-3
    diffs = [np.abs(v.data[t] - v.data[0]).max() for t in range(1, 8)]
    assert max(diffs) > 1e-3


def test_phantom_rejects_small_dims():
    with pytest.raises(ValueError):
        generate_phantom(1, t_frames=4, rows=7, cols=16)
    with pytest.raises(ValueError):
        generate_phantom(1, t_frames=4, rows=16, cols=7)


# ---------------------------------------------------------------- files


def quantized_volume(rng, shape):
    re = rng.standard_normal(shape).astype(np.float32).astype(np.float64)
    im = rng.standard_normal(shape).astype(np.float32).astype(np.float64)
    return ComplexVolume(re + 1j * im, Domain.IMAGE)


def test_sequence_round_trip_and_size(tmp_path):
    rng = np.random.default_rng(21)
    v = quantized_volume(rng, (3, 5, 7))
    path = tmp_path / "seq.ckt"
    save_sequence(path, v)
    assert path.stat().st_size == 16 + 8 * 3 * 5 * 7
    back = load_sequence(path)
    assert np.array_equal(back.data, v.data)
    assert back.domain is Domain.IMAGE
    back_k = load_sequence(path, domain=Domain.KSPACE)
    assert back_k.domain is Domain.KSPACE


def test_sequence_save_load_save_byte_identical(tmp_path):
    rng = np.random.default_rng(22)
    v = quantized_volume(rng, (2, 4, 4))
    p1, p2 = tmp_path / "a.ckt", tmp_path / "b.ckt"
    save_sequence(p1, v)
    save_sequence(p2, load_sequence(p1))
    assert p1.read_bytes() == p2.read_bytes()


def test_sequence_bad_magic(tmp_path):
    path = tmp_path / "bad.ckt"
    path.write_bytes(b"NOPE" + b"\x00" * 20)
    with pytest.raises(FileFormatError, match="magic"):
        load_sequence(path)


def test_sequence_truncated_payload(tmp_path):
    rng = np.random.default_rng(23)
    v = quantized_volume(rng, (2, 4, 4))
    path = tmp_path / "trunc.ckt"
    save_sequence(path, v)
    raw = path.read_bytes()
    path.write_bytes(raw[:-8])
    with pytest.raises(FileFormatError, match="truncated"):
        load_sequence(path)


def test_sequence_dimension_overflow(tmp_path):
    import struct

    path = tmp_path / "huge.ckt"
    header = b"CKT1" + struct.pack("<III", 0xFFFFFFFF, 0xFFFFFFFF, 0xFFFFFFFF)
    path.write_bytes(header)
    with pytest.raises(FileFormatError, match="out of range"):
        load_sequence(path)


def test_sequence_signaling_nan_is_a_bad_payload(tmp_path):
    """A float32 signaling NaN warns when cast to float64; the reader must
    still report it as a bad payload, warning-free."""
    import struct

    path = tmp_path / "snan.ckt"
    path.write_bytes(b"CKT1" + struct.pack("<III", 1, 1, 1) + bytes([1, 0, 0x80, 0x7F]) + bytes(4))
    with pytest.raises(FileFormatError, match="NaN"):
        load_sequence(path)


def test_mask_round_trip_and_errors(tmp_path):
    mask = make_shear_mask(5, 6, 18, n_center=2)
    path = tmp_path / "m.ckm"
    save_mask(path, mask)
    assert path.stat().st_size == 12 + 6 * 18
    back = load_mask(path)
    assert np.array_equal(back.bits, mask.bits)

    bad = tmp_path / "bad.ckm"
    bad.write_bytes(b"XXXX" + path.read_bytes()[4:])
    with pytest.raises(FileFormatError, match="magic"):
        load_mask(bad)

    trunc = tmp_path / "trunc.ckm"
    trunc.write_bytes(path.read_bytes()[:-1])
    with pytest.raises(FileFormatError, match="truncated"):
        load_mask(trunc)
