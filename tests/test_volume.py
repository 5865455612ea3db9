"""FFT core against a literal centered-DFT summation oracle.

The oracle builds the kernel matrix W[k, m] = exp(-2i*pi*(k-c)*(m-c)/N)/sqrt(N)
with c = floor(N/2) straight from the definition, so it shares no code path
with the numpy-backed implementation under test.  The per-axis tests target
_fft1c_arr and _ifft1c_arr, the kernels every transform (tagged or on the
tape) calls.
"""

import numpy as np
import pytest

from ktnext.volume import (
    ComplexVolume,
    Domain,
    DomainMismatchError,
    _fft1c_arr,
    _ifft1c_arr,
    fft2c,
    fft_t,
    ifft2c,
)

AXES = {"t": 0, "y": 1, "x": 2}


def centered_dft_matrix(n):
    c = n // 2
    k = np.arange(n).reshape(-1, 1)
    m = np.arange(n).reshape(1, -1)
    return np.exp(-2j * np.pi * (k - c) * (m - c) / n) / np.sqrt(n)


def oracle_fft_axis(arr, axis):
    w = centered_dft_matrix(arr.shape[axis])
    moved = np.moveaxis(arr, axis, 0)
    out = np.tensordot(w, moved, axes=([1], [0]))
    return np.moveaxis(out, 0, axis)


def oracle_ifft_axis(arr, axis):
    w = centered_dft_matrix(arr.shape[axis]).conj().T
    moved = np.moveaxis(arr, axis, 0)
    out = np.tensordot(w, moved, axes=([1], [0]))
    return np.moveaxis(out, 0, axis)


def random_volume(rng, shape, domain=Domain.IMAGE):
    data = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return ComplexVolume(data, domain)


def rel_err(a, b):
    denom = np.linalg.norm(b)
    if denom == 0:
        return np.linalg.norm(a - b)
    return np.linalg.norm(a - b) / denom


def test_fft1c_zero_volume():
    zeros = np.zeros((4, 4, 4), dtype=complex)
    for axis in AXES.values():
        assert np.all(_fft1c_arr(zeros, axis) == 0)


def test_fft1c_centered_impulse_is_flat():
    data = np.zeros((1, 1, 8), dtype=complex)
    data[0, 0, 4] = 1.0  # centered origin of an 8-length axis
    assert np.allclose(_fft1c_arr(data, 2), 1.0 / np.sqrt(8), atol=1e-12)


@pytest.mark.parametrize("axis", ["t", "y", "x"])
def test_fft1c_matches_dft_oracle(axis):
    rng = np.random.default_rng(7)
    v = random_volume(rng, (4, 4, 4))
    out = _fft1c_arr(v.data, AXES[axis])
    ref = oracle_fft_axis(v.data, AXES[axis])
    assert rel_err(out, ref) < 1e-10


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7, 8])
@pytest.mark.parametrize("axis", ["t", "y", "x"])
def test_fft1c_oracle_all_small_sizes(n, axis):
    rng = np.random.default_rng(100 + n)
    shape = [3, 3, 3]
    shape[AXES[axis]] = n
    v = random_volume(rng, tuple(shape))
    assert rel_err(_fft1c_arr(v.data, AXES[axis]), oracle_fft_axis(v.data, AXES[axis])) < 1e-10
    assert rel_err(_ifft1c_arr(v.data, AXES[axis]), oracle_ifft_axis(v.data, AXES[axis])) < 1e-10


@pytest.mark.parametrize("dtype", [np.complex64, np.complex128])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7, 8, 9, 32, 64])
@pytest.mark.parametrize("axis", ["t", "y", "x"])
def test_centring_is_the_numpy_shift_composition_bitwise(n, axis, dtype):
    """The slice-copy centring moves the values np.fft's shifts move, so each
    transform equals fftshift(fft(ifftshift(a))) bit for bit, odd n included."""
    rng = np.random.default_rng(200 + n)
    shape = [3, 4, 5]
    shape[AXES[axis]] = n
    a = random_volume(rng, tuple(shape)).data.astype(dtype)
    ax = AXES[axis]
    for got, transform in ((_fft1c_arr, np.fft.fft), (_ifft1c_arr, np.fft.ifft)):
        want = np.fft.fftshift(transform(np.fft.ifftshift(a, axes=ax), axis=ax, norm="ortho"),
                               axes=ax)
        out = got(a, ax)
        assert out.dtype == want.dtype and out.shape == want.shape
        assert out.tobytes() == want.tobytes()


@pytest.mark.parametrize("axis", ["t", "y", "x"])
def test_ifft1c_round_trip(axis):
    rng = np.random.default_rng(11)
    v = random_volume(rng, (5, 6, 7))
    back = _ifft1c_arr(_fft1c_arr(v.data, AXES[axis]), AXES[axis])
    assert rel_err(back, v.data) < 1e-10


def test_ifft1c_flat_is_centered_impulse():
    data = np.full((1, 1, 8), 1.0 / np.sqrt(8), dtype=complex)
    expect = np.zeros((1, 1, 8), dtype=complex)
    expect[0, 0, 4] = 1.0
    assert np.allclose(_ifft1c_arr(data, 2), expect, atol=1e-12)


@pytest.mark.parametrize("axis", ["t", "y", "x"])
def test_fft1c_adjoint_identity(axis):
    # <fft(a), b> == <a, ifft(b)> computed by direct inner products
    rng = np.random.default_rng(23)
    a = random_volume(rng, (4, 5, 6))
    b = random_volume(rng, (4, 5, 6))
    lhs = np.vdot(b.data, _fft1c_arr(a.data, AXES[axis]))
    rhs = np.vdot(_ifft1c_arr(b.data, AXES[axis]), a.data)
    assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(lhs))


def test_fft1c_linearity():
    rng = np.random.default_rng(31)
    a = random_volume(rng, (3, 4, 5))
    b = random_volume(rng, (3, 4, 5))
    alpha, beta = 1.7 - 0.3j, -0.4 + 2.1j
    lhs = _fft1c_arr(alpha * a.data + beta * b.data, 2)
    rhs = alpha * _fft1c_arr(a.data, 2) + beta * _fft1c_arr(b.data, 2)
    assert rel_err(lhs, rhs) < 1e-10


def test_fft2c_preserves_energy():
    rng = np.random.default_rng(5)
    v = random_volume(rng, (2, 8, 8))
    k = fft2c(v).data
    e = np.vdot(v.data, v.data).real
    assert abs(np.vdot(k, k).real - e) <= 1e-10 * e


def test_fft2c_centered_delta_flat_spectrum():
    data = np.zeros((1, 8, 8), dtype=complex)
    data[0, 4, 4] = 1.0
    out = fft2c(ComplexVolume(data, Domain.IMAGE))
    assert np.allclose(out.data, 1.0 / 8.0, atol=1e-12)
    assert out.domain is Domain.KSPACE


def test_fft2c_matches_2d_oracle():
    rng = np.random.default_rng(13)
    v = random_volume(rng, (2, 5, 8))
    ref = oracle_fft_axis(oracle_fft_axis(v.data, 1), 2)
    assert rel_err(fft2c(v).data, ref) < 1e-10


def test_ifft2c_inverts_fft2c():
    rng = np.random.default_rng(17)
    v = random_volume(rng, (3, 6, 7))
    back = ifft2c(fft2c(v))
    assert rel_err(back.data, v.data) < 1e-10
    assert back.domain is Domain.IMAGE


def test_fft2c_rejects_kspace_input():
    v = ComplexVolume(np.ones((2, 4, 4), dtype=complex), Domain.KSPACE)
    with pytest.raises(DomainMismatchError):
        fft2c(v)
    with pytest.raises(DomainMismatchError):
        ifft2c(ComplexVolume(np.ones((2, 4, 4), dtype=complex), Domain.IMAGE))


def test_fft_t_static_sequence_concentrates_at_center():
    rng = np.random.default_rng(19)
    frame = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    v = ComplexVolume(np.broadcast_to(frame, (6, 4, 4)).copy(), Domain.IMAGE)
    out = fft_t(v)
    assert out.domain is Domain.XF
    center = out.data[3]
    assert np.allclose(center, np.sqrt(6) * frame, atol=1e-12)
    rest = np.delete(out.data, 3, axis=0)
    assert np.abs(rest).max() < 1e-12


def test_fft_t_cosine_two_symmetric_peaks():
    t_frames = 8
    data = np.zeros((t_frames, 1, 1), dtype=complex)
    data[:, 0, 0] = np.cos(2 * np.pi * 2 * np.arange(t_frames) / t_frames)
    out = fft_t(ComplexVolume(data, Domain.IMAGE))
    mags = np.abs(out.data[:, 0, 0])
    expect = np.zeros(t_frames)
    expect[4 - 2] = np.sqrt(t_frames) / 2
    expect[4 + 2] = np.sqrt(t_frames) / 2
    assert np.allclose(mags, expect, atol=1e-12)


def test_fft_t_matches_oracle_and_inverts():
    rng = np.random.default_rng(29)
    v = random_volume(rng, (7, 3, 4))
    out = fft_t(v)
    assert rel_err(out.data, oracle_fft_axis(v.data, 0)) < 1e-10
    assert out.domain is Domain.XF
    assert rel_err(_ifft1c_arr(out.data, 0), v.data) < 1e-10


def test_fft_t_domain_transitions():
    """Each tagged transform takes one of the three tags and rejects the other two."""
    takes = {fft2c: Domain.IMAGE, ifft2c: Domain.KSPACE, fft_t: Domain.IMAGE}
    gives = {fft2c: Domain.KSPACE, ifft2c: Domain.IMAGE, fft_t: Domain.XF}
    assert len(Domain) == 3
    for transform, tag in takes.items():
        assert transform(ComplexVolume(np.ones((2, 4, 4)), tag)).domain is gives[transform]
        for other in set(Domain) - {tag}:
            with pytest.raises(DomainMismatchError, match=f"got {other.value}"):
                transform(ComplexVolume(np.ones((2, 4, 4)), other))


def test_parseval_property_random_volumes():
    rng = np.random.default_rng(41)
    for shape in [(1, 1, 1), (2, 3, 4), (5, 5, 5), (8, 7, 6)]:
        v = random_volume(rng, shape)
        e = np.vdot(v.data, v.data).real
        for axis in AXES.values():
            out = _fft1c_arr(v.data, axis)
            assert abs(np.vdot(out, out).real - e) <= 1e-10 * e


def test_complex_volume_validation():
    with pytest.raises(ValueError):
        ComplexVolume(np.array([[1.0]]), Domain.IMAGE)  # not 3D
    bad = np.ones((2, 2, 2), dtype=complex)
    bad[0, 0, 0] = np.nan
    with pytest.raises(ValueError):
        ComplexVolume(bad, Domain.IMAGE)
    bad[0, 0, 0] = np.inf
    with pytest.raises(ValueError):
        ComplexVolume(bad, Domain.IMAGE)
    with pytest.raises(ValueError):
        ComplexVolume(np.ones((0, 2, 2), dtype=complex), Domain.IMAGE)


def test_complex_volume_shape_fields():
    v = ComplexVolume(np.ones((2, 3, 4), dtype=complex), Domain.KSPACE)
    assert (v.t_frames, v.rows, v.cols) == (2, 3, 4)
    assert v.data.dtype == np.complex128
