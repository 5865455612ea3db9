"""Property tests of the three binary readers: CKT1 sequences, CKM1 masks and
KTNP checkpoints.  Whatever bytes a file holds, its reader returns a value or
raises a FileFormatError subclass, which the CLI maps to exit code 4; any
other exception would surface as the wrong exit code.

Examples are derandomized so every run checks the same inputs.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ktnext.network import load_checkpoint, save_checkpoint
from ktnext.sampling import (
    AcquisitionSpec,
    FileFormatError,
    load_mask,
    load_sequence,
    make_shear_mask,
    save_mask,
    save_sequence,
)
from ktnext.volume import ComplexVolume, Domain

READERS = {"CKT1": load_sequence, "CKM1": load_mask, "KTNP": load_checkpoint}

FUZZ = settings(max_examples=150, deadline=None, derandomize=True, database=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])


@pytest.fixture(scope="module")
def valid_files(tmp_path_factory):
    """One small valid file of each format, as bytes.  The mask samples one
    column per frame, so one changed byte can leave a frame empty."""
    rng = np.random.default_rng(0)
    root = tmp_path_factory.mktemp("valid")
    save_sequence(root / "s.ckt", ComplexVolume(
        rng.standard_normal((2, 3, 4)) + 1j * rng.standard_normal((2, 3, 4)), Domain.IMAGE))
    save_mask(root / "m.ckm", make_shear_mask(AcquisitionSpec(accel=6, n_center=0), 4, 6))
    save_checkpoint(root / "p.ktnp", {"w0": rng.standard_normal((2, 1, 3, 3)),
                                      "b0": rng.standard_normal(2),
                                      "gain": rng.standard_normal(())})
    return {"CKT1": (root / "s.ckt").read_bytes(), "CKM1": (root / "m.ckm").read_bytes(),
            "KTNP": (root / "p.ktnp").read_bytes()}


def parses_or_format_error(magic, path, data):
    path.write_bytes(data)
    try:
        READERS[magic](path)
    except FileFormatError:
        pass


@pytest.mark.parametrize("magic", READERS)
@FUZZ
@given(prefixed=st.booleans(), tail=st.binary(max_size=200))
def test_any_bytes_parse_or_raise_format_error(tmp_path, magic, prefixed, tail):
    head = magic.encode() if prefixed else b""
    parses_or_format_error(magic, tmp_path / "f.bin", head + tail)


@pytest.mark.parametrize("magic", READERS)
@FUZZ
@given(data=st.data())
def test_truncated_file_raises_format_error(tmp_path, valid_files, magic, data):
    raw = valid_files[magic]
    cut = data.draw(st.integers(0, len(raw) - 1))
    path = tmp_path / "f.bin"
    path.write_bytes(raw[:cut])
    with pytest.raises(FileFormatError):
        READERS[magic](path)


@pytest.mark.parametrize("magic", READERS)
@FUZZ
@given(data=st.data())
def test_changed_byte_parses_or_raises_format_error(tmp_path, valid_files, magic, data):
    raw = bytearray(valid_files[magic])
    raw[data.draw(st.integers(0, len(raw) - 1))] = data.draw(st.integers(0, 255))
    parses_or_format_error(magic, tmp_path / "f.bin", bytes(raw))
