"""Property tests of the three binary readers: CKT1 sequences, CKM1 masks and
KTNP checkpoints.  Whatever bytes a file holds, its reader returns a value or
raises a FileFormatError subclass, which the CLI maps to exit code 4; any
other exception would surface as the wrong exit code.

The truncation and changed-byte tests sweep every case of one valid file
per format, so every run checks the same inputs.  The random-bytes test
draws with hypothesis; `derandomize=True` does not pin its examples across
source edits, because hypothesis also seeds draws with literals it finds in
local source files.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ktnext.network import load_checkpoint, save_checkpoint
from ktnext.sampling import (
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
    save_mask(root / "m.ckm", make_shear_mask(6, 4, 6, n_center=0))
    save_checkpoint(root / "p.ktnp", {"w0": rng.standard_normal((2, 1, 3, 3)),
                                      "b0": rng.standard_normal(2),
                                      "gain": rng.standard_normal(())})
    return {"CKT1": (root / "s.ckt").read_bytes(), "CKM1": (root / "m.ckm").read_bytes(),
            "KTNP": (root / "p.ktnp").read_bytes()}


CHANGED_BYTES = (0x00, 0x01, 0x7F, 0x80, 0xFE, 0xFF)


def parses(magic, path, data, case) -> bool:
    """True if magic's reader returns for data, False if it raises a
    FileFormatError; any other exception fails with the case named."""
    path.write_bytes(data)
    try:
        READERS[magic](path)
    except FileFormatError:
        return False
    except Exception as exc:
        raise AssertionError(f"{magic} reader, {case}: {exc!r}") from exc
    return True


@pytest.mark.parametrize("magic", READERS)
@FUZZ
@given(prefixed=st.booleans(), tail=st.binary(max_size=200))
def test_any_bytes_parse_or_raise_format_error(tmp_path, magic, prefixed, tail):
    head = magic.encode() if prefixed else b""
    parses(magic, tmp_path / "f.bin", head + tail, f"bytes {head + tail!r}")


@pytest.mark.parametrize("magic", READERS)
def test_truncated_file_raises_format_error(tmp_path, valid_files, magic):
    """Every proper prefix of a valid file, down to the empty file."""
    raw = valid_files[magic]
    for cut in range(len(raw)):
        assert not parses(magic, tmp_path / "f.bin", raw[:cut], f"cut at {cut}"), cut


@pytest.mark.parametrize("magic", READERS)
def test_changed_byte_parses_or_raises_format_error(tmp_path, valid_files, magic):
    """Every byte position of a valid file, set to each of CHANGED_BYTES."""
    raw = valid_files[magic]
    for pos in range(len(raw)):
        for value in CHANGED_BYTES:
            changed = raw[:pos] + bytes([value]) + raw[pos + 1:]
            parses(magic, tmp_path / "f.bin", changed, f"byte {pos} set to {value:#04x}")
