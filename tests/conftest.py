"""Shared fixtures for the test suite."""

import os
from pathlib import Path

import pytest

import ktnext

BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "NUMEXPR_NUM_THREADS")


@pytest.fixture(autouse=True)
def blas_thread_vars_restored():
    """Put the BLAS thread variables back as they were after every test.

    An in-process CLI call exports its thread count to them, and a later
    fresh-interpreter test would otherwise inherit that count.  The values
    are saved and restored by hand: ``monkeypatch.delenv`` records nothing to
    undo for a variable that is unset when it is called.
    """
    saved = {var: os.environ.get(var) for var in BLAS_THREAD_VARS}
    yield
    for var, value in saved.items():
        if value is None:
            os.environ.pop(var, None)
        else:
            os.environ[var] = value


@pytest.fixture
def cli_env():
    """Environment for running ``python -m ktnext.cli`` in a fresh interpreter.

    The child imports the same ``ktnext`` as this process: the directory
    holding that package goes first on an absolute ``PYTHONPATH``, so the
    child finds it from any working directory, and ahead of any other
    installed copy.  ``KTNEXT_THREADS`` is dropped so the child uses its
    default thread count.
    """
    env = dict(os.environ)
    env.pop("KTNEXT_THREADS", None)
    package_root = str(Path(ktnext.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (package_root, env.get("PYTHONPATH")) if p
    )
    return env
