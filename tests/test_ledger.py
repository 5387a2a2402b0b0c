"""Report bytes against the committed ledger, on this CPU's numpy dispatch and
on a reduced one: the batch is the source of no reported byte."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

import report_ledger

try:
    from numpy._core import _multiarray_umath as _umath
except ImportError:  # numpy < 2
    from numpy.core import _multiarray_umath as _umath


def _dispatch_above_baseline() -> list:
    """The dispatch targets numpy enables on this CPU above its baseline."""
    return [name for name in getattr(_umath, "__cpu_dispatch__", [])
            if _umath.__cpu_features__.get(name) and name not in _umath.__cpu_baseline__]


@pytest.fixture(scope="module")
def reduced():
    """The disabled targets, and a child process printing the digests and the
    ufunc probe on numpy that may not dispatch to them; None where no target
    above the baseline is enabled. It starts first, so that it runs alongside
    the digests of this process."""
    targets = _dispatch_above_baseline()
    if not targets:
        yield None
        return
    env = {**os.environ, "NPY_DISABLE_CPU_FEATURES": " ".join(targets),
           "PYTHONPATH": os.pathsep.join(sys.path)}
    child = subprocess.Popen([sys.executable, report_ledger.__file__, "--json"], env=env,
                             stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        yield targets, child
    finally:
        child.kill()
        child.communicate()


@pytest.fixture(scope="module")
def digests(reduced):
    return report_ledger.digests()


def assert_unchanged(digests) -> None:
    names = report_ledger.changed(json.loads(report_ledger.LEDGER.read_text()), digests)
    assert not names, f"{len(names)} ledger entries changed: {names}"


def test_report_bytes_match_the_ledger(digests):
    assert_unchanged(digests)


def test_report_bytes_match_the_ledger_on_reduced_dispatch(reduced, digests):
    if reduced is None:
        pytest.skip(f"numpy {np.__version__} dispatches no target above its baseline here")
    targets, child = reduced
    out, err = child.communicate(timeout=120)
    assert child.returncode == 0, err
    found = json.loads(out)
    if found["ufuncs"] == report_ledger.ufunc_probe():
        pytest.skip(f"disabling {' '.join(targets)} changed no ufunc's bits")
    assert_unchanged(found["digests"])
