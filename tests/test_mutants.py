"""The committed mutants of ``tools/mutants.json`` are all caught."""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.sweep
def test_every_committed_mutant_is_caught():
    """``tools/mutants.py`` exits 0: the tests each mutant names pass on
    the unmutated tree and fail under the mutant.  A test weakened until
    a registered mutant survives fails here (~1 min on a 2-core host)."""
    done = subprocess.run(
        [sys.executable, os.path.join(ROOT, "tools", "mutants.py")],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
