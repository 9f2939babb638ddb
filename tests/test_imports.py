"""Importing the library needs numpy alone: scipy serves only the QMC
oracle, behind a function-level import, and the tests."""

import os
import subprocess
import sys
from pathlib import Path

import ghlab


def test_import_loads_no_scipy_module():
    # a fresh interpreter, so nothing the suite imported counts
    src = str(Path(ghlab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    code = ("import sys, ghlab, ghlab.cli; "
            "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"
