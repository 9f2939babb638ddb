"""Importing the library and running an experiment need numpy alone, and
of numpy not ``numpy.polynomial``: scipy is a test dependency, for the
oracles in tests/oracles.py and the brute-force checks of the suite."""

import os
import subprocess
import sys
from pathlib import Path

import ghlab

# run in a fresh interpreter: refuse scipy and numpy.polynomial at the
# import system, so nothing the suite imported counts and nothing has to be
# uninstalled
BLOCKED_RUN = """
import sys

BLOCKED = ("scipy", "numpy.polynomial")

def blocked(name):
    return any(name == b or name.startswith(b + ".") for b in BLOCKED)

class Refuse:
    def find_spec(self, name, path=None, target=None):
        if blocked(name):
            raise ImportError(f"{name} is blocked")

sys.meta_path.insert(0, Refuse())

import ghlab, ghlab.cli
code = ghlab.cli.main(["flat-cy", "--n", "20", "--out", sys.argv[1]])
print(sorted(m for m in sys.modules if blocked(m)))
for name in BLOCKED:
    try:
        __import__(name)
    except ImportError:
        print("blocked")
sys.exit(code)
"""


def test_import_loads_no_scipy_or_numpy_polynomial_module(tmp_path):
    src = str(Path(ghlab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    out = subprocess.run([sys.executable, "-c", BLOCKED_RUN, str(tmp_path)], env=env,
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stdout + out.stderr
    # the last lines: no blocked module loaded, and the finder did refuse
    # each of them
    assert out.stdout.splitlines()[-3:] == ["[]", "blocked", "blocked"]
    assert (tmp_path / "flat-cy.csv").exists()
