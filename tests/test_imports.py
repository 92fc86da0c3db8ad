"""numpy carries the dense matrices only: a process that builds none, the
algebra side of the CLI included, never imports it."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

PROBE = """
import contextlib, io, sys
argv = sys.argv[1:]
if argv:
    from fusedhecke.cli import main
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
else:
    import fusedhecke
    code = 0
print(code, "numpy" in sys.modules)
"""


def _probe(*argv) -> str:
    """Exit code and whether numpy got loaded, in a fresh interpreter."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", PROBE, *argv], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, check=True, timeout=120)
    return proc.stdout.strip()


@pytest.mark.parametrize("argv", [
    (),
    ("qnum", "--fn", "binomial", "--L", "4", "--p", "2"),
    ("verify-ybe", "--k", "2", "--n", "3"),
    ("verify-ybe", "--k", "1", "--n", "3", "--classical"),
    ("verify-algebra", "--k", "2", "--n", "2", "--trials", "2"),
    ("compute-r", "--k", "2"),
    ("compute-sigma", "--k", "2", "--p", "1"),
    ("reproduce-paper", "--example", "k1-hecke"),
    ("reproduce-paper", "--example", "k2-coefficients"),
    ("reproduce-paper", "--example", "h22-product"),
], ids=["import", "qnum", "verify-ybe", "verify-ybe-classical", "verify-algebra",
        "compute-r-element", "compute-sigma-element", "k1-hecke", "k2-coefficients",
        "h22-product"])
def test_no_numpy_without_a_matrix(argv):
    assert _probe(*argv) == "0 False"


def test_matrix_commands_still_load_numpy():
    assert _probe("compute-r", "--k", "2", "--N", "2") == "0 True"
