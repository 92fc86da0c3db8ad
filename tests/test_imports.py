"""numpy carries the dense matrices only: a process that builds none, every
CLI command and the matrix YBE included, never imports it."""

import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

PROBE = """
import contextlib, io, sys
argv = sys.argv[1:]
if argv == ["verify_matrix_ybe"]:
    from fusedhecke import verify_matrix_ybe
    code = 0 if verify_matrix_ybe(1, 2, 3, 5, 2).ok else 1
elif argv:
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
    ("compute-r", "--k", "2", "--N", "2"),
    ("compute-r", "--k", "2", "--N", "2", "--format", "csv"),
    ("compute-sigma", "--k", "2", "--p", "1", "--N", "2"),
    ("reproduce-paper", "--example", "k2N2"),
    ("reproduce-paper", "--example", "k2N2-matrices"),
    ("verify_matrix_ybe",),
], ids=["import", "qnum", "verify-ybe", "verify-ybe-classical", "verify-algebra",
        "compute-r-element", "compute-sigma-element", "k1-hecke", "k2-coefficients",
        "h22-product", "compute-r-matrix-json", "compute-r-matrix-csv",
        "compute-sigma-matrix", "k2N2", "k2N2-matrices", "verify-matrix-ybe"])
def test_no_numpy_without_a_matrix(argv):
    assert _probe(*argv) == "0 False"


def test_dense_matrices_stay_numpy():
    """The public matrix functions still return numpy object arrays;
    sigma_matrix's, which its cache shares, are read-only."""
    import numpy as np

    from fusedhecke import classical_fused_R_matrix, fused_R_matrix, sigma_matrix
    from fusedhecke.reference_data import reference_sigma_k2N2

    for mat, writeable in [(sigma_matrix(2, 1, 2, 2), False),
                           (fused_R_matrix(2, 2, 3, 2), True),
                           (classical_fused_R_matrix(2, 2, 3), True),
                           *((m, True) for m in reference_sigma_k2N2(2))]:
        assert isinstance(mat, np.ndarray) and mat.dtype == object and mat.shape == (9, 9)
        assert mat.flags.writeable is writeable
        assert {type(v) for v in mat.flat} == {Fraction}
