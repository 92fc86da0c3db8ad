"""Exact dense linear algebra over the rationals.

Matrices are numpy arrays with dtype=object holding `fractions.Fraction`
(or int) entries; the constructor fmat, the product matmul and the
comparison first_matrix_diff are exact.
The library only builds and compares matrices: the R-matrices act on
W^(tensor 3) through their sparse columns (see tensorrep), so the dense
product, which skips zero entries of its left factor, serves the checks
that multiply whole matrices.

numpy is imported inside the functions that build an array (fmat,
matmul), so a process that builds no matrix never loads it;
first_matrix_diff walks any two sequences of rows, so the CLI compares
plain lists of Fractions with it.
"""

from __future__ import annotations

from fractions import Fraction


def fmat(rows) -> np.ndarray:
    """Build an exact matrix from nested sequences."""
    import numpy as np

    a = np.empty((len(rows), len(rows[0])), dtype=object)
    for i, row in enumerate(rows):
        for j, v in enumerate(row):
            a[i, j] = Fraction(v)
    return a


def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Exact product, row oriented, skipping zero entries of the left factor."""
    import numpy as np

    n, m = a.shape
    m2, p = b.shape
    if m != m2:
        raise ValueError(f"shape mismatch {a.shape} @ {b.shape}")
    out = np.zeros((n, p), dtype=object)
    for i in range(n):
        row = a[i]
        acc = out[i]
        for j in range(m):
            v = row[j]
            if v:
                acc += v * b[j]
        out[i] = acc
    return out


def first_matrix_diff(a, b):
    """First differing entry (i, j, a[i][j], b[i][j]) in row-major order of
    two matrices given as sequences of rows (numpy arrays among them), or
    (-1, -1, shape of a, shape of b) if their shapes differ."""
    shape_a, shape_b = _shape(a), _shape(b)
    if shape_a != shape_b:
        return (-1, -1, shape_a, shape_b)
    for i, (row_a, row_b) in enumerate(zip(a, b)):
        for j, (x, y) in enumerate(zip(row_a, row_b)):
            if x != y:
                return (i, j, x, y)
    return None


def _shape(rows) -> tuple:
    return (len(rows), len(rows[0]) if len(rows) else 0)
