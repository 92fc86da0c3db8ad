"""Exact dense linear algebra over the rationals.

Matrices are numpy arrays with dtype=object holding `fractions.Fraction`
(or int) entries; the constructors, product and comparisons here are exact.
The library only builds and compares matrices: the R-matrices act on
W^(tensor 3) through their sparse columns (see tensorrep), so the dense
product, which skips zero entries of its left factor, serves the checks
that multiply whole matrices.

numpy is imported inside the functions that build an array (fmat, zeros,
matmul), so a process that builds no matrix never loads it; the comparisons
only call methods of the arrays they are given.
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


def zeros(r: int, c: int) -> np.ndarray:
    import numpy as np

    return np.zeros((r, c), dtype=object)


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


def mat_equal(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and bool((a == b).all())


def first_matrix_diff(a: np.ndarray, b: np.ndarray):
    """First differing entry (i, j, a[i,j], b[i,j]) in row-major order."""
    if a.shape != b.shape:
        return (-1, -1, a.shape, b.shape)
    for i in range(a.shape[0]):
        for j in range(a.shape[1]):
            if a[i, j] != b[i, j]:
                return (i, j, a[i, j], b[i, j])
    return None

