"""Independent reference computations that the tests compare the library
against: a dense exact Gauss-Jordan solver, the q = 1 partial braiding
matrices obtained with it, and the matrix Yang-Baxter equation as dense
Kronecker factors and dense products."""

from fractions import Fraction
from math import comb

import numpy as np

from fusedhecke import linalg, symmetriser_sum, w_basis
from fusedhecke.errors import InternalConsistencyError
from fusedhecke.fused import VerifyResult
from fusedhecke.tensorrep import _apply_element, _multi_indices, _R_matrix


def eye(n: int) -> np.ndarray:
    """The exact n x n identity matrix."""
    return np.identity(n, dtype=object)


def _echelonize(aug: list, left_cols: int):
    """In-place Gauss-Jordan on the first left_cols columns; returns the list
    of pivot columns.  Pivoting picks the first nonzero entry, which is all
    exact arithmetic needs."""
    rows = len(aug)
    pivots = []
    r = 0
    for c in range(left_cols):
        pr = next((t for t in range(r, rows) if aug[t][c]), None)
        if pr is None:
            continue
        aug[r], aug[pr] = aug[pr], aug[r]
        piv = aug[r][c]
        if piv != 1:
            inv = 1 / Fraction(piv)
            aug[r] = [inv * v for v in aug[r]]
        for t in range(rows):
            if t != r and aug[t][c]:
                f = aug[t][c]
                aug[t] = [x - f * y for x, y in zip(aug[t], aug[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return pivots


def rank(a: np.ndarray) -> int:
    aug = [[Fraction(v) for v in row] for row in a]
    return len(_echelonize(aug, a.shape[1]))


def solve_exact(m: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve m @ x = b exactly for a full-column-rank m.

    Raises InternalConsistencyError if m is column-rank-deficient or if some
    column of b lies outside the column span of m.
    """
    n, d = m.shape
    nb, r = b.shape
    if n != nb:
        raise ValueError("incompatible shapes in solve_exact")
    aug = [
        [Fraction(m[i, j]) for j in range(d)] + [Fraction(b[i, j]) for j in range(r)]
        for i in range(n)
    ]
    pivots = _echelonize(aug, d)
    if len(pivots) != d:
        raise InternalConsistencyError(
            f"coefficient matrix is rank {len(pivots)} < {d}"
        )
    for t in range(d, n):
        if any(aug[t][d:]):
            raise InternalConsistencyError("right-hand side outside column span")
    x = np.zeros((d, r), dtype=object)
    for row_idx, c in enumerate(pivots):
        for j in range(r):
            x[c, j] = aug[row_idx][d + j]
    return x


def pair_basis(k: int, N: int, q):
    """The basis w_a tensor w_b of W tensor W as sparse vectors on
    V^(tensor 2k), the row index of each multi-index, and the dense
    N^(2k) x d^2 matrix of those vectors."""
    wb = w_basis(k, N, q)
    cols = [
        {kx + ky: vx * vy for kx, vx in x.items() for ky, vy in y.items()}
        for x in wb.columns
        for y in wb.columns
    ]
    index_of = {t: r for r, t in enumerate(_multi_indices(N, 2 * k))}
    mat = linalg.zeros(len(index_of), len(cols))
    for c, vec in enumerate(cols):
        for key, val in vec.items():
            mat[index_of[key], c] = val
    return cols, index_of, mat


def classical_sigma_direct(k: int, p: int, N: int):
    """Independent q = 1 route to the partial braiding matrix: symmetrise,
    exchange the letter blocks (k-p+1..k) and (k+1..k+p) as a plain position
    permutation, symmetrise again, and solve densely for the coordinates."""
    one = Fraction(1)
    cols, index_of, basis_mat = pair_basis(k, N, one)
    sym1 = symmetriser_sum(1, k, 2 * k, one)
    sym2 = symmetriser_sum(k + 1, 2 * k, 2 * k, one)
    perm = list(range(2 * k))
    for s in range(p):
        perm[k - p + s], perm[k + s] = perm[k + s], perm[k - p + s]
    images = linalg.zeros(N ** (2 * k), len(cols))
    for c, vec in enumerate(cols):
        img = _apply_element(_apply_element(vec, sym1), sym2)
        img = {tuple(key[perm[t]] for t in range(2 * k)): val for key, val in img.items()}
        img = _apply_element(_apply_element(img, sym1), sym2)
        for key, val in img.items():
            images[index_of[key], c] = val
    return solve_exact(basis_mat, images)


def dense_matrix_ybe(k: int, N: int, x, y, bax) -> VerifyResult:
    """The braided relation on W^(tensor 3) with middle argument
    bax.middle(x, y), as products of dense Kronecker factors, with the
    row-major-first differing entry as the diff."""
    d = comb(k + N - 1, k)
    r_x, r_w, r_y = (_R_matrix(k, N, a, bax) for a in (x, bax.middle(x, y), y))
    lhs = linalg.matmul(
        linalg.matmul(np.kron(r_x, eye(d)), np.kron(eye(d), r_w)), np.kron(r_y, eye(d))
    )
    rhs = linalg.matmul(
        linalg.matmul(np.kron(eye(d), r_y), np.kron(r_w, eye(d))), np.kron(eye(d), r_x)
    )
    diff = linalg.first_matrix_diff(lhs, rhs)
    return VerifyResult(diff is None, diff)
