"""Independent reference computations that the tests compare the library
against."""

from fractions import Fraction

from fusedhecke import linalg, symmetriser_sum
from fusedhecke.tensorrep import _apply_element, _pair_basis


def classical_sigma_direct(k: int, p: int, N: int):
    """Independent q = 1 route to the partial braiding matrix: symmetrise,
    exchange the letter blocks (k-p+1..k) and (k+1..k+p) as a plain position
    permutation, symmetrise again."""
    one = Fraction(1)
    wb, pairs, index_of, basis_mat, cols = _pair_basis(k, N, one)
    sym1 = symmetriser_sum(1, k, 2 * k, one)
    sym2 = symmetriser_sum(k + 1, 2 * k, 2 * k, one)
    perm = list(range(2 * k))
    for s in range(p):
        perm[k - p + s], perm[k + s] = perm[k + s], perm[k - p + s]
    images = linalg.zeros(N ** (2 * k), len(pairs))
    for c, vec in enumerate(cols):
        img = _apply_element(_apply_element(vec, sym1), sym2)
        img = {tuple(key[perm[t]] for t in range(2 * k)): val for key, val in img.items()}
        img = _apply_element(_apply_element(img, sym1), sym2)
        for key, val in img.items():
            images[index_of[key], c] = val
    return linalg.solve_exact(basis_mat, images)
