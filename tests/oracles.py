"""Independent reference computations that the tests compare the library
against: the action on V^(tensor m) applied term by term over Fraction (the
standard R-matrix at adjacent slots, each Hecke element applied along the
reduced words of its terms), the product of H_m one left term at a time
over Fraction, by an element-level sigma_i * x of its own that shares no
code with the library's product (the symmetriser recursion check uses it
too), exact zero matrices, matrix equality and a matrix read back from its
JSON form, a dense exact Gauss-Jordan solver, the q = 1 partial braiding
matrices obtained with it, the matrix Yang-Baxter equation as dense
Kronecker factors and dense products, and the fused chains of right
multiplications (projectors, partial braidings, factorised R-elements and
the braided and mixed Yang-Baxter chains) run in the standard basis of H_m,
each symmetriser applied term by term from its sum formula; also the
baxterised generator and the product-form symmetriser built from it one
element per factor, the left symmetriser recursion, the one-projector form
of the factorised R-element, the standard basis element and the library's
scaled symmetriser pass wrapped on elements, which only the tests use."""

import itertools
from fractions import Fraction
from math import comb

import numpy as np

from fusedhecke import fused, linalg, symmetriser_sum, w_basis
from fusedhecke.errors import DomainError, InternalConsistencyError, ParameterError
from fusedhecke.fused import FusedContext, VerifyResult, braiding_word, element_diff, projector_P
from fusedhecke.hecke import (
    HeckeElement,
    _accumulate,
    _element,
    _integral,
    _r_check_constant,
    _scaled,
    _scaled_symmetriser,
    _unscaled,
    right_mul_generator,
    unit,
    zero,
)
from fusedhecke.permutations import reduced_word
from fusedhecke.qnumbers import as_fraction, q_factorial, q_int
from fusedhecke.tensorrep import _check_tensor_dim, _R_matrix


# -- the action on V^(tensor m), term by term ----------------------------------

# a vector is a dict {multi-index tuple: Fraction}; letters run 1..N


def _apply_gen(vec: dict, pos: int, q) -> dict:
    """Apply the standard R-matrix at tensor slots (pos, pos+1): e_a e_b goes
    to q e_a e_b if a = b, else to e_b e_a, plus (q - 1/q) e_a e_b if a < b."""
    out = {}
    for idx, c in vec.items():
        a, b = idx[pos - 1], idx[pos]
        terms = [(idx[: pos - 1] + (b, a) + idx[pos + 1 :], q * c if a == b else c)]
        if a < b:
            terms.append((idx, (q - 1 / q) * c))
        _accumulate(out, terms)
    return out


def _apply_word(vec: dict, word, q) -> dict:
    """Apply the operator sigma_{word} (word read left to right)."""
    for a in reversed(word):
        vec = _apply_gen(vec, a, q)
    return vec


def _apply_element(vec: dict, x: HeckeElement) -> dict:
    """Apply a Hecke algebra element (acting on m = x.m tensor slots)."""
    out = {}
    for w, c in x.terms.items():
        img = _apply_word(vec, reduced_word(w), x.q)
        _accumulate(out, ((key, c * val) for key, val in img.items()))
    return out


def _multi_indices(N: int, m: int):
    return list(itertools.product(range(1, N + 1), repeat=m))


def hecke_rmatrix(N: int, q) -> np.ndarray:
    """The standard R-matrix on V tensor V, basis e_i tensor e_j ordered
    lexicographically, acting on column vectors."""
    q = as_fraction(q)
    if N < 2:
        raise ParameterError("need N >= 2")
    if q == 0:
        raise ParameterError("q must be nonzero")
    idxs = _multi_indices(N, 2)
    index_of = {t: r for r, t in enumerate(idxs)}
    mat = zeros(N * N, N * N)
    for c, idx in enumerate(idxs):
        img = _apply_gen({idx: Fraction(1)}, 1, q)
        for key, val in img.items():
            mat[index_of[key], c] = val
    return mat


def represent(x: HeckeElement, N: int) -> np.ndarray:
    """Matrix of x on V^(tensor m) with the local R-matrix action."""
    _check_tensor_dim(N, x.m)
    dim = N**x.m
    idxs = _multi_indices(N, x.m)
    index_of = {t: r for r, t in enumerate(idxs)}
    mat = zeros(dim, dim)
    for c, idx in enumerate(idxs):
        img = _apply_element({idx: Fraction(1)}, x)
        for key, val in img.items():
            mat[index_of[key], c] = val
    return mat


# -- dense exact linear algebra ----------------------------------------------------


def eye(n: int) -> np.ndarray:
    """The exact n x n identity matrix."""
    return np.identity(n, dtype=object)


def zeros(r: int, c: int) -> np.ndarray:
    """The exact r x c zero matrix."""
    return np.zeros((r, c), dtype=object)


def mat_equal(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and bool((a == b).all())


def matrix_from_obj(obj: dict) -> np.ndarray:
    """The exact matrix of tensorrep.matrix_to_obj's JSON form."""
    return linalg.fmat([[Fraction(v) for v in row] for row in obj["matrix"]])


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
    mat = zeros(len(index_of), len(cols))
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
    images = zeros(N ** (2 * k), len(cols))
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


# -- fused chains in the standard basis -------------------------------------------


def from_fractions(m: int, q, terms: dict) -> HeckeElement:
    """The element with the nonzero Fraction coefficients terms, its keys
    taken as they are: permutations, or words, which the public
    constructor refuses."""
    return _element(m, q, *_integral(terms))


def basis_element(w, m: int, q) -> HeckeElement:
    """The standard basis element sigma_w of H_m(q)."""
    return HeckeElement(m, q, {tuple(w): Fraction(1)})


def left_mul_generator(i: int, x: HeckeElement) -> HeckeElement:
    """sigma_i * x expanded in the standard basis over Fraction: s_i * w
    swaps the values i, i+1 of w, and where the length goes down (i occurs
    after i+1) the term also stays put with weight q - 1/q."""
    if not 1 <= i <= x.m - 1:
        raise DomainError(f"generator index {i} out of range for m={x.m}")
    j = i + 1
    swap = list(range(x.m + 1))
    swap[i], swap[j] = j, i
    out = {tuple(map(swap.__getitem__, w)): c for w, c in x.terms.items()}
    lam = x.q - 1 / x.q
    if lam:
        _accumulate(
            out, ((w, lam * c) for w, c in x.terms.items() if w.index(i) > w.index(j))
        )
    return from_fractions(x.m, x.q, out)


def multiply(a: HeckeElement, b: HeckeElement) -> HeckeElement:
    """a * b over Fraction, one left term at a time: sigma_w b is b with w
    composed into each key at q**2 == 1, and otherwise b taken through the
    whole canonical reduced word of w, one left_mul_generator pass per
    letter."""
    total: dict = {}
    classical = a.q == 1 or a.q == -1
    for w, c in a.terms.items():
        if classical:
            y = from_fractions(b.m, b.q, {tuple(w[t - 1] for t in v): cv
                                          for v, cv in b.terms.items()})
        else:
            y = b
            for idx in reversed(reduced_word(w)):
                y = left_mul_generator(idx, y)
        _accumulate(total, ((wy, c * cy) for wy, cy in y.terms.items()))
    return from_fractions(a.m, a.q, total)


def mul_element_right(x: HeckeElement, y: HeckeElement) -> HeckeElement:
    """x * y, each x * sigma_w taken along the canonical reduced word of w."""
    total: dict = {}
    for w, c in y.terms.items():
        z = x
        for idx in reduced_word(w):
            z = right_mul_generator(z, idx)
        _accumulate(total, ((wz, c * cz) for wz, cz in z.terms.items()))
    return from_fractions(x.m, x.q, total)


def mul_projector_right(x: HeckeElement, intervals) -> HeckeElement:
    for lo, hi in intervals:
        x = mul_element_right(x, symmetriser_sum(lo, hi, x.m, x.q))
    return x


def projector(m: int, q, intervals) -> HeckeElement:
    return mul_projector_right(unit(m, q), intervals)


def partial_braiding(ctx, i: int, p: int) -> HeckeElement:
    x = projector(ctx.strands, ctx.q, ctx.blocks())
    for a in braiding_word(ctx.k, ctx.k, p):
        x = right_mul_generator(x, (i - 1) * ctx.k + a)
    return mul_projector_right(x, ctx.blocks())


def partial_braiding_mixed(k: int, ell: int, p: int, q) -> HeckeElement:
    m = k + ell
    x = projector(m, q, [(1, k), (k + 1, m)])
    for a in braiding_word(k, ell, p):
        x = right_mul_generator(x, a)
    return mul_projector_right(x, [(1, ell), (ell + 1, m)])


def grid(x: HeckeElement, k: int, ell: int, arg, offset: int, bax) -> HeckeElement:
    """x times the k x ell grid of factors sigma_j + c(arg, shift)."""
    for a in range(k, 0, -1):
        for t in range(ell):
            c = bax.constant(arg, t + 1 - a)
            x = right_mul_generator(x, offset + a + t) + x.scale(c)
    return x


def factorised(k: int, ell: int, arg, bax) -> HeckeElement:
    m = k + ell
    x = grid(projector(m, bax.q, [(1, k), (k + 1, m)]), k, ell, arg, 0, bax)
    return mul_projector_right(x, [(1, ell), (ell + 1, m)])


def expansion(ctx, i: int, arg, bax) -> HeckeElement:
    """R_i(arg) = sum_p a_p(arg) (partial braiding p at ellipse i)."""
    out = zero(ctx.strands, ctx.q)
    for p, a in enumerate(bax.coefficients(ctx.k, arg)):
        out = out + partial_braiding(ctx, i, p).scale(a)
    return out


def braided_ybe(ctx, u, v, i: int, bax) -> VerifyResult:
    """R_i(u) R_{i+1}(w) R_i(v) = R_{i+1}(v) R_i(w) R_{i+1}(u), w = bax.middle(u, v),
    each side the product of the three expansions."""
    w = bax.middle(u, v)
    r = lambda j, arg: expansion(ctx, j, arg, bax)
    lhs = mul_element_right(mul_element_right(r(i, u), r(i + 1, w)), r(i, v))
    rhs = mul_element_right(mul_element_right(r(i + 1, v), r(i, w)), r(i + 1, u))
    return _verdict(lhs, rhs)


def _verdict(lhs, rhs) -> VerifyResult:
    d = element_diff(lhs, rhs)
    return VerifyResult(d is None, d)


def mixed_ybe(k: int, l: int, m: int, u, v, q) -> VerifyResult:
    """The mixed braided relation, both sides from the unit, with the grid
    constants of fused._multiplicative looked up at call time."""
    n = k + l + m

    def times_R(x, a, b, arg, off):
        end = off + a + b
        x = mul_projector_right(x, [(off + 1, off + a), (off + a + 1, end)])
        x = grid(x, a, b, arg, off, fused._multiplicative(q))
        return mul_projector_right(x, [(off + 1, off + b), (off + b + 1, end)])

    lhs = times_R(times_R(times_R(unit(n, q), k, l, u, 0), k, m, u * v, l), l, m, v, 0)
    rhs = times_R(times_R(times_R(unit(n, q), l, m, v, k), k, m, u * v, 0), k, l, u, m)
    return _verdict(lhs, rhs)


# -- test-only forms of library elements ---------------------------------------------


def mul_r_check_right(x: HeckeElement, i: int, u) -> HeckeElement:
    """x * (sigma_i - (q - 1/q)/(1 - u)) on elements: the generator pass
    plus the scaled copy of x, one element per factor."""
    c = _r_check_constant(as_fraction(u), x.q)
    return right_mul_generator(x, i) + x.scale(c)


def symmetriser_product(i: int, j: int, m: int, q) -> HeckeElement:
    """hecke.symmetriser_product taken factor by factor on elements."""
    q = as_fraction(q)
    x = unit(m, q)
    for a in range(i, j):
        for t in range(a - i + 1):
            x = mul_r_check_right(x, a - t, q ** (2 * (a - i + 1 - t)))
    return x / q_factorial(j - i + 1, q)


def r_check_generator(i: int, u, m: int, q) -> HeckeElement:
    """The baxterised generator sigma_i - (q - 1/q)/(1 - u)."""
    return mul_r_check_right(unit(m, q), i, u)


def symmetriser_recursion_check(i: int, j: int, m: int, q) -> bool:
    """Exact check of the one-step symmetriser recursion

        S_[i,j+1] = 1/[j-i+2]_q * sum_{a=i..j+1} q^{i-a}
                        sigma_a sigma_{a+1} ... sigma_j S_[i,j],

    where the word is empty for a = j+1.  The denominator is the q-integer
    of the grown interval size (j - i + 2), and the summand exponents count
    down from 0; both were pinned down by exact comparison against the sum
    formula.
    """
    q = as_fraction(q)
    if not 1 <= i <= j < m:
        raise DomainError(f"recursion needs 1 <= i <= j < m, got [{i},{j}]")
    lhs = symmetriser_sum(i, j + 1, m, q)
    s = symmetriser_sum(i, j, m, q)
    rhs = zero(m, q)
    for a in range(i, j + 2):
        y = s
        for idx in range(j, a - 1, -1):
            y = left_mul_generator(idx, y)
        rhs = rhs + y.scale(q ** (i - a))
    rhs = rhs / q_int(j - i + 2, q)
    return lhs == rhs


def baxter_R_one_sided(k: int, u, q) -> HeckeElement:
    """One-projector form in H_{2k}(q): P^(k) followed by the reversed-argument
    grid, no trailing projector (the element commutes with P^(k))."""
    q = as_fraction(q)
    u = as_fraction(u)
    x = projector_P(FusedContext(k, 2, q))
    for a in range(k, 0, -1):
        for t in range(k):
            x = mul_r_check_right(x, a + t, u * q ** (2 * (a - 1 - t)))
    return x


def mul_symmetriser_right(x: HeckeElement, i: int, j: int) -> HeckeElement:
    """x * S_[i,j] by the library's scaled-integer symmetriser pass, with its
    coefficients converted in and out; a bad interval is rejected first."""
    symmetriser_sum(i, j, x.m, x.q)
    nums, den = _scaled_symmetriser(*_scaled(x.terms), i, j, x.q)
    return from_fractions(x.m, x.q, _unscaled(nums, den))
