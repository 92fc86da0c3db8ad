"""Matrix representations on quantum symmetric powers W = S_q^k(V) and on
their tensor products.

The Hecke algebra acts on V^(tensor m) through the standard R-matrix at each
pair of adjacent slots: e_a e_b goes to q e_a e_b if a = b, else to e_b e_a,
plus (q - 1/q) e_a e_b if a < b.  Under the letter flip a -> N+1-a that
is hecke's generator rule on words with repeated letters (a weight space of
V^(tensor m) is a parabolic module, Dipper-James), so this module owns no
kernel and no chain of its own.  It flips the letters of a tensor on the way
into hecke's scaled-integer form, runs fused's braiding chain on it, and
keeps the letter order of its public multi-indices.  W is carried by the
(unnormalised) symmetriser images of the nondecreasing basis tensors.  The
action only rearranges letters, so each basis vector w_a of W lives on the
rearrangements of its own tensor t_a, and w_a tensor w_b is the one basis
vector of W tensor W with a term at
t_a + t_b: the braiding operators on W tensor W are read off at those keys.
They keep the weight (letter multiset) of a basis tensor, so they are sparse.
Every matrix on W tensor W is held in hecke's scaled-integer form: its
nonzero entries as integer numerators over one denominator, keyed by the
column-major index.  Each sigma_p is built once in that form, its
coordinates read off the braided images by integer cross-multiplication;
an R-matrix is one scaled sum of the sigma_p with a nonzero coefficient;
and the matrix Yang-Baxter equation applies the numerators of R through
R's columns to the whole identity block of W^(tensor 3), one pass per
factor and side, and compares both sides as integer maps.  Fractions are
built only where a matrix is read: the public numpy object arrays
(_dense), the rows that the CLI prints (_rows) and the Diff of a failing
matrix YBE.  numpy is imported only in _dense, so importing this module,
the matrix YBE and the serialisation of rows do not load it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import comb, prod
from types import MappingProxyType

from .errors import InternalConsistencyError, ParameterError, ResourceError
from .fused import VerifyResult, _braid_right, _check_order
from .hecke import (
    _ADDITIVE,
    _INDEX,
    _Baxterisation,
    _accumulate,
    _fractions,
    _integral,
    _multiplicative,
    _normalised,
    _ranked,
    _scaled,
    _scaled_sum,
    _scaled_symmetriser,
    _unscaled,
)
from .qnumbers import _cached_on_q, as_fraction, format_rational

MAX_TENSOR_DIM = 6561
MAX_YBE_DIM = 4096


def _flip(key: tuple, N: int) -> tuple:
    """The multi-index key with every letter a replaced by N+1-a: the
    R-matrix's ascent a < b becomes the hecke kernel's descent."""
    return tuple(N + 1 - a for a in key)


def _reversed(vec: dict, N: int) -> dict:
    """A sparse map over multi-indices with every key flipped."""
    return {_flip(key, N): c for key, c in vec.items()}


def _check_fusion_args(k: int, N: int) -> None:
    """Reject a fusion level k or a dimension N of V below 1."""
    if k < 1:
        raise ParameterError(f"k must be a positive integer, got {k}")
    if N < 1:
        raise ParameterError(f"N must be a positive integer, got {N}")


def _check_tensor_dim(N: int, m: int) -> None:
    dim = N**m
    if dim > MAX_TENSOR_DIM:
        raise ResourceError(f"V^(tensor {m}) has dimension {dim} > {MAX_TENSOR_DIM}")


# -- representations -----------------------------------------------------------


@dataclass(frozen=True)
class WBasis:
    """Basis of the quantum symmetric power W = S_q^k(V): the symmetriser
    images of the nondecreasing basis tensors, in lexicographic order and
    without further normalisation."""

    k: int
    N: int
    q: Fraction
    indices: tuple
    columns: tuple  # read-only sparse maps over multi-indices, one per basis vector

    @property
    def dim(self) -> int:
        return len(self.indices)


@_cached_on_q
def w_basis(k: int, N: int, q) -> WBasis:
    """The basis of W; raises if a column leaves the rearrangements of its
    own tensor t_a or vanishes there, which would make the columns (whose
    supports are then disjoint) dependent."""
    _check_fusion_args(k, N)
    _check_tensor_dim(N, k)
    indices = tuple(itertools.combinations_with_replacement(range(1, N + 1), k))
    columns = tuple(
        _reversed(_unscaled(*_scaled_symmetriser(*_scaled({_flip(t, N): 1}), 1, k, q)), N)
        for t in indices
    )
    if len(indices) != comb(k + N - 1, k) or not all(
        col.get(t) and all(tuple(sorted(key)) == t for key in col)
        for t, col in zip(indices, columns)
    ):
        raise InternalConsistencyError(
            f"symmetric power basis degenerate for k={k}, N={N}, q={q}"
        )
    return WBasis(k, N, q, indices, tuple(MappingProxyType(c) for c in columns))


def _dim(k: int, N: int) -> int:
    """The dimension of W tensor W."""
    return comb(k + N - 1, k) ** 2


@_cached_on_q
def _sigma_columns(k: int, p: int, N: int, q) -> tuple:
    """The order-p partial braiding on W tensor W, in the basis w_a tensor
    w_b ordered lexicographically, as (nums, den): its nonzero entries as
    integer numerators over one denominator, keyed by the column-major
    index c * dim + r (read-only).

    Computed by fused's braiding chain (the braiding word, then the
    symmetrisers) on each w_a tensor w_b in V^(tensor 2k), which the leading
    symmetrisers fix, in hecke's scaled-integer form.  The operator
    sigma_word applies its last letter first, but the chain runs the word in
    order: the permutation of a partial braiding is an involution, so the
    word and its reverse are reduced words of one permutation and
    sigma_word = sigma_reversed(word).

    The supports of distinct w_a tensor w_b are disjoint (w_basis checks
    that w_a lives on the rearrangements of t_a), so each key of an image
    belongs to one basis vector w_r, and the coordinate of w_r is the
    image's value at t_r over the value of w_r there.  The image lies in
    W tensor W if and only if every key belongs to some w_r, the image at
    each key t of w_r is proportional to w_r, n_t w_r[t_r] = n_{t_r} w_r[t]
    on integer numerators, and the image holds every key of each w_r it
    meets.  Raises if not, which no admissible parameter can trigger.
    """
    _check_fusion_args(k, N)
    _check_order(p, k)
    _check_tensor_dim(N, 2 * k)
    wb = w_basis(k, N, q)
    dim = _dim(k, N)
    # w_a in the kernel's letters on integer numerators, and the inverse of
    # its value at its own tensor t_a as rho_a / lam
    ws = [_integral(_reversed(c, N)) for c in wb.columns]
    rho, lam = _integral({a: 1 / c[t] for a, (t, c) in enumerate(zip(wb.indices, wb.columns))})
    tensors = [_flip(t, N) for t in wb.indices]
    basis, scales, owner = [], [], {}
    for r, (a, b) in enumerate(itertools.product(range(wb.dim), repeat=2)):
        (x, dx), (y, dy) = ws[a], ws[b]
        nums = _ranked({kx + ky: vx * vy for kx, vx in x.items() for ky, vy in y.items()})
        top = _INDEX.rank(tensors[a] + tensors[b])
        basis.append((nums, dx * dy))
        scales.append(rho[a] * rho[b])
        # each key of w_r -> r, w_r's numerators there and at t_r, t_r
        owner.update((key, (r, n, nums[top], top)) for key, n in nums.items())
    outside = InternalConsistencyError(
        f"sigma_matrix image leaves W tensor W for k={k}, p={p}, N={N}, q={q}"
    )
    cols = []
    for c, x in enumerate(basis):
        img, den = _braid_right(x, k, k, 0, p, q)
        col = {}  # r -> the image's numerator at t_r
        for key, n in img.items():
            if key not in owner:
                raise outside
            r, m, pivot, top = owner[key]
            if n * pivot != img.get(top, 0) * m:
                raise outside
            col[r] = img[top]
        if sum(len(basis[r][0]) for r in col) != len(img):
            raise outside
        cols.append((1, ({c * dim + r: t * scales[r] for r, t in col.items()}, den * lam * lam)))
    nums, den = _normalised(*_scaled_sum(cols))
    return MappingProxyType(nums), den


def _rows(x: tuple, k: int, N: int) -> list:
    """The rows, lists of Fractions, of the matrix x = (nums, den) on
    W tensor W, keyed column-major."""
    dim = _dim(k, N)
    zero = Fraction(0)
    rows = [[zero] * dim for _ in range(dim)]
    for key, val in _fractions(*x).items():
        c, r = divmod(key, dim)
        rows[r][c] = val
    return rows


def _dense(x: tuple, k: int, N: int) -> np.ndarray:
    """The numpy object array of the matrix x = (nums, den) on W tensor W,
    keyed column-major; it holds Fractions."""
    import numpy as np

    dim = _dim(k, N)
    out = np.full((dim, dim), Fraction(0), dtype=object)
    for key, val in _fractions(*x).items():
        out[key % dim, key // dim] = val
    return out


@_cached_on_q
def sigma_matrix(k: int, p: int, N: int, q) -> np.ndarray:
    """Matrix of the order-p partial braiding on W tensor W, in the basis
    w_a tensor w_b ordered lexicographically (read-only)."""
    mat = _dense(_sigma_columns(k, p, N, q), k, N)
    mat.setflags(write=False)
    return mat


def _R_columns(k: int, N: int, arg, bax: _Baxterisation) -> tuple:
    """sum_p coefficient_p(arg) * sigma_matrix(p) on W tensor W in the form
    of _sigma_columns, one scaled sum over the sigma_p whose coefficient is
    not zero (the top one is 1)."""
    _check_fusion_args(k, N)
    return _scaled_sum(
        (a, _sigma_columns(k, p, N, bax.q)) for p, a in enumerate(bax.coefficients(k, k, arg)) if a
    )


def fused_R_matrix(k: int, N: int, u, q) -> np.ndarray:
    """The baxterised solution on W tensor W: sum_p a_p(u) sigma_matrix(p)."""
    return _dense(_R_columns(k, N, u, _multiplicative(q)), k, N)


def classical_fused_R_matrix(k: int, N: int, mu) -> np.ndarray:
    """The additive-parameter solution at q = 1 with the classical
    coefficients over the same partial-braiding matrices."""
    return _dense(_R_columns(k, N, mu, _ADDITIVE), k, N)


def _columns(nums, dim: int) -> list:
    """The (row, numerator) pairs of each column of a matrix keyed
    column-major."""
    cols = [[] for _ in range(dim)]
    for key, n in nums.items():
        c, r = divmod(key, dim)
        cols[c].append((r, n))
    return cols


def _apply_pair(vec: dict, cols: list, inner: int) -> dict:
    """Apply a matrix on W tensor W, given by the numerators of its
    columns, to two adjacent factors of the row index i of a sparse map of
    numerators on W^(tensor 3), keyed i * d^3 + j with i and j row-major:
    the first two factors for inner = d * d^3 (R x I), the last two for
    inner = d^3 (I x R).  Column c sends key to key + (r - c) * inner."""
    moves = [[((r - c) * inner, a) for r, a in col] for c, col in enumerate(cols)]
    n = len(cols)
    return _accumulate(
        {}, ((key + s, a * v) for key, v in vec.items() for s, a in moves[key // inner % n])
    )


def _verify_matrix_ybe(k: int, N: int, x, y, bax: _Baxterisation) -> VerifyResult:
    """The braided relation on W^(tensor 3) with middle argument
    w = bax.middle(x, y), checked on the whole identity at once:

        (R(x) x I)(I x R(w))(R(y) x I) = (I x R(y))(R(w) x I)(I x R(x)).

    Both sides start at the identity {j * d^3 + j: 1} and apply the
    numerators of the same three R's, one _apply_pair each, so both lie
    over the product of their denominators and are compared as integer
    maps.  The diff is the row-major-first differing entry (i, j, lhs, rhs)
    of the two products, read as Fractions.  The maps hold every nonzero
    entry of the partial products, so the check takes more memory than a
    column at a time would: a tracemalloc peak of 0.7 MB at (k, N) = (2, 3),
    5.1 MB at (2, 4), 9.1-9.5 MB at (3, 3) and 22.7 MB at (2, 5), where one
    column at a time peaked below 0.4 MB."""
    _check_fusion_args(k, N)
    d = comb(k + N - 1, k)
    d3 = d**3
    if d3 > MAX_YBE_DIM:
        raise ResourceError(f"W^(tensor 3) has dimension {d3} > {MAX_YBE_DIM}")
    rs = [_R_columns(k, N, a, bax) for a in (x, bax.middle(x, y), y)]
    r_x, r_w, r_y = (_columns(nums, d * d) for nums, _ in rs)
    e = {j * d3 + j: 1 for j in range(d3)}
    lhs = _apply_pair(_apply_pair(_apply_pair(e, r_y, d * d3), r_w, d3), r_x, d * d3)
    rhs = _apply_pair(_apply_pair(_apply_pair(e, r_x, d3), r_w, d * d3), r_y, d3)
    if lhs == rhs:
        return VerifyResult(True, None)
    key = min(key for key in lhs.keys() | rhs.keys() if lhs.get(key) != rhs.get(key))
    den = prod(den for _, den in rs)
    values = _fractions({"lhs": lhs.get(key, 0), "rhs": rhs.get(key, 0)}, den)
    return VerifyResult(False, (*divmod(key, d3), values["lhs"], values["rhs"]))


def verify_matrix_ybe(k: int, N: int, u, v, q) -> VerifyResult:
    """Exact check of the braided relation on W^(tensor 3):

        (R(u) x I)(I x R(uv))(R(v) x I) = (I x R(v))(R(uv) x I)(I x R(u)).
    """
    return _verify_matrix_ybe(k, N, as_fraction(u), as_fraction(v), _multiplicative(q))


# -- serialization ---------------------------------------------------------------


def matrix_to_obj(mat, k: int, N: int, q, u=None) -> dict:
    """A square matrix, given as any sequence of rows, in the JSON form."""
    obj = {
        "k": k,
        "N": N,
        "q": format_rational(as_fraction(q)),
        "dim": len(mat),
        "matrix": [[format_rational(v) for v in row] for row in mat],
    }
    if u is not None:
        obj["u"] = format_rational(as_fraction(u))
    return obj


def matrix_to_csv(mat) -> str:
    """A matrix, given as any sequence of rows, one CSV line per row."""
    lines = [",".join(format_rational(v) for v in row) for row in mat]
    return "\n".join(lines) + "\n"
