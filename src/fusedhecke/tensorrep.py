"""Matrix representations on quantum symmetric powers W = S_q^k(V) and on
their tensor products.

The Hecke algebra acts on V^(tensor m) through the standard R-matrix at each
pair of adjacent slots: e_a e_b goes to q e_a e_b if a = b, else to e_b e_a,
plus (q - 1/q) e_a e_b if a < b.  Under the letter reversal a -> N+1-a that
is hecke's generator rule on words with repeated letters (a weight space of
V^(tensor m) is a parabolic module, Dipper-James), so this module owns no
kernel of its own.  It reverses the letters of a tensor on the way into the
hecke kernel, runs the kernel in its scaled-integer form, and keeps the
letter order of its public multi-indices.  W is carried by the
(unnormalised) symmetriser images of the nondecreasing basis tensors.  The
action only rearranges letters, so each basis vector w_a of W lives on the
rearrangements of its own tensor t_a, and w_a tensor w_b is the one basis
vector of W tensor W with a term at
t_a + t_b: the braiding operators on W tensor W are read off at those keys.
They keep the weight (letter multiset) of a basis tensor, so they are sparse:
the R-matrices are assembled only on their joint support, and the matrix
Yang-Baxter equation applies R to W^(tensor 3) one basis vector at a time
through R's sparse columns.  All matrices are numpy object arrays over exact
rationals.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb
from types import MappingProxyType

import numpy as np

from . import linalg
from .errors import DomainError, InternalConsistencyError, ParameterError, ResourceError
from .fused import (
    _ADDITIVE,
    VerifyResult,
    _Baxterisation,
    _multiplicative,
    braiding_word,
)
from .hecke import (
    _accumulate,
    _scaled,
    _scaled_generator,
    _scaled_symmetriser,
    _unscaled,
)
from .qnumbers import as_fraction, format_rational

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


@lru_cache(maxsize=None)
def w_basis(k: int, N: int, q) -> WBasis:
    """The basis of W; raises if a column leaves the rearrangements of its
    own tensor t_a or vanishes there, which would make the columns (whose
    supports are then disjoint) dependent."""
    q = as_fraction(q)
    _check_fusion_args(k, N)
    _check_tensor_dim(N, k)
    if q == 0:
        raise ParameterError("q must be nonzero")
    indices = tuple(itertools.combinations_with_replacement(range(1, N + 1), k))
    columns = tuple(
        _reversed(_unscaled(*_scaled_symmetriser({_flip(t, N): 1}, 1, 1, k, q)), N)
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


@lru_cache(maxsize=None)
def sigma_matrix(k: int, p: int, N: int, q) -> np.ndarray:
    """Matrix of the order-p partial braiding on W tensor W, in the basis
    w_a tensor w_b ordered lexicographically.

    Computed by applying the braiding word and then the symmetrisers to each
    w_a tensor w_b on V^(tensor 2k) (the leading symmetrisers fix it), in
    the scaled-integer form of the hecke kernel, and reading the coordinate
    of w_a' tensor w_b' off the image at t_a' + t_b', for the keys t_a' + t_b'
    that the image holds; raises if the image minus that combination is not
    zero, which no admissible parameter can trigger.
    """
    q = as_fraction(q)
    _check_fusion_args(k, N)
    if not 0 <= p <= k:
        raise DomainError(f"braiding order p={p} out of range 0..{k}")
    _check_tensor_dim(N, 2 * k)
    wb = w_basis(k, N, q)
    # the pair basis and its keys in the kernel's letters
    cols = [_reversed(c, N) for c in wb.columns]
    basis = [
        {kx + ky: vx * vy for kx, vx in x.items() for ky, vy in y.items()}
        for x in cols
        for y in cols
    ]
    tensors = [_flip(t, N) for t in wb.indices]
    index_of = {ta + tb: r for r, (ta, tb) in enumerate(itertools.product(tensors, repeat=2))}
    word = braiding_word(k, k, p)
    mat = np.full((len(basis), len(basis)), Fraction(0), dtype=object)
    for c, vec in enumerate(basis):
        nums, den = _scaled(vec)
        for a in reversed(word):  # the operator sigma_word applies its last letter first
            nums, den = _scaled_generator(nums, den, a, q)
        nums, den = _scaled_symmetriser(nums, den, 1, k, q)
        img = _unscaled(*_scaled_symmetriser(nums, den, k + 1, 2 * k, q))
        for key, r in [(key, index_of[key]) for key in img if key in index_of]:
            w = basis[r]
            mat[r, c] = coord = img[key] / w[key]
            _accumulate(img, ((t, -coord * v) for t, v in w.items()))
        if img:
            raise InternalConsistencyError(
                f"sigma_matrix image leaves W tensor W for k={k}, p={p}, N={N}, q={q}"
            )
    mat.setflags(write=False)
    return mat


@lru_cache(maxsize=None)
def _sigma_entries(k: int, N: int, q) -> tuple:
    """(r, c, (sigma_0[r, c], ..., sigma_k[r, c])) for every entry (r, c),
    in row-major order, at which some sigma_matrix(k, p, N, q) is nonzero."""
    sigmas = [sigma_matrix(k, p, N, q) for p in range(k + 1)]
    rows, cols = np.any([s != 0 for s in sigmas], axis=0).nonzero()
    return tuple(
        (int(r), int(c), tuple(s[r, c] for s in sigmas)) for r, c in zip(rows, cols)
    )


def _R_columns(k: int, N: int, arg, bax: _Baxterisation) -> list:
    """The nonzero entries of sum_p coefficient_p(arg) * sigma_matrix(p) on
    W tensor W, as one list of (row, value) pairs per column."""
    _check_fusion_args(k, N)
    coeffs = bax.coefficients(k, arg)
    cols = [[] for _ in range(comb(k + N - 1, k) ** 2)]
    for r, c, sig in _sigma_entries(k, N, bax.q):
        val = sum(a * s for a, s in zip(coeffs, sig))
        if val:
            cols[c].append((r, val))
    return cols


def _R_matrix(k: int, N: int, arg, bax: _Baxterisation) -> np.ndarray:
    """sum_p coefficient_p(arg) * sigma_matrix(p) on W tensor W, as a dense
    matrix filled at its sparse columns."""
    cols = _R_columns(k, N, arg, bax)
    out = np.full((len(cols), len(cols)), Fraction(0), dtype=object)
    for c, col in enumerate(cols):
        for r, val in col:
            out[r, c] = val
    return out


def fused_R_matrix(k: int, N: int, u, q) -> np.ndarray:
    """The baxterised solution on W tensor W: sum_p a_p(u) sigma_matrix(p)."""
    return _R_matrix(k, N, u, _multiplicative(q))


def classical_fused_R_matrix(k: int, N: int, mu) -> np.ndarray:
    """The additive-parameter solution at q = 1 with the classical
    coefficients over the same partial-braiding matrices."""
    return _R_matrix(k, N, mu, _ADDITIVE)


def _apply_pair(vec: dict, cols: list, inner: int) -> dict:
    """Apply a matrix on W tensor W, given by its sparse columns, to two
    adjacent factors of a sparse vector on W^(tensor 3) keyed by row-major
    index: the first two factors for inner = d (R x I), the last two for
    inner = 1 (I x R)."""
    outer = len(cols) * inner
    out = {}
    for i, v in vec.items():
        high, rest = divmod(i, outer)
        c, low = divmod(rest, inner)
        base = high * outer + low
        _accumulate(out, ((base + r * inner, a * v) for r, a in cols[c]))
    return out


def _verify_matrix_ybe(k: int, N: int, x, y, bax: _Baxterisation) -> VerifyResult:
    """The braided relation on W^(tensor 3) with middle argument
    w = bax.middle(x, y), checked on one basis vector e_j at a time:

        (R(x) x I)(I x R(w))(R(y) x I) = (I x R(y))(R(w) x I)(I x R(x)).

    The diff is the row-major-first differing entry (i, j, lhs, rhs) of the
    two products."""
    _check_fusion_args(k, N)
    d = comb(k + N - 1, k)
    if d**3 > MAX_YBE_DIM:
        raise ResourceError(f"W^(tensor 3) has dimension {d**3} > {MAX_YBE_DIM}")
    r_x, r_w, r_y = (_R_columns(k, N, a, bax) for a in (x, bax.middle(x, y), y))
    diff = None
    for j in range(d**3):
        e = {j: Fraction(1)}
        lhs = _apply_pair(_apply_pair(_apply_pair(e, r_y, d), r_w, 1), r_x, d)
        rhs = _apply_pair(_apply_pair(_apply_pair(e, r_x, 1), r_w, d), r_y, 1)
        if lhs == rhs:
            continue
        i = min(i for i in lhs.keys() | rhs.keys() if lhs.get(i) != rhs.get(i))
        if diff is None or i < diff[0]:
            diff = (i, j, lhs.get(i, Fraction(0)), rhs.get(i, Fraction(0)))
    return VerifyResult(diff is None, diff)


def verify_matrix_ybe(k: int, N: int, u, v, q) -> VerifyResult:
    """Exact check of the braided relation on W^(tensor 3):

        (R(u) x I)(I x R(uv))(R(v) x I) = (I x R(v))(R(uv) x I)(I x R(u)).
    """
    return _verify_matrix_ybe(k, N, as_fraction(u), as_fraction(v), _multiplicative(q))


# -- serialization ---------------------------------------------------------------


def matrix_to_obj(mat: np.ndarray, k: int, N: int, q, u=None) -> dict:
    obj = {
        "k": k,
        "N": N,
        "q": format_rational(as_fraction(q)),
        "dim": int(mat.shape[0]),
        "matrix": [
            [format_rational(Fraction(v)) for v in row] for row in mat
        ],
    }
    if u is not None:
        obj["u"] = format_rational(as_fraction(u))
    return obj


def matrix_from_obj(obj: dict) -> np.ndarray:
    return linalg.fmat([[Fraction(v) for v in row] for row in obj["matrix"]])


def matrix_to_csv(mat: np.ndarray) -> str:
    lines = [",".join(format_rational(Fraction(v)) for v in row) for row in mat]
    return "\n".join(lines) + "\n"
