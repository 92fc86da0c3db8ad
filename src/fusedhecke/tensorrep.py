"""Matrix representations on tensor powers of V and on quantum symmetric
powers W = S_q^k(V).

The Hecke algebra acts on V^(tensor m) through the standard R-matrix at each
pair of adjacent slots; W is carried by the (unnormalised) symmetriser images
of the nondecreasing basis tensors.  That action only rearranges letters, so
each basis vector w_a of W lives on the rearrangements of its own tensor t_a,
and w_a tensor w_b is the one basis vector of W tensor W with a term at
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
from .hecke import HeckeElement, _accumulate, symmetriser_sum
from .permutations import reduced_word
from .qnumbers import as_fraction, format_rational

MAX_TENSOR_DIM = 6561
MAX_YBE_DIM = 4096


# -- sparse vectors on V^(tensor m) -------------------------------------------

# a vector is a dict {multi-index tuple: Fraction}; letters run 1..N


def _apply_gen(vec: dict, pos: int, q) -> dict:
    """Apply the standard R-matrix at tensor slots (pos, pos+1): e_a e_b goes
    to q e_a e_b if a = b, else to e_b e_a, plus (q - 1/q) e_a e_b if a < b."""
    p0 = pos - 1
    # swapping the two slots is a bijection of the support, so the first
    # pass has no collisions
    out = {
        idx[:p0] + (idx[p0 + 1], idx[p0]) + idx[p0 + 2 :]: (
            q * c if idx[p0] == idx[p0 + 1] else c
        )
        for idx, c in vec.items()
    }
    lam = q - 1 / q
    if lam:
        _accumulate(
            out, ((idx, lam * c) for idx, c in vec.items() if idx[p0] < idx[p0 + 1])
        )
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
    mat = linalg.zeros(N * N, N * N)
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
    mat = linalg.zeros(dim, dim)
    for c, idx in enumerate(idxs):
        img = _apply_element({idx: Fraction(1)}, x)
        for key, val in img.items():
            mat[index_of[key], c] = val
    return mat


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
    indices = tuple(
        t for t in _multi_indices(N, k) if all(t[a] <= t[a + 1] for a in range(k - 1))
    )
    sym = symmetriser_sum(1, k, k, q)
    columns = tuple(_apply_element({t: Fraction(1)}, sym) for t in indices)
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
    w_a tensor w_b on V^(tensor 2k) (the leading symmetrisers fix it) and
    reading the coordinate of w_a' tensor w_b' off the image at t_a' + t_b';
    raises if the image minus that combination is not zero, which no
    admissible parameter can trigger.
    """
    q = as_fraction(q)
    _check_fusion_args(k, N)
    if not 0 <= p <= k:
        raise DomainError(f"braiding order p={p} out of range 0..{k}")
    _check_tensor_dim(N, 2 * k)
    wb = w_basis(k, N, q)
    keys = [ta + tb for ta in wb.indices for tb in wb.indices]
    basis = [
        {kx + ky: vx * vy for kx, vx in x.items() for ky, vy in y.items()}
        for x in wb.columns
        for y in wb.columns
    ]
    word = braiding_word(k, k, p)
    sym1 = symmetriser_sum(1, k, 2 * k, q)
    sym2 = symmetriser_sum(k + 1, 2 * k, 2 * k, q)
    mat = linalg.zeros(len(basis), len(basis))
    for c, vec in enumerate(basis):
        img = _apply_element(_apply_element(_apply_word(vec, word, q), sym1), sym2)
        for r, (key, w) in enumerate(zip(keys, basis)):
            mat[r, c] = coord = img.get(key, Fraction(0)) / w[key]
            if coord:
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
