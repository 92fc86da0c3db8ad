"""The fused Hecke algebra H_{k,n}(q), realised as the corner algebra
P^(k) H_{nk}(q) P^(k) cut out by products of block q-symmetrisers.

Provides the block projectors, the partial elementary braidings, the
baxterised R-elements in both expanded and factorised form (including the
mixed (k, l) versions and the classical q = 1 degeneration), and exact
verifiers for the braided Yang-Baxter equations and the other structural
identities.  Everything is computed over exact rationals; verifiers return
a result that is truthy on success and carries the first differing basis
element on failure.

Every chain of right multiplications that starts at a projector P lives in
the module P*H_m, and runs there on hecke's scaled-integer vectors keyed by
the ranks of block words in hecke's word index: it starts at the sorted
word of P's blocks with numerator 1 over 1, and a vector has at most
m!/(k!)^n terms, for n blocks of k strands, instead of up to m!.  Equality
in P*H_m is equality in H_m, so verdicts compare words.  Public elements
are expanded to the standard basis only on the way out: the word beta with
coefficient c becomes sum_b P_b c sigma_{b o d_beta}, where d_beta numbers
the strands of each block from left to right, on integer numerators.  P
is itself made by symmetriser passes from the identity.  Only the Diff of
_word_verdict turns numerators into Fractions, and only the
method="direct" oracle of the Yang-Baxter verifiers multiplies elements in
the standard basis.
"""

from __future__ import annotations

import math
import operator
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import repeat
from types import MappingProxyType
from typing import Callable, NamedTuple

from .errors import DomainError, InternalConsistencyError, ParameterError, PoleError
from .hecke import (
    HeckeElement,
    _check_interval,
    _check_strands,
    _coprime_factors,
    _element,
    _frozen,
    _INDEX,
    _r_check_constant,
    _scaled,
    _scaled_affine,
    _scaled_sum,
    _scaled_symmetriser,
    _unranked,
    _unscaled,
    element_to_obj,
    multiply,
)
from .permutations import identity
from .qnumbers import as_fraction, brace_int, format_rational, q_int


@dataclass(frozen=True)
class FusedContext:
    """Fusion data: k strands per ellipse, n ellipses, the rational q; the
    ambient algebra is H_{nk}.  Mixed block sizes have their own functions
    (projector_mixed, partial_braiding_mixed, verify_mixed_ybe)."""

    k: int
    n: int
    q: Fraction

    def __post_init__(self):
        object.__setattr__(self, "q", as_fraction(self.q))
        if self.k < 1 or self.n < 1:
            raise ParameterError("k and n must be positive")
        if self.q == 0:
            raise ParameterError("q must be nonzero")
        for l in range(2, self.k + 1):
            if brace_int(l, self.q) == 0:
                raise ParameterError("degenerate q for this fusion level")

    @property
    def strands(self) -> int:
        return self.n * self.k

    def blocks(self):
        """The symmetrised intervals [(lo, hi), ...] of the projector."""
        return [(b * self.k + 1, (b + 1) * self.k) for b in range(self.n)]


class Diff(NamedTuple):
    perm: tuple
    left: Fraction
    right: Fraction


class VerifyResult(NamedTuple):
    ok: bool
    diff: Diff | None

    def __bool__(self):
        return self.ok


def element_diff(a: HeckeElement, b: HeckeElement) -> Diff | None:
    """First (lexicographically) differing basis coefficient, if any; raises
    DomainError for elements of different algebras."""
    a._compat(b)
    if a == b:
        return None
    # canonical forms: elements that differ differ at some key
    (na, da), (nb, db) = (a.nums, a.den), (b.nums, b.den)
    w = min(w for w in na.keys() | nb.keys() if na.get(w, 0) * db != nb.get(w, 0) * da)
    return Diff(w, a.coefficient(w), b.coefficient(w))


def _verdict(a: HeckeElement, b: HeckeElement) -> VerifyResult:
    d = element_diff(a, b)
    return VerifyResult(d is None, d)


# -- projectors ---------------------------------------------------------------


@lru_cache(maxsize=None)
def _blocks_product(m: int, q: Fraction, intervals: tuple) -> HeckeElement:
    """The product of the q-symmetrisers on pairwise disjoint intervals of
    strands, one symmetriser pass each from the identity; cached, read-only."""
    x = _start(m, q, ())
    for (lo, hi) in intervals:
        _check_interval(lo, hi, m)
        x = _scaled_symmetriser(*x, lo, hi, q)
    return _frozen(_element(m, q, _unranked(x[0]), x[1]))


@lru_cache(maxsize=None)
def projector_P(ctx: FusedContext) -> HeckeElement:
    """The idempotent P = S_[1,k] S_[k+1,2k] ... on the context's strands."""
    return _blocks_product(ctx.strands, ctx.q, tuple(ctx.blocks()))


def projector_mixed(k: int, ell: int, q):
    """The ordered pair (P^(k,ell), P^(ell,k)) inside H_{k+ell}(q)."""
    q, m = as_fraction(q), k + ell
    return tuple(_blocks_product(m, q, ((1, a), (a + 1, m))) for a in (k, ell))


# -- scaled vectors of P*H_m in block-word coordinates -----------------------------


def _start(m: int, q, intervals) -> tuple:
    """P = prod of the symmetrisers on the intervals, as a scaled vector: the
    rank of its sorted word, each strand of [lo, hi] carrying the letter lo
    and every other strand its own position, with numerator 1 over 1.
    Every chain in word coordinates starts here, so this is where the
    strand bound and q are checked."""
    _check_strands(m)
    if q == 0:
        raise ParameterError("q must be nonzero")
    word = list(range(1, m + 1))
    for (lo, hi) in intervals:
        word[lo - 1 : hi] = [lo] * (hi - lo + 1)
    return _scaled({tuple(word): 1})


def _distinguished(word) -> tuple:
    """d_beta: the strands of each block numbered from left to right, the
    shortest and lexicographically least permutation with this word."""
    seen = Counter()
    d = []
    for a in word:
        d.append(a + seen[a])
        seen[a] += 1
    return tuple(d)


def _left_projector(word, m: int, q) -> HeckeElement:
    """The P that the word is taken over: the letter lo occurs once for
    each strand of its block [lo, hi]."""
    counts = Counter(word)
    intervals = tuple((lo, lo + c - 1) for lo, c in sorted(counts.items()) if c > 1)
    return _blocks_product(m, q, intervals)


def _expand(x: tuple, m: int, q) -> HeckeElement:
    """The standard-basis form of the scaled vector x of P*H_m in H_m(q):
    the word beta with coefficient c becomes sum_b P_b c sigma_{b o d_beta},
    and no two of these keys collide.  P_b depends on the length of b only,
    so the products P_b c are taken once per value of P_b, and b o d_beta is
    read off b by one itemgetter per word.  That returns a tuple only for
    m >= 2 indices, which every caller has: a partial braiding or an
    R-element spans two blocks of at least one strand.  The numerators are
    products of a word's numerator and a numerator of P, so their common
    factor with the denominator is read off these factors alone."""
    nums, den = x
    words = _INDEX.words
    p = _left_projector(words[next(iter(nums))] if nums else (), m, q)
    by_value: dict = {}
    for b, pb in p.nums.items():
        by_value.setdefault(pb, []).append(b)
    gx, gp, den = _coprime_factors(nums.values(), by_value, den * p.den)
    by_value = [(pb // gp, bs) for pb, bs in by_value.items()]
    out = {}
    for r, n in nums.items():
        at = operator.itemgetter(*(t - 1 for t in _distinguished(words[r])))
        n //= gx
        for pb, bs in by_value:
            out.update(zip(map(at, bs), repeat(pb * n)))
    return _element(m, q, out, den, reduced=True)


def _word_verdict(a: tuple, b: tuple, m: int, q) -> VerifyResult:
    """a == b for two scaled vectors of one P*H_m in H_m(q), with the Diff
    that element_diff gives on their expansions: the lexicographically
    first differing permutation is the least d_beta over the differing
    words beta, with the coefficients c_beta P_id."""
    (na, da), (nb, db) = a, b
    if all(na.get(r, 0) * db == nb.get(r, 0) * da for r in na.keys() | nb.keys()):
        return VerifyResult(True, None)
    fa, fb = _unscaled(na, da), _unscaled(nb, db)
    d, word = min(
        (_distinguished(w), w) for w in fa.keys() | fb.keys() if fa.get(w, 0) != fb.get(w, 0)
    )
    p_id = _left_projector(next(iter(fa or fb)), m, q).coefficient(identity(m))
    return VerifyResult(False, Diff(d, fa.get(word, 0) * p_id, fb.get(word, 0) * p_id))


def _projector_idempotent(ctx: FusedContext) -> bool:
    """P * P == P, taken in P*H_m: the block symmetrisers applied to P's
    word give it back with coefficient 1."""
    p = x = _start(ctx.strands, ctx.q, ctx.blocks())
    for (lo, hi) in ctx.blocks():
        x = _scaled_symmetriser(*x, lo, hi, ctx.q)
    return _word_verdict(x, p, ctx.strands, ctx.q).ok


# -- partial elementary braidings ---------------------------------------------


def braiding_word(k: int, ell: int, p: int) -> tuple[int, ...]:
    """Generator word of the (k, ell; p) partial braiding, left to right:

        (s_k ... s_{ell+p-1}) (s_{k-1} ... s_{ell+p-2}) ... (s_{k-p+1} ... s_ell)

    each group a consecutive run; empty for p = 0.
    """
    word = []
    for t in range(p):
        word.extend(range(k - t, ell + p - t))
    return tuple(word)


def _braid_right(x: tuple, k: int, ell: int, offset: int, p: int, q: Fraction,
                 c: Fraction = 0) -> tuple:
    """The scaled vector x * (the (k, ell; p) braiding word at the strand
    offset, each letter a taken as sigma_a + c) * P^(ell,k) on the two blocks
    there.  For x = x P^(k,ell) on those blocks and c = 0 this is x times the
    partial braiding; c = -(q - 1/q) takes the under-crossings
    sigma_a^-1 instead.  Blocks the word does not touch stay projected."""
    for a in braiding_word(k, ell, p):
        x = _scaled_affine(*x, offset + a, c, q)
    x = _scaled_symmetriser(*x, offset + 1, offset + ell, q)
    return _scaled_symmetriser(*x, offset + ell + 1, offset + k + ell, q)


@lru_cache(maxsize=None)
def _partial_braiding_words(ctx: FusedContext, i: int, p: int) -> tuple:
    """partial_braiding as a scaled vector, its numerator map read-only."""
    if not 0 <= p <= ctx.k:
        raise DomainError(f"braiding order p={p} out of range 0..{ctx.k}")
    if not 1 <= i <= ctx.n - 1:
        raise DomainError(f"ellipse index i={i} out of range 1..{ctx.n - 1}")
    x = _start(ctx.strands, ctx.q, ctx.blocks())
    nums, den = _braid_right(x, ctx.k, ctx.k, (i - 1) * ctx.k, p, ctx.q)
    return MappingProxyType(nums), den


@lru_cache(maxsize=None)
def partial_braiding(ctx: FusedContext, i: int, p: int) -> HeckeElement:
    """The partial elementary braiding at ellipse position i: the p rightmost
    strands of ellipse i cross over the p leftmost strands of ellipse i+1,
    sandwiched between the projector on both sides.  p = 0 gives P itself.
    """
    return _frozen(_expand(_partial_braiding_words(ctx, i, p), ctx.strands, ctx.q))


@lru_cache(maxsize=None)
def partial_braiding_mixed(k: int, ell: int, p: int, q) -> HeckeElement:
    """The mixed partial braiding P^(k,ell) (word) P^(ell,k) in H_{k+ell};
    for ell = k it is the two-ellipse partial_braiding."""
    q = as_fraction(q)
    if ell < k:
        raise DomainError("mixed braidings need ell >= k")
    if ell == k:
        return partial_braiding(FusedContext(k, 2, q), 1, p)
    if not 0 <= p <= k:
        raise DomainError(f"braiding order p={p} out of range 0..{k}")
    x = _start(k + ell, q, [(1, k), (k + 1, k + ell)])
    return _frozen(_expand(_braid_right(x, k, ell, 0, p, q), k + ell, q))


# -- baxterisation coefficients ------------------------------------------------


@dataclass(frozen=True)
class BaxterCoefficients:
    """The k+1 expansion coefficients of the baxterised R-element over the
    partial braidings, index p = 0..k; the top coefficient is always 1."""

    k: int
    ell: int
    u: Fraction
    q: Fraction
    values: tuple


def baxter_coefficients(k: int, ell: int, u, q) -> BaxterCoefficients:
    """Coefficients a_p(u) = (-q)^(k-p) (q^-2; q^-2)_{k-p} / (u q^-2p; q^-2)_{k-p}
    * [k, p]_q [ell, k-p]_q for p = 0..k (requires k <= ell).

    The q-factorials [0]_q! .. [ell]_q!, the (q^-2; q^-2)_j and the factors
    1 - u q^(-2s) are each formed once, and the q-binomials and the
    denominators are read off them.

    >>> baxter_coefficients(1, 1, Fraction(3, 5), 2).values
    (Fraction(-15, 4), Fraction(1, 1))
    """
    q = as_fraction(q)
    u = as_fraction(u)
    if q == 0:
        raise ParameterError("q must be nonzero")
    if ell < k:
        raise DomainError("coefficients need k <= ell")
    qi2 = q**-2
    # (u q^-2p; q^-2)_{k-p} is the product of the factors s = p..k-1, so a
    # pole is reported at a_0, whose denominator holds every factor
    factors = [1 - u * qi2**s for s in range(k)]
    if 0 in factors:
        raise PoleError(f"coefficient a_0: factor (1 - u q^(-2*{factors.index(0)})) vanishes")
    fac, poch, denom = [Fraction(1)], [Fraction(1)], [Fraction(1)]
    for r in range(1, ell + 1):
        fac.append(fac[-1] * q_int(r, q))
    for j in range(1, k + 1):
        poch.append(poch[-1] * (1 - qi2**j))
        denom.append(denom[-1] * factors[k - j])
    values = tuple(
        (-q) ** (k - p)
        * poch[k - p]
        / denom[k - p]
        * (fac[k] / (fac[k - p] * fac[p]))
        * (fac[ell] / (fac[ell - k + p] * fac[k - p]))
        for p in range(k + 1)
    )
    return BaxterCoefficients(k, ell, u, q, values)


def classical_coefficients(k: int, mu) -> tuple:
    """q = 1 degeneration: c_p = C(k,p)^2 (k-p)! / ((mu-p)(mu-p-1)...(mu-k+1)),
    defined for mu outside {0, 1, ..., k-1}."""
    mu = as_fraction(mu)
    values = []
    for p in range(k + 1):
        denom = Fraction(1)
        for j in range(p, k):
            if mu == j:
                raise ParameterError(f"classical coefficient pole at mu = {j}")
            denom *= mu - j
        values.append(
            Fraction(math.comb(k, p) ** 2 * math.factorial(k - p)) / denom
        )
    return tuple(values)


class _Baxterisation(NamedTuple):
    """What the multiplicative (q, u) Baxterisation and its additive q = 1
    limit differ in: the expansion coefficients of R(arg) over the partial
    braidings, the constant c(arg, s) of the grid factor sigma_j + c at
    shift s, and the argument of the middle factor of the braided relation.

    The coefficient functions look the module's coefficient functions up at
    call time, so that a replacement of the module attribute applies.
    """

    q: Fraction
    coefficients: Callable[[int, Fraction], tuple]
    constant: Callable[[Fraction, int], Fraction]
    middle: Callable[[Fraction, Fraction], Fraction]


def _grid_constant(u: Fraction, s: int, q: Fraction) -> Fraction:
    """c(u, s) = -(q - 1/q)/(1 - u q^(2s)); a pole names u and s."""
    arg = u * q ** (2 * s)
    if arg == 1:
        raise PoleError(
            f"grid factor has a pole at spectral argument {format_rational(u)}, "
            f"shift s = {s} (argument * q^(2s) = 1)"
        )
    return _r_check_constant(arg, q)


def _multiplicative(q) -> _Baxterisation:
    q = as_fraction(q)
    return _Baxterisation(
        q,
        lambda k, u: baxter_coefficients(k, k, u, q).values,
        lambda u, s: _grid_constant(u, s, q),
        operator.mul,
    )


def _additive_constant(mu: Fraction, s: int) -> Fraction:
    if mu + s == 0:
        raise PoleError(f"classical grid factor has a pole: mu + {s} = 0")
    return 1 / (mu + s)


_ADDITIVE = _Baxterisation(
    Fraction(1),
    lambda k, mu: classical_coefficients(k, mu),
    _additive_constant,
    operator.add,
)


# -- baxterised R-elements ------------------------------------------------------


def _expansion(ctx: FusedContext, i: int, coefficients) -> HeckeElement:
    """sum_p coefficients[p] * (partial braiding p) at ellipse i, as an
    element of H_{nk}."""
    x = _scaled_sum(
        (a, _partial_braiding_words(ctx, i, p)) for p, a in enumerate(coefficients)
    )
    return _expand(x, ctx.strands, ctx.q)


def baxter_R_expansion(ctx: FusedContext, i: int, u) -> HeckeElement:
    """The baxterised element at ellipse i: sum_p a_p(u) * (partial braiding p)."""
    return _expansion(ctx, i, baxter_coefficients(ctx.k, ctx.k, u, ctx.q).values)


def _mul_grid_right(x: tuple, k: int, ell: int, arg, offset: int,
                    bax: _Baxterisation) -> tuple:
    """Right-multiply by the k x ell grid of baxterised generators

        prod_{a=k..1} prod_{t=0..ell-1} (sigma_{offset+a+t} + c(arg, t+1-a)),

    the outer factors ordered right to left as the row index a increases;
    c(u, s) = -(q - 1/q)/(1 - u q^{2s}), or 1/(mu + s) at q = 1; then by
    P^(ell,k) on the two blocks at the offset.  For x = x P^(k,ell) there
    this is x * R^(k,ell)(arg) in its factorised form, on scaled vectors.
    """
    q = bax.q
    for a in range(k, 0, -1):
        for t in range(ell):
            x = _scaled_affine(*x, offset + a + t, bax.constant(arg, t + 1 - a), q)
    x = _scaled_symmetriser(*x, offset + 1, offset + ell, q)
    return _scaled_symmetriser(*x, offset + ell + 1, offset + k + ell, q)


def _factorised(k: int, ell: int, arg, bax: _Baxterisation) -> tuple:
    """P^(k,ell) * (grid of k*ell baxterised generators) * P^(ell,k), as a
    scaled vector."""
    x = _start(k + ell, bax.q, [(1, k), (k + 1, k + ell)])
    return _mul_grid_right(x, k, ell, arg, 0, bax)


def baxter_R_factorized(k: int, ell: int, u, q) -> HeckeElement:
    """The fused product P^(k,ell) * (grid of kl baxterised generators) *
    P^(ell,k) in H_{k+ell}(q)."""
    bax = _multiplicative(q)
    return _expand(_factorised(k, ell, as_fraction(u), bax), k + ell, bax.q)


# -- Yang-Baxter verification ----------------------------------------------------


def _verify_ybe(ctx: FusedContext, u, v, i: int, method: str, bax: _Baxterisation):
    """R_i(u) R_{i+1}(w) R_i(v) = R_{i+1}(v) R_i(w) R_{i+1}(u) with the
    middle argument w = bax.middle(u, v); see verify_braided_ybe."""
    if method not in ("auto", "direct", "fast"):
        raise ParameterError(f"unknown method {method!r}: use 'auto', 'direct' or 'fast'")
    u, v = as_fraction(u), as_fraction(v)
    if not 1 <= i <= ctx.n - 2:
        raise DomainError("need 1 <= i <= n-2 for the braided relation")
    # the relation lives in H_{nk}: bound that, not the first chain's H_{2k}
    _check_strands(ctx.strands)
    w = bax.middle(u, v)
    # a coefficient pole is a pole of R itself: report it before any product,
    # and compute each argument's coefficients once
    coefficients = {arg: bax.coefficients(ctx.k, arg) for arg in (u, w, v)}
    if method == "direct":
        r = lambda j, arg: _expansion(ctx, j, coefficients[arg])
        lhs = multiply(multiply(r(i, u), r(i + 1, w)), r(i, v))
        rhs = multiply(multiply(r(i + 1, v), r(i, w)), r(i + 1, u))
        return _verdict(lhs, rhs)
    if not _projector_idempotent(ctx):
        raise InternalConsistencyError(f"projector not idempotent for {ctx}")
    k = ctx.k

    # x * R_j(arg) = sum_p a_p(arg) x (braiding word p) P for x = x P
    def times_R(x, j, arg):
        return _scaled_sum(
            (a, _braid_right(x, k, k, (j - 1) * k, p, ctx.q))
            for p, a in enumerate(coefficients[arg])
        )

    start = _start(ctx.strands, ctx.q, ctx.blocks())
    lhs = times_R(times_R(times_R(start, i, u), i + 1, w), i, v)
    rhs = times_R(times_R(times_R(start, i + 1, v), i, w), i + 1, u)
    return _word_verdict(lhs, rhs, ctx.strands, ctx.q)


def verify_braided_ybe(ctx: FusedContext, u, v, i: int = 1, method: str = "auto"):
    """Exact check of R_i(u) R_{i+1}(uv) R_i(v) = R_{i+1}(v) R_i(uv) R_{i+1}(u)
    for the baxterised elements in the context's algebra.

    Both methods multiply the expansions R_j(arg) = sum_p a_p(arg) (partial
    braiding p at ellipse j).  Method "fast" (also what "auto" means, at
    every size) runs each side in block-word coordinates from the projector
    P, one braiding word and one projector pass on the two touched blocks
    per term, and compares the words; "direct" multiplies the three
    expanded elements in the standard basis of H_{nk}, an independent
    oracle for "fast".  Both decide the same identity and report the same
    Diff.  The strand count nk is checked against the bound before any
    chain starts, and a pole of a coefficient a_p is reported before any
    product is taken.  The factorised grid form of R is not used, so its
    poles that the projectors cancel (u, v or uv = q^(-2s), 0 < s < k) are
    ordinary points.
    """
    return _verify_ybe(ctx, u, v, i, method, _multiplicative(ctx.q))


def verify_mixed_ybe(k: int, l: int, m: int, u, v, q) -> VerifyResult:
    """Exact check of the mixed braided relation in H_{k+l+m}(q):

        R^(k,l)(u) R^(k,m)_[l+1..](uv) R^(l,m)(v)
            = R^(l,m)_[k+1..](v) R^(k,m)(uv) R^(k,l)_[m+1..](u),

    each R^(a,b) the factorised P^(a,b) (grid) P^(b,a), the only form
    defined for any order of the block sizes.  Both sides run in block-word
    coordinates from the projector on blocks of k, l and m strands, which
    already holds the leading P^(a,b) of every factor, and both end over the
    projector on blocks of m, l and k strands, so their words are compared.
    """
    if min(k, l, m) < 1:
        raise ParameterError(f"mixed blocks need sizes of at least 1, got k={k}, l={l}, m={m}")
    q, u, v = as_fraction(q), as_fraction(u), as_fraction(v)
    n = k + l + m
    start = _start(n, q, [(1, k), (k + 1, k + l), (k + l + 1, n)])  # strand bound and q first
    bax = _multiplicative(q)
    # every grid constant first, so that a pole names its argument; the
    # a x b grid takes the shifts 1 - a .. b - 1
    for name, arg, a, b in (("u", u, k, l), ("uv", u * v, k, m), ("v", v, l, m)):
        for s in range(1 - a, b):
            try:
                bax.constant(arg, s)
            except PoleError as err:
                raise PoleError(f"R^({a},{b})({name}): {err}") from None
    times_R = lambda x, a, b, arg, offset: _mul_grid_right(x, a, b, arg, offset, bax)
    lhs = times_R(times_R(times_R(start, k, l, u, 0), k, m, u * v, l), l, m, v, 0)
    rhs = times_R(times_R(times_R(start, l, m, v, k), k, m, u * v, 0), k, l, u, m)
    return _word_verdict(lhs, rhs, n, q)


def verify_commPR(k: int, ell: int, u, q) -> VerifyResult:
    """Exact check of G P^(ell,k) = P^(k,ell) G P^(ell,k), G the k x ell
    grid of baxter_R_factorized at u: the fused product needs its right
    projector only.  The sides run from the identity and from P^(k,ell),
    and are compared expanded.  At k = ell = 1 both projectors are the unit,
    so the check holds for any G."""
    bax = _multiplicative(q)
    q, m, u = bax.q, k + ell, as_fraction(u)
    one = _start(m, q, ())  # strand bound and q first
    _check_interval(1, k, m)  # then the blocks of P^(k,ell)
    _check_interval(k + 1, m, m)
    lhs = _mul_grid_right(one, k, ell, u, 0, bax)
    return _verdict(_expand(lhs, m, q), _expand(_factorised(k, ell, u, bax), m, q))


# -- minimal polynomial -----------------------------------------------------------


def minimal_polynomial_check(ctx: FusedContext, check_minimality: bool = True) -> bool:
    """True iff prod_{l=0..k} (full braiding - (-1)^(k+l) q^(-k+l(l+1)) P) = 0,
    and (for k <= 3 when requested) no drop-one subproduct already vanishes.
    """
    if ctx.n < 2:
        raise DomainError("full braidings need n >= 2")
    k, q = ctx.k, ctx.q
    if not _projector_idempotent(ctx):
        return False
    powers = [_start(ctx.strands, q, ctx.blocks())]
    for _ in range(k + 1):
        powers.append(_braid_right(powers[-1], k, k, 0, k, q))
    eigen = [(-1) ** (k + l) * q ** (-k + l * (l + 1)) for l in range(k + 1)]

    def vanishes(values) -> bool:
        # expand prod (Sigma - c P) over elementary symmetric polynomials
        esym = [Fraction(1)]
        for c in values:
            new = esym + [Fraction(0)]
            for t in range(len(esym)):
                new[t + 1] += c * esym[t]
            esym = new
        d = len(values)
        nums, _ = _scaled_sum(((-1) ** (d - j) * esym[d - j], powers[j]) for j in range(d + 1))
        return not nums

    if not vanishes(eigen):
        return False
    if check_minimality and k <= 3:
        for drop in range(k + 1):
            if vanishes(eigen[:drop] + eigen[drop + 1 :]):
                return False
    return True


# -- classical (q = 1) degeneration -------------------------------------------------


def classical_baxter_R(k: int, n: int, i: int, mu) -> HeckeElement:
    """The additive-parameter solution in the q = 1 fused algebra:
    sum_p c_p(mu) * (partial braiding p) with the classical coefficients."""
    ctx = FusedContext(k, n, Fraction(1))
    return _expansion(ctx, i, classical_coefficients(k, mu))


def classical_baxter_R_factorized(k: int, mu) -> HeckeElement:
    """Fused product form at q = 1 in H_{2k}(1): projector, grid of Yang
    factors (sigma_a + 1/(mu + shift)), projector."""
    return _expand(_factorised(k, k, as_fraction(mu), _ADDITIVE), 2 * k, _ADDITIVE.q)


def verify_classical_ybe(k: int, n: int, mu, nu, i: int = 1, method: str = "auto"):
    """Exact check of the additive braided relation at q = 1:

        R_i(mu) R_{i+1}(mu+nu) R_i(nu) = R_{i+1}(nu) R_i(mu+nu) R_{i+1}(mu).

    The methods are those of verify_braided_ybe: "auto" is "fast", the word
    chain over the expansions, and "direct" their standard-basis product.
    """
    return _verify_ybe(FusedContext(k, n, Fraction(1)), mu, nu, i, method, _ADDITIVE)


# -- the two-ellipse worked product --------------------------------------------------


class ExampleCheck(NamedTuple):
    ok: bool
    interpretation: str | None

    def __bool__(self):
        return self.ok


def fused_product_example_check(q) -> ExampleCheck:
    """Check the two-ellipse worked product: the square of the single partial
    crossing in H_{2,2}(q) against the combination

        1/(1+q^2)^2 * (1 + (q - 1/q + 2 q^3) X + q^2 X2),

    where X, X2 are the partial and full crossings, with the coefficients
    of reference_data.reference_h22_product_coefficients.  The crossing sign is
    only determined pictorially, so both the all-over and all-under readings
    are tried; returns which one matches (exactly one should).
    """
    # imported here, so that importing the package does not load the tables
    from .reference_data import reference_h22_product_coefficients

    q = as_fraction(q)
    ctx = FusedContext(2, 2, q)
    lam = q - 1 / q
    start = _start(4, q, ctx.blocks())
    matches = []
    for sign, c in (("over", 0), ("under", -lam)):
        x1, x2 = (_braid_right(start, 2, 2, 0, p, q, c) for p in (1, 2))
        # x1 = x1 P, so x1 * x1 is x1 times the crossing and P
        square = _braid_right(x1, 2, 2, 0, 1, q, c)
        rhs = _scaled_sum(zip(reference_h22_product_coefficients(q), (start, x1, x2)))
        if _word_verdict(square, rhs, 4, q).ok:
            matches.append(sign)
    if len(matches) == 1:
        return ExampleCheck(True, matches[0])
    if len(matches) == 2 and lam == 0:
        # q**2 == 1: the crossing signs are indistinguishable
        return ExampleCheck(True, "degenerate")
    return ExampleCheck(False, None)


# -- serialization --------------------------------------------------------------------


def fused_element_to_obj(x: HeckeElement, k: int, n: int) -> dict:
    obj = {"k": k, "n": n, "kind": "fused"}
    obj.update(element_to_obj(x))
    return obj
