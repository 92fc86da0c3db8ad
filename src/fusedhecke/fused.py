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
the module P*H_m, and runs there in block-word coordinates (see hecke): it
starts at the sorted word of P's blocks with coefficient 1, and a vector
has at most m!/(k!)^n terms, for n blocks of k strands, instead of up to m!.  Equality in P*H_m
is equality in H_m, so verdicts compare words.  Public elements are
expanded to the standard basis only on the way out: the word beta with
coefficient c becomes sum_b P_b c sigma_{b o d_beta}, where d_beta numbers
the strands of each block from left to right.
"""

from __future__ import annotations

import math
import operator
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable, NamedTuple

from .errors import DomainError, InternalConsistencyError, ParameterError, PoleError
from .hecke import (
    HeckeElement,
    _accumulate,
    _frozen,
    _mul_affine_right,
    _raw,
    _r_check_constant,
    element_to_obj,
    mul_r_check_right,
    mul_symmetriser_right,
    multiply,
    right_mul_generator,
    symmetriser_sum,
    zero,
)
from .permutations import identity
from .qnumbers import as_fraction, brace_int, q_binomial, q_pochhammer


@dataclass(frozen=True)
class FusedContext:
    """Fusion data: k strands per ellipse, n ellipses, the rational q.

    For the mixed two-block setting set ell > k (then n must be 2 and the
    ambient algebra is H_{k+ell}); otherwise ell defaults to k and the
    ambient algebra is H_{nk}.
    """

    k: int
    n: int
    q: Fraction
    ell: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "q", as_fraction(self.q))
        ell = self.k if self.ell is None else self.ell
        object.__setattr__(self, "ell", ell)
        if self.k < 1 or self.n < 1:
            raise ParameterError("k and n must be positive")
        if ell < self.k:
            raise ParameterError("ell must be at least k")
        if ell != self.k and self.n != 2:
            raise ParameterError("mixed blocks require n = 2")
        if self.q == 0:
            raise ParameterError("q must be nonzero")
        for l in range(2, max(self.k, ell) + 1):
            if brace_int(l, self.q) == 0:
                raise ParameterError("degenerate q for this fusion level")

    @property
    def strands(self) -> int:
        return self.n * self.k if self.ell == self.k else self.k + self.ell

    def blocks(self):
        """The symmetrised intervals [(lo, hi), ...] of the projector."""
        if self.ell == self.k:
            k = self.k
            return [(b * k + 1, b * k + k) for b in range(self.n)]
        return [(1, self.k), (self.k + 1, self.k + self.ell)]


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
    """First (lexicographically) differing basis coefficient, if any."""
    if a == b:
        return None
    for w in sorted(set(a.terms) | set(b.terms)):
        ca, cb = a.coefficient(w), b.coefficient(w)
        if ca != cb:
            return Diff(w, ca, cb)
    return None


def _verdict(a: HeckeElement, b: HeckeElement) -> VerifyResult:
    d = element_diff(a, b)
    return VerifyResult(d is None, d)


# -- projectors ---------------------------------------------------------------


def _blocks_product(m: int, q, intervals) -> HeckeElement:
    """Product of q-symmetrisers on pairwise disjoint intervals of strands.

    Disjoint supports commute, so the terms are direct overlays of the
    block terms.
    """
    base = list(identity(m))
    terms = {tuple(base): Fraction(1)}
    for (lo, hi) in intervals:
        s = symmetriser_sum(lo, hi, m, q)
        new = {}
        for w, c in terms.items():
            for wb, cb in s.terms.items():
                lst = list(w)
                lst[lo - 1 : hi] = wb[lo - 1 : hi]
                new[tuple(lst)] = c * cb
        terms = new
    return HeckeElement(m, q, terms)


@lru_cache(maxsize=None)
def projector_P(ctx: FusedContext) -> HeckeElement:
    """The idempotent P = S_[1,k] S_[k+1,2k] ... on the context's strands."""
    return _frozen(_blocks_product(ctx.strands, ctx.q, ctx.blocks()))


def projector_mixed(k: int, ell: int, q):
    """The ordered pair (P^(k,ell), P^(ell,k)) inside H_{k+ell}(q)."""
    q = as_fraction(q)
    m = k + ell
    p_kl = _blocks_product(m, q, [(1, k), (k + 1, m)])
    p_lk = _blocks_product(m, q, [(1, ell), (ell + 1, m)])
    return p_kl, p_lk


def _mul_projector_right(x: HeckeElement, intervals) -> HeckeElement:
    for (lo, hi) in intervals:
        x = mul_symmetriser_right(x, lo, hi)
    return x


# -- block-word coordinates in P*H_m -------------------------------------------


def _start(m: int, q, intervals) -> HeckeElement:
    """P = prod of the symmetrisers on the intervals, in word coordinates:
    its sorted word, each strand of [lo, hi] carrying the letter lo and every
    other strand its own position, with coefficient 1."""
    word = list(range(1, m + 1))
    for (lo, hi) in intervals:
        word[lo - 1 : hi] = [lo] * (hi - lo + 1)
    return _raw(m, q, {tuple(word): Fraction(1)})


def _distinguished(word) -> tuple:
    """d_beta: the strands of each block numbered from left to right, the
    shortest and lexicographically least permutation with this word."""
    seen = Counter()
    d = []
    for a in word:
        d.append(a + seen[a])
        seen[a] += 1
    return tuple(d)


def _left_projector(x: HeckeElement) -> HeckeElement:
    """The P that the words of x are taken over: the letter lo occurs once
    for each strand of its block [lo, hi]."""
    counts = Counter(next(iter(x.terms), ()))
    intervals = [(lo, lo + c - 1) for lo, c in sorted(counts.items()) if c > 1]
    return _blocks_product(x.m, x.q, intervals)


def _expand(x: HeckeElement) -> HeckeElement:
    """The standard-basis form of x in P*H_m: the word beta with coefficient
    c becomes sum_b P_b c sigma_{b o d_beta}, and no two of these keys
    collide.  P_b depends on the length of b only, so the products P_b c are
    taken once per value of P_b."""
    by_value: dict = {}
    for b, pb in _left_projector(x).terms.items():
        by_value.setdefault(pb, []).append(b)
    out = {}
    for word, c in x.terms.items():
        idx = [t - 1 for t in _distinguished(word)]
        for pb, bs in by_value.items():
            val = pb * c
            for b in bs:
                out[tuple(map(b.__getitem__, idx))] = val
    return _raw(x.m, x.q, out)


def _word_verdict(a: HeckeElement, b: HeckeElement) -> VerifyResult:
    """a == b for two elements of one P*H_m in word coordinates, with the
    Diff that element_diff gives on their expansions: the lexicographically
    first differing permutation is the least d_beta over the differing
    words beta, with the coefficients c_beta P_id."""
    if a == b:
        return VerifyResult(True, None)
    d, word = min(
        (_distinguished(w), w)
        for w in a.terms.keys() | b.terms.keys()
        if a.coefficient(w) != b.coefficient(w)
    )
    p_id = _left_projector(a if a.terms else b).coefficient(identity(a.m))
    return VerifyResult(
        False, Diff(d, a.coefficient(word) * p_id, b.coefficient(word) * p_id)
    )


def _projector_idempotent(ctx: FusedContext) -> bool:
    """P * P == P, taken in P*H_m: the block symmetrisers applied to P's
    word give it back with coefficient 1."""
    p = _start(ctx.strands, ctx.q, ctx.blocks())
    return _mul_projector_right(p, ctx.blocks()) == p


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


@lru_cache(maxsize=None)
def _partial_braiding_words(ctx: FusedContext, i: int, p: int) -> HeckeElement:
    """partial_braiding in word coordinates, read-only."""
    if ctx.ell != ctx.k:
        raise DomainError("use partial_braiding_mixed for ell != k")
    if not 0 <= p <= ctx.k:
        raise DomainError(f"braiding order p={p} out of range 0..{ctx.k}")
    if not 1 <= i <= ctx.n - 1:
        raise DomainError(f"ellipse index i={i} out of range 1..{ctx.n - 1}")
    x = _start(ctx.strands, ctx.q, ctx.blocks())
    off = (i - 1) * ctx.k
    for a in braiding_word(ctx.k, ctx.k, p):
        x = right_mul_generator(x, off + a)
    return _frozen(_mul_projector_right(x, ctx.blocks()))


@lru_cache(maxsize=None)
def partial_braiding(ctx: FusedContext, i: int, p: int) -> HeckeElement:
    """The partial elementary braiding at ellipse position i: the p rightmost
    strands of ellipse i cross over the p leftmost strands of ellipse i+1,
    sandwiched between the projector on both sides.  p = 0 gives P itself.
    """
    return _frozen(_expand(_partial_braiding_words(ctx, i, p)))


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
    m = k + ell
    x = _start(m, q, [(1, k), (k + 1, m)])
    for a in braiding_word(k, ell, p):
        x = right_mul_generator(x, a)
    return _frozen(_expand(_mul_projector_right(x, [(1, ell), (ell + 1, m)])))


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
    * [k, p]_q [ell, k-p]_q for p = 0..k (requires k <= ell)."""
    q = as_fraction(q)
    u = as_fraction(u)
    if ell < k:
        raise DomainError("coefficients need k <= ell")
    qi2 = q**-2
    values = []
    for p in range(k + 1):
        denom = Fraction(1)
        for r in range(k - p):
            factor = 1 - u * q ** (-2 * (p + r))
            if factor == 0:
                raise PoleError(
                    f"coefficient a_{p}: factor (1 - u q^(-2*{p + r})) vanishes"
                )
            denom *= factor
        val = (
            (-q) ** (k - p)
            * q_pochhammer(qi2, qi2, k - p)
            / denom
            * q_binomial(k, p, q)
            * q_binomial(ell, k - p, q)
        )
        values.append(val)
    return BaxterCoefficients(k, ell, u, q, tuple(values))


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


def _multiplicative(q) -> _Baxterisation:
    q = as_fraction(q)
    return _Baxterisation(
        q,
        lambda k, u: baxter_coefficients(k, k, u, q).values,
        lambda u, s: _r_check_constant(u * q ** (2 * s), q),
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


def _expansion(ctx: FusedContext, i: int, arg, bax: _Baxterisation) -> HeckeElement:
    """sum_p coefficient_p(arg) * (partial braiding p) at ellipse i, in word
    coordinates."""
    out: dict = {}
    for p, a in enumerate(bax.coefficients(ctx.k, arg)):
        words = _partial_braiding_words(ctx, i, p).terms
        _accumulate(out, ((w, a * c) for w, c in words.items()))
    return _raw(ctx.strands, ctx.q, out)


def baxter_R_expansion(ctx: FusedContext, i: int, u) -> HeckeElement:
    """The baxterised element at ellipse i: sum_p a_p(u) * (partial braiding p)."""
    return _expand(_expansion(ctx, i, u, _multiplicative(ctx.q)))


def _mul_grid_right(x: HeckeElement, k: int, ell: int, arg, offset: int,
                    bax: _Baxterisation) -> HeckeElement:
    """Right-multiply by the k x ell grid of baxterised generators

        prod_{a=k..1} prod_{t=0..ell-1} (sigma_{offset+a+t} + c(arg, t+1-a)),

    the outer factors ordered right to left as the row index a increases;
    c(u, s) = -(q - 1/q)/(1 - u q^{2s}), or 1/(mu + s) at q = 1.
    """
    for a in range(k, 0, -1):
        for t in range(ell):
            x = _mul_affine_right(x, offset + a + t, bax.constant(arg, t + 1 - a))
    return x


def _factorised(k: int, ell: int, arg, bax: _Baxterisation) -> HeckeElement:
    """P^(k,ell) * (grid of k*ell baxterised generators) * P^(ell,k), in word
    coordinates."""
    m = k + ell
    x = _start(m, bax.q, [(1, k), (k + 1, m)])
    x = _mul_grid_right(x, k, ell, arg, 0, bax)
    return _mul_projector_right(x, [(1, ell), (ell + 1, m)])


def baxter_R_factorized(k: int, ell: int, u, q) -> HeckeElement:
    """The fused product P^(k,ell) * (grid of kl baxterised generators) *
    P^(ell,k) in H_{k+ell}(q)."""
    return _expand(_factorised(k, ell, as_fraction(u), _multiplicative(q)))


def baxter_R_one_sided(k: int, u, q) -> HeckeElement:
    """One-projector form in H_{2k}(q): P^(k) followed by the reversed-argument
    grid, no trailing projector (the element commutes with P^(k))."""
    q = as_fraction(q)
    u = as_fraction(u)
    ctx = FusedContext(k, 2, q)
    x = projector_P(ctx)
    for a in range(k, 0, -1):
        for t in range(k):
            x = mul_r_check_right(x, a + t, u * q ** (2 * (a - 1 - t)))
    return x


def _mul_mixed_R_right(x: HeckeElement, k: int, ell: int, u, offset: int):
    """x * (embedded fused R^(k,ell)(u) at the given strand offset), all four
    symmetriser blocks applied explicitly."""
    end = offset + k + ell
    x = _mul_projector_right(x, [(offset + 1, offset + k), (offset + k + 1, end)])
    x = _mul_grid_right(x, k, ell, u, offset, _multiplicative(x.q))
    return _mul_projector_right(x, [(offset + 1, offset + ell), (offset + ell + 1, end)])


# -- Yang-Baxter verification ----------------------------------------------------


def _assert_lemma_equivalence(k: int, args, bax: _Baxterisation):
    """Exact check that the factorised and expanded forms agree at the given
    spectral arguments; the fast verification chains rely on it."""
    ctx = FusedContext(k, 2, bax.q)
    for arg in args:
        if _factorised(k, k, arg, bax) != _expansion(ctx, 1, arg, bax):
            raise ParameterError(
                f"factorised/expanded forms disagree at k={k}, argument {arg}, "
                f"q={bax.q}"
            )


def _verify_ybe(ctx: FusedContext, u, v, i: int, method: str, bax: _Baxterisation):
    """R_i(u) R_{i+1}(w) R_i(v) = R_{i+1}(v) R_i(w) R_{i+1}(u) with the
    middle argument w = bax.middle(u, v); see verify_braided_ybe."""
    if method not in ("auto", "direct", "fast"):
        raise ParameterError(f"unknown method {method!r}: use 'auto', 'direct' or 'fast'")
    u, v = as_fraction(u), as_fraction(v)
    if not 1 <= i <= ctx.n - 2:
        raise DomainError("need 1 <= i <= n-2 for the braided relation")
    w = bax.middle(u, v)
    if method == "auto":
        method = "direct" if ctx.strands <= 6 else "fast"
    if method == "direct":
        r = lambda j, arg: _expand(_expansion(ctx, j, arg, bax))
        lhs = multiply(multiply(r(i, u), r(i + 1, w)), r(i, v))
        rhs = multiply(multiply(r(i + 1, v), r(i, w)), r(i + 1, u))
        return _verdict(lhs, rhs)
    k = ctx.k
    _assert_lemma_equivalence(k, (u, w, v), bax)
    if not _projector_idempotent(ctx):
        raise InternalConsistencyError(f"projector not idempotent for {ctx}")
    blocks = ctx.blocks()

    # each factor is P (grid) P; the expansion elements and the chain tails
    # end in a projector pass, so the leading P of the next factor is
    # absorbed by the idempotence asserted above
    def times_R(x, j, arg):
        x = _mul_grid_right(x, k, k, arg, (j - 1) * k, bax)
        return _mul_projector_right(x, blocks)

    r = lambda j, arg: _expansion(ctx, j, arg, bax)
    lhs = times_R(times_R(r(i, u), i + 1, w), i, v)
    rhs = times_R(times_R(r(i + 1, v), i, w), i + 1, u)
    return _word_verdict(lhs, rhs)


def verify_braided_ybe(ctx: FusedContext, u, v, i: int = 1, method: str = "auto"):
    """Exact check of R_i(u) R_{i+1}(uv) R_i(v) = R_{i+1}(v) R_i(uv) R_{i+1}(u)
    for the baxterised elements in the context's algebra.

    method "direct" multiplies the three expanded elements; "fast" applies
    the factorised chains for the second and third factor (after asserting
    the factorised/expanded equivalence at the three spectral arguments);
    "auto" picks "direct" up to 6 strands.
    """
    return _verify_ybe(ctx, u, v, i, method, _multiplicative(ctx.q))


def verify_mixed_ybe(k: int, l: int, m: int, u, v, q) -> VerifyResult:
    """Exact check of the mixed braided relation in H_{k+l+m}(q):

        R^(k,l)(u) R^(k,m)_[l+1..](uv) R^(l,m)(v)
            = R^(l,m)_[k+1..](v) R^(k,m)(uv) R^(k,l)_[m+1..](u).
    """
    q = as_fraction(q)
    u, v = as_fraction(u), as_fraction(v)
    n = k + l + m
    uv = u * v

    lhs = _start(n, q, [(1, k), (k + 1, k + l)])
    lhs = _mul_mixed_R_right(lhs, k, l, u, 0)
    lhs = _mul_mixed_R_right(lhs, k, m, uv, l)
    lhs = _mul_mixed_R_right(lhs, l, m, v, 0)

    rhs = _start(n, q, [(k + 1, k + l), (k + l + 1, n)])
    rhs = _mul_mixed_R_right(rhs, l, m, v, k)
    rhs = _mul_mixed_R_right(rhs, k, m, uv, 0)
    rhs = _mul_mixed_R_right(rhs, k, l, u, m)
    # the two sides are taken over different projectors
    return _verdict(_expand(lhs), _expand(rhs))


def verify_commPR(k: int, ell: int, u, q) -> VerifyResult:
    """Exact check of P^(k,ell) R^(k,ell)(u) = R^(k,ell)(u) P^(ell,k)."""
    x = _factorised(k, ell, as_fraction(u), _multiplicative(q))
    p_kl, _ = projector_mixed(k, ell, q)
    lhs = multiply(p_kl, _expand(x))
    rhs = _expand(_mul_projector_right(x, [(1, ell), (ell + 1, k + ell)]))
    return _verdict(lhs, rhs)


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
    word = braiding_word(k, k, k)
    blocks = ctx.blocks()

    def rmul_sigma(x):
        for a in word:
            x = right_mul_generator(x, a)
        return _mul_projector_right(x, blocks)

    powers = [_start(ctx.strands, q, blocks)]
    for _ in range(k + 1):
        powers.append(rmul_sigma(powers[-1]))
    eigen = [(-1) ** (k + l) * q ** (-k + l * (l + 1)) for l in range(k + 1)]

    def subset_product(values):
        # expand prod (Sigma - c P) over elementary symmetric polynomials
        esym = [Fraction(1)]
        for c in values:
            new = esym + [Fraction(0)]
            for t in range(len(esym)):
                new[t + 1] += c * esym[t]
            esym = new
        d = len(values)
        out = zero(ctx.strands, q)
        for j in range(d + 1):
            out = out + powers[j].scale((-1) ** (d - j) * esym[d - j])
        return out

    if not subset_product(eigen).is_zero():
        return False
    if check_minimality and k <= 3:
        for drop in range(k + 1):
            sub = eigen[:drop] + eigen[drop + 1 :]
            if subset_product(sub).is_zero():
                return False
    return True


# -- classical (q = 1) degeneration -------------------------------------------------


def classical_baxter_R(k: int, n: int, i: int, mu) -> HeckeElement:
    """The additive-parameter solution in the q = 1 fused algebra:
    sum_p c_p(mu) * (partial braiding p) with the classical coefficients."""
    return _expand(_expansion(FusedContext(k, n, Fraction(1)), i, mu, _ADDITIVE))


def classical_baxter_R_factorized(k: int, mu) -> HeckeElement:
    """Fused product form at q = 1 in H_{2k}(1): projector, grid of Yang
    factors (sigma_a + 1/(mu + shift)), projector."""
    return _expand(_factorised(k, k, as_fraction(mu), _ADDITIVE))


def verify_classical_ybe(k: int, n: int, mu, nu, i: int = 1, method: str = "auto"):
    """Exact check of the additive braided relation at q = 1:

        R_i(mu) R_{i+1}(mu+nu) R_i(nu) = R_{i+1}(nu) R_i(mu+nu) R_{i+1}(mu).
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

    where X, X2 are the partial and full crossings.  The crossing sign is
    only determined pictorially, so both the all-over and all-under readings
    are tried; returns which one matches (exactly one should).
    """
    q = as_fraction(q)
    ctx = FusedContext(2, 2, q)
    p = projector_P(ctx)
    lam = q - 1 / q
    scale = 1 / brace_int(2, q) ** 2

    def build(word, sign):
        x = p
        for a in word:
            y = right_mul_generator(x, a)
            x = y - x.scale(lam) if sign == "under" else y
        return _mul_projector_right(x, ctx.blocks())

    matches = []
    for sign in ("over", "under"):
        x1 = build((2,), sign)
        x2 = build(braiding_word(2, 2, 2), sign)
        lhs = multiply(x1, x1)
        rhs = (p + x1.scale(lam + 2 * q**3) + x2.scale(q * q)).scale(scale)
        if lhs == rhs:
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
