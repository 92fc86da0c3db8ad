"""The Hecke algebra H_m(q) at a specialised rational q.

Elements are finitely supported maps from permutations (standard basis
indices) to exact rationals.  Multiplication decomposes the left factor into
canonical reduced words and applies the straightening rule

    sigma_i * sigma_w = sigma_{s_i w}                     if the length goes up,
    sigma_i * sigma_w = sigma_{s_i w} + (q - 1/q) sigma_w otherwise,

term by term, so no multiplication table is ever stored.  Zero coefficients
are pruned eagerly and equality of elements is structural.

Right multiplication by a generator or a q-symmetriser also acts on block
words, keys with repeated letters.  Let P be the product of the
q-symmetrisers on disjoint blocks of strands, where the block [lo, hi]
carries the letter lo and every other strand its own position.  Then P*H_m
has the basis P*sigma_d, d running over the distinguished (shortest) coset
representatives (Dipper-James), and P*sigma_d is keyed by the word of d:
its one-line notation with every value replaced by the letter of its block.
d is recovered from the word by numbering the strands of each block from
left to right.  Right multiplication by sigma_i swaps positions i, i+1 of the
word; an equal pair of letters means that sigma_i is absorbed by P, which
multiplies the term by q, and an unequal pair follows the permutation rule
with its (q - 1/q) term.  A permutation is a word of P = 1, whose letters are
all distinct.  The same words key the weight spaces of V^(tensor m) (Dipper-
James), which is how tensorrep applies this kernel to tensors.

The generator rule is written once, with three factors: a key whose letters
at i, i+1 are equal stays put times the equal-pair factor, every other key
has them swapped times the swap factor, and a descent (w[i] > w[i+1]) also
stays put times the descent factor.  On Fraction coefficients the factors
are q, 1 and q - 1/q.  The symmetriser passes run on a scaled-integer form:
with q = a/b, a vector is a map of integer numerators over one common
denominator, the factors become a^2, ab and a^2 - b^2, and each generator
pass multiplies the denominator by ab.  Coefficients are converted into
that form once, reduced by their gcd once per grown strand, and converted
back to Fraction once.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from types import MappingProxyType

from .errors import DomainError, ParameterError, PoleError, ResourceError
from .permutations import (
    Perm,
    all_permutations,
    identity,
    length,
    max_strands,
    perm_from_str,
    reduced_word,
    simple_transposition,
)
from .qnumbers import as_fraction, format_rational, q_factorial, q_int


def _check_strands(m: int):
    if m < 1:
        raise DomainError("strand count must be positive")
    bound = max_strands()
    if m > bound:
        raise ResourceError(
            f"{m} strands exceeds the bound {bound} "
            "(override with FUSED_HECKE_MAX_STRANDS)"
        )


class HeckeElement:
    """A sparse element of H_m(q) in the standard basis."""

    __slots__ = ("m", "q", "terms")

    def __init__(self, m: int, q, terms=None):
        _check_strands(m)
        self.m = m
        self.q = as_fraction(q)
        if self.q == 0:
            raise ParameterError("q must be nonzero")
        clean = {}
        for w, c in (terms or {}).items():
            c = as_fraction(c)
            if c:
                if len(w) != m:
                    raise DomainError(f"term {w} has wrong strand count")
                clean[w] = c
        self.terms = clean

    # -- linear structure ---------------------------------------------------

    def _compat(self, other: "HeckeElement"):
        if self.m != other.m or self.q != other.q:
            raise DomainError("elements live in different algebras")

    def __add__(self, other):
        self._compat(other)
        return _raw(self.m, self.q, _accumulate(dict(self.terms), other.terms.items()))

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return _raw(self.m, self.q, {w: -c for w, c in self.terms.items()})

    def scale(self, c) -> "HeckeElement":
        c = as_fraction(c)
        if not c:
            return _raw(self.m, self.q, {})
        return _raw(self.m, self.q, {w: c * x for w, x in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, HeckeElement):
            return multiply(self, other)
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def __truediv__(self, other):
        return self.scale(1 / as_fraction(other))

    def __eq__(self, other):
        return (
            isinstance(other, HeckeElement)
            and self.m == other.m
            and self.q == other.q
            and self.terms == other.terms
        )

    def __bool__(self):
        return bool(self.terms)

    def __repr__(self):
        return f"HeckeElement(m={self.m}, q={self.q}, {len(self.terms)} terms)"

    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, w: Perm) -> Fraction:
        return self.terms.get(tuple(w), Fraction(0))

    def sorted_terms(self):
        return sorted(self.terms.items())


def _raw(m, q, terms) -> HeckeElement:
    """Internal constructor: terms already pruned and validated."""
    x = HeckeElement.__new__(HeckeElement)
    x.m = m
    x.q = q
    x.terms = terms
    return x


def _frozen(x: HeckeElement) -> HeckeElement:
    """x with a read-only term map, for results that a cache hands out."""
    return _raw(x.m, x.q, MappingProxyType(x.terms))


def _accumulate(out: dict, items) -> dict:
    """Add each (key, value) pair of items into out, dropping the keys whose
    sum is zero; returns out."""
    for key, val in items:
        cur = out.get(key)
        s = val if cur is None else cur + val
        if s:
            out[key] = s
        elif cur is not None:
            del out[key]
    return out


# -- basis constructors -----------------------------------------------------


def zero(m: int, q) -> HeckeElement:
    return HeckeElement(m, q, {})


def unit(m: int, q) -> HeckeElement:
    """The basis element at the identity permutation."""
    return HeckeElement(m, q, {identity(m): Fraction(1)})


def generator(i: int, m: int, q) -> HeckeElement:
    """The standard generator sigma_{s_i}."""
    return HeckeElement(m, q, {simple_transposition(i, m): Fraction(1)})


def basis_element(w: Perm, m: int, q) -> HeckeElement:
    return HeckeElement(m, q, {tuple(w): Fraction(1)})


# -- multiplication ---------------------------------------------------------


def left_mul_generator(i: int, x: HeckeElement) -> HeckeElement:
    """sigma_i * x expanded in the standard basis: s_i * w swaps the values
    i, i+1 of w, and where the length goes down (i occurs after i+1) the
    term also stays put with weight q - 1/q."""
    if not 1 <= i <= x.m - 1:
        raise DomainError(f"generator index {i} out of range for m={x.m}")
    j = i + 1
    swap = list(range(x.m + 1))
    swap[i], swap[j] = j, i
    # w -> s_i * w is a bijection of the support, so the first pass has no
    # collisions
    out = {tuple(map(swap.__getitem__, w)): c for w, c in x.terms.items()}
    lam = x.q - 1 / x.q
    if lam:
        _accumulate(
            out, ((w, lam * c) for w, c in x.terms.items() if w.index(i) > w.index(j))
        )
    return _raw(x.m, x.q, out)


def _generator_rule(terms: dict, i0: int, equal, swap, descent) -> dict:
    """terms * sigma_{i0+1} on keyed coefficients, with the three factors of
    the generator rule (see the module docstring).  A swap factor of 1 is
    not multiplied out."""
    keep = swap == 1
    # w -> w * s_i is a bijection of the support, so the first pass has no
    # collisions
    out = {
        w[:i0] + (w[i0 + 1], w[i0]) + w[i0 + 2 :]: (
            equal * c if w[i0] == w[i0 + 1] else c if keep else swap * c
        )
        for w, c in terms.items()
    }
    if descent:
        _accumulate(
            out, ((w, descent * c) for w, c in terms.items() if w[i0] > w[i0 + 1])
        )
    return out


def right_mul_generator(x: HeckeElement, i: int) -> HeckeElement:
    """x * sigma_i: w * s_i swaps the entries at positions i, i+1 of w, and
    where the length goes down (a descent at i) the term also stays put
    with weight q - 1/q.  On a block word an equal pair of letters is
    absorbed by the projector: the term stays put with weight q."""
    if not 1 <= i <= x.m - 1:
        raise DomainError(f"generator index {i} out of range for m={x.m}")
    q = x.q
    return _raw(x.m, q, _generator_rule(x.terms, i - 1, q, 1, q - 1 / q))


# -- the scaled-integer form: (numerators, denominator) at q = a/b -------------


def _scaled(terms) -> tuple:
    """Fraction coefficients as integer numerators over their least common
    denominator."""
    den = lcm(*(c.denominator for c in terms.values()))
    return {w: c.numerator * (den // c.denominator) for w, c in terms.items()}, den


def _unscaled(nums: dict, den: int) -> dict:
    return {w: Fraction(n, den) for w, n in nums.items()}


def _scaled_factors(q: Fraction) -> tuple:
    """The equal-pair, swap and descent factors a^2, ab, a^2 - b^2 at q = a/b."""
    a, b = q.numerator, q.denominator
    return a * a, a * b, a * a - b * b


def _scaled_generator(nums: dict, den: int, i: int, q: Fraction) -> tuple:
    """(nums / den) * sigma_i in scaled-integer form."""
    equal, swap, descent = _scaled_factors(q)
    return _generator_rule(nums, i - 1, equal, swap, descent), den * swap


def _scaled_symmetriser(nums: dict, den: int, i: int, j: int, q: Fraction) -> tuple:
    """(nums / den) * S_[i,j] in scaled-integer form, by the recursion of
    mul_symmetriser_right.  At q = a/b, growing the interval to s + 1
    strands takes the prefactor 1/[s+1]_q = (ab)^s / Q with
    Q = sum_{t=0..s} a^(2(s-t)) b^(2t), which is positive, and the summand
    after t generator passes, q^(t-s) times numerators over den (ab)^t, is
    b^(2(s-t)) times those numerators over den Q."""
    a, b = q.numerator, q.denominator
    equal, swap, descent = _scaled_factors(q)
    bb = b * b
    for top in range(i, j):
        s = top - i + 1
        f = bb**s
        total = {w: f * n for w, n in nums.items()}
        y = nums
        for t, g in enumerate(range(top, i - 1, -1), 1):
            y = _generator_rule(y, g - 1, equal, swap, descent)
            f = bb ** (s - t)
            _accumulate(total, ((w, f * n) for w, n in y.items()))
        den *= sum(a ** (2 * (s - t)) * b ** (2 * t) for t in range(s + 1))
        g = gcd(den, *total.values())
        nums, den = {w: n // g for w, n in total.items()}, den // g
    return nums, den


def multiply(a: HeckeElement, b: HeckeElement) -> HeckeElement:
    """Product a * b: fold the canonical reduced words of a over b."""
    a._compat(b)
    total: dict = {}
    classical = a.q == 1 or a.q == -1
    for w, c in a.terms.items():
        if classical:
            y = _raw(b.m, b.q, {tuple(w[t - 1] for t in v): cv
                                for v, cv in b.terms.items()})
        else:
            y = b
            for idx in reversed(reduced_word(w)):
                y = left_mul_generator(idx, y)
        _accumulate(total, ((wy, c * cy) for wy, cy in y.terms.items()))
    return _raw(a.m, a.q, total)


# -- baxterised generators ------------------------------------------------------


def _r_check_constant(u: Fraction, q: Fraction) -> Fraction:
    """The constant c of the baxterised generator sigma_i + c, that is
    sigma_i - (q - 1/q)/(1 - u)."""
    if u == 1:
        raise PoleError("baxterised generator has a pole at spectral argument 1")
    return (1 / q - q) / (1 - u)


def _mul_affine_right(x: HeckeElement, i: int, c: Fraction) -> HeckeElement:
    """x * (sigma_i + c)."""
    y = right_mul_generator(x, i)
    return y + x.scale(c) if c else y


def r_check_generator(i: int, u, m: int, q) -> HeckeElement:
    """The baxterised generator sigma_i - (q - 1/q)/(1 - u)."""
    return mul_r_check_right(unit(m, q), i, u)


def mul_r_check_right(x: HeckeElement, i: int, u) -> HeckeElement:
    """x * (sigma_i - (q - 1/q)/(1 - u)); the workhorse of fusion products."""
    return _mul_affine_right(x, i, _r_check_constant(as_fraction(u), x.q))


# -- q-symmetrisers ----------------------------------------------------------


@lru_cache(maxsize=None)
def symmetriser_sum(i: int, j: int, m: int, q) -> HeckeElement:
    """Partial q-symmetriser on strands i..j by the weighted sum formula:

        S_[i,j] = q^{-r(r-1)/2} / [r]_q!  *  sum_w q^{length(w)} sigma_w,

    with r = j - i + 1 and w ranging over the permutations of {i, ..., j}.
    The degenerate interval i == j gives the unit.
    """
    q = as_fraction(q)
    if not 1 <= i <= j <= m:
        raise DomainError(f"invalid symmetriser interval [{i},{j}] in H_{m}")
    r = j - i + 1
    if r == 1:
        return _frozen(unit(m, q))
    fact = q_factorial(r, q)
    if fact == 0:
        raise ParameterError(f"[{r}]_q! vanishes at q={q}")
    pref = q ** (-(r * (r - 1)) // 2) / fact
    head = tuple(range(1, i))
    tail = tuple(range(j + 1, m + 1))
    terms = {}
    for wp in all_permutations(r):
        w = head + tuple(v + i - 1 for v in wp) + tail
        terms[w] = pref * q ** length(wp)
    return _raw(m, q, MappingProxyType(terms))


def mul_symmetriser_right(x: HeckeElement, i: int, j: int) -> HeckeElement:
    """x * S_[i,j], grown one strand at a time by the recursion

        S_[i,b+1] = S_[i,b] * 1/[b-i+2]_q * sum_{a=i..b+1} q^{i-a} sigma_b ... sigma_a,

    the word empty for a = b+1: the mirror image of the left recursion of
    symmetriser_recursion_check under sigma_w -> sigma_{w^-1}, which fixes
    every S_[i,j].  Total wherever the algebra is defined: no factor has a
    pole at q**2 == 1.  Runs in the scaled-integer form.
    """
    symmetriser_sum(i, j, x.m, x.q)  # rejects a bad interval or a vanishing [r]_q!
    nums, den = _scaled_symmetriser(*_scaled(x.terms), i, j, x.q)
    return _raw(x.m, x.q, _unscaled(nums, den))


def symmetriser_product(i: int, j: int, m: int, q) -> HeckeElement:
    """Partial q-symmetriser by the ordered product of baxterised generators:

        S_[i,j] = 1/[r]_q! * prod_{a=i..j-1} R_a(q^{2(a-i+1)}) ... R_i(q^2),

    the factors within each group running down to index i.  Fails with a
    pole error at q**2 == 1 (all spectral arguments degenerate to 1).
    """
    q = as_fraction(q)
    if not 1 <= i <= j <= m:
        raise DomainError(f"invalid symmetriser interval [{i},{j}] in H_{m}")
    x = unit(m, q)
    for a in range(i, j):
        for t in range(a - i + 1):
            x = mul_r_check_right(x, a - t, q ** (2 * (a - i + 1 - t)))
    return x / q_factorial(j - i + 1, q)


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


# -- serialization -----------------------------------------------------------


def element_to_obj(x: HeckeElement) -> dict:
    """JSON-ready form: terms sorted by lexicographic permutation order."""
    return {
        "strands": x.m,
        "q": format_rational(x.q),
        "terms": [
            {"perm": list(w), "coeff": format_rational(c)}
            for w, c in x.sorted_terms()
        ],
    }


def element_from_obj(obj: dict) -> HeckeElement:
    m = int(obj["strands"])
    q = as_fraction(obj["q"])
    terms = {}
    for entry in obj["terms"]:
        w = perm_from_str("[" + ",".join(str(v) for v in entry["perm"]) + "]")
        terms[w] = as_fraction(entry["coeff"])
    return HeckeElement(m, q, terms)
