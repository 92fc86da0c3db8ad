"""The Hecke algebra H_m(q) at a specialised rational q.

An element holds its standard-basis coefficients as integer numerators on
permutation tuples over one common denominator, in canonical form: the
denominator is positive and coprime to the numerators, 1 for zero, and no
numerator is zero.  Every element is built through one normalising
constructor (_element), so equality of elements is the equality of their
numerator maps and denominators.  Fractions are built only where a
coefficient is read: terms is a read-only view that makes one per value
read, and coefficient, sorted_terms and the JSON form do the same.

The product a * b takes each term of a along its canonical reduced word
over b, one application of the straightening rule

    sigma_i * sigma_w = sigma_{s_i w}                     if the length goes up,
    sigma_i * sigma_w = sigma_{s_i w} + (q - 1/q) sigma_w otherwise

per letter, so no multiplication table is ever stored.  The words of a,
read from their right ends, form a trie, and the terms whose words end
alike share the passes over their common suffix.  The walk keys b by the
ranks of inverse permutations, where sigma_i * sigma_w is the generator
rule below at position i, and runs every pass and the sum on integer
numerators over one common denominator, which divides den_a den_b (ab)^L at
q = a/b, L the length of the longest word of a (see multiply).  At q**2 == 1
the rule's second term vanishes, and the same walk gives the product of the
group algebra of S_m.

Chains of right multiplications run on module vectors in one form, the
scaled-integer form: with q = a/b, a vector is a pair (numerators,
denominator), a map of integer numerators over one common denominator.  Its
keys are the ranks of permutations or block words in one word index.  Let P
be the product of the q-symmetrisers on disjoint blocks of strands, where
the block [lo, hi] carries the letter lo and every other strand its own
position.  Then P*H_m has the basis P*sigma_d, d running over the
distinguished (shortest) coset representatives (Dipper-James), and P*sigma_d
is keyed by the word of d: its one-line notation with every value replaced
by the letter of its block.  d is recovered from the word by numbering the
strands of each block from left to right.  A permutation is a word of P = 1,
whose letters are all distinct.  The same words key the weight spaces of
V^(tensor m) (Dipper-James), which is how tensorrep applies these passes to
tensors.  The passes are x*sigma_i, x*(sigma_i + c), x*S_[i,j] and
sum_p c_p x_p; symmetriser_product and every element of fused are chains of
them from one start, and multiply serves only products of given elements.
An element's numerators enter it by ranking their keys (_ranked) and leave
it by reading the keys back (_unranked); Fraction coefficients on words
enter once (_scaled) and leave once (_unscaled), and numerators on other
keys are read as Fractions by _fractions.

The generator rule is written once, with three factors: a key whose letters
at i, i+1 are equal stays put times the equal-pair factor (sigma_i is
absorbed by P), every other key has them swapped times the swap factor, and
a descent (w[i] > w[i+1]) also stays put times the descent factor.  In the
scaled form the factors are a^2, ab and a^2 - b^2, and each generator pass
multiplies the denominator by ab.  The pass reads the move of each rank from
the word index (_WordIndex), which is append-only: a word keeps its rank for
the life of the process, and the move of a rank at a position (its target
rank and whether it is an equal pair, an ascent or a descent) is computed
from the word once, on first use.  So the index holds only the words that
some pass has reached, and words are taken apart only there; tuples appear
at the boundaries alone: _ranked, _unranked, _scaled, _unscaled,
fused._start, fused._expand and the Diff of fused._word_verdict.  The
symmetriser passes reduce by the gcd once per grown strand.
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Mapping
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from threading import Lock
from types import MappingProxyType

from .errors import DomainError, ParameterError, PoleError, ResourceError
from .permutations import (
    Perm,
    all_permutations,
    identity,
    is_permutation,
    length,
    max_strands,
    reduced_word,
    simple_transposition,
)
from .qnumbers import as_fraction, format_rational, q_factorial


def _check_strands(m: int):
    if m < 1:
        raise DomainError("strand count must be positive")
    bound = max_strands()
    if m > bound:
        raise ResourceError(
            f"{m} strands exceeds the bound {bound} "
            "(override with FUSED_HECKE_MAX_STRANDS)"
        )


class _Terms(Mapping):
    """The coefficients of an element as a read-only map from permutations
    to Fractions: len, iteration and membership read the numerator map, and
    a Fraction is built only when a value is read."""

    __slots__ = ("_nums", "_den")

    def __init__(self, nums, den: int):
        self._nums = nums
        self._den = den

    def __getitem__(self, w) -> Fraction:
        return Fraction(self._nums[w], self._den)

    def __len__(self) -> int:
        return len(self._nums)

    def __iter__(self):
        return iter(self._nums)

    def __contains__(self, w) -> bool:
        return w in self._nums

    def __repr__(self):
        return repr(dict(self.items()))


class HeckeElement:
    """A sparse element of H_m(q) in the standard basis: integer numerators
    nums on permutation tuples over one denominator den, with den > 0,
    gcd(den, *nums) == 1 and den == 1 for zero, and no zero numerator."""

    __slots__ = ("m", "q", "nums", "den")

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
                if not is_permutation(w):
                    raise DomainError(f"term {w} is not a permutation of 1..{m}")
                clean[w] = c
        self.nums, self.den = _normalised(*_integral(clean))

    @property
    def terms(self) -> _Terms:
        """The coefficients as a read-only map from permutations to Fractions."""
        return _Terms(self.nums, self.den)

    # -- linear structure ---------------------------------------------------

    def _compat(self, other: "HeckeElement"):
        if self.m != other.m or self.q != other.q:
            raise DomainError("elements live in different algebras")

    def _sum(self, other, sign: int) -> "HeckeElement":
        self._compat(other)
        pairs = ((1, (self.nums, self.den)), (sign, (other.nums, other.den)))
        return _element(self.m, self.q, *_scaled_sum(pairs))

    def __add__(self, other):
        return self._sum(other, 1)

    def __sub__(self, other):
        return self._sum(other, -1)

    def __neg__(self):
        return _element(self.m, self.q, {w: -n for w, n in self.nums.items()}, self.den)

    def scale(self, c) -> "HeckeElement":
        c = as_fraction(c)
        if not c:
            return _element(self.m, self.q, {}, 1)
        cn = c.numerator
        nums = {w: cn * n for w, n in self.nums.items()}
        return _element(self.m, self.q, nums, self.den * c.denominator)

    def __mul__(self, other):
        if isinstance(other, HeckeElement):
            return multiply(self, other)
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def __truediv__(self, other):
        c = as_fraction(other)
        if not c:
            raise ParameterError("division of an element by zero")
        return self.scale(1 / c)

    def __eq__(self, other):
        return (
            isinstance(other, HeckeElement)
            and self.m == other.m
            and self.q == other.q
            and self.den == other.den
            and self.nums == other.nums
        )

    def __bool__(self):
        return bool(self.nums)

    def __repr__(self):
        return f"HeckeElement(m={self.m}, q={self.q}, {len(self.nums)} terms)"

    def is_zero(self) -> bool:
        return not self.nums

    def coefficient(self, w: Perm) -> Fraction:
        return Fraction(self.nums.get(tuple(w), 0), self.den)

    def sorted_terms(self):
        den = self.den
        return [(w, Fraction(n, den)) for w, n in sorted(self.nums.items())]


def _normalised(nums, den: int) -> tuple:
    """(nums, den) in canonical form: den > 0, coprime to the numerators,
    and 1 for the empty map.  The numerators must be nonzero."""
    if not nums:
        return nums, 1
    g = gcd(den, *nums.values())
    if den < 0:
        g = -g
    if g != 1:
        nums = {w: n // g for w, n in nums.items()}
    return nums, den // g


def _coprime_factors(xs, ys, den: int) -> tuple:
    """(gx, gy, d) for the products x y over den, x running over the nonzero
    integers xs and y over ys, found without forming the products: gx
    divides every x, gy every y, and the products (x/gx)(y/gy) over
    d = den/(gx gy) are in canonical form.  Per prime, the gcd of den and
    all x y is gcd(den, gcd(xs)) gcd(den / gcd(den, gcd(xs)), gcd(ys))."""
    gx = gcd(den, *xs)
    gy = gcd(den // gx, *ys)
    if den < 0:
        gy = -gy
    return gx, gy, den // (gx * gy)


def _element(m: int, q: Fraction, nums, den: int, reduced: bool = False) -> HeckeElement:
    """Internal constructor: nums / den on permutation tuples, the
    numerators nonzero and the keys already validated, brought to canonical
    form unless the caller says it is (reduced)."""
    x = HeckeElement.__new__(HeckeElement)
    x.m = m
    x.q = q
    x.nums, x.den = (nums, den) if reduced else _normalised(nums, den)
    return x


def _frozen(x: HeckeElement) -> HeckeElement:
    """x with a read-only numerator map, for results that a cache hands out."""
    return _element(x.m, x.q, MappingProxyType(x.nums), x.den)


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


# -- multiplication ---------------------------------------------------------


_EQUAL, _SWAP, _DESCENT = 0, 1, 2


class _WordIndex:
    """An append-only index of words, shared by permutations and block words
    of every length: a word gets the next integer rank when it is first
    seen, and keeps it, so a vector keyed by ranks stays valid whatever is
    ranked later.  For each position i0 it memoises, on first use, the
    s_{i0+1} move of a rank as (target rank, kind): a word whose letters at
    i0, i0+1 are equal stays put (_EQUAL), any other has them swapped, an
    ascent (_SWAP) or a descent, w[i0] > w[i0+1] (_DESCENT).  This is the
    only place where a word is taken apart.  A new word is ranked under a
    lock, so that no word gets two ranks when threads share the index."""

    __slots__ = ("words", "ranks", "moves", "lock")

    def __init__(self):
        self.words: list = []  # rank -> word
        self.ranks: dict = {}  # word -> rank
        self.moves = defaultdict(dict)  # i0 -> {rank: (target rank, kind)}
        self.lock = Lock()

    def rank(self, word: tuple) -> int:
        r = self.ranks.get(word)
        if r is None:
            with self.lock:
                r = self.ranks.get(word)
                if r is None:
                    # the word is stored before its rank is published
                    self.words.append(word)
                    r = self.ranks[word] = len(self.words) - 1
        return r

    def move(self, i0: int, r: int) -> tuple:
        """The move of rank r at i0, memoised together with its inverse."""
        table = self.moves[i0]
        w = self.words[r]
        a, b = w[i0], w[i0 + 1]
        if a == b:
            table[r] = (r, _EQUAL)
        else:
            t = self.rank(w[:i0] + (b, a) + w[i0 + 2 :])
            table[t] = (r, _SWAP if a > b else _DESCENT)
            table[r] = (t, _DESCENT if a > b else _SWAP)
        return table[r]


_INDEX = _WordIndex()


def _generator_rule(nums: dict, i0: int, equal, swap, descent) -> dict:
    """nums * sigma_{i0+1} on rank-keyed numerators, with the three factors
    of the generator rule (see the module docstring), read off the index's
    move table at i0."""
    moves = _INDEX.moves[i0]
    factor = (equal, swap, swap)
    # w -> w * s_i is a bijection of the support, so the moves have no
    # collisions
    out = {}
    down = []
    for r, c in nums.items():
        try:
            t, kind = moves[r]
        except KeyError:
            t, kind = _INDEX.move(i0, r)
        out[t] = factor[kind] * c
        if kind == _DESCENT:
            down.append(r)
    if descent:
        _accumulate(out, ((r, descent * nums[r]) for r in down))
    return out


def right_mul_generator(x: HeckeElement, i: int) -> HeckeElement:
    """x * sigma_i: w * s_i swaps the entries at positions i, i+1 of w, and
    where the length goes down (a descent at i) the term also stays put
    with weight q - 1/q."""
    if not 1 <= i <= x.m - 1:
        raise DomainError(f"generator index {i} out of range for m={x.m}")
    nums, den = _scaled_generator(_ranked(x.nums), x.den, i, x.q)
    return _element(x.m, x.q, _unranked(nums), den)


# -- the scaled-integer form: (numerators, denominator) at q = a/b -------------


def _integral(terms) -> tuple:
    """Fraction coefficients as integer numerators over their least common
    denominator, on the same keys."""
    den = lcm(*(c.denominator for c in terms.values()))
    return {w: c.numerator * (den // c.denominator) for w, c in terms.items()}, den


def _ranked(nums) -> dict:
    """The same values keyed by the ranks of the words."""
    rank = _INDEX.rank
    return {rank(w): n for w, n in nums.items()}


def _unranked(nums) -> dict:
    """The same values keyed by the words of the ranks."""
    words = _INDEX.words
    return {words[r]: n for r, n in nums.items()}


def _scaled(terms) -> tuple:
    """Fraction coefficients on words as a scaled vector, keyed by the ranks
    of the words."""
    nums, den = _integral(terms)
    return _ranked(nums), den


def _fractions(nums, den: int) -> dict:
    """Integer numerators over den as Fractions, on the same keys."""
    return {w: Fraction(n, den) for w, n in nums.items()}


def _unscaled(nums: dict, den: int) -> dict:
    """A scaled vector as Fraction coefficients on words."""
    return _unranked(_fractions(nums, den))


def _scaled_factors(q: Fraction) -> tuple:
    """The equal-pair, swap and descent factors a^2, ab, a^2 - b^2 at q = a/b."""
    a, b = q.numerator, q.denominator
    return a * a, a * b, a * a - b * b


def _scaled_generator(nums: dict, den: int, i: int, q: Fraction) -> tuple:
    """(nums / den) * sigma_i in scaled-integer form."""
    equal, swap, descent = _scaled_factors(q)
    return _generator_rule(nums, i - 1, equal, swap, descent), den * swap


def _scaled_affine(nums: dict, den: int, i: int, c: Fraction, q: Fraction) -> tuple:
    """(nums / den) * (sigma_i + c) in scaled-integer form.  With the
    generator pass y over den ab and c = cn/cd, the numerators are
    cd y + ab cn nums over den ab cd; c = 0 is the generator pass alone."""
    y, yden = _scaled_generator(nums, den, i, q)
    if not c:
        return y, yden
    cn, cd = c.numerator, c.denominator
    f = q.numerator * q.denominator * cn
    y = {w: cd * n for w, n in y.items()}
    return _accumulate(y, ((w, f * n) for w, n in nums.items())), yden * cd


def _scaled_sum(pairs) -> tuple:
    """sum_p c_p x_p in scaled-integer form, for (c_p, x_p) in pairs, each
    c_p a rational and x_p = (nums, den); the denominators may differ and
    have either sign.  The sum is taken over the least common multiple of
    the den_p times the denominators of the c_p; zero c_p are skipped."""
    pairs = [(c, nums, den * c.denominator) for c, (nums, den) in pairs if c]
    den = lcm(*(d for _, _, d in pairs))
    total: dict = {}
    for c, nums, d in pairs:
        f = c.numerator * (den // d)
        _accumulate(total, ((w, f * n) for w, n in nums.items()))
    return total, den


def _scaled_symmetriser(nums: dict, den: int, i: int, j: int, q: Fraction) -> tuple:
    """(nums / den) * S_[i,j] in scaled-integer form, grown one strand at a
    time by the recursion

        S_[i,b+1] = S_[i,b] * 1/[b-i+2]_q * sum_{a=i..b+1} q^{i-a} sigma_b ... sigma_a,

    the word empty for a = b+1: the image of the left recursion under
    sigma_w -> sigma_{w^-1}, which fixes every S_[i,j].  No factor has a pole
    at q**2 == 1.  At q = a/b, growing the interval to s + 1 strands
    takes the prefactor 1/[s+1]_q = (ab)^s / Q with
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


def _by_inverse(terms: dict) -> dict:
    """The same coefficients keyed by the inverse permutations."""
    out = {}
    for w, c in terms.items():
        inv = [0] * len(w)
        for pos, val in enumerate(w, 1):
            inv[val - 1] = pos
        out[tuple(inv)] = c
    return out


def left_mul_generator(i: int, nums: dict, factors: tuple) -> dict:
    """sigma_i times the element whose scaled-integer numerators nums are
    keyed by the ranks of inverse permutations; factors is
    _scaled_factors(q), and the denominator grows by their swap factor ab.
    s_i w swaps the values i, i+1 of w, so (s_i w)^-1 = w^-1 s_i swaps the
    positions i, i+1 of the key, and the length goes down where the key has
    a descent at i: on inverse keys, left multiplication is the right-hand
    generator rule."""
    return _generator_rule(nums, i - 1, *factors)


def multiply(a: HeckeElement, b: HeckeElement) -> HeckeElement:
    """Product a * b: sum_w c_w (sigma_w b) over the terms c_w sigma_w of a.

    sigma_w b takes one left_mul_generator pass per letter of the canonical
    reduced word of w, applied from the right end.  The words, read in that
    order, go into a trie, so a depth-first walk takes one pass per trie
    edge, each on its parent's product, and words with a common suffix share
    the passes over it.

    Every pass runs in the scaled-integer form on the ranks of keys inverted
    once on the way in, where sigma_i * y is the generator rule at position
    i (see left_mul_generator), and the keys are inverted back once on the
    way out.  Write q = r/s in lowest terms and den_a, den_b for the
    denominators of a and b.  A pass multiplies the
    numerators by r^2, rs or r^2 - s^2 and the denominator by rs, so after
    d passes sigma_w b is an integer map over den_b (rs)^d.  With L the
    length of the longest word of a, a trie node at depth d that ends the
    word of c_w = n/den_a adds n (rs)^(L-d) times its map into a total over
    den_a den_b (rs)^L, which the constructor reduces.  At q**2 == 1 the
    descent factor r^2 - s^2 is 0, so each pass only permutes the keys.
    """
    a._compat(b)
    q = a.q
    # a trie node is [children by letter, scaled coefficient of a or 0]
    root: list = [{}, 0]
    longest = 0
    for w, n in a.nums.items():
        word = reduced_word(w)
        longest = max(longest, len(word))
        node = root
        for i in reversed(word):
            node = node[0].setdefault(i, [{}, 0])
        node[1] = n
    factors = _scaled_factors(q)
    rs = factors[1]
    weight = [rs ** (longest - d) for d in range(longest + 1)]
    # the sum keeps its cancelled keys until the walk ends
    total = {}
    get = total.get
    # each entry is a node, its depth and its parent's product; the pass
    # into the node is taken when it is popped, so only products on the
    # current path and the parents of pending siblings are alive
    stack = [(root, 0, 0, _ranked(_by_inverse(b.nums)))]
    while stack:
        (children, n), i, depth, y = stack.pop()
        if i:
            y = left_mul_generator(i, y, factors)
        if n:
            f = n * weight[depth]
            for w, c in y.items():
                total[w] = get(w, 0) + f * c
        depth += 1
        stack.extend((child, j, depth, y) for j, child in children.items())
    total = _by_inverse(_unranked({w: n for w, n in total.items() if n}))
    return _element(a.m, q, total, a.den * b.den * rs**longest)


# -- baxterised generators ------------------------------------------------------


def _r_check_constant(u: Fraction, q: Fraction) -> Fraction:
    """The constant c of the baxterised generator sigma_i + c, that is
    sigma_i - (q - 1/q)/(1 - u)."""
    if u == 1:
        raise PoleError("baxterised generator has a pole at spectral argument 1")
    return (1 / q - q) / (1 - u)


# -- q-symmetrisers ----------------------------------------------------------


def _check_interval(i: int, j: int, m: int):
    if not 1 <= i <= j <= m:
        raise DomainError(f"invalid symmetriser interval [{i},{j}] in H_{m}")


@lru_cache(maxsize=None)
def symmetriser_sum(i: int, j: int, m: int, q) -> HeckeElement:
    """Partial q-symmetriser on strands i..j by the weighted sum formula:

        S_[i,j] = q^{-r(r-1)/2} / [r]_q!  *  sum_w q^{length(w)} sigma_w,

    with r = j - i + 1 and w ranging over the permutations of {i, ..., j}.
    The degenerate interval i == j gives the unit.
    """
    q = as_fraction(q)
    _check_interval(i, j, m)
    r = j - i + 1
    fact = q_factorial(r, q)
    if fact == 0:
        raise ParameterError(f"[{r}]_q! vanishes at q={q}")
    # at q = a/b and [r]_q! = f/g, q^(l - top) / [r]_q! = a^l b^(top-l) g / (a^top f)
    a, b = q.numerator, q.denominator
    top = r * (r - 1) // 2
    head = tuple(range(1, i))
    tail = tuple(range(j + 1, m + 1))
    nums = {}
    for wp in all_permutations(r):
        l = length(wp)
        nums[head + tuple(v + i - 1 for v in wp) + tail] = a**l * b ** (top - l) * fact.denominator
    return _frozen(_element(m, q, nums, a**top * fact.numerator))


def symmetriser_product(i: int, j: int, m: int, q) -> HeckeElement:
    """Partial q-symmetriser by the ordered product of baxterised generators:

        S_[i,j] = 1/[r]_q! * prod_{a=i..j-1} R_a(q^{2(a-i+1)}) ... R_i(q^2),

    the factors within each group running down to index i, each factor
    R_a(u) = sigma_a + c one affine pass on a scaled vector from the
    identity.  Fails with a pole error at q**2 == 1 (all spectral arguments
    degenerate to 1).
    """
    q = as_fraction(q)
    _check_interval(i, j, m)
    x = _ranked(unit(m, q).nums), 1  # unit checks the strand bound and q
    for a in range(i, j):
        for t in range(a - i + 1):
            c = _r_check_constant(q ** (2 * (a - i + 1 - t)), q)
            x = _scaled_affine(*x, a - t, c, q)
    return _element(m, q, _unranked(x[0]), x[1]) / q_factorial(j - i + 1, q)


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


def _fields(obj, keys: tuple, what: str) -> tuple:
    """The values of the keys in the JSON object obj, or a DomainError that
    names the missing ones."""
    if not isinstance(obj, dict):
        raise DomainError(f"{what} must be a JSON object, got {obj!r}")
    missing = [k for k in keys if k not in obj]
    if missing:
        raise DomainError(f"{what} lacks {', '.join(map(repr, missing))}")
    return tuple(obj[k] for k in keys)


def element_from_obj(obj: dict) -> HeckeElement:
    """The inverse of element_to_obj; raises DomainError on a missing key, a
    strand count that is not an integer, terms that are not a list, a perm
    that is not a permutation given as a list of integers, or a permutation
    that occurs twice."""
    m, q, entries = _fields(obj, ("strands", "q", "terms"), "an element")
    # a JSON integer, not a bool or a float
    if type(m) is not int:
        raise DomainError(f"strands must be an integer, got {m!r}")
    if not isinstance(entries, list):
        raise DomainError(f"terms must be a list, got {entries!r}")
    terms = {}
    for entry in entries:
        perm, coeff = _fields(entry, ("perm", "coeff"), "a term")
        # checked here too, since the constructor skips zero coefficients
        if not (isinstance(perm, list) and all(type(v) is int for v in perm)
                and is_permutation(perm)):
            raise DomainError(f"perm must be a permutation, a list of integers, got {perm!r}")
        w = tuple(perm)
        if w in terms:
            raise DomainError(f"permutation {perm} occurs twice")
        terms[w] = as_fraction(coeff)
    return HeckeElement(m, as_fraction(q), terms)
