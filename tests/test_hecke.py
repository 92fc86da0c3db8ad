import itertools
import json
import random
import sys
import math
import threading
from collections.abc import Mapping, MutableMapping
from fractions import Fraction as F

import numpy as np
import pytest

from fusedhecke import (
    DomainError,
    HeckeElement,
    ParameterError,
    PoleError,
    ResourceError,
    element_from_obj,
    element_to_obj,
    generator,
    identity,
    multiply,
    q_int,
    reduced_word,
    symmetriser_product,
    symmetriser_sum,
    unit,
)
from fusedhecke import hecke
from fusedhecke.permutations import (
    all_permutations,
    inverse,
    length,
    simple_transposition,
)
import oracles
from oracles import (
    basis_element,
    compose,
    left_mul_generator,
    mul_element_right,
    mul_symmetriser_right,
    r_check_generator,
    symmetriser_recursion_check,
)

QS = [F(2), F(3, 2), F(5, 3)]


# -- unit and generators ------------------------------------------------------


def test_unit_laws():
    q = F(2)
    x = generator(1, 3, q) + basis_element((2, 3, 1), 3, q).scale(F(3, 5))
    e = unit(3, q)
    assert multiply(e, x) == x
    assert multiply(x, e) == x
    assert len(unit(2, q).terms) == 1
    assert unit(2, q).coefficient((1, 2)) == 1


@pytest.mark.parametrize("q", QS)
@pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
def test_defining_relations(q, m):
    for i in range(1, m):
        g = generator(i, m, q)
        assert multiply(g, g) == g.scale(q - 1 / q) + unit(m, q)
    for i in range(1, m - 1):
        a, b = generator(i, m, q), generator(i + 1, m, q)
        assert multiply(multiply(a, b), a) == multiply(multiply(b, a), b)
    for i in range(1, m):
        for j in range(i + 2, m):
            a, b = generator(i, m, q), generator(j, m, q)
            assert multiply(a, b) == multiply(b, a)


def test_generator_index_errors():
    with pytest.raises(DomainError):
        generator(0, 3, F(2))
    with pytest.raises(DomainError):
        generator(3, 3, F(2))


# -- straightening -------------------------------------------------------------


# left_mul_generator here is the oracle's element-level sigma_i * x


def test_left_mul_generator_basic():
    q = F(2)
    assert left_mul_generator(1, unit(2, q)) == generator(1, 2, q)
    g = generator(1, 2, q)
    assert left_mul_generator(1, g) == unit(2, q) + g.scale(q - 1 / q)


def test_left_mul_generator_length_drop():
    q = F(2)
    x = basis_element((2, 3, 1), 3, q)
    got = left_mul_generator(1, x)
    assert got == basis_element((1, 3, 2), 3, q) + x.scale(F(3, 2))


def _h3_generator_matrices(q):
    """Left-multiplication matrices of the generators on the standard basis
    of H_3, written directly from the straightening rule."""
    basis = all_permutations(3)
    index = {w: t for t, w in enumerate(basis)}
    mats = {}
    for i in (1, 2):
        mat = np.zeros((6, 6), dtype=object)
        for col, w in enumerate(basis):
            pi, pj = w.index(i), w.index(i + 1)
            lst = list(w)
            lst[pi], lst[pj] = i + 1, i
            mat[index[tuple(lst)], col] += F(1)
            if pi > pj:
                mat[index[w], col] += q - 1 / q
        mats[i] = mat
    return basis, index, mats


def test_h3_multiplication_table_against_regular_representation():
    q = F(2)
    basis, index, gmats = _h3_generator_matrices(q)
    eye = np.identity(6, dtype=object)

    def op_matrix(w):
        mat = eye
        for i in reduced_word(w):
            mat = mat @ gmats[i]
        return mat

    for v in basis:
        left = op_matrix(v)
        for w in basis:
            prod = multiply(basis_element(v, 3, q), basis_element(w, 3, q))
            col = left[:, index[w]]
            for t, ww in enumerate(basis):
                assert prod.coefficient(ww) == col[t]


def test_multiply_associativity_instance():
    q = F(3, 2)
    s1, s2 = generator(1, 3, q), generator(2, 3, q)
    assert multiply(multiply(s1, s2), s1) == multiply(s1, multiply(s2, s1))


def test_length_additive_products():
    q = F(2)
    for v in all_permutations(3):
        for w in all_permutations(3):
            if length(compose(v, w)) == length(v) + length(w):
                prod = multiply(basis_element(v, 3, q), basis_element(w, 3, q))
                assert prod == basis_element(compose(v, w), 3, q)


def test_multiply_random_associativity():
    q = F(2)
    rng = random.Random(1729)
    pool = all_permutations(4)
    for _ in range(100):
        elems = []
        for _ in range(3):
            terms = {}
            for _ in range(3):
                terms[rng.choice(pool)] = F(rng.randint(-5, 5) or 1, rng.randint(1, 5))
            elems.append(HeckeElement(4, q, terms))
        a, b, c = elems
        assert multiply(multiply(a, b), c) == multiply(a, multiply(b, c))


ORACLE_QS = [F(2), F(3, 2), F(7, 5), F(-5, 7), F(1), F(-1)]


def _random_element(rng, m, q, keys):
    return HeckeElement(m, q, {w: F(rng.randint(-9, 9) or 1, rng.randint(1, 7))
                               for w in keys})


@pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
def test_multiply_matches_oracle(m):
    """The suffix-sharing, scaled-integer product against the one-term-at-a-
    time Fraction fold: sparse, zero, single-term and full-support factors."""
    rng = random.Random(100 + m)
    perms = all_permutations(m)
    few = min(len(perms), 12)
    for q in ORACLE_QS:
        def sample(n):
            return _random_element(rng, m, q, rng.sample(perms, n))

        pairs = [(HeckeElement(m, q), sample(few)), (sample(few), HeckeElement(m, q)),
                 (sample(1), sample(few)), (sample(few), sample(1)),
                 (sample(1), sample(1)), (sample(few), sample(few)),
                 (sample(rng.randint(1, few)), sample(rng.randint(1, few)))]
        if m <= 5:
            full = _random_element(rng, m, q, perms)
            pairs += [(full, sample(few)), (sample(few), full)]
        if m <= 4:
            pairs.append((full, _random_element(rng, m, q, perms)))
        for a, b in pairs:
            got, want = multiply(a, b), oracles.multiply(a, b)
            # a read-only mapping whose values are Fractions
            assert isinstance(got.terms, Mapping)
            assert not isinstance(got.terms, MutableMapping)
            assert got.terms == want.terms, (m, q)
            assert all(type(c) is F for c in got.terms.values())


@pytest.mark.parametrize("q", [F(3, 2), F(1), F(-1)], ids=str)
def test_multiply_takes_one_pass_per_distinct_suffix(monkeypatch, q):
    """The full element of S_4 takes one left_mul_generator pass per distinct
    suffix of the canonical reduced words, not one per letter, at q**2 == 1
    too."""
    perms = all_permutations(4)
    full = HeckeElement(4, q, {w: F(1) for w in perms})
    calls = {"left": 0, "word": 0}
    left, word = hecke.left_mul_generator, hecke.reduced_word

    def counted(name, f):
        def g(*args):
            calls[name] += 1
            return f(*args)
        return g

    monkeypatch.setattr(hecke, "left_mul_generator", counted("left", left))
    monkeypatch.setattr(hecke, "reduced_word", counted("word", word))
    got = multiply(full, generator(2, 4, q))
    suffixes = {reduced_word(w)[t:] for w in perms for t in range(length(w))}
    assert calls == {"left": len(suffixes), "word": len(perms)}
    assert len(suffixes) < sum(length(w) for w in perms)
    assert got == oracles.multiply(full, generator(2, 4, q))


def test_left_mul_generator_acts_on_inverse_keys():
    """The kernel's pass on scaled numerators keyed by the ranks of inverse
    permutations is sigma_i * x, with the denominator grown by ab at q = a/b,
    on sparse and full supports."""
    rng = random.Random(31)
    for m in (4, 5):
        perms = all_permutations(m)
        for q in (F(3, 2), F(-5, 7), F(1), F(-1)):
            factors = hecke._scaled_factors(q)
            for keys in (rng.sample(perms, 10), perms):
                x = _random_element(rng, m, q, keys)
                nums, den = hecke._scaled(hecke._by_inverse(x.terms))
                for i in range(1, m):
                    y = hecke.left_mul_generator(i, nums, factors)
                    got = hecke._by_inverse(hecke._unscaled(y, den * factors[1]))
                    assert got == left_mul_generator(i, x).terms, (m, q, i)


def _inverted(x):
    """iota(x): sigma_w -> sigma_{w^-1}, the anti-automorphism of H_m."""
    return HeckeElement(x.m, x.q, {inverse(w): c for w, c in x.terms.items()})


@pytest.mark.parametrize("q", [F(2), F(3, 2), F(-5, 7), F(1), F(-1)], ids=str)
def test_multiply_reverses_under_inversion(q):
    """iota(a b) = iota(b) iota(a), on random and empty factors; an identity
    of the algebra that needs no oracle."""
    rng = random.Random(7)
    for m in (2, 3, 4, 5):
        perms = all_permutations(m)
        few = min(9, len(perms))
        for _ in range(6):
            a, b = (_random_element(rng, m, q, rng.sample(perms, rng.randint(0, few)))
                    for _ in range(2))
            assert _inverted(multiply(a, b)) == multiply(_inverted(b), _inverted(a)), m


def test_multiply_mismatch_errors():
    with pytest.raises(DomainError):
        multiply(unit(2, F(2)), unit(3, F(2)))
    with pytest.raises(DomainError):
        multiply(unit(2, F(2)), unit(2, F(3)))


def test_operators_multiply_and_scale():
    q = F(2)
    g1, g2 = generator(1, 3, q), generator(2, 3, q)
    # sigma_{s_1} sigma_{s_2} = sigma_{s_1 s_2}: the length adds up
    assert (g1 * g2).sorted_terms() == [((2, 3, 1), F(1))]
    assert g1 * g2 == multiply(g1, g2)
    assert (2 * g1).sorted_terms() == [((2, 1, 3), F(2))]
    assert 2 * g1 == g1 * 2 == g1.scale(2)


@pytest.mark.parametrize("call, message", [
    (lambda: unit(3, F(2)) * generator(3, 3, F(2)), "generator index 3 out of range for m=3"),
    (lambda: element_from_obj([]), "an element must be a JSON object, got []"),
    (lambda: HeckeElement(0, F(2)), "strand count must be positive"),
], ids=["generator index", "element not an object", "no strands"])
def test_invalid_input_raises_a_domain_error(call, message):
    with pytest.raises(DomainError) as err:
        call()
    assert type(err.value) is DomainError and str(err.value) == message


def test_constructor_rejects_keys_that_are_not_permutations():
    # such a key would be ranked as a block word, which the standard basis
    # has no place for
    for key in ((1, 1, 3), (1, 2, 4), (0, 1, 2)):
        with pytest.raises(DomainError, match="not a permutation"):
            HeckeElement(3, 2, {key: 1})
    with pytest.raises(DomainError, match="strand count"):
        HeckeElement(3, 2, {(1, 2): 1})
    assert HeckeElement(3, 2, {(1, 1, 3): 0}) == HeckeElement(3, 2)


def test_word_index_gives_one_rank_per_word_under_threads():
    # eight threads rank the same new words at once, in several rounds, with
    # a short switch interval; a word ranked twice would split its terms
    words = list(itertools.permutations(range(1, 7)))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            index = hecke._WordIndex()
            start = threading.Barrier(8)

            def rank_all():
                start.wait(timeout=60)
                for w in words:
                    index.rank(w)

            threads = [threading.Thread(target=rank_all) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
            assert len(index.words) == len(index.ranks) == len(words)
            assert all(index.words[index.ranks[w]] == w for w in words)
    finally:
        sys.setswitchinterval(interval)


def test_group_algebra_at_q_one():
    for v in all_permutations(3):
        for w in all_permutations(3):
            prod = multiply(basis_element(v, 3, F(1)), basis_element(w, 3, F(1)))
            assert prod == basis_element(compose(v, w), 3, F(1))


def _alt_reduced_word(w):
    """Alternative canonical form: always resolve the leftmost descent."""
    cur = w
    word = []
    while cur != identity(len(w)):
        i = next(t + 1 for t in range(len(w) - 1) if cur[t] > cur[t + 1])
        cur = cur[: i - 1] + (cur[i], cur[i - 1]) + cur[i + 1 :]
        word.append(i)
    word.reverse()
    return tuple(word)


def test_basis_element_independent_of_reduced_word():
    q = F(2)
    for w in all_permutations(4):
        canon = unit(4, q)
        for i in reduced_word(w):
            canon = canon * generator(i, 4, q)
        alt = unit(4, q)
        for i in _alt_reduced_word(w):
            alt = alt * generator(i, 4, q)
        assert canon == alt == basis_element(w, 4, q)


# -- baxterised generators -------------------------------------------------------


def test_r_check_classical_is_generator():
    for q in (F(1), F(-1)):
        assert r_check_generator(1, F(3, 7), 2, q) == generator(1, 2, q)


def test_r_check_leading_term():
    q, u = F(2), F(3, 5)
    x = r_check_generator(1, u, 3, q)
    assert x.coefficient(simple_transposition(1, 3)) == 1
    assert x - unit(3, q).scale(x.coefficient(identity(3))) == generator(1, 3, q)


def test_r_check_pole():
    with pytest.raises(PoleError):
        r_check_generator(1, F(1), 2, F(2))


def test_r_check_yang_baxter_h3():
    q, u, v = F(2), F(3, 5), F(7, 11)
    r1 = lambda w: r_check_generator(1, w, 3, q)
    r2 = lambda w: r_check_generator(2, w, 3, q)
    lhs = multiply(multiply(r1(u), r2(u * v)), r1(v))
    rhs = multiply(multiply(r2(v), r1(u * v)), r2(u))
    assert lhs == rhs


# -- symmetrisers -----------------------------------------------------------------


def test_symmetriser_sum_two_strands():
    q = F(2)
    s = symmetriser_sum(1, 2, 2, q)
    two = q_int(2, q)
    assert s.terms == {(1, 2): 1 / (q * two), (2, 1): 1 / two}


def test_symmetrisers_check_the_strand_bound(monkeypatch):
    monkeypatch.delenv("FUSED_HECKE_MAX_STRANDS", raising=False)
    for build in (symmetriser_sum, symmetriser_product):
        with pytest.raises(ResourceError) as err:
            build(1, 2, 12, 2)
        assert str(err.value) == "12 strands exceeds the bound 9 (override with FUSED_HECKE_MAX_STRANDS)"


@pytest.mark.parametrize("q", QS)
def test_symmetriser_identities(q):
    s = symmetriser_sum(1, 3, 3, q)
    assert multiply(s, s) == s
    for a in (1, 2):
        g = generator(a, 3, q)
        assert multiply(g, s) == s.scale(q)
        assert multiply(s, g) == s.scale(q)


@pytest.mark.parametrize("q", [F(2), F(3, 2)])
def test_symmetriser_product_equals_sum(q):
    for (i, j) in [(1, 2), (1, 3), (2, 4)]:
        assert symmetriser_product(i, j, 4, q) == symmetriser_sum(i, j, 4, q)


def test_symmetriser_product_single_factor():
    q = F(2)
    x = unit(3, q)
    got = oracles.mul_r_check_right(x, 1, q**2) / q_int(2, q)
    assert got == symmetriser_sum(1, 2, 3, q)
    assert got == symmetriser_product(1, 2, 3, q)


@pytest.mark.parametrize("q", [F(2), F(3, 2), F(-5, 7), F(1), F(-1)], ids=str)
def test_symmetriser_product_equals_its_element_per_factor_product(q):
    # the library runs the factors as passes on one scaled vector; the
    # oracle builds an element per factor
    for m in range(1, 6):
        for i in range(1, m + 1):
            for j in range(i, m + 1):
                if j > i and q * q == 1:
                    with pytest.raises(PoleError):
                        symmetriser_product(i, j, m, q)
                    continue
                got, want = symmetriser_product(i, j, m, q), oracles.symmetriser_product(i, j, m, q)
                assert (got.nums, got.den) == (want.nums, want.den), (i, j, m)


def test_symmetriser_product_pole_at_classical_q():
    # the first factor, R_1(q^2), is the baxterised constant at argument 1
    # and shift 1, as in a fused grid
    for q, m in itertools.product((F(1), F(-1)), (2, 4)):
        with pytest.raises(PoleError) as err:
            symmetriser_product(1, m, m, q)
        assert str(err.value) == "pole at argument 1, shift s = 1"


def test_symmetriser_nesting():
    q = F(5, 3)
    for (i, j) in [(1, 3), (1, 4), (2, 4)]:
        s = symmetriser_sum(i, j, 4, q)
        for ip in range(i, j):
            for jp in range(ip + 1, j + 1):
                inner = symmetriser_sum(ip, jp, 4, q)
                assert multiply(s, inner) == s
                assert multiply(inner, s) == s


@pytest.mark.parametrize("q", QS)
def test_symmetriser_recursion(q):
    assert symmetriser_recursion_check(1, 2, 3, q)
    assert symmetriser_recursion_check(1, 3, 4, q)
    assert symmetriser_recursion_check(2, 3, 4, q)
    # degenerate base: growing the one-letter interval
    assert symmetriser_recursion_check(1, 1, 2, q)


# the negative q cover a numerator a < 0 in the scaled-integer form q = a/b
SCALED_QS = [F(2), F(3, 2), F(1), F(-1), F(-5, 7)]


@pytest.mark.parametrize("q", SCALED_QS, ids=str)
@pytest.mark.parametrize("m", [3, 4, 5])
def test_mul_symmetriser_right_matches_term_by_term(m, q):
    # permutations and words with repeated letters, against the symmetriser
    # applied term by term from its sum formula
    rng = random.Random(7100 + m)
    pool = all_permutations(m)
    for trial in range(6):
        if trial % 2:
            keys = [tuple(rng.randint(1, m - 1) for _ in range(m)) for _ in range(4)]
        else:
            keys = [rng.choice(pool) for _ in range(4)]
        terms = {w: F(rng.randint(-9, 9), rng.randint(1, 9)) for w in keys}
        # the public constructor takes permutations only
        x = oracles.from_fractions(m, q, {w: c for w, c in terms.items() if c})
        for i in range(1, m):
            for j in range(i + 1, m + 1):
                got = mul_symmetriser_right(x, i, j)
                assert got == mul_element_right(x, symmetriser_sum(i, j, m, q))
                assert all(type(c) is F for c in got.terms.values())


@pytest.mark.parametrize("q", SCALED_QS, ids=str)
def test_scaled_affine_and_sum_match_fraction_arithmetic(q):
    # x * (sigma_i + c) and sum_p c_p x_p on scaled vectors, some with a
    # negated denominator, against the oracle's x * sigma_i + x.scale(c) and
    # the Fraction sum; c = 0 and zero coefficients among them
    rng = random.Random(8200)
    perms = all_permutations(4)
    cs = [F(0), F(1), F(-3, 4), F(7, 9), F(-5)]
    for _ in range(8):
        xs = [_random_element(rng, 4, q, rng.sample(perms, rng.randint(0, 8))) for _ in range(3)]
        vecs = []
        for x in xs:
            nums, den = hecke._scaled(x.terms)
            if rng.random() < 0.5:
                nums, den = {w: -n for w, n in nums.items()}, -den
            vecs.append((nums, den))
        for x, vec in zip(xs, vecs):
            for i in (1, 2, 3):
                for c in cs:
                    nums, den = hecke._scaled_affine(*vec, i, c, q)
                    want = oracles.right_mul_generator(x, i) + x.scale(c)
                    assert hecke._unscaled(nums, den) == want.terms
                    assert all(nums.values())
        coeffs = [rng.choice(cs) for _ in xs]
        nums, den = hecke._scaled_sum(zip(coeffs, vecs))
        want = HeckeElement(4, q)
        for c, x in zip(coeffs, xs):
            want = want + x.scale(c)
        assert hecke._unscaled(nums, den) == want.terms
        assert all(nums.values())
    # a cancelling sum, all coefficients zero, and no summand at all
    assert hecke._scaled_sum([(F(2, 3), vecs[0]), (F(-2, 3), vecs[0])])[0] == {}
    assert hecke._scaled_sum([(F(0), vec) for vec in vecs])[0] == {}
    assert hecke._scaled_sum([]) == ({}, 1)


# -- serialization -----------------------------------------------------------------


def test_element_json_roundtrip():
    q = F(3, 2)
    x = symmetriser_sum(1, 3, 3, q) + generator(2, 3, q).scale(F(-7, 5))
    obj = element_to_obj(x)
    assert obj["strands"] == 3
    perms = [tuple(e["perm"]) for e in obj["terms"]]
    assert perms == sorted(perms)
    y = element_from_obj(json.loads(json.dumps(obj)))
    assert x == y


def test_zero_pruning():
    q = F(2)
    x = generator(1, 2, q)
    assert (x - x) == HeckeElement(2, q)
    assert not (x - x).terms


@pytest.mark.parametrize("key", ["strands", "q", "terms"])
def test_element_from_obj_names_a_missing_key(key):
    obj = element_to_obj(generator(1, 2, F(2)))
    del obj[key]
    with pytest.raises(DomainError, match=f"lacks '{key}'"):
        element_from_obj(obj)


@pytest.mark.parametrize("key", ["perm", "coeff"])
def test_element_from_obj_names_a_missing_term_key(key):
    obj = element_to_obj(generator(1, 2, F(2)))
    del obj["terms"][0][key]
    with pytest.raises(DomainError, match=f"lacks '{key}'"):
        element_from_obj(obj)


def test_element_from_obj_rejects_a_repeated_permutation():
    # the second coefficient would otherwise replace the first
    obj = element_to_obj(generator(1, 2, F(2)))
    obj["terms"].append({"perm": [2, 1], "coeff": "3"})
    with pytest.raises(DomainError, match=r"\[2, 1\] occurs twice"):
        element_from_obj(obj)


@pytest.mark.parametrize("field, value, message", [
    ("strands", 2.7, "strands must be an integer"),
    ("strands", True, "strands must be an integer"),
    ("strands", "2", "strands must be an integer"),
    ("terms", {"perm": [2, 1], "coeff": "1"}, "terms must be a list"),
    ("terms", "[2, 1]", "terms must be a list"),
    ("perm", [2, "x"], "perm must be a permutation"),
    ("perm", [2.0, 1], "perm must be a permutation"),
    ("perm", [2, True], "perm must be a permutation"),
    ("perm", "21", "perm must be a permutation"),
    ("perm", [1, 1], "perm must be a permutation"),
    ("term", {"perm": [1, 1], "coeff": "0"}, "perm must be a permutation"),
], ids=["strands-float", "strands-bool", "strands-str", "terms-object", "terms-str",
        "perm-str-entry", "perm-float-entry", "perm-bool-entry", "perm-str", "perm-repeat",
        "perm-repeat-zero-coeff"])
def test_element_from_obj_rejects_a_malformed_value(field, value, message):
    # JSON comes from outside the program: nothing is coerced, and a zero
    # coefficient does not excuse a malformed perm
    obj = element_to_obj(generator(1, 2, F(2)))
    if field == "perm":
        obj["terms"][0]["perm"] = value
    elif field == "term":
        obj["terms"][0] = value
    else:
        obj[field] = value
    with pytest.raises(DomainError, match=message):
        element_from_obj(obj)


@pytest.mark.parametrize("c", [0, F(0), "0"], ids=repr)
def test_division_by_zero_raises_parameter_error(c):
    with pytest.raises(ParameterError):
        generator(1, 2, F(2)) / c


# -- the integer form --------------------------------------------------------------


def _assert_canonical(x):
    assert x.den > 0 and all(x.nums.values())
    assert math.gcd(x.den, *x.nums.values()) == 1
    assert x.nums or x.den == 1


@pytest.mark.parametrize("q", [F(2), F(3, 2), F(-5, 7), F(1), F(-1)], ids=str)
def test_equal_elements_have_one_integer_form(q):
    """Elements reached by different routes are equal with identical
    numerators and denominators: negative scalars, cancelling sums,
    scale(0), products and the public constructor."""
    rng = random.Random(4100)
    perms = all_permutations(4)
    a, b, c = (_random_element(rng, 4, q, rng.sample(perms, 9)) for _ in range(3))
    ab = multiply(a, b)
    routes = [
        (a.scale(F(-3, 4)).scale(F(-4, 3)), a),
        (-(-a), a),
        ((a / F(-7, 3)).scale(F(-7, 3)), a),
        ((a + b) - b, a),
        (b + a - a, b),
        (a - a, HeckeElement(4, q)),
        (a.scale(0), HeckeElement(4, q)),
        (a.scale(0), b - b),
        (multiply(a, b - b), HeckeElement(4, q)),
        (multiply(a.scale(F(-2, 3)), b), ab.scale(F(-2, 3))),
        (multiply(a, b.scale(6)), ab + ab + ab + ab + ab + ab),
        (multiply(a, b + c), ab + multiply(a, c)),
        (ab, oracles.multiply(a, b)),
        (ab, HeckeElement(4, q, dict(ab.terms))),
        (oracles.right_mul_generator(a, 2), multiply(a, generator(2, 4, q))),
    ]
    for got, want in routes:
        _assert_canonical(got)
        assert got == want
        assert (got.nums, got.den) == (want.nums, want.den)


def test_integer_form_builds_no_fraction(monkeypatch):
    """Equality, sums, scaling, products, the Diff of equal elements, the
    size of .terms and the expansion of a word vector run on integers."""
    from fusedhecke.fused import FusedContext, _expand, _partial_braiding_words, element_diff

    q, c = F(3, 2), F(-5, 7)
    rng = random.Random(4200)
    a, b = (_random_element(rng, 5, q, all_permutations(5)) for _ in range(2))
    a2 = HeckeElement(5, q, dict(a.terms))
    one = HeckeElement(5, F(1), dict(a.terms))
    g = generator(3, 5, q)
    vec = _partial_braiding_words(FusedContext(2, 3, q), 1, 1)
    _expand(vec, 6, q)  # fills the symmetriser cache
    built = []
    new = F.__new__

    def counted(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(F, "__new__", counted)
    assert a == a2 and a != b
    a + b, a - b, -a
    a.scale(c)
    multiply(a, b)
    multiply(one, one)
    a * g
    assert element_diff(a, a2) is None
    assert len(a.terms) == 120 and (1, 2, 3, 4, 5) in a.terms
    _expand(vec, 6, q)
    monkeypatch.undo()
    assert built == []
    # the counter counts: reading a coefficient builds one
    monkeypatch.setattr(F, "__new__", counted)
    a.coefficient((1, 2, 3, 4, 5))
    monkeypatch.undo()
    assert len(built) == 1
