import json
import random
from fractions import Fraction as F

import numpy as np
import pytest

from fusedhecke import (
    DomainError,
    HeckeElement,
    PoleError,
    element_from_obj,
    element_to_obj,
    generator,
    identity,
    left_mul_generator,
    multiply,
    q_int,
    reduced_word,
    symmetriser_product,
    symmetriser_sum,
    unit,
)
from fusedhecke.hecke import (
    basis_element,
    mul_symmetriser_right,
    r_check_generator,
    right_mul_generator,
    symmetriser_recursion_check,
    zero,
)
from fusedhecke.permutations import (
    all_permutations,
    compose,
    length,
    simple_transposition,
)
from oracles import mul_element_right

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


def test_multiply_mismatch_errors():
    with pytest.raises(DomainError):
        multiply(unit(2, F(2)), unit(3, F(2)))
    with pytest.raises(DomainError):
        multiply(unit(2, F(2)), unit(2, F(3)))


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
            canon = right_mul_generator(canon, i)
        alt = unit(4, q)
        for i in _alt_reduced_word(w):
            alt = right_mul_generator(alt, i)
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
    from fusedhecke.hecke import mul_r_check_right

    got = mul_r_check_right(x, 1, q**2) / q_int(2, q)
    assert got == symmetriser_sum(1, 2, 3, q)
    assert got == symmetriser_product(1, 2, 3, q)


def test_symmetriser_product_pole_at_classical_q():
    with pytest.raises(PoleError):
        symmetriser_product(1, 2, 2, F(1))


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
        x = HeckeElement(m, q, {w: F(rng.randint(-9, 9), rng.randint(1, 9)) for w in keys})
        for i in range(1, m):
            for j in range(i + 1, m + 1):
                got = mul_symmetriser_right(x, i, j)
                assert got == mul_element_right(x, symmetriser_sum(i, j, m, q))
                assert all(type(c) is F for c in got.terms.values())


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
    assert (x - x) == zero(2, q)
    assert not (x - x).terms
