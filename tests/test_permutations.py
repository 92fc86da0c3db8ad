import itertools

import pytest

from fusedhecke import DomainError, identity, reduced_word
from fusedhecke.errors import ResourceError
from fusedhecke.permutations import (
    all_permutations,
    inverse,
    length,
    simple_transposition,
)
from oracles import compose


def test_identity():
    assert identity(1) == (1,)
    assert identity(3) == (1, 2, 3)
    assert length(identity(5)) == 0


def test_compose():
    s1 = simple_transposition(1, 3)
    assert compose(s1, s1) == identity(3)
    assert compose((2, 1, 3), (1, 3, 2)) == (2, 3, 1)
    for w in all_permutations(4):
        assert compose(w, identity(4)) == w
        assert compose(identity(4), w) == w
        assert compose(w, inverse(w)) == identity(4)
    with pytest.raises(DomainError):
        compose((1, 2), (1, 2, 3))


def test_length():
    # brute-force inversion count for the longest element of S_3
    w = (3, 2, 1)
    brute = sum(
        1 for i, j in itertools.combinations(range(3), 2) if w[i] > w[j]
    )
    assert length(w) == brute == 3
    for i in range(1, 4):
        assert length(simple_transposition(i, 4)) == 1


def _compose_word(word, m):
    w = identity(m)
    for i in word:
        w = compose(w, simple_transposition(i, m))
    return w


def test_reduced_word_examples():
    assert reduced_word(identity(4)) == ()
    assert reduced_word((2, 1, 3)) == (1,)
    assert reduced_word((3, 2, 1)) == (1, 2, 1)
    # no shorter word reaches the longest element of S_3
    for r in range(3):
        for word in itertools.product((1, 2), repeat=r):
            assert _compose_word(word, 3) != (3, 2, 1)


def test_all_permutations():
    assert all_permutations(1) == [(1,)]
    perms = all_permutations(3)
    assert len(perms) == 6
    assert perms == sorted(perms)
    assert sum(length(w) for w in perms) == 9
    with pytest.raises(ResourceError):
        all_permutations(11)


@pytest.mark.parametrize("call", [identity, all_permutations])
def test_no_permutations_of_zero_strands(call):
    with pytest.raises(DomainError) as err:
        call(0)
    assert type(err.value) is DomainError and str(err.value) == "m must be a positive integer"


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_simple_multiplication_changes_length_by_one(m):
    for w in all_permutations(m):
        for i in range(1, m):
            assert abs(length(compose(simple_transposition(i, m), w)) - length(w)) == 1


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_reduced_word_roundtrip(m):
    for w in all_permutations(m):
        word = reduced_word(w)
        assert len(word) == length(w)
        assert _compose_word(word, m) == w
