"""Permutations of {1, ..., m} in one-line notation.

A permutation is a plain tuple `w` with `w[i-1] = w(i)`; tuples are hashable
and index the standard basis of the Hecke algebra.

>>> inverse((2, 3, 1))
(3, 1, 2)
>>> length((3, 2, 1))
3
>>> reduced_word((3, 2, 1))
(1, 2, 1)
"""

from __future__ import annotations

import itertools
import os
from functools import lru_cache

from .errors import DomainError, ParameterError, ResourceError

Perm = tuple[int, ...]

ENUMERATION_BOUND = 10


def max_strands() -> int:
    """Strand bound for algebra elements; FUSED_HECKE_MAX_STRANDS overrides."""
    text = os.environ.get("FUSED_HECKE_MAX_STRANDS", "9")
    try:
        bound = int(text)
    except ValueError:
        bound = 0
    if bound < 1:
        raise ParameterError(
            f"FUSED_HECKE_MAX_STRANDS must be a positive integer, got {text!r}"
        )
    return bound


def is_permutation(w) -> bool:
    """True iff w is a bijection of {1, ..., len(w)} in one-line notation."""
    return sorted(w) == list(range(1, len(w) + 1))


def identity(m: int) -> Perm:
    """The identity of S_m.

    >>> identity(3)
    (1, 2, 3)
    """
    if m < 1:
        raise DomainError("m must be a positive integer")
    return tuple(range(1, m + 1))


def inverse(w: Perm) -> Perm:
    """The inverse permutation.

    >>> inverse((2, 3, 1))
    (3, 1, 2)
    """
    inv = [0] * len(w)
    for i, x in enumerate(w, 1):
        inv[x - 1] = i
    return tuple(inv)


def length(w: Perm) -> int:
    """Number of inversions of w, i.e. its Coxeter length."""
    m = len(w)
    return sum(1 for i in range(m) for j in range(i + 1, m) if w[i] > w[j])


def simple_transposition(i: int, m: int) -> Perm:
    """The adjacent transposition s_i in S_m (1 <= i <= m-1)."""
    if not 1 <= i <= m - 1:
        raise DomainError(f"generator index {i} out of range for m={m}")
    w = list(range(1, m + 1))
    w[i - 1], w[i] = w[i], w[i - 1]
    return tuple(w)


@lru_cache(maxsize=None)
def reduced_word(w: Perm) -> tuple[int, ...]:
    """A canonical reduced word (i_1, ..., i_l) with s_{i_1}...s_{i_l} = w.

    Canonical choice: the descending staircase -- repeatedly move the largest
    misplaced value into place with adjacent transpositions.  The output has
    length equal to length(w).

    >>> reduced_word((2, 3, 1))
    (1, 2)
    """
    cur = list(w)
    word = []
    for v in range(len(w), 1, -1):
        p = cur.index(v) + 1
        for a in range(p, v):
            cur[a - 1], cur[a] = cur[a], cur[a - 1]
            word.append(a)
    # cur is now the identity and w = s_{word[-1]} ... s_{word[0]}
    word.reverse()
    return tuple(word)


def all_permutations(m: int):
    """All of S_m, each exactly once, lexicographic in one-line notation."""
    if m < 1:
        raise DomainError("m must be a positive integer")
    if m > ENUMERATION_BOUND:
        raise ResourceError(
            f"refusing to enumerate S_{m} (bound {ENUMERATION_BOUND})"
        )
    return list(itertools.permutations(range(1, m + 1)))

