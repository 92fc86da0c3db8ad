"""Exact q-combinatorial scalars over arbitrary-precision rationals.

All coefficients in this package live in the field of rationals, represented
by `fractions.Fraction` (always in lowest terms, positive denominator).  The
deformation parameter q and the spectral parameters u, v are specialised to
nonzero rationals, which makes every identity downstream an exact boolean
question.

The classical point q**2 == 1 is handled as a genuine special case: the
q-numbers take their continuous limit values there instead of failing on
0/0.
"""

from __future__ import annotations

import inspect
import re
import sys
from fractions import Fraction
from functools import lru_cache, wraps
from math import log10

from .errors import ParameterError, ResourceError

_RATIONAL_RE = re.compile(r"^[+-]?\d+(?:/[1-9]\d*)?$")


def as_fraction(x) -> Fraction:
    """Coerce an int, string or Fraction into a Fraction.

    Strings must match the serialization grammar "p" or "p/q" with the sign
    on the numerator only.  A bool is not read as 0 or 1.
    """
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int) and not isinstance(x, bool):
        return Fraction(x)
    if isinstance(x, str):
        return parse_rational(x)
    raise ParameterError(f"cannot interpret {x!r} as an exact rational")


def as_q(x) -> Fraction:
    """The deformation parameter q as a Fraction (see as_fraction); every
    input q enters here, where q = 0 is rejected."""
    q = as_fraction(x)
    if q == 0:
        raise ParameterError("q must be nonzero")
    return q


def _cached_on_q(fn):
    """fn behind one typed lru_cache keyed on q as as_q parses it: bound to fn's
    signature first, every spelling of one q, positional or keyword, shares an
    entry, and a bad or unhashable q raises ParameterError before the lookup."""
    signature = inspect.signature(fn)
    arity, at = len(signature.parameters), list(signature.parameters).index("q")
    cached = lru_cache(maxsize=None, typed=True)(fn)

    @wraps(fn)
    def call(*args, **kwargs):
        if kwargs or len(args) != arity:
            args = signature.bind(*args, **kwargs).args
        return cached(*args[:at], as_q(args[at]), *args[at + 1:])

    call.cache_info, call.cache_clear = cached.cache_info, cached.cache_clear
    return call


def parse_rational(text: str) -> Fraction:
    """Parse "p" or "p/q" (decimal digits, sign on the numerator only).

    >>> parse_rational("-3/7")
    Fraction(-3, 7)
    >>> parse_rational("12")
    Fraction(12, 1)
    """
    body = text.strip()
    if not _RATIONAL_RE.match(body):
        raise ParameterError(f"not a rational in p/q form: {text!r}")
    try:
        return Fraction(body)
    except ValueError:
        digits = max(len(part.lstrip("+-")) for part in body.split("/"))
        raise ParameterError(
            f"a rational with {digits} digits exceeds the limit of "
            f"{sys.get_int_max_str_digits()} digits on reading an integer"
        ) from None


def format_rational(x: Fraction) -> str:
    """Serialize a Fraction as "p" or "p/q" (sign on the numerator)."""
    x = Fraction(x)
    try:
        if x.denominator == 1:
            return str(x.numerator)
        return f"{x.numerator}/{x.denominator}"
    except ValueError:
        bits = max(abs(x.numerator).bit_length(), x.denominator.bit_length())
        raise ResourceError(
            f"a rational of about {int(bits * log10(2)) + 1} digits exceeds the limit "
            f"of {sys.get_int_max_str_digits()} digits on printing an integer"
        ) from None


def q_int(L: int, q) -> Fraction:
    """The q-number [L]_q = (q**L - q**-L) / (q - q**-1).

    At q**2 == 1 this returns the limit value L * q**(L-1).

    >>> q_int(3, Fraction(2))
    Fraction(21, 4)
    >>> q_int(4, 1), q_int(4, -1)
    (Fraction(4, 1), Fraction(-4, 1))
    """
    q = as_q(q)
    if L < 0:
        raise ParameterError("q_int needs L >= 0")
    if q * q == 1:
        return L * q ** (L - 1) if L else Fraction(0)
    return (q**L - q**-L) / (q - 1 / q)


def q_factorial(L: int, q) -> Fraction:
    """[L]_q! = [1]_q [2]_q ... [L]_q, with [0]_q! = 1."""
    q = as_fraction(q)
    if L < 0:
        raise ParameterError("q_factorial needs L >= 0")
    out = Fraction(1)
    for r in range(1, L + 1):
        out *= q_int(r, q)
    return out


def q_binomial(L: int, p: int, q) -> Fraction:
    """The q-binomial [L]_q! / ([L-p]_q! [p]_q!).

    >>> q_binomial(2, 1, Fraction(2))
    Fraction(5, 2)
    >>> q_binomial(4, 2, 1)
    Fraction(6, 1)
    """
    q = as_fraction(q)
    if not 0 <= p <= L:
        raise ParameterError(f"q_binomial needs 0 <= p <= L, got L={L}, p={p}")
    return q_factorial(L, q) / (q_factorial(L - p, q) * q_factorial(p, q))


def q_pochhammer(a, q, p: int) -> Fraction:
    """(a; q)_p = prod_{r=0}^{p-1} (1 - a q**r), with (a; q)_0 = 1."""
    a = as_fraction(a)
    q = as_fraction(q)
    if p < 0:
        raise ParameterError("q_pochhammer needs p >= 0")
    out = Fraction(1)
    for r in range(p):
        out *= 1 - a * q**r
    return out


def brace_int(L: int, q) -> Fraction:
    """The two-parameter count 1 + q**2 + ... + q**(2(L-1)).

    Equals (q**(2L) - 1)/(q**2 - 1) away from q**2 == 1, and L there.

    >>> brace_int(3, Fraction(2))
    Fraction(21, 1)
    """
    q = as_q(q)
    if q * q == 1:
        return Fraction(L)
    return (q ** (2 * L) - 1) / (q * q - 1)
