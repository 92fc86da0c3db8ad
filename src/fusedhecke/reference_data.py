"""Known closed forms used by the `reproduce-paper` command and the
acceptance suite: the two 9x9 partial-braiding matrices for k = 2, N = 2
(with lam = q - 1/q and tq = q + 1/q), the k = 1 and k = 2 baxterisation
coefficients, and the coefficients of the two-ellipse worked product, which
fused.fused_product_example_check reads.

These are transcriptions entered by hand, independent of the computation
paths they certify.  The matrices are entered as rows of Fractions, which
the `reproduce-paper` command compares without numpy; reference_sigma_k2N2
returns them as numpy object arrays.
"""

from __future__ import annotations

from fractions import Fraction

from . import linalg
from .qnumbers import as_fraction


def reference_sigma_k2N2(q):
    """The pair (partial, full) of 9x9 crossing matrices for k=2, N=2."""
    return tuple(linalg.fmat(rows) for rows in _reference_sigma_k2N2_rows(q))


def _reference_sigma_k2N2_rows(q):
    """reference_sigma_k2N2 as two lists of rows of Fractions."""
    q = as_fraction(q)
    lam = q - 1 / q
    tq = q + 1 / q
    o = Fraction(0)
    m1 = [
        [q, o, o, o, o, o, o, o, o],
        [o, q - q**-2 / tq, o, 1 / tq, o, o, o, o, o],
        [o, o, lam, o, q**2 / tq**2, o, o, o, o],
        [o, 1 / tq, o, 1 / tq, o, o, o, o, o],
        [o, o, 1, o, (2 - q**-2) / tq, o, q**-2, o, o],
        [o, o, o, o, o, q - q**-2 / tq, o, 1 / tq, o],
        [o, o, o, o, 1 / tq**2, o, o, o, o],
        [o, o, o, o, o, 1 / tq, o, 1 / tq, o],
        [o, o, o, o, o, o, o, o, q],
    ]
    m2 = [
        [q**4, o, o, o, o, o, o, o, o],
        [o, q**2 * tq * lam, o, q**2, o, o, o, o, o],
        [o, o, q * tq * lam**2, o, q**2 * lam, o, 1, o, o],
        [o, q**2, o, o, o, o, o, o, o],
        [o, o, tq**2 * lam, o, q**2, o, o, o, o],
        [o, o, o, o, o, q**2 * tq * lam, o, q**2, o],
        [o, o, 1, o, o, o, o, o, o],
        [o, o, o, o, o, q**2, o, o, o],
        [o, o, o, o, o, o, o, o, q**4],
    ]
    return tuple([[Fraction(v) for v in row] for row in m] for m in (m1, m2))


def reference_coefficients_k1(u, q):
    """(a_0, a_1) for k = 1: the two-term baxterised generator."""
    q, u = as_fraction(q), as_fraction(u)
    return (-(q - 1 / q) / (1 - u), Fraction(1))


def reference_coefficients_k2(u, q):
    """(a_0, a_1, a_2) for k = 2."""
    q, u = as_fraction(q), as_fraction(u)
    a0 = q**2 * (1 - q**-2) * (1 - q**-4) / ((1 - u) * (1 - u * q**-2))
    a1 = -(q + 1 / q) * (q**2 - q**-2) / (1 - u * q**-2)
    return (a0, a1, Fraction(1))


def reference_h22_product_coefficients(q):
    """(c_identity, c_partial, c_full) of the two-ellipse worked product,
    all scaled by 1/(1+q^2)^2."""
    q = as_fraction(q)
    s = 1 / (1 + q**2) ** 2
    return (s, s * (q - 1 / q + 2 * q**3), s * q**2)
