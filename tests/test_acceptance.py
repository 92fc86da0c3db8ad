"""Acceptance suite: one test per criterion, every check exact (tolerance 0).

Each test prints a PASS line with its runtime; run with `pytest tests/test_acceptance.py -v -s`.
The H_12 stretch checks are marked slow and excluded by default.
"""

import time
from fractions import Fraction as F

import pytest

from fusedhecke import (
    FusedContext,
    HeckeElement,
    baxter_R_factorized,
    baxter_coefficients,
    classical_baxter_R,
    classical_coefficients,
    classical_fused_R_matrix,
    generator,
    minimal_polynomial_check,
    multiply,
    partial_braiding_mixed,
    sigma_matrix,
    symmetriser_product,
    symmetriser_sum,
    verify_braided_ybe,
    verify_classical_ybe,
    verify_matrix_ybe,
    verify_mixed_ybe,
)
from fusedhecke.fused import classical_baxter_R_factorized, fused_product_example_check
from fusedhecke.reference_data import (
    reference_coefficients_k1,
    reference_coefficients_k2,
    reference_sigma_k2N2,
)
from oracles import classical_sigma_direct, mat_equal, symmetriser_recursion_check, zeros

QS = [F(2), F(3, 2), F(5, 3)]

# pole-safe (q, u, v) triples for every fusion level used below
TRIPLES = [
    (F(2), F(3, 5), F(7, 11)),
    (F(3, 2), F(2, 7), F(3, 8)),
    (F(5, 3), F(3, 7), F(5, 9)),
]

CLASSICAL_POINTS = [(F(7, 2), F(9, 4)), (F(-5, 3), F(7, 5))]


def _report(number, label, t0):
    print(f"[acceptance] criterion {number:02d} ({label}): PASS ({time.time() - t0:.2f}s)")


def test_criterion_01_reference_matrices():
    t0 = time.time()
    for q in QS:
        want_partial, want_full = reference_sigma_k2N2(q)
        assert mat_equal(sigma_matrix(2, 1, 2, q), want_partial), q
        assert mat_equal(sigma_matrix(2, 2, 2, q), want_full), q
    _report(1, "k=2 N=2 crossing matrices at 3 q values", t0)


def test_criterion_02_baxterisation_coefficients():
    t0 = time.time()
    points = [(F(2), F(3, 7)), (F(3, 2), F(5, 9)), (F(5, 3), F(2, 11))]
    for q, u in points:
        assert baxter_coefficients(1, 1, u, q).values == reference_coefficients_k1(u, q)
        assert baxter_coefficients(2, 2, u, q).values == reference_coefficients_k2(u, q)
    _report(2, "coefficient closed forms k=1 and k=2", t0)


def test_criterion_03_algebra_ybe():
    t0 = time.time()
    for k in (1, 2):
        for q, u, v in TRIPLES:
            ctx = FusedContext(k, 3, q)
            assert verify_braided_ybe(ctx, u, v), (k, q, u, v)
            # the standard-basis product stays an independent oracle
            assert verify_braided_ybe(ctx, u, v, method="direct"), (k, q, u, v)
    _report(3, "braided YBE in the algebra for (k,n)=(1,3),(2,3)", t0)


def test_criterion_03_stretch_k3():
    t0 = time.time()
    q, u, v = TRIPLES[0]
    ctx = FusedContext(3, 3, q)
    assert verify_braided_ybe(ctx, u, v, method="fast")
    _report(3, "stretch: braided YBE for (k,n)=(3,3) in H_9", t0)


@pytest.mark.slow
@pytest.mark.parametrize("form", ["generic", "classical"])
def test_criterion_03_stretch_k4(monkeypatch, form):
    monkeypatch.setenv("FUSED_HECKE_MAX_STRANDS", "12")
    t0 = time.time()
    if form == "generic":
        q, u, v = TRIPLES[0]
        assert verify_braided_ybe(FusedContext(4, 3, q), u, v, method="fast")
    else:
        mu, nu = CLASSICAL_POINTS[0]
        assert verify_classical_ybe(4, 3, mu, nu, method="fast")
    _report(3, f"stretch: {form} braided YBE for (k,n)=(4,3) in H_12", t0)


def test_criterion_04_factorised_vs_expanded():
    t0 = time.time()
    for (k, ell) in [(1, 1), (1, 2), (1, 3), (2, 2), (2, 3), (3, 3)]:
        for q, u, _ in TRIPLES:
            fac = baxter_R_factorized(k, ell, u, q)
            coeffs = baxter_coefficients(k, ell, u, q).values
            exp = HeckeElement(k + ell, q)
            for p, a in enumerate(coeffs):
                exp = exp + partial_braiding_mixed(k, ell, p, q).scale(a)
            assert fac == exp, (k, ell, q, u)
    _report(4, "fused product equals braiding expansion, 6 block pairs", t0)


def test_criterion_05_mixed_ybe():
    t0 = time.time()
    points = [(F(2), F(3, 7), F(5, 11)), (F(3, 2), F(2, 7), F(3, 8))]
    for (k, l, m) in [(1, 1, 2), (1, 2, 2), (2, 2, 2), (1, 1, 3)]:
        for q, u, v in points:
            assert verify_mixed_ybe(k, l, m, u, v, q), (k, l, m, q)
    _report(5, "mixed YBE for four block triples", t0)


def test_criterion_06_minimal_polynomial():
    t0 = time.time()
    for k in (1, 2, 3):
        ctx = FusedContext(k, 2, F(2))
        assert minimal_polynomial_check(ctx), k
    _report(6, "degree k+1 minimal polynomial with minimality, k <= 3", t0)


def test_criterion_07_matrix_ybe():
    t0 = time.time()
    pairs = [(1, 2), (1, 3), (2, 2), (2, 3), (3, 2), (2, 4), (3, 3), (4, 2)]
    points = [(F(2), F(3, 5), F(7, 11)), (F(3, 2), F(2, 7), F(3, 8))]
    for (k, N) in pairs:
        for q, u, v in points:
            assert verify_matrix_ybe(k, N, u, v, q), (k, N, q)
    _report(7, "matrix YBE on W^3 for eight (k,N) pairs", t0)


def test_criterion_08_classical_limit():
    t0 = time.time()
    for k in (1, 2, 3):
        for mu, nu in CLASSICAL_POINTS:
            assert verify_classical_ybe(k, 3, mu, nu), (k, mu, nu)
            if k <= 2:
                assert verify_classical_ybe(k, 3, mu, nu, method="direct"), (k, mu, nu)
    # expansion and fused-product forms agree at q = 1
    for k in (1, 2, 3):
        for mu, _ in CLASSICAL_POINTS:
            assert classical_baxter_R_factorized(k, mu) == classical_baxter_R(k, 2, 1, mu)
    # matrix-side coefficients at q = 1 are the classical coefficients over
    # the q = 1 braiding matrices, independently recomputed
    mu = F(7, 2)
    coeffs = classical_coefficients(2, mu)
    manual = zeros(9, 9)
    for p, c in enumerate(coeffs):
        manual = manual + classical_sigma_direct(2, p, 2) * c
    assert mat_equal(classical_fused_R_matrix(2, 2, mu), manual)
    assert coeffs == (F(8, 35), F(8, 5), F(1))
    _report(8, "additive YBE at q=1 for k <= 3 plus coefficient agreement", t0)


def test_criterion_09_symmetriser_identities():
    t0 = time.time()
    m = 4
    for q in QS:
        for i in range(1, m):
            for j in range(i + 1, m + 1):
                s = symmetriser_sum(i, j, m, q)
                assert multiply(s, s) == s, (i, j, q)
                for a in range(i, j):
                    g = generator(a, m, q)
                    assert multiply(g, s) == s.scale(q)
                    assert multiply(s, g) == s.scale(q)
                assert symmetriser_product(i, j, m, q) == s, (i, j, q)
                if j < m:
                    assert symmetriser_recursion_check(i, j, m, q), (i, j, q)
    _report(9, "symmetriser identities exhaustive in H_4 at 3 q values", t0)


def test_criterion_10_worked_product():
    t0 = time.time()
    results = [fused_product_example_check(q) for q in (F(2), F(3, 2))]
    assert all(r.ok for r in results)
    interpretations = {r.interpretation for r in results}
    assert len(interpretations) == 1
    print(f"[acceptance] worked product crossing interpretation: "
          f"all-{interpretations.pop()}")
    _report(10, "two-ellipse worked product at q = 2 and 3/2", t0)
