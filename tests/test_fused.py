import dataclasses
import itertools
from fractions import Fraction as F

import pytest

from fusedhecke import (
    DomainError,
    FusedContext,
    ParameterError,
    PoleError,
    baxter_R_expansion,
    baxter_R_factorized,
    baxter_coefficients,
    classical_baxter_R,
    classical_baxter_R_factorized,
    classical_coefficients,
    element_diff,
    generator,
    minimal_polynomial_check,
    multiply,
    partial_braiding,
    partial_braiding_mixed,
    projector_P,
    symmetriser_sum,
    unit,
    verify_braided_ybe,
    verify_classical_ybe,
    verify_commPR,
    verify_mixed_ybe,
)
from fusedhecke import fused
from fusedhecke.fused import (
    _ADDITIVE,
    _expand,
    _multiplicative,
    _partial_braiding_words,
    baxter_R_one_sided,
    braiding_word,
    fused_element_to_obj,
    fused_product_example_check,
    projector_mixed,
)
from fusedhecke.hecke import _raw, r_check_generator, right_mul_generator, zero

import oracles

QS = [F(2), F(3, 2), F(5, 3)]


# -- context and projectors ----------------------------------------------------


def test_context_validation():
    FusedContext(2, 3, F(2))
    FusedContext(1, 2, F(2), ell=3)
    with pytest.raises(ParameterError):
        FusedContext(0, 2, F(2))
    with pytest.raises(ParameterError):
        FusedContext(2, 3, F(2), ell=3)  # mixed blocks force n = 2
    with pytest.raises(ParameterError):
        FusedContext(2, 2, F(0))


def test_projector_k1_is_unit():
    ctx = FusedContext(1, 3, F(2))
    assert projector_P(ctx) == unit(3, F(2))


def test_projector_two_blocks():
    q = F(2)
    ctx = FusedContext(2, 2, q)
    p = projector_P(ctx)
    assert len(p.terms) == 4
    s12 = symmetriser_sum(1, 2, 4, q)
    s34 = symmetriser_sum(3, 4, 4, q)
    assert p == multiply(s12, s34)
    assert multiply(p, p) == p


@pytest.mark.parametrize("q", QS)
@pytest.mark.parametrize("k,n", [(1, 2), (1, 3), (2, 2), (2, 3), (3, 2), (3, 3)])
def test_projector_idempotent(q, k, n):
    ctx = FusedContext(k, n, q)
    p = projector_P(ctx)
    assert multiply(p, p) == p


def test_projector_mixed():
    q = F(3, 2)
    p_kl, p_lk = projector_mixed(2, 2, q)
    both = projector_P(FusedContext(2, 2, q))
    assert p_kl == both and p_lk == both
    p12, p21 = projector_mixed(1, 2, q)
    assert p12 == symmetriser_sum(2, 3, 3, q)
    assert p21 == symmetriser_sum(1, 2, 3, q)
    for p in (p12, p21):
        assert multiply(p, p) == p


# -- partial braidings -----------------------------------------------------------


def test_braiding_word_shapes():
    assert braiding_word(2, 2, 0) == ()
    assert braiding_word(2, 2, 1) == (2,)
    assert braiding_word(2, 2, 2) == (2, 3, 1, 2)
    assert braiding_word(2, 3, 1) == (2, 3)


def test_partial_braiding_k1_is_generator():
    ctx = FusedContext(1, 3, F(2))
    for i in (1, 2):
        assert partial_braiding(ctx, i, 1) == generator(i, 3, F(2))


def test_partial_braiding_p0_is_projector():
    ctx = FusedContext(2, 3, F(2))
    assert partial_braiding(ctx, 1, 0) == projector_P(ctx)
    assert partial_braiding(ctx, 2, 0) == projector_P(ctx)


def test_full_braidings_satisfy_braid_relation():
    ctx = FusedContext(2, 3, F(2))
    a = partial_braiding(ctx, 1, 2)
    b = partial_braiding(ctx, 2, 2)
    assert multiply(multiply(a, b), a) == multiply(multiply(b, a), b)


def test_partial_braidings_far_commute():
    ctx = FusedContext(2, 4, F(2))
    for p in (1, 2):
        for pp in (1, 2):
            a = partial_braiding(ctx, 1, p)
            b = partial_braiding(ctx, 3, pp)
            assert multiply(a, b) == multiply(b, a)


@pytest.mark.parametrize("k,n", [(1, 3), (2, 2), (2, 3), (3, 2)])
def test_partial_braidings_sandwiched(k, n):
    ctx = FusedContext(k, n, F(2))
    p = projector_P(ctx)
    for i in range(1, n):
        for t in range(k + 1):
            sig = partial_braiding(ctx, i, t)
            assert multiply(p, sig) == sig
            assert multiply(sig, p) == sig


@pytest.mark.parametrize("q", [F(1), F(-1)])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_full_braidings_are_involutions_at_classical_q(q, k):
    ctx = FusedContext(k, 2, q)
    sig = partial_braiding(ctx, 1, k)
    assert multiply(sig, sig) == projector_P(ctx)


def test_braiding_index_errors():
    ctx = FusedContext(2, 2, F(2))
    with pytest.raises(DomainError):
        partial_braiding(ctx, 1, 3)
    with pytest.raises(DomainError):
        partial_braiding(ctx, 2, 1)


# -- coefficients -----------------------------------------------------------------


def test_coefficients_k1():
    q, u = F(2), F(3, 7)
    c = baxter_coefficients(1, 1, u, q)
    assert c.values == (-(q - 1 / q) / (1 - u), F(1))


def test_coefficients_k2():
    q, u = F(2), F(3, 7)
    c = baxter_coefficients(2, 2, u, q)
    a0 = q**2 * (1 - q**-2) * (1 - q**-4) / ((1 - u) * (1 - u * q**-2))
    a1 = -(q + 1 / q) * (q**2 - q**-2) / (1 - u * q**-2)
    assert c.values == (a0, a1, F(1))


@pytest.mark.parametrize("k", [1, 2, 3])
def test_top_coefficient_is_one(k):
    assert baxter_coefficients(k, k, F(3, 7), F(2)).values[k] == 1
    assert baxter_coefficients(k, k + 1, F(3, 7), F(2)).values[k] == 1


def test_coefficient_pole_names_factor():
    with pytest.raises(PoleError) as err:
        baxter_coefficients(2, 2, F(4), F(2))  # u = q^2
    assert "q^(-2*" in str(err.value)


def test_classical_coefficients():
    assert classical_coefficients(2, F(7, 2)) == (F(8, 35), F(8, 5), F(1))
    assert classical_coefficients(3, F(9, 2))[3] == F(1)
    with pytest.raises(ParameterError):
        classical_coefficients(2, F(1))


# -- baxterised elements ------------------------------------------------------------


def test_expansion_k1_matches_two_term_form():
    q, u = F(2), F(3, 5)
    ctx = FusedContext(1, 3, q)
    for i in (1, 2):
        assert baxter_R_expansion(ctx, i, u) == r_check_generator(i, u, 3, q)


def test_expansion_k2_three_terms():
    q, u = F(2), F(3, 7)
    ctx = FusedContext(2, 2, q)
    c = baxter_coefficients(2, 2, u, q).values
    manual = zero(4, q)
    for p in range(3):
        manual = manual + partial_braiding(ctx, 1, p).scale(c[p])
    got = baxter_R_expansion(ctx, 1, u)
    assert got == manual
    support = set().union(*(partial_braiding(ctx, 1, p).terms for p in range(3)))
    assert set(got.terms) <= support


def test_factorized_1_1_is_bare_generator():
    q, u = F(2), F(3, 5)
    assert baxter_R_factorized(1, 1, u, q) == r_check_generator(1, u, 2, q)


@pytest.mark.parametrize("q,u", [(F(2), F(3, 7)), (F(3, 2), F(5, 9))])
def test_factorized_equals_expansion_k2(q, u):
    ctx = FusedContext(2, 2, q)
    assert baxter_R_factorized(2, 2, u, q) == baxter_R_expansion(ctx, 1, u)


@pytest.mark.parametrize("k", [1, 2])
def test_one_sided_form_equals_two_sided(k):
    q, u = F(2), F(3, 7)
    assert baxter_R_one_sided(k, u, q) == baxter_R_factorized(k, k, u, q)


def test_factorized_pole_reports_strand():
    with pytest.raises(PoleError):
        baxter_R_factorized(1, 2, F(1, 4), F(2))  # argument u q^2 hits 1


# -- Yang-Baxter checks ---------------------------------------------------------------


def test_braided_ybe_k1():
    ctx = FusedContext(1, 3, F(2))
    assert verify_braided_ybe(ctx, F(3, 5), F(7, 11))


def test_braided_ybe_symmetric_point():
    ctx = FusedContext(1, 3, F(2))
    assert verify_braided_ybe(ctx, F(3, 5), F(3, 5))


def test_braided_ybe_k2_direct_and_fast_agree():
    ctx = FusedContext(2, 3, F(2))
    u, v = F(3, 7), F(5, 9)
    assert verify_braided_ybe(ctx, u, v, method="direct")
    assert verify_braided_ybe(ctx, u, v, method="fast")


def test_braided_ybe_printed_variant_fails():
    # the right-hand side with a repeated final argument is not an identity;
    # the standard form with arguments swapped across the sides is
    q, u, v = F(2), F(3, 5), F(7, 11)
    ctx = FusedContext(1, 3, q)
    r = lambda i, w: baxter_R_expansion(ctx, i, w)
    lhs = multiply(multiply(r(1, u), r(2, u * v)), r(1, v))
    bad_rhs = multiply(multiply(r(2, v), r(1, u * v)), r(2, v))
    assert lhs != bad_rhs
    good_rhs = multiply(multiply(r(2, v), r(1, u * v)), r(2, u))
    assert lhs == good_rhs


def test_mixed_ybe_reduces_to_h3_case():
    assert verify_mixed_ybe(1, 1, 1, F(3, 5), F(7, 11), F(2))


def test_mixed_ybe_examples():
    assert verify_mixed_ybe(1, 1, 2, F(3, 7), F(5, 11), F(2))
    assert verify_mixed_ybe(1, 2, 2, F(2, 7), F(3, 8), F(3, 2))


def test_comm_pr():
    assert verify_commPR(1, 1, F(3, 5), F(2))
    assert verify_commPR(2, 2, F(3, 7), F(2))
    assert verify_commPR(1, 2, F(2, 5), F(3, 2))


def test_verify_result_reports_diff():
    ctx = FusedContext(2, 2, F(2))
    d = element_diff(projector_P(ctx), partial_braiding(ctx, 1, 2))
    assert d is not None
    assert d.left != d.right


# -- minimal polynomial -----------------------------------------------------------------


def test_minimal_polynomial_k1_is_hecke_quadratic():
    q = F(2)
    ctx = FusedContext(1, 2, q)
    assert minimal_polynomial_check(ctx)
    g = generator(1, 2, q)
    prod = multiply(g + unit(2, q).scale(1 / q), g - unit(2, q).scale(q))
    assert prod.is_zero()


@pytest.mark.parametrize("k,q", [(2, F(2)), (2, F(3, 2)), (3, F(3, 2))])
def test_minimal_polynomial(k, q):
    assert minimal_polynomial_check(FusedContext(k, 2, q))


# -- classical degeneration ---------------------------------------------------------------


def test_classical_k1_is_yang_solution():
    mu = F(7, 2)
    got = classical_baxter_R(1, 3, 1, mu)
    assert got == generator(1, 3, F(1)) + unit(3, F(1)).scale(1 / mu)


@pytest.mark.parametrize("k", [1, 2])
def test_classical_factorized_equals_expansion(k):
    for mu in (F(7, 2), F(-5, 3)):
        assert classical_baxter_R_factorized(k, mu) == classical_baxter_R(k, 2, 1, mu)


def test_classical_ybe_small():
    assert verify_classical_ybe(1, 3, F(7, 2), F(9, 4))
    assert verify_classical_ybe(2, 3, F(7, 2), F(9, 4), method="direct")
    assert verify_classical_ybe(2, 3, F(7, 2), F(9, 4), method="fast")


def test_classical_pole():
    with pytest.raises(ParameterError):
        classical_baxter_R(2, 2, 1, F(1))


# -- the worked two-ellipse product ------------------------------------------------------


def test_fused_product_example():
    r2 = fused_product_example_check(F(2))
    r32 = fused_product_example_check(F(3, 2))
    assert r2.ok and r32.ok
    assert r2.interpretation == r32.interpretation == "over"


def test_fused_product_classical_degeneration():
    # at q = 1 the combination degenerates to (P + 2 X + X2) / 4
    q = F(1)
    ctx = FusedContext(2, 2, q)
    p = projector_P(ctx)
    x1 = partial_braiding(ctx, 1, 1)
    x2 = partial_braiding(ctx, 1, 2)
    lhs = multiply(x1, x1)
    assert lhs == (p + x1.scale(2) + x2).scale(F(1, 4))
    assert fused_product_example_check(q).ok


# -- mixed braidings and serialization ------------------------------------------------------


def test_mixed_braiding_reduces_to_unmixed():
    q = F(2)
    ctx = FusedContext(2, 2, q)
    for p in range(3):
        assert partial_braiding_mixed(2, 2, p, q) == partial_braiding(ctx, 1, p)


def test_fused_serialization_header():
    ctx = FusedContext(2, 2, F(2))
    obj = fused_element_to_obj(partial_braiding(ctx, 1, 1), 2, 2)
    assert obj["kind"] == "fused"
    assert obj["k"] == 2 and obj["n"] == 2
    assert obj["strands"] == 4


# -- the shared YBE chain with a wrong coefficient ---------------------------------------------


def _bump_baxter(monkeypatch):
    orig = fused.baxter_coefficients

    def bumped(k, ell, u, q):
        c = orig(k, ell, u, q)
        return dataclasses.replace(c, values=(c.values[0] + 1,) + c.values[1:])

    monkeypatch.setattr(fused, "baxter_coefficients", bumped)


def _bump_classical(monkeypatch):
    orig = fused.classical_coefficients

    def bumped(k, mu):
        c = orig(k, mu)
        return (c[0] + 1,) + c[1:]

    monkeypatch.setattr(fused, "classical_coefficients", bumped)


# (perturbation, verifier taking the method, first spectral argument)
PERTURBED_CHAINS = {
    "multiplicative": (
        _bump_baxter,
        lambda method: verify_braided_ybe(
            FusedContext(2, 3, F(2)), F(3, 7), F(5, 9), method=method
        ),
        F(3, 7),
    ),
    "additive": (
        _bump_classical,
        lambda method: verify_classical_ybe(2, 3, F(7, 2), F(9, 4), method=method),
        F(7, 2),
    ),
}


@pytest.mark.parametrize("case", PERTURBED_CHAINS)
def test_ybe_direct_fails_on_wrong_coefficient(monkeypatch, case):
    bump, verify, _ = PERTURBED_CHAINS[case]
    bump(monkeypatch)
    res = verify("direct")
    assert not res.ok
    assert res.diff is not None and res.diff.left != res.diff.right


@pytest.mark.parametrize("method", ["drect", "Fast", ""])
def test_braided_ybe_unknown_method_raises(method):
    # a misspelt method must not fall through to the fast chain
    with pytest.raises(ParameterError, match="unknown method"):
        verify_braided_ybe(FusedContext(1, 3, F(2)), F(3, 5), F(7, 11), method=method)


@pytest.mark.parametrize("method", ["drect", "Fast", ""])
def test_classical_ybe_unknown_method_raises(method):
    with pytest.raises(ParameterError, match="unknown method"):
        verify_classical_ybe(1, 3, F(7, 2), F(9, 4), method=method)


@pytest.mark.parametrize("case", PERTURBED_CHAINS)
def test_ybe_fast_rejects_wrong_coefficient(monkeypatch, case):
    bump, verify, first = PERTURBED_CHAINS[case]
    bump(monkeypatch)
    with pytest.raises(ParameterError, match="factorised/expanded") as err:
        verify("fast")
    assert f"argument {first}," in str(err.value)


# the fast chains of PERTURBED_CHAINS, run in the standard basis
STANDARD_FAST_CHAINS = {
    "multiplicative": lambda: oracles.fast_ybe(
        FusedContext(2, 3, F(2)), F(3, 7), F(5, 9), 1, _multiplicative(F(2))
    ),
    "additive": lambda: oracles.fast_ybe(
        FusedContext(2, 3, F(1)), F(7, 2), F(9, 4), 1, _ADDITIVE
    ),
}


@pytest.mark.parametrize("case", PERTURBED_CHAINS)
def test_ybe_fast_chain_gives_the_standard_basis_diff(monkeypatch, case):
    # with the factorised/expanded check off, the wrong coefficient reaches
    # the word chain, which must fail with the standard-basis chain's Diff
    bump, verify, _ = PERTURBED_CHAINS[case]
    bump(monkeypatch)
    monkeypatch.setattr(fused, "_assert_lemma_equivalence", lambda *args: None)
    res = verify("fast")
    assert not res.ok
    assert res == STANDARD_FAST_CHAINS[case]()


def test_mixed_ybe_wrong_constant_gives_the_standard_basis_diff(monkeypatch):
    # the grid constant at shift 0 of R(u) raised by one, on both sides
    k, l, m, q, u, v = 1, 2, 2, F(3, 2), F(2, 7), F(3, 8)
    orig = fused._r_check_constant
    monkeypatch.setattr(
        fused, "_r_check_constant", lambda arg, q: orig(arg, q) + (1 if arg == u else 0)
    )
    res = verify_mixed_ybe(k, l, m, u, v, q)
    assert not res.ok
    assert res.diff.left != res.diff.right
    assert res == oracles.mixed_ybe(k, l, m, u, v, q)


# -- the word path against the standard-basis chains ----------------------------------------------


@pytest.mark.parametrize("q", [F(2), F(1), F(-1)], ids=str)
def test_word_kernel_is_the_action_on_the_module(q):
    # P * sigma_d * sigma_i for every word of the blocks [1, 2], [3, 4]
    for word in sorted(set(itertools.permutations((1, 1, 3, 3)))):
        x = _raw(4, q, {word: F(1)})
        for i in (1, 2, 3):
            want = multiply(_expand(x), generator(i, 4, q))
            assert _expand(right_mul_generator(x, i)) == want


@pytest.mark.parametrize("q", [F(2), F(3, 2), F(1)], ids=str)
@pytest.mark.parametrize("k,ell", [(1, 1), (1, 2), (1, 3), (2, 2), (2, 3), (3, 3)])
def test_word_path_matches_standard_chain(k, ell, q):
    for p in range(k + 1):
        assert partial_braiding_mixed(k, ell, p, q) == oracles.partial_braiding_mixed(
            k, ell, p, q
        )
    u = F(3, 7)
    assert baxter_R_factorized(k, ell, u, q) == oracles.factorised(
        k, ell, u, _multiplicative(q)
    )
    if k != ell:
        return
    for n in (2, 3) if k < 3 else (2,):
        ctx = FusedContext(k, n, q)
        assert projector_P(ctx) == oracles.projector(ctx.strands, q, ctx.blocks())
        for i in range(1, n):
            for p in range(k + 1):
                assert partial_braiding(ctx, i, p) == oracles.partial_braiding(ctx, i, p)
    if q == 1:
        mu = F(7, 2)
        assert classical_baxter_R_factorized(k, mu) == oracles.factorised(k, k, mu, _ADDITIVE)


@pytest.mark.parametrize("k,ell", [(2, 2), (2, 3), (3, 3)])
def test_word_path_at_q_minus_one(k, ell):
    # an equal-letter swap picks up q = -1, which a pure re-keying would drop
    q, u = F(-1), F(3, 5)
    assert baxter_R_factorized(k, ell, u, q) == oracles.factorised(
        k, ell, u, _multiplicative(q)
    )


# -- cached results are read-only --------------------------------------------------------------


CACHED_ELEMENTS = {
    "symmetriser_sum": lambda: symmetriser_sum(1, 2, 4, F(2)),
    "projector_P": lambda: projector_P(FusedContext(2, 2, F(2))),
    "partial_braiding": lambda: partial_braiding(FusedContext(2, 2, F(2)), 1, 1),
    "partial_braiding_mixed": lambda: partial_braiding_mixed(1, 2, 1, F(2)),
    "_partial_braiding_words": lambda: _partial_braiding_words(FusedContext(2, 2, F(2)), 1, 1),
}


@pytest.mark.parametrize("name", CACHED_ELEMENTS)
def test_cached_element_is_read_only(name):
    get = CACHED_ELEMENTS[name]
    before = dict(get().terms)
    with pytest.raises(AttributeError):
        get().terms.clear()
    with pytest.raises(TypeError):
        get().terms[next(iter(before))] = F(99)
    assert get().terms == before
