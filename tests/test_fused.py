import functools
import itertools
import math
import random
import re
from fractions import Fraction as F
from types import MappingProxyType

import pytest

from fusedhecke import (
    DomainError,
    FusedContext,
    HeckeElement,
    InternalConsistencyError,
    ParameterError,
    PoleError,
    ResourceError,
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
from fusedhecke import fused, hecke, reference_data
from fusedhecke.fused import (
    _ADDITIVE,
    _expand,
    _multiplicative,
    _partial_braiding_words,
    braiding_word,
    fused_element_to_obj,
    fused_product_example_check,
)
from fusedhecke.hecke import _scaled, _scaled_affine, _scaled_sum
from fusedhecke.permutations import (
    all_permutations,
    identity,
    length,
    simple_transposition,
)
from fusedhecke.qnumbers import q_binomial, q_pochhammer

import oracles
from oracles import baxter_R_one_sided, compose, projector_mixed, r_check_generator

QS = [F(2), F(3, 2), F(5, 3)]


# -- context and projectors ----------------------------------------------------


def test_context_validation():
    FusedContext(2, 3, F(2))
    with pytest.raises(ParameterError):
        FusedContext(0, 2, F(2))
    with pytest.raises(ParameterError):
        FusedContext(2, 2, F(0))
    # mixed block sizes have their own functions, not a context option
    with pytest.raises(TypeError):
        FusedContext(1, 2, F(2), ell=3)


def test_projector_k1_is_unit():
    ctx = FusedContext(1, 3, F(2))
    assert projector_P(ctx) == unit(3, F(2))


def _sum_formula_product(m, q, intervals):
    """The standard-basis product of the symmetriser_sum blocks."""
    return functools.reduce(multiply, (symmetriser_sum(lo, hi, m, q) for lo, hi in intervals))


@pytest.mark.parametrize("q", [F(2), F(3, 2), F(-5, 7), F(1), F(-1)], ids=str)
@pytest.mark.parametrize("k,n", [(2, 2), (2, 3), (3, 2), (2, 4), (3, 3)])
def test_projector_two_blocks(k, n, q):
    # the projectors are symmetriser passes from the identity; the closed
    # sum formula, multiplied out in the standard basis, is the reference
    ctx = FusedContext(k, n, q)
    p = projector_P(ctx)
    assert len(p.terms) == math.factorial(k) ** n
    assert p == _sum_formula_product(ctx.strands, q, ctx.blocks())
    m = k + n
    p_kn, p_nk = projector_mixed(k, n, q)
    assert p_kn == _sum_formula_product(m, q, [(1, k), (k + 1, m)])
    assert p_nk == _sum_formula_product(m, q, [(1, n), (n + 1, m)])


@pytest.mark.parametrize("q", QS)
@pytest.mark.parametrize("k,n", [(1, 2), (1, 3), (2, 2), (2, 3), (3, 2), (3, 3)])
def test_projector_idempotent(q, k, n):
    ctx = FusedContext(k, n, q)
    p = projector_P(ctx)
    assert multiply(p, p) == p


def test_projectors_obey_the_strand_bound(monkeypatch):
    # P starts as an element of H_m, so the bound applies however few terms it has
    monkeypatch.delenv("FUSED_HECKE_MAX_STRANDS", raising=False)
    with pytest.raises(ResourceError, match="^10 strands exceeds the bound 9"):
        projector_P(FusedContext(1, 10, F(2)))
    with pytest.raises(ResourceError, match="^10 strands exceeds the bound 9"):
        projector_mixed(2, 8, F(2))


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


def _word_perm(word, m):
    """The permutation s_{a_1} s_{a_2} ... of a generator word."""
    w = identity(m)
    for a in word:
        w = compose(w, simple_transposition(a, m))
    return w


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_braiding_word_and_its_reverse_are_reduced_words_of_one_involution(k):
    # tensorrep runs the chain in word order where the operator sigma_word
    # applies its last letter first: this is why both give one element
    for p in range(k + 1):
        word = braiding_word(k, k, p)
        w = _word_perm(word, 2 * k)
        assert _word_perm(reversed(word), 2 * k) == w
        assert length(w) == len(word) == p * p
        assert compose(w, w) == identity(2 * k)


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


@pytest.mark.parametrize("call, error, message", [
    (lambda: partial_braiding_mixed(3, 2, 0, F(2)), DomainError,
     "mixed braidings need ell >= k"),
    (lambda: partial_braiding_mixed(2, 3, 3, F(2)), DomainError,
     "braiding order p=3 out of range 0..2"),
    (lambda: baxter_coefficients(3, 2, F(3, 7), F(2)), DomainError,
     "coefficients need k <= ell"),
    (lambda: classical_baxter_R_factorized(2, -1), PoleError,
     "pole at argument -1, shift s = 1"),
    (lambda: verify_braided_ybe(FusedContext(1, 3, F(2)), F(3, 7), F(5, 9), i=2), DomainError,
     "need 1 <= i <= n-2 for the braided relation"),
    (lambda: minimal_polynomial_check(FusedContext(2, 1, F(2))), DomainError,
     "full braidings need n >= 2"),
], ids=["mixed ell<k", "mixed p>k", "coefficients k>ell", "classical grid pole",
        "ybe i>n-2", "minimal polynomial n=1"])
def test_invalid_input_raises_its_error(call, error, message):
    with pytest.raises(error) as err:
        call()
    assert type(err.value) is error and str(err.value) == message


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


def _coefficients_by_formula(k, ell, u, q):
    """a_p(u) term by term from q_binomial and q_pochhammer."""
    values = []
    for p in range(k + 1):
        denom = q_pochhammer(u * q ** (-2 * p), q**-2, k - p)
        values.append((-q) ** (k - p) * q_pochhammer(q**-2, q**-2, k - p) / denom
                      * q_binomial(k, p, q) * q_binomial(ell, k - p, q))
    return tuple(values)


@pytest.mark.parametrize("q", [F(2), F(3, 2), F(-5, 7), F(1), F(-1)],
                         ids=["2", "3/2", "-5/7", "1", "-1"])
@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_coefficients_match_the_q_binomial_formula(k, q):
    u = F(3, 5)
    for ell in range(k, k + 3):
        assert baxter_coefficients(k, ell, u, q).values == _coefficients_by_formula(k, ell, u, q)


@pytest.mark.parametrize("s", [0, 1, 2])
def test_coefficient_pole_names_the_first_vanishing_factor(s):
    q = F(3, 2)
    with pytest.raises(PoleError, match=rf"^pole at argument {q ** (2 * s)}, shift s = {-s}$"):
        baxter_coefficients(3, 4, q ** (2 * s), q)


def test_coefficient_pole_names_factor():
    with pytest.raises(PoleError) as err:
        baxter_coefficients(2, 2, F(4), F(2))  # u = q^2
    assert str(err.value) == "pole at argument 4, shift s = -1"


def test_baxter_coefficients_reject_q_zero():
    with pytest.raises(ParameterError, match="nonzero"):
        baxter_coefficients(2, 2, F(3, 5), 0)


@pytest.mark.parametrize("k", [4, 5])
def test_word_chains_check_the_strand_bound(monkeypatch, k):
    # the chains start in word coordinates, not through HeckeElement; the
    # error names H_{3k}, where the relation lives, not the H_{2k} of the
    # first chain
    monkeypatch.delenv("FUSED_HECKE_MAX_STRANDS", raising=False)
    for method in ("auto", "fast", "direct"):
        with pytest.raises(ResourceError, match=f"^{3 * k} strands exceeds the bound 9"):
            verify_braided_ybe(FusedContext(k, 3, F(2)), F(3, 5), F(2, 7), method=method)
        with pytest.raises(ResourceError, match=f"^{3 * k} strands exceeds the bound 9"):
            verify_classical_ybe(k, 3, F(7, 2), F(9, 4), method=method)


def _no_coefficients(*args):
    raise AssertionError("a coefficient was computed")


@pytest.mark.parametrize("call, error, message", [
    (lambda: baxter_R_expansion(FusedContext(100, 2, F(2)), 1, F(3, 5)), ResourceError,
     "200 strands exceeds the bound 9"),
    (lambda: baxter_R_expansion(FusedContext(100, 2, F(2)), 5, F(3, 5)), DomainError,
     "ellipse index i=5 out of range 1..1"),
    (lambda: classical_baxter_R(100, 2, 1, F(7, 2)), ResourceError,
     "200 strands exceeds the bound 9"),
    (lambda: classical_baxter_R(100, 2, 5, F(7, 2)), DomainError,
     "ellipse index i=5 out of range 1..1"),
], ids=["expansion-strands", "expansion-ellipse", "classical-strands", "classical-ellipse"])
def test_expansions_check_their_bounds_before_any_coefficient(monkeypatch, call, error, message):
    # at k = 100 the coefficients alone take most of a second: the bounds
    # must reject the call before any of them is computed
    monkeypatch.delenv("FUSED_HECKE_MAX_STRANDS", raising=False)
    monkeypatch.setattr(hecke._Baxterisation, "numerators", _no_coefficients)
    with pytest.raises(error) as err:
        call()
    assert type(err.value) is error and str(err.value).startswith(message)


def test_expansion_reports_the_strand_bound_before_a_coefficient_pole(monkeypatch):
    # u = 1 is a pole of a_0 (the bracket 1 - u at shift 0), and H_10 is past the bound
    monkeypatch.delenv("FUSED_HECKE_MAX_STRANDS", raising=False)
    with pytest.raises(PoleError, match="^pole at argument 1, shift s = 0$"):
        baxter_coefficients(5, 5, 1, F(2))
    with pytest.raises(ResourceError, match="^10 strands exceeds the bound 9"):
        baxter_R_expansion(FusedContext(5, 2, F(2)), 1, 1)


def test_classical_coefficients():
    assert classical_coefficients(2, F(7, 2)) == (F(8, 35), F(8, 5), F(1))
    assert classical_coefficients(3, F(9, 2))[3] == F(1)
    with pytest.raises(PoleError, match="^pole at argument 1, shift s = -1$"):
        classical_coefficients(2, F(1))


# the closed forms of the two paths, written out apart from the library's one
# formula over one bracket; a zero denominator is a ZeroDivisionError here


def _classical_by_formula(k, mu):
    """c_p(mu) = C(k,p)^2 (k-p)! / prod_{j=p..k-1} (mu - j), term by term."""
    return tuple(F(math.comb(k, p) ** 2 * math.factorial(k - p))
                 / math.prod((mu - j for j in range(p, k)), start=F(1)) for p in range(k + 1))


def _multiplicative_constant(u, s, q):
    return -(q - 1 / q) / (1 - u * q ** (2 * s))


def _additive_constant(mu, s):
    return 1 / (mu + s)


def _outcome(call, *args, pole=PoleError):
    """call(*args), or "pole" where it raises the error pole: PoleError for
    the library, ZeroDivisionError for a closed form."""
    try:
        return call(*args)
    except pole:
        return "pole"


ORACLE_QS = [F(2), F(3, 2), F(-5, 7), F(1), F(-1)]
SHIFTS = range(-4, 5)
MUS = [F(7, 2), F(-9, 4), *map(F, SHIFTS)]


def _us(q):
    """Three generic arguments and every q^(2s), |s| <= 4: each pole of the
    brackets at shifts -4..4."""
    return [F(3, 5), F(-7, 4), F(5), *dict.fromkeys(q ** (2 * s) for s in SHIFTS)]


@pytest.mark.parametrize("q", ORACLE_QS, ids=str)
def test_grid_constants_match_their_closed_forms(q):
    bax = _multiplicative(q)
    for s in SHIFTS:
        for u in _us(q):
            want = _outcome(_multiplicative_constant, u, s, q, pole=ZeroDivisionError)
            assert _outcome(bax.constant, u, s) == want, (u, s)
    for s in SHIFTS:
        for mu in MUS:
            want = _outcome(_additive_constant, mu, s, pole=ZeroDivisionError)
            assert _outcome(_ADDITIVE.constant, mu, s) == want, (mu, s)
    with pytest.raises(PoleError, match="^pole at argument -3, shift s = 3$"):
        _ADDITIVE.constant(F(-3), 3)


@pytest.mark.parametrize("q", ORACLE_QS, ids=str)
@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_coefficients_and_their_poles_match_the_closed_forms(k, q):
    poles = 0
    for u in _us(q):
        for ell in range(k, 6):
            got = _outcome(lambda: baxter_coefficients(k, ell, u, q).values)
            want = _outcome(_coefficients_by_formula, k, ell, u, q, pole=ZeroDivisionError)
            assert got == want, (u, ell)
            poles += got == "pole"
    assert poles
    for mu in MUS:
        want = _outcome(_classical_by_formula, k, mu, pole=ZeroDivisionError)
        assert _outcome(classical_coefficients, k, mu) == want, mu
    assert [mu for mu in MUS if _outcome(classical_coefficients, k, mu) == "pole"] == [
        F(j) for j in range(k)]


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
    manual = HeckeElement(4, q)
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
    # u q^(2s) hits 1 at the shift s = 1; the message names u, not u q^2
    with pytest.raises(PoleError, match=r"^pole at argument 1/4, shift s = 1$"):
        baxter_R_factorized(1, 2, F(1, 4), F(2))


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


@pytest.mark.parametrize("form,n,i", [("braided", 3, 1), ("braided", 4, 2), ("classical", 3, 1)])
def test_ybe_at_a_pole_the_projectors_cancel(form, n, i):
    # v = q^-2 (or nu = -1) is a pole of one grid factor sigma + c(v, 1) of the
    # factorised R(v), but not of its expansion over the partial braidings,
    # which both methods multiply: an ordinary point for each of them
    if form == "braided":
        check = lambda method: verify_braided_ybe(
            FusedContext(2, n, F(2)), F(3, 5), F(1, 4), i, method=method)
    else:
        check = lambda method: verify_classical_ybe(2, n, F(1, 2), F(-1), i, method=method)
    assert check("direct")
    assert check("auto") == check("fast") == check("direct")


@pytest.mark.parametrize("form", ["braided", "classical"])
def test_ybe_at_a_coefficient_pole_names_the_coefficient(form):
    # u = q^2 (mu = 1) is a pole of R itself: every method reports the
    # coefficients' vanishing bracket h(arg, -1) before any product
    for method in ("auto", "fast", "direct"):
        if form == "braided":
            with pytest.raises(PoleError, match="^pole at argument 4, shift s = -1$"):
                verify_braided_ybe(FusedContext(2, 3, F(2)), F(4), F(3, 5), method=method)
        else:
            with pytest.raises(PoleError, match="^pole at argument 1, shift s = -1$"):
                verify_classical_ybe(2, 3, F(1), F(3, 5), method=method)


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


@pytest.mark.parametrize("k,l,m", [(2, 1, 1), (1, 2, 1), (2, 1, 2), (2, 2, 1)])
def test_mixed_ybe_with_a_larger_block_first(k, l, m):
    # R^(a,b) with a > b exists only in the factorised form
    u, v, q = F(3, 7), F(5, 11), F(2)
    res = verify_mixed_ybe(k, l, m, u, v, q)
    assert res.ok
    assert res == oracles.mixed_ybe(k, l, m, u, v, q)


@pytest.mark.parametrize("k,l,m", [(0, 1, 1), (1, 1, -1)])
def test_mixed_ybe_rejects_an_empty_block(k, l, m):
    with pytest.raises(ParameterError, match=f"^mixed blocks need sizes of at least 1, got k={k}, l={l}, m={m}$"):
        verify_mixed_ybe(k, l, m, F(3, 5), F(7, 11), F(2))


def test_mixed_ybe_rejects_q_zero():
    with pytest.raises(ParameterError, match="^q must be nonzero$"):
        verify_mixed_ybe(1, 2, 1, F(3, 5), F(7, 11), 0)


@pytest.mark.parametrize("call", [
    lambda: baxter_R_factorized(1, 2, F(3, 7), 0),
    lambda: partial_braiding_mixed(1, 2, 1, 0),
    lambda: verify_commPR(1, 1, F(3, 7), 0),
    lambda: verify_mixed_ybe(1, 1, 2, F(3, 7), F(5, 9), 0),
], ids=["baxter_R_factorized", "partial_braiding_mixed", "verify_commPR", "verify_mixed_ybe"])
def test_chain_entry_points_reject_q_zero(call):
    # every chain starts at fused._start, which checks q before any pass
    with pytest.raises(ParameterError, match="^q must be nonzero$"):
        call()


@pytest.mark.parametrize("klm, u, v, name, arg, s", [
    ((1, 2, 2), F(1, 4), F(3, 5), "u", "1/4", 1),
    ((1, 1, 2), F(3, 5), F(1, 4), "v", "1/4", 1),
    ((1, 1, 1), F(3, 5), F(5, 3), "uv", "1", 0),
])
def test_mixed_ybe_grid_pole_names_the_argument(monkeypatch, klm, u, v, name, arg, s):
    # the three grids are checked before any chain starts
    def no_chain(*args):
        raise AssertionError("a chain started")

    monkeypatch.setattr(fused, "_braid_right", no_chain)
    a, b = {"u": klm[:2], "uv": klm[::2], "v": klm[1:]}[name]
    with pytest.raises(PoleError, match=rf"^R\^\({a},{b}\)\({name}\): pole at argument "
                       rf"{arg}, shift s = {s}$"):
        verify_mixed_ybe(*klm, u, v, F(2))


def test_comm_pr(monkeypatch):
    assert verify_commPR(1, 1, F(3, 5), F(2))
    assert verify_commPR(2, 2, F(3, 7), F(2))
    assert verify_commPR(1, 2, F(2, 5), F(3, 2))
    for q in (F(2), F(3, 2), F(-5, 7)):
        for k, ell in itertools.product((1, 2, 3), repeat=2):
            assert verify_commPR(k, ell, F(3, 5), q), (k, ell, q)
    # G P^(ell,k) = P^(k,ell) G P^(ell,k) fails once one factor of the grid
    # G is off: each factor's constant raised by one in turn, the same
    # factor in both chains.  At (1, 1) both projectors are the unit, so no
    # grid can fail there.
    orig = hecke._Baxterisation.constant

    def bumped(size, at):
        calls = itertools.count()

        def constant(bax, arg, s):
            # the grid asks for one constant per factor, in factor order
            return orig(bax, arg, s) + (1 if next(calls) % size == at else 0)

        return constant

    for k, ell in [(2, 2), (1, 2), (2, 1), (3, 3)]:
        for at in range(k * ell):
            monkeypatch.setattr(hecke._Baxterisation, "constant", bumped(k * ell, at))
            assert not verify_commPR(k, ell, F(3, 5), F(2)), (k, ell, at)


@pytest.mark.parametrize("k,ell,lo,hi", [(0, 1, 1, 0), (1, 0, 2, 1), (-1, 2, 1, -1)])
def test_comm_pr_rejects_empty_blocks(k, ell, lo, hi):
    # the first block of P^(k,ell) that is empty is named
    with pytest.raises(DomainError, match=re.escape(f"invalid symmetriser interval [{lo},{hi}] in H_1")):
        verify_commPR(k, ell, F(3, 5), F(2))


@pytest.mark.parametrize("call, message", [
    (lambda: baxter_R_factorized(1, 0, F(1, 3), F(2)), "invalid symmetriser interval [2,1] in H_1"),
    (lambda: baxter_R_factorized(0, 1, F(1, 3), F(2)), "invalid symmetriser interval [1,0] in H_1"),
    (lambda: baxter_R_factorized(-1, 2, F(1, 3), F(2)), "invalid symmetriser interval [1,-1] in H_1"),
    (lambda: partial_braiding_mixed(0, 2, 0, F(2)), "invalid symmetriser interval [1,0] in H_2"),
], ids=["R(1,0)", "R(0,1)", "R(-1,2)", "mixed(0,2)"])
def test_chains_reject_an_empty_block(call, message):
    # fused._start checks every interval of the projector a chain starts at
    with pytest.raises(DomainError) as err:
        call()
    assert type(err.value) is DomainError and str(err.value) == message


def test_verify_result_reports_diff():
    ctx = FusedContext(2, 2, F(2))
    d = element_diff(projector_P(ctx), partial_braiding(ctx, 1, 2))
    assert d is not None
    assert d.left != d.right


def test_element_diff_rejects_elements_of_different_algebras():
    # a == b is False for them, so returning None would read as a match
    a = HeckeElement(3, 2, {(2, 1, 3): 1})
    for b in (HeckeElement(3, 3, {(2, 1, 3): 1}), HeckeElement(4, 2, {(2, 1, 3, 4): 1})):
        with pytest.raises(DomainError, match="different algebras"):
            element_diff(a, b)
        with pytest.raises(DomainError):
            fused._verdict(a, b)
    assert element_diff(a, a) is None


# -- minimal polynomial -----------------------------------------------------------------


def test_minimal_polynomial_k1_is_hecke_quadratic():
    q = F(2)
    ctx = FusedContext(1, 2, q)
    assert minimal_polynomial_check(ctx)
    g = generator(1, 2, q)
    prod = multiply(g + unit(2, q).scale(1 / q), g - unit(2, q).scale(q))
    assert not prod


@pytest.mark.parametrize("k,q", [(2, F(2)), (2, F(3, 2)), (3, F(3, 2)), (4, F(2)),
                                 (4, F(3, 2)), (4, F(-5, 7))])
def test_minimal_polynomial(k, q):
    assert minimal_polynomial_check(FusedContext(k, 2, q))


@pytest.mark.parametrize("k", [2, 4])
@pytest.mark.parametrize("q", [F(2), F(1)], ids=str)
def test_minimal_polynomial_check_rejects_a_product_with_a_superfluous_factor(monkeypatch, k, q):
    # the full braiding replaced by c P, c one of its eigenvalues: the whole
    # product vanishes, and so does every drop-one subproduct that keeps the
    # factor (c P - c P), at every k
    c = (-1) ** k * q ** -k
    monkeypatch.setattr(fused, "_braid_right",
                        lambda x, k, ell, offset, p, q, constants=None: _scaled_sum([(c, x)]))
    assert minimal_polynomial_check(FusedContext(k, 2, q)) is False


@pytest.mark.parametrize("k", [2, 3, 4])
@pytest.mark.parametrize("q", [F(2), F(3, 2)])
def test_minimal_polynomial_check_rejects_under_crossings(monkeypatch, k, q):
    # the eigenvalues are those of the over-crossings: the full braiding
    # built from under-crossings sigma_a^-1 = sigma_a - (q - 1/q) fails
    ctx = FusedContext(k, 2, q)
    assert minimal_polynomial_check(ctx)
    braid = fused._braid_right

    def under(x, k, ell, offset, p, q, constants=None):
        return braid(x, k, ell, offset, p, q, itertools.repeat(-(q - 1 / q)))

    monkeypatch.setattr(fused, "_braid_right", under)
    assert minimal_polynomial_check(ctx) is False


@pytest.mark.parametrize("k", [2, 3, 4])
@pytest.mark.parametrize("q", [F(1), F(-1)], ids=str)
def test_minimal_polynomial_over_the_distinct_eigenvalues_at_q_squared_one(k, q):
    # lambda_l and lambda_(l+2) coincide at q^2 = 1, so the product runs over
    # -1 and 1: (Sigma + P)(Sigma - P) vanishes, neither factor alone does
    ctx = FusedContext(k, 2, q)
    assert minimal_polynomial_check(ctx) is True
    sigma = partial_braiding(ctx, 1, k)
    p = projector_P(ctx)
    assert not multiply(sigma + p, sigma - p)
    assert sigma + p and sigma - p


@pytest.mark.parametrize("k", [2, 3, 4])
@pytest.mark.parametrize("q", [F(1), F(-1), F(2)], ids=str)
def test_minimal_polynomial_check_rejects_a_partial_braiding(monkeypatch, k, q):
    # the order-(k-1) braiding in place of the full one fails
    braid = fused._braid_right

    def partial(x, k, ell, offset, p, q, constants=None):
        return braid(x, k, ell, offset, p - 1, q, constants)

    monkeypatch.setattr(fused, "_braid_right", partial)
    assert minimal_polynomial_check(FusedContext(k, 2, q)) is False


@pytest.mark.parametrize("call", [
    lambda: minimal_polynomial_check(FusedContext(2, 2, F(2))),
    lambda: verify_braided_ybe(FusedContext(1, 3, F(2)), F(3, 5), F(7, 11)),
    lambda: verify_classical_ybe(1, 3, F(7, 2), F(-5, 3)),
], ids=["minimal_polynomial", "braided_ybe", "classical_ybe"])
def test_a_projector_that_is_not_idempotent_is_a_kernel_fault(monkeypatch, call):
    # every chain that relies on P * P == P raises, rather than reporting
    # the fault as a failed verdict
    monkeypatch.setattr(fused, "_projector_idempotent", lambda ctx: False)
    with pytest.raises(InternalConsistencyError, match="^projector not idempotent for "):
        call()


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


def test_fused_product_example_fails_on_a_wrong_coefficient(monkeypatch):
    for q in (F(1), F(-1)):
        assert fused_product_example_check(q) == (True, "degenerate")
    coefficients = reference_data.reference_h22_product_coefficients
    for at in range(3):

        def bumped(q):
            values = list(coefficients(q))
            values[at] += 1
            return tuple(values)

        monkeypatch.setattr(reference_data, "reference_h22_product_coefficients", bumped)
        for q in (F(2), F(3, 2)):
            assert fused_product_example_check(q) == (False, None), (at, q)


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


@pytest.mark.parametrize("q", [F(2), F(3, 2), F(-5, 7), F(1), F(-1)], ids=str)
def test_public_elements_are_keyed_by_permutations(q):
    # the chains run on block words; every element handed out is expanded
    ctx = FusedContext(2, 3, q)
    elements = [
        projector_P(ctx),
        partial_braiding(ctx, 2, 1),
        partial_braiding_mixed(1, 3, 1, q),
        *projector_mixed(1, 3, q),
        baxter_R_expansion(ctx, 1, F(3, 7)),
        baxter_R_factorized(2, 3, F(3, 7), q),
        classical_baxter_R(2, 3, 1, F(7, 2)),
        classical_baxter_R_factorized(2, F(7, 2)),
    ]
    for x in elements:
        assert x.terms
        assert all(sorted(w) == list(range(1, x.m + 1)) for w in x.terms), x


def test_fused_serialization_header():
    ctx = FusedContext(2, 2, F(2))
    obj = fused_element_to_obj(partial_braiding(ctx, 1, 1), 2, 2)
    assert obj["kind"] == "fused"
    assert obj["k"] == 2 and obj["n"] == 2
    assert obj["strands"] == 4


# -- the shared YBE chain with a wrong coefficient ---------------------------------------------


def _raised(values: tuple, p: int) -> tuple:
    return values[:p] + (values[p] + 1,) + values[p + 1 :]


def _bump_coefficient(monkeypatch, additive: bool, p: int):
    # a_p raised by one at every argument, on one path of the one formula
    orig = hecke._Baxterisation.coefficients

    def bumped(bax, k, ell, arg):
        values = orig(bax, k, ell, arg)
        return _raised(values, p) if (bax is _ADDITIVE) == additive else values

    monkeypatch.setattr(hecke._Baxterisation, "coefficients", bumped)


def _bump_baxter(monkeypatch, p=0):
    _bump_coefficient(monkeypatch, False, p)


def _bump_classical(monkeypatch, p=0):
    _bump_coefficient(monkeypatch, True, p)


# (perturbation, verifier taking the method)
PERTURBED_CHAINS = {
    "multiplicative": (
        _bump_baxter,
        lambda method: verify_braided_ybe(
            FusedContext(2, 3, F(2)), F(3, 7), F(5, 9), method=method
        ),
    ),
    "additive": (
        _bump_classical,
        lambda method: verify_classical_ybe(2, 3, F(7, 2), F(9, 4), method=method),
    ),
}


@pytest.mark.parametrize("case", PERTURBED_CHAINS)
def test_ybe_direct_fails_on_wrong_coefficient(monkeypatch, case):
    bump, verify = PERTURBED_CHAINS[case]
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
    bump, verify = PERTURBED_CHAINS[case]
    bump(monkeypatch)
    res = verify("fast")
    assert not res.ok
    assert res.diff is not None and res.diff.left != res.diff.right


# the chains of PERTURBED_CHAINS, run in the standard basis
STANDARD_CHAINS = {
    "multiplicative": lambda: oracles.braided_ybe(
        FusedContext(2, 3, F(2)), F(3, 7), F(5, 9), 1, _multiplicative(F(2))
    ),
    "additive": lambda: oracles.braided_ybe(
        FusedContext(2, 3, F(1)), F(7, 2), F(9, 4), 1, _ADDITIVE
    ),
}


@pytest.mark.parametrize("case", PERTURBED_CHAINS)
def test_ybe_fast_chain_gives_the_standard_basis_diff(monkeypatch, case):
    # the wrong coefficient reaches the word chain, which must fail with the
    # Diff of the expansions multiplied in the standard basis
    bump, verify = PERTURBED_CHAINS[case]
    bump(monkeypatch)
    res = verify("fast")
    assert not res.ok
    assert res == STANDARD_CHAINS[case]()


BUMPED_CASES = [
    pytest.param(form, k, p, n, i, id=f"{form}-k{k}-a{p}-n{n}-i{i}")
    for form in ("multiplicative", "additive")
    for k in (1, 2)
    for p in range(k + 1)
    for n, i in ((3, 1), (4, 2))
]


@pytest.mark.parametrize("form,k,p,n,i", BUMPED_CASES)
def test_ybe_fast_matches_direct_on_a_bumped_coefficient(monkeypatch, form, k, p, n, i):
    # both methods multiply the same expansions, so they decide the same
    # identity and report the same Diff, whatever the coefficients are
    if form == "multiplicative":
        _bump_baxter(monkeypatch, p)
        verify = lambda method: verify_braided_ybe(
            FusedContext(k, n, F(2)), F(3, 7), F(5, 9), i, method=method)
    else:
        _bump_classical(monkeypatch, p)
        verify = lambda method: verify_classical_ybe(k, n, F(7, 2), F(9, 4), i, method=method)
    res = verify("fast")
    assert res == verify("direct")
    # at k = 1 the raised top coefficient of the additive form gives
    # 2 sigma + 1/mu = 2 R(2 mu), a rescaled solution (2 mu + 2 nu = 2 (mu + nu));
    # every other bump breaks the relation
    assert res.ok == (form == "additive" and k == 1 and p == 1)
    assert res.ok or res.diff.left != res.diff.right


def _raise_grid_constant(monkeypatch, u):
    # the baxterised constant at the argument u raised by one
    orig = hecke._Baxterisation.constant
    monkeypatch.setattr(
        hecke._Baxterisation, "constant",
        lambda bax, w, s: orig(bax, w, s) + (1 if w * bax.q ** (2 * s) == u else 0),
    )


MIXED_POINT = (1, 2, 2, F(2, 7), F(3, 8), F(3, 2))


def test_mixed_ybe_wrong_constant_gives_the_standard_basis_diff(monkeypatch):
    # the grid constant at shift 0 of R(u) raised by one, on both sides
    k, l, m, u, v, q = MIXED_POINT
    _raise_grid_constant(monkeypatch, u)
    res = verify_mixed_ybe(k, l, m, u, v, q)
    assert not res.ok
    assert res.diff.left != res.diff.right
    assert res == oracles.mixed_ybe(k, l, m, u, v, q)


def _recorded_word_verdicts(monkeypatch) -> list:
    # (Diff of each fused._word_verdict, element_diff of both sides expanded
    # in full), one pair per call
    seen = []
    orig = fused._word_verdict

    def recording(a, b, m, q):
        res = orig(a, b, m, q)
        seen.append((res.diff, element_diff(_expand(a, m, q), _expand(b, m, q))))
        return res

    monkeypatch.setattr(fused, "_word_verdict", recording)
    return seen


@pytest.mark.parametrize("k,n,p", [
    # in H_9 each case expands both sides in full, about 2 s: one in tier-1
    pytest.param(k, n, p, marks=[pytest.mark.slow] if k == 3 and p > 0 else [])
    for k, n in ((2, 3), (2, 4), (3, 3)) for p in range(k + 1)
])
def test_a_failing_word_verdict_gives_the_diff_of_the_full_expansions(monkeypatch, k, n, p):
    # a failing verdict expands the differing words only; no two words'
    # expansions share a key, so its Diff is the one of the full expansions
    _bump_baxter(monkeypatch, p)
    seen = _recorded_word_verdicts(monkeypatch)
    res = verify_braided_ybe(FusedContext(k, n, F(2)), F(3, 7), F(5, 9))
    assert not res.ok and seen[-1][0] == res.diff
    assert all(diff == full for diff, full in seen)


def test_a_failing_mixed_word_verdict_gives_the_diff_of_the_full_expansions(monkeypatch):
    k, l, m, u, v, q = MIXED_POINT
    _raise_grid_constant(monkeypatch, u)
    seen = _recorded_word_verdicts(monkeypatch)
    res = verify_mixed_ybe(k, l, m, u, v, q)
    assert not res.ok and seen == [(res.diff, res.diff)]


@pytest.mark.parametrize("q", [F(2), F(-5, 7), F(1)], ids=str)
@pytest.mark.parametrize("m,blocks", [(2, ()), (4, ((1, 2), (3, 4)))], ids=["P=1", "P(2,2)"])
def test_a_word_verdict_compares_words_that_one_side_lacks(q, m, blocks):
    # P against P (sigma_i + 1) = P + P sigma_i, i the strand between the
    # first two blocks: the word of P sigma_i is on one side only, with
    # coefficient 1, so reading a missing word as anything but 0 passes it
    p = fused._start(m, q, blocks)
    both = _scaled_affine(*p, m // 2, F(1), q)
    assert len(both[0]) == 2 and set(p[0]) < set(both[0])
    for a, b in ((p, both), (both, p)):
        res = fused._word_verdict(a, b, m, q)
        assert not res.ok
        assert res.diff == element_diff(_expand(a, m, q), _expand(b, m, q))
        assert res.diff.left != res.diff.right


# -- the word path against the standard-basis chains ----------------------------------------------


@pytest.mark.parametrize("q", [F(2), F(3, 2), F(-5, 7), F(1), F(-1)], ids=str)
def test_word_kernel_is_the_action_on_the_module(q):
    # P * sigma_d * sigma_i for every word of the blocks [1, 2], [3, 4], by
    # the generator pass (the affine pass at c = 0) that every word chain
    # takes, on the word's rank
    for word in sorted(set(itertools.permutations((1, 1, 3, 3)))):
        x = _scaled({word: 1})
        for i in (1, 2, 3):
            want = multiply(_expand(x, 4, q), generator(i, 4, q))
            assert _expand(_scaled_affine(*x, i, 0, q), 4, q) == want
    # sums over the words of five-strand modules against the oracle's product
    rng = random.Random(41)
    for letters in ((1, 1, 1, 4, 5), (1, 1, 3, 3, 3)):
        words = sorted(set(itertools.permutations(letters)))
        for keys in (rng.sample(words, 4), words):
            x = _scaled({w: F(rng.randint(-9, 9) or 1, rng.randint(1, 7)) for w in keys})
            for i in range(1, 5):
                want = oracles.multiply(_expand(x, 5, q), generator(i, 5, q))
                assert _expand(_scaled_affine(*x, i, 0, q), 5, q) == want, (letters, i)


@pytest.mark.parametrize("q", [F(2), F(3, 2), F(1)], ids=str)
@pytest.mark.parametrize("k,ell", [(1, 1), (1, 2), (1, 3), (2, 2), (2, 3), (3, 3),
                                   (2, 1), (3, 1), (3, 2)])
def test_word_path_matches_standard_chain(k, ell, q):
    # the grid runs as the crossing word braiding_word(k, ell, k) on either
    # side of the diagonal; the oracle keeps the explicit row and column loop.
    # Mixed braidings need ell >= k.
    for p in range(k + 1) if k <= ell else ():
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


@pytest.mark.parametrize("q", [F(2), F(3, 2), F(-5, 7), F(1), F(-1)], ids=str)
def test_expanded_elements_are_in_canonical_form(q):
    # _expand reads the common factor off the word numerators and P's
    # values; its numerators and denominator are those that the public
    # constructor gives the same coefficients
    ctx = FusedContext(2, 3, q)
    xs = [partial_braiding(ctx, i, p) for i in (1, 2) for p in range(3)]
    xs += [partial_braiding_mixed(1, 2, p, q) for p in range(2)]
    xs += [baxter_R_expansion(ctx, 2, F(3, 5)), baxter_R_factorized(2, 3, F(-7, 4), q),
           projector_P(ctx), projector_mixed(1, 3, q)[1], classical_baxter_R(2, 3, 1, F(7, 2))]
    for x in xs:
        y = HeckeElement(x.m, x.q, dict(x.terms))
        assert (dict(x.nums), x.den) == (y.nums, y.den)


# -- cached results are read-only --------------------------------------------------------------


# each entry gives the numerator map of a cached result: the map an element
# holds on permutation tuples, or that of a scaled vector, keyed by word ranks
CACHED_ELEMENTS = {
    "symmetriser_sum": lambda: symmetriser_sum(1, 2, 4, F(2)).nums,
    "projector_P": lambda: projector_P(FusedContext(2, 2, F(2))).nums,
    "partial_braiding": lambda: partial_braiding(FusedContext(2, 2, F(2)), 1, 1).nums,
    "partial_braiding_mixed": lambda: partial_braiding_mixed(1, 2, 1, F(2)).nums,
    "_partial_braiding_words": lambda: _partial_braiding_words(FusedContext(2, 2, F(2)), 1, 1)[0],
}


@pytest.mark.parametrize("name", CACHED_ELEMENTS)
def test_cached_element_is_read_only(name):
    get = CACHED_ELEMENTS[name]
    assert type(get()) is MappingProxyType
    before = dict(get())
    with pytest.raises(AttributeError):
        get().clear()
    with pytest.raises(TypeError):
        get()[next(iter(before))] = 99
    assert get() == before


# -- the word index -----------------------------------------------------------------------------


def _rank_other_lengths(q):
    """Rank words of lengths 3, 5 and 6 and fill their moves."""
    hecke._scaled({w: F(1) for w in all_permutations(5)})
    multiply(symmetriser_sum(1, 3, 5, q), symmetriser_sum(3, 5, 5, q))
    partial_braiding(FusedContext(1, 3, q), 1, 1)
    partial_braiding(FusedContext(2, 3, q), 2, 2)


@pytest.mark.parametrize("first", ["cached", "others"])
def test_word_index_is_append_only(first):
    # a cached vector keeps its ranks, whether the words of other lengths
    # were ranked before or after it was built
    q = F(5, 3)
    ctx = FusedContext(2, 2, q)
    fused._partial_braiding_words.cache_clear()
    fused.partial_braiding.cache_clear()
    if first == "others":
        _rank_other_lengths(q)
    vectors = [_partial_braiding_words(ctx, 1, p) for p in range(3)]
    elements = [partial_braiding(ctx, 1, p) for p in range(3)]
    expanded = [_expand(x, 4, q) for x in vectors]
    words = list(hecke._INDEX.words)
    if first == "cached":
        _rank_other_lengths(q)
    assert hecke._INDEX.words[: len(words)] == words
    assert [_partial_braiding_words(ctx, 1, p) for p in range(3)] == vectors
    assert [_expand(x, 4, q) for x in vectors] == expanded == elements
    assert [partial_braiding(ctx, 1, p) for p in range(3)] == elements
    assert elements == [oracles.partial_braiding(ctx, 1, p) for p in range(3)]


def test_word_index_stays_lazy():
    # one (3, 3) fast YBE ranks only words of its H_9 module, 9!/(3!)^3 =
    # 1680 of them, and the index never holds all of S_9
    index = hecke._INDEX
    before = len(index.words)
    assert verify_braided_ybe(FusedContext(3, 3, F(7, 5)), F(3, 7), F(5, 9), method="fast")
    new = index.words[before:]
    assert len(new) <= 1680
    assert all(sorted(w) == [1, 1, 1, 4, 4, 4, 7, 7, 7] for w in new)
    assert sum(len(w) == 9 for w in index.words) < math.factorial(9)
