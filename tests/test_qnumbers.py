from fractions import Fraction as F

import pytest

from fusedhecke import (
    FusedContext,
    ParameterError,
    baxter_coefficients,
    brace_int,
    classical_coefficients,
    format_rational,
    partial_braiding_mixed,
    q_binomial,
    q_factorial,
    q_int,
    q_pochhammer,
    sigma_matrix,
    symmetriser_sum,
    w_basis,
)
from fusedhecke.qnumbers import as_fraction, parse_rational

QS = [F(2), F(3, 2), F(5, 3)]


def test_q_int_values():
    assert q_int(0, F(2)) == 0
    assert q_int(1, F(7, 3)) == 1
    # oracle: (q^3 - q^-3)/(q - q^-1) at q=2 is (8 - 1/8)/(3/2)
    assert q_int(3, F(2)) == (F(8) - F(1, 8)) / (F(2) - F(1, 2)) == F(21, 4)


def test_q_int_classical_limits():
    assert q_int(4, F(1)) == 4
    assert q_int(4, F(-1)) == -4
    assert q_int(3, F(-1)) == 3


def test_q_int_rejects_zero_q():
    with pytest.raises(ParameterError):
        q_int(2, F(0))


@pytest.mark.parametrize("call, message", [
    (lambda: as_fraction(1.5), "cannot interpret 1.5 as an exact rational"),
    (lambda: q_int(-1, 2), "q_int needs L >= 0"),
], ids=["float", "negative L"])
def test_invalid_scalar_raises_a_parameter_error(call, message):
    with pytest.raises(ParameterError) as err:
        call()
    assert type(err.value) is ParameterError and str(err.value) == message


@pytest.mark.parametrize("call", [
    lambda q: symmetriser_sum(1, 2, 3, q),
    lambda q: partial_braiding_mixed(1, 2, 1, q),
    lambda q: w_basis(2, 2, q),
    lambda q: sigma_matrix(2, 1, 2, q),
], ids=["symmetriser_sum", "partial_braiding_mixed", "w_basis", "sigma_matrix"])
def test_cached_function_rejects_a_float_q_after_its_fraction(call):
    # 13/8 is a binary fraction: the float 1.625 equals it and hashes alike
    call(F(13, 8))
    with pytest.raises(ParameterError) as err:
        call(1.625)
    assert str(err.value) == "cannot interpret 1.625 as an exact rational"


# the q-keyed public caches, each with its arguments before q, by name
Q_CACHES = {
    symmetriser_sum: {"i": 1, "j": 2, "m": 3},
    partial_braiding_mixed: {"k": 1, "ell": 2, "p": 1},
    w_basis: {"k": 2, "N": 2},
    sigma_matrix: {"k": 2, "p": 1, "N": 2},
}


@pytest.mark.parametrize("fn", Q_CACHES, ids=lambda fn: fn.__name__)
def test_cached_function_keeps_one_entry_per_value_of_q(fn):
    head = Q_CACHES[fn]
    fn.cache_clear()
    results = [fn(*head.values(), q) for q in (2, F(2), "2", " 2")]
    results.append(fn(*head.values(), q=2))
    results.append(fn(**head, q=2))
    assert all(r is results[0] for r in results)
    assert fn.cache_info().currsize == 1


def _outcome(call):
    try:
        return call()
    except Exception as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("fn", Q_CACHES, ids=lambda fn: fn.__name__)
def test_cached_function_answers_another_argument_type_alike_cold_and_warm(fn):
    # the cache is typed: a float count such as k = 2.0 misses the entry of
    # its int, so cache history cannot change what it gives
    name, value = next(iter(Q_CACHES[fn].items()))
    head = {**Q_CACHES[fn], name: float(value)}
    fn.cache_clear()
    cold = _outcome(lambda: fn(**head, q=2))
    fn(**Q_CACHES[fn], q=2)
    assert _outcome(lambda: fn(**head, q=2)) == cold


@pytest.mark.parametrize("fn", Q_CACHES, ids=lambda fn: fn.__name__)
def test_cached_function_rejects_an_unhashable_q(fn):
    with pytest.raises(ParameterError) as err:
        fn(*Q_CACHES[fn].values(), [2])
    assert str(err.value) == "cannot interpret [2] as an exact rational"


@pytest.mark.parametrize("call", [
    lambda x: as_fraction(x),
    lambda x: FusedContext(1, 3, x),
    lambda x: sigma_matrix(2, 1, 2, x),
    lambda x: baxter_coefficients(1, 1, x, 2),
    lambda x: classical_coefficients(1, x),
], ids=["as_fraction", "FusedContext q", "sigma_matrix q", "baxter_coefficients u",
        "classical_coefficients mu"])
@pytest.mark.parametrize("flag", [True, False])
def test_a_bool_is_not_a_rational(call, flag):
    # bool is a subclass of int, but True is no spelling of q = 1
    with pytest.raises(ParameterError) as err:
        call(flag)
    assert str(err.value) == f"cannot interpret {flag} as an exact rational"


def test_q_factorial():
    assert q_factorial(0, F(5)) == 1
    assert q_factorial(2, F(2)) == q_int(1, F(2)) * q_int(2, F(2)) == F(5, 2)
    assert q_factorial(3, F(1)) == 6
    with pytest.raises(ParameterError):
        q_factorial(-3, F(2))


def test_q_binomial_values():
    assert q_binomial(5, 0, F(9, 4)) == 1
    assert q_binomial(2, 1, F(2)) == F(5, 2)
    assert q_binomial(4, 2, F(1)) == 6
    with pytest.raises(ParameterError):
        q_binomial(2, 3, F(2))


@pytest.mark.parametrize("q", QS)
def test_q_binomial_symmetry(q):
    for L in range(9):
        for p in range(L + 1):
            assert q_binomial(L, p, q) == q_binomial(L, L - p, q)


@pytest.mark.parametrize("q", QS)
def test_q_pascal_rule(q):
    for L in range(1, 9):
        for p in range(L + 1):
            lhs = q_binomial(L, p, q)
            rhs = F(0)
            if p <= L - 1:
                rhs += q**p * q_binomial(L - 1, p, q)
            if p >= 1:
                rhs += q ** (p - L) * q_binomial(L - 1, p - 1, q)
            assert lhs == rhs


def test_q_pochhammer():
    assert q_pochhammer(F(7), F(3), 0) == 1
    assert q_pochhammer(F(3), F(7), 1) == -2
    assert q_pochhammer(F(1, 2), F(1, 3), 2) == F(1, 2) * F(5, 6) == F(5, 12)
    with pytest.raises(ParameterError):
        q_pochhammer(F(1, 2), F(2), -2)


def test_brace_int():
    assert brace_int(0, F(2)) == 0
    assert brace_int(1, F(7, 5)) == 1
    assert brace_int(3, F(2)) == 1 + 4 + 16 == 21


@pytest.mark.parametrize("q", QS + [F(1), F(-1)])
def test_brace_int_vs_q_int(q):
    for L in range(1, 11):
        assert brace_int(L, q) == q ** (L - 1) * q_int(L, q)


@pytest.mark.parametrize("q", QS)
def test_pochhammer_nonzero_under_point_invariants(q):
    for p in range(4):
        FusedContext(p + 1, 2, q)
        assert q_pochhammer(q**-2, q**-2, p) != 0


def test_rational_serialization():
    assert parse_rational("-3/7") == F(-3, 7)
    assert parse_rational("12") == 12
    assert format_rational(F(-3, 7)) == "-3/7"
    assert format_rational(F(4)) == "4"
    for bad in ["3.5", "3/-7", "a/b", "1e3", ""]:
        with pytest.raises(ParameterError):
            parse_rational(bad)
    for x in [F(22, 7), F(-1, 3), F(5)]:
        assert parse_rational(format_rational(x)) == x
