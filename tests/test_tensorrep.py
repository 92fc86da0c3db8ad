import json
import random
from fractions import Fraction as F
from math import comb

import pytest

from fusedhecke import (
    FusedContext,
    HeckeElement,
    classical_fused_R_matrix,
    fused_R_matrix,
    generator,
    multiply,
    partial_braiding,
    sigma_matrix,
    symmetriser_sum,
    unit,
    verify_matrix_ybe,
    w_basis,
)
from fusedhecke import linalg, tensorrep
from fusedhecke.errors import InternalConsistencyError, ResourceError
from fusedhecke.fused import baxter_coefficients, classical_coefficients
from fusedhecke.hecke import zero
from fusedhecke.permutations import all_permutations
from fusedhecke.tensorrep import (
    hecke_rmatrix,
    matrix_from_obj,
    matrix_to_csv,
    matrix_to_obj,
    represent,
)
from oracles import classical_sigma_direct, pair_basis, rank, solve_exact


def test_hecke_rmatrix_diagonal_action():
    q = F(2)
    r = hecke_rmatrix(2, q)
    assert r[0, 0] == q
    # column of e_1 x e_2 (index 1): maps to e_2 x e_1 + (q - 1/q) e_1 x e_2
    assert r[2, 1] == 1 and r[1, 1] == q - 1 / q
    assert r[1, 2] == 1 and r[2, 2] == 0


@pytest.mark.parametrize("N", [2, 3])
def test_hecke_rmatrix_quadratic(N):
    q = F(2)
    r = hecke_rmatrix(N, q)
    lhs = linalg.matmul(r, r)
    rhs = r * (q - 1 / q) + linalg.identity(N * N)
    assert linalg.mat_equal(lhs, rhs)


def test_hecke_rmatrix_braid_relation():
    q = F(3, 2)
    r = hecke_rmatrix(2, q)
    eye = linalg.identity(2)
    r12 = linalg.kron(r, eye)
    r23 = linalg.kron(eye, r)
    lhs = linalg.matmul(linalg.matmul(r12, r23), r12)
    rhs = linalg.matmul(linalg.matmul(r23, r12), r23)
    assert linalg.mat_equal(lhs, rhs)


def test_represent_unit_and_braid():
    q = F(2)
    assert linalg.mat_equal(represent(unit(3, q), 2), linalg.identity(8))
    lhs = multiply(multiply(generator(1, 3, q), generator(2, 3, q)), generator(1, 3, q))
    rhs = multiply(multiply(generator(2, 3, q), generator(1, 3, q)), generator(2, 3, q))
    assert linalg.mat_equal(represent(lhs, 2), represent(rhs, 2))


def test_represent_generator_is_local_rmatrix():
    q = F(2)
    r = hecke_rmatrix(2, q)
    eye = linalg.identity(2)
    assert linalg.mat_equal(represent(generator(1, 3, q), 2), linalg.kron(r, eye))
    assert linalg.mat_equal(represent(generator(2, 3, q), 2), linalg.kron(eye, r))


def test_represent_is_homomorphism_random():
    q = F(2)
    rng = random.Random(424242)
    pool = all_permutations(4)
    for _ in range(20):
        terms_a = {rng.choice(pool): F(rng.randint(-3, 3) or 1, rng.randint(1, 3))
                   for _ in range(2)}
        terms_b = {rng.choice(pool): F(rng.randint(-3, 3) or 1, rng.randint(1, 3))
                   for _ in range(2)}
        a, b = HeckeElement(4, q, terms_a), HeckeElement(4, q, terms_b)
        assert linalg.mat_equal(
            represent(multiply(a, b), 2),
            linalg.matmul(represent(a, 2), represent(b, 2)),
        )


@pytest.mark.parametrize("N", [2, 3])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_represented_symmetriser_idempotent_of_expected_rank(k, N):
    q = F(2)
    s = represent(symmetriser_sum(1, k, k, q), N)
    assert linalg.mat_equal(linalg.matmul(s, s), s)
    assert rank(s) == comb(k + N - 1, k)


def test_represent_resource_bound():
    with pytest.raises(ResourceError):
        represent(unit(9, F(2)), 3)  # 3^9 > 6561


# -- the symmetric power basis ------------------------------------------------


def test_w_basis_k1_is_standard_basis():
    wb = w_basis(1, 3, F(2))
    assert wb.dim == 3
    assert wb.columns == ({(1,): 1}, {(2,): 1}, {(3,): 1})


def test_w_basis_k2_N2_middle_vector():
    q = F(2)
    wb = w_basis(2, 2, q)
    assert wb.indices == ((1, 1), (1, 2), (2, 2))
    tq = q + 1 / q
    assert wb.columns[1] == {(1, 2): q / tq, (2, 1): 1 / tq}
    assert wb.columns[0] == {(1, 1): F(1)}


@pytest.mark.parametrize("k,N", [(1, 2), (2, 2), (2, 3), (3, 2), (3, 3)])
def test_w_basis_dimension(k, N):
    assert w_basis(k, N, F(2)).dim == comb(k + N - 1, k)


def test_w_basis_columns_are_read_only():
    with pytest.raises(TypeError):
        w_basis(2, 2, F(2)).columns[1][(1, 2)] = 99
    assert w_basis(2, 2, F(2)).columns[1][(1, 2)] == F(2) / (F(2) + F(1, 2))


def test_w_basis_degenerate_raises(monkeypatch):
    # a vanishing symmetriser leaves every column empty; q = 11/5 is used by
    # no other test, so the cache cannot hand back an earlier basis
    monkeypatch.setattr(tensorrep, "symmetriser_sum", lambda i, j, m, q: zero(m, q))
    with pytest.raises(InternalConsistencyError):
        w_basis(2, 2, F(11, 5))


def test_tensor_bound_messages_give_dimension():
    with pytest.raises(ResourceError, match=r"tensor 9\) has dimension 19683 > 6561"):
        w_basis(9, 3, F(2))
    with pytest.raises(ResourceError, match=r"tensor 6\) has dimension 15625 > 6561"):
        sigma_matrix(3, 1, 5, F(2))


# -- braiding matrices ----------------------------------------------------------


def test_sigma_matrix_p0_is_identity():
    assert linalg.mat_equal(sigma_matrix(2, 0, 2, F(2)), linalg.identity(9))


def test_sigma_matrix_k1_is_hecke_rmatrix():
    for N in (2, 3):
        assert linalg.mat_equal(sigma_matrix(1, 1, N, F(2)), hecke_rmatrix(N, F(2)))


@pytest.mark.parametrize("q", [F(2), F(3, 2)], ids=str)
@pytest.mark.parametrize("k,N", [(2, 2), (2, 3), (3, 2)])
def test_sigma_matrix_consistent_with_algebra_element(k, N, q):
    # the represented sandwiched element must act on W x W exactly as the
    # matrix read off the weight-graded basis does; the dense solve is the
    # independent reference
    ctx = FusedContext(k, 2, q)
    basis_mat = pair_basis(k, N, q)[2]
    for p in range(k + 1):
        big = represent(partial_braiding(ctx, 1, p), N)
        coords = solve_exact(basis_mat, linalg.matmul(big, basis_mat))
        assert linalg.mat_equal(coords, sigma_matrix(k, p, N, q))


def test_sigma_matrix_image_outside_span_raises(monkeypatch):
    # without the trailing symmetrisers the braided images leave W x W;
    # q = 7/3 is used by no other test, so no cached matrix masks the patch
    q = F(7, 3)
    w_basis(2, 2, q)
    monkeypatch.setattr(tensorrep, "symmetriser_sum", lambda i, j, m, q: unit(m, q))
    with pytest.raises(InternalConsistencyError):
        sigma_matrix(2, 1, 2, q)


@pytest.mark.parametrize("k,N", [(1, 2), (1, 3), (2, 2), (2, 3), (3, 2)])
def test_sigma_matrix_minimal_polynomial(k, N):
    q = F(2)
    s = sigma_matrix(k, k, N, q)
    d = s.shape[0]
    prod = linalg.identity(d)
    for l in range(k + 1):
        c = (-1) ** (k + l) * q ** (-k + l * (l + 1))
        prod = linalg.matmul(prod, s - linalg.identity(d) * c)
    assert linalg.mat_equal(prod, linalg.zeros(d, d))


@pytest.mark.slow
def test_sigma_matrix_minimal_polynomial_k3_N3():
    q = F(2)
    s = sigma_matrix(3, 3, 3, q)
    d = s.shape[0]
    prod = linalg.identity(d)
    for l in range(4):
        c = (-1) ** (3 + l) * q ** (-3 + l * (l + 1))
        prod = linalg.matmul(prod, s - linalg.identity(d) * c)
    assert linalg.mat_equal(prod, linalg.zeros(d, d))


# -- assembled R-matrices -----------------------------------------------------------


def test_fused_R_matrix_k1():
    q, u = F(2), F(3, 5)
    got = fused_R_matrix(1, 2, u, q)
    want = hecke_rmatrix(2, q) - linalg.identity(4) * ((q - 1 / q) / (1 - u))
    assert linalg.mat_equal(got, want)


def test_fused_R_matrix_is_coefficient_combination():
    q, u = F(3, 2), F(5, 9)
    c = baxter_coefficients(2, 2, u, q).values
    manual = linalg.zeros(9, 9)
    for p in range(3):
        manual = manual + sigma_matrix(2, p, 2, q) * c[p]
    assert linalg.mat_equal(fused_R_matrix(2, 2, u, q), manual)


@pytest.mark.parametrize("k,N,p", [(1, 2, 1), (2, 2, 1), (2, 2, 2), (2, 3, 1), (3, 2, 2)])
def test_classical_sigma_direct_oracle(k, N, p):
    assert linalg.mat_equal(
        sigma_matrix(k, p, N, F(1)), classical_sigma_direct(k, p, N)
    )


def test_classical_fused_R_matrix_coefficients():
    mu = F(7, 2)
    c = classical_coefficients(2, mu)
    manual = linalg.zeros(9, 9)
    for p in range(3):
        manual = manual + sigma_matrix(2, p, 2, F(1)) * c[p]
    assert linalg.mat_equal(classical_fused_R_matrix(2, 2, mu), manual)


def test_classical_matrix_additive_ybe():
    mu, nu = F(7, 2), F(9, 4)
    d = 3
    eye = linalg.identity(d)
    r = lambda m: classical_fused_R_matrix(2, 2, m)
    lhs = linalg.matmul(
        linalg.matmul(linalg.kron(r(mu), eye), linalg.kron(eye, r(mu + nu))),
        linalg.kron(r(nu), eye),
    )
    rhs = linalg.matmul(
        linalg.matmul(linalg.kron(eye, r(nu)), linalg.kron(r(mu + nu), eye)),
        linalg.kron(eye, r(mu)),
    )
    assert linalg.mat_equal(lhs, rhs)


def test_verify_matrix_ybe_small():
    assert verify_matrix_ybe(1, 2, F(3, 5), F(7, 11), F(2))
    assert verify_matrix_ybe(2, 2, F(3, 7), F(5, 9), F(2))


def test_verify_matrix_ybe_resource_bound():
    with pytest.raises(ResourceError):
        verify_matrix_ybe(4, 4, F(3, 7), F(5, 9), F(2))


# -- serialization ---------------------------------------------------------------------


def test_matrix_serialization_roundtrip():
    q, u = F(2), F(3, 5)
    mat = fused_R_matrix(1, 2, u, q)
    obj = json.loads(json.dumps(matrix_to_obj(mat, 1, 2, q, u)))
    assert obj["dim"] == 4 and obj["u"] == "3/5"
    assert linalg.mat_equal(matrix_from_obj(obj), mat)
    csv = matrix_to_csv(mat)
    assert len(csv.strip().splitlines()) == 4
    # corner entry is q - (q - 1/q)/(1 - u) = 2 - (3/2)/(2/5)
    assert csv.splitlines()[0].split(",")[0] == "-7/4"


def test_sigma_matrix_is_read_only():
    want = sigma_matrix(2, 1, 2, F(2)).copy()
    with pytest.raises(ValueError):
        sigma_matrix(2, 1, 2, F(2))[0, 0] = 99
    assert linalg.mat_equal(sigma_matrix(2, 1, 2, F(2)), want)
