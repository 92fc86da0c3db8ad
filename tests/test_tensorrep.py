import json
import random
from collections import Counter
from fractions import Fraction as F
from math import comb

import numpy as np
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
from fusedhecke import fused, hecke, linalg, tensorrep
from fusedhecke.errors import InternalConsistencyError, ParameterError, ResourceError
from fusedhecke.fused import (
    _ADDITIVE,
    _multiplicative,
    baxter_coefficients,
    classical_coefficients,
)
from fusedhecke.permutations import all_permutations
from fusedhecke.tensorrep import matrix_to_csv, matrix_to_obj
from oracles import (
    _apply_element,
    _apply_gen,
    classical_sigma_direct,
    dense_matrix_ybe,
    eye,
    hecke_rmatrix,
    mat_equal,
    matrix_from_obj,
    pair_basis,
    rank,
    represent,
    solve_exact,
    zeros,
)


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
    rhs = r * (q - 1 / q) + eye(N * N)
    assert mat_equal(lhs, rhs)


def test_hecke_rmatrix_braid_relation():
    q = F(3, 2)
    r = hecke_rmatrix(2, q)
    r12 = np.kron(r, eye(2))
    r23 = np.kron(eye(2), r)
    lhs = linalg.matmul(linalg.matmul(r12, r23), r12)
    rhs = linalg.matmul(linalg.matmul(r23, r12), r23)
    assert mat_equal(lhs, rhs)


def test_represent_unit_and_braid():
    q = F(2)
    assert mat_equal(represent(unit(3, q), 2), eye(8))
    lhs = multiply(multiply(generator(1, 3, q), generator(2, 3, q)), generator(1, 3, q))
    rhs = multiply(multiply(generator(2, 3, q), generator(1, 3, q)), generator(2, 3, q))
    assert mat_equal(represent(lhs, 2), represent(rhs, 2))


def test_represent_generator_is_local_rmatrix():
    q = F(2)
    r = hecke_rmatrix(2, q)
    assert mat_equal(represent(generator(1, 3, q), 2), np.kron(r, eye(2)))
    assert mat_equal(represent(generator(2, 3, q), 2), np.kron(eye(2), r))


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
        assert mat_equal(
            represent(multiply(a, b), 2),
            linalg.matmul(represent(a, 2), represent(b, 2)),
        )


@pytest.mark.parametrize("N", [2, 3])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_represented_symmetriser_idempotent_of_expected_rank(k, N):
    q = F(2)
    s = represent(symmetriser_sum(1, k, k, q), N)
    assert mat_equal(linalg.matmul(s, s), s)
    assert rank(s) == comb(k + N - 1, k)


def test_represent_resource_bound():
    with pytest.raises(ResourceError):
        represent(unit(9, F(2)), 3)  # 3^9 > 6561


# -- the hecke kernel on tensors -------------------------------------------------

# the negative q cover a numerator a < 0 in the scaled-integer form q = a/b
KERNEL_QS = [F(2), F(3, 2), F(1), F(-1), F(-5, 7)]


def _random_tensors(rng, N, m, count):
    """Sparse vectors on V^(tensor m), every key with a repeated letter."""
    vecs = []
    for _ in range(count):
        vec = {}
        for _ in range(rng.randint(1, 5)):
            letters = [rng.randint(1, N) for _ in range(m - 1)]
            letters.append(rng.choice(letters))
            rng.shuffle(letters)
            vec[tuple(letters)] = F(rng.randint(-9, 9) or 1, rng.randint(1, 9))
        vecs.append(vec)
    return vecs


def _through_kernel(vec, N, step):
    """Apply step, a map of scaled-integer forms, to vec in the kernel's
    letters, and read the image back as Fractions in the tensor's letters."""
    nums, den = step(*hecke._scaled(tensorrep._reversed(vec, N)))
    return tensorrep._reversed(hecke._unscaled(nums, den), N)


@pytest.mark.parametrize("q", KERNEL_QS, ids=str)
@pytest.mark.parametrize("N,m", [(2, 3), (3, 4), (4, 3)])
def test_scaled_kernel_matches_term_by_term_action(N, m, q):
    # 10 vectors for each of 15 (N, m, q): 150 in all
    rng = random.Random(100 * N + m)
    for vec in _random_tensors(rng, N, m, 10):
        for pos in range(1, m):
            got = _through_kernel(vec, N, lambda n, d: hecke._scaled_affine(n, d, pos, 0, q))
            assert got == _apply_gen(vec, pos, q)
            assert all(type(c) is F for c in got.values())
        for i in range(1, m):
            for j in range(i + 1, m + 1):
                got = _through_kernel(
                    vec, N, lambda n, d: hecke._scaled_symmetriser(n, d, i, j, q)
                )
                assert got == _apply_element(vec, symmetriser_sum(i, j, m, q))


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


def test_q_zero_raises():
    with pytest.raises(ParameterError, match="nonzero"):
        fused_R_matrix(2, 2, F(3, 5), 0)
    with pytest.raises(ParameterError, match="nonzero"):
        verify_matrix_ybe(1, 2, F(3, 5), F(7, 11), 0)


def test_w_basis_degenerate_raises(monkeypatch):
    # a vanishing symmetriser pass leaves every column empty; q = 11/5 is
    # used by no other test, so the cache cannot hand back an earlier basis
    monkeypatch.setattr(tensorrep, "_scaled_symmetriser", lambda nums, den, i, j, q: ({}, den))
    with pytest.raises(InternalConsistencyError):
        w_basis(2, 2, F(11, 5))


def test_tensor_bound_messages_give_dimension():
    with pytest.raises(ResourceError, match=r"tensor 9\) has dimension 19683 > 6561"):
        w_basis(9, 3, F(2))
    with pytest.raises(ResourceError, match=r"tensor 6\) has dimension 15625 > 6561"):
        sigma_matrix(3, 1, 5, F(2))


def test_tensor_bounds_admit_their_edge_and_reject_past_it():
    # N^k = 3^8 = 6561 = MAX_TENSOR_DIM and d^3 = 16^3 = 4096 = MAX_YBE_DIM
    # are admitted; one more letter or one more dimension is not
    q = F(2)
    assert w_basis(8, 3, q).dim == 45
    assert verify_matrix_ybe(1, 16, F(3, 5), F(7, 11), q)
    with pytest.raises(ResourceError, match=r"^V\^\(tensor 5\) has dimension 7776 > 6561$"):
        w_basis(5, 6, q)
    with pytest.raises(ResourceError, match=r"^W\^\(tensor 3\) has dimension 4913 > 4096$"):
        verify_matrix_ybe(1, 17, F(3, 5), F(7, 11), q)


def test_first_matrix_diff_reports_a_shape_mismatch():
    assert linalg.first_matrix_diff([[1, 2]], [[1], [2]]) == (-1, -1, (1, 2), (2, 1))
    assert linalg.first_matrix_diff([], [[1]]) == (-1, -1, (0, 0), (1, 1))
    assert linalg.first_matrix_diff([[1, 2]], [[1, 3]]) == (0, 1, 2, 3)


# -- braiding matrices ----------------------------------------------------------


@pytest.mark.parametrize("k,N", [(2, 0), (0, 2), (-1, 2)])
def test_nonpositive_k_or_N_raises(k, N):
    q, u, v = F(2), F(3, 5), F(7, 11)
    calls = [
        lambda: w_basis(k, N, q),
        lambda: sigma_matrix(k, 1, N, q),
        lambda: fused_R_matrix(k, N, u, q),
        lambda: verify_matrix_ybe(k, N, u, v, q),
    ]
    for call in calls:
        with pytest.raises(ParameterError, match="must be a positive integer"):
            call()


def test_sigma_matrix_p0_is_identity():
    assert mat_equal(sigma_matrix(2, 0, 2, F(2)), eye(9))


def test_sigma_matrix_k1_is_hecke_rmatrix():
    for N in (2, 3):
        assert mat_equal(sigma_matrix(1, 1, N, F(2)), hecke_rmatrix(N, F(2)))


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
        assert mat_equal(coords, sigma_matrix(k, p, N, q))


def test_sigma_matrix_image_outside_span_raises(monkeypatch):
    # without the trailing symmetriser passes of the braiding chain, which
    # tensorrep shares with fused, the braided images leave W x W; q = 7/3
    # is used by no other test, so no cached matrix masks the patch, and the
    # basis is built before it
    q = F(7, 3)
    w_basis(2, 2, q)
    monkeypatch.setattr(fused, "_scaled_symmetriser", lambda nums, den, i, j, q: (nums, den))
    with pytest.raises(InternalConsistencyError):
        sigma_matrix(2, 1, 2, q)


def _off_by_one(nums, key):
    nums[key] += 1 if nums[key] != -1 else -1


def _dropped(nums, key):
    del nums[key]


@pytest.mark.parametrize("change, q", [(_off_by_one, F(13, 6)), (_dropped, F(17, 6))],
                         ids=["off_by_one", "dropped"])
def test_sigma_matrix_image_not_proportional_raises(monkeypatch, change, q):
    # one numerator of one braided image off by one (its support kept), or
    # one key of it dropped: the image is no longer a multiple of the
    # w_a (x) w_b that holds the key, which the integer read-off catches;
    # each q is used by no other test, so no cached matrix masks the patch
    k, N = 2, 2
    braid = tensorrep._braid_right
    changed = []

    def perturbed(*args):
        nums, den = braid(*args)
        # a key whose halves are not both some t_a: not the key that fixes a
        # coordinate, so it lies in a w_a (x) w_b with at least two keys
        words = hecke._INDEX.words
        at = [r for r in nums if any(list(h) != sorted(h, reverse=True)
                                     for h in (words[r][:k], words[r][k:]))]
        if at and not changed:
            changed.append(at[0])
            nums = dict(nums)
            change(nums, at[0])
        return nums, den

    monkeypatch.setattr(tensorrep, "_braid_right", perturbed)
    with pytest.raises(InternalConsistencyError, match="leaves W tensor W"):
        sigma_matrix(k, 1, N, q)
    assert changed


@pytest.mark.parametrize("k,N", [(1, 2), (1, 3), (2, 2), (2, 3), (3, 2), (3, 3), (4, 2)])
def test_sigma_matrix_minimal_polynomial(k, N):
    q = F(2)
    s = sigma_matrix(k, k, N, q)
    d = s.shape[0]
    prod = eye(d)
    for l in range(k + 1):
        c = (-1) ** (k + l) * q ** (-k + l * (l + 1))
        prod = linalg.matmul(prod, s - eye(d) * c)
    assert mat_equal(prod, zeros(d, d))


# -- assembled R-matrices -----------------------------------------------------------


def test_fused_R_matrix_k1():
    q, u = F(2), F(3, 5)
    got = fused_R_matrix(1, 2, u, q)
    want = hecke_rmatrix(2, q) - eye(4) * ((q - 1 / q) / (1 - u))
    assert mat_equal(got, want)


def test_fused_R_matrix_is_coefficient_combination():
    q, u = F(3, 2), F(5, 9)
    c = baxter_coefficients(2, 2, u, q).values
    manual = zeros(9, 9)
    for p in range(3):
        manual = manual + sigma_matrix(2, p, 2, q) * c[p]
    assert mat_equal(fused_R_matrix(2, 2, u, q), manual)


@pytest.mark.parametrize("k,N,p", [(1, 2, 1), (2, 2, 1), (2, 2, 2), (2, 3, 1), (3, 2, 2)])
def test_classical_sigma_direct_oracle(k, N, p):
    assert mat_equal(
        sigma_matrix(k, p, N, F(1)), classical_sigma_direct(k, p, N)
    )


def test_classical_fused_R_matrix_coefficients():
    mu = F(7, 2)
    c = classical_coefficients(2, mu)
    manual = zeros(9, 9)
    for p in range(3):
        manual = manual + sigma_matrix(2, p, 2, F(1)) * c[p]
    assert mat_equal(classical_fused_R_matrix(2, 2, mu), manual)


def test_R_matrices_read_their_arguments_as_rationals():
    # the spectral argument reaches the coefficients as given: a string is
    # parsed, a float is rejected
    assert mat_equal(fused_R_matrix(2, 2, "3/5", "2"), fused_R_matrix(2, 2, F(3, 5), F(2)))
    assert mat_equal(classical_fused_R_matrix(2, 2, "7/2"), classical_fused_R_matrix(2, 2, F(7, 2)))
    for call in (lambda: fused_R_matrix(1, 2, 0.5, F(2)), lambda: classical_fused_R_matrix(1, 2, 0.5)):
        with pytest.raises(ParameterError, match="cannot interpret 0.5 as an exact rational"):
            call()


def test_classical_matrix_additive_ybe():
    assert tensorrep._verify_matrix_ybe(2, 2, F(7, 2), F(9, 4), _ADDITIVE)


# the two q-generic points of acceptance criterion 07 and one additive point
MATRIX_YBE_POINTS = {
    "q2": (_multiplicative(F(2)), F(3, 5), F(7, 11)),
    "q3/2": (_multiplicative(F(3, 2)), F(2, 7), F(3, 8)),
    "additive": (_ADDITIVE, F(7, 2), F(9, 4)),
}


@pytest.mark.parametrize("point", MATRIX_YBE_POINTS)
@pytest.mark.parametrize("k,N", [(1, 2), (2, 2), (1, 3), (3, 2), (2, 3)])
def test_matrix_ybe_agrees_with_dense_reference(k, N, point):
    bax, x, y = MATRIX_YBE_POINTS[point]
    got = tensorrep._verify_matrix_ybe(k, N, x, y, bax)
    assert got.ok
    assert got == dense_matrix_ybe(k, N, x, y, bax)


def _letters(k, N, q, index, factors):
    """The letter multiset of basis vector `index` of W^(tensor factors)."""
    wb = w_basis(k, N, q)
    letters = Counter()
    for _ in range(factors):
        index, a = divmod(index, wb.dim)
        letters.update(wb.indices[a])
    return letters


@pytest.mark.parametrize("at", ["first", "middle", "last"])
@pytest.mark.parametrize("point", MATRIX_YBE_POINTS)
@pytest.mark.parametrize("k,N", [(1, 2), (1, 3), (2, 2), (3, 2), (2, 3)])
def test_verify_matrix_ybe_perturbed_sigma_fails(monkeypatch, k, N, point, at):
    # sigma_1 raised by one at an entry inside the support; the dense
    # reference multiplies the same perturbed R-matrices
    bax, x, y = MATRIX_YBE_POINTS[point]
    q = bax.q
    columns = tensorrep._sigma_columns
    dim = comb(k + N - 1, k) ** 2
    # the first, middle or last one, in row-major order, of the entries
    # where some sigma_p is nonzero
    entries = sorted({divmod(key, dim)[::-1] for p in range(k + 1)
                      for key in columns(k, p, N, q)[0]})
    r, c = entries[{"first": 0, "middle": len(entries) // 2, "last": -1}[at]]

    def raised(k, p, N, q):
        nums, den = columns(k, p, N, q)
        if p != 1:
            return nums, den
        # one more at (r, c) is den more in the numerator there
        nums = dict(nums)
        nums[c * dim + r] = nums.get(c * dim + r, 0) + den
        return nums, den

    monkeypatch.setattr(tensorrep, "_sigma_columns", raised)
    got = tensorrep._verify_matrix_ybe(k, N, x, y, bax)
    assert not got.ok
    assert got == dense_matrix_ybe(k, N, x, y, bax)
    # the diff stays in one weight block, which holds the perturbed column
    i, j, lhs, rhs = got.diff
    assert lhs != rhs
    assert _letters(k, N, q, i, 3) == _letters(k, N, q, j, 3)
    assert not _letters(k, N, q, c, 2) - _letters(k, N, q, j, 3)


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
    assert mat_equal(matrix_from_obj(obj), mat)
    csv = matrix_to_csv(mat)
    assert len(csv.strip().splitlines()) == 4
    # corner entry is q - (q - 1/q)/(1 - u) = 2 - (3/2)/(2/5)
    assert csv.splitlines()[0].split(",")[0] == "-7/4"


def test_sigma_matrix_is_read_only():
    want = sigma_matrix(2, 1, 2, F(2)).copy()
    with pytest.raises(ValueError):
        sigma_matrix(2, 1, 2, F(2))[0, 0] = 99
    assert mat_equal(sigma_matrix(2, 1, 2, F(2)), want)


@pytest.mark.parametrize("q", [F(2), F(3, 2), F(1), F(-1)], ids=["2", "3/2", "1", "-1"])
@pytest.mark.parametrize("k, N", [(1, 2), (1, 3), (2, 2), (2, 3), (3, 2)])
def test_sparse_columns_agree_with_the_dense_matrices(k, N, q):
    # the CLI prints the rows of the columns; the public functions fill
    # numpy arrays from the same columns
    u = F(3, 7)
    for p in range(k + 1):
        rows = tensorrep._rows(tensorrep._sigma_columns(k, p, N, q), k, N)
        assert rows == sigma_matrix(k, p, N, q).tolist()
    rows = tensorrep._rows(tensorrep._R_columns(k, N, u, _multiplicative(q)), k, N)
    assert rows == fused_R_matrix(k, N, u, q).tolist()
    # R is sum_p a_p(u) sigma_p, entry by entry
    d = comb(k + N - 1, k) ** 2
    want = zeros(d, d)
    for p, a in enumerate(baxter_coefficients(k, k, u, q).values):
        want = want + sigma_matrix(k, p, N, q) * a
    assert mat_equal(fused_R_matrix(k, N, u, q), want)
