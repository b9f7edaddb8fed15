import numpy as np
import pytest
import scipy.linalg

from cpmasa import (
    DEFAULT_TOL,
    Tolerance,
    commutant_intersection,
    dag,
    expm_skew,
    frobenius,
    haar_unitary,
    hermitian_eig,
    matrix_exp,
    nullspace,
    offdiag,
    unvec,
    vec,
)
from cpmasa.errors import (
    DimensionMismatch,
    NotSelfAdjoint,
    NumericalFailure,
    ToleranceInvalid,
)
from cpmasa.linalg import (
    _disjoint_least_squares,
    complex_from_realified,
    complex_least_squares,
    expand_over,
    least_squares,
    matrix_rank_tol,
    real_linear_least_squares,
    realify_conjugate_linear_system,
    require_matrix,
)

from _ensembles import complex_gaussian


def test_tolerance_requires_positive_component():
    with pytest.raises(ToleranceInvalid):
        Tolerance(atol=0.0, rtol=0.0)
    with pytest.raises(ToleranceInvalid):
        Tolerance(atol=-1e-9, rtol=1e-9)


def test_tolerance_threshold_and_close():
    tol = Tolerance(atol=1e-6, rtol=1e-3)
    assert tol.threshold(2.0) == pytest.approx(1e-6 + 2e-3)
    a = np.eye(2, dtype=complex)
    assert tol.close(a, a + 1e-7)
    assert not tol.close(a, a + 1.0)


def test_vec_unvec_column_stacking():
    x = np.array([[1, 2], [3, 4]], dtype=complex)
    v = vec(x)
    assert np.array_equal(v, np.array([1, 3, 2, 4], dtype=complex))
    assert np.array_equal(unvec(v, 2), x)


def test_vec_intertwines_kron():
    # vec(A X B) = (B^T kron A) vec(X), the column-stacking identity
    rng = np.random.default_rng(5)
    for _ in range(5):
        a = complex_gaussian(rng, (3, 3))
        b = complex_gaussian(rng, (3, 3))
        x = complex_gaussian(rng, (3, 3))
        lhs = vec(a @ x @ b)
        rhs = np.kron(b.T, a) @ vec(x)
        assert np.linalg.norm(lhs - rhs) < 1e-12


def test_offdiag_and_frobenius():
    a = np.array([[1, 2], [3, 4]], dtype=complex)
    z = offdiag(a)
    assert z[0, 0] == 0 and z[1, 1] == 0 and z[0, 1] == 2 and z[1, 0] == 3
    assert frobenius(np.eye(3)) == pytest.approx(np.sqrt(3))


def test_require_matrix_rejects_bad_shapes():
    with pytest.raises(DimensionMismatch):
        require_matrix(np.zeros((2, 3)))
    with pytest.raises(DimensionMismatch):
        require_matrix(np.eye(3), dim=2)
    with pytest.raises(NumericalFailure):
        require_matrix(np.array([[np.nan, 0], [0, 1]]))


def test_require_matrix_accepts_transposed_views():
    a = complex_gaussian(np.random.default_rng(0), (3, 3))
    out = require_matrix(dag(a))
    assert np.allclose(out, a.conj().T)


def test_hermitian_eig_identity():
    lam, v = hermitian_eig(np.eye(2, dtype=complex))
    assert np.allclose(lam, [1.0, 1.0])
    assert np.allclose(v, np.eye(2))


def test_hermitian_eig_diagonal_sorts_ascending():
    lam, v = hermitian_eig(np.diag([3.0, 1.0]))
    assert np.allclose(lam, [1.0, 3.0])
    # columns permuted to match the sorted eigenvalues
    assert np.allclose(v, np.array([[0, 1], [1, 0]], dtype=complex))


def test_hermitian_eig_pauli_x():
    lam, v = hermitian_eig(np.array([[0, 1], [1, 0]], dtype=complex))
    assert np.allclose(lam, [-1.0, 1.0])
    a = np.array([[0, 1], [1, 0]], dtype=complex)
    assert np.linalg.norm(a @ v - v @ np.diag(lam)) < 1e-12


def test_hermitian_eig_rejects_nonsymmetric():
    with pytest.raises(NotSelfAdjoint):
        hermitian_eig(np.array([[0, 1], [0, 0]], dtype=complex))


def test_hermitian_eig_phase_convention():
    # largest-magnitude entry of each eigenvector is real positive
    rng = np.random.default_rng(7)
    for _ in range(10):
        a = complex_gaussian(rng, (4, 4))
        a = (a + dag(a)) / 2
        _, v = hermitian_eig(a)
        for k in range(4):
            top = v[np.argmax(np.abs(v[:, k])), k]
            assert abs(top.imag) < 1e-12
            assert top.real > 0


def test_hermitian_eig_reconstruction_property():
    # seeded property: A = V diag(lam) V* and V*V = 1 within 10*atol
    for seed in range(50):
        rng = np.random.default_rng(seed)
        d = int(rng.integers(2, 6))
        a = complex_gaussian(rng, (d, d))
        a = (a + dag(a)) / 2
        lam, v = hermitian_eig(a)
        assert np.all(np.diff(lam) >= -1e-12)
        assert frobenius(a - v @ np.diag(lam) @ dag(v)) <= 10 * DEFAULT_TOL.atol * max(1, frobenius(a))
        assert frobenius(dag(v) @ v - np.eye(d)) <= 10 * DEFAULT_TOL.atol


def test_real_least_squares_identity_and_overdetermined():
    x, res = real_linear_least_squares(np.eye(3), np.array([1.0, 2.0, 3.0]))
    assert np.allclose(x, [1, 2, 3]) and res < 1e-12
    x, res = real_linear_least_squares(np.array([[1.0], [1.0]]), np.array([3.0, 5.0]))
    assert x[0] == pytest.approx(4.0)
    assert res == pytest.approx(np.sqrt(2.0))


def test_real_least_squares_zero_system():
    x, res = real_linear_least_squares(np.zeros((2, 2)), np.zeros(2))
    assert np.allclose(x, 0) and res == 0.0


def test_real_least_squares_minimum_norm():
    # underdetermined: x + y = 2 has minimizer (1, 1) of minimum norm
    x, res = real_linear_least_squares(np.array([[1.0, 1.0]]), np.array([2.0]))
    assert np.allclose(x, [1.0, 1.0]) and res < 1e-12


def test_real_least_squares_residual_matches_rank():
    # residual vanishes exactly when rhs lies in the range (50 seeds)
    for seed in range(50):
        rng = np.random.default_rng(seed)
        m, n = int(rng.integers(2, 7)), int(rng.integers(1, 5))
        a = rng.standard_normal((m, n))
        if seed % 2 == 0:
            b = a @ rng.standard_normal(n)
            in_range = True
        else:
            b = rng.standard_normal(m)
            stacked = np.column_stack([a, b])
            in_range = np.linalg.matrix_rank(stacked) == np.linalg.matrix_rank(a)
        _, res = real_linear_least_squares(a, b)
        assert (res <= DEFAULT_TOL.threshold(np.linalg.norm(b))) == in_range


def test_complex_least_squares_matches_direct_solve():
    rng = np.random.default_rng(11)
    a = complex_gaussian(rng, (4, 3))
    x0 = complex_gaussian(rng, 3)
    x, res = complex_least_squares(a, a @ x0)
    assert np.linalg.norm(x - x0) < 1e-10
    assert res < 1e-10


def test_least_squares_matrix_rhs_matches_column_solves():
    rng = np.random.default_rng(12)
    a = complex_gaussian(rng, (5, 3))
    b = np.column_stack([a @ complex_gaussian(rng, 3), complex_gaussian(rng, 5)])
    x, res = least_squares(a, b)
    assert x.shape == (3, 2) and res.shape == (2,)
    for j in range(2):
        xj, rj = least_squares(a, b[:, j])
        assert np.allclose(x[:, j], xj, atol=1e-12)
        assert res[j] == pytest.approx(rj, abs=1e-12)
    assert res[0] < 1e-10 < res[1]
    x_real, _ = least_squares(a.real, b.real)
    assert x_real.dtype == np.float64


def test_least_squares_rcond_cuts_small_singular_values():
    a = np.diag([1.0, 1e-6])
    x, res = least_squares(a, np.array([1.0, 1.0]), rcond=1e-3)
    assert np.allclose(x, [1.0, 0.0])
    assert res == pytest.approx(1.0)


def test_least_squares_non_finite_system_raises():
    with pytest.raises(NumericalFailure):
        least_squares(np.array([[np.inf, 1.0], [0.0, 1.0]]), np.array([1.0, 2.0]))


def test_disjoint_least_squares_cuts_against_the_whole():
    # singular values at rounding level next to a unit block are zero at
    # working precision, as in one solve of the block-diagonal whole
    rng = np.random.default_rng(14)
    big = rng.standard_normal((4, 3))
    mixed = np.vstack([np.diag([1e-3, 1e-17, 1e-17]), np.zeros((1, 3))])
    tiny = 1e-17 * rng.standard_normal((4, 3))
    b = rng.standard_normal((4, 2))
    blocks = [(big, b), (mixed, b), (tiny, b)]
    solutions = _disjoint_least_squares(blocks)
    x_whole, r_whole = least_squares(scipy.linalg.block_diag(big, mixed, tiny), np.vstack([b] * 3))
    assert np.allclose(np.vstack([x for x, _ in solutions]), x_whole, atol=1e-12)
    assert np.array_equal(solutions[2][0], np.zeros((3, 2)))
    assert np.allclose(solutions[2][1], np.linalg.norm(b, axis=0))
    # on their own the rounding-level directions are solved, not cut
    assert np.abs(least_squares(mixed, b)[0]).max() > 1e10
    assert np.abs(least_squares(tiny, b)[0]).max() > 1.0


def test_expand_over_coordinates_and_span_check():
    rng = np.random.default_rng(13)
    basis = [complex_gaussian(rng, (3, 3)) for _ in range(2)]
    coef = complex_gaussian(rng, (4, 2))
    ops = [coef[j, 0] * basis[0] + coef[j, 1] * basis[1] for j in range(4)]
    assert np.allclose(expand_over(basis, ops, DEFAULT_TOL), coef, atol=1e-10)
    with pytest.raises(NumericalFailure):
        expand_over(basis, ops + [complex_gaussian(rng, (3, 3))], DEFAULT_TOL)


def test_realified_conjugate_linear_system_roundtrip():
    # p z + q conj(z) = rhs realified and solved, then checked in complex form
    rng = np.random.default_rng(3)
    for _ in range(10):
        p = complex_gaussian(rng, (4, 2))
        q = complex_gaussian(rng, (4, 2))
        z0 = complex_gaussian(rng, 2)
        rhs = p @ z0 + q @ np.conj(z0)
        a_re, b_re = realify_conjugate_linear_system(p, q, rhs)
        x, res = real_linear_least_squares(a_re, b_re)
        assert res < 1e-10
        z = complex_from_realified(x)
        assert np.linalg.norm(p @ z + q @ np.conj(z) - rhs) < 1e-9


def test_realified_system_matrix_rhs_matches_columns():
    rng = np.random.default_rng(4)
    p = complex_gaussian(rng, (4, 2))
    q = complex_gaussian(rng, (4, 2))
    rhs = complex_gaussian(rng, (4, 3))
    a_re, b_re = realify_conjugate_linear_system(p, q, rhs)
    assert b_re.shape == (8, 3)
    for j in range(3):
        a_col, b_col = realify_conjugate_linear_system(p, q, rhs[:, j])
        assert np.array_equal(a_col, a_re)
        assert np.array_equal(b_col, b_re[:, j])


def test_matrix_exp_pinned_values():
    assert np.allclose(matrix_exp(np.zeros((2, 2))), np.eye(2))
    assert np.allclose(matrix_exp(np.diag([1.0, 2.0])), np.diag([np.e, np.e**2]))
    nilp = np.array([[0, 1], [0, 0]], dtype=float)
    assert np.allclose(matrix_exp(nilp), np.array([[1, 1], [0, 1]]))


def test_matrix_exp_inverse_property():
    for seed in range(50):
        rng = np.random.default_rng(seed)
        d = int(rng.integers(2, 5))
        a = complex_gaussian(rng, (d, d))
        a *= 5.0 / max(1.0, np.linalg.norm(a, 2))
        prod = matrix_exp(a) @ matrix_exp(-a)
        assert frobenius(prod - np.eye(d)) < 1e-8


def test_expm_skew_is_unitary():
    rng = np.random.default_rng(9)
    for _ in range(10):
        a = complex_gaussian(rng, (4, 4))
        a = (a - dag(a)) / 2
        u = expm_skew(a)
        assert frobenius(dag(u) @ u - np.eye(4)) < 1e-12
        assert frobenius(u - matrix_exp(a)) < 1e-10


def test_rank_and_nullspace():
    a = np.array([[1, 1], [1, 1]], dtype=complex)
    assert matrix_rank_tol(a) == 1
    ns = nullspace(a)
    assert ns.shape == (2, 1)
    assert np.linalg.norm(a @ ns) < 1e-12


def test_commutant_identity_family():
    dim, basis = commutant_intersection([np.eye(3, dtype=complex)])
    assert dim == 9
    assert len(basis) == 9


def test_commutant_distinct_diagonal():
    dim, basis = commutant_intersection([np.diag([1.0, 2.0, 3.0]).astype(complex)])
    assert dim == 3
    for b in basis:
        assert frobenius(offdiag(b)) < 1e-9


def test_commutant_contains_identity():
    rng = np.random.default_rng(21)
    for _ in range(10):
        mats = [complex_gaussian(rng, (3, 3)) for _ in range(2)]
        dim, basis = commutant_intersection(mats)
        assert dim >= 1
        # identity lies in the span of the returned basis
        stack = np.column_stack([vec(b) for b in basis])
        x, res = complex_least_squares(stack, vec(np.eye(3, dtype=complex)))
        assert res < 1e-8


def test_commutant_rejects_mixed_dims():
    with pytest.raises(DimensionMismatch):
        commutant_intersection([np.eye(2, dtype=complex), np.eye(3, dtype=complex)])


def test_haar_unitary_is_unitary_and_deterministic():
    u = haar_unitary(np.random.default_rng(4), 5)
    v = haar_unitary(np.random.default_rng(4), 5)
    assert frobenius(dag(u) @ u - np.eye(5)) < 1e-12
    assert np.array_equal(u, v)
