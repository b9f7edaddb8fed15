import warnings

import numpy as np
import pytest
import scipy.linalg

from cpmasa import (
    DEFAULT_TOL,
    GkslGenerator,
    KrausMap,
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
    map_superoperator,
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
    _PairForm,
    _disjoint_least_squares,
    complex_from_realified,
    complex_least_squares,
    least_squares,
    matrix_rank_tol,
    real_linear_least_squares,
    realify_conjugate_linear_system,
    require_matrix,
)
from cpmasa import linalg as linalg_module
from cpmasa.masa import _Superoperator

from _ensembles import complex_gaussian, mix_ops


def test_tolerance_requires_positive_component():
    with pytest.raises(ToleranceInvalid):
        Tolerance(atol=0.0, rtol=0.0)
    with pytest.raises(ToleranceInvalid):
        Tolerance(atol=-1e-9, rtol=1e-9)


def test_tolerance_threshold():
    tol = Tolerance(atol=1e-6, rtol=1e-3)
    assert tol.threshold(2.0) == pytest.approx(1e-6 + 2e-3)


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


def test_pair_form_kernel_matches_definitions():
    # T(X) = Σ A_i X B_i for general pairs, against the per-term formulas
    rng = np.random.default_rng(6)
    d, m = 3, 4
    pairs = _PairForm(complex_gaussian(rng, (m, d, d)), complex_gaussian(rng, (m, d, d)))
    x = complex_gaussian(rng, (d, d))
    units = np.eye(d * d).reshape(d * d, d, d)
    assert np.linalg.norm(pairs.apply(x) - sum(a @ x @ b for a, b in zip(*pairs))) < 1e-12
    superop = sum(np.kron(b.T, a) for a, b in zip(*pairs))
    assert np.linalg.norm(pairs.superoperator() - superop) < 1e-12
    choi = sum(np.kron(e, pairs.apply(e)) for e in units)
    assert np.linalg.norm(pairs.choi() - choi) < 1e-12
    u = haar_unitary(rng, d)
    images = [dag(u) @ pairs.apply(np.outer(u[:, k], u[:, k].conj())) @ u for k in range(d)]
    assert np.linalg.norm(pairs.images(u) - np.array(images)) < 1e-12


def _compression_sources(rng, d):
    """(evolution, the term count of its Hermitian form) for each kind."""
    ops = list(complex_gaussian(rng, (3, d, d)))
    t = KrausMap(ops)
    gen = GkslGenerator(t, complex_gaussian(rng, (d, d)))
    # three operators and three Haar mixes of them span three dimensions
    dependent = KrausMap(ops + mix_ops(rng, ops))
    raw = _Superoperator(map_superoperator(t))
    return {
        "map": (t, 3),
        "generator": (gen, 5),
        "superoperator": (raw, 3),
        "dependent": (dependent, 3),
    }


@pytest.mark.parametrize("d", [3, 6])
@pytest.mark.parametrize("kind", ["map", "generator", "superoperator", "dependent"])
def test_compressed_pairs_rebuild_the_superoperator(d, kind):
    # the Hermitian form's terms are the fewest pairs (ε_k C_k*, C_k) of the map
    evolution, count = _compression_sources(np.random.default_rng([7, d]), d)[kind]
    s = evolution.matrix if kind == "superoperator" else evolution.superoperator()
    form = evolution._pairs().hermitian()
    assert form.ops.shape == (count, d, d)
    assert set(form.weights.tolist()) <= {-1.0, 1.0}
    rebuilt = sum(e * np.kron(c.T, dag(c)) for e, c in zip(*form))
    assert frobenius(rebuilt - s) <= 1e-12 * frobenius(s)
    # the C_k are orthogonal, with ‖C_k‖²_F = |λ_k| and ‖λ‖₂ = ‖S‖_F
    gram = np.einsum("kxy,lxy->kl", form.ops.conj(), form.ops)
    squared = np.diag(gram).real
    assert frobenius(gram - np.diag(squared)) <= 1e-13 * squared.max()
    assert abs(np.linalg.norm(squared) - frobenius(s)) <= 1e-13 * frobenius(s)
    # a generator's drift terms X·β + β*·X carry a negative sign; a CP map's terms none
    assert (form.weights < 0).any() == (kind == "generator")


@pytest.mark.parametrize("d", [2, 4])
def test_compressed_overflowing_pair_form_raises_without_warning(d):
    # at d = 4 the stacks' column norms overflow inside the QR as well
    pairs = KrausMap([1e308 * np.eye(d, dtype=complex)])._pairs()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalFailure):
            pairs.hermitian()


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
    # no unknowns: lstsq's own empty solution, in the system's dtype, leaves b as the residual
    for dtype in (float, complex):
        for b in (np.ones(2), np.ones((2, 3))):
            x, res = least_squares(np.zeros((2, 0), dtype=dtype), b)
            assert x.shape == (0,) + b.shape[1:] and x.dtype == np.dtype(dtype)
            assert np.allclose(res, np.sqrt(2))


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


def test_least_squares_non_finite_system_raises(capfd):
    with pytest.raises(NumericalFailure):
        least_squares(np.array([[np.inf, 1.0], [0.0, 1.0]]), np.array([1.0, 2.0]))
    # refused before LAPACK, which would print its complaints to stdout
    assert capfd.readouterr().out == ""


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_least_squares_non_finite_right_hand_side_raises(capfd, bad):
    with pytest.raises(NumericalFailure, match="right-hand side"):
        least_squares(np.eye(2), np.array([bad, 1.0]))
    with pytest.raises(NumericalFailure, match="right-hand side"):
        least_squares(np.eye(2), np.array([[1.0, 0.0], [0.0, bad]]))
    assert capfd.readouterr().out == ""


def test_disjoint_least_squares_cuts_against_the_whole():
    # singular values at rounding level next to a unit block are zero at
    # working precision, as in one solve of the block-diagonal whole
    rng = np.random.default_rng(14)
    big = rng.standard_normal((4, 3))
    mixed = np.vstack([np.diag([1e-3, 1e-17, 1e-17]), np.zeros((1, 3))])
    tiny = 1e-17 * rng.standard_normal((4, 3))
    b = rng.standard_normal((4, 2))
    # a zero reference leaves the cut at the whole's σ_max
    x, residuals = _disjoint_least_squares(np.stack([big, mixed, tiny]), np.stack([b] * 3), 0.0)
    assert x.shape == (3, 3, 2) and residuals.shape == (3, 2)
    x_whole, r_whole = least_squares(scipy.linalg.block_diag(big, mixed, tiny), np.vstack([b] * 3))
    assert np.allclose(x.reshape(9, 2), x_whole, atol=1e-12)
    assert np.allclose(np.linalg.norm(residuals, axis=0), r_whole, atol=1e-12)
    assert np.array_equal(x[2], np.zeros((3, 2)))
    assert np.allclose(residuals[2], np.linalg.norm(b, axis=0))
    # on their own the rounding-level directions are solved, not cut
    assert np.abs(least_squares(mixed, b)[0]).max() > 1e10
    assert np.abs(least_squares(tiny, b)[0]).max() > 1.0


def test_disjoint_least_squares_non_finite_system_raises():
    a = np.stack([np.eye(2), np.array([[np.inf, 1.0], [0.0, 1.0]])])
    with pytest.raises(NumericalFailure):
        _disjoint_least_squares(a, np.ones((2, 2, 1)), 1.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_disjoint_least_squares_non_finite_right_hand_side_raises(bad):
    b = np.ones((2, 2, 1))
    b[1, 0, 0] = bad
    with pytest.raises(NumericalFailure, match="right-hand side"):
        _disjoint_least_squares(np.stack([np.eye(2)] * 2), b, 1.0)


def test_disjoint_least_squares_complex_blocks_and_reference():
    # complex blocks solve as one least-squares call each
    rng = np.random.default_rng(15)
    a = rng.standard_normal((3, 5, 2)) + 1j * rng.standard_normal((3, 5, 2))
    b = rng.standard_normal((3, 5, 1)) + 1j * rng.standard_normal((3, 5, 1))
    x, residuals = _disjoint_least_squares(a, b, 1.0)
    for block in range(3):
        xb, rb = least_squares(a[block], b[block, :, 0])
        assert np.allclose(x[block, :, 0], xb, atol=1e-12)
        assert residuals[block, 0] == pytest.approx(rb, abs=1e-12)
    # a system at the rounding level of its operators has no directions left,
    # however large it is against its own σ_max
    tiny = 1e-17 * a[:1]
    x, residuals = _disjoint_least_squares(tiny, b[:1], 1.0)
    assert np.array_equal(x, np.zeros_like(x))
    assert residuals[0, 0] == pytest.approx(np.linalg.norm(b[0]), rel=1e-14)
    assert np.abs(_disjoint_least_squares(tiny, b[:1], 0.0)[0]).max() > 1.0


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


def test_matrix_exp_overflow_raises_without_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalFailure):
            matrix_exp(np.array([[800.0, 1.0], [0.0, 1.0]]))


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


@pytest.mark.parametrize("shape", [(5, 3, 4), (3, 3, 3), (2, 4, 3, 3)])
def test_dag_acts_on_each_matrix_of_a_stack(shape):
    a = complex_gaussian(np.random.default_rng(list(shape)), shape)
    out = dag(a)
    assert out.shape == shape[:-2] + (shape[-1], shape[-2])
    for idx in np.ndindex(*shape[:-2]):
        assert np.array_equal(out[idx], a[idx].conj().T)


@pytest.mark.parametrize("shape", [(5, 3, 3), (3, 3, 3), (4, 4, 4), (2, 3, 4, 4)])
def test_expm_skew_acts_on_each_matrix_of_a_stack(shape):
    # a stack as long as its side (R = d) broadcasts without error either way
    z = complex_gaussian(np.random.default_rng([7, *shape]), shape)
    a = (z - dag(z)) / 2
    out = expm_skew(a)
    assert out.shape == shape
    for idx in np.ndindex(*shape[:-2]):
        np.testing.assert_allclose(out[idx], expm_skew(a[idx]), rtol=0, atol=1e-14)
        np.testing.assert_allclose(out[idx], scipy.linalg.expm(a[idx]), rtol=0, atol=1e-12)


@pytest.mark.parametrize("d", range(2, 17))
def test_eigh_of_a_halved_descent_step_is_the_halved_eigenvalues(d):
    # eigh of exactly half a Hermitian matrix gives exactly half its eigenvalues
    # and the same eigenvectors, so _exp_from_eigh of the halved eigenvalues is
    # expm_skew of the halved step, bit for bit
    z = complex_gaussian(np.random.default_rng([44, d]), (4, d, d))
    g = (z - dag(z)) / 2
    g /= np.sqrt(np.einsum("rij,rij->r", g.conj(), g).real)[:, None, None]
    for k in range(9):  # steps of norm 0.1 to 0.43
        step = 0.1 * 1.2**k
        w, v = np.linalg.eigh(1j * (-step * g))
        for _ in range(30):  # halved down to 1e-10–4e-10
            step *= 0.5
            w *= 0.5
            got_w, got_v = np.linalg.eigh(1j * (-step * g))
            assert np.array_equal(got_w, w)
            assert np.array_equal(got_v, v)
        assert np.array_equal(linalg_module._exp_from_eigh(w, v), expm_skew(-step * g))


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


def _haar_reference(rng, d):
    """A Haar unitary from one 2-D QR, as drawn before the batched draw."""
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(z)
    ph = np.diag(r).copy()
    ph /= np.abs(ph)
    return q * ph


@pytest.mark.parametrize("d", range(1, 13))
def test_batched_haar_draw_equals_one_draw_per_key(d):
    keys = [[7, r] for r in range(9)]
    chunk = linalg_module._haar_isometries([np.random.default_rng(key) for key in keys], d, d)
    assert chunk.shape == (len(keys), d, d)
    for key, u in zip(keys, chunk):
        assert np.array_equal(u, haar_unitary(np.random.default_rng(key), d))
        assert np.array_equal(u, _haar_reference(np.random.default_rng(key), d))
