import itertools

import numpy as np
import pytest

from cpmasa import (
    DEFAULT_TOL,
    GkslGenerator,
    Infeasible,
    KrausMap,
    Masa,
    Tolerance,
    apply_cp,
    apply_generator,
    classical_restriction,
    dag,
    expm_skew,
    find_masa_m2,
    frobenius,
    generator_superoperator,
    haar_unitary,
    is_invariant,
    is_invariant_generator,
    is_invariant_map,
    is_invariant_superoperator,
    map_superoperator,
    markov_form,
    masa_from_selfadjoint,
    nullspace,
    offdiag,
    rebolledo_check,
    search_invariant_projections,
    search_masa,
    solve_generator_coefficients,
    solve_kraus_coefficients,
    vec,
)
from cpmasa.errors import (
    DegenerateSpectrum,
    DimensionMismatch,
    NotInvariant,
    NumericalFailure,
    PatternExplosion,
    PreconditionFailed,
)
from cpmasa import masa as masa_module
from cpmasa.masa import (
    _MAX_ITERS,
    _descend,
    _kraus_coefficient_solution,
    _masked_objective,
    _pair_form,
    _stack_width,
)

from _ensembles import (
    complex_gaussian,
    generic_generator_instance,
    generic_map_instance,
    invariant_generator_instance,
    invariant_map_instance,
    mix_ops,
    pattern_ops,
    random_markov_generator,
    random_unital_map,
)


def test_masa_basics():
    m = Masa.diagonal(3)
    assert m.dim == 3
    assert np.allclose(m.basis_unitary, np.eye(3))
    e1 = m.projection(1)
    assert np.allclose(e1, np.diag([0.0, 1.0, 0.0]))
    x = complex_gaussian(np.random.default_rng(0), (3, 3))
    assert np.allclose(m.from_coordinates(m.to_coordinates(x)), x)
    with pytest.raises(PreconditionFailed):
        Masa(np.array([[1, 1], [0, 1]], dtype=complex))


def test_masa_coordinates_in_rotated_basis():
    rng = np.random.default_rng(1)
    u = haar_unitary(rng, 4)
    m = Masa(u)
    # every masa element is diagonal in coordinates
    c = u @ np.diag(rng.standard_normal(4)).astype(complex) @ dag(u)
    assert frobenius(offdiag(m.to_coordinates(c))) < 1e-12
    p = m.projection(2)
    assert frobenius(p @ p - p) < 1e-12
    assert frobenius(p - dag(p)) < 1e-12


def test_masa_from_selfadjoint():
    rng = np.random.default_rng(2)
    a = complex_gaussian(rng, (3, 3))
    a = (a + dag(a)) / 2
    m = masa_from_selfadjoint(a)
    # the generator is diagonal in the masa coordinates
    assert frobenius(offdiag(m.to_coordinates(a))) < 1e-9
    with pytest.raises(DegenerateSpectrum):
        masa_from_selfadjoint(np.eye(2, dtype=complex))


def test_invariance_verdicts_invariant_and_generic():
    rng = np.random.default_rng(3)
    t, masa = invariant_map_instance(rng, 3, 2)
    assert is_invariant_map(t, masa).residual < 1e-10
    t2, masa2 = generic_map_instance(rng, 3, 2)
    assert not is_invariant_map(t2, masa2)

    gen, gmasa = invariant_generator_instance(rng, 3, 2)
    assert is_invariant_generator(gen, gmasa).residual < 1e-10
    gen2, gmasa2 = generic_generator_instance(rng, 3, 2)
    assert not is_invariant_generator(gen2, gmasa2)


def test_invariance_superoperator_path_agrees():
    rng = np.random.default_rng(4)
    for _ in range(10):
        d = int(rng.integers(2, 5))
        t, masa = invariant_map_instance(rng, d, 2)
        v_map = is_invariant_map(t, masa)
        v_sup = is_invariant_superoperator(map_superoperator(t), masa)
        assert abs(v_map.residual - v_sup.residual) < 1e-12
        gen, gmasa = generic_generator_instance(rng, d, 2)
        v_gen = is_invariant_generator(gen, gmasa)
        v_gsup = is_invariant_superoperator(generator_superoperator(gen), gmasa)
        assert abs(v_gen.residual - v_gsup.residual) < 1e-12


def test_invariance_dimension_mismatch():
    t = KrausMap([np.eye(2, dtype=complex)])
    with pytest.raises(DimensionMismatch):
        is_invariant_map(t, Masa.diagonal(3))


def test_invariance_non_finite_images_raise():
    t = KrausMap([1e308 * np.eye(2, dtype=complex)])
    with pytest.raises(NumericalFailure):
        is_invariant(t, Masa.diagonal(2))


def test_kraus_coefficients_non_finite_raise():
    # the right-hand sides overflow, so the residual and its threshold are inf
    t = KrausMap([1e200 * np.array([[1, 1], [0, 1]], dtype=complex)])
    with pytest.raises(NumericalFailure):
        solve_kraus_coefficients(t, Masa.diagonal(2))


def test_generator_coefficients_non_finite_raise():
    # the images overflow, so the rates are NaN and the image scale is inf
    gen = GkslGenerator(KrausMap([1e200 * np.eye(2, dtype=complex)]), np.eye(2, dtype=complex))
    with pytest.raises(NumericalFailure):
        solve_generator_coefficients(gen, Masa.diagonal(2))


def test_search_masa_raw_superoperator_matches_kraus_map():
    rng = np.random.default_rng(14)
    t, _ = invariant_map_instance(rng, 3, 2)
    masa, residual = search_masa(t, restarts=3, seed=5)
    raw_masa, raw_residual = search_masa(map_superoperator(t), restarts=3, seed=5)
    assert raw_residual == residual
    assert np.array_equal(raw_masa.basis_unitary, masa.basis_unitary)


def test_find_masa_m2_on_raw_superoperator():
    t = random_unital_map(np.random.default_rng(15), 2, 3)
    masa = find_masa_m2(map_superoperator(t))
    assert is_invariant(t, masa).ok


@pytest.mark.parametrize(
    "call",
    [
        lambda s: is_invariant(s, Masa.diagonal(2)),
        lambda s: search_masa(s, restarts=1),
        find_masa_m2,
    ],
    ids=["is_invariant", "search_masa", "find_masa_m2"],
)
def test_raw_superoperator_side_must_be_square(call):
    with pytest.raises(DimensionMismatch):
        call(np.eye(5, dtype=complex))


def _criterion_cases(root):
    """Seeded (seed, rng, d, n): 30 small draws, then d = 8, 8, 16, 16 with n = 3."""
    for seed in range(30):
        rng = np.random.default_rng([root, seed])
        yield seed, rng, int(rng.integers(2, 5)), int(rng.integers(1, 4))
    for seed, d in enumerate((8, 8, 16, 16), start=30):
        yield seed, np.random.default_rng([root, seed]), d, 3


def test_kraus_coefficients_agree_with_invariance():
    for seed, rng, d, n in _criterion_cases(400):
        if seed % 2 == 0:
            t, masa = invariant_map_instance(rng, d, n)
        else:
            t, masa = generic_map_instance(rng, d, n)
        tol8 = Tolerance(atol=1e-8, rtol=1e-8)
        direct = bool(is_invariant_map(t, masa, tol8))
        out = solve_kraus_coefficients(t, masa, tol8)
        assert direct == (not isinstance(out, Infeasible))


def test_kraus_coefficient_witness_identity():
    # feasible witness solves c E_kk L_i - L_i E_kk = ... in masa coordinates:
    # sum_j c[k,i,j,:] weighted rows of L_j match the commutator of E_kk with L_i
    rng = np.random.default_rng(5)
    t, masa = invariant_map_instance(rng, 3, 2)
    # L_0 -> (L_0/sqrt2, L_0/sqrt2) keeps the map but makes the family
    # linearly dependent, so the coefficients are not unique
    t8, masa8 = invariant_map_instance(np.random.default_rng(16), 8, 2)
    half = t8.operators[0] / np.sqrt(2)
    dependent = KrausMap([half, half, t8.operators[1]])
    for t, masa in ((t, masa), (dependent, masa8)):
        wit = solve_kraus_coefficients(t, masa)
        assert not isinstance(wit, Infeasible)
        d, n = t.dim, len(t)
        a = [masa.to_coordinates(op) for op in t.operators]
        c = wit.c_blocks
        assert c.shape == (d, n, n, d)
        for k in range(d):
            e_kk = np.zeros((d, d), dtype=complex)
            e_kk[k, k] = 1
            for i in range(n):
                lhs = np.zeros((d, d), dtype=complex)
                for j in range(n):
                    lhs += np.diag(c[k, i, j]) @ a[j]
                rhs = e_kk @ a[i] - a[i] @ e_kk
                assert frobenius(lhs - rhs) < 1e-8
        # hermitian symmetry of the coefficient matrix of each masa element
        for k in range(d):
            for r in range(d):
                block = c[k, :, :, r]
                assert frobenius(block - dag(block)) < 1e-10


def _dense_kraus_reference(ops):
    """The commutator expansion as one dense least-squares system per k, in loops.

    Unknowns per k: w_ii[r] real, then (Re, Im) of w_ab[r] for each pair a < b.
    """
    n, d, _ = ops.shape
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    c_blocks = np.zeros((d, n, n, d), dtype=complex)
    residual_sq = rhs_sq = 0.0
    for k in range(d):
        e_kk = np.zeros((d, d))
        e_kk[k, k] = 1
        rows, rhs = [], []
        for i in range(n):
            comm = e_kk @ ops[i] - ops[i] @ e_kk
            for r in range(d):
                for s in range(d):
                    coeff = np.zeros((n + 2 * len(pairs), d), dtype=complex)
                    coeff[i, r] = ops[i, r, s]
                    for p, (a, b) in enumerate(pairs):
                        if i == a:
                            coeff[n + 2 * p : n + 2 * p + 2, r] = ops[b, r, s] * np.array([1, 1j])
                        elif i == b:
                            coeff[n + 2 * p : n + 2 * p + 2, r] = ops[a, r, s] * np.array([1, -1j])
                    rows.append(coeff.ravel())
                    rhs.append(comm[r, s])
        a_cplx, b_cplx = np.array(rows), np.array(rhs)
        a_real = np.vstack([a_cplx.real, a_cplx.imag])
        b_real = np.concatenate([b_cplx.real, b_cplx.imag])
        x = np.linalg.lstsq(a_real, b_real, rcond=None)[0].reshape(-1, d)
        residual_sq += np.linalg.norm(a_real @ x.ravel() - b_real) ** 2
        rhs_sq += np.linalg.norm(b_real) ** 2
        c_blocks[k, np.arange(n), np.arange(n)] = x[:n]
        for p, (a, b) in enumerate(pairs):
            c_blocks[k, a, b] = x[n + 2 * p] + 1j * x[n + 2 * p + 1]
            c_blocks[k, b, a] = np.conj(c_blocks[k, a, b])
    return c_blocks, np.sqrt(residual_sq), np.sqrt(rhs_sq)


def test_kraus_coefficients_match_dense_reference():
    # the per-row solves against one dense system per k: generic, invariant
    # (rows that vanish up to rounding) and linearly dependent families
    for seed in range(12):
        rng = np.random.default_rng([450, seed])
        d, n = int(rng.integers(2, 6)), int(rng.integers(1, 4))
        if seed % 3 == 0:
            t, masa = generic_map_instance(rng, d, n)
        else:
            t, masa = invariant_map_instance(rng, d, n)
        ops = list(t.operators)
        if seed % 3 == 2:
            ops = [ops[0] / np.sqrt(2), ops[0] / np.sqrt(2)] + ops[1:]
        coords = masa.to_coordinates(np.stack(ops))
        c, residual, rhs_norm = _kraus_coefficient_solution(coords)
        c_ref, residual_ref, rhs_ref = _dense_kraus_reference(coords)
        bound = 1e-12 * max(1.0, rhs_ref)
        assert abs(residual - residual_ref) <= bound
        assert abs(rhs_norm - rhs_ref) <= bound
        assert np.abs(c - c_ref).max() <= bound


def test_kraus_coefficients_infeasible_reports_residual():
    rng = np.random.default_rng(6)
    t, masa = generic_map_instance(rng, 3, 2)
    out = solve_kraus_coefficients(t, masa)
    assert isinstance(out, Infeasible)
    assert not out
    assert out.residual > out.threshold


def test_generator_coefficients_agree_with_invariance():
    for seed, rng, d, n in _criterion_cases(500):
        if seed % 2 == 0:
            gen, masa = invariant_generator_instance(rng, d, n, gauge_shift=(seed % 4 == 0))
        else:
            gen, masa = generic_generator_instance(rng, d, n)
        tol8 = Tolerance(atol=1e-8, rtol=1e-8)
        direct = bool(is_invariant_generator(gen, masa, tol8))
        out = solve_generator_coefficients(gen, masa, tol8)
        assert direct == (not isinstance(out, Infeasible))


def test_generator_coefficient_witness_reconstruction():
    # the witness reproduces L(E_kk) = sum_i K_i* E_kk K_i + gamma_k E_kk
    # with K_i the shifted family, in masa coordinates
    for seed in range(10):
        rng = np.random.default_rng([600, seed])
        d = int(rng.integers(2, 5))
        n = int(rng.integers(1, 4))
        gen, masa = invariant_generator_instance(rng, d, n, gauge_shift=(seed % 2 == 0))
        wit = solve_generator_coefficients(gen, masa)
        assert not isinstance(wit, Infeasible)
        assert wit.c_ops.shape == (n, d)
        assert wit.gamma.shape == (d,)
        assert np.all(np.isreal(wit.gamma))
        a = [masa.to_coordinates(op) for op in gen.kraus.operators]
        b = masa.to_coordinates(gen.beta)
        shifted = [a[i] - np.diag(wit.c_ops[i]) for i in range(n)]
        for k in range(d):
            e_kk = np.zeros((d, d), dtype=complex)
            e_kk[k, k] = 1
            image = sum(dag(op) @ e_kk @ op for op in a) + e_kk @ b + dag(b) @ e_kk
            rebuilt = sum(dag(kop) @ e_kk @ kop for kop in shifted) + wit.gamma[k] * e_kk
            assert frobenius(image - rebuilt) < 1e-7


def test_rebolledo_pattern_family_passes():
    rng = np.random.default_rng(7)
    ops = pattern_ops(rng, 3, 2)
    verdict = rebolledo_check(KrausMap(ops), Masa.diagonal(3))
    assert all(v.ok for v in verdict.per_operator)
    assert verdict.patterns_examined == 4**3


def test_rebolledo_matrix_unit():
    # single matrix unit E_12 satisfies the commutation condition
    e12 = np.zeros((2, 2), dtype=complex)
    e12[0, 1] = 1
    verdict = rebolledo_check(KrausMap([e12]), Masa.diagonal(2))
    assert verdict.per_operator[0].ok
    # and the full-support operator does not
    ones = np.ones((2, 2), dtype=complex)
    verdict = rebolledo_check(KrausMap([ones]), Masa.diagonal(2))
    assert not verdict.per_operator[0].ok


def test_rebolledo_compatible_elements_of_diagonal_family():
    # diagonal operators: the all-rows-to-self pattern carries the whole span
    ops = [np.diag([1.0, 2.0]).astype(complex), np.diag([3.0, -1.0]).astype(complex)]
    verdict = rebolledo_check(KrausMap(ops), Masa.diagonal(2))
    assert all(v.ok for v in verdict.per_operator)
    dims = {pi.pattern: pi.dimension for pi in verdict.compatible_elements}
    assert max(dims.values()) == 2
    for pi in verdict.compatible_elements:
        assert pi.dimension >= 1
        assert len(pi.basis) == pi.dimension


def test_rebolledo_non_finite_raises():
    # the squared entries overflow, so the weighted variance is NaN
    big = KrausMap([1e200 * np.ones((2, 2), dtype=complex)])
    with pytest.raises(NumericalFailure):
        rebolledo_check(big, Masa.diagonal(2))


def _rebolledo_reference(ops):
    """Per-operator checks in loops over rows, and compatible patterns as the
    nullspace of [span, −pattern] with a unit-matrix basis per pattern.

    Returns the (residual, threshold) of each operator and the (pattern,
    elements) pairs, elements a list of unit vec's.
    """
    n, d, _ = ops.shape
    c = np.arange(1, d + 1, dtype=float)
    checks = []
    for op in ops:
        weights = np.abs(op) ** 2
        residual_sq = 0.0
        for r in range(d):
            w = weights[r]
            total = float(w.sum())
            if total <= 0.0:
                continue
            values = c[r] - c
            mean = float((w * values).sum() / total)
            residual_sq += float((w * (values - mean) ** 2).sum())
        c_mat = np.diag(c).astype(complex)
        scale = max(1.0, frobenius(c_mat @ op - op @ c_mat))
        checks.append((np.sqrt(residual_sq), DEFAULT_TOL.threshold(scale)))
    stack = np.column_stack([vec(op) for op in ops])
    u_mat, sing, _ = np.linalg.svd(stack, full_matrices=False)
    span_rank = int((sing > DEFAULT_TOL.rank_cut(sing[0])).sum())
    span_basis = u_mat[:, :span_rank]
    out = []
    for pattern in itertools.product(range(d + 1), repeat=d):
        positions = [(r, pattern[r]) for r in range(d) if pattern[r] < d]
        if not positions or span_rank == 0:
            continue
        pattern_basis = np.zeros((d * d, len(positions)), dtype=complex)
        for col, (r, s) in enumerate(positions):
            e_rs = np.zeros((d, d), dtype=complex)
            e_rs[r, s] = 1
            pattern_basis[:, col] = vec(e_rs)
        null = nullspace(np.hstack([span_basis, -pattern_basis]))
        elements = []
        for idx in range(null.shape[1]):
            w_vec = span_basis @ null[:span_rank, idx]
            elements.append(w_vec / np.linalg.norm(w_vec))
        if elements:
            out.append((tuple(col if col < d else None for col in pattern), elements))
    return checks, out


def _rebolledo_family(seed):
    """Seeded (KrausMap, Masa) at d = 1..4: generic, invariant, pattern, zero or diagonal."""
    rng = np.random.default_rng([470, seed])
    d, n = 1 + seed % 4, int(rng.integers(1, 4))
    kind = (seed // 4) % 5
    if kind == 0:
        return generic_map_instance(rng, d, n)
    if kind == 1:
        return invariant_map_instance(rng, d, n)
    if kind == 2:
        ops = pattern_ops(rng, d, n)
    elif kind == 3:
        ops = [np.zeros((d, d), dtype=complex)] * n
    else:
        ops = [np.diag(complex_gaussian(rng, d)) for _ in range(n)]
    return KrausMap(ops), Masa.diagonal(d)


def test_rebolledo_matches_pattern_stack_reference():
    # the loop algorithm: per-operator checks to rounding; for each pattern the
    # same dimension and projector, as bases of dimension >= 2 may differ by a rotation
    largest = 0
    for seed in range(64):
        t, masa = _rebolledo_family(seed)
        verdict = rebolledo_check(t, masa)
        checks, reference = _rebolledo_reference(masa.to_coordinates(np.stack(t.operators)))
        for v, (residual, threshold) in zip(verdict.per_operator, checks, strict=True):
            assert abs(v.residual - residual) <= 1e-12 * max(1.0, residual), seed
            assert abs(v.threshold - threshold) <= 1e-12 * threshold, seed
            assert v.ok == (residual <= threshold), seed
        got = verdict.compatible_elements
        assert [pi.pattern for pi in got] == [pattern for pattern, _ in reference], seed
        for pi, (_, elements) in zip(got, reference):
            assert pi.dimension == len(pi.basis) == len(elements), seed
            mine = np.column_stack([vec(b) for b in pi.basis])
            theirs = np.column_stack(elements)
            assert np.abs(mine @ dag(mine) - theirs @ dag(theirs)).max() <= 1e-12, seed
            largest = max(largest, pi.dimension)
    assert largest >= 2


def test_rebolledo_explosion_guard():
    ops = [np.eye(6, dtype=complex)]
    with pytest.raises(PatternExplosion):
        rebolledo_check(KrausMap(ops), Masa.diagonal(6))


def test_find_masa_m2_on_random_instances():
    worst = 0.0
    for seed in range(40):
        rng = np.random.default_rng([700, seed])
        if seed % 2 == 0:
            source = random_unital_map(rng, 2, int(rng.integers(1, 5)))
            masa = find_masa_m2(source)
            res = is_invariant_map(source, masa).residual
        else:
            source = random_markov_generator(rng, 2, int(rng.integers(1, 4)))
            masa = find_masa_m2(source)
            res = is_invariant_generator(source, masa).residual
        worst = max(worst, res)
    assert worst < 1e-8


def test_find_masa_m2_rejects_wrong_dim():
    rng = np.random.default_rng(8)
    with pytest.raises(DimensionMismatch):
        find_masa_m2(random_unital_map(rng, 3, 2))


def test_find_masa_m2_precondition():
    # unit image must be scalar for the reduced real action to make sense
    t = KrausMap([np.array([[1, 0], [1, 1]], dtype=complex)])
    with pytest.raises(PreconditionFailed):
        find_masa_m2(t)


def test_search_masa_finds_invariant_masa():
    rng = np.random.default_rng(9)
    t, _ = invariant_map_instance(rng, 2, 2)
    masa, residual = search_masa(t, restarts=40, seed=7)
    assert residual < 1e-8
    assert is_invariant_map(t, masa).residual < 1e-7


def test_search_masa_deterministic():
    rng = np.random.default_rng(10)
    t, _ = invariant_map_instance(rng, 2, 2)
    m1, r1 = search_masa(t, restarts=10, seed=3)
    m2, r2 = search_masa(t, restarts=10, seed=3)
    assert r1 == r2
    assert np.array_equal(m1.basis_unitary, m2.basis_unitary)


def test_search_masa_rejects_bad_restarts():
    t = KrausMap([np.eye(2, dtype=complex)])
    with pytest.raises(PreconditionFailed):
        search_masa(t, restarts=0)


@pytest.mark.parametrize(
    "call",
    [
        lambda: search_masa(KrausMap([1e308 * np.eye(2, dtype=complex)]), restarts=2),
        lambda: search_invariant_projections(
            GkslGenerator(KrausMap([1e200 * np.eye(2, dtype=complex)]), np.eye(2, dtype=complex)),
            seed=1,
        ),
    ],
    ids=["search_masa", "search_invariant_projections"],
)
def test_search_masa_non_finite_superoperator_raises(call):
    with pytest.raises(NumericalFailure):
        call()


def _descent_sources(rng, d):
    t, _ = invariant_map_instance(rng, d, 2)
    gen = random_markov_generator(rng, d, 2)
    raw = map_superoperator(KrausMap(list(complex_gaussian(rng, (3, d, d)))))
    return {"map": t, "generator": gen, "superoperator": raw}


@pytest.mark.parametrize("d", [3, 4])
@pytest.mark.parametrize("kind", ["map", "generator", "superoperator"])
def test_descent_objective_gradient_and_pair_form(d, kind):
    rng = np.random.default_rng([30, d])
    source = _descent_sources(rng, d)[kind]
    s = source if kind == "superoperator" else source.superoperator()
    pairs = _pair_form(s)
    rebuilt = sum(np.kron(b.T, a) for a, b in zip(*pairs))
    assert frobenius(rebuilt - s) <= 1e-12 * frobenius(s)
    block = np.arange(d) < 2
    # search_masa's off-diagonal mask on every E_kk; the projection search's
    # off-block mask on one rank-2 projection
    for inputs, mask in [
        (np.eye(d), 1 - np.eye(d)),
        (block[None, :].astype(float), block[:, None] != block),
    ]:
        objective = _masked_objective(pairs, inputs, mask)
        u = haar_unitary(rng, d)
        _, grad = objective(u)
        for _ in range(3):
            z = complex_gaussian(rng, (d, d))
            a = (z - dag(z)) / 2
            t = 1e-5
            central = (
                objective(u @ expm_skew(t * a))[0] - objective(u @ expm_skew(-t * a))[0]
            ) / (2 * t)
            analytic = np.vdot(grad, a).real
            assert abs(central - analytic) <= 1e-6 * abs(analytic)


def _scalar_descend(objective, u, max_iters):
    """The one-start descent loop that the lockstep descent replaced, kept as its reference.

    Also returns why the start stopped.
    """
    value, grad = objective(u)
    step = 0.1
    for _ in range(max_iters):
        norm = frobenius(grad)
        if norm < 1e-14 or value < 1e-24:
            return u, value, "converged"
        unit_dir = grad / norm
        while step > 1e-10:
            candidate = u @ expm_skew(-step * unit_dir)
            candidate_value, candidate_grad = objective(candidate)
            if candidate_value < value:
                u, value, grad = candidate, candidate_value, candidate_grad
                step = min(step * 1.2, 0.5)
                break
            step *= 0.5
        else:
            return u, value, "out_of_step"
    return u, value, "max_iters"


def _search_objective(source):
    pairs = _pair_form(source if isinstance(source, np.ndarray) else source.superoperator())
    eye = np.eye(pairs[0].shape[-1])
    return _masked_objective(pairs, eye, 1 - eye), pairs


@pytest.mark.parametrize("d", [3, 4])
@pytest.mark.parametrize("kind", ["map", "generator", "superoperator"])
def test_lockstep_descent_equals_scalar_loop(d, kind):
    rng = np.random.default_rng([31, d])
    objective, pairs = _search_objective(_descent_sources(rng, d)[kind])
    starts = np.array([haar_unitary(rng, d) for _ in range(6)])
    reasons = set()
    # the budget stops every start at 3, some at 150, and few at 400
    for max_iters in (3, _MAX_ITERS, 400):
        finals, values = _descend(objective, starts, max_iters, _stack_width(pairs))
        assert len(finals) == len(starts)
        for start, u, value in zip(starts, finals, values):
            ref_u, ref_value, reason = _scalar_descend(objective, start, max_iters)
            reasons.add(reason)
            assert np.array_equal(u, ref_u)
            assert value == ref_value
    assert {"max_iters", "out_of_step"} <= reasons


@pytest.mark.parametrize("kind", ["map", "generator", "superoperator"])
def test_lockstep_restart_ignores_its_stack_mates(kind):
    rng = np.random.default_rng(33)
    objective, pairs = _search_objective(_descent_sources(rng, 4)[kind])
    starts = np.array([haar_unitary(rng, 4) for _ in range(8)])
    width = _stack_width(pairs)
    finals, values = _descend(objective, starts, 40, width)
    for order in ([5], [7, 0, 3], list(range(8))[::-1]):
        alone, alone_values = _descend(objective, starts[order], 40, width)
        assert np.array_equal(alone, finals[order])
        assert np.array_equal(alone_values, values[order])


def test_search_masa_early_exit_keeps_restart_order():
    # test_search_masa_finds_invariant_masa's instance: restart 1 is the first below atol/10
    rng = np.random.default_rng(9)
    t, _ = invariant_map_instance(rng, 2, 2)
    _, first = search_masa(t, restarts=1, seed=7)
    assert first >= DEFAULT_TOL.atol / 10
    short, short_residual = search_masa(t, restarts=2, seed=7)
    assert short_residual < DEFAULT_TOL.atol / 10
    long, long_residual = search_masa(t, restarts=40, seed=7)
    assert long_residual == short_residual
    assert np.array_equal(long.basis_unitary, short.basis_unitary)


def test_search_masa_chunks_match_one_stack(monkeypatch):
    rng = np.random.default_rng(34)
    gen = random_markov_generator(rng, 3, 2)
    whole = search_masa(gen, restarts=10, seed=5)
    assert whole[1] >= DEFAULT_TOL.atol / 10  # no early exit: every chunk runs
    pairs = _pair_form(gen.superoperator())
    width = _stack_width(pairs)
    assert width >= 10
    monkeypatch.setattr(masa_module, "_STACK_ENTRIES", masa_module._STACK_ENTRIES * 4 // width)
    assert _stack_width(pairs) == 4  # chunks of 4, 4 and 2 restarts
    chunked = search_masa(gen, restarts=10, seed=5)
    assert chunked[1] == whole[1]
    assert np.array_equal(chunked[0].basis_unitary, whole[0].basis_unitary)


def test_search_masa_draws_one_chunk_of_starts_at_a_time(monkeypatch):
    # test_search_masa_early_exit_keeps_restart_order's instance: restart 1 is
    # the first below atol/10, so no start after the first chunk is drawn
    rng = np.random.default_rng(9)
    t, _ = invariant_map_instance(rng, 2, 2)
    short = search_masa(t, restarts=2, seed=7)
    pairs = _pair_form(t.superoperator())
    monkeypatch.setattr(
        masa_module, "_STACK_ENTRIES", masa_module._STACK_ENTRIES * 4 // _stack_width(pairs)
    )
    assert _stack_width(pairs) == 4
    draws = []

    def counted(rng, d):
        draws.append(d)
        return haar_unitary(rng, d)

    monkeypatch.setattr(masa_module, "haar_unitary", counted)
    long = search_masa(t, restarts=40, seed=7)
    assert len(draws) == 4
    assert long[1] == short[1]
    assert np.array_equal(long[0].basis_unitary, short[0].basis_unitary)


def test_search_invariant_projections_trivial_pair():
    rng = np.random.default_rng(11)
    gen = random_markov_generator(rng, 3, 2)
    found = search_invariant_projections(gen, seed=1)
    # 0 and 1 always commute with their image
    has_zero = any(frobenius(q) < 1e-12 for q, _ in found)
    has_one = any(frobenius(q - np.eye(3)) < 1e-12 for q, _ in found)
    assert has_zero and has_one
    for q, res in found:
        assert frobenius(q @ q - q) < 1e-6
        assert frobenius(q - dag(q)) < 1e-6
        lq = apply_generator(gen, q)
        assert frobenius(q @ lq - lq @ q) <= max(res * 1.01 + 1e-12, 1e-12)


def test_search_invariant_projections_finds_known_projection():
    # diagonal jump family leaves every diagonal projection invariant
    rng = np.random.default_rng(12)
    ops = [np.diag(rng.standard_normal(3)).astype(complex) for _ in range(2)]
    h = np.diag(rng.standard_normal(3)).astype(complex)
    gen = markov_form(KrausMap(ops), h)
    found = search_invariant_projections(gen, seed=2)
    ranks = {int(round(np.trace(q).real)) for q, _ in found}
    assert {0, 1, 2, 3} <= ranks


def test_classical_restriction_diagonal_family():
    # diagonal jumps with diagonal Hamiltonian: restriction has rows of
    # squared moduli minus the total rate on the diagonal
    ops = [np.diag([1.0, 2.0]).astype(complex)]
    h = np.diag([0.5, -0.5]).astype(complex)
    gen = markov_form(KrausMap(ops), h)
    a = classical_restriction(gen, Masa.diagonal(2))
    # L(E_kk) = |l_k|^2 E_kk - |l_k|^2 E_kk = 0 off the markov balance:
    # diag action: a[k, l] = delta contributions only
    assert a.shape == (2, 2)
    assert np.allclose(a.imag if np.iscomplexobj(a) else np.zeros_like(a), 0)
    assert np.allclose(a.sum(axis=1), 0, atol=1e-10)


def test_classical_restriction_requires_invariance():
    rng = np.random.default_rng(13)
    gen, masa = generic_generator_instance(rng, 3, 2)
    with pytest.raises(NotInvariant):
        classical_restriction(gen, masa)


def test_classical_restriction_markov_generator_is_q_matrix():
    # invariant Markov generator restricts to a Q-matrix on the diagonal
    for seed in range(10):
        rng = np.random.default_rng([800, seed])
        d = int(rng.integers(2, 5))
        base = pattern_ops(rng, d, 2)
        h = np.diag(rng.standard_normal(d)).astype(complex)
        gen = markov_form(KrausMap(base), h)
        a = classical_restriction(gen, Masa.diagonal(d))
        assert np.allclose(a.sum(axis=1), 0, atol=1e-10)
        off = a - np.diag(np.diag(a))
        assert np.all(off >= -1e-10)


def test_classical_restriction_of_unital_map_is_stochastic():
    # invariant unital CP map restricts to a row-stochastic matrix
    rng = np.random.default_rng(14)
    base = [op * 0.6 for op in pattern_ops(rng, 3, 2)]
    total = sum(dag(op) @ op for op in base)
    lam = np.linalg.eigvalsh(total)[-1]
    # pad to a unital family with diagonal operators
    gap = np.eye(3) * (lam + 0.1) - total
    root = np.diag(np.sqrt(np.diag(gap).real)).astype(complex)
    ops = [op / np.sqrt(lam + 0.1) for op in base] + [root / np.sqrt(lam + 0.1)]
    t = KrausMap(ops)
    assert frobenius(apply_cp(t, np.eye(3)) - np.eye(3)) < 1e-10
    a = classical_restriction(t, Masa.diagonal(3))
    assert np.all(a >= -1e-10)
    assert np.allclose(a.sum(axis=1), 1.0, atol=1e-10)


def test_rebolledo_elements_vanish_outside_their_pattern():
    # every compatible element is supported in its pattern, to the last bit
    for seed in range(24):
        rng = np.random.default_rng([1102, seed])
        d = 2 + seed % 3
        t = KrausMap(mix_ops(rng, pattern_ops(rng, d, 3)))
        for pi in rebolledo_check(t, Masa.diagonal(d)).compatible_elements:
            outside = np.ones((d, d), dtype=bool)
            for r, col in enumerate(pi.pattern):
                if col is not None:
                    outside[r, col] = False
            for element in pi.basis:
                assert np.all(element[outside] == 0), (seed, pi.pattern)
