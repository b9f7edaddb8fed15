import itertools
import tracemalloc
import warnings

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
    build_example,
    classical_restriction,
    cp_part_diagonalizable,
    dag,
    embed_corner,
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
from cpmasa import linalg as linalg_module
from cpmasa import masa as masa_module
from cpmasa.masa import (
    _MAX_ITERS,
    _MEMORY,
    _Curvature,
    _Superoperator,
    _cayley_trials,
    _descend,
    _descents,
    _dots,
    _evolution,
    _kraus_coefficient_solution,
    _masked_objective,
    _squared_norms,
    _stack_width,
    _tangent_basis,
    _tangent_coordinates,
)

from _ensembles import (
    complex_gaussian,
    generic_generator_instance,
    generic_map_instance,
    invariant_generator_instance,
    invariant_map_instance,
    invariant_unital_map_instance,
    mix_ops,
    pattern_ops,
    random_markov_generator,
    random_unital_map,
    vanishing_row_generator_instance,
)


def test_every_evolution_kind_answers_one_protocol():
    rng = np.random.default_rng(44)
    d = 3
    t = KrausMap(complex_gaussian(rng, (2, d, d)))
    s = t.superoperator()
    # a zero drift adds no term, so the generator form acts as T does
    gen = GkslGenerator(t, np.zeros((d, d)))
    raw = _Superoperator(s)
    for evolution in (t, gen, raw):
        assert _evolution(evolution) is evolution
    assert isinstance(_evolution(s), _Superoperator)
    assert np.array_equal(raw.superoperator(), s)
    assert frobenius(gen.superoperator() - s) <= 1e-14 * frobenius(s)
    x = complex_gaussian(rng, (d, d))
    masa = Masa(haar_unitary(rng, d))
    for evolution in (gen, raw):
        assert frobenius(evolution.apply(x) - t.apply(x)) <= 1e-13 * frobenius(s)
        images = evolution.projection_images(masa)
        assert frobenius(images - t.projection_images(masa)) <= 1e-13 * frobenius(s)


def test_raw_superoperator_apply_checks_x_as_every_evolution_does():
    raw = _Superoperator(np.eye(4))
    for x in (np.eye(3), np.ones(4)):
        with pytest.raises(DimensionMismatch):
            raw.apply(x)
    with pytest.raises(NumericalFailure):
        raw.apply(np.array([[1.0, np.nan], [0.0, 1.0]]))


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
    # each input reaches its own Hermitian form, so the two searches agree to rounding, not bitwise
    assert is_invariant(t, raw_masa).ok == is_invariant(t, masa).ok
    assert abs(raw_residual - residual) <= 1e-12


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


@pytest.mark.parametrize(
    "call",
    [lambda s: search_masa(s, restarts=2, seed=1), lambda s: search_invariant_projections(s, seed=1)],
    ids=["search_masa", "search_invariant_projections"],
)
def test_finders_refuse_a_superoperator_that_breaks_hermiticity(call):
    # X ↦ AX maps a Hermitian X to one that is not; is_invariant still judges it
    rng = np.random.default_rng(44)
    a = complex_gaussian(rng, (3, 3))
    s = np.kron(np.eye(3), a)
    assert isinstance(is_invariant(s, Masa.diagonal(3)).ok, bool)
    with pytest.raises(PreconditionFailed):
        call(s)
    # the superoperator of a CP map passes the same check
    call(map_superoperator(KrausMap([a])))


def _criterion_cases(root):
    """Seeded (seed, rng, d, n): 30 small draws, d = 8, 8, 16, 16 with n = 3, then d = 1 with n = 1, 2."""
    for seed in range(30):
        rng = np.random.default_rng([root, seed])
        yield seed, rng, int(rng.integers(2, 5)), int(rng.integers(1, 4))
    for seed, d in enumerate((8, 8, 16, 16), start=30):
        yield seed, np.random.default_rng([root, seed]), d, 3
    for seed in (34, 35):
        yield seed, np.random.default_rng([root, seed]), 1, seed - 33


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
    # the stacked row solves against one dense system per k: generic, invariant
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


def test_kraus_criterion_is_one_batched_solve(monkeypatch):
    # the d row systems go to one stacked SVD, not to one least-squares call per
    # row: the map's rows in one, and the generator's in one for stage 1 (the
    # drift system, (d, d − 1, n)) and one for stage 3 (its shifted family)
    rng = np.random.default_rng(451)
    t, masa = invariant_map_instance(rng, 6, 3)
    gen, gen_masa = invariant_generator_instance(rng, 6, 3, gauge_shift=True)
    calls = {"least_squares": 0, "lstsq": 0, "svd": []}
    least_squares, lstsq, svd = linalg_module.least_squares, np.linalg.lstsq, np.linalg.svd

    def counting_least_squares(*args, **kwargs):
        calls["least_squares"] += 1
        return least_squares(*args, **kwargs)

    def counting_lstsq(*args, **kwargs):
        calls["lstsq"] += 1
        return lstsq(*args, **kwargs)

    def counting_svd(a, *args, **kwargs):
        calls["svd"].append(np.shape(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(linalg_module, "least_squares", counting_least_squares)
    monkeypatch.setattr(np.linalg, "lstsq", counting_lstsq)
    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    assert not isinstance(solve_kraus_coefficients(t, masa), Infeasible)
    assert calls["least_squares"] == calls["lstsq"] == 0 and len(calls["svd"]) == 1
    assert not isinstance(solve_generator_coefficients(gen, gen_masa), Infeasible)
    assert calls["least_squares"] == calls["lstsq"] == 0
    assert calls["svd"][1:] == [(6, 5, 3), calls["svd"][0]]


def test_kraus_coefficients_infeasible_reports_residual():
    rng = np.random.default_rng(6)
    t, masa = generic_map_instance(rng, 3, 2)
    out = solve_kraus_coefficients(t, masa)
    assert isinstance(out, Infeasible)
    assert not out
    assert out.residual > out.threshold


def _vanishing_row_cases(root):
    """Seeded vanishing-row generators: d from 2 to 6, n from 1 to 3, drift entry 1e-6, 1e-3 or 1."""
    for seed in range(30):
        for entry in (1e-6, 1e-3, 1.0):
            rng = np.random.default_rng([root, seed])
            d, n = int(rng.integers(2, 7)), int(rng.integers(1, 4))
            yield vanishing_row_generator_instance(rng, d, n, entry)


def test_generator_coefficients_agree_with_invariance():
    def cases():
        for seed, rng, d, n in _criterion_cases(500):
            if seed % 2 == 0:
                yield invariant_generator_instance(rng, d, n, gauge_shift=(seed % 4 == 0))
            else:
                yield generic_generator_instance(rng, d, n)
        yield from _vanishing_row_cases(501)

    for gen, masa in cases():
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


def test_ex2_2_empty_intersections_exact_replay():
    # ex2_2's operators have entries in Q(√2): over that field each of the 9
    # support patterns meets span{op1, op2} only in 0
    sympy = pytest.importorskip("sympy")
    t = build_example("ex2_2").payload
    s, h = 1 / sympy.sqrt(2), sympy.Rational(1, 2)
    ops = [sympy.Matrix([[s, 0], [h, h]]), sympy.Matrix([[0, s], [-h, h]])]
    exact = np.array([op.tolist() for op in ops], dtype=complex)
    # the corpus family is the exact one, to an ulp
    assert np.abs(exact - t.operators).max() <= np.finfo(float).eps
    examined = 0
    for pattern in itertools.product(range(3), repeat=2):
        # a·op1 + b·op2 lies in the pattern iff it vanishes at every entry outside it
        outside = [(r, c) for r in range(2) for c in range(2) if pattern[r] != c]
        assert sympy.Matrix([[op[r, c] for op in ops] for r, c in outside]).rank() == 2, pattern
        examined += 1
    verdict = rebolledo_check(t, Masa.diagonal(2))
    assert verdict.compatible_elements == ()
    assert verdict.patterns_examined == examined == 9


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


def _z_rotation(theta):
    return KrausMap([np.diag([np.exp(-0.5j * theta), np.exp(0.5j * theta)])])


_SIGMAS = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]], dtype=complex)


@pytest.mark.parametrize(
    "source, diagonal",
    [
        # the Pauli block is a rotation: one real eigenvalue, the z axis
        (_z_rotation(0.7), True),
        # a complex pair 1e-12 off the real axis: still only the z axis is real
        (_z_rotation(1e-12), True),
        # depolarizing: the Pauli block is 0.6·1, three real eigenvalues
        (KrausMap([np.sqrt(0.7) * np.eye(2)] + [np.sqrt(0.1) * s for s in _SIGMAS]), False),
    ],
    ids=["rotation", "near_real_pair", "depolarizing"],
)
def test_find_masa_m2_pauli_eigen_cases(source, diagonal):
    masa = find_masa_m2(source)
    assert is_invariant(source, masa).residual <= 1e-14
    if diagonal:
        assert all(frobenius(offdiag(masa.projection(k))) <= 1e-14 for k in range(2))


def test_find_masa_m2_rejects_non_star_map():
    # the unit is fixed, and the off-diagonal entries are multiplied by i
    with pytest.raises(PreconditionFailed, match=r"not a \*-map"):
        find_masa_m2(np.diag([1, 1j, 1j, 1]))


@pytest.mark.parametrize(
    "call",
    [
        lambda t, masa: solve_kraus_coefficients(t, masa),
        lambda t, masa: solve_generator_coefficients(GkslGenerator(t, np.zeros((2, 2))), masa),
        lambda t, masa: rebolledo_check(t, masa),
        lambda t, masa: classical_restriction(t, masa),
        lambda t, masa: cp_part_diagonalizable(GkslGenerator(t, np.zeros((2, 2))), masa),
    ],
    ids=[
        "solve_kraus_coefficients",
        "solve_generator_coefficients",
        "rebolledo_check",
        "classical_restriction",
        "cp_part_diagonalizable",
    ],
)
def test_coefficient_criteria_reject_masa_of_other_dimension(call):
    with pytest.raises(DimensionMismatch):
        call(KrausMap([np.eye(2, dtype=complex)]), Masa.diagonal(3))


def test_search_masa_finds_invariant_masa():
    rng = np.random.default_rng(9)
    t, _ = invariant_map_instance(rng, 2, 2)
    masa, residual = search_masa(t, restarts=40, seed=7)
    assert residual < 1e-8
    assert is_invariant_map(t, masa).residual < 1e-7


def test_search_masa_recall_on_planted_instances():
    # at the benchmark's 20 restarts; the one miss is the Markov generator at
    # d = 3 of copy 0, whose best restart stops at a residual near 0.0508.
    # Steepest descent found 14 of these 27.
    makers = [invariant_map_instance, invariant_unital_map_instance, invariant_generator_instance]
    found = 0
    for k, make in enumerate(makers):
        for d in (3, 4, 6):
            for copy in range(3):
                source, _ = make(np.random.default_rng([60, k, d, copy]), d, 3)
                masa, _ = search_masa(source, restarts=20, seed=copy)
                found += bool(is_invariant(source, masa))
    assert found >= 26


def _residual_floor(t: KrausMap) -> float:
    """A lower bound on the search residual r of every masa of T, from the unit's orbit.

    Every masa C holds 1, and its residual bounds ‖(1 − E_C) T(X)‖_F ≤ r‖X‖_F
    on C, E_C the pinching onto C. So the parts of T(1) and T²(1) outside C
    have norms at most r√d and r·β, β = ‖T(1)‖_F + ‖T‖·√d, ‖T‖ the
    superoperator's 2-norm, and since the parts inside C commute,
    κ = ‖[T(1), T²(1)]‖_F ≤ 2r(‖T(1)‖_op·β + ‖T²(1)‖_op·√d) + 2r²·√d·β.
    The floor is that quadratic's positive root, in a form without cancellation.
    """
    d = t.dim
    image = apply_cp(t, np.eye(d))
    second = apply_cp(t, image)
    root_d = np.sqrt(d)
    beta = frobenius(image) + np.linalg.norm(map_superoperator(t), 2) * root_d
    kappa = frobenius(image @ second - second @ image)
    a = 2 * root_d * beta
    b = 2 * (np.linalg.norm(image, 2) * beta + np.linalg.norm(second, 2) * root_d)
    return 2 * kappa / (b + np.sqrt(b * b + 4 * a * kappa))


def test_search_residual_stays_above_the_unit_orbit_floor():
    # no stop rule of the descent may report a residual below a proven bound
    ex2_1 = build_example("ex2_1").payload
    corners = [ex2_1] + [embed_corner(ex2_1, d) for d in (3, 4, 6)]
    for t in corners:
        floor = _residual_floor(t)
        assert floor > 0.03
        assert search_masa(t, restarts=200)[1] >= floor
    for i in range(50):
        rng = np.random.default_rng([61, i])
        t = KrausMap(list(complex_gaussian(rng, (2, 2 + i % 4, 2 + i % 4))))
        floor = _residual_floor(t)
        assert floor > 0  # a non-unital map's unit orbit does not commute
        assert search_masa(t, restarts=10, seed=i)[1] >= floor


def test_search_masa_deterministic():
    rng = np.random.default_rng(10)
    t, _ = invariant_map_instance(rng, 2, 2)
    m1, r1 = search_masa(t, restarts=10, seed=3)
    m2, r2 = search_masa(t, restarts=10, seed=3)
    assert r1 == r2
    assert np.array_equal(m1.basis_unitary, m2.basis_unitary)


def test_search_masa_rejects_bad_restarts():
    t = KrausMap([np.eye(2, dtype=complex)])
    for restarts in (0, -1, 2.5, 2.0, "2", None):
        with pytest.raises(PreconditionFailed):
            search_masa(t, restarts=restarts)


@pytest.mark.parametrize(
    "call",
    [
        lambda t, seed: search_masa(t, restarts=2, seed=seed),
        lambda t, seed: search_invariant_projections(t, seed=seed),
    ],
    ids=["search_masa", "search_invariant_projections"],
)
def test_finders_reject_negative_seed(call):
    for seed in (-1, -3, 1.5, 1.0, "1", None):
        with pytest.raises(PreconditionFailed):
            call(KrausMap([np.eye(2, dtype=complex)]), seed)
    call(KrausMap([np.eye(2, dtype=complex)]), np.int64(1))  # an integer type need not be int


@pytest.mark.parametrize(
    "call",
    [
        lambda e: search_masa(e, restarts=2, seed=1),
        lambda e: search_invariant_projections(e, seed=1),
    ],
    ids=["search_masa", "search_invariant_projections"],
)
@pytest.mark.parametrize("kind", ["map", "generator"])
def test_finders_build_no_superoperator(monkeypatch, call, kind):
    def refuse(self):
        raise AssertionError("a finder built a d²×d² superoperator")

    for cls in (linalg_module._PairForm, KrausMap, GkslGenerator):
        monkeypatch.setattr(cls, "superoperator", refuse)
    rng = np.random.default_rng(35)
    make = random_unital_map if kind == "map" else random_markov_generator
    call(make(rng, 3, 2))


def _scaled(source, factor=1e100):
    """The map or generator with its Kraus operators times `factor`, and the drift kept."""
    if isinstance(source, GkslGenerator):
        return GkslGenerator(_scaled(source.kraus, factor), source.beta)
    return KrausMap([factor * k for k in source.operators])


@pytest.mark.parametrize(
    "call",
    [
        lambda: search_masa(KrausMap([1e308 * np.eye(2, dtype=complex)]), restarts=2),
        lambda: search_invariant_projections(
            GkslGenerator(KrausMap([1e200 * np.eye(2, dtype=complex)]), np.eye(2, dtype=complex)),
            seed=1,
        ),
        # finite pair forms whose objective overflows
        lambda: search_masa(_scaled(random_unital_map(np.random.default_rng(42), 3, 2)), restarts=2),
        lambda: search_masa(_scaled(random_markov_generator(np.random.default_rng(42), 3, 2))),
        lambda: search_invariant_projections(
            _scaled(random_unital_map(np.random.default_rng(42), 3, 2)), seed=1
        ),
        lambda: search_invariant_projections(
            _scaled(random_markov_generator(np.random.default_rng(42), 3, 2)), seed=1
        ),
        # finite at the identity, not finite at the descent's starts
        lambda: search_invariant_projections(KrausMap([1e100 * np.eye(2, dtype=complex)])),
        # at 1e100 the images are finite and their norms overflow; at 1e200 the images do
        lambda: find_masa_m2(_scaled(random_unital_map(np.random.default_rng(42), 2, 2))),
        lambda: find_masa_m2(_scaled(random_unital_map(np.random.default_rng(42), 2, 2), 1e200)),
    ],
    ids=[
        "search_masa",
        "search_invariant_projections",
        "search_masa_overflow_map",
        "search_masa_overflow_generator",
        "search_invariant_projections_overflow_map",
        "search_invariant_projections_overflow_generator",
        "search_invariant_projections_overflow_in_descent",
        "find_masa_m2_norm_overflow",
        "find_masa_m2_image_overflow",
    ],
)
def test_search_masa_non_finite_superoperator_raises(call):
    with pytest.raises(NumericalFailure):
        call()


def test_finders_accept_the_zero_map():
    # the Hermitian form of T = 0 has no terms; the objective is 0 everywhere
    zero = KrausMap([np.zeros((3, 3), dtype=complex)])
    assert search_masa(zero, restarts=2)[1] == 0.0
    assert all(residual == 0.0 for _, residual in search_invariant_projections(zero, seed=1))


def test_search_masa_overflow_in_descent_keeps_the_identity():
    # the objective is 0 at the identity and not finite at restart 0's start,
    # whose non-finite trials lose every comparison, without a warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        masa, residual = search_masa(KrausMap([1e100 * np.eye(2, dtype=complex)]), restarts=2)
    assert np.array_equal(masa.basis_unitary, np.eye(2))
    assert residual == 0.0


def _realigned_svd_pairs(s):
    """The pairs of a superoperator by one SVD of its realignment: the reference term count."""
    d = int(round(np.sqrt(s.shape[0])))
    realigned = s.reshape(d, d, d, d).transpose(1, 3, 2, 0).reshape(d * d, d * d)
    u, sigma, vh = np.linalg.svd(realigned)
    keep = sigma > np.finfo(float).eps * d * d * sigma[0]
    return (u[:, keep] * sigma[keep]).T.reshape(-1, d, d), vh[keep].reshape(-1, d, d)


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
    form = _evolution(source)._pairs().hermitian()
    rebuilt = sum(e * np.kron(c.T, dag(c)) for e, c in zip(*form))
    assert frobenius(rebuilt - s) <= 1e-12 * frobenius(s)
    assert len(form.ops) == len(_realigned_svd_pairs(s)[0])
    block = np.arange(d) < 2
    # search_masa's off-diagonal mask on every E_kk; the projection search's
    # off-block mask on one rank-2 projection
    for inputs, mask in [
        (np.eye(d), 1 - np.eye(d)),
        (block[None, :].astype(float), block[:, None] != block),
    ]:
        objective = _masked_objective(form, inputs, mask)
        u = haar_unitary(rng, d)
        _, grad = objective(u[None])
        for _ in range(3):
            z = complex_gaussian(rng, (d, d))
            a = (z - dag(z)) / 2
            t = 1e-5
            central = (
                objective((u @ expm_skew(t * a))[None])[0][0]
                - objective((u @ expm_skew(-t * a))[None])[0][0]
            ) / (2 * t)
            analytic = np.vdot(grad[0], a).real
            assert abs(central - analytic) <= 1e-6 * abs(analytic)


def _scalar_descend(objective, u, max_iters):
    """The one-start quasi-Newton loop, kept as the lockstep descent's reference.

    It runs the descent's own primitives on (1, d, d) stacks and forms value
    and gradient for every trial, and takes each trial from `_cayley_trials`
    as the descent does. Also returns why the start stopped, and a tally of
    its trials, accepted trials and directions.
    A start that reaches the rounding stop right after a rejected trial stops
    with "rounding_after_rejection", one that halves α to 1e-10 with
    "out_of_step": in both, its last direction won no trial.
    """
    d = u.shape[-1]
    upper, basis = np.triu_indices(d, 1), _tangent_basis(d)
    u = u[None]
    value, grad = objective(u)
    grad = _tangent_coordinates(grad, upper)
    curvature, row = _Curvature(1, grad.shape[1]), np.zeros(1, dtype=int)
    rounding = 4 * np.finfo(float).eps  # the stop at rounding
    tally = {"trials": 0, "accepted": 0, "directions": 0}

    def stopped(reason):
        return u[0], value[0], reason, tally

    for _ in range(max_iters):
        norm = np.sqrt(_dots(grad, grad))
        if norm < 1e-14 or value < 1e-24:
            return stopped("converged")
        p = curvature.direction(row, grad)
        slope = _dots(grad, p)
        if not slope < 0:
            p = grad * (-0.1 / norm[:, None])
            slope = _dots(grad, p)
        if not np.isfinite(p).all():
            return stopped("not_finite")
        if not np.abs(slope) > rounding * value:
            return stopped("rounding")
        alpha = 1.0
        tally["directions"] += 1
        while True:
            candidate = _cayley_trials(u, alpha * p, basis)
            candidate_value, candidate_grad = objective(candidate)
            tally["trials"] += 1
            if candidate_value < value and candidate_value <= value + 1e-4 * alpha * slope:
                break
            alpha *= 0.5
            if alpha * np.abs(slope) <= rounding * value:
                return stopped("rounding_after_rejection")
            if alpha <= 1e-10:
                return stopped("out_of_step")
        tally["accepted"] += 1
        candidate_grad = _tangent_coordinates(candidate_grad, upper)
        step, change = p * alpha, candidate_grad - grad
        sy, yy = _dots(step, change), _dots(change, change)
        if sy > 0 and np.isfinite(sy) and np.isfinite(yy):
            curvature.remember(row, step, change, sy, yy)
        u, value, grad = candidate, candidate_value, candidate_grad
    return stopped("max_iters")


def _search_objective(source):
    form = _evolution(source)._pairs().hermitian()
    eye = np.eye(form.ops.shape[-1])
    return _masked_objective(form, eye, 1 - eye)


class _Walled:
    """The objective, with every value below `wall` read as inf.

    A start that reaches the wall has its trials rejected until α runs out.
    Records the rows of each call; after the lockstep descent's first call,
    for its starts, each row is one trial.
    """

    def __init__(self, objective, wall):
        self.objective, self.wall = objective, wall
        self.calls = []

    def __call__(self, stack):
        self.calls.append(len(stack))
        values, grads = self.objective(stack)
        return np.where(values < self.wall, np.inf, values), grads


def _walls(objective, starts):
    """No wall, and a wall at half the lowest start value."""
    return [-np.inf, objective(starts)[0].min() / 2]


@pytest.mark.parametrize("d", [3, 4])
@pytest.mark.parametrize("kind", ["map", "generator", "superoperator"])
def test_lockstep_descent_equals_scalar_loop(d, kind):
    rng = np.random.default_rng([31, d])
    objective = _search_objective(_descent_sources(rng, d)[kind])
    starts = np.array([haar_unitary(rng, d) for _ in range(6)])
    no_wall, wall = _walls(objective, starts)
    reasons = set()
    # the budget stops every start at 3 and some at 30; behind the wall some
    # start halves α to 1e-10
    runs = [(no_wall, 3), (no_wall, 30), (no_wall, _MAX_ITERS), (wall, _MAX_ITERS)]
    for at, max_iters in runs:
        walled = _Walled(objective, at)
        finals, values = _descend(walled, starts, max_iters)
        trial_rows = sum(walled.calls[1:])
        assert len(finals) == len(starts)
        trials = 0
        for start, u, value in zip(starts, finals, values):
            ref_u, ref_value, reason, tally = _scalar_descend(walled, start, max_iters)
            reasons.add(reason)
            trials += tally["trials"]
            assert np.array_equal(u, ref_u)
            assert value == ref_value
        assert trial_rows == trials
    assert {"max_iters", "out_of_step"} <= reasons


def test_descent_primitives_match_their_definitions():
    rng = np.random.default_rng(35)
    d = 4
    upper = np.triu_indices(d, 1)
    z = complex_gaussian(rng, (2, d, d))
    skew = (z - dag(z)) / 2
    skew -= np.einsum("rii->ri", skew)[:, :, None] * np.eye(d)  # zero diagonal
    coords = _tangent_coordinates(skew, upper)
    # the coordinates' dot product is the Frobenius one, Re tr(a* b)
    assert np.isclose(_dots(coords[:1], coords[1:])[0], np.vdot(skew[0], skew[1]).real, rtol=1e-13)
    # and the basis maps them back to the skew-Hermitian they came from
    assert np.allclose((coords @ _tangent_basis(d)).reshape(2, d, d), skew, rtol=0, atol=1e-15)
    # the compact direction is −H·g for the BFGS H from the newest _MEMORY pairs,
    # with H₀ = (sᵀy/yᵀy)·1 of the newest: (1 − ρ s yᵀ) H (1 − ρ y sᵀ) + ρ s sᵀ
    m = d * (d - 1)
    a = rng.standard_normal((m, m))
    hessian = a @ a.T + np.eye(m)
    curvature = _Curvature(2, m)
    history = []
    for _ in range(_MEMORY + 5):  # row 0's ring wraps to keep the newest _MEMORY; row 1 has none
        s = rng.standard_normal(m)
        y = hessian @ s
        history.append((s, y))
        curvature.remember(np.array([0]), s[None], y[None], np.array([s @ y]), np.array([y @ y]))
    s, y = history[-1]
    h = (s @ y) / (y @ y) * np.eye(m)
    for s, y in history[-_MEMORY:]:
        r = 1 / (s @ y)
        left = np.eye(m) - r * np.outer(s, y)
        h = left @ h @ left.T + r * np.outer(s, s)
    assert np.allclose(h, h.T, rtol=0, atol=1e-12 * np.abs(h).max())
    g = rng.standard_normal((2, m))
    p = curvature.direction(np.arange(2), g)
    assert np.allclose(p[0], -h @ g[0], rtol=1e-9, atol=1e-12 * np.abs(h @ g[0]).max())
    assert not p[1].any()  # no pairs yet: the descent takes the steepest step
    # the secant condition H·y = s for the newest pair
    s, y = history[-1]
    secant = curvature.direction(np.arange(2), np.array([y, y]))[0]
    assert np.allclose(-secant, s, rtol=1e-9, atol=1e-12 * np.abs(s).max())


@pytest.mark.parametrize("d, instance, directions", [(4, [64, 4], 50), (6, [64, 6, 4], 120)])
def test_descent_converges_beyond_eight_coordinates(d, instance, directions):
    # 12 and 30 tangent coordinates. With 16 pairs these starts fall below
    # (atol/10)² in 42 and 110 directions; with 8 pairs they took 58 and more than 150
    t, _ = invariant_map_instance(np.random.default_rng(instance), d, 3)
    start = haar_unitary(np.random.default_rng([65, d, 0]), d)
    _, value, *_ = _scalar_descend(_search_objective(t), start, directions)
    assert value < (DEFAULT_TOL.atol / 10) ** 2


@pytest.mark.parametrize("kind", ["map", "generator", "superoperator"])
def test_lockstep_restart_ignores_its_stack_mates(kind):
    rng = np.random.default_rng(33)
    objective = _search_objective(_descent_sources(rng, 4)[kind])
    starts = np.array([haar_unitary(rng, 4) for _ in range(8)])
    finals, values = _descend(objective, starts, 40)
    for order in ([5], [7, 0, 3], list(range(8))[::-1]):
        alone, alone_values = _descend(objective, starts[order], 40)
        assert np.array_equal(alone, finals[order])
        assert np.array_equal(alone_values, values[order])


@pytest.mark.parametrize("case", ["ex2_1", "planted-6", "planted-12"])
def test_descent_keeps_every_start_unitary(case):
    # a Cayley step is unitary up to rounding only, and each accepted step
    # multiplies its rounding into u: the corpus's 200-restart ex2_1 search,
    # and search_masa's 20 restarts on planted maps at d = 6 and 12
    if case == "ex2_1":
        source, restarts = build_example("ex2_1").payload, 200
    else:
        d = int(case.split("-")[1])
        source, _ = invariant_map_instance(np.random.default_rng([66, d]), d, 3)
        restarts = 20
    form = _evolution(source)._pairs().hermitian()
    d = form.ops.shape[-1]
    eye = np.eye(d)
    objective = _masked_objective(form, eye, 1 - eye)
    finals = [u for u, _ in _descents(objective, form, [[1, r] for r in range(restarts)])]
    assert len(finals) == restarts
    assert max(frobenius(dag(u) @ u - eye) for u in finals) <= 1e-12


class _OverflowingGradient:
    """The objective, with the gradient of every row of value `at` overflowing.

    Records the values of the rows it evaluates, in order.
    """

    def __init__(self, objective, at=None):
        self.objective, self.at = objective, at
        self.values = []

    def __call__(self, stack):
        values, grads = self.objective(stack)
        self.values.extend(values.tolist())
        hit = values == self.at
        grads[hit] *= 1e300
        grads[hit] *= 1e300
        return values, grads


def test_descent_overflow_in_one_start_spares_its_stack_mates(monkeypatch):
    rng = np.random.default_rng(42)
    objective = _search_objective(_descent_sources(rng, 4)["generator"])
    starts = np.array([haar_unitary(rng, 4) for _ in range(5)])
    probe = _OverflowingGradient(objective)
    _descend(probe, starts[[2]], 40)
    at = probe.values[14]  # start 2's seventh accepted trial; values[0] is its start
    pairs = []
    remember = _Curvature.remember

    def recorded(self, rows, steps, changes, sy, yy):
        pairs.append(np.isfinite(steps).all(axis=1) & np.isfinite(changes).all(axis=1))
        return remember(self, rows, steps, changes, sy, yy)

    monkeypatch.setattr(_Curvature, "remember", recorded)
    alone = [_descend(_OverflowingGradient(objective, at), starts[[r]], 40) for r in range(5)]
    updates_alone = sum(len(rows) for rows in pairs)
    assert updates_alone > 0
    pairs.clear()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        finals, values = _descend(_OverflowingGradient(objective, at), starts, 40)
    # the overflowing pair joins no start's history, and every other pair
    # joins its own start's as when that start runs alone
    assert all(rows.all() for rows in pairs)
    assert sum(len(rows) for rows in pairs) == updates_alone
    # start 2 ends at the trial whose gradient overflowed: its next direction is not finite
    assert values[2] == at
    for r, (u, value) in enumerate(alone):
        assert np.array_equal(finals[r], u[0])
        assert values[r] == value[0]


def test_search_masa_early_exit_keeps_restart_order():
    # restart 1 is the first below atol/10; restart 0 stops at a residual near 1.73
    rng = np.random.default_rng(23)
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
    form = _evolution(gen)._pairs().hermitian()
    width = _stack_width(form)
    assert width >= 10
    monkeypatch.setattr(masa_module, "_STACK_ENTRIES", masa_module._STACK_ENTRIES * 4 // width)
    assert _stack_width(form) == 4  # chunks of 4, 4 and 2 restarts
    chunked = search_masa(gen, restarts=10, seed=5)
    assert chunked[1] == whole[1]
    assert np.array_equal(chunked[0].basis_unitary, whole[0].basis_unitary)


def test_search_masa_draws_one_chunk_of_starts_at_a_time(monkeypatch):
    # test_search_masa_early_exit_keeps_restart_order's instance: restart 1 is
    # the first below atol/10, so no start after the first chunk is drawn
    rng = np.random.default_rng(23)
    t, _ = invariant_map_instance(rng, 2, 2)
    short = search_masa(t, restarts=2, seed=7)
    form = _evolution(t)._pairs().hermitian()
    monkeypatch.setattr(
        masa_module, "_STACK_ENTRIES", masa_module._STACK_ENTRIES * 4 // _stack_width(form)
    )
    assert _stack_width(form) == 4
    draws = []
    draw = masa_module._haar_isometries

    def counted(rngs, rows, cols):
        draws.extend(cols for _ in rngs)
        return draw(rngs, rows, cols)

    monkeypatch.setattr(masa_module, "_haar_isometries", counted)
    long = search_masa(t, restarts=40, seed=7)
    assert len(draws) == 4
    assert long[1] == short[1]
    assert np.array_equal(long[0].basis_unitary, short[0].basis_unitary)


def test_search_invariant_projections_chunks_match_one_stack(monkeypatch):
    rng = np.random.default_rng(34)
    gen = random_markov_generator(rng, 3, 2)
    whole = search_invariant_projections(gen, seed=5)
    form = _evolution(gen)._pairs().hermitian()
    width = _stack_width(form)
    assert width >= 20  # unpatched, the 20 trials of a rank are one stack
    monkeypatch.setattr(masa_module, "_STACK_ENTRIES", masa_module._STACK_ENTRIES * 4 // width)
    assert _stack_width(form) == 4  # chunks of 4 trials, five per rank
    chunked = search_invariant_projections(gen, seed=5)
    assert len(chunked) == len(whole)
    for (q, residual), (ref_q, ref_residual) in zip(chunked, whole):
        assert np.array_equal(q, ref_q)
        assert residual == ref_residual


def _one_pass_objective(form, inputs, mask):
    """A plain one-pass objective on T's Hermitian form, kept as the finders' reference.

    Every call forms the value and the gradient of every row, and multiplies
    by the inputs even when they are the identity.
    """
    weights, ops = form
    n, d, _ = ops.shape
    mask_flat = mask.ravel()
    side = ops.transpose(1, 0, 2).reshape(d, n * d)

    def objective(stack):
        r = len(stack)
        rows = ((dag(stack) @ side).reshape(r, d * n, d) @ stack).reshape(r, d, n, d)
        weighted = rows.conj() * weights[:, None]
        masked = inputs @ (weighted.swapaxes(2, 3) @ rows).reshape(r, d, d * d)
        masked *= mask_flat
        k = (inputs.T @ masked).reshape(r, d, d, d)
        h_rows = rows @ k
        y_adj = h_rows.reshape(r, d, n * d) @ weighted.reshape(r, d, n * d).swapaxes(1, 2)
        y_adj -= weighted.reshape(r, d * n, d).swapaxes(1, 2) @ h_rows.reshape(r, d * n, d)
        flat = masked.reshape(r, 1, -1)
        values = (flat.real @ flat.real.swapaxes(1, 2) + flat.imag @ flat.imag.swapaxes(1, 2))[:, 0, 0]
        return values, 2 * (dag(y_adj) - y_adj)

    return objective


def _pair_form_objective(pairs, inputs, mask):
    """The objective on a generic pair form T(X) = Σ_i A_i X B_i, kept as a cross-check to rounding.

    With a_i = u* A_i u and b_i = u* B_i u the image of E_cc is
    Σ_i a_i E_cc b_i, and the gradient is Z − Z* for
    Z = Σ_i [a_i*, Σ_c K_c b_i* E_cc] + [b_i*, Σ_c E_cc a_i* K_c].
    """
    left, right = pairs
    n, d, _ = left.shape
    mask_flat = mask.ravel()
    side = np.concatenate([left, right]).transpose(1, 0, 2).reshape(d, 2 * n * d)

    def objective(stack):
        r = len(stack)
        rows = (dag(stack) @ side).reshape(r, d, 2 * n, d).swapaxes(1, 2).reshape(r, 2 * n * d, d)
        rotated = (rows @ stack).reshape(r, 2 * n, d, d)
        a_cols = rotated[:, :n].transpose(0, 3, 2, 1).copy()
        b_rows = rotated[:, n:].swapaxes(1, 2).copy()
        masked = inputs @ (a_cols @ b_rows).reshape(r, d, d * d)
        masked *= mask_flat
        k = (inputs.T @ masked).reshape(r, d, d, d)
        a_adj, b_adj = a_cols.conj(), b_rows.conj()
        g_cols = k @ b_adj.swapaxes(2, 3)
        h_rows = a_adj.swapaxes(2, 3) @ k
        z = (
            a_adj.reshape(r, d, d * n) @ g_cols.reshape(r, d, d * n).swapaxes(1, 2)
            - g_cols.swapaxes(1, 2).reshape(r, d, d * n) @ a_adj.swapaxes(2, 3).reshape(r, d * n, d)
            + b_adj.reshape(r, d * n, d).swapaxes(1, 2) @ h_rows.reshape(r, d * n, d)
            - h_rows.reshape(r, d, n * d) @ b_adj.reshape(r, d, n * d).swapaxes(1, 2)
        )
        return _squared_norms(masked), z - dag(z)

    return objective


def _descent_inputs(d):
    """search_masa's (inputs, mask) on every E_kk, and the projection search's on one rank-2 row."""
    block = np.arange(d) < 2
    return {
        "diagonal": (np.eye(d), 1 - np.eye(d)),
        "projection": (block[None, :].astype(float), block[:, None] != block),
    }


@pytest.mark.parametrize("d", [3, 4, 6])
@pytest.mark.parametrize("kind", ["map", "generator", "superoperator"])
def test_descent_equals_one_pass_reference(d, kind):
    rng = np.random.default_rng([36, d])
    form = _evolution(_descent_sources(rng, d)[kind])._pairs().hermitian()
    starts = np.array([haar_unitary(rng, d) for _ in range(3)])
    for inputs, mask in _descent_inputs(d).values():
        objective = _masked_objective(form, inputs, mask)
        reference = _one_pass_objective(form, inputs, mask)
        for got, want in zip(objective(starts), reference(starts)):
            assert np.array_equal(got, want)
        finals, values = _descend(objective, starts, _MAX_ITERS)
        for start, u, value in zip(starts, finals, values):
            ref_u, ref_value, *_ = _scalar_descend(reference, start, _MAX_ITERS)
            assert np.array_equal(u, ref_u)
            assert value == ref_value


@pytest.mark.parametrize("d", [3, 4, 6])
@pytest.mark.parametrize("kind", ["map", "generator", "superoperator"])
def test_hermitian_form_objective_equals_pair_form_to_rounding(d, kind):
    rng = np.random.default_rng([36, d])
    source = _evolution(_descent_sources(rng, d)[kind])
    form = source._pairs().hermitian()
    starts = np.array([haar_unitary(rng, d) for _ in range(3)])
    for inputs, mask in _descent_inputs(d).values():
        values, grads = _masked_objective(form, inputs, mask)(starts)
        pair_values, pair_grads = _pair_form_objective(source._pairs(), inputs, mask)(starts)
        assert np.all(np.abs(values - pair_values) <= 1e-13 * pair_values)
        gaps = np.linalg.norm(grads - pair_grads, axis=(1, 2))
        assert np.all(gaps <= 1e-13 * np.linalg.norm(pair_grads, axis=(1, 2)))


class _OnePassReference:
    """The one-pass reference with the `at_identity` that the finders read."""

    def __init__(self, form, inputs, mask):
        self.objective = _one_pass_objective(form, inputs, mask)
        self.at_identity = float(self.objective(np.eye(form.ops.shape[-1], dtype=complex)[None])[0][0])

    def __call__(self, stack):
        return self.objective(stack)


@pytest.mark.parametrize("source_seed", [37, 38])
def test_finders_equal_one_pass_reference(monkeypatch, source_seed):
    rng = np.random.default_rng(source_seed)
    gen = random_markov_generator(rng, 3, 2)
    t = random_unital_map(rng, 3, 2)
    found = [search_masa(gen, restarts=10, seed=3), search_masa(t, restarts=10, seed=3)]
    projections = search_invariant_projections(gen, seed=3)
    monkeypatch.setattr(masa_module, "_masked_objective", _OnePassReference)
    reference = [search_masa(gen, restarts=10, seed=3), search_masa(t, restarts=10, seed=3)]
    for (masa, residual), (ref_masa, ref_residual) in zip(found, reference):
        assert np.array_equal(masa.basis_unitary, ref_masa.basis_unitary)
        assert residual == ref_residual
    ref_projections = search_invariant_projections(gen, seed=3)
    assert len(projections) == len(ref_projections)
    for (q, residual), (ref_q, ref_residual) in zip(projections, ref_projections):
        assert np.array_equal(q, ref_q)
        assert residual == ref_residual


@pytest.mark.parametrize("kind", ["map", "generator"])
@pytest.mark.parametrize("inputs_kind", ["diagonal", "projection"])
def test_descent_makes_one_objective_call_per_tick(kind, inputs_kind):
    rng = np.random.default_rng(39)
    form = _evolution(_descent_sources(rng, 4)[kind])._pairs().hermitian()
    objective = _masked_objective(form, *_descent_inputs(4)[inputs_kind])
    starts = np.array([haar_unitary(rng, 4) for _ in range(5)])
    trials = [_scalar_descend(objective, start, 40)[3]["trials"] for start in starts]
    assert len(set(trials)) > 1  # the starts stop at different ticks
    counted = _Walled(objective, -np.inf)
    _descend(counted, starts, 40)
    # one call for the starts, then one per tick, with a row for each start still live
    ticks = range(1, max(trials) + 1)
    assert counted.calls == [len(starts)] + [sum(t >= tick for t in trials) for tick in ticks]
    assert sum(counted.calls) == len(starts) + sum(trials)


@pytest.mark.parametrize("kind", ["map", "generator"])
@pytest.mark.parametrize("inputs_kind", ["diagonal", "projection"])
def test_descent_inverts_one_row_per_trial(monkeypatch, kind, inputs_kind):
    rng = np.random.default_rng(39)
    form = _evolution(_descent_sources(rng, 4)[kind])._pairs().hermitian()
    inputs, mask = _descent_inputs(4)[inputs_kind]
    objective = _masked_objective(form, inputs, mask)
    starts = np.array([haar_unitary(rng, 4) for _ in range(5)])
    rows = []
    inv = np.linalg.inv

    def counted(a, *args, **kwargs):
        rows.append(len(a))
        return inv(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "inv", counted)
    monkeypatch.setattr(np.linalg, "eigh", None)  # and no descent decomposes a matrix
    unfinished = []
    for wall in _walls(objective, starts):
        walled = _Walled(objective, wall)
        directions = trials = 0
        for start in starts:
            _, _, reason, tally = _scalar_descend(walled, start, _MAX_ITERS)
            directions += tally["directions"]
            trials += tally["trials"]
            # a direction ends in an accepted trial, except a last one that runs
            # out of step or reaches the rounding stop after a rejected trial
            unfinished.append(tally["directions"] - tally["accepted"])
            assert unfinished[-1] == (reason in ("out_of_step", "rounding_after_rejection"))
        assert directions < trials  # some trials were rejected
        rows.clear()
        walled = _Walled(objective, wall)
        _descend(walled, starts, _MAX_ITERS)
        assert sum(rows) == trials  # one Cayley step per trial
        assert sum(walled.calls[1:]) == trials
    assert 1 in unfinished


def test_search_masa_forms_no_gradient_at_the_identity(monkeypatch):
    # the identity is evaluated once, by the finiteness check, and the search
    # reads its value from there
    called = []
    call = masa_module._MaskedObjective.__call__

    def recorded(self, stack):
        called.append(np.array(stack))
        return call(self, stack)

    monkeypatch.setattr(masa_module._MaskedObjective, "__call__", recorded)
    check = masa_module._masked_objective
    in_check = []

    def checked(*args):
        before = len(called)
        objective = check(*args)
        in_check.append(called[before:])
        return objective

    monkeypatch.setattr(masa_module, "_masked_objective", checked)
    gen = random_markov_generator(np.random.default_rng(40), 3, 2)
    search_masa(gen, restarts=4, seed=1)
    [[identity]] = in_check  # one check, which makes one call
    assert np.array_equal(identity, np.eye(3)[None])
    assert len(called) > 1  # the restarts' starts
    assert not any(np.array_equal(row, identity[0]) for stack in called[1:] for row in stack)


def test_search_masa_makes_no_product_with_its_inputs(monkeypatch):
    products = []

    class Counted(np.ndarray):
        """Inputs that count the matrix products they take part in."""

        def __array_ufunc__(self, ufunc, method, *args, **kwargs):
            if ufunc is np.matmul:
                products.append(method)
            plain = [a.view(np.ndarray) if isinstance(a, Counted) else a for a in args]
            return getattr(ufunc, method)(*plain, **kwargs)

    build = masa_module._masked_objective
    monkeypatch.setattr(
        masa_module,
        "_masked_objective",
        lambda form, inputs, mask: build(form, inputs.view(Counted), mask),
    )
    gen = random_markov_generator(np.random.default_rng(40), 3, 2)
    search_masa(gen, restarts=4, seed=1)
    assert not products
    search_invariant_projections(gen, seed=1)
    assert products  # the projection search's one-row inputs are counted


@pytest.mark.parametrize(
    "d, count",
    [pytest.param(d, 1, id=str(d)) for d in (2, 3, 4, 8)]
    + [pytest.param(d, 3, id=f"{d}-3pairs") for d in (2, 4)],
)
@pytest.mark.parametrize("inputs_kind", ["diagonal", "projection"])
def test_descent_chunk_stays_within_stack_budget(inputs_kind, d, count):
    # one pair gives the widest chunk, where the per-start terms weigh most;
    # at d = 2 the scalars per start weigh most, and three pairs add the
    # per-pair terms beside them
    rng = np.random.default_rng(41)
    form = _evolution(KrausMap(list(complex_gaussian(rng, (count, d, d)))))._pairs().hermitian()
    assert len(form.ops) == count
    objective = _masked_objective(form, *_descent_inputs(d)[inputs_kind])
    width = _stack_width(form)
    starts = np.array([haar_unitary(rng, d) for _ in range(width)])
    tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        _descend(objective, starts, 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        if not tracing:
            tracemalloc.stop()
    # the budget in bytes: _STACK_ENTRIES complex entries
    assert peak <= 16 * masa_module._STACK_ENTRIES


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


def test_classical_restriction_rejects_non_real_diagonal():
    # X ↦ iX keeps every masa and turns its diagonal imaginary
    with pytest.raises(NumericalFailure, match="non-real diagonal"):
        classical_restriction(1j * np.eye(4), Masa.diagonal(2))


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
