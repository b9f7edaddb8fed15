import warnings

import numpy as np
import pytest

from cpmasa import (
    DEFAULT_TOL,
    GkslGenerator,
    Inequivalent,
    KrausMap,
    Masa,
    Tolerance,
    TransformWitness,
    apply_cp,
    apply_generator,
    build_example,
    cp_part_diagonalizable,
    dag,
    frobenius,
    generator_from_map,
    generator_superoperator,
    gksl_equivalent,
    hamiltonian_part_diagonalizable,
    haar_unitary,
    is_invariant,
    least_squares,
    markov_form,
    matrix_exp,
    offdiag,
    semigroup_at,
    vec,
)
from cpmasa import gksl
from cpmasa.errors import (
    DimensionMismatch,
    NotInvariant,
    NotMinimal,
    NotSelfAdjoint,
    NotUnital,
    NumericalFailure,
    PreconditionFailed,
)
from cpmasa.linalg import realify_conjugate_linear_system

from _ensembles import (
    complex_gaussian,
    generic_generator_instance,
    invariant_generator_instance,
    minimal_presentation,
    pattern_ops,
    random_markov_generator,
    transformed_presentation,
)


def test_generator_construction_and_hamiltonian():
    ops = [np.array([[0, 0], [1, 0]], dtype=complex)]
    h = np.array([[0.5, 0], [0, -0.5]], dtype=complex)
    gen = markov_form(KrausMap(ops), h)
    assert gen.dim == 2
    assert np.allclose(gen.hamiltonian, h)
    # drift = -(sum L*L)/2 + i h
    expected = -np.array([[1, 0], [0, 0]], dtype=complex) / 2 + 1j * h
    assert np.allclose(gen.beta, expected)


def test_markov_form_annihilates_identity():
    rng = np.random.default_rng(0)
    for _ in range(10):
        d = int(rng.integers(2, 5))
        gen = random_markov_generator(rng, d, int(rng.integers(1, 4)))
        assert frobenius(apply_generator(gen, np.eye(d))) < 1e-12


def test_markov_form_commutator_action():
    # with zero jumps the action is X -> i[X, h]
    h = np.array([[1.0, 0.5], [0.5, -1.0]], dtype=complex)
    gen = markov_form(KrausMap([np.zeros((2, 2), dtype=complex)]), h)
    x = complex_gaussian(np.random.default_rng(1), (2, 2))
    assert np.allclose(apply_generator(gen, x), 1j * (x @ h - h @ x))


@pytest.mark.parametrize(
    "build",
    [
        lambda ops, h: GkslGenerator(ops, h),
        lambda ops, h: markov_form(ops, h),
    ],
    ids=["GkslGenerator", "markov_form"],
)
def test_plain_operator_list_is_read_as_a_kraus_map(build):
    ops = [np.array([[1, 0], [1, 1]], dtype=complex)]
    h = np.diag([0.5, -0.5]).astype(complex)
    gen = build(ops, h)
    assert isinstance(gen.kraus, KrausMap)
    assert np.array_equal(gen.superoperator(), build(KrausMap(ops), h).superoperator())


def test_markov_form_rejects_nonselfadjoint():
    with pytest.raises(NotSelfAdjoint):
        markov_form(
            KrausMap([np.eye(2, dtype=complex)]),
            np.array([[0, 1], [0, 0]], dtype=complex),
        )


def test_apply_generator_matches_superoperator():
    rng = np.random.default_rng(2)
    for _ in range(10):
        d = int(rng.integers(2, 5))
        gen, _ = generic_generator_instance(rng, d, int(rng.integers(1, 4)))
        s = generator_superoperator(gen)
        x = complex_gaussian(rng, (d, d))
        assert np.linalg.norm(s @ vec(x) - vec(apply_generator(gen, x))) < 1e-9


def test_is_minimal_flag():
    ops = [np.array([[0, 1], [0, 0]], dtype=complex)]
    gen = GkslGenerator(KrausMap(ops), np.zeros((2, 2), dtype=complex))
    assert gen.is_minimal
    dependent = GkslGenerator(
        KrausMap([np.eye(2, dtype=complex)]), np.zeros((2, 2), dtype=complex)
    )
    assert not dependent.is_minimal


def test_is_minimal_is_read_at_the_default_tolerance():
    # {1, L} is independent at the default tolerance, dependent at 1e-6
    op = np.eye(2, dtype=complex) + 1e-7 * np.array([[0, 1], [0, 0]])
    loose = Tolerance(atol=1e-6, rtol=1e-6)
    gen = markov_form(KrausMap([op]), np.zeros((2, 2)), tol=loose)
    assert gen.is_minimal
    assert not gksl._family_minimal_with_identity(gen.kraus, loose)


def test_semigroup_at_is_exponential():
    rng = np.random.default_rng(3)
    gen = random_markov_generator(rng, 3, 2)
    s = generator_superoperator(gen)
    assert np.allclose(semigroup_at(gen, 0.7), matrix_exp(0.7 * s))
    assert np.allclose(semigroup_at(gen, 0.0), np.eye(9))
    # semigroup property
    assert np.allclose(
        semigroup_at(gen, 1.3), semigroup_at(gen, 0.6) @ semigroup_at(gen, 0.7)
    )
    for time in (-0.1, np.nan, np.inf, 1j, 0.7 + 0j, "1", None, np.array([0.7])):
        with pytest.raises(PreconditionFailed):
            semigroup_at(gen, time)
    # a real number of any numpy type is a time
    assert np.array_equal(semigroup_at(gen, np.float32(0.5)), semigroup_at(gen, 0.5))
    assert np.array_equal(semigroup_at(gen, np.array(1)), semigroup_at(gen, 1.0))


def test_semigroup_of_markov_form_is_unital():
    rng = np.random.default_rng(4)
    gen = random_markov_generator(rng, 2, 2)
    s_t = semigroup_at(gen, 0.9)
    assert np.linalg.norm(s_t @ vec(np.eye(2, dtype=complex)) - vec(np.eye(2, dtype=complex))) < 1e-10


def test_generator_from_map():
    # difference generator of a unital map: L = T - id, drift = -1/2
    s = 1 / np.sqrt(2)
    ops = [
        np.array([[s, 0], [0.5, 0.5]], dtype=complex),
        np.array([[0, s], [-0.5, 0.5]], dtype=complex),
    ]
    t = KrausMap(ops)
    gen = generator_from_map(t)
    x = complex_gaussian(np.random.default_rng(5), (2, 2))
    assert np.allclose(apply_generator(gen, x), apply_cp(t, x) - x)
    with pytest.raises(NotUnital):
        generator_from_map(KrausMap([np.array([[1, 0], [1, 1]], dtype=complex)]))


def test_equivalence_roundtrip_strict():
    done = 0
    seed = 0
    while done < 20:
        rng = np.random.default_rng([100, seed])
        seed += 1
        d = int(rng.integers(2, 4))
        n = int(rng.integers(1, 4))
        gen = minimal_presentation(rng, d, n)
        moved, (m, eta_prime, h) = transformed_presentation(rng, gen, extra=int(rng.integers(0, 2)))
        out = gksl_equivalent(gen, moved, strict=True)
        assert isinstance(out, TransformWitness)
        assert frobenius(out.m_matrix - m) < 1e-8
        assert np.linalg.norm(out.eta_prime - eta_prime) < 1e-8
        assert abs(out.h_scalar - h) < 1e-8
        assert out.checks["drift_equation_residual"] < 1e-8
        assert out.checks["isometry_defect"] < 1e-8
        assert out.checks["real_part_defect"] < 1e-8
        done += 1


def test_equivalence_factored_path():
    # default path accepts non-minimal presentations on both sides
    rng = np.random.default_rng(6)
    gen = minimal_presentation(rng, 2, 2)
    moved, _ = transformed_presentation(rng, gen, extra=1)
    # pad the reference with a scalar jump, compensating the drift
    ops = list(gen.kraus.operators) + [np.eye(2, dtype=complex)]
    padded = GkslGenerator(KrausMap(ops), gen.beta - np.eye(2) / 2)
    assert not padded.is_minimal
    out = gksl_equivalent(padded, moved)
    assert isinstance(out, TransformWitness)
    assert out.checks["superoperator_distance"] < 1e-9
    assert out.checks["drift_equation_residual"] < 1e-7
    assert out.checks["partial_isometry_defect"] < 1e-8


def test_equivalence_strict_needs_minimal():
    ops = [np.eye(2, dtype=complex)]
    gen = GkslGenerator(KrausMap(ops), np.zeros((2, 2), dtype=complex))
    with pytest.raises(NotMinimal):
        gksl_equivalent(gen, gen, strict=True)


def test_equivalence_detects_distinct_generators():
    rng = np.random.default_rng(7)
    gen = minimal_presentation(rng, 2, 2)
    other = GkslGenerator(gen.kraus, gen.beta + np.diag([0.3, -0.1]))
    out = gksl_equivalent(gen, other)
    assert isinstance(out, Inequivalent)
    assert not out
    assert out.distance > 1e-3


def test_cp_part_feasible_after_gauge_shift():
    for seed in range(20):
        rng = np.random.default_rng([200, seed])
        d = int(rng.integers(2, 5))
        gen, masa = invariant_generator_instance(rng, d, int(rng.integers(1, 4)), gauge_shift=True)
        verdict = cp_part_diagonalizable(gen, masa)
        assert verdict
        assert verdict.residual <= verdict.threshold
        # re-gauged presentation: same generator, drift diagonal in masa coordinates
        re = verdict.regauged
        dist = frobenius(generator_superoperator(re) - generator_superoperator(gen))
        assert dist < 1e-7 * max(1.0, frobenius(generator_superoperator(gen)))
        assert frobenius(offdiag(masa.to_coordinates(re.beta))) < 1e-7
        assert verdict.gamma is not None
        assert abs(verdict.gamma.real + np.vdot(verdict.eta, verdict.eta).real / 2) < 1e-8


def test_cp_part_requires_invariance():
    rng = np.random.default_rng(8)
    gen, masa = generic_generator_instance(rng, 3, 2)
    with pytest.raises(NotInvariant):
        cp_part_diagonalizable(gen, masa)


def test_cp_part_precondition_is_the_invariance_verdict():
    # large diagonal jumps inflate ‖superoperator‖, which must not loosen the
    # precondition past the direct verdict on a drift just off the masa
    rng = np.random.default_rng(0)
    jumps = [30 * np.diag(rng.standard_normal(3)) for _ in range(2)]
    gen = markov_form(KrausMap(jumps), np.diag(rng.standard_normal(3)))
    beta = gen.beta.copy()
    beta[0, 1] += 1e-7
    gen = GkslGenerator(gen.kraus, beta)
    masa = Masa.diagonal(3)
    assert not is_invariant(gen, masa)
    with pytest.raises(NotInvariant):
        cp_part_diagonalizable(gen, masa)


def test_hamiltonian_part_feasible_diagonal_case():
    # diagonal Hamiltonian with pattern jumps: trivially feasible
    rng = np.random.default_rng(9)
    gen, masa = invariant_generator_instance(rng, 3, 2)
    verdict = hamiltonian_part_diagonalizable(gen, masa)
    assert verdict
    assert verdict.residual <= verdict.threshold


def test_hamiltonian_part_generic_m2_feasible():
    # single generic jump with distinct corner magnitudes: always solvable
    count = 0
    seed = 0
    while count < 20:
        rng = np.random.default_rng([300, seed])
        seed += 1
        ops = [complex_gaussian(rng, (2, 2))]
        if abs(abs(ops[0][0, 1]) - abs(ops[0][1, 0])) < 0.1:
            continue
        h = complex_gaussian(rng, (2, 2))
        gen = markov_form(KrausMap(ops), (h + dag(h)) / 2)
        verdict = hamiltonian_part_diagonalizable(gen, Masa.diagonal(2))
        assert verdict
        assert verdict.residual <= verdict.threshold
        count += 1


def test_hamiltonian_part_certificate_structure():
    # jumps with equal corner magnitudes and a real off-diagonal drift
    # asymmetry: the real components of the corner equations are forced
    # to +-4 no matter the coefficients
    ops = [
        np.array([[1, 1], [1, 1]], dtype=complex),
        np.array([[1, 2], [2, 2]], dtype=complex),
    ]
    beta = -0.5 * np.array([[7, 6], [10, 10]], dtype=complex)
    gen = GkslGenerator(KrausMap(ops), beta)
    verdict = hamiltonian_part_diagonalizable(gen, Masa.diagonal(2))
    assert not verdict
    assert verdict.residual == pytest.approx(4 * np.sqrt(2), rel=1e-9)
    cert = verdict.infeasibility_certificate
    assert cert is not None
    labels = set(cert.row_labels)
    assert labels == {"(0,1).re", "(0,1).im", "(1,0).re", "(1,0).im"}
    bad = dict(cert.violations())
    assert set(bad) == {"(0,1).re", "(1,0).re"}
    assert abs(bad["(0,1).re"]) == pytest.approx(4.0, abs=1e-9)
    assert abs(bad["(1,0).re"]) == pytest.approx(4.0, abs=1e-9)
    # residual vector length matches labels, accepted rows are consistent
    assert len(cert.residual_vector) == len(cert.row_labels)
    assert len(cert.accepted) == len(cert.row_labels)
    for taken, value in zip(cert.accepted, cert.residual_vector):
        if taken:
            assert abs(value) < 1e-8


def test_witness_checks_keys():
    rng = np.random.default_rng(10)
    gen = minimal_presentation(rng, 2, 1)
    out = gksl_equivalent(gen, gen)
    assert set(out.checks) == {
        "superoperator_distance",
        "drift_equation_residual",
        "isometry_defect",
        "partial_isometry_defect",
        "eta_prime_range_defect",
        "real_part_defect",
        "scale",
    }
    assert np.allclose(out.eta, -dag(out.m_matrix) @ out.eta_prime)


def test_hamiltonian_split_rejects_masa_of_other_dimension():
    gen = random_markov_generator(np.random.default_rng(3), 3, 2)
    with pytest.raises(DimensionMismatch):
        hamiltonian_part_diagonalizable(gen, Masa.diagonal(2))


def test_hamiltonian_split_at_dimension_one():
    # a 1x1 generator has no off-diagonal equation, so any coefficients do
    gen = GkslGenerator(KrausMap([2 * np.eye(1, dtype=complex)]), -2 * np.eye(1, dtype=complex))
    verdict = hamiltonian_part_diagonalizable(gen, Masa.diagonal(1))
    assert verdict.feasible
    assert np.array_equal(verdict.eta, np.zeros(1))
    assert verdict.residual == 0.0
    assert verdict.threshold == DEFAULT_TOL.threshold(1.0)


def test_hamiltonian_split_non_finite_raises():
    big = 1e200 * np.array([[1, 2], [3, 4]], dtype=complex)
    gen = GkslGenerator(KrausMap([big]), 1e200 * np.array([[1, 2], [5, 1]], dtype=complex))
    for masa in (Masa.diagonal(2), Masa(haar_unitary(np.random.default_rng(8), 2))):
        with pytest.raises(NumericalFailure):
            hamiltonian_part_diagonalizable(gen, masa)


def _split_system(gen, masa):
    """The realified Hamiltonian-split system, assembled as the library does."""
    ops, b = gen._in_coordinates(masa)
    r, s = np.nonzero(~np.eye(gen.dim, dtype=bool))
    return realify_conjugate_linear_system(
        ops[:, r, s].T, -ops[:, s, r].conj().T, -(2 * b[r, s] - 2 * np.conj(b[s, r]))
    )


def _per_row_certificate(a_real, b_real, tol):
    """The sparsity greedy with one least-squares solve per row: (accepted, solution).

    Every trial is judged against the whole system's threshold.
    """
    threshold = tol.threshold(max(1.0, float(np.linalg.norm(b_real))))
    scale = max(1.0, float(np.abs(a_real).max(initial=0.0)))
    nonzeros = (np.abs(a_real) > 1e-12 * scale).sum(axis=1)
    order = np.lexsort((np.arange(len(a_real)), nonzeros))
    accepted_rows = []
    x = np.zeros(a_real.shape[1])
    for idx in order:
        trial = accepted_rows + [int(idx)]
        solution, res = least_squares(a_real[trial], b_real[trial])
        if res <= threshold:
            accepted_rows, x = trial, solution
    accepted = np.zeros(len(a_real), dtype=bool)
    accepted[accepted_rows] = True
    return tuple(bool(v) for v in accepted), x


def _split_cases():
    """Seeded (family, generator, masa) at d 2–9 with n 1–4 jumps in four families.

    "generic": Gaussian jumps and drift under a Haar masa; "sparse": sparse
    patterns on the diagonal masa; "dependent": generic jumps with the first
    one repeated twice over, so that the system's columns are dependent;
    "near": a drift 1e-7 away from splittable on the diagonal masa, so that
    rows sit near the threshold.
    """
    for seed in range(64):
        rng = np.random.default_rng([1300, seed])
        d, n = 2 + (seed // 4) % 8, 1 + seed % 4
        family = ("generic", "sparse", "dependent", "near")[seed % 4]
        if family == "sparse":
            beta = pattern_ops(rng, d, 1)[0] + np.diag(complex_gaussian(rng, d))
            yield family, GkslGenerator(KrausMap(pattern_ops(rng, d, n)), beta), Masa.diagonal(d)
            continue
        ops = [complex_gaussian(rng, (d, d)) for _ in range(n)]
        if family == "near":
            drift = -sum(c * op for c, op in zip(complex_gaussian(rng, n), ops)) / 2
            drift += np.diag(complex_gaussian(rng, d)) + 1e-7 * complex_gaussian(rng, (d, d))
            yield family, GkslGenerator(KrausMap(ops), drift), Masa.diagonal(d)
            continue
        if family == "dependent":
            ops.append(2 * ops[0])
        beta = complex_gaussian(rng, (d, d))
        yield family, GkslGenerator(KrausMap(ops), beta), Masa(haar_unitary(rng, d))


def test_certificate_matches_per_row_reference():
    infeasible = 0
    for k, (_, gen, masa) in enumerate(_split_cases()):
        a_real, b_real = _split_system(gen, masa)
        for tol in (DEFAULT_TOL, Tolerance(1e-7, 1e-7)):
            accepted, x = _per_row_certificate(a_real, b_real, tol)
            verdict = hamiltonian_part_diagonalizable(gen, masa, tol)
            if verdict:
                cert = gksl._certificate(a_real, b_real, [""] * len(a_real), tol)
            else:
                infeasible += 1
                cert = verdict.infeasibility_certificate
            assert cert.accepted == accepted, k
            assert cert.forced_coefficients.tobytes() == (x[0::2] + 1j * x[1::2]).tobytes(), k
            assert cert.residual_vector.tobytes() == (a_real @ x - b_real).tobytes(), k
    assert infeasible >= 80


def test_certificate_is_maximal():
    # no rejected row can join the accepted ones, whatever order found them,
    # against the one threshold of the whole system, in all four families
    families = set()
    for k, (family, gen, masa) in enumerate(_split_cases()):
        verdict = hamiltonian_part_diagonalizable(gen, masa)
        if verdict:
            continue
        families.add(family)
        a_real, b_real = _split_system(gen, masa)
        threshold = DEFAULT_TOL.threshold(max(1.0, float(np.linalg.norm(b_real))))
        taken = np.array(verdict.infeasibility_certificate.accepted)
        rows = list(np.flatnonzero(taken))
        for j in [None, *np.flatnonzero(~taken)]:
            trial = rows if j is None else rows + [j]
            _, res = least_squares(a_real[trial], b_real[trial])
            assert (res <= threshold) == (j is None), (k, j)
    assert families == {"generic", "sparse", "dependent", "near"}


def test_certificate_solve_count(monkeypatch):
    # the residual screen leaves about two solves per real unknown
    gen, masa = generic_generator_instance(np.random.default_rng(1316), 16, 3)
    calls = []

    def counting(a, b, *args, **kwargs):
        calls.append(len(a))
        return least_squares(a, b, *args, **kwargs)

    monkeypatch.setattr(gksl, "least_squares", counting)
    assert not hamiltonian_part_diagonalizable(gen, masa)
    assert len(calls) <= 4 * (2 * 3) + 2


def test_ex3_2_certificate_exact_replay():
    # ex3_2's jumps and 2B are integers on the diagonal masa: replay the
    # greedy over the rationals, a row joining when it keeps the rank of the
    # augmented system
    sympy = pytest.importorskip("sympy")
    gen = build_example("ex3_2").payload
    d = gen.dim

    def exact(z):
        return sympy.Rational(z.real) + sympy.I * sympy.Rational(z.imag)

    ops = [[[exact(v) for v in row] for row in op] for op in gen.kraus.operators]
    two_b = [[exact(2 * v) for v in row] for row in gen.beta]
    rows, rhs = [], []
    for r, s in zip(*np.nonzero(~np.eye(d, dtype=bool))):
        # c = x + iy: the coefficient of x is p + q, that of y is i(p - q)
        coeffs = []
        for op in ops:
            p, q = op[r][s], -sympy.conjugate(op[s][r])
            coeffs += [p + q, sympy.I * (p - q)]
        target = -(two_b[r][s] - sympy.conjugate(two_b[s][r]))
        for part in (sympy.re, sympy.im):
            rows.append([part(c) for c in coeffs])
            rhs.append(part(target))
    a, b = sympy.Matrix(rows), sympy.Matrix(rhs)
    columns = list(range(a.cols))
    accepted = []
    for k in sorted(range(len(rows)), key=lambda k: (sum(v != 0 for v in rows[k]), k)):
        sub = a.extract(accepted + [k], columns)
        if sub.rank() == sub.row_join(b.extract(accepted + [k], [0])).rank():
            accepted.append(k)
    x = a.extract(accepted, columns).pinv() * b.extract(accepted, [0])
    assert [x[2 * i] + sympy.I * x[2 * i + 1] for i in range(len(ops))] == [10, 2]
    assert max(abs(v) for v in a * x - b) == 14
    cert = hamiltonian_part_diagonalizable(gen, Masa.diagonal(d)).infeasibility_certificate
    assert cert.accepted == tuple(k in accepted for k in range(len(rows)))


def _semigroup_generator(seed):
    """Seeded generator at d 1–16 with n 1–4 jumps.

    Markov form for even seeds, a general drift for odd ones.
    """
    rng = np.random.default_rng([1100, seed])
    d, n = 1 + seed % 16, 1 + seed % 4
    ops = [complex_gaussian(rng, (d, d)) / np.sqrt(2 * d) for _ in range(n)]
    if seed % 2 == 0:
        h = complex_gaussian(rng, (d, d)) / np.sqrt(2 * d)
        return markov_form(KrausMap(ops), (h + dag(h)) / 2)
    return GkslGenerator(KrausMap(ops), complex_gaussian(rng, (d, d)) / np.sqrt(2 * d))


def test_semigroup_at_agrees_with_complex_exponential():
    # the real-form exponential against the complex Padé exponential of tS
    for seed in range(128):
        gen = _semigroup_generator(seed)
        t = (0.0, 0.1, 1.0, 3.7)[(seed // 16) % 4]
        expected = matrix_exp(t * generator_superoperator(gen))
        err = frobenius(semigroup_at(gen, t) - expected)
        assert err <= 1e-11 * max(1.0, frobenius(expected)), (seed, err)


def test_semigroup_at_preserves_hermiticity_exactly():
    # P conj(E_t) P = E_t bit for bit, P the permutation vec(X) -> vec(X^T)
    for seed in range(16):
        gen = _semigroup_generator(seed)
        d = gen.dim
        perm = np.arange(d * d).reshape(d, d).T.ravel()
        e_t = semigroup_at(gen, 0.7)
        assert np.array_equal(e_t.conj()[perm][:, perm], e_t), seed


def test_semigroup_at_overflow_raises_without_warning():
    gen = GkslGenerator(KrausMap([np.eye(2, dtype=complex)]), 1000 * np.eye(2, dtype=complex))
    calm = random_markov_generator(np.random.default_rng(5), 3, 2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalFailure):
            semigroup_at(gen, 1.0)
        # the scaled generator tS itself overflows
        with pytest.raises(NumericalFailure):
            semigroup_at(calm, 1e308)


def test_gksl_equivalent_overflow_raises_without_warning():
    ops = [np.full((2, 2), 1e308, dtype=complex), np.diag([1e308, -1e308]).astype(complex)]
    gen = GkslGenerator(KrausMap(ops), np.zeros((2, 2)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalFailure):
            gksl_equivalent(gen, gen)


def test_markov_form_overflow_raises_without_warning():
    # Σ L_i* L_i overflows at entries of 1e160
    kraus = KrausMap([1e160 * np.eye(2, dtype=complex)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalFailure):
            markov_form(kraus, np.zeros((2, 2)))
