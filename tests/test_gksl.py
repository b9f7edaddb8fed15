import warnings

import numpy as np
import pytest

from cpmasa import (
    DEFAULT_TOL,
    GkslGenerator,
    Inequivalent,
    KrausMap,
    Masa,
    TransformWitness,
    apply_cp,
    apply_generator,
    cp_part_diagonalizable,
    dag,
    frobenius,
    generator_from_map,
    generator_superoperator,
    gksl_equivalent,
    hamiltonian_part_diagonalizable,
    is_invariant,
    markov_form,
    matrix_exp,
    offdiag,
    semigroup_at,
    vec,
)
from cpmasa.errors import (
    DimensionMismatch,
    NotInvariant,
    NotMinimal,
    NotSelfAdjoint,
    NotUnital,
    NumericalFailure,
    PreconditionFailed,
)

from _ensembles import (
    complex_gaussian,
    generic_generator_instance,
    invariant_generator_instance,
    minimal_presentation,
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
    with pytest.raises(PreconditionFailed):
        semigroup_at(gen, -0.1)


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
