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
    choi_matrix,
    dag,
    frobenius,
    gksl_equivalent,
    haar_unitary,
    is_unital,
    kraus_transform,
    least_squares,
    map_superoperator,
    minimal_kraus,
    random_unital_kraus,
    vec,
)
from cpmasa import linalg
from cpmasa.cpmaps import _mixing, _superoperator_distance
from cpmasa.errors import DimensionMismatch, NumericalFailure

from _ensembles import complex_gaussian, transformed_presentation

L21 = np.array([[1, 0], [1, 1]], dtype=complex)


def test_kraus_map_construction():
    t = KrausMap([L21])
    assert t.dim == 2
    assert len(t) == 1
    with pytest.raises(DimensionMismatch):
        KrausMap([np.eye(2, dtype=complex), np.eye(3, dtype=complex)])
    with pytest.raises(DimensionMismatch):
        KrausMap([])


def test_apply_cp_adjoint_on_left():
    t = KrausMap([L21])
    out = apply_cp(t, np.eye(2))
    assert np.array_equal(out, np.array([[2, 1], [1, 1]], dtype=complex))
    out2 = apply_cp(t, out)
    assert np.array_equal(out2, np.array([[5, 2], [2, 1]], dtype=complex))


def test_apply_cp_identity_channel():
    t = KrausMap([np.eye(3, dtype=complex)])
    x = complex_gaussian(np.random.default_rng(1), (3, 3))
    assert np.allclose(apply_cp(t, x), x)


def test_apply_cp_preserves_selfadjoint():
    for seed in range(50):
        rng = np.random.default_rng(seed)
        d = int(rng.integers(2, 5))
        t = KrausMap([complex_gaussian(rng, (d, d)) for _ in range(int(rng.integers(1, 4)))])
        x = complex_gaussian(rng, (d, d))
        x = (x + dag(x)) / 2
        y = apply_cp(t, x)
        assert frobenius(y - dag(y)) < DEFAULT_TOL.threshold(frobenius(y))


def test_superoperator_agrees_with_apply():
    rng = np.random.default_rng(2)
    for _ in range(10):
        d = int(rng.integers(2, 5))
        t = KrausMap([complex_gaussian(rng, (d, d)) for _ in range(2)])
        s = map_superoperator(t)
        x = complex_gaussian(rng, (d, d))
        assert np.linalg.norm(s @ vec(x) - vec(apply_cp(t, x))) < 1e-10


def test_superoperator_identity_channel():
    t = KrausMap([np.eye(2, dtype=complex)])
    assert np.allclose(map_superoperator(t), np.eye(4))


def test_superoperator_zero_family():
    t = KrausMap([np.zeros((2, 2), dtype=complex)])
    assert np.allclose(map_superoperator(t), np.zeros((4, 4)))


def test_choi_positive_and_rank():
    # identity channel Choi: rank 1, trace d
    t = KrausMap([np.eye(2, dtype=complex)])
    c = choi_matrix(t)
    lam = np.linalg.eigvalsh(c)
    assert lam[-1] == pytest.approx(2.0)
    assert np.sum(lam > 1e-9) == 1

    assert np.sum(np.linalg.eigvalsh(choi_matrix(KrausMap([L21]))) > 1e-9) == 1

    s = 1 / np.sqrt(2)
    ops22 = [
        np.array([[s, 0], [0.5, 0.5]], dtype=complex),
        np.array([[0, s], [-0.5, 0.5]], dtype=complex),
    ]
    assert np.sum(np.linalg.eigvalsh(choi_matrix(KrausMap(ops22))) > 1e-9) == 2


def test_choi_never_negative():
    for seed in range(50):
        rng = np.random.default_rng(seed)
        d = int(rng.integers(2, 5))
        t = KrausMap([complex_gaussian(rng, (d, d)) for _ in range(int(rng.integers(1, 4)))])
        lam = np.linalg.eigvalsh(choi_matrix(t))
        assert lam[0] >= -(d**2) * DEFAULT_TOL.atol * max(1.0, lam[-1])


def test_minimal_kraus_duplicate_and_zero():
    t = KrausMap([L21, L21])
    m = minimal_kraus(t)
    assert len(m) == 1
    assert frobenius(map_superoperator(t) - map_superoperator(m)) < 1e-9
    # the single survivor is a phase times sqrt(2) L
    coef = np.vdot(L21, m.operators[0]) / np.vdot(L21, L21)
    assert frobenius(m.operators[0] - coef * L21) < 1e-9
    assert abs(abs(coef) - np.sqrt(2)) < 1e-9

    t0 = KrausMap([L21, np.zeros((2, 2), dtype=complex)])
    assert len(minimal_kraus(t0)) == 1


def test_minimal_kraus_preserves_superoperator():
    for seed in range(50):
        rng = np.random.default_rng(seed)
        d = int(rng.integers(2, 4))
        n = int(rng.integers(1, 5))
        ops = [complex_gaussian(rng, (d, d)) for _ in range(n)]
        if n > 1 and seed % 2 == 0:
            ops.append(ops[0] + ops[1])  # force a dependency
        t = KrausMap(ops)
        m = minimal_kraus(t)
        s = map_superoperator(t)
        assert len(m) == np.sum(np.linalg.eigvalsh(choi_matrix(t)) > DEFAULT_TOL.rank_cut(
            float(np.linalg.eigvalsh(choi_matrix(t))[-1])))
        assert frobenius(s - map_superoperator(m)) <= 10 * DEFAULT_TOL.atol * (1 + frobenius(s))


def _with_small_operator():
    # a direction of norm 1e-5 lies far above the singular-value rank cut
    rng = np.random.default_rng(21)
    return KrausMap([complex_gaussian(rng, (3, 3)), 1e-5 * complex_gaussian(rng, (3, 3))])


def test_minimal_kraus_keeps_small_operators():
    t = _with_small_operator()
    m = minimal_kraus(t)
    assert len(m) == 2
    s = map_superoperator(t)
    assert frobenius(s - map_superoperator(m)) <= 10 * DEFAULT_TOL.atol * (1 + frobenius(s))


def test_kraus_transform_of_small_operators():
    t = _with_small_operator()
    v = kraus_transform(t, t)
    assert frobenius(v.v_matrix - np.eye(2)) < 1e-8


def test_minimal_kraus_never_forms_the_choi_matrix(monkeypatch):
    def refuse(t):
        raise AssertionError("choi_matrix called")

    monkeypatch.setattr("cpmasa.cpmaps.choi_matrix", refuse)
    rng = np.random.default_rng(22)
    ops = [complex_gaussian(rng, (3, 3)) for _ in range(2)]
    t = KrausMap(ops + [ops[0] - ops[1]])
    assert len(minimal_kraus(t)) == 2
    v = kraus_transform(t, t)
    assert frobenius(v.v_matrix @ dag(v.v_matrix) @ v.v_matrix - v.v_matrix) < 1e-8


def test_minimal_kraus_degenerate_pauli_channel():
    # equal weights make the Choi spectrum fourfold degenerate
    paulis = ([[1, 0], [0, 1]], [[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]])
    t = KrausMap([np.array(p, dtype=complex) / 2 for p in paulis])
    m = minimal_kraus(t)
    assert len(m) == 4
    gram = np.array([[np.vdot(x, y) for y in m.operators] for x in m.operators])
    assert frobenius(gram - np.diag(np.diag(gram))) < 1e-12
    assert frobenius(map_superoperator(t) - map_superoperator(m)) < 1e-12


def test_kraus_transform_identity_and_mixing():
    rng = np.random.default_rng(3)
    ops = [complex_gaussian(rng, (2, 2)) for _ in range(2)]
    t = KrausMap(ops)
    v = kraus_transform(t, t)
    assert np.allclose(v.v_matrix, np.eye(2), atol=1e-9)

    w = haar_unitary(rng, 2)
    mixed = KrausMap([sum(w[j, i] * ops[i] for i in range(2)) for j in range(2)])
    v = kraus_transform(t, mixed)
    assert np.allclose(v.v_matrix, w, atol=1e-8)
    for j in range(2):
        rebuilt = sum(v.v_matrix[j, i] * ops[i] for i in range(2))
        assert frobenius(rebuilt - mixed.operators[j]) < 1e-8


def test_kraus_transform_of_example_pair_is_unitary():
    s = 1 / np.sqrt(2)
    ops = [
        np.array([[s, 0], [0.5, 0.5]], dtype=complex),
        np.array([[0, s], [-0.5, 0.5]], dtype=complex),
    ]
    t = KrausMap(ops)
    rng = np.random.default_rng(8)
    w = haar_unitary(rng, 2)
    other = KrausMap([sum(w[j, i] * ops[i] for i in range(2)) for j in range(2)])
    v = kraus_transform(t, other)
    assert np.allclose(v.v_matrix, w, atol=1e-8)
    assert frobenius(dag(v.v_matrix) @ v.v_matrix - np.eye(2)) < 1e-8
    assert frobenius(v.v_matrix @ dag(v.v_matrix) - np.eye(2)) < 1e-8


def test_kraus_transform_detects_different_maps():
    t = KrausMap([L21])
    other = KrausMap([np.eye(2, dtype=complex)])
    out = kraus_transform(t, other)
    assert isinstance(out, Inequivalent)
    assert not out
    assert out.distance > 1e-3


def test_kraus_transform_rejects_maps_of_other_dimension():
    with pytest.raises(DimensionMismatch):
        kraus_transform(KrausMap([L21]), KrausMap([np.eye(3, dtype=complex)]))


def test_kraus_transform_span_inclusion():
    # connecting matrix implies span{S_j} inside span{T_i} and conversely
    for seed in range(25):
        rng = np.random.default_rng(seed)
        d = 2
        n = int(rng.integers(1, 4))
        ops = [complex_gaussian(rng, (d, d)) for _ in range(n)]
        t = KrausMap(ops)
        w = haar_unitary(rng, n)
        other = KrausMap([sum(w[j, i] * ops[i] for i in range(n)) for j in range(n)])
        v = kraus_transform(t, other)
        stack_t = np.column_stack([vec(op) for op in t.operators])
        stack_s = np.column_stack([vec(op) for op in other.operators])
        r_t = np.linalg.matrix_rank(stack_t, tol=1e-9)
        assert np.linalg.matrix_rank(np.column_stack([stack_t, stack_s]), tol=1e-9) == r_t


def test_minimal_decompositions_connected_by_unitary():
    rng = np.random.default_rng(17)
    for _ in range(10):
        d = int(rng.integers(2, 4))
        n = int(rng.integers(1, 4))
        ops = [complex_gaussian(rng, (d, d)) for _ in range(n)]
        t = minimal_kraus(KrausMap(ops))
        k = len(t)
        w = haar_unitary(rng, k)
        other = KrausMap([sum(w[j, i] * t.operators[i] for i in range(k)) for j in range(k)])
        assert len(minimal_kraus(other)) == k
        v = kraus_transform(t, other)
        assert frobenius(dag(v.v_matrix) @ v.v_matrix - np.eye(k)) < 1e-8
        assert frobenius(v.v_matrix @ dag(v.v_matrix) - np.eye(k)) < 1e-8


def test_is_unital_verdicts():
    s = 1 / np.sqrt(2)
    ops = [
        np.array([[s, 0], [0.5, 0.5]], dtype=complex),
        np.array([[0, s], [-0.5, 0.5]], dtype=complex),
    ]
    assert is_unital(KrausMap(ops))
    assert is_unital(KrausMap([np.eye(2, dtype=complex)]))

    verdict = is_unital(KrausMap([L21]))
    assert not verdict
    assert verdict.residual == pytest.approx(
        frobenius(np.array([[1, 1], [1, 0]])), abs=1e-12
    )


def test_is_unital_non_finite_raises():
    # T(1) overflows, so its distance from the unit is NaN
    with pytest.raises(NumericalFailure):
        is_unital(KrausMap([1e200 * np.ones((2, 2), dtype=complex)]))


def test_overflowing_family_raises_without_warning():
    # the pair-form stacks hold inf after the QR; masking R must not warn
    t = KrausMap([np.full((2, 2), 1e308, dtype=complex), np.diag([1e308, -1e308]).astype(complex)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalFailure):
            kraus_transform(t, t)
        with pytest.raises(NumericalFailure):
            minimal_kraus(t)


def test_overflowing_products_raise_without_warning():
    # a finite family whose images, Choi matrix and superoperator overflow
    t = KrausMap([1e160 * np.eye(2, dtype=complex)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalFailure):
            apply_cp(t, np.eye(2))
        with pytest.raises(NumericalFailure):
            choi_matrix(t)
        with pytest.raises(NumericalFailure):
            map_superoperator(t)


def test_random_unital_kraus_is_unital():
    for seed in range(50):
        rng = np.random.default_rng(seed)
        d = int(rng.integers(2, 5))
        t = random_unital_kraus(rng, d, int(rng.integers(1, 5)))
        assert is_unital(t).residual < 1e-12


def _distance_pair(seed):
    """Seeded pair of maps or generators at d 1–6.

    Equal (a unitary remix), perturbed by 1e-6 to 1e-11, independent, or with
    a zero operator appended.
    """
    rng = np.random.default_rng([1101, seed])
    d, n = 1 + seed % 6, 1 + (seed // 6) % 3
    ops = [complex_gaussian(rng, (d, d)) for _ in range(n)]
    kind = seed % 4
    if kind == 0:
        mix = haar_unitary(rng, n)
        other = list(np.tensordot(mix, np.stack(ops), axes=1))
    elif kind == 1:
        scale = 10.0 ** -float(rng.integers(6, 12))
        other = [op + scale * complex_gaussian(rng, (d, d)) for op in ops]
    elif kind == 2:
        other = [complex_gaussian(rng, (d, d)) for _ in range(n)]
    else:
        other = ops + [np.zeros((d, d), dtype=complex)]
    if (seed // 4) % 2:
        beta = complex_gaussian(rng, (d, d))
        return GkslGenerator(KrausMap(ops), beta), GkslGenerator(KrausMap(other), beta)
    return KrausMap(ops), KrausMap(other)


def test_superoperator_distance_matches_superoperators():
    # the pair-form distance against ‖S_a − S_b‖_F of the two superoperators
    for seed in range(144):
        a, b = _distance_pair(seed)
        sa, sb = a.superoperator(), b.superoperator()
        scale = max(frobenius(sa), frobenius(sb))
        expected = frobenius(sa - sb)
        distance, equal = _superoperator_distance(a, b, DEFAULT_TOL)
        assert abs(distance - expected) <= 1e-13 * max(1.0, scale), (seed, distance, expected)
        assert equal == (expected <= DEFAULT_TOL.threshold(scale)), seed


def test_equality_oracle_builds_no_superoperator(monkeypatch):
    def refuse(self):
        raise AssertionError("superoperator built")

    monkeypatch.setattr(linalg._PairForm, "superoperator", refuse)
    rng = np.random.default_rng(23)
    ops = [complex_gaussian(rng, (3, 3)) for _ in range(2)]
    t = KrausMap(ops + [ops[0] - ops[1]])
    assert len(minimal_kraus(t)) == 2
    assert kraus_transform(t, t).v_matrix.shape == (3, 3)
    assert isinstance(kraus_transform(t, KrausMap(ops)), Inequivalent)
    gen = GkslGenerator(KrausMap(ops), complex_gaussian(rng, (3, 3)))
    assert gksl_equivalent(gen, gen).checks["superoperator_distance"] < 1e-12
    shifted = GkslGenerator(KrausMap(ops), gen.beta + 1)
    assert isinstance(gksl_equivalent(gen, shifted), Inequivalent)


def test_operators_are_one_read_only_stack():
    rng = np.random.default_rng(43)
    ops = [complex_gaussian(rng, (3, 3)) for _ in range(2)]
    t = KrausMap(ops)
    assert t.operators.shape == (2, 3, 3)
    with pytest.raises(ValueError):
        t.operators[0, 0, 0] = 1.0
    assert np.array_equal(KrausMap(t.operators).operators, t.operators)
    # the stack is a copy: the caller's operators stay writable and apart from it
    ops[0][0, 0] = 5.0
    assert t.operators[0, 0, 0] != 5.0


def _reference_mixing(t_ops, s_ops, tol=DEFAULT_TOL):
    """The mixing isometry by the construction it replaced: both families
    expanded by least squares over minimal_kraus of the reference family."""
    base = np.column_stack([vec(op) for op in minimal_kraus(KrausMap(t_ops), tol).operators])

    def coordinates(ops):
        return least_squares(base, np.column_stack([vec(op) for op in ops]))[0].T

    return coordinates(s_ops) @ dag(coordinates(t_ops))


def _reference_families():
    """Seeded reference families, in turn minimal, with a duplicated operator,
    with a zero operator, with a scalar operator, and scaled by 1e-6."""
    for seed in range(60):
        rng = np.random.default_rng([1800, seed])
        d, n = int(rng.integers(2, 6)), int(rng.integers(1, 4))
        ops = complex_gaussian(rng, (n, d, d))
        kind = seed % 5
        if kind == 1:
            ops = np.concatenate((ops, ops[:1]))
        elif kind == 2:
            ops = np.concatenate((ops, np.zeros((1, d, d))))
        elif kind == 3:
            ops = np.concatenate((ops, 0.7j * np.eye(d)[None]))
        elif kind == 4:
            ops = 1e-6 * ops
        yield seed, rng, ops


def test_kraus_transform_matches_least_squares_reference():
    for seed, rng, ops in _reference_families():
        n = len(ops)
        # S_j = Σ_i w_ji T_i for an isometry w with one spare row half the time
        w = haar_unitary(rng, n + seed % 2)[:, :n]
        other = np.einsum("ji,ikl->jkl", w, ops)
        v = kraus_transform(KrausMap(ops), KrausMap(other)).v_matrix
        scale = max(1.0, max(frobenius(op) for op in other))
        assert frobenius(v - _reference_mixing(ops, other)) <= 1e-12 * scale, seed


def test_gksl_equivalent_matches_least_squares_reference():
    for seed, rng, ops in _reference_families():
        d = ops.shape[1]
        gen = GkslGenerator(KrausMap(ops), complex_gaussian(rng, (d, d)))
        moved, _ = transformed_presentation(rng, gen, extra=seed % 2)
        out = gksl_equivalent(gen, moved)
        traces = [np.trace(g.kraus.operators, axis1=1, axis2=2) / d for g in (gen, moved)]
        traceless = [
            g.kraus.operators - t[:, None, None] * np.eye(d) for g, t in zip((gen, moved), traces)
        ]
        m = _reference_mixing(*traceless)
        bound = 1e-12 * max(1.0, out.checks["scale"])
        assert frobenius(out.m_matrix - m) <= bound, seed
        assert np.linalg.norm(out.eta_prime - (traces[1] - m @ traces[0])) <= bound, seed


def test_mixing_rejects_a_member_outside_the_span():
    rng = np.random.default_rng(13)
    t_ops = complex_gaussian(rng, (2, 3, 3))
    coef = complex_gaussian(rng, (4, 2))
    s_ops = np.einsum("ji,ikl->jkl", coef, t_ops)
    v = _mixing(t_ops, s_ops, DEFAULT_TOL)
    assert np.allclose(np.einsum("ji,ikl->jkl", v, t_ops), s_ops, atol=1e-10)
    outside = np.concatenate((s_ops, complex_gaussian(rng, (1, 3, 3))))
    with pytest.raises(NumericalFailure):
        _mixing(t_ops, outside, DEFAULT_TOL)


def test_gksl_equivalent_makes_one_distance_and_no_least_squares(monkeypatch):
    rng = np.random.default_rng(1816)
    gen = GkslGenerator(KrausMap(complex_gaussian(rng, (3, 4, 4))), complex_gaussian(rng, (4, 4)))
    moved, _ = transformed_presentation(rng, gen, extra=1)
    calls = {"lstsq": 0, "distance": 0}
    lstsq, distance = np.linalg.lstsq, linalg._PairForm.distance

    def counting_lstsq(*args, **kwargs):
        calls["lstsq"] += 1
        return lstsq(*args, **kwargs)

    def counting_distance(self, other):
        calls["distance"] += 1
        return distance(self, other)

    monkeypatch.setattr(np.linalg, "lstsq", counting_lstsq)
    monkeypatch.setattr(linalg._PairForm, "distance", counting_distance)
    assert isinstance(gksl_equivalent(gen, moved), TransformWitness)
    assert calls == {"lstsq": 0, "distance": 1}


def test_model_objects_compare_and_hash_by_identity():
    # sameness of two presentations is kraus_transform's and gksl_equivalent's question
    t = KrausMap([np.eye(2)])
    gen = GkslGenerator(t, np.zeros((2, 2)))
    masa = Masa.diagonal(2)
    twins = (KrausMap([np.eye(2)]), GkslGenerator(t, np.zeros((2, 2))), Masa.diagonal(2))
    for obj, twin in zip((t, gen, masa), twins):
        assert obj == obj
        assert not obj == twin
        assert obj != twin
    assert len({t, gen, masa, t, *twins}) == 6
