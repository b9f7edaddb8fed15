import numpy as np
import pytest

from cpmasa import (
    DEFAULT_TOL,
    GkslGenerator,
    Inequivalent,
    KrausMap,
    apply_cp,
    choi_matrix,
    dag,
    frobenius,
    gksl_equivalent,
    haar_unitary,
    is_unital,
    kraus_transform,
    map_superoperator,
    minimal_kraus,
    random_unital_kraus,
    vec,
)
from cpmasa import linalg
from cpmasa.cpmaps import _superoperator_distance
from cpmasa.errors import DimensionMismatch, NumericalFailure

from _ensembles import complex_gaussian

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
