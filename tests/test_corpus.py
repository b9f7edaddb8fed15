import dataclasses

import numpy as np
import pytest

from cpmasa import (
    CORPUS_IDS,
    GkslGenerator,
    KrausMap,
    Masa,
    apply_cp,
    apply_generator,
    build_example,
    choi_matrix,
    classical_restriction,
    commutant_intersection,
    cp_part_diagonalizable,
    dag,
    embed_corner,
    frobenius,
    hamiltonian_part_diagonalizable,
    is_invariant_generator,
    is_invariant_map,
    is_unital,
    rebolledo_check,
    search_masa,
    verify_example,
)
from cpmasa import corpus
from cpmasa.errors import DimensionMismatch, HypothesisFailed, ParseError


def test_corpus_ids_and_bad_id():
    assert CORPUS_IDS == ("ex2_1", "ex2_2", "ex2_8", "ex3_2", "ex3_3", "ex3_4")
    with pytest.raises(ParseError):
        build_example("ex9_9")


def test_ex2_1_unit_images_exact():
    t = build_example("ex2_1").payload
    assert isinstance(t, KrausMap)
    one = apply_cp(t, np.eye(2))
    two = apply_cp(t, one)
    assert np.array_equal(one, np.array([[2, 1], [1, 1]], dtype=complex))
    assert np.array_equal(two, np.array([[5, 2], [2, 1]], dtype=complex))
    comm = one @ two - two @ one
    assert abs(frobenius(comm) - 2 * np.sqrt(2)) < 1e-10
    assert not is_unital(t)
    # rank-1 Choi: a single Kraus operator
    assert np.sum(np.linalg.eigvalsh(choi_matrix(t)) > 1e-9) == 1


def test_ex2_1_search_stays_away_from_zero():
    t = build_example("ex2_1").payload
    _, residual = search_masa(t, restarts=25, seed=11)
    assert residual >= 1e-3


def test_ex2_1_corner_embedding():
    t = build_example("ex2_1").payload
    for d in (3, 4):
        big = embed_corner(t, d)
        assert big.dim == d
        x = np.eye(d, dtype=complex)
        out = apply_cp(big, x)
        assert np.allclose(out[:2, :2], np.array([[2, 1], [1, 1]]))
        assert np.allclose(out[2:, :], 0) and np.allclose(out[:, 2:], 0)
    with pytest.raises(DimensionMismatch):
        embed_corner(t, 1)


def test_ex2_1_unit_orbit_exact_replay():
    # every invariant masa holds 1, T(1) and T²(1) and is commutative, so
    # [T(1), T²(1)] ≠ 0 proves that ex2_1 and its corners have none; the Kraus
    # operators are integer matrices, so T(X) = Σ K* X K replays over ℤ
    sympy = pytest.importorskip("sympy")
    base = build_example("ex2_1")
    pinned = {
        name: sympy.Matrix(base.expected[name].astype(int).tolist())
        for name in ("unit_image", "unit_image_twice", "unit_commutator")
    }
    for t in (base.payload, embed_corner(base.payload, 3), embed_corner(base.payload, 4)):
        d = t.dim
        assert np.array_equal(t.operators, t.operators.real.astype(int))
        ops = [sympy.Matrix(op.real.astype(int).tolist()) for op in t.operators]

        def image(x):
            return sum((op.H * x * op for op in ops), sympy.zeros(d))

        def padded(m):
            out = sympy.zeros(d)
            out[:2, :2] = m
            return out

        one = image(sympy.eye(d))
        two = image(one)
        comm = one * two - two * one
        assert one == padded(pinned["unit_image"])
        assert two == padded(pinned["unit_image_twice"])
        assert comm == padded(pinned["unit_commutator"])
        assert sum(v**2 for v in comm) == 8
        # the float check sees the same commutator, and its norm is √8
        x = apply_cp(t, np.eye(d))
        y = apply_cp(t, x)
        assert np.array_equal(x @ y - y @ x, np.array(comm.tolist(), dtype=complex))
        assert base.expected["unit_commutator_norm"] ** 2 == pytest.approx(8, rel=1e-15)


def test_ex2_2_invariant_unital_rebolledo():
    t = build_example("ex2_2").payload
    masa = Masa.diagonal(2)
    assert is_invariant_map(t, masa).residual <= 1e-10
    assert is_unital(t).residual <= 1e-12
    verdict = rebolledo_check(t, masa)
    assert verdict.patterns_examined == 9
    assert len(verdict.compatible_elements) == 0
    assert not any(v.ok for v in verdict.per_operator)


def test_ex2_8_cp_split_blocked():
    gen = build_example("ex2_8").payload
    assert isinstance(gen, GkslGenerator)
    masa = Masa.diagonal(2)
    assert frobenius(apply_generator(gen, np.eye(2))) <= 1e-10
    assert is_invariant_generator(gen, masa).residual <= 1e-10
    verdict = cp_part_diagonalizable(gen, masa)
    assert not verdict
    assert verdict.residual >= 1.0
    assert verdict.residual == pytest.approx(np.sqrt(2), rel=1e-9)


def test_ex2_8_hamiltonian_split_residual_pinned():
    # the off-diagonal drift asymmetry leaves a defect of 4*sqrt(2) no
    # matter the coefficients; regression-pin the value
    gen = build_example("ex2_8").payload
    verdict = hamiltonian_part_diagonalizable(gen, Masa.diagonal(2))
    assert not verdict
    assert verdict.residual == pytest.approx(4 * np.sqrt(2), rel=1e-9)
    bad = dict(verdict.infeasibility_certificate.violations())
    assert set(bad) == {"(0,1).re", "(1,0).re"}


def test_ex3_2_restriction_and_forced_coefficients():
    gen = build_example("ex3_2").payload
    masa = Masa.diagonal(3)
    assert is_invariant_generator(gen, masa).residual <= 1e-10
    assert frobenius(apply_generator(gen, np.eye(3))) <= 1e-10
    a = classical_restriction(gen, masa)
    expected = np.array([[-6, 2, 4], [9, -10, 1], [0, 0, 0]], dtype=float)
    assert np.max(np.abs(a - expected)) <= 1e-10
    assert np.allclose(a.sum(axis=1), 0, atol=1e-10)
    off = a - np.diag(np.diag(a))
    assert np.all(off >= -1e-10)

    verdict = hamiltonian_part_diagonalizable(gen, masa)
    assert not verdict
    cert = verdict.infeasibility_certificate
    forced = cert.forced_coefficients
    assert abs(forced[0] - 10) <= 1e-9
    assert abs(forced[1] - 2) <= 1e-9
    values = dict(cert.violations())
    assert max(abs(v) for v in values.values()) == pytest.approx(14.0, abs=1e-9)


def test_ex3_3_commutant_and_search():
    entry = build_example("ex3_3")
    gen = entry.payload
    h = gen.hamiltonian
    e = entry.expected["cyclic_vector"]
    proj = np.outer(e, e.conj())
    dim, _ = commutant_intersection([h, proj])
    assert dim == 1
    _, residual = search_masa(gen, restarts=25, seed=13)
    assert residual >= 1e-3


def test_ex3_4_unit_image_and_margins():
    entry = build_example("ex3_4")
    t = entry.payload
    assert frobenius(apply_cp(t, np.eye(3)) - 2 * np.eye(3)) <= 1e-10
    u = entry.expected["conjugating_unitary"]
    e = entry.expected["cyclic_vector"]
    f = entry.expected["uniform_vector"]
    assert frobenius(dag(u) @ u - np.eye(3)) < 1e-12
    lam, vecs = np.linalg.eig(u)
    margin = entry.expected["hypothesis_margin"]
    for k in range(3):
        v = vecs[:, k] / np.linalg.norm(vecs[:, k])
        assert abs(np.vdot(e, v)) >= margin
        assert abs(abs(np.vdot(e, v)) ** 2 - abs(np.vdot(f, v)) ** 2) >= margin
    assert np.linalg.eigvalsh((u + dag(u)) / 2)[0] >= margin
    halved = KrausMap([op / np.sqrt(2) for op in t.operators])
    assert is_unital(halved).residual <= 1e-12
    _, residual = search_masa(halved, restarts=25, seed=17)
    assert residual >= 1e-3


def test_ex3_3_build_refuses_a_larger_commutant(monkeypatch):
    monkeypatch.setattr(corpus, "commutant_intersection", lambda mats, tol: (2, []))
    with pytest.raises(HypothesisFailed):
        build_example("ex3_3")


def test_ex3_4_build_refuses_a_missed_margin(monkeypatch):
    # seed 7's smallest margin, that of an eigenvector's component along e, is 0.108
    monkeypatch.setattr(corpus, "HYPOTHESIS_MARGIN", 0.11)
    with pytest.raises(HypothesisFailed):
        build_example("ex3_4")


def test_verify_example_all_pass():
    for eid in CORPUS_IDS:
        report = verify_example(eid)
        assert report["ok"], eid
        assert report["id"] == eid
        assert len(report["checks"]) >= 4
        for check in report["checks"]:
            if check.get("asserted", True):
                assert check["ok"], (eid, check["name"])


class _ReadRecorder(dict):
    """A dict that records every key read through []."""

    def __init__(self, data, seen):
        super().__init__(data)
        self.seen = seen

    def __getitem__(self, key):
        self.seen.add(key)
        return super().__getitem__(key)


def test_verify_example_reads_every_pin(monkeypatch):
    build = corpus.build_example
    for eid in CORPUS_IDS:
        seen = set()
        entry = build(eid)

        def recorded(example_id, entry=entry, seen=seen):
            return dataclasses.replace(entry, expected=_ReadRecorder(entry.expected, seen))

        monkeypatch.setattr(corpus, "build_example", recorded)
        verify_example(eid)
        assert seen == set(entry.expected), (eid, sorted(set(entry.expected) - seen))


def test_verify_example_known_open_check():
    # the one reported-but-not-asserted check: ex2_8's hamiltonian split
    report = verify_example("ex2_8")
    notes = [c for c in report["checks"] if not c.get("asserted", True)]
    assert len(notes) == 1
    assert notes[0]["name"] == "hamiltonian_part_diagonalizable"
    assert not notes[0]["ok"]
    assert notes[0].get("note")
