"""Every decision is a Verdict, and its boolean is its residual against its threshold.

The direct verdicts, the unital check, the per-operator Rebolledo checks,
both coefficient criteria (witnesses and Infeasible alike) and both drift
splits are Verdicts, or subclasses carrying a payload, decided by one rule.
The checks that scale a threshold by a slack take their bound from the same
rule, `Tolerance._bound`: each accepts or refuses on either side of its own
defect as it always did, and a defect that is not finite raises.
A question asked of one kind of evolution refuses every other kind.
"""

import warnings

import numpy as np
import pytest

from cpmasa import (
    DEFAULT_TOL,
    GeneratorCoefficientWitness,
    GkslGenerator,
    Infeasible,
    KrausCoefficientWitness,
    KrausMap,
    Masa,
    SplitVerdict,
    Tolerance,
    Verdict,
    classical_restriction,
    cp_part_diagonalizable,
    embed_corner,
    find_masa_m2,
    generator_from_map,
    gksl_equivalent,
    hamiltonian_part_diagonalizable,
    is_invariant,
    is_unital,
    kraus_transform,
    markov_form,
    masa_from_selfadjoint,
    minimal_kraus,
    rebolledo_check,
    solve_generator_coefficients,
    solve_kraus_coefficients,
)
from cpmasa import cpmaps, gksl, masa as masa_module
from cpmasa.errors import DegenerateSpectrum, NumericalFailure, PreconditionFailed
from cpmasa.linalg import _decide, _PairForm

from _ensembles import (
    generic_generator_instance,
    generic_map_instance,
    invariant_generator_instance,
    invariant_map_instance,
    random_unital_map,
)


def _assert_decided(answer, label):
    assert isinstance(answer, Verdict), label
    assert bool(answer) == (answer.residual <= answer.threshold), label
    assert bool(answer) is answer.ok, label


def test_every_answer_is_a_verdict_decided_by_its_threshold():
    outcomes = set()
    for seed in range(12):
        rng = np.random.default_rng([1600, seed])
        d, n = 2 + seed % 4, 1 + seed // 4
        maps = [invariant_map_instance(rng, d, n), generic_map_instance(rng, d, n)]
        maps.append((random_unital_map(rng, d, n + 1), maps[0][1]))
        for k, (t, masa) in enumerate(maps):
            label = (seed, "map", k)
            direct = is_invariant(t, masa)
            _assert_decided(direct, label)
            _assert_decided(is_unital(t), label)
            if k == seed % 3:  # one pattern enumeration per seed; d = 5 has 7776 patterns
                for verdict in rebolledo_check(t, masa).per_operator:
                    _assert_decided(verdict, label)
            witness = solve_kraus_coefficients(t, masa)
            _assert_decided(witness, label)
            assert isinstance(witness, KrausCoefficientWitness if witness else Infeasible), label
            outcomes.add(("map", bool(direct), bool(witness)))
        gens = [
            invariant_generator_instance(rng, d, n, gauge_shift=seed % 2 == 1),
            generic_generator_instance(rng, d, n),
        ]
        for k, (gen, masa) in enumerate(gens):
            label = (seed, "generator", k)
            direct = is_invariant(gen, masa)
            _assert_decided(direct, label)
            witness = solve_generator_coefficients(gen, masa)
            _assert_decided(witness, label)
            if witness:
                assert isinstance(witness, GeneratorCoefficientWitness), label
                _assert_decided(witness.inner_witness, label)
                assert witness.inner_witness.threshold == witness.threshold, label
                assert witness.inner_witness.ok, label
            else:
                assert isinstance(witness, Infeasible), label
            splits = [hamiltonian_part_diagonalizable(gen, masa)]
            if direct:
                splits.append(cp_part_diagonalizable(gen, masa))
            for split in splits:
                assert isinstance(split, SplitVerdict), label
                _assert_decided(split, label)
                assert split.feasible is split.ok, label
            outcomes.add(("generator", bool(direct), bool(witness)))
    # both answers of both criteria, for maps and for generators
    assert outcomes >= {(kind, ok, ok) for kind in ("map", "generator") for ok in (True, False)}


# a unital map and a generator that both leave the diagonal masa invariant,
# so that every question answers its own kind
_MAP = KrausMap([np.diag([0.6, 0.8]), np.diag([0.8, 0.6])])
_GENERATOR = GkslGenerator(_MAP, -np.eye(2) / 2)
_DIAGONAL = Masa.diagonal(2)
_ONE_KIND = {
    "solve_kraus_coefficients": ("cp_map", lambda x: solve_kraus_coefficients(x, _DIAGONAL)),
    "rebolledo_check": ("cp_map", lambda x: rebolledo_check(x, _DIAGONAL)),
    "minimal_kraus": ("cp_map", minimal_kraus),
    "embed_corner": ("cp_map", lambda x: embed_corner(x, 3)),
    "kraus_transform_first": ("cp_map", lambda x: kraus_transform(x, _MAP)),
    "kraus_transform_second": ("cp_map", lambda x: kraus_transform(_MAP, x)),
    "is_unital": ("cp_map", is_unital),
    "generator_from_map": ("cp_map", generator_from_map),
    "solve_generator_coefficients": (
        "generator",
        lambda x: solve_generator_coefficients(x, _DIAGONAL),
    ),
    "cp_part_diagonalizable": ("generator", lambda x: cp_part_diagonalizable(x, _DIAGONAL)),
    "hamiltonian_part_diagonalizable": (
        "generator",
        lambda x: hamiltonian_part_diagonalizable(x, _DIAGONAL),
    ),
    "gksl_equivalent_first": ("generator", lambda x: gksl_equivalent(x, _GENERATOR)),
    "gksl_equivalent_second": ("generator", lambda x: gksl_equivalent(_GENERATOR, x)),
}


@pytest.mark.parametrize("name", sorted(_ONE_KIND))
def test_a_question_of_one_kind_refuses_the_others(name):
    kind, call = _ONE_KIND[name]
    own, other = (_MAP, _GENERATOR) if kind == "cp_map" else (_GENERATOR, _MAP)
    call(own)
    for source in (other, own.superoperator()):
        with pytest.raises(PreconditionFailed, match=f"needs kind '{kind}'"):
            call(source)


@pytest.mark.parametrize(
    "build",
    [
        KrausMap,
        lambda x: GkslGenerator(x, np.zeros((2, 2))),
        lambda x: markov_form(x, np.zeros((2, 2))),
    ],
    ids=["KrausMap", "GkslGenerator", "markov_form"],
)
def test_a_kraus_family_refuses_a_generator(build):
    # these also take a list of operators, as which a raw array is read
    build(_MAP)
    with pytest.raises(PreconditionFailed, match="needs kind 'cp_map', got 'generator'"):
        build(_GENERATOR)


def test_a_verdict_of_numpy_scalars_is_a_bool():
    verdict = _decide(np.float64(1e-12), np.float64(1.0), DEFAULT_TOL, "residual is")
    assert bool(verdict) is True and verdict.ok is True


@pytest.mark.parametrize("residual, scale", [(np.nan, 1.0), (1.0, np.inf), (np.float64(np.inf), 0.0)])
def test_the_bound_refuses_what_is_not_finite(residual, scale):
    with pytest.raises(NumericalFailure, match="defect is not finite"):
        DEFAULT_TOL._bound(residual, scale, "defect is", slack=10)


def test_the_bound_is_the_threshold_at_a_floor_of_one_times_the_slack():
    tol = Tolerance(atol=1e-7, rtol=1e-5)
    assert DEFAULT_TOL._bound(0.0, 0.25, "x") == DEFAULT_TOL.threshold(1.0)
    assert tol._bound(0.0, 3.0, "x", slack=1000) == 1000 * tol.threshold(3.0)


@pytest.mark.parametrize("basis", [1e200 * np.eye(2), np.diag([1e200, 1.0])], ids=["scaled", "one"])
def test_an_overflowing_basis_raises_without_a_warning(basis):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalFailure, match="unitarity defect is not finite"):
            Masa(basis)


def _tolerances(defect, scale, slack=1):
    """Tolerances whose bound slack·rtol·max(1, scale) sits just above and just below `defect`."""
    rtol = defect / (slack * max(1.0, scale))
    return Tolerance(atol=0.0, rtol=rtol * (1 + 1e-3)), Tolerance(atol=0.0, rtol=rtol * (1 - 1e-3))


_PAULI = np.array([np.eye(2), [[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])


def _from_transfer(m):
    """The superoperator whose Pauli transfer matrix is m: S = P m P* for P the columns vec(σ_a)/√2."""
    p = np.stack([s.ravel(order="F") for s in _PAULI], axis=1) / np.sqrt(2)
    return p @ m @ p.conj().T


_TRANSFER = np.diag([1.0, 0.5, 0.25, 0.125]).astype(complex)
_E = 1e-3


def _transfer_with(index, value):
    m = _TRANSFER.copy()
    m[index] = value
    return m


def _threshold_cases():
    """(name, call(tol), defect, scale, slack, the error a defect above the bound raises; None for the gap)."""
    gen = GkslGenerator(KrausMap([np.diag([1.0, 0.0])]), 2 * np.eye(2))
    # the drift moves by 1 + e·σ_z: a scalar, which gamma absorbs, and a defect of √2·e
    shifted = GkslGenerator(gen.kraus, 3 * np.eye(2) + _E * np.diag([1.0, -1.0]))
    yield (
        "masa_unitarity",
        lambda tol: Masa(np.diag([1 + _E, 1.0]), tol),
        2 * _E + _E**2, np.sqrt(2), 1, PreconditionFailed,
    )
    yield (
        "selfadjoint_gap",
        lambda tol: masa_from_selfadjoint(np.diag([0.0, _E, 5.0]), tol),
        _E, 5.0, 1, None,
    )
    yield (
        "m2_unit_defect",
        # T(1) = 1 + e·σ_x
        lambda tol: find_masa_m2(_from_transfer(_transfer_with((1, 0), _E)), tol),
        np.sqrt(2) * _E, np.sqrt(2 * (1 + _E**2)), 1, PreconditionFailed,
    )
    yield (
        "m2_self_adjointness",
        # T(σ_x) = σ_x/2 + ie·σ_y
        lambda tol: find_masa_m2(_from_transfer(_transfer_with((2, 1), 1j * _E)), tol),
        2 * np.sqrt(2) * _E, np.sqrt(2), 1, PreconditionFailed,
    )
    yield (
        "classical_restriction",
        lambda tol: classical_restriction(3 * (1 + 1j * _E) * np.eye(4), Masa.diagonal(2), tol),
        3 * _E, 3.0, 10, NumericalFailure,
    )
    yield (
        "mixing",
        lambda tol: cpmaps._mixing(np.array([np.diag([1.0, 0.0])]), np.array([np.diag([3.0, 3 * _E])]), tol),
        3 * _E, 3 * np.sqrt(1 + _E**2), 10, NumericalFailure,
    )
    yield (
        "transform_witness",
        lambda tol: gksl._transform_witness(gen, shifted, np.eye(1), np.zeros(1), 0.0, tol),
        np.sqrt(2) * _E, np.sqrt(18 + 2 * _E**2), 10, NumericalFailure,
    )


@pytest.mark.parametrize("case", list(_threshold_cases()), ids=lambda case: case[0])
def test_each_hand_scaled_check_decides_on_either_side_of_its_defect(case):
    _, call, defect, scale, slack, error = case
    loose, tight = _tolerances(defect, scale, slack)
    if error is None:  # a gap passes above the bound; a defect passes below it
        with pytest.raises(DegenerateSpectrum):
            call(loose)
        call(tight)
    else:
        call(loose)
        with pytest.raises(error):
            call(tight)


def test_minimal_kraus_reproduction_bound_is_ten_thresholds_at_one_plus_the_norm(monkeypatch):
    # the distance is rounding-level in practice; a planted one pins the bound
    monkeypatch.setattr(_PairForm, "distance", lambda self, other: (_E, 3.0, 3.0))
    loose, tight = _tolerances(_E, 4.0, slack=10)
    minimal_kraus(KrausMap([np.eye(2)]), loose)
    with pytest.raises(NumericalFailure, match="failed to reproduce"):
        minimal_kraus(KrausMap([np.eye(2)]), tight)


def test_m2_candidate_bound_is_a_thousand_thresholds(monkeypatch):
    # every candidate of a map that meets the preconditions is invariant; a planted residual pins the bound
    monkeypatch.setattr(masa_module, "is_invariant", lambda *args: Verdict(False, _E, 0.0))
    loose, tight = _tolerances(_E, np.sqrt(2), slack=1000)
    source = _from_transfer(_TRANSFER)
    find_masa_m2(source, loose)
    with pytest.raises(NumericalFailure, match="no real-eigenvalue candidate"):
        find_masa_m2(source, tight)
