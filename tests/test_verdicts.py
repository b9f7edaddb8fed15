"""Every decision is a Verdict, and its boolean is its residual against its threshold.

The direct verdicts, the unital check, the per-operator Rebolledo checks,
both coefficient criteria (witnesses and Infeasible alike) and both drift
splits are Verdicts, or subclasses carrying a payload, decided by one rule.
A question asked of one kind of evolution refuses every other kind.
"""

import numpy as np
import pytest

from cpmasa import (
    GeneratorCoefficientWitness,
    GkslGenerator,
    Infeasible,
    KrausCoefficientWitness,
    KrausMap,
    Masa,
    SplitVerdict,
    Verdict,
    cp_part_diagonalizable,
    embed_corner,
    generator_from_map,
    gksl_equivalent,
    hamiltonian_part_diagonalizable,
    is_invariant,
    is_unital,
    kraus_transform,
    markov_form,
    minimal_kraus,
    rebolledo_check,
    solve_generator_coefficients,
    solve_kraus_coefficients,
)
from cpmasa.errors import PreconditionFailed

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
