"""Every decision is a Verdict, and its boolean is its residual against its threshold.

The direct verdicts, the unital check, the per-operator Rebolledo checks,
both coefficient criteria (witnesses and Infeasible alike) and both drift
splits are Verdicts, or subclasses carrying a payload, decided by one rule.
"""

import numpy as np

from cpmasa import (
    GeneratorCoefficientWitness,
    Infeasible,
    KrausCoefficientWitness,
    SplitVerdict,
    Verdict,
    cp_part_diagonalizable,
    hamiltonian_part_diagonalizable,
    is_invariant,
    is_unital,
    rebolledo_check,
    solve_generator_coefficients,
    solve_kraus_coefficients,
)

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
