"""The instance generators: planted truths hold, gauge pairs agree, seeds repeat."""

import numpy as np
import pytest

import cpmasa as cm
from instances import CASES, GKSL_COPIES, digest


def _verdict(case):
    source = case.evolution.build()
    masa = cm.Masa(case.basis)
    if case.evolution.beta is None:
        return cm.is_invariant_map(source, masa)
    return cm.is_invariant_generator(source, masa)


def _planted(cases):
    return [c for c in cases if (c.truth.get("exists") and c.basis is not None) or c.truth.get("invariant")]


@pytest.mark.parametrize("workload", sorted(CASES))
def test_planted_instances_pass_the_direct_verdict(workload):
    planted = _planted(CASES[workload](5))
    assert planted
    for case in planted:
        verdict = _verdict(case)
        assert verdict.ok, (case.label, verdict)


def test_generic_certify_instances_fail_the_direct_verdict():
    for case in CASES["certify"](5):
        if not case.truth["invariant"]:
            assert not _verdict(case).ok, case.label


def test_certify_kernels_match_the_classical_restriction():
    for case in CASES["certify"](6):
        if case.truth["invariant"] and case.dim <= 8:
            kernel = cm.classical_restriction(case.evolution.build(), cm.Masa(case.basis))
            assert np.allclose(kernel, case.truth["kernel"], atol=1e-10), case.label


def test_gauge_transformed_pairs_are_equivalent():
    pairs = [c for c in CASES["gksl"](7) if c.kind in ("equiv_direct", "equiv_nonminimal")]
    assert len(pairs) == 2 * sum(GKSL_COPIES.values())
    for case in pairs:
        ref, other = case.evolution.build(), case.other.build()
        s_ref = cm.generator_superoperator(ref)
        gap = np.linalg.norm(s_ref - cm.generator_superoperator(other))
        assert gap <= 1e-10 * np.linalg.norm(s_ref), case.label
        assert ref.is_minimal == (case.kind == "equiv_direct")
        if case.dim <= 8:
            witness = cm.gksl_equivalent(ref, other)
            assert isinstance(witness, cm.TransformWitness), case.label
            if case.kind == "equiv_direct":
                assert np.allclose(witness.m_matrix, case.truth["m"], atol=1e-8)
                assert np.allclose(witness.eta_prime, case.truth["eta_prime"], atol=1e-8)
                assert abs(witness.h_scalar - case.truth["h"]) <= 1e-8


def test_perturbed_pairs_are_inequivalent_at_the_built_distance():
    for case in CASES["gksl"](7):
        if case.kind == "equiv_inequivalent":
            out = cm.gksl_equivalent(case.evolution.build(), case.other.build())
            assert isinstance(out, cm.Inequivalent)
            assert out.distance == pytest.approx(case.truth["distance"], rel=1e-9)


@pytest.mark.parametrize("workload", sorted(CASES))
def test_one_seed_gives_byte_identical_inputs(workload):
    make = CASES[workload]
    assert digest(make(3)) == digest(make(3))
    assert digest(make(3)) != digest(make(4))


def test_round_composition():
    search = CASES["search"](0)
    assert sum(c.kind.startswith("planted") for c in search) == 18
    assert sum(c.kind.startswith("barren") for c in search) == 18
    assert sum(c.kind.startswith("m2") for c in search) == 8
    certify = CASES["certify"](0)
    assert sum(c.truth["invariant"] for c in certify) == len(certify) // 2
    assert sum(c.dim == 32 for c in certify) == 4
    assert len(CASES["gksl"](0)) == 105
