"""Reference instances with known invariance behavior, pinned exactly.

Six named instances exercise every decision procedure in the package:
two CP maps and a generator on M₂, two generators on M₃, and a unital CP
map (after halving) on M₃. Each entry pins the values its verifier checks,
and the verifier reads every pin and re-derives it from the payload rather
than trusting it. Two of the instances depend on hypotheses about a constructed unitary
or commutant; those are re-checked at build time, with deterministic seed
retries for the seeded construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cpmaps import KrausMap, apply_cp, is_unital
from .cpmaps import superoperator as map_superoperator
from .errors import AssertionFailure, DimensionMismatch, HypothesisFailed, ParseError
from .gksl import (
    GkslGenerator,
    apply_generator,
    cp_part_diagonalizable,
    hamiltonian_part_diagonalizable,
)
from .linalg import (
    DEFAULT_TOL,
    Tolerance,
    commutant_intersection,
    dag,
    frobenius,
    matrix_exp,
)
from .masa import (
    Masa,
    classical_restriction,
    is_invariant,
    rebolledo_check,
    search_invariant_projections,
    search_masa,
)

__all__ = [
    "CorpusEntry",
    "CORPUS_IDS",
    "build_example",
    "verify_example",
    "embed_corner",
]

CORPUS_IDS = ("ex2_1", "ex2_2", "ex2_8", "ex3_2", "ex3_3", "ex3_4")

# margin required of the seeded-unitary hypotheses (eigenvector overlaps
# and the real-part spectrum), and retry budget for the seeded search
HYPOTHESIS_MARGIN = 1e-3
SEED_RETRIES = 40


@dataclass(frozen=True)
class CorpusEntry:
    """One pinned instance: payload plus the pinned values its verifier reads."""

    id: str
    payload: object
    expected: dict


def _build_ex2_1() -> CorpusEntry:
    op = np.array([[1, 0], [1, 1]], dtype=complex)
    t = KrausMap([op])
    return CorpusEntry(
        id="ex2_1",
        payload=t,
        expected={
            "unit_image": np.array([[2.0, 1.0], [1.0, 1.0]]),
            "unit_image_twice": np.array([[5.0, 2.0], [2.0, 1.0]]),
            "unit_commutator": np.array([[0.0, -2.0], [2.0, 0.0]]),
            "unit_commutator_norm": 2 * np.sqrt(2),
        },
    )


def _build_ex2_2() -> CorpusEntry:
    s = 1 / np.sqrt(2)
    op1 = np.array([[s, 0], [0.5, 0.5]], dtype=complex)
    op2 = np.array([[0, s], [-0.5, 0.5]], dtype=complex)
    t = KrausMap([op1, op2])
    return CorpusEntry(
        id="ex2_2",
        payload=t,
        expected={"compatible_element_count": 0},
    )


def _build_ex2_8() -> CorpusEntry:
    op1 = np.array([[1, 1], [1, 1]], dtype=complex)
    op2 = np.array([[1, 2], [2, 2]], dtype=complex)
    # the last drift entry is forced to -5 by the zero-on-unit property;
    # with -4 the displayed family is not Markov
    beta = -0.5 * np.array([[7, 6], [10, 10]], dtype=complex)
    gen = GkslGenerator(KrausMap([op1, op2]), beta)
    return CorpusEntry(
        id="ex2_8",
        payload=gen,
        expected={"cp_part_min_residual": 1.0},
    )


def _build_ex3_2() -> CorpusEntry:
    op1 = np.array([[1, 3, 0], [1, 0, 0], [0, 1, 5]], dtype=complex)
    op2 = np.array([[0, 0, 0], [1, 1, 0], [2, 0, 1]], dtype=complex)
    beta = -0.5 * np.array([[7, 6, 0], [2, 11, 0], [4, 10, 26]], dtype=complex)
    gen = GkslGenerator(KrausMap([op1, op2]), beta)
    return CorpusEntry(
        id="ex3_2",
        payload=gen,
        expected={
            "restriction": np.array(
                [[-6.0, 2.0, 4.0], [9.0, -10.0, 1.0], [0.0, 0.0, 0.0]]
            ),
            "forced_coefficients": np.array([10.0, 2.0]),
            "inconsistency_magnitude": 14.0,
        },
    )


def _ex3_3_data():
    e = np.zeros(3, dtype=complex)
    e[0] = 1
    projector = np.outer(e, e.conj())
    hamiltonian = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 1]], dtype=complex)
    return e, projector, hamiltonian


def _build_ex3_3() -> CorpusEntry:
    e, projector, hamiltonian = _ex3_3_data()
    expected = {"commutant_dimension": 1, "cyclic_vector": e}
    dimension, _ = commutant_intersection([hamiltonian, projector], DEFAULT_TOL)
    if dimension != expected["commutant_dimension"]:
        raise HypothesisFailed(
            f"joint commutant of the pinned pair has dimension {dimension}, "
            f"need {expected['commutant_dimension']}"
        )
    beta = -0.5 * projector - 1j * hamiltonian
    gen = GkslGenerator(KrausMap([projector]), beta)
    return CorpusEntry(id="ex3_3", payload=gen, expected=expected)


def _seeded_unitary(attempt: int) -> np.ndarray:
    rng = np.random.default_rng(7 if attempt == 0 else [7, attempt])
    k = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    k = (k + dag(k)) / 2
    k /= np.linalg.norm(k, 2)
    w, v = np.linalg.eigh(k)
    return (v * np.exp(1j * w)) @ dag(v)


def _unitary_margins(u: np.ndarray, e: np.ndarray, f: np.ndarray):
    """Hypothesis margins: Re U spectrum and per-eigenvector overlaps."""
    re_spectrum = np.linalg.eigvalsh((u + dag(u)) / 2)
    _, vectors = np.linalg.eig(u)
    overlap_gap = np.inf
    component = np.inf
    for j in range(u.shape[0]):
        col = vectors[:, j] / np.linalg.norm(vectors[:, j])
        p_e = abs(np.vdot(e, col))
        p_f = abs(np.vdot(f, col))
        overlap_gap = min(overlap_gap, abs(p_e**2 - p_f**2))
        component = min(component, p_e)
    return float(re_spectrum[0]), float(overlap_gap), float(component)


def _build_ex3_4() -> CorpusEntry:
    e, projector, _ = _ex3_3_data()
    f = np.ones(3, dtype=complex) / np.sqrt(3)
    u = None
    for attempt in range(SEED_RETRIES):
        candidate = _seeded_unitary(attempt)
        re_min, overlap_gap, component = _unitary_margins(candidate, e, f)
        if min(re_min, overlap_gap, component) >= HYPOTHESIS_MARGIN:
            u = candidate
            break
    if u is None:
        raise HypothesisFailed(
            f"no seeded unitary met the overlap margins in {SEED_RETRIES} attempts"
        )
    basis = np.eye(3, dtype=complex)
    ops = [
        projector,
        np.outer(f, basis[:, 1].conj()),
        np.outer(f, basis[:, 2].conj()),
        dag(u),
    ]
    t = KrausMap(ops)
    return CorpusEntry(
        id="ex3_4",
        payload=t,
        expected={
            "unit_image_factor": 2.0,
            "cyclic_vector": e,
            "uniform_vector": f,
            "conjugating_unitary": u,
            "hypothesis_margin": HYPOTHESIS_MARGIN,
        },
    )


_BUILDERS = {
    "ex2_1": _build_ex2_1,
    "ex2_2": _build_ex2_2,
    "ex2_8": _build_ex2_8,
    "ex3_2": _build_ex3_2,
    "ex3_3": _build_ex3_3,
    "ex3_4": _build_ex3_4,
}


def build_example(example_id: str) -> CorpusEntry:
    """Construct a pinned instance, re-verifying its hypotheses."""
    if example_id not in _BUILDERS:
        raise ParseError(
            f"unknown corpus id {example_id!r}, expected one of {', '.join(CORPUS_IDS)}"
        )
    return _BUILDERS[example_id]()


def embed_corner(t: KrausMap, new_dim: int) -> KrausMap:
    """Zero-pad the Kraus family into the top-left corner of a larger algebra.

    The embedded map acts as X ↦ T(PXP) on the corner, so unit images and
    their products reproduce the corner values padded with zeros.
    """
    if new_dim <= t.dim:
        raise DimensionMismatch(f"new dim {new_dim} must exceed {t.dim}")
    ops = []
    for op in t.operators:
        padded = np.zeros((new_dim, new_dim), dtype=complex)
        padded[: t.dim, : t.dim] = op
        ops.append(padded)
    return KrausMap(ops)


def _check(name, ok, detail, asserted=True, note=None):
    entry = {"name": name, "ok": bool(ok), "asserted": bool(asserted)}
    entry.update(detail)
    if note:
        entry["note"] = note
    return entry


def _markov(gen: GkslGenerator) -> dict:
    residual = frobenius(apply_generator(gen, np.eye(gen.dim, dtype=complex)))
    return _check("markov", residual <= 1e-10, {"residual": residual})


def _diagonal_invariant(evolution, tol: Tolerance) -> dict:
    residual = is_invariant(evolution, Masa.diagonal(evolution.dim), tol).residual
    return _check("diagonal_invariant", residual <= 1e-10, {"residual": residual})


def _no_invariant_masa_found(evolution, tol: Tolerance) -> dict:
    _, residual = search_masa(evolution, restarts=200, seed=42, tol=tol)
    return _check("no_invariant_masa_found", residual >= 1e-3, {"residual": residual})


def _verify_ex2_1(entry: CorpusEntry, tol: Tolerance) -> list:
    t = entry.payload
    checks = []
    eye = np.eye(2, dtype=complex)
    unit_image = apply_cp(t, eye)
    unit_twice = apply_cp(t, unit_image)
    first = frobenius(unit_image - entry.expected["unit_image"])
    second = frobenius(unit_twice - entry.expected["unit_image_twice"])
    checks.append(_check("unit_image", first <= 1e-12, {"residual": first}))
    checks.append(_check("unit_image_twice", second <= 1e-12, {"residual": second}))
    comm = unit_image @ unit_twice - unit_twice @ unit_image
    comm_err = frobenius(comm - entry.expected["unit_commutator"])
    norm_err = abs(frobenius(comm) - entry.expected["unit_commutator_norm"])
    checks.append(
        _check(
            "unit_commutator",
            comm_err <= 1e-10 and norm_err <= 1e-10,
            {"residual": max(comm_err, norm_err), "norm": frobenius(comm)},
        )
    )
    checks.append(_no_invariant_masa_found(t, tol))
    diag = Masa.diagonal(2)
    superop = map_superoperator(t)
    worst = np.inf
    for time in (0.1, 1.0, 3.7):
        verdict = is_invariant(matrix_exp(time * superop, tol), diag, tol)
        worst = min(worst, verdict.residual)
    checks.append(
        _check("semigroup_stays_noninvariant", worst >= 1e-4, {"residual": worst})
    )
    return checks


def _verify_ex2_2(entry: CorpusEntry, tol: Tolerance) -> list:
    t = entry.payload
    checks = []
    unital = is_unital(t, tol)
    checks.append(
        _check("unital", unital.residual <= 1e-12, {"residual": unital.residual})
    )
    checks.append(_diagonal_invariant(t, tol))
    verdict = rebolledo_check(t, Masa.diagonal(2), tol)
    checks.append(
        _check(
            "given_family_fails_per_operator",
            not any(v.ok for v in verdict.per_operator),
            {"residuals": [v.residual for v in verdict.per_operator]},
        )
    )
    checks.append(
        _check(
            "no_nonzero_compatible_element",
            len(verdict.compatible_elements) == entry.expected["compatible_element_count"]
            and verdict.patterns_examined == 9,
            {"patterns_examined": verdict.patterns_examined},
        )
    )
    return checks


def _verify_ex2_8(entry: CorpusEntry, tol: Tolerance) -> list:
    gen = entry.payload
    checks = [_markov(gen), _diagonal_invariant(gen, tol)]
    diag = Masa.diagonal(2)
    cp_split = cp_part_diagonalizable(gen, diag, tol)
    checks.append(
        _check(
            "cp_part_not_diagonalizable",
            (not cp_split.feasible)
            and cp_split.residual >= entry.expected["cp_part_min_residual"],
            {"residual": cp_split.residual},
        )
    )
    h_split = hamiltonian_part_diagonalizable(gen, diag, tol)
    checks.append(
        _check(
            "hamiltonian_part_diagonalizable",
            h_split.feasible,
            {"residual": h_split.residual},
            asserted=False,
            note=(
                "reported, not asserted: real symmetric jumps cannot reach the "
                "real part of the drift's off-diagonal asymmetry, so no "
                "coefficients re-gauge the Hamiltonian into the masa and the "
                "defect stays at 4*sqrt(2)"
            ),
        )
    )
    return checks


def _verify_ex3_2(entry: CorpusEntry, tol: Tolerance) -> list:
    gen = entry.payload
    checks = [_markov(gen), _diagonal_invariant(gen, tol)]
    diag = Masa.diagonal(3)
    restriction = classical_restriction(gen, diag, tol)
    restriction_err = float(np.abs(restriction - entry.expected["restriction"]).max())
    row_sums = float(np.abs(restriction.sum(axis=1)).max())
    off_minimum = float(
        min(restriction[r, s] for r in range(3) for s in range(3) if r != s)
    )
    checks.append(
        _check(
            "classical_restriction",
            restriction_err <= 1e-10 and row_sums <= 1e-9 and off_minimum >= -1e-9,
            {
                "residual": restriction_err,
                "row_sum_defect": row_sums,
                "off_diagonal_min": off_minimum,
            },
        )
    )
    h_split = hamiltonian_part_diagonalizable(gen, diag, tol)
    cert = h_split.infeasibility_certificate
    detail = {"residual": h_split.residual}
    ok = not h_split.feasible and cert is not None
    if cert is not None:
        forced_err = float(
            np.abs(cert.forced_coefficients - entry.expected["forced_coefficients"]).max()
        )
        violations = cert.violations(cutoff=1e-6)
        magnitudes = sorted(abs(v) for _, v in violations)
        magnitude_err = (
            abs(magnitudes[-1] - entry.expected["inconsistency_magnitude"])
            if magnitudes
            else np.inf
        )
        detail.update(
            {
                "forced_coefficients": [complex(c) for c in cert.forced_coefficients],
                "violations": violations,
            }
        )
        ok = ok and forced_err <= 1e-9 and magnitude_err <= 1e-9 and len(violations) == 2
    checks.append(_check("hamiltonian_part_infeasible", ok, detail))
    return checks


def _verify_ex3_3(entry: CorpusEntry, tol: Tolerance) -> list:
    gen = entry.payload
    e = entry.expected["cyclic_vector"]
    checks = [_markov(gen)]
    _, projector, hamiltonian = _ex3_3_data()
    dimension, _ = commutant_intersection([hamiltonian, projector], tol)
    trivial = dimension == entry.expected["commutant_dimension"]
    checks.append(_check("joint_commutant_trivial", trivial, {"dimension": dimension}))
    checks.append(_no_invariant_masa_found(gen, tol))
    loose = Tolerance(atol=1e-6, rtol=1e-6)
    candidates = search_invariant_projections(gen, seed=42, tol=loose)
    ok = True
    worst = None
    for q, q_residual in candidates:
        if q_residual > 1e-8:
            continue
        trivial = frobenius(q) <= 1e-9 or frobenius(q - np.eye(3)) <= 1e-9
        if trivial:
            continue
        overlap = float(np.linalg.norm(q @ e))
        if overlap < 1e-6:
            ok = False
            worst = overlap
    checks.append(
        _check(
            "low_residual_projections_meet_cyclic_vector",
            ok,
            {"candidates": len(candidates), "violating_overlap": worst},
        )
    )
    return checks


def _verify_ex3_4(entry: CorpusEntry, tol: Tolerance) -> list:
    t = entry.payload
    checks = []
    eye = np.eye(3, dtype=complex)
    unit_image = apply_cp(t, eye)
    unit_err = frobenius(unit_image - entry.expected["unit_image_factor"] * eye)
    checks.append(_check("unit_image_is_twice_unit", unit_err <= 1e-10, {"residual": unit_err}))
    e = entry.expected["cyclic_vector"]
    f = entry.expected["uniform_vector"]
    u = entry.expected["conjugating_unitary"]
    re_min, overlap_gap, component = _unitary_margins(u, e, f)
    margin = min(re_min, overlap_gap, component)
    checks.append(
        _check(
            "unitary_hypotheses",
            margin >= entry.expected["hypothesis_margin"],
            {
                "real_part_minimum": re_min,
                "overlap_gap": overlap_gap,
                "component_minimum": component,
            },
        )
    )
    halved = KrausMap([op / np.sqrt(2) for op in t.operators])
    unital = is_unital(halved, tol)
    checks.append(
        _check("halved_map_unital", unital.residual <= 1e-10, {"residual": unital.residual})
    )
    checks.append(_no_invariant_masa_found(halved, tol))
    return checks


_VERIFIERS = {
    "ex2_1": _verify_ex2_1,
    "ex2_2": _verify_ex2_2,
    "ex2_8": _verify_ex2_8,
    "ex3_2": _verify_ex3_2,
    "ex3_3": _verify_ex3_3,
    "ex3_4": _verify_ex3_4,
}


def verify_example(example_id: str, tol: Tolerance = DEFAULT_TOL) -> dict:
    """Re-derive and check every recorded claim of a corpus entry.

    Returns the report with one record per sub-check. Raises
    AssertionFailure if any asserted sub-check fails; sub-checks marked
    unasserted record known deviations and never raise.
    """
    entry = build_example(example_id)
    checks = _VERIFIERS[example_id](entry, tol)
    failures = [c for c in checks if c["asserted"] and not c["ok"]]
    report = {
        "id": example_id,
        "ok": not failures,
        "checks": checks,
    }
    if failures:
        names = ", ".join(c["name"] for c in failures)
        error = AssertionFailure(f"{example_id}: failing sub-checks: {names}")
        error.report = report
        raise error
    return report
