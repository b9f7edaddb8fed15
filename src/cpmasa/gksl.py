"""Generators of uniformly continuous CP-semigroups in Lindblad form.

A generator is stored as a Kraus family plus a drift matrix,
L(X) = Σ L_i* X L_i + X·beta + beta*·X, whose pair form adds (1, beta) and
(beta*, 1) to the map's, so linalg's one kernel applies it as it does a map.
The module covers construction and Markov normalization, semigroup
evaluation, deciding whether two such presentations describe the same
generator (with an explicit transformation witness), and the two splitting
questions: can the drift be re-gauged so the jump part alone, or the
Hamiltonian part alone, preserves a given masa.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .cpmaps import Inequivalent, KrausMap, _mixing, _superoperator_distance, is_unital
from .errors import (
    DimensionMismatch,
    NotInvariant,
    NotMinimal,
    NotSelfAdjoint,
    NotUnital,
    NumericalFailure,
    PreconditionFailed,
)
from .linalg import (
    DEFAULT_TOL,
    Tolerance,
    _hermiticity_preserving_exp,
    _PairForm,
    complex_from_realified,
    dag,
    frobenius,
    least_squares,
    matrix_rank_tol,
    realify_conjugate_linear_system,
    require_matrix,
    vec,
)
from .masa import is_invariant

__all__ = [
    "GkslGenerator",
    "TransformWitness",
    "SplitVerdict",
    "InfeasibilityCertificate",
    "apply_generator",
    "superoperator",
    "markov_form",
    "semigroup_at",
    "generator_from_map",
    "gksl_equivalent",
    "cp_part_diagonalizable",
    "hamiltonian_part_diagonalizable",
]


def _family_minimal_with_identity(kraus: KrausMap, tol: Tolerance) -> bool:
    """Whether {1, L_1, ..., L_n} is linearly independent at the rank threshold."""
    d = kraus.dim
    stack = np.column_stack([vec(np.eye(d, dtype=complex))] + [vec(op) for op in kraus.operators])
    return matrix_rank_tol(stack, tol) == len(kraus) + 1


@dataclass(frozen=True)
class GkslGenerator:
    """Lindblad-form generator: Kraus family plus drift.

    `is_minimal` records whether {1, L_1, ..., L_n} is linearly independent
    (at the default tolerance); that is exactly the condition under which the
    transformation witness between two presentations is unique.
    """

    dim: int
    kraus: KrausMap
    beta: np.ndarray
    is_minimal: bool = field(default=False)

    def __init__(self, kraus: KrausMap, beta, tol: Tolerance = DEFAULT_TOL):
        if not isinstance(kraus, KrausMap):
            kraus = KrausMap(kraus)
        b = require_matrix(beta, dim=kraus.dim, name="beta")
        object.__setattr__(self, "dim", kraus.dim)
        object.__setattr__(self, "kraus", kraus)
        object.__setattr__(self, "beta", b)
        object.__setattr__(self, "is_minimal", _family_minimal_with_identity(kraus, tol))

    @property
    def hamiltonian(self) -> np.ndarray:
        """Imaginary part of the drift, the effective Hamiltonian."""
        return (self.beta - dag(self.beta)) / 2j

    def apply(self, x) -> np.ndarray:
        """L(X), evaluated by `apply_generator`."""
        return apply_generator(self, x)

    def superoperator(self) -> np.ndarray:
        """The d²×d² matrix of L, built by the module-level `superoperator`."""
        return superoperator(self)

    def _in_coordinates(self, masa) -> tuple[np.ndarray, np.ndarray]:
        """The stacked jump operators U* L_i U and the drift U* β U."""
        return masa.to_coordinates(np.stack(self.kraus.operators)), masa.to_coordinates(self.beta)

    def _pairs(self) -> _PairForm:
        """The pair form of L: the jump part's pairs (L_i*, L_i), then (1, β) and (β*, 1)."""
        ops = self.kraus.operators
        eye = np.eye(self.dim, dtype=complex)
        # dag of a stack is a strided view; the copy keeps both stacks C-ordered
        left = np.ascontiguousarray(dag(np.array((*ops, eye, self.beta))))
        return _PairForm(left, np.array((*ops, self.beta, eye)))

    def projection_images(self, masa) -> np.ndarray:
        """Images L(u_k u_k*) of the masa's minimal projections, in masa coordinates.

        Computed from the pair form in O(n·d³), without the superoperator.
        """
        return self._pairs().images(masa.basis_unitary)


def apply_generator(gen: GkslGenerator, x) -> np.ndarray:
    """Evaluate L(X) = Σ L_i* X L_i + X·beta + beta*·X."""
    return gen._pairs().apply(require_matrix(x, dim=gen.dim, name="x"))


def superoperator(gen: GkslGenerator) -> np.ndarray:
    """The d²×d² matrix of the generator under column-stacking vec."""
    return gen._pairs().superoperator()


def markov_form(kraus: KrausMap, hamiltonian, tol: Tolerance = DEFAULT_TOL) -> GkslGenerator:
    """Generator with drift normalized so that L(1) = 0.

    The drift is beta = -(Σ L_i* L_i)/2 + i·h for the given self-adjoint h,
    which makes the action Σ L_i* X L_i - (X·S + S·X)/2 + i[X, h] and leaves
    h recoverable as the imaginary part of the drift.
    """
    if not isinstance(kraus, KrausMap):
        kraus = KrausMap(kraus)
    h = require_matrix(hamiltonian, dim=kraus.dim, name="hamiltonian")
    defect = frobenius(h - dag(h))
    if defect > tol.threshold(frobenius(h)):
        raise NotSelfAdjoint(f"hamiltonian symmetry defect {defect:.3e} exceeds tolerance")
    h = (h + dag(h)) / 2
    total = sum(dag(op) @ op for op in kraus.operators)
    return GkslGenerator(kraus, -total / 2 + 1j * h, tol)


def semigroup_at(gen: GkslGenerator, t: float, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Superoperator of e^{tL} at time t ≥ 0.

    Every Lindblad generator preserves Hermiticity, L(X*) = L(X)*, so tL is
    exponentiated in its real form over a Hermitian basis. Raises
    NumericalFailure when e^{tL} is not finite.
    """
    if not np.isfinite(t) or t < 0:
        raise PreconditionFailed(f"time must be finite and nonnegative, got {t}")
    with np.errstate(over="ignore", invalid="ignore"):
        scaled = float(t) * superoperator(gen)
    return _hermiticity_preserving_exp(scaled, gen.dim)


def generator_from_map(t: KrausMap, tol: Tolerance = DEFAULT_TOL) -> GkslGenerator:
    """The Markov generator T - id of a unital CP map T."""
    verdict = is_unital(t, tol)
    if not verdict.ok:
        raise NotUnital(f"map is not unital, residual {verdict.residual:.3e}")
    # kraus part reproduces T; drift -1/2 contributes X·beta + beta*·X = -X
    return GkslGenerator(t, -np.eye(t.dim, dtype=complex) / 2, tol)


@dataclass(frozen=True)
class TransformWitness:
    """Transformation connecting two Lindblad presentations of one generator.

    The defining equations are
    ``alpha = beta + gamma·1 + Σ_i conj(eta_i) L_i`` and
    ``K_j = eta_prime_j·1 + Σ_i m_matrix[j,i] L_i`` with
    ``eta = -m_matrix* eta_prime``. `checks` carries the residuals of these
    equations plus the structural identities (isometry or partial-isometry
    defect, the range condition on eta_prime, and the real-part constraint
    Re gamma = -⟨eta', eta'⟩/2), so every verdict is auditable.
    """

    gamma: complex
    eta_prime: np.ndarray
    m_matrix: np.ndarray
    h_scalar: float
    checks: dict

    @property
    def eta(self) -> np.ndarray:
        return -dag(self.m_matrix) @ self.eta_prime


def _transform_witness(gen, other, m, eta_prime, distance, tol: Tolerance) -> TransformWitness:
    """Witness for the mixing m and shift eta_prime, gamma read off the drift equation.

    `distance` is the superoperator distance of the two presentations.
    Raises NumericalFailure when the drift equation leaves more than a scalar.
    """
    d = gen.dim
    eta = -dag(m) @ eta_prime
    residual_matrix = other.beta - gen.beta
    for i, op in enumerate(gen.kraus.operators):
        residual_matrix = residual_matrix - np.conj(eta[i]) * op
    gamma = complex(np.trace(residual_matrix) / d)
    drift_residual = frobenius(residual_matrix - gamma * np.eye(d))
    drift_scale = max(1.0, frobenius(gen.beta), frobenius(other.beta))
    if drift_residual > 10 * tol.threshold(drift_scale):
        raise NumericalFailure(f"drift equation failed, residual {drift_residual:.3e}")
    mtm = dag(m) @ m
    mmt_eta = m @ (dag(m) @ eta_prime)
    checks = {
        "superoperator_distance": distance,
        "drift_equation_residual": drift_residual,
        "isometry_defect": frobenius(mtm - np.eye(mtm.shape[0])),
        "partial_isometry_defect": frobenius(m @ dag(m) @ m - m),
        "eta_prime_range_defect": float(np.linalg.norm(mmt_eta - eta_prime)),
        "real_part_defect": abs(gamma.real + float(np.vdot(eta_prime, eta_prime).real) / 2),
        "scale": max(1.0, max(frobenius(op) for op in other.kraus.operators)),
    }
    return TransformWitness(
        gamma=gamma, eta_prime=eta_prime, m_matrix=m, h_scalar=float(gamma.imag), checks=checks
    )


def _traceless_part(gen: GkslGenerator) -> tuple[np.ndarray, KrausMap]:
    """The trace vector t_i = tr(L_i)/d and the traceless jumps L_i − t_i·1."""
    ops = np.stack(gen.kraus.operators)
    traces = np.trace(ops, axis1=1, axis2=2) / gen.dim
    return traces, KrausMap(ops - traces[:, None, None] * np.eye(gen.dim))


def gksl_equivalent(
    gen: GkslGenerator,
    other: GkslGenerator,
    tol: Tolerance = DEFAULT_TOL,
    strict: bool = False,
):
    """Decide whether two Lindblad presentations define the same generator.

    The superoperator Frobenius distance is the equality oracle; when it
    exceeds the tolerance the result is Inequivalent with that distance.
    Otherwise a TransformWitness is produced. Equal generators have
    traceless jump parts that induce the same CP map (the
    Gorini–Kossakowski–Sudarshan normal form), so the mixing matrix m is
    the partial isometry connecting those two families, and with trace
    vectors t (reference) and s (other) the shift is eta' = s − m t. With
    ``strict=True`` the reference presentation must have {1, L_i} linearly
    independent, which makes the witness unique; NotMinimal is raised
    otherwise.
    """
    distance, equal = _superoperator_distance(gen, other, tol)
    if not equal:
        return Inequivalent(distance)
    if strict and not _family_minimal_with_identity(gen.kraus, tol):
        raise NotMinimal("reference family has {1, L_i} linearly dependent")
    traces_l, traceless_l = _traceless_part(gen)
    traces_k, traceless_k = _traceless_part(other)
    m = _mixing(traceless_l, traceless_k, tol)
    return _transform_witness(gen, other, m, traces_k - m @ traces_l, distance, tol)


@dataclass(frozen=True)
class InfeasibilityCertificate:
    """Explanation of an infeasible linear split.

    The realified system rows are ranked by sparsity and greedily assembled
    into a maximal consistent subsystem; `forced_coefficients` is the
    minimum-norm solution of that subsystem and `residual_vector` its defect
    on every row (consistent rows sit at ~0, the violated rows carry the
    contradiction). `row_labels[k]` names the matrix position and component
    of row k as "(r,s).re" or "(r,s).im".
    """

    row_labels: tuple
    accepted: tuple
    forced_coefficients: np.ndarray
    residual_vector: np.ndarray

    def violations(self, cutoff: float = 1e-8) -> list:
        return [
            (label, float(value))
            for label, value in zip(self.row_labels, self.residual_vector)
            if abs(value) > cutoff
        ]


@dataclass(frozen=True)
class SplitVerdict:
    """Outcome of a drift-splitting feasibility question."""

    feasible: bool
    eta: np.ndarray | None
    residual: float
    threshold: float
    infeasibility_certificate: InfeasibilityCertificate | None = None
    gamma: complex | None = None
    regauged: GkslGenerator | None = None

    def __bool__(self) -> bool:
        return self.feasible


def cp_part_diagonalizable(
    gen: GkslGenerator, masa, tol: Tolerance = DEFAULT_TOL
) -> SplitVerdict:
    """Can the drift be re-gauged so that it lies in the masa?

    In masa coordinates this asks for coefficients eta with
    offdiag(B + Σ_i conj(eta_i) L_i) = 0, a complex-linear least-squares
    problem. When feasible the verdict carries the re-gauged presentation
    (jump operators L_i - eta_i·1, drift B + gamma·1 + Σ conj(eta_i) L_i with
    gamma = -⟨eta, eta⟩/2), whose jump part alone then preserves the masa.
    The generator must preserve the masa to begin with, as `is_invariant`
    decides; NotInvariant is raised otherwise.
    """
    verdict = is_invariant(gen, masa, tol)
    if not verdict:
        raise NotInvariant(f"generator does not preserve the masa, residual {verdict.residual:.3e}")
    d = gen.dim
    ops, b = gen._in_coordinates(masa)
    r, s = np.nonzero(~np.eye(d, dtype=bool))
    a = ops[:, r, s].T
    b_vec = -b[r, s]
    # unknowns are conj(eta); the system is complex-linear in them
    z, residual = least_squares(a, b_vec)
    threshold = tol.threshold(max(1.0, float(np.linalg.norm(b_vec))))
    if residual > threshold:
        return SplitVerdict(
            feasible=False, eta=None, residual=residual, threshold=threshold
        )
    eta = np.conj(z)
    gamma = complex(-np.vdot(eta, eta) / 2)
    new_ops = [op - eta[i] * np.eye(d) for i, op in enumerate(gen.kraus.operators)]
    new_beta = gen.beta + gamma * np.eye(d)
    for i, op in enumerate(gen.kraus.operators):
        new_beta = new_beta + np.conj(eta[i]) * op
    return SplitVerdict(
        feasible=True,
        eta=eta,
        residual=residual,
        threshold=threshold,
        gamma=gamma,
        regauged=GkslGenerator(KrausMap(new_ops), new_beta, tol),
    )


def _certificate(a_real, b_real, labels, tol: Tolerance) -> InfeasibilityCertificate:
    """Sparsity-greedy maximal consistent subsystem with its forced solution."""
    scale = max(1.0, float(np.abs(a_real).max(initial=0.0)))
    nonzeros = (np.abs(a_real) > 1e-12 * scale).sum(axis=1)
    order = np.lexsort((np.arange(len(a_real)), nonzeros))
    accepted_rows: list[int] = []
    x = np.zeros(a_real.shape[1])
    for idx in order:
        trial = accepted_rows + [int(idx)]
        solution, res = least_squares(a_real[trial], b_real[trial])
        if res <= tol.threshold(max(1.0, float(np.linalg.norm(b_real[trial])))):
            accepted_rows, x = trial, solution
    accepted_mask = np.zeros(len(a_real), dtype=bool)
    accepted_mask[accepted_rows] = True
    return InfeasibilityCertificate(
        row_labels=tuple(labels),
        accepted=tuple(bool(v) for v in accepted_mask),
        forced_coefficients=complex_from_realified(x),
        residual_vector=a_real @ x - b_real,
    )


def hamiltonian_part_diagonalizable(
    gen: GkslGenerator, masa, tol: Tolerance = DEFAULT_TOL
) -> SplitVerdict:
    """Can the effective Hamiltonian be re-gauged into the masa?

    In masa coordinates this asks for complex coefficients c with
    offdiag(M - M*) = 0 where M = Σ_i c_i L_i + 2B; the system is
    conjugate-linear in c and is solved after realification. Meaningful
    whether or not the generator itself preserves the masa. On infeasibility
    the verdict carries a certificate exhibiting the forced coefficient
    values and the violated equations.
    """
    if gen.dim != masa.dim:
        raise DimensionMismatch(f"generator dim {gen.dim} vs masa dim {masa.dim}")
    d = gen.dim
    ops, b = gen._in_coordinates(masa)
    r, s = np.nonzero(~np.eye(d, dtype=bool))
    # (M - M*)_{rs} = Σ_i c_i L_i[r,s] - conj(c_i) conj(L_i[s,r]) + 2B_rs - 2 conj(B_sr)
    a_real, b_real = realify_conjugate_linear_system(
        ops[:, r, s].T, -ops[:, s, r].conj().T, -(2 * b[r, s] - 2 * np.conj(b[s, r]))
    )
    labels = [f"({i},{j}).{part}" for i, j in zip(r, s) for part in ("re", "im")]
    x, residual = least_squares(a_real, b_real)
    threshold = tol.threshold(max(1.0, float(np.linalg.norm(b_real))))
    if residual <= threshold:
        return SplitVerdict(
            feasible=True,
            eta=complex_from_realified(x),
            residual=residual,
            threshold=threshold,
        )
    return SplitVerdict(
        feasible=False,
        eta=None,
        residual=residual,
        threshold=threshold,
        infeasibility_certificate=_certificate(a_real, b_real, labels, tol),
    )
