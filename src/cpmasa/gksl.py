"""Generators of uniformly continuous CP-semigroups in Lindblad form.

A generator is stored as a Kraus family plus a drift matrix,
L(X) = Σ L_i* X L_i + X·beta + beta*·X. The module covers construction and
Markov normalization, semigroup evaluation, deciding whether two such
presentations describe the same generator (with an explicit transformation
witness), and the two splitting questions: can the drift be re-gauged so the
jump part alone, or the Hamiltonian part alone, preserves a given masa.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .cpmaps import Inequivalent, KrausMap, apply_cp, is_unital, minimal_kraus
from .cpmaps import superoperator as map_superoperator
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
    _kraus_images,
    complex_from_realified,
    dag,
    expand_over,
    frobenius,
    least_squares,
    matrix_exp,
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

    def projection_images(self, masa) -> np.ndarray:
        """Images L(u_k u_k*) of the masa's minimal projections, in masa coordinates.

        The jump part's images, plus row k of β' = U* β U added to row k of
        image k and its conjugate to column k.
        """
        return _kraus_images(*self._in_coordinates(masa))


def apply_generator(gen: GkslGenerator, x) -> np.ndarray:
    """Evaluate L(X) = Σ L_i* X L_i + X·beta + beta*·X."""
    xm = require_matrix(x, dim=gen.dim, name="x")
    return apply_cp(gen.kraus, xm) + xm @ gen.beta + dag(gen.beta) @ xm


def superoperator(gen: GkslGenerator) -> np.ndarray:
    """The d²×d² matrix of the generator under column-stacking vec."""
    d = gen.dim
    eye = np.eye(d)
    return (
        map_superoperator(gen.kraus)
        + np.kron(gen.beta.T, eye)
        + np.kron(eye, dag(gen.beta))
    )


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
    """Superoperator of e^{tL} at time t ≥ 0."""
    if not np.isfinite(t) or t < 0:
        raise PreconditionFailed(f"time must be finite and nonnegative, got {t}")
    return matrix_exp(float(t) * superoperator(gen), tol)


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


def _transform_witness(gen, other, m, eta_prime, tol: Tolerance) -> TransformWitness:
    """Witness for the mixing m and shift eta_prime, gamma read off the drift equation.

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
        "superoperator_distance": frobenius(superoperator(gen) - superoperator(other)),
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


def _direct_witness(gen: GkslGenerator, other: GkslGenerator, tol: Tolerance) -> TransformWitness:
    """Unique expansion of the other family over {1, L_i} for independent {1, L_i}."""
    basis = (np.eye(gen.dim, dtype=complex),) + gen.kraus.operators
    coef = expand_over(basis, other.kraus.operators, tol)
    return _transform_witness(gen, other, coef[:, 1:], coef[:, 0], tol)


def _traceless_reduction(gen: GkslGenerator, tol: Tolerance):
    """Trace vector, traceless family, and its minimal form with coordinates."""
    d = gen.dim
    traces = np.array([np.trace(op) / d for op in gen.kraus.operators])
    traceless = [op - traces[i] * np.eye(d) for i, op in enumerate(gen.kraus.operators)]
    minimal = minimal_kraus(KrausMap(traceless), tol)
    coords = expand_over(minimal.operators, traceless, tol)
    return traces, minimal, coords


def gksl_equivalent(
    gen: GkslGenerator,
    other: GkslGenerator,
    tol: Tolerance = DEFAULT_TOL,
    strict: bool = False,
):
    """Decide whether two Lindblad presentations define the same generator.

    The superoperator Frobenius distance is the equality oracle; when it
    exceeds the tolerance the result is Inequivalent with that distance.
    Otherwise a TransformWitness is produced. With ``strict=True`` the
    reference presentation must have {1, L_i} linearly independent
    (NotMinimal otherwise) and the witness comes from the unique expansion
    over that family. The default path accepts arbitrary presentations by
    factoring both through the minimal form of their traceless jump parts;
    the composed mixing matrix is then a partial isometry.
    """
    if gen.dim != other.dim:
        raise DimensionMismatch(f"dimension mismatch {gen.dim} vs {other.dim}")
    s_gen = superoperator(gen)
    s_other = superoperator(other)
    distance = frobenius(s_gen - s_other)
    if distance > tol.threshold(max(frobenius(s_gen), frobenius(s_other))):
        return Inequivalent(distance)
    independent = _family_minimal_with_identity(gen.kraus, tol)
    if strict and not independent:
        raise NotMinimal("reference family has {1, L_i} linearly dependent")
    if independent:
        return _direct_witness(gen, other, tol)

    # factor both presentations through the minimal form of the traceless
    # jump part, which is canonical up to a unitary mixing
    d = gen.dim
    traces_l, minimal_l, p = _traceless_reduction(gen, tol)
    traces_k, minimal_k, q = _traceless_reduction(other, tol)
    if len(minimal_l) != len(minimal_k):
        raise NumericalFailure(
            "equal generators produced canonical jump parts of different sizes"
        )
    w = expand_over(minimal_l.operators, minimal_k.operators, tol)
    m = q @ w @ dag(p)
    eta_prime = traces_k - m @ traces_l
    return _transform_witness(gen, other, m, eta_prime, tol)


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
    The generator must preserve the masa to begin with.
    """
    inv_residual = is_invariant(gen, masa, tol).residual
    if inv_residual > tol.threshold(max(1.0, frobenius(superoperator(gen)))):
        raise NotInvariant(f"generator does not preserve the masa, residual {inv_residual:.3e}")
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
    for idx in order:
        trial = accepted_rows + [int(idx)]
        x, res = least_squares(a_real[trial], b_real[trial])
        if res <= tol.threshold(max(1.0, float(np.linalg.norm(b_real[trial])))):
            accepted_rows = trial
    if accepted_rows:
        x, _ = least_squares(a_real[accepted_rows], b_real[accepted_rows])
    else:
        x = np.zeros(a_real.shape[1])
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
