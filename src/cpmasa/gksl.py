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

from dataclasses import dataclass

import numpy as np

from .cpmaps import Inequivalent, KrausMap, _mixing, _superoperator_distance, is_unital
from .errors import NotMinimal, NotUnital, NumericalFailure, PreconditionFailed
from .linalg import (
    DEFAULT_TOL,
    Tolerance,
    Verdict,
    _decide,
    _Evolution,
    _finite,
    _hermiticity_preserving_exp,
    _of_kind,
    _PairForm,
    _require_hermitian,
    complex_from_realified,
    dag,
    frobenius,
    least_squares,
    matrix_rank_tol,
    realify_conjugate_linear_system,
    require_matrix,
)
from .masa import _drift_system, _on_masa, _require_invariant

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
    family = np.concatenate([np.eye(d, dtype=complex)[None], kraus.operators])
    return matrix_rank_tol(family.reshape(len(family), d * d), tol) == len(family)


@dataclass(frozen=True, eq=False)
class GkslGenerator(_Evolution):
    """Lindblad-form generator: Kraus family plus drift.

    A `linalg._Evolution` through its pair form. `is_minimal` tells whether
    {1, L_1, ..., L_n} is linearly independent at the default tolerance; that
    is exactly the condition under which the transformation witness between
    two presentations is unique. ``==`` is identity; whether two presentations
    are one generator is `gksl_equivalent`'s call.
    """

    kind = "generator"
    dim: int
    kraus: KrausMap
    beta: np.ndarray

    def __init__(self, kraus: KrausMap, beta):
        kraus = kraus if isinstance(kraus, KrausMap) else KrausMap(kraus)
        b = require_matrix(beta, dim=kraus.dim, name="beta")
        object.__setattr__(self, "dim", kraus.dim)
        object.__setattr__(self, "kraus", kraus)
        object.__setattr__(self, "beta", b)

    @property
    def is_minimal(self) -> bool:
        """Whether {1, L_1, ..., L_n} is linearly independent at the default tolerance."""
        return _family_minimal_with_identity(self.kraus, DEFAULT_TOL)

    @property
    def hamiltonian(self) -> np.ndarray:
        """Imaginary part of the drift, the effective Hamiltonian."""
        return (self.beta - dag(self.beta)) / 2j

    def _in_coordinates(self, masa) -> tuple[np.ndarray, np.ndarray]:
        """The stacked jump operators U* L_i U and the drift U* β U."""
        return masa.to_coordinates(self.kraus.operators), masa.to_coordinates(self.beta)

    def _pairs(self) -> _PairForm:
        """The pair form of L: the jump part's pairs (L_i*, L_i), then (1, β) and (β*, 1)."""
        ops, eye = self.kraus.operators, np.eye(self.dim, dtype=complex)[None]
        # dag of a stack is a strided view; the copy keeps both stacks C-ordered
        left = np.ascontiguousarray(dag(np.concatenate((ops, eye, self.beta[None]))))
        return _PairForm(left, np.concatenate((ops, self.beta[None], eye)))


def apply_generator(gen: GkslGenerator, x) -> np.ndarray:
    """Evaluate L(X) = Σ L_i* X L_i + X·beta + beta*·X."""
    return gen.apply(x)


def superoperator(gen: GkslGenerator) -> np.ndarray:
    """The d²×d² matrix of the generator under column-stacking vec."""
    return gen.superoperator()


def markov_form(kraus: KrausMap, hamiltonian, tol: Tolerance = DEFAULT_TOL) -> GkslGenerator:
    """Generator with drift normalized so that L(1) = 0.

    The drift is beta = -(Σ L_i* L_i)/2 + i·h for the given self-adjoint h,
    which makes the action Σ L_i* X L_i - (X·S + S·X)/2 + i[X, h] and leaves
    h recoverable as the imaginary part of the drift. Raises NumericalFailure
    when Σ L_i* L_i is not finite.
    """
    kraus = kraus if isinstance(kraus, KrausMap) else KrausMap(kraus)
    h = require_matrix(hamiltonian, dim=kraus.dim, name="hamiltonian")
    _require_hermitian(h, tol, "hamiltonian")
    h = (h + dag(h)) / 2
    with np.errstate(over="ignore", invalid="ignore"):
        total = _finite((dag(kraus.operators) @ kraus.operators).sum(axis=0), "Σ L_i* L_i")
    return GkslGenerator(kraus, -total / 2 + 1j * h)


def semigroup_at(gen: GkslGenerator, t: float) -> np.ndarray:
    """Superoperator of e^{tL} at time t ≥ 0.

    Every Lindblad generator preserves Hermiticity, L(X*) = L(X)*, so tL is
    exponentiated in its real form over a Hermitian basis. Raises
    PreconditionFailed unless t is a finite, nonnegative real number, and
    NumericalFailure when e^{tL} is not finite.
    """
    time = np.asarray(t)
    # the cast test first: a complex t has no order, and isfinite refuses a string
    if time.ndim or not np.can_cast(time.dtype, float, "same_kind") or not np.isfinite(time) or time < 0:
        raise PreconditionFailed(f"time must be a finite, nonnegative real number, got {t!r}")
    with np.errstate(over="ignore", invalid="ignore"):
        scaled = float(time) * superoperator(gen)
    return _hermiticity_preserving_exp(scaled, gen.dim)


def generator_from_map(t: KrausMap, tol: Tolerance = DEFAULT_TOL) -> GkslGenerator:
    """The Markov generator T - id of a unital CP map T."""
    verdict = is_unital(t, tol)
    if not verdict.ok:
        raise NotUnital(f"map is not unital, residual {verdict.residual:.3e}")
    # kraus part reproduces T; drift -1/2 contributes X·beta + beta*·X = -X
    return GkslGenerator(t, -np.eye(t.dim, dtype=complex) / 2)


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
    residual_matrix = other.beta - gen.beta - np.tensordot(eta.conj(), gen.kraus.operators, 1)
    gamma = complex(np.trace(residual_matrix) / d)
    drift_residual = frobenius(residual_matrix - gamma * np.eye(d))
    drift_scale = max(frobenius(gen.beta), frobenius(other.beta))
    if drift_residual > tol._bound(drift_residual, drift_scale, "drift residual is", slack=10):
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


def _traceless_part(gen: GkslGenerator) -> tuple[np.ndarray, np.ndarray]:
    """The trace vector t_i = tr(L_i)/d and the stack of traceless jumps L_i − t_i·1."""
    ops = gen.kraus.operators
    traces = np.trace(ops, axis1=1, axis2=2) / gen.dim
    return traces, ops - traces[:, None, None] * np.eye(gen.dim)


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
    _of_kind(other, "generator")
    distance, equal = _superoperator_distance(_of_kind(gen, "generator"), other, tol)
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
    into a maximal consistent subsystem at the whole system's threshold;
    `forced_coefficients` is the minimum-norm solution of that subsystem and
    `residual_vector` its defect on every row (consistent rows sit at ~0, the
    violated rows carry the contradiction). `row_labels[k]` names the matrix
    position and component of row k as "(r,s).re" or "(r,s).im". A row costs
    one solve unless a residual bound proves its trial fails; acceptances come
    only from solves, so the answer is the per-row greedy's at about 4n
    solves, not 2d(d−1).
    """

    row_labels: tuple
    accepted: tuple
    forced_coefficients: np.ndarray
    residual_vector: np.ndarray

    def violations(self, cutoff: float = 1e-8) -> list:
        return [
            (label, float(value))
            for label, value in zip(self.row_labels, self.residual_vector)
            if abs(value) > cutoff  # a display filter, not a tolerance decision
        ]


@dataclass(frozen=True)
class SplitVerdict(Verdict):
    """Answer of a drift-splitting question: its Verdict and what carries it.

    A feasible split holds the coefficients `eta`, and a feasible CP-part
    split also `gamma` and the re-gauged presentation; an infeasible
    Hamiltonian split holds its certificate. `feasible` is `ok`.
    """

    eta: np.ndarray | None = None
    infeasibility_certificate: InfeasibilityCertificate | None = None
    gamma: complex | None = None
    regauged: GkslGenerator | None = None

    @property
    def feasible(self) -> bool:
        return self.ok


def cp_part_diagonalizable(
    gen: GkslGenerator, masa, tol: Tolerance = DEFAULT_TOL
) -> SplitVerdict:
    """Can the drift be re-gauged so that it lies in the masa?

    In masa coordinates this asks for coefficients eta with
    offdiag(B + Σ_i conj(eta_i) L_i) = 0 (`masa._drift_system`, solved by row
    in stage 1 of `solve_generator_coefficients`). A feasible verdict carries
    the re-gauged presentation, jumps L_i - eta_i·1 and drift B + gamma·1 +
    Σ conj(eta_i) L_i with gamma = -⟨eta, eta⟩/2, whose jump part preserves the masa.
    The generator must preserve the masa to begin with, as `is_invariant`
    decides; NotInvariant is raised otherwise, and NumericalFailure when the
    drift system's residual or right-hand side is not finite.
    """
    _require_invariant(_of_kind(gen, "generator"), masa, tol)
    d, ops = gen.dim, gen.kraus.operators
    a, b = _drift_system(*gen._in_coordinates(masa))
    # unknowns are conj(eta); the system is complex-linear in them
    z, residual = least_squares(a.reshape(d * (d - 1), len(ops)), b.ravel())
    verdict = _decide(residual, float(np.linalg.norm(b)), tol, "drift system is")
    if not verdict:
        return SplitVerdict(**vars(verdict))
    eta = np.conj(z)
    gamma = complex(-np.vdot(eta, eta) / 2)
    new_ops = ops - eta[:, None, None] * np.eye(d)
    new_beta = gen.beta + gamma * np.eye(d) + np.tensordot(eta.conj(), ops, 1)
    return SplitVerdict(
        eta=eta,
        gamma=gamma,
        regauged=GkslGenerator(KrausMap(new_ops), new_beta),
        **vars(verdict),
    )


def _certificate(a_real, b_real, labels, tol: Tolerance) -> InfeasibilityCertificate:
    """Sparsity-greedy maximal consistent subsystem with its forced solution.

    Row j, sparsest first, joins the accepted rows S when one least-squares
    solve of S plus j passes `_decide` against the whole system's |b|, as the
    verdict does; residuals never fall as rows join, so S is maximal. Once no
    trial holding S can keep a singular value S lacks (lstsq cuts
    σ ≤ eps·max(shape)·σ_max), row j raises the squared residual by
    e_j²/(1 + a_j G⁺ a_jᵀ), e_j the defect of S's
    solution on row j, G = A_SᵀA_S (Björck 1996, §3.2). Rows where this bound,
    taken once, clears the threshold beyond rounding are skipped, as S only
    grows; acceptances still come from solves: about 4n, not 2d(d−1).
    """
    eps, (m, n) = np.finfo(float).eps, a_real.shape
    scale = max(1.0, float(np.abs(a_real).max(initial=0.0)))
    nonzeros = (np.abs(a_real) > 1e-12 * scale).sum(axis=1)  # only orders the rows
    whole = np.linalg.svd(a_real, compute_uv=False)
    b_norm = float(np.linalg.norm(b_real))
    skip = np.zeros(m, dtype=bool)
    accepted_rows: list[int] = []
    x = np.zeros(n)
    for idx in np.lexsort((np.arange(m), nonzeros)).tolist():
        if skip[idx]:
            continue
        trial = accepted_rows + [idx]
        solution, res = least_squares(a_real[trial], b_real[trial])
        verdict = _decide(res, b_norm, tol, "certificate trial is")
        if verdict:
            accepted_rows, x = trial, solution
        if accepted_rows is not trial or skip.any():  # screen once, after an acceptance
            continue
        _, sv, vt = np.linalg.svd(a_real[trial], full_matrices=False)
        rank = int(np.count_nonzero(sv > eps * max(len(trial), n) * sv[0]))
        if rank and np.all(whole[rank : rank + 1] <= eps * max(len(trial) + 1, n) * sv[0]):
            gain = ((a_real @ vt[:rank].T / sv[:rank]) ** 2).sum(axis=1)
            bound = np.sqrt(res**2 + (a_real @ x - b_real) ** 2 / (1 + gain))
            rounding = eps * m * whole[0] / sv[rank - 1] * (bound + 2 * b_norm)
            skip = bound - rounding > verdict.threshold
    return InfeasibilityCertificate(
        row_labels=tuple(labels),
        accepted=tuple(np.isin(np.arange(m), accepted_rows).tolist()),
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
    d = _on_masa(gen, masa, "generator").dim
    r, s = np.nonzero(~np.eye(d, dtype=bool))
    with np.errstate(over="ignore", invalid="ignore"):
        ops, b = gen._in_coordinates(masa)
        # (M - M*)_{rs} = Σ_i c_i L_i[r,s] - conj(c_i) conj(L_i[s,r]) + 2B_rs - 2 conj(B_sr)
        a_real, b_real = realify_conjugate_linear_system(
            ops[:, r, s].T, -ops[:, s, r].conj().T, -(2 * b[r, s] - 2 * np.conj(b[s, r]))
        )
        x, residual = least_squares(a_real, b_real)
        verdict = _decide(residual, np.linalg.norm(b_real), tol, "split system is")
    if verdict:
        return SplitVerdict(eta=complex_from_realified(x), **vars(verdict))
    labels = [f"({i},{j}).{part}" for i, j in zip(r.tolist(), s.tolist()) for part in ("re", "im")]
    certificate = _certificate(a_real, b_real, labels, tol)
    return SplitVerdict(infeasibility_certificate=certificate, **vars(verdict))
