"""Maximal abelian subalgebras of M_d and their invariance analysis.

A masa is represented by a unitary whose columns are a joint eigenbasis, so
the algebra is U 𝓓_d U*. The module decides invariance under CP maps,
generators, and raw superoperators, solves the two coefficient criteria that
characterize invariance in terms of the Kraus family, runs the
per-decomposition sufficiency analysis, constructs an invariant masa on M₂,
searches for one numerically in higher dimension, and restricts an invariant
evolution to its classical Markov kernel on the masa.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateSpectrum,
    DimensionMismatch,
    NotInvariant,
    NumericalFailure,
    PatternExplosion,
    PreconditionFailed,
)
from .linalg import (
    DEFAULT_TOL,
    Tolerance,
    Verdict,
    _PairForm,
    _decide,
    _disjoint_least_squares,
    _Evolution,
    _finite,
    _haar_isometries,
    _of_kind,
    _phase_normalize_columns,
    _realify,
    _span,
    dag,
    frobenius,
    hermitian_eig,
    nullspace,
    require_matrix,
)

__all__ = [
    "Masa",
    "Infeasible",
    "KrausCoefficientWitness",
    "GeneratorCoefficientWitness",
    "PatternIntersection",
    "RebolledoVerdict",
    "masa_from_selfadjoint",
    "is_invariant",
    "is_invariant_map",
    "is_invariant_generator",
    "is_invariant_superoperator",
    "solve_kraus_coefficients",
    "solve_generator_coefficients",
    "rebolledo_check",
    "find_masa_m2",
    "search_masa",
    "search_invariant_projections",
    "classical_restriction",
]


@dataclass(frozen=True, eq=False)
class Masa:
    """Masa U 𝓓_d U* given by the unitary of its joint eigenbasis.

    ``==`` is identity, as for the maps that `kraus_transform` and `gksl_equivalent` compare.
    """

    dim: int
    basis_unitary: np.ndarray

    def __init__(self, basis_unitary, tol: Tolerance = DEFAULT_TOL):
        u = require_matrix(basis_unitary, name="basis_unitary")
        d = u.shape[0]
        with np.errstate(over="ignore", invalid="ignore"):
            defect = frobenius(dag(u) @ u - np.eye(d))
        if defect > tol._bound(defect, np.sqrt(d), "unitarity defect is"):
            raise PreconditionFailed(f"basis unitarity defect {defect:.3e} exceeds tolerance")
        object.__setattr__(self, "dim", d)
        object.__setattr__(self, "basis_unitary", u)

    @classmethod
    def diagonal(cls, dim: int) -> "Masa":
        """The diagonal masa 𝓓_d."""
        return cls(np.eye(dim, dtype=complex))

    def to_coordinates(self, x) -> np.ndarray:
        """Conjugate into the eigenbasis, where the masa is diagonal."""
        u = self.basis_unitary
        return dag(u) @ np.asarray(x, dtype=complex) @ u

    def from_coordinates(self, x) -> np.ndarray:
        u = self.basis_unitary
        return u @ np.asarray(x, dtype=complex) @ dag(u)

    def projection(self, k: int) -> np.ndarray:
        """The k-th minimal projection u_k u_k*."""
        col = self.basis_unitary[:, k]
        return np.outer(col, col.conj())


def masa_from_selfadjoint(c, tol: Tolerance = DEFAULT_TOL) -> Masa:
    """The masa generated by a self-adjoint element with simple spectrum."""
    cm = require_matrix(c, name="c")
    w, v = hermitian_eig(cm, tol)
    if len(w) > 1:
        smallest_gap = float(np.diff(w).min())
        if smallest_gap <= tol._bound(smallest_gap, float(np.abs(w).max()), "eigenvalue gap is"):
            raise DegenerateSpectrum(f"smallest eigenvalue gap {smallest_gap:.3e} is below tolerance")
    return Masa(v, tol)


@dataclass(frozen=True)
class Infeasible(Verdict):
    """Negative answer of a coefficient criterion: its Verdict, with no payload."""


class _Superoperator(_Evolution):
    """An evolution known only through its d²×d² matrix under column-stacking vec.

    Its pair form serves the finders, application and the superoperator,
    which it reproduces bit for bit; the projection images come straight
    from the matrix.
    """

    kind = "superoperator"

    def __init__(self, matrix):
        s = require_matrix(matrix, name="superoperator")
        d = int(round(np.sqrt(s.shape[0])))
        if d * d != s.shape[0]:
            raise DimensionMismatch(f"superoperator side {s.shape[0]} is not a square")
        self.dim = d
        self.matrix = s

    def _pairs(self) -> _PairForm:
        """The d² pairs (E_rp, B_rp) with B_rp[q, c] = S[(c, r), (q, p)] = T(E_pq)[r, c]."""
        d = self.dim
        right = self.matrix.reshape(d, d, d, d).transpose(1, 3, 2, 0).reshape(d * d, d, d)
        return _PairForm(np.eye(d * d, dtype=complex).reshape(d * d, d, d), right)

    def projection_images(self, masa: Masa) -> np.ndarray:
        """Images of the masa's minimal projections, in masa coordinates, by one product S·V.

        Column k of V is vec(u_k u_k*), whose entry (c, r) is u_k[r]·conj(u_k[c]).
        """
        d = self.dim
        u = masa.basis_unitary
        projections = (u.conj()[:, None, :] * u[None, :, :]).reshape(d * d, d)
        images = (self.matrix @ projections).reshape(d, d, d).transpose(2, 1, 0)
        return masa.to_coordinates(images)


def _evolution(source):
    """An evolution as it is; anything else read as a superoperator."""
    return source if isinstance(source, _Evolution) else _Superoperator(source)


def _on_masa(source, masa: Masa, kind: str | None = None):
    """The evolution `source` reads as, of `kind` if one is given (`linalg._of_kind`);
    raises DimensionMismatch unless its dim is the masa's."""
    evolution = _evolution(source) if kind is None else _of_kind(source, kind)
    if evolution.dim != masa.dim:
        raise DimensionMismatch(f"evolution dim {evolution.dim} vs masa dim {masa.dim}")
    return evolution


def _projection_images(source, masa: Masa) -> np.ndarray:
    evolution = _on_masa(source, masa)
    # images that overflow are caught by _invariance_verdict's finiteness check
    with np.errstate(over="ignore", invalid="ignore"):
        return evolution.projection_images(masa)


def _invariance_verdict(images: np.ndarray, tol: Tolerance) -> Verdict:
    d = images.shape[-1]
    with np.errstate(over="ignore", invalid="ignore"):
        residual = float(np.linalg.norm(images - images * np.eye(d), axis=(1, 2)).max())
        scale = float(np.linalg.norm(images, axis=(1, 2)).max())
    return _decide(residual, scale, tol, "projection images are")


def is_invariant(evolution, masa: Masa, tol: Tolerance = DEFAULT_TOL) -> Verdict:
    """Whether the masa C is invariant: T(C) ⊆ C for a CP map, L(C) ⊆ C for a generator.

    `evolution` is a KrausMap, a GkslGenerator, or a d²×d² superoperator
    array. For a generator, L(C) ⊆ C decides invariance under every e^{tL} by
    linearity. The residual is the largest off-diagonal Frobenius mass of the
    images of the masa's minimal projections, in masa coordinates. Raises
    NumericalFailure when those images are not finite.
    """
    return _invariance_verdict(_projection_images(evolution, masa), tol)


is_invariant_map = is_invariant
is_invariant_generator = is_invariant
is_invariant_superoperator = is_invariant


def _require_invariant(source, masa: Masa, tol: Tolerance) -> np.ndarray:
    """The masa's projection images under `source`; raises NotInvariant unless they stay in it."""
    images = _projection_images(source, masa)
    verdict = _invariance_verdict(images, tol)
    if not verdict:
        raise NotInvariant(
            f"masa is not invariant, residual {verdict.residual:.3e} "
            f"exceeds {verdict.threshold:.3e}"
        )
    return images


@dataclass(frozen=True)
class KrausCoefficientWitness(Verdict):
    """Positive answer of the CP-map criterion: its Verdict and the coefficients c_ij(E_kk).

    `c_blocks[k, i, j]` holds the length-d diagonal of the coefficient that
    multiplies operator j from the left in the expansion of [E_kk, L_i];
    the family satisfies c_blocks[k, j, i] = conj(c_blocks[k, i, j]).
    Coefficients for a general masa element extend linearly over k.
    """

    c_blocks: np.ndarray


def _hermitian_basis(n: int) -> np.ndarray:
    """Real basis of the Hermitian n×n matrices, as an (n², n, n) stack.

    In order: E_aa for each a, then E_ab + E_ba and i(E_ab − E_ba) for each
    a < b. Coordinates over it are W_aa, then Re and Im of W_ab.
    """
    upper, lower = np.triu_indices(n, 1)
    diag = np.arange(n)
    symmetric = n + 2 * np.arange(len(upper))
    basis = np.zeros((n * n, n, n), dtype=complex)
    basis[diag, diag, diag] = 1
    basis[symmetric, upper, lower] = basis[symmetric, lower, upper] = 1
    basis[symmetric + 1, upper, lower] = 1j
    basis[symmetric + 1, lower, upper] = -1j
    return basis


def _kraus_coefficient_solution(ops: np.ndarray):
    """Solve the commutator expansion over a Hermitian family of diagonals.

    For each k the unknowns are diagonal vectors w_ij with w_ji = conj(w_ij)
    (so w_ii real), satisfying entrywise
    Σ_j w_ij[r]·L_j[r,s] = (E_kk L_i - L_i E_kk)[r,s]. The unknowns of row r
    enter only the equations of row r: there they form a Hermitian n×n
    matrix W with W R_r = C_k, where R_r[j, s] = L_j[r, s] and
    C_k[i, s] = δ_rk L_i[k, s] - δ_sk L_i[r, k]. Over a real basis H_m of the
    Hermitian matrices, W = Σ_m x_m H_m and the system matrix is H R_r, so the
    symmetry is built into the unknowns rather than checked afterwards. R_r
    does not depend on k, so row r is one system with the d right-hand sides
    C_k as columns; the d row systems share nothing and are solved as one
    stack, with singular values cut as for the whole system.
    Returns (c_blocks, total_residual, rhs_norm).
    """
    n, d, _ = ops.shape
    basis = _hermitian_basis(n)
    # products[m, i, r, s] = (H_m R_r)[i, s]
    products = (basis.reshape(-1, n) @ ops.reshape(n, d * d)).reshape(n * n, n, d, d)
    a = _realify(products.transpose(2, 1, 3, 0).reshape(d, n * d, n * n))
    # the C_k in real form: rhs[r, i, s, part, k], part 0 the real and 1 the imaginary part
    parts = np.stack([ops.real, ops.imag], axis=-1).swapaxes(0, 1)
    rhs = np.zeros((d, n, d, 2, d))
    idx = np.arange(d)
    rhs[:, :, idx, :, idx] = -parts.transpose(2, 0, 1, 3)
    rhs[idx, :, :, :, idx] += parts
    x, residuals = _disjoint_least_squares(a, rhs.reshape(d, 2 * n * d, d), frobenius(ops))
    c_blocks = np.tensordot(x, basis, axes=(1, 0)).transpose(1, 2, 3, 0)
    return c_blocks, float(np.linalg.norm(residuals)), float(np.linalg.norm(rhs))


def solve_kraus_coefficients(t, masa: Masa, tol: Tolerance = DEFAULT_TOL):
    """Coefficient criterion for invariance of a CP map under conjugation.

    Feasibility of the commutator expansion over all basis projections is
    equivalent to T(C) ⊆ C; returns the witness or Infeasible with the
    least-squares residual either way. Raises NumericalFailure when the
    residual or the norm of the right-hand sides is not finite.
    """
    ops = masa.to_coordinates(_on_masa(t, masa, "cp_map").operators)
    with np.errstate(over="ignore", invalid="ignore"):
        c_blocks, residual, rhs_norm = _kraus_coefficient_solution(ops)
    verdict = _decide(residual, rhs_norm, tol, "commutator expansion is")
    if not verdict:
        return Infeasible(**vars(verdict))
    return KrausCoefficientWitness(c_blocks=c_blocks, **vars(verdict))


@dataclass(frozen=True)
class GeneratorCoefficientWitness(Verdict):
    """Positive answer of the generator criterion: its Verdict, the shifts and the rates.

    `c_ops[i]` is the diagonal of the masa element subtracted from operator i,
    `gamma` the real diagonal with L(E_kk) = Σ K_i* E_kk K_i + gamma[k]·E_kk
    for the shifted family K_i, and `inner_witness` the commutator-expansion
    witness of that shifted family. Its residual, a part of the whole one, is
    judged against this witness's threshold, so it passes too.
    """

    c_ops: np.ndarray
    gamma: np.ndarray
    inner_witness: KrausCoefficientWitness


def _drift_system(ops: np.ndarray, beta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The system offdiag(β + Σ_i z_i L_i) = 0 for jumps and drift in masa coordinates, by row.

    Row k's equations are a[k] z = b[k], a[k] = ops[:, k, s≠k].T (d−1, n) and
    b[k] = −β[k, s≠k] (d−1, 1); in row-major order ``a.reshape(d·(d−1), n)`` is the whole.
    """
    n, d, _ = ops.shape
    r, s = np.nonzero(~np.eye(d, dtype=bool))
    return ops[:, r, s].reshape(n, d, d - 1).transpose(1, 2, 0), -beta[r, s].reshape(d, d - 1, 1)


def solve_generator_coefficients(gen, masa: Masa, tol: Tolerance = DEFAULT_TOL):
    """Coefficient criterion for invariance of a Lindblad-form generator.

    Stage 1 finds the shifts x: row k of L(E_kk) off the diagonal is that of
    E_kk·β + Σ_i conj(L_i[k, k]) E_kk L_i, so x[:, k] conjugates the unknowns
    of row k of the drift system `gksl.cp_part_diagonalizable` solves whole.
    The rows go to one stacked solve, cut against the coordinates' rounding,
    so a row that vanishes up to rounding gets zero shifts, not noise. Stage 2
    reads off gamma[k] from the (k,k) entry; the entries off row and column k
    are those of the jump part alone, so they agree by construction. Stage 3
    runs the CP-map coefficient solver on the shifted family. The criterion is
    feasible iff the combined residual stays below tolerance, which happens
    exactly when L(C) ⊆ C. Raises NumericalFailure when the residual or the
    scale of the images is not finite.
    """
    d = _on_masa(gen, masa, "generator").dim
    ops, beta = gen._in_coordinates(masa)
    idx = np.arange(d)
    diagonals = ops[:, idx, idx]
    # images that overflow leave the residual or the scale not finite, which is checked below
    with np.errstate(over="ignore", invalid="ignore"):
        # each coordinate of U* L U sums 2d products, so it rounds at eps·2d·‖L‖
        z, res1 = _disjoint_least_squares(*_drift_system(ops, beta), 2 * d * frobenius(ops))
        x = z[..., 0].T.conj()
        images = gen.projection_images(masa)
        # diagonal entry k of image k, real by construction, defines gamma
        gamma = (images[idx, idx, idx] - (np.abs(diagonals - x) ** 2).sum(axis=0)).real

        c_blocks, res3, _ = _kraus_coefficient_solution(ops - x[:, :, None] * np.eye(d))
        residual = float(np.hypot(np.linalg.norm(res1), res3))
        scale = frobenius(images)
    verdict = _decide(residual, scale, tol, "generator criterion is")
    if not verdict:
        return Infeasible(**vars(verdict))
    inner = KrausCoefficientWitness(
        ok=res3 <= verdict.threshold, residual=res3, threshold=verdict.threshold, c_blocks=c_blocks
    )
    return GeneratorCoefficientWitness(c_ops=x, gamma=gamma, inner_witness=inner, **vars(verdict))


@dataclass(frozen=True)
class PatternIntersection:
    """Nonzero intersection of the operator span with a support pattern.

    `pattern[r]` is the single column allowed in row r, or None for an
    all-zero row; `basis` holds unit-norm matrices spanning the intersection.
    """

    pattern: tuple
    dimension: int
    basis: tuple


@dataclass(frozen=True)
class RebolledoVerdict:
    """Per-operator sufficiency checks plus the compatible-element analysis."""

    per_operator: tuple
    compatible_elements: tuple
    patterns_examined: int


# (d + 1)^d support patterns: 7776 at d = 5, 117649 at d = 6
_MAX_ENUMERATION_DIM = 5


def rebolledo_check(t, masa: Masa, tol: Tolerance = DEFAULT_TOL) -> RebolledoVerdict:
    """Does the given Kraus decomposition intertwine the masa operator-wise?

    An operator K passes iff every row of K (in masa coordinates) has its
    nonzero entries in a single column, equivalently cK - Kc = c_K·K for the
    generating element c = diag(1, ..., d) and some diagonal c_K; the
    reported residual is the weighted deviation from the best such c_K.
    The compatible-element analysis enumerates every support pattern
    (one permitted column per row, or none) and intersects its coordinate
    subspace with span{L_i}: the span elements supported inside a pattern
    are the span's orthonormal basis (`linalg._span`, row-major flattened)
    times the nullspace of its rows outside the pattern. Some decomposition
    of T can pass the per-operator check only if these intersections are rich
    enough, so an all-zero outcome rules out every decomposition at once.
    Raises PatternExplosion above dimension _MAX_ENUMERATION_DIM, and
    NumericalFailure when a per-operator residual or its scale is not finite.
    """
    d = _on_masa(t, masa, "cp_map").dim
    if d > _MAX_ENUMERATION_DIM:
        raise PatternExplosion(
            f"{(d + 1) ** d} support patterns at dim {d} exceed the enumeration cap"
        )
    ops = masa.to_coordinates(t.operators)
    c = np.arange(1, d + 1, dtype=float)
    # (cK - Kc)[r, s] = (c_r - c_s)·K[r, s]
    values = c[:, None] - c
    # entries that overflow leave a residual or a scale not finite, which is checked below
    with np.errstate(over="ignore", invalid="ignore"):
        weights = np.abs(ops) ** 2
        totals = weights.sum(axis=2, keepdims=True)
        # an all-zero row has zero weights, so its mean does not matter
        means = (weights * values).sum(axis=2, keepdims=True) / np.where(totals > 0, totals, 1.0)
        residuals = np.sqrt((weights * (values - means) ** 2).sum(axis=(1, 2)))
        scales = np.linalg.norm(values * ops, axis=(1, 2))
    per_operator = [
        _decide(residual, scale, tol, "per-operator residual is")
        for residual, scale in zip(residuals.tolist(), scales.tolist())
    ]

    span_basis = _span(ops, tol)[2].T
    compatible = []
    for pattern in itertools.product(range(d + 1), repeat=d):
        outside = np.ones(d * d, dtype=bool)
        # entry (r, s) sits at index r·d + s of the row-major flattening
        outside[[r * d + col for r, col in enumerate(pattern) if col < d]] = False
        # a product of two matrices with orthonormal columns needs no normalizing
        elements = span_basis @ nullspace(span_basis[outside], tol)
        if elements.shape[1] == 0:
            continue
        # the product leaves rounding noise outside the pattern; the elements lie inside it
        elements[outside] = 0
        elements = _phase_normalize_columns(elements)
        compatible.append(
            PatternIntersection(
                pattern=tuple(col if col < d else None for col in pattern),
                dimension=elements.shape[1],
                basis=tuple(w.reshape(d, d) for w in elements.T),
            )
        )
    return RebolledoVerdict(
        per_operator=tuple(per_operator),
        compatible_elements=tuple(compatible),
        patterns_examined=(d + 1) ** d,
    )


# σ_0 = 1 and the Pauli matrices σ_x, σ_y, σ_z
_PAULI = np.array(
    [[[1, 0], [0, 1]], [[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]], dtype=complex
)
# columns vec(σ_a)/√2, an orthonormal basis of C⁴; vec(σ) is the row-major flattening of σᵀ
_PAULI_COLUMNS = _PAULI.transpose(0, 2, 1).reshape(4, 4).T / np.sqrt(2)


def find_masa_m2(alpha_map, tol: Tolerance = DEFAULT_TOL) -> Masa:
    """Invariant masa of a *-map on M₂ whose unit image is scalar.

    The map's Pauli transfer matrix m = P* S P, for S its superoperator and P
    the columns vec(σ_a)/√2, holds m[a, b] = tr(σ_a T(σ_b))/2, so
    T(σ_b) = Σ_a m[a, b] σ_a (the affine Bloch form). The preconditions ask
    that m[1:, 0] vanish and the Pauli columns m[:, 1:] be real; then the
    masa generated by y·σ, for a real eigenvector y of the real 3×3 block
    m[1:, 1:], is invariant. The returned masa is the best such candidate by
    direct invariance residual.
    """
    evolution = _evolution(alpha_map)
    if evolution.dim != 2:
        raise DimensionMismatch(f"the constructive finder needs dim 2, got {evolution.dim}")
    with np.errstate(over="ignore", invalid="ignore"):
        m = dag(_PAULI_COLUMNS) @ evolution.superoperator() @ _PAULI_COLUMNS
        # ‖T(σ_b)‖_F = √2·‖m[:, b]‖ since P is unitary
        norms = np.sqrt(2) * np.linalg.norm(m, axis=0)
    _finite(norms, "norms of the unit's and the Pauli matrices' images")
    scale = float(norms.max())
    unit_defect = np.sqrt(2) * float(np.linalg.norm(m[1:, 0]))
    if unit_defect > tol._bound(unit_defect, scale, "unit defect is"):
        raise PreconditionFailed(f"image of the unit is not scalar, defect {unit_defect:.3e}")
    # T(σ_b) − T(σ_b)* = 2i Σ_a Im(m[a, b]) σ_a
    sa_defect = 2 * np.sqrt(2) * float(np.linalg.norm(m[:, 1:].imag, axis=0).max())
    if sa_defect > tol._bound(sa_defect, scale, "self-adjointness defect is"):
        raise PreconditionFailed(f"not a *-map, self-adjointness defect {sa_defect:.3e}")

    # LAPACK's dgeev returns each real eigenvalue of a real matrix with an
    # imaginary part of exactly 0 and a real unit eigenvector; a real 3×3
    # matrix has an odd number of real eigenvalues, so at least one column stays
    eigenvalues, eigenvectors = np.linalg.eig(m[1:, 1:].real)
    best = None
    for y in eigenvectors[:, eigenvalues.imag == 0].real.T:
        masa = masa_from_selfadjoint(np.tensordot(y, _PAULI[1:], axes=1), tol)
        residual = is_invariant(evolution, masa, tol).residual
        if best is None or residual < best[0]:
            best = (residual, masa)
    if best[0] > tol._bound(best[0], scale, "best candidate residual is", slack=1000):
        raise NumericalFailure(
            f"no real-eigenvalue candidate yields an invariant masa "
            f"(best residual {best[0]:.3e})"
        )
    return best[1]


_MAX_ITERS = 150
# complex entries (8 MiB) one lockstep chunk of starts may hold in the objective's temporaries
_STACK_ENTRIES = 2**19
# Armijo's sufficient-decrease constant (Nocedal–Wright, ch. 3)
_ARMIJO = 1e-4
# a start stops once the decrease α·|⟨g, p⟩| its trial predicts is at most this many
# rounding units eps·value, a fall that the value's own rounding hides
_ROUNDING_UNITS = 4.0
# curvature pairs (s, y) each start keeps for its limited-memory BFGS direction: 16
# cover the 12 tangent coordinates at d = 4, and a direction's cost in numpy calls
# does not grow with them
_MEMORY = 16


def _stack_width(form) -> int:
    """Starts per lockstep chunk within _STACK_ENTRIES.

    Each start is charged d²·(d + 3·terms + 16) complex entries for the
    objective and the descent's d×d state, and k·(2m + k + 1) more, k =
    _MEMORY and m = d(d − 1), for its `_Curvature`: 2·k·m reals of pairs, k²
    for R⁻¹ and k for D, held twice while a direction gathers its copy of
    them. The objective's peak comes while it forms H: the d×d×d stack K is
    held once, beside three d×d per term of the Hermitian form (the rotated
    operators, their weighted conjugates and H), the descent's own d×d state
    (its unitaries, a trial's Cayley factor 1 − αΩ/2 and its inverse, and the
    last tick's gradients among them) and a few scalars per start that weigh
    most at d = 2. The two peaks come at different times, so the sum
    overcharges where both are large. Measured by tracemalloc over 5 ticks
    at full width, d 2–16, 1–9 terms and search_masa's inputs or one
    projection of rank 1, d/2 or d − 1, the peak stays between 0.63 and 0.97
    of the budget, highest at d = 2 with one term, where the curvature state
    and a direction's vectors of length k weigh most.
    """
    count, d, _ = form.ops.shape
    curvature = _MEMORY * (2 * d * (d - 1) + _MEMORY + 1)
    return max(1, _STACK_ENTRIES // (d * d * (d + 3 * count + 16) + curvature))


class _MaskedObjective:
    """f(u) = Σ_m ‖mask ⊙ u* T(u X_m u*) u‖²_F over unitaries u, and its gradient, in one pass.

    `form` is T's Hermitian form T(X) = Σ_k ε_k C_k* X C_k, row m of
    `inputs` the diagonal of X_m. In u-coordinates, c_k = u* C_k u, the
    image of E_cc is P_c = R_c* diag(ε) R_c for R_c the n×d stack of the
    c_k's rows c: one weighted Gram product. With the Hermitian
    K_c = Σ_m X_m[c] (mask ⊙ Σ_c' X_m[c'] P_c') and G_k = Σ_c K_c c_k* E_cc,
    the derivative of f along u·exp(tΩ) is Re tr(g* Ω) for the
    skew-Hermitian g = 2(Y − Y*), Y = Σ_k ε_k [c_k, G_k]. Row c of H_k = G_k*
    is row c of c_k K_c, so one product forms every H_k, and two more give
    Y* = Σ_k ε_k (H_k c_k* − c_k* H_k).

    Called on a stack of shape (R, d, d), the objective returns
    (values[R], gradients[R, d, d]), each row's value and gradient formed
    together from one rotation and one set of masked images. `at_identity`
    is f at the identity, found once on construction. For search_masa's
    inputs X_m = E_mm both products with the inputs are the identity, and
    they are skipped. Every sum over the term index is the inner dimension
    of a batched matrix product, and slice r of a stack gets the bits that
    u = stack[r] alone gets.
    """

    def __init__(self, form, inputs: np.ndarray, mask: np.ndarray):
        self.weights = form.weights[:, None]
        self.count, self.dim, _ = form.ops.shape
        # [C_1 … C_n] side by side, so u* times it rotates all of them at once
        self.side = form.ops.transpose(1, 0, 2).reshape(self.dim, -1)
        self.inputs = None if np.array_equal(inputs, np.eye(self.dim)) else inputs
        self.mask = mask.ravel()
        with np.errstate(over="ignore", invalid="ignore"):
            self.at_identity = float(self(np.eye(self.dim, dtype=complex)[None])[0][0])

    def __call__(self, stack: np.ndarray):
        r, n, d = len(stack), self.count, self.dim
        # two products rotate every operator of every start: rows[r, c, k, y] = c_k[c, y]
        rows = (dag(stack).reshape(r * d, d) @ self.side).reshape(r, d * n, d)
        rows = (rows @ stack).reshape(r, d, n, d)
        # weighted[r, c, k, x] = ε_k conj(c_k[c, x])
        weighted = rows.conj() * self.weights
        masked = (weighted.swapaxes(2, 3) @ rows).reshape(r, d, d * d)
        if self.inputs is not None:
            masked = self.inputs @ masked
        masked *= self.mask
        values = _squared_norms(masked)
        k = (masked if self.inputs is None else self.inputs.T @ masked).reshape(r, d, d, d)
        # h_rows[r, c, k, :] is row c of H_k
        h_rows = rows @ k
        del rows, k  # only H and the weighted conjugates are used from here on
        # Y* = Σ_k ε_k (H_k c_k* − c_k* H_k), each sum one product over (k, ·)
        y_adj = h_rows.reshape(r, d, n * d) @ weighted.reshape(r, d, n * d).swapaxes(1, 2)
        y_adj -= weighted.reshape(r, d * n, d).swapaxes(1, 2) @ h_rows.reshape(r, d * n, d)
        return values, 2 * (dag(y_adj) - y_adj)


def _masked_objective(form, inputs: np.ndarray, mask: np.ndarray) -> _MaskedObjective:
    """The _MaskedObjective of T's form; raises NumericalFailure when it is not finite at the identity."""
    objective = _MaskedObjective(form, inputs, mask)
    # a non-finite start is never improved on (comparisons with NaN fail)
    _finite(objective.at_identity, "search objective at the identity")
    return objective


def _squared_norms(stack: np.ndarray) -> np.ndarray:
    """Squared Frobenius norm of every array of a stack, summed as `frobenius` sums one."""
    flat = stack.reshape(len(stack), 1, -1)
    return (flat.real @ flat.real.swapaxes(1, 2) + flat.imag @ flat.imag.swapaxes(1, 2))[:, 0, 0]


def _dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise dot products of two (R, m) stacks, each row with the bits it gets alone."""
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


def _tangent_coordinates(grads: np.ndarray, upper) -> np.ndarray:
    """√2·(Re, Im) of each skew-Hermitian's entries above the diagonal, as (R, d(d − 1)) rows.

    Their Euclidean product is the Frobenius product Re tr(a* b) of the
    off-diagonal parts; the diagonal is left out, since u → u·D for a diagonal
    unitary D changes neither objective, so the gradient's diagonal is rounding.
    """
    entries = grads[:, upper[0], upper[1]]
    return np.sqrt(2) * np.concatenate([entries.real, entries.imag], axis=1)


def _tangent_basis(d: int) -> np.ndarray:
    """Flattened Ω_j with Ω = Σ_j p_j Ω_j for a zero-diagonal skew Ω and p its `_tangent_coordinates`."""
    r, s = np.triu_indices(d, 1)
    line, m = np.arange(len(r)), len(r)
    basis = np.zeros((2 * m, d, d), dtype=complex)
    basis[line, r, s], basis[line, s, r] = np.sqrt(0.5), -np.sqrt(0.5)
    basis[m + line, r, s] = basis[m + line, s, r] = 1j * np.sqrt(0.5)
    return basis.reshape(2 * m, d * d)


def _cayley_trials(u: np.ndarray, steps: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """u·(1 − Ω/2)⁻¹(1 + Ω/2) = 2·u·(1 − Ω/2)⁻¹ − u for each u, Ω = steps[i] @ basis.

    The Cayley retraction on U(d) (Wen & Yin, Math. Program., 2013): Ω is
    skew-Hermitian, so 1 − Ω/2 is never singular and the trial is unitary up
    to rounding. `inv` inverts each slice alone, and each real component of
    an entry of Ω is ±√½ times one coordinate, so no row depends on its stack.
    """
    d = u.shape[-1]
    inverse = np.linalg.inv(np.eye(d) - 0.5 * (steps @ basis).reshape(-1, d, d))
    return 2 * (u @ inverse) - u


class _Curvature:
    """The limited-memory BFGS inverse Hessians H of a stack of starts, in compact form.

    Each start keeps its last _MEMORY curvature pairs (s, y) as the columns of
    S and Y, with H₀ = γ·1, γ = sᵀy/yᵀy of the newest pair, and
    H = γ·1 + [S γY] [[R⁻ᵀ(D + γYᵀY)R⁻¹, −R⁻ᵀ], [−R⁻¹, 0]] [S γY]ᵀ for R the
    upper triangle of SᵀY in chronological order and D its diagonal (Byrd,
    Nocedal & Schnabel, 1994; Nocedal–Wright, Numerical Optimization, 2006,
    §7.2). The identity holds under any one permutation of the pair index, so
    pair number n lives in slot n mod _MEMORY and nothing is ever shifted:
    `pairs` holds the S slots, then the Y slots, and `inverse` is R⁻¹ and
    `diagonal` D, both in slot order. An empty slot holds zeros, which add
    nothing to H·g, and a start without pairs has γ = 0 and H·g = 0. Every
    row's arithmetic is its own, so a start has the bits it gets alone.
    """

    def __init__(self, count: int, m: int):
        self.pairs = np.zeros((count, 2 * _MEMORY, m))
        self.inverse = np.zeros((count, _MEMORY, _MEMORY))
        self.diagonal = np.zeros((count, _MEMORY, 1))
        self.gamma = np.zeros((count, 1, 1))
        self.kept = np.zeros(count, dtype=int)

    def direction(self, rows, grads: np.ndarray) -> np.ndarray:
        """−H·g for start rows[i] and g = grads[i], from the same batched products for any _MEMORY.

        With c = R⁻¹Sᵀg, e = D·c + γ(Yᵀ(Y·c) − Yᵀg) and f = R⁻ᵀe,
        H·g = γg + S·f − γY·c. YᵀY·c is formed as Yᵀ(Y·c), since Y·c is
        needed anyway: a kept YᵀY would cost a k×k gather per direction and
        two scatters per pair, more than the product it saves.
        """
        pairs, inverse, gamma = self.pairs[rows], self.inverse[rows], self.gamma[rows]
        products = pairs @ grads[:, :, None]
        sg, yg = products[:, :_MEMORY], products[:, _MEMORY:]
        s, y = pairs[:, :_MEMORY], pairs[:, _MEMORY:]
        c = inverse @ sg
        yc = y.swapaxes(1, 2) @ c
        e = self.diagonal[rows] * c + gamma * (y @ yc - yg)
        f = inverse.swapaxes(1, 2) @ e
        return -(gamma * grads[:, :, None] + s.swapaxes(1, 2) @ f - gamma * yc)[:, :, 0]

    def remember(self, rows, steps, changes, sy, yy) -> None:
        """Add pair (steps[i], changes[i]), with sᵀy = sy[i] and yᵀy = yy[i], to start rows[i].

        The new pair takes the oldest pair's slot. For upper-triangular R,
        R⁻¹ without its first row and column is the inverse of R without
        them, so dropping the oldest pair zeroes its row of R⁻¹, and appending
        the newest writes its column: −R⁻¹c/sᵀy for c = Sᵀy over the pairs
        kept before it, with the diagonal entry 1/sᵀy. c's entry in the slot is
        zeroed, so the old column there adds nothing.
        """
        slot = self.kept[rows] % _MEMORY
        line = np.arange(len(rows))
        self.pairs[rows, slot] = steps
        self.pairs[rows, _MEMORY + slot] = changes
        c = self.pairs[rows, :_MEMORY] @ changes[:, :, None]
        c[line, slot] = 0
        self.inverse[rows, slot] = 0
        column = (self.inverse[rows] @ c)[:, :, 0] / -sy[:, None]
        column[line, slot] = 1 / sy
        self.inverse[rows, :, slot] = column
        self.diagonal[rows, slot, 0] = sy
        self.gamma[rows, 0, 0] = sy / yy
        self.kept[rows] += 1


@np.errstate(over="ignore", invalid="ignore")  # a trial that is not finite loses every comparison
def _descend(
    objective, starts: np.ndarray, max_iters: int, *, exit_residual: float = 0.0
) -> tuple[np.ndarray, np.ndarray]:
    """Quasi-Newton descent on U(d) along Cayley steps, with L-BFGS directions and a halving α.

    Every start of the (R, d, d) stack `starts` descends on its own, in
    lockstep with the others: on each tick each live start makes one trial.
    Directions live in the d(d − 1) off-diagonal tangent coordinates of
    `_tangent_coordinates`, where the gradient g has the Frobenius norm. A
    start's direction is p = −H·g for the limited-memory BFGS inverse
    Hessian H of its last _MEMORY curvature pairs (s, y), s an accepted step
    and y the gradient's change along it, with H₀ = (sᵀy/yᵀy)·1 of the
    newest pair (Nocedal–Wright, Numerical Optimization, 2006, ch. 6–7),
    formed in compact form by the stack's `_Curvature` from the same few
    batched products for any _MEMORY. While it has no pair, or when p is no
    descent direction (⟨g, p⟩ not negative), p is the steepest step
    −0.1·g/‖g‖. A pair is kept only when it is finite with sᵀy > 0, so H
    stays positive definite and a gradient that overflows leaves it as it
    was. Each direction's first trial has α = 1; a trial is accepted when
    its value falls strictly and by at least the Armijo share
    1e-4·α·|⟨g, p⟩|, and a rejected trial halves α. A start stops when α
    falls to 1e-10 or below, when ‖g‖ < 1e-14 or value < 1e-24 at the start
    of an iteration, after `max_iters` iterations (directions), when its
    direction is not finite, or when the decrease α·|⟨g, p⟩| its next trial
    predicts is at most _ROUNDING_UNITS·eps·value, which rounding in the
    value cannot resolve. A tick makes one batched `inv`, which forms the
    trials, the Cayley steps u·(1 − αΩ/2)⁻¹(1 + αΩ/2) of `_cayley_trials`
    for Ω of coordinates p, whose slope at α = 0 is ⟨g, p⟩; and one
    objective call, which forms value and gradient for every trial. Every
    row's arithmetic is its own, so a start gets the same bits in any stack;
    `_descents` cuts starts into chunks. Once √value of start r falls below
    `exit_residual`, every later start is dropped, since a search stops at
    the first restart whose residual does. Returns the final unitaries and
    values of the starts kept, a leading part of the stack.
    """
    u = np.array(starts, dtype=complex)  # the stack descends in place
    count, d, _ = u.shape
    upper, basis = np.triu_indices(d, 1), _tangent_basis(d)
    value, grad = objective(u)
    grad = _tangent_coordinates(grad, upper)
    # per start: its curvature pairs, direction, slope ⟨g, p⟩ and step α
    curvature = _Curvature(*grad.shape)
    direction, slope, alpha = np.empty_like(grad), np.empty(count), np.empty(count)
    rounding = _ROUNDING_UNITS * np.finfo(float).eps
    iters = np.zeros(count, dtype=int)
    live, fresh = np.ones(count, dtype=bool), np.ones(count, dtype=bool)
    while True:
        # a value only falls, so the first start below exit_residual stays below it
        reached = np.flatnonzero(np.sqrt(np.maximum(value, 0.0)) < exit_residual)
        limit = reached[0] + 1 if reached.size else count
        live[limit:] = False
        begin = np.flatnonzero(live & fresh)
        if begin.size:
            fresh[begin] = False
            g = grad[begin]
            norm = np.sqrt(_dots(g, g))
            stop = (iters[begin] >= max_iters) | (norm < 1e-14) | (value[begin] < 1e-24)
            live[begin[stop]] = False
            go, g, norm = begin[~stop], g[~stop], norm[~stop]
            p = curvature.direction(go, g)
            gp = _dots(g, p)
            steep = ~(gp < 0)  # also where no pair is kept yet: p = 0
            if steep.any():
                p[steep] = g[steep] * (-0.1 / norm[steep, None])
                gp[steep] = _dots(g[steep], p[steep])
            direction[go], slope[go], alpha[go] = p, gp, 1.0
            fit = np.isfinite(p).all(axis=1) & (np.abs(gp) > rounding * value[go])
            live[go[~fit]] = False
            iters[go[fit]] += 1
        active = np.flatnonzero(live)
        if not active.size:
            break
        candidate = _cayley_trials(u[active], alpha[active, None] * direction[active], basis)
        candidate_value, candidate_grad = objective(candidate)
        before = value[active]
        better = (candidate_value < before) & (
            candidate_value <= before + _ARMIJO * alpha[active] * slope[active]
        )
        won, lost = active[better], active[~better]
        if won.size:
            new_grad = _tangent_coordinates(candidate_grad[better], upper)
            step = direction[won] * alpha[won, None]
            change = new_grad - grad[won]
            sy, yy = _dots(step, change), _dots(change, change)
            pair = (sy > 0) & np.isfinite(sy) & np.isfinite(yy)
            curvature.remember(won[pair], step[pair], change[pair], sy[pair], yy[pair])
            grad[won] = new_grad
            u[won], value[won] = candidate[better], candidate_value[better]
            fresh[won] = True
        alpha[lost] *= 0.5
        spent = alpha[lost] * np.abs(slope[lost]) <= rounding * value[lost]
        live[lost[spent | (alpha[lost] <= 1e-10)]] = False
    return u[:limit], value[:limit]


def _descents(objective, form, keys: list, exit_residual: float = 0.0):
    """(u, value) of `_descend` from the Haar start of each rng key, in key order.

    The one place that draws and chunks starts: a chunk of _stack_width is
    drawn only when it runs, each key filling its own Ginibre matrix and one
    batched QR serving the chunk, so start k has the bits of
    haar_unitary(default_rng(keys[k]), d). The first start below
    `exit_residual` is the last one yielded, since `_descend` drops the rest
    of its chunk.
    """
    d = form.ops.shape[-1]
    width = _stack_width(form)
    for lo in range(0, len(keys), width):
        chunk = keys[lo : lo + width]
        starts = _haar_isometries([np.random.default_rng(key) for key in chunk], d, d)
        finals, values = _descend(objective, starts, _MAX_ITERS, exit_residual=exit_residual)
        yield from zip(finals, values)
        if np.sqrt(max(values[-1], 0.0)) < exit_residual:
            return


def _integer(value, what: str, least: int) -> int:
    """`value` as an int (`operator.index`) of at least `least`; raises PreconditionFailed otherwise."""
    try:
        value = operator.index(value)
    except TypeError:
        raise PreconditionFailed(f"{what} must be an integer, got {value!r}") from None
    if value < least:
        raise PreconditionFailed(f"{what} must be at least {least}, got {value}")
    return value


def search_masa(
    objective_source, restarts: int = 200, seed: int = 42, tol: Tolerance = DEFAULT_TOL
) -> tuple[Masa, float]:
    """Multi-start quasi-Newton descent for an invariant masa of a map or generator.

    Minimizes the summed squared off-diagonal mass of the rotated projection
    images over the unitary group, on the evolution's Hermitian form
    (`_MaskedObjective`); returns the best masa found and the square root of
    the best objective value, which matches the invariance residual scale.
    Restart r descends (`_descend`: limited-memory BFGS directions from the
    last 16 curvature pairs in compact form, each restart stopping at
    convergence, at its budget of 150 directions, or once rounding in the
    value hides the decrease its step predicts) from a Haar unitary drawn
    from default_rng([seed, r]), in `_descents`' lockstep chunks, so its
    result depends only on (seed, r). The restarts are read in order,
    keeping the first strictly best, and the search stops at the first
    restart whose residual is below atol/10: no restart after it is kept or
    drawn. A residual bounded away from zero is numerical evidence of
    nonexistence, not a proof. Raises PreconditionFailed when `restarts` or
    `seed` is not an integer, `restarts` < 1, `seed` < 0 or the evolution,
    as only a raw superoperator can, does not preserve Hermiticity
    (`linalg._PairForm.hermitian`), and NumericalFailure when the Hermitian
    form's core or the objective at the identity is not finite.
    """
    # default_rng takes no negative entropy
    restarts, seed = _integer(restarts, "restarts", 1), _integer(seed, "seed", 0)
    form = _evolution(objective_source)._pairs().hermitian(tol)
    d = form.ops.shape[-1]
    eye = np.eye(d)
    objective = _masked_objective(form, eye, 1 - eye)
    best_u, best_value = np.eye(d, dtype=complex), objective.at_identity
    exit_residual = tol.atol / 10  # an early exit, not a decision: the caller's verdict judges the masa
    if np.sqrt(max(best_value, 0.0)) < exit_residual:
        restarts = 1  # the exit test first runs after restart 0
    keys = [[seed, r] for r in range(restarts)]
    for u, value in _descents(objective, form, keys, exit_residual):
        if value < best_value:
            best_u, best_value = u, value
    return Masa(best_u), float(np.sqrt(max(best_value, 0.0)))


def search_invariant_projections(
    gen, seed: int = 42, tol: Tolerance = DEFAULT_TOL
) -> list:
    """Heuristic search for projections commuting with their own image.

    Minimizes ‖[q, L(q)]‖_F over projections q = u P u* of each intermediate
    rank, P the first basis projections of that rank, by search_masa's
    quasi-Newton descent from 20 Haar unitaries u per rank, trial t drawn from
    default_rng([seed, rank, t]); the 20 trials of a rank descend in
    lockstep through `_descents`, in chunks as search_masa's restarts do.
    In u-coordinates the commutator is L's image of P outside P's two
    diagonal blocks. 0 and 1 are always included with residual 0. Returns
    (projection, residual) pairs whose residual falls below the tolerance
    threshold against ‖L‖_F (`_decide`), best first. Raises
    PreconditionFailed when `seed` is not an integer or < 0 or the evolution
    does not preserve Hermiticity, and NumericalFailure when the Hermitian
    form's core or the objective at the identity is not finite, as
    search_masa does.
    """
    seed = _integer(seed, "seed", 0)
    form = _evolution(gen)._pairs().hermitian(tol)
    d = form.ops.shape[-1]
    with np.errstate(over="ignore", invalid="ignore"):
        scale = float(np.linalg.norm(np.linalg.norm(form.ops, axis=(1, 2)) ** 2))  # ‖λ‖₂ = ‖L‖_F
    results = [
        (np.zeros((d, d), dtype=complex), 0.0),
        (np.eye(d, dtype=complex), 0.0),
    ]
    found = []
    for rank in range(1, d):
        block = np.arange(d) < rank
        inputs = block[None, :].astype(float)
        objective = _masked_objective(form, inputs, block[:, None] != block)
        for u, value in _descents(objective, form, [[seed, rank, t] for t in range(20)]):
            residual = float(np.sqrt(max(value, 0.0)))
            if not _decide(residual, scale, tol, "projection residual is"):
                continue
            frame = u[:, :rank]
            q = frame @ dag(frame)
            if any(frobenius(q - prev) <= 1e-8 for prev, _ in found):  # a duplicate test, not a decision
                continue
            found.append((q, residual))
    found.sort(key=lambda item: item[1])
    return results + found


def classical_restriction(source, masa: Masa, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Classical kernel of an invariant evolution on the masa's projections.

    Entry (k, l) is the u_k-component of the image of the l-th minimal
    projection, so diag vectors evolve by matrix action: a Q-matrix for a
    Markov generator, a stochastic matrix for a unital CP map.
    """
    diags = np.diagonal(_require_invariant(source, masa, tol), axis1=1, axis2=2)
    a = diags.real.T.copy()
    imag_worst = float(np.abs(diags.imag).max())
    if imag_worst > tol._bound(imag_worst, float(np.abs(a).max()), "diagonal defect is", slack=10):
        raise NumericalFailure(
            f"projection images have non-real diagonal, defect {imag_worst:.3e}"
        )
    return a
