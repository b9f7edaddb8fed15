"""Completely positive maps presented by Kraus families.

A map T(X) = Σ_i L_i* X L_i is stored as the tuple of its operators L_i.
The module provides application, the Choi matrix, reduction to a minimal
family, the partial isometry connecting two presentations of the same map,
the superoperator form, the package-wide equality oracle (the superoperator
distance, taken from the pair forms), and the unital check. Application,
the superoperator, the Choi matrix, the projection images and the distance
are all computed by linalg's one kernel from the map's pair form, the stacks
(L_i*, L_i) of T(X) = Σ_i A_i X B_i.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, NumericalFailure
from .linalg import (
    DEFAULT_TOL,
    Tolerance,
    Verdict,
    _checked_threshold,
    _haar_isometry,
    _PairForm,
    _phase_normalize_columns,
    dag,
    expand_over,
    frobenius,
    require_matrix,
)

__all__ = [
    "KrausMap",
    "DecompositionTransform",
    "Inequivalent",
    "apply_cp",
    "choi_matrix",
    "minimal_kraus",
    "kraus_transform",
    "superoperator",
    "is_unital",
    "random_unital_kraus",
]


@dataclass(frozen=True)
class KrausMap:
    """A finite Kraus family (L_i) on d×d matrices, acting as X ↦ Σ L_i* X L_i."""

    dim: int
    operators: tuple = field(default=())

    def __init__(self, operators):
        ops = tuple(require_matrix(op, name=f"operators[{k}]") for k, op in enumerate(operators))
        if not ops:
            raise DimensionMismatch("a Kraus family needs at least one operator")
        d = ops[0].shape[0]
        for k, op in enumerate(ops):
            if op.shape[0] != d:
                raise DimensionMismatch(f"operators[{k}] has dimension {op.shape[0]}, expected {d}")
        object.__setattr__(self, "dim", d)
        object.__setattr__(self, "operators", ops)

    def __len__(self) -> int:
        return len(self.operators)

    def apply(self, x) -> np.ndarray:
        """T(X), evaluated by `apply_cp`."""
        return apply_cp(self, x)

    def superoperator(self) -> np.ndarray:
        """The d²×d² matrix of T, built by the module-level `superoperator`."""
        return superoperator(self)

    def _pairs(self) -> _PairForm:
        """The pair form (L_i*, L_i) of T."""
        ops = np.array(self.operators)
        return _PairForm(dag(ops), ops)

    def projection_images(self, masa) -> np.ndarray:
        """Images T(u_k u_k*) of the masa's minimal projections, in masa coordinates.

        Computed from the pair form in O(n·d³), without the superoperator.
        """
        return self._pairs().images(masa.basis_unitary)


@dataclass(frozen=True)
class DecompositionTransform:
    """Partial isometry V with K_j = Σ_i v_ji L_i connecting two Kraus families."""

    v_matrix: np.ndarray


@dataclass(frozen=True)
class Inequivalent:
    """Negative result of an equivalence question, with the superoperator distance."""

    distance: float

    def __bool__(self) -> bool:
        return False


def apply_cp(t: KrausMap, x) -> np.ndarray:
    """Evaluate T(X) = Σ L_i* X L_i."""
    return t._pairs().apply(require_matrix(x, dim=t.dim, name="x"))


def superoperator(t: KrausMap) -> np.ndarray:
    """The d²×d² matrix S = Σ_i L_iᵀ ⊗ L_i*: vec(T(X)) = S vec(X), column-stacking vec."""
    return t._pairs().superoperator()


def choi_matrix(t: KrausMap) -> np.ndarray:
    """The Choi matrix Σ_{kl} E_kl ⊗ T(E_kl); PSD with rank = minimal Kraus count.

    Block (k, l), entry (r, s) is Σ_i conj(L_i[k, r]) L_i[l, s].
    """
    return t._pairs().choi()


def minimal_kraus(t: KrausMap, tol: Tolerance = DEFAULT_TOL) -> KrausMap:
    """Reduce to a linearly independent Kraus family inducing the same map.

    With F the n×d² matrix whose rows are the row-major flattened L_i, the
    Choi matrix is F*F, so one thin SVD F = U Σ Vh gives its eigenvectors
    v_k (the rows of Vh, conjugated) and eigenvalues σ_k² without forming
    it. The family is σ_k·conj(v_k) for σ_k above the rank cut, in O(n²d²);
    the eigenvector phase convention makes the output deterministic.
    """
    d = t.dim
    stack = np.stack(t.operators).reshape(len(t), d * d)
    _, sigma, vh = np.linalg.svd(stack, full_matrices=False)
    keep = sigma > tol.rank_cut(sigma[0])
    v = _phase_normalize_columns(dag(vh[keep]))
    ops = list((sigma[keep, None] * dag(v)).reshape(-1, d, d))
    if not ops:
        # the zero map still needs a carrier operator
        ops = [np.zeros((d, d), dtype=complex)]
    out = KrausMap(ops)
    distance, norm, _ = t._pairs().distance(out._pairs())
    # negated so that a NaN residual fails the check too
    if not distance <= 10 * tol.threshold(1.0 + norm):
        raise NumericalFailure("minimal Kraus reduction failed to reproduce the map")
    return out


def _superoperator_distance(a, b, tol: Tolerance) -> tuple[float, bool]:
    """Superoperator distance of two presentations, and whether it is within tolerance.

    This is the package's equality oracle for maps and for generators alike.
    ‖S_a − S_b‖_F is read off one QR factorization of each side of the joint
    pair form, without building either superoperator; a distance that is not
    finite raises NumericalFailure.
    """
    if a.dim != b.dim:
        raise DimensionMismatch(f"dimension mismatch {a.dim} vs {b.dim}")
    distance, norm_a, norm_b = a._pairs().distance(b._pairs())
    if not np.isfinite(distance):
        raise NumericalFailure("superoperator distance is not finite")
    return distance, distance <= tol.threshold(max(norm_a, norm_b))


def _mixing(t: KrausMap, s: KrausMap, tol: Tolerance) -> np.ndarray:
    """The partial isometry V with S_j = Σ_i v_ji T_i, for two families of one map.

    Both families are expanded over the minimal form of T, which keeps the
    construction well conditioned when either family is linearly dependent.
    Both coefficient matrices P (of T) and Q (of S) are isometries onto the
    minimal index space, so V = Q P*.
    """
    base = minimal_kraus(t, tol).operators
    return expand_over(base, s.operators, tol) @ dag(expand_over(base, t.operators, tol))


def kraus_transform(t: KrausMap, s: KrausMap, tol: Tolerance = DEFAULT_TOL):
    """Partial isometry relating two Kraus presentations of one map.

    If T and S induce the same map, returns a DecompositionTransform V with
    S_j = Σ_i v_ji T_i and T_i = Σ_j conj(v_ji) S_j. Otherwise returns
    Inequivalent carrying the superoperator distance.
    """
    distance, equal = _superoperator_distance(t, s, tol)
    if not equal:
        return Inequivalent(distance)
    return DecompositionTransform(v_matrix=_mixing(t, s, tol))


def is_unital(t: KrausMap, tol: Tolerance = DEFAULT_TOL) -> Verdict:
    """Whether Σ L_i* L_i equals the identity, with the residual ‖T(1) − 1‖_F.

    Raises NumericalFailure when the residual is not finite.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        residual = frobenius(apply_cp(t, np.eye(t.dim)) - np.eye(t.dim))
    threshold = _checked_threshold(residual, np.sqrt(t.dim), tol, "unit image is")
    return Verdict(ok=residual <= threshold, residual=residual, threshold=threshold)


def random_unital_kraus(rng: np.random.Generator, d: int, count: int) -> KrausMap:
    """Seeded random unital CP map with `count` Kraus operators.

    Built from a Haar isometry ℂ^d → ℂ^d ⊗ ℂ^count sliced into blocks, so
    Σ L_i* L_i = 1 holds exactly by construction.
    """
    q = _haar_isometry(rng, d * count, d)
    return KrausMap([q[i * d : (i + 1) * d, :] for i in range(count)])
