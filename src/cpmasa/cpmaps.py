"""Completely positive maps presented by Kraus families.

A map T(X) = Σ_i L_i* X L_i is stored as the read-only (n, d, d) stack of
its operators L_i. The module provides application, the Choi matrix,
reduction to a minimal family, the partial isometry connecting two
presentations of one map (read off the reference family's thin SVD), the
superoperator form, the package-wide equality oracle (the superoperator
distance), and the unital check. A KrausMap is a `linalg._Evolution`: it
supplies only its pair form, the stacks (L_i*, L_i) of T(X) = Σ_i A_i X B_i,
and linalg's one kernel computes all of the above from it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NumericalFailure
from .linalg import (
    DEFAULT_TOL,
    Tolerance,
    Verdict,
    _decide,
    _Evolution,
    _finite,
    _haar_isometries,
    _of_kind,
    _PairForm,
    _phase_normalize_columns,
    _span,
    dag,
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


@dataclass(frozen=True, eq=False)
class KrausMap(_Evolution):
    """A finite Kraus family (L_i) on d×d matrices, acting as X ↦ Σ L_i* X L_i.

    `operators` is the family as one read-only (n, d, d) stack. ``==`` is
    identity; whether two presentations are one map is `kraus_transform`'s call.
    `operators` may also be a KrausMap; any other evolution raises PreconditionFailed.
    """

    kind = "cp_map"
    dim: int
    operators: np.ndarray

    def __init__(self, operators):
        if isinstance(operators, _Evolution):
            operators = _of_kind(operators, "cp_map").operators
        ops = [require_matrix(op, name=f"operators[{k}]") for k, op in enumerate(operators)]
        if not ops:
            raise DimensionMismatch("a Kraus family needs at least one operator")
        d = ops[0].shape[0]
        for k, op in enumerate(ops):
            if op.shape[0] != d:
                raise DimensionMismatch(f"operators[{k}] has dimension {op.shape[0]}, expected {d}")
        stack = np.array(ops)
        stack.flags.writeable = False
        object.__setattr__(self, "dim", d)
        object.__setattr__(self, "operators", stack)

    def __len__(self) -> int:
        return len(self.operators)

    def _pairs(self) -> _PairForm:
        """The pair form (L_i*, L_i) of T."""
        return _PairForm(dag(self.operators), self.operators)


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
    return t.apply(x)


def superoperator(t: KrausMap) -> np.ndarray:
    """The d²×d² matrix S = Σ_i L_iᵀ ⊗ L_i*: vec(T(X)) = S vec(X), column-stacking vec."""
    return t.superoperator()


def choi_matrix(t: KrausMap) -> np.ndarray:
    """The Choi matrix Σ_{kl} E_kl ⊗ T(E_kl); PSD with rank = minimal Kraus count.

    Block (k, l), entry (r, s) is Σ_i conj(L_i[k, r]) L_i[l, s].
    """
    return t._pairs().choi()


def minimal_kraus(t: KrausMap, tol: Tolerance = DEFAULT_TOL) -> KrausMap:
    """Reduce to a linearly independent Kraus family inducing the same map.

    With F = U Σ Vh the family's span (`linalg._span`), the Choi matrix F*F
    has eigenvalues σ_k² and eigenvectors v_k, the rows of Vh conjugated. The
    family is σ_k·conj(v_k), in O(n²d²) without forming F*F; the eigenvector
    phase convention makes the output deterministic.
    """
    d = _of_kind(t, "cp_map").dim
    _, sigma, vh = _span(t.operators, tol)
    v = _phase_normalize_columns(dag(vh))
    ops = (sigma[:, None] * dag(v)).reshape(-1, d, d)
    # the zero map still needs a carrier operator
    out = KrausMap(ops if len(ops) else np.zeros((1, d, d), dtype=complex))
    distance, norm, _ = t._pairs().distance(out._pairs())
    if distance > tol._bound(distance, 1.0 + norm, "reproduction distance is", slack=10):
        raise NumericalFailure("minimal Kraus reduction failed to reproduce the map")
    return out


def _superoperator_distance(a, b, tol: Tolerance) -> tuple[float, bool]:
    """Superoperator distance of two presentations, and whether it is within tolerance.

    This is the package's equality oracle for maps and for generators alike.
    ‖S_a − S_b‖_F is read off one QR factorization of each side of the joint
    pair form, without building either superoperator; a distance that is not
    finite raises NumericalFailure. Not `Tolerance._bound`: equality is
    relative to the operands, with no floor at 1.
    """
    if a.dim != b.dim:
        raise DimensionMismatch(f"dimension mismatch {a.dim} vs {b.dim}")
    distance, norm_a, norm_b = a._pairs().distance(b._pairs())
    _finite(distance, "superoperator distance")
    return distance, distance <= tol.threshold(max(norm_a, norm_b))


def _mixing(t_ops: np.ndarray, s_ops: np.ndarray, tol: Tolerance) -> np.ndarray:
    """The partial isometry V with S_j = Σ_i v_ji T_i, for two (n, d, d) families of one map.

    With F_t = U Σ W the span of T (`linalg._span`), coordinates over the
    orthonormal rows of W are F W*: U Σ for T and Q Σ for S, so V = Q U* with
    Q = F_s W* Σ⁻¹. Raises NumericalFailure when a member of either family
    leaves the span by more than ``tol._bound`` at its norm with slack 10.
    """
    u, sigma, w = _span(t_ops, tol)
    flat = np.concatenate((t_ops, s_ops)).reshape(len(t_ops) + len(s_ops), -1)
    coords = flat @ dag(w)
    residuals = np.linalg.norm(flat - coords @ w, axis=1)
    for j, (res, norm) in enumerate(zip(residuals, np.linalg.norm(flat, axis=1))):
        if res > tol._bound(res, norm, "span residual is", slack=10):
            raise NumericalFailure(f"operator {j} of (T, S) leaves T's span (residual {res:.3e})")
    return (coords[len(t_ops):] / sigma) @ dag(u)


def kraus_transform(t: KrausMap, s: KrausMap, tol: Tolerance = DEFAULT_TOL):
    """Partial isometry relating two Kraus presentations of one map.

    If T and S induce the same map, returns a DecompositionTransform V with
    S_j = Σ_i v_ji T_i and T_i = Σ_j conj(v_ji) S_j, read off T's thin SVD by
    `_mixing`. Otherwise returns Inequivalent carrying the superoperator distance.
    """
    distance, equal = _superoperator_distance(_of_kind(t, "cp_map"), _of_kind(s, "cp_map"), tol)
    if not equal:
        return Inequivalent(distance)
    return DecompositionTransform(v_matrix=_mixing(t.operators, s.operators, tol))


def is_unital(t: KrausMap, tol: Tolerance = DEFAULT_TOL) -> Verdict:
    """Whether Σ L_i* L_i equals the identity, with the residual ‖T(1) − 1‖_F.

    Raises NumericalFailure when the residual is not finite.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        residual = frobenius(apply_cp(_of_kind(t, "cp_map"), np.eye(t.dim)) - np.eye(t.dim))
    return _decide(residual, np.sqrt(t.dim), tol, "unit image is")


def random_unital_kraus(rng: np.random.Generator, d: int, count: int) -> KrausMap:
    """Seeded random unital CP map with `count` Kraus operators.

    Built from a Haar isometry ℂ^d → ℂ^d ⊗ ℂ^count sliced into blocks, so
    Σ L_i* L_i = 1 holds exactly by construction.
    """
    return KrausMap(_haar_isometries([rng], d * count, d)[0].reshape(count, d, d))
