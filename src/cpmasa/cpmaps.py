"""Completely positive maps presented by Kraus families.

A map T(X) = Σ_i L_i* X L_i is stored as the tuple of its operators L_i.
The module provides application, the Choi matrix, reduction to a minimal
family, the partial isometry connecting two presentations of the same map,
the superoperator form (the package-wide equality oracle), and the unital
check.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, NumericalFailure
from .linalg import (
    DEFAULT_TOL,
    Tolerance,
    Verdict,
    _haar_isometry,
    _kraus_images,
    dag,
    expand_over,
    frobenius,
    hermitian_eig,
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

    def projection_images(self, masa) -> np.ndarray:
        """Images T(u_k u_k*) of the masa's minimal projections, in masa coordinates.

        Computed from B_i = U* L_i U in O(n·d³), without the superoperator.
        """
        return _kraus_images(masa.to_coordinates(np.stack(self.operators)))


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
    xm = require_matrix(x, dim=t.dim, name="x")
    out = np.zeros((t.dim, t.dim), dtype=complex)
    for op in t.operators:
        out += dag(op) @ xm @ op
    return out


def superoperator(t: KrausMap) -> np.ndarray:
    """The d²×d² matrix S with vec(T(X)) = S vec(X), column-stacking vec."""
    d = t.dim
    s = np.zeros((d * d, d * d), dtype=complex)
    for op in t.operators:
        # vec(L* X L) = (L^T ⊗ L*) vec(X)
        s += np.kron(op.T, dag(op))
    return s


def choi_matrix(t: KrausMap) -> np.ndarray:
    """The Choi matrix Σ_{kl} E_kl ⊗ T(E_kl); PSD with rank = minimal Kraus count."""
    d = t.dim
    c = np.zeros((d * d, d * d), dtype=complex)
    for op in t.operators:
        # block (k,l), entry (r,s) is conj(L_kr) L_ls, a rank-one contribution
        w = op.conj().ravel(order="C")
        c += np.outer(w, w.conj())
    return c


def minimal_kraus(t: KrausMap, tol: Tolerance = DEFAULT_TOL) -> KrausMap:
    """Reduce to a linearly independent Kraus family inducing the same map.

    Eigendecomposes the Choi matrix and keeps eigenpairs above the rank
    threshold; the eigenvector phase convention makes the output
    deterministic.
    """
    d = t.dim
    c = choi_matrix(t)
    w, v = hermitian_eig(c, tol)
    cut = tol.rank_cut(max(float(w[-1]), 0.0))
    ops = []
    for k in range(len(w) - 1, -1, -1):
        if w[k] <= cut:
            break
        ops.append(np.sqrt(w[k]) * v[:, k].conj().reshape((d, d), order="C"))
    if not ops:
        # the zero map still needs a carrier operator
        ops = [np.zeros((d, d), dtype=complex)]
    out = KrausMap(ops)
    if frobenius(superoperator(out) - superoperator(t)) > 10 * tol.threshold(
        1.0 + frobenius(superoperator(t))
    ):
        raise NumericalFailure("minimal Kraus reduction failed to reproduce the map")
    return out


def kraus_transform(t: KrausMap, s: KrausMap, tol: Tolerance = DEFAULT_TOL):
    """Partial isometry relating two Kraus presentations of one map.

    If T and S induce the same map, returns a DecompositionTransform V with
    S_j = Σ_i v_ji T_i and T_i = Σ_j conj(v_ji) S_j. Otherwise returns
    Inequivalent carrying the superoperator distance. Both families are
    expanded over a common minimal family, which keeps the construction
    well conditioned when either input family is linearly dependent.
    """
    if t.dim != s.dim:
        raise DimensionMismatch(f"dimension mismatch {t.dim} vs {s.dim}")
    st = superoperator(t)
    ss = superoperator(s)
    distance = frobenius(st - ss)
    if distance > tol.threshold(max(frobenius(st), frobenius(ss))):
        return Inequivalent(distance)
    base = minimal_kraus(t, tol)
    p = expand_over(base.operators, t.operators, tol)
    q = expand_over(base.operators, s.operators, tol)
    # both coefficient matrices are isometries onto the minimal index space,
    # so V = Q P* is the connecting partial isometry
    return DecompositionTransform(v_matrix=q @ dag(p))


def is_unital(t: KrausMap, tol: Tolerance = DEFAULT_TOL) -> Verdict:
    """Whether Σ L_i* L_i equals the identity, with the residual ‖T(1) − 1‖_F."""
    residual = frobenius(apply_cp(t, np.eye(t.dim)) - np.eye(t.dim))
    threshold = tol.threshold(np.sqrt(t.dim))
    return Verdict(ok=residual <= threshold, residual=residual, threshold=threshold)


def random_unital_kraus(rng: np.random.Generator, d: int, count: int) -> KrausMap:
    """Seeded random unital CP map with `count` Kraus operators.

    Built from a Haar isometry ℂ^d → ℂ^d ⊗ ℂ^count sliced into blocks, so
    Σ L_i* L_i = 1 holds exactly by construction.
    """
    q = _haar_isometry(rng, d * count, d)
    return KrausMap([q[i * d : (i + 1) * d, :] for i in range(count)])
