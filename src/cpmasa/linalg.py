"""Dense complex linear algebra kernel.

Everything downstream (Kraus maps, generators, masa decision procedures)
funnels its numerics through this module: Hermitian eigendecomposition with a
deterministic phase convention, minimum-norm least squares over real and
complex unknowns, the matrix exponential, commutant computation, and a single
tolerance policy shared by every rank and feasibility threshold.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np
import scipy.linalg

from .errors import (
    DimensionMismatch,
    NotSelfAdjoint,
    NumericalFailure,
    PreconditionFailed,
    ToleranceInvalid,
)

__all__ = [
    "Tolerance",
    "DEFAULT_TOL",
    "Verdict",
    "dag",
    "vec",
    "unvec",
    "offdiag",
    "frobenius",
    "require_matrix",
    "hermitian_eig",
    "least_squares",
    "real_linear_least_squares",
    "complex_least_squares",
    "realify_conjugate_linear_system",
    "complex_from_realified",
    "matrix_exp",
    "expm_skew",
    "matrix_rank_tol",
    "nullspace",
    "commutant_intersection",
    "haar_unitary",
]


@dataclass(frozen=True)
class Tolerance:
    """Absolute/relative tolerance pair used by every numeric verdict.

    A matrix equality test ``A ≈ B`` means
    ``‖A − B‖_F ≤ atol + rtol · max(‖A‖_F, ‖B‖_F)``; singular values below
    ``atol + rtol · s_max`` count as zero in every rank decision.
    """

    atol: float = 1e-9
    rtol: float = 1e-9

    def __post_init__(self):
        for name in ("atol", "rtol"):
            v = getattr(self, name)
            if not np.isfinite(v) or v < 0:
                raise ToleranceInvalid(f"{name} must be finite and nonnegative, got {v}")
        if self.atol == 0 and self.rtol == 0:
            raise ToleranceInvalid("at least one of atol, rtol must be positive")

    def threshold(self, scale: float = 1.0) -> float:
        """Feasibility cutoff for a residual measured against `scale`."""
        return self.atol + self.rtol * float(scale)

    def close(self, a: np.ndarray, b: np.ndarray) -> bool:
        a = np.asarray(a, dtype=complex)
        b = np.asarray(b, dtype=complex)
        scale = max(frobenius(a), frobenius(b))
        return frobenius(a - b) <= self.threshold(scale)

    def rank_cut(self, s_max: float) -> float:
        return self.atol + self.rtol * float(s_max)


DEFAULT_TOL = Tolerance()


@dataclass(frozen=True)
class Verdict:
    """Boolean decision together with the residual and cutoff that produced it."""

    ok: bool
    residual: float
    threshold: float

    def __bool__(self) -> bool:
        return self.ok


def _checked_threshold(residual: float, scale: float, tol: Tolerance, what: str) -> float:
    """Threshold for a residual measured against max(1, scale); both must be finite."""
    if not (np.isfinite(residual) and np.isfinite(scale)):
        raise NumericalFailure(f"{what} not finite (residual {residual}, scale {scale})")
    return tol.threshold(max(1.0, scale))


def dag(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix, or of each matrix in a stack."""
    return a.conj().swapaxes(-1, -2)


def vec(x: np.ndarray) -> np.ndarray:
    """Column-stacking vectorization: columns concatenated top to bottom."""
    return np.asarray(x).ravel(order="F")


def unvec(v: np.ndarray, d: int) -> np.ndarray:
    """Inverse of `vec` for a d×d matrix."""
    return np.asarray(v).reshape((d, d), order="F")


def offdiag(a: np.ndarray) -> np.ndarray:
    """The matrix with its diagonal zeroed."""
    return a - np.diag(np.diag(a))


def frobenius(a: np.ndarray) -> float:
    return float(np.linalg.norm(a))


def require_matrix(a, dim: int | None = None, name: str = "matrix") -> np.ndarray:
    """Coerce to a square complex array, checking shape and finiteness."""
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionMismatch(f"{name} must be square, got shape {m.shape}")
    if dim is not None and m.shape[0] != dim:
        raise DimensionMismatch(f"{name} must be {dim}x{dim}, got {m.shape[0]}x{m.shape[1]}")
    if not np.all(np.isfinite(m)):
        raise NumericalFailure(f"{name} contains non-finite entries")
    return m


def _phase_normalize_columns(v: np.ndarray) -> np.ndarray:
    """Scale each column so its largest-magnitude entry is real positive.

    Ties are broken by the lowest row index (np.argmax picks the first
    maximum), which makes eigenbases and nullspace bases reproducible.
    """
    out = np.array(v, dtype=complex, copy=True)
    for j in range(out.shape[1]):
        col = out[:, j]
        idx = int(np.argmax(np.abs(col)))
        pivot = col[idx]
        if abs(pivot) > 0:
            out[:, j] = col * (abs(pivot) / pivot)
    return out


def hermitian_eig(a, tol: Tolerance = DEFAULT_TOL) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a self-adjoint matrix.

    Parameters
    ----------
    a : array_like
        Square matrix with ``‖a − a*‖_F`` within tolerance of zero.
    tol : Tolerance

    Returns
    -------
    (eigenvalues, eigenvectors)
        Real eigenvalues ascending; unitary eigenvector matrix with the
        deterministic column phase convention applied.
    """
    m = require_matrix(a)
    sym_defect = frobenius(m - dag(m))
    if sym_defect > tol.threshold(frobenius(m)):
        raise NotSelfAdjoint(f"symmetry defect {sym_defect:.3e} exceeds tolerance")
    try:
        w, v = np.linalg.eigh(m)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK rarely fails here
        raise NumericalFailure(f"eigendecomposition failed: {exc}") from exc
    if not (np.all(np.isfinite(w)) and np.all(np.isfinite(v.view(float)))):
        raise NumericalFailure("eigendecomposition produced non-finite output")
    return w, _phase_normalize_columns(v)


def least_squares(a, b, rcond: float | None = None) -> tuple[np.ndarray, float | np.ndarray]:
    """Minimum-norm least-squares solution of ``a x = b``, real or complex.

    `b` is a vector or a matrix whose columns are separate right-hand sides.
    Returns the minimizer x of ``‖a x − b‖₂`` of smallest Euclidean norm, in
    the common dtype of `a` and `b` (real systems stay real), with the
    achieved residual: a float for a vector `b`, one per column for a matrix.
    Singular values below ``rcond·σ_max(a)`` count as zero; the default is
    numpy's ``eps·max(a.shape)``. Raises NumericalFailure when the solver
    fails on non-finite entries.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    dtype = np.result_type(a, b, np.float64)
    a = a.astype(dtype, copy=False)
    b = b.astype(dtype, copy=False)
    if a.ndim != 2 or b.ndim not in (1, 2) or a.shape[0] != b.shape[0]:
        raise DimensionMismatch(f"incompatible system shapes {a.shape} and {b.shape}")
    if a.shape[1] == 0:
        x = np.zeros((0,) + b.shape[1:], dtype=dtype)
    else:
        try:
            x, _, _, _ = np.linalg.lstsq(a, b, rcond=rcond)
        except np.linalg.LinAlgError as exc:
            raise NumericalFailure(f"least squares failed: {exc}") from exc
    # residues from lstsq are unreliable for rank-deficient systems
    residual = np.linalg.norm(a @ x - b, axis=0)
    return x, float(residual) if b.ndim == 1 else residual


real_linear_least_squares = least_squares
complex_least_squares = least_squares


def _disjoint_least_squares(systems) -> list:
    """Solve same-shaped blocks (a, b) that share no unknowns and no equations.

    Each block gets its own `least_squares` call, but singular values are cut
    as one solve of the block-diagonal whole would cut them: below numpy's
    ``eps·max(shape)·σ_max`` of the whole, not of the block. A block that
    vanishes up to rounding then gets zero unknowns instead of ones fitted to
    its rounding noise. Returns one (x, residual) pair per block.
    """
    if not all(np.all(np.isfinite(a)) for a, _ in systems):
        raise NumericalFailure("system matrix is not finite")
    norms = [np.linalg.norm(a, 2) for a, _ in systems]
    rows, cols = systems[0][0].shape
    cut = np.finfo(float).eps * len(systems) * max(rows, cols) * max(norms)
    solutions = []
    for (a, b), norm in zip(systems, norms):
        if norm > cut:
            solutions.append(least_squares(a, b, rcond=cut / norm))
        else:  # the whole block is cut; LAPACK would read rcond >= 1 as eps
            x = np.zeros((cols,) + b.shape[1:], dtype=np.result_type(a, b))
            solutions.append((x, np.linalg.norm(b, axis=0)))
    return solutions


def expand_over(basis, ops, tol: Tolerance) -> np.ndarray:
    """Coordinates of each operator over a family of basis operators.

    Row j holds the least-squares coordinates of ``ops[j]``, all found by one
    solve with a matrix right-hand side. Raises NumericalFailure when an
    operator's residual exceeds ``10·tol.threshold(max(1, ‖op‖_F))``, that is,
    when it does not lie in the span of the basis.
    """
    stack = np.column_stack([vec(b) for b in basis])
    rhs = np.column_stack([vec(op) for op in ops])
    x, residuals = least_squares(stack, rhs)
    for j, (res, norm) in enumerate(zip(residuals, np.linalg.norm(rhs, axis=0))):
        if res > 10 * tol.threshold(max(1.0, float(norm))):
            raise NumericalFailure(
                f"operator {j} does not lie in the span of the basis (residual {res:.3e})"
            )
    return x.T


def _realify(a, b) -> tuple[np.ndarray, np.ndarray]:
    """Real form of the complex equations ``a x = b`` in real unknowns x.

    Complex row k becomes real rows 2k (real part) and 2k + 1 (imaginary
    part). `b` is a vector or a matrix whose columns are separate right-hand
    sides.
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.ndim != 2 or b.ndim not in (1, 2) or b.shape[0] != a.shape[0]:
        raise DimensionMismatch(f"incompatible system shapes {a.shape} and {b.shape}")
    return tuple(
        np.stack([z.real, z.imag], axis=1).reshape((2 * len(z),) + z.shape[1:]) for z in (a, b)
    )


def realify_conjugate_linear_system(p, q, rhs) -> tuple[np.ndarray, np.ndarray]:
    """Realify equations ``Σ_i (z_i p_ki + conj(z_i) q_ki) = rhs_k``.

    Each complex unknown z_i occupies two adjacent real unknowns
    (Re z_i, Im z_i); each complex equation contributes two real rows.
    Conjugate-linear terms become sign flips in the imaginary columns.
    `rhs` is a vector or a matrix whose columns are separate right-hand sides.
    """
    p = np.asarray(p, dtype=complex)
    q = np.asarray(q, dtype=complex)
    if p.shape != q.shape or p.ndim != 2:
        raise DimensionMismatch(f"incompatible coefficient shapes {p.shape} and {q.shape}")
    # z = x + iy: coefficient of x is p + q, coefficient of y is i(p - q)
    return _realify(np.stack([p + q, 1j * (p - q)], axis=2).reshape(len(p), -1), rhs)


def complex_from_realified(x: np.ndarray) -> np.ndarray:
    """Reassemble complex unknowns from the interleaved real solution."""
    x = np.asarray(x, dtype=float)
    return x[0::2] + 1j * x[1::2]


def matrix_exp(a, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Matrix exponential e^a (scaling-and-squaring Pade)."""
    m = require_matrix(a)
    out = scipy.linalg.expm(m)
    if not np.all(np.isfinite(out.view(float))):
        raise NumericalFailure("matrix exponential overflowed")
    return out


def _hermiticity_preserving_exp(s, d: int) -> np.ndarray:
    """e^s for the d²×d² superoperator s of a Hermiticity-preserving map, via a real exponential.

    T(X*) = T(X)* means P conj(s) P = s, with P the permutation
    vec(X) ↦ vec(Xᵀ). In the orthonormal Hermitian basis
    ((1+i)E_rc + (1−i)E_cr)/2 the matrix of s is then the real
    R = Re s + (Im s)·P, whose real exponential E = e^R takes about a quarter
    of the flops of the complex one. Back in the matrix-unit basis,
    e^s = ½(E + PEP) + (i/2)(EP − PE), so the output keeps
    P conj(e^s) P = e^s exactly. Under column-stacking vec, index (c, r) of a
    d×d×d×d view addresses E_rc, so P on either side is one swap of an axis
    pair and both basis changes are O(d⁴) copies. Raises NumericalFailure
    when s or its exponential is not finite.
    """
    s4 = require_matrix(s, dim=d * d).reshape(d, d, d, d)
    with np.errstate(over="ignore", invalid="ignore"):
        e = scipy.linalg.expm((s4.real + s4.imag.swapaxes(2, 3)).reshape(d * d, d * d))
        e4 = e.reshape(d, d, d, d)
        out = np.empty((d, d, d, d), dtype=complex)
        out.real = (e4 + e4.transpose(1, 0, 3, 2)) / 2
        out.imag = (e4.swapaxes(2, 3) - e4.swapaxes(0, 1)) / 2
    if not np.all(np.isfinite(out.view(float))):
        raise NumericalFailure("matrix exponential overflowed")
    return out.reshape(d * d, d * d)


def expm_skew(a: np.ndarray) -> np.ndarray:
    """Exponential of a skew-Hermitian matrix, or of each in a stack, via eigendecomposition.

    Exact for the unitary-group retractions used by the masa search, and
    cheaper than the general-purpose exponential at small dimensions.
    """
    w, v = np.linalg.eigh(1j * np.asarray(a, dtype=complex))
    return (v * np.exp(-1j * w)[..., None, :]) @ dag(v)


def matrix_rank_tol(a, tol: Tolerance = DEFAULT_TOL) -> int:
    """Rank with singular values below ``atol + rtol·s_max`` counted as zero."""
    a = np.atleast_2d(np.asarray(a, dtype=complex))
    if a.size == 0:
        return 0
    s = np.linalg.svd(a, compute_uv=False)
    return int(np.sum(s > tol.rank_cut(s[0])))


def nullspace(a, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Orthonormal basis (columns) of the nullspace, per the rank threshold."""
    a = np.atleast_2d(np.asarray(a, dtype=complex))
    _, s, vh = np.linalg.svd(a)
    if s.size == 0:
        rank = 0
    else:
        rank = int(np.sum(s > tol.rank_cut(s[0])))
    return _phase_normalize_columns(dag(vh)[:, rank:])


def commutant_intersection(
    a_list: Sequence, tol: Tolerance = DEFAULT_TOL
) -> tuple[int, list[np.ndarray]]:
    """Joint commutant {X : [X, A] = [X, A*] = 0 for all A} of a family.

    Returns its dimension (rank-based, per the shared threshold) and an
    orthonormal basis of matrices. The identity always lies in the result,
    so the dimension is at least 1.
    """
    if len(a_list) == 0:
        raise PreconditionFailed("commutant of an empty family is ambiguous; pass the identity")
    mats = [require_matrix(a, name=f"a_list[{k}]") for k, a in enumerate(a_list)]
    d = mats[0].shape[0]
    for k, m in enumerate(mats):
        if m.shape[0] != d:
            raise DimensionMismatch(f"a_list[{k}] has dimension {m.shape[0]}, expected {d}")
    eye = np.eye(d)
    blocks = []
    for m in mats:
        for g in (m, dag(m)):
            # vec(XG - GX) = (G^T ⊗ 1 - 1 ⊗ G) vec(X)
            blocks.append(np.kron(g.T, eye) - np.kron(eye, g))
    stacked = np.vstack(blocks)
    basis_vecs = nullspace(stacked, tol)
    basis = [unvec(basis_vecs[:, j], d) for j in range(basis_vecs.shape[1])]
    return len(basis), basis


@functools.lru_cache
def _upper_trapezoid(rows: int, cols: int) -> np.ndarray:
    """Read-only boolean mask of the entries on and above the diagonal of a rows×cols matrix."""
    mask = np.arange(rows)[:, None] <= np.arange(cols)
    mask.flags.writeable = False
    return mask


def _r_factor(a: np.ndarray) -> np.ndarray:
    """The upper-trapezoidal R of a thin QR factorization a = Q R of a complex matrix.

    LAPACK's geqrf directly, R masked out of its packed output: at the sizes
    of a pair form, np.linalg.qr and np.triu cost several times the
    factorization itself.
    """
    qr, _, _, _ = scipy.linalg.lapack.zgeqrf(a)
    rows = min(a.shape)
    return qr[:rows] * _upper_trapezoid(rows, a.shape[1])


def _stack_outer(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Σ_i vec_r(x_i) vec_r(y_i)ᵀ over row-major flattenings of two stacks, as one product."""
    m, d, _ = x.shape
    return x.reshape(m, d * d).T @ y.reshape(m, d * d)


class _PairForm(NamedTuple):
    """A linear map T(X) = Σ_i A_i X B_i on M_d: the stacks `left` (A_i) and `right` (B_i).

    Every linear map on M_d has this form; X ↦ Σ_i L_i* X L_i is the pairs
    (L_i*, L_i). Application, the superoperator, the Choi matrix and the
    projection images are each one batched product over the pair index.
    """

    left: np.ndarray
    right: np.ndarray

    def apply(self, x: np.ndarray) -> np.ndarray:
        """T(X)."""
        return (self.left @ x @ self.right).sum(axis=0)

    def superoperator(self) -> np.ndarray:
        """The d²×d² matrix S = Σ_i B_iᵀ ⊗ A_i: vec(T(X)) = S vec(X), column-stacking vec.

        The product Σ_i vec_r(B_iᵀ) vec_r(A_i)ᵀ holds Σ_i B_i[q, c] A_i[r, p]
        at row (c, q), column (r, p); S holds it at row (c, r), column (q, p),
        so only the middle two indices swap and the rows of d stay contiguous.
        """
        d = self.left.shape[-1]
        product = _stack_outer(self.right.swapaxes(1, 2), self.left).reshape(d, d, d, d)
        return product.swapaxes(1, 2).reshape(d * d, d * d)

    def distance(self, other: _PairForm) -> tuple[float, float, float]:
        """‖S − S'‖_F, ‖S‖_F and ‖S'‖_F for the superoperators S of this form and S' of `other`.

        S holds the entries of a bᵀ = Σ_i vec(A_i) vec(B_i)ᵀ, rearranged (the
        operator-Schmidt form), so ‖S‖_F = ‖a bᵀ‖_F. One thin QR of each joint
        stack, [A, A'] = Q_a [R_a, R_a'] and [B, B'] = Q_b [R_b, R_b'], leaves
        a bᵀ − a' b'ᵀ = Q_a (R_a R_bᵀ − R_a' R_b'ᵀ) Q_bᵀ: the distance and the
        two norms are Frobenius norms of p×p matrices for p pairs in all, found
        in O(p²d²) with QR's backward stability. Entries that overflow come out
        as inf or NaN, for the caller to check.
        """
        n, d = len(self.left), self.left.shape[-1]
        r_a = _r_factor(np.concatenate([self.left, other.left]).reshape(-1, d * d).T)
        r_b = _r_factor(np.concatenate([self.right, other.right]).reshape(-1, d * d).T)
        with np.errstate(over="ignore", invalid="ignore"):
            own = r_a[:, :n] @ r_b[:, :n].T
            theirs = r_a[:, n:] @ r_b[:, n:].T
            # the root of vdot is frobenius without np.linalg.norm's call overhead
            return tuple(float(np.sqrt(np.vdot(m, m).real)) for m in (own - theirs, own, theirs))

    def choi(self) -> np.ndarray:
        """The Choi matrix Σ_kl E_kl ⊗ T(E_kl).

        Entry ((k, r), (l, s)) is Σ_i A_i[r, k] B_i[l, s], so no index moves.
        """
        return _stack_outer(self.left.swapaxes(1, 2), self.right)

    def images(self, u: np.ndarray) -> np.ndarray:
        """Images u* T(u_k u_k*) u of the projections onto the columns u_k of a unitary u.

        With a_i = u* A_i u and b_i = u* B_i u, entry (x, y) of image k is
        Σ_i a_i[x, k] b_i[k, y]: for each k one product over the pair index,
        O(|pairs|·d³) in all.
        """
        a, b = dag(u) @ self.left @ u, dag(u) @ self.right @ u
        return a.transpose(2, 1, 0) @ b.swapaxes(0, 1)


def _haar_isometry(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    """Haar-distributed rows×cols isometry: QR of a complex Ginibre matrix, R's diagonal made positive."""
    z = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
    q, r = np.linalg.qr(z)
    ph = np.diag(r).copy()
    ph /= np.abs(ph)
    return q * ph


def haar_unitary(rng: np.random.Generator, d: int) -> np.ndarray:
    """Haar-distributed d×d unitary (QR of a complex Ginibre matrix)."""
    return _haar_isometry(rng, d, d)
