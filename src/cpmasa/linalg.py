"""Dense complex linear algebra kernel.

Everything downstream (Kraus maps, generators, masa decision procedures)
funnels its numerics through this module: Hermitian eigendecomposition with a
deterministic phase convention, minimum-norm least squares over real and
complex unknowns, the matrix exponential, commutant computation, and a single
tolerance policy shared by every rank and feasibility threshold.

Every factorization runs on numpy's LAPACK. The exponential alone is scipy's,
and `_expm` imports scipy.linalg at the first exponential, so a process that
never exponentiates never loads scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

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

    A residual against a norm `scale` passes at most ``_bound``'s
    ``slack·(atol + rtol·max(1, scale))``, slack 1, 10 or 1000; singular values
    below ``atol + rtol · s_max`` count as zero in every rank decision.
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
        """Feasibility cutoff for a residual against `scale`; as `rank_cut`, the cut against σ_max."""
        return self.atol + self.rtol * float(scale)

    def _bound(self, residual: float, scale: float, what: str, slack: float = 1.0) -> float:
        """slack·threshold(max(1, scale)); raises NumericalFailure naming `what` if either is not finite."""
        if not (math.isfinite(residual) and math.isfinite(scale)):
            raise NumericalFailure(f"{what} not finite (residual {residual}, scale {scale})")
        return slack * self.threshold(max(1.0, scale))

    rank_cut = threshold


DEFAULT_TOL = Tolerance()


@dataclass(frozen=True)
class Verdict:
    """Boolean decision together with the residual and cutoff that produced it.

    Every decider answers with a Verdict made by `_decide`, or with a subclass
    that adds its payload (a witness, a certificate) and takes ok, residual and
    threshold from that Verdict, so ``ok == (residual <= threshold)`` always.
    """

    ok: bool
    residual: float
    threshold: float

    def __bool__(self) -> bool:
        return self.ok


def _decide(residual: float, scale: float, tol: Tolerance, what: str) -> Verdict:
    """The Verdict whose threshold is `tol._bound(residual, scale, what)`: atol + rtol·max(1, scale).

    A subclass answer is built from the result as ``Cls(payload…, **vars(verdict))``.
    """
    threshold = tol._bound(residual, scale, what)
    return Verdict(ok=bool(residual <= threshold), residual=residual, threshold=threshold)


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


def _finite(x, what: str):
    """`x` itself, once every entry is finite; raises NumericalFailure naming `what` otherwise."""
    if not np.all(np.isfinite(x)):
        raise NumericalFailure(f"{what} is not finite")
    return x


def _require_hermitian(m: np.ndarray, tol: Tolerance, what: str) -> None:
    """Raises NotSelfAdjoint, naming `what`, when ‖m − m*‖_F exceeds the threshold at ‖m‖_F."""
    # not `Tolerance._bound`: the defect is relative to ‖m‖_F alone, with no floor at 1
    defect = frobenius(m - dag(m))
    if defect > tol.threshold(frobenius(m)):
        raise NotSelfAdjoint(f"{what} symmetry defect {defect:.3e} exceeds tolerance")


def require_matrix(a, dim: int | None = None, name: str = "matrix") -> np.ndarray:
    """Coerce to a square complex array, checking shape and finiteness."""
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionMismatch(f"{name} must be square, got shape {m.shape}")
    if dim is not None and m.shape[0] != dim:
        raise DimensionMismatch(f"{name} must be {dim}x{dim}, got {m.shape[0]}x{m.shape[1]}")
    return _finite(m, name)


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
    _require_hermitian(m, tol, "matrix")
    try:
        w, v = np.linalg.eigh(m)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK rarely fails here
        raise NumericalFailure(f"eigendecomposition failed: {exc}") from exc
    _finite(w, "eigenvalues")
    return w, _phase_normalize_columns(_finite(v, "eigenvectors"))


def least_squares(a, b) -> tuple[np.ndarray, float | np.ndarray]:
    """Minimum-norm least-squares solution of ``a x = b``, real or complex.

    `b` is a vector or a matrix whose columns are separate right-hand sides.
    Returns the minimizer x of ``‖a x − b‖₂`` of smallest Euclidean norm, in
    the common dtype of `a` and `b` (real systems stay real), with the
    achieved residual: a float for a vector `b`, one per column for a matrix.
    Singular values below numpy's default cut, ``eps·max(a.shape)·σ_max(a)``,
    count as zero; there is no other cut to choose. Raises NumericalFailure
    when `a` or `b` is not finite, before LAPACK sees it, or when the solver fails.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    dtype = np.result_type(a, b, np.float64)
    a = a.astype(dtype, copy=False)
    b = b.astype(dtype, copy=False)
    if a.ndim != 2 or b.ndim not in (1, 2) or a.shape[0] != b.shape[0]:
        raise DimensionMismatch(f"incompatible system shapes {a.shape} and {b.shape}")
    try:
        x, _, _, _ = np.linalg.lstsq(_finite(a, "system matrix"), _finite(b, "right-hand side"))
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(f"least squares failed: {exc}") from exc
    # residues from lstsq are unreliable for rank-deficient systems
    residual = np.linalg.norm(a @ x - b, axis=0)
    return x, float(residual) if b.ndim == 1 else residual


real_linear_least_squares = least_squares
complex_least_squares = least_squares


def _disjoint_least_squares(a: np.ndarray, b: np.ndarray, reference: float) -> tuple[np.ndarray, np.ndarray]:
    """Minimum-norm solutions of the blocks ``a[i] x[i] = b[i]``, which share nothing.

    `a` is a (k, m, n) stack and `b` a (k, m, c) stack of right-hand sides,
    real or complex. One batched SVD solves every block. Singular values at or
    below ``eps·k·max(m, n)·max(σ_max, reference)`` are cut, σ_max that of the
    whole: as one solve of the block-diagonal whole would cut them, unless
    `reference`, the norm the entries' rounding is relative to (such as that
    of the operators the system was read from), is larger. A block that
    vanishes up to that rounding then gets zero unknowns, not ones fitted to
    its noise. Returns x (k, n, c) and the residuals ‖a x − b‖ of each block's
    columns (k, c). Raises NumericalFailure if `a` or `b` is not finite.
    """
    k, m, n = _finite(a, "system matrix").shape
    _finite(b, "right-hand side")
    try:
        u, s, vh = np.linalg.svd(a, full_matrices=False)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK rarely fails here
        raise NumericalFailure(f"least squares failed: {exc}") from exc
    keep = s > np.finfo(float).eps * k * max(m, n) * max(s.max(initial=0.0), reference)
    inverse = np.divide(1.0, s, out=np.zeros_like(s), where=keep)
    x = dag(vh) @ (inverse[..., None] * (dag(u) @ b))
    fit = a @ x
    fit -= b
    # the column norms without a squared copy of the fit
    return x, np.sqrt(np.einsum("kmc,kmc->kc", fit.conj(), fit).real)


def _span(ops: np.ndarray, tol: Tolerance) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Thin SVD F = U Σ Vh of an (n, d, d) family, cut at ``tol.rank_cut(σ_max)``.

    F is n×d², its rows the row-major flattened operators. The rows of Vh are
    an orthonormal basis of the family's span, and F Vh* its coordinates over
    them: every decision on a Kraus family's span is made at this one cut.
    """
    u, sigma, vh = np.linalg.svd(ops.reshape(len(ops), -1), full_matrices=False)
    keep = sigma > tol.rank_cut(sigma[0])
    return u[:, keep], sigma[keep], vh[keep]


def _realify(z) -> np.ndarray:
    """Real form of complex equations: row k becomes rows 2k (real part) and 2k + 1 (imaginary).

    `z` is a vector, a matrix or a stack of matrices, its rows along the
    second-to-last axis (a vector's only axis).
    """
    z = np.asarray(z, dtype=complex)
    axis = max(z.ndim - 2, 0)
    parts = np.stack([z.real, z.imag], axis=axis + 1)
    return parts.reshape(z.shape[:axis] + (-1,) + z.shape[axis + 1 :])


def realify_conjugate_linear_system(p, q, rhs) -> tuple[np.ndarray, np.ndarray]:
    """Realify equations ``Σ_i (z_i p_ki + conj(z_i) q_ki) = rhs_k``.

    Each complex unknown z_i occupies two adjacent real unknowns
    (Re z_i, Im z_i); each complex equation contributes two real rows.
    Conjugate-linear terms become sign flips in the imaginary columns.
    `rhs` is a vector or a matrix whose columns are separate right-hand sides.
    """
    p = np.asarray(p, dtype=complex)
    q = np.asarray(q, dtype=complex)
    if p.shape != q.shape or p.ndim != 2 or np.ndim(rhs) not in (1, 2) or len(rhs) != len(p):
        raise DimensionMismatch(f"incompatible shapes {p.shape}, {q.shape} and {np.shape(rhs)}")
    # z = x + iy: coefficient of x is p + q, coefficient of y is i(p - q)
    a = np.stack([p + q, 1j * (p - q)], axis=2).reshape(len(p), 2 * p.shape[1])
    return _realify(a), _realify(rhs)


def complex_from_realified(x: np.ndarray) -> np.ndarray:
    """Reassemble complex unknowns from the interleaved real solution."""
    x = np.asarray(x, dtype=float)
    return x[0::2] + 1j * x[1::2]


def _expm(a: np.ndarray) -> np.ndarray:
    """scipy's scaling-and-squaring Padé exponential, with scipy.linalg imported on first use."""
    import scipy.linalg

    return scipy.linalg.expm(a)


def matrix_exp(a) -> np.ndarray:
    """Matrix exponential e^a (scaling-and-squaring Pade).

    Raises NumericalFailure when the exponential overflows.
    """
    m = require_matrix(a)
    with np.errstate(over="ignore", invalid="ignore"):
        return _finite(_expm(m), "matrix exponential")


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
        e = _expm((s4.real + s4.imag.swapaxes(2, 3)).reshape(d * d, d * d))
        e4 = e.reshape(d, d, d, d)
        out = np.empty((d, d, d, d), dtype=complex)
        out.real = (e4 + e4.transpose(1, 0, 3, 2)) / 2
        out.imag = (e4.swapaxes(2, 3) - e4.swapaxes(0, 1)) / 2
    return _finite(out, "matrix exponential").reshape(d * d, d * d)


def _exp_from_eigh(w: np.ndarray, v: np.ndarray) -> np.ndarray:
    """v·e^{−iw}·v*: e^a for the skew-Hermitian a (or stack) whose i·a has eigenpairs (w, v).

    `expm_skew`'s last step.
    """
    return (v * np.exp(-1j * w)[..., None, :]) @ dag(v)


def expm_skew(a: np.ndarray) -> np.ndarray:
    """Exponential of a skew-Hermitian matrix, or of each in a stack, via eigendecomposition.

    Unitary up to rounding, and cheaper than the general-purpose exponential
    at small dimensions: one `eigh` of i·a, then `_exp_from_eigh`. The masa
    descent steps along the Cayley transform instead (`masa._cayley_trials`),
    which needs one inverse and no eigendecomposition.
    """
    return _exp_from_eigh(*np.linalg.eigh(1j * np.asarray(a, dtype=complex)))


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


def _stack_outer(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Σ_i vec_r(x_i) vec_r(y_i)ᵀ over row-major flattenings of two stacks, as one product.

    Raises NumericalFailure when the product is not finite.
    """
    m, d, _ = x.shape
    with np.errstate(over="ignore", invalid="ignore"):
        return _finite(x.reshape(m, d * d).T @ y.reshape(m, d * d), "pair-form product")


_HermitianForm = NamedTuple("_HermitianForm", [("weights", np.ndarray), ("ops", np.ndarray)])


class _PairForm(NamedTuple):
    """A linear map T(X) = Σ_i A_i X B_i on M_d: the stacks `left` (A_i) and `right` (B_i).

    Every linear map on M_d has this form; X ↦ Σ_i L_i* X L_i is the pairs
    (L_i*, L_i). Application, the superoperator, the Choi matrix and the
    projection images are each one batched product over the pair index.
    """

    left: np.ndarray
    right: np.ndarray

    def apply(self, x: np.ndarray) -> np.ndarray:
        """T(X); raises NumericalFailure when it is not finite."""
        with np.errstate(over="ignore", invalid="ignore"):
            return _finite((self.left @ x @ self.right).sum(axis=0), "image")

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
        in O(p²d²) with QR's backward stability. numpy's `qr(mode="r")` gives
        each R and forms no Q. Entries that overflow come out as inf or NaN,
        for the caller to check.
        """
        n, d = len(self.left), self.left.shape[-1]
        with np.errstate(over="ignore", invalid="ignore"):
            a = np.concatenate([self.left, other.left]).reshape(-1, d * d).T
            b = np.concatenate([self.right, other.right]).reshape(-1, d * d).T
            r_a, r_b = np.linalg.qr(a, mode="r"), np.linalg.qr(b, mode="r")
            own = r_a[:, :n] @ r_b[:, :n].T
            theirs = r_a[:, n:] @ r_b[:, n:].T
            # the root of vdot is frobenius without np.linalg.norm's call overhead
            return tuple(float(np.sqrt(np.vdot(m, m).real)) for m in (own - theirs, own, theirs))

    def hermitian(self, tol: Tolerance = DEFAULT_TOL) -> _HermitianForm:
        """The fewest terms of T(X) = Σ_k ε_k C_k* X C_k (Choi, 1975): `weights` ε_k = ±1, `ops` C_k.

        numpy's reduced QR of the joint stack [B_i; A_i*] gives orthonormal F_j, B_i =
        Σ_j β_ji F_j and A_i* = Σ_j α_ji F_j, so T(X) = Σ_jl h_jl F_j* X F_l for the core
        h = conj(α) βᵀ, Hermitian exactly when T preserves Hermiticity. With h's Hermitian
        part V Λ V*, ε_k = sign(λ_k) and C_k = √|λ_k|·Σ_j conj(V_jk) F_j, dropping
        |λ_k| ≤ eps·d²·max|λ|; the C_k are orthogonal, ‖C_k‖²_F = |λ_k| and ‖λ‖₂ = ‖S‖_F.
        Raises NumericalFailure if the core is not finite, and PreconditionFailed when
        ‖h − h*‖_F exceeds `tol._bound` against ‖h‖_F, both of h/max|h_jl|: no scale of T
        moves them, and their norms cannot overflow.
        """
        n, d = len(self.left), self.left.shape[-1]
        with np.errstate(over="ignore", invalid="ignore"):
            q, r = np.linalg.qr(np.concatenate([self.right, dag(self.left)]).reshape(-1, d * d).T)
            core = _finite(r[:, n:].conj() @ r[:, :n].T, "pair form")
        unit = core / max(np.abs(core).max(), np.finfo(float).tiny)
        defect, scale = frobenius(unit - dag(unit)), frobenius(unit)
        if defect > tol._bound(defect, scale, "Hermiticity defect is"):
            raise PreconditionFailed(f"map does not preserve Hermiticity, core defect {defect:.3e}")
        w, v = np.linalg.eigh((core + dag(core)) / 2)
        keep = np.abs(w) > np.finfo(float).eps * d * d * np.abs(w).max()
        ops = (q @ (v[:, keep].conj() * np.sqrt(np.abs(w[keep])))).T.reshape(-1, d, d)
        return _HermitianForm(np.sign(w[keep]), ops)

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


class _Evolution:
    """The evolution protocol: a linear map on M_d, known through its pair form.

    A CP map, a generator and a raw superoperator each supply `dim`, their
    `kind` for `_of_kind` and `_pairs()`; application, the superoperator and
    the projection images are each one `_PairForm` call on those pairs.
    """

    dim: int
    kind: str

    def _pairs(self) -> _PairForm:
        raise NotImplementedError

    def apply(self, x) -> np.ndarray:
        """The image of the d×d matrix X."""
        return self._pairs().apply(require_matrix(x, dim=self.dim, name="x"))

    def superoperator(self) -> np.ndarray:
        """The d²×d² matrix S with vec(image of X) = S vec(X), column-stacking vec."""
        return self._pairs().superoperator()

    def projection_images(self, masa) -> np.ndarray:
        """Images of the masa's minimal projections u_k u_k*, in masa coordinates.

        Computed from the pair form in O(n·d³), without the superoperator.
        """
        return self._pairs().images(masa.basis_unitary)


def _of_kind(source, kind: str):
    """`source` itself when it is an evolution of `kind`; raises PreconditionFailed otherwise."""
    got = source.kind if isinstance(source, _Evolution) else type(source).__name__
    if got != kind:
        raise PreconditionFailed(f"needs kind {kind!r}, got {got!r}")
    return source


def _haar_isometries(rngs: Sequence[np.random.Generator], rows: int, cols: int) -> np.ndarray:
    """Haar-distributed rows×cols isometries, one per generator, as one (len(rngs), rows, cols) stack.

    Each generator fills its own complex Ginibre matrix, in order; one
    batched QR and one phase fix (R's diagonal made positive) then serve the
    stack, and slice k holds the bits that rngs[k] alone would get.
    """
    z = np.array(
        [rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols)) for rng in rngs]
    )
    q, r = np.linalg.qr(z)
    ph = np.diagonal(r, axis1=1, axis2=2).copy()
    ph /= np.abs(ph)
    return q * ph[:, None, :]


def haar_unitary(rng: np.random.Generator, d: int) -> np.ndarray:
    """Haar-distributed d×d unitary (QR of a complex Ginibre matrix)."""
    return _haar_isometries([rng], d, d)[0]
