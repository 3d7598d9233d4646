"""Dense real linear algebra primitives.

Orthonormalization, Moore-Penrose pseudoinverses, principal subspace
angles, orthogonal/oblique projections, the dual operator composing them
and the one frame test, restricted_spectrum, all on plain numpy arrays.
Everything here is a pure function of immutable inputs; arrays stored on
dataclasses are marked read-only.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import AllZero, DimensionMismatch, DirectSumViolation

# Orthonormality slack allowed on a stored Subspace basis.
ORTH_TOL = 1e-10


@dataclass(frozen=True)
class Tolerance:
    """The user tolerance the library certifies its identities against.

    eq_tol: absolute residual tolerance for operator-equality checks,
    finite and positive.  Rank decisions do not read it: they use the
    fixed float-precision rule of rank_cutoff.
    """

    eq_tol: float = 1e-9

    def __post_init__(self):
        if not 0 < self.eq_tol < np.inf:
            raise ValueError(
                f"eq_tol must be finite and positive, got {self.eq_tol}")


DEFAULT_TOL = Tolerance()


def rank_cutoff(shape) -> float:
    """Relative rank cutoff max(n_rows, n_cols) * machine epsilon."""
    return max(shape) * float(np.finfo(float).eps)


def _as_float_array(a, name: str) -> np.ndarray:
    arr = np.asarray(a, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    return arr


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr = np.array(arr, dtype=float)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class Subspace:
    """A linear subspace of R^n carried as an orthonormal column basis."""

    ambient_dim: int
    basis: np.ndarray  # (n, d) with orthonormal columns

    def __post_init__(self):
        basis = _as_float_array(self.basis, "basis")
        if basis.ndim != 2:
            raise ValueError("basis must be a 2-d array")
        n, d = basis.shape
        if n != self.ambient_dim:
            raise DimensionMismatch(
                f"basis has {n} rows, ambient_dim is {self.ambient_dim}"
            )
        if not 1 <= d <= n:
            raise ValueError(f"subspace dimension {d} outside [1, {n}]")
        gram = basis.T @ basis
        if np.max(np.abs(gram - np.eye(d))) > ORTH_TOL:
            raise ValueError("basis columns are not orthonormal")
        object.__setattr__(self, "basis", _freeze(basis))

    @property
    def dim(self) -> int:
        return self.basis.shape[1]

    def first_outside(self, rows, eq_tol: float = DEFAULT_TOL.eq_tol) -> int | None:
        """Index of the first row x with ||x - B B^T x|| > eq_tol * ||x||,
        or None when every row lies in the subspace; zero rows always do."""
        X = np.atleast_2d(_as_float_array(rows, "rows"))
        if X.shape[1] != self.ambient_dim:
            raise DimensionMismatch(f"rows live in R^{X.shape[1]}, "
                                    f"the subspace in R^{self.ambient_dim}")
        resid = X - (X @ self.basis) @ self.basis.T
        outside = np.flatnonzero(np.linalg.norm(resid, axis=1)
                                 > eq_tol * np.linalg.norm(X, axis=1))
        return int(outside[0]) if outside.size else None

    def project(self, x) -> np.ndarray:
        return self.basis @ (self.basis.T @ np.asarray(x, dtype=float))


def orthonormal_basis(vectors) -> Subspace:
    """Orthonormal basis of span{vectors} with SVD rank truncation.

    Raises AllZero when every vector is numerically zero.
    """
    X = _as_float_array(np.column_stack([np.asarray(v, float) for v in vectors]),
                        "vectors")
    u, s, _ = np.linalg.svd(X, full_matrices=False)
    if s.size == 0 or s[0] <= 0.0:
        raise AllZero("cannot span a subspace with all-zero vectors")
    rank = int(np.sum(s > rank_cutoff(X.shape) * s[0]))
    return Subspace(ambient_dim=X.shape[0], basis=u[:, :rank])


def pseudoinverse(M) -> np.ndarray:
    """Moore-Penrose inverse with singular values below the cutoff zeroed."""
    M = _as_float_array(M, "matrix")
    return np.linalg.pinv(M, rcond=rank_cutoff(M.shape))


def restricted_spectrum(S, W: Subspace) -> tuple[np.ndarray, int]:
    """The one frame test: ascending eigenvalues of S restricted to W and
    the rank of S on W, counting eigenvalues above the cutoff pseudoinverse
    applies to the n x n S.  S spans W (rank dim W) exactly when S^+ keeps
    full rank on W, and the extreme eigenvalues are then the frame bounds."""
    vals = np.linalg.eigvalsh(W.basis.T @ S @ W.basis)
    n = W.ambient_dim
    rank = int(np.sum(vals > rank_cutoff((n, n)) * vals[-1])) \
        if vals[-1] > 0 else 0
    return vals, rank


def tight_and_parseval(lo: float, hi: float, tol: Tolerance) -> tuple[bool, bool]:
    """Tight: bounds within eq_tol; Parseval: also the upper one of 1."""
    tight = bool(hi - lo <= tol.eq_tol)
    return tight, tight and abs(hi - 1.0) <= tol.eq_tol


def subspace_angle_cos(W: Subspace, V: Subspace) -> float:
    """cos of the maximum principal angle from W into V.

    Equals inf over unit f in W of ||P_V f||; zero when some direction of
    W is orthogonal to all of V (in particular whenever dim V < dim W).
    """
    if W.ambient_dim != V.ambient_dim:
        raise DimensionMismatch("subspaces live in different ambient spaces")
    M = V.basis.T @ W.basis
    if M.shape[0] < M.shape[1]:
        return 0.0
    s = np.linalg.svd(M, compute_uv=False)
    return float(np.clip(s[-1], 0.0, 1.0))


def orthogonal_projection(W: Subspace) -> np.ndarray:
    return W.basis @ W.basis.T


def oblique_projection(W: Subspace, V: Subspace) -> np.ndarray:
    """Projection onto W that annihilates the orthogonal complement of V.

    Well defined exactly when the ambient space is the direct sum of W and
    V-perp; equivalently the dimensions agree and the subspace angle cosine
    is positive (with equal dimensions it is the same from W into V as from
    V into W).  Raises DirectSumViolation otherwise.
    """
    if W.ambient_dim != V.ambient_dim:
        raise DimensionMismatch("subspaces live in different ambient spaces")
    if W.dim != V.dim:
        raise DirectSumViolation(
            f"dim W = {W.dim} differs from dim V = {V.dim}"
        )
    c = subspace_angle_cos(W, V)
    if c <= rank_cutoff((W.ambient_dim, W.ambient_dim)):
        raise DirectSumViolation(f"subspace angle cosine {c:.3e} too small")
    G = V.basis.T @ W.basis
    return W.basis @ np.linalg.solve(G, V.basis.T)


def dual_operator(S, W: Subspace, V: Subspace) -> tuple[np.ndarray, np.ndarray]:
    """The canonical dual operator oblique_projection(W, V) @ S^+ and S^+.

    S is a frame operator (or measure moment matrix) whose range is V; the
    operator maps each frame vector or atom to its canonical dual on W.
    """
    pi = oblique_projection(W, V)
    s_pinv = pseudoinverse(S)
    return pi @ s_pinv, s_pinv


def orthogonal_complement(W: Subspace) -> Subspace:
    """Orthonormal basis of the orthogonal complement of W."""
    n, d = W.basis.shape
    if d == n:
        raise ValueError("the full space has a trivial complement")
    u, _, _ = np.linalg.svd(W.basis, full_matrices=True)
    return Subspace(ambient_dim=n, basis=u[:, d:])


def spectral_norm(M) -> float:
    return float(np.linalg.norm(np.asarray(M, dtype=float), 2))


def psd_sqrt(M) -> np.ndarray:
    """Symmetric square root of a PSD matrix, eigenvalues clamped at 0."""
    M = _as_float_array(M, "matrix")
    vals, vecs = np.linalg.eigh(0.5 * (M + M.T))
    vals = np.clip(vals, 0.0, None)
    return (vecs * np.sqrt(vals)) @ vecs.T


def psd_pinv_sqrt(M) -> np.ndarray:
    """Square root of the pseudoinverse of a PSD matrix."""
    M = _as_float_array(M, "matrix")
    vals, vecs = np.linalg.eigh(0.5 * (M + M.T))
    cutoff = rank_cutoff(M.shape) * max(np.max(np.abs(vals)), 0.0)
    inv = np.where(vals > cutoff, 1.0 / np.where(vals > cutoff, vals, 1.0), 0.0)
    return (vecs * np.sqrt(inv)) @ vecs.T
