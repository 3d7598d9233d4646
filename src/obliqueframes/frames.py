"""Finite frames for a subspace and their oblique duals.

A frame is an ordered family of vectors spanning a declared subspace W.
Against a second subspace V that splits the ambient space with W-perp,
every frame admits oblique duals: families in V whose mixed outer-product
sum reproduces the oblique projection onto W.  The canonical dual and the
full affine parameterization of all duals are provided, together with the
consistent-reconstruction check.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, NotAFrame, RangeViolation
from .linalg import (
    DEFAULT_TOL,
    Subspace,
    Tolerance,
    _as_float_array,
    _freeze,
    dual_operator,
    is_dual_residual,
    oblique_projection,
    restricted_spectrum,
    spectral_norm,
)


@dataclass(frozen=True)
class FiniteFrame:
    """An ordered family of vectors together with its claimed span."""

    vectors: np.ndarray  # (N, n), one frame vector per row
    subspace: Subspace

    def __post_init__(self):
        vecs = _as_float_array(self.vectors, "vectors")
        if vecs.ndim != 2:
            raise ValueError("vectors must form a 2-d array")
        if vecs.shape[1] != self.subspace.ambient_dim:
            raise DimensionMismatch(
                f"vectors have length {vecs.shape[1]}, "
                f"ambient dimension is {self.subspace.ambient_dim}"
            )
        object.__setattr__(self, "vectors", _freeze(vecs))

    @classmethod
    def create(cls, vectors, subspace: Subspace,
               tol: Tolerance = DEFAULT_TOL) -> "FiniteFrame":
        """Validated constructor: every vector must lie in the subspace
        and the family must span it."""
        frame = cls(np.atleast_2d(np.asarray(vectors, dtype=float)), subspace)
        i = subspace.first_outside(frame.vectors, tol.eq_tol)
        if i is not None:
            raise NotAFrame(f"vector {i} lies outside the claimed subspace")
        _, rank = restricted_spectrum(frame_operator(frame), subspace)
        if rank != subspace.dim:
            raise NotAFrame(
                f"vectors span a {rank}-dimensional space, "
                f"claimed dimension is {subspace.dim}"
            )
        return frame

    @property
    def matrix(self) -> np.ndarray:
        """Synthesis matrix, one frame vector per column (n x N)."""
        return self.vectors.T

    def __len__(self) -> int:
        return self.vectors.shape[0]


@dataclass(frozen=True)
class ObliqueDualPair:
    """A synthesis frame on W and an analysis frame on V, plus the
    spectral-norm residual of the mixed reconstruction identity, which the
    pair computes itself and never takes from its caller."""

    analysis: FiniteFrame
    synthesis: FiniteFrame
    residual: float = field(init=False)

    def __post_init__(self):
        if len(self.analysis) != len(self.synthesis):
            raise DimensionMismatch("analysis and synthesis lengths differ")
        object.__setattr__(self, "residual",
                           dual_residual(self.synthesis, self.analysis))


def frame_operator(F: FiniteFrame) -> np.ndarray:
    """Sum of outer products of the frame vectors (symmetric PSD)."""
    return F.matrix @ F.matrix.T


def frame_bounds(F: FiniteFrame) -> tuple[float, float]:
    """Extreme eigenvalues of the frame operator restricted to the span."""
    vals, rank = restricted_spectrum(frame_operator(F), F.subspace)
    if rank != F.subspace.dim:
        raise NotAFrame("lower frame bound vanishes: the family is span-deficient")
    return float(vals[0]), float(vals[-1])


def dual_residual(synthesis: FiniteFrame, analysis: FiniteFrame) -> float:
    """Spectral norm of sum_i w_i v_i^T minus the oblique projection."""
    pi = oblique_projection(synthesis.subspace, analysis.subspace)
    mixed = synthesis.matrix @ analysis.vectors
    return spectral_norm(mixed - pi)


def is_oblique_dual(Fw: FiniteFrame, Fv: FiniteFrame,
                    tol: Tolerance = DEFAULT_TOL) -> tuple[bool, float]:
    """Check whether Fv is an oblique dual of Fw on its subspace."""
    resid = ObliqueDualPair(analysis=Fv, synthesis=Fw).residual
    return is_dual_residual(resid, tol), resid


def _dual_pair(F: FiniteFrame, analysis_vecs: np.ndarray, V: Subspace,
               tol: Tolerance) -> ObliqueDualPair:
    return ObliqueDualPair(analysis=FiniteFrame.create(analysis_vecs, V, tol),
                           synthesis=F)


def canonical_oblique_dual(F: FiniteFrame, V: Subspace,
                           tol: Tolerance = DEFAULT_TOL) -> ObliqueDualPair:
    """The minimal-energy oblique dual: v_j is the oblique projection onto
    V of the pseudoinverse frame operator applied to w_j."""
    T, _ = dual_operator(frame_operator(F), V, F.subspace)
    return _dual_pair(F, (T @ F.matrix).T, V, tol)


@dataclass(frozen=True)
class _FamilyGeometry:
    """Precomputed pieces of the dual-family parameterization on V.

    The dual generated by a free family h_i in V (columns of Ht) has
    analysis columns canonical + Ht Q with Q = I - (<S^+ w_i, w_j>).
    Coefficients C (dim V x N) act through Ht = B_V C; the mixed Gram is
    then the affine map G(C) = G0 + P C Q.
    """

    frame: FiniteFrame
    sampling: Subspace
    canonical: np.ndarray  # (n, N) canonical dual columns
    G0: np.ndarray         # (N, N)
    P: np.ndarray          # (N, dim V)
    Q: np.ndarray          # (N, N)

    @classmethod
    def build(cls, F: FiniteFrame, V: Subspace) -> "_FamilyGeometry":
        T, s_pinv = dual_operator(frame_operator(F), V, F.subspace)
        canonical = T @ F.matrix
        gram = F.matrix.T @ s_pinv @ F.matrix
        return cls(
            frame=F,
            sampling=V,
            canonical=canonical,
            G0=F.matrix.T @ canonical,
            P=F.matrix.T @ V.basis,
            Q=np.eye(len(F)) - gram,
        )

    def image(self, X: np.ndarray) -> np.ndarray:
        """P X Q: the mixed Gram's change when the coefficients move by X."""
        return self.P @ (X @ self.Q)

    def pair(self, Ht: np.ndarray, tol: Tolerance) -> ObliqueDualPair:
        """The dual generated by the family with columns Ht."""
        return _dual_pair(self.frame, (self.canonical + Ht @ self.Q).T,
                          self.sampling, tol)


def oblique_dual_family(F: FiniteFrame, V: Subspace, H,
                        tol: Tolerance = DEFAULT_TOL) -> ObliqueDualPair:
    """Oblique dual generated by a free family H in V.

    v_i = canonical_i + h_i - sum_j <S^+ w_i, w_j> h_j.  Every choice of H
    yields a valid dual; H = 0 recovers the canonical one.
    """
    Hm = np.atleast_2d(np.asarray(H, dtype=float))
    if Hm.shape[0] != len(F):
        raise DimensionMismatch(
            f"expected {len(F)} parameter vectors, got {Hm.shape[0]}"
        )
    if Hm.shape[1] != F.subspace.ambient_dim:
        raise DimensionMismatch("parameter vectors have wrong length")
    i = V.first_outside(Hm, tol.eq_tol)
    if i is not None:
        raise RangeViolation(f"parameter vector {i} lies outside V")
    return _FamilyGeometry.build(F, V).pair(Hm.T, tol)


def reconstruct(f, pair: ObliqueDualPair) -> tuple[np.ndarray, float]:
    """Synthesize from the samples of f against the analysis frame.

    Returns the reconstruction and the worst-case sampling discrepancy
    max_i |<f - fhat, v_i>|, which vanishes exactly for dual pairs.
    """
    f = _as_float_array(f, "f")
    samples = pair.analysis.vectors @ f
    fhat = pair.synthesis.matrix @ samples
    consistency = float(np.max(np.abs(pair.analysis.vectors @ (f - fhat)))) \
        if len(pair.analysis) else 0.0
    return fhat, consistency
