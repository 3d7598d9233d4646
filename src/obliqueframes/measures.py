"""Finitely supported probability measures as frames.

A discrete measure is a weighted atom cloud; it is a probabilistic frame
for a subspace W when its support spans W, in which case the second-moment
matrix plays the role of the frame operator.  Almost-everywhere statements
degenerate to "for every atom of positive weight".
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SupportOutsideSubspace
from .linalg import (
    DEFAULT_TOL,
    Subspace,
    Tolerance,
    _as_float_array,
    _freeze,
    orthogonal_projection,
    spectral_norm,
)

WEIGHT_SUM_TOL = 1e-12
POSITION_TOL = 1e-9


@dataclass(frozen=True)
class DiscreteMeasure:
    """Atoms (one per row) with nonnegative weights summing to one."""

    points: np.ndarray   # (m, n)
    weights: np.ndarray  # (m,)

    def __post_init__(self):
        pts = _as_float_array(np.atleast_2d(self.points), "points")
        w = _as_float_array(self.weights, "weights").reshape(-1)
        if pts.shape[0] != w.shape[0]:
            raise ValueError(
                f"{pts.shape[0]} points but {w.shape[0]} weights"
            )
        if np.any(w < 0):
            raise ValueError("weights must be nonnegative")
        if abs(float(np.sum(w)) - 1.0) > WEIGHT_SUM_TOL:
            raise ValueError(
                f"weights sum to {float(np.sum(w)):.17g}, expected 1"
            )
        object.__setattr__(self, "points", _freeze(pts))
        object.__setattr__(self, "weights", _freeze(w))

    @property
    def ambient_dim(self) -> int:
        return self.points.shape[1]

    @property
    def num_atoms(self) -> int:
        return self.points.shape[0]

    def support(self) -> np.ndarray:
        """Atoms of strictly positive weight."""
        return self.points[self.weights > 0]


def dirac(point) -> DiscreteMeasure:
    return DiscreteMeasure(np.atleast_2d(point), np.array([1.0]))


def uniform_atoms(points) -> DiscreteMeasure:
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    m = pts.shape[0]
    return DiscreteMeasure(pts, np.full(m, 1.0 / m))


def second_moment(mu: DiscreteMeasure) -> float:
    return float(np.sum(mu.weights * np.einsum("ij,ij->i", mu.points, mu.points)))


def measure_frame_operator(mu: DiscreteMeasure) -> np.ndarray:
    """Second-moment matrix sum_k w_k x_k x_k^T (symmetric PSD)."""
    return np.einsum("k,ki,kj->ij", mu.weights, mu.points, mu.points)


def pushforward(mu: DiscreteMeasure, T) -> DiscreteMeasure:
    """Image measure under an atom-wise map.

    Coincident images are deliberately not merged so that graph couplings
    keep one pair per original atom.
    """
    images = np.array([np.asarray(T(x), dtype=float) for x in mu.points])
    return DiscreteMeasure(images, mu.weights)


def linear_pushforward(mu: DiscreteMeasure, A) -> DiscreteMeasure:
    A = np.asarray(A, dtype=float)
    return DiscreteMeasure(mu.points @ A.T, mu.weights)


def _signed_aggregate(points: np.ndarray, weights: np.ndarray,
                      pos_tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Merge atoms closer than pos_tol (lexicographic sweep), summing weights."""
    if points.shape[0] == 0:
        return points, weights
    order = np.lexsort(points.T[::-1])
    merged_pts: list[np.ndarray] = []
    merged_w: list[float] = []
    for idx in order:
        p = points[idx]
        if merged_pts and np.max(np.abs(p - merged_pts[-1])) <= pos_tol:
            merged_w[-1] += weights[idx]
        else:
            merged_pts.append(np.array(p))
            merged_w.append(float(weights[idx]))
    return np.array(merged_pts), np.array(merged_w)


def aggregate(points: np.ndarray, weights: np.ndarray) -> DiscreteMeasure:
    """Canonical form of weighted atoms: sorted, near-duplicates merged,
    dead atoms dropped, weights renormalized."""
    pts, w = _signed_aggregate(np.asarray(points), np.asarray(weights),
                               POSITION_TOL)
    keep = w > 0
    return DiscreteMeasure(pts[keep], w[keep] / np.sum(w[keep]))


def weak_equal(mu: DiscreteMeasure, nu: DiscreteMeasure,
               pos_tol: float = POSITION_TOL,
               weight_tol: float = POSITION_TOL) -> bool:
    """Equality as measures: atom positions matched within pos_tol after
    sorting, with weights aggregated."""
    if mu.ambient_dim != nu.ambient_dim:
        return False
    pts = np.vstack([mu.points, nu.points])
    w = np.concatenate([mu.weights, -nu.weights])
    _, merged = _signed_aggregate(pts, w, pos_tol)
    return bool(np.all(np.abs(merged) <= weight_tol))


@dataclass(frozen=True)
class MeasureFrameReport:
    second_moment: float
    frame_operator: np.ndarray
    is_frame: bool
    bounds: tuple[float, float] | None
    is_tight: bool
    is_parseval: bool


def classify_probabilistic_frame(mu: DiscreteMeasure, W: Subspace,
                                 tol: Tolerance = DEFAULT_TOL) -> MeasureFrameReport:
    """Frame/tight/Parseval classification of a measure on a subspace.

    The measure is a frame for W exactly when the (positively weighted)
    support spans W; bounds are the extreme eigenvalues of the moment
    matrix restricted to W.
    """
    for k, x in enumerate(mu.points):
        if mu.weights[k] > 0 and not W.contains(x, tol.eq_tol):
            raise SupportOutsideSubspace(
                f"atom {k} lies outside the claimed subspace"
            )
    S = measure_frame_operator(mu)
    restricted = W.basis.T @ S @ W.basis
    vals = np.linalg.eigvalsh(restricted)
    lo, hi = float(vals[0]), float(vals[-1])

    support = mu.support()
    if support.shape[0] == 0:
        rank = 0
    else:
        weighted = support * np.sqrt(mu.weights[mu.weights > 0])[:, None]
        s = np.linalg.svd(weighted.T, compute_uv=False)
        rank = int(np.sum(s > tol.rank_cutoff(weighted.T.shape) * s[0])) \
            if s.size and s[0] > 0 else 0

    is_frame = rank == W.dim
    mean_bound = float(np.trace(restricted) / W.dim)
    is_tight = is_frame and spectral_norm(
        S - mean_bound * orthogonal_projection(W)) <= tol.eq_tol
    is_parseval = is_tight and abs(mean_bound - 1.0) <= tol.eq_tol
    return MeasureFrameReport(
        second_moment=second_moment(mu),
        frame_operator=S,
        is_frame=is_frame,
        bounds=(lo, hi) if is_frame else None,
        is_tight=is_tight,
        is_parseval=is_parseval,
    )
