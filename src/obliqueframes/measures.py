"""Finitely supported probability measures as frames.

A discrete measure is a weighted atom cloud; it is a probabilistic frame
for a subspace W when its support spans W, in which case the second-moment
matrix plays the role of the frame operator.  Almost-everywhere statements
degenerate to "for every atom of positive weight".  Frame-ness, bounds and
tightness come from the same linalg.restricted_spectrum as finite frames.
Weak equality, marginal checks and gluing share one test of atom
identity, match_atoms: single linkage within POSITION_TOL in max norm.
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
    restricted_spectrum,
    tight_and_parseval,
)

WEIGHT_SUM_TOL = 1e-12
POSITION_TOL = 1e-9
MARGINAL_TOL = 1e-9


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


def match_atoms(points: np.ndarray, weights: np.ndarray
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Group the rows that are one atom; the only test of atom identity.

    Rows match when their max-norm distance is at most POSITION_TOL.  Groups
    are the connected components of matching (single linkage), so a chain
    of matches joins ends farther apart than POSITION_TOL.  Returns each
    row's group, each group's lexicographically first row (which also orders
    the groups) and the weights summed per group in lexicographic row order.
    """
    order = np.lexsort(points.T[::-1])
    ordered = points[order]
    # Exact duplicates (a product coupling repeats each atom) are now adjacent.
    fresh = np.any(np.diff(ordered, axis=0, prepend=np.nan) != 0, axis=1)
    distinct = ordered[fresh]
    # Matching rows project onto u within ||u||_1 * POSITION_TOL + rounding.
    u = np.sqrt(np.arange(2.0, points.shape[1] + 2.0))
    proj = distinct @ u
    by_proj = np.argsort(proj, kind="stable")
    proj = proj[by_proj]
    width = u.sum() * POSITION_TOL + 2.0 * (u.size + 2) * np.finfo(float).eps \
        * np.max(np.abs(distinct) @ u, initial=0.0)
    # Union-find: larger roots hook under smaller ones, so a root is its
    # component's first row; rows `step` apart in projection order are
    # compared and joined together, which keeps memory linear.
    parent = np.arange(proj.size)
    for step in range(1, proj.size):
        near = np.flatnonzero(proj[step:] - proj[:-step] <= width)
        if near.size == 0:
            break
        a, b = by_proj[near], by_proj[near + step]
        close = np.max(np.abs(distinct[a] - distinct[b]), axis=1) <= POSITION_TOL
        a, b = a[close], b[close]
        while np.any(parent[a] != parent[b]):
            np.minimum.at(parent, np.maximum(parent[a], parent[b]),
                          np.minimum(parent[a], parent[b]))
            while np.any(parent[parent] != parent):
                parent = parent[parent]
    firsts, group = np.unique(parent[np.cumsum(fresh) - 1], return_inverse=True)
    sums = np.bincount(group, weights=weights[order], minlength=firsts.size)
    return group[np.argsort(order)], distinct[firsts], sums


def is_marginal(coords: np.ndarray, weights: np.ndarray,
                mu: DiscreteMeasure) -> bool:
    """Whether the weighted coordinates make up mu: every group of matching
    atoms carries the same mass on both sides, within MARGINAL_TOL."""
    if coords.shape[1] != mu.ambient_dim:
        return False
    _, _, net = match_atoms(np.vstack([coords, mu.points]),
                            np.concatenate([weights, -mu.weights]))
    return bool(np.all(np.abs(net) <= MARGINAL_TOL))


def weak_equal(mu: DiscreteMeasure, nu: DiscreteMeasure) -> bool:
    """Equality as measures, with atoms matched by match_atoms."""
    return is_marginal(mu.points, mu.weights, nu)


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

    The measure is a frame for W exactly when its moment matrix spans W
    (linalg.restricted_spectrum), and its bounds, the extreme eigenvalues
    there, alone decide tightness (linalg.tight_and_parseval).
    """
    k = W.first_outside(np.where((mu.weights > 0)[:, None], mu.points, 0.0),
                        tol.eq_tol)
    if k is not None:
        raise SupportOutsideSubspace(f"atom {k} lies outside the claimed subspace")
    S = measure_frame_operator(mu)
    vals, rank = restricted_spectrum(S, W)
    lo, hi = float(vals[0]), float(vals[-1])
    is_frame = rank == W.dim
    is_tight, is_parseval = tight_and_parseval(lo, hi, tol) if is_frame \
        else (False, False)
    return MeasureFrameReport(
        second_moment=second_moment(mu),
        frame_operator=S,
        is_frame=is_frame,
        bounds=(lo, hi) if is_frame else None,
        is_tight=is_tight,
        is_parseval=is_parseval,
    )
