"""Standard fixtures and seeded random instance generators.

The named constructions here double as CLI fixtures and as the anchors of
the test suite: the Mercedes-Benz triangle frame (the smallest nontrivial
equiangular tight frame of the plane), the standard basis, and a rank-one
line frame sampled along an oblique line.
"""
from __future__ import annotations

import numpy as np

from .errors import NonConvergence
from .frames import FiniteFrame, ObliqueDualPair, canonical_oblique_dual
from .linalg import DEFAULT_TOL, Subspace, Tolerance, orthonormal_basis
from .measures import DiscreteMeasure, dirac, uniform_atoms
from .transport import Coupling, product_coupling


def full_space(n: int) -> Subspace:
    return Subspace(ambient_dim=n, basis=np.eye(n))


def line(direction) -> Subspace:
    return orthonormal_basis([np.asarray(direction, dtype=float)])


def standard_basis_frame(n: int) -> FiniteFrame:
    return FiniteFrame.create(np.eye(n), full_space(n))


def mercedes_benz_vectors() -> np.ndarray:
    angles = 2.0 * np.pi * np.arange(3) / 3.0
    return np.column_stack([np.cos(angles), np.sin(angles)])


def mercedes_benz_frame() -> FiniteFrame:
    return FiniteFrame.create(mercedes_benz_vectors(), full_space(2))


def mercedes_benz_pair() -> ObliqueDualPair:
    """Mercedes-Benz frame with its canonical dual (sampling space = plane)."""
    return canonical_oblique_dual(mercedes_benz_frame(), full_space(2))


def mercedes_benz_measure() -> DiscreteMeasure:
    return uniform_atoms(mercedes_benz_vectors())


def skew_line_subspaces() -> tuple[Subspace, Subspace]:
    """Synthesis span: first axis; sampling span: the diagonal line."""
    return line([1.0, 0.0]), line([1.0, 1.0])


def skew_line_frames() -> tuple[FiniteFrame, FiniteFrame]:
    """One-vector dual pair across the two skew lines of the plane."""
    W, V = skew_line_subspaces()
    return (FiniteFrame.create([[1.0, 0.0]], W),
            FiniteFrame.create([[1.0, 1.0]], V))

def skew_line_measures() -> tuple[DiscreteMeasure, DiscreteMeasure, Coupling]:
    """A Dirac on the first axis with a two-atom dual on the diagonal line;
    the product coupling certifies duality even though no map pushes the
    Dirac onto two atoms."""
    mu = dirac([1.0, 0.0])
    nu = DiscreteMeasure([[0.0, 0.0], [2.0, 2.0]], [0.5, 0.5])
    return mu, nu, product_coupling(mu, nu)


# ---------------------------------------------------------------------------
# Seeded random instances


def random_subspace(rng: np.random.Generator, n: int, d: int) -> Subspace:
    return orthonormal_basis(list(rng.standard_normal((d, n))))


def random_frame(rng: np.random.Generator, W: Subspace, N: int,
                 tol: Tolerance = DEFAULT_TOL) -> FiniteFrame:
    """N random vectors spanning W, redrawn until well conditioned."""
    d = W.dim
    for _ in range(100):
        coeff = rng.standard_normal((N, d))
        s = np.linalg.svd(coeff, compute_uv=False)
        if s[-1] > 0.2:
            return FiniteFrame.create(coeff @ W.basis.T, W, tol)
    raise NonConvergence("failed to draw a well-conditioned frame")


def random_admissible_pair(rng: np.random.Generator, n: int, d: int,
                           min_cos: float = 0.25) -> tuple[Subspace, Subspace]:
    """Two d-dimensional subspaces forming a well-conditioned direct sum."""
    from .linalg import subspace_angle_cos
    for _ in range(500):
        W = random_subspace(rng, n, d)
        V = random_subspace(rng, n, d)
        if W.dim == V.dim == d and \
                min(subspace_angle_cos(W, V), subspace_angle_cos(V, W)) >= min_cos:
            return W, V
    raise NonConvergence("failed to draw an admissible subspace pair")


def random_measure_on(rng: np.random.Generator, W: Subspace, m: int) -> DiscreteMeasure:
    """m weighted atoms spanning W, weights bounded away from zero."""
    d = W.dim
    if m < d:
        raise ValueError(f"need at least {d} atoms to span the subspace")
    for _ in range(100):
        coeff = rng.standard_normal((m, d))
        s = np.linalg.svd(coeff, compute_uv=False)
        if s[-1] > 0.2:
            w = 0.2 + rng.random(m)
            return DiscreteMeasure(coeff @ W.basis.T, w / np.sum(w))
    raise NonConvergence("failed to draw a spanning measure")
