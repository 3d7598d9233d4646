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
from .linalg import Subspace, orthonormal_basis
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


def random_subspace(rng: np.random.Generator, n: int, d: int) -> Subspace:
    return orthonormal_basis(list(rng.standard_normal((d, n))))


def _random_orthogonal(rng: np.random.Generator, n: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def _spanning_coefficients(rng: np.random.Generator, rows: int, d: int) -> np.ndarray:
    """rows x d Gaussian coefficients, redrawn until sigma_min > 0.2."""
    for _ in range(100):
        coeff = rng.standard_normal((rows, d))
        if np.linalg.svd(coeff, compute_uv=False)[-1] > 0.2:
            return coeff
    raise NonConvergence("failed to draw well-conditioned coefficients")


def random_frame(rng: np.random.Generator, W: Subspace, N: int) -> FiniteFrame:
    """N random vectors spanning W with margin."""
    return FiniteFrame.create(_spanning_coefficients(rng, N, W.dim) @ W.basis.T, W)


def random_admissible_pair(rng: np.random.Generator, n: int, d: int,
                           min_cos: float = 0.25) -> tuple[Subspace, Subspace]:
    """d-dimensional W, V of R^n with smallest principal cosine min_cos (1 if
    d = n): V tilts W into its complement; both bases rotate within their spans."""
    if not 0.0 < min_cos <= 1.0:
        raise ValueError(f"min_cos must lie in (0, 1], got {min_cos}")
    Q = _random_orthogonal(rng, n)
    k = min(d, n - d)
    c = rng.uniform(min_cos, 1.0, k)  # cosines of the k tilted directions
    c[:1] = min_cos
    V = np.hstack([Q[:, :k] * c + Q[:, d:d + k] * np.sqrt(1.0 - c ** 2), Q[:, k:d]])
    return (Subspace(n, Q[:, :d] @ _random_orthogonal(rng, d)),
            Subspace(n, V @ _random_orthogonal(rng, d)))


def random_measure_on(rng: np.random.Generator, W: Subspace, m: int) -> DiscreteMeasure:
    """m weighted atoms spanning W, weights bounded away from zero."""
    if m < W.dim:
        raise ValueError(f"need at least {W.dim} atoms to span the subspace")
    coeff = _spanning_coefficients(rng, m, W.dim)
    w = 0.2 + rng.random(m)
    return DiscreteMeasure(coeff @ W.basis.T, w / np.sum(w))
