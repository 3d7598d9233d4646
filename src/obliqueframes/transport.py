"""Discrete optimal transport with quadratic cost.

Couplings are finitely supported joint measures with declared marginals,
validated at construction.  The exact 2-Wasserstein distance is computed
by a transportation simplex on the dense cost matrix (Bland's entering
rule for anti-cycling), which certifies optimality through the LP dual.
The gluing construction composes two couplings over a shared marginal.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (DimensionMismatch, InternalConsistencyError,
                     MarginalMismatch, NonConvergence)
from .linalg import _as_float_array, _freeze
from .measures import MARGINAL_TOL, DiscreteMeasure, is_marginal, match_atoms


@dataclass(frozen=True)
class Coupling:
    """Joint measure on pairs (x, y) with declared marginals."""

    x: np.ndarray        # (m, n) first coordinates
    y: np.ndarray        # (m, n) second coordinates
    weights: np.ndarray  # (m,)
    marginal_x: DiscreteMeasure
    marginal_y: DiscreteMeasure

    def __post_init__(self):
        x = _as_float_array(np.atleast_2d(self.x), "x")
        y = _as_float_array(np.atleast_2d(self.y), "y")
        w = _as_float_array(self.weights, "weights").reshape(-1)
        if not (x.shape[0] == y.shape[0] == w.shape[0]):
            raise ValueError("pair coordinates and weights disagree in length")
        if np.any(w < 0):
            raise ValueError("coupling weights must be nonnegative")
        if abs(float(np.sum(w)) - 1.0) > MARGINAL_TOL:
            raise ValueError(f"coupling weights sum to {float(np.sum(w)):.17g}")
        object.__setattr__(self, "x", _freeze(x))
        object.__setattr__(self, "y", _freeze(y))
        object.__setattr__(self, "weights", _freeze(w))
        if not is_marginal(x, w, self.marginal_x):
            raise MarginalMismatch("first-coordinate marginal mismatch")
        if not is_marginal(y, w, self.marginal_y):
            raise MarginalMismatch("second-coordinate marginal mismatch")

    @property
    def num_pairs(self) -> int:
        return self.weights.shape[0]

    def moment_matrix(self) -> np.ndarray:
        """sum_k w_k x_k y_k^T, the mixed second moment of the coupling."""
        return np.einsum("k,ki,kj->ij", self.weights, self.x, self.y)


def product_coupling(mu: DiscreteMeasure, nu: DiscreteMeasure) -> Coupling:
    """Independent coupling: every atom pair with weight w_mu * w_nu."""
    xs = np.repeat(mu.points, nu.num_atoms, axis=0)
    ys = np.tile(nu.points, (mu.num_atoms, 1))
    w = np.outer(mu.weights, nu.weights).reshape(-1)
    return Coupling(xs, ys, w, mu, nu)


def graph_coupling(mu: DiscreteMeasure, T) -> Coupling:
    """Coupling supported on the graph of an atom-wise map."""
    images = np.array([np.asarray(T(x), dtype=float) for x in mu.points])
    nu = DiscreteMeasure(images, mu.weights)
    return Coupling(mu.points, images, mu.weights, mu, nu)


def identity_coupling(mu: DiscreteMeasure) -> Coupling:
    return graph_coupling(mu, lambda x: x)


def coupling_cost(gamma: Coupling) -> float:
    """Quadratic transport cost sum_k w_k ||x_k - y_k||^2."""
    diff = gamma.x - gamma.y
    return float(np.sum(gamma.weights * np.einsum("ki,ki->k", diff, diff)))


# ---------------------------------------------------------------------------
# Transportation simplex


def _northwest_corner(supply: np.ndarray, demand: np.ndarray):
    m, k = supply.shape[0], demand.shape[0]
    flows = np.zeros((m, k))
    in_basis = np.zeros((m, k), dtype=bool)
    ra = supply.copy()
    rb = demand.copy()
    i = j = 0
    while True:
        t = min(ra[i], rb[j])
        flows[i, j] = t
        in_basis[i, j] = True
        ra[i] = max(ra[i] - t, 0.0)
        rb[j] = max(rb[j] - t, 0.0)
        if i == m - 1 and j == k - 1:
            break
        if ra[i] <= rb[j] and i < m - 1:
            i += 1
        elif j < k - 1:
            j += 1
        else:
            i += 1
    return flows, in_basis


def _tree_duals(cost: list[list[float]], in_basis: np.ndarray):
    """Potentials and parent links of the basis tree, from one DFS at row 0.

    Nodes 0..m-1 are the rows and m..m+k-1 the columns; row 0 is its own
    parent.  Each potential is its cell's cost minus its tree parent's
    potential.  Nodes the walk does not reach keep a NaN potential.
    """
    m, k = in_basis.shape
    adj: list[list[int]] = [[] for _ in range(m + k)]
    rows, cols = np.nonzero(in_basis)
    for i, j in zip(rows.tolist(), cols.tolist()):
        adj[i].append(m + j)
        adj[m + j].append(i)
    pot = [float("nan")] * (m + k)
    parent = [-1] * (m + k)
    pot[0] = 0.0
    parent[0] = 0
    stack = [0]
    while stack:
        a = stack.pop()
        for b in adj[a]:
            if parent[b] < 0:
                parent[b] = a
                pot[b] = (cost[a][b - m] if a < m else cost[b][a - m]) - pot[a]
                stack.append(b)
    return np.array(pot[:m]), np.array(pot[m:]), parent


@dataclass(frozen=True)
class TransportCertificate:
    cost: float
    dual_gap: float
    iterations: int


def solve_transport(cost: np.ndarray, supply: np.ndarray, demand: np.ndarray):
    """Minimize sum c_ij x_ij over the transportation polytope.

    Bland's least-index entering rule plus a least-index leaving rule keep
    the simplex from cycling on degenerate instances.  Each pivot walks the
    basis tree once: the walk's potentials price the cells and its parent
    links close the entering cycle.  Returns the optimal flows and a
    duality certificate.
    """
    cost = np.asarray(cost, dtype=float)
    supply = np.asarray(supply, dtype=float).copy()
    demand = np.asarray(demand, dtype=float).copy()
    m, k = cost.shape
    if supply.shape[0] != m or demand.shape[0] != k:
        raise DimensionMismatch("cost matrix shape disagrees with marginals")
    if abs(float(np.sum(supply) - np.sum(demand))) > MARGINAL_TOL:
        raise MarginalMismatch("total supply and demand differ")

    flows, in_basis = _northwest_corner(supply, demand)
    cost_rows = cost.tolist()
    scale = 1e-12 * (1.0 + float(np.max(np.abs(cost))))

    iterations = 0
    max_pivots = 200 * (m * k + 10)
    while True:
        u, v, parent = _tree_duals(cost_rows, in_basis)
        if np.isnan(u).any() or np.isnan(v).any():
            raise InternalConsistencyError("basis tree lost connectivity")
        improving = (cost - u[:, None] - v[None, :] < -scale) & ~in_basis
        first = int(np.argmax(improving))
        if not improving.flat[first]:
            break
        iterations += 1
        if iterations > max_pivots:
            raise NonConvergence("transportation simplex exceeded pivot budget")
        entering = divmod(first, k)
        # The cycle runs from the entering column up to the first node it
        # shares with the entering row's path to the root, then down to the
        # entering row; its cells alternate +, - starting with the entering one.
        up = [entering[0]]
        while up[-1] != 0:
            up.append(parent[up[-1]])
        on_up = {node: pos for pos, node in enumerate(up)}
        path = [m + entering[1]]
        while path[-1] not in on_up:
            path.append(parent[path[-1]])
        path += reversed(up[:on_up[path[-1]]])
        cycle = [entering] + [(a, b - m) if a < m else (b, a - m)
                              for a, b in zip(path, path[1:])]
        minus = cycle[1::2]
        theta = min(flows[c] for c in minus)
        leaving = min(c for c in minus if flows[c] <= theta)
        for idx, c in enumerate(cycle):
            if idx % 2 == 0:
                flows[c] += theta
            else:
                flows[c] = max(flows[c] - theta, 0.0)
        in_basis[leaving] = False
        in_basis[entering] = True

    primal = float(np.sum(flows * cost))
    dual = float(np.dot(u, supply) + np.dot(v, demand))
    return flows, TransportCertificate(cost=primal,
                                       dual_gap=abs(primal - dual),
                                       iterations=iterations)


def _solve_w2(mu: DiscreteMeasure, nu: DiscreteMeasure
              ) -> tuple[float, np.ndarray, TransportCertificate]:
    """Exact 2-Wasserstein distance with the optimal flows between atoms."""
    if mu.ambient_dim != nu.ambient_dim:
        raise DimensionMismatch("measures live in different ambient spaces")
    diff = mu.points[:, None, :] - nu.points[None, :, :]
    cost = np.einsum("ijk,ijk->ij", diff, diff)
    flows, cert = solve_transport(cost, np.asarray(mu.weights),
                                  np.asarray(nu.weights))
    # Quadratic costs are nonnegative; clamp round-off dust before the root.
    total = cert.cost if cert.cost > 0.0 else 0.0
    return float(np.sqrt(total)), flows, cert


def exact_w2(mu: DiscreteMeasure, nu: DiscreteMeasure
             ) -> tuple[float, Coupling, TransportCertificate]:
    """Exact 2-Wasserstein distance with an optimal coupling.

    The returned certificate carries the LP cost, duality gap, and pivot
    count of the underlying transportation simplex.
    """
    dist, flows, cert = _solve_w2(mu, nu)
    return dist, _flow_coupling(mu, nu, flows), cert


def _flow_coupling(mu: DiscreteMeasure, nu: DiscreteMeasure,
                   flows: np.ndarray) -> Coupling:
    """Coupling carried by the positive flows between the atoms of mu and nu."""
    ii, jj = np.nonzero(flows > 0)
    return Coupling(mu.points[ii], nu.points[jj], flows[ii, jj], mu, nu)


# ---------------------------------------------------------------------------
# Gluing


@dataclass(frozen=True)
class TriCoupling:
    """Joint measure on triples (x, y, z) with declared pair marginals.

    Built by glue, whose construction makes the xy- and yz-marginals equal
    the declared couplings; they are not re-checked here.
    """

    x: np.ndarray
    y: np.ndarray
    z: np.ndarray
    weights: np.ndarray
    gamma_xy: Coupling
    gamma_yz: Coupling

    def __post_init__(self):
        for name in ("x", "y", "z"):
            object.__setattr__(self, name,
                               _freeze(np.atleast_2d(getattr(self, name))))
        object.__setattr__(self, "weights",
                           _freeze(np.asarray(self.weights, dtype=float)))

    def xz_coupling(self) -> Coupling:
        """Projection onto the outer coordinates."""
        return Coupling(self.x, self.z, self.weights,
                        self.gamma_xy.marginal_x, self.gamma_yz.marginal_y)


def glue(gamma_xy: Coupling, gamma_yz: Coupling) -> TriCoupling:
    """Compose two couplings over their shared middle marginal.

    Conditional independence given the shared atom: each y of positive mass
    contributes triples weighted gamma_xy(x,y) * gamma_yz(y,z) / mass(y).
    Middle atoms are matched by match_atoms, and each matched group must
    carry the same mass on both sides.  Triples come grouped by first
    appearance in gamma_xy.y, then by pair index on each side.
    """
    if gamma_xy.y.shape[1] != gamma_yz.x.shape[1]:
        raise DimensionMismatch("the shared marginals live in different spaces")
    wa, wb = gamma_xy.weights, gamma_yz.weights
    labels, _, net = match_atoms(np.vstack([gamma_xy.y, gamma_yz.x]),
                                 np.concatenate([wa, -wb]))
    bad = np.flatnonzero(np.abs(net) > MARGINAL_TOL)
    if bad.size:
        raise MarginalMismatch(
            f"shared marginal masses differ by {abs(net[bad[0]]):.3e}")
    left, right = labels[:wa.size], labels[wa.size:]
    mass = np.bincount(left, weights=wa, minlength=net.size)
    appears = np.full(net.size, wa.size)
    np.minimum.at(appears, left, np.arange(wa.size))
    a = np.flatnonzero((wa > 0) & (mass[left] > 0))
    a = a[np.argsort(appears[left[a]], kind="stable")]
    b = np.flatnonzero(wb > 0)
    b = b[np.argsort(right[b], kind="stable")]
    # Pair each a with the run b[lo : lo + count] of the b's in its group.
    lo = np.searchsorted(right[b], left[a])
    count = np.searchsorted(right[b], left[a], side="right") - lo
    aa = np.repeat(a, count)
    bb = b[np.repeat(lo - np.cumsum(count) + count, count) + np.arange(aa.size)]
    return TriCoupling(gamma_xy.x[aa], gamma_xy.y[aa], gamma_yz.y[bb],
                       wa[aa] * wb[bb] / mass[left[aa]], gamma_xy, gamma_yz)
