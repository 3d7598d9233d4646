"""Discrete optimal transport with quadratic cost.

A coupling is a finitely supported joint measure: weighted pairs (x, y).
That it couples two given measures is checked where it enters the library
(duality._validate_coupling), not where the library built it from them.
The exact 2-Wasserstein distance is computed by a transportation simplex
on the dense cost matrix: a least-cost starting basis, Dantzig pricing,
Bland's rule after a run of degenerate pivots so that it cannot cycle, and
tree potentials updated on the subtree each pivot cuts off.  Optimality is
certified through the LP dual, with potentials from a fresh tree walk.
The gluing construction composes two couplings over a shared marginal.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (DimensionMismatch, InternalConsistencyError,
                     MarginalMismatch, NonConvergence)
from .linalg import _as_float_array, _freeze
from .measures import (MARGINAL_TOL, DiscreteMeasure, _moment_matrix,
                       _weighted_square_sum, match_atoms, pushforward)


@dataclass(frozen=True)
class Coupling:
    """Joint measure on weighted pairs (x, y): finite, nonnegative weights
    of total mass one."""

    x: np.ndarray        # (m, n) first coordinates
    y: np.ndarray        # (m, n) second coordinates
    weights: np.ndarray  # (m,)

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

    @property
    def num_pairs(self) -> int:
        return self.weights.shape[0]

    def moment_matrix(self) -> np.ndarray:
        """sum_k w_k x_k y_k^T, the mixed second moment of the coupling."""
        return _moment_matrix(self.weights, self.x, self.y)


def product_coupling(mu: DiscreteMeasure, nu: DiscreteMeasure) -> Coupling:
    """Independent coupling: every atom pair with weight w_mu * w_nu."""
    xs = np.repeat(mu.points, nu.num_atoms, axis=0)
    ys = np.tile(nu.points, (mu.num_atoms, 1))
    w = np.outer(mu.weights, nu.weights).reshape(-1)
    return Coupling(xs, ys, w)


def graph_coupling(mu: DiscreteMeasure, T) -> Coupling:
    """Coupling supported on the graph of an atom-wise map."""
    return Coupling(mu.points, pushforward(mu, T).points, mu.weights)


def identity_coupling(mu: DiscreteMeasure) -> Coupling:
    return graph_coupling(mu, lambda x: x)


def coupling_cost(gamma: Coupling) -> float:
    """Quadratic transport cost sum_k w_k ||x_k - y_k||^2."""
    return float(_weighted_square_sum(gamma.weights, gamma.x - gamma.y))


# ---------------------------------------------------------------------------
# Transportation simplex


def _least_cost_basis(cost: np.ndarray, supply: np.ndarray,
                      demand: np.ndarray):
    """A basic feasible plan that fills the cheapest cells first.

    One pass over the cells in ascending cost, ties by index: a cell whose
    row and column are both open takes all the flow they allow and closes
    exactly one of them, the exhausted one, except that the last open row
    or column stays open until its partner closes.  A line closes at its
    last basic cell, so the m + k - 1 basic cells hold no cycle and span
    the rows and columns as a tree, zero flows included.
    """
    m, k = cost.shape
    flows = np.zeros((m, k))
    in_basis = np.zeros((m, k), dtype=bool)
    ra, rb = supply.tolist(), demand.tolist()
    row_open, col_open = [True] * m, [True] * k
    rows, cols = m, k
    order = np.argsort(cost, axis=None, kind="stable")
    for i, j in zip((order // k).tolist(), (order % k).tolist()):
        if not (row_open[i] and col_open[j]):
            continue
        t = min(ra[i], rb[j])
        flows[i, j] = t
        in_basis[i, j] = True
        ra[i] = max(ra[i] - t, 0.0)
        rb[j] = max(rb[j] - t, 0.0)
        if (ra[i] <= rb[j] and rows > 1) or cols == 1:
            row_open[i] = False
            rows -= 1
        else:
            col_open[j] = False
            cols -= 1
        if rows + cols == 1:
            return flows, in_basis


def _adjacency(in_basis: np.ndarray) -> list[list[int]]:
    """Neighbour lists of the basis tree: rows 0..m-1, columns m..m+k-1."""
    m, k = in_basis.shape
    adj: list[list[int]] = [[] for _ in range(m + k)]
    rows, cols = np.nonzero(in_basis)
    for i, j in zip(rows.tolist(), cols.tolist()):
        adj[i].append(m + j)
        adj[m + j].append(i)
    return adj


def _tree_duals(cost: list[list[float]], in_basis: np.ndarray):
    """Row and column potentials of the basis tree, from one DFS at row 0.

    Nodes 0..m-1 are the rows and m..m+k-1 the columns.  Each potential is
    its cell's cost minus its tree parent's potential, and row 0's is 0.
    Nodes the walk does not reach keep a NaN potential.
    """
    m, k = in_basis.shape
    adj = _adjacency(in_basis)
    pot = [float("nan")] * (m + k)
    seen = [False] * (m + k)
    pot[0] = 0.0
    seen[0] = True
    stack = [0]
    while stack:
        a = stack.pop()
        for b in adj[a]:
            if not seen[b]:
                seen[b] = True
                pot[b] = (cost[a][b - m] if a < m else cost[b][a - m]) - pot[a]
                stack.append(b)
    return np.array(pot[:m]), np.array(pot[m:])


def _hang(node: int, cost: list[list[float]], adj: list[list[int]],
          pot: list[float], parent: list[int], depth: list[int]):
    """Re-derive parent links, depths and potentials below `node`.

    `parent[node]`, `depth[node]` and `pot[node]` must already be set; every
    other node reachable from `node` without passing its parent is re-hung
    under it, its potential being its cell's cost minus its new parent's.
    """
    m = len(cost)
    stack = [node]
    while stack:
        a = stack.pop()
        for b in adj[a]:
            if b != parent[a]:
                parent[b] = a
                depth[b] = depth[a] + 1
                pot[b] = (cost[a][b - m] if a < m else cost[b][a - m]) - pot[a]
                stack.append(b)


# Consecutive degenerate pivots (theta = 0) after which the entering cell is
# chosen by Bland's least-index rule instead of the most negative reduced
# cost, until the next pivot that moves flow.  Bland's rule cannot cycle,
# and every pivot that moves flow lowers the cost, so the simplex terminates.
DEGENERATE_RUN = 50


@dataclass(frozen=True)
class TransportCertificate:
    cost: float
    dual_gap: float
    iterations: int


def _price_scale(cost: np.ndarray):
    """The simplex's slack on a reduced cost, per matrix of a stack."""
    return 1e-12 * (1.0 + np.abs(cost).max(axis=(-2, -1)))


def _certify_identity(cost: np.ndarray, w: np.ndarray):
    """Which matrices of a stack of costs (T, m, m) the identity plan diag(w)
    is optimal for, with the plan's cost under each: diag(w) couples any two
    measures whose atom i weighs w_i on both sides.  Potentials are shortest
    paths on the plan's residual graph (i -> j at c_ij on every cell, and
    i -> i back at -c_ii where w_i > 0), by Bellman-Ford rounds that relax
    all edges at once until every reduced cost passes the simplex's stopping
    test; a matrix that 2m rounds do not settle has a negative cycle.  A
    non-finite cost is a ValueError."""
    cost = _as_float_array(cost, "transport cost")
    stack, m, _ = cost.shape
    scale = _price_scale(cost)
    positive = w > 0.0
    back = np.where(positive, -np.diagonal(cost, axis1=1, axis2=2), np.inf)
    # A matrix settles when its reduced costs are >= lower, and <= upper:
    # the simplex's slack, on the diagonal cells with flow.
    lower = -scale
    upper = np.where(positive, scale[:, None], np.inf)
    certified = np.zeros(stack, dtype=bool)
    # The matrices not yet settled, with their row and column potentials.
    left = np.arange(stack)
    row, col = np.zeros((stack, m)), np.zeros((stack, m))
    c = cost
    for _ in range(2 * m):
        row = np.minimum(row, col + back)
        reduced = c + row[:, :, None] - col[:, None, :]
        settled = reduced.min(axis=(1, 2)) >= lower
        if np.count_nonzero(settled):   # the cheaper test first
            settled &= (np.diagonal(reduced, axis1=1, axis2=2)
                        <= upper).all(axis=1)
        count = np.count_nonzero(settled)
        if count:
            certified[left[settled]] = True
            if count == settled.size:
                break
            keep = ~settled
            left, row, col = left[keep], row[keep], col[keep]
            c, back, lower, upper = c[keep], back[keep], lower[keep], upper[keep]
        col = np.minimum(col, (row[:, :, None] + c).min(axis=1))
    primal = (np.diag(w) * cost).reshape(stack, -1).sum(axis=1)
    return certified, primal


def solve_transport(cost: np.ndarray, supply: np.ndarray, demand: np.ndarray):
    """Minimize sum c_ij x_ij over the transportation polytope.

    The simplex starts from the least-cost basis, which fills the cells in
    ascending cost.  The entering cell has the most negative reduced cost
    (Dantzig's rule); after DEGENERATE_RUN consecutive degenerate pivots it
    is the least-index improving cell (Bland's rule) until flow moves again.
    The leaving cell is the least-index blocking cell of the entering cycle.
    The basis tree keeps its adjacency, parent links and depths across
    pivots; a pivot re-hangs only the subtree that the leaving cell cuts
    off, under the entering cell, and re-prices that subtree's potentials.
    Optimality is certified by one fresh walk of the final tree, whose
    potentials price every cell again and give the dual gap.  Returns the
    optimal flows and a duality certificate.  A cost with a non-finite
    entry, such as a squared distance that overflowed, or a negative or
    non-finite supply or demand, is a ValueError.
    """
    cost = _as_float_array(cost, "transport cost")
    supply = _as_float_array(supply, "supply")
    demand = _as_float_array(demand, "demand")
    m, k = cost.shape
    if supply.shape != (m,) or demand.shape != (k,):
        raise DimensionMismatch("cost matrix shape disagrees with marginals")
    if supply.min(initial=0.0) < 0.0 or demand.min(initial=0.0) < 0.0:
        raise ValueError("supply and demand must be nonnegative")
    if abs(float(np.sum(supply) - np.sum(demand))) > MARGINAL_TOL:
        raise MarginalMismatch("total supply and demand differ")
    scale = float(_price_scale(cost))

    flows, in_basis = _least_cost_basis(cost, supply, demand)
    flow = flows.tolist()
    cost_rows = cost.tolist()
    adj = _adjacency(in_basis)
    pot = [0.0] * (m + k)
    parent = [0] * (m + k)
    depth = [0] * (m + k)
    _hang(0, cost_rows, adj, pot, parent, depth)
    reduced = np.empty_like(cost)

    iterations = 0
    degenerate = 0
    fresh = False
    max_pivots = 200 * (m * k + 10)
    while True:
        p = np.array(pot)
        np.subtract(cost, p[:m, None], out=reduced)
        reduced -= p[m:]
        reduced[in_basis] = 0.0
        if degenerate < DEGENERATE_RUN:
            first = reduced.argmin()
        else:
            # Kept as np.argmax: tests count Bland pivots through this call.
            first = int(np.argmax(reduced < -scale))
        if not reduced.item(first) < -scale:
            if fresh:
                break
            # Certify with an independent walk of the basis mask.  It
            # re-derives the potentials that _hang keeps along the same tree
            # paths, so on a sound tree the two agree bit for bit.
            u, v = _tree_duals(cost_rows, in_basis)
            if np.isnan(u).any() or np.isnan(v).any():
                raise InternalConsistencyError("basis tree lost connectivity")
            pot = u.tolist() + v.tolist()
            fresh = True
            continue
        fresh = False
        iterations += 1
        if iterations > max_pivots:
            raise NonConvergence("transportation simplex exceeded pivot budget")
        i, j = divmod(int(first), k)
        # Walk both ends of the entering cell up to their common ancestor.
        # The cycle runs from column j up to it and down to row i; its cells
        # alternate -, + after the entering cell's +.  Each tree cell is
        # named by its lower node.
        a, b = i, m + j
        row_side, col_side = [], []
        while a != b:
            if depth[a] >= depth[b]:
                row_side.append(a)
                a = parent[a]
            else:
                col_side.append(b)
                b = parent[b]
        lower = col_side + row_side[::-1]
        cells = [(x, parent[x] - m) if x < m else (parent[x], x - m)
                 for x in lower]
        minus = cells[0::2]
        theta = min(flow[a][b] for a, b in minus)
        leaving = min(c for c in minus if flow[c[0]][c[1]] <= theta)
        cut = cells.index(leaving)
        if theta > 0.0:
            degenerate = 0
            flow[i][j] += theta
            for a, b in cells[1::2]:
                flow[a][b] += theta
            for a, b in minus:
                flow[a][b] = max(flow[a][b] - theta, 0.0)
        else:
            degenerate += 1
        in_basis[leaving] = False
        in_basis[i, j] = True
        x = lower[cut]
        adj[x].remove(parent[x])
        adj[parent[x]].remove(x)
        adj[i].append(m + j)
        adj[m + j].append(i)
        # The subtree below x holds the entering cell's column when x lies
        # on the column side; it is re-hung from that end of the cell.
        top, bottom = (i, m + j) if cut < len(col_side) else (m + j, i)
        parent[bottom] = top
        depth[bottom] = depth[top] + 1
        pot[bottom] = cost_rows[i][j] - pot[top]
        _hang(bottom, cost_rows, adj, pot, parent, depth)

    flows = np.array(flow)
    primal = float(np.sum(flows * cost))
    dual = float(np.dot(p[:m], supply) + np.dot(p[m:], demand))
    return flows, TransportCertificate(cost=primal,
                                       dual_gap=abs(primal - dual),
                                       iterations=iterations)


# Coordinate differences in one block that _squared_distances builds: it
# pairs as many rows of x with y as fit, so memory stays fixed at any size,
# and each entry is summed over the coordinates exactly as in one block.
SQDIST_CELLS = 1 << 16


def _squared_distances(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """||x_i - y_j||^2 between the rows of x (m, n) and of y (k, n), as an
    (m, k) array built in blocks of rows of x of at most SQDIST_CELLS
    differences (one row at least)."""
    rows = max(1, SQDIST_CELLS // y.size)
    out = np.empty((x.shape[0], y.shape[0]))
    for lo in range(0, x.shape[0], rows):
        diff = x[lo:lo + rows, None, :] - y
        np.einsum("ijk,ijk->ij", diff, diff, out=out[lo:lo + rows])
    return out


def _root_cost(total):
    """W2 from a plan's quadratic cost, which is nonnegative: round-off dust
    below zero is clamped before the root."""
    return np.sqrt(np.where(total > 0.0, total, 0.0))


def _w2_of_cost(cost: np.ndarray, wx: np.ndarray, wy: np.ndarray
                ) -> tuple[float, np.ndarray, TransportCertificate]:
    """Exact 2-Wasserstein distance with the optimal flows, between measures
    of weights wx and wy whose squared distances are `cost`."""
    flows, cert = solve_transport(cost, wx, wy)
    return float(_root_cost(cert.cost)), flows, cert


def exact_w2(mu: DiscreteMeasure, nu: DiscreteMeasure
             ) -> tuple[float, Coupling, TransportCertificate]:
    """Exact 2-Wasserstein distance with an optimal coupling.

    The returned certificate carries the LP cost, duality gap, and pivot
    count of the underlying transportation simplex.
    """
    if mu.ambient_dim != nu.ambient_dim:
        raise DimensionMismatch("measures live in different ambient spaces")
    dist, flows, cert = _w2_of_cost(_squared_distances(mu.points, nu.points),
                                    mu.weights, nu.weights)
    return dist, _flow_coupling(mu, nu, flows), cert


def _flow_coupling(mu: DiscreteMeasure, nu: DiscreteMeasure,
                   flows: np.ndarray) -> Coupling:
    """Coupling carried by the positive flows between the atoms of mu and nu."""
    ii, jj = np.nonzero(flows > 0)
    return Coupling(mu.points[ii], nu.points[jj], flows[ii, jj])


# ---------------------------------------------------------------------------
# Gluing


@dataclass(frozen=True)
class TriCoupling:
    """Joint measure on triples (x, y, z).

    Built by glue, whose construction makes the xy- and yz-marginals the
    two glued couplings; they are neither stored nor re-checked here.
    """

    x: np.ndarray
    y: np.ndarray
    z: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        for name in ("x", "y", "z"):
            object.__setattr__(self, name,
                               _freeze(np.atleast_2d(getattr(self, name))))
        object.__setattr__(self, "weights",
                           _freeze(np.asarray(self.weights, dtype=float)))

    def xz_coupling(self) -> Coupling:
        """Projection onto the outer coordinates."""
        return Coupling(self.x, self.z, self.weights)


def glue(xy: Coupling, yz: Coupling) -> TriCoupling:
    """Compose two couplings over their shared middle marginal.

    Conditional independence given the shared atom: each y of positive mass
    contributes triples weighted xy(x,y) * yz(y,z) / mass(y).
    Middle atoms are matched by match_atoms, and each matched group must
    carry the same mass on both sides.  Triples come grouped by first
    appearance in xy.y, then by pair index on each side.
    """
    if xy.y.shape[1] != yz.x.shape[1]:
        raise DimensionMismatch("the shared marginals live in different spaces")
    wa, wb = xy.weights, yz.weights
    labels, _, net = match_atoms(np.vstack([xy.y, yz.x]),
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
    return TriCoupling(xy.x[aa], xy.y[aa], yz.y[bb],
                       wa[aa] * wb[bb] / mass[left[aa]])
