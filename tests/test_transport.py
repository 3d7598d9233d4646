
import itertools

import numpy as np
import pytest
from hypothesis import given, strategies as st

from obliqueframes import (
    Coupling,
    DimensionMismatch,
    DiscreteMeasure,
    InternalConsistencyError,
    MarginalMismatch,
    NonConvergence,
    coupling_cost,
    dirac,
    exact_w2,
    glue,
    graph_coupling,
    identity_coupling,
    is_oblique_dual_measure,
    product_coupling,
    pushforward,
    uniform_atoms,
    solve_transport,
    weak_equal,
)
from obliqueframes import transport
from obliqueframes.gallery import skew_line_measures
from obliqueframes.measures import POSITION_TOL, is_marginal


def sorted_quantile_w2_1d(x, wx, y, wy):
    """Independent 1-D oracle: monotone (quantile) matching with integer
    weights, exact rational arithmetic in the mass bookkeeping."""
    ox = np.argsort(x)
    oy = np.argsort(y)
    x, wx = [x[i] for i in ox], [wx[i] for i in ox]
    y, wy = [y[i] for i in oy], [wy[i] for i in oy]
    total = sum(wx)
    assert total == sum(wy)
    cost = 0.0
    i = j = 0
    ax, ay = wx[0], wy[0]
    while True:
        t = min(ax, ay)
        cost += t * (x[i] - y[j]) ** 2
        ax -= t
        ay -= t
        if ax == 0:
            i += 1
            if i == len(x):
                break
            ax = wx[i]
        if ay == 0:
            j += 1
            ay = wy[j]
    return np.sqrt(cost / total)


def random_integer_weighted_1d(rng, max_atoms=12):
    m = int(rng.integers(1, max_atoms + 1))
    pts = rng.uniform(-5.0, 5.0, size=m)
    counts = rng.integers(1, 10, size=m)
    return pts, counts


def brute_force_assignment_cost(cost):
    """Independent oracle for uniform weights on m = k atoms: by Birkhoff's
    theorem some permutation matrix is an optimal plan, so scan them all."""
    m = cost.shape[0]
    return min(sum(cost[i, p[i]] for i in range(m))
               for p in itertools.permutations(range(m))) / m


def highs_transport_cost(cost, supply, demand):
    """Independent LP oracle: HiGHS dual simplex on the same program.  Its
    default feasibility tolerances admit slightly negative flows that
    undercut the optimum by ~3e-9 relative, so both are tightened."""
    from scipy.optimize import linprog
    from scipy.sparse import eye, kron, vstack

    m, k = cost.shape
    rows = kron(eye(m), np.ones((1, k)))
    cols = kron(np.ones((1, m)), eye(k))
    res = linprog(cost.reshape(-1), A_eq=vstack([rows, cols]).tocsr(),
                  b_eq=np.concatenate([supply, demand]), bounds=(0, None),
                  method="highs-ds",
                  options={"primal_feasibility_tolerance": 1e-10,
                           "dual_feasibility_tolerance": 1e-10})
    assert res.status == 0, res.message
    return float(res.fun)


def squared_distances(x, y):
    diff = x[:, None, :] - y[None, :, :]
    return np.einsum("ijk,ijk->ij", diff, diff)


def random_instance(m, dim):
    """Seeded m x m transport problem: Gaussian atoms in R^dim, random weights."""
    rng = np.random.default_rng([m, dim])
    cost = squared_distances(rng.standard_normal((m, dim)),
                             rng.standard_normal((m, dim)))
    supply = rng.random(m) + 0.1
    demand = rng.random(m) + 0.1
    return cost, supply / supply.sum(), demand / demand.sum()


def jitter_family(m, seed, dim=3):
    """A seeded random m-atom measure and a jitter direction per atom: its
    atoms x, weights w, directions d, and the unit scale s0 at which the
    identity plan costs the measure's lower frame bound."""
    rng = np.random.default_rng([m, seed])
    x = rng.standard_normal((m, dim))
    w = 0.2 + rng.random(m)
    w /= w.sum()
    d = rng.standard_normal((m, dim))
    lower = np.linalg.eigvalsh((w[:, None] * x).T @ x)[0]
    return x, w, d, np.sqrt(lower / np.sum(w * np.einsum("ki,ki->k", d, d)))


def jitter_instance(m, eps, seed, dim=3):
    """Seeded W2 problem between a random m-atom measure and its jitter,
    sized as the interiority sampler's first probe: the identity plan costs
    eps^2 times the measure's lower frame bound.  Returns the cost matrix
    and the common weights."""
    x, w, d, unit = jitter_family(m, seed, dim)
    return squared_distances(x, x + eps * unit * d), w


def certify_identity(cost, w):
    """The identity kernel's decision on one cost matrix, and diag(w)'s cost
    under it, from a stack of one."""
    certified, primal = transport._certify_identity(cost[None], w)
    return bool(certified[0]), float(primal[0])


class BlandCounter:
    """numpy as the transport module sees it, counting the improving cells
    that np.argmax picks: the simplex calls it only for Bland's rule."""

    def __init__(self):
        self.pivots = 0

    def __getattr__(self, name):
        return getattr(np, name)

    def argmax(self, a, *args, **kwargs):
        first = np.argmax(a, *args, **kwargs)
        self.pivots += bool(a.flat[first])
        return first


def spanning_tree_cells(m, k, cells):
    """Whether the cells (i, j) join the m rows and k columns as a tree:
    m + k - 1 of them, and none closes a cycle (union-find)."""
    root = list(range(m + k))

    def find(a):
        while root[a] != a:
            a = root[a]
        return a

    for i, j in cells:
        a, b = find(i), find(m + j)
        if a == b:
            return False
        root[a] = b
    return len(cells) == m + k - 1


class TestCouplings:
    def test_product_of_diracs(self):
        gamma = product_coupling(dirac([1.0]), dirac([-2.0]))
        assert gamma.num_pairs == 1
        assert gamma.weights[0] == 1.0

    def test_skew_line_product_coupling(self):
        mu, nu, gamma = skew_line_measures()
        assert gamma.num_pairs == 2
        assert np.allclose(sorted(gamma.weights), [0.5, 0.5])

    def test_marginals_validated_at_construction(self):
        mu = DiscreteMeasure([[0.0], [1.0]], [0.5, 0.5])
        nu = DiscreteMeasure([[2.0], [3.0]], [0.5, 0.5])
        with pytest.raises(MarginalMismatch):
            is_oblique_dual_measure(mu, nu, Coupling([[0.0]], [[2.0]], [1.0]))

    def test_marginal_atoms_need_not_be_lexsort_neighbours(self):
        a = DiscreteMeasure([[0.0, 1.0], [0.0, 2.0]], [0.5, 0.5])
        b = DiscreteMeasure([[1e-12, 1.0], [0.0, 2.0]], [0.5, 0.5])
        gamma = Coupling(a.points, b.points, [0.5, 0.5])
        assert gamma.num_pairs == 2
        assert is_marginal(gamma.x, gamma.weights, a)
        assert is_marginal(gamma.y, gamma.weights, a)

    @given(st.integers(0, 5_000))
    def test_product_coupling_marginals_always_pass(self, seed):
        rng = np.random.default_rng(seed)
        m, k = int(rng.integers(1, 6)), int(rng.integers(1, 6))
        wa = rng.random(m) + 0.1
        wb = rng.random(k) + 0.1
        mu = DiscreteMeasure(rng.standard_normal((m, 2)), wa / wa.sum())
        nu = DiscreteMeasure(rng.standard_normal((k, 2)), wb / wb.sum())
        gamma = product_coupling(mu, nu)
        assert gamma.num_pairs == m * k
        assert is_marginal(gamma.x, gamma.weights, mu)
        assert is_marginal(gamma.y, gamma.weights, nu)


class TestCouplingCost:
    def test_identity_coupling_costs_nothing(self):
        mu, _, _ = skew_line_measures()
        assert coupling_cost(identity_coupling(mu)) == 0.0

    def test_single_pair(self):
        gamma = product_coupling(dirac([0.0, 0.0]), dirac([3.0, 4.0]))
        assert coupling_cost(gamma) == pytest.approx(25.0)

    def test_product_of_two_point_measures(self):
        mu = uniform_atoms([[0.0], [1.0]])
        gamma = product_coupling(mu, mu)
        assert coupling_cost(gamma) == pytest.approx(0.5)


class TestExactW2:
    def test_self_distance_is_zero(self):
        mu, _, _ = skew_line_measures()
        d, _, cert = exact_w2(mu, mu)
        assert d <= 1e-12
        assert cert.dual_gap <= 1e-9

    def test_dirac_to_dirac(self):
        d, _, _ = exact_w2(dirac([0.0, 0.0]), dirac([3.0, 4.0]))
        assert d == pytest.approx(5.0)

    def test_sorted_matching_on_shifted_pairs(self):
        d, _, _ = exact_w2(uniform_atoms([[0.0], [1.0]]),
                           uniform_atoms([[2.0], [3.0]]))
        assert d == pytest.approx(2.0, abs=1e-12)

    @given(st.integers(0, 10_000))
    def test_matches_1d_quantile_oracle(self, seed):
        rng = np.random.default_rng(seed)
        xs, cx = random_integer_weighted_1d(rng)
        ys, cy = random_integer_weighted_1d(rng)
        # Rebalance the integer masses so both sides total the same.
        total = int(np.sum(cx) * np.sum(cy))
        cx = cx * (total // np.sum(cx))
        cy = cy * (total // np.sum(cy))
        mu = DiscreteMeasure(xs[:, None], cx / total)
        nu = DiscreteMeasure(ys[:, None], cy / total)
        want = sorted_quantile_w2_1d(xs, list(map(int, cx)),
                                     ys, list(map(int, cy)))
        got, gamma, cert = exact_w2(mu, nu)
        assert got == pytest.approx(want, abs=1e-9)
        assert cert.dual_gap <= 1e-9
        assert coupling_cost(gamma) == pytest.approx(cert.cost, abs=1e-12)

    @given(st.integers(0, 5_000))
    def test_metric_axioms(self, seed):
        rng = np.random.default_rng(seed)
        measures = []
        for _ in range(3):
            m = int(rng.integers(1, 6))
            w = rng.random(m) + 0.1
            measures.append(DiscreteMeasure(rng.standard_normal((m, 2)),
                                            w / w.sum()))
        a, b, c = measures
        dab = exact_w2(a, b)[0]
        dba = exact_w2(b, a)[0]
        dac = exact_w2(a, c)[0]
        dcb = exact_w2(c, b)[0]
        assert abs(dab - dba) <= 1e-9
        assert dab <= dac + dcb + 1e-9
        assert exact_w2(a, a)[0] <= 1e-9

    def test_identity_of_indiscernibles(self):
        a = DiscreteMeasure([[0.0, 1.0], [1.0, 0.0]], [0.25, 0.75])
        b = DiscreteMeasure([[1.0, 0.0], [0.0, 1.0]], [0.75, 0.25])
        assert exact_w2(a, b)[0] <= 1e-9
        assert weak_equal(a, b)
        c = DiscreteMeasure([[1.0, 0.0], [0.0, 1.0]], [0.7, 0.3])
        assert exact_w2(a, c)[0] > 1e-9
        assert not weak_equal(a, c)

    @given(st.integers(0, 5_000))
    def test_any_feasible_coupling_upper_bounds_the_distance(self, seed):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(1, 7))
        w = rng.random(m) + 0.1
        mu = DiscreteMeasure(rng.standard_normal((m, 3)), w / w.sum())
        k = int(rng.integers(1, 7))
        u = rng.random(k) + 0.1
        nu = DiscreteMeasure(rng.standard_normal((k, 3)), u / u.sum())
        d, gamma_opt, _ = exact_w2(mu, nu)
        feasible = product_coupling(mu, nu)
        assert d <= np.sqrt(coupling_cost(feasible)) + 1e-9
        assert d == pytest.approx(np.sqrt(coupling_cost(gamma_opt)), abs=1e-9)

    def test_lost_basis_connectivity_is_an_internal_error(self, monkeypatch):
        def disconnected(cost, in_basis):
            m, k = in_basis.shape
            return np.full(m, np.nan), np.full(k, np.nan)

        monkeypatch.setattr(transport, "_tree_duals", disconnected)
        with pytest.raises(InternalConsistencyError, match="connectivity"):
            solve_transport(np.ones((2, 2)), [0.5, 0.5], [0.5, 0.5])

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_cost_is_rejected_before_any_start(self, bad):
        # Unchecked, an inf entry came back as a certificate with a nan cost
        # and dual gap, and the interiority sampler hit a lost basis tree.
        cost = np.array([[0.0, bad], [bad, 0.0]])
        w = np.array([0.5, 0.5])
        with pytest.raises(ValueError, match="non-finite"):
            solve_transport(cost, w, w)
        with pytest.raises(ValueError, match="non-finite"):
            certify_identity(cost, w)

    @pytest.mark.parametrize("supply, demand, match", [
        ([np.nan, 1.0], [0.5, 0.5], "non-finite"),
        ([0.5, 0.5], [np.inf, -np.inf], "non-finite"),
        ([1.5, -0.5], [0.5, 0.5], "nonnegative"),
        ([0.5, 0.5], [-0.5, 1.5], "nonnegative"),
    ])
    def test_invalid_marginals_are_rejected(self, supply, demand, match):
        # Unchecked, a nan supply came back as a certificate with a nan
        # cost, and a negative one as negative flows with dual gap 0.
        with pytest.raises(ValueError, match=match):
            solve_transport(np.ones((2, 2)), supply, demand)

    def test_a_scalar_marginal_is_a_dimension_mismatch(self):
        # It raised an IndexError.
        with pytest.raises(DimensionMismatch, match="disagrees"):
            solve_transport(np.ones((1, 1)), 1.0, [1.0])

    def test_exhausted_pivot_budget_is_nonconvergence(self, monkeypatch):
        # Duals that price every nonbasic cell negative keep it pivoting.
        real_tree_duals = transport._tree_duals

        def always_improvable(cost, in_basis):
            u, v = real_tree_duals(cost, in_basis)
            return np.full_like(u, 10.0), np.zeros_like(v)

        monkeypatch.setattr(transport, "_tree_duals", always_improvable)
        with pytest.raises(NonConvergence, match="pivot budget"):
            solve_transport(np.ones((2, 2)), [0.5, 0.5], [0.5, 0.5])

    def test_degenerate_weights_with_zero_atoms(self):
        mu = DiscreteMeasure([[0.0], [1.0], [5.0]], [0.5, 0.5, 0.0])
        nu = DiscreteMeasure([[2.0], [3.0]], [0.5, 0.5])
        d, _, cert = exact_w2(mu, nu)
        assert d == pytest.approx(2.0, abs=1e-9)
        assert cert.dual_gap <= 1e-9


class TestTransportOracles:
    @staticmethod
    def uniform_assignment(dim, seed, rounded):
        # Integer-rounded points tie many costs, which drives the simplex
        # through degenerate pivots, and may make the identity plan optimal
        # alongside other permutations.
        rng = np.random.default_rng(seed)
        m = int(rng.integers(1, 7))
        x = 2.0 * rng.standard_normal((m, dim))
        y = 2.0 * rng.standard_normal((m, dim))
        if rounded:
            x, y = np.round(x), np.round(y)
        cost = squared_distances(x, y)
        return cost, np.full(m, 1.0 / m), brute_force_assignment_cost(cost)

    @pytest.mark.parametrize("dim", [2, 3, 64])
    @given(seed=st.integers(0, 10_000), rounded=st.booleans())
    def test_uniform_assignments_match_brute_force(self, dim, seed, rounded):
        cost, uniform, want = self.uniform_assignment(dim, seed, rounded)
        flows, cert = solve_transport(cost, uniform, uniform)
        assert cert.cost == pytest.approx(want, rel=1e-12, abs=1e-12)
        assert cert.dual_gap <= 1e-9 * (1.0 + want)
        assert np.all(flows >= 0.0)
        assert np.allclose(flows.sum(axis=1), uniform, atol=1e-12)
        assert np.allclose(flows.sum(axis=0), uniform, atol=1e-12)

    @pytest.mark.parametrize("dim", [2, 3, 64])
    @given(seed=st.integers(0, 10_000), rounded=st.booleans())
    def test_identity_start_assignments_match_brute_force(self, dim, seed,
                                                          rounded):
        # The identity kernel certifies diag(w) exactly when no permutation
        # is cheaper.
        cost, uniform, want = self.uniform_assignment(dim, seed, rounded)
        certified, primal = certify_identity(cost, uniform)
        if certified:
            assert primal == pytest.approx(want, rel=1e-12, abs=1e-12)
        else:
            assert want < primal

    def test_bland_guard_matches_brute_force(self, monkeypatch):
        # A run length of 1 hands every pivot after a degenerate one to
        # Bland's rule, so the guard decides most pivots of these
        # assignments: 93 of 167 from the least-cost start.
        monkeypatch.setattr(transport, "DEGENERATE_RUN", 1)
        bland = BlandCounter()
        monkeypatch.setattr(transport, "np", bland)
        rng = np.random.default_rng(2011)
        for _ in range(40):
            m = int(rng.integers(2, 7))
            x = np.round(2.0 * rng.standard_normal((m, 3)))
            y = np.round(2.0 * rng.standard_normal((m, 3)))
            cost = squared_distances(x, y)
            uniform = np.full(m, 1.0 / m)
            _, cert = solve_transport(cost, uniform, uniform)
            want = brute_force_assignment_cost(cost)
            assert cert.cost == pytest.approx(want, rel=1e-12, abs=1e-12)
            assert cert.dual_gap <= 1e-9 * (1.0 + want)
        assert bland.pivots >= 80

    def test_dantzig_pricing_pivot_count(self):
        # Bland's rule alone took 22,729 pivots on this instance, and
        # Dantzig's rule from the northwest corner 900; from the least-cost
        # start it takes 330.
        cost, supply, demand = random_instance(120, 4)
        _, cert = solve_transport(cost, supply, demand)
        assert cert.iterations <= 360

    @pytest.mark.parametrize("dim, m", [(4, 30), (4, 60), (64, 30), (64, 60),
                                        (4, 120), (4, 200)])
    def test_agrees_with_highs(self, m, dim):
        pytest.importorskip("scipy")
        cost, supply, demand = random_instance(m, dim)
        _, cert = solve_transport(cost, supply, demand)
        want = highs_transport_cost(cost, supply, demand)
        assert cert.cost == pytest.approx(want, rel=1e-9)
        assert cert.dual_gap <= 1e-9 * want

    def test_envelope_agrees_with_highs(self):
        # The size the README advertises: a few hundred atoms in R^64.
        pytest.importorskip("scipy")
        cost, supply, demand = random_instance(200, 64)
        _, cert = solve_transport(cost, supply, demand)
        want = highs_transport_cost(cost, supply, demand)
        assert cert.cost == pytest.approx(want, rel=1e-9)
        assert cert.dual_gap <= 1e-9 * (1.0 + cert.cost)


class TestLeastCostStart:
    @staticmethod
    def check_start(cost, supply, demand):
        m, k = cost.shape
        flows, in_basis = transport._least_cost_basis(cost, supply, demand)
        assert in_basis.sum() == m + k - 1
        assert spanning_tree_cells(m, k, list(zip(*np.nonzero(in_basis))))
        assert np.all(flows[~in_basis] == 0.0)
        assert flows.min() >= 0.0
        assert np.abs(flows.sum(axis=1) - supply).max() <= 1e-12
        assert np.abs(flows.sum(axis=0) - demand).max() <= 1e-12

    @pytest.mark.parametrize("m, k", [(1, 1), (1, 6), (6, 1), (3, 7), (7, 3),
                                      (8, 8)])
    @pytest.mark.parametrize("lattice", [False, True])
    @pytest.mark.parametrize("zeros", [False, True])
    def test_start_is_a_feasible_spanning_tree(self, m, k, lattice, zeros):
        # Integer lattice points tie many costs; zero weights make cells
        # that carry no flow, which must still join the tree.
        for seed in range(20):
            rng = np.random.default_rng([m, k, seed])
            x = 2.0 * rng.standard_normal((m, 2))
            y = 2.0 * rng.standard_normal((k, 2))
            if lattice:
                x, y = np.round(x), np.round(y)
            supply, demand = rng.random(m) + 0.1, rng.random(k) + 0.1
            if zeros:
                supply[rng.random(m) < 0.5] = 0.0
                demand[rng.random(k) < 0.5] = 0.0
                supply[0] = demand[-1] = 1.0
            self.check_start(squared_distances(x, y), supply / supply.sum(),
                             demand / demand.sum())

    def test_all_costs_tied(self):
        supply, demand = np.array([0.5, 0.0, 0.5]), np.array([0.25, 0.75])
        self.check_start(np.zeros((3, 2)), supply, demand)


class TestCertifiedStart:
    """The identity kernel: diag(w) between a measure and its jitters."""

    SEEDS = range(10)

    @pytest.mark.parametrize("m", [12, 50])
    @pytest.mark.parametrize("eps", [0.01, 0.1, 0.5])
    def test_certified_jitters_equal_the_simplex(self, m, eps):
        certified = 0
        for seed in self.SEEDS:
            cost, w = jitter_instance(m, eps, seed)
            flows, cert = solve_transport(cost, w, w)
            ok, primal = certify_identity(cost, w)
            if ok:
                certified += 1
                assert primal == cert.cost
                assert np.array_equal(flows, np.diag(w))
            else:
                assert cert.cost < primal
        if eps <= 0.1:
            assert certified == len(self.SEEDS)

    @pytest.mark.parametrize("m", [12, 50])
    @pytest.mark.parametrize("eps", [1.0, 2.0])
    def test_fallback_is_the_simplex(self, m, eps):
        # A trial whose diag(w) is refused falls back to the simplex, which
        # must then find a cheaper plan: the refusal is never spurious.
        fallbacks = 0
        for seed in self.SEEDS:
            cost, w = jitter_instance(m, eps, seed)
            flows, cert = solve_transport(cost, w, w)
            ok, primal = certify_identity(cost, w)
            if ok:
                assert primal == cert.cost
            else:
                fallbacks += 1
                assert cert.cost < primal
                assert not np.array_equal(flows > 0.0, np.diag(w) > 0.0)
        assert fallbacks > 0

    @pytest.mark.parametrize("m", [12, 50])
    @pytest.mark.parametrize("eps", [0.01, 0.1, 0.5, 1.0, 2.0])
    def test_agrees_with_highs(self, m, eps):
        pytest.importorskip("scipy")
        for seed in range(3):
            cost, w = jitter_instance(m, eps, seed)
            certified, primal = certify_identity(cost, w)
            want = highs_transport_cost(cost, w, w)
            if certified:
                assert primal == pytest.approx(want, rel=1e-9, abs=1e-15)
            else:
                assert want < primal * (1.0 - 1e-9)

    def test_zero_weight_atoms(self):
        x = np.array([[0.0], [1.0], [5.0], [9.0]])
        w = np.array([0.5, 0.0, 0.5, 0.0])
        cost = squared_distances(x, x + 0.01)
        _, cert = solve_transport(cost, w, w)
        certified, primal = certify_identity(cost, w)
        assert certified
        assert primal == pytest.approx(cert.cost, abs=1e-15)

    def test_suboptimal_start_falls_back(self):
        # Swapping the two atoms makes the identity plan the worst one.  The
        # simplex's least-cost start is then the optimal anti-diagonal.
        x = np.array([[0.0], [1.0]])
        w = np.array([0.5, 0.5])
        cost = squared_distances(x, x[::-1])
        assert certify_identity(cost, w) == (False, 1.0)
        flows, cert = solve_transport(cost, w, w)
        assert cert.cost == 0.0
        assert np.array_equal(flows, np.fliplr(np.diag(w)))

    @pytest.mark.parametrize("m", [12, 50])
    @given(seed=st.integers(0, 10_000))
    def test_identity_is_certified_up_to_a_scale(self, m, seed):
        # Each cycle's cost is affine in the jitter scale s, since the s^2
        # terms of a permutation cancel, so diag(w) is optimal exactly on
        # an interval [0, s*]: along a grid of scales the kernel certifies a
        # prefix and refuses the rest.
        x, w, d, unit = jitter_family(m, seed)
        scales = unit * np.concatenate([[0.0], np.geomspace(0.01, 100.0, 40)])
        certified, _ = transport._certify_identity(
            np.array([squared_distances(x, x + s * d) for s in scales]), w)
        refused = np.flatnonzero(~certified)
        assert 0 < refused[0]
        assert np.array_equal(refused, np.arange(refused[0], scales.size))


class TestStackedKernels:
    @pytest.mark.parametrize("cells", [1, 100, 1000, transport.SQDIST_CELLS])
    def test_squared_distances_match_the_one_block_build(self, monkeypatch,
                                                         cells):
        # Row blocks of any size change no bit: each entry is the same sum
        # over the coordinates, for one pair of point sets or a stack.
        monkeypatch.setattr(transport, "SQDIST_CELLS", cells)
        rng = np.random.default_rng([cells, 5])
        x, y = rng.standard_normal((40, 7)), rng.standard_normal((4, 9, 7))
        assert np.array_equal(transport._squared_distances(x, y[0]),
                              squared_distances(x, y[0]))
        assert np.array_equal(transport._squared_distances(x, y),
                              [squared_distances(x, z) for z in y])

    @pytest.mark.parametrize("eps", [0.1, 1.0, 2.0])
    def test_a_stack_certifies_each_matrix_as_alone(self, eps):
        # The jitters of one measure settle in different rounds, or not at
        # all; each keeps the decision and cost it gets alone.
        rng = np.random.default_rng([12, 8])
        x = rng.standard_normal((12, 3))
        w = 0.2 + rng.random(12)
        w /= w.sum()
        costs = np.array([squared_distances(x, x + eps * 0.1 * (t + 1) * d)
                          for t, d in enumerate(rng.standard_normal((6, 12, 3)))])
        stacked = transport._certify_identity(costs, w)
        alone = [transport._certify_identity(c[None], w) for c in costs]
        for got, want in zip(stacked, zip(*alone)):
            assert np.array_equal(got, np.concatenate(want))
        if eps == 1.0:
            assert 0 < np.count_nonzero(stacked[0]) < len(costs)


class TestGlue:
    def test_identity_second_leg_reproduces_the_first(self):
        mu, nu, gamma = skew_line_measures()
        tri = glue(gamma, identity_coupling(nu))
        xz = tri.xz_coupling()
        assert np.allclose(xz.moment_matrix(), gamma.moment_matrix(),
                           atol=1e-12)

    def test_disjoint_middle_supports_raise(self):
        mu = dirac([0.0])
        nu = dirac([1.0])
        eta = dirac([2.0])
        g1 = product_coupling(mu, nu)
        g2 = product_coupling(dirac([5.0]), eta)
        with pytest.raises(MarginalMismatch):
            glue(g1, g2)

    def test_pairwise_marginal_invariants(self):
        rng = np.random.default_rng(9)
        mu = uniform_atoms(rng.standard_normal((3, 2)))
        nu = uniform_atoms(rng.standard_normal((2, 2)))
        eta = uniform_atoms(rng.standard_normal((4, 2)))
        g1 = product_coupling(mu, nu)
        g2 = product_coupling(nu, eta)
        tri = glue(g1, g2)
        for pair, (a, b) in [(g1, (tri.x, tri.y)), (g2, (tri.y, tri.z))]:
            glued = DiscreteMeasure(np.hstack([a, b]), tri.weights)
            declared = DiscreteMeasure(np.hstack([pair.x, pair.y]), pair.weights)
            assert weak_equal(glued, declared)
        xz = tri.xz_coupling()
        assert is_marginal(xz.x, xz.weights, mu)
        assert is_marginal(xz.y, xz.weights, eta)

    def test_middle_marginals_in_different_dimensions_raise(self):
        g1 = product_coupling(dirac([0.0]), dirac([1.0]))
        g2 = product_coupling(dirac([1.0, 0.0]), dirac([0.0, 0.0]))
        with pytest.raises(DimensionMismatch):
            glue(g1, g2)

    def test_middle_atoms_across_a_rounding_boundary_match(self):
        # 0.5e-9 -+ 1e-13 round to different multiples of POSITION_TOL.
        g1 = product_coupling(dirac([0.0]), dirac([0.5e-9 - 1e-13]))
        g2 = product_coupling(dirac([0.5e-9 + 1e-13]), dirac([1.0]))
        tri = glue(g1, g2)
        assert tri.weights.tolist() == [1.0]
        assert tri.z.tolist() == [[1.0]]

    def test_mismatch_reports_the_first_group(self):
        g1 = product_coupling(dirac([0.0]),
                              uniform_atoms([[2.0], [1.0], [0.0]]))
        g2 = product_coupling(dirac([0.0]), dirac([5.0]))
        with pytest.raises(MarginalMismatch, match="differ by 6.667e-01"):
            glue(g1, g2)

    @given(st.integers(0, 10_000), st.sampled_from([1, 2, 4]))
    def test_moves_below_a_tenth_of_the_tolerance_are_invisible(self, seed, n):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(1, 8))
        # Atoms on a grid of POSITION_TOL steps, so some lie within the
        # tolerance of each other and some just outside it.
        pts = rng.integers(-3, 4, size=(m, n)) * POSITION_TOL \
            + rng.integers(-1, 2, size=(m, n))
        w = rng.random(m) + 0.1
        mu = DiscreteMeasure(pts, w / w.sum())
        moved = DiscreteMeasure(
            pts + rng.uniform(-0.099, 0.099, size=(m, n)) * POSITION_TOL,
            mu.weights)
        assert weak_equal(mu, moved) and weak_equal(moved, mu)
        g1 = product_coupling(dirac(np.zeros(n)), mu)
        g2 = identity_coupling(moved)
        tri = glue(g1, g2)
        assert np.sum(tri.weights) == pytest.approx(1.0, abs=1e-12)
        xz = tri.xz_coupling()
        assert is_marginal(xz.y, xz.weights, moved)

    def test_glue_through_a_map_composes_costs(self):
        mu = uniform_atoms([[0.0], [1.0]])
        shift = graph_coupling(mu, lambda x: x + 1.0)
        shift_again = graph_coupling(pushforward(mu, lambda x: x + 1.0),
                                     lambda x: x + 1.0)
        tri = glue(shift, shift_again)
        xz = tri.xz_coupling()
        assert coupling_cost(xz) == pytest.approx(4.0)
