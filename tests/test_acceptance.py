"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; the whole suite is deterministic (fixed seeds) and finishes in well
under a minute.
"""
import numpy as np
import pytest

from obliqueframes import (
    Coupling,
    DiscreteMeasure,
    FiniteFrame,
    approx_dual_residual,
    canonical_dual_measure,
    canonical_oblique_dual,
    classify_probabilistic_frame,
    consistency_conversions,
    constant_diagonal_bound,
    dirac,
    dual_p_potential,
    etf_lift,
    exact_w2,
    graph_coupling,
    interiority_experiment,
    is_oblique_dual_measure,
    measure_frame_operator,
    minimal_energy_coefficients,
    minimize_dual_potential,
    mixed_coherence,
    mixed_gram,
    mixed_gram_entries,
    oblique_dual_family,
    oblique_projection,
    pf_dual_potential,
    potential_gradient,
    potential_objective,
    pseudoinverse,
    pushforward,
    pushforward_dual_map,
    uniform_atoms,
)
from obliqueframes.gallery import (
    full_space,
    mercedes_benz_frame,
    mercedes_benz_measure,
    random_admissible_pair,
    random_frame,
    random_measure_on,
    skew_line_measures,
    skew_line_subspaces,
)

SUITE_SEED = 20_240_817


def _report(num, text):
    print(f"[criterion {num:02d}] PASS - {text}")


@pytest.fixture(scope="module")
def random_suite():
    """50 seeded fixtures: frame on W, admissible sampling space V."""
    rng = np.random.default_rng(SUITE_SEED)
    suite = []
    for _ in range(50):
        n = int(rng.integers(2, 7))
        d = int(rng.integers(1, n + 1))
        N = int(rng.integers(d, 3 * d + 1))
        W, V = random_admissible_pair(rng, n, d)
        suite.append((random_frame(rng, W, N), W, V))
    return suite


@pytest.fixture(scope="module")
def noncanonical_suite():
    """50 seeded fixtures with strictly redundant frames (N > d), each
    carrying a random dual-family parameter of norm at least 0.1."""
    rng = np.random.default_rng(SUITE_SEED + 1)
    suite = []
    for _ in range(50):
        n = int(rng.integers(2, 7))
        d = int(rng.integers(1, n))
        N = int(rng.integers(d + 1, 3 * d + 2))
        W, V = random_admissible_pair(rng, n, d)
        F = random_frame(rng, W, N)
        H = (V.basis @ rng.standard_normal((d, N))).T
        H *= max(1.0, 0.1 / np.linalg.norm(H))
        suite.append((F, W, V, H))
    return suite


def atom_table_map(rng, mu, W, V, scale=1.0):
    coeffs = scale * rng.standard_normal((mu.num_atoms, V.dim))
    table = {mu.points[k].tobytes(): V.basis @ coeffs[k]
             for k in range(mu.num_atoms)}
    return pushforward_dual_map(mu, W, V, lambda x: table[x.tobytes()])


def test_criterion_01_skew_line_replication():
    W, V = skew_line_subspaces()
    assert np.max(np.abs(oblique_projection(W, V)
                         - np.array([[1.0, 1.0], [0.0, 0.0]]))) < 1e-12
    assert np.max(np.abs(oblique_projection(V, W)
                         - np.array([[1.0, 0.0], [1.0, 0.0]]))) < 1e-12
    mu, nu, gamma = skew_line_measures()
    S = measure_frame_operator(mu)
    assert np.max(np.abs(S - np.diag([1.0, 0.0]))) < 1e-12
    assert np.max(np.abs(pseudoinverse(S) - S)) < 1e-12
    ok, resid = is_oblique_dual_measure(mu, nu, gamma)
    assert ok and resid < 1e-12
    _report(1, "skew-line projections, moment matrix, and product-coupling "
               "duality replicate exactly")


def test_criterion_02_canonical_duals_are_sharp(random_suite,
                                                noncanonical_suite):
    for F, W, V in random_suite:
        pair = canonical_oblique_dual(F, V)
        assert abs(dual_p_potential(pair, 2.0).value - W.dim) <= 1e-9
        mu = uniform_atoms(F.vectors)
        nu, gamma = canonical_dual_measure(mu, W, V)
        rep = pf_dual_potential(mu, nu, "pushforward", gamma)
        assert abs(rep.value - W.dim) <= 1e-9

    rng = np.random.default_rng(SUITE_SEED + 2)
    for F, W, V, H in noncanonical_suite:
        pair = oblique_dual_family(F, V, H)
        assert dual_p_potential(pair, 2.0).value - W.dim > 1e-6
        mu = uniform_atoms(F.vectors)
        T = atom_table_map(rng, mu, W, V)
        nu = pushforward(mu, T)
        rep = pf_dual_potential(mu, nu, "pushforward")
        assert rep.value - W.dim > 1e-6
    _report(2, "canonical duals hit the dimension bound (1e-9); 50+50 "
               "non-canonical duals exceed it by more than 1e-6")


def test_criterion_03_coherence_saturation():
    pair = canonical_oblique_dual(mercedes_benz_frame(), full_space(2))
    rep = mixed_coherence(pair)
    assert abs(rep.max_off_diagonal_sq - 1.0 / 9.0) < 1e-12
    assert abs(rep.welch_bound - 2.0 * (3 - 2) / (9.0 * 2.0)) < 1e-12
    assert rep.saturated
    _, Q = mixed_gram(pair)
    assert Q is not None
    off = Q[~np.eye(3, dtype=bool)]
    assert np.max(np.abs(np.abs(off) - 1.0)) < 1e-9
    psi, is_etf = etf_lift(mercedes_benz_frame())
    assert is_etf and len(psi) == 3 and psi.subspace.dim == 2
    _report(3, "triangle-frame coherence saturates 1/9 with a +-1 signature "
               "and an equiangular tight lift")


def test_criterion_04_even_order_chains(random_suite, noncanonical_suite):
    pairs = [canonical_oblique_dual(F, V) for F, _, V in random_suite]
    pairs += [oblique_dual_family(F, V, H)
              for F, _, V, H in noncanonical_suite]
    for pair in pairs:
        N = len(pair.synthesis)
        d = pair.synthesis.subspace.dim
        G = mixed_gram_entries(pair)
        diag_constant = float(np.max(np.diag(G)) - np.min(np.diag(G))) <= 1e-9
        for p in (4.0, 6.0):
            rep = dual_p_potential(pair, p)
            assert rep.gap >= -1e-9
            if diag_constant:
                assert rep.value >= constant_diagonal_bound(N, d, p) - 1e-9

    # Constructed saturating case for the plain even-order chain: repeated
    # sign-flipped copies of a single vector.
    W, V = skew_line_subspaces()
    signs = FiniteFrame.create([[1.0, 0.0], [-1.0, 0.0], [1.0, 0.0]], W)
    sign_pair = canonical_oblique_dual(signs, V)
    mb_pair = canonical_oblique_dual(mercedes_benz_frame(), full_space(2))
    dup = FiniteFrame.create([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 1.0]],
                             full_space(2))
    dup_pair = canonical_oblique_dual(dup, full_space(2))
    for p in (4.0, 6.0):
        assert dual_p_potential(sign_pair, p).gap <= 1e-9
        assert dual_p_potential(mb_pair, p).gap > 1e-6
        mb_value = dual_p_potential(mb_pair, p).value
        assert abs(mb_value - constant_diagonal_bound(3, 2, p)) <= 1e-9
        dup_value = dual_p_potential(dup_pair, p).value
        assert dup_value - constant_diagonal_bound(4, 2, p) > 1e-6
    _report(4, "even-order potential chains hold on 100 fixtures; equality "
               "cases saturate and generic cases miss by more than 1e-6")


def test_criterion_05_weighted_dimension_bound():
    mu = mercedes_benz_measure()
    R2 = full_space(2)
    nu, gamma = canonical_dual_measure(mu, R2, R2)
    rep = pf_dual_potential(mu, nu, "general", gamma)
    assert abs(rep.value - 2.0) < 1e-12
    assert abs(rep.lower_bound - 2.0) < 1e-12
    assert rep.saturated

    rng = np.random.default_rng(SUITE_SEED + 3)
    trials = 0
    while trials < 100:
        n = int(rng.integers(2, 6))
        d = int(rng.integers(1, n + 1))
        W, V = random_admissible_pair(rng, n, d)
        mu = random_measure_on(rng, W, int(rng.integers(d, 2 * d + 3)))
        lo, hi = classify_probabilistic_frame(mu, W).bounds
        if hi - lo < 0.05 * hi:
            continue  # keep only decisively non-tight draws
        trials += 1
        if trials % 2 == 0:
            nu, gamma = canonical_dual_measure(mu, W, V)
        else:
            T = atom_table_map(rng, mu, W, V, scale=0.5)
            gamma = graph_coupling(mu, T)
            nu = pushforward(mu, T)
        rep = pf_dual_potential(mu, nu, "general", gamma)
        assert rep.gap >= -1e-9
        assert rep.gap > 1e-6
        assert not rep.saturated
    _report(5, "tight triangle measure saturates the weighted bound at 2; "
               "100 non-tight duals always stay above it by more than 1e-6")


def test_criterion_06_transport_correctness():
    def quantile_oracle(x, wx, y, wy):
        ox, oy = np.argsort(x), np.argsort(y)
        x, wx = [x[i] for i in ox], [int(wx[i]) for i in ox]
        y, wy = [y[i] for i in oy], [int(wy[i]) for i in oy]
        total = sum(wx)
        cost, i, j, ax, ay = 0.0, 0, 0, wx[0], wy[0]
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

    rng = np.random.default_rng(SUITE_SEED + 4)
    for _ in range(100):
        mx = int(rng.integers(1, 13))
        my = int(rng.integers(1, 13))
        xs = rng.uniform(-5, 5, mx)
        ys = rng.uniform(-5, 5, my)
        cx = rng.integers(1, 9, mx)
        cy = rng.integers(1, 9, my)
        total = int(np.sum(cx) * np.sum(cy))
        cx = cx * (total // np.sum(cx))
        cy = cy * (total // np.sum(cy))
        mu = DiscreteMeasure(xs[:, None], cx / total)
        nu = DiscreteMeasure(ys[:, None], cy / total)
        want = quantile_oracle(xs, cx, ys, cy)
        got, _, cert = exact_w2(mu, nu)
        assert abs(got - want) <= 1e-9
        assert cert.dual_gap <= 1e-9

    for _ in range(20):
        ms = []
        for _ in range(3):
            m = int(rng.integers(1, 7))
            w = rng.random(m) + 0.1
            ms.append(DiscreteMeasure(rng.standard_normal((m, 3)),
                                      w / w.sum()))
        a, b, c = ms
        dab, _, gab = exact_w2(a, b)
        dba, _, gba = exact_w2(b, a)
        dac, _, gac = exact_w2(a, c)
        dcb, _, gcb = exact_w2(c, b)
        for cert in (gab, gba, gac, gcb):
            assert cert.dual_gap <= 1e-9
        assert abs(dab - dba) <= 1e-9
        assert dab <= dac + dcb + 1e-9
        assert exact_w2(a, a)[0] <= 1e-9
    _report(6, "exact transport matches the 1-D quantile oracle on 100 "
               "instances, satisfies the metric axioms, and certifies "
               "duality gaps below 1e-9")


def test_criterion_07_perturbation_interiority():
    cases = [
        ("triangle measure, equal spaces", mercedes_benz_measure(),
         full_space(2), full_space(2)),
        ("skew-line Dirac", dirac([1.0, 0.0]), *skew_line_subspaces()),
    ]
    for label, mu, W, V in cases:
        for eps in (0.05, 0.1, 0.5):
            summary = interiority_experiment(mu, W, V, eps=eps, trials=100,
                                             rng_seed=SUITE_SEED + 5)
            assert summary.failures == 0, (label, eps)
            assert summary.max_epsilon_actual <= eps + 1e-9
            assert all(r.frame_bound_ok for r in summary.records)
    _report(7, "600 seeded perturbation trials certify the epsilon bound "
               "with zero violations and intact perturbed frame bounds")


def test_criterion_08_minimal_energy_oracle():
    rng = np.random.default_rng(SUITE_SEED + 6)
    for _ in range(50):
        n = int(rng.integers(2, 6))
        d = int(rng.integers(1, n + 1))
        W, V = random_admissible_pair(rng, n, d)
        mu = random_measure_on(rng, W, int(rng.integers(d, 2 * d + 4)))
        f = rng.standard_normal(n)
        _, energy = minimal_energy_coefficients(mu, W, V, f)
        target = oblique_projection(W, V) @ f
        scaled = (mu.points * np.sqrt(mu.weights)[:, None]).T
        b = pseudoinverse(scaled) @ target
        assert abs(energy - float(b @ b)) <= 1e-9
    _report(8, "minimal-energy coefficients match the weighted least-norm "
               "oracle on 50 instances within 1e-9")


def test_criterion_09_gradient_and_minimization(random_suite):
    rng = np.random.default_rng(SUITE_SEED + 7)
    for _ in range(20):
        n = int(rng.integers(2, 6))
        d = int(rng.integers(1, n))
        N = int(rng.integers(d + 1, 2 * d + 3))
        W, V = random_admissible_pair(rng, n, d)
        F = random_frame(rng, W, N)
        C = rng.standard_normal((d, N))
        p = float(rng.choice([2.0, 4.0]))
        g = potential_gradient(F, V, C, p)
        h = 1e-5
        fd = np.zeros_like(g)
        for i in range(g.shape[0]):
            for j in range(g.shape[1]):
                up, dn = C.copy(), C.copy()
                up[i, j] += h
                dn[i, j] -= h
                fd[i, j] = (potential_objective(F, V, up, p)
                            - potential_objective(F, V, dn, p)) / (2 * h)
        denom = max(float(np.max(np.abs(fd))), 1e-6)
        assert float(np.max(np.abs(g - fd))) / denom < 1e-5

    for k, (F, W, V) in enumerate(random_suite):
        pair, traj = minimize_dual_potential(F, V)
        assert abs(traj[-1] - W.dim) <= 1e-6
        canon = canonical_oblique_dual(F, V)
        assert float(np.max(np.abs(pair.analysis.vectors
                                   - canon.analysis.vectors))) <= 1e-6
    _report(9, "analytic gradients match central differences (rel. 1e-5); "
               "descent reaches the canonical dual on all 50 fixtures")


def test_criterion_10_cross_module_consistency(random_suite):
    rng = np.random.default_rng(SUITE_SEED + 8)
    for F, W, V in random_suite[:25]:
        mu = uniform_atoms(F.vectors)
        nu, gamma = canonical_dual_measure(mu, W, V)
        ok, _ = is_oblique_dual_measure(mu, nu, gamma)
        assert ok
        rep = approx_dual_residual(mu, nu, gamma, W, V)
        assert rep.epsilon_residual <= 1e-12

        # Perturb the sampling atoms inside V and verify both conversion
        # dominations from the report's exact constants.
        jitter = 0.1 * (rng.standard_normal(nu.points.shape)
                        @ (V.basis @ V.basis.T))
        pts = nu.points + jitter
        nu_p = DiscreteMeasure(pts, nu.weights)
        gamma_p = Coupling(gamma.x, pts, gamma.weights)
        rep_p = approx_dual_residual(mu, nu_p, gamma_p, W, V)
        to_cons, to_approx = consistency_conversions(rep_p, nu_p, W, V)
        assert rep_p.consistency_bound <= to_cons + 1e-9
        assert rep_p.epsilon_residual <= to_approx + 1e-9
    _report(10, "exact duals have residual below 1e-12 through the "
                "approximate-dual route; conversion sandwiches hold on "
                "every perturbed instance")
