import numpy as np
import pytest
from hypothesis import given, strategies as st

from obliqueframes import (
    FiniteFrame,
    HypothesisViolated,
    NonConvergence,
    NotADual,
    ObliqueDualPair,
    OptimizerOptions,
    canonical_oblique_dual,
    constant_diagonal_bound,
    diagonal_potential,
    dual_p_potential,
    etf_lift,
    minimize_dual_potential,
    mixed_coherence,
    mixed_gram,
    mixed_gram_entries,
    oblique_dual_family,
    potential_gradient,
    potential_objective,
)
from obliqueframes.gallery import (
    full_space,
    line,
    mercedes_benz_frame,
    mercedes_benz_pair,
    random_admissible_pair,
    random_frame,
    skew_line_frames,
    skew_line_subspaces,
    standard_basis_frame,
)
from obliqueframes.potentials import MAX_ORDER


def sign_line_pair():
    """Repeated sign-flipped copies of one vector: the canonical dual has a
    mixed Gram with all entries of modulus sqrt(d)/N, the equality case of
    the even-order double-sum bound."""
    W, V = skew_line_subspaces()
    F = FiniteFrame.create([[1.0, 0.0], [-1.0, 0.0], [1.0, 0.0]], W)
    return canonical_oblique_dual(F, V)


def random_pair(seed, noncanonical=False, min_n=2):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(min_n, 7))
    d = int(rng.integers(1, n + 1))
    lo = d + 1 if noncanonical else d
    N = int(rng.integers(lo, 3 * d + 2))
    W, V = random_admissible_pair(rng, n, d)
    F = random_frame(rng, W, N)
    if noncanonical:
        H = (V.basis @ rng.standard_normal((d, N))).T
        H *= max(1.0, 0.1 / np.linalg.norm(H))
        return oblique_dual_family(F, V, H)
    return canonical_oblique_dual(F, V)


class TestDualPotential:
    def test_mercedes_benz_p2_saturates(self):
        rep = dual_p_potential(mercedes_benz_pair(), 2.0)
        assert rep.value == pytest.approx(2.0, abs=1e-12)
        assert rep.lower_bound == 2.0
        assert rep.saturated

    def test_standard_basis_self_dual(self):
        pair = canonical_oblique_dual(standard_basis_frame(2), full_space(2))
        rep = dual_p_potential(pair, 2.0)
        assert rep.value == pytest.approx(2.0, abs=1e-12)

    def test_mercedes_benz_p4_value_and_bound(self):
        rep = dual_p_potential(mercedes_benz_pair(), 4.0)
        # Entrywise from the mixed Gram: diagonal 2/3, off-diagonal -1/3.
        assert rep.value == pytest.approx(3 * (2 / 3) ** 4 + 6 * (1 / 3) ** 4,
                                          abs=1e-12)
        assert rep.value == pytest.approx(2.0 / 3.0, abs=1e-12)
        assert rep.lower_bound == pytest.approx(4.0 / 9.0)
        assert not rep.saturated

    def test_unverified_pair_is_rejected(self):
        pair = mercedes_benz_pair()
        doubled = FiniteFrame.create(2.0 * pair.analysis.vectors,
                                     pair.analysis.subspace)
        bad = ObliqueDualPair(analysis=doubled, synthesis=pair.synthesis)
        with pytest.raises(NotADual):
            dual_p_potential(bad, 2.0)

    def test_odd_order_reports_value_only(self):
        rep = dual_p_potential(mercedes_benz_pair(), 3.0)
        assert rep.lower_bound is None and rep.gap is None

    @given(st.integers(0, 5_000))
    def test_p2_bound_on_random_duals(self, seed):
        pair = random_pair(seed, noncanonical=seed % 2 == 1)
        rep = dual_p_potential(pair, 2.0)
        assert rep.gap >= -1e-9

    @given(st.integers(0, 5_000))
    def test_even_order_chain_on_random_duals(self, seed):
        pair = random_pair(seed, noncanonical=seed % 2 == 1)
        for p in (4.0, 6.0):
            rep = dual_p_potential(pair, p)
            assert rep.gap >= -1e-9

    def test_single_vector_family_perturbation_is_strict(self):
        # Freeing only the first family slot already moves the dual off the
        # canonical one, so the minimum is exceeded strictly.
        F = mercedes_benz_frame()
        H = np.zeros((3, 2))
        H[0] = 0.1 * F.vectors[0]
        pair = oblique_dual_family(F, full_space(2), H)
        assert dual_p_potential(pair, 2.0).value > 2.0 + 1e-6

    def test_sign_line_pair_saturates_even_orders(self):
        pair = sign_line_pair()
        for p in (4.0, 6.0):
            rep = dual_p_potential(pair, p)
            assert rep.saturated
            assert rep.value == pytest.approx(3.0 ** (2 - p), abs=1e-12)


class TestDiagonalPotential:
    def test_mercedes_benz(self):
        rep = diagonal_potential(mercedes_benz_pair(), 2.0)
        assert rep.value == pytest.approx(4.0 / 3.0, abs=1e-12)
        assert rep.lower_bound == pytest.approx(4.0 / 3.0)
        assert rep.saturated

    def test_skew_line_single_vector(self):
        Fw, Fv = skew_line_frames()
        pair = ObliqueDualPair(analysis=Fv, synthesis=Fw)
        rep = diagonal_potential(pair, 2.0)
        assert rep.value == pytest.approx(1.0, abs=1e-12)
        assert rep.lower_bound == 1.0
        assert rep.saturated

    @given(st.integers(0, 5_000))
    def test_trace_identity_and_bounds(self, seed):
        pair = random_pair(seed, noncanonical=seed % 2 == 1)
        d = pair.synthesis.subspace.dim
        diag = np.diag(mixed_gram_entries(pair))
        assert float(np.sum(diag)) == pytest.approx(d, abs=1e-9)
        for p in (2.0, 4.0):
            assert diagonal_potential(pair, p).gap >= -1e-9


class TestMixedCoherence:
    def test_mercedes_benz_saturates(self):
        rep = mixed_coherence(mercedes_benz_pair())
        assert rep.max_off_diagonal_sq == pytest.approx(1.0 / 9.0, abs=1e-12)
        assert rep.welch_bound == pytest.approx(1.0 / 9.0)
        assert rep.saturated

    def test_standard_basis_zero_bound(self):
        pair = canonical_oblique_dual(standard_basis_frame(2), full_space(2))
        rep = mixed_coherence(pair)
        assert rep.max_off_diagonal_sq == 0.0
        assert rep.welch_bound == 0.0
        assert rep.saturated

    def test_nonconstant_diagonal_rejected(self):
        W = line([1.0, 0.0])
        F = FiniteFrame.create([[1.0, 0.0], [2.0, 0.0]], W)
        pair = canonical_oblique_dual(F, W)
        with pytest.raises(HypothesisViolated):
            mixed_coherence(pair)

    def test_perturbed_mercedes_benz_exceeds_the_bound(self):
        F = mercedes_benz_frame()
        rng = np.random.default_rng(11)
        H = 0.05 * rng.standard_normal((3, 2))
        pair = oblique_dual_family(F, full_space(2), H)
        G = mixed_gram_entries(pair)
        off = np.abs(G[~np.eye(3, dtype=bool)]) ** 2
        assert float(np.max(off)) > 1.0 / 9.0

    @given(st.integers(0, 5_000))
    def test_bound_holds_whenever_the_hypothesis_does(self, seed):
        pair = random_pair(seed)
        G = mixed_gram_entries(pair)
        diag = np.diag(G)
        if np.max(diag) - np.min(diag) > 1e-9:
            return
        rep = mixed_coherence(pair)
        assert rep.max_off_diagonal_sq >= rep.welch_bound - 1e-9


class TestMixedGram:
    def test_mercedes_benz_signature(self):
        G, Q = mixed_gram(mercedes_benz_pair())
        assert Q is not None
        assert np.allclose(np.diag(Q), 0.0, atol=1e-9)
        off = Q[~np.eye(3, dtype=bool)]
        assert np.allclose(np.abs(off), 1.0, atol=1e-9)
        # Signs follow the frame's own inner products (all obtuse pairs).
        assert np.all(off < 0)
        assert np.allclose(Q, Q.T, atol=1e-12)

    def test_diagonal_is_constant_at_saturation(self):
        G, Q = mixed_gram(mercedes_benz_pair())
        assert np.allclose(np.diag(G), 2.0 / 3.0, atol=1e-12)

    def test_no_signature_for_nonsaturated_pairs(self):
        F = mercedes_benz_frame()
        pair = oblique_dual_family(F, full_space(2), 0.1 * np.eye(3, 2))
        _, Q = mixed_gram(pair)
        assert Q is None


class TestEtfLift:
    def test_mercedes_benz_is_an_etf(self):
        psi, is_etf = etf_lift(mercedes_benz_frame())
        assert is_etf
        assert np.allclose(np.linalg.norm(psi.vectors, axis=1), 1.0, atol=1e-12)

    def test_standard_basis_is_an_etf(self):
        psi, is_etf = etf_lift(standard_basis_frame(3))
        assert is_etf
        assert np.allclose(psi.vectors, np.eye(3), atol=1e-12)

    def test_repeated_vector_family_is_not_equiangular(self):
        F = FiniteFrame.create([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]],
                               full_space(2))
        _, is_etf = etf_lift(F)
        assert not is_etf


class TestConstantDiagonalBound:
    def test_mercedes_benz_saturates_the_refined_bound(self):
        pair = mercedes_benz_pair()
        for p in (4.0, 6.0):
            rep = dual_p_potential(pair, p)
            bound = constant_diagonal_bound(3, 2, p)
            assert rep.value == pytest.approx(bound, abs=1e-12)

    def test_duplicated_basis_misses_the_refined_bound(self):
        F = FiniteFrame.create([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 1.0]],
                               full_space(2))
        pair = canonical_oblique_dual(F, full_space(2))
        diag = np.diag(mixed_gram_entries(pair))
        assert np.max(diag) - np.min(diag) <= 1e-12
        rep = dual_p_potential(pair, 4.0)
        bound = constant_diagonal_bound(4, 2, 4.0)
        assert rep.value == pytest.approx(0.5, abs=1e-12)
        assert bound == pytest.approx(1.0 / 3.0, abs=1e-12)
        assert rep.value - bound > 1e-6

    @given(st.integers(0, 5_000))
    def test_refined_bound_dominates_when_diagonal_constant(self, seed):
        pair = random_pair(seed)
        G = mixed_gram_entries(pair)
        diag = np.diag(G)
        if np.max(diag) - np.min(diag) > 1e-9:
            return
        N = G.shape[0]
        d = pair.synthesis.subspace.dim
        for p in (4.0, 6.0):
            value = dual_p_potential(pair, p).value
            assert value >= constant_diagonal_bound(N, d, p) - 1e-9


class TestGradientAndMinimization:
    @given(st.integers(0, 2_000))
    def test_analytic_gradient_matches_central_differences(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 6))
        d = int(rng.integers(1, n + 1))
        N = int(rng.integers(d, 2 * d + 2))
        W, V = random_admissible_pair(rng, n, d)
        F = random_frame(rng, W, N)
        C = rng.standard_normal((d, N))
        p = float(rng.choice([2.0, 4.0, 6.0]))
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
        # Flat directions (N = d) make both sides zero; floor the scale so
        # the comparison stays a relative one on non-degenerate instances.
        denom = max(float(np.max(np.abs(fd))), 1e-6)
        assert float(np.max(np.abs(g - fd))) / denom < 1e-5

    def test_mercedes_benz_minimization_reaches_canonical(self):
        pair, traj = minimize_dual_potential(mercedes_benz_frame(),
                                             full_space(2))
        assert traj[-1] == pytest.approx(2.0, abs=1e-6)
        canon = mercedes_benz_pair()
        assert np.max(np.abs(pair.analysis.vectors
                             - canon.analysis.vectors)) < 1e-6

    def test_single_vector_unique_dual(self):
        Fw, _ = skew_line_frames()
        _, V = skew_line_subspaces()
        pair, traj = minimize_dual_potential(Fw, V)
        assert np.allclose(pair.analysis.vectors, [[1.0, 1.0]], atol=1e-6)

    def test_random_frame_reaches_dimension(self):
        rng = np.random.default_rng(1234)
        W, V = random_admissible_pair(rng, 4, 4)
        F = random_frame(rng, W, 7)
        pair, traj = minimize_dual_potential(F, V)
        assert traj[-1] == pytest.approx(4.0, abs=1e-6)

    def test_trajectory_is_monotone(self):
        rng = np.random.default_rng(77)
        W, V = random_admissible_pair(rng, 3, 2)
        F = random_frame(rng, W, 5)
        _, traj = minimize_dual_potential(F, V, 4.0)
        assert all(b <= a + 1e-12 for a, b in zip(traj, traj[1:]))

    def test_iteration_cap_raises(self):
        rng = np.random.default_rng(5)
        W, V = random_admissible_pair(rng, 3, 2)
        F = random_frame(rng, W, 5)
        with pytest.raises(NonConvergence):
            minimize_dual_potential(F, V, 2.0,
                                    OptimizerOptions(max_iters=2))

    def test_zero_budget_tests_the_start_only(self):
        F, V = mercedes_benz_frame(), full_space(2)
        _, traj = minimize_dual_potential(
            F, V, 2.0, OptimizerOptions(max_iters=0, grad_tol=1e6))
        assert len(traj) == 1
        with pytest.raises(NonConvergence, match="after 0 iterations"):
            minimize_dual_potential(F, V, 2.0, OptimizerOptions(max_iters=0))


class TestCanonicalCharacterization:
    @given(st.integers(0, 2_000))
    def test_gap_vanishes_exactly_at_the_canonical_dual(self, seed):
        pair = random_pair(seed, noncanonical=seed % 2 == 1)
        canon = canonical_oblique_dual(pair.synthesis,
                                       pair.analysis.subspace)
        gap = dual_p_potential(pair, 2.0).gap
        dist = float(np.max(np.abs(pair.analysis.vectors
                                   - canon.analysis.vectors)))
        if gap <= 1e-9:
            assert dist <= 1e-6
        if dist <= 1e-6:
            assert gap <= 1e-6  # quadratic in the distance
        if dist > 1e-3:
            assert gap > 1e-9


class TestOptimizerOptionRanges:
    @pytest.mark.parametrize("grad_tol", [np.nan, np.inf, -1.0])
    def test_grad_tol_must_be_finite_and_nonnegative(self, grad_tol):
        with pytest.raises(ValueError, match="grad_tol must be finite and >= 0"):
            OptimizerOptions(grad_tol=grad_tol)

    def test_zero_grad_tol_is_allowed(self):
        assert OptimizerOptions(grad_tol=0.0).grad_tol == 0.0


class TestPotentialOrderRange:
    """One check of p: an order outside (0, MAX_ORDER] is a ValueError at
    every entry, and no power of an accepted order overflows a bound."""

    @pytest.mark.parametrize("p", [np.inf, np.nan, 0.0, -2.0, 2100.0])
    @pytest.mark.parametrize("op", [dual_p_potential, diagonal_potential])
    def test_potentials_reject_the_order(self, op, p):
        with pytest.raises(ValueError, match="potential order p must lie in"):
            op(mercedes_benz_pair(), p)

    @pytest.mark.parametrize("p", [np.inf, 2100.0])
    def test_minimizer_and_refined_bound_reject_the_order(self, p):
        with pytest.raises(ValueError, match="potential order p must lie in"):
            minimize_dual_potential(mercedes_benz_frame(), full_space(2), p)
        with pytest.raises(ValueError, match="potential order p must lie in"):
            constant_diagonal_bound(3, 2, p)

    def test_largest_order_has_finite_bounds(self):
        # d^(p/2) and d^p alone overflow here; the bounds are below 1.
        pair = canonical_oblique_dual(standard_basis_frame(64), full_space(64))
        for op in (dual_p_potential, diagonal_potential):
            rep = op(pair, MAX_ORDER)
            assert 0.0 <= rep.lower_bound <= rep.value
        assert 0.0 < constant_diagonal_bound(3, 2, MAX_ORDER) < 1.0

    def test_overflowing_potential_is_refused(self):
        # Mixed Gram entries 5.5 and -4.5: their 1000th powers overflow.
        F = FiniteFrame.create([[1.0], [1.0]], full_space(1))
        pair = oblique_dual_family(F, full_space(1), np.array([[5.0], [-5.0]]))
        for op in (dual_p_potential, diagonal_potential):
            with pytest.raises(ValueError, match="overflows a double"):
                op(pair, 1000.0)
