import numpy as np
import pytest
from hypothesis import given, strategies as st

from obliqueframes import (
    Coupling,
    DiscreteMeasure,
    MarginalMismatch,
    NotADual,
    NotAFrame,
    canonical_dual_map,
    canonical_dual_measure,
    canonical_oblique_dual,
    classify_probabilistic_frame,
    dirac,
    graph_coupling,
    is_oblique_dual_measure,
    linear_pushforward,
    minimal_energy_coefficients,
    oblique_projection,
    orthogonal_complement,
    orthogonal_projection,
    pf_dual_potential,
    probabilistic_consistency_check,
    product_coupling,
    pseudoinverse,
    pushforward,
    pushforward_dual_map,
    support_span,
    transfer_dual_to_K,
    uniform_atoms,
    weak_equal,
)
from obliqueframes.gallery import (
    full_space,
    line,
    mercedes_benz_measure,
    random_admissible_pair,
    random_frame,
    random_measure_on,
    skew_line_measures,
    skew_line_subspaces,
)


def random_dual_instance(seed, m=None):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 6))
    d = int(rng.integers(1, n + 1))
    W, V = random_admissible_pair(rng, n, d)
    mu = random_measure_on(rng, W, m or int(rng.integers(d, 2 * d + 3)))
    return rng, W, V, mu


def random_table_dual_map(rng, mu, W, V, scale=1.0):
    """Dual map from a random atom-wise (hence nonlinear) free family."""
    coeffs = scale * rng.standard_normal((mu.num_atoms, V.dim))
    table = {mu.points[k].tobytes(): V.basis @ coeffs[k]
             for k in range(mu.num_atoms)}

    def h(x):
        return table[np.asarray(x).tobytes()]

    return pushforward_dual_map(mu, W, V, h)


class TestCanonicalDualMeasure:
    def test_skew_line_dirac(self):
        W, V = skew_line_subspaces()
        nu, gamma = canonical_dual_measure(dirac([1.0, 0.0]), W, V)
        assert weak_equal(nu, dirac([1.0, 1.0]))
        ok, resid = is_oblique_dual_measure(dirac([1.0, 0.0]), nu, gamma)
        assert ok and resid <= 1e-12

    def test_tight_measure_dual_is_rescaled_projection(self):
        mu = mercedes_benz_measure()
        R2 = full_space(2)
        nu, _ = canonical_dual_measure(mu, R2, R2)
        # Tight with bound 1/2, so the canonical map is 2 * identity.
        assert weak_equal(nu, linear_pushforward(mu, 2.0 * np.eye(2)))

    def test_graph_coupling_atoms_match(self):
        mu = mercedes_benz_measure()
        R2 = full_space(2)
        nu, gamma = canonical_dual_measure(mu, R2, R2)
        assert np.allclose(gamma.x, mu.points)
        assert np.allclose(gamma.y, nu.points)


class TestFrameIsAUnitWeightMeasure:
    @given(st.integers(0, 10_000))
    def test_canonical_duals_agree(self, seed):
        # The uniform measure on the frame vectors has moment matrix S / N,
        # so its canonical dual map sends w_j to N times the frame's
        # canonical dual vector.
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 9))
        d = int(rng.integers(1, n + 1))
        N = int(rng.integers(d, min(3 * d, 20) + 1))
        W, V = random_admissible_pair(rng, n, d)
        F = random_frame(rng, W, N)
        mu = uniform_atoms(F.vectors)
        frame_dual = canonical_oblique_dual(F, V).analysis.vectors
        measure_dual = (canonical_dual_map(mu, W, V) @ F.matrix).T / len(F)
        assert np.max(np.abs(frame_dual - measure_dual)) <= 1e-12


class TestIsObliqueDualMeasure:
    def test_product_coupling_certificate(self):
        mu, nu, gamma = skew_line_measures()
        ok, resid = is_oblique_dual_measure(mu, nu, gamma)
        assert ok
        assert resid <= 1e-12

    def test_swapped_mass_is_a_marginal_mismatch(self):
        mu, nu, _ = skew_line_measures()
        bad = Coupling([[1.0, 0.0]], [[0.0, 0.0]], [1.0])
        with pytest.raises(MarginalMismatch):
            is_oblique_dual_measure(mu, nu, bad)

    def test_non_dual_coupling_fails_with_positive_residual(self):
        mu, _, _ = skew_line_measures()
        nu_bad = DiscreteMeasure([[1.0, 1.0], [-1.0, -1.0]], [0.5, 0.5])
        gamma = product_coupling(mu, nu_bad)
        ok, resid = is_oblique_dual_measure(mu, nu_bad, gamma)
        assert not ok
        # Mean-zero sampling measure wipes out the moment matrix entirely,
        # leaving the norm of the oblique projection itself.
        assert resid == pytest.approx(np.sqrt(2.0), abs=1e-12)

    @given(st.integers(0, 5_000))
    def test_canonical_certificates_always_verify(self, seed):
        rng, W, V, mu = random_dual_instance(seed)
        nu, gamma = canonical_dual_measure(mu, W, V)
        ok, resid = is_oblique_dual_measure(mu, nu, gamma)
        assert ok and resid <= 1e-9

    @given(st.integers(0, 5_000))
    def test_reconstruction_probes_agree_with_the_residual(self, seed):
        # The pointwise synthesis, adjoint and bilinear forms of a coupling
        # restate its moment matrix, so each differs from the same form of
        # the oblique projection by at most the spectral residual.
        rng, W, V, mu = random_dual_instance(seed)
        nu, canonical = canonical_dual_measure(mu, W, V)
        skew_mu, skew_nu, skew_product = skew_line_measures()
        for mu_, nu_, gamma in [(mu, nu, canonical),
                                (mu, nu, product_coupling(mu, nu)),
                                (skew_mu, skew_nu, skew_product)]:
            _, residual = is_oblique_dual_measure(mu_, nu_, gamma)
            Ws, Vs = support_span(mu_), support_span(nu_)
            pi_wv = oblique_projection(Ws, Vs)
            for _ in range(4):
                f = rng.standard_normal(mu_.ambient_dim)
                g = rng.standard_normal(mu_.ambient_dim)
                budget = (residual * np.linalg.norm(f)
                          * max(np.linalg.norm(g), 1.0) + 1e-8)
                fw = Ws.project(f)
                w, x, y = gamma.weights, gamma.x, gamma.y
                synth = np.einsum("k,ki,k->i", w, x, y @ fw)
                assert np.linalg.norm(synth - fw) <= budget
                synth = np.einsum("k,ki,k->i", w, x, y @ f)
                assert np.linalg.norm(synth - pi_wv @ f) <= budget
                sampled = np.einsum("k,k,ki->i", w, x @ f, y)
                assert np.linalg.norm(sampled - pi_wv.T @ f) <= budget
                bilinear = float(np.sum(w * (x @ g) * (y @ f)))
                assert abs(bilinear - float(g @ pi_wv @ f)) <= budget
                bilinear = float(np.sum(w * (x @ f) * (y @ g)))
                assert abs(bilinear - float(g @ pi_wv.T @ f)) <= budget


class TestLemmaBridgeAndBounds:
    @given(st.integers(0, 5_000))
    def test_projected_marginals_are_standard_duals(self, seed):
        rng, W, V, mu = random_dual_instance(seed)
        nu, gamma = canonical_dual_measure(mu, W, V)
        # Project the sampling coordinate onto W: a standard dual on W.
        pw = orthogonal_projection(W)
        gamma_w = Coupling(gamma.x, gamma.y @ pw, gamma.weights)
        ok, _ = is_oblique_dual_measure(mu, linear_pushforward(nu, pw), gamma_w)
        assert ok
        # Project the synthesis coordinate onto V: a standard dual on V.
        pv = orthogonal_projection(V)
        gamma_v = Coupling(gamma.x @ pv, gamma.y, gamma.weights)
        ok, _ = is_oblique_dual_measure(linear_pushforward(mu, pv), nu, gamma_v)
        assert ok

    @given(st.integers(0, 5_000))
    def test_dual_lower_bound_is_reciprocal_upper_bound(self, seed):
        rng, W, V, mu = random_dual_instance(seed)
        nu, _ = canonical_dual_measure(mu, W, V)
        b_mu = classify_probabilistic_frame(mu, W).bounds[1]
        a_nu = classify_probabilistic_frame(nu, V).bounds[0]
        assert a_nu >= 1.0 / b_mu - 1e-9

    def test_skew_line_bound(self):
        mu, nu, _ = skew_line_measures()
        _, V = skew_line_subspaces()
        a_nu = classify_probabilistic_frame(nu, V).bounds[0]
        assert a_nu == pytest.approx(4.0)
        assert a_nu >= 1.0  # 1 / B_mu with B_mu = 1


class TestPushforwardDualMap:
    def test_zero_h_is_canonical(self):
        rng, W, V, mu = random_dual_instance(42)
        T = pushforward_dual_map(mu, W, V, lambda x: np.zeros(mu.ambient_dim))
        T0 = canonical_dual_map(mu, W, V)
        for x in mu.points:
            assert np.allclose(T(x), T0 @ x, atol=1e-12)

    def test_linear_h_is_absorbed_by_the_centering(self):
        # For linear h the centering term reproduces h on the synthesis
        # subspace exactly, so the map collapses to the canonical one and
        # the potential stays at its minimum.
        mu = mercedes_benz_measure()
        R2 = full_space(2)
        T = pushforward_dual_map(mu, R2, R2, lambda x: 0.3 * x)
        T0 = canonical_dual_map(mu, R2, R2)
        for x in mu.points:
            assert np.allclose(T(x), T0 @ x, atol=1e-12)
        nu = pushforward(mu, T)
        rep = pf_dual_potential(mu, nu, "pushforward")
        assert rep.value == pytest.approx(2.0, abs=1e-12)

    def test_nonlinear_h_gives_a_dual_with_larger_potential(self):
        mu = mercedes_benz_measure()
        R2 = full_space(2)
        T = pushforward_dual_map(mu, R2, R2, lambda x: 0.3 * x[0] * x)
        gamma = graph_coupling(mu, T)
        nu = pushforward(mu, T)
        ok, _ = is_oblique_dual_measure(mu, nu, gamma)
        assert ok
        rep = pf_dual_potential(mu, nu, "pushforward")
        assert rep.value > 2.0 + 1e-6

    def test_centered_h_needs_no_correction(self):
        # Atoms c_k e1 with weights w_k: choosing h2 = -(w1 c1 / w2 c2) h1
        # zeroes the moment of h against mu, so T = canonical + h verbatim.
        W, V = skew_line_subspaces()
        mu = DiscreteMeasure([[1.0, 0.0], [2.0, 0.0]], [0.4, 0.6])
        h1 = np.array([0.3, 0.3])
        h2 = -(0.4 * 1.0) / (0.6 * 2.0) * h1
        lookup = {1.0: h1, 2.0: h2}

        def h(x):
            return lookup[float(x[0])]

        T = pushforward_dual_map(mu, W, V, h)
        T0 = canonical_dual_map(mu, W, V)
        for x in mu.points:
            assert np.allclose(T(x), T0 @ x + h(x), atol=1e-12)

    @given(st.integers(0, 2_000))
    def test_every_pushforward_dual_verifies(self, seed):
        rng, W, V, mu = random_dual_instance(seed)
        coeffs = rng.standard_normal((mu.num_atoms, V.dim))
        table = {k: V.basis @ coeffs[k] for k in range(mu.num_atoms)}
        index = {mu.points[k].tobytes(): k for k in range(mu.num_atoms)}

        def h(x):
            return table[index[np.asarray(x).tobytes()]]

        T = pushforward_dual_map(mu, W, V, h)
        gamma = graph_coupling(mu, T)
        ok, resid = is_oblique_dual_measure(mu, pushforward(mu, T), gamma)
        assert ok and resid <= 1e-9


class TestTransferDual:
    def test_transfer_to_v_is_identity(self):
        mu, nu, gamma = skew_line_measures()
        W, V = skew_line_subspaces()
        nu_k, gamma_k = transfer_dual_to_K(nu, gamma, W, V)
        assert weak_equal(nu_k, nu)

    def test_transfer_to_w_gives_standard_dual(self):
        mu, nu, gamma = skew_line_measures()
        W, _ = skew_line_subspaces()
        nu_k, gamma_k = transfer_dual_to_K(nu, gamma, W, W)
        pw = orthogonal_projection(W)
        assert weak_equal(nu_k, linear_pushforward(nu, pw))
        ok, resid = is_oblique_dual_measure(mu, nu_k, gamma_k)
        assert ok and resid <= 1e-9

    def test_transfer_to_oblique_line(self):
        mu, nu, gamma = skew_line_measures()
        W, _ = skew_line_subspaces()
        K = line([1.0, 2.0])
        nu_k, gamma_k = transfer_dual_to_K(nu, gamma, W, K)
        ok, resid = is_oblique_dual_measure(mu, nu_k, gamma_k)
        assert ok and resid <= 1e-9

    def test_non_reconstructing_coupling_rejected(self):
        mu, nu, _ = skew_line_measures()
        W, V = skew_line_subspaces()
        nu_bad = DiscreteMeasure([[1.0, 1.0], [-1.0, -1.0]], [0.5, 0.5])
        gamma = product_coupling(mu, nu_bad)
        with pytest.raises(NotADual):
            transfer_dual_to_K(nu_bad, gamma, W, V)

    def test_coupling_of_another_measure_rejected(self):
        _, nu, gamma = skew_line_measures()
        W, V = skew_line_subspaces()
        other = DiscreteMeasure(nu.points, [0.25, 0.75])
        with pytest.raises(MarginalMismatch, match="second marginal"):
            transfer_dual_to_K(other, gamma, W, V)


class TestConsistencyCheck:
    def test_canonical_coupling_is_consistent(self):
        rng, W, V, mu = random_dual_instance(3)
        nu, gamma = canonical_dual_measure(mu, W, V)
        probes = rng.standard_normal((16, mu.ambient_dim))
        assert probabilistic_consistency_check(mu, nu, gamma, probes) <= 1e-9

    def test_skew_line_probes(self):
        mu, nu, gamma = skew_line_measures()
        resid = probabilistic_consistency_check(
            mu, nu, gamma, [np.array([1.0, 0.0]), np.array([0.0, 1.0])])
        assert resid <= 1e-12

    def test_non_dual_coupling_is_inconsistent(self):
        mu, _, _ = skew_line_measures()
        nu_bad = DiscreteMeasure([[1.0, 1.0], [3.0, 3.0]], [0.5, 0.5])
        gamma = product_coupling(mu, nu_bad)
        resid = probabilistic_consistency_check(
            mu, nu_bad, gamma, [np.array([1.0, 0.0])])
        assert resid > 1e-3

    @given(st.integers(0, 2_000))
    def test_agrees_with_the_moment_certificate(self, seed):
        rng, W, V, mu = random_dual_instance(seed)
        nu, gamma = canonical_dual_measure(mu, W, V)
        if seed % 2 == 1:
            # Swap in a clearly non-dual coupling over the same marginals.
            shift = V.basis[:, 0] * 0.5
            pts = nu.points + shift
            nu = DiscreteMeasure(pts, nu.weights)
            gamma = Coupling(gamma.x, pts, gamma.weights)
        ok, resid = is_oblique_dual_measure(mu, nu, gamma)
        probes = rng.standard_normal((32, mu.ambient_dim))
        consistency = probabilistic_consistency_check(mu, nu, gamma, probes)
        if ok:
            assert consistency <= 1e-9 * max(
                1.0, float(np.max(np.abs(probes))) * float(np.max(np.abs(nu.points))))
        if resid > 1e-6:
            assert consistency > 1e-9


class TestPfDualPotential:
    def test_mercedes_benz_canonical_saturates(self):
        mu = mercedes_benz_measure()
        R2 = full_space(2)
        nu, gamma = canonical_dual_measure(mu, R2, R2)
        rep = pf_dual_potential(mu, nu, "general", gamma)
        assert rep.value == pytest.approx(2.0, abs=1e-12)
        assert rep.lower_bound == pytest.approx(2.0)
        assert rep.saturated

    def test_skew_line_product_dual_is_not_saturated(self):
        mu, nu, gamma = skew_line_measures()
        rep = pf_dual_potential(mu, nu, "general", gamma)
        assert rep.value == pytest.approx(2.0, abs=1e-12)
        assert rep.lower_bound == pytest.approx(1.0)
        assert not rep.saturated

    def test_skew_line_canonical_saturates(self):
        W, V = skew_line_subspaces()
        mu = dirac([1.0, 0.0])
        nu, gamma = canonical_dual_measure(mu, W, V)
        rep = pf_dual_potential(mu, nu, "pushforward", gamma)
        assert rep.value == pytest.approx(1.0, abs=1e-12)
        assert rep.saturated

    def test_bad_certificate_rejected(self):
        mu, _, _ = skew_line_measures()
        nu_bad = DiscreteMeasure([[1.0, 1.0], [-1.0, -1.0]], [0.5, 0.5])
        gamma = product_coupling(mu, nu_bad)
        with pytest.raises(NotADual):
            pf_dual_potential(mu, nu_bad, "general", gamma)

    @pytest.mark.parametrize("mode", ["pushforward", "general"])
    def test_first_measure_must_be_a_frame_on_its_span(self, mode):
        # support_span keeps the 1e-10 direction; the frame test does not.
        mu = DiscreteMeasure([[1.0, 0.0], [0.0, 1e-10]], [0.5, 0.5])
        with pytest.raises(NotAFrame):
            pf_dual_potential(mu, mu, mode)

    @given(st.integers(0, 2_000))
    def test_pushforward_gap_vanishes_exactly_at_canonical(self, seed):
        rng, W, V, mu = random_dual_instance(seed)
        T0 = canonical_dual_map(mu, W, V)
        if seed % 2 == 0:
            nu = linear_pushforward(mu, T0)
        else:
            nu = pushforward(mu, random_table_dual_map(rng, mu, W, V))
        rep = pf_dual_potential(mu, nu, "pushforward")
        assert rep.gap >= -1e-9
        dist = float(np.max(np.abs(nu.points - mu.points @ T0.T)))
        if rep.gap <= 1e-9:
            assert dist <= 1e-6
        if dist > 1e-3:
            assert rep.gap > 1e-9


class TestMinimalEnergy:
    def test_vector_orthogonal_to_v_gets_zero_energy(self):
        mu, _, _ = skew_line_measures()
        W, V = skew_line_subspaces()
        f = orthogonal_complement(V).basis[:, 0]
        omega, energy = minimal_energy_coefficients(mu, W, V, f)
        assert np.allclose(omega, 0.0, atol=1e-12)
        assert energy <= 1e-15

    def test_skew_line_unit_vector(self):
        mu, _, _ = skew_line_measures()
        W, V = skew_line_subspaces()
        omega, energy = minimal_energy_coefficients(mu, W, V, [1.0, 0.0])
        assert omega == pytest.approx([1.0])
        assert energy == pytest.approx(1.0)

    @given(st.integers(0, 2_000))
    def test_matches_weighted_least_norm_oracle(self, seed):
        rng, W, V, mu = random_dual_instance(seed, m=6)
        f = rng.standard_normal(mu.ambient_dim)
        omega, energy = minimal_energy_coefficients(mu, W, V, f)
        # Oracle: substitute b_k = sqrt(w_k) c_k and take the least-norm
        # solution of the rescaled synthesis system.
        target = oblique_projection(W, V) @ f
        x_w = (mu.points * np.sqrt(mu.weights)[:, None]).T
        b = pseudoinverse(x_w) @ target
        assert energy == pytest.approx(float(b @ b), abs=1e-9)
