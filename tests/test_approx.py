import numpy as np
import pytest
from hypothesis import given, strategies as st

from obliqueframes import approx as approx_mod
from obliqueframes import (
    DEFAULT_TOL,
    Coupling,
    DiscreteMeasure,
    HypothesisViolated,
    approx_dual_residual,
    canonical_dual_measure,
    classify_probabilistic_frame,
    consistency_conversions,
    coupling_cost,
    interiority_experiment,
    is_oblique_dual_measure,
    oblique_projection,
    perturbation_certificate,
    product_coupling,
    support_span,
    uniform_atoms,
)
from obliqueframes.gallery import (
    full_space,
    mercedes_benz_measure,
    random_admissible_pair,
    random_measure_on,
    skew_line_measures,
    skew_line_subspaces,
)


def perturbed_skew_line():
    """The two-atom dual with its far atom nudged by 0.1 along the diagonal."""
    mu, nu, _ = skew_line_measures()
    nu_shift = DiscreteMeasure([[0.0, 0.0], [2.2, 2.2]], [0.5, 0.5])
    return mu, nu_shift, product_coupling(mu, nu_shift)


class TestApproxDualResidual:
    def test_exact_dual_has_zero_residual(self):
        mu, nu, gamma = skew_line_measures()
        W, V = skew_line_subspaces()
        rep = approx_dual_residual(mu, nu, gamma, W, V)
        assert rep.epsilon_residual <= 1e-12
        assert rep.consistency_bound <= 1e-11

    def test_shifted_atom_gives_known_residual(self):
        mu, nu_shift, gamma = perturbed_skew_line()
        W, V = skew_line_subspaces()
        rep = approx_dual_residual(mu, nu_shift, gamma, W, V)
        # Moment matrix [[1.1, 1.1], [0, 0]] against [[1, 1], [0, 0]].
        assert rep.epsilon_residual == pytest.approx(0.1 * np.sqrt(2.0),
                                                     abs=1e-12)

    def test_mean_zero_sampling_measure_leaves_the_projection_norm(self):
        mu, _, _ = skew_line_measures()
        W, V = skew_line_subspaces()
        nu_sym = DiscreteMeasure([[1.0, 1.0], [-1.0, -1.0]], [0.5, 0.5])
        rep = approx_dual_residual(mu, nu_sym, product_coupling(mu, nu_sym),
                                   W, V)
        # F = 0, so the residual is the oblique projection's own norm,
        # the reciprocal of the subspace angle cosine.
        assert rep.epsilon_residual == pytest.approx(np.sqrt(2.0), abs=1e-12)


class TestConsistencySupremum:
    @given(st.integers(0, 1_000))
    def test_closed_form_dominates_and_is_attained(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 5))
        d = int(rng.integers(1, n))
        W, V = random_admissible_pair(rng, n, d)
        mu = random_measure_on(rng, W, d + 2)
        nu, gamma = canonical_dual_measure(mu, W, V)
        if seed % 2 == 1:
            # Perturb one sampling atom inside V to leave exact duality.
            shift = 0.3 * V.basis[:, 0]
            pts = np.array(nu.points)
            pts[0] += shift
            nu = DiscreteMeasure(pts, nu.weights)
            gamma = Coupling(gamma.x, pts, gamma.weights)
        rep = approx_dual_residual(mu, nu, gamma, W, V)
        F = gamma.moment_matrix()

        def sampled_error(f):
            err = f - F @ f
            vals = nu.points @ err
            return float(np.sqrt(np.sum(nu.weights * vals * vals)))

        probes = rng.standard_normal((1000, n))
        probes /= np.linalg.norm(probes, axis=1, keepdims=True)
        values = [sampled_error(f) for f in probes]
        assert max(values) <= rep.consistency_bound + 1e-9
        # Independent maximization route: power iteration directly on the
        # atom-sum quadratic form, started from the best random probe.
        f = probes[int(np.argmax(values))]
        quad = (np.eye(n) - F).T @ (
            np.einsum("k,ki,kj->ij", nu.weights, nu.points, nu.points)
        ) @ (np.eye(n) - F)
        for _ in range(500):
            f = quad @ f
            norm = np.linalg.norm(f)
            if norm == 0.0:
                break
            f /= norm
        assert sampled_error(f) <= rep.consistency_bound + 1e-9
        assert rep.consistency_bound - sampled_error(f) <= 1e-6


class TestConsistencyConversions:
    def test_exact_dual_everything_vanishes(self):
        mu, nu, gamma = skew_line_measures()
        W, V = skew_line_subspaces()
        rep = approx_dual_residual(mu, nu, gamma, W, V)
        to_cons, to_approx = consistency_conversions(rep, nu, W, V)
        assert to_cons <= 1e-11
        assert to_approx <= 1e-10

    def test_perturbed_instance_sandwich(self):
        mu, nu_shift, gamma = perturbed_skew_line()
        W, V = skew_line_subspaces()
        rep = approx_dual_residual(mu, nu_shift, gamma, W, V)
        to_cons, to_approx = consistency_conversions(rep, nu_shift, W, V)
        assert rep.consistency_bound <= to_cons + 1e-9
        assert rep.epsilon_residual <= to_approx + 1e-9

    def test_parseval_contraction_has_exact_constant(self):
        # nu Parseval on the plane; moment matrix (1 - delta) * identity
        # arises from shrinking the synthesis atoms of the graph coupling.
        delta = 0.125
        atoms = np.sqrt(2.0) * np.array([[1.0, 0.0], [-1.0, 0.0],
                                         [0.0, 1.0], [0.0, -1.0]])
        nu = uniform_atoms(atoms)
        mu = uniform_atoms((1.0 - delta) * atoms)
        gamma = Coupling((1.0 - delta) * atoms, atoms, np.full(4, 0.25))
        R2 = full_space(2)
        rep = approx_dual_residual(mu, nu, gamma, R2, R2)
        assert rep.consistency_bound == pytest.approx(delta, abs=1e-12)
        assert rep.epsilon_residual == pytest.approx(delta, abs=1e-12)

    @given(st.integers(0, 1_000))
    def test_sandwich_on_random_perturbations(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 5))
        d = int(rng.integers(1, n))
        W, V = random_admissible_pair(rng, n, d)
        mu = random_measure_on(rng, W, d + 2)
        nu, gamma = canonical_dual_measure(mu, W, V)
        jitter = 0.2 * (rng.standard_normal(nu.points.shape)
                        @ (V.basis @ V.basis.T))
        pts = nu.points + jitter
        nu_p = DiscreteMeasure(pts, nu.weights)
        gamma_p = Coupling(gamma.x, pts, gamma.weights)
        rep = approx_dual_residual(mu, nu_p, gamma_p, W, V)
        to_cons, to_approx = consistency_conversions(rep, nu_p, W, V)
        assert rep.consistency_bound <= to_cons + 1e-9
        assert rep.epsilon_residual <= to_approx + 1e-9


class TestPerturbationCertificate:
    def test_identity_perturbation(self):
        mu, nu, gamma = skew_line_measures()
        pairs = Coupling(nu.points, nu.points, nu.weights)
        cert = perturbation_certificate(mu, nu, gamma, nu, pairs, eps=0.1)
        assert cert.lam == 0.0
        assert cert.epsilon_actual <= 1e-12

    def test_skew_line_monotone_perturbation(self):
        mu, nu, gamma = skew_line_measures()
        eta = DiscreteMeasure([[0.05, 0.05], [2.05, 2.05]], [0.5, 0.5])
        pert = Coupling(nu.points, eta.points, [0.5, 0.5])
        lam = coupling_cost(pert)
        assert lam == pytest.approx(0.005)
        cert = perturbation_certificate(mu, nu, gamma, eta, pert, eps=0.1)
        # The admissible lower bound is 1/C = 1 here, not the spectrum's 4.
        assert cert.a_lower == pytest.approx(1.0)
        assert cert.epsilon_claimed == pytest.approx(np.sqrt(0.005))
        assert cert.epsilon_actual <= cert.epsilon_claimed + 1e-12
        # Perturbed-frame floor: eta keeps a lower bound (sqrt A - sqrt lam)^2.
        V = skew_line_subspaces()[1]
        eta_lo = classify_probabilistic_frame(eta, V).bounds[0]
        assert eta_lo >= (1.0 - np.sqrt(lam)) ** 2 - 1e-9

    def test_cost_budget_enforced(self):
        mu, nu, gamma = skew_line_measures()
        eta = DiscreteMeasure([[1.0, 1.0], [3.0, 3.0]], [0.5, 0.5])
        pert = Coupling(nu.points, eta.points, [0.5, 0.5])
        with pytest.raises(HypothesisViolated):
            perturbation_certificate(mu, nu, gamma, eta, pert, eps=0.1)

    @given(st.integers(0, 500))
    def test_certified_residual_chain(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 5))
        d = int(rng.integers(1, n + 1))
        W, V = random_admissible_pair(rng, n, d)
        mu = random_measure_on(rng, W, d + 1)
        nu, gamma = canonical_dual_measure(mu, W, V)
        c_upper = classify_probabilistic_frame(mu, W).bounds[1]
        eps = 0.25
        a = min(classify_probabilistic_frame(nu, V).bounds[0], 1.0 / c_upper)
        jitter = rng.standard_normal(nu.points.shape) @ (V.basis @ V.basis.T)
        norm2 = float(np.sum(nu.weights
                             * np.einsum("ki,ki->k", jitter, jitter)))
        jitter *= np.sqrt(a) * eps / np.sqrt(norm2)
        eta = DiscreteMeasure(nu.points + jitter, nu.weights)
        pert = Coupling(nu.points, eta.points, nu.weights)
        cert = perturbation_certificate(mu, nu, gamma, eta, pert, eps)
        lam = cert.lam
        assert cert.epsilon_actual <= np.sqrt(lam * c_upper) + 1e-9
        assert np.sqrt(lam * c_upper) <= eps + 1e-9
        assert cert.epsilon_actual <= eps + 1e-9


class TestInteriorityExperiment:
    def test_zero_radius_trials_are_exact(self):
        mu = mercedes_benz_measure()
        R2 = full_space(2)
        summary = interiority_experiment(mu, R2, R2, eps=0.0, trials=10,
                                         rng_seed=0)
        assert summary.failures == 0
        assert summary.max_epsilon_actual <= 1e-12

    def test_mercedes_benz_w_equals_v(self):
        mu = mercedes_benz_measure()
        R2 = full_space(2)
        summary = interiority_experiment(mu, R2, R2, eps=0.1, trials=25,
                                         rng_seed=7)
        assert summary.failures == 0
        assert summary.max_epsilon_actual <= 0.1 + 1e-9
        assert all(r.frame_bound_ok for r in summary.records)
        assert all(r.eps_actual <= r.eps_claimed + 1e-9
                   for r in summary.records)

    def test_skew_line_boundary_stress(self):
        mu, _, _ = skew_line_measures()
        W, V = skew_line_subspaces()
        summary = interiority_experiment(mu, W, V, eps=0.5, trials=25,
                                         rng_seed=11)
        assert summary.failures == 0
        assert summary.max_epsilon_actual <= 0.5 + 1e-9
        # The sampler pushes against the admissible boundary.
        assert max(r.lam for r in summary.records) >= 0.8 * (0.5 ** 2) * 1.0

    def test_a_violating_trial_is_counted(self, monkeypatch):
        # A residual above eps is a failed trial of the experiment, not an
        # abort: it is counted, and its record says so.
        monkeypatch.setattr(approx_mod, "spectral_norm", lambda _: 1.0)
        R2 = full_space(2)
        summary = interiority_experiment(mercedes_benz_measure(), R2, R2,
                                         eps=0.1, trials=3, rng_seed=0)
        assert summary.failures == 3
        assert not any(r.passed for r in summary.records)

    def test_trials_match_the_public_certificate(self, monkeypatch):
        # The experiment certifies the exact dual once and each trial runs
        # only the perturbation checks, gluing by nu's atom index; the
        # results must be the ones the full public certificate gives on the
        # same perturbation.  At eps = 2.0 a bisection probe pivots.
        from obliqueframes import transport

        sampled, pivots = [], []
        sample = approx_mod._sample_in_w2_ball
        solve = transport.solve_transport

        def recording(*args):
            sampled.append(sample(*args))
            return sampled[-1]

        def counting(*args, **kwargs):
            flows, cert = solve(*args, **kwargs)
            pivots.append(cert.iterations)
            return flows, cert

        rng = np.random.default_rng(5)
        W, V = random_admissible_pair(rng, 3, 2)
        mu = random_measure_on(rng, W, 4)
        nu, gamma = canonical_dual_measure(mu, W, V)
        monkeypatch.setattr(approx_mod, "_sample_in_w2_ball", recording)
        monkeypatch.setattr(transport, "solve_transport", counting)
        for eps in (0.2, 2.0):
            sampled.clear()
            pivots.clear()
            summary = interiority_experiment(mu, W, V, eps=eps, trials=4,
                                             rng_seed=3)
            assert any(pivots) == (eps == 2.0)
            assert len(sampled) == len(summary.records) == 4
            for record, (eta, flows) in zip(summary.records, sampled):
                pert = transport._flow_coupling(nu, eta, flows)
                cert = perturbation_certificate(mu, nu, gamma, eta, pert, eps)
                assert cert.lam == record.lam
                assert cert.epsilon_actual == record.eps_actual

    def test_coincident_dual_atoms(self, monkeypatch):
        # Split two atoms of a seeded measure: one into exact duplicates,
        # one into atoms 1e-12 apart.  The public certificate's glue pools
        # each pair of nu's images, which the trials' index glue keeps
        # apart; the glued couplings are equal as measures.
        from obliqueframes import transport

        sampled = []
        sample = approx_mod._sample_in_w2_ball

        def recording(*args):
            sampled.append(sample(*args))
            return sampled[-1]

        rng = np.random.default_rng(9)
        W, V = random_admissible_pair(rng, 3, 2)
        base = random_measure_on(rng, W, 6)
        nudge = 1e-12 * W.basis[:, 0]
        points = np.vstack([base.points, base.points[0],
                            base.points[1] + nudge])
        weights = np.concatenate([base.weights, base.weights[:2] / 2])
        weights[:2] /= 2
        mu = DiscreteMeasure(points, weights)
        monkeypatch.setattr(approx_mod, "_sample_in_w2_ball", recording)
        summary = interiority_experiment(mu, W, V, eps=0.5, trials=8,
                                         rng_seed=0)
        assert summary.failures == 0
        nu, gamma = canonical_dual_measure(mu, W, V)
        assert np.array_equal(nu.points[0], nu.points[6])
        assert 0 < np.max(np.abs(nu.points[1] - nu.points[7])) <= 1e-9
        for record, (eta, flows) in zip(summary.records, sampled):
            pert = transport._flow_coupling(nu, eta, flows)
            cert = perturbation_certificate(mu, nu, gamma, eta, pert, 0.5)
            assert cert.lam == record.lam
            assert abs(cert.epsilon_actual - record.eps_actual) <= 1e-12

    def test_exact_dual_is_spanned_and_projected_once(self, monkeypatch):
        from obliqueframes import duality

        mu = mercedes_benz_measure()
        R2 = full_space(2)
        nu, gamma = canonical_dual_measure(mu, R2, R2)
        calls = []
        for module in (duality, approx_mod):
            for name in ("factor_span", "oblique_projection"):
                if hasattr(module, name):
                    real = getattr(module, name)

                    def counting(*args, _name=name, _real=real):
                        calls.append(_name)
                        return _real(*args)

                    monkeypatch.setattr(module, name, counting)
        dual = approx_mod._ExactDual.certify(mu, nu, gamma, DEFAULT_TOL)
        assert sorted(calls) == ["factor_span", "factor_span",
                                 "oblique_projection"]
        W, V = support_span(mu), support_span(nu)
        assert np.array_equal(dual.pi_wv, oblique_projection(W, V))


class TestCertifiedStart:
    @pytest.mark.parametrize("atoms", [12, 50])
    @pytest.mark.parametrize("eps", [0.01, 0.1, 0.5, 1.0, 2.0])
    def test_identity_start_leaves_the_trials_unchanged(self, monkeypatch,
                                                        atoms, eps):
        # Every bisection probe passes the identity plan as its start.  A
        # certified start must return what the simplex returns, and an
        # uncertified one must fall back to the simplex itself.
        from obliqueframes import transport

        rng = np.random.default_rng([atoms, 17])
        W, V = random_admissible_pair(rng, 3, 2)
        mu = random_measure_on(rng, W, atoms)
        solve = transport.solve_transport
        pivots = []

        def recording(cost, supply, demand, *, start=None):
            assert start is not None
            flows, cert = solve(cost, supply, demand, start=start)
            pivots.append(cert.iterations)
            return flows, cert

        monkeypatch.setattr(transport, "solve_transport", recording)
        with_start = interiority_experiment(mu, W, V, eps=eps, trials=3,
                                            rng_seed=5)
        monkeypatch.setattr(transport, "solve_transport",
                            lambda cost, supply, demand, *, start=None:
                            solve(cost, supply, demand))
        without = interiority_experiment(mu, W, V, eps=eps, trials=3,
                                         rng_seed=5)
        assert with_start == without
        assert with_start.failures == 0
        if eps <= 0.01:
            assert not any(pivots)
        if eps >= 1.0:
            assert any(pivots)


    def test_certified_first_probe_inside_the_ball_is_the_only_solve(
            self, monkeypatch):
        # On the triangle at eps = 0.1 the identity plan is optimal at every
        # first probe, which must then land inside the ball, not a few ulps
        # past its radius, and end the trial's search.
        from obliqueframes import transport

        certified, probes, trials = [], [], []
        certify = transport._certify_start
        solve = approx_mod._solve_w2
        sample = approx_mod._sample_in_w2_ball

        def certifying(*args):
            result = certify(*args)
            certified.append(result is not None)
            return result

        def solving(*args, **kwargs):
            result = solve(*args, **kwargs)
            probes.append((result[0], certified[-1]))
            return result

        def sampling(nu, V, radius, rng):
            first = len(probes)
            result = sample(nu, V, radius, rng)
            trials.append((radius, probes[first:]))
            return result

        monkeypatch.setattr(transport, "_certify_start", certifying)
        monkeypatch.setattr(approx_mod, "_solve_w2", solving)
        monkeypatch.setattr(approx_mod, "_sample_in_w2_ball", sampling)
        R2 = full_space(2)
        summary = interiority_experiment(mercedes_benz_measure(), R2, R2,
                                         eps=0.1, trials=50, rng_seed=1)
        assert summary.failures == 0
        assert len(trials) == 50
        for radius, calls in trials:
            distance, was_certified = calls[0]
            assert was_certified and 0.9 * radius <= distance <= radius
            assert len(calls) == 1


class TestCrossModuleConsistency:
    @given(st.integers(0, 1_000))
    def test_zero_epsilon_coincides_with_exact_duality(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 5))
        d = int(rng.integers(1, n + 1))
        W, V = random_admissible_pair(rng, n, d)
        mu = random_measure_on(rng, W, d + 1)
        nu, gamma = canonical_dual_measure(mu, W, V)
        ok, resid = is_oblique_dual_measure(mu, nu, gamma)
        rep = approx_dual_residual(mu, nu, gamma, W, V)
        assert ok
        assert rep.epsilon_residual <= 1e-12
        # The two routes build the projection from different bases; they
        # agree up to roundoff.
        assert abs(rep.epsilon_residual - resid) <= 1e-12
