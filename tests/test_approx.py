import numpy as np
import pytest
from hypothesis import given, strategies as st

from obliqueframes import approx as approx_mod
from obliqueframes import (
    DEFAULT_TOL,
    Coupling,
    DiscreteMeasure,
    HypothesisViolated,
    MarginalMismatch,
    SupportOutsideSubspace,
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


def record_trials(monkeypatch):
    """A dict that gains, for each trial the experiment judges, its jittered
    measure eta and its optimal plan from nu, read from the stacks of
    trials that _Trials.judge is given."""
    sampled = {}
    judge = approx_mod._Trials.judge

    def recording(self, trials, points, flows):
        for t, eta in zip(trials, points):
            sampled[t] = (DiscreteMeasure(eta, self.nu.weights), flows)
        return judge(self, trials, points, flows)

    monkeypatch.setattr(approx_mod._Trials, "judge", recording)
    return sampled


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
        # The experiment certifies the exact dual once and judges its trials
        # in stacks, gluing by nu's atom index; each trial's results must be
        # the ones the full public certificate gives on the same
        # perturbation.  At eps = 2.0 a bisection probe pivots.
        from obliqueframes import transport

        pivots = []
        sampled = record_trials(monkeypatch)
        solve = transport.solve_transport

        def counting(*args, **kwargs):
            flows, cert = solve(*args, **kwargs)
            pivots.append(cert.iterations)
            return flows, cert

        rng = np.random.default_rng(5)
        W, V = random_admissible_pair(rng, 3, 2)
        mu = random_measure_on(rng, W, 4)
        nu, gamma = canonical_dual_measure(mu, W, V)
        monkeypatch.setattr(transport, "solve_transport", counting)
        for eps in (0.2, 2.0):
            sampled.clear()
            pivots.clear()
            summary = interiority_experiment(mu, W, V, eps=eps, trials=4,
                                             rng_seed=3)
            assert any(pivots) == (eps == 2.0)
            assert sorted(sampled) == [r.trial for r in summary.records] \
                == [0, 1, 2, 3]
            for record in summary.records:
                eta, flows = sampled[record.trial]
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

        sampled = record_trials(monkeypatch)
        rng = np.random.default_rng(9)
        W, V = random_admissible_pair(rng, 3, 2)
        base = random_measure_on(rng, W, 6)
        nudge = 1e-12 * W.basis[:, 0]
        points = np.vstack([base.points, base.points[0],
                            base.points[1] + nudge])
        weights = np.concatenate([base.weights, base.weights[:2] / 2])
        weights[:2] /= 2
        mu = DiscreteMeasure(points, weights)
        summary = interiority_experiment(mu, W, V, eps=0.5, trials=8,
                                         rng_seed=0)
        assert summary.failures == 0
        nu, gamma = canonical_dual_measure(mu, W, V)
        assert np.array_equal(nu.points[0], nu.points[6])
        assert 0 < np.max(np.abs(nu.points[1] - nu.points[7])) <= 1e-9
        assert sorted(sampled) == list(range(8))
        for record in summary.records:
            eta, flows = sampled[record.trial]
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


def refusing_certification(monkeypatch):
    """Make the identity kernel refuse every matrix of its stack."""
    certify = approx_mod._certify_identity

    def refusing(*args):
        certified, primal = certify(*args)
        return np.zeros_like(certified), primal

    monkeypatch.setattr(approx_mod, "_certify_identity", refusing)


class TestCertifiedStart:
    @pytest.mark.parametrize("atoms", [12, 50])
    @pytest.mark.parametrize("eps", [0.01, 0.1, 0.5, 1.0, 2.0])
    def test_identity_start_leaves_the_trials_unchanged(self, monkeypatch,
                                                        atoms, eps):
        # The chunk's first probes are certified in one stacked call.  A
        # certified diag(w) must give what the simplex gives: with every
        # certification refused, every first probe runs the simplex, and the
        # trials must come out the same.
        from obliqueframes import transport

        rng = np.random.default_rng([atoms, 17])
        W, V = random_admissible_pair(rng, 3, 2)
        mu = random_measure_on(rng, W, atoms)
        solve = transport.solve_transport
        pivots = []

        def recording(cost, supply, demand):
            flows, cert = solve(cost, supply, demand)
            pivots.append(cert.iterations)
            return flows, cert

        monkeypatch.setattr(transport, "solve_transport", recording)
        with_start = interiority_experiment(mu, W, V, eps=eps, trials=3,
                                            rng_seed=5)
        with_pivots = list(pivots)
        pivots.clear()
        refusing_certification(monkeypatch)
        without = interiority_experiment(mu, W, V, eps=eps, trials=3,
                                         rng_seed=5)
        assert with_start == without
        assert with_start.failures == 0
        # Each trial's first probe at least ran the simplex.
        assert len(pivots) >= 3
        if eps <= 0.01:
            assert not any(with_pivots)
        if eps >= 1.0:
            assert any(with_pivots)

    def test_certified_first_probe_inside_the_ball_is_the_only_solve(
            self, monkeypatch):
        # On the triangle at eps = 0.1 the identity plan is optimal at every
        # first probe, which must then land inside the ball, not a few ulps
        # past its radius, and end the trial's search: each chunk's first
        # probes are certified in one stacked call, and no W2 solve runs.
        from obliqueframes import transport

        mu = mercedes_benz_measure()
        R2 = full_space(2)
        nu, gamma = canonical_dual_measure(mu, R2, R2)
        dual = approx_mod._ExactDual.certify(mu, nu, gamma, DEFAULT_TOL)
        radius = np.sqrt(dual.a_max) * 0.1
        stacks, solves = [], []
        certify = approx_mod._certify_identity

        def certifying(*args):
            result = certify(*args)
            stacks.append((result[0], np.sqrt(result[1])))
            return result

        monkeypatch.setattr(approx_mod, "_certify_identity", certifying)
        monkeypatch.setattr(transport, "solve_transport",
                            lambda *args, **kwargs: solves.append(args))
        # 50 trials of 3 atoms in R^2: one chunk, or four of at most 16.
        for cells, chunks in [(approx_mod.CHUNK_CELLS, 1), (16 * 9 * 2, 4)]:
            monkeypatch.setattr(approx_mod, "CHUNK_CELLS", cells)
            stacks.clear()
            summary = interiority_experiment(mu, R2, R2, eps=0.1, trials=50,
                                             rng_seed=1)
            assert summary.failures == 0
            assert solves == []
            assert len(stacks) == chunks
            assert sum(certified.size for certified, _ in stacks) == 50
            for certified, distance in stacks:
                assert certified.all()
                assert np.all((0.9 * radius <= distance) & (distance <= radius))

    def test_a_refused_first_probe_is_certified_once(self, monkeypatch):
        # At eps = 2.0 on 12 seeded atoms some first probes are refused.
        # The chunk's one stacked call is the only certification: each
        # refused trial solves its first probe by the simplex once, and
        # resumes the bisection from it, each later probe a simplex solve.
        from obliqueframes import transport

        rng = np.random.default_rng([12, 17])
        W, V = random_admissible_pair(rng, 3, 2)
        mu = random_measure_on(rng, W, 12)
        calls = []

        def counting(module, name):
            real = getattr(module, name)

            def wrapper(*args):
                result = real(*args)
                calls.append((module.__name__, name, result))
                return result

            monkeypatch.setattr(module, name, wrapper)

        for module in (approx_mod, transport):
            counting(module, "_certify_identity")
            counting(module, "_w2_of_cost")
        summary = interiority_experiment(mu, W, V, eps=2.0, trials=8,
                                         rng_seed=5)
        assert summary.failures == 0
        [(certified, _)] = [r for _, name, r in calls
                            if name == "_certify_identity"]
        assert certified.size == 8
        refused = int(np.sum(~certified))
        assert 0 < refused < 8
        solves = [module for module, name, _ in calls if name == "_w2_of_cost"]
        assert solves.count(approx_mod.__name__) == refused
        assert solves.count(transport.__name__) > 0


def chunk_case(case):
    """mu, W and V of the inputs the chunk tests run on."""
    if case == "triangle":
        return mercedes_benz_measure(), full_space(2), full_space(2)
    if case == "skew-lines":
        return (skew_line_measures()[0], *skew_line_subspaces())
    rng = np.random.default_rng([12, 17])
    W, V = random_admissible_pair(rng, 3, 2)
    return random_measure_on(rng, W, 12), W, V


class TestTrialChunks:
    @pytest.mark.parametrize("case", ["triangle", "skew-lines", "oblique12"])
    @pytest.mark.parametrize("eps", [0.0, 0.1, 2.0])
    def test_chunk_size_changes_no_record(self, monkeypatch, case, eps):
        # One trial per chunk, and chunks of 5 that do not divide the 12
        # trials, give the records of the default chunk.
        mu, W, V = chunk_case(case)
        want = interiority_experiment(mu, W, V, eps=eps, trials=12,
                                      rng_seed=4)
        assert want.failures == 0
        for trials in (1, 5):
            monkeypatch.setattr(approx_mod, "CHUNK_CELLS",
                                trials * mu.num_atoms ** 2 * mu.ambient_dim)
            assert interiority_experiment(mu, W, V, eps=eps, trials=12,
                                          rng_seed=4) == want

    @pytest.mark.parametrize("kind, error", [
        ("budget", HypothesisViolated),
        ("support", SupportOutsideSubspace),
        ("marginal", MarginalMismatch),
    ])
    def test_the_lowest_failing_trial_raises_its_own_error(
            self, monkeypatch, kind, error):
        # Trial `bad` fails one check after trials of its chunk that pass,
        # and a later trial of the chunk is over the cost budget, a check
        # that a stack runs before the frame test and that the chunk's
        # stack of certified trials runs before any resumed trial's.  The
        # error must be trial bad's own, as when the trials run one at a
        # time.  A marginal mismatch can only come from a resumed trial's
        # plan, so that trial is one whose first probe was refused.  At
        # eps = 0.5 and seed 2, the first probes of trials 0, 1, 2 and 4 are
        # certified, and the others refused.
        mu, W, V = chunk_case("oblique12")
        eps, seed = 0.5, 2
        judged = record_trials(monkeypatch)
        stacks = []
        judge = approx_mod._Trials.judge

        def recording(self, trials, points, flows):
            stacks.append(list(trials))
            return judge(self, trials, points, flows)

        monkeypatch.setattr(approx_mod._Trials, "judge", recording)
        interiority_experiment(mu, W, V, eps=eps, trials=8, rng_seed=seed)
        assert sorted(judged) == list(range(8))
        stacked = [t for ts in stacks if len(ts) > 1 for t in ts]
        if kind == "marginal":
            bad = min(t for [t] in (ts for ts in stacks if len(ts) == 1)
                      if t > min(stacked))
        else:
            bad = 2
        later = max(stacked)
        assert min(stacked) < bad < later
        normal = np.linalg.svd(V.basis)[0][:, -1]

        def violating(self, trials, points, flows):
            points = np.array(points)
            for k, t in enumerate(trials):
                if t == later or (t == bad and kind == "budget"):
                    points[k] = self.nu.points + 10.0 * (points[k]
                                                         - self.nu.points)
                elif t == bad and kind == "support":
                    points[k] = self.nu.points + 1e-6 * normal
                elif t == bad:
                    flows = 1.5 * flows
            return judge(self, trials, points, flows)

        monkeypatch.setattr(approx_mod._Trials, "judge", violating)
        errors = []
        for cells in (approx_mod.CHUNK_CELLS, 1):
            monkeypatch.setattr(approx_mod, "CHUNK_CELLS", cells)
            with pytest.raises(error) as exc:
                interiority_experiment(mu, W, V, eps=eps, trials=8,
                                       rng_seed=seed)
            errors.append(str(exc.value))
        assert errors[0] == errors[1]


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
