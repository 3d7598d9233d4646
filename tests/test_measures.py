import numpy as np
import pytest
from hypothesis import given, strategies as st

from obliqueframes import (
    DiscreteMeasure,
    SupportOutsideSubspace,
    classify_probabilistic_frame,
    dirac,
    linear_pushforward,
    measure_frame_operator,
    orthogonal_projection,
    psd_pinv_sqrt,
    pseudoinverse,
    pushforward,
    second_moment,
    spectral_norm,
    uniform_atoms,
    weak_equal,
)
from obliqueframes.measures import (POSITION_TOL, _moment_matrix,
                                   _weighted_square_sum, match_atoms)
from obliqueframes.gallery import (
    full_space,
    line,
    mercedes_benz_measure,
    random_measure_on,
    random_subspace,
    skew_line_measures,
    skew_line_subspaces,
)


class TestDiscreteMeasure:
    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError):
            DiscreteMeasure([[1.0], [0.0]], [0.5, 0.4])

    def test_negative_weights_rejected(self):
        with pytest.raises(ValueError):
            DiscreteMeasure([[1.0], [0.0]], [1.5, -0.5])

    def test_zero_weight_atoms_are_not_support(self):
        mu = DiscreteMeasure([[1.0], [2.0]], [1.0, 0.0])
        assert mu.support().shape == (1, 1)


class TestWeakEquality:
    def test_permutation_invariance(self):
        a = DiscreteMeasure([[0.0, 1.0], [1.0, 0.0]], [0.25, 0.75])
        b = DiscreteMeasure([[1.0, 0.0], [0.0, 1.0]], [0.75, 0.25])
        assert weak_equal(a, b)

    def test_split_atoms_aggregate(self):
        a = DiscreteMeasure([[1.0], [1.0], [2.0]], [0.25, 0.25, 0.5])
        b = DiscreteMeasure([[2.0], [1.0]], [0.5, 0.5])
        assert weak_equal(a, b)

    def test_position_tolerance(self):
        a = dirac([1.0, 0.0])
        b = dirac([1.0 + 1e-12, 0.0])
        c = dirac([1.0 + 1e-6, 0.0])
        assert weak_equal(a, b)
        assert not weak_equal(a, c)

    def test_weight_mismatch_detected(self):
        a = DiscreteMeasure([[0.0], [1.0]], [0.5, 0.5])
        b = DiscreteMeasure([[0.0], [1.0]], [0.6, 0.4])
        assert not weak_equal(a, b)

    def test_matching_atoms_need_not_be_lexsort_neighbours(self):
        # [0, 2] sorts between [0, 1] and [1e-12, 1], which are one atom.
        a = DiscreteMeasure([[0.0, 1.0], [0.0, 2.0]], [0.5, 0.5])
        b = DiscreteMeasure([[1e-12, 1.0], [0.0, 2.0]], [0.5, 0.5])
        assert weak_equal(a, b)
        assert weak_equal(b, a)


def single_linkage_oracle(points):
    """Brute-force components of the max-norm POSITION_TOL relation."""
    m = len(points)
    near = np.max(np.abs(points[:, None] - points[None]), axis=2) <= POSITION_TOL
    component = list(range(m))
    changed = True
    while changed:
        changed = False
        for i in range(m):
            for j in np.flatnonzero(near[i]):
                if component[j] > component[i]:
                    component[j] = component[i]
                    changed = True
    return component


class TestMatchAtoms:
    def check_against_oracle(self, points, weights):
        labels, reps, sums = match_atoms(points, weights)
        component = single_linkage_oracle(points)
        # Same partition of the rows.
        pairs = {(component[i], int(labels[i])) for i in range(len(points))}
        assert len(pairs) == len(set(component)) == len(reps)
        # Groups come in the order of their lexicographically first rows,
        # which represent them; weights are summed in lexicographic order.
        order = np.lexsort(points.T[::-1])
        seen = []
        for i in order:
            if labels[i] not in seen:
                seen.append(labels[i])
                assert np.array_equal(reps[labels[i]], points[i])
        assert seen == list(range(len(reps)))
        expected = np.zeros(len(reps))
        for i in order:
            expected[labels[i]] += weights[i]
        assert np.array_equal(sums, expected)

    def test_exact_duplicates_form_one_group(self):
        pts = np.array([[1.0, 0.0], [0.0, 0.0], [1.0, 0.0], [0.0, 0.0]])
        labels, reps, sums = match_atoms(pts, np.array([0.1, 0.2, 0.3, 0.4]))
        assert labels.tolist() == [1, 0, 1, 0]
        assert reps.tolist() == [[0.0, 0.0], [1.0, 0.0]]
        assert sums.tolist() == [0.2 + 0.4, 0.1 + 0.3]

    def test_chains_join_ends_farther_apart_than_the_tolerance(self):
        pts = np.array([[0.0], [0.8e-9], [1.6e-9], [2.4e-9], [5.0e-9]])
        labels, reps, _ = match_atoms(pts, np.ones(5))
        assert labels.tolist() == [0, 0, 0, 0, 1]
        assert np.max(np.abs(pts[3] - pts[0])) > POSITION_TOL
        self.check_against_oracle(pts, np.arange(5.0))

    def test_a_bridge_merges_two_existing_groups(self):
        tol = POSITION_TOL
        pts = np.array([[0.0, 0.0], [0.0, 0.5 * tol],
                        [1.8 * tol, 0.0], [1.8 * tol, 0.5 * tol],
                        [0.9 * tol, 0.25 * tol]])
        labels, _, sums = match_atoms(pts, np.ones(5))
        assert set(labels.tolist()) == {0}
        assert sums.tolist() == [5.0]
        self.check_against_oracle(pts, np.arange(5.0))
        labels, _, _ = match_atoms(pts[:4], np.ones(4))
        assert labels.tolist() == [0, 0, 1, 1]

    def test_empty_input(self):
        labels, reps, sums = match_atoms(np.empty((0, 3)), np.empty(0))
        assert labels.shape == (0,) and reps.shape == (0, 3)
        assert sums.shape == (0,)

    @given(st.integers(0, 10_000), st.sampled_from([1, 2, 4, 64]))
    def test_agrees_with_the_brute_force_oracle(self, seed, n):
        rng = np.random.default_rng(seed)
        centers = rng.integers(-2, 3, size=(int(rng.integers(1, 5)), n))
        m = int(rng.integers(1, 30))
        steps = rng.integers(-3, 4, size=(m, n)) * (rng.random((m, n)) < 0.5)
        pts = centers[rng.integers(0, len(centers), m)] \
            + steps * rng.choice([0.3, 0.45, 0.6]) * POSITION_TOL
        pts = np.vstack([pts, pts[rng.integers(0, m, int(rng.integers(0, 6)))]])
        self.check_against_oracle(pts, rng.standard_normal(len(pts)))


class TestFrameOperator:
    def test_dirac_on_the_axis(self):
        assert np.allclose(measure_frame_operator(dirac([1.0, 0.0])),
                           np.diag([1.0, 0.0]))

    def test_uniform_standard_basis(self):
        mu = uniform_atoms(np.eye(2))
        assert np.allclose(measure_frame_operator(mu), 0.5 * np.eye(2))

    def test_two_atom_measure(self):
        mu = DiscreteMeasure([[0.0, 0.0], [2.0, 2.0]], [0.5, 0.5])
        assert np.allclose(measure_frame_operator(mu),
                           [[2.0, 2.0], [2.0, 2.0]])

    def test_mercedes_benz_is_half_identity(self):
        S = measure_frame_operator(mercedes_benz_measure())
        assert np.allclose(S, 0.5 * np.eye(2), atol=1e-12)


class TestMomentKernels:
    @pytest.mark.parametrize("seed", range(6))
    def test_moment_matrix_against_a_long_double_reference(self, seed):
        # 200 atoms in R^64: the one matrix product keeps each entry within
        # a few ulps of the largest, against 80-bit sums of the same terms.
        rng = np.random.default_rng([200, 64, seed])
        x, y = rng.standard_normal((2, 200, 64))
        w = 0.2 + rng.random(200)
        w /= w.sum()
        wide = [a.astype(np.longdouble) for a in (w, x, y)]
        for got, want in [
                (_moment_matrix(w, x, y),
                 np.einsum("k,ki,kj->ij", *wide)),
                (_moment_matrix(w, x), np.einsum("k,ki,kj->ij", *wide[:2],
                                                 wide[1]))]:
            assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))

    def test_stacks_on_either_side_give_each_matrix_as_alone(self):
        rng = np.random.default_rng(31)
        x, y = rng.standard_normal((3, 7, 4)), rng.standard_normal((3, 7, 4))
        w = rng.random(7)
        for t in range(3):
            alone = _moment_matrix(w, x[t], y[t])
            assert np.array_equal(_moment_matrix(w, x, y)[t], alone)
            assert np.array_equal(_moment_matrix(w, x[t], y)[t], alone)
            assert np.array_equal(_moment_matrix(w, x, y[t])[t], alone)
            assert np.array_equal(_moment_matrix(w, x)[t],
                                  _moment_matrix(w, x[t]))
            assert _weighted_square_sum(w, x)[t] == \
                _weighted_square_sum(w, x[t])


class TestClassify:
    def test_dirac_is_parseval_on_its_line(self):
        rep = classify_probabilistic_frame(dirac([1.0, 0.0]), line([1.0, 0.0]))
        assert rep.is_frame and rep.is_tight and rep.is_parseval
        assert rep.bounds == pytest.approx((1.0, 1.0))

    def test_mercedes_benz_is_tight_half(self):
        rep = classify_probabilistic_frame(mercedes_benz_measure(),
                                           full_space(2))
        assert rep.is_frame and rep.is_tight and not rep.is_parseval
        assert rep.bounds == pytest.approx((0.5, 0.5), abs=1e-12)

    def test_dirac_is_not_a_frame_for_the_plane(self):
        rep = classify_probabilistic_frame(dirac([1.0, 0.0]), full_space(2))
        assert not rep.is_frame
        assert rep.bounds is None

    def test_support_outside_subspace_raises(self):
        with pytest.raises(SupportOutsideSubspace):
            classify_probabilistic_frame(dirac([1.0, 0.5]), line([1.0, 0.0]))

    def test_first_live_atom_outside_is_named(self):
        mu = DiscreteMeasure([[0.0, 1.0], [1.0, 0.0], [1.0, 1.0]],
                             [0.0, 0.5, 0.5])
        with pytest.raises(SupportOutsideSubspace, match="atom 2 lies outside"):
            classify_probabilistic_frame(mu, line([1.0, 0.0]))

    def test_moment_ratio_below_the_pseudoinverse_cutoff_is_no_frame(self):
        mu = DiscreteMeasure([[1.0, 0.0], [0.0, 1e-8]], [0.5, 0.5])
        rep = classify_probabilistic_frame(mu, full_space(2))
        assert not rep.is_frame and rep.bounds is None
        assert not rep.is_tight and not rep.is_parseval

    def test_zero_weight_atom_outside_is_tolerated(self):
        mu = DiscreteMeasure([[1.0, 0.0], [0.0, 1.0]], [1.0, 0.0])
        rep = classify_probabilistic_frame(mu, line([1.0, 0.0]))
        assert rep.is_frame

    def test_second_moment(self):
        _, nu, _ = skew_line_measures()
        rep = classify_probabilistic_frame(nu, skew_line_subspaces()[1])
        assert rep.second_moment == pytest.approx(4.0)  # 0.5 * ||(2,2)||^2


class TestPushforward:
    def test_identity_map(self):
        mu = mercedes_benz_measure()
        assert weak_equal(pushforward(mu, lambda x: x), mu)

    def test_images_are_not_merged(self):
        mu = DiscreteMeasure([[1.0], [2.0]], [0.5, 0.5])
        nu = pushforward(mu, lambda x: np.zeros(1))
        assert nu.num_atoms == 2
        assert weak_equal(nu, dirac([0.0]))

    def test_scaling_transforms_the_operator_quadratically(self):
        mu = mercedes_benz_measure()
        nu = linear_pushforward(mu, 3.0 * np.eye(2))
        assert np.allclose(measure_frame_operator(nu),
                           9.0 * measure_frame_operator(mu), atol=1e-12)


class TestFrameProjectionIdentities:
    @given(st.integers(0, 5_000))
    def test_pseudoinverse_products_are_the_projection(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 7))
        d = int(rng.integers(1, n + 1))
        W = random_subspace(rng, n, d)
        mu = random_measure_on(rng, W, int(rng.integers(d, 2 * d + 3)))
        S = measure_frame_operator(mu)
        S_pinv = pseudoinverse(S)
        P = orthogonal_projection(W)
        assert spectral_norm(S @ S_pinv - P) <= 1e-9
        assert spectral_norm(S_pinv @ S - P) <= 1e-9
        root = psd_pinv_sqrt(S)
        assert spectral_norm(root @ S @ root - P) <= 1e-9

    @given(st.integers(0, 5_000))
    def test_canonical_parseval_pushforward(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 7))
        d = int(rng.integers(1, n + 1))
        W = random_subspace(rng, n, d)
        mu = random_measure_on(rng, W, int(rng.integers(d, 2 * d + 3)))
        root = psd_pinv_sqrt(measure_frame_operator(mu))
        rep = classify_probabilistic_frame(linear_pushforward(mu, root), W)
        assert rep.is_parseval


def test_second_moment_of_mercedes_benz():
    assert second_moment(mercedes_benz_measure()) == pytest.approx(1.0)
