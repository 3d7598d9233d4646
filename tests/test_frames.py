import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from obliqueframes import (
    DimensionMismatch,
    DiscreteMeasure,
    FiniteFrame,
    NotAFrame,
    ObliqueDualPair,
    RangeViolation,
    canonical_dual_measure,
    canonical_oblique_dual,
    classify_probabilistic_frame,
    frame_bounds,
    frame_operator,
    is_oblique_dual,
    is_oblique_dual_measure,
    oblique_dual_family,
    orthogonal_complement,
    pf_dual_potential,
    reconstruct,
    subspace_angle_cos,
    support_span,
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


class TestFrameConstruction:
    def test_vector_outside_subspace_rejected(self):
        with pytest.raises(NotAFrame):
            FiniteFrame.create([[1.0, 0.5]], line([1.0, 0.0]))

    def test_span_deficiency_rejected(self):
        with pytest.raises(NotAFrame):
            FiniteFrame.create([[1.0, 0.0], [2.0, 0.0]], full_space(2))

    def test_rank_deficient_frame_for_a_line_is_fine(self):
        f = FiniteFrame.create([[1.0, 0.0], [2.0, 0.0]], line([1.0, 0.0]))
        assert len(f) == 2

    def test_singular_value_ratio_below_the_pseudoinverse_cutoff_rejected(self):
        # Eigenvalue ratio 1e-16 of the frame operator: S^+ would drop it.
        with pytest.raises(NotAFrame, match="span a 1-dimensional space"):
            FiniteFrame.create([[1.0, 0.0], [0.0, 1e-8]], full_space(2))

    def test_first_vector_outside_is_named(self):
        with pytest.raises(NotAFrame, match="vector 2 lies outside"):
            FiniteFrame.create([[1.0, 0.0], [0.0, 0.0], [1.0, 1.0]],
                               line([1.0, 0.0]))


class TestFrameOperator:
    def test_standard_basis(self):
        assert np.allclose(frame_operator(standard_basis_frame(2)), np.eye(2))

    def test_mercedes_benz(self):
        S = frame_operator(mercedes_benz_frame())
        # Oracle: direct summation of the rank-one terms.
        direct = np.zeros((2, 2))
        for w in mercedes_benz_frame().vectors:
            direct += np.outer(w, w)
        assert np.allclose(S, direct, atol=1e-15)
        assert np.allclose(S, 1.5 * np.eye(2), atol=1e-12)

    def test_single_vector_in_the_plane(self):
        f = FiniteFrame.create([[1.0, 0.0]], line([1.0, 0.0]))
        assert np.allclose(frame_operator(f), np.diag([1.0, 0.0]))


class TestFrameBounds:
    def test_parseval_standard_basis(self):
        assert frame_bounds(standard_basis_frame(2)) == pytest.approx((1.0, 1.0))

    def test_mercedes_benz_tight(self):
        lo, hi = frame_bounds(mercedes_benz_frame())
        assert lo == pytest.approx(1.5, abs=1e-12)
        assert hi == pytest.approx(1.5, abs=1e-12)

    def test_scaled_line_frame(self):
        f = FiniteFrame.create([[1.0, 0.0], [2.0, 0.0]], line([1.0, 0.0]))
        lo, hi = frame_bounds(f)
        assert lo == pytest.approx(5.0, abs=1e-12)  # 1^2 + 2^2
        assert hi == pytest.approx(5.0, abs=1e-12)


class TestCanonicalObliqueDual:
    def test_skew_line_dual_vector(self):
        Fw, _ = skew_line_frames()
        _, V = skew_line_subspaces()
        pair = canonical_oblique_dual(Fw, V)
        assert np.allclose(pair.analysis.vectors, [[1.0, 1.0]], atol=1e-12)
        assert pair.residual <= 1e-12

    def test_parseval_frame_is_self_dual_when_spaces_agree(self):
        F = standard_basis_frame(3)
        pair = canonical_oblique_dual(F, full_space(3))
        assert np.allclose(pair.analysis.vectors, F.vectors, atol=1e-12)

    def test_mercedes_benz_dual_is_two_thirds(self):
        pair = mercedes_benz_pair()
        assert np.allclose(pair.analysis.vectors,
                           (2.0 / 3.0) * pair.synthesis.vectors, atol=1e-12)

    @given(st.integers(0, 10_000))
    def test_random_canonical_duals_verify(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 9))
        d = int(rng.integers(1, n + 1))
        N = int(rng.integers(d, min(3 * d, 20) + 1))
        W, V = random_admissible_pair(rng, n, d)
        F = random_frame(rng, W, N)
        pair = canonical_oblique_dual(F, V)
        ok, resid = is_oblique_dual(pair.synthesis, pair.analysis)
        assert ok and resid <= 1e-9


class TestIsObliqueDual:
    def test_a_pair_computes_its_own_residual(self):
        Fw, _ = skew_line_frames()
        _, V = skew_line_subspaces()
        Fv = FiniteFrame.create([[2.0, 2.0]], V)
        pair = ObliqueDualPair(analysis=Fv, synthesis=Fw)
        assert pair.residual == pytest.approx(np.sqrt(2.0), abs=1e-12)
        with pytest.raises(TypeError):
            ObliqueDualPair(analysis=Fv, synthesis=Fw, residual=0.0)

    def test_skew_line_pair(self):
        Fw, Fv = skew_line_frames()
        ok, resid = is_oblique_dual(Fw, Fv)
        assert ok
        assert resid <= 1e-12

    def test_doubled_analysis_vector_fails_with_unit_residual(self):
        Fw, _ = skew_line_frames()
        _, V = skew_line_subspaces()
        Fv = FiniteFrame.create([[2.0, 2.0]], V)
        ok, resid = is_oblique_dual(Fw, Fv)
        assert not ok
        # Mixed sum doubles to [[2,2],[0,0]]; residual is ||[[1,1],[0,0]]||.
        assert resid == pytest.approx(np.sqrt(2.0), abs=1e-12)

    def test_parseval_with_itself(self):
        F = standard_basis_frame(2)
        ok, resid = is_oblique_dual(F, F)
        assert ok and resid <= 1e-12

    def test_length_mismatch(self):
        Fw, _ = skew_line_frames()
        _, V = skew_line_subspaces()
        Fv = FiniteFrame.create([[1.0, 1.0], [1.0, 1.0]], V)
        with pytest.raises(DimensionMismatch):
            is_oblique_dual(Fw, Fv)


class TestDualFamily:
    def test_zero_parameters_reproduce_canonical(self):
        F = mercedes_benz_frame()
        V = full_space(2)
        pair = oblique_dual_family(F, V, np.zeros((3, 2)))
        canon = canonical_oblique_dual(F, V)
        assert np.allclose(pair.analysis.vectors, canon.analysis.vectors,
                           atol=1e-12)

    @given(st.integers(0, 10_000))
    def test_every_member_is_a_dual(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 7))
        d = int(rng.integers(1, n + 1))
        N = int(rng.integers(d, 3 * d + 1))
        W, V = random_admissible_pair(rng, n, d)
        F = random_frame(rng, W, N)
        H = (V.basis @ rng.standard_normal((d, N))).T
        pair = oblique_dual_family(F, V, H)
        ok, resid = is_oblique_dual(pair.synthesis, pair.analysis)
        assert ok and resid <= 1e-9

    @given(st.integers(0, 10_000))
    def test_converse_every_dual_is_its_own_parameter(self, seed):
        # Feeding a dual's own vectors back in as the free family
        # reproduces those vectors exactly.
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 6))
        d = int(rng.integers(1, n + 1))
        N = int(rng.integers(d, 3 * d + 1))
        W, V = random_admissible_pair(rng, n, d)
        F = random_frame(rng, W, N)
        H = (V.basis @ rng.standard_normal((d, N))).T
        dual = oblique_dual_family(F, V, H).analysis
        roundtrip = oblique_dual_family(F, V, dual.vectors).analysis
        assert np.max(np.abs(roundtrip.vectors - dual.vectors)) <= 1e-9

    def test_wrong_count_raises(self):
        F = mercedes_benz_frame()
        with pytest.raises(DimensionMismatch):
            oblique_dual_family(F, full_space(2), np.zeros((2, 2)))

    def test_parameters_outside_v_raise(self):
        Fw, _ = skew_line_frames()
        _, V = skew_line_subspaces()
        with pytest.raises(RangeViolation):
            oblique_dual_family(Fw, V, [[1.0, 0.0]])


class TestReconstruct:
    def test_vectors_in_w_are_fixed(self):
        pair = mercedes_benz_pair()
        f = np.array([0.3, -1.2])
        fhat, consistency = reconstruct(f, pair)
        assert np.allclose(fhat, f, atol=1e-12)
        assert consistency <= 1e-12

    def test_skew_line_projects_e2_to_e1(self):
        Fw, Fv = skew_line_frames()
        pair = canonical_oblique_dual(Fw, skew_line_subspaces()[1])
        fhat, _ = reconstruct(np.array([0.0, 1.0]), pair)
        assert np.allclose(fhat, [1.0, 0.0], atol=1e-12)

    def test_kernel_vectors_reconstruct_to_zero(self):
        Fw, Fv = skew_line_frames()
        _, V = skew_line_subspaces()
        pair = canonical_oblique_dual(Fw, V)
        v_perp = orthogonal_complement(V).basis[:, 0]
        fhat, _ = reconstruct(v_perp, pair)
        assert np.linalg.norm(fhat) <= 1e-12

    @given(st.integers(0, 2_000))
    def test_reconstruction_error_sandwich(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 6))
        d = int(rng.integers(1, n))
        W, V = random_admissible_pair(rng, n, d)
        F = random_frame(rng, W, int(rng.integers(d, 2 * d + 1)))
        pair = canonical_oblique_dual(F, V)
        cos_wv = subspace_angle_cos(W, V)
        P_w = W.basis @ W.basis.T
        for f in rng.standard_normal((1000, n)):
            fhat, _ = reconstruct(f, pair)
            best = np.linalg.norm(f - P_w @ f)
            got = np.linalg.norm(f - fhat)
            assert best <= got + 1e-9
            assert got <= best / cos_wv + 1e-9


def _scaled_basis(n: int, delta: float, slot: int) -> np.ndarray:
    """Rows e_1 .. e_n with row `slot` scaled by delta: eigenvalue ratio
    delta^2 for the frame operator."""
    rows = np.eye(n)
    rows[slot] *= delta
    return rows


def _outside_the_cutoff(n: int, delta: float) -> bool:
    """Whether delta^2 is at least 100x away from the cutoff n * eps, and on
    which side: True above, False below; skipped otherwise."""
    ratio = delta * delta / (n * np.finfo(float).eps)
    assume(not 1e-2 < ratio < 1e2)
    return ratio > 1.0


ILL_CONDITIONED = dict(n=st.sampled_from([2, 4, 64]),
                       log_delta=st.floats(-12.0, 0.0),
                       slot=st.integers(0, 63))


class TestOneFrameTest:
    """Frames and measures share restricted_spectrum, so accepting an input
    as a frame always leaves S^+ full rank on its span."""

    @settings(deadline=None)
    @given(seed=st.integers(0, 2**16), **ILL_CONDITIONED)
    def test_create_frame_bounds_and_the_canonical_dual_agree(
            self, n, log_delta, slot, seed):
        delta = 10.0 ** log_delta
        expected = _outside_the_cutoff(n, delta)
        q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((n, n)))
        rows = _scaled_basis(n, delta, slot % n) @ q
        W = full_space(n)
        try:
            F = FiniteFrame.create(rows, W)
        except NotAFrame:
            F = None
        try:
            frame_bounds(FiniteFrame(rows, W))
            bounded = True
        except NotAFrame:
            bounded = False
        assert (F is not None) == bounded == expected
        if F is not None:
            canonical_oblique_dual(F, W)

    @settings(deadline=None)
    @given(**ILL_CONDITIONED)
    def test_classify_says_frame_exactly_when_the_dual_certifies(
            self, n, log_delta, slot):
        delta = 10.0 ** log_delta
        expected = _outside_the_cutoff(n, delta)
        mu = DiscreteMeasure(_scaled_basis(n, delta, slot % n),
                             np.full(n, 1.0 / n))
        W = full_space(n)
        try:
            nu, gamma = canonical_dual_measure(mu, W, W)
            certified = is_oblique_dual_measure(mu, nu, gamma)[0]
        except NotAFrame:
            certified = False
        assert classify_probabilistic_frame(mu, W).is_frame == certified \
            == expected

    @settings(deadline=None)
    @given(seed=st.integers(0, 2**16), **ILL_CONDITIONED)
    def test_support_span_keeps_what_the_frame_test_keeps(
            self, n, log_delta, slot, seed):
        delta = 10.0 ** log_delta
        expected = _outside_the_cutoff(n, delta)
        q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((n, n)))
        mu = DiscreteMeasure(_scaled_basis(n, delta, slot % n) @ q,
                             np.full(n, 1.0 / n))
        assert (support_span(mu).dim == n) \
            == classify_probabilistic_frame(mu, full_space(n)).is_frame \
            == expected
        for mode in ("pushforward", "general"):
            pf_dual_potential(mu, mu, mode)  # never NotAFrame on its own span
