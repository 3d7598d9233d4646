import inspect

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from obliqueframes import (
    AllZero,
    DirectSumViolation,
    Subspace,
    Tolerance,
    oblique_projection,
    orthogonal_complement,
    orthogonal_projection,
    orthonormal_basis,
    pseudoinverse,
    psd_pinv_sqrt,
    psd_sqrt,
    spectral_norm,
    subspace_angle_cos,
)
from obliqueframes.approx import approx_dual_residual
from obliqueframes.duality import probabilistic_consistency_check, support_span
from obliqueframes.frames import _FamilyGeometry, dual_residual, frame_bounds
from obliqueframes.linalg import (dual_operator, factor_span, rank_cutoff,
                                  restricted_spectrum)
from obliqueframes.potentials import potential_gradient, potential_objective
from obliqueframes.gallery import (
    full_space,
    line,
    mercedes_benz_vectors,
    random_admissible_pair,
    random_subspace,
)

EQ = 1e-9


def test_subspace_rejects_non_orthonormal_basis():
    with pytest.raises(ValueError):
        Subspace(2, np.array([[1.0, 0.0], [1.0, 0.0]]))


def test_tolerance_validation():
    with pytest.raises(ValueError):
        Tolerance(eq_tol=0.0)


class TestOrthonormalBasis:
    def test_collinear_vectors_give_a_line(self):
        s = orthonormal_basis([[1.0, 0.0], [2.0, 0.0]])
        assert s.dim == 1
        assert abs(abs(s.basis[0, 0]) - 1.0) < EQ

    def test_two_independent_vectors_span_the_plane(self):
        s = orthonormal_basis([[1.0, 1.0], [1.0, -1.0]])
        assert s.dim == 2

    def test_all_zero_input_raises(self):
        with pytest.raises(AllZero):
            orthonormal_basis([[0.0, 0.0], [0.0, 0.0]])

    @pytest.mark.parametrize("eps", [1e-17, 1e-16, 1e-12, 1e-8, 1e-7, 1e-6])
    def test_rank_decision_matches_closed_form_singular_values(self, eps):
        # Columns (1,0,0) and (1,eps,0): the Gram 2x2 spectrum is known in
        # closed form, giving an independent rank oracle.  The small
        # singular value comes from the product identity (stable), not from
        # the cancellation-prone difference.
        tr = 2.0 + eps * eps
        det = eps * eps
        disc = np.sqrt(tr * tr - 4.0 * det)
        sigma1 = np.sqrt((tr + disc) / 2.0)
        sigma2 = np.sqrt(det) / sigma1
        # The frame test's rule on the eigenvalues sigma^2 of the 3x3 S = X X^T.
        expected_rank = 1 if sigma2**2 <= rank_cutoff((3, 3)) * sigma1**2 else 2

        s = orthonormal_basis([[1.0, 0.0, 0.0], [1.0, eps, 0.0]])
        assert s.dim == expected_rank


class TestPseudoinverse:
    def test_identity(self):
        assert np.allclose(pseudoinverse(np.eye(3)), np.eye(3))

    def test_diagonal(self):
        assert np.allclose(pseudoinverse(np.diag([2.0, 0.0])),
                           np.diag([0.5, 0.0]))

    def test_mercedes_benz_frame_operator(self):
        # S computed by direct summation of rank-one terms.
        S = sum(np.outer(w, w) for w in mercedes_benz_vectors())
        assert np.allclose(S, 1.5 * np.eye(2), atol=1e-12)
        assert np.allclose(pseudoinverse(S), (2.0 / 3.0) * np.eye(2), atol=1e-12)

    def test_zero_matrix(self):
        assert np.allclose(pseudoinverse(np.zeros((2, 3))), np.zeros((3, 2)))

    @given(st.integers(0, 10_000))
    @example(3705)  # sigma = (2.92, 1.26e-5): ||P|| = 7.9e4 dwarfs ||M||
    def test_penrose_identities(self, seed):
        rng = np.random.default_rng(seed)
        m, n = int(rng.integers(1, 6)), int(rng.integers(1, 6))
        rank = int(rng.integers(0, min(m, n) + 1))
        M = (rng.standard_normal((m, rank)) @ rng.standard_normal((rank, n))
             if rank else np.zeros((m, n)))
        P = pseudoinverse(M)
        # Each residual carries the units of its own term: MPM - M those of
        # M, PMP - P those of P, and the projectors MP and PM are unitless.
        assert spectral_norm(M @ P @ M - M) <= EQ * spectral_norm(M)
        assert spectral_norm(P @ M @ P - P) <= EQ * spectral_norm(P)
        assert spectral_norm((M @ P).T - M @ P) <= EQ
        assert spectral_norm((P @ M).T - P @ M) <= EQ


class TestSubspaceAngles:
    def test_identical_lines(self):
        e1 = line([1.0, 0.0])
        assert subspace_angle_cos(e1, e1) == pytest.approx(1.0)

    def test_orthogonal_lines(self):
        assert subspace_angle_cos(line([1.0, 0.0]), line([0.0, 1.0])) == \
            pytest.approx(0.0, abs=1e-15)

    def test_diagonal_line(self):
        got = subspace_angle_cos(line([1.0, 0.0]), line([1.0, 1.0]))
        # Direct inner product |<e1, (1,1)/sqrt(2)>|.
        assert got == pytest.approx(1.0 / np.sqrt(2.0), abs=1e-12)

    def test_smaller_target_space_gives_zero(self):
        W = full_space(3)
        V = random_subspace(np.random.default_rng(0), 3, 2)
        assert subspace_angle_cos(W, V) == 0.0


class TestRandomAdmissiblePair:
    """The generator builds its pair: the smallest principal cosine from
    either side equals min_cos for any n and d, in one call."""

    @pytest.mark.parametrize("c", [1e-6, 0.25, 0.7])
    def test_envelope_pair_has_the_requested_cosine(self, c):
        W, V = random_admissible_pair(np.random.default_rng(0), 64, 32, min_cos=c)
        assert W.dim == V.dim == 32
        assert abs(subspace_angle_cos(W, V) - c) <= 1e-14
        assert abs(subspace_angle_cos(V, W) - c) <= 1e-14

    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_full_dimension_is_the_whole_space(self, n):
        W, V = random_admissible_pair(np.random.default_rng(n), n, n, min_cos=0.3)
        assert W.dim == V.dim == n
        assert abs(subspace_angle_cos(W, V) - 1.0) <= 1e-14
        assert abs(subspace_angle_cos(V, W) - 1.0) <= 1e-14

    @pytest.mark.parametrize("n", [2, 3, 64])
    def test_lines(self, n):
        W, V = random_admissible_pair(np.random.default_rng(n), n, 1, min_cos=0.4)
        assert W.dim == V.dim == 1
        assert abs(abs(float(W.basis[:, 0] @ V.basis[:, 0])) - 0.4) <= 1e-14

    @pytest.mark.parametrize("c", [0.0, -0.5, 1.5, np.nan, np.inf])
    def test_min_cos_outside_unit_interval_is_rejected(self, c):
        with pytest.raises(ValueError, match="min_cos"):
            random_admissible_pair(np.random.default_rng(0), 4, 2, min_cos=c)


class TestOrthogonalProjection:
    def test_full_space(self):
        assert np.allclose(orthogonal_projection(full_space(2)), np.eye(2))

    def test_diagonal_line(self):
        P = orthogonal_projection(line([1.0, 1.0]))
        assert np.allclose(P, np.full((2, 2), 0.5), atol=1e-12)

    @given(st.integers(0, 10_000))
    def test_symmetric_idempotent_trace(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 7))
        d = int(rng.integers(1, n + 1))
        W = random_subspace(rng, n, d)
        P = orthogonal_projection(W)
        assert spectral_norm(P - P.T) <= EQ
        assert spectral_norm(P @ P - P) <= EQ
        assert np.trace(P) == pytest.approx(d, abs=EQ)


class TestObliqueProjection:
    def test_skew_lines_reproduce_known_matrix(self):
        pi = oblique_projection(line([1.0, 0.0]), line([1.0, 1.0]))
        assert np.allclose(pi, [[1.0, 1.0], [0.0, 0.0]], atol=1e-12)

    def test_equal_subspaces_give_orthogonal_projection(self):
        W = random_subspace(np.random.default_rng(3), 5, 2)
        assert np.allclose(oblique_projection(W, W),
                           orthogonal_projection(W), atol=1e-10)

    def test_orthogonal_lines_violate_direct_sum(self):
        with pytest.raises(DirectSumViolation):
            oblique_projection(line([1.0, 0.0]), line([0.0, 1.0]))

    def test_dimension_mismatch_is_a_direct_sum_violation(self):
        with pytest.raises(DirectSumViolation):
            oblique_projection(full_space(2), line([1.0, 1.0]))

    @given(st.integers(0, 10_000))
    def test_defining_properties_and_identities(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 7))
        d = int(rng.integers(1, n))
        W, V = random_admissible_pair(rng, n, d)
        pi_wv = oblique_projection(W, V)
        pi_vw = oblique_projection(V, W)
        P_w = orthogonal_projection(W)

        assert spectral_norm(pi_wv @ pi_wv - pi_wv) <= 1e-8
        assert spectral_norm(pi_wv.T - pi_vw) <= 1e-8
        # Fixes W, annihilates the orthogonal complement of V.
        w = W.basis @ rng.standard_normal(d)
        assert np.linalg.norm(pi_wv @ w - w) <= 1e-8 * max(np.linalg.norm(w), 1)
        u = orthogonal_complement(V).basis @ rng.standard_normal(n - d)
        assert np.linalg.norm(pi_wv @ u) <= 1e-8 * max(np.linalg.norm(u), 1)
        # Composition identities with the orthogonal projection.
        assert spectral_norm(pi_vw @ P_w - pi_vw) <= 1e-8
        assert spectral_norm(P_w @ pi_vw - P_w) <= 1e-8

    @given(st.integers(0, 10_000))
    def test_succeeds_iff_angles_positive_and_dims_match(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 7))
        d = int(rng.integers(1, n))
        W = random_subspace(rng, n, d)
        if rng.random() < 0.5:
            # Force an intersection of W with the complement of V.
            wperp = orthogonal_complement(W)
            dirs = [wperp.basis[:, 0]]
            dirs += [rng.standard_normal(n) for _ in range(d - 1)]
            V = orthonormal_basis(dirs)
        else:
            V = random_subspace(rng, n, d)
        cut = max(n, n) * np.finfo(float).eps
        admissible = (V.dim == W.dim
                      and subspace_angle_cos(W, V) > cut
                      and subspace_angle_cos(V, W) > cut)
        if admissible:
            oblique_projection(W, V)
        else:
            with pytest.raises(DirectSumViolation):
                oblique_projection(W, V)


def test_psd_sqrt_and_pinv_sqrt():
    rng = np.random.default_rng(5)
    A = rng.standard_normal((4, 2))
    M = A @ A.T  # rank-2 PSD
    R = psd_sqrt(M)
    assert np.allclose(R @ R, M, atol=1e-10)
    Rinv = psd_pinv_sqrt(M)
    P = Rinv @ M @ Rinv
    assert np.allclose(P @ P, P, atol=1e-9)
    assert np.trace(P) == pytest.approx(2.0, abs=1e-9)


@pytest.mark.parametrize("seed", range(5))
def test_psd_sqrt_keeps_the_kernel_of_a_rank_deficient_matrix(seed):
    # Round-off eigenvalues of order eps * ||M|| on the kernel used to come
    # back as roots of order sqrt(eps * ||M||), about 1e-6 here.
    rng = np.random.default_rng(seed)
    B = 100.0 * rng.standard_normal((6, 2))
    Q, _ = np.linalg.qr(B, mode="complete")
    R = psd_sqrt(B @ B.T)
    assert np.linalg.norm(R @ Q[:, 2:]) <= 1e-12 * np.linalg.norm(R)
    assert np.allclose(R @ R, B @ B.T, rtol=0.0, atol=1e-10 * np.linalg.norm(B) ** 2)


class TestFrameTestKernel:
    def test_first_outside_names_the_first_offending_row(self):
        W = line([1.0, 0.0])
        assert W.first_outside([[2.0, 0.0], [0.0, 0.0], [0.0, 1.0],
                                [1.0, 1.0]]) == 2
        assert W.first_outside([[2.0, 0.0], [0.0, 0.0]]) is None
        assert W.first_outside([1.0, 1e-6]) == 0

    @given(st.integers(0, 10_000))
    def test_first_outside_matches_the_per_row_loop(self, seed):
        # Reference: the per-row membership test first_outside replaced.
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 8))
        W = random_subspace(rng, n, int(rng.integers(1, n)))
        P = W.basis @ W.basis.T
        rows = rng.standard_normal((6, n)) @ P
        rows[rng.random(6) < 0.2] = 0.0
        off = rng.random(6) < 0.3
        # Off-subspace parts of relative size 1e-7 .. 1, far from EQ.
        rows[off] += (10.0 ** rng.uniform(-7, 0, (off.sum(), 1))
                      * rng.standard_normal((off.sum(), n)) @ (np.eye(n) - P))
        expected = None
        for i, x in enumerate(rows):
            nrm = np.linalg.norm(x)
            if nrm > 0 and np.linalg.norm(x - W.basis @ (W.basis.T @ x)) > EQ * nrm:
                expected = i
                break
        assert W.first_outside(rows, EQ) == expected

    @pytest.mark.parametrize("factor,rank", [(0.5, 1), (2.0, 2)])
    def test_rank_is_what_the_pseudoinverse_keeps(self, factor, rank):
        # The cutoff is that of pseudoinverse on the 2x2 operator.
        S = np.diag([1.0, factor * 2 * np.finfo(float).eps])
        vals, r = restricted_spectrum(S, full_space(2))
        assert r == rank == np.count_nonzero(np.diag(pseudoinverse(S)))
        assert np.array_equal(vals, np.sort(np.diag(S)))

    def test_spectrum_is_taken_on_the_subspace(self):
        W = line([1.0, 1.0])
        vals, r = restricted_spectrum(np.ones((2, 2)), W)
        assert r == 1 and vals == pytest.approx([2.0])
        assert restricted_spectrum(np.zeros((2, 2)), W)[1] == 0


class TestStackedKernels:
    """The frame test, its membership test and the spectral norm take a
    stack of matrices and answer for each as they do for it alone."""

    def test_each_matrix_of_a_stack_as_alone(self):
        rng = np.random.default_rng(23)
        W = random_subspace(rng, 4, 2)
        rows = rng.standard_normal((5, 6, 2)) @ W.basis.T
        rows[3, 4] += 1e-3 * orthogonal_complement(W).basis[:, 0]
        assert W.first_outside(rows, EQ) == 3 * 6 + 4
        assert W.first_outside(rows[:3], EQ) is None
        S = np.einsum("tki,tkj->tij", rows, rows)
        S[1] = W.basis[:, :1] @ W.basis[:, :1].T   # rank 1 on W
        vals, rank = restricted_spectrum(S, W)
        alone = [restricted_spectrum(s, W) for s in S]
        assert np.array_equal(vals, [v for v, _ in alone])
        assert rank.tolist() == [r for _, r in alone] == [2, 1, 2, 2, 2]
        assert all(type(r) is int for _, r in alone)
        M = rng.standard_normal((3, 4, 5))
        assert np.array_equal(spectral_norm(M), [spectral_norm(a) for a in M])
        assert type(spectral_norm(M[0])) is float


class TestOneTolerance:
    @pytest.mark.parametrize("eq_tol", [np.inf, np.nan, -np.inf, -1.0])
    def test_tolerance_must_be_finite_and_positive(self, eq_tol):
        with pytest.raises(ValueError, match="finite and positive"):
            Tolerance(eq_tol=eq_tol)

    def test_rank_cutoff_is_the_float_precision_rule(self):
        assert rank_cutoff((3, 7)) == 7 * np.finfo(float).eps
        assert not hasattr(Tolerance, "rank_cutoff")

    @pytest.mark.parametrize("func", [
        orthonormal_basis, factor_span, pseudoinverse, restricted_spectrum,
        oblique_projection, dual_operator, psd_pinv_sqrt, frame_bounds,
        dual_residual, _FamilyGeometry.build, support_span,
        probabilistic_consistency_check, approx_dual_residual,
        potential_objective, potential_gradient,
    ])
    def test_rank_only_functions_take_no_tolerance(self, func):
        assert "tol" not in inspect.signature(func).parameters

    def test_direct_sum_violation_names_one_cosine(self):
        with pytest.raises(DirectSumViolation,
                           match=r"^subspace angle cosine 0\.000e\+00 too small$"):
            oblique_projection(line([1.0, 0.0]), line([0.0, 1.0]))
