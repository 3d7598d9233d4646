"""Mixed-frame potentials, coherence bounds, and dual-family optimization.

The p-th order potential of a dual pair is the entrywise p-norm of the
mixed Gram matrix G_ij = <w_i, v_j>.  For p = 2 the minimum over all
oblique duals of a fixed synthesis frame equals the subspace dimension
and is attained exactly at the canonical dual; even p > 2 obey Jensen
chains, and the off-diagonal maximum obeys a Welch-type lower bound whose
saturation is an equiangular-tightness certificate.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import HypothesisViolated, InternalConsistencyError, NonConvergence
from .frames import FiniteFrame, ObliqueDualPair, _FamilyGeometry, frame_operator
from .linalg import (
    DEFAULT_TOL,
    Subspace,
    Tolerance,
    orthogonal_projection,
    psd_pinv_sqrt,
    require_dual,
    spectral_norm,
)

# Absolute tolerance for declaring a bound saturated on unit-scale fixtures.
SATURATION_TOL = 1e-8
# Largest potential order: past it |x|^p overflows a double for every |x| >= 2.
MAX_ORDER = 1024.0
# Descent constants: random start scale, first trial step, Armijo slope,
# backtracking factor.
INIT_SCALE = 0.5
FIRST_STEP = 1.0
ARMIJO_C = 1e-4
SHRINK = 0.5


@dataclass(frozen=True)
class PotentialReport:
    p: float
    value: float
    lower_bound: float | None
    gap: float | None
    saturated: bool
    saturation_tol: float = SATURATION_TOL


@dataclass(frozen=True)
class CoherenceReport:
    max_off_diagonal_sq: float
    welch_bound: float
    diagonal_constant: bool
    saturated: bool
    mixed_gram: np.ndarray
    signature: np.ndarray | None


def _is_even_order(p: float) -> bool:
    """The one check of a potential order: ValueError unless p lies in
    (0, MAX_ORDER]; then whether p is even, to 1e-12."""
    if not 0.0 < p <= MAX_ORDER:
        raise ValueError(f"potential order p must lie in (0, {MAX_ORDER:g}], got {p}")
    return abs(p - round(p)) < 1e-12 and round(p) % 2 == 0


def _power_sum(x: np.ndarray, p: float) -> float:
    """sum |x|^p, refused when it overflows a double."""
    with np.errstate(over="ignore"):
        value = float(np.sum(np.abs(x) ** p))
    if not math.isfinite(value):
        raise ValueError(f"the order-{p:g} potential overflows a double")
    return value


def mixed_gram_entries(pair: ObliqueDualPair) -> np.ndarray:
    """Mixed Gram matrix G with G_ij = <w_i, v_j>."""
    return pair.synthesis.vectors @ pair.analysis.vectors.T


def dual_p_potential(pair: ObliqueDualPair, p: float = 2.0,
                     tol: Tolerance = DEFAULT_TOL) -> PotentialReport:
    """Full double-sum potential sum_ij |<w_i, v_j>|^p with its lower bound.

    The bound is d_W for p = 2 and N^(2-p) d_W^(p/2) for even p; for other
    p only the value is reported.
    """
    require_dual(pair.residual, tol)
    even = _is_even_order(p)
    value = _power_sum(mixed_gram_entries(pair), p)
    N = len(pair.synthesis)
    d = pair.synthesis.subspace.dim
    if even:
        # N^2 (sqrt(d)/N)^p: a frame has N >= d, so the power cannot overflow.
        lower = float(d) if p == 2 else N * N * (math.sqrt(d) / N) ** p
        gap = value - lower
        return PotentialReport(p, value, lower, gap, saturated=gap <= SATURATION_TOL)
    return PotentialReport(p, value, None, None, saturated=False)


def diagonal_potential(pair: ObliqueDualPair, p: float = 2.0,
                       tol: Tolerance = DEFAULT_TOL) -> PotentialReport:
    """Diagonal potential sum_i |<w_i, v_i>|^p.

    Bounded below by d_W^2/N for p = 2 and N^(1-p) d_W^p for even p;
    saturated exactly when every diagonal entry equals d_W/N.
    """
    require_dual(pair.residual, tol)
    even = _is_even_order(p)
    diag = np.einsum("ij,ij->i", pair.synthesis.vectors, pair.analysis.vectors)
    value = _power_sum(diag, p)
    N = len(pair.synthesis)
    d = pair.synthesis.subspace.dim
    if even:
        lower = float(d * d / N) if p == 2 else N * (d / N) ** p
        saturated = bool(np.max(np.abs(diag - d / N)) <= SATURATION_TOL)
        return PotentialReport(p, value, lower, value - lower, saturated)
    return PotentialReport(p, value, None, None, saturated=False)


def welch_type_bound(N: int, d: int) -> float:
    """Lower bound on the squared off-diagonal mixed inner products."""
    if N <= 1:
        return 0.0
    return d * (N - d) / (N * N * (N - 1.0))


def constant_diagonal_bound(N: int, d: int, p: float) -> float:
    """Refined even-p potential bound for pairs with constant mixed-Gram
    diagonal; tight exactly for equiangular canonical duals."""
    if not _is_even_order(p):
        raise ValueError("the refined bound applies to even orders only")
    # d^p / N^(p-1) and |d - d^2/N|^k / (N (N-1))^(k-1), written as powers
    # of ratios at most 1 for d <= N so that no factor overflows.
    diag_term = N * (d / N) ** p
    if N <= 1:
        return diag_term
    k = p / 2.0
    off = N * (N - 1.0) * (abs(d - d * d / N) / (N * (N - 1.0))) ** k
    return off + diag_term


def mixed_coherence(pair: ObliqueDualPair,
                    tol: Tolerance = DEFAULT_TOL) -> CoherenceReport:
    """Largest squared off-diagonal mixed inner product vs. its bound, with
    the mixed Gram it was read from and, at saturation, its signature.

    Requires a constant mixed-Gram diagonal; raises HypothesisViolated
    otherwise, since the bound is only valid under that hypothesis.  When
    the Welch-type bound is met with N > d_W, the Gram decomposes as
    (d_W/N)(I + c Q) with Q symmetric, hollow, and entrywise +-1; Q is the
    signature in that case and checked, otherwise None.
    """
    require_dual(pair.residual, tol)
    G = mixed_gram_entries(pair)
    N = G.shape[0]
    d = pair.synthesis.subspace.dim
    diag = np.diag(G)
    if np.max(diag) - np.min(diag) > tol.eq_tol:
        raise HypothesisViolated(
            "mixed Gram diagonal is not constant; the coherence bound does not apply"
        )
    if N == 1:
        return CoherenceReport(0.0, 0.0, True, True, G, None)
    off = np.abs(G[~np.eye(N, dtype=bool)]) ** 2
    max_off = float(np.max(off))
    bound = welch_type_bound(N, d)
    saturated = max_off - bound <= SATURATION_TOL
    if not saturated or N <= d:
        return CoherenceReport(max_off, bound, True, saturated, G, None)
    scale = (N / d) * np.sqrt(d * (N - 1.0) / (N - d))
    Q = (G - (d / N) * np.eye(N)) * scale
    if spectral_norm(Q - Q.T) > tol.eq_tol:
        raise InternalConsistencyError("signature matrix is not symmetric")
    if np.max(np.abs(np.diag(Q))) > tol.eq_tol:
        raise InternalConsistencyError("signature matrix has nonzero diagonal")
    if np.max(np.abs(np.abs(Q[~np.eye(N, dtype=bool)]) - 1.0)) > tol.eq_tol:
        raise InternalConsistencyError("signature entries are not unimodular")
    return CoherenceReport(max_off, bound, True, saturated, G, Q)


def mixed_gram(pair: ObliqueDualPair,
               tol: Tolerance = DEFAULT_TOL) -> tuple[np.ndarray, np.ndarray | None]:
    """Mixed Gram matrix and, at coherence saturation, its signature part:
    mixed_coherence's pair of them, and no signature when the mixed-Gram
    diagonal is not constant."""
    try:
        report = mixed_coherence(pair, tol)
    except HypothesisViolated:
        return mixed_gram_entries(pair), None
    return report.mixed_gram, report.signature


def etf_lift(F: FiniteFrame,
             tol: Tolerance = DEFAULT_TOL) -> tuple[FiniteFrame, bool]:
    """Whitened, renormalized copy of the frame and an equiangular-tight test.

    The lift psi_i = sqrt(N/d) (S^+)^(1/2) w_i always has frame operator
    (N/d) P_W on the span; it is flagged equiangular-tight when the lifted
    vectors are unit norm and share a common off-diagonal |<psi_i, psi_j>|.
    """
    N = len(F)
    d = F.subspace.dim
    root = psd_pinv_sqrt(frame_operator(F))
    lifted = (np.sqrt(N / d) * root @ F.matrix).T
    psi = FiniteFrame.create(lifted, F.subspace, tol)

    norms = np.linalg.norm(psi.vectors, axis=1)
    unit = bool(np.max(np.abs(norms - 1.0)) <= tol.eq_tol)
    op_resid = spectral_norm(frame_operator(psi)
                             - (N / d) * orthogonal_projection(F.subspace))
    tight = op_resid <= tol.eq_tol
    gram = psi.vectors @ psi.vectors.T
    off = np.abs(gram[~np.eye(N, dtype=bool)])
    equiangular = off.size == 0 or float(np.max(off) - np.min(off)) <= tol.eq_tol
    return psi, bool(unit and tight and equiangular)


@dataclass(frozen=True)
class OptimizerOptions:
    """Steepest-descent settings for the dual-potential minimization.

    grad_tol defaults to 1e-7, which already pins the minimizer to ~1e-7
    accuracy; on the carried mixed Gram of minimize_dual_potential, gradient
    norms down to about 1e-9 stay reachable at n = 64 with 200 vectors.
    The step is not a setting: the first trial step is FIRST_STEP, and
    later ones come from the descent itself.
    """

    max_iters: int = 10000
    grad_tol: float = 1e-7
    seed: int = 0

    def __post_init__(self):
        if not 0 <= self.grad_tol < np.inf:
            raise ValueError(
                f"grad_tol must be finite and >= 0, got {self.grad_tol}")


def potential_objective(F: FiniteFrame, V: Subspace, C, p: float = 2.0) -> float:
    """Dual p-potential of the family with coefficient matrix C on V."""
    geom = _FamilyGeometry.build(F, V)
    return _power_sum(geom.G0 + geom.image(np.asarray(C, float)), p)


def potential_gradient(F: FiniteFrame, V: Subspace, C,
                       p: float = 2.0) -> np.ndarray:
    """Analytic gradient of potential_objective with respect to C."""
    geom = _FamilyGeometry.build(F, V)
    return _gradient(geom, geom.G0 + geom.image(np.asarray(C, float)), p)


def _gradient(geom: _FamilyGeometry, G: np.ndarray, p: float) -> np.ndarray:
    """Gradient in the coefficients at the mixed Gram G: the adjoint of
    geom.image applied to the entrywise derivative of sum |G|^p."""
    dG = p * G * np.abs(G) ** (p - 2.0) if p != 2.0 else 2.0 * G
    return geom.P.T @ dG @ geom.Q.T


def minimize_dual_potential(
    F: FiniteFrame,
    V: Subspace,
    p: float = 2.0,
    opts: OptimizerOptions = OptimizerOptions(),
    tol: Tolerance = DEFAULT_TOL,
) -> tuple[ObliqueDualPair, list[float]]:
    """Steepest descent over the dual family from a random start.

    The trial step is the Barzilai-Borwein quotient when it is positive
    (plain steepest descent needs far more iterations on these quadratics),
    safeguarded by backtracking Armijo so the trajectory is non-increasing.
    The mixed Gram G = G0 + P C Q is computed once and then carried: each
    iteration maps the gradient g to D = P g Q once and scores a trial step
    t on G - t D.  That costs O(N^2) where a fresh product costs O(N^3), and
    as t shrinks the trial value tends to the current one exactly instead
    of into the rounding of a fresh product.  The gradient is taken from
    the carried G; the returned pair is built from C.  Raises ValueError
    when the start's potential overflows a double, and NonConvergence when
    the gradient norm is still above tolerance at the iteration cap
    (max_iters = 0 tests the start only) or when the line search can no
    longer decrease the objective.
    """
    if not _is_even_order(p):
        raise ValueError("minimization is defined for even potential orders")
    geom = _FamilyGeometry.build(F, V)
    rng = np.random.default_rng(opts.seed)
    C = INIT_SCALE * rng.standard_normal((V.dim, len(F)))

    step = FIRST_STEP
    G = geom.G0 + geom.image(C)
    value = _power_sum(G, p)
    trajectory = [value]
    prev_c = prev_grad = None
    # Past a finite start, an overflow only makes numbers that are not
    # finite: a trial value then fails the Armijo test, and a gradient
    # stalls the line search.
    with np.errstate(over="ignore", invalid="ignore"):
        grad = _gradient(geom, G, p)
        while True:
            gnorm = float(np.linalg.norm(grad))
            if gnorm <= opts.grad_tol:
                break
            if len(trajectory) > opts.max_iters:
                raise NonConvergence(
                    f"gradient norm {gnorm:.3e} above {opts.grad_tol:.1e} "
                    f"after {opts.max_iters} iterations"
                )
            t = step
            if prev_c is not None:
                s = C - prev_c
                y = grad - prev_grad
                sy = float(np.sum(s * y))
                if sy > 0:
                    t = float(np.sum(s * s)) / sy
            D = geom.image(grad)
            while True:
                cand = G - t * D
                cand_value = float(np.sum(np.abs(cand) ** p))
                if cand_value <= value - ARMIJO_C * t * gnorm * gnorm:
                    break
                t *= SHRINK
                if t < 1e-20:
                    raise NonConvergence(
                        f"line search stalled with gradient norm {gnorm:.3e} "
                        f"above {opts.grad_tol:.1e}"
                    )
            prev_c, prev_grad = C, grad
            C, G, value = C - t * grad, cand, cand_value
            grad = _gradient(geom, G, p)
            step = min(t / SHRINK, 1e6)
            trajectory.append(value)
    return geom.pair(V.basis @ C, tol), trajectory
