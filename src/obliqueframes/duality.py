"""Oblique dual probabilistic frames via transport couplings.

A measure on V is an oblique dual of a measure on W when some coupling's
mixed second moment reproduces the oblique projection onto W.  This module
builds canonical duals by pushforward, parameterizes all pushforward-type
duals, transfers duals between sampling subspaces, checks probabilistic
consistent reconstruction, and evaluates the dual potential with its
pushforward and general lower bounds.

Only finitely supported measures are represented.  The canonical
construction itself is a linear pushforward and extends verbatim to
continuous measures: e.g. the standard Gaussian on the first axis of the
plane, sampled along the diagonal line, has as canonical dual the
degenerate Gaussian with covariance [[1, 1], [1, 1]] -- that case is left
as this remark.
"""
from __future__ import annotations

import numpy as np

from .errors import (
    DimensionMismatch,
    InternalConsistencyError,
    MarginalMismatch,
    NotADual,
    NotAFrame,
    RangeViolation,
)
from .linalg import (
    DEFAULT_TOL,
    Subspace,
    Tolerance,
    dual_operator,
    oblique_projection,
    orthonormal_basis,
    spectral_norm,
    tight_and_parseval,
)
from .measures import (
    DiscreteMeasure,
    classify_probabilistic_frame,
    is_marginal,
    linear_pushforward,
    measure_frame_operator,
    pushforward,
    weak_equal,
)
from .potentials import SATURATION_TOL, PotentialReport
from .transport import Coupling


def support_span(mu: DiscreteMeasure) -> Subspace:
    """Span of the positively weighted atoms."""
    return orthonormal_basis(list(mu.support()))


def _require_frame(mu: DiscreteMeasure, W: Subspace, tol: Tolerance,
                   who: str) -> tuple[float, float]:
    """Frame bounds of mu on W; the only way the library reads them."""
    report = classify_probabilistic_frame(mu, W, tol)
    if not report.is_frame:
        raise NotAFrame(f"{who} is not a probabilistic frame for its subspace")
    return report.bounds


def _validate_coupling(gamma: Coupling, mu: DiscreteMeasure,
                       nu: DiscreteMeasure):
    if not is_marginal(gamma.x, gamma.weights, mu):
        raise MarginalMismatch("coupling's first marginal is not the given measure")
    if not is_marginal(gamma.y, gamma.weights, nu):
        raise MarginalMismatch("coupling's second marginal is not the given measure")


def canonical_dual_map(mu: DiscreteMeasure, W: Subspace, V: Subspace,
                       tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Matrix of the canonical dual map: oblique projection onto V composed
    with the pseudoinverse moment matrix."""
    _require_frame(mu, W, tol, "the measure")
    return dual_operator(measure_frame_operator(mu), V, W)[0]


def canonical_dual_measure(mu: DiscreteMeasure, W: Subspace, V: Subspace,
                           tol: Tolerance = DEFAULT_TOL
                           ) -> tuple[DiscreteMeasure, Coupling]:
    """Canonical oblique dual measure with its graph coupling."""
    T = canonical_dual_map(mu, W, V, tol)
    nu = pushforward(mu, lambda x: T @ x)
    return nu, Coupling(mu.points, nu.points, mu.weights)


def is_oblique_dual_measure(mu: DiscreteMeasure, nu: DiscreteMeasure,
                            gamma: Coupling, tol: Tolerance = DEFAULT_TOL
                            ) -> tuple[bool, float]:
    """Verify a coupling certificate for oblique duality.

    The subspaces are the spans of the two supports; the residual is the
    spectral distance between the coupling's mixed moment and the oblique
    projection.
    """
    return _dual_certificate(mu, nu, gamma, support_span(mu),
                             support_span(nu), tol)[:2]


def _dual_certificate(mu: DiscreteMeasure, nu: DiscreteMeasure,
                      gamma: Coupling, W: Subspace, V: Subspace,
                      tol: Tolerance) -> tuple[bool, float, np.ndarray]:
    """is_oblique_dual_measure with the spans W of mu and V of nu given;
    also returns the oblique projection the residual was measured against."""
    _validate_coupling(gamma, mu, nu)
    pi_wv = oblique_projection(W, V)
    residual = spectral_norm(gamma.moment_matrix() - pi_wv)
    return residual <= tol.eq_tol, float(residual), pi_wv


def pushforward_dual_map(mu: DiscreteMeasure, W: Subspace, V: Subspace, h,
                         tol: Tolerance = DEFAULT_TOL):
    """Dual map T(x) = canonical(x) + h(x) - centering, for h into V.

    Pushing mu forward by T (with its graph coupling) always produces an
    oblique dual; h identically zero gives the canonical map.
    """
    H = np.array([np.asarray(h(x), dtype=float) for x in mu.points])
    k = V.first_outside(np.where((mu.weights > 0)[:, None], H, 0.0), tol.eq_tol)
    if k is not None:
        raise RangeViolation(f"h leaves the sampling subspace at atom {k}")
    _require_frame(mu, W, tol, "the measure")
    T0, s_pinv = dual_operator(measure_frame_operator(mu), V, W)
    # Correction matrix sum_k w_k h(x_k) x_k^T applied through S^+.
    corr = np.einsum("k,ki,kj->ij", mu.weights, H, mu.points) @ s_pinv

    def T(x):
        x = np.asarray(x, dtype=float)
        return T0 @ x + np.asarray(h(x), dtype=float) - corr @ x

    return T


def transfer_dual_to_K(nu: DiscreteMeasure, gamma: Coupling, W: Subspace,
                       K: Subspace, tol: Tolerance = DEFAULT_TOL
                       ) -> tuple[DiscreteMeasure, Coupling]:
    """Carry a dual on V to a dual on K by obliquely projecting the
    sampling atoms, keeping the coupling's first coordinates."""
    if not is_marginal(gamma.y, gamma.weights, nu):
        raise MarginalMismatch("coupling's second marginal is not the given measure")
    moment = gamma.moment_matrix()
    pw = W.basis @ W.basis.T
    if spectral_norm(moment @ pw - pw) > tol.eq_tol:
        raise NotADual("the coupling does not reconstruct the synthesis subspace")
    pi_kw = oblique_projection(K, W)
    nu_k = pushforward(nu, lambda y: pi_kw @ y)
    return nu_k, Coupling(gamma.x, gamma.y @ pi_kw.T, gamma.weights)


def probabilistic_consistency_check(mu: DiscreteMeasure, nu: DiscreteMeasure,
                                    gamma: Coupling, probes) -> float:
    """Worst sampling discrepancy of coupling-based reconstruction.

    For each probe f the reconstruction is synthesized through the
    coupling and tested against every positively weighted sampling atom;
    the maximum |<f - fhat, z>| over probes and atoms is returned.
    """
    _validate_coupling(gamma, mu, nu)
    moment = gamma.moment_matrix()
    support = nu.support()
    worst = 0.0
    for f in probes:
        f = np.asarray(f, dtype=float)
        fhat = moment @ f
        if support.shape[0]:
            worst = max(worst, float(np.max(np.abs(support @ (f - fhat)))))
    return worst


def pf_dual_potential(mu: DiscreteMeasure, nu: DiscreteMeasure, mode: str,
                      coupling: Coupling | None = None,
                      tol: Tolerance = DEFAULT_TOL) -> PotentialReport:
    """Dual potential of a measure pair with the applicable lower bound.

    mode 'pushforward' uses the dimension bound (tightness-free); mode
    'general' uses the (A/B)-weighted bound for the frame bounds (A, B) of
    mu on its span, which also decide whether mu is tight.
    When a coupling certificate is supplied it is verified first.
    """
    if mode not in ("pushforward", "general"):
        raise ValueError(f"unknown potential mode {mode!r}")
    W = support_span(mu)
    lo, hi = _require_frame(mu, W, tol, "the first measure")
    V = support_span(nu)
    if coupling is not None:
        ok, resid, _ = _dual_certificate(mu, nu, coupling, W, V, tol)
        if not ok:
            raise NotADual(f"certificate residual {resid:.3e} too large")
    if mu.ambient_dim != nu.ambient_dim:
        raise DimensionMismatch(f"the first measure lives in R^{mu.ambient_dim}, "
                                f"the second in R^{nu.ambient_dim}")
    d = W.dim
    s_mu = measure_frame_operator(mu)
    s_nu = measure_frame_operator(nu)
    value = float(np.trace(s_mu @ s_nu))

    if mode == "pushforward":
        lower = float(d)
        saturated = value - lower <= SATURATION_TOL
    else:
        lower = float(lo / hi * d)
        tight, _ = tight_and_parseval(lo, hi, tol)
        canonical = linear_pushforward(mu, dual_operator(s_mu, V, W)[0])
        saturated = bool(tight and weak_equal(nu, canonical))
    return PotentialReport(p=2.0, value=value, lower_bound=lower,
                           gap=value - lower, saturated=saturated)


def minimal_energy_coefficients(mu: DiscreteMeasure, W: Subspace, V: Subspace,
                                f, tol: Tolerance = DEFAULT_TOL
                                ) -> tuple[np.ndarray, float]:
    """Minimal weighted-energy synthesis coefficients for a target vector.

    omega(x_k) = <f, T x_k> with T the canonical dual map; the weighted
    synthesis sum reproduces the oblique projection of f, and the weighted
    energy is minimal among all coefficient choices with that property.
    """
    f = np.asarray(f, dtype=float)
    T = canonical_dual_map(mu, W, V, tol)
    omega = mu.points @ (T.T @ f)
    pi_wv = oblique_projection(W, V)
    synth = np.einsum("k,ki->i", mu.weights * omega, mu.points)
    target = pi_wv @ f
    if np.linalg.norm(synth - target) > tol.eq_tol * (1.0 + np.linalg.norm(f)):
        raise InternalConsistencyError("synthesis identity failed")
    energy = float(np.sum(mu.weights * omega * omega))
    return omega, energy
