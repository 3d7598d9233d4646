"""Approximate oblique duals and Wasserstein perturbation certificates.

A coupling whose mixed moment lands within epsilon of the oblique
projection (spectral norm) is an epsilon-approximate dual certificate.
Perturbing the sampling measure of an exact dual pair inside a quadratic
transport ball of cost at most A * epsilon^2 keeps it an epsilon-approximate
dual; the certificate is constructed by gluing the exact-dual coupling
with the perturbation coupling and projecting onto the outer coordinates.
The exact dual is certified once per experiment; each perturbation trial
then runs only the checks that depend on the perturbed measure.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .duality import (
    _dual_certificate,
    _require_frame,
    _validate_coupling,
    canonical_dual_measure,
    support_span,
)
from .errors import (
    DimensionMismatch,
    HypothesisViolated,
    InternalConsistencyError,
    NotADual,
)
from .linalg import (
    DEFAULT_TOL,
    Subspace,
    Tolerance,
    dual_operator,
    oblique_projection,
    psd_sqrt,
    spectral_norm,
)
from .measures import (
    DiscreteMeasure,
    classify_probabilistic_frame,
    linear_pushforward,
    measure_frame_operator,
    second_moment,
)
from .transport import (
    Coupling,
    _flow_coupling,
    _solve_w2,
    coupling_cost,
    glue,
    identity_coupling,
)


@dataclass(frozen=True)
class ApproxDualReport:
    epsilon_residual: float
    consistency_bound: float


@dataclass(frozen=True)
class PerturbationCertificate:
    lam: float                # transport cost between nu and eta
    a_lower: float            # lower frame bound used for nu
    epsilon_claimed: float    # sqrt(lam / a_lower)
    glued_coupling: Coupling  # coupling between mu and eta
    epsilon_actual: float


def approx_dual_residual(mu: DiscreteMeasure, nu: DiscreteMeasure,
                         gamma: Coupling, W: Subspace, V: Subspace
                         ) -> ApproxDualReport:
    """Spectral residual of a coupling against the oblique projection.

    Also reports the exact worst-case consistency constant: the supremum
    over unit f of the sampled reconstruction error equals the spectral
    norm of S_nu^(1/2) (I - F), F being the coupling moment.
    """
    _validate_coupling(gamma, mu, nu)
    dims = (mu.ambient_dim, nu.ambient_dim, W.ambient_dim, V.ambient_dim)
    if len(set(dims)) > 1:
        raise DimensionMismatch("mu, nu, W and V live in "
                                + ", ".join(f"R^{n}" for n in dims))
    pi_wv = oblique_projection(W, V)
    F = gamma.moment_matrix()
    eps = spectral_norm(F - pi_wv)
    s_nu_root = psd_sqrt(measure_frame_operator(nu))
    consistency = spectral_norm(s_nu_root @ (np.eye(mu.ambient_dim) - F))
    return ApproxDualReport(epsilon_residual=float(eps),
                            consistency_bound=float(consistency))


def consistency_conversions(report: ApproxDualReport, nu: DiscreteMeasure,
                            W: Subspace, V: Subspace,
                            tol: Tolerance = DEFAULT_TOL) -> tuple[float, float]:
    """Two-way conversion constants between the residual and consistency.

    to_consistency = sqrt(B_nu) * residual, with B_nu the upper frame bound
    of nu on V, dominates the consistency constant; to_approx = consistency
    * sqrt(M2 of the canonical-dual pushforward of nu) dominates the
    residual.  Both dominations are verified before returning.
    """
    upper = _require_frame(nu, V, tol, "the sampling measure")[1]
    to_consistency = float(np.sqrt(upper) * report.epsilon_residual)
    dual_map, _ = dual_operator(measure_frame_operator(nu), W, V)
    m2 = second_moment(linear_pushforward(nu, dual_map))
    to_approx = float(report.consistency_bound * np.sqrt(m2))
    if report.consistency_bound > to_consistency + 1e-9:
        raise InternalConsistencyError("consistency conversion bound failed")
    if report.epsilon_residual > to_approx + 1e-9:
        raise InternalConsistencyError("residual conversion bound failed")
    return to_consistency, to_approx


@dataclass(frozen=True)
class _ExactDual:
    """An exact dual certificate checked once, with the bounds and the
    oblique projection that every perturbation of it is measured against."""

    gamma_dual: Coupling
    c_upper: float      # upper frame bound of mu on its span
    a_opt: float        # lower frame bound of nu on its span
    pi_wv: np.ndarray   # oblique projection between the two spans

    @classmethod
    def certify(cls, mu: DiscreteMeasure, nu: DiscreteMeasure,
                gamma_dual: Coupling, tol: Tolerance) -> "_ExactDual":
        W = support_span(mu)
        V = support_span(nu)
        ok, resid, pi_wv = _dual_certificate(mu, nu, gamma_dual, W, V, tol)
        if not ok:
            raise NotADual(f"dual certificate residual {resid:.3e} too large")
        return cls(
            gamma_dual=gamma_dual,
            c_upper=_require_frame(mu, W, tol, "the measure")[1],
            a_opt=_require_frame(nu, V, tol, "the dual measure")[0],
            pi_wv=pi_wv,
        )

    def perturbation(self, eta: DiscreteMeasure, gamma_pert: Coupling,
                     eps: float, a: float) -> PerturbationCertificate:
        """Certify eta at bound a; the caller checked gamma_pert's marginals."""
        if a > self.a_opt + 1e-9:
            raise HypothesisViolated(
                f"claimed lower bound {a:.6g} exceeds the spectrum minimum "
                f"{self.a_opt:.6g}"
            )
        if a * self.c_upper > 1.0 + 1e-9:
            raise HypothesisViolated(
                f"bound product A*C = {a * self.c_upper:.6g} exceeds 1")
        lam = coupling_cost(gamma_pert)
        if lam > a * eps * eps + 1e-12:
            raise HypothesisViolated(
                f"perturbation cost {lam:.3e} exceeds A*eps^2 = {a * eps * eps:.3e}"
            )
        glued = glue(self.gamma_dual, gamma_pert).xz_coupling()
        eps_actual = spectral_norm(glued.moment_matrix() - self.pi_wv)
        if eps_actual > eps + 1e-9:
            raise InternalConsistencyError(
                f"certified residual {eps_actual:.3e} exceeds eps = {eps:.3e}"
            )
        return PerturbationCertificate(
            lam=float(lam),
            a_lower=float(a),
            epsilon_claimed=float(np.sqrt(lam / a)) if a > 0 else float("inf"),
            glued_coupling=glued,
            epsilon_actual=float(eps_actual),
        )


def perturbation_certificate(mu: DiscreteMeasure, nu: DiscreteMeasure,
                             gamma_dual: Coupling, eta: DiscreteMeasure,
                             gamma_pert: Coupling, eps: float,
                             a_lower: float | None = None,
                             tol: Tolerance = DEFAULT_TOL
                             ) -> PerturbationCertificate:
    """Certify eta as an eps-approximate dual of mu by gluing couplings.

    Requires gamma_dual to certify nu as an exact dual, gamma_pert to
    couple nu with eta at quadratic cost at most A * eps^2, and A * C <= 1
    for the chosen lower bound A of nu and upper bound C of mu.  When
    a_lower is omitted, A = min(lambda_min of nu on V, 1/C), which exact
    duality always makes admissible.
    """
    dual = _ExactDual.certify(mu, nu, gamma_dual, tol)
    _validate_coupling(gamma_pert, nu, eta)
    a = min(dual.a_opt, 1.0 / dual.c_upper) if a_lower is None \
        else float(a_lower)
    return dual.perturbation(eta, gamma_pert, eps, a)


@dataclass(frozen=True)
class InteriorityTrial:
    trial: int
    lam: float
    eps_claimed: float
    eps_actual: float
    passed: bool
    frame_bound_ok: bool


@dataclass(frozen=True)
class InteriorityReport:
    eps: float
    trials: int
    failures: int
    max_epsilon_actual: float
    records: tuple[InteriorityTrial, ...]


def _jittered(nu: DiscreteMeasure, directions: np.ndarray,
              scale: float) -> DiscreteMeasure:
    return DiscreteMeasure(nu.points + scale * directions, nu.weights)


def _sample_in_w2_ball(nu: DiscreteMeasure, V: Subspace, radius: float,
                       rng: np.random.Generator
                       ) -> tuple[DiscreteMeasure, Coupling]:
    """Jitter the atoms inside V and rescale toward the ball boundary.

    Bisection on the global jitter scale drives the exact distance into
    [0.9, 1.0] * radius so the certificate is exercised near its boundary.
    The returned coupling is transport-optimal, hence its cost is the
    squared distance.
    """
    if radius <= 0:
        return nu, identity_coupling(nu)
    proj = V.basis @ V.basis.T
    directions = rng.standard_normal(nu.points.shape) @ proj
    while float(np.max(np.abs(directions))) == 0.0:
        directions = rng.standard_normal(nu.points.shape) @ proj

    def distance(s: float) -> tuple[float, np.ndarray]:
        return _solve_w2(nu, _jittered(nu, directions, s))[:2]

    # The graph coupling costs s^2 * sum w ||d||^2, so this start is feasible.
    norm2 = float(np.sum(nu.weights * np.einsum("ki,ki->k", directions, directions)))
    lo, f_lo = 0.0, np.diag(nu.weights)   # scale 0 leaves nu in place
    hi = radius / np.sqrt(norm2)
    d_hi, f_hi = distance(hi)
    for _ in range(60):
        if d_hi >= 0.9 * radius:
            break
        lo, f_lo, hi = hi, f_hi, 2.0 * hi
        d_hi, f_hi = distance(hi)
    for _ in range(80):
        if 0.9 * radius <= d_hi <= radius:
            break
        mid = 0.5 * (lo + hi)
        d_mid, f_mid = distance(mid)
        if d_mid > radius:
            hi, d_hi, f_hi = mid, d_mid, f_mid
        else:
            lo, f_lo = mid, f_mid
            if d_mid >= 0.9 * radius:
                hi, d_hi, f_hi = mid, d_mid, f_mid
    scale, flows = (hi, f_hi) if d_hi <= radius else (lo, f_lo)
    eta = _jittered(nu, directions, scale)
    return eta, _flow_coupling(nu, eta, flows)


def interiority_experiment(mu: DiscreteMeasure, W: Subspace, V: Subspace,
                           eps: float, trials: int, rng_seed: int,
                           tol: Tolerance = DEFAULT_TOL) -> InteriorityReport:
    """Monte-Carlo check that duality degrades gracefully under transport
    perturbations of the sampling measure.

    Each trial owns its RNG stream (seed + trial index), samples a
    perturbation near the boundary of the admissible ball, and runs the
    perturbation certificate; the summary counts violations (expected 0)
    and also tracks the perturbed measure's lower frame bound floor.
    """
    nu, gamma_dual = canonical_dual_measure(mu, W, V, tol)
    c_upper = _require_frame(mu, W, tol, "the measure")[1]
    # The largest lower bound for nu compatible with A * C <= 1.
    a = min(_require_frame(nu, V, tol, "the dual measure")[0], 1.0 / c_upper)
    radius = float(np.sqrt(a) * eps)
    dual = _ExactDual.certify(mu, nu, gamma_dual, tol)

    records = []
    for t in range(trials):
        rng = np.random.default_rng(rng_seed + t)
        eta, gamma_pert = _sample_in_w2_ball(nu, V, radius, rng)
        cert = dual.perturbation(eta, gamma_pert, eps, a)
        if cert.lam < a:
            eta_bounds = classify_probabilistic_frame(eta, V, tol).bounds
            floor = (np.sqrt(a) - np.sqrt(cert.lam)) ** 2
            bound_ok = eta_bounds is not None and eta_bounds[0] >= floor - 1e-9
        else:
            bound_ok = True
        records.append(InteriorityTrial(
            trial=t,
            lam=cert.lam,
            eps_claimed=cert.epsilon_claimed,
            eps_actual=cert.epsilon_actual,
            passed=cert.epsilon_actual <= eps + 1e-9,
            frame_bound_ok=bound_ok,
        ))
    failures = sum(1 for r in records if not r.passed)
    return InteriorityReport(
        eps=eps,
        trials=trials,
        failures=failures,
        max_epsilon_actual=max((r.eps_actual for r in records), default=0.0),
        records=tuple(records),
    )
