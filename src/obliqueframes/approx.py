"""Approximate oblique duals and Wasserstein perturbation certificates.

A coupling whose mixed moment lands within epsilon of the oblique
projection (spectral norm) is an epsilon-approximate dual certificate.
Perturbing the sampling measure of an exact dual pair inside a quadratic
transport ball of cost at most A * epsilon^2 keeps it an epsilon-approximate
dual; the certificate is constructed by gluing the exact-dual coupling
with the perturbation coupling and projecting onto the outer coordinates.
The exact dual is certified once per experiment; each perturbation trial
then runs only the checks that depend on the perturbed measure, and glues
over the dual measure by its atom index, where perturbation_certificate,
given arbitrary couplings, matches atoms.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .duality import (
    _dual_certificate,
    _framed_span,
    _require_frame,
    _validate_coupling,
    canonical_dual_measure,
)
from .errors import (
    DimensionMismatch,
    HypothesisViolated,
    InternalConsistencyError,
    MarginalMismatch,
)
from .linalg import (
    DEFAULT_TOL,
    Subspace,
    Tolerance,
    dual_operator,
    oblique_projection,
    psd_sqrt,
    require_dual,
    spectral_norm,
)
from .measures import (
    MARGINAL_TOL,
    DiscreteMeasure,
    classify_probabilistic_frame,
    linear_pushforward,
    measure_frame_operator,
    second_moment,
)
from .transport import Coupling, _solve_w2, coupling_cost, glue


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
    """An exact dual certificate checked once, leaving the lower bound and
    the oblique projection that every perturbation of it is measured against."""

    a_max: float        # min(lambda_min of nu, 1 / C), the largest A with A*C <= 1
    pi_wv: np.ndarray   # oblique projection between the two spans

    @classmethod
    def certify(cls, mu: DiscreteMeasure, nu: DiscreteMeasure,
                gamma_dual: Coupling, tol: Tolerance) -> "_ExactDual":
        W, (_, c_upper) = _framed_span(mu)
        V, (a_opt, _) = _framed_span(nu)
        resid, pi_wv = _dual_certificate(mu, nu, gamma_dual, W, V)
        require_dual(resid, tol, "dual certificate")
        return cls(min(a_opt, 1.0 / c_upper), pi_wv)

    def judge(self, lam: float, moment: np.ndarray,
              eps: float) -> tuple[float, float]:
        """epsilon_claimed and epsilon_actual, at A = a_max, of a perturbation
        of transport cost lam whose glued coupling has mixed moment `moment`;
        the caller judges epsilon_actual against eps."""
        a = self.a_max
        if lam > a * eps * eps + 1e-12:
            raise HypothesisViolated(
                f"perturbation cost {lam:.3e} exceeds A*eps^2 = {a * eps * eps:.3e}"
            )
        return (float(np.sqrt(lam / a)),
                float(spectral_norm(moment - self.pi_wv)))


def perturbation_certificate(mu: DiscreteMeasure, nu: DiscreteMeasure,
                             gamma_dual: Coupling, eta: DiscreteMeasure,
                             gamma_pert: Coupling, eps: float,
                             tol: Tolerance = DEFAULT_TOL
                             ) -> PerturbationCertificate:
    """Certify eta as an eps-approximate dual of mu by gluing couplings.

    Requires gamma_dual to certify nu as an exact dual and gamma_pert to
    couple nu with eta at quadratic cost at most A * eps^2, where
    A = min(lambda_min of nu on V, 1/C) with C the upper bound of mu: the
    largest lower bound of nu with A * C <= 1, which exact duality always
    makes admissible.  Raises InternalConsistencyError when the glued
    coupling's residual exceeds eps anyway, since the theorem forbids it.
    """
    dual = _ExactDual.certify(mu, nu, gamma_dual, tol)
    _validate_coupling(gamma_pert, nu, eta)
    lam = coupling_cost(gamma_pert)
    glued = glue(gamma_dual, gamma_pert).xz_coupling()
    eps_claimed, eps_actual = dual.judge(lam, glued.moment_matrix(), eps)
    if eps_actual > eps + 1e-9:
        raise InternalConsistencyError(
            f"certified residual {eps_actual:.3e} exceeds eps = {eps:.3e}"
        )
    return PerturbationCertificate(
        lam=lam,
        a_lower=float(dual.a_max),
        epsilon_claimed=eps_claimed,
        glued_coupling=glued,
        epsilon_actual=eps_actual,
    )


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


def _sample_in_w2_ball(nu: DiscreteMeasure, V: Subspace, radius: float,
                       rng: np.random.Generator
                       ) -> tuple[DiscreteMeasure, np.ndarray]:
    """Jitter the atoms inside V and rescale toward the ball boundary.

    Bisection on the global jitter scale drives the exact distance into
    [0.9, 1.0] * radius so the certificate is exercised near its boundary.
    Returns the jittered measure eta, whose atom i is nu's atom i moved, and
    the transport-optimal plan from nu to eta as an m x m flow matrix, row i
    leaving nu's atom i: its cost is the squared distance.
    """
    if radius <= 0:
        return nu, np.diag(nu.weights)
    proj = V.basis @ V.basis.T
    directions = rng.standard_normal(nu.points.shape) @ proj
    while float(np.max(np.abs(directions))) == 0.0:
        directions = rng.standard_normal(nu.points.shape) @ proj

    def distance(s: float) -> tuple[float, np.ndarray]:
        return _solve_w2(nu.points, nu.weights, nu.points + s * directions,
                         nu.weights, start=identity)[:2]

    # The graph coupling costs s^2 * sum w ||d||^2, so this start is
    # feasible, and at the first probe it costs a few ulps under radius^2:
    # when it is optimal, that probe lands inside the ball.
    norm2 = float(np.sum(nu.weights * np.einsum("ki,ki->k", directions, directions)))
    identity = np.diag(nu.weights)   # a plan from nu to each of its jitters
    lo, f_lo = 0.0, identity   # scale 0 leaves nu in place
    hi = radius / np.sqrt(norm2) * (1.0 - 64.0 * np.finfo(float).eps)
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
    return DiscreteMeasure(nu.points + scale * directions, nu.weights), flows


def interiority_experiment(mu: DiscreteMeasure, W: Subspace, V: Subspace,
                           eps: float, trials: int, rng_seed: int,
                           tol: Tolerance = DEFAULT_TOL) -> InteriorityReport:
    """Monte-Carlo check that duality degrades gracefully under transport
    perturbations of the sampling measure.

    Each trial owns its RNG stream (seed + trial index), samples a
    perturbation near the boundary of the admissible ball, and runs the
    perturbation certificate; the summary counts violations (expected 0)
    and also tracks the perturbed measure's lower frame bound floor.
    A trial glues its plan to the exact dual by nu's atom index, with no
    atom matching: the triples are (mu_i, nu_i, eta_j) at weight
    flows[i, j].  Where nu has atoms within POSITION_TOL of each other,
    perturbation_certificate's glue pools them and the trial does not; the
    two glued couplings are equal as measures.
    """
    nu, gamma_dual = canonical_dual_measure(mu, W, V, tol)
    dual = _ExactDual.certify(mu, nu, gamma_dual, tol)
    a = dual.a_max
    radius = float(np.sqrt(a) * eps)
    # nu is the pushforward of mu atom by atom, so gamma_dual is the graph
    # coupling pairing mu's atom k with nu's atom k, and row i of a plan
    # leaves nu's atom i: gluing over nu is an index lookup.
    x, w = mu.points, nu.weights

    records = []
    for t in range(trials):
        rng = np.random.default_rng(rng_seed + t)
        eta, flows = _sample_in_w2_ball(nu, V, radius, rng)
        net = np.abs(flows.sum(axis=1) - w)
        bad = np.flatnonzero(net > MARGINAL_TOL)
        if bad.size:
            raise MarginalMismatch(
                f"shared marginal masses differ by {net[bad[0]]:.3e}")
        ii, jj = np.nonzero(flows > 0)
        f = flows[ii, jj]
        d = nu.points[ii] - eta.points[jj]
        lam = float(np.sum(f * np.einsum("ki,ki->k", d, d)))
        # glue's weight w_a * w_b / mass with mass = w_i, which can round
        # away from f: so the records equal perturbation_certificate's.
        moment = np.einsum("k,ki,kj->ij", w[ii] * f / w[ii], x[ii],
                           eta.points[jj])
        eps_claimed, eps_actual = dual.judge(lam, moment, eps)
        if lam < a:
            eta_bounds = classify_probabilistic_frame(eta, V, tol).bounds
            floor = (np.sqrt(a) - np.sqrt(lam)) ** 2
            bound_ok = eta_bounds is not None and eta_bounds[0] >= floor - 1e-9
        else:
            bound_ok = True
        records.append(InteriorityTrial(
            trial=t,
            lam=lam,
            eps_claimed=eps_claimed,
            eps_actual=eps_actual,
            passed=eps_actual <= eps + 1e-9,
            frame_bound_ok=bool(bound_ok),
        ))
    failures = sum(1 for r in records if not r.passed)
    return InteriorityReport(
        eps=eps,
        trials=trials,
        failures=failures,
        max_epsilon_actual=max((r.eps_actual for r in records), default=0.0),
        records=tuple(records),
    )
