"""Approximate oblique duals and Wasserstein perturbation certificates.

A coupling whose mixed moment lands within epsilon of the oblique
projection (spectral norm) is an epsilon-approximate dual certificate.
Perturbing the sampling measure of an exact dual pair inside a quadratic
transport ball of cost at most A * epsilon^2 keeps it an epsilon-approximate
dual; the certificate is constructed by gluing the exact-dual coupling
with the perturbation coupling and projecting onto the outer coordinates.
The exact dual is certified once per experiment; the perturbation trials
then run, in stacked chunks, only the checks that depend on the perturbed
measure, and glue over the dual measure by its atom index, where
perturbation_certificate, given arbitrary couplings, matches atoms.
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
    FrameError,
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
    _frame_spectrum,
    linear_pushforward,
    measure_frame_operator,
    second_moment,
)
from .transport import (
    Coupling,
    _certify_identity,
    _root_cost,
    _solve_w2,
    _squared_distances,
    _w2_of_cost,
    coupling_cost,
    glue,
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

    def judge(self, lam: np.ndarray, moments: np.ndarray,
              eps: float) -> tuple[np.ndarray, np.ndarray]:
        """epsilon_claimed and epsilon_actual, at A = a_max, of perturbations
        of transport costs lam (T,) whose glued couplings have mixed moments
        `moments` (T, n, n); the first over the cost budget raises, and the
        caller judges epsilon_actual against eps."""
        a = self.a_max
        over = np.flatnonzero(lam > a * eps * eps + 1e-12)
        if over.size:
            raise HypothesisViolated(
                f"perturbation cost {lam[over[0]]:.3e} exceeds "
                f"A*eps^2 = {a * eps * eps:.3e}"
            )
        return (np.sqrt(lam / a),
                np.broadcast_to(spectral_norm(moments - self.pi_wv), lam.shape))


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
    eps_claimed, eps_actual = (float(v[0]) for v in dual.judge(
        np.array([lam]), glued.moment_matrix()[None], eps))
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


# Trials per chunk are capped so that all the (trials, m, m, n) coordinate
# differences of their first probes hold at most this many numbers: the
# chunk's cost stack and points hold fewer, and the difference blocks of
# transport._squared_distances are capped alike, so a chunk's memory stays
# fixed however many trials run.  A trial whose differences alone exceed
# it runs by itself.
CHUNK_CELLS = 1 << 16


def _bisect(nu: DiscreteMeasure, directions: np.ndarray, radius: float,
            hi: float, d_hi: float, f_hi: np.ndarray
            ) -> tuple[float, np.ndarray]:
    """The jitter scale and the transport-optimal plan from nu to its jitter
    nu + scale * directions, from the first probe at scale hi, at distance
    d_hi with plan f_hi.

    Bisection on the scale drives the exact distance into [0.9, 1.0] *
    radius so the certificate is exercised near its boundary.  Later probes
    run the simplex without certifying diag(w): each cycle's cost is affine
    in the scale, so diag(w) is optimal exactly on an interval [0, s*], and
    after a refused first probe every later probe lies above it.
    """
    identity = np.diag(nu.weights)

    def distance(s: float) -> tuple[float, np.ndarray]:
        return _solve_w2(nu.points, nu.weights, nu.points + s * directions,
                         nu.weights)[:2]

    lo, f_lo = 0.0, identity   # scale 0 leaves nu in place
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
    return (hi, f_hi) if d_hi <= radius else (lo, f_lo)


class _Trials:
    """What the trials of one interiority experiment share: mu, its
    canonical dual nu, whose atom k is the image of mu's atom k, the
    certified exact dual, and the ball's radius sqrt(A) * eps.  (A plain
    class: a dataclass would cost a millisecond at every import.)"""

    def __init__(self, mu: DiscreteMeasure, nu: DiscreteMeasure, V: Subspace,
                 dual: _ExactDual, eps: float, tol: Tolerance):
        self.mu, self.nu, self.V, self.dual = mu, nu, V, dual
        self.eps, self.tol = eps, tol
        self.radius = float(np.sqrt(dual.a_max) * eps)

    def run(self, trials: range, rng_seed: int) -> list[InteriorityTrial]:
        """The records of a chunk of trials, trial t drawing its directions
        from its own stream, seed + t.

        Each trial jitters nu's atoms inside V, with its first probe at a
        scale where the identity plan diag(w) costs a few ulps under
        radius^2.  The chunk's first-probe costs are certified in one
        stacked call, the library's one certification of diag(w), and the
        trials where diag(w) is optimal there, so that the probe lands inside
        the ball, are judged as one stack.  Every other trial resumes the
        bisection from its first probe, each later probe a simplex solve
        (_bisect), and is judged as a stack of one.
        """
        nu, radius = self.nu, self.radius
        w = nu.weights
        identity = np.diag(w)
        if radius <= 0:
            # Scale 0 leaves nu in place, and draws nothing.
            return self.judge(trials, np.broadcast_to(
                nu.points, (len(trials), *nu.points.shape)), identity)
        proj = self.V.basis @ self.V.basis.T
        rngs = [np.random.default_rng(rng_seed + t) for t in trials]
        directions = np.array([rng.standard_normal(nu.points.shape)
                               for rng in rngs]) @ proj
        for k in np.flatnonzero(np.abs(directions).max(axis=(1, 2)) == 0.0):
            while float(np.max(np.abs(directions[k]))) == 0.0:
                directions[k] = rngs[k].standard_normal(nu.points.shape) @ proj
        norm2 = np.sum(w * np.einsum("tki,tki->tk", directions, directions,
                                     order="C"), axis=1)
        # The graph coupling costs s^2 * sum w ||d||^2, so at the first
        # probe the identity plan costs a few ulps under radius^2: when it is
        # optimal, that probe lands inside the ball.
        hi = radius / np.sqrt(norm2) * (1.0 - 64.0 * np.finfo(float).eps)
        points = nu.points + hi[:, None, None] * directions
        costs = _squared_distances(nu.points, points)
        certified, primal = _certify_identity(costs, w)
        d_hi = _root_cost(primal)
        inside = certified & (0.9 * radius <= d_hi) & (d_hi <= radius)
        records = []
        if inside.any():
            records = self.judge([trials[k] for k in np.flatnonzero(inside)],
                                 points[inside], identity)
        for k in np.flatnonzero(~inside):
            first = ((d_hi[k], identity) if certified[k]
                     else _w2_of_cost(costs[k], w, w)[:2])
            scale, flows = _bisect(nu, directions[k], radius, hi[k], *first)
            records += self.judge([trials[k]], (nu.points
                                                + scale * directions[k])[None],
                                  flows)
        return sorted(records, key=lambda r: r.trial)

    def judge(self, trials, points: np.ndarray,
              flows: np.ndarray) -> list[InteriorityTrial]:
        """The records of the trials whose jitters of nu have atoms `points`
        (T, m, n), each reached from nu by the one optimal plan `flows`
        (m x m, row i leaving nu's atom i).  The plan is glued to the exact
        dual by nu's atom index: the triples are (mu_i, nu_i, eta_j) at
        weight flows[i, j].  Each check raises at its first failing trial."""
        nu, dual, eps = self.nu, self.dual, self.eps
        w, a = nu.weights, dual.a_max
        net = np.abs(flows.sum(axis=1) - w)
        bad = np.flatnonzero(net > MARGINAL_TOL)
        if bad.size:
            raise MarginalMismatch(
                f"shared marginal masses differ by {net[bad[0]]:.3e}")
        ii, jj = np.nonzero(flows > 0)
        f = flows[ii, jj]
        d = nu.points[ii] - points[:, jj]
        # order="C": a Fortran-ordered result would be summed in another order.
        lam = np.sum(f * np.einsum("tki,tki->tk", d, d, order="C"), axis=1)
        # glue's weight w_a * w_b / mass with mass = w_i, which can round
        # away from f: so the records equal perturbation_certificate's.
        moments = np.einsum("k,ki,tkj->tij", w[ii] * f / w[ii],
                            self.mu.points[ii], points[:, jj])
        eps_claimed, eps_actual = dual.judge(lam, moments, eps)
        bound_ok = np.ones(lam.shape, dtype=bool)
        framed = lam < a
        if framed.any():
            _, vals, rank = _frame_spectrum(w, points[framed], self.V,
                                            self.tol)
            floor = (np.sqrt(a) - np.sqrt(lam[framed])) ** 2
            bound_ok[framed] = (rank == self.V.dim) & (vals[:, 0] >= floor - 1e-9)
        return [InteriorityTrial(trial=t, lam=float(lam[k]),
                                 eps_claimed=float(eps_claimed[k]),
                                 eps_actual=float(eps_actual[k]),
                                 passed=float(eps_actual[k]) <= eps + 1e-9,
                                 frame_bound_ok=bool(bound_ok[k]))
                for k, t in enumerate(trials)]


def interiority_experiment(mu: DiscreteMeasure, W: Subspace, V: Subspace,
                           eps: float, trials: int, rng_seed: int,
                           tol: Tolerance = DEFAULT_TOL) -> InteriorityReport:
    """Monte-Carlo check that duality degrades gracefully under transport
    perturbations of the sampling measure.

    Each trial owns its RNG stream (seed + trial index), so runs at
    consecutive seeds share all but one trial.  It samples a perturbation
    near the boundary of the admissible ball and runs the perturbation
    certificate; the summary counts violations (expected 0) and also
    tracks the perturbed measure's lower frame bound floor.  Trials run in
    chunks of at most CHUNK_CELLS first-probe coordinate differences
    (_Trials.run).  A trial glues its plan to the exact dual by nu's atom
    index, with no atom matching.  Where nu has atoms within POSITION_TOL of
    each other, perturbation_certificate's glue pools them and the trial
    does not; the two glued couplings are equal as measures.
    """
    nu, gamma_dual = canonical_dual_measure(mu, W, V, tol)
    dual = _ExactDual.certify(mu, nu, gamma_dual, tol)
    # nu is the pushforward of mu atom by atom, so gamma_dual is the graph
    # coupling pairing mu's atom k with nu's atom k, and row i of a plan
    # leaves nu's atom i: gluing over nu is an index lookup.
    shared = _Trials(mu, nu, V, dual, eps, tol)
    chunk = max(1, CHUNK_CELLS // (nu.num_atoms ** 2 * nu.ambient_dim))
    records = []
    for lo in range(0, trials, chunk):
        batch = range(lo, min(lo + chunk, trials))
        try:
            records += shared.run(batch, rng_seed)
        except (FrameError, ValueError, InternalConsistencyError):
            # A stack's checks raise in stage order; re-run the chunk one
            # trial at a time, so that the error raised is the one that the
            # lowest-index failing trial raises first.
            for t in batch:
                shared.run(range(t, t + 1), rng_seed)
            raise
    failures = sum(1 for r in records if not r.passed)
    return InteriorityReport(
        eps=eps,
        trials=trials,
        failures=failures,
        max_epsilon_actual=max((r.eps_actual for r in records), default=0.0),
        records=tuple(records),
    )
