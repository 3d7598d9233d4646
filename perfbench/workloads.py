"""Seeded inputs, op sequences and output checks for each workload.

Every workload writes its fixtures into a work directory and exposes
``op_at(k)``: the k-th CLI call of its closed loop, with a check that
validates that call's stdout.  The generators here use numpy only, never
the library under test, so inputs and reference values stay independent
of the code being measured.
"""
from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np


class CheckFailed(Exception):
    """An op's output does not satisfy its correctness check."""


@dataclass(frozen=True)
class Op:
    argv: list[str]
    check: Callable[[str], object]  # raises CheckFailed (or any error)
    key: int | None = None  # input index, for checks deferred past the loop


@dataclass
class Plan:
    """A workload instantiated for one seed in one work directory."""

    op_at: Callable[[int], Op]
    # Runs end on whole passes of pass_ops ops; a traced pass is the ops
    # op_at(0) .. op_at(pass_ops - 1).
    pass_ops: int
    warmup: list[Op]   # run once per set-up, before any measured op
    size: str          # human-readable input size
    deferred: Callable[[list[int]], tuple[dict[int, str], dict]] = \
        field(default=lambda keys: ({}, {}))


# ---------------------------------------------------------------------------
# Generators


def _write(path: str, obj) -> str:
    with open(path, "w") as fh:
        json.dump(obj, fh)
    return path


def _subspace_obj(basis: np.ndarray) -> dict:
    return {"ambient_dim": basis.shape[0], "basis": basis.tolist()}


def _measure_obj(points: np.ndarray, weights: np.ndarray) -> dict:
    return {"ambient_dim": points.shape[1], "points": points.tolist(),
            "weights": weights.tolist()}


def _frame_obj(basis: np.ndarray, vectors: np.ndarray) -> dict:
    return {"ambient_dim": basis.shape[0], "subspace_basis": basis.tolist(),
            "vectors": vectors.tolist()}


def _weights(rng: np.random.Generator, m: int) -> np.ndarray:
    w = 0.2 + rng.random(m)
    return w / np.sum(w)


def _random_orthogonal(rng: np.random.Generator, n: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def oblique_pair(rng: np.random.Generator, n: int, d: int,
                 cos_min: float) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal bases of two d-dimensional subspaces W, V of R^n whose
    smallest principal-angle cosine is exactly cos_min.

    V is built from W by tilting min(d, n - d) basis directions into the
    orthogonal complement of W, with cosines drawn from [cos_min, 1] and the
    first one pinned to cos_min; both bases are then rotated within their
    spans so no coordinate structure leaks into the fixtures.
    """
    Q = _random_orthogonal(rng, n)
    W = Q[:, :d]
    k = min(d, n - d)
    c = np.ones(d)
    c[:k] = rng.uniform(cos_min, 1.0, k)
    c[0] = cos_min
    V = W * c
    V[:, :k] += Q[:, d:d + k] * np.sqrt(1.0 - c[:k] ** 2)
    return W @ _random_orthogonal(rng, d), V @ _random_orthogonal(rng, d)


def spanning_coefficients(rng: np.random.Generator, m: int,
                          d: int) -> np.ndarray:
    """m x d Gaussian coefficients whose rows span R^d with margin."""
    while True:
        coeff = rng.standard_normal((m, d))
        if np.linalg.svd(coeff, compute_uv=False)[-1] > 0.2:
            return coeff


def oblique_projection(W: np.ndarray, V: np.ndarray) -> np.ndarray:
    """Projection onto span W along the orthogonal complement of span V."""
    return W @ np.linalg.solve(V.T @ W, V.T)


def restricted_pinv(S: np.ndarray, W: np.ndarray) -> np.ndarray:
    """Pseudoinverse of a PSD matrix whose range is span W."""
    return W @ np.linalg.solve(W.T @ S @ W, W.T)


def _spectral(M: np.ndarray) -> float:
    return float(np.linalg.norm(M, 2))


def _require(cond: bool, message: str):
    if not cond:
        raise CheckFailed(message)


def _load(out: str) -> dict:
    try:
        report = json.loads(out)
    except json.JSONDecodeError as exc:
        raise CheckFailed(f"stdout is not JSON: {exc}") from exc
    _require(isinstance(report, dict), "report is not a JSON object")
    return report


# One call per verb on the small shipped fixtures.  Warm-up runs every code
# path of a workload once while its cost stays the same for every seed.
_WARMUP = {
    "w2": ["w2", "skew_line_mu.json", "skew_line_nu.json"],
    "interiority": ["interiority", "mercedes_benz_measure.json", "plane.json",
                    "plane.json", "--eps", "0.1", "--trials", "1"],
    "oblique-dual": ["oblique-dual", "mercedes_benz_frame.json", "plane.json"],
    "potential": ["potential", "mercedes_benz_pair.json", "--p", "2"],
    "minimize": ["minimize", "mercedes_benz_frame.json", "plane.json"],
    "pf-dual": ["pf-dual", "mercedes_benz_measure.json", "plane.json",
                "plane.json"],
    "pf-check": ["pf-check", "skew_line_mu.json", "skew_line_nu.json",
                 "skew_line_product_coupling.json"],
    "approx-check": ["approx-check", "skew_line_mu.json", "skew_line_nu.json",
                     "skew_line_product_coupling.json", "skew_line_w.json",
                     "skew_line_v.json"],
}


def shipped_warmup(root: str, verbs: list[str]) -> list[Op]:
    fixtures = os.path.join(root, "fixtures")
    ops = []
    for verb in verbs:
        argv = [os.path.join(fixtures, a) if a.endswith(".json") else a
                for a in _WARMUP[verb]]
        for path in argv:
            if path.endswith(".json") and not os.path.isfile(path):
                raise FileNotFoundError(f"shipped fixture missing: {path}")
        ops.append(Op(argv, _load))
    return ops


# ---------------------------------------------------------------------------
# w2_cold


W2_ATOMS = 24
W2_DIM = 4
W2_POOL = 256


def _highs_cost(a: np.ndarray, b: np.ndarray, cost: np.ndarray) -> float:
    """Optimal cost from HiGHS's dual simplex.  Its default feasibility
    tolerance, 1e-7, admits flows of -7e-8 that undercut the true optimum
    by 3e-9 relative, so both tolerances are tightened to 1e-10."""
    from scipy.optimize import linprog
    from scipy.sparse import eye, kron, vstack

    m, k = cost.shape
    rows = kron(eye(m), np.ones((1, k)))
    cols = kron(np.ones((1, m)), eye(k))
    res = linprog(cost.reshape(-1), A_eq=vstack([rows, cols]).tocsr(),
                  b_eq=np.concatenate([a, b]), bounds=(0, None),
                  method="highs-ds",
                  options={"primal_feasibility_tolerance": 1e-10,
                           "dual_feasibility_tolerance": 1e-10})
    if res.status != 0:
        raise CheckFailed(f"HiGHS failed: {res.message}")
    return float(res.fun)


def build_w2_cold(seed: int, workdir: str, root: str) -> Plan:
    rng = np.random.default_rng([seed, 1])
    pairs = []
    for i in range(W2_POOL):
        a_pts = rng.standard_normal((W2_ATOMS, W2_DIM))
        b_pts = rng.standard_normal((W2_ATOMS, W2_DIM))
        a_w, b_w = _weights(rng, W2_ATOMS), _weights(rng, W2_ATOMS)
        mu = _write(os.path.join(workdir, f"mu{i}.json"),
                    _measure_obj(a_pts, a_w))
        nu = _write(os.path.join(workdir, f"nu{i}.json"),
                    _measure_obj(b_pts, b_w))
        pairs.append((mu, nu, a_pts, b_pts, a_w, b_w))
    reported: dict[int, float] = {}

    def make_check(i: int):
        _, _, a_pts, b_pts, a_w, b_w = pairs[i]

        def check(out: str):
            report = _load(out)
            cert = report["certificate"]
            cost = float(cert["cost"])
            _require(float(cert["dual_gap"]) <= 1e-9 * (1.0 + abs(cost)),
                     f"dual gap {cert['dual_gap']} too large")
            _require(abs(report["distance"] ** 2 - max(cost, 0.0))
                     <= 1e-12 * (1.0 + cost), "distance^2 != certificate cost")
            # Coupling feasibility: atoms are copied verbatim, so match exactly.
            rows = {tuple(p): j for j, p in enumerate(a_pts.tolist())}
            cols = {tuple(p): j for j, p in enumerate(b_pts.tolist())}
            flow = np.zeros((W2_ATOMS, W2_ATOMS))
            for x, y, w in report["coupling"]["pairs"]:
                flow[rows[tuple(x)], cols[tuple(y)]] += w
            _require(np.min(flow) >= 0.0, "negative flow")
            _require(np.max(np.abs(flow.sum(axis=1) - a_w)) <= 1e-12
                     and np.max(np.abs(flow.sum(axis=0) - b_w)) <= 1e-12,
                     "coupling marginals differ from the inputs")
            diff = a_pts[:, None, :] - b_pts[None, :, :]
            direct = float(np.sum(flow * np.einsum("ijk,ijk->ij", diff, diff)))
            _require(abs(direct - cost) <= 1e-12 * (1.0 + cost),
                     "coupling cost disagrees with the certificate")
            reported[i] = cost
        return check

    def op_at(k: int) -> Op:
        i = k % W2_POOL
        mu, nu = pairs[i][:2]
        return Op(["w2", mu, nu], make_check(i), key=i)

    def deferred(keys: list[int]):
        """Compare every reported cost with HiGHS, once per input."""
        try:
            import scipy  # noqa: F401
        except ImportError:
            return {}, {"highs": "skipped: scipy not installed"}
        bad: dict[int, str] = {}
        for i in sorted(set(keys) & set(reported)):
            _, _, a_pts, b_pts, a_w, b_w = pairs[i]
            diff = a_pts[:, None, :] - b_pts[None, :, :]
            ref = _highs_cost(a_w, b_w, np.einsum("ijk,ijk->ij", diff, diff))
            if abs(reported[i] - ref) > 1e-9 * max(1.0, abs(ref)):
                bad[i] = f"cost {reported[i]!r} vs HiGHS {ref!r}"
        return bad, {"highs": f"ran on {len(set(keys) & set(reported))} inputs"}

    return Plan(op_at=op_at, pass_ops=8, warmup=shipped_warmup(root, ["w2"]),
                size=f"{W2_POOL} pairs of {W2_ATOMS}-atom measures in R^{W2_DIM}",
                deferred=deferred)


# ---------------------------------------------------------------------------
# interiority_oblique / interiority_triangle


def _interiority_check(eps: float, trials: int):
    def check(out: str):
        report = _load(out)
        _require(report["trials"] == trials, "wrong trial count")
        _require(report["failures"] == 0, f"{report['failures']} failed trials")
        _require(report["frame_bound_violations"] == 0,
                 "frame bound violations")
        _require(report["max_epsilon_actual"] <= eps,
                 f"max_epsilon_actual {report['max_epsilon_actual']} > eps")
    return check


def _interiority_plan(seed: int, root: str,
                      triples: list[tuple[str, str, str]],
                      eps: float, trials: int, pass_ops: int,
                      size: str) -> Plan:
    check = _interiority_check(eps, trials)
    # Trial t of an op seeded s uses stream s + t, so these never overlap.
    base = (seed * 1_000_003) % (2 ** 31)

    def op_at(k: int) -> Op:
        i = k % len(triples)
        mu, W, V = triples[i]
        return Op(["interiority", mu, W, V, "--eps", repr(eps),
                   "--trials", str(trials), "--seed", str(base + k * trials)],
                  check)

    return Plan(op_at=op_at, pass_ops=pass_ops,
                warmup=shipped_warmup(root, ["interiority"]), size=size)


# Work per op is heavy-tailed across measures (pivots per op vary 10x), so
# each op takes a fresh measure from a pool larger than a run's op count,
# rather than cycling a few.  All 2-planes of R^3 at one principal angle
# are congruent, so one (W, V) pair per seed loses no generality.
OBLIQUE_ATOMS = 12
OBLIQUE_POOL = 256
OBLIQUE_COS = 0.5
OBLIQUE_TRIALS = 2


def build_interiority_oblique(seed: int, workdir: str, root: str) -> Plan:
    rng = np.random.default_rng([seed, 2])
    W, V = oblique_pair(rng, 3, 2, OBLIQUE_COS)
    w_path = _write(os.path.join(workdir, "W.json"), _subspace_obj(W))
    v_path = _write(os.path.join(workdir, "V.json"), _subspace_obj(V))
    triples = []
    for i in range(OBLIQUE_POOL):
        pts = spanning_coefficients(rng, OBLIQUE_ATOMS, 2) @ W.T
        mu = _write(os.path.join(workdir, f"mu{i}.json"),
                    _measure_obj(pts, _weights(rng, OBLIQUE_ATOMS)))
        triples.append((mu, w_path, v_path))
    return _interiority_plan(
        seed, root, triples, eps=0.1, trials=OBLIQUE_TRIALS, pass_ops=8,
        size=f"{OBLIQUE_POOL} measures of {OBLIQUE_ATOMS} atoms on a plane W "
             f"in R^3, V at cosine {OBLIQUE_COS}, {OBLIQUE_TRIALS} trials/op")


TRIANGLE_TRIALS = 16


def build_interiority_triangle(seed: int, workdir: str, root: str) -> Plan:
    fixtures = os.path.join(root, "fixtures")
    mu = os.path.join(fixtures, "mercedes_benz_measure.json")
    plane = os.path.join(fixtures, "plane.json")
    return _interiority_plan(
        seed, root, [(mu, plane, plane)], eps=0.1, trials=TRIANGLE_TRIALS,
        pass_ops=4,
        size=f"shipped 3-atom triangle measure, {TRIANGLE_TRIALS} trials/op")


# ---------------------------------------------------------------------------
# envelope_io


ENV_N, ENV_D, ENV_ATOMS, ENV_COS = 64, 32, 200, 0.7
DUAL_TOL = 1e-9
MINIMIZE_TOL = 1e-6
# The CLI default --grad-tol 1e-7 is below the gradient floor that float
# granularity leaves at n=64: about 4% of random starts stall and exit 4
# after 10,000 iterations.  1e-5 converged on 320 of 320 starts with the
# final potential within 7e-13 of the canonical value.
MINIMIZE_GRAD_TOL = "1e-5"


def build_envelope_io(seed: int, workdir: str, root: str) -> Plan:
    rng = np.random.default_rng([seed, 4])
    W, V = oblique_pair(rng, ENV_N, ENV_D, ENV_COS)
    pi_wv = oblique_projection(W, V)
    pi_vw = oblique_projection(V, W)

    # Frame on W with its canonical oblique dual on V.
    F = spanning_coefficients(rng, ENV_ATOMS, ENV_D) @ W.T
    A = F @ restricted_pinv(F.T @ F, W) @ pi_vw.T
    canonical_value = float(np.sum((F @ A.T) ** 2))
    frame_obj = _frame_obj(W, F)
    pair_obj = {"synthesis": frame_obj, "analysis": _frame_obj(V, A),
                "residual": _spectral(F.T @ A - pi_wv)}

    # Measure on W with its canonical dual measure and graph coupling.
    X = spanning_coefficients(rng, ENV_ATOMS, ENV_D) @ W.T
    w = _weights(rng, ENV_ATOMS)
    T = pi_vw @ restricted_pinv(X.T @ (w[:, None] * X), W)
    Y = X @ T.T
    coupling_obj = {"pairs": [[x, y, wk] for x, y, wk
                              in zip(X.tolist(), Y.tolist(), w.tolist())]}

    path = {name: _write(os.path.join(workdir, f"{name}.json"), obj)
            for name, obj in (("frame", frame_obj), ("pair", pair_obj),
                              ("W", _subspace_obj(W)), ("V", _subspace_obj(V)),
                              ("mu", _measure_obj(X, w)),
                              ("nu", _measure_obj(Y, w)),
                              ("coupling", coupling_obj))}

    def pair_residual(pair: dict) -> float:
        syn = np.array(pair["synthesis"]["vectors"])
        ana = np.array(pair["analysis"]["vectors"])
        return _spectral(syn.T @ ana - pi_wv)

    def check_oblique_dual(out: str):
        pair = _load(out)
        _require(pair["residual"] <= DUAL_TOL, "reported residual too large")
        _require(pair_residual(pair) <= DUAL_TOL, "recomputed residual too large")

    def check_potential(out: str):
        rep = _load(out)
        _require(abs(rep["value"] - canonical_value)
                 <= DUAL_TOL * max(1.0, canonical_value),
                 f"potential {rep['value']!r} vs {canonical_value!r}")
        _require(rep["lower_bound"] == ENV_D and rep["saturated"],
                 "canonical pair does not saturate the bound")

    def check_minimize(out: str):
        rep = _load(out)
        final = rep["trajectory"][-1]
        _require(abs(final - canonical_value) <= MINIMIZE_TOL,
                 f"minimized potential {final!r} vs canonical {canonical_value!r}")
        _require(rep["iterations"] == len(rep["trajectory"]) - 1,
                 "iteration count disagrees with the trajectory")
        _require(pair_residual(rep["pair"]) <= DUAL_TOL,
                 "minimized pair is not a dual")

    def check_pf_dual(out: str):
        rep = _load(out)
        pairs = rep["coupling"]["pairs"]
        x = np.array([p[0] for p in pairs])
        y = np.array([p[1] for p in pairs])
        wk = np.array([p[2] for p in pairs])
        _require(abs(np.sum(wk) - 1.0) <= 1e-12, "coupling mass is not 1")
        _require(_spectral(x.T @ (wk[:, None] * y) - pi_wv) <= DUAL_TOL,
                 "dual measure coupling does not reproduce the projection")

    def check_is_dual(out: str):
        rep = _load(out)
        _require(rep["is_dual"] is True and rep["residual"] <= DUAL_TOL,
                 f"is_dual={rep['is_dual']} residual={rep['residual']}")

    def check_approx(out: str):
        rep = _load(out)
        _require(rep["epsilon_residual"] <= DUAL_TOL,
                 f"epsilon_residual {rep['epsilon_residual']}")
        _require(np.isfinite(rep["consistency_bound"]), "consistency bound")

    p = path
    pf_dual = (["pf-dual", p["mu"], p["W"], p["V"]], check_pf_dual)
    # Seven slots, pf-dual twice.  With an odd slot count and whole rounds
    # the median op lies inside one verb's cluster of latencies, not on the
    # gap between two; at this commit it is the middle of oblique-dual's,
    # with potential, pf-check and approx-check below and pf-dual twice and
    # minimize above.
    rounds = [
        (["oblique-dual", p["frame"], p["V"]], check_oblique_dual),
        (["potential", p["pair"], "--p", "2"], check_potential),
        (["minimize", p["frame"], p["V"], "--p", "2",
          "--grad-tol", MINIMIZE_GRAD_TOL], check_minimize),
        pf_dual,
        (["pf-check", p["mu"], p["nu"], p["coupling"]], check_is_dual),
        (["approx-check", p["mu"], p["nu"], p["coupling"], p["W"], p["V"]],
         check_approx),
        pf_dual,
    ]

    def op_at(k: int) -> Op:
        argv, check = rounds[k % len(rounds)]
        if argv[0] == "minimize":
            argv = argv + ["--seed", str(seed * 7919 + k // len(rounds))]
        return Op(list(argv), check)

    verbs = list(dict.fromkeys(argv[0] for argv, _ in rounds))
    return Plan(op_at=op_at, pass_ops=len(rounds),
                warmup=shipped_warmup(root, verbs),
                size=f"n={ENV_N}, d={ENV_D}, {ENV_ATOMS} vectors/atoms, "
                     f"principal cosine {ENV_COS}")


# ---------------------------------------------------------------------------


WORKLOADS = {
    "w2_cold": build_w2_cold,
    "interiority_oblique": build_interiority_oblique,
    "interiority_triangle": build_interiority_triangle,
    "envelope_io": build_envelope_io,
}
