"""Command-line interface.

Every verb reads JSON fixtures, runs one library operation, and emits a
JSON report to stdout or --out (written atomically).  Validation errors
exit 2, violated hypotheses 3, non-convergence 4, internal inconsistency 5.
"""
from __future__ import annotations

import argparse
import csv
import functools
import sys

from . import approx as approx_mod
from . import duality, frames, measures, potentials, transport
from .errors import (FrameError, HypothesisViolated, InternalConsistencyError,
                     NonConvergence)
from .linalg import DEFAULT_TOL, Tolerance, tight_and_parseval
from .serialize import (
    coupling_to_obj,
    dumps_canonical,
    frame_to_obj,
    measure_to_obj,
    pair_to_obj,
    parse_fixture,
    tricoupling_to_obj,
    write_atomic,
)

EXIT_VALIDATION = 2
EXIT_HYPOTHESIS = 3
EXIT_NONCONVERGENCE = 4
EXIT_INTERNAL = 5


def _emit(args, report: dict):
    text = dumps_canonical(report)
    if args.out:
        write_atomic(text, args.out)
    else:
        sys.stdout.write(text)


def _potential_obj(rep: potentials.PotentialReport) -> dict:
    return {
        "p": rep.p,
        "value": rep.value,
        "lower_bound": rep.lower_bound,
        "gap": rep.gap,
        "saturated": rep.saturated,
        "saturation_tol": rep.saturation_tol,
    }


def cmd_frame_info(args):
    frame = parse_fixture(args.frame, "frame", args.tol)
    lo, hi = frames.frame_bounds(frame)
    tight, parseval = tight_and_parseval(lo, hi, args.tol)
    _emit(args, {
        "ambient_dim": frame.subspace.ambient_dim,
        "num_vectors": len(frame),
        "subspace_dim": frame.subspace.dim,
        "frame_operator": frames.frame_operator(frame).tolist(),
        "lower_bound": lo,
        "upper_bound": hi,
        "tight": tight,
        "parseval": parseval,
    })


def cmd_oblique_dual(args):
    frame = parse_fixture(args.frame, "frame", args.tol)
    V = parse_fixture(args.sampling_subspace, "subspace")
    pair = frames.canonical_oblique_dual(frame, V, args.tol)
    _emit(args, pair_to_obj(pair))


def cmd_check_dual(args):
    pair = parse_fixture(args.pair, "pair", args.tol)
    _emit(args, {"is_dual": pair.residual <= args.tol.eq_tol,
                 "residual": pair.residual})


def cmd_potential(args):
    pair = parse_fixture(args.pair, "pair", args.tol)
    op = potentials.diagonal_potential if args.diagonal \
        else potentials.dual_p_potential
    _emit(args, _potential_obj(op(pair, args.p, args.tol)))


def cmd_coherence(args):
    pair = parse_fixture(args.pair, "pair", args.tol)
    rep = potentials.mixed_coherence(pair, args.tol)
    G, Q = potentials.mixed_gram(pair, args.tol)
    _emit(args, {
        "max_off_diagonal_sq": rep.max_off_diagonal_sq,
        "welch_bound": rep.welch_bound,
        "diagonal_constant": rep.diagonal_constant,
        "saturated": rep.saturated,
        "mixed_gram": G.tolist(),
        "signature": None if Q is None else Q.tolist(),
    })


def cmd_etf_lift(args):
    frame = parse_fixture(args.frame, "frame", args.tol)
    psi, is_etf = potentials.etf_lift(frame, args.tol)
    _emit(args, {
        "lifted": frame_to_obj(psi),
        "is_equiangular_tight": is_etf,
    })


def cmd_minimize(args):
    frame = parse_fixture(args.frame, "frame", args.tol)
    V = parse_fixture(args.sampling_subspace, "subspace")
    opts = potentials.OptimizerOptions(
        step_size=args.step_size,
        max_iters=args.max_iters,
        grad_tol=args.grad_tol,
        seed=args.seed,
    )
    pair, trajectory = potentials.minimize_dual_potential(frame, V, args.p,
                                                          opts, args.tol)
    _emit(args, {
        "pair": pair_to_obj(pair),
        "trajectory": [float(v) for v in trajectory],
        "iterations": len(trajectory) - 1,
    })


def cmd_pf_classify(args):
    mu = parse_fixture(args.measure, "measure")
    W = parse_fixture(args.subspace, "subspace")
    rep = measures.classify_probabilistic_frame(mu, W, args.tol)
    _emit(args, {
        "second_moment": rep.second_moment,
        "frame_operator": rep.frame_operator.tolist(),
        "is_frame": rep.is_frame,
        "bounds": None if rep.bounds is None else list(rep.bounds),
        "is_tight": rep.is_tight,
        "is_parseval": rep.is_parseval,
    })


def cmd_pf_dual(args):
    mu = parse_fixture(args.measure, "measure")
    W = parse_fixture(args.synthesis_subspace, "subspace")
    V = parse_fixture(args.sampling_subspace, "subspace")
    nu, gamma = duality.canonical_dual_measure(mu, W, V, args.tol)
    _emit(args, {
        "dual": measure_to_obj(nu),
        "coupling": coupling_to_obj(gamma),
    })


def cmd_pf_check(args):
    mu = parse_fixture(args.mu, "measure")
    nu = parse_fixture(args.nu, "measure")
    gamma = parse_fixture(args.coupling, "coupling")
    ok, resid = duality.is_oblique_dual_measure(mu, nu, gamma, args.tol)
    _emit(args, {"is_dual": ok, "residual": resid})


def cmd_pf_potential(args):
    mu = parse_fixture(args.mu, "measure")
    nu = parse_fixture(args.nu, "measure")
    gamma = parse_fixture(args.coupling, "coupling") if args.coupling else None
    rep = duality.pf_dual_potential(mu, nu, args.mode, gamma, args.tol)
    _emit(args, _potential_obj(rep))


def cmd_w2(args):
    mu = parse_fixture(args.mu, "measure")
    nu = parse_fixture(args.nu, "measure")
    dist, gamma, cert = transport.exact_w2(mu, nu)
    _emit(args, {
        "distance": dist,
        "certificate": {
            "cost": cert.cost,
            "dual_gap": cert.dual_gap,
            "iterations": cert.iterations,
        },
        "coupling": coupling_to_obj(gamma),
    })


def cmd_glue(args):
    g12 = parse_fixture(args.coupling_xy, "coupling")
    g23 = parse_fixture(args.coupling_yz, "coupling")
    tri = transport.glue(g12, g23)
    _emit(args, tricoupling_to_obj(tri))


def cmd_approx_check(args):
    mu = parse_fixture(args.mu, "measure")
    nu = parse_fixture(args.nu, "measure")
    gamma = parse_fixture(args.coupling, "coupling")
    W = parse_fixture(args.synthesis_subspace, "subspace")
    V = parse_fixture(args.sampling_subspace, "subspace")
    rep = approx_mod.approx_dual_residual(mu, nu, gamma, W, V)
    _emit(args, {
        "epsilon_residual": rep.epsilon_residual,
        "consistency_bound": rep.consistency_bound,
    })


def cmd_perturb(args):
    mu = parse_fixture(args.mu, "measure")
    nu = parse_fixture(args.nu, "measure")
    gamma_dual = parse_fixture(args.dual_coupling, "coupling")
    eta = parse_fixture(args.eta, "measure")
    gamma_pert = parse_fixture(args.perturbation_coupling, "coupling")
    cert = approx_mod.perturbation_certificate(
        mu, nu, gamma_dual, eta, gamma_pert, args.eps, tol=args.tol)
    _emit(args, {
        "lambda": cert.lam,
        "a_lower": cert.a_lower,
        "epsilon_claimed": cert.epsilon_claimed,
        "epsilon_actual": cert.epsilon_actual,
        "coupling": coupling_to_obj(cert.glued_coupling),
    })


def write_interiority_csv(path: str, summary: approx_mod.InteriorityReport):
    """One CSV row per interiority trial, floats with 17 significant digits."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["trial", "lambda", "eps_claimed", "eps_actual",
                         "pass"])
        for r in summary.records:
            writer.writerow([r.trial, f"{r.lam:.17g}",
                             f"{r.eps_claimed:.17g}",
                             f"{r.eps_actual:.17g}",
                             int(r.passed)])


def cmd_interiority(args):
    mu = parse_fixture(args.measure, "measure")
    W = parse_fixture(args.synthesis_subspace, "subspace")
    V = parse_fixture(args.sampling_subspace, "subspace")
    summary = approx_mod.interiority_experiment(
        mu, W, V, args.eps, args.trials, args.seed, args.tol)
    if args.csv:
        write_interiority_csv(args.csv, summary)
    _emit(args, {
        "eps": summary.eps,
        "trials": summary.trials,
        "failures": summary.failures,
        "max_epsilon_actual": summary.max_epsilon_actual,
        "frame_bound_violations":
            sum(1 for r in summary.records if not r.frame_bound_ok),
    })


def _nonnegative(kind):
    """argparse type: a finite int or float >= 0."""
    def parse(text: str):
        value = kind(text)
        if not 0 <= value < float("inf"):
            raise argparse.ArgumentTypeError(f"must be finite and >= 0, got {text}")
        return value
    parse.__name__ = kind.__name__  # argparse names it in "invalid int value"
    return parse


def _tolerance(text: str) -> Tolerance:
    """argparse type: the one Tolerance of a call, eq_tol finite and > 0."""
    value = float(text)
    try:
        return Tolerance(eq_tol=value)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


_tolerance.__name__ = "float"  # argparse names it in "invalid float value"


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process and shared by every call;
    parsing leaves it unchanged, and callers must not modify it."""
    parser = argparse.ArgumentParser(
        prog="obliqueframes",
        description="Oblique dual frames, probabilistic frames, and "
                    "transport-based duality certificates.",
    )
    parser.add_argument("--out", help="write the JSON report here instead of stdout")
    parser.add_argument("--tol", type=_tolerance, default=DEFAULT_TOL,
                        help="operator-equality tolerance, finite and > 0 "
                             "(default 1e-9)")
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("frame-info", help="frame operator and bounds")
    p.add_argument("frame")
    p.set_defaults(func=cmd_frame_info)

    p = sub.add_parser("oblique-dual", help="canonical oblique dual pair")
    p.add_argument("frame")
    p.add_argument("sampling_subspace")
    p.set_defaults(func=cmd_oblique_dual)

    p = sub.add_parser("check-dual", help="verify a dual pair fixture")
    p.add_argument("pair")
    p.set_defaults(func=cmd_check_dual)

    p = sub.add_parser("potential", help="dual p-frame potential")
    p.add_argument("pair")
    p.add_argument("--p", type=float, default=2.0)
    p.add_argument("--diagonal", action="store_true",
                   help="diagonal potential instead of the double sum")
    p.set_defaults(func=cmd_potential)

    p = sub.add_parser("coherence", help="mixed coherence and signature")
    p.add_argument("pair")
    p.set_defaults(func=cmd_coherence)

    p = sub.add_parser("etf-lift", help="whitened frame and ETF test")
    p.add_argument("frame")
    p.set_defaults(func=cmd_etf_lift)

    p = sub.add_parser("minimize", help="minimize the dual potential")
    p.add_argument("frame")
    p.add_argument("sampling_subspace")
    p.add_argument("--p", type=float, default=2.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--step-size", type=float, default=1.0)
    p.add_argument("--max-iters", type=_nonnegative(int), default=10000)
    p.add_argument("--grad-tol", type=float, default=1e-7)
    p.set_defaults(func=cmd_minimize)

    p = sub.add_parser("pf-classify", help="probabilistic frame report")
    p.add_argument("measure")
    p.add_argument("subspace")
    p.set_defaults(func=cmd_pf_classify)

    p = sub.add_parser("pf-dual", help="canonical oblique dual measure")
    p.add_argument("measure")
    p.add_argument("synthesis_subspace")
    p.add_argument("sampling_subspace")
    p.set_defaults(func=cmd_pf_dual)

    p = sub.add_parser("pf-check", help="verify a coupling dual certificate")
    p.add_argument("mu")
    p.add_argument("nu")
    p.add_argument("coupling")
    p.set_defaults(func=cmd_pf_check)

    p = sub.add_parser("pf-potential", help="dual potential of a measure pair")
    p.add_argument("mu")
    p.add_argument("nu")
    p.add_argument("--mode", choices=("pushforward", "general"),
                   default="general")
    p.add_argument("--coupling", default=None,
                   help="optional coupling certificate to verify first")
    p.set_defaults(func=cmd_pf_potential)

    p = sub.add_parser("w2", help="exact 2-Wasserstein distance")
    p.add_argument("mu")
    p.add_argument("nu")
    p.set_defaults(func=cmd_w2)

    p = sub.add_parser("glue", help="glue two couplings over a shared marginal")
    p.add_argument("coupling_xy")
    p.add_argument("coupling_yz")
    p.set_defaults(func=cmd_glue)

    p = sub.add_parser("approx-check", help="approximate-dual residual")
    p.add_argument("mu")
    p.add_argument("nu")
    p.add_argument("coupling")
    p.add_argument("synthesis_subspace")
    p.add_argument("sampling_subspace")
    p.set_defaults(func=cmd_approx_check)

    p = sub.add_parser("perturb", help="perturbation certificate")
    p.add_argument("mu")
    p.add_argument("nu")
    p.add_argument("dual_coupling")
    p.add_argument("eta")
    p.add_argument("perturbation_coupling")
    p.add_argument("--eps", type=_nonnegative(float), required=True)
    p.set_defaults(func=cmd_perturb)

    p = sub.add_parser("interiority", help="perturbation Monte-Carlo experiment")
    p.add_argument("measure")
    p.add_argument("synthesis_subspace")
    p.add_argument("sampling_subspace")
    p.add_argument("--eps", type=_nonnegative(float), required=True)
    p.add_argument("--trials", type=_nonnegative(int), default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--csv", default=None, help="also write per-trial CSV rows")
    p.set_defaults(func=cmd_interiority)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        args.func(args)
    except HypothesisViolated as exc:
        print(f"hypothesis violated: {exc}", file=sys.stderr)
        return EXIT_HYPOTHESIS
    except NonConvergence as exc:
        print(f"did not converge: {exc}", file=sys.stderr)
        return EXIT_NONCONVERGENCE
    except (FrameError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except InternalConsistencyError as exc:
        print(f"internal consistency check failed: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    return 0


if __name__ == "__main__":
    sys.exit(main())
