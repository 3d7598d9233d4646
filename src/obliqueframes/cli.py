"""Command-line interface.

Every verb reads JSON fixtures, runs one library operation, and hands its
report to serialize, which writes it to stdout or --out (atomically).
Validation and I/O errors exit 2, violated hypotheses 3, non-convergence 4,
internal inconsistency 5.
"""
from __future__ import annotations

import argparse
import functools
import sys

from . import approx as approx_mod
from . import duality, frames, measures, potentials, transport
from .errors import (FrameError, HypothesisViolated, InternalConsistencyError,
                     NonConvergence)
from .linalg import DEFAULT_TOL, Tolerance, is_dual_residual, tight_and_parseval
from .serialize import parse_fixture, serialize_fixture, write_interiority_csv

EXIT_VALIDATION = 2
EXIT_HYPOTHESIS = 3
EXIT_NONCONVERGENCE = 4
EXIT_INTERNAL = 5


def _emit(args, report):
    text = serialize_fixture(report, args.out or None)
    if not args.out:
        sys.stdout.write(text)


def cmd_frame_info(args):
    frame = parse_fixture(args.frame, "frame", args.tol)
    lo, hi = frames.frame_bounds(frame)
    tight, parseval = tight_and_parseval(lo, hi, args.tol)
    _emit(args, {
        "ambient_dim": frame.subspace.ambient_dim,
        "num_vectors": len(frame),
        "subspace_dim": frame.subspace.dim,
        "frame_operator": frames.frame_operator(frame),
        "lower_bound": lo,
        "upper_bound": hi,
        "tight": tight,
        "parseval": parseval,
    })


def cmd_oblique_dual(args):
    frame = parse_fixture(args.frame, "frame", args.tol)
    V = parse_fixture(args.sampling_subspace, "subspace")
    _emit(args, frames.canonical_oblique_dual(frame, V, args.tol))


def cmd_check_dual(args):
    pair = parse_fixture(args.pair, "pair", args.tol)
    _emit(args, {"is_dual": is_dual_residual(pair.residual, args.tol),
                 "residual": pair.residual})


def cmd_potential(args):
    pair = parse_fixture(args.pair, "pair", args.tol)
    op = potentials.diagonal_potential if args.diagonal \
        else potentials.dual_p_potential
    _emit(args, op(pair, args.p, args.tol))


def cmd_coherence(args):
    pair = parse_fixture(args.pair, "pair", args.tol)
    _emit(args, potentials.mixed_coherence(pair, args.tol))


def cmd_etf_lift(args):
    frame = parse_fixture(args.frame, "frame", args.tol)
    psi, is_etf = potentials.etf_lift(frame, args.tol)
    _emit(args, {"lifted": psi, "is_equiangular_tight": is_etf})


def cmd_minimize(args):
    frame = parse_fixture(args.frame, "frame", args.tol)
    V = parse_fixture(args.sampling_subspace, "subspace")
    opts = potentials.OptimizerOptions(
        max_iters=args.max_iters,
        grad_tol=args.grad_tol,
        seed=args.seed,
    )
    pair, trajectory = potentials.minimize_dual_potential(frame, V, args.p,
                                                          opts, args.tol)
    _emit(args, {
        "pair": pair,
        "trajectory": [float(v) for v in trajectory],
        "iterations": len(trajectory) - 1,
    })


def cmd_pf_classify(args):
    mu = parse_fixture(args.measure, "measure")
    W = parse_fixture(args.subspace, "subspace")
    _emit(args, measures.classify_probabilistic_frame(mu, W, args.tol))


def cmd_pf_dual(args):
    mu = parse_fixture(args.measure, "measure")
    W = parse_fixture(args.synthesis_subspace, "subspace")
    V = parse_fixture(args.sampling_subspace, "subspace")
    nu, gamma = duality.canonical_dual_measure(mu, W, V, args.tol)
    _emit(args, {"dual": nu, "coupling": gamma})


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
    _emit(args, duality.pf_dual_potential(mu, nu, args.mode, gamma, args.tol))


def cmd_w2(args):
    mu = parse_fixture(args.mu, "measure")
    nu = parse_fixture(args.nu, "measure")
    dist, gamma, cert = transport.exact_w2(mu, nu)
    _emit(args, {"distance": dist, "certificate": cert, "coupling": gamma})


def cmd_glue(args):
    g12 = parse_fixture(args.coupling_xy, "coupling")
    g23 = parse_fixture(args.coupling_yz, "coupling")
    _emit(args, transport.glue(g12, g23))


def cmd_approx_check(args):
    mu = parse_fixture(args.mu, "measure")
    nu = parse_fixture(args.nu, "measure")
    gamma = parse_fixture(args.coupling, "coupling")
    W = parse_fixture(args.synthesis_subspace, "subspace")
    V = parse_fixture(args.sampling_subspace, "subspace")
    _emit(args, approx_mod.approx_dual_residual(mu, nu, gamma, W, V))


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
        "coupling": cert.glued_coupling,
    })


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
    p.add_argument("--seed", type=int, default=0,
                   help="trial t runs on the RNG stream SEED + t, so runs at "
                        "consecutive seeds share all but one trial")
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
    except (FrameError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except InternalConsistencyError as exc:
        print(f"internal consistency check failed: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    return 0


if __name__ == "__main__":
    sys.exit(main())
