#!/usr/bin/env python3
"""Perturbation interiority experiment over the standard fixtures.

For each fixture and each radius parameter eps, jitters the canonical
dual measure toward the boundary of the admissible transport ball and
certifies the perturbed measure as an eps-approximate dual.  Emits one
CSV row per trial and a JSON summary per (fixture, eps) cell.

Usage: python scripts/run_interiority.py [--trials N] [--seed S] [--outdir DIR]

Trial t of every cell runs on the RNG stream S + t, so runs at consecutive
seeds share all but one trial; space seeds at least N apart for independent
runs.
"""
import argparse
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from obliqueframes import dirac, interiority_experiment  # noqa: E402
from obliqueframes.gallery import (  # noqa: E402
    full_space,
    mercedes_benz_measure,
    skew_line_subspaces,
)
from obliqueframes.serialize import (  # noqa: E402
    serialize_fixture,
    write_interiority_csv,
)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--trials", type=int, default=100)
    ap.add_argument("--seed", type=int, default=0,
                    help="trial t runs on the RNG stream SEED + t, so runs at "
                         "consecutive seeds share all but one trial; space "
                         "seeds at least --trials apart for independent runs")
    ap.add_argument("--eps", type=float, nargs="+",
                    default=[0.05, 0.1, 0.5])
    ap.add_argument("--outdir", default="interiority_out")
    args = ap.parse_args()

    os.makedirs(args.outdir, exist_ok=True)
    r2 = full_space(2)
    w_line, v_line = skew_line_subspaces()
    cases = [
        ("mercedes_benz", mercedes_benz_measure(), r2, r2),
        ("skew_line", dirac([1.0, 0.0]), w_line, v_line),
    ]

    summaries = []
    for name, mu, W, V in cases:
        for eps in args.eps:
            summary = interiority_experiment(mu, W, V, eps=eps,
                                             trials=args.trials,
                                             rng_seed=args.seed)
            csv_path = os.path.join(args.outdir, f"{name}_eps{eps}.csv")
            write_interiority_csv(csv_path, summary)
            summaries.append({
                "fixture": name,
                "eps": eps,
                "trials": summary.trials,
                "failures": summary.failures,
                "max_epsilon_actual": summary.max_epsilon_actual,
                "csv": csv_path,
            })
            status = "ok" if summary.failures == 0 else "FAILED"
            print(f"{name:14s} eps={eps:<5g} trials={summary.trials} "
                  f"failures={summary.failures} "
                  f"max_actual={summary.max_epsilon_actual:.4g}  [{status}]")

    serialize_fixture(summaries, os.path.join(args.outdir, "summary.json"))
    return 0 if all(s["failures"] == 0 for s in summaries) else 1


if __name__ == "__main__":
    sys.exit(main())
