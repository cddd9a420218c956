#!/usr/bin/env python3
"""Thermal-average sweep across models and temperatures.

Runs [m^2] (and optionally other observables) for each requested model
over a beta list at fixed N, printing a small table and writing one
ensemble.csv per model under the output directory.

    python3 scripts/run_ensembles.py --n 8 --betas 0,10,40 \\
        --models SCWM,SCWM_WFE --omega 1.2 --samples 200000
"""

import argparse
import sys

from squimld.cli import main as cli_main


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=8)
    ap.add_argument("--betas", default="0,10,40")
    ap.add_argument("--models", default="SCWM,SCWM_WFE")
    ap.add_argument("--omega", type=float, default=1.2)
    ap.add_argument("--observable", default="msq")
    ap.add_argument("--samples", type=int, default=200_000)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--workers", type=int, default=None,
                    help="worker processes (default: every available core)")
    ap.add_argument("--out-dir", default="runs/ensembles")
    args = ap.parse_args()

    workers = [] if args.workers is None else ["--workers", str(args.workers)]
    for model in args.models.split(","):
        for beta in args.betas.split(","):
            out = f"{args.out_dir}/{model}_beta{beta}"
            argv = [
                "ensemble", "--model", model, "--n", str(args.n),
                "--beta", beta, "--observable", args.observable,
                "--samples", str(args.samples), "--seed", str(args.seed),
                "--out-dir", out, *workers,
            ]
            if model == "SCWM_WFE":
                argv += ["--omega", str(args.omega)]
            rc = cli_main(argv)
            if rc != 0:
                print(f"{model} at beta={beta}: exit {rc}")
                if rc != 3:  # degenerate weights are reported, not fatal
                    return rc
    return 0


if __name__ == "__main__":
    sys.exit(main())
