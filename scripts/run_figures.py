#!/usr/bin/env python3
"""Produce the two dual-plane figures: the domain scan and the rate curves.

Writes domain_scan.csv / rate_curve.csv plus gnuplot scripts into the
output directory.  The defaults reproduce the reference pictures (the
scan at x = 0.7, eps = 0.3; the curves on the seven-point x grid at
eps = 0.1); pass --samples to trade accuracy for time.

    python3 scripts/run_figures.py --out-dir runs/figures --samples 1000000
"""

import argparse
import sys

from squimld.cli import main as cli_main


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out-dir", default="runs/figures")
    ap.add_argument("--samples", type=int, default=1_000_000)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--workers", type=int, default=None,
                    help="worker processes (default: every available core)")
    args = ap.parse_args()

    workers = [] if args.workers is None else ["--workers", str(args.workers)]
    rc = cli_main([
        "domain-scan", "--x", "0.7", "--eps", "0.3",
        "--samples", str(args.samples), "--seed", str(args.seed),
        "--out-dir", args.out_dir, *workers,
    ])
    if rc != 0:
        return rc
    return cli_main([
        "rate-curves", "--eps", "0.1",
        "--samples", str(args.samples), "--seed", str(args.seed),
        "--out-dir", args.out_dir, *workers,
    ])


if __name__ == "__main__":
    sys.exit(main())
