#!/usr/bin/env python3
"""Critical-temperature pipeline plus its rare-event cross-validation.

Evaluates the transition bound at (omega, eps), then simulates the
weighted chi-square event at finite N under the dominant-point tilt and
reports the empirical rate next to the limiting one.

    python3 scripts/run_transition.py --omega 1.2 --eps 0.1 --replicas 10000000
"""

import argparse
import sys
import time

from squimld import WfeParams, beta_critical, rare_event_rate_mc


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--omega", type=float, default=1.2)
    ap.add_argument("--eps", type=float, default=0.1)
    ap.add_argument("--n-sites", type=int, default=2000)
    ap.add_argument("--replicas", type=int, default=10**6)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--workers", type=int, default=None,
                    help="worker processes (default: every available core)")
    args = ap.parse_args()

    params = WfeParams(omega=args.omega, eps=args.eps)
    t0 = time.perf_counter()
    res, beta_c = beta_critical(params)
    print(f"pbar*   = {res.p_star_inf:.10f}  (min of p at theta = {res.theta_at_min:.6f})")
    print(f"beta_c  = {beta_c:.10f}")
    print(f"theta range = ({res.theta_range[0]:.6f}, {res.theta_range[1]:.6f})")
    print(f"pipeline time {time.perf_counter() - t0:.1f}s")

    t0 = time.perf_counter()
    rare = rare_event_rate_mc(
        params, n_sites=args.n_sites, replicas=args.replicas,
        seed=args.seed, workers=args.workers,
    )
    print(
        f"rare event: log P = {rare.log_p:.4f}, rate = {rare.rate:.6f} "
        f"({rare.rate / res.p_star_inf:.3f} of pbar*), "
        f"{rare.hits} hits of {rare.replicas} replicas, tilt = {rare.tilt:.6f}"
    )
    print(f"std error of log P = {rare.std_error:.4f}, weight ESS = {rare.weight_ess:.1f}")
    print(f"simulation time {time.perf_counter() - t0:.1f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
