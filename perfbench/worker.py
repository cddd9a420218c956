"""One benchmark round in a fresh process: import squimld, run the operations.

    python3 perfbench/worker.py ROOT WORKLOAD SEED OUT_DIR [--trace] [--workers N] [--probe]

The worker imports squimld from ROOT/src and builds the round's operation
list (its set-up), reports "ready", then runs the operations one at a time
and reports each one's duration and result.  Before the first operation and
after the last operation of each stage it times `reference()`, a fixed
computation that does not touch squimld, and reports that too.  It
finishes with its peak RSS and, with --trace, the spans and counts.
--probe stops after "ready", which is how set-up time is sampled.

Messages are pickled onto the original standard output; the program's own
prints are captured per operation so that they cannot corrupt the channel.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import math
import os
import pickle
import resource
import sys
import time
import traceback
from pathlib import Path


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0  # ru_maxrss is in KiB on Linux


def reference() -> float:
    """Median seconds of three runs of a fixed computation that uses no squimld code.

    It mixes what the workloads spend their time on: an interpreted loop of
    libm calls, vectorised numpy arithmetic and float formatting.  Timed next
    to the operations, it measures how fast the host runs at that moment.
    """
    import numpy as np

    x = np.linspace(0.0, 1.0, 20_000)  # small, so that it does not show in peak RSS
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        acc = 0.0
        for i in range(100_000):
            acc += math.log1p(i * 1e-6)
        for _ in range(20):
            acc += float(np.exp(-x * acc).sum())
        ",".join("%.17g" % v for v in x)
        times.append(time.perf_counter() - t0)
    return sorted(times)[1]


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("root")
    ap.add_argument("workload")
    ap.add_argument("seed", type=int)
    ap.add_argument("out_dir")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--workers", type=int, default=None)
    ap.add_argument("--probe", action="store_true")
    args = ap.parse_args()

    chan = os.fdopen(os.dup(1), "wb")
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, 1)  # anything printed below fd level goes nowhere

    def send(*msg):
        pickle.dump(msg, chan)
        chan.flush()

    sys.path.insert(0, str(Path(args.root) / "src"))
    import squimld.cli
    import squimld.wfe

    import workloads

    ops = workloads.operations(args.workload, args.seed, args.workers)
    send("ready", squimld.__file__)
    if args.probe:
        return 0

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()

    reference()  # the first one in a process runs slow; it is not used
    send("reference", reference())
    for i, op in enumerate(ops):
        out = Path(args.out_dir) / op.name
        captured = io.StringIO()
        result, error = None, None
        with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured):
            t0 = time.perf_counter()
            try:
                if op.argv:
                    result = squimld.cli.main(list(op.argv) + ["--out-dir", str(out)])
                else:
                    extra = {} if args.workers is None else {"workers": args.workers}
                    res = squimld.wfe.rare_event_rate_mc(
                        squimld.wfe.WfeParams(omega=workloads.OMEGA, eps=workloads.WFE_EPS),
                        n_sites=workloads.RARE_N_SITES, replicas=op.samples, seed=args.seed,
                        **extra,
                    )
                    result = {k: getattr(res, k) for k in
                              ("log_p", "rate", "hits", "replicas", "tilt", "psi_at_tilt")}
            except Exception:
                error = traceback.format_exc()
            seconds = time.perf_counter() - t0
        send("op", op.name, seconds, result, error, captured.getvalue()[-4000:])
        if i + 1 == len(ops) or ops[i + 1].stage != op.stage:
            send("reference", reference())

    payload = None
    if tracer is not None:
        payload = {"spans": tracer.spans, "counts": dict(tracer.counts), "missing": tracer.missing}
    send("done", _peak_rss_mb(), payload)
    return 0


if __name__ == "__main__":
    sys.exit(main())
