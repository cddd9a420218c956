#!/usr/bin/env python3
"""squimld benchmark: run one workload for a fixed time and report its metrics.

    python3 perfbench/run.py --workload transition --seed 1 --seconds 20 --trace 0

Run from the root of a squimld checkout; the program is imported from
./src.  A run first samples set-up time (fresh processes that import
squimld and build the round's inputs), then repeats whole rounds of the
workload, each in a fresh worker process, until --seconds have passed.
Every round's outputs are checked against perfbench/oracles.py.

The gated times, setup_s and wall_s, are host-normalised: each is divided
by the time of a fixed reference computation (worker.reference) timed in
the same process and run, and scaled to a host on which that reference
takes REFERENCE_NOMINAL_S.  The raw seconds are kept as setup_raw_s and
wall_raw_s.  See perfbench/README.md for why.

--trace 0 reports the end-to-end metrics; --trace 1 wraps squimld's layer
boundaries, pins one worker and reports the per-layer metrics instead.
The last line of standard output is one JSON object with "correct",
"attempted", "failed" and "metrics"; the lines before it are a readable
summary.  Full results, and with --trace 1 the spans, go to --results.

--workers N passes N to the program (default: the program's own default),
for single-worker against multi-worker reference figures.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import pickle
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import checks
import tracing
import workloads as W

HERE = Path(__file__).resolve().parent
SETUP_PROBES = 3
RUN_LIMIT_S = 170.0  # a run must end within 180 s
# A fixed scale, so that host-normalised times read in seconds: about what
# worker.reference() takes on the development host when it runs fast.
REFERENCE_NOMINAL_S = 0.030


class WorkerDied(RuntimeError):
    pass


def _worker_env() -> dict:
    # SQUIMLD_* variables would change the program's defaults under the benchmark
    return {k: v for k, v in os.environ.items() if not k.startswith("SQUIMLD_")}


class Run:
    """One benchmark run: worker processes, their messages, the deadline."""

    def __init__(self, root: Path, args, workers: int | None):
        self.root = root
        self.args = args
        self.workers = workers
        self.started = time.monotonic()

    def remaining(self) -> float:
        return RUN_LIMIT_S - (time.monotonic() - self.started)

    def worker(self, out_dir: Path, probe: bool):
        """Start a worker; return (message iterator, seconds until it was ready)."""
        cmd = [sys.executable, str(HERE / "worker.py"), str(self.root), self.args.workload,
               str(self.args.seed), str(out_dir)]
        if self.args.trace:
            cmd.append("--trace")
        if self.workers is not None:
            cmd += ["--workers", str(self.workers)]
        if probe:
            cmd.append("--probe")
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=self.root, stdin=subprocess.DEVNULL,
                                stdout=subprocess.PIPE, env=_worker_env())
        timer = threading.Timer(max(self.remaining(), 1.0), proc.kill)
        timer.start()

        def messages():
            try:
                while True:
                    try:
                        yield pickle.load(proc.stdout)
                    except EOFError:
                        return
            finally:
                timer.cancel()
                proc.stdout.close()
                try:
                    proc.wait(timeout=30)
                except subprocess.TimeoutExpired:
                    proc.kill()
                    proc.wait()

        msgs = messages()
        first = next(msgs, None)
        ready = time.perf_counter() - t0
        if first is None or first[0] != "ready":
            for _ in msgs:
                pass
            raise WorkerDied(f"worker exited before it was ready (exit {proc.returncode})")
        if not Path(first[1]).resolve().is_relative_to(self.root.resolve() / "src"):
            raise WorkerDied(f"squimld imported from {first[1]}, not from {self.root / 'src'}")
        return msgs, ready

    def probe(self) -> float:
        msgs, ready = self.worker(self.root, probe=True)
        for _ in msgs:
            pass
        return ready

    def round(self, out_dir: Path) -> dict:
        msgs, ready = self.worker(out_dir, probe=False)
        ops, refs, rss, payload = {}, [], None, None
        for msg in msgs:
            if msg[0] == "reference":
                refs.append(msg[1])
            elif msg[0] == "op":
                _, name, seconds, result, error, log = msg
                ops[name] = {"seconds": seconds, "result": result, "error": error, "log": log,
                             "dir": out_dir / name}
            elif msg[0] == "done":
                rss, payload = msg[1], msg[2]
        return {"ready_s": ready, "ops": ops, "refs": refs, "peak_rss_mb": rss, "trace": payload}


def _median(values):
    return float(statistics.median(values))


def _environment() -> dict:
    import mpmath
    import numpy
    import scipy

    env = {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "thread_env": {k: os.environ.get(k) for k in
                       ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    env["blas"] = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    return env


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=W.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workers", type=int, default=None)
    ap.add_argument("--results", default=str(HERE / "results"))
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be >= 0")

    root = Path.cwd()
    if not (root / "src" / "squimld" / "__init__.py").is_file():
        print(f"error: no squimld source under {root / 'src'}; run from a checkout root",
              file=sys.stderr)
        return 2
    # metric names, units and directions are defined once, in BENCHMARK.json
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())

    workers = 1 if args.trace else args.workers
    run = Run(root, args, workers)
    work = HERE / "_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    checker = checks.Checker(args.seed)
    setup, rounds = [], []
    try:
        for _ in range(SETUP_PROBES):
            setup.append(run.probe())
        measure_start = time.monotonic()
        while True:
            round_dir = work / f"round{len(rounds)}"
            t_round = time.monotonic()
            r = run.round(round_dir)
            setup.append(r["ready_s"])
            r["verdicts"] = checker.check(r["ops"])
            shutil.rmtree(round_dir, ignore_errors=True)
            rounds.append(r)
            elapsed = time.monotonic() - measure_start
            if elapsed >= args.seconds or run.remaining() < 1.5 * (time.monotonic() - t_round):
                break
    except WorkerDied as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()  # only when no other run is using it

    planned = [op.name for op in W.operations(args.workload, args.seed)]
    failures = []  # (round, op, failed checks)
    for i, r in enumerate(rounds):
        for name in planned:
            verdict = r["verdicts"].get(name) or [("ran", "fail", "no result from the worker")]
            bad = [c for c in verdict if c[1] != "ok"]
            if name not in r["ops"] or bad:
                failures.append((i, name, bad))
    attempted = len(planned) * len(rounds)
    # only the documented fault of the program may fail; see checks.KNOWN_FAULT
    correct = all(c[1] == "known" for _i, _name, bad in failures for c in bad)

    stage = {op.name: op.stage for op in W.operations(args.workload, args.seed)}

    def stage_sum(r, s):
        return sum(o["seconds"] for n, o in r["ops"].items() if stage[n] == s)

    def wall(r):
        return stage_sum(r, 1) + stage_sum(r, 2)

    reference = _median([x for r in rounds for x in r["refs"]])
    e2e = {
        # set-up samples precede the rounds; the run's median reference stands for the host then
        "setup_s": _median(setup) / reference * REFERENCE_NOMINAL_S,
        # each round over the mean of the references timed before, between and after its stages
        "wall_s": _median([wall(r) / statistics.fmean(r["refs"]) for r in rounds]) * REFERENCE_NOMINAL_S,
        "peak_rss_mb": _median([r["peak_rss_mb"] or 0.0 for r in rounds]),
    }
    # Raw, stage and per-operation times: printed and stored, not gated (see README)
    stages = [_median([stage_sum(r, s) for r in rounds]) for s in (1, 2)]
    named = {"setup_raw_s": (_median(setup), "s", "lower"),
             "wall_raw_s": (_median([wall(r) for r in rounds]), "s", "lower"),
             "reference_s": (reference, "s", "lower"),
             "stage1_s": (stages[0], "s", "lower"), "stage2_s": (stages[1], "s", "lower")}
    named.update({
        "transition": {"beta_c_s": (stages[0], "s", "lower"),
                       "rare_event_replicas_per_s": (W.RARE_REPLICAS / stages[1], "replicas/s", "higher")},
        "dual_plane": {"domain_scan_s": (stages[0], "s", "lower"),
                       "rate_curve_s": (stages[1], "s", "lower")},
        "ensembles": {"ensemble_s": (stages[0], "s", "lower")},
    }[args.workload])
    named = {n: {"value": v, "unit": u, "better": b} for n, (v, u, b) in named.items()}
    layers = None
    if args.trace:
        budget = sum(op.samples for op in W.operations(args.workload, args.seed)
                     if op.name.startswith("ensemble_"))
        per_round = [tracing.layer_metrics(r["trace"]["spans"], r["trace"]["counts"], budget)
                     for r in rounds]
        layers = {m["name"]: _median([pr[m["name"]] for pr in per_round]) for m in spec["per_layer"]}

    # readable summary
    s1, s2 = W.STAGES[args.workload]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  rounds {len(rounds)}  "
          f"set-up samples {len(setup)}  stage1 = {s1}, stage2 = {s2}")
    for m in spec["end_to_end"]:
        print(f"  {m['name']:<28} {e2e[m['name']]:12.4f} {m['unit']}")
    for name, fig in named.items():
        print(f"  {name:<28} {fig['value']:12.4f} {fig['unit']}")
    if layers is not None:
        for m in spec["per_layer"]:
            print(f"  {m['name']:<36} {layers[m['name']]:16.6g} {m['unit']}")
        missing = rounds[0]["trace"]["missing"]
        if missing:
            print(f"  tracer could not hook: {', '.join(missing)}")
    for name, verdict in rounds[0]["verdicts"].items():
        for check, status, detail in verdict:
            print(f"  [{status.upper():<5}] {name}: {check}: {detail}")
    for i, name, bad in failures:
        if i > 0:
            for check, status, detail in bad:
                print(f"  [{status.upper():<5}] round {i} {name}: {check}: {detail}")
    print(f"  attempted {attempted}  failed {len(failures)}  correct {str(correct).lower()}")

    results = Path(args.results)
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.workers is not None:
        stem += f"-workers{args.workers}"
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "workers": workers, "rounds": len(rounds),
        "setup_samples": setup, "end_to_end": e2e, "named": named, "per_layer": layers,
        "op_seconds": [{n: o["seconds"] for n, o in r["ops"].items()} for r in rounds],
        "reference_seconds": [r["refs"] for r in rounds],
        "attempted": attempted, "failed": len(failures), "correct": correct,
        "failures": [[i, n, [list(c) for c in b]] for i, n, b in failures],
        "checks": {n: [list(c) for c in v] for n, v in rounds[0]["verdicts"].items()},
        "environment": _environment(),
        "finished": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }
    (results / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if args.trace:
        spans = rounds[0]["trace"]["spans"]
        (results / f"{stem}-spans.json").write_text(json.dumps(
            {"fields": ["name", "start", "end", "parent", "attrs"], "spans": spans}) + "\n")

    values = layers if args.trace else e2e
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in spec["per_layer" if args.trace else "end_to_end"]}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": len(failures),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
