#!/usr/bin/env python3
"""Compare two sets of benchmark result files, metric by metric.

    python3 perfbench/compare.py BASE_DIR NEW_DIR

Each directory holds the JSON files perfbench/run.py writes (one per run;
--results chooses the directory).  For every workload and metric the two
sides' medians and quartiles are printed with a verdict:

  better      the new side wins at least 9 in 10 pairs of runs and its median
              moved by more than the base side's quartile spread;
  worse       the same in the other direction, or the new median is worse
              than the base median by more than the metric's bound;
  unresolved  a side's quartile spread exceeds the bound (or, for per-layer
              metrics, which have no bound, the medians differ without a
              clear winner), or a side has no runs;
  unchanged   otherwise;
  invalid     the new side has a run with correct = false, or a larger share
              of failed operations than the base side: no gain counts then.

Runs are paired by seed where both sides have the seed, else every base run
is paired with every new run.  Bounds and directions come from BENCHMARK.json;
the stage and per-operation figures that run.py stores beside the gated
metrics (stage1_s, beta_c_s, rate_curve_s, ...) carry their own direction
in the result file and are compared without a bound.  Each workload's
attempted and failed operations, and the runs with correct = false, are
printed for both sides.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _load(directory: Path) -> tuple[dict, dict, dict]:
    """From every result file in directory: (workload, metric) -> {seed: value},
    the stored figures' directions, and workload -> [attempted, failed, runs
    with correct = false]."""
    values: dict = {}
    better: dict = {}
    ops: dict = {}
    for path in sorted(directory.glob("*.json")):
        rec = json.loads(path.read_text())
        if "workload" not in rec or (rec["workers"] is not None and not rec["trace"]):
            continue  # spans files, and reference runs with an explicit worker count
        metrics = rec["per_layer"] if rec["trace"] else dict(rec["end_to_end"])
        if not rec["trace"]:
            for name, fig in rec["named"].items():
                metrics[name] = fig["value"]
                better[name] = fig["better"]
        for name, value in metrics.items():
            values.setdefault((rec["workload"], name), {})[rec["seed"]] = value
        tally = ops.setdefault(rec["workload"], [0, 0, 0])
        tally[0] += rec["attempted"]
        tally[1] += rec["failed"]
        tally[2] += int(not rec["correct"])
    return values, better, ops


def _failed_share(tally) -> float:
    return tally[1] / tally[0] if tally and tally[0] else 0.0


def _spread(vals: list[float]) -> float:
    if len(vals) < 2:
        return 0.0
    med = statistics.median(vals)
    if len(vals) < 4:
        return (max(vals) - min(vals)) / med if med else 0.0
    q1, _q2, q3 = statistics.quantiles(vals, n=4)
    return (q3 - q1) / med if med else 0.0


def verdict(base: dict, new: dict, better: str, bound: float | None) -> tuple[str, float]:
    """(verdict, relative change of the median, positive = worse)."""
    if not base or not new:
        return "unresolved", float("nan")
    a, b = list(base.values()), list(new.values())
    ma, mb = statistics.median(a), statistics.median(b)
    sign = 1.0 if better == "lower" else -1.0
    change = sign * (mb - ma) / abs(ma) if ma else (0.0 if mb == ma else sign * float("inf"))
    shared = sorted(set(base) & set(new))
    pairs = [(base[s], new[s]) for s in shared] or [(x, y) for x in a for y in b]
    wins = sum(1 for x, y in pairs if sign * (y - x) < 0) / len(pairs)
    losses = sum(1 for x, y in pairs if sign * (y - x) > 0) / len(pairs)
    spread_a = _spread(a)
    if wins >= 0.9 and -change > spread_a:
        return "better", change
    if losses >= 0.9 and change > spread_a:
        return "worse", change
    if bound is None:
        return ("unchanged" if ma == mb else "unresolved"), change
    if max(spread_a, _spread(b)) > bound:
        return "unresolved", change
    return ("worse" if change > bound else "unchanged"), change


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("base", type=Path)
    ap.add_argument("new", type=Path)
    ap.add_argument("--benchmark", type=Path, default=ROOT / "BENCHMARK.json")
    args = ap.parse_args()
    spec = json.loads(args.benchmark.read_text())
    metrics = [(m["name"], m["better"], m.get("bound")) for m in spec["end_to_end"] + spec["per_layer"]]
    base, base_better, base_ops = _load(args.base)
    new, new_better, new_ops = _load(args.new)
    metrics += [(name, better, None) for name, better in {**base_better, **new_better}.items()]
    workloads = [w["name"] for w in spec["workloads"]]
    for workload in workloads:
        a, b = base_ops.get(workload), new_ops.get(workload)
        if a or b:
            print(f"{workload:<12} operations: base attempted/failed/incorrect runs "
                  f"{a or '-'}, new {b or '-'}")
    print(f"{'workload':<12} {'metric':<36} {'base median':>13} {'new median':>13} {'change':>8}  verdict")
    counts: dict = {}
    for workload in workloads:
        tally = new_ops.get(workload)
        invalid = bool(tally) and (tally[2] > 0 or _failed_share(tally) > _failed_share(base_ops.get(workload)))
        for name, better, bound in metrics:
            a, b = base.get((workload, name), {}), new.get((workload, name), {})
            if not a and not b:
                continue
            v, change = verdict(a, b, better, bound)
            if invalid:
                v = "invalid"
            counts[v] = counts.get(v, 0) + 1
            ma = statistics.median(a.values()) if a else float("nan")
            mb = statistics.median(b.values()) if b else float("nan")
            print(f"{workload:<12} {name:<36} {ma:13.6g} {mb:13.6g} {100 * change:+7.1f}%  {v}"
                  f"  (n={len(a)}/{len(b)})")
    print("  ".join(f"{k}: {n}" for k, n in sorted(counts.items())))
    return 0


if __name__ == "__main__":
    sys.exit(main())
