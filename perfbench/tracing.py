"""Spans and counts at squimld's layer boundaries, for the traced run.

The tracer replaces module attributes that callers look up at call time
(for example `squimld.ratecurves._pieces_arr` or `squimld.wfe.quad`) with
wrappers that record a span -- name, start, end, parent -- and, where a
hook is given, the amount of work the call did.  Spans stay in memory and
are handed back when the round ends.  `layer_metrics` turns one round's
spans into the per-layer metrics; BENCHMARK.json names those reported.

A target whose attribute no longer exists is skipped and reported, so a
refactor that renames a function shows up as a missing hook rather than
as an error.
"""

from __future__ import annotations

import inspect
import os
import sys
import time
from collections import Counter

import numpy as np

MODELS = ("SCWM", "SCWM_ENTROPY", "SCWM_WFE", "SQUIM_d1")
CLI_COMMANDS = ("wfe", "domain_scan", "rate_curves", "ensemble", "esm", "validate")


def _points(args):
    return int(np.broadcast(np.asarray(args["t1"]), np.asarray(args["t2"])).size)


def _hook_pieces(attrs, args, result):
    attrs["points"] = _points(args)


def _hook_draw(attrs, args, result):
    attrs["draws"] = int(args["n"])


def _hook_i2_shard(attrs, args, result):
    attrs["in_d"], attrs["in_g"] = int(result[0]), int(result[1])


def _hook_scan_shard(attrs, args, result):
    attrs["in_d"], attrs["in_g"] = int(result[2].sum()), int(result[3].sum())


def _hook_write_csv(attrs, args, result):
    attrs["rows"] = len(args["rows"])
    attrs["bytes"] = os.path.getsize(args["path"])


def _hook_rare(attrs, args, result):
    attrs["coords"] = int(result.replicas) * (int(args["n_sites"]) + 1)
    attrs["hit_ratio"] = result.hits / result.replicas


def _hook_map_shards(attrs, args, result):
    attrs["workers"] = int(args["workers"])


def _hook_thermal(attrs, args, result):
    cfg = args["cfg"]
    attrs["model"] = cfg.model
    attrs["sample_cells"] = cfg.samples * (2**cfg.N if cfg.model == "SQUIM_d1" else cfg.N + 1)
    attrs["ess_ratio"] = result.numerator_ess / result.n_samples


def _hook_shard_partials(attrs, args, result):
    attrs["drawn"] = int(args["payload"]["counts"][args["shard"]])


def _quad_counting(quad, counts):
    """scipy's quad, asking it for full output to count integrand evaluations.

    Counting through quad's own `neval` keeps the per-evaluation cost of a
    Python wrapper out of the traced run.
    """
    def quad_counted(*args, **kwargs):
        if kwargs.get("full_output"):
            return quad(*args, **kwargs)
        out = quad(*args, full_output=1, **kwargs)
        counts["wfe.integrand_evals"] += out[2]["neval"]
        return out[0], out[1]

    return quad_counted


def _golden_counting(golden, counts):
    """golden_section_min, counting every evaluation of its objective."""
    def golden_counted(f, *args, **kwargs):
        def counted(x):
            counts["minimize.golden_evals"] += 1
            return f(x)

        return golden(counted, *args, **kwargs)

    return golden_counted


# span name, home module, attribute, hook on the result, counting adapter,
# and the one module to patch (None: every squimld module holding the function)
TARGETS = [
    ("gecore.pieces", "squimld.gecore", "_pieces_arr", _hook_pieces, None, None),
    ("gecore.domain_tests", "squimld.gecore", "domain_tests_arr", _hook_pieces, None, None),
    ("gecore.solve_Q", "squimld.gecore", "solve_Q_detail", None, None, None),
    ("ratecurves.domain_scan", "squimld.ratecurves", "domain_scan", None, None, None),
    ("ratecurves.compute_I2", "squimld.ratecurves", "compute_I2", None, None, None),
    ("ratecurves.compute_I1", "squimld.ratecurves", "compute_I1", None, None, None),
    ("ratecurves.polish", "squimld.ratecurves", "_polish_minimum", None, None, None),
    ("ratecurves.k_if_feasible", "squimld.ratecurves", "_k_if_feasible", None, None, None),
    ("ratecurves.draw_batch", "squimld.ratecurves", "_draw_batch", _hook_draw, None, None),
    ("ratecurves.i2_shard", "squimld.ratecurves", "_i2_shard", _hook_i2_shard, None, None),
    ("ratecurves.scan_shard", "squimld.ratecurves", "_scan_shard", _hook_scan_shard, None, None),
    ("report.write_csv", "squimld.report", "write_csv", _hook_write_csv, None, None),
    *[(f"cli.{c}", "squimld.cli", f"cmd_{c}", None, None, None) for c in CLI_COMMANDS],
    ("wfe.beta_critical", "squimld.wfe", "beta_critical", None, None, None),
    ("wfe.p_theta", "squimld.wfe", "p_theta", None, None, None),
    ("wfe.quad", "squimld.wfe", "quad", None, _quad_counting, "squimld.wfe"),
    ("minimize.golden", "squimld.minimize", "golden_section_min", None, _golden_counting, None),
    ("wfe.solve_tilt", "squimld.wfe", "solve_tilt", None, None, None),
    ("wfe.rare_event", "squimld.wfe", "rare_event_rate_mc", _hook_rare, None, None),
    ("parallel.map_shards", "squimld.parallel", "map_shards", _hook_map_shards, None, None),
    ("mc.thermal_average", "squimld.mc", "thermal_average", _hook_thermal, None, None),
    ("mc.shard_partials", "squimld.mc", "_shard_partials", _hook_shard_partials, None, None),
    ("mc.esm", "squimld.mc", "esm_evaluate", None, None, None),
    ("ensembles.chain_tables", "squimld.ensembles", "chain_tables", None, None, None),
    ("validate.run", "squimld.validate", "run_validation", None, None, None),
]


class Tracer:
    """Wraps squimld functions in place and records spans and counts."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, attrs]
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.missing: list[str] = []

    def _wrap(self, fn, name, hook):
        sig = inspect.signature(fn) if hook else None
        spans, stack = self.spans, self.stack

        def wrapper(*args, **kwargs):
            rec = [name, time.perf_counter(), 0.0, stack[-1] if stack else -1, {}]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                stack.pop()
            if hook is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                hook(rec[4], bound.arguments, result)
            return result

        return wrapper

    def install(self) -> None:
        """Patch every target; call once, after squimld is imported."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "squimld" or n.startswith("squimld."))]
        for name, home, attr, hook, adapter, only in TARGETS:
            fn = getattr(sys.modules.get(home), attr, None)
            if fn is None:
                self.missing.append(f"{home}.{attr}")
                continue
            traced = self._wrap(adapter(fn, self.counts) if adapter else fn, name, hook)
            for mod in modules:
                if only is not None and mod.__name__ != only:
                    continue
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, key, traced)


def layer_metrics(spans: list, counts: dict, ensemble_budget: int) -> dict[str, float]:
    """Per-layer metrics of one round from its spans and counts.

    ensemble_budget is the summed --samples of the round's ensemble calls,
    the base of mc.sampling_passes.  A layer the round never entered reads 0.
    """
    def total(name, key=None):
        return sum((s[4].get(key, 0) if key else s[2] - s[1]) for s in spans if s[0] == name)

    child_time = [0.0] * len(spans)
    for s in spans:
        if s[3] >= 0:
            child_time[s[3]] += s[2] - s[1]

    out = {
        "gecore.pieces_s": total("gecore.pieces"),
        "gecore.pieces_points": total("gecore.pieces", "points"),
        "gecore.domain_tests_s": total("gecore.domain_tests"),
        "gecore.domain_tests_points": total("gecore.domain_tests", "points"),
        "gecore.solve_Q_s": total("gecore.solve_Q"),
        "ratecurves.domain_scan_s": total("ratecurves.domain_scan"),
        "ratecurves.compute_I2_s": total("ratecurves.compute_I2"),
        "ratecurves.compute_I1_s": total("ratecurves.compute_I1"),
        "ratecurves.polish_s": total("ratecurves.polish"),
        "ratecurves.polish_k_evals": sum(1 for s in spans if s[0] == "ratecurves.k_if_feasible"),
        "ratecurves.draws": total("ratecurves.draw_batch", "draws"),
        "report.write_csv_s": total("report.write_csv"),
        "report.csv_rows": total("report.write_csv", "rows"),
        "report.csv_bytes": total("report.write_csv", "bytes"),
        "cli.self_s": sum(s[2] - s[1] - child_time[i] for i, s in enumerate(spans)
                          if s[0].startswith("cli.")),
        "wfe.beta_critical_s": total("wfe.beta_critical"),
        "wfe.p_theta_calls": sum(1 for s in spans if s[0] == "wfe.p_theta"),
        "wfe.integrand_evals": counts.get("wfe.integrand_evals", 0),
        "minimize.golden_evals": counts.get("minimize.golden_evals", 0),
        "wfe.solve_tilt_s": total("wfe.solve_tilt"),
        "wfe.rare_event_s": total("wfe.rare_event"),
        "parallel.map_shards_s": total("parallel.map_shards"),
        "parallel.map_shards_calls": sum(1 for s in spans if s[0] == "parallel.map_shards"),
        "parallel.workers": max((s[4]["workers"] for s in spans if s[0] == "parallel.map_shards"),
                                default=0),
        "mc.esm_s": total("mc.esm"),
        "ensembles.chain_tables_s": total("ensembles.chain_tables"),
        "validate.run_s": total("validate.run"),
    }
    for c in CLI_COMMANDS:
        out[f"cli.{c}_s"] = total(f"cli.{c}")

    shard_spans = [s for s in spans if s[0] in ("ratecurves.i2_shard", "ratecurves.scan_shard")]
    in_d = sum(s[4]["in_d"] for s in shard_spans)
    in_g = sum(s[4]["in_g"] for s in shard_spans)
    out["ratecurves.D_accept_ratio"] = in_d / out["ratecurves.draws"] if out["ratecurves.draws"] else 0.0
    out["ratecurves.G_accept_ratio"] = in_g / in_d if in_d else 0.0

    rare = [s for s in spans if s[0] == "wfe.rare_event"]
    coords = sum(s[4]["coords"] for s in rare)
    out["wfe.rare_event_ns_per_coord"] = 1e9 * out["wfe.rare_event_s"] / coords if coords else 0.0
    out["wfe.rare_event_hit_ratio"] = min((s[4]["hit_ratio"] for s in rare), default=0.0)

    def under_ensemble(i):
        while i >= 0:
            if spans[i][0] == "cli.ensemble":
                return True
            i = spans[i][3]
        return False

    # validate runs thermal averages too; the mc metrics cover the ensemble calls
    thermal = [s for i, s in enumerate(spans) if s[0] == "mc.thermal_average" and under_ensemble(i)]
    for m in MODELS:
        mine = [s for s in thermal if s[4]["model"] == m]
        secs = sum(s[2] - s[1] for s in mine)
        cells = sum(s[4]["sample_cells"] for s in mine)
        out[f"mc.thermal_average_s.{m}"] = secs
        out[f"mc.ns_per_sample_cell.{m}"] = 1e9 * secs / cells if cells else 0.0
        out[f"mc.numerator_ess_ratio.{m}"] = min((s[4]["ess_ratio"] for s in mine), default=0.0)
    drawn = sum(s[4]["drawn"] for i, s in enumerate(spans)
                if s[0] == "mc.shard_partials" and under_ensemble(i))
    out["mc.sampling_passes"] = drawn / ensemble_budget if ensemble_budget else 0.0
    return {name: float(value) for name, value in out.items()}
