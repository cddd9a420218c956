"""Command-line front end.

Subcommands wrap the library modules one-to-one: domain-scan and
rate-curves sample the dual plane, wfe evaluates the transition pipeline,
ensemble and esm run the thermal estimators and the enumerated product
model, and validate runs the oracle suite.  Every command ends in one
call, `_write_outputs`, that leaves its fixed-schema CSV, gnuplot script
and JSON run manifest in --out-dir (domain-scan streams its CSV first).

Option layering: an explicit flag wins, then an SQUIMLD_<NAME> environment
variable, then a key=value line in the file passed via --config, then the
built-in default.  Each option's type, default and range are declared once,
in build_parser, and main hands the environment and config strings to
argparse as the subcommand's defaults: every layer is parsed by the flag's
own type, and a bad value from any layer exits 2 naming the flag.
--samples and --workers must lie in [1, 2^63 - 1], --n in [2, 2^63 - 1],
and --seed in [0, 2^64 - 1] everywhere, and a list option (--x-list,
--observable) needs at least one entry.  Each sampler's shard count is a
constant of its module, so a sampled output depends on the command's
inputs and --seed, never on --workers.

Exit codes: 0 success, 2 usage error, 3 numerical failure surfaced by the
library (degenerate weights, an I2 dual solve that does not certify, a
root that is not there) or an array too large to allocate, 4
validation-suite failure.  Two outcomes are reported per row instead:
the empty-G marker point that compute_I2 returns when a rate-curves budget
misses G (NaN I2, accepted_G = 0; the manifest still records the dual's
theta_star, gap and Newton count when the dual certifies), and (omega,
eps, delta) outside the transition-bound hypotheses in wfe (NaN p_star_inf
and beta_c, hypotheses_ok = 0).  A failed command leaves no partial CSV.
A layered --level is not checked against the flag's choices by argparse;
run_validation refuses it.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import time
from pathlib import Path

import numpy as np

from .ensembles import chain_classes
from .errors import HypothesisViolation, InvalidParams, SquimldError
from .gecore import RateParams
from .mc import (
    MODELS,
    OBSERVABLES,
    SHARDS as MC_SHARDS,
    EnsembleConfig,
    esm_evaluate,
    thermal_averages,
)
from .parallel import available_cores, resolve_workers
from .ratecurves import SCAN_DTYPE, SHARDS as RATE_SHARDS, compute_I2, domain_scan_csv
from .report import (
    RunManifest,
    domain_plot_script,
    rate_plot_script,
    utc_now,
    write_blocks,
    write_csv,
    write_text,
)
from .validate import LEVELS, run_validation
from .wfe import WfeParams, beta_critical, r_of_omega

ENV_PREFIX = "SQUIMLD_"

X_GRID_DEFAULT = "0.1,0.2,0.3,0.4,0.5,0.6,0.7"

# Namespace entries that say where and how a command runs, not what it
# computes; every other option is recorded as a manifest param.*.
NOT_PARAMETERS = {"command", "func", "config", "out_dir", "seed", "workers"}


def _str_list(text: str) -> list[str]:
    """An argparse type: the comma-separated tokens of text, refused when there are none."""
    tokens = [tok.strip() for tok in text.split(",") if tok.strip() != ""]
    if not tokens:
        raise argparse.ArgumentTypeError(f"empty list {text!r}")
    return tokens


def _float_list(text: str) -> list[float]:
    return [float(tok) for tok in _str_list(text)]


_float_list.__name__ = "float list"  # argparse's "invalid float list value" for a bad entry


def _int_at_least(low: int, high: int | None = None):
    """An argparse type: an int >= low (and <= high, if given), refused with
    the value and the bound it breaks."""
    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"{value} is below the minimum {low}")
        if high is not None and value > high:
            raise argparse.ArgumentTypeError(f"{value} is above the maximum {high}")
        return value

    parse.__name__ = "int"  # argparse's "invalid int value" for a non-integer
    return parse


# numpy's largest count (int64); a larger count would fail in an allocation
COUNT_MAX = 2**63 - 1
_count = _int_at_least(1, COUNT_MAX)  # a sample or worker count
_spins = _int_at_least(2, COUNT_MAX)  # N, the spin count of ensemble and esm
_seed = _int_at_least(0, 2**64 - 1)  # one uint64 word, the entropy of every shard stream


def _read_config(command: argparse.ArgumentParser, path: str | None) -> dict:
    if path is None:
        return {}
    cfg = {}
    try:
        lines = Path(path).read_text().splitlines()
    except OSError as exc:
        command.error(f"argument --config: cannot read config file {path}: {exc}")
    for raw in lines:
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            command.error(f"argument --config: config line without '=': {raw!r}")
        key, value = line.split("=", 1)
        cfg[key.strip()] = value.strip()
    return cfg


def _layered_defaults(command: argparse.ArgumentParser, config: str | None) -> dict:
    """SQUIMLD_<NAME>, or else the --config entry <name>, of each option of
    `command` as a raw string; <name> is its first long flag without dashes."""
    entries = _read_config(command, config)
    layered = {}
    for action in command._actions:
        if action.dest in ("help", "config"):
            continue
        key = next(s for s in action.option_strings if s.startswith("--"))[2:]
        value = os.environ.get(ENV_PREFIX + key.upper().replace("-", "_"), entries.get(key))
        if value is not None:
            layered[action.dest] = value
    return layered


def _write_outputs(args, stem: str, started: str, table: np.ndarray | None = None, *,
                   streamed: bool = False, summary: str = "", plot=None, seed: int = 0,
                   workers: int = 1, timings: dict | None = None,
                   diagnostics: dict | None = None) -> None:
    """Write <stem>.csv from the record array table, timed as write_csv_s
    (streamed: the command wrote it itself and timed it), <stem>.gp from
    plot(csv name), where the command draws one, and <stem>_manifest.json
    into --out-dir, and announce the CSV as "wrote <path> (summary)".  seed
    and workers default to what the seedless, in-process commands use."""
    args.out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = args.out_dir / f"{stem}.csv"
    timings = dict(timings or {})
    if table is not None:
        clock = time.perf_counter()
        write_csv(csv_path, table)
        timings["write_csv_s"] = time.perf_counter() - clock
    outputs = [csv_path.name] if table is not None or streamed else []
    if plot is not None:
        write_text(args.out_dir / f"{stem}.gp", plot(csv_path.name))
        outputs.append(f"{stem}.gp")
    RunManifest(
        command=args.command, seed=seed, workers=workers, started=started, finished=utc_now(),
        # lists comma-joined, an unset option as ""
        parameters={k: "" if v is None else ",".join(map(str, v)) if isinstance(v, list) else v
                    for k, v in vars(args).items() if k not in NOT_PARAMETERS},
        output_files=outputs, timings=timings,
        diagnostics={"available_cores": available_cores(), **(diagnostics or {})},
    ).write(args.out_dir / f"{stem}_manifest.json")
    if outputs:
        print(f"wrote {csv_path} ({summary})")


def cmd_domain_scan(args) -> int:
    workers = resolve_workers(args.workers, RATE_SHARDS)
    started = utc_now()
    params = RateParams(x=args.x, eps=args.eps)
    shards = domain_scan_csv(params, args.samples, seed=args.seed, workers=workers)
    totals = dict.fromkeys(("d_points", "g_points", "scan_s", "format_s", "write_csv_s"), 0)

    def blocks():
        # each shard's text as it arrives; the time until the writer asks
        # for the next block is its file-write time
        for part in shards:
            for key in ("d_points", "g_points", "scan_s", "format_s"):
                totals[key] += getattr(part, key)
            clock = time.perf_counter()
            yield part.text, part.fallback_cells
            totals["write_csv_s"] += time.perf_counter() - clock

    fallback_cells = write_blocks(args.out_dir / "domain_scan.csv", SCAN_DTYPE.names, blocks())
    _write_outputs(
        args, "domain_scan", started, streamed=True,
        summary=f"{totals['d_points']} D-points, {totals['g_points']} G-points",
        plot=domain_plot_script, seed=args.seed, workers=workers,
        timings={key: totals[key] for key in ("scan_s", "format_s", "write_csv_s")},
        diagnostics={"csv_fallback_cells": fallback_cells, "d_points": totals["d_points"],
                     "g_points": totals["g_points"]},
    )
    return 0


def cmd_rate_curves(args) -> int:
    workers = resolve_workers(args.workers, RATE_SHARDS)
    started = utc_now()
    rows = []
    timings = {"sample_s": 0.0, "dual_s": 0.0}
    diagnostics = {}
    for x in args.x_list:
        pt = compute_I2(RateParams(x=x, eps=args.eps), args.samples, seed=args.seed,
                        workers=workers)
        rows.append((x, pt.I1, pt.I2, pt.accepted_G, pt.samples, args.seed))
        timings["sample_s"] += pt.sample_s
        timings["dual_s"] += pt.dual_s
        if pt.theta_at_min is not None:  # the dual certified
            diagnostics.update({f"theta_star.{x!r}": ",".join(map(repr, pt.theta_at_min)),
                                f"dual_gap.{x!r}": pt.dual_gap,
                                f"newton_iters.{x!r}": pt.newton_iters})
        if pt.accepted_G:  # the sampled check exists
            diagnostics.update({f"sampled_k_min.{x!r}": pt.sampled_k_min,
                                f"noise_band.{x!r}": pt.noise_band})
    table = np.array(rows, dtype=[("x", float), ("I1", float), ("I2", float),
                                  ("accepted_G", int), ("samples", int), ("seed", np.uint64)])
    flagged = int(np.isnan(table["I2"]).sum())
    _write_outputs(args, "rate_curve", started, table,
                   summary=f"{len(table)} rows, {flagged} with empty constraint set",
                   plot=rate_plot_script, seed=args.seed, workers=workers, timings=timings,
                   diagnostics=diagnostics)
    return 0


def cmd_wfe(args) -> int:
    omega, eps, delta = args.omega, args.eps, args.delta
    started = utc_now()
    r = r_of_omega(omega)
    diagnostics = {}
    clock = time.perf_counter()
    try:
        p = WfeParams(omega=omega, eps=eps, delta=delta)
    except HypothesisViolation:
        d = eps if delta is None else delta
        row = (omega, eps, r, d, math.nan, math.nan, math.nan, 0)
    else:
        res, beta_c = beta_critical(p)
        row = (omega, eps, r, p.delta, res.p_star_inf, res.y_at_inf, beta_c, 1)
        diagnostics = {"theta_at_min": res.theta_at_min, "theta_lo": res.theta_range[0],
                       "theta_hi": res.theta_range[1], "root_evals": res.root_evals}
    table = np.array([row], dtype=[
        ("omega", float), ("eps", float), ("r", float), ("delta", float), ("p_star_inf", float),
        ("y_at_inf", float), ("beta_c", float), ("hypotheses_ok", int)])
    _write_outputs(args, "wfe_transition", started, table, summary=f"hypotheses_ok={row[-1]}",
                   timings={"beta_critical_s": time.perf_counter() - clock},
                   diagnostics=diagnostics)
    return 0


def cmd_ensemble(args) -> int:
    workers = resolve_workers(args.workers, MC_SHARDS)
    started = utc_now()
    cfg = EnsembleConfig(
        N=args.N, beta=args.beta, model=args.model, samples=args.samples,
        omega=args.omega, eps=args.eps, seed=args.seed, workers=workers,
    )
    clock = time.perf_counter()
    estimates = thermal_averages(cfg, args.observable)
    sample_s = time.perf_counter() - clock
    omega = math.nan if args.omega is None else args.omega
    rows = [(args.model, args.N, args.beta, omega, args.eps, obs, est.mean, est.std_error,
             est.n_samples, args.seed) for obs, est in zip(args.observable, estimates)]
    table = np.array(rows, dtype=[
        ("model", object), ("N", int), ("beta", float), ("omega", float), ("eps", float),
        ("observable", object), ("mean", float), ("std_error", float), ("n_samples", int),
        ("seed", np.uint64)])
    diagnostics = {"weight_ess": estimates[0].weight_ess}
    if args.model == "SQUIM_d1":
        diagnostics["classes"] = chain_classes(args.N)[0].size
    for obs, est in zip(args.observable, estimates):
        diagnostics[f"numerator_ess.{obs}"] = est.numerator_ess
    _write_outputs(args, "ensemble", started, table, summary=f"{len(rows)} rows",
                   seed=args.seed, workers=workers, timings={"sample_s": sample_s},
                   diagnostics=diagnostics)
    return 0


def cmd_esm(args) -> int:
    started = utc_now()
    clock = time.perf_counter()
    res = esm_evaluate(args.N, args.beta)
    evaluate_s = time.perf_counter() - clock
    table = np.array([(res.N, res.beta, res.logZhat, res.msq_dispersion)], dtype=[
        ("N", int), ("beta", float), ("logZhat", float), ("msq_dispersion", float)])
    _write_outputs(args, "esm", started, table, summary=f"logZhat={res.logZhat:.12g}",
                   timings={"evaluate_s": evaluate_s})
    return 0


def cmd_validate(args) -> int:
    # the suite's one Monte Carlo check runs the ensemble's shards
    workers = resolve_workers(args.workers, MC_SHARDS)
    started = utc_now()
    results = run_validation(args.level, workers)
    for r in results:
        print(f"{'PASS' if r.ok else 'FAIL'} {r.name}: {r.detail}")
    _write_outputs(args, "validate", started, workers=workers,
                   timings={f"{r.name}_s": r.seconds for r in results},
                   diagnostics={f"check.{r.name}.{key}": value for r in results
                                for key, value in (("ok", r.ok), ("detail", r.detail))})
    return 0 if all(r.ok for r in results) else 4


def build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The parser and its subcommand parsers by name."""
    parser = argparse.ArgumentParser(
        prog="squimld",
        description="Rate functionals, constraint geometry, and "
        "critical-temperature bounds for spherical-ensemble spin models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", default=None, help="key=value config file")
        p.add_argument("--out-dir", dest="out_dir", type=Path, default=".")
        p.add_argument("--seed", type=_seed, default=0)
        p.add_argument("--workers", type=_count, default=None)

    p = sub.add_parser("domain-scan", help="sample the dual plane for D and G")
    common(p)
    p.add_argument("--x", type=float, default=0.7)
    p.add_argument("--eps", type=float, default=0.3)
    p.add_argument("--samples", type=_count, default=1_000_000)
    p.set_defaults(func=cmd_domain_scan)

    p = sub.add_parser("rate-curves", help="I1 and I2 over a grid of x")
    common(p)
    p.add_argument("--x-list", dest="x_list", type=_float_list, default=X_GRID_DEFAULT)
    p.add_argument("--eps", type=float, default=0.1)
    p.add_argument("--samples", type=_count, default=1_000_000, help="samples per grid point")
    p.set_defaults(func=cmd_rate_curves)

    p = sub.add_parser("wfe", help="transition pipeline: p*, beta_c")
    common(p)
    p.add_argument("--omega", type=float, default=1.2)
    p.add_argument("--eps", type=float, default=0.1)
    p.add_argument("--delta", type=float, default=None)
    p.set_defaults(func=cmd_wfe)

    p = sub.add_parser("ensemble", help="thermal-average Monte Carlo")
    common(p)
    p.add_argument("--model", choices=MODELS, default="SCWM")
    p.add_argument("--n", "--N", dest="N", type=_spins, default=8)
    p.add_argument("--beta", type=float, default=0.0)
    p.add_argument("--omega", type=float, default=None)
    p.add_argument("--eps", type=float, default=0.0)
    p.add_argument("--observable", type=_str_list, default=["msq"],
                   help=f"comma-separated tags from {OBSERVABLES}")
    p.add_argument("--samples", type=_count, default=100_000)
    p.set_defaults(func=cmd_ensemble)

    p = sub.add_parser("esm", help="enumerated product-form model")
    common(p)
    p.add_argument("--n", "--N", dest="N", type=_spins, default=2)
    p.add_argument("--beta", type=float, default=1.0)
    p.set_defaults(func=cmd_esm)

    p = sub.add_parser("validate", help="run the self-validation suite")
    common(p)
    p.add_argument("--level", choices=LEVELS, default="fast")
    p.set_defaults(func=cmd_validate)

    return parser, sub.choices


def main(argv=None) -> int:
    # built per call, so layered defaults never outlive it
    parser, commands = build_parser()
    try:
        args = parser.parse_args(argv)
        command = commands[args.command]
        command.set_defaults(**_layered_defaults(command, args.config))
        # a string default is parsed by the flag's type only when the flag is absent
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        return args.func(args)
    except InvalidParams as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SquimldError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        print(f"out of memory: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
