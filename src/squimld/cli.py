"""Command-line front end.

Subcommands wrap the library modules one-to-one: domain-scan and
rate-curves sample the dual plane, wfe evaluates the transition pipeline,
ensemble and esm run the thermal estimators and the enumerated product
model, and validate runs the oracle suite.  Each command writes
fixed-schema CSV output plus a JSON run manifest (and, for the two figure
commands, a gnuplot script) into --out-dir.

Option layering: an explicit flag wins, then an SQUIMLD_<NAME> environment
variable, then a key=value line in the file passed via --config, then the
built-in default.  Each option's type, default and range are declared once,
in build_parser, and main hands the environment and config strings to
argparse as the subcommand's defaults: every layer is parsed by the flag's
own type, and a bad value from any layer exits 2 naming the flag.
--samples, --shards and --workers must be >= 1 (rate-curves' --samples
>= 10^4) and --seed in [0, 2^64 - 1] everywhere.

Exit codes: 0 success, 2 usage error, 3 numerical failure surfaced by the
library (degenerate weights, boundary evaluations, an I2 dual solve that
does not certify), 4 validation-suite failure.  Two outcomes are reported
per row instead: an empty constraint set in rate-curves (NaN I2,
accepted_G = 0), and (omega, eps, delta) outside the transition-bound
hypotheses in wfe (NaN p_star_inf and beta_c, hypotheses_ok = 0).
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import time
from pathlib import Path

import numpy as np

from .errors import HypothesisViolation, InvalidParams, NoConstraintPoints, SquimldError
from .gecore import RateParams
from .mc import (
    MODELS,
    OBSERVABLES,
    SHARDS_DEFAULT as MC_SHARDS_DEFAULT,
    EnsembleConfig,
    esm_evaluate,
    thermal_averages,
)
from .parallel import available_cores, resolve_workers
from .ratecurves import (
    ETA_DEFAULT,
    I2_MIN_SAMPLES,
    SHARDS_DEFAULT,
    compute_I1,
    compute_I2,
    domain_scan,
)
from .report import (
    RunManifest,
    domain_plot_script,
    rate_plot_script,
    utc_now,
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
    return [tok.strip() for tok in text.split(",") if tok.strip() != ""]


def _float_list(text: str) -> list[float]:
    try:
        return [float(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad float list {text!r}") from exc


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


_count = _int_at_least(1)  # a sample, shard or worker count
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


def _manifest(args, stem: str, outputs: list[str], started: str, *, seed: int = 0,
              workers: int = 1, timings: dict | None = None,
              diagnostics: dict | None = None) -> None:
    """Write <stem>_manifest.json; seed and workers default to what the
    seedless, in-process commands use."""
    man = RunManifest(
        command=args.command,
        # lists comma-joined, an unset option as ""
        parameters={k: "" if v is None else ",".join(map(str, v)) if isinstance(v, list) else v
                    for k, v in vars(args).items() if k not in NOT_PARAMETERS},
        seed=seed,
        workers=workers,
        started=started,
        finished=utc_now(),
        output_files=outputs,
        timings=timings or {},
        diagnostics={"available_cores": available_cores(), **(diagnostics or {})},
    )
    man.write(args.out_dir / f"{stem}_manifest.json")


def cmd_domain_scan(args) -> int:
    workers = resolve_workers(args.workers, args.shards)
    started = utc_now()
    params = RateParams(x=args.x, eps=args.eps)
    clock_start = time.perf_counter()
    theta1, theta2, in_d, in_g, k = domain_scan(
        params, args.samples, tuple(args.eta), seed=args.seed, shards=args.shards, workers=workers
    )
    clock_scanned = time.perf_counter()
    args.out_dir.mkdir(parents=True, exist_ok=True)
    rows = np.rec.fromarrays([theta1, theta2, in_d, in_g, k], dtype=[
        ("theta1", float), ("theta2", float), ("in_D", bool), ("in_G", bool), ("k", float)])
    csv_path = args.out_dir / "domain_scan.csv"
    fallback_cells = write_csv(csv_path, rows, workers)
    clock_written = time.perf_counter()
    gp_path = args.out_dir / "domain_scan.gp"
    write_text(gp_path, domain_plot_script("domain_scan.csv"))
    _manifest(
        args, "domain_scan", [csv_path.name, gp_path.name], started,
        seed=args.seed, workers=workers,
        timings={"scan_s": clock_scanned - clock_start,
                 "write_csv_s": clock_written - clock_scanned},
        diagnostics={"csv_fallback_cells": fallback_cells},
    )
    print(f"wrote {csv_path} ({int(in_d.sum())} D-points, {int(in_g.sum())} G-points)")
    return 0


def cmd_rate_curves(args) -> int:
    workers = resolve_workers(args.workers, args.shards)
    if not args.x_list:
        print("error: empty x list", file=sys.stderr)
        return 2
    started = utc_now()
    rows = []
    timings = {"sample_s": 0.0, "dual_s": 0.0}
    diagnostics = {}
    for x in args.x_list:
        params = RateParams(x=x, eps=args.eps)
        try:
            pt = compute_I2(
                params, args.samples, tuple(args.eta), seed=args.seed, shards=args.shards,
                workers=workers,
            )
        except NoConstraintPoints:
            # flagged row: empty constraint set at this budget
            rows.append((x, compute_I1(params), math.nan, 0, args.samples, args.seed))
            continue
        rows.append((x, pt.I1, pt.I2, pt.accepted_G, args.samples, args.seed))
        timings["sample_s"] += pt.sample_s
        timings["dual_s"] += pt.dual_s
        diagnostics.update({
            f"theta_star.{x!r}": f"{pt.theta_at_min[0]!r},{pt.theta_at_min[1]!r}",
            f"dual_gap.{x!r}": pt.dual_gap,
            f"newton_iters.{x!r}": pt.newton_iters,
            f"sampled_k_min.{x!r}": pt.sampled_k_min,
            f"noise_band.{x!r}": pt.noise_band,
        })
    args.out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = args.out_dir / "rate_curve.csv"
    table = np.array(rows, dtype=[("x", float), ("I1", float), ("I2", float),
                                  ("accepted_G", int), ("samples", int), ("seed", np.uint64)])
    write_csv(csv_path, table)
    gp_path = args.out_dir / "rate_curve.gp"
    write_text(gp_path, rate_plot_script("rate_curve.csv"))
    _manifest(
        args, "rate_curve", [csv_path.name, gp_path.name], started,
        seed=args.seed, workers=workers, timings=timings, diagnostics=diagnostics,
    )
    flagged = int(np.isnan(table["I2"]).sum())
    print(f"wrote {csv_path} ({len(table)} rows, {flagged} with empty constraint set)")
    return 0


def cmd_wfe(args) -> int:
    omega, eps, delta = args.omega, args.eps, args.delta
    started = utc_now()
    r = r_of_omega(omega)
    diagnostics = {}
    try:
        p = WfeParams(omega=omega, eps=eps, delta=delta)
    except HypothesisViolation:
        d = eps if delta is None else delta
        row = (omega, eps, r, d, math.nan, math.nan, math.nan, 0)
    else:
        res, beta_c = beta_critical(p)
        row = (omega, eps, r, p.delta, res.p_star_inf, res.y_at_inf, beta_c, 1)
        diagnostics = {"theta_at_min": res.theta_at_min, "theta_lo": res.theta_range[0],
                       "theta_hi": res.theta_range[1]}
    args.out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = args.out_dir / "wfe_transition.csv"
    write_csv(csv_path, np.array([row], dtype=[
        ("omega", float), ("eps", float), ("r", float), ("delta", float), ("p_star_inf", float),
        ("y_at_inf", float), ("beta_c", float), ("hypotheses_ok", int)]))
    _manifest(args, "wfe_transition", [csv_path.name], started, diagnostics=diagnostics)
    print(f"wrote {csv_path} (hypotheses_ok={row[-1]})")
    return 0


def cmd_ensemble(args) -> int:
    workers = resolve_workers(args.workers, args.shards)
    started = utc_now()
    cfg = EnsembleConfig(
        N=args.N, beta=args.beta, model=args.model, samples=args.samples,
        omega=args.omega, eps=args.eps, seed=args.seed, workers=workers,
        shards=args.shards,
    )
    clock_start = time.perf_counter()
    estimates = thermal_averages(cfg, args.observable)
    clock_sampled = time.perf_counter()
    omega = math.nan if args.omega is None else args.omega
    rows = [(args.model, args.N, args.beta, omega, args.eps, obs, est.mean, est.std_error,
             est.n_samples, args.seed) for obs, est in zip(args.observable, estimates)]
    args.out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = args.out_dir / "ensemble.csv"
    write_csv(csv_path, np.array(rows, dtype=[
        ("model", object), ("N", int), ("beta", float), ("omega", float), ("eps", float),
        ("observable", object), ("mean", float), ("std_error", float), ("n_samples", int),
        ("seed", np.uint64)]))
    clock_written = time.perf_counter()
    diagnostics = {"weight_ess": estimates[0].weight_ess} if estimates else {}
    for obs, est in zip(args.observable, estimates):
        diagnostics[f"numerator_ess.{obs}"] = est.numerator_ess
    _manifest(
        args, "ensemble", [csv_path.name], started, seed=args.seed, workers=workers,
        timings={"sample_s": clock_sampled - clock_start,
                 "write_csv_s": clock_written - clock_sampled},
        diagnostics=diagnostics,
    )
    print(f"wrote {csv_path} ({len(rows)} rows)")
    return 0


def cmd_esm(args) -> int:
    started = utc_now()
    res = esm_evaluate(args.N, args.beta)
    args.out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = args.out_dir / "esm.csv"
    write_csv(csv_path, np.array([(res.N, res.beta, res.logZhat, res.msq_dispersion)], dtype=[
        ("N", int), ("beta", float), ("logZhat", float), ("msq_dispersion", float)]))
    _manifest(args, "esm", [csv_path.name], started)
    print(f"wrote {csv_path} (logZhat={res.logZhat:.12g})")
    return 0


def cmd_validate(args) -> int:
    # the suite's one Monte Carlo check runs the ensemble default of shards
    workers = resolve_workers(args.workers, MC_SHARDS_DEFAULT)
    if args.level not in LEVELS:
        # a layered level is a default, which argparse does not check against choices
        print(f"error: level must be one of {LEVELS}", file=sys.stderr)
        return 2
    started = utc_now()
    results = run_validation(args.level, workers)
    for r in results:
        print(f"{'PASS' if r.ok else 'FAIL'} {r.name}: {r.detail}")
    args.out_dir.mkdir(parents=True, exist_ok=True)
    _manifest(args, "validate", [], started, workers=workers)
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
    p.add_argument("--eta", type=_float_list, default=list(ETA_DEFAULT),
                   help="comma-separated bias strengths")
    p.add_argument("--shards", type=_count, default=SHARDS_DEFAULT)
    p.set_defaults(func=cmd_domain_scan)

    p = sub.add_parser("rate-curves", help="I1 and I2 over a grid of x")
    common(p)
    p.add_argument("--x-list", dest="x_list", type=_float_list, default=X_GRID_DEFAULT)
    p.add_argument("--eps", type=float, default=0.1)
    p.add_argument("--samples", type=_int_at_least(I2_MIN_SAMPLES), default=1_000_000,
                   help="samples per grid point, at least 10^4")
    p.add_argument("--eta", type=_float_list, default=list(ETA_DEFAULT))
    p.add_argument("--shards", type=_count, default=SHARDS_DEFAULT)
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
    p.add_argument("--n", "--N", dest="N", type=int, default=8)
    p.add_argument("--beta", type=float, default=0.0)
    p.add_argument("--omega", type=float, default=None)
    p.add_argument("--eps", type=float, default=0.0)
    p.add_argument("--observable", type=_str_list, default=["msq"],
                   help=f"comma-separated tags from {OBSERVABLES}")
    p.add_argument("--samples", type=_count, default=100_000)
    p.add_argument("--shards", type=_count, default=MC_SHARDS_DEFAULT)
    p.set_defaults(func=cmd_ensemble)

    p = sub.add_parser("esm", help="enumerated product-form model")
    common(p)
    p.add_argument("--n", "--N", dest="N", type=int, default=2)
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


if __name__ == "__main__":
    sys.exit(main())
