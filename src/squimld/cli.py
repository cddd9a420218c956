"""Command-line front end.

Subcommands wrap the library modules one-to-one: domain-scan and
rate-curves sample the dual plane, wfe evaluates the transition pipeline,
ensemble and esm run the thermal estimators and the enumerated product
model, and validate runs the oracle suite.  Each command writes
fixed-schema CSV output plus a JSON run manifest (and, for the two figure
commands, a gnuplot script) into --out-dir.

Option layering: an explicit flag wins, then an SQUIMLD_<NAME> environment
variable, then a key=value line in the file passed via --config, then the
built-in default.

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


def _str_list(text: str) -> list[str]:
    return [tok.strip() for tok in text.split(",") if tok.strip() != ""]


def _float_list(text: str) -> list[float]:
    try:
        return [float(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad float list {text!r}") from exc


def _read_config(path: str | None) -> dict:
    if path is None:
        return {}
    cfg = {}
    try:
        lines = Path(path).read_text().splitlines()
    except OSError as exc:
        raise InvalidParams(f"cannot read config file {path}: {exc}") from exc
    for raw in lines:
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise InvalidParams(f"config line without '=': {raw!r}")
        key, value = line.split("=", 1)
        cfg[key.strip()] = value.strip()
    return cfg


def _resolve(args, name: str, conv, default, config: dict):
    """flag > SQUIMLD_<NAME> environment variable > --config entry > default."""
    flag = getattr(args, name.replace("-", "_"))
    if flag is not None:
        return flag
    env = os.environ.get(ENV_PREFIX + name.upper().replace("-", "_"))
    if env is not None:
        return conv(env)
    if name in config:
        return conv(config[name])
    return default


def _workers(args, config: dict, shards: int) -> int:
    """The resolved --workers: every available core unless set, at most shards."""
    return resolve_workers(_resolve(args, "workers", int, None, config), shards)


def _manifest(command: str, params: dict, seed: int, workers: int,
              started: str, outputs: list[str], out_dir: Path, stem: str,
              timings: dict | None = None, diagnostics: dict | None = None) -> None:
    man = RunManifest(
        command=command,
        parameters=params,
        seed=seed,
        workers=workers,
        started=started,
        finished=utc_now(),
        output_files=outputs,
        timings=timings or {},
        diagnostics={"available_cores": available_cores(), **(diagnostics or {})},
    )
    man.write(out_dir / f"{stem}_manifest.json")


def cmd_domain_scan(args) -> int:
    config = _read_config(args.config)
    x = _resolve(args, "x", float, 0.7, config)
    eps = _resolve(args, "eps", float, 0.3, config)
    samples = _resolve(args, "samples", int, 1_000_000, config)
    eta = _resolve(args, "eta", _float_list, list(ETA_DEFAULT), config)
    seed = _resolve(args, "seed", int, 0, config)
    shards = _resolve(args, "shards", int, SHARDS_DEFAULT, config)
    workers = _workers(args, config, shards)
    out_dir = Path(_resolve(args, "out-dir", str, ".", config))
    if samples < 1:
        print("error: samples must be >= 1", file=sys.stderr)
        return 2
    started = utc_now()
    params = RateParams(x=x, eps=eps)
    clock_start = time.perf_counter()
    theta1, theta2, in_d, in_g, k = domain_scan(
        params, samples, tuple(eta), seed=seed, shards=shards, workers=workers
    )
    clock_scanned = time.perf_counter()
    out_dir.mkdir(parents=True, exist_ok=True)
    header = ["theta1", "theta2", "in_D", "in_G", "k"]
    rows = np.rec.fromarrays([theta1, theta2, in_d, in_g, k], names=header)
    csv_path = out_dir / "domain_scan.csv"
    write_csv(csv_path, header, rows, workers)
    clock_written = time.perf_counter()
    gp_path = out_dir / "domain_scan.gp"
    write_text(gp_path, domain_plot_script("domain_scan.csv"))
    _manifest(
        "domain-scan",
        {"x": x, "eps": eps, "samples": samples, "eta": ",".join(str(e) for e in eta),
         "shards": shards},
        seed, workers, started, [csv_path.name, gp_path.name], out_dir, "domain_scan",
        {"scan_s": clock_scanned - clock_start,
         "write_csv_s": clock_written - clock_scanned},
    )
    print(f"wrote {csv_path} ({int(in_d.sum())} D-points, {int(in_g.sum())} G-points)")
    return 0


def cmd_rate_curves(args) -> int:
    config = _read_config(args.config)
    x_list = _resolve(args, "x-list", _float_list, _float_list(X_GRID_DEFAULT), config)
    eps = _resolve(args, "eps", float, 0.1, config)
    samples = _resolve(args, "samples", int, 1_000_000, config)
    eta = _resolve(args, "eta", _float_list, list(ETA_DEFAULT), config)
    seed = _resolve(args, "seed", int, 0, config)
    shards = _resolve(args, "shards", int, SHARDS_DEFAULT, config)
    workers = _workers(args, config, shards)
    out_dir = Path(_resolve(args, "out-dir", str, ".", config))
    if samples < 1:
        print("error: samples must be >= 1", file=sys.stderr)
        return 2
    if not x_list:
        print("error: empty x list", file=sys.stderr)
        return 2
    started = utc_now()
    rows = []
    timings = {"sample_s": 0.0, "dual_s": 0.0}
    diagnostics = {}
    for x in x_list:
        params = RateParams(x=x, eps=eps)
        try:
            pt = compute_I2(
                params, samples, tuple(eta), seed=seed, shards=shards, workers=workers
            )
        except NoConstraintPoints:
            # flagged row: empty constraint set at this budget
            rows.append((x, compute_I1(params), math.nan, 0, samples, seed))
            continue
        rows.append((x, pt.I1, pt.I2, pt.accepted_G, samples, seed))
        timings["sample_s"] += pt.sample_s
        timings["dual_s"] += pt.dual_s
        diagnostics.update({
            f"theta_star.{x!r}": f"{pt.theta_at_min[0]!r},{pt.theta_at_min[1]!r}",
            f"dual_gap.{x!r}": pt.dual_gap,
            f"newton_iters.{x!r}": pt.newton_iters,
            f"sampled_k_min.{x!r}": pt.sampled_k_min,
            f"noise_band.{x!r}": pt.noise_band,
        })
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / "rate_curve.csv"
    write_csv(csv_path, ["x", "I1", "I2", "accepted_G", "samples", "seed"], rows)
    gp_path = out_dir / "rate_curve.gp"
    write_text(gp_path, rate_plot_script("rate_curve.csv"))
    _manifest(
        "rate-curves",
        {"x_list": ",".join(str(x) for x in x_list), "eps": eps, "samples": samples,
         "eta": ",".join(str(e) for e in eta), "shards": shards},
        seed, workers, started, [csv_path.name, gp_path.name], out_dir, "rate_curve",
        timings, diagnostics,
    )
    flagged = sum(1 for r in rows if math.isnan(r[2]))
    print(f"wrote {csv_path} ({len(rows)} rows, {flagged} with empty constraint set)")
    return 0


def cmd_wfe(args) -> int:
    config = _read_config(args.config)
    omega = _resolve(args, "omega", float, 1.2, config)
    eps = _resolve(args, "eps", float, 0.1, config)
    delta = _resolve(args, "delta", float, None, config)
    out_dir = Path(_resolve(args, "out-dir", str, ".", config))
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
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / "wfe_transition.csv"
    write_csv(
        csv_path,
        ["omega", "eps", "r", "delta", "p_star_inf", "y_at_inf", "beta_c",
         "hypotheses_ok"],
        [row],
    )
    _manifest(
        "wfe",
        {"omega": omega, "eps": eps, "delta": "" if delta is None else delta},
        0, 1, started, [csv_path.name], out_dir, "wfe_transition", None, diagnostics,
    )
    print(f"wrote {csv_path} (hypotheses_ok={row[-1]})")
    return 0


def cmd_ensemble(args) -> int:
    config = _read_config(args.config)
    model = _resolve(args, "model", str, "SCWM", config)
    n_spins = _resolve(args, "n", int, 8, config)
    beta = _resolve(args, "beta", float, 0.0, config)
    omega = _resolve(args, "omega", float, None, config)
    eps = _resolve(args, "eps", float, 0.0, config)
    observables = _resolve(args, "observable", _str_list, ["msq"], config)
    samples = _resolve(args, "samples", int, 100_000, config)
    seed = _resolve(args, "seed", int, 0, config)
    shards = _resolve(args, "shards", int, MC_SHARDS_DEFAULT, config)
    workers = _workers(args, config, shards)
    out_dir = Path(_resolve(args, "out-dir", str, ".", config))
    if samples < 1:
        print("error: samples must be >= 1", file=sys.stderr)
        return 2
    started = utc_now()
    cfg = EnsembleConfig(
        N=n_spins, beta=beta, model=model, samples=samples, omega=omega,
        eps=eps, seed=seed, workers=workers, shards=shards,
    )
    clock_start = time.perf_counter()
    estimates = thermal_averages(cfg, observables)
    clock_sampled = time.perf_counter()
    rows = [
        (model, n_spins, beta, math.nan if omega is None else omega, eps,
         obs, est.mean, est.std_error, est.n_samples, seed)
        for obs, est in zip(observables, estimates)
    ]
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / "ensemble.csv"
    write_csv(
        csv_path,
        ["model", "N", "beta", "omega", "eps", "observable", "mean", "std_error",
         "n_samples", "seed"],
        rows,
    )
    clock_written = time.perf_counter()
    diagnostics = {"weight_ess": estimates[0].weight_ess} if estimates else {}
    for obs, est in zip(observables, estimates):
        diagnostics[f"numerator_ess.{obs}"] = est.numerator_ess
    _manifest(
        "ensemble",
        {"model": model, "N": n_spins, "beta": beta,
         "omega": "" if omega is None else omega, "eps": eps,
         "observable": ",".join(observables), "samples": samples, "shards": shards},
        seed, workers, started, [csv_path.name], out_dir, "ensemble",
        {"sample_s": clock_sampled - clock_start,
         "write_csv_s": clock_written - clock_sampled},
        diagnostics,
    )
    print(f"wrote {csv_path} ({len(rows)} rows)")
    return 0


def cmd_esm(args) -> int:
    config = _read_config(args.config)
    n_spins = _resolve(args, "n", int, 2, config)
    beta = _resolve(args, "beta", float, 1.0, config)
    out_dir = Path(_resolve(args, "out-dir", str, ".", config))
    started = utc_now()
    res = esm_evaluate(n_spins, beta)
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / "esm.csv"
    write_csv(
        csv_path,
        ["N", "beta", "logZhat", "msq_dispersion"],
        [(res.N, res.beta, res.logZhat, res.msq_dispersion)],
    )
    _manifest(
        "esm", {"N": n_spins, "beta": beta}, 0, 1, started,
        [csv_path.name], out_dir, "esm",
    )
    print(f"wrote {csv_path} (logZhat={res.logZhat:.12g})")
    return 0


def cmd_validate(args) -> int:
    config = _read_config(args.config)
    level = _resolve(args, "level", str, "fast", config)
    # the suite's one Monte Carlo check runs the ensemble default of shards
    workers = _workers(args, config, MC_SHARDS_DEFAULT)
    out_dir = Path(_resolve(args, "out-dir", str, ".", config))
    if level not in LEVELS:
        print(f"error: level must be one of {LEVELS}", file=sys.stderr)
        return 2
    started = utc_now()
    results = run_validation(level, workers)
    for r in results:
        print(f"{'PASS' if r.ok else 'FAIL'} {r.name}: {r.detail}")
    out_dir.mkdir(parents=True, exist_ok=True)
    _manifest("validate", {"level": level}, 0, workers, started, [], out_dir, "validate")
    return 0 if all(r.ok for r in results) else 4


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="squimld",
        description="Rate functionals, constraint geometry, and "
        "critical-temperature bounds for spherical-ensemble spin models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", default=None, help="key=value config file")
        p.add_argument("--out-dir", dest="out_dir", default=None)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--workers", type=int, default=None)

    p = sub.add_parser("domain-scan", help="sample the dual plane for D and G")
    common(p)
    p.add_argument("--x", type=float, default=None)
    p.add_argument("--eps", type=float, default=None)
    p.add_argument("--samples", type=int, default=None)
    p.add_argument("--eta", type=_float_list, default=None,
                   help="comma-separated bias strengths")
    p.add_argument("--shards", type=int, default=None)
    p.set_defaults(func=cmd_domain_scan)

    p = sub.add_parser("rate-curves", help="I1 and I2 over a grid of x")
    common(p)
    p.add_argument("--x-list", dest="x_list", type=_float_list, default=None)
    p.add_argument("--eps", type=float, default=None)
    p.add_argument("--samples", type=int, default=None,
                   help="samples per grid point")
    p.add_argument("--eta", type=_float_list, default=None)
    p.add_argument("--shards", type=int, default=None)
    p.set_defaults(func=cmd_rate_curves)

    p = sub.add_parser("wfe", help="transition pipeline: p*, beta_c")
    common(p)
    p.add_argument("--omega", type=float, default=None)
    p.add_argument("--eps", type=float, default=None)
    p.add_argument("--delta", type=float, default=None)
    p.set_defaults(func=cmd_wfe)

    p = sub.add_parser("ensemble", help="thermal-average Monte Carlo")
    common(p)
    p.add_argument("--model", choices=MODELS, default=None)
    p.add_argument("--n", "--N", dest="n", type=int, default=None)
    p.add_argument("--beta", type=float, default=None)
    p.add_argument("--omega", type=float, default=None)
    p.add_argument("--eps", type=float, default=None)
    p.add_argument("--observable", type=_str_list, default=None,
                   help=f"comma-separated tags from {OBSERVABLES}")
    p.add_argument("--samples", type=int, default=None)
    p.add_argument("--shards", type=int, default=None)
    p.set_defaults(func=cmd_ensemble)

    p = sub.add_parser("esm", help="enumerated product-form model")
    common(p)
    p.add_argument("--n", "--N", dest="n", type=int, default=None)
    p.add_argument("--beta", type=float, default=None)
    p.set_defaults(func=cmd_esm)

    p = sub.add_parser("validate", help="run the self-validation suite")
    common(p)
    p.add_argument("--level", choices=LEVELS, default=None)
    p.set_defaults(func=cmd_validate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
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
