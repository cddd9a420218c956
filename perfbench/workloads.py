"""The three workloads: which operations one round runs, in order.

A round is a closed loop with one client: the operations run one after
another in a fresh worker process, each started only when the previous one
has returned.  Every operation either runs a `squimld` subcommand through
`squimld.cli.main` or, for the rare event that has no subcommand, calls
`squimld.wfe.rare_event_rate_mc`.  The benchmark's --seed is passed to the
program as its seed; nothing else about the inputs depends on it.

Each operation belongs to stage 1 or stage 2 of its workload; the stage
sums are the end-to-end metrics stage1_s and stage2_s.
"""

from __future__ import annotations

from dataclasses import dataclass

WORKLOADS = ("transition", "dual_plane", "ensembles")

OMEGA = 1.2
WFE_EPS = 0.1
RARE_N_SITES = 2000
RARE_REPLICAS = 100_000

SCAN_X = 0.7
SCAN_EPS = 0.3
SCAN_SAMPLES = 1_000_000
CURVE_X = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7)
CURVE_EPS = 0.1
CURVE_SAMPLES = 1_000_000

ENSEMBLE_N = 8
ENSEMBLE_SAMPLES = 100_000
ENSEMBLE_OBSERVABLES = ("msq", "dispersion")
# (model, beta, omega); SQUIM_d1 sits below the beta where its weights collapse
ENSEMBLE_MODELS = (
    ("SCWM", 40.0, None),
    ("SCWM_ENTROPY", 40.0, None),
    ("SCWM_WFE", 40.0, OMEGA),
    ("SQUIM_d1", 0.2, None),
)
ESM_BETA = 1.0
ESM_SIZES = (2, 16)

# What each workload's two stages are, for the printed summary.
STAGES = {
    "transition": ("wfe (beta_c)", "rare_event_rate_mc"),
    "dual_plane": ("domain-scan", "rate-curves"),
    "ensembles": ("4 x ensemble", "2 x esm + validate"),
}


@dataclass(frozen=True)
class Operation:
    name: str
    stage: int
    argv: tuple = ()  # CLI arguments; empty for the rare-event call
    samples: int = 0  # sampling budget, where the operation has one


def _fmt(v: float) -> str:
    return repr(float(v))


def operations(workload: str, seed: int, workers: int | None = None) -> list[Operation]:
    """The operations of one round of `workload`, in the order they run."""
    common = ("--seed", str(seed))
    if workers is not None:
        common += ("--workers", str(workers))
    if workload == "transition":
        return [
            Operation("beta_c", 1, ("wfe", "--omega", _fmt(OMEGA), "--eps", _fmt(WFE_EPS)) + common),
            Operation("rare_event", 2, (), RARE_REPLICAS),
        ]
    if workload == "dual_plane":
        return [
            Operation("domain_scan", 1, (
                "domain-scan", "--x", _fmt(SCAN_X), "--eps", _fmt(SCAN_EPS),
                "--samples", str(SCAN_SAMPLES)) + common, SCAN_SAMPLES),
            Operation("rate_curves", 2, (
                "rate-curves", "--x-list", ",".join(_fmt(x) for x in CURVE_X),
                "--eps", _fmt(CURVE_EPS), "--samples", str(CURVE_SAMPLES)) + common,
                CURVE_SAMPLES * len(CURVE_X)),
        ]
    if workload == "ensembles":
        ops = []
        for model, beta, omega in ENSEMBLE_MODELS:
            argv = ("ensemble", "--model", model, "--n", str(ENSEMBLE_N), "--beta", _fmt(beta),
                    "--observable", ",".join(ENSEMBLE_OBSERVABLES),
                    "--samples", str(ENSEMBLE_SAMPLES))
            if omega is not None:
                argv += ("--omega", _fmt(omega))
            ops.append(Operation(f"ensemble_{model}", 1, argv + common, ENSEMBLE_SAMPLES))
        for n in ESM_SIZES:
            ops.append(Operation(f"esm_N{n}", 2, ("esm", "--n", str(n), "--beta", _fmt(ESM_BETA)) + common))
        ops.append(Operation("validate_fast", 2, ("validate", "--level", "fast") + common))
        return ops
    raise ValueError(f"unknown workload {workload!r}; want one of {WORKLOADS}")
