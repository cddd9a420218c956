"""Checks of each operation's output against the oracles and the method's
own properties.  Nothing is compared with a stored copy of earlier output.

`Checker.check` takes one round's outputs and returns, per operation, a
list of (check, status, detail), where status is "ok", "fail" or "known".
An operation fails when it raised, exited non-zero, or failed any check.
Every round of a run uses the same seed, so every round must write the
same bytes as the first; a round that does is given the first round's
verdicts without checking again.

"known" marks the one failure that a fault in the program causes today:
the `beta_c` check "pbar* is the infimum", and only when the program
reports exactly the documented wrong value (KNOWN_FAULT).  Any other
failed check, error or exit code, on `beta_c` too, is "fail" and makes
the run incorrect.
"""

from __future__ import annotations

import csv
import hashlib
import math
import warnings
from functools import cached_property
from pathlib import Path

import numpy as np
from scipy.integrate import IntegrationWarning

import oracles
import workloads as W

# wfe.p_star_inf stops its y search at the bracket floor Y_BRACKET[0] = 1e-4
# and reports p*(1e-4) instead of the infimum as y -> 0+.  The failure of
# "pbar* is the infimum" is forgiven only when the row shows exactly that.
KNOWN_FAULT = {"operation": "beta_c", "check": "pbar* is the infimum",
               "y_at_inf": 1e-4, "p_star_inf": 0.3407638, "p_star_atol": 1e-7}

PBAR_RTOL = 1e-8
BETA_C_RTOL = 1e-12
# Seed-to-seed standard deviation of log P at 1e5 replicas is about 0.026
# (eight seeds); the band is ten times that.
LOG_P_TOL = 0.25
RATE_BAND = (0.75, 1.25)
# Rows with |min q| below this are ties on the boundary of D: rounding
# decides either verdict there, so they are counted and reported (with how
# many disagree) but do not fail the check.
Q_TIE = 1e-12
# k is NaN outside the strict interior min q >= 1e-12 (the program's
# QMIN_STRICT); rows up to twice that may go either way.
Q_STRICT_BAND = 2e-12
QUAD_ROWS = 256
QUAD_QMIN = 1e-6  # quadrature converges cleanly above this distance from the boundary
QUAD_K_RTOL = 1e-8
QUAD_GRAD_TIE = 1e-8
I1_X = (0.3, 0.4, 0.5)
I1_TOL = 1e-11
# Below this x the sampler hits G only a few times per 10^6 draws, and on
# some seeds not at all; rate-curves then writes the documented empty-G
# marker row (I2 = NaN, accepted_G = 0) instead of a value.
G_SPARSE_X = 0.2
Z_BOUND = 5.0
WFE_MARGIN_SE = 3.0
ESM_N2 = (2.0 * math.log(8.0 / 9.0), 1.0 / 32.0)

# operation-name prefix -> Checker method "_<prefix>"
_CHECKED = ("beta_c", "rare_event", "domain_scan", "rate_curves", "ensemble", "esm", "validate")


def _rows(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def _status(ok, known: bool) -> str:
    return "ok" if ok else ("known" if known else "fail")


def _output_key(out: dict) -> str:
    """Digest of everything an operation produced: result, CSVs, check lines."""
    if out["error"] is not None:
        return "error"
    h = hashlib.sha256(repr(out["result"]).encode())
    for path in sorted(out["dir"].glob("*.csv")):
        h.update(path.name.encode())
        with open(path, "rb") as fh:
            for block in iter(lambda: fh.read(1 << 20), b""):
                h.update(block)
    for line in out["log"].splitlines():
        if line.startswith(("PASS", "FAIL")):
            h.update(line.encode())
    return h.hexdigest()


class Checker:
    def __init__(self, seed: int):
        self.seed = seed
        self._first_keys: dict | None = None
        self._first_verdicts: dict | None = None

    # -- oracles, computed once per run --------------------------------------

    @cached_property
    def pbar(self) -> float:
        return oracles.pbar_star(W.OMEGA, W.WFE_EPS)[0]

    @cached_property
    def lr_log_p(self) -> float:
        return oracles.lugannani_rice_log_tail(
            oracles.grid_weights(W.OMEGA, W.WFE_EPS, W.RARE_N_SITES))

    @cached_property
    def i1(self) -> dict[float, float]:
        return {x: oracles.i1_quadrature(x) for x in I1_X}

    @cached_property
    def exact_moments(self) -> dict[str, tuple[float, float]]:
        n = W.ENSEMBLE_N
        return {
            "SCWM": oracles.dirichlet_moments(*oracles.scwm_nodes(n, 40.0), precise=True),
            "SCWM_ENTROPY": oracles.dirichlet_moments(
                *oracles.scwm_nodes(n, 40.0, entropy=True), precise=True),
            "SQUIM_d1": oracles.dirichlet_moments(*oracles.chain_nodes(n, 0.2)),
        }

    # -- entry point ----------------------------------------------------------

    def check(self, outputs: dict) -> dict[str, list]:
        """outputs: op name -> {"result", "error", "dir", "log"}."""
        keys = {name: _output_key(out) for name, out in outputs.items()}
        if keys == self._first_keys:
            return self._first_verdicts
        verdicts = self._check_outputs(outputs)
        if self._first_keys is None:
            self._first_keys, self._first_verdicts = keys, verdicts
        else:
            for name, key in keys.items():
                if key != self._first_keys.get(name):
                    verdicts[name].append(("same output as the run's first round", "fail",
                                           "the same seed gave different output"))
        return verdicts

    def _check_outputs(self, outputs: dict) -> dict[str, list]:
        verdicts = {}
        for name, out in outputs.items():
            if out["error"] is not None:
                verdicts[name] = [("ran", "fail", out["error"].strip().splitlines()[-1])]
                continue
            if isinstance(out["result"], int) and out["result"] != 0:
                verdicts[name] = [("exit code", "fail", f"exit {out['result']}: {out['log'][-300:]}")]
                continue
            prefix = next(p for p in _CHECKED if name.startswith(p))
            try:
                found = getattr(self, "_" + prefix)(name, out, outputs)
                # a check may add a fourth item: True when it failed exactly as KNOWN_FAULT
                verdicts[name] = [(check, _status(ok, known == [True]), detail)
                                  for check, ok, detail, *known in found]
            except Exception as exc:  # a malformed output is a failed check, not a crash
                verdicts[name] = [("output readable", "fail", f"{type(exc).__name__}: {exc}")]
        return verdicts

    # -- transition -----------------------------------------------------------

    def _beta_c(self, name, out, outputs):
        header, rows = _rows(out["dir"] / "wfe_transition.csv")
        row = dict(zip(header, rows[0]))
        pstar, beta_c = float(row["p_star_inf"]), float(row["beta_c"])
        y_at_inf = float(row["y_at_inf"])
        want_beta = pstar / ((W.OMEGA - 1.0) * W.WFE_EPS)
        rel = abs(pstar - self.pbar) / self.pbar
        known = (y_at_inf == KNOWN_FAULT["y_at_inf"]
                 and abs(pstar - KNOWN_FAULT["p_star_inf"]) <= KNOWN_FAULT["p_star_atol"])
        return [
            ("one row, hypotheses_ok", len(rows) == 1 and row["hypotheses_ok"] == "1", row["hypotheses_ok"]),
            (KNOWN_FAULT["check"], rel <= PBAR_RTOL,
             f"pbar*={pstar:.13g} at y={y_at_inf:g} vs quadrature infimum {self.pbar:.13g} "
             f"(rel {rel:.2e}, tol {PBAR_RTOL:g})", known),
            ("beta_c = pbar*/((omega-1) eps)", abs(beta_c - want_beta) <= BETA_C_RTOL * abs(want_beta),
             f"beta_c={beta_c:.15g} vs {want_beta:.15g}"),
        ]

    def _rare_event(self, name, out, outputs):
        r = out["result"]
        dev = abs(r["log_p"] - self.lr_log_p)
        ratio = r["rate"] / self.pbar
        return [
            ("replicas and hits", r["replicas"] == W.RARE_REPLICAS and r["hits"] > 0,
             f"{r['hits']} hits of {r['replicas']}"),
            ("log P vs Lugannani-Rice", dev <= LOG_P_TOL,
             f"log P={r['log_p']:.5f} vs {self.lr_log_p:.5f} (|diff| {dev:.4f}, tol {LOG_P_TOL})"),
            ("rate = -log P / N", abs(r["rate"] + r["log_p"] / W.RARE_N_SITES) <= 1e-12 * abs(r["rate"]),
             f"rate={r['rate']:.10g}"),
            ("rate / pbar* in band", RATE_BAND[0] <= ratio <= RATE_BAND[1], f"ratio {ratio:.4f}"),
        ]

    # -- dual_plane -----------------------------------------------------------

    def _domain_scan(self, name, out, outputs):
        path = out["dir"] / "domain_scan.csv"
        with open(path) as fh:
            header = fh.readline().strip()
        data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        t1, t2, in_d, in_g, k = data.T
        in_d, in_g = in_d == 1.0, in_g == 1.0
        qm = oracles.q_min(W.SCAN_X, W.SCAN_EPS, t1, t2)
        decided = np.abs(qm) > Q_TIE
        disagree = in_d != (qm >= 0.0)
        d_bad = int(np.count_nonzero(decided & disagree))
        tie_bad = int(np.count_nonzero(~decided & disagree))
        finite = np.isfinite(k)
        k_bad = int(np.count_nonzero((finite & ~in_d) | (in_d & (qm > Q_STRICT_BAND) & ~finite)))
        g_bad = int(np.count_nonzero(in_g & ((t2 <= 0.0) | ~in_d | ~finite)))

        rng = np.random.default_rng([self.seed, 1])
        pool = np.flatnonzero(in_d & (qm >= QUAD_QMIN))
        rows = rng.choice(pool, size=min(QUAD_ROWS, pool.size), replace=False)
        k_worst, sign_bad, sign_used = 0.0, 0, 0
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", IntegrationWarning)
            for i in rows:
                kq, g1, g2 = oracles.k_and_grad_quadrature(W.SCAN_X, W.SCAN_EPS, t1[i], t2[i])
                k_worst = max(k_worst, abs(k[i] - kq) / max(1.0, abs(kq)))
                if min(abs(g1), abs(g2)) > QUAD_GRAD_TIE:
                    sign_used += 1
                    sign_bad += int(bool(in_g[i]) != (g1 <= 0.0 and g2 >= 0.0))
        return [
            ("schema", header == "theta1,theta2,in_D,in_G,k" and len(t1) == W.SCAN_SAMPLES,
             f"{len(t1)} rows"),
            ("in_D = (min q >= 0)", d_bad == 0,
             f"{d_bad} disagreements; {int(np.count_nonzero(~decided))} ties within {Q_TIE:g}, "
             f"{tie_bad} of them disagreeing (not failed: rounding decides a tie)"),
            ("k finite exactly inside D", k_bad == 0, f"{k_bad} rows disagree"),
            ("in_G rows: in D, k finite, theta2 > 0", g_bad == 0, f"{g_bad} rows violate"),
            ("k vs quadrature", k_worst <= QUAD_K_RTOL,
             f"{rows.size} rows, worst rel {k_worst:.2e} (tol {QUAD_K_RTOL:g})"),
            ("in_G vs quadrature signs of grad c", sign_bad == 0 and sign_used > 0,
             f"{sign_bad} of {sign_used} disagree"),
        ]

    def _rate_curves(self, name, out, outputs):
        header, rows = _rows(out["dir"] / "rate_curve.csv")
        cols = {h: [float(r[i]) for r in rows] for i, h in enumerate(header)}
        xs, i1, i2, acc = cols["x"], cols["I1"], cols["I2"], cols["accepted_G"]
        i1_dev = max(abs(i1[xs.index(x)] - v) for x, v in self.i1.items())
        high = [v for x, v in zip(xs, i1) if x >= 2.0 / 3.0]
        return [
            ("schema", header == ["x", "I1", "I2", "accepted_G", "samples", "seed"]
             and xs == list(W.CURVE_X) and all(s == W.CURVE_SAMPLES for s in cols["samples"])
             and all(s == self.seed for s in cols["seed"]), f"{len(rows)} rows"),
            ("I1 vs quadrature at x=0.3,0.4,0.5", i1_dev <= I1_TOL,
             f"worst |diff| {i1_dev:.2e} (tol {I1_TOL:g})"),
            ("I1 = 0 for x >= 2/3", bool(high) and all(v == 0.0 for v in high), str(high)),
            ("I1 non-increasing in x", all(b <= a for a, b in zip(i1, i1[1:])), str(i1)),
            ("I2 >= I1 where G was hit", all(b >= a for a, b, n in zip(i1, i2, acc) if n > 0),
             f"accepted_G={acc}"),
            ("accepted_G > 0 for x >= 0.2", all(n > 0 for x, n in zip(xs, acc) if x >= G_SPARSE_X),
             f"accepted_G={acc}"),
            ("empty-G marker: accepted_G = 0 exactly when I2 is NaN",
             all((n == 0) == math.isnan(b) for b, n in zip(i2, acc)), f"I2={i2}"),
        ]

    # -- ensembles ------------------------------------------------------------

    def _ensemble_rows(self, out):
        header, rows = _rows(out["dir"] / "ensemble.csv")
        return {r[header.index("observable")]: (float(r[header.index("mean")]),
                                                float(r[header.index("std_error")]),
                                                int(r[header.index("n_samples")]))
                for r in rows}

    def _ensemble(self, name, out, outputs):
        model = name[len("ensemble_"):]
        est = self._ensemble_rows(out)
        checks = [("rows", sorted(est) == sorted(W.ENSEMBLE_OBSERVABLES)
                   and all(v[2] == W.ENSEMBLE_SAMPLES and v[1] > 0.0 for v in est.values()),
                   str(sorted(est)))]
        if model in self.exact_moments:
            for obs, exact in zip(("msq", "dispersion"), self.exact_moments[model]):
                mean, se, _n = est[obs]
                z = (mean - exact) / se
                checks.append((f"{obs} vs exact Dirichlet average", abs(z) <= Z_BOUND,
                               f"{mean:.6g} +- {se:.2g} vs {exact:.7g} (z={z:+.2f}, bound {Z_BOUND:g})"))
        else:  # SCWM_WFE magnetizes where SCWM does not
            plain = self._ensemble_rows(outputs["ensemble_SCWM"])["msq"]
            mean, se, _n = est["msq"]
            gap = (mean - plain[0]) / math.hypot(se, plain[1])
            checks.append(("msq above SCWM", gap >= WFE_MARGIN_SE,
                           f"{mean:.5f} vs {plain[0]:.5f}: {gap:.1f} combined std errors"))
        return checks

    def _esm(self, name, out, outputs):
        header, rows = _rows(out["dir"] / "esm.csv")
        row = dict(zip(header, rows[0]))
        log_z, disp = float(row["logZhat"]), float(row["msq_dispersion"])
        if name == "esm_N2":
            return [("N=2 hand values", abs(log_z - ESM_N2[0]) <= 1e-12 and abs(disp - ESM_N2[1]) <= 1e-15,
                     f"logZhat={log_z!r}, dispersion={disp!r}")]
        _h, rows2 = _rows(outputs["esm_N2"]["dir"] / "esm.csv")
        disp2 = float(rows2[0][_h.index("msq_dispersion")])
        return [("0 < dispersion(N=16) < dispersion(N=2)", 0.0 < disp < disp2, f"{disp!r} vs {disp2!r}")]

    def _validate(self, name, out, outputs):
        lines = [ln for ln in out["log"].splitlines() if ln.startswith(("PASS", "FAIL"))]
        return [("every check passes", bool(lines) and all(ln.startswith("PASS") for ln in lines),
                 f"{len(lines)} checks")]
