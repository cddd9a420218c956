"""Acceptance gate: twelve headline checks at their full stated budgets.

Each criterion is one test that prints a single PASS/FAIL line with the
measured quantities and its runtime against the stated wall-clock cap.
The checks combine closed-form oracles, hand enumerations, dual-route
cross-validation, and directional trend tests; nothing here reuses the
estimator under test as its own reference.

The curve criterion runs at 10^7 samples per grid point and the rare
event at 10^7 replicas, so a full pass of this module takes several
minutes; everything else is seconds.
"""

import math
import time

import numpy as np
import pytest

from squimld import (
    EnsembleConfig,
    RateParams,
    WfeParams,
    admissibility_bound,
    beta_critical,
    check_hypotheses,
    classical_ising_1d,
    compute_I2,
    domain_scan,
    esm_evaluate,
    infinite_T_msq_exact,
    rare_event_rate_mc,
    solve_Q_detail,
    thermal_averages,
)
from squimld.cli import main as cli_main
from squimld.ensembles import chain_tables, g_values
from squimld.ratecurves import DUAL_GAP_TOL
from squimld.validate import (
    check_concentration,
    check_gradients,
    check_quadrature,
    check_uif,
)

X_GRID = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7)
CURVE_EPS = 0.1
CURVE_SAMPLES = 10**7


def finish(num: int, name: str, ok: bool, detail: str, t0: float, cap: float):
    elapsed = time.perf_counter() - t0
    in_time = elapsed < cap
    status = "PASS" if (ok and in_time) else "FAIL"
    print(
        f"{status} criterion {num:02d} ({name}): {detail}; "
        f"runtime {elapsed:.1f}s (cap {cap:.0f}s)"
    )
    assert ok, f"criterion {num:02d} {name}: {detail}"
    assert in_time, f"criterion {num:02d} {name}: {elapsed:.1f}s over the {cap:.0f}s cap"


def test_criterion_01_gradient_consistency():
    t0 = time.perf_counter()
    res = check_gradients("full")
    finish(1, "gradient consistency", res.ok, res.detail, t0, 10.0)


def test_criterion_02_quadrature_equivalence():
    t0 = time.perf_counter()
    res = check_quadrature("full")
    finish(2, "quadrature equivalence", res.ok, res.detail, t0, 30.0)


def test_criterion_03_constraint_geometry():
    t0 = time.perf_counter()
    params = RateParams(x=0.7, eps=0.3)
    theta1, theta2, in_d, in_g, _k = domain_scan(params, 10**6, seed=0)
    n_g = int(in_g.sum())
    g_above_axis = bool(np.all(theta2[in_g] > 0.0)) if n_g else False
    # diamond occupancy: all four quadrant-sectors around the D centroid hit
    t1d = theta1[in_d]
    t2d = theta2[in_d]
    c1, c2 = float(t1d.mean()), float(t2d.mean())
    quadrants = [
        int(np.count_nonzero((t1d >= c1) & (t2d >= c2))),
        int(np.count_nonzero((t1d >= c1) & (t2d < c2))),
        int(np.count_nonzero((t1d < c1) & (t2d >= c2))),
        int(np.count_nonzero((t1d < c1) & (t2d < c2))),
    ]
    ok = n_g > 0 and g_above_axis and all(q > 0 for q in quadrants)
    finish(
        3,
        "constraint geometry",
        ok,
        f"{n_g} G-points all with theta2 > 0: {g_above_axis}, "
        f"D quadrant counts {quadrants}",
        t0,
        60.0,
    )


def test_criterion_04_rate_curves():
    t0 = time.perf_counter()
    rows = compute_I2(
        [RateParams(x=x, eps=CURVE_EPS) for x in X_GRID], CURVE_SAMPLES, seed=0, workers=1
    )
    i1 = [p.I1 for p in rows]
    i2 = [p.I2 for p in rows]
    ordering = all(p.I2 >= p.I1 for p in rows)
    flat_region = rows[-1].I1 == 0.0
    i1_monotone = all(a >= b - 1e-12 for a, b in zip(i1, i1[1:]))
    # I2 is the certified dual value, off by at most DUAL_GAP_TOL at each x
    i2_monotone = all(nxt <= prev + 2.0 * DUAL_GAP_TOL for prev, nxt in zip(i2, i2[1:]))
    all_hit = all(p.accepted_G > 0 for p in rows)
    ok = ordering and flat_region and i1_monotone and i2_monotone and all_hit
    finish(
        4,
        "rate curves",
        ok,
        f"I2 >= I1 everywhere: {ordering}, I1(0.7) = {rows[-1].I1}, "
        f"I1 non-increasing: {i1_monotone}, I2 non-increasing within "
        f"2 dual gaps: {i2_monotone}, I2(0.1) = {i2[0]:.6f}, I2(0.7) = {i2[-1]:.6f}",
        t0,
        1800.0,
    )


def test_criterion_05_root_asymptotics():
    t0 = time.perf_counter()
    t_small = solve_Q_detail(0.01).t
    gaps = [solve_Q_detail(x).gap for x in (0.2, 0.1, 0.05, 0.02)]
    monotone = all(a > b for a, b in zip(gaps, gaps[1:]))
    ok = t_small < 1e-10 and monotone
    finish(
        5,
        "root asymptotics",
        ok,
        f"t(x=0.01) = {t_small:.3e} < 1e-10, gap Q-P decreasing over "
        f"x = 0.2, 0.1, 0.05, 0.02: {monotone}",
        t0,
        1.0,
    )


def test_criterion_06_transition_pipeline():
    t0 = time.perf_counter()
    bound = admissibility_bound(1.2)
    hyp_ok = check_hypotheses(1.2, 0.1) and abs(bound - 0.622) < 5e-4
    params = WfeParams(omega=1.2, eps=0.1)
    res, beta_c = beta_critical(params)
    p_star = res.p_star_inf
    finite = 0.0 < p_star < math.inf
    chain = beta_c == pytest.approx(p_star / 0.02, rel=1e-12)
    rare = rare_event_rate_mc(params, n_sites=2000, replicas=10**7, seed=0)
    ratio = rare.rate / p_star
    in_band = 0.75 <= ratio <= 1.25
    ok = hyp_ok and finite and chain and in_band
    finish(
        6,
        "transition pipeline",
        ok,
        f"bound = {bound:.4f}, pbar* = {p_star:.6f}, beta_c = {beta_c:.4f}, "
        f"empirical rate = {rare.rate:.6f} ({ratio:.3f} of pbar*, "
        f"{rare.hits} hits)",
        t0,
        600.0,
    )


def test_criterion_07_infinite_temperature_oracle():
    t0 = time.perf_counter()
    zs = []
    for n in (2, 8, 32):
        cfg = EnsembleConfig(N=n, beta=0.0, model="SCWM", samples=400_000, seed=11)
        est = thermal_averages(cfg, ["msq"])[0]
        exact = infinite_T_msq_exact(n)
        zs.append((est.mean - exact) / est.std_error)
    # brute-force cross-check of the N = 2 exact value 1/6 by raw
    # normalized Gaussians (no simplex representation involved)
    rng = np.random.default_rng(2024)
    z = rng.standard_normal((400_000, 6))
    w = z[:, ::2] ** 2 + z[:, 1::2] ** 2
    w /= w.sum(axis=1, keepdims=True)
    msq = (w @ g_values(2)) ** 2
    z_bf = (float(msq.mean()) - 1.0 / 6.0) / (
        float(msq.std(ddof=1)) / math.sqrt(msq.size)
    )
    ok = all(abs(z) < 3.0 for z in zs) and abs(z_bf) < 3.0
    finish(
        7,
        "infinite-temperature oracle",
        ok,
        f"z-scores N=2,8,32: {zs[0]:+.2f}, {zs[1]:+.2f}, {zs[2]:+.2f}; "
        f"brute-force N=2 z = {z_bf:+.2f}",
        t0,
        120.0,
    )


def test_criterion_08_product_model_exactness():
    t0 = time.perf_counter()
    res = esm_evaluate(2, 1.0)
    exact_logz = abs(res.logZhat - 2.0 * math.log(8.0 / 9.0)) < 1e-14
    exact_disp = res.msq_dispersion == 1.0 / 32.0
    v8 = esm_evaluate(8, 1.0).msq_dispersion
    v16 = esm_evaluate(16, 1.0).msq_dispersion
    shrinking = v16 < v8
    ok = exact_logz and exact_disp and shrinking
    finish(
        8,
        "product-model exactness",
        ok,
        f"logZhat(2, 1) = 2 log(8/9): {exact_logz}, term = 1/32: {exact_disp}, "
        f"term N=16 ({v16:.3e}) < N=8 ({v8:.3e}): {shrinking}",
        t0,
        10.0,
    )


def test_criterion_09_wfe_magnetization_direction():
    t0 = time.perf_counter()
    kw = dict(N=8, beta=40.0, samples=400_000, seed=7)
    plain = thermal_averages(EnsembleConfig(model="SCWM", **kw), ["msq"])[0]
    wfe = thermal_averages(EnsembleConfig(model="SCWM_WFE", omega=1.2, **kw), ["msq"])[0]
    gap = wfe.mean - plain.mean
    se = math.hypot(wfe.std_error, plain.std_error)
    ok = gap >= 3.0 * se
    finish(
        9,
        "wavefunction-energy direction",
        ok,
        f"[m^2] gap = {gap:.5f} = {gap / se:.0f} combined SEs "
        f"(WFE {wfe.mean:.4f} vs plain {plain.mean:.4f})",
        t0,
        300.0,
    )


def test_criterion_10_lemma_property_tests():
    t0 = time.perf_counter()
    uif = check_uif("full")
    conc = check_concentration("full")
    ok = uif.ok and conc.ok
    finish(
        10,
        "integral and concentration lemmas",
        ok,
        f"{uif.detail}; {conc.detail}",
        t0,
        30.0,
    )


def test_criterion_11_determinism(tmp_path):
    t0 = time.perf_counter()
    # worker count must be an execution detail for every sampled CSV;
    # each command is re-run at its criterion's seed and shard layout
    identical = {}

    def bytes_of(subdir, argv, filename):
        out = tmp_path / subdir
        assert cli_main(argv + ["--out-dir", str(out)]) == 0
        return (out / filename).read_bytes()

    scan_args = ["domain-scan", "--x", "0.7", "--eps", "0.3",
                 "--samples", "1000000", "--seed", "0"]
    identical["domain_scan"] = bytes_of(
        "s1", scan_args + ["--workers", "1"], "domain_scan.csv"
    ) == bytes_of("s2", scan_args + ["--workers", "2"], "domain_scan.csv")

    curve_args = ["rate-curves", "--x-list", "0.1,0.4,0.7", "--eps", "0.1",
                  "--samples", "1000000", "--seed", "0"]
    identical["rate_curve"] = bytes_of(
        "r1", curve_args + ["--workers", "1"], "rate_curve.csv"
    ) == bytes_of("r2", curve_args + ["--workers", "2"], "rate_curve.csv")

    ens_args = ["ensemble", "--model", "SCWM_WFE", "--n", "8", "--beta", "40",
                "--omega", "1.2", "--observable", "msq,dispersion",
                "--samples", "400000", "--seed", "7"]
    identical["ensemble"] = bytes_of(
        "e1", ens_args + ["--workers", "1"], "ensemble.csv"
    ) == bytes_of("e2", ens_args + ["--workers", "2"], "ensemble.csv")

    params = WfeParams(omega=1.2, eps=0.1)
    identical["rare_event"] = rare_event_rate_mc(
        params, n_sites=2000, replicas=200_000, seed=0, workers=1
    ) == rare_event_rate_mc(params, n_sites=2000, replicas=200_000, seed=0, workers=2)

    ok = all(identical.values())
    finish(
        11,
        "determinism",
        ok,
        "byte-identical across worker counts: "
        + ", ".join(f"{k}={v}" for k, v in identical.items()),
        t0,
        600.0,
    )


def test_criterion_12_classical_baseline():
    t0 = time.perf_counter()
    beta = 1.0
    _, _, var_small = classical_ising_1d(100, beta)
    _, _, var_large = classical_ising_1d(10_000, beta)
    ratio = (var_small / 100**2) / (var_large / 10_000**2)
    # N = 2 log Z against the 4-configuration enumeration
    m, interaction, _ = chain_tables(2)
    lz_enum = math.log(float(np.mean(np.exp(2.0 * beta * interaction))))
    lz, _, _ = classical_ising_1d(2, beta)
    exact = abs(lz - lz_enum) < 1e-10
    ok = ratio >= 10.0 and exact
    finish(
        12,
        "classical baseline",
        ok,
        f"var(M)/N^2 drops {ratio:.0f}x from N=100 to N=10000, "
        f"N=2 log Z matches enumeration to {abs(lz - lz_enum):.1e}",
        t0,
        5.0,
    )
