"""Thermal-average estimator: oracles, invariances, and failure modes.

The beta = 0 limit has closed-form sphere moments, the chain model at
beta > 0 has an exact divided-difference partition function, the
enumerated product-form model has hand-checkable values, and the
estimator carries two structural invariances worth pinning: worker-count
independence, and one sampling pass giving the same numbers as one pass
per observable.
The analytic spin-flip symmetrization zeroes the signed magnetization, so
it is refused as an observable.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from squimld import (
    DegenerateWeights,
    EnsembleConfig,
    EsmResult,
    InvalidParams,
    McEstimate,
    esm_evaluate,
    infinite_T_msq_exact,
    thermal_averages,
)
from squimld import mc
from squimld.ensembles import chain_classes, chain_tables, g_values
from squimld.mc import MODELS, OBSERVABLES


def test_config_validation():
    EnsembleConfig(N=8, beta=1.0, model="SCWM", samples=100)
    with pytest.raises(InvalidParams):
        EnsembleConfig(N=8, beta=1.0, model="XXX", samples=100)
    with pytest.raises(InvalidParams):
        EnsembleConfig(N=1, beta=1.0, model="SCWM", samples=100)
    with pytest.raises(InvalidParams, match="SQUIM_d1 is capped at N = 20, got N = 25"):
        EnsembleConfig(N=25, beta=1.0, model="SQUIM_d1", samples=100)
    # one draw of N + 1 cells must fit in a chunk of CHUNK_SCALARS
    EnsembleConfig(N=mc.CHUNK_SCALARS - 1, beta=1.0, model="SCWM", samples=100)
    with pytest.raises(InvalidParams, match=f"got N = {mc.CHUNK_SCALARS}"):
        EnsembleConfig(N=mc.CHUNK_SCALARS, beta=1.0, model="SCWM_ENTROPY", samples=100)
    with pytest.raises(InvalidParams):
        EnsembleConfig(N=8, beta=-1.0, model="SCWM", samples=100)
    with pytest.raises(InvalidParams):
        EnsembleConfig(N=8, beta=1.0, model="SCWM", samples=0)
    with pytest.raises(InvalidParams):
        EnsembleConfig(N=8, beta=1.0, model="SCWM_WFE", samples=100)  # omega missing
    with pytest.raises(InvalidParams):
        EnsembleConfig(N=8, beta=1.0, model="SCWM_WFE", samples=100, omega=-0.5)
    with pytest.raises(InvalidParams):
        EnsembleConfig(N=8, beta=1.0, model="SCWM", samples=100, omega=1.2)
    with pytest.raises(InvalidParams):
        EnsembleConfig(N=8, beta=1.0, model="SCWM", samples=100, eps=1.5)
    with pytest.raises(InvalidParams):
        EnsembleConfig(N=8, beta=1.0, model="SCWM", samples=100, seed=-1)
    with pytest.raises(InvalidParams):
        EnsembleConfig(N=8, beta=1.0, model="SCWM", samples=100, workers=0)


def test_estimate_validation():
    with pytest.raises(InvalidParams):
        McEstimate(mean=0.1, std_error=-1.0, n_samples=10, numerator_ess=5.0)
    with pytest.raises(InvalidParams):
        McEstimate(mean=0.1, std_error=0.1, n_samples=0, numerator_ess=5.0)


def test_unknown_observable_rejected():
    cfg = EnsembleConfig(N=4, beta=0.0, model="SCWM", samples=1000)
    with pytest.raises(InvalidParams):
        thermal_averages(cfg, ["energy"])[0]


ONE_PASS_CONFIGS = [
    dict(model="SCWM", N=8, beta=40.0, samples=40_000, seed=2, eps=0.5),
    dict(model="SCWM_ENTROPY", N=8, beta=40.0, samples=40_000, seed=2, eps=0.5),
    dict(model="SCWM_WFE", N=8, beta=40.0, omega=1.2, samples=40_000, seed=2, eps=0.5),
    dict(model="SQUIM_d1", N=8, beta=0.2, samples=40_000, seed=2, eps=0.01),
    # 73 chain classes, 8000 / mc.SHARDS = 125 samples per shard: with
    # chunks of N12_CHUNK_SCALARS each shard spans three full chunks and a
    # partial fourth.  In-process, so the shards see the patched chunk size.
    dict(model="SQUIM_d1", N=12, beta=0.05, samples=8_000, workers=1, seed=2, eps=0.005),
]
N12_CHUNK_SCALARS = 32 * 73


@pytest.mark.parametrize("kw", ONE_PASS_CONFIGS, ids=lambda kw: f"{kw['model']}-N{kw['N']}")
def test_one_pass_equals_one_call_per_observable(kw, monkeypatch):
    if kw["N"] == 12:
        monkeypatch.setattr(mc, "CHUNK_SCALARS", N12_CHUNK_SCALARS)
    cfg = EnsembleConfig(**kw)
    together = thermal_averages(cfg, OBSERVABLES)
    assert together == [thermal_averages(cfg, [obs])[0] for obs in OBSERVABLES]
    assert len({est.weight_ess for est in together}) == 1


def test_one_pass_spans_several_chunks():
    # the N = 12 case above only tests the chunk merge if it really has one
    kw = ONE_PASS_CONFIGS[-1]
    classes = chain_classes(kw["N"])[0].size
    assert classes == 73
    rows = N12_CHUNK_SCALARS // classes
    assert kw["workers"] == 1
    assert 3 * rows < kw["samples"] // mc.SHARDS < 4 * rows


@pytest.mark.parametrize("kw", [ONE_PASS_CONFIGS[2], ONE_PASS_CONFIGS[3]],
                         ids=["SCWM_WFE", "SQUIM_d1"])
def test_one_pass_worker_count_is_an_execution_detail(kw):
    one = thermal_averages(EnsembleConfig(workers=1, **kw), OBSERVABLES)
    two = thermal_averages(EnsembleConfig(workers=2, **kw), OBSERVABLES)
    assert one == two


def test_one_pass_keeps_request_order_and_repeats():
    cfg = EnsembleConfig(N=8, beta=10.0, model="SCWM", samples=20_000, seed=6)
    msq, disp, again = thermal_averages(cfg, ["msq", "dispersion", "msq"])
    assert msq == again
    assert disp == thermal_averages(cfg, ["dispersion"])[0]


def test_unknown_tag_anywhere_refused_before_sampling(monkeypatch):
    def no_sampling(*args, **kwargs):
        raise AssertionError("sampled before validating the observable tags")

    monkeypatch.setattr(mc, "map_shards", no_sampling)
    cfg = EnsembleConfig(N=4, beta=0.0, model="SCWM", samples=1000)
    for tags in (["energy"], ["msq", "energy"], ["msq", "dispersion", "Msq"]):
        with pytest.raises(InvalidParams, match="unknown observable"):
            thermal_averages(cfg, tags)


def test_weight_ess_is_the_budget_for_uniform_weights():
    # beta = 0: the tilted proposal is the flat law, every weight is exactly 1
    cfg = EnsembleConfig(N=8, beta=0.0, model="SCWM", samples=30_000, seed=1)
    est = thermal_averages(cfg, ["msq"])[0]
    assert est.weight_ess == cfg.samples
    # estimates built without it still construct
    assert math.isnan(McEstimate(0.1, 0.01, 10, 5.0).weight_ess)


def chain_partition(phi: np.ndarray) -> float:
    """E[exp(phi . w)] under the flat Dirichlet law on K = len(phi) cells.

    Hermite-Genocchi makes the expectation (K-1)! times the divided
    difference of exp at the nodes phi, and Opitz reads that off the corner
    of exp(diag(phi) + superdiag(1)), repeated nodes included.  Scaling the
    superdiagonal to 1..K-1 (a diagonal similarity) folds the (K-1)! in and
    keeps every entry of the exponential O(1).
    """
    k = phi.size
    return float(expm(np.diag(phi) + np.diag(np.arange(1.0, k), 1))[0, k - 1])


def chain_exact_averages(n_spins: int, beta: float, h: float = 1e-3) -> dict:
    """[m^2] and [D] of the chain from central differences of the exact Z."""
    m_conf, interaction, _ = chain_tables(n_spins)
    g = 2.0 * m_conf / n_spins
    phi = beta * interaction  # weight exp(-f) = exp(beta I . w)
    z = chain_partition(phi)
    msq = (chain_partition(phi + h * g) - 2.0 * z + chain_partition(phi - h * g)) / (h * h * z)
    gsq_mean = (chain_partition(phi + h * g * g) - chain_partition(phi - h * g * g)) / (2.0 * h * z)
    return {"msq": msq, "dispersion": gsq_mean - msq}


def test_chain_oracle_reproduces_the_flat_dirichlet_moments():
    # beta = 0: Z = 1, and [m^2] = sum g^2 / (K (K + 1)) over K = 2^N cells
    n_spins = 4
    g = 2.0 * chain_tables(n_spins)[0] / n_spins
    assert chain_partition(np.zeros(16)) == pytest.approx(1.0, abs=1e-12)
    exact = chain_exact_averages(n_spins, 0.0)
    assert exact["msq"] == pytest.approx(float(g @ g) / (16 * 17), rel=1e-5)
    assert exact["dispersion"] == pytest.approx(float(g @ g) / 16 - exact["msq"], rel=1e-5)


def test_squim_chain_matches_exact_divided_differences_at_positive_beta():
    exact = chain_exact_averages(4, 1.0)
    cfg = EnsembleConfig(N=4, beta=1.0, model="SQUIM_d1", samples=400_000, seed=3)
    for obs, est in zip(exact, thermal_averages(cfg, list(exact))):
        assert abs(est.mean - exact[obs]) <= 4.0 * est.std_error, (obs, est, exact[obs])


def test_infinite_t_exact_values():
    # N = 2: d = 6 coordinates, (c1 - c2) sum g^2 = (4/48) * 2 = 1/6
    assert infinite_T_msq_exact(2) == pytest.approx(1.0 / 6.0, abs=1e-15)
    g = g_values(8)
    assert infinite_T_msq_exact(8) == pytest.approx(
        float(g @ g) / (9.0 * 10.0), abs=1e-15
    )
    with pytest.raises(InvalidParams):
        infinite_T_msq_exact(1)


@pytest.mark.parametrize("n_spins", [2, 8, 32])
def test_beta_zero_matches_sphere_moments(n_spins):
    cfg = EnsembleConfig(N=n_spins, beta=0.0, model="SCWM", samples=200_000, seed=11)
    est = thermal_averages(cfg, ["msq"])[0]
    exact = infinite_T_msq_exact(n_spins)
    assert abs(est.mean - exact) < 3.0 * est.std_error
    assert est.std_error > 0.0
    # uniform weights at beta = 0: the numerator ESS is samples/(1 + CV^2)
    # of the observable itself, far above any weight-collapse level
    assert est.numerator_ess > 0.2 * cfg.samples


def test_beta_zero_brute_force_cross_check():
    # independent route: raw normalized Gaussians, no simplex shortcut
    n_spins = 2
    rng = np.random.default_rng(42)
    g = g_values(n_spins)
    z = rng.standard_normal((200_000, 2 * (n_spins + 1)))
    w = z[:, ::2] ** 2 + z[:, 1::2] ** 2
    w /= w.sum(axis=1, keepdims=True)
    msq = (w @ g) ** 2
    se = float(msq.std(ddof=1)) / math.sqrt(msq.size)
    assert abs(float(msq.mean()) - 1.0 / 6.0) < 3.0 * se


def test_shape_one_gamma_draws_are_the_exponential_draws():
    # the one-cell-per-column models draw at shape 1.0, and their outputs
    # stay those of standard_exponential only while numpy keeps this
    one = mc.shard_rng(3, 5).standard_gamma(1.0, (50, 9))
    assert np.array_equal(one, mc.shard_rng(3, 5).standard_exponential((50, 9)))


def test_squim_chain_beta_zero_oracle():
    # flat Dirichlet over K = 2^N cells: [m^2] = sum g^2 / (K (K+1)) with
    # sum g^2 = K / N, so 1/(N (2^N + 1)); at N = 8 the sampler draws 33
    # class columns, and K = 256 still sets the law
    for n_spins, seed in ((2, 7), (8, 4)):
        cfg = EnsembleConfig(N=n_spins, beta=0.0, model="SQUIM_d1", samples=200_000, seed=seed)
        est = thermal_averages(cfg, ["msq"])[0]
        assert est.weight_ess == cfg.samples
        assert abs(est.mean - 1.0 / (n_spins * (2**n_spins + 1))) < 3.0 * est.std_error


def test_entropy_weighting_shifts_mass_to_center():
    # binomial weights favor the m ~ 0 classes, lowering [m^2] below uniform
    plain = thermal_averages(
        EnsembleConfig(N=8, beta=0.0, model="SCWM", samples=100_000, seed=3), ["msq"]
    )[0]
    tilted = thermal_averages(
        EnsembleConfig(N=8, beta=0.0, model="SCWM_ENTROPY", samples=100_000, seed=3),
        ["msq"],
    )[0]
    gap_se = math.hypot(plain.std_error, tilted.std_error)
    assert plain.mean - tilted.mean > 3.0 * gap_se


def test_heating_raises_msq_for_scwm():
    # the exponent exp(-beta N (1 - m^2)) rewards aligned states
    cold = thermal_averages(
        EnsembleConfig(N=8, beta=40.0, model="SCWM", samples=100_000, seed=5), ["msq"]
    )[0]
    hot = thermal_averages(
        EnsembleConfig(N=8, beta=0.0, model="SCWM", samples=100_000, seed=5), ["msq"]
    )[0]
    assert cold.mean - hot.mean > 3.0 * math.hypot(cold.std_error, hot.std_error)


def test_wfe_beta_zero_is_the_flat_law():
    # beta = 0: both caps are the uniform sphere, every weight is exactly 1
    cfg = EnsembleConfig(N=8, beta=0.0, model="SCWM_WFE", omega=1.2, samples=200_000, seed=2)
    est = thermal_averages(cfg, ["msq"])[0]
    assert est.weight_ess == cfg.samples
    assert abs(est.mean - infinite_T_msq_exact(8)) < 3.0 * est.std_error


def test_wfe_matches_weighted_raw_gaussians():
    # independent route: uniform-sphere draws from raw normalized Gaussians,
    # weighted by exp(-f) with f = N beta (1 - m^2 + (omega - 1) D) written
    # out here, and self-normalised
    n_spins, beta, omega = 2, 1.0, 1.2
    g = g_values(n_spins)
    z = np.random.default_rng(8).standard_normal((400_000, 2 * (n_spins + 1)))
    w = z[:, ::2] ** 2 + z[:, 1::2] ** 2
    w /= w.sum(axis=1, keepdims=True)
    m = w @ g
    exact = {"msq": m * m, "dispersion": w @ (g * g) - m * m}
    weight = np.exp(-n_spins * beta * (1.0 - exact["msq"] + (omega - 1.0) * exact["dispersion"]))
    cfg = EnsembleConfig(N=n_spins, beta=beta, model="SCWM_WFE", omega=omega,
                         samples=200_000, seed=6)
    for obs, est in zip(exact, thermal_averages(cfg, list(exact))):
        ratio = float(weight @ exact[obs]) / float(weight.sum())
        se = math.sqrt(float((weight * weight) @ (exact[obs] - ratio) ** 2)) / float(weight.sum())
        assert abs(est.mean - ratio) <= 4.0 * math.hypot(est.std_error, se), (obs, est, ratio, se)


def test_wfe_exceeds_plain_at_low_temperature():
    # paired seeds: the wavefunction-energy correction pushes [m^2] up
    kw = dict(N=8, beta=40.0, samples=100_000, seed=7)
    plain = thermal_averages(EnsembleConfig(model="SCWM", **kw), ["msq"])[0]
    wfe = thermal_averages(EnsembleConfig(model="SCWM_WFE", omega=1.2, **kw), ["msq"])[0]
    assert wfe.mean - plain.mean > 3.0 * math.hypot(wfe.std_error, plain.std_error)


def test_worker_count_is_an_execution_detail():
    cfg1 = EnsembleConfig(N=8, beta=40.0, model="SCWM", samples=60_000, seed=9, workers=1)
    cfg2 = EnsembleConfig(N=8, beta=40.0, model="SCWM", samples=60_000, seed=9, workers=2)
    for obs in ("msq", "dispersion"):
        assert thermal_averages(cfg1, [obs])[0] == thermal_averages(cfg2, [obs])[0]


def test_signed_magnetization_is_refused():
    # it symmetrizes to 0 under the spin flip, so it is no observable
    cfg = EnsembleConfig(N=8, beta=15.0, model="SCWM", samples=20_000, seed=1)
    with pytest.raises(InvalidParams, match="'m_signed'"):
        thermal_averages(cfg, ["msq", "m_signed"])


def test_magnetized_fraction_monotone_in_threshold():
    means = []
    for eps in (0.0, 0.2, 0.5, 0.9):
        cfg = EnsembleConfig(
            N=8, beta=8.0, model="SCWM", samples=50_000, seed=4, eps=eps
        )
        means.append(thermal_averages(cfg, ["magnetized_fraction"])[0].mean)
    assert means[0] == 1.0
    assert all(a >= b for a, b in zip(means, means[1:]))


def test_degenerate_weights_guard():
    cfg = EnsembleConfig(
        N=32, beta=40.0, model="SCWM_WFE", omega=1.2, samples=20_000, seed=0
    )
    with pytest.raises(DegenerateWeights):
        thermal_averages(cfg, ["msq"])[0]


def test_observable_tuple_is_public():
    assert set(OBSERVABLES) == {"msq", "m_abs", "magnetized_fraction", "dispersion"}
    assert set(MODELS) == {"SQUIM_d1", "SCWM", "SCWM_WFE", "SCWM_ENTROPY"}


# ---------------------------------------------------------------------------
# enumerated product-form model
# ---------------------------------------------------------------------------


def test_esm_hand_values():
    res = esm_evaluate(2, 1.0)
    assert res.logZhat == pytest.approx(2.0 * math.log(8.0 / 9.0), abs=1e-14)
    assert res.msq_dispersion == pytest.approx(1.0 / 32.0, abs=1e-16)


def test_esm_dispersion_decreases_with_n():
    v8 = esm_evaluate(8, 1.0).msq_dispersion
    v16 = esm_evaluate(16, 1.0).msq_dispersion
    assert 0.0 < v16 < v8


def test_esm_beta_zero_is_flat():
    # at beta = 0 every factor is 1, so log Zhat
    # vanishes and the dispersion term is the bare sum of M^2 over a^2
    res = esm_evaluate(5, 0.0)
    assert res.logZhat == 0.0
    m_conf, _, _ = chain_tables(5)
    a = 2.0 * 2**5
    assert res.msq_dispersion == pytest.approx(float(np.sum(m_conf**2)) / a**2)


@given(st.integers(min_value=2, max_value=12), st.floats(min_value=0.0, max_value=50.0))
@settings(max_examples=60)
def test_esm_structural_bounds(n_spins, beta):
    res = esm_evaluate(n_spins, beta)
    # every factor of Zhat is 1/(1 + nonnegative), so log Zhat <= 0
    assert res.logZhat <= 0.0
    # denominators >= 1 can only shrink the beta = 0 dispersion
    assert 0.0 < res.msq_dispersion <= esm_evaluate(n_spins, 0.0).msq_dispersion


def test_esm_guards():
    with pytest.raises(InvalidParams):
        esm_evaluate(1, 1.0)
    with pytest.raises(InvalidParams):
        esm_evaluate(2, -1.0)
    for beta in (math.inf, -math.inf, math.nan):
        with pytest.raises(InvalidParams, match="beta"):
            esm_evaluate(2, beta)
    with pytest.raises(InvalidParams):
        EsmResult(logZhat=0.0, msq_dispersion=-0.1, N=2, beta=1.0)
