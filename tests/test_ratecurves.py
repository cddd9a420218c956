"""Tilted interval sampling, dual-plane scans, and the two rate curves.

The tilted inverse-CDF sampler has its own analytic CDF as an oracle, the
domain scan must honor the shard determinism contract, the scan shard's
columns must be the kernel's over every draw, bit for bit, the I2 grid
shard, which maps one set of uniforms to every x and skips the kernel where
theta2 <= 0, must count exactly what the kernel over every draw of a fresh
stream counts, one call over a grid must give each x's own point, and the
axis rate
I1 is k at the constraint end Q, which a dense grid of k along the axis
segment must never undercut.  I2 is minus the minimum of c over the
quadrant theta1 <= 0, theta2 >= 0; its tests pin the certificate, the
dual value against quadrature of c, reference values, and the bracket
I1 <= I2 <= (sampled minimum of k over G) on every seed.  The Theorem-2
classifier's minima of beta*x + I(x) are checked against a refined grid of
x and against the asymptote log(4 beta) - 1 of min g1.
"""

import math

import numpy as np
import pytest

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from squimld import (
    DualNotCertified,
    InvalidParams,
    RateCurvePoint,
    RateParams,
    compute_I1,
    compute_I2,
    domain_scan,
)
from scipy.integrate import quad

from squimld.gecore import (
    QMIN_STRICT,
    _b_of,
    _pieces_arr,
    _q_shape,
    axis_k_t,
    solve_Q_detail,
)
from squimld import ratecurves
from squimld.parallel import shard_rng
from squimld.ratecurves import (
    COMBOS,
    DUAL_GAP_TOL,
    SCAN_DTYPE,
    SHARDS,
    GFunctions,
    _i2_grid_shard,
    _in_G,
    _ray_points,
    _scan_shard,
    _tested_k,
    _uniforms,
    biased_cdf,
    classify_theorem_two,
    solve_dual,
    tilted_sample,
)

P07 = RateParams(x=0.7, eps=0.3)
P03_CURVE = RateParams(x=0.3, eps=0.1)
P06 = RateParams(x=0.6, eps=0.1)


# ---------------------------------------------------------------------------
# tilted interval sampling
# ---------------------------------------------------------------------------


# tilted toward the lower end a or the upper end b
upper_ends = pytest.mark.parametrize("upper", [False, True], ids=["TowardA", "TowardB"])


@upper_ends
def test_zero_tilt_is_linear_in_either_direction(upper):
    u = np.linspace(0.0, 1.0, 11)
    s = tilted_sample(u, -2.0, 3.0, 0.0, upper)
    assert np.allclose(s, -2.0 + 5.0 * u, atol=1e-15)
    assert np.allclose(biased_cdf(s, -2.0, 3.0, 0.0, upper), u, atol=1e-15)


@given(
    st.floats(min_value=0.0, max_value=1.0),
    st.floats(min_value=1e-3, max_value=400.0),
    st.booleans(),
)
@settings(max_examples=200)
def test_cdf_inverts_sampler(u, eta, upper):
    s = float(tilted_sample(u, -1.5, 2.5, eta, upper))
    assert -1.5 <= s <= 2.5
    assert float(biased_cdf(s, -1.5, 2.5, eta, upper)) == pytest.approx(u, abs=1e-9)


@given(
    st.floats(min_value=0.0, max_value=1.0),
    st.floats(min_value=0.0, max_value=1.0),
    st.floats(min_value=1e-3, max_value=400.0),
    st.booleans(),
)
@settings(max_examples=100)
def test_sampler_is_monotone_in_u(u1, u2, eta, upper):
    s1 = float(tilted_sample(u1, 0.0, 1.0, eta, upper))
    s2 = float(tilted_sample(u2, 0.0, 1.0, eta, upper))
    if u1 < u2:
        assert s1 <= s2
    elif u1 > u2:
        assert s1 >= s2


def test_tilt_direction_moves_mass():
    u = np.linspace(0.01, 0.99, 99)
    assert float(np.mean(tilted_sample(u, 0.0, 1.0, 8.0, True))) > 0.8
    assert float(np.mean(tilted_sample(u, 0.0, 1.0, 8.0, False))) < 0.2


def test_extreme_tilt_stays_finite():
    # eta*(b - a) in the hundreds must not overflow or produce NaN
    s = tilted_sample(np.array([0.0, 1e-12, 0.5, 1.0 - 1e-12, 1.0]), -1.0, 1.0, 500.0, True)
    assert np.all(np.isfinite(s))
    assert np.all((s >= -1.0) & (s <= 1.0))


@upper_ends
@pytest.mark.parametrize("rate", [1e-6, 1.0, 30.0, 300.0, 1600.0, 2000.0])
def test_one_log1p_sampler_inverts_its_cdf_to_1e12(rate, upper):
    # rate = eta*(b - a); the sampler's own stream of u plus both ends
    iv = (-1.5, 2.5, rate / 4.0, upper)
    u = np.concatenate([np.random.default_rng(7).random(10**6),
                        [0.0, 2.0**-53, 0.5, 1.0 - 2.0**-53]])
    s = tilted_sample(u, *iv)
    assert np.all((s >= -1.5) & (s <= 2.5))
    assert float(np.max(np.abs(biased_cdf(s, *iv) - u))) <= 1e-12
    assert np.all(np.diff(tilted_sample(np.sort(u), *iv)) >= 0.0)


# ---------------------------------------------------------------------------
# domain sampling and scanning
# ---------------------------------------------------------------------------


def test_domain_scan_columns_are_consistent():
    theta1, theta2, in_d, in_g, k = domain_scan(P07, 20_000, seed=5)
    assert len(theta1) == 20_000
    # G is carved out of D, and k is finite exactly on the strict interior
    assert np.all(in_d[in_g])
    assert np.all(np.isfinite(k[in_g]))
    assert np.all(np.isnan(k[~in_d]))
    assert in_d.sum() > 1000
    # membership recheck from the endpoint and vertex values of q
    assert np.array_equal(_q_shape(theta1, theta2, _b_of(P07, theta1, theta2))[3], in_d)


def test_domain_scan_is_deterministic_across_workers():
    a = domain_scan(P07, 6_000, seed=11, workers=1)
    b = domain_scan(P07, 6_000, seed=11, workers=2)
    for col_a, col_b in zip(a, b):
        assert np.array_equal(col_a, col_b, equal_nan=True)
    c = domain_scan(P07, 6_000, seed=12, workers=1)
    assert not np.array_equal(a[0], c[0])


def test_domain_scan_g_points_have_positive_theta2():
    _, theta2, _, in_g, _ = domain_scan(P07, 100_000, seed=0)
    assert in_g.sum() > 100
    assert np.all(theta2[in_g] > 0.0)


@given(
    st.floats(min_value=0.05, max_value=0.95),
    st.floats(min_value=0.01, max_value=0.99),
    st.floats(min_value=1e-6, max_value=0.999),
    st.floats(min_value=0.0, max_value=0.99),
)
@settings(max_examples=300, deadline=None)
def test_no_point_with_theta2_at_most_zero_is_in_G(x, eps_frac, s_frac, f):
    # G lies in theta2 > 0: for theta2 <= 0, q(y) >= q(-y) on y > 0, so
    # Int y/q <= 0 and dc/dtheta2 = Int y/q - eps Int 1/q < 0.  _i2_shard
    # skips the kernel on those draws because of this.
    params = RateParams(x=x, eps=eps_frac * math.sqrt(1.0 - x))
    top = 1.0 / (2.0 * (1.0 - x))  # the axis part of D is (P, top]
    theta1 = params.p_left + s_frac * (top - params.p_left)
    # theta2 = -f m inside D: the ray through P keeps q(+-1) >= 0, and for
    # theta1 > 0 the vertex value b - theta2^2/(2 theta1) >= 0 bounds m too
    m = x / (1.0 + params.eps) * (theta1 - params.p_left)
    if theta1 > 0.0:
        b0 = 1.0 - 2.0 * theta1 * (1.0 - x)
        e = params.eps * theta1
        m = min(m, math.sqrt(4.0 * e * e + 2.0 * b0 * theta1) - 2.0 * e)
    pieces = _pieces_arr(params, theta1, -f * m)
    assume(pieces["ok"][0])
    assert pieces["grad2"][0] < 0.0


def _fresh_draws(params, shard, n):
    """n ray-scheme draws at params from a fresh (seed 1, shard) stream."""
    return _ray_points(params, *_uniforms(shard_rng(1, shard), n), COMBOS[shard % len(COMBOS)])


def test_scan_shard_matches_the_kernel_over_every_draw():
    # one shard per (eta, direction) combo; the scan runs the kernel only on
    # the draws in D, and its five columns equal the draws and the kernel's
    # in_D, G verdict and k over every draw, bit for bit
    counts = [20_000] * len(COMBOS)
    hits = 0
    for shard in range(len(COMBOS)):
        theta1, theta2 = _fresh_draws(P07, shard, counts[shard])
        pieces = _pieces_arr(P07, theta1, theta2)
        oracle = (theta1, theta2, pieces["in_D"], _in_G(pieces), pieces["k"])
        cols = _scan_shard(shard, (P07, counts, 1))
        for name, col, want in zip(SCAN_DTYPE.names, cols, oracle):
            assert col.dtype == want.dtype and col.tobytes() == want.tobytes(), (shard, name)
        hits += int(np.count_nonzero(oracle[3]))
    assert hits > 0


@pytest.mark.parametrize("x", [0.1, 0.4, 0.7])
def test_i2_shard_matches_the_kernel_over_every_draw(x):
    # one shard per (eta, direction) combo; the grid shard maps one set of
    # uniforms to every x and runs the kernel only on the draws in D with
    # theta2 > 0, while the oracle draws x from a fresh stream and runs the
    # kernel on every draw
    grid = tuple(RateParams(x=v, eps=0.1) for v in (0.1, 0.4, 0.7))
    at = [p.x for p in grid].index(x)
    counts = [100_000] * len(COMBOS)
    hits = 0
    for shard in range(len(COMBOS)):
        theta1, theta2 = _fresh_draws(grid[at], shard, counts[shard])
        pieces = _pieces_arr(grid[at], theta1, theta2)
        g_mask = _in_G(pieces)
        k_min = float(pieces["k"][g_mask].min()) if g_mask.any() else np.inf
        oracle = (int(np.count_nonzero(pieces["in_D"])), int(np.count_nonzero(g_mask)), k_min)
        assert _i2_grid_shard(shard, (grid, counts, 1))[at] == oracle
        hits += oracle[1]
    assert hits > 0


def test_kernel_given_the_shard_shape_equals_the_kernel_computing_it():
    # the samplers hand the kernel the (q(1), q(-1), q_min, in_D) of their
    # one D test on the draws they pick; the kernel over every draw,
    # running its own D test, gives every key bit for bit there.  Two draws
    # on the q(1) = 0 edge of D, 0 <= q_min < QMIN_STRICT, take ok from
    # the q_min passed in, and the shared sampler path finds them in D,
    # with k NaN and not in G.
    params = RateParams(x=0.4, eps=0.1)
    theta1, theta2 = _fresh_draws(params, 0, 20_000)
    theta1 = np.append(theta1, [-0.75, -0.75])
    theta2 = np.append(theta2, [2.0 / 9.0, np.nextafter(np.nextafter(2.0 / 9.0, 0.0), 0.0)])
    shape = _q_shape(theta1, theta2, _b_of(params, theta1, theta2))
    picked = shape[3] & (theta2 > 0.0)
    given = _pieces_arr(params, theta1[picked], theta2[picked],
                        shape=tuple(v[picked] for v in shape))
    computed = _pieces_arr(params, theta1, theta2)
    assert np.all(picked[-2:]) and np.all(computed["q_min"][-2:] < QMIN_STRICT)
    assert not np.any(given["ok"][-2:]) and np.count_nonzero(given["ok"]) > 1000
    assert given.keys() == computed.keys()
    for key, value in computed.items():
        value = value[picked]
        assert value.dtype == given[key].dtype and value.tobytes() == given[key].tobytes(), key
    in_d, in_g, k = _tested_k(params, theta1[-2:], theta2[-2:], theta2[-2:] > 0.0)
    assert np.all(in_d) and np.all(np.isnan(k)) and not np.any(in_g)


# ---------------------------------------------------------------------------
# rate curves
# ---------------------------------------------------------------------------


def test_i1_frozen_values():
    # k at Q in the stretched coordinate reproduces these digits
    assert compute_I1(RateParams(x=0.1, eps=0.1)) == pytest.approx(
        1.6888794582367184, abs=1e-11
    )
    assert compute_I1(RateParams(x=0.02, eps=0.1)) == pytest.approx(
        3.2983173665480317, abs=1e-10
    )
    # zero exactly on x >= 2/3
    assert compute_I1(RateParams(x=0.7, eps=0.3)) == 0.0
    assert compute_I1(RateParams(x=2.0 / 3.0, eps=0.1)) == 0.0


@pytest.mark.parametrize("x, i1", [
    (0.1, 1.6888794582362467),
    (0.2, 0.99582344936466587),
    (0.3, 0.59294863786307525),
    (0.5, 0.13128101081181437),
    (0.6, 0.022986955534743686),
    (0.65, 0.0015268835411322143),
    (0.66, 2.4766052724702668e-4),
    (0.666, 2.497623250584781e-6),
    (0.6666, 2.4997619468497387e-8),
])
def test_i1_matches_mpmath(x, i1):
    # k at the root of H, both in mpmath at 50 digits; near x = 2/3 the
    # absolute bound is a relative one of up to 4e-8
    assert compute_I1(RateParams(x, 0.01)) == pytest.approx(i1, rel=0.0, abs=1e-15)


def test_i1_is_k_at_q_and_no_axis_point_undercuts_it():
    for x in (0.02, 0.1, 0.3, 0.6, 0.65):
        t_q = solve_Q_detail(x).t
        i1 = compute_I1(RateParams(x=x, eps=0.1))
        assert i1 > 0.0
        assert i1 == float(axis_k_t(t_q, x))
        # (0, t_Q] is the whole constraint segment; sample it geometrically
        # and densely next to Q, where k is flattest
        grid = np.concatenate([
            np.geomspace(t_q * 1e-12, t_q, 20_001),
            t_q * (1.0 - np.linspace(0.0, 1e-6, 2_001)),
        ])
        k = axis_k_t(grid, x)
        assert np.all(np.isfinite(k)), x
        assert k.min() >= i1, x


def test_i1_non_increasing_in_x():
    vals = [compute_I1(RateParams(x=x, eps=0.1)) for x in np.arange(0.1, 0.75, 0.05)]
    assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))


def test_compute_i2_budget_guard():
    # every budget n >= 1 has an outcome, a value or the empty-G marker
    for n in (0, -1):
        with pytest.raises(InvalidParams, match=f"n_samples must be >= 1, got {n}"):
            compute_I2([P06], n)
    assert compute_I2([P06], 1)[0].samples == 1


def test_compute_i2_smoke():
    [pt] = compute_I2([P06], 100_000, seed=0)
    assert pt.accepted_G > 1000
    assert pt.I2 >= pt.I1 >= 0.0
    # frozen from a 1e7-sample reference run: I2(0.6) ~ 0.0333
    assert pt.I2 == pytest.approx(0.0333, abs=0.002)
    assert pt.noise_band > 0.0
    assert pt.theta_at_min is not None


def test_compute_i2_deterministic_across_workers():
    a = compute_I2([P06], 50_000, seed=2, workers=1)
    b = compute_I2([P06], 50_000, seed=2, workers=2)
    assert a == b


def test_no_constraint_points_marker():
    # at x = 0.1 the G hit rate is ~2e-6 per draw, so 3e4 samples miss it:
    # the point is the empty-G marker, and keeps the dual's record
    params = RateParams(x=0.1, eps=0.1)
    [pt] = compute_I2([params], 30_000, seed=0)
    assert math.isnan(pt.I2) and pt.accepted_G == 0 and pt.samples == 30_000
    assert pt.sampled_k_min == math.inf and pt.noise_band == math.inf
    assert pt.I1 == compute_I1(params)
    dual = solve_dual(params)
    assert (pt.theta_at_min, pt.dual_gap, pt.newton_iters) == (dual.theta, dual.gap,
                                                                dual.iterations)


def test_marker_point_without_a_certified_dual():
    # x = 0.05 misses G, and the dual's start point is not strictly inside D
    params = RateParams(x=0.05, eps=0.1)
    with pytest.raises(DualNotCertified):
        solve_dual(params)
    [pt] = compute_I2([params], 30_000, seed=0)
    assert math.isnan(pt.I2) and pt.accepted_G == 0
    assert pt.theta_at_min is None and math.isnan(pt.dual_gap) and pt.newton_iters == 0


def test_dual_refusal_is_raised_when_the_draws_hit_g(monkeypatch):
    import squimld.ratecurves

    monkeypatch.setattr(squimld.ratecurves, "DUAL_GAP_TOL", -1.0)
    # x = 0.1 misses G, so its marker point stands without the dual; x = 0.6
    # hits G, and the refusal there is raised and names it
    with pytest.raises(DualNotCertified, match=r"at x=0\.6, ") as err:
        compute_I2([RateParams(x=0.1, eps=0.1), P06], 30_000, seed=0)
    assert err.value.x == 0.6
    [pt] = compute_I2([RateParams(x=0.1, eps=0.1)], 30_000, seed=0)
    assert pt.accepted_G == 0 and pt.theta_at_min is None


@pytest.mark.parametrize("workers", [1, 2])
def test_one_grid_call_equals_the_one_x_calls(workers):
    # every point of one call over the grid is the point of that x's own
    # call; at 3e4 draws x = 0.05 and 0.1 miss G, and x = 0.05 has no dual
    grid = [RateParams(x=x, eps=0.1) for x in (0.05, 0.1, 0.3, 0.6)]
    points = compute_I2(grid, 30_000, seed=0, workers=workers)
    assert points == [compute_I2([params], 30_000, seed=0, workers=workers)[0]
                      for params in grid]
    assert [pt.x for pt in points] == [params.x for params in grid]
    assert [pt.accepted_G == 0 for pt in points] == [True, True, False, False]
    assert math.isnan(points[0].I2) and math.isnan(points[1].I2)
    assert points[0].theta_at_min is None and points[1].theta_at_min is not None
    assert all(pt.I1 <= pt.I2 <= pt.sampled_k_min for pt in points[2:])


# I2 at eps = 0.1 from an independent solve (projected Newton with
# a finite-difference Hessian of the closed-form gradient, to |gap| 1e-14)
DUAL_REFERENCE = {
    0.2: 0.995873198020,
    0.3: 0.593594418158,
    0.4: 0.320884732588,
    0.5: 0.136606474290,
    0.6: 0.033278444074,
    0.7: 0.015045285075,
}
CURVE_X = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7)


def _ends(params, t1, t2):
    """q(1), q(-1) from s = t1 - P, the form that does not cancel next to P."""
    s = t1 - params.p_left
    return (2.0 * params.x * s - 2.0 * (1.0 - params.eps) * t2,
            2.0 * params.x * s + 2.0 * (1.0 + params.eps) * t2)


def _grad_from_ends(params, t1, t2):
    shape = _q_shape(t1, t2, _b_of(params, t1, t2), _ends(params, t1, t2))
    pieces = _pieces_arr(params, t1, t2, shape=shape)
    return float(pieces["grad1"][0]), float(pieces["grad2"][0])


@pytest.mark.parametrize("x", sorted(DUAL_REFERENCE))
def test_dual_matches_reference_values(x):
    sol = solve_dual(RateParams(x=x, eps=0.1))
    assert sol.value == pytest.approx(DUAL_REFERENCE[x], abs=1e-9)


def test_dual_minimizer_sits_on_the_theta1_edge_at_x07():
    sol = solve_dual(RateParams(x=0.7, eps=0.1))
    assert sol.theta[0] == 0.0
    assert sol.theta[1] == pytest.approx(0.1509086, abs=1e-7)


@pytest.mark.parametrize("x", CURVE_X)
def test_dual_gap_is_certified_on_the_curve_grid(x):
    params = RateParams(x=x, eps=0.1)
    sol = solve_dual(params)
    assert 0.0 <= sol.gap <= DUAL_GAP_TOL
    # the certificate is theta . grad c at theta*, and theta* lies in G
    # there: the gradient is in the cone {g1 <= 0, g2 >= 0} up to roundoff
    g1, g2 = _grad_from_ends(params, *sol.theta)
    assert abs(sol.theta[0] * g1 + sol.theta[1] * g2) <= DUAL_GAP_TOL
    assert g1 <= 1e-12 and g2 >= -1e-12
    assert sol.value >= compute_I1(params)


@pytest.mark.parametrize("x", CURVE_X)
def test_dual_value_is_minus_c_by_quadrature(x):
    params = RateParams(x=x, eps=0.1)
    sol = solve_dual(params)
    t1, t2 = sol.theta
    q1, qm1 = _ends(params, t1, t2)

    def log_q(y):
        return math.log(2.0 * t1 * (y * y - 1.0) + 0.5 * (q1 * (1.0 + y) + qm1 * (1.0 - y)))

    half = 0.5 * quad(log_q, -1.0, 1.0, epsabs=1e-12, epsrel=1e-12, limit=200)[0]
    assert sol.value == pytest.approx(half, abs=1e-10)


def test_i2_is_bracketed_by_i1_and_the_sampled_minimum_on_every_seed():
    points = [compute_I2([P03_CURVE], 200_000, seed=seed)[0] for seed in range(4)]
    for pt in points:
        assert pt.I1 <= pt.I2 <= pt.sampled_k_min
        assert pt.dual_gap <= DUAL_GAP_TOL
    # the dual value does not depend on the sampler's seed
    assert len({pt.I2 for pt in points}) == 1
    assert len({pt.theta_at_min for pt in points}) == 1


def test_rate_curve_point_validation():
    with pytest.raises(InvalidParams):
        RateCurvePoint(x=0.5, I1=-0.1, I2=0.2, accepted_G=1, samples=10)
    with pytest.raises(InvalidParams):
        RateCurvePoint(x=0.5, I1=0.3, I2=0.1, accepted_G=1, samples=10)
    # NaN I2 marks an empty constraint set and must construct fine
    pt = RateCurvePoint(x=0.5, I1=0.3, I2=math.nan, accepted_G=0, samples=10)
    assert math.isnan(pt.I2)


# ---------------------------------------------------------------------------
# Theorem-2 classifier: min over x of beta*x + I_i(x)
# ---------------------------------------------------------------------------


def grid_min(rate, beta, lo, hi, n=60):
    """Minimum of beta*x + rate(x) over a log-spaced grid of n points in
    [lo, hi], then over n points spanning the two cells around the first
    grid's argmin."""
    for _ in range(2):
        xs = np.geomspace(lo, hi, n)
        g = beta * xs + np.array([rate(float(x)) for x in xs])
        j = int(np.argmin(g))
        lo, hi = xs[max(j - 1, 0)], xs[min(j + 1, n - 1)]
    return float(g[j])


def i1_of(x):
    return compute_I1(RateParams(x=x, eps=0.1))


def i2_of(x):
    return solve_dual(RateParams(x=x, eps=0.1)).value


@pytest.mark.parametrize("beta", [0.5, 2.0, 5.0])
def test_classifier_minima_match_a_grid(beta):
    res = classify_theorem_two(beta, 0.1)
    for found, rate, hi in ((res.g1_min, i1_of, 0.666), (res.g2_min, i2_of, 0.98)):
        oracle = grid_min(rate, beta, 0.1, hi)
        assert found <= oracle + 1e-13
        assert oracle - found <= 1e-6


@pytest.mark.parametrize("beta", [8.0, 10.0, 12.0])
def test_g1_min_meets_its_asymptote(beta):
    # x* = 1/beta and I1 = -log x - 2 + 2 log 2 + O(e^{-2/x}), measured
    # g1 - (log 4 beta - 1) = 2.0 e^{-2 beta}
    g1 = classify_theorem_two(beta, 0.1).g1_min
    assert abs(g1 - (math.log(4.0 * beta) - 1.0)) <= 3.0 * math.exp(-2.0 * beta)


def test_classifier_tags_and_positive_ratio_rate():
    # from beta ~ 8 on, ratio_rate ~ e^{-2 beta} is small: 3.55e-7 at beta = 8
    for beta in (0.05, 0.5, 2.0, 5.0, 8.0, 10.0, 12.0):
        res = classify_theorem_two(beta, 0.1)
        assert isinstance(res, GFunctions)
        assert res.case_tag == "N2D2", beta
        # the ratio of Laplace sums must decay
        assert res.ratio_rate > 0.0, beta
        assert res.g1_min <= res.g2_min
    # tiny beta: beta itself undercuts min g2, while g1' = beta > 0 at
    # x = 2/3 keeps min g1 below (2/3) beta, so D1 never occurs
    assert classify_theorem_two(1e-3, 0.1).case_tag == "N1D2"


@pytest.mark.parametrize("beta", [8.0, 13.0])
def test_classifier_solves_each_x_once(monkeypatch, beta):
    # the direction test at x0, root_toward's first point and the value at
    # the root each ask for an x the search has already solved
    solved = []

    def counted(params):
        solved.append(params.x)
        return solve_dual(params)

    monkeypatch.setattr(ratecurves, "solve_dual", counted)
    classify_theorem_two(beta, 0.1)
    assert solved and len(solved) == len(set(solved))


def test_compute_I2_solves_Q_once_per_x(monkeypatch):
    # the dual's start point and I1 share one root; the default grid has
    # six x below 2/3 and one (0.7) with no Q
    solved = []

    def counted(x):
        solved.append(x)
        return solve_Q_detail(x)

    monkeypatch.setattr(ratecurves, "solve_Q_detail", counted)
    grid = [RateParams(x=x, eps=0.1) for x in CURVE_X]
    points = compute_I2(grid, 200, seed=1, workers=1)
    assert solved == [x for x in CURVE_X if x < 2.0 / 3.0]
    assert [pt.I1 for pt in points] == [compute_I1(params) for params in grid]


def test_classifier_rejects_bad_params():
    for beta in (0.0, -1.0, math.nan):
        with pytest.raises(InvalidParams):
            classify_theorem_two(beta, 0.1)
    for eps in (0.0, 1.0):
        with pytest.raises(InvalidParams):
            classify_theorem_two(1.0, eps)


def test_classifier_refusal_names_beta():
    # the search starts at x = 1/201, inside the range where the dual
    # cannot start from Q
    with pytest.raises(DualNotCertified, match="beta=200.0") as err:
        classify_theorem_two(200.0, 0.1)
    assert err.value.iterations == 0 and err.value.eps == 0.1


def test_eta_schedule_default_has_uniform_pass():
    # a plain pass first, then each tilt, rising, with theta1 toward its
    # lower end, then its upper end
    assert COMBOS[0] == (0.0, False)
    assert COMBOS[1:] == tuple((eta, upper) for eta in (2.0, 8.0, 32.0)
                               for upper in (False, True))
    assert SHARDS % len(COMBOS) == 0
