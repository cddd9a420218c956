"""Transition-bound pipeline: parabola weights, dual, and the rare event.

p(theta) has a direct quadrature oracle, the Legendre dual obeys the
pointwise inequality p*(y) >= theta*y - p(theta) for every admissible
probe theta, and the tilted rare-event estimator is cross-checked against
brute-force simulation at sizes where the event is still common enough to
count directly, and against the exact Daniels/Imhof contour integral at
N = 50; its chi-square pair kernel is checked coordinate by coordinate
against chi_1^2.  The headline values at (omega, eps) = (1.2, 0.1) are
frozen to the minimum of p found by adaptive quadrature of the integrand
with a bounded scalar minimizer, a route that shares no code with the
closed form.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats
from scipy.integrate import quad

from squimld import (
    HypothesisViolation,
    InvalidParams,
    OutOfThetaRange,
    WfeParams,
    admissibility_bound,
    beta_critical,
    check_hypotheses,
    p_star,
    p_star_inf,
    p_theta,
    rare_event_rate_mc,
)
from squimld import wfe
from squimld.parallel import shard_rng
from squimld.wfe import (
    RARE_BLOCK_WORDS,
    _chi2_pair_block,
    _p_and_slope,
    _pair_coefficients,
    a_extremes,
    a_of_x,
    grid_weights,
    psi_weighted,
    solve_tilt,
    theta_range,
    x_lower_root,
)

P12 = WfeParams(omega=1.2, eps=0.1)


def p_theta_quad(theta: float, p: WfeParams, epsabs: float = 1e-13) -> float:
    """p(theta) by adaptive quadrature of log(1 - 2 theta A(x)).

    The vertex of A is passed as a split point: near the ends of the
    admissible interval the integrand develops an integrable logarithmic
    singularity there (or at an endpoint for theta < 0).
    """
    _, _, x_at_max = a_extremes(p)
    pts = [x_at_max] if -1.0 < x_at_max < 1.0 else None
    val, _err = quad(
        lambda x: np.log1p(-2.0 * theta * a_of_x(x, p)),
        -1.0, 1.0, points=pts, limit=200, epsabs=epsabs, epsrel=1e-13,
    )
    return -0.25 * val


def slope_quad(theta: float, p: WfeParams) -> float:
    """p'(theta) = 1/2 Int A/(1 - 2 theta A) by adaptive quadrature."""
    val, _err = quad(
        lambda x: a_of_x(x, p) / (1.0 - 2.0 * theta * a_of_x(x, p)),
        -1.0, 1.0, limit=200, epsabs=0.0, epsrel=1e-13,
    )
    return 0.5 * val


def test_admissibility_bound_value():
    # r = 1/6, bound = (1 + sqrt(1/3))^2 / 4, approximately 0.622
    assert admissibility_bound(1.2) == pytest.approx(0.6220084679281462, abs=1e-12)
    assert abs(admissibility_bound(1.2) - 0.622) < 5e-4


def test_check_hypotheses_regions():
    assert check_hypotheses(1.2, 0.1)
    assert check_hypotheses(1.2, 0.1, delta=0.05)
    assert not check_hypotheses(1.0, 0.1)
    assert not check_hypotheses(4.0 / 3.0, 0.1)
    assert not check_hypotheses(1.5, 0.1)
    assert not check_hypotheses(1.2, 0.7)
    assert not check_hypotheses(1.2, 0.0)
    assert not check_hypotheses(1.2, 0.1, delta=-1.0)


def test_params_validation_and_defaults():
    assert P12.r == pytest.approx(1.0 / 6.0)
    assert P12.delta == 0.1  # saturation default delta = eps
    assert WfeParams(omega=1.2, eps=0.1, delta=0.03).delta == 0.03
    with pytest.raises(HypothesisViolation):
        WfeParams(omega=1.0, eps=0.1)
    with pytest.raises(HypothesisViolation):
        WfeParams(omega=1.4, eps=0.1)
    with pytest.raises(HypothesisViolation):
        WfeParams(omega=1.2, eps=0.9)
    with pytest.raises(HypothesisViolation):
        WfeParams(omega=1.2, eps=0.1, delta=0.0)


def test_parabola_extremes():
    a_min, a_max, x_at_max = a_extremes(P12)
    # vertex sqrt(delta)/(2r) = 3 sqrt(0.1) < 1 sits inside the interval,
    # so the interval max equals the whole-line max delta(4-3w)/(4(w-1))
    assert x_at_max == pytest.approx(3.0 * math.sqrt(0.1))
    assert a_max == pytest.approx(0.05, abs=1e-15)
    a_max_line = P12.delta * (4.0 - 3.0 * P12.omega) / (4.0 * (P12.omega - 1.0))
    assert a_max == pytest.approx(a_max_line, abs=1e-15)
    assert a_min == pytest.approx(a_of_x(-1.0, P12))
    assert a_min < 0.0 < a_max
    xs = np.linspace(-1.0, 1.0, 2001)
    vals = a_of_x(xs, P12)
    assert float(vals.max()) <= a_max + 1e-12
    assert float(vals.min()) >= a_min - 1e-12


def test_lower_root_is_a_zero_inside_the_interval():
    x0 = x_lower_root(P12)
    assert 0.0 < x0 < 1.0
    assert a_of_x(x0, P12) == pytest.approx(0.0, abs=1e-14)


def test_theta_range_brackets_zero():
    lo, hi = theta_range(P12)
    assert lo < 0.0 < hi
    assert hi == pytest.approx(10.0)  # 1/(2 * 0.05)


def test_p_theta_oracle_and_guards():
    assert p_theta(0.0, P12) == 0.0
    xs = np.linspace(-1.0, 1.0, 400_001)
    for theta in (-0.5, 1.0, 6.0):
        ref = -0.25 * float(
            np.trapezoid(np.log1p(-2.0 * theta * a_of_x(xs, P12)), xs)
        )
        assert p_theta(theta, P12) == pytest.approx(ref, abs=1e-9)
    with pytest.raises(OutOfThetaRange):
        p_theta(10.0, P12)
    with pytest.raises(OutOfThetaRange):
        p_theta(-2.0, P12)


def test_p_theta_matches_quadrature():
    lo, hi = theta_range(P12)
    inner = np.linspace(lo, hi, 18)[1:-1]
    ends = [lo + 1e-3, lo + 1e-2, hi - 1e-2, hi - 1e-3]
    thetas = np.concatenate([inner, ends])
    assert np.any(thetas < 0.0)
    for theta in thetas:
        assert p_theta(float(theta), P12) == pytest.approx(
            p_theta_quad(float(theta), P12), abs=1e-12
        )


@pytest.mark.parametrize("theta", [1e-12, 1e-11, 1e-10, 5e-10])
def test_p_theta_near_zero_keeps_the_quadratic_term(theta):
    # theta * r <= 1e-10: dropping the 2*theta*r*y^2 term of q here (as the
    # kernel once did for such tiny t1) cost 36 % of p.
    assert theta * P12.r <= 1e-10
    ref = p_theta_quad(theta, P12, epsabs=0.0)
    assert p_theta(theta, P12) == pytest.approx(ref, rel=1e-6, abs=1e-16)


@pytest.mark.parametrize("theta", [1e-12, 1e-11])
def test_p_and_slope_keep_full_relative_precision_near_zero(theta):
    # p and p' are O(theta) here: rounding b = 1 + 2 theta delta before the
    # kernel, or forming p' as (Int 1/q - 2)/(4 theta), costs ~1e-4 of them
    p_val, slope, _ = _p_and_slope(theta, P12)
    assert p_val == pytest.approx(p_theta_quad(theta, P12, epsabs=0.0), rel=1e-12, abs=0.0)
    assert slope == pytest.approx(slope_quad(theta, P12), rel=1e-12, abs=0.0)


def test_p_theta_is_convex_on_probes():
    thetas = np.linspace(-0.6, 8.0, 25)
    vals = [p_theta(float(t), P12) for t in thetas]
    second = np.diff(vals, 2)
    assert np.all(second > -1e-10)


@given(st.floats(min_value=-2.0, max_value=5.0), st.floats(min_value=-0.8, max_value=9.5))
@settings(max_examples=20, deadline=None)
def test_dual_dominates_every_probe(y, theta):
    # p*(y) = sup_theta {theta y - p(theta)} can never fall below one probe
    assert p_star(y, P12) >= theta * y - p_theta(theta, P12) - 1e-7


def test_dual_is_convex_in_y():
    ys = np.geomspace(0.05, 20.0, 12)
    vals = np.array([p_star(float(y), P12) for y in ys])
    # convexity in y, checked on chords
    for i in range(1, len(ys) - 1):
        lam = (ys[i] - ys[i - 1]) / (ys[i + 1] - ys[i - 1])
        chord = (1.0 - lam) * vals[i - 1] + lam * vals[i + 1]
        assert vals[i] <= chord + 1e-6


def test_p_star_inf_frozen_value():
    res = p_star_inf(P12)
    assert res.p_star_inf == pytest.approx(0.3400098818596, rel=1e-12)
    # the quadrature infimum: p is stationary at theta_at_min
    assert res.p_star_inf == pytest.approx(-p_theta_quad(res.theta_at_min, P12), rel=1e-12)
    assert res.theta_range[0] < 0.0 < res.theta_range[1]
    # p* increases on y > 0, so the infimum is the y -> 0+ limit
    assert res.p_star_inf == pytest.approx(p_star(0.0, P12), rel=1e-14)


def test_p_star_inf_counts_the_root_solve_evaluations(monkeypatch):
    thetas = []

    def counted(theta, p):
        thetas.append(theta)
        return _p_and_slope(theta, p)

    monkeypatch.setattr(wfe, "_p_and_slope", counted)
    res = p_star_inf(P12)
    # every evaluation but the last, p at theta*, belongs to the root solve;
    # p'(0) is taken once, and the solve stops at the first theta whose
    # slope is within its own rounding bound
    assert thetas[0] == 0.0 and thetas[-1] == res.theta_at_min
    assert thetas.count(0.0) == 1
    assert res.root_evals == len(thetas) - 1 == 11
    _, slope, err = _p_and_slope(res.theta_at_min, P12)
    assert abs(slope) <= err
    assert all(abs(_p_and_slope(t, P12)[1]) > _p_and_slope(t, P12)[2] for t in thetas[:-2])


def test_theta_at_min_zeroes_the_slope_of_p():
    theta = p_star_inf(P12).theta_at_min
    step = 1e-5
    slope = (p_theta(theta + step, P12) - p_theta(theta - step, P12)) / (2.0 * step)
    assert abs(slope) < 1e-9
    assert p_star_inf(P12).p_star_inf == pytest.approx(-p_theta(theta, P12), rel=1e-14)


@pytest.mark.parametrize("omega, eps", [(1.2, 0.1), (1.05, 0.3), (1.3, 0.02)])
def test_theta_at_min_sits_where_the_slope_changes_sign(omega, eps):
    p = WfeParams(omega=omega, eps=eps)
    theta = p_star_inf(p).theta_at_min
    assert _p_and_slope(theta * (1.0 - 1e-12), p)[1] < 0.0
    assert _p_and_slope(theta * (1.0 + 1e-12), p)[1] > 0.0


def test_beta_critical_frozen_value():
    res, beta_c = beta_critical(P12)
    assert beta_c == pytest.approx(17.00049409298, abs=1e-8)
    assert beta_c == pytest.approx(res.p_star_inf / 0.02, rel=1e-12)


def test_beta_critical_rejects_nonpositive_parabola():
    # delta large pushes the lower root of A past 1: A <= 0 on [-1, 1], so
    # WfeParams refuses the triple before beta_critical can run
    with pytest.raises(HypothesisViolation):
        beta_critical(WfeParams(omega=1.2, eps=0.1, delta=3.0))


# ---------------------------------------------------------------------------
# weighted chi-square rare event
# ---------------------------------------------------------------------------


def test_grid_weights_shape_and_values():
    b = grid_weights(P12, 10)
    assert b.shape == (11,)
    assert b[0] == pytest.approx(a_of_x(1.0, P12))
    assert b[-1] == pytest.approx(a_of_x(-1.0, P12))
    assert float(b.max()) > 0.0 > float(b.sum())


def test_solve_tilt_zeroes_the_derivative():
    b = grid_weights(P12, 50)
    t = solve_tilt(b)
    assert 0.0 < t < 1.0 / (2.0 * float(b.max()))
    step = 1e-7
    dpsi = (psi_weighted(b, t + step) - psi_weighted(b, t - step)) / (2.0 * step)
    assert abs(dpsi) < 1e-4
    assert psi_weighted(b, 0.0) == 0.0


@pytest.mark.parametrize("n_sites, tilt", [
    (50, 7.432590379226377673), (2000, 7.5320747323742247032),
])
def test_solve_tilt_matches_mpmath(n_sites, tilt):
    # the root of psi' in mpmath at 50 digits
    assert solve_tilt(grid_weights(P12, n_sites)) == pytest.approx(tilt, rel=1e-14, abs=0.0)


def contour_log_p(n_sites: int) -> float:
    """log P[sum b_n chi_n^2 >= 0] by the Daniels/Imhof inversion integral.

    On the vertical line through the saddle t*,
    P = (1/pi) Int_0^inf Re[exp(psi(t*+iu)) / (t*+iu)] du with the complex
    cumulant psi(s) = -1/2 sum log(1 - 2 s b_n); exp(psi(t*)) is factored
    out so the integrand is O(1).  Exact at every N, no sampling.
    """
    b = grid_weights(P12, n_sites)
    t = solve_tilt(b)
    psi0 = psi_weighted(b, t)

    def integrand(u):
        s = t + 1j * u
        return (np.exp(-0.5 * np.sum(np.log(1.0 - 2.0 * s * b)) - psi0) / s).real

    val, _err = quad(integrand, 0.0, np.inf, epsrel=1e-12, limit=200)
    return psi0 + math.log(val / math.pi)


def test_contour_oracle_values():
    # the same integral in mpmath at 30 digits: -4.12214394745854,
    # -19.96927734423 and -71.6396770093352
    assert math.exp(contour_log_p(6)) == pytest.approx(0.01620972, abs=1e-8)
    assert contour_log_p(50) == pytest.approx(-19.9692773, abs=1e-7)
    assert contour_log_p(200) == pytest.approx(-71.6396770, abs=1e-7)


def test_rare_event_matches_brute_force_when_countable():
    # at N = 5 and 6 the event still has probability ~2e-2, countable
    # directly; N + 1 = 6 and 7 coordinates cover both pair parities
    for n_sites in (5, 6):
        b = grid_weights(P12, n_sites)
        rng = np.random.default_rng(77)
        total = 1_000_000
        z = rng.standard_normal((total, b.size))
        hits = int(np.count_nonzero((z * z) @ b >= 0.0))
        p_bf = hits / total
        se_bf = math.sqrt(p_bf * (1.0 - p_bf) / total)
        assert abs(math.exp(contour_log_p(n_sites)) - p_bf) < 4.0 * se_bf
        res = rare_event_rate_mc(P12, n_sites=n_sites, replicas=200_000, seed=1)
        assert abs(math.exp(res.log_p) - p_bf) < 4.0 * se_bf
        assert res.hits > 0
        assert res.replicas == 200_000


def test_rare_event_matches_the_contour_within_its_standard_error():
    res = rare_event_rate_mc(P12, n_sites=50, replicas=1_000_000, seed=5)
    assert 0.0 < res.std_error < 0.01
    assert 1.0 <= res.weight_ess <= res.hits
    assert abs(res.log_p - contour_log_p(50)) < 4.0 * res.std_error


def pair_block(bitgen, rows: int, a_sum: np.ndarray, a_diff: np.ndarray) -> np.ndarray:
    """_chi2_pair_block for `rows` replicas on fresh work arrays."""
    log_u = np.empty((rows, a_sum.size), np.float32)
    return _chi2_pair_block(bitgen, a_sum, a_diff, log_u, np.empty_like(log_u))


def pair_kernel_draws(coef, replicas: int, seed: int = 11) -> np.ndarray:
    """T = sum c_n chi_n^2 from _chi2_pair_block, block by block."""
    a_sum, a_diff = _pair_coefficients(np.asarray(coef, dtype=float))
    bitgen = shard_rng(seed, 0).bit_generator
    rows = RARE_BLOCK_WORDS // a_sum.size
    out = [
        pair_block(bitgen, min(rows, replicas - done), a_sum, a_diff)
        for done in range(0, replicas, rows)
    ]
    return np.concatenate(out).astype(np.float64)


class Replay:
    """A bit generator whose random_raw hands back one fixed block of words."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def random_raw(self, shape):
        assert shape == self.words.shape
        return self.words.copy()


def test_pair_coefficients_pad_odd_counts():
    # a_sum = -(c_even + c_odd), a_diff = c_odd - c_even, pair by pair
    a_sum, a_diff = _pair_coefficients(np.array([1.0, 2.0, 3.0]))
    assert a_sum.dtype == a_diff.dtype == np.float32
    np.testing.assert_array_equal(a_sum, [-3.0, -3.0])
    np.testing.assert_array_equal(a_diff, [1.0, -3.0])
    a_sum, a_diff = _pair_coefficients(np.array([1.0, 2.0, 3.0, 5.0]))
    np.testing.assert_array_equal(a_sum, [-3.0, -8.0])
    np.testing.assert_array_equal(a_diff, [1.0, 2.0])


@pytest.mark.parametrize(
    "d, j",
    [(4, 0), (4, 1), (4, 3), (5, 4)],
    ids=["first-of-pair", "second-of-pair", "second-of-last-pair", "zero-padded-last"],
)
def test_pair_kernel_coordinate_is_chi_square_one(d, j):
    n = 1_000_000
    coef = np.zeros(d)
    coef[j] = 1.0
    x = pair_kernel_draws(coef, n)
    assert x.size == n
    # chi_1^2 has mean 1, variance 2 and central fourth moment 60, so the
    # sample variance has standard error sqrt((60 - 2^2)/n)
    assert abs(x.mean() - 1.0) < 4.0 * math.sqrt(2.0 / n)
    assert abs(x.var() - 2.0) < 4.0 * math.sqrt(56.0 / n)
    assert stats.kstest(x, stats.chi2(1).cdf).pvalue > 1e-3


def test_pair_kernel_bit_layout():
    # P = 3 pairs read 3 words as 6 little-endian halves h_0..h_5: pair k
    # takes its radius from h_k and its angle from h_{3+k}, so pair 2's
    # radius and pair 0's angle are the two halves of the middle word
    h = np.array([3_000_000_000, 700_000_000, 2_500_000_000, 1_000_000_000, 0, 4_000_000_000],
                 "<u4")
    words = np.tile(h, (2, 1)).view("<u8")
    assert words.shape == (2, 3)
    for k in range(3):
        log_u = math.log((float(h[k]) + 0.5) * 2.0**-32)
        two_phi = float(h[3 + k]) * 4.0 * math.pi * 2.0**-32
        pick, zero = np.zeros(3, np.float32), np.zeros(3, np.float32)
        pick[k] = 1.0
        assert pair_block(Replay(words), 2, pick, zero) == pytest.approx([log_u] * 2, rel=1e-6)
        assert pair_block(Replay(words), 2, zero, pick) == pytest.approx(
            [log_u * math.cos(two_phi)] * 2, rel=1e-5, abs=1e-6
        )
        # the pair's members are R^2 cos^2(phi) and R^2 sin^2(phi); a member
        # that is a difference of two O(R^2) terms carries an absolute error
        # on the scale of ulp(R^2), at most 2.4e-7 here (R^2 <= 3.7)
        r2 = -2.0 * log_u
        for j, member in ((2 * k, math.cos(two_phi / 2.0) ** 2),
                          (2 * k + 1, math.sin(two_phi / 2.0) ** 2)):
            coef = np.zeros(6)
            coef[j] = 1.0
            a_sum, a_diff = _pair_coefficients(coef)
            assert pair_block(Replay(words), 2, a_sum, a_diff) == pytest.approx(
                [r2 * member] * 2, rel=0.0, abs=5e-7
            )


def test_pair_kernel_casts_each_half_as_copy_then_astype():
    # a block of raw words, the extreme halves 0 and 2^32 - 1 among them in
    # both the radius run (halves 0..6) and the angle run (halves 7..13)
    words = np.random.SFC64(3).random_raw((300, 7))
    extremes = [0, 2**32 - 1, 2**64 - 2**32, 2**64 - 1]
    words[0, :4] = extremes
    words[1, 3:] = extremes

    # the kernel with each contiguous run of halves copied out and then cast
    halves = words.astype("<u8", copy=False).view("<u4")
    log_u = halves[:, :7].copy().astype(np.float32)
    x = halves[:, 7:].copy().astype(np.float32)
    log_u = np.log((log_u + np.float32(0.5)) * np.float32(2.0**-32))
    x = np.cos(x * np.float32(4.0 * math.pi * 2.0**-32)) * log_u
    a_sum, a_diff = _pair_coefficients(np.linspace(-1.0, 0.5, 14))
    np.testing.assert_array_equal(
        pair_block(Replay(words), 300, a_sum, a_diff), log_u @ a_sum + x @ a_diff
    )


def test_pair_kernel_work_arrays_may_be_reused_and_sliced():
    # one pair of work arrays serves every block of a shard, the last short
    # block through their leading rows; stale values must not leak through
    a_sum, a_diff = _pair_coefficients(np.linspace(-1.0, 0.5, 14))
    words = np.random.SFC64(5).random_raw((40, 7))
    log_u = np.full((64, 7), np.nan, np.float32)
    x = np.full_like(log_u, np.inf)
    _chi2_pair_block(Replay(np.random.SFC64(6).random_raw((64, 7))), a_sum, a_diff, log_u, x)
    np.testing.assert_array_equal(
        _chi2_pair_block(Replay(words), a_sum, a_diff, log_u[:40], x[:40]),
        pair_block(Replay(words), 40, a_sum, a_diff),
    )


def test_pair_kernel_coordinates_sharing_a_word_are_independent_chi_square():
    # with an odd pair count the halves of one word serve two pairs: at
    # P = 3, word 1 holds pair 2's radius (h_2) and pair 0's angle (h_3), so
    # coordinates 0, 1 (pair 0) and 4, 5 (pair 2) share a raw word
    n = 1_000_000
    draws = {j: pair_kernel_draws(np.eye(6)[j], n) for j in (0, 1, 4, 5)}
    for j, x in draws.items():
        assert abs(x.mean() - 1.0) < 4.0 * math.sqrt(2.0 / n), j
        assert stats.kstest(x, stats.chi2(1).cdf).pvalue > 1e-3, j
    for i, j in ((0, 4), (0, 5), (1, 4), (1, 5)):
        assert abs(np.corrcoef(draws[i], draws[j])[0, 1]) < 4.0 / math.sqrt(n), (i, j)
    # the shared word's halves themselves: pair 2's R^2 against pair 0's
    # cos 2phi, which is (x0 - x1)/(x0 + x1) wherever pair 0's R^2 is not 0
    r2_first = draws[0] + draws[1]
    keep = r2_first > 0.0
    cos_first = (draws[0] - draws[1])[keep] / r2_first[keep]
    r2_last = (draws[4] + draws[5])[keep]
    assert abs(np.corrcoef(r2_last, cos_first)[0, 1]) < 4.0 / math.sqrt(n)


def test_pair_kernel_members_are_uncorrelated():
    n = 1_000_000
    x = pair_kernel_draws([1.0, 0.0, 0.0], n)
    y = pair_kernel_draws([0.0, 1.0, 0.0], n)
    # same seed, so x and y are the two members of the same pairs, and
    # their sum is R^2, chi_2^2
    np.testing.assert_allclose(x + y, pair_kernel_draws([1.0, 1.0, 0.0], n), rtol=1e-5, atol=1e-6)
    assert abs(np.corrcoef(x, y)[0, 1]) < 4.0 / math.sqrt(n)


def test_rare_event_is_deterministic_across_workers():
    a = rare_event_rate_mc(P12, n_sites=40, replicas=50_000, seed=3, workers=1)
    b = rare_event_rate_mc(P12, n_sites=40, replicas=50_000, seed=3, workers=2)
    assert a == b


def test_rare_event_does_not_depend_on_the_block_size(monkeypatch):
    # blocks split the same stream into rows, and the shard sums run once
    # over all of its T values.  OpenBLAS's Haswell sgemv kernel sums T's
    # rows in groups of four, so blocks of 4, 8, 16 and 32 rows (2^12 to
    # 2^15 words at N = 2000) give the same bytes; 65 rows (2^16) would not
    kw = dict(n_sites=2000, replicas=100_000, seed=0, workers=1)
    results = []
    for bits in (12, 13, 14, 15):
        monkeypatch.setattr(wfe, "RARE_BLOCK_WORDS", 1 << bits)
        results.append(rare_event_rate_mc(P12, **kw))
    assert results[:3] == [results[3]] * 3


def test_rare_event_rejects_bad_budget():
    with pytest.raises(InvalidParams):
        rare_event_rate_mc(P12, n_sites=10, replicas=0)
