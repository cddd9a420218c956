"""Critical-temperature machinery for the wavefunction-energy correction.

The low-temperature magnetization bound reduces to a weighted chi-square
rare event: with weights given by the concave parabola

    A(x) = sqrt(delta)*x - r*x^2 - delta,    x in [-1, 1],

the probability that sum_n b_n chi_n^2 >= 0 (b_n = A at the n-th grid
point) decays like exp(-N pbar*), where pbar* is obtained from the
limiting cumulant function

    p(theta) = -1/4 * Int_{-1}^{1} log(1 - 2*theta*A(x)) dx

through the Legendre dual p*(y) = sup_theta {theta*y - p(theta)} and the
infimum pbar* = inf_{y > 0} p*(y).  The admissible theta interval is set
by the extremes of A on [-1, 1] (the integral never sees the rest of the
line).

1 - 2*theta*A(x) is b times the quadratic 2*t1*x^2 - 2*t2*x + 1 of gecore
at (t1, t2) = (theta*r, theta*sqrt(delta))/b, b = 1 + 2*theta*delta, so p
and its slope come in closed form from one call of gecore.q_kernel on that
monic-constant quadratic q (J_m = Int x^m/q):

    p(theta)  = -1/4 * (Int log q + 2*log1p(2*theta*delta)),
    p'(theta) = 1/2 Int A/(b q) = -(r*J_2 - sqrt(delta)*J_1 + delta*J_0) / (2b),

with p'(0) = -(r/3 + delta).  Keeping the constant term exactly 1 and
taking the slope as a weighted moment, not (Int 1/(bq) - 2)/(4*theta), leaves
no rounding of b and no cancellation at tiny theta.

p is convex and p' runs from -inf to +inf across the admissible interval,
so p*(y) = theta*y - p(theta) at the one root of p'(theta) = y, and
dp*/dy is that root.  p'(0), the mean of A over [-1, 1], is negative, so
the root is positive for every y >= 0: p* increases on y > 0 and its
infimum is the y -> 0+ limit

    pbar* = p*(0) = -min_theta p(theta) > 0,

the minimum of the closed form, at the theta where p' vanishes.

WfeParams is the one check of the hypotheses on (omega, eps, delta),
among them A > 0 somewhere on [-1, 1] (else the rare event would decay
faster than any exponential bounded here), and raises HypothesisViolation
when one fails; beta_critical turns pbar* into the critical inverse
temperature beta_c = pbar*/((omega-1)*eps).

rare_event_rate_mc cross-validates pbar* by direct simulation with an
exponential tilt: under the product Gaussian measure with per-coordinate
variances sigma_n^2 = 1/(1 - 2*t*b_n), the statistic T = sum b_n chi_n^2
has mean zero at the dominant-point tilt (psi'(t*) = 0, psi(t) =
-1/2 sum log(1 - 2*t*b_n)), so {T >= 0} is hit with O(1) probability and
the untilted probability is recovered from the likelihood ratio

    P = E_tilt[ exp(psi(t*) - t*.T) ; T >= 0 ].

A naive (untilted) simulation would need ~exp(680) replicas to see one
hit at N = 2000; the tilt makes 1e7 replicas informative.

The sampler only needs the squares chi_n^2 = Z_n^2, so it draws them in
pairs: Box-Muller gives two independent chi_1^2 values, R^2 cos^2(phi) and
R^2 sin^2(phi), from one uniform pair.  A replica's P pairs read P raw
words of the shard's SFC64 stream as 2P 32-bit halves: pair k takes its
radius from half k and its angle from half P + k.  With R^2 = -2L and
c_n = b_n sigma_n^2 padded to an even count, T = -sum_k L_k [(c_{2k} +
c_{2k+1}) + (c_{2k} - c_{2k+1}) cos 2phi_k]: one log and one cos per pair.
Replicas are split over the fixed RARE_SHARDS shards and run in blocks of
RARE_BLOCK_WORDS words, sized to stay in cache; each shard then weighs its
hits in one pass.  The result carries a standard error for log P and the
ESS of the hit weights.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import reduce

import numpy as np

from .ensembles import g_values
from .errors import HypothesisViolation, InvalidParams, OutOfThetaRange
from .gecore import QMIN_STRICT, q_kernel, root_toward
from .parallel import fold_shifted, map_shards, shard_rng, split_counts

# Raw SFC64 words per block of the rare-event sampler (256 kB of uint64).  A
# block and its two float32 work arrays take ~2x that, which stays in a
# core's L2.  On a 2-core Intel Xeon host (2 MB L2 per core), one in-process
# N = 2000, 10^5-replica run at one worker took a median 0.435 s at 2^15
# words, 0.492 s at 2^14, where the per-block overhead starts to show, and
# 0.448 s at 2^16; 2^15 was the fastest of the three in 6 of 10 alternating
# rounds.  It stays at 2^15 also because the block size sets how sgemv groups
# T's rows: OpenBLAS's Haswell kernel sums rows in fours, so every block of a
# multiple of 4 rows gives the same bytes (2^12 to 2^15 words are 4 to 32 rows at
# N = 2000), while 2^16 words, 65 rows, sums each 65th row another way and
# moves log P in its 11th digit
RARE_BLOCK_WORDS = 1 << 15
# Shards of every rare-event job, fixed because the estimate depends on it
RARE_SHARDS = 63


def r_of_omega(omega: float) -> float:
    """r = (omega - 1)/omega, the curvature of A; NaN at omega = 0."""
    return (omega - 1.0) / omega if omega != 0.0 else math.nan


def admissibility_bound(omega: float) -> float:
    """Largest eps compatible with omega: (1/4)*(1 + sqrt(1 - 4r))^2."""
    r = r_of_omega(omega)
    return 0.25 * (1.0 + math.sqrt(1.0 - 4.0 * r)) ** 2


def check_hypotheses(omega: float, eps: float, delta: float | None = None) -> bool:
    """True iff WfeParams(omega, eps, delta) accepts the triple."""
    try:
        WfeParams(omega=omega, eps=eps, delta=delta)
    except HypothesisViolation:
        return False
    return True


@dataclass(frozen=True)
class WfeParams:
    """Transition-bound parameters, admitted only under the hypotheses.

    delta defaults to eps (the saturation choice that closes the proof);
    it stays overridable for exploration.  r is derived from omega.  The
    hypotheses are 1 < omega < 4/3, 0 < eps < (1/4)(1 + sqrt(1-4r))^2 with
    r = (omega-1)/omega (always true for eps < 1/4), delta > 0, and the
    lower root of A below 1.  A(0) = -delta < 0 and both roots of A are
    positive, so the last one says A > 0 somewhere on [-1, 1], i.e.
    A_min < 0 < A_max; with delta = eps it follows from the eps bound.
    """

    omega: float
    eps: float
    delta: float | None = None
    r: float = field(init=False)

    def __post_init__(self):
        if not (1.0 < self.omega < 4.0 / 3.0):
            raise HypothesisViolation(
                f"omega must be in (1, 4/3), got {self.omega}"
            )
        r = r_of_omega(self.omega)
        object.__setattr__(self, "r", r)
        if not (0.0 < self.eps < admissibility_bound(self.omega)):
            raise HypothesisViolation(
                f"eps must be in (0, {admissibility_bound(self.omega):.4f}) "
                f"for omega={self.omega}, got {self.eps}"
            )
        if self.delta is None:
            object.__setattr__(self, "delta", self.eps)
        elif not (self.delta > 0.0):
            raise HypothesisViolation(f"delta must be positive, got {self.delta}")
        if not (x_lower_root(self) < 1.0):
            raise HypothesisViolation(
                f"lower root of A at {x_lower_root(self):.4f} >= 1: A <= 0 on [-1, 1]"
            )


@dataclass(frozen=True)
class PStarResult:
    p_star_inf: float
    y_at_inf: float  # 0.0: the infimum is the y -> 0+ limit
    theta_range: tuple[float, float]
    theta_at_min: float  # the theta minimising p
    root_evals: int  # _p_and_slope evaluations of the solve for theta_at_min

    def __post_init__(self):
        if not (self.p_star_inf > 0.0):
            raise InvalidParams(f"pbar* must be positive, got {self.p_star_inf}")
        if not (self.y_at_inf >= 0.0):
            raise InvalidParams(f"y at inf must be nonnegative, got {self.y_at_inf}")


def a_of_x(x, p: WfeParams):
    """A(x) = sqrt(delta)*x - r*x^2 - delta (vectorized)."""
    x = np.asarray(x, dtype=float)
    out = math.sqrt(p.delta) * x - p.r * x * x - p.delta
    return float(out) if out.ndim == 0 else out


def a_extremes(p: WfeParams) -> tuple[float, float, float]:
    """(A_min, A_max, x at max) with extremes over [-1, 1].

    A is a concave parabola, so the interval max sits at the vertex
    sqrt(delta)/(2r) clamped to [-1, 1] and the min at an endpoint.
    """
    xv = math.sqrt(p.delta) / (2.0 * p.r)
    x_at_max = min(1.0, max(-1.0, xv))
    a_max = float(a_of_x(x_at_max, p))
    a_min = float(min(a_of_x(-1.0, p), a_of_x(1.0, p)))
    return a_min, a_max, x_at_max


def x_lower_root(p: WfeParams) -> float:
    """Lower root of A(x) = 0: sqrt(delta)*(1 - sqrt(1-4r))/(2r)."""
    return math.sqrt(p.delta) * (1.0 - math.sqrt(1.0 - 4.0 * p.r)) / (2.0 * p.r)


def theta_range(p: WfeParams) -> tuple[float, float]:
    """Open interval (1/(2 A_min), 1/(2 A_max)) where p(theta) is finite.

    WfeParams admits only A_min < 0 < A_max, so both ends are finite.
    """
    a_min, a_max, _ = a_extremes(p)
    return 1.0 / (2.0 * a_min), 1.0 / (2.0 * a_max)


def _p_and_slope(theta: float, p: WfeParams) -> tuple[float, float, float]:
    """(p(theta), p'(theta), eps (|r J_2| + |sqrt(delta) J_1| + |delta J_0|)/(2b),
    the rounding bound of p') from one evaluation of the quadratic kernel."""
    lo, hi = theta_range(p)
    if not (lo < theta < hi):
        raise OutOfThetaRange(
            f"theta={theta} outside the admissible interval ({lo:.6g}, {hi:.6g})"
        )
    if theta == 0.0:
        return 0.0, -(p.r / 3.0 + p.delta), math.ulp(1.0) * (p.r / 3.0 + p.delta)
    b = 1.0 + 2.0 * theta * p.delta
    sqrt_delta = math.sqrt(p.delta)
    ker = q_kernel(theta * p.r / b, theta * sqrt_delta / b, 1.0)
    if not ker["ok"][0]:
        raise OutOfThetaRange(
            f"min of (1 - 2 theta A)/b = {ker['q_min'][0]:.3e} < {QMIN_STRICT} at "
            f"theta={theta}, too close to the end of ({lo:.6g}, {hi:.6g})"
        )
    j0, j1, j2, lq = (float(ker[key][0]) for key in ("j", "jy", "y2", "lq"))
    p_val = -0.25 * (lq + 2.0 * math.log1p(2.0 * theta * p.delta))
    terms = (p.r * j2, -sqrt_delta * j1, p.delta * j0)
    slope = -sum(terms) / (2.0 * b)
    return p_val, slope, math.ulp(1.0) * sum(map(abs, terms)) / (2.0 * b)


def p_theta(theta: float, p: WfeParams) -> float:
    """p(theta) = -1/4 Int_{-1}^{1} log(1 - 2*theta*A(x)) dx, in closed form."""
    return _p_and_slope(theta, p)[0]


def _theta_at_slope(y: float, p: WfeParams) -> tuple[float, int]:
    """The admissible theta with p'(theta) = y, by gecore.root_toward, and
    the number of _p_and_slope evaluations the solve took.

    p' increases across the admissible interval and diverges at both ends,
    so stepping from 0 halfway to the end on the root's side brackets the
    root within a few steps, and bracketed_root narrows it to adjacent
    doubles, or to the first theta where excess reads 0: p' - y within the
    slope's rounding bound.  p'(0) is evaluated once.  A root closer to an
    end than the kernel's strict interior raises OutOfThetaRange.
    """
    lo, hi = theta_range(p)
    evals = 0

    def excess(t):
        nonlocal evals
        evals += 1
        _, slope, err = _p_and_slope(t, p)
        return 0.0 if abs(slope - y) <= err else slope - y

    at_zero = excess(0.0)
    theta = root_toward(lambda t: excess(t) if t else at_zero, 0.0, hi if at_zero < 0.0 else lo)
    return theta, evals


def p_star(y: float, p: WfeParams) -> float:
    """Legendre dual p*(y) = sup over admissible theta of theta*y - p(theta).

    The objective is concave, so the supremum sits at the root of
    p'(theta) = y.
    """
    theta = _theta_at_slope(y, p)[0]
    return theta * y - p_theta(theta, p)


def p_star_inf(p: WfeParams) -> PStarResult:
    """pbar* = inf_{y > 0} p*(y) = p*(0+) = -min_theta p(theta).

    p* increases on y > 0 (see the module docstring), so the infimum is the
    y -> 0+ limit, reported as y_at_inf = 0, and the minimising theta is
    the root of p'.
    """
    theta, evals = _theta_at_slope(0.0, p)
    return PStarResult(
        p_star_inf=-p_theta(theta, p),
        y_at_inf=0.0,
        theta_range=theta_range(p),
        theta_at_min=theta,
        root_evals=evals,
    )


def beta_critical(p: WfeParams) -> tuple[PStarResult, float]:
    """(PStarResult, beta_c) with beta_c = pbar*/((omega-1)*eps)."""
    res = p_star_inf(p)
    beta_c = res.p_star_inf / ((p.omega - 1.0) * p.eps)
    return res, beta_c


# ---------------------------------------------------------------------------
# direct simulation of the weighted chi-square rare event
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RareEventResult:
    log_p: float
    rate: float  # -log_p / n_sites, comparable to pbar*
    hits: int
    replicas: int
    tilt: float
    psi_at_tilt: float
    # delta-method standard error of log_p: sqrt(1/weight_ess - 1/replicas)
    std_error: float
    weight_ess: float  # (sum w)^2 / sum w^2 over the hits


def grid_weights(p: WfeParams, n_sites: int) -> np.ndarray:
    """b_n = A(1 - 2n/N) for n = 0..N (N+1 values)."""
    return a_of_x(g_values(n_sites), p)


def psi_weighted(b: np.ndarray, t: float) -> float:
    """Cumulant of sum b_n chi_n^2: psi(t) = -1/2 sum log(1 - 2 t b_n)."""
    return float(-0.5 * np.sum(np.log1p(-2.0 * t * b)))


def solve_tilt(b: np.ndarray) -> float:
    """Root of psi'(t) = sum b_n/(1 - 2 t b_n) on (0, 1/(2 max b)).

    psi'(0) = sum b < 0 in our regime and psi' -> +inf at the right end,
    so gecore.root_toward, which never evaluates psi' at that end, finds
    the dominant-point tilt.
    """
    b_max = float(np.max(b))
    if b_max <= 0.0:
        raise HypothesisViolation("all weights nonpositive: event has full measure")

    def dpsi(t):
        return float(np.sum(b / (1.0 - 2.0 * t * b)))

    if dpsi(0.0) >= 0.0:
        raise InvalidParams("sum of weights is nonnegative: no tilt needed")
    return root_toward(dpsi, 0.0, 1.0 / (2.0 * b_max))


def _pair_coefficients(coef: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(a_sum, a_diff) in float32 for the pair kernel, from c_0..c_{d-1}.

    c is padded with one zero to an even length; pair k carries the
    coordinates 2k and 2k+1, and a_sum[k] = -(c[2k] + c[2k+1]), a_diff[k] =
    c[2k+1] - c[2k], so that with R^2 = -2L the pair's share of T is
    c[2k] R^2 cos^2(phi) + c[2k+1] R^2 sin^2(phi) = a_sum[k] L + a_diff[k] L cos(2 phi).
    """
    c = np.append(coef, np.zeros(coef.size % 2))
    return -(c[0::2] + c[1::2]).astype(np.float32), (c[1::2] - c[0::2]).astype(np.float32)


def _chi2_pair_block(bitgen, a_sum: np.ndarray, a_diff: np.ndarray,
                     log_u: np.ndarray, x: np.ndarray) -> np.ndarray:
    """T = sum_n c_n chi_n^2 for log_u.shape[0] replicas, one raw word per pair.

    Each replica draws P = a_sum.size raw words, read as 2P little-endian
    32-bit halves h_0..h_{2P-1}; pair k takes its radius from h_k and its
    angle from h_{P+k}.  Box-Muller without the square root:

        L = log((h_k + 1/2) 2^-32),    2 phi = h_{P+k} * 4 pi 2^-32,

    and R^2 cos^2(phi) = -L (1 + cos 2phi), R^2 sin^2(phi) = -L (1 - cos 2phi)
    are two independent chi_1^2 values.  T = L @ a_sum + (L cos 2phi) @ a_diff:
    one log and one cos serve two coordinates, nothing doubled or squared.
    log_u and x are float32 work arrays of shape (rows, P), overwritten.
    All of it is float32; a member near 0 carries an absolute error of about
    ulp(R^2), not a relative one.
    (h + 1/2) 2^-32 is never 0, so R^2 <= 66 log 2 = 45.7: the tail of
    each coordinate is cut at |Z| <= 6.76, a probability of 1.4e-11.  A
    uniform that rounds to 1.0 in float32 gives R^2 = 0, a harmless atom of
    probability ~2^-25.
    """
    pairs = a_sum.shape[0]
    halves = bitgen.random_raw((log_u.shape[0], pairs)).astype("<u8", copy=False).view("<u4")
    # each run of halves is contiguous within a row, so copyto casts it
    # straight into float32 at 0.37 ns an element, against 0.86 for a
    # stride-2 cast of every word's hi or lo half (2-core Intel Xeon, numpy 2.4)
    np.copyto(log_u, halves[:, :pairs], casting="unsafe")
    np.copyto(x, halves[:, pairs:], casting="unsafe")
    log_u += np.float32(0.5)
    log_u *= np.float32(2.0**-32)
    np.log(log_u, out=log_u)
    # scale the angle before cos: float32 cos of raw 2^32-sized magnitudes
    # falls off numpy's SIMD path and runs ~40x slower
    x *= np.float32(4.0 * math.pi * 2.0**-32)
    np.cos(x, out=x)
    x *= log_u
    return log_u @ a_sum + x @ a_diff


def _rare_event_shard(shard: int, payload) -> tuple[tuple[float, float, float], int]:
    """((max exp-arg, scaled sum of w, scaled sum of w^2), hits).

    w = exp(-t* T) over hits, scaled by exp(-max exp-arg) (and its square
    for w^2).  Replicas run in blocks of RARE_BLOCK_WORDS raw SFC64 words,
    so the elementwise passes _chi2_pair_block makes over a block run from
    cache; the cost is then mostly the raw words, the log and the cos.  The
    two float32 work arrays are allocated once per shard, and the last,
    short block uses their leading rows.  The shard's T values are kept,
    and the hit filter, max-shift, exp and both sums run once over all of
    them.  T is float32: a 1e-2 absolute error on t*T moves log P by far
    less than the +-25 percent acceptance band.
    """
    a_sum, a_diff, tilt, counts, seed = payload
    n = counts[shard]
    bitgen = shard_rng(seed, shard).bit_generator
    rows = max(1, RARE_BLOCK_WORDS // a_sum.shape[0])
    log_u = np.empty((rows, a_sum.shape[0]), np.float32)
    x = np.empty_like(log_u)
    t_vals = np.empty(n, np.float32)
    for done in range(0, n, rows):
        k = min(rows, n - done)
        t_vals[done:done + k] = _chi2_pair_block(bitgen, a_sum, a_diff, log_u[:k], x[:k])
    args = -tilt * t_vals[t_vals >= 0.0].astype(np.float64)
    shift = float(args.max(initial=-math.inf))  # -inf (no weight) without hits
    w = np.exp(args - shift)
    return (shift, float(np.sum(w)), float(np.sum(w * w))), int(args.size)


def rare_event_rate_mc(
    p: WfeParams,
    n_sites: int = 2000,
    replicas: int = 10**7,
    seed: int = 0,
    workers: int | None = None,
) -> RareEventResult:
    """Tilted-measure estimate of P[sum b_n chi_n^2 >= 0] at finite N.

    log P-hat = psi(t*) + logsumexp over hits of (-t* T_i) - log(replicas);
    the per-shard pieces are merged in shard order by parallel.fold_shifted,
    so the result is identical for any worker count.  With w_i = exp(-t* T_i)
    on hits and 0 otherwise, the relative variance of P-hat is
    sum w^2 / (sum w)^2 - 1/replicas, whose square root is std_error.
    Raises InvalidParams for n_sites < 1 or replicas < 1.
    """
    if n_sites < 1:
        raise InvalidParams(f"n_sites must be positive, got {n_sites}")
    if replicas < 1:
        raise InvalidParams(f"replicas must be positive, got {replicas}")
    b = grid_weights(p, n_sites)
    tilt = solve_tilt(b)
    psi = psi_weighted(b, tilt)
    sigma2 = 1.0 / (1.0 - 2.0 * tilt * b)
    a_sum, a_diff = _pair_coefficients(b * sigma2)
    counts = split_counts(replicas, RARE_SHARDS)
    parts = map_shards(
        _rare_event_shard, (a_sum, a_diff, tilt, counts, seed), RARE_SHARDS, workers
    )
    m, s, s2 = reduce(fold_shifted, (part[0] for part in parts), (-math.inf, 0.0, 0.0))
    hits = sum(part[1] for part in parts)
    if hits == 0:
        raise InvalidParams(
            f"no replicas hit the event in {replicas} draws; "
            "tilted sampling should hit with O(1) probability"
        )
    log_p = psi + m + math.log(s) - math.log(replicas)
    weight_ess = s * s / s2
    return RareEventResult(
        log_p=log_p,
        rate=-log_p / n_sites,
        hits=hits,
        replicas=replicas,
        tilt=tilt,
        psi_at_tilt=psi,
        std_error=math.sqrt(max(0.0, 1.0 / weight_ess - 1.0 / replicas)),
        weight_ess=weight_ess,
    )
