"""Monte Carlo geometry of the dual plane and the rate-function curves.

The rare-event rates come out of two constrained minimizations of the dual
integrand k over the domain D:

    I2(x) = inf { k(theta) : theta in G ∩ D },
    I1(x) = inf { k(theta1, 0) : theta1 in (P, Q], i.e. H(theta1) >= 0 },

where G = {dc/dtheta1 <= 0 and dc/dtheta2 >= 0}.  I1 needs no search: on
the axis dk/dtheta1 = theta1 * d^2c/dtheta1^2 < 0 for theta1 < 0, so k
decreases along (P, Q] and its infimum is k(Q), read off in the stretched t
coordinate at the root t_Q of H (the segment is exponentially thin in theta1
for small x, far below float spacing, so theta1 itself is useless there).
For x >= 2/3, k falls to 0 toward the origin, so I1 = 0.  I2 has no usable
closed form; it is estimated by the minimum of k over samples of G ∩ D plus
a local Nelder-Mead polish, since a bare min-of-samples is biased upward.

Sampling of D follows a two-stage scheme: pick a ray slope alpha through the
left vertex P of D, pick theta1, set theta2 = alpha*(theta1 + 1/(2x)), and
accept iff the three domain tests pass.  The lines h(1) = 1/2 and h(-1) = 1/2
both pass through P, so every ray with slope between -x/(1+eps) and x/(1-eps)
automatically satisfies Tests 1 and 2; only the Test-3 ellipse rejects.  Both
coordinates can be drawn from exponentially tilted interval distributions to
concentrate samples near the interesting corners; density and CDF are kept in
log space so large tilt rates stay finite.

Shard determinism follows the parallel module: every sampled number is a
function of (seed, shard index) only.  Both shard workers, the scan's and
I2's, draw through `_shard_draw`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.interpolate import PchipInterpolator
from scipy.optimize import minimize as _nm_minimize

from .errors import InsufficientCurve, InvalidParams, NoConstraintPoints
from .gecore import RateParams, _pieces_arr, axis_k_t, solve_Q_detail
from .parallel import map_shards, shard_rng, split_counts

# Default tilt schedule for D sampling; 0 is the plain uniform pass.
ETA_DEFAULT = (0.0, 2.0, 8.0, 32.0)
# Default shard count: divisible by the 7-entry direction schedule below so
# every (eta, direction) combination receives the same number of shards.
SHARDS_DEFAULT = 63


@dataclass(frozen=True)
class BiasedInterval:
    """Interval [a, b] with an exponential tilt of rate eta toward one end."""

    a: float
    b: float
    eta: float
    direction: str  # "TowardA" | "TowardB" | "Uniform"

    def __post_init__(self):
        if not self.a < self.b:
            raise InvalidParams(f"need a < b, got [{self.a}, {self.b}]")
        if self.eta < 0.0:
            raise InvalidParams(f"eta must be >= 0, got {self.eta}")
        if self.direction not in ("TowardA", "TowardB", "Uniform"):
            raise InvalidParams(f"unknown direction {self.direction!r}")


@dataclass(frozen=True)
class RateCurvePoint:
    x: float
    I1: float
    I2: float  # nan marks a NoConstraintPoints row
    accepted_G: int
    samples: int
    noise_band: float = 0.0
    theta_at_min: tuple[float, float] | None = None

    def __post_init__(self):
        if self.I1 < 0.0:
            raise InvalidParams(f"I1 must be >= 0, got {self.I1}")
        if self.I2 < self.I1 - 1e-9:
            raise InvalidParams(f"I2={self.I2} below I1={self.I1} - 1e-9")


@dataclass(frozen=True)
class GFunctions:
    beta: float
    g1_min: float
    g2_min: float
    case_tag: str  # N1D1 | N1D2 | N2D1 | N2D2
    x_hat1: float = math.nan
    x_hat2: float = math.nan

    @property
    def ratio_rate(self) -> float:
        """Decay exponent of the numerator/denominator ratio; positive means
        the ratio vanishes."""
        return min(self.beta, self.g2_min) - min(2.0 * self.beta / 3.0, self.g1_min)


# ---------------------------------------------------------------------------
# biased interval sampling
# ---------------------------------------------------------------------------


def biased_sample(iv: BiasedInterval, u):
    """Inverse-CDF map of u in [0,1] to [a, b] under the tilted density.

    Toward b the density is proportional to e^{eta(s-a)}, toward a to
    e^{-eta(s-a)}.  Written with logaddexp so eta*(b-a) in the hundreds
    cannot overflow:

        toward b: s = a + logaddexp(L + log u, log(1-u)) / eta,
        toward a: s = a - logaddexp(log(1-u), log u - L) / eta,

    with L = eta*(b-a).  Monotone increasing in u, with s(0) = a, s(1) = b.
    """
    u = np.asarray(u, dtype=float)
    if np.any((u < 0.0) | (u > 1.0)):
        raise InvalidParams("u must lie in [0, 1]")
    if iv.eta == 0.0 or iv.direction == "Uniform":
        return iv.a + (iv.b - iv.a) * u
    L = iv.eta * (iv.b - iv.a)
    with np.errstate(divide="ignore"):
        logu = np.log(u)
        log1mu = np.log1p(-u)
    if iv.direction == "TowardB":
        s = iv.a + np.logaddexp(L + logu, log1mu) / iv.eta
    else:
        s = iv.a - np.logaddexp(log1mu, logu - L) / iv.eta
    return np.clip(s, iv.a, iv.b)


def biased_cdf(iv: BiasedInterval, s):
    """Analytic CDF of biased_sample's output (test oracle for the sampler)."""
    s = np.asarray(s, dtype=float)
    if iv.eta == 0.0 or iv.direction == "Uniform":
        return np.clip((s - iv.a) / (iv.b - iv.a), 0.0, 1.0)
    L = iv.eta * (iv.b - iv.a)
    t = np.clip(iv.eta * (s - iv.a), 0.0, L)
    if iv.direction == "TowardB":
        # u = (e^t - 1)/(e^L - 1); the direct ratio overflows for large L,
        # so go through logs.
        with np.errstate(divide="ignore"):
            logu = np.where(
                t > 0.0,
                t - L + np.log1p(-np.exp(-t)) - np.log1p(-np.exp(-L)),
                -np.inf,
            )
        return np.exp(logu)
    # toward a: u = (1 - e^{-t})/(1 - e^{-L})
    return -np.expm1(-t) / -np.expm1(-L)


# ---------------------------------------------------------------------------
# domain sampling
# ---------------------------------------------------------------------------


def _draw_batch(params: RateParams, rng, n: int, combo):
    """Vector draw of n ray-scheme points under one (eta, direction) combo."""
    eta, dir_alpha, dir_theta = combo
    x, eps = params.x, params.eps
    iv_alpha = BiasedInterval(-x / (1.0 + eps), x / (1.0 - eps), eta, dir_alpha)
    iv_theta = BiasedInterval(-1.0 / (2.0 * x), 5.0 / (1.0 - x), eta, dir_theta)
    alpha = biased_sample(iv_alpha, rng.random(n))
    theta1 = biased_sample(iv_theta, rng.random(n))
    theta2 = alpha * (theta1 + 1.0 / (2.0 * x))
    return theta1, theta2


# The 7-entry direction schedule: one plain uniform pass, then for every
# positive tilt both theta1 directions with alpha pushed toward its upper
# (positive, G-side) end.
def _combo_schedule(eta_schedule) -> list[tuple[float, str, str]]:
    combos: list[tuple[float, str, str]] = []
    for eta in eta_schedule:
        if eta == 0.0:
            combos.append((0.0, "Uniform", "Uniform"))
        else:
            combos.append((eta, "TowardB", "TowardA"))
            combos.append((eta, "TowardB", "TowardB"))
    if not combos:
        combos.append((0.0, "Uniform", "Uniform"))
    return combos


def _in_G(pieces):
    """G membership, dc/dtheta1 <= 0 and dc/dtheta2 >= 0, in the strict interior."""
    return pieces["ok"] & (pieces["grad1"] <= 0.0) & (pieces["grad2"] >= 0.0)


def _shard_draw(shard: int, payload):
    """(theta1, theta2, kernel pieces) of one shard's ray-scheme draws.

    payload is (params, per-shard counts, seed, combos); shard s draws its
    count from the (seed, s) stream under combo s mod len(combos).
    """
    params, counts, seed, combos = payload
    rng = shard_rng(seed, shard)
    theta1, theta2 = _draw_batch(params, rng, counts[shard], combos[shard % len(combos)])
    return theta1, theta2, _pieces_arr(params, theta1, theta2)


def _scan_shard(shard: int, payload):
    """Worker: sample one shard and return raw columns for the scan CSV."""
    theta1, theta2, pieces = _shard_draw(shard, payload)
    return theta1, theta2, pieces["in_D"], _in_G(pieces), pieces["k"]


def domain_scan(params: RateParams, n_samples: int, eta_schedule=ETA_DEFAULT,
                seed: int = 0, shards: int = SHARDS_DEFAULT, workers: int | None = None):
    """Sample the dual plane; returns columns (theta1, theta2, in_D, in_G, k).

    Row order is fixed by (seed, shards): shard blocks in shard order, draws
    in stream order inside each block.
    """
    counts = split_counts(n_samples, shards)
    combos = _combo_schedule(eta_schedule)
    parts = map_shards(_scan_shard, (params, counts, seed, combos), shards, workers)
    theta1 = np.concatenate([p[0] for p in parts])
    theta2 = np.concatenate([p[1] for p in parts])
    in_d = np.concatenate([p[2] for p in parts])
    in_g = np.concatenate([p[3] for p in parts])
    k = np.concatenate([p[4] for p in parts])
    return theta1, theta2, in_d, in_g, k


# ---------------------------------------------------------------------------
# I2 by constrained sampling, I1 on the axis
# ---------------------------------------------------------------------------


def _i2_shard(shard: int, payload):
    """Worker: minimum of k over G ∩ D within one shard.

    Returns (n_in_D, n_in_G, k_min, theta1_at_min, theta2_at_min); k_min is
    +inf when the shard never hits G.
    """
    theta1, theta2, pieces = _shard_draw(shard, payload)
    n_d = int(np.count_nonzero(pieces["in_D"]))
    g_mask = _in_G(pieces)
    n_g = int(np.count_nonzero(g_mask))
    if n_g == 0:
        return n_d, 0, np.inf, np.nan, np.nan
    kg = pieces["k"][g_mask]
    i = int(np.argmin(kg))
    return n_d, n_g, float(kg[i]), float(theta1[g_mask][i]), float(theta2[g_mask][i])


# The polish sees k through a tighter interior gate than G membership.
# Close to the q(1) = 0 edge the computed k carries roundoff noise of order
# 1e-4 (the absolute error of q(1) itself is irreducible), and an
# unconstrained Nelder-Mead happily descends into those noise dips.  At
# q_min >= 1e-10 the noise is below 1e-6 and the landscape is clean.
QMIN_POLISH = 1e-10


def _k_if_feasible(params: RateParams, t1: float, t2: float) -> float:
    """k(theta) on G ∩ D with q_min >= QMIN_POLISH, else a large barrier."""
    pieces = _pieces_arr(params, t1, t2)
    if not (pieces["q_min"][0] >= QMIN_POLISH and _in_G(pieces)[0]):
        return 1e6 + t1 * t1 + t2 * t2
    return float(pieces["k"][0])


def _polish_minimum(params: RateParams, t1: float, t2: float, k0: float,
                    floor: float):
    """Nelder-Mead around the best sample, constrained by the barrier.

    A polished value is accepted only when it improves on the sampled
    minimum and stays at or above ``floor`` (in practice I1 - 1e-9: the
    two-constraint rate can never undercut the one-constraint rate, so a
    candidate below it is numerical noise, not an improvement).
    """
    res = _nm_minimize(
        lambda th: _k_if_feasible(params, th[0], th[1]),
        x0=np.array([t1, t2]),
        method="Nelder-Mead",
        options={"xatol": 1e-12, "fatol": 1e-12, "maxiter": 600},
    )
    cand = float(res.fun)
    if floor <= cand < k0 and cand < 1e5:
        return cand, (float(res.x[0]), float(res.x[1]))
    return k0, (t1, t2)


def compute_I2(params: RateParams, n_samples: int, eta_schedule=ETA_DEFAULT,
               seed: int = 0, shards: int = SHARDS_DEFAULT,
               workers: int | None = None) -> RateCurvePoint:
    """Estimate I2 = inf k over G ∩ D; raises NoConstraintPoints if G is
    never hit at this budget.

    The noise band is half the spread of the four per-shard-group minima
    (shards grouped by index mod 4), floored at 1e-9; it feeds monotonicity
    checks, not the estimate itself.
    """
    if n_samples < 10**4:
        raise InvalidParams(f"n_samples must be >= 1e4, got {n_samples}")
    counts = split_counts(n_samples, shards)
    combos = _combo_schedule(eta_schedule)
    parts = map_shards(_i2_shard, (params, counts, seed, combos), shards, workers)
    accepted_g = sum(p[1] for p in parts)
    if accepted_g == 0:
        raise NoConstraintPoints(
            f"no G ∩ D hits in {n_samples} samples at x={params.x}, eps={params.eps}"
        )
    k_min = np.inf
    theta_min = (np.nan, np.nan)
    group_min = [np.inf] * 4
    for s, p in enumerate(parts):
        if p[2] < k_min:
            k_min = p[2]
            theta_min = (p[3], p[4])
        group_min[s % 4] = min(group_min[s % 4], p[2])
    finite_groups = [g for g in group_min if np.isfinite(g)]
    if len(finite_groups) >= 2:
        band = (max(finite_groups) - min(finite_groups)) / 2.0 + 1e-9
    else:
        band = math.inf
    i1 = compute_I1(params)
    k_min, theta_min = _polish_minimum(
        params, theta_min[0], theta_min[1], k_min, floor=i1 - 1e-9
    )
    if i1 - 1e-9 <= k_min < i1:
        # Subset inclusion forces I2 >= I1 exactly; a dip this small is
        # roundoff between two independent minimizations, so project it out.
        k_min = i1
    return RateCurvePoint(
        x=params.x,
        I1=i1,
        I2=max(k_min, 0.0),
        accepted_G=accepted_g,
        samples=n_samples,
        noise_band=band,
        theta_at_min=theta_min,
    )


def compute_I1(params: RateParams) -> float:
    """I1 = inf k(theta1, 0) over the axis constraint segment.

    The segment is {H >= 0} = (P, Q] for x < 2/3, and k decreases along it,
    so I1 = k(Q).  For x >= 2/3 it is the whole axis piece of D, over which
    k falls to 0 at the origin end, so I1 = 0.
    """
    x = params.x
    if x >= 2.0 / 3.0:
        return 0.0
    return max(float(axis_k_t(solve_Q_detail(x).t, x)), 0.0)


# ---------------------------------------------------------------------------
# four-case classifier
# ---------------------------------------------------------------------------


def classify_theorem_two(beta: float, curve: list[RateCurvePoint],
                         grid_points: int = 2001) -> GFunctions:
    """Compare the exponential rates g_i(x) = beta*x + I_i(x) of the Laplace
    terms against the bare first-term exponents beta and (2/3)*beta.

    The numerator tag is N1 when the first term wins (beta < min g2), N2
    otherwise; the denominator tag is D1 when (2/3)*beta <= min g1, D2
    otherwise.  In every case the implied decay exponent of the ratio,
    min(beta, g2_min) - min((2/3)beta, g1_min), must be positive.
    """
    if beta <= 0.0:
        raise InvalidParams(f"beta must be positive, got {beta}")
    pts = sorted(
        (p for p in curve if np.isfinite(p.I2) and np.isfinite(p.I1)),
        key=lambda p: p.x,
    )
    if len(pts) < 8:
        raise InsufficientCurve(
            f"need >= 8 finite curve points, got {len(pts)}"
        )
    xs = np.array([p.x for p in pts])
    if np.any(np.diff(xs) <= 0.0):
        raise InsufficientCurve("curve x values must be strictly increasing")
    i1s = np.array([p.I1 for p in pts])
    i2s = np.array([p.I2 for p in pts])
    f1 = PchipInterpolator(xs, i1s)
    f2 = PchipInterpolator(xs, i2s)
    x_lo = float(xs[0])
    x_hi = float(xs[-1])
    if x_lo >= 2.0 / 3.0:
        raise InsufficientCurve("curve must reach below x = 2/3 for g1")

    g1_grid = np.linspace(x_lo, min(x_hi, 2.0 / 3.0), grid_points)
    g1_vals = beta * g1_grid + f1(g1_grid)
    j1 = int(np.argmin(g1_vals))
    g2_grid = np.linspace(x_lo, min(x_hi, 1.0), grid_points)
    g2_vals = beta * g2_grid + f2(g2_grid)
    j2 = int(np.argmin(g2_vals))

    g1_min, x_hat1 = float(g1_vals[j1]), float(g1_grid[j1])
    g2_min, x_hat2 = float(g2_vals[j2]), float(g2_grid[j2])
    n_tag = "N1" if beta < g2_min else "N2"
    d_tag = "D1" if 2.0 * beta / 3.0 <= g1_min else "D2"
    return GFunctions(
        beta=beta,
        g1_min=g1_min,
        g2_min=g2_min,
        case_tag=n_tag + d_tag,
        x_hat1=x_hat1,
        x_hat2=x_hat2,
    )
