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
For x >= 2/3, k falls to 0 toward the origin, so I1 = 0.

I2 comes from the convex dual.  c is convex and k(theta) = c*(grad c(theta)),
and G is where grad c lies in the cone K = {z1 <= 0, z2 >= 0}, which is its
own dual cone, so Fenchel duality gives

    I2(x) = -min { c(theta) : theta in D, theta1 <= 0, theta2 >= 0 }.

solve_dual finds that minimum by projected Newton and certifies it with the
duality gap: -c at any point of the quadrant bounds I2 from below, k at any
point of G from above.  The sampled minimum of k over G ∩ D is such an upper
bound too, and compute_I2 keeps it beside the dual value as a check.

The Theorem-2 classifier (library only) minimises beta*x + I(x) directly:
q depends on x only through b, with db/dx = 2 theta1, so by Danskin's
theorem dI/dx = theta1 Int 1/q at the minimiser, 2Q for I1 (Int 1/q = 2 at
Q), and the minimum is the root of beta + dI/dx.

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
import time
from dataclasses import dataclass, field

import numpy as np

from .errors import DualNotCertified, InvalidParams, NoConstraintPoints
from .gecore import RateParams, _pieces_arr, axis_k_t, root_toward, solve_Q_detail
from .parallel import map_shards, shard_rng, split_counts

# Default tilt schedule for D sampling; 0 is the plain uniform pass.
ETA_DEFAULT = (0.0, 2.0, 8.0, 32.0)
# Default shard count: divisible by the 7-entry direction schedule below so
# every (eta, direction) combination receives the same number of shards.
SHARDS_DEFAULT = 63
# The fewest draws of D that compute_I2 accepts.
I2_MIN_SAMPLES = 10**4


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
    I2: float  # max(-c(theta*), I1) from the certified dual
    accepted_G: int
    samples: int
    noise_band: float = 0.0  # of sampled_k_min
    theta_at_min: tuple[float, float] | None = None  # the dual minimizer theta*
    dual_gap: float = math.nan
    newton_iters: int = 0
    sampled_k_min: float = math.nan  # min of k over the sampled G ∩ D points
    # wall seconds of the two stages; not part of the result
    sample_s: float = field(default=0.0, compare=False)
    dual_s: float = field(default=0.0, compare=False)

    def __post_init__(self):
        if self.I1 < 0.0:
            raise InvalidParams(f"I1 must be >= 0, got {self.I1}")
        if self.I2 < self.I1:
            raise InvalidParams(f"I2={self.I2} below I1={self.I1}")


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
# I2 from the dual, checked by sampling; I1 on the axis
# ---------------------------------------------------------------------------


def _i2_shard(shard: int, payload):
    """Worker: (n_in_D, n_in_G, k_min) of one shard's draws.

    k_min is the minimum of k over the draws in G ∩ D, +inf when the shard
    never hits G.  compute_I2 reads n_in_G and k_min; n_in_D is the shard's
    D acceptance count, which the layer benchmark's tracer reads.
    """
    _, _, pieces = _shard_draw(shard, payload)
    g_mask = _in_G(pieces)
    k_min = float(pieces["k"][g_mask].min()) if g_mask.any() else np.inf
    return int(np.count_nonzero(pieces["in_D"])), int(np.count_nonzero(g_mask)), k_min


# The dual solve certifies I2 when its duality gap is at or below this.
DUAL_GAP_TOL = 2e-9
# Newton stops once the gap is this small, or after NEWTON_MAX_ITERS steps.
DUAL_GAP_STOP = 1e-15
NEWTON_MAX_ITERS = 50
# Armijo fraction, and the slack its test gives c for roundoff: near the
# minimum the decrease a Newton step predicts falls below the ~1e-15 noise
# of c, and the slack lets the step through to reach the full-precision
# gradient.
ARMIJO = 1e-4
ROUNDOFF_SLACK = 64.0 * np.finfo(float).eps


@dataclass(frozen=True)
class DualSolution:
    """Minimum of c over the quadrant theta1 <= 0, theta2 >= 0 of D.

    value = -c(theta) is a lower bound on I2 at any point of the quadrant,
    and value + gap an upper bound, so the pair brackets I2.  The quadrant
    does not move with x, so slope = theta1 Int 1/q is dI2/dx (Danskin).
    """

    theta: tuple[float, float]
    value: float
    gap: float
    iterations: int
    slope: float


def _dual_pieces(params: RateParams, v):
    """(c, grad c, Hessian of c, Int 1/q) at theta = (P + s, theta2), v = (s, theta2).

    Near the vertex P both q(1) and q(-1) vanish, and forming them from
    theta1 loses all but a few digits to cancellation; from s they are the
    exact sums q(+-1) = 2 x s -+ 2 (1 -+ eps) theta2.  None outside the
    strict interior of D.
    """
    s, theta2 = v
    x, eps = params.x, params.eps
    ends = (2.0 * x * s - 2.0 * (1.0 - eps) * theta2, 2.0 * x * s + 2.0 * (1.0 + eps) * theta2)
    pieces = _pieces_arr(params, params.p_left + s, theta2, hessian=True, ends=ends)
    if not pieces["ok"][0]:
        return None
    c, g1, g2, h11, h12, h22, j = (float(pieces[key][0])
                                   for key in ("c", "grad1", "grad2", "h11", "h12", "h22", "j"))
    return c, np.array([g1, g2]), np.array([[h11, h12], [h12, h22]]), j


def _dual_gap(params: RateParams, v, grad) -> float:
    """Duality gap at theta = (P + s, theta2): I2 <= -c(theta) + gap.

    By convexity c(t) >= c(theta) + grad.(t - theta), and the quadrant's
    part of D lies in the box P <= t1 <= 0, 0 <= t2 <= 1/(2(1 - eps))
    (q(1) >= 0 there), so min c >= c(theta) - gap with gap = theta.grad
    minus the box minimum of t.grad.  Where grad c lies in the cone
    {g1 <= 0, g2 >= 0}, theta is in G and the gap is theta.grad c(theta),
    k(theta) - (-c(theta)); the box terms measure how far grad c is outside.
    """
    theta1 = params.p_left + v[0]
    g1, g2 = grad
    return (theta1 * g1 + v[1] * g2 + max(g1, 0.0) / (2.0 * params.x)
            + max(-g2, 0.0) / (2.0 * (1.0 - params.eps)))


def solve_dual(params: RateParams) -> DualSolution:
    """I2 as -min c over the quadrant, by projected Newton with a certificate.

    K = {z1 <= 0, z2 >= 0} is its own dual cone, so Fenchel duality gives
    I2 = inf {k(theta) : theta in G} = -min {c(theta) : theta in D,
    theta1 <= 0, theta2 >= 0}.  The solve runs in v = (s, theta2) with
    s = theta1 - P, from Q on the axis for x < 2/3 (where -c = k = I1, so
    descent keeps -c >= I1 up to the roundoff slack) and from the origin
    otherwise.  A
    coordinate at its bound with the gradient pointing out of the quadrant
    is held there, the free ones take a Newton step, and Armijo
    backtracking along the projected path keeps to the strict interior of
    D.  Raises DualNotCertified when the best gap reached exceeds
    DUAL_GAP_TOL.
    """
    x = params.x
    s_max = -params.p_left  # theta1 = 0
    v = np.array([solve_Q_detail(x).gap if x < 2.0 / 3.0 else s_max, 0.0])
    start = _dual_pieces(params, v)
    if start is None:
        raise DualNotCertified(x, params.eps, math.nan, DUAL_GAP_TOL, 0, "start theta1 = "
                               f"{float(params.p_left + v[0])!r} is not strictly inside D")
    c, grad, hess, j = start
    best = (_dual_gap(params, v, grad), v, c, j)
    iterations = 0
    while best[0] > DUAL_GAP_STOP and iterations < NEWTON_MAX_ITERS:
        free = [not (v[0] >= s_max and grad[0] < 0.0), not (v[1] <= 0.0 and grad[1] > 0.0)]
        step = np.zeros(2)
        if all(free):
            step = -np.linalg.solve(hess, grad)
        elif any(free):
            i = free.index(True)
            step[i] = -grad[i] / hess[i, i]
        else:
            break
        lam = 1.0
        while lam > 1e-18:
            trial = np.array([min(v[0] + lam * step[0], s_max), max(v[1] + lam * step[1], 0.0)])
            pieces = _dual_pieces(params, trial)
            if pieces is not None and pieces[0] <= (
                c + ARMIJO * float(grad @ (trial - v)) + ROUNDOFF_SLACK * (1.0 + abs(c))
            ):
                break
            lam *= 0.5
        else:
            break
        v, (c, grad, hess, j) = trial, pieces
        iterations += 1
        gap = _dual_gap(params, v, grad)
        if gap < best[0]:
            best = (gap, v, c, j)
    gap, v, c, j = best
    if not gap <= DUAL_GAP_TOL:
        raise DualNotCertified(x, params.eps, gap, DUAL_GAP_TOL, iterations)
    theta1 = params.p_left + float(v[0])
    return DualSolution(theta=(theta1, float(v[1])), value=-c, gap=float(gap),
                        iterations=iterations, slope=theta1 * j)


def compute_I2(params: RateParams, n_samples: int, eta_schedule=ETA_DEFAULT,
               seed: int = 0, shards: int = SHARDS_DEFAULT,
               workers: int | None = None) -> RateCurvePoint:
    """I2 from the certified dual (solve_dual), with the sampler alongside.

    The sampler draws n_samples points of D and keeps the minimum of k over
    those in G ∩ D.  Every such k is an upper bound on I2 (weak duality),
    so the sampled minimum checks the dual value from above; it raises
    NoConstraintPoints if the draws never hit G.  The two-constraint event
    lies inside the one-constraint event, so I2 >= I1, and
    I2 = max(-c(theta*), I1) states that once.

    The noise band of the sampled minimum is half the spread of the four
    per-shard-group minima (shards grouped by index mod 4), floored at 1e-9.
    """
    if n_samples < I2_MIN_SAMPLES:
        raise InvalidParams(f"n_samples must be >= 1e4, got {n_samples}")
    clock = time.perf_counter()
    counts = split_counts(n_samples, shards)
    combos = _combo_schedule(eta_schedule)
    parts = map_shards(_i2_shard, (params, counts, seed, combos), shards, workers)
    accepted_g = sum(p[1] for p in parts)
    if accepted_g == 0:
        raise NoConstraintPoints(
            f"no G ∩ D hits in {n_samples} samples at x={params.x}, eps={params.eps}"
        )
    group_min = [np.inf] * 4
    for s, p in enumerate(parts):
        group_min[s % 4] = min(group_min[s % 4], p[2])
    finite_groups = [g for g in group_min if np.isfinite(g)]
    if len(finite_groups) >= 2:
        band = (max(finite_groups) - min(finite_groups)) / 2.0 + 1e-9
    else:
        band = math.inf
    sampled = time.perf_counter()
    dual = solve_dual(params)
    i1 = compute_I1(params)
    return RateCurvePoint(
        x=params.x,
        I1=i1,
        I2=max(dual.value, i1),
        accepted_G=accepted_g,
        samples=n_samples,
        noise_band=band,
        theta_at_min=dual.theta,
        dual_gap=dual.gap,
        newton_iters=dual.iterations,
        sampled_k_min=min(group_min),
        sample_s=sampled - clock,
        dual_s=time.perf_counter() - sampled,
    )


def _axis_rate(x: float) -> tuple[float, float]:
    """(I1(x), dI1/dx) = (k at Q, 2Q) for x < 2/3; I1 has no eps to check x against."""
    root = solve_Q_detail(x)
    return max(float(axis_k_t(root.t, x)), 0.0), 2.0 * root.theta1


def compute_I1(params: RateParams) -> float:
    """I1 = inf k(theta1, 0) over the axis constraint segment.

    The segment is {H >= 0} = (P, Q] for x < 2/3, and k decreases along it,
    so I1 = k(Q).  For x >= 2/3 it is the whole axis piece of D, over which
    k falls to 0 at the origin end, so I1 = 0.
    """
    return 0.0 if params.x >= 2.0 / 3.0 else _axis_rate(params.x)[0]


# ---------------------------------------------------------------------------
# Theorem-2 classifier
# ---------------------------------------------------------------------------


def _min_over_x(beta: float, x_max: float, rate) -> tuple[float, float]:
    """(min, argmin) of beta*x + I(x) over 0 < x < x_max; rate(x) = (I, dI/dx).

    g' = beta + dI/dx runs from -inf at x -> 0 to g' > 0 at
    x_top = min(x_max, 1/beta), as dI/dx stays above 2P = -1/x (for I1,
    2Q > 2P).  root_toward starts at
    x0 = x_top / (1 + x_top), 1/(beta + 1) for large beta, and steps toward
    x_top if g'(x0) < 0, else toward 0: no x below x0 is probed needlessly.
    """
    x_top = min(x_max, 1.0 / beta)
    x0 = x_top / (1.0 + x_top)
    up = beta + rate(x0)[1] < 0.0
    x = root_toward(lambda x: beta + rate(x)[1], x0, x_top if up else 0.0)
    return beta * x + rate(x)[0], x


def classify_theorem_two(beta: float, eps: float) -> GFunctions:
    """Compare the exponential rates g_i(x) = beta*x + I_i(x) of the Laplace
    terms against the bare first-term exponents beta and (2/3)*beta.

    x runs over (0, 2/3) for g1, beyond which I1 = 0, and over the admitted
    (0, 1 - eps^2) for g2.  The numerator tag is N1 when the first term wins
    (beta < min g2), N2 otherwise; the denominator tag is D1 when
    (2/3)*beta <= min g1, D2 otherwise.  In every case the implied decay
    exponent of the ratio, min(beta, g2_min) - min((2/3)beta, g1_min), must
    be positive.  A dual that does not certify raises DualNotCertified,
    naming beta.
    """
    if not beta > 0.0:
        raise InvalidParams(f"beta must be positive, got {beta}")
    if not 0.0 < eps < 1.0:
        raise InvalidParams(f"eps must lie in (0, 1), got {eps}")

    def dual_rate(x):
        dual = solve_dual(RateParams(x=x, eps=eps))
        return dual.value, dual.slope

    try:
        g2_min, x_hat2 = _min_over_x(beta, 1.0 - eps * eps, dual_rate)
    except DualNotCertified as err:
        raise DualNotCertified(err.x, err.eps, err.gap, err.threshold, err.iterations,
                               "; ".join(filter(None, (f"beta={beta!r}", err.reason)))) from err
    g1_min, x_hat1 = _min_over_x(beta, 2.0 / 3.0, _axis_rate)
    n_tag = "N1" if beta < g2_min else "N2"
    d_tag = "D1" if 2.0 * beta / 3.0 <= g1_min else "D2"
    return GFunctions(beta=beta, g1_min=g1_min, g2_min=g2_min, case_tag=n_tag + d_tag,
                      x_hat1=x_hat1, x_hat2=x_hat2)
