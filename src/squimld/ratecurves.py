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
bound too, and compute_I2 keeps it beside the dual value as a check.  It
takes the whole x grid at once: it solves every x's dual and I1, then runs
one sampling job for the grid.  Every budget n >= 1 has an outcome:
where the draws miss G there is no check, and compute_I2 returns the
empty-G marker point (I2 = NaN, accepted_G = 0) instead of a value.

The Theorem-2 classifier (library only) minimises beta*x + I(x) directly:
q depends on x only through b, with db/dx = 2 theta1, so by Danskin's
theorem dI/dx = theta1 Int 1/q at the minimiser, 2Q for I1 (Int 1/q = 2 at
Q), and the minimum is the root of beta + dI/dx.

Sampling of D follows a two-stage scheme: pick a ray slope alpha through the
left vertex P of D, pick theta1, set theta2 = alpha*(theta1 + 1/(2x)), and
accept iff the three domain tests pass.  The lines h(1) = 1/2 and h(-1) = 1/2
both pass through P, so every ray with slope between -x/(1+eps) and x/(1-eps)
automatically satisfies Tests 1 and 2; only the Test-3 ellipse rejects.  Both
coordinates are drawn from exponentially tilted interval distributions
(tilted_sample), one of the fixed COMBOS per shard, to concentrate samples
near the interesting corners; the inverse CDF is one log1p of u times the
constant expm1(-eta (b - a)), finite at any tilt rate.

Shard determinism follows the parallel module: every job runs the fixed
SHARDS shards, and every sampled number is a function of (seed, shard
index) only, the combo included.  A shard's draws at one x are its 2n
uniforms (`_uniforms`) mapped through the ray scheme (`_ray_points`).  The
scan's worker reads them at its one x; I2's worker reads them once for the
whole grid and maps them at each x, so its draws at an x are those of a
fresh stream.  Both hand their draws to `_tested_k`, which runs one D
test per draw and the kernel, given that test's values, on the draws of D
the caller picks: all of them for the scan, those with theta2 > 0 for I2.
The scan has two outlets over the one `_scan_shard`: `domain_scan` returns
its rows as columns, and `domain_scan_csv` has each shard format its rows
as SCAN_DTYPE CSV text in the worker and yields the texts in shard order,
so domain-scan's table crosses the process pool once, as text.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import DualNotCertified, InvalidParams
from .gecore import (QRoot, RateParams, _b_of, _pieces_arr, _q_shape, axis_k_t, root_toward,
                     solve_Q_detail)
from .parallel import iter_shards, map_shards, shard_rng, split_counts
from .report import format_records

# The (eta, theta1 toward its upper end) of the D sampler; shard s draws
# under COMBOS[s % 7], and alpha always leans toward its upper (positive,
# G-side) end.  One plain pass (eta = 0 is uniform whatever the direction),
# then for each tilt 2, 8, 32 theta1 tilted toward either end.  The three
# theta1-upper combos almost never land in D: at eps = 0.1, seed 1 and
# 10^5 draws each, they hold 4, 0 and 0 D points at x = 0.1 and none at
# x = 0.4 or 0.7.  They stay because every sampled byte is pinned to this
# schedule; dropping them would also raise the share of rate-curves draws
# in D (defaults, seed 0) from 0.46 to 0.81, and the kernel work with it.
COMBOS = ((0.0, False), (2.0, False), (2.0, True), (8.0, False), (8.0, True), (32.0, False),
          (32.0, True))
# Shards of every D-sampler job, fixed because every sampled byte depends
# on it: 63 = 9 x 7, so each of the 7 COMBOS receives the same number.
SHARDS = 63
# The columns of domain-scan's CSV, in order; each dtype sets its column's format.
SCAN_DTYPE = np.dtype([("theta1", float), ("theta2", float), ("in_D", bool), ("in_G", bool),
                       ("k", float)])


@dataclass(frozen=True)
class RateCurvePoint:
    x: float
    I1: float
    I2: float  # max(-c(theta*), I1) from the certified dual; NaN when the draws miss G
    accepted_G: int
    samples: int
    noise_band: float = 0.0  # of sampled_k_min
    theta_at_min: tuple[float, float] | None = None  # the dual minimizer theta*
    dual_gap: float = math.nan
    newton_iters: int = 0
    sampled_k_min: float = math.nan  # min of k over the sampled G ∩ D points
    # wall seconds of this x's dual and I1 solves; not part of the result
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
# tilted interval sampling
# ---------------------------------------------------------------------------


def tilted_sample(u, a, b, eta, upper):
    """Inverse-CDF map of u in [0, 1] to [a, b] under a tilt of rate eta >= 0.

    Toward the lower end (upper false) the density is proportional to
    e^{-eta(s-a)}, toward the upper end to e^{-eta(b-s)}; eta = 0 is uniform.
    With the one scalar E = expm1(-eta (b - a)) in (-1, 0),

        lower: s = a - log1p(u E) / eta,
        upper: s = b + log1p((1 - u) E) / eta,

    one log1p per draw (Devroye 1986, sec. II.2).  u E stays in [E, 0], so
    nothing overflows at any eta (b - a); where E rounds to -1, log1p(-1) =
    -inf lands on the far end through the clip.  Monotone increasing in u.
    The near end is exact (s(0) = a lower, s(1) = b upper); the far one
    only in CDF space, as 1 + E rounds: at eta (b - a) = 30 on [0, 1], s(1)
    toward the lower end is 1 - 5.5e-6, where 1 - CDF is 2e-17.  Mapped
    back through biased_cdf, u returns to within 2e-13 for eta (b - a) up
    to 1600 on [-0.4, 0.6], and within 6e-13 up to 2000 on intervals inside
    [-5, 5.6]; the rounding of s, eta times an ulp of it, sets that error.
    """
    if eta == 0.0:
        return a + (b - a) * u
    e = math.expm1(-eta * (b - a))
    with np.errstate(divide="ignore"):
        if upper:
            s = b + np.log1p((1.0 - u) * e) / eta
        else:
            s = a - np.log1p(u * e) / eta
    return np.clip(s, a, b)


def biased_cdf(s, a, b, eta, upper):
    """Analytic CDF of tilted_sample's output (test oracle for the sampler)."""
    s = np.asarray(s, dtype=float)
    if eta == 0.0:
        return np.clip((s - a) / (b - a), 0.0, 1.0)
    L = eta * (b - a)
    t = np.clip(eta * (s - a), 0.0, L)
    # lower: u = (1 - e^{-t})/(1 - e^{-L}); upper: the same ratio
    # (e^t - 1)/(e^L - 1) times e^{t - L}, which cannot overflow
    u = np.expm1(-t) / math.expm1(-L)
    return np.exp(t - L) * u if upper else u


# ---------------------------------------------------------------------------
# domain sampling
# ---------------------------------------------------------------------------


def _ray_points(params: RateParams, u_alpha, u_theta1, combo):
    """(theta1, theta2) of the ray scheme at the uniforms, under one (eta, theta1 upper) combo."""
    eta, upper = combo
    x, eps = params.x, params.eps
    alpha = tilted_sample(u_alpha, -x / (1.0 + eps), x / (1.0 - eps), eta, True)
    theta1 = tilted_sample(u_theta1, -1.0 / (2.0 * x), 5.0 / (1.0 - x), eta, upper)
    theta2 = alpha * (theta1 + 1.0 / (2.0 * x))
    return theta1, theta2


def _uniforms(rng, n: int):
    """The 2n uniforms of n ray-scheme draws: n for alpha, then n for theta1."""
    return rng.random(n), rng.random(n)


def _in_G(pieces):
    """G membership, dc/dtheta1 <= 0 and dc/dtheta2 >= 0, in the strict interior."""
    return pieces["ok"] & (pieces["grad1"] <= 0.0) & (pieces["grad2"] >= 0.0)


def _tested_k(params: RateParams, theta1, theta2, keep):
    """(in_D, in_G, k) of the draws, from one D test per draw and the kernel,
    handed that test's values, on the draws of D that keep marks; elsewhere
    k is NaN and in_G false, as the kernel gives them off D."""
    shape = _q_shape(theta1, theta2, _b_of(params, theta1, theta2))
    picked = shape[3] & keep
    pieces = _pieces_arr(params, theta1[picked], theta2[picked], shape=[v[picked] for v in shape])
    in_g, k = np.zeros(len(theta1), dtype=bool), np.full(len(theta1), np.nan)
    in_g[picked], k[picked] = _in_G(pieces), pieces["k"]
    return shape[3], in_g, k


def _scan_shard(shard: int, payload):
    """Worker: one shard's draws and their kernel values, as the SCAN_DTYPE columns."""
    params, counts, seed = payload
    theta1, theta2 = _ray_points(params, *_uniforms(shard_rng(seed, shard), counts[shard]),
                                 COMBOS[shard % len(COMBOS)])
    return (theta1, theta2) + _tested_k(params, theta1, theta2, True)


def _payload(params, n_samples: int, seed: int):
    """The shard payload (params, per-shard counts, seed) of n_samples
    draws at params, one RateParams for the scan and the grid's tuple for
    I2: shard s draws its count from the (seed, s) stream under
    COMBOS[s % len(COMBOS)].  Refuses n_samples < 1."""
    if n_samples < 1:
        raise InvalidParams(f"n_samples must be >= 1, got {n_samples}")
    return params, split_counts(n_samples, SHARDS), seed


def domain_scan(params: RateParams, n_samples: int, seed: int = 0,
                workers: int | None = None):
    """Sample the dual plane; returns columns (theta1, theta2, in_D, in_G, k).

    Row order is fixed by the seed: SHARDS blocks in shard order, draws in
    stream order inside each block.  Raises InvalidParams for n_samples < 1.
    """
    parts = map_shards(_scan_shard, _payload(params, n_samples, seed), SHARDS, workers)
    return tuple(np.concatenate(col) for col in zip(*parts))


class ScanText(NamedTuple):
    """One shard's domain-scan rows as CSV text, and what it took."""

    text: bytes
    fallback_cells: int  # cells formatted one at a time
    d_points: int
    g_points: int
    scan_s: float  # drawing and kernel seconds
    format_s: float


def _scan_text_shard(shard: int, payload) -> ScanText:
    """Worker: one shard's _scan_shard rows, formatted as SCAN_DTYPE CSV."""
    clock = time.perf_counter()
    cols = _scan_shard(shard, payload)
    scanned = time.perf_counter()
    text, single = format_records(np.rec.fromarrays(cols, dtype=SCAN_DTYPE))
    return ScanText(text, single, int(np.count_nonzero(cols[2])), int(np.count_nonzero(cols[3])),
                    scanned - clock, time.perf_counter() - scanned)


def domain_scan_csv(params: RateParams, n_samples: int, seed: int = 0,
                    workers: int | None = None):
    """domain_scan's rows as CSV text: yields each shard's ScanText in shard
    order, as the pool finishes it.

    Joined under a SCAN_DTYPE header, the texts are byte for byte
    report.write_csv of domain_scan's columns as a SCAN_DTYPE record
    array.  Raises InvalidParams for n_samples < 1.
    """
    return iter_shards(_scan_text_shard, _payload(params, n_samples, seed), SHARDS, workers)


# ---------------------------------------------------------------------------
# I2 from the dual, checked by sampling; I1 on the axis
# ---------------------------------------------------------------------------


def _i2_grid_shard(shard: int, payload):
    """Worker: (n_in_D, n_in_G, k_min) of one shard's draws at each x of the grid.

    The shard reads its uniforms once and maps them through the ray scheme
    of each x, so its draws at each x are those of a fresh stream.  k_min
    is the minimum of k over the draws in G ∩ D, +inf when the shard never
    hits G.

    G lies in theta2 > 0, so the kernel runs only on the draws of D there.
    For theta2 <= 0, q(y) - q(-y) = -4 theta2 y >= 0 for y > 0, so
    Int y/q <= 0 and dc/dtheta2 = Int y/q - eps Int 1/q < 0: never in G.
    So the counts and k_min equal those of the kernel over every draw.
    """
    grid, counts, seed = payload
    uniforms = _uniforms(shard_rng(seed, shard), counts[shard])
    combo = COMBOS[shard % len(COMBOS)]
    out = []
    for params in grid:
        theta1, theta2 = _ray_points(params, *uniforms, combo)
        in_d, in_g, k = _tested_k(params, theta1, theta2, theta2 > 0.0)
        k_min = float(k[in_g].min()) if in_g.any() else np.inf
        out.append((int(np.count_nonzero(in_d)), int(np.count_nonzero(in_g)), k_min))
    return out


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
    theta1 = params.p_left + s
    ends = (2.0 * x * s - 2.0 * (1.0 - eps) * theta2, 2.0 * x * s + 2.0 * (1.0 + eps) * theta2)
    pieces = _pieces_arr(params, theta1, theta2, hessian=True,
                         shape=_q_shape(theta1, theta2, _b_of(params, theta1, theta2), ends))
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


def solve_dual(params: RateParams, root: QRoot | None = None) -> DualSolution:
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
    D.  root is solve_Q_detail(x) when the caller has it already.  Raises
    DualNotCertified when the best gap reached exceeds DUAL_GAP_TOL.
    """
    x = params.x
    s_max = -params.p_left  # theta1 = 0
    if x < 2.0 / 3.0 and root is None:
        root = solve_Q_detail(x)
    v = np.array([root.gap if x < 2.0 / 3.0 else s_max, 0.0])
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


def _dual_and_i1(params: RateParams):
    """(dual or None, its refusal or None, I1, seconds) at one x: compute_I2's
    solves, which share one solve of Q."""
    clock = time.perf_counter()
    root = solve_Q_detail(params.x) if params.x < 2.0 / 3.0 else None
    try:
        dual, refusal = solve_dual(params, root), None
    except DualNotCertified as err:
        dual, refusal = None, err
    return dual, refusal, compute_I1(params, root), time.perf_counter() - clock


def compute_I2(grid, n_samples: int, seed: int = 0,
               workers: int | None = None) -> list[RateCurvePoint]:
    """I2 at each RateParams of grid from the certified dual (solve_dual),
    with the sampler alongside; one RateCurvePoint per x, in grid order.

    Every x's dual and I1 are solved first, in grid order, so a solve that
    raises leaves no sampling work behind.  The sampler is then one job
    over the SHARDS shards for the whole grid: each shard draws its
    uniforms once and maps them to n_samples points of D at every x
    (_i2_grid_shard), keeping the minimum of k over those in G ∩ D.
    Every sampled k is an upper bound on I2 (weak duality), so
    the sampled minimum checks the dual value from above.  The
    two-constraint event lies inside the one-constraint event, so
    I2 >= I1, and I2 = max(-c(theta*), I1) states that once.

    Draws that never hit G leave no check, and the point is the empty-G
    marker: I2 = NaN, accepted_G = 0, sampled_k_min and noise_band inf.  It
    keeps the dual's theta_at_min, dual_gap and newton_iters when the dual
    certifies.  DualNotCertified is raised only at an x whose draws hit G,
    the first such x in grid order, and names it.

    The noise band of the sampled minimum is half the spread of the four
    per-shard-group minima (shards grouped by index mod 4) plus 1e-9,
    and inf with fewer than two groups in G.  Every point is the one a call
    with that x alone gives.  Raises InvalidParams for n_samples < 1.
    """
    grid = tuple(grid)
    payload = _payload(grid, n_samples, seed)
    solved = [_dual_and_i1(params) for params in grid]
    parts = map_shards(_i2_grid_shard, payload, SHARDS, workers)
    points = []
    for i, (params, (dual, refusal, i1, dual_s)) in enumerate(zip(grid, solved)):
        mine = [part[i] for part in parts]
        accepted_g = sum(p[1] for p in mine)
        if refusal is not None and accepted_g:
            raise refusal
        group_min = [min((p[2] for p in mine[g::4]), default=np.inf) for g in range(4)]
        finite = [k for k in group_min if np.isfinite(k)]
        band = (max(finite) - min(finite)) / 2.0 + 1e-9 if len(finite) >= 2 else math.inf
        points.append(RateCurvePoint(
            x=params.x, I1=i1, I2=max(dual.value, i1) if accepted_g else math.nan,
            accepted_G=accepted_g, samples=n_samples, noise_band=band,
            theta_at_min=dual.theta if dual else None, dual_gap=dual.gap if dual else math.nan,
            newton_iters=dual.iterations if dual else 0, sampled_k_min=min(group_min),
            dual_s=dual_s,
        ))
    return points


def _axis_rate(x: float, root: QRoot | None = None) -> tuple[float, float]:
    """(I1(x), dI1/dx) = (k at Q, 2Q) for x < 2/3, from root = solve_Q_detail(x)
    if given; I1 has no eps to check x against."""
    root = solve_Q_detail(x) if root is None else root
    return max(float(axis_k_t(root.t, x)), 0.0), 2.0 * root.theta1


def compute_I1(params: RateParams, root: QRoot | None = None) -> float:
    """I1 = inf k(theta1, 0) over the axis constraint segment.

    The segment is {H >= 0} = (P, Q] for x < 2/3, and k decreases along it,
    so I1 = k(Q).  For x >= 2/3 it is the whole axis piece of D, over which
    k falls to 0 at the origin end, so I1 = 0.  root is solve_Q_detail(x)
    when the caller has it already.
    """
    return 0.0 if params.x >= 2.0 / 3.0 else _axis_rate(params.x, root)[0]


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
    rate is cached, so the direction test, root_toward's first point and
    the value at the root each solve their x once.
    """
    rate = functools.cache(rate)
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
