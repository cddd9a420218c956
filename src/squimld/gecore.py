"""Closed forms for the scaled cumulant generating function and its geometry.

The central object is the two-parameter cumulant function

    c(t1, t2) = -1/2 * Int_{-1}^{1} log q(y) dy

with the quadratic kernel

    q(y) = 1 - 2*h(y) = 2*t1*y^2 - 2*t2*y + b,
    h(y) = t1*(1 - x - y^2) + t2*(y - eps),
    b    = 1 - 2*t1*(1 - x) + 2*t2*eps.

c is finite exactly on the domain D = {theta : q >= 0 on [-1, 1]}, whose
boundary is cut out by three tests (the two endpoint values of h and, when the
interior critical point of h lands in [-1, 1], its value there).  Everything
here reduces to elementary antiderivatives of y^m/q, y^m/q^2 and log q with
explicit branching on the discriminant

    disc = 4*t2^2 - 8*t1*b:

    disc > 0  -> q has two real roots outside [-1, 1]; partial fractions / log,
    disc < 0  -> (only possible for t1 > 0) completed square / arctan,
    disc ~ 0  -> double root; an expansion about it.

Where q is close to the constant b (the origin, the t1 = 0 line near it,
small t1 on either side) every closed form cancels, and power series in the
inverse roots of q take over.  The Hessian of c is 2 Int a_i a_j / q^2 with
a1 = 1 - x - y^2 and a2 = y - eps, from the same kernel.

The theta2 = 0 axis supports extra structure used by the one-observable rate
function: H(t1) = -1 + 1/2 * Int 1/q, which is 0 at the origin, convex, and
blows up (logarithmically) at the left endpoint P = -1/(2x) of D.  Its second
zero Q is found by bracketed_root in the log of the transformed coordinate

    t = s - 1,   s = sqrt(1/(-2*t1) + 1 - x),

because Q - P shrinks like exp(-2/x), far below float spacing of theta1 for
small x, while log t resolves it exactly.

Each quantity has one entry point.  The kernel's one input is a QShape,
the points' quadratic (t1, t2, b) with its D test (q(1), q(-1), q_min and
the in_D verdict that domain-scan writes), built by q_shape alone, or by
RateParams.shape, which forms b at (x, eps).  q_kernel, and rate_pieces
over it, take that record and return every other value as a key: the
integrals j, jy, y2 and lq, c, the gradient (grad1, grad2), k and the
strict-interior mask ok, with NaN integrals off it.
kernel_branches is the one statement of which closed form evaluates a
point.  On the axis, solve_Q_detail gives Q with its t coordinate and the
gap Q - P.  bracketed_root is the package's one root solve: Q here, theta*
and the rare-event tilt in wfe (through root_toward).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import InvalidParams, NoRoot

# Strict-interior threshold on min q over [-1, 1].
QMIN_STRICT = 1e-12
# With s = 2*t2/b and p = 2*t1/b, |s| + sqrt|p| at or below this puts both
# inverse roots of q within it and q on the power-series branch.
SERIES_TOL = 0.1
# Highest power of y kept there: (k + 1) * SERIES_TOL^k is ~1e-23 at k = 24.
SERIES_TERMS = 24
# Writing q = 2*t1*((y - rm)^2 - h^2), a near-double root with |h^2| at or
# below this times the squared distance of rm from [-1, 1] routes to the
# expansion in h^2, kept to the power TIE_ORDER: the dropped terms are
# ~14 * 0.05^13 ~ 2e-16 relative.  Outside the band the closed forms lose
# about 1/DISC_TIE_TOL times their own ulp to the near-cancelling roots.
DISC_TIE_TOL = 0.05
TIE_ORDER = 12
# A root r of q with |1/r| at or below this is far: its moments come from
# series in 1/r (see _root_moments); the second radius applies when the
# moments run up to y^4, for Int y^m/q^2.
FAR_ROOT_TOL = 0.1
FAR_ROOT_TOL_Q2 = 0.35


@dataclass(frozen=True)
class RateParams:
    """Model parameters: overlap level x and magnetization threshold eps.

    The ellipse condition (1 - x) - eps^2 > 0 keeps the curved piece of the
    domain boundary bounded (an ellipse rather than a hyperbola).
    """

    x: float
    eps: float

    def __post_init__(self):
        if not (0.0 < self.x <= 1.0):
            raise InvalidParams(f"x must be in (0, 1], got {self.x}")
        if not (self.eps > 0.0):
            raise InvalidParams(f"eps must be positive, got {self.eps}")
        if not ((1.0 - self.x) - self.eps**2 > 0.0):
            raise InvalidParams(
                f"(1 - x) - eps^2 must be positive, got x={self.x}, eps={self.eps}"
            )

    @property
    def p_left(self) -> float:
        """theta1 coordinate of the left-most domain point P on the axis."""
        return -1.0 / (2.0 * self.x)

    def shape(self, t1, t2, ends=None) -> QShape:
        """q_shape of theta = (t1, t2) at b = 1 - 2*t1*(1 - x) + 2*t2*eps."""
        t1, t2 = np.asarray(t1, dtype=float), np.asarray(t2, dtype=float)
        return q_shape(t1, t2, 1.0 - 2.0 * t1 * (1.0 - self.x) + 2.0 * t2 * self.eps, ends)


@dataclass(frozen=True)
class QRoot:
    """Second zero Q of H on the axis, in both coordinates."""

    theta1: float
    t: float
    gap: float  # Q - P = (t^2 + 2t) / (2x (t^2 + 2t + x)), free of cancellation
    h_residual: float
    fixed_point_residual: float  # |log t - log((2+t)*exp(-2(t+1)/(t^2+2t+x)))|


# ---------------------------------------------------------------------------
# elementary pieces (array-friendly)
# ---------------------------------------------------------------------------


class QShape(NamedTuple):
    """The kernel's one input, from q_shape: the quadratic q = 2*t1*y^2 -
    2*t2*y + b of some points and its D test, 1-d arrays of one length."""

    t1: np.ndarray
    t2: np.ndarray
    b: np.ndarray
    q1: np.ndarray
    qm1: np.ndarray
    q_min: np.ndarray
    in_D: np.ndarray

    def take(self, idx) -> QShape:
        """The shape of the points at the indices idx."""
        return QShape(*(v.take(idx) for v in self))


def q_shape(t1, t2, b, ends=None) -> QShape:
    """The QShape of q = 2*t1*y^2 - 2*t2*y + b, its D test included.

    This is the one place the endpoint and vertex values of q are formed,
    so every membership verdict and every reported q_min are views of the
    same numbers.  ends = (q(1), q(-1)) passes endpoint values the caller
    knows to better relative accuracy than 2*t1 -+ 2*t2 + b, which cancels
    near the vertex P of D.  The vertex y_c = t2/(2 t1) is a minimum of q
    only for t1 > 0, and counts only when it lands in [-1, 1].  q_min is
    the minimum of q over [-1, 1].  Every input broadcasts to one 1-d shape.

    in_D = q_min >= 0 is the one tie rule for the boundary of the closed
    set D (a NaN is not in D).
    """
    arrays = (np.atleast_1d(np.asarray(v, dtype=float)) for v in (t1, t2, b, *(ends or ())))
    t1, t2, b, *ends = np.broadcast_arrays(*arrays)
    q1, qm1 = ends or (2.0 * t1 - 2.0 * t2 + b, 2.0 * t1 + 2.0 * t2 + b)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        yc = np.where(t1 > 0.0, t2 / (2.0 * t1), np.inf)
        qvert = np.where(np.abs(yc) <= 1.0, b - t2 * yc, np.inf)
    q_min = np.minimum(np.minimum(q1, qm1), qvert)
    return QShape(t1, t2, b, q1, qm1, q_min, q_min >= 0.0)


def h_value(y, t1, t2, params: RateParams):
    """h(y) = t1*(1 - x - y^2) + t2*(y - eps), formed apart from the kernel's b."""
    return t1 * (1.0 - params.x - y * y) + t2 * (y - params.eps)


def _small_factor_from_product(f, g, prod):
    """(f, g) with the smaller of the two replaced by prod / (the larger)."""
    f_big = np.abs(f) >= np.abs(g)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        return np.where(f_big, f, prod / g), np.where(f_big, prod / f, g)


def _far_coefficients(n: int, m: int, radius: float) -> np.ndarray:
    """Coefficients in u^2 of the far-root series of Int y^m / (y - 1/u)^n.

    (y - r)^-n = (-u)^n sum_k C(k+n-1, n-1) u^k y^k, and Int y^(m+k) is
    2/(m+k+1) for even m + k, 0 otherwise; the terms kept reach 1e-18 of
    the leading one at |u| = radius.
    """
    coef = []
    k = m % 2
    while True:
        term = math.comb(k + n - 1, n - 1) * 2.0 / (m + k + 1)
        coef.append(term)
        if term * radius**k < 1e-18:
            return np.array(coef)
        k += 2


# _root_moments climbs to m_max = 2, or 4 with Int y^m/q^2, each with its
# far radius: _FAR_RADIUS[m_max] and _FAR_COEF[m_max][n - 1] at m = m_max,
# n = 1..2*TIE_ORDER + 4
_FAR_RADIUS = {2: FAR_ROOT_TOL, 4: FAR_ROOT_TOL_Q2}
_FAR_COEF = {
    m_max: [_far_coefficients(n, m_max, radius) for n in range(1, 2 * TIE_ORDER + 5)]
    for m_max, radius in _FAR_RADIUS.items()
}


def _root_moments(u, f, g, n_max: int, m_max: int):
    """I[n - 1][m] = Int_{-1}^{1} y^m / (y - r)^n dy for the root r = 1/u.

    n = 1..n_max, m = 0..m_max with m_max 2 or 4, as nested lists of
    arrays; u is real or complex, |u| < 1 (r off [-1, 1]), and f = 1 - u,
    g = 1 + u are passed in so that a caller who knows the small one of
    them more accurately than 1 -+ u can say so.
    The moments obey I[n, m] = I[n-1, m-1] + r I[n, m-1], with I[0, m] =
    Int y^m.  A nearer root climbs it in m from the closed forms at m = 0,
    log(f/g) for n = 1 and (d^(1-n) - e^(1-n))/(1-n) with the endpoint
    values d = -f/u, e = -g/u of y - r, losing about (m + 1) |r|^m / 2 ulp.
    So a far root, |u| at or below FAR_ROOT_TOL for m_max = 2 and
    FAR_ROOT_TOL_Q2 for m_max = 4 (u = 0 is a root at infinity), takes the
    series of _far_coefficients at m = m_max instead and descends,
    I[n, m-1] = u (I[n, m] - I[n-1, m-1]), which shrinks errors by |u|.
    """
    mu = [2.0 / (m + 1) if m % 2 == 0 else 0.0 for m in range(m_max + 1)]
    # the climb runs on every entry, far ones included (their values,
    # overwritten below, may be inf or nan)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        r = 1.0 / u
        if n_max > 1:
            d, e = -f * r, -g * r
        rows = []
        below = mu
        for n in range(1, n_max + 1):
            row = [np.log(f / g) if n == 1 else (d ** (1 - n) - e ** (1 - n)) / (1 - n)]
            for m in range(1, m_max + 1):
                row.append(below[m - 1] + r * row[m - 1])
            rows.append(row)
            below = row
    far = np.abs(u) <= _FAR_RADIUS[m_max]
    if np.any(far):
        uf = u[far]
        u2 = uf * uf
        below = mu
        for n in range(1, n_max + 1):
            coef = _FAR_COEF[m_max][n - 1]
            acc = coef[-1]
            for c in coef[-2::-1]:
                acc = c + u2 * acc
            series = [None] * m_max + [(-uf) ** n * acc * (uf if m_max % 2 else 1.0)]
            for m in range(m_max, 0, -1):
                series[m - 1] = uf * (series[m] - below[m - 1])
            for m in range(m_max + 1):
                rows[n - 1][m][far] = series[m]
            below = series
    return rows


def _put(rows, mask, values):
    """rows[i][mask] = values[i], row by row (a 2-d masked store is far slower)."""
    for row, value in zip(rows, values):
        row[mask] = value


def _series_pieces(s, p, b, with_q2: bool):
    """J_m (m = 0..2), Lq and, with with_q2, N_m = Int y^m/q^2 (m = 0..4)
    for q = b (1 - s y + p y^2) with both inverse roots small.

    Writing q/b = (1 - u1 y)(1 - u2 y), s = u1 + u2 and p = u1 u2; when
    |s| + sqrt|p| <= SERIES_TOL both |u| are at most SERIES_TOL, and
      b/q       = sum_k h_k y^k,   h_k = s h_(k-1) - p h_(k-2),
      b^2/q^2   = sum_k g_k y^k,   from (q/b)^2 * sum g_k y^k = 1,
      log(q/b)  = -sum_(k>=1) (u1^k + u2^k)/k y^k,
    with the power sums P_k = u1^k + u2^k = s P_(k-1) - p P_(k-2).  Real
    arithmetic throughout, so the double root, the affine q (p = 0) and the
    constant q (s = p = 0) need no case of their own.
    """
    mu = [2.0 / (k + 1) if k % 2 == 0 else 0.0 for k in range(SERIES_TERMS + 5)]
    h_prev, h = np.zeros_like(s), np.ones_like(s)
    pw_prev, pw = np.full_like(s, 2.0), s
    j = [np.zeros_like(s) for _ in range(3)]
    lq = np.zeros_like(s)
    if with_q2:
        g_hist = [np.zeros_like(s)] * 3 + [np.ones_like(s)]
        c1, c2, c3, c4 = 2.0 * s, -(s * s + 2.0 * p), 2.0 * s * p, -p * p
        n2 = [np.zeros_like(s) for _ in range(5)]
    for k in range(SERIES_TERMS + 1):
        if k > 0:
            h_prev, h = h, s * h - p * h_prev
            if k > 1:
                pw_prev, pw = pw, s * pw - p * pw_prev
            if k % 2 == 0:
                lq -= pw * (mu[k] / k)
            if with_q2:
                g_new = c1 * g_hist[3] + c2 * g_hist[2] + c3 * g_hist[1] + c4 * g_hist[0]
                g_hist = g_hist[1:] + [g_new]
        for m in range(3):
            if (m + k) % 2 == 0:
                j[m] += mu[m + k] * h
        if with_q2:
            for m in range(5):
                if (m + k) % 2 == 0:
                    n2[m] += mu[m + k] * g_hist[3]
    out = [jm / b for jm in j] + [2.0 * np.log(b) + lq]
    if with_q2:
        out.append([nm / (b * b) for nm in n2])
    return out


BRANCHES = ("series", "log", "atan", "tie")


def kernel_branches(shape: QShape):
    """Which closed form of q_kernel evaluates each point, by the one rule.

    For the shape's q = 2*t1*y^2 - 2*t2*y + b with b > 0, written
    b (1 - s y + p y^2), returns (s, p, disc, masks): s = 2 t2/b,
    p = 2 t1/b, disc = 4 t2^2 - 8 t1 b and the disjoint masks of the
    branches in BRANCHES order:
      series -- |s| + sqrt|p| <= SERIES_TOL;
      tie    -- off series, the double-root offset h^2 = disc/(16 t1^2)
                within DISC_TIE_TOL of the squared distance from
                rm = t2/(2 t1) to [-1, 1], which needs |rm| > 1;
      log    -- otherwise, disc > 0;
      atan   -- otherwise, disc < 0.
    A point on none of them has disc == 0 with the double root rm in
    [-1, 1]: q = 2 t1 (y - rm)^2 vanishes on [-1, 1], however q_min rounds,
    and q_kernel refuses it.
    """
    t1, t2, b = shape.t1, shape.t2, shape.b
    s = 2.0 * t2 / b
    p = 2.0 * t1 / b
    disc = 4.0 * t2 * t2 - 8.0 * t1 * b
    series = np.abs(s) + np.sqrt(np.abs(p)) <= SERIES_TOL
    # |h^2| / (|rm| - 1)^2 = |disc| / (4 (|t2| - 2|t1|)^2)
    gap_rm = np.abs(t2) - 2.0 * np.abs(t1)
    tie = ~series & (gap_rm > 0.0) & (np.abs(disc) <= DISC_TIE_TOL * 4.0 * gap_rm * gap_rm)
    roots = ~(series | tie)
    return s, p, disc, (series, roots & (disc > 0.0), roots & (disc < 0.0), tie)


@np.errstate(divide="ignore", invalid="ignore", over="ignore")
def q_kernel(shape: QShape, with_q2: bool = False):
    """Integrals of the shape's q(y) = 2*t1*y^2 - 2*t2*y + b over [-1, 1].

    The single closed-form kernel behind c, grad c, its Hessian and k here
    and behind p(theta) in wfe.  Returns 1-d arrays under the keys
      ok                  -- strict interior, q_min >= QMIN_STRICT, and on a
                             branch of kernel_branches,
      j, jy, y2, lq       -- Int 1/q, Int y/q, Int y^2/q and Int log q,
    and, with with_q2, q2 of shape (5, n): q2[m] = Int y^m/q^2, m = 0..4.
    The integrals are NaN wherever ok is False.  Every value comes from
    the shape (q_shape), whose q_min and in_D the caller holds: ok and
    every integral depend on q(+-1) through its q1 and qm1, so a caller
    that formed them from exact end values (as solve_dual does) gets
    integrals free of the rounded 2*t1 -+ 2*t2 + b.

    On the strict interior, where the integrals are kept, b = q(0) > 0 and
    q = b (1 - u1 y)(1 - u2 y) with inverse roots u1 + u2 = s = 2 t2/b and
    u1 u2 = p = 2 t1/b.  kernel_branches puts each point on one of four
    branches:
      series -- both roots far: power series (_series_pieces), which covers
                the constant, affine and small-t1 q where every closed form
                below cancels;
      log    -- real roots: partial fractions over the root moments
                (_root_moments), J_m = (I[r2] - I[r1]) / (b (u1 - u2)) and
                Int y^m/q^2 = (I2[r1] + I2[r2] - 4 t1 J_m) / disc, with I,
                I2 the n = 1, 2 moments;
      atan   -- the same partial fractions over the complex conjugate
                roots, J_m = -2 Im I[r] / sqrt(-disc) and
                Int y^m/q^2 = (2 Re I2[r] - 4 t1 J_m) / disc;
      tie    -- a near-double root rm off [-1, 1], q = 2 t1 ((y - rm)^2 - h^2):
                expanded in h^2 to TIE_ORDER.
    Off the series branch Int log q comes from c = -1/2 Int log q
    = 2 - 1/2 (log q(1) + log q(-1)) + t2 Int y/q - b Int 1/q.

    The branch passes run over every point handed over, under one errstate.
    When any point is on the log branch, it is evaluated in place over all
    of them, as it holds most points (92 % of domain-scan's at x = 0.7,
    eps = 0.3, and 94-99 % of the I2 sampler's at eps = 0.1); the series,
    atan and tie points then overwrite their own entries.  A point off the
    strict interior runs through the same formulas, which may read inf or
    NaN there, and every integral is set to NaN wherever ok is False.
    Every entry depends on its own point alone: a batch call equals the
    single-point calls bit for bit.
    """
    t1, t2, b, q1, qm1 = shape.t1, shape.t2, shape.b, shape.q1, shape.qm1
    n_max = 2 if with_q2 else 1
    m_max = 4 if with_q2 else 2

    s, p, disc, (series, logbranch, atanbranch, tie) = kernel_branches(shape)

    if np.any(logbranch):
        # over every point; the other branches overwrite theirs
        # signed b (u1 - u2) = sgn(s) sqrt(disc); u1 is the larger root in
        # size, u2 = p/u1 the smaller (0 when t1 = 0: a root at infinity)
        sq = np.copysign(np.sqrt(disc), s)
        u1 = 0.5 * (s + sq / b)
        u2 = p / u1
        # (1 -+ u1)(1 -+ u2) = q(+-1)/b exactly, and q(+-1) is known to full
        # absolute precision, so a root within ~1e-12 of an endpoint gets its
        # small factor from that product over the other (safe) one.  Near P
        # both endpoints have a root that close.
        f1, f2 = _small_factor_from_product(1.0 - u1, 1.0 - u2, q1 / b)
        g1, g2 = _small_factor_from_product(1.0 + u1, 1.0 + u2, qm1 / b)
        mom1 = _root_moments(u1, f1, g1, n_max, m_max)
        mom2 = _root_moments(u2, f2, g2, n_max, m_max)
        jl = [(i2 - i1) / sq for i1, i2 in zip(mom1[0], mom2[0])]  # Int y^m/q, m = 0..m_max
        q2 = ([(a1 + a2 - 4.0 * t1 * jm) / disc for a1, a2, jm in zip(mom1[1], mom2[1], jl)]
              if with_q2 else None)
        j = jl[:3]
    else:
        j = [np.empty(len(t1)) for _ in range(3)]  # Int y^m/q, m = 0, 1, 2
        q2 = [np.empty(len(t1)) for _ in range(5)] if with_q2 else None

    if np.any(series):
        pieces = _series_pieces(s[series], p[series], b[series], with_q2)
        _put(j, series, pieces[:3])
        if with_q2:
            _put(q2, series, pieces[4])

    if np.any(atanbranch):
        # complex roots r, conj(r) with u = 1/r = (s + i sqrt(-disc)/b)/2;
        # J_m = (I[conj r] - I[r]) / (i sqrt(-disc)) = -2 Im I[r] / sqrt(-disc)
        at1, ab, adisc = t1[atanbranch], b[atanbranch], disc[atanbranch]
        sq = np.sqrt(-adisc)
        u = 0.5 * (s[atanbranch] + 1j * sq / ab)
        mom = _root_moments(u, 1.0 - u, 1.0 + u, n_max, m_max)
        ja = [-2.0 * i1.imag / sq for i1 in mom[0]]
        _put(j, atanbranch, ja)
        if with_q2:
            _put(q2, atanbranch, [(2.0 * i2.real - 4.0 * at1 * jm) / adisc
                                  for i2, jm in zip(mom[1], ja)])

    if np.any(tie):
        # 1/q = sum_i h^(2i) (y - rm)^-(2i+2) / (2 t1) and
        # 1/q^2 = sum_i (i+1) h^(2i) (y - rm)^-(2i+4) / (4 t1^2)
        tt1, tt2 = t1[tie], t2[tie]
        h2 = disc[tie] / (16.0 * tt1 * tt1)
        u0 = 2.0 * tt1 / tt2  # 1/rm
        mom = np.array(_root_moments(u0, 1.0 - u0, 1.0 + u0,
                                     2 * TIE_ORDER + (4 if with_q2 else 2), m_max))
        jt = sum(h2**i * mom[2 * i + 1] for i in range(TIE_ORDER + 1)) / (2.0 * tt1)
        _put(j, tie, jt)
        if with_q2:
            _put(q2, tie, sum((i + 1) * h2**i * mom[2 * i + 3]
                              for i in range(TIE_ORDER + 1)) / (4.0 * tt1 * tt1))

    # c closed form (integration by parts), then Lq = -2c; the series
    # branch has its own Lq, which does not cancel
    lq = -2.0 * (2.0 - 0.5 * (np.log(qm1) + np.log(q1)) + t2 * j[1] - b * j[0])
    if np.any(series):
        lq[series] = pieces[3]

    integrals = j + [lq] + (q2 or [])
    # refused: off the strict interior, or on no branch (see kernel_branches)
    ok = (shape.q_min >= QMIN_STRICT) & (series | logbranch | atanbranch | tie)
    if not ok.all():
        _put(integrals, ~ok, [np.nan] * len(integrals))
    out = {"ok": ok}
    out.update(zip(("j", "jy", "y2", "lq"), integrals))
    if with_q2:
        out["q2"] = np.array(integrals[4:])
    return out


def rate_pieces(params: RateParams, shape: QShape, hessian: bool = False):
    """The kernel's output on params.shape(t1, t2) plus c, grad1, grad2 and k.

    With hessian, also h11, h12, h22 = 2 Int a_i a_j / q^2 with
    a1 = 1 - x - y^2 and a2 = y - eps, the second derivatives of c; all NaN where not ok.
    """
    out = q_kernel(shape, with_q2=hessian)
    j, lq = out["j"], out["lq"]
    out["c"] = -0.5 * lq
    out["grad1"] = (1.0 - params.x) * j - out["y2"]
    out["grad2"] = out["jy"] - params.eps * j
    out["k"] = -1.0 + 0.5 * j + 0.5 * lq
    if hessian:
        n0, n1, n2, n3, n4 = out["q2"]
        w, eps = 1.0 - params.x, params.eps
        out["h11"] = 2.0 * (w * w * n0 - 2.0 * w * n2 + n4)
        out["h12"] = 2.0 * (w * (n1 - eps * n0) - n3 + eps * n2)
        out["h22"] = 2.0 * (n2 - 2.0 * eps * n1 + eps * eps * n0)
    return out


def bracketed_root(f, a: float, b: float, fa: float, fb: float) -> float:
    """Root of f between a and b, where fa = f(a) and fb = f(b) differ in sign.

    False position with the Illinois rule (Dowell & Jarratt, BIT 1971): the
    value kept at an end that survives two steps in a row is halved.  Each
    step shrinks the bracket, and the loop stops, at the latest on adjacent
    doubles, once the next point no longer falls strictly inside it, so no
    tolerance is set.  Returns the end with the smaller |f|.
    """
    wa, wb = fa, fb  # the values false position weighs, halved by the rule
    kept = 0  # +1 when a survived the last step, -1 when b did
    while fa != 0.0 and fb != 0.0:
        c = b - wb * (b - a) / (wb - wa)
        if not min(a, b) < c < max(a, b):
            break
        fc = f(c)
        if (fc < 0.0) == (fa < 0.0):
            a, fa, wa = c, fc, fc
            if kept == -1:
                wb *= 0.5
            kept = -1
        else:
            b, fb, wb = c, fc, fc
            if kept == 1:
                wa *= 0.5
            kept = 1
    return a if abs(fa) <= abs(fb) else b


def root_toward(f, a: float, end: float) -> float:
    """Root of f between a and end: steps from a halfway to end until f
    changes sign, then calls bracketed_root.  f is never called at end,
    where it may be infinite; NoRoot is raised if no sign change comes
    before end."""
    fa = f(a)
    b = 0.5 * (a + end)
    while fa != 0.0:
        if not min(a, end) < b < max(a, end):
            raise NoRoot(f"f keeps the sign of f({a!r}) = {fa!r} up to the end {end!r}")
        fb = f(b)
        if fb == 0.0 or (fb < 0.0) != (fa < 0.0):
            return bracketed_root(f, a, b, fa, fb)
        a, fa, b = b, fb, 0.5 * (b + end)
    return a


# ---------------------------------------------------------------------------
# The theta2 = 0 axis: H, its second zero Q, and k along the axis.
# ---------------------------------------------------------------------------


def _theta1_from_t(t: float, x: float) -> float:
    return -1.0 / (2.0 * (t * t + 2.0 * t + x))


def axis_h_t(t, x):
    """H in the transformed coordinate t = s - 1 (valid for theta1 in (P, 0)).

    log(2 + t) - log(t) is written log1p(2/t): for large t the direct
    difference of two ~log(t) values loses the 2/t signal entirely, while
    H itself decays only like (x - 2/3)/t^2.
    """
    t = np.asarray(t, dtype=float)
    return (t * t + 2.0 * t + x) / (2.0 * (t + 1.0)) * np.log1p(2.0 / t) - 1.0


def axis_k_t(t, x):
    """k(theta1, 0) in the transformed coordinate.

    k = H + 1/2 Int log q with
    1/2 Int log q = -log(t^2 + 2t + x) + (2+t)log(2+t) - t log t - 2.

    The integral term is written log1p((2t + 4 - x)/w) + t log1p(2/t) - 2
    with w = t^2 + 2t + x: for large t the direct terms are each
    O(t log t) and cancel down to O(1/t^2), so the naive form is pure
    roundoff noise there (it drowns k ~ 1e-10 at t ~ 1e5), while the
    log1p form stays accurate over the whole axis.  Its small-t value is
    log(4/x) - 2 while H blows up, and for large t it cancels H to give
    k -> 0, matching k = 0 at theta = 0.
    """
    t = np.asarray(t, dtype=float)
    w = t * t + 2.0 * t + x
    half_lq = np.log1p((2.0 * t + 4.0 - x) / w) + t * np.log1p(2.0 / t) - 2.0
    return axis_h_t(t, x) + half_lq


def solve_Q_detail(x: float) -> QRoot:
    """Second zero of H on (P, 0), by bracketed_root in u = log t.

    H(t) -> +inf as t -> 0+ (the P end) and approaches 0 from below as
    t -> inf (the origin end) when x < 2/3, so a sign change between the
    floor t = 1e-300 and an upper end grown by factors of 4 brackets Q.
    Below x ~ 0.0029 Q's t lies under that floor, and NoRoot says so.
    """
    if not (0.0 < x <= 1.0):
        raise InvalidParams(f"x must be in (0, 1], got {x}")
    if x >= 2.0 / 3.0:
        raise NoRoot(f"H has no second zero for x={x} >= 2/3")

    def h_of_u(u):
        return float(axis_h_t(np.exp(u), x))

    lo = np.log(1e-300)
    flo = h_of_u(lo)
    if not flo > 0.0:
        raise NoRoot(f"Q - P at x={x} lies below the bracket floor t=1e-300: "
                     f"H(1e-300) = {flo!r} is not positive")
    # Expand the upper end until the (x - 2/3)/t^2 tail turns H negative.
    # Absolute evaluation error is ~1e-16, so the sign is trustworthy while
    # (2/3 - x)/t^2 stays well above that.
    t_hi = 4.0
    fhi = float(axis_h_t(t_hi, x))
    while fhi >= 0.0 and t_hi < 1e7:
        t_hi *= 4.0
        fhi = float(axis_h_t(t_hi, x))
    if not fhi < 0.0:
        raise NoRoot(f"H stays nonnegative up to t={t_hi:g} at x={x}: H = {fhi!r}")
    t = float(np.exp(bracketed_root(h_of_u, lo, np.log(t_hi), flo, fhi)))
    w = t * t + 2.0 * t
    fp_res = abs(np.log(t) - (np.log(2.0 + t) - 2.0 * (t + 1.0) / (w + x)))
    return QRoot(
        theta1=_theta1_from_t(t, x),
        t=t,
        gap=w / (2.0 * x * (w + x)),
        h_residual=float(axis_h_t(t, x)),
        fixed_point_residual=float(fp_res),
    )
