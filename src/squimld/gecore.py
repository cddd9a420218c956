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
here reduces to elementary antiderivatives of 1/q, y/q, y^2/q and log q with
explicit branching on the discriminant

    disc = 4*t2^2 - 8*t1*b:

    disc > 0  -> q has two real roots outside [-1, 1]; partial fractions / log,
    disc < 0  -> (only possible for t1 > 0) completed square / arctan,
    disc ~ 0  -> double root; the common limit of both branches.

The t1 = 0 line degenerates q to an affine function and gets its own closed
forms (with short power series where the t2 -> 0 cancellation bites).

The theta2 = 0 axis supports extra structure used by the one-observable rate
function: H(t1) = -1 + 1/2 * Int 1/q, which is 0 at the origin, convex, and
blows up (logarithmically) at the left endpoint P = -1/(2x) of D.  Its second
zero Q is found by bisection in the transformed coordinate

    t = s - 1,   s = sqrt(1/(-2*t1) + 1 - x),

because Q - P shrinks like exp(-2/x), far below float spacing of theta1 for
small x, while log t resolves it exactly.

All worker formulas accept numpy arrays; the public scalar API validates and
raises, the ``*_arr`` variants return NaN masks instead (for the Monte Carlo
hot path).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidParams, NearBoundary, NoRoot

# Strict-interior threshold on min q over [-1, 1].
QMIN_STRICT = 1e-12
# |t1| at or below this routes to the affine (t1 = 0) closed forms, plus
# their first-order terms in t1.
T1_AFFINE_TOL = 1e-10
# |disc| at or below this routes to the double-root limiting form.
DISC_TIE_TOL = 1e-10
# solve_Q_detail stops bisecting once |H| at the midpoint falls below this.
Q_H_TOL = 1e-12
# |2*t2/b| below this switches the affine branch to power series in u = 2*t2/b.
# At the crossover the u^8 truncation error is ~1e-17 while the closed forms
# already lose ~1e-11 to log cancellation, so the series side is the safe one.
AFFINE_SERIES_TOL = 1e-2
# A root r of q with |1/r| at or below this is far: its moments come from
# series in 1/r (see _root_moments).
FAR_ROOT_TOL = 0.1


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


@dataclass(frozen=True)
class ThetaPair:
    theta1: float
    theta2: float


@dataclass(frozen=True)
class KernelQ:
    """q(y) = 2*t1*y^2 - 2*t2*y + b = 1 - 2*h(y), with its shape data."""

    theta: ThetaPair
    b: float
    params: RateParams

    @classmethod
    def from_theta(cls, theta: ThetaPair, params: RateParams) -> "KernelQ":
        return cls(theta, _b_of(params, theta.theta1, theta.theta2), params)

    def evaluate(self, y):
        return 2.0 * self.theta.theta1 * y * y - 2.0 * self.theta.theta2 * y + self.b

    @property
    def disc(self) -> float:
        return 4.0 * self.theta.theta2**2 - 8.0 * self.theta.theta1 * self.b

    @property
    def q_min(self) -> float:
        return float(_q_shape(self.theta.theta1, self.theta.theta2, self.b)[3])


@dataclass(frozen=True)
class DomainVerdict:
    in_domain: bool
    failed_test: str | None  # "Test1" | "Test2" | "Test3" | None
    q_min: float
    strictly_inside: bool


@dataclass(frozen=True)
class QRoot:
    """Second zero Q of H on the axis, in both coordinates."""

    theta1: float
    t: float
    h_residual: float
    fixed_point_residual: float  # |log t - log((2+t)*exp(-2(t+1)/(t^2+2t+x)))|


# ---------------------------------------------------------------------------
# elementary pieces (array-friendly)
# ---------------------------------------------------------------------------


def _b_of(params: RateParams, t1, t2):
    """Constant term b = 1 - 2*t1*(1 - x) + 2*t2*eps of q."""
    return 1.0 - 2.0 * t1 * (1.0 - params.x) + 2.0 * t2 * params.eps


def _q_shape(t1, t2, b):
    """(q(1), q(-1), vertex value, q_min, in_D) for q = 2*t1*y^2 - 2*t2*y + b.

    This is the one place the endpoint and vertex values of q are formed,
    so every membership verdict and every reported q_min are views of the
    same numbers.  The vertex y_c = t2/(2 t1) is a minimum of q only for
    t1 > 0, and counts only when it lands in [-1, 1]; elsewhere the vertex
    value reads +inf.  q_min is the minimum of q over [-1, 1].

    in_D = q_min >= 0 is the one tie rule for the boundary of the closed
    set D (a NaN is not in D).
    """
    t1 = np.asarray(t1, dtype=float)
    t2 = np.asarray(t2, dtype=float)
    q1 = 2.0 * t1 - 2.0 * t2 + b
    qm1 = 2.0 * t1 + 2.0 * t2 + b
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        yc = np.where(t1 > 0.0, t2 / (2.0 * t1), np.inf)
        qvert = np.where(np.abs(yc) <= 1.0, b - t2 * yc, np.inf)
    q_min = np.minimum(np.minimum(q1, qm1), qvert)
    return q1, qm1, qvert, q_min, q_min >= 0.0


def q_min_arr(params: RateParams, t1, t2):
    """Vector version of the exact parabola minimum over [-1, 1]."""
    t1 = np.asarray(t1, dtype=float)
    t2 = np.asarray(t2, dtype=float)
    return _q_shape(t1, t2, _b_of(params, t1, t2))[3]


def h_value(y: float, theta: ThetaPair, params: RateParams) -> float:
    """h(y) = t1*(1 - x - y^2) + t2*(y - eps)."""
    t1, t2 = theta.theta1, theta.theta2
    return t1 * (1.0 - params.x - y * y) + t2 * (y - params.eps)


def domain_tests_arr(params: RateParams, t1, t2):
    """Vectorized membership tests for D.

    Returns (in_domain, failed) where failed is 0 for members and 1/2/3 for
    the first failing test:
      Test1: h(1)  <= 1/2, i.e. q(1) >= 0
      Test2: h(-1) <= 1/2, i.e. q(-1) >= 0
      Test3: q >= 0 at the interior critical point y_c = t2/(2 t1), when
             t1 > 0 and y_c lands in [-1, 1].
    in_domain is q_min_arr(...) >= 0, and failed is 0 exactly there.
    """
    t1 = np.asarray(t1, dtype=float)
    t2 = np.asarray(t2, dtype=float)
    q1, qm1, qvert, _, in_d = _q_shape(t1, t2, _b_of(params, t1, t2))
    # a NaN fails its test, so failed is 0 exactly where in_d holds
    failed = np.select([~(q1 >= 0.0), ~(qm1 >= 0.0), ~(qvert >= 0.0)], [1, 2, 3], 0)
    return in_d, failed.astype(np.int8)


def in_domain_D(theta: ThetaPair, params: RateParams) -> DomainVerdict:
    """Three-test membership verdict plus the strict-interior guard value."""
    in_d, failed = domain_tests_arr(params, theta.theta1, theta.theta2)
    q_min = KernelQ.from_theta(theta, params).q_min
    return DomainVerdict(
        in_domain=bool(in_d),
        failed_test=(None, "Test1", "Test2", "Test3")[int(failed)],
        q_min=q_min,
        strictly_inside=q_min >= QMIN_STRICT,
    )


def _affine_pieces(t1, b, t2):
    """J, Jy, Y2, Lq for q(y) = 2*t1*y^2 + q0(y) with |t1| <= T1_AFFINE_TOL.

    The integrals of the affine q0(y) = b - 2*t2*y (requires b > 0,
    |2 t2| < b) plus their first-order terms in t1: with N_m = Int y^m/q0^2,
    Int log q ~ Int log q0 + 2 t1 Int y^2/q0 and Int y^m/q ~ Int y^m/q0
    - 2 t1 N_{m+2}.  The next terms are O((t1/q0)^2).  Series in u = 2*t2/b
    are used below AFFINE_SERIES_TOL where the closed forms cancel
    catastrophically.
    """
    t1 = np.asarray(t1, dtype=float)
    b = np.asarray(b, dtype=float)
    t2 = np.asarray(t2, dtype=float)
    u = 2.0 * t2 / b
    q1 = b - 2.0 * t2
    qm1 = b + 2.0 * t2
    small = np.abs(u) <= AFFINE_SERIES_TOL
    u2 = u * u
    u4 = u2 * u2
    u6 = u4 * u2
    # J = Int 1/q
    with np.errstate(divide="ignore", invalid="ignore"):
        j_exact = np.where(
            small, 0.0, (np.log(np.abs(qm1)) - np.log(np.abs(q1))) / (2.0 * t2)
        )
    j_series = (2.0 / b) * (1.0 + u2 / 3.0 + u4 / 5.0 + u6 / 7.0)
    j = np.where(small, j_series, j_exact)
    # Jy = Int y/q = (b*log(qm1/q1) - 4 t2) / (4 t2^2)
    with np.errstate(divide="ignore", invalid="ignore"):
        jy_exact = np.where(
            small,
            0.0,
            (b * (np.log(np.abs(qm1)) - np.log(np.abs(q1))) - 4.0 * t2)
            / (4.0 * t2 * t2),
        )
    jy_series = (u / b) * (2.0 / 3.0 + 2.0 * u2 / 5.0 + 2.0 * u4 / 7.0 + 2.0 * u6 / 9.0)
    jy = np.where(small, jy_series, jy_exact)
    # Y2 = Int y^2/q = (b^2*log(qm1/q1) - 4 b t2) / (8 t2^3)
    with np.errstate(divide="ignore", invalid="ignore"):
        y2_exact = np.where(
            small,
            1.0,
            (b * b * (np.log(np.abs(qm1)) - np.log(np.abs(q1))) - 4.0 * b * t2)
            / (8.0 * t2**3),
        )
    y2_series = (2.0 / b) * (1.0 / 3.0 + u2 / 5.0 + u4 / 7.0 + u6 / 9.0)
    y2 = np.where(small, y2_series, y2_exact)
    # Lq = Int log q = (1/(2 t2)) * [u log u - u] from q1 to qm1
    with np.errstate(divide="ignore", invalid="ignore"):
        lq_exact = np.where(
            small,
            0.0,
            (
                (qm1 * np.log(np.abs(qm1)) - qm1)
                - (q1 * np.log(np.abs(q1)) - q1)
            )
            / (2.0 * t2),
        )
    lq_series = 2.0 * np.log(b) - 2.0 * (
        u2 / 6.0 + u4 / 20.0 + u6 / 42.0 + u4 * u4 / 72.0
    )
    lq = np.where(small, lq_series, lq_exact)
    # N_m by N_{m+1} = (b N_m - Int y^m/q0) / (2 t2) from N_0 = 2/(q1 qm1).
    # Just above the series switch this loses up to ~1e-6 relative in N_4,
    # harmless since the N_m enter only multiplied by 2 t1.
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        s2 = 2.0 * t2
        n1 = (b * 2.0 / (q1 * qm1) - j) / s2
        n2_exact = (b * n1 - jy) / s2
        n3_exact = (b * n2_exact - y2) / s2
        n4_exact = (b * n3_exact - (b * y2 - 2.0 / 3.0) / s2) / s2
    scale = 2.0 / (b * b)
    n2 = np.where(
        small, scale * (1.0 / 3.0 + 3.0 * u2 / 5.0 + 5.0 * u4 / 7.0 + 7.0 * u6 / 9.0),
        n2_exact,
    )
    n3 = np.where(
        small,
        scale * u * (2.0 / 5.0 + 4.0 * u2 / 7.0 + 6.0 * u4 / 9.0 + 8.0 * u6 / 11.0),
        n3_exact,
    )
    n4 = np.where(
        small, scale * (1.0 / 5.0 + 3.0 * u2 / 7.0 + 5.0 * u4 / 9.0 + 7.0 * u6 / 11.0),
        n4_exact,
    )
    two_t1 = 2.0 * t1
    return j - two_t1 * n2, jy - two_t1 * n3, y2 - two_t1 * n4, lq + two_t1 * y2


def _small_factor_from_product(f, g, prod):
    """(f, g) with the smaller of the two replaced by prod / (the larger)."""
    f_big = np.abs(f) >= np.abs(g)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        return np.where(f_big, f, prod / g), np.where(f_big, prod / f, g)


def _root_moments(r, d, e):
    """Int_{-1}^{1} y^m / (y - r) dy, m = 0, 1, 2, for a real root |r| > 1.

    d = 1 - r and e = 1 + r.  With L the m = 0 moment the others are
    2 + r*L and r*(2 + r*L), which cancel for a far root; there, with
    u = 1/r, L = -2*atanh(u) and 2 + r*L = -2*u^2*sum_k u^(2k)/(2k + 3).
    """
    lm = np.log(np.abs(d)) - np.log(np.abs(e))
    m1 = 2.0 + r * lm
    m2 = r * m1
    u = 1.0 / r
    far = np.abs(u) <= FAR_ROOT_TOL
    if np.any(far):
        u = u[far]
        u2 = u * u
        s = 1.0 / 17.0
        for k in range(7, 0, -1):  # truncated after u^14: < 1e-16 at FAR_ROOT_TOL
            s = 1.0 / (2 * k + 1) + u2 * s
        lm[far] = -2.0 * np.arctanh(u)
        m1[far] = -2.0 * u2 * s
        m2[far] = -2.0 * u * s
    return lm, m1, m2


def q_kernel(t1, t2, b):
    """Shape and integrals of q(y) = 2*t1*y^2 - 2*t2*y + b over [-1, 1].

    The single closed-form kernel behind c, grad c and k here and behind
    p(theta) in wfe.  Returns 1-d arrays under the keys
      q_min, in_D         -- min q over [-1, 1] and membership in D (_q_shape),
      ok                  -- strict interior, q_min >= QMIN_STRICT,
      j, jy, y2, lq       -- Int 1/q, Int y/q, Int y^2/q and Int log q,
    with the integrals NaN wherever ok is False.
    """
    t1, t2, b = np.broadcast_arrays(
        *(np.atleast_1d(np.asarray(v, dtype=float)) for v in (t1, t2, b))
    )
    q1, qm1, _, qmin, in_d = _q_shape(t1, t2, b)
    ok = qmin >= QMIN_STRICT
    shape = t1.shape
    # The integrals run on the strict interior only.
    t1, t2, b, q1, qm1 = (v[ok] for v in (t1, t2, b, q1, qm1))

    j = np.empty(t1.shape)
    jy = np.empty(t1.shape)
    y2 = np.empty(t1.shape)
    lq = np.empty(t1.shape)

    affine = np.abs(t1) <= T1_AFFINE_TOL
    general = ~affine

    if np.any(affine):
        j[affine], jy[affine], y2[affine], lq[affine] = _affine_pieces(
            t1[affine], b[affine], t2[affine]
        )

    if np.any(general):
        gt1 = t1[general]
        gt2 = t2[general]
        gb = b[general]
        gq1 = q1[general]
        gqm1 = qm1[general]
        gdisc = 4.0 * gt2 * gt2 - 8.0 * gt1 * gb
        jg = np.empty(gt1.shape)
        jyg = np.empty(gt1.shape)
        y2g = np.empty(gt1.shape)

        logbranch = gdisc > DISC_TIE_TOL
        atanbranch = gdisc < -DISC_TIE_TOL
        tie = ~logbranch & ~atanbranch

        if np.any(logbranch):
            a2 = 2.0 * gt1[logbranch]
            bb = -2.0 * gt2[logbranch]  # q = a2*y^2 + bb*y + cc
            cc = gb[logbranch]
            sq = np.sqrt(gdisc[logbranch])
            sB = np.where(bb >= 0.0, 1.0, -1.0)
            r_stable = (-bb - sB * sq) / (2.0 * a2)
            r_other = cc / (a2 * r_stable)
            # r_plus carries +sqrt(disc)
            r_plus = np.where(sB < 0.0, r_stable, r_other)
            r_minus = np.where(sB < 0.0, r_other, r_stable)
            # When a root sits within ~1e-12 of an endpoint its small factor
            # 1 -+ r loses all relative accuracy to cancellation.  The factor
            # pair at each endpoint satisfies (1 -+ r_plus)(1 -+ r_minus)
            # = q(+-1)/(2 theta1) exactly, and q(+-1) is known to full
            # absolute precision, so the small factor is taken as that
            # product over the big (safe) one.
            d_p, d_m = _small_factor_from_product(
                1.0 - r_plus, 1.0 - r_minus, gq1[logbranch] / a2
            )
            e_p, e_m = _small_factor_from_product(
                1.0 + r_plus, 1.0 + r_minus, gqm1[logbranch] / a2
            )
            # 1/q = (1/(y - r_plus) - 1/(y - r_minus)) / sqrt(disc)
            plus = _root_moments(r_plus, d_p, e_p)
            minus = _root_moments(r_minus, d_m, e_m)
            for out, m_plus, m_minus in zip((jg, jyg, y2g), plus, minus):
                out[logbranch] = (m_plus - m_minus) / sq

        if np.any(atanbranch):
            at1 = gt1[atanbranch]
            at2 = gt2[atanbranch]
            ab = gb[atanbranch]
            ap = 2.0 * at1
            bp = at2 / (2.0 * at1)
            cp = ab - at2 * bp  # b - t2^2/(2 t1) = -disc/(8 t1) > 0
            kk = np.sqrt(ap / cp)
            jg[atanbranch] = (
                np.arctan(kk * (1.0 - bp)) - np.arctan(kk * (-1.0 - bp))
            ) / np.sqrt(ap * cp)

        if np.any(tie):
            tt1 = gt1[tie]
            bp = gt2[tie] / (2.0 * tt1)
            jg[tie] = 1.0 / (tt1 * (bp * bp - 1.0))

        # Off the log branch t2^2 <= 2*t1*b (up to the tie band), so these
        # recurrences lose little to their division by t1; on it the roots
        # above avoid that division, which cancels badly for small t1.
        rec = ~logbranch
        if np.any(rec):
            rt1, rt2, rb, rj = gt1[rec], gt2[rec], gb[rec], jg[rec]
            logratio = np.log(gq1[rec]) - np.log(gqm1[rec])  # log(q(1)/q(-1))
            rjy = logratio / (4.0 * rt1) + rt2 / (2.0 * rt1) * rj
            jyg[rec] = rjy
            y2g[rec] = (2.0 - rb * rj + 2.0 * rt2 * rjy) / (2.0 * rt1)
        # c closed form (integration by parts), then Lq = -2c
        cg = 2.0 - 0.5 * (np.log(gqm1) + np.log(gq1)) + gt2 * jyg - gb * jg
        j[general] = jg
        jy[general] = jyg
        y2[general] = y2g
        lq[general] = -2.0 * cg

    integrals = np.full((4,) + shape, np.nan)
    integrals[:, ok] = j, jy, y2, lq
    return {
        "q_min": qmin,
        "in_D": in_d,
        "ok": ok,
        "j": integrals[0],
        "jy": integrals[1],
        "y2": integrals[2],
        "lq": integrals[3],
    }


def _pieces_arr(params: RateParams, t1, t2):
    """The kernel's output at b(x, eps) plus c, grad1, grad2 and k.

    Entries not strictly inside D come back NaN; scalar wrappers below call
    it with 0-d arrays and translate NaN into NearBoundary.
    """
    t1 = np.asarray(t1, dtype=float)
    t2 = np.asarray(t2, dtype=float)
    out = q_kernel(t1, t2, _b_of(params, t1, t2))
    j, lq = out["j"], out["lq"]
    out["c"] = -0.5 * lq
    out["grad1"] = (1.0 - params.x) * j - out["y2"]
    out["grad2"] = out["jy"] - params.eps * j
    out["k"] = -1.0 + 0.5 * j + 0.5 * lq
    return out


def _scalar(theta: ThetaPair, params: RateParams, *fields: str) -> tuple[float, ...]:
    pieces = _pieces_arr(params, theta.theta1, theta.theta2)
    if not bool(pieces["ok"][0]):
        raise NearBoundary(
            f"min q = {pieces['q_min'][0]:.3e} < {QMIN_STRICT} at "
            f"theta=({theta.theta1}, {theta.theta2})"
        )
    return tuple(float(pieces[field][0]) for field in fields)


def integral_inv_q(kq: KernelQ) -> float:
    """Int_{-1}^{1} dy / q(y), closed form with discriminant branching."""
    return _scalar(kq.theta, kq.params, "j")[0]


def cgf_c(theta: ThetaPair, params: RateParams) -> float:
    """Scaled cumulant generating function c(theta)."""
    return _scalar(theta, params, "c")[0]


def grad_c(theta: ThetaPair, params: RateParams) -> tuple[float, float]:
    """(dc/dtheta1, dc/dtheta2) in closed form."""
    return _scalar(theta, params, "grad1", "grad2")


def k_value(theta: ThetaPair, params: RateParams) -> float:
    """k = theta . grad c - c = -1 + 1/2 Int 1/q + 1/2 Int log q."""
    return _scalar(theta, params, "k")[0]


# ---------------------------------------------------------------------------
# The theta2 = 0 axis: H, its second zero Q, and k along the axis.
# ---------------------------------------------------------------------------


def _t_from_theta1(theta1: float, x: float) -> float:
    s2 = 1.0 / (-2.0 * theta1) + 1.0 - x
    return np.sqrt(s2) - 1.0


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


def H_value(theta1: float, x: float) -> float:
    """H(theta1) = -1 + 1/2 Int 1/q on the axis, for theta1 in (P, 0) u (0, max).

    H(0) would be 0 by the affine limit; theta1 = 0 itself is excluded here
    (call sites use the exact limit).
    """
    if not (0.0 < x <= 1.0):
        raise InvalidParams(f"x must be in (0, 1], got {x}")
    p_left = -1.0 / (2.0 * x)
    if theta1 <= p_left:
        raise NearBoundary(f"theta1={theta1} is at or left of P={p_left}")
    if theta1 == 0.0:
        return 0.0
    if theta1 < 0.0:
        return float(axis_h_t(_t_from_theta1(theta1, x), x))
    # theta1 > 0: arctan branch with t2 = 0
    b = 1.0 - 2.0 * theta1 * (1.0 - x)
    if b <= QMIN_STRICT:
        raise NearBoundary(f"q(0) = b = {b} <= {QMIN_STRICT} at theta1={theta1}")
    j = 2.0 * np.arctan(np.sqrt(2.0 * theta1 / b)) / np.sqrt(2.0 * theta1 * b)
    return float(-1.0 + 0.5 * j)


def solve_Q_detail(x: float) -> QRoot:
    """Second zero of H on (P, 0) by bisection in log t.

    H(t) -> +inf as t -> 0+ (the P end) and approaches 0 from below as
    t -> inf (the origin end) when x < 2/3, so a sign change brackets Q.
    """
    if not (0.0 < x <= 1.0):
        raise InvalidParams(f"x must be in (0, 1], got {x}")
    if x >= 2.0 / 3.0:
        raise NoRoot(f"H has no second zero for x={x} >= 2/3")
    lo = np.log(1e-300)
    flo = float(axis_h_t(np.exp(lo), x))
    # Expand the upper end until the (x - 2/3)/t^2 tail turns H negative.
    # Absolute evaluation error is ~1e-16, so the sign is trustworthy while
    # (2/3 - x)/t^2 stays well above that.
    t_hi = 4.0
    fhi = float(axis_h_t(t_hi, x))
    while fhi >= 0.0 and t_hi < 1e7:
        t_hi *= 4.0
        fhi = float(axis_h_t(t_hi, x))
    hi = np.log(t_hi)
    if not (flo > 0.0 > fhi):
        raise NoRoot(
            f"bisection bracket failed for x={x}: H({np.exp(lo)})={flo}, "
            f"H({t_hi})={fhi}"
        )
    fmid = np.inf
    for _ in range(300):
        mid = 0.5 * (lo + hi)
        fmid = float(axis_h_t(np.exp(mid), x))
        if abs(fmid) < Q_H_TOL:
            break
        if fmid > 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-15:
            break
    t = float(np.exp(0.5 * (lo + hi)))
    fmid = float(axis_h_t(t, x))
    w = t * t + 2.0 * t + x
    fp_res = abs(np.log(t) - (np.log(2.0 + t) - 2.0 * (t + 1.0) / w))
    return QRoot(
        theta1=_theta1_from_t(t, x),
        t=t,
        h_residual=fmid,
        fixed_point_residual=float(fp_res),
    )


def solve_Q(x: float) -> float:
    """theta1 coordinate of the second zero Q of H (raises NoRoot if x >= 2/3)."""
    return solve_Q_detail(x).theta1


def q_gap_from_p(x: float) -> float:
    """Exact Q - P computed in the t coordinate (no cancellation).

    Q - P = (t^2 + 2 t) / (2 x (t^2 + 2 t + x)) with t the transformed root.
    """
    t = solve_Q_detail(x).t
    w = t * t + 2.0 * t
    return w / (2.0 * x * (w + x))


def chebyshev_q_min(params: RateParams, theta: ThetaPair, n: int = 2049) -> float:
    """Grid cross-check of the analytic parabola minimum (test helper).

    Minimum of q over n Chebyshev-spaced points of [-1, 1] joined with the
    analytic minimum; equals KernelQ.q_min up to the grid resolution.
    """
    ys = np.cos(np.pi * np.arange(n) / (n - 1))
    ker = KernelQ.from_theta(theta, params)
    return float(min(np.min(ker.evaluate(ys)), ker.q_min))
