"""Reference values computed without any squimld code.

Every function here rebuilds a quantity the program reports from its
definition, by a route the program does not take: Gauss-Legendre and
adaptive quadrature instead of closed-form antiderivatives, a bounded
scalar minimizer instead of the nested golden-section search, the
Lugannani-Rice saddlepoint tail instead of tilted sampling, and exact
divided differences of exp (Hermite-Genocchi) instead of importance
sampling.  perfbench/test_oracles.py checks each one on closed-form cases.
"""

from __future__ import annotations

import math
import warnings

import mpmath
import numpy as np
from scipy.integrate import IntegrationWarning, quad
from scipy.linalg import expm
from scipy.optimize import brentq, minimize_scalar
from scipy.special import gammaln, log_ndtr

# ---------------------------------------------------------------------------
# transition: pbar* and the rare-event tail
# ---------------------------------------------------------------------------

GL_NODES = 400


def parabola(omega: float, eps: float):
    """A(x) = sqrt(delta) x - r x^2 - delta with delta = eps, r = (omega-1)/omega."""
    delta = eps
    r = (omega - 1.0) / omega

    def a_of(x):
        return math.sqrt(delta) * x - r * x * x - delta

    x_vertex = min(1.0, max(-1.0, math.sqrt(delta) / (2.0 * r)))
    return a_of, x_vertex


def _gauss_legendre(a: float, b: float, n: int = GL_NODES):
    nodes, weights = np.polynomial.legendre.leggauss(n)
    half = 0.5 * (b - a)
    return a + half * (nodes + 1.0), half * weights


def p_theta(theta: float, omega: float, eps: float) -> float:
    """p(theta) = -1/4 Int_{-1}^{1} log(1 - 2 theta A(x)) dx, Gauss-Legendre
    on the two pieces either side of the vertex of A."""
    a_of, xv = parabola(omega, eps)
    total = 0.0
    for lo, hi in ((-1.0, xv), (xv, 1.0)):
        if hi > lo:
            xs, ws = _gauss_legendre(lo, hi)
            total += float(ws @ np.log1p(-2.0 * theta * a_of(xs)))
    return -0.25 * total


def pbar_star(omega: float, eps: float) -> tuple[float, float]:
    """(pbar*, argmin theta) with pbar* = -min_theta p(theta).

    On y > 0 the dual p*(y) = sup_theta(theta y - p(theta)) increases, so
    its infimum is the y -> 0+ limit sup_theta(-p(theta)).  p is convex on
    the open interval where 1 - 2 theta A > 0 on [-1, 1], so a bounded
    scalar minimizer on a slightly shrunk copy of that interval finds it.
    """
    a_of, xv = parabola(omega, eps)
    a_min = min(a_of(-1.0), a_of(1.0))
    a_max = a_of(xv)
    lo, hi = 1.0 / (2.0 * a_min), 1.0 / (2.0 * a_max)
    pad = 1e-6 * (hi - lo)
    res = minimize_scalar(
        lambda t: p_theta(t, omega, eps),
        bounds=(lo + pad, hi - pad),
        method="bounded",
        options={"xatol": 1e-10, "maxiter": 500},
    )
    return -float(res.fun), float(res.x)


def grid_weights(omega: float, eps: float, n_sites: int) -> np.ndarray:
    """b_n = A(1 - 2n/N) for n = 0..N."""
    a_of, _ = parabola(omega, eps)
    return a_of(1.0 - 2.0 * np.arange(n_sites + 1) / n_sites)


def lugannani_rice_log_tail(b: np.ndarray) -> float:
    """log P[sum_n b_n chi2_n >= 0] by the Lugannani-Rice formula.

    K(t) = -1/2 sum log(1 - 2 t b_n) is the cumulant generating function;
    the saddlepoint solves K'(t) = 0.  With w = sqrt(-2 K(t)) and
    u = t sqrt(K''(t)) the tail is 1 - Phi(w) + phi(w) (1/u - 1/w),
    evaluated in log space because w is in the thirties at N = 2000.
    """
    b = np.asarray(b, dtype=float)
    if not (b.sum() < 0.0 < b.max()):
        raise ValueError("need sum(b) < 0 < max(b) for an upper-tail event")

    def dk(t):
        return float(np.sum(b / (1.0 - 2.0 * t * b)))

    hi = 1.0 / (2.0 * b.max())
    t_hat = brentq(dk, 0.0, hi * (1.0 - 1e-15), xtol=1e-300, rtol=1e-15, maxiter=500)
    k_hat = float(-0.5 * np.sum(np.log1p(-2.0 * t_hat * b)))
    k2 = float(np.sum(2.0 * b * b / (1.0 - 2.0 * t_hat * b) ** 2))
    w = math.sqrt(-2.0 * k_hat)
    u = t_hat * math.sqrt(k2)
    log_phi = -0.5 * w * w - 0.5 * math.log(2.0 * math.pi)
    mills = math.exp(float(log_ndtr(-w)) - log_phi)
    return log_phi + math.log(mills + 1.0 / u - 1.0 / w)


# ---------------------------------------------------------------------------
# dual plane: q, D membership, k and grad c by quadrature, I1 on the axis
# ---------------------------------------------------------------------------


def q_coeffs(x: float, eps: float, t1, t2):
    """(a2, a1, a0) with q(y) = a2 y^2 + a1 y + a0 = 1 - 2 h(y)."""
    t1 = np.asarray(t1, dtype=float)
    t2 = np.asarray(t2, dtype=float)
    return 2.0 * t1, -2.0 * t2, 1.0 - 2.0 * t1 * (1.0 - x) + 2.0 * t2 * eps


def q_min(x: float, eps: float, t1, t2):
    """Minimum of the quadratic q over [-1, 1]: the smaller endpoint value,
    or the vertex value when the parabola opens upward with its vertex
    inside the interval."""
    a2, a1, a0 = q_coeffs(x, eps, t1, t2)
    ends = np.minimum(a2 + a1 + a0, a2 - a1 + a0)
    with np.errstate(divide="ignore", invalid="ignore"):
        yv = np.where(a2 > 0.0, -a1 / (2.0 * np.where(a2 > 0.0, a2, 1.0)), 2.0)
    inside = (a2 > 0.0) & (np.abs(yv) <= 1.0)
    yv = np.where(inside, yv, 0.0)
    vert = a2 * yv * yv + a1 * yv + a0
    return np.where(inside, np.minimum(ends, vert), ends)


def _quad(f, points=None) -> float:
    val, _err = quad(f, -1.0, 1.0, points=points, limit=400, epsabs=1e-13, epsrel=1e-12)
    return val


def k_and_grad_quadrature(x: float, eps: float, t1: float, t2: float):
    """(k, dc/dtheta1, dc/dtheta2) by adaptive quadrature.

    c = -1/2 Int log q, so dc/dtheta1 = Int ((1 - x) - y^2)/q,
    dc/dtheta2 = Int (y - eps)/q, and k = -1 + 1/2 Int 1/q + 1/2 Int log q.
    """
    a2, a1, a0 = (float(v) for v in q_coeffs(x, eps, t1, t2))

    def q(y):
        return a2 * y * y + a1 * y + a0

    pts = None
    if a2 > 0.0 and abs(a1 / (2.0 * a2)) < 1.0:
        pts = [-a1 / (2.0 * a2)]
    j = _quad(lambda y: 1.0 / q(y), pts)
    lq = _quad(lambda y: math.log(q(y)), pts)
    g1 = _quad(lambda y: ((1.0 - x) - y * y) / q(y), pts)
    g2 = _quad(lambda y: (y - eps) / q(y), pts)
    return -1.0 + 0.5 * j + 0.5 * lq, g1, g2


def _axis_h(theta1: float, x: float) -> float:
    """H(theta1) = -1 + 1/2 Int 1/q on theta2 = 0; q is even in y there."""
    a0 = 1.0 - 2.0 * theta1 * (1.0 - x)
    a2 = 2.0 * theta1
    val, _ = quad(lambda y: 1.0 / (a2 * y * y + a0), 0.0, 1.0,
                  limit=400, epsabs=0.0, epsrel=1e-13)
    return -1.0 + val


def i1_quadrature(x: float) -> float:
    """I1(x) = k(Q, 0) with Q the second zero of H on (P, 0), by quadrature.

    Along the axis segment {H >= 0} = (P, Q], k decreases toward Q, so the
    one-constraint rate is k at Q, where H = 0 leaves k = 1/2 Int log q.
    For x >= 2/3, H has no second zero and I1 = 0.
    """
    if x >= 2.0 / 3.0:
        return 0.0
    p_left = -1.0 / (2.0 * x)
    # walk from P toward 0 until H turns negative
    gaps = np.geomspace(1e-9, 0.999 * abs(p_left), 400)
    prev = p_left + gaps[0]
    with warnings.catch_warnings():
        # quad may report its roundoff floor at the 1e-13 target; the root is unaffected
        warnings.simplefilter("ignore", IntegrationWarning)
        for gap in gaps[1:]:
            th = p_left + gap
            if _axis_h(th, x) < 0.0:
                break
            prev = th
        else:
            raise ValueError(f"no sign change of H found for x={x}")
        q_root = brentq(lambda t: _axis_h(t, x), prev, th, xtol=1e-300, rtol=1e-15, maxiter=500)
    a0 = 1.0 - 2.0 * q_root * (1.0 - x)
    a2 = 2.0 * q_root
    half_lq, _ = quad(lambda y: math.log(a2 * y * y + a0), 0.0, 1.0,
                      limit=400, epsabs=0.0, epsrel=1e-13)
    return _axis_h(q_root, x) + half_lq


# ---------------------------------------------------------------------------
# ensembles: exact flat-Dirichlet thermal averages
# ---------------------------------------------------------------------------


def scwm_nodes(n_spins: int, beta: float, entropy: bool = False):
    """(phi, g) for the symmetric-state models: exponent beta N g^2 (plus
    log C(N, n) for the entropy variant) on the N + 1 classes."""
    n = np.arange(n_spins + 1)
    g = 1.0 - 2.0 * n / n_spins
    phi = beta * n_spins * g * g
    if entropy:
        phi = phi + gammaln(n_spins + 1) - gammaln(n + 1) - gammaln(n_spins - n + 1)
    return phi, g


def chain_nodes(n_spins: int, beta: float):
    """(phi, g) for the open spin-1/2 chain over all 2^N configurations.

    Bit i of the configuration index set means spin i is -1/2.  The
    exponent is beta * sum_i S_{i-1} S_i and g = 2 M / N with M = sum S_i.
    """
    conf = np.arange(2**n_spins)
    spins = np.array([0.5 - ((conf >> i) & 1) for i in range(n_spins)], dtype=float)
    mag = spins.sum(axis=0)
    inter = (spins[:-1] * spins[1:]).sum(axis=0)
    return beta * inter, 2.0 * mag / n_spins


def _np_blocks(a: np.ndarray, d: np.ndarray, levels: int) -> np.ndarray:
    """Block upper-bidiagonal matrix: `a` on the diagonal, diag(d) above it."""
    k = a.shape[0]
    big = np.zeros((levels * k, levels * k))
    for i in range(levels):
        big[i * k:(i + 1) * k, i * k:(i + 1) * k] = a
        if i + 1 < levels:
            big[i * k:(i + 1) * k, (i + 1) * k:(i + 2) * k] = np.diag(d)
    return big


def dirichlet_moments(phi, g, precise: bool = False) -> tuple[float, float]:
    """([m^2], [dispersion]) under weight exp(phi . w), w flat Dirichlet,
    with m = g . w and dispersion = g^2 . w - m^2.

    Hermite-Genocchi: E[exp(phi . w)] = (K-1)! exp[phi_1, ..., phi_K], and
    the divided difference is the corner entry of exp(A) with A upper
    bidiagonal, phi on the diagonal.  Putting 1..K-1 on the superdiagonal
    folds the (K-1)! in, so no entry underflows.  Derivatives along g and
    g^2 come from the block matrices [[A, G, 0], [0, A, G], [0, 0, A]] and
    [[A, G2], [0, A]], whose corner blocks hold the second derivative (over
    two) of exp(A + s G) and the first derivative of exp(A + s G2).
    `precise` evaluates the same matrices in mpmath at 40 digits, which is
    cheap for small K; otherwise scipy's float64 expm is used.
    """
    phi = np.asarray(phi, dtype=float)
    g = np.asarray(g, dtype=float)
    k = phi.size
    a = np.diag(phi - phi.max()) + np.diag(np.arange(1.0, k), 1)
    if precise:
        with mpmath.workdps(40):
            e3 = mpmath.expm(mpmath.matrix(_np_blocks(a, g, 3).tolist()))
            e2 = mpmath.expm(mpmath.matrix(_np_blocks(a, g * g, 2).tolist()))
            z, z_gg, z_h = e3[0, k - 1], 2 * e3[0, 3 * k - 1], e2[0, 2 * k - 1]
            return float(z_gg / z), float((z_h - z_gg) / z)
    e3 = expm(_np_blocks(a, g, 3))
    e2 = expm(_np_blocks(a, g * g, 2))
    z, z_gg, z_h = e3[0, k - 1], 2.0 * e3[0, 3 * k - 1], e2[0, 2 * k - 1]
    return float(z_gg / z), float((z_h - z_gg) / z)
