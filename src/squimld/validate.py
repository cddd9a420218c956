"""Self-validation suite: every closed form checked against a second route.

Each check pits an implementation against an independent oracle:
Gauss-Legendre quadrature against the closed-form antiderivatives and
against the analytic gradient (dc/dtheta_i = Int a_i / q), Monte Carlo
against exact sphere moments, the product model and the chain's log Z
against hand values, the chain's zero-field var M against
(1/4) sum tanh(beta/2)^|i-j|, its class table's log Z and var M against
the transfer matrix, and the two measure lemmas (the layer-cake integral
identity and the concentration bound) against direct numerical
integration on the circle and the 2-sphere.

Levels: "fast" exercises every check at small grids; "full" widens the
gradient and quadrature sweeps to the sizes used by the acceptance gate and
adds the I2 bracket, the certified dual value against the sampled minimum
of k over G.  Every check takes (level, workers); workers runs the shards
of the checks that sample, and the others ignore it.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass, replace

import numpy as np

from .ensembles import chain_classes, classical_ising_1d
from .errors import InvalidParams
from .gecore import BRANCHES, QShape, RateParams, h_value, kernel_branches, rate_pieces
from .mc import EnsembleConfig, esm_evaluate, infinite_T_msq_exact, thermal_averages
from .parallel import shard_rng
from .ratecurves import DUAL_GAP_TOL, compute_I2

LEVELS = ("fast", "full")

# Nodes of the Gauss-Legendre rule for the smooth one-dimensional integrals
# of the measure lemmas: 32 reach double precision on each of them, with
# exp(-20 (1 - z)) over [-1, 1] the hardest (1e-14 relative)
GL_NODES = 32
# Nodes of the rule behind the kernel checks, per level.  The integrands
# 1/q, log q and a_i/q are nearly singular where q_min is small (down to
# GRAD_QMIN at full level), so the order is where the error stops falling:
# at full level 256 nodes leave 5e-6, 512 3e-11, and 1024, 2048 and 4096
# all 2e-13.  Fast-level points keep q_min >= 0.027, converged at 256 nodes.
KERNEL_NODES = {"fast": 256, "full": 1024}
# Worst |closed form - quadrature| of c and Int 1/q over QUAD_CASES:
# 9.2e-16 at fast level, 1.3e-15 at full level with every case in one
# matrix product (1.1e-15 and 8.9e-16 summed case by case); the bound is
# about ten times the worst.  Fixed cases, so the figures are deterministic.
QUAD_TOL = 1e-14
# One strictly interior case at x = 0.3, eps = 0.3 on each branch of
# gecore.q_kernel: atan, log, series and tie (q_min 0.467, 0.240, 0.987 and
# 0.122).  The full level adds a second atan case.
QUAD_CASES = ((0.4, 0.05), (-0.8, 0.2), (0.001, 0.01), (0.2439, 0.7317))
# Points of the periodic trapezoid on the circle; its error falls like
# 2 I_{n/2}(1/2), below double precision from 32 points, so 64 leave margin
CIRCLE_POINTS = 64
# Bound on both gaps of the circle identity, |closed - layer-cake| and
# |direct - closed|, which read 2.2e-16 and 0.0; the QUAD_TOL scale
UIF_TOL = 1e-14
# Gradient points keep min q over [-1, 1] at least this far from 0
GRAD_QMIN = 1e-4
# Worst relative |grad c - quadrature|: 1.4e-14 at fast level, 2.1e-13 at
# full level, on the fixed shard_rng(2024, 0) stream; the bound is about ten
# times the worst
GRAD_RTOL = 2e-12
# The I2 bracket: curve points where 10^6 draws reliably hit G.
BRACKET_X = (0.2, 0.3, 0.4, 0.5, 0.6, 0.7)
BRACKET_EPS = 0.1
BRACKET_SAMPLES = 1_000_000
BRACKET_SEED = 5


@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    detail: str
    seconds: float = 0.0  # wall time of the check


def check_quadrature(level: str, workers: int | None = None) -> CheckResult:
    """Closed-form Int 1/q and c against Gauss-Legendre on all four kernel branches."""
    params = RateParams(x=0.3, eps=0.3)
    t1, t2 = np.array(QUAD_CASES + (((0.3, -0.2),) if level == "full" else ())).T
    shape = params.shape(t1, t2)
    # each case's branch by the kernel's own rule, so coverage is verified, not assumed
    masks = kernel_branches(shape)[3]
    covered = sorted(name for name, mask in zip(BRANCHES, masks) if mask.any())
    nodes = KERNEL_NODES[level]
    y, w = _legendre_rule(nodes)
    pieces = rate_pieces(params, shape)
    q = 1.0 - 2.0 * h_value(y, t1[:, None], t2[:, None], params)
    errors = np.concatenate((pieces["j"] - (1.0 / q) @ w, pieces["c"] - (-0.5 * np.log(q)) @ w))
    # a NaN error propagates, and fails the check
    worst = float(np.max(np.abs(errors)))
    ok = len(covered) == 4 and worst < QUAD_TOL
    return CheckResult(
        "quadrature-vs-closed-form", ok,
        f"{len(t1)} cases, branches covered: {', '.join(covered)}, "
        f"worst |closed - {nodes}-node Gauss-Legendre| = {worst:.2e} (tol {QUAD_TOL:g})",
    )


def _interior_thetas(params: RateParams, n: int, rng) -> QShape:
    """params.shape of n points with q_min >= GRAD_QMIN, by rejection
    from a box, a batch at a time."""
    hi1 = 0.499 / (1.0 - params.x)
    kept = []
    while sum(len(batch.t1) for batch in kept) < n:
        shape = params.shape(rng.uniform(-3.0, hi1, 4 * n), rng.uniform(-2.0, 2.0, 4 * n))
        kept.append(shape.take(np.flatnonzero(shape.q_min >= GRAD_QMIN)))
    return QShape(*(np.concatenate(col)[:n] for col in zip(*kept)))


def check_gradients(level: str, workers: int | None = None) -> CheckResult:
    """Analytic gradient of the cumulant against dc/dtheta_i = Int a_i / q.

    With a1 = 1 - x - y^2 and a2 = y - eps, both integrals for every point
    of a cell come from one points x nodes product of the Gauss-Legendre
    rule, with q = 1 - 2 h formed from h, not from the kernel's b.
    """
    if level == "full":
        grid = [(x, e) for x in (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7) for e in (0.1, 0.3)]
        n_pts = 100
    else:
        grid = [(0.3, 0.1), (0.6, 0.3)]
        n_pts = 20
    rng = shard_rng(2024, 0)
    nodes = KERNEL_NODES[level]
    y, w = _legendre_rule(nodes)
    errors = []
    for x, eps in grid:
        params = RateParams(x=x, eps=eps)
        shape = _interior_thetas(params, n_pts, rng)
        pieces = rate_pieces(params, shape)
        inv_q = w / (1.0 - 2.0 * h_value(y, shape.t1[:, None], shape.t2[:, None], params))
        g1, g2 = pieces["grad1"], pieces["grad2"]
        errors.append(np.hypot(g1 - inv_q @ (1.0 - x - y * y), g2 - inv_q @ (y - eps))
                      / np.maximum(np.hypot(g1, g2), 1e-12))
    # a NaN (a point the kernel refuses) propagates, and fails the check
    worst = float(np.max(np.concatenate(errors)))
    ok = worst < GRAD_RTOL
    return CheckResult(
        "gradient-vs-quadrature", ok,
        f"{len(grid)} (x, eps) cells x {n_pts} points, worst rel err against "
        f"{nodes}-node Gauss-Legendre = {worst:.2e} (tol {GRAD_RTOL:g})",
    )


def check_beta0_moments(level: str, workers: int | None = None) -> CheckResult:
    """Monte Carlo second moment at beta = 0 against the exact sphere moment.

    workers runs the shards (None: every available core); the estimate
    does not depend on it.
    """
    sizes = (2, 8, 32) if level == "full" else (2, 8)
    worst_z = 0.0
    for n in sizes:
        exact = infinite_T_msq_exact(n)
        est = thermal_averages(
            EnsembleConfig(N=n, beta=0.0, model="SCWM", samples=200_000, seed=11,
                           workers=workers),
            ["msq"],
        )[0]
        worst_z = max(worst_z, abs(est.mean - exact) / est.std_error)
    ok = worst_z < 3.0
    return CheckResult(
        "beta0-moment-oracle", ok,
        f"N in {sizes}, worst |z| = {worst_z:.2f} (band 3 std errors)",
    )


def chain_var_closed_form(n_spins: int, beta: float) -> float:
    """var M of the zero-field chain: (1/4) sum_{i,j} tanh(beta/2)^|i-j|."""
    t = math.tanh(beta / 2.0)
    d = np.arange(1, n_spins)
    return 0.25 * (n_spins + 2.0 * float(np.sum((n_spins - d) * t**d)))


def check_small_n(level: str, workers: int | None = None) -> CheckResult:
    """Exact small-N values and closed forms: product model, transfer matrix, class table.

    The class table chain_classes(12), over which SQUIM_d1 samples, gives
    log Z = log sum count e^(beta ((N-1) - 2k)/2) - N log 2 over its flip
    counts k and var M = sum w M^2 / sum w with the same weights w; both
    must match the transfer matrix (they read 2.7e-15 relative at worst).
    """
    issues = []
    r = esm_evaluate(2, 1.0)
    if abs(r.logZhat - 2.0 * math.log(8.0 / 9.0)) > 1e-12:
        issues.append(f"esm logZhat off by {abs(r.logZhat - 2*math.log(8/9)):.2e}")
    if abs(r.msq_dispersion - 1.0 / 32.0) > 1e-15:
        issues.append(f"esm dispersion off by {abs(r.msq_dispersion - 1/32):.2e}")
    for beta in (0.0, 0.7, 3.0):
        if abs(classical_ising_1d(2, beta)[0] - math.log(math.cosh(beta / 2.0))) > 1e-10:
            issues.append(f"chain N=2 logZ off at beta={beta}")
        for n in (2, 100):
            var, exact = classical_ising_1d(n, beta)[2], chain_var_closed_form(n, beta)
            if abs(var - exact) > 1e-12 * exact:
                issues.append(f"chain N={n} var(M) = {var!r}, closed form {exact!r} at beta={beta}")
    n = 12
    m_class, flips, count = chain_classes(n)
    for beta in (0.7, 3.0):
        w = count * np.exp(beta * ((n - 1) - 2.0 * flips) / 2.0)
        z = float(np.sum(w))
        log_z, var = math.log(z) - n * math.log(2.0), float(w @ (m_class * m_class)) / z
        ref_log_z, _, ref_var = classical_ising_1d(n, beta)
        if abs(log_z - ref_log_z) > 1e-12 * abs(ref_log_z) or abs(var - ref_var) > 1e-12 * ref_var:
            issues.append(f"chain N={n} class table (logZ, var M) = ({log_z!r}, {var!r}), "
                          f"transfer matrix ({ref_log_z!r}, {ref_var!r}) at beta={beta}")
    ok = not issues
    return CheckResult(
        "small-N-enumerations", ok, "; ".join(issues) if issues else "all exact"
    )


def _legendre_and_slope(n: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(P_n(x), P_n'(x)) by the three-term recurrence
    (j + 1) P_{j+1} = (2j + 1) x P_j - j P_{j-1}, for |x| < 1."""
    p0, p1 = np.ones_like(x), x
    for j in range(1, n):
        p0, p1 = p1, ((2 * j + 1) * x * p1 - j * p0) / (j + 1)
    return p1, n * (x * p1 - p0) / ((x - 1.0) * (x + 1.0))


@functools.cache
def _legendre_rule(nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes (ascending) and weights of the Gauss-Legendre rule on [-1, 1],
    built once per order.

    Newton's method on P_n finds the nonnegative nodes from Tricomi's
    guesses (1 - 1/(8n^2) + 1/(8n^3)) cos(pi (4k - 1)/(4n + 2)), k = 1..,
    which are O(n^-4) off, so two to four steps reach the rounding level;
    the weights are 2 / ((1 - x^2) P_n'(x)^2), and the negative half
    mirrors the positive one.  Each step costs O(n^2), against the O(n^3)
    eigenproblem of numpy's leggauss, and the rule integrates every
    monomial of degree < 2n to within 1e-15 up to n = 4096 (leggauss
    loses digits from a few hundred nodes).
    """
    n = nodes
    k = np.arange(1, (n + 1) // 2 + 1)
    x = (1.0 - 1.0 / (8.0 * n * n) + 1.0 / (8.0 * n**3)) * np.cos(np.pi * (4 * k - 1) / (4 * n + 2))
    for _ in range(10):
        value, slope = _legendre_and_slope(n, x)
        step = value / slope
        x = x - step
        if np.max(np.abs(step)) <= 1e-15:
            break
    slope = _legendre_and_slope(n, x)[1]
    w = 2.0 / ((1.0 - x) * (1.0 + x) * slope * slope)
    half = n // 2
    x[half:] = 0.0  # the middle node of an odd rule
    return np.concatenate([-x[:half], x[::-1]]), np.concatenate([w[:half], w[::-1]])


def gauss_legendre(f, a: float, b: float) -> float:
    """Int_a^b f by the GL_NODES-point Gauss-Legendre rule; f takes an array."""
    x, w = _legendre_rule(GL_NODES)
    half = 0.5 * (b - a)
    return half * float(w @ f(a + half * (x + 1.0)))


def uif_sides() -> tuple[float, float, float]:
    """(closed, direct, layer-cake) values of the circle identity's two sides.

    closed = exp(-1/2) I0(1/2); direct = mean of exp(-sin^2 t) over the
    circle by the periodic trapezoid; layer-cake = exp(-1) + Int_0^1
    exp(-u) (2/pi) arcsin(sqrt(u)) du, taken in phi with u = sin^2(phi),
    which makes the integrand phi sin(2 phi) exp(-sin^2 phi) (2/pi) smooth.
    """
    closed = math.exp(-0.5) * float(np.i0(0.5))
    t = np.arange(CIRCLE_POINTS) * (2.0 * math.pi / CIRCLE_POINTS)
    direct = float(np.mean(np.exp(-np.sin(t) ** 2)))
    tail = gauss_legendre(
        lambda phi: np.exp(-np.sin(phi) ** 2) * phi * np.sin(2.0 * phi) * (2.0 / math.pi),
        0.0, 0.5 * math.pi,
    )
    return closed, direct, math.exp(-1.0) + tail


def check_uif(level: str, workers: int | None = None) -> CheckResult:
    """Layer-cake identity on the circle with f = sin^2(angle).

    Left side has the closed form exp(-1/2) I0(1/2); the right side is
    exp(-c)|B| + c * integral of exp(-c x) F(x) with c = 1, |B| = 1, and
    level-set measure F(x) = (2/pi) arcsin(sqrt(x)).
    """
    lhs_closed, lhs_direct, rhs = uif_sides()
    d1 = abs(lhs_closed - rhs)
    d2 = abs(lhs_direct - lhs_closed)
    ok = d1 < UIF_TOL and d2 < UIF_TOL
    return CheckResult(
        "uif-circle-identity", ok,
        f"|closed - layer-cake| = {d1:.2e}, |direct - closed| = {d2:.2e} (tol {UIF_TOL:g})",
    )


def concentration_integrals(beta: float, u_cut: float) -> tuple[float, float, float, float]:
    """(Z, Z_U, Int z dmu, Int_U z dmu) for dmu = exp(-beta (1 - z)) dz / 2.

    Z is taken over [-1, 1] and Z_U over U = (u_cut, 1], each by the
    Gauss-Legendre rule.
    """

    def dens(z):
        return np.exp(-beta * (1.0 - z)) / 2.0

    def moment(z):
        return dens(z) * z

    return (
        gauss_legendre(dens, -1.0, 1.0),
        gauss_legendre(dens, u_cut, 1.0),
        gauss_legendre(moment, -1.0, 1.0),
        gauss_legendre(moment, u_cut, 1.0),
    )


def check_concentration(level: str, workers: int | None = None) -> CheckResult:
    """Concentration bound on the 2-sphere with f = beta (1 - z).

    Uniform measure on the sphere projects to uniform z on [-1, 1], so all
    integrals reduce to one dimension.  With U = {z > 1/2}, V = {z > 9/10},
    beta = 20 and g = z, the hypotheses hold with alpha = 10, eta = 2,
    mu = 1/20, and the error terms from splitting the average at U must
    obey |xi|, |zeta| <= exp(eta - alpha) / mu times the sup norm of g.
    """
    beta = 20.0
    u_cut, v_cut = 0.5, 0.9
    alpha = beta * (1.0 - u_cut)
    eta = beta * (1.0 - v_cut)
    mu = (1.0 - v_cut) / 2.0

    z_total, z_u, num_total, num_u = concentration_integrals(beta, u_cut)
    xi = (num_total - num_u) / z_u
    zeta = (z_total - z_u) / z_u
    bound = math.exp(eta - alpha) / mu  # sup|g| = 1
    ok = abs(xi) <= bound and abs(zeta) <= bound
    return CheckResult(
        "concentration-bound-2-sphere", ok,
        f"|xi| = {abs(xi):.2e}, |zeta| = {abs(zeta):.2e} vs bound {bound:.2e}",
    )


def check_i2_dual_bracket(level: str, workers: int | None = None) -> CheckResult:
    """I2 from the dual between its certified lower bound and the sampler.

    Weak duality puts I2 at or above -c(theta*) and at or below k at every
    point of G, so the sampled minimum of k over G ∩ D (10^6 draws) must
    not fall below the dual value, which must not fall below I1; the gap
    must certify.  One compute_I2 call covers BRACKET_X, and workers runs
    its shards.
    """
    issues = []
    margins = []
    points = compute_I2([RateParams(x=x, eps=BRACKET_EPS) for x in BRACKET_X], BRACKET_SAMPLES,
                        seed=BRACKET_SEED, workers=workers)
    for pt in points:
        margins.append(pt.sampled_k_min - pt.I2)
        gap = pt.dual.gap if pt.dual else math.nan
        if not (pt.I1 <= pt.I2 <= pt.sampled_k_min and gap <= DUAL_GAP_TOL):
            issues.append(f"x={pt.x}: I1={pt.I1:.12g}, I2={pt.I2:.12g}, "
                          f"sampled={pt.sampled_k_min:.12g}, gap={gap:.2e}")
    return CheckResult(
        "i2-dual-vs-sampled-bracket", not issues,
        "; ".join(issues) if issues else
        f"x in {BRACKET_X}: I1 <= I2 <= sampled min, smallest sampled - I2 = {min(margins):.2e}, "
        f"gaps <= {DUAL_GAP_TOL:g}",
    )


CHECKS = (
    check_quadrature,
    check_gradients,
    check_beta0_moments,
    check_small_n,
    check_uif,
    check_concentration,
)
# Checks that run at level "full" only.
FULL_CHECKS = (check_i2_dual_bracket,)


def run_validation(level: str = "fast", workers: int | None = None) -> list[CheckResult]:
    """Every check at `level`, each given workers."""
    if level not in LEVELS:
        raise InvalidParams(f"level must be one of {LEVELS}, got {level!r}")
    checks = CHECKS + (FULL_CHECKS if level == "full" else ())
    results = []
    for check in checks:
        clock = time.perf_counter()
        result = check(level, workers)
        results.append(replace(result, seconds=time.perf_counter() - clock))
    return results
