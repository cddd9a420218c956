"""Closed forms against quadrature, domain geometry, and the axis root.

The cumulant function and its companions all reduce to elementary
antiderivatives, so every value here can be cross-checked by trapezoid
quadrature on a dense grid.  The tests pin the branch switching (power
series, log, arctan, double root), the three-test domain verdicts, the exact
parabola minimum, and the transformed-coordinate machinery on the axis
where the root gap shrinks below float spacing.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from squimld import (
    InvalidParams,
    NearBoundary,
    NoRoot,
    QRoot,
    RateParams,
    ThetaPair,
    cgf_c,
    grad_c,
    integral_inv_q,
    k_value,
    solve_Q_detail,
)
from squimld.gecore import (
    DISC_TIE_TOL,
    H_value,
    QMIN_STRICT,
    SERIES_TOL,
    _b_of,
    _pieces_arr,
    _t_from_theta1,
    _theta1_from_t,
    axis_h_t,
    axis_k_t,
    bracketed_root,
    h_value,
    in_domain_D,
    q_kernel,
    root_toward,
)

P07 = RateParams(x=0.7, eps=0.3)
P03 = RateParams(x=0.3, eps=0.1)


def trapz_j_and_c(theta: ThetaPair, params: RateParams, panels: int = 200_000):
    """Dense trapezoid values of Int 1/q and c = -1/2 Int log q."""
    ys = np.linspace(-1.0, 1.0, panels + 1)
    q = 1.0 - 2.0 * h_value(ys, theta, params)
    assert np.all(q > 0.0)
    j = float(np.trapezoid(1.0 / q, ys))
    c = float(-0.5 * np.trapezoid(np.log(q), ys))
    return j, c


# interior points exercising each branch: disc > 0 (t1 < 0), disc < 0
# (t1 > 0 large enough), the affine line t1 = 0, and a near-tie point
BRANCH_POINTS = [
    (P07, ThetaPair(-0.5, 0.1)),
    (P07, ThetaPair(-0.2, 0.2)),
    (P07, ThetaPair(0.8, 0.05)),
    (P07, ThetaPair(1.2, 0.4)),
    (P07, ThetaPair(0.0, 0.2)),
    (P07, ThetaPair(0.0, 1e-7)),
    (P03, ThetaPair(-0.4, 0.15)),
    (P03, ThetaPair(0.3, -0.1)),
]


@pytest.mark.parametrize("params,theta", BRANCH_POINTS)
def test_closed_forms_match_quadrature(params, theta):
    j_ref, c_ref = trapz_j_and_c(theta, params)
    assert abs(integral_inv_q(theta, params) - j_ref) < 2e-8
    assert abs(cgf_c(theta, params) - c_ref) < 2e-8


@pytest.mark.parametrize("t1", [1e-10, -1e-10, 3e-11])
@pytest.mark.parametrize("t2", [0.0, 1e-3, 0.1, 0.4, -0.3])
def test_affine_branch_keeps_first_order_t1_terms(t1, t2):
    # |t1| <= 1e-10: the 2*t1*y^2 term of q is O(1e-10), far above the
    # 1e-14 tolerance, so the integrals of the affine part alone would fail.
    # q's nearest root is y = 1.25 (t2 = 0.4), whose Bernstein ellipse has
    # rho = 2, so 80-point Gauss-Legendre is exact to rounding (~2^-160).
    out = q_kernel(t1, t2, 1.0)
    refs = _gauss_legendre_80(t1, t2, 1.0)
    for key in ("j", "jy", "y2", "lq"):
        assert out[key][0] == pytest.approx(refs[key], rel=1e-12, abs=1e-14), key


def _gauss_legendre_80(t1, t2, b):
    """The kernel's integrals by 80-point Gauss-Legendre quadrature.

    Each integrand is split into its value at q = b, integrated exactly,
    plus the part carried by dq = q - b, so that a nearly constant q does
    not cost the reference its relative accuracy.
    """
    ys, ws = np.polynomial.legendre.leggauss(80)
    dq = 2.0 * t1 * ys * ys - 2.0 * t2 * ys
    q = b + dq
    mu = [2.0 / (m + 1) if m % 2 == 0 else 0.0 for m in range(5)]
    refs = {"lq": 2.0 * math.log(b) + ws @ np.log1p(dq / b)}
    for m, key in enumerate(("j", "jy", "y2")):
        refs[key] = mu[m] / b - ws @ (ys**m * dq / (b * q))
    for m in range(5):
        refs[f"q2_{m}"] = mu[m] / b**2 - ws @ (ys**m * dq * (2.0 * b + dq) / (b * b * q * q))
    return {key: float(v) for key, v in refs.items()}


def _kernel_branch(t1, t2, b):
    """The branch q_kernel takes for (t1, t2, b), restated from its docstring."""
    s, p = 2.0 * t2 / b, 2.0 * t1 / b
    if abs(s) + math.sqrt(abs(p)) <= SERIES_TOL:
        return "series"
    disc = 4.0 * t2 * t2 - 8.0 * t1 * b
    gap = abs(t2) - 2.0 * abs(t1)
    if gap > 0.0 and abs(disc) <= DISC_TIE_TOL * 4.0 * gap * gap:
        return "tie"
    return "log" if disc > 0.0 else "atan"


def _assert_kernel_matches(t1, t2, b, rel):
    out = q_kernel(t1, t2, b, with_q2=True)
    refs = _gauss_legendre_80(t1, t2, b)
    for key, ref in refs.items():
        got = out["q2"][int(key[-1])][0] if key.startswith("q2") else out[key][0]
        assert got == pytest.approx(ref, rel=rel, abs=0.0), (key, t1, t2, b)


@pytest.mark.parametrize("t1", [2e-10, 1e-9, 1e-8, 1e-7, 1e-6])
@pytest.mark.parametrize("t2,disc_sign", [(1e-5, -1.0), (0.3, 1.0), (-0.2, 1.0)])
def test_kernel_just_above_the_old_affine_switch(t1, t2, disc_sign):
    # The arctan form divided by t1 here and lost to cancellation: at
    # t1 = 1e-9, t2 = 1e-5 it read Int y^2/q off by 4.1e-4.  Every integral,
    # Int y^m/q^2 included, now holds 1e-12 relative against quadrature on
    # both sides of disc = 0.
    assert math.copysign(1.0, 4.0 * t2 * t2 - 8.0 * t1) == disc_sign
    _assert_kernel_matches(t1, t2, 1.0, rel=1e-12)


KERNEL_BRANCH_POINTS = [
    ("series", (1e-9, 1e-5, 1.0)),
    ("series", (0.0, 0.0, 1.0)),
    ("series", (-1e-4, 0.04, 1.3)),
    ("log", (-0.3, 0.1, 1.0)),
    ("log", (0.05, 0.5, 1.2)),
    ("log", (0.0, 0.2, 1.06)),
    ("log", (0.25, 0.75 * (1.0 + 1e-2), 1.125)),
    ("atan", (0.4, 0.1, 1.0)),
    ("atan", (1.2, 0.4, 0.5)),
    ("atan", (0.25, 0.75 * (1.0 - 1e-2), 1.125)),
    ("tie", (0.25, 0.75, 1.125)),
    ("tie", (0.25, 0.75 * (1.0 + 1e-5), 1.125)),
    ("tie", (0.25, 0.75 * (1.0 - 1e-5), 1.125)),
]


@pytest.mark.parametrize("branch,point", KERNEL_BRANCH_POINTS)
def test_inverse_square_moments_on_every_branch(branch, point):
    assert _kernel_branch(*point) == branch
    _assert_kernel_matches(*point, rel=1e-12)


@pytest.mark.parametrize("offset,branch", [
    (2.7e-3, "tie"), (2.9e-3, "log"), (-2.7e-3, "tie"), (-2.9e-3, "atan"),
])
def test_inverse_square_moments_across_the_edge_of_the_tie_band(offset, branch):
    # On either side of the band edge the roots nearly cancel in the closed
    # forms and the expansion in h^2 converges slowest, the worst place for
    # both; each still holds 1e-12.
    t1, t2, b = 0.25, 0.75 * (1.0 + offset), 1.125
    assert _kernel_branch(t1, t2, b) == branch
    _assert_kernel_matches(t1, t2, b, rel=1e-12)


@pytest.mark.parametrize("params,theta", BRANCH_POINTS)
def test_gradient_matches_central_differences(params, theta):
    step = 1e-6
    g1, g2 = grad_c(theta, params)
    fd1 = (
        cgf_c(ThetaPair(theta.theta1 + step, theta.theta2), params)
        - cgf_c(ThetaPair(theta.theta1 - step, theta.theta2), params)
    ) / (2.0 * step)
    fd2 = (
        cgf_c(ThetaPair(theta.theta1, theta.theta2 + step), params)
        - cgf_c(ThetaPair(theta.theta1, theta.theta2 - step), params)
    ) / (2.0 * step)
    denom = max(math.hypot(g1, g2), 1e-12)
    assert math.hypot(g1 - fd1, g2 - fd2) / denom < 1e-4


@pytest.mark.parametrize("params,theta", BRANCH_POINTS)
def test_k_is_theta_dot_grad_minus_c(params, theta):
    g1, g2 = grad_c(theta, params)
    lhs = k_value(theta, params)
    rhs = theta.theta1 * g1 + theta.theta2 * g2 - cgf_c(theta, params)
    assert abs(lhs - rhs) < 1e-10


def test_cgf_zero_at_origin():
    assert cgf_c(ThetaPair(0.0, 0.0), P07) == 0.0
    assert k_value(ThetaPair(0.0, 0.0), P07) == pytest.approx(0.0, abs=1e-15)
    j, _ = trapz_j_and_c(ThetaPair(0.0, 0.0), P07)
    assert j == pytest.approx(2.0, abs=1e-12)


def test_rate_params_validation():
    with pytest.raises(InvalidParams):
        RateParams(x=0.0, eps=0.1)
    with pytest.raises(InvalidParams):
        RateParams(x=1.2, eps=0.1)
    with pytest.raises(InvalidParams):
        RateParams(x=0.7, eps=0.0)
    # ellipse condition (1 - x) - eps^2 > 0
    with pytest.raises(InvalidParams):
        RateParams(x=0.99, eps=0.3)
    assert RateParams(x=0.7, eps=0.3).p_left == pytest.approx(-1.0 / 1.4)


def test_domain_verdicts():
    v = in_domain_D(ThetaPair(0.0, 0.0), P07)
    assert v.in_domain and v.strictly_inside and v.failed_test is None
    assert v.q_min == pytest.approx(1.0)
    # large positive theta2 pushes h(1) over 1/2
    v1 = in_domain_D(ThetaPair(0.0, 2.0), P07)
    assert not v1.in_domain and v1.failed_test == "Test1"
    # large negative theta2 pushes h(-1) over 1/2
    v2 = in_domain_D(ThetaPair(0.0, -2.0), P07)
    assert not v2.in_domain and v2.failed_test == "Test2"
    # the interior vertex test needs t1 > 0 with the vertex inside [-1, 1]
    v3 = in_domain_D(ThetaPair(3.0, 0.5), P07)
    assert not v3.in_domain and v3.failed_test == "Test3"


def test_left_vertex_is_domain_corner():
    # q(-0?) at theta = (P, 0): q_min = 1 + 2 P x = 0 exactly
    p = P07.p_left
    assert in_domain_D(ThetaPair(p, 0.0), P07).q_min == pytest.approx(0.0, abs=1e-15)
    assert not in_domain_D(ThetaPair(p - 1e-6, 0.0), P07).in_domain
    verdict = in_domain_D(ThetaPair(p + 1e-3, 0.0), P07)
    assert verdict.in_domain


def test_near_boundary_raises():
    p = P07.p_left
    theta = ThetaPair(p + 1e-16, 0.0)
    with pytest.raises(NearBoundary):
        cgf_c(theta, P07)
    with pytest.raises(NearBoundary):
        grad_c(theta, P07)


def test_h_value_and_kernel_agree():
    # 1 - 2 h(y) is the kernel's q = 2 t1 y^2 - 2 t2 y + b
    theta = ThetaPair(-0.3, 0.2)
    b = _b_of(P07, theta.theta1, theta.theta2)
    for y in (-1.0, -0.25, 0.5, 1.0):
        q = 2.0 * theta.theta1 * y * y - 2.0 * theta.theta2 * y + b
        assert q == pytest.approx(1.0 - 2.0 * h_value(y, theta, P07), abs=1e-14)


def chebyshev_q_min(params: RateParams, theta: ThetaPair, n: int) -> float:
    """Minimum of q over n Chebyshev-spaced points of [-1, 1] joined with the
    analytic minimum: the grid cross-check of in_domain_D's q_min."""
    ys = np.cos(np.pi * np.arange(n) / (n - 1))
    q_grid = 1.0 - 2.0 * h_value(ys, theta, params)
    return float(min(np.min(q_grid), in_domain_D(theta, params).q_min))


theta_boxes = st.tuples(
    st.floats(min_value=-0.7, max_value=1.6),
    st.floats(min_value=-1.5, max_value=1.5),
)


@given(theta_boxes)
@settings(max_examples=150)
def test_qmin_matches_grid_scan(pair):
    theta = ThetaPair(*pair)
    q_min = in_domain_D(theta, P07).q_min
    grid = chebyshev_q_min(P07, theta, n=4097)
    # the analytic minimum can only undercut the grid scan
    assert q_min <= grid + 1e-12
    assert q_min >= grid - 1e-4


@given(theta_boxes)
@settings(max_examples=150)
@example((-0.25, -0.25))  # on q(-1) = 0, where q(-1) rounds to -1.1e-16
def test_domain_tests_equal_qmin_sign(pair):
    # domain-scan reads in_D off _pieces_arr (q_kernel); the scalar verdict
    # must agree with it and with the sign of q_min
    t1, t2 = pair
    in_d = _pieces_arr(P07, t1, t2)["in_D"][0]
    verdict = in_domain_D(ThetaPair(t1, t2), P07)
    assert bool(in_d) == verdict.in_domain == (verdict.q_min >= 0.0)
    assert (verdict.failed_test is None) == verdict.in_domain


@pytest.mark.parametrize("params", [P07, P03])
def test_boundary_lines_through_p_get_one_verdict(params):
    # q(1) = 0 and q(-1) = 0 are the lines through P = (-1/(2x), 0) with
    # slopes x/(1-eps) and -x/(1+eps); on them rounding decides membership,
    # and the scan's route and the scalar verdict must decide it the same way
    x, eps = params.x, params.eps
    s = np.linspace(0.0, 3.0, 301)
    for slope in (x / (1.0 - eps), -x / (1.0 + eps)):
        t1s, t2s = params.p_left + s, slope * s
        in_d = _pieces_arr(params, t1s, t2s)["in_D"]
        for t1, t2, member in zip(t1s, t2s, in_d):
            verdict = in_domain_D(ThetaPair(float(t1), float(t2)), params)
            assert bool(member) == verdict.in_domain == (verdict.q_min >= 0.0)
            assert (verdict.failed_test is None) == verdict.in_domain


@given(
    st.floats(min_value=-0.6, max_value=1.0),
    st.floats(min_value=-1.0, max_value=1.0),
)
@settings(max_examples=60)
@example(5.960464477539063e-08, 0.5)  # one root of q near 8e6: grad1 was off by 1.7e-2
def test_gradient_consistency_property(t1, t2):
    theta = ThetaPair(t1, t2)
    verdict = in_domain_D(theta, P07)
    if not (verdict.strictly_inside and verdict.q_min > 1e-3):
        return
    g1, g2 = grad_c(theta, P07)
    step = 1e-6
    fd1 = (
        cgf_c(ThetaPair(t1 + step, t2), P07) - cgf_c(ThetaPair(t1 - step, t2), P07)
    ) / (2.0 * step)
    fd2 = (
        cgf_c(ThetaPair(t1, t2 + step), P07) - cgf_c(ThetaPair(t1, t2 - step), P07)
    ) / (2.0 * step)
    assert math.hypot(g1 - fd1, g2 - fd2) <= 1e-3 * max(math.hypot(g1, g2), 1.0)


# ---------------------------------------------------------------------------
# the axis: H, its second zero, and k in the t coordinate
# ---------------------------------------------------------------------------


def test_h_axis_values_match_direct_integral():
    for x, theta1 in [(0.3, -0.8), (0.3, 0.4), (0.7, -0.5), (0.5, 1e-11)]:
        params = RateParams(x=x, eps=0.1)
        j_ref, _ = trapz_j_and_c(ThetaPair(theta1, 0.0), params)
        assert H_value(theta1, x) == pytest.approx(-1.0 + 0.5 * j_ref, abs=1e-7)
    # near the origin H ~ theta1 (4/3 - 2x) sits far below the trapezoid's
    # resolution; the reference is -1 + 1/2 Int 1/q by mpmath at 30 digits
    assert H_value(1e-11, 0.5) == pytest.approx(3.33333333338e-12, rel=1e-6)


def test_h_limits_and_sign_structure():
    x = 0.3
    p_left = -1.0 / (2.0 * x)
    assert H_value(0.0, x) == 0.0
    # H blows up only logarithmically toward P: ~ (x/2) log(2/t)
    assert H_value(p_left + 1e-9, x) > 2.0
    assert float(axis_h_t(1e-300, x)) > 100.0
    assert H_value(-1e-6, x) < 0.0
    with pytest.raises(NearBoundary):
        H_value(p_left, x)
    # the right end of the axis segment in D: b = q(0) = 0 at 1/(2(1 - x))
    with pytest.raises(NearBoundary):
        H_value(1.0 / (2.0 * (1.0 - x)), x)
    with pytest.raises(InvalidParams):
        H_value(-0.1, 0.0)


def test_t_coordinate_round_trip():
    for x in (0.1, 0.3, 0.65):
        for theta1 in (-1.0 / (2.0 * x) + 1e-4, -0.5, -1e-6):
            t = _t_from_theta1(theta1, x)
            assert _theta1_from_t(t, x) == pytest.approx(theta1, rel=1e-12)


def test_axis_h_t_matches_h_value():
    for x in (0.1, 0.3, 0.6):
        p_left = -1.0 / (2.0 * x)
        for theta1 in (0.1 * p_left, 0.6 * p_left, p_left + 1e-5):
            t = _t_from_theta1(theta1, x)
            assert float(axis_h_t(t, x)) == pytest.approx(
                H_value(theta1, x), rel=1e-9, abs=1e-12
            )


def test_axis_k_t_matches_k_value():
    # eps drops out of k on the axis, so any admissible eps gives the same k
    for x, eps in [(0.3, 0.1), (0.3, 0.5), (0.6, 0.2)]:
        params = RateParams(x=x, eps=eps)
        for theta1 in (-0.8, -0.1, -1e-7):
            t = _t_from_theta1(theta1, x)
            assert float(axis_k_t(t, x)) == pytest.approx(
                k_value(ThetaPair(theta1, 0.0), params), rel=1e-8, abs=1e-10
            )


def test_axis_k_vanishes_at_origin_end():
    # k -> 0 as theta1 -> 0- (t -> inf), where the naive form is pure noise
    assert abs(float(axis_k_t(1e6, 0.3))) < 1e-11
    assert abs(float(axis_k_t(1e8, 0.1))) < 1e-14


def test_solve_q_properties():
    for x in (0.05, 0.1, 0.3, 0.5):
        root = solve_Q_detail(x)
        assert isinstance(root, QRoot)
        p_left = -1.0 / (2.0 * x)
        assert p_left < root.theta1 < 0.0
        assert abs(root.h_residual) <= 1e-15
        assert root.fixed_point_residual <= 1e-14
    with pytest.raises(NoRoot):
        solve_Q_detail(0.7)
    with pytest.raises(NoRoot):
        solve_Q_detail(2.0 / 3.0)


def test_q_root_t_matches_mpmath():
    # H = 0 solved in mpmath at 50 digits
    assert solve_Q_detail(0.1).t == pytest.approx(4.1223137108869917e-9, rel=1e-13, abs=0.0)


def test_q_below_the_bracket_floor_names_its_cause():
    # for x below ~0.0029 the t coordinate of Q lies under t = 1e-300
    with pytest.raises(NoRoot, match=r"x=0\.0028 lies below the bracket floor t=1e-300: "
                                     r"H\(1e-300\) = -0\.0319"):
        solve_Q_detail(0.0028)


def _adjacent(root: float, exact_sq: Fraction) -> bool:
    """root and a neighbouring double bracket sqrt(exact_sq)."""
    lo, hi = math.nextafter(root, -math.inf), math.nextafter(root, math.inf)
    r2 = Fraction(root) ** 2
    return (Fraction(lo) ** 2 < exact_sq < r2) or (r2 < exact_sq < Fraction(hi) ** 2)


def test_bracketed_root_ends_next_to_sqrt2():
    root = bracketed_root(lambda t: t * t - 2.0, 1.0, 2.0, -1.0, 2.0)
    assert _adjacent(root, Fraction(2))
    # decreasing f, and the ends passed the other way round
    root = bracketed_root(lambda t: 2.0 - t * t, 2.0, 1.0, -2.0, 1.0)
    assert _adjacent(root, Fraction(2))


def test_bracketed_root_returns_an_exact_zero_end_at_once():
    def never(t):
        raise AssertionError(f"f called at {t}")

    assert bracketed_root(never, 0.0, 1.0, 0.0, 3.0) == 0.0
    assert bracketed_root(never, -1.0, 3.0, -2.0, 0.0) == 3.0


def test_root_toward_never_calls_f_at_the_end():
    def f(t):
        if t == 1.0:
            raise AssertionError("f called at the end")
        return 1.0 / (1.0 - t) - 10.0

    assert root_toward(f, 0.0, 1.0) == pytest.approx(0.9, rel=1e-15)
    assert root_toward(lambda t: 10.0 - 1.0 / (1.0 + t), 0.0, -1.0) == pytest.approx(
        -0.9, rel=1e-15)
    # no sign change before the end: NoRoot, not a call at the end
    with pytest.raises(NoRoot, match="up to the end 1.0"):
        root_toward(lambda t: f(t) - 1e300, 0.0, 1.0)


def test_q_root_transformed_coordinate_is_tiny():
    # the root gap closes like exp(-2/x); at x = 0.01 the t coordinate
    # resolves it even though theta1 itself cannot
    assert solve_Q_detail(0.01).t < 1e-10
    gaps = [solve_Q_detail(x).gap for x in (0.2, 0.1, 0.05, 0.02)]
    assert all(g > 0.0 for g in gaps)
    assert all(a > b for a, b in zip(gaps, gaps[1:]))


def test_q_gap_matches_theta_difference_where_resolvable():
    # at x = 0.3 the gap is still representable in theta1, so the two
    # routes must agree
    x = 0.3
    root = solve_Q_detail(x)
    direct = root.theta1 - (-1.0 / (2.0 * x))
    gap = root.gap
    assert gap == pytest.approx(direct, rel=1e-6)


def test_strict_interior_threshold_is_enforced():
    # a point passing the sign tests but inside the guard band must raise
    p = P07.p_left
    theta = ThetaPair(p + 1e-14, 0.0)
    assert 0.0 <= in_domain_D(theta, P07).q_min < QMIN_STRICT
    with pytest.raises(NearBoundary):
        integral_inv_q(theta, P07)
