"""Closed forms against quadrature, domain geometry, and the axis root.

The cumulant function and its companions all reduce to elementary
antiderivatives, so every value here can be cross-checked by trapezoid
quadrature on a dense grid.  Every value is read off the array kernel
(q_kernel, rate_pieces) and its branch off kernel_branches, the one
statement of the rule.  The tests pin the branch switching (power series,
log, arctan, double root) and that it covers every strictly interior point,
the endpoint and vertex values behind D, the exact parabola minimum, and
the transformed-coordinate machinery on the axis where the root gap shrinks
below float spacing.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from squimld import (
    InvalidParams,
    NoRoot,
    QRoot,
    RateParams,
    solve_Q_detail,
)
from squimld.gecore import (
    BRANCHES,
    QMIN_STRICT,
    _theta1_from_t,
    axis_h_t,
    axis_k_t,
    bracketed_root,
    h_value,
    kernel_branches,
    q_kernel,
    q_shape,
    rate_pieces,
    root_toward,
)

P07 = RateParams(x=0.7, eps=0.3)
P03 = RateParams(x=0.3, eps=0.1)


def trapz_j_and_c(theta, params: RateParams, panels: int = 200_000):
    """Dense trapezoid values of Int 1/q and c = -1/2 Int log q at theta = (t1, t2)."""
    ys = np.linspace(-1.0, 1.0, panels + 1)
    q = 1.0 - 2.0 * h_value(ys, *theta, params)
    assert np.all(q > 0.0)
    j = float(np.trapezoid(1.0 / q, ys))
    c = float(-0.5 * np.trapezoid(np.log(q), ys))
    return j, c


def at(params: RateParams, theta, *keys):
    """rate_pieces's keys at theta = (t1, t2), which must be strictly inside D."""
    shape = params.shape(*theta)
    out = rate_pieces(params, shape)
    assert out["ok"][0], (theta, shape.q_min[0])
    return tuple(float(out[key][0]) for key in keys)


def q_min_of(params: RateParams, theta) -> float:
    return float(params.shape(*theta).q_min[0])


# interior points exercising each branch: disc > 0 (t1 < 0), disc < 0
# (t1 > 0 large enough), the affine line t1 = 0, and a near-tie point
BRANCH_POINTS = [
    (P07, (-0.5, 0.1)),
    (P07, (-0.2, 0.2)),
    (P07, (0.8, 0.05)),
    (P07, (1.2, 0.4)),
    (P07, (0.0, 0.2)),
    (P07, (0.0, 1e-7)),
    (P03, (-0.4, 0.15)),
    (P03, (0.3, -0.1)),
]


@pytest.mark.parametrize("params,theta", BRANCH_POINTS)
def test_closed_forms_match_quadrature(params, theta):
    j_ref, c_ref = trapz_j_and_c(theta, params)
    j, c = at(params, theta, "j", "c")
    assert abs(j - j_ref) < 2e-8
    assert abs(c - c_ref) < 2e-8


@pytest.mark.parametrize("t1", [1e-10, -1e-10, 3e-11])
@pytest.mark.parametrize("t2", [0.0, 1e-3, 0.1, 0.4, -0.3])
def test_affine_branch_keeps_first_order_t1_terms(t1, t2):
    # |t1| <= 1e-10: the 2*t1*y^2 term of q is O(1e-10), far above the
    # 1e-14 tolerance, so the integrals of the affine part alone would fail.
    # q's nearest root is y = 1.25 (t2 = 0.4), whose Bernstein ellipse has
    # rho = 2, so 80-point Gauss-Legendre is exact to rounding (~2^-160).
    out = q_kernel(q_shape(t1, t2, 1.0))
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
    """The one branch kernel_branches puts (t1, t2, b) on."""
    masks = kernel_branches(q_shape(t1, t2, b))[3]
    (branch,) = [name for name, mask in zip(BRANCHES, masks) if mask[0]]
    return branch


def _assert_kernel_matches(t1, t2, b, rel):
    out = q_kernel(q_shape(t1, t2, b), with_q2=True)
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
    assert np.sign(kernel_branches(q_shape(t1, t2, 1.0))[2][0]) == disc_sign
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


def central_differences(params: RateParams, theta, step: float):
    """(dc/dt1, dc/dt2) by central differences of the kernel's c, from one call."""
    t1, t2 = theta
    out = rate_pieces(params, params.shape([t1 + step, t1 - step, t1, t1],
                                           [t2, t2, t2 + step, t2 - step]))
    assert np.all(out["ok"])
    c = out["c"]
    return (c[0] - c[1]) / (2.0 * step), (c[2] - c[3]) / (2.0 * step)


@pytest.mark.parametrize("params,theta", BRANCH_POINTS)
def test_gradient_matches_central_differences(params, theta):
    g1, g2 = at(params, theta, "grad1", "grad2")
    fd1, fd2 = central_differences(params, theta, 1e-6)
    denom = max(math.hypot(g1, g2), 1e-12)
    assert math.hypot(g1 - fd1, g2 - fd2) / denom < 1e-4


@pytest.mark.parametrize("params,theta", BRANCH_POINTS)
def test_k_is_theta_dot_grad_minus_c(params, theta):
    g1, g2, k, c = at(params, theta, "grad1", "grad2", "k", "c")
    assert abs(k - (theta[0] * g1 + theta[1] * g2 - c)) < 1e-10


def test_cgf_zero_at_origin():
    c, k = at(P07, (0.0, 0.0), "c", "k")
    assert c == 0.0
    assert k == pytest.approx(0.0, abs=1e-15)
    j, _ = trapz_j_and_c((0.0, 0.0), P07)
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
    # q(1), q(-1) from q_shape and the vertex value b - t2^2/(2 t1), for
    # t1 > 0 with the vertex in [-1, 1]: D needs all three >= 0
    def shape(t1, t2):
        sh = P07.shape(t1, t2)
        q1, qm1, q_min, in_d, b = sh.q1[0], sh.qm1[0], sh.q_min[0], sh.in_D[0], sh.b[0]
        inside = t1 > 0.0 and abs(t2 / (2.0 * t1)) <= 1.0
        qvert = b - t2 * (t2 / (2.0 * t1)) if inside else math.inf
        return (float(q1), float(qm1), qvert), float(q_min), bool(in_d)

    values, q_min, in_d = shape(0.0, 0.0)
    assert in_d and q_min == pytest.approx(1.0)
    # large positive theta2 pushes h(1) over 1/2: q(1) < 0
    values, q_min, in_d = shape(0.0, 2.0)
    assert not in_d and values[0] < 0.0 <= min(values[1:]) and q_min == values[0]
    # large negative theta2 pushes h(-1) over 1/2: q(-1) < 0
    values, q_min, in_d = shape(0.0, -2.0)
    assert not in_d and values[1] < 0.0 <= min(values[0], values[2]) and q_min == values[1]
    # the vertex counts only for t1 > 0 with the vertex inside [-1, 1]
    values, q_min, in_d = shape(3.0, 0.5)
    assert not in_d and values[2] < 0.0 <= min(values[:2]) and q_min == values[2]


def test_left_vertex_is_domain_corner():
    # q(-0?) at theta = (P, 0): q_min = 1 + 2 P x = 0 exactly
    p = P07.p_left
    assert q_min_of(P07, (p, 0.0)) == pytest.approx(0.0, abs=1e-15)
    in_d = P07.shape([p - 1e-6, p + 1e-3], [0.0, 0.0]).in_D
    assert not in_d[0] and in_d[1]


def test_h_value_and_kernel_agree():
    # 1 - 2 h(y) is the kernel's q = 2 t1 y^2 - 2 t2 y + b
    t1, t2 = -0.3, 0.2
    b = float(P07.shape(t1, t2).b[0])
    for y in (-1.0, -0.25, 0.5, 1.0):
        q = 2.0 * t1 * y * y - 2.0 * t2 * y + b
        assert q == pytest.approx(1.0 - 2.0 * h_value(y, t1, t2, P07), abs=1e-14)


def chebyshev_q_min(params: RateParams, theta, n: int) -> float:
    """Minimum of q over n Chebyshev-spaced points of [-1, 1] joined with the
    analytic minimum: the grid cross-check of q_shape's q_min."""
    ys = np.cos(np.pi * np.arange(n) / (n - 1))
    q_grid = 1.0 - 2.0 * h_value(ys, *theta, params)
    return float(min(np.min(q_grid), q_min_of(params, theta)))


theta_boxes = st.tuples(
    st.floats(min_value=-0.7, max_value=1.6),
    st.floats(min_value=-1.5, max_value=1.5),
)


@given(theta_boxes)
@settings(max_examples=150)
def test_qmin_matches_grid_scan(pair):
    q_min = q_min_of(P07, pair)
    grid = chebyshev_q_min(P07, pair, n=4097)
    # the analytic minimum can only undercut the grid scan
    assert q_min <= grid + 1e-12
    assert q_min >= grid - 1e-4


@given(
    st.floats(min_value=-0.6, max_value=1.0),
    st.floats(min_value=-1.0, max_value=1.0),
)
@settings(max_examples=60)
@example(5.960464477539063e-08, 0.5)  # one root of q near 8e6: grad1 was off by 1.7e-2
def test_gradient_consistency_property(t1, t2):
    if not q_min_of(P07, (t1, t2)) > 1e-3:
        return
    g1, g2 = at(P07, (t1, t2), "grad1", "grad2")
    fd1, fd2 = central_differences(P07, (t1, t2), 1e-6)
    assert math.hypot(g1 - fd1, g2 - fd2) <= 1e-3 * max(math.hypot(g1, g2), 1.0)


# ---------------------------------------------------------------------------
# the axis: H, its second zero, and k in the t coordinate
# ---------------------------------------------------------------------------


def kernel_h(theta1, x):
    """H = -1 + 1/2 Int 1/q on the axis, from the kernel (eps drops out there)."""
    params = RateParams(x=x, eps=0.1)
    return -1.0 + 0.5 * rate_pieces(params, params.shape(theta1, np.zeros_like(theta1)))["j"]


def test_h_axis_values_match_direct_integral():
    for x, theta1 in [(0.3, -0.8), (0.3, 0.4), (0.7, -0.5), (0.5, 1e-11)]:
        params = RateParams(x=x, eps=0.1)
        j_ref, _ = trapz_j_and_c((theta1, 0.0), params)
        assert kernel_h(theta1, x)[0] == pytest.approx(-1.0 + 0.5 * j_ref, abs=1e-7)
    # near the origin H ~ theta1 (4/3 - 2x) sits far below the trapezoid's
    # resolution; the reference is -1 + 1/2 Int 1/q by mpmath at 30 digits
    assert kernel_h(1e-11, 0.5)[0] == pytest.approx(3.33333333338e-12, rel=1e-6)


def test_h_limits_and_sign_structure():
    x = 0.3
    p_left = -1.0 / (2.0 * x)
    h0, h_near_p, h_near_0 = kernel_h(np.array([0.0, p_left + 1e-9, -1e-6]), x)
    assert h0 == 0.0
    # H blows up only logarithmically toward P: ~ (x/2) log(2/t)
    assert h_near_p > 2.0
    assert float(axis_h_t(1e-300, x)) > 100.0
    assert h_near_0 < 0.0
    # P itself and the right end of the axis segment in D, where
    # b = q(0) = 0 at 1/(2(1 - x)), are off the strict interior
    assert np.all(np.isnan(kernel_h(np.array([p_left, 1.0 / (2.0 * (1.0 - x))]), x)))


def t_of_theta1(theta1, x):
    """The stretched axis coordinate t = sqrt(1/(-2 theta1) + 1 - x) - 1."""
    return math.sqrt(1.0 / (-2.0 * theta1) + 1.0 - x) - 1.0


def test_t_coordinate_round_trip():
    for x in (0.1, 0.3, 0.65):
        for theta1 in (-1.0 / (2.0 * x) + 1e-4, -0.5, -1e-6):
            t = t_of_theta1(theta1, x)
            assert _theta1_from_t(t, x) == pytest.approx(theta1, rel=1e-12)


def test_axis_h_t_matches_h_value():
    for x in (0.1, 0.3, 0.6):
        p_left = -1.0 / (2.0 * x)
        for theta1 in (0.1 * p_left, 0.6 * p_left, p_left + 1e-5):
            t = t_of_theta1(theta1, x)
            assert float(axis_h_t(t, x)) == pytest.approx(
                kernel_h(theta1, x)[0], rel=1e-9, abs=1e-12
            )


def test_axis_k_t_matches_the_kernel_k():
    # eps drops out of k on the axis, so any admissible eps gives the same k
    for x, eps in [(0.3, 0.1), (0.3, 0.5), (0.6, 0.2)]:
        params = RateParams(x=x, eps=eps)
        for theta1 in (-0.8, -0.1, -1e-7):
            t = t_of_theta1(theta1, x)
            assert float(axis_k_t(t, x)) == pytest.approx(
                at(params, (theta1, 0.0), "k")[0], rel=1e-8, abs=1e-10
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


def test_near_boundary_raises():
    # P + 1e-16 is in D but inside the guard band; the kernel raises no error
    # there, it refuses the point through ok, with or without exact ends
    p = P07.p_left
    x, s = P07.x, 1e-16
    ends = (2.0 * x * s, 2.0 * x * s)  # q(+-1) at theta2 = 0, as solve_dual forms them
    for shape in (P07.shape(p + s, 0.0), P07.shape(p + s, 0.0, ends)):
        out = rate_pieces(P07, shape)
        assert shape.in_D[0] and not out["ok"][0]
        for key in ("c", "grad1", "grad2"):
            assert math.isnan(out[key][0]), key


def test_strict_interior_threshold_is_enforced():
    # points passing the sign tests but inside the guard band are in D and
    # not ok: every integral, and so c, its gradient and k, is NaN
    p = P07.p_left
    shape = P07.shape([p + 1e-16, p + 1e-14], [0.0, 0.0])
    out = rate_pieces(P07, shape)
    assert np.all(shape.in_D) and not np.any(out["ok"])
    assert np.all((0.0 <= shape.q_min) & (shape.q_min < QMIN_STRICT))
    for key in ("j", "jy", "y2", "lq", "c", "grad1", "grad2", "k"):
        assert np.all(np.isnan(out[key])), key


# disc == 0 exactly with the double root t2/(2 t1) = -0.93 in [-1, 1]: q_min
# rounds to 1.8e-12, above QMIN_STRICT, yet no closed form applies
TIED_INSIDE = (6232.31902816863, -11598.248270891638, 10792.079348413063)


def test_double_root_inside_the_interval_is_refused():
    t1, t2, b = TIED_INSIDE
    shape = q_shape(t1, t2, b)
    assert kernel_branches(shape)[2][0] == 0.0 and abs(t2 / (2.0 * t1)) <= 1.0
    out = q_kernel(shape, with_q2=True)
    assert shape.q_min[0] >= QMIN_STRICT and shape.in_D[0]
    assert not out["ok"][0]
    for key in ("j", "jy", "y2", "lq"):
        assert math.isnan(out[key][0]), key
    assert np.all(np.isnan(out["q2"]))


def test_every_ok_point_sits_on_exactly_one_branch():
    # a random batch of interior points plus large-b constructions with
    # disc == 0: t2 = 2 t1 r and b = t2 r make q = 2 t1 (y - r)^2, with the
    # double root r inside [-1, 1] or outside it (the tie branch).  At b in
    # the thousands the rounding of q_min reaches QMIN_STRICT, so some of
    # the inside roots pass the q_min guard, as TIED_INSIDE does.
    rng = np.random.default_rng(3)
    n = 20_000
    t1d = rng.uniform(1e3, 1e4, 2 * n)
    r = np.concatenate((rng.uniform(-1.0, 1.0, n), rng.uniform(1.0, 3.0, n)))
    t2d = 2.0 * t1d * r
    bd = t2d * r
    tied = kernel_branches(q_shape(t1d, t2d, bd))[2] == 0.0
    batch = (rng.uniform(-3.0, 3.0, n), rng.uniform(-3.0, 3.0, n), rng.uniform(0.5, 4.0, n))
    t1, t2, b = (np.concatenate((u, v[tied])) for u, v in zip(batch, (t1d, t2d, bd)))
    shape = q_shape(t1, t2, b)
    out = q_kernel(shape)
    ok = out["ok"]
    masks = np.array(kernel_branches(shape.take(np.flatnonzero(ok)))[3])
    assert np.all(masks.sum(axis=0) == 1)
    assert np.all(np.isfinite(out["j"][ok])) and np.all(np.isnan(out["j"][~ok]))
    # the points refused although q_min passes are exactly the double roots
    # inside [-1, 1]
    off_branch = ~ok & (shape.q_min >= QMIN_STRICT)
    assert off_branch.sum() >= 10
    assert np.all(np.abs(t2[off_branch] / (2.0 * t1[off_branch])) <= 1.0)
    assert np.all(kernel_branches(shape.take(np.flatnonzero(off_branch)))[2] == 0.0)


def _same_bits(a, b):
    """a and b bit for bit, any NaN equal to any NaN."""
    a, b = np.asarray(a), np.asarray(b)
    if a.dtype == bool:
        return np.array_equal(a, b)
    nan = np.isnan(a)
    return (np.array_equal(nan, np.isnan(b))
            and np.array_equal(a[~nan].view(np.uint64), b[~nan].view(np.uint64)))


def _mixed_batch():
    """(t1, t2, b) over everything q_kernel meets: each branch and the tie
    band's edges, points outside D, points of D below QMIN_STRICT, the
    double root inside [-1, 1], and random points, most of them on the log
    branch."""
    points = [point for _, point in KERNEL_BRANCH_POINTS]
    points += [(0.25, 0.75 * (1.0 + offset), 1.125)
               for offset in (2.7e-3, 2.9e-3, -2.7e-3, -2.9e-3)]
    points += [(-0.3, 0.1, 0.1), (0.0, 0.0, -1.0), (2.0, 3.0, 0.5)]  # outside D
    points += [(0.0, 0.0, 5e-13), (0.0, 0.0, 0.0), (-0.25, 0.0, 0.5 + 1e-13)]  # q_min < QMIN_STRICT
    points.append(TIED_INSIDE)
    rng = np.random.default_rng(28)
    n = 400
    random = (rng.uniform(-3.0, 3.0, n), rng.uniform(-3.0, 3.0, n), rng.uniform(0.5, 4.0, n))
    return tuple(np.concatenate((np.array(fixed), drawn))
                 for fixed, drawn in zip(zip(*points), random))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("with_q2", [False, True])
@pytest.mark.parametrize("with_ends", [False, True])
@pytest.mark.parametrize("interior", [False, True])
def test_kernel_works_point_by_point(with_q2, with_ends, interior):
    # Every output of a batch call equals that of the point's own call, and
    # that of a call on a subset taken from the batch's QShape, bit for
    # bit: the log branch runs over the whole batch and the other branches
    # overwrite their points, so a branch must not reach another point's
    # entries.  The interior batch keeps the points with q_min at or above
    # QMIN_STRICT, the double root inside [-1, 1] among them; the full
    # batch runs its points outside D and below QMIN_STRICT through the same
    # branch formulas, which must not warn.
    t1, t2, b = _mixed_batch()
    # q(+-1) summed in another order than the kernel's own 2 t1 -+ 2 t2 + b,
    # handed over in the D test
    ends = ((b - 2.0 * t2) + 2.0 * t1, (b + 2.0 * t2) + 2.0 * t1) if with_ends else None
    shape = q_shape(t1, t2, b, ends)
    if interior:
        shape = shape.take(np.flatnonzero(shape.q_min >= QMIN_STRICT))
    q_min = shape.q_min
    out = q_kernel(shape, with_q2=with_q2)
    ok = out["ok"]
    masks = kernel_branches(shape.take(np.flatnonzero(ok)))[3]
    assert all(mask.any() for mask in masks)  # every branch is in the batch
    assert np.any((q_min >= QMIN_STRICT) & ~ok)  # the double root
    if not interior:
        assert np.any(~shape.in_D) and np.any(shape.in_D & (q_min < QMIN_STRICT))
    for i in range(len(q_min)):
        one = q_kernel(q_shape(shape.t1[i], shape.t2[i], shape.b[i],
                               ends and (shape.q1[i], shape.qm1[i])), with_q2=with_q2)
        assert one.keys() == out.keys()
        for key, value in out.items():
            assert _same_bits(value[..., i], one[key][..., 0]), (key, i)
    # subsets in another order, one of them the points refused
    for idx in (np.arange(len(q_min))[::-3], np.flatnonzero(~ok)):
        sub = q_kernel(shape.take(idx), with_q2=with_q2)
        assert sub.keys() == out.keys()
        for key, value in out.items():
            assert _same_bits(value[..., idx], sub[key]), key
