"""The benchmark's oracles on cases with closed forms.

    python3 -m pytest perfbench/test_oracles.py -q

None of these tests imports squimld.
"""

import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import brentq
from scipy.stats import f as f_dist

import oracles as o


def test_p_theta_matches_adaptive_quadrature():
    a_of, _ = o.parabola(1.2, 0.1)
    for theta in (-0.5, 0.5, 5.0, 9.0):
        ref, _ = quad(lambda x: math.log1p(-2.0 * theta * a_of(x)), -1.0, 1.0,
                      points=[o.parabola(1.2, 0.1)[1]], epsabs=1e-14, epsrel=1e-13, limit=200)
        assert o.p_theta(theta, 1.2, 0.1) == pytest.approx(-0.25 * ref, rel=1e-12, abs=1e-15)
    assert o.p_theta(0.0, 1.2, 0.1) == 0.0


def test_pbar_star_is_a_stationary_point():
    pbar, theta = o.pbar_star(1.2, 0.1)
    a_of, xv = o.parabola(1.2, 0.1)
    # p'(theta) = 1/2 Int A / (1 - 2 theta A) vanishes at the minimum
    slope, _ = quad(lambda x: 0.5 * a_of(x) / (1.0 - 2.0 * theta * a_of(x)), -1.0, 1.0,
                    points=[xv], epsabs=1e-13, limit=200)
    assert abs(slope) < 1e-8
    assert pbar == pytest.approx(-o.p_theta(theta, 1.2, 0.1), rel=1e-15)
    # the value the two independent routes in ROADMAP.md agree on
    assert pbar == pytest.approx(0.3400098818596, rel=1e-11)
    assert theta == pytest.approx(7.5348, abs=1e-3)


@pytest.mark.parametrize("k,a", [(20, 3.0), (60, 2.5), (200, 1.8)])
def test_lugannani_rice_against_f_distribution(k, a):
    # sum of k chi2 with weight 1 and k with weight -a: P[F(k, k) >= a]
    b = np.concatenate([np.ones(k), -a * np.ones(k)])
    exact = math.log(f_dist.sf(a, k, k))
    assert o.lugannani_rice_log_tail(b) == pytest.approx(exact, rel=2e-3)


def test_lugannani_rice_needs_an_upper_tail():
    with pytest.raises(ValueError):
        o.lugannani_rice_log_tail(np.array([1.0, 2.0]))


def test_q_min_hand_cases():
    assert o.q_min(0.7, 0.3, 0.0, 0.0) == 1.0
    # theta = (-1/4, -1/4) sits on the line h(-1) = 1/2 through P: q(-1) = 0
    assert abs(o.q_min(0.7, 0.3, -0.25, -0.25)) <= 1e-15
    rng = np.random.default_rng(3)
    t1 = rng.uniform(-2.0, 2.0, 500)
    t2 = rng.uniform(-2.0, 2.0, 500)
    ys = np.linspace(-1.0, 1.0, 20001)
    a2, a1, a0 = o.q_coeffs(0.4, 0.2, t1, t2)
    grid = (a2[:, None] * ys**2 + a1[:, None] * ys + a0[:, None]).min(axis=1)
    qm = o.q_min(0.4, 0.2, t1, t2)
    assert np.all(qm <= grid + 1e-12)
    assert np.all(grid - qm <= 1e-7 * (1.0 + np.abs(t1) + np.abs(t2)))


def test_k_and_grad_at_the_origin():
    # q = 1 identically: k = 0, dc/dtheta1 = 2(1 - x) - 2/3, dc/dtheta2 = -2 eps
    k, g1, g2 = o.k_and_grad_quadrature(0.4, 0.2, 0.0, 0.0)
    assert k == pytest.approx(0.0, abs=1e-14)
    assert g1 == pytest.approx(2.0 * 0.6 - 2.0 / 3.0, rel=1e-13)
    assert g2 == pytest.approx(-0.4, rel=1e-13)


def test_axis_integrals_against_closed_forms():
    x, theta1 = 0.4, -0.9
    a0 = 1.0 - 2.0 * theta1 * (1.0 - x)
    c = -2.0 * theta1  # q = a0 - c y^2 on the axis
    h_closed = -1.0 + math.atanh(math.sqrt(c / a0)) / math.sqrt(a0 * c)
    assert o._axis_h(theta1, x) == pytest.approx(h_closed, rel=1e-12)


def test_i1_against_closed_form_axis_integrals():
    assert o.i1_quadrature(2.0 / 3.0) == 0.0
    assert o.i1_quadrature(0.9) == 0.0
    for x in (0.3, 0.4, 0.5):
        # on the axis q = a0 - c y^2 with c = -2 theta1, a0 = 1 - 2 theta1 (1 - x):
        # H = -1 + atanh(sqrt(c/a0)) / sqrt(a0 c) and
        # 1/2 Int_{-1}^{1} log q = log(a0 - c) - 2 + 2 sqrt(a0/c) atanh(sqrt(c/a0))
        def parts(theta1):
            c = -2.0 * theta1
            a0 = 1.0 - 2.0 * theta1 * (1.0 - x)
            r = math.sqrt(c / a0)
            return (-1.0 + math.atanh(r) / math.sqrt(a0 * c),
                    math.log(a0 - c) - 2.0 + 2.0 * math.atanh(r) / r)

        p_left = -1.0 / (2.0 * x)
        q_root = brentq(lambda t: parts(t)[0], p_left + 1e-12, p_left / 2.0, xtol=1e-300, rtol=1e-15)
        assert o.i1_quadrature(x) == pytest.approx(sum(parts(q_root)), abs=1e-11)


def test_dirichlet_moments_at_infinite_temperature():
    # beta = 0 is the flat Dirichlet: E[(g.w)^2] = sum g^2 / (K (K+1)) when sum g = 0,
    # and E[g^2 . w] = sum g^2 / K
    for nodes, precise in ((o.scwm_nodes(8, 0.0), True), (o.chain_nodes(8, 0.0), False)):
        phi, g = nodes
        k = g.size
        s2 = float(g @ g)
        msq, disp = o.dirichlet_moments(phi, g, precise=precise)
        assert msq == pytest.approx(s2 / (k * (k + 1)), rel=1e-10)
        assert disp == pytest.approx(s2 / k - s2 / (k * (k + 1)), rel=1e-10)


def test_dirichlet_moments_two_cells():
    # K = 2: w ~ U(0, 1) tilted by exp((phi1 - phi2) w); g = (1, -1) gives m = 2w - 1
    phi = np.array([1.7, -0.4])
    g = np.array([1.0, -1.0])
    d = phi[0] - phi[1]
    z, _ = quad(lambda w: math.exp(d * w), 0.0, 1.0)
    m2, _ = quad(lambda w: (2 * w - 1) ** 2 * math.exp(d * w), 0.0, 1.0)
    msq, disp = o.dirichlet_moments(phi, g, precise=True)
    assert msq == pytest.approx(m2 / z, rel=1e-12)
    assert disp == pytest.approx(1.0 - m2 / z, rel=1e-12)  # g^2 = 1 in both cells


def test_float_and_mpmath_routes_agree():
    phi, g = o.chain_nodes(4, 5.0)
    assert o.dirichlet_moments(phi, g) == pytest.approx(
        o.dirichlet_moments(phi, g, precise=True), rel=1e-10)
    phi, g = o.scwm_nodes(8, 40.0)
    assert o.dirichlet_moments(phi, g) == pytest.approx(
        o.dirichlet_moments(phi, g, precise=True), rel=1e-10)


def test_chain_nodes_small_chain():
    phi, g = o.chain_nodes(2, 1.0)
    # configurations 0..3: (+,+), (-,+), (+,-), (-,-) with spins +-1/2
    assert list(phi) == [0.25, -0.25, -0.25, 0.25]
    assert list(g) == [1.0, 0.0, 0.0, -1.0]
