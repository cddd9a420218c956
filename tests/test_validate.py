"""The validation suite's own integrals against closed forms.

check_uif and check_concentration judge the two measure lemmas by
numerical integrals; here each integral is checked against its value in
closed form, so a quadrature rule that drifts shows before a lemma check
reads it.  The Gauss-Legendre rule behind every check is held to the
exact integrals of the monomials it must integrate exactly, and the
quadrature check's fixed cases to the kernel branches they stand for, by
gecore.kernel_branches, the kernel's own rule.  And every check must be
able to fail: each is run once as it is and once with its subject or its
oracle nudged past its tolerance.
"""

import dataclasses
import math

import numpy as np
import pytest

from squimld import validate
from squimld.gecore import BRANCHES, RateParams, kernel_branches, rate_pieces
from squimld.validate import (QUAD_CASES, _legendre_rule, check_quadrature,
                              concentration_integrals, uif_sides)


@pytest.mark.parametrize("n", [1, 2, 3, 31, 32, 256, 1024, 4096])
def test_legendre_rule_integrates_monomials_below_degree_2n(n):
    x, w = _legendre_rule(n)
    assert len(x) == n and np.all(np.diff(x) > 0.0) and np.all(w > 0.0)
    assert np.array_equal(x, -x[::-1]) and np.array_equal(w, w[::-1])
    # Int_{-1}^{1} y^d dy = 2/(d + 1) for even d, 0 for odd d; numpy's
    # eigenvalue rule misses by 3.6e-15 at n = 256 and 2e-14 at n = 1024
    power = np.ones(n)
    worst = 0.0
    for d in range(2 * n):
        exact = 2.0 / (d + 1) if d % 2 == 0 else 0.0
        worst = max(worst, abs(float(w @ power) - exact))
        power *= x
    assert worst <= 10.0 * np.finfo(float).eps


@pytest.mark.parametrize("theta, branch, q_min", [
    pytest.param(th, branch, q, id=branch)
    for th, branch, q in zip(QUAD_CASES, ("atan", "log", "series", "tie"),
                             (0.46688, 0.24, 0.9866, 0.12196))
])
def test_quadrature_cases_sit_on_their_kernel_branches(theta, branch, q_min):
    params = RateParams(x=0.3, eps=0.3)
    shape = params.shape(*theta)
    masks = kernel_branches(shape)[3]
    assert [name for name, mask in zip(BRANCHES, masks) if mask[0]] == [branch]
    out = rate_pieces(params, shape)
    assert out["ok"][0] and shape.q_min[0] == pytest.approx(q_min, abs=1e-4)


@pytest.mark.parametrize("level", ["fast", "full"])
def test_quadrature_check_covers_all_four_kernel_branches(level):
    result = check_quadrature(level)
    assert result.ok, result.detail
    assert "branches covered: atan, log, series, tie," in result.detail


def i0_half() -> float:
    """I0(1/2) = sum_k (1/16)^k / (k!)^2, summed until the terms vanish."""
    total, term, k = 0.0, 1.0, 0
    while total + term != total:
        total += term
        k += 1
        term /= 16.0 * k * k
    return total


def test_uif_sides_against_the_bessel_closed_form():
    closed, direct, layer_cake = uif_sides()
    want = math.exp(-0.5) * i0_half()
    assert closed == pytest.approx(want, rel=1e-15)
    assert abs(direct - want) <= 1e-12
    assert abs(layer_cake - want) <= 1e-12


@pytest.mark.parametrize("beta, u_cut", [(20.0, 0.5), (20.0, 0.9), (3.0, 0.5)])
def test_concentration_integrals_against_closed_forms(beta, u_cut):
    def mass(a):  # Int_a^1 exp(-beta (1 - z)) dz / 2
        return -math.expm1(-beta * (1.0 - a)) / (2.0 * beta)

    def moment(a):  # Int_a^1 z exp(-beta (1 - z)) dz / 2
        return ((1.0 / beta - 1.0 / beta**2)
                - math.exp(-beta * (1.0 - a)) * (a / beta - 1.0 / beta**2)) / 2.0

    got = concentration_integrals(beta, u_cut)
    want = (mass(-1.0), mass(u_cut), moment(-1.0), moment(u_cut))
    for g, w in zip(got, want):
        assert g == pytest.approx(w, rel=1e-13)
    # Z = (1 - exp(-2 beta)) / (2 beta), the form the lemma quotes
    assert got[0] == pytest.approx((1.0 - math.exp(-2.0 * beta)) / (2.0 * beta), rel=1e-13)


def _nudged(fn, change):
    """fn with change applied to its result."""
    return lambda *args, **kwargs: change(fn(*args, **kwargs))


def _shift_piece(key, change):
    def nudge(out):
        out[key] = change(out[key])
        return out
    return "rate_pieces", _nudged(rate_pieces, nudge)


# check, level, and the name in validate it replaces with a nudged copy
NUDGES = {
    "quadrature-vs-closed-form": (
        validate.check_quadrature, "fast", *_shift_piece("j", lambda j: j + 1e-13)),
    "gradient-vs-quadrature": (
        validate.check_gradients, "fast", *_shift_piece("grad1", lambda g: g * (1.0 + 1e-11))),
    "beta0-moment-oracle": (
        validate.check_beta0_moments, "fast", "infinite_T_msq_exact",
        _nudged(validate.infinite_T_msq_exact, lambda v: 1.5 * v)),
    "small-N-enumerations": (
        validate.check_small_n, "fast", "classical_ising_1d",
        _nudged(validate.classical_ising_1d, lambda r: (r[0] + 1e-9, *r[1:]))),
    "uif-circle-identity": (
        validate.check_uif, "fast", "uif_sides",
        _nudged(validate.uif_sides, lambda r: (*r[:2], r[2] + 1e-12))),
    "concentration-bound-2-sphere": (
        validate.check_concentration, "fast", "concentration_integrals",
        _nudged(validate.concentration_integrals, lambda r: (r[0], 0.9 * r[1], *r[2:]))),
    "i2-dual-vs-sampled-bracket": (
        validate.check_i2_dual_bracket, "full", "compute_I2",
        _nudged(validate.compute_I2,
                lambda pts: [dataclasses.replace(pt, sampled_k_min=pt.I2 - 1e-9) for pt in pts])),
}


def test_every_check_has_a_nudge():
    assert {nudge[0] for nudge in NUDGES.values()} == set(validate.CHECKS + validate.FULL_CHECKS)


@pytest.mark.parametrize("name", list(NUDGES))
def test_every_check_fails_when_its_subject_or_oracle_is_nudged(name, monkeypatch):
    check, level, attr, nudged = NUDGES[name]
    result = check(level, 1)
    assert result.name == name and result.ok, result.detail
    monkeypatch.setattr(validate, attr, nudged)
    result = check(level, 1)
    assert result.name == name and not result.ok, result.detail
