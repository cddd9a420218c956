"""The validation suite's own integrals against closed forms.

check_uif and check_concentration judge the two measure lemmas by
numerical integrals; here each integral is checked against its value in
closed form, so a quadrature rule that drifts shows before a lemma check
reads it.
"""

import math

import pytest

from squimld.validate import concentration_integrals, uif_sides


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
