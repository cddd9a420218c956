"""Spin observables on weight vectors, and the transfer-matrix baseline.

The observable identities are algebraic (energy ties to magnetization and
dispersion, flip counts tie to the interaction sum), so they are tested
as exact relations on random weight vectors w = |amplitude|^2, normalized.
The transfer matrix's log Z, mean M and var M are checked against direct
enumeration over all configurations at small N, and var M at zero field
against the closed form (1/4) sum tanh(beta/2)^|i-j| at large N.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from squimld import InvalidParams, classical_ising_1d
from squimld.ensembles import (
    FULL_N_MAX,
    chain_classes,
    chain_tables,
    g_values,
    log_binomials,
    spin_moments,
    wfe_exponent,
)
from squimld.validate import chain_var_closed_form


def random_weights(cells: int, seed: int) -> np.ndarray:
    """|amplitude|^2 of a random complex state, normalized: flat-Dirichlet."""
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(cells) + 1j * rng.standard_normal(cells)
    w = np.abs(v) ** 2
    return w / w.sum()


def test_g_values_structure():
    g = g_values(8)
    assert g[0] == 1.0 and g[-1] == -1.0
    assert float(g.sum()) == pytest.approx(0.0, abs=1e-14)
    assert np.all(np.diff(g) < 0.0)


def test_log_binomials_against_comb():
    for n_spins in (2, 5, 8, 12, 64, 1024):
        got = log_binomials(n_spins)
        assert got.shape == (n_spins + 1,)
        for n in range(n_spins + 1):
            assert got[n] == pytest.approx(math.log(math.comb(n_spins, n)), rel=1e-13, abs=0.0)


@given(st.integers(min_value=2, max_value=16), st.integers(min_value=0, max_value=10**6))
@settings(max_examples=60)
def test_energy_identity_curie_weiss(n_spins, seed):
    # E_CW = -(1/N) sum w_n (N - 2n)^2 = -N (m^2 + D) as an exact identity on any state
    w = random_weights(n_spins + 1, seed)
    m, d = spin_moments(w, g_values(n_spins))
    assert -1.0 <= m <= 1.0
    assert -1e-12 <= d <= 1.0
    e_cw = -(w @ (n_spins - 2.0 * np.arange(n_spins + 1)) ** 2) / n_spins
    assert e_cw == pytest.approx(-n_spins * (m * m + d), abs=1e-10)


@given(st.integers(min_value=2, max_value=16), st.integers(min_value=0, max_value=10**6))
@settings(max_examples=40)
def test_wfe_f_nonnegative_for_omega_above_one(n_spins, seed):
    m, d = spin_moments(random_weights(n_spins + 1, seed), g_values(n_spins))
    for omega in (1.0, 1.2, 3.0):
        assert wfe_exponent(m, d, n_spins, 3.0, omega) >= -1e-9


def test_entropy_weight_bounds():
    n = 10
    w = random_weights(n + 1, 4)
    assert 0.0 <= w @ log_binomials(n) <= math.log(math.comb(n, n // 2)) + 1e-12
    # a state concentrated on an edge class has zero entropy weight
    for edge in (0, n):
        assert log_binomials(n)[edge] == 0.0


def test_chain_tables_small_n_by_hand():
    m, interaction, flips = chain_tables(2)
    # configs 00, 01, 10, 11 with bit 0 = spin +1/2
    assert np.allclose(m, [1.0, 0.0, 0.0, -1.0])
    assert np.allclose(interaction, [0.25, -0.25, -0.25, 0.25])
    assert np.allclose(flips, [0.0, 1.0, 1.0, 0.0])


@given(st.integers(min_value=2, max_value=12))
@settings(max_examples=11)
def test_chain_tables_identities(n_spins):
    m, interaction, flips = chain_tables(n_spins)
    assert m.shape == (2**n_spins,)
    # flip count ties to the interaction sum: e_pos = (N-1)/2 - 2 I
    assert np.allclose(flips, (n_spins - 1) / 2.0 - 2.0 * interaction)
    # global spin flip reverses the index order and negates M
    assert np.allclose(m, -m[::-1])
    assert np.allclose(flips, flips[::-1])
    assert float(m.sum()) == 0.0
    assert float(interaction.max()) == pytest.approx((n_spins - 1) / 4.0)


@pytest.mark.parametrize("n_spins", range(2, 17))
def test_chain_classes_are_the_enumerated_classes(n_spins):
    m, flips, count = chain_classes(n_spins)
    m_conf, _interaction, flips_conf = chain_tables(n_spins)
    keys, counts = np.unique(np.stack([m_conf, flips_conf], axis=1), axis=0, return_counts=True)
    assert sorted(zip(m, flips, count)) == sorted(
        (mm, ff, float(cc)) for (mm, ff), cc in zip(keys, counts))
    assert float(count.sum()) == 2.0**n_spins


def test_chain_class_counts_by_hand():
    assert chain_classes(8)[0].size == 33
    assert chain_classes(20)[0].size == 201
    m, flips, count = chain_classes(20)
    assert float(count.sum()) == 2.0**20
    # the two uniform chains, and the 2 (N - 1) chains with one flip
    assert count[flips == 0].tolist() == [1.0, 1.0]
    assert float(count[flips == 1].sum()) == 2.0 * 19
    with pytest.raises(InvalidParams):
        chain_classes(1)


def test_chain_tables_guards():
    with pytest.raises(InvalidParams):
        chain_tables(1)
    with pytest.raises(InvalidParams):
        chain_tables(FULL_N_MAX + 1)


@given(st.integers(min_value=2, max_value=10), st.integers(min_value=0, max_value=10**6))
@settings(max_examples=40)
def test_energy_conventions_are_affinely_tied(n_spins, seed):
    # E = -w . I and E+ = w . flips obey E+ = 2 E + (N-1)/2
    w = random_weights(2**n_spins, seed)
    _m, interaction, flips = chain_tables(n_spins)
    e_neg, e_pos = -(w @ interaction), w @ flips
    assert e_pos == pytest.approx(2.0 * e_neg + (n_spins - 1) / 2.0, abs=1e-10)
    assert e_pos >= -1e-12


# ---------------------------------------------------------------------------
# classical 1-D transfer matrix
# ---------------------------------------------------------------------------


def brute_force(n_spins: int, beta: float, lam: float = 0.0) -> tuple[float, float, float]:
    """(log Z, mean M, var M) by summing over all 2^N configurations."""
    m, interaction, _ = chain_tables(n_spins)
    terms = 2.0 * beta * interaction + lam * m
    mx = float(terms.max())
    p = np.exp(terms - mx)
    z = float(p.sum())
    p /= z
    mean = float(p @ m)
    return mx + math.log(z) - n_spins * math.log(2.0), mean, float(p @ (m - mean) ** 2)


@pytest.mark.parametrize("beta", [0.0, 0.7, 3.0])
@pytest.mark.parametrize("n_spins", [2, 3, 6])
def test_transfer_matrix_matches_enumeration(n_spins, beta):
    lz, _, _ = classical_ising_1d(n_spins, beta)
    assert lz == pytest.approx(brute_force(n_spins, beta)[0], abs=1e-10)


def test_transfer_matrix_with_field_matches_enumeration():
    lz, mean_m, var_m = classical_ising_1d(5, 1.1, lam=0.8)
    assert lz == pytest.approx(brute_force(5, 1.1, 0.8)[0], abs=1e-10)
    assert mean_m > 0.0
    assert var_m > 0.0


@pytest.mark.parametrize("lam", [0.0, 0.8, -0.4])
@pytest.mark.parametrize("beta", [0.0, 0.7, 3.0])
@pytest.mark.parametrize("n_spins", [2, 3, 6, 12, 16])
def test_transfer_matrix_moments_match_enumeration(n_spins, beta, lam):
    lz, mean_m, var_m = classical_ising_1d(n_spins, beta, lam)
    lz_ref, mean_ref, var_ref = brute_force(n_spins, beta, lam)
    # at lam = 0 mean M is 0, and so is log Z at beta = 0: there the
    # error is absolute, against the enumeration's own rounding of sum p M
    assert lz == pytest.approx(lz_ref, rel=1e-12, abs=1e-14)
    assert mean_m == pytest.approx(mean_ref, rel=1e-12, abs=1e-12)
    assert var_m == pytest.approx(var_ref, rel=1e-12)


@pytest.mark.parametrize("beta", [0.0, 1.0, 3.0])
@pytest.mark.parametrize("n_spins", [100, 10_000])
def test_zero_field_variance_matches_closed_form(n_spins, beta):
    _, _, var_m = classical_ising_1d(n_spins, beta)
    assert var_m == pytest.approx(chain_var_closed_form(n_spins, beta), rel=1e-12)


@pytest.mark.parametrize("beta, lam, log_z, mean_m, var_m", [
    # mpmath at 40 digits: the same w^T T^{N-1} w by square-and-multiply,
    # with mean and var of M from mpmath.diff of log Z in lam
    (3.0, -0.4, 10116.72710920829750856551, -4853.348906989772291084142,
     710.4346646489636717074243),
    (3.0, 0.8, 12087.23365438984580002768, 4963.543067266108315715877,
     94.88907484999784908198923),
])
def test_transfer_matrix_in_a_field_at_large_n_matches_mpmath(beta, lam, log_z, mean_m, var_m):
    # var M is of order N while mean M^2 is of order N^2: the centred jet
    # keeps var M from being their difference
    got = classical_ising_1d(10_000, beta, lam)
    for value, want in zip(got, (log_z, mean_m, var_m)):
        assert value == pytest.approx(want, rel=1e-13, abs=0.0)


def test_magnetization_moments():
    # zero field: mean M vanishes by symmetry, var(M) at beta = 0 is N/4
    _, mean_m, var_m = classical_ising_1d(100, 0.0)
    assert abs(mean_m) < 1e-6
    assert var_m == pytest.approx(25.0, rel=1e-12)


def test_no_transition_in_one_dimension():
    # var(M)/N^2 must fall with N at fixed beta (short-range correlations)
    beta = 1.0
    ratios = []
    for n in (100, 1000, 10_000):
        _, _, var_m = classical_ising_1d(n, beta)
        ratios.append(var_m / n**2)
    assert ratios[0] > 8.0 * ratios[1] > 8.0 * 8.0 * ratios[2]


def test_chain_guards():
    with pytest.raises(InvalidParams):
        classical_ising_1d(1, 1.0)
    with pytest.raises(InvalidParams):
        classical_ising_1d(4, -0.5)
