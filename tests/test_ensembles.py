"""State containers, spin observables, and the transfer-matrix baseline.

The observable identities are algebraic (energy ties to magnetization and
dispersion, flip counts tie to the interaction sum), so they are tested
as exact relations on random states.  The transfer-matrix log Z is
checked against direct enumeration over all configurations at small N,
which is the only other route to the same number.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from squimld import (
    FullWavefunction,
    InvalidParams,
    SymmetricWavefunction,
    classical_ising_1d,
    energy_cw,
    energy_squim_d1,
)
from squimld.ensembles import (
    FULL_N_MAX,
    chain_tables,
    dispersion_sym,
    entropy_weight,
    g_values,
    log_binomials,
    magnetization_sym,
    wfe_f,
)


def random_sym_state(n_spins: int, seed: int) -> SymmetricWavefunction:
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(n_spins + 1) + 1j * rng.standard_normal(n_spins + 1)
    return SymmetricWavefunction(v / np.linalg.norm(v), n_spins)


def random_full_state(n_spins: int, seed: int) -> FullWavefunction:
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(2**n_spins) + 1j * rng.standard_normal(2**n_spins)
    return FullWavefunction(v / np.linalg.norm(v), n_spins)


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


def test_state_validation():
    with pytest.raises(InvalidParams):
        SymmetricWavefunction(np.ones(4) / 2.0, 2)  # wrong length
    with pytest.raises(InvalidParams):
        SymmetricWavefunction(np.ones(3), 2)  # norm 3, not 1
    with pytest.raises(InvalidParams):
        FullWavefunction(np.ones(4) / 2.0, 3)  # wrong length
    with pytest.raises(InvalidParams):
        FullWavefunction(np.ones(2**25), 25)  # over the enumeration cap
    phi = random_sym_state(6, 0)
    assert phi.weights.sum() == pytest.approx(1.0, abs=1e-12)


@given(st.integers(min_value=2, max_value=16), st.integers(min_value=0, max_value=10**6))
@settings(max_examples=60)
def test_energy_identity_curie_weiss(n_spins, seed):
    # E_CW = -N (m^2 + D) as an exact identity on any state
    phi = random_sym_state(n_spins, seed)
    m = magnetization_sym(phi)
    d = dispersion_sym(phi)
    assert -1.0 <= m <= 1.0
    assert -1e-12 <= d <= 1.0
    assert energy_cw(phi) == pytest.approx(-n_spins * (m * m + d), abs=1e-10)


@given(st.integers(min_value=2, max_value=16), st.integers(min_value=0, max_value=10**6))
@settings(max_examples=40)
def test_wfe_f_nonnegative_for_omega_above_one(n_spins, seed):
    phi = random_sym_state(n_spins, seed)
    val = wfe_f(phi, beta=3.0, omega=1.2)
    assert val >= -1e-9
    with pytest.raises(InvalidParams):
        wfe_f(phi, beta=1.0, omega=-0.5)


def test_entropy_weight_bounds():
    n = 10
    phi = random_sym_state(n, 4)
    w = entropy_weight(phi)
    assert 0.0 <= w <= math.log(math.comb(n, n // 2)) + 1e-12
    # a state concentrated on the edge class has zero entropy weight
    edge = np.zeros(n + 1, dtype=complex)
    edge[0] = 1.0
    assert entropy_weight(SymmetricWavefunction(edge, n)) == 0.0


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


def test_chain_tables_guards():
    with pytest.raises(InvalidParams):
        chain_tables(1)
    with pytest.raises(InvalidParams):
        chain_tables(FULL_N_MAX + 1)


@given(st.integers(min_value=2, max_value=10), st.integers(min_value=0, max_value=10**6))
@settings(max_examples=40)
def test_energy_conventions_are_affinely_tied(n_spins, seed):
    psi = random_full_state(n_spins, seed)
    e_neg, e_pos = energy_squim_d1(psi)
    assert e_pos == pytest.approx(2.0 * e_neg + (n_spins - 1) / 2.0, abs=1e-10)
    assert e_pos >= -1e-12


# ---------------------------------------------------------------------------
# classical 1-D transfer matrix
# ---------------------------------------------------------------------------


def brute_force_log_z(n_spins: int, beta: float, lam: float = 0.0) -> float:
    m, interaction, _ = chain_tables(n_spins)
    terms = 2.0 * beta * interaction + lam * m
    mx = float(terms.max())
    return mx + math.log(float(np.sum(np.exp(terms - mx)))) - n_spins * math.log(2.0)


@pytest.mark.parametrize("beta", [0.0, 0.7, 3.0])
@pytest.mark.parametrize("n_spins", [2, 3, 6])
def test_transfer_matrix_matches_enumeration(n_spins, beta):
    lz, _, _ = classical_ising_1d(n_spins, beta)
    assert lz == pytest.approx(brute_force_log_z(n_spins, beta), abs=1e-10)


def test_transfer_matrix_with_field_matches_enumeration():
    lz, mean_m, var_m = classical_ising_1d(5, 1.1, lam=0.8)
    assert lz == pytest.approx(brute_force_log_z(5, 1.1, 0.8), abs=1e-10)
    assert mean_m > 0.0
    assert var_m > 0.0


def test_magnetization_moments():
    # zero field: mean M vanishes by symmetry, var(M) at beta = 0 is N/4
    _, mean_m, var_m = classical_ising_1d(100, 0.0)
    assert abs(mean_m) < 1e-6
    assert var_m == pytest.approx(25.0, rel=1e-4)


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
