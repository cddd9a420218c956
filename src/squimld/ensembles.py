"""Wavefunction states, spin observables, and the classical 1-D baseline.

Two state representations coexist, each in the sign convention of the
model it serves:

* ``SymmetricWavefunction``: amplitudes phi_n over the occupation classes
  n = 0..N of the mean-field models, which use spin values +-1.  The
  class magnetization per site is g_n = 1 - 2n/N, so m in [-1, 1].
* ``FullWavefunction``: amplitudes over all 2^N spin-1/2 configurations
  (spins +-1/2) for the nearest-neighbor chain, so m in [-1/2, 1/2].

The mean-field energy identity E_CW = -N*(m^2 + D) ties the Curie-Weiss
energy to the magnetization m and the center-of-spin dispersion D; the
wavefunction-energy variant adds (omega - 1)*D inside
f = N*beta*(1 - m^2 + (omega-1)*D), and the entropy-weighted variant
subtracts the log binomial weight sum |phi_n|^2 log C(N, n).

For the chain, both energy sign conventions are kept: the interaction
sum I = sum S_{i-1} S_i (energy -I), and the positive version
sum (S_{i-1} - S_i)^2 = (N-1)/2 - 2 I, which simply counts the adjacent
spin flips of a configuration.

``classical_ising_1d`` evaluates the chain's generating function
Z(lambda) = 2^{-N} sum_S exp{2 beta sum S_{i-1} S_i + lambda sum S_i}
by diagonalizing the symmetric 2x2 transfer matrix
T(s, s') = exp{2 beta s s' + lambda (s + s')/2} with endpoint vector
w(s) = exp{lambda s / 2}: log Z = -N log 2 + log sum_j (V^T w)_j^2
xi_j^{N-1}, a sum of nonnegative terms evaluated in log space so chains
of length 10^4 neither overflow nor lose the lambda dependence.  Moments
of M come from centered finite differences of log Z in lambda.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParams

NORM_TOL = 1e-12
FULL_N_MAX = 20
LAMBDA_STEP = 1e-5


def g_values(n_spins: int) -> np.ndarray:
    """Per-site class magnetization g_n = 1 - 2n/N for n = 0..N."""
    return 1.0 - 2.0 * np.arange(n_spins + 1) / n_spins


def log_binomials(n_spins: int) -> np.ndarray:
    """log C(N, n) for n = 0..N.

    A running sum of log((N - k + 1)/k) over the lower half, mirrored onto
    the upper half: every term is positive, so no cancellation.  The
    log-gamma difference log N! - log n! - log (N - n)! loses the leading
    digits of log N! at small n (1.2e-13 relative at N = 1024, n = 1).
    """
    k = np.arange(1, n_spins // 2 + 1)
    half = np.concatenate(([0.0], np.cumsum(np.log((n_spins - k + 1) / k))))
    return np.concatenate((half, half[: n_spins + 1 - half.size][::-1]))


@dataclass(frozen=True)
class _UnitState:
    """Unit-norm complex amplitudes, one per cell; weights are |amplitude|^2."""

    amplitudes: np.ndarray  # complex, one per cell
    N: int

    def __post_init__(self):
        cells = self._cells()
        amps = np.asarray(self.amplitudes, dtype=complex)
        object.__setattr__(self, "amplitudes", amps)
        if amps.shape != (cells,):
            raise InvalidParams(f"need {cells} amplitudes for N={self.N}, got {amps.shape}")
        norm = float(np.sum(np.abs(amps) ** 2))
        if abs(norm - 1.0) > NORM_TOL:
            raise InvalidParams(f"state norm^2 = {norm} is not 1 +- {NORM_TOL}")

    @property
    def weights(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2


@dataclass(frozen=True)
class SymmetricWavefunction(_UnitState):
    """State over occupation classes n = 0..N, unit norm."""

    def _cells(self) -> int:
        return self.N + 1


@dataclass(frozen=True)
class FullWavefunction(_UnitState):
    """State over all 2^N spin-1/2 configurations, unit norm.

    Configuration index bits read spin i from bit i: bit 0 is spin +1/2,
    bit 1 is spin -1/2.
    """

    def _cells(self) -> int:
        if self.N > FULL_N_MAX:
            raise InvalidParams(f"full states capped at N={FULL_N_MAX}, got {self.N}")
        return 2**self.N


def spin_moments(w, g):
    """(m, D) = (w . g, w . g^2 - m^2) of one state w, or of each row of w."""
    m = w @ g
    return m, w @ (g * g) - m * m


def wfe_exponent(m, d, n_spins: int, beta: float, omega: float):
    """f = N beta (1 - m^2 + (omega - 1) D), elementwise in m and D."""
    return n_spins * beta * (1.0 - m * m + (omega - 1.0) * d)


# Observable tag -> value per state from (m, D, eps).  All are even under the
# spin flip; the signed magnetization, which symmetrizes to 0, is not one.
OBSERVABLE_FORMULAS = {
    "msq": lambda m, d, eps: m * m,
    "m_abs": lambda m, d, eps: np.abs(m),
    "magnetized_fraction": lambda m, d, eps: (np.abs(m) >= eps).astype(float),
    "dispersion": lambda m, d, eps: d,
}
OBSERVABLES = tuple(OBSERVABLE_FORMULAS)


def magnetization_sym(phi: SymmetricWavefunction) -> float:
    """m = sum |phi_n|^2 g_n, in [-1, 1]."""
    return float(spin_moments(phi.weights, g_values(phi.N))[0])


def dispersion_sym(phi: SymmetricWavefunction) -> float:
    """D = sum |phi_n|^2 g_n^2 - m^2, in [0, 1]."""
    return float(spin_moments(phi.weights, g_values(phi.N))[1])


def energy_cw(phi: SymmetricWavefunction) -> float:
    """E_CW = -(1/N) sum |phi_n|^2 (N - 2n)^2; equals -N (m^2 + D)."""
    n = np.arange(phi.N + 1)
    return float(-(phi.weights @ (phi.N - 2.0 * n) ** 2) / phi.N)


def wfe_f(phi: SymmetricWavefunction, beta: float, omega: float) -> float:
    """f = N beta (1 - m^2 + (omega - 1) D), nonnegative for omega >= 1."""
    if omega < 0.0:
        raise InvalidParams(f"omega must be >= 0, got {omega}")
    return float(wfe_exponent(*spin_moments(phi.weights, g_values(phi.N)), phi.N, beta, omega))


def entropy_weight(phi: SymmetricWavefunction) -> float:
    """sum |phi_n|^2 log C(N, n), in [0, log C(N, floor(N/2))]."""
    return float(phi.weights @ log_binomials(phi.N))


# ---------------------------------------------------------------------------
# spin-1/2 chain enumeration
# ---------------------------------------------------------------------------


def chain_tables(n_spins: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(M, I, e_pos) over all 2^N configurations of the open chain.

    M = sum S_i (spins +-1/2), I = sum_{i=2}^N S_{i-1} S_i, and
    e_pos = sum (S_{i-1} - S_i)^2 = number of adjacent flips, related by
    e_pos = (N-1)/2 - 2 I.
    """
    if n_spins > FULL_N_MAX:
        raise InvalidParams(f"enumeration capped at N={FULL_N_MAX}, got {n_spins}")
    if n_spins < 2:
        raise InvalidParams(f"chain needs N >= 2, got {n_spins}")
    conf = np.arange(2**n_spins, dtype=np.uint32)
    ones = np.bitwise_count(conf).astype(np.int64)
    m = (n_spins - 2 * ones) / 2.0
    flip_bits = (conf ^ (conf >> 1)) & np.uint32((1 << (n_spins - 1)) - 1)
    flips = np.bitwise_count(flip_bits).astype(np.int64)
    interaction = ((n_spins - 1) - 2 * flips) / 4.0
    return m, interaction, flips.astype(float)


def energy_squim_d1(psi: FullWavefunction) -> tuple[float, float]:
    """(negative-convention energy, positive version) of the chain state.

    Negative convention: E = -sum |psi_S|^2 I(S).  Positive version:
    E+ = sum |psi_S|^2 sum_i (S_{i-1} - S_i)^2 = 2 E + (N-1)/2.
    """
    _m, interaction, flips = chain_tables(psi.N)
    w = psi.weights
    e_neg = float(-(w @ interaction))
    e_pos = float(w @ flips)
    return e_neg, e_pos


# ---------------------------------------------------------------------------
# classical 1-D transfer-matrix baseline
# ---------------------------------------------------------------------------


def _log_z_chain(n_spins: int, beta: float, lam: float) -> float:
    """log of Z = 2^{-N} sum_S exp{2 beta sum S S' + lambda sum S}."""
    s = np.array([0.5, -0.5])
    t = np.exp(2.0 * beta * np.outer(s, s) + 0.5 * lam * np.add.outer(s, s))
    w = np.exp(0.5 * lam * s)
    evals, vecs = np.linalg.eigh(t)
    coef = vecs.T @ w
    with np.errstate(divide="ignore"):
        log_terms = 2.0 * np.log(np.abs(coef)) + (n_spins - 1) * np.log(
            np.maximum(evals, 0.0)
        )
    hi, lo = float(max(log_terms)), float(min(log_terms))
    return hi + math.log1p(math.exp(lo - hi)) - n_spins * math.log(2.0)


def classical_ising_1d(
    n_spins: int, beta: float, lam: float = 0.0
) -> tuple[float, float, float]:
    """(log Z, mean M, var M) for the open spin-1/2 chain.

    Mean and variance of the total magnetization M = sum S_i come from
    centered finite differences of log Z in lambda with step 1e-5.
    """
    if n_spins < 2:
        raise InvalidParams(f"chain needs N >= 2, got {n_spins}")
    if beta < 0.0:
        raise InvalidParams(f"beta must be >= 0, got {beta}")
    h = LAMBDA_STEP
    lz = _log_z_chain(n_spins, beta, lam)
    lzp = _log_z_chain(n_spins, beta, lam + h)
    lzm = _log_z_chain(n_spins, beta, lam - h)
    mean_m = (lzp - lzm) / (2.0 * h)
    var_m = (lzp - 2.0 * lz + lzm) / (h * h)
    return lz, mean_m, var_m
