"""Spin observables of the mean-field models and the classical 1-D baseline.

Every model exponent and observable depends on a state only through its
weights w = |phi|^2, so each is one function of a weight vector, or of a
batch of them, one per row.  Over the occupation classes n = 0..N of the
mean-field models (spins +-1, class magnetization g_n = 1 - 2n/N):
(m, D) = (w . g, w . g^2 - m^2), the Curie-Weiss energy E_CW =
-N (m^2 + D), the wavefunction-energy exponent f = N beta (1 - m^2 +
(omega - 1) D), and the entropy weight w . log C(N, n).  Over all 2^N
configurations of the open spin-1/2 chain (spins +-1/2): the total
magnetization M, the interaction sum I = sum S_{i-1} S_i (energy -I),
and the flip count sum (S_{i-1} - S_i)^2 = (N-1)/2 - 2 I, the positive
version of the same energy.

``classical_ising_1d`` evaluates the chain's generating function
Z(lambda) = 2^{-N} sum_S exp{2 beta sum S_{i-1} S_i + lambda sum S_i}
= 2^{-N} w^T T^{N-1} w, with transfer matrix T(s, s') = exp{2 beta s s'
+ lambda (s + s')/2} and endpoint vector w(s) = exp{lambda s / 2}.
Each factor is a jet in lambda, (value, first derivative, second
derivative / 2), multiplied by the product rule through a
square-and-multiply power of T.  Every product is divided by its largest
value entry, whose log goes to log Z, so chains of length 10^4 neither
overflow nor underflow, and the jet of Z gives mean and var of M
exactly, with no step in lambda.  The variance comes from a second pass
whose jet is that of M less the first pass's mean, so in a field it is not
a difference of two numbers of order N^2.

``chain_classes`` groups the 2^N configurations by (up count, flip
count): M and I are constant on each class, so a flat-Dirichlet law over
the configurations aggregates to one over the classes, weighted by their
counts.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InvalidParams

FULL_N_MAX = 20


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


def _compositions(n: int, parts: int) -> int:
    """Ways to write n as an ordered sum of `parts` positive integers."""
    if parts == 0:
        return int(n == 0)
    return math.comb(n - 1, parts - 1) if n >= parts else 0


def chain_classes(n_spins: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(M, flips, count) over the (up count, flip count) classes of the chain.

    M and the flip count, and so I, are constant on a class, and count is
    its number of configurations (counts sum to 2^N).  A chain with u up
    spins and k flips is r = k + 1 alternating runs; starting with an up
    run it has ceil(r/2) up and floor(r/2) down runs, and the count is the
    number of compositions of u and N - u into those many positive parts,
    summed over the two starting spins.  Classes of count 0 are dropped:
    N = 8 has 33 classes, N = 20 has 201.  Counts are floats, exact
    integers up to 2^53.
    """
    if n_spins < 2:
        raise InvalidParams(f"chain needs N >= 2, got {n_spins}")
    rows = []
    for up in range(n_spins + 1):
        for flips in range(n_spins):
            runs = flips + 1
            odd, even = (runs + 1) // 2, runs // 2
            count = (_compositions(up, odd) * _compositions(n_spins - up, even)
                     + _compositions(up, even) * _compositions(n_spins - up, odd))
            if count:
                rows.append((up - n_spins / 2.0, flips, float(count)))
    m, flips, count = (np.array(col, dtype=float) for col in zip(*rows))
    return m, flips, count


# ---------------------------------------------------------------------------
# classical 1-D transfer-matrix baseline
# ---------------------------------------------------------------------------


def _exp_jet(log_value, rate):
    """Jet (log scale, value, d/dlambda, d^2/dlambda^2 / 2) of exp(log_value + lambda rate)."""
    top = float(log_value.max())
    value = np.exp(log_value - top)
    return top, value, rate * value, 0.5 * rate * rate * value


def _jet_mul(a, b):
    """Product of two jets, divided by its largest value entry."""
    value = a[1] @ b[1]
    top = float(np.max(value))
    return (a[0] + b[0] + math.log(top), value / top, (a[1] @ b[2] + a[2] @ b[1]) / top,
            (a[1] @ b[3] + a[2] @ b[2] + a[3] @ b[1]) / top)


def _chain_jet(n_spins: int, beta: float, lam: float, mu: float) -> tuple[float, float, float]:
    """(log Z, c1, c2): the jet of Z(lam + h) exp(-h mu N) in h, scaled so its value is 1.

    The shift -mu N is spread over the factors: -mu on each of the N - 1
    transfer steps and -mu/2 on each end, so c1 is the mean of M - mu N and
    2 c2 its second moment.
    """
    s = np.array([0.5, -0.5])
    pair = 0.5 * np.add.outer(s, s)
    power = _exp_jet(2.0 * beta * np.outer(s, s) + lam * pair, pair - mu)
    row = end = _exp_jet(0.5 * lam * s, 0.5 * (s - mu))
    steps = n_spins - 1
    while steps:
        if steps & 1:
            row = _jet_mul(row, power)
        power = _jet_mul(power, power)
        steps >>= 1
    log_scale, _one, first, half_second = _jet_mul(row, end)
    return log_scale - n_spins * math.log(2.0), float(first), float(half_second)


def classical_ising_1d(n_spins: int, beta: float, lam: float = 0.0) -> tuple[float, float, float]:
    """(log Z, mean M, var M) for the open spin-1/2 chain, all exact.

    Z's jet is w^T T^{N-1} w, scaled so Z's value part is 1: then
    mean M = Z'/Z is its first coefficient c1 and var M = Z''/Z - (Z'/Z)^2
    is 2 c2 - c1^2.  In a field c1^2 is of order N^2 and the variance of
    order N, so that difference cancels (4e-12 relative at N = 10^4,
    beta = 3, lam = -0.4).  A second pass takes the jet of M - mu N, with
    mu = c1 / N from the first: its c1 is near 0 and 2 c2 is the variance.
    """
    if n_spins < 2:
        raise InvalidParams(f"chain needs N >= 2, got {n_spins}")
    if beta < 0.0:
        raise InvalidParams(f"beta must be >= 0, got {beta}")
    log_z, mean_m, _ = _chain_jet(n_spins, beta, lam, 0.0)
    mu = mean_m / n_spins
    _, shift, half_second = _chain_jet(n_spins, beta, lam, mu)
    return log_z, mu * n_spins + shift, 2.0 * half_second - shift * shift
