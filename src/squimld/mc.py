"""Thermal-average Monte Carlo over uniform spherical ensembles, with oracles.

A thermal average at inverse temperature beta is a ratio of two integrals
over the unit sphere of wavefunction amplitudes,

    [F]_beta = E[F(phi) exp(-f(phi))] / E[exp(-f(phi))],

where the expectation is over the uniform sphere measure and f is the
model's weight exponent.  Every observable and exponent here depends on
the wavefunction only through its state weights w_n = |phi_n|^2, and the
uniform sphere measure (complex amplitudes, so two real coordinates per
state) induces exactly the flat Dirichlet law on w.  The integrals are
therefore estimated on the simplex directly.

Models whose exponent is linear in w (plain and entropy-weighted
symmetric-state models, and the full chain) write their weight as
exp(phi . w) and get a rate-tilted Dirichlet importance proposal:
w = e / sum(e) with independent e_n ~ Exp(1 + c_n), where
c = max(phi) - phi >= 0 is the decay form of the exponent.  The proposal
density on the simplex is proportional to prod(lam_n) / (lam . w)^K with
lam_n = 1 + c_n and K cells, and since lam . w = 1 + c . w the log
importance weight collapses to a scalar function of v = c . w:

    log w = -v + K log(1 + v) + const,

which peaks at v = K - 1, exactly the shell where the tilted proposal
concentrates.  That covers the cold end, not the crossover: at 10^5
samples (seed 0, beta in {0.1, 1, 10, 40}) the weight ESS clears ESS_MIN
for SCWM at N <= 32, and up to N = 128 only at beta >= 10; for
SCWM_ENTROPY at N <= 16, and up to N = 64 only at beta >= 10; for SQUIM_d1
at N <= 6, N = 8 up to beta = 0.2 and N = 10 at beta = 0.1.  beta = 0 gives
c = 0, exactly uniform sampling.

SQUIM_d1's law is the same flat Dirichlet over all K = 2^N chain
configurations, N <= 20, but phi and g are constant on each (up count, flip
count) class (ensembles.chain_classes: 33 classes at N = 8, 201 at N = 20),
and so are lam and c.  The sum of a class's n i.i.d. Exp(lam) cells is
Gamma(n)/lam (Devroye 1986, IX), and m, D and v read only the class sums,
so the sampler draws one Gamma variate per class (numpy's standard_gamma,
Marsaglia & Tsang 2000) in place of one exponential per configuration: the
same estimator in law, with K kept in log(1 + v).  The other models draw at
shape 1.0, for which standard_gamma returns standard_exponential's draws.

The wavefunction-energy model's exponent is quadratic in w (it rewards
m^2), and its mass sits in two antipodal magnetized caps rather than in
one linear-exponent shell, so no single rate-tilted Dirichlet above covers
it.  Its proposal is an equal mixture of two members, one tilted toward
each cap by the tangent linearization m^2 >= 2|m| - 1, with exponents
phi_+- = beta N (+-2 omega g_n - (omega - 1) g_n^2) / (N + 1).  The cap at
m < 0 is the one at m > 0 reversed (the spin flip n -> N - n), so the two
members' prod(lam) are one product and drop out of the weight as a
constant; the mixture density is otherwise evaluated exactly, and beta = 0
gives c = 0, the flat law.  At omega = 1.2 and 10^5 samples (seed 0,
beta in {0.1, 1, 10, 40}) its ESS clears ESS_MIN for N <= 8 up to
beta = 40, but for N = 16 to 64 only at beta <= 1.

Estimator plumbing shared by all models:

  * one sampling pass per call: the proposal is tabulated once and every
    requested observable is read off the same draws and weight sums;
  * ratio of weighted sums with a delta-method standard error,
        SE^2 = (sum w^2 (F - R)^2) / (sum w)^2;
  * the budget is split over the fixed SHARDS shards; per-shard partial
    sums carry their own max-shift and are merged in shard order by
    parallel.fold_shifted, the one max-shift merge (also used chunk by
    chunk inside a shard), so results are bit-identical for any worker
    count and invariant under adding a constant to f;
  * an effective-sample-size guard on the weight sums: below ESS_MIN the
    estimate is refused rather than reported, because collapsed weights
    produce silently garbage means;
  * spin-flip symmetry (n -> N-n, or global flip of the chain) holds for
    every model exponent, and every public observable is even under it, so
    the symmetrized estimator is applied analytically: magnetization
    enters only through |m| and m^2, and the signed magnetization averages
    to exactly zero.

Closed-form oracles: the infinite-temperature second moment of the
magnetization from exact uniform-sphere moments, and a product-form model
whose partition function and dispersion term are evaluated by direct
enumeration of all 2^N spin configurations.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .ensembles import (FULL_N_MAX, OBSERVABLE_FORMULAS, OBSERVABLES, chain_classes,
                        chain_tables, g_values, log_binomials, spin_moments, wfe_exponent)
from .errors import DegenerateWeights, InvalidParams
from .parallel import fold_shifted, map_shards, shard_rng, split_counts

MODELS = ("SQUIM_d1", "SCWM", "SCWM_WFE", "SCWM_ENTROPY")

# Shards of every thermal-average job, fixed because every estimate depends on it
SHARDS = 64
ESS_MIN = 100.0
# Batch rows are sized so one chunk stays around 32 MB of draws even for
# the widest state spaces.
CHUNK_SCALARS = 1 << 22


@dataclass(frozen=True)
class EnsembleConfig:
    """A thermal-average job: model, size, temperature, and sampling budget."""

    N: int
    beta: float
    model: str
    samples: int
    omega: float | None = None
    eps: float = 0.0
    seed: int = 0
    workers: int | None = None  # None: every available core (parallel.resolve_workers)

    def __post_init__(self) -> None:
        if self.model not in MODELS:
            raise InvalidParams(f"unknown model {self.model!r}, want one of {MODELS}")
        if self.N < 2:
            raise InvalidParams(f"need N >= 2, got {self.N}")
        if self.model == "SQUIM_d1" and self.N > FULL_N_MAX:
            raise InvalidParams(f"SQUIM_d1 is capped at N = {FULL_N_MAX}, got N = {self.N}")
        if self.model != "SQUIM_d1" and self.N + 1 > CHUNK_SCALARS:
            # one draw's N + 1 cells must fit in a chunk
            raise InvalidParams(f"{self.model} needs N + 1 <= CHUNK_SCALARS = {CHUNK_SCALARS}, "
                                f"got N = {self.N}")
        if not 0.0 <= self.beta < math.inf:
            raise InvalidParams(f"need finite beta >= 0, got beta = {self.beta}")
        if self.samples < 1:
            raise InvalidParams(f"need samples >= 1, got {self.samples}")
        if self.model == "SCWM_WFE":
            if self.omega is None:
                raise InvalidParams("SCWM_WFE requires omega")
            if not 0.0 <= self.omega < math.inf:
                raise InvalidParams(f"need finite omega >= 0, got omega = {self.omega}")
        elif self.omega is not None:
            raise InvalidParams(f"omega is only meaningful for SCWM_WFE, got model {self.model!r}")
        if not 0.0 <= self.eps <= 1.0:
            raise InvalidParams(f"magnetized-fraction threshold must be in [0, 1], got {self.eps}")
        if self.seed < 0:
            raise InvalidParams(f"need seed >= 0, got {self.seed}")
        if self.workers is not None and self.workers < 1:
            raise InvalidParams(f"need workers >= 1, got {self.workers}")


@dataclass(frozen=True)
class McEstimate:
    """A ratio estimate with its delta-method error bar and both ESS."""

    mean: float
    std_error: float
    n_samples: int
    numerator_ess: float
    weight_ess: float = math.nan  # (sum w)^2 / sum w^2, shared by one pass

    def __post_init__(self) -> None:
        if not self.std_error >= 0.0:
            raise InvalidParams(f"need std_error >= 0, got {self.std_error}")
        if self.n_samples <= 0:
            raise InvalidParams(f"need n_samples > 0, got {self.n_samples}")


@dataclass(frozen=True)
class EsmResult:
    """Enumerated product-form model: log partition and dispersion term."""

    logZhat: float
    msq_dispersion: float
    N: int
    beta: float

    def __post_init__(self) -> None:
        if not self.msq_dispersion >= 0.0:
            raise InvalidParams(
                f"need msq_dispersion >= 0, got {self.msq_dispersion}"
            )


def _proposal(cfg: EnsembleConfig) -> dict:
    """The model's proposal members and cell magnetization g, built once.

    A member is the rate-tilted Dirichlet of a linear exponent phi . w,
    stored as its decay form c_decay = max(phi) - phi; _draw's rates are
    1 + c_decay, per column of shape 1.0 or the chain's class counts.  SCWM_WFE has two, its
    caps, the second the first reversed, and "exponent" (N, beta, omega) of
    its f; the other models have one and exponent None.  Raises
    InvalidParams, before any sampling, if a member's c_decay or the bound
    N beta (1 + |omega - 1|) on SCWM_WFE's |f| overflows float64.
    """
    n_spins, beta, omega = cfg.N, cfg.beta, cfg.omega
    wfe = cfg.model == "SCWM_WFE"
    # one Exp(1) draw per cell (shape 1.0), except on the chain's classes
    shape, cells = 1.0, n_spins + 1
    with np.errstate(over="ignore", invalid="ignore"):
        if cfg.model == "SQUIM_d1":
            m_class, flips, shape = chain_classes(n_spins)
            g = 2.0 * m_class / n_spins
            cells = 2**n_spins
            # f = beta * <H> = -beta * <I>, with I = ((N - 1) - 2 flips) / 4
            phi = beta * ((n_spins - 1) - 2.0 * flips) / 4.0
        else:
            g = g_values(n_spins)
            if wfe:
                # the cap at m > 0, from m^2 >= 2|m| - 1
                phi = beta * n_spins * (2.0 * omega * g - (omega - 1.0) * (g * g)) / (n_spins + 1)
            else:
                phi = beta * n_spins * (g * g)
                if cfg.model == "SCWM_ENTROPY":
                    phi = phi + log_binomials(n_spins)
        c_decay = phi.max() - phi
    f_bound = n_spins * beta * (1.0 + abs(omega - 1.0)) if wfe else 0.0
    if not (np.isfinite(c_decay).all() and math.isfinite(f_bound)):
        raise InvalidParams(
            f"{cfg.model}'s weight exponent overflows float64 at beta={beta}, N={n_spins}"
            + (f", omega={omega}" if wfe else ""))
    # contiguous, as a pickled payload is: w @ c sums a reversed view in another order
    members = [c_decay, np.ascontiguousarray(c_decay[::-1])] if wfe else [c_decay]
    return {"g": g, "c_decay": members, "shape": shape,
            "cells": cells, "exponent": (n_spins, beta, omega) if wfe else None}


def _draw(rng: np.random.Generator, rows: int, prop: dict) -> tuple:
    """(m, D, log importance weight) of `rows` draws; one path for every model.

    With two members each row first picks one.  Member j draws at the
    rates lam_j = 1 + c_j; its density over the flat law is
    prod(lam_j) (1 + v_j)^(-K), v_j = c_j . w, and the prod(lam_j) of
    mirror members are one product, so log q_j keeps only -K log1p(v_j).
    The log weight is the target, -v for a linear exponent or -f, minus
    log q_1 or the logaddexp of the equal mixture.
    """
    g, c_decay = prop["g"], prop["c_decay"]
    rate = (np.where((rng.random(rows) < 0.5)[:, None], *(1.0 + c for c in c_decay))
            if len(c_decay) == 2 else 1.0 + c_decay[0])
    w = rng.standard_gamma(prop["shape"], (rows, g.size))
    w /= rate
    w /= w.sum(axis=1, keepdims=True)
    m, d = spin_moments(w, g)
    v = [w @ c for c in c_decay]
    lq = [-prop["cells"] * np.log1p(vj) for vj in v]
    exponent = prop["exponent"]
    target = -v[0] if exponent is None else -wfe_exponent(m, d, *exponent)
    return m, d, target - (lq[0] if len(lq) == 1 else np.logaddexp(*lq))


def _shard_partials(shard: int, payload: dict) -> tuple:
    """(max_logw, first, second) for one shard, self-shifted.

    first = [T0, T1...], second = [T2, T1sq..., Tcross...] with T0 = sum w,
    T2 = sum w^2 and, per observable F, T1 = sum w F, T1sq = sum w^2 F^2,
    Tcross = sum w^2 F, all with w = exp(logw - max_logw).
    """
    tags = payload["observables"]
    acc = (-np.inf, np.zeros(1 + len(tags)), np.zeros(1 + 2 * len(tags)))
    count = payload["counts"][shard]
    rng = shard_rng(payload["seed"], shard)
    prop = payload["proposal"]
    rows = max(1, CHUNK_SCALARS // prop["g"].size)
    for done in range(0, count, rows):
        m, d, logw = _draw(rng, min(rows, count - done), prop)
        fvals = [OBSERVABLE_FORMULAS[tag](m, d, payload["eps"]) for tag in tags]
        # sums taken at the running max fold in with a unit rescale
        chunk_max = max(acc[0], float(np.max(logw)))
        w = np.exp(logw - chunk_max)
        wsq = w * w
        acc = fold_shifted(acc, (
            chunk_max,
            np.array([np.sum(w), *(w @ f for f in fvals)]),
            np.array([np.sum(wsq), *(wsq @ (f * f) for f in fvals), *(wsq @ f for f in fvals)]),
        ))
    return acc


def thermal_averages(cfg: EnsembleConfig, observables: Sequence[str]) -> list[McEstimate]:
    """Estimate [F]_beta for every tag F in observables, in request order.

    One pass: each shard draws its stream once and T0, T2 are shared.
    Raises InvalidParams for an unknown tag before any sampling, and
    DegenerateWeights when the weight ESS (sum w)^2 / sum w^2 < ESS_MIN.
    """
    for tag in observables:
        if tag not in OBSERVABLES:
            raise InvalidParams(f"unknown observable {tag!r}, want one of {OBSERVABLES}")
    if not observables:
        return []
    payload = {
        "counts": split_counts(cfg.samples, SHARDS),
        "seed": cfg.seed,
        "proposal": _proposal(cfg),
        "observables": tuple(observables),
        "eps": cfg.eps,
    }
    parts = map_shards(_shard_partials, payload, SHARDS, cfg.workers)
    _, first, second = reduce(fold_shifted, parts)
    k = len(observables)
    t0, *t1s = first.tolist()
    t2, *t1sqs = second[:k + 1].tolist()
    weight_ess = t0 * t0 / t2 if t2 > 0.0 else 0.0
    if weight_ess < ESS_MIN:
        raise DegenerateWeights(
            f"weight ESS {weight_ess:.1f} < {ESS_MIN:.0f} at beta={cfg.beta}, "
            f"N={cfg.N}, model={cfg.model}; raise samples or lower beta*N"
        )
    estimates = []
    for t1, t1sq, tcross in zip(t1s, t1sqs, second[k + 1:].tolist()):
        mean = t1 / t0
        var = (t1sq - 2.0 * mean * tcross + mean * mean * t2) / (t0 * t0)
        estimates.append(McEstimate(
            mean=mean,
            std_error=math.sqrt(max(var, 0.0)),
            n_samples=cfg.samples,
            numerator_ess=t1 * t1 / t1sq if t1sq > 0.0 else 0.0,
            weight_ess=weight_ess,
        ))
    return estimates


def infinite_T_msq_exact(n_spins: int) -> float:
    """Exact [m^2] at beta = 0 from uniform-sphere moments.

    With d = 2(N+1) real coordinates, E[u_j^2] = 3/(d(d+2)) and
    E[u_j u_k] = 1/(d(d+2)); each state weight joins two coordinates, so
    E[w_n^2] = 8/(d(d+2)) and E[w_n w_k] = 4/(d(d+2)).  Since sum_n g_n = 0
    the cross terms collapse and [m^2] = (c1 - c2) sum_n g_n^2.
    """
    if n_spins < 2:
        raise InvalidParams(f"need N >= 2, got {n_spins}")
    dim = 2 * (n_spins + 1)
    c1 = 8.0 / (dim * (dim + 2))
    c2 = 4.0 / (dim * (dim + 2))
    g = g_values(n_spins)
    return (c1 - c2) * float(g @ g)


def esm_evaluate(n_spins: int, beta: float) -> EsmResult:
    """Product-form model by enumeration of all 2^N chain configurations.

    Zhat = prod_S 1/(1 + E_S / a_N) with a_N = 2*2^N and E_S = beta times
    the adjacent-flip count of S (the nonnegative-energy convention), and
    the dispersion term is (1/a_N^2) sum_S M_S^2 / (1 + E_S/a_N)^2.  The
    companion first-moment term vanishes exactly: complementing all spins
    maps index S to 2^N-1-S, negates M_S, and preserves E_S, so the sum
    cancels in exact pairs.
    """
    if not 2 <= n_spins <= FULL_N_MAX:
        raise InvalidParams(f"need 2 <= N <= {FULL_N_MAX}, got {n_spins}")
    if not 0.0 <= beta < math.inf:
        raise InvalidParams(f"need finite beta >= 0, got beta = {beta}")
    a_n = 2.0 * 2**n_spins
    m_conf, _interaction, flips = chain_tables(n_spins)
    ratio = beta * (flips / a_n)  # flips / a_n first: beta * flips can overflow
    log_zhat = -float(np.sum(np.log1p(ratio)))
    msq_dispersion = float(np.sum((m_conf / (1.0 + ratio)) ** 2)) / (a_n * a_n)
    return EsmResult(
        logZhat=log_zhat, msq_dispersion=msq_dispersion, N=n_spins, beta=beta
    )
