"""The shard map and its one process pool.

The pool is an execution detail: every result must equal the in-process
one, and consecutive maps must share one executor instead of starting
their worker processes again.  Each shard's stream is pinned to numpy's
SFC64 child of SeedSequence(seed).  The mapped functions are stdlib or squimld
callables, so they pickle by reference under any start method, except the
one that ends its worker process, which the worker finds in this module.
The max-shift fold is checked against scipy's logsumexp.
"""

import math
import operator
import os
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest
from scipy.special import logsumexp

from squimld import InvalidParams, mc, parallel, ratecurves, wfe
from squimld.gecore import RateParams
from squimld.parallel import (
    fold_shifted,
    iter_shards,
    map_shards,
    process_pool,
    resolve_workers,
    shard_rng,
)
from squimld.ratecurves import compute_I2, domain_scan
from squimld.wfe import WfeParams, rare_event_rate_mc


@pytest.fixture
def built_pools(monkeypatch):
    """Every executor the module builds during the test, from a clean slate."""
    built = []

    class Counted(ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self)

    monkeypatch.setattr(parallel, "ProcessPoolExecutor", Counted)
    monkeypatch.setattr(parallel, "_pool", None)
    monkeypatch.setattr(parallel, "_pool_workers", 0)
    yield built
    for pool in built:
        pool.shutdown()


def test_consecutive_maps_reuse_one_executor(built_pools):
    assert map_shards(operator.mul, 3, shards=5, workers=2) == [0, 3, 6, 9, 12]
    assert map_shards(operator.add, 10, shards=7, workers=2) == list(range(10, 17))
    assert map_shards(operator.pow, 2, shards=4, workers=2) == [0, 1, 4, 9]
    assert len(built_pools) == 1
    assert process_pool(2) is built_pools[0]


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_iter_shards_yields_in_shard_order_as_groups_finish(built_pools, workers):
    shards = iter_shards(operator.mul, 3, shards=7, workers=workers)
    assert next(shards) == 0  # one shard at a time, not one list
    assert list(shards) == [3, 6, 9, 12, 15, 18]
    assert map_shards(operator.mul, 3, shards=7, workers=workers) == [0, 3, 6, 9, 12, 15, 18]
    assert len(built_pools) == (workers > 1)


def test_in_process_maps_build_no_executor(built_pools):
    assert map_shards(operator.mul, 3, shards=5, workers=1) == [0, 3, 6, 9, 12]
    # a single shard never needs a second process, whatever was asked
    assert map_shards(operator.mul, 3, shards=1, workers=4) == [0]
    assert built_pools == []


def test_a_shard_error_propagates_and_the_pool_stays(built_pools):
    # the worker refuses every RateParams(x=shard, eps=-1.0)
    with pytest.raises(InvalidParams):
        map_shards(RateParams, -1.0, shards=5, workers=2)
    assert map_shards(operator.mul, 3, shards=5, workers=2) == [0, 3, 6, 9, 12]
    assert len(built_pools) == 1


def _exit_on_shard(shard, payload):
    """Ends the worker process that runs shard `payload`."""
    if shard == payload:
        os._exit(1)
    return shard


def test_a_killed_worker_breaks_only_that_map(built_pools):
    with pytest.raises(BrokenProcessPool):
        map_shards(_exit_on_shard, 2, shards=5, workers=2)
    assert map_shards(operator.mul, 3, shards=5, workers=2) == [0, 3, 6, 9, 12]
    assert len(built_pools) == 2


def test_a_new_worker_count_replaces_the_executor(built_pools):
    map_shards(operator.mul, 1, shards=4, workers=2)
    map_shards(operator.mul, 1, shards=4, workers=3)
    assert len(built_pools) == 2
    assert process_pool(3) is built_pools[1]


@pytest.mark.parametrize("seed, shard", [(0, 0), (1, 62), (2**64 - 1, 0)])
def test_shard_stream_is_the_sfc64_child_of_the_seed(seed, shard):
    words = shard_rng(seed, shard).bit_generator.random_raw(4)
    expected = np.random.SFC64(np.random.SeedSequence(seed, spawn_key=(shard,))).random_raw(4)
    np.testing.assert_array_equal(words, expected)
    # the same state as the shard-th child SeedSequence(seed).spawn gives
    child = np.random.SeedSequence(seed).spawn(shard + 1)[shard]
    np.testing.assert_array_equal(words, np.random.SFC64(child).random_raw(4))


def test_distinct_seed_shard_pairs_start_distinct_streams():
    pairs = [(seed, shard) for seed in (0, 1, 2, 62, 2**64 - 1) for shard in (0, 1, 2, 62, 63)]
    first = {int(shard_rng(seed, shard).bit_generator.random_raw()) for seed, shard in pairs}
    assert len(first) == len(pairs)


def test_resolve_workers_defaults_to_available_cores(monkeypatch):
    monkeypatch.setattr(parallel, "available_cores", lambda: 3)
    assert resolve_workers(None, 64) == 3
    assert resolve_workers(None, 2) == 2
    assert resolve_workers(5, 64) == 5
    assert resolve_workers(5, 4) == 4
    with pytest.raises(InvalidParams, match="workers >= 1, got 0"):
        resolve_workers(0, 64)


def test_resolve_workers_is_capped_by_the_sampler_shard_counts():
    # a huge request never asks the pool for more processes than shards
    for shards in (ratecurves.SHARDS, mc.SHARDS, wfe.RARE_SHARDS):
        assert resolve_workers(5000, shards) == shards


@pytest.mark.parametrize("call, message", [
    (lambda: rare_event_rate_mc(WfeParams(omega=1.2, eps=0.1), n_sites=0), "n_sites.*got 0"),
    (lambda: rare_event_rate_mc(WfeParams(omega=1.2, eps=0.1), n_sites=-3), "n_sites.*got -3"),
    (lambda: domain_scan(RateParams(x=0.7, eps=0.3), 0), "n_samples.*got 0"),
    (lambda: domain_scan(RateParams(x=0.7, eps=0.3), -1), "n_samples.*got -1"),
    (lambda: rare_event_rate_mc(WfeParams(omega=1.2, eps=0.1), n_sites=40, workers=0),
     "workers.*got 0"),
    (lambda: domain_scan(RateParams(x=0.7, eps=0.3), 1000, workers=-3), "workers.*got -3"),
    (lambda: compute_I2(RateParams(x=0.4, eps=0.1), 1000, workers=0), "workers.*got 0"),
], ids=["rare-event-n_sites-0", "rare-event-n_sites-neg", "domain-scan-n_samples-0",
        "domain-scan-n_samples-neg", "rare-event-workers-0", "domain-scan-workers-neg",
        "compute-i2-workers-0"])
def test_sampler_count_below_one_is_refused(call, message):
    with pytest.raises(InvalidParams, match=message):
        call()


def test_default_workers_match_in_process_run():
    params = RateParams(x=0.7, eps=0.3)
    default = domain_scan(params, 6_000, seed=11)
    serial = domain_scan(params, 6_000, seed=11, workers=1)
    for a, b in zip(default, serial):
        assert np.array_equal(a, b, equal_nan=a.dtype.kind == "f")
    wfe = WfeParams(omega=1.2, eps=0.1)
    assert rare_event_rate_mc(wfe, n_sites=40, replicas=20_000, seed=3) == rare_event_rate_mc(
        wfe, n_sites=40, replicas=20_000, seed=3, workers=1
    )


def _shifted_part(logw, f):
    """(max, [sum w, sum w f], [sum w^2, sum w^2 f]) with w = exp(logw - max)."""
    m = float(logw.max())
    w = np.exp(logw - m)
    return m, np.array([w.sum(), w @ f]), np.array([(w * w).sum(), (w * w) @ f])


def test_fold_ignores_a_part_without_weight():
    acc = (3.0, np.array([2.0, 5.0]), np.array([1.5, 4.0]))
    empty = (-math.inf, np.zeros(2), np.zeros(2))
    m, first, second = fold_shifted(acc, empty)
    assert m == 3.0
    assert first.tolist() == [2.0, 5.0] and second.tolist() == [1.5, 4.0]
    # an empty start takes the first part's sums at their own shift
    m, first, second = fold_shifted((-math.inf, 0.0, 0.0), (7.0, 2.5, 1.25))
    assert (m, first, second) == (7.0, 2.5, 1.25)
    assert fold_shifted((-math.inf, 0.0, 0.0), (-math.inf, 0.0, 0.0)) == (-math.inf, 0.0, 0.0)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_fold_matches_logsumexp_over_widely_spread_parts(seed):
    rng = np.random.default_rng(seed)
    logws, fs = [], []
    # three clusters 500 apart; inside a cluster parts overlap, so parts
    # below the running max still carry weight and the r vs r^2 scaling shows
    for centre in rng.choice([-500.0, 0.0, 500.0], size=15) + rng.uniform(-2.0, 2.0, size=15):
        logws.append(centre + rng.normal(0.0, 3.0, size=int(rng.integers(1, 40))))
        fs.append(rng.uniform(0.5, 2.0, size=logws[-1].size))
    parts = [_shifted_part(lw, f) for lw, f in zip(logws, fs)]
    m, first, second = (-math.inf, np.zeros(2), np.zeros(2))
    for part in parts:
        m, first, second = fold_shifted((m, first, second), part)
    logw, f = np.concatenate(logws), np.concatenate(fs)
    assert m == logw.max()
    # first-order sums carry the shift once, second-order sums twice
    assert m + math.log(first[0]) == pytest.approx(logsumexp(logw), rel=1e-12)
    assert m + math.log(first[1]) == pytest.approx(logsumexp(logw, b=f), rel=1e-12)
    assert 2 * m + math.log(second[0]) == pytest.approx(logsumexp(2 * logw), rel=1e-12)
    assert 2 * m + math.log(second[1]) == pytest.approx(logsumexp(2 * logw, b=f), rel=1e-12)
    # float sums, as the rare-event sampler carries them, fold the same way
    scalar = (-math.inf, 0.0, 0.0)
    for pm, pf, ps in parts:
        scalar = fold_shifted(scalar, (pm, float(pf[0]), float(ps[0])))
    assert scalar[0] == m
    assert scalar[1] == pytest.approx(first[0], rel=1e-14)
    assert scalar[2] == pytest.approx(second[0], rel=1e-14)
