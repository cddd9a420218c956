"""The shard map and its one process pool.

The pool is an execution detail: every result must equal the in-process
one, and consecutive maps must share one executor instead of starting
their worker processes again.  The mapped functions are stdlib or squimld
callables, so they pickle by reference under any start method.
"""

import operator
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from squimld import parallel
from squimld.gecore import RateParams
from squimld.parallel import map_shards, process_pool, resolve_workers
from squimld.ratecurves import domain_scan
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


def test_in_process_maps_build_no_executor(built_pools):
    assert map_shards(operator.mul, 3, shards=5, workers=1) == [0, 3, 6, 9, 12]
    # a single shard never needs a second process, whatever was asked
    assert map_shards(operator.mul, 3, shards=1, workers=4) == [0]
    assert built_pools == []


def test_a_new_worker_count_replaces_the_executor(built_pools):
    map_shards(operator.mul, 1, shards=4, workers=2)
    map_shards(operator.mul, 1, shards=4, workers=3)
    assert len(built_pools) == 2
    assert process_pool(3) is built_pools[1]


def test_resolve_workers_defaults_to_available_cores(monkeypatch):
    monkeypatch.setattr(parallel, "available_cores", lambda: 3)
    assert resolve_workers(None, 64) == 3
    assert resolve_workers(None, 2) == 2
    assert resolve_workers(5, 64) == 5
    assert resolve_workers(5, 4) == 4
    assert resolve_workers(0, 64) == 1


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
