"""Deterministic sharded map for Monte Carlo work, on one persistent pool.

Reproducibility contract: a job is split into a fixed number of shards; shard
i draws from an SFC64 stream seeded by SeedSequence(seed, spawn_key=(i,)),
so the stream depends only on those two integers, never on the worker that
runs it.  Results are returned in shard order and all reductions downstream
consume them in that order, which makes every estimate a pure function of
(seed, shards) and makes the worker count an execution detail.

Execution: workers=None, the default of every caller, means every core this
process may run on (os.sched_getaffinity), capped at the shard count;
`resolve_workers` is the one place that turns a requested count into the
one used.  One worker runs everything in-process.  More workers run on one
ProcessPoolExecutor per process, built on first use and reused by every
later call (map_shards here, block formatting in report.write_csv), so a
command that maps many jobs starts its worker processes once.  The pool is
rebuilt only when a call asks for a different worker count, or after a
worker process died.  `ordered_map` keeps at most TASKS_PER_WORKER x
workers items in flight, so a long input streams through the pool instead
of being queued whole.  map_shards sends its shards as that many
contiguous groups, one task each: a job of many small shards then pays a
few round trips to the pool instead of one per shard.

The pool uses the platform's default start method: fork on Linux up to
Python 3.13, forkserver from 3.14.  Both work because the functions sent to
the pool are module-level callables, pickled by reference, and everything
they need travels in their arguments; forked workers therefore never rely
on state the parent changed after the pool was built.  Fork starts a worker
in milliseconds; forkserver and spawn workers import numpy and squimld
afresh: a 2-worker forkserver pool returned its first result after
0.10-0.13 s on a 2-core AMD EPYC host under Python 3.11, which is why the
start method is not forced to spawn.

Worker functions must be module-level callables (picklable) taking
(shard_index, payload) and returning a picklable result.

Weighted sums of exp(logw) are carried as max-shifted partials and merged
by `fold_shifted`, the one such merge: inside a shard block by block, and
across shards in shard order.
"""

from __future__ import annotations

import math
import os
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from functools import partial

import numpy as np
# numpy loads its random module on first use.  Every sampler needs it, so
# load it here, before a pool forks: forked workers then inherit it instead
# of each importing it inside the sampling call.
import numpy.random  # noqa: F401

# Tasks per worker in flight, and shard groups per worker in map_shards:
# two keep each worker busy while the parent collects a result.  With one
# task per shard, the benchmark's 64-shard ensemble calls ran 1.5-1.9x
# slower on the pool of a 2-core Xeon host.
TASKS_PER_WORKER = 2

_pool: ProcessPoolExecutor | None = None
_pool_workers = 0


def shard_rng(seed: int, shard: int) -> np.random.Generator:
    """The SFC64 stream owned by (seed, shard).

    SeedSequence(seed, spawn_key=(shard,)) is the state numpy gives the
    shard-th child of SeedSequence(seed), so streams of distinct (seed,
    shard) pairs are seeded independently.  SFC64 draws a raw 64-bit word in
    about half the time of Philox-4x64-10 (1.14 against 2.42 ns on a 2-core
    AMD EPYC host, numpy 2.4).
    """
    return np.random.Generator(np.random.SFC64(np.random.SeedSequence(seed, spawn_key=(shard,))))


def split_counts(total: int, shards: int) -> list[int]:
    """Partition a sample budget over shards, earlier shards taking the rest."""
    base, rem = divmod(int(total), int(shards))
    return [base + (1 if s < rem else 0) for s in range(shards)]


def fold_shifted(acc: tuple, part: tuple) -> tuple:
    """acc + part, each (max, first, second) at its own max-shift.

    first holds sums of w = exp(logw - max), second sums of w^2.  The sum
    is taken at the larger shift: first-order sums rescale by r, second-order
    sums by r^2.  A part whose max is -inf holds no weight and changes
    nothing.  Sums may be floats or arrays; acc's arrays are updated in place.
    """
    run_max, first, second = acc
    p_max, p_first, p_second = part
    if p_max == -math.inf:
        return acc
    new_max = max(run_max, p_max)
    if run_max > -math.inf and new_max != run_max:
        r = math.exp(run_max - new_max)
        first *= r
        second *= r * r
    rs = math.exp(p_max - new_max)
    first += p_first * rs
    second += p_second * rs * rs
    return new_max, first, second


def available_cores() -> int:
    """Cores this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def resolve_workers(workers: int | None, shards: int) -> int:
    """The worker count a job of `shards` items runs with.

    None means every available core.  The count never exceeds shards (an
    idle worker does nothing) and never drops below 1.
    """
    wanted = available_cores() if workers is None else int(workers)
    return max(1, min(wanted, int(shards)))


def process_pool(workers: int) -> ProcessPoolExecutor:
    """The process's one pool, with `workers` worker processes."""
    global _pool, _pool_workers
    if _pool is None or _pool_workers != workers:
        if _pool is not None:
            _pool.shutdown()
        _pool = ProcessPoolExecutor(max_workers=workers)
        _pool_workers = workers
    return _pool


def _drop_pool() -> None:
    """Forget a broken pool so that the next call builds a fresh one."""
    global _pool, _pool_workers
    if _pool is not None:
        _pool.shutdown(wait=False, cancel_futures=True)
    _pool, _pool_workers = None, 0


def ordered_map(fn, items, workers: int):
    """Yield fn(item) for each item, in input order.

    workers <= 1 runs in-process.  Otherwise the items run on the shared
    pool with at most TASKS_PER_WORKER x workers of them submitted and not
    yet yielded.
    """
    if workers <= 1:
        yield from map(fn, items)
        return
    pool = process_pool(workers)
    pending: deque = deque()
    try:
        for item in items:
            if len(pending) == TASKS_PER_WORKER * workers:
                yield pending.popleft().result()
            pending.append(pool.submit(fn, item))
        while pending:
            yield pending.popleft().result()
    except BrokenProcessPool:
        _drop_pool()
        raise
    finally:
        for future in pending:
            future.cancel()


def _run_shards(shards: range, fn, payload) -> list:
    return [fn(s, payload) for s in shards]


def map_shards(fn, payload, shards: int, workers: int | None = None) -> list:
    """Run fn(shard, payload) for shard = 0..shards-1, in shard order.

    workers is resolved by `resolve_workers`; one worker runs in-process,
    more run TASKS_PER_WORKER x workers contiguous groups of shards on the
    shared pool.  The output list is identical either way.
    """
    if shards < 1:
        raise ValueError(f"shards must be >= 1, got {shards}")
    workers = resolve_workers(workers, shards)
    groups = min(shards, TASKS_PER_WORKER * workers) if workers > 1 else 1
    edges = [shards * i // groups for i in range(groups + 1)]
    job = partial(_run_shards, fn=fn, payload=payload)
    parts = ordered_map(job, map(range, edges[:-1], edges[1:]), workers)
    return [out for part in parts for out in part]
