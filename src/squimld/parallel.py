"""Deterministic sharded map for Monte Carlo work, on one persistent pool.

Reproducibility contract: a job is split into a fixed number of shards, a
constant of each sampler (ratecurves.SHARDS, mc.SHARDS, wfe.RARE_SHARDS);
shard i draws from an SFC64 stream seeded by SeedSequence(seed,
spawn_key=(i,)), so the stream depends only on those two integers, never on
the worker that runs it.  Results are returned in shard order and all
reductions downstream consume them in that order, which makes every
estimate a pure function of its inputs and the seed, and makes the worker
count an execution detail.

Execution: workers=None, the default of every caller, means every core this
process may run on (os.sched_getaffinity), capped at the shard count;
`resolve_workers` is the one place that turns a requested count into the
one used.  One worker runs everything in-process.  More workers run on one
ProcessPoolExecutor per process, built on first use and reused by every
later call, so a command that maps many jobs starts its worker processes
once.  The pool is rebuilt only when a call asks for a different worker
count, or after a worker process died.  `iter_shards` hands the shards to
the executor's own ordered map in about TASKS_PER_WORKER x workers chunks,
one task each: a job of many small shards then pays a few round trips to
the pool instead of one per shard.  The pool gets the job when the caller
asks for the first result, and the results come in shard order as the
chunks finish, so a caller that streams them (domain-scan writes each
shard's CSV text as it arrives) never waits for the whole job;
`map_shards` collects them into a list.

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
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from itertools import repeat

import numpy as np
# numpy loads its random module on first use.  Every sampler needs it, so
# load it here, before a pool forks: forked workers then inherit it instead
# of each importing it inside the sampling call.
import numpy.random  # noqa: F401

from .errors import InvalidParams

# Shard chunks per worker in iter_shards, each one pool task:
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

    None means every available core; a count below 1 is refused.  The
    count never exceeds shards: an idle worker does nothing.
    """
    wanted = available_cores() if workers is None else int(workers)
    if wanted < 1:
        raise InvalidParams(f"need workers >= 1, got {workers}")
    return min(wanted, int(shards))


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
    """Forget a pool whose worker process died; the next job builds a new one.

    The broken executor has already failed its pending work items, and its
    own manager thread terminates the remaining workers.
    """
    global _pool, _pool_workers
    _pool, _pool_workers = None, 0


def iter_shards(fn, payload, shards: int, workers: int | None = None):
    """Generator of fn(shard, payload) for shard = 0..shards-1, in shard order.

    Nothing runs until the first result is asked for.  workers is resolved
    by `resolve_workers`; one worker runs in-process, shard by shard, as
    the caller iterates.  More send the shards to the pool's ordered map
    on the first request, in chunks of
    ceil(shards / (TASKS_PER_WORKER x workers)), one task each.  A
    chunk's results are yielded as soon as it and every earlier chunk have
    finished, so a caller can consume the first shards while later ones
    still run; a caller that closes the generator early cancels the chunks
    not yet started.  The sequence yielded is identical either way.
    """
    if shards < 1:
        raise ValueError(f"shards must be >= 1, got {shards}")
    workers = resolve_workers(workers, shards)
    if workers == 1:
        for s in range(shards):
            yield fn(s, payload)
        return
    chunksize = -(-shards // (TASKS_PER_WORKER * workers))
    try:
        yield from process_pool(workers).map(fn, range(shards), repeat(payload, shards),
                                             chunksize=chunksize)
    except BrokenProcessPool:
        _drop_pool()
        raise


def map_shards(fn, payload, shards: int, workers: int | None = None) -> list:
    """The list of `iter_shards`' results: fn(shard, payload) in shard order."""
    return list(iter_shards(fn, payload, shards, workers))
