"""Sharing a job's independent blocks between the calling thread and helper threads.

:func:`drain_blocks` hands a job's block indices out one at a time to the
caller and to helpers from one lazily created thread pool per process.  Two
clients use it: SIDCo's stage one
(:func:`~repro.pipeline.vectorized._stage_one_moments`), which shares when a
fit streams at least
:data:`~repro.compressors.bucketed.THREADED_ELEMENTS`, and
:func:`~repro.gradients.synthetic.realistic_gradient`, which shares whenever
it draws two or more blocks.  Each client's blocks write disjoint outputs, so
its bits do not depend on how many threads drained them.
"""

from __future__ import annotations

import contextvars
import os
import threading
from typing import Callable, Iterator

#: Most threads, the caller's included, that share one job's blocks; fewer
#: when the calling thread's affinity mask holds fewer CPUs or the job fewer
#: blocks.  Each helper keeps its own scratch buffers (SIDCo's stage one: up
#: to about 9 MiB, 17 MiB for the GP SID).  Only two threads, on 2 CPUs,
#: have been measured.
MAX_BLOCK_THREADS = 4

#: ``(pid, helpers, executor)`` of :func:`_helper_pool`'s pool.
_pool: tuple = (None, 0, None)


def drain_blocks(count: int, drain: Callable[[Iterator[int]], None], share: bool) -> None:
    """Run ``drain(blocks)`` on the calling thread and, if ``share``, on helper threads.

    ``blocks`` hands out each index in ``range(count)`` once, in order, to
    whichever thread asks next, so ``drain`` must write only what its blocks
    own and take any scratch it needs on its own thread.  Helpers join when
    ``share`` is true and there are two or more blocks: min(CPUs in the
    affinity mask, :data:`MAX_BLOCK_THREADS`, ``count``) threads in all, each
    running in a copy of the caller's context (NumPy's ``errstate``
    included).  Otherwise the caller drains every block in order.  The first
    failure stops the handing out; the caller waits for every helper, then
    raises its own failure or else the first helper's.
    """
    blocks, helpers = _Blocks(count), []
    if share and count > 1:
        threads = min(_cpus(), MAX_BLOCK_THREADS)
        if threads > 1:
            pool = _helper_pool(threads - 1)
            helpers = [
                pool.submit(contextvars.copy_context().run, blocks.drain, drain)
                for _ in range(min(threads, count) - 1)
            ]
    try:
        blocks.drain(drain)
    finally:
        for helper in helpers:
            helper.exception()  # waits; a helper's failure is raised below
    for helper in helpers:
        helper.result()


class _Blocks:
    """Block indices, each handed out once to the next thread that asks; a failure ends them."""

    def __init__(self, count: int) -> None:
        self._indices, self._lock, self._failed = iter(range(count)), threading.Lock(), False

    def __iter__(self) -> "_Blocks":
        return self

    def __next__(self) -> int:
        with self._lock:
            if self._failed:
                raise StopIteration
            return next(self._indices)

    def drain(self, drain: Callable[[Iterator[int]], None]) -> None:
        """``drain(self)``; if it raises, no thread gets another block."""
        try:
            drain(self)
        except BaseException:
            self._failed = True
            raise


def _cpus() -> int:
    """CPUs the calling thread may run on (affinity masks are per thread)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity masks on this platform
        return os.cpu_count() or 1


def _helper_pool(helpers: int):
    """This process's pool of ``helpers`` threads, created on first use.

    ``concurrent.futures`` is imported here, so a process that never shares
    blocks does not load it.  The pool is keyed on the process id, so a
    forked child, which has none of its parent's threads, builds its own;
    and on its size, so a process never keeps more helper threads (and
    their kept buffers) than the last caller's affinity mask has use for.
    A pool of another size is dropped, not shut down: a thread that already
    holds it may still submit to it, and its idle threads exit once it is
    collected.  Two threads that race here may each build one; the pool not
    kept is dropped the same way.
    """
    global _pool
    pid, size, pool = _pool
    if pid != os.getpid() or size != helpers:
        from concurrent.futures import ThreadPoolExecutor

        pool = ThreadPoolExecutor(helpers, thread_name_prefix="repro-blocks")
        _pool = (os.getpid(), helpers, pool)
    return pool
