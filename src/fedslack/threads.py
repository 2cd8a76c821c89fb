"""Where a run computes: a round's cohorts on every core the process may
use, and every BLAS call on one thread.

Two levels could spread a round over the cores: BLAS, splitting one matmul
over threads, or the runner, training the round's cohorts at once.  Only
the second keeps the bits.  With a second OpenBLAS thread some matmuls sum
in another order (the (25, 784) @ (784, 256) forward matmul of a 784-256-10
MLP, and the (50,) @ (50, P) aggregation of 50 clients), so a run's bits
would depend on the BLAS thread count.  A cohort trained on another thread
runs exactly the calls it runs on the main one, and writes only its own
rows of the round's matrices.  So `one_blas_thread` pins the loaded
OpenBLAS to one thread for a run, and `train_cohorts` trains the cohorts
on up to `cores()` threads; numpy releases the interpreter lock in its
matmuls and ufuncs, so the threads overlap there.
"""

from __future__ import annotations

import ctypes
import functools
import itertools
import os
import queue
import warnings
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from typing import Callable, Iterator, Sequence, TypeVar

T = TypeVar("T")


def cores() -> int:
    """The number of cores this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:        # no affinity call on this platform
        return os.cpu_count() or 1


@functools.cache
def _openblas() -> tuple[Callable[[], int], Callable[[int], None]] | None:
    """The get and set thread-count functions of the OpenBLAS library this
    process has loaded (found in /proc/self/maps), or None."""
    try:
        with open("/proc/self/maps") as maps:
            fields = [line.split(maxsplit=5) for line in maps]
        paths = sorted({f[5].strip() for f in fields
                        if len(f) == 6 and "openblas" in f[5].lower()})
    except OSError:
        return None
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix, suffix in itertools.product(("scipy_openblas", "openblas"), ("64_", "")):
            try:
                get = getattr(lib, f"{prefix}_get_num_threads{suffix}")
                set_ = getattr(lib, f"{prefix}_set_num_threads{suffix}")
            except AttributeError:
                continue
            get.argtypes, get.restype = [], ctypes.c_int
            set_.argtypes, set_.restype = [ctypes.c_int], None
            return get, set_
    return None


@contextmanager
def one_blas_thread() -> Iterator[None]:
    """Run the block with the loaded OpenBLAS on one thread, then restore its
    thread count; without a limiter found, warn that the block's bits may
    depend on the BLAS thread count."""
    limiter = _openblas()
    if limiter is None:
        warnings.warn("no OpenBLAS thread limiter found: the run's bits may depend "
                      "on the BLAS thread count", RuntimeWarning, stacklevel=3)
        yield
        return
    get, set_ = limiter
    old = get()
    set_(1)
    try:
        yield
    finally:
        set_(old)


def train_cohorts(train: Callable[[T], object], cohorts: Sequence[T],
                  pool: ThreadPoolExecutor, n_threads: int) -> None:
    """`train(cohort)` for every cohort, on the calling thread and up to
    n_threads - 1 of `pool`'s, each taking the next cohort in order; all have
    finished when this returns.  If cohorts fail, the earliest one's
    exception is raised, as training them in order raises it.

    The calling thread trains too, rather than waiting on `pool.map`: each
    thread that allocates gets its own glibc malloc arena, and a third one
    took the wide benchmark's peak memory from 77 to 84 MB."""
    todo: queue.SimpleQueue = queue.SimpleQueue()
    for item in enumerate(cohorts):
        todo.put(item)
    failed: dict[int, Exception] = {}

    def drain() -> None:
        while not failed:
            try:
                i, cohort = todo.get_nowait()
            except queue.Empty:
                return
            try:
                train(cohort)
            except Exception as exc:   # raised below, once every thread has finished
                failed[i] = exc

    others = [pool.submit(drain) for _ in range(min(len(cohorts), n_threads) - 1)]
    try:
        drain()
    finally:
        for future in others:
            future.result()
    if failed:
        raise failed[min(failed)]
