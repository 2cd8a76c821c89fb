"""Where a run computes: a round's cohorts, and the halves of a large eval
or server step, on every core the process may use, and every BLAS call on
one thread.

Two levels could spread a round over the cores: BLAS, splitting one matmul
over threads, or the runner, training the round's cohorts at once.  Only
the second keeps the bits.  With a second OpenBLAS thread some matmuls sum
in another order (the (25, 784) @ (784, 256) forward matmul of a 784-256-10
MLP, and the (50,) @ (50, P) aggregation of 50 clients), so a run's bits
would depend on the BLAS thread count.  A cohort trained on another thread
runs exactly the calls it runs on the main one, and writes only its own
rows of the round's matrices.  So `one_blas_thread` pins the loaded
OpenBLAS to one thread for a run or an eval, and `for_each` runs the
cohorts, or the halves of eval or of the server step, from one queue on up
to `cores()` threads, started for the call and joined before it returns;
numpy releases the interpreter lock in its matmuls and ufuncs, so the
threads overlap there.

Eval and the server step cut their work by one rule, `halves`: whole, or
in two halves once the call's work (its elements or multiply-adds) reaches
twice `SPLIT_WORK`, cut by the shapes alone and never by the core count,
since a matmul cut into other blocks can round differently.  Eval halves
its test rows, and the server step its matrices' rows or columns (see
`aggregation`).  Each call allocates its halves' scratch on the calling
thread, so that no worker thread takes a parameter-sized array from a
malloc arena of its own.

Work that threads cannot overlap, because it holds the interpreter lock
between numpy calls, runs in a `Child`: a process forked from the caller,
which keeps the caller's pinned BLAS count and its copy of every array, and
computes one function of one buffer whenever the caller sends that buffer's
bytes.  A run scores its eval rounds before the last in one (see
`runner.run`).
"""

from __future__ import annotations

import ctypes
import functools
import gc
import itertools
import os
import pickle
import queue
import signal
import threading
import warnings
from contextlib import contextmanager
from typing import Callable, Iterator, Sequence, TypeVar

T = TypeVar("T")
R = TypeVar("R")


# The work from which `halves` cuts a call in two, measured on a 2-core x86
# host only.  Eval's rows: a 784-256-10 MLP's 300 test rows (work 61M) took
# 0.55x their whole-batch time in halves on two threads and a 64-256-128-10
# MLP's 320 rows (16M) 0.61x, while an 8-16-5 MLP's 1000 rows (0.23M) took
# 1.4x.  The server step's four calls, in two blocks against one: with 50
# rows, blocks of 2**19 elements took 1.02x the time and of 2**20 0.73x; with
# 5 rows, blocks of 2**18 took 0.83x and of 2**19 0.65x.  So the fleet
# benchmark's 50 x 50,826 step and 320 eval rows split, as do the wide one's
# 300 eval rows, while its 5 x 203,530 step and the desk one's 5 x 229 step
# and 1000 eval rows stay whole.
SPLIT_WORK = 2**20


def halves(n: int, work: int, multiple: int = 1) -> list[slice]:
    """`[0:n]`, or `[0:h], [h:n]` with h = ceil(n / 2) rounded up to a
    multiple of `multiple` once `work` reaches 2 * `SPLIT_WORK` and the
    second half keeps at least `multiple`.  Row work (a norm, a pairwise
    sum) takes whole rows and column work keeps the row order, so each
    element is the same bits in either cut; so is a matmul cut at
    multiples of 8 rows or columns, though not one cut elsewhere, on
    OpenBLAS's SkylakeX, Haswell, Sandybridge and Zen kernels."""
    h = -(-n // (2 * multiple)) * multiple
    if work < 2 * SPLIT_WORK or n - h < multiple:
        return [slice(0, n)]
    return [slice(0, h), slice(h, n)]


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
    """The loaded OpenBLAS on one thread for the block, its count restored on
    exit; without a limiter found, warn that the block's bits may depend on
    the BLAS thread count."""
    limiter = _openblas()
    if limiter is None:
        # stacklevel 3 names the line that enters `one_blas_thread`
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


def for_each(fn: Callable[[T], R], items: Sequence[T]) -> list[R]:
    """`[fn(item) for item in items]`, on the calling thread and
    min(len(items), cores()) - 1 threads started for the call, each taking
    the next item in order; all have finished when this returns.  A thread
    that cannot start (at a process or memory limit) leaves its share to
    those that did.  If items fail, the earliest one's exception is raised,
    as calling `fn` on them in order raises it.

    The calling thread works too, rather than only waiting: each thread that
    allocates gets its own glibc malloc arena, and a third one took the wide
    benchmark's peak memory from 77 to 84 MB.  For the same reason each
    thread is waited for until the kernel has removed it (on Linux, until
    it leaves /proc/self/task; elsewhere not at all): CPython 3.11 returns
    from `join` before the thread has run glibc's exit hook, which hands its
    arena on, and a thread started in that gap, as the server step's
    back-to-back calls start them, made a third or fourth arena and raised
    fleet's peak memory by 3-6 MB.  The wait costs about 25-35 us a call."""
    todo: queue.SimpleQueue = queue.SimpleQueue()
    for item in enumerate(items):
        todo.put(item)
    results: list = [None] * len(items)
    failed: dict[int, BaseException] = {}

    def drain() -> None:
        while not failed:
            try:
                i, item = todo.get_nowait()
            except queue.Empty:
                return
            try:
                results[i] = fn(item)
            except BaseException as exc:   # raised below, once every thread has finished
                failed[i] = exc

    others = []
    try:
        for _ in range(min(len(items), cores()) - 1):
            thread = threading.Thread(target=drain)
            try:
                thread.start()
            except RuntimeError:    # "can't start new thread"
                break
            others.append(thread)
        drain()
    finally:
        for thread in others:
            thread.join()
            while os.path.exists(f"/proc/self/task/{thread.native_id}"):
                pass
    if failed:
        raise failed[min(failed)]
    return results


class Child:
    """A process forked from this one that calls `fn()` once per `submit()`.

    `submit()` sends `buffer`'s bytes down a pipe, straight from the buffer;
    the child reads them into its own copy of `buffer`, calls `fn` and sends
    back what it returned or the exception it raised, which `result()`
    returns or raises with its type and message.  The child ignores SIGINT.
    It exits once the pipe reaches end of file, as it does when the parent
    dies, through `os._exit`, so it flushes no file object it inherited.
    `close()` kills and reaps it, computing or not.  Fork it while no other
    thread of this process runs (as `runner.run` does, before round 1): the
    child gets only the forking thread, and a lock another thread held stays
    held in the child."""

    def __init__(self, fn: Callable[[], object], buffer) -> None:
        self._view = memoryview(buffer).cast("B")
        down_r, down_w = os.pipe()
        up_r, up_w = os.pipe()
        try:
            self.pid = os.fork()
        except OSError:
            for fd in (down_r, down_w, up_r, up_w):
                os.close(fd)
            raise
        if self.pid == 0:
            status = 1
            try:
                os.close(down_w)
                os.close(up_r)
                _serve(fn, self._view, down_r, up_w)
                status = 0
            finally:
                os._exit(status)
        os.close(down_r)
        os.close(up_w)
        self._down, self._up = down_w, open(up_r, "rb")

    def submit(self) -> None:
        view, sent = self._view, 0
        while sent < len(view):
            sent += os.write(self._down, view[sent:])

    def result(self) -> object:
        try:
            ok, value = pickle.load(self._up)
        except EOFError:
            raise ChildProcessError(f"process {self.pid} exited without a result") from None
        if not ok:
            raise value
        return value

    def close(self) -> None:
        os.kill(self.pid, signal.SIGKILL)
        os.close(self._down)
        self._up.close()
        os.waitpid(self.pid, 0)


def _serve(fn: Callable[[], object], view: memoryview, down: int, up: int) -> None:
    """The child's side of a `Child`: `fn()` for each buffer's bytes read
    from `down`, its result or exception pickled to `up`, until `down` ends."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    # no inherited object is ever collected here, so none is finalized
    gc.freeze()
    with open(down, "rb") as src, open(up, "wb") as dst:
        while src.readinto(view) == len(view):
            try:
                out = (True, fn())
            except BaseException as exc:   # raised in the parent by `result`
                out = (False, exc)
            dst.write(pickle.dumps(out))    # whole, or not at all if it cannot pickle
            dst.flush()
