"""Parallel evaluation of per-object guidance scores (paper §5.4).

The information-gain and expected-spammer-score computations are independent
across objects, so the paper parallelizes them to keep the expert's waiting
time under a second (Figure 4). This module provides a small map abstraction
with three modes — ``serial``, ``threads``, ``processes`` — that the
strategies use without caring which one is active.

``processes`` uses the ``fork`` start method when available so NumPy state
is inherited cheaply; the mapped callable and its arguments must be
picklable (all library types are).
"""

from __future__ import annotations

import multiprocessing
import os
from collections.abc import Callable, Iterable, Sequence
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor

#: Supported execution modes.
MODES = ("serial", "threads", "processes")


def default_worker_count() -> int:
    """A sensible process/thread count: CPUs minus one, at least one."""
    return max(1, (os.cpu_count() or 2) - 1)


class Executor:
    """Map a function over items serially or in parallel.

    Parameters
    ----------
    mode:
        ``"serial"`` (default), ``"threads"``, or ``"processes"``.
    max_workers:
        Pool size for the parallel modes; defaults to CPU count − 1.

    The executor records no telemetry of its own: callers that need
    per-task timings time the tasks they submit.

    Examples
    --------
    >>> with Executor("serial") as ex:
    ...     ex.map(lambda x: x * x, [1, 2, 3])
    [1, 4, 9]
    """

    def __init__(self, mode: str = "serial",
                 max_workers: int | None = None) -> None:
        if mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
        self.mode = mode
        self.max_workers = max_workers or default_worker_count()
        self._pool: ProcessPoolExecutor | ThreadPoolExecutor | None = None

    # ------------------------------------------------------------------
    def __enter__(self) -> "Executor":
        if self.mode == "threads":
            self._pool = ThreadPoolExecutor(max_workers=self.max_workers)
        elif self.mode == "processes":
            context = multiprocessing.get_context(
                "fork" if "fork" in multiprocessing.get_all_start_methods()
                else None)
            self._pool = ProcessPoolExecutor(max_workers=self.max_workers,
                                             mp_context=context)
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None

    # ------------------------------------------------------------------
    def map(self, fn: Callable, items: Iterable) -> list:
        """Apply ``fn`` to every item, preserving order.

        Usable outside a ``with`` block in serial mode; the parallel modes
        lazily create a pool and keep it for subsequent calls (the
        validation process re-scores objects every iteration, so pool reuse
        matters for the Figure 4 response times).

        If any task raises, outstanding chunks are cancelled and the pool
        is shut down (``cancel_futures=True``) before the first failure is
        re-raised — a failed map never leaks a pool still grinding through
        doomed work, and the next call starts on a fresh pool.
        """
        items = list(items)
        if self.mode == "serial" or len(items) <= 1:
            return [fn(item) for item in items]
        if self._pool is None:
            self.__enter__()
        assert self._pool is not None
        chunk = max(1, len(items) // (4 * self.max_workers)) \
            if isinstance(self._pool, ProcessPoolExecutor) else 1
        futures = [self._pool.submit(_map_chunk, fn,
                                     items[start:start + chunk])
                   for start in range(0, len(items), chunk)]
        results: list = []
        try:
            for future in futures:
                results.extend(future.result())
        except BaseException:
            for future in futures:
                future.cancel()
            self._pool.shutdown(wait=False, cancel_futures=True)
            self._pool = None
            raise
        return results

    def __repr__(self) -> str:
        return f"Executor(mode={self.mode!r}, max_workers={self.max_workers})"


def _map_chunk(fn: Callable, chunk: Sequence) -> list:
    """Apply ``fn`` to one chunk (module-level so process pools pickle it)."""
    return [fn(item) for item in chunk]

