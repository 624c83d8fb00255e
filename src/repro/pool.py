"""One ordered parallel map: worker start, index ranges, in-order merge.

The fault, fuzz and verify pools, the service's process mode and the
cluster's shard split/merge rest on three decisions that only this
module makes: how a worker process starts (:func:`start_pool`), how work
splits into index ranges (:func:`shard_bounds`, :func:`ranges`) and how
results come back in order (:func:`merge`).  ``jobs`` means the same
everywhere (:func:`resolve_jobs`): ``0`` is every CPU, negative an error.
"""

from __future__ import annotations

import os
import time
import warnings
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

__all__ = ["Workers", "merge", "ranges", "resolve_jobs", "shard_bounds",
           "start_pool"]

#: How often :meth:`Workers.map` runs its ``poll`` while it waits.
POLL_SECONDS = 0.1

_STATE: Any = None  # this worker process's ``spec.build()``


def resolve_jobs(jobs: int) -> int:
    """A worker count: ``0`` means every CPU; negative is an error."""
    if jobs < 0:
        raise ValueError(f"jobs must be >= 0, got {jobs}")
    return jobs or os.cpu_count() or 1


def shard_bounds(total: int, shard_count: int, shard_index: int
                 ) -> Tuple[int, int]:
    """The ``[lo, hi)`` slice of ``total`` items shard ``shard_index``
    of ``shard_count`` owns — contiguous, balanced, and a pure function
    of its arguments (never of cluster shape or arrival order)."""
    if shard_count < 1:
        raise ValueError(f"shard_count must be >= 1, got {shard_count}")
    if not 0 <= shard_index < shard_count:
        raise ValueError(f"shard_index {shard_index} out of range for "
                         f"{shard_count} shards")
    base, extra = divmod(total, shard_count)
    lo = shard_index * base + min(shard_index, extra)
    hi = lo + base + (1 if shard_index < extra else 0)
    return lo, hi


def ranges(total: int, count: int) -> List[Tuple[int, int]]:
    """The non-empty :func:`shard_bounds` of ``total`` items in ``count``
    parts."""
    bounds = [shard_bounds(total, count, index) for index in range(count)]
    return [(lo, hi) for lo, hi in bounds if hi > lo]


def merge(parts: Iterable[Tuple[int, Any]],
          count: Optional[int] = None) -> List[Any]:
    """The values of ``(index, value)`` parts in index order; the indices
    must be exactly ``0 .. count - 1`` (default: the number of parts)."""
    slots: Dict[int, Any] = {}
    for index, value in parts:
        if index in slots:
            raise ValueError(f"incomplete part set: index {index} twice")
        slots[index] = value
    if not slots:
        raise ValueError("cannot merge zero parts")
    expected = range(len(slots) if count is None else count)
    if slots.keys() != set(expected):
        raise ValueError(f"incomplete part set: got indices "
                         f"{sorted(slots)}, expected 0..{len(expected) - 1}")
    return [slots[index] for index in expected]


def _init(spec) -> None:
    global _STATE
    import repro.bmi  # noqa: F401 — register optional ISA modules (Zbb)

    _STATE = spec.build() if spec is not None else None


def _timed(fn: Callable, state, indices: Tuple[int, ...], items):
    started = time.perf_counter()
    result = fn(state, items)
    return indices, result, time.perf_counter() - started, os.getpid()


def _run(task):
    return _timed(task[0], _STATE, *task[1:])


def start_pool(jobs: int, spec=None):
    """``jobs`` processes whose state is ``spec.build()``: ``fork`` where
    offered (no interpreter re-import per worker), else ``spawn``.

    Raises :class:`RuntimeError` inside a daemonic process (a worker of
    another pool), which may not have children."""
    import multiprocessing  # deferred: most runs never start a pool

    if multiprocessing.current_process().daemon:
        raise RuntimeError("a daemonic process (a pool worker) cannot "
                           "start worker processes of its own")
    methods = multiprocessing.get_all_start_methods()
    context = multiprocessing.get_context(
        "fork" if "fork" in methods else "spawn")
    return context.Pool(jobs, initializer=_init, initargs=(spec,))


class Workers:
    """``jobs`` worker processes seeded with ``spec.build()``.

    If they cannot start, it warns and runs every chunk in-process on a
    locally built state.  An exception raised inside a worker propagates
    and is never retried; leaving a ``with`` block on an exception
    terminates the workers.
    """

    def __init__(self, jobs: int, spec=None) -> None:
        self._state = None
        try:
            self._pool = start_pool(jobs, spec)
        except (OSError, ImportError, ValueError, RuntimeError) as exc:
            warnings.warn(f"could not start {jobs} worker processes "
                          f"({exc}); falling back to in-process execution",
                          RuntimeWarning, stacklevel=2)
            self._pool = None
            self._state = spec.build() if spec is not None else None

    def map(self, fn: Callable[[Any, Any], Any],
            chunks: List[Tuple[Tuple[int, ...], Any]],
            poll: Optional[Callable[[], None]] = None):
        """Run module-level ``fn(state, items)`` on each ``(indices,
        items)`` chunk; yields ``(indices, result, busy_seconds, pid)``
        in completion order, running ``poll`` every
        :data:`POLL_SECONDS` while it waits."""
        if self._pool is None:
            for indices, items in chunks:
                if poll is not None:
                    poll()
                yield _timed(fn, self._state, indices, items)
            return
        from multiprocessing import TimeoutError as PoolTimeout

        results = self._pool.imap_unordered(
            _run, [(fn, indices, items) for indices, items in chunks])
        for _ in chunks:
            while True:
                try:
                    part = results.next(None if poll is None
                                        else POLL_SECONDS)
                    break
                except PoolTimeout:
                    poll()
            yield part

    def close(self) -> None:
        """Let the workers finish their tasks, then join them."""
        if self._pool is not None:
            self._pool.close()
            self._pool.join()
            self._pool = None

    def __enter__(self) -> "Workers":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None and self._pool is not None:
            self._pool.terminate()  # abandon the remaining chunks
        self.close()
