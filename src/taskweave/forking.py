"""Fork-based parallel map over independent items, for the package's own
use: the sliding-window task probes, one process per CPU
(:func:`cpu_workers`), with the geometry suite's other analyses as one more
item, and the forgetting comparison's three fine-tunes, one process each
whenever a second CPU is free.

Worker *j* (this process is worker 0) starts on item *j*. The items after
the first ``workers`` wait in one shared queue, and whichever worker is free
takes the next one in index order (self-scheduling), so a worker that holds
a long item does not leave the others to idle.

A forked child runs the same code on a copy of this process's memory, so
every result is the serial one bit for bit, and nothing has to be picklable
but the results. Off Linux, or on one CPU, the map is the plain loop.
"""

from __future__ import annotations

import os
import pickle

# Width of one queue record, the little-endian index of the first item of a
# run of items.
_INDEX_BYTES = 4


def cpu_workers(n_items: int) -> int:
    """Processes ``n_items`` independent items run on: one per CPU this
    process may run on, at most one per item. Without ``os.fork`` or an
    affinity mask (anything but Linux) it is 1, the plain loop."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    return min(len(os.sched_getaffinity(0)), n_items)


class _RemoteTraceback(Exception):
    """A forked worker's formatted traceback. Pickling drops an exception's
    ``__traceback__``, so the one a worker raised comes back with this as
    its ``__cause__``, and a printed traceback still reaches the frame that
    failed."""

    def __init__(self, tb: str):
        self.tb = tb

    def __str__(self) -> str:
        return self.tb


def _queue(first: int, n_items: int) -> tuple[int, int]:
    """A pipe holding the items from ``first`` on in index order, its write
    end closed: (read end, run). A record is the index of the first of
    ``run`` items; a run is one item unless the items outnumber the records
    one ``PIPE_BUF`` write holds, and a write that size fits the empty pipe
    at once. Pipe reads are serialised, so each record goes to one reader
    whole, and an empty read means the queue is drained."""
    read_end, write_end = os.pipe()
    try:
        records = os.fpathconf(read_end, "PC_PIPE_BUF") // _INDEX_BYTES
        run = max(1, -(-(n_items - first) // records))
        data = b"".join(
            start.to_bytes(_INDEX_BYTES, "little") for start in range(first, n_items, run)
        )
        os.write(write_end, data)
    except BaseException:
        os.close(read_end)
        raise
    finally:
        os.close(write_end)
    return read_end, run


def _indices(first: int, queue: int, run: int, n_items: int):
    """Item ``first``, then the runs of items taken from ``queue``, one run
    at a time, until the queue is drained."""
    yield first
    while record := os.read(queue, _INDEX_BYTES):
        start = int.from_bytes(record, "little")
        yield from range(start, min(start + run, n_items))


def _run_items(fn, items: list, first: int, queue: int, run: int):
    """``fn`` over item ``first`` and the items this worker takes from
    ``queue``, stopping at the first item that raises: (results, None), with
    ``results`` mapping each index computed here to its result, or (None,
    (index, exception)). A worker that stops drains the queue unread, so no
    worker starts another item. The queue is in index order, so the items
    left in it all come after the failing one, and every item before the
    lowest failing one is still computed by some worker."""
    results = {}
    for index in _indices(first, queue, run, len(items)):
        try:
            results[index] = fn(items[index])
        except Exception as exc:
            # A multiple of _INDEX_BYTES, so any reader still gets whole
            # records.
            while os.read(queue, 1 << 16):
                pass
            return None, (index, exc)
    return results, None


def _portable(exc: Exception) -> Exception:
    """``exc`` if it survives a pickle round trip, else a
    ``ChildProcessError`` naming its type and message. An exception whose
    ``__init__`` does not take its ``args`` pickles but does not unpickle,
    and would turn into the parent's ``TypeError``."""
    try:
        pickle.loads(pickle.dumps(exc))
    except Exception:
        kind = type(exc)
        return ChildProcessError(f"{kind.__module__}.{kind.__qualname__}: {exc}")
    return exc


def _serve(fn, items: list, first: int, queue: int, run: int, write_end: int):
    """Body of a forked worker: pickle its outcome into the pipe and leave
    by ``os._exit``, so the child never unwinds into the caller's frames (a
    test runner, a benchmark loop). A failure travels with its formatted
    traceback, as itself when it round-trips through pickle and as a
    ``ChildProcessError`` stand-in when it does not. A child that cannot
    send its outcome exits with status 1 and an empty pipe."""
    status = 1
    try:
        results, failure = _run_items(fn, items, first, queue, run)
        if failure is not None:
            import traceback

            index, exc = failure
            tb = "".join(traceback.format_exception(type(exc), exc, exc.__traceback__))
            failure = (index, _portable(exc), f'\n"""\n{tb}"""')
        data = pickle.dumps((results, failure))
        with os.fdopen(write_end, "wb") as pipe:
            pipe.write(data)
        status = 0
    finally:
        os._exit(status)


def forked_map(fn, items: list, workers: int) -> list:
    """``[fn(x) for x in items]`` on ``workers`` processes (1 is the plain
    loop), the results in item order.

    Worker *j* first computes ``items[j]``: this process is worker 0, and
    ``workers - 1`` forked children are the others. The items from index
    ``workers`` on are taken in index order from one queue, a pipe filled
    before the fork, by whichever worker is free, this process included; so
    with one item per worker every item runs where its index says. Children
    pickle their results back through a pipe each.

    If items raise, the exception of the lowest failing item is raised, as
    the serial loop would raise it, once the items already started finish:
    the worker whose item fails empties the queue. One raised in a child
    carries the child's traceback as its ``__cause__``, and one whose class
    does not unpickle comes back as a ``ChildProcessError`` naming it. Every
    child is reaped, and every pipe closed, before this returns or raises;
    children still running then are killed.
    """
    workers = min(workers, len(items))
    if workers <= 1:
        return [fn(x) for x in items]
    queue, run = _queue(workers, len(items))
    pipes = {}  # pid -> read end, of children not yet read
    running = []  # children not yet reaped
    try:
        for first in range(1, workers):
            read_end, write_end = os.pipe()
            try:
                pid = os.fork()
                if pid == 0:
                    _serve(fn, items, first, queue, run, write_end)
            except BaseException:
                os.close(read_end)
                raise
            finally:
                os.close(write_end)
            pipes[pid] = read_end
            running.append(pid)
        outcomes = [_run_items(fn, items, 0, queue, run)]
        for pid in list(running):
            with os.fdopen(pipes.pop(pid), "rb") as pipe:
                data = pipe.read()
            _, status = os.waitpid(pid, 0)
            running.remove(pid)
            if not data:
                raise ChildProcessError(
                    f"worker {pid} ended without a result (wait status {status})"
                )
            results, failure = pickle.loads(data)
            if failure is not None:
                index, exc, tb = failure
                exc.__cause__ = _RemoteTraceback(tb)
                failure = (index, exc)
            outcomes.append((results, failure))
    finally:
        os.close(queue)
        for read_end in pipes.values():
            os.close(read_end)
        if running:
            import signal

            for pid in running:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
    failures = [failure for _, failure in outcomes if failure is not None]
    if failures:
        raise min(failures, key=lambda failure: failure[0])[1]
    results = {}
    for share, _ in outcomes:
        results.update(share)
    return [results[index] for index in range(len(items))]
