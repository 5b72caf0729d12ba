"""Fork-based parallel map over independent items, for the package's own
use: the sliding-window task probes, one process per CPU
(:func:`cpu_workers`), and the forgetting comparison's three fine-tunes,
one process each whenever a second CPU is free.

A forked child runs the same code on a copy of this process's memory, so
every result is the serial one bit for bit, and nothing has to be picklable
but the results. Off Linux, or on one CPU, the map is the plain loop.
"""

from __future__ import annotations

import os
import pickle


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


def _run_share(fn, items: list, first: int, stride: int):
    """``fn`` over ``items[first::stride]`` in order, stopping at the first
    item that raises: (results, None), or (None, (index, exception)) with
    the failing item's index in ``items``."""
    results = []
    for index in range(first, len(items), stride):
        try:
            results.append(fn(items[index]))
        except Exception as exc:
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


def _serve_share(fn, items: list, first: int, stride: int, write_end: int):
    """Body of a forked worker: pickle its share's outcome into the pipe and
    leave by ``os._exit``, so the child never unwinds into the caller's
    frames (a test runner, a benchmark loop). A failure travels with its
    formatted traceback, as itself when it round-trips through pickle and
    as a ``ChildProcessError`` stand-in when it does not. A child that
    cannot send its outcome exits with status 1 and an empty pipe."""
    status = 1
    try:
        results, failure = _run_share(fn, items, first, stride)
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
    """``[fn(x) for x in items]``, with the items dealt round-robin over
    ``workers`` processes (1 is the plain loop).

    This process computes ``items[0::workers]`` while ``workers - 1`` forked
    children compute theirs and pickle the results back through a pipe each.
    If items raise, the exception of the lowest failing item is raised, as
    the serial loop would raise it; one raised in a child carries the
    child's traceback as its ``__cause__``, and one whose class does not
    unpickle comes back as a ``ChildProcessError`` naming it. Every child
    is reaped, and every pipe closed, before this returns or raises;
    children still running then are killed.
    """
    pipes = {}  # pid -> read end, of children not yet read
    running = []  # children not yet reaped
    try:
        for first in range(1, workers):
            read_end, write_end = os.pipe()
            try:
                pid = os.fork()
                if pid == 0:
                    _serve_share(fn, items, first, workers, write_end)
            except BaseException:
                os.close(read_end)
                raise
            finally:
                os.close(write_end)
            pipes[pid] = read_end
            running.append(pid)
        outcomes = {0: _run_share(fn, items, 0, workers)}
        for first, pid in enumerate(list(running), start=1):
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
            outcomes[first] = (results, failure)
    finally:
        for read_end in pipes.values():
            os.close(read_end)
        if running:
            import signal

            for pid in running:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
    failures = [failure for _, failure in outcomes.values() if failure is not None]
    if failures:
        raise min(failures, key=lambda failure: failure[0])[1]
    results = [None] * len(items)
    for first, (share, _) in outcomes.items():
        results[first::workers] = share
    return results
