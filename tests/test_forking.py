"""The fork helper: its schedule, and what a failing child sends back."""

import os
import time

import pytest

from taskweave import forking


class TwoArgumentError(Exception):
    """Passes one message to ``Exception`` but takes two arguments, so
    unpickling calls ``__init__`` with one and fails."""

    def __init__(self, what, where):
        super().__init__(f"{what} at {where}")


def fail_on_odd(item):
    if item % 2:
        raise TwoArgumentError("odd item", item)
    return item


@pytest.mark.skipif(
    not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")),
    reason="without fork the map is the plain loop",
)
@pytest.mark.usefixtures("leaves_no_process_or_fd")
class TestChildExceptions:
    def test_exception_that_does_not_unpickle_comes_back_named(self):
        # With 2 workers the child takes item 1, the lowest failing item.
        with pytest.raises(ChildProcessError) as caught:
            forking.forked_map(fail_on_odd, [0, 1, 2], 2)
        assert str(caught.value) == f"{__name__}.TwoArgumentError: odd item at 1"
        cause = caught.value.__cause__
        assert isinstance(cause, forking._RemoteTraceback)
        assert "TwoArgumentError: odd item at 1" in str(cause)
        assert "fail_on_odd" in str(cause)

    def test_one_worker_raises_the_exception_itself(self):
        with pytest.raises(TwoArgumentError, match="odd item at 1"):
            forking.forked_map(fail_on_odd, [0, 1, 2], 1)

    def test_exception_that_unpickles_keeps_its_type(self):
        def fail(item):
            if item == 1:
                raise KeyError(item)
            return item

        with pytest.raises(KeyError) as caught:
            forking.forked_map(fail, [0, 1], 2)
        assert caught.value.args == (1,)
        assert isinstance(caught.value.__cause__, forking._RemoteTraceback)


# Items a worker has computed so far, in this process; a forked child starts
# from a copy of this process's list, empty while no map runs here.
_computed = []


def record(item):
    """``item``'s square with the process that computed it and how many
    items that process had computed before it in this map."""
    result = (item * item, os.getpid(), len(_computed))
    _computed.append(item)
    return result


@pytest.mark.skipif(
    not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")),
    reason="without fork the map is the plain loop",
)
@pytest.mark.usefixtures("leaves_no_process_or_fd")
class TestSchedule:
    """Worker j (this process is worker 0) starts on item j; the items after
    the first ``workers`` go to whichever worker is free, and the results
    come back in item order."""

    N_ITEMS = 9

    @pytest.fixture(autouse=True)
    def fresh_record(self):
        _computed.clear()
        yield
        _computed.clear()

    @pytest.mark.parametrize("workers, n_items", [(1, 9), (2, 9), (3, 9), (50, 9), (8, 400)])
    def test_worker_j_starts_on_item_j(self, workers, n_items):
        items = list(range(n_items))
        outcome = forking.forked_map(record, items, workers)
        assert [square for square, _, _ in outcome] == [x * x for x in items]
        used = min(workers, n_items)
        first = outcome[:used]
        assert first[0][1] == os.getpid()
        assert len({pid for _, pid, _ in first}) == used
        assert all(position == 0 for _, _, position in first)
        # Each worker computed each item it took once, in the order it took
        # them: an item read by two workers would leave a gap in one.
        positions = {pid: [] for _, pid, _ in first}
        for _, pid, position in outcome:
            positions[pid].append(position)
        assert all(taken == list(range(len(taken))) for taken in positions.values())
        if workers == 1:
            assert positions == {os.getpid(): items}

    def test_idle_workers_take_the_queue(self):
        # This process holds item 0 until the children have drained the
        # queue, so every later item runs in a child.
        def slow_first(item):
            if item == 0:
                time.sleep(1.0)
            return record(item)

        outcome = forking.forked_map(slow_first, list(range(self.N_ITEMS)), 3)
        assert [pid for _, pid, _ in outcome].count(os.getpid()) == 1

    @pytest.mark.parametrize(
        "failing",
        [{0}, {1}, {2}, {4}, {4, 5}, {3, 5}, {8}, {1, 8}, {2, 3, 7}, {6, 7, 8}],
    )
    @pytest.mark.parametrize("workers", [2, 3])
    def test_lowest_failing_index_raises(self, failing, workers):
        def fail(item):
            if item in failing:
                raise ValueError(f"item {item}")
            return item

        with pytest.raises(ValueError) as caught:
            forking.forked_map(fail, list(range(self.N_ITEMS)), workers)
        assert str(caught.value) == f"item {min(failing)}"

    def test_no_item_starts_after_one_fails(self):
        # Every worker writes a byte per finished item. Without draining the
        # queue, the worker that did not fail ran all 59 other items.
        read_end, write_end = os.pipe()

        def slow(item):
            if item == 3:
                raise ValueError("item 3")
            time.sleep(0.01)
            os.write(write_end, b"x")
            return item

        try:
            try:
                with pytest.raises(ValueError, match="item 3"):
                    forking.forked_map(slow, list(range(60)), 2)
            finally:
                os.close(write_end)
            finished = len(os.read(read_end, 1 << 16))
        finally:
            os.close(read_end)
        # Items 0-2, and the item the other worker was running; the bound
        # leaves room for a slow scheduler, far below the 59 of a full run.
        assert 3 <= finished <= 20

    def test_more_items_than_queue_records(self):
        # One PIPE_BUF write holds PIPE_BUF // 4 records, fewer than the
        # 2998 queued items, so each record stands for a run of items.
        items = list(range(3000))
        queue, run = forking._queue(2, len(items))
        os.close(queue)
        assert run > 1
        assert forking.forked_map(lambda x: 3 * x, items, 2) == [3 * x for x in items]

    def test_no_items(self):
        assert forking.forked_map(record, [], 3) == []
