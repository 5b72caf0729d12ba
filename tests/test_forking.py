"""The fork helper's error path: what a failing child sends back."""

import os

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
