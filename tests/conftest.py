"""Fixtures shared by the test modules."""

import os

import pytest


@pytest.fixture
def leaves_no_process_or_fd():
    """The test leaves no child process to reap and no file descriptor open
    that it did not find."""
    before = len(os.listdir("/proc/self/fd"))
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert len(os.listdir("/proc/self/fd")) == before
