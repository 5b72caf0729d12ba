"""Fixtures and helpers shared by the test modules."""

import importlib.util
import os
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture
def leaves_no_process_or_fd():
    """The test leaves no child process to reap and no file descriptor open
    that it did not find."""
    before = len(os.listdir("/proc/self/fd"))
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert len(os.listdir("/proc/self/fd")) == before


def _load_perfbench(setitem, name: str, rel: str):
    spec = importlib.util.spec_from_file_location(name, ROOT / "perfbench" / rel)
    module = importlib.util.module_from_spec(spec)
    setitem(sys.modules, name, module)
    spec.loader.exec_module(module)
    return module


def load_tracer(setitem, name="perfbench_tracer"):
    """``perfbench/tracer.py``, loaded by path as the module ``name``.
    ``setitem(sys.modules, name, module)`` registers it
    (``monkeypatch.setitem`` undoes that after a test)."""
    return _load_perfbench(setitem, name, "tracer.py")


def load_worker(setitem):
    """``perfbench/worker.py``, loaded by path and registered as
    :func:`load_tracer` registers the tracer, which it imports as the
    top-level module ``tracer``."""
    load_tracer(setitem, "tracer")
    return _load_perfbench(setitem, "perfbench_worker", "worker.py")


def tree_bytes(root: Path) -> dict[str, bytes]:
    """Every file under ``root``, keyed by its path relative to ``root``."""
    return {
        str(path.relative_to(root)): path.read_bytes()
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }
