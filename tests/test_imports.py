"""Import and process rules of the ``taskweave`` modules, checked on the AST.

Every name a module imports is used in that module: a minimal unused-import
lint, so dead imports fail the test suite without an external linter.
``__init__.py`` is skipped: its imports are the package's public
re-exports. No module imports another one's private names, every
module-level name is read somewhere in the package (or exported by
``taskweave.__all__``, or a click command), only
``forking.py`` calls ``os.fork``, only ``curriculum.py`` builds an
``OptimState``: each Trainer makes its own fresh optimizer, only
``artifacts.py`` names ``SUMMARY_VERSION``: ``RunResult.finish`` stamps it
on every summary, and only ``artifacts.py`` writes files: every file a
command leaves goes through ``RunResult``, atomically and into the manifest.
"""

import ast
from pathlib import Path

import pytest

import taskweave

SRC = Path(__file__).resolve().parents[1] / "src" / "taskweave"
MODULES = sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py")


def _annotation_names(tree: ast.AST) -> set[str]:
    """Names inside string annotations such as ``-> "OptimState"``."""
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            every = args.posonlyargs + args.args + args.kwonlyargs + [args.vararg, args.kwarg]
            annotations += [a.annotation for a in every if a is not None]
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
    names = set()
    for annotation in annotations:
        for node in ast.walk(annotation) if annotation is not None else ():
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                parsed = ast.parse(node.value, mode="eval")
                names |= {n.id for n in ast.walk(parsed) if isinstance(n, ast.Name)}
    return names


def unused_imports(source: str) -> list[str]:
    """The names ``source`` binds by an import and never reads."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(imported - used - _annotation_names(tree))


class TestUnusedImports:
    def test_checker_finds_unused_names(self):
        source = (
            "from __future__ import annotations\n"
            "import os, os.path as osp\n"
            "import numpy.linalg\n"
            "from a import b, c as d\n"
            "def f() -> 'd':\n"
            "    from e import g\n"
            "    return b(numpy.linalg)\n"
        )
        assert unused_imports(source) == ["g", "os", "osp"]

    @pytest.mark.parametrize("module", MODULES)
    def test_module_uses_every_import(self, module):
        assert unused_imports((SRC / module).read_text()) == []


def private_imports(source: str) -> list[str]:
    """The leading-underscore names ``source`` imports from other modules."""
    return sorted(
        a.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom) and node.module != "__future__"
        for a in node.names
        if a.name.startswith("_")
    )


def fork_calls(source: str) -> int:
    """Calls of ``os.fork`` in ``source``, as ``os.fork()`` or through a name
    imported from ``os``."""
    tree = ast.parse(source)
    aliases = {
        a.asname or a.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "os"
        for a in node.names
        if a.name == "fork"
    }

    def is_fork(func: ast.expr) -> bool:
        if isinstance(func, ast.Attribute):
            return func.attr == "fork" and isinstance(func.value, ast.Name) and func.value.id == "os"
        return isinstance(func, ast.Name) and func.id in aliases

    return sum(is_fork(node.func) for node in ast.walk(tree) if isinstance(node, ast.Call))


def optim_state_builds(source: str) -> int:
    """Calls in ``source`` that build an ``OptimState``: ``OptimState(...)``
    or ``OptimState.for_params(...)``, by the class name, a name it is
    imported as, or an attribute of a module."""
    tree = ast.parse(source)
    names = {"OptimState"} | {
        a.asname
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for a in node.names
        if a.name == "OptimState" and a.asname
    }

    def is_build(func: ast.expr) -> bool:
        if isinstance(func, ast.Attribute) and func.attr == "for_params":
            func = func.value
        if isinstance(func, ast.Attribute):
            return func.attr == "OptimState"
        return isinstance(func, ast.Name) and func.id in names

    return sum(is_build(node.func) for node in ast.walk(tree) if isinstance(node, ast.Call))


def summary_version_names(source: str) -> int:
    """The places ``source`` names ``SUMMARY_VERSION``: as a name, as an
    attribute or in an import."""
    return sum(
        (isinstance(node, ast.Name) and node.id == "SUMMARY_VERSION")
        or (isinstance(node, ast.Attribute) and node.attr == "SUMMARY_VERSION")
        or (isinstance(node, ast.alias) and node.name == "SUMMARY_VERSION")
        for node in ast.walk(ast.parse(source))
    )


class TestPrivateImports:
    def test_checker_finds_private_names(self):
        source = "from __future__ import annotations\nfrom .a import _b, c, _d as e\n"
        assert private_imports(source) == ["_b", "_d"]

    @pytest.mark.parametrize("module", MODULES)
    def test_module_imports_no_private_name(self, module):
        assert private_imports((SRC / module).read_text()) == []


def _bound(stmt: ast.stmt) -> set[str]:
    """The names a module-level statement binds."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return {stmt.name}
    targets = stmt.targets if isinstance(stmt, ast.Assign) else [getattr(stmt, "target", None)]
    return {
        n.id
        for target in targets
        if target is not None
        for n in ast.walk(target)
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)
    }


def _read(stmt: ast.stmt) -> set[str]:
    """The names a statement reads, as a name, an attribute or inside a
    string annotation."""
    names = set(_annotation_names(stmt))
    for node in ast.walk(stmt):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def _click_command(stmt: ast.stmt) -> bool:
    """Whether ``stmt`` defines a click command, ``@<group>.command(...)``:
    the group reaches it, not its name."""
    return isinstance(stmt, ast.FunctionDef) and any(
        isinstance(d, ast.Call) and isinstance(d.func, ast.Attribute) and d.func.attr == "command"
        for d in stmt.decorator_list
    )


def dead_names(sources: dict[str, str], exported=()) -> list[str]:
    """The module-level names of ``sources`` (module name to source) that no
    module-level statement but their own definition reads, as
    ``module:name``. Dunder names, the ``exported`` names and click commands
    are exempt. A test that uses a name keeps nothing alive: only the
    package's own sources are read."""
    statements = [
        (module, stmt) for module, source in sources.items() for stmt in ast.parse(source).body
    ]
    reads = [_read(stmt) for _, stmt in statements]
    return sorted(
        f"{module}:{name}"
        for i, (module, stmt) in enumerate(statements)
        if not _click_command(stmt)
        for name in _bound(stmt)
        if not name.startswith("__")
        and name not in exported
        and not any(name in r for j, r in enumerate(reads) if j != i)
    )


class TestDeadNames:
    def test_checker_finds_unread_names(self):
        sources = {
            "a": (
                "_LIMIT = 3\n"
                "_SPARE: int = 4\n"
                "__version__ = '1'\n"
                "public = 5\n"
                "EXPORTED = 6\n"
                "def _loop(n):\n"
                "    return _loop(n - 1) if n else 0\n"
                "def _kept(x) -> '_Shape':\n"
                "    return x < _LIMIT\n"
                "class _Shape:\n"
                "    pass\n"
            ),
            "b": (
                "import click\n"
                "@click.group()\n"
                "def main():\n"
                "    pass\n"
                "@main.command('run')\n"
                "def run_cmd():\n"
                "    pass\n"
                "def f(m):\n"
                "    return m._kept(1)\n"
            ),
        }
        expected = ["a:_SPARE", "a:_loop", "a:public", "b:f"]
        assert dead_names(sources, exported=["EXPORTED"]) == expected

    def test_package_reads_every_name(self):
        sources = {p.stem: p.read_text() for p in sorted(SRC.glob("*.py"))}
        assert dead_names(sources, exported=taskweave.__all__) == []


class TestForkOnlyInTheForkHelper:
    def test_checker_counts_fork_calls(self):
        source = (
            "import os\n"
            "from os import fork as spawn\n"
            "os.fork()\n"
            "spawn()\n"
            "hasattr(os, 'fork')\n"
            "os.forkpty\n"
        )
        assert fork_calls(source) == 2

    @pytest.mark.parametrize("module", MODULES)
    def test_only_forking_calls_fork(self, module):
        expected = 1 if module == "forking.py" else 0
        assert fork_calls((SRC / module).read_text()) == expected


class TestOptimStateOnlyInTheTrainer:
    def test_checker_counts_optim_state_builds(self):
        source = (
            "import taskweave.encoder as enc\n"
            "from .encoder import OptimState as Adam\n"
            "OptimState(m, v)\n"
            "Adam.for_params(p)\n"
            "enc.OptimState.for_params(p, learning_rate=1.0)\n"
            "isinstance(s, OptimState)\n"
            "OptimState.step\n"
            "def f() -> 'OptimState':\n"
            "    return cls(m, v)\n"
        )
        assert optim_state_builds(source) == 3

    @pytest.mark.parametrize("module", MODULES)
    def test_only_curriculum_builds_optim_state(self, module):
        expected = 1 if module == "curriculum.py" else 0
        assert optim_state_builds((SRC / module).read_text()) == expected


class TestSummaryVersionOnlyInTheWriter:
    def test_checker_counts_summary_version_names(self):
        source = (
            "import taskweave.artifacts as a\n"
            "from .artifacts import SUMMARY_VERSION as V\n"
            "a.SUMMARY_VERSION\n"
            "SUMMARY_VERSION = 2\n"
            "summary = {'summary_version': V, 'SUMMARY_VERSION': 1}\n"
        )
        assert summary_version_names(source) == 3

    @pytest.mark.parametrize("module", MODULES)
    def test_only_artifacts_names_summary_version(self, module):
        names = summary_version_names((SRC / module).read_text())
        assert bool(names) == (module == "artifacts.py")


def file_writes(source: str) -> int:
    """Calls in ``source`` that write a file: ``open(...)`` or
    ``<path>.open(...)`` with a mode that writes (``w``, ``a``, ``x`` or
    ``+``, given by position or as ``mode=``), and ``write_bytes`` or
    ``write_text`` on anything. ``os.fdopen`` on a pipe is not a file."""

    def writes(node: ast.Call) -> bool:
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr in ("write_bytes", "write_text"):
            return True
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if name != "open":
            return False
        # The builtin takes the file first and the mode second; a path's
        # ``open`` takes the mode first.
        modes = node.args[1:2] if isinstance(func, ast.Name) else node.args[:1]
        modes += [k.value for k in node.keywords if k.arg == "mode"]
        return any(
            isinstance(m, ast.Constant) and isinstance(m.value, str) and set(m.value) & set("wax+")
            for m in modes
        )

    return sum(writes(node) for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Call))


class TestOnlyTheWriterWritesFiles:
    def test_checker_counts_file_writes(self):
        source = (
            "import os\n"
            "open(p, 'w')\n"
            "open(p, mode='ab')\n"
            "path.open('wb')\n"
            "path.open(mode='r+')\n"
            "path.write_bytes(b'')\n"
            "Path(p).write_text('')\n"
            "open(p)\n"
            "open(p, 'rb')\n"
            "path.open(newline='')\n"
            "os.fdopen(fd, 'wb')\n"
            "fh.write('')\n"
        )
        assert file_writes(source) == 6

    @pytest.mark.parametrize("module", MODULES)
    def test_only_artifacts_writes_files(self, module):
        writes = file_writes((SRC / module).read_text())
        assert bool(writes) == (module == "artifacts.py")
