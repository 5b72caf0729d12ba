"""Import and process rules of the ``taskweave`` modules, checked on the AST.

Every name a module imports is used in that module: a minimal unused-import
lint, so dead imports fail the test suite without an external linter.
``__init__.py`` is skipped: its imports are the package's public
re-exports. No module imports another one's private names, every
module-level private name is read somewhere in the package, and only
``forking.py`` calls ``os.fork``.
"""

import ast
from pathlib import Path

import pytest

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


def dead_private_names(sources: dict[str, str]) -> list[str]:
    """The module-level ``_names`` of ``sources`` (module name to source)
    that no module-level statement but their own definition reads, as
    ``module:name``. A test that uses a helper keeps nothing alive: only
    the package's own sources are read."""
    statements = [
        (module, stmt) for module, source in sources.items() for stmt in ast.parse(source).body
    ]
    reads = [_read(stmt) for _, stmt in statements]
    return sorted(
        f"{module}:{name}"
        for i, (module, stmt) in enumerate(statements)
        for name in _bound(stmt)
        if name.startswith("_")
        and not name.startswith("__")
        and not any(name in r for j, r in enumerate(reads) if j != i)
    )


class TestDeadPrivateNames:
    def test_checker_finds_unread_private_names(self):
        sources = {
            "a": (
                "_LIMIT = 3\n"
                "_SPARE: int = 4\n"
                "__version__ = '1'\n"
                "public = 5\n"
                "def _loop(n):\n"
                "    return _loop(n - 1) if n else 0\n"
                "def _kept(x) -> '_Shape':\n"
                "    return x < _LIMIT\n"
                "class _Shape:\n"
                "    pass\n"
            ),
            "b": "def f(m):\n    return m._kept(1)\n",
        }
        assert dead_private_names(sources) == ["a:_SPARE", "a:_loop"]

    def test_package_reads_every_private_name(self):
        sources = {p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}
        assert dead_private_names(sources) == []


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
