"""Import and process rules of the ``taskweave`` modules, checked on the AST.

Every name a module imports is used in that module: a minimal unused-import
lint, so dead imports fail the test suite without an external linter.
``__init__.py`` is skipped: its imports are the package's public
re-exports. No module imports another one's private names, and only
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
