"""Every name a module imports at module level is used in that module.

An AST scan of the Python files under `src/` and `tests/`: each name bound
by a module-level `import` or `from ... import` must appear somewhere else
in the module as a name, or in the module's `__all__`.  `from __future__`
imports and star imports bind nothing to check.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
FILES = sorted(p for top in ("src", "tests") for p in (ROOT / top).rglob("*.py"))


def _module_imports(tree):
    """(bound name, line) for each name bound by an import statement at the top of the module."""
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    yield alias.asname or alias.name, node.lineno


def _exported(tree):
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            return set(ast.literal_eval(node.value))
    return set()


def unused_imports(source):
    """Sorted (line, name) pairs for the module-level imports that `source` never uses."""
    tree = ast.parse(source)
    used = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)}
    used |= _exported(tree)
    return sorted((line, name) for name, line in _module_imports(tree) if name not in used)


@pytest.mark.parametrize("path", FILES, ids=lambda p: str(p.relative_to(ROOT)))
def test_module_imports_are_used(path):
    assert unused_imports(path.read_text()) == []


def test_the_scan_finds_unused_names():
    source = ("from __future__ import annotations\n"
              "import os\n"
              "import os.path as osp\n"
              "from json import dumps, loads as parse\n"
              "import sys\n"
              "sys = None\n"
              "__all__ = ['dumps']\n"
              "def f():\n"
              "    import math\n"
              "    return os.sep\n")
    assert unused_imports(source) == [(3, "osp"), (4, "parse"), (5, "sys")]
