"""Every module-level import in the package is used.

A name that a module imports but never reads is dead, unless the module
re-exports it in __all__ or the import line gives the reason it stays:
`# noqa: F401` with benchmark/tracing.py, which wraps the name at that
module attribute.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "attncert"
KEEP = ("# noqa: F401", "benchmark/tracing.py")


def _module_imports(tree):
    """(bound name, import node) for every import at module level,
    including those under a module-level if or try."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.If, ast.Try)):
            stack.extend(node.body + node.orelse + getattr(node, "finalbody", []))
            stack.extend(s for h in getattr(node, "handlers", []) for s in h.body)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                yield (alias.asname or alias.name.split(".")[0]), node
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield (alias.asname or alias.name), node


def _exported(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return set(ast.literal_eval(node.value))
    return set()


def _read_names(tree):
    """Every name the tree reads, those in string annotations included."""
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            read.add(node.id)
        if isinstance(node, (ast.arg, ast.AnnAssign)):
            note = node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            note = node.returns
        else:
            continue
        if isinstance(note, ast.Constant) and isinstance(note.value, str):
            read |= _read_names(ast.parse(note.value, mode="eval"))
    return read


def unused_imports(source: str):
    """The module-level imported names that the source never reads, as
    (line, name), leaving out those in __all__ and those whose import
    carries the KEEP reason."""
    tree = ast.parse(source)
    lines = source.splitlines()
    read = _read_names(tree)
    exported = _exported(tree)
    found = []
    for name, node in _module_imports(tree):
        text = "\n".join(lines[node.lineno - 1 : node.end_lineno])
        if name in read or name in exported or all(k in text for k in KEEP):
            continue
        found.append((node.lineno, name))
    return sorted(found)


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    assert unused_imports(path.read_text()) == []


def test_checker_finds_dead_and_keeps_declared_imports():
    source = "\n".join(
        (
            "from __future__ import annotations",
            "import math",
            "import numpy as np",
            "from typing import TYPE_CHECKING",
            "from .a import kept  # noqa: F401  benchmark/tracing.py wraps this name",
            "from .b import bare  # noqa: F401",
            "from .c import exported",
            "if TYPE_CHECKING:",
            "    from .d import Hint, Quoted",
            "__all__ = ['exported']",
            "x = np.zeros(1)",
            "def f(q: 'Quoted') -> None: ...",
        )
    )
    assert unused_imports(source) == [(2, "math"), (6, "bare"), (9, "Hint")]
