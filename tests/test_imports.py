"""Every name a library module imports is used in that module, every
module-level private function and private constant is used somewhere in the
library, and every public function is reached from the library, its CLI or
its ``__init__`` exports, but for the named exceptions.

``__init__.py`` is skipped for imports: its imports are the package's
re-exports.
"""

import ast
from collections import Counter
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "quboreduce"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
SOURCES = {p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


def test_detects_unused_import():
    assert unused_imports("import os\nimport numpy as np\nfrom a import b, c\nc()\n") == [
        "b (line 3)", "np (line 2)", "os (line 1)",
    ]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def referenced_names(node: ast.AST) -> Counter:
    names = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            names[sub.attr] += 1
        elif isinstance(sub, ast.ImportFrom):
            names.update(alias.name for alias in sub.names)
    return names


def unreferenced_functions(sources: dict[str, str], public: bool = False) -> list[str]:
    """Module-level ``_name`` functions, or with ``public`` the others, that
    no library module refers to outside their own ``def``.  An import in
    ``__init__.py``, the package's export, is a reference."""
    trees = {name: ast.parse(text) for name, text in sources.items()}
    everywhere = sum((referenced_names(tree) for tree in trees.values()), Counter())
    return sorted(
        f"{name}: {node.name}"
        for name, tree in trees.items()
        for node in tree.body
        if isinstance(node, ast.FunctionDef)
        and node.name.startswith("_") != public
        and everywhere[node.name] == referenced_names(node)[node.name]
    )


def test_detects_unused_private_function():
    sources = {
        "a.py": "def _kept():\n    pass\ndef _dead():\n    _dead()\ndef _imported():\n    pass\n",
        "b.py": "from .a import _imported\n_kept()\n",
    }
    assert unreferenced_functions(sources) == ["a.py: _dead"]


def test_no_unused_private_functions():
    assert unreferenced_functions(SOURCES) == []


# Public functions that nothing in the library reaches, each kept for a reason.
UNREACHED_PUBLIC_FUNCTIONS = {
    "factoring.py: factoring_trajectory": "perfbench/spans.py TARGETS wraps it by name",
    "factoring.py: is_conflicting": "the documented exhaustive oracle of the conflict test",
}


def test_detects_unreached_public_function():
    sources = {
        "a.py": "def called():\n    pass\ndef dead():\n    dead()\n"
                "def exported():\n    pass\ndef _private():\n    pass\n",
        "cli.py": "from .a import called\ndef main():\n    called()\n",
        "__init__.py": "from .a import exported\n",
        "__main__.py": "from .cli import main\nmain()\n",
    }
    assert unreferenced_functions(sources, public=True) == ["a.py: dead"]


def test_every_public_function_is_reached():
    assert unreferenced_functions(SOURCES, public=True) == sorted(UNREACHED_PUBLIC_FUNCTIONS)


def unused_private_constants(sources: dict[str, str]) -> list[str]:
    """Module-level ``_NAME = ...`` constants that no library module refers
    to outside their own assignment."""
    trees = {name: ast.parse(text) for name, text in sources.items()}
    everywhere = sum((referenced_names(tree) for tree in trees.values()), Counter())
    return sorted(
        f"{name}: {target.id}"
        for name, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.Assign, ast.AnnAssign))
        for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
        if isinstance(target, ast.Name)
        and target.id.startswith("_")
        and not target.id.startswith("__")
        and everywhere[target.id] == referenced_names(node)[target.id]
    )


def test_detects_unused_private_constant():
    sources = {
        "a.py": "_KEPT = 1\n_DEAD = 2\n_IMPORTED: int = 3\n_STRANDED = 1 / 2\n__all__ = []\nPUBLIC = 4\n",
        "b.py": "from .a import _IMPORTED\nx = _KEPT\n_DEAD_TOO = _IMPORTED\n",
    }
    assert unused_private_constants(sources) == ["a.py: _DEAD", "a.py: _STRANDED", "b.py: _DEAD_TOO"]


def test_no_unused_private_constants():
    assert unused_private_constants(SOURCES) == []
