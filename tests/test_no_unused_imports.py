"""Every name a module imports is used.

An import that nothing reads costs every worker its load time and
misleads the reader about what a module depends on; deleting a feature
tends to leave such imports behind.  Each non-package module under
``src/repro`` and ``benchmarks/`` is parsed with :mod:`ast`: an imported
name must occur as a name somewhere in the module, or inside a string
constant (a quoted annotation, an ``__all__`` entry).  A string that is a
statement of its own (a docstring) is prose, not a use.
"""

import ast
import re
from pathlib import Path
from typing import Iterator, List, Set, Tuple

ROOT = Path(__file__).resolve().parents[1]
SCANNED = (ROOT / "src" / "repro", ROOT / "benchmarks")


def imported_names(tree: ast.Module) -> Iterator[Tuple[str, int]]:
    """(bound name, line) for every import in the module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield (alias.asname or alias.name.split(".")[0]), node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    yield (alias.asname or alias.name), node.lineno


def unused_imports(source: str) -> List[Tuple[str, int]]:
    tree = ast.parse(source)
    used: Set[str] = set()
    strings: List[str] = []
    prose = {
        id(node.value)
        for node in ast.walk(tree)
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
    }
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif (
            isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and id(node) not in prose
        ):
            strings.append(node.value)
    text = "\n".join(strings)
    return [
        (name, line)
        for name, line in imported_names(tree)
        if name not in used and not re.search(rf"\b{re.escape(name)}\b", text)
    ]


def test_the_scan_sees_an_unused_import():
    source = (
        "from typing import Dict, List, Optional\n"
        "import os.path\n"
        "import json\n"
        "x: 'Optional[int]' = None\n"
        "y: Dict = {}\n"
        "def f():\n"
        "    'Writes a json file.'\n"
    )
    assert unused_imports(source) == [("List", 1), ("os", 2), ("json", 3)]


def test_no_module_imports_a_name_it_never_uses():
    found = [
        f"{path.relative_to(ROOT)}:{line}: {name}"
        for directory in SCANNED
        for path in sorted(directory.rglob("*.py"))
        if path.name != "__init__.py"
        for name, line in unused_imports(path.read_text(encoding="utf-8"))
    ]
    assert not found, "unused imports:\n" + "\n".join(found)
