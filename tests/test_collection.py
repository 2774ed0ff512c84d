"""No test directory is silently skipped.

pytest never descends into a directory whose name matches one of its
``norecursedirs`` patterns (the defaults include ``dist``, ``build`` and
``venv``), so a test module below such a directory is never collected
and its failures never show.  No directory between ``tests/`` and a
``test_*.py`` file may match one of those patterns.
"""

import fnmatch
from pathlib import Path
from typing import List, Sequence

TESTS = Path(__file__).resolve().parent


def _matches(directory: Path, pattern: str) -> bool:
    # Like pytest: a pattern without a separator matches the name alone.
    if "/" in pattern:
        return fnmatch.fnmatch(directory.as_posix(), f"*/{pattern}")
    return fnmatch.fnmatch(directory.name, pattern)


def skipped_directories(patterns: Sequence[str]) -> List[str]:
    found = set()
    for module in TESTS.rglob("test_*.py"):
        directory = module.parent
        while directory != TESTS:
            if any(_matches(directory, pattern) for pattern in patterns):
                found.add(directory.relative_to(TESTS.parent).as_posix())
            directory = directory.parent
    return sorted(found)


def test_no_test_directory_matches_norecursedirs(request):
    patterns = request.config.getini("norecursedirs")
    assert patterns  # pytest's defaults, unless pyproject.toml sets its own
    assert skipped_directories(patterns) == []
