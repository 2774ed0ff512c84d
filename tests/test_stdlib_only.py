"""The package needs nothing beyond the standard library.

``pyproject.toml`` declares no dependencies, so every module must import
in an interpreter that sees no site-packages at all (``python -S``).
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

IMPORT_EVERY_MODULE = """
import importlib
import pkgutil

import repro

failed = []
for module in pkgutil.walk_packages(repro.__path__, "repro.", onerror=lambda name: None):
    if module.name.rsplit(".", 1)[-1] == "__main__":
        continue
    try:
        importlib.import_module(module.name)
    except ImportError as exc:
        failed.append("{}: {}".format(module.name, exc))
print("\\n".join(failed))
raise SystemExit(1 if failed else 0)
"""


def test_every_module_imports_without_site_packages():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-S", "-c", IMPORT_EVERY_MODULE],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
