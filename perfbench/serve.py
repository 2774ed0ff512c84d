"""Run ``python -m repro.service`` with the benchmark's span wrappers installed.

Used for the ``service`` workload's traced pass::

    python3 perfbench/serve.py --spans SPANS.json serve --root ROOT --port 0

Everything after ``--spans`` goes to the service CLI unchanged.  The
spans are written to ``SPANS.json`` when the server shuts down (SIGTERM).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--spans", type=Path, required=True)
    args, service_argv = parser.parse_known_args()
    sys.path.insert(0, str(HERE.parent / "src"))
    sys.path.insert(0, str(HERE))
    from spans import Tracer

    tracer = Tracer().install()
    from repro.service.__main__ import main as service_main

    try:
        return service_main(service_argv)
    finally:
        tracer.uninstall()
        tracer.write(args.spans)


if __name__ == "__main__":
    sys.exit(main())
