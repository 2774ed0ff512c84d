"""Regenerate ``perfbench/expected.json``, the digests the output checks pin.

Run from the repository root after an intentional behaviour change, in
the same change that updates EXPERIMENTS.md::

    python3 perfbench/pin.py

It runs the paper protocol once (~30 s) and the falsify searches of
every size, and records: one digest per canonical report row (the
``service`` jobs are checked against these too), the canonical report of
each ``paper`` size and of the held-out warm-up, and the corpus +
summary digest and evaluation count of each falsify search.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORK = HERE / "_work" / "pin"


def main() -> int:
    sys.path.insert(0, str(HERE.parent / "src"))
    sys.path.insert(0, str(HERE))
    from repro.experiments.campaign import execute_suite, write_campaign_report
    from repro.sim.scenario import ScenarioType
    from worker import (
        FALSIFY_HELD_OUT,
        FALSIFY_SEARCHES,
        HELD_OUT_SEED,
        row_digest,
        run_search,
        search_digest,
        sha256,
    )

    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)
    rows = {}
    reports = {}

    def pin_report(label, results):
        path = write_campaign_report(results, WORK / f"{label}.json")
        reports[label] = sha256(path.read_bytes())
        for scenario, block in json.loads(path.read_text())["scenarios"].items():
            for row in block["runs"]:
                rows[f"{scenario}:{row['seed']}"] = row_digest(row)

    full, _ = execute_suite(progress=None)
    pin_report("full", full)
    tiny = (ScenarioType.NOMINAL, ScenarioType.PEDESTRIAN)
    pin_report("tiny", {st: full[st][:2] for st in tiny})
    heldout, _ = execute_suite([ScenarioType.NOMINAL], [HELD_OUT_SEED], progress=None)
    pin_report("heldout", heldout)

    def search(family, seed, budget):
        out = WORK / f"search-{family}-{seed}-{budget}"
        result = run_search(family, seed, budget, out)
        return {"digest": search_digest(out), "evaluations": len(result.evaluations)}

    falsify = {"heldout": search(*FALSIFY_HELD_OUT)["digest"]}
    for size, searches in FALSIFY_SEARCHES.items():
        falsify[size] = {family: search(family, seed, budget)
                         for family, seed, budget in searches}

    expected = {"paper": {"report": reports, "rows": rows}, "falsify": falsify}
    (HERE / "expected.json").write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    print(json.dumps(falsify, indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
