#!/usr/bin/env python3
"""Security campaign: compare the planner under both attack types.

Runs nominal / ghost-obstacle / trajectory-spoofing runs over a handful of
seeds, reads each run's history, and prints a side-by-side impact summary plus
the evidence trail of one attacked run — the §V.B analysis as a script.

Run::

    python examples/attack_campaign.py [seeds]
"""

import sys

from repro import ScenarioType, build_controller, build_scenario
from repro.analysis import MeanStd, Rate, render_table
from repro.core import EventKind


def run_scenario(scenario: ScenarioType, seeds: range):
    outcomes = []
    example_events = None
    for seed in seeds:
        controller = build_controller(build_scenario(scenario, seed))
        # The event bus keeps nothing; a subscribed list collects the trail.
        events = []
        controller.events.subscribe(events.append)
        result = controller.run()
        outcomes.append((result, controller.state))
        if example_events is None and result.metrics.faults:
            example_events = events
    return outcomes, example_events


def main() -> None:
    n = int(sys.argv[1]) if len(sys.argv) > 1 else 6
    seeds = range(n)

    rows = []
    spoof_events = None
    for scenario in (
        ScenarioType.NOMINAL,
        ScenarioType.GHOST_ATTACK,
        ScenarioType.SPOOF_ATTACK,
    ):
        outcomes, events = run_scenario(scenario, seeds)
        if scenario is ScenarioType.SPOOF_ATTACK:
            spoof_events = events
        flagged = sum(
            1 for result, _ in outcomes if result.metrics.violations_of("safety")
        )
        collisions = sum(
            1 for result, _ in outcomes if result.environment_info["collision"]
        )
        gridlocks = sum(
            1 for result, _ in outcomes if result.environment_info["gridlocked"]
        )
        clearances = [
            result.environment_info["clearance_time"]
            for result, _ in outcomes
            if result.environment_info["clearance_time"] is not None
        ]
        min_speed_dips = [
            min(record.world_state["ego_speed"] for record in state.run_history())
            for _, state in outcomes
        ]
        rows.append(
            [
                scenario.value,
                str(Rate(flagged, n)),
                str(Rate(collisions, n)),
                str(Rate(gridlocks, n)),
                str(MeanStd.of(clearances)) if clearances else "n/a",
                f"{sum(1 for v in min_speed_dips if v < 0.5)}/{n}",
            ]
        )

    print(
        render_table(
            headers=[
                "Scenario",
                "Monitor flagged",
                "Collisions",
                "Gridlock",
                "Clearance (s)",
                "Runs forced to a stop",
            ],
            rows=rows,
            title="Attack impact summary",
        )
    )

    if spoof_events is not None:
        print("\nEvidence trail of one spoofed run (first 12 notable events):")
        notable = [
            e
            for e in spoof_events
            if e.kind
            in (
                EventKind.FAULT_INJECTED,
                EventKind.VIOLATION_DETECTED,
                EventKind.RECOVERY_ACTIVATED,
            )
        ]
        for event in notable[:12]:
            detail = event.payload.get("detail") or event.payload.get("action", "")
            print(f"  {event} {detail}")


if __name__ == "__main__":
    main()
