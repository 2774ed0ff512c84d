#!/usr/bin/env python3
"""Quickstart: one assurance-loop run and its report.

Builds the paper's full role stack — LLM generator, geometric safety
monitor, security assessor, fault injector, performance oracle and the
emergency-brake recovery planner — over the ghost-obstacle attack
scenario, runs the iterative V&V loop, and prints the assurance report.

Run::

    python examples/quickstart.py [seed]
"""

import sys

from repro import ScenarioType, build_controller, build_report, build_scenario


def main() -> None:
    seed = int(sys.argv[1]) if len(sys.argv) > 1 else 0

    spec = build_scenario(ScenarioType.GHOST_ATTACK, seed)
    controller = build_controller(spec)
    # The event bus keeps nothing: a list subscribed before the run
    # collects the evidence trail for the report.
    trail = []
    controller.events.subscribe(trail.append)
    result = controller.run()

    print(build_report(result, events=trail))

    info = result.environment_info
    print("TL;DR")
    print(f"  scenario        : {info['scenario']} (seed {seed})")
    print(f"  monitor flags   : {len(result.metrics.violations_of('safety'))}")
    print(f"  faults injected : {len(result.metrics.faults)}")
    print(f"  recovery fired  : {result.metrics.recovery_activation_count} time(s)")
    print(f"  collision       : {info['collision']}")
    print(f"  clearance time  : {info['clearance_time']}")


if __name__ == "__main__":
    main()
