"""Smoke tests: the runnable examples must stay runnable.

Only the seconds-scale examples run here; the campaign-scale ones
(`intersection_case_study`, `attack_campaign`, `custom_role`) are exercised
through the experiment modules they wrap.
"""

import subprocess
import sys
from pathlib import Path

EXAMPLES = Path(__file__).resolve().parents[2] / "examples"


def run_example(name: str, *args: str) -> str:
    result = subprocess.run(
        [sys.executable, str(EXAMPLES / name), *args],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


class TestExamples:
    def test_quickstart(self):
        out = run_example("quickstart.py", "0")
        assert "assurance report" in out
        assert "TL;DR" in out
        assert "ghost_obstacle_attack" in out

    def test_stl_monitoring(self):
        out = run_example("stl_monitoring.py")
        assert "Online STL monitoring" in out
        assert "rho=" in out

    def test_config_driven(self):
        out = run_example("config_driven.py")
        assert "execution order" in out
        assert "STLMonitor" in out

    def test_process_control_second_domain(self):
        out = run_example("process_control.py", "0")
        assert "Water-tank assurance report" in out
        assert "sensor_bias" in out  # the domain-specific fault fired
