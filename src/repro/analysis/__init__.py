"""Post-hoc analysis: aggregation, statistics and rendering."""

from .aggregate import (
    ScenarioAggregate,
    aggregate_scenario,
    aggregate_suite,
    overall_average,
)
from .stats import MeanStd, Rate, mean, sample_std
from .tables import render_bar_chart, render_table
from .trace_checks import (
    SAFETY_FORMULA,
    PropertyVerdict,
    check_trace,
    safety_robustness,
)

__all__ = [
    "ScenarioAggregate",
    "aggregate_scenario",
    "aggregate_suite",
    "overall_average",
    "Rate",
    "MeanStd",
    "mean",
    "sample_std",
    "render_table",
    "render_bar_chart",
    "check_trace",
    "PropertyVerdict",
    "SAFETY_FORMULA",
    "safety_robustness",
]
