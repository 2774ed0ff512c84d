"""Prompt templater for the LLM tactical planner (Fig. 3).

Assembles the textual planner prompt from the Table I sensor channels, the
mission goal, the few-shot examples and the running state (past actions and
their chain-of-thought explanations) — reproducing the pipeline "these data
streams, alongside the running state, feed into a prompt templater to
generate a textual representation" (§IV, Fig. 3).

The prompt is rendered when the planner consults the model, which is when
a real deployment would send it: on each fresh decision, not on the ticks
that hold the previous one (:class:`~repro.llm.planner.LLMPlanner`).  The
surrogate consumes structured features rather than parsing this text back,
so the text itself is not read downstream; its rough token count is
reported per tick as the Generator's ``prompt_tokens``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from ..sim.actions import Maneuver
from ..sim.sensors import SensorSuite

#: The instruction header of every planner prompt.
SYSTEM_PREAMBLE = (
    "You are the tactical planner of an autonomous vehicle approaching an "
    "unsignalized four-way intersection. Based on the sensor summaries and "
    "your goal, choose exactly one maneuver from: "
    + ", ".join(m.value for m in Maneuver)
    + ". Think step by step, then answer with the maneuver name."
)

#: Compact few-shot examples embedded in every prompt (§IV.B: "The LLM is
#: provided few-shot examples and a Chain-of-Thought (CoT) prompt").
FEW_SHOT_EXAMPLES: Tuple[Tuple[str, str, str], ...] = (
    (
        "LiDAR: no obstacles within range. Vehicle speed: 7.5 m/s. "
        "Ego is 18.0 m before the intersection entry.",
        "The approach is clear and nothing conflicts with my crossing window.",
        Maneuver.PROCEED.value,
    ),
    (
        "LiDAR obstacles: vehicle #4: 21.0 m ahead-right, speed 7.8 m/s closing. "
        "Ego is 9.0 m before the intersection entry.",
        "A crossing vehicle reaches the box at the same time as me; it is on my "
        "right and has priority, so I should let it pass.",
        Maneuver.YIELD.value,
    ),
    (
        "LiDAR obstacles: pedestrian #1002: 12.0 m ahead on the crossing. "
        "Vehicle speed: 6.0 m/s.",
        "A pedestrian is crossing my lane directly ahead; I must not enter the "
        "crosswalk until it is clear.",
        Maneuver.WAIT.value,
    ),
)


@dataclass(frozen=True)
class HistoryEntry:
    """One past decision carried in the running state (Fig. 3)."""

    time: float
    maneuver: Maneuver
    explanation: str


@dataclass(frozen=True)
class PlannerPrompt:
    """A fully assembled prompt plus bookkeeping metadata."""

    text: str
    channel_count: int
    history_entries: int
    #: Rough token estimate (whitespace splitting x 1.3), counted once when
    #: the prompt is built.
    approx_tokens: int = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "approx_tokens", int(len(self.text.split()) * 1.3))


def render_history(history: Sequence[HistoryEntry], limit: int = 5) -> str:
    """Render the most recent past actions + CoT explanations."""
    if not history:
        return "No previous decisions this run."
    lines = []
    for entry in list(history)[-limit:]:
        lines.append(
            f"- t={entry.time:.1f}s: chose {entry.maneuver.value} — {entry.explanation}"
        )
    return "\n".join(lines)


def build_prompt(
    suite: SensorSuite,
    goal: str,
    history: Optional[Sequence[HistoryEntry]] = None,
    include_few_shot: bool = True,
) -> PlannerPrompt:
    """Assemble the planner prompt for one tick.

    Args:
        suite: rendered Table I sensor channels.
        goal: the high-level mission, e.g. "proceed straight".
        history: past actions with CoT explanations (running state).
        include_few_shot: embed the few-shot examples block.
    """
    sections: List[str] = [SYSTEM_PREAMBLE, ""]

    if include_few_shot:
        sections.append("### Examples")
        for observation, thought, answer in FEW_SHOT_EXAMPLES:
            sections.append(f"Observation: {observation}")
            sections.append(f"Reasoning: {thought}")
            sections.append(f"Maneuver: {answer}")
            sections.append("")

    sections.append("### Current sensor summaries")
    channels = suite.channels()
    for name, text in channels.items():
        sections.append(f"[{name}] {text}")
    sections.append("")

    sections.append("### Recent decisions")
    sections.append(render_history(history or []))
    sections.append("")

    sections.append(f"### Goal\n{goal}")
    sections.append("### Decision\nReasoning:")

    return PlannerPrompt(
        text="\n".join(sections),
        channel_count=len(channels),
        history_entries=len(history or []),
    )
