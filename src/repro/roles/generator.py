"""Generator roles: the AI component Under Test and its baselines.

The Generator "represents the primary AI component Under Test (AUT) ...
takes current state/context, generates an action, plan, or output"
(§III.B.2).  :class:`LLMGeneratorRole` wraps the surrogate LLM planner;
:class:`RuleBasedPlannerRole` is the deterministic domain-specific baseline
the paper contrasts against in its rationale for using an LLM (§IV.A.1) —
and the planner ablation in :mod:`repro.experiments.ablations`.
"""

from __future__ import annotations

from typing import Optional, Tuple

from ..core.role import Role, RoleContext, RoleKind, RoleResult, Verdict
from ..llm.features import observe
from ..llm.planner import LLMPlanner
from ..sim.actions import Maneuver
from ..sim.intersection import Route
from ..sim.perception import PerceptionSnapshot

#: World-state keys the generator roles consume (provided by the
#: environment interface).
PERCEPTION_KEY = "perception"
EGO_S_KEY = "ego_s"
EGO_ROUTE_KEY = "ego_route"
EGO_ACCEL_KEY = "ego_acceleration"


class GeneratorUnavailableError(RuntimeError):
    """The generator's model backend is unreachable for this call.

    Raised by :class:`LLMGeneratorRole` inside its configured
    ``crash_window`` to emulate a transient provider outage — exactly the
    failure class the orchestrator's retry/circuit-breaker layer exists to
    contain.
    """


class LLMGeneratorRole(Role):
    """The LLM tactical planner as the AUT.

    Emits the proposed maneuver in ``data['action']`` and its
    chain-of-thought explanation in the narrative, mirroring Fig. 3 where
    "Llama 3.2 generates both control outputs and corresponding
    explanations".  ``data['prompt_tokens']`` is the token estimate of the
    prompt behind the proposed maneuver: on a held tick (``data['fresh']``
    false), that of the held decision's prompt.

    Args:
        planner: the planning pipeline (a default-configured
            :class:`~repro.llm.planner.LLMPlanner` when omitted).
        name: role name in the graph.
        crash_window: optional ``(start, stop)`` iteration interval
            (half-open) during which every :meth:`execute` raises
            :class:`GeneratorUnavailableError` — a deterministic outage
            injection for resilience experiments.
    """

    kind = RoleKind.GENERATOR

    def __init__(
        self,
        planner: Optional[LLMPlanner] = None,
        name: str = "Generator",
        crash_window: Optional[Tuple[int, int]] = None,
    ) -> None:
        super().__init__(name)
        self.planner = planner or LLMPlanner()
        if crash_window is not None:
            start, stop = crash_window
            if start < 0 or stop < start:
                raise ValueError(
                    f"crash_window must be a (start, stop) interval with "
                    f"0 <= start <= stop, got {crash_window!r}"
                )
        self.crash_window = crash_window

    def reset(self) -> None:
        self.planner.reset()

    def execute(self, context: RoleContext) -> RoleResult:
        if self.crash_window is not None:
            start, stop = self.crash_window
            if start <= context.iteration < stop:
                raise GeneratorUnavailableError(
                    f"model backend unavailable (injected outage, iteration "
                    f"{context.iteration} in window [{start}, {stop}))"
                )
        snapshot: PerceptionSnapshot = context.state.require_world(PERCEPTION_KEY)
        route: Route = context.state.require_world(EGO_ROUTE_KEY)
        ego_s: float = context.state.require_world(EGO_S_KEY)
        ego_accel: float = context.state.world(EGO_ACCEL_KEY, 0.0)

        output = self.planner.plan(snapshot, route, ego_s, ego_accel)

        # Running state: past actions + CoT, per Fig. 3.
        context.state.remember("last_decision", output.maneuver)
        context.state.remember("last_explanation", output.explanation)
        if output.fresh and output.failure_mode:
            context.metrics.increment(f"llm.failure.{output.failure_mode}")

        return RoleResult(
            verdict=Verdict.INFO,
            data={
                "action": output.maneuver,
                "failure_mode": output.failure_mode,
                "fresh": output.fresh,
                "prompt_tokens": output.prompt.approx_tokens,
                "threat_count": len(output.observation.threats),
                "max_severity": output.observation.max_severity,
            },
            scores={"max_threat_severity": output.observation.max_severity},
            narrative=output.explanation,
        )


class RuleBasedPlannerRole(Role):
    """Deterministic conservative baseline planner (no LLM).

    Implements textbook gap acceptance over the same feature extraction as
    the surrogate: wait for pressing conflicts, yield for moderate ones,
    otherwise proceed.  Having the baseline consume identical features
    isolates the decision policy as the experimental variable.
    """

    kind = RoleKind.GENERATOR

    #: Severity above which the baseline stops before the line.
    WAIT_SEVERITY = 0.6

    def __init__(self, name: str = "RuleBasedPlanner") -> None:
        super().__init__(name)

    def execute(self, context: RoleContext) -> RoleResult:
        snapshot: PerceptionSnapshot = context.state.require_world(PERCEPTION_KEY)
        route: Route = context.state.require_world(EGO_ROUTE_KEY)
        ego_s: float = context.state.require_world(EGO_S_KEY)

        obs = observe(snapshot, route, ego_s)
        if obs.in_intersection or obs.past_intersection:
            maneuver = Maneuver.PROCEED
            reason = "committed: clearing the intersection"
        elif obs.obstacle_ahead_distance < 12.0:
            maneuver = Maneuver.WAIT
            reason = f"obstacle ahead at {obs.obstacle_ahead_distance:.0f} m"
        else:
            pressing = obs.pressing_threats
            if any(t.severity >= self.WAIT_SEVERITY or t.on_ego_path for t in pressing):
                maneuver = Maneuver.WAIT
                reason = "pressing conflict: stopping at the line"
            elif pressing:
                maneuver = Maneuver.YIELD
                reason = "moderate conflict: yielding"
            else:
                maneuver = Maneuver.PROCEED
                reason = "crossing window clear"

        return RoleResult(
            verdict=Verdict.INFO,
            data={
                "action": maneuver,
                "failure_mode": None,
                "fresh": True,
                "threat_count": len(obs.threats),
                "max_severity": obs.max_severity,
            },
            scores={"max_threat_severity": obs.max_severity},
            narrative=f"rule-based: {reason}",
        )
