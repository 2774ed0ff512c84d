"""Trigger predicates: when a role runs within an iteration.

The orchestrator "sequences role execution based on dependencies or
triggers" (§III.B.1).  A trigger inspects the shared state (including the
outputs of roles that already ran this iteration) and decides whether the
role executes; a skipped role is published as a ``role_skipped`` event.
"""

from __future__ import annotations

from typing import Callable, Sequence

from .role import RoleContext, Verdict


class Trigger:
    """Base trigger; subclasses implement :meth:`should_run`."""

    def should_run(self, context: RoleContext) -> bool:
        raise NotImplementedError

    # Combinators --------------------------------------------------------
    def __and__(self, other: "Trigger") -> "Trigger":
        return _AllOf([self, other])

    def __or__(self, other: "Trigger") -> "Trigger":
        return _AnyOf([self, other])

    def __invert__(self) -> "Trigger":
        return _Negated(self)


class Always(Trigger):
    """Run on every iteration (the default)."""

    def should_run(self, context: RoleContext) -> bool:
        return True


class Never(Trigger):
    """Never run — useful to disable a role without rewiring the graph."""

    def should_run(self, context: RoleContext) -> bool:
        return False


class Periodic(Trigger):
    """Run every ``n`` iterations, starting at ``offset``."""

    def __init__(self, every: int, offset: int = 0) -> None:
        if every <= 0:
            raise ValueError(f"period must be positive, got {every}")
        self.every = every
        self.offset = offset

    def should_run(self, context: RoleContext) -> bool:
        return context.iteration % self.every == self.offset % self.every


class After(Trigger):
    """Run only once simulated time reaches ``start_time`` seconds."""

    def __init__(self, start_time: float) -> None:
        self.start_time = start_time

    def should_run(self, context: RoleContext) -> bool:
        return context.time >= self.start_time


class OnVerdict(Trigger):
    """Run when another role (earlier in the order) produced a verdict.

    This is how the paper's conditional FaultInjector ("FaultInjector
    (conditional)", §IV.B.2) and violation-activated RecoveryPlanner are
    expressed as data rather than orchestrator special cases.
    """

    def __init__(self, role_name: str, verdicts: Sequence[Verdict] = (Verdict.FAIL,)) -> None:
        self.role_name = role_name
        self.verdicts = tuple(verdicts)

    def should_run(self, context: RoleContext) -> bool:
        result = context.state.output_of(self.role_name)
        return result is not None and result.verdict in self.verdicts


class OnWorldState(Trigger):
    """Run when a predicate over the current world state holds."""

    def __init__(self, predicate: Callable[[RoleContext], bool], description: str = "") -> None:
        self._predicate = predicate
        self.description = description or getattr(predicate, "__name__", "predicate")

    def should_run(self, context: RoleContext) -> bool:
        return bool(self._predicate(context))


class _AllOf(Trigger):
    def __init__(self, triggers: Sequence[Trigger]) -> None:
        self.triggers = list(triggers)

    def should_run(self, context: RoleContext) -> bool:
        return all(t.should_run(context) for t in self.triggers)


class _AnyOf(Trigger):
    def __init__(self, triggers: Sequence[Trigger]) -> None:
        self.triggers = list(triggers)

    def should_run(self, context: RoleContext) -> bool:
        return any(t.should_run(context) for t in self.triggers)


class _Negated(Trigger):
    def __init__(self, trigger: Trigger) -> None:
        self.trigger = trigger

    def should_run(self, context: RoleContext) -> bool:
        return not self.trigger.should_run(context)
