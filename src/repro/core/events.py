"""Structured event records and a synchronous in-process event bus.

Every notable occurrence in the assurance loop — a violation flagged, a
fault injected, a recovery activated, a role skipped or retried, an
action held, a tick finished — is published as an :class:`Event`.
Subscribers (trace recorders, tests) receive events synchronously in
publication order, which keeps the loop deterministic and the evidence
trail replayable, a prerequisite for the "traceable evidence suitable
for building assurance cases" goal (§I).

A tick's other milestones (started, state updated, each role executed,
action executed) are not published: the controller keeps them in its
open :class:`Tick`, and the run's ``StateManager`` history keeps each
finished tick.  The bus keeps nothing; to collect a run's events,
subscribe a list before ``run()``:
``controller.events.subscribe(trail.append)``.

Events are built only when heard: the orchestrator asks
:attr:`EventBus.heard` first and builds neither the :class:`Event` nor its
payload for a bus with no subscriber.
"""

from __future__ import annotations

import enum
from typing import Any, Callable, Dict, List, Optional, Tuple


class EventKind(enum.Enum):
    """Taxonomy of assurance-loop events.

    The controller never publishes ``iteration_started``,
    ``state_updated``, ``role_executed`` or ``action_executed``; trace
    readers regenerate them from each tick record.
    """

    ITERATION_STARTED = "iteration_started"
    STATE_UPDATED = "state_updated"
    ROLE_EXECUTED = "role_executed"
    ROLE_SKIPPED = "role_skipped"
    ROLE_RETRIED = "role_retried"
    VIOLATION_DETECTED = "violation_detected"
    FAULT_INJECTED = "fault_injected"
    RECOVERY_ACTIVATED = "recovery_activated"
    DEADLINE_EXCEEDED = "deadline_exceeded"
    DEGRADED_MODE_ENTERED = "degraded_mode_entered"
    DEGRADED_MODE_EXITED = "degraded_mode_exited"
    ACTION_HELD = "action_held"
    ACTION_EXECUTED = "action_executed"
    ITERATION_FINISHED = "iteration_finished"
    RUN_TERMINATED = "run_terminated"


class Event:
    """One record in the evidence trail.

    Every subscriber receives the same object, so an event is not
    mutated once published.

    Attributes:
        kind: event taxonomy entry.
        iteration: assurance-loop iteration the event belongs to.
        time: simulated time (seconds) when the event occurred.
        role: name of the role involved, if any.
        payload: event-specific structured data (kept JSON-friendly); a
            fresh empty dict when not given.
    """

    __slots__ = ("kind", "iteration", "time", "role", "payload")

    def __init__(
        self,
        kind: EventKind,
        iteration: int,
        time: float,
        role: Optional[str] = None,
        payload: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.kind = kind
        self.iteration = iteration
        self.time = time
        self.role = role
        self.payload = {} if payload is None else payload

    def __str__(self) -> str:
        role = f" role={self.role}" if self.role else ""
        return f"[it {self.iteration} t={self.time:.1f}s] {self.kind.value}{role}"


class Tick:
    """The controller's open tick: what a trace writes as one record.

    The controller opens a tick when an iteration starts (only while its
    bus is heard) and clears it once the tick's ``iteration_finished``
    event is out; a tick cut short by a crash stays open.

    Attributes:
        iteration: the tick's iteration.
        time: simulated time at the tick's start.
        start: wall clock (``time.perf_counter()``) at the tick's start.
        roles: ``(role, verdict, latency_s)`` per executed role, in
            execution order; ``None`` until the world state is updated.
        action: ``(action, source)`` once the action is executed, the
            action described as a string.
    """

    __slots__ = ("iteration", "time", "start", "roles", "action")

    def __init__(self, iteration: int, time: float, start: float) -> None:
        self.iteration = iteration
        self.time = time
        self.start = start
        self.roles: Optional[List[Tuple[str, str, float]]] = None
        self.action: Optional[Tuple[str, str]] = None


Subscriber = Callable[[Event], None]


class EventBus:
    """Synchronous publish/subscribe fan-out of :class:`Event` records.

    Subscribers are invoked in registration order.  A subscriber raising is
    a programming error in the subscriber and propagates — the assurance
    loop must not silently lose evidence.  The bus retains nothing; a bus
    without subscribers is not :attr:`heard`, and publishers may then skip
    building the event, since nothing would receive it.
    """

    def __init__(self) -> None:
        self._subscribers: List[Subscriber] = []

    def subscribe(self, subscriber: Subscriber) -> Callable[[], None]:
        """Register ``subscriber``; returns an unsubscribe callable."""
        self._subscribers.append(subscriber)

        def unsubscribe() -> None:
            try:
                self._subscribers.remove(subscriber)
            except ValueError:
                pass  # already removed; unsubscribing twice is harmless

        return unsubscribe

    @property
    def heard(self) -> bool:
        """True while the bus has a subscriber."""
        return bool(self._subscribers)

    def publish(self, event: Event) -> None:
        """Deliver ``event`` to every subscriber, in registration order."""
        for subscriber in list(self._subscribers):
            subscriber(event)
