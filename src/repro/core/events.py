"""Structured event records and a synchronous in-process event bus.

Every notable occurrence in the assurance loop — role executed, violation
flagged, fault injected, recovery activated, action executed — is published
as an :class:`Event`.  Subscribers (trace recorders, tests) receive events
synchronously in publication order, which keeps the loop deterministic and
the evidence trail replayable, a prerequisite for the "traceable evidence
suitable for building assurance cases" goal (§I).

Events are built only when heard: the orchestrator asks
:attr:`EventBus.heard` first and builds neither the :class:`Event` nor its
payload for a bus with no subscriber and no retained log.
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Deque, Dict, List, Optional


class EventKind(enum.Enum):
    """Taxonomy of assurance-loop events."""

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


@dataclass(frozen=True)
class Event:
    """One immutable record in the evidence trail.

    Attributes:
        kind: event taxonomy entry.
        iteration: assurance-loop iteration the event belongs to.
        time: simulated time (seconds) when the event occurred.
        role: name of the role involved, if any.
        payload: event-specific structured data (kept JSON-friendly).
    """

    kind: EventKind
    iteration: int
    time: float
    role: Optional[str] = None
    payload: Dict[str, Any] = field(default_factory=dict)

    def __str__(self) -> str:
        role = f" role={self.role}" if self.role else ""
        return f"[it {self.iteration} t={self.time:.1f}s] {self.kind.value}{role}"


Subscriber = Callable[[Event], None]


class EventBus:
    """Synchronous publish/subscribe hub for :class:`Event` records.

    Subscribers are invoked in registration order.  A subscriber raising is
    a programming error in the subscriber and propagates — the assurance
    loop must not silently lose evidence.  A bus that keeps no log and has
    no subscriber is not :attr:`heard`; publishers may then skip building
    the event, since nothing would receive it.

    Args:
        keep_log: retain published events in :attr:`log`.
        max_log: optional cap on the retained log.  When set, the log has
            ring-buffer semantics — the oldest events are dropped as new
            ones arrive and :attr:`dropped_events` counts the casualties —
            so unbounded campaign runs with ``keep_log=True`` hold memory
            constant.  Default ``None`` keeps the log unbounded.
    """

    def __init__(self, keep_log: bool = True, max_log: Optional[int] = None) -> None:
        if max_log is not None and max_log <= 0:
            raise ValueError(f"max_log must be positive or None, got {max_log}")
        self._subscribers: List[Subscriber] = []
        self._log: Deque[Event] = deque(maxlen=max_log)
        self._keep_log = keep_log
        self._max_log = max_log
        self.dropped_events = 0

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
        """True when a published event reaches anyone: a subscriber or the
        retained log."""
        return self._keep_log or bool(self._subscribers)

    def publish(self, event: Event) -> None:
        """Deliver ``event`` to all subscribers and append it to the log."""
        if self._keep_log:
            if self._max_log is not None and len(self._log) == self._max_log:
                self.dropped_events += 1
            self._log.append(event)
        for subscriber in list(self._subscribers):
            subscriber(event)

    @property
    def log(self) -> List[Event]:
        """The complete ordered event log (empty when ``keep_log=False``)."""
        return list(self._log)

    def events_of_kind(self, kind: EventKind) -> List[Event]:
        """All logged events of one kind, in order."""
        return [event for event in self._log if event.kind is kind]

    def clear(self) -> None:
        """Drop the accumulated log (subscribers stay registered)."""
        self._log.clear()
        self.dropped_events = 0
