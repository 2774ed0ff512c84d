"""Tests for the event bus and event records."""

import pytest

from repro.core import Event, EventBus, EventKind


def event(kind=EventKind.ROLE_EXECUTED, iteration=0, time=0.0, role=None, **payload):
    return Event(kind=kind, iteration=iteration, time=time, role=role, payload=payload)


class TestPublishSubscribe:
    def test_subscribers_receive_in_order(self):
        bus = EventBus()
        received = []
        bus.subscribe(lambda e: received.append(("a", e.iteration)))
        bus.subscribe(lambda e: received.append(("b", e.iteration)))
        bus.publish(event(iteration=1))
        assert received == [("a", 1), ("b", 1)]

    def test_unsubscribe(self):
        bus = EventBus()
        received = []
        unsubscribe = bus.subscribe(received.append)
        bus.publish(event(iteration=1))
        unsubscribe()
        bus.publish(event(iteration=2))
        assert len(received) == 1

    def test_unsubscribe_twice_is_harmless(self):
        bus = EventBus()
        unsubscribe = bus.subscribe(lambda e: None)
        unsubscribe()
        unsubscribe()

    def test_subscriber_errors_propagate(self):
        bus = EventBus()

        def bad(e):
            raise RuntimeError("boom")

        bus.subscribe(bad)
        with pytest.raises(RuntimeError):
            bus.publish(event())


class TestLog:
    def test_log_records_everything(self):
        bus = EventBus()
        bus.publish(event(kind=EventKind.ITERATION_STARTED))
        bus.publish(event(kind=EventKind.VIOLATION_DETECTED))
        assert len(bus.log) == 2

    def test_events_of_kind(self):
        bus = EventBus()
        bus.publish(event(kind=EventKind.ITERATION_STARTED, iteration=0))
        bus.publish(event(kind=EventKind.VIOLATION_DETECTED, iteration=1))
        bus.publish(event(kind=EventKind.VIOLATION_DETECTED, iteration=2))
        violations = bus.events_of_kind(EventKind.VIOLATION_DETECTED)
        assert [e.iteration for e in violations] == [1, 2]

    def test_keep_log_false(self):
        bus = EventBus(keep_log=False)
        bus.publish(event())
        assert bus.log == []

    def test_clear_keeps_subscribers(self):
        bus = EventBus()
        received = []
        bus.subscribe(received.append)
        bus.publish(event())
        bus.clear()
        assert bus.log == []
        bus.publish(event())
        assert len(received) == 2

    def test_log_returns_copy(self):
        bus = EventBus()
        bus.publish(event())
        log = bus.log
        log.clear()
        assert len(bus.log) == 1


class TestHeard:
    def test_a_logging_bus_is_heard(self):
        assert EventBus().heard

    def test_an_unlogged_bus_is_heard_only_while_subscribed(self):
        bus = EventBus(keep_log=False)
        assert not bus.heard
        unsubscribe = bus.subscribe(lambda event: None)
        assert bus.heard
        unsubscribe()
        assert not bus.heard


class TestLogCap:
    def test_unbounded_by_default(self):
        bus = EventBus()
        for i in range(1000):
            bus.publish(event(iteration=i))
        assert len(bus.log) == 1000
        assert bus.dropped_events == 0

    def test_max_log_keeps_newest(self):
        bus = EventBus(max_log=3)
        for i in range(5):
            bus.publish(event(iteration=i))
        assert [e.iteration for e in bus.log] == [2, 3, 4]
        assert bus.dropped_events == 2

    def test_subscribers_still_see_dropped_events(self):
        bus = EventBus(max_log=1)
        received = []
        bus.subscribe(received.append)
        for i in range(4):
            bus.publish(event(iteration=i))
        assert len(received) == 4

    def test_clear_resets_dropped_counter(self):
        bus = EventBus(max_log=1)
        bus.publish(event(iteration=0))
        bus.publish(event(iteration=1))
        assert bus.dropped_events == 1
        bus.clear()
        assert bus.dropped_events == 0
        bus.publish(event(iteration=2))
        assert len(bus.log) == 1 and bus.dropped_events == 0

    def test_invalid_max_log_rejected(self):
        with pytest.raises(ValueError):
            EventBus(max_log=0)
        with pytest.raises(ValueError):
            EventBus(max_log=-5)


class TestEventRendering:
    def test_str_includes_role(self):
        text = str(event(kind=EventKind.ROLE_EXECUTED, iteration=3, time=1.5, role="Monitor"))
        assert "it 3" in text and "Monitor" in text and "role_executed" in text

    def test_str_without_role(self):
        text = str(event(kind=EventKind.ITERATION_STARTED))
        assert "role=" not in text
