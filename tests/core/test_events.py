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


class TestEvent:
    def test_positional_and_keyword_construction_agree(self):
        by_keyword = event(
            kind=EventKind.FAULT_INJECTED, iteration=2, time=0.2, role="I", fault="ghost"
        )
        positional = Event(EventKind.FAULT_INJECTED, 2, 0.2, "I", {"fault": "ghost"})
        for name in ("kind", "iteration", "time", "role", "payload"):
            assert getattr(by_keyword, name) == getattr(positional, name)

    def test_default_payloads_are_not_shared(self):
        first = Event(EventKind.ITERATION_FINISHED, 0, 0.0)
        second = Event(EventKind.ITERATION_FINISHED, 1, 0.1)
        assert (first.role, first.payload) == (None, {})
        first.payload["note"] = "mine"
        assert second.payload == {}

    def test_an_event_has_only_its_five_fields(self):
        with pytest.raises(AttributeError):
            Event(EventKind.ITERATION_FINISHED, 0, 0.0).extra = 1


class TestLog:
    """The bus keeps no log: a subscribed list is the log."""

    def test_log_records_everything(self):
        bus = EventBus()
        log = []
        bus.subscribe(log.append)
        bus.publish(event(kind=EventKind.ITERATION_FINISHED))
        bus.publish(event(kind=EventKind.VIOLATION_DETECTED))
        assert [e.kind for e in log] == [
            EventKind.ITERATION_FINISHED,
            EventKind.VIOLATION_DETECTED,
        ]

    def test_keep_log_false(self):
        # Nothing to switch off: the retired keyword is refused.
        with pytest.raises(TypeError):
            EventBus(keep_log=False)


class TestHeard:
    def test_a_logging_bus_is_heard(self):
        bus = EventBus()
        bus.subscribe([].append)
        assert bus.heard

    def test_an_unlogged_bus_is_heard_only_while_subscribed(self):
        bus = EventBus()
        assert not bus.heard
        unsubscribe = bus.subscribe(lambda event: None)
        assert bus.heard
        unsubscribe()
        assert not bus.heard


class TestLogCap:
    def test_unbounded_by_default(self):
        bus = EventBus()
        log = []
        bus.subscribe(log.append)
        for i in range(1000):
            bus.publish(event(iteration=i))
        assert [e.iteration for e in log] == list(range(1000))

    def test_invalid_max_log_rejected(self):
        # The ring buffer is retired with the log; any cap is refused.
        for cap in (0, -5, 3):
            with pytest.raises(TypeError):
                EventBus(max_log=cap)


class TestEventRendering:
    def test_str_includes_role(self):
        text = str(event(kind=EventKind.ROLE_EXECUTED, iteration=3, time=1.5, role="Monitor"))
        assert "it 3" in text and "Monitor" in text and "role_executed" in text

    def test_str_without_role(self):
        text = str(event(kind=EventKind.ITERATION_STARTED))
        assert "role=" not in text
