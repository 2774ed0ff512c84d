"""Tests for the executor-backend seam: factory, local reference backend,
engine delegation."""

import pytest

from repro.dist import BACKEND_CHOICES, ExecutorBackend, create_backend
from repro.dist.local import LocalPoolBackend
from repro.dist.queue import QueueBackend
from repro.exec import CampaignEngine, EnginePolicy, WorkUnit

from .dist_tasks import square


def _units(n):
    return [WorkUnit(key=f"k{i}", payload=i) for i in range(n)]


def policy(**kw):
    kw.setdefault("retry_backoff_s", 0.01)
    return EnginePolicy(**kw)


class TestFactory:
    def test_choices_cover_factory(self):
        assert BACKEND_CHOICES == ("local", "queue")

    def test_local(self):
        backend = create_backend("local")
        assert isinstance(backend, LocalPoolBackend)

    def test_queue(self, tmp_path):
        backend = create_backend("queue", hosts=3, spool=tmp_path / "spool")
        try:
            assert isinstance(backend, QueueBackend)
            assert backend.hosts == 3
        finally:
            backend.close()

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown executor backend"):
            create_backend("carrier-pigeon")


class TestLocalBackend:
    def test_plan_serial(self):
        assert LocalPoolBackend().plan(policy(jobs=1)) == ("serial", 1)

    def test_explicit_backend_matches_default(self):
        units = _units(8)
        default = CampaignEngine(square, policy(), progress=None).run(units)
        explicit = CampaignEngine(
            square, policy(), progress=None, backend=LocalPoolBackend()
        ).run(units)
        assert default.results() == explicit.results()
        assert default.summary.mode == explicit.summary.mode

    def test_close_is_idempotent(self):
        backend = LocalPoolBackend()
        backend.close()
        backend.close()

    def test_context_manager_closes(self, tmp_path):
        with create_backend("queue", hosts=1, spool=tmp_path / "s") as backend:
            pass
        with pytest.raises(RuntimeError, match="closed"):
            backend.execute(_units(1), None)

    def test_abstract_backend_is_abstract(self):
        backend = ExecutorBackend()
        with pytest.raises(NotImplementedError):
            backend.plan(policy())
