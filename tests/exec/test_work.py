"""Tests for WorkUnit identity and key fingerprints."""

import pytest

from repro.exec import WorkUnit, check_unique_keys, fingerprint


def units(n):
    return [WorkUnit(key=f"scenario:{i}", payload=i) for i in range(n)]


class TestWorkUnit:
    def test_requires_key(self):
        with pytest.raises(ValueError):
            WorkUnit(key="")

    def test_duplicate_keys_rejected(self):
        us = units(3) + [WorkUnit(key="scenario:1")]
        with pytest.raises(ValueError, match="duplicate"):
            check_unique_keys(us)

    def test_unique_keys_pass(self):
        check_unique_keys(units(10))


class TestFingerprint:
    def test_stable_and_repr_based(self):
        assert fingerprint((1, 2, "x")) == fingerprint((1, 2, "x"))
        assert fingerprint((1, 2)) != fingerprint((2, 1))

    def test_length(self):
        assert len(fingerprint("abc", length=8)) == 8
