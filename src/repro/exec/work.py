"""Work units: stable task identity.

A campaign is a flat list of :class:`WorkUnit` — one per (scenario, seed,
options) combination, or whatever the caller sweeps over.  Each unit
carries a *stable key* so that results can be journaled, resumed and
re-associated regardless of completion order, and a picklable *payload*
the worker function consumes.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Any, Dict, Sequence


def fingerprint(obj: Any, length: int = 12) -> str:
    """Deterministic short digest of ``repr(obj)``.

    ``hash()`` is salted per-process; this is stable across processes and
    sessions, which journal keys and resume fingerprints require.
    """
    return hashlib.sha1(repr(obj).encode("utf-8")).hexdigest()[:length]


@dataclass(frozen=True)
class WorkUnit:
    """One schedulable task of a campaign.

    Attributes:
        key: stable, campaign-unique identifier (journal / resume handle).
        payload: picklable argument handed to the engine's worker function.
    """

    key: str
    payload: Any = None

    def __post_init__(self) -> None:
        if not self.key:
            raise ValueError("WorkUnit.key must be a non-empty string")


def check_unique_keys(units: Sequence[WorkUnit]) -> None:
    """Raise ``ValueError`` when two units share a key."""
    seen: Dict[str, int] = {}
    for i, unit in enumerate(units):
        if unit.key in seen:
            raise ValueError(
                f"duplicate WorkUnit key {unit.key!r} at positions "
                f"{seen[unit.key]} and {i}"
            )
        seen[unit.key] = i
