"""Strict JSON serialization: no ``Infinity``/``NaN`` tokens, ever.

Python's :func:`json.dumps` default (``allow_nan=True``) emits the
non-standard tokens ``Infinity``, ``-Infinity`` and ``NaN``, which strict
RFC 8259 parsers — including most non-Python consumers of report.json,
corpus entries and the service HTTP API — reject.  Every artifact writer in
this repo goes through :func:`dumps` / :func:`dump` below, which serialize
with ``allow_nan=False``.  Almost every payload is all-finite, so the
first attempt usually succeeds as is; only when it raises ``ValueError``
is the payload sanitized and serialized again.  The output is the same
text that sanitizing first would give, and a non-finite value that
sanitization cannot reach (a dict key, a ``default`` result) still fails
loudly at the producer instead of corrupting the artifact for consumers.

Sanitization maps non-finite floats to ``None`` (JSON ``null``).  Domains
with a meaningful finite sentinel (e.g. STL robustness, clamped to
``±NO_TRACE_ROBUSTNESS``) should clamp *before* serialization; ``null`` is
the generic "not observed" encoding for everything else.
"""

from __future__ import annotations

import json
import math
from typing import Any, IO


def sanitize(value: Any) -> Any:
    """Recursively replace non-finite floats with ``None``.

    Dicts, lists and tuples are rebuilt (tuples come back as lists: JSON
    has no tuple); every other value is returned as is.
    """
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {key: sanitize(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [sanitize(item) for item in value]
    return value


def dumps(obj: Any, **kwargs: Any) -> str:
    """``json.dumps`` with non-finite floats nulled and ``allow_nan=False``."""
    kwargs.setdefault("allow_nan", False)
    try:
        return json.dumps(obj, **kwargs)
    except ValueError:
        return json.dumps(sanitize(obj), **kwargs)


def dump(obj: Any, fp: IO[str], **kwargs: Any) -> None:
    """``json.dump`` with non-finite floats nulled and ``allow_nan=False``.

    The text is built whole before it is written, so a failed first
    attempt leaves nothing half-written in ``fp``.
    """
    fp.write(dumps(obj, **kwargs))
