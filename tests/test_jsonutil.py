"""Tests for strict JSON serialization (no Infinity/NaN tokens, ever)."""

import json
import math
from io import StringIO

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.jsonutil import dump, dumps, sanitize


class TestSanitize:
    def test_nonfinite_floats_become_none(self):
        assert sanitize(math.inf) is None
        assert sanitize(-math.inf) is None
        assert sanitize(math.nan) is None

    def test_finite_values_pass_through(self):
        assert sanitize(1.5) == 1.5
        assert sanitize(0.0) == 0.0
        assert sanitize(-7) == -7
        assert sanitize("inf") == "inf"
        assert sanitize(True) is True
        assert sanitize(None) is None

    def test_recurses_into_containers(self):
        payload = {
            "gap": math.inf,
            "runs": [1.0, math.nan, {"ttc": -math.inf}],
            "pair": (math.inf, 2.0),
        }
        assert sanitize(payload) == {
            "gap": None,
            "runs": [1.0, None, {"ttc": None}],
            "pair": [None, 2.0],  # tuples come back as lists (JSON has none)
        }

    def test_all_finite_payload_is_unchanged(self):
        payload = {"a": [1.0, 2.0], "b": {"c": 3.5}}
        assert sanitize(payload) == payload


class TestStrictDumps:
    def test_no_nonstandard_tokens_in_output(self):
        text = dumps({"gap": math.inf, "rob": math.nan, "neg": -math.inf})
        assert "Infinity" not in text
        assert "NaN" not in text
        assert json.loads(text) == {"gap": None, "rob": None, "neg": None}

    def test_dump_writes_same_bytes_as_dumps(self):
        payload = {"gap": math.inf, "ok": [1, 2.5]}
        buffer = StringIO()
        dump(payload, buffer, sort_keys=True)
        assert buffer.getvalue() == dumps(payload, sort_keys=True)

    def test_kwargs_forwarded(self):
        assert dumps({"b": 1, "a": 2}, sort_keys=True) == '{"a": 2, "b": 1}'

    def test_nonfinite_serializes_as_null_not_token(self):
        assert dumps(math.inf) == "null"
        assert dumps([math.nan]) == "[null]"

    def test_allow_nan_false_is_the_backstop(self):
        # dumps/dump pass allow_nan=False to json; a non-finite float that
        # somehow bypassed sanitization would fail loudly at the producer.
        with pytest.raises(ValueError):
            json.dumps(math.inf, allow_nan=False)


class _Opaque:
    """A value JSON cannot encode; ``default=repr`` turns it into text."""

    def __repr__(self) -> str:
        return "<opaque>"


def _sanitize_first(obj, **kwargs):
    """The reference: sanitize the whole payload, then serialize."""
    kwargs.setdefault("allow_nan", False)
    return json.dumps(sanitize(obj), **kwargs)


_leaves = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.text(max_size=8),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([math.inf, -math.inf, math.nan]),
    st.builds(_Opaque),
)
_payloads = st.recursive(
    _leaves,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(st.text(max_size=6), children, max_size=4),
    ),
    max_leaves=24,
)


class TestFastPathMatchesSanitizeFirst:
    @settings(max_examples=400, deadline=None)
    @given(_payloads, st.booleans(), st.sampled_from([None, 2]))
    def test_same_text_as_the_reference(self, payload, sort_keys, indent):
        kwargs = {"sort_keys": sort_keys, "indent": indent, "default": repr}
        expected = _sanitize_first(payload, **kwargs)
        assert dumps(payload, **kwargs) == expected
        buffer = StringIO()
        dump(payload, buffer, **kwargs)
        assert buffer.getvalue() == expected

    def test_nonfinite_dict_key_still_fails_loudly(self):
        # Sanitization cannot reach keys; the strict backstop still raises.
        with pytest.raises(ValueError):
            dumps({math.inf: 1})
