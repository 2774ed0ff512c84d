"""Tests for discrete-time STL robustness semantics, including the
soundness property (sign of robustness agrees with Boolean satisfaction)."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.stl import (
    And,
    Atom,
    Eventually,
    Formula,
    Globally,
    Implies,
    Not,
    Or,
    Trace,
    Until,
    evaluate,
    parse,
    robustness,
    satisfied,
)


def trace(period=1.0, **signals):
    return Trace(period=period, signals={k: list(v) for k, v in signals.items()})


class TestAtomsAndBoolean:
    def test_atom_robustness_is_margin(self):
        values = evaluate(parse("x >= 2"), trace(x=[1, 2, 5]))
        assert values == [pytest.approx(-1), pytest.approx(0), pytest.approx(3)]

    def test_negation_flips_sign(self):
        values = evaluate(parse("!(x >= 2)"), trace(x=[1, 5]))
        assert values == [pytest.approx(1), pytest.approx(-3)]

    def test_and_is_min(self):
        values = evaluate(parse("x >= 0 & y >= 0"), trace(x=[3], y=[1]))
        assert values == [pytest.approx(1)]

    def test_or_is_max(self):
        values = evaluate(parse("x >= 0 | y >= 0"), trace(x=[-3], y=[1]))
        assert values == [pytest.approx(1)]

    def test_implication(self):
        values = evaluate(parse("x >= 0 -> y >= 0"), trace(x=[-2], y=[-5]))
        assert values == [pytest.approx(2)]  # vacuous: antecedent false by 2


class TestTemporal:
    def test_globally_window_min(self):
        values = evaluate(parse("G[0,2] (x >= 0)"), trace(x=[3, 1, 2, 5]))
        assert values[0] == pytest.approx(1)  # min over steps 0..2
        assert values[1] == pytest.approx(1)

    def test_globally_vacuous_beyond_trace(self):
        values = evaluate(parse("G[5,6] (x >= 0)"), trace(x=[1, 2]))
        assert values[0] == math.inf

    def test_eventually_window_max(self):
        values = evaluate(parse("F[0,2] (x >= 0)"), trace(x=[-3, -1, 4, -2]))
        assert values[0] == pytest.approx(4)

    def test_eventually_empty_window_false(self):
        values = evaluate(parse("F[5,6] (x >= 0)"), trace(x=[1, 2]))
        assert values[0] == -math.inf

    def test_unbounded_globally_suffix(self):
        values = evaluate(parse("G (x >= 0)"), trace(x=[5, 3, 1]))
        assert values == [pytest.approx(1), pytest.approx(1), pytest.approx(1)]

    def test_unbounded_eventually(self):
        values = evaluate(parse("F (x >= 0)"), trace(x=[-5, -3, 2]))
        assert values[0] == pytest.approx(2)
        assert values[2] == pytest.approx(2)

    def test_until_basic(self):
        # "x stays up until y goes up" — y rises at step 2.
        values = evaluate(
            parse("x >= 0 U y >= 0"), trace(x=[1, 1, -9], y=[-1, -1, 5])
        )
        assert values[0] == pytest.approx(1)  # min(guard 1, y-rise 5)

    def test_until_unbounded_series(self):
        # Each step takes its best witness at or after it, guarded by x
        # over the steps before that witness.
        values = evaluate(
            parse("x >= 0 U y >= 0"),
            trace(x=[3, 1, -2, 4, 0.5], y=[-1, 1, 4, -2, 1.5]),
        )
        assert values == pytest.approx([1, 1, 4, 1.5, 1.5])

    def test_until_bounded_window(self):
        values = evaluate(
            parse("x >= 0 U[0,1] y >= 0"), trace(x=[1, 1, 1], y=[-1, -1, 5])
        )
        # y never rises within 1 step of t=0.
        assert values[0] == pytest.approx(-1)

    def test_until_lower_bound(self):
        values = evaluate(
            parse("x >= 0 U[2,3] y >= 0"), trace(x=[1, 2, 3, 4], y=[9, 9, -1, 5])
        )
        # Earliest permitted witness is step 2 (y=-1) or 3 (y=5, guard min(1,2,3)=1).
        assert values[0] == pytest.approx(1)

    def test_interval_scaling_with_period(self):
        # Period 0.5 s: the closed interval [0 s, 1 s] covers steps 0..2.
        values = evaluate(parse("G[0,1] (x >= 0)"), trace(period=0.5, x=[5, 1, -7]))
        assert values[0] == pytest.approx(-7)
        values = evaluate(parse("G[0,1] (x >= 0)"), trace(period=0.5, x=[5, 1, 2]))
        assert values[0] == pytest.approx(1)


class TestValidation:
    def test_missing_variable(self):
        with pytest.raises(KeyError):
            evaluate(parse("missing >= 0"), trace(x=[1]))

    def test_empty_trace(self):
        with pytest.raises(ValueError):
            evaluate(parse("x >= 0"), Trace(period=1.0))

    def test_robustness_step_out_of_range(self):
        with pytest.raises(IndexError):
            robustness(parse("x >= 0"), trace(x=[1, 2]), step=5)

    def test_satisfied_boundary_counts(self):
        assert satisfied(parse("x >= 2"), trace(x=[2.0]))


class TestFiniteRobustness:
    """Vacuous +-inf robustness must clamp to a JSON-safe sentinel."""

    def test_vacuous_globally_clamps_to_limit(self):
        from repro.stl import ROBUSTNESS_CLAMP, finite_robustness

        # G over a window entirely past the trace end is vacuously true: +inf.
        value = robustness(parse("G[10,20] (x >= 0)"), trace(x=[1.0, 2.0]))
        assert value == math.inf
        assert finite_robustness(value) == ROBUSTNESS_CLAMP

    def test_unreachable_eventually_clamps_to_negative_limit(self):
        from repro.stl import ROBUSTNESS_CLAMP, finite_robustness

        value = robustness(parse("F[10,20] (x >= 0)"), trace(x=[1.0, 2.0]))
        assert value == -math.inf
        assert finite_robustness(value) == -ROBUSTNESS_CLAMP

    def test_finite_values_pass_through_and_nan_free_json(self):
        from repro.jsonutil import dumps
        from repro.stl import finite_robustness

        assert finite_robustness(3.25) == 3.25
        assert finite_robustness(-999.0) == -999.0
        payload = {"robustness": finite_robustness(math.inf)}
        text = dumps(payload)
        assert "Infinity" not in text and "NaN" not in text


# ----------------------------------------------------------------------
# Soundness property: sign of robustness vs an independent Boolean
# evaluator over randomly generated formulas and traces.
# ----------------------------------------------------------------------
def _bool_eval(formula: Formula, tr: Trace, i: int) -> bool:
    n = len(tr)
    if isinstance(formula, Atom):
        return formula.expr.evaluate({v: tr.value(v, i) for v in formula.expr.names()}) >= 0
    if isinstance(formula, Not):
        return not _bool_eval(formula.operand, tr, i)
    if isinstance(formula, And):
        return _bool_eval(formula.left, tr, i) and _bool_eval(formula.right, tr, i)
    if isinstance(formula, Or):
        return _bool_eval(formula.left, tr, i) or _bool_eval(formula.right, tr, i)
    if isinstance(formula, Implies):
        return (not _bool_eval(formula.left, tr, i)) or _bool_eval(formula.right, tr, i)
    if isinstance(formula, (Globally, Eventually)):
        lo, hi = formula.interval.to_steps(tr.period)
        hi = n - 1 if hi is None else min(i + hi, n - 1)
        steps = range(min(i + lo, n), hi + 1)
        if isinstance(formula, Globally):
            return all(_bool_eval(formula.operand, tr, j) for j in steps)
        return any(_bool_eval(formula.operand, tr, j) for j in steps)
    if isinstance(formula, Until):
        lo, hi = formula.interval.to_steps(tr.period)
        hi = n - 1 if hi is None else min(i + hi, n - 1)
        for j in range(i + lo, hi + 1):
            if j >= n:
                break
            if _bool_eval(formula.right, tr, j) and all(
                _bool_eval(formula.left, tr, k) for k in range(i, j)
            ):
                return True
        return False
    raise TypeError(type(formula))


_values = st.integers(min_value=-5, max_value=5)


@st.composite
def _formulas(draw, depth=2):
    if depth == 0:
        threshold = draw(_values)
        return parse(f"x >= {threshold}") if draw(st.booleans()) else parse(f"y <= {threshold}")
    choice = draw(st.integers(min_value=0, max_value=5))
    sub = _formulas(depth=depth - 1)
    if choice == 0:
        return Not(draw(sub))
    if choice == 1:
        return And(draw(sub), draw(sub))
    if choice == 2:
        return Or(draw(sub), draw(sub))
    lo = draw(st.integers(min_value=0, max_value=2))
    hi = lo + draw(st.integers(min_value=0, max_value=3))
    from repro.stl import Interval

    interval = Interval(float(lo), float(hi))
    if choice == 3:
        return Globally(draw(sub), interval)
    if choice == 4:
        return Eventually(draw(sub), interval)
    return Until(draw(sub), draw(sub), interval)


class TestSoundness:
    @given(
        _formulas(),
        st.lists(_values, min_size=1, max_size=8),
        st.lists(_values, min_size=1, max_size=8),
    )
    def test_sign_matches_boolean_semantics(self, formula, xs, ys):
        n = min(len(xs), len(ys))
        tr = trace(x=xs[:n], y=ys[:n])
        values = evaluate(formula, tr)
        for i in range(n):
            boolean = _bool_eval(formula, tr, i)
            if values[i] > 0:
                assert boolean, f"rho={values[i]} > 0 but boolean False at {i}: {formula}"
            elif values[i] < 0:
                assert not boolean, f"rho={values[i]} < 0 but boolean True at {i}: {formula}"

    @given(st.lists(_values, min_size=1, max_size=10))
    def test_globally_eventually_duality(self, xs):
        tr = trace(x=xs)
        g = evaluate(parse("G[0,3] (x >= 0)"), tr)
        not_f_not = evaluate(Not(Eventually(parse("!(x >= 0)"), parse("G[0,3](x>=0)").interval)), tr)
        for a, b in zip(g, not_f_not):
            assert a == pytest.approx(b)
