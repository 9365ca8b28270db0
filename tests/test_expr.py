import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gpmg.expr import EvalError, ParseError, evaluate, parse


def ev(src, dim, pts):
    return evaluate(parse(src, dim), np.atleast_2d(np.asarray(pts, float)))


def test_arithmetic_and_precedence():
    pts = [[2.0, 3.0]]
    assert ev("x1 + x2 * 2", 2, pts)[0] == 8.0
    assert ev("(x1 + x2) * 2", 2, pts)[0] == 10.0
    assert ev("x1 - x2 - 1", 2, pts)[0] == -2.0  # left assoc
    assert ev("2 ^ 3 ^ 2", 1, [[0.0]])[0] == 512.0  # right assoc
    assert ev("-x1^2", 1, [[3.0]])[0] == -9.0  # ^ binds tighter than unary -
    assert ev("6 / 4", 1, [[0.0]])[0] == 1.5


def test_functions_and_pi():
    pts = np.array([[0.25]])
    assert np.isclose(ev("sin(2*pi*x1)", 1, pts)[0], 1.0)
    assert np.isclose(ev("cos(0) + exp(0)", 1, pts)[0], 2.0)
    assert np.isclose(ev("abs(0 - x1)", 1, pts)[0], 0.25)


def test_example_potentials():
    p = parse("x1^2 + 2*x2^2 + 4*x3^2", 3)
    val = evaluate(p, np.array([[1.0, 1.0, 1.0]]))
    assert np.isclose(val[0], 7.0)
    w = parse("x1^2+x2^2+x3^2+sin(2*pi*x1)^2+sin(2*pi*x2)^2+sin(2*pi*x3)^2", 3)
    val = evaluate(w, np.array([[0.25, 0.25, 0.25]]))
    assert np.isclose(val[0], 3 * 0.0625 + 3.0)


def test_vectorized_evaluation():
    pts = np.linspace(0.0, 1.0, 11).reshape(-1, 1)
    vals = ev("exp(x1) * sin(x1)", 1, pts)
    assert np.allclose(vals, np.exp(pts[:, 0]) * np.sin(pts[:, 0]))


def test_parse_errors_carry_offsets():
    with pytest.raises(ParseError) as exc:
        parse("x1 + + x2", 2)
    assert exc.value.offset is not None
    with pytest.raises(ParseError):
        parse("x3", 2)  # variable beyond dimension
    with pytest.raises(ParseError):
        parse("bogus(x1)", 1)
    with pytest.raises(ParseError):
        parse("x1 *", 1)
    with pytest.raises(ParseError):
        parse("(x1", 1)
    with pytest.raises(ParseError):
        parse("", 1)


def test_division_by_zero_is_eval_error():
    with pytest.raises(EvalError):
        ev("1 / x1", 1, [[0.0]])


def test_long_chains_evaluate_without_recursion():
    pts = np.array([[0.5], [1.0], [3.0]])
    total = parse("+".join(["x1"] * 5000), 1)
    assert np.array_equal(evaluate(total, pts), 5000 * pts[:, 0])
    product = parse("*".join(["x1"] * 5000), 1)
    assert evaluate(product, np.array([[1.0]]))[0] == 1.0


@settings(max_examples=100, deadline=None)
@given(
    st.lists(
        st.floats(min_value=-3, max_value=3, allow_nan=False),
        min_size=3, max_size=3,
    ),
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
)
def test_polynomial_matches_horner_oracle(coeffs, x):
    a, b, c = coeffs
    src = f"{a!r} + {b!r}*x1 + {c!r}*x1^2"
    got = ev(src, 1, [[x]])[0]
    want = a + b * x + c * x * x
    assert math.isclose(got, want, rel_tol=1e-12, abs_tol=1e-12)
