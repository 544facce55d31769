import numpy as np
import pytest

from shapley_lg import ExpressionParseError
from shapley_lg.expressions import compile_expression


def evaluate(text, env=None, names=None):
    env = env or {}
    fn = compile_expression(text, names if names is not None else env.keys())
    return fn(env)


def test_number_and_precedence():
    assert evaluate("2+3*4") == 14.0
    assert evaluate("(2+3)*4") == 20.0
    assert evaluate("7-4-2") == 1.0
    assert evaluate("8/4/2") == 1.0
    assert evaluate("2*3^2") == 18.0
    assert evaluate("2**3") == 8.0
    assert evaluate("2^3^2") == 512.0  # right associative
    assert evaluate("-2^2") == -4.0
    assert evaluate("1.5e2 + .5") == 150.5


def test_unary_minus():
    assert evaluate("-3 + 5") == 2.0
    assert evaluate("--3") == 3.0
    assert evaluate("2^-1") == 0.5


def test_functions():
    assert evaluate("sin(0) + cos(0) + exp(0)") == 2.0
    assert evaluate("cos(0)*3") == 3.0


def test_variables_and_vectorized_eval():
    x = np.array([0.0, 1.0, 2.0])
    y = np.array([1.0, 2.0, 3.0])
    out = evaluate("a*2 + b^2", {"a": x, "b": y})
    np.testing.assert_allclose(out, 2 * x + y ** 2)


def test_unknown_name_location():
    with pytest.raises(ExpressionParseError) as exc:
        compile_expression("a + bogus", {"a"})
    assert exc.value.line == 1
    assert exc.value.column == 5
    assert "bogus" in str(exc.value)


def test_unknown_function():
    with pytest.raises(ExpressionParseError) as exc:
        compile_expression("tan(1)", set())
    assert "tan" in str(exc.value)


def test_syntax_errors_carry_position():
    with pytest.raises(ExpressionParseError) as exc:
        compile_expression("1 +* 2", set())
    assert exc.value.column == 4
    with pytest.raises(ExpressionParseError):
        compile_expression("(1 + 2", set())
    with pytest.raises(ExpressionParseError):
        compile_expression("1 2", set())
    with pytest.raises(ExpressionParseError):
        compile_expression("", set())
    with pytest.raises(ExpressionParseError) as exc:
        compile_expression("1 + $", set())
    assert "$" in str(exc.value)


def test_multiline_positions():
    with pytest.raises(ExpressionParseError) as exc:
        compile_expression("1 +\n  oops", {"a"})
    assert exc.value.line == 2
    assert exc.value.column == 3
    # End of input after a trailing newline is the start of the next line.
    with pytest.raises(ExpressionParseError) as exc:
        compile_expression("1 +\n", {"a"})
    assert (exc.value.line, exc.value.column) == (2, 1)


def test_multiline_expression_evaluates():
    assert evaluate("1 +\n 2 *\n 3") == 7.0
