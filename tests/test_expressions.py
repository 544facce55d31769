import operator

import numpy as np
import pytest

from shapley_lg import ExpressionParseError
from shapley_lg.expressions import compile_terms, fold


def evaluate(text, env=None, names=None):
    env = env or {}
    names = names if names is not None else env.keys()
    return fold(compile_terms(text, {n: (n,) for n in names}))(env)


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
        compile_terms("a + bogus", {"a": ("a",)})
    assert exc.value.line == 1
    assert exc.value.column == 5
    assert "bogus" in str(exc.value)


def test_unknown_function():
    with pytest.raises(ExpressionParseError) as exc:
        compile_terms("tan(1)", {})
    assert "tan" in str(exc.value)


def test_syntax_errors_carry_position():
    with pytest.raises(ExpressionParseError) as exc:
        compile_terms("1 +* 2", {})
    assert exc.value.column == 4
    with pytest.raises(ExpressionParseError):
        compile_terms("(1 + 2", {})
    with pytest.raises(ExpressionParseError):
        compile_terms("1 2", {})
    with pytest.raises(ExpressionParseError):
        compile_terms("", {})
    with pytest.raises(ExpressionParseError) as exc:
        compile_terms("1 + $", {})
    assert "$" in str(exc.value)


def test_multiline_positions():
    with pytest.raises(ExpressionParseError) as exc:
        compile_terms("1 +\n  oops", {"a": ("a",)})
    assert exc.value.line == 2
    assert exc.value.column == 3
    # End of input after a trailing newline is the start of the next line.
    with pytest.raises(ExpressionParseError) as exc:
        compile_terms("1 +\n", {"a": ("a",)})
    assert (exc.value.line, exc.value.column) == (2, 1)


def test_multiline_expression_evaluates():
    assert evaluate("1 +\n 2 *\n 3") == 7.0



_ABCD = {"a": 1.0, "b": 2.0, "c": 3.0, "d": 4.0}


def _split(text, names=None):
    """Each top-level term as (sign, names read, value at ``_ABCD``)."""
    names = names or {n: (n,) for n in _ABCD}
    return [("-" if t.op is operator.sub else "+", sorted(t.reads),
             float(t.fn(_ABCD))) for t in compile_terms(text, names)]


def test_terms_split_at_plus_and_minus_outside_parentheses():
    assert _split("a*b + c/d - b^2") == [("+", ["a", "b"], 2.0),
                                         ("+", ["c", "d"], 0.75),
                                         ("-", ["b"], 4.0)]
    # * / ^ and function calls do not split a term.
    assert _split("a*sin(b - c)*d^2") == [
        ("+", ["a", "b", "c", "d"], 16 * np.sin(-1.0))]


def test_unary_minus_stays_with_its_term():
    assert _split("-a + b") == [("+", ["a"], -1.0), ("+", ["b"], 2.0)]
    assert _split("a - -b") == [("+", ["a"], 1.0), ("-", ["b"], -2.0)]
    assert _split("-(a + b) * c") == [("+", ["a", "b", "c"], -9.0)]


def test_parenthesised_sum_is_one_term():
    assert _split("(a + b) - (c - d)") == [("+", ["a", "b"], 3.0),
                                          ("-", ["c", "d"], -1.0)]
    assert _split("((a + b))") == [("+", ["a", "b"], 3.0)]


def test_constant_term_reads_no_input():
    assert _split("2*3 + a - 4^0.5") == [("+", [], 6.0), ("+", ["a"], 1.0),
                                         ("-", [], 2.0)]


def test_terms_read_inputs_through_definitions_transitively():
    # A definition stands for itself and everything its body reads, as the
    # expression-file reader builds the scope, definition by definition.
    scope = {n: (n,) for n in _ABCD}
    for name, body in [("u", "a*b"), ("v", "u + c"), ("w", "2")]:
        reads = {r for t in compile_terms(body, scope) for r in t.reads}
        scope[name] = (name, *reads)
    env = {**_ABCD, "u": 2.0, "v": 5.0, "w": 2.0}
    assert [(sorted(t.reads), float(t.fn(env)))
            for t in compile_terms("v^2 - d + w", scope)] == [
        (["a", "b", "c", "u", "v"], 25.0), (["d"], 4.0), (["w"], 2.0)]


def test_fold_of_no_terms_is_zero_and_a_subtracted_first_term_negated():
    assert fold([])({}) == 0.0
    _, minus_b = compile_terms("a - b", {"a": ("a",), "b": ("b",)})
    assert fold([minus_b])(_ABCD) == -2.0


def test_fold_of_the_terms_equals_the_expression_bit_for_bit():
    # The reference is the same arithmetic in numpy, left to right.
    rng = np.random.default_rng(5)
    env = dict(zip("abcd", rng.standard_normal((4, 1000))))
    a, b, c, d = env.values()
    cases = {
        "a*b - sin(c) + (a + b)^2 - -d/3 + exp(c - d) * cos(a)":
            a * b - np.sin(c) + (a + b) ** 2 - -d / 3
            + np.exp(c - d) * np.cos(a),
        "-a - b - c - d": -a - b - c - d,
        "1.5 + a*(b - c)/d - 2^3 + d": 1.5 + a * (b - c) / d - 2.0 ** 3 + d,
    }
    for text, want in cases.items():
        np.testing.assert_array_equal(evaluate(text, env), want)
