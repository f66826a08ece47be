import math

import pytest
from hypothesis import given, settings, strategies as st

import jet_reference as ref
from bornbundle import expr
from bornbundle.expr import EvalDomainError, ParseError, evaluate, free_coordinates, parse

UV = ("u", "v")

# expressions exercised by the fd properties
CORPUS = [
    "u^2 + 2*v",
    "exp(u)",
    "sin(u)^2 + cos(u)^2",
    "u*v",
    "exp(u) + exp(v)",
    "1 + 4*u^2",
    "-2*u",
    "sin(u)*cos(v) + u^3",
    "exp(u)/(1 + v^2)",
    "log(2 + u)",
    "sqrt(1 + u^2 + v^2)",
    "tanh(u*v)",
    "u^2/2 + v^2/2",
    "-(u + v)*u",
    "1e-2*u + 2.5e3",
]


def ev(text, point, order=1, coords=UV):
    ast = parse(text, coords)
    return evaluate(ast, ref.seed(point, order))


def test_basic_arithmetic():
    f = ev("u^2 + 2*v", (1.0, 2.0))
    assert f.value == 5.0


def test_exp_at_zero():
    assert ev("exp(u)", (0.0, 17.0)).value == 1.0


def test_unknown_identifier_offset():
    with pytest.raises(ParseError) as exc:
        parse("w + 1", UV)
    assert exc.value.offset == 0
    assert "w" in str(exc.value)


def test_product_rule_through_parser():
    f = ev("u*v", (2.0, 5.0))
    assert f.partial(0) == 5.0
    assert f.partial(1) == 2.0


def test_log_domain_error_carries_offset():
    ast = parse("log(u)", UV)
    with pytest.raises(EvalDomainError) as exc:
        evaluate(ast, ref.seed((-1.0, 0.0), 1))
    assert exc.value.offset == 0


def test_division_by_zero_location():
    ast = parse("1/(u - 1)", UV)
    with pytest.raises(EvalDomainError) as exc:
        evaluate(ast, ref.seed((1.0, 0.0), 1))
    assert exc.value.offset == 1


@pytest.mark.parametrize("text, point, offset", [
    ("log(u)", (-1.0, 0.0), 0),       # Call
    ("1/(u - 1)", (1.0, 0.0), 1),     # BinOp
    ("(u - 1)^0.5", (0.0, 0.0), 7),   # Pow
    ("2*log(u)", (-1.0, 0.0), 2),     # the failing child's offset, not the product's
    ("-sqrt(u)", (-1.0, 0.0), 1),     # through Neg
])
def test_domain_error_offset_of_each_node_kind(text, point, offset):
    with pytest.raises(EvalDomainError) as exc:
        evaluate(parse(text, UV), ref.seed(point, 1))
    assert exc.value.offset == offset


@given(st.floats(min_value=-4.0, max_value=4.0, allow_nan=False))
@settings(max_examples=50)
def test_trig_identity(u):
    f = ev("sin(u)^2 + cos(u)^2", (u, 0.0))
    assert abs(f.value - 1.0) <= 1e-12


def test_free_coordinates():
    assert free_coordinates(parse("u^2 + 2*v", UV)) == {0, 1}
    assert free_coordinates(parse("3.5", UV)) == set()
    assert free_coordinates(parse("exp(v)", UV)) == {1}


def test_unary_minus_binds_looser_than_power():
    f = ev("-u^2", (3.0, 0.0))
    assert f.value == -9.0
    g = ev("(-u)^2", (3.0, 0.0))
    assert g.value == 9.0


def test_power_is_not_chainable():
    with pytest.raises(ParseError):
        parse("u^2^3", UV)


def test_variable_exponent_rejected():
    with pytest.raises(ParseError) as exc:
        parse("u^v", UV)
    assert "variable exponent" in str(exc.value)


def test_function_without_parens_rejected():
    with pytest.raises(ParseError):
        parse("sin + 1", UV)


def test_function_with_two_arguments_rejected():
    with pytest.raises(ParseError):
        parse("sin(u, v)", UV)


def test_unbalanced_parens():
    with pytest.raises(ParseError):
        parse("(u", UV)
    with pytest.raises(ParseError):
        parse("u)", UV)


def test_trailing_operator():
    with pytest.raises(ParseError):
        parse("u +", UV)


def test_bad_character_offset():
    with pytest.raises(ParseError) as exc:
        parse("u + $", UV)
    assert exc.value.offset == 4


def test_coordinate_validation():
    with pytest.raises(ValueError):
        parse("1", [])
    with pytest.raises(ValueError):
        parse("1", ["u", "u"])
    with pytest.raises(ValueError):
        parse("1", ["sin"])
    with pytest.raises(ValueError):
        parse("1", ["2bad"])


def test_scientific_notation():
    assert ev("1e-2*u + 2.5e3", (100.0, 0.0)).value == pytest.approx(2501.0)


@pytest.mark.parametrize("text", CORPUS)
def test_order1_matches_fd_oracle(text):
    ast = parse(text, UV)
    points = [(0.31, 0.77), (-0.52, 0.11), (0.9, -0.6)]
    for p in points:
        f = evaluate(ast, ref.seed(p, 1))

        def scalar(q):
            return evaluate(ast, ref.seed(q, 1)).value

        grad = ref.fd_oracle(scalar, p)
        for i in range(2):
            scale = max(1.0, abs(f.partial(i)))
            assert abs(f.partial(i) - grad[i]) / scale <= 1e-6


def test_evaluation_is_reentrant():
    ast = parse("u*v + sin(u)", UV)
    a = evaluate(ast, ref.seed((1.0, 2.0), 1))
    b = evaluate(ast, ref.seed((1.0, 2.0), 1))
    assert a.value == b.value
    assert a is not b
