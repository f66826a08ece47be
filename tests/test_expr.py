import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import jet_reference as ref
from bornbundle import expr, jets
from bornbundle.expr import EvalDomainError, ParseError, evaluate, parse
from bornbundle.jets import JetBatch

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
    return evaluate(parse(text, coords), ref.seed(point, order))[0]


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
    assert parse(["u^2 + 2*v", "3.5", "exp(v)"], UV).free == (0b11, 0, 0b10)


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


def test_whitespace_is_what_str_isspace_skips():
    # the information separators \x1c-\x1f, NBSP and the other Unicode
    # spaces are skipped; a zero-width space is not whitespace.  Every
    # character that starts no token is an error at its own offset
    for code in range(0x3100):
        ch = chr(code)
        if ch.isspace():
            assert expr._tokenize(ch + "u" + ch) == [("name", "u", 1), ("end", "", 3)]
        elif not (ch.isdecimal() or ch.isascii() and (ch.isalpha() or ch in ".+-*/^()")):
            with pytest.raises(ParseError) as exc:
                expr._tokenize(ch + "u")
            assert str(exc.value) == f"unexpected character {ch!r} at offset 0"
    assert [tok[2] for tok in expr._tokenize("\x1cu\xa0+\u3000v ")] == [1, 3, 5, 7]
    with pytest.raises(ParseError) as exc:
        parse("u\u200b", UV)
    assert str(exc.value) == "unexpected character '\\u200b' at offset 1"


@pytest.mark.parametrize("text, offset", [(" \t$", 2), ("\xa0\x1c\u2003 @ u", 4),
                                          ("\n\n  u + #", 8)])
def test_bad_character_offset_after_leading_whitespace(text, offset):
    with pytest.raises(ParseError) as exc:
        parse(text, UV)
    assert exc.value.offset == offset
    assert str(exc.value) == f"unexpected character {text[offset]!r} at offset {offset}"


NESTINGS = {
    "parentheses": lambda k: "(" * k + "1" + ")" * k,
    "minuses": lambda k: "-" * k + "1",
    "sin": lambda k: "sin(" * k + "1" + ")" * k,
}


@pytest.mark.parametrize("nesting", list(NESTINGS))
def test_nesting_deeper_than_the_limit_is_a_parse_error(nesting):
    # 100 levels of parentheses, unary minuses or function calls compile; the
    # 101st is an error at the offset of the factor it opens, however deep
    # the text goes on (300 or 2000 levels once ended in a RecursionError)
    build = NESTINGS[nesting]
    want = 1.0
    for _ in range(100 if nesting == "sin" else 0):
        want = math.sin(want)
    assert ev(build(100), (0.5, 0.5)).value == pytest.approx(want, rel=1e-15)
    offset = {"parentheses": 101, "minuses": 101, "sin": 404}[nesting]
    for depth in (101, 300, 2000):
        with pytest.raises(ParseError) as exc:
            parse(build(depth), UV)
        assert str(exc.value) == f"expression nested more than 100 levels deep at offset {offset}"


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
        (f,) = evaluate(ast, ref.seed(p, 1))

        def scalar(q):
            return evaluate(ast, ref.seed(q, 1))[0].value

        grad = ref.fd_oracle(scalar, p)
        for i in range(2):
            scale = max(1.0, abs(f.partial(i)))
            assert abs(f.partial(i) - grad[i]) / scale <= 1e-6


def test_evaluation_is_reentrant():
    ast = parse("u*v + sin(u)", UV)
    (a,) = evaluate(ast, ref.seed((1.0, 2.0), 1))
    (b,) = evaluate(ast, ref.seed((1.0, 2.0), 1))
    assert a.value == b.value
    assert a is not b


# -- the value-numbered program --------------------------------------------------

def fisher_texts(coords):
    # the categorical Fisher grid, whose entries repeat exp(x_i) and Z
    e = [f"exp({x})" for x in coords]
    z = "(1 + " + " + ".join(e) + ")"
    return [f"-{e[min(i, j)]}*{e[max(i, j)]}/{z}^2" if i != j
            else f"{e[i]}*(1+{' + '.join(e[:i] + e[i + 1:])})/{z}^2"
            for i in range(len(coords)) for j in range(len(coords))]


SHARING = [
    ["exp(u)*exp(v)", "exp(u) + exp(v)", "exp(u)*exp(v)", "-exp(u)"],
    ["u + v", "u*v", "u - v", "u/v", "v + u"],
    ["(u + 1)^2", "(u + 1)^3", "(u + 1)^2 - (u + 1)", "0", "-0", "2", "2.0"],
    ["sin(u)", "cos(u)", "sin(u)*sin(u) + cos(u)*cos(u)", "tanh(sin(u))"],
    fisher_texts(UV),
    fisher_texts(("u", "v", "w")),
]


def _batch(order, nvars, seed):
    rng = np.random.default_rng(seed)
    width = len(jets._columns(order, nvars))
    return [JetBatch(order, nvars, rng.uniform(0.2, 0.9, (4, width))) for _ in range(nvars)]


@pytest.mark.parametrize("order", range(6))
@pytest.mark.parametrize("texts", SHARING, ids=range(len(SHARING)))
def test_a_grid_program_has_the_bits_of_each_text_alone(texts, order):
    # every output reads the instructions of its first occurrences, which see
    # the operands and operation of its own tree: the bits of a lone parse
    coords = ("u", "v", "w") if len(texts) == 9 else UV
    args = _batch(order, len(coords), order)
    got = evaluate(parse(texts, coords), args)
    for text, jet in zip(texts, got, strict=True):
        (want,) = evaluate(parse(text, coords), args)
        assert np.array_equal(jet.coeffs.view(np.int64), want.coeffs.view(np.int64)), text


def test_equal_subexpressions_become_one_instruction():
    # keyed by operation and operands: exp(u), exp(v), the product, the sum
    # and the negation, whatever text they occur in
    assert len(parse(SHARING[0], UV)._code) == 5
    # + - * / on the same operands stay five instructions, v + u a sixth
    assert len(parse(SHARING[1], UV)._code) == 5
    # numbers by their bits: 2 and 2.0 are one, 0 is another; -0 negates 0
    program = parse(["2", "2.0", "20e-1", "0", "-0"], UV)
    assert len(program._code) == 3
    assert program.zeros == (False, False, False, True, False)
    # the Fisher grids: 62 and 174 tree nodes, 2 + 14 and 3 + 25 values
    assert [len(parse(fisher_texts(c), c)._code) for c in (UV, ("u", "v", "w"))] == [14, 25]


def test_each_operation_keeps_its_own_value():
    # a key without the operation would give u*v the value of u + v
    outs = evaluate(parse(SHARING[1], UV), ref.seed((3.0, 2.0), 1))
    assert [f.value for f in outs] == [5.0, 6.0, 1.0, 1.5, 5.0]


@pytest.mark.parametrize("texts, offset", [
    (["1 + log(u - 2)", "log(u - 2)"], 4),
    (["log(u - 2)", "1 + log(u - 2)"], 0),
    (["u", "2*(u - 2)^0.5", "(u - 2)^0.5"], 9),
    (["(u - 2)^0.5 + log(u - 2)", "log(u - 2)"], 7),
])
def test_a_shared_failing_node_fails_at_its_first_offset(texts, offset):
    # the first failing instruction is the node the tree walk of the texts in
    # turn fails at, with the offset of its first occurrence
    with pytest.raises(EvalDomainError) as exc:
        evaluate(parse(texts, UV), ref.seed((0.0, 0.0), 1))
    assert exc.value.offset == offset
    alone = next(t for t in texts if "log" in t or "^0.5" in t)
    with pytest.raises(EvalDomainError) as first:
        evaluate(parse(alone, UV), ref.seed((0.0, 0.0), 1))
    assert str(exc.value) == str(first.value)


def test_too_few_argument_jets_is_a_usage_error():
    with pytest.raises(jets.JetUsageError, match="2 coordinates need as many argument jets"):
        evaluate(parse("u", UV), ref.seed((1.0,), 1))


def test_each_value_is_dropped_after_its_last_reader():
    # u, v, exp(u), exp(v), the product, the sum and the negation: exp(v)
    # goes after the sum, exp(u) after the negation, the outputs never
    program = parse(SHARING[0], UV)
    assert program._outputs == (4, 5, 4, 6)
    assert program._dead == [[0], [1], [], [3], [2]]
