"""JetBatch against the Jet reference: every coefficient of a batched
operation must equal, sign of zero included, what the Jet at that batch
point computes, and a domain error must carry the Jet's message."""
import math
import operator

import numpy as np
import pytest

from bornbundle import expr, jets
from bornbundle.jets import JetBatch, JetDomainError, JetUsageError, partial_keys
from jet_reference import Jet, coefficients, seed, seed_embedded

ORDERS = (0, 1, 2, 3, 4, 5)
BATCH = 7


def random_jets(rng, order, nvars, count, lo=-2.0, hi=2.0, values=None):
    """Jets with random values and partials; some partials are exact +-0 so
    that the signs of zeros are exercised."""
    out = []
    for b in range(count):
        value = float(rng.uniform(lo, hi)) if values is None else values[b]
        partials = {}
        for key in partial_keys(order, nvars):
            pick = rng.integers(5)
            partials[key] = (0.0 if pick == 0 else -0.0 if pick == 1
                             else float(rng.uniform(-3.0, 3.0)))
        out.append(Jet(order, nvars, value, partials))
    return out


def batch_of(js):
    return JetBatch(js[0].order, js[0].nvars, np.stack([coefficients(j) for j in js]))


def assert_same(batch, js):
    assert isinstance(batch, JetBatch)
    want = np.stack([coefficients(j) for j in js])
    got = batch.coeffs
    assert got.shape == want.shape
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    assert np.array_equal(got[~nan], want[~nan])
    assert np.array_equal(np.signbit(got[~nan]), np.signbit(want[~nan]))


def cases():
    for order in ORDERS:
        for nvars in (1, 2, 3):
            yield pytest.param(order, nvars, id=f"order{order}-nvars{nvars}")


BINARY = [operator.add, operator.sub, operator.mul, operator.truediv]


@pytest.mark.parametrize("order,nvars", cases())
@pytest.mark.parametrize("op", BINARY, ids=lambda op: op.__name__)
def test_binary_ops_match_jets(order, nvars, op):
    rng = np.random.default_rng(order * 10 + nvars)
    # values of exact +-0 against values of either sign, so that the sign of
    # a zero product's value is checked; a divisor keeps nonzero values
    a_values, b_values = (rng.uniform(-2.0, 2.0, BATCH) for _ in range(2))
    a_values[:3] = 0.0, -0.0, -0.0
    if op is not operator.truediv:
        b_values[:3] = -0.0, 0.0, -0.0
    a, b = (random_jets(rng, order, nvars, BATCH, values=v.tolist())
            for v in (a_values, b_values))
    const = random_jets(rng, order, nvars, 1)[0]
    ab, bb = batch_of(a), batch_of(b)
    assert_same(op(ab, bb), [op(x, y) for x, y in zip(a, b)])
    # a one-point batch on either side keeps its role as left or right operand
    cb = JetBatch(order, nvars, coefficients(const))
    assert_same(op(ab, cb), [op(x, const) for x in a])
    assert_same(op(cb, bb), [op(const, y) for y in b])
    if op is operator.mul:
        # a float on the right scales every coefficient
        for c in (2.0, -0.5, 0.0, -0.0):
            assert_same(ab * c, [x * c for x in a])


@pytest.mark.parametrize("order,nvars", cases())
def test_negation_and_reflected_float_ops_match_jets(order, nvars):
    rng = np.random.default_rng(100 + order * 10 + nvars)
    a = random_jets(rng, order, nvars, BATCH)
    ab = batch_of(a)
    assert_same(-ab, [-x for x in a])
    # a number on the left of a batch enters as a constant jet, as expression
    # evaluation makes it; the reference takes it as a reflected operand
    for c in (1.5, 0.0):
        assert_same(JetBatch.constant(c, order, nvars) - ab, [c - x for x in a])


@pytest.mark.parametrize("order,nvars", cases())
@pytest.mark.parametrize("func,lo,hi", [
    (jets.exp, -3.0, 3.0), (jets.log, 0.1, 4.0), (jets.sqrt, 0.1, 4.0),
    (jets.sin, -4.0, 4.0), (jets.cos, -4.0, 4.0), (jets.tanh, -3.0, 3.0),
], ids=lambda v: getattr(v, "__name__", None))
def test_elementary_functions_match_jets(order, nvars, func, lo, hi):
    rng = np.random.default_rng(200 + order * 10 + nvars)
    a = random_jets(rng, order, nvars, BATCH, lo, hi)
    assert_same(func(batch_of(a)), [func(x) for x in a])


@pytest.mark.parametrize("order,nvars", cases())
@pytest.mark.parametrize("exponent", [0.0, 1.0, 2.0, 3.0, -2.0, 0.5, -1.5, 2.5])
def test_pow_const_matches_jets(order, nvars, exponent):
    rng = np.random.default_rng(300 + order * 10 + nvars)
    # positive bases take every exponent, integer exponents take negative
    # bases too, and a zero base takes the exponents whose powers it has
    bases = [0.3, 1.7, 2.0, 0.9]
    if float(exponent).is_integer():
        bases += [-1.2, -0.4]
    if exponent >= order or float(exponent).is_integer() and exponent >= 0:
        bases += [0.0]
    a = random_jets(rng, order, nvars, len(bases), values=bases)
    assert_same(jets.pow_const(batch_of(a), exponent),
                [jets.pow_const(x, exponent) for x in a])


def jet_error(fn, x):
    with pytest.raises(JetDomainError) as exc:
        fn(x)
    return str(exc.value)


@pytest.mark.parametrize("order", ORDERS)
@pytest.mark.parametrize("fn,values", [
    (jets.log, [1.0, 0.5, -1.0, 0.0]),
    (jets.sqrt, [2.0, 0.0, -3.0]),
    (jets.exp, [1.0, 800.0, 900.0]),
    (jets._reciprocal, [2.0, 0.0, -1.0]),
    (lambda u: u / (u - type(u).constant(1.0, u.order, u.nvars)), [0.5, 1.0]),
    (lambda u: type(u).constant(1.0, u.order, u.nvars) / u, [3.0, 1e-300, 0.0]),
    (lambda u: jets.pow_const(u, 0.5), [1.0, -2.0]),
    (lambda u: jets.pow_const(u, -1.0), [1.0, 0.0]),
    (lambda u: jets.pow_const(u, 3.0), [1.0, 1e200]),
    (jets.log, [1.0, 1e-300, 0.5]),
    (jets.sqrt, [2.0, 1e-300]),
], ids=["log", "sqrt", "exp", "reciprocal", "divide", "jet-divide",
        "pow-fractional", "pow-zero-base", "pow-overflow", "log-tiny", "sqrt-tiny"])
def test_domain_errors_carry_the_jet_message(order, fn, values):
    rng = np.random.default_rng(order)
    a = random_jets(rng, order, 2, len(values), values=values)
    failing = [x for x in a if _raises(fn, x)]
    if failing:
        assert jet_error(fn, batch_of(a)) == jet_error(fn, failing[0])
    else:  # the tiny cases below order 3 (2 for sqrt) read no failing derivative
        with np.errstate(over="ignore", invalid="ignore"):
            assert_same(fn(batch_of(a)), [fn(x) for x in a])


# at a tiny value, the first derivative that fails (overflows, or for sqrt
# divides by a product that underflows to 0), and f with its derivatives
# below it, by the formulas of bornbundle.jets
UNREAD = [
    pytest.param(jets._reciprocal, 1e-150, 2, "reciprocal of 1e-150 overflows",
                 lambda v: (1.0 / v, -(1.0 / v) * (1.0 / v)), id="reciprocal"),
    pytest.param(jets.log, 1e-150, 3, "derivatives of log at 1e-150 overflow",
                 lambda v: (math.log(v), 1.0 / v, -(1.0 / v) * (1.0 / v)), id="log"),
    pytest.param(jets.sqrt, 1e-300, 2, "derivatives of sqrt at 1e-300 overflow",
                 lambda v: (math.sqrt(v), 0.5 / math.sqrt(v)), id="sqrt-second"),
    pytest.param(jets.sqrt, 1e-200, 3, "derivatives of sqrt at 1e-200 overflow",
                 lambda v: (math.sqrt(v), 0.5 / math.sqrt(v), -0.25 / (math.sqrt(v) * v)),
                 id="sqrt-third"),
    # past the closed forms, the power's own message
    pytest.param(jets._reciprocal, 1e-70, 4, "1e-70 ** -5.0 overflows",
                 lambda v: (1.0 / v, -(1.0 / v) * (1.0 / v), 2.0 * (1.0 / v) ** 3,
                            -6.0 * (1.0 / v) ** 4), id="reciprocal-fourth"),
    pytest.param(jets.sqrt, 1e-100, 4, "1e-100 ** -3.5 overflows",
                 lambda v: (math.sqrt(v), 0.5 / math.sqrt(v), -0.25 / (math.sqrt(v) * v),
                            0.375 / (math.sqrt(v) * v * v)), id="sqrt-fourth"),
]


@pytest.mark.parametrize("order", ORDERS)
@pytest.mark.parametrize("fn,value,fails_from,message,derivs", UNREAD)
def test_only_a_derivative_the_order_reads_rejects_a_point(order, fn, value, fails_from,
                                                          message, derivs):
    # a jet of order below fails_from never computes the failing derivative:
    # the batch and the reference read the same coefficients, whose bits are
    # those of the formulas; from fails_from on both raise its message
    (x,) = seed_embedded([value], order, 1)
    a = [Jet.constant(2.0, order, 1), x, Jet.constant(0.5, order, 1)]
    if order >= fails_from:
        assert jet_error(fn, x) == message
        assert jet_error(fn, batch_of(a)) == message
        return
    got = fn(batch_of(a))
    assert_same(got, [fn(y) for y in a])
    # the seeded jet's coefficients are f and its derivatives at the value
    assert np.array_equal(got.coeffs[1], np.array(derivs(value)[:order + 1]))


def _raises(fn, x):
    try:
        fn(x)
    except JetDomainError:
        return True
    return False


def test_mismatched_jets_are_usage_errors():
    b = batch_of(random_jets(np.random.default_rng(0), 1, 2, 3))
    with pytest.raises(JetUsageError):
        b + JetBatch.constant(1.0, 2, 2)
    with pytest.raises(JetUsageError):
        JetBatch.constant(1.0, 1, 3) * b
    with pytest.raises(JetUsageError):
        JetBatch(1, 2, np.zeros((3, 4)))


def test_batch_of_any_shape():
    rng = np.random.default_rng(5)
    a = random_jets(rng, 2, 2, 6)
    grid = JetBatch(2, 2, batch_of(a).coeffs.reshape(2, 3, -1))
    assert_same(JetBatch(2, 2, (grid * jets.sin(grid)).coeffs.reshape(6, -1)),
                [x * jets.sin(x) for x in a])
    assert grid.value[1, 2] == a[5].value


# every node kind: constants, variables, negation, + - * /, powers, calls
EXPRESSIONS = [
    "2*u - v/3 + 1",
    "-(u*v)^2 + u^3 - 0.5/v^2",
    "exp(u)*sin(v) + cos(u*v) - tanh(2*u)",
    "log(1 + u^2) / sqrt(2 + v) + (u - v)^0.5",
    "1/(1 + u^2 + v^2)",
]


@pytest.mark.parametrize("order", ORDERS)
@pytest.mark.parametrize("text", EXPRESSIONS)
def test_expression_evaluates_unchanged_on_a_batch(order, text):
    ast = expr.parse(text, ["u", "v"])
    rng = np.random.default_rng(order)
    points = [(float(rng.uniform(0.6, 1.8)), float(rng.uniform(0.1, 0.5)))
              for _ in range(BATCH)]
    coeffs = np.stack([np.stack([coefficients(j)
                                 for j in seed_embedded(p, order, 2, 0)])
                       for p in points])
    args = [JetBatch(order, 2, coeffs[:, c]) for c in range(2)]
    assert_same(expr.evaluate(ast, args)[0],
                [expr.evaluate(ast, seed_embedded(p, order, 2, 0))[0] for p in points])


def test_expression_domain_error_names_the_jet_message_and_offset():
    ast = expr.parse("log(u - 1)", ["u"])
    values = [2.0, 0.5, 0.25]
    args = [JetBatch(1, 1, np.array([[v, 1.0] for v in values]))]
    with pytest.raises(expr.EvalDomainError) as batch_exc:
        expr.evaluate(ast, args)
    with pytest.raises(expr.EvalDomainError) as jet_exc:
        expr.evaluate(ast, seed([0.5], 1))
    assert str(batch_exc.value) == str(jet_exc.value)
    assert batch_exc.value.offset == jet_exc.value.offset


def _outcome(evaluate):
    try:
        return evaluate()
    except expr.EvalDomainError as e:
        return str(e)


@pytest.mark.parametrize("text", ["u/(1 - 1)", "log(0 - 1) + u", "u + 0*(1e200*1e200)",
                                  "(2*0.5)*u - exp(0)*(0*2)"])
def test_constant_subexpressions_match_jets(text):
    # constants are one-point batches: their errors, NaNs and signs of zeros
    # are the reference's, on a batch of points as at each point
    ast = expr.parse(text, ["u"])
    points = [0.5, -1.5]
    args = [JetBatch(2, 1, np.stack([coefficients(seed([p], 2)[0]) for p in points]))]
    with np.errstate(over="ignore", invalid="ignore"):  # as Python floats
        got = _outcome(lambda: expr.evaluate(ast, args)[0])
    want = [_outcome(lambda: expr.evaluate(ast, seed([p], 2))[0]) for p in points]
    if isinstance(want[0], str):
        assert got == want[0]
    else:
        assert_same(got, want)


def _constants(order, nvars):
    """Constant jets as expression evaluation makes them: values of either
    sign and of zero, and negated constants, whose partials are -0.0."""
    for value in (0.985, -0.6, 0.0, -0.0, 2.5e-300):
        yield JetBatch.constant(value, order, nvars)
        yield -JetBatch.constant(value, order, nvars)


@pytest.mark.parametrize("order,nvars", cases())
def test_a_constant_times_a_jet_is_the_leibniz_sum(order, nvars):
    # the scalar path gives the bits of the full product, with the constant
    # on either side, on operands whose partials include +-0.0 and inf or
    # NaN coefficients (which take the full product: 0.0 * inf is NaN)
    rng = np.random.default_rng(100 + order * 10 + nvars)
    other = batch_of(random_jets(rng, order, nvars, BATCH, values=[
        1.5, -0.0, 0.0, -2.0, float("inf"), float("nan"), 0.25]))
    finite = batch_of(random_jets(rng, order, nvars, BATCH))
    special = finite.coeffs.copy()
    special[2, -1] = -np.inf
    special[4, 0] = np.nan
    for jet in (other, finite, JetBatch(order, nvars, special)):
        for const in _constants(order, nvars):
            with np.errstate(invalid="ignore"):  # 0.0 * inf, as the sum gives
                for left, right in ((const, jet), (jet, const), (const, const)):
                    got = (left * right).coeffs
                    want = np.broadcast_to(jets._product_coeffs(
                        left.coeffs, right.coeffs, order, nvars), got.shape)
                    nan = np.isnan(want)
                    assert np.array_equal(np.isnan(got), nan)
                    assert np.array_equal(got[~nan].view(np.int64),
                                          want[~nan].view(np.int64))
