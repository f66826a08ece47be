import math

import pytest
from hypothesis import given, settings, strategies as st

from bornbundle import jets
from bornbundle.jets import (JetBatch, JetDomainError, JetUsageError, augment,
                             extract_partial)
from jet_reference import Jet, coefficients, fd_oracle, seed, seed_embedded

finite = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)


def test_seed_single_variable():
    (x,) = seed((3.0,), 1)
    assert x.value == 3.0
    assert x.partial(0) == 1.0


def test_seed_cross_variable_is_zero():
    x, y = seed((1.0, 2.0), 2)
    assert x.partial(1, 1) == 0.0
    assert x.partial(0) == 1.0
    assert y.partial(1) == 1.0
    assert y.partial(0) == 0.0


def test_product_rule_square():
    (x,) = seed((3.0,), 1)
    f = x * x
    assert f.value == 9.0
    assert f.partial(0) == 6.0


def test_bilinear_product():
    x, y = seed((2.0, 5.0), 1)
    f = x * y
    assert f.partial(0) == 5.0
    assert f.partial(1) == 2.0


def test_exp_taylor_at_zero():
    (x,) = seed((0.0,), 2)
    f = jets.exp(x)
    assert f.value == 1.0
    assert f.partial(0) == 1.0
    assert f.partial(0, 0) == 1.0


def test_sin_derivative_at_zero():
    (x,) = seed((0.0,), 1)
    assert jets.sin(x).partial(0) == 1.0


def test_third_order_cube():
    (x,) = seed((2.0,), 3)
    f = x * x * x
    assert f.value == 8.0
    assert f.partial(0) == 12.0
    assert f.partial(0, 0) == 12.0
    assert f.partial(0, 0, 0) == 6.0


def test_third_order_mixed():
    # f(x, y) = x^2 y: d3f/dx dx dy = 2
    x, y = seed((1.5, -0.5), 3)
    f = x * x * y
    assert f.partial(0, 0, 1) == pytest.approx(2.0, abs=1e-14)
    assert f.partial(0, 1) == pytest.approx(2.0 * 1.5, abs=1e-14)


def test_reciprocal_derivatives():
    (x,) = seed((2.0,), 3)
    f = 1.0 / x
    assert f.value == 0.5
    assert f.partial(0) == pytest.approx(-0.25)
    assert f.partial(0, 0) == pytest.approx(2.0 / 8.0)
    assert f.partial(0, 0, 0) == pytest.approx(-6.0 / 16.0)


@pytest.mark.parametrize("func,x0,derivs", [
    (jets.log, 2.0, (math.log(2.0), 0.5, -0.25, 0.25)),
    (jets.sqrt, 4.0, (2.0, 0.25, -1.0 / 32.0, 3.0 / 256.0)),
    (jets.cos, 0.3, (math.cos(0.3), -math.sin(0.3), -math.cos(0.3), math.sin(0.3))),
    (jets.tanh, 0.4, None),
])
def test_elementary_third_order(func, x0, derivs):
    (x,) = seed((x0,), 3)
    f = func(x)
    if derivs is None:
        t = math.tanh(x0)
        d = 1.0 - t * t
        derivs = (t, d, -2.0 * t * d, d * (6.0 * t * t - 2.0))
    assert f.value == pytest.approx(derivs[0], abs=1e-14)
    assert f.partial(0) == pytest.approx(derivs[1], abs=1e-14)
    assert f.partial(0, 0) == pytest.approx(derivs[2], abs=1e-13)
    assert f.partial(0, 0, 0) == pytest.approx(derivs[3], abs=1e-13)


def test_pow_const_at_zero():
    (x,) = seed((0.0,), 3)
    f = x ** 3.0
    assert f.value == 0.0
    assert f.partial(0) == 0.0
    assert f.partial(0, 0) == 0.0
    assert f.partial(0, 0, 0) == 6.0


def test_pow_const_negative_base_integer_exponent():
    (x,) = seed((-2.0,), 2)
    f = x ** 2.0
    assert f.value == 4.0
    assert f.partial(0) == -4.0
    assert f.partial(0, 0) == 2.0


def test_domain_errors():
    (x,) = seed((-1.0,), 1)
    with pytest.raises(JetDomainError):
        jets.log(x)
    with pytest.raises(JetDomainError):
        jets.sqrt(x)
    with pytest.raises(JetDomainError):
        x ** 0.5
    (z,) = seed((0.0,), 1)
    with pytest.raises(JetDomainError):
        x / z


def test_overflow_is_domain_error():
    (big,) = seed((1000.0,), 3)
    with pytest.raises(JetDomainError, match="exp of 1000.0 overflows"):
        jets.exp(big)
    (tiny,) = seed((1e-200,), 3)
    with pytest.raises(JetDomainError, match="reciprocal"):
        1.0 / tiny
    with pytest.raises(JetDomainError, match="overflows"):
        tiny ** -2.0
    with pytest.raises(JetDomainError, match="overflows"):
        big ** 200.0


def test_usage_errors():
    with pytest.raises(JetUsageError):
        seed((1.0,), 4)
    with pytest.raises(JetUsageError):
        seed((1.0,), 0)
    a = seed((1.0,), 1)[0]
    b = seed((1.0, 2.0), 1)[0]
    with pytest.raises(JetUsageError):
        a + b
    c = seed((1.0,), 2)[0]
    with pytest.raises(JetUsageError):
        a * c


def test_schwarz_symmetry_is_structural():
    x, y = seed((0.7, -0.3), 3)
    f = jets.exp(x * y) * jets.sin(x)
    # permuted lookups hit the same stored cell
    assert f.partial(0, 1) is not None
    assert f.partial(0, 1) == f.partial(1, 0)
    assert f.partial(0, 0, 1) == f.partial(1, 0, 0) == f.partial(0, 1, 0)
    assert set(f.partials) == set(jets.partial_keys(3, 2))


def test_fd_oracle_quadratic():
    g = fd_oracle(lambda p: p[0] ** 2, (3.0,))
    assert abs(g[0] - 6.0) <= 1e-9


def test_fd_oracle_exp_matches_jet():
    (x,) = seed((0.0,), 1)
    jet_d = jets.exp(x).partial(0)
    g = fd_oracle(lambda p: math.exp(p[0]), (0.0,))
    assert abs(g[0] - jet_d) <= 1e-10


def test_fd_oracle_sin_critical_point():
    g = fd_oracle(lambda p: math.sin(p[0]), (math.pi / 2,))
    assert abs(g[0]) <= 1e-10


@given(finite, finite, finite)
@settings(max_examples=200)
def test_addition_commutative_and_associative(a, b, c):
    ja, jb, jc = seed((a, b, c), 2)
    left = (ja + jb) + jc
    right = ja + (jb + jc)
    assert abs(left.value - right.value) <= 1e-12
    assert (ja + jb).value == (jb + ja).value


@given(finite, finite, finite)
@settings(max_examples=200)
def test_multiplication_commutative_and_associative(a, b, c):
    ja, jb, jc = seed((a, b, c), 2)
    assert (ja * jb).value == (jb * ja).value
    left = (ja * jb) * jc
    right = ja * (jb * jc)
    assert abs(left.value - right.value) <= 1e-12 * max(1.0, abs(left.value))


@given(st.floats(min_value=-3.0, max_value=3.0, allow_nan=False),
       st.floats(min_value=-3.0, max_value=3.0, allow_nan=False))
@settings(max_examples=200)
def test_jet_gradient_matches_fd(a, b):
    def f_jet(x, y):
        return jets.sin(x) * jets.exp(y * 0.5) + x * x * y

    def f_val(p):
        return math.sin(p[0]) * math.exp(p[1] * 0.5) + p[0] ** 2 * p[1]

    x, y = seed((a, b), 1)
    f = f_jet(x, y)
    grad = fd_oracle(f_val, (a, b))
    for i in range(2):
        scale = max(1.0, abs(f.partial(i)))
        assert abs(f.partial(i) - grad[i]) / scale <= 1e-6


def batch(u: Jet) -> JetBatch:
    return JetBatch(u.order, u.nvars, coefficients(u))


def partial(u: JetBatch, *indices: int) -> float:
    """A partial of a JetBatch of batch shape (), as Jet.partial reads it."""
    key = tuple(sorted(indices))
    return float(u.coeffs[jets._columns(u.order, u.nvars)[key]])


def test_augment_extract_on_nonseed_arguments():
    # x(a) = a^2 composed with f(x) = sin(x); check df/dx extracted at x(a)
    (a,) = seed((0.7,), 2)
    x = a * a
    (b,) = augment([batch(x)], 3)
    f = jets.sin(b)
    df = extract_partial(f, [(1,)], 1, 2)[0]  # df/dx as a jet in a
    x0 = 0.49
    assert df.value == pytest.approx(math.cos(x0), abs=1e-14)
    # d/da of cos(x(a)) = -sin(x) * 2a
    assert partial(df, 0) == pytest.approx(-math.sin(x0) * 1.4, abs=1e-13)
    back = extract_partial(f, [()], 1, 2)[0]  # f restricted to a
    assert back.value == pytest.approx(math.sin(x0), abs=1e-14)
    assert partial(back, 0) == pytest.approx(math.cos(x0) * 1.4, abs=1e-13)


def test_seed_embedded_offsets():
    x, y = seed_embedded((1.0, 2.0), 1, 4, offset=2)
    assert x.nvars == 4
    assert x.partial(2) == 1.0
    assert x.partial(0) == 0.0
    assert y.partial(3) == 1.0
