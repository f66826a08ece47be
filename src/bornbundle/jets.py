"""Forward-mode truncated-Taylor (jet) arithmetic on coefficient arrays.

A :class:`JetBatch` holds, at every point of a batch, a value together with
every mixed partial derivative up to a fixed order (at most 3) with respect
to a fixed set of seeded variables, as one float array of shape
``(*batch, K)``: the value in column 0, then the K - 1 partials in
:func:`partial_keys` order (Taylor-mode forward differentiation).  Partials
are stored once per *sorted* multi-index, so equality of mixed partials
under permutation of the differentiation indices is structural.  Products
sum their Leibniz splits through gather tables, and the elementary
functions take their derivative values from ``math`` calls, point by
point, raising the :class:`JetDomainError` of the first failing point in
C order.  Seeding (:func:`seed_batch`), :func:`truncate`, :func:`augment`
and :func:`extract_partial` act on JetBatches as column gathers.
"""
from __future__ import annotations

import itertools
import math
from functools import lru_cache, wraps
from typing import Callable, Sequence

import numpy as np

MAX_ORDER = 3


class JetUsageError(ValueError):
    """Jets combined or constructed inconsistently (order/arity mismatch)."""


class JetDomainError(ArithmeticError):
    """An operation was evaluated outside its real domain."""


@lru_cache(maxsize=None)
def partial_keys(order: int, nvars: int) -> tuple[tuple[int, ...], ...]:
    """All sorted multi-indices of length 1..order over nvars variables."""
    keys: list[tuple[int, ...]] = []
    for r in range(1, order + 1):
        keys.extend(itertools.combinations_with_replacement(range(nvars), r))
    return tuple(keys)


@lru_cache(maxsize=None)
def _mul_splits(key: tuple[int, ...]) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]:
    # Leibniz rule over the positions of the multi-index: every way of
    # handing each differentiation to the left or the right factor.
    r = len(key)
    splits = []
    for mask in range(2 ** r):
        left = tuple(key[p] for p in range(r) if mask >> p & 1)
        right = tuple(key[p] for p in range(r) if not mask >> p & 1)
        splits.append((left, right))
    return tuple(splits)


# -- elementary functions ----------------------------------------------
#
# Each function below is written as the values of f and its first three
# derivatives at one float, or its JetDomainError there; :func:`_elementary`
# lifts it to any jet with a ``compose`` method, so a JetBatch and the
# per-point reference jet compute with the same ``math`` calls and raise the
# same messages.

def _elementary(derivs: Callable[[float], Sequence[float]]):
    """The jet function whose derivative values ``derivs`` gives at one
    float, applied through the jet's :meth:`~JetBatch.compose`."""
    @wraps(derivs)
    def apply(u):
        return u.compose(derivs)
    return apply


@_elementary
def _reciprocal(v: float) -> tuple:
    if v == 0.0:
        raise JetDomainError("division by zero")
    inv = 1.0 / v
    try:
        return (inv, -inv * inv, 2.0 * inv ** 3, -6.0 * inv ** 4)
    except OverflowError:
        raise JetDomainError(f"reciprocal of {v} overflows") from None


@_elementary
def exp(v: float) -> tuple:
    try:
        e = math.exp(v)
    except OverflowError:
        raise JetDomainError(f"exp of {v} overflows") from None
    return (e, e, e, e)


@_elementary
def log(v: float) -> tuple:
    if v <= 0.0:
        raise JetDomainError(f"log of non-positive value {v}")
    inv = 1.0 / v
    try:
        return (math.log(v), inv, -inv * inv, 2.0 * inv ** 3)
    except OverflowError:
        raise JetDomainError(f"derivatives of log at {v} overflow") from None


@_elementary
def sqrt(v: float) -> tuple:
    if v <= 0.0:
        raise JetDomainError(f"sqrt of non-positive value {v}")
    s = math.sqrt(v)
    try:
        return (s, 0.5 / s, -0.25 / (s * v), 0.375 / (s * v * v))
    except ZeroDivisionError:  # s * v or s * v * v underflows to 0
        raise JetDomainError(f"derivatives of sqrt at {v} overflow") from None


@_elementary
def sin(v: float) -> tuple:
    s, c = math.sin(v), math.cos(v)
    return (s, c, -s, -c)


@_elementary
def cos(v: float) -> tuple:
    s, c = math.sin(v), math.cos(v)
    return (c, -s, -c, s)


@_elementary
def tanh(v: float) -> tuple:
    t = math.tanh(v)
    d = 1.0 - t * t
    return (t, d, -2.0 * t * d, d * (6.0 * t * t - 2.0))


def pow_const(u, c: float):
    """u**c with a constant exponent."""
    return u.compose(lambda v: _pow_derivs(v, c, u.order))


def _pow_derivs(v: float, c: float, order: int) -> list:
    if v < 0.0 and not float(c).is_integer():
        raise JetDomainError(f"negative base {v} with non-integer exponent {c}")
    derivs = []
    coeff = 1.0
    for k in range(order + 1):
        if coeff == 0.0:
            derivs.append(0.0)
        else:
            e = c - k
            if v == 0.0:
                if e > 0:
                    derivs.append(0.0)
                elif e == 0:
                    derivs.append(coeff)
                else:
                    raise JetDomainError(f"zero base with exponent {c} needs negative powers")
            else:
                try:
                    derivs.append(coeff * v ** e)
                except OverflowError:
                    raise JetDomainError(f"{v} ** {e} overflows") from None
        coeff *= c - k
    while len(derivs) < 4:
        derivs.append(0.0)
    return derivs


# -- dense jet batches ---------------------------------------------------

@lru_cache(maxsize=None)
def _columns(order: int, nvars: int) -> dict:
    """Column of each multi-index in a coefficient vector: () is the value
    in column 0, then come the partials in :func:`partial_keys` order."""
    return {key: c for c, key in enumerate(((),) + partial_keys(order, nvars))}


@lru_cache(maxsize=None)
def _product_table(order: int, nvars: int):
    """Gather tables of a jet product.  Column c of the product sums
    ``a[left[c, s]] * b[right[c, s]]`` over the splits s of its multi-index
    (:func:`_mul_splits`, in mask order); a column with fewer splits points
    its unused slots at column 0.  Columns are ordered by the length of
    their multi-index, so the columns with a split s are those from
    ``starts[s]`` on.  ``first`` is what each column's sum starts from:
    -0.0 for the value, which adds nothing, and 0.0 for every partial."""
    cols = _columns(order, nvars)
    width = 2 ** order
    left = np.zeros((len(cols), width), dtype=np.intp)
    right = np.zeros((len(cols), width), dtype=np.intp)
    for key, c in cols.items():
        for s, (lkey, rkey) in enumerate(_mul_splits(key)):
            left[c, s], right[c, s] = cols[lkey], cols[rkey]
    starts = [1 + sum(math.comb(nvars + r - 1, r) for r in range(1, s.bit_length()))
              for s in range(width)]
    first = np.zeros(len(cols))
    first[0] = -0.0
    return left, right, starts, first


def _product_coeffs(a: np.ndarray, b: np.ndarray, order: int, nvars: int) -> np.ndarray:
    """Coefficients of the jet product a * b: the value is ``av*bv``, and
    each partial is ``0.0 + fa*fb + ...`` over its splits in mask order."""
    left, right, starts, first = _product_table(order, nvars)
    terms = a.take(left, axis=-1) * b.take(right, axis=-1)
    out = terms[..., 0] + first
    for s in range(1, len(starts)):
        block = out[..., starts[s]:]
        block += terms[..., starts[s]:, s]
    return out


@lru_cache(maxsize=None)
def _chain_table(order: int, nvars: int) -> list:
    """For each multi-index length r >= 2: the columns of its partials and
    the columns that the chain rule for length r reads (see
    :func:`_chain_coeffs`)."""
    cols = _columns(order, nvars)
    tables = []
    for r in range(2, order + 1):
        keys = [key for key in cols if len(key) == r]
        if r == 2:
            reads = [(cols[(i,)], cols[(j,)]) for i, j in keys]
        else:
            reads = [(cols[(i,)], cols[(j,)], cols[(k,)], cols[(j, k)],
                      cols[(i, k)], cols[(i, j)]) for i, j, k in keys]
        tables.append((np.array([cols[key] for key in keys], dtype=np.intp),
                       np.array(reads, dtype=np.intp).T))
    return tables


def _chain_coeffs(p: np.ndarray, f: np.ndarray, order: int, nvars: int) -> np.ndarray:
    """Compose a scalar function with the jets p, ``(*batch, K)``, given
    its derivative values f, ``(*batch, 4)``, at their values (Faa di Bruno
    through order 3)."""
    out = np.empty(p.shape)
    out[..., 0] = f[..., 0]
    out[..., 1:] = f[..., 1:2] * p[..., 1:]
    for cols, reads in _chain_table(order, nvars):
        if len(reads) == 2:
            i, j = reads
            out[..., cols] = f[..., 2:3] * p[..., i] * p[..., j] + out[..., cols]
        else:
            i, j, k, jk, ik, ij = reads
            out[..., cols] = (f[..., 3:4] * p[..., i] * p[..., j] * p[..., k]
                              + f[..., 2:3] * (p[..., i] * p[..., jk]
                                               + p[..., j] * p[..., ik]
                                               + p[..., k] * p[..., ij])
                              + out[..., cols])
    return out


class JetBatch:
    """Jets of one order and arity at every point of a batch, held as one
    float array ``coeffs`` of shape ``(*batch, K)``: the value in column 0,
    then the K - 1 partials in :func:`partial_keys` order.

    Each coefficient equals, bit for bit, what the per-point reference jet
    in ``tests/jet_reference.py`` computes at that batch point.  A product
    sums its Leibniz splits in mask order (:func:`_mul_splits`), and an
    operand on the left keeps the left role, since at order 2 the split sum
    is not symmetric.  The elementary functions take their derivative
    values from ``math`` calls, point by point, and raise the
    JetDomainError of the first failing batch point in C order.  numpy
    warns where Python floats overflow silently, so callers that may
    overflow run under ``np.errstate``.
    """

    __slots__ = ("order", "nvars", "coeffs")

    def __init__(self, order: int, nvars: int, coeffs):
        if not 0 <= order <= MAX_ORDER:
            raise JetUsageError(f"unsupported jet order {order} (max {MAX_ORDER})")
        if nvars < 1:
            raise JetUsageError("jet needs at least one variable")
        coeffs = np.asarray(coeffs, dtype=float)
        if coeffs.shape[-1:] != (len(_columns(order, nvars)),):
            raise JetUsageError(f"coefficients of shape {coeffs.shape} do not hold "
                                f"order-{order} jets over {nvars} variables")
        self.order = order
        self.nvars = nvars
        self.coeffs = coeffs

    @staticmethod
    def constant(value: float, order: int, nvars: int) -> "Jet":
        """The constant ``value`` as a one-point jet."""
        return Jet(order, nvars, value)

    @property
    def value(self) -> np.ndarray:
        return self.coeffs[..., 0]

    @property
    def shape(self) -> tuple:
        """The batch shape."""
        return self.coeffs.shape[:-1]

    def __getitem__(self, index) -> "JetBatch":
        """Index the batch axes, as numpy indexes an array of that shape."""
        return self._new(self.coeffs[np.index_exp[index] + (slice(None),)])

    def swapaxes(self, a: int, b: int) -> "JetBatch":
        """Swap two batch axes."""
        a, b = (axis % len(self.shape) for axis in (a, b))
        return self._new(self.coeffs.swapaxes(a, b))

    def compose(self, derivs: Callable[[float], Sequence[float]]) -> "JetBatch":
        """f(self) for the scalar function f whose value and first three
        derivatives ``derivs`` gives at one float, called at each batch
        point in C order."""
        values = self.coeffs[..., 0]
        f = np.array([derivs(v) for v in values.ravel().tolist()])
        return self._new(_chain_coeffs(self.coeffs, f.reshape(values.shape + (4,)),
                                       self.order, self.nvars))

    def _new(self, coeffs) -> "JetBatch":
        return JetBatch(self.order, self.nvars, coeffs)

    def _coerce(self, other):
        """The coefficients of an operand: a float becomes a constant jet;
        anything but a JetBatch or a number gives NotImplemented."""
        if isinstance(other, JetBatch):
            if other.order != self.order or other.nvars != self.nvars:
                raise JetUsageError(
                    f"jet mismatch: (order={self.order}, nvars={self.nvars}) vs "
                    f"(order={other.order}, nvars={other.nvars})")
            return other.coeffs
        if isinstance(other, (int, float)):
            out = np.zeros(self.coeffs.shape[-1])
            out[0] = other
            return out
        return NotImplemented

    # A JetBatch on the left handles every JetBatch on the right, so the
    # reflected operators below only ever see numbers.

    def __add__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is NotImplemented else self._new(self.coeffs + o)

    def __radd__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is NotImplemented else self._new(o + self.coeffs)

    def __sub__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is NotImplemented else self._new(self.coeffs - o)

    def __rsub__(self, other):
        if not isinstance(other, (int, float)):
            return NotImplemented
        return (-self).__add__(other)

    def __neg__(self):
        return self._new(-self.coeffs)

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return self._new(self.coeffs * float(other))
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self._new(_product_coeffs(self.coeffs, o, self.order, self.nvars))

    def __rmul__(self, other):
        return self * other if isinstance(other, (int, float)) else NotImplemented

    def __truediv__(self, other):
        if isinstance(other, (int, float)):
            if other == 0:
                raise JetDomainError("division by zero")
            return self * (1.0 / float(other))
        if self._coerce(other) is NotImplemented:
            return NotImplemented
        return self * _reciprocal(other)

    def __rtruediv__(self, other):
        if not isinstance(other, (int, float)):
            return NotImplemented
        return _reciprocal(self) * other


# A constant at one point: a JetBatch of batch shape () whose partials are
# all zero, as :meth:`JetBatch.constant` makes for expression constants.
# It overrides no operator: a subclass's reflected operator would win
# Python's dispatch and swap the left and right roles of a product.
class Jet(JetBatch):
    __slots__ = ()

    def __init__(self, order: int, nvars: int, value: float = 0.0):
        super().__init__(order, nvars, np.zeros(len(_columns(order, nvars))))
        self.coeffs[0] = value


# -- seeding and derivative extraction ---------------------------------

def truncate(u: JetBatch, order: int) -> JetBatch:
    """Drop partials above ``order``: the first columns, since
    :func:`partial_keys` lists the partials by increasing length."""
    if order > u.order:
        raise JetUsageError("cannot truncate to a higher order")
    return JetBatch(order, u.nvars, u.coeffs[..., :len(_columns(order, u.nvars))])


def seed_batch(points, order: int) -> list[JetBatch]:
    """The coordinates of every row of ``points`` as seeded jets, one
    JetBatch of batch shape (len(points),) per coordinate: jet i has unit
    first partial in variable i and every other partial zero; order 0 gives
    the values alone."""
    points = np.asarray(points, dtype=float)
    n = points.shape[1]
    coeffs = np.zeros((n, len(points), len(_columns(order, n))))
    coeffs[:, :, 0] = points.T
    if order >= 1:
        coeffs[range(n), :, range(1, n + 1)] = 1.0
    return [JetBatch(order, n, c) for c in coeffs]


def augment(args: Sequence[JetBatch], order: int) -> list[JetBatch]:
    """Append one fresh seeded variable per argument.

    The returned jets represent ``x_i(a, e) = args[i](a) + e_i``; evaluating
    a field on them exposes the field's own partial derivatives in the extra
    slots (see :func:`extract_partial`), even when the arguments are not
    plain seeds.  Argument partials above their stored order enter only the
    pure-a partials of the same order of any result, which callers must not
    read.
    """
    m = args[0].nvars
    n = len(args)
    cols = _columns(order, m + n)
    out = []
    for i, a in enumerate(args):
        if a.nvars != m:
            raise JetUsageError("augment needs arguments over the same variables")
        # the partials up to min(order, a.order) are a prefix of a's columns
        copied = [cols[key] for key in _columns(min(order, a.order), m)]
        coeffs = np.zeros(a.shape + (len(cols),))
        coeffs[..., copied] = a.coeffs[..., :len(copied)]
        coeffs[..., cols[(m + i,)]] = 1.0
        out.append(JetBatch(order, m + n, coeffs))
    return out


@lru_cache(maxsize=None)
def _extract_columns(from_order: int, from_nvars: int, slots: tuple,
                     nvars: int, order: int) -> np.ndarray:
    src = _columns(from_order, from_nvars)
    return np.array([[src[tuple(sorted(key + tagged))] for key in _columns(order, nvars)]
                     for tagged in slots], dtype=np.intp)


def extract_partial(c: JetBatch, slots: Sequence[tuple], nvars: int,
                    order: int) -> JetBatch:
    """Read the field partials tagged by augmented slots out of an augmented
    evaluation, as jets over the first ``nvars`` variables: one partial per
    tuple of slots in ``slots`` (the empty tuple gives the field itself),
    on a new last batch axis."""
    slots = tuple(tuple(sorted(tagged)) for tagged in slots)
    if max(len(tagged) for tagged in slots) + order > c.order:
        raise JetUsageError("augmented jet does not hold enough orders")
    return JetBatch(order, nvars,
                    c.coeffs[..., _extract_columns(c.order, c.nvars, slots, nvars, order)])
