"""Forward-mode truncated-Taylor (jet) arithmetic on coefficient arrays.

A :class:`JetBatch` holds, at every point of a batch, a value together with
every mixed partial derivative up to a fixed order with respect to a fixed
set of seeded variables, as one float array of shape
``(*batch, K)``: the value in column 0, then the K - 1 partials in
:func:`partial_keys` order (Taylor-mode forward differentiation).  Partials
are stored once per *sorted* multi-index, so equality of mixed partials
under permutation of the differentiation indices is structural.  Products
sum their Leibniz splits through gather tables; a product with a constant
(a one-point jet whose partials are all zero, as an expression constant
and its negation are) skips them: it is a scaled copy with the same bits,
unless the other operand has a coefficient that is not finite, where
``0.0 * inf`` must still give NaN and the gather runs.  The elementary
functions take their derivative values from ``math`` calls, point by
point, raising the :class:`JetDomainError` of the first failing point in
C order; a derivative that the jet's order does not read cannot reject a
point.  Seeding (:func:`seed_batch`), :func:`augment` and
:func:`extract_partial` act on JetBatches as column gathers.  Both operands
of ``+``, ``-``, ``*`` and ``/`` are jets, apart from ``jet * float``, which
scales every coefficient; a number on the left is not an operand.
"""
from __future__ import annotations

import itertools
import math
from functools import lru_cache, wraps
from typing import Callable, Sequence

import numpy as np


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
# Each function below is written as the values of f and its derivatives at
# one float, at least through the order of the jet it is applied to (more are
# not read), or its JetDomainError there.  exp, sin, cos and tanh have one
# form for every order: exp repeated, the sin/cos four-cycle, and tanh's
# closed forms through the third derivative extended by :func:`_tanh_derivs`.
# The reciprocal, log and sqrt give closed forms through the third
# derivative, and only for a jet of order 4 or more the rest, those of a
# power by :func:`_pow_derivs` (the falling factorials of ``pow_const``,
# whose overflow message they raise).  A derivative that can fail is computed
# only when the order reads it (0.0 stands in for it otherwise), so one that
# the order does not read cannot reject the point.  :func:`_elementary` lifts
# it to any jet with a ``compose`` method, so a JetBatch and the per-point
# reference jet compute with the same ``math`` calls and raise the same
# messages.

def _elementary(derivs: Callable[[float, int], Sequence[float]]):
    """The jet function whose derivative values ``derivs`` gives at one
    float and the jet's order, applied through the jet's
    :meth:`~JetBatch.compose`."""
    @wraps(derivs)
    def apply(u):
        return u.compose(derivs)
    return apply


@_elementary
def _reciprocal(v: float, order: int) -> tuple:
    if v == 0.0:
        raise JetDomainError("division by zero")
    inv = 1.0 / v
    try:
        f = (inv, -inv * inv, 2.0 * inv ** 3 if order > 1 else 0.0,
             -6.0 * inv ** 4 if order > 2 else 0.0)
        return f if order < 4 else f + tuple(_pow_derivs(v, -1.0, order)[4:])
    except OverflowError:
        raise JetDomainError(f"reciprocal of {v} overflows") from None


@_elementary
def exp(v: float, order: int) -> tuple:
    try:
        e = math.exp(v)
    except OverflowError:
        raise JetDomainError(f"exp of {v} overflows") from None
    return (e,) * (order + 1)


@_elementary
def log(v: float, order: int) -> tuple:
    if v <= 0.0:
        raise JetDomainError(f"log of non-positive value {v}")
    inv = 1.0 / v
    try:
        f = (math.log(v), inv, -inv * inv, 2.0 * inv ** 3 if order > 2 else 0.0)
        # the k-th derivative of log is the (k - 1)-th of 1/v
        return f if order < 4 else f + tuple(_pow_derivs(v, -1.0, order - 1)[3:])
    except OverflowError:
        raise JetDomainError(f"derivatives of log at {v} overflow") from None


@_elementary
def sqrt(v: float, order: int) -> tuple:
    if v <= 0.0:
        raise JetDomainError(f"sqrt of non-positive value {v}")
    s = math.sqrt(v)
    try:
        f = (s, 0.5 / s, -0.25 / (s * v) if order > 1 else 0.0,
             0.375 / (s * v * v) if order > 2 else 0.0)
        return f if order < 4 else f + tuple(_pow_derivs(v, 0.5, order)[4:])
    except ZeroDivisionError:  # s * v or s * v * v underflows to 0
        raise JetDomainError(f"derivatives of sqrt at {v} overflow") from None


@_elementary
def sin(v: float, order: int) -> tuple:
    s, c = math.sin(v), math.cos(v)
    return (s, c, -s, -c) * (order // 4 + 1)


@_elementary
def cos(v: float, order: int) -> tuple:
    s, c = math.sin(v), math.cos(v)
    return (c, -s, -c, s) * (order // 4 + 1)


@_elementary
def tanh(v: float, order: int) -> tuple:
    t = math.tanh(v)
    d = 1.0 - t * t
    return _tanh_derivs((t, d, -2.0 * t * d, d * (6.0 * t * t - 2.0)), order)


# apart from tanh: a generator that reads f would make f a closure cell of
# tanh's own body, which every point's call pays for
def _tanh_derivs(f: tuple, order: int) -> tuple:
    """tanh's values f through its third derivative, extended through
    ``order`` by y' = 1 - y^2: y^(k+1) = -sum_j C(k, j) y^(j) y^(k-j)."""
    for k in range(3, order):
        f += (-sum(math.comb(k, j) * f[j] * f[k - j] for j in range(k + 1)),)
    return f


def pow_const(u, c: float):
    """u**c with a constant exponent."""
    return u.compose(lambda v, order: _pow_derivs(v, c, order))


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


def _is_constant(c: np.ndarray) -> bool:
    """Whether c holds a constant: one point, every partial zero."""
    return c.ndim == 1 and not c[1:].any()


@lru_cache(maxsize=None)
def _chain_table(order: int, nvars: int) -> list:
    """For each multi-index length r >= 2: the columns of its partials, and
    per block count k from r down to 2, k and the columns that each block
    of each set partition of the positions 0..r-1 into k blocks reads.  The
    blocks of a partition are ordered by (size, positions), and a group's
    partitions lexicographically by those keys; see :func:`_chain_coeffs`."""
    cols = _columns(order, nvars)
    tables = []
    for r in range(2, order + 1):
        keys = [key for key in cols if len(key) == r]
        partitions = {tuple(sorted((tuple(q for q in range(r) if labels[q] == label)
                                    for label in set(labels)), key=lambda b: (len(b), b)))
                      for labels in itertools.product(range(r), repeat=r)}
        groups = []
        for k in range(r, 1, -1):
            parts = sorted((part for part in partitions if len(part) == k),
                           key=lambda part: [(len(b), b) for b in part])
            groups.append((k, [[np.array([cols[tuple(key[q] for q in block)] for key in keys],
                                         dtype=np.intp) for block in part] for part in parts]))
        tables.append((np.array([cols[key] for key in keys], dtype=np.intp), groups))
    return tables


def _chain_coeffs(p: np.ndarray, f: np.ndarray, order: int, nvars: int) -> np.ndarray:
    """Compose a scalar function with the jets p, ``(*batch, K)``, given
    its derivative values f, ``(*batch, order + 1)``, at their values (Faa
    di Bruno's formula over set partitions).  A partial of length r is
    ``(term_r + ... + term_2) + f1*p``: term_k is ``f_k*b1*b2*...`` over
    the block partials of the one partition into k blocks, or
    ``f_k*(b1*b2*... + ...)`` over several."""
    out = np.empty(p.shape)
    out[..., 0] = f[..., 0]
    out[..., 1:] = f[..., 1:2] * p[..., 1:]
    for cols, groups in _chain_table(order, nvars):
        total = None
        for k, parts in groups:
            term = None
            for first, *rest in parts:
                product = f[..., k:k + 1] * p[..., first] if len(parts) == 1 else p[..., first]
                for block in rest:
                    product = product * p[..., block]
                term = product if term is None else term + product
            term = term if len(parts) == 1 else f[..., k:k + 1] * term
            total = term if total is None else total + term
        out[..., cols] = total + out[..., cols]
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

    def compose(self, derivs: Callable[[float, int], Sequence[float]]) -> "JetBatch":
        """f(self) for the scalar function f whose value and derivatives
        ``derivs`` gives at one float and this batch's order, called at each
        batch point in C order; the first ``order + 1`` values are read."""
        values = self.coeffs[..., 0]
        order = self.order
        f = np.array([derivs(v, order) for v in values.ravel().tolist()], ndmin=2)[:, :order + 1]
        return self._new(_chain_coeffs(self.coeffs, f.reshape(values.shape + (order + 1,)),
                                       order, self.nvars))

    def _new(self, coeffs) -> "JetBatch":
        # coeffs come from this batch's own arithmetic: no shape check
        out = object.__new__(JetBatch)
        out.order, out.nvars, out.coeffs = self.order, self.nvars, coeffs
        return out

    def _coerce(self, other):
        """The coefficients of a jet operand; anything but a JetBatch gives
        NotImplemented."""
        if not isinstance(other, JetBatch):
            return NotImplemented
        if other.order != self.order or other.nvars != self.nvars:
            raise JetUsageError(
                f"jet mismatch: (order={self.order}, nvars={self.nvars}) vs "
                f"(order={other.order}, nvars={other.nvars})")
        return other.coeffs

    def __add__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is NotImplemented else self._new(self.coeffs + o)

    def __sub__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is NotImplemented else self._new(self.coeffs - o)

    def __neg__(self):
        return self._new(-self.coeffs)

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return self._new(self.coeffs * float(other))
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        a = self.coeffs
        # a constant's value times the other jet, partials + 0.0: the bits of
        # the Leibniz sum, whose other splits multiply the constant's zero
        # partials by finite coefficients and so add signed zeros
        if _is_constant(a) and np.isfinite(o).all():
            out = a[0] * o
        elif _is_constant(o) and np.isfinite(a).all():
            out = a * o[0]
        else:
            return self._new(_product_coeffs(a, o, self.order, self.nvars))
        out[..., 1:] += 0.0
        return self._new(out)

    def __truediv__(self, other):
        if self._coerce(other) is NotImplemented:
            return NotImplemented
        return self * _reciprocal(other)


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
