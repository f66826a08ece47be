"""Forward-mode truncated-Taylor (jet) arithmetic.

A :class:`Jet` carries a scalar value together with every mixed partial
derivative up to a fixed order (at most 3) with respect to a fixed set of
seeded variables.  Partials are stored once per *sorted* multi-index, so
equality of mixed partials under permutation of the differentiation
indices is structural: looking up ``(i, j)`` and ``(j, i)`` hits the same
cell.

The module also provides :func:`fd_oracle`, a central-difference gradient
used as an independent check on the jet first derivatives.
"""
from __future__ import annotations

import itertools
import math
from functools import lru_cache
from typing import Callable, Sequence

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


class Jet:
    """Truncated Taylor value: f(x) plus partials of f up to ``order``."""

    __slots__ = ("order", "nvars", "value", "partials")

    def __init__(self, order: int, nvars: int, value: float = 0.0,
                 partials: dict[tuple[int, ...], float] | None = None):
        if not 0 <= order <= MAX_ORDER:
            raise JetUsageError(f"unsupported jet order {order} (max {MAX_ORDER})")
        if nvars < 1:
            raise JetUsageError("jet needs at least one variable")
        self.order = order
        self.nvars = nvars
        self.value = float(value)
        if partials is None:
            partials = {k: 0.0 for k in partial_keys(order, nvars)}
        self.partials = partials

    # -- construction -------------------------------------------------

    @staticmethod
    def constant(value: float, order: int, nvars: int) -> "Jet":
        return Jet(order, nvars, value)

    def copy(self) -> "Jet":
        return Jet(self.order, self.nvars, self.value, dict(self.partials))

    # -- lookup --------------------------------------------------------

    def partial(self, *indices: int) -> float:
        """Mixed partial for the given variable indices, in any order."""
        return self.partials[tuple(sorted(indices))]

    def gradient(self) -> list[float]:
        return [self.partials[(i,)] for i in range(self.nvars)]

    # -- arithmetic ----------------------------------------------------

    def _coerce(self, other) -> "Jet":
        if isinstance(other, Jet):
            if other.order != self.order or other.nvars != self.nvars:
                raise JetUsageError(
                    f"jet mismatch: (order={self.order}, nvars={self.nvars}) vs "
                    f"(order={other.order}, nvars={other.nvars})")
            return other
        if isinstance(other, (int, float)):
            return Jet.constant(float(other), self.order, self.nvars)
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        p = self.partials
        q = o.partials
        return Jet(self.order, self.nvars, self.value + o.value,
                   {k: p[k] + q[k] for k in p})

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        p = self.partials
        q = o.partials
        return Jet(self.order, self.nvars, self.value - o.value,
                   {k: p[k] - q[k] for k in p})

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __neg__(self):
        return Jet(self.order, self.nvars, -self.value,
                   {k: -v for k, v in self.partials.items()})

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            c = float(other)
            return Jet(self.order, self.nvars, self.value * c,
                       {k: v * c for k, v in self.partials.items()})
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        a = self.partials
        b = o.partials
        av, bv = self.value, o.value
        out = {}
        for key in a:
            acc = 0.0
            for left, right in _mul_splits(key):
                fa = av if not left else a[left]
                fb = bv if not right else b[right]
                acc += fa * fb
            out[key] = acc
        return Jet(self.order, self.nvars, av * bv, out)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, float)):
            if other == 0:
                raise JetDomainError("division by zero")
            return self * (1.0 / float(other))
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self * _reciprocal(o)

    def __rtruediv__(self, other):
        rec = _reciprocal(self)
        return rec * other

    def __pow__(self, exponent):
        if not isinstance(exponent, (int, float)):
            return NotImplemented
        return pow_const(self, float(exponent))

    def __repr__(self):
        firsts = ", ".join(f"d{i}={self.partials[(i,)]:.6g}" for i in range(self.nvars))
        return f"Jet(order={self.order}, value={self.value:.6g}, {firsts})"


def seed(point: Sequence[float], order: int) -> list[Jet]:
    """Seed jets for the given coordinates: jet i has unit first derivative
    with respect to variable i and zero for everything else."""
    if order not in (1, 2, 3):
        raise JetUsageError(f"unsupported order {order}: expected 1, 2 or 3")
    m = len(point)
    if m < 1:
        raise JetUsageError("need at least one coordinate to seed")
    return seed_embedded(point, order, m, 0)


def seed_embedded(point: Sequence[float], order: int, nvars: int,
                  offset: int = 0) -> list[Jet]:
    """Like :func:`seed` but into a larger variable space, starting at
    ``offset``.  Order 0 is allowed here for plain value evaluation."""
    if offset + len(point) > nvars:
        raise JetUsageError("seed does not fit into the requested variable space")
    out = []
    for i, x in enumerate(point):
        j = Jet(order, nvars, float(x))
        if order >= 1:
            j.partials[(offset + i,)] = 1.0
        out.append(j)
    return out


# -- elementary functions ----------------------------------------------

def _chain(u: Jet, f: Sequence[float]) -> Jet:
    """Compose a scalar function with derivative values ``f[0..order]`` at
    u.value through the jet u (Faa di Bruno through order 3)."""
    p = u.partials
    out = {}
    for key in p:
        r = len(key)
        if r == 1:
            out[key] = f[1] * p[key]
        elif r == 2:
            i, j = key
            out[key] = f[2] * p[(i,)] * p[(j,)] + f[1] * p[key]
        else:
            i, j, k = key
            out[key] = (f[3] * p[(i,)] * p[(j,)] * p[(k,)]
                        + f[2] * (p[(i,)] * p[(j, k)]
                                  + p[(j,)] * p[(i, k)]
                                  + p[(k,)] * p[(i, j)])
                        + f[1] * p[key])
    return Jet(u.order, u.nvars, f[0], out)


def _reciprocal(u: Jet) -> Jet:
    v = u.value
    if v == 0.0:
        raise JetDomainError("division by zero")
    inv = 1.0 / v
    try:
        derivs = (inv, -inv * inv, 2.0 * inv ** 3, -6.0 * inv ** 4)
    except OverflowError:
        raise JetDomainError(f"reciprocal of {v} overflows") from None
    return _chain(u, derivs)


def exp(u: Jet) -> Jet:
    try:
        e = math.exp(u.value)
    except OverflowError:
        raise JetDomainError(f"exp of {u.value} overflows") from None
    return _chain(u, (e, e, e, e))


def log(u: Jet) -> Jet:
    v = u.value
    if v <= 0.0:
        raise JetDomainError(f"log of non-positive value {v}")
    inv = 1.0 / v
    return _chain(u, (math.log(v), inv, -inv * inv, 2.0 * inv ** 3))


def sqrt(u: Jet) -> Jet:
    v = u.value
    if v <= 0.0:
        raise JetDomainError(f"sqrt of non-positive value {v}")
    s = math.sqrt(v)
    return _chain(u, (s, 0.5 / s, -0.25 / (s * v), 0.375 / (s * v * v)))


def sin(u: Jet) -> Jet:
    s, c = math.sin(u.value), math.cos(u.value)
    return _chain(u, (s, c, -s, -c))


def cos(u: Jet) -> Jet:
    s, c = math.sin(u.value), math.cos(u.value)
    return _chain(u, (c, -s, -c, s))


def tanh(u: Jet) -> Jet:
    t = math.tanh(u.value)
    d = 1.0 - t * t
    return _chain(u, (t, d, -2.0 * t * d, d * (6.0 * t * t - 2.0)))


def pow_const(u: Jet, c: float) -> Jet:
    """u**c with a constant exponent."""
    v = u.value
    if v < 0.0 and not float(c).is_integer():
        raise JetDomainError(f"negative base {v} with non-integer exponent {c}")
    derivs = []
    coeff = 1.0
    for k in range(u.order + 1):
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
    return _chain(u, derivs)


# -- derivative extraction ----------------------------------------------

def shift(u: Jet, i: int) -> Jet:
    """The jet of the partial derivative of u with respect to variable i,
    one order lower."""
    if u.order < 1:
        raise JetUsageError("cannot shift an order-0 jet")
    out = Jet(u.order - 1, u.nvars, u.partials[(i,)])
    for key in out.partials:
        out.partials[key] = u.partials[tuple(sorted(key + (i,)))]
    return out


def truncate(u: Jet, order: int) -> Jet:
    """Drop partials above ``order``."""
    if order > u.order:
        raise JetUsageError("cannot truncate to a higher order")
    out = Jet(order, u.nvars, u.value)
    for key in out.partials:
        out.partials[key] = u.partials[key]
    return out


def augment(args: Sequence[Jet], order: int) -> list[Jet]:
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
    out = []
    for i, a in enumerate(args):
        if a.nvars != m:
            raise JetUsageError("augment needs arguments over the same variables")
        b = Jet(order, m + n, a.value)
        copy_to = min(order, a.order)
        for key in partial_keys(copy_to, m):
            b.partials[key] = a.partials[key]
        b.partials[(m + i,)] = 1.0
        out.append(b)
    return out


def extract_partial(c: Jet, slots: Sequence[int], nvars: int, order: int) -> Jet:
    """Read the field partial tagged by the augmented ``slots`` out of an
    augmented evaluation, as a jet over the first ``nvars`` variables."""
    slots = tuple(sorted(slots))
    if len(slots) + order > c.order:
        raise JetUsageError("augmented jet does not hold enough orders")
    out = Jet(order, nvars, c.partials[slots] if slots else c.value)
    for key in out.partials:
        out.partials[key] = c.partials[tuple(sorted(key + slots))]
    return out


def restrict(c: Jet, nvars: int, order: int) -> Jet:
    """Restrict an augmented jet back to the first ``nvars`` variables."""
    return extract_partial(c, (), nvars, order)


# -- independent oracle --------------------------------------------------

def fd_oracle(f: Callable[[Sequence[float]], float], point: Sequence[float],
              h: float = 1e-5) -> list[float]:
    """Central-difference gradient (f(x + h e_i) - f(x - h e_i)) / 2h."""
    point = [float(x) for x in point]
    grad = []
    for i in range(len(point)):
        hi = list(point)
        lo = list(point)
        hi[i] += h
        lo[i] -= h
        grad.append((f(hi) - f(lo)) / (2.0 * h))
    return grad
