"""The per-point jet reference for the tests.

:class:`Jet` is a dict-per-scalar jet: a value together with every mixed
partial up to a fixed order (at most 3), stored once per sorted
multi-index, so ``partial(i, j)`` and ``partial(j, i)`` hit the same cell.
Its arithmetic is written out point by point, independently of the dense
coefficient arrays of :class:`bornbundle.jets.JetBatch`, whose every
coefficient must equal it bit for bit, the signs of zeros included.  It
shares only the elementary functions' derivative values with
:mod:`bornbundle.jets`, through :meth:`Jet.compose`.

The per-point field evaluation below is the one the batched
:mod:`bornbundle.fields` replaced: numpy object arrays whose entries are
Jets, one point at a time, with a Gauss-Jordan inverse that pivots with
``max(..., key=abs)``.  :func:`fd_oracle`, a central-difference gradient,
is the independent check on the jet first derivatives.
"""
from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from bornbundle import expr, jets
from bornbundle.errors import SpecError, UnsupportedDerivativeError
from bornbundle.jets import (JetBatch, JetDomainError, JetUsageError, _mul_splits,
                             _reciprocal, partial_keys, pow_const)

MAX_ORDER = jets.MAX_ORDER


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

    # -- lookup --------------------------------------------------------

    def partial(self, *indices: int) -> float:
        """Mixed partial for the given variable indices, in any order."""
        return self.partials[tuple(sorted(indices))]

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

    def compose(self, derivs: Callable[[float, int], Sequence[float]]) -> "Jet":
        """The elementary function whose derivative values ``derivs`` gives
        at one float and this jet's order, applied to this jet."""
        return _chain(self, derivs(self.value, self.order))

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


def coefficients(u) -> np.ndarray:
    """The coefficient array of a JetBatch, or the coefficient vector of a
    Jet: the value, then the partials in :func:`partial_keys` order."""
    if isinstance(u, JetBatch):
        return u.coeffs
    return np.array([u.value, *(u.partials[k] for k in partial_keys(u.order, u.nvars))])


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


# -- Jet extraction ---------------------------------------------------------

def truncate(u: Jet, order: int) -> Jet:
    if order > u.order:
        raise JetUsageError("cannot truncate to a higher order")
    out = Jet(order, u.nvars, u.value)
    for key in out.partials:
        out.partials[key] = u.partials[key]
    return out


def augment(args, order: int) -> list:
    m = args[0].nvars
    n = len(args)
    out = []
    for i, a in enumerate(args):
        b = Jet(order, m + n, a.value)
        for key in partial_keys(min(order, a.order), m):
            b.partials[key] = a.partials[key]
        b.partials[(m + i,)] = 1.0
        out.append(b)
    return out


def extract_partial(c: Jet, slots, nvars: int, order: int) -> Jet:
    slots = tuple(sorted(slots))
    out = Jet(order, nvars, c.partials[slots] if slots else c.value)
    for key in out.partials:
        out.partials[key] = c.partials[tuple(sorted(key + slots))]
    return out


# -- object-array helpers ---------------------------------------------------

def const_jet_array(values, order: int, nvars: int) -> np.ndarray:
    values = np.asarray(values)
    out = np.empty(values.shape, dtype=object)
    for idx in np.ndindex(values.shape):
        out[idx] = Jet.constant(float(values[idx]), order, nvars)
    return out


def jet_values(arr: np.ndarray) -> np.ndarray:
    out = np.empty(arr.shape, dtype=float)
    for idx in np.ndindex(arr.shape):
        out[idx] = arr[idx].value
    return out


def jet_array(arr: np.ndarray) -> np.ndarray:
    """Values and first partials as one float array (1 + m, *arr.shape)."""
    proto = arr.flat[0]
    m = proto.nvars if proto.order >= 1 else 0
    rows = [[j.value for j in arr.flat]]
    rows += [[j.partials[(d,)] for j in arr.flat] for d in range(m)]
    return np.array(rows).reshape((1 + m,) + arr.shape)


def jet_inv(mat: np.ndarray) -> np.ndarray:
    n = mat.shape[0]
    work = [[mat[i, j] for j in range(n)] for i in range(n)]  # never mutated
    proto = mat[0, 0]
    ident = [[Jet.constant(1.0 if i == j else 0.0, proto.order, proto.nvars)
              for j in range(n)] for i in range(n)]
    for col in range(n):
        pivot = max(range(col, n), key=lambda r: abs(work[r][col].value))
        if work[pivot][col].value == 0.0:
            raise SpecError("singular matrix while inverting metric")
        if pivot != col:
            work[col], work[pivot] = work[pivot], work[col]
            ident[col], ident[pivot] = ident[pivot], ident[col]
        inv_p = 1.0 / work[col][col]
        work[col] = [w * inv_p for w in work[col]]
        ident[col] = [w * inv_p for w in ident[col]]
        for row in range(n):
            if row == col:
                continue
            factor = work[row][col]
            work[row] = [w - factor * c for w, c in zip(work[row], work[col])]
            ident[row] = [w - factor * c for w, c in zip(ident[row], ident[col])]
    out = np.empty((n, n), dtype=object)
    for i in range(n):
        for j in range(n):
            out[i, j] = ident[i][j]
    return out


# -- fields -----------------------------------------------------------------

def _eval_grid(asts, args) -> np.ndarray:
    grid = np.empty((len(asts), len(asts[0])), dtype=object)
    for i, row in enumerate(asts):
        for j, ast in enumerate(row):
            grid[i, j] = expr.evaluate(ast, args)
    return grid


def _symmetrize(grid: np.ndarray) -> np.ndarray:
    n = grid.shape[0]
    out = np.empty_like(grid)
    for i in range(n):
        for j in range(n):
            out[i, j] = (grid[i, j] + grid[j, i]) * 0.5
    return out


def metric_args(spec, args, order: int) -> np.ndarray:
    n = spec.n
    if spec.potential is None:
        grid = _eval_grid(spec.metric_exprs, args)
        grid = np.array([[truncate(grid[i, j], order) for j in range(n)]
                         for i in range(n)], dtype=object)
        return _symmetrize(grid)
    need = order + 2
    if need > MAX_ORDER:
        raise UnsupportedDerivativeError(f"potential needs order {need}")
    phi = expr.evaluate(spec.potential, augment(args, need))
    m = args[0].nvars
    grid = np.empty((n, n), dtype=object)
    for i in range(n):
        for j in range(n):
            grid[i, j] = extract_partial(phi, (m + i, m + j), m, order)
    return grid


def metric_dg_args(spec, args, order: int):
    n = spec.n
    m = args[0].nvars
    dg = np.empty((n, n, n), dtype=object)
    g = np.empty((n, n), dtype=object)
    if spec.potential is None:
        need = order + 1
        if need > MAX_ORDER:
            raise UnsupportedDerivativeError(f"metric derivatives need order {need}")
        grid = _symmetrize(_eval_grid(spec.metric_exprs, augment(args, need)))
        for i in range(n):
            for j in range(n):
                g[i, j] = extract_partial(grid[i, j], (), m, order)
                for l in range(n):
                    dg[l, i, j] = extract_partial(grid[i, j], (m + l,), m, order)
        return g, dg
    need = order + 3
    if need > MAX_ORDER:
        raise UnsupportedDerivativeError(f"potential derivatives need order {need}")
    phi = expr.evaluate(spec.potential, augment(args, need))
    for i in range(n):
        for j in range(n):
            g[i, j] = extract_partial(phi, (m + i, m + j), m, order)
            for l in range(n):
                dg[l, i, j] = extract_partial(phi, (m + i, m + j, m + l), m, order)
    return g, dg


def levi_civita_of(dg, ginv) -> np.ndarray:
    n = len(ginv)
    out = np.empty((n, n, n), dtype=ginv.dtype)
    for k, i, j in np.ndindex(out.shape):
        acc = None
        for l in range(n):
            term = ginv[k, l] * (dg[i, l, j] + dg[j, l, i] - dg[l, i, j])
            acc = term if acc is None else acc + term
        out[k, i, j] = acc * 0.5
    return out


def dual_connection_of(gamma, g, dg, ginv) -> np.ndarray:
    n = len(ginv)
    out = np.empty((n, n, n), dtype=ginv.dtype)
    for l, i, k in np.ndindex(out.shape):
        acc = None
        for j in range(n):
            inner = dg[i, j, k]
            for m in range(n):
                inner = inner - gamma[m, i, j] * g[m, k]
            term = ginv[l, j] * inner
            acc = term if acc is None else acc + term
        out[l, i, k] = acc
    return out


def levi_civita_args(spec, args, order: int) -> np.ndarray:
    g, dg = metric_dg_args(spec, args, order)
    return levi_civita_of(dg, jet_inv(g))


def dual_of(spec, args, gamma, order: int) -> np.ndarray:
    g, dg = metric_dg_args(spec, args, order)
    return dual_connection_of(gamma, g, dg, jet_inv(g))


def connection_args(spec, args, order: int) -> np.ndarray:
    n = spec.n
    kind = spec.connection_kind
    if kind in ("flat", "hessian-dual"):
        zero = const_jet_array(np.zeros((n, n, n)), order, args[0].nvars)
        return zero if kind == "flat" else dual_of(spec, args, zero, order)
    if kind == "explicit":
        out = np.empty((n, n, n), dtype=object)
        for k, i, j in np.ndindex(n, n, n):
            out[k, i, j] = truncate(expr.evaluate(spec.gamma_exprs[k][i][j], args), order)
        return out
    return levi_civita_args(spec, args, order)


# -- per-point entry points ---------------------------------------------------

def _seed(p, order):
    return seed_embedded(p, order, len(p), 0)


def metric_jets(spec, p, order: int) -> np.ndarray:
    return metric_args(spec, _seed(p, order), order)


def connection_jets(spec, p, order: int) -> np.ndarray:
    return connection_args(spec, _seed(p, order), order)


def levi_civita_jets(spec, p, order: int) -> np.ndarray:
    return levi_civita_args(spec, _seed(p, order), order)


def dual_connection_jets(spec, p, order: int) -> np.ndarray:
    args = _seed(p, order)
    return dual_of(spec, args, connection_args(spec, args, order), order)


def base_fields(spec, x, order: int = 1, gamma_order: int | None = None):
    """(Gamma, g) at one point as jet arrays, Gamma evaluated before g."""
    gamma_order = order if gamma_order is None else gamma_order
    x = tuple(float(c) for c in x)
    return (jet_array(connection_jets(spec, x, gamma_order)),
            jet_array(metric_jets(spec, x, order)))


def dual_and_levi_civita(gamma: np.ndarray, g: np.ndarray):
    """The two-of-four dual and Levi-Civita values at one point."""
    gv, dg = g[0], g[1:]
    ginv = jet_values(jet_inv(const_jet_array(gv, 0, 1)))
    return dual_connection_of(gamma, gv, dg, ginv), levi_civita_of(dg, ginv)
