"""Jet-valued evaluation of metric and connection fields.

Everything here works on numpy object arrays whose entries are
:class:`~bornbundle.jets.Jet`.  Point-based callers seed the n coordinates
of the point (no larger variable space); the chart builder passes
arbitrary jet-valued coordinates, for which derivative-based connections
are handled by augmenting the arguments with fresh seed slots (see
:func:`bornbundle.jets.augment`).  :func:`jet_array` gives the float
arrays of values and first partials that the bundle layer works on.

Derivative budget: jets stop at order 3, so a potential-based metric
(g = second partials of the potential) exposes at most one order of
derivatives of g.  Combinations that would need more raise
:class:`UnsupportedDerivativeError`.
"""
from __future__ import annotations

from typing import Sequence

import numpy as np

from . import expr, jets
from .errors import SpecError, UnsupportedDerivativeError
from .jets import Jet

MAX_ORDER = jets.MAX_ORDER


# -- object-array helpers -------------------------------------------------

def const_jet_array(values: np.ndarray, order: int, nvars: int) -> np.ndarray:
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
    """Values and first partials of jets over m variables as one float array
    (1 + m, *arr.shape): values in row 0, the partial by variable d in row
    1 + d; order-0 jets give the value row alone."""
    proto = arr.flat[0]
    m = proto.nvars if proto.order >= 1 else 0
    rows = [[j.value for j in arr.flat]]
    rows += [[j.partials[(d,)] for j in arr.flat] for d in range(m)]
    return np.array(rows).reshape((1 + m,) + arr.shape)


def jet_inv(mat: np.ndarray) -> np.ndarray:
    """Matrix inverse over jets by Gauss-Jordan with value pivoting."""
    n = mat.shape[0]
    work = [[mat[i, j].copy() for j in range(n)] for i in range(n)]
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


# -- metric ---------------------------------------------------------------

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


def metric_args(spec, args: Sequence[Jet], order: int) -> np.ndarray:
    """g_ij as jets of ``order`` at jet-valued coordinates."""
    n = spec.n
    if spec.potential is None:
        if order > args[0].order:
            raise jets.JetUsageError("metric order exceeds argument order")
        grid = _eval_grid(spec.metric_exprs, args)
        grid = np.array([[jets.truncate(grid[i, j], order) for j in range(n)]
                         for i in range(n)], dtype=object)
        return _symmetrize(grid)
    need = order + 2
    if need > MAX_ORDER:
        raise UnsupportedDerivativeError(
            f"potential-based metric with order-{order} jets needs order-{need} "
            f"jets of the potential (max {MAX_ORDER}); use an explicit metric")
    aug = jets.augment(args, need)
    phi = expr.evaluate(spec.potential, aug)
    m = args[0].nvars
    grid = np.empty((n, n), dtype=object)
    for i in range(n):
        for j in range(n):
            grid[i, j] = jets.extract_partial(phi, (m + i, m + j), m, order)
    return grid


def metric_dg_args(spec, args: Sequence[Jet], order: int):
    """(g, dg) as jets of ``order``, with dg[l, i, j] the l-partial of g_ij."""
    n = spec.n
    m = args[0].nvars
    dg = np.empty((n, n, n), dtype=object)
    if spec.potential is None:
        need = order + 1
        if need > MAX_ORDER:
            raise UnsupportedDerivativeError(
                f"metric derivatives at jet order {order} need order-{need} jets")
        aug = jets.augment(args, need)
        grid = _symmetrize(_eval_grid(spec.metric_exprs, aug))
        g = np.empty((n, n), dtype=object)
        for i in range(n):
            for j in range(n):
                g[i, j] = jets.restrict(grid[i, j], m, order)
                for l in range(n):
                    dg[l, i, j] = jets.extract_partial(grid[i, j], (m + l,), m, order)
        return g, dg
    need = order + 3
    if need > MAX_ORDER:
        raise UnsupportedDerivativeError(
            f"derivatives of a potential-based metric at jet order {order} need "
            f"order-{need} jets of the potential (max {MAX_ORDER}); "
            f"use an explicit metric")
    aug = jets.augment(args, need)
    phi = expr.evaluate(spec.potential, aug)
    g = np.empty((n, n), dtype=object)
    for i in range(n):
        for j in range(n):
            g[i, j] = jets.extract_partial(phi, (m + i, m + j), m, order)
            for l in range(n):
                dg[l, i, j] = jets.extract_partial(phi, (m + i, m + j, m + l), m, order)
    return g, dg


# -- connections ----------------------------------------------------------

def levi_civita_of(dg: np.ndarray, ginv: np.ndarray) -> np.ndarray:
    """Christoffel symbols half g^{kl} (d_i g_lj + d_j g_li - d_l g_ij) from
    dg[l, i, j] = d_l g_ij and g^-1, whose entries may be jets or floats."""
    n = len(ginv)
    out = np.empty((n, n, n), dtype=ginv.dtype)
    for k, i, j in np.ndindex(out.shape):
        acc = None
        for l in range(n):
            term = ginv[k, l] * (dg[i, l, j] + dg[j, l, i] - dg[l, i, j])
            acc = term if acc is None else acc + term
        out[k, i, j] = acc * 0.5
    return out


def dual_connection_of(gamma: np.ndarray, g: np.ndarray, dg: np.ndarray,
                       ginv: np.ndarray) -> np.ndarray:
    """Dual of the connection gamma with respect to the metric,
    g^{lj} (d_i g_jk - Gamma^m_ij g_mk), from the inputs of
    :func:`levi_civita_of` and g."""
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


def levi_civita_args(spec, args: Sequence[Jet], order: int) -> np.ndarray:
    """Christoffel symbols of the metric at jet-valued coordinates."""
    g, dg = metric_dg_args(spec, args, order)
    return levi_civita_of(dg, jet_inv(g))


def dual_of(spec, args: Sequence[Jet], gamma: np.ndarray, order: int) -> np.ndarray:
    """Dual of the given connection with respect to the metric at jet-valued
    coordinates."""
    g, dg = metric_dg_args(spec, args, order)
    return dual_connection_of(gamma, g, dg, jet_inv(g))


def connection_args(spec, args: Sequence[Jet], order: int) -> np.ndarray:
    """Connection coefficients Gamma[k, i, j] of the declared connection at
    jet-valued coordinates."""
    n = spec.n
    kind = spec.connection_kind
    if kind in ("flat", "hessian-dual"):
        zero = const_jet_array(np.zeros((n, n, n)), order, args[0].nvars)
        return zero if kind == "flat" else dual_of(spec, args, zero, order)
    if kind == "explicit":
        out = np.empty((n, n, n), dtype=object)
        for k in range(n):
            for i in range(n):
                for j in range(n):
                    out[k, i, j] = jets.truncate(
                        expr.evaluate(spec.gamma_exprs[k][i][j], args), order)
        return out
    if kind == "levi-civita":
        return levi_civita_args(spec, args, order)
    raise SpecError(f"unknown connection kind {kind!r}")


def _is_literal_zero(ast) -> bool:
    return isinstance(ast, expr.Const) and ast.value == 0.0


def connection_support(spec) -> tuple[tuple[int, int, int], ...]:
    """The (k, i, j) of every coefficient that is not structurally zero, in
    (k, i, j) order: none for a flat connection, the entries whose
    expression is not the literal 0 for an explicit one, and all n^3 for
    the connections derived from the metric."""
    kind = spec.connection_kind
    if kind == "flat":
        return ()
    every = tuple(np.ndindex(spec.n, spec.n, spec.n))
    if kind == "explicit":
        return tuple((k, i, j) for k, i, j in every
                     if not _is_literal_zero(spec.gamma_exprs[k][i][j]))
    return every


def connection_terms(spec, args: Sequence[Jet], order: int,
                     support: tuple[tuple[int, int, int], ...]) -> list:
    """The coefficients Gamma[k, i, j] on ``support`` (see
    :func:`connection_support`) at jet-valued coordinates, as
    ((k, i, j), jet) pairs."""
    if not support:
        return []
    if spec.connection_kind == "explicit":
        return [((k, i, j), jets.truncate(
                    expr.evaluate(spec.gamma_exprs[k][i][j], args), order))
                for k, i, j in support]
    gamma = connection_args(spec, args, order)
    return [(kij, gamma[kij]) for kij in support]


# -- seeded (point-based) entry points ------------------------------------

def _seed_point(p, order):
    return jets.seed_embedded(p, order, len(p), 0)


def metric_jets(spec, p, order: int) -> np.ndarray:
    return metric_args(spec, _seed_point(p, order), order)


def connection_jets(spec, p, order: int) -> np.ndarray:
    return connection_args(spec, _seed_point(p, order), order)


def levi_civita_jets(spec, p, order: int) -> np.ndarray:
    return levi_civita_args(spec, _seed_point(p, order), order)


def dual_connection_jets(spec, p, order: int) -> np.ndarray:
    args = _seed_point(p, order)
    return dual_of(spec, args, connection_args(spec, args, order), order)
