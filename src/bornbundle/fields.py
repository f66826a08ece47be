"""Metric and connection fields as jets over a batch of points.

Every field takes the coordinates as n :class:`~bornbundle.jets.JetBatch`
arguments of one batch shape and returns a JetBatch whose batch axes are
the arguments' followed by the field's index axes: g at P points has batch
shape (P, n, n).  The sample sweep passes the seeded coordinates of all its
points (:func:`bornbundle.jets.seed_batch`); the chart builder passes
jet-valued coordinates, for which derivative-based connections augment the
arguments with fresh seed slots (see :func:`bornbundle.jets.augment`).
Each expression is evaluated once over the batch, except a literal
constant (an explicit Gamma grid is mostly ``"0"``): :func:`evaluate_all`
writes its value into the zeroed slot, with no jet built, which has the
bits of its constant jet broadcast.  :func:`connection_metric_args`
gives Gamma and g together: for a connection derived from a metric grid
(Levi-Civita, or the dual of the flat connection) the grid is evaluated
once, and g is read off the evaluation one order higher that gives its
partials, which has the bits of :func:`metric_args`.  :func:`jet_inv`,
:func:`levi_civita_of` and :func:`dual_connection_of` act on all points at
once in the operations and summation order of the same formulas on one
point's jets, so every coefficient equals the per-point reference
(``tests/jet_reference.py``) bit for bit; the two formulas take float
arrays with leading stack axes as well.

Derivative budget: jets stop at order 3, so a potential-based metric
(g = second partials of the potential) exposes at most one order of
derivatives of g.  Combinations that would need more raise
:class:`UnsupportedDerivativeError`.
"""
from __future__ import annotations

import itertools
from typing import Sequence

import numpy as np

from . import expr, jets
from .errors import SpecError, UnsupportedDerivativeError
from .jets import JetBatch

MAX_ORDER = jets.MAX_ORDER


def evaluate_all(asts: Sequence, args: Sequence[JetBatch],
                 shape: tuple | None = None) -> JetBatch:
    """The expressions ``asts`` over the batch of the arguments, as one
    JetBatch of batch shape ``(*batch, *shape)``: ``shape`` is that of the
    grid whose entries ``asts`` lists in C order, by default (len(asts),).
    A literal constant is written as its value over +0.0 partials, the bits
    of its constant jet, with no jet built; ``Neg(Const)`` is evaluated, as
    its partials are -0.0.  The arguments are checked once, as
    :func:`bornbundle.expr.evaluate` checks them, constants or not."""
    expr._check_args(args)
    a = args[0]
    out = np.zeros(a.shape + (len(asts), a.coeffs.shape[-1]))
    for t, ast in enumerate(asts):
        if isinstance(ast, expr.Const):
            out[..., t, 0] = ast.value
        else:
            out[..., t, :] = expr.evaluate(ast, args).coeffs
    shape = (len(asts),) if shape is None else shape
    return JetBatch(a.order, a.nvars, out.reshape(a.shape + shape + out.shape[-1:]))


def _slot_partials(c: JetBatch, m: int, n: int, depth: int, order: int) -> JetBatch:
    """The partials of c by every ``depth`` of the n augmented variables
    m..m+n-1, as jets of ``order`` over the first m: c's batch axes gain
    ``depth`` axes of length n."""
    slots = list(itertools.product(range(m, m + n), repeat=depth))
    out = jets.extract_partial(c, slots, m, order).coeffs
    return JetBatch(order, m, out.reshape(c.shape + (n,) * depth + out.shape[-1:]))


# -- metric ---------------------------------------------------------------

def _metric_grid(spec, args) -> JetBatch:
    grid = evaluate_all([ast for row in spec.metric_exprs for ast in row], args,
                        (spec.n, spec.n))
    return (grid + grid.swapaxes(-1, -2)) * 0.5


def _potential(spec, args, order: int) -> JetBatch:
    return evaluate_all([spec.potential], jets.augment(args, order), ())


def metric_args(spec, args: Sequence[JetBatch], order: int) -> JetBatch:
    """g_ij as jets of ``order`` at jet-valued coordinates."""
    if spec.potential is None:
        if order != args[0].order:
            raise jets.JetUsageError("metric order differs from argument order")
        return _metric_grid(spec, args)
    need = order + 2
    if need > MAX_ORDER:
        raise UnsupportedDerivativeError(
            f"potential-based metric with order-{order} jets needs order-{need} "
            f"jets of the potential (max {MAX_ORDER}); use an explicit metric")
    return _slot_partials(_potential(spec, args, need), args[0].nvars, spec.n, 2, order)


def metric_dg_args(spec, args: Sequence[JetBatch], order: int):
    """(g, dg) as jets of ``order``, with dg[..., l, i, j] the l-partial of g_ij."""
    n = spec.n
    m = args[0].nvars
    if spec.potential is None:
        need = order + 1
        if need > MAX_ORDER:
            raise UnsupportedDerivativeError(
                f"metric derivatives at jet order {order} need order-{need} jets")
        grid = _metric_grid(spec, jets.augment(args, need))
        dg = _slot_partials(grid, m, n, 1, order)  # dg[..., i, j, l]
        return (_slot_partials(grid, m, n, 0, order),
                JetBatch(order, m, np.moveaxis(dg.coeffs, -2, -4)))
    need = order + 3
    if need > MAX_ORDER:
        raise UnsupportedDerivativeError(
            f"derivatives of a potential-based metric at jet order {order} need "
            f"order-{need} jets of the potential (max {MAX_ORDER}); "
            f"use an explicit metric")
    phi = _potential(spec, args, need)
    # the third partials of phi are symmetric in (l, i, j)
    return _slot_partials(phi, m, n, 2, order), _slot_partials(phi, m, n, 3, order)


def jet_inv(mat: JetBatch, points=None) -> JetBatch:
    """Inverse of every matrix of ``mat`` (batch shape ``(*batch, n, n)``) by
    Gauss-Jordan with value pivoting on [mat | 1].  Each matrix pivots on
    the first row of largest |value| in the column, as ``max(..., key=abs)``
    picks it, and swaps its own rows.  A pivot below the smallest normal
    float in size, zero or subnormal, is singular to working precision, as
    in :func:`bornbundle.manifold.check_spd`: a spec error, which names the
    point of the first matrix that has one if ``points`` gives the
    coordinates of every batch point, ``(*batch, m)``."""
    order, nvars = mat.order, mat.nvars
    n = mat.shape[-1]
    work = mat.coeffs.reshape((-1, n, n, mat.coeffs.shape[-1]))
    count = len(work)
    ident = np.zeros(work.shape)
    ident[:, range(n), range(n), 0] = 1.0
    work = np.concatenate([work, ident], axis=2)
    at = np.arange(count)
    for col in range(n):
        size = np.abs(work[:, :, col, 0])
        pivot = np.full(count, col)
        for row in range(col + 1, n):
            pivot = np.where(size[:, row] > size[at, pivot], row, pivot)
        zero = size[at, pivot] < np.finfo(float).tiny
        if zero.any():
            where = ("" if points is None else
                     f" at {tuple(points.reshape(count, -1)[np.argmax(zero)].tolist())}")
            raise SpecError("singular matrix while inverting metric" + where)
        if (pivot != col).any():
            rows = np.tile(np.arange(n), (count, 1))
            rows[:, col] = pivot
            rows[at, pivot] = col
            work = work[at[:, None], rows]
        inv_p = jets._reciprocal(JetBatch(order, nvars, work[:, col, col])).coeffs[:, None]
        work[:, col] = jets._product_coeffs(work[:, col], inv_p, order, nvars)
        others = [row for row in range(n) if row != col]
        factor = work[:, others][:, :, None, col]
        work[:, others] = work[:, others] - jets._product_coeffs(
            factor, work[:, None, col], order, nvars)
    return JetBatch(order, nvars, work[:, :, n:].reshape(mat.coeffs.shape))


# -- connections ----------------------------------------------------------

def levi_civita_of(dg, ginv):
    """Christoffel symbols half g^{kl} (d_i g_lj + d_j g_li - d_l g_ij) from
    dg[..., l, i, j] = d_l g_ij and g^-1, both JetBatches or both float
    arrays; the terms are summed over l in order."""
    n = ginv.shape[-1]
    acc = None
    for l in range(n):
        d = dg[..., :, l, :]  # d[i, j] = d_i g_lj
        inner = d + d.swapaxes(-1, -2) - dg[..., l, :, :]
        term = ginv[..., :, l, None, None] * inner[..., None, :, :]
        acc = term if acc is None else acc + term
    return acc * 0.5


def dual_connection_of(gamma, g, dg, ginv):
    """Dual of the connection gamma with respect to the metric,
    g^{lj} (d_i g_jk - Gamma^m_ij g_mk), from the inputs of
    :func:`levi_civita_of` and g; the terms are summed over j in order, and
    the inner sum over m in order."""
    n = ginv.shape[-1]
    acc = None
    for j in range(n):
        inner = dg[..., :, j, :]  # inner[i, k] = d_i g_jk
        for m in range(n):
            inner = inner - gamma[..., m, :, j, None] * g[..., m, None, :]
        term = ginv[..., :, j, None, None] * inner[..., None, :, :]
        acc = term if acc is None else acc + term
    return acc


def _zero_connection(spec, args: Sequence[JetBatch], order: int) -> JetBatch:
    nvars = args[0].nvars
    return JetBatch(order, nvars, np.zeros(
        args[0].shape + (spec.n,) * 3 + (len(jets._columns(order, nvars)),)))


def _derived_connection(spec, args: Sequence[JetBatch], order: int):
    """(Gamma, g) for a connection derived from the metric: Levi-Civita, or
    the dual of the flat connection; g is the one of :func:`metric_dg_args`."""
    g, dg = metric_dg_args(spec, args, order)
    ginv = jet_inv(g, np.stack([x.value for x in args], axis=-1))
    if spec.connection_kind == "levi-civita":
        return levi_civita_of(dg, ginv), g
    return dual_connection_of(_zero_connection(spec, args, order), g, dg, ginv), g


def connection_args(spec, args: Sequence[JetBatch], order: int) -> JetBatch:
    """Connection coefficients Gamma[..., k, i, j] of the declared connection
    at jet-valued coordinates."""
    n = spec.n
    kind = spec.connection_kind
    if kind == "flat":
        return _zero_connection(spec, args, order)
    if kind == "explicit":
        if order != args[0].order:
            raise jets.JetUsageError("connection order differs from argument order")
        asts = [ast for plane in spec.gamma_exprs for row in plane for ast in row]
        return evaluate_all(asts, args, (n, n, n))
    # levi-civita or hessian-dual: ManifoldSpec rejects every other kind
    return _derived_connection(spec, args, order)[0]


def connection_metric_args(spec, args: Sequence[JetBatch],
                           order: int) -> tuple[JetBatch, JetBatch]:
    """(Gamma, g) as :func:`connection_args` and :func:`metric_args` give
    them.  A metric grid from which the connection derives is evaluated
    once: g is then the one of :func:`metric_dg_args`, which has the bits of
    :func:`metric_args`."""
    if spec.potential is None and spec.connection_kind in ("levi-civita", "hessian-dual"):
        return _derived_connection(spec, args, order)
    return connection_args(spec, args, order), metric_args(spec, args, order)


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
