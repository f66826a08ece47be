"""Metric and connection fields as jets over a batch of points.

Every field takes the coordinates as n :class:`~bornbundle.jets.JetBatch`
arguments of one batch shape and returns a JetBatch whose batch axes are
the arguments' followed by the field's index axes: g at P points has batch
shape (P, n, n).  The sample sweep passes the seeded coordinates of all its
points (:func:`bornbundle.jets.seed_batch`); the chart builder passes
jet-valued coordinates, for which derivative-based connections augment the
arguments with fresh seed slots (see :func:`bornbundle.jets.augment`).
Every field reads its jet order off its arguments.  Each grid is one
:class:`bornbundle.expr.Program`, evaluated whole once over the batch:
:func:`evaluate_all` writes each distinct value once and gathers every
entry from the value it reads (an explicit Gamma grid is mostly ``"0"``,
one constant jet).  :func:`metric_args` and :func:`metric_dg_args` read g,
and dg, off one evaluation of the grid or the potential on arguments
augmented by the orders they read (a grid's g alone reads none).
:func:`connection_metric_args` gives Gamma and g together: for a connection
derived from a metric, grid or potential (Levi-Civita, or the dual of the
flat connection), the metric is evaluated once, and g is read off the
evaluation one order higher that gives its partials, which has the bits of
:func:`metric_args`.  :func:`jet_inv`, :func:`levi_civita_of` and
:func:`dual_connection_of` act on all points at once in the operations
and summation order of the same formulas on one point's jets, so every
coefficient equals the per-point reference (``tests/jet_reference.py``)
bit for bit; the two formulas take float arrays with leading stack axes
as well.
"""
from __future__ import annotations

import itertools
from typing import Sequence

import numpy as np

from . import expr, jets
from .errors import SpecError
from .jets import JetBatch


def evaluate_all(program: expr.Program, args: Sequence[JetBatch], shape: tuple) -> JetBatch:
    """The outputs of ``program`` over the batch of the arguments, as one
    JetBatch of batch shape ``(*batch, *shape)``: ``shape`` is that of the
    grid whose entries the program's outputs list in C order.  One
    :func:`bornbundle.expr.evaluate` gives every output; each distinct
    value is written once, and every output gathered from the one it reads."""
    values = expr.evaluate(program, args)
    a = args[0]
    distinct = np.empty(a.shape + (len(program._firsts), a.coeffs.shape[-1]))
    for d, t in enumerate(program._firsts):
        distinct[..., d, :] = values[t].coeffs
    out = np.take(distinct, program._reads, axis=-2)
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
    grid = evaluate_all(spec.metric_exprs, args, (spec.n, spec.n))
    return (grid + grid.swapaxes(-1, -2)) * 0.5


def _metric_jets(spec, args: Sequence[JetBatch], depth: int) -> list[JetBatch]:
    """g, then with ``depth`` 1 its first partials (``dg[..., i, j, l]``, the
    l-partial of g_ij; of a potential, its third partials), as jets of the
    arguments' order: one evaluation of the grid or the potential, on
    arguments augmented by as many orders as the partials read need (a
    grid's g alone reads none)."""
    order, m = args[0].order, args[0].nvars
    lowest = 0 if spec.potential is None else 2  # the partial order of the field that is g
    need = order + lowest + depth
    if need == order:
        return [_metric_grid(spec, args)]
    augmented = jets.augment(args, need)
    field = (evaluate_all(spec.potential, augmented, ()) if lowest
             else _metric_grid(spec, augmented))
    return [_slot_partials(field, m, spec.n, lowest + k, order) for k in range(depth + 1)]


def metric_args(spec, args: Sequence[JetBatch]) -> JetBatch:
    """g_ij as jets at jet-valued coordinates, of the arguments' order."""
    return _metric_jets(spec, args, 0)[0]


def metric_dg_args(spec, args: Sequence[JetBatch]):
    """(g, dg) as jets of the arguments' order, with dg[..., l, i, j] the
    l-partial of g_ij."""
    g, dg = _metric_jets(spec, args, 1)
    # the last axis first (a potential's third partials are symmetric)
    return g, JetBatch(dg.order, dg.nvars, np.moveaxis(dg.coeffs, -2, -4))


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


def _zero_connection(spec, args: Sequence[JetBatch]) -> JetBatch:
    a = args[0]
    return JetBatch(a.order, a.nvars, np.zeros(a.shape + (spec.n,) * 3 + a.coeffs.shape[-1:]))


def _derived_connection(spec, args: Sequence[JetBatch]):
    """(Gamma, g) for a connection derived from the metric: Levi-Civita, or
    the dual of the flat connection; g is the one of :func:`metric_dg_args`."""
    g, dg = metric_dg_args(spec, args)
    ginv = jet_inv(g, np.stack([x.value for x in args], axis=-1))
    if spec.connection_kind == "levi-civita":
        return levi_civita_of(dg, ginv), g
    return dual_connection_of(_zero_connection(spec, args), g, dg, ginv), g


def connection_args(spec, args: Sequence[JetBatch]) -> JetBatch:
    """Connection coefficients Gamma[..., k, i, j] of the declared connection
    at jet-valued coordinates, of the arguments' order."""
    n = spec.n
    kind = spec.connection_kind
    if kind == "flat":
        return _zero_connection(spec, args)
    if kind == "explicit":
        return evaluate_all(spec.gamma_exprs, args, (n, n, n))
    # levi-civita or hessian-dual: ManifoldSpec rejects every other kind
    return _derived_connection(spec, args)[0]


def connection_metric_args(spec, args: Sequence[JetBatch]) -> tuple[JetBatch, JetBatch]:
    """(Gamma, g) as :func:`connection_args` and :func:`metric_args` give
    them.  A metric, grid or potential, from which the connection derives
    is evaluated once: g is then the one of :func:`metric_dg_args`, which
    has the bits of :func:`metric_args`."""
    if spec.connection_kind in ("levi-civita", "hessian-dual"):
        return _derived_connection(spec, args)
    return connection_args(spec, args), metric_args(spec, args)


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
        return tuple(kij for kij, zero in zip(every, spec.gamma_exprs.zeros) if not zero)
    return every
