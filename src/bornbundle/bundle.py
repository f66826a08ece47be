"""Born structure induced on the tangent bundle.

Bundle coordinates are (x^1..x^n, y^1..y^n): base coordinates followed by
fiber components.  The connection determines the adapted frame

    H_i = d/dx^i - Gamma^k_ij y^j d/dy^k,    V_i = d/dy^i,

whose matrix E = [[1, 0], [A, 1]], with A[k, i] = -Gamma^k_ij y^j, has frame
vectors as columns; E^-1 = [[1, 0], [-A, 1]].  In the adapted frame the six
tensors take constant or metric-block form.  The package builds them in
bundle coordinates only, where they are block formulas in the n x n blocks
A and g, with P = (-A)^T g:

    I = [[A, -1], [1 + A A, -A]]      J = [[-A, 1], [1 - A A, A]]
    K = [[1, 0], [2 A, -1]]
    h = sym [[g + P (-A), P], [g (-A), g]]
    k = sym [[P + g (-A), g], [g, 0]]
    omega = antisym [[-P + g (-A), g], [-g, 0]]

with sym M = (M + M^T) / 2 and antisym M = (M - M^T) / 2.  Row index of a
bilinear form is its first argument.

:func:`fiber_born_jets` builds the tensors at all P x F bundle points at
once, in two zeroed float stacks filled by slice assignment: I, J, K and
omega in (4, 1 + 2n, 2n, 2n, P, F), the rows being the values and the
first partials by x^1..x^n, y^1..y^n, and h and k, read as values only,
in (2, 1, 2n, 2n, P, F).  With the (P, F) axes innermost in memory, every
product, block and einsum loops over the sample points; g, the same at
every fiber, is broadcast over F once, before any product, so that those
loops run over all P x F points and not over F at a time.
:func:`born_jets` and :func:`born_at` read one bundle point off a sweep of
P = F = 1.

Sums act row by row; a product has value a b and partials
(0.0 + a b') + a' b, as the per-point reference jet multiplication in
``tests/jet_reference.py``.  A block c + X Y is summed as
(c + X_0 Y_0) + X_1 Y_1 + ..., term m being column m of X times row m of
Y, and X Y without c (A = -Gamma y, P, g (-A)) as X_0 Y_0 + X_1 Y_1 + ...:
the order of the dense products E M E^-1 and E^-T M E^-1 over jets, so the
arrays equal the jet arithmetic bit for bit.  A block
sum forms its n terms in one product (those of g (-A) once, for omega, h
and k) and adds them in that order.  A is read off Gamma: no product
touches the fiber seed's zero x-rows and unit y-rows or the base fields'
zero y-rows, whose results are known, so A's value and x-rows are
-(sum_j Gamma^k_ij y^j), an x-row's products made + 0.0 first, and its
y^j-row is -(Gamma^k_ij + 0.0), the bits of the full jet product.  Every
operation is elementwise with broadcasting over the (P, F) axes, so each
bundle point gets the bits of a one-point call.

:func:`adapted_frame_residuals` checks the construction in the adapted
frame of the blocks A and g it was built from, where each tensor has its
defining form: E^-1 I E, E^-1 J E, E^-1 K E the constant blocks
[[0, -1], [1, 0]], [[0, 1], [1, 0]], [[1, 0], [0, -1]], and E^T h E,
E^T k E, E^T omega E the g-blocks [[g, 0], [0, g]], [[0, g], [g, 0]],
[[0, g], [-g, 0]].  The products are n x n block sums in the order of
the tensors' own, with no BLAS call, so that their bits do not depend
on the BLAS kernel: for every tensor M, M E = [[M11 + M12 A, M12],
[M21 + M22 A, M22]]; then E^-1 adds (-A) times the top block row of M E
to the bottom one, and E^T adds A^T times the bottom block row to the
top one.  The six value matrices stand on one axis after the matrix
axes, so that M E is two block sums for all six.  Each difference is
relative to the size of its terms: over (1 + max|A|)^2, and over max|g|
as well for the forms.  For a positive definite g
(:func:`bornbundle.manifold.check_spd`) these six imply every other
identity of the structure (I^2 = -1, J^2 = K^2 = 1, the anticommutation
relations, I = h^-1 omega, J = k^-1 h, K = omega^-1 k, h > 0, k of
signature (n, n), det omega = det(g)^2): they hold in the adapted frame
and carry over by congruence.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SpecError
from .manifold import BaseJets, ManifoldSpec, base_jets, check_spd

# -- frames -----------------------------------------------------------------

def _mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Entrywise product of stacks with rows on axis 0 (see module doc), as one
    new C-contiguous array."""
    out = np.empty(tuple(map(max, a.shape, b.shape)))  # a cheap broadcast_shapes
    a0, b0, partials = a[:1], b[:1], out[1:]
    np.multiply(a0, b0, out=out[:1])
    np.multiply(a0, b[1:], out=partials)
    partials += 0.0
    partials += a[1:] * b0
    return out


def _madd(x: np.ndarray, y: np.ndarray, c: np.ndarray | None = None) -> np.ndarray:
    """c + x @ y over the matrix axes 1 and 2, summed as in the module doc:
    the terms are formed by one product and summed over m in order."""
    return _sum_in_order(_mul(x[:, :, :, None], y[:, None]), c)


def _sum_in_order(terms: np.ndarray, c: np.ndarray | None = None) -> np.ndarray:
    """(c + terms[:, :, 0]) + terms[:, :, 1] + ..., summed over axis 2 in
    order, as one new array."""
    first = terms[:, :, 0]
    out = first.copy() if c is None else np.add(c, first, order="C")
    for m in range(1, terms.shape[2]):
        out += terms[:, :, m]
    return out


def _fiber_blocks(bases: BaseJets, ys) -> tuple[np.ndarray, np.ndarray]:
    """A[k, i] = -Gamma^k_ij y^j at the base points of ``bases`` and the fiber
    vectors ``ys`` (F, n) as a (1 + 2n, n, n, P, F) stack over the 2n bundle
    coordinates, and g the same at every fiber, broadcast once (module doc)."""
    f, n = np.shape(ys)
    count, base_rows = bases.gamma.shape[:2]
    g = np.zeros((1 + 2 * n, n, n, count, f))
    g[:base_rows] = bases.g.transpose(1, 2, 3, 0)[..., None]
    # -A = Gamma y as a jet product with its known rows left out (module doc)
    gamma = bases.gamma.transpose(1, 2, 3, 4, 0)  # (base rows, k, i, j, P)
    terms = (gamma.reshape(base_rows, n * n, n, count, 1)
             * np.asarray(ys, dtype=float).T[:, None, :])
    terms[1:] += 0.0
    a = np.empty(g.shape)
    a[:base_rows] = _sum_in_order(terms).reshape(base_rows, n, n, count, f)
    a[base_rows:] = gamma[0].transpose(2, 0, 1, 3)[..., None] + 0.0
    return np.negative(a, out=a), g


@dataclass(frozen=True)
class BornStacks:
    """The Born tensors of a sweep as two stacks (module doc)."""

    ijkw: np.ndarray  # (4, P, F, rows, 2n, 2n): I, J, K and omega
    hk: np.ndarray  # (2, P, F, 1, 2n, 2n): h and k
    a: np.ndarray  # (P, F, rows, n, n), the block A they are built from
    g: np.ndarray  # (P, 1, rows, n, n), the block g


def fiber_born_jets(bases: BaseJets, ys) -> BornStacks:
    """The six tensors with their first partials (h and k as values) in bundle
    coordinates at (x, y), x a base point of ``bases`` and y of ``ys``."""
    a, g = _fiber_blocks(bases, ys)
    rows, n = a.shape[:2]
    one = np.zeros(a.shape[:3] + (1, 1))  # broadcast over the (P, F) axes
    one[0, :, :, 0, 0] = np.eye(n)
    na = -a
    p = _madd(na.swapaxes(1, 2), g)
    gna = _mul(g[:, :, :, None], na[:, None])  # the terms of g (-A)
    p0, na0, g0 = p[:1], na[:1], g[:1]  # a value row is computed from value rows alone
    ijkw = np.zeros((4, rows, 2 * n, 2 * n) + a.shape[3:])
    hk = np.zeros((2, 1, 2 * n, 2 * n) + a.shape[3:])
    halves = (slice(0, n), slice(n, 2 * n))
    for stack, m, blocks in (
            (ijkw, 0, ((a, -one), (_madd(na, na, one), na))),  # I
            (ijkw, 1, ((na, one), (_madd(a, na, one), a))),  # J
            (ijkw, 2, ((one, None), (a * 2.0, -one))),  # K
            (ijkw, 3, ((_sum_in_order(gna, -p), g), (-g, None))),  # omega
            (hk, 0, ((_madd(p0, na0, g0), p0), (_sum_in_order(gna[:1]), g0))),  # h
            (hk, 1, ((_sum_in_order(gna[:1], p0), g0), (g0, None)))):  # k
        for i, row in zip(halves, blocks):
            for j, b in zip(halves, row):
                if b is not None:
                    stack[m, :, i, j] = b
    omega = ijkw[3]
    np.subtract(omega, omega.swapaxes(1, 2), out=omega)
    omega *= 0.5
    hk = (hk + hk.swapaxes(2, 3)) * 0.5
    # (P, F, rows, ...) views that keep the sample axes innermost in memory
    ijkw, hk = (m.transpose(0, 4, 5, 1, 2, 3) for m in (ijkw, hk))
    return BornStacks(ijkw, hk, a.transpose(3, 4, 0, 1, 2), g[..., :1].transpose(3, 4, 0, 1, 2))


def _one_point(spec: ManifoldSpec, x, y, positive: bool) -> dict[str, np.ndarray]:
    """The six tensors at the bundle point (x, y) by name, each its rows of
    a sweep at that point alone; the metric at x checked first if
    ``positive``."""
    if len(x) != len(y):
        raise SpecError("fiber vector length must match base dimension")
    base = base_jets(spec, [x])
    if positive:
        check_spd(base.g[:, 0], base.x)
    born = fiber_born_jets(base, [y])
    return dict(zip(("I", "J", "K", "omega", "h", "k"), (*born.ijkw[:, 0, 0], *born.hk[:, 0, 0])))


def born_jets(spec: ManifoldSpec, x, y) -> dict[str, np.ndarray]:
    """The six tensors at (x, y) in bundle coordinates with their first
    partials, as (1 + 2n, 2n, 2n) arrays; h and k as their value row alone,
    (1, 2n, 2n)."""
    return _one_point(spec, x, y, positive=False)


def born_at(spec: ManifoldSpec, x, y) -> dict[str, np.ndarray]:
    """The six tensors' value matrices at (x, y) in bundle coordinates, for
    a positive definite metric at x."""
    # a structural zero can come out as -0.0; adding 0.0 makes it +0.0
    return {name: np.add(m[0], 0.0)
            for name, m in _one_point(spec, x, y, positive=True).items()}


# -- the construction in the adapted frame ------------------------------------

# the defining forms block by block (11, 12, 21, 22), as multiples of the unit
# of I, J, K, h, k and omega in turn: 1 for I, J and K, g for the forms
_FRAME_FORMS = np.array([[0, 0, 1, 1, 0, 0], [-1, 1, 0, 0, 1, 1],
                         [1, 1, 0, 0, 1, -1], [0, 0, -1, 1, 0, 0]], dtype=float)


def adapted_frame_residuals(born: BornStacks) -> dict[str, np.ndarray]:
    """Per bundle point of the sweep ``born``, as (P, F) arrays, the relative
    defect of each tensor's values in the adapted frame of the block A that
    built it against its defining form in the block g (module doc).  A and g
    are the blocks that built the tensors: an A read off K would pass any K."""
    n = born.a.shape[-1]
    # the value matrices of I, J, K, h, k and omega as (1, 2n, 2n, 6, P, F)
    m = np.empty((1, 2 * n, 2 * n, 6) + born.a.shape[:2])
    np.concatenate([born.ijkw[:3, :, :, :1], born.hk, born.ijkw[3:, :, :, :1]],
                   out=m.transpose(3, 4, 5, 0, 1, 2))
    a = born.a[:, :, :1].transpose(2, 3, 4, 0, 1)[:, :, :, None]  # (1, n, n, 1, P, F)
    unit = np.empty((1, n, n, 6) + born.g.shape[:2])  # 1 for I, J and K, g for the forms
    unit[:, :, :, :3] = np.eye(n)[:, :, None, None, None]
    unit[:, :, :, 3:] = born.g[:, :, :1].transpose(2, 3, 4, 0, 1)[:, :, :, None]
    top, bottom = slice(0, n), slice(n, 2 * n)
    m11, m12, m21, m22 = (m[:, i, j] for i in (top, bottom) for j in (top, bottom))
    x11, x21 = _madd(m12, a, m11), _madd(m22, a, m21)  # M E, whose right blocks are M's
    ops, forms = np.s_[:, :, :, :3], np.s_[:, :, :, 3:]
    neg_a, a_t = -a, a.swapaxes(1, 2)
    blocks = zip(
        (x11[ops], m12[ops], _madd(neg_a, x11[ops], x21[ops]), _madd(neg_a, m12[ops], m22[ops])),
        (_madd(a_t, x21[forms], x11[forms]), _madd(a_t, m22[forms], m12[forms]), x21[forms],
         m22[forms]),
        _FRAME_FORMS)
    worst = np.zeros(m.shape[3:])
    for z_ops, z_forms, coefficients in blocks:
        defect = np.concatenate([z_ops, z_forms], axis=3)
        defect -= coefficients[:, None, None] * unit
        np.maximum(worst, np.abs(defect).max(axis=(0, 1, 2)), out=worst)
    scale = np.square(1.0 + np.abs(a).max(axis=(0, 1, 2))) * np.abs(unit).max(axis=(0, 1, 2))
    r = worst / scale
    return {name + "_in_frame": r[i] for i, name in enumerate(("I", "J", "K", "h", "k", "omega"))}
