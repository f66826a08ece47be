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

:func:`fiber_born_jets` builds the tensors at all P x F bundle points of
P base points and F fiber vectors at once, as float arrays
(P, F, 1 + 2n, 2n, 2n): values in row 0, then the first partials by
x^1..x^n and by y^1..y^n (the base fields' y-partials are zero); order-0
base fields give the value row alone.  h and k, which are read as values
only, always hold their value row alone, (P, F, 1, 2n, 2n).  These arrays
are views of C-contiguous (rows, 2n, 2n, P, F) buffers: the (P, F) sample
axes are innermost in memory, so every product, block and einsum over a
stack runs its inner loop over the sample points, not over a matrix index
of length 2n.  The stacks are built in that layout: a product writes its
value row and partial rows into one new array, and the four n x n blocks
of a tensor are assigned by slices into one zeroed array.

Sums act row by row; a product has value a b and partials
(0.0 + a b') + a' b, as the per-point reference jet multiplication in
``tests/jet_reference.py``.  A block c + X Y is summed as
(c + X_0 Y_0) + X_1 Y_1 + ..., term m being column m of X times row m of
Y, and X Y without c (A = -Gamma y, P, g (-A)) as X_0 Y_0 + X_1 Y_1 + ...:
the order of the dense products E M E^-1 and E^-T M E^-1 and of a matmul
over jets, so the arrays equal the jet arithmetic bit for bit.  A block
sum forms its n terms in one product and adds them in that order.  A is
read off Gamma: no product touches the fiber seed's zero x-rows and unit
y-rows or the base fields' zero y-rows, whose results are known, so A's
value and x-rows are -(sum_j Gamma^k_ij y^j), an x-row's products made
+ 0.0 first, and its y^j-row is -(Gamma^k_ij + 0.0), the bits of the full
jet product.  Every operation is elementwise with broadcasting over the
(P, F) axes, so each bundle point gets the bits of a one-point call.

:func:`fiber_born_jets` also returns the blocks A and g it built the
tensors from.  :func:`adapted_frame_residuals` checks the construction
against them in the adapted frame, where every tensor has its defining
form: E^-1 I E, E^-1 J E and E^-1 K E the constant blocks
[[0, -1], [1, 0]], [[0, 1], [1, 0]] and [[1, 0], [0, -1]], and E^T h E,
E^T k E and E^T omega E the g-blocks [[g, 0], [0, g]], [[0, g], [g, 0]]
and [[0, g], [-g, 0]].  Each difference is taken relative to the size of
its terms: over (1 + max|A|)^2, and over max|g| as well for the forms.
For a positive definite g (:func:`bornbundle.manifold.check_spd`) these
six imply every other identity of the structure: I^2 = -1, J^2 = K^2 = 1,
the anticommutation relations, I = h^-1 omega, J = k^-1 h, K = omega^-1 k,
h > 0, k of signature (n, n) and det omega = det(g)^2 hold in the adapted
frame and carry over by congruence.  A :class:`BornFrame` holds the value
matrices of one bundle point or of a stack of points along leading axes,
C-contiguous, so that the check's matmuls take their BLAS path and give
every point of a stack the bits of a call on it alone.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import SpecError
from .manifold import BaseJets, ManifoldSpec, base_jets, check_spd

@dataclass(frozen=True)
class BundlePoint:
    x: tuple
    y: tuple

    def __post_init__(self):
        object.__setattr__(self, "x", tuple(float(v) for v in self.x))
        object.__setattr__(self, "y", tuple(float(v) for v in self.y))
        if len(self.x) != len(self.y):
            raise SpecError("fiber vector length must match base dimension")

    @property
    def n(self) -> int:
        return len(self.x)


@dataclass(frozen=True)
class BornFrame:
    """The six tensors at one bundle point or, along leading axes, a stack of
    points.  I, J, K map vectors to vectors; h, k, omega are bilinear forms."""

    I: np.ndarray
    J: np.ndarray
    K: np.ndarray
    h: np.ndarray
    k: np.ndarray
    omega: np.ndarray

    @classmethod
    def of(cls, values: dict[str, np.ndarray]) -> "BornFrame":
        """The six tensors from their value matrices, or stacks of them."""
        # a structural zero can come out as -0.0; adding 0.0 makes it +0.0
        # and makes each stack C-contiguous, for the BLAS path of matmul
        return cls(**{name: np.add(m, 0.0, order="C") for name, m in values.items()})


def _require_point(spec: ManifoldSpec, bp: BundlePoint) -> BundlePoint:
    if bp.n != spec.n:
        raise SpecError(f"bundle point dimension {bp.n} does not match spec {spec.n}")
    if not spec.contains(bp.x):
        raise SpecError(f"base point {bp.x} lies outside the sample box")
    return bp


@lru_cache(maxsize=None)
def _constant_blocks(n: int) -> np.ndarray:
    """The constant adapted-frame forms of I, J and K, stacked in that order
    as (3, 2n, 2n): built once per n and read-only, as every caller shares
    them."""
    one = np.eye(n)
    zero = np.zeros((n, n))
    blocks = np.stack([np.block([[zero, -one], [one, zero]]),
                       np.block([[zero, one], [one, zero]]),
                       np.block([[one, zero], [zero, -one]])])
    blocks.flags.writeable = False
    return blocks


# -- frames -----------------------------------------------------------------

def _broadcast(*stacks: np.ndarray) -> tuple:
    """The broadcast shape of stacks that differ only by axes of size 1; a
    cheaper ``np.broadcast_shapes``, as the products below are many and small."""
    return tuple(map(max, *(m.shape for m in stacks)))


def _mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Entrywise product of stacks with rows on axis 0 (see module doc), as one
    new C-contiguous array."""
    out = np.empty(_broadcast(a, b))
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


def _block(grid: list) -> np.ndarray:
    """The stack [[b00, b01], [b10, b11]] of (rows, n, n, ...) blocks, None a
    zero block, assigned by slices into one zeroed (rows, 2n, 2n, ...) array."""
    shape = _broadcast(*(b for row in grid for b in row if b is not None))
    n = shape[1]
    out = np.zeros((shape[0], 2 * n, 2 * n) + shape[3:])
    for i, row in enumerate(grid):
        for j, b in enumerate(row):
            if b is not None:
                out[:, i * n:(i + 1) * n, j * n:(j + 1) * n] = b
    return out


def _fiber_blocks(bases: BaseJets, ys) -> tuple[np.ndarray, np.ndarray]:
    """A[k, i] = -Gamma^k_ij y^j at the base points of ``bases`` and the fiber
    vectors ``ys`` (F, n) as a (rows, n, n, P, F) stack over the 2n bundle
    coordinates, and g as (rows, n, n, P, 1)."""
    f, n = np.shape(ys)
    count, base_rows = bases.gamma.shape[:2]
    rows = 2 * base_rows - 1  # 1 + 2n, or 1 at order 0
    g = np.zeros((rows, n, n, count, 1))
    g[:base_rows, ..., 0] = np.moveaxis(bases.g, 0, -1)
    # -A = Gamma y as a jet product with its known rows left out (module doc)
    gamma = np.moveaxis(bases.gamma, 0, -1)  # (base rows, k, i, j, P)
    terms = (gamma.reshape(base_rows, n * n, n, count, 1)
             * np.asarray(ys, dtype=float).T[:, None, :])
    terms[1:] += 0.0
    a = np.empty((rows, n, n, count, f))
    a[:base_rows] = _sum_in_order(terms).reshape(base_rows, n, n, count, f)
    if rows > 1:
        a[base_rows:] = np.moveaxis(gamma[0], 2, 0)[..., None] + 0.0
    return np.negative(a, out=a), g


def _frame_of(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(E, E^-1) at one bundle point from A's rows (..., rows, n, n), any
    leading axes a stack of points: E with those rows, E^-1 as values."""
    n = a.shape[-1]
    e = np.zeros((*a.shape[:-2], 2 * n, 2 * n))
    e[..., 0, :, :] = np.eye(2 * n)
    e[..., n:, :n] = a
    einv = e[..., 0, :, :].copy()
    einv[..., n:, :n] = -a[..., 0, :, :]
    return e, einv


def fiber_born_jets(bases: BaseJets,
                    ys) -> tuple[dict[str, np.ndarray], np.ndarray, np.ndarray]:
    """The six tensors in bundle coordinates at (x, y) for every base point x
    of ``bases`` and fiber vector y of ``ys``, as (P, F, rows, 2n, 2n) arrays
    of values and first partials, h and k as their value rows alone (module
    doc); and the blocks they are built from, A as (P, F, rows, n, n) and g
    as (P, 1, rows, n, n)."""
    a, g = _fiber_blocks(bases, ys)
    one = np.zeros(a.shape[:3] + (1, 1))  # broadcast over the (P, F) axes
    one[0, :, :, 0, 0] = np.eye(a.shape[1])
    na = -a
    p = _madd(na.swapaxes(1, 2), g)
    # a value row is computed from value rows alone
    p0, na0, g0 = p[:1], na[:1], g[:1]
    h = _block([[_madd(p0, na0, g0), p0], [_madd(g0, na0), g0]])
    k = _block([[_madd(g0, na0, p0), g0], [g0, None]])
    omega = _block([[_madd(g, na, -p), g], [-g, None]])
    stacks = {
        "I": _block([[a, -one], [_madd(na, na, one), na]]),
        "J": _block([[na, one], [_madd(a, na, one), a]]),
        "K": _block([[one, None], [a * 2.0, -one]]),
        "h": (h + h.swapaxes(1, 2)) * 0.5,
        "k": (k + k.swapaxes(1, 2)) * 0.5,
        "omega": (omega - omega.swapaxes(1, 2)) * 0.5,
    }
    # (P, F, rows, ...) views that keep the sample axes innermost in memory
    return ({name: m.transpose(3, 4, 0, 1, 2) for name, m in stacks.items()},
            a.transpose(3, 4, 0, 1, 2), g.transpose(3, 4, 0, 1, 2))


def born_jets(spec: ManifoldSpec, bp: BundlePoint) -> dict[str, np.ndarray]:
    """The six tensors in bundle coordinates with their first partials over
    the 2n coordinates, as (1 + 2n, 2n, 2n) arrays; h and k as their value
    row alone, (1, 2n, 2n)."""
    bp = _require_point(spec, bp)
    return {name: m[0, 0] for name, m in
            fiber_born_jets(base_jets(spec, [bp.x]), [bp.y])[0].items()}


def born_at(spec: ManifoldSpec, bp: BundlePoint) -> BornFrame:
    """The six tensors at a bundle point, in bundle coordinates."""
    bp = _require_point(spec, bp)
    base = base_jets(spec, [bp.x], 0)
    check_spd(base.g[:, 0], [bp.x])
    return BornFrame.of({name: m[0, 0, 0] for name, m in
                         fiber_born_jets(base, [bp.y])[0].items()})


# -- the construction in the adapted frame ------------------------------------

def adapted_frame_residuals(frame: BornFrame, a: np.ndarray,
                            g: np.ndarray) -> dict[str, np.ndarray]:
    """Per bundle point, the relative defect of each tensor of ``frame`` in
    the adapted frame of A's values ``a`` (..., n, n) against its defining
    form in g's values ``g`` (module doc); the leading axes of the three
    broadcast.  A and g come from the blocks the tensors were built from,
    not from the tensors: an A read off K would pass any K."""
    n = a.shape[-1]
    e, einv = _frame_of(a[..., None, :, :])
    e = e[..., 0, :, :]
    et = e.swapaxes(-1, -2)
    zero = np.zeros_like(g)
    defects = {name: einv @ getattr(frame, name) @ e - c
               for name, c in zip("IJK", _constant_blocks(n))}
    defects.update(h=et @ frame.h @ e - np.block([[g, zero], [zero, g]]),
                   k=et @ frame.k @ e - np.block([[zero, g], [g, zero]]),
                   omega=et @ frame.omega @ e - np.block([[zero, g], [-g, zero]]))
    scale = np.square(1.0 + np.max(np.abs(a), axis=(-2, -1)))
    form_scale = scale * np.max(np.abs(g), axis=(-2, -1))
    return {name + "_in_frame": np.max(np.abs(d), axis=(-2, -1))
            / (scale if name in ("I", "J", "K") else form_scale)
            for name, d in defects.items()}
