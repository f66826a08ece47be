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

A :class:`BornFrame` holds the value matrices of one bundle point or of a
stack of points along leading axes, C-contiguous, so that the matmuls,
solves and eigenvalues of :func:`born_compatibility_residuals` take their
BLAS/LAPACK path; that function returns a stack's residuals and signature
counts per point; a frame whose solve fails (h, k or omega singular to
working precision) reads inf for that identity, so that the sweep names
it as a residual that is not finite.  Its ``omega_nondegenerate`` floor is
in the thresholds table of :mod:`bornbundle.manifold`.
"""
from __future__ import annotations

import contextlib
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import SpecError
from .manifold import OMEGA_DET_FLOOR, BaseJets, ManifoldSpec, base_jets, check_spd

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
        # and makes each stack C-contiguous, for the BLAS/LAPACK path of matmul
        # and solve
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


def fiber_born_jets(bases: BaseJets, ys) -> dict[str, np.ndarray]:
    """The six tensors in bundle coordinates at (x, y) for every base point x
    of ``bases`` and fiber vector y of ``ys``, as (P, F, rows, 2n, 2n) arrays
    of values and first partials, h and k as their value rows alone (module
    doc)."""
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
    # (P, F, rows, 2n, 2n) views that keep the sample axes innermost in memory
    return {name: m.transpose(3, 4, 0, 1, 2) for name, m in stacks.items()}


def born_jets(spec: ManifoldSpec, bp: BundlePoint) -> dict[str, np.ndarray]:
    """The six tensors in bundle coordinates with their first partials over
    the 2n coordinates, as (1 + 2n, 2n, 2n) arrays; h and k as their value
    row alone, (1, 2n, 2n)."""
    bp = _require_point(spec, bp)
    return {name: m[0, 0] for name, m in
            fiber_born_jets(base_jets(spec, [bp.x]), [bp.y]).items()}


def born_at(spec: ManifoldSpec, bp: BundlePoint) -> BornFrame:
    """The six tensors at a bundle point, in bundle coordinates."""
    bp = _require_point(spec, bp)
    base = base_jets(spec, [bp.x], 0)
    check_spd(base.g[:, 0], [bp.x])
    return BornFrame.of({name: m[0, 0, 0] for name, m in
                         fiber_born_jets(base, [bp.y]).items()})


# -- compatibility ------------------------------------------------------------

@dataclass(frozen=True)
class BornCompatReport:
    residuals: dict
    k_signature: tuple


def _per_frame(linalg, fill: float, shape: tuple, *stacks: np.ndarray) -> np.ndarray:
    """``linalg`` (a numpy.linalg function) on stacks of frames, its result of
    ``shape``.  If the batched call raises LinAlgError, it is called frame by
    frame, and a frame on which it raises reads ``fill``."""
    try:
        return linalg(*stacks)
    except np.linalg.LinAlgError:
        out = np.full(shape, fill)
        for index in np.ndindex(stacks[0].shape[:-2]):
            with contextlib.suppress(np.linalg.LinAlgError):
                out[index] = linalg(*(m[index] for m in stacks))
        return out


def born_compatibility_residuals(bf: BornFrame) -> BornCompatReport:
    """Max-norm defect of every defining identity of the structure, plus the
    eigenvalue-sign signature of k; per frame on a stack of frames.  A frame
    whose h, k or omega is numerically singular, so that a solve fails, reads
    inf for that identity; one whose eigenvalues fail, NaN."""
    ident = np.eye(bf.I.shape[-1])
    ht, kt, omegat = (m.swapaxes(-1, -2) for m in (bf.h, bf.k, bf.omega))

    def dev(m):
        return np.max(np.abs(m), axis=(-2, -1))

    def solve(a, b):
        return _per_frame(np.linalg.solve, np.inf, b.shape, a, b)

    def eigvalsh(m):
        return _per_frame(np.linalg.eigvalsh, np.nan, m.shape[:-1], m)

    ij = bf.I @ bf.J
    residuals = {
        "I_squared": dev(bf.I @ bf.I + ident),
        "J_squared": dev(bf.J @ bf.J - ident),
        "K_squared": dev(bf.K @ bf.K - ident),
        "IJK": dev(ij @ bf.K + ident),
        # a form maps X to form(X, .); with the first argument on rows the
        # matrix of that map is the transpose of the component matrix
        "I_vs_h_inv_omega": dev(solve(ht, omegat) - bf.I),
        "J_vs_k_inv_h": dev(solve(kt, ht) - bf.J),
        "K_vs_omega_inv_k": dev(solve(omegat, kt) - bf.K),
        "h_symmetry": dev(bf.h - ht),
        "k_symmetry": dev(bf.k - kt),
        "omega_antisymmetry": dev(bf.omega + omegat),
        "anticommute_I_JK": dev(bf.J @ bf.K - bf.I),
        "anticommute_I_KJ": dev(bf.K @ bf.J + bf.I),
        "anticommute_J_KI": dev(bf.K @ bf.I + bf.J),
        "anticommute_J_IK": dev(bf.I @ bf.K - bf.J),
        "anticommute_K_IJ": dev(ij + bf.K),
        "anticommute_K_JI": dev(bf.J @ bf.I - bf.K),
        "h_positive": np.maximum(0.0, -np.min(eigvalsh(bf.h), axis=-1)),
        "omega_nondegenerate": np.maximum(0.0, OMEGA_DET_FLOOR - np.abs(np.linalg.det(bf.omega))),
    }
    eigs = eigvalsh(bf.k)
    signature = (np.sum(eigs > 0, axis=-1), np.sum(eigs < 0, axis=-1))
    return BornCompatReport(residuals=residuals, k_signature=signature)
