"""Born structure induced on the tangent bundle.

Bundle coordinates are (x^1..x^n, y^1..y^n): base coordinates followed by
fiber components.  The connection determines the adapted frame

    H_i = d/dx^i - Gamma^k_ij y^j d/dy^k,    V_i = d/dy^i,

whose matrix E = [[1, 0], [A, 1]], with A[k, i] = -Gamma^k_ij y^j, has frame
vectors as columns; E^-1 = [[1, 0], [-A, 1]].  In the adapted frame the six
tensors take constant or metric-block form.  In bundle coordinates they are
block formulas in the n x n blocks A and g, with P = (-A)^T g:

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
only, always hold their value row alone, (P, F, 1, 2n, 2n).  Sums act row
by row; a product has value a b and partials (0.0 + a b') + a' b, as the
per-point reference jet multiplication in ``tests/jet_reference.py``.  A
block c + X Y is summed as (c + X_0 Y_0) + X_1 Y_1 + ..., term m being
column m of X times row m of Y, and X Y without c (A = -Gamma y, P,
g (-A)) as X_0 Y_0 + X_1 Y_1 + ...: the order of the dense products
E M E^-1 and E^-T M E^-1 and of a matmul over jets, so the arrays equal
the jet arithmetic bit for bit.  Every operation is elementwise with
broadcasting over the (P, F) axes, so each bundle point gets the bits of
a one-point call.

A :class:`BornFrame` holds the value matrices of one bundle point or of a
stack of points along leading axes; :func:`born_compatibility_residuals`
returns a stack's residuals and signature counts per point.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SpecError
from .manifold import (BaseJets, ManifoldSpec, base_jets, check_spd, connection_at,
                       sample_points)

FRAMES = ("adapted", "bundle-coordinate")


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

    def coords(self) -> tuple:
        return self.x + self.y


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
        return cls(**{name: m + 0.0 for name, m in values.items()})


def _require_point(spec: ManifoldSpec, bp: BundlePoint) -> BundlePoint:
    if bp.n != spec.n:
        raise SpecError(f"bundle point dimension {bp.n} does not match spec {spec.n}")
    if not spec.contains(bp.x):
        raise SpecError(f"base point {bp.x} lies outside the sample box")
    return bp


def _constant_blocks(n: int) -> dict[str, np.ndarray]:
    one = np.eye(n)
    zero = np.zeros((n, n))
    return {
        "I": np.block([[zero, -one], [one, zero]]),
        "J": np.block([[zero, one], [one, zero]]),
        "K": np.block([[one, zero], [zero, -one]]),
    }


def _metric_blocks(gv: np.ndarray) -> dict[str, np.ndarray]:
    zero = np.zeros_like(gv)
    return {
        "h": np.block([[gv, zero], [zero, gv]]),
        "k": np.block([[zero, gv], [gv, zero]]),
        "omega": np.block([[zero, gv], [-gv, zero]]),
    }


# -- frames -----------------------------------------------------------------

def _mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Entrywise product of arrays with rows on axis -3 (see module doc)."""
    a0, b0 = a[..., :1, :, :], b[..., :1, :, :]
    return np.concatenate([a0 * b0, (0.0 + a0 * b[..., 1:, :, :]) + a[..., 1:, :, :] * b0],
                          axis=-3)


def _madd(x: np.ndarray, y: np.ndarray, c: np.ndarray | None = None) -> np.ndarray:
    """c + x @ y over the last two axes, summed as in the module doc."""
    for m in range(x.shape[-1]):
        term = _mul(x[..., m, None], y[..., None, m, :])
        c = term if c is None else c + term
    return c


def _fiber_blocks(bases: BaseJets, ys) -> tuple[np.ndarray, np.ndarray]:
    """A[k, i] = -Gamma^k_ij y^j at the base points of ``bases`` and the fiber
    vectors ``ys`` (F, n), and g, as (P, F, rows, n, n) arrays over the 2n
    bundle coordinates."""
    f, n = np.shape(ys)
    count, rows = len(bases.x), 2 * bases.gamma.shape[1] - 1  # 1 + 2n, or 1 at order 0
    gamma, g = (np.concatenate([m, np.zeros((count, rows - m.shape[1]) + m.shape[2:])],
                               axis=1)[:, None] for m in (bases.gamma, bases.g))
    y = np.zeros((f, rows, n, 1))
    y[:, 0, :, 0] = ys
    if rows > 1:
        y[:, 1 + n:, :, 0] = np.eye(n)
    a = -_madd(gamma.reshape(count, 1, rows, n * n, n), y).reshape(count, f, rows, n, n)
    return a, np.broadcast_to(g, a.shape)


def _frame_of(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(E, E^-1) at one bundle point from A's rows (rows, n, n): E with those
    rows, E^-1 as values."""
    n = a.shape[-1]
    e = np.zeros((len(a), 2 * n, 2 * n))
    e[0] = np.eye(2 * n)
    e[:, n:, :n] = a
    einv = e[0].copy()
    einv[n:, :n] = -a[0]
    return e, einv


def adapted_frame_at(spec: ManifoldSpec, bp: BundlePoint):
    """Change-of-basis pair (E, E^-1): columns of E are H_1..H_n, V_1..V_n
    in bundle coordinates, rows of E^-1 the dual coframe."""
    bp = _require_point(spec, bp)
    e, einv = _frame_of(_fiber_blocks(base_jets(spec, [bp.x], 0), [bp.y])[0][0, 0])
    return e[0], einv


def fiber_born_jets(bases: BaseJets, ys) -> dict[str, np.ndarray]:
    """The six tensors in bundle coordinates at (x, y) for every base point x
    of ``bases`` and fiber vector y of ``ys``, as (P, F, rows, 2n, 2n) arrays
    of values and first partials, h and k as their value rows alone (module
    doc)."""
    a, g = _fiber_blocks(bases, ys)
    one = np.zeros(a.shape)
    one[..., 0, :, :] = np.eye(a.shape[-1])
    zero = np.zeros(a.shape)
    na = -a
    p = _madd(na.swapaxes(-1, -2), g)
    # a value row is computed from value rows alone
    p0, na0, g0, zero0 = (m[..., :1, :, :] for m in (p, na, g, zero))
    h = np.block([[_madd(p0, na0, g0), p0], [_madd(g0, na0), g0]])
    k = np.block([[_madd(g0, na0, p0), g0], [g0, zero0]])
    omega = np.block([[_madd(g, na, -p), g], [-g, zero]])
    return {
        "I": np.block([[a, -one], [_madd(na, na, one), na]]),
        "J": np.block([[na, one], [_madd(a, na, one), a]]),
        "K": np.block([[one, zero], [a * 2.0, -one]]),
        "h": (h + h.swapaxes(-1, -2)) * 0.5,
        "k": (k + k.swapaxes(-1, -2)) * 0.5,
        "omega": (omega - omega.swapaxes(-1, -2)) * 0.5,
    }


def born_jets(spec: ManifoldSpec, bp: BundlePoint) -> dict[str, np.ndarray]:
    """The six tensors in bundle coordinates with their first partials over
    the 2n coordinates, as (1 + 2n, 2n, 2n) arrays; h and k as their value
    row alone, (1, 2n, 2n)."""
    bp = _require_point(spec, bp)
    return {name: m[0, 0] for name, m in
            fiber_born_jets(base_jets(spec, [bp.x]), [bp.y]).items()}


def _first_frame(mats: dict[str, np.ndarray]) -> BornFrame:
    """The values at the first bundle point of :func:`fiber_born_jets`, copied."""
    return BornFrame.of({name: m[0, 0, 0] for name, m in mats.items()})


def born_at(spec: ManifoldSpec, bp: BundlePoint,
            frame: str = "bundle-coordinate") -> BornFrame:
    """Evaluate the six tensors at a bundle point, in the requested frame."""
    bp = _require_point(spec, bp)
    if frame not in FRAMES:
        raise ValueError(f"unknown frame {frame!r}")
    base = base_jets(spec, [bp.x], 0)
    check_spd(base.g[:, 0], [bp.x])
    if frame == "adapted":
        return BornFrame.of({**_constant_blocks(spec.n), **_metric_blocks(base.g[0, 0])})
    return _first_frame(fiber_born_jets(base, [bp.y]))


# -- compatibility ------------------------------------------------------------

@dataclass(frozen=True)
class BornCompatReport:
    residuals: dict
    k_signature: tuple


def born_compatibility_residuals(bf: BornFrame) -> BornCompatReport:
    """Max-norm defect of every defining identity of the structure, plus the
    eigenvalue-sign signature of k; per frame on a stack of frames."""
    ident = np.eye(bf.I.shape[-1])
    ht, kt, omegat = (m.swapaxes(-1, -2) for m in (bf.h, bf.k, bf.omega))

    def dev(m):
        return np.max(np.abs(m), axis=(-2, -1))

    residuals = {
        "I_squared": dev(bf.I @ bf.I + ident),
        "J_squared": dev(bf.J @ bf.J - ident),
        "K_squared": dev(bf.K @ bf.K - ident),
        "IJK": dev(bf.I @ bf.J @ bf.K + ident),
        # a form maps X to form(X, .); with the first argument on rows the
        # matrix of that map is the transpose of the component matrix
        "I_vs_h_inv_omega": dev(np.linalg.solve(ht, omegat) - bf.I),
        "J_vs_k_inv_h": dev(np.linalg.solve(kt, ht) - bf.J),
        "K_vs_omega_inv_k": dev(np.linalg.solve(omegat, kt) - bf.K),
        "h_symmetry": dev(bf.h - ht),
        "k_symmetry": dev(bf.k - kt),
        "omega_antisymmetry": dev(bf.omega + omegat),
        "anticommute_I_JK": dev(bf.J @ bf.K - bf.I),
        "anticommute_I_KJ": dev(bf.K @ bf.J + bf.I),
        "anticommute_J_KI": dev(bf.K @ bf.I + bf.J),
        "anticommute_J_IK": dev(bf.I @ bf.K - bf.J),
        "anticommute_K_IJ": dev(bf.I @ bf.J + bf.K),
        "anticommute_K_JI": dev(bf.J @ bf.I - bf.K),
        "h_positive": np.maximum(0.0, -np.min(np.linalg.eigvalsh(bf.h), axis=-1)),
        "omega_nondegenerate": np.maximum(0.0, 1e-12 - np.abs(np.linalg.det(bf.omega))),
    }
    eigs = np.linalg.eigvalsh(bf.k)
    signature = (np.sum(eigs > 0, axis=-1), np.sum(eigs < 0, axis=-1))
    return BornCompatReport(residuals=residuals, k_signature=signature)


# -- affine-chart constant form -------------------------------------------------

def affine_chart_form_check(spec: ManifoldSpec, bp: BundlePoint) -> dict[str, float]:
    """Distance of the bundle-coordinate tensors from their affine-chart
    form: constant blocks for I, J, K and metric blocks for h, k, omega.
    Requires the connection coefficients to vanish identically in this
    chart."""
    bp = _require_point(spec, bp)
    probes = [bp.x] + [tuple(0.5 * (lo + hi) for lo, hi in spec.sample_box)]
    probes += [tuple(p) for p in sample_points(spec, 4, 1)]
    for q in probes:
        gamma = connection_at(spec, q)
        if np.max(np.abs(gamma)) != 0.0:
            raise SpecError(
                "connection coefficients do not vanish in this chart; "
                f"max |Gamma| = {np.max(np.abs(gamma)):.3g} at {q}")
    base = base_jets(spec, [bp.x], 0)
    check_spd(base.g[:, 0], [bp.x])
    bf = _first_frame(fiber_born_jets(base, [bp.y]))
    want = {**_constant_blocks(spec.n), **_metric_blocks(base.g[0, 0])}
    return {name: float(np.max(np.abs(getattr(bf, name) - m))) for name, m in want.items()}
