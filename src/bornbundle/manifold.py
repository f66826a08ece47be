"""Base-manifold tensor algebra.

Holds the manifold description (:class:`ManifoldSpec`), pointwise tensor
evaluation (metric, connection, torsion, curvature, dual connection,
covariant derivative of the metric, Levi-Civita), the Hessian verdict and
the four-residual torsion/duality/compatibility report.

:func:`base_jets` evaluates Gamma and g once per sample point and rejects
a value or derivative that is not finite as a spec error.  The Hessian
verdict and the two-of-four report are both built from these evaluations;
the latter takes the dual connection and Levi-Civita from the values of g
and its first partials and one inverse of g, through the formulas of
:mod:`bornbundle.fields`, so they equal the fields' own order-0 values bit
for bit.  The ``*_at`` functions evaluate their fields on their own and
return plain arrays.  Every verdict of the package, the chart witness's
included, reduces its residuals to per-point maxima through
:func:`finite_maxima`, which rejects a residual that is not finite at a
point as a spec error.

Curvature convention, fixed once for the whole package:
``R^l_ijk = d_i Gamma^l_jk - d_j Gamma^l_ik + Gamma^l_im Gamma^m_jk
- Gamma^l_jm Gamma^m_ik``.  Identities involving the curvature are checked
against both global signs elsewhere; the matching sign is recorded, never
assumed.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import expr, fields, jets
from .errors import NotPositiveDefiniteError, SpecError

CONNECTION_KINDS = ("explicit", "flat", "levi-civita", "hessian-dual")
DEFAULT_TOL = 1e-9


@dataclass(frozen=True)
class ManifoldSpec:
    """A single-chart manifold: dimension, coordinates, metric (explicit
    grid or scalar potential whose coordinate Hessian is the metric),
    connection, and the box from which sample points are drawn."""

    n: int
    coords: tuple[str, ...]
    sample_box: tuple[tuple[float, float], ...]
    connection_kind: str
    metric_exprs: tuple | None = None
    potential: expr.ExprAst | None = None
    gamma_exprs: tuple | None = None
    name: str = ""

    def __post_init__(self):
        if self.n < 1:
            raise SpecError("dimension must be at least 1")
        if len(self.coords) != self.n:
            raise SpecError(f"{self.n} coordinates expected, got {len(self.coords)}")
        if len(self.sample_box) != self.n:
            raise SpecError("sample_box must give one interval per coordinate")
        for lo, hi in self.sample_box:
            if not lo < hi:
                raise SpecError(f"empty sample interval [{lo}, {hi}]")
        if (self.metric_exprs is None) == (self.potential is None):
            raise SpecError("exactly one of metric grid and potential is required")
        if self.metric_exprs is not None and (
                len(self.metric_exprs) != self.n
                or any(len(row) != self.n for row in self.metric_exprs)):
            raise SpecError("metric grid must be n x n")
        if self.connection_kind not in CONNECTION_KINDS:
            raise SpecError(f"unknown connection kind {self.connection_kind!r}")
        if (self.connection_kind == "explicit") != (self.gamma_exprs is not None):
            raise SpecError("explicit connections need a gamma grid, others must not have one")
        if self.gamma_exprs is not None and (
                len(self.gamma_exprs) != self.n
                or any(len(plane) != self.n for plane in self.gamma_exprs)
                or any(len(row) != self.n for plane in self.gamma_exprs for row in plane)):
            raise SpecError("gamma grid must be n x n x n")

    def contains(self, p: Sequence[float]) -> bool:
        return all(lo <= x <= hi for x, (lo, hi) in zip(p, self.sample_box))


def build_spec(name: str, coordinates: Sequence[str], sample_box,
               metric: Sequence[Sequence[str]] | None = None,
               potential: str | None = None,
               connection: str = "flat",
               gamma: Sequence[Sequence[Sequence[str]]] | None = None) -> ManifoldSpec:
    """Parse expression strings into a validated spec."""
    coords = tuple(coordinates)
    n = len(coords)
    metric_exprs = None
    if metric is not None:
        metric_exprs = tuple(tuple(expr.parse(e, coords) for e in row) for row in metric)
    potential_ast = expr.parse(potential, coords) if potential is not None else None
    gamma_exprs = None
    if gamma is not None:
        gamma_exprs = tuple(tuple(tuple(expr.parse(e, coords) for e in row)
                                  for row in plane) for plane in gamma)
    box = tuple((float(lo), float(hi)) for lo, hi in sample_box)
    return ManifoldSpec(n=n, coords=coords, sample_box=box,
                        connection_kind=connection, metric_exprs=metric_exprs,
                        potential=potential_ast, gamma_exprs=gamma_exprs, name=name)


# -- sampling --------------------------------------------------------------

def _primes(count: int) -> list[int]:
    """The first ``count`` primes."""
    primes: list[int] = []
    candidate = 2
    while len(primes) < count:
        if all(candidate % p for p in primes):
            primes.append(candidate)
        candidate += 1
    return primes


def _radical_inverse(i: int, base: int) -> float:
    f = 1.0
    r = 0.0
    while i > 0:
        f /= base
        r += f * (i % base)
        i //= base
    return r


def halton_points(count: int, dim: int, seed: int, prime_offset: int = 0) -> np.ndarray:
    """Deterministic low-discrepancy points in [0, 1)^dim; the seed shifts
    the start index of the sequence."""
    primes = _primes(dim + prime_offset)[prime_offset:]
    start = 1 + (seed % 8191) * 61
    pts = np.empty((count, dim))
    for r in range(count):
        for d in range(dim):
            pts[r, d] = _radical_inverse(start + r, primes[d])
    return pts


def sample_points(spec: ManifoldSpec, count: int, seed: int) -> np.ndarray:
    if count < 1:
        raise ValueError("need at least one sample point")
    unit = halton_points(count, spec.n, seed)
    box = np.asarray(spec.sample_box)
    return box[:, 0] + unit * (box[:, 1] - box[:, 0])


def sample_fibers(n: int, count: int, radius: float, seed: int) -> np.ndarray:
    """Fiber vectors in the box [-radius, radius]^n, from a Halton stream
    disjoint from the base-point stream."""
    if count < 1:
        raise ValueError("need at least one fiber sample")
    if not 0.0 < radius < math.inf:
        raise ValueError("fiber radius must be finite and positive")
    unit = halton_points(count, n, seed, prime_offset=n)
    return (2.0 * unit - 1.0) * radius


# -- pointwise tensors -------------------------------------------------------

def check_spd(g: np.ndarray, point) -> float:
    """Cholesky-style positivity check; returns the smallest pivot."""
    a = np.array(g, dtype=float)
    n = a.shape[0]
    smallest = np.inf
    for i in range(n):
        pivot = a[i, i]
        smallest = min(smallest, pivot)
        if pivot <= 0.0:
            raise NotPositiveDefiniteError(
                f"metric is not positive definite at {tuple(point)}: "
                f"smallest pivot {pivot:.6g}", pivot)
        for j in range(i + 1, n):
            factor = a[j, i] / pivot
            a[j, i:] -= factor * a[i, i:]
    return smallest


def _require_inside(spec: ManifoldSpec, p) -> tuple:
    p = tuple(float(x) for x in p)
    if len(p) != spec.n:
        raise SpecError(f"point has {len(p)} coordinates, expected {spec.n}")
    if not spec.contains(p):
        raise SpecError(f"point {p} lies outside the sample box")
    return p


def metric_at(spec: ManifoldSpec, p) -> np.ndarray:
    """Metric components at p, positivity-checked."""
    p = _require_inside(spec, p)
    values = fields.jet_values(fields.metric_jets(spec, p, 0))
    check_spd(values, p)
    return values


def connection_at(spec: ManifoldSpec, p) -> np.ndarray:
    return fields.jet_values(fields.connection_jets(spec, _require_inside(spec, p), 0))


def levi_civita_at(spec: ManifoldSpec, p) -> np.ndarray:
    return fields.jet_values(fields.levi_civita_jets(spec, _require_inside(spec, p), 0))


def _curvature_of(gamma: np.ndarray) -> np.ndarray:
    """R^l_ijk from a Gamma array of order 1 (see :func:`base_jets`)."""
    gv, dgamma = gamma[0], gamma[1:]  # dgamma[d, k, i, j] = d_d Gamma^k_ij
    half = (np.einsum("iljk->lijk", dgamma)
            + np.einsum("lim,mjk->lijk", gv, gv))
    return half - half.transpose(0, 2, 1, 3)


def _nabla_g_of(gamma_values: np.ndarray, g: np.ndarray) -> tuple[np.ndarray, float]:
    """nabla g, indexed (direction; arguments), from Gamma's values and a g
    array as in :func:`_curvature_of`, with its worst asymmetry under index
    permutations (NaN if any entry is NaN)."""
    gv, dg = g[0], g[1:]  # dg[l, i, j] = d_l g_ij
    ng = (dg - np.einsum("lij,lk->ijk", gamma_values, gv)
          - np.einsum("lik,jl->ijk", gamma_values, gv))
    asym = float(np.max([np.max(np.abs(ng - ng.transpose(perm)))
                         for perm in itertools.permutations(range(3))
                         if perm != (0, 1, 2)]))
    return ng, asym


def torsion_at(spec: ManifoldSpec, p) -> np.ndarray:
    """T^k_ij = Gamma^k_ij - Gamma^k_ji."""
    return _torsion_of(connection_at(spec, p))


def _torsion_of(gamma_values: np.ndarray) -> np.ndarray:
    return gamma_values - gamma_values.transpose(0, 2, 1)


def curvature_at(spec: ManifoldSpec, p) -> np.ndarray:
    """R^l_ijk under the package convention (see module docstring)."""
    p = _require_inside(spec, p)
    return _curvature_of(fields.jet_array(fields.connection_jets(spec, p, 1)))


def dual_connection_at(spec: ManifoldSpec, p) -> np.ndarray:
    """The unique connection pairing with the declared one so that the
    metric is parallel for the pair: Gamma*^l_ik = g^{lj}(d_i g_jk -
    Gamma^m_ij g_mk)."""
    p = _require_inside(spec, p)
    return fields.jet_values(fields.dual_connection_jets(spec, p, 0))


def dual_identity_residual(spec: ManifoldSpec, p) -> float:
    """Max-norm defect of d_i g_jk = Gamma^l_ij g_lk + g_jl Gamma*^l_ik."""
    p = _require_inside(spec, p)
    g = fields.jet_array(fields.metric_jets(spec, p, 1))
    gv, dgv = g[0], g[1:]
    gamma = fields.jet_values(fields.connection_jets(spec, p, 0))
    dual = fields.jet_values(fields.dual_connection_jets(spec, p, 0))
    resid = (dgv - np.einsum("lij,lk->ijk", gamma, gv)
             - np.einsum("jl,lik->ijk", gv, dual))
    return float(np.max(np.abs(resid)))


def nabla_g_at(spec: ManifoldSpec, p) -> tuple[np.ndarray, float]:
    """Covariant derivative of the metric, indexed (direction; arguments),
    and the worst asymmetry under index permutations."""
    p = _require_inside(spec, p)
    g = fields.jet_array(fields.metric_jets(spec, p, 1))
    gamma = fields.jet_values(fields.connection_jets(spec, p, 0))
    return _nabla_g_of(gamma, g)


# -- base-point fields and the Hessian verdict ------------------------------------

@dataclass(frozen=True)
class BaseJets:
    x: tuple
    gamma: np.ndarray  # Gamma^k_ij
    g: np.ndarray


def _require_finite(x: tuple, name: str, field: np.ndarray) -> None:
    """Reject a field whose entries have a value or a derivative that is not
    finite, naming the first such entry."""
    bad = np.argwhere(~np.isfinite(field).all(axis=0))
    if len(bad):
        idx = tuple(bad[0])
        entry = "".join(f"[{i}]" for i in idx)
        raise SpecError(f"{name}{entry} or one of its derivatives is not "
                        f"finite at {x} (value {float(field[(0, *idx)])!r})")


def finite_maxima(residuals: dict, points: Sequence) -> dict[str, np.ndarray]:
    """Per-point max |residual| of each stack in ``residuals``, whose first
    axis runs over ``points``.  A maximum that is not finite (a NaN, which
    Python's ``max`` would skip, or inf) is a spec error naming the first one
    by point, then by residual in the order given, and its point.  Callers
    compute the residuals under ``np.errstate(over="ignore",
    invalid="ignore")``: a residual that overflows or is NaN reaches this
    check instead of printing a numpy warning."""
    maxima = {name: np.max(np.abs(np.reshape(r, (len(points), -1))), axis=1)
              for name, r in residuals.items()}
    bad = np.argwhere(~np.isfinite(np.stack(list(maxima.values()), axis=1)))
    if len(bad):
        p, r = bad[0]
        name = list(maxima)[r]
        raise SpecError(f"{name} residual is not finite at {points[p]} "
                        f"(value {float(maxima[name][p])!r})")
    return maxima


def base_jets(spec: ManifoldSpec, x, order: int = 1) -> BaseJets:
    """Gamma and g at base point x as :func:`bornbundle.fields.jet_array`
    arrays over the n base coordinates: values and, at ``order`` 1, first
    partials.  Everything evaluated over x is built from them: the Hessian
    verdict, the two-of-four report and the Born tensors of all fibers.  A
    value or derivative that is not finite is a spec error."""
    x = _require_inside(spec, x)
    args = jets.seed_embedded(x, order, spec.n, 0)
    base = BaseJets(x, fields.jet_array(fields.connection_args(spec, args, order)),
                    fields.jet_array(fields.metric_args(spec, args, order)))
    _require_finite(x, "gamma", base.gamma)
    _require_finite(x, "metric", base.g)
    return base


@dataclass(frozen=True)
class HessianVerdict:
    is_hessian: bool
    max_curvature: float
    max_torsion: float
    max_nabla_g_asymmetry: float
    tol: float
    points: int

    @classmethod
    def of(cls, bases: Sequence[BaseJets], tol: float) -> "HessianVerdict":
        """The verdict over base-point fields of order 1, after the metric's
        positivity gate at every point."""
        for base in bases:
            check_spd(base.g[0], base.x)
        with np.errstate(over="ignore", invalid="ignore"):  # finite_maxima checks
            residuals = {
                "curvature": [_curvature_of(b.gamma) for b in bases],
                "torsion": [_torsion_of(b.gamma[0]) for b in bases],
                "nabla_g_asymmetry": [_nabla_g_of(b.gamma[0], b.g)[1] for b in bases],
            }
        worst = finite_maxima(residuals, [b.x for b in bases])
        max_r, max_t, max_a = (float(np.max(m)) for m in worst.values())
        return cls(is_hessian=bool(max_r <= tol and max_t <= tol and max_a <= tol),
                   max_curvature=max_r, max_torsion=max_t,
                   max_nabla_g_asymmetry=max_a, tol=tol, points=len(bases))


def hessian_verdict(spec: ManifoldSpec, points: Sequence[Sequence[float]],
                    tol: float = DEFAULT_TOL) -> HessianVerdict:
    """Flatness plus total symmetry of the metric derivative, checked on
    sampled points of this chart (pointwise certificate only)."""
    points = list(points)
    if not points:
        raise ValueError("need at least one sample point")
    return HessianVerdict.of([base_jets(spec, p) for p in points], tol)


def dual_and_levi_civita(gamma: np.ndarray, g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Values of the dual of Gamma and of the Levi-Civita connection, from
    Gamma's values, a g array of order 1 (see :func:`base_jets`) and one
    inverse of g, through the formulas :mod:`bornbundle.fields` uses for jets."""
    gv, dg = g[0], g[1:]  # dg[l, i, j] = d_l g_ij
    ginv = fields.jet_values(fields.jet_inv(fields.const_jet_array(gv, 0, 1)))
    return fields.dual_connection_of(gamma, gv, dg, ginv), fields.levi_civita_of(dg, ginv)


@dataclass(frozen=True)
class TwoOfFourReport:
    """Max residuals of: torsion of the connection, torsion of its dual,
    asymmetry of the metric derivative, and distance of the connection/dual
    mean from Levi-Civita.  Any two vanishing forces all four, so observing
    exactly two or three below tolerance indicates an internal bug."""

    residuals: dict
    holds: dict
    tol: float
    fact_violated: bool

    @classmethod
    def of(cls, bases: Sequence[BaseJets], tol: float) -> "TwoOfFourReport":
        """The report over base-point fields: Gamma of any order, g of order 1."""
        duals = [dual_and_levi_civita(b.gamma[0], b.g) for b in bases]
        with np.errstate(over="ignore", invalid="ignore"):  # finite_maxima checks
            residuals = {
                "torsion": [_torsion_of(b.gamma[0]) for b in bases],
                "dual_torsion": [_torsion_of(dual) for dual, _ in duals],
                "nabla_g_asymmetry": [_nabla_g_of(b.gamma[0], b.g)[1] for b in bases],
                "mean_vs_levi_civita": [0.5 * (b.gamma[0] + dual) - lc
                                        for b, (dual, lc) in zip(bases, duals)],
            }
        worst = finite_maxima(residuals, [b.x for b in bases])
        maxima = {k: float(np.max(v)) for k, v in worst.items()}
        holds = {k: bool(v <= tol) for k, v in maxima.items()}
        return cls(residuals=maxima, holds=holds, tol=tol,
                   fact_violated=bool(sum(holds.values()) in (2, 3)))


def two_of_four_residuals(spec: ManifoldSpec, points: Sequence[Sequence[float]],
                          tol: float = DEFAULT_TOL) -> TwoOfFourReport:
    """:meth:`TwoOfFourReport.of` with Gamma at order 0 and g at order 1, which
    a potential metric with its Levi-Civita connection supports."""
    points = [_require_inside(spec, p) for p in points]
    if not points:
        raise ValueError("need at least one sample point")
    return TwoOfFourReport.of(
        [BaseJets(p, fields.jet_array(fields.connection_jets(spec, p, 0)),
                  fields.jet_array(fields.metric_jets(spec, p, 1))) for p in points], tol)
