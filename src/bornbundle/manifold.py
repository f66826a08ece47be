"""Base-manifold tensor algebra.

Holds the manifold description (:class:`ManifoldSpec`), the base-point
fields of a sweep (metric and connection), the tensors built from them
(torsion, curvature, dual connection, covariant derivative of the metric,
Levi-Civita), the Hessian verdict and the two-of-four residuals of
torsion, duality and compatibility.

:func:`base_jets` evaluates Gamma and g at all P sample points of a sweep
as one batch, held as one :class:`BaseJets` record of arrays stacked along
a leading point axis, and rejects a value or derivative that is not finite
as a spec error.  The Hessian verdict and the two-of-four residuals are
both built from that record, by formulas that act on the leading axis;
the latter reuse the Hessian verdict's per-point torsion and asymmetry,
and take the dual connection and Levi-Civita from the values of g and its
first partials and one batched inverse of g, through the formulas of
:mod:`bornbundle.fields`, so they equal the fields' own order-0 values bit
for bit.  Every verdict and gate of the package, the chart witness's
included, is one :class:`Residuals` record: per-point maxima by name, read
against one entry of the table of thresholds below, which the other
modules import.  A residual that is not finite at a point is a spec error
through :func:`finite_maxima`, which reduces each stack to per-point
maxima over its trailing axes; the Born sweep reduces its own stacks and
calls it only on a maximum that is not finite.  The sample box is checked
on the whole point array, and point by point only to name the first point
outside it.

Curvature convention, fixed once for the whole package:
``R^l_ijk = d_i Gamma^l_jk - d_j Gamma^l_ik + Gamma^l_im Gamma^m_jk
- Gamma^l_jm Gamma^m_ik``.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from . import expr, fields, jets
from .errors import NotPositiveDefiniteError, SpecError

CONNECTION_KINDS = ("explicit", "flat", "levi-civita", "hessian-dual")

# Thresholds: every number that decides a verdict, a gate or an exit code, each an absolute
# bound but BORN_GATE (the README's "Thresholds" table).  Per entry: what it gates; what a
# breach gives.
DEFAULT_TOL = 1e-9          # Hessian and integrability verdicts (--tol): a result, exit 0
CROSS_TOL = 1e-7            # two-of-four "holds": two or three holding is exit 2
BORN_GATE = 1e-8            # Born construction in the adapted frame, relative: exit 2
FLATNESS_GATE_TOL = 1e-7    # chart curvature and torsion: FlatnessGateError (exit 1), or no witness
PUSHFORWARD_TOL = 1e-6      # chart witness residuals: "witnessed": false, exit 2
PROBE_RADIUS_SLACK = 1e-12  # chart probe norm over its radius: InternalError, exit 2


@dataclass(frozen=True)
class ManifoldSpec:
    """A single-chart manifold: dimension, coordinates, metric (explicit
    grid or scalar potential whose coordinate Hessian is the metric),
    connection, and the box from which sample points are drawn."""

    coords: tuple[str, ...]
    sample_box: tuple[tuple[float, float], ...]
    connection_kind: str
    metric_exprs: expr.Program | None = None  # n x n entries in C order
    potential: expr.Program | None = None  # one output
    gamma_exprs: expr.Program | None = None  # n x n x n entries in C order
    name: str = ""

    @property
    def n(self) -> int:
        return len(self.coords)

    def __post_init__(self):
        if self.n < 1:
            raise SpecError("dimension must be at least 1")
        if len(self.sample_box) != self.n:
            raise SpecError("sample_box must give one interval per coordinate")
        for lo, hi in self.sample_box:
            if not (math.isfinite(lo) and math.isfinite(hi)):
                raise SpecError(f"sample interval [{lo}, {hi}] is not finite")
            if not lo < hi:
                raise SpecError(f"empty sample interval [{lo}, {hi}]")
            if not math.isfinite(hi - lo):
                raise SpecError(f"sample interval [{lo}, {hi}] is wider than the largest float")
        if (self.metric_exprs is None) == (self.potential is None):
            raise SpecError("exactly one of metric grid and potential is required")
        if self.metric_exprs is not None and len(self.metric_exprs) != self.n ** 2:
            raise SpecError("metric grid must be n x n")
        if self.connection_kind not in CONNECTION_KINDS:
            raise SpecError(f"unknown connection kind {self.connection_kind!r}")
        if (self.connection_kind == "explicit") != (self.gamma_exprs is not None):
            raise SpecError("explicit connections need a gamma grid, others must not have one")
        if self.gamma_exprs is not None and len(self.gamma_exprs) != self.n ** 3:
            raise SpecError("gamma grid must be n x n x n")

    def contains(self, p: Sequence[float]) -> bool:
        return all(lo <= x <= hi for x, (lo, hi) in zip(p, self.sample_box))


def build_spec(name: str, coordinates: Sequence[str], sample_box,
               metric: Sequence[Sequence[str]] | None = None,
               potential: str | None = None,
               connection: str = "flat",
               gamma: Sequence[Sequence[Sequence[str]]] | None = None) -> ManifoldSpec:
    """Compile the expression strings of a validated spec: the metric grid,
    the potential and the Gamma grid each become one program with an
    output per entry, in C order (:func:`bornbundle.expr.parse`)."""
    coords = tuple(coordinates)
    n = len(coords)

    def compile_grid(grid, depth):
        # a grid of another shape than n^depth compiles to no outputs, which
        # ManifoldSpec rejects in the order of its checks
        entries, shaped = [grid], True
        for _ in range(depth):
            shaped = shaped and all(len(e) == n for e in entries)
            entries = [x for e in entries for x in e]
        program = expr.parse(entries, coords)
        return program if shaped else expr.Program(n, (), (), (), ())
    metric_exprs = None if metric is None else compile_grid(metric, 2)
    potential_program = None if potential is None else expr.parse(potential, coords)
    gamma_exprs = None if gamma is None else compile_grid(gamma, 3)
    box = tuple((float(lo), float(hi)) for lo, hi in sample_box)
    return ManifoldSpec(coords=coords, sample_box=box,
                        connection_kind=connection, metric_exprs=metric_exprs,
                        potential=potential_program, gamma_exprs=gamma_exprs, name=name)


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
    unit = halton_points(count, spec.n, seed)
    box = np.asarray(spec.sample_box)
    return box[:, 0] + unit * (box[:, 1] - box[:, 0])


def sample_fibers(n: int, count: int, radius: float, seed: int) -> np.ndarray:
    """Fiber vectors in the box [-radius, radius]^n, from a Halton stream
    disjoint from the base-point stream."""
    if not 0.0 < radius < math.inf:
        raise ValueError("fiber radius must be finite and positive")
    unit = halton_points(count, n, seed, prime_offset=n)
    return (2.0 * unit - 1.0) * radius


# -- pointwise tensors -------------------------------------------------------

def check_spd(g: np.ndarray, points: Sequence) -> None:
    """Cholesky-style positivity check of the metric stack ``g`` (P, n, n) at
    ``points``: the first point with a pivot that is not positive, or that
    is positive but below the smallest normal float (singular to working
    precision), is an error naming it and that pivot."""
    a = np.array(g, dtype=float)
    pivots = np.empty(a.shape[:-1])
    with np.errstate(divide="ignore", invalid="ignore"):  # past a failed pivot
        for i in range(a.shape[-1]):
            pivots[:, i] = a[:, i, i]
            for j in range(i + 1, a.shape[-1]):
                factor = a[:, j, i] / pivots[:, i]
                a[:, j, i:] -= factor[:, None] * a[:, i, i:]
    bad = pivots < np.finfo(float).tiny
    if bad.any():
        p = int(np.argmax(bad.any(axis=1)))
        pivot = float(pivots[p, np.argmax(bad[p])])
        if pivot > 0.0:
            raise SpecError(f"metric is singular to working precision at "
                            f"{tuple(points[p])}: pivot {pivot!r}")
        raise NotPositiveDefiniteError(
            f"metric is not positive definite at {tuple(points[p])}: "
            f"smallest pivot {pivot:.6g}")


def _require_inside(spec: ManifoldSpec, p, noun: str = "point") -> tuple:
    """p as a tuple of floats, after checking that it is a point of the
    sample box; ``noun`` names it in the errors."""
    p = tuple(float(x) for x in p)
    if len(p) != spec.n:
        raise SpecError(f"{noun} has {len(p)} coordinates, expected {spec.n}")
    if not spec.contains(p):
        raise SpecError(f"{noun} {p} lies outside the sample box")
    return p


def _curvature_of(gamma: np.ndarray) -> np.ndarray:
    """R^l_ijk from a Gamma array of order 1 (see :func:`base_jets`), with
    any leading stack axes."""
    # dgamma[..., d, k, i, j] = d_d Gamma^k_ij
    gv, dgamma = gamma[..., 0, :, :, :], gamma[..., 1:, :, :, :]
    half = (np.einsum("...iljk->...lijk", dgamma)
            + np.einsum("...lim,...mjk->...lijk", gv, gv))
    return half - half.swapaxes(-3, -2)


def _nabla_g_of(gamma_values: np.ndarray, g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """nabla g, indexed (direction; arguments), from Gamma's values and a g
    array as in :func:`_curvature_of`, with its worst asymmetry under index
    permutations (NaN if any entry is NaN), both over the leading stack axes."""
    gv, dg = g[..., 0, :, :], g[..., 1:, :, :]  # dg[..., l, i, j] = d_l g_ij
    ng = (dg - np.einsum("...lij,...lk->...ijk", gamma_values, gv)
          - np.einsum("...lik,...jl->...ijk", gamma_values, gv))
    permuted = np.stack([ng.transpose(*range(ng.ndim - 3), *(q - 3 for q in perm))
                         for perm in itertools.permutations(range(3)) if perm != (0, 1, 2)])
    return ng, np.abs(ng - permuted).max(axis=(0, -3, -2, -1))


def _torsion_of(gamma_values: np.ndarray) -> np.ndarray:
    """T^k_ij = Gamma^k_ij - Gamma^k_ji, with any leading stack axes."""
    return gamma_values - gamma_values.swapaxes(-1, -2)


# -- base-point fields and the Hessian verdict ------------------------------------

@dataclass(frozen=True)
class BaseJets:
    """Gamma and g at the P points ``x`` of a sweep, stacked along the first
    axis: ``gamma`` (P, rows, n, n, n) holds Gamma^k_ij, ``g`` (P, rows, n, n)."""

    x: tuple
    gamma: np.ndarray
    g: np.ndarray

    def __getitem__(self, points: slice) -> "BaseJets":
        return BaseJets(self.x[points], self.gamma[points], self.g[points])


def _require_finite(x: tuple, name: str, field: np.ndarray, coords: Sequence[str]) -> None:
    """Reject a field whose entries have a value or a first partial that is
    not finite, naming the first such entry and, if its value is finite,
    its first partial that is not, by the coordinate's name."""
    bad = np.argwhere(~np.isfinite(field).all(axis=0))
    if len(bad):
        idx = tuple(bad[0])
        entry = "".join(f"[{i}]" for i in idx)
        value, partials = float(field[(0, *idx)]), field[(slice(1, None), *idx)]
        if not math.isfinite(value):
            raise SpecError(f"{name}{entry} or one of its derivatives is not "
                            f"finite at {x} (value {value!r})")
        d = int(np.argmin(np.isfinite(partials)))
        raise SpecError(f"{name}{entry} has a partial by {coords[d]} that is not finite "
                        f"at {x} (partial {float(partials[d])!r}, value {value!r})")


def finite_maxima(residuals: dict, points: Sequence) -> dict[str, np.ndarray]:
    """Per-point max |residual| of each stack in ``residuals``, whose first
    axis, or first axes in C order, run over ``points``.  A maximum that is
    not finite (a NaN, which Python's ``max`` would skip, or inf) is a spec
    error naming the first one by point, then by residual in the order
    given, and its point.  Callers compute the residuals under
    ``np.errstate(over="ignore", invalid="ignore")``: a residual that
    overflows or is NaN reaches this check instead of printing a numpy
    warning."""
    maxima = {name: np.abs(r).reshape(len(points), -1).max(axis=1)
              for name, r in residuals.items()}
    finite = np.isfinite(list(maxima.values()))  # (residual, point)
    if finite.all():
        return maxima
    p, r = np.argwhere(~finite.T)[0]
    name = list(maxima)[r]
    raise SpecError(f"{name} residual is not finite at {points[p]} "
                    f"(value {float(maxima[name][p])!r})")


@dataclass(frozen=True)
class Residuals:
    """Named residuals read against one threshold of the table above: per
    name, the maxima of its stack at each sample point, reduced once (by
    :func:`finite_maxima`, or by the Born sweep, which checks its own), and
    ``tol``.  Every verdict and gate of the package is one of these records."""

    per_point: dict  # name -> per-point maxima, axes over the sample points
    tol: float

    @cached_property
    def maxima(self) -> dict[str, float]:
        """Per name, the maximum over every point."""
        return {name: float(m.max()) for name, m in self.per_point.items()}

    @property
    def holds(self) -> dict[str, bool]:
        """Per name, whether its maximum is within ``tol``."""
        return {name: m <= self.tol for name, m in self.maxima.items()}

    @property
    def within(self) -> bool:
        """Whether every maximum is within ``tol``."""
        return all(self.holds.values())


def _first_failure(evaluate, count: int):
    """``evaluate(slice(None))``, the batch of all ``count`` items.  If it
    raises a spec or arithmetic error, the items are evaluated one at a time,
    in order, so that the first failing item raises its own error (the batch
    error if none fails alone).  Every batched evaluation of the package that
    must name its first failing point or probe goes through here."""
    try:
        return evaluate(slice(None))
    except (SpecError, ArithmeticError):
        if count > 1:
            for i in range(count):
                evaluate(slice(i, i + 1))
        raise


def _inside(spec: ManifoldSpec, points) -> np.ndarray:
    """The points as a (P, n) float array, checked against the sample box as
    one array; if that check fails, point by point through
    :func:`_require_inside`, which names the first point it rejects."""
    try:
        xs = np.array(points, dtype=float)
    except (TypeError, ValueError):  # a ragged list of points
        xs = np.empty(0)
    box = np.asarray(spec.sample_box)
    if xs.ndim != 2 or xs.shape[1:] != (spec.n,) or not (
            (box[:, 0] <= xs) & (xs <= box[:, 1])).all():
        xs = np.array([_require_inside(spec, x) for x in points])
    return xs


def _base_batch(spec: ManifoldSpec, points) -> BaseJets:
    xs = _inside(spec, points)
    args = jets.seed_batch(xs, 1)
    with np.errstate(over="ignore", invalid="ignore"):  # as Python floats
        gamma, g = fields.connection_metric_args(spec, args)
    xs = tuple(map(tuple, xs.tolist()))
    bases = BaseJets(xs, gamma.coeffs.transpose(0, 4, 1, 2, 3), g.coeffs.transpose(0, 3, 1, 2))
    finite = np.all([np.isfinite(f).reshape(len(xs), -1).all(axis=1)
                     for f in (bases.gamma, bases.g)], axis=0)
    if not finite.all():
        p = int(np.argmin(finite))
        _require_finite(xs[p], "gamma", bases.gamma[p], spec.coords)
        _require_finite(xs[p], "metric", bases.g[p], spec.coords)
    return bases


def base_jets(spec: ManifoldSpec, points) -> BaseJets:
    """Gamma and g at every base point of ``points``, stacked, with the values
    in row 0 and the partial by coordinate d in row 1 + d.  The
    Hessian verdict, the two-of-four report and the Born tensors of all
    bundle points are built from them.  A value or derivative that is not
    finite is a spec error, at a point one of Gamma before one of g; the
    first failing point is named through :func:`_first_failure`."""
    points = list(points)
    return _first_failure(lambda s: _base_batch(spec, points[s]), len(points))


def hessian_verdict(bases: BaseJets, tol: float) -> Residuals:
    """The Hessian verdict's curvature, torsion and asymmetry over base-point
    fields of order 1, at ``tol``, after the metric's positivity gate at
    every point."""
    check_spd(bases.g[:, 0], bases.x)
    gamma = bases.gamma[:, 0]
    with np.errstate(over="ignore", invalid="ignore"):  # finite_maxima checks
        residuals = {
            "curvature": _curvature_of(bases.gamma),
            "torsion": _torsion_of(gamma),
            "nabla_g_asymmetry": _nabla_g_of(gamma, bases.g)[1],
        }
    return Residuals(finite_maxima(residuals, bases.x), tol)


def dual_and_levi_civita(gamma: np.ndarray, g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Values of the dual of Gamma and of the Levi-Civita connection, from
    Gamma's values and a g array of order 1 (see :func:`base_jets`), both
    with any leading stack axes, through one batched inverse of g and the
    formulas of :mod:`bornbundle.fields`."""
    gv, dg = g[..., 0, :, :], g[..., 1:, :, :]  # dg[..., l, i, j] = d_l g_ij
    ginv = fields.jet_inv(jets.JetBatch(0, 1, gv[..., None])).value
    return fields.dual_connection_of(gamma, gv, dg, ginv), fields.levi_civita_of(dg, ginv)


def two_of_four_residuals(bases: BaseJets, hessian: Residuals, tol: float) -> Residuals:
    """Torsion of the connection, torsion of its dual, asymmetry of the
    metric derivative and distance of the connection/dual mean from
    Levi-Civita, at ``tol``, over base-point fields, Gamma of any order and g
    of order 1.  The torsion and the asymmetry are the per-point maxima of
    the Hessian verdict over the same fields; the other two are computed
    here."""
    gamma = bases.gamma[:, 0]
    with np.errstate(over="ignore", invalid="ignore"):  # finite_maxima checks
        dual, lc = dual_and_levi_civita(gamma, bases.g)
        residuals = {"dual_torsion": _torsion_of(dual),
                     "mean_vs_levi_civita": 0.5 * (gamma + dual) - lc}
    worst = finite_maxima(residuals, bases.x)
    return Residuals({"torsion": hessian.per_point["torsion"],
                      "dual_torsion": worst["dual_torsion"],
                      "nabla_g_asymmetry": hessian.per_point["nabla_g_asymmetry"],
                      "mean_vs_levi_civita": worst["mean_vs_levi_civita"]}, tol)


def pattern_violated(two_of_four: Residuals) -> bool:
    """Whether exactly two or three of the four residuals hold: any two
    vanishing forces all four, so that pattern indicates an internal bug."""
    return sum(two_of_four.holds.values()) in (2, 3)
