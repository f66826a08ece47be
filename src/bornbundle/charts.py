"""Constructive affine-chart witness for flat torsion-free connections.

The chart is the exponential map at a base point: straight coordinates a
are mapped to the endpoint of the geodesic with initial velocity a,
integrated with classical fourth-order Runge-Kutta over unit time.
Derivatives of the chart map come from pushing order-2 jets through the
integrator (exact for the discrete map, unlike finite differences through
an ODE).  Success criterion: the transformed connection coefficients
vanish in the constructed chart, and so the I, J, K blocks built from them
take their constant affine-chart form.

All probes of a call are integrated together, once each, over a
``(B, n, K)`` state: B probes, n coordinates, and K jet coefficients in
the layout of :class:`bornbundle.jets.JetBatch` (the value, then the
partials by the straight coordinates in :func:`bornbundle.jets.partial_keys`
order).  A Varying acceleration (below) reads the position, so its RK4
loop advances velocity and position and checks the sample box at every
step.  A Zero or Constant one does not: the loop advances the velocity
alone, and the positions follow in chunks of at most ``DEFAULT_STEPS``
steps, in one ``(m + 1, B, n, K)`` buffer whose row 0 is the carried
position and row r + 1 step r's increment.  ``np.add.accumulate`` adds
the rows in order, one rounding per add, as ``x = x + increment`` does,
and one box check per chunk names the first step at which a probe is
outside and, at that step, the first such probe.  So the bits and errors
are those of the per-step loop, and memory does not grow with the step
count.

The witness reads both residuals from one transformed connection per
probe.  The geodesic acceleration sums only the coefficients of Gamma that
are not structurally zero (:func:`bornbundle.fields.connection_support`:
none for a flat connection, the entries other than a literal 0 for an
explicit one), each k its terms in (k, i, j) order, and is a zero jet for
a k without terms.  A skipped term is an exact +-0 jet, and adding +-0 to
a nonzero float is exact, so skipping can change only the signs of zeros;
every chart output passes through ``abs`` and ``max``, so the reports do
not change.

The acceleration takes one of three forms, chosen once per integration;
each keeps every coefficient equal to the per-probe integration over the
reference jets of ``tests/jet_reference.py`` bit for bit, signs of zeros
included:

* Zero, for a connection without support (the flat built-ins euclidean2,
  hessian-exp2 and flat-skew-metric, and the generated potential specs).
  Every stage velocity is then ``w = u + 0.0``, and u becomes w after the
  first step.  ``u + w*2`` equals ``w + w*2``, as u and w differ only
  where u is -0.0 and ``-0.0 + 0.0`` is +0.0, so every step adds the same
  increment ``(u + w*2 + w*2 + w) * (h/6)``, and every row of the scan is
  that increment.
* Constant, when every support term is an explicit expression without a
  coordinate (pullback-flat's ``-2``, every entry of the generated twisted
  specs).  Gamma is evaluated once.  If its partials are all +-0 and the
  state u is finite, each stage takes both products ``(Gamma * u^i) * u^j``
  of every term from one gathered kernel,
  :func:`bornbundle.jets._constant_products`: the split terms that
  ``Gamma * u^i`` would add are +-0 * finite = +-0.
  Any other state or Gamma takes both full products, so the NaNs of an inf
  or NaN coefficient fall where they did.
* Varying, for every other connection.  Explicit terms without a
  coordinate are evaluated once, the others and the connections derived
  from the metric over the whole batch at every stage position, in the
  per-step loop, since a domain error there must not come before the box
  exit of an earlier step.

The sums stay elementwise in a fixed order; an einsum or matmul would
round differently.

The flatness gate evaluates Gamma with its first partials at its
``GATE_POINTS`` sample points as one batch, and the probe residuals (the
transformed connection and the I, J, K blocks built from it) are computed
for all probes as one stack, by one batched inverse, stacked einsums and
stacked matmuls, each of which gives every point or probe the bits of a
call on it alone.

Errors: probe radii are checked before any integration.  The loop runs
under ``np.errstate``, since Python floats overflow to inf silently and
numpy would warn.  A box exit, a domain error or a singular Jacobian names
the first failing probe or gate point through
:func:`bornbundle.manifold._first_failure`.  The flatness gate and the
probe residuals take their maxima through
:func:`bornbundle.manifold.finite_maxima`, so a NaN or inf curvature,
torsion or residual is a spec error naming it and its point.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import expr, fields, jets
from .bundle import _constant_blocks
from .errors import SpecError
from .jets import JetBatch
from .manifold import (ManifoldSpec, _curvature_of, _first_failure, _require_inside,
                       _torsion_of, finite_maxima, halton_points, sample_fibers,
                       sample_points)

FLATNESS_GATE_TOL = 1e-7
PUSHFORWARD_TOL = 1e-6
DEFAULT_STEPS = 64
GATE_POINTS = 8  # sample points of the flatness gate


class BoxExitError(SpecError):
    """A geodesic left the sample box."""

    def __init__(self, message: str, step: int):
        super().__init__(message)
        self.step = step


class FlatnessGateError(SpecError):
    """The connection is not flat and torsion-free, so the exponential map
    is not an affine chart."""


def _connection_terms(spec: ManifoldSpec, support, order: int):
    """Gamma's coefficients on ``support``: the ``(1, T, K)`` coefficients of
    their order-``order`` jets when no term has a coordinate (their jets do
    not depend on the position), else a function from chart positions,
    ``(B, n, K)`` coefficients, to ``(B, T, K)``, evaluated over the whole
    batch.  An explicit connection evaluates its support expressions alone,
    and those without a coordinate only here, once.  If one of those fails,
    every term is evaluated at every stage, so that the first stage raises
    the error of the first failing term.  The connections derived from the
    metric go through :func:`bornbundle.fields.connection_args`."""
    n = spec.n

    def args(x):
        return [JetBatch(order, n, x[:, c]) for c in range(n)]
    if spec.connection_kind != "explicit":
        index = (slice(None), *np.array(support).T)
        return lambda x: fields.connection_args(spec, args(x), order).coeffs[index]
    asts = [spec.gamma_exprs[k][i][j] for k, i, j in support]
    fixed = [t for t, ast in enumerate(asts) if not expr.free_coordinates(ast)]
    try:
        const = fields.evaluate_all([asts[t] for t in fixed],
                                    jets.seed_batch(np.zeros((1, n)), order)).coeffs
    except (SpecError, ArithmeticError):
        fixed = []
    if len(fixed) == len(asts):
        return const
    varying = [t for t in range(len(asts)) if t not in fixed]

    def gamma(x):
        out = np.empty((len(x), len(asts), x.shape[-1]))
        if fixed:
            out[:, fixed] = const
        out[:, varying] = fields.evaluate_all([asts[t] for t in varying],
                                              args(x)).coeffs
        return out
    return gamma


def _acceleration(spec: ManifoldSpec, order: int):
    """The geodesic acceleration -Gamma^k_ij u^i u^j, as a function
    ``accel(u, x, du=None, c=0.0)`` of the velocity u at the position
    ``x + du * c`` (x itself without du), both ``(B, n, K)``; None when it
    is exactly zero, for a connection without support.  The position is
    formed only for a Gamma that reads it, and ``accel.reads_position``
    says whether it does.  The products ``(Gamma * u^i) * u^j`` of all
    support terms are formed at once, then each k sums its terms in support
    order and negates the sum; a k without terms gets +0.0.  A constant
    Gamma whose partials are all +-0 takes both products from one gathered
    kernel (see the module docstring), unless u holds a non-finite
    coefficient."""
    support = fields.connection_support(spec)
    if not support:
        return None
    gamma = _connection_terms(spec, support, order)
    n = spec.n
    # the terms in rank order: the first term of every k that has one, then
    # every second term, and so on, the k with more terms first; adding each
    # rank into the leading rows of the first sums each k in support order
    k = [kt for kt, _, _ in support]
    keys = sorted(sorted(set(k)), key=k.count, reverse=True)
    rank = [t - k.index(kt) for t, kt in enumerate(k)]
    perm = sorted(range(len(k)), key=lambda t: (rank[t], keys.index(k[t])))
    _, i, j = (tuple(c) for c in np.array(support)[perm].T.tolist())
    sizes = [rank.count(r) for r in range(max(rank) + 1)]
    later = [(size, sum(sizes[:r])) for r, size in enumerate(sizes) if r]

    def both_products(g, u):
        return jets._product_coeffs(jets._product_coeffs(g, u[:, i], order, n),
                                    u[:, j], order, n)
    if callable(gamma):
        def products(u, x, du, c):
            return both_products(gamma(x if du is None else x + du * c)[:, perm], u)
    else:
        fixed = gamma[:, perm]
        value = fixed[0, :, 0] if not np.any(fixed[..., 1:]) else None

        def products(u, x, du, c):
            if value is not None and np.isfinite(u).all():
                return jets._constant_products(u, value, i, j, order, n)
            return both_products(fixed, u)

    def accel(u, x=None, du=None, c=0.0):
        terms = products(u, x, du, c)
        total = terms[:, :sizes[0]]
        for size, start in later:
            total[:, :size] += terms[:, start:start + size]
        acc = np.zeros(u.shape)
        acc[:, keys] = -total
        return acc
    accel.reads_position = callable(gamma)
    return accel


def _check_box(positions: np.ndarray, lo, hi, step: int, steps: int) -> None:
    """Raise BoxExitError if a position of ``(m, B, n)``, those after steps
    ``step + 1`` to ``step + m``, lies outside the sample box: at the first
    of those steps where one does, naming the first such row."""
    inside = np.all((lo <= positions) & (positions <= hi), axis=-1)
    if not inside.all():
        r = int(np.argmin(inside.all(axis=1)))
        values = tuple(positions[r, int(np.argmin(inside[r]))].tolist())
        raise BoxExitError(
            f"geodesic left the sample box at step {step + r + 1}/{steps}, "
            f"position {values}", step + r + 1)


def _velocity_step(accel, u: np.ndarray, x, h: float):
    """One RK4 step of the velocity u at position x: the stage sum
    ``u + u2*2 + u3*2 + u4`` that the position advances by, times h/6, and
    the next velocity."""
    k1u = accel(u, x)
    u2 = u + k1u * (h / 2)
    k2u = accel(u2, x, u, h / 2)
    u3 = u + k2u * (h / 2)
    k3u = accel(u3, x, u2, h / 2)
    u4 = u + k3u * h
    k4u = accel(u4, x, u3, h)
    return u + u2 * 2 + u3 * 2 + u4, u + (k1u + k2u * 2 + k3u * 2 + k4u) * (h / 6)


def _rk4(spec: ManifoldSpec, x0, velocities: np.ndarray, order: int,
         steps: int) -> np.ndarray:
    """Integrate the geodesic equation over t in [0, 1] from x0 with each
    row of ``velocities`` as initial velocity.  The state holds order-
    ``order`` jets over the velocity components, as ``(B, n, K)``
    coefficients, and so are the endpoints it returns.  Raises BoxExitError
    for the first row to leave the sample box, at the first step where one
    does.  A position-free acceleration takes the chunked scan of the
    module docstring."""
    count, n = velocities.shape
    width = 1 + len(jets.partial_keys(order, n))
    x = np.zeros((count, n, width))
    x[:, :, 0] = x0
    u = np.zeros((count, n, width))
    u[:, :, 0] = velocities
    if order >= 1:
        u[:, range(n), range(1, n + 1)] = 1.0
    accel = _acceleration(spec, order)
    lo, hi = np.array(spec.sample_box, dtype=float).T
    h = 1.0 / steps
    if accel is not None and accel.reads_position:
        for step in range(steps):
            stages, u = _velocity_step(accel, u, x, h)
            x = x + stages * (h / 6)
            _check_box(x[None, :, :, 0], lo, hi, step, steps)
        return x
    if accel is None:
        w = u + 0.0
        stages = u + w * 2 + w * 2 + w
    # in-order adds, one rounding each: the bits of x = x + increment
    scan = np.empty((min(steps, DEFAULT_STEPS) + 1, count, n, width))
    for step in range(0, steps, len(scan) - 1):
        m = min(len(scan) - 1, steps - step)
        scan[0] = x
        rows = scan[1:m + 1]
        if accel is None:
            rows[...] = stages
        else:
            for r in range(m):
                rows[r], u = _velocity_step(accel, u, None, h)
        rows *= h / 6
        np.add.accumulate(scan[:m + 1], axis=0, out=scan[:m + 1])
        _check_box(rows[..., 0], lo, hi, step, steps)
        x = scan[m]
    return x.copy()


def _integrate(spec: ManifoldSpec, x0, velocities, order: int, steps: int) -> np.ndarray:
    """:func:`_rk4` over all velocities at once; the first failing one is
    named through :func:`~bornbundle.manifold._first_failure`."""
    velocities = np.array(velocities, dtype=float).reshape(len(velocities), spec.n)
    with np.errstate(over="ignore", invalid="ignore"):  # as Python floats
        return _first_failure(lambda s: _rk4(spec, x0, velocities[s], order, steps),
                              len(velocities))


def geodesic_integrate(spec: ManifoldSpec, x0, v, steps: int = DEFAULT_STEPS) -> np.ndarray:
    """Endpoint of the unit-time geodesic from x0 with initial velocity v."""
    if steps < 1:
        raise ValueError("need at least one integration step")
    x0 = tuple(float(c) for c in x0)
    if not spec.contains(x0):
        raise SpecError(f"start point {x0} lies outside the sample box")
    return _integrate(spec, x0, [v], 0, steps)[0, :, 0]


@lru_cache(maxsize=None)
def _second_columns(n: int) -> np.ndarray:
    """Coefficient column of the (i, j) partial of an order-2 jet over n
    variables, as an (n, n) table."""
    cols = jets._columns(2, n)
    return np.array([[cols[tuple(sorted((i, j)))] for j in range(n)] for i in range(n)])


@dataclass(frozen=True)
class ChartMap:
    """Forward map from straight coordinates to the original chart,
    realized by geodesic integration from ``x0``."""

    spec: ManifoldSpec
    x0: tuple
    steps: int = DEFAULT_STEPS
    radius: float = 0.0

    def point(self, a) -> np.ndarray:
        return geodesic_integrate(self.spec, self.x0, a, self.steps)

    def probe_jets(self, probes, order: int = 2) -> JetBatch:
        """Chart-map coordinates at every probe, as jets over the straight
        coordinates with batch shape (probes, n), from one integration."""
        return JetBatch(order, self.spec.n,
                        _integrate(self.spec, self.x0, probes, order, self.steps))

    def jets(self, a, order: int = 2) -> JetBatch:
        """Chart-map coordinates at a, as jets with batch shape (n,)."""
        out = self.probe_jets([a], order)
        return JetBatch(order, self.spec.n, out.coeffs[0])


def _gate_connection(spec: ManifoldSpec, points) -> np.ndarray:
    """Gamma with its first partials at the gate points, as one order-1
    batch laid out as in :func:`bornbundle.manifold.base_jets`; the first
    failing point is named through :func:`~bornbundle.manifold._first_failure`."""
    gamma = _first_failure(
        lambda s: fields.connection_args(spec, jets.seed_batch(points[s], 1), 1),
        len(points))
    return np.moveaxis(gamma.coeffs, -1, 1)


def exponential_chart(spec: ManifoldSpec, x0, steps: int = DEFAULT_STEPS,
                      seed: int = 42) -> ChartMap:
    """Build the exponential chart at x0 after checking that curvature and
    torsion vanish on sampled points (otherwise the map is not affine)."""
    if steps < 1:
        raise ValueError("need at least one integration step")
    x0 = tuple(float(c) for c in x0)
    if len(x0) != spec.n:
        raise SpecError(f"chart base point has {len(x0)} coordinates, expected {spec.n}")
    if not spec.contains(x0):
        raise SpecError(f"chart base point {x0} lies outside the sample box")
    points = [_require_inside(spec, p) for p in sample_points(spec, GATE_POINTS, seed)]
    with np.errstate(over="ignore", invalid="ignore"):  # finite_maxima checks
        gamma = _gate_connection(spec, points)
        residuals = {"curvature": _curvature_of(gamma), "torsion": _torsion_of(gamma[:, 0])}
    worst = finite_maxima(residuals, points)
    max_r, max_t = (float(np.max(m)) for m in worst.values())
    if max_r > FLATNESS_GATE_TOL or max_t > FLATNESS_GATE_TOL:
        raise FlatnessGateError(
            "exponential map is affine only for flat torsion-free connections: "
            f"max |curvature| = {max_r:.3g}, max |torsion| = {max_t:.3g} "
            f"(gate {FLATNESS_GATE_TOL:g})")
    inradius = min((hi - lo) / 2.0 for lo, hi in spec.sample_box)
    return ChartMap(spec=spec, x0=x0, steps=steps, radius=inradius / 2.0)


def _connection_values(spec: ManifoldSpec, x: np.ndarray) -> np.ndarray:
    """Gamma^k_ij at each row of positions x, ``(B, n)``, as ``(B, n, n, n)``."""
    return fields.connection_args(spec, jets.seed_batch(x, 0), 0).value


def _transformed_connections(jac: np.ndarray, sec: np.ndarray, gamma: np.ndarray,
                             probes) -> np.ndarray:
    """Connection coefficients transformed into the chart at every probe,
    from the chart map's Jacobians dx^k/da^a, its second derivatives and
    Gamma at its images, stacked along the first axis:
    Gamma'^c_ab = (da^c/dx^k) [ (dx^i/da^a)(dx^j/da^b) Gamma^k_ij
    + d2 x^k / da^a da^b ].  A singular Jacobian is a spec error naming the
    first probe that has one (:func:`~bornbundle.manifold._first_failure`)."""
    def transform(s):
        try:
            inv = np.linalg.inv(jac[s])
        except np.linalg.LinAlgError:
            raise SpecError(f"singular chart Jacobian at probe {probes[s][0]}") from None
        inner = np.einsum("pia,pjb,pkij->pkab", jac[s], jac[s], gamma[s]) + sec[s]
        return np.einsum("pck,pkab->pcab", inv, inner)
    return _first_failure(transform, len(probes))


def _block_residuals(transformed: np.ndarray, y: np.ndarray) -> np.ndarray:
    """I, J, K built from each transformed connection of the stack at fiber
    vector y, minus their constant affine-chart blocks, as (B, 3, 2n, 2n)."""
    y = np.asarray(y, dtype=float)
    n = len(y)
    e = np.tile(np.eye(2 * n), (len(transformed), 1, 1))
    e[:, n:, :n] = -np.einsum("pkij,j->pki", transformed, y)
    einv = e.copy()
    einv[:, n:, :n] = -einv[:, n:, :n]
    blocks = _constant_blocks(n)
    consts = np.stack([blocks[name] for name in "IJK"])
    return e[:, None] @ consts @ einv[:, None] - consts


def _probe_residuals(spec: ManifoldSpec, chart: ChartMap, probes,
                     y=None) -> tuple[float, float]:
    """Integrate the chart once over all probes and return the max-norm of
    the transformed connection and, at fiber vector y, the max block
    residual over the probes (0.0 when y is None)."""
    probes = [tuple(float(c) for c in a) for a in probes]
    for a in probes:
        if float(np.linalg.norm(a)) > chart.radius + 1e-12:
            raise ValueError(
                f"probe {a} lies beyond the chart validity radius {chart.radius:g}")
    cj = chart.probe_jets(probes, order=2).coeffs
    n = spec.n
    with np.errstate(over="ignore", invalid="ignore"):  # finite_maxima checks
        transformed = _transformed_connections(
            cj[:, :, 1:n + 1], cj[:, :, _second_columns(n)],
            _connection_values(spec, cj[:, :, 0]), probes)
        stacks = {"pushforward_connection": transformed}
        if y is not None:
            stacks["born_block"] = _block_residuals(transformed, y)
    worst = finite_maxima(stacks, probes)
    return (float(np.max(worst["pushforward_connection"])),
            float(np.max(worst.get("born_block", 0.0))))


def pushforward_connection_residual(spec: ManifoldSpec, chart: ChartMap,
                                    probes) -> float:
    """Max-norm of the connection coefficients transformed into the chart
    over the probes."""
    return _probe_residuals(spec, chart, probes)[0]


def affine_chart_witness(spec: ManifoldSpec, x0, probes: int, fiber_radius: float,
                         steps: int = DEFAULT_STEPS, seed: int = 42) -> dict:
    """Build the exponential chart at x0 and check, at ``probes`` Halton
    probes inside its validity radius, that the transformed connection and
    the I, J, K blocks at the first sampled fiber vector take their affine
    form; probes and fiber radius are checked before the flatness gate."""
    if probes < 1:
        raise ValueError("need at least one chart probe")
    fiber = sample_fibers(spec.n, 1, fiber_radius, seed)[0]
    chart = exponential_chart(spec, x0, steps=steps, seed=seed)
    # the cube of half-width r/2 lies in the ball of radius r only for n <= 4
    scale = chart.radius * min(1.0, 2.0 / math.sqrt(spec.n))
    points = [tuple(scale * (2 * u - 1) / 2) for u in halton_points(probes, spec.n, seed)]
    push, blocks = _probe_residuals(spec, chart, points, fiber)
    return {
        "base_point": list(chart.x0),
        "radius": chart.radius,
        "steps": chart.steps,
        "probes": probes,
        "pushforward_residual": push,
        "born_block_residual": blocks,
        "witnessed": bool(push <= PUSHFORWARD_TOL and blocks <= PUSHFORWARD_TOL),
    }
