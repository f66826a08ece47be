"""Constructive affine-chart witness for flat torsion-free connections.

The chart is the exponential map at a base point: straight coordinates a
are mapped to the endpoint of the geodesic with initial velocity a,
integrated with classical fourth-order Runge-Kutta over unit time.
Derivatives of the chart map come from pushing order-2 jets through the
integrator (exact for the discrete map, unlike finite differences through
an ODE).  Success criterion: the connection coefficients transformed
into the constructed chart vanish.  That is all the chart has to show; the
Born side of the theorem, I, J, K and omega on TM, is checked by the sweep
of :mod:`bornbundle.integrability`.

The measurement, :func:`chart_witness`, takes a built chart, whose
validity radius the sample box fixes.  The ``affine-chart`` command goes
through :func:`affine_chart_witness`: its argument checks, then
:func:`exponential_chart`, whose flatness gate samples ``GATE_POINTS``
points of its own.  ``check`` builds the :class:`ChartMap` at the box
center and calls :func:`chart_witness` with no gate: its sweep's
Hessian verdict has already found the curvature and torsion within the
gate at every point of its own sample, so Gamma is evaluated at those
points once.

All probes of a call are integrated together, once each, over a
``(B, n, K)`` state: B probes, n coordinates, and K jet coefficients in
the layout of :class:`bornbundle.jets.JetBatch` (the value, then the
partials by the straight coordinates in :func:`bornbundle.jets.partial_keys`
order).  The velocity advances in RK4 steps, and the positions follow in
chunks of m steps, in one ``(m + 1, B, n, K)`` buffer whose row 0 is the
carried position and row r + 1 step r's increment.  ``np.add.accumulate``
adds the rows in order, one rounding per add, as ``x = x + increment``
does, and one box check per chunk names the first step at which a probe
is outside and, at that step, the first such probe.  A chunk is
``DEFAULT_STEPS`` steps (fewer at the end) for a uniform acceleration,
which never reads the position, and one step for every other, so that a
domain error of a Gamma evaluated at the stage positions cannot come
before the box exit of an earlier step.  So the bits and errors are those
of a loop that adds one increment per step and checks the box after it,
and memory does not grow with the step count.

The witness's one residual is the connection transformed into the chart
at each probe.  The geodesic acceleration sums only the coefficients of
Gamma that are not structurally zero (:func:`bornbundle.fields.connection_support`:
none for a flat connection, the entries other than a literal 0 for an
explicit one).  One ``np.add.at`` adds each term into its k in support
order, which is (k, i, j) order, onto an array of -0.0, the exact
additive identity, signs of zeros included, and the sum is negated; a k
without terms is a +0.0 jet.  A skipped term is an exact +-0 jet, and adding +-0
to a nonzero float is exact, so skipping can change only the signs of
zeros; every chart output passes through ``abs`` and ``max``, so the
reports do not change.

Every connection kind gives Gamma on one path: one
:func:`bornbundle.fields.connection_args` over the whole batch, from whose
n^3 coefficients the support terms are gathered once, in the order the
acceleration sums them.  Gamma is evaluated once per integration when it
is an explicit grid without a coordinate (pullback-flat's ``-2``, every
entry of the generated twisted specs), and at every stage position
otherwise.  Either way an evaluation of the acceleration takes both jet
products ``(Gamma * u^i) * u^j`` of the support terms only.

The integrator takes one of two forms, chosen once per integration; each
keeps every coefficient equal to the per-probe integration over the
reference jets of ``tests/jet_reference.py`` bit for bit, signs of zeros
included:

* Uniform, when the acceleration cannot change along the integration:
  Gamma has no support (the flat built-ins euclidean2, hessian-exp2 and
  flat-skew-metric, and the generated potential specs), or it is
  constant and no velocity component that a term reads (its i and j) is
  one that a term writes (its k): pullback-flat's only term reads u^0 and
  writes u^1, and every twisted term reads u^0 and writes a later one.
  The acceleration's rows that no term writes are +0.0, so the components
  it reads only ever gain +0.0: there the first stage reads u0, and every
  later stage u0 + 0.0 (a -0.0 turns +0.0, nothing else changes), so every
  later stage has the acceleration a of the second, at u0 + k1*(h/2).
  k1 and a are the only evaluations.  After step 0 the velocity gains
  the same ``d = (a + a*2 + a*2 + a)*(h/6)`` each step, the velocities of
  a chunk are one in-order ``np.add.accumulate`` of the carried velocity
  and copies of d, and each step's ``u + u2*2 + u3*2 + u4``, with ``u2 =
  u3 = u + a*(h/2)`` and ``u4 = u + a*h`` (step 0's u2 from k1), is
  formed over the whole chunk at once.  When adding d leaves the bits of
  the velocity after step 0 unchanged (a zero acceleration), every later
  step has the row of step 1, formed once.
* Per stage, for every other connection: the four stages of every step in
  turn, one step per chunk, each stage's acceleration at its position.  A
  constant Gamma that is not uniform (``scripts/specs``'s pullback-chain3)
  is evaluated once and does not read the positions.

The sums stay elementwise in a fixed order; an einsum or matmul would
round differently.

The flatness gate evaluates Gamma with its first partials at its
``GATE_POINTS`` sample points as one batch, and the transformed
connections are computed for all probes as one stack, by one batched
inverse and stacked einsums, each of which gives every point or probe the
bits of a call on it alone.  The gate points are checked against the box
as one array, and the probes are placed by one array expression over the
Halton points.

Errors: the step count is checked in one place, :class:`ChartMap`,
through which every integration goes; :func:`exponential_chart` builds
its chart right after checking the base point, before the gate.  Probe
radii are checked before any integration, and a probe beyond the radius
is an internal fault (:class:`bornbundle.errors.InternalError`), since
the witness places its probes inside it.  The loop runs
under ``np.errstate``, since Python floats overflow to inf silently and
numpy would warn.  A box exit, a domain error or a singular Jacobian names
the first failing probe or gate point through
:func:`bornbundle.manifold._first_failure`.  The flatness gate and the
probe residual are each one :class:`~bornbundle.manifold.Residuals`
record, reduced through :func:`bornbundle.manifold.finite_maxima`, so a
NaN or inf curvature, torsion or residual is a spec error naming it and
its point.  The gate,
the witness's tolerance and the probe-radius slack are in the thresholds
table of :mod:`bornbundle.manifold`.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import fields, jets
from .errors import InternalError, SpecError
from .jets import JetBatch
from .manifold import (FLATNESS_GATE_TOL, PROBE_RADIUS_SLACK, PUSHFORWARD_TOL,
                       ManifoldSpec, Residuals, _curvature_of, _first_failure, _inside,
                       _require_inside, _torsion_of, finite_maxima, halton_points, sample_points)

DEFAULT_STEPS = 64
GATE_POINTS = 8  # sample points of the flatness gate


class BoxExitError(SpecError):
    """A geodesic left the sample box."""


class FlatnessGateError(SpecError):
    """The connection is not flat and torsion-free, so the exponential map
    is not an affine chart."""


def _connection_terms(spec: ManifoldSpec, support, order: int):
    """Gamma's coefficients on ``support``, in its order: the ``(1, T, K)``
    coefficients of their order-``order`` jets, evaluated once, when Gamma
    is an explicit grid without a coordinate (its jets do not depend on the
    position), else a function from chart positions, ``(B, n, K)``
    coefficients, to ``(B, T, K)``.  Either way Gamma comes from one
    :func:`bornbundle.fields.connection_args` over the batch, and the
    support is gathered from its n^3 coefficients once."""
    n = spec.n
    index = np.array([(k * n + i) * n + j for k, i, j in support])

    def gamma(x):
        args = [JetBatch(order, n, x[:, c]) for c in range(n)]
        return fields.connection_args(spec, args).coeffs.reshape(len(x), n ** 3, -1)[:, index]
    if spec.connection_kind == "explicit" and not any(spec.gamma_exprs.free):
        return gamma(np.zeros((1, n, len(jets._columns(order, n)))))
    return gamma


def _acceleration(spec: ManifoldSpec, order: int):
    """The geodesic acceleration -Gamma^k_ij u^i u^j, as a function
    ``accel(u, x)`` of the velocity u at the position x, both ``(B, n, K)``;
    a constant Gamma does not read x.  ``accel.uniform`` says whether the
    acceleration cannot change along the integration (see the module
    docstring): Gamma has no support, or it is constant and no component
    that a term reads (its i and j) is one that a term writes (its k).  The
    support terms are gathered by :func:`_connection_terms` in support
    order and their products ``(Gamma * u^i) * u^j`` formed at once; one
    ``np.add.at``, which adds repeated indices in index order, sums each
    k's terms in support order from -0.0, and the sum is negated, so a k
    without terms gets +0.0."""
    support = fields.connection_support(spec)
    if not support:
        def zero(u, x):
            return np.zeros(u.shape)
        zero.uniform = True
        return zero
    n = spec.n
    k, i, j = zip(*support)
    gamma = _connection_terms(spec, support, order)
    fixed = None if callable(gamma) else gamma

    def accel(u, x):
        g = gamma(x) if fixed is None else fixed
        terms = jets._product_coeffs(jets._product_coeffs(g, u[:, i], order, n),
                                     u[:, j], order, n)
        acc = np.full(u.shape, -0.0)
        np.add.at(acc, (slice(None), k), terms)
        return np.negative(acc, out=acc)
    accel.uniform = fixed is not None and not set(k) & {*i, *j}
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
            f"position {values}")


def _stage_rows(accel, u, h: float):
    """The RK4 loop, one stage at a time: a function that advances the
    velocity u by the one step of ``rows``, ``(1, B, n, K)``, writing its
    ``u + u2*2 + u3*2 + u4`` into the row.  The stages after the first take
    the acceleration at ``x + u*(h/2)``, ``x + u2*(h/2)`` and ``x + u3*h``
    from the carried position x."""
    def fill(rows, x):
        nonlocal u
        k1u = accel(u, x)
        u2 = u + k1u * (h / 2)
        k2u = accel(u2, x + u * (h / 2))
        u3 = u + k2u * (h / 2)
        k3u = accel(u3, x + u2 * (h / 2))
        u4 = u + k3u * h
        k4u = accel(u4, x + u3 * h)
        rows[0] = u + u2 * 2 + u3 * 2 + u4
        u = u + (k1u + k2u * 2 + k3u * 2 + k4u) * (h / 6)
    return fill


def _uniform_rows(accel, u, x, h: float, chunk: int):
    """The rows of :func:`_stage_rows` for a uniform acceleration, a chunk
    of at most ``chunk`` steps at a time, from two evaluations: k1 at u, and
    a, which every later stage takes, at ``u + k1*(h/2)``.  The velocities
    of a chunk come from one ``np.add.accumulate``, and its rows from
    elementwise operations over the whole chunk (see the module
    docstring)."""
    k1 = accel(u, x)
    a = accel(u + k1 * (h / 2), x)
    half, full = a * (h / 2), a * h

    def stages(v):  # v + u2*2 + u3*2 + u4, u2 = u3 = v + a*(h/2), u4 = v + a*h
        w2 = (v + half) * 2
        return v + w2 + w2 + (v + full)
    first = u + (u + k1 * (h / 2)) * 2 + (u + half) * 2 + (u + full)
    u1 = u + (k1 + a * 2 + a * 2 + a) * (h / 6)
    d = (a + a * 2 + a * 2 + a) * (h / 6)
    if np.array_equal((u1 + d).view(np.uint64), u1.view(np.uint64)):
        steady = stages(u1)  # the row of every step after step 0
    else:
        steady = None
        # row 0 the carried velocity, the others d
        carried = np.empty((chunk + 1, *u.shape))
        carried[0], carried[1:] = u1, d
        velocity = np.empty(carried.shape)
        velocity[0] = u
    at_start = True

    def fill(rows, x):
        nonlocal at_start
        m = len(rows)
        if steady is not None:
            rows[...] = steady
        else:
            if at_start:  # u0, then u1, u1 + d, ...
                np.add.accumulate(carried[:m], axis=0, out=velocity[1:m + 1])
            else:
                carried[0] = velocity[chunk]
                np.add.accumulate(carried[:m + 1], axis=0, out=velocity[:m + 1])
            rows[...] = stages(velocity[:m])
        if at_start:
            rows[0], at_start = first, False
    return fill


def _rk4(spec: ManifoldSpec, x0, velocities: np.ndarray, order: int,
         steps: int) -> np.ndarray:
    """Integrate the geodesic equation over t in [0, 1] from x0 with each
    row of ``velocities`` as initial velocity.  The state holds order-
    ``order`` jets over the velocity components, as ``(B, n, K)``
    coefficients, and so are the endpoints it returns.  Raises BoxExitError
    for the first row to leave the sample box, at the first step where one
    does.  The positions follow in the chunked scan of the module
    docstring."""
    u = np.stack([s.coeffs for s in jets.seed_batch(velocities, order)], axis=1)
    x = np.zeros(u.shape)
    x[:, :, 0] = x0
    accel = _acceleration(spec, order)
    lo, hi = np.array(spec.sample_box, dtype=float).T
    h = 1.0 / steps
    # whole chunks for a uniform acceleration; else one step per chunk, whose
    # stages read the carried position, row 0
    chunk = min(steps, DEFAULT_STEPS) if accel.uniform else 1
    fill = (_uniform_rows(accel, u, x, h, chunk) if accel.uniform
            else _stage_rows(accel, u, h))
    # in-order adds, one rounding each: the bits of x = x + increment
    scan = np.empty((chunk + 1, *u.shape))
    for step in range(0, steps, chunk):
        m = min(chunk, steps - step)
        scan[0] = x
        x, rows = scan[0], scan[1:m + 1]
        fill(rows, x)
        rows *= h / 6
        np.add.accumulate(scan[:m + 1], axis=0, out=scan[:m + 1])
        _check_box(rows[..., 0], lo, hi, step, steps)
        x = scan[m]
    return x.copy()


def _integrate(spec: ManifoldSpec, x0, velocities, order: int, steps: int) -> np.ndarray:
    """:func:`_rk4` over all velocities at once, after checking the start
    point and the velocities' dimension; the first failing one is named
    through :func:`~bornbundle.manifold._first_failure`."""
    x0 = _require_inside(spec, x0, "start point")
    for v in velocities:
        if np.size(v) != spec.n:
            raise ValueError(f"velocity {tuple(np.ravel(v).tolist())} has {np.size(v)} "
                             f"components, expected {spec.n}")
    velocities = np.array(velocities, dtype=float).reshape(len(velocities), spec.n)
    with np.errstate(over="ignore", invalid="ignore"):  # as Python floats
        return _first_failure(lambda s: _rk4(spec, x0, velocities[s], order, steps),
                              len(velocities))


@lru_cache(maxsize=None)
def _second_columns(n: int) -> np.ndarray:
    """Coefficient column of the (i, j) partial of an order-2 jet over n
    variables, as an (n, n) table."""
    cols = jets._columns(2, n)
    return np.array([[cols[tuple(sorted((i, j)))] for j in range(n)] for i in range(n)])


@dataclass(frozen=True)
class ChartMap:
    """Forward map from straight coordinates to the original chart,
    realized by geodesic integration from ``x0``; probes lie within its
    :attr:`radius`, which the spec's sample box fixes."""

    spec: ManifoldSpec
    x0: tuple
    steps: int = DEFAULT_STEPS

    def __post_init__(self):
        if self.steps < 1:
            raise ValueError("need at least one integration step")

    @property
    def radius(self) -> float:
        """The validity radius of the probes: half the inradius of the
        sample box."""
        return min((hi - lo) / 2.0 for lo, hi in self.spec.sample_box) / 2.0

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
        lambda s: fields.connection_args(spec, jets.seed_batch(points[s], 1)),
        len(points))
    return np.moveaxis(gamma.coeffs, -1, 1)


def exponential_chart(spec: ManifoldSpec, x0, steps: int = DEFAULT_STEPS,
                      seed: int = 42) -> ChartMap:
    """Build the exponential chart at x0 after checking that curvature and
    torsion vanish on sampled points (otherwise the map is not affine)."""
    chart = ChartMap(spec, _require_inside(spec, x0, "chart base point"), steps)
    points = [tuple(p) for p in _inside(spec, sample_points(spec, GATE_POINTS, seed)).tolist()]
    with np.errstate(over="ignore", invalid="ignore"):  # finite_maxima checks
        gamma = _gate_connection(spec, points)
        residuals = {"curvature": _curvature_of(gamma), "torsion": _torsion_of(gamma[:, 0])}
    gate = Residuals(finite_maxima(residuals, points), FLATNESS_GATE_TOL)
    if not gate.within:
        raise FlatnessGateError(
            "exponential map is affine only for flat torsion-free connections: "
            f"max |curvature| = {gate.maxima['curvature']:.3g}, "
            f"max |torsion| = {gate.maxima['torsion']:.3g} (gate {gate.tol:g})")
    return chart


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


def _probe_residuals(chart: ChartMap, probes) -> Residuals:
    """Integrate the chart once over all probes and return, at
    ``PUSHFORWARD_TOL``, the connection of ``chart.spec`` transformed into
    it, per probe."""
    probes = [tuple(float(c) for c in a) for a in probes]
    for a in probes:
        if float(np.linalg.norm(a)) > chart.radius + PROBE_RADIUS_SLACK:
            raise InternalError(
                f"probe {a} lies beyond the chart validity radius {chart.radius:g}")
    cj = chart.probe_jets(probes, order=2).coeffs
    n = chart.spec.n
    with np.errstate(over="ignore", invalid="ignore"):  # finite_maxima checks
        transformed = _transformed_connections(
            cj[:, :, 1:n + 1], cj[:, :, _second_columns(n)],
            fields.connection_args(chart.spec, jets.seed_batch(cj[:, :, 0], 0)).value, probes)
    return Residuals(finite_maxima({"pushforward_connection": transformed}, probes),
                     PUSHFORWARD_TOL)


def chart_witness(chart: ChartMap, probes: int, seed: int) -> dict:
    """Check, at ``probes`` (at least one) Halton probes inside the chart's
    validity radius, that the connection transformed into the chart
    vanishes.  The chart is not gated here: its caller has found the
    connection flat and torsion-free."""
    n = chart.spec.n
    # the cube of half-width r/2 lies in the ball of radius r only for n <= 4
    scale = chart.radius * min(1.0, 2.0 / math.sqrt(n))
    points = (scale * (2 * halton_points(probes, n, seed) - 1) / 2).tolist()
    witness = _probe_residuals(chart, points)
    return {
        "base_point": list(chart.x0),
        "radius": chart.radius,
        "steps": chart.steps,
        "probes": probes,
        "pushforward_residual": witness.maxima["pushforward_connection"],
        "witnessed": witness.within,
    }


def affine_chart_witness(spec: ManifoldSpec, x0, probes: int,
                         steps: int = DEFAULT_STEPS, seed: int = 42) -> dict:
    """:func:`chart_witness` of the exponential chart at x0, after the
    chart's flatness gate; the probe count is checked before the gate."""
    if probes < 1:
        raise ValueError("need at least one chart probe")
    return chart_witness(exponential_chart(spec, x0, steps=steps, seed=seed),
                         probes, seed)
