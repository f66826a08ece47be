"""Constructive affine-chart witness for flat torsion-free connections.

The chart is the exponential map at a base point: straight coordinates a
are mapped to the endpoint of the geodesic with initial velocity a,
integrated with classical fourth-order Runge-Kutta over unit time.
Derivatives of the chart map come from pushing order-2 jets through the
integrator (exact for the discrete map, unlike finite differences through
an ODE).  Success criterion: the transformed connection coefficients
vanish in the constructed chart, and so the I, J, K blocks built from them
take their constant affine-chart form.

All probes of a call are integrated together, once each, by one RK4
loop over a ``(B, n, K)`` state: B probes, n coordinates, and K jet
coefficients in the layout of :class:`bornbundle.jets.JetBatch` (the
value, then the partials by the straight coordinates in
:func:`bornbundle.jets.partial_keys` order).  The witness reads both
residuals from one transformed connection per probe.  The geodesic
acceleration sums only the coefficients of Gamma that are not structurally
zero (:func:`bornbundle.fields.connection_support`: none for a flat
connection, the entries other than a literal 0 for an explicit one), in
(k, i, j) order, and is a zero jet for a k without terms.  A skipped term
is an exact +-0 jet, and adding +-0 to a nonzero float is exact, so
skipping can change only the signs of zeros; every chart output passes
through ``abs`` and ``max``, so the reports do not change.  An explicit
Gamma is evaluated over the whole batch; the connections derived from the
metric are evaluated row by row on Jets.  Every coefficient equals the
per-probe Jet integration bit for bit.

Errors: probe radii are checked before any integration.  The loop runs
under ``np.errstate``, since Python floats overflow to inf silently and
numpy would warn.  If any probe fails (it leaves the box, or Gamma meets a
domain error), the probes are integrated again one at a time, in order,
and the first failure is raised.  The flatness gate and the probe
residuals take their maxima through
:func:`bornbundle.manifold.finite_maxima`, so a NaN or inf curvature,
torsion or residual is a spec error naming it and its point.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import expr, fields, jets
from .bundle import _constant_blocks
from .errors import SpecError
from .jets import Jet, JetBatch
from .manifold import (ManifoldSpec, curvature_at, finite_maxima, halton_points,
                       sample_fibers, sample_points, torsion_at)

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
    """Gamma's coefficients on ``support`` as a function of chart positions:
    coefficients ``(B, n, K)`` of order-``order`` jets to ``(B, T, K)``.
    An explicit connection evaluates each support expression once over the
    whole batch; the connections derived from the metric evaluate row by
    row, through :func:`bornbundle.fields.connection_args` on Jets."""
    n = spec.n
    if spec.connection_kind == "explicit":
        asts = [spec.gamma_exprs[k][i][j] for k, i, j in support]

        def terms(x):
            args = [JetBatch(order, n, x[:, c]) for c in range(n)]
            out = np.empty((len(x), len(asts), x.shape[-1]))
            for t, ast in enumerate(asts):
                out[:, t] = jets.coefficients(expr.evaluate(ast, args))
            return out
        return terms
    keys = jets.partial_keys(order, n)

    def terms(x):
        out = np.empty((len(x), len(support), x.shape[-1]))
        for b, row in enumerate(x):
            args = [Jet(order, n, c[0], dict(zip(keys, c[1:].tolist()))) for c in row]
            gamma = fields.connection_args(spec, args, order)
            out[b] = [jets.coefficients(gamma[kij]) for kij in support]
        return out
    return terms


def _acceleration(spec: ManifoldSpec, order: int):
    """The geodesic acceleration -Gamma^k_ij u^i u^j as a function of the
    state (x, u), both ``(B, n, K)``.  The products ``(Gamma * u^i) * u^j``
    of all support terms are formed at once, then each k sums its terms in
    support order; a k without terms gets a zero jet."""
    support = fields.connection_support(spec)
    if not support:
        return lambda x, u: np.zeros(u.shape)
    gamma_of = _connection_terms(spec, support, order)
    n, count = spec.n, len(support)
    _, i, j = np.array(support).T
    # each k's terms, padded with slot `count`, which holds -0.0: adding
    # -0.0 leaves every float as it is, signed zeros included
    rows = [[t for t, kij in enumerate(support) if kij[0] == k] for k in range(n)]
    width = max(len(r) for r in rows)
    table = np.array([r + [count] * (width - len(r)) for r in rows])

    def accel(x, u):
        terms = np.full((len(x), count + 1, x.shape[-1]), -0.0)
        gu = jets._product_coeffs(gamma_of(x), u[:, i], order, n)
        terms[:, :count] = jets._product_coeffs(gu, u[:, j], order, n)
        picked = terms[:, table]
        acc = picked[:, :, 0]
        for p in range(1, width):
            acc = acc + picked[:, :, p]
        return -acc
    return accel


def _rk4(spec: ManifoldSpec, x0, velocities: np.ndarray, order: int,
         steps: int) -> np.ndarray:
    """Integrate the geodesic equation over t in [0, 1] from x0 with each
    row of ``velocities`` as initial velocity.  The state holds order-
    ``order`` jets over the velocity components, as ``(B, n, K)``
    coefficients, and so are the endpoints it returns.  Raises BoxExitError
    for the first row to leave the sample box, at the first step where one
    does."""
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
    for step in range(steps):
        k1u = accel(x, u)
        x2, u2 = x + u * (h / 2), u + k1u * (h / 2)
        k2u = accel(x2, u2)
        x3, u3 = x + u2 * (h / 2), u + k2u * (h / 2)
        k3u = accel(x3, u3)
        x4, u4 = x + u3 * h, u + k3u * h
        k4u = accel(x4, u4)
        x = x + (u + u2 * 2 + u3 * 2 + u4) * (h / 6)
        u = u + (k1u + k2u * 2 + k3u * 2 + k4u) * (h / 6)
        inside = np.all((lo <= x[:, :, 0]) & (x[:, :, 0] <= hi), axis=1)
        if not inside.all():
            values = tuple(x[int(np.argmin(inside)), :, 0].tolist())
            raise BoxExitError(
                f"geodesic left the sample box at step {step + 1}/{steps}, "
                f"position {values}", step + 1)
    return x


def _integrate(spec: ManifoldSpec, x0, velocities, order: int, steps: int) -> np.ndarray:
    """:func:`_rk4` over all velocities at once.  If any of them fails (a
    box exit or a domain error), they are integrated again one at a time,
    in order, so that the first one's failure is raised."""
    velocities = np.array(velocities, dtype=float).reshape(len(velocities), spec.n)
    with np.errstate(over="ignore", invalid="ignore"):  # as Python floats
        if len(velocities) > 1:
            try:
                return _rk4(spec, x0, velocities, order, steps)
            except (SpecError, ArithmeticError):
                pass
        return np.concatenate([_rk4(spec, x0, v[None], order, steps)
                               for v in velocities])


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

    def jacobian(self, a) -> np.ndarray:
        return self.jets(a, order=1).coeffs[:, 1:]

    def second_derivatives(self, a) -> np.ndarray:
        return self.jets(a, order=2).coeffs[:, _second_columns(self.spec.n)]


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
    points = [tuple(p) for p in sample_points(spec, GATE_POINTS, seed).tolist()]
    with np.errstate(over="ignore", invalid="ignore"):  # finite_maxima checks
        residuals = {"curvature": [curvature_at(spec, p) for p in points],
                     "torsion": [torsion_at(spec, p) for p in points]}
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
    n = spec.n
    out = np.zeros((len(x), n, n, n))
    support = fields.connection_support(spec)
    if support:
        terms = _connection_terms(spec, support, 0)(x[:, :, None])
        out[(slice(None), *np.array(support).T)] = terms[:, :, 0]
    return out


def _transformed_connection(jac: np.ndarray, sec: np.ndarray, gamma: np.ndarray,
                            a) -> np.ndarray:
    """Connection coefficients transformed into the chart at probe a, from
    the chart map's Jacobian dx^k/da^a, its second derivatives and Gamma at
    its image: Gamma'^c_ab = (da^c/dx^k) [ (dx^i/da^a)(dx^j/da^b) Gamma^k_ij
    + d2 x^k / da^a da^b ]."""
    try:
        inv = np.linalg.inv(jac)
    except np.linalg.LinAlgError:
        raise SpecError(f"singular chart Jacobian at probe {a}") from None
    inner = np.einsum("ia,jb,kij->kab", jac, jac, gamma) + sec
    return np.einsum("ck,kab->cab", inv, inner)


def _block_residual(transformed: np.ndarray, y: np.ndarray) -> np.ndarray:
    """I, J, K built from a transformed connection at fiber vector y, minus
    their constant affine-chart blocks, as a (3, 2n, 2n) stack."""
    y = np.asarray(y, dtype=float)
    n = len(y)
    e = np.eye(2 * n)
    e[n:, :n] = -np.einsum("kij,j->ki", transformed, y)
    einv = e.copy()
    einv[n:, :n] = -einv[n:, :n]
    consts = _constant_blocks(n)
    return np.stack([e @ consts[name] @ einv - consts[name] for name in "IJK"])


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
        gamma = _connection_values(spec, cj[:, :, 0])
        transformed = [_transformed_connection(*parts, a) for *parts, a in
                       zip(cj[:, :, 1:n + 1], cj[:, :, _second_columns(n)], gamma,
                           probes)]
        stacks = {"pushforward_connection": transformed}
        if y is not None:
            stacks["born_block"] = [_block_residual(t, y) for t in transformed]
    worst = finite_maxima(stacks, probes)
    return (float(np.max(worst["pushforward_connection"])),
            float(np.max(worst.get("born_block", 0.0))))


def pushforward_connection_residual(spec: ManifoldSpec, chart: ChartMap,
                                    probes) -> float:
    """Max-norm of the connection coefficients transformed into the chart
    over the probes."""
    return _probe_residuals(spec, chart, probes)[0]


def chart_born_block_residual(spec: ManifoldSpec, chart: ChartMap, a, y) -> float:
    """Distance of the I, J, K built from the transformed connection at a
    chart probe from their constant affine-chart blocks."""
    return _probe_residuals(spec, chart, [a], y)[1]


def affine_chart_witness(spec: ManifoldSpec, x0, probes: int, fiber_radius: float,
                         steps: int = DEFAULT_STEPS, seed: int = 42) -> dict:
    """Build the exponential chart at x0 and check, at ``probes`` Halton
    probes inside its validity radius, that the transformed connection and
    the I, J, K blocks at the first sampled fiber vector take their affine
    form."""
    chart = exponential_chart(spec, x0, steps=steps, seed=seed)
    if probes < 1:
        raise ValueError("need at least one chart probe")
    unit = halton_points(probes, spec.n, seed)
    points = [tuple(chart.radius * (2 * u - 1) / 2) for u in unit]
    fiber = sample_fibers(spec.n, 1, fiber_radius, seed)[0]
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
