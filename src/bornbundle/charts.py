"""Constructive affine-chart witness for flat torsion-free connections.

The chart is the exponential map at a base point: straight coordinates a
are mapped to the endpoint of the geodesic with initial velocity a,
integrated with classical fourth-order Runge-Kutta over unit time.
Derivatives of the chart map come from pushing order-2 jets through the
integrator (exact for the discrete map, unlike finite differences through
an ODE).  Success criterion: the transformed connection coefficients
vanish in the constructed chart, and so the I, J, K blocks built from them
take their constant affine-chart form.

Each probe is integrated once: the witness reads both residuals from one
transformed connection per probe.  The geodesic acceleration sums only the
coefficients of Gamma that are not structurally zero
(:func:`bornbundle.fields.connection_support`: none for a flat connection,
the entries other than a literal 0 for an explicit one), in (k, i, j)
order, and is a constant zero jet for a k without terms.  A skipped term is
an exact +-0 jet, and adding +-0 to a nonzero float is exact, so skipping
can change only the signs of zeros; every chart output passes through
``abs`` and ``max``, so the reports do not change.  The flatness gate and
the probe residuals take their maxima through
:func:`bornbundle.manifold.finite_maxima`, so a NaN or inf curvature,
torsion or residual is a spec error naming it and its point.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import fields, jets
from .bundle import _constant_blocks
from .errors import SpecError
from .jets import Jet
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


def _acceleration(spec: ManifoldSpec, support, x, u):
    """-Gamma^k_ij u^i u^j, summed in (k, i, j) order over the support only;
    a k without terms gets a constant zero jet."""
    sums = [None] * spec.n
    for (k, i, j), gamma in fields.connection_terms(spec, list(x), x[0].order,
                                                    support):
        term = gamma * u[i] * u[j]
        sums[k] = term if sums[k] is None else sums[k] + term
    zero = Jet.constant(0.0, x[0].order, x[0].nvars)
    return [zero if s is None else -s for s in sums]


def _rk4(spec: ManifoldSpec, x, u, steps: int):
    """Integrate the geodesic equation over t in [0, 1]; state entries are
    jets, so derivative seeds ride through for free."""
    h = 1.0 / steps
    n = spec.n
    support = fields.connection_support(spec)
    for step in range(steps):
        k1x, k1u = u, _acceleration(spec, support, x, u)
        x2 = [x[i] + k1x[i] * (h / 2) for i in range(n)]
        u2 = [u[i] + k1u[i] * (h / 2) for i in range(n)]
        k2x, k2u = u2, _acceleration(spec, support, x2, u2)
        x3 = [x[i] + k2x[i] * (h / 2) for i in range(n)]
        u3 = [u[i] + k2u[i] * (h / 2) for i in range(n)]
        k3x, k3u = u3, _acceleration(spec, support, x3, u3)
        x4 = [x[i] + k3x[i] * h for i in range(n)]
        u4 = [u[i] + k3u[i] * h for i in range(n)]
        k4x, k4u = u4, _acceleration(spec, support, x4, u4)
        x = [x[i] + (k1x[i] + k2x[i] * 2 + k3x[i] * 2 + k4x[i]) * (h / 6)
             for i in range(n)]
        u = [u[i] + (k1u[i] + k2u[i] * 2 + k3u[i] * 2 + k4u[i]) * (h / 6)
             for i in range(n)]
        values = [c.value for c in x]
        if not spec.contains(values):
            raise BoxExitError(
                f"geodesic left the sample box at step {step + 1}/{steps}, "
                f"position {tuple(values)}", step + 1)
    return x


def geodesic_integrate(spec: ManifoldSpec, x0, v, steps: int = DEFAULT_STEPS) -> np.ndarray:
    """Endpoint of the unit-time geodesic from x0 with initial velocity v."""
    if steps < 1:
        raise ValueError("need at least one integration step")
    x0 = tuple(float(c) for c in x0)
    if not spec.contains(x0):
        raise SpecError(f"start point {x0} lies outside the sample box")
    n = spec.n
    x = [Jet.constant(c, 0, n) for c in x0]
    u = [Jet.constant(float(c), 0, n) for c in v]
    end = _rk4(spec, x, u, steps)
    return np.array([c.value for c in end])


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

    def jets(self, a, order: int = 2) -> list[Jet]:
        """Chart-map coordinates as jets over the straight coordinates."""
        n = self.spec.n
        x = [Jet.constant(c, order, n) for c in self.x0]
        u = jets.seed_embedded(a, order, n, 0)
        return _rk4(self.spec, x, u, self.steps)

    def jacobian(self, a) -> np.ndarray:
        out = self.jets(a, order=1)
        n = self.spec.n
        return np.array([[out[k].partial(i) for i in range(n)] for k in range(n)])

    def second_derivatives(self, a) -> np.ndarray:
        out = self.jets(a, order=2)
        n = self.spec.n
        sec = np.empty((n, n, n))
        for k in range(n):
            for i in range(n):
                for j in range(n):
                    sec[k, i, j] = out[k].partial(i, j)
        return sec


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
    worst = finite_maxima({"curvature": [curvature_at(spec, p) for p in points],
                           "torsion": [torsion_at(spec, p) for p in points]}, points)
    max_r, max_t = (float(np.max(m)) for m in worst.values())
    if max_r > FLATNESS_GATE_TOL or max_t > FLATNESS_GATE_TOL:
        raise FlatnessGateError(
            "exponential map is affine only for flat torsion-free connections: "
            f"max |curvature| = {max_r:.3g}, max |torsion| = {max_t:.3g} "
            f"(gate {FLATNESS_GATE_TOL:g})")
    inradius = min((hi - lo) / 2.0 for lo, hi in spec.sample_box)
    return ChartMap(spec=spec, x0=x0, steps=steps, radius=inradius / 2.0)


def _transformed_connection(spec: ManifoldSpec, chart: ChartMap, a) -> np.ndarray:
    """Connection coefficients transformed into the chart at probe a:
    Gamma'^c_ab = (da^c/dx^k) [ (dx^i/da^a)(dx^j/da^b) Gamma^k_ij
    + d2 x^k / da^a da^b ]."""
    if float(np.linalg.norm(a)) > chart.radius + 1e-12:
        raise ValueError(
            f"probe {a} lies beyond the chart validity radius {chart.radius:g}")
    n = spec.n
    cj = chart.jets(a, order=2)
    x = tuple(c.value for c in cj)
    jac = np.array([[cj[k].partial(i) for i in range(n)] for k in range(n)])
    sec = np.array([[[cj[k].partial(i, j) for j in range(n)]
                     for i in range(n)] for k in range(n)])
    gamma = fields.jet_values(fields.connection_jets(spec, x, 0))
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
    """Integrate the chart once per probe and return the max-norm of the
    transformed connection and, at fiber vector y, the max block residual
    over the probes (0.0 when y is None)."""
    probes = [tuple(float(c) for c in a) for a in probes]
    transformed = [_transformed_connection(spec, chart, a) for a in probes]
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
