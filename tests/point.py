"""One-point wrappers over the package's stacked sweep, for tests.

Each helper calls the package's stacked functions at P = 1 base point and
F = 1 fiber vector and returns that point's arrays or dicts; none holds a
tensor formula of its own.  The base fields go through :mod:`bornbundle.fields`
at the point's seeded coordinates, not through ``base_jets``: that route
returns a value that is not finite instead of rejecting it, evaluates only
the field asked for at the order asked for (the two-of-four report of a
potential metric with its Levi-Civita connection reads Gamma at order 0 and
g at order 1), and its Levi-Civita and dual connection are the references
for :func:`bornbundle.manifold.dual_and_levi_civita`.
"""
from __future__ import annotations

import numpy as np

from bornbundle import fields, jets
from bornbundle.bundle import BundlePoint, _frame_of, _require_point, fiber_born_jets
from bornbundle.charts import ChartMap, _probe_residuals
from bornbundle.integrability import _d_omega_of, _nijenhuis_of, _proof_identities
from bornbundle.manifold import (DEFAULT_TOL, BaseJets, HessianVerdict, ManifoldSpec,
                                 TwoOfFourReport, _curvature_of, _nabla_g_of,
                                 _require_inside, _torsion_of, base_jets, check_spd)


def _stacked(field, spec: ManifoldSpec, points, order: int) -> np.ndarray:
    """A field of :mod:`bornbundle.fields` at every point of ``points`` as
    one batch, stacked along the first axis: the values in row 0 of the
    second axis and, at order 1, the first partials in the rows after it."""
    args = jets.seed_batch([_require_inside(spec, p) for p in points], order)
    with np.errstate(over="ignore", invalid="ignore"):  # as Python floats
        return np.moveaxis(field(spec, args, order).coeffs, -1, 1)


def _at(field, spec: ManifoldSpec, p, order: int = 0) -> np.ndarray:
    """A field of :mod:`bornbundle.fields` at the point p: the values, or at
    order 1 the values and first partials along the first axis."""
    out = _stacked(field, spec, [p], order)[0]
    return out if order else out[0]


def metric_at(spec: ManifoldSpec, p) -> np.ndarray:
    """Metric components at p, positivity-checked."""
    values = _at(fields.metric_args, spec, p)
    check_spd(values[None], [_require_inside(spec, p)])
    return values


def connection_at(spec: ManifoldSpec, p) -> np.ndarray:
    return _at(fields.connection_args, spec, p)


def dual_of(spec: ManifoldSpec, args, gamma, order: int):
    """Dual of the connection gamma with respect to the metric at jet-valued
    coordinates, through the formula of :mod:`bornbundle.fields`."""
    g, dg = fields.metric_dg_args(spec, args, order)
    return fields.dual_connection_of(gamma, g, dg, fields.jet_inv(g))


def levi_civita_at(spec: ManifoldSpec, p) -> np.ndarray:
    def levi_civita(spec, args, order):
        g, dg = fields.metric_dg_args(spec, args, order)
        return fields.levi_civita_of(dg, fields.jet_inv(g))
    return _at(levi_civita, spec, p)


def dual_connection_at(spec: ManifoldSpec, p) -> np.ndarray:
    def dual(spec, args, order):
        return dual_of(spec, args, fields.connection_args(spec, args, order), order)
    return _at(dual, spec, p)


def torsion_at(spec: ManifoldSpec, p) -> np.ndarray:
    return _torsion_of(connection_at(spec, p))


def curvature_at(spec: ManifoldSpec, p) -> np.ndarray:
    return _curvature_of(_at(fields.connection_args, spec, p, 1))


def nabla_g_at(spec: ManifoldSpec, p) -> tuple[np.ndarray, float]:
    """nabla g, indexed (direction; arguments), and its worst asymmetry."""
    ng, asym = _nabla_g_of(connection_at(spec, p), _at(fields.metric_args, spec, p, 1))
    return ng, float(asym)


def hessian_verdict(spec: ManifoldSpec, points, tol: float = DEFAULT_TOL) -> HessianVerdict:
    points = list(points)
    if not points:
        raise ValueError("need at least one sample point")
    return HessianVerdict.of(base_jets(spec, points), tol)


def two_of_four_bases(spec: ManifoldSpec, points) -> BaseJets:
    """Gamma at order 0 and g at order 1 at every point, which a potential
    metric with its Levi-Civita connection supports, each as one batch."""
    points = [_require_inside(spec, p) for p in points]
    return BaseJets(tuple(points), _stacked(fields.connection_args, spec, points, 0),
                    _stacked(fields.metric_args, spec, points, 1))


def two_of_four_residuals(spec: ManifoldSpec, points,
                          tol: float = DEFAULT_TOL) -> TwoOfFourReport:
    return TwoOfFourReport.of(two_of_four_bases(spec, points), tol)


def _born(spec: ManifoldSpec, bp: BundlePoint, order: int = 1):
    """The base fields at bp.x and the Born tensors at bp."""
    bp = _require_point(spec, bp)
    base = base_jets(spec, [bp.x], order)
    return base, {name: m[0, 0] for name, m in fiber_born_jets(base, [bp.y]).items()}


def adapted_frame_at(spec: ManifoldSpec, bp: BundlePoint):
    """(E, E^-1): columns of E are H_1..H_n, V_1..V_n in bundle coordinates."""
    e, einv = _frame_of(_born(spec, bp, 0)[1]["I"][:, :spec.n, :spec.n])
    return e[0], einv


def nijenhuis_at(spec: ManifoldSpec, which: str, bp: BundlePoint) -> np.ndarray:
    return _nijenhuis_of(_born(spec, bp)[1][which])


def d_omega_at(spec: ManifoldSpec, bp: BundlePoint) -> np.ndarray:
    return _d_omega_of(_born(spec, bp)[1]["omega"])


def _identities_at(spec: ManifoldSpec, bp: BundlePoint) -> tuple[dict, dict]:
    base, mats = _born(spec, bp)
    return _proof_identities(mats["I"][:, :spec.n, :spec.n], _nijenhuis_of(mats["J"]),
                             base.gamma[0], bp.y)


def frame_bracket_residuals(spec: ManifoldSpec, bp: BundlePoint) -> dict:
    return _identities_at(spec, bp)[0]


def nijenhuis_J_identity_residuals(spec: ManifoldSpec, bp: BundlePoint) -> dict:
    return _identities_at(spec, bp)[1]


def pushforward_connection_residual(chart: ChartMap, probes) -> float:
    return _probe_residuals(chart, probes, np.zeros(chart.spec.n))[0]
