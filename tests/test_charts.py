import math

import numpy as np
import pytest

from bornbundle import corpus, fields, jets
from bornbundle.cli import spec_from_dict
from bornbundle.charts import (BoxExitError, ChartMap, FlatnessGateError,
                               affine_chart_witness, chart_born_block_residual,
                               exponential_chart, geodesic_integrate,
                               pushforward_connection_residual)
from bornbundle.errors import SpecError
from bornbundle.jets import Jet, JetBatch
from bornbundle.manifold import build_spec, halton_points, sample_fibers
from test_manifold import GENERATED

EUCLID = corpus.example("euclidean2")
HESSIAN = corpus.example("hessian-exp2")
SPHERE = corpus.example("sphere2")
TORSIONFUL = corpus.example("flat-torsionful")
PULLBACK = corpus.example("pullback-flat")


def probes(radius, count=6, seed=2):
    # points in the disc of the given radius
    unit = halton_points(count, 2, seed)
    return [tuple(radius * (2 * u - 1) / 2) for u in unit]


def test_flat_geodesics_are_straight():
    end = geodesic_integrate(EUCLID, (0.1, -0.2), (0.4, 0.7))
    assert end == pytest.approx([0.5, 0.5], abs=1e-12)


def test_sphere_equator_is_geodesic():
    end = geodesic_integrate(SPHERE, (math.pi / 2, 0.0), (0.0, 1.5))
    assert abs(end[0] - math.pi / 2) <= 1e-10
    assert end[1] == pytest.approx(1.5, abs=1e-8)


def test_pullback_geodesic_closed_form():
    # straight lines of the untwisted coordinates: endpoint
    # (u0 + a_u, v0 + a_v + a_u^2)
    x0 = (0.1, -0.3)
    a = (0.4, 0.2)
    end = geodesic_integrate(PULLBACK, x0, a)
    assert end == pytest.approx([0.5, -0.3 + 0.2 + 0.16], abs=1e-10)


def test_box_exit_names_step():
    with pytest.raises(BoxExitError) as exc:
        geodesic_integrate(EUCLID, (0.9, 0.0), (1.0, 0.0))
    assert exc.value.step > 0
    assert "step" in str(exc.value)


@pytest.mark.parametrize("spec,x0,v", [
    (SPHERE, (1.0, 1.0), (0.3, 0.4)),
    (PULLBACK, (0.0, 0.0), (0.5, 0.2)),
    (HESSIAN, (0.2, 0.1), (0.5, -0.4)),
])
def test_step_halving_agreement(spec, x0, v):
    e64 = geodesic_integrate(spec, x0, v, 64)
    e128 = geodesic_integrate(spec, x0, v, 128)
    assert np.max(np.abs(e64 - e128)) <= 1e-8


def test_rk4_error_contraction_on_sphere():
    # fourth-order convergence: halving the step shrinks the defect by ~16;
    # measured on a sphere geodesic because the flat corpus connections are
    # integrated exactly (polynomial solutions leave nothing to contract)
    x0, v = (1.0, 1.0), (0.35, 0.5)
    e8 = geodesic_integrate(SPHERE, x0, v, 8)
    e16 = geodesic_integrate(SPHERE, x0, v, 16)
    e32 = geodesic_integrate(SPHERE, x0, v, 32)
    coarse = np.max(np.abs(e8 - e16))
    fine = np.max(np.abs(e16 - e32))
    assert coarse / fine >= 8.0


def test_exponential_chart_euclidean_is_identity():
    chart = exponential_chart(EUCLID, (0.1, 0.2))
    a = (0.3, -0.4)
    assert chart.point(a) == pytest.approx([0.4, -0.2], abs=1e-12)
    assert chart.point((0.0, 0.0)) == pytest.approx([0.1, 0.2], abs=1e-15)
    assert chart.jacobian((0.0, 0.0)) == pytest.approx(np.eye(2), abs=1e-12)


def test_exponential_chart_radius_default():
    chart = exponential_chart(EUCLID, (0.0, 0.0))
    assert chart.radius == pytest.approx(0.5)


def test_exponential_chart_pullback_recovers_straight_coordinates():
    x0 = (0.1, -0.2)
    chart = exponential_chart(PULLBACK, x0)
    for a in probes(chart.radius):
        want = np.array([x0[0] + a[0], x0[1] + a[1] + a[0] ** 2])
        assert chart.point(a) == pytest.approx(want, abs=1e-10)


def test_flatness_gate_rejects_sphere():
    with pytest.raises(FlatnessGateError) as exc:
        exponential_chart(SPHERE, (1.0, 1.0))
    assert "curvature" in str(exc.value)


def test_flatness_gate_rejects_torsion():
    # curvature vanishes but torsion does not; exp is not affine then
    with pytest.raises(FlatnessGateError):
        exponential_chart(TORSIONFUL, (0.0, 0.0))


def test_pushforward_residual_euclidean_zero():
    chart = exponential_chart(EUCLID, (0.0, 0.0))
    assert pushforward_connection_residual(EUCLID, chart, probes(chart.radius)) == 0.0


def test_pushforward_residual_pullback():
    chart = exponential_chart(PULLBACK, (0.0, 0.0))
    res = pushforward_connection_residual(PULLBACK, chart, probes(chart.radius))
    assert res <= 1e-6


def test_pushforward_residual_hessian_translation_chart():
    chart = exponential_chart(HESSIAN, (0.2, -0.1))
    res = pushforward_connection_residual(HESSIAN, chart, probes(chart.radius))
    assert res <= 1e-10
    a = (0.3, 0.1)
    assert chart.point(a) == pytest.approx([0.5, 0.0], abs=1e-12)


def test_probe_beyond_radius_rejected():
    chart = exponential_chart(EUCLID, (0.0, 0.0))
    with pytest.raises(ValueError):
        pushforward_connection_residual(EUCLID, chart, [(0.9, 0.0)])


def test_block_residual_probe_beyond_radius_rejected():
    chart = exponential_chart(EUCLID, (0.0, 0.0))
    with pytest.raises(ValueError, match="validity radius"):
        chart_born_block_residual(EUCLID, chart, (0.9, 0.0), (0.7, -0.4))
    with pytest.raises(ValueError, match="at least one chart probe"):
        affine_chart_witness(EUCLID, (0.0, 0.0), 0, 1.0)


def test_chart_jacobian_and_second_derivatives_pullback():
    chart = exponential_chart(PULLBACK, (0.0, 0.0))
    a = (0.2, 0.1)
    # x(a) = (a_u, a_v + a_u^2): dx/da = [[1, 0], [2 a_u, 1]]
    assert chart.jacobian(a) == pytest.approx(
        np.array([[1.0, 0.0], [0.4, 1.0]]), abs=1e-10)
    sec = chart.second_derivatives(a)
    want = np.zeros((2, 2, 2))
    want[1, 0, 0] = 2.0
    assert sec == pytest.approx(want, abs=1e-9)


def test_born_blocks_in_constructed_chart():
    for spec in (EUCLID, PULLBACK, HESSIAN):
        chart = exponential_chart(spec, (0.0, 0.0))
        for a in probes(chart.radius, 4):
            res = chart_born_block_residual(spec, chart, a, (0.7, -0.4))
            assert res <= 1e-6


class _CollapsedChart(ChartMap):
    """Sends every probe to x0, so the chart Jacobian is zero."""

    def probe_jets(self, probes, order=2):
        const = np.stack([jets.coefficients(Jet.constant(c, order, self.spec.n))
                          for c in self.x0])
        return JetBatch(order, self.spec.n, np.stack([const for _ in probes]))


def test_singular_chart_jacobian_is_spec_error():
    chart = _CollapsedChart(EUCLID, (0.0, 0.0), radius=0.25)
    with pytest.raises(SpecError, match="singular chart Jacobian"):
        pushforward_connection_residual(EUCLID, chart, [(0.1, 0.0)])
    with pytest.raises(SpecError, match="singular chart Jacobian"):
        chart_born_block_residual(EUCLID, chart, (0.1, 0.0), (0.7, -0.4))


def test_chart_base_point_must_be_inside():
    with pytest.raises(SpecError):
        exponential_chart(EUCLID, (3.0, 0.0))


def test_exponential_chart_levi_civita_of_pullback_metric():
    # the Levi-Civita connection of the pulled-back Euclidean metric is the
    # pulled-back flat connection, so its exponential chart must recover the
    # straight coordinates; metric derivatives are needed at non-seed jet
    # coordinates here, covering the augmented evaluation path end to end
    from bornbundle.manifold import build_spec
    spec = build_spec("pullback-lc", ("u", "v"), [(-1, 1), (-1, 1)],
                      metric=[["1 + 4*u^2", "-2*u"], ["-2*u", "1"]],
                      connection="levi-civita")
    x0 = (0.1, -0.2)
    chart = exponential_chart(spec, x0)
    for a in probes(chart.radius, 4):
        want = np.array([x0[0] + a[0], x0[1] + a[1] + a[0] ** 2])
        assert chart.point(a) == pytest.approx(want, abs=1e-8)
    res = pushforward_connection_residual(spec, chart, probes(chart.radius, 4))
    assert res <= 1e-6


def _pullback_with_zeros(zero):
    gamma = [[[zero] * 2 for _ in range(2)] for _ in range(2)]
    gamma[1][0][0] = "-2"
    return build_spec("pullback-flat", ("u", "v"), [(-1, 1), (-1, 1)],
                      metric=[["1 + 4*u^2", "-2*u"], ["-2*u", "1"]],
                      connection="explicit", gamma=gamma)


def test_skipped_zero_terms_change_no_result():
    # a literal 0 coefficient is left out of the geodesic acceleration, while
    # 0*u is evaluated and summed like any other term; both must give the
    # same chart map, value and partials alike
    skipped, summed = _pullback_with_zeros("0"), _pullback_with_zeros("0*u")
    assert fields.connection_support(skipped) == ((1, 0, 0),)
    assert len(fields.connection_support(summed)) == 8
    x0 = (0.1, -0.2)
    fast = exponential_chart(skipped, x0)
    full = exponential_chart(summed, x0)
    for a in probes(fast.radius, 5):
        got, want = fast.jets(a), full.jets(a)
        assert np.array_equal(got.value, want.value)
        assert np.array_equal(got.coeffs[:, 1:], want.coeffs[:, 1:])


def test_connection_support_by_kind():
    assert fields.connection_support(EUCLID) == ()
    assert fields.connection_support(TORSIONFUL) == ((0, 0, 1),)
    assert len(fields.connection_support(SPHERE)) == 8


@pytest.mark.parametrize("spec", [PULLBACK, EUCLID, HESSIAN])
def test_witness_integrates_each_probe_once(spec, monkeypatch):
    calls = []
    jets_of = ChartMap.probe_jets

    def counted(self, probes, order=2):
        calls.append(list(probes))
        return jets_of(self, probes, order)

    monkeypatch.setattr(ChartMap, "probe_jets", counted)
    x0, count, seed = (0.0, 0.0), 5, 3
    out = affine_chart_witness(spec, x0, count, 1.0, seed=seed)
    # one integration, in one call, of all the probes
    assert len(calls) == 1 and len(calls[0]) == count
    # the shared per-probe pass gives what the two standalone residuals give
    chart = exponential_chart(spec, x0, seed=seed)
    points = [tuple(chart.radius * (2 * u - 1) / 2)
              for u in halton_points(count, 2, seed)]
    fiber = sample_fibers(2, 1, 1.0, seed)[0]
    assert out["pushforward_residual"] == pushforward_connection_residual(
        spec, chart, points)
    assert out["born_block_residual"] == max(
        chart_born_block_residual(spec, chart, a, fiber) for a in points)


def reference_chart_jets(spec, x0, a, order=2, steps=64):
    """The per-probe RK4 over Jets that the batched integrator replaced, kept
    as the reference: chart-map coordinates at probe a as a list of Jets."""
    n = spec.n
    support = fields.connection_support(spec)

    def acceleration(x, u):
        sums = [None] * n
        if support:
            gamma = fields.connection_args(spec, list(x), order)
            for k, i, j in support:
                term = gamma[k, i, j] * u[i] * u[j]
                sums[k] = term if sums[k] is None else sums[k] + term
        zero = Jet.constant(0.0, order, n)
        return [zero if s is None else -s for s in sums]

    h = 1.0 / steps
    x = [Jet.constant(c, order, n) for c in x0]
    u = jets.seed_embedded(a, order, n, 0)
    for _ in range(steps):
        k1x, k1u = u, acceleration(x, u)
        x2 = [x[i] + k1x[i] * (h / 2) for i in range(n)]
        u2 = [u[i] + k1u[i] * (h / 2) for i in range(n)]
        k2x, k2u = u2, acceleration(x2, u2)
        x3 = [x[i] + k2x[i] * (h / 2) for i in range(n)]
        u3 = [u[i] + k2u[i] * (h / 2) for i in range(n)]
        k3x, k3u = u3, acceleration(x3, u3)
        x4 = [x[i] + k3x[i] * h for i in range(n)]
        u4 = [u[i] + k3u[i] * h for i in range(n)]
        k4x, k4u = u4, acceleration(x4, u4)
        x = [x[i] + (k1x[i] + k2x[i] * 2 + k3x[i] * 2 + k4x[i]) * (h / 6)
             for i in range(n)]
        u = [u[i] + (k1u[i] + k2u[i] * 2 + k3u[i] * 2 + k4u[i]) * (h / 6)
             for i in range(n)]
        assert spec.contains([c.value for c in x])
    return x


# Gamma entries using every expression node: constants, variables, negation,
# + - * /, powers and all six functions
EVERY_NODE = build_spec(
    "every-node", ("u", "v"), [(-1, 1), (-1, 1)], metric=[["1", "0"], ["0", "1"]],
    connection="explicit",
    gamma=[[["0.1*sin(u) - v/3", "0"], ["0", "log(2 + u) - sqrt(1.5 + v)"]],
           [["-exp(-u^2)*cos(v)", "tanh(u*v)^2"], ["0", "1/(2 + u^2)"]]])
PULLBACK_LC = build_spec("pullback-lc", ("u", "v"), [(-1, 1), (-1, 1)],
                         metric=[["1 + 4*u^2", "-2*u"], ["-2*u", "1"]],
                         connection="levi-civita")
REFERENCE_SPECS = {
    "euclidean2": EUCLID, "hessian-exp2": HESSIAN, "pullback-flat": PULLBACK,
    "flat-skew-metric": corpus.example("flat-skew-metric"),
    **{name: spec_from_dict(GENERATED[name], name=name)
       for name in ("twisted3", "twisted4", "potential3", "potential4")},
    "every-node": EVERY_NODE, "pullback-lc": PULLBACK_LC,
}


@pytest.mark.parametrize("name", list(REFERENCE_SPECS))
def test_batched_chart_equals_jet_reference(name):
    # every coefficient of the batched chart map, over all probes of one
    # call, equals the per-probe Jet integration, signs of zeros included
    spec = REFERENCE_SPECS[name]
    x0 = tuple(0.5 * (lo + hi) + 0.1 for lo, hi in spec.sample_box)
    chart = ChartMap(spec, x0, radius=0.25)
    count = 3 if name == "pullback-lc" else 6
    points = [tuple(0.25 * (2 * u - 1) / 2) for u in halton_points(count, spec.n, 5)]
    got = chart.probe_jets(points).coeffs
    for b, a in enumerate(points):
        want = np.stack([jets.coefficients(c) for c in reference_chart_jets(spec, x0, a)])
        assert np.array_equal(got[b], want)
        assert np.array_equal(np.signbit(got[b]), np.signbit(want))


def test_batched_box_exit_reports_the_first_probe():
    # probe 28 leaves the box first, at step 24, yet probe 0's exit (step 51)
    # is reported, as when the probes were integrated one after another
    chart = exponential_chart(PULLBACK, (0.9, 0.9))
    points = [tuple(chart.radius * (2 * u - 1) / 2) for u in halton_points(30, 2, 42)]
    with pytest.raises(BoxExitError) as first:
        chart.probe_jets(points[28:29])
    with pytest.raises(BoxExitError) as batch:
        chart.probe_jets(points)
    assert (first.value.step, batch.value.step) == (24, 51)
