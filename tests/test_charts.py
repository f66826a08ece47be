import math

import numpy as np
import pytest

from bornbundle import corpus, fields
from bornbundle.charts import (BoxExitError, ChartMap, FlatnessGateError,
                               affine_chart_witness, chart_born_block_residual,
                               exponential_chart, geodesic_integrate,
                               pushforward_connection_residual)
from bornbundle.errors import SpecError
from bornbundle.jets import Jet
from bornbundle.manifold import build_spec, halton_points, sample_fibers

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

    def jets(self, a, order=2):
        return [Jet.constant(c, order, self.spec.n) for c in self.x0]


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
        for got, want in zip(fast.jets(a), full.jets(a)):
            assert got.value == want.value
            assert got.partials == want.partials


def test_connection_support_by_kind():
    assert fields.connection_support(EUCLID) == ()
    assert fields.connection_support(TORSIONFUL) == ((0, 0, 1),)
    assert len(fields.connection_support(SPHERE)) == 8


@pytest.mark.parametrize("spec", [PULLBACK, EUCLID, HESSIAN])
def test_witness_integrates_each_probe_once(spec, monkeypatch):
    calls = []
    jets_of = ChartMap.jets

    def counted(self, a, order=2):
        calls.append(a)
        return jets_of(self, a, order)

    monkeypatch.setattr(ChartMap, "jets", counted)
    x0, count, seed = (0.0, 0.0), 5, 3
    out = affine_chart_witness(spec, x0, count, 1.0, seed=seed)
    assert len(calls) == count
    # the shared per-probe pass gives what the two standalone residuals give
    chart = exponential_chart(spec, x0, seed=seed)
    points = [tuple(chart.radius * (2 * u - 1) / 2)
              for u in halton_points(count, 2, seed)]
    fiber = sample_fibers(2, 1, 1.0, seed)[0]
    assert out["pushforward_residual"] == pushforward_connection_residual(
        spec, chart, points)
    assert out["born_block_residual"] == max(
        chart_born_block_residual(spec, chart, a, fiber) for a in points)
