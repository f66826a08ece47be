import json
import math
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import jet_reference as ref
from bornbundle import charts, corpus, expr, fields, jets
from bornbundle.bundle import _constant_blocks
from bornbundle.cli import load_spec, main, spec_from_dict
from bornbundle.charts import (GATE_POINTS, BoxExitError, ChartMap, FlatnessGateError,
                               _block_residuals, _gate_connection,
                               _probe_residuals, _second_columns, _transformed_connections,
                               affine_chart_witness, exponential_chart, geodesic_integrate)
from bornbundle.errors import InternalError, SpecError
from bornbundle.expr import EvalDomainError
from bornbundle.jets import JetBatch
from jet_reference import Jet
from bornbundle.manifold import (_curvature_of, _torsion_of, build_spec, halton_points,
                                 sample_fibers, sample_points)
from test_manifold import GENERATED
from point import (assert_same_bits, connection_at, curvature_at,
                   pushforward_connection_residual, torsion_at)

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
    with pytest.raises(BoxExitError, match=r"at step [1-9][0-9]*/64, position"):
        geodesic_integrate(EUCLID, (0.9, 0.0), (1.0, 0.0))


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


def jacobian(chart, a):
    return chart.jets(a, order=1).coeffs[:, 1:]


def chart_born_block_residual(chart, a, y):
    """Distance of the I, J, K built from the transformed connection at a
    chart probe from their constant affine-chart blocks."""
    return _probe_residuals(chart, [a], y).maxima["born_block"]


def test_exponential_chart_euclidean_is_identity():
    chart = exponential_chart(EUCLID, (0.1, 0.2))
    a = (0.3, -0.4)
    assert geodesic_integrate(chart.spec, chart.x0, a) == pytest.approx([0.4, -0.2], abs=1e-12)
    assert geodesic_integrate(chart.spec, chart.x0, (0.0, 0.0)) == pytest.approx(
        [0.1, 0.2], abs=1e-15)
    assert jacobian(chart, (0.0, 0.0)) == pytest.approx(np.eye(2), abs=1e-12)


def test_exponential_chart_radius_default():
    chart = exponential_chart(EUCLID, (0.0, 0.0))
    assert chart.radius == pytest.approx(0.5)


def test_exponential_chart_pullback_recovers_straight_coordinates():
    x0 = (0.1, -0.2)
    chart = exponential_chart(PULLBACK, x0)
    for a in probes(chart.radius):
        want = np.array([x0[0] + a[0], x0[1] + a[1] + a[0] ** 2])
        assert geodesic_integrate(chart.spec, chart.x0, a) == pytest.approx(want, abs=1e-10)


def test_flatness_gate_rejects_sphere():
    with pytest.raises(FlatnessGateError) as exc:
        exponential_chart(SPHERE, (1.0, 1.0))
    assert "curvature" in str(exc.value)


def test_flatness_gate_rejects_torsion():
    # curvature vanishes but torsion does not; exp is not affine then
    with pytest.raises(FlatnessGateError):
        exponential_chart(TORSIONFUL, (0.0, 0.0))


@pytest.mark.parametrize("torsion, code", [("5e-8", 0), ("5e-7", 1)])
def test_flatness_gate_decides_a_torsion_near_it(torsion, code, tmp_path, capsys):
    # a constant Gamma^0_01 has torsion of its size and curvature of its square:
    # half a decade under FLATNESS_GATE_TOL = 1e-7 the chart is witnessed, half
    # a decade over it the gate rejects the chart
    gamma = [[["0", torsion], ["0", "0"]], [["0", "0"], ["0", "0"]]]
    path = tmp_path / "torsion.json"
    path.write_text(json.dumps({"dimension": 2, "coordinates": ["u", "v"],
                                "metric": {"components": [["1", "0"], ["0", "1"]]},
                                "connection": {"kind": "explicit", "gamma": gamma},
                                "sample_box": [[-1, 1], [-1, 1]]}))
    assert main(["affine-chart", str(path)]) == code
    out = json.loads(capsys.readouterr().out)
    if code:
        assert out["error"]["kind"] == "FlatnessGateError"
        assert "max |torsion| = 5e-07 (gate 1e-07)" in out["error"]["message"]
    else:
        assert out["witnessed"] is True


def test_witness_holds_with_residuals_just_under_its_tolerance(capsys):
    # at 16 RK4 steps the derived flat Gamma of hessian-dual-exp2 leaves
    # residuals of about 6.4e-7 and 7.9e-7, under PUSHFORWARD_TOL = 1e-6
    spec = Path(__file__).parent.parent / "scripts" / "specs" / "hessian-dual-exp2.json"
    assert main(["affine-chart", str(spec), "--probes", "4", "--steps", "16"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert 1e-7 < out["pushforward_residual"] < out["born_block_residual"] < 1e-6
    assert out["witnessed"] is True


def test_pushforward_residual_euclidean_zero():
    chart = exponential_chart(EUCLID, (0.0, 0.0))
    assert pushforward_connection_residual(chart, probes(chart.radius)) == 0.0


def test_pushforward_residual_pullback():
    chart = exponential_chart(PULLBACK, (0.0, 0.0))
    res = pushforward_connection_residual(chart, probes(chart.radius))
    assert res <= 1e-6


def test_pushforward_residual_hessian_translation_chart():
    chart = exponential_chart(HESSIAN, (0.2, -0.1))
    res = pushforward_connection_residual(chart, probes(chart.radius))
    assert res <= 1e-10
    a = (0.3, 0.1)
    assert geodesic_integrate(chart.spec, chart.x0, a) == pytest.approx([0.5, 0.0], abs=1e-12)


def test_probe_beyond_radius_rejected():
    chart = exponential_chart(EUCLID, (0.0, 0.0))
    with pytest.raises(InternalError):
        pushforward_connection_residual(chart, [(0.9, 0.0)])


def test_probe_just_beyond_radius_rejected():
    chart = exponential_chart(EUCLID, (0.0, 0.0))
    with pytest.raises(InternalError, match="validity radius"):
        _probe_residuals(chart, [(chart.radius * (1 + 1e-6), 0.0)], (0.7, -0.4))


def test_block_residual_alone_fails_the_witness(monkeypatch, capsys):
    # the pushforward residual stays tiny; a block residual of 1e-5 over
    # PUSHFORWARD_TOL must still fail both the witness and check
    blocks = charts._block_residuals
    monkeypatch.setattr(charts, "_block_residuals", lambda *args: blocks(*args) + 1e-5)
    assert main(["affine-chart", "pullback-flat"]) == 2
    out = json.loads(capsys.readouterr().out)
    assert out["pushforward_residual"] <= 1e-6 and out["witnessed"] is False
    assert main(["check", "pullback-flat", "--points", "4", "--fiber-points", "2"]) == 2
    assert "affine-chart witness residuals" in json.loads(capsys.readouterr().out)["failures"]


def test_block_residual_probe_beyond_radius_rejected():
    chart = exponential_chart(EUCLID, (0.0, 0.0))
    with pytest.raises(InternalError, match="validity radius"):
        chart_born_block_residual(chart, (0.9, 0.0), (0.7, -0.4))
    with pytest.raises(ValueError, match="at least one chart probe"):
        affine_chart_witness(EUCLID, (0.0, 0.0), 0, 1.0)


def _flat_doc(n):
    coords = [f"x{i}" for i in range(n)]
    return {"dimension": n, "coordinates": coords,
            "metric": {"components": [["1" if i == j else "0" for j in range(n)]
                                      for i in range(n)]},
            "connection": {"kind": "flat"}, "sample_box": [[-1, 1]] * n}


@pytest.mark.parametrize("n", range(1, 9))
def test_witness_probes_lie_inside_the_radius(n, monkeypatch):
    # a cube of half-width r/2 has corners beyond r for n > 4; at n = 6..8
    # some of these seeds place a probe of that cube beyond r
    spec = spec_from_dict(_flat_doc(n))
    placed = []
    residuals = charts._probe_residuals

    def recorded(chart, probes, y):
        placed.append((chart.radius, probes))
        return residuals(chart, probes, y)

    monkeypatch.setattr(charts, "_probe_residuals", recorded)
    for seed in range(1, 41):
        out = affine_chart_witness(spec, (0.0,) * n, 16, 1.0, seed=seed)
        assert out["witnessed"]
        radius, probes = placed.pop()
        assert len(probes) == 16
        assert all(float(np.linalg.norm(a)) <= radius for a in probes)


def test_check_witnesses_an_eight_dimensional_flat_spec(tmp_path, capsys):
    path = tmp_path / "flat8.json"
    path.write_text(json.dumps(_flat_doc(8)))
    assert main(["check", str(path), "--points", "4", "--fiber-points", "2"]) == 0
    assert json.loads(capsys.readouterr().out)["affine_chart"]["witnessed"] is True


def test_chart_jacobian_and_second_derivatives_pullback():
    chart = exponential_chart(PULLBACK, (0.0, 0.0))
    a = (0.2, 0.1)
    # x(a) = (a_u, a_v + a_u^2): dx/da = [[1, 0], [2 a_u, 1]]
    assert jacobian(chart, a) == pytest.approx(
        np.array([[1.0, 0.0], [0.4, 1.0]]), abs=1e-10)
    sec = chart.jets(a, order=2).coeffs[:, _second_columns(2)]
    want = np.zeros((2, 2, 2))
    want[1, 0, 0] = 2.0
    assert sec == pytest.approx(want, abs=1e-9)


def test_born_blocks_in_constructed_chart():
    for spec in (EUCLID, PULLBACK, HESSIAN):
        chart = exponential_chart(spec, (0.0, 0.0))
        for a in probes(chart.radius, 4):
            res = chart_born_block_residual(chart, a, (0.7, -0.4))
            assert res <= 1e-6


class _CollapsedChart(ChartMap):
    """Sends every probe to x0, so the chart Jacobian is zero."""

    def probe_jets(self, probes, order=2):
        const = np.stack([ref.coefficients(Jet.constant(c, order, self.spec.n))
                          for c in self.x0])
        return JetBatch(order, self.spec.n, np.stack([const for _ in probes]))


def test_singular_chart_jacobian_is_spec_error():
    chart = _CollapsedChart(EUCLID, (0.0, 0.0))
    with pytest.raises(SpecError, match="singular chart Jacobian"):
        pushforward_connection_residual(chart, [(0.1, 0.0)])
    with pytest.raises(SpecError, match="singular chart Jacobian"):
        chart_born_block_residual(chart, (0.1, 0.0), (0.7, -0.4))


def test_chart_base_point_must_be_inside():
    with pytest.raises(SpecError):
        exponential_chart(EUCLID, (3.0, 0.0))
    # a start point or velocity of the wrong dimension is not broadcast
    with pytest.raises(SpecError, match="start point has 1 coordinates, expected 2"):
        geodesic_integrate(EUCLID, (0.1,), (0.1, 0.2))
    with pytest.raises(ValueError, match=re.escape(
            "velocity (0.1, 0.2, 0.3) has 3 components, expected 2")):
        geodesic_integrate(EUCLID, (0.1, 0.1), (0.1, 0.2, 0.3))
    chart = ChartMap(EUCLID, (0.0, 0.0))
    with pytest.raises(ValueError, match=re.escape("velocity (0.1,) has 1 components")):
        chart.probe_jets([(0.1, 0.0), (0.1,)])
    with pytest.raises(SpecError, match="start point has 3 coordinates, expected 2"):
        ChartMap(EUCLID, (0.0, 0.0, 0.0)).probe_jets([(0.1, 0.0)])


@pytest.mark.parametrize("steps", [0, -3])
def test_chart_map_needs_a_step(steps):
    # checked on construction, not as a division by zero or a negative
    # array dimension in the integrator
    with pytest.raises(ValueError, match="^need at least one integration step$"):
        ChartMap(PULLBACK, (0.0, 0.0), steps=steps)


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
        assert geodesic_integrate(chart.spec, chart.x0, a) == pytest.approx(want, abs=1e-8)
    res = pushforward_connection_residual(chart, probes(chart.radius, 4))
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
        chart, points)
    assert out["born_block_residual"] == max(
        chart_born_block_residual(chart, a, fiber) for a in points)


def reference_chart_jets(spec, x0, a, order=2, steps=64):
    """The per-probe RK4 over Jets that the batched integrator replaced, kept
    as the reference: chart-map coordinates at probe a as a list of Jets."""
    n = spec.n
    support = fields.connection_support(spec)

    def acceleration(x, u):
        sums = [None] * n
        if support:
            gamma = ref.connection_args(spec, list(x), order)
            for k, i, j in support:
                term = gamma[k, i, j] * u[i] * u[j]
                sums[k] = term if sums[k] is None else sums[k] + term
        zero = Jet.constant(0.0, order, n)
        return [zero if s is None else -s for s in sums]

    h = 1.0 / steps
    x = [Jet.constant(c, order, n) for c in x0]
    u = ref.seed_embedded(a, order, n, 0)
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
HESSIAN_DUAL = build_spec("hessian-dual-exp2", ("u", "v"), [(-1, 1), (-1, 1)],
                          metric=[["exp(u)", "0"], ["0", "exp(v)"]],
                          connection="hessian-dual")
# explicit Gammas that mix literal constants, constant expressions, which
# the integrator evaluates once, and entries that depend on the coordinates
MIXED_CONSTANTS2 = build_spec(
    "mixed-constants2", ("u", "v"), [(-1, 1), (-1, 1)], metric=[["1", "0"], ["0", "1"]],
    connection="explicit",
    gamma=[[["2*0.5", "0"], ["0.25", "u*v"]], [["exp(0)", "-0.5"], ["0", "sin(u) - 2*0.5"]]])
MIXED_CONSTANTS3 = build_spec(
    "mixed-constants3", ("x", "y", "z"), [(-1, 1)] * 3,
    metric=[["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]], connection="explicit",
    gamma=[[["exp(0)", "0", "0"], ["0", "x*z", "0"], ["0.5", "0", "0"]],
           [["-(2*0.5)", "0", "y"], ["0", "0", "0"], ["0", "0", "cos(z)"]],
           [["0", "0.125", "0"], ["x - y", "0", "0"], ["0", "0", "exp(0)*2"]]])
# an explicit Gamma whose every term is a constant: partials of -0.0 from
# the negations, and the values +0.0 and -0.0 from the zero products
ALL_CONSTANTS2 = build_spec(
    "all-constants2", ("u", "v"), [(-1, 1), (-1, 1)], metric=[["1", "0"], ["0", "1"]],
    connection="explicit",
    gamma=[[["-(2*0.5)", "0*2"], ["0", "0.25"]], [["exp(0)", "0"], ["-(0*2)", "-0.5"]]])
# a constant Gamma whose partials are NaN: inf * 0 in the product rule
NAN_PARTIALS2 = build_spec(
    "nan-partials2", ("u", "v"), [(-1, 1), (-1, 1)], metric=[["1", "0"], ["0", "1"]],
    connection="explicit",
    gamma=[[["0", "0"], ["0", "0"]], [["1e200*1e200*2", "0"], ["0", "0"]]])
# the pullback of w_2 = z + x*y: Gamma^2_01 = Gamma^2_10 = 1 reads two
# different components, so the sign of a zero product depends on which
# factor is -0.0
SHEAR3 = build_spec(
    "shear3", ("x", "y", "z"), [(-1, 1)] * 3,
    metric=[["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]], connection="explicit",
    gamma=[[["0"] * 3] * 3, [["0"] * 3] * 3, [["0", "1", "0"], ["1", "0", "0"], ["0"] * 3]])
# a constant Gamma whose terms each read a component that the other writes
CROSS_FEEDING2 = build_spec(
    "cross-feeding2", ("u", "v"), [(-1, 1), (-1, 1)], metric=[["1", "0"], ["0", "1"]],
    connection="explicit", gamma=[[["0", "0"], ["0", "0.5"]], [["-1", "0"], ["0", "0"]]])
PULLBACK_CUBIC = load_spec(str(Path(__file__).parent.parent / "scripts" / "specs"
                               / "pullback-cubic.json"))
# a constant Gamma integrated stage by stage: Gamma^2_01 = Gamma^2_10 = 1
# reads u^1, which Gamma^1_00 = -2 writes
PULLBACK_CHAIN3 = load_spec(str(Path(__file__).parent.parent / "scripts" / "specs"
                                / "pullback-chain3.json"))
REFERENCE_SPECS = {
    "euclidean2": EUCLID, "hessian-exp2": HESSIAN, "pullback-flat": PULLBACK,
    "flat-skew-metric": corpus.example("flat-skew-metric"),
    **{name: spec_from_dict(GENERATED[name], name=name)
       for name in ("twisted3", "twisted4", "potential3", "potential4", "lc3")},
    "every-node": EVERY_NODE, "pullback-lc": PULLBACK_LC, "sphere2": SPHERE,
    "hessian-dual-exp2": HESSIAN_DUAL, "mixed-constants2": MIXED_CONSTANTS2,
    "mixed-constants3": MIXED_CONSTANTS3, "pullback-cubic": PULLBACK_CUBIC,
    "all-constants2": ALL_CONSTANTS2, "shear3": SHEAR3, "pullback-chain3": PULLBACK_CHAIN3,
}
# probes and RK4 steps of the connections derived from the metric, and of
# the larger explicit one, whose Jet reference is slow
METRIC_DERIVED = {"pullback-lc": (3, 64), "sphere2": (3, 16),
                  "hessian-dual-exp2": (3, 64), "lc3": (2, 8),
                  "mixed-constants3": (3, 32)}


@pytest.mark.parametrize("name", list(REFERENCE_SPECS))
def test_batched_chart_equals_jet_reference(name):
    # every coefficient of the batched chart map, over all probes of one
    # call, equals the per-probe Jet integration, signs of zeros included
    spec = REFERENCE_SPECS[name]
    x0 = tuple(0.5 * (lo + hi) + 0.1 for lo, hi in spec.sample_box)
    count, steps = METRIC_DERIVED.get(name, (6, 64))
    chart = ChartMap(spec, x0, steps=steps)
    points = [tuple(0.25 * (2 * u - 1) / 2) for u in halton_points(count, spec.n, 5)]
    got = chart.probe_jets(points).coeffs
    for b, a in enumerate(points):
        want = np.stack([ref.coefficients(c)
                         for c in reference_chart_jets(spec, x0, a, steps=steps)])
        assert np.array_equal(got[b], want)
        assert np.array_equal(np.signbit(got[b]), np.signbit(want))


@pytest.mark.parametrize("x0", [(0.1, -0.2), (-0.0, -0.0)])
@pytest.mark.parametrize("name", ["euclidean2", "all-constants2", "pullback-flat",
                                  "twisted3", "shear3", "pullback-chain3"])
def test_signed_zero_probes_equal_jet_reference(name, x0):
    # a -0.0 velocity component turns +0.0 in the first step, whether the
    # acceleration is uniform (k1 at the first stage, then one value) or
    # from a constant Gamma that reads what it writes; over one step, two,
    # and a chunk boundary
    spec = REFERENCE_SPECS[name]
    x0 = x0 + x0[1:] * (spec.n - 2)
    points = [a + (-0.0,) * (spec.n - 2) for a in
              [(0.0, -0.0), (-0.0, 0.1), (0.05, -0.0), (-0.0, -0.0), (-0.1, 0.0)]]
    if spec.n > 2:
        points += [(0.05, -0.0, 0.1), (-0.0, 0.05, -0.1)]
    for steps in (1, 2, 65):
        chart = ChartMap(spec, x0, steps=steps)
        got = chart.probe_jets(points).coeffs
        for b, a in enumerate(points):
            want = np.stack([ref.coefficients(c)
                             for c in reference_chart_jets(spec, x0, a, steps=steps)])
            assert_same_bits(got[b], want)


def test_acceleration_cases():
    # a constant array when no term has a coordinate, else a function of the
    # positions; uniform without support, or for a constant Gamma that reads
    # no component it writes
    for spec, constant in ((ALL_CONSTANTS2, True), (PULLBACK, True),
                           (MIXED_CONSTANTS2, False), (SPHERE, False)):
        terms = charts._connection_terms(spec, fields.connection_support(spec), 2)
        assert callable(terms) is not constant
    uniform = [EUCLID, PULLBACK, REFERENCE_SPECS["twisted3"], REFERENCE_SPECS["twisted4"],
               NAN_PARTIALS2, SHEAR3]
    other = [ALL_CONSTANTS2, MIXED_CONSTANTS2, SPHERE, CROSS_FEEDING2, PULLBACK_CUBIC,
             PULLBACK_CHAIN3]
    with np.errstate(over="ignore", invalid="ignore"):  # nan-partials2's inf
        for spec in uniform + other:
            accel = charts._acceleration(spec, 2)
            assert accel.uniform is (spec in uniform), spec.name


def reference_constant_acceleration(spec, u, order):
    """-Gamma^k_ij u^i u^j with both products through ``_product_coeffs``,
    Gamma the constant terms broadcast over the batch."""
    support = fields.connection_support(spec)
    gamma = charts._connection_terms(spec, support, order)
    assert not callable(gamma)
    _, i, j = np.array(support).T
    terms = jets._product_coeffs(jets._product_coeffs(gamma, u[:, i], order, spec.n),
                                 u[:, j], order, spec.n)
    acc = np.zeros(u.shape)
    for k in range(spec.n):
        rows = [t for t, kij in enumerate(support) if kij[0] == k]
        if rows:
            total = terms[:, rows[0]]
            for t in rows[1:]:
                total = total + terms[:, t]
            acc[:, k] = -total
    return acc


@pytest.mark.parametrize("spec", [ALL_CONSTANTS2, PULLBACK, NAN_PARTIALS2])
def test_constant_acceleration_equals_products_on_non_finite_states(spec):
    # scaling u by Gamma's value is exact only for a finite u and +-0
    # partials: +-0 * inf is NaN, so a state with an inf or NaN, or a Gamma
    # with NaN partials, takes both products in full
    rng = np.random.default_rng(1)
    order, n = 2, spec.n
    with np.errstate(over="ignore", invalid="ignore"):
        accel = charts._acceleration(spec, order)
    x = np.zeros((3, n, 6))
    u = rng.normal(size=(3, n, 6))
    u[rng.random(u.shape) < 0.3] = -0.0
    states = [u]
    for bad in (np.inf, -np.inf, np.nan):
        for where in ((0, 0, 2), (1, 1, 0), (2, 0, 5)):
            v = u.copy()
            v[where] = bad
            states.append(v)
    with np.errstate(over="ignore", invalid="ignore"):
        for v in states:
            got, want = accel(v, x), reference_constant_acceleration(spec, v, order)
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
        assert np.isnan(accel(states[1], x)).any()


def test_batched_box_exit_reports_the_first_probe():
    # probe 28 leaves the box first, at step 24, yet probe 0's exit (step 51)
    # is reported, as when the probes were integrated one after another
    chart = exponential_chart(PULLBACK, (0.9, 0.9))
    points = [tuple(chart.radius * (2 * u - 1) / 2) for u in halton_points(30, 2, 42)]
    with pytest.raises(BoxExitError, match="at step 24/"):
        chart.probe_jets(points[28:29])
    with pytest.raises(BoxExitError, match="at step 51/"):
        chart.probe_jets(points)


def reference_rk4(spec, x0, velocities, order, steps, box=True):
    """The per-step RK4 loop that the chunked scan replaced, kept as the
    reference: every stage evaluates the acceleration, and every step
    advances the position and checks the box (unless ``box`` is false)."""
    count, n = velocities.shape
    width = 1 + len(jets.partial_keys(order, n))
    x = np.zeros((count, n, width))
    x[:, :, 0] = x0
    u = np.zeros((count, n, width))
    u[:, :, 0] = velocities
    if order >= 1:
        u[:, range(n), range(1, n + 1)] = 1.0
    accel = charts._acceleration(spec, order)
    lo, hi = np.array(spec.sample_box, dtype=float).T
    h = 1.0 / steps
    for step in range(steps):
        k1u = accel(u, x)
        u2 = u + k1u * (h / 2)
        k2u = accel(u2, x + u * (h / 2))
        u3 = u + k2u * (h / 2)
        k3u = accel(u3, x + u2 * (h / 2))
        u4 = u + k3u * h
        k4u = accel(u4, x + u3 * h)
        x = x + (u + u2 * 2 + u3 * 2 + u4) * (h / 6)
        u = u + (k1u + k2u * 2 + k3u * 2 + k4u) * (h / 6)
        inside = np.all((lo <= x[:, :, 0]) & (x[:, :, 0] <= hi), axis=1)
        if box and not inside.all():
            values = tuple(x[int(np.argmin(inside)), :, 0].tolist())
            raise BoxExitError(
                f"geodesic left the sample box at step {step + 1}/{steps}, "
                f"position {values}")
    return x


def rk4_outcome(integrate, spec, x0, velocities, order, steps):
    """The endpoint bytes, or the box exit's message as a 1-tuple."""
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            return integrate(spec, x0, velocities, order, steps).tobytes()
    except BoxExitError as exc:
        return (str(exc),)


# velocities with -0.0 components; from (0.5, 0.4) the second batch leaves
# the box at several steps, probes 1 and 2 first, at the same step
SCAN_BATCHES = {
    (0.1, -0.2): [(0.0, -0.0), (-0.0, 0.1), (0.05, -0.0), (-0.2, 0.15), (0.3, -0.1)],
    (0.5, 0.4): [(0.3, -0.0), (1.5, 0.1), (1.5, -0.1), (-0.0, 0.9), (0.7, 0.0), (-0.4, -0.0)],
}


@pytest.mark.parametrize("steps", [1, 63, 64, 65, 200])
@pytest.mark.parametrize("order", [0, 1, 2])
@pytest.mark.parametrize("name", ["euclidean2", "pullback-flat", "twisted3",
                                  "all-constants2", "pullback-chain3", "pullback-cubic",
                                  "mixed-constants2", "pullback-lc"])
def test_chunked_scan_equals_per_step_loop(name, order, steps):
    # zero acceleration, constant Gamma with one and with several terms per
    # k, and varying Gammas in one-step chunks (explicit, mixing constant and
    # coordinate terms, and derived from the metric): the same bytes, or the
    # same box exit
    spec = REFERENCE_SPECS[name]
    exits = 0
    for x0, rows in SCAN_BATCHES.items():
        x0 = x0 + (0.0,) * (spec.n - 2)
        velocities = np.array([row + (-0.0,) * (spec.n - 2) for row in rows])
        want = rk4_outcome(reference_rk4, spec, x0, velocities, order, steps)
        assert rk4_outcome(charts._rk4, spec, x0, velocities, order, steps) == want
        exits += isinstance(want, tuple)
    assert exits == 1


@pytest.mark.parametrize("steps", [1, 65])
def test_uniform_rows_equal_per_stage_loop_on_nan_partials(steps, monkeypatch):
    # nan-partials2's Gamma^1_00 is inf with NaN partials, so the positions
    # turn NaN at the first step; without the box check the uniform chunk
    # and the per-stage loop give the same bits, NaNs included
    monkeypatch.setattr(charts, "_check_box", lambda *args: None)
    velocities = np.array([(0.3, -0.0), (-0.0, 0.1), (0.0, 0.2), (-0.2, 0.05)])
    with np.errstate(over="ignore", invalid="ignore"):
        assert charts._acceleration(NAN_PARTIALS2, 2).uniform
        got = charts._rk4(NAN_PARTIALS2, (0.1, -0.2), velocities, 2, steps)
        want = reference_rk4(NAN_PARTIALS2, (0.1, -0.2), velocities, 2, steps, box=False)
    assert np.isnan(got).any() and np.isfinite(got).any()
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize("spec,steps", [(EUCLID, 100_000), (PULLBACK, 5_000)])
def test_rk4_memory_does_not_grow_with_steps(spec, steps):
    # the positions are scanned in chunks of DEFAULT_STEPS steps; one scan
    # over 100,000 steps of 6 order-2 probes would take about 58 MB
    velocities = np.array(probes(0.5))
    charts._rk4(spec, (0.1, 0.1), velocities, 2, 8)
    tracemalloc.start()
    try:
        charts._rk4(spec, (0.1, 0.1), velocities, 2, steps)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_pullback_cubic_is_witnessed():
    # straight coordinates (u, v - u^2 - u^3): Gamma^1_00 = -2 - 6u depends
    # on the position, so the integrator evaluates it at every stage
    assert fields.connection_support(PULLBACK_CUBIC) == ((1, 0, 0),)
    assert PULLBACK_CUBIC.gamma_exprs.free[4] == 0b01  # (1, 0, 0) reads u alone
    for steps in (16, 64):
        out = affine_chart_witness(PULLBACK_CUBIC, (0.0, 0.0), 6, 1.0, steps=steps)
        assert out["witnessed"]
        assert out["pushforward_residual"] == out["born_block_residual"] == 0.0


# -- stacked gate and probe residuals ---------------------------------------

def per_probe_transformed_connection(jac, sec, gamma):
    """The per-probe transformed connection that the stacked one replaced."""
    inv = np.linalg.inv(jac)
    inner = np.einsum("ia,jb,kij->kab", jac, jac, gamma) + sec
    return np.einsum("ck,kab->cab", inv, inner)


def per_probe_block_residual(transformed, y):
    """The per-probe I, J, K block residual that the stacked one replaced."""
    n = len(y)
    e = np.eye(2 * n)
    e[n:, :n] = -np.einsum("kij,j->ki", transformed, y)
    einv = e.copy()
    einv[n:, :n] = -einv[n:, :n]
    return np.stack([e @ c @ einv - c for c in _constant_blocks(n)])


@pytest.mark.parametrize("name", ["pullback-flat", "pullback-cubic", "sphere2",
                                  "hessian-dual-exp2", "every-node", "twisted3",
                                  "mixed-constants3"])
def test_stacked_probe_residuals_equal_per_probe(name):
    # the chart need not be affine: a curved or non-flat connection gives
    # nonzero residuals whose bits the stack must keep
    spec = REFERENCE_SPECS[name]
    x0 = tuple(0.5 * (lo + hi) + 0.1 for lo, hi in spec.sample_box)
    chart = ChartMap(spec, x0, steps=16)
    points = [tuple(0.25 * (2 * u - 1) / 2) for u in halton_points(7, spec.n, 5)]
    y = sample_fibers(spec.n, 1, 1.0, 3)[0]
    cj = chart.probe_jets(points).coeffs
    n = spec.n
    jac, sec = cj[:, :, 1:n + 1], cj[:, :, _second_columns(n)]
    gamma = fields.connection_args(spec, jets.seed_batch(cj[:, :, 0], 0)).value
    transformed = _transformed_connections(jac, sec, gamma, points)
    blocks = _block_residuals(transformed, y)
    for p in range(len(points)):
        want = per_probe_transformed_connection(jac[p], sec[p], gamma[p])
        assert_same_bits(transformed[p], want)
        assert_same_bits(blocks[p], per_probe_block_residual(want, y))
    maxima = _probe_residuals(chart, points, y).maxima
    assert maxima["pushforward_connection"] == max(np.max(np.abs(t)) for t in transformed)
    assert maxima["born_block"] == max(np.max(np.abs(b)) for b in blocks)


def test_stacked_probe_residuals_equal_per_probe_on_random_stacks():
    rng = np.random.default_rng(0)
    for n in (2, 3, 4, 5):
        for count in (1, 5, 12):
            jac = np.eye(n) + rng.normal(size=(count, n, n)) * 0.1
            sec, gamma = rng.normal(size=(2, count, n, n, n)) * 1e-3
            gamma[rng.random(gamma.shape) < 0.5] = -0.0
            y = rng.normal(size=n)
            transformed = _transformed_connections(jac, sec, gamma, range(count))
            blocks = _block_residuals(transformed, y)
            for p in range(count):
                want = per_probe_transformed_connection(jac[p], sec[p], gamma[p])
                assert_same_bits(transformed[p], want)
                assert_same_bits(blocks[p], per_probe_block_residual(want, y))


@pytest.mark.parametrize("name", ["pullback-flat", "sphere2", "hessian-dual-exp2",
                                  "every-node", "lc3", "mixed-constants3"])
def test_gate_batch_equals_per_point(name):
    spec = REFERENCE_SPECS[name]
    points = [tuple(p) for p in sample_points(spec, GATE_POINTS, 42).tolist()]
    gamma = _gate_connection(spec, points)
    curvature, torsion = _curvature_of(gamma), _torsion_of(gamma[:, 0])
    for p, x in enumerate(points):
        assert_same_bits(curvature[p], curvature_at(spec, x))
        assert_same_bits(torsion[p], torsion_at(spec, x))


# -- error order ---------------------------------------------------------------

def _disc_log(x, radius2):
    # log of (distance to x)^2 - radius2: a domain error near x alone
    return f"log((u - ({x[0]!r}))^2 + (v - ({x[1]!r}))^2 - {radius2!r})"


def test_gate_raises_the_first_failing_point():
    # the first expression fails at gate point 3, a later one at point 1: the
    # batch meets point 3's error first, the per-point order point 1's
    points = [tuple(p) for p in sample_points(EUCLID, GATE_POINTS, 42).tolist()]
    gamma = [[["0", "0"], ["0", "0"]], [["0", "0"], ["0", "0"]]]
    gamma[0][0][0] = _disc_log(points[3], 0.01)
    gamma[1][0][1] = _disc_log(points[1], 0.02)
    spec = build_spec("gate-order", ("u", "v"), [(-1, 1), (-1, 1)],
                      metric=[["1", "0"], ["0", "1"]], connection="explicit", gamma=gamma)
    with pytest.raises(EvalDomainError) as batch:
        fields.connection_args(spec, jets.seed_batch(points, 1))
    with pytest.raises(EvalDomainError) as first:
        connection_at(spec, points[1])
    with pytest.raises(EvalDomainError) as gate:
        exponential_chart(spec, (0.0, 0.0))
    assert str(gate.value) == str(first.value) != str(batch.value)
    assert "value -0.02 at" in str(gate.value) and "value -0.01 at" in str(batch.value)


def test_gate_names_curvature_before_torsion():
    # Gamma^0_01 overflows to inf off u = 0, so both the curvature and the
    # torsion are not finite at the first gate point; curvature is named
    spec = build_spec("gate-inf", ("u", "v"), [(-1, 1), (-1, 1)],
                      metric=[["1", "0"], ["0", "1"]], connection="explicit",
                      gamma=[[["0", "1e200*u*1e200"], ["0", "0"]], [["0", "0"], ["0", "0"]]])
    points = [tuple(p) for p in sample_points(spec, GATE_POINTS, 42).tolist()]
    with np.errstate(over="ignore", invalid="ignore"):
        assert not np.isfinite(torsion_at(spec, points[0])).all()
    with pytest.raises(SpecError, match=r"^curvature residual is not finite at "
                       + re.escape(str(points[0]))):
        exponential_chart(spec, (0.0, 0.0))


def _pullback_with(entry):
    gamma = [[["0", "0"], ["0", "0"]], [["0", "0"], ["0", "0"]]]
    gamma[1][0][0] = entry
    return gamma


def test_constant_gamma_domain_error(tmp_path, capsys):
    # the gate meets it first, in the CLI; the integrator alone raises it too
    doc = {"dimension": 2, "coordinates": ["u", "v"],
           "metric": {"components": [["1 + 4*u^2", "-2*u"], ["-2*u", "1"]]},
           "connection": {"kind": "explicit", "gamma": _pullback_with("log(0 - 1)")},
           "sample_box": [[-1, 1], [-1, 1]]}
    path = tmp_path / "const-domain.json"
    path.write_text(json.dumps(doc))
    assert main(["affine-chart", str(path)]) == 1
    assert json.loads(capsys.readouterr().out) == {
        "error": {"kind": "EvalDomainError",
                  "message": "log of non-positive value -1.0 at offset 0"},
        "status": "error"}
    chart = ChartMap(spec_from_dict(doc), (0.1, 0.0))
    with pytest.raises(EvalDomainError, match="value -1.0 at"):
        chart.probe_jets([(0.1, 0.0), (0.0, 0.1)])


def test_constant_gamma_domain_error_keeps_term_order():
    # a coordinate-dependent term before it fails at the first stage too:
    # its error comes first, as when every term was evaluated at every stage
    gamma = _pullback_with("log(0 - 1)")
    gamma[0][0][0] = "log(u - 5)"
    spec = build_spec("two-failures", ("u", "v"), [(-1, 1), (-1, 1)],
                      metric=[["1", "0"], ["0", "1"]], connection="explicit", gamma=gamma)
    chart = ChartMap(spec, (0.1, 0.0))
    with pytest.raises(EvalDomainError, match=r"value -4\.9 at"):
        chart.probe_jets([(0.1, 0.0), (0.0, 0.1)])


class _HalfCollapsedChart(ChartMap):
    """The identity map at probes with a[0] >= 0; sends the others to x0, so
    their Jacobian is zero."""

    def probe_jets(self, probes, order=2):
        out = []
        for a in probes:
            coords = (ref.seed_embedded([c + s for c, s in zip(self.x0, a)], order,
                                         self.spec.n, 0)
                      if a[0] >= 0 else [Jet.constant(c, order, self.spec.n) for c in self.x0])
            out.append(np.stack([ref.coefficients(c) for c in coords]))
        return JetBatch(order, self.spec.n, np.stack(out))


def test_singular_chart_jacobian_names_the_first_probe():
    chart = _HalfCollapsedChart(EUCLID, (0.0, 0.0))
    points = [(0.1, 0.0), (-0.1, 0.05), (-0.2, 0.0)]
    with pytest.raises(SpecError, match=re.escape("singular chart Jacobian at probe "
                                                  "(-0.1, 0.05)")):
        _probe_residuals(chart, points, (0.7, -0.4))
    assert _probe_residuals(chart, points[:1], (0.7, -0.4)).maxima == {
        "pushforward_connection": 0.0, "born_block": 0.0}


# -- work done once ------------------------------------------------------------

def test_constant_gamma_is_evaluated_once_per_integration(monkeypatch):
    assert fields.connection_support(PULLBACK) == ((1, 0, 0),)
    assert not PULLBACK.gamma_exprs.free[4]  # (1, 0, 0)
    rk4, evaluate = charts._rk4, expr.evaluate
    counts, inside = {"rk4": 0, "in_rk4": 0}, [False]

    def counted_rk4(*args):
        counts["rk4"] += 1
        inside[0] = True
        try:
            return rk4(*args)
        finally:
            inside[0] = False

    def counted_evaluate(program, args):
        if inside[0]:
            counts["in_rk4"] += 1
        return evaluate(program, args)

    monkeypatch.setattr(charts, "_rk4", counted_rk4)
    monkeypatch.setattr(expr, "evaluate", counted_evaluate)
    out = affine_chart_witness(PULLBACK, (0.0, 0.0), 6, 1.0)
    assert out["witnessed"]
    # one integration of all probes, and one evaluation in it, not 4 x 64
    assert counts == {"rk4": 1, "in_rk4": 1}


# Gamma^1_00 = u - 2 varies with the position, and its evaluation takes no
# jet product
PULLBACK_LINEAR = build_spec(
    "pullback-linear", ("u", "v"), [(-1, 1), (-1, 1)], metric=[["1", "0"], ["0", "1"]],
    connection="explicit", gamma=_pullback_with("u - 2"))


def _count_products(monkeypatch):
    """The jet product kernel calls on the probe batch, appended to a list:
    evaluating Gamma folds its constant subexpressions (all-constants2's
    2*0.5) once per integration, on (K,) coefficients, which do not count."""
    calls = []
    product = jets._product_coeffs

    def counted(a, b, *args):
        if np.ndim(b) > 1:  # (B, T, K) on the probe batch, (K,) for a constant
            calls.append(args)
        return product(a, b, *args)

    monkeypatch.setattr(jets, "_product_coeffs", counted)
    return calls


PRODUCT_VELOCITIES = np.array([[0.05, 0.02], [-0.03, 0.04], [0.0, -0.0]])


@pytest.mark.parametrize("spec,per_step", [(EUCLID, 0), (HESSIAN, 0), (CROSS_FEEDING2, 8),
                                           (ALL_CONSTANTS2, 8), (PULLBACK_LINEAR, 8)])
def test_jet_products_per_step(spec, per_step, monkeypatch):
    # no product without acceleration; both products at each of the four
    # stages, for a constant Gamma that reads a component it writes and for
    # a varying one
    calls = _count_products(monkeypatch)
    steps = 8
    charts._rk4(spec, (0.1, 0.1), PRODUCT_VELOCITIES, 2, steps)
    assert len(calls) == per_step * steps


@pytest.mark.parametrize("steps", [8, 64])
def test_uniform_acceleration_takes_two_kernel_calls(steps, monkeypatch):
    # pullback-flat's Gamma^1_00 reads u^0 and writes u^1: k1 and the one
    # value of every later stage, two products each, whatever the number of
    # steps
    calls = _count_products(monkeypatch)
    charts._rk4(PULLBACK, (0.1, 0.1), PRODUCT_VELOCITIES, 2, steps)
    assert len(calls) == 4


@pytest.mark.parametrize("spec,checks", [(PULLBACK, 3), (PULLBACK_CHAIN3, 3)])
def test_box_checks_per_integration(spec, checks, monkeypatch):
    # an acceleration that does not read the position is scanned in chunks
    # of DEFAULT_STEPS steps, here 64 + 64 + 2: the uniform form
    # (pullback-flat) and the per-stage form of a constant Gamma
    # (pullback-chain3) alike
    calls = []
    check_box = charts._check_box

    def counted(*args):
        calls.append(args)
        return check_box(*args)

    monkeypatch.setattr(charts, "_check_box", counted)
    velocities = np.array([(0.05, 0.02, -0.01), (-0.03, 0.04, 0.0)])[:, :spec.n]
    charts._rk4(spec, (0.1,) * spec.n, velocities, 2, 130)
    assert len(calls) == checks


def test_gate_evaluates_the_connection_once(monkeypatch):
    calls = []
    connection_args = fields.connection_args

    def counted(spec, args):
        calls.append((len(args[0].coeffs), args[0].order))
        return connection_args(spec, args)

    monkeypatch.setattr(fields, "connection_args", counted)
    exponential_chart(PULLBACK, (0.0, 0.0))
    # one order-1 batch over the gate points, not curvature and torsion
    # at each point one at a time
    assert calls == [(GATE_POINTS, 1)]


@pytest.mark.parametrize("name,probes,seed", [("pullback-flat", 12, 42), ("twisted3", 3, 7),
                                              ("potential4", 1, 3), ("twisted5", 9, 11)])
def test_witness_places_probes_and_gate_points_as_the_per_point_loops(name, probes, seed,
                                                                    monkeypatch):
    # the array expressions give the bits of the per-point loops they replaced;
    # at n = 5 the probe cube is shrunk by 2/sqrt(n)
    spec = REFERENCE_SPECS.get(name) or load_spec(
        str(Path(__file__).parent / "golden" / "specs" / f"{name}.json"))
    seen = {}

    def record(key, fn):  # fn's second argument is the points it is given
        def wrapper(first, points, *rest):
            seen[key] = points
            return fn(first, points, *rest)
        monkeypatch.setattr(charts, fn.__name__, wrapper)
    record("gate", charts._gate_connection)
    record("probes", charts._probe_residuals)
    x0 = tuple(0.5 * (lo + hi) for lo, hi in spec.sample_box)
    affine_chart_witness(spec, x0, probes, 1.0, steps=4, seed=seed)
    scale = min((hi - lo) / 2.0 for lo, hi in spec.sample_box) / 2.0 * min(
        1.0, 2.0 / math.sqrt(spec.n))
    want_probes = [tuple(scale * (2 * u - 1) / 2) for u in halton_points(probes, spec.n, seed)]
    want_gate = [tuple(float(c) for c in p) for p in sample_points(spec, GATE_POINTS, seed)]
    for got, want in ((seen["probes"], want_probes), (seen["gate"], want_gate)):
        assert all(type(p) in (list, tuple) and type(p[0]) is float for p in got)
        assert np.array_equal(np.array(got).view(np.int64), np.array(want).view(np.int64))
