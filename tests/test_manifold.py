import dataclasses
import math

import numpy as np
import pytest

import jet_reference as ref
from bornbundle import corpus, expr, fields, jets
from bornbundle.cli import spec_from_dict
from bornbundle.errors import NotPositiveDefiniteError, SpecError
from bornbundle.integrability import integrability_verdict
from bornbundle.jets import JetUsageError
from bornbundle.manifold import (DEFAULT_TOL, _first_failure, base_jets, build_spec,
                                 dual_and_levi_civita, finite_maxima, sample_points)
from point import (connection_at, curvature_at, dual_connection_at, dual_of, hessian_verdict,
                   levi_civita_at, metric_at, nabla_g_at, torsion_at, two_of_four_residuals)

EUCLID = corpus.example("euclidean2")
HESSIAN = corpus.example("hessian-exp2")
SKEW = corpus.example("flat-skew-metric")
SPHERE = corpus.example("sphere2")
TORSIONFUL = corpus.example("flat-torsionful")
PULLBACK = corpus.example("pullback-flat")
ALL = [EUCLID, HESSIAN, SKEW, SPHERE, TORSIONFUL, PULLBACK]


def points_of(spec, count=6, seed=7):
    return [tuple(p) for p in sample_points(spec, count, seed)]


# -- independent oracles ---------------------------------------------------

def fd_metric(spec, p, h=1e-4):
    """Metric values by direct expression evaluation (no jets beyond values)."""

    def value(ast, q):
        return expr.evaluate(ast, ref.seed_embedded(q, 0, spec.n)).value

    n = spec.n
    g = np.empty((n, n))
    if spec.potential is None:
        for i in range(n):
            for j in range(n):
                g[i, j] = 0.5 * (value(spec.metric_exprs[i][j], p)
                                 + value(spec.metric_exprs[j][i], p))
        return g
    # second central differences of the potential
    for i in range(n):
        for j in range(n):
            def dphi_i(q, i=i):
                hi = list(q)
                lo = list(q)
                hi[i] += h
                lo[i] -= h
                return (value(spec.potential, hi) - value(spec.potential, lo)) / (2 * h)

            g[i, j] = ref.fd_oracle(dphi_i, p, h)[j]
    return g


def fd_curvature(spec, p, h=1e-6):
    """Curvature from central differences of the connection values."""
    n = spec.n

    def gamma_at(q):
        return ref.jet_values(ref.connection_jets(spec, q, 0))

    dg = np.empty((n, n, n, n))
    for d in range(n):
        hi = list(p)
        lo = list(p)
        hi[d] += h
        lo[d] -= h
        dg[d] = (gamma_at(hi) - gamma_at(lo)) / (2 * h)
    gv = gamma_at(p)
    half = np.einsum("iljk->lijk", dg) + np.einsum("lim,mjk->lijk", gv, gv)
    return half - half.transpose(0, 2, 1, 3)


# -- metric ------------------------------------------------------------------

def test_euclidean_metric_is_identity():
    for p in points_of(EUCLID):
        assert np.array_equal(metric_at(EUCLID, p), np.eye(2))


def test_quadratic_potential_gives_identity():
    spec = build_spec("quad", ("u", "v"), [(-1, 1), (-1, 1)],
                      potential="u^2/2 + v^2/2", connection="flat")
    for p in points_of(spec):
        assert metric_at(spec, p) == pytest.approx(np.eye(2), abs=1e-14)


def test_exp_potential_metric_values():
    g0 = metric_at(HESSIAN, (0.0, 0.0))
    assert g0 == pytest.approx(np.diag([1.0, 1.0]), abs=1e-14)
    g1 = metric_at(HESSIAN, (1.0, 0.0))
    assert g1 == pytest.approx(np.diag([math.e, 1.0]), abs=1e-12)


@pytest.mark.parametrize("spec", ALL, ids=lambda s: s.name)
def test_metric_matches_fd_oracle(spec):
    for p in points_of(spec, 4):
        got = metric_at(spec, p)
        want = fd_metric(spec, p)
        assert got == pytest.approx(want, abs=1e-6)


def test_metric_is_symmetric_and_spd_checked():
    bad = build_spec("bad", ("u", "v"), [(-1, 1), (-1, 1)],
                     metric=[["u", "0"], ["0", "1"]], connection="flat")
    with pytest.raises(NotPositiveDefiniteError) as exc:
        metric_at(bad, (-0.5, 0.0))
    assert exc.value.smallest_pivot == pytest.approx(-0.5)


def test_asymmetric_grid_is_symmetrized_on_load():
    spec = build_spec("asym", ("u", "v"), [(-1, 1), (-1, 1)],
                      metric=[["1", "u"], ["0", "2"]], connection="flat")
    g = metric_at(spec, (0.4, 0.0))
    assert g[0, 1] == g[1, 0] == pytest.approx(0.2)


def test_point_outside_box_rejected():
    with pytest.raises(SpecError):
        metric_at(EUCLID, (2.0, 0.0))


@pytest.mark.parametrize("box", [[(-1, math.inf), (-1, 1)], [(-1, 1), (-math.inf, 1)],
                                 [(-1, 1), (math.nan, 1)]])
def test_non_finite_sample_box_rejected(box):
    # an infinite bound would put a sample point or a chart base point at inf
    with pytest.raises(SpecError, match="is not finite"):
        build_spec("inf-box", ("u", "v"), box, metric=[["1", "0"], ["0", "1"]])


# -- connection ---------------------------------------------------------------

def test_flat_connection_is_zero():
    for p in points_of(EUCLID):
        assert np.array_equal(connection_at(EUCLID, p), np.zeros((2, 2, 2)))


def test_sphere_christoffels_closed_form():
    th = math.pi / 4
    gamma = connection_at(SPHERE, (th, 0.5))
    # Gamma^theta_{phi phi} = -sin cos, Gamma^phi_{theta phi} = cot
    assert gamma[0, 1, 1] == pytest.approx(-math.sin(th) * math.cos(th), abs=1e-12)
    assert gamma[0, 1, 1] == pytest.approx(-0.5, abs=1e-12)
    assert gamma[1, 0, 1] == pytest.approx(1.0 / math.tan(th), abs=1e-12)
    assert gamma[1, 1, 0] == pytest.approx(1.0 / math.tan(th), abs=1e-12)
    assert gamma[0, 0, 0] == gamma[0, 0, 1] == gamma[1, 0, 0] == gamma[1, 1, 1] == 0.0


def test_euclidean_levi_civita_is_zero():
    spec = build_spec("euclid-lc", ("u", "v"), [(-1, 1), (-1, 1)],
                      metric=[["1", "0"], ["0", "1"]], connection="levi-civita")
    for p in points_of(spec):
        assert np.array_equal(connection_at(spec, p), np.zeros((2, 2, 2)))


def test_levi_civita_at_works_for_any_connection_kind():
    p = (0.3, 0.2)
    lc = levi_civita_at(SKEW, p)
    # metric diag(1, e^u): Gamma^v_uv = 1/2, Gamma^u_vv = -e^u/2
    assert lc[1, 0, 1] == pytest.approx(0.5, abs=1e-12)
    assert lc[1, 1, 0] == pytest.approx(0.5, abs=1e-12)
    assert lc[0, 1, 1] == pytest.approx(-0.5 * math.exp(0.3), abs=1e-12)


# -- torsion -------------------------------------------------------------------

def test_torsion_of_levi_civita_vanishes():
    for p in points_of(SPHERE):
        assert np.max(np.abs(torsion_at(SPHERE, p))) == 0.0


def test_explicit_torsion():
    t = torsion_at(TORSIONFUL, (0.1, 0.2))
    assert t[0, 0, 1] == 1.0
    assert t[0, 1, 0] == -1.0
    assert np.count_nonzero(t) == 2


@pytest.mark.parametrize("spec", ALL, ids=lambda s: s.name)
def test_torsion_antisymmetry_exact(spec):
    for p in points_of(spec, 4):
        t = torsion_at(spec, p)
        assert np.array_equal(t, -t.transpose(0, 2, 1))


# -- curvature ------------------------------------------------------------------

def test_flat_curvature_is_zero():
    for p in points_of(EUCLID):
        assert np.max(np.abs(curvature_at(EUCLID, p))) == 0.0


def test_sphere_curvature_magnitude():
    th = math.pi / 2
    r = curvature_at(SPHERE, (th, 1.0))
    g = metric_at(SPHERE, (th, 1.0))
    lowered = np.einsum("lm,mijk->lijk", g, r)
    # magnitude of the theta-phi-theta-phi component is sin^2(theta)
    assert abs(lowered[0, 1, 0, 1]) == pytest.approx(math.sin(th) ** 2, abs=1e-10)
    r2 = curvature_at(SPHERE, (math.pi / 4, 1.0))
    g2 = metric_at(SPHERE, (math.pi / 4, 1.0))
    lowered2 = np.einsum("lm,mijk->lijk", g2, r2)
    assert abs(lowered2[0, 1, 0, 1]) == pytest.approx(0.5, abs=1e-10)


def test_pullback_connection_is_flat():
    for p in points_of(PULLBACK):
        assert np.max(np.abs(curvature_at(PULLBACK, p))) <= 1e-10


@pytest.mark.parametrize("spec", ALL, ids=lambda s: s.name)
def test_curvature_matches_fd_oracle(spec):
    for p in points_of(spec, 3, seed=11):
        got = curvature_at(spec, p)
        want = fd_curvature(spec, p)
        assert got == pytest.approx(want, abs=5e-4)


@pytest.mark.parametrize("spec", ALL, ids=lambda s: s.name)
def test_curvature_antisymmetry(spec):
    for p in points_of(spec, 4):
        r = curvature_at(spec, p)
        assert np.max(np.abs(r + r.transpose(0, 2, 1, 3))) <= 1e-12


# -- dual connection ---------------------------------------------------------------

def test_dual_of_flat_euclidean_is_zero():
    for p in points_of(EUCLID):
        assert np.max(np.abs(dual_connection_at(EUCLID, p))) == 0.0


def test_levi_civita_is_self_dual():
    for p in points_of(SPHERE, 4):
        gamma = connection_at(SPHERE, p)
        dual = dual_connection_at(SPHERE, p)
        assert dual == pytest.approx(gamma, abs=1e-12)


def test_dual_of_skew_metric_by_hand():
    dual = dual_connection_at(SKEW, (0.0, 0.0))
    want = np.zeros((2, 2, 2))
    want[1, 0, 1] = 1.0  # g^vv d_u g_vv = e^-u e^u
    assert dual == pytest.approx(want, abs=1e-14)


def test_dual_of_skew_metric_fd_crosscheck():
    p = (0.3, -0.2)
    h = 1e-6

    def g_at(q):
        return metric_at(SKEW, q)

    n = 2
    dg = np.empty((n, n, n))
    for d in range(n):
        hi = list(p)
        lo = list(p)
        hi[d] += h
        lo[d] -= h
        dg[d] = (g_at(hi) - g_at(lo)) / (2 * h)
    ginv = np.linalg.inv(g_at(p))
    want = np.einsum("lj,ijk->lik", ginv, dg)  # flat connection drops out
    got = dual_connection_at(SKEW, p)
    assert got == pytest.approx(want, abs=1e-6)


@pytest.mark.parametrize("spec", ALL, ids=lambda s: s.name)
def test_dual_defining_identity(spec):
    # d_i g_jk = Gamma^l_ij g_lk + g_jl Gamma*^l_ik
    for p in points_of(spec, 4):
        g = metric_at(spec, p)
        dg = np.moveaxis(fields.metric_args(spec, jets.seed_batch([p], 1), 1).coeffs[0],
                         -1, 0)[1:]
        resid = (dg - np.einsum("lij,lk->ijk", connection_at(spec, p), g)
                 - np.einsum("jl,lik->ijk", g, dual_connection_at(spec, p)))
        assert float(np.max(np.abs(resid))) <= 1e-12


@pytest.mark.parametrize("spec", ALL, ids=lambda s: s.name)
def test_dual_of_dual_returns_original(spec):
    for p in points_of(spec, 4):
        args = jets.seed_batch([p], 0)
        gamma = fields.connection_args(spec, args, 0)
        first = dual_of(spec, args, gamma, 0)
        second = dual_of(spec, args, first, 0)
        diff = second.value - gamma.value
        assert np.max(np.abs(diff)) <= 1e-10


# -- covariant derivative of the metric -----------------------------------------------

def test_nabla_g_euclidean():
    ng, asym = nabla_g_at(EUCLID, (0.2, -0.7))
    assert np.max(np.abs(ng)) == 0.0
    assert asym == 0.0


def test_nabla_g_skew_metric_by_hand():
    ng, asym = nabla_g_at(SKEW, (0.0, 0.0))
    assert ng[0, 1, 1] == pytest.approx(1.0, abs=1e-14)
    assert ng[1, 0, 1] == 0.0
    assert asym == pytest.approx(1.0, abs=1e-14)


def test_nabla_g_hessian_potential_is_symmetric():
    for p in points_of(HESSIAN):
        _, asym = nabla_g_at(HESSIAN, p)
        assert asym <= 1e-12


@pytest.mark.parametrize("spec", ALL, ids=lambda s: s.name)
def test_levi_civita_parallel_metric(spec):
    lc_spec = dataclasses.replace(spec, name="lc-variant", connection_kind="levi-civita",
                                  gamma_exprs=None)
    for p in points_of(lc_spec, 4):
        _, asym = nabla_g_at(lc_spec, p)
        ng, _ = nabla_g_at(lc_spec, p)
        assert np.max(np.abs(ng)) <= 1e-10


# -- verdicts -----------------------------------------------------------------------

def test_hessian_verdict_euclidean():
    v = hessian_verdict(EUCLID, points_of(EUCLID, 8))
    assert v.is_hessian
    assert v.max_curvature == v.max_torsion == v.max_nabla_g_asymmetry == 0.0


def test_hessian_verdict_skew_metric():
    pts = points_of(SKEW, 8)
    v = hessian_verdict(SKEW, pts)
    assert not v.is_hessian
    expected = max(math.exp(p[0]) for p in pts)
    assert v.max_nabla_g_asymmetry == pytest.approx(expected, rel=1e-10)


def test_hessian_verdict_sphere():
    v = hessian_verdict(SPHERE, points_of(SPHERE, 8))
    assert not v.is_hessian
    assert v.max_curvature >= 0.1


def test_hessian_verdict_needs_points():
    # the package's guard: the sweep needs at least one base and one fiber point
    for counts in ({"base_count": 0}, {"fiber_count": 0}):
        with pytest.raises(ValueError, match="^sample counts must be at least 1$"):
            integrability_verdict(EUCLID, **counts)


def test_two_of_four_levi_civita_all_zero():
    rep = two_of_four_residuals(SPHERE, points_of(SPHERE, 6))
    assert all(v <= 1e-10 for v in rep.residuals.values())
    assert all(rep.holds.values())
    assert not rep.fact_violated


def test_two_of_four_hessian_potential():
    rep = two_of_four_residuals(HESSIAN, points_of(HESSIAN, 6))
    assert all(v <= 1e-10 for v in rep.residuals.values())
    assert not rep.fact_violated


def test_two_of_four_torsionful():
    rep = two_of_four_residuals(TORSIONFUL, points_of(TORSIONFUL, 6))
    assert rep.residuals["torsion"] > 0.5
    others = [v for k, v in rep.residuals.items() if k != "torsion"]
    assert sum(1 for v in others if v > DEFAULT_TOL) >= 1
    assert not rep.fact_violated


@pytest.mark.parametrize("spec", ALL, ids=lambda s: s.name)
def test_fact_two_of_four_pattern(spec):
    rep = two_of_four_residuals(spec, points_of(spec, 6))
    below = sum(1 for v in rep.residuals.values() if v <= 1e-9)
    if below >= 2:
        assert all(v <= 1e-7 for v in rep.residuals.values())
    assert not rep.fact_violated


def _diagonal(entries):
    n = len(entries)
    return [[entries[i] if i == j else "0" for j in range(n)] for i in range(n)]


def _gamma_00(coefficients):
    """An explicit connection whose only nonzero entries are Gamma^k_00."""
    n = len(coefficients)
    grid = [[["0"] * n for _ in range(n)] for _ in range(n)]
    for k, c in enumerate(coefficients):
        grid[k][0][0] = c
    return {"kind": "explicit", "gamma": grid}


def _generated(n, metric, connection):
    return {"dimension": n, "coordinates": [f"x{i}" for i in range(n)],
            "metric": metric, "connection": connection,
            "sample_box": [[-1, 1]] * n}


# Levi-Civita of a curved diagonal metric, a flat connection with a potential
# metric, and the straight coordinates w_k = x_k + c_k x0^2 written in x
GENERATED = {
    "lc3": _generated(3, {"components": _diagonal(
        ["exp(0.7*x1)", "exp(-0.5*x2)", "exp(0.8*x0)"])}, {"kind": "levi-civita"}),
    "lc4": _generated(4, {"components": _diagonal(
        ["exp(0.6*x1)", "exp(-0.9*x2)", "exp(0.4*x3)", "exp(-0.7*x0)"])},
        {"kind": "levi-civita"}),
    "potential3": _generated(3, {"potential": (
        "2.974*exp(0.985*x0) + 2.969*exp(1.19*x1) + 2.291*exp(0.962*x2)"
        " + 0.023*x0*x1 - 0.066*x0*x2 - 0.035*x1*x2")}, {"kind": "flat"}),
    "potential4": _generated(4, {"potential": (
        "2.5*exp(0.9*x0) + 2.2*exp(1.1*x1) + 2.8*exp(0.85*x2) + 2.1*exp(1.05*x3)"
        " + 0.04*x0*x1 - 0.07*x0*x3 + 0.02*x1*x2 - 0.05*x2*x3")}, {"kind": "flat"}),
    "twisted3": _generated(3, {"components": [
        ["1.2 + 4.54*x0^2", "0.7*x0", "-2.4*x0"],
        ["0.7*x0", "0.7", "0"],
        ["-2.4*x0", "0", "1.5"]]}, _gamma_00(["0", "1.0", "-1.6"])),
    "twisted4": _generated(4, {"components": [
        ["1.2 + 4.864*x0^2", "0.7*x0", "-2.4*x0", "0.54*x0"],
        ["0.7*x0", "0.7", "0", "0"],
        ["-2.4*x0", "0", "1.5", "0"],
        ["0.54*x0", "0", "0", "0.9"]]}, _gamma_00(["0", "1.0", "-1.6", "0.6"])),
}


@pytest.mark.parametrize("source", list(corpus.BUILTIN_BUILDERS) + list(GENERATED))
def test_sweep_dual_and_levi_civita_match_fields(source):
    # the two-of-four report reads the dual and Levi-Civita from the sweep's
    # base-point jets; they must be the fields' order-0 values bit for bit,
    # the signs of zeros included
    if source in GENERATED:
        spec = spec_from_dict(GENERATED[source], name=source)
    else:
        spec = corpus.example(source)
    points = points_of(spec, 16, 42)
    bases = base_jets(spec, points)
    for p, x in enumerate(points):
        dual, lc = dual_and_levi_civita(bases.gamma[p, 0], bases.g[p])
        for got, want in ((dual, dual_connection_at(spec, x)),
                          (lc, levi_civita_at(spec, x))):
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)
            assert np.array_equal(np.signbit(got), np.signbit(want))


# -- sampling ------------------------------------------------------------------------

def test_sample_points_inside_box_and_deterministic():
    a = sample_points(SPHERE, 32, 42)
    b = sample_points(SPHERE, 32, 42)
    assert np.array_equal(a, b)
    for p in a:
        assert SPHERE.contains(p)
    c = sample_points(SPHERE, 32, 43)
    assert not np.array_equal(a, c)


# -- residual maxima ---------------------------------------------------------------

@pytest.mark.parametrize("points,message", [
    ([(0.5, 0.5), (2.0, 0.0), (0.0, -3.0)], r"point \(2\.0, 0\.0\) lies outside the sample box"),
    ([(0.5, 0.5), (0.0, 0.0, 0.0), (2.0, 0.0)], "point has 3 coordinates, expected 2"),
    ([(0.5, 0.5), (0.1,)], "point has 1 coordinates, expected 2"),
    ([(0.5, math.nan)], r"point \(0\.5, nan\) lies outside the sample box"),
], ids=["outside", "long", "short", "nan"])
def test_base_jets_names_the_first_point_it_rejects(points, message):
    # the box is checked on the whole point array; a point it rejects is
    # named by the per-point check, with its own message
    with pytest.raises(SpecError, match=message):
        base_jets(EUCLID, points)


def test_finite_maxima_per_point():
    got = finite_maxima({"a": [[1.0, -2.0], [0.5, -0.0]], "b": [3.0, -4.0]}, ["p", "q"])
    assert list(got) == ["a", "b"]
    assert got["a"].tolist() == [2.0, 0.5]
    assert got["b"].tolist() == [3.0, 4.0]


def test_finite_maxima_over_a_point_grid_in_any_layout():
    # points running over the leading (P, F) axes, in C order, of stacks held
    # points last in memory, as the Born sweep holds them
    rng = np.random.default_rng(4)
    stack = rng.normal(size=(3, 5, 2, 3)).transpose(2, 3, 0, 1)  # (2, 3, 3, 5)
    single = rng.normal(size=(7, 6, 1)).transpose(1, 2, 0)  # (6, 1, 7)
    got = finite_maxima({"stack": stack, "single": single}, list(range(6)))
    for name, r in (("stack", stack), ("single", single)):
        want = np.max(np.abs(np.reshape(r, (6, -1))), axis=1)
        assert got[name].shape == (6,)
        assert np.array_equal(got[name], want)
    one = finite_maxima({"one": np.ones((1, 1, 3))}, ["p"])
    assert one["one"].tolist() == [1.0]


@pytest.mark.parametrize("stacks,message", [
    # the first point with a non-finite residual wins over the residual order
    ({"a": [0.0, 0.0, np.nan], "b": [0.0, np.inf, 0.0]},
     "b residual is not finite at q (value inf)"),
    # at one point, the first residual in the order given
    ({"a": [0.0, np.nan, 0.0], "b": [0.0, -np.inf, 0.0]},
     "a residual is not finite at q (value nan)"),
])
def test_finite_maxima_names_first_non_finite(stacks, message):
    with pytest.raises(SpecError) as err:
        finite_maxima(stacks, ["p", "q", "r"])
    assert str(err.value) == message


# -- first failure -----------------------------------------------------------------

def _items(errors, count=5):
    """An evaluation of items 0..count-1 that records the slices it is called
    with.  A slice holding items of ``errors`` raises the error of the last
    of them, as a batch may meet a later item's failure first."""
    calls = []

    def evaluate(s):
        calls.append(s)
        items = list(range(count))[s]
        for i in reversed(items):
            if i in errors:
                raise errors[i]
        return items
    return evaluate, calls


def test_first_failure_calls_once_on_success():
    evaluate, calls = _items({})
    assert _first_failure(evaluate, 5) == [0, 1, 2, 3, 4]
    assert calls == [slice(None)]


@pytest.mark.parametrize("k", [0, 1, 3])
@pytest.mark.parametrize("kind", [SpecError, ZeroDivisionError])
def test_first_failure_raises_the_first_items_error(k, kind):
    first, last = kind(f"item {k}"), SpecError("item 4")
    evaluate, calls = _items({k: first, 4: last})
    with pytest.raises(kind) as err:
        _first_failure(evaluate, 5)
    assert err.value is first
    assert calls == [slice(None)] + [slice(i, i + 1) for i in range(k + 1)]


def test_first_failure_reraises_the_batch_error_if_no_item_fails():
    batch = OverflowError("batch")

    def evaluate(s):
        calls.append(s)
        if s == slice(None):
            raise batch
    calls = []
    with pytest.raises(OverflowError) as err:
        _first_failure(evaluate, 3)
    assert err.value is batch
    assert calls == [slice(None), slice(0, 1), slice(1, 2), slice(2, 3)]
    # one item is its own batch: no second call
    calls.clear()
    with pytest.raises(OverflowError):
        _first_failure(evaluate, 1)
    assert calls == [slice(None)]


@pytest.mark.parametrize("fault", [JetUsageError("order mismatch"),
                                   np.linalg.LinAlgError("Singular matrix")])
def test_first_failure_does_not_retry_internal_faults(fault):
    evaluate, calls = _items({2: fault})
    with pytest.raises(type(fault)) as err:
        _first_failure(evaluate, 5)
    assert err.value is fault
    assert calls == [slice(None)]
