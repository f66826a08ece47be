import dataclasses
import itertools
import math
from pathlib import Path

import numpy as np
import pytest

from bornbundle import corpus, integrability
from bornbundle.bundle import adapted_frame_residuals, fiber_born_jets
from bornbundle.cli import load_spec, spec_from_dict
from bornbundle.errors import SpecError
from bornbundle.integrability import (_d_omega_of, _nijenhuis_of, _norm_factor,
                                      integrability_verdict)
from bornbundle.manifold import (CROSS_TOL, Residuals, _curvature_of, _nabla_g_of,
                                 _torsion_of, base_jets, build_spec, finite_maxima,
                                 sample_fibers, sample_points)
from test_manifold import GENERATED, _diagonal, _gamma_00, _generated
from point import (BundlePoint, assert_same_bits, born_at, d_omega_at, dual_connection_at,
                   frame_bracket_residuals, named_tensors, nijenhuis_at,
                   nijenhuis_J_identity_residuals, torsion_at)

EUCLID = corpus.example("euclidean2")
HESSIAN = corpus.example("hessian-exp2")
SKEW = corpus.example("flat-skew-metric")
SPHERE = corpus.example("sphere2")
TORSIONFUL = corpus.example("flat-torsionful")
PULLBACK = corpus.example("pullback-flat")
ALL = [EUCLID, HESSIAN, SKEW, SPHERE, TORSIONFUL, PULLBACK]
# identity metric, Gamma^0_01 = 1 and Gamma^1_00 = v: torsion and curvature both
# nonzero, so no global sign can hide a wrong relative sign between them
TORS_CURV = load_spec(str(Path(__file__).parent.parent / "scripts" / "specs"
                          / "tors-curv.json"))
# n = 5, where N_J is contracted into the adapted frame at 2n = 10: the
# Levi-Civita connection of a curved diagonal metric, and a flat torsion-free
# explicit connection whose only nonzero entries are constant Gamma^k_00
LC5 = spec_from_dict(_generated(5, {"components": _diagonal(
    ["exp(0.6*x1)", "exp(-0.9*x2)", "exp(0.4*x3)", "exp(-0.7*x4)", "exp(0.5*x0)"])},
    {"kind": "levi-civita"}), name="lc5")
TWISTED5 = load_spec(str(Path(__file__).parent / "golden" / "specs" / "twisted5.json"))


def bundle_points(spec, n_base=3, n_fiber=3, radius=1.0, seed=5):
    base = sample_points(spec, n_base, seed)
    fibers = sample_fibers(spec.n, n_fiber, radius, seed)
    return [BundlePoint(tuple(x), tuple(y)) for x in base for y in fibers]


# -- independent oracle: the vector-field definition with fd brackets --------

def nijenhuis_fd(spec, which, bp, h=1e-6):
    """N_A(d_a, d_b) from A^2[X,Y] - A([AX,Y] + [X,AY]) + [AX,AY] with
    finite-difference derivatives of the tensor field A."""
    n = spec.n
    nv = 2 * n

    def a_mat(z):
        return getattr(born_at(spec, BundlePoint(tuple(z[:n]), tuple(z[n:]))), which)

    z0 = np.asarray(bp.x + bp.y, dtype=float)
    da = np.empty((nv, nv, nv))  # da[m, l, b] = d_m A^l_b
    for m in range(nv):
        hi = z0.copy()
        lo = z0.copy()
        hi[m] += h
        lo[m] -= h
        da[m] = (a_mat(hi) - a_mat(lo)) / (2 * h)
    a0 = a_mat(z0)
    out = np.empty((nv, nv, nv))
    for a in range(nv):
        for b in range(nv):
            # [AX, Y] = -d_b(A e_a), [X, AY] = d_a(A e_b)
            br_ax_y = -da[b, :, a]
            br_x_ay = da[a, :, b]
            # [AX, AY]^l = A^m_a d_m A^l_b - A^m_b d_m A^l_a
            br_ax_ay = np.einsum("m,ml->l", a0[:, a], da[:, :, b]) \
                - np.einsum("m,ml->l", a0[:, b], da[:, :, a])
            out[:, a, b] = -a0 @ (br_ax_y + br_x_ay) + br_ax_ay
    return out


# -- Nijenhuis ----------------------------------------------------------------

def test_euclidean_nijenhuis_zero_exact():
    bp = BundlePoint((0.3, -0.2), (0.8, 0.4))
    for which in "IJK":
        assert np.max(np.abs(nijenhuis_at(EUCLID, which, bp))) == 0.0


def test_sphere_nijenhuis_K_nonzero_and_matches_definition():
    bp = BundlePoint((math.pi / 4, 0.0), (0.0, 1.0))
    nk = nijenhuis_at(SPHERE, "K", bp)
    assert np.max(np.abs(nk)) > 0.1
    inner = BundlePoint((math.pi / 4, 0.5), (0.0, 1.0))  # fd stencil stays in box
    got = nijenhuis_at(SPHERE, "K", inner)
    oracle = nijenhuis_fd(SPHERE, "K", inner)
    scale = max(1.0, np.max(np.abs(got)))
    assert np.max(np.abs(got - oracle)) / scale <= 1e-6


def test_flat_skew_nijenhuis_all_vanish():
    for bp in bundle_points(SKEW):
        for which in "IJK":
            assert np.max(np.abs(nijenhuis_at(SKEW, which, bp))) <= 1e-10
    bp = bundle_points(SKEW, 1, 1)[0]
    oracle = nijenhuis_fd(SKEW, "I", bp)
    assert np.max(np.abs(oracle)) <= 1e-6


def test_nijenhuis_antisymmetry_exact():
    for spec in (SPHERE, TORSIONFUL, PULLBACK):
        bp = bundle_points(spec, 2, 2)[0]
        for which in "IJK":
            n = nijenhuis_at(spec, which, bp)
            assert np.array_equal(n, -n.transpose(0, 2, 1))


@pytest.mark.parametrize("spec", ALL, ids=lambda s: s.name)
def test_tensoriality_spot_check(spec):
    # coordinate-formula N against the definition evaluated on coordinate
    # fields with fd brackets
    rng = np.random.default_rng(9)
    pts = bundle_points(spec, 2, 2, seed=13)
    for bp in [pts[i] for i in rng.choice(len(pts), 2, replace=False)]:
        for which in "IJK":
            got = nijenhuis_at(spec, which, bp)
            want = nijenhuis_fd(spec, which, bp)
            scale = max(1.0, float(np.max(np.abs(got))))
            assert np.max(np.abs(got - want)) / scale <= 1e-6


def test_flat_connection_forces_vanishing_nijenhuis_for_any_metric():
    # rebuild every corpus metric over the flat connection
    for spec in ALL:
        flat = dataclasses.replace(spec, name="flat-variant", connection_kind="flat",
                                   gamma_exprs=None)
        for bp in bundle_points(flat, 2, 2):
            row = {"nijenhuis_" + which:
                   np.max(np.abs(nijenhuis_at(flat, which, bp))) / (1 + np.linalg.norm(bp.y))
                   for which in "IJK"}
            assert row["nijenhuis_I"] <= 1e-9
            assert row["nijenhuis_J"] <= 1e-9
            assert row["nijenhuis_K"] <= 1e-9


# -- frame brackets -------------------------------------------------------------

def test_flat_brackets_vanish():
    bp = BundlePoint((0.1, 0.9), (0.5, 0.5))
    res = frame_bracket_residuals(EUCLID, bp)
    assert res["HH"]["residual"] == 0.0
    assert res["VV"]["residual"] == 0.0
    assert res["HV"]["residual"] == 0.0


def test_sphere_bracket_identities():
    for bp in bundle_points(SPHERE, 3, 3):
        res = frame_bracket_residuals(SPHERE, bp)
        assert res["HH"]["residual"] <= 1e-10
        assert res["VV"]["residual"] == 0.0
        assert res["HV"]["residual"] <= 1e-10
        # exactly one sign matches the curvature identity where R != 0
        assert min(res["HH"]["residual_plus"], res["HH"]["residual_minus"]) <= 1e-10


def test_sphere_HH_single_sign():
    bp = BundlePoint((0.9, 1.0), (1.0, 0.7))
    res = frame_bracket_residuals(SPHERE, bp)
    assert res["HH"]["residual"] <= 1e-10
    assert max(res["HH"]["residual_plus"], res["HH"]["residual_minus"]) > 0.05


def test_torsionful_HV_single_sign():
    for bp in bundle_points(TORSIONFUL, 2, 3):
        res = frame_bracket_residuals(TORSIONFUL, bp)
        assert res["HV"]["residual"] <= 1e-10
        assert max(res["HV"]["residual_plus"], res["HV"]["residual_minus"]) > 0.1


# -- N_J identities --------------------------------------------------------------

def test_nijenhuis_J_identities_flat_torsion_free():
    bp = BundlePoint((0.2, 0.3), (0.4, -0.6))
    res = nijenhuis_J_identity_residuals(HESSIAN, bp)
    for block in res.values():
        assert block["residual"] <= 1e-12


def test_nijenhuis_J_identities_sphere():
    for bp in bundle_points(SPHERE, 3, 3):
        res = nijenhuis_J_identity_residuals(SPHERE, bp)
        for block in res.values():
            assert block["residual"] <= 1e-8
        assert max(res["HH"]["residual_plus"], res["HH"]["residual_minus"]) > 0.01


def test_nijenhuis_J_identities_torsionful():
    # with R = 0 the HV identity reduces to a pure V-part T^k_ij V_k
    bp = BundlePoint((0.25, -0.5), (0.6, 0.8))
    res = nijenhuis_J_identity_residuals(TORSIONFUL, bp)
    for block in res.values():
        assert block["residual"] <= 1e-10
    nj = nijenhuis_at(TORSIONFUL, "J", bp)
    t = torsion_at(TORSIONFUL, bp.x)
    assert np.max(np.abs(t)) == 1.0
    assert np.max(np.abs(nj)) >= 0.9  # the torsion shows up upstairs


@pytest.mark.parametrize("spec", ALL + [TORS_CURV, LC5, TWISTED5], ids=lambda spec: spec.name)
def test_proof_identities_hold_at_the_plus_sign(spec):
    for bp in bundle_points(spec, 3, 3):
        brackets = frame_bracket_residuals(spec, bp)
        nj = nijenhuis_J_identity_residuals(spec, bp)
        for block in (brackets["HH"], brackets["HV"], *nj.values()):
            assert block["residual_plus"] <= CROSS_TOL


def test_nijenhuis_J_identity_needs_both_terms_on_tors_curv():
    # the form with the T term negated missed here by 0.341 at its better sign
    res = nijenhuis_J_identity_residuals(TORS_CURV, BundlePoint((0.1, 0.1), (0.3, -0.7)))
    for block in res.values():
        assert block["sign"] == 1
        assert block["residual_plus"] <= CROSS_TOL
        assert block["residual_minus"] > 1.0


# -- d omega -----------------------------------------------------------------------

def test_euclidean_d_omega_zero():
    bp = BundlePoint((0.7, -0.7), (0.2, 0.9))
    assert np.max(np.abs(d_omega_at(EUCLID, bp))) == 0.0


def test_skew_metric_d_omega_component():
    bp = BundlePoint((0.0, 0.0), (0.3, -0.8))
    dw = d_omega_at(SKEW, bp)
    # indices (u, v, y_v): the only independent nonzero family, value e^u
    assert abs(dw[0, 1, 3]) == pytest.approx(1.0, abs=1e-12)
    got = {tuple(idx) for idx in np.argwhere(np.abs(dw) > 1e-12)}
    assert got == {p for p in got if set(p) == {0, 1, 3}}
    at_half = d_omega_at(SKEW, BundlePoint((0.5, 0.0), (0.3, -0.8)))
    assert abs(at_half[0, 1, 3]) == pytest.approx(math.exp(0.5), abs=1e-12)


def test_skew_metric_d_omega_fd_crosscheck():
    bp = BundlePoint((0.2, -0.1), (0.5, 0.5))
    z0 = np.asarray(bp.x + bp.y)
    h = 1e-6

    def omega(z):
        return born_at(SKEW, BundlePoint(tuple(z[:2]), tuple(z[2:]))).omega

    dw = np.empty((4, 4, 4))
    for a in range(4):
        hi = z0.copy()
        lo = z0.copy()
        hi[a] += h
        lo[a] -= h
        dw[a] = (omega(hi) - omega(lo)) / (2 * h)
    want = dw + dw.transpose(1, 2, 0) + dw.transpose(2, 0, 1)
    got = d_omega_at(SKEW, bp)
    assert got == pytest.approx(want, abs=1e-6)


def test_potential_metric_d_omega_zero():
    for bp in bundle_points(HESSIAN, 3, 3):
        assert np.max(np.abs(d_omega_at(HESSIAN, bp))) <= 1e-10


@pytest.mark.parametrize("spec", ALL, ids=lambda s: s.name)
def test_d_omega_total_antisymmetry(spec):
    bp = bundle_points(spec, 2, 2)[0]
    dw = d_omega_at(spec, bp)
    for perm, sign in (((0, 2, 1), -1), ((1, 0, 2), -1), ((2, 1, 0), -1),
                       ((1, 2, 0), 1), ((2, 0, 1), 1)):
        assert np.max(np.abs(dw - sign * dw.transpose(perm))) <= 1e-12


@pytest.mark.parametrize("spec", ALL, ids=lambda s: s.name)
def test_d_omega_iff_dual_torsion_free(spec):
    # closedness of omega upstairs tracks torsion-freeness of the dual
    # connection downstairs, both ways, over the corpus
    pts = [tuple(p) for p in sample_points(spec, 6, 21)]
    dual_torsion = 0.0
    for p in pts:
        dual = dual_connection_at(spec, p)
        dual_torsion = max(dual_torsion, float(np.max(np.abs(dual - dual.transpose(0, 2, 1)))))
    max_dw = max(np.max(np.abs(d_omega_at(spec, bp))) / (1.0 + np.linalg.norm(bp.y))
                 for bp in bundle_points(spec, 4, 3))
    if dual_torsion <= CROSS_TOL:
        assert max_dw <= 1e-9
    else:
        assert max_dw > 1e-9


# -- verdicts ---------------------------------------------------------------------

def test_verdict_euclidean():
    rep = integrability_verdict(EUCLID, 8, 4)
    assert rep.born.within
    assert rep.hessian.within
    assert rep.agreement
    assert list(rep.born.per_point) == ["nijenhuis_I", "nijenhuis_J", "nijenhuis_K", "d_omega"]
    assert all(m.shape == (8, 4) for m in rep.born.per_point.values())
    assert rep.fibers.shape == (4, 2)


def test_verdict_sphere():
    rep = integrability_verdict(SPHERE, 8, 4)
    assert not rep.born.within
    assert rep.born.maxima["nijenhuis_K"] > rep.hessian.tol
    assert not rep.hessian.within
    assert rep.agreement


def test_verdict_skew_metric_distinguishes_d_omega():
    rep = integrability_verdict(SKEW, 8, 4)
    assert rep.born.maxima["nijenhuis_I"] <= rep.hessian.tol
    assert rep.born.maxima["nijenhuis_J"] <= rep.hessian.tol
    assert rep.born.maxima["nijenhuis_K"] <= rep.hessian.tol
    assert rep.born.maxima["d_omega"] > rep.hessian.tol
    assert not rep.born.within
    assert rep.agreement


def test_verdict_torsionful():
    rep = integrability_verdict(TORSIONFUL, 8, 4)
    assert not rep.born.within
    assert rep.born.maxima["nijenhuis_I"] > rep.hessian.tol
    assert rep.born.maxima["nijenhuis_J"] > rep.hessian.tol
    assert rep.born.maxima["nijenhuis_K"] <= rep.hessian.tol
    assert rep.born.maxima["d_omega"] <= rep.hessian.tol
    assert rep.agreement


def test_verdict_counts_validated():
    with pytest.raises(ValueError):
        integrability_verdict(EUCLID, 0, 4)


def test_sampling_arguments_are_checked_before_the_fields(monkeypatch):
    # a metric that is not positive definite: the bad radius is named first,
    # and so is a fiber norm that overflows
    spec = spec_from_dict({"dimension": 2, "coordinates": ["u", "v"],
                           "metric": {"components": [["-1", "0"], ["0", "1"]]},
                           "sample_box": [[-1, 1], [-1, 1]]})
    with pytest.raises(ValueError, match="^fiber radius must be finite and positive$"):
        integrability_verdict(spec, fiber_radius=0)
    monkeypatch.setattr(integrability, "sample_fibers",
                        lambda n, count, radius, seed: np.full((count, n), 1.5e308))
    with pytest.raises(SpecError, match=r"^fiber radius 1\.7e\+308 is too large"):
        integrability_verdict(spec, 2, 2, 1.7e308)


def test_theorem_builtin():
    by_name = {name: integrability_verdict(corpus.example(name), base_count=6, fiber_count=3)
               for name in corpus.BUILTIN_BUILDERS}
    assert len(by_name) == 6
    assert all(rep.agreement for rep in by_name.values())
    for name in ("euclidean2", "hessian-exp2", "pullback-flat"):
        assert by_name[name].hessian.within and by_name[name].born.within
    for name in ("sphere2", "flat-skew-metric", "flat-torsionful"):
        assert not by_name[name].hessian.within
        assert not by_name[name].born.within


@pytest.mark.parametrize("n", [5, 6])
@pytest.mark.parametrize("metric", ["identity", "potential"])
def test_theorem_beyond_four_dimensions(n, metric):
    coords = [f"x{k}" for k in range(n)]
    if metric == "identity":
        kw = {"metric": [["1" if i == j else "0" for j in range(n)] for i in range(n)]}
    else:
        kw = {"potential": " + ".join(f"exp({c})" for c in coords)}
    spec = build_spec(f"{metric}{n}", coords, [(-1.0, 1.0)] * n, connection="flat", **kw)
    rep = integrability_verdict(spec, base_count=2, fiber_count=1)
    assert rep.agreement
    assert rep.hessian.within is True and rep.born.within is True


# -- the stacked sweep ----------------------------------------------------------

# five-dimensional members of the generated families
GENERATED5 = {
    "lc5": _generated(5, {"components": _diagonal(
        ["exp(0.7*x1)", "exp(-0.5*x2)", "exp(0.8*x3)", "exp(-0.6*x4)", "exp(0.5*x0)"])},
        {"kind": "levi-civita"}),
    "potential5": _generated(5, {"potential": (
        "2.5*exp(0.9*x0) + 2.2*exp(1.1*x1) + 2.8*exp(0.85*x2) + 2.1*exp(1.05*x3)"
        " + 2.4*exp(0.95*x4) + 0.04*x0*x1 - 0.03*x2*x4 + 0.02*x1*x3")}, {"kind": "flat"}),
    "twisted5": _generated(5, {"components": [
        ["1.2 + 5.568*x0^2", "0.7*x0", "-2.4*x0", "0.54*x0", "-0.88*x0"],
        ["0.7*x0", "0.7", "0", "0", "0"],
        ["-2.4*x0", "0", "1.5", "0", "0"],
        ["0.54*x0", "0", "0", "0.9", "0"],
        ["-0.88*x0", "0", "0", "0", "1.1"]]}, _gamma_00(["0", "1.0", "-1.6", "0.6", "-0.8"])),
}


@pytest.mark.parametrize("source", list(corpus.BUILTIN_BUILDERS) + list(GENERATED)
                         + list(GENERATED5))
def test_stacked_sweep_equals_one_base_point_at_a_time(source):
    # every array the sweep builds over all P x F bundle points equals the
    # same functions called on one base point at a time, signs of zeros
    # included.  The Born stacks hold their (P, F) axes innermost in memory, so
    # that einsums and block products loop over the sample points, and the
    # tensors do not depend on that layout
    docs = {**GENERATED, **GENERATED5}
    spec = (spec_from_dict(docs[source], name=source) if source in docs
            else corpus.example(source))
    points = sample_points(spec, 5, 42)
    fibers = sample_fibers(spec.n, 3, 1.0, 42)
    bases = base_jets(spec, points)
    born = fiber_born_jets(bases, fibers)
    mats = named_tensors(born)
    for name, m in mats.items():
        assert sorted(m.strides)[:2] == [m.strides[1], m.strides[0]], name
        assert m.transpose(2, 3, 4, 0, 1).flags.c_contiguous, name
    # structural zeros keep the sign of their block formula: the partials of
    # -1 in I and K, and the y-partials of -g in omega, are -0.0
    n = spec.n
    for m in (mats["I"][:, :, 1:, :n, n:], mats["K"][:, :, 1:, n:, n:],
              mats["omega"][:, :, 1 + n:, n:, :n]):
        assert np.all(m == 0.0) and np.all(np.signbit(m))
    stacks = {"nijenhuis_" + name: _nijenhuis_of(mats[name]) for name in "IJK"}
    stacks["d_omega"] = _d_omega_of(mats["omega"])
    for name in "IJK":
        assert_same_bits(stacks["nijenhuis_" + name],
                         _nijenhuis_of(np.ascontiguousarray(mats[name])))
    assert_same_bits(stacks["d_omega"], _d_omega_of(np.ascontiguousarray(mats["omega"])))
    values = born.values()
    assert all(m.flags.c_contiguous for m in values)
    compat = adapted_frame_residuals(*values, born.a[:, :, 0], born.g[:, :, 0])
    gamma = bases.gamma[:, 0]
    fields = {"curvature": _curvature_of(bases.gamma), "torsion": _torsion_of(gamma),
              "nabla_g_asymmetry": _nabla_g_of(gamma, bases.g)}
    for p, x in enumerate(points):
        one = base_jets(spec, [x])
        one_born = fiber_born_jets(one, fibers)
        one_mats = named_tensors(one_born)
        for name, m in one_mats.items():
            assert_same_bits(mats[name][p], m[0])
        for name in "IJK":
            assert_same_bits(stacks["nijenhuis_" + name][p], _nijenhuis_of(one_mats[name])[0])
        assert_same_bits(stacks["d_omega"][p], _d_omega_of(one_mats["omega"])[0])
        one_compat = adapted_frame_residuals(*one_born.values(), one_born.a[:, :, 0],
                                             one_born.g[:, :, 0])
        for key, r in compat.items():
            assert_same_bits(r[p], one_compat[key][0])
        one_gamma = one.gamma[:, 0]
        for key, want in (("curvature", _curvature_of(one.gamma)),
                          ("torsion", _torsion_of(one_gamma)),
                          ("nabla_g_asymmetry", _nabla_g_of(one_gamma, one.g))):
            assert_same_bits(fields[key][p], want[0])


# -- the one-fiber sweep of a vanishing Gamma -------------------------------------

# every value and first partial of Gamma is zero: a flat connection with a
# potential metric, an explicit all-"0" Gamma, and the Levi-Civita and dual
# connections of a constant metric
CONSTANT_METRIC = {"components": [["2", "0.5", "0"], ["0.5", "1", "0.1"], ["0", "0.1", "3"]]}
VANISHING_GAMMA = {
    "potential3": GENERATED["potential3"],
    "potential4": GENERATED["potential4"],
    "potential5": GENERATED5["potential5"],
    "zero-explicit": _generated(2, {"components": _diagonal(["exp(x0)", "1 + 0.3*x0"])},
                                {"kind": "explicit", "gamma": [[["0"] * 2] * 2] * 2}),
    "constant-levi-civita": _generated(3, CONSTANT_METRIC, {"kind": "levi-civita"}),
    "constant-dual": _generated(3, CONSTANT_METRIC, {"kind": "hessian-dual"}),
}
ONE_FIBER = ["euclidean2", "hessian-exp2", "flat-skew-metric", *VANISHING_GAMMA]


def _spec_of(source):
    docs = {**GENERATED, **GENERATED5, **VANISHING_GAMMA}
    return (spec_from_dict(docs[source], name=source) if source in docs
            else corpus.example(source))


def _full_stack_verdict(spec, base_count, fiber_count, radius, seed):
    """The Born record's per-point residuals and the construction maxima of
    the P x F stack built by the stacked functions on all F fibers, as the
    sweep of any Gamma."""
    bases = base_jets(spec, sample_points(spec, base_count, seed))
    fibers = sample_fibers(spec.n, fiber_count, radius, seed)
    points = [(x, y) for x in bases.x for y in map(tuple, fibers.tolist())]
    with np.errstate(over="ignore", invalid="ignore"):
        born = fiber_born_jets(bases, fibers)
        mats = named_tensors(born)
        tensors = {"nijenhuis_" + name: _nijenhuis_of(mats[name]) for name in "IJK"}
        tensors["d_omega"] = _d_omega_of(mats["omega"])
        worst = finite_maxima(tensors, points)
        compat = finite_maxima(adapted_frame_residuals(*born.values(), born.a[:, :, 0],
                                                       born.g[:, :, 0]), points)
    norms = np.array([_norm_factor(y) for y in fibers])
    per_point = {key: m.reshape(base_count, fiber_count) / norms
                 for key, m in worst.items()}
    worst_born = {key: float(np.max(m)) for key, m in compat.items()}
    return per_point, worst_born


@pytest.mark.parametrize("source", ONE_FIBER)
def test_one_fiber_verdict_equals_the_full_stack(source):
    # a vanishing Gamma makes A = -Gamma y zero at every fiber, so the verdict
    # sweeps one fiber; its report must carry the bits of the full P x F
    # stack, at fibers of mixed signs from tiny to huge radii
    spec = _spec_of(source)
    for fiber_count, seed, radius in itertools.product(
            (1, 2, 8), (42, 7), (1e-10, 1.0, 1e3, 1e150)):
        rep = integrability_verdict(spec, base_count=6, fiber_count=fiber_count,
                                    fiber_radius=radius, seed=seed)
        assert not rep.bases.gamma.any()
        if fiber_count == 8:
            assert (rep.fibers < 0).any() and (rep.fibers > 0).any()
        per_point, worst_born = _full_stack_verdict(
            spec, 6, fiber_count, radius, seed)
        assert list(rep.born.per_point) == list(per_point)
        for key, m in per_point.items():
            assert rep.born.per_point[key].shape == (6, fiber_count)
            assert np.array_equal(rep.born.per_point[key].view(np.int64), m.view(np.int64))
        assert list(rep.construction.maxima) == list(worst_born)
        assert np.array_equal(np.array(list(rep.construction.maxima.values())).view(np.int64),
                              np.array(list(worst_born.values())).view(np.int64))
        assert rep.argmax() == dataclasses.replace(
            rep, born=Residuals(per_point, rep.born.tol)).argmax()


def test_a_one_fiber_error_names_the_first_fiber(monkeypatch):
    # the one-fiber sweep stands for every fiber at the first: a residual
    # that is not finite at base point 0 is named at the first sampled fiber
    real = integrability._d_omega_of

    def broken(omega):
        out = real(omega)
        out[0] = np.nan
        return out

    monkeypatch.setattr(integrability, "_d_omega_of", broken)
    with pytest.raises(SpecError) as err:
        integrability_verdict(EUCLID, base_count=4, fiber_count=4)
    assert str(err.value) == (
        "d_omega residual is not finite at ((0.50244140625, 0.2952293857643651), "
        "(0.39456, -0.6150413518176951)) (value nan)")


def _swept_fiber_counts(monkeypatch) -> list:
    """The number of fiber vectors of every ``fiber_born_jets`` call of the
    verdict."""
    counts = []

    def spy(bases, ys):
        counts.append(len(ys))
        return fiber_born_jets(bases, ys)

    monkeypatch.setattr(integrability, "fiber_born_jets", spy)
    return counts


@pytest.mark.parametrize("source", ONE_FIBER + ["pullback-flat", "flat-torsionful",
                                                "sphere2", "twisted3"])
def test_only_a_vanishing_gamma_sweeps_one_fiber(source, monkeypatch):
    counts = _swept_fiber_counts(monkeypatch)
    integrability_verdict(_spec_of(source), base_count=4, fiber_count=8)
    assert counts == [1 if source in ONE_FIBER else 8]


def test_a_gamma_with_one_nonzero_partial_sweeps_every_fiber(monkeypatch):
    # Gamma's values zero but d_0 Gamma^0_00 = 1: A's x-rows are -y^0 there,
    # so the fibers differ and all F are swept
    def perturbed(spec, points):
        bases = base_jets(spec, points)
        gamma = bases.gamma.copy()
        gamma[:, 1, 0, 0, 0] = 1.0
        return dataclasses.replace(bases, gamma=gamma)

    monkeypatch.setattr(integrability, "base_jets", perturbed)
    counts = _swept_fiber_counts(monkeypatch)
    rep = integrability_verdict(EUCLID, base_count=4, fiber_count=8)
    assert not rep.bases.gamma[:, 0].any() and rep.bases.gamma.any()
    assert counts == [8]


def test_error_order_is_by_base_point_then_tensors_then_identities():
    # on [0, 1]^2 at seed 42 the first base point has u = 0.7512..., where
    # Gamma^0_00 ~ 1e10 and g ~ 1e290: its tensors are finite but h = g A A
    # overflows, so only the adapted-frame residual of h fails there; at the
    # second (u = 0.1262...) Gamma^0_00 ~ 1e80 and g ~ 1, so its Nijenhuis
    # tensors overflow.  The first base point's construction error is the
    # one raised.
    metric = "exp(1067*u - 134.7)"
    spec = build_spec("error-order", ("u", "v"), [(0.0, 1.0), (0.0, 1.0)],
                      metric=[[metric, "0"], ["0", metric]], connection="explicit",
                      gamma=[[["exp(216.5 - 257.6*u)", "0"], ["0", "0"]],
                             [["0", "0"], ["0", "0"]]])
    points = sample_points(spec, 2, 42)
    fibers = sample_fibers(2, 4, 1.0, 42)
    for p, tensors_finite in ((0, True), (1, False)):
        with np.errstate(over="ignore", invalid="ignore"):
            mats = named_tensors(fiber_born_jets(base_jets(spec, points[p:p + 1]), fibers))
            assert np.isfinite(_nijenhuis_of(mats["I"])).all() == tensors_finite
    with pytest.raises(SpecError) as err:
        integrability_verdict(spec, 2, 4)
    assert str(err.value) == (
        "h_in_frame residual is not finite at ((0.751220703125, 0.6476146928821825), "
        "(0.39456, -0.6150413518176951)) (value nan)")
    # the second base point alone fails in N_I
    with pytest.raises(SpecError, match="^nijenhuis_I residual is not finite"):
        integrability_verdict(build_spec(
            "error-order-2", ("u", "v"), [(0.0, 0.2), (0.0, 1.0)],
            metric=[[metric, "0"], ["0", metric]], connection="explicit",
            gamma=[[["exp(216.5 - 257.6*u)", "0"], ["0", "0"]],
                   [["0", "0"], ["0", "0"]]]), 1, 4)


def test_norm_factor_scales_a_norm_that_overflows():
    # where np.linalg.norm is finite it is kept, so every report keeps its
    # bytes; where it overflows, s |y / s| with s = max |y_i| is the norm
    for y in [(3.0, 4.0), (0.0, -0.0), (1e150, -2e150, 3.0), (-5e-324, 0.0)]:
        assert _norm_factor(y) == 1.0 + float(np.linalg.norm(y))
    assert _norm_factor((1e200, -1e200)) == 1.0 + 1e200 * math.sqrt(2.0)
    assert _norm_factor((1e308, 1e308)) == 1e308 * math.sqrt(2.0)
    assert _norm_factor((1.7e308, 0.0)) == 1.7e308
    with np.errstate(over="raise"):
        assert _norm_factor((1.5e308, 1.5e308)) == math.inf


def test_a_fiber_norm_that_overflows_even_scaled_is_an_error(monkeypatch):
    # |y| itself beyond the largest float: every residual would be divided by
    # inf, so the fiber radius is named as too large
    monkeypatch.setattr(integrability, "sample_fibers",
                        lambda n, count, radius, seed: np.full((count, n), 1.5e308))
    with pytest.raises(SpecError, match=r"fiber radius 1\.7e\+308 is too large: the norm "
                                        r"of a sampled fiber vector overflows"):
        integrability_verdict(EUCLID, 2, 2, 1.7e308)
