"""Acceptance suite: one test per criterion, each printing a pass/fail
line (run with `pytest tests/test_acceptance.py -v -s`).  Tolerances are
pinned here; nothing is deferred to later calibration."""
import math

import numpy as np
import pytest

import jet_reference as ref
from bornbundle import corpus, expr
from bornbundle.charts import exponential_chart
from bornbundle.cli import report_to_json, run
from bornbundle.integrability import integrability_verdict
from bornbundle.manifold import halton_points, pattern_violated, sample_fibers, sample_points
from test_bundle import standard_born_matrices
from point import (BundlePoint, born_at, born_compatibility_residuals, d_omega_at,
                   dual_connection_at, frame_bracket_residuals, geodesic_integrate,
                   nijenhuis_J_identity_residuals, pushforward_connection_residual,
                   two_of_four_residuals)

ALL = [corpus.example(name) for name in corpus.BUILTIN_BUILDERS]
BY_NAME = {s.name: s for s in ALL}

EXTRA_EXPRESSIONS = [
    "sin(u)*cos(v) + u^3",
    "exp(u)/(1 + v^2)",
    "log(2 + u)",
    "sqrt(1 + u^2 + v^2)",
    "tanh(u*v)",
    "u^2/2 + v^2/2",
    "-(u + v)*u",
    "u*v - v^2 + 0.5",
]


def _verdict(num, name, ok):
    print(f"ACCEPTANCE {num} ({name}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion {num} ({name}) failed"


def _corpus_expressions():
    """(program, output, coords, box) for every expression in the built-in
    corpus: each grid entry as an output of its grid's program."""
    out = []
    for spec in ALL:
        grids = [spec.metric_exprs if spec.potential is None else spec.potential]
        if spec.gamma_exprs is not None:
            grids.append(spec.gamma_exprs)
        for grid in grids:
            out.extend((grid, t, spec.coords, spec.sample_box) for t in range(len(grid)))
    box = ((-1.0, 1.0), (-1.0, 1.0))
    for text in EXTRA_EXPRESSIONS:
        out.append((expr.parse(text, ("u", "v")), 0, ("u", "v"), box))
    return out


def bundle_grid(spec, n_base, n_fiber, radius=1.0, seed=17):
    base = sample_points(spec, n_base, seed)
    fibers = sample_fibers(spec.n, n_fiber, radius, seed)
    return [BundlePoint(tuple(x), tuple(y)) for x in base for y in fibers]


def test_acceptance_1_ad_soundness():
    # jet first derivatives vs the central-difference oracle, 1e-6 relative,
    # on at least 500 (expression, point) pairs
    pairs = 0
    worst = 0.0
    for program, t, coords, box in _corpus_expressions():
        unit = halton_points(12, len(coords), 3)
        lo = np.array([iv[0] for iv in box])
        hi = np.array([iv[1] for iv in box])
        for u in unit:
            p = tuple(lo + u * (hi - lo))
            f = expr.evaluate(program, ref.seed(p, 1))[t]

            def scalar(q):
                return expr.evaluate(program, ref.seed(q, 1))[t].value

            grad = ref.fd_oracle(scalar, p, h=1e-5)
            for i in range(len(coords)):
                rel = abs(f.partial(i) - grad[i]) / max(1.0, abs(f.partial(i)))
                worst = max(worst, rel)
            pairs += 1
    ok = pairs >= 500 and worst <= 1e-6
    print(f"  {pairs} pairs, worst relative deviation {worst:.3e}")
    _verdict(1, "AD soundness", ok)


def test_acceptance_2_born_identities():
    # every compatibility residual at most 1e-10 and k-signature exactly
    # (n, n), for all 6 specs x 20 bundle points
    ok = True
    worst = 0.0
    for spec in ALL:
        for bp in bundle_grid(spec, 4, 5):
            rep = born_compatibility_residuals(born_at(spec, bp))
            largest = float(np.max(list(rep.residuals.values())))
            worst = max(worst, largest)
            ok = ok and largest <= 1e-10
            ok = ok and rep.k_signature == (spec.n, spec.n)
    print(f"  worst residual {worst:.3e}")
    _verdict(2, "algebraic Born identities", ok)


def test_acceptance_3_euclidean_reproduction():
    spec = BY_NAME["euclidean2"]
    want = standard_born_matrices(2)
    ok = True
    for bp in bundle_grid(spec, 3, 4):
        bf = born_at(spec, bp)
        for name in ("I", "J", "K", "h", "k", "omega"):
            ok = ok and float(np.max(np.abs(getattr(bf, name) - want[name]))) <= 1e-12
    rep = integrability_verdict(spec, 8, 4)
    for val in rep.born.maxima.values():
        ok = ok and val <= 1e-12
    _verdict(3, "Euclidean reproduction", ok)


def test_acceptance_4_main_theorem_agreement():
    reps = {spec.name: integrability_verdict(spec, base_count=32, fiber_count=8,
                                             fiber_radius=1.0, tol=1e-9)
            for spec in ALL}
    agree = sum(rep.agreement for rep in reps.values())
    ok = agree == len(reps) == 6
    ok = ok and reps["hessian-exp2"].hessian.within and reps["hessian-exp2"].born.within
    for name in ("sphere2", "flat-skew-metric", "flat-torsionful"):
        ok = ok and not reps[name].hessian.within and not reps[name].born.within
    # expected dominant residuals
    sphere = reps["sphere2"]
    ok = ok and sphere.hessian.maxima["curvature"] > 1e-9
    ok = ok and sphere.hessian.maxima["torsion"] <= 1e-9
    ok = ok and sphere.born.maxima["nijenhuis_K"] > 1e-9
    skew = reps["flat-skew-metric"]
    ok = ok and skew.born.maxima["d_omega"] > 1e-9
    ok = ok and all(skew.born.maxima[f"nijenhuis_{w}"] <= 1e-9 for w in "IJK")
    ok = ok and skew.hessian.maxima["nabla_g_asymmetry"] > 1e-9
    tors = reps["flat-torsionful"]
    ok = ok and tors.hessian.maxima["torsion"] > 1e-9
    ok = ok and tors.hessian.maxima["curvature"] <= 1e-9
    ok = ok and tors.born.maxima["nijenhuis_I"] > 1e-9
    ok = ok and tors.born.maxima["nijenhuis_J"] > 1e-9
    ok = ok and tors.born.maxima["nijenhuis_K"] <= 1e-9
    ok = ok and tors.born.maxima["d_omega"] <= 1e-9
    print(f"  agreement {agree}/6")
    _verdict(4, "main-theorem agreement", ok)


def test_acceptance_5_proof_identities():
    # frame brackets and N_J identities within 1e-8 normalized, one global
    # sign per identity, on sphere2 and flat-torsionful across 10 points
    ok = True
    for name in ("sphere2", "flat-torsionful"):
        spec = BY_NAME[name]
        signs = {"HH": set(), "HV": set(), "nj_HH": set(), "nj_VV": set(),
                 "nj_HV": set()}
        for bp in bundle_grid(spec, 5, 2, seed=23):
            br = frame_bracket_residuals(spec, bp)
            nj = nijenhuis_J_identity_residuals(spec, bp)
            ok = ok and br["HH"]["residual"] <= 1e-8
            ok = ok and br["VV"]["residual"] <= 1e-8
            ok = ok and br["HV"]["residual"] <= 1e-8
            ok = ok and all(nj[b]["residual"] <= 1e-8 for b in ("HH", "VV", "HV"))
            for key, block in (("HH", br["HH"]), ("HV", br["HV"]),
                               ("nj_HH", nj["HH"]), ("nj_VV", nj["VV"]),
                               ("nj_HV", nj["HV"])):
                # sign is only determined when the two candidates separate
                if max(block["residual_plus"], block["residual_minus"]) > 1e-4:
                    signs[key].add(block["sign"])
        ok = ok and all(len(s) <= 1 for s in signs.values())
    _verdict(5, "bracket and Nijenhuis proof identities", ok)


def test_acceptance_6_d_omega_iff_dual_torsion():
    ok = True
    for spec in ALL:
        dual_torsion = 0.0
        for p in sample_points(spec, 8, 19):
            dual = dual_connection_at(spec, tuple(p))
            dual_torsion = max(dual_torsion, float(
                np.max(np.abs(dual - dual.transpose(0, 2, 1)))))
        max_dw = 0.0
        for bp in bundle_grid(spec, 4, 4):
            dw = np.max(np.abs(d_omega_at(spec, bp))) / (1.0 + np.linalg.norm(bp.y))
            max_dw = max(max_dw, dw)
        if dual_torsion <= 1e-7:
            ok = ok and max_dw <= 1e-9
        else:
            ok = ok and max_dw > 1e-9
        if spec.name == "flat-skew-metric":
            ok = ok and max_dw > 1e-4
    _verdict(6, "d-omega tracks dual torsion-freeness", ok)


def test_acceptance_7_two_of_four():
    ok = True
    for name in ("hessian-exp2", "sphere2"):  # sphere2 is the levi-civita spec
        spec = BY_NAME[name]
        rep = two_of_four_residuals(spec, [tuple(p) for p in sample_points(spec, 8, 29)])
        ok = ok and all(v <= 1e-7 for v in rep.maxima.values())
    for spec in ALL:
        rep = two_of_four_residuals(spec, [tuple(p) for p in sample_points(spec, 8, 29)])
        below = sum(1 for v in rep.maxima.values() if v <= 1e-9)
        ok = ok and below != 3
        ok = ok and not pattern_violated(rep)
    _verdict(7, "two-of-four residual pattern", ok)


def test_acceptance_8_affine_chart_witness():
    spec = BY_NAME["pullback-flat"]
    chart = exponential_chart(spec, (0.0, 0.0))
    unit = halton_points(6, 2, 31)
    probes = [tuple(chart.radius * (2 * u - 1) / 2) for u in unit]
    push = pushforward_connection_residual(chart, probes)
    # contraction must be measured where RK4 has error to contract; the flat
    # corpus geodesics (straight or polynomial) are integrated exactly, so
    # the sphere provides the convergence-order evidence
    sphere = BY_NAME["sphere2"]
    x0, v = (1.0, 1.0), (0.35, 0.5)
    e8 = geodesic_integrate(sphere, x0, v, 8)
    e16 = geodesic_integrate(sphere, x0, v, 16)
    e32 = geodesic_integrate(sphere, x0, v, 32)
    factor = np.max(np.abs(e8 - e16)) / np.max(np.abs(e16 - e32))
    print(f"  pushforward {push:.3e}, contraction {factor:.1f}x")
    ok = push <= 1e-6 and 12.0 <= factor <= 20.0
    _verdict(8, "affine-chart witness", ok)


def test_acceptance_9_determinism():
    config = dict(points=6, fiber_points=3, seed=42)
    a = report_to_json(run(corpus.example("flat-skew-metric"), **config)).encode()
    b = report_to_json(run(corpus.example("flat-skew-metric"), **config)).encode()
    _verdict(9, "byte-identical reports", a == b)
