"""Connection kinds and dimensions beyond the built-in corpus: the
hessian-dual kind, a three-dimensional spec, and the derivative-budget
limits of potential metrics."""
import math

import numpy as np
import pytest

from bornbundle import corpus, fields
from bornbundle.errors import UnsupportedDerivativeError
from bornbundle.integrability import integrability_verdict
from bornbundle.manifold import build_spec, pattern_violated, sample_points
from point import (BundlePoint, born_at, born_compatibility_residuals, connection_at,
                   curvature_at, dual_connection_at, hessian_verdict, nabla_g_at, torsion_at,
                   two_of_four_residuals)

BOX2 = [(-1.0, 1.0), (-1.0, 1.0)]


def pts(spec, count=6, seed=7):
    return [tuple(p) for p in sample_points(spec, count, seed)]


# -- hessian-dual connection kind ------------------------------------------

# the metric grid diag(exp(u), exp(v)) is the coordinate Hessian of
# exp(u) + exp(v); written explicitly it stays inside the jet-order budget
# for curvature-level derivatives of the dual connection
HD_EXP = build_spec("hd-exp", ("u", "v"), BOX2,
                    metric=[["exp(u)", "0"], ["0", "exp(v)"]],
                    connection="hessian-dual")
HD_SKEW = build_spec("hd-skew", ("u", "v"), BOX2,
                     metric=[["1", "0"], ["0", "exp(u)"]],
                     connection="hessian-dual")


def test_hessian_dual_matches_dual_of_flat():
    flat = corpus.example("flat-skew-metric")
    for p in pts(HD_SKEW, 4):
        got = connection_at(HD_SKEW, p)
        want = dual_connection_at(flat, p)
        assert np.array_equal(got, want)


def test_hessian_dual_of_hessian_pair_is_hessian():
    # dually flat pairs come in dual pairs: the dual of the flat side of a
    # potential metric is again flat, torsion-free and metric-symmetric
    v = hessian_verdict(HD_EXP, pts(HD_EXP, 8))
    assert v.within, v.maxima


def test_hessian_dual_of_skew_metric_is_flat_but_torsionful():
    for p in pts(HD_SKEW, 4):
        assert np.max(np.abs(curvature_at(HD_SKEW, p))) <= 1e-10
    t = max(np.max(np.abs(torsion_at(HD_SKEW, p))) for p in pts(HD_SKEW, 4))
    assert t > 0.3


def test_theorem_holds_for_hessian_dual_specs():
    exp, skew = (integrability_verdict(spec, base_count=6, fiber_count=3)
                 for spec in (HD_EXP, HD_SKEW))
    assert exp.agreement and skew.agreement
    assert exp.hessian.within and exp.born.within
    assert not skew.hessian.within and not skew.born.within
    # obstruction pattern: torsion upstairs in N_I/N_J, but the dual of the
    # dual is the original torsion-free flat connection, so d omega vanishes
    assert skew.born.maxima["nijenhuis_I"] > 1e-9
    assert skew.born.maxima["nijenhuis_K"] <= 1e-9
    assert skew.born.maxima["d_omega"] <= 1e-9


# -- three-dimensional spec ---------------------------------------------------

BOX3 = [(-1.0, 1.0)] * 3
HESS3 = build_spec("hess3", ("u", "v", "w"), BOX3,
                   potential="exp(u) + exp(v) + exp(w) + u*v/4",
                   connection="flat")
SKEW3 = build_spec("skew3", ("u", "v", "w"), BOX3,
                   metric=[["1", "0", "0"], ["0", "exp(u)", "0"], ["0", "0", "1"]],
                   connection="flat")


def test_three_dim_hessian_verdict():
    v = hessian_verdict(HESS3, pts(HESS3, 6))
    assert v.within
    _, asym = nabla_g_at(HESS3, (0.2, -0.3, 0.4))
    assert asym <= 1e-12


def test_three_dim_born_identities_and_signature():
    bp = BundlePoint((0.2, -0.3, 0.4), (0.5, 0.1, -0.8))
    rep = born_compatibility_residuals(born_at(HESS3, bp))
    assert float(np.max(list(rep.residuals.values()))) <= 1e-10
    assert rep.k_signature == (3, 3)
    assert born_at(HESS3, bp).I.shape == (6, 6)


def test_three_dim_theorem_agreement():
    hess, skew = (integrability_verdict(spec, base_count=4, fiber_count=2)
                  for spec in (HESS3, SKEW3))
    assert hess.agreement and skew.agreement
    assert hess.hessian.within and hess.born.within
    assert not skew.hessian.within
    assert skew.born.maxima["d_omega"] > 1e-9


def test_three_dim_two_of_four():
    rep = two_of_four_residuals(HESS3, pts(HESS3, 4))
    assert all(v <= 1e-10 for v in rep.maxima.values())
    assert not pattern_violated(rep)


# -- derivative budget of potential metrics -----------------------------------

def test_potential_levi_civita_values_work():
    spec = build_spec("pot-lc", ("u", "v"), BOX2, potential="exp(u) + exp(v)",
                      connection="levi-civita")
    gamma = connection_at(spec, (0.3, -0.2))
    # Christoffels of a diagonal Hessian metric: Gamma^u_uu = 1/2 (in this case)
    assert gamma[0, 0, 0] == pytest.approx(0.5, abs=1e-12)
    _, asym = nabla_g_at(spec, (0.3, -0.2))
    assert asym <= 1e-12  # Levi-Civita makes the metric parallel
    rep = two_of_four_residuals(spec, pts(spec, 4))
    assert all(rep.holds.values()) and not pattern_violated(rep)


def test_potential_levi_civita_curvature_exceeds_budget():
    spec = build_spec("pot-lc", ("u", "v"), BOX2, potential="exp(u) + exp(v)",
                      connection="levi-civita")
    with pytest.raises(UnsupportedDerivativeError) as exc:
        curvature_at(spec, (0.0, 0.0))
    assert "explicit metric" in str(exc.value)


def test_potential_hessian_dual_curvature_exceeds_budget():
    spec = build_spec("pot-hd", ("u", "v"), BOX2, potential="exp(u) + exp(v)",
                      connection="hessian-dual")
    with pytest.raises(UnsupportedDerivativeError):
        curvature_at(spec, (0.0, 0.0))
