import numpy as np
import pytest

import jet_reference as ref
from bornbundle import corpus, fields, jets
from bornbundle.cli import spec_from_dict
from bornbundle.errors import SpecError
from bornbundle.expr import EvalDomainError
from bornbundle.jets import JetBatch
from bornbundle.manifold import base_jets, build_spec, dual_and_levi_civita, sample_points
from test_charts import EVERY_NODE
from test_manifold import GENERATED
from point import hessian_verdict, two_of_four_residuals

BOX2 = [(-1.0, 1.0), (-1.0, 1.0)]
HESSIAN_DUAL = build_spec("hessian-dual-exp2", ("u", "v"), BOX2,
                          metric=[["exp(u)", "0"], ["0", "exp(v)"]],
                          connection="hessian-dual")
SPECS = {
    **{name: corpus.example(name) for name in corpus.BUILTIN_BUILDERS},
    **{name: spec_from_dict(doc, name=name) for name, doc in GENERATED.items()},
    "hessian-dual-exp2": HESSIAN_DUAL,
    "every-node": EVERY_NODE,
}


def assert_same_bits(got, want):
    assert got.shape == want.shape
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


@pytest.mark.parametrize("name", list(SPECS))
def test_batched_base_jets_equal_jet_reference(name):
    # one batched evaluation over all sweep points equals the per-point Jet
    # evaluation, values and first partials, signs of zeros included
    spec = SPECS[name]
    points = sample_points(spec, 16, 42)
    bases = base_jets(spec, points)
    for p, x in enumerate(points):
        gamma, g = ref.base_fields(spec, x)
        assert bases.x[p] == tuple(x)
        assert_same_bits(bases.gamma[p], gamma)
        assert_same_bits(bases.g[p], g)


@pytest.mark.parametrize("name", list(SPECS))
def test_two_of_four_fields_equal_jet_reference(name):
    # Gamma at order 0 and g at order 1, and the dual and Levi-Civita from
    # one batched inverse over all bases, equal the per-point Jet path
    spec = SPECS[name]
    points = [tuple(p) for p in sample_points(spec, 16, 7)]
    bases = base_jets(spec, points, 1, gamma_order=0)
    dual, lc = dual_and_levi_civita(bases.gamma[:, 0], bases.g)
    for p, x in enumerate(points):
        gamma, g = ref.base_fields(spec, x, 1, gamma_order=0)
        assert_same_bits(bases.gamma[p], gamma)
        assert_same_bits(bases.g[p], g)
        want_dual, want_lc = ref.dual_and_levi_civita(gamma[0], g)
        assert_same_bits(dual[p], want_dual)
        assert_same_bits(lc[p], want_lc)


def test_batched_inverse_pivots_per_matrix():
    # each matrix picks its own pivot rows: a first column of (0, 1), of
    # (2, -2) (tie: the first row wins) and of (-1, 3)
    mats = np.array([[[0.0, 1.0], [1.0, 0.5]],
                     [[2.0, 1.0], [-2.0, 3.0]],
                     [[-1.0, 2.0], [3.0, 0.25]]])
    got = fields.jet_inv(JetBatch(0, 1, mats[..., None])).value
    for mat, inv in zip(mats, got):
        want = ref.jet_values(ref.jet_inv(ref.const_jet_array(mat, 0, 1)))
        assert_same_bits(inv, want)


def test_batched_inverse_of_a_singular_matrix_is_spec_error():
    mats = np.array([[[1.0, 0.0], [0.0, 1.0]], [[1.0, 2.0], [2.0, 4.0]]])
    with pytest.raises(SpecError, match="singular matrix while inverting metric"):
        fields.jet_inv(JetBatch(0, 1, mats[..., None]))


def _first_failure_spec(metric00: str) -> object:
    # Gamma^0_00 = log(u) fails at u < 0; g fails at v = 0.9 only
    gamma = [[["log(u)", "0"], ["0", "0"]], [["0", "0"], ["0", "0"]]]
    return build_spec("first-failure", ("u", "v"), BOX2,
                      metric=[[metric00, "0"], ["0", "1"]],
                      connection="explicit", gamma=gamma)


@pytest.mark.parametrize("metric00,error,message", [
    # a non-finite g entry at the first point
    ("exp(400*v)*exp(400*v)", SpecError,
     "metric[0][0] or one of its derivatives is not finite at (0.5, 0.9) (value inf)"),
    # a domain error in g at the first point
    ("1 + sqrt(-v)", EvalDomainError, "sqrt of non-positive value -0.9 at offset 4"),
])
@pytest.mark.parametrize("verdict", [hessian_verdict, two_of_four_residuals])
def test_batch_raises_the_first_points_failure(metric00, error, message, verdict):
    # the second point fails in Gamma, which the batch evaluates first; the
    # first point fails in g alone, and its failure is the one raised, as
    # when the points were evaluated one at a time
    spec = _first_failure_spec(metric00)
    first, second = (0.5, 0.9), (-0.5, -0.5)
    with pytest.raises(EvalDomainError, match="log of non-positive value -0.5"):
        base_jets(spec, [second])
    with pytest.raises(error) as err:
        verdict(spec, [first, second])
    assert str(err.value) == message


def test_batch_of_one_point_equals_the_batch_of_all():
    spec = SPECS["lc3"]
    points = sample_points(spec, 5, 3)
    bases = base_jets(spec, points)
    for p, x in enumerate(points):
        alone = base_jets(spec, [x])
        assert_same_bits(bases.gamma[p:p + 1], alone.gamma)
        assert_same_bits(bases.g[p:p + 1], alone.g)


def test_seed_batch_matches_seed_embedded():
    points = np.array([[0.25, -1.5], [2.0, 0.125]])
    for order in (0, 1, 2):
        args = jets.seed_batch(points, order)
        for p, x in enumerate(points):
            want = ref.seed_embedded(tuple(x), order, 2)
            for a, w in zip(args, want):
                assert_same_bits(a.coeffs[p], ref.coefficients(w))
