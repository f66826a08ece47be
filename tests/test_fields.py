import json
from pathlib import Path

import numpy as np
import pytest

import jet_reference as ref
from bornbundle import corpus, expr, fields, jets, manifold
from bornbundle.cli import load_spec, main, spec_from_dict
from bornbundle.errors import SpecError, UnsupportedDerivativeError
from bornbundle.expr import EvalDomainError
from bornbundle.jets import JetBatch
from bornbundle.manifold import (DEFAULT_TOL, base_jets, build_spec, dual_and_levi_civita,
                                 sample_points)
from test_charts import EVERY_NODE
from test_manifold import GENERATED
from point import assert_same_bits, hessian_verdict, two_of_four_bases

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
    bases = two_of_four_bases(spec, points)
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
    with pytest.raises(SpecError, match="^singular matrix while inverting metric$"):
        fields.jet_inv(JetBatch(0, 1, mats[..., None]))
    # given the coordinates of the batch points, it names the first singular one's
    with pytest.raises(SpecError) as err:
        fields.jet_inv(JetBatch(0, 1, mats[..., None]), np.array([[0.0, 1.0], [2.0, 3.0]]))
    assert str(err.value) == "singular matrix while inverting metric at (2.0, 3.0)"


def test_a_metric_singular_at_a_point_names_it():
    # exp(1000 u) underflows to 0.0 from u = -0.7452 down; the Levi-Civita
    # connection inverts g at the base points, and the first sampled point
    # where g is singular is named, as the batch is narrowed to it
    spec = build_spec("underflow", ("u", "v"), BOX2,
                      metric=[["exp(1000*u)", "0"], ["0", "1"]], connection="levi-civita")
    with pytest.raises(SpecError) as err:
        base_jets(spec, sample_points(spec, 32, 42))
    assert str(err.value) == ("singular matrix while inverting metric at "
                              "(-0.74755859375, 0.9618960524310316)")
    with pytest.raises(SpecError, match=r"metric at \(-0\.74755859375, "):
        base_jets(spec, [(0.5, 0.5), (-0.74755859375, 0.9618960524310316)])


def test_a_subnormal_pivot_is_singular_to_working_precision():
    # a pivot below the smallest normal float in size is a zero pivot; one
    # at it is inverted
    tiny = np.finfo(float).tiny
    for pivot in (0.0, 4e-320, tiny / 2, -tiny / 2):
        mats = np.array([[[1.0, 0.0], [0.0, 1.0]], [[pivot, 0.0], [0.0, 1.0]]])
        with pytest.raises(SpecError) as err:
            fields.jet_inv(JetBatch(0, 1, mats[..., None]), np.array([[0.0, 1.0], [2.0, 3.0]]))
        assert str(err.value) == "singular matrix while inverting metric at (2.0, 3.0)"
    mats = np.array([[[tiny, 0.0], [0.0, 1.0]]])
    assert fields.jet_inv(JetBatch(0, 1, mats[..., None])).value[0, 0, 0] == 1 / tiny


@pytest.mark.parametrize("kind", ["levi-civita", "hessian-dual"])
def test_a_subnormal_metric_entry_is_a_singular_metric(kind, tmp_path, capsys):
    # diag(4e-320, 1) passes check_spd's sign test, but the derived
    # connection inverts g first: exit 1 naming the first sample point, not
    # a Gamma that the inverse's jets turned into NaN
    path = tmp_path / f"subnormal-{kind}.json"
    path.write_text(json.dumps({
        "dimension": 2, "coordinates": ["u", "v"],
        "metric": {"components": [["4e-320", "0"], ["0", "1"]]},
        "connection": {"kind": kind}, "sample_box": [[-1, 1], [-1, 1]]}))
    assert main(["check", str(path)]) == 1
    error = json.loads(capsys.readouterr().out)["error"]
    assert error == {"kind": "SpecError",
                     "message": "singular matrix while inverting metric at "
                                "(0.50244140625, 0.2952293857643651)"}


def test_a_finite_entry_with_a_partial_that_is_not_finite_names_the_partial(tmp_path, capsys):
    # the Levi-Civita connection of 1e-300 I is 0.0, but its partials are NaN
    # (the inverse metric's partials overflow): the error names the first
    # partial that is not finite, by its coordinate, not "(value 0.0)"
    path = tmp_path / "tiny-metric.json"
    path.write_text(json.dumps({
        "dimension": 2, "coordinates": ["u", "v"],
        "metric": {"components": [["1e-300", "0"], ["0", "1e-300"]]},
        "connection": {"kind": "levi-civita"}, "sample_box": [[-1, 1], [-1, 1]]}))
    assert main(["check", str(path)]) == 1
    error = json.loads(capsys.readouterr().out)["error"]
    assert error == {"kind": "SpecError",
                     "message": "gamma[0][0][0] has a partial by u that is not finite at "
                                "(0.50244140625, 0.2952293857643651) (partial nan, value 0.0)"}


def _first_failure_spec(metric00: str) -> object:
    # Gamma^0_00 = log(u) fails at u < 0; g fails at v = 0.9 only
    gamma = [[["log(u)", "0"], ["0", "0"]], [["0", "0"], ["0", "0"]]]
    return build_spec("first-failure", ("u", "v"), BOX2,
                      metric=[[metric00, "0"], ["0", "1"]],
                      connection="explicit", gamma=gamma)


def two_of_four_residuals(spec, points):
    """The two-of-four report as ``check`` builds it, from ``base_jets``."""
    bases = base_jets(spec, points)
    return manifold.two_of_four_residuals(bases, manifold.hessian_verdict(bases, DEFAULT_TOL),
                                          DEFAULT_TOL)


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


# SPECS and the committed spec files, hessian-dual-exp2 once
WITH_SCRIPT_SPECS = {**{path.stem: load_spec(str(path)) for path in sorted(
    (Path(__file__).parent.parent / "scripts" / "specs").glob("*.json"))}, **SPECS}


@pytest.mark.parametrize("name", list(WITH_SCRIPT_SPECS))
def test_one_metric_evaluation_gives_the_metric_bits(name):
    # g as metric_dg_args reads it off an evaluation one order higher is
    # metric_args' g bit for bit, so a connection derived from a metric grid
    # and g come from one evaluation; (Gamma, g) equal the two fields' own
    spec = WITH_SCRIPT_SPECS[name]
    for order in (0, 1):
        args = jets.seed_batch(sample_points(spec, 20, 5), order)
        with np.errstate(over="ignore", invalid="ignore"):
            gamma, g = fields.connection_metric_args(spec, args)
            assert_same_bits(g.coeffs, fields.metric_args(spec, args).coeffs)
            assert_same_bits(gamma.coeffs, fields.connection_args(spec, args).coeffs)
            if spec.potential is None:
                assert_same_bits(fields.metric_dg_args(spec, args)[0].coeffs,
                                 g.coeffs)


def test_metric_jets_beyond_the_order_cap_are_rejected():
    # a derived connection of a potential metric is the one budget error;
    # orders no caller asks for fail as a jet beyond order 3
    potential, grid = SPECS["hessian-exp2"], SPECS["sphere2"]
    x = sample_points(grid, 2, 5)
    with pytest.raises(UnsupportedDerivativeError, match=(
            r"^derivatives of a potential-based metric at jet order 1 need order-4 jets "
            r"of the potential \(max 3\); use an explicit metric$")):
        fields.metric_dg_args(potential, jets.seed_batch(x, 1))
    for field, spec, order in ((fields.metric_args, potential, 2),
                               (fields.metric_dg_args, grid, 3)):
        with pytest.raises(jets.JetUsageError, match=r"unsupported jet order 4 \(max 3\)"):
            field(spec, jets.seed_batch(x, order))


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


# the second "2.5", "u*v - 0.5", "u" and "0", and "0.0", read a value of an
# earlier text
EVALUATE_ALL_TEXTS = ["0", "-1.226", "2.5", "u", "-0", "u*v - 0.5", "3e-2", "-v",
                      "2.5", "u*v - 0.5", "0.0", "u", "0"]


@pytest.mark.parametrize("order", range(jets.MAX_ORDER + 1))
@pytest.mark.parametrize("batch", [(5,), (3, 2)], ids=["P", "B-n"])
def test_evaluate_all_writes_constants_with_the_bits_of_evaluate(order, batch, monkeypatch):
    # a bare number is written as its value over +0.0 partials, a negated one
    # ("-1.226", "-0") with the evaluated -0.0 partials; every output comes
    # from one evaluation of the whole program, and a value that several
    # outputs read is written into each of them
    program = expr.parse(EVALUATE_ALL_TEXTS, ("u", "v"))
    rng = np.random.default_rng(order)
    width = len(jets._columns(order, 2))
    args = [JetBatch(order, 2, rng.uniform(-1, 1, batch + (width,))) for _ in range(2)]
    want = np.stack([np.broadcast_to(expr.evaluate(expr.parse(text, ("u", "v")), args)[0].coeffs,
                                     batch + (width,))
                     for text in EVALUATE_ALL_TEXTS], axis=-2)
    calls = []
    evaluate = expr.evaluate
    monkeypatch.setattr(expr, "evaluate", lambda p, a: calls.append(p) or evaluate(p, a))
    got = fields.evaluate_all(program, args, (len(program),)).coeffs
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.int64), want.view(np.int64))
    assert np.array_equal(np.signbit(got), np.signbit(want))
    assert calls == [program]
    assert program.zeros == (True, False, False, False, False, False, False, False,
                             False, False, True, False, True)
    if order:
        const, neg = EVALUATE_ALL_TEXTS.index("2.5"), EVALUATE_ALL_TEXTS.index("-1.226")
        assert not np.signbit(got[..., const, 1:]).any()
        assert np.signbit(got[..., neg, 1:]).all()


def test_evaluate_all_checks_the_arguments_of_an_all_constant_grid():
    program = expr.parse(["0", "1.5", "0"], ("u", "v"))
    point = np.zeros((1, 2))
    mixed = [jets.seed_batch(point, 1)[0], jets.seed_batch(point, 2)[1]]
    with pytest.raises(jets.JetUsageError, match="share order and arity"):
        fields.evaluate_all(program, mixed, (3,))
    with pytest.raises(jets.JetUsageError, match="at least one argument jet"):
        fields.evaluate_all(program, [], (3,))
