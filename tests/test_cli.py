import dataclasses
import importlib.util
import json
import math
import re
import sys
from pathlib import Path

import numpy as np
import pytest

from bornbundle import bundle, cli, corpus
from bornbundle.cli import load_spec, main, report_to_json, run, spec_from_dict
from bornbundle.errors import SpecError
from bornbundle.integrability import integrability_verdict, log_margin
from bornbundle.jets import JetUsageError
from bornbundle.manifold import (BORN_GATE, CROSS_TOL, DEFAULT_TOL, FLATNESS_GATE_TOL,
                                 pattern_violated, sample_fibers, sample_points)
from test_manifold import GENERATED
from point import (BundlePoint, connection_at, d_omega_at, dual_connection_at,
                   frame_residuals_at, hessian_verdict, levi_civita_at, nabla_g_at,
                   named_tensors, nijenhuis_at, torsion_at, two_of_four_residuals)

SMALL = dict(points=6, fiber_points=3)
ROOT = Path(__file__).resolve().parent.parent
SPECS = ROOT / "scripts" / "specs"


def _load_specgen():
    """bornbench/specgen.py, the benchmark's spec generator (stdlib and numpy only)."""
    spec = importlib.util.spec_from_file_location("specgen", ROOT / "bornbench" / "specgen.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # for the dataclass of its specs
    spec.loader.exec_module(module)
    return module


SPECGEN = _load_specgen()


def _spec_file(name, directory) -> str:
    """The path of ``name`` written to ``directory``: a ``scripts/specs`` file,
    or ``<family><n>``, the benchmark generator's spec at spec seed 1."""
    path = directory / f"{name}.json"
    if (SPECS / path.name).is_file():
        path.write_text((SPECS / path.name).read_text())
    else:
        family, n = re.fullmatch(r"([a-z]+)(\d)", name).groups()
        path.write_text(json.dumps(SPECGEN.make_spec(family, int(n), 1).doc))
    return str(path)


def small_run(source, **kw):
    return run(load_spec(source), **{**SMALL, **kw})


def test_load_builtin_euclidean():
    spec = load_spec("euclidean2")
    assert spec.n == 2
    assert spec.connection_kind == "flat"


def test_load_builtin_sphere():
    spec = load_spec("sphere2")
    assert spec.connection_kind == "levi-civita"
    assert spec.coords == ("theta", "phi")


def test_unknown_example():
    with pytest.raises(SpecError):
        load_spec("not-a-spec")


def test_dimension_mismatch():
    raw = {
        "dimension": 3,
        "coordinates": ["u", "v", "w"],
        "metric": {"components": [["1", "0"], ["0", "1"]]},
        "connection": {"kind": "flat"},
        "sample_box": [[-1, 1], [-1, 1], [-1, 1]],
    }
    with pytest.raises(SpecError) as exc:
        spec_from_dict(raw)
    assert "3x3" in str(exc.value)


def test_spec_file_round_trip(tmp_path):
    path = tmp_path / "skew.json"
    path.write_text(json.dumps({
        "dimension": 2,
        "coordinates": ["u", "v"],
        "metric": {"components": [["1", "0"], ["0", "exp(u)"]]},
        "connection": {"kind": "flat"},
        "sample_box": [[-1, 1], [-1, 1]],
    }))
    spec = load_spec(str(path))
    assert spec.name == "skew"
    report = small_run(str(path))
    assert not report["hessian"]["is_hessian"]
    assert report["agreement"] is True


def test_bad_expression_reported(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({
        "dimension": 2,
        "coordinates": ["u", "v"],
        "metric": {"components": [["1", "0"], ["0", "w + 1"]]},
        "connection": {"kind": "flat"},
        "sample_box": [[-1, 1], [-1, 1]],
    }))
    with pytest.raises(SpecError) as exc:
        load_spec(str(path))
    assert "offset 0" in str(exc.value)


def _malformed(field, value):
    doc = {"dimension": 2, "coordinates": ["u", "v"],
           "metric": {"components": [["1", "0"], ["0", "1"]]},
           "connection": {"kind": "flat"}, "sample_box": [[-1, 1], [-1, 1]]}
    *path, last = field.split(".")
    target = doc
    for key in path:
        target = target[key]
    target[last] = value
    return doc


@pytest.mark.parametrize("field,value,message", [
    ("metric", [["1", "0"], ["0", "1"]], "metric must be a JSON object, not array"),
    ("metric", "1", "metric must be a JSON object, not string"),
    ("connection", "flat", "connection must be a JSON object, not string"),
    ("metric.components", 5, "metric.components must be a JSON array, not number"),
    ("metric.components", [1, 2], "metric.components[0] must be a JSON array, not number"),
    ("metric.components", [[1, 0], [0, 1]],
     "metric.components[0][0] must be a JSON string, not number"),
    ("metric", {"potential": 5}, "metric.potential must be a JSON string, not number"),
    ("connection", {"kind": "explicit", "gamma": 3},
     "connection.gamma must be a JSON array, not number"),
    ("connection", {"kind": 1}, "connection.kind must be a JSON string, not number"),
    ("connection", {"kind": "explicit", "gamma": [
        [["0"] * 3] * 3, [["0", "0", 0.5]] + [["0"] * 3] * 2, [["0"] * 3] * 3]},
     "connection.gamma[1][0][2] must be a JSON string, not number"),
    ("connection", {"kind": "explicit", "gamma": [[["0", None]], "0"]},
     "connection.gamma[0][0][1] must be a JSON string, not null"),
    ("connection", {"kind": "explicit", "gamma": [[["0", "0"], "0"], [["0", "0"]] * 2]},
     "connection.gamma[0][1] must be a JSON array, not string"),
    ("metric.components", [["1", "0"], ["0", ["1"]]],
     "metric.components[1][1] must be a JSON string, not array"),
    ("sample_box", None, "sample_box must be a JSON array, not null"),
    ("sample_box", [[-1, 1], [-1, 1, 2]], "sample_box[1] must be a [lo, hi] pair"),
    ("sample_box", [[-1, 1], [-1, "1"]], "sample_box[1][1] must be a JSON number, not string"),
    ("coordinates", [1, 2], "coordinates[0] must be a JSON string, not number"),
    ("dimension", "2", "dimension must be a JSON number, not string"),
    ("dimension", 2.5, "dimension must be a whole number, not 2.5"),
    ("dimension", float("inf"), "dimension must be a whole number, not inf"),
    # JSON integers that a float cannot hold, and a width that overflows
    ("dimension", 10 ** 400, "dimension does not fit a float"),
    ("sample_box", [[-1, 10 ** 400], [-1, 1]], "sample_box[0][1] does not fit a float"),
    ("sample_box", [[-1e308, 1e308], [-1, 1]],
     "sample interval [-1e+308, 1e+308] is wider than the largest float"),
    # nesting beyond the parser's 100 levels, which once ended in a RecursionError
    ("metric.components", [["(" * 300 + "1" + ")" * 300, "0"], ["0", "1"]],
     "bad spec: expression nested more than 100 levels deep at offset 101"),
    ("metric.components", [["-" * 2000 + "1", "0"], ["0", "1"]],
     "bad spec: expression nested more than 100 levels deep at offset 101"),
    ("metric", {"potential": "sin(" * 300 + "u" + ")" * 300 + " + v^2"},
     "bad spec: expression nested more than 100 levels deep at offset 404"),
], ids=["metric-array", "metric-string", "connection-string", "components-number",
        "components-row-number", "components-entry-number", "potential-number",
        "gamma-number", "kind-number", "gamma-entry-number", "gamma-first-in-order",
        "gamma-row-string", "components-entry-array", "sample-box-null", "sample-box-triple",
        "sample-box-string-bound", "coordinates-numbers", "dimension-string",
        "dimension-fraction", "dimension-inf", "dimension-huge", "sample-box-huge-bound",
        "sample-box-wide", "nested-parentheses", "nested-minuses", "nested-sin"])
@pytest.mark.parametrize("command", ["check", "affine-chart"])
def test_malformed_spec_field_is_spec_error(command, field, value, message, tmp_path,
                                            capsys):
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps(_malformed(field, value)))
    assert main([command, str(path)]) == 1
    captured = capsys.readouterr()
    assert json.loads(captured.out) == {
        "error": {"kind": "SpecError", "message": message}, "status": "error"}
    assert captured.err == ""


def test_spec_must_be_an_object():
    with pytest.raises(SpecError, match="spec must be a JSON object, not array"):
        spec_from_dict([])


@pytest.mark.parametrize("command", ["check", "affine-chart"])
def test_infinite_sample_box_bound_is_spec_error(command, tmp_path, capsys):
    # 1e400 parses as inf: the sweep sampled x = inf, the chart a base point at inf
    path = tmp_path / "inf.json"
    path.write_text(json.dumps(_malformed("sample_box", [[-1, 1], [-1, 1]]))
                    .replace("[[-1, 1], [-1, 1]]", "[[-1, 1e400], [-1, 1]]"))
    assert main([command, str(path)]) == 1
    captured = capsys.readouterr()
    assert json.loads(captured.out)["error"] == {
        "kind": "SpecError", "message": "sample interval [-1.0, inf] is not finite"}
    assert captured.err == ""


def test_run_euclidean_report_contents():
    report = small_run("euclidean2")
    assert report["status"] == "ok"
    assert report["agreement"] is True
    assert report["hessian"]["is_hessian"] is True
    assert report["integrability"]["integrable"] is True
    assert list(report["born_compat"]) == ["max_residuals", "gate"]
    assert list(report["born_compat"]["max_residuals"]) == [
        "I_in_frame", "J_in_frame", "K_in_frame", "h_in_frame", "k_in_frame",
        "omega_in_frame"]
    assert max(report["born_compat"]["max_residuals"].values()) <= 1e-10
    assert list(report["affine_chart"]) == ["base_point", "radius", "steps",
                                            "pushforward_residual", "witnessed"]
    assert report["affine_chart"]["witnessed"] is True
    assert list(report) == ["report_schema", "spec", "config", "scope", "hessian",
                            "two_of_four", "born_compat", "integrability", "agreement",
                            "affine_chart", "status"]
    assert report["report_schema"] == 6
    assert list(report["integrability"]) == [
        *(f"max_{name}" for name in RESIDUALS), "integrable", "tol", "argmax"]


def test_run_sphere_not_hessian_but_ok():
    report = small_run("sphere2")
    assert report["status"] == "ok"
    assert report["hessian"]["is_hessian"] is False
    assert report["integrability"]["integrable"] is False
    assert report["agreement"] is True
    assert "affine_chart" not in report


def test_run_flat_skew_d_omega_dominates():
    report = small_run("flat-skew-metric")
    integ = report["integrability"]
    assert integ["max_nijenhuis_I"] <= integ["tol"]
    assert integ["max_nijenhuis_J"] <= integ["tol"]
    assert integ["max_nijenhuis_K"] <= integ["tol"]
    assert integ["max_d_omega"] > integ["tol"]
    assert report["agreement"] is True
    assert report["status"] == "ok"


def test_reports_are_byte_identical_for_same_seed():
    a = report_to_json(small_run("pullback-flat"))
    b = report_to_json(small_run("pullback-flat"))
    assert a.encode() == b.encode()


def test_reports_differ_for_different_seed():
    a = report_to_json(small_run("hessian-exp2", seed=1))
    b = report_to_json(small_run("hessian-exp2", seed=2))
    assert a != b


def test_config_validation(capsys):
    with pytest.raises(ValueError, match="^sample counts must be at least 1$"):
        run(load_spec("euclidean2"), points=0)
    with pytest.raises(ValueError, match="^fiber radius must be finite and positive$"):
        run(load_spec("euclidean2"), fiber_radius=-1.0)
    # a bad sampling parameter is one error kind in every command; theorem
    # names the spec whose run raised it, its first
    counts, radius = "sample counts must be at least 1", "fiber radius must be finite and positive"
    for argv, message in ((["check", "euclidean2", "--points", "0"], counts),
                          (["check", "euclidean2", "--fiber-points", "-1"], counts),
                          (["theorem", "--points", "0"], counts),
                          (["check", "euclidean2", "--fiber-radius", "0"], radius)):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert json.loads(captured.out)["error"] == {"kind": "ValueError", "message": message}
        assert captured.err == ("euclidean2: ValueError\n" if argv[0] == "theorem" else "")


# -- command-line entry points ---------------------------------------------

def test_cli_list_examples(capsys):
    assert main(["list-examples"]) == 0
    out = capsys.readouterr().out
    for name in ("euclidean2", "sphere2", "pullback-flat"):
        assert name in out


def test_cli_check_writes_report(tmp_path, capsys):
    path = tmp_path / "report.json"
    code = main(["check", "euclidean2", "--points", "6", "--fiber-points", "3",
                 "--report", str(path)])
    assert code == 0
    report = json.loads(path.read_text())
    assert report["status"] == "ok"
    assert "report written" in capsys.readouterr().out


# the residual each built-in's --report summary names, None for "-"
DOMINANT = {"euclidean2": None, "hessian-exp2": None, "flat-skew-metric": "nabla_g_asymmetry",
            "sphere2": "curvature", "flat-torsionful": "torsion", "pullback-flat": None}


def test_report_summary_ends_in_the_dominant_residual(tmp_path, capsys):
    # the corpus run: check --report on every name list-examples prints
    assert main(["list-examples"]) == 0
    names = [line.split()[0] for line in capsys.readouterr().out.splitlines()]
    assert names == list(DOMINANT) == list(corpus.BUILTIN_BUILDERS)
    for name in names:
        path = tmp_path / f"{name}.json"
        assert main(["check", name, "--points", "2", "--fiber-points", "1",
                     "--report", str(path)]) == 0
        summary = capsys.readouterr().out.splitlines()[0]
        text = path.read_text()
        report = json.loads(text)
        assert report["status"] == "ok" and report_to_json(report) == text
        if DOMINANT[name] is None:
            assert summary.endswith(" status=ok dominant=-")
            continue
        margin = log_margin(report["hessian"]["max_" + DOMINANT[name]], report["hessian"]["tol"])
        assert margin > 0
        assert summary.endswith(f" status=ok dominant={DOMINANT[name]}({margin:+.1f})")
    assert sorted(p.stem for p in tmp_path.iterdir()) == sorted(names)


def test_report_summary_at_zero_tol():
    # every positive residual sits infinitely many decades above a zero
    # tolerance, and a zero one is within it
    tiny = dict(points=2, fiber_points=1, tol=0.0)
    assert cli._dominant(run(load_spec("sphere2"), **tiny)) == "curvature(+inf)"
    assert cli._dominant(run(load_spec("euclidean2"), **tiny)) == "-"


def test_cli_check_stdout(capsys):
    code = main(["check", "flat-torsionful", "--points", "4", "--fiber-points", "2"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["hessian"]["is_hessian"] is False
    assert report["agreement"] is True


def test_cli_check_byte_identical(tmp_path):
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    argv = ["check", "sphere2", "--points", "4", "--fiber-points", "2", "--seed", "7"]
    assert main(argv + ["--report", str(p1)]) == 0
    assert main(argv + ["--report", str(p2)]) == 0
    assert p1.read_bytes() == p2.read_bytes()


def test_cli_error_exit_code(capsys):
    code = main(["check", "no-such-spec"])
    assert code == 1
    out = json.loads(capsys.readouterr().out)
    assert out["status"] == "error"
    assert "no-such-spec" in out["error"]["message"]


def _diag_spec(metric, connection="flat", box=((0.5, 1), (-1, 1)), gamma=None):
    spec = {"dimension": 2, "coordinates": ["u", "v"],
            "metric": {"components": [[metric[0], "0"], ["0", metric[1]]]},
            "connection": {"kind": connection},
            "sample_box": [list(iv) for iv in box]}
    if gamma is not None:
        spec["connection"]["gamma"] = gamma
    return spec


OVERFLOW_BOX = ((-1, 1), (-1, 1))
GAMMA_OVERFLOW = [[["exp(500*u)*exp(500*u)", "0"], ["0", "0"]],
                  [["0", "0"], ["0", "0"]]]


@pytest.mark.parametrize("spec,kind,message", [
    # exp(1000*u) overflows in the expression
    pytest.param(_diag_spec(("exp(1000*u)", "1"), box=OVERFLOW_BOX),
                 "EvalDomainError", "overflows", id="flat-0-EvalDomainError"),
    # the first partial of 1/g_uu, which the order-1 Gamma reads, overflows
    # inverting g; Gamma's value is finite, so the error names the partial
    pytest.param(_diag_spec(("exp(1000*u)", "1"), "levi-civita", OVERFLOW_BOX),
                 "SpecError", "gamma[0][0][0] has a partial by u that is not finite",
                 id="levi-civita-0-SpecError"),
    # a product of finite factors overflows to inf
    pytest.param(_diag_spec(("exp(500*u)*exp(500*u)", "1")),
                 "SpecError", "metric[0][0] or one of its derivatives is not finite",
                 id="metric-product"),
    pytest.param(_diag_spec(("1", "1"), "explicit", gamma=GAMMA_OVERFLOW),
                 "SpecError", "gamma[0][0][0] or one of its derivatives is not finite",
                 id="gamma-product"),
    # a finite value whose first partial overflows
    pytest.param(_diag_spec(("1", "exp(700*u)*exp(9*u)"), box=((0.99, 1), (-1, 1))),
                 "SpecError", "metric[1][1] has a partial by u that is not finite",
                 id="metric-partial"),
])
def test_overflowing_metric_is_spec_error(spec, kind, message, tmp_path, capsys):
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps(spec))
    code = main(["check", str(path), "--points", "8", "--fiber-points", "2",
                 "--seed", "0"])
    assert code == 1
    out = json.loads(capsys.readouterr().out)
    assert out["status"] == "error"
    assert out["error"]["kind"] == kind
    assert message in out["error"]["message"]


def _tiny_argument_spec(func: str, metric: str) -> dict:
    """A flat spec on u in [-0.01, 0.01], where u^60 + 1e-300 is about
    1e-138: log's third derivative there overflows (1/v^3), and sqrt's
    divides by v^2 sqrt(v), which underflows.  ``metric`` says whether the
    function enters a metric entry, which the sweep reads to order 1, or
    the potential, which it reads to order 3."""
    tiny = f"{func}(u^60 + 1e-300)^2"
    spec = _diag_spec((f"1 + {tiny}", "1"), box=((-0.01, 0.01), (-1, 1)))
    if metric == "potential":
        spec["metric"] = {"potential": f"u^2/2 + v^2/2 + {tiny}"}
    return spec


@pytest.mark.parametrize("func", ["log", "sqrt"])
def test_tiny_log_or_sqrt_argument_is_spec_error(func, tmp_path, capsys):
    # the potential's metric reads the third derivatives that fail
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(_tiny_argument_spec(func, "potential")))
    code = main(["check", str(path), "--points", "4", "--fiber-points", "2"])
    assert code == 1
    captured = capsys.readouterr()
    out = json.loads(captured.out)
    assert out["status"] == "error"
    assert out["error"]["kind"] == "EvalDomainError"
    assert out["error"]["message"].startswith(f"derivatives of {func} at ")
    assert captured.err == ""


@pytest.mark.parametrize("func", ["log", "sqrt"])
def test_a_derivative_the_sweep_does_not_read_rejects_no_point(func, tmp_path, capsys):
    # a metric entry is read to order 1, so the failing third derivative is
    # never computed: the same function exits 0
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(_tiny_argument_spec(func, "components")))
    code = main(["check", str(path), "--points", "4", "--fiber-points", "2"])
    captured = capsys.readouterr()
    assert code == 0 and captured.err == ""
    assert json.loads(captured.out)["status"] == "ok"


def test_metric_whose_reciprocal_cubed_overflows_is_checked(tmp_path, capsys):
    # 1/1e-150 and its square are finite, so g^-1 at order 1 is; its third
    # power, which only an order-2 inverse reads, is not
    path = tmp_path / "diag.json"
    path.write_text(json.dumps(_diag_spec(("1e150", "1e-150"), box=OVERFLOW_BOX)))
    code = main(["check", str(path), "--points", "4", "--fiber-points", "3"])
    captured = capsys.readouterr()
    assert code == 0 and captured.err == ""
    report = json.loads(captured.out)
    assert report["status"] == "ok" and report["affine_chart"]["witnessed"] is True


def test_an_underflowing_omega_determinant_warns_nothing(tmp_path, capsys):
    # g_00 = 4e-320 is a subnormal pivot: the metric is singular to working
    # precision, an error naming the point and the pivot before any Born
    # tensor is built; with an explicit zero Gamma and with a flat connection
    zero = [[["0", "0"], ["0", "0"]], [["0", "0"], ["0", "0"]]]
    for kind, gamma in (("explicit", zero), ("flat", None)):
        spec = _diag_spec(("4e-320", "1"), kind, ((-1, 0), (-1, 0)), gamma=gamma)
        path = tmp_path / f"det-{kind}.json"
        path.write_text(json.dumps(spec))
        code = main(["check", str(path), "--points", "4", "--fiber-points", "3"])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.err == ""
        out = json.loads(captured.out)
        assert out["error"]["kind"] == "SpecError"
        assert out["error"]["message"] == (
            "metric is singular to working precision at "
            "(-0.248779296875, -0.35238530711781746): pivot 4e-320")


# finite fields whose curvature is inf - inf = NaN at every sample point
NAN_RESIDUAL = _diag_spec(("1", "1"), "explicit", OVERFLOW_BOX,
                          gamma=[[["1e200", "0"], ["0", "0"]], [["0", "0"], ["0", "0"]]])


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("command", ["check", "theorem", "affine-chart"])
def test_nan_residual_is_spec_error(command, tmp_path, capsys):
    path = tmp_path / "nan.json"
    path.write_text(json.dumps(NAN_RESIDUAL))
    target = ["--corpus", str(tmp_path)] if command == "theorem" else [str(path)]
    if command != "affine-chart":  # the chart's flatness gate samples on its own
        target += ["--points", "4", "--fiber-points", "2"]
    code = main([command, *target])
    assert code == 1
    out = json.loads(capsys.readouterr().out)
    assert out["status"] == "error"
    assert out["error"]["kind"] == "SpecError"
    assert "curvature residual is not finite at (" in out["error"]["message"]
    assert "(value nan)" in out["error"]["message"]


# constant subexpressions that overflow to inf and give NaN times 0: numpy
# warns there, where Python floats do not, so every run must stay silent
CONST_NAN_METRIC = _diag_spec(("1 + 0*(1e200*1e200)", "1"), box=OVERFLOW_BOX)
CONST_NAN_GAMMA = _diag_spec(("1", "1"), "explicit", OVERFLOW_BOX,
                             gamma=[[["0*(1e200*1e200)", "0"], ["0", "0"]],
                                    [["0", "0"], ["0", "0"]]])


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("spec,command,message", [
    (CONST_NAN_METRIC, "check", "metric[0][0] or one of its derivatives is not finite"),
    (CONST_NAN_METRIC, "theorem", "metric[0][0] or one of its derivatives is not finite"),
    (CONST_NAN_GAMMA, "check", "gamma[0][0][0] or one of its derivatives is not finite"),
    (CONST_NAN_GAMMA, "theorem", "gamma[0][0][0] or one of its derivatives is not finite"),
    (CONST_NAN_GAMMA, "affine-chart", "curvature residual is not finite"),
], ids=["metric-check", "metric-theorem", "gamma-check", "gamma-theorem",
        "gamma-affine-chart"])
def test_overflowing_constant_is_spec_error_without_warning(spec, command, message,
                                                            tmp_path, capsys):
    path = tmp_path / "const.json"
    path.write_text(json.dumps(spec))
    target = ["--corpus", str(tmp_path)] if command == "theorem" else [str(path)]
    if command != "affine-chart":
        target += ["--points", "4", "--fiber-points", "2"]
    assert main([command, *target]) == 1
    captured = capsys.readouterr()
    out = json.loads(captured.out)
    assert out["error"]["kind"] == "SpecError"
    assert message in out["error"]["message"]
    assert "(value nan)" in out["error"]["message"]
    assert captured.err == ("const: SpecError\n" if command == "theorem" else "")


def _chart_error(argv, capsys):
    code = main(["affine-chart", *argv])
    assert code == 1
    return json.loads(capsys.readouterr().out)["error"]


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_chart_overflow_is_box_exit_without_warning(tmp_path, capsys):
    # flat, so it passes the gate; the geodesic overflows to -inf at once
    spec = _diag_spec(("1", "1"), "explicit", OVERFLOW_BOX,
                      gamma=[[["1e150", "0"], ["0", "0"]], [["0", "0"], ["0", "0"]]])
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps(spec))
    assert _chart_error([str(path)], capsys) == {
        "kind": "BoxExitError",
        "message": "geodesic left the sample box at step 1/64, "
                   "position (-inf, 0.001153239788142051)"}


def test_chart_box_exit_names_the_first_probe(capsys):
    # probe 28 leaves the box first (test_charts), but probe 0's exit is named
    assert _chart_error(["pullback-flat", "--at", "0.9,0.9", "--probes", "30"],
                        capsys)["message"] == (
        "geodesic left the sample box at step 51/64, "
        "position (1.000095748901367, 0.9688343881433716)")


@pytest.mark.parametrize("radius", ["nan", "inf", "0", "-1"])
@pytest.mark.parametrize("command", ["check", "theorem"])
def test_fiber_radius_must_be_finite_and_positive(command, radius, capsys):
    target = {"check": ["euclidean2", "--points", "4", "--fiber-points", "2"],
              "theorem": ["--points", "4", "--fiber-points", "2"]}[command]
    code = main([command, *target, "--fiber-radius", radius])
    assert code == 1
    out = json.loads(capsys.readouterr().out)
    assert out["error"]["message"] == "fiber radius must be finite and positive"


@pytest.mark.parametrize("command", ["check", "theorem"])
def test_a_fiber_radius_whose_norms_overflow_is_scaled(command, capsys):
    # np.linalg.norm of a fiber vector this long overflows, but s |y / s|,
    # with s = max |y_i|, does not: the flat euclidean2 is ok, and theorem's
    # sphere2 fails at a residual, as it does from 1e150 up
    target = ["euclidean2"] if command == "check" else []
    for radius in ("1e200", "1e308", "1.7e308"):
        code = main([command, *target, "--points", "3", "--fiber-points", "2",
                     "--fiber-radius", radius])
        out = json.loads(capsys.readouterr().out)
        if command == "check":
            assert (code, out["status"]) == (0, "ok")
        else:
            assert code == 1
            assert out["error"]["message"].startswith("nijenhuis_I residual is not finite")


@pytest.mark.parametrize("argv", [
    ["check", "pullback-flat", "--points", "3", "--fiber-points", "2", "--fiber-radius", "1e8"],
    ["check", "sphere2", "--points", "3", "--fiber-points", "2", "--fiber-radius", "1e12"],
    ["theorem", "--points", "4", "--fiber-points", "2", "--fiber-radius", "1e8"],
    ["check", "sphere2", "--fiber-radius", "100"],
    ["theorem", "--fiber-radius", "1e3"],
], ids=["pullback-flat", "sphere2", "theorem", "sphere2-100-32x8", "theorem-1e3-32x8"])
def test_a_large_fiber_radius_passes_the_construction_check(argv, capsys):
    # h = E^-T diag(g, g) E^-1 has determinant det(g)^2, never 0, and the
    # adapted-frame check solves nothing: at these radii, where h is
    # numerically singular in bundle coordinates, every verdict still agrees
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 0 and captured.err == ""
    if argv[0] == "check":
        report = json.loads(captured.out)
        assert report["agreement"] is True and report["status"] == "ok"
        assert max(report["born_compat"]["max_residuals"].values()) <= 1e-15
    else:
        assert captured.out.splitlines()[-1] == "agreement: 6/6"


def test_a_residual_that_overflows_is_an_error_naming_the_point(capsys):
    # at radius 1e150 the Nijenhuis tensor of sphere2 overflows to NaN: an
    # error naming the residual and the bundle point
    code = main(["check", "sphere2", "--points", "3", "--fiber-points", "2",
                 "--fiber-radius", "1e150"])
    captured = capsys.readouterr()
    assert code == 1 and captured.err == ""
    error = json.loads(captured.out)["error"]
    assert error["kind"] == "SpecError"
    assert error["message"].startswith("nijenhuis_I residual is not finite at ((")


@pytest.mark.parametrize("tol", ["-1", "nan", "inf"])
@pytest.mark.parametrize("command", ["check", "theorem"])
def test_tolerance_must_be_finite_and_non_negative(command, tol, capsys):
    target = ["euclidean2"] if command == "check" else []
    code = main([command, *target, "--points", "4", "--fiber-points", "2", "--tol", tol])
    assert code == 1
    out = json.loads(capsys.readouterr().out)
    assert out["error"]["message"] == (
        f"tolerance must be finite and non-negative, not {float(tol)!r}")


def test_zero_tolerance_is_valid(capsys):
    code = main(["check", "euclidean2", "--points", "4", "--fiber-points", "2",
                 "--tol", "0"])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert out["hessian"]["is_hessian"] and out["integrability"]["integrable"]


def test_cli_theorem_builtin(capsys):
    code = main(["theorem", "--points", "4", "--fiber-points", "2"])
    assert code == 0
    out = capsys.readouterr().out
    assert "agreement: 6/6" in out


def test_cli_theorem_directory(tmp_path, capsys):
    (tmp_path / "one.json").write_text(json.dumps({
        "dimension": 2,
        "coordinates": ["a", "b"],
        "metric": {"potential": "a^2/2 + b^2/2"},
        "connection": {"kind": "flat"},
        "sample_box": [[-1, 1], [-1, 1]],
    }))
    code = main(["theorem", "--corpus", str(tmp_path),
                 "--points", "4", "--fiber-points", "2"])
    assert code == 0
    assert "agreement: 1/1" in capsys.readouterr().out


def test_cli_affine_chart(capsys):
    code = main(["affine-chart", "pullback-flat", "--at", "0.0,0.0"])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert out["witnessed"] is True
    assert out["pushforward_residual"] <= 1e-6


def test_cli_affine_chart_rejects_curved(capsys):
    # valid arguments reach the flatness gate, which only affine-chart runs
    for args in ([], ["--steps", "1", "--probes", "1"]):
        code = main(["affine-chart", "sphere2", *args])
        assert code == 1
        out = json.loads(capsys.readouterr().out)
        assert out["status"] == "error"
        assert out["error"]["kind"] == "FlatnessGateError"
        assert out["error"]["message"].startswith(
            "exponential map is affine only for flat torsion-free connections")


@pytest.mark.parametrize("args,message", [
    pytest.param(["--steps", "0"], "need at least one integration step", id="steps-0"),
    pytest.param(["--steps", "-1"], "need at least one integration step", id="steps-negative"),
    pytest.param(["--at", "0.1"], "chart base point has 1 coordinates, expected 2",
                 id="at-short"),
    pytest.param(["--at", "0,0,0"], "chart base point has 3 coordinates, expected 2",
                 id="at-long"),
    pytest.param(["--at", "abc"], "--at must be comma-separated numbers, not 'abc'",
                 id="at-not-a-number"),
    pytest.param(["--at", ""], "--at must be comma-separated numbers, not ''",
                 id="at-empty"),
    pytest.param(["--probes", "0"], "need at least one chart probe", id="probes-0"),
])
def test_cli_affine_chart_rejects_bad_arguments(args, message, capsys):
    # sphere2 fails the flatness gate: every argument is checked before it
    code = main(["affine-chart", "sphere2", *args])
    assert code == 1
    out = json.loads(capsys.readouterr().out)
    assert out["status"] == "error"
    assert out["error"]["message"] == message


# Gamma^0_00 a narrow bump at the 6th of 8 Halton points of seed 42 (curvature
# 6.5e-7 there, round-off elsewhere); every other entry and the metric flat
BUMP = _diag_spec(("1", "1"), "explicit", OVERFLOW_BOX, gamma=[
    [["exp(-((u+0.87255859)^2 + (v+0.71711629)^2)/0.01)", "0"], ["0", "0"]],
    [["0", "0"], ["0", "0"]]])


@pytest.mark.parametrize("points,hessian", [(4, True), (8, False)])
def test_check_gates_the_witness_at_its_own_sample_points(points, hessian, tmp_path,
                                                          capsys):
    # 4 points miss the bump: Hessian, and the witness runs, with no gate at
    # points outside the sample; 8 points see it: not Hessian, no witness
    path = tmp_path / "bump.json"
    path.write_text(json.dumps(BUMP))
    code = main(["check", str(path), "--points", str(points), "--fiber-points", "2"])
    captured = capsys.readouterr()
    assert code == 0 and captured.err == ""
    report = json.loads(captured.out)
    assert report["hessian"]["is_hessian"] is hessian
    assert report["integrability"]["integrable"] is hessian
    if hessian:
        assert report["affine_chart"]["witnessed"] is True
    else:
        assert report["hessian"]["max_curvature"] > FLATNESS_GATE_TOL
        assert "affine_chart" not in report


def test_affine_chart_gates_the_bump_at_its_own_gate_points(tmp_path, capsys):
    # the affine-chart gate samples GATE_POINTS = 8 Halton points, and the
    # 6th sees the bump: with fewer gate points it would witness the chart
    path = tmp_path / "bump.json"
    path.write_text(json.dumps(BUMP))
    code = main(["affine-chart", str(path)])
    captured = capsys.readouterr()
    assert code == 1 and captured.err == ""
    assert json.loads(captured.out)["error"]["kind"] == "FlatnessGateError"


def test_invariant_failure_exit_code(monkeypatch, capsys):
    # a verdict disagreement cannot arise from a correct build, so force one
    # to check the exit-code contract
    import bornbundle.cli as cli_mod

    real = cli_mod.integrability_verdict

    def broken(spec, *args, **kwargs):
        rep = real(spec, *args, **kwargs)
        # read against a negative tolerance, no Born residual is within it
        return dataclasses.replace(rep, born=dataclasses.replace(rep.born, tol=-1.0))

    monkeypatch.setattr(cli_mod, "integrability_verdict", broken)
    code = main(["check", "euclidean2", "--points", "4", "--fiber-points", "2"])
    assert code == 2
    report = json.loads(capsys.readouterr().out)
    assert report["status"] == "invariant-failure"
    assert any("disagree" in f for f in report["failures"])


def _corrupt_born_tensor(monkeypatch, name: str, scale: float = 1e-6) -> None:
    """Scale one Born tensor that the sweep builds by 1 + ``scale``, values
    and partials: a relative defect of about ``scale`` in the adapted frame
    (on sphere2 at 4x2 points, about 0.73 times it), which leaves every
    verdict as it was."""
    import bornbundle.integrability as integrability_mod

    real = integrability_mod.fiber_born_jets

    def corrupted(bases, ys):
        born = real(bases, ys)
        named_tensors(born)[name] *= 1.0 + scale  # a view into the stack the sweep reads
        return born

    monkeypatch.setattr(integrability_mod, "fiber_born_jets", corrupted)


@pytest.mark.parametrize("name", ["I", "J", "K", "h", "k", "omega"])
def test_check_exits_2_on_a_corrupted_born_tensor(name, monkeypatch, capsys):
    argv = ["check", "sphere2", "--points", "4", "--fiber-points", "2"]
    assert main(argv) == 0
    intact = json.loads(capsys.readouterr().out)
    _corrupt_born_tensor(monkeypatch, name)
    assert main(argv) == 2
    report = json.loads(capsys.readouterr().out)
    assert report["failures"] == ["born construction identities"]
    worst = report["born_compat"]["max_residuals"]
    assert worst[name + "_in_frame"] > BORN_GATE
    assert all(v <= 1e-15 for key, v in worst.items() if key != name + "_in_frame")
    assert report["agreement"] is intact["agreement"] is True


@pytest.mark.parametrize("scale,code", [(4e-8, 2), (4e-9, 0)])
def test_born_gate_decides_a_defect_near_it(scale, code, monkeypatch, capsys):
    # a defect of about 2.9e-8 breaks the gate and one of about 2.9e-9 holds,
    # so a gate ten times wider or narrower changes the exit code
    _corrupt_born_tensor(monkeypatch, "K", scale)
    assert main(["check", "sphere2", "--points", "4", "--fiber-points", "2"]) == code
    report = json.loads(capsys.readouterr().out)
    if code:
        assert report["failures"] == ["born construction identities"]
    else:
        assert report["status"] == "ok"
    assert report["agreement"] is True


def test_failures_list_every_broken_invariant_in_order(monkeypatch, capsys):
    # all four invariants of check broken at once: the failures list names
    # each, in the order of the report's sections
    import bornbundle.charts as charts_mod
    import bornbundle.integrability as integrability_mod
    import bornbundle.manifold as manifold_mod

    real_lc = manifold_mod.dual_and_levi_civita

    def shifted_lc(gamma, g):
        dual, lc = real_lc(gamma, g)
        return dual, lc + 1.0
    monkeypatch.setattr(manifold_mod, "dual_and_levi_civita", shifted_lc)
    _corrupt_born_tensor(monkeypatch, "K")
    real_n = integrability_mod._nijenhuis_of
    monkeypatch.setattr(integrability_mod, "_nijenhuis_of", lambda a: real_n(a) + 1.0)
    real_t = charts_mod._transformed_connections
    monkeypatch.setattr(charts_mod, "_transformed_connections",
                        lambda *args: real_t(*args) + 5e-6)
    assert main(["check", "euclidean2", "--points", "4", "--fiber-points", "2"]) == 2
    report = json.loads(capsys.readouterr().out)
    assert report["status"] == "invariant-failure"
    assert report["failures"] == [
        "two_of_four pattern (exactly two or three conditions hold)",
        "born construction identities",
        "hessian/integrability verdicts disagree",
        "affine-chart witness residuals",
    ]


def test_theorem_exits_2_on_a_broken_construction_identity(monkeypatch, capsys):
    argv = ["theorem", "--points", "4", "--fiber-points", "2"]
    assert main(argv) == 0
    intact = capsys.readouterr()
    _corrupt_born_tensor(monkeypatch, "K")
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out.splitlines()[-1] == intact.out.splitlines()[-1] == "agreement: 6/6"
    assert intact.err == ""
    assert err.splitlines() == [f"{name}: born construction identities"
                                for name in corpus.BUILTIN_BUILDERS]


def test_theorem_exits_2_on_a_verdict_disagreement(monkeypatch, capsys):
    # every Nijenhuis tensor off by 1.0: no spec is integrable, so the three
    # Hessian ones disagree, and stderr names each of them
    import bornbundle.integrability as integrability_mod

    real = integrability_mod._nijenhuis_of
    monkeypatch.setattr(integrability_mod, "_nijenhuis_of", lambda a: real(a) + 1.0)
    assert main(["theorem", "--points", "4", "--fiber-points", "2"]) == 2
    out, err = capsys.readouterr()
    rows = {line.split()[0]: line for line in out.splitlines()[1:-1]}
    for name in ("euclidean2", "hessian-exp2", "pullback-flat"):
        assert rows[name] == f"{name:18s} True     False       False"
    for name in ("flat-skew-metric", "sphere2", "flat-torsionful"):
        assert rows[name] == f"{name:18s} False    False       True"
    assert out.splitlines()[-1] == "agreement: 3/6"
    assert err.splitlines() == [f"{name}: hessian/integrability verdicts disagree"
                                for name in ("euclidean2", "hessian-exp2", "pullback-flat")]


def test_theorem_exits_2_exactly_when_some_check_does(tmp_path, capsys):
    # one spec, one exit code: check fails the flat diag(1, 1 + 1e-7 u) and
    # flat-skew-metric's metric times 1e-10 on their two_of_four pattern
    # (ROADMAP items 1 and 18) and passes scripts/specs/near-hessian.json;
    # theorem names on stderr exactly the specs check fails, each with
    # check's failures, whatever those are
    _spec_file("near-hessian", tmp_path)
    for name, metric in (("near-1e-7", ("1", "1 + 1e-7*u")),
                         ("skew-1e-10", ("1e-10", "1e-10*exp(u)"))):
        (tmp_path / f"{name}.json").write_text(json.dumps(_diag_spec(metric, box=OVERFLOW_BOX)))
    sampling = ["--points", "4", "--fiber-points", "2"]
    codes, failures = [], []
    for path in sorted(tmp_path.glob("*.json")):
        codes.append(main(["check", str(path), *sampling]))
        report = json.loads(capsys.readouterr().out)
        if "failures" in report:
            failures.append(f"{path.stem}: {'; '.join(report['failures'])}")
    code = main(["theorem", "--corpus", str(tmp_path), *sampling])
    err = capsys.readouterr().err
    assert code == (2 if 2 in codes else 0)
    assert err.splitlines() == failures


def test_theorem_names_the_spec_whose_evaluation_raised(tmp_path, capsys):
    # exp(1000 u) underflows to a singular metric at a sampled point of
    # b-underflow, after a-near has run: theorem names b-underflow on stderr,
    # then gives the JSON error and exit code of check on that file
    (tmp_path / "a-near.json").write_text((SPECS / "near-hessian.json").read_text())
    underflow = tmp_path / "b-underflow.json"
    underflow.write_text(json.dumps(_diag_spec(("exp(1000*u)", "1"), "levi-civita",
                                               OVERFLOW_BOX)))
    sampling = ["--points", "4", "--fiber-points", "2"]
    assert main(["check", str(underflow), *sampling]) == 1
    checked = capsys.readouterr().out
    assert main(["theorem", "--corpus", str(tmp_path), *sampling]) == 1
    captured = capsys.readouterr()
    assert captured.err == "b-underflow: SpecError\n"
    assert captured.out == checked


GENERATED_N3_TO_5 = [f"{family}{n}" for family in ("lc", "potential", "twisted")
                     for n in (3, 4, 5)]


@pytest.mark.parametrize("names,sampling", [
    (GENERATED_N3_TO_5 + ["hessian-dual-exp2"], ["--points", "4", "--fiber-points", "2"]),
    # Gamma vanishes, so at the default 32 x 8 the sweep builds one fiber per base point
    ([f"potential{n}" for n in (5, 6, 7, 8)], []),
], ids=["generated-n3-5-4x2", "potential-n5-8-32x8"])
def test_theorem_on_generated_specs_exits_0(names, sampling, tmp_path, capsys):
    for name in names:
        _spec_file(name, tmp_path)
    assert main(["theorem", "--corpus", str(tmp_path), *sampling]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out.splitlines()[-1] == f"agreement: {len(names)}/{len(names)}"


def test_every_committed_spec_is_ok_at_the_default_sampling():
    # theorem --corpus scripts/specs at 32 x 8 exits 0 exactly when every
    # report is ok; the flat derived Gammas of the hessian-dual specs are
    # witnessed, fisher-dual3's Fisher grid with its shared subtrees included
    reports = {path.stem: run(load_spec(str(path))) for path in sorted(SPECS.glob("*.json"))}
    assert {name: report["status"] for name, report in reports.items()} == dict.fromkeys(
        reports, "ok")
    for name in ("fisher-dual3", "hessian-dual-exp2"):
        assert reports[name]["affine_chart"]["witnessed"] is True


STEPS_16 = ["--probes", "4", "--steps", "16"]


@pytest.mark.parametrize("argv", [
    # the Born stack at 2n = 12 at the default 32 x 8
    ["check", "lc6"],
    ["check", "potential6"],
    # twisted8's 512-entry explicit Gamma, almost all "0", through base_jets,
    # the flatness gate and the chart endpoints of check
    ["check", "potential8", "--points", "4", "--fiber-points", "2"],
    ["check", "twisted8", "--points", "4", "--fiber-points", "2"],
    *(["affine-chart", name, *STEPS_16]
      for name in ("pullback-flat", "euclidean2", "hessian-exp2", "twisted3", "twisted4",
                   "potential3", "potential4", "pullback-cubic", "pullback-mixed3",
                   "pullback-chain3")),
    # for n > 4 the probe cube is shrunk by 2/sqrt(n) to stay inside the
    # validity radius, so the witness places no probe it then rejects
    ["affine-chart", "potential6", "--probes", "16", "--seed", "7"],
    ["affine-chart", "potential7", "--probes", "40", "--seed", "2"],
    # a uniform acceleration from a constant Gamma at n = 6 to 8
    *(["affine-chart", f"twisted{n}"] for n in (6, 7, 8)),
    # positions are scanned in chunks of 64 steps: a constant Gamma across
    # chunk boundaries, zero acceleration over many chunks, and one step,
    # where the first stage's k1 and the later stages' value both enter
    ["affine-chart", "pullback-flat", "--steps", "200"],
    ["affine-chart", "twisted4", "--steps", "200"],
    ["affine-chart", "euclidean2", "--steps", "100000", "--probes", "2"],
    ["affine-chart", "pullback-flat", "--steps", "1"],
    # a derived connection, whose RK4 error at 16 steps (6e-7) sits close to
    # PUSHFORWARD_TOL, at the default 64
    ["affine-chart", "hessian-dual-exp2", "--probes", "4"],
], ids=" ".join)
def test_a_valid_command_line_exits_0_silently(argv, tmp_path, capsys):
    command, name, *options = argv
    source = name if name in corpus.BUILTIN_BUILDERS else _spec_file(name, tmp_path)
    assert main([command, source, *options]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    out = json.loads(captured.out)
    if command == "check":
        assert (out["status"], out["agreement"]) == ("ok", True)
    else:
        assert out["witnessed"] is True


def test_theorem_on_an_empty_directory_is_a_spec_error(tmp_path, capsys):
    assert main(["theorem", "--corpus", str(tmp_path)]) == 1
    out = json.loads(capsys.readouterr().out)
    assert out == {"error": {"kind": "SpecError",
                             "message": f"no *.json specs found in {str(tmp_path)!r}"},
                   "status": "error"}


@pytest.mark.parametrize("error", [JetUsageError("jet mismatch"),
                                   np.linalg.LinAlgError("Singular matrix")],
                         ids=lambda e: type(e).__name__)
def test_internal_fault_exit_code(monkeypatch, capsys, error):
    # both subclass ValueError; they are internal faults, not spec errors
    import bornbundle.cli as cli_mod

    def broken(*args, **kwargs):
        raise error

    monkeypatch.setattr(cli_mod, "two_of_four_residuals", broken)
    code = main(["check", "euclidean2", "--points", "2", "--fiber-points", "1"])
    assert code == 2
    out = json.loads(capsys.readouterr().out)
    assert out == {"error": {"kind": type(error).__name__, "message": str(error)},
                   "status": "error"}


@pytest.mark.parametrize("argv", [["affine-chart", "euclidean2", "--probes", "1"],
                                  ["check", "euclidean2"]], ids=lambda a: a[0])
def test_a_probe_beyond_the_radius_is_an_internal_fault(argv, monkeypatch, capsys):
    # the witness places its probes inside the radius; one that lies beyond
    # it is the package's fault, not the spec's
    import bornbundle.charts as charts_mod

    monkeypatch.setattr(charts_mod, "halton_points",
                        lambda count, n, seed: np.full((count, n), 3.0))
    assert main(argv) == 2
    out, err = capsys.readouterr()
    error = json.loads(out)
    assert error["status"] == "error" and err == ""
    assert error["error"]["kind"] == "InternalError"
    assert re.fullmatch(r"probe \(.*\) lies beyond the chart validity radius 0\.5",
                        error["error"]["message"])


LC3 = {
    "dimension": 3,
    "coordinates": ["x0", "x1", "x2"],
    "metric": {"components": [["exp(-0.6*x1)", "0", "0"],
                              ["0", "exp(0.839*x2)", "0"],
                              ["0", "0", "exp(0.542*x0)"]]},
    "connection": {"kind": "levi-civita"},
    "sample_box": [[-1, 1], [-1, 1], [-1, 1]],
}


RESIDUALS = ("nijenhuis_I", "nijenhuis_J", "nijenhuis_K", "d_omega")


def _sweep_grid(spec):
    """The base points and fiber vectors of a 4 x 2 sweep at the default
    fiber radius and seed."""
    return [tuple(x) for x in sample_points(spec, 4, 42)], sample_fibers(spec.n, 2, 1.0, 42)


def _one_point_sweep(spec, base, fibers):
    """(bundle point, its residuals over 1 + |y| from the one-point
    functions) at every bundle point, in sweep order: point p*F + f is
    (base[p], fibers[f])."""
    for x in base:
        for y in fibers:
            bp = BundlePoint(x, tuple(y))
            scale = 1 + float(np.linalg.norm(y))
            want = {f"nijenhuis_{w}": float(np.max(np.abs(nijenhuis_at(spec, w, bp))))
                    for w in "IJK"}
            want["d_omega"] = float(np.max(np.abs(d_omega_at(spec, bp))))
            yield bp, {key: val / scale for key, val in want.items()}


@pytest.mark.parametrize("source", list(corpus.BUILTIN_BUILDERS) + ["lc3"])
def test_shared_sweep_matches_standalone_functions(source, tmp_path):
    if source == "lc3":
        path = tmp_path / "lc3.json"
        path.write_text(json.dumps(LC3))
        source = str(path)
    spec = load_spec(source)
    report = run(spec, points=4, fiber_points=2)
    base, fibers = _sweep_grid(spec)
    worst: dict = {}
    rows = list(_one_point_sweep(spec, base, fibers))
    for bp, _ in rows:
        for key, val in frame_residuals_at(spec, bp).items():
            worst[key] = max(worst.get(key, 0.0), val)
    # entry [p, f] of each residual belongs to (bases.x[p], fibers[f])
    integ = integrability_verdict(spec, 4, 2)
    assert list(integ.born.per_point) == list(RESIDUALS)
    assert [tuple(x) for x in integ.bases.x] == base
    assert integ.fibers.tolist() == fibers.tolist()
    for key in RESIDUALS:
        assert integ.born.per_point[key].ravel().tolist() == [want[key] for _, want in rows]
    assert report["born_compat"] == {"max_residuals": worst, "gate": BORN_GATE}
    assert list(report["born_compat"]["max_residuals"]) == list(worst)
    hv = hessian_verdict(spec, base, DEFAULT_TOL)
    assert report["hessian"] == {
        "is_hessian": hv.within, "max_curvature": hv.maxima["curvature"],
        "max_torsion": hv.maxima["torsion"],
        "max_nabla_g_asymmetry": hv.maxima["nabla_g_asymmetry"],
        "tol": hv.tol, "points": len(base)}
    two = two_of_four_residuals(spec, base, CROSS_TOL)
    assert report["two_of_four"] == {"residuals": two.maxima, "holds": two.holds,
                                     "tol": two.tol, "fact_violated": pattern_violated(two)}


@pytest.mark.parametrize("source", ["sphere2", "lc3", "hessian-exp2", "potential3",
                                    "pullback-flat", "flat-torsionful", "twisted3"])
def test_two_of_four_maxima_equal_a_direct_recomputation(source, tmp_path):
    # the report reads torsion and asymmetry off the Hessian verdict and
    # computes the other two; each equals its maximum over the sample points
    # of the one-point functions, for Levi-Civita, potential and explicit specs
    source = _source_of(source, tmp_path)
    report = small_run(source)
    spec = load_spec(source)
    points = [tuple(x) for x in sample_points(spec, SMALL["points"], 42)]
    rows = []
    for x in points:
        gamma, dual = connection_at(spec, x), dual_connection_at(spec, x)
        rows.append({"torsion": np.max(np.abs(torsion_at(spec, x))),
                     "dual_torsion": np.max(np.abs(dual - np.swapaxes(dual, 1, 2))),
                     "nabla_g_asymmetry": nabla_g_at(spec, x)[1],
                     "mean_vs_levi_civita": np.max(np.abs(
                         0.5 * (gamma + dual) - levi_civita_at(spec, x)))})
    want = {key: float(max(row[key] for row in rows)) for key in rows[0]}
    assert report["two_of_four"]["residuals"] == want
    assert list(report["two_of_four"]["residuals"]) == list(want)
    assert want["torsion"] == report["hessian"]["max_torsion"]
    assert want["nabla_g_asymmetry"] == report["hessian"]["max_nabla_g_asymmetry"]


@pytest.mark.parametrize("source,tol",
                         [(name, DEFAULT_TOL) for name in
                          [*corpus.BUILTIN_BUILDERS, "lc3", "twisted3"]]
                         + [("sphere2", 0.0), ("sphere2", 5e-324)])
def test_argmax_is_the_first_maximum_of_the_one_point_functions(source, tol, tmp_path):
    source = _source_of(source, tmp_path)
    spec = load_spec(source)
    report = run(spec, points=4, fiber_points=2, tol=tol)
    rows = list(_one_point_sweep(spec, *_sweep_grid(spec)))
    argmax = report["integrability"]["argmax"]
    assert list(argmax) == list(RESIDUALS)
    for key in RESIDUALS:
        values = [want[key] for _, want in rows]
        top = max(values)
        bp = rows[values.index(top)][0]  # the first point attaining it
        # log10(top / tol), finite even where top / tol overflows
        margin = None if top == 0 or tol == 0 else math.log10(top) - math.log10(tol)
        assert argmax[key] == {"x": list(bp.x), "y": list(bp.y), "margin": margin}
        assert report["integrability"][f"max_{key}"] == top
    json.dumps(report, allow_nan=False)  # strict JSON: a margin is never inf or NaN


def _source_of(name, tmp_path) -> str:
    if name in GENERATED:
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(GENERATED[name]))
        return str(path)
    return name


def _count_calls(monkeypatch, func) -> list:
    """Wrap ``func`` in every bornbundle module that binds it; the returned
    list gains an item per call."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(None)
        return func(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("bornbundle") and vars(module).get(func.__name__) is func:
            monkeypatch.setattr(module, func.__name__, counted)
    return calls


def test_check_evaluates_the_born_tensors_once(monkeypatch):
    born = _count_calls(monkeypatch, bundle.fiber_born_jets)
    blocks = _count_calls(monkeypatch, bundle._fiber_blocks)
    report = small_run("hessian-exp2")
    assert report["status"] == "ok"
    assert (len(born), len(blocks)) == (1, 1)


@pytest.mark.parametrize("scale,tol,is_hessian", [
    # curvature about 1e-8, above the default tolerance: not flat, although
    # below the chart's 1e-7 flatness gate
    ("1e-4", "1e-9", False),
    # curvature about 1e-6, flat under --tol 1e-5 but above the chart's gate
    ("1e-3", "1e-5", True),
])
def test_chart_witness_runs_only_on_a_flat_verdict(scale, tol, is_hessian, tmp_path,
                                                    capsys):
    # sphere2 in coordinates theta = scale * a, phi = scale * b; the
    # affine-chart witness, which fails on a curved sphere, must not run
    lam = float(scale)
    path = tmp_path / "sphere-scaled.json"
    path.write_text(json.dumps({
        "dimension": 2, "coordinates": ["a", "b"],
        "metric": {"components": [[repr(lam ** 2), "0"],
                                  ["0", f"{lam ** 2!r}*sin({scale}*a)^2"]]},
        "connection": {"kind": "levi-civita"},
        "sample_box": [[0.4 / lam, 2.7 / lam], [0.0, 3.1 / lam]]}))
    assert main(["check", str(path), "--points", "8", "--fiber-points", "2",
                 "--tol", tol]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["hessian"]["is_hessian"] == is_hessian
    assert "affine_chart" not in report
    assert report["status"] == "ok"


# -- unreadable and unwritable paths -------------------------------------------

def _error_of(argv, capsys):
    code = main(argv)
    out = json.loads(capsys.readouterr().out)
    assert code == 1
    assert out["status"] == "error"
    return out["error"]


def test_unwritable_report_path_is_an_error_json(tmp_path, capsys):
    target = tmp_path / "missing" / "x.json"
    error = _error_of(["check", "sphere2", "--points", "2", "--fiber-points", "1",
                       "--report", str(target)], capsys)
    assert error["kind"] == "SpecError"
    assert error["message"].startswith("cannot write report: [Errno 2] ")
    assert str(target) in error["message"]


def test_spec_path_that_is_a_directory_is_an_error_json(tmp_path, capsys):
    error = _error_of(["check", str(tmp_path)], capsys)
    assert error == {"kind": "SpecError", "message": "cannot read spec file: "
                     f"[Errno 21] Is a directory: {str(tmp_path)!r}"}


def test_corpus_entry_that_is_a_directory_is_an_error_json(tmp_path, capsys):
    (tmp_path / "x.json").mkdir()
    error = _error_of(["theorem", "--corpus", str(tmp_path)], capsys)
    assert error == {"kind": "SpecError", "message": "cannot read spec file: "
                     f"[Errno 21] Is a directory: {str(tmp_path / 'x.json')!r}"}


# -- reports hold only JSON-native values --------------------------------------

def _assert_native(value, path="report"):
    if isinstance(value, dict):
        for key, item in value.items():
            assert type(key) is str, f"{path}: key {key!r}"
            _assert_native(item, f"{path}[{key!r}]")
    elif isinstance(value, list):
        for i, item in enumerate(value):
            _assert_native(item, f"{path}[{i}]")
    else:
        assert type(value) in (str, int, float, bool, type(None)), \
            f"{path}: {type(value).__name__}"


@pytest.mark.parametrize("source,failure,status", [
    ("sphere2", None, "ok"),
    ("pullback-flat", None, "ok"),
    ("sphere2", "born-gate", "invariant-failure"),
    ("pullback-flat", "witness", "invariant-failure"),
])
def test_reports_are_json_native_on_every_branch(source, failure, status,
                                                 monkeypatch):
    import bornbundle.charts as charts_mod
    import bornbundle.integrability as integrability_mod
    if failure == "born-gate":
        monkeypatch.setattr(integrability_mod, "BORN_GATE", -1.0)
    if failure == "witness":
        monkeypatch.setattr(charts_mod, "PUSHFORWARD_TOL", -1.0)
    report = run(load_spec(source), points=4, fiber_points=2)
    _assert_native(report)
    assert report["status"] == status
    if failure == "witness":  # what the affine-chart command writes
        witness = charts_mod.affine_chart_witness(load_spec(source), (0.0, 0.0), 2, 8)
        _assert_native(witness)
        assert witness["witnessed"] is False


# -- the parser is built once per process --------------------------------------

PARSER_COMMANDS = [
    ["check", "sphere2", "--points", "2", "--fiber-points", "1", "--seed", "7"],
    ["theorem", "--points", "2", "--fiber-points", "1"],
    ["affine-chart", "euclidean2", "--probes", "2", "--steps", "4"],
    ["list-examples"],
    ["check", "--no-such-option"],
    ["check", "sphere2", "--points", "2", "--fiber-points", "1"],
]


def _captured_main(argv, capsys):
    try:
        code = main(argv)
    except SystemExit as e:
        code = ("exit", e.code)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parser_is_built_once_and_keeps_no_state(capsys):
    import bornbundle.cli as cli_mod
    first = {}
    for argv in PARSER_COMMANDS:  # each command as the first of its process
        cli_mod._parser.cache_clear()
        first[tuple(argv)] = _captured_main(argv, capsys)
    cli_mod._parser.cache_clear()
    for argv in PARSER_COMMANDS:  # the same commands in turn on one parser
        assert _captured_main(argv, capsys) == first[tuple(argv)], argv
    assert cli_mod._parser.cache_info().misses == 1
    assert first[tuple(PARSER_COMMANDS[4])][0] == ("exit", 2)
    seeds = [json.loads(first[tuple(PARSER_COMMANDS[i])][1])["config"]["seed"]
             for i in (0, 5)]
    assert seeds == [7, 42]  # --seed 7 does not leak into the next call


def test_parser_is_not_built_at_import():
    import os
    import subprocess
    import sys
    from pathlib import Path

    import bornbundle
    src = str(Path(bornbundle.__file__).resolve().parents[1])
    code = ("import bornbundle.cli as c; "
            "assert c._parser.cache_info().currsize == 0")
    subprocess.run([sys.executable, "-c", code], check=True,
                   env={**os.environ, "PYTHONPATH": src})
