import dataclasses
import json

import numpy as np
import pytest

from bornbundle import corpus
from bornbundle.bundle import (BundlePoint, born_at,
                               born_compatibility_residuals)
from bornbundle.cli import (RunConfig, load_spec, main, report_to_json, run,
                            spec_from_dict)
from bornbundle.errors import SpecError
from bornbundle.jets import JetUsageError
from bornbundle.integrability import CROSS_TOL, d_omega_at, nijenhuis_at
from bornbundle.manifold import (hessian_verdict, sample_fibers, sample_points,
                                 two_of_four_residuals)

SMALL = dict(points=6, fiber_points=3)


def small_config(source, **kw):
    return RunConfig(source=source, **{**SMALL, **kw})


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
    report = run(small_config(str(path)))
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


def test_run_euclidean_report_contents():
    report = run(small_config("euclidean2"))
    assert report["status"] == "ok"
    assert report["agreement"] is True
    assert report["hessian"]["is_hessian"] is True
    assert report["integrability"]["integrable"] is True
    assert report["born_compat"]["k_signature_ok"] is True
    assert max(report["born_compat"]["max_residuals"].values()) <= 1e-10
    assert report["affine_chart"]["witnessed"] is True
    assert set(report["sign_conventions"]) == {
        "bracket_HH", "bracket_HV", "nijenhuis_J_HH",
        "nijenhuis_J_VV", "nijenhuis_J_HV"}
    assert len(report["integrability"]["per_point"]) == 18


def test_run_sphere_not_hessian_but_ok():
    report = run(small_config("sphere2"))
    assert report["status"] == "ok"
    assert report["hessian"]["is_hessian"] is False
    assert report["integrability"]["integrable"] is False
    assert report["agreement"] is True
    assert "affine_chart" not in report


def test_run_flat_skew_d_omega_dominates():
    report = run(small_config("flat-skew-metric"))
    integ = report["integrability"]
    assert integ["max_nijenhuis_I"] <= integ["tol"]
    assert integ["max_nijenhuis_J"] <= integ["tol"]
    assert integ["max_nijenhuis_K"] <= integ["tol"]
    assert integ["max_d_omega"] > integ["tol"]
    assert report["agreement"] is True
    assert report["status"] == "ok"


def test_reports_are_byte_identical_for_same_seed():
    a = report_to_json(run(small_config("pullback-flat")))
    b = report_to_json(run(small_config("pullback-flat")))
    assert a.encode() == b.encode()


def test_reports_differ_for_different_seed():
    a = report_to_json(run(small_config("hessian-exp2", seed=1)))
    b = report_to_json(run(small_config("hessian-exp2", seed=2)))
    assert a != b


def test_config_validation():
    with pytest.raises(SpecError):
        RunConfig(source="euclidean2", points=0)
    with pytest.raises(SpecError):
        RunConfig(source="euclidean2", fiber_radius=-1.0)


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
    # 1/g_uu overflows inverting g
    pytest.param(_diag_spec(("exp(1000*u)", "1"), "levi-civita", OVERFLOW_BOX),
                 "JetDomainError", "overflows", id="levi-civita-0-JetDomainError"),
    # a product of finite factors overflows to inf
    pytest.param(_diag_spec(("exp(500*u)*exp(500*u)", "1")),
                 "SpecError", "metric[0][0] or one of its derivatives is not finite",
                 id="metric-product"),
    pytest.param(_diag_spec(("1", "1"), "explicit", gamma=GAMMA_OVERFLOW),
                 "SpecError", "gamma[0][0][0] or one of its derivatives is not finite",
                 id="gamma-product"),
    # a finite value whose first partial overflows
    pytest.param(_diag_spec(("1", "exp(700*u)*exp(9*u)"), box=((0.99, 1), (-1, 1))),
                 "SpecError", "metric[1][1] or one of its derivatives is not finite",
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


@pytest.mark.parametrize("func", ["log", "sqrt"])
def test_tiny_log_or_sqrt_argument_is_spec_error(func, tmp_path, capsys):
    # at u^60 + 1e-300 ~ 1e-138 the third derivative of log overflows
    # (1/v^3) and the one of sqrt divides by v^2 sqrt(v), which underflows
    spec = _diag_spec((f"1 + {func}(u^60 + 1e-300)^2", "1"),
                      box=((-0.01, 0.01), (-1, 1)))
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(spec))
    code = main(["check", str(path), "--points", "4", "--fiber-points", "2"])
    assert code == 1
    captured = capsys.readouterr()
    out = json.loads(captured.out)
    assert out["status"] == "error"
    assert out["error"]["kind"] == "EvalDomainError"
    assert out["error"]["message"].startswith(f"derivatives of {func} at ")
    assert captured.err == ""


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
@pytest.mark.parametrize("command", ["check", "theorem", "affine-chart"])
def test_fiber_radius_must_be_finite_and_positive(command, radius, capsys):
    target = {"check": ["euclidean2", "--points", "4", "--fiber-points", "2"],
              "theorem": ["--points", "4", "--fiber-points", "2"],
              "affine-chart": ["euclidean2", "--probes", "2"]}[command]
    code = main([command, *target, "--fiber-radius", radius])
    assert code == 1
    out = json.loads(capsys.readouterr().out)
    assert out["error"]["message"] == "fiber radius must be finite and positive"


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
    code = main(["affine-chart", "sphere2"])
    assert code == 1
    out = json.loads(capsys.readouterr().out)
    assert out["status"] == "error"


@pytest.mark.parametrize("args,message", [
    pytest.param(["--steps", "0"], "need at least one integration step", id="steps-0"),
    pytest.param(["--steps", "-1"], "need at least one integration step", id="steps-negative"),
    pytest.param(["--at", "0.1"], "chart base point has 1 coordinates, expected 2",
                 id="at-short"),
    pytest.param(["--at", "0,0,0"], "chart base point has 3 coordinates, expected 2",
                 id="at-long"),
])
def test_cli_affine_chart_rejects_bad_arguments(args, message, capsys):
    code = main(["affine-chart", "euclidean2", *args])
    assert code == 1
    out = json.loads(capsys.readouterr().out)
    assert out["status"] == "error"
    assert out["error"]["message"] == message


def test_invariant_failure_exit_code(monkeypatch, capsys):
    # a verdict disagreement cannot arise from a correct build, so force one
    # to check the exit-code contract
    import bornbundle.cli as cli_mod

    real = cli_mod.integrability_verdict

    def broken(spec, *args, **kwargs):
        rep = real(spec, *args, **kwargs)
        return dataclasses.replace(rep, integrable=not rep.integrable,
                                   hessian_agreement=False)

    monkeypatch.setattr(cli_mod, "integrability_verdict", broken)
    code = main(["check", "euclidean2", "--points", "4", "--fiber-points", "2"])
    assert code == 2
    report = json.loads(capsys.readouterr().out)
    assert report["status"] == "invariant-failure"
    assert any("disagree" in f for f in report["failures"])


@pytest.mark.parametrize("error", [JetUsageError("jet mismatch"),
                                   np.linalg.LinAlgError("Singular matrix")],
                         ids=lambda e: type(e).__name__)
def test_internal_fault_exit_code(monkeypatch, capsys, error):
    # both subclass ValueError; they are internal faults, not spec errors
    import bornbundle.cli as cli_mod

    def broken(*args, **kwargs):
        raise error

    monkeypatch.setattr(cli_mod.TwoOfFourReport, "of", broken)
    code = main(["check", "euclidean2", "--points", "2", "--fiber-points", "1"])
    assert code == 2
    out = json.loads(capsys.readouterr().out)
    assert out == {"error": {"kind": type(error).__name__, "message": str(error)},
                   "status": "error"}


LC3 = {
    "dimension": 3,
    "coordinates": ["x0", "x1", "x2"],
    "metric": {"components": [["exp(-0.6*x1)", "0", "0"],
                              ["0", "exp(0.839*x2)", "0"],
                              ["0", "0", "exp(0.542*x0)"]]},
    "connection": {"kind": "levi-civita"},
    "sample_box": [[-1, 1], [-1, 1], [-1, 1]],
}


@pytest.mark.parametrize("source", list(corpus.BUILTIN_BUILDERS) + ["lc3"])
def test_shared_sweep_matches_standalone_functions(source, tmp_path):
    if source == "lc3":
        path = tmp_path / "lc3.json"
        path.write_text(json.dumps(LC3))
        source = str(path)
    config = RunConfig(source=source, points=4, fiber_points=2)
    report = run(config)
    spec = load_spec(source)
    base = [tuple(x) for x in sample_points(spec, config.points, config.seed)]
    fibers = sample_fibers(spec.n, config.fiber_points, config.fiber_radius,
                           config.seed)
    worst: dict = {}
    signature_ok = True
    rows = iter(report["integrability"]["per_point"])
    for x in base:
        for y in fibers:
            bp = BundlePoint(x, tuple(y))
            rep = born_compatibility_residuals(born_at(spec, bp))
            for key, val in rep.residuals.items():
                worst[key] = max(worst.get(key, 0.0), val)
            signature_ok = signature_ok and rep.k_signature == (spec.n, spec.n)
            scale = 1 + float(np.linalg.norm(y))
            want = {f"nijenhuis_{w}": float(np.max(np.abs(nijenhuis_at(spec, w, bp))))
                    for w in "IJK"}
            want["d_omega"] = float(np.max(np.abs(d_omega_at(spec, bp))))
            assert next(rows) == {"x": list(bp.x), "y": list(bp.y),
                                  **{key: val / scale for key, val in want.items()}}
    assert next(rows, None) is None
    assert report["born_compat"]["max_residuals"] == worst
    assert list(report["born_compat"]["max_residuals"]) == list(worst)
    assert report["born_compat"]["k_signature_ok"] == signature_ok
    hv = hessian_verdict(spec, base, config.tol)
    assert report["hessian"] == {
        "is_hessian": hv.is_hessian, "max_curvature": hv.max_curvature,
        "max_torsion": hv.max_torsion,
        "max_nabla_g_asymmetry": hv.max_nabla_g_asymmetry,
        "tol": hv.tol, "points": hv.points}
    assert report["two_of_four"] == dataclasses.asdict(
        two_of_four_residuals(spec, base, CROSS_TOL))


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
