import importlib.util
import json
import math
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "run_corpus.py"


def load_script():
    spec = importlib.util.spec_from_file_location("run_corpus", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SMALL = ["--points", "2", "--fiber-points", "1"]


def test_out_on_an_existing_file_is_one_line_error(tmp_path, capsys):
    path = tmp_path / "reports"
    path.write_text("not a directory")
    assert load_script().main([*SMALL, "--out", str(path)]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.count("\n") == 1
    assert err.startswith("run_corpus.py: cannot write report: ") and str(path) in err


def test_unwritable_report_is_one_line_error(tmp_path, capsys):
    # the first built-in's report path is a directory
    (tmp_path / "euclidean2.json").mkdir()
    assert load_script().main([*SMALL, "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.count("\n") == 1
    assert str(tmp_path / "euclidean2.json") in err


def test_writes_one_report_per_builtin(tmp_path, capsys):
    script = load_script()
    assert script.main([*SMALL, "--out", str(tmp_path / "out")]) == 0
    written = sorted(p.stem for p in (tmp_path / "out").iterdir())
    assert written == sorted(script.corpus.BUILTIN_BUILDERS)
    for p in (tmp_path / "out").iterdir():
        assert json.loads(p.read_text())["status"] == "ok"
    assert "all agree" in capsys.readouterr().out


def test_dominant_residual_is_printed_with_its_margin(capsys):
    script = load_script()
    assert script.main(SMALL) == 0
    lines = capsys.readouterr().out.splitlines()
    rows = {line.split()[0]: line for line in lines[2:2 + len(script.corpus.BUILTIN_BUILDERS)]}
    for name, dominant, key in [("sphere2", "curvature", "max_curvature"),
                                ("flat-torsionful", "torsion", "max_torsion"),
                                ("flat-skew-metric", "nabla_g_asym", "max_nabla_g_asymmetry")]:
        hessian = script.run(script.RunConfig(source=name, points=2, fiber_points=1))["hessian"]
        margin = math.log10(hessian[key] / hessian["tol"])
        assert margin > 0
        assert rows[name].endswith(f" {dominant} ({margin:+.1f})")
    for name in ("euclidean2", "hessian-exp2", "pullback-flat"):
        assert rows[name].endswith(" -")


@pytest.mark.parametrize("args,message", [
    (["--points", "0"], "sample counts must be at least 1"),
    (["--fiber-points", "-1"], "sample counts must be at least 1"),
    (["--fiber-radius", "0"], "fiber radius must be finite and positive"),
])
def test_bad_sample_argument_is_one_line_error(args, message, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        load_script().main([*args, "--out", str(tmp_path / "out")])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Traceback" not in captured.err
    error = [line for line in captured.err.splitlines() if "error:" in line]
    assert len(error) == 1
    assert error[0].split(": error: ", 1)[1] == message
    assert not (tmp_path / "out").exists()
