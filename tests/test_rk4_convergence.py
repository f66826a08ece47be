import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "rk4_convergence.py"


def load_script():
    spec = importlib.util.spec_from_file_location("rk4_convergence", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_sphere_contracts_fourth_order(capsys):
    assert load_script().main(["--max-steps", "32"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines[1:]] == ["4", "8", "16"]
    assert lines[-1].endswith("x")


@pytest.mark.parametrize("spec", ["pullback-flat", "euclidean2"])
def test_flat_geodesic_converges_to_round_off(spec, capsys):
    # RK4 is exact on these quadratic geodesics: every difference is a few
    # ulps, printed without a ratio, and the study passes
    assert load_script().main(["--spec", spec, "--x0", "0,0", "--v", "0.3,0.2"]) == 0
    captured = capsys.readouterr()
    rows = captured.out.splitlines()[1:]
    assert [row.split()[0] for row in rows] == ["4", "8", "16", "32", "64", "128"]
    assert all(row.endswith("round-off") for row in rows)
    assert captured.err == ""


def test_sphere_contraction_is_still_checked(capsys):
    # the sphere's differences are far above round-off, so a ratio outside
    # the band still fails the study
    script = load_script()
    script.CONTRACTION = (16.25, 20.0)
    assert script.main(["--max-steps", "64"]) == 1
    captured = capsys.readouterr()
    assert "round-off" not in captured.out
    assert captured.err.startswith("contraction outside [16.25, 20]: 16.2x at 32 steps")


@pytest.mark.parametrize("args,message", [
    pytest.param(["--x0", "1.0"], "start point has 1 coordinates, expected 2", id="x0-short"),
    pytest.param(["--x0", "abc"], "argument --x0: must be comma-separated numbers, not 'abc'",
                 id="x0-not-a-number"),
    pytest.param(["--x0", "9,9"], "start point (9.0, 9.0) lies outside the sample box",
                 id="x0-outside"),
    pytest.param(["--v", "1,2,3"], "velocity (1.0, 2.0, 3.0) has 3 components, expected 2",
                 id="v-long"),
    pytest.param(["--v", "3,3"], "geodesic left the sample box at step 3/4", id="leaves-box"),
    pytest.param(["--spec", "nope"], "argument --spec: invalid choice: 'nope'", id="spec-unknown"),
    # below 16 steps no contraction is measured, so the study would pass vacuously
    *(pytest.param(["--max-steps", steps], f"--max-steps must be at least 16 to measure a "
                   f"contraction, not {steps}", id=f"max-steps-{steps}")
      for steps in ("15", "8", "4")),
])
def test_bad_argument_is_one_line_error(args, message, capsys):
    with pytest.raises(SystemExit) as exc:
        load_script().main(args)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Traceback" not in captured.err
    error = [line for line in captured.err.splitlines() if "error:" in line]
    assert len(error) == 1
    assert error[0].split(": error: ", 1)[1].startswith(message)
