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
