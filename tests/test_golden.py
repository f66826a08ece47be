"""Every golden case of scripts/golden.py gives its committed stdout, byte for
byte, and its committed exit code; regenerate with ``scripts/golden.py
--write`` only for a defect fix or a schema change."""
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from bornbundle import charts

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "golden.py"


def load_script():
    spec = importlib.util.spec_from_file_location("golden", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


GOLDEN = load_script()
CASES = GOLDEN.cases()
EXIT_CODES = json.loads(GOLDEN.EXIT_CODES.read_text())


@pytest.mark.parametrize("name", list(CASES))
def test_output_equals_golden_bytes(name):
    code, text = GOLDEN.run_case(CASES[name])
    assert text == (GOLDEN.GOLDEN / name).read_text()
    assert code == EXIT_CODES[name]


def test_every_golden_file_is_a_case():
    files = {p.name for p in GOLDEN.GOLDEN.iterdir() if p.is_file()}
    assert files == {*CASES, GOLDEN.EXIT_CODES.name}
    assert set(EXIT_CODES) == set(CASES)


@pytest.mark.parametrize("name", [name for name in CASES if name.startswith("check-")])
def test_check_runs_no_chart_gate(name, monkeypatch):
    # check reads flatness off its own sweep: the chart's gate-point
    # evaluation is never reached, and every report keeps its bytes
    def gate(*args):
        raise AssertionError("check evaluated the chart's gate points")

    monkeypatch.setattr(charts, "_gate_connection", gate)
    code, text = GOLDEN.run_case(CASES[name])
    assert text == (GOLDEN.GOLDEN / name).read_text()
    assert code == EXIT_CODES[name]


@pytest.mark.parametrize("spec", ["sphere2", "pullback-flat"])
def test_python_m_bornbundle_is_independent_of_the_hash_seed(spec):
    # a hash seed is fixed when the interpreter starts, so this test starts
    # two: python -m bornbundle under each seed gives the golden bytes and
    # writes nothing to stderr
    argv = [sys.executable, "-m", "bornbundle", "check", spec, "--points", "4",
            "--fiber-points", "2"]
    outs = []
    for seed in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "PYTHONHASHSEED": seed}
        done = subprocess.run(argv, env=env, capture_output=True, text=True, check=False)
        assert (done.returncode, done.stderr) == (EXIT_CODES[f"check-{spec}.json"], "")
        outs.append(done.stdout)
    assert outs[0] == outs[1] == (GOLDEN.GOLDEN / f"check-{spec}.json").read_text()
