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


def no_gate(*args):
    raise AssertionError("the chart's gate points were evaluated")


@pytest.mark.parametrize("name", list(CASES))
def test_output_equals_golden_bytes(name, monkeypatch):
    # check reads flatness off its own sweep, and theorem runs check's
    # pipeline on each spec: neither reaches the chart's gate-point evaluation
    if name.startswith(("check-", "theorem-")):
        monkeypatch.setattr(charts, "_gate_connection", no_gate)
    code, text = GOLDEN.run_case(CASES[name])
    assert text == (GOLDEN.GOLDEN / name).read_text()
    assert code == EXIT_CODES[name]


def test_every_golden_file_is_a_case():
    files = {p.name for p in GOLDEN.GOLDEN.iterdir() if p.is_file()}
    assert files == {*CASES, GOLDEN.EXIT_CODES.name}
    assert set(EXIT_CODES) == set(CASES)


# A frozen list: test_output_equals_golden_bytes already asserts bytes, exit
# code and no gate evaluation for every check- and theorem- case, so this test
# repeats it, takes no new case, and can go once these 21 node ids may be
# dropped.
REPEATED = tuple(f"check-{name}.json" for name in (
    "euclidean2", "hessian-exp2", "flat-skew-metric", "sphere2", "flat-torsionful",
    "pullback-flat", "fisher-dual3", "hessian-dual-exp2", "near-hessian",
    "pullback-chain3", "pullback-cubic", "pullback-mixed3", "tors-curv", "lc3",
    "potential4", "twisted5", "sphere2-16x8", "pullback-flat-16x8", "lc3-12x4",
    "potential4-4x4", "lc3-radius-0.37"))


@pytest.mark.parametrize("name", REPEATED)
def test_check_runs_no_chart_gate(name, monkeypatch):
    monkeypatch.setattr(charts, "_gate_connection", no_gate)
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


@pytest.mark.parametrize("kernel", ["Prescott", "Haswell"])
def test_goldens_hold_under_another_blas_kernel(kernel):
    # OPENBLAS_CORETYPE picks the CPU kernel of an OpenBLAS DYNAMIC_ARCH
    # build, and is read when the library loads, so each kernel needs its
    # own interpreter; any other BLAS ignores it.  Prescott has no FMA and
    # Haswell has: a BLAS call on the report path, whose sums the kernel
    # orders, would move some golden's bytes under one of them
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "OPENBLAS_CORETYPE": kernel}
    done = subprocess.run([sys.executable, str(SCRIPT)], env=env, capture_output=True,
                          text=True, check=False)
    assert done.returncode == 0, done.stderr
