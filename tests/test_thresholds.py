"""The thresholds table of bornbundle.manifold: each value pinned, the
README's table in step with it, and a spec whose verdicts turn between the
default tolerance and a looser one."""
import dataclasses
import json
import re
from pathlib import Path

import pytest

from bornbundle import corpus, manifold
from bornbundle.bundle import BundlePoint, born_at, born_compatibility_residuals
from bornbundle.cli import main

ROOT = Path(__file__).resolve().parent.parent
NEAR_HESSIAN = str(ROOT / "scripts" / "specs" / "near-hessian.json")
TABLE = {
    "DEFAULT_TOL": 1e-9,
    "CROSS_TOL": 1e-7,
    "BORN_GATE": 1e-8,
    "OMEGA_DET_FLOOR": 1e-12,
    "FLATNESS_GATE_TOL": 1e-7,
    "PUSHFORWARD_TOL": 1e-6,
    "PROBE_RADIUS_SLACK": 1e-12,
}


def test_table_values():
    assert {name: getattr(manifold, name) for name in TABLE} == TABLE


def test_readme_table_lists_every_threshold():
    rows = re.findall(r"^\| `([A-Z_]+)` \| ([0-9.e-]+) \|", (ROOT / "README.md").read_text(),
                      re.MULTILINE)
    assert {name: float(value) for name, value in rows} == TABLE


def check(args, capsys) -> tuple[int, dict]:
    code = main(["check", *args])
    return code, json.loads(capsys.readouterr().out)


def test_near_hessian_fails_both_verdicts_at_the_default_tolerance(capsys):
    # flat connection, g = diag(1, 1 + 5e-7 u): the nabla g asymmetry is 5e-7
    code, report = check([NEAR_HESSIAN], capsys)
    assert code == 0
    assert report["hessian"]["max_nabla_g_asymmetry"] > manifold.DEFAULT_TOL
    assert not report["hessian"]["is_hessian"]
    assert not report["integrability"]["integrable"]
    assert report["agreement"]
    assert report["status"] == "ok"


def test_near_hessian_passes_both_verdicts_at_a_looser_tolerance(capsys):
    code, report = check([NEAR_HESSIAN, "--tol", "1e-6"], capsys)
    assert code == 0
    assert report["hessian"]["is_hessian"]
    assert report["integrability"]["integrable"]
    assert report["agreement"]
    assert report["affine_chart"]["witnessed"]


@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP item 1: mean_vs_levi_civita is about eps/2, under the absolute CROSS_TOL "
    "while the dual torsion and the asymmetry are above it, so exactly two of the four "
    "conditions hold and check exits 2 with the two_of_four pattern"))
@pytest.mark.parametrize("eps", ["1e-7", "1.5e-7", "1.9e-7"])
def test_two_of_four_band_exits_0(eps, tmp_path, capsys):
    path = tmp_path / "band.json"
    path.write_text(Path(NEAR_HESSIAN).read_text().replace("5e-7", eps))
    assert check([str(path)], capsys)[0] == 0


@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP item 1b: omega_nondegenerate is max(0, OMEGA_DET_FLOOR - |det omega|), "
    "never above 1e-12, so the BORN_GATE of 1e-8 cannot flag a degenerate omega; "
    "here it reads 1e-12 while I_vs_h_inv_omega reads 1.0"))
def test_a_degenerate_omega_fails_its_own_identity():
    frame = born_at(corpus.example("euclidean2"), BundlePoint((0.1, 0.2), (0.3, 0.4)))
    degenerate = dataclasses.replace(frame, omega=frame.omega * 1e-7)
    residuals = born_compatibility_residuals(degenerate).residuals
    assert residuals["omega_nondegenerate"] > manifold.BORN_GATE
