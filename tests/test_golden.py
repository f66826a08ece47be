"""Every golden case of scripts/golden.py gives its committed stdout, byte for
byte, and its committed exit code; regenerate with ``scripts/golden.py
--write`` only for a defect fix or a schema change."""
import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "golden.py"


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
