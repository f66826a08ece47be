import importlib.util
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "mutants.py"


def load_script():
    spec = importlib.util.spec_from_file_location("mutants", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # for the dataclass of its mutants
    spec.loader.exec_module(module)
    return module


MUTANTS = load_script().MUTANTS


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m.name)
def test_each_mutant_changes_one_text_and_names_existing_tests(mutant):
    # the script mutates only a text that occurs exactly once; a refactor
    # that moves it turns the mutant into an error, caught here first
    assert (ROOT / mutant.path).read_text().count(mutant.old) == 1
    assert mutant.new != mutant.old
    assert mutant.tests
    for test in mutant.tests:
        path, *node = test.split("::")
        assert (ROOT / path).is_file()
        assert not node or f"def {node[0]}(" in (ROOT / path).read_text()


def test_names_are_unique():
    assert len({m.name for m in MUTANTS}) == len(MUTANTS)


def test_an_unknown_name_is_one_usage_error(capsys):
    with pytest.raises(SystemExit) as exit_:
        load_script().main(["no-such-mutant"])
    assert exit_.value.code == 2
    assert capsys.readouterr().err.count("error:") == 1
