"""Every private top-level function or class and every UPPER_CASE module
constant of the package is read somewhere in it: as a name, an attribute or
an import.  A helper whose last caller went away fails here, not in review.
Every name that the package's ``__init__`` re-exports is read by one of its
other modules or by a script under ``scripts/``: a public name that only the
tests call is not library surface."""
import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "bornbundle"
SCRIPTS = ROOT / "scripts"
CONSTANT = re.compile(r"_?[A-Z][A-Z0-9_]*")


def _defined(tree: ast.Module) -> list[str]:
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            if node.name.startswith("_") and not node.name.startswith("__"):
                names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [t.id for t in targets
                      if isinstance(t, ast.Name) and CONSTANT.fullmatch(t.id)]
    return names


def _read(tree: ast.Module) -> set[str]:
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            out.update(alias.name for alias in node.names)
    return out


def test_every_private_helper_and_constant_is_read():
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    assert len(trees) >= 10
    read = set().union(*map(_read, trees.values()))
    defined = [(module, name) for module, tree in trees.items() for name in _defined(tree)]
    assert [f"{module}: {name}" for module, name in defined if name not in read] == []


def _unread_exports(package: Path, scripts: Path) -> list[str]:
    """The names that ``package/__init__.py`` imports from its modules and
    that no other module of ``package`` and no script under ``scripts``
    reads."""
    init = ast.parse((package / "__init__.py").read_text())
    exported = [alias.asname or alias.name for node in init.body
                if isinstance(node, ast.ImportFrom) and node.level
                for alias in node.names]
    others = [*(path for path in package.glob("*.py") if path.name != "__init__.py"),
              *scripts.glob("*.py")]
    read = set().union(*(_read(ast.parse(path.read_text())) for path in others))
    return [name for name in exported if name not in read]


def test_every_public_export_is_read_outside_the_init():
    assert _unread_exports(PACKAGE, SCRIPTS) == []


def test_an_export_only_the_tests_call_fails(tmp_path):
    package, scripts = tmp_path / "pkg", tmp_path / "scripts"
    package.mkdir()
    scripts.mkdir()
    (package / "__init__.py").write_text("from .mod import used, only_tested\n")
    (package / "mod.py").write_text("def used():\n    pass\n\n\ndef only_tested():\n"
                                    "    pass\n\n\nHOOK = used\n")
    assert _unread_exports(package, scripts) == ["only_tested"]
    (scripts / "tool.py").write_text("from pkg import only_tested\n")
    assert _unread_exports(package, scripts) == []
