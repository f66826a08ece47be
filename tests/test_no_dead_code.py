"""Every private top-level function or class and every UPPER_CASE module
constant of the package is read somewhere in it: as a name, an attribute or
an import.  A helper whose last caller went away fails here, not in review."""
import ast
import re
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "bornbundle"
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
