"""Every top-level function, class and constant of ``src/hypfol`` is read by
the program: in ``src/hypfol``, ``scripts/`` or ``perfbench/``, outside its
own definition.  A name only tests read belongs in the tests."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "hypfol"
#: the program: the package, then the scripts and the benchmark that read it
SOURCES = [path for folder in (PACKAGE, ROOT / "scripts", ROOT / "perfbench") for path in sorted(folder.glob("*.py"))]


def _defined(statement) -> list[str]:
    """The names a top-level statement defines."""
    if isinstance(statement, (ast.FunctionDef, ast.ClassDef)):
        return [statement.name]
    if isinstance(statement, ast.Assign):
        return [t.id for t in statement.targets if isinstance(t, ast.Name)]
    if isinstance(statement, ast.AnnAssign) and isinstance(statement.target, ast.Name):
        return [statement.target.id]
    return []


def _reads(statement):
    """The names a statement reads: loaded names and attributes, and strings
    that are identifiers (the benchmark's tracer names its spans by string)."""
    for node in ast.walk(statement):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value.isidentifier():
            yield node.value


def test_every_package_definition_is_read_by_the_program():
    definitions, readers = [], {}  # readers: name -> {(path, statement index)}
    for path in SOURCES:
        body = ast.parse(path.read_text(encoding="utf-8")).body
        if path.parent == PACKAGE:
            definitions += [(name, path, k) for k, statement in enumerate(body) for name in _defined(statement)]
            if path.name == "__init__.py":
                continue  # its re-exports reach nothing
        for k, statement in enumerate(body):
            for name in _reads(statement):
                readers.setdefault(name, set()).add((path, k))
    unread = [f"{path.name}:{name}" for name, path, k in definitions if not readers.get(name, set()) - {(path, k)}]
    assert unread == []
