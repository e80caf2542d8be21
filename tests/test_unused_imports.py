"""No module of the package imports a name it neither uses nor exports.

A stdlib-only stand-in for a linter's unused-import rule: it walks the
syntax tree of each ``src/margingate/*.py`` and fails on an imported name
that is never read in the module and is not listed in its ``__all__``.
``__init__.py`` is skipped: its imports are the package's public surface.
"""
import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "margingate"


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    exported: set[str] = set()
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported.update(ast.literal_eval(node.value))
    return sorted(
        f"line {line}: {name}"
        for name, line in imported.items()
        if name not in used and name not in exported
    )


def test_checker_flags_an_unused_import():
    src = (
        "import os\nimport sys\nfrom math import pi, tau\n"
        "__all__ = ['tau']\nprint(sys.argv)\n"
    )
    assert unused_imports(src) == ["line 1: os", "line 3: pi"]


def test_no_unused_imports():
    found = {
        path.name: unused_imports(path.read_text(encoding="utf-8"))
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "__init__.py"
    }
    assert {name: names for name, names in found.items() if names} == {}
