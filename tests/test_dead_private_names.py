"""No module of the package defines a private name that nothing reads.

A stdlib-only stand-in for a linter's dead-code rule: it walks the syntax
tree of every ``src/margingate/*.py`` and fails on a module-level private
name (a ``_x`` function, class or constant) that no statement of the
package reads, other than the statement that defines it. A recursive
helper that only calls itself therefore counts as unread. A name is read
by a plain reference (``_x``) or as an attribute (``mod._x``).
"""
import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "margingate"


def _is_private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def _defined(stmt: ast.stmt) -> list[str]:
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    targets = stmt.targets if isinstance(stmt, ast.Assign) else [getattr(stmt, "target", None)]
    return [
        node.id
        for target in targets
        if isinstance(target, ast.AST)
        for node in ast.walk(target)
        if isinstance(node, ast.Name)
    ]


def _read(stmt: ast.stmt) -> set[str]:
    names = set()
    for node in ast.walk(stmt):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def dead_private_names(sources: dict[str, str]) -> list[str]:
    """``module: name`` for each module-level private name never read."""
    defined = []  # (module, name, defining statement)
    reads = []  # (statement, names it reads)
    for module, source in sources.items():
        for stmt in ast.parse(source).body:
            defined += [(module, name, stmt) for name in _defined(stmt) if _is_private(name)]
            reads.append((stmt, _read(stmt)))
    return sorted(
        f"{module}: {name}"
        for module, name, home in defined
        if not any(name in names for stmt, names in reads if stmt is not home)
    )


def test_checker_flags_dead_private_names():
    sources = {
        "a.py": (
            "_USED = 1\n_DEAD = 2\n_X, _Y = 3, 4\n"
            "def _recursive(n):\n    return _recursive(n - 1)\n"
            "class _Helper:\n    pass\n"
            "def public():\n    return _USED + _X\n"
        ),
        "b.py": "from . import a\nprint(a._Y, _Helper)\n",
    }
    assert dead_private_names(sources) == ["a.py: _DEAD", "a.py: _recursive"]


def test_no_dead_private_names():
    sources = {
        path.name: path.read_text(encoding="utf-8") for path in sorted(PACKAGE.glob("*.py"))
    }
    assert dead_private_names(sources) == []
