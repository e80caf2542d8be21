"""Names that code outside a module reaches it by must resolve.

``perfbench/spans.py`` wraps package functions by ``(module, attribute)``
from outside the package, so a removal under ``src/`` that breaks one of
them would otherwise show only when the benchmark runs. Every name a
module lists in ``__all__``, and every name the package re-exports from
``margingate/__init__.py``, must resolve as well.
"""
import ast
import importlib
import importlib.util
from pathlib import Path

import margingate

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "margingate"


def load_spans():
    spec = importlib.util.spec_from_file_location(
        "perfbench_spans", ROOT / "perfbench" / "spans.py"
    )
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_benchmark_wrapped_names_resolve():
    spans = load_spans()
    targets = [(m, a) for m, a, _ in spans._SPANNED + spans._COUNTED]
    assert len(targets) > 20
    missing = [
        (m, a)
        for m, a in targets
        if not callable(getattr(importlib.import_module(m), a, None))
    ]
    assert missing == []


def test_all_names_resolve():
    missing = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem == "__init__":
            continue
        mod = importlib.import_module(f"margingate.{path.stem}")
        names = getattr(mod, "__all__", ())
        missing += [f"{path.stem}.{n}" for n in names if not hasattr(mod, n)]
    assert missing == []


def test_package_reexports_resolve():
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    names = [
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]
    assert len(names) > 50
    assert [n for n in names if not hasattr(margingate, n)] == []
