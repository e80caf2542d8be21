"""Names that code outside a module reaches it by must resolve.

``perfbench/spans.py`` wraps package functions by ``(module, attribute)``
from outside the package, and ``perfbench/workloads.py`` checks each op's
report through the record attributes, so a change under ``src/`` that
breaks one of them would otherwise show only when the benchmark runs.
Every name a module lists in ``__all__``, and every name the package
re-exports from ``margingate/__init__.py``, must resolve as well.
"""
import ast
import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

import margingate
from margingate.cli import RunConfig, run_assessment
from margingate.fixtures import write_bundled_case
from margingate.report import render

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "margingate"


def load_perfbench(stem):
    name = f"perfbench_{stem}"
    spec = importlib.util.spec_from_file_location(name, ROOT / "perfbench" / f"{stem}.py")
    mod = importlib.util.module_from_spec(spec)
    sys.modules[name] = mod  # dataclasses look their module up by name
    spec.loader.exec_module(mod)
    return mod


def test_benchmark_wrapped_names_resolve():
    spans = load_perfbench("spans")
    targets = [(m, a) for m, a, _ in spans._SPANNED + spans._COUNTED]
    assert len(targets) > 20
    missing = [
        (m, a)
        for m, a in targets
        if not callable(getattr(importlib.import_module(m), a, None))
    ]
    assert missing == []


@pytest.mark.parametrize("case", ["compliant-A", "tableII-like"])
def test_benchmark_output_check_passes(case, tmp_path):
    workloads = load_perfbench("workloads")
    report, code = run_assessment(RunConfig(**write_bundled_case(case, tmp_path)))
    assert workloads.check_report(render(report, "json"), code) == report.overall_verdict


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
