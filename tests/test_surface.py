"""The public surface: the README's API list, the benchmark's traced names
and a caller for every module export."""

import ast
import importlib.util
import re
from pathlib import Path

import pytest

import tailbound

ROOT = Path(__file__).resolve().parents[1]


def test_readme_api_list_is_all():
    text = (ROOT / "README.md").read_text()
    section = text.split("## Public API\n", 1)[1].split("\n## ", 1)[0]
    listed = re.findall(r"^- `([A-Za-z_]\w*)`$", section, flags=re.M)
    assert listed == sorted(tailbound.__all__)


def test_every_traced_name_resolves():
    # benchmark/tracing.py wraps functions by (module, attribute); a fold that
    # deletes one should fail here, not in a traced benchmark run.
    spec = importlib.util.spec_from_file_location("_bench_tracing",
                                                  ROOT / "benchmark" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for name, (modules, attr, _timed, _watched) in tracing._TARGETS.items():
        for module in modules:
            assert callable(getattr(module, attr, None)), (name, module.__name__, attr)


def _identifiers(path, strings=False):
    """The names a Python file uses: loads and attribute lookups, and with
    ``strings`` the string constants too (tracing tables name functions)."""
    out = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            out.add(node.value)
    return out


@pytest.mark.parametrize("module", ["bounds", "distributions", "posmoments", "special",
                                    "oracle", "_quadrature"])
def test_every_module_export_has_a_caller(module):
    # A name a module exports must be used by the program, the README or the
    # benchmark; its definition and its __all__ entry (a string) are no use.
    # A helper that only the tests call belongs in tests/_oracles.py.
    used = set().union(*(_identifiers(p) for p in (ROOT / "src" / "tailbound").glob("*.py")),
                       *(_identifiers(p, strings=True) for p in (ROOT / "benchmark").glob("*.py")))
    readme = (ROOT / "README.md").read_text()
    exported = importlib.import_module(f"tailbound.{module}").__all__
    stranded = [name for name in exported
                if name not in used and not re.search(rf"\b{name}\b", readme)]
    assert stranded == []
