"""The public surface: the README's API list and the benchmark's traced names."""

import importlib.util
import re
from pathlib import Path

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
