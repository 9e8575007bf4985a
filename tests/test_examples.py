"""Smoke tests: the runnable examples must stay runnable.

The two heaviest scripts (telecom_monitoring, distributed_replication) run
as their own CI step (.github/workflows/ci.yml, "Examples"); the rest run
here end-to-end.
"""

import importlib.util
import pathlib
import sys

import pytest

EXAMPLES = pathlib.Path(__file__).parent.parent / "examples"

FAST_EXAMPLES = [
    "quickstart",
    "forecasting_banner_hits",
    "multi_stream_correlation",
    "certified_monitoring",
    "metrics_dashboard",
]


def _load(name: str):
    path = EXAMPLES / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"example_{name}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", FAST_EXAMPLES)
def test_example_runs(name, capsys):
    module = _load(name)
    module.main()
    out = capsys.readouterr().out
    assert len(out) > 100  # produced a real narrative, not a stub


def test_all_examples_exist_and_have_main():
    expected = set(FAST_EXAMPLES) | {"telecom_monitoring", "distributed_replication"}
    found = {p.stem for p in EXAMPLES.glob("*.py")}
    assert expected <= found
    for name in expected:
        assert "def main()" in (EXAMPLES / f"{name}.py").read_text()
