"""Shared fixtures for the complexity, latency, ablation, ADR and
batched-ingest benchmarks.  The paper's figures and their claims are run by ``repro <id>``
(``src/repro/experiments/registry.py``), not from here.

Every bench prints its table (via the ``report`` fixture, which bypasses
pytest's output capture so the tables appear in
``pytest benchmarks/ --benchmark-only`` output) and also writes it under
``benchmarks/results/``.

Set ``REPRO_QUICK=1`` to run scaled-down versions (~10x faster) of the
costliest benches.
"""

import os
import pathlib

import pytest

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


def quick_mode() -> bool:
    return os.environ.get("REPRO_QUICK", "0") not in ("0", "", "false")


@pytest.fixture()
def report(request):
    """Print a table past pytest's capture and persist it to results/."""
    capman = request.config.pluginmanager.getplugin("capturemanager")

    def _report(text: str, name: str = None) -> None:
        if capman is not None:
            with capman.global_and_fixture_disabled():
                print("\n" + text)
        else:
            print("\n" + text)
        filename = name or request.node.name
        RESULTS_DIR.mkdir(exist_ok=True)
        (RESULTS_DIR / f"{filename}.txt").write_text(text + "\n")

    return _report
