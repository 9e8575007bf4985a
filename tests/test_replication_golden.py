"""Golden Figure 9(a) and 10(a) rows: every message total and error, exactly.

``tests/fixtures/replication_golden.json`` holds the ``--quick`` rows of
``repro fig9a`` and ``repro fig10a`` (the same calls, the same
parameters).  Each per-protocol message total and each ``_err`` column must
match bit for bit, so any change to the replication protocols, the
baselines, the simulator or the sweep functions that moves a single message
or a single rounding shows up here.
"""

import json
import os

import pytest

from repro.experiments import fig9a_rate_sweep, fig10a_client_sweep
from repro.replication.harness import PROTOCOLS

GOLDEN = os.path.join(os.path.dirname(__file__), "fixtures", "replication_golden.json")

with open(GOLDEN, encoding="utf-8") as _fh:
    _CASES = json.load(_fh)

_SWEEPS = {
    "fig9a_rate_sweep": fig9a_rate_sweep,
    "fig10a_client_sweep": fig10a_client_sweep,
}


@pytest.mark.parametrize("sweep", sorted(_CASES))
def test_rows_match_golden(sweep):
    case = _CASES[sweep]
    rows = _SWEEPS[sweep](**case["kwargs"])
    assert len(rows) == len(case["rows"])
    for row, expected in zip(rows, case["rows"]):
        assert list(row) == list(expected)
        for name in PROTOCOLS:
            assert row[name] == expected[name], (sweep, name, expected)
            assert float(row[f"{name}_err"]) == expected[f"{name}_err"], (sweep, name)
        assert row == expected


def test_fixture_covers_every_protocol():
    for case in _CASES.values():
        for row in case["rows"]:
            for name in PROTOCOLS:
                assert isinstance(row[name], int) and row[name] > 0
                assert f"{name}_err" in row
