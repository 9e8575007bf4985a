"""Multi-stream monitoring — the paper's Section 6 future-work direction.

A processing centre watches many sensor streams at once (think one stream
per network link).  Each stream is summarized by its own SWAT; pairwise
correlations are estimated **from the summaries** instead of raw windows,
and a standing query re-evaluated after every arrival watches the aggregate
load and alerts on shifts.

Run:  python examples/multi_stream_correlation.py
"""

import numpy as np

from repro import StreamEnsemble, Swat, exponential_query
from repro.core import QueryEngine

WINDOW = 128
TICKS = 1500
ALERT_DELTA = 25.0


def make_links(n_ticks: int, seed: int = 11):
    """Per-link traffic: two groups share congestion; one link is erratic."""
    rng = np.random.default_rng(seed)
    backbone = np.cumsum(rng.normal(0, 1.0, n_ticks)) + 60
    east = backbone + rng.normal(0, 1.5, n_ticks)
    west = backbone * 0.8 + rng.normal(0, 1.5, n_ticks) + 10
    overflow = 120 - backbone + rng.normal(0, 1.5, n_ticks)  # spill-over link
    flaky = rng.uniform(0, 120, n_ticks)  # misbehaving link
    return {"east": east, "west": west, "overflow": overflow, "flaky": flaky}


def main() -> None:
    links = make_links(TICKS)
    ensemble = StreamEnsemble(WINDOW, k=4)
    for name in links:
        ensemble.add_stream(name)

    # A standing query alerts when the recency-weighted 'east' load moves
    # by more than ALERT_DELTA since the last alert.  The engine caches the
    # query's plan, so re-evaluating it every tick is cheap.
    east = Swat(WINDOW)
    engine = QueryEngine(east)
    load = exponential_query(16)
    alerts = []

    for i in range(TICKS):
        ensemble.update({name: series[i] for name, series in links.items()})
        east.update(links["east"][i])
        if load.max_index < east.size:
            value = engine.answer(load).value
            if not alerts or abs(value - alerts[-1][1]) > ALERT_DELTA:
                alerts.append((east.time, value))

    names, matrix = ensemble.correlation_matrix()
    print(f"monitoring {len(names)} links, window {WINDOW}, "
          f"{ensemble.memory_coefficients} total stored coefficients "
          f"(vs {len(names) * WINDOW} raw values)\n")
    print("correlation matrix (from summaries):")
    header = "          " + "".join(f"{n:>10}" for n in names)
    print(header)
    for i, a in enumerate(names):
        print(f"{a:>10}" + "".join(f"{matrix[i, j]:>10.2f}" for j in range(len(names))))

    buddy, corr = ensemble.most_correlated("east")
    print(f"\n'east' moves with '{buddy}' (r = {corr:.2f}); "
          f"'overflow' is anti-correlated (spill-over), 'flaky' is noise")

    print(f"\nstanding query fired {len(alerts)} load-shift alerts "
          f"over {TICKS} ticks; last three:")
    for t, v in alerts[-3:]:
        print(f"  tick {t}: weighted load {v:.1f}")


if __name__ == "__main__":
    main()
