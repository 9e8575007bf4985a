"""Histogram baseline: Guha-Koudas approximate histograms (batch, and the
query-time sliding-window rebuild)."""

from .approx import approximate_histogram, breakpoint_positions
from .prefix import PrefixStats
from .summarizer import HistogramSummary
from .vopt import Bucket, Histogram, sse_of_partition, vopt_histogram

__all__ = [
    "approximate_histogram",
    "breakpoint_positions",
    "PrefixStats",
    "HistogramSummary",
    "Bucket",
    "Histogram",
    "vopt_histogram",
    "sse_of_partition",
]
