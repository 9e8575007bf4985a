"""repro — reproduction of "SWAT: Hierarchical Stream Summarization in Large
Networks" (Bulut & Singh, ICDE 2003).

Public API highlights:

* :class:`repro.Swat` — the multi-resolution wavelet approximation tree;
* :mod:`repro.core.queries` — point / range / inner-product query model;
* :class:`repro.HistogramSummary` — the Guha-Koudas histogram baseline;
* :class:`repro.SwatAsr`, :class:`repro.DivergenceCaching`,
  :class:`repro.AdaptivePrecision` — the replication protocols of §3-4;
* :mod:`repro.experiments` — one driver per paper figure;
* :mod:`repro.obs` — metrics registry, tracing, and exporters (off by
  default; ``repro stats`` / ``--metrics-out`` on the CLI, or
  ``repro.obs.enable()`` from code).

Logging follows library convention: everything goes to the ``"repro"``
logger hierarchy with a ``NullHandler`` attached, so the package is silent
unless the application (or the CLI's ``-v/--verbose`` flag) installs a
handler.
"""

import logging as _logging

from . import obs
from .core import (
    InnerProductQuery,
    QueryAnswer,
    RangeQuery,
    StreamEnsemble,
    Swat,
    exponential_query,
    linear_query,
    point_query,
)
from .histogram import HistogramSummary
from .network import Topology
from .replication import (
    AdaptivePrecision,
    DivergenceCaching,
    ReplicationConfig,
    SwatAsr,
    make_protocol,
    run_replication,
)

_logging.getLogger("repro").addHandler(_logging.NullHandler())

__version__ = "1.0.0"

__all__ = [
    "obs",
    "Swat",
    "QueryAnswer",
    "StreamEnsemble",
    "InnerProductQuery",
    "RangeQuery",
    "point_query",
    "exponential_query",
    "linear_query",
    "HistogramSummary",
    "Topology",
    "SwatAsr",
    "DivergenceCaching",
    "AdaptivePrecision",
    "ReplicationConfig",
    "run_replication",
    "make_protocol",
    "__version__",
]
