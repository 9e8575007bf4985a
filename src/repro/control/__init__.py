"""Adaptive resource control: budgets, live reconfiguration, load shedding.

The whole point of SWAT is a *tunable* space/accuracy trade-off — ``k``
coefficients per node and reduced-level trees (Section 2.5) with closed-form
error bounds (Section 2.6).  This subsystem makes the trade-off a live,
budgeted control loop over a :class:`~repro.core.multi.StreamEnsemble`:

* :mod:`repro.control.accounting` — exact byte accounting
  (:class:`MemoryLedger`, :func:`config_nbytes`) with no per-arrival tree
  walks;
* :mod:`repro.control.governor` — :class:`ResourceGovernor`
  redistributes a global memory budget across streams at phase boundaries
  by resizing ``k``/``min_level`` (with hysteresis), plus
  :class:`ReplicaGovernor` for cache-row budgets on replicated sites and
  the Section 2.6 error-bound oracle :func:`query_error_bound`;
* :mod:`repro.control.shedding` — ingest backpressure
  (:class:`ArrivalQueue`).

Everything here is deterministic and acts only at phase boundaries, so the
shake sanitizer and the bit-identity guarantees of the batched paths are
preserved; a disabled governor is property-tested to be a behavioral no-op.
See ``docs/capacity.md``.
"""

from .accounting import MemoryLedger, config_nbytes
from .governor import (
    ReplicaGovernor,
    ResourceGovernor,
    load_governor,
    query_error_bound,
    save_governor,
)
from .shedding import ArrivalQueue

__all__ = [
    "MemoryLedger",
    "config_nbytes",
    "ResourceGovernor",
    "ReplicaGovernor",
    "query_error_bound",
    "save_governor",
    "load_governor",
    "ArrivalQueue",
]
