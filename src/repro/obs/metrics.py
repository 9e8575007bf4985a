"""Process-local metrics registry: counters, gauges, bucketed histograms.

Design goals (see ``docs/observability.md``):

* **Cheap enough to leave on.**  Recording an event is one registry dict
  lookup plus an add; instrumented hot paths additionally guard every record
  behind the module attribute :data:`ENABLED`, so a metrics-off process pays
  one attribute check per instrumented call and allocates nothing.
* **Disabled by default.**  Importing :mod:`repro` never turns metrics on;
  call :func:`enable` (or pass ``--metrics-out`` / use ``repro stats`` on the
  CLI) to start recording into the process-wide registry.
* **Export elsewhere.**  Serialization to JSON / Prometheus text lives in
  :mod:`repro.obs.export`; this module only stores and snapshots values.

Metric identity is ``(name, labels)``: ``counter("messages.query",
protocol="SWAT-ASR")`` and ``counter("messages.query", protocol="DC")`` are
distinct series of the same metric, rendered ``messages.query{protocol="DC"}``
in snapshots and exports.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Tuple, Type, TypeVar, Union, cast

from ..metrics.timing import Stopwatch

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "LATENCY_BUCKETS",
    "COUNT_BUCKETS",
    "BATCH_BUCKETS",
    "ENABLED",
    "escape_label_value",
    "unescape_label_value",
    "enable",
    "disable",
    "get_registry",
    "set_registry",
    "counter",
    "gauge",
    "histogram",
    "metrics_snapshot",
    "snapshot_delta",
]

# Default bucket upper bounds for wall-clock latencies, in seconds
# (1 µs .. 10 s, roughly half-decade steps); the implicit +Inf bucket
# catches everything above.
LATENCY_BUCKETS: Tuple[float, ...] = (
    1e-6, 5e-6, 1e-5, 5e-5, 1e-4, 5e-4, 1e-3, 5e-3,
    1e-2, 5e-2, 0.1, 0.5, 1.0, 5.0, 10.0,
)

# Default bucket upper bounds for small cardinalities (cover-set sizes,
# hop counts, queue depths).
COUNT_BUCKETS: Tuple[float, ...] = (0, 1, 2, 4, 8, 16, 32, 64, 128, 256)

# Default bucket upper bounds for batch sizes (query-engine batches, ingest
# blocks): power-of-two edges out to the largest windows the benches drive.
BATCH_BUCKETS: Tuple[float, ...] = (
    1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096,
)

Labels = Tuple[Tuple[str, str], ...]


def _labels_of(labels: Dict[str, object]) -> Labels:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def escape_label_value(value: str) -> str:
    """Escape a label value per the Prometheus exposition format:
    backslash, double quote, and newline become ``\\\\``, ``\\"``, ``\\n``."""
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def unescape_label_value(value: str) -> str:
    """Invert :func:`escape_label_value` (unknown escapes pass through)."""
    out = []
    i = 0
    while i < len(value):
        ch = value[i]
        if ch == "\\" and i + 1 < len(value):
            nxt = value[i + 1]
            if nxt == "n":
                out.append("\n")
                i += 2
                continue
            if nxt in ('"', "\\"):
                out.append(nxt)
                i += 2
                continue
        out.append(ch)
        i += 1
    return "".join(out)


def render_key(name: str, labels: Labels) -> str:
    """Canonical string form: ``name`` or ``name{k="v",...}``.

    Label values are escaped per the Prometheus exposition format, so
    rendered keys survive hostile values (quotes, backslashes, newlines)
    and parse back losslessly (see :mod:`repro.obs.export`).
    """
    if not labels:
        return name
    inner = ",".join(f'{k}="{escape_label_value(v)}"' for k, v in labels)
    return f"{name}{{{inner}}}"


class Counter:
    """Monotonically increasing count (negative increments are reserved for
    internal rebaselining, e.g. :meth:`repro.network.messages.MessageStats.reset`)."""

    __slots__ = ("name", "labels", "value")
    kind = "counter"

    def __init__(self, name: str, labels: Labels = ()) -> None:
        self.name = name
        self.labels = labels
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def snapshot(self) -> float:
        return self.value

    def __repr__(self) -> str:
        return f"Counter({render_key(self.name, self.labels)}={self.value})"


class Gauge:
    """A value that can go up and down (queue depths, cache sizes)."""

    __slots__ = ("name", "labels", "value")
    kind = "gauge"

    def __init__(self, name: str, labels: Labels = ()) -> None:
        self.name = name
        self.labels = labels
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.value -= amount

    def snapshot(self) -> float:
        return self.value

    def __repr__(self) -> str:
        return f"Gauge({render_key(self.name, self.labels)}={self.value})"


class _HistogramTimer:
    """Context manager timing a block on a :class:`Stopwatch` and recording
    the lap into the owning histogram (the single place wall-clock
    arithmetic lives — see ``repro.metrics.timing``)."""

    __slots__ = ("_hist", "_sw")

    def __init__(self, hist: "Histogram") -> None:
        self._hist = hist
        self._sw = Stopwatch()

    def __enter__(self) -> "_HistogramTimer":
        self._sw.start()
        return self

    def __exit__(self, *exc: object) -> None:
        self._hist.observe(self._sw.stop())


class Histogram:
    """Fixed-bucket histogram with count, sum, min, and max.

    ``bounds`` are inclusive upper bucket edges; an implicit ``+Inf`` bucket
    absorbs the tail.  ``observe`` is O(#buckets) with a tiny constant
    (linear scan beats bisect for <~30 buckets).
    """

    __slots__ = ("name", "labels", "bounds", "bucket_counts", "count", "sum", "min", "max")
    kind = "histogram"

    def __init__(self, name: str, labels: Labels = (), buckets: Optional[Iterable[float]] = None) -> None:
        self.name = name
        self.labels = labels
        if buckets is None:
            buckets = LATENCY_BUCKETS
        bounds = tuple(sorted(float(b) for b in buckets))
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        self.bounds = bounds
        self.bucket_counts = [0] * (len(bounds) + 1)  # last = +Inf
        self.count = 0
        self.sum = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.sum += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        for i, bound in enumerate(self.bounds):
            if value <= bound:
                self.bucket_counts[i] += 1
                return
        self.bucket_counts[-1] += 1

    def time(self) -> _HistogramTimer:
        """``with hist.time():`` — record the block's wall-clock duration."""
        return _HistogramTimer(self)

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Approximate quantile from bucket boundaries (upper-edge estimate).

        Raises ``ValueError`` for ``q`` outside ``[0, 1]`` and for an empty
        histogram — an empty histogram has no quantiles, and silently
        answering 0.0 hid wiring bugs in dashboards.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError("q must be in [0, 1]")
        if self.count == 0:
            raise ValueError(
                f"histogram {render_key(self.name, self.labels)!r} is empty; "
                "no quantiles exist"
            )
        rank = q * self.count
        seen = 0
        for i, n in enumerate(self.bucket_counts):
            seen += n
            if seen >= rank and n:
                if i < len(self.bounds):
                    return self.bounds[i]
                return self.max if self.max is not None else self.bounds[-1]
        return self.max if self.max is not None else self.bounds[-1]

    def snapshot(self) -> dict:
        buckets = {f"{b:g}": c for b, c in zip(self.bounds, self.bucket_counts)}
        buckets["+Inf"] = self.bucket_counts[-1]
        return {
            "count": self.count,
            "sum": self.sum,
            "min": self.min,
            "max": self.max,
            "buckets": buckets,
        }

    def __repr__(self) -> str:
        return (
            f"Histogram({render_key(self.name, self.labels)}: "
            f"count={self.count}, mean={self.mean:.3g})"
        )


#: Any registered metric instance.
Metric = Union[Counter, Gauge, Histogram]

_MetricT = TypeVar("_MetricT", Counter, Gauge, Histogram)


class MetricsRegistry:
    """Name+labels keyed store of metric instances.

    ``counter`` / ``gauge`` / ``histogram`` are get-or-create: the first call
    fixes the metric's type (and, for histograms, its buckets); later calls
    with the same name and labels return the same object, and a type clash
    raises ``ValueError``.
    """

    def __init__(self) -> None:
        self._metrics: Dict[Tuple[str, Labels], Metric] = {}

    def _get(
        self,
        cls: Type[_MetricT],
        factory: Callable[[Labels], _MetricT],
        name: str,
        labels: Dict[str, object],
    ) -> _MetricT:
        key = (name, _labels_of(labels))
        metric = self._metrics.get(key)
        if metric is None:
            created = factory(key[1])
            self._metrics[key] = created
            return created
        if type(metric) is not cls:
            raise ValueError(
                f"metric {render_key(*key)!r} already registered as {metric.kind}"
            )
        return cast(_MetricT, metric)

    def counter(self, name: str, **labels: object) -> Counter:
        return self._get(Counter, lambda lbls: Counter(name, lbls), name, labels)

    def gauge(self, name: str, **labels: object) -> Gauge:
        return self._get(Gauge, lambda lbls: Gauge(name, lbls), name, labels)

    def histogram(
        self, name: str, buckets: Optional[Iterable[float]] = None, **labels: object
    ) -> Histogram:
        return self._get(
            Histogram, lambda lbls: Histogram(name, lbls, buckets=buckets), name, labels
        )

    def metrics(self) -> List["Metric"]:
        """All registered metrics, sorted by rendered key."""
        return [self._metrics[k] for k in sorted(self._metrics)]

    def __len__(self) -> int:
        return len(self._metrics)

    def snapshot(self) -> dict:
        """JSON-serializable dump: ``{"counters": {...}, "gauges": {...},
        "histograms": {...}}`` keyed by rendered ``name{labels}``."""
        out: Dict[str, Dict[str, object]] = {"counters": {}, "gauges": {}, "histograms": {}}
        for (name, labels), metric in sorted(self._metrics.items()):
            out[metric.kind + "s"][render_key(name, labels)] = metric.snapshot()
        return out

    def reset(self, prefix: Optional[str] = None) -> None:
        """Drop all metrics, or only those whose name starts with ``prefix``."""
        if prefix is None:
            self._metrics.clear()
            return
        for key in [k for k in self._metrics if k[0].startswith(prefix)]:
            del self._metrics[key]

    def __repr__(self) -> str:
        return f"MetricsRegistry({len(self._metrics)} metrics)"


# --------------------------------------------------------------- module state

#: Global instrumentation switch.  Hot paths check this *module attribute*
#: before doing any metrics work, so the disabled cost is one attribute read.
ENABLED = False

_registry = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-wide registry instrumented code records into."""
    return _registry


def set_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Swap the process-wide registry (tests); returns the previous one."""
    global _registry
    previous, _registry = _registry, registry
    return previous


def enable(registry: Optional[MetricsRegistry] = None) -> MetricsRegistry:
    """Turn instrumentation on (optionally into a caller-supplied registry)."""
    global ENABLED
    if registry is not None:
        set_registry(registry)
    ENABLED = True
    return _registry


def disable() -> None:
    """Turn instrumentation off; the registry keeps its recorded values."""
    global ENABLED
    ENABLED = False


def counter(name: str, **labels: object) -> Counter:
    return _registry.counter(name, **labels)


def gauge(name: str, **labels: object) -> Gauge:
    return _registry.gauge(name, **labels)


def histogram(
    name: str, buckets: Optional[Iterable[float]] = None, **labels: object
) -> Histogram:
    return _registry.histogram(name, buckets=buckets, **labels)


def metrics_snapshot() -> dict:
    """Snapshot of the process-wide registry (the helper benchmarks and
    examples use instead of hand-rolled result dicts)."""
    return _registry.snapshot()


# ---------------------------------------------------------- snapshot algebra

def snapshot_delta(after: dict, before: dict) -> dict:
    """What happened *between* two snapshots of the same registry.

    Counters and histogram count/sum/buckets subtract; gauges report the
    ``after`` value; histogram min/max are lifetime extremes (they cannot be
    rewound) and are taken from ``after``.  Metrics absent from ``before``
    pass through unchanged.
    """
    out: Dict[str, Dict[str, object]] = {
        "counters": {},
        "gauges": dict(after.get("gauges", {})),
        "histograms": {},
    }
    before_c = before.get("counters", {})
    for key, value in after.get("counters", {}).items():
        out["counters"][key] = value - before_c.get(key, 0.0)
    before_h = before.get("histograms", {})
    for key, snap in after.get("histograms", {}).items():
        prev = before_h.get(key)
        if prev is None:
            out["histograms"][key] = dict(snap)
            continue
        out["histograms"][key] = {
            "count": snap["count"] - prev["count"],
            "sum": snap["sum"] - prev["sum"],
            "min": snap["min"],
            "max": snap["max"],
            "buckets": {
                le: snap["buckets"][le] - prev["buckets"].get(le, 0)
                for le in snap["buckets"]
            },
        }
    return out
