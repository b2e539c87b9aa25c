"""The metrics registry: counters, gauges, and histograms.

Every metric is a *family* identified by name; within a family, values
are keyed by label sets (``rank``, ``device``, ``path`` ...), mirroring
the Prometheus data model.  Reads aggregate: ``counter.value(rank=0)``
sums every series whose labels include ``rank=0``, so per-rank and
cluster-wide views come from the same data.

When the registry is disabled every write is a single attribute check
and an early return — the runtime keeps its instrumentation call sites
unconditionally and pays (almost) nothing.

All label values are stringified on write, so ``rank=3`` and
``rank="3"`` address the same series.
"""

from __future__ import annotations

import dataclasses
import warnings
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.util.errors import ConfigurationError, PercentileError

#: label storage: sorted ((key, value), ...) tuples
LabelKey = Tuple[Tuple[str, str], ...]

#: default histogram bucket upper bounds (counts, iterations, sizes)
DEFAULT_BOUNDS: Tuple[float, ...] = (1, 2, 4, 8, 16, 32, 64, 128, 256)

#: message size-class labels used by the conduit instrumentation
_SIZE_CLASSES: Tuple[Tuple[int, str], ...] = (
    (4 * 1024, "<4KiB"),
    (64 * 1024, "<64KiB"),
    (1024 * 1024, "<1MiB"),
    (4 * 1024 * 1024, "<4MiB"),
)


def size_class(nbytes: int) -> str:
    """The conventional message size-class label for ``nbytes``."""
    for bound, label in _SIZE_CLASSES:
        if nbytes < bound:
            return label
    return ">=4MiB"


def _label_key(labels: Dict[str, Any]) -> LabelKey:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def _matches(key: LabelKey, query: LabelKey) -> bool:
    """True when every (k, v) of the query appears in the series key."""
    entries = dict(key)
    return all(entries.get(k) == v for k, v in query)


@dataclasses.dataclass
class HistogramStats:
    """Aggregate statistics of one histogram series."""

    count: int = 0
    total: float = 0.0
    minimum: float = float("inf")
    maximum: float = float("-inf")
    buckets: List[int] = dataclasses.field(default_factory=list)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def observe(self, value: float, bounds: Sequence[float]) -> None:
        if not self.buckets:
            self.buckets = [0] * (len(bounds) + 1)
        self.count += 1
        self.total += value
        self.minimum = min(self.minimum, value)
        self.maximum = max(self.maximum, value)
        for i, bound in enumerate(bounds):
            if value <= bound:
                self.buckets[i] += 1
                return
        self.buckets[-1] += 1  # overflow bucket

    def percentile(self, q: float, bounds: Sequence[float]) -> float:
        """Bucket-estimated ``q``-quantile (``q`` in [0, 1]).

        Walks the cumulative bucket counts and interpolates linearly
        inside the bucket containing the target rank; the first bucket
        is anchored at the observed minimum, the overflow bucket at the
        observed maximum.  Exact when observations fall on bucket
        bounds; within one bucket width otherwise — the standard
        Prometheus ``histogram_quantile`` trade-off.

        Edge cases are pinned, never estimated:

        * ``q`` outside [0, 1] (including NaN) raises
          :class:`~repro.util.errors.PercentileError`;
        * an empty series returns 0.0;
        * a single observation returns that observation for every q;
        * ``q == 0`` returns the observed minimum, ``q == 1`` the
          observed maximum, exactly.
        """
        if not (0.0 <= q <= 1.0):  # also catches NaN (comparisons fail)
            raise PercentileError(f"percentile q must be in [0, 1], got {q}")
        if self.count == 0:
            return 0.0
        if self.count == 1 or self.minimum == self.maximum:
            return self.minimum
        if q == 0.0:
            return self.minimum
        if q == 1.0:
            return self.maximum
        target = q * self.count
        cumulative = 0
        for i, n in enumerate(self.buckets):
            if n == 0:
                continue
            if cumulative + n >= target:
                lo = self.minimum if i == 0 else float(bounds[i - 1])
                hi = float(bounds[i]) if i < len(bounds) else self.maximum
                lo = max(lo, self.minimum)
                hi = min(hi, self.maximum)
                if hi <= lo:
                    return lo
                frac = (target - cumulative) / n
                return lo + (hi - lo) * min(1.0, max(0.0, frac))
            cumulative += n
        return self.maximum  # pragma: no cover - target beyond all buckets


class Metric:
    """Base class: one named family of labeled series."""

    kind = "metric"

    def __init__(self, registry: "MetricsRegistry", name: str, help: str = "") -> None:
        self.registry = registry
        self.name = name
        self.help = help
        #: True once this family hit the label-cardinality cap
        self.overflowed = False

    @property
    def enabled(self) -> bool:
        return self.registry.enabled

    def _admit(self, series: Dict[LabelKey, Any], key: LabelKey) -> bool:
        """Label-cardinality guard: may ``key`` become a new series?

        Existing series always pass.  A new series passes while the
        family is below the registry's ``max_series_per_metric`` cap;
        beyond it the write is dropped (and counted) with a one-time
        warning, so one buggy instrumentation site — say a label
        carrying a message address — cannot grow snapshots unboundedly.
        """
        if key in series:
            return True
        if len(series) < self.registry.max_series_per_metric:
            return True
        if not self.overflowed:
            self.overflowed = True
            warnings.warn(
                f"metric {self.name!r} exceeded the label-cardinality cap "
                f"({self.registry.max_series_per_metric} series); further "
                "new label sets are dropped",
                RuntimeWarning,
                stacklevel=4,
            )
        self.registry.dropped_series += 1
        return False

    def label_keys(self) -> List[LabelKey]:
        raise NotImplementedError

    def series_count(self) -> int:
        """How many labeled series this family currently holds."""
        return len(self.label_keys())

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<{type(self).__name__} {self.name}>"


class Counter(Metric):
    """A monotonically increasing labeled counter."""

    kind = "counter"

    def __init__(self, registry: "MetricsRegistry", name: str, help: str = "") -> None:
        super().__init__(registry, name, help)
        self._series: Dict[LabelKey, float] = {}

    def inc(self, amount: float = 1, **labels: Any) -> None:
        if not self.registry.enabled:
            return
        if amount < 0:
            raise ConfigurationError(f"counter {self.name}: negative increment")
        key = _label_key(labels)
        if not self._admit(self._series, key):
            return
        self._series[key] = self._series.get(key, 0.0) + amount
        if self.registry._hooks:
            self.registry._notify(self, float(amount), labels)

    def value(self, **labels: Any) -> float:
        """Sum over every series matching the given label subset."""
        query = _label_key(labels)
        return sum(v for k, v in self._series.items() if _matches(k, query))

    def label_keys(self) -> List[LabelKey]:
        return sorted(self._series)

    def snapshot(self) -> List[Dict[str, Any]]:
        return [
            {"labels": dict(k), "value": v} for k, v in sorted(self._series.items())
        ]


class Gauge(Metric):
    """A labeled point-in-time value that also tracks its high-water mark."""

    kind = "gauge"

    def __init__(self, registry: "MetricsRegistry", name: str, help: str = "") -> None:
        super().__init__(registry, name, help)
        self._series: Dict[LabelKey, float] = {}
        self._high: Dict[LabelKey, float] = {}

    def set(self, value: float, **labels: Any) -> None:
        if not self.registry.enabled:
            return
        key = _label_key(labels)
        if not self._admit(self._series, key):
            return
        self._series[key] = value
        if value > self._high.get(key, float("-inf")):
            self._high[key] = value
        if self.registry._hooks:
            self.registry._notify(self, float(value), labels)

    def add(self, delta: float, **labels: Any) -> None:
        if not self.registry.enabled:
            return
        key = _label_key(labels)
        self.set(self._series.get(key, 0.0) + delta, **labels)

    def value(self, **labels: Any) -> float:
        """Sum of current values over matching series (e.g. cluster
        occupancy = sum of per-rank occupancies)."""
        query = _label_key(labels)
        return sum(v for k, v in self._series.items() if _matches(k, query))

    def high_water(self, **labels: Any) -> float:
        """Max high-water mark over matching series (0.0 when unseen)."""
        query = _label_key(labels)
        marks = [v for k, v in self._high.items() if _matches(k, query)]
        return max(marks) if marks else 0.0

    def label_keys(self) -> List[LabelKey]:
        return sorted(self._series)

    def snapshot(self) -> List[Dict[str, Any]]:
        return [
            {"labels": dict(k), "value": v, "high_water": self._high[k]}
            for k, v in sorted(self._series.items())
        ]


class Histogram(Metric):
    """A labeled distribution with fixed bucket bounds."""

    kind = "histogram"

    def __init__(
        self,
        registry: "MetricsRegistry",
        name: str,
        help: str = "",
        bounds: Optional[Sequence[float]] = None,
    ) -> None:
        super().__init__(registry, name, help)
        self.bounds: Tuple[float, ...] = tuple(bounds) if bounds else DEFAULT_BOUNDS
        if list(self.bounds) != sorted(self.bounds):
            raise ConfigurationError(f"histogram {name}: bounds must be sorted")
        self._series: Dict[LabelKey, HistogramStats] = {}

    def observe(self, value: float, **labels: Any) -> None:
        if not self.registry.enabled:
            return
        key = _label_key(labels)
        stats = self._series.get(key)
        if stats is None:
            if not self._admit(self._series, key):
                return
            stats = self._series[key] = HistogramStats()
        stats.observe(value, self.bounds)
        if self.registry._hooks:
            self.registry._notify(self, float(value), labels)

    def stats(self, **labels: Any) -> HistogramStats:
        """Aggregate stats over every series matching the label subset."""
        query = _label_key(labels)
        merged = HistogramStats()
        for key, s in self._series.items():
            if not _matches(key, query):
                continue
            if not merged.buckets:
                merged.buckets = [0] * len(s.buckets)
            merged.count += s.count
            merged.total += s.total
            merged.minimum = min(merged.minimum, s.minimum)
            merged.maximum = max(merged.maximum, s.maximum)
            merged.buckets = [a + b for a, b in zip(merged.buckets, s.buckets)]
        return merged

    def count(self, **labels: Any) -> int:
        return self.stats(**labels).count

    def label_keys(self) -> List[LabelKey]:
        return sorted(self._series)

    def snapshot(self) -> List[Dict[str, Any]]:
        out = []
        for key, s in sorted(self._series.items()):
            out.append(
                {
                    "labels": dict(key),
                    "count": s.count,
                    "sum": s.total,
                    "min": s.minimum if s.count else 0.0,
                    "max": s.maximum if s.count else 0.0,
                    "mean": s.mean,
                    "p50": s.percentile(0.50, self.bounds),
                    "p95": s.percentile(0.95, self.bounds),
                    "p99": s.percentile(0.99, self.bounds),
                    "buckets": list(s.buckets),
                }
            )
        return out


class MetricsRegistry:
    """One world's metric families, get-or-create by name."""

    def __init__(self, enabled: bool = True, max_series_per_metric: int = 1000) -> None:
        if max_series_per_metric < 1:
            raise ConfigurationError(
                f"max_series_per_metric must be >= 1, got {max_series_per_metric}"
            )
        self.enabled = enabled
        #: label-cardinality cap applied per metric family
        self.max_series_per_metric = max_series_per_metric
        #: total writes dropped by the cardinality guard (all families)
        self.dropped_series = 0
        self._metrics: Dict[str, Metric] = {}
        #: write hooks: ``fn(metric, value, labels)`` called on every
        #: admitted counter inc / gauge set / histogram observe.  This
        #: is what feeds the windowed time-series layer
        #: (:mod:`repro.obs.timeseries`) without touching call sites.
        self._hooks: List[Callable[[Metric, float, Dict[str, Any]], None]] = []

    def add_write_hook(
        self, hook: Callable[[Metric, float, Dict[str, Any]], None]
    ) -> None:
        """Subscribe ``hook(metric, value, labels)`` to every admitted
        write.  Hooks must not write metrics themselves (no re-entry
        guard is taken; a writing hook would recurse)."""
        if hook not in self._hooks:
            self._hooks.append(hook)

    def remove_write_hook(
        self, hook: Callable[[Metric, float, Dict[str, Any]], None]
    ) -> None:
        """Unsubscribe a hook added with :meth:`add_write_hook`."""
        if hook in self._hooks:
            self._hooks.remove(hook)

    def _notify(self, metric: Metric, value: float, labels: Dict[str, Any]) -> None:
        for hook in self._hooks:
            hook(metric, value, labels)

    def _get(self, name: str, factory, kind: str) -> Metric:
        metric = self._metrics.get(name)
        if metric is None:
            metric = self._metrics[name] = factory()
        elif metric.kind != kind:
            raise ConfigurationError(
                f"metric {name!r} already registered as a {metric.kind}, "
                f"requested as a {kind}"
            )
        return metric

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get(name, lambda: Counter(self, name, help), "counter")  # type: ignore[return-value]

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get(name, lambda: Gauge(self, name, help), "gauge")  # type: ignore[return-value]

    def histogram(
        self, name: str, help: str = "", bounds: Optional[Sequence[float]] = None
    ) -> Histogram:
        return self._get(
            name, lambda: Histogram(self, name, help, bounds), "histogram"
        )  # type: ignore[return-value]

    def value(self, name: str, **labels: Any) -> float:
        """Aggregate read of a counter/gauge family (0.0 if absent)."""
        metric = self._metrics.get(name)
        if metric is None or isinstance(metric, Histogram):
            return 0.0
        return metric.value(**labels)  # type: ignore[union-attr]

    def __iter__(self) -> Iterator[Metric]:
        return iter(self._metrics[name] for name in sorted(self._metrics))

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def health(self) -> Dict[str, Any]:
        """Cardinality-guard visibility: per-family series counts,
        which families overflowed the cap, and total dropped writes."""
        families = {
            m.name: {
                "kind": m.kind,
                "series": m.series_count(),
                "overflowed": m.overflowed,
            }
            for m in self
        }
        return {
            "dropped_series": self.dropped_series,
            "max_series_per_metric": self.max_series_per_metric,
            "total_series": sum(f["series"] for f in families.values()),
            "families": families,
        }

    def snapshot(self) -> Dict[str, Any]:
        """A JSON-serializable dump of every family and series.

        Each family entry carries ``series_count``/``overflowed``, and
        the top-level ``health`` block totals the cardinality-guard
        drops — so capped families are visible in the export, not just
        in a one-time warning.
        """
        out: Dict[str, Any] = {"counters": {}, "gauges": {}, "histograms": {}}
        for metric in self:
            entry: Dict[str, Any] = {
                "help": metric.help,
                "series": metric.snapshot(),  # type: ignore[attr-defined]
                "series_count": metric.series_count(),
                "overflowed": metric.overflowed,
            }
            if isinstance(metric, Histogram):
                entry["bounds"] = list(metric.bounds)
            out[metric.kind + "s"][metric.name] = entry
        out["health"] = self.health()
        return out
