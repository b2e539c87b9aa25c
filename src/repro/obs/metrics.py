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

Hot-path contract: a family turns a label set into its sorted,
stringified :data:`LabelKey` once.  ``inc``/``set``/``observe`` look
the label set up in one per-family table keyed by the label items and
their value types (so ``rank=True`` never lands on ``rank=1``'s series)
and write to the series the key names.  A hot call site may skip even
that lookup: a :meth:`Metric.bind` table keeps the resolved series of
each label-value tuple the site writes, resolving it on its first
write.  Both paths end in the family's one write method.
"""

from __future__ import annotations

import dataclasses
import warnings
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

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


def _label_key(items: Iterable[Tuple[str, Any]], pairs: Dict[Any, Any]) -> LabelKey:
    """The :data:`LabelKey` of ``(name, value)`` items given in name
    order.  ``pairs`` interns the stringified pairs: a registry passes
    its own, so its series share one tuple per distinct pair (fewer
    long-lived objects for the cyclic garbage collector to trace)."""
    key = []
    for name, value in items:
        pair = (name, str(value))
        key.append(pairs.setdefault(pair, pair))
    return tuple(key)


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


class SeriesTable(dict):
    """A family's resolved series keyed by the values of some labels.

    Maps the tuple of values of the labels ``names`` (a bare value when
    one name is bound) to the series' storage slot, resolved on the
    first write of that tuple; ``inc``/``set``/``observe`` then cost one
    dict lookup before the family's write.  ``None`` marks a label set
    dropped by the cardinality cap: its writes are counted in
    ``dropped_series``.  The raw labels are rebuilt from the values only
    when write hooks are subscribed.  Values are compared as dict keys,
    so a call site passes each label with one type (``True`` and ``1``
    would share an entry; the keyword path keeps them apart).
    """

    __slots__ = ("metric", "names", "_order")

    def __init__(self, metric: "Metric", names: Tuple[str, ...]) -> None:
        super().__init__()
        self.metric = metric
        self.names = names
        #: (name, position) pairs in name order: the series key's order
        self._order = sorted(zip(names, range(len(names))))

    def _labels(self, values: Any) -> Dict[str, Any]:
        """The raw labels one value tuple stands for."""
        if len(self.names) == 1:
            return {self.names[0]: values}
        return dict(zip(self.names, values))

    def __missing__(self, values: Any) -> Optional[int]:
        row = (values,) if len(self.names) == 1 else values
        metric = self.metric
        key = _label_key([(name, row[i]) for name, i in self._order], metric._pairs)
        slot = self[values] = metric._admit(key)
        return slot


class CounterTable(SeriesTable):
    """A :class:`SeriesTable` of a :class:`Counter`."""

    __slots__ = ()

    def inc(self, values: Any, amount: float = 1) -> None:
        metric = self.metric
        registry = metric.registry
        if registry.enabled:
            if amount < 0:
                metric._check(amount)  # type: ignore[attr-defined]
            metric._write(self[values], amount, registry._hooks and self._labels(values))


class GaugeTable(SeriesTable):
    """A :class:`SeriesTable` of a :class:`Gauge`."""

    __slots__ = ()

    def set(self, values: Any, value: float) -> None:
        registry = self.metric.registry
        if registry.enabled:
            self.metric._write(self[values], value, registry._hooks and self._labels(values))


class HistogramTable(SeriesTable):
    """A :class:`SeriesTable` of a :class:`Histogram`."""

    __slots__ = ()

    def observe(self, values: Any, value: float) -> None:
        registry = self.metric.registry
        if registry.enabled:
            self.metric._write(self[values], value, registry._hooks and self._labels(values))


class Metric:
    """Base class: one named family of labeled series.

    Series values live in per-family lists indexed by a *slot* number;
    ``_series`` maps each stringified :data:`LabelKey` to its slot, so a
    resolved write indexes a list instead of hashing the key again.
    """

    kind = "metric"
    #: the :class:`SeriesTable` subclass :meth:`bind` returns
    table_type = SeriesTable

    def __init__(self, registry: "MetricsRegistry", name: str, help: str = "") -> None:
        self.registry = registry
        self.name = name
        self.help = help
        #: True once this family hit the label-cardinality cap
        self.overflowed = False
        #: every series' storage slot, by its stringified label key
        self._series: Dict[LabelKey, int] = {}
        #: resolution table: (label items..., their value types...) ->
        #: slot, so each label set is sorted and stringified once
        self._resolved: Dict[Tuple[Any, ...], int] = {}
        self._pairs = registry._pairs
        #: :meth:`bind` tables by label names
        self._tables: Dict[Tuple[str, ...], SeriesTable] = {}

    @property
    def enabled(self) -> bool:
        return self.registry.enabled

    def _resolve(self, labels: Dict[str, Any]) -> Optional[int]:
        """The slot of the series ``labels`` address (None: dropped by
        the cardinality cap)."""
        ident = (*labels.items(), *map(type, labels.values()))
        try:
            return self._resolved[ident]
        except KeyError:
            pass
        except TypeError:  # an unhashable label value: resolve uncached
            return self._admit(_label_key(sorted(labels.items()), self._pairs))
        slot = self._admit(_label_key(sorted(labels.items()), self._pairs))
        if slot is not None:
            self._resolved[ident] = slot
        return slot

    def _admit(self, key: LabelKey) -> Optional[int]:
        """Label-cardinality guard: the slot of series ``key``, created
        if new.

        Existing series always pass.  A new series passes while the
        family is below the registry's ``max_series_per_metric`` cap;
        beyond it the key is refused (None; the write is then dropped
        and counted) with a one-time warning, so one buggy
        instrumentation site — say a label carrying a message address —
        cannot grow snapshots unboundedly.
        """
        series = self._series
        count = len(series)
        if count < self.registry.max_series_per_metric:
            slot = series.setdefault(key, count)
            if slot == count:
                self._grow()
            return slot
        slot = series.get(key)
        if slot is not None:
            return slot
        if not self.overflowed:
            self.overflowed = True
            warnings.warn(
                f"metric {self.name!r} exceeded the label-cardinality cap "
                f"({self.registry.max_series_per_metric} series); further "
                "new label sets are dropped",
                RuntimeWarning,
                stacklevel=4,
            )
        return None

    def _grow(self) -> None:
        """Append the storage of one new series."""
        raise NotImplementedError

    def _write(self, slot: Optional[int], value: float, labels: Any) -> None:
        """The one write path of each kind: fold ``value`` into series
        ``slot`` (None: count a dropped write) and notify the write
        hooks with the caller's raw ``labels`` (only read when hooks are
        subscribed)."""
        raise NotImplementedError

    def _drop(self) -> None:
        self.registry.dropped_series += 1

    def _matching(self, labels: Dict[str, Any]) -> List[int]:
        """Slots of every series whose labels include the given subset."""
        query = _label_key(sorted(labels.items()), {})
        return [slot for key, slot in self._series.items() if _matches(key, query)]

    def bind(self, *names: str) -> SeriesTable:
        """The :class:`SeriesTable` of this family's series keyed by the
        values of the labels ``names`` (in that order); one per family
        and ``names``, shared by every call site that binds them."""
        table = self._tables.get(names)
        if table is None:
            table = self._tables[names] = self.table_type(self, names)
        return table

    def label_keys(self) -> List[LabelKey]:
        return sorted(self._series)

    def series_count(self) -> int:
        """How many labeled series this family currently holds."""
        return len(self._series)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<{type(self).__name__} {self.name}>"


class Counter(Metric):
    """A monotonically increasing labeled counter."""

    kind = "counter"
    table_type = CounterTable

    def __init__(self, registry: "MetricsRegistry", name: str, help: str = "") -> None:
        super().__init__(registry, name, help)
        self._values: List[float] = []

    def inc(self, amount: float = 1, **labels: Any) -> None:
        if not self.registry.enabled:
            return
        self._check(amount)
        self._write(self._resolve(labels), amount, labels)

    def _check(self, amount: float) -> None:
        if amount < 0:
            raise ConfigurationError(f"counter {self.name}: negative increment")

    def _grow(self) -> None:
        self._values.append(0.0)

    def _write(self, slot: Optional[int], amount: float, labels: Any) -> None:
        if slot is None:
            return self._drop()
        self._values[slot] += amount
        if self.registry._hooks:
            self.registry._notify(self, float(amount), labels)

    def value(self, **labels: Any) -> float:
        """Sum over every series matching the given label subset."""
        values = self._values
        return sum(values[slot] for slot in self._matching(labels))

    def snapshot(self) -> List[Dict[str, Any]]:
        values = self._values
        return [
            {"labels": dict(k), "value": values[slot]}
            for k, slot in sorted(self._series.items())
        ]


class Gauge(Metric):
    """A labeled point-in-time value that also tracks its high-water mark."""

    kind = "gauge"
    table_type = GaugeTable

    def __init__(self, registry: "MetricsRegistry", name: str, help: str = "") -> None:
        super().__init__(registry, name, help)
        self._values: List[float] = []
        self._high: List[float] = []

    def set(self, value: float, **labels: Any) -> None:
        if not self.registry.enabled:
            return
        self._write(self._resolve(labels), value, labels)

    def add(self, delta: float, **labels: Any) -> None:
        if not self.registry.enabled:
            return
        slot = self._resolve(labels)
        current = self._values[slot] if slot is not None else 0.0
        self._write(slot, current + delta, labels)

    def _grow(self) -> None:
        self._values.append(0.0)
        self._high.append(float("-inf"))

    def _write(self, slot: Optional[int], value: float, labels: Any) -> None:
        if slot is None:
            return self._drop()
        self._values[slot] = value
        if value > self._high[slot]:
            self._high[slot] = value
        if self.registry._hooks:
            self.registry._notify(self, float(value), labels)

    def value(self, **labels: Any) -> float:
        """Sum of current values over matching series (e.g. cluster
        occupancy = sum of per-rank occupancies)."""
        values = self._values
        return sum(values[slot] for slot in self._matching(labels))

    def high_water(self, **labels: Any) -> float:
        """Max high-water mark over matching series (0.0 when unseen)."""
        marks = [self._high[slot] for slot in self._matching(labels)]
        return max(marks) if marks else 0.0

    def snapshot(self) -> List[Dict[str, Any]]:
        values, high = self._values, self._high
        return [
            {"labels": dict(k), "value": values[slot], "high_water": high[slot]}
            for k, slot in sorted(self._series.items())
        ]


class Histogram(Metric):
    """A labeled distribution with fixed bucket bounds."""

    kind = "histogram"
    table_type = HistogramTable

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
        self._stats: List[HistogramStats] = []

    def observe(self, value: float, **labels: Any) -> None:
        if not self.registry.enabled:
            return
        self._write(self._resolve(labels), value, labels)

    def _grow(self) -> None:
        self._stats.append(HistogramStats())

    def _write(self, slot: Optional[int], value: float, labels: Any) -> None:
        if slot is None:
            return self._drop()
        self._stats[slot].observe(value, self.bounds)
        if self.registry._hooks:
            self.registry._notify(self, float(value), labels)

    def stats(self, **labels: Any) -> HistogramStats:
        """Aggregate stats over every series matching the label subset."""
        merged = HistogramStats()
        for slot in self._matching(labels):
            s = self._stats[slot]
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

    def snapshot(self) -> List[Dict[str, Any]]:
        out = []
        for key, slot in sorted(self._series.items()):
            s = self._stats[slot]
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
        #: interned (name, value) label pairs shared by every series key
        self._pairs: Dict[Any, Any] = {}
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
