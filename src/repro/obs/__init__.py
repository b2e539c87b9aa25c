"""Unified observability: metrics, span profiling, and trace export.

One :class:`Observability` object serves a whole simulated world (the
:class:`~repro.cluster.world.World` creates it and binds the virtual
clock; the DiOMP runtime and every instrumented subsystem share it).
It bundles

* a :class:`~repro.obs.metrics.MetricsRegistry` — counters, gauges and
  histograms labeled by rank/device/path,
* a :class:`~repro.obs.spans.SpanProfiler` — ``with obs.span(...)``
  timed regions on the virtual clock,
* exporters — Chrome trace-event JSON (``chrome://tracing`` and
  Perfetto loadable), JSONL event dumps, and a plain-text dashboard.

Disable it (``Observability(enabled=False)``, or
``World(..., obs=Observability(enabled=False))``) and every
instrumentation call collapses to an attribute check.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional, Sequence

from repro.obs.accounting import (
    ChargebackReport,
    CostRates,
    TenantUsage,
    chargeback_report,
)
from repro.obs.anomaly import (
    AnomalyReport,
    AnomalyRule,
    BarrierSkewRule,
    DroppedSeriesRule,
    EngineThroughputRule,
    Finding,
    RetrySloRule,
    WaitImbalanceRule,
    detect,
)
from repro.obs.export import (
    chrome_trace,
    chrome_trace_events,
    dashboard_tables,
    events_jsonl,
    flow_events,
    health_table,
    iter_chrome_trace_events,
    render_dashboard,
    windows_table,
    write_chrome_trace,
    write_events_jsonl,
    write_metrics_snapshot,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    size_class,
)
from repro.obs.rollup import (
    exact_percentile,
    rollup_metric,
    rollup_registry,
    rollup_snapshot,
)
from repro.obs.sampling import SpanBudget, SpanStore, SpanStoreStats, read_spill
from repro.obs.selfprof import EngineProfiler
from repro.obs.slo import (
    SLO,
    Alert,
    BurnRateRule,
    SloStatus,
    SloTracker,
    availability_slo,
    incident_timeline,
    latency_slo,
    slo_from_dict,
)
from repro.obs.spans import SpanProfiler, SpanRecord, TraceContext
from repro.obs.timeseries import TimeSeries, WindowedSeries, WindowSpec, WindowStats


class Observability:
    """The per-world observability facade."""

    def __init__(
        self,
        enabled: bool = True,
        clock: Optional[Callable[[], float]] = None,
        span_budget: Optional[SpanBudget] = None,
        max_series_per_metric: int = 1000,
    ) -> None:
        self.enabled = enabled
        self.registry = MetricsRegistry(
            enabled=enabled, max_series_per_metric=max_series_per_metric
        )
        self.profiler = SpanProfiler(
            clock=clock,
            enabled=enabled,
            store=SpanStore(span_budget) if span_budget is not None else None,
        )
        #: host wall-clock engine self-profiler; the world hands this to
        #: its Simulator, and run_spmd publishes it into the registry
        self.engine = EngineProfiler(enabled=enabled)
        #: per-(kind, ident, rank) rendezvous sequence numbers
        self._rdv_seq: Dict[Any, int] = {}
        #: (kind, ident, seq) -> {rank: TraceContext} arrival registry;
        #: a point's entry is dropped when its last member arrives
        self._rdv_ctxs: Dict[Any, Dict[int, TraceContext]] = {}
        #: rendezvous groups up to this size cross-link all pairs
        #: (exact dependency DAG); larger groups link each arrival to
        #: its predecessor only — O(P) instead of O(P^2) links, with
        #: the same transitive ordering (see :meth:`rendezvous`)
        self.rendezvous_dense_limit: int = 64

    def bind_clock(self, clock: Callable[[], float]) -> None:
        """Attach the virtual clock (done by the world at construction)."""
        self.profiler.bind_clock(clock)

    # -- metrics passthrough ---------------------------------------------------

    def counter(self, name: str, help: str = "") -> Counter:
        return self.registry.counter(name, help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self.registry.gauge(name, help)

    def histogram(
        self, name: str, help: str = "", bounds: Optional[Sequence[float]] = None
    ) -> Histogram:
        return self.registry.histogram(name, help, bounds)

    def value(self, name: str, **labels: Any) -> float:
        return self.registry.value(name, **labels)

    # -- spans -----------------------------------------------------------------

    def span(self, name: str, track: Optional[str] = None, **args: Any):
        """Time a region: ``with obs.span("rma.put", rank=r): ...``"""
        return self.profiler.span(name, track=track, **args)

    @property
    def spans(self):
        return self.profiler.records

    # -- causal tracing --------------------------------------------------------

    def capture(self, track: Optional[str] = None, **args: Any) -> Optional[TraceContext]:
        """Context of the innermost open span (sender side of a message)."""
        return self.profiler.capture(track=track, **args)

    def link(self, ctx: Optional[TraceContext], track: Optional[str] = None, **args: Any) -> bool:
        """Attach an incoming link to the innermost open span (receiver side)."""
        return self.profiler.link(ctx, track=track, **args)

    def deliver(
        self,
        name: str,
        ctx: Optional[TraceContext],
        when: float,
        track: Optional[str] = None,
        **args: Any,
    ) -> Optional[TraceContext]:
        """Record a message delivery on the receiving track.

        Links into the receiver's open span when one exists (a blocking
        fence/wait); otherwise records a standalone zero-duration
        delivery span carrying the causal link, so the arrow always has
        somewhere to land.  ``when`` is the simulated delivery time
        (the caller usually runs in scheduler context, after the clock
        already advanced past it).  Returns the context of the span
        that received the link, so multi-hop flows (request → handler →
        reply) can chain.
        """
        if not self.enabled or ctx is None:
            return None
        if self.profiler.link(ctx, track=track, **args):
            return self.profiler.capture(track=track, **args)
        rec = self.profiler.record(name, when, when, track=track, links=(ctx,), **args)
        return TraceContext(self.profiler.trace_id, rec.span_id) if rec else None

    def rendezvous(self, kind: str, ident: Any, rank: int, members: int) -> None:
        """Cross-link this rank's open span with peers at a rendezvous.

        Barriers and collectives are all-to-all synchronization: no
        member leaves before the last arrival.  Each arriving rank
        registers its innermost open span under the point's
        ``(kind, ident, sequence)`` identity and links bidirectionally
        with the members already registered — earlier arrivals into
        this span, and this span into the earlier arrivals' still-open
        spans — so the span DAG records that everyone's completion
        depended on the last arriver.  Sequence numbers are counted
        per rank, so the Nth barrier on a group pairs across ranks.

        All-pairs linking is quadratic in the group size and dominated
        1024-rank sweeps, so groups beyond
        :attr:`rendezvous_dense_limit` arrivals fall back to *chain*
        linking: each arrival pairs with its predecessor only.  The
        dependency ordering is preserved transitively through the
        chain (the critical-path walker follows links hop by hop), at
        2 links per arrival instead of ``2(P-1)``.

        ``members`` is the group size: once that many ranks have
        arrived the point is complete, and its registry entry is
        dropped so the registry does not grow with run length.
        """
        mine = self.capture(track=f"rank{rank}")
        if mine is None:
            return
        seq_key = (kind, ident, rank)
        seq = self._rdv_seq.get(seq_key, 0)
        self._rdv_seq[seq_key] = seq + 1
        point = (kind, ident, seq)
        peers = self._rdv_ctxs.setdefault(point, {})
        if len(peers) < self.rendezvous_dense_limit:
            pairs = peers.items()
        else:
            pairs = (next(reversed(peers.items())),)  # predecessor only
        for peer_rank, peer_ctx in pairs:
            self.profiler.link(peer_ctx, track=f"rank{rank}")
            self.profiler.link_span(peer_ctx, mine, track=f"rank{peer_rank}")
        peers[rank] = mine
        if len(peers) >= members:
            del self._rdv_ctxs[point]

    # -- retention and rollups -------------------------------------------------

    def set_span_budget(self, budget: SpanBudget) -> None:
        """Install a memory budget on the span store (see
        :mod:`repro.obs.sampling`); existing spans are re-admitted."""
        self.profiler.set_budget(budget)

    def span_stats(self) -> SpanStoreStats:
        """Retention accounting of the span store."""
        return self.profiler.records.stats()

    def publish_engine(self) -> None:
        """Export the engine profiler's numbers as ``sim.*`` gauges."""
        self.engine.publish(self.registry)

    def rollup(self, label: str = "rank") -> Dict[str, Any]:
        """Cross-rank rollups of every rank-labeled family."""
        return rollup_registry(self.registry, label)

    def rollup_snapshot(self, label: str = "rank") -> Dict[str, Any]:
        """Snapshot-shaped export with rank series collapsed to rollups."""
        return rollup_snapshot(self.registry, label)

    def detect_anomalies(self, rules: Optional[Sequence[AnomalyRule]] = None) -> AnomalyReport:
        """Run the anomaly rules over this world's spans and metrics."""
        return detect(
            spans=self.profiler.records, registry=self.registry, rules=rules
        )

    # -- export ----------------------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """JSON-serializable snapshot of every metric family."""
        return self.registry.snapshot()

    def chrome_trace(self, tracer=None, metadata: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
        return chrome_trace(self.profiler.records, tracer, metadata)

    def write_chrome_trace(self, path: str, tracer=None, metadata: Optional[Dict[str, Any]] = None) -> int:
        return write_chrome_trace(path, self.profiler.records, tracer, metadata)

    def dashboard(
        self,
        title: str = "Observability dashboard",
        with_spans: bool = False,
        with_anomalies: bool = False,
    ) -> str:
        """The plain-text dashboard; ``with_spans=True`` appends the
        critical-path breakdown and wait-state tables,
        ``with_anomalies=True`` the anomaly findings section."""
        spans = self.profiler.records if (with_spans or with_anomalies) else None
        return render_dashboard(
            self.registry,
            title,
            spans=spans if with_spans else None,
            anomalies=self.detect_anomalies() if with_anomalies else None,
        )


__all__ = [
    "Observability",
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "SpanProfiler",
    "SpanRecord",
    "TraceContext",
    "EngineProfiler",
    "SpanBudget",
    "SpanStore",
    "SpanStoreStats",
    "read_spill",
    "size_class",
    "exact_percentile",
    "rollup_metric",
    "rollup_registry",
    "rollup_snapshot",
    "AnomalyReport",
    "AnomalyRule",
    "BarrierSkewRule",
    "WaitImbalanceRule",
    "RetrySloRule",
    "DroppedSeriesRule",
    "EngineThroughputRule",
    "Finding",
    "detect",
    "chrome_trace",
    "chrome_trace_events",
    "iter_chrome_trace_events",
    "flow_events",
    "write_chrome_trace",
    "write_metrics_snapshot",
    "events_jsonl",
    "write_events_jsonl",
    "render_dashboard",
    "dashboard_tables",
    "health_table",
    "windows_table",
    "TimeSeries",
    "WindowSpec",
    "WindowStats",
    "WindowedSeries",
    "SLO",
    "Alert",
    "BurnRateRule",
    "SloStatus",
    "SloTracker",
    "latency_slo",
    "availability_slo",
    "slo_from_dict",
    "incident_timeline",
    "CostRates",
    "TenantUsage",
    "ChargebackReport",
    "chargeback_report",
]
