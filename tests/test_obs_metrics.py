"""Tests for the metrics registry and its runtime integration."""

import numpy as np
import pytest

from repro.cluster import MemRef, World, run_spmd
from repro.cluster.spmd import SpmdConfig
from repro.core import DiompParams, DiompRuntime
from repro.hardware import platform_a
from repro.obs import Observability, size_class
from repro.obs.metrics import DEFAULT_BOUNDS, MetricsRegistry
from repro.util.errors import ConfigurationError, PercentileError


class TestCounter:
    def test_inc_and_aggregate(self):
        reg = MetricsRegistry()
        c = reg.counter("rma.ops", "ops")
        c.inc(op="put", rank=0)
        c.inc(op="put", rank=1)
        c.inc(3, op="get", rank=0)
        assert c.value(op="put") == 2
        assert c.value(rank=0) == 4
        assert c.value() == 5
        assert c.value(op="put", rank=1) == 1
        assert c.value(op="cas") == 0

    def test_labels_stringified(self):
        reg = MetricsRegistry()
        c = reg.counter("c")
        c.inc(rank=3)
        c.inc(rank="3")
        assert c.value(rank=3) == 2
        assert c.value(rank="3") == 2

    def test_negative_increment_rejected(self):
        c = MetricsRegistry().counter("c")
        with pytest.raises(ConfigurationError, match="negative"):
            c.inc(-1)

    def test_snapshot_shape(self):
        reg = MetricsRegistry()
        reg.counter("c", "help text").inc(2.5, rank=0)
        snap = reg.snapshot()
        assert snap["counters"]["c"]["help"] == "help text"
        assert snap["counters"]["c"]["series"] == [
            {"labels": {"rank": "0"}, "value": 2.5}
        ]


class TestGauge:
    def test_set_add_and_high_water(self):
        g = MetricsRegistry().gauge("occupancy")
        g.set(10, rank=0)
        g.set(30, rank=0)
        g.set(20, rank=0)
        assert g.value(rank=0) == 20
        assert g.high_water(rank=0) == 30
        g.add(5, rank=0)
        assert g.value(rank=0) == 25

    def test_aggregates_across_series(self):
        g = MetricsRegistry().gauge("occupancy")
        g.set(10, rank=0)
        g.set(15, rank=1)
        assert g.value() == 25
        assert g.high_water() == 15

    def test_unseen_high_water_zero(self):
        g = MetricsRegistry().gauge("g")
        assert g.high_water(rank=9) == 0.0


class TestHistogram:
    def test_stats_and_buckets(self):
        h = MetricsRegistry().histogram("iters", bounds=(1, 2, 4))
        for v in (0, 1, 2, 3, 100):
            h.observe(v, rank=0)
        s = h.stats(rank=0)
        assert s.count == 5
        assert s.minimum == 0 and s.maximum == 100
        assert s.mean == pytest.approx(21.2)
        # buckets: <=1, <=2, <=4, overflow
        assert s.buckets == [2, 1, 1, 1]

    def test_merge_across_ranks(self):
        h = MetricsRegistry().histogram("iters", bounds=(1, 2))
        h.observe(1, rank=0)
        h.observe(5, rank=1)
        s = h.stats()
        assert s.count == 2 and s.maximum == 5
        assert h.count(rank=1) == 1

    def test_default_bounds_and_sorted_check(self):
        reg = MetricsRegistry()
        assert reg.histogram("h").bounds == DEFAULT_BOUNDS
        with pytest.raises(ConfigurationError, match="sorted"):
            reg.histogram("bad", bounds=(4, 2))


class TestPercentiles:
    def make(self):
        h = MetricsRegistry().histogram("h", bounds=(1, 2, 4))
        for v in (0, 1, 2, 3, 100):
            h.observe(v, rank=0)
        return h

    def test_interpolated_quantiles(self):
        h = self.make()
        s = h.stats()
        # buckets [2, 1, 1, 1]; p50 rank 2.5 falls in the (1, 2] bucket
        assert s.percentile(0.50, h.bounds) == pytest.approx(1.5)
        # p99 rank 4.95 falls in the overflow bucket, anchored at max
        assert s.percentile(0.99, h.bounds) == pytest.approx(95.2)

    def test_extremes_anchor_at_min_max(self):
        h = self.make()
        s = h.stats()
        assert s.percentile(0.0, h.bounds) == s.minimum
        assert s.percentile(1.0, h.bounds) == s.maximum

    def test_empty_is_zero(self):
        h = MetricsRegistry().histogram("h")
        from repro.obs.metrics import HistogramStats

        assert HistogramStats().percentile(0.5, h.bounds) == 0.0

    def test_out_of_range_q_rejected(self):
        h = self.make()
        with pytest.raises(PercentileError, match="percentile"):
            h.stats().percentile(1.5, h.bounds)

    def test_snapshot_carries_quantiles(self):
        h = self.make()
        (entry,) = h.snapshot()
        assert {"p50", "p95", "p99"} <= set(entry)
        assert entry["p50"] == pytest.approx(1.5)


class TestCardinalityGuard:
    def test_counter_drops_series_beyond_cap(self):
        reg = MetricsRegistry(max_series_per_metric=2)
        c = reg.counter("c")
        c.inc(rank=0)
        c.inc(rank=1)
        with pytest.warns(RuntimeWarning, match="cardinality"):
            c.inc(rank=2)
        assert c.value() == 2
        assert c.value(rank=2) == 0
        assert reg.dropped_series == 1
        # Existing series still admit new observations.
        c.inc(rank=0)
        assert c.value(rank=0) == 2

    def test_warns_only_once_per_metric(self):
        import warnings

        reg = MetricsRegistry(max_series_per_metric=1)
        c = reg.counter("c")
        c.inc(rank=0)
        with pytest.warns(RuntimeWarning):
            c.inc(rank=1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            c.inc(rank=2)  # silent: warned already
        assert reg.dropped_series == 2

    def test_gauge_and_histogram_guarded(self):
        reg = MetricsRegistry(max_series_per_metric=1)
        g = reg.gauge("g")
        h = reg.histogram("h")
        g.set(5, rank=0)
        h.observe(1, rank=0)
        with pytest.warns(RuntimeWarning):
            g.set(7, rank=1)
        with pytest.warns(RuntimeWarning):
            h.observe(2, rank=1)
        assert g.value() == 5
        assert h.count() == 1
        assert reg.dropped_series == 2

    def test_invalid_cap_rejected(self):
        with pytest.raises(ConfigurationError, match="max_series_per_metric"):
            MetricsRegistry(max_series_per_metric=0)


class TestRegistry:
    def test_get_or_create_same_object(self):
        reg = MetricsRegistry()
        assert reg.counter("c") is reg.counter("c")

    def test_kind_mismatch_rejected(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(ConfigurationError, match="already registered"):
            reg.gauge("x")

    def test_value_of_absent_family(self):
        assert MetricsRegistry().value("nope", rank=0) == 0.0

    def test_contains_and_iter(self):
        reg = MetricsRegistry()
        reg.counter("b")
        reg.gauge("a")
        assert "a" in reg and "c" not in reg
        assert [m.name for m in reg] == ["a", "b"]

    def test_disabled_registry_records_nothing(self):
        reg = MetricsRegistry(enabled=False)
        c = reg.counter("c")
        g = reg.gauge("g")
        h = reg.histogram("h")
        c.inc(rank=0)
        g.set(5, rank=0)
        h.observe(1, rank=0)
        assert c.value() == 0
        assert g.value() == 0
        assert h.count() == 0


class TestSizeClass:
    def test_boundaries(self):
        assert size_class(0) == "<4KiB"
        assert size_class(4 * 1024 - 1) == "<4KiB"
        assert size_class(4 * 1024) == "<64KiB"
        assert size_class(1024 * 1024) == "<4MiB"
        assert size_class(64 * 1024 * 1024) == ">=4MiB"


# ---------------------------------------------------------------------------
# Integration with the runtime
# ---------------------------------------------------------------------------


def make(nodes=2, ranks_per_node=None, obs=None, **kw):
    w = World(
        platform_a(with_quirk=False),
        num_nodes=nodes,
        ranks_per_node=ranks_per_node,
        obs=obs,
    )
    rt = DiompRuntime(w, DiompParams(**kw) if kw else None)
    return w, rt


def ring_put(ctx, nbytes=8192):
    d = ctx.diomp
    buf = d.alloc(nbytes)
    right = (ctx.rank + 1) % ctx.nranks
    d.barrier()
    d.put(right, buf, buf.memref())
    d.fence()
    d.barrier()


class TestRuntimeIntegration:
    def test_per_path_bytes(self):
        # 2 nodes x 2 ranks: ring neighbours alternate conduit / IPC.
        w, rt = make(nodes=2, ranks_per_node=2)
        run_spmd(w, ring_put)
        reg = w.obs.registry
        assert reg.value("rma.ops", path="conduit") == 2
        assert reg.value("rma.ops", path="ipc") == 2
        assert reg.value("rma.bytes", path="conduit") == 2 * 8192
        assert reg.value("rma.bytes", path="ipc") == 2 * 8192
        assert reg.value("rma.bytes") == 4 * 8192

    def test_legacy_stats_read_registry(self):
        w, rt = make(nodes=2, ranks_per_node=2)
        run_spmd(w, ring_put)
        for ctx in w.ranks:
            assert ctx.diomp.rma.puts == 1
            assert ctx.diomp.rma.gets == 0

    def test_pointer_cache_hit_rate(self):
        w, rt = make()
        def prog(ctx):
            d = ctx.diomp
            a = d.alloc_asymmetric((ctx.rank + 1) * 1024)
            d.barrier()
            if ctx.rank == 0:
                dst = np.zeros(2048, dtype=np.uint8)
                for _ in range(3):
                    d.get(5, a, MemRef.host(ctx.node, dst))
                    d.fence()
            d.barrier()
            d.free_asymmetric(a)

        run_spmd(w, prog)
        reg = w.obs.registry
        assert reg.value("rma.pointer_cache", event="miss") == 1
        assert reg.value("rma.pointer_cache", event="hit") == 2

    def test_stream_pool_gauge_high_water(self):
        w, rt = make(nodes=2, ranks_per_node=2)
        run_spmd(w, ring_put)
        gauge = w.obs.registry.gauge("streams.active")
        assert gauge.high_water() >= 1

    def test_conduit_counters_by_size_class(self):
        w, rt = make(nodes=2, ranks_per_node=2)
        run_spmd(w, ring_put)
        reg = w.obs.registry
        # the two inter-node puts travel the GASNet conduit
        assert reg.value(
            "conduit.messages", conduit="gasnet", op="put", size_class="<64KiB"
        ) == 2
        assert reg.value("conduit.bytes", conduit="gasnet", op="put") == 2 * 8192

    def test_collective_counters(self):
        w, rt = make(nodes=2, ranks_per_node=2)

        def prog(ctx):
            d = ctx.diomp
            buf = d.alloc(1024)
            d.barrier()
            d.bcast(buf)
            d.barrier()

        run_spmd(w, prog)
        reg = w.obs.registry
        assert reg.value("ompccl.collectives", kind="bcast") == w.nranks
        assert reg.value("ompccl.bytes", kind="bcast") == w.nranks * 1024
        # one xccl device-slot launch per rank underneath
        assert reg.value("xccl.launches", op="broadcast") == w.nranks

    def test_segment_occupancy_gauge(self):
        w, rt = make()

        def prog(ctx):
            ctx.diomp.alloc(4096)
            ctx.diomp.barrier()

        run_spmd(w, prog)
        gauge = w.obs.registry.gauge("segment.occupancy_bytes")
        assert gauge.value(rank=0, region="symmetric") >= 4096

    def test_disabled_world_records_nothing(self):
        w, rt = make(obs=Observability(enabled=False))
        run_spmd(w, ring_put)
        reg = w.obs.registry
        assert reg.value("rma.ops") == 0
        assert len(w.obs.spans) == 0
        # legacy properties degrade to zero rather than raising
        assert w.ranks[0].diomp.rma.puts == 0

    def test_spmd_result_carries_snapshot(self):
        w, rt = make()
        res = run_spmd(w, ring_put)
        assert res.metrics is not None
        assert "rma.ops" in res.metrics["counters"]

    def test_spmd_result_metrics_none_when_disabled(self):
        w, rt = make(obs=Observability(enabled=False))
        res = run_spmd(w, ring_put)
        assert res.metrics is None


class TestPercentileEdgeCases:
    """S2 hardening: degenerate series and boundary q values."""

    def test_nan_q_rejected(self):
        h = MetricsRegistry().histogram("h")
        h.observe(1.0)
        with pytest.raises(ConfigurationError, match="percentile"):
            h.stats().percentile(float("nan"), h.bounds)

    def test_negative_q_rejected(self):
        h = MetricsRegistry().histogram("h")
        h.observe(1.0)
        with pytest.raises(ConfigurationError, match="percentile"):
            h.stats().percentile(-0.01, h.bounds)

    def test_single_observation_every_q(self):
        h = MetricsRegistry().histogram("h", bounds=(1, 10, 100))
        h.observe(7.0)
        for q in (0.0, 0.25, 0.5, 0.99, 1.0):
            assert h.stats().percentile(q, h.bounds) == 7.0

    def test_constant_series_every_q(self):
        h = MetricsRegistry().histogram("h", bounds=(1, 10, 100))
        for _ in range(10):
            h.observe(42.0)
        for q in (0.0, 0.5, 1.0):
            assert h.stats().percentile(q, h.bounds) == 42.0

    def test_extreme_q_exact_not_estimated(self):
        h = MetricsRegistry().histogram("h", bounds=(1, 10, 100))
        for v in (0.5, 3.0, 55.0, 700.0):
            h.observe(v)
        assert h.stats().percentile(0.0, h.bounds) == 0.5
        assert h.stats().percentile(1.0, h.bounds) == 700.0

    def test_estimates_clamped_to_observed_range(self):
        h = MetricsRegistry().histogram("h", bounds=(1, 10, 100))
        for v in (2.0, 3.0, 4.0, 5.0):
            h.observe(v)
        for q in (0.01, 0.5, 0.99):
            est = h.stats().percentile(q, h.bounds)
            assert 2.0 <= est <= 5.0


class TestRegistryHealth:
    def test_series_counts_and_totals(self):
        reg = MetricsRegistry()
        c = reg.counter("a")
        c.inc(rank=0)
        c.inc(rank=1)
        reg.gauge("b").set(1.0)
        health = reg.health()
        assert health["families"]["a"]["series"] == 2
        assert health["families"]["b"]["series"] == 1
        assert health["total_series"] == 3
        assert health["dropped_series"] == 0
        assert not health["families"]["a"]["overflowed"]
        assert c.series_count() == 2

    def test_overflow_surfaces_in_health_and_snapshot(self):
        import warnings

        reg = MetricsRegistry(max_series_per_metric=2)
        c = reg.counter("a")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for r in range(5):
                c.inc(rank=r)
        health = reg.health()
        assert health["dropped_series"] == 3
        assert health["families"]["a"]["overflowed"]
        snap = reg.snapshot()
        assert snap["health"]["dropped_series"] == 3
        assert snap["counters"]["a"]["series_count"] == 2
        assert snap["counters"]["a"]["overflowed"]


class TestLabelResolution:
    """Each label set resolves to its series key once; the resolution
    table must not merge label values that stringify differently."""

    def test_int_and_str_rank_write_one_series(self):
        c = MetricsRegistry().counter("c")
        for _ in range(2):
            c.inc(rank=3)
            c.inc(rank="3")
        assert c.label_keys() == [(("rank", "3"),)]
        assert c.value(rank=3) == 4

    def test_bool_int_and_float_write_three_series(self):
        reg = MetricsRegistry()
        c = reg.counter("c")
        g = reg.gauge("g")
        h = reg.histogram("h")
        for _ in range(2):  # the second pass reads the resolution table
            for value in (True, 1, 1.0):
                c.inc(flag=value)
                g.set(5, flag=value)
                h.observe(2, flag=value)
        keys = [(("flag", "1"),), (("flag", "1.0"),), (("flag", "True"),)]
        for metric in (c, g, h):
            assert metric.label_keys() == keys
        assert [c.value(flag=v) for v in ("True", "1", "1.0")] == [2, 2, 2]
        assert [h.count(flag=v) for v in ("True", "1", "1.0")] == [2, 2, 2]

    def test_every_write_past_the_cap_is_dropped_and_warns_once(self):
        import warnings

        reg = MetricsRegistry(max_series_per_metric=1)
        c = reg.counter("c")
        g = reg.gauge("g")
        c.inc(rank=0)
        g.set(1, rank=0)
        with pytest.warns(RuntimeWarning) as caught:
            for _ in range(3):
                c.inc(rank=1)
                c.inc(rank=2)
                g.add(1, rank=1)
        assert len(caught) == 2  # one per family
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            table = c.bind("rank")
            table.inc(5)
            table.inc(5)
            table.inc(0)  # an admitted series stays writable
        assert reg.dropped_series == 3 * 3 + 2
        assert c.label_keys() == [(("rank", "0"),)]
        assert c.value(rank=0) == 2
        assert g.label_keys() == [(("rank", "0"),)]

    def test_write_hooks_get_the_callers_raw_labels(self):
        reg = MetricsRegistry()
        seen = []
        reg.add_write_hook(lambda metric, value, labels: seen.append((metric.name, value, labels)))
        c = reg.counter("c")
        c.inc(rank=3)
        c.inc(2, rank="3")
        c.bind("rank", "op").inc((3, "put"), 4)
        reg.gauge("g").set(7, device=1)
        reg.histogram("h").bind("device").observe(2, 9)
        assert seen == [
            ("c", 1.0, {"rank": 3}),
            ("c", 2.0, {"rank": "3"}),
            ("c", 4.0, {"rank": 3, "op": "put"}),
            ("g", 7.0, {"device": 1}),
            ("h", 9.0, {"device": 2}),
        ]
        assert type(seen[1][2]["rank"]) is str

    def test_bound_table_and_keywords_share_series(self):
        reg = MetricsRegistry()
        c = reg.counter("c")
        table = c.bind("rank", "op")
        table.inc((1, "get"))
        c.inc(3, op="get", rank=1)
        assert c.label_keys() == [(("op", "get"), ("rank", "1"))]
        assert c.value() == 4
        with pytest.raises(ConfigurationError, match="negative"):
            table.inc((1, "get"), -1)
        assert c.bind("rank", "op") is table
        with pytest.raises(AttributeError):
            reg.gauge("g").bind("rank").inc(0)  # each kind keeps its own verb

    def test_disabled_registry_tables_record_nothing(self):
        reg = MetricsRegistry(enabled=False)
        c = reg.counter("c")
        c.bind("rank").inc(0)
        reg.gauge("g").bind("rank").set(0, 5)
        assert c.series_count() == 0
        assert reg.gauge("g").series_count() == 0
        assert len(c.bind("rank")) == 0

    def test_each_series_key_resolved_once_in_a_64_rank_run(self, monkeypatch):
        from repro.obs import metrics

        calls = []
        resolve = metrics._label_key

        def counting(items, pairs):
            key = resolve(items, pairs)
            calls.append(pairs)  # reads pass a throwaway table
            return key

        monkeypatch.setattr(metrics, "_label_key", counting)
        world = World(platform_a(), num_nodes=16)
        DiompRuntime(world)

        def prog(ctx):
            d = ctx.diomp
            send = d.alloc(16 * 1024)
            recv = d.alloc(16 * 1024)
            d.barrier()
            for _ in range(3):
                d.allreduce(send, recv)
                d.fence()
            d.barrier()

        run_spmd(world, prog, config=SpmdConfig(analytic=True))
        assert world.nranks == 64
        series = sum(m.series_count() for m in world.obs.registry)
        assert series > 64 * 4
        assert sum(p is world.obs.registry._pairs for p in calls) == series
