"""Tests for cross-rank causal tracing: capture/link/deliver,
rendezvous cross-linking, Perfetto flow events, and the critical-path
analyzer."""

import numpy as np
import pytest

from repro.cluster import World, run_spmd
from repro.core import DiompParams, DiompRuntime
from repro.hardware import platform_a
from repro.obs import Observability, TraceContext
from repro.obs.critical_path import (
    CATEGORY_ORDER,
    categorize,
    critical_path,
)
from repro.obs.export import flow_events


def make_obs(times):
    """An Observability whose clock pops pre-baked timestamps."""
    it = iter(times)
    obs = Observability()
    obs.bind_clock(lambda: next(it))
    return obs


class TestCaptureLink:
    def test_capture_innermost_open_span(self):
        obs = make_obs([0.0, 1.0, 2.0, 3.0])
        assert obs.capture(rank=0) is None
        with obs.span("outer", rank=0):
            outer_ctx = obs.capture(rank=0)
            with obs.span("inner", rank=0):
                inner_ctx = obs.capture(rank=0)
            assert obs.capture(rank=0) == outer_ctx
        assert inner_ctx.span_id != outer_ctx.span_id
        assert inner_ctx.trace_id == obs.profiler.trace_id

    def test_link_into_open_span(self):
        obs = make_obs([0.0, 1.0, 2.0, 3.0])
        with obs.span("send", rank=0):
            sender = obs.capture(rank=0)
        with obs.span("recv", rank=1):
            assert obs.link(sender, rank=1)
        (send_rec, recv_rec) = obs.spans
        assert recv_rec.links == (sender.span_id,)
        assert send_rec.links == ()

    def test_link_without_open_span_returns_false(self):
        obs = make_obs([0.0, 1.0])
        with obs.span("send", rank=0):
            sender = obs.capture(rank=0)
        assert not obs.link(sender, rank=1)

    def test_self_link_and_foreign_trace_dropped(self):
        obs = make_obs([0.0, 1.0])
        with obs.span("s", rank=0):
            mine = obs.capture(rank=0)
            # Self-link: accepted as "a span was open" but not recorded.
            assert obs.link(mine, rank=0)
            assert not obs.link(TraceContext("other-trace", 1), rank=0)
        (rec,) = obs.spans
        assert rec.links == ()

    def test_link_span_targets_specific_open_span(self):
        obs = make_obs([0.0, 1.0, 2.0, 3.0, 4.0, 5.0])
        with obs.span("a", rank=0):
            a_ctx = obs.capture(rank=0)
            with obs.span("b", rank=1):
                b_ctx = obs.capture(rank=1)
                # b links itself into a (not the innermost on rank1).
                assert obs.profiler.link_span(a_ctx, b_ctx, track="rank0")
        a_rec = obs.profiler.select("a")[0]
        assert a_rec.links == (b_ctx.span_id,)
        # a is now closed: further link_span attempts are dropped.
        assert not obs.profiler.link_span(a_ctx, b_ctx, track="rank0")

    def test_record_standalone_span(self):
        obs = make_obs([])
        sender = TraceContext(obs.profiler.trace_id, 7)
        rec = obs.profiler.record(
            "rma.deliver.ipc", 1.5, 1.5, links=(sender,), rank=3
        )
        assert rec.track == "rank3"
        assert rec.start == rec.end == 1.5
        assert rec.links == (7,)


class TestDeliver:
    def test_deliver_links_into_open_receiver(self):
        obs = make_obs([0.0, 1.0, 2.0, 3.0])
        with obs.span("send", rank=0):
            sender = obs.capture(rank=0)
        with obs.span("fence", rank=1):
            got = obs.deliver("conduit.deliver", sender, 1.5, rank=1)
            fence_ctx = obs.capture(rank=1)
        assert got == fence_ctx
        fence_rec = obs.profiler.select("fence")[0]
        assert sender.span_id in fence_rec.links
        # No standalone delivery span was created.
        assert obs.profiler.count("conduit.deliver") == 0

    def test_deliver_records_standalone_when_no_span_open(self):
        obs = make_obs([0.0, 1.0])
        with obs.span("send", rank=0):
            sender = obs.capture(rank=0)
        got = obs.deliver("conduit.deliver", sender, 2.5, rank=1)
        (rec,) = obs.profiler.select("conduit.deliver")
        assert got == TraceContext(obs.profiler.trace_id, rec.span_id)
        assert rec.start == rec.end == 2.5
        assert rec.links == (sender.span_id,)

    def test_deliver_chains_multi_hop(self):
        obs = make_obs([0.0, 1.0])
        with obs.span("am.request", rank=0):
            sender = obs.capture(rank=0)
        handler = obs.deliver("am.deliver", sender, 2.0, rank=1)
        reply = obs.deliver("am.reply", handler, 3.0, rank=0)
        assert reply is not None
        deliver_rec = obs.profiler.select("am.deliver")[0]
        reply_rec = obs.profiler.select("am.reply")[0]
        assert deliver_rec.links == (sender.span_id,)
        assert reply_rec.links == (deliver_rec.span_id,)

    def test_deliver_none_ctx_or_disabled(self):
        obs = make_obs([0.0])
        assert obs.deliver("x", None, 1.0, rank=0) is None
        off = Observability(enabled=False)
        assert off.deliver("x", TraceContext("trace0", 1), 1.0, rank=0) is None


class TestRendezvous:
    def test_bidirectional_links_between_arrivals(self):
        obs = make_obs([0.0, 1.0, 2.0, 3.0])
        with obs.span("barrier", rank=0):
            obs.rendezvous("barrier", "g0", 0, 2)
            with obs.span("barrier", rank=1):
                obs.rendezvous("barrier", "g0", 1, 2)
        r0 = obs.profiler.select("barrier", track="rank0")[0]
        r1 = obs.profiler.select("barrier", track="rank1")[0]
        # The later arrival (rank1) linked the earlier one into itself
        # and itself into the earlier's still-open span.
        assert r0.links == (r1.span_id,)
        assert r1.links == (r0.span_id,)

    def test_sequence_numbers_pair_nth_barriers(self):
        obs = make_obs([float(i) for i in range(8)])
        for _ in range(2):
            with obs.span("barrier", rank=0):
                obs.rendezvous("barrier", "g0", 0, 2)
                with obs.span("barrier", rank=1):
                    obs.rendezvous("barrier", "g0", 1, 2)
        first0, second0 = obs.profiler.select("barrier", track="rank0")
        first1, second1 = obs.profiler.select("barrier", track="rank1")
        assert first0.links == (first1.span_id,)
        assert second0.links == (second1.span_id,)
        assert second1.links == (second0.span_id,)

    def test_no_open_span_is_a_no_op(self):
        obs = make_obs([])
        obs.rendezvous("barrier", "g0", 0, 2)
        assert len(obs.spans) == 0

    def test_last_arrival_drops_the_point(self):
        obs = make_obs([float(i) for i in range(4)])
        with obs.span("barrier", rank=0):
            obs.rendezvous("barrier", "g0", 0, 2)
            assert len(obs._rdv_spans) == 1
            with obs.span("barrier", rank=1):
                obs.rendezvous("barrier", "g0", 1, 2)
        assert obs._rdv_spans == {}

    @staticmethod
    def collective_run(k=3):
        """k rounds of world and subgroup barriers plus collectives."""
        world = World(platform_a(), num_nodes=1)
        DiompRuntime(world)

        def prog(ctx):
            send = ctx.diomp.alloc(1024, virtual=True)
            recv = ctx.diomp.alloc(1024, virtual=True)
            pair = ctx.diomp.group_create((0, 1) if ctx.rank < 2 else (2, 3))
            for _ in range(k):
                ctx.diomp.barrier()
                ctx.diomp.allreduce(send, recv)
                ctx.diomp.barrier(group=pair)
                ctx.diomp.bcast(send, root_rank=pair.ranks[0], group=pair)
            return ctx.rank

        run_spmd(world, prog)
        return world.obs

    def test_registry_empty_after_run_with_unchanged_links(self, monkeypatch):
        pruned = self.collective_run()
        assert pruned._rdv_spans == {}

        keep = Observability.rendezvous
        monkeypatch.setattr(
            Observability,
            "rendezvous",
            lambda self, kind, ident, rank, members: keep(self, kind, ident, rank, 1 << 30),
        )
        unpruned = self.collective_run()
        assert len(unpruned._rdv_spans) >= 4 * 3

        def links(obs):
            return [(s.span_id, s.track, s.name, s.links) for s in obs.spans]

        assert any(s.links for s in pruned.spans)
        assert links(pruned) == links(unpruned)


class TestFlowEvents:
    def chain(self):
        """A -> B -> C across three tracks; B is an interior node."""
        obs = make_obs([])
        prof = obs.profiler
        a = prof.record("A", 0.0, 1e-6, track="rank0")
        b = prof.record(
            "B", 1.5e-6, 2e-6, track="rank1",
            links=(TraceContext(prof.trace_id, a.span_id),),
        )
        prof.record(
            "C", 2.5e-6, 3e-6, track="rank2",
            links=(TraceContext(prof.trace_id, b.span_id),),
        )
        return obs.spans

    def test_chain_emits_start_step_finish(self):
        events = flow_events(self.chain())
        assert [e["ph"] for e in events] == ["s", "t", "f"]
        s, t, f = events
        assert s["id"] == t["id"] == f["id"] == 1
        assert s["name"] == t["name"] == f["name"] == "A"
        assert s["ts"] == pytest.approx(1.0)  # microseconds: A ends
        assert t["ts"] == pytest.approx(1.5)  # lands at B's start
        assert f["ts"] == pytest.approx(2.5)  # lands at C's start
        assert f["bp"] == "e"
        assert (s["tid"], t["tid"], f["tid"]) == (0, 1, 2)

    def test_fan_out_makes_two_flows(self):
        obs = make_obs([])
        prof = obs.profiler
        a = prof.record("A", 0.0, 1.0, track="rank0")
        ctx = TraceContext(prof.trace_id, a.span_id)
        prof.record("B", 2.0, 3.0, track="rank1", links=(ctx,))
        prof.record("C", 2.0, 3.0, track="rank2", links=(ctx,))
        events = flow_events(obs.spans)
        assert sorted(e["ph"] for e in events) == ["f", "f", "s", "s"]
        assert len({e["id"] for e in events}) == 2

    def test_unlinked_spans_make_no_flows(self):
        obs = make_obs([0.0, 1.0])
        with obs.span("x", rank=0):
            pass
        assert flow_events(obs.spans) == []

    def test_flows_included_in_chrome_trace(self):
        from repro.obs.export import chrome_trace_events

        events = chrome_trace_events(self.chain())
        phs = {e["ph"] for e in events}
        assert {"M", "X", "s", "t", "f"} <= phs


class TestCategorize:
    def test_longest_dotted_prefix(self):
        assert categorize("conduit.deliver") == "network"
        assert categorize("rma.put") == "network"
        assert categorize("rma.put.batch") == "network"
        assert categorize("rma.fence") == "wait"
        assert categorize("barrier") == "wait"
        assert categorize("ompccl.allreduce") == "device"
        assert categorize("stream.complete") == "device"
        assert categorize("compute") == "host"
        assert categorize("profile.asym_ping") == "host"


class TestCriticalPath:
    def ping_pong_spans(self):
        """Hand-checkable: rank0 puts [0,1]; rank1 fences [0,2] waiting
        on the delivery; rank1 computes [2,4]."""
        obs = make_obs([])
        prof = obs.profiler
        put = prof.record("rma.put", 0.0, 1.0, track="rank0")
        prof.record(
            "rma.fence", 0.0, 2.0, track="rank1",
            links=(TraceContext(prof.trace_id, put.span_id),),
        )
        prof.record("compute", 2.0, 4.0, track="rank1")
        return obs.spans

    def test_hand_checked_breakdown(self):
        summary = critical_path(self.ping_pong_spans())
        assert summary.total == 4.0
        assert summary.breakdown == {
            "network": 1.0,  # rma.put on rank0
            "wait": 1.0,     # tail of the fence after the put landed
            "host": 2.0,     # compute on rank1
        }
        names = [(s.name, s.start, s.end) for s in summary.segments]
        assert names == [
            ("rma.put", 0.0, 1.0),
            ("rma.fence", 1.0, 2.0),
            ("compute", 2.0, 4.0),
        ]

    def test_breakdown_sums_to_total(self):
        summary = critical_path(self.ping_pong_spans())
        assert sum(summary.breakdown.values()) == pytest.approx(
            summary.total, abs=1e-15
        )
        # Segments tile [0, total] with no gaps or overlaps.
        edges = [summary.segments[0].start]
        for seg in summary.segments:
            assert seg.start == edges[-1]
            edges.append(seg.end)
        assert edges[0] == 0.0 and edges[-1] == summary.total

    def test_track_stats_and_imbalance(self):
        summary = critical_path(self.ping_pong_spans())
        by_track = {t.track: t for t in summary.tracks}
        assert by_track["rank0"].busy == 1.0
        assert by_track["rank0"].wait == 3.0
        assert by_track["rank1"].busy == 4.0
        assert by_track["rank1"].wait == 0.0
        # max busy / mean busy = 4.0 / 2.5
        assert summary.imbalance == pytest.approx(1.6)

    def test_leading_idle_charged_as_wait(self):
        obs = make_obs([])
        obs.profiler.record("compute", 2.0, 5.0, track="rank0")
        summary = critical_path(obs.spans)
        assert summary.total == 5.0
        assert summary.breakdown == {"wait": 2.0, "host": 3.0}
        assert summary.segments[0].name == "(idle)"

    def test_empty_input(self):
        summary = critical_path([])
        assert summary.total == 0.0
        assert summary.segments == []
        assert summary.breakdown == {}

    def test_to_dict_shape(self):
        d = critical_path(self.ping_pong_spans()).to_dict()
        assert set(d["breakdown"]) == set(CATEGORY_ORDER)
        assert d["total"] == 4.0
        assert d["segments"] == 3
        assert d["tracks"][0]["track"] == "rank0"

    def test_render_tables(self):
        text = critical_path(self.ping_pong_spans()).render()
        assert "Critical path breakdown" in text
        assert "Per-track wait states" in text
        assert "Hottest path spans" in text
        assert "imbalance" in text


class TestEndToEnd:
    def test_two_rank_ping_pong(self):
        w = World(platform_a(with_quirk=False), num_nodes=2, ranks_per_node=1)
        DiompRuntime(w, DiompParams(segment_size=1 << 20))

        def prog(ctx):
            d = ctx.diomp
            buf = d.alloc(256)
            buf.typed(np.float64)[:] = float(ctx.rank)
            d.barrier()
            if ctx.rank == 0:
                d.put(1, buf, buf.memref())
                d.fence()
            d.barrier()

        res = run_spmd(w, prog)
        spans = w.obs.spans
        linked = [s for s in spans if s.links]
        assert linked, "expected causal links from barrier/put deliveries"
        # Barrier rendezvous links are bidirectional across the 2 ranks.
        barriers = [s for s in spans if s.name == "barrier" and s.links]
        assert barriers
        flows = flow_events(spans)
        starts = [e for e in flows if e["ph"] == "s"]
        finishes = [e for e in flows if e["ph"] == "f"]
        assert len(starts) == len(finishes) > 0
        summary = res.critical_path
        assert summary.total == pytest.approx(res.elapsed, rel=1e-9)
        assert sum(summary.breakdown.values()) == pytest.approx(
            summary.total, rel=1e-12
        )
        tracks = {t.track for t in summary.tracks}
        assert {"rank0", "rank1"} <= tracks

    def test_profiled_cannon_path_matches_elapsed(self):
        from repro.bench.profile import ProfileConfig, run_profiled_cannon

        res = run_profiled_cannon(ProfileConfig(n=64))
        summary = res.critical_path
        assert summary.total == pytest.approx(res.elapsed, rel=1e-9)
        assert sum(summary.breakdown.values()) == pytest.approx(
            summary.total, rel=1e-12
        )
        # The 4-rank cannon crosses both the conduit and IPC paths, so
        # network time must appear on the critical path.
        assert summary.breakdown.get("network", 0.0) > 0.0
        flows = flow_events(res.world.obs.spans)
        assert any(e["ph"] == "s" for e in flows)

    def test_per_track_nesting_interleaves_cleanly(self):
        # Two ranks' spans interleave in wall-clock order, yet each
        # rank's depth counts only its own open spans.
        obs = make_obs([0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0])
        with obs.span("a0", rank=0):
            with obs.span("b1", rank=1):
                with obs.span("c0", rank=0):
                    pass
                with obs.span("d1", rank=1):
                    pass
        depths = {r.name: r.depth for r in obs.spans}
        assert depths == {"a0": 0, "b1": 0, "c0": 1, "d1": 1}
        parents = {r.name: r.parent_id for r in obs.spans}
        ids = {r.name: r.span_id for r in obs.spans}
        assert parents["c0"] == ids["a0"]
        assert parents["d1"] == ids["b1"]
