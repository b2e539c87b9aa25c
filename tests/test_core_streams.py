"""Tests for the stream pool (lazy/reuse/bounded/partial-sync/hybrid)."""

import pytest

from repro.cluster import World
from repro.core import StreamPool, StreamPoolParams
from repro.hardware import platform_a
from repro.sim import Future
from repro.util.errors import ConfigurationError


def make_pool(**kw):
    w = World(platform_a(with_quirk=False), num_nodes=1)
    pool = StreamPool(
        w.sim, w.ranks[0].device, params=StreamPoolParams(**kw) if kw else None
    )
    return w.sim, pool


class TestLazyAndReuse:
    def test_no_streams_before_first_use(self):
        sim, pool = make_pool()
        assert pool.active_count == 0  # lazy: nothing preallocated

    def test_idle_stream_reused(self):
        sim, pool = make_pool()
        stats = {}

        def prog():
            s1 = pool.acquire()
            s1.enqueue(1e-6)
            s1.synchronize()  # now idle
            s2 = pool.acquire()
            stats["same"] = s2 is s1
            stats["created"] = pool.created
            stats["reused"] = pool.reused

        sim.spawn(prog)
        sim.run()
        assert stats == {"same": True, "created": 1, "reused": 1}

    def test_reuse_disabled_creates_new(self):
        sim, pool = make_pool(reuse=False, max_active_streams=4)
        stats = {}

        def prog():
            s1 = pool.acquire()
            s1.enqueue(1e-6)
            s1.synchronize()
            pool.acquire()
            stats["created"] = pool.created

        sim.spawn(prog)
        sim.run()
        assert stats["created"] == 2

    def test_reuse_disabled_never_reuses_even_past_bound(self):
        """The ablation: with reuse off, every acquire must create a
        fresh stream — including the path where acquire runs a partial
        sync at the concurrency bound (which used to hand back a
        just-synced stream and count it as reused)."""
        sim, pool = make_pool(reuse=False, max_active_streams=4)

        def prog():
            for _ in range(12):
                pool.acquire().enqueue(1e-5)
            pool.synchronize_all()

        sim.spawn(prog)
        sim.run()
        assert pool.reused == 0
        assert pool.created == 12
        assert pool.destroyed == 12  # every synced stream torn down
        assert pool.active_count == 0

    def test_reuse_disabled_destroys_idle(self):
        sim, pool = make_pool(reuse=False)

        def prog():
            s = pool.acquire()
            s.enqueue(1e-6)
            s.synchronize()
            pool.acquire().enqueue(1e-6)
            pool.synchronize_all()

        sim.spawn(prog)
        sim.run()
        assert pool.created == 2
        assert pool.destroyed == 2
        assert pool.active_count == 0

    def test_busy_streams_not_reused(self):
        sim, pool = make_pool()
        stats = {}

        def prog():
            s1 = pool.acquire()
            s1.enqueue(1.0)  # long-running
            s2 = pool.acquire()
            stats["distinct"] = s2 is not s1
            pool.synchronize_all()

        sim.spawn(prog)
        sim.run()
        assert stats["distinct"]


class TestBoundedConcurrency:
    def test_pool_never_exceeds_bound(self):
        sim, pool = make_pool(max_active_streams=4)

        def prog():
            for i in range(20):
                s = pool.acquire()
                s.enqueue(1e-5 * (i + 1))
                assert pool.active_count <= 4
            pool.synchronize_all()

        sim.spawn(prog)
        sim.run()
        assert pool.created <= 4

    def test_partial_sync_releases_half(self):
        sim, pool = make_pool(max_active_streams=4, partial_sync_fraction=0.5)
        stats = {}

        def prog():
            for _ in range(4):
                pool.acquire().enqueue(1e-3)
            # Fifth acquire triggers partial synchronization.
            pool.acquire().enqueue(1e-3)
            stats["partial_syncs"] = pool.partial_syncs
            pool.synchronize_all()

        sim.spawn(prog)
        sim.run()
        assert stats["partial_syncs"] == 1

    def test_partial_sync_waits_soonest_half_only(self):
        """Partial sync must block only until the *soonest* half
        completes, leaving slower streams running."""
        sim, pool = make_pool(max_active_streams=2, partial_sync_fraction=0.5)
        times = {}

        def prog():
            fast = pool.acquire()
            fast.enqueue(1e-4)
            slow = pool.acquire()
            slow.enqueue(1.0)
            pool.acquire()  # waits on the fast one only
            times["resumed_at"] = sim.now
            pool.synchronize_all()

        sim.spawn(prog)
        sim.run()
        assert times["resumed_at"] == pytest.approx(1e-4)

    def test_invalid_params(self):
        with pytest.raises(ConfigurationError):
            StreamPoolParams(max_active_streams=0)
        with pytest.raises(ConfigurationError):
            StreamPoolParams(partial_sync_fraction=0.0)


class _RecordingFuture(Future):
    """A completion future that records when a fence starts waiting
    on it (the fence waits through a done-callback)."""

    def __init__(self, sim, name, order):
        super().__init__(sim, description=name)
        self.name = name
        self.order = order

    def add_done_callback(self, fn):
        self.order.append(self.name)
        super().add_done_callback(fn)


class TestHybridFence:
    def test_fence_waits_streams_and_events(self):
        sim, pool = make_pool()
        done = {}

        def prog():
            s = pool.acquire()
            s.enqueue(2e-3)
            ev_future = Future(sim, description="net")
            sim.call_later(5e-3, ev_future.fire)
            pool.hybrid_fence([ev_future])
            done["t"] = sim.now

        sim.spawn(prog)
        sim.run()
        assert done["t"] >= 5e-3  # waited for the slower (network) side

    def test_fence_with_nothing_pending_cheap(self):
        sim, pool = make_pool()
        out = {}

        def prog():
            iterations = pool.hybrid_fence([])
            out["iters"] = iterations
            out["t"] = sim.now

        sim.spawn(prog)
        sim.run()
        assert out["iters"] == 0
        assert out["t"] == 0.0

    def test_fence_blocks_on_earliest_event_eta(self):
        """With eta-carrying events the fence must block on the
        earliest-completing one, not whichever happens to sit at the
        head of the pending list (the old behaviour)."""
        sim, pool = make_pool()
        order = []
        out = {}

        def prog():
            late = _RecordingFuture(sim, "late", order)
            late.eta = 5e-3
            early = _RecordingFuture(sim, "early", order)
            early.eta = 1e-3
            sim.call_later(5e-3, late.fire)
            sim.call_later(1e-3, early.fire)
            # Deliberately list the late event first.
            out["iters"] = pool.hybrid_fence([late, early])
            out["t"] = sim.now

        sim.spawn(prog)
        sim.run()
        assert order == ["early", "late"]  # earliest eta blocked on first
        assert out["iters"] == 2  # exactly one blocking wait per event
        assert out["t"] == pytest.approx(5e-3, rel=1e-3)

    def test_equal_eta_events_waited_in_issue_order(self):
        """Ties on ETA keep issue order, and events without an ETA come
        last.  The iteration count is the one the per-poll minimum
        search produced."""
        sim, pool = make_pool()
        order = []
        out = {}

        def prog():
            events = []
            for i, name in enumerate(["a", "b", "c"]):
                fut = _RecordingFuture(sim, name, order)
                fut.eta = 1e-3
                sim.call_later((i + 1) * 1e-3, fut.fire)
                events.append(fut)
            no_eta = _RecordingFuture(sim, "none", order)
            sim.call_later(0.5e-3, no_eta.fire)
            # The ETA-less event is listed first and completes first.
            out["iters"] = pool.hybrid_fence([no_eta] + events)
            out["t"] = sim.now

        sim.spawn(prog)
        sim.run()
        assert order == ["a", "b", "c"]
        # One poll before each wait; the last completion ends the fence.
        assert out["iters"] == 3
        assert out["t"] == pytest.approx(3e-3)

    def test_fence_prefers_stream_completing_before_event(self):
        """A stream whose available_at precedes the earliest event eta
        is synchronized first, keeping iteration count minimal."""
        sim, pool = make_pool()
        out = {}

        def prog():
            s = pool.acquire()
            s.enqueue(1e-4)  # completes well before the event
            fut = Future(sim, description="net")
            fut.eta = 5e-3
            sim.call_later(5e-3, fut.fire)
            out["iters"] = pool.hybrid_fence([fut])
            out["t"] = sim.now

        sim.spawn(prog)
        sim.run()
        assert out["iters"] == 2  # stream first, then the one event
        assert out["t"] >= 5e-3

    def test_fence_parks_once(self):
        """However many poll steps and waits the loop takes, the
        calling task parks at most once per hybrid_fence call."""
        sim, pool = make_pool()
        out = {}

        def prog():
            for i in range(3):
                pool.acquire().enqueue((i + 1) * 1e-4)
            events = []
            for i in range(4):
                fut = Future(sim, description=f"net{i}")
                fut.eta = (i + 1) * 2e-4
                sim.call_later(fut.eta, fut.fire)
                events.append(fut)
            before = sim.parks
            out["iters"] = pool.hybrid_fence(events)
            out["parks"] = sim.parks - before
            before = sim.parks
            out["idle_iters"] = pool.hybrid_fence([])
            out["idle_parks"] = sim.parks - before

        sim.spawn(prog)
        sim.run()
        assert out["iters"] > 1
        assert out["parks"] == 1
        assert out["idle_iters"] == 0
        assert out["idle_parks"] == 0

    def test_fence_iterations_traced(self):
        sim, pool = make_pool()
        out = {}

        def prog():
            for _ in range(3):
                pool.acquire().enqueue(1e-4)
            out["iters"] = pool.hybrid_fence([])

        sim.spawn(prog)
        sim.run()
        assert out["iters"] >= 1
        assert pool.poll_iterations == out["iters"]
