"""Tests for the DiOMP runtime: segments, symmetric/asymmetric
allocation, RMA paths, fence, pointer cache."""

import numpy as np
import pytest

from repro.cluster import MemRef, World, run_spmd
from repro.core import Diomp, DiompParams, DiompRuntime
from repro.hardware import platform_a, platform_c
from repro.util.errors import AllocationError, CommunicationError, ConfigurationError
from repro.util.units import KiB, MiB


def make(nodes=2, platform=None, **kw):
    w = World(platform or platform_a(with_quirk=False), num_nodes=nodes)
    rt = DiompRuntime(w, DiompParams(**kw) if kw else None)
    return w, rt


def errors_by_rank(prog, error, **params):
    """Run ``prog`` on a fresh one-node world; rank -> message of the
    ``error`` it raised.  A rank left parked fails the run."""
    w, _rt = make(nodes=1, **params)
    seen = {}

    def record(ctx):
        try:
            prog(ctx)
        except error as exc:
            seen[ctx.rank] = str(exc)

    run_spmd(w, record)
    return seen, w.nranks


class TestInit:
    def test_handles_installed_on_contexts(self):
        w, rt = make()
        assert all(isinstance(ctx.diomp, Diomp) for ctx in w.ranks)

    def test_one_segment_per_rank_device(self):
        w, rt = make(nodes=1)
        assert len(rt.segments) == 4
        for (rank, dev), seg in rt.segments.items():
            assert seg.registrations == 1

    def test_multi_device_rank_segments(self):
        w = World(platform_a(with_quirk=False), num_nodes=1, devices_per_rank=4)
        rt = DiompRuntime(w)
        assert len(rt.segments) == 4  # one rank, four devices
        assert rt.segment_of(0, 3) is rt.segments[(0, 3)]

    def test_gpi2_conduit_selected(self):
        w = World(platform_c(), num_nodes=2)
        rt = DiompRuntime(w, DiompParams(conduit="gpi2"))
        from repro.gpi2 import Gpi2Conduit

        assert isinstance(rt.conduit, Gpi2Conduit)

    def test_gpi2_rejected_on_slingshot(self):
        w = World(platform_a(), num_nodes=2)
        with pytest.raises(ConfigurationError, match="InfiniBand"):
            DiompRuntime(w, DiompParams(conduit="gpi2"))

    def test_unknown_conduit_rejected(self):
        w = World(platform_a(), num_nodes=1)
        with pytest.raises(ConfigurationError, match="conduit"):
            DiompRuntime(w, DiompParams(conduit="verbs"))


class TestSymmetricAlloc:
    def test_offsets_identical_across_ranks(self):
        w, rt = make()
        offsets = {}

        def prog(ctx):
            g1 = ctx.diomp.alloc(4 * KiB)
            g2 = ctx.diomp.alloc(8 * KiB)
            offsets[ctx.rank] = (g1.offset, g2.offset)

        run_spmd(w, prog)
        assert len(set(offsets.values())) == 1

    def test_size_mismatch_rejected(self):
        def size_mismatch(ctx):
            ctx.diomp.alloc(4 * KiB if ctx.rank else 8 * KiB)

        def device_mismatch(ctx):
            ctx.diomp.alloc(4 * KiB, device_num=ctx.rank % 2)

        cases = [
            (size_mismatch, {}, "sizes={8192, 4096}"),
            (device_mismatch, {"devices_per_rank": 2}, "devices={0, 1}"),
        ]
        for prog, shape, detail in cases:
            w = World(platform_a(with_quirk=False), num_nodes=1, **shape)
            DiompRuntime(w)
            with pytest.raises(CommunicationError, match="mismatch"):
                run_spmd(w, prog)

            # Every rank raises the same error, not only the first.
            w = World(platform_a(with_quirk=False), num_nodes=1, **shape)
            DiompRuntime(w)
            seen = {}

            def record(ctx, prog=prog, seen=seen):
                try:
                    prog(ctx)
                except CommunicationError as exc:
                    seen[ctx.rank] = str(exc)

            run_spmd(w, record)
            assert sorted(seen) == list(range(w.nranks))
            assert len(set(seen.values())) == 1
            assert detail in seen[0]

    def test_mismatched_collective_free_rejected(self):
        """Ranks freeing different buffers all raise one error instead
        of each quietly freeing its own."""

        def free(ctx):
            a, b = ctx.diomp.alloc(4 * KiB), ctx.diomp.alloc(4 * KiB)
            ctx.diomp.free(a if ctx.rank else b)

        def free_host(ctx):
            a, b = ctx.diomp.alloc_host(64), ctx.diomp.alloc_host(64)
            ctx.diomp.free_host(a if ctx.rank else b)

        def free_asymmetric(ctx):
            a, b = ctx.diomp.alloc_asymmetric(64), ctx.diomp.alloc_asymmetric(64)
            ctx.diomp.free_asymmetric(a if ctx.rank else b)

        for prog in (free, free_host, free_asymmetric):
            seen, nranks = errors_by_rank(prog, CommunicationError)
            assert sorted(seen) == list(range(nranks)), prog.__name__
            assert len(set(seen.values())) == 1
            assert "mismatch" in seen[0]

    def test_heap_exhaustion_reaches_every_rank(self):
        """An allocation the shared heap cannot satisfy raises the same
        AllocationError on every rank and leaves no peer parked."""
        params = {"segment_size": 1 * MiB, "host_segment_size": 64 * KiB}
        cases = [
            lambda ctx: ctx.diomp.alloc(512 * KiB + 16),
            lambda ctx: ctx.diomp.alloc_host(64 * KiB + 16),
            # only rank 0 overflows its local region
            lambda ctx: ctx.diomp.alloc_asymmetric(1 * MiB if ctx.rank == 0 else 64),
        ]
        for prog in cases:
            seen, nranks = errors_by_rank(prog, AllocationError, **params)
            assert sorted(seen) == list(range(nranks))
            assert len(set(seen.values())) == 1
            assert "exhausted" in seen[0]

    def test_free_and_reuse_offset(self):
        w, rt = make(nodes=1)
        offsets = {}

        def prog(ctx):
            g1 = ctx.diomp.alloc(4 * KiB)
            first = g1.offset
            ctx.diomp.free(g1)
            g2 = ctx.diomp.alloc(4 * KiB)
            offsets[ctx.rank] = (first, g2.offset)

        run_spmd(w, prog)
        for first, second in offsets.values():
            assert first == second

    def test_buffer_usable_as_typed_array(self):
        w, rt = make(nodes=1)

        def prog(ctx):
            g = ctx.diomp.alloc(64)
            g.typed(np.float64)[:] = ctx.rank
            assert (g.typed(np.float64) == ctx.rank).all()

        run_spmd(w, prog)

    def test_buddy_allocator_option(self):
        w, rt = make(nodes=1, allocator="buddy")
        offsets = {}

        def prog(ctx):
            offsets[ctx.rank] = ctx.diomp.alloc(300).offset

        run_spmd(w, prog)
        assert len(set(offsets.values())) == 1


class TestRmaSymmetric:
    def test_inter_node_put_get(self):
        w, rt = make()
        seen = {}

        def prog(ctx):
            g = ctx.diomp.alloc(64)
            g.typed(np.float64)[:] = float(ctx.rank)
            ctx.diomp.barrier()
            if ctx.rank == 0:
                # put my data into rank 5 (other node) at offset 0
                ctx.diomp.put(5, g, g.memref())
                ctx.diomp.fence()
            ctx.diomp.barrier()
            seen[ctx.rank] = g.typed(np.float64)[0]

        run_spmd(w, prog)
        assert seen[5] == 0.0  # overwritten by rank 0
        assert seen[1] == 1.0  # untouched

    def test_get_fetches_remote(self):
        w, rt = make()
        out = {}

        def prog(ctx):
            g = ctx.diomp.alloc(64)
            g.typed(np.int64)[:] = ctx.rank * 11
            ctx.diomp.barrier()
            if ctx.rank == 2:
                dst = np.zeros(8, dtype=np.int64)
                ctx.diomp.get(7, g, MemRef.host(ctx.node, dst))
                ctx.diomp.fence()
                out["v"] = dst[0]
            ctx.diomp.barrier()

        run_spmd(w, prog)
        assert out["v"] == 77

    def test_put_with_target_offset(self):
        w, rt = make()
        bufs = {}

        def prog(ctx):
            g = ctx.diomp.alloc(128)
            bufs[ctx.rank] = g
            ctx.diomp.barrier()
            if ctx.rank == 0:
                src = np.full(4, 9.0)
                ctx.diomp.put(4, g, MemRef.host(ctx.node, src), target_offset=64)
                ctx.diomp.fence()
            ctx.diomp.barrier()

        run_spmd(w, prog)
        arr = bufs[4].typed(np.float64)
        assert arr[8] == 9.0 and arr[0] == 0.0

    def test_out_of_range_put_rejected(self):
        w, rt = make()

        def prog(ctx):
            g = ctx.diomp.alloc(64)
            if ctx.rank == 0:
                src = np.zeros(16)
                ctx.diomp.put(4, g, MemRef.host(ctx.node, src), target_offset=32)

        with pytest.raises(CommunicationError, match="exceeds buffer"):
            run_spmd(w, prog)

    def test_freed_buffer_rejected(self):
        w, rt = make(nodes=1)

        def prog(ctx):
            g = ctx.diomp.alloc(64)
            ctx.diomp.free(g)
            if ctx.rank == 0:
                ctx.diomp.put(1, g, MemRef.host(ctx.node, np.zeros(8)))

        with pytest.raises(CommunicationError, match="freed"):
            run_spmd(w, prog)


class TestHierarchicalPaths:
    def test_intra_node_avoids_nic(self):
        """Same-node RMA must not touch NIC resources (IPC path)."""
        w, rt = make(nodes=1)

        def prog(ctx):
            g = ctx.diomp.alloc(1 * MiB, virtual=True)
            ctx.diomp.barrier()
            if ctx.rank == 0:
                ctx.diomp.put(1, g, g.memref())
                ctx.diomp.fence()
            ctx.diomp.barrier()

        run_spmd(w, prog)
        fab = w.fabric
        assert fab.resource_busy_until("node0/nic0/tx") == 0.0
        assert fab.resource_busy_until("node0/nic0/rx") == 0.0
        assert fab.resource_busy_until("node0/gpu0->gpu1") > 0.0

    def test_intra_node_faster_than_inter_node(self):
        def put_time(nodes, dst_rank):
            w, rt = make(nodes=nodes)

            def prog(ctx):
                g = ctx.diomp.alloc(4 * MiB, virtual=True)
                ctx.diomp.barrier()
                elapsed = None
                if ctx.rank == 0:
                    # Warm up (one-time IPC handle open / path setup).
                    ctx.diomp.put(dst_rank, g, g.memref())
                    ctx.diomp.fence()
                    t0 = ctx.sim.now
                    ctx.diomp.put(dst_rank, g, g.memref())
                    ctx.diomp.fence()
                    elapsed = ctx.sim.now - t0
                ctx.diomp.barrier()
                return elapsed

            return run_spmd(w, prog).results[0]

        assert put_time(1, 1) < put_time(2, 4)

    def test_ipc_open_charged_once(self):
        w, rt = make(nodes=1)
        stats = {}

        def prog(ctx):
            g = ctx.diomp.alloc(4 * KiB, virtual=True)
            ctx.diomp.barrier()
            if ctx.rank == 0:
                for _ in range(5):
                    ctx.diomp.put(1, g, g.memref())
                ctx.diomp.fence()
                stats["opens"] = ctx.diomp.rma.ipc_opens
                stats["puts"] = ctx.diomp.rma.puts
            ctx.diomp.barrier()

        run_spmd(w, prog)
        assert stats == {"opens": 1, "puts": 5}

    def test_same_process_multi_gpu_uses_peer_access(self):
        w = World(platform_a(with_quirk=False), num_nodes=1, devices_per_rank=2)
        DiompRuntime(w)
        enabled = {}

        def prog(ctx):
            g0 = ctx.diomp.alloc(4 * KiB, device_num=0, virtual=True)
            g1 = ctx.diomp.alloc(4 * KiB, device_num=1, virtual=True)
            ctx.diomp.barrier()
            if ctx.rank == 0:
                # put from my device 0 into my own rank's device-1 buffer
                ctx.diomp.put(0, g1, g0.memref(), device_num=1)
                ctx.diomp.fence()
                enabled["peer"] = w.peer_access.is_enabled(
                    ctx.devices[0].device_id, ctx.devices[1].device_id
                )
            ctx.diomp.barrier()

        run_spmd(w, prog)
        assert enabled["peer"]


class TestFence:
    def test_fence_completes_all_pending(self):
        w, rt = make()
        stats = {}

        def prog(ctx):
            g = ctx.diomp.alloc(256 * KiB, virtual=True)
            ctx.diomp.barrier()
            if ctx.rank == 0:
                for i in range(8):
                    ctx.diomp.put(4, g, g.memref())
                assert ctx.diomp.rma.pending_ops > 0
                ctx.diomp.fence()
                stats["pending_after"] = ctx.diomp.rma.pending_ops
            ctx.diomp.barrier()

        run_spmd(w, prog)
        assert stats["pending_after"] == 0

    def test_data_visible_only_after_fence_barrier(self):
        w, rt = make()
        order = {}

        def prog(ctx):
            g = ctx.diomp.alloc(8 * MiB)
            ctx.diomp.barrier()
            if ctx.rank == 0:
                g.typed(np.uint8)[:] = 1
                ctx.diomp.put(4, g, g.memref())
                ctx.diomp.fence()
            ctx.diomp.barrier()
            if ctx.rank == 4:
                order["sum"] = int(g.typed(np.uint8).sum())

        run_spmd(w, prog)
        assert order["sum"] == 8 * MiB

    def test_fence_drains_every_device_pool(self):
        """Regression: intra-node RMA from a non-primary device enqueues
        onto *that* device's pool; a fence called for device 0 used to
        drain only ``stream_pool(0)`` and return with the other pool's
        streams still in flight."""
        w = World(platform_a(with_quirk=False), num_nodes=1, devices_per_rank=4)
        DiompRuntime(w)
        out = {}

        def prog(ctx):
            if ctx.rank != 0:
                return
            slow = 5e-3
            other = ctx.diomp.stream_pool(1)
            other.acquire().enqueue(slow)
            ctx.diomp.stream_pool(0).acquire().enqueue(1e-5)
            ctx.diomp.fence()  # device_num defaults to 0
            out["t"] = ctx.sim.now
            out["busy"] = {
                num: pool.active_count
                for num, pool in ctx.diomp.stream_pools().items()
            }

        run_spmd(w, prog)
        assert out["t"] >= 5e-3  # waited for device 1's stream too
        assert set(out["busy"]) == {0, 1}

    def test_intra_node_put_from_second_device_completed_by_fence(self):
        """End-to-end variant: a p2p put whose source lives on device 1
        must be fully visible after a default fence."""
        w = World(platform_a(with_quirk=False), num_nodes=1, devices_per_rank=2)
        DiompRuntime(w)
        out = {}

        def prog(ctx):
            g = ctx.diomp.alloc(64)
            ctx.diomp.barrier()
            if ctx.rank == 0:
                src_buf = ctx.devices[1].malloc(64)
                src_buf.as_array(np.uint8)[:] = 7
                ctx.diomp.put(0, g, MemRef.device(src_buf))
                ctx.diomp.fence()
                out["sum"] = int(g.typed(np.uint8).sum())
            ctx.diomp.barrier()

        run_spmd(w, prog)
        assert out["sum"] == 64 * 7


class TestAsymmetric:
    def test_differing_sizes_allocated(self):
        w, rt = make()
        out = {}

        def prog(ctx):
            a = ctx.diomp.alloc_asymmetric((ctx.rank + 1) * 1024)
            out[ctx.rank] = (a.size, a.slot_offset)

        run_spmd(w, prog)
        sizes = {r: s for r, (s, _) in out.items()}
        slots = {slot for _, slot in out.values()}
        assert sizes[0] == 1024 and sizes[7] == 8 * 1024
        assert len(slots) == 1  # wrapper slot is symmetric

    def test_remote_access_two_step_then_cached(self):
        w, rt = make()
        stats = {}

        def prog(ctx):
            a = ctx.diomp.alloc_asymmetric((ctx.rank + 1) * 1024)
            if a.data is not None:
                a.typed(np.uint8)[:] = ctx.rank
            ctx.diomp.barrier()
            if ctx.rank == 0:
                dst = np.zeros(2048, dtype=np.uint8)
                ctx.diomp.get(5, a, MemRef.host(ctx.node, dst))
                ctx.diomp.fence()
                first_fetches = ctx.diomp.rma.pointer_fetches
                ctx.diomp.get(5, a, MemRef.host(ctx.node, dst))
                ctx.diomp.fence()
                stats["fetches"] = (first_fetches, ctx.diomp.rma.pointer_fetches)
                stats["data"] = dst[0]
                stats["cache"] = (
                    ctx.diomp.pointer_cache.hits,
                    ctx.diomp.pointer_cache.misses,
                )
            ctx.diomp.barrier()

        run_spmd(w, prog)
        assert stats["fetches"] == (1, 1)  # second access: cache hit
        assert stats["data"] == 5
        assert stats["cache"] == (1, 1)

    def test_cache_disabled_refetches(self):
        w, rt = make(pointer_cache=False)
        stats = {}

        def prog(ctx):
            a = ctx.diomp.alloc_asymmetric(1024)
            ctx.diomp.barrier()
            if ctx.rank == 0:
                dst = np.zeros(64, dtype=np.uint8)
                for _ in range(3):
                    ctx.diomp.get(4, a, MemRef.host(ctx.node, dst))
                    ctx.diomp.fence()
                stats["fetches"] = ctx.diomp.rma.pointer_fetches
            ctx.diomp.barrier()

        run_spmd(w, prog)
        assert stats["fetches"] == 3

    def test_free_invalidates_caches(self):
        w, rt = make()
        stats = {}

        def prog(ctx):
            a = ctx.diomp.alloc_asymmetric(1024)
            ctx.diomp.barrier()
            if ctx.rank == 0:
                dst = np.zeros(64, dtype=np.uint8)
                ctx.diomp.get(4, a, MemRef.host(ctx.node, dst))
                ctx.diomp.fence()
                stats["before"] = len(ctx.diomp.pointer_cache)
            ctx.diomp.barrier()
            ctx.diomp.free_asymmetric(a)
            if ctx.rank == 0:
                stats["after"] = len(ctx.diomp.pointer_cache)

        run_spmd(w, prog)
        assert stats == {"before": 1, "after": 0}

    def test_zero_byte_rank_allowed(self):
        w, rt = make(nodes=1)

        def prog(ctx):
            a = ctx.diomp.alloc_asymmetric(1024 if ctx.rank == 0 else 0)
            if ctx.rank == 0:
                assert a.data is not None
            else:
                assert a.data is None
                with pytest.raises(Exception):
                    a.memref()

        run_spmd(w, prog)

    def test_rma_beyond_remote_size_rejected(self):
        w, rt = make(nodes=1)

        def prog(ctx):
            a = ctx.diomp.alloc_asymmetric(64 if ctx.rank == 0 else 32)
            ctx.diomp.barrier()
            if ctx.rank == 1:
                dst = np.zeros(64, dtype=np.uint8)
                ctx.diomp.get(0, a, MemRef.host(ctx.node, dst))  # ok: rank0 has 64
                ctx.diomp.fence()
            if ctx.rank == 0:
                dst = np.zeros(64, dtype=np.uint8)
                ctx.diomp.get(1, a, MemRef.host(ctx.node, dst))  # rank1 only has 32

        with pytest.raises(CommunicationError, match="asymmetric block"):
            run_spmd(w, prog)

    def test_typed_after_free_rejected(self):
        """Use-after-free: typed views of a freed buffer must fail
        loudly, not silently alias released memory."""
        from repro.util.errors import AllocationError

        w, rt = make(nodes=1)

        def prog(ctx):
            a = ctx.diomp.alloc_asymmetric(256)
            ctx.diomp.barrier()
            view = a.typed(np.uint8)  # fine before the free
            assert view.size == 256
            ctx.diomp.free_asymmetric(a)
            with pytest.raises(AllocationError, match="freed"):
                a.typed(np.uint8)

        run_spmd(w, prog)

    def test_rma_to_null_second_level_pointer_rejected(self):
        """A rank that allocated zero bytes publishes a NULL data
        pointer; even a zero-byte RMA to it must be rejected instead of
        fabricating address 0 + offset."""
        w, rt = make(nodes=1)

        def prog(ctx):
            a = ctx.diomp.alloc_asymmetric(64 if ctx.rank == 0 else 0)
            ctx.diomp.barrier()
            if ctx.rank == 0:
                dst = np.zeros(0, dtype=np.uint8)
                ctx.diomp.get(1, a, MemRef.host(ctx.node, dst))

        with pytest.raises(CommunicationError, match="no data block"):
            run_spmd(w, prog)


class TestOmpTargetIntegration:
    def test_mapped_data_lands_in_segment(self):
        w, rt = make(nodes=1)
        out = {}

        def prog(ctx):
            from repro.omptarget import Map, MapType

            if ctx.rank != 0:
                return
            arr = np.arange(16, dtype=np.float64)
            ctx.diomp.omp.target_enter_data([Map(arr, MapType.TO)])
            seg = ctx.diomp.segment(0)
            addr = ctx.diomp.omp.use_device_ptr(arr)
            out["in_segment"] = seg.base <= addr < seg.base + seg.size
            out["avoided"] = ctx.diomp.plugin.registrations_avoided

        run_spmd(w, prog)
        assert out["in_segment"]
        assert out["avoided"] == 1

    def test_mapped_data_remotely_accessible(self):
        """The Fig. 1b zero-copy property: another rank can ompx_get
        OpenMP-mapped memory directly, no extra registration."""
        w, rt = make(nodes=1)
        out = {}
        addr_box = {}

        def prog(ctx):
            from repro.omptarget import Map, MapType

            arr = np.full(8, float(ctx.rank + 1))
            ctx.diomp.omp.target_enter_data([Map(arr, MapType.TO)])
            if ctx.rank == 1:
                addr_box["addr"] = ctx.diomp.omp.use_device_ptr(arr)
            ctx.diomp.barrier()
            if ctx.rank == 0:
                dst = np.zeros(8)
                ctx.diomp.get(1, addr_box["addr"], MemRef.host(ctx.node, dst))
                ctx.diomp.fence()
                out["v"] = dst[0]
            ctx.diomp.barrier()

        run_spmd(w, prog)
        assert out["v"] == 2.0


class TestGroupScopedBarrier:
    def test_sub_group_barrier_spares_non_member_ops(self):
        """Regression: ``ompx_barrier(group)`` used to call ``fence()``
        with no group, draining every pending op — including a slow
        transfer to a rank outside the group — before releasing the
        barrier.  The scoped fence must leave non-member ops pending."""
        w, rt = make(segment_size=128 * MiB)
        out = {}

        def prog(ctx):
            big = ctx.diomp.alloc(32 * MiB, virtual=True)
            small = ctx.diomp.alloc(64, virtual=True)
            ctx.diomp.barrier()
            if ctx.rank < 4:
                sub = ctx.diomp.group_create([0, 1, 2, 3])
                if ctx.rank == 0:
                    # Slow inter-node put to a NON-member (rank 4) plus a
                    # small put to a member: only the latter is barrier
                    # scope.
                    ctx.diomp.put(4, big, big.memref())
                    ctx.diomp.put(1, small, small.memref())
                    assert ctx.diomp.rma.pending_ops == 2
                t0 = ctx.sim.now
                ctx.diomp.barrier(sub)
                if ctx.rank == 0:
                    out["barrier_time"] = ctx.sim.now - t0
                    out["pending_after_sub"] = ctx.diomp.rma.pending_ops
                    ctx.diomp.fence()  # full fence before shutdown
                    out["pending_after_full"] = ctx.diomp.rma.pending_ops
            ctx.world.global_barrier.wait()

        run_spmd(w, prog)
        # The 32 MiB transfer to rank 4 survived the sub-group barrier...
        assert out["pending_after_sub"] == 1
        # ...and the barrier did not wait out its ~ms wire time.
        assert out["barrier_time"] < 1e-3
        assert out["pending_after_full"] == 0

    def test_world_barrier_still_drains_everything(self):
        w, rt = make()
        out = {}

        def prog(ctx):
            g = ctx.diomp.alloc(64 * KiB, virtual=True)
            ctx.diomp.barrier()
            if ctx.rank == 0:
                ctx.diomp.put(4, g, g.memref())
            ctx.diomp.barrier()
            if ctx.rank == 0:
                out["pending"] = ctx.diomp.rma.pending_ops

        run_spmd(w, prog)
        assert out["pending"] == 0
