"""End-to-end integration scenarios crossing the full stack."""

import numpy as np

from repro.cluster import MemRef, World, run_spmd
from repro.core import DiompParams, DiompRuntime
from repro.device.kernel import KernelCost
from repro.hardware import platform_a, platform_b, platform_c
from repro.mpi import MpiWorld
from repro.mpi import collectives as mpi_coll
from repro.omptarget import Map, MapType, TargetTaskQueue, host_parallel_for
from repro.util.units import KiB, MiB


class TestPipelineScenario:
    def test_map_compute_communicate_reduce(self):
        """The full DiOMP workflow on 2 nodes: map host data to the
        devices, run a target region, exchange results one-sided, then
        reduce a checksum over OMPCCL — everything verified."""
        w = World(platform_a(with_quirk=False), num_nodes=2)
        DiompRuntime(w)
        out = {}

        def prog(ctx):
            diomp = ctx.diomp
            n = 64
            # Host data, mapped into the (segment-backed) device space.
            host = np.full(n, float(ctx.rank), dtype=np.float64)
            diomp.omp.target(
                "square-plus-rank",
                KernelCost(flops=n * 2.0, bytes_moved=n * 16.0),
                maps=[Map(host, MapType.TOFROM)],
                body=lambda v: v.__imul__(2.0),
            )
            # Publish through a symmetric buffer and rotate one-sided.
            outbox = diomp.alloc(n * 8)
            inbox = diomp.alloc(n * 8)
            outbox.typed(np.float64)[:] = host
            diomp.barrier()
            diomp.put((ctx.rank + 1) % ctx.nranks, inbox, outbox.memref())
            diomp.fence()
            diomp.barrier()
            received = inbox.typed(np.float64)[0]
            # Checksum-reduce over OMPCCL.
            send = diomp.alloc(8)
            recv = diomp.alloc(8)
            send.typed(np.float64)[:] = received
            diomp.barrier()
            diomp.allreduce(send, recv)
            out[ctx.rank] = (received, recv.typed(np.float64)[0])

        run_spmd(w, prog)
        # received = 2 * left_rank; total = 2 * sum(0..7) = 56
        for r in range(8):
            assert out[r][0] == 2.0 * ((r - 1) % 8)
            assert out[r][1] == 56.0

    def test_deferred_tasks_feed_rma(self):
        """Target tasks produce data that is then pushed one-sided —
        the §5 task-parallel extension composed with the PGAS core."""
        w = World(platform_a(with_quirk=False), num_nodes=1)
        DiompRuntime(w)
        out = {}

        def prog(ctx):
            diomp = ctx.diomp
            q = TargetTaskQueue(diomp.omp)
            a = np.zeros(8)
            b = np.zeros(8)
            small = KernelCost(flops=1e6, bytes_moved=0)
            q.submit(
                "produce",
                small,
                maps=[Map(a, MapType.TOFROM)],
                body=lambda v: v.__iadd__(ctx.rank + 1),
                depends_out=[a],
            )
            q.submit(
                "double",
                small,
                maps=[Map(a, MapType.TO), Map(b, MapType.FROM)],
                body=lambda va, vb: vb.__iadd__(va * 2),
                depends_in=[a],
                depends_out=[b],
            )
            q.taskwait()
            gbuf = diomp.alloc(64)
            diomp.barrier()
            if ctx.rank == 0:
                diomp.put(2, gbuf, MemRef.host(ctx.node, b))
                diomp.fence()
            diomp.barrier()
            out[ctx.rank] = gbuf.typed(np.float64)[0]

        run_spmd(w, prog)
        assert out[2] == 2.0  # rank 0's (0+1)*2 landed in rank 2

    def test_host_and_device_work_overlap_model(self):
        """Host parallel-for runs while a nowait target region executes
        (the CPU+GPU coordination §3.3 argues for)."""
        w = World(platform_a(with_quirk=False), num_nodes=1, devices_per_rank=4)
        DiompRuntime(w)
        out = {}

        def prog(ctx):
            if ctx.rank != 0:
                return
            cost = KernelCost(flops=5e10, bytes_moved=0)  # ~6 ms
            region = ctx.diomp.omp.target("kernel", cost, nowait=True)
            host_time = host_parallel_for(ctx, 10**7, 20.0)  # uses 64 cores
            ctx.diomp.omp.finish_nowait(region)
            out["elapsed"] = ctx.sim.now
            out["host_time"] = host_time

        run_spmd(w, prog)
        gpu_time = KernelCost(flops=5e10, bytes_moved=0).duration_on(
            platform_a().node.gpu
        )
        # Overlapped: total is ~max(host, gpu), not their sum.
        assert out["elapsed"] < 1.2 * max(out["host_time"], gpu_time)


class TestMixedStacks:
    def test_diomp_and_mpi_coexist(self):
        """Both runtimes installed on one world (as during incremental
        porting): MPI collectives and DiOMP RMA interleave safely."""
        w = World(platform_a(with_quirk=False), num_nodes=2)
        DiompRuntime(w)
        mpi = MpiWorld(w)
        out = {}

        def prog(ctx):
            comm = mpi.comm_world(ctx.rank)
            g = ctx.diomp.alloc(64)
            g.typed(np.float64)[:] = float(ctx.rank)
            ctx.diomp.barrier()
            if ctx.rank == 0:
                ctx.diomp.put(7, g, g.memref())
                ctx.diomp.fence()
            # An MPI allreduce right after one-sided traffic.
            send = np.array([1.0])
            recv = np.zeros(1)
            mpi_coll.allreduce(
                comm, MemRef.host(ctx.node, send), MemRef.host(ctx.node, recv), np.float64
            )
            ctx.diomp.barrier()
            out[ctx.rank] = (g.typed(np.float64)[0], recv[0])

        run_spmd(w, prog)
        assert out[7][0] == 0.0  # DiOMP put landed
        assert all(v[1] == 8.0 for v in out.values())  # MPI reduce correct

    def test_gpi2_backend_full_workflow(self):
        """The complete DiOMP workflow on the GPI-2 conduit (IB)."""
        w = World(platform_c(), num_nodes=4)
        DiompRuntime(w, DiompParams(conduit="gpi2"))
        out = {}

        def prog(ctx):
            g = ctx.diomp.alloc(1 * KiB)
            g.typed(np.int32)[:] = ctx.rank
            ctx.diomp.barrier()
            if ctx.rank == 0:
                dst = np.zeros(256, dtype=np.int32)
                ctx.diomp.get(3, g, MemRef.host(ctx.node, dst))
                ctx.diomp.fence()
                out["v"] = dst[0]
            ctx.diomp.barrier()

        run_spmd(w, prog)
        assert out["v"] == 3

    def test_platform_b_gcd_workflow(self):
        """Full stack on the MI250X platform: 8 GCDs per node, xGMI
        two-tier wiring, RCCL collectives."""
        w = World(platform_b(), num_nodes=2)
        DiompRuntime(w)
        out = {}

        def prog(ctx):
            g = ctx.diomp.alloc(8)
            r = ctx.diomp.alloc(8)
            g.typed(np.float64)[:] = 1.0
            ctx.diomp.barrier()
            ctx.diomp.allreduce(g, r)
            out[ctx.rank] = r.typed(np.float64)[0]

        run_spmd(w, prog)
        assert all(v == 16.0 for v in out.values())


class TestScaleAndStress:
    def test_sixty_four_rank_barrier_storm(self):
        """16 nodes x 4 GPUs: repeated global barriers stay consistent."""
        w = World(platform_a(with_quirk=False), num_nodes=16)
        DiompRuntime(w)
        counters = []

        def prog(ctx):
            for i in range(5):
                ctx.diomp.barrier()
                counters.append((i, ctx.rank))

        run_spmd(w, prog)
        # All of round i happens before any of round i+1.
        rounds = [i for i, _r in counters]
        assert rounds == sorted(rounds)

    def test_many_small_allocs_and_frees(self):
        w = World(platform_a(with_quirk=False), num_nodes=1)
        DiompRuntime(w)

        def prog(ctx):
            live = []
            for i in range(20):
                live.append(ctx.diomp.alloc(256 * (i % 4 + 1)))
                if len(live) > 3:
                    ctx.diomp.free(live.pop(0))
            for g in live:
                ctx.diomp.free(g)
            assert ctx.diomp.runtime.sym_heaps[0].live_allocations == 0

        run_spmd(w, prog)

    def test_fence_with_mixed_paths(self):
        """One fence drains intra-node IPC ops and inter-node conduit
        ops together (the hybrid polling loop's reason to exist)."""
        w = World(platform_a(with_quirk=False), num_nodes=2)
        DiompRuntime(w)
        stats = {}

        def prog(ctx):
            g = ctx.diomp.alloc(1 * MiB, virtual=True)
            ctx.diomp.barrier()
            if ctx.rank == 0:
                ctx.diomp.put(1, g, g.memref())  # NVLink / IPC
                ctx.diomp.put(4, g, g.memref())  # Slingshot / conduit
                ctx.diomp.put(2, g, g.memref())  # NVLink / IPC
                iters = ctx.diomp.rma.fence()
                stats["iters"] = iters
                stats["pending"] = ctx.diomp.rma.pending_ops
            ctx.diomp.barrier()

        run_spmd(w, prog)
        assert stats["pending"] == 0
        assert stats["iters"] >= 1
