"""Tests for mini-MPI collectives (all algorithm branches)."""

import numpy as np
import pytest

from repro.cluster import MemRef, World, run_spmd
from repro.hardware import platform_a
from repro.mpi import MpiParams, MpiWorld
from repro.mpi import collectives as coll
from repro.util.errors import CommunicationError
from repro.util.units import KiB, MiB


def make_mpi(nodes=2, **params):
    w = World(platform_a(with_quirk=False), num_nodes=nodes)
    return w, MpiWorld(w, MpiParams(**params) if params else None)


def href(ctx, arr):
    return MemRef.host(ctx.node, arr)


class TestBarrier:
    def test_barrier_synchronizes(self):
        w, mpi = make_mpi()
        after = []

        def prog(ctx):
            ctx.sim.sleep(ctx.rank * 1e-3)
            coll.barrier(mpi.comm_world(ctx.rank))
            after.append(ctx.sim.now)

        run_spmd(w, prog)
        assert max(after) - min(after) < 1e-4  # all release near-together
        assert min(after) >= 7e-3  # nobody leaves before the slowest arrives

    def test_single_rank_barrier(self):
        w = World(platform_a(), num_nodes=1, ranks_per_node=1, devices_per_rank=1)
        mpi = MpiWorld(w)
        run_spmd(w, lambda ctx: coll.barrier(mpi.comm_world(ctx.rank)))


class TestBcast:
    @pytest.mark.parametrize("count,desc", [(64, "binomial"), (256 * KiB, "vandegeijn")])
    def test_bcast_delivers_everywhere(self, count, desc):
        w, mpi = make_mpi()
        out = {}

        def prog(ctx):
            comm = mpi.comm_world(ctx.rank)
            data = np.zeros(count, dtype=np.float64)
            if ctx.rank == 2:
                data[:] = np.arange(count)
            coll.bcast(comm, href(ctx, data), root=2)
            out[ctx.rank] = data.copy()

        run_spmd(w, prog)
        for r in range(8):
            np.testing.assert_array_equal(out[r], np.arange(count, dtype=np.float64))

    def test_bad_root_rejected(self):
        w, mpi = make_mpi(nodes=1)

        def prog(ctx):
            coll.bcast(mpi.comm_world(ctx.rank), href(ctx, np.zeros(4)), root=77)

        with pytest.raises(CommunicationError, match="root"):
            run_spmd(w, prog)

    def test_long_bcast_faster_than_binomial_for_big_messages(self):
        """The van de Geijn branch must beat a forced binomial tree for
        big messages on a multi-node cluster (that is why the switch
        exists: the tree pays log(nodes) serial full-message NIC hops)."""
        size = 8 * MiB

        def run(threshold):
            w = World(platform_a(with_quirk=False), num_nodes=8)
            mpi = MpiWorld(w, MpiParams(bcast_long_threshold=threshold))

            def prog(ctx):
                comm = mpi.comm_world(ctx.rank)
                buf = ctx.device.malloc(size, virtual=True)
                coll.bcast(comm, MemRef.device(buf), root=0)

            return run_spmd(w, prog).elapsed

        assert run(threshold=512 * KiB) < run(threshold=size + 1)


class TestReduce:
    def test_sum_to_root(self):
        w, mpi = make_mpi()
        out = {}

        def prog(ctx):
            comm = mpi.comm_world(ctx.rank)
            send = np.full(16, float(ctx.rank), dtype=np.float64)
            recv = np.zeros(16, dtype=np.float64) if ctx.rank == 3 else None
            coll.reduce(
                comm,
                href(ctx, send),
                None if recv is None else href(ctx, recv),
                np.float64,
                root=3,
            )
            if ctx.rank == 3:
                out["v"] = recv.copy()

        run_spmd(w, prog)
        np.testing.assert_allclose(out["v"], sum(range(8)))

    def test_other_ops(self):
        w, mpi = make_mpi(nodes=1)
        out = {}

        def prog(ctx):
            comm = mpi.comm_world(ctx.rank)
            send = np.array([float(ctx.rank + 1)])
            recv = np.zeros(1) if ctx.rank == 0 else None
            coll.reduce(
                comm,
                href(ctx, send),
                None if recv is None else href(ctx, recv),
                np.float64,
                op=np.maximum,
                root=0,
            )
            if ctx.rank == 0:
                out["max"] = recv[0]

        run_spmd(w, prog)
        assert out["max"] == 4.0

    def test_root_without_buffer_rejected(self):
        w, mpi = make_mpi(nodes=1)

        def prog(ctx):
            coll.reduce(
                mpi.comm_world(ctx.rank), href(ctx, np.zeros(4)), None, np.float64
            )

        with pytest.raises(CommunicationError, match="receive buffer"):
            run_spmd(w, prog)


class TestAllreduce:
    @pytest.mark.parametrize("count", [16, 64 * 1024])  # both branches
    def test_sum_everywhere(self, count):
        w, mpi = make_mpi()
        out = {}

        def prog(ctx):
            comm = mpi.comm_world(ctx.rank)
            send = np.full(count, float(ctx.rank), dtype=np.float64)
            recv = np.zeros(count, dtype=np.float64)
            coll.allreduce(comm, href(ctx, send), href(ctx, recv), np.float64)
            out[ctx.rank] = recv.copy()

        run_spmd(w, prog)
        expected = float(sum(range(8)))
        for r in range(8):
            np.testing.assert_allclose(out[r], expected)

    def test_non_power_of_two_ranks(self):
        """Platform B single node with 3 ranks exercises the fold path."""
        w = World(platform_a(with_quirk=False), num_nodes=1, ranks_per_node=3)
        mpi = MpiWorld(w)
        out = {}

        def prog(ctx):
            comm = mpi.comm_world(ctx.rank)
            send = np.array([float(2**ctx.rank)])
            recv = np.zeros(1)
            coll.allreduce(comm, href(ctx, send), href(ctx, recv), np.float64)
            out[ctx.rank] = recv[0]

        run_spmd(w, prog)
        assert all(v == 7.0 for v in out.values())

    def test_size_mismatch_rejected(self):
        w, mpi = make_mpi(nodes=1)

        def prog(ctx):
            coll.allreduce(
                mpi.comm_world(ctx.rank),
                href(ctx, np.zeros(4)),
                href(ctx, np.zeros(8)),
                np.float64,
            )

        with pytest.raises(CommunicationError, match="equal size"):
            run_spmd(w, prog)

    def test_virtual_device_allreduce_times_only(self):
        """Paper-scale collectives: virtual device buffers run the full
        algorithm for timing without data."""
        w, mpi = make_mpi()

        def prog(ctx):
            comm = mpi.comm_world(ctx.rank)
            send = MemRef.device(ctx.device.malloc(4 * MiB, virtual=True))
            recv = MemRef.device(ctx.device.malloc(4 * MiB, virtual=True))
            coll.allreduce(comm, send, recv, np.float64)

        res = run_spmd(w, prog)
        assert res.elapsed > 0


class TestAllgather:
    def test_gathers_in_rank_order(self):
        w, mpi = make_mpi()
        out = {}

        def prog(ctx):
            comm = mpi.comm_world(ctx.rank)
            send = np.full(4, float(ctx.rank), dtype=np.float64)
            recv = np.zeros(4 * comm.size, dtype=np.float64)
            coll.allgather(comm, href(ctx, send), href(ctx, recv))
            out[ctx.rank] = recv.copy()

        run_spmd(w, prog)
        expected = np.repeat(np.arange(8, dtype=np.float64), 4)
        for r in range(8):
            np.testing.assert_array_equal(out[r], expected)

    def test_wrong_recv_size_rejected(self):
        w, mpi = make_mpi(nodes=1)

        def prog(ctx):
            coll.allgather(
                mpi.comm_world(ctx.rank),
                href(ctx, np.zeros(4)),
                href(ctx, np.zeros(4)),
            )

        with pytest.raises(CommunicationError, match="allgather"):
            run_spmd(w, prog)


class TestCountMismatch:
    """A rank passing a larger count than its peers overflows a peer's
    receive buffer, which fails the run (see docs/COLLECTIVES.md)."""

    @pytest.mark.parametrize("odd", [0, 2])
    @pytest.mark.parametrize("kind", ["allreduce", "bcast"])
    def test_larger_count_on_one_rank_raises(self, kind, odd):
        w, mpi = make_mpi(nodes=1)

        def prog(ctx):
            comm = mpi.comm_world(ctx.rank)
            data = np.ones(8 if ctx.rank == odd else 4)
            if kind == "allreduce":
                coll.allreduce(comm, href(ctx, data), href(ctx, np.zeros_like(data)), np.float64)
            else:
                coll.bcast(comm, href(ctx, data), root=0)

        with pytest.raises(
            CommunicationError, match="message of 64 bytes overflows receive buffer of 32 bytes"
        ):
            run_spmd(w, prog)


class TestBcastCount:
    """A root passing a smaller count than the other ranks is caught by
    the receivers it reaches, instead of leaving stale tails."""

    @pytest.mark.parametrize("count", [4, 256 * KiB])  # binomial, van de Geijn
    def test_smaller_root_count_raises(self, count):
        w, mpi = make_mpi(nodes=1)

        def prog(ctx):
            data = np.full(count // 2 if ctx.rank == 2 else count, 2.0)
            coll.bcast(mpi.comm_world(ctx.rank), href(ctx, data), root=2)

        with pytest.raises(
            CommunicationError, match=r"bcast root 2 sent \d+ bytes where rank \d expects \d+"
        ):
            run_spmd(w, prog)


#: mpi_collective_latency on 2 platform-A nodes (8 ranks), reps=2 after
#: one warm-up, as float.hex.  The sizes sit on each side of both
#: algorithm switches (bcast_long_threshold 512 KiB,
#: allreduce_long_threshold 256 KiB), eager and rendezvous.
PINNED_LATENCY = {
    ("bcast", 1 * KiB): "0x1.278b1c11ceb2cp-17",
    ("bcast", 128 * KiB): "0x1.ac82115385e75p-15",
    ("bcast", 384 * KiB): "0x1.bdec786c73124p-14",
    ("bcast", 1 * MiB): "0x1.5344773ae0c8ap-13",
    ("allreduce", 1 * KiB): "0x1.db52f1e84fb1bp-17",
    ("allreduce", 128 * KiB): "0x1.ac954f236b314p-15",
    ("allreduce", 384 * KiB): "0x1.ee6e49b06971ap-14",
    ("allreduce", 1 * MiB): "0x1.10f120c055e90p-12",
}


class TestPinnedTimings:
    @pytest.mark.parametrize("op,size", sorted(PINNED_LATENCY))
    def test_collective_latency_is_pinned(self, op, size):
        from repro.bench.collective import mpi_collective_latency

        t = mpi_collective_latency(platform_a(), 2, op, size, reps=2, warmup=1)
        assert t.hex() == PINNED_LATENCY[(op, size)]


class TestRealEqualsVirtual:
    """Reductions price the caller's buffers whether or not they hold
    data: real and virtual runs take the same per-rank time, and the
    real run computes numpy's answer."""

    def _run(self, kind, size, virtual, ranks_per_node):
        nodes = 2 if ranks_per_node == 2 else 1
        w = World(platform_a(with_quirk=False), num_nodes=nodes, ranks_per_node=ranks_per_node)
        mpi = MpiWorld(w)
        count = size // 8
        out = {}

        def prog(ctx):
            comm = mpi.comm_world(ctx.rank)
            send = MemRef.device(ctx.device.malloc(size, virtual=virtual))
            recv = MemRef.device(ctx.device.malloc(size, virtual=virtual))
            if not virtual:
                send.typed(np.float64)[:] = np.arange(count) * (ctx.rank + 1) + 0.25
            coll.barrier(comm)
            t0 = ctx.sim.now
            if kind == "allreduce":
                coll.allreduce(comm, send, recv, np.float64)
            else:
                coll.reduce(comm, send, recv if ctx.rank == 0 else None, np.float64)
            if not virtual and (kind == "allreduce" or ctx.rank == 0):
                out[ctx.rank] = recv.typed(np.float64).copy()
            return ctx.sim.now - t0

        times = run_spmd(w, prog).results
        return times, out, w.nranks

    @pytest.mark.parametrize(
        "kind,size,ranks_per_node",
        [
            ("allreduce", 1 * KiB, 2),  # recursive doubling, 2x2 ranks
            ("allreduce", 8 * MiB, 2),  # Rabenseifner, 2x2 ranks
            ("allreduce", 1 * KiB, 3),  # recursive doubling, 3-rank fold
            ("allreduce", 8 * MiB, 3),  # Rabenseifner, 3 ranks
            ("reduce", 8 * MiB, 2),
        ],
    )
    def test_real_and_virtual_price_alike(self, kind, size, ranks_per_node):
        real, out, nranks = self._run(kind, size, False, ranks_per_node)
        virtual, _, _ = self._run(kind, size, True, ranks_per_node)
        assert [t.hex() for t in real] == [t.hex() for t in virtual]
        contribs = [np.arange(size // 8) * (r + 1) + 0.25 for r in range(nranks)]
        expected = np.sum(contribs, axis=0)
        assert sorted(out) == (list(range(nranks)) if kind == "allreduce" else [0])
        for got in out.values():
            np.testing.assert_allclose(got, expected, rtol=1e-12)

    @pytest.mark.parametrize("kind", ["allreduce", "reduce"])
    def test_mixed_real_and_virtual_rejected(self, kind):
        w, mpi = make_mpi(nodes=1)

        def prog(ctx):
            send = MemRef.device(ctx.device.malloc(64))
            recv = MemRef.device(ctx.device.malloc(64, virtual=True))
            comm = mpi.comm_world(ctx.rank)
            if kind == "allreduce":
                coll.allreduce(comm, send, recv, np.float64)
            else:
                coll.reduce(comm, send, recv, np.float64)

        with pytest.raises(CommunicationError, match="real and virtual"):
            run_spmd(w, prog)

    def test_allreduce_size_must_divide_into_items(self):
        w, mpi = make_mpi(nodes=1)

        def prog(ctx):
            buf = ctx.device.malloc(300 * KiB + 4, virtual=True)
            coll.allreduce(
                mpi.comm_world(ctx.rank), MemRef.device(buf), MemRef.device(buf), np.float64
            )

        with pytest.raises(CommunicationError, match="not a multiple of float64 itemsize"):
            run_spmd(w, prog)
