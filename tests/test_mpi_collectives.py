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
