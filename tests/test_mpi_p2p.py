"""Tests for mini-MPI two-sided point-to-point communication."""

import numpy as np
import pytest

from repro.cluster import MemRef, World, run_spmd
from repro.hardware import platform_a
from repro.mpi import ANY_SOURCE, ANY_TAG, MpiParams, MpiWorld, waitall
from repro.util.errors import CommunicationError
from repro.util.units import KiB, MiB


def make_mpi(nodes=2, params=None):
    w = World(platform_a(with_quirk=False), num_nodes=nodes)
    return w, MpiWorld(w, params)


def href(ctx, arr):
    return MemRef.host(ctx.node, arr)


class TestBlockingSendRecv:
    def test_eager_roundtrip(self):
        w, mpi = make_mpi()
        out = {}

        def prog(ctx):
            comm = mpi.comm_world(ctx.rank)
            if ctx.rank == 0:
                data = np.arange(100, dtype=np.int32)
                comm.send(href(ctx, data), dest=1, tag=7)
            elif ctx.rank == 1:
                buf = np.zeros(100, dtype=np.int32)
                status = comm.recv(href(ctx, buf), source=0, tag=7)
                out["data"] = buf.copy()
                out["status"] = status

        run_spmd(w, prog)
        np.testing.assert_array_equal(out["data"], np.arange(100, dtype=np.int32))
        assert out["status"][0] == 0 and out["status"][1] == 7

    def test_rendezvous_roundtrip(self):
        w, mpi = make_mpi()
        size = 256 * KiB  # above eager threshold
        out = {}

        def prog(ctx):
            comm = mpi.comm_world(ctx.rank)
            if ctx.rank == 0:
                data = np.full(size, 7, dtype=np.uint8)
                comm.send(href(ctx, data), dest=1)
            elif ctx.rank == 1:
                buf = np.zeros(size, dtype=np.uint8)
                comm.recv(href(ctx, buf), source=0)
                out["ok"] = bool((buf == 7).all())

        run_spmd(w, prog)
        assert out["ok"]

    def test_send_before_recv_posted(self):
        """Unexpected-message queue: the send arrives first."""
        w, mpi = make_mpi()
        out = {}

        def prog(ctx):
            comm = mpi.comm_world(ctx.rank)
            if ctx.rank == 0:
                comm.send(href(ctx, np.array([42], dtype=np.int64)), dest=1)
            elif ctx.rank == 1:
                ctx.sim.sleep(1e-3)  # let the message arrive unexpected
                buf = np.zeros(1, dtype=np.int64)
                comm.recv(href(ctx, buf), source=0)
                out["v"] = buf[0]

        run_spmd(w, prog)
        assert out["v"] == 42

    def test_recv_before_send_posted(self):
        w, mpi = make_mpi()
        out = {}

        def prog(ctx):
            comm = mpi.comm_world(ctx.rank)
            if ctx.rank == 1:
                buf = np.zeros(1, dtype=np.int64)
                comm.recv(href(ctx, buf), source=0)
                out["v"] = buf[0]
            elif ctx.rank == 0:
                ctx.sim.sleep(1e-3)
                comm.send(href(ctx, np.array([9], dtype=np.int64)), dest=1)

        run_spmd(w, prog)
        assert out["v"] == 9

    def test_message_ordering_same_source_tag(self):
        """Messages from one source with one tag arrive in order."""
        w, mpi = make_mpi()
        out = []

        def prog(ctx):
            comm = mpi.comm_world(ctx.rank)
            if ctx.rank == 0:
                for i in range(5):
                    comm.send(href(ctx, np.array([i], dtype=np.int32)), dest=1, tag=3)
            elif ctx.rank == 1:
                for _ in range(5):
                    buf = np.zeros(1, dtype=np.int32)
                    comm.recv(href(ctx, buf), source=0, tag=3)
                    out.append(int(buf[0]))

        run_spmd(w, prog)
        assert out == [0, 1, 2, 3, 4]

    def test_overflow_rejected(self):
        w, mpi = make_mpi()

        def prog(ctx):
            comm = mpi.comm_world(ctx.rank)
            if ctx.rank == 0:
                comm.send(href(ctx, np.zeros(100, dtype=np.uint8)), dest=1)
            elif ctx.rank == 1:
                comm.recv(href(ctx, np.zeros(10, dtype=np.uint8)), source=0)

        with pytest.raises(CommunicationError, match="overflow"):
            run_spmd(w, prog)

    @pytest.mark.parametrize("recv_first", [True, False])
    def test_virtual_payload_into_real_buffer_rejected(self, recv_first):
        # An eager message from a virtual buffer carries no bytes; a
        # real receive buffer would otherwise keep its stale contents.
        w, mpi = make_mpi(nodes=1)

        def prog(ctx):
            comm = mpi.comm_world(ctx.rank)
            if ctx.rank == 0:
                if recv_first:
                    ctx.sim.sleep(1e-3)
                comm.send(MemRef.device(ctx.device.malloc(64, virtual=True)), dest=1)
            elif ctx.rank == 1:
                if not recv_first:
                    ctx.sim.sleep(1e-3)
                comm.recv(href(ctx, np.full(8, 7.0)), source=0)

        with pytest.raises(CommunicationError, match="virtual payload received into real"):
            run_spmd(w, prog)


class TestWildcards:
    def test_any_source(self):
        w, mpi = make_mpi()
        out = {}

        def prog(ctx):
            comm = mpi.comm_world(ctx.rank)
            if ctx.rank == 3:
                comm.send(href(ctx, np.array([33], dtype=np.int32)), dest=0, tag=5)
            elif ctx.rank == 0:
                buf = np.zeros(1, dtype=np.int32)
                src, tag, _ = comm.recv(href(ctx, buf), source=ANY_SOURCE, tag=5)
                out["src"] = src

        run_spmd(w, prog)
        assert out["src"] == 3

    def test_any_tag(self):
        w, mpi = make_mpi()
        out = {}

        def prog(ctx):
            comm = mpi.comm_world(ctx.rank)
            if ctx.rank == 1:
                comm.send(href(ctx, np.array([1], dtype=np.int8)), dest=0, tag=99)
            elif ctx.rank == 0:
                buf = np.zeros(1, dtype=np.int8)
                _, tag, _ = comm.recv(href(ctx, buf), source=1, tag=ANY_TAG)
                out["tag"] = tag

        run_spmd(w, prog)
        assert out["tag"] == 99

    def test_tag_selectivity(self):
        """A recv with tag=2 must not match a tag=1 message."""
        w, mpi = make_mpi()
        order = []

        def prog(ctx):
            comm = mpi.comm_world(ctx.rank)
            if ctx.rank == 0:
                comm.send(href(ctx, np.array([1], dtype=np.int8)), dest=1, tag=1)
                comm.send(href(ctx, np.array([2], dtype=np.int8)), dest=1, tag=2)
            elif ctx.rank == 1:
                buf = np.zeros(1, dtype=np.int8)
                comm.recv(href(ctx, buf), source=0, tag=2)
                order.append(int(buf[0]))
                comm.recv(href(ctx, buf), source=0, tag=1)
                order.append(int(buf[0]))

        run_spmd(w, prog)
        assert order == [2, 1]


class TestNonBlocking:
    def test_isend_irecv_waitall(self):
        w, mpi = make_mpi()
        out = {}

        def prog(ctx):
            comm = mpi.comm_world(ctx.rank)
            if ctx.rank == 0:
                reqs = [
                    comm.isend(href(ctx, np.array([i], dtype=np.int32)), dest=1, tag=i)
                    for i in range(4)
                ]
                waitall(reqs)
            elif ctx.rank == 1:
                bufs = [np.zeros(1, dtype=np.int32) for _ in range(4)]
                reqs = [
                    comm.irecv(href(ctx, bufs[i]), source=0, tag=i) for i in range(4)
                ]
                waitall(reqs)
                out["vals"] = [int(b[0]) for b in bufs]

        run_spmd(w, prog)
        assert out["vals"] == [0, 1, 2, 3]

    def test_request_test_transitions(self):
        w, mpi = make_mpi()
        seen = []

        def prog(ctx):
            comm = mpi.comm_world(ctx.rank)
            if ctx.rank == 1:
                buf = np.zeros(1 * MiB, dtype=np.uint8)
                req = comm.irecv(href(ctx, buf), source=0)
                seen.append(req.test())
                req.wait()
                seen.append(req.test())
            elif ctx.rank == 0:
                comm.send(href(ctx, np.ones(1 * MiB, dtype=np.uint8)), dest=1)

        run_spmd(w, prog)
        assert seen == [False, True]

    def test_sendrecv_ring_no_deadlock(self):
        """All 8 ranks exchange simultaneously around a ring."""
        w, mpi = make_mpi()
        out = {}

        def prog(ctx):
            comm = mpi.comm_world(ctx.rank)
            right = (ctx.rank + 1) % comm.size
            left = (ctx.rank - 1) % comm.size
            send = np.array([ctx.rank], dtype=np.int32)
            recv = np.zeros(1, dtype=np.int32)
            comm.sendrecv(href(ctx, send), right, href(ctx, recv), left)
            out[ctx.rank] = int(recv[0])

        run_spmd(w, prog)
        assert out == {r: (r - 1) % 8 for r in range(8)}


class TestDeviceAware:
    def test_device_to_device_send(self):
        w, mpi = make_mpi()
        out = {}

        def prog(ctx):
            comm = mpi.comm_world(ctx.rank)
            if ctx.rank == 0:
                buf = ctx.device.malloc(128)
                buf.as_array(np.float64)[:] = 3.14
                comm.send(MemRef.device(buf), dest=4)
            elif ctx.rank == 4:
                buf = ctx.device.malloc(128)
                comm.recv(MemRef.device(buf), source=0)
                out["v"] = buf.as_array(np.float64).copy()

        run_spmd(w, prog)
        np.testing.assert_allclose(out["v"], 3.14)

    def test_intra_node_device_staging_data_path(self):
        """Classic MPI stages same-node device messages through host
        memory (two PCIe hops) — slower than the direct NVLink path
        and the reason DiOMP wins intra-node in §4.5.  Disabling the
        staging knob restores the direct path."""

        def time_pair(src, dst, staging):
            w = World(platform_a(with_quirk=False), num_nodes=2)
            mpi = MpiWorld(w, MpiParams(intra_node_device_staging=staging))
            size = 4 * MiB

            def prog(ctx):
                comm = mpi.comm_world(ctx.rank)
                if ctx.rank == src:
                    buf = ctx.device.malloc(size, virtual=True)
                    comm.send(MemRef.device(buf), dest=dst)
                elif ctx.rank == dst:
                    buf = ctx.device.malloc(size, virtual=True)
                    comm.recv(MemRef.device(buf), source=src)

            return run_spmd(w, prog).elapsed

        staged = time_pair(0, 1, staging=True)
        direct = time_pair(0, 1, staging=False)
        assert direct < staged  # NVLink beats two PCIe hops
        # Staging also touches the host links, not the NVLink pair.
        assert staged > time_pair(0, 4, staging=True) * 0.5  # same order  # NVLink vs Slingshot


class TestCommSplit:
    def test_split_into_halves(self):
        w, mpi = make_mpi()
        out = {}

        def prog(ctx):
            comm = mpi.comm_world(ctx.rank)
            color = ctx.rank // 4
            sub = comm.split(color, key=ctx.rank)
            out[ctx.rank] = (sub.rank, sub.size, color)

        run_spmd(w, prog)
        for r in range(8):
            assert out[r] == (r % 4, 4, r // 4)

    def test_split_subcomm_isolated_from_world(self):
        """Messages in a subcommunicator never match COMM_WORLD recvs."""
        w, mpi = make_mpi(nodes=1)
        out = {}

        def prog(ctx):
            comm = mpi.comm_world(ctx.rank)
            sub = comm.split(0, key=ctx.rank)  # everyone, same group
            if ctx.rank == 0:
                sub.send(href(ctx, np.array([5], dtype=np.int8)), dest=1, tag=0)
                comm.send(href(ctx, np.array([6], dtype=np.int8)), dest=1, tag=0)
            elif ctx.rank == 1:
                buf = np.zeros(1, dtype=np.int8)
                comm.recv(href(ctx, buf), source=0, tag=0)
                out["world"] = int(buf[0])
                sub.recv(href(ctx, buf), source=0, tag=0)
                out["sub"] = int(buf[0])

        run_spmd(w, prog)
        assert out == {"world": 6, "sub": 5}

    @staticmethod
    def _split_twice(nodes=1):
        """Split by parity into colors 0 and 4, then everyone into one
        color 0 with permuted keys; world rank 3 sends 11 on the first
        communicator and 22 on the second to world rank 1, which
        receives on the second first."""
        w, mpi = make_mpi(nodes=nodes)
        contexts, got = {}, {}

        def prog(ctx):
            comm = mpi.comm_world(ctx.rank)
            a = comm.split(4 * (ctx.rank % 2))
            b = comm.split(0, key=(0, 2, 3, 1)[ctx.rank])
            # Colors at and beyond nranks, one per rank.
            c = comm.split(ctx.rank + comm.size)
            contexts[ctx.rank] = (a.context_id, b.context_id, c.context_id)
            if ctx.rank == 3:
                a.send(href(ctx, np.array([11], dtype=np.int32)), dest=a.group.index(1))
                b.send(href(ctx, np.array([22], dtype=np.int32)), dest=b.group.index(1))
            elif ctx.rank == 1:
                buf = np.zeros(1, dtype=np.int32)
                b.recv(href(ctx, buf), source=b.group.index(3))
                got["b"] = int(buf[0])
                a.recv(href(ctx, buf), source=a.group.index(3))
                got["a"] = int(buf[0])

        run_spmd(w, prog)
        return mpi, contexts, got

    def test_split_contexts_distinct_and_isolated(self):
        mpi, contexts, got = self._split_twice()
        assert got == {"b": 22, "a": 11}
        # One context per (split, color): parity colors 0 and 4, the one
        # shared color of the second split, and four singleton colors.
        per_color = {}
        for rank, (a, b, c) in contexts.items():
            for comm_color, ctx_id in (
                (("a", 4 * (rank % 2)), a), (("b", 0), b), (("c", rank + 4), c)
            ):
                assert per_color.setdefault(comm_color, ctx_id) == ctx_id
        assert len(per_color) == 7
        assert len(set(per_color.values())) == 7
        assert 0 not in per_color.values()  # COMM_WORLD's context
        assert not mpi.rendezvous._points  # every split point was dropped

    def test_split_context_ids_repeat_across_worlds(self):
        _mpi, first, _got = self._split_twice()
        _mpi, second, _got = self._split_twice()
        assert first == second

    def test_negative_color_excluded(self):
        w, mpi = make_mpi(nodes=1)
        out = {}

        def prog(ctx):
            comm = mpi.comm_world(ctx.rank)
            color = 0 if ctx.rank < 2 else -1
            sub = comm.split(color, key=ctx.rank)
            out[ctx.rank] = None if sub is None else sub.size

        run_spmd(w, prog)
        assert out == {0: 2, 1: 2, 2: None, 3: None}
