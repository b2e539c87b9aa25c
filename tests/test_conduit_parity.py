"""Conduit interface parity: the DiOMP runtime must be able to swap
GASNet-EX and GPI-2 freely, so both clients expose the same surface
and equivalent semantics."""

import gc
import weakref

import numpy as np
import pytest

from repro.cluster import MemRef, World, run_spmd
from repro.core import DiompParams, DiompRuntime
from repro.faults import FaultPlan, FaultSpec
from repro.gasnet import GasnetConduit
from repro.gpi2 import Gpi2Conduit
from repro.hardware import platform_c
from repro.util.errors import FatalError
from repro.util.units import KiB

INTERFACE = [
    "attach_segment",
    "attach_space_segment",
    "put_nb",
    "get_nb",
    "sync_all",
    "pending_count",
    "register_handler",
    "am_request",
]


class TestInterfaceParity:
    @pytest.mark.parametrize("attr", INTERFACE)
    def test_both_clients_expose(self, attr):
        w = World(platform_c(), num_nodes=2)
        for conduit in (GasnetConduit(w), Gpi2Conduit(w)):
            assert hasattr(conduit.client(0), attr), (type(conduit), attr)

    @pytest.mark.parametrize("conduit_cls", [GasnetConduit, Gpi2Conduit])
    def test_put_get_roundtrip_identical_semantics(self, conduit_cls):
        w = World(platform_c(), num_nodes=2)
        conduit = conduit_cls(w)
        bufs = []
        for ctx in w.ranks:
            b = ctx.device.malloc(1 * KiB)
            conduit.client(ctx.rank).attach_segment(MemRef.device(b))
            bufs.append(b)
        out = {}

        def prog(ctx):
            client = conduit.client(ctx.rank)
            if ctx.rank == 0:
                local = ctx.device.malloc(1 * KiB)
                local.as_array(np.uint8)[:] = 42
                client.put_nb(1, bufs[1].address, MemRef.device(local)).wait()
                back = ctx.device.malloc(1 * KiB)
                client.get_nb(1, bufs[1].address, MemRef.device(back)).wait()
                out["roundtrip"] = int(back.as_array(np.uint8)[0])
            ctx.world.global_barrier.wait()

        run_spmd(w, prog)
        assert out["roundtrip"] == 42

    @pytest.mark.parametrize("conduit_cls", [GasnetConduit, Gpi2Conduit])
    def test_am_request_reply_parity(self, conduit_cls):
        w = World(platform_c(), num_nodes=2)
        conduit = conduit_cls(w)
        out = {}

        def prog(ctx):
            client = conduit.client(ctx.rank)
            client.register_handler("negate", lambda src, x: -x)
            ctx.world.global_barrier.wait()
            if ctx.rank == 0:
                out["reply"] = client.am_request(1, "negate", 17).wait()
            ctx.world.global_barrier.wait()

        run_spmd(w, prog)
        assert out["reply"] == -17

    def test_runtime_behaviour_equivalent_across_conduits(self):
        """The same DiOMP program produces identical data and close
        timing on either conduit."""
        results = {}
        for conduit in ("gasnet", "gpi2"):
            w = World(platform_c(), num_nodes=4)
            DiompRuntime(w, DiompParams(conduit=conduit))
            final = {}

            def prog(ctx):
                g = ctx.diomp.alloc(4 * KiB)
                g.typed(np.int32)[:] = ctx.rank
                ctx.diomp.barrier()
                ctx.diomp.put(
                    (ctx.rank + 1) % ctx.nranks, g, g.memref(), target_offset=0
                )
                ctx.diomp.fence()
                ctx.diomp.barrier()
                final[ctx.rank] = g.typed(np.int32)[0]
                return ctx.sim.now

            res = run_spmd(w, prog)
            results[conduit] = (dict(final), max(res.results))
        gas_data, gas_t = results["gasnet"]
        gpi_data, gpi_t = results["gpi2"]
        assert gas_data == gpi_data  # identical data movement
        assert gas_t == pytest.approx(gpi_t, rel=0.25)  # similar timing

    @pytest.mark.parametrize("conduit_cls", [GasnetConduit, Gpi2Conduit])
    def test_space_segment_parity(self, conduit_cls):
        w = World(platform_c(), num_nodes=2)
        conduit = conduit_cls(w)
        spaces = {}
        for ctx in w.ranks:
            base = ctx.device.memory.reserve(64 * KiB)
            conduit.client(ctx.rank).attach_space_segment(
                ctx.device.memory, base, 64 * KiB
            )
            spaces[ctx.rank] = (ctx.device.memory, base)
        out = {}

        def prog(ctx):
            if ctx.rank == 1:
                mem, base = spaces[1]
                buf = mem.allocate_at(base + 1024, 256)
                buf.as_array(np.uint8)[:] = 9
                out["addr"] = buf.address
            ctx.world.global_barrier.wait()
            if ctx.rank == 0:
                dst = ctx.device.malloc(256)
                conduit.client(0).get_nb(1, out["addr"], MemRef.device(dst)).wait()
                out["v"] = int(dst.as_array(np.uint8)[0])
            ctx.world.global_barrier.wait()

        run_spmd(w, prog)
        assert out["v"] == 9


def _two_node_conduit(conduit_cls, faults=None):
    """One rank per node, a 1 KiB device segment on each."""
    w = World(platform_c(), num_nodes=2, ranks_per_node=1, faults=faults)
    conduit = conduit_cls(w)
    bufs = []
    for ctx in w.ranks:
        buf = ctx.device.malloc(1 * KiB)
        conduit.client(ctx.rank).attach_segment(MemRef.device(buf))
        bufs.append(buf)
    return w, conduit, bufs


class TestFlushSemantics:
    @pytest.mark.parametrize("conduit_cls", [GasnetConduit, Gpi2Conduit])
    @pytest.mark.parametrize("fails", ["before_flush", "during_flush"])
    def test_flush_reports_exhausted_op(self, conduit_cls, fails):
        """A flush raises the terminal error of a put that exhausted its
        retries, whether the put gave up before the flush started or
        while the flush waited; the failure is reported exactly once."""
        plan = FaultPlan([FaultSpec(site="conduit.put", kind="transient")])
        w, conduit, bufs = _two_node_conduit(conduit_cls, faults=plan)
        out = {}

        def prog(ctx):
            if ctx.rank == 0:
                client = conduit.client(0)
                local = ctx.device.malloc(64)
                event = client.put_nb(1, bufs[1].address, MemRef.device(local))
                if fails == "before_flush":
                    ctx.sim.sleep(1.0)  # far past the last retry
                out["failed_before"] = event.failure is not None
                with pytest.raises(FatalError):
                    client.sync_all()
                out["pending"] = client.pending_count
                client.sync_all()  # already reported: nothing left

        run_spmd(w, prog)
        assert out == {
            "failed_before": fails == "before_flush",
            "pending": 0,
        }

    @pytest.mark.parametrize("conduit_cls", [GasnetConduit, Gpi2Conduit])
    def test_completed_ops_are_not_retained(self, conduit_cls):
        """A client keeps no handle of an op that completed: after many
        waited puts only the caller's last handle is alive."""
        w, conduit, bufs = _two_node_conduit(conduit_cls)
        refs = []

        def prog(ctx):
            if ctx.rank == 0:
                client = conduit.client(0)
                local = MemRef.device(ctx.device.malloc(64))
                for _ in range(200):
                    event = client.put_nb(1, bufs[1].address, local)
                    event.wait()
                    refs.append(weakref.ref(event))

        run_spmd(w, prog)
        gc.collect()
        assert len(refs) == 200
        assert sum(ref() is not None for ref in refs) <= 1
        assert conduit.client(0).pending_count == 0
