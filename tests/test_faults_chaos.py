"""Integration tests for fault injection + recovery: seeded plans over
the DiOMP runtime, both conduits, Cannon, and an RMA shadow model."""

import numpy as np
import pytest

from repro.apps import CannonConfig, cannon_reference, run_cannon
from repro.cluster import MemRef, SpmdConfig, World, run_spmd
from repro.core import DiompRuntime, StreamPoolParams
from repro.faults import FaultPlan, FaultSpec, RetryPolicy
from repro.gasnet import GasnetConduit, GasnetParams
from repro.hardware import platform_a, platform_c
from repro.util.errors import FatalError
from repro.util.units import KiB, MiB


def two_rank_world(**kw):
    """Two ranks on two nodes: every put/get crosses the conduit."""
    return World(platform_a(with_quirk=False), num_nodes=2, ranks_per_node=1, **kw)


def four_rank_world(**kw):
    """Four ranks over two nodes: both conduit and intra-node paths."""
    return World(platform_a(with_quirk=False), num_nodes=2, ranks_per_node=2, **kw)


class TestRecoveryToSuccess:
    def test_transient_per_op_retried_to_success(self):
        """One injected transient per conduit op class (put/get/am);
        every operation recovers, data is exact, nothing gives up."""
        w = two_rank_world()
        DiompRuntime(w)
        plan = FaultPlan.transient_per_op(
            sites=("conduit.put", "conduit.get", "conduit.am"), seed=0
        )
        checks = {}

        def prog(ctx):
            ctx.diomp.client.register_handler(
                "echo", lambda src, payload: ("echo", src, payload)
            )
            g = ctx.diomp.alloc(64)
            view = g.typed(np.uint8)
            view[:] = np.full(64, ctx.rank + 1, dtype=np.uint8)
            ctx.diomp.barrier()
            if ctx.rank == 0:
                src = np.full(64, 9, dtype=np.uint8)
                ctx.diomp.put(1, g, MemRef.host(ctx.node, src))
                ctx.diomp.fence()
                dst = np.zeros(64, dtype=np.uint8)
                ctx.diomp.get(1, g, MemRef.host(ctx.node, dst))
                ctx.diomp.fence()
                checks["roundtrip"] = dst.copy()
                checks["reply"] = ctx.diomp.client.am_request(1, "echo", "ping").wait()
            ctx.diomp.barrier()

        run_spmd(w, prog, config=SpmdConfig(faults=plan))
        np.testing.assert_array_equal(checks["roundtrip"], np.full(64, 9, np.uint8))
        assert checks["reply"] == ("echo", 0, "ping")
        # Exactly one transient per op class was injected and retried.
        assert plan.injected == 3
        assert w.obs.value("faults.injected") == 3
        assert w.obs.value("conduit.retries") == 3
        assert w.obs.value("conduit.giveups") == 0

    def test_cannon_results_bit_identical_under_faults(self):
        """The acceptance experiment: Cannon on 4 ranks with one
        transient per data-moving site — results must be bit-identical
        to the fault-free run."""
        cfg = CannonConfig(n=32, execute=True)

        def assemble(world):
            res = run_cannon(world, cfg, impl="diomp")
            ordered = sorted(res.results, key=lambda r: r["rank"])
            return np.concatenate([r["C"] for r in ordered])

        clean = assemble(four_rank_world())
        plan = FaultPlan.transient_per_op(
            sites=("conduit.put", "rma.intra"), seed=42
        )
        faulted_world = four_rank_world(faults=plan)
        faulted = assemble(faulted_world)
        assert np.array_equal(clean, faulted)  # bit-identical
        np.testing.assert_allclose(faulted, cannon_reference(cfg, 4))
        assert faulted_world.obs.value("faults.injected") >= 2
        assert faulted_world.obs.value("conduit.retries") >= 2
        assert faulted_world.obs.value("conduit.giveups") == 0

    def test_drop_rescued_by_op_timeout(self):
        """A dropped completion event is recovered by the per-attempt
        timeout; puts are idempotent so the reissue is safe."""
        w = two_rank_world()
        plan = FaultPlan([FaultSpec(site="conduit.put", kind="drop", nth=1)])
        w.install_fault_plan(plan)
        conduit = GasnetConduit(
            w, GasnetParams(retry=RetryPolicy(op_timeout=1e-3))
        )
        bufs = []
        for ctx in w.ranks:
            buf = ctx.device.malloc(1 * KiB)
            conduit.client(ctx.rank).attach_segment(MemRef.device(buf))
            bufs.append(buf)
        data = np.arange(16, dtype=np.float64)

        def prog(ctx):
            if ctx.rank == 0:
                event = conduit.client(0).put_nb(
                    1, bufs[1].address, MemRef.host(ctx.node, data)
                )
                event.wait()

        run_spmd(w, prog)
        np.testing.assert_array_equal(
            bufs[1].as_array(np.float64, count=16), data
        )
        assert plan.injected == 1
        assert w.obs.value("conduit.timeouts") == 1

    def test_rank_stall_delays_initiator(self):
        """A rank.stall draw blocks the issuing rank in task context."""
        stall = 5e-3
        plan = FaultPlan(
            [FaultSpec(site="rank.stall", kind="stall", rank=0, latency=stall, nth=1)]
        )
        w = two_rank_world(faults=plan)
        DiompRuntime(w)

        def prog(ctx):
            g = ctx.diomp.alloc(64)
            ctx.diomp.barrier()
            if ctx.rank == 0:
                ctx.diomp.put(1, g, g.memref())
                ctx.diomp.fence()

        res = run_spmd(w, prog)
        assert plan.injected == 1
        assert res.elapsed >= stall

    def test_stream_sync_latency_injected(self):
        """stream.sync draws add latency to device synchronization."""
        lat = 2e-3
        plan = FaultPlan(
            [FaultSpec(site="stream.sync", kind="latency", latency=lat, nth=1)]
        )
        w = World(platform_a(with_quirk=False), num_nodes=1, faults=plan)

        def prog(ctx):
            if ctx.rank != 0:
                return
            stream = ctx.device.create_stream()
            stream.enqueue(1e-6)
            stream.synchronize()

        res = run_spmd(w, prog)
        assert plan.injected == 1
        assert res.elapsed >= lat


class TestUnrecoverable:
    def test_exhausted_retries_raise_fatal_at_fence(self):
        """A permanently failing link exhausts the retry budget; the
        fence surfaces FatalError (with the last transient as cause)."""
        w = two_rank_world()
        DiompRuntime(w)
        plan = FaultPlan([FaultSpec(site="conduit.put", kind="transient")])

        def prog(ctx):
            g = ctx.diomp.alloc(64)
            ctx.diomp.barrier()
            if ctx.rank == 0:
                src = np.ones(64, dtype=np.uint8)
                ctx.diomp.put(1, g, MemRef.host(ctx.node, src))
                ctx.diomp.fence()

        with pytest.raises(FatalError, match="giving up"):
            run_spmd(w, prog, config=SpmdConfig(faults=plan))
        assert w.obs.value("conduit.giveups") == 1
        assert w.obs.value("conduit.retries") > 0

    def test_fatal_fault_not_retried(self):
        """fatal=True injections skip the retry budget entirely."""
        w = two_rank_world()
        DiompRuntime(w)
        plan = FaultPlan(
            [FaultSpec(site="conduit.put", kind="transient", fatal=True, nth=1)]
        )

        def prog(ctx):
            g = ctx.diomp.alloc(64)
            ctx.diomp.barrier()
            if ctx.rank == 0:
                ctx.diomp.put(1, g, g.memref())
                ctx.diomp.fence()

        with pytest.raises(FatalError):
            run_spmd(w, prog, config=SpmdConfig(faults=plan))
        assert w.obs.value("conduit.retries") == 0

    def test_fence_drains_everything_before_raising(self):
        """A failed operation is a terminal state, not an early exit:
        the fence still drains the large put issued after it, then
        raises one aggregated FatalError for the epoch."""
        w = two_rank_world()
        DiompRuntime(w)
        plan = FaultPlan(
            [FaultSpec(site="conduit.put", kind="transient", fatal=True, nth=1)]
        )
        out = {}

        def prog(ctx):
            small = ctx.diomp.alloc(8)
            big = ctx.diomp.alloc(1 * MiB)
            ctx.diomp.barrier()
            if ctx.rank == 0:
                t0 = ctx.sim.now
                ctx.diomp.put(1, small, small.memref())
                src = np.full(1 * MiB, 7, dtype=np.uint8)
                ctx.diomp.put(1, big, MemRef.host(ctx.node, src))
                lands = ctx.diomp.rma._outstanding[-1].future
                try:
                    ctx.diomp.fence()
                except FatalError as exc:
                    out["error"] = exc
                out["fence_s"] = ctx.sim.now - t0
                out["big_landed"] = lands.fired and lands.error is None
                out["big_eta_s"] = lands.eta - t0
                out["pending"] = ctx.diomp.rma.pending_ops
            ctx.diomp.barrier()
            if ctx.rank == 1:
                out["data"] = big.typed(np.uint8).copy()

        run_spmd(w, prog, config=SpmdConfig(faults=plan))
        assert "ompx_fence: 1 unrecoverable operation(s)" in str(out["error"])
        assert out["big_landed"]
        assert out["fence_s"] >= out["big_eta_s"] > 20e-6
        assert out["pending"] == 0
        np.testing.assert_array_equal(out["data"], np.full(1 * MiB, 7, np.uint8))

    def test_stream_sync_fault_delays_fence(self):
        """The fence's stream synchronization draws the stream.sync
        site: one injected latency holds the fence for that latency
        (the intra-node copy drains meanwhile), then one more poll."""
        lat = 2e-3

        def fence_time(plan):
            w = World(platform_a(with_quirk=False), num_nodes=1, faults=plan)
            DiompRuntime(w)
            out = {}

            def prog(ctx):
                g = ctx.diomp.alloc(64 * KiB)
                ctx.diomp.barrier()
                if ctx.rank == 0:
                    ctx.diomp.put(1, g, g.memref())
                    t0 = ctx.sim.now
                    ctx.diomp.fence()
                    out["fence_s"] = ctx.sim.now - t0

            run_spmd(w, prog)
            return out["fence_s"]

        plan = FaultPlan(
            [FaultSpec(site="stream.sync", kind="latency", latency=lat, nth=1)]
        )
        base = fence_time(None)
        delayed = fence_time(plan)
        poll_cost = StreamPoolParams().poll_cost
        assert plan.injected == 1
        assert base < lat
        assert delayed == pytest.approx(poll_cost + lat + poll_cost, rel=1e-12)

    def test_gpi2_notify_failure_surfaces_to_waiter(self):
        """Exhausted notify retries fail the target's notification slot
        instead of deadlocking its waiter."""
        from repro.gpi2 import Gpi2Conduit

        plan = FaultPlan([FaultSpec(site="conduit.notify", kind="transient")])
        w = World(platform_c(), num_nodes=2, ranks_per_node=1, faults=plan)
        conduit = Gpi2Conduit(w)

        def prog(ctx):
            if ctx.rank == 0:
                conduit.client(0).notify(1, notification_id=7)
            else:
                conduit.client(1).notification(7).wait()

        with pytest.raises(FatalError):
            run_spmd(w, prog)
        assert w.obs.value("conduit.giveups") == 1


class TestChaos:
    """Randomized-but-seeded mixed plans: correctness must survive."""

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_cannon_correct_under_chaos(self, seed):
        plan = FaultPlan.chaos(seed=seed)
        w = four_rank_world(faults=plan)
        cfg = CannonConfig(n=32, execute=True)
        res = run_cannon(w, cfg, impl="diomp")
        ordered = sorted(res.results, key=lambda r: r["rank"])
        c = np.concatenate([r["C"] for r in ordered])
        np.testing.assert_allclose(c, cannon_reference(cfg, 4))
        assert w.obs.value("conduit.giveups") == 0

    @pytest.mark.parametrize("seed", [5, 11])
    def test_rma_schedule_matches_shadow_under_chaos(self, seed):
        """A deterministic put/get schedule across 8 ranks must land
        exactly as the numpy shadow model predicts, chaos or not."""
        import random

        BUF = 128
        rng = random.Random(seed)
        schedule = []
        for _ in range(6):
            initiator = rng.randrange(8)
            ops = []
            for _ in range(rng.randint(1, 3)):
                kind = rng.choice(["put", "get"])
                peer = rng.randrange(8)
                size = rng.randint(1, 32)
                ops.append(
                    (
                        kind,
                        peer,
                        size,
                        rng.randint(0, BUF - size),
                        rng.randint(0, BUF - size),
                    )
                )
            schedule.append((initiator, ops))

        shadow = [
            (np.arange(BUF, dtype=np.uint8) * (r + 1) % 251).copy() for r in range(8)
        ]
        for initiator, ops in schedule:
            for kind, peer, size, lo, ro in ops:
                if kind == "put":
                    shadow[peer][ro : ro + size] = shadow[initiator][lo : lo + size]
                else:
                    shadow[initiator][lo : lo + size] = shadow[peer][ro : ro + size]

        plan = FaultPlan.chaos(seed=seed, failure_probability=0.1)
        w = World(platform_a(with_quirk=False), num_nodes=2, faults=plan)
        DiompRuntime(w)
        final = {}

        def prog(ctx):
            g = ctx.diomp.alloc(BUF)
            view = g.typed(np.uint8)
            view[:] = np.arange(BUF, dtype=np.uint8) * (ctx.rank + 1) % 251
            ctx.diomp.barrier()
            for initiator, ops in schedule:
                if ctx.rank == initiator:
                    for kind, peer, size, lo, ro in ops:
                        if kind == "put":
                            ctx.diomp.put(
                                peer, g, g.memref(lo, size), target_offset=ro
                            )
                        else:
                            ctx.diomp.get(
                                peer, g, g.memref(lo, size), target_offset=ro
                            )
                        ctx.diomp.fence()
                ctx.diomp.barrier()
            final[ctx.rank] = view.copy()

        run_spmd(w, prog)
        for r in range(8):
            np.testing.assert_array_equal(final[r], shadow[r], err_msg=f"rank {r}")
        assert w.obs.value("conduit.giveups") == 0


class TestPlanWiring:
    def test_world_kwarg_arms_all_sites(self):
        plan = FaultPlan([FaultSpec(site="*", kind="latency", latency=1e-6)])
        w = World(platform_a(with_quirk=False), num_nodes=1, faults=plan)
        assert w.fault_plan is plan
        # Transfers are handed the world's plan per call; the shared
        # fabric stores none.
        assert not hasattr(w.fabric, "faults")
        w.transfer(w.topology.gpu(0, 0), w.topology.gpu(0, 1), 8)
        assert w.fabric.faults_injected == 1
        assert all(d.faults is plan for d in w.devices.values())
        assert all(d.default_stream.faults is plan for d in w.devices.values())

    def test_no_plan_means_no_recovery_metrics(self):
        """Without a plan the retry layer must stay out of the path."""
        w = two_rank_world()
        DiompRuntime(w)

        def prog(ctx):
            g = ctx.diomp.alloc(64)
            ctx.diomp.barrier()
            if ctx.rank == 0:
                ctx.diomp.put(1, g, g.memref())
                ctx.diomp.fence()

        run_spmd(w, prog)
        assert w.obs.value("faults.injected") == 0
        assert w.obs.value("conduit.retries") == 0
