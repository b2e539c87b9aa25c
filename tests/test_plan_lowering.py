"""Plan lowering: hand-written vs plan-lowered apps on all backends.

The strong claims from the tentpole: plan-lowered Cannon and Minimod
are *bit-identical* to the hand-written implementations on GASNet-EX,
GPI-2 and the MPI baseline, and the optimized plan's modelled time
exactly equals the hand-written overlapped loop (the optimizer derives
the same schedule mechanically).
"""

import numpy as np
import pytest

from repro.apps.cannon import CannonConfig, run_cannon
from repro.apps.minimod import MinimodConfig, run_minimod
from repro.cluster import World
from repro.core.runtime import DiompParams, DiompRuntime
from repro.faults import FaultPlan, FaultSpec
from repro.hardware import platform_a, platform_c
from repro.plan import (
    Access,
    BufDecl,
    BufRef,
    CollSpec,
    CommPlan,
    Peer,
    PlanOp,
    cannon_plan,
    lower_plan,
    optimize_plan,
    run_cannon_plan,
    run_minimod_plan,
)
from repro.util.errors import ConfigurationError, FatalError, PlanVerificationError

CANNON = CannonConfig(n=32, execute=True)
MINIMOD = MinimodConfig(nx=48, ny=8, nz=8, steps=5, execute=True)


def gasnet_world():
    return World(platform_a(with_quirk=False), num_nodes=1)


def ib_world():
    """GPI-2 requires InfiniBand; platform C provides it (2 ranks)."""
    return World(platform_c(), num_nodes=2)


def gpi2_runtime(world, nbytes):
    """A hand-app runtime on the GPI-2 conduit (same sizing rule as
    the hand drivers' default)."""
    return DiompRuntime(
        world, DiompParams(conduit="gpi2", segment_size=6 * nbytes + (1 << 20))
    )


def by_rank(result, key):
    return [r[key] for r in sorted(result.results, key=lambda r: r["rank"])]


def cannon_stripe_bytes(cfg, nranks):
    return cfg.stripe(nranks) * cfg.n * cfg.itemsize


class TestCannonParity:
    def check(self, hand, planned, elapsed_equal=True):
        for c_hand, c_plan in zip(by_rank(hand, "C"), by_rank(planned, "C")):
            assert np.array_equal(c_hand, c_plan)
        if elapsed_equal:
            assert by_rank(hand, "elapsed") == by_rank(planned, "elapsed")

    def test_gasnet(self):
        hand = run_cannon(gasnet_world(), CANNON, impl="diomp")
        planned = run_cannon_plan(gasnet_world(), CANNON, backend="gasnet")
        self.check(hand, planned)

    def test_gasnet_naive_plan_matches_numerically(self):
        hand = run_cannon(gasnet_world(), CANNON, impl="diomp")
        planned = run_cannon_plan(
            gasnet_world(), CANNON, backend="gasnet", optimize=False
        )
        self.check(hand, planned, elapsed_equal=False)

    def test_gpi2(self):
        world = ib_world()
        nb = cannon_stripe_bytes(CANNON, world.nranks)
        hand = run_cannon(world, CANNON, impl="diomp", runtime=gpi2_runtime(world, nb))
        planned = run_cannon_plan(ib_world(), CANNON, backend="gpi2")
        self.check(hand, planned)

    def test_mpi(self):
        hand = run_cannon(gasnet_world(), CANNON, impl="mpi")
        planned = run_cannon_plan(gasnet_world(), CANNON, backend="mpi")
        self.check(hand, planned)


class TestMinimodParity:
    def check(self, hand, planned, elapsed_equal=True):
        for u_hand, u_plan in zip(by_rank(hand, "u"), by_rank(planned, "u")):
            assert np.array_equal(u_hand, u_plan)
        if elapsed_equal:
            assert by_rank(hand, "elapsed") == by_rank(planned, "elapsed")

    def test_gasnet_optimized_equals_hand_overlap(self):
        hand = run_minimod(gasnet_world(), MINIMOD, impl="diomp-overlap")
        planned = run_minimod_plan(gasnet_world(), MINIMOD, backend="gasnet")
        self.check(hand, planned)

    def test_gasnet_naive_plan_matches_hand_naive(self):
        # Leapfrog slab kernels produce the same bits as the in-place
        # stencil, so even naive-vs-naive is bit-identical (elapsed
        # differs: different loop structure).
        hand = run_minimod(gasnet_world(), MINIMOD, impl="diomp")
        planned = run_minimod_plan(
            gasnet_world(), MINIMOD, backend="gasnet", optimize=False
        )
        self.check(hand, planned, elapsed_equal=False)

    def test_gpi2(self):
        from repro.apps.minimod import _field_bytes

        world = ib_world()
        nb = _field_bytes(MINIMOD, MINIMOD.local_nx(world.nranks))
        hand = run_minimod(
            world, MINIMOD, impl="diomp-overlap", runtime=gpi2_runtime(world, nb)
        )
        planned = run_minimod_plan(ib_world(), MINIMOD, backend="gpi2")
        self.check(hand, planned)

    def test_mpi(self):
        hand = run_minimod(gasnet_world(), MINIMOD, impl="mpi")
        planned = run_minimod_plan(gasnet_world(), MINIMOD, backend="mpi")
        self.check(hand, planned, elapsed_equal=False)


class TestLoweringErrors:
    def test_unknown_backend(self):
        with pytest.raises(ConfigurationError, match="unknown lowering backend"):
            lower_plan(cannon_plan(CANNON, 4), "ucx", 4)

    def test_world_size_mismatch(self):
        prog = lower_plan(cannon_plan(CannonConfig(n=32), 8), "gasnet", 8)
        with pytest.raises(ConfigurationError, match="world has 4"):
            prog.run(gasnet_world())

    def test_unsound_plan_refused(self):
        bad = CommPlan(
            name="bad",
            steps=1,
            buffers=(BufDecl("X", 64),),
            body=(
                PlanOp(
                    op_id="p",
                    kind="put",
                    peer=Peer(-1),
                    src=Access(BufRef("GHOST"), 0, 8),
                    dst=Access(BufRef("X"), 0, 8),
                ),
            ),
        )
        with pytest.raises(PlanVerificationError, match="dangling"):
            lower_plan(bad, "gasnet", 4)


class TestMetrics:
    def test_pass_rewrites_and_op_count_exported(self):
        world = gasnet_world()
        run_minimod_plan(world, MINIMOD, backend="gasnet")
        reg = world.obs
        assert reg.value("plan.pass.rewrites", plan="minimod", rewrite="halo_expanded") == 8
        assert reg.value("plan.pass.rewrites", plan="minimod", rewrite="ops_coalesced") == 6
        assert (
            reg.value("plan.pass.rewrites", plan="minimod", rewrite="computes_overlapped")
            == 3
        )
        plan, _ = optimize_plan(minimod_plan_for(world.nranks))
        assert reg.value("plan.ops", plan="minimod", backend="gasnet") == plan.op_count()

    def test_naive_run_exports_no_rewrites(self):
        world = gasnet_world()
        run_cannon_plan(world, CANNON, backend="gasnet", optimize=False)
        assert world.obs.value("plan.ops", plan="cannon", backend="gasnet") == 6.0


def minimod_plan_for(nranks):
    from repro.plan import minimod_plan

    return minimod_plan(MINIMOD, nranks)


class TestSyntheticLowering:
    """Op kinds the apps don't exercise: allreduce, notify, prefetch."""

    def allreduce_plan(self):
        nbytes = 8 * 8

        def init_fn(ctx, bufs):
            bufs.array("S", np.float64)[:] = float(ctx.rank + 1)
            bufs.array("R", np.float64)[:] = 0.0

        def finish_fn(ctx, bufs, elapsed):
            return {
                "rank": ctx.rank,
                "elapsed": elapsed,
                "recv": bufs.array("R", np.float64).copy(),
            }

        return CommPlan(
            name="ar",
            steps=1,
            buffers=(BufDecl("S", nbytes, kind="local"), BufDecl("R", nbytes, kind="local")),
            body=(
                PlanOp(
                    op_id="ar",
                    kind="allreduce",
                    coll=CollSpec(
                        send=Access(BufRef("S"), 0, nbytes),
                        recv=Access(BufRef("R"), 0, nbytes),
                        dtype=np.float64,
                    ),
                ),
                PlanOp(op_id="bar", kind="barrier"),
            ),
            init_fn=init_fn,
            finish_fn=finish_fn,
            meta={"execute": True},
        )

    def test_allreduce_preselected_and_correct(self):
        world = gasnet_world()
        plan, stats = optimize_plan(self.allreduce_plan(), world=world)
        assert stats["collectives_preselected"] == 1
        algo = next(op for op in plan.body if op.kind == "allreduce").algo
        assert algo in ("ring", "tree", "hier_ring")
        result = lower_plan(plan, "gasnet", world.nranks).run(world)
        expected = float(sum(range(1, world.nranks + 1)))
        for recv in by_rank(result, "recv"):
            assert np.array_equal(recv, np.full(8, expected))

    def test_allreduce_mpi(self):
        world = gasnet_world()
        result = lower_plan(self.allreduce_plan(), "mpi", world.nranks).run(world)
        expected = float(sum(range(1, world.nranks + 1)))
        for recv in by_rank(result, "recv"):
            assert np.array_equal(recv, np.full(8, expected))

    def notify_plan(self):
        return CommPlan(
            name="nf",
            steps=1,
            buffers=(),
            body=(
                PlanOp(op_id="n", kind="notify", peer=Peer(+1), token=7),
                PlanOp(op_id="fence", kind="fence", after=("n",)),
                PlanOp(op_id="bar", kind="barrier"),
            ),
        )

    @pytest.mark.parametrize("backend", ["gasnet", "gpi2", "mpi"])
    def test_notify_lowers_on_every_backend(self, backend):
        world = ib_world() if backend == "gpi2" else gasnet_world()
        result = lower_plan(self.notify_plan(), backend, world.nranks).run(world)
        assert all(r["elapsed"] >= 0.0 for r in result.results)

    def test_gpi2_notify_failure_raises_at_fence(self):
        """A GPI-2 notify that exhausts its retries is waited on at the
        next fence and raises there, like the GASNet-EX AM path."""
        plan = FaultPlan([FaultSpec(site="conduit.notify", kind="transient")])
        world = World(platform_c(), num_nodes=2, faults=plan)
        with pytest.raises(FatalError, match="giving up"):
            lower_plan(self.notify_plan(), "gpi2", world.nranks).run(world)

    def test_prefetch_roundtrip(self):
        nbytes = 256
        plan = CommPlan(
            name="pf",
            steps=1,
            buffers=(BufDecl("X", nbytes, kind="asymmetric"),),
            body=(
                PlanOp(
                    op_id="p",
                    kind="put",
                    peer=Peer(+1),
                    src=Access(BufRef("X"), 0, 128),
                    dst=Access(BufRef("X"), 128, 128),
                ),
                PlanOp(op_id="fence", kind="fence", after=("p",)),
                PlanOp(op_id="bar", kind="barrier"),
            ),
        )
        optimized, stats = optimize_plan(plan)
        assert stats["prefetches_inserted"] == 1
        assert optimized.meta["pointer_prefetch"] is True
        world = gasnet_world()
        result = lower_plan(optimized, "gasnet", world.nranks).run(world)
        assert all(r["elapsed"] >= 0.0 for r in result.results)
