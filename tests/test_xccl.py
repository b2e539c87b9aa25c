"""Tests for the XCCL (NCCL/RCCL) layer."""

import numpy as np
import pytest

from repro.cluster import MemRef, World, run_spmd
from repro.hardware import platform_a, platform_b
from repro.util.errors import CommunicationError
from repro.util.units import KiB, MiB
from repro.xccl import (
    NCCL_PARAMS,
    RCCL_PARAMS,
    UniqueId,
    XcclComm,
    XcclContext,
    analyze,
    build_ring,
    params_for,
    ring_bandwidth,
    select_algorithm,
)


def make_ctx(nodes=2, platform=None, params=NCCL_PARAMS):
    w = World(platform or platform_a(with_quirk=False), num_nodes=nodes)
    return w, XcclContext(w, params)


def init_all(w, ctx, uid):
    """Each rank joins with its primary device; returns comms by rank."""
    comms = {}

    def join(rank_ctx):
        comms[rank_ctx.rank] = XcclComm.init_rank(
            ctx, uid, rank_ctx.rank, w.nranks, rank_ctx.device
        )

    return comms, join


class TestUniqueId:
    def test_ids_are_unique(self):
        assert UniqueId.create() != UniqueId.create()

    def test_equality_and_hash(self):
        a = UniqueId.create()
        assert a == a
        assert len({a, a}) == 1

    def test_forged_id_rejected(self):
        with pytest.raises(CommunicationError):
            UniqueId(0)


class TestTopo:
    def test_ring_is_node_major(self):
        w = World(platform_a(with_quirk=False), num_nodes=2)
        devs = list(reversed(w.topology.all_gpus()))
        ring = build_ring(devs)
        assert [d.node for d in ring] == [0, 0, 0, 0, 1, 1, 1, 1]

    def test_duplicate_devices_rejected(self):
        from repro.util.errors import ConfigurationError

        w = World(platform_a(with_quirk=False), num_nodes=1)
        g = w.topology.gpu(0, 0)
        with pytest.raises(ConfigurationError):
            build_ring([g, g])

    def test_nic_aggregation_beats_single_nic(self):
        """4 member GPUs per node → inter-node hops stripe over 4 NICs."""
        w = World(platform_a(with_quirk=False), num_nodes=2)
        topo = w.topology
        full_ring = build_ring(topo.all_gpus())
        solo_ring = build_ring([topo.gpu(0, 0), topo.gpu(1, 0)])
        assert ring_bandwidth(topo, full_ring, NCCL_PARAMS) > 2 * ring_bandwidth(
            topo, solo_ring, NCCL_PARAMS
        )

    def test_single_member_ring_degenerate(self):
        w = World(platform_a(with_quirk=False), num_nodes=1)
        bw = ring_bandwidth(w.topology, [w.topology.gpu(0, 0)], NCCL_PARAMS)
        assert bw == w.platform.node.gpu.mem_bandwidth


class TestInit:
    def test_init_rank_blocks_until_all_join(self):
        w, ctx = make_ctx(nodes=1)
        uid = UniqueId.create()
        times = []

        def prog(rc):
            rc.sim.sleep(rc.rank * 1e-3)
            XcclComm.init_rank(ctx, uid, rc.rank, w.nranks, rc.device)
            times.append(rc.sim.now)

        run_spmd(w, prog)
        assert max(times) - min(times) < 1e-9
        assert min(times) >= 3e-3 + NCCL_PARAMS.init_overhead

    def test_init_releases_at_last_join_plus_overhead(self):
        w, ctx = make_ctx(nodes=2)
        uid = UniqueId.create()
        stagger = (2.5e-6, 0.0, 7.1e-4, 3.3e-5, 1.9e-5, 7.1e-4, 6.0e-7, 1.2e-4)
        joins, releases = [], []

        def prog(rc):
            rc.sim.sleep(stagger[rc.rank])
            joins.append(rc.sim.now)
            XcclComm.init_rank(ctx, uid, rc.rank, w.nranks, rc.device)
            releases.append(rc.sim.now)

        run_spmd(w, prog)
        assert set(releases) == {max(joins) + NCCL_PARAMS.init_overhead}

    def test_double_join_rejected(self):
        w, ctx = make_ctx(nodes=1)
        uid = UniqueId.create()

        def prog(rc):
            XcclComm.init_rank(ctx, uid, 0, w.nranks, rc.device)

        with pytest.raises(CommunicationError, match="already joined"):
            run_spmd(w, prog)

    def test_inconsistent_size_rejected(self):
        w, ctx = make_ctx(nodes=1)
        uid = UniqueId.create()

        def prog(rc):
            n = 4 if rc.rank == 0 else 3
            XcclComm.init_rank(ctx, uid, rc.rank, n, rc.device)

        with pytest.raises(CommunicationError, match="inconsistent"):
            run_spmd(w, prog)


class TestCollectives:
    def test_all_reduce_sums(self):
        w, ctx = make_ctx()
        uid = UniqueId.create()
        out = {}

        def prog(rc):
            comm = XcclComm.init_rank(ctx, uid, rc.rank, w.nranks, rc.device)
            send = rc.device.malloc(64)
            recv = rc.device.malloc(64)
            send.as_array(np.float64)[:] = float(rc.rank)
            comm.all_reduce(MemRef.device(send), MemRef.device(recv))
            out[rc.rank] = recv.as_array(np.float64).copy()

        run_spmd(w, prog)
        for r in range(8):
            np.testing.assert_allclose(out[r], 28.0)

    def test_broadcast_from_root(self):
        w, ctx = make_ctx()
        uid = UniqueId.create()
        out = {}

        def prog(rc):
            comm = XcclComm.init_rank(ctx, uid, rc.rank, w.nranks, rc.device)
            buf = rc.device.malloc(32)
            if rc.rank == 3:
                buf.as_array(np.int32)[:] = 99
            comm.broadcast(MemRef.device(buf), root=3)
            out[rc.rank] = buf.as_array(np.int32).copy()

        run_spmd(w, prog)
        for r in range(8):
            np.testing.assert_array_equal(out[r], 99)

    def test_reduce_to_root_only(self):
        w, ctx = make_ctx()
        uid = UniqueId.create()
        out = {}

        def prog(rc):
            comm = XcclComm.init_rank(ctx, uid, rc.rank, w.nranks, rc.device)
            send = rc.device.malloc(8)
            send.as_array(np.float64)[:] = 1.0
            recv = rc.device.malloc(8) if rc.rank == 0 else None
            comm.reduce(
                MemRef.device(send),
                None if recv is None else MemRef.device(recv),
                root=0,
            )
            if rc.rank == 0:
                out["v"] = recv.as_array(np.float64)[0]

        run_spmd(w, prog)
        assert out["v"] == 8.0

    def test_all_gather_slot_order(self):
        w, ctx = make_ctx(nodes=1)
        uid = UniqueId.create()
        out = {}

        def prog(rc):
            comm = XcclComm.init_rank(ctx, uid, rc.rank, w.nranks, rc.device)
            send = rc.device.malloc(8)
            send.as_array(np.float64)[:] = float(rc.rank)
            recv = rc.device.malloc(8 * w.nranks)
            comm.all_gather(MemRef.device(send), MemRef.device(recv))
            out[rc.rank] = recv.as_array(np.float64).copy()

        run_spmd(w, prog)
        for r in range(4):
            np.testing.assert_array_equal(out[r], np.arange(4.0))

    def test_reduce_scatter_blocks(self):
        w, ctx = make_ctx(nodes=1)
        uid = UniqueId.create()
        out = {}

        def prog(rc):
            comm = XcclComm.init_rank(ctx, uid, rc.rank, w.nranks, rc.device)
            send = rc.device.malloc(8 * w.nranks)
            send.as_array(np.float64)[:] = np.arange(4.0) * (rc.rank + 1)
            recv = rc.device.malloc(8)
            comm.reduce_scatter(MemRef.device(send), MemRef.device(recv))
            out[rc.rank] = recv.as_array(np.float64)[0]

        run_spmd(w, prog)
        # Sum over ranks of block j = j * (1+2+3+4) = 10 j
        assert out == {0: 0.0, 1: 10.0, 2: 20.0, 3: 30.0}

    def test_mismatched_op_order_rejected(self):
        w, ctx = make_ctx(nodes=1)
        uid = UniqueId.create()

        def prog(rc):
            comm = XcclComm.init_rank(ctx, uid, rc.rank, w.nranks, rc.device)
            buf = MemRef.device(rc.device.malloc(8))
            if rc.rank == 0:
                comm.broadcast(buf, root=0)
            else:
                comm.all_reduce(buf, MemRef.device(rc.device.malloc(8)))

        with pytest.raises(CommunicationError, match="mismatch"):
            run_spmd(w, prog)

    def test_single_process_multi_gpu(self):
        """One rank drives 4 devices = 4 communicator slots (§3.3)."""
        w = World(platform_a(with_quirk=False), num_nodes=1, devices_per_rank=4)
        ctx = XcclContext(w, NCCL_PARAMS)
        uid = UniqueId.create()
        out = {}

        def prog(rc):
            if rc.rank != 0:
                return
            comms, sends, recvs = [], [], []
            # Join all four slots from one process.  Init blocks until
            # all slots joined, so we must spawn helpers - exactly the
            # group-launch problem OMPCCL solves with ncclGroupStart.
            tasks = []
            for d, dev in enumerate(rc.devices):
                send = dev.malloc(8)
                send.as_array(np.float64)[:] = float(d + 1)
                recv = dev.malloc(8)
                sends.append(send)
                recvs.append(recv)

                def worker(d=d, dev=dev, send=send, recv=recv):
                    comm = XcclComm.init_rank(ctx, uid, d, 4, dev)
                    comm.all_reduce(MemRef.device(send), MemRef.device(recv))

                tasks.append(rc.sim.spawn(worker, name=f"slot{d}"))
            for t in tasks:
                t.join()
            out["vals"] = [r.as_array(np.float64)[0] for r in recvs]

        run_spmd(w, prog)
        assert out["vals"] == [10.0, 10.0, 10.0, 10.0]


class TestCalibration:
    def _allreduce_time(self, platform, params, size, nodes):
        w = World(platform, num_nodes=nodes)
        ctx = XcclContext(w, params)
        uid = UniqueId.create()

        def prog(rc):
            comm = XcclComm.init_rank(ctx, uid, rc.rank, w.nranks, rc.device)
            send = MemRef.device(rc.device.malloc(size, virtual=True))
            recv = MemRef.device(rc.device.malloc(size, virtual=True))
            rc.world.global_barrier.wait()
            t0 = rc.sim.now
            comm.all_reduce(send, recv)
            return rc.sim.now - t0

        return max(run_spmd(w, prog).results)

    def test_nccl_faster_than_rccl(self):
        a, b = platform_a(with_quirk=False), platform_b()
        t_nccl = self._allreduce_time(a, NCCL_PARAMS, 16 * MiB, nodes=2)
        t_rccl = self._allreduce_time(b, RCCL_PARAMS, 16 * MiB, nodes=2)
        assert t_nccl < t_rccl

    def test_launch_overhead_dominates_small(self):
        t = self._allreduce_time(platform_a(with_quirk=False), NCCL_PARAMS, 8, nodes=2)
        assert t >= NCCL_PARAMS.launch_overhead

    def test_params_for(self):
        assert params_for("nccl") is NCCL_PARAMS
        assert params_for("rccl") is RCCL_PARAMS
        with pytest.raises(Exception):
            params_for("occl")


class TestAlgorithmSelection:
    def _ctopo(self, nodes=2, gpus=None, platform=None, params=NCCL_PARAMS):
        w = World(platform or platform_a(with_quirk=False), num_nodes=nodes)
        if gpus is None:
            devs = w.topology.all_gpus()
        else:
            devs = [w.topology.gpu(n, i) for n, i in gpus]
        return analyze(w.topology, build_ring(devs), params)

    def test_tree_for_small_messages(self):
        ct = self._ctopo()
        sel = select_algorithm("all_reduce", 8 * KiB, ct, NCCL_PARAMS)
        assert sel.algo == "tree"

    def test_ring_for_single_node(self):
        ct = self._ctopo(nodes=1)
        assert not ct.hierarchical
        sel = select_algorithm("all_reduce", 64 * MiB, ct, NCCL_PARAMS)
        assert sel.algo == "ring"

    def test_hier_for_multi_node_large(self):
        ct = self._ctopo()
        assert ct.hierarchical and ct.per_node == 4
        sel = select_algorithm("all_reduce", 64 * MiB, ct, NCCL_PARAMS)
        assert sel.algo == "hier_ring"
        scopes = [ph.scope for ph in sel.phases]
        assert scopes == ["intra", "inter", "intra"]

    def test_hier_strictly_faster_than_ring(self):
        ct = self._ctopo()
        auto = select_algorithm("all_reduce", 64 * MiB, ct, NCCL_PARAMS)
        ring = select_algorithm("all_reduce", 64 * MiB, ct, NCCL_PARAMS, force="ring")
        assert auto.algo == "hier_ring"
        assert auto.seconds < ring.seconds

    def test_ring_kept_where_hier_costs_more(self):
        # Large broadcast moves the whole vector through both tiers, so
        # the decomposition cannot win; cost-min keeps the flat ring.
        ct = self._ctopo()
        sel = select_algorithm("broadcast", 64 * MiB, ct, NCCL_PARAMS)
        assert sel.algo == "ring"

    def test_thresholds_gate_policy(self):
        # Mid-sized messages stay on the ring even where a hierarchy
        # structurally exists (below hier_min_bytes, above tree_max).
        ct = self._ctopo()
        assert select_algorithm("all_reduce", 2 * MiB, ct, NCCL_PARAMS).algo == "ring"
        assert select_algorithm("all_reduce", 128 * KiB, ct, NCCL_PARAMS).algo == "ring"

    def test_no_hierarchy_with_one_gpu_per_node(self):
        ct = self._ctopo(nodes=2, gpus=[(0, 0), (1, 0)])
        assert not ct.hierarchical
        sel = select_algorithm("all_reduce", 64 * MiB, ct, NCCL_PARAMS)
        assert sel.algo == "ring"

    def test_no_hierarchy_with_nonuniform_nodes(self):
        ct = self._ctopo(nodes=2, gpus=[(0, 0), (0, 1), (0, 2), (1, 0)])
        assert ct.per_node is None and not ct.hierarchical
        sel = select_algorithm("all_reduce", 64 * MiB, ct, NCCL_PARAMS)
        assert sel.algo == "ring"

    def test_forced_ineligible_raises(self):
        ct = self._ctopo(nodes=1)
        with pytest.raises(CommunicationError, match="not runnable"):
            select_algorithm("all_reduce", 64 * MiB, ct, NCCL_PARAMS, force="hier_ring")

    def test_unknown_algorithm_rejected(self):
        ct = self._ctopo()
        with pytest.raises(CommunicationError, match="unknown algorithm"):
            select_algorithm("all_reduce", 8, ct, NCCL_PARAMS, force="butterfly")

    def test_forced_ring_matches_legacy_model(self):
        # The ring plan must reproduce the historical _model_time
        # formula exactly (the calibration contract).
        ct = self._ctopo()
        params = NCCL_PARAMS
        n = ct.ndev
        for size in (8, 128 * KiB, 2 * MiB, 64 * MiB):
            sel = select_algorithm("all_reduce", size, ct, params, force="ring")
            wire = 2.0 * size * (n - 1) / n
            expect = (
                params.launch_overhead
                + 2 * (n - 1) * params.step_latency
                + 3 * ct.flat_hop_latency
                + wire / (ct.flat_bw * params.efficiency)
            )
            assert sel.seconds == pytest.approx(expect, rel=1e-12)


class TestCollectiveValidation:
    def test_mismatched_nbytes_rejected(self):
        w, ctx = make_ctx(nodes=1)
        uid = UniqueId.create()

        def prog(rc):
            comm = XcclComm.init_rank(ctx, uid, rc.rank, w.nranks, rc.device)
            size = 16 if rc.rank == 2 else 8
            send = MemRef.device(rc.device.malloc(size))
            recv = MemRef.device(rc.device.malloc(size))
            comm.all_reduce(send, recv)

        with pytest.raises(CommunicationError, match="size mismatch"):
            run_spmd(w, prog)

    def test_mismatched_forced_algo_rejected(self):
        w, ctx = make_ctx(nodes=1)
        uid = UniqueId.create()

        def prog(rc):
            comm = XcclComm.init_rank(ctx, uid, rc.rank, w.nranks, rc.device)
            send = MemRef.device(rc.device.malloc(8))
            recv = MemRef.device(rc.device.malloc(8))
            comm.all_reduce(send, recv, algo="ring" if rc.rank == 0 else None)

        with pytest.raises(CommunicationError, match="algorithm mismatch"):
            run_spmd(w, prog)

    def test_alltoall_exchanges_blocks(self):
        w, ctx = make_ctx(nodes=1)
        uid = UniqueId.create()
        out = {}

        def prog(rc):
            comm = XcclComm.init_rank(ctx, uid, rc.rank, w.nranks, rc.device)
            send = rc.device.malloc(8 * w.nranks)
            # Block j of rank i holds 10*i + j.
            send.as_array(np.float64)[:] = 10.0 * rc.rank + np.arange(w.nranks)
            recv = rc.device.malloc(8 * w.nranks)
            comm.alltoall(MemRef.device(send), MemRef.device(recv))
            out[rc.rank] = recv.as_array(np.float64).copy()

        run_spmd(w, prog)
        for j in range(4):
            # Block i of rank j's recv came from rank i's block j.
            np.testing.assert_array_equal(out[j], 10.0 * np.arange(4) + j)

    def test_alltoall_size_validation(self):
        w, ctx = make_ctx(nodes=1)
        uid = UniqueId.create()

        def prog(rc):
            comm = XcclComm.init_rank(ctx, uid, rc.rank, w.nranks, rc.device)
            send = MemRef.device(rc.device.malloc(10))
            recv = MemRef.device(rc.device.malloc(10))
            comm.alltoall(send, recv)  # 10 bytes not divisible into 4

        with pytest.raises(CommunicationError, match="does not divide"):
            run_spmd(w, prog)

    def test_hier_bit_identical_to_ring(self):
        # Same 2-node/8-GPU world, same inputs, forced ring vs forced
        # hierarchy: results must match bit for bit (contributions are
        # always combined in slot order, whatever the transport).
        results = {}
        for algo in ("ring", "hier_ring"):
            w, ctx = make_ctx(nodes=2)
            uid = UniqueId.create()
            out = {}

            def prog(rc, algo=algo, ctx=ctx, uid=uid, w=w, out=out):
                comm = XcclComm.init_rank(ctx, uid, rc.rank, w.nranks, rc.device)
                send = rc.device.malloc(1024)
                rng = np.random.default_rng(rc.rank)
                send.as_array(np.float64)[:] = rng.standard_normal(128)
                recv = rc.device.malloc(1024)
                comm.all_reduce(MemRef.device(send), MemRef.device(recv), algo=algo)
                out[rc.rank] = recv.as_array(np.float64).copy()

            run_spmd(w, prog)
            results[algo] = out
        for r in range(8):
            np.testing.assert_array_equal(
                results["ring"][r], results["hier_ring"][r]
            )

    def test_algo_metric_labels(self):
        w, ctx = make_ctx(nodes=2)
        uid = UniqueId.create()

        def prog(rc):
            comm = XcclComm.init_rank(ctx, uid, rc.rank, w.nranks, rc.device)
            send = MemRef.device(rc.device.malloc(64 * MiB, virtual=True))
            recv = MemRef.device(rc.device.malloc(64 * MiB, virtual=True))
            comm.all_reduce(send, recv)

        run_spmd(w, prog)
        assert w.obs.value("xccl.algo", algo="hier_ring", op="all_reduce") == 1


def _mismatch(odd):
    """Per-rank calls where rank ``odd`` disagrees with the rest, with
    the error every member must raise."""
    def sized(comm, rc):
        size = 16 if rc.rank == odd else 8
        send = MemRef.device(rc.device.malloc(size))
        comm.all_reduce(send, MemRef.device(rc.device.malloc(size)))

    def forced(comm, rc):
        buf = MemRef.device(rc.device.malloc(8))
        comm.broadcast(buf, root=0, algo="ring" if rc.rank == odd else None)

    def op(comm, rc):
        buf = MemRef.device(rc.device.malloc(8))
        if rc.rank == odd:
            comm.broadcast(buf, root=0)
        else:
            comm.all_reduce(buf, MemRef.device(rc.device.malloc(8)))

    def rooted(comm, rc):
        buf = MemRef.device(rc.device.malloc(8))
        comm.broadcast(buf, root=1 if rc.rank == odd else 0)

    def typed(comm, rc):
        send = MemRef.device(rc.device.malloc(8))
        dtype = np.int64 if rc.rank == odd else np.float64
        comm.all_reduce(send, MemRef.device(rc.device.malloc(8)), dtype=dtype)

    def reduction(comm, rc):
        send = MemRef.device(rc.device.malloc(8))
        fn = np.maximum if rc.rank == odd else np.add
        comm.reduce(send, MemRef.device(rc.device.malloc(8)), root=0, op=fn)

    rest = [r for r in range(4) if r != odd]
    at = "mismatch at sequence 1:"
    return {
        "size": (sized, f"size {at} 16 bytes from [{odd}], 8 bytes from {rest}"),
        "algorithm": (forced, f"algorithm {at} 'ring' from [{odd}], auto from {rest}"),
        "op": (op, f"collective {at} broadcast from [{odd}], all_reduce from {rest}"),
        "root": (rooted, f"root {at} 1 from [{odd}], 0 from {rest}"),
        "dtype": (typed, f"dtype {at} int64 from [{odd}], float64 from {rest}"),
        "reduction": (reduction, f"op {at} maximum from [{odd}], add from {rest}"),
    }


class TestAgreementOnEveryMember:
    """An agreement error is decided once, over every member's call,
    and raised on every member (none is left waiting)."""

    def _errors(self, call):
        w, ctx = make_ctx(nodes=1)
        uid = UniqueId.create()
        errors = {}

        def prog(rc):
            comm = XcclComm.init_rank(ctx, uid, rc.rank, w.nranks, rc.device)
            buf = MemRef.device(rc.device.malloc(8))
            comm.broadcast(buf, root=0)  # an agreed collective first
            try:
                call(comm, rc)
            except CommunicationError as exc:
                errors[rc.rank] = str(exc)

        run_spmd(w, prog)
        assert sorted(errors) == list(range(w.nranks))
        assert len(set(errors.values())) == 1
        return errors[0]

    @pytest.mark.parametrize("odd", [0, 2])
    @pytest.mark.parametrize(
        "field", ["size", "algorithm", "op", "root", "dtype", "reduction"]
    )
    def test_disagreement_raises_on_every_member(self, field, odd):
        call, expected = _mismatch(odd)[field]
        assert self._errors(call).startswith(expected)

    def test_per_rank_closures_of_one_op_agree(self):
        """Reduction ops are compared by name, so each rank may build
        its own closure of the same function."""
        w, ctx = make_ctx(nodes=1)
        uid = UniqueId.create()
        out = {}

        def prog(rc):
            comm = XcclComm.init_rank(ctx, uid, rc.rank, w.nranks, rc.device)
            send = MemRef.device(rc.device.malloc(8))
            send.typed(np.float64)[:] = rc.rank + 1.0
            recv = MemRef.device(rc.device.malloc(8))
            comm.all_reduce(send, recv, op=lambda a, b: a * b)
            out[rc.rank] = recv.typed(np.float64)[0]

        run_spmd(w, prog)
        assert out == {r: 24.0 for r in range(w.nranks)}

    def test_unknown_forced_algorithm_raises_on_every_member(self):
        def call(comm, rc):
            buf = MemRef.device(rc.device.malloc(8))
            comm.all_reduce(buf, MemRef.device(rc.device.malloc(8)), algo="butterfly")

        assert "unknown algorithm" in self._errors(call)


class TestVectorizedSweep:
    def _ctopo(self, nodes=2):
        w = World(platform_a(with_quirk=False), num_nodes=nodes)
        return analyze(w.topology, build_ring(w.topology.all_gpus()), NCCL_PARAMS)

    SIZES = [8, 1 * KiB, 8 * KiB, 128 * KiB, 2 * MiB, 16 * MiB, 64 * MiB]

    @pytest.mark.parametrize("op", ["all_reduce", "broadcast"])
    def test_linear_cost_reproduces_plan(self, op):
        from repro.xccl.algorithms import linear_cost, plan

        ct = self._ctopo()
        for algo in ("ring", "tree", "hier_ring"):
            fixed, slope = linear_cost(algo, op, ct, NCCL_PARAMS)
            for size in self.SIZES:
                exact = plan(algo, op, size, ct, NCCL_PARAMS).seconds
                assert fixed + slope * size == pytest.approx(exact, rel=1e-12)

    @pytest.mark.parametrize("op", ["all_reduce", "broadcast"])
    def test_select_sweep_matches_scalar_selection(self, op):
        from repro.xccl.algorithms import select_sweep

        ct = self._ctopo()
        algos, seconds = select_sweep(op, self.SIZES, ct, NCCL_PARAMS)
        for size, algo, sec in zip(self.SIZES, algos, seconds):
            sel = select_algorithm(op, size, ct, NCCL_PARAMS)
            assert algo == sel.algo, f"{op} @ {size}"
            assert sec == pytest.approx(sel.seconds, rel=1e-12)

    def test_select_sweep_spans_all_regimes(self):
        # The sweep must actually traverse tree -> ring -> hier so the
        # parity test above exercises every policy gate.
        from repro.xccl.algorithms import select_sweep

        algos, _ = select_sweep("all_reduce", self.SIZES, self._ctopo(), NCCL_PARAMS)
        assert {"tree", "ring", "hier_ring"} <= set(algos)

    def test_select_sweep_single_node_keeps_ring(self):
        from repro.xccl.algorithms import select_sweep

        ct = self._ctopo(nodes=1)
        algos, seconds = select_sweep("all_reduce", [64 * MiB], ct, NCCL_PARAMS)
        assert list(algos) == ["ring"]
        assert np.isfinite(seconds).all()

    def test_linear_cost_ineligible_raises(self):
        from repro.xccl.algorithms import linear_cost

        ct = self._ctopo(nodes=1)
        with pytest.raises(CommunicationError, match="not runnable"):
            linear_cost("hier_ring", "all_reduce", ct, NCCL_PARAMS)
