"""Ablation — deployment models for multi-GPU collectives (§3.3).

The paper's argument for decoupling communication groups from rank
boundaries: when one rank drives several devices, a rank-granular
library forces a **hierarchical two-phase AllReduce** (reduce across
the rank's own devices, AllReduce across ranks, broadcast back to the
devices), which "introduces extra synchronization overhead and can
degrade performance" — while OMPCCL runs **one collective over every
device slot** directly.

This bench runs both schemes in the single-process multi-GPU layout
(2 nodes x 1 rank x 4 GPUs) and compares completion times.
"""

import numpy as np

from conftest import run_once

from repro.bench.report import Table
from repro.cluster import MemRef, World, run_spmd
from repro.core import DiompParams, DiompRuntime
from repro.hardware import platform_a
from repro.mpi import MpiWorld
from repro.mpi import collectives as mpi_coll
from repro.util.units import MiB

SIZE = 8 * MiB


def _ompccl_time() -> float:
    """One OMPCCL allreduce over all 8 device slots."""
    world = World(platform_a(with_quirk=False), num_nodes=2, devices_per_rank=4)
    DiompRuntime(world, DiompParams(segment_size=4 * SIZE))

    def prog(ctx):
        sends = [MemRef.device(d.malloc(SIZE, virtual=True)) for d in ctx.devices]
        recvs = [MemRef.device(d.malloc(SIZE, virtual=True)) for d in ctx.devices]
        ctx.diomp.barrier()
        # Warm-up (channel setup), then a timed collective.
        ctx.diomp.allreduce(sends, recvs)
        ctx.diomp.barrier()
        t0 = ctx.sim.now
        ctx.diomp.allreduce(sends, recvs)
        return ctx.sim.now - t0

    return max(run_spmd(world, prog).results)


def _hierarchical_time() -> float:
    """The rank-granular workaround: local device reduction over
    NVLink, MPI AllReduce between ranks, local broadcast back."""
    world = World(platform_a(with_quirk=False), num_nodes=2, devices_per_rank=4)
    mpi = MpiWorld(world)

    def prog(ctx):
        comm = mpi.comm_world(ctx.rank)
        for d in ctx.devices:
            d.malloc(SIZE, virtual=True)
        acc = ctx.devices[0].malloc(SIZE, virtual=True)
        mpi_coll.barrier(comm)
        t0 = ctx.sim.now
        # Phase 1: reduce the rank's own devices into device 0 (three
        # NVLink pulls + three reduction kernels, serialized on dev 0).
        from repro.device.kernel import Kernel, KernelCost

        reduce_kernel = Kernel(
            "local-reduce", cost=lambda: KernelCost(SIZE / 8, 3 * SIZE)
        )
        for d in range(1, 4):
            fut = world.transfer(
                ctx.devices[d].device_id,
                ctx.devices[0].device_id,
                SIZE,
                operation="put",
                gpu_memory=True,
            )
            fut.wait()
            ctx.devices[0].launch(reduce_kernel, cost_args=()).wait()
        # Phase 2: inter-rank AllReduce on the accumulated buffer.
        mpi_coll.allreduce(
            comm,
            MemRef.device(acc),
            MemRef.device(acc),
            np.float64,
        )
        # Phase 3: broadcast the result back to the local devices.
        for d in range(1, 4):
            world.transfer(
                ctx.devices[0].device_id,
                ctx.devices[d].device_id,
                SIZE,
                operation="put",
                gpu_memory=True,
            ).wait()
        return ctx.sim.now - t0

    return max(run_spmd(world, prog).results)


def _run():
    return {
        "OMPCCL (one collective over 8 device slots)": _ompccl_time(),
        "hierarchical two-phase (rank-granular MPI)": _hierarchical_time(),
    }


def test_ablation_deployment_models(benchmark):
    data = run_once(benchmark, _run)
    table = Table(
        "Ablation - 8 MiB AllReduce over 8 GPUs, single process per node",
        ["scheme", "elapsed (us)"],
    )
    for name, t in data.items():
        table.add_row(name, f"{t * 1e6:.2f}")
    table.print()
    ompccl = data["OMPCCL (one collective over 8 device slots)"]
    hier = data["hierarchical two-phase (rank-granular MPI)"]
    assert ompccl < hier  # §3.3's claim
