"""Point-to-point microbenchmarks (Figs. 3–5).

OSU-style methodology on two ranks of a two-node cluster:

* **latency** — one operation at a time, completed before the next is
  issued; the reported number is the per-operation average,
* **bandwidth** — a window of operations in flight, completed by one
  flush; reported as bytes moved per second of the whole window.

The DiOMP side issues ``ompx_put``/``ompx_get`` + ``ompx_fence``; the
MPI side issues ``MPI_Put``/``MPI_Get`` + ``MPI_Win_flush`` inside a
passive-target lock epoch.  Fig. 5 swaps the DiOMP conduit between
GASNet-EX and GPI-2 on the InfiniBand platform.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.cluster.memref import MemRef
from repro.cluster.spmd import run_spmd
from repro.cluster.world import World
from repro.core.runtime import DiompParams, DiompRuntime
from repro.hardware.platforms import PlatformSpec
from repro.mpi import MpiWorld, Window
from repro.util.errors import ConfigurationError
from repro.util.units import KiB, MiB

#: operations kept in flight for bandwidth measurements (OSU default)
BW_WINDOW = 64

#: message sizes for the latency sweep (Fig. 3: 4 B .. 8 KiB)
LATENCY_SIZES = [4, 16, 64, 256, 1024, 4 * KiB, 8 * KiB]

#: message sizes for the bandwidth sweep (Fig. 4: up to 64 MiB)
BANDWIDTH_SIZES = [
    4 * KiB,
    64 * KiB,
    256 * KiB,
    1 * MiB,
    4 * MiB,
    16 * MiB,
    64 * MiB,
]


def _segment_for(sizes: Sequence[int]) -> int:
    return 4 * max(sizes) + (1 << 20)


def diomp_p2p(
    platform: PlatformSpec,
    op: str,
    sizes: Sequence[int],
    reps: int = 10,
    window: int = 1,
    conduit: str = "gasnet",
) -> List[Tuple[int, float]]:
    """Per-size average completion time of DiOMP one-sided ops between
    rank 0 and a rank on the other node."""
    if op not in ("put", "get"):
        raise ConfigurationError(f"op must be put|get, got {op!r}")
    results: List[Tuple[int, float]] = []
    for size in sizes:
        world = World(platform, num_nodes=2)
        DiompRuntime(
            world,
            DiompParams(segment_size=_segment_for(sizes), conduit=conduit),
        )
        peer = world.ranks_per_node  # first rank of node 1

        def prog(ctx, size=size, peer=peer):
            gbuf = ctx.diomp.alloc(size, virtual=True)
            local = ctx.diomp.segment(0).alloc_local(size, virtual=True)
            ctx.diomp.barrier()
            elapsed = None
            if ctx.rank == 0:
                src = MemRef.device(local)
                issue = ctx.diomp.put if op == "put" else ctx.diomp.get
                # Warm-up (path setup, pointer caches).
                issue(peer, gbuf, src)
                ctx.diomp.fence()
                t0 = ctx.sim.now
                for _ in range(reps):
                    for _ in range(window):
                        issue(peer, gbuf, src)
                    ctx.diomp.fence()
                elapsed = (ctx.sim.now - t0) / (reps * window)
            ctx.diomp.barrier()
            return elapsed

        res = run_spmd(world, prog)
        results.append((size, res.results[0]))
    return results


def fence_parks_per_call(
    platform: PlatformSpec,
    seed: int = 1,
    ops: int = 32,
    fence_every: int = 4,
) -> float:
    """Blocking hand-offs (``Simulator.parks``) per ``ompx_fence`` call.

    Rank 0 of a two-node world issues a seeded mix of ``ops`` puts and
    gets — 8 B to 64 KiB, to peers on its own node (IPC path) and on
    the other node (conduit path) — with a fence every
    ``fence_every`` operations.  The other ranks only allocate and
    pass the first barrier, then return (one-sided targets need no
    host thread), so every park counted inside a fence window is
    rank 0's own.  Deterministic for a seed.
    """
    import random

    rng = random.Random(seed)
    max_size = 64 * KiB
    world = World(platform, num_nodes=2)
    DiompRuntime(world, DiompParams(segment_size=_segment_for([max_size])))
    schedule = [
        (
            rng.choice(("put", "get")),
            rng.randrange(1, world.nranks),
            8 << rng.randrange(14),
        )
        for _ in range(ops)
    ]

    def prog(ctx):
        gbuf = ctx.diomp.alloc(max_size, virtual=True)
        local = ctx.diomp.segment(0).alloc_local(max_size, virtual=True)
        ctx.diomp.barrier()
        if ctx.rank != 0:
            return None
        parks = fences = 0
        for i, (op, peer, size) in enumerate(schedule, start=1):
            issue = ctx.diomp.put if op == "put" else ctx.diomp.get
            issue(peer, gbuf, MemRef.device(local, nbytes=size))
            if i % fence_every == 0 or i == len(schedule):
                before = ctx.sim.parks
                ctx.diomp.fence()
                parks += ctx.sim.parks - before
                fences += 1
        return parks / fences

    return run_spmd(world, prog).results[0]


def mpi_p2p(
    platform: PlatformSpec,
    op: str,
    sizes: Sequence[int],
    reps: int = 10,
    window: int = 1,
) -> List[Tuple[int, float]]:
    """Per-size average completion time of MPI RMA between nodes."""
    if op not in ("put", "get"):
        raise ConfigurationError(f"op must be put|get, got {op!r}")
    results: List[Tuple[int, float]] = []
    for size in sizes:
        world = World(platform, num_nodes=2)
        mpi = MpiWorld(world)
        peer = world.ranks_per_node

        def prog(ctx, size=size, peer=peer):
            comm = mpi.comm_world(ctx.rank)
            exposed = ctx.device.malloc(size, virtual=True)
            win = Window.create(comm, MemRef.device(exposed))
            elapsed = None
            if ctx.rank == 0:
                local = MemRef.device(ctx.device.malloc(size, virtual=True))
                win.lock(peer)
                issue = win.put if op == "put" else win.get
                issue(local, target=peer)
                win.flush(peer)  # warm-up
                t0 = ctx.sim.now
                for _ in range(reps):
                    for _ in range(window):
                        issue(local, target=peer)
                    win.flush(peer)
                elapsed = (ctx.sim.now - t0) / (reps * window)
                win.unlock(peer)
            ctx.world.global_barrier.wait()
            return elapsed

        res = run_spmd(world, prog)
        results.append((size, res.results[0]))
    return results


def latency_sweep(
    platform: PlatformSpec, sizes: Sequence[int] = tuple(LATENCY_SIZES), reps: int = 10
) -> Dict[str, List[Tuple[int, float]]]:
    """Fig. 3 data for one platform: four latency curves."""
    return {
        "diomp_put": diomp_p2p(platform, "put", sizes, reps),
        "diomp_get": diomp_p2p(platform, "get", sizes, reps),
        "mpi_put": mpi_p2p(platform, "put", sizes, reps),
        "mpi_get": mpi_p2p(platform, "get", sizes, reps),
    }


def bandwidth_sweep(
    platform: PlatformSpec,
    sizes: Sequence[int] = tuple(BANDWIDTH_SIZES),
    reps: int = 3,
    window: int = BW_WINDOW,
) -> Dict[str, List[Tuple[int, float]]]:
    """Fig. 4 data for one platform: four bandwidth curves (bytes/s)."""
    out: Dict[str, List[Tuple[int, float]]] = {}
    for name, fn, kwargs in (
        ("diomp_put", diomp_p2p, {"op": "put"}),
        ("diomp_get", diomp_p2p, {"op": "get"}),
        ("mpi_put", mpi_p2p, {"op": "put"}),
        ("mpi_get", mpi_p2p, {"op": "get"}),
    ):
        times = fn(platform, sizes=sizes, reps=reps, window=window, **kwargs)
        out[name] = [(size, size / t) for size, t in times]
    return out


def conduit_bandwidth_sweep(
    platform: PlatformSpec,
    sizes: Sequence[int] = tuple(BANDWIDTH_SIZES),
    reps: int = 3,
    window: int = BW_WINDOW,
) -> Dict[str, List[Tuple[int, float]]]:
    """Fig. 5 data: GASNet-EX vs GPI-2 put/get bandwidth over NDR IB."""
    if platform.interconnect != "infiniband":
        raise ConfigurationError("the conduit comparison requires InfiniBand")
    out: Dict[str, List[Tuple[int, float]]] = {}
    for conduit in ("gasnet", "gpi2"):
        for op in ("put", "get"):
            times = diomp_p2p(
                platform, op, sizes, reps=reps, window=window, conduit=conduit
            )
            out[f"{conduit}_{op}"] = [(size, size / t) for size, t in times]
    return out
