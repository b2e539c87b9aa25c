"""The DiOMP-Offloading runtime and per-rank user API.

:class:`DiompRuntime` is constructed once per world.  It:

1. selects the conduit (GASNet-EX by default, GPI-2 on request),
2. reserves one :class:`~repro.core.globalmem.GlobalSegment` per
   (rank, bound device) and registers each with the conduit exactly
   once (the unified registration of Fig. 1b),
3. creates the world :class:`~repro.core.group.DiompGroup` and the
   OMPCCL layer,
4. installs a :class:`Diomp` handle on every rank context
   (``ctx.diomp``) carrying the full user API: collective symmetric /
   asymmetric allocation, ``ompx_put``/``get``/``fence``/``barrier``,
   group management, OMPCCL collectives, and an OpenMP target runtime
   whose plugin allocates from the global segment.

Collective calls (alloc, free, barrier, group create/split) arrive at
the runtime's one :class:`~repro.sim.Rendezvous`, mirroring the
coordinated allocation phase the paper requires of all participating
nodes; a call's fixed cost is charged as the point's release delay.
"""

from __future__ import annotations

import dataclasses
import itertools
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.cluster.memref import MemRef
from repro.cluster.world import RankContext, World
from repro.core.allocator import make_allocator
from repro.core.asymmetric import (
    SECOND_LEVEL_POINTER_BYTES,
    AsymmetricBuffer,
    RemotePointerCache,
)
from repro.core.globalmem import (
    GlobalBuffer,
    GlobalSegment,
    HostGlobalBuffer,
    HostSegment,
)
from repro.core.group import DiompGroup
from repro.core.ompccl import Ompccl
from repro.core.plugin import DiompPlugin
from repro.core.rma import DiompRma, RmaAggregationParams, RmaTarget
from repro.core.streams import StreamPool, StreamPoolParams
from repro.gasnet import GasnetConduit
from repro.gpi2 import Gpi2Conduit
from repro.omptarget import OmpTargetRuntime
from repro.sim import Rendezvous
from repro.util.errors import CommunicationError, ConfigurationError
from repro.util.units import MiB, US

#: ``DiompParams.conduit`` name -> conduit class
CONDUITS = {"gasnet": GasnetConduit, "gpi2": Gpi2Conduit}


@dataclasses.dataclass(frozen=True)
class DiompParams:
    """Runtime configuration."""

    #: per-device global segment size
    segment_size: int = 64 * MiB
    #: per-rank host-side global segment size (omp_alloc space)
    host_segment_size: int = 16 * MiB
    #: heap strategy inside the segment: "linear" | "buddy"
    allocator: str = "linear"
    #: communication middleware: a name in :data:`CONDUITS`
    conduit: str = "gasnet"
    #: stream pool policy
    stream_params: StreamPoolParams = dataclasses.field(default_factory=StreamPoolParams)
    #: remote second-level-pointer cache (ablation switch)
    pointer_cache: bool = True
    #: bulk second-level-pointer prefetch at asymmetric allocation
    #: time (ablation switch; requires ``pointer_cache``): one AM round
    #: pre-populates every rank's cache so remote accesses never pay a
    #: per-miss blocking pointer fetch
    pointer_prefetch: bool = False
    #: small-message aggregation on the conduit path (off by default)
    aggregation: RmaAggregationParams = dataclasses.field(
        default_factory=RmaAggregationParams
    )
    #: topology-aware hierarchical path selection (ablation switch:
    #: False forces every transfer through the conduit/NIC path)
    hierarchical_paths: bool = True
    #: software overhead of the IPC/P2P fast path per operation
    ipc_op_overhead: float = 0.5 * US
    #: one-time cost of enabling peer access for a device pair
    peer_enable_overhead: float = 10.0 * US
    #: per-round cost of the dissemination barrier
    barrier_step_overhead: float = 1.8 * US
    #: coordination cost charged per collective allocation
    alloc_coordination_overhead: float = 3.0 * US


class DiompRuntime:
    """World-level runtime state."""

    def __init__(
        self,
        world: World,
        params: Optional[DiompParams] = None,
    ) -> None:
        self.world = world
        self.params = params or DiompParams()
        #: the world's observability layer: one metrics registry and
        #: span profiler shared by every rank handle and subsystem
        self.obs = world.obs
        conduit_cls = CONDUITS.get(self.params.conduit)
        if conduit_cls is None:
            raise ConfigurationError(
                f"unknown conduit {self.params.conduit!r} "
                f"({' | '.join(CONDUITS)})"
            )
        self.conduit = conduit_cls(world)
        self.ompccl = Ompccl(world, self.conduit)
        #: (rank, device_num) -> GlobalSegment
        self.segments: Dict[Tuple[int, int], GlobalSegment] = {}
        for ctx in world.ranks:
            for device_num, device in enumerate(ctx.devices):
                seg = GlobalSegment(
                    device,
                    self.params.segment_size,
                    allocator_kind=self.params.allocator,
                    owner_rank=ctx.rank,
                    obs=self.obs,
                )
                # The single registration of Fig. 1b.
                seg.conduit_segment = self.conduit.client(ctx.rank).attach_space_segment(
                    device.memory, seg.base, seg.size
                )
                seg.registrations = 1
                self.segments[(ctx.rank, device_num)] = seg
        #: device_num -> the one heap that assigns symmetric offsets
        self.sym_heaps = {
            device_num: make_allocator(self.params.allocator, self.params.segment_size // 2)
            for device_num in range(world.devices_per_rank)
        }
        #: the one heap over every rank's host segment
        self.host_heap = make_allocator(self.params.allocator, self.params.host_segment_size)
        #: rank -> host-side global segment (the omp_alloc space)
        self.host_segments: Dict[int, HostSegment] = {}
        for ctx in world.ranks:
            hseg = HostSegment(ctx.node, self.params.host_segment_size)
            seg = self.conduit.client(ctx.rank).attach_segment(
                MemRef.host(ctx.node, hseg.arena)
            )
            hseg.base = seg.base_address
            hseg.conduit_segment = seg
            self.host_segments[ctx.rank] = hseg
        devices_by_rank = {
            ctx.rank: [d.device_id for d in ctx.devices] for ctx in world.ranks
        }
        self._devices_by_rank = devices_by_rank
        #: per-runtime group-id allocator: ids restart at 0 for every
        #: runtime, so identical sequential runs in one process get
        #: identical ids and stable ``group=`` metric/trace labels
        self._group_ids = itertools.count()
        self.world_group = DiompGroup.create(
            list(range(world.nranks)), devices_by_rank, group_id=self.next_group_id()
        )
        self.handles: List[Diomp] = []
        for ctx in world.ranks:
            handle = Diomp(self, ctx)
            ctx.diomp = handle
            self.handles.append(handle)
        #: every collective arrival point: allocation, free, barrier,
        #: group create/split
        self.rendezvous = Rendezvous(world.sim, name="diomp")

    # -- teardown ---------------------------------------------------------------

    def finalize(self) -> Dict[str, int]:
        """``ompx_finalize``: verify a clean shutdown.

        Collective-free (host-side) check run after the simulation:
        reports leaked symmetric/local allocations and RMA operations
        never fenced.  Raises on pending RMA (a correctness bug);
        returns the leak counts so tests/apps can assert zero.
        """
        pending = sum(handle.rma.pending_ops for handle in self.handles)
        if pending:
            raise CommunicationError(
                f"finalize with {pending} unfenced RMA operation(s); call "
                "ompx_fence before shutdown"
            )
        # A leaked collective allocation counts once per rank holding it.
        sym_live = sum(heap.live_allocations for heap in self.sym_heaps.values())
        local_live = sum(
            seg.local_allocator.live_allocations for seg in self.segments.values()
        )
        return {
            "symmetric_leaks": sym_live * self.world.nranks,
            "local_leaks": local_live,
            "host_leaks": self.host_heap.live_allocations * self.world.nranks,
        }

    # -- lookups --------------------------------------------------------------

    def segment_of(self, rank: int, device_num: int = 0) -> GlobalSegment:
        try:
            return self.segments[(rank, device_num)]
        except KeyError:
            raise ConfigurationError(
                f"no global segment for rank {rank} device {device_num}"
            ) from None

    def sym_heap(self, device_num: int):
        try:
            return self.sym_heaps[device_num]
        except KeyError:
            raise ConfigurationError(f"no symmetric heap for device {device_num}") from None

    def host_segment_of(self, rank: int) -> HostSegment:
        try:
            return self.host_segments[rank]
        except KeyError:
            raise ConfigurationError(f"no host segment for rank {rank}") from None

    def next_group_id(self) -> int:
        """Allocate the next deterministic group id for this runtime."""
        return next(self._group_ids)

class Diomp:
    """One rank's DiOMP handle — the ``ompx_*`` API surface."""

    def __init__(self, runtime: DiompRuntime, ctx: RankContext) -> None:
        self.runtime = runtime
        self.ctx = ctx
        self.rank = ctx.rank
        self.client = runtime.conduit.client(ctx.rank)
        self.pointer_cache = RemotePointerCache(enabled=runtime.params.pointer_cache)
        self.rma = DiompRma(self)
        if runtime.params.pointer_prefetch:
            # Ack-only handler for the allocation-time address exchange
            # round (the addresses themselves ride the AM payload).
            self.client.register_handler(
                "diomp.asym-prefetch", lambda _src, _payload: None
            )
        self._pools: Dict[int, StreamPool] = {}
        self.plugin = DiompPlugin(self)
        #: libomptarget with the DiOMP allocator installed (Fig. 1b)
        self.omp = OmpTargetRuntime(ctx, plugin=self.plugin)
        self._alloc_seq = 0
        #: per-collective-key call counts (barrier, group create/split)
        self._coll_counts: Dict[object, int] = {}

    # -- infrastructure ------------------------------------------------------------

    @property
    def nranks(self) -> int:
        return self.runtime.world.nranks

    @property
    def world_group(self) -> DiompGroup:
        return self.runtime.world_group

    def segment(self, device_num: int = 0) -> GlobalSegment:
        return self.runtime.segment_of(self.rank, device_num)

    def stream_pool(self, device_num: int = 0) -> StreamPool:
        if device_num not in self._pools:
            self._pools[device_num] = StreamPool(
                self.ctx.sim,
                self.ctx.devices[device_num],
                params=self.runtime.params.stream_params,
                tracer=self.runtime.world.tracer,
                obs=self.runtime.obs,
            )
        return self._pools[device_num]

    def pool_for_endpoint(self, endpoint) -> StreamPool:
        for device_num, dev in enumerate(self.ctx.devices):
            if dev.device_id == endpoint:
                return self.stream_pool(device_num)
        return self.stream_pool(0)

    def stream_pools(self) -> Dict[int, StreamPool]:
        """Every pool this rank has materialized (device_num -> pool).

        The fence must drain all of them: intra-node RMA enqueues onto
        the pool of the *local endpoint's* device, which need not be
        the device the fence was called for.
        """
        return dict(self._pools)

    # -- symmetric allocation (collective) ----------------------------------------

    def _collective(self, kind: str, payload: object, decide, coordinate: bool = True):
        """One collective allocation or free: take its sequence number
        and rendezvous once, released after the coordination cost
        (allocations only).  Returns ``(seq, decide(seq, payloads))``."""
        seq = self._alloc_seq
        self._alloc_seq += 1
        delay = self.runtime.params.alloc_coordination_overhead if coordinate else 0.0
        return seq, self.runtime.rendezvous.arrive(
            (kind, seq), self.rank, payload, self.nranks,
            lambda payloads: decide(seq, payloads), delay,
        )

    def _free_once(self, kind: str, heap, where: object, offset: int) -> None:
        """Collective free of the block at ``offset`` of ``heap`` (named
        ``where``); every rank must free the same block (checked)."""

        def decide(seq, payloads):
            blocks = set(payloads.values())
            if len(blocks) != 1:
                raise CommunicationError(
                    f"{kind} mismatch at #{seq}: ranks free different "
                    f"buffers {sorted(blocks)}"
                )
            heap.free(offset)

        self._collective(kind, (where, offset), decide, coordinate=False)

    def alloc(
        self, nbytes: int, device_num: int = 0, virtual: bool = False
    ) -> GlobalBuffer:
        """``ompx_alloc``: collective symmetric allocation.

        Every rank must call with the same size and device (checked).
        The last arrival allocates the offset once from the device
        number's symmetric heap, so every rank receives the same one,
        preserving the offset-translation invariant.
        """

        def decide(seq, payloads):
            sizes = {p[0] for p in payloads.values()}
            devs = {p[1] for p in payloads.values()}
            if len(sizes) != 1 or len(devs) != 1:
                raise CommunicationError(
                    f"symmetric allocation mismatch at #{seq}: sizes={sizes} "
                    f"devices={devs}; use alloc_asymmetric for differing sizes"
                )
            return self.runtime.sym_heap(device_num).alloc(nbytes)

        seq, offset = self._collective("sym-alloc", (nbytes, device_num), decide)
        seg = self.segment(device_num)
        seg.track_occupancy("symmetric", self.runtime.sym_heaps[device_num])
        virtual = virtual or self.runtime.world.analytic
        local = seg.place(offset, nbytes, virtual, f"sym#{seq}")
        return GlobalBuffer(self.rank, device_num, offset, nbytes, local)

    def free(self, gbuf: GlobalBuffer) -> None:
        """Collective free of a symmetric allocation; every rank must
        free the same buffer (checked)."""
        if gbuf.freed:
            raise CommunicationError("double free of GlobalBuffer")
        heap = self.runtime.sym_heaps[gbuf.device_num]
        self._free_once("sym-free", heap, gbuf.device_num, gbuf.offset)
        seg = self.segment(gbuf.device_num)
        seg.track_occupancy("symmetric", heap)
        seg.device.memory.free(gbuf.local)
        gbuf.freed = True

    # -- host-side global memory (omp_alloc, §3.2) --------------------------------

    def alloc_host(self, nbytes: int) -> HostGlobalBuffer:
        """``omp_alloc`` into the host-side global space: collective,
        symmetric, remotely accessible via put/get like device memory."""

        def decide(seq, payloads):
            sizes = set(payloads.values())
            if len(sizes) != 1:
                raise CommunicationError(
                    f"host symmetric allocation mismatch at #{seq}: {sizes}"
                )
            return self.runtime.host_heap.alloc(nbytes)

        _seq, offset = self._collective("host-alloc", nbytes, decide)
        self.runtime.obs.gauge(
            "segment.occupancy_bytes", "allocated bytes by rank/region"
        ).set(self.runtime.host_heap.allocated_bytes, rank=self.rank, region="host")
        hseg = self.runtime.host_segment_of(self.rank)
        return HostGlobalBuffer(self.rank, hseg, offset, nbytes)

    def free_host(self, hbuf: HostGlobalBuffer) -> None:
        """Collective free of a host global allocation; every rank must
        free the same buffer (checked)."""
        if hbuf.freed:
            raise CommunicationError("double free of HostGlobalBuffer")
        self._free_once("host-free", self.runtime.host_heap, "host", hbuf.offset)
        self.runtime.obs.gauge("segment.occupancy_bytes").set(
            self.runtime.host_heap.allocated_bytes, rank=self.rank, region="host"
        )
        hbuf.freed = True

    # -- asymmetric allocation (collective) -------------------------------------------

    def alloc_asymmetric(
        self, nbytes: int, device_num: int = 0, virtual: bool = False
    ) -> AsymmetricBuffer:
        """``ompx_alloc`` with differing sizes: the second-level-pointer
        scheme of Fig. 2.  ``nbytes`` may be 0 (no local block); every
        rank must pass the same device (checked)."""
        if nbytes < 0:
            raise CommunicationError(f"negative asymmetric size {nbytes}")
        # The data block honors analytic mode; the pointer slot stays
        # real — remote dereferences read its value.
        virtual = virtual or self.runtime.world.analytic

        def decide(seq, payloads):
            devs = {p[1] for p in payloads.values()}
            if len(devs) != 1:
                raise CommunicationError(
                    f"asymmetric allocation mismatch at #{seq}: devices={devs}"
                )
            # One uniform 32-byte wrapper in the symmetric region.  Every
            # rank's data block is allocated and its slot placed holding
            # the block's address (what a remote second-level dereference
            # reads) before any rank leaves.
            slot_offset = self.runtime.sym_heap(device_num).alloc(
                SECOND_LEVEL_POINTER_BYTES
            )
            sizes = tuple(payloads[rank][0] for rank in range(len(payloads)))
            blocks = []
            for rank, size in enumerate(sizes):
                seg = self.runtime.segment_of(rank, device_num)
                data = seg.alloc_local(size, payloads[rank][2], f"asym#{seq}") if size else None
                slot = seg.place(
                    slot_offset, SECOND_LEVEL_POINTER_BYTES, False, f"asym-slot#{seq}"
                )
                slot.as_array(np.int64, count=1)[0] = data.address if data else 0
                blocks.append((data, slot))
            addrs = tuple(data.address if data else 0 for data, _slot in blocks)
            return slot_offset, sizes, addrs, blocks

        seq, (slot_offset, sizes, addrs, blocks) = self._collective(
            "asym-alloc", (nbytes, device_num, virtual), decide
        )
        self.segment(device_num).track_occupancy(
            "symmetric", self.runtime.sym_heaps[device_num]
        )
        data, slot = blocks[self.rank]
        buf = AsymmetricBuffer(self.rank, device_num, slot_offset, sizes, data, addrs)
        buf.slot_buffer = slot
        # All ranks must share one handle id for cache coherence: derive
        # it deterministically from the allocation sequence.
        buf.handle_id = ("asym", id(self.runtime), seq)  # type: ignore[assignment]
        if self.runtime.params.pointer_prefetch and self.pointer_cache.enabled:
            self._prefetch_pointers(buf, addrs)
        return buf

    def _prefetch_pointers(
        self, buf: AsymmetricBuffer, addrs: Tuple[int, ...]
    ) -> None:
        """Bulk second-level-pointer prefetch: every rank already holds
        all data addresses from the allocation rendezvous, so one AM
        round (one ``8 * nranks``-byte exchange with a neighbour, the
        cost of an all-gather round in the ring model) publishes them
        into the local :class:`RemotePointerCache`.  Later remote
        accesses then never pay the per-miss blocking pointer fetch."""
        if self.nranks > 1:
            peer = (self.rank + 1) % self.nranks
            self.client.am_request(
                peer,
                "diomp.asym-prefetch",
                buf.handle_id,
                payload_bytes=SECOND_LEVEL_POINTER_BYTES * self.nranks,
            ).wait()
        inserted = 0
        for rank, addr in enumerate(addrs):
            if addr != 0:
                self.pointer_cache.insert(buf.handle_id, rank, addr)
                inserted += 1
        if inserted:
            self.rma._m_ptr.inc(inserted, event="prefetch", rank=self.rank)

    def free_asymmetric(self, abuf: AsymmetricBuffer) -> None:
        """Collective free; centrally invalidates pointer caches.  Every
        rank must free the same buffer (checked)."""
        if abuf.freed:
            raise CommunicationError("double free of AsymmetricBuffer")
        heap = self.runtime.sym_heaps[abuf.device_num]
        self._free_once("asym-free", heap, abuf.device_num, abuf.slot_offset)
        seg = self.segment(abuf.device_num)
        seg.track_occupancy("symmetric", heap)
        seg.device.memory.free(abuf.slot_buffer)
        if abuf.data is not None:
            seg.free_local(abuf.data)
        abuf.freed = True
        # Central lifecycle management: every rank's cache drops the
        # handle (valid-for-lifetime guarantee, §3.2).
        for handle in self.runtime.handles:
            handle.pointer_cache.invalidate_handle(abuf.handle_id)

    # -- RMA -------------------------------------------------------------------

    def put(
        self,
        target_rank: int,
        target: RmaTarget,
        src: MemRef,
        target_offset: int = 0,
        device_num: int = 0,
    ) -> None:
        """``ompx_put(dst, src, size)`` — completes at the next fence."""
        self.rma.put(target_rank, target, src, target_offset, device_num)

    def get(
        self,
        target_rank: int,
        target: RmaTarget,
        dst: MemRef,
        target_offset: int = 0,
        device_num: int = 0,
    ) -> None:
        """``ompx_get`` — completes at the next fence."""
        self.rma.get(target_rank, target, dst, target_offset, device_num)

    def fence(self, device_num: int = 0, group: Optional[DiompGroup] = None) -> None:
        """``ompx_fence``: local completion of outstanding RMA.

        Passing an ``ompx_group_t`` scopes the fence to operations
        targeting that group's members (§3.3).
        """
        self.rma.fence(device_num, group=group)

    def barrier(self, group: Optional[DiompGroup] = None) -> None:
        """``ompx_barrier``: fence + group-wide synchronization.

        A sub-group barrier fences only the RMA targeting that group's
        members; operations aimed at non-members stay pending until
        their own fence (§3.3 group-scoped completion).
        """
        scope = group
        group = group or self.world_group
        if not group.contains(self.rank):
            raise CommunicationError(
                f"rank {self.rank} called barrier on group {group.group_id} "
                "it does not belong to"
            )
        self.fence(group=scope)
        with self.runtime.obs.span("barrier", rank=self.rank, group=group.group_id):
            rounds = max(1, int(np.ceil(np.log2(max(group.size, 2)))))
            self.runtime.obs.rendezvous("barrier", group.group_id, self.rank, group.size)
            self._arrive(
                ("barrier", group.group_id), self.rank, None, group.size,
                delay=rounds * self.runtime.params.barrier_step_overhead,
            )

    # -- groups ------------------------------------------------------------------

    def _arrive(self, key: object, member: int, payload: object, size: int, delay: float = 0.0):
        """Arrive at this rank's next point of collective ``key``.  Points
        are sequenced per key: every member calls a collective the same
        number of times, so per-rank counts agree."""
        seq = self._coll_counts.get(key, 0)
        self._coll_counts[key] = seq + 1
        return self.runtime.rendezvous.arrive((key, seq), member, payload, size, delay=delay)

    def group_create(self, ranks: Sequence[int]) -> DiompGroup:
        """Create a group (collective among its members; every member
        must call with the same rank list)."""
        ranks = tuple(ranks)
        if self.rank not in ranks:
            raise CommunicationError(
                f"rank {self.rank} cannot create a group it is not in"
            )
        key_rank = ranks.index(self.rank)
        groups = self._arrive(
            ("group-create", ranks),
            key_rank,
            DiompGroup.create(
                ranks,
                self.runtime._devices_by_rank,
                group_id=self.runtime.next_group_id(),
            )
            if key_rank == 0
            else None,
            len(ranks),
        )
        return groups[0]

    def group_merge(self, a: DiompGroup, b: DiompGroup) -> DiompGroup:
        """Merge two groups into a new one (collective among the union)."""
        combined = list(a.ranks) + [r for r in b.ranks if r not in a.ranks]
        return self.group_create(combined)

    def group_split(self, group: DiompGroup, color: int) -> Optional[DiompGroup]:
        """Split a group by color (members with negative color opt out)."""
        payloads = self._arrive(
            ("group-split", group.group_id), group.group_rank(self.rank), color, group.size
        )
        if color < 0:
            return None
        members = tuple(
            group.ranks[gr] for gr, c in sorted(payloads.items()) if c == color
        )
        return self.group_create(members)

    # -- OMPCCL collectives ----------------------------------------------------------

    def _buffers(self, buf) -> List[MemRef]:
        if isinstance(buf, MemRef):
            return [buf]
        if isinstance(buf, GlobalBuffer):
            return [buf.memref()]
        return [b.memref() if isinstance(b, GlobalBuffer) else b for b in buf]

    def bcast(
        self,
        buf,
        root_rank: int = 0,
        group: Optional[DiompGroup] = None,
        algo: Optional[str] = None,
    ) -> None:
        """``ompx_bcast(ptr, size, group)``: device-side broadcast.

        ``root_rank`` is a world rank; the broadcast originates from
        its first device slot in the group.  ``algo`` forces a
        collective algorithm ("ring" | "tree" | "hier_ring"); the
        default auto-selects from topology and message size.
        """
        group = group or self.world_group
        root_slot = group.device_slots(root_rank)[0]
        self.runtime.ompccl.bcast(
            group, self.ctx, self._buffers(buf), root_slot, algo=algo
        )

    def allreduce(
        self,
        send,
        recv,
        dtype=np.float64,
        op=np.add,
        group: Optional[DiompGroup] = None,
        algo: Optional[str] = None,
    ) -> None:
        """``ompx_allreduce``: device-side allreduce over the group."""
        group = group or self.world_group
        self.runtime.ompccl.allreduce(
            group, self.ctx, self._buffers(send), self._buffers(recv), dtype, op,
            algo=algo,
        )

    def reduce(
        self,
        send,
        recv,
        root_rank: int = 0,
        dtype=np.float64,
        op=np.add,
        group: Optional[DiompGroup] = None,
        algo: Optional[str] = None,
    ) -> None:
        """``ompx_reduce`` toward ``root_rank``'s first device slot."""
        group = group or self.world_group
        root_slot = group.device_slots(root_rank)[0]
        recv_list = self._buffers(recv) if recv is not None else [None] * len(
            self.ctx.devices
        )
        self.runtime.ompccl.reduce(
            group, self.ctx, self._buffers(send), recv_list, root_slot, dtype, op,
            algo=algo,
        )

    def allgather(
        self,
        send,
        recv,
        group: Optional[DiompGroup] = None,
        algo: Optional[str] = None,
    ) -> None:
        """``ompx_allgather``: each device slot contributes its send
        buffer; every receive buffer holds all blocks in slot order."""
        group = group or self.world_group
        self.runtime.ompccl.allgather(
            group, self.ctx, self._buffers(send), self._buffers(recv), algo=algo
        )

    def reduce_scatter(
        self,
        send,
        recv,
        dtype=np.float64,
        op=np.add,
        group: Optional[DiompGroup] = None,
        algo: Optional[str] = None,
    ) -> None:
        """``ompx_reduce_scatter``: element-wise reduction of every
        slot's send buffer; slot ``i`` receives reduced block ``i``."""
        group = group or self.world_group
        self.runtime.ompccl.reduce_scatter(
            group, self.ctx, self._buffers(send), self._buffers(recv), dtype, op,
            algo=algo,
        )

    def alltoall(
        self,
        send,
        recv,
        group: Optional[DiompGroup] = None,
        algo: Optional[str] = None,
    ) -> None:
        """``ompx_alltoall``: block ``j`` of slot ``i``'s send buffer
        lands as block ``i`` of slot ``j``'s receive buffer."""
        group = group or self.world_group
        self.runtime.ompccl.alltoall(
            group, self.ctx, self._buffers(send), self._buffers(recv), algo=algo
        )
