"""One-sided RMA with hierarchical path selection (§3.2).

``ompx_put``/``ompx_get`` resolve the remote address (symmetric offset
translation, or the second-level-pointer protocol for asymmetric
buffers) and then pick the best physical path:

* **inter-node** → the conduit (GASNet-EX or GPI-2) one-sided path,
* **intra-node, different process** → IPC: the first access to a
  peer's segment opens an IPC memory handle (one-time driver cost,
  then cached), after which transfers ride the direct NVLink/xGMI or
  PCIe path — never the NIC,
* **intra-node, same process, different device** → GPUDirect P2P:
  peer access is enabled once per ordered pair, then direct transfers,
* **same device** → a stream-ordered local copy.

Device-side operations occupy streams from the rank's
:class:`~repro.core.streams.StreamPool` (lazy/reused/bounded);
``ompx_fence`` drains network events and streams together through the
pool's hybrid polling loop.

**Small-message aggregation** (off by default, see
:class:`RmaAggregationParams`): conduit-path operations at or below an
eligibility size are parked in per-(rank, op, endpoint) coalescing
queues instead of being issued immediately, and flushed as *one*
conduit message per destination — at the next ``ompx_fence``, or
earlier when a queue hits its op-count or byte threshold.  This
amortizes the per-operation conduit cost (initiator software + NIC
message overhead) that dominates the small-message regime of the
paper's Fig. 3/4 sweeps, mirroring GASNet-EX access-region batching.
One-sided semantics are unchanged: nothing completes before the fence
either way, and batch data still lands atomically at the simulated
completion time.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Set, Tuple, Union

import numpy as np

from repro.cluster.memref import MemRef
from repro.core.asymmetric import AsymmetricBuffer
from repro.core.globalmem import GlobalBuffer, HostGlobalBuffer
from repro.faults import RetryingOp
from repro.hardware.topology import PathKind
from repro.util.errors import CommunicationError, ConfigurationError, FatalError
from repro.util.units import KiB

#: put/get targets: symmetric device buffer, host buffer, asymmetric
#: buffer, or raw address
RmaTarget = Union[GlobalBuffer, HostGlobalBuffer, AsymmetricBuffer, int]


@dataclasses.dataclass(frozen=True)
class RmaAggregationParams:
    """Small-message aggregation knobs (ablation switch, off by
    default so baseline runs stay bit-identical)."""

    enabled: bool = False
    #: operations of at most this many bytes are coalesced; larger
    #: ones always take the direct conduit path
    eligible_bytes: int = 4 * KiB
    #: a queue is flushed early once it holds this many operations
    max_batch_ops: int = 64
    #: ... or once its payload reaches this many bytes
    max_batch_bytes: int = 64 * KiB

    def __post_init__(self) -> None:
        if self.eligible_bytes < 0:
            raise ConfigurationError("eligible_bytes must be non-negative")
        if self.max_batch_ops < 1:
            raise ConfigurationError("max_batch_ops must be >= 1")
        if self.max_batch_bytes < 1:
            raise ConfigurationError("max_batch_bytes must be >= 1")


@dataclasses.dataclass
class _PendingOp:
    """One issued-but-unfenced operation (conduit or intra-node)."""

    target_rank: int
    event: object
    #: pooled stream the operation occupies (intra-node path only) —
    #: lets a group-scoped fence drain exactly the streams its member
    #: operations ride on
    stream: Optional[object] = None

    @property
    def failure(self):
        return getattr(self.event, "failure", None)


@dataclasses.dataclass
class _AggBatch:
    """One destination's coalescing queue between fences."""

    target_rank: int
    op: str
    ops: List[Tuple[int, MemRef]] = dataclasses.field(default_factory=list)
    nbytes: int = 0


class _FutureEvent:
    """Adapts a sim Future to the conduit event interface."""

    def __init__(self, future) -> None:
        self._future = future

    def test(self) -> bool:
        return self._future.poll()

    def wait(self):
        return self._future.wait()

    @property
    def failure(self):
        """Terminal error of a failed operation (None if OK/pending)."""
        return getattr(self._future, "error", None)

    @property
    def eta(self):
        """Expected completion time (hybrid-polling hint)."""
        return getattr(self._future, "eta", None)


class DiompRma:
    """Per-rank RMA engine."""

    def __init__(self, diomp) -> None:
        self.diomp = diomp
        #: outstanding operations drained by fences
        self._outstanding: List[_PendingOp] = []
        #: small-message coalescing queues, keyed by
        #: (target_rank, op, remote space, local endpoint)
        self._agg_queues: Dict[Tuple, _AggBatch] = {}
        self._agg = diomp.runtime.params.aggregation
        #: (target_rank, device_num) pairs whose segment IPC handle is open
        self._ipc_opened: Set[Tuple[int, int]] = set()
        #: ordered device pairs with peer access enabled by this rank
        self._peer_enabled: Set[Tuple[object, object]] = set()
        # -- metrics (one registry per world; see repro.obs) --
        self._obs = diomp.runtime.obs
        registry = self._obs.registry
        self._m_agg_batches = registry.counter(
            "rma.agg.batches", "flushed aggregation batches by op/reason/rank"
        )
        self._m_agg_ops = registry.counter(
            "rma.agg.batched_ops", "operations coalesced into batches by op/rank"
        )
        self._m_agg_bytes = registry.counter(
            "rma.agg.bytes", "payload bytes moved in batches by op/rank"
        )
        self._m_ops = registry.counter(
            "rma.ops", "one-sided operations by op/path/rank"
        )
        self._m_bytes = registry.counter(
            "rma.bytes", "one-sided payload bytes by op/path/rank"
        )
        self._m_ptr = registry.counter(
            "rma.pointer_cache",
            "second-level pointer lookups by event (hit|miss)",
        )
        self._m_ipc = registry.counter(
            "rma.ipc_open", "one-time IPC handle opens by rank"
        )
        self._m_fence = registry.histogram(
            "rma.fence_poll_iterations",
            "hybrid-poll iterations per ompx_fence",
            bounds=(0, 1, 2, 4, 8, 16, 32, 64, 128),
        )

    # -- legacy statistics (read-through onto the metrics registry) ---------------

    @property
    def puts(self) -> int:
        """``ompx_put`` count (0 when observability is disabled)."""
        return int(self._m_ops.value(op="put", rank=self.diomp.rank))

    @property
    def gets(self) -> int:
        """``ompx_get`` count (0 when observability is disabled)."""
        return int(self._m_ops.value(op="get", rank=self.diomp.rank))

    @property
    def ipc_opens(self) -> int:
        """One-time IPC handle opens performed by this rank."""
        return int(self._m_ipc.value(rank=self.diomp.rank))

    @property
    def pointer_fetches(self) -> int:
        """Remote second-level-pointer fetches (= pointer-cache misses)."""
        return int(self._m_ptr.value(event="miss", rank=self.diomp.rank))

    # -- address resolution -------------------------------------------------------

    def _remote_address(
        self,
        target_rank: int,
        target: RmaTarget,
        target_offset: int,
        nbytes: int,
        device_num: int,
    ) -> int:
        runtime = self.diomp.runtime
        if isinstance(target, int):
            return target + target_offset
        if isinstance(target, GlobalBuffer):
            if target.freed:
                raise CommunicationError("RMA on a freed GlobalBuffer")
            if target_offset + nbytes > target.size:
                raise CommunicationError(
                    f"RMA range [{target_offset}, +{nbytes}) exceeds buffer "
                    f"of {target.size} bytes"
                )
            seg = runtime.segment_of(target_rank, target.device_num)
            return seg.address_of(target.offset + target_offset)
        if isinstance(target, HostGlobalBuffer):
            if target.freed:
                raise CommunicationError("RMA on a freed HostGlobalBuffer")
            if target_offset + nbytes > target.size:
                raise CommunicationError(
                    f"RMA range [{target_offset}, +{nbytes}) exceeds host "
                    f"buffer of {target.size} bytes"
                )
            hseg = runtime.host_segment_of(target_rank)
            return hseg.address_of(target.offset + target_offset)
        if isinstance(target, AsymmetricBuffer):
            return self._resolve_asymmetric(target, target_rank, target_offset, nbytes)
        raise CommunicationError(f"unsupported RMA target {type(target).__name__}")

    def _resolve_asymmetric(
        self, target: AsymmetricBuffer, target_rank: int, offset: int, nbytes: int
    ) -> int:
        """The two-step protocol: dereference the remote second-level
        pointer (cached), then address the data block."""
        if target.freed:
            raise CommunicationError("RMA on a freed AsymmetricBuffer")
        if offset + nbytes > target.size_on(target_rank):
            raise CommunicationError(
                f"RMA range [{offset}, +{nbytes}) exceeds rank {target_rank}'s "
                f"asymmetric block of {target.size_on(target_rank)} bytes"
            )
        if target.data_addresses[target_rank] == 0:
            # A NULL second-level pointer: the target rank allocated
            # zero bytes, so there is no data block to address.  (The
            # size check above already rejects nbytes > 0 here, but a
            # zero-byte RMA must not fabricate address 0 + offset.)
            raise CommunicationError(
                f"rank {target_rank} holds no data block for asymmetric "
                f"buffer {target.handle_id} (second-level pointer is NULL)"
            )
        cache = self.diomp.pointer_cache
        data_addr = cache.lookup(target.handle_id, target_rank)
        if data_addr is None:
            # First step: fetch the 8-byte pointer value from the
            # symmetric slot on the target (a real, blocking get,
            # routed and counted like any other get).
            self._pointer_fetch(target, target_rank)
            self._m_ptr.inc(event="miss", rank=self.diomp.rank)
            data_addr = target.data_addresses[target_rank]
            cache.insert(target.handle_id, target_rank, data_addr)
        else:
            self._m_ptr.inc(event="hit", rank=self.diomp.rank)
        return data_addr + offset

    def _pointer_fetch(self, target: AsymmetricBuffer, target_rank: int) -> None:
        """One blocking 8-byte get of the remote second-level pointer.

        The fetch honours hierarchical path selection (a same-node
        target is read over IPC / a local D2H copy, not the NIC) and
        shows up in ``rma.ops``/``rma.bytes`` like any other get.  It
        stays off the stream pool: the issuing rank blocks on it, so
        there is no asynchronous device occupancy to account.
        """
        diomp = self.diomp
        runtime = diomp.runtime
        world = runtime.world
        seg = runtime.segment_of(target_rank, target.device_num)
        slot_addr = seg.address_of(target.slot_offset)
        scratch = np.zeros(8, dtype=np.uint8)
        local = MemRef.host(diomp.ctx.node, scratch)
        if (
            world.same_node(diomp.rank, target_rank)
            and runtime.params.hierarchical_paths
        ):
            remote = seg.conduit_segment.resolve(slot_addr, 8)
            if target_rank != diomp.rank:
                path_kind = "ipc"
                key = (target_rank, target.device_num)
                if key not in self._ipc_opened:
                    diomp.ctx.sim.sleep(world.platform.node.gpu.ipc_open_overhead)
                    self._ipc_opened.add(key)
                    self._m_ipc.inc(rank=diomp.rank)
            else:
                path_kind = "local"
            params = runtime.params

            def issue():
                return world.transfer(
                    remote.endpoint,
                    local.endpoint,
                    8,
                    operation="get",
                    gpu_memory=True,
                    on_complete=lambda: local.copy_from(remote),
                    extra_latency=params.ipc_op_overhead,
                    fault_site="rma.intra",
                    initiator=diomp.rank,
                )

            plan = world.fault_plan
            if plan is None:
                fut = issue()
            else:
                fut = RetryingOp(
                    world.sim,
                    issue,
                    runtime.conduit.params.retry,
                    obs=runtime.obs,
                    labels=dict(conduit="intra", op="get", rank=diomp.rank),
                    description=f"ptr-fetch-r{diomp.rank}",
                ).future
            self._count_op("get", path_kind, 8)
            fut.wait()
        else:
            self._count_op("get", "conduit", 8)
            diomp.client.get_nb(target_rank, slot_addr, local).wait()

    # -- data movement -----------------------------------------------------------

    def put(
        self,
        target_rank: int,
        target: RmaTarget,
        src: MemRef,
        target_offset: int = 0,
        device_num: int = 0,
    ) -> None:
        """``ompx_put``: one-sided, completes at the next fence."""
        with self._obs.span("rma.put", rank=self.diomp.rank, target=target_rank):
            self._rma("put", target_rank, target, src, target_offset, device_num)

    def get(
        self,
        target_rank: int,
        target: RmaTarget,
        dst: MemRef,
        target_offset: int = 0,
        device_num: int = 0,
    ) -> None:
        """``ompx_get``: one-sided fetch, completes at the next fence."""
        with self._obs.span("rma.get", rank=self.diomp.rank, target=target_rank):
            self._rma("get", target_rank, target, dst, target_offset, device_num)

    def _rma(
        self,
        op: str,
        target_rank: int,
        target: RmaTarget,
        local: MemRef,
        target_offset: int,
        device_num: int,
    ) -> None:
        diomp = self.diomp
        world = diomp.runtime.world
        if not 0 <= target_rank < world.nranks:
            raise CommunicationError(f"rank {target_rank} out of range")
        addr = self._remote_address(
            target_rank, target, target_offset, local.nbytes, device_num
        )
        if (
            world.same_node(diomp.rank, target_rank)
            and diomp.runtime.params.hierarchical_paths
            and not isinstance(target, HostGlobalBuffer)
        ):
            self._intra_node(op, target_rank, addr, local, device_num)
        elif (
            self._agg.enabled
            and not isinstance(target, int)
            and local.nbytes <= self._agg.eligible_bytes
        ):
            # Raw-address targets bypass aggregation: without the
            # buffer handle the remote memory space is unknown, so the
            # queue key cannot guarantee endpoint uniformity.
            self._enqueue_aggregated(op, target_rank, target, addr, local, device_num)
            self._count_op(op, "conduit", local.nbytes)
        else:
            client = diomp.client
            if op == "put":
                event = client.put_nb(target_rank, addr, local)
            else:
                event = client.get_nb(target_rank, addr, local)
            self._outstanding.append(_PendingOp(target_rank, event))
            self._count_op(op, "conduit", local.nbytes)

    def _count_op(self, op: str, path: str, nbytes: int) -> None:
        rank = self.diomp.rank
        self._m_ops.inc(op=op, path=path, rank=rank)
        self._m_bytes.inc(nbytes, op=op, path=path, rank=rank)

    # -- small-message aggregation -------------------------------------------------

    def _enqueue_aggregated(
        self,
        op: str,
        target_rank: int,
        target: RmaTarget,
        addr: int,
        local: MemRef,
        device_num: int,
    ) -> None:
        """Park one small conduit operation in its coalescing queue."""
        space = (
            ("host",)
            if isinstance(target, HostGlobalBuffer)
            else ("dev", device_num)
        )
        key = (target_rank, op, space, local.endpoint)
        batch = self._agg_queues.get(key)
        if batch is None:
            batch = self._agg_queues[key] = _AggBatch(target_rank, op)
        batch.ops.append((addr, local))
        batch.nbytes += local.nbytes
        if len(batch.ops) >= self._agg.max_batch_ops:
            self._flush_batch(key, reason="count")
        elif batch.nbytes >= self._agg.max_batch_bytes:
            self._flush_batch(key, reason="size")

    def _flush_batch(self, key: Tuple, reason: str) -> None:
        """Issue one queue as a single conduit message."""
        batch = self._agg_queues.pop(key)
        client = self.diomp.client
        if batch.op == "put":
            event = client.put_batch_nb(batch.target_rank, batch.ops)
        else:
            event = client.get_batch_nb(batch.target_rank, batch.ops)
        self._outstanding.append(_PendingOp(batch.target_rank, event))
        rank = self.diomp.rank
        self._m_agg_batches.inc(op=batch.op, reason=reason, rank=rank)
        self._m_agg_ops.inc(len(batch.ops), op=batch.op, rank=rank)
        self._m_agg_bytes.inc(batch.nbytes, op=batch.op, rank=rank)

    def _flush_aggregation(self, group=None, reason: str = "fence") -> None:
        """Flush coalescing queues (all, or only those a group fence
        is responsible for)."""
        keys = [
            key
            for key, batch in self._agg_queues.items()
            if group is None or group.contains(batch.target_rank)
        ]
        for key in keys:
            self._flush_batch(key, reason=reason)

    def _intra_node(
        self, op: str, target_rank: int, addr: int, local: MemRef, device_num: int
    ) -> None:
        """IPC / GPUDirect-P2P path: direct device-to-device transfer
        that never touches the NIC."""
        diomp = self.diomp
        world = diomp.runtime.world
        remote_seg = diomp.runtime.segment_of(target_rank, device_num)
        buffer, buf_offset = remote_seg.device.memory.resolve(addr)
        if buf_offset + local.nbytes > buffer.size:
            raise CommunicationError("intra-node RMA range spans allocations")
        remote = MemRef.device(buffer, offset=buf_offset, nbytes=local.nbytes)
        params = diomp.runtime.params
        if target_rank != diomp.rank:
            # Cross-process on one node: IPC handle, opened once.
            path_kind = "ipc"
            key = (target_rank, device_num)
            if key not in self._ipc_opened:
                diomp.ctx.sim.sleep(world.platform.node.gpu.ipc_open_overhead)
                self._ipc_opened.add(key)
                self._m_ipc.inc(rank=diomp.rank)
        else:
            # Same process, another bound device: GPUDirect peer access.
            src_dev = local.endpoint
            dst_dev = remote.endpoint
            path_kind = "local" if src_dev == dst_dev else "p2p"
            if src_dev != dst_dev:
                pair = (src_dev, dst_dev)
                if pair not in self._peer_enabled:
                    path = world.topology.path(src_dev, dst_dev)
                    if path.kind is PathKind.PEER_DIRECT and path.peer_capable:
                        world.peer_access.ensure_enabled(src_dev, dst_dev)
                        diomp.ctx.sim.sleep(params.peer_enable_overhead)
                    self._peer_enabled.add(pair)
        self._count_op(op, path_kind, local.nbytes)
        if op == "put":
            src_ref, dst_ref = local, remote
        else:
            src_ref, dst_ref = remote, local

        # Causal context: the open rma.put/rma.get span issuing this
        # transfer.  Delivery lands on the target rank's track (IPC /
        # P2P arrows in the trace); the stream completion links back
        # onto our own track so a draining fence observes it.
        obs = self._obs
        ctx = obs.capture(track=f"rank{diomp.rank}")
        sim = world.sim

        def apply_copy() -> None:
            dst_ref.copy_from(src_ref)
            if ctx is not None and target_rank != diomp.rank:
                obs.deliver(f"rma.deliver.{path_kind}", ctx, sim.now, rank=target_rank)

        def stream_done() -> None:
            if ctx is not None:
                obs.deliver("stream.complete", ctx, sim.now, rank=diomp.rank)

        def issue():
            return world.transfer(
                src_ref.endpoint,
                dst_ref.endpoint,
                local.nbytes,
                operation=op,
                gpu_memory=True,
                on_complete=apply_copy,
                extra_latency=params.ipc_op_overhead,
                fault_site="rma.intra",
                initiator=diomp.rank,
            )

        # The transfer occupies a pooled stream (the device DMA engine)
        # for its unloaded duration; the fence drains both.
        pool = diomp.pool_for_endpoint(local.endpoint)
        est = world.fabric.unloaded_time(
            src_ref.endpoint, dst_ref.endpoint, local.nbytes, operation=op
        )
        plan = world.fault_plan
        if plan is None:
            fut = issue()
            stream = pool.acquire()
            stream.enqueue(est, on_complete=stream_done, label=f"diomp-{op}")
        else:
            # Under fault injection the stream is acquired up front and
            # occupied from inside the issue closure: every retry
            # attempt redoes the DMA work, so each re-issue must
            # re-enqueue the stream, not just the first.
            stream = pool.acquire()

            def issue_attempt():
                stream.enqueue(est, on_complete=stream_done, label=f"diomp-{op}")
                return issue()

            fut = RetryingOp(
                world.sim,
                issue_attempt,
                diomp.runtime.conduit.params.retry,
                obs=diomp.runtime.obs,
                labels=dict(conduit="intra", op=op, rank=diomp.rank),
                description=f"intra-{op}-r{diomp.rank}",
            ).future
        self._outstanding.append(
            _PendingOp(target_rank, _FutureEvent(fut), stream)
        )

    # -- completion --------------------------------------------------------------

    def fence(self, device_num: int = 0, group=None) -> int:
        """``ompx_fence``: complete outstanding RMA issued by this rank.

        With a :class:`~repro.core.group.DiompGroup`, only operations
        targeting the group's members are completed (the paper's
        group-scoped fence, §3.3); operations to other ranks remain in
        flight — including their device streams, which keep executing.
        Returns the number of hybrid-poll iterations.

        A full fence drains all of this rank's stream pools, not just
        ``device_num``'s: intra-node RMA enqueues onto the pool of the
        local endpoint's device, which may differ from the fence's
        device.  A group-scoped fence instead drains exactly the
        streams its member operations ride on.  Aggregation queues for
        fenced destinations are flushed first, so a fence always
        completes every operation issued before it.  Operations whose
        recovery was exhausted surface here as
        :class:`~repro.util.errors.FatalError`.
        """
        self._flush_aggregation(group=group)
        if group is None:
            pending, self._outstanding = self._outstanding, []
        else:
            pending = [
                p for p in self._outstanding if group.contains(p.target_rank)
            ]
            self._outstanding = [
                p for p in self._outstanding if not group.contains(p.target_rank)
            ]
        events = [p.event for p in pending]
        pool = self.diomp.stream_pool(device_num)
        with self._obs.span("rma.fence", rank=self.diomp.rank, events=len(events)):
            if group is None:
                iterations = pool.hybrid_fence(events)
                for other_num, other_pool in self.diomp.stream_pools().items():
                    if other_num != device_num:
                        iterations += other_pool.hybrid_fence([])
            else:
                # Drain only the streams attributable to member-targeted
                # operations; non-member work stays in flight.
                streams: List[object] = []
                for p in pending:
                    if p.stream is not None and p.stream not in streams:
                        streams.append(p.stream)
                iterations = pool.hybrid_fence(events, streams=streams)
        failed = [
            (p.target_rank, p.failure) for p in pending if p.failure is not None
        ]
        if failed:
            rank, first = failed[0]
            error = FatalError(
                f"ompx_fence: {len(failed)} unrecoverable operation(s); "
                f"first targeted rank {rank}: {first}"
            )
            error.__cause__ = first
            raise error
        self._m_fence.observe(iterations, rank=self.diomp.rank)
        return iterations

    @property
    def pending_ops(self) -> int:
        """Operations not yet completed (issued + queued-for-aggregation).

        Successfully completed operations are pruned, but *failed* ones
        are retained: a conduit event's ``test()`` also returns True on
        terminal failure, and polling this property must never swallow
        an error the next fence is obligated to raise.
        """
        self._outstanding = [
            p
            for p in self._outstanding
            if not p.event.test() or p.failure is not None
        ]
        queued = sum(len(b.ops) for b in self._agg_queues.values())
        return len(self._outstanding) + queued
