"""The conduit client core and the GASNet-EX conduit.

API shape follows GASNet-EX:

* every rank *attaches* segments (registered memory regions a remote
  peer may target by address),
* ``put_nb`` / ``get_nb`` are fully one-sided — the target rank's CPU
  does not participate; the conduit resolves the remote address against
  the target's registered segments,
* operations return :class:`ConduitEvent` handles supporting ``test``
  (non-blocking) and ``wait``; DiOMP's hybrid polling loop drains
  their completion ``future``,
* active messages carry small control payloads and run a registered
  handler on the target at delivery time (used for allocation
  coordination and OMPCCL UniqueID exchange).

:class:`ConduitClient` implements all of that once; GASNet-EX and
GPI-2 (:mod:`repro.gpi2`) are thin subclasses that differ only in
their calibration (:class:`ConduitParams`), their conduit name (the
``conduit=`` metric label), their synthetic host-segment base, and —
for GPI-2 — queues and notifications.

Timing: per-op initiator overhead + NIC message overhead are added as
extra latency on the fabric transfer; protocol efficiency scales the
achievable fraction of link bandwidth, with large messages pipelining
slightly better (matching measured GASNet-EX behaviour).
"""

from __future__ import annotations

import dataclasses
import functools
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.cluster.memref import MemRef
from repro.cluster.world import World
from repro.faults import RetryingOp, RetryPolicy
from repro.network.fabric import TransferRecord
from repro.obs import size_class
from repro.sim import Future
from repro.util.errors import CommunicationError
from repro.util.units import MiB, US


#: fault-plan site of a conduit transfer, by op
_FAULT_SITES = {"put": "conduit.put", "get": "conduit.get"}


@dataclasses.dataclass(frozen=True)
class ConduitParams:
    """Calibration constants for a conduit's software stack.

    Each conduit subclass gives the per-op overheads and bandwidth
    efficiencies their defaults.
    """

    #: initiator-side software cost of issuing one put
    put_overhead: float
    #: initiator-side software cost of issuing one get
    get_overhead: float
    #: cost of one AM (short control message) above the wire time
    am_overhead: float
    #: fraction of link bandwidth sustained below the pipeline threshold
    bw_efficiency_small: float
    #: fraction sustained at/above the pipeline threshold
    bw_efficiency_large: float
    #: message size where the conduit switches to pipelined transfers
    pipeline_threshold: int = 4 * MiB
    #: messages at/above this size stripe across all node NICs
    #: (multirail support on multi-NIC nodes)
    multirail_threshold: int = 4 * MiB
    #: recovery policy applied when a fault plan is installed
    retry: RetryPolicy = dataclasses.field(default_factory=RetryPolicy)

    def bw_efficiency(self, nbytes: int) -> float:
        if nbytes >= self.pipeline_threshold:
            return self.bw_efficiency_large
        return self.bw_efficiency_small

    def rails_for(self, nbytes: int, nics_per_node: int) -> int:
        return nics_per_node if nbytes >= self.multirail_threshold else 1


@dataclasses.dataclass(frozen=True)
class GasnetParams(ConduitParams):
    """Calibration constants for the GASNet-EX software stack."""

    put_overhead: float = 0.40 * US
    #: slightly higher than a put: the response must be matched to the
    #: request
    get_overhead: float = 0.55 * US
    am_overhead: float = 0.60 * US
    bw_efficiency_small: float = 0.90
    bw_efficiency_large: float = 0.95


class ConduitEvent:
    """A non-blocking operation handle of either conduit (GASNet-EX's
    ``gex_Event_t``, a posted GPI-2 write or read)."""

    def __init__(self, future: Future) -> None:
        self._future = future

    @property
    def future(self) -> Future:
        """The operation's completion future: fires with the transfer
        record, or fails with the terminal error (what ``ompx_fence``
        drains)."""
        return self._future

    def test(self) -> bool:
        """Non-blocking completion probe.

        True once the operation reached a terminal state — including
        terminal *failure* (retries exhausted); check :attr:`failure`.
        """
        return self._future.poll()

    def wait(self) -> TransferRecord:
        """Block the calling task until the operation completes.

        Raises the operation's :class:`~repro.util.errors.FatalError`
        if recovery was exhausted.
        """
        return self._future.wait()

    @property
    def failure(self) -> Optional[BaseException]:
        """The terminal error, if the operation failed unrecoverably."""
        return self._future.error

    @property
    def record(self) -> Optional[TransferRecord]:
        """The transfer record, once complete."""
        return self._future.value if self._future.fired else None


class Segment:
    """A registered memory region remote peers may target by address."""

    def __init__(self, owner_rank: int, memref: MemRef, base_address: int) -> None:
        self.owner_rank = owner_rank
        self.memref = memref
        self.base_address = base_address
        self.size = memref.nbytes

    @property
    def end_address(self) -> int:
        return self.base_address + self.size

    def contains(self, address: int, nbytes: int) -> bool:
        return self.base_address <= address and address + nbytes <= self.end_address

    def resolve(self, address: int, nbytes: int) -> MemRef:
        """The MemRef slice for an in-segment address range."""
        if not self.contains(address, nbytes):
            raise CommunicationError(
                f"address range [{address:#x}, +{nbytes}) outside segment "
                f"[{self.base_address:#x}, +{self.size})"
            )
        return self.memref.slice(address - self.base_address, nbytes)


class SpaceSegment(Segment):
    """A segment backed by a whole reserved device address range.

    Instead of one fixed buffer, the segment resolves addresses through
    the device memory space, so allocations *placed later inside the
    reservation* are remotely accessible without re-registration — the
    DiOMP property of Fig. 1b (register once, allocate many).
    """

    def __init__(self, owner_rank: int, space, base_address: int, size: int) -> None:
        self.owner_rank = owner_rank
        self.space = space
        self.base_address = base_address
        self.size = size

    def resolve(self, address: int, nbytes: int) -> MemRef:
        if not self.contains(address, nbytes):
            raise CommunicationError(
                f"address range [{address:#x}, +{nbytes}) outside segment "
                f"[{self.base_address:#x}, +{self.size})"
            )
        buffer, offset = self.space.resolve(address)
        if offset + nbytes > buffer.size:
            raise CommunicationError(
                f"range [{address:#x}, +{nbytes}) spans beyond one live "
                "allocation in the segment"
            )
        return MemRef.device(buffer, offset, nbytes)


class Conduit:
    """Conduit state shared by all ranks of a world."""

    #: calibration used when none is given
    params_cls: type
    #: the per-rank endpoint class
    client_cls: type

    def __init__(self, world: World, params: Optional[ConduitParams] = None) -> None:
        self.world = world
        self.params = params or self.params_cls()
        self.clients: List[ConduitClient] = [
            self.client_cls(self, rank) for rank in range(world.nranks)
        ]

    def client(self, rank: int) -> "ConduitClient":
        if not 0 <= rank < len(self.clients):
            raise CommunicationError(f"rank {rank} out of range")
        return self.clients[rank]


class ConduitClient:
    """One rank's endpoint into a conduit: segments, one-sided RMA,
    flushes and active messages."""

    #: the ``conduit=`` metric label and retry-description prefix
    conduit_name: str
    #: synthetic address where this rank's host segments start
    host_segment_base: int

    def __init__(self, conduit: Conduit, rank: int) -> None:
        self.conduit = conduit
        self.rank = rank
        #: this rank's causal-trace track
        self._track = f"rank{rank}"
        self.segments: List[Segment] = []
        self._am_handlers: Dict[str, Callable[[int, Any], Any]] = {}
        #: per queue, the ops still in flight plus the failed ones no
        #: flush has reported yet (GASNet-EX is the one-queue case)
        self._queues: List[List[ConduitEvent]] = [[]]
        # -- metrics (message counts/bytes by size class; repro.obs) --
        obs = conduit.world.obs
        self._m_msgs = obs.counter(
            "conduit.messages", "conduit messages by op and size class"
        )
        self._m_bytes = obs.counter(
            "conduit.bytes", "conduit payload bytes by op and size class"
        )
        self._obs = obs

    # Series tables by (conduit, op, size class, rank), bound on first write.

    @functools.cached_property
    def _msgs_by(self):
        return self._m_msgs.bind("conduit", "op", "size_class", "rank")

    @functools.cached_property
    def _bytes_by(self):
        return self._m_bytes.bind("conduit", "op", "size_class", "rank")

    def _trace_delivery(
        self, name: str, peer_rank: int, on_complete: Callable[[], Any]
    ) -> Callable[[], Any]:
        """Wrap a completion callback with causal delivery recording.

        Captures the initiating rank's innermost open span *now* (task
        context, span still open) and, when the transfer lands, links
        it into the peer rank's track — either into a span open there
        (a fence/barrier genuinely waiting) or as a standalone
        zero-duration delivery span.
        """
        obs = self._obs
        if not obs.enabled:
            return on_complete
        ctx = obs.capture(track=self._track)
        if ctx is None:
            return on_complete
        world = self.conduit.world

        def wrapped() -> None:
            on_complete()
            obs.deliver(name, ctx, world.sim.now, rank=peer_rank)

        return wrapped

    def _count_message(self, op: str, nbytes: int) -> None:
        key = (self.conduit_name, op, size_class(nbytes), self.rank)
        self._msgs_by.inc(key)
        self._bytes_by.inc(key, nbytes)

    # -- segment management ---------------------------------------------------

    def attach_segment(self, memref: MemRef) -> Segment:
        """Register a memory region for remote access.

        For device memory the segment's base address is the device
        address (pointer identity with libomptarget, which is what lets
        DiOMP share one registration — Fig. 1b).  Host segments get a
        synthetic address space per rank.
        """
        if hasattr(memref.storage, "address"):
            base = memref.storage.address + memref.offset
        else:
            base = self.host_segment_base + sum(s.size for s in self.segments)
        return self._attach(Segment(self.rank, memref, base))

    def attach_space_segment(self, space, base_address: int, size: int) -> SpaceSegment:
        """Register a reserved device address range as a segment.

        Used by DiOMP: the whole global-segment reservation is
        registered once; later placements inside it are remotely
        addressable with no further registration.
        """
        return self._attach(SpaceSegment(self.rank, space, base_address, size))

    def _attach(self, seg: Segment) -> Segment:
        for existing in self.segments:
            if seg.base_address < existing.end_address and existing.base_address < seg.end_address:
                raise CommunicationError(
                    f"segment [{seg.base_address:#x}, +{seg.size}) overlaps an "
                    "already attached segment"
                )
        self.segments.append(seg)
        return seg

    def _resolve_remote(self, rank: int, address: int, nbytes: int) -> MemRef:
        target = self.conduit.client(rank)
        for seg in target.segments:
            if seg.contains(address, nbytes):
                return seg.resolve(address, nbytes)
        raise CommunicationError(
            f"rank {rank} has no attached segment covering "
            f"[{address:#x}, +{nbytes})"
        )

    # -- one-sided RMA -------------------------------------------------------

    def _launch(self, issue: Callable[[], Future], op: str) -> Future:
        """Issue one operation, with recovery when a fault plan is on.

        Without a plan the attempt future is returned as-is (the
        fault-free hot path is unchanged).  With one, the initiating
        rank first draws the ``rank.stall`` site (we are in task
        context here, so a stall really blocks the issuing rank), then
        the attempt is driven by a :class:`~repro.faults.RetryingOp`
        under the conduit's :class:`~repro.faults.RetryPolicy`.
        """
        world = self.conduit.world
        plan = world.fault_plan
        if plan is None:
            return issue()
        stall = plan.draw("rank.stall", rank=self.rank, op=op)
        if stall is not None and stall.latency > 0:
            world.sim.sleep(stall.latency)
        return RetryingOp(
            world.sim,
            issue,
            self.conduit.params.retry,
            obs=world.obs,
            labels=dict(conduit=self.conduit_name, op=op, rank=self.rank),
            description=f"{self.conduit_name}-{op}-r{self.rank}",
        ).future

    def put_nb(self, dst_rank: int, dst_address: int, src: MemRef) -> ConduitEvent:
        """Non-blocking one-sided put of ``src`` to a remote address."""
        return self._batch_nb("put", dst_rank, ((dst_address, src),))

    def get_nb(self, src_rank: int, src_address: int, dst: MemRef) -> ConduitEvent:
        """Non-blocking one-sided get from a remote address into ``dst``."""
        return self._batch_nb("get", src_rank, ((src_address, dst),))

    def put_batch_nb(
        self, dst_rank: int, ops: Sequence[Tuple[int, MemRef]]
    ) -> ConduitEvent:
        """Aggregated one-sided puts (GASNet-EX access-region batching).

        ``ops`` is a sequence of ``(dst_address, src_memref)`` pairs
        coalesced into **one** conduit message: one initiator software
        overhead, one NIC message overhead, summed payload.  All pairs
        must share the same (source, destination) endpoints — the RMA
        aggregation layer keys its queues to guarantee this.  Under a
        fault plan a transient failure retries the whole batch (the
        member puts are idempotent).
        """
        return self._batch_nb("put", dst_rank, ops)

    def get_batch_nb(
        self, src_rank: int, ops: Sequence[Tuple[int, MemRef]]
    ) -> ConduitEvent:
        """Aggregated one-sided gets: ``(src_address, dst_memref)``
        pairs as one conduit message (see :meth:`put_batch_nb`)."""
        return self._batch_nb("get", src_rank, ops)

    def _batch_nb(
        self,
        op: str,
        peer_rank: int,
        ops: Sequence[Tuple[int, MemRef]],
        queue: int = 0,
    ) -> ConduitEvent:
        """Issue ``(remote address, local memref)`` pairs as one conduit
        message posted to ``queue``; a single put/get is a one-pair
        batch."""
        if not ops:
            raise CommunicationError(f"empty {op} batch for rank {peer_rank}")
        resolved = [
            (self._resolve_remote(peer_rank, address, local.nbytes), local)
            for address, local in ops
        ]
        remote0, local0 = resolved[0]
        for remote, local in resolved[1:]:
            if (
                remote.endpoint != remote0.endpoint
                or local.endpoint != local0.endpoint
            ):
                raise CommunicationError(
                    f"{op} batch mixes endpoints: "
                    f"{local.endpoint}->{remote.endpoint} vs "
                    f"{local0.endpoint}->{remote0.endpoint}"
                )
        total = 0
        gpu_memory = False
        for remote, local in resolved:
            total += local.nbytes
            gpu_memory = gpu_memory or remote.is_device or local.is_device
        params = self.conduit.params
        world = self.conduit.world
        nic_overhead = world.platform.node.nic.message_overhead
        if op == "put":
            src_ep, dst_ep = local0.endpoint, remote0.endpoint
            overhead = params.put_overhead
        else:
            src_ep, dst_ep = remote0.endpoint, local0.endpoint
            overhead = params.get_overhead

        def apply_batch() -> None:
            for remote, local in resolved:
                if op == "put":
                    remote.copy_from(local)
                else:
                    local.copy_from(remote)

        complete = self._trace_delivery("conduit.deliver", peer_rank, apply_batch)

        def issue() -> Future:
            return world.transfer(
                src_ep,
                dst_ep,
                total,
                operation=op,
                gpu_memory=gpu_memory,
                on_complete=complete,
                extra_latency=overhead,
                occupancy_overhead=nic_overhead,
                bandwidth_factor=params.bw_efficiency(total),
                rails=params.rails_for(total, world.platform.node.nics_per_node),
                force_network=src_ep != dst_ep and src_ep.node == dst_ep.node,
                fault_site=_FAULT_SITES[op],
                initiator=self.rank,
            )

        fut = self._launch(issue, op)
        self._count_message(op, total)
        event = ConduitEvent(fut)
        pending = self._queues[queue]
        pending.append(event)

        def settle(done: Future) -> None:
            # A completed op leaves its queue; a failed one stays until
            # a flush reports it.
            if done.error is None:
                pending.remove(event)

        fut.add_done_callback(settle)
        return event

    # -- completion -------------------------------------------------------------

    def _drain(self, queue: int) -> None:
        """Wait for every op posted to ``queue``.

        Raises the terminal error of the first failed op, whether it
        failed before or during the flush; a reported failure leaves
        the queue, and ops after it stay queued for the next flush.
        """
        pending = self._queues[queue]
        for event in tuple(pending):
            if not event.test():
                try:
                    event.wait()
                except BaseException:
                    if event.failure is None:
                        raise
            if event.failure is not None:
                pending.remove(event)
                raise event.failure

    def sync_all(self) -> None:
        """Wait for every operation this client has issued (``gex_NBI``-
        style flush; the building block of the DiOMP fence)."""
        for queue in range(len(self._queues)):
            self._drain(queue)

    @property
    def pending_count(self) -> int:
        """Operations issued and not yet complete."""
        return sum(not event.test() for queue in self._queues for event in queue)

    # -- active messages -----------------------------------------------------

    def register_handler(self, name: str, fn: Callable[[int, Any], Any]) -> None:
        """Install an AM handler ``fn(src_rank, payload) -> reply``."""
        if name in self._am_handlers:
            raise CommunicationError(f"AM handler {name!r} already registered")
        self._am_handlers[name] = fn

    def am_request(self, dst_rank: int, handler: str, payload: Any, payload_bytes: int = 64) -> Future:
        """Send an active message; returns a future for the reply.

        The handler runs on the target at delivery time (target CPU
        involvement is the defining difference from put/get).  The
        reply travels back with the same wire cost.
        """
        world = self.conduit.world
        params = self.conduit.params
        target = self.conduit.client(dst_rank)
        src_host = world.topology.host(world.ranks[self.rank].node)
        dst_host = world.topology.host(world.ranks[dst_rank].node)
        self._count_message("am", payload_bytes)
        obs = self._obs
        send_ctx = obs.capture(track=self._track)

        def issue() -> Future:
            # One attempt = request leg + handler + reply leg.  A
            # failure on either leg fails the attempt; a retried
            # attempt re-runs the handler (at-least-once semantics,
            # like real AM-based control protocols).
            attempt = Future(world.sim, description=f"am:{handler}->r{dst_rank}")

            def propagate(fut: Future) -> None:
                if fut.error is not None and not attempt.fired:
                    attempt.fail(fut.error)

            def deliver() -> None:
                try:
                    handler_fn = target._am_handlers[handler]
                except KeyError:
                    raise CommunicationError(
                        f"rank {dst_rank} has no AM handler {handler!r}"
                    ) from None
                reply = handler_fn(self.rank, payload)
                handler_ctx = obs.deliver(
                    "conduit.am.deliver", send_ctx, world.sim.now, rank=dst_rank
                )

                def reply_done() -> None:
                    attempt.fire(reply)
                    obs.deliver(
                        "conduit.am.reply", handler_ctx, world.sim.now, rank=self.rank
                    )

                rep = world.transfer(
                    dst_host,
                    src_host,
                    payload_bytes,
                    operation="put",
                    gpu_memory=False,
                    on_complete=reply_done,
                    extra_latency=params.am_overhead,
                    fault_site="conduit.am",
                    initiator=dst_rank,
                )
                attempt.eta = rep.eta
                rep.add_done_callback(propagate)

            req = world.transfer(
                src_host,
                dst_host,
                payload_bytes,
                operation="put",
                gpu_memory=False,
                on_complete=deliver,
                extra_latency=params.am_overhead,
                fault_site="conduit.am",
                initiator=self.rank,
            )
            attempt.eta = req.eta
            req.add_done_callback(propagate)
            return attempt

        return self._launch(issue, "am")


class GasnetClient(ConduitClient):
    """One rank's GASNet-EX endpoint."""

    conduit_name = "gasnet"
    host_segment_base = 0x1000_0000

    # The layer tracer (perfbench/layers.py) patches each entry point
    # through the class's own __dict__, so they are bound here too.
    put_nb = ConduitClient.put_nb
    get_nb = ConduitClient.get_nb
    put_batch_nb = ConduitClient.put_batch_nb
    get_batch_nb = ConduitClient.get_batch_nb
    am_request = ConduitClient.am_request
    attach_segment = ConduitClient.attach_segment
    attach_space_segment = ConduitClient.attach_space_segment


class GasnetConduit(Conduit):
    """GASNet-EX conduit shared by all ranks of a world."""

    params_cls = GasnetParams
    client_cls = GasnetClient
