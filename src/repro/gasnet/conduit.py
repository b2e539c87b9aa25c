"""The GASNet-EX conduit: segments, one-sided RMA, active messages.

API shape follows GASNet-EX:

* every rank *attaches* segments (registered memory regions a remote
  peer may target by address),
* ``put_nb`` / ``get_nb`` are fully one-sided — the target rank's CPU
  does not participate; the conduit resolves the remote address against
  the target's registered segments,
* operations return :class:`GasnetEvent` handles supporting ``test``
  (non-blocking, used by DiOMP's hybrid polling loop) and ``wait``,
* active messages carry small control payloads and run a registered
  handler on the target at delivery time (used for allocation
  coordination and OMPCCL UniqueID exchange).

Timing: per-op initiator overhead + NIC message overhead are added as
extra latency on the fabric transfer; protocol efficiency scales the
achievable fraction of link bandwidth, with large messages pipelining
slightly better (matching measured GASNet-EX behaviour).
"""

from __future__ import annotations

import dataclasses
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.cluster.memref import MemRef
from repro.cluster.world import World
from repro.faults import RetryingOp, RetryPolicy
from repro.network.fabric import TransferRecord
from repro.obs import size_class
from repro.sim import Future
from repro.util.errors import CommunicationError
from repro.util.units import MiB, US


@dataclasses.dataclass(frozen=True)
class GasnetParams:
    """Calibration constants for the conduit's software stack."""

    #: initiator-side software cost of issuing one put
    put_overhead: float = 0.40 * US
    #: initiator-side software cost of issuing one get (slightly higher:
    #: the response must be matched to the request)
    get_overhead: float = 0.55 * US
    #: cost of one AM (short control message) above the wire time
    am_overhead: float = 0.60 * US
    #: fraction of link bandwidth sustained below the pipeline threshold
    bw_efficiency_small: float = 0.90
    #: fraction sustained at/above the pipeline threshold
    bw_efficiency_large: float = 0.95
    #: message size where the conduit switches to pipelined transfers
    pipeline_threshold: int = 4 * MiB
    #: cost of one explicit poll call (gasnet_AMPoll)
    poll_cost: float = 0.05 * US
    #: messages at/above this size stripe across all node NICs
    #: (GASNet-EX multirail support on multi-NIC nodes)
    multirail_threshold: int = 4 * MiB
    #: recovery policy applied when a fault plan is installed
    retry: RetryPolicy = dataclasses.field(default_factory=RetryPolicy)

    def bw_efficiency(self, nbytes: int) -> float:
        if nbytes >= self.pipeline_threshold:
            return self.bw_efficiency_large
        return self.bw_efficiency_small

    def rails_for(self, nbytes: int, nics_per_node: int) -> int:
        return nics_per_node if nbytes >= self.multirail_threshold else 1


class GasnetEvent:
    """A non-blocking operation handle (``gex_Event_t``)."""

    def __init__(self, future: Future) -> None:
        self._future = future

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
    def eta(self) -> Optional[float]:
        """Expected completion time of the current attempt (hybrid
        polling hint; None when unknown)."""
        return getattr(self._future, "eta", None)

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


class GasnetConduit:
    """Conduit state shared by all ranks of a world."""

    def __init__(self, world: World, params: Optional[GasnetParams] = None) -> None:
        self.world = world
        self.params = params or GasnetParams()
        self.clients: List[GasnetClient] = [
            GasnetClient(self, rank) for rank in range(world.nranks)
        ]

    def client(self, rank: int) -> "GasnetClient":
        if not 0 <= rank < len(self.clients):
            raise CommunicationError(f"rank {rank} out of range")
        return self.clients[rank]


class GasnetClient:
    """One rank's endpoint into the conduit."""

    def __init__(self, conduit: GasnetConduit, rank: int) -> None:
        self.conduit = conduit
        self.rank = rank
        self.segments: List[Segment] = []
        self._am_handlers: Dict[str, Callable[[int, Any], Any]] = {}
        #: events issued and not yet known-complete (drained by sync_all)
        self._pending: List[GasnetEvent] = []
        self.puts_issued = 0
        self.gets_issued = 0
        self.ams_sent = 0
        # -- metrics (message counts/bytes by size class; repro.obs) --
        obs = conduit.world.obs
        self._m_msgs = obs.counter(
            "conduit.messages", "conduit messages by op and size class"
        )
        self._m_bytes = obs.counter(
            "conduit.bytes", "conduit payload bytes by op and size class"
        )
        self._obs = obs

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
        ctx = obs.capture(track=f"rank{self.rank}")
        if ctx is None:
            return on_complete
        world = self.conduit.world

        def wrapped() -> None:
            on_complete()
            obs.deliver(name, ctx, world.sim.now, rank=peer_rank)

        return wrapped

    def _count_message(self, op: str, nbytes: int) -> None:
        cls = size_class(nbytes)
        labels = dict(conduit="gasnet", op=op, size_class=cls, rank=self.rank)
        self._m_msgs.inc(**labels)
        self._m_bytes.inc(nbytes, **labels)

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
            base = 0x1000_0000 + sum(s.size for s in self.segments)
        seg = Segment(self.rank, memref, base)
        for existing in self.segments:
            if seg.base_address < existing.end_address and existing.base_address < seg.end_address:
                raise CommunicationError(
                    f"segment [{seg.base_address:#x}, +{seg.size}) overlaps an "
                    "already attached segment"
                )
        self.segments.append(seg)
        return seg

    def attach_space_segment(self, space, base_address: int, size: int) -> SpaceSegment:
        """Register a reserved device address range as a segment.

        Used by DiOMP: the whole global-segment reservation is
        registered once; later placements inside it are remotely
        addressable with no further registration.
        """
        seg = SpaceSegment(self.rank, space, base_address, size)
        for existing in self.segments:
            if seg.base_address < existing.end_address and existing.base_address < seg.end_address:
                raise CommunicationError("segment overlaps an attached segment")
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
            labels=dict(conduit="gasnet", op=op, rank=self.rank),
            description=f"gasnet-{op}-r{self.rank}",
        ).future

    def put_nb(self, dst_rank: int, dst_address: int, src: MemRef) -> GasnetEvent:
        """Non-blocking one-sided put of ``src`` to a remote address."""
        dst = self._resolve_remote(dst_rank, dst_address, src.nbytes)
        params = self.conduit.params
        world = self.conduit.world
        nic_overhead = world.platform.node.nic.message_overhead
        complete = self._trace_delivery(
            "conduit.deliver", dst_rank, lambda: dst.copy_from(src)
        )

        def issue() -> Future:
            return world.transfer(
                src.endpoint,
                dst.endpoint,
                src.nbytes,
                operation="put",
                gpu_memory=src.is_device or dst.is_device,
                on_complete=complete,
                extra_latency=params.put_overhead,
                occupancy_overhead=nic_overhead,
                bandwidth_factor=params.bw_efficiency(src.nbytes),
                rails=params.rails_for(
                    src.nbytes, world.platform.node.nics_per_node
                ),
                force_network=src.endpoint != dst.endpoint
                and src.endpoint.node == dst.endpoint.node,
                fault_site="conduit.put",
                initiator=self.rank,
            )

        fut = self._launch(issue, "put")
        self.puts_issued += 1
        self._count_message("put", src.nbytes)
        event = GasnetEvent(fut)
        self._pending.append(event)
        return event

    def get_nb(self, src_rank: int, src_address: int, dst: MemRef) -> GasnetEvent:
        """Non-blocking one-sided get from a remote address into ``dst``."""
        src = self._resolve_remote(src_rank, src_address, dst.nbytes)
        params = self.conduit.params
        world = self.conduit.world
        nic_overhead = world.platform.node.nic.message_overhead
        complete = self._trace_delivery(
            "conduit.deliver", src_rank, lambda: dst.copy_from(src)
        )

        def issue() -> Future:
            return world.transfer(
                src.endpoint,
                dst.endpoint,
                dst.nbytes,
                operation="get",
                gpu_memory=src.is_device or dst.is_device,
                on_complete=complete,
                extra_latency=params.get_overhead,
                occupancy_overhead=nic_overhead,
                bandwidth_factor=params.bw_efficiency(dst.nbytes),
                rails=params.rails_for(
                    dst.nbytes, world.platform.node.nics_per_node
                ),
                force_network=src.endpoint != dst.endpoint
                and src.endpoint.node == dst.endpoint.node,
                fault_site="conduit.get",
                initiator=self.rank,
            )

        fut = self._launch(issue, "get")
        self.gets_issued += 1
        self._count_message("get", dst.nbytes)
        event = GasnetEvent(fut)
        self._pending.append(event)
        return event

    def put_batch_nb(
        self, dst_rank: int, ops: Sequence[Tuple[int, MemRef]]
    ) -> GasnetEvent:
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
    ) -> GasnetEvent:
        """Aggregated one-sided gets: ``(src_address, dst_memref)``
        pairs as one conduit message (see :meth:`put_batch_nb`)."""
        return self._batch_nb("get", src_rank, ops)

    def _batch_nb(
        self, op: str, peer_rank: int, ops: Sequence[Tuple[int, MemRef]]
    ) -> GasnetEvent:
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
        total = sum(local.nbytes for _remote, local in resolved)
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
                gpu_memory=any(
                    rem.is_device or loc.is_device for rem, loc in resolved
                ),
                on_complete=complete,
                extra_latency=overhead,
                occupancy_overhead=nic_overhead,
                bandwidth_factor=params.bw_efficiency(total),
                rails=params.rails_for(total, world.platform.node.nics_per_node),
                force_network=src_ep != dst_ep and src_ep.node == dst_ep.node,
                fault_site=f"conduit.{op}",
                initiator=self.rank,
            )

        fut = self._launch(issue, op)
        if op == "put":
            self.puts_issued += 1
        else:
            self.gets_issued += 1
        self._count_message(op, total)
        event = GasnetEvent(fut)
        self._pending.append(event)
        return event

    def sync_all(self) -> None:
        """Wait for every operation this client has issued (``gex_NBI``-
        style flush; the building block of the DiOMP fence)."""
        pending, self._pending = self._pending, []
        for event in pending:
            if not event.test():
                event.wait()

    @property
    def pending_count(self) -> int:
        self._pending = [e for e in self._pending if not e.test()]
        return len(self._pending)

    def poll(self) -> None:
        """Advance the simulated cost of one explicit poll call."""
        self.conduit.world.sim.sleep(self.conduit.params.poll_cost)

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
        self.ams_sent += 1
        self._count_message("am", payload_bytes)
        obs = self._obs
        send_ctx = obs.capture(track=f"rank{self.rank}")

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
                attempt.eta = getattr(rep, "eta", None)  # type: ignore[attr-defined]
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
            attempt.eta = getattr(req, "eta", None)  # type: ignore[attr-defined]
            req.add_done_callback(propagate)
            return attempt

        return self._launch(issue, "am")
