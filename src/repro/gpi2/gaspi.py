"""GASPI-flavoured conduit implementation.

Structure mirrors :mod:`repro.gasnet.conduit`; the differences are the
queue abstraction (writes are posted to numbered queues and
``wait_queue`` drains one queue, GASPI's actual completion model) and
notifications (``notify`` posts a small flag the target can wait on,
GASPI's replacement for target-side events).
"""

from __future__ import annotations

import dataclasses
import functools
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.cluster.memref import MemRef
from repro.cluster.world import World
from repro.faults import RetryingOp, RetryPolicy
from repro.gasnet.conduit import GasnetEvent, Segment
from repro.obs import size_class
from repro.sim import Future
from repro.util.errors import CommunicationError, ConfigurationError
from repro.util.units import MiB, US


@dataclasses.dataclass(frozen=True)
class Gpi2Params:
    """Calibration constants for the GPI-2 software stack."""

    #: initiator cost of gaspi_write (lower than GASNet's put path)
    write_overhead: float = 0.30 * US
    #: initiator cost of gaspi_read
    read_overhead: float = 0.65 * US
    am_overhead: float = 0.70 * US
    #: efficiency below the pipeline threshold (better than GASNet here)
    bw_efficiency_small: float = 0.94
    #: efficiency at/above the threshold (slightly worse than GASNet)
    bw_efficiency_large: float = 0.93
    pipeline_threshold: int = 4 * MiB
    #: cost of posting/waiting one notification
    notify_overhead: float = 0.15 * US
    #: number of communication queues per rank
    num_queues: int = 8
    #: messages at/above this size stripe across all node NICs
    multirail_threshold: int = 4 * MiB
    #: recovery policy applied when a fault plan is installed
    retry: RetryPolicy = dataclasses.field(default_factory=RetryPolicy)

    def bw_efficiency(self, nbytes: int) -> float:
        if nbytes >= self.pipeline_threshold:
            return self.bw_efficiency_large
        return self.bw_efficiency_small

    def rails_for(self, nbytes: int, nics_per_node: int) -> int:
        return nics_per_node if nbytes >= self.multirail_threshold else 1


class Notification:
    """A GASPI notification slot: a remotely settable flag + value."""

    def __init__(self, sim, notification_id: int) -> None:
        self.notification_id = notification_id
        self._future = Future(sim, description=f"notify:{notification_id}")

    def post(self, value: int) -> None:
        # Idempotent: a retried notify may deliver twice; GASPI flag
        # semantics (set, not increment) make the duplicate harmless.
        if self._future.fired:
            return
        self._future.fire(value)

    def fail(self, error: BaseException) -> None:
        """Surface an unrecoverable notify to waiters of this slot."""
        if self._future.fired:
            return
        self._future.fail(error)

    def test(self) -> bool:
        return self._future.poll()

    def wait(self) -> int:
        """Block until the notification arrives; returns its value."""
        return self._future.wait()


class Gpi2Conduit:
    """GPI-2 conduit shared by all ranks (InfiniBand fabrics only)."""

    def __init__(self, world: World, params: Optional[Gpi2Params] = None) -> None:
        if world.platform.interconnect != "infiniband":
            raise ConfigurationError(
                "the GPI-2 backend currently supports only InfiniBand "
                f"environments (platform {world.platform.name} uses "
                f"{world.platform.interconnect}); use GASNet-EX instead"
            )
        self.world = world
        self.params = params or Gpi2Params()
        self.clients: List[Gpi2Client] = [
            Gpi2Client(self, rank) for rank in range(world.nranks)
        ]

    def client(self, rank: int) -> "Gpi2Client":
        if not 0 <= rank < len(self.clients):
            raise CommunicationError(f"rank {rank} out of range")
        return self.clients[rank]


class Gpi2Client:
    """One rank's GASPI endpoint (same interface as GasnetClient)."""

    def __init__(self, conduit: Gpi2Conduit, rank: int) -> None:
        self.conduit = conduit
        self.rank = rank
        self.segments: List[Segment] = []
        self._queues: List[List[GasnetEvent]] = [
            [] for _ in range(conduit.params.num_queues)
        ]
        self._notifications: Dict[int, Notification] = {}
        self._am_handlers: Dict[str, Callable[[int, Any], Any]] = {}
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
        """Causal delivery wrapper (see GasnetClient._trace_delivery)."""
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
        key = ("gpi2", op, size_class(nbytes), self.rank)
        self._msgs_by.inc(key)
        self._bytes_by.inc(key, nbytes)

    # -- segments (GASPI numbers them; addresses still resolve) --------------

    def attach_segment(self, memref: MemRef) -> Segment:
        """Register a segment (``gaspi_segment_register`` analogue)."""
        if hasattr(memref.storage, "address"):
            base = memref.storage.address + memref.offset
        else:
            base = 0x2000_0000 + sum(s.size for s in self.segments)
        seg = Segment(self.rank, memref, base)
        for existing in self.segments:
            if seg.base_address < existing.end_address and existing.base_address < seg.end_address:
                raise CommunicationError("overlapping GASPI segments")
        self.segments.append(seg)
        return seg

    def attach_space_segment(self, space, base_address: int, size: int):
        """Register a reserved device range (see GasnetClient)."""
        from repro.gasnet.conduit import SpaceSegment

        seg = SpaceSegment(self.rank, space, base_address, size)
        for existing in self.segments:
            if seg.base_address < existing.end_address and existing.base_address < seg.end_address:
                raise CommunicationError("overlapping GASPI segments")
        self.segments.append(seg)
        return seg

    def _resolve_remote(self, rank: int, address: int, nbytes: int) -> MemRef:
        target = self.conduit.client(rank)
        for seg in target.segments:
            if seg.contains(address, nbytes):
                return seg.resolve(address, nbytes)
        raise CommunicationError(
            f"rank {rank} has no GASPI segment covering [{address:#x}, +{nbytes})"
        )

    # -- one-sided write/read ---------------------------------------------------

    def _launch(self, issue: Callable[[], Future], op: str) -> Future:
        """Issue one operation, with recovery when a fault plan is on
        (see :meth:`repro.gasnet.conduit.GasnetClient._launch`)."""
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
            labels=dict(conduit="gpi2", op=op, rank=self.rank),
            description=f"gaspi-{op}-r{self.rank}",
        ).future

    def put_nb(
        self, dst_rank: int, dst_address: int, src: MemRef, queue: int = 0
    ) -> GasnetEvent:
        """``gaspi_write``: one-sided put posted to a queue."""
        self._check_queue(queue)
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
                extra_latency=params.write_overhead,
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
        self._queues[queue].append(event)
        return event

    def get_nb(
        self, src_rank: int, src_address: int, dst: MemRef, queue: int = 0
    ) -> GasnetEvent:
        """``gaspi_read``: one-sided get posted to a queue."""
        self._check_queue(queue)
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
                extra_latency=params.read_overhead,
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
        self._queues[queue].append(event)
        return event

    def put_batch_nb(
        self, dst_rank: int, ops: Sequence[Tuple[int, MemRef]], queue: int = 0
    ) -> GasnetEvent:
        """Aggregated ``gaspi_write_list``: ``(dst_address, src_memref)``
        pairs coalesced into one conduit message posted to one queue —
        one write overhead, one NIC message overhead, summed payload.
        All pairs must share the same endpoints (the RMA aggregation
        layer guarantees this); a transient retries the whole batch.
        """
        return self._batch_nb("put", dst_rank, ops, queue)

    def get_batch_nb(
        self, src_rank: int, ops: Sequence[Tuple[int, MemRef]], queue: int = 0
    ) -> GasnetEvent:
        """Aggregated ``gaspi_read_list`` (see :meth:`put_batch_nb`)."""
        return self._batch_nb("get", src_rank, ops, queue)

    def _batch_nb(
        self, op: str, peer_rank: int, ops: Sequence[Tuple[int, MemRef]], queue: int
    ) -> GasnetEvent:
        self._check_queue(queue)
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
            overhead = params.write_overhead
        else:
            src_ep, dst_ep = remote0.endpoint, local0.endpoint
            overhead = params.read_overhead

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
        self._queues[queue].append(event)
        return event

    def _check_queue(self, queue: int) -> None:
        if not 0 <= queue < self.conduit.params.num_queues:
            raise CommunicationError(
                f"queue {queue} out of range (GPI-2 has "
                f"{self.conduit.params.num_queues} queues)"
            )

    # -- completion ------------------------------------------------------------

    def wait_queue(self, queue: int) -> None:
        """``gaspi_wait``: drain all operations posted to one queue."""
        self._check_queue(queue)
        pending, self._queues[queue] = self._queues[queue], []
        for event in pending:
            if not event.test():
                event.wait()

    def sync_all(self) -> None:
        """Drain every queue (conduit-interface compatibility)."""
        for queue in range(self.conduit.params.num_queues):
            self.wait_queue(queue)

    @property
    def pending_count(self) -> int:
        total = 0
        for q in range(self.conduit.params.num_queues):
            self._queues[q] = [e for e in self._queues[q] if not e.test()]
            total += len(self._queues[q])
        return total

    def poll(self) -> None:
        self.conduit.world.sim.sleep(self.conduit.params.notify_overhead)

    # -- notifications -----------------------------------------------------------

    def notification(self, notification_id: int) -> Notification:
        """The local notification slot with the given id (created lazily)."""
        if notification_id not in self._notifications:
            self._notifications[notification_id] = Notification(
                self.conduit.world.sim, notification_id
            )
        return self._notifications[notification_id]

    def notify(self, dst_rank: int, notification_id: int, value: int = 1) -> None:
        """``gaspi_notify``: post a flag on the target rank.

        Under a fault plan the notify is retried like any one-sided op
        (``Notification.post`` is idempotent, so a duplicate delivery
        from a rescued-then-completed attempt is harmless); exhausted
        retries *fail the target's notification slot* so its waiter
        observes the FatalError instead of deadlocking.
        """
        world = self.conduit.world
        src_host = world.topology.host(world.ranks[self.rank].node)
        dst_host = world.topology.host(world.ranks[dst_rank].node)
        target = self.conduit.client(dst_rank)
        complete = self._trace_delivery(
            "conduit.notify.deliver",
            dst_rank,
            lambda: target.notification(notification_id).post(value),
        )

        def issue() -> Future:
            return world.transfer(
                src_host,
                dst_host,
                8,
                operation="put",
                gpu_memory=False,
                on_complete=complete,
                extra_latency=self.conduit.params.notify_overhead,
                fault_site="conduit.notify",
                initiator=self.rank,
            )

        fut = self._launch(issue, "notify")

        def surface(done: Future) -> None:
            if done.error is not None:
                target.notification(notification_id).fail(done.error)

        fut.add_done_callback(surface)

    # -- active messages (control plane parity with GasnetClient) -------------

    def register_handler(self, name: str, fn: Callable[[int, Any], Any]) -> None:
        if name in self._am_handlers:
            raise CommunicationError(f"AM handler {name!r} already registered")
        self._am_handlers[name] = fn

    def am_request(self, dst_rank: int, handler: str, payload: Any, payload_bytes: int = 64) -> Future:
        """Control-plane request/reply built on GASPI passive messages."""
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
            attempt = Future(world.sim, description=f"gaspi-am:{handler}->r{dst_rank}")

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
