"""Two-sided point-to-point communication and communicators.

The matching engine implements MPI semantics: FIFO matching on
``(source, tag)`` per communicator context, wildcards, and the
eager/rendezvous protocol switch:

* **eager** (≤ ``eager_threshold``): the payload is snapshotted at send
  time and travels immediately; the send completes locally once the
  payload is buffered.  On arrival it either lands in a matching posted
  receive or is queued as *unexpected*.
* **rendezvous** (larger): a small RTS control message travels first;
  when the receiver matches it, a CTS returns and the payload moves
  directly between the source and destination buffers (zero copy).
  The send completes only when the payload transfer does.

Device awareness is inherited from :class:`~repro.cluster.MemRef`:
sending from a device buffer takes GPUDirect paths with the NIC quirk
rules applied, exactly like CUDA-aware Cray MPICH.
"""

from __future__ import annotations

import dataclasses
import itertools
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.cluster.memref import MemRef
from repro.cluster.world import World
from repro.mpi.params import MpiParams
from repro.mpi.requests import Request
from repro.sim import Barrier, Future
from repro.util.errors import CommunicationError

ANY_SOURCE = -1
ANY_TAG = -1

#: wire size of RTS/CTS control messages
_CTRL_BYTES = 64

_context_ids = itertools.count(1)


@dataclasses.dataclass
class _Envelope:
    source: int  # communicator-relative rank
    tag: int
    nbytes: int

    def matches(self, want_source: int, want_tag: int) -> bool:
        return (want_source in (ANY_SOURCE, self.source)) and (
            want_tag in (ANY_TAG, self.tag)
        )


@dataclasses.dataclass
class _Inbound:
    """An arrived-but-unmatched message (eager data or rendezvous RTS)."""

    envelope: _Envelope
    kind: str  # "eager" | "rts"
    data: Optional[bytes] = None  # eager payload snapshot
    sender: Optional["_PendingSend"] = None  # rendezvous sender record


@dataclasses.dataclass
class _PostedRecv:
    source: int
    tag: int
    memref: MemRef
    future: Future


@dataclasses.dataclass
class _PendingSend:
    """Sender-side record of a rendezvous send awaiting CTS."""

    src_world_rank: int
    memref: MemRef
    future: Future


def _payload_transfer(
    world,
    params: MpiParams,
    src_ep,
    dst_ep,
    nbytes: int,
    gpu_memory: bool,
    on_complete,
    extra_latency: float,
) -> None:
    """Move a message payload, honouring the MPI library's data path.

    Classic MPI stacks stage same-node device-to-device traffic through
    host memory (two hops over the host links) instead of the direct
    NVLink/xGMI path; inter-node GPU traffic uses GPUDirect RDMA.
    """
    staged = (
        params.intra_node_device_staging
        and gpu_memory
        and src_ep.kind == "gpu"
        and dst_ep.kind == "gpu"
        and src_ep.node == dst_ep.node
        and src_ep != dst_ep
    )
    rails = (
        world.platform.node.nics_per_node
        if nbytes >= params.multirail_threshold
        else 1
    )
    if not staged:
        world.transfer(
            src_ep,
            dst_ep,
            nbytes,
            operation="mpi_put",
            gpu_memory=gpu_memory,
            on_complete=on_complete,
            extra_latency=extra_latency,
            bandwidth_factor=params.bw_efficiency,
            rails=rails,
        )
        return
    host = world.topology.host(src_ep.node)

    def second_hop() -> None:
        world.transfer(
            host,
            dst_ep,
            nbytes,
            operation="mpi_put",
            gpu_memory=True,
            on_complete=on_complete,
            bandwidth_factor=params.bw_efficiency,
        )

    world.transfer(
        src_ep,
        host,
        nbytes,
        operation="mpi_put",
        gpu_memory=True,
        on_complete=second_hop,
        extra_latency=extra_latency,
        bandwidth_factor=params.bw_efficiency,
    )


class _MatchingEngine:
    """Per (context, world-rank) receive-side matching state."""

    def __init__(self) -> None:
        self.unexpected: List[_Inbound] = []
        self.posted: List[_PostedRecv] = []

    def match_posted(self, envelope: _Envelope) -> Optional[_PostedRecv]:
        for i, recv in enumerate(self.posted):
            if envelope.matches(recv.source, recv.tag):
                return self.posted.pop(i)
        return None

    def match_unexpected(self, source: int, tag: int) -> Optional[_Inbound]:
        for i, msg in enumerate(self.unexpected):
            if msg.envelope.matches(source, tag):
                return self.unexpected.pop(i)
        return None


class MpiWorld:
    """Shared MPI state for one world (the "MPI library instance")."""

    def __init__(self, world: World, params: Optional[MpiParams] = None) -> None:
        self.world = world
        self.params = params or MpiParams.for_platform(world.platform)
        self._engines: Dict[Tuple[int, int], _MatchingEngine] = {}
        self.messages_sent = 0
        self.bytes_sent = 0
        self._world_comms: List[Communicator] = [
            Communicator(self, rank, list(range(world.nranks)), context_id=0)
            for rank in range(world.nranks)
        ]
        self._barriers: Dict[Tuple[int, int], Barrier] = {}
        self._split_state: Dict[Tuple[int, int], dict] = {}
        #: per-instance RMA window registry (see repro.mpi.rma.Window);
        #: instance-scoped so distinct worlds can never collide
        self.window_registry: Dict[tuple, dict] = {}

    def comm_world(self, rank: int) -> "Communicator":
        """The COMM_WORLD view for one world rank."""
        return self._world_comms[rank]

    def engine(self, context_id: int, world_rank: int) -> _MatchingEngine:
        key = (context_id, world_rank)
        if key not in self._engines:
            self._engines[key] = _MatchingEngine()
        return self._engines[key]

    def coordination_barrier(self, context_id: int, size: int) -> Barrier:
        """Zero-cost control-plane barrier per communicator (used for
        window/communicator creation bookkeeping)."""
        key = (context_id, size)
        if key not in self._barriers:
            self._barriers[key] = Barrier(self.world.sim, size, name=f"mpi-coord{key}")
        return self._barriers[key]


class Communicator:
    """One rank's view of a communicator (``MPI_Comm``)."""

    def __init__(
        self,
        mpi: MpiWorld,
        world_rank: int,
        group: List[int],
        context_id: Optional[int] = None,
    ) -> None:
        if world_rank not in group:
            raise CommunicationError(f"rank {world_rank} is not in the group {group}")
        self.mpi = mpi
        self.world_rank = world_rank
        self.group = group
        self.context_id = next(_context_ids) if context_id is None else context_id
        self.rank = group.index(world_rank)
        self._split_seq = 0

    @property
    def size(self) -> int:
        return len(self.group)

    @property
    def sim(self):
        return self.mpi.world.sim

    def _check_peer(self, peer: int) -> int:
        if not 0 <= peer < self.size:
            raise CommunicationError(
                f"rank {peer} out of range for communicator of size {self.size}"
            )
        return self.group[peer]

    def _host(self, world_rank: int):
        return self.mpi.world.topology.host(self.mpi.world.ranks[world_rank].node)

    # -- sends ---------------------------------------------------------------

    def isend(self, memref: MemRef, dest: int, tag: int = 0) -> Request:
        """Non-blocking send (``MPI_Isend``)."""
        if tag < 0:
            raise CommunicationError(f"negative tag {tag}")
        world_dest = self._check_peer(dest)
        params = self.mpi.params
        world = self.mpi.world
        envelope = _Envelope(self.rank, tag, memref.nbytes)
        self.mpi.messages_sent += 1
        self.mpi.bytes_sent += memref.nbytes
        engine = self.mpi.engine(self.context_id, world_dest)

        if memref.nbytes <= params.eager_threshold:
            data = None if memref.is_virtual else memref.view().tobytes()
            send_future = Future(world.sim, description=f"isend-eager t{tag}")
            # Local completion: the payload is buffered after the send
            # overhead; the application buffer is immediately reusable.
            world.sim.call_later(params.send_overhead, send_future.fire)
            def deliver() -> None:
                self._deliver_eager(engine, envelope, data)

            # Envelope+payload travel together for eager messages.
            _payload_transfer(
                world,
                params,
                memref.endpoint,
                self._recv_endpoint_hint(world_dest, memref),
                memref.nbytes,
                gpu_memory=memref.is_device,
                on_complete=deliver,
                extra_latency=params.send_overhead
                + world.platform.node.nic.message_overhead,
            )
            return Request(send_future, kind="isend")

        # Rendezvous: RTS -> match -> CTS -> direct payload transfer.
        send_future = Future(world.sim, description=f"isend-rndv t{tag}")
        pending = _PendingSend(self.world_rank, memref, send_future)
        inbound = _Inbound(envelope, "rts", sender=pending)

        def deliver_rts() -> None:
            recv = engine.match_posted(envelope)
            if recv is None:
                engine.unexpected.append(inbound)
            else:
                self._start_rendezvous_payload(pending, recv, world_dest)

        world.transfer(
            self._host(self.world_rank),
            self._host(world_dest),
            _CTRL_BYTES,
            operation="mpi_put",
            gpu_memory=False,
            on_complete=deliver_rts,
            extra_latency=params.send_overhead + params.rendezvous_overhead,
        )
        return Request(send_future, kind="isend")

    def _recv_endpoint_hint(self, world_dest: int, src_memref: MemRef):
        """Eager payloads land in a bounce buffer near the receiver: on
        the destination host for host data, on the destination rank's
        primary device for device data (GPUDirect into a staging pool)."""
        if src_memref.is_device:
            return self.mpi.world.ranks[world_dest].device.device_id
        return self._host(world_dest)

    def _deliver_eager(
        self, engine: _MatchingEngine, envelope: _Envelope, data: Optional[bytes]
    ) -> None:
        recv = engine.match_posted(envelope)
        if recv is None:
            engine.unexpected.append(_Inbound(envelope, "eager", data=data))
            return
        self._complete_eager_recv(recv, envelope, data)

    def _complete_eager_recv(
        self, recv: _PostedRecv, envelope: _Envelope, data: Optional[bytes]
    ) -> None:
        if envelope.nbytes > recv.memref.nbytes:
            raise CommunicationError(
                f"message of {envelope.nbytes} bytes overflows receive "
                f"buffer of {recv.memref.nbytes} bytes"
            )
        if data is not None:
            if recv.memref.is_virtual:
                raise CommunicationError("real payload received into virtual buffer")
            recv.memref.view()[: envelope.nbytes] = np.frombuffer(data, dtype=np.uint8)
        recv.future.fire((envelope.source, envelope.tag, envelope.nbytes))

    def _start_rendezvous_payload(
        self, pending: _PendingSend, recv: _PostedRecv, world_dest: int
    ) -> None:
        params = self.mpi.params
        world = self.mpi.world
        if pending.memref.nbytes > recv.memref.nbytes:
            raise CommunicationError(
                f"message of {pending.memref.nbytes} bytes overflows receive "
                f"buffer of {recv.memref.nbytes} bytes"
            )
        dst = recv.memref.slice(0, pending.memref.nbytes)
        src = pending.memref

        def payload_done() -> None:
            dst.copy_from(src)
            envelope_info = (self.rank, -2, src.nbytes)
            pending.future.fire()
            recv.future.fire(envelope_info)

        def cts_arrived() -> None:
            _payload_transfer(
                world,
                params,
                src.endpoint,
                dst.endpoint,
                src.nbytes,
                gpu_memory=src.is_device or dst.is_device,
                on_complete=payload_done,
                extra_latency=world.platform.node.nic.message_overhead,
            )

        # CTS travels back to the sender's host first.
        world.transfer(
            self._host(world_dest),
            self._host(pending.src_world_rank),
            _CTRL_BYTES,
            operation="mpi_put",
            gpu_memory=False,
            on_complete=cts_arrived,
            extra_latency=params.rendezvous_overhead,
        )

    def send(self, memref: MemRef, dest: int, tag: int = 0) -> None:
        """Blocking send (``MPI_Send``)."""
        self.isend(memref, dest, tag).wait()

    # -- receives -------------------------------------------------------------

    def irecv(self, memref: MemRef, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> Request:
        """Non-blocking receive (``MPI_Irecv``)."""
        if source != ANY_SOURCE:
            self._check_peer(source)
        params = self.mpi.params
        world = self.mpi.world
        engine = self.mpi.engine(self.context_id, self.world_rank)
        future = Future(world.sim, description=f"irecv s{source} t{tag}")
        inbound = engine.match_unexpected(source, tag)
        if inbound is None:
            engine.posted.append(_PostedRecv(source, tag, memref, future))
        elif inbound.kind == "eager":
            # Payload already here: complete after the matching overhead.
            world.sim.call_later(
                params.recv_overhead,
                lambda: self._complete_eager_recv(
                    _PostedRecv(source, tag, memref, future),
                    inbound.envelope,
                    inbound.data,
                ),
            )
        else:  # rendezvous RTS waiting
            sender = inbound.sender
            assert sender is not None
            self._start_rendezvous_payload(
                sender,
                _PostedRecv(source, tag, memref, future),
                self.world_rank,
            )
        return Request(future, kind="irecv")

    def recv(self, memref: MemRef, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> Tuple[int, int, int]:
        """Blocking receive; returns ``(source, tag, nbytes)``."""
        req = self.irecv(memref, source, tag)
        req.wait()
        return req._future.value

    def sendrecv(
        self,
        send_ref: MemRef,
        dest: int,
        recv_ref: MemRef,
        source: int,
        send_tag: int = 0,
        recv_tag: int = ANY_TAG,
    ) -> None:
        """``MPI_Sendrecv``: deadlock-free paired exchange."""
        rreq = self.irecv(recv_ref, source, recv_tag)
        sreq = self.isend(send_ref, dest, send_tag)
        sreq.wait()
        rreq.wait()

    # -- communicator management ----------------------------------------------

    def split(self, color: int, key: int = 0) -> Optional["Communicator"]:
        """``MPI_Comm_split`` (color < 0 means "not a member")."""
        seq = self._split_seq
        self._split_seq += 1
        state_key = (self.context_id, seq)
        state = self.mpi._split_state.setdefault(
            state_key, {"members": {}, "context": next(_context_ids)}
        )
        state["members"][self.rank] = (color, key, self.world_rank)
        # Control-plane rendezvous: all members must arrive.
        self.mpi.coordination_barrier(self.context_id * 10000 + seq, self.size).wait()
        if color < 0:
            return None
        members = [
            (k, wr)
            for r, (c, k, wr) in sorted(state["members"].items())
            if c == color
        ]
        members.sort()
        group = [wr for _k, wr in members]
        return Communicator(
            self.mpi, self.world_rank, group, context_id=state["context"] + color
        )
