"""OMPCCL: the OpenMP Collective Communication Layer (§3.3).

OMPCCL bridges the DiOMP group abstraction to the vendor collective
libraries.  Responsibilities reproduced from the paper:

* **transparent channel setup** — on a group's first collective, the
  group root mints an XCCL UniqueId and the other member ranks fetch
  it over the CPU-side network (an active-message round trip); every
  member then joins one communicator *slot per bound device*,
* **device-slot collectives** — ``bcast``/``allreduce``/``reduce``/
  ``allgather``/``reduce_scatter``/``alltoall`` take one buffer per
  local device and share one launch path (``Ompccl._launch``); a
  multi-device rank drives all its slots concurrently (the
  group-launch pattern a single process needs, cf. ncclGroupStart/End),
* **algorithm attribution** — every launch records the XCCL-selected
  algorithm (ring / tree / hierarchical ring) as an ``ompccl.algo``
  metric label and span argument so traces and the critical path
  separate intra-node from inter-node collective time,
* **vendor dispatch** — the platform's library (NCCL or RCCL) is
  selected by the runtime; OMPCCL itself is vendor-neutral.
"""

from __future__ import annotations

import functools
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.cluster.memref import MemRef
from repro.cluster.world import RankContext, World
from repro.core.group import DiompGroup
from repro.util.errors import CommunicationError
from repro.xccl import UniqueId, XcclComm, XcclContext, params_for


class _GroupChannels:
    """Shared per-group collective state (UniqueId + join bookkeeping)."""

    def __init__(self, uid: UniqueId) -> None:
        self.uid = uid
        #: world_rank -> list of XcclComm (one per bound device)
        self.comms_by_rank: Dict[int, List[XcclComm]] = {}


class Ompccl:
    """The collective layer instance for one world."""

    def __init__(self, world: World, conduit, ccl: Optional[str] = None) -> None:
        self.world = world
        self.conduit = conduit
        self.xccl = XcclContext(world, params_for(ccl or world.platform.ccl))
        self._channels: Dict[int, _GroupChannels] = {}
        #: counts of UniqueId fetches over the CPU network (init cost)
        self.uid_exchanges = 0
        # -- metrics (see repro.obs) --
        self._obs = world.obs
        self._m_colls = self._obs.counter(
            "ompccl.collectives",
            "collective launches by kind/library/group size",
        )
        self._m_bytes = self._obs.counter(
            "ompccl.bytes", "collective payload bytes by kind"
        )
        self._m_algo = self._obs.counter(
            "ompccl.algo", "collective launches by selected XCCL algorithm"
        )

    # -- per-launch series tables (bound on first write) --------------------------

    @functools.cached_property
    def _colls_by(self):
        return self._m_colls.bind("kind", "library", "group_size", "rank")

    @functools.cached_property
    def _bytes_by(self):
        return self._m_bytes.bind("kind", "rank")

    @functools.cached_property
    def _algo_by(self):
        return self._m_algo.bind("kind", "algo", "library", "group", "rank")

    # -- channel management ------------------------------------------------------

    def _ensure_channels(self, group: DiompGroup, ctx: RankContext) -> List[XcclComm]:
        """Join this rank's device slots of the group's communicator,
        creating the channel state on first use (must run in a task)."""
        root_rank = group.ranks[0]
        chan = self._channels.get(group.group_id)
        if chan is None:
            # First arrival materializes the channel state; the token
            # is logically minted by the group root.
            chan = _GroupChannels(UniqueId.create())
            self._channels[group.group_id] = chan
        if ctx.rank != root_rank and ctx.rank not in chan.comms_by_rank:
            # Non-root members fetch the UniqueId from the root over
            # the CPU-side network (the paper's out-of-band broadcast).
            # Pay the out-of-band exchange cost (one AM round trip).
            client = self.conduit.client(ctx.rank)
            handler = f"ompccl-uid-{group.group_id}"
            root_client = self.conduit.client(root_rank)
            if handler not in root_client._am_handlers:
                root_client.register_handler(handler, lambda src, _p: None)
            client.am_request(root_rank, handler, None).wait()
            self.uid_exchanges += 1
        existing = chan.comms_by_rank.get(ctx.rank)
        if existing is not None:
            return existing
        slots = group.device_slots(ctx.rank)
        ndev = group.device_count
        comms: List[Optional[XcclComm]] = [None] * len(slots)

        def join(i: int, slot: int) -> None:
            comms[i] = XcclComm.init_rank(
                self.xccl, chan.uid, slot, ndev, ctx.devices[i]
            )

        if len(slots) == 1:
            join(0, slots[0])
        else:
            # Group-launch: init_rank blocks until all slots join, so a
            # multi-device rank must drive its slots concurrently.
            tasks = [
                ctx.sim.spawn(join, i, slot, name=f"ompccl-join{slot}")
                for i, slot in enumerate(slots)
            ]
            for t in tasks:
                t.join()
        chan.comms_by_rank[ctx.rank] = comms  # type: ignore[assignment]
        return comms  # type: ignore[return-value]

    def _launch(
        self,
        kind: str,
        xccl_op: str,
        group: DiompGroup,
        ctx: RankContext,
        checked: Sequence[Sequence[MemRef]],
        algo: Optional[str],
        call: Callable[[XcclComm, int], None],
    ) -> None:
        """Launch one collective: ``call(comm, i)`` on every local slot.

        ``checked`` are the buffer lists that must hold one buffer per
        bound device; the first one is the payload recorded in the
        metrics and priced by the algorithm preview.
        """
        for buffers in checked:
            if len(buffers) != len(ctx.devices):
                raise CommunicationError(
                    "OMPCCL needs one buffer per bound device "
                    f"({len(ctx.devices)}), got {len(buffers)}"
                )
        comms = self._ensure_channels(group, ctx)
        payload = checked[0]
        library = self.xccl.params.name
        self._colls_by.inc((kind, library, group.size, ctx.rank))
        self._bytes_by.inc((kind, ctx.rank), sum(b.nbytes for b in payload))
        # Preview the communicator's selection so the ``ompccl.algo``
        # counter and the span carry the algorithm before the rendezvous
        # completes; a forced-but-ineligible ``algo`` raises here, before
        # any member arrives.
        selected = comms[0].select(xccl_op, payload[0].nbytes, algo=algo).algo
        self._algo_by.inc((kind, selected, library, group.group_id, ctx.rank))
        name = f"ompccl.{kind}"
        with self._obs.span(name, rank=ctx.rank, group=group.group_id, algo=selected):
            # Cross-link this rank's open span with its peers' (see
            # repro.obs.Observability.rendezvous).
            self._obs.rendezvous(name, group.group_id, ctx.rank, group.size)
            if len(comms) == 1:
                call(comms[0], 0)
                return
            # A multi-device rank drives its slots concurrently.
            tasks = [
                ctx.sim.spawn(call, comm, i, name=f"ompccl-slot{i}")
                for i, comm in enumerate(comms)
            ]
            for t in tasks:
                t.join()

    # -- collectives ---------------------------------------------------------------

    def bcast(
        self,
        group: DiompGroup,
        ctx: RankContext,
        buffers: Sequence[MemRef],
        root_slot: int = 0,
        algo: Optional[str] = None,
    ) -> None:
        """``ompx_bcast``: broadcast from a device slot of the group."""
        self._launch(
            "bcast", "broadcast", group, ctx, (buffers,), algo,
            lambda comm, i: comm.broadcast(buffers[i], root=root_slot, algo=algo),
        )

    def allreduce(
        self,
        group: DiompGroup,
        ctx: RankContext,
        send: Sequence[MemRef],
        recv: Sequence[MemRef],
        dtype=np.float64,
        op: Callable = np.add,
        algo: Optional[str] = None,
    ) -> None:
        """``ompx_allreduce`` over every device of the group."""
        self._launch(
            "allreduce", "all_reduce", group, ctx, (send, recv), algo,
            lambda comm, i: comm.all_reduce(send[i], recv[i], dtype=dtype, op=op, algo=algo),
        )

    def reduce(
        self,
        group: DiompGroup,
        ctx: RankContext,
        send: Sequence[MemRef],
        recv: Sequence[Optional[MemRef]],
        root_slot: int = 0,
        dtype=np.float64,
        op: Callable = np.add,
        algo: Optional[str] = None,
    ) -> None:
        """``ompx_reduce`` toward one device slot."""
        self._launch(
            "reduce", "reduce", group, ctx, (send,), algo,
            lambda comm, i: comm.reduce(
                send[i], recv[i], root=root_slot, dtype=dtype, op=op, algo=algo
            ),
        )

    def allgather(
        self,
        group: DiompGroup,
        ctx: RankContext,
        send: Sequence[MemRef],
        recv: Sequence[MemRef],
        algo: Optional[str] = None,
    ) -> None:
        """``ompx_allgather``: every device slot contributes its send
        block; each receive buffer holds all blocks in slot order."""
        self._launch(
            "allgather", "all_gather", group, ctx, (send, recv), algo,
            lambda comm, i: comm.all_gather(send[i], recv[i], algo=algo),
        )

    def reduce_scatter(
        self,
        group: DiompGroup,
        ctx: RankContext,
        send: Sequence[MemRef],
        recv: Sequence[MemRef],
        dtype=np.float64,
        op: Callable = np.add,
        algo: Optional[str] = None,
    ) -> None:
        """``ompx_reduce_scatter``: element-wise reduction of every
        slot's send buffer; slot ``i`` keeps reduced block ``i``."""
        self._launch(
            "reduce_scatter", "reduce_scatter", group, ctx, (send, recv), algo,
            lambda comm, i: comm.reduce_scatter(send[i], recv[i], dtype=dtype, op=op, algo=algo),
        )

    def alltoall(
        self,
        group: DiompGroup,
        ctx: RankContext,
        send: Sequence[MemRef],
        recv: Sequence[MemRef],
        algo: Optional[str] = None,
    ) -> None:
        """``ompx_alltoall``: pairwise block exchange over the group."""
        self._launch(
            "alltoall", "alltoall", group, ctx, (send, recv), algo,
            lambda comm, i: comm.alltoall(send[i], recv[i], algo=algo),
        )
