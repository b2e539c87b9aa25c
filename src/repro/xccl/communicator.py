"""XCCL communicators and collective operations.

Membership is per *device slot* — ``ncclCommInitRank(uid, i, n)``
joins device slot ``i`` of ``n`` — so one process may hold several
communicator handles, one per GPU it drives (the deployment model
DiOMP's single-process multi-GPU mode depends on, §3.3).

Completion times come from the per-algorithm cost models of
:mod:`repro.xccl.algorithms`: the flat pipelined ring (the historical
single model), a binomial tree for the latency-bound regime, and the
two-level hierarchical decomposition for multi-node large messages —
auto-selected per launch from the communicator's
:class:`~repro.xccl.topo.CommTopology` and the message size, or forced
via ``algo=`` for ablations.  Data application is real numpy
arithmetic at the completion instant when every buffer of the call is
real (any virtual buffer makes it timing only), identical for every
algorithm (contributions are always combined in slot order, so
results are bit-identical across algorithms).

A collective call arrives at the communicator's
:class:`~repro.sim.Rendezvous`, keyed by the handle's launch sequence
number; every member then completes together at the modelled time —
the same externally observable semantics as a stream-synchronized NCCL
call.  The last arrival checks, over every member, that all called the
same op with the same size, forced algorithm, root, dtype and
reduction op: a disagreement (or an unknown forced algorithm) raises
one error, grouping the members by what they passed, on every member.
Data is applied at the release instant, before any member resumes;
members resume in the Rendezvous's order (the last arrival first).
"""

from __future__ import annotations

import dataclasses
import functools
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.cluster.memref import MemRef
from repro.cluster.world import World
from repro.device.driver import Device
from repro.hardware.topology import DeviceId
from repro.sim import Release, Rendezvous
from repro.util.errors import CommunicationError
from repro.xccl.algorithms import Selection, select_algorithm
from repro.xccl.params import XcclParams
from repro.xccl.topo import CommTopology, analyze, build_ring
from repro.xccl.uniqueid import UniqueId


@dataclasses.dataclass
class _CommState:
    """Shared state of one communicator (all device slots)."""

    ndev: int
    #: collective arrival points, keyed by each handle's sequence number
    points: Rendezvous
    devices: Dict[int, DeviceId] = dataclasses.field(default_factory=dict)
    ctopo: Optional[CommTopology] = None
    #: (op, nbytes, forced-algo) -> Selection.  The topology and params
    #: are frozen after init, so pricing is a pure function of the key;
    #: caching makes the per-member selection preview O(1) instead of
    #: re-running the cost models for every launch of a repeated shape.
    sel_cache: Dict[tuple, Selection] = dataclasses.field(default_factory=dict)


#: the call fields every member must agree on, in the order of the call
#: tuple: (phrase, formatter).  ``root`` is None for rootless
#: collectives, ``dtype`` and ``op`` for non-reductions; ``op`` is
#: compared by ``__name__``, so per-rank closures of one function agree.
_AGREEMENT = (
    ("collective", str),
    ("size", "{} bytes".format),
    ("algorithm", lambda algo: "auto" if algo is None else repr(algo)),
    ("root", str),
    ("dtype", str),
    ("op", str),
)


def _fold(op: Callable, dtype: np.dtype, parts: List[MemRef]) -> np.ndarray:
    """``op`` applied over ``parts`` (in slot order) into a new array."""
    total = parts[0].typed(dtype).copy()
    for part in parts[1:]:
        total = op(total, part.typed(dtype))
    return total


def _disagreement(seq: int, arrivals: Dict[int, dict]) -> CommunicationError:
    """The error for disagreeing members, grouped by what they passed
    (the first field that differs; smallest group first)."""
    for field, (what, fmt) in enumerate(_AGREEMENT):
        groups: Dict[object, List[int]] = {}
        for member in sorted(arrivals):
            groups.setdefault(arrivals[member]["call"][field], []).append(member)
        if len(groups) > 1:
            break
    ranked = sorted(groups.items(), key=lambda g: (len(g[1]), g[1][0]))
    named = ", ".join(f"{fmt(v)} from {members}" for v, members in ranked)
    return CommunicationError(
        f"{what} mismatch at sequence {seq}: {named} (all members must agree)"
    )


class XcclContext:
    """The loaded library instance for one world ("libnccl.so")."""

    def __init__(self, world: World, params: XcclParams) -> None:
        self.world = world
        self.params = params
        self._comms: Dict[UniqueId, _CommState] = {}
        #: ``init_rank`` arrival points, one per UniqueId
        self._joins = Rendezvous(world.sim, name="xccl-init")
        # -- metrics (device-slot collective launches; repro.obs) --
        obs = world.obs
        self._m_launches = obs.counter(
            "xccl.launches", "device-slot collective launches by op"
        )
        self._m_wire = obs.counter(
            "xccl.wire_bytes", "modeled per-rank wire bytes by op/algorithm"
        )
        self._m_algo = obs.counter(
            "xccl.algo", "completed collectives by selected algorithm"
        )

    @functools.cached_property
    def _launches_by(self):
        """Launch-counter series table, bound on first write."""
        return self._m_launches.bind("op", "library", "ndev")

    def _state(self, uid: UniqueId, ndev: int) -> _CommState:
        state = self._comms.get(uid)
        if state is None:
            state = _CommState(ndev, Rendezvous(self.world.sim, name="xccl"))
            self._comms[uid] = state
        elif state.ndev != ndev:
            raise CommunicationError(
                f"inconsistent communicator size for {uid}: "
                f"{state.ndev} vs {ndev}"
            )
        return state


class XcclComm:
    """One device slot's communicator handle (``ncclComm_t``)."""

    def __init__(self, ctx: XcclContext, state: _CommState, dev_rank: int, device: Device) -> None:
        self.ctx = ctx
        self._state = state
        self.dev_rank = dev_rank
        self.device = device
        self._op_seq = 0

    # -- initialization --------------------------------------------------------

    @classmethod
    def init_rank(
        cls,
        ctx: XcclContext,
        uid: UniqueId,
        dev_rank: int,
        ndev: int,
        device: Device,
    ) -> "XcclComm":
        """``ncclCommInitRank``: collective; blocks until all ``ndev``
        slots have joined, then runs topology detection once.

        Must be called from a simulated task.
        """
        if not 0 <= dev_rank < ndev:
            raise CommunicationError(f"device rank {dev_rank} out of range 0..{ndev - 1}")
        state = ctx._state(uid, ndev)
        if dev_rank in state.devices:
            raise CommunicationError(f"device rank {dev_rank} already joined {uid}")
        state.devices[dev_rank] = device.device_id

        def detect(_payloads) -> None:
            # Last joiner: detect topology once; init is charged as the
            # release delay.
            ring = build_ring([state.devices[i] for i in range(ndev)])
            state.ctopo = analyze(ctx.world.topology, ring, ctx.params)

        ctx._joins.arrive(uid, dev_rank, None, ndev, detect, ctx.params.init_overhead)
        return cls(ctx, state, dev_rank, device)

    @property
    def ndev(self) -> int:
        return self._state.ndev

    # -- completion-time model -----------------------------------------------------

    def select(self, op: str, nbytes: int, algo: Optional[str] = None) -> Selection:
        """The algorithm (and modeled time) one launch would use.

        Pure preview — prices the candidates against the communicator's
        :class:`CommTopology` without arriving at any rendezvous.
        """
        state = self._state
        if state.ctopo is None:
            raise CommunicationError("communicator is not initialized")
        key = (op, nbytes, algo)
        sel = state.sel_cache.get(key)
        if sel is None:
            sel = select_algorithm(op, nbytes, state.ctopo, self.ctx.params, force=algo)
            state.sel_cache[key] = sel
        return sel

    def _record_phases(self, sel: Selection, start: float) -> None:
        """Emit per-phase spans so traces attribute intra vs inter time."""
        obs = self.ctx.world.obs
        if not obs.profiler.enabled:
            return
        params = self.ctx.params
        eff = (
            params.bcast_efficiency if sel.op == "broadcast" else params.efficiency
        )
        t = start + params.launch_overhead
        for ph in sel.phases:
            dt = ph.time(params, eff)
            obs.profiler.record(
                f"xccl.{sel.algo}.{ph.name}",
                t,
                t + dt,
                track=f"xccl.{params.name}",
                scope=ph.scope,
                op=sel.op,
                algo=sel.algo,
                bytes=sel.nbytes,
                ndev=self._state.ndev,
            )
            t += dt

    # -- rendezvous machinery ------------------------------------------------------

    def _collective(
        self,
        op: str,
        nbytes: int,
        arrival: dict,
        apply_fn: Callable[[Dict[int, dict]], None],
        algo: Optional[str],
        root: Optional[int] = None,
        dtype: Optional[np.dtype] = None,
        reduce_op: Optional[Callable] = None,
    ) -> None:
        """Arrive at this handle's next collective.  The last arrival
        checks that every member called the same op, size, forced
        algorithm, root, dtype and reduction op (see ``_AGREEMENT``),
        and selects the algorithm; all members leave together once it
        completes, with ``apply_fn`` run at that instant when every
        member's buffers are real."""
        ctx = self.ctx
        state = self._state
        seq = self._op_seq
        self._op_seq += 1
        arrival["call"] = (
            op, nbytes, algo, root, dtype, getattr(reduce_op, "__name__", reduce_op)
        )
        ctx._launches_by.inc((op, ctx.params.name, state.ndev))

        def decide(arrivals: Dict[int, dict]) -> Release:
            if len({a["call"] for a in arrivals.values()}) > 1:
                raise _disagreement(seq, arrivals)
            sel = self.select(op, nbytes, algo=algo)
            labels = dict(op=op, algo=sel.algo, library=ctx.params.name, ndev=state.ndev)
            ctx._m_algo.inc(**labels)
            ctx._m_wire.inc(state.ndev * sum(ph.wire_bytes for ph in sel.phases), **labels)
            self._record_phases(sel, ctx.world.sim.now)
            refs = [r for a in arrivals.values() for k, r in a.items() if k != "call"]
            if any(r is not None and r.is_virtual for r in refs):
                return Release(sel.seconds, None)
            return Release(sel.seconds, lambda: apply_fn(arrivals))

        state.points.arrive(seq, self.dev_rank, arrival, state.ndev, decide)

    # -- collectives -------------------------------------------------------------

    def all_reduce(
        self,
        send: MemRef,
        recv: MemRef,
        dtype: np.dtype = np.float64,
        op: Callable = np.add,
        algo: Optional[str] = None,
    ) -> None:
        """AllReduce over all member devices (auto-selected algorithm)."""
        if send.nbytes != recv.nbytes:
            raise CommunicationError("all_reduce buffers must match in size")
        dtype = np.dtype(dtype)

        def apply(arrivals: Dict[int, dict]) -> None:
            total = _fold(op, dtype, [arrivals[i]["send"] for i in range(self.ndev)])
            for i in range(self.ndev):
                arrivals[i]["recv"].typed(dtype)[:] = total

        self._collective(
            "all_reduce", send.nbytes, {"send": send, "recv": recv}, apply, algo,
            dtype=dtype, reduce_op=op,
        )

    def broadcast(
        self,
        buf: MemRef,
        root: int,
        dtype: np.dtype = np.uint8,
        algo: Optional[str] = None,
    ) -> None:
        """Broadcast from device slot ``root``."""
        if not 0 <= root < self.ndev:
            raise CommunicationError(f"broadcast root {root} out of range")

        def apply(arrivals: Dict[int, dict]) -> None:
            src = arrivals[root]["buf"]
            for i in range(self.ndev):
                if i != root:
                    arrivals[i]["buf"].copy_from(src)

        self._collective("broadcast", buf.nbytes, {"buf": buf}, apply, algo, root=root)

    def reduce(
        self,
        send: MemRef,
        recv: Optional[MemRef],
        root: int,
        dtype: np.dtype = np.float64,
        op: Callable = np.add,
        algo: Optional[str] = None,
    ) -> None:
        """Reduce to device slot ``root``."""
        if not 0 <= root < self.ndev:
            raise CommunicationError(f"reduce root {root} out of range")
        if self.dev_rank == root and recv is None:
            raise CommunicationError("reduce root needs a receive buffer")
        dtype = np.dtype(dtype)

        def apply(arrivals: Dict[int, dict]) -> None:
            parts = [arrivals[i]["send"] for i in range(self.ndev)]
            arrivals[root]["recv"].typed(dtype)[:] = _fold(op, dtype, parts)

        # Only the root's receive buffer takes part (and must be real).
        arrival = {"send": send, "recv": recv if self.dev_rank == root else None}
        self._collective(
            "reduce", send.nbytes, arrival, apply, algo, root=root, dtype=dtype, reduce_op=op
        )

    def all_gather(
        self, send: MemRef, recv: MemRef, algo: Optional[str] = None
    ) -> None:
        """AllGather: ``recv`` holds ndev blocks in slot order."""
        if recv.nbytes != send.nbytes * self.ndev:
            raise CommunicationError(
                "all_gather recv must hold ndev*send bytes "
                f"({send.nbytes * self.ndev}), got {recv.nbytes}"
            )

        def apply(arrivals: Dict[int, dict]) -> None:
            block = send.nbytes
            for i in range(self.ndev):
                src = arrivals[i]["send"]
                for j in range(self.ndev):
                    arrivals[j]["recv"].slice(i * block, block).copy_from(src)

        self._collective(
            "all_gather", send.nbytes, {"send": send, "recv": recv}, apply, algo
        )

    def reduce_scatter(
        self,
        send: MemRef,
        recv: MemRef,
        dtype: np.dtype = np.float64,
        op: Callable = np.add,
        algo: Optional[str] = None,
    ) -> None:
        """ReduceScatter: each slot receives its reduced block."""
        if send.nbytes != recv.nbytes * self.ndev:
            raise CommunicationError(
                "reduce_scatter send must hold ndev*recv bytes "
                f"({recv.nbytes * self.ndev}), got {send.nbytes}"
            )
        dtype = np.dtype(dtype)

        def apply(arrivals: Dict[int, dict]) -> None:
            block = recv.nbytes
            for j in range(self.ndev):
                parts = [arrivals[i]["send"].slice(j * block, block) for i in range(self.ndev)]
                arrivals[j]["recv"].typed(dtype)[:] = _fold(op, dtype, parts)

        self._collective(
            "reduce_scatter", recv.nbytes * self.ndev, {"send": send, "recv": recv}, apply,
            algo, dtype=dtype, reduce_op=op,
        )

    def alltoall(self, send: MemRef, recv: MemRef, algo: Optional[str] = None) -> None:
        """Pairwise AllToAll: block ``j`` of slot ``i``'s send buffer
        lands as block ``i`` of slot ``j``'s receive buffer."""
        if send.nbytes != recv.nbytes:
            raise CommunicationError("alltoall buffers must match in size")
        if send.nbytes % self.ndev:
            raise CommunicationError(
                f"alltoall buffer of {send.nbytes} bytes does not divide "
                f"into {self.ndev} blocks"
            )

        def apply(arrivals: Dict[int, dict]) -> None:
            block = send.nbytes // self.ndev
            for i in range(self.ndev):
                src = arrivals[i]["send"]
                for j in range(self.ndev):
                    arrivals[j]["recv"].slice(i * block, block).copy_from(
                        src.slice(j * block, block)
                    )

        self._collective(
            "alltoall", send.nbytes, {"send": send, "recv": recv}, apply, algo
        )
