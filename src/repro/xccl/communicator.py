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
arithmetic for real buffers at the completion instant, identical for
every algorithm (contributions are always combined in slot order, so
results are bit-identical across algorithms).

A collective call blocks until every member has arrived (matching
launch order per communicator), then all members complete together at
the modelled time — the same externally observable semantics as a
stream-synchronized NCCL call.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.cluster.memref import MemRef
from repro.cluster.world import World
from repro.device.driver import Device
from repro.hardware.topology import DeviceId
from repro.sim import Future
from repro.util.errors import CommunicationError
from repro.xccl.algorithms import Selection, select_algorithm
from repro.xccl.params import XcclParams
from repro.xccl.topo import CommTopology, analyze, build_ring
from repro.xccl.uniqueid import UniqueId


@dataclasses.dataclass
class _PendingCollective:
    """Rendezvous state for one in-flight collective.

    All members share one completion future — arrival bookkeeping is
    O(1) per member (a dict insert and a shared-future wait), so the
    whole rendezvous costs O(P) rather than O(P) future allocations
    plus per-member scheduling state.
    """

    op: str
    #: message size the first arriver declared (members must agree)
    nbytes: int
    #: forced algorithm of the first arriver (None = auto-select)
    algo: Optional[str]
    #: completion future every member waits on (created by the first
    #: arriver, fired once by the completion callback)
    done: Future
    arrivals: Dict[int, dict] = dataclasses.field(default_factory=dict)


@dataclasses.dataclass
class _CommState:
    """Shared state of one communicator (all device slots)."""

    uid: UniqueId
    ndev: int
    devices: Dict[int, DeviceId] = dataclasses.field(default_factory=dict)
    ring: Optional[List[DeviceId]] = None
    ctopo: Optional[CommTopology] = None
    bottleneck_bw: float = 0.0
    hop_latency: float = 0.0
    init_barrier_waiters: List[Future] = dataclasses.field(default_factory=list)
    pending: Dict[int, _PendingCollective] = dataclasses.field(default_factory=dict)
    #: (op, nbytes, forced-algo) -> Selection.  The topology and params
    #: are frozen after init, so pricing is a pure function of the key;
    #: caching makes the per-member selection preview O(1) instead of
    #: re-running the cost models for every launch of a repeated shape.
    sel_cache: Dict[tuple, Selection] = dataclasses.field(default_factory=dict)


class XcclContext:
    """The loaded library instance for one world ("libnccl.so")."""

    def __init__(self, world: World, params: XcclParams) -> None:
        self.world = world
        self.params = params
        self._comms: Dict[UniqueId, _CommState] = {}
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

    def _state(self, uid: UniqueId, ndev: int) -> _CommState:
        state = self._comms.get(uid)
        if state is None:
            state = _CommState(uid=uid, ndev=ndev)
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
        sim = ctx.world.sim
        if len(state.devices) < ndev:
            fut = Future(sim, description=f"xccl-init:{uid}")
            state.init_barrier_waiters.append(fut)
            fut.wait()
        else:
            # Last joiner: detect topology, charge init, release everyone.
            ring = build_ring([state.devices[i] for i in range(ndev)])
            state.ring = ring
            state.ctopo = analyze(ctx.world.topology, ring, ctx.params)
            state.bottleneck_bw = state.ctopo.flat_bw
            state.hop_latency = state.ctopo.flat_hop_latency
            sim.sleep(ctx.params.init_overhead)
            waiters, state.init_barrier_waiters = state.init_barrier_waiters, []
            for fut in waiters:
                fut.fire()
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
        algo: Optional[str] = None,
    ) -> None:
        """Arrive at collective #seq; last arrival schedules completion."""
        state = self._state
        sim = self.ctx.world.sim
        seq = self._op_seq
        self._op_seq += 1
        pending = state.pending.get(seq)
        if pending is None:
            pending = _PendingCollective(
                op=op,
                nbytes=nbytes,
                algo=algo,
                done=Future(sim, description=f"xccl:{op}#{seq}"),
            )
            state.pending[seq] = pending
        if pending.op != op:
            raise CommunicationError(
                f"collective mismatch at sequence {seq}: "
                f"{pending.op} vs {op} (all members must call the same op "
                "in the same order)"
            )
        if pending.nbytes != nbytes:
            raise CommunicationError(
                f"collective size mismatch at sequence {seq}: device rank "
                f"{self.dev_rank} passed {nbytes} bytes for {op} but earlier "
                f"members passed {pending.nbytes} (all members must agree)"
            )
        if pending.algo != algo:
            raise CommunicationError(
                f"collective algorithm mismatch at sequence {seq}: device rank "
                f"{self.dev_rank} forced {algo!r} but earlier members forced "
                f"{pending.algo!r}"
            )
        if self.dev_rank in pending.arrivals:
            raise CommunicationError(f"device rank {self.dev_rank} arrived twice")
        pending.arrivals[self.dev_rank] = arrival
        fut = pending.done
        self.ctx._m_launches.inc(op=op, library=self.ctx.params.name, ndev=state.ndev)
        if len(pending.arrivals) == state.ndev:
            del state.pending[seq]
            sel = self.select(op, nbytes, algo=algo)
            duration = sel.seconds
            labels = dict(
                op=op, algo=sel.algo, library=self.ctx.params.name, ndev=state.ndev
            )
            self.ctx._m_algo.inc(**labels)
            self.ctx._m_wire.inc(
                state.ndev * sum(ph.wire_bytes for ph in sel.phases), **labels
            )
            self._record_phases(sel, sim.now)
            arrivals = pending.arrivals
            done = pending.done

            def complete() -> None:
                apply_fn(arrivals)
                done.fire()

            sim.call_later(duration, complete)
        fut.wait()

    @staticmethod
    def _all_real(arrivals: Dict[int, dict], *keys: str) -> bool:
        refs = [a[k] for a in arrivals.values() for k in keys if a.get(k) is not None]
        return all(not r.is_virtual for r in refs)

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
            if not self._all_real(arrivals, "send", "recv"):
                return
            total = None
            for i in range(self.ndev):
                contrib = arrivals[i]["send"].typed(dtype)
                total = contrib.copy() if total is None else op(total, contrib)
            for i in range(self.ndev):
                arrivals[i]["recv"].typed(dtype)[:] = total

        self._collective(
            "all_reduce", send.nbytes, {"send": send, "recv": recv}, apply, algo=algo
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
            if not self._all_real(arrivals, "buf"):
                return
            src = arrivals[root]["buf"]
            for i in range(self.ndev):
                if i != root:
                    arrivals[i]["buf"].copy_from(src)

        self._collective("broadcast", buf.nbytes, {"buf": buf}, apply, algo=algo)

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
            if not self._all_real(arrivals, "send"):
                return
            root_recv = arrivals[root].get("recv")
            if root_recv is None or root_recv.is_virtual:
                return
            total = None
            for i in range(self.ndev):
                contrib = arrivals[i]["send"].typed(dtype)
                total = contrib.copy() if total is None else op(total, contrib)
            root_recv.typed(dtype)[:] = total

        self._collective(
            "reduce", send.nbytes, {"send": send, "recv": recv}, apply, algo=algo
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
            if not self._all_real(arrivals, "send", "recv"):
                return
            block = send.nbytes
            for i in range(self.ndev):
                src = arrivals[i]["send"]
                for j in range(self.ndev):
                    arrivals[j]["recv"].slice(i * block, block).copy_from(src)

        self._collective(
            "all_gather", send.nbytes, {"send": send, "recv": recv}, apply, algo=algo
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
            if not self._all_real(arrivals, "send", "recv"):
                return
            block = recv.nbytes
            for j in range(self.ndev):
                total = None
                for i in range(self.ndev):
                    contrib = arrivals[i]["send"].slice(j * block, block).typed(dtype)
                    total = contrib.copy() if total is None else op(total, contrib)
                arrivals[j]["recv"].typed(dtype)[:] = total

        self._collective(
            "reduce_scatter",
            recv.nbytes * self.ndev,
            {"send": send, "recv": recv},
            apply,
            algo=algo,
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
            if not self._all_real(arrivals, "send", "recv"):
                return
            block = send.nbytes // self.ndev
            for i in range(self.ndev):
                src = arrivals[i]["send"]
                for j in range(self.ndev):
                    arrivals[j]["recv"].slice(i * block, block).copy_from(
                        src.slice(j * block, block)
                    )

        self._collective(
            "alltoall", send.nbytes, {"send": send, "recv": recv}, apply, algo=algo
        )
