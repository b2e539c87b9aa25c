"""MPI one-sided RMA windows (the Figs. 3–4 baseline).

Implements the passive-target model the paper benchmarks against:
``MPI_Win_create`` (collective; registers each rank's memory with the
library **separately from any other registration**, the duplication of
Fig. 1a), ``lock``/``unlock`` epochs, ``put``/``get``/``flush`` and
active-target ``fence``.

The cost structure is the point: every RMA op pays the higher
``rma_*_overhead`` and the lower ``rma_bw_efficiency`` from
:class:`~repro.mpi.params.MpiParams`, and epochs add lock/unlock
software latency — which is exactly why DiOMP's GASNet path wins the
microbenchmarks.
"""

from __future__ import annotations

from typing import Dict, List

from repro.cluster.memref import MemRef
from repro.mpi.comm import Communicator
from repro.mpi.collectives import barrier as _coll_barrier
from repro.sim import Future, Lock
from repro.util.errors import CommunicationError

LOCK_SHARED = "shared"
LOCK_EXCLUSIVE = "exclusive"


class Window:
    """One rank's handle on a collectively created RMA window.

    Construction protocol (mirrors ``MPI_Win_create``): every rank
    calls :meth:`create` with its exposed :class:`MemRef`; the call is
    collective over the communicator and returns that rank's handle.
    """

    def __init__(self, comm: Communicator, memref: MemRef, win_id: int) -> None:
        self.comm = comm
        self.memref = memref
        self.win_id = win_id
        self._epochs: Dict[int, str] = {}  # target rank -> lock type
        self._pending: Dict[int, List[Future]] = {}
        #: counts of RMA ops issued through this handle (for tests)
        self.puts_issued = 0
        self.gets_issued = 0

    # -- creation --------------------------------------------------------------

    @classmethod
    def create(cls, comm: Communicator, memref: MemRef, win_key: int = 0) -> "Window":
        """Collective window creation; every rank passes its region."""
        params = comm.mpi.params
        # Memory registration cost: the MPI library pins/registers this
        # region with the NIC independently of any other subsystem.
        comm.sim.sleep(params.win_register_overhead)
        registry = comm.mpi.window_registry
        key = (comm.context_id, win_key)
        state = registry.setdefault(
            key, {"exposed": {}, "locks": {}, "win_id": len(registry)}
        )
        state["exposed"][comm.rank] = memref
        win = cls(comm, memref, state["win_id"])
        win._state = state
        _coll_barrier(comm)  # Win_create synchronizes
        if len(state["exposed"]) != comm.size:
            raise CommunicationError(
                "Window.create is collective: not every rank participated"
            )
        return win

    def _exposed(self, target: int) -> MemRef:
        try:
            return self._state["exposed"][target]
        except KeyError:
            raise CommunicationError(f"rank {target} exposed no window memory") from None

    def _target_lock(self, target: int) -> Lock:
        locks = self._state["locks"]
        if target not in locks:
            locks[target] = Lock(self.comm.sim, name=f"win{self.win_id}-t{target}")
        return locks[target]

    # -- epochs ------------------------------------------------------------------

    def lock(self, target: int, lock_type: str = LOCK_SHARED) -> None:
        """``MPI_Win_lock``: open a passive-target epoch."""
        if lock_type not in (LOCK_SHARED, LOCK_EXCLUSIVE):
            raise CommunicationError(f"bad lock type {lock_type!r}")
        if target in self._epochs:
            raise CommunicationError(f"epoch already open to rank {target}")
        if lock_type == LOCK_EXCLUSIVE:
            self._target_lock(target).acquire()
        self.comm.sim.sleep(self.comm.mpi.params.lock_overhead)
        self._epochs[target] = lock_type
        self._pending.setdefault(target, [])

    def unlock(self, target: int) -> None:
        """``MPI_Win_unlock``: flush and close the epoch."""
        lock_type = self._epochs.get(target)
        if lock_type is None:
            raise CommunicationError(f"no open epoch to rank {target}")
        self.flush(target)
        del self._epochs[target]
        self.comm.sim.sleep(self.comm.mpi.params.unlock_overhead)
        if lock_type == LOCK_EXCLUSIVE:
            self._target_lock(target).release()

    def _require_epoch(self, target: int) -> None:
        if target not in self._epochs:
            raise CommunicationError(
                f"RMA operation outside an access epoch to rank {target} "
                "(call lock() or fence() first)"
            )

    # -- data movement --------------------------------------------------------------

    def put(self, src: MemRef, target: int, target_offset: int = 0) -> None:
        """``MPI_Put`` into the target's window (non-blocking until a
        flush/unlock/fence)."""
        self._require_epoch(target)
        exposed = self._exposed(target)
        dst = exposed.slice(target_offset, src.nbytes)
        params = self.comm.mpi.params
        world = self.comm.mpi.world
        fut = world.transfer(
            src.endpoint,
            dst.endpoint,
            src.nbytes,
            operation="mpi_put",
            gpu_memory=src.is_device or dst.is_device,
            on_complete=lambda: dst.copy_from(src),
            extra_latency=params.rma_put_overhead
            + world.platform.node.nic.message_overhead,
            bandwidth_factor=params.rma_bw_efficiency,
            rails=(
                world.platform.node.nics_per_node
                if src.nbytes >= params.multirail_threshold
                else 1
            ),
        )
        self.puts_issued += 1
        self._pending[target].append(fut)

    def get(self, dst: MemRef, target: int, target_offset: int = 0) -> None:
        """``MPI_Get`` from the target's window."""
        self._require_epoch(target)
        exposed = self._exposed(target)
        src = exposed.slice(target_offset, dst.nbytes)
        params = self.comm.mpi.params
        world = self.comm.mpi.world
        fut = world.transfer(
            src.endpoint,
            dst.endpoint,
            dst.nbytes,
            operation="mpi_get",
            gpu_memory=src.is_device or dst.is_device,
            on_complete=lambda: dst.copy_from(src),
            extra_latency=params.rma_get_overhead
            + world.platform.node.nic.message_overhead,
            bandwidth_factor=params.rma_bw_efficiency,
            rails=(
                world.platform.node.nics_per_node
                if dst.nbytes >= params.multirail_threshold
                else 1
            ),
        )
        self.gets_issued += 1
        self._pending[target].append(fut)

    def accumulate(
        self,
        src: MemRef,
        target: int,
        dtype,
        op=None,
        target_offset: int = 0,
    ) -> None:
        """``MPI_Accumulate``: element-wise read-modify-write into the
        target window (default op: sum).  Accumulates are applied in
        completion order; MPI's same-origin ordering holds because one
        origin's operations serialize on its injection path."""
        import numpy as np

        self._require_epoch(target)
        op = np.add if op is None else op
        dtype = np.dtype(dtype)
        exposed = self._exposed(target)
        dst = exposed.slice(target_offset, src.nbytes)
        params = self.comm.mpi.params
        world = self.comm.mpi.world

        def apply() -> None:
            if dst.is_virtual and src.is_virtual:
                return
            d = dst.typed(dtype)
            d[:] = op(d, src.typed(dtype))

        fut = world.transfer(
            src.endpoint,
            dst.endpoint,
            src.nbytes,
            operation="mpi_put",
            gpu_memory=src.is_device or dst.is_device,
            on_complete=apply,
            # Accumulate pays the put path plus target-side combining.
            extra_latency=1.5 * params.rma_put_overhead
            + world.platform.node.nic.message_overhead,
            bandwidth_factor=params.rma_bw_efficiency,
        )
        self.puts_issued += 1
        self._pending[target].append(fut)

    def flush(self, target: int) -> None:
        """``MPI_Win_flush``: complete all pending ops to ``target``."""
        self._require_epoch(target)
        pending = self._pending.get(target, [])
        self._pending[target] = []
        for fut in pending:
            if not fut.poll():
                fut.wait()

    # -- active target ------------------------------------------------------------

    def fence(self) -> None:
        """``MPI_Win_fence``: collective epoch separator.

        Opens an access epoch to every rank (so puts/gets may follow)
        and completes all outstanding ops from the previous epoch.
        """
        params = self.comm.mpi.params
        for target, pending in list(self._pending.items()):
            self._pending[target] = []
            for fut in pending:
                if not fut.poll():
                    fut.wait()
        self.comm.sim.sleep(params.fence_overhead)
        _coll_barrier(self.comm)
        for target in range(self.comm.size):
            self._epochs.setdefault(target, LOCK_SHARED)
            self._pending.setdefault(target, [])

    def free(self) -> None:
        """``MPI_Win_free``: collective teardown."""
        if LOCK_EXCLUSIVE in self._epochs.values():
            raise CommunicationError("window freed with an exclusive epoch open")
        _coll_barrier(self.comm)
        self._state["exposed"].pop(self.comm.rank, None)
