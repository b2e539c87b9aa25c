"""Timed, contended message transport over the cluster topology.

Cost model
----------
An unloaded transfer of ``n`` bytes over a path completes after

    ``path.latency + n / path.bandwidth``

(the classic alpha–beta model).  Contention is modelled by
*serialization* on every resource the path occupies (NICs, NVLink
pairs, PCIe host links): each resource has a ``busy_until`` time, a
transfer occupies each of its resources for the wire time
``n / path.bandwidth``, and transmission cannot start before all of
them are free.  The fabric core itself is non-blocking (fat-tree
assumption), so cross-node contention only arises at endpoints —
which matches how Slingshot-11/NDR behave for the message sizes the
paper sweeps.

Data movement is decoupled from timing: the caller supplies an
``on_complete`` callback which performs the real (numpy) copy at the
simulated completion time, so observers can never see bytes "arrive
early".
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict, Optional

from repro.hardware.topology import ClusterTopology, DeviceId, Path
from repro.sim import Future, Simulator, Tracer
from repro.util.errors import CommunicationError, FatalError, TransientError


@dataclasses.dataclass(frozen=True)
class TransferRecord:
    """Completion report attached to every transfer future."""

    src: DeviceId
    dst: DeviceId
    nbytes: int
    operation: str
    start_time: float
    end_time: float
    path: Path

    @property
    def duration(self) -> float:
        return self.end_time - self.start_time

    @property
    def achieved_bandwidth(self) -> float:
        """Effective end-to-end bandwidth including latency and queueing."""
        if self.duration <= 0:
            return float("inf")
        return self.nbytes / self.duration


class Fabric:
    """The cluster's message transport in virtual time."""

    def __init__(
        self,
        sim: Simulator,
        topology: ClusterTopology,
        tracer: Optional[Tracer] = None,
    ) -> None:
        self.sim = sim
        self.topology = topology
        self.tracer = tracer
        #: per-resource earliest availability time
        self._busy_until: Dict[str, float] = {}
        #: cumulative statistics, queryable by tests/benchmarks
        self.total_transfers = 0
        self.total_bytes = 0
        self.faults_injected = 0

    # -- core API -------------------------------------------------------------

    def transfer(
        self,
        src: DeviceId,
        dst: DeviceId,
        nbytes: int,
        operation: str = "put",
        gpu_memory: bool = True,
        on_complete: Optional[Callable[[], None]] = None,
        extra_latency: float = 0.0,
        occupancy_overhead: float = 0.0,
        bandwidth_factor: float = 1.0,
        rails: int = 1,
        force_network: bool = False,
        fault_site: Optional[str] = None,
        initiator: Optional[int] = None,
        *,
        faults=None,
    ) -> Future:
        """Start a transfer; returns a future fired at completion.

        ``on_complete`` (if given) runs at the completion time *before*
        the future fires — this is where the caller performs the actual
        data copy.  ``extra_latency`` lets software layers add their
        per-operation overhead (e.g. MPI window synchronization), and
        ``bandwidth_factor`` their protocol efficiency (fraction of the
        physical link they sustain), without re-implementing the
        contention model.  ``occupancy_overhead`` is per-*message* cost
        charged as resource occupancy (NIC message processing): unlike
        ``extra_latency`` it serializes across messages sharing a
        resource, which is what makes many small messages slower than
        one aggregated message of the same total payload.  For a single
        uncontended transfer the two are equivalent.

        ``faults`` is the initiating scope's
        :class:`~repro.faults.FaultPlan` (None = perfect fabric; see
        :meth:`repro.cluster.world.World.transfer`);
        ``fault_site``/``initiator`` key this transfer for it (site
        defaults to ``fabric.transfer``).  The returned future carries
        an ``eta`` attribute — the expected completion time — which the
        hybrid fence uses to block on the earliest-completing event.
        """
        if nbytes < 0:
            raise CommunicationError(f"negative transfer size: {nbytes}")
        if extra_latency < 0:
            raise CommunicationError(f"negative extra latency: {extra_latency}")
        if occupancy_overhead < 0:
            raise CommunicationError(
                f"negative occupancy overhead: {occupancy_overhead}"
            )
        if not (0.0 < bandwidth_factor <= 1.0):
            raise CommunicationError(
                f"bandwidth_factor must be in (0, 1], got {bandwidth_factor}"
            )
        action = None
        if faults is not None:
            action = faults.draw(
                fault_site or "fabric.transfer", rank=initiator, op=operation
            )
            if action is not None:
                self.faults_injected += 1
                if self.tracer is not None:
                    self.tracer.emit(
                        "fabric",
                        "fault",
                        kind=action.kind,
                        site=action.site,
                        op=operation,
                    )
                if action.kind in ("latency", "stall"):
                    # Stalls drawn at transfer level degrade to latency
                    # (the initiator may not be in task context here).
                    extra_latency += action.latency
        path = self.topology.path(
            src,
            dst,
            operation=operation,
            gpu_memory=gpu_memory,
            rails=rails,
            force_network=force_network,
        )
        now = self.sim.now
        wire_time = nbytes / (path.bandwidth * bandwidth_factor)
        occupied = wire_time + occupancy_overhead
        # Each resource serializes independently (packets from distinct
        # flows interleave at the switch, so a busy egress on one hop
        # does not idle the ingress of another); the transfer completes
        # when its slowest resource finishes.
        earliest = now + extra_latency
        finish = earliest + occupied
        for key in path.resources:
            start_r = max(earliest, self._busy_until.get(key, 0.0))
            end_r = start_r + occupied
            self._busy_until[key] = end_r
            finish = max(finish, end_r)
        end = finish + path.latency
        if action is not None and action.kind == "late":
            # The data lands on time; only the completion event is late
            # (no extra resource occupancy).
            end += action.latency
        record = TransferRecord(src, dst, nbytes, operation, now, end, path)
        self.total_transfers += 1
        self.total_bytes += nbytes
        if self.tracer is not None:
            self.tracer.emit(
                "fabric",
                "transfer",
                src=str(src),
                dst=str(dst),
                nbytes=nbytes,
                op=operation,
                kind=path.kind.value,
                end=end,
            )
        fut = Future(self.sim, description=f"xfer {src}->{dst} {nbytes}B")
        fut.eta = end  # type: ignore[attr-defined]
        if action is not None and action.is_failure:
            if action.kind == "drop":
                # Lost entirely: no data arrival, no completion event.
                # Only a retry policy with op_timeout can rescue this;
                # otherwise the waiter shows up in DeadlockError.
                return fut
            err_cls = FatalError if action.fatal else TransientError
            self.sim.call_later(
                end - now,
                lambda: fut.fail(
                    err_cls(
                        f"injected {operation} failure {src}->{dst} "
                        f"({nbytes} bytes at {action.site})"
                    )
                ),
            )
            return fut

        def _complete() -> None:
            if on_complete is not None:
                on_complete()
            fut.fire(record)

        self.sim.call_later(end - now, _complete)
        return fut

    # -- queries ------------------------------------------------------------

    def resource_busy_until(self, key: str) -> float:
        """When a physical link becomes free (0.0 if never used)."""
        return self._busy_until.get(key, 0.0)

    def unloaded_time(
        self,
        src: DeviceId,
        dst: DeviceId,
        nbytes: int,
        operation: str = "put",
        gpu_memory: bool = True,
    ) -> float:
        """The contention-free transfer time (for analytic models)."""
        path = self.topology.path(src, dst, operation=operation, gpu_memory=gpu_memory)
        return path.transfer_time(nbytes)
