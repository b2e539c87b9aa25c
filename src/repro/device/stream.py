"""Streams and device events in virtual time.

A :class:`Stream` is an in-order work queue.  Rather than running a
simulated task per stream, enqueue-time arithmetic suffices: each
stream tracks ``available_at``, the virtual time when its last
operation completes; a new operation starts at
``max(now, available_at)`` and completes ``duration`` later.  The
completion :class:`~repro.sim.Future` fires exactly then, which is
when any attached data-plane callback (the real copy/compute) runs.

:class:`DeviceEvent` mirrors ``cudaEvent_t``: recorded into a stream,
it captures the completion of all work enqueued so far and can be
queried (non-blocking — the building block for the paper's *hybrid
event polling*) or synchronized.
"""

from __future__ import annotations

import itertools
from typing import Callable, Optional

from repro.sim import Future, Simulator
from repro.util.errors import DeviceError

_stream_ids = itertools.count()


class Stream:
    """An in-order device work queue."""

    def __init__(
        self,
        sim: Simulator,
        device_name: str = "dev",
        faults=None,
        faults_source=None,
    ) -> None:
        self.sim = sim
        self.device_name = device_name
        self.stream_id = next(_stream_ids)
        #: when the last enqueued operation completes
        self.available_at = 0.0
        self.ops_enqueued = 0
        self.destroyed = False
        #: live fault-plan source (the owning Device): the plan is read
        #: off it at every draw, so installing or swapping a plan on a
        #: device reaches streams created *before* the (re)install —
        #: what per-tenant plan swaps on a long-lived world require
        self._faults_source = faults_source
        #: explicitly pinned plan; overrides the live source when set
        self._faults = faults
        self._last_completion: Optional[Future] = None

    @property
    def faults(self):
        """The fault plan consulted at the ``stream.sync`` site.

        Resolved at draw time: a pinned plan wins, otherwise the owning
        device's *current* plan (not a creation-time snapshot).
        """
        if self._faults is not None:
            return self._faults
        if self._faults_source is not None:
            return self._faults_source.faults
        return None

    @faults.setter
    def faults(self, plan) -> None:
        """Pin an explicit plan, detaching the live device lookup."""
        self._faults = plan
        if plan is not None:
            self._faults_source = None

    def enqueue(
        self,
        duration: float,
        on_complete: Optional[Callable[[], None]] = None,
        label: str = "op",
    ) -> Future:
        """Append an operation taking ``duration`` device-seconds.

        Returns a future fired at the operation's completion time; the
        optional ``on_complete`` callback (the data plane) runs first.
        """
        if self.destroyed:
            raise DeviceError(f"enqueue on destroyed stream {self.stream_id}")
        if duration < 0:
            raise DeviceError(f"negative op duration: {duration}")
        start = max(self.sim.now, self.available_at)
        end = start + duration
        self.available_at = end
        self.ops_enqueued += 1
        fut = Future(self.sim, description=lambda: f"{self.device_name}/s{self.stream_id}:{label}")

        def _complete() -> None:
            if on_complete is not None:
                on_complete()
            fut.fire()

        self.sim.call_later(end - self.sim.now, _complete)
        self._last_completion = fut
        return fut

    @property
    def idle(self) -> bool:
        """True when all enqueued work has completed."""
        return self.available_at <= self.sim.now

    def _sync_latency(self) -> float:
        """One ``stream.sync`` fault draw: the injected latency, or 0."""
        plan = self.faults
        if plan is not None:
            action = plan.draw("stream.sync", op=self.device_name)
            if action is not None and action.latency > 0:
                return action.latency
        return 0.0

    def synchronize(self) -> None:
        """Block the calling task until the stream drains.

        With a fault plan installed, a ``stream.sync`` draw can inject
        extra latency here (a jittery driver-level sync, the paper's
        motivation for hybrid polling over eager synchronization).
        """
        latency = self._sync_latency()
        if latency:
            self.sim.sleep(latency)
        if self._last_completion is not None and not self._last_completion.fired:
            self._last_completion.wait()
        elif self.available_at > self.sim.now:
            self.sim.sleep(self.available_at - self.sim.now)

    def when_synchronized(self, fn: Callable[[], None]) -> None:
        """Scheduler-side :meth:`synchronize`: run ``fn()`` at the
        instant a blocking synchronize begun now would return — the
        same fault draw and the same clock arithmetic, but no task
        parks.  ``fn`` runs in scheduler context (or right away, when
        the stream is already drained) and must not block.
        """

        def drained() -> None:
            last = self._last_completion
            if last is not None and not last.fired:
                last.add_done_callback(lambda _done: fn())
            elif self.available_at > self.sim.now:
                self.sim.call_later(self.available_at - self.sim.now, fn)
            else:
                fn()

        latency = self._sync_latency()
        if latency:
            self.sim.call_later(latency, drained)
        else:
            drained()

    def destroy(self) -> None:
        if self.destroyed:
            raise DeviceError(f"double destroy of stream {self.stream_id}")
        self.destroyed = True

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Stream {self.device_name}/s{self.stream_id} avail={self.available_at:.6f}>"


class DeviceEvent:
    """A recordable completion marker (``cudaEvent_t`` analogue)."""

    def __init__(self, sim: Simulator, name: str = "event") -> None:
        self.sim = sim
        self.name = name
        self._future: Optional[Future] = None
        self._record_time: Optional[float] = None

    def record(self, stream: Stream) -> None:
        """Capture the completion of all work currently in ``stream``."""
        self._record_time = stream.available_at
        fut = Future(self.sim, description=f"event:{self.name}")
        delay = max(0.0, stream.available_at - self.sim.now)
        self.sim.call_later(delay, fut.fire)
        self._future = fut

    @property
    def recorded(self) -> bool:
        return self._future is not None

    def query(self) -> bool:
        """Non-blocking readiness test (``cudaEventQuery``)."""
        if self._future is None:
            raise DeviceError(f"query of unrecorded event {self.name}")
        return self._future.poll()

    def synchronize(self) -> None:
        """Block the calling task until the event fires."""
        if self._future is None:
            raise DeviceError(f"synchronize on unrecorded event {self.name}")
        if not self._future.fired:
            self._future.wait()

    def completion_time(self) -> float:
        """The virtual time the event fires (for tests and models)."""
        if self._record_time is None:
            raise DeviceError(f"completion_time of unrecorded event {self.name}")
        return self._record_time
