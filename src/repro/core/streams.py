"""Stream pool: the paper's event/stream management strategy (§3.2).

Four techniques, all ablatable via :class:`StreamPoolParams`:

* **lazy allocation** — streams are created on demand, never
  preallocated,
* **stream reuse** — idle pool streams are reused instead of created,
* **bounded concurrency** — at most ``max_active_streams`` streams are
  live; hitting the bound triggers *partial synchronization*: only the
  completed/soonest half is synchronized and released while the rest
  keep running, sustaining pipeline throughput,
* **hybrid event polling** — ``ompx_fence`` polls network events and
  device stream completions in one coordinated loop so neither side
  stalls the other.  The loop is a scheduler-side state machine (poll
  steps are timed callbacks, waits are done-callbacks on completion
  futures), so a fence parks its task once, not once per poll step.
"""

from __future__ import annotations

import dataclasses
import operator
from typing import List, Optional, Sequence

from repro.device.driver import Device
from repro.device.stream import Stream
from repro.obs import Observability
from repro.sim import Future, Simulator, Tracer
from repro.util.errors import ConfigurationError
from repro.util.units import US


@dataclasses.dataclass(frozen=True)
class StreamPoolParams:
    """Tuning knobs (the paper's MAX_ACTIVE_STREAMS policy)."""

    max_active_streams: int = 8
    #: fraction of busy streams released by one partial synchronization
    partial_sync_fraction: float = 0.5
    #: ablation switch: disable reuse (always create up to the bound)
    reuse: bool = True
    #: cost of one poll iteration in the hybrid fence loop
    poll_cost: float = 0.05 * US

    def __post_init__(self) -> None:
        if self.max_active_streams <= 0:
            raise ConfigurationError("max_active_streams must be positive")
        if not (0.0 < self.partial_sync_fraction <= 1.0):
            raise ConfigurationError("partial_sync_fraction must be in (0, 1]")


class StreamPool:
    """Per-device pool of communication streams."""

    def __init__(
        self,
        sim: Simulator,
        device: Device,
        params: Optional[StreamPoolParams] = None,
        tracer: Optional[Tracer] = None,
        obs: Optional[Observability] = None,
    ) -> None:
        self.sim = sim
        self.device = device
        self.params = params or StreamPoolParams()
        self.tracer = tracer
        self._idle: List[Stream] = []
        self._busy: List[Stream] = []
        # -- statistics inspected by tests and the ablation bench --
        self.created = 0
        self.reused = 0
        self.destroyed = 0
        self.partial_syncs = 0
        self.poll_iterations = 0
        # -- metrics (see repro.obs; high-water mark via the gauge) --
        self._obs = obs
        # Series by device (one per pool), resolved on first write and
        # keyed by the device's label string (cheap to hash).
        self._device_label = device.name
        if obs is not None:
            self._g_active = obs.gauge(
                "streams.active", "live streams per device pool"
            ).bind("device")
            self._h_partial = obs.histogram(
                "streams.partial_sync_busy",
                "busy streams at each partial synchronization",
                bounds=(1, 2, 4, 8, 16, 32, 64),
            ).bind("device")
            self._h_fence = obs.histogram(
                "streams.fence_iterations",
                "poll iterations per hybrid fence",
                bounds=(0, 1, 2, 4, 8, 16, 32, 64, 128),
            ).bind("device")
        else:
            self._g_active = self._h_partial = self._h_fence = None

    def _track_active(self) -> None:
        if self._g_active is not None:
            self._g_active.set(self._device_label, self.active_count)

    @property
    def active_count(self) -> int:
        return len(self._idle) + len(self._busy)

    def acquire(self) -> Stream:
        """Get a stream for one operation.

        Order of preference: reuse an idle stream → lazily create below
        the bound → partial-synchronize and reuse.

        With ``reuse=False`` (the ablation) no stream is ever handed
        out twice: drained streams are destroyed and a fresh one is
        created in their place, including on the post-partial-sync
        path — so ``reused`` stays 0 and the ablation really measures
        creation cost.
        """
        self._reclaim_idle()
        if not self.params.reuse:
            self._destroy_idle()
        if self.params.reuse and self._idle:
            stream = self._idle.pop()
            self._busy.append(stream)
            self.reused += 1
            return stream
        if self.active_count < self.params.max_active_streams:
            return self._create_busy()
        self._partial_synchronize()
        if not self._idle:  # pragma: no cover - partial sync always frees ≥1
            raise ConfigurationError("partial synchronization freed no stream")
        if not self.params.reuse:
            self._destroy_idle()
            return self._create_busy()
        stream = self._idle.pop()
        self._busy.append(stream)
        self.reused += 1
        return stream

    def _create_busy(self) -> Stream:
        stream = self.device.create_stream()
        self._busy.append(stream)
        self.created += 1
        self._track_active()
        if self.tracer is not None:
            self.tracer.emit("streams", "create", device=self._device_label)
        return stream

    def _destroy_idle(self) -> None:
        """Reuse-disabled teardown: a drained stream is never handed
        out again."""
        for stream in self._idle:
            stream.destroy()
            self.destroyed += 1
        if self._idle:
            self._idle = []
            self._track_active()
            if self.tracer is not None:
                self.tracer.emit(
                    "streams", "destroy", device=self._device_label
                )

    def _reclaim_idle(self) -> None:
        """Move streams whose work has drained back to the idle list."""
        still_busy = []
        for stream in self._busy:
            (self._idle if stream.idle else still_busy).append(stream)
        self._busy = still_busy

    def _partial_synchronize(self) -> None:
        """The MAX_ACTIVE_STREAMS policy: synchronize and release only
        a fraction of the busy streams — the ones completing soonest —
        while the others keep executing."""
        self.partial_syncs += 1
        if self._h_partial is not None:
            self._h_partial.observe(self._device_label, len(self._busy))
        if self.tracer is not None:
            self.tracer.emit("streams", "partial_sync", busy=len(self._busy))
        self._busy.sort(key=lambda s: s.available_at)
        count = max(1, int(len(self._busy) * self.params.partial_sync_fraction))
        to_sync, self._busy = self._busy[:count], self._busy[count:]
        for stream in to_sync:
            stream.synchronize()
            self._idle.append(stream)
        self._track_active()

    def synchronize_all(self) -> None:
        """Drain every stream (full fence)."""
        self._reclaim_idle()
        for stream in self._busy:
            stream.synchronize()
        self._idle.extend(self._busy)
        self._busy = []
        if not self.params.reuse:
            self._destroy_idle()
        self._track_active()

    # -- hybrid event polling ---------------------------------------------------

    def hybrid_fence(
        self,
        network_events: Sequence[Future],
        streams: Optional[Sequence[Stream]] = None,
    ) -> int:
        """The unified polling loop of ``ompx_fence``.

        Polls network completions (GASNet/GPI-2 and intra-node transfer
        :class:`~repro.sim.Future` objects) and device stream
        completions together: each pass tests everything that is still
        pending, then waits for the *earliest* remaining completion
        rather than serializing on issue order.  An event's ``eta``
        (set by the fabric) is its expected completion.  Events are
        sorted by it once, on entry (stably: ties keep issue order, and
        events without one sort last), so an ETA a retry revises later
        does not reorder the waits.  A failed event is a terminal state
        like a fired one: the loop drains everything, and the caller
        reports failures from the events' ``error``.  Returns the
        number of poll iterations (traced for the ablation bench).

        The loop runs on the scheduler — each poll step is a
        ``call_later(poll_cost)``, each wait a done-callback on the
        chosen completion — so the calling task parks once, on the
        loop's own future, however many iterations it takes; virtual
        time is the same as polling from the task.

        With ``streams`` given, only those streams are drained — the
        group-scoped fence: operations parked on *other* streams (to
        ranks outside the group) keep executing.  The streams need not
        belong to this pool; synchronizing a foreign pool's stream is
        safe, its owner reclaims it at the next acquire.  ``streams``
        of ``None`` (the default) drains this whole pool.
        """
        sim = self.sim
        poll_cost = self.params.poll_cost
        if streams is None:

            def busy_streams() -> List[Stream]:
                self._reclaim_idle()
                return self._busy

        else:
            targets = list(dict.fromkeys(streams))

            def busy_streams() -> List[Stream]:
                return [s for s in targets if not s.idle]

        pending_events = sorted((e for e in network_events if not e.fired), key=_eta)
        iterations = 0
        if pending_events or busy_streams():
            done = Future(sim, description="hybrid_fence")

            def step() -> None:
                nonlocal iterations
                iterations += 1
                self.poll_iterations += 1
                sim.call_later(poll_cost, poll)

            def poll() -> None:
                nonlocal pending_events
                pending_events = [e for e in pending_events if not e.fired]
                pending_streams = busy_streams()
                if not pending_events and not pending_streams:
                    done.fire()
                    return
                # Wait for whichever side completes first.
                next_stream = min(
                    pending_streams, key=_available_at, default=None
                )
                next_event = pending_events[0] if pending_events else None
                if next_stream is not None and (
                    next_event is None
                    or next_stream.available_at <= _eta(next_event)
                ):
                    next_stream.when_synchronized(step)
                    return

                def event_done(_event: Future) -> None:
                    pending_events.remove(next_event)
                    # The loop test reuses this pass's stream list: when
                    # the waited event was the last one and no stream
                    # was busy, the fence ends without another poll.
                    if pending_events or pending_streams:
                        step()
                    else:
                        done.fire()

                next_event.add_done_callback(event_done)

            step()
            done.wait()
        self._track_active()
        if self._h_fence is not None:
            self._h_fence.observe(self._device_label, iterations)
        if self.tracer is not None:
            self.tracer.emit("streams", "hybrid_fence", iterations=iterations)
        return iterations


_available_at = operator.attrgetter("available_at")


def _eta(event: Future) -> float:
    return float("inf") if event.eta is None else event.eta
