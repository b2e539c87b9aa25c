"""Engine self-profiling: how fast is the simulator itself?

Everything else in ``repro.obs`` measures *virtual* time — what the
simulated hardware would do.  This module measures *host wall-clock*:
how many scheduler events the discrete-event core retires per real
second, and how much real time one simulated second costs.  These are
the numbers that gate engine-speed regressions (the ROADMAP's
1000+-rank scaling item) — a change that doubles per-event Python work
shows up here long before any virtual-time figure moves.

An :class:`EngineProfiler` is attached to the
:class:`~repro.sim.core.Simulator` at construction (the
:class:`~repro.cluster.world.World` wires ``world.obs.engine`` in).
The simulator calls the three accounting hooks from its scheduler
loop; the cost per event is two ``perf_counter()`` calls.  Disabled,
the hooks are never invoked at all (the simulator keeps a ``None``
profiler).

Exported metrics (see :meth:`EngineProfiler.publish`):

=========================  ==================================================
``sim.events``             scheduler events retired (deterministic per run)
``sim.events_per_sec``     events / host wall-clock second inside ``run()``
``sim.wall_per_simsec``    host seconds per simulated second
``sim.wall_seconds``       wall inside ``run()``, labeled by phase
                           (``task`` / ``callback`` / ``scheduler``)
=========================  ==================================================
"""

from __future__ import annotations

from time import perf_counter
from typing import Any, Dict


class EngineProfiler:
    """Wall-clock accounting of the discrete-event scheduler.

    Counts retired events and splits the wall time spent inside
    :meth:`~repro.sim.core.Simulator.run` into three phases:

    * ``task`` — one slice per task resume: from handing the task
      control (the switch into its thread included) until it blocks
      or finishes,
    * ``callback`` — ``call_later`` callbacks, on whichever thread is
      dispatching,
    * ``scheduler`` — everything else: queue work and dispatch on the
      thread giving control up, and the hand-back to ``run()``.

    Accumulates across multiple ``run(until=...)`` slices.
    """

    __slots__ = (
        "enabled",
        "events",
        "task_events",
        "callback_events",
        "task_wall",
        "callback_wall",
        "run_wall",
        "sim_elapsed",
        "runs",
    )

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        #: scheduler events retired (task resumes + callbacks)
        self.events = 0
        self.task_events = 0
        self.callback_events = 0
        #: host seconds inside task execution / callbacks / run() total
        self.task_wall = 0.0
        self.callback_wall = 0.0
        self.run_wall = 0.0
        #: virtual seconds covered by the profiled run() slices
        self.sim_elapsed = 0.0
        #: completed run() slices
        self.runs = 0

    # -- simulator hooks (hot path) -------------------------------------------

    def account_task(self, wall: float) -> None:
        """One task-resume event took ``wall`` host seconds."""
        self.events += 1
        self.task_events += 1
        self.task_wall += wall

    def account_callback(self, wall: float) -> None:
        """One scheduler callback took ``wall`` host seconds."""
        self.events += 1
        self.callback_events += 1
        self.callback_wall += wall

    def finish_run(self, run_wall: float, sim_now: float) -> None:
        """One ``run()`` slice ended: ``run_wall`` host seconds, clock
        at ``sim_now`` virtual seconds."""
        self.run_wall += run_wall
        self.sim_elapsed = max(self.sim_elapsed, sim_now)
        self.runs += 1

    # -- derived figures --------------------------------------------------------

    @property
    def scheduler_wall(self) -> float:
        """Wall spent on dispatch/heap work (run minus task/callback)."""
        return max(0.0, self.run_wall - self.task_wall - self.callback_wall)

    @property
    def events_per_sec(self) -> float:
        """Scheduler events retired per host second (0.0 before run)."""
        return self.events / self.run_wall if self.run_wall > 0 else 0.0

    @property
    def wall_per_simsec(self) -> float:
        """Host seconds per simulated second (0.0 when no virtual time
        elapsed — e.g. a zero-latency run)."""
        return self.run_wall / self.sim_elapsed if self.sim_elapsed > 0 else 0.0

    # -- export -----------------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serializable summary (attached to metric snapshots)."""
        return {
            "events": self.events,
            "task_events": self.task_events,
            "callback_events": self.callback_events,
            "events_per_sec": self.events_per_sec,
            "wall_per_simsec": self.wall_per_simsec,
            "run_wall_seconds": self.run_wall,
            "task_wall_seconds": self.task_wall,
            "callback_wall_seconds": self.callback_wall,
            "scheduler_wall_seconds": self.scheduler_wall,
            "sim_elapsed_seconds": self.sim_elapsed,
            "runs": self.runs,
        }

    def publish(self, registry) -> None:
        """Export the engine figures as gauges on ``registry``."""
        if not self.enabled or not getattr(registry, "enabled", False):
            return
        registry.gauge("sim.events", "scheduler events retired").set(self.events)
        registry.gauge(
            "sim.events_per_sec", "scheduler events per host wall-clock second"
        ).set(self.events_per_sec)
        registry.gauge(
            "sim.wall_per_simsec", "host seconds per simulated second"
        ).set(self.wall_per_simsec)
        wall = registry.gauge("sim.wall_seconds", "run() wall by engine phase")
        wall.set(self.task_wall, phase="task")
        wall.set(self.callback_wall, phase="callback")
        wall.set(self.scheduler_wall, phase="scheduler")

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<EngineProfiler events={self.events} "
            f"events_per_sec={self.events_per_sec:.0f} "
            f"wall_per_simsec={self.wall_per_simsec:.1f}>"
        )


__all__ = ["EngineProfiler", "perf_counter"]
