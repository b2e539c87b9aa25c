"""Deterministic discrete-event simulation kernel.

This package is the execution substrate for the whole reproduction.  A
:class:`~repro.sim.core.Simulator` owns a virtual clock and an event
queue; *tasks* (one per simulated MPI rank, plus any number of helper
daemons) run as real threads under a cooperative scheduler that lets
exactly one thread execute at a time.  Wake-ups are ordered by
``(time, sequence)`` so runs are fully deterministic.

Data movement in the simulated cluster is *real* — numpy copies are
performed at the simulated completion time — so correctness tests can
assert on bytes while benchmarks read the virtual clock.

Public surface:

* :class:`Simulator`, :class:`Task` — kernel and task handles
* :class:`Future` — one-shot completion signal (the building block for
  network events, device events and stream completions)
* :class:`Channel`, :class:`Semaphore`, :class:`Lock`,
  :class:`Barrier` — blocking coordination primitives in virtual time
* :class:`Rendezvous` — keyed all-member arrival points: the last
  arrival decides once over every payload, everyone leaves together
  (a :class:`Release` decision also sets the delay and release action)
* :class:`Tracer` — structured event trace used by tests and the bench
  harness
"""

from repro.sim.core import Simulator, Task, TaskState
from repro.sim.sync import Future, Channel, Semaphore, Lock, Barrier, Release, Rendezvous
from repro.sim.trace import Tracer, TraceRecord

__all__ = [
    "Simulator",
    "Task",
    "TaskState",
    "Future",
    "Channel",
    "Semaphore",
    "Lock",
    "Barrier",
    "Release",
    "Rendezvous",
    "Tracer",
    "TraceRecord",
]
