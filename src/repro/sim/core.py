"""The discrete-event simulator core.

Design
------
The simulator is a classic event-queue kernel with one twist: simulated
*tasks* are real Python threads.  This lets user programs (MPI ranks,
DiOMP ranks, runtime daemons) be written as ordinary blocking Python
functions — nested calls, loops, exceptions — without generator/yield
plumbing.  Determinism is preserved because the scheduler hands control
to exactly one thread at a time and wake order is the strict total
order ``(time, sequence_number)``.

Control handoff protocol::

    scheduler                         task thread
    ---------                         -----------
    pop event (t, seq, resume T)
    now = t
    T._resume_evt.set()  ──────────►  returns from _block()/starts fn
    wait _sched_evt                   ... runs simulated code ...
                                      blocks: state=BLOCKED
    ◄──────────  _sched_evt.set()     waits on _resume_evt
    continue loop

Only the scheduler **or** the single running task ever touches
simulator state, so no further locking is needed.

Scalability (1024+ ranks): SPMD programs generate large bursts of
events at identical timestamps — every barrier release, collective
completion, and launch wave resumes the whole world at one instant.
The event queue is therefore a *calendar* of per-timestamp FIFO
buckets ordered by a heap of distinct times: a same-time burst costs
one heap operation total instead of one ``heappush``/``heappop`` pair
per member, and the scheduler drains a whole bucket back-to-back
without re-consulting the heap.  Task threads start lazily on first
resume, so building a world never pays OS-thread cost for ranks that
a bounded run or an early abort never reaches.

Error handling: an exception escaping a task is delivered to the
tasks joining it at that moment (their ``join()`` raises it); if no
live task is joining, it aborts the simulation — :meth:`Simulator.run`
re-raises it after killing the remaining tasks so no threads leak
(important when pytest runs thousands of simulations).
"""

from __future__ import annotations

import collections
import enum
import heapq
import itertools
import threading
from time import perf_counter
from typing import Any, Callable, List, Optional

from repro.util.errors import DeadlockError, SimulationError


class _Kill(BaseException):
    """Injected into blocked task threads during teardown.

    Derives from ``BaseException`` so user ``except Exception`` blocks
    cannot swallow it.
    """


class TaskState(enum.Enum):
    """Lifecycle of a simulated task."""

    NEW = "new"
    RUNNING = "running"
    BLOCKED = "blocked"
    DONE = "done"
    FAILED = "failed"
    KILLED = "killed"


class Task:
    """A simulated thread of control.

    Created via :meth:`Simulator.spawn`.  The wrapped function runs on a
    daemon thread; its return value is available as :attr:`result` once
    :attr:`state` is :attr:`TaskState.DONE`, and other tasks can block
    on completion with :meth:`join`.
    """

    def __init__(
        self,
        sim: "Simulator",
        fn: Callable[..., Any],
        args: tuple,
        kwargs: dict,
        name: str,
    ) -> None:
        self.sim = sim
        self.name = name
        self.state = TaskState.NEW
        self.result: Any = None
        self.error: Optional[BaseException] = None
        #: human-readable description of what the task is blocked on
        self.wait_reason: str = ""
        self._fn = fn
        self._args = args
        self._kwargs = kwargs
        self._wake_value: Any = None
        self._kill = False
        self._resume_evt = threading.Event()
        self._join_waiters: List[Any] = []  # Futures fired on completion
        #: True once the task's error was raised in at least one live
        #: joiner — a delivered error is handled there, not by run()
        self._error_delivered = False
        #: created lazily on first resume (see Simulator._give_control)
        self._thread: Optional[threading.Thread] = None

    # -- scheduler side ----------------------------------------------------

    def _start_thread(self) -> None:
        self._thread = threading.Thread(
            target=self._thread_body, name=f"sim:{self.name}", daemon=True
        )
        self._thread.start()

    def _thread_body(self) -> None:
        # Park until the scheduler gives us control for the first time.
        self._resume_evt.wait()
        self._resume_evt.clear()
        sim = self.sim
        try:
            if self._kill:
                raise _Kill()
            self.state = TaskState.RUNNING
            self.result = self._fn(*self._args, **self._kwargs)
            self.state = TaskState.DONE
        except _Kill:
            self.state = TaskState.KILLED
        except BaseException as exc:  # noqa: BLE001 - recorded, re-raised by run()
            self.error = exc
            self.state = TaskState.FAILED
        finally:
            self._finish_waiters()
            sim._current = None
            sim._sched_evt.set()

    def _finish_waiters(self) -> None:
        """Complete the join futures according to the final state."""
        waiters, self._join_waiters = self._join_waiters, []
        if self.state is TaskState.DONE:
            for fut in waiters:
                fut.fire(self.result)
        elif self.state is TaskState.FAILED:
            for fut in waiters:
                if any(not t.finished for t in fut._waiters):
                    self._error_delivered = True
                fut.fail(self.error)
        elif self.state is TaskState.KILLED and not self.sim._closed:
            # A killed task can never produce a result; joiners in a
            # bounded run(until=...) session would otherwise hang
            # forever.  (During close() every task dies anyway, so no
            # wake-up is needed — or safe — there.)
            err = SimulationError(f"cannot join {self.name}: task killed")
            for fut in waiters:
                if not fut.fired:
                    fut.fail(err)

    # -- task side -----------------------------------------------------------

    def join(self) -> Any:
        """Block the *calling* task until this task completes.

        Returns the task's result.  If the task failed, its error is
        raised in the joining task; if it was killed, a
        :class:`SimulationError` is raised.  May only be called from
        inside a simulated task.
        """
        from repro.sim.sync import Future

        if self.state is TaskState.DONE:
            return self.result
        if self.state is TaskState.FAILED:
            self._error_delivered = True
            raise self.error
        if self.state is TaskState.KILLED:
            raise SimulationError(f"cannot join {self.name}: task {self.state.value}")
        fut = Future(self.sim, description=f"join({self.name})")
        self._join_waiters.append(fut)
        return fut.wait()

    def kill(self) -> None:
        """Terminate this task at the current virtual time.

        A running or blocked task is torn down at its next scheduling
        point (deterministically ordered like any other resume); a task
        that never started is finalized immediately.  Joiners see a
        :class:`SimulationError`.  A task may not kill itself — raise
        instead.
        """
        if self.finished:
            return
        if self is self.sim._current:
            raise SimulationError(f"task {self.name} cannot kill itself")
        self._kill = True
        if self._thread is None:
            # Never ran: no thread to unwind, finalize in place.
            self.state = TaskState.KILLED
            self._finish_waiters()
            return
        self.sim._push(self.sim.now, "resume", self)

    @property
    def finished(self) -> bool:
        """True once the task can never run again."""
        return self.state in (TaskState.DONE, TaskState.FAILED, TaskState.KILLED)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Task {self.name} {self.state.value}>"


class Simulator:
    """Event-queue kernel with a virtual clock.

    Typical use::

        sim = Simulator()
        sim.spawn(rank_program, ctx0, name="rank0")
        sim.spawn(rank_program, ctx1, name="rank1")
        sim.run()
        print(sim.now)   # virtual seconds elapsed

    The simulator is single-use: after :meth:`run` returns (or raises)
    it is closed and cannot be restarted, except when ``until=`` was
    given, in which case :meth:`run` may be called again to continue.
    """

    def __init__(self, profiler: Optional[Any] = None) -> None:
        #: current virtual time in seconds
        self.now: float = 0.0
        #: optional engine self-profiler (duck-typed:
        #: :class:`repro.obs.selfprof.EngineProfiler`); accounts host
        #: wall-clock per scheduler event when enabled
        self.profiler = profiler if profiler is not None and getattr(
            profiler, "enabled", True
        ) else None
        self._seq = itertools.count()
        #: calendar queue: a heap of distinct timestamps plus one FIFO
        #: bucket per timestamp.  Events within a bucket are already in
        #: (time, seq) total order because sequence numbers increase
        #: monotonically, so a same-time burst costs one heap operation
        #: instead of one per event.
        self._times: list = []  # heap of distinct pending timestamps
        self._buckets: dict = {}  # time -> deque of (seq, kind, payload)
        self._tasks: List[Task] = []
        self._current: Optional[Task] = None
        self._sched_evt = threading.Event()
        self._in_run = False
        self._closed = False
        #: double-completions suppressed by deferred Future fire/fail
        #: (see :meth:`repro.sim.sync.Future.fire`)
        self.suppressed_completions = 0

    # -- event queue ---------------------------------------------------------

    def _push(self, when: float, kind: str, payload: Any) -> None:
        if when < self.now:
            raise SimulationError(
                f"cannot schedule event in the past: {when} < now={self.now}"
            )
        bucket = self._buckets.get(when)
        if bucket is None:
            bucket = self._buckets[when] = collections.deque()
            heapq.heappush(self._times, when)
        bucket.append((next(self._seq), kind, payload))

    def call_later(self, delay: float, fn: Callable[[], Any]) -> None:
        """Run ``fn()`` on the scheduler at ``now + delay``.

        The callback runs in scheduler context and must not block; use it
        to fire :class:`~repro.sim.sync.Future` objects or schedule more
        work.
        """
        if delay < 0:
            raise SimulationError(f"negative delay: {delay}")
        self._push(self.now + delay, "call", fn)

    # -- task management -------------------------------------------------------

    def spawn(self, fn: Callable[..., Any], *args: Any, name: str = "", **kwargs: Any) -> Task:
        """Create a task that starts at the current virtual time."""
        if self._closed:
            raise SimulationError("simulator is closed")
        task = Task(self, fn, args, kwargs, name or f"task{len(self._tasks)}")
        self._tasks.append(task)
        self._push(self.now, "resume", task)
        return task

    @property
    def closed(self) -> bool:
        """True once the simulator can never run again (see :meth:`close`)."""
        return self._closed

    @property
    def current_task(self) -> Task:
        """The task currently executing (raises outside task context)."""
        if self._current is None:
            raise SimulationError("no task is currently running")
        return self._current

    # -- blocking primitives (called from task threads) -----------------------

    def _block(self, reason: str) -> Any:
        """Suspend the calling task until something wakes it.

        Returns the value passed to :meth:`_wake`.  This is the single
        point through which every blocking primitive is built.
        """
        task = self._current
        if task is None or threading.current_thread() is not task._thread:
            raise SimulationError(
                "blocking simulation primitive called outside a simulated task"
            )
        task.state = TaskState.BLOCKED
        task.wait_reason = reason
        self._current = None
        self._sched_evt.set()
        task._resume_evt.wait()
        task._resume_evt.clear()
        if task._kill:
            raise _Kill()
        task.state = TaskState.RUNNING
        task.wait_reason = ""
        return task._wake_value

    def _wake(self, task: Task, value: Any = None, delay: float = 0.0) -> None:
        """Schedule ``task`` to resume with ``value`` after ``delay``."""
        if task.finished:
            raise SimulationError(f"cannot wake finished task {task.name}")
        task._wake_value = value
        self._push(self.now + delay, "resume", task)

    def sleep(self, duration: float) -> None:
        """Advance the calling task's local time by ``duration``."""
        if duration < 0:
            raise SimulationError(f"negative sleep duration: {duration}")
        task = self.current_task
        task._wake_value = None
        self._push(self.now + duration, "resume", task)
        self._block(f"sleep({duration:g})")

    # -- scheduler loop -----------------------------------------------------

    def _give_control(self, task: Task) -> None:
        self._current = task
        self._sched_evt.clear()
        if task._thread is None:
            task._start_thread()
        task._resume_evt.set()
        self._sched_evt.wait()
        if task.state is TaskState.FAILED and not task._error_delivered:
            err = task.error
            self.close()
            raise err

    def run(self, until: Optional[float] = None) -> float:
        """Drive the simulation.

        With ``until=None`` runs until the event queue drains, then
        verifies no task is still blocked (raising
        :class:`~repro.util.errors.DeadlockError` if any is) and closes
        the simulator.  With a deadline, stops once the next event lies
        beyond it (tasks stay suspended; call :meth:`run` again or
        :meth:`close`).

        Returns the virtual time at exit.
        """
        if self._closed:
            raise SimulationError("simulator is closed")
        if self._in_run:
            raise SimulationError("run() is not reentrant")
        self._in_run = True
        prof = self.profiler
        run_t0 = perf_counter() if prof is not None else 0.0
        try:
            while self._times:
                when = self._times[0]
                if until is not None and when > until:
                    self.now = until
                    return self.now
                self.now = when
                # Drain the whole same-time bucket back-to-back: one
                # heap consultation per distinct timestamp, not per
                # event.  Same-time events pushed during the drain
                # append to this bucket and run in this pass (matching
                # the old (time, seq) heap order exactly).
                bucket = self._buckets[when]
                while bucket:
                    _seq, kind, payload = bucket.popleft()
                    if kind == "resume":
                        if payload.finished:
                            continue  # task was killed/finished after scheduling
                        if prof is None:
                            self._give_control(payload)
                        else:
                            t0 = perf_counter()
                            self._give_control(payload)
                            prof.account_task(perf_counter() - t0)
                    elif kind == "call":
                        if prof is None:
                            payload()
                        else:
                            t0 = perf_counter()
                            payload()
                            prof.account_callback(perf_counter() - t0)
                    else:  # pragma: no cover - internal invariant
                        raise SimulationError(f"unknown event kind {kind!r}")
                heapq.heappop(self._times)
                del self._buckets[when]
            blocked = [t for t in self._tasks if t.state is TaskState.BLOCKED]
            if blocked:
                detail = "; ".join(f"{t.name}: {t.wait_reason}" for t in blocked)
                self.close()
                raise DeadlockError(
                    f"event queue drained with {len(blocked)} blocked task(s): {detail}"
                )
            if until is None:
                self.close()
            return self.now
        finally:
            self._in_run = False
            if prof is not None:
                prof.finish_run(perf_counter() - run_t0, self.now)

    # -- teardown ---------------------------------------------------------

    def close(self) -> None:
        """Kill every unfinished task and release their threads.

        Idempotent.  Called automatically when :meth:`run` completes or
        a task fails; call it manually after a bounded ``run(until=...)``.
        """
        if self._closed:
            return
        self._closed = True
        for task in self._tasks:
            if task.finished:
                continue
            task._kill = True
            if task._thread is None:
                # Lazily-started task that never got its first resume:
                # there is no thread to unwind.
                task.state = TaskState.KILLED
                continue
            task._resume_evt.set()
        for task in self._tasks:
            if task._thread is not None:
                task._thread.join(timeout=5.0)

    def __enter__(self) -> "Simulator":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - GC safety net
        # AttributeError: __init__ failed part-way, or module globals
        # are already gone at interpreter shutdown; RuntimeError: the
        # collector ran on one of this simulator's own task threads,
        # which cannot join itself.
        try:
            self.close()
        except (AttributeError, RuntimeError):
            pass
