"""The discrete-event simulator core.

Design
------
The simulator is a classic event-queue kernel with one twist: simulated
*tasks* are real Python threads.  This lets user programs (MPI ranks,
DiOMP ranks, runtime daemons) be written as ordinary blocking Python
functions — nested calls, loops, exceptions — without generator/yield
plumbing.  Determinism is preserved because exactly one thread holds
control at a time and wake order is the strict total order
``(time, sequence_number)``.

Control hand-off: baton passing.  Control is held either by one task
thread or by the thread that called :meth:`Simulator.run`.  Each parks
on its own *gate*, a raw ``_thread`` lock that is held while nobody is
waking it: parking is ``gate.acquire()``, waking is ``gate.release()``.
There is no dispatch thread.  The thread that gives control up — a task
that blocks or finishes, or ``run()`` at start — dispatches itself: it
retires callbacks in ``(time, seq)`` order up to the next task resume,
then releases that task's gate and parks on its own::

    task A                              task B (parked in _block)
    ------                              ------
    blocks: state=BLOCKED
    _current = None
    runs due callbacks
    pop event (t, seq, resume B)
    now = t; _current = B
    B._gate.release()  ───────────────► returns from _block()
    A._gate.acquire()  (parks)          ... runs simulated code ...

One park therefore costs one thread switch, and none when the blocking
task's own resume is next: it returns from :meth:`Simulator._block`
without parking.  Control goes back to the ``run()`` thread, on its own
gate, when the queue drains, the ``until`` deadline is reached, a task
fails with no live joiner, or a callback raises; that thread then
returns, reports a deadlock, or raises the error.  Only the thread
holding control touches simulator state, so no further locking is
needed.  A gate is released exactly once per park (a second
``release`` raises): only the holder of control hands it on, so the
threads that :meth:`Simulator.close` unblocks all at once die without
touching another gate.

Task threads start lazily on first resume, with
``_thread.start_new_thread``: starting the thread *is* handing it
control, so there is no ``threading.Thread`` object and no start
handshake.  Building a world never pays OS-thread cost for ranks that
a bounded run or an early abort never reaches.  Task threads install
the hooks set with ``threading.setprofile``/``settrace``, and an
exception escaping one reaches ``threading.excepthook``, as on a
``threading.Thread``.  Each pins itself to the lowest CPU the process
may use: one task runs at a time, so a second CPU only adds cross-CPU
wake-ups; the caller's own threads keep their affinity.

Scalability (1024+ ranks): SPMD programs generate large bursts of
events at identical timestamps — every barrier release, collective
completion, and launch wave resumes the whole world at one instant.
The event queue is therefore a *calendar* of per-timestamp FIFO
buckets ordered by a heap of distinct times: a same-time burst costs
one heap operation total instead of one ``heappush``/``heappop`` pair
per member, and dispatch drains a whole bucket before re-consulting
the heap.

Error handling: an exception escaping a task is delivered to the
tasks joining it at that moment (their ``join()`` raises it); if no
live task is joining, it aborts the simulation — :meth:`Simulator.run`
re-raises it after killing the remaining tasks so no threads leak
(important when pytest runs thousands of simulations).
"""

from __future__ import annotations

import collections
import contextlib
import enum
import heapq
import itertools
import os
import sys
import threading
from _thread import allocate_lock, get_ident, start_new_thread
from time import perf_counter
from typing import Any, Callable, List, Optional

from repro.util.errors import DeadlockError, SimulationError

if hasattr(threading, "getprofile"):  # Python 3.10+

    def _thread_hooks() -> tuple:
        """The (profile, trace) hooks set for new threads."""
        return threading.getprofile(), threading.gettrace()

else:  # pragma: no cover - Python 3.9

    def _thread_hooks() -> tuple:
        """The (profile, trace) hooks set for new threads."""
        return threading._profile_hook, threading._trace_hook


#: the CPU every task thread runs on (see the module docstring)
_TASK_CPUS = {min(os.sched_getaffinity(0))} if hasattr(os, "sched_setaffinity") else None


class _Kill(BaseException):
    """Injected into blocked task threads during teardown.

    Derives from ``BaseException`` so user ``except Exception`` blocks
    cannot swallow it.
    """


def _held_lock():
    """A raw lock acquired at creation: a closed gate."""
    gate = allocate_lock()
    gate.acquire()
    return gate


class TaskState(enum.Enum):
    """Lifecycle of a simulated task."""

    NEW = "new"
    RUNNING = "running"
    BLOCKED = "blocked"
    DONE = "done"
    FAILED = "failed"
    KILLED = "killed"


class _TaskThread:
    """The OS thread a task runs on.

    ``done`` is held until the thread is finished with the simulator;
    :meth:`Simulator.close` joins through it.
    """

    __slots__ = ("name", "ident", "done")

    def __init__(self, name: str) -> None:
        self.name = name
        #: set by the thread itself as its first act
        self.ident: Optional[int] = None
        self.done = _held_lock()

    def is_alive(self) -> bool:
        return self.done.locked()


class Task:
    """A simulated thread of control.

    Created via :meth:`Simulator.spawn`.  The wrapped function runs on
    its own OS thread; its return value is available as :attr:`result`
    once :attr:`state` is :attr:`TaskState.DONE`, and other tasks can
    block on completion with :meth:`join`.
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
        #: held while the task is parked; released to hand the task
        #: control (see the module docstring)
        self._gate = _held_lock()
        self._join_waiters: List[Any] = []  # Futures fired on completion
        #: True once the task's error was raised in at least one live
        #: joiner — a delivered error is handled there, not by run()
        self._error_delivered = False
        #: created on first resume (see Simulator._switch)
        self._thread: Optional[_TaskThread] = None

    # -- thread side -------------------------------------------------------

    def _thread_main(self) -> None:
        thread = self._thread
        thread.ident = get_ident()
        if _TASK_CPUS is not None:
            with contextlib.suppress(OSError):  # the CPU went away: run unpinned
                os.sched_setaffinity(0, _TASK_CPUS)
        profile, trace = _thread_hooks()
        if trace is not None:
            sys.settrace(trace)
        if profile is not None:
            sys.setprofile(profile)
        try:
            self._run()
        except BaseException:  # noqa: BLE001 - reported as threading.Thread would
            exc_type, exc, tb = sys.exc_info()
            threading.excepthook(threading.ExceptHookArgs((exc_type, exc, tb, thread)))
        finally:
            thread.done.release()

    def _run(self) -> None:
        # Starting the thread handed this task control.
        try:
            self.state = TaskState.RUNNING
            self.result = self._fn(*self._args, **self._kwargs)
            self.state = TaskState.DONE
        except _Kill:
            self.state = TaskState.KILLED
        except BaseException as exc:  # noqa: BLE001 - recorded, re-raised by run()
            self.error = exc
            self.state = TaskState.FAILED
        if self.sim._current is self:
            self.sim._task_finished(self)
        else:
            # Killed by close(): this thread does not hold control.
            self._finish_waiters()

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
        #: wall-clock per task slice and per callback when enabled
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
        #: the task holding control (None while dispatching)
        self._current: Optional[Task] = None
        #: held while the run() thread is parked waiting for control
        self._run_gate = _held_lock()
        #: deadline of the active run() call
        self._until: Optional[float] = None
        #: (error, close first) for run() to raise when it gets control
        self._exit: Optional[tuple] = None
        #: host time the current task slice started (profiled runs)
        self._slice_t0 = 0.0
        self._in_run = False
        self._closed = False
        #: double-completions suppressed by deferred Future fire/fail
        #: (see :meth:`repro.sim.sync.Future.fire`)
        self.suppressed_completions = 0
        #: blocking hand-offs so far: one per :meth:`_block` call
        self.parks = 0

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
        """Run ``fn()`` in scheduler context at ``now + delay``.

        The callback runs between task slices, on whichever thread is
        dispatching, and must not block; use it to fire
        :class:`~repro.sim.sync.Future` objects or schedule more work.
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
        if task is None or task._thread.ident != get_ident():
            raise SimulationError(
                "blocking simulation primitive called outside a simulated task"
            )
        if task._kill:  # close() was called from this task
            raise _Kill()
        task.state = TaskState.BLOCKED
        task.wait_reason = reason
        self.parks += 1
        self._current = None
        if self.profiler is not None:
            self.profiler.account_task(perf_counter() - self._slice_t0)
        nxt = self._dispatch()
        if nxt is not task:
            self._switch(nxt)
            task._gate.acquire()
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

    # -- dispatch (on the thread giving up control) ----------------------------

    def _dispatch(self) -> Optional[Task]:
        """Retire callbacks in (time, seq) order up to the next task
        resume and return that task, now current.  Return None when
        control goes back to the ``run()`` thread: the queue drained,
        the deadline was reached, or a callback raised (``_exit``)."""
        prof = self.profiler
        times = self._times
        until = self._until
        while times:
            when = times[0]
            if until is not None and when > until:
                self.now = until
                return None
            self.now = when
            # Drain the whole same-time bucket before the heap is
            # consulted again.  Same-time events pushed meanwhile
            # append to this bucket and run in this pass, in
            # (time, seq) order.  A hand-off leaves the bucket in
            # place; the next dispatch resumes it.
            bucket = self._buckets[when]
            while bucket:
                _seq, kind, payload = bucket.popleft()
                if kind == "resume":
                    if payload.finished:
                        continue  # task was killed/finished after scheduling
                    self._current = payload
                    if prof is not None:
                        self._slice_t0 = perf_counter()
                    return payload
                try:
                    if prof is None:
                        payload()
                    else:
                        t0 = perf_counter()
                        payload()
                        prof.account_callback(perf_counter() - t0)
                except BaseException as exc:  # noqa: BLE001 - raised by run()
                    self._exit = (exc, False)
                    return None
            heapq.heappop(times)
            del self._buckets[when]
        return None

    def _switch(self, task: Optional[Task]) -> None:
        """Hand control to ``task``, or to the run() thread for None."""
        if task is None:
            self._run_gate.release()
        elif task._thread is None:
            task._thread = _TaskThread(f"sim:{task.name}")
            try:
                start_new_thread(task._thread_main, ())
            except RuntimeError as exc:  # no thread could be started
                task._thread = None
                self._current = None
                self._exit = (exc, True)
                self._run_gate.release()
        else:
            task._gate.release()

    def _task_finished(self, task: Task) -> None:
        """The current task ended: complete its joiners and pass control
        on (its thread exits afterwards)."""
        self._current = None
        task._finish_waiters()
        if task.state is TaskState.FAILED and not task._error_delivered:
            self._exit = (task.error, True)
            self._switch(None)
            return
        if self.profiler is not None:
            self.profiler.account_task(perf_counter() - self._slice_t0)
        self._switch(self._dispatch())

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
        self._until = until
        prof = self.profiler
        run_t0 = perf_counter() if prof is not None else 0.0
        try:
            nxt = self._dispatch()
            if nxt is not None:
                self._switch(nxt)
                self._run_gate.acquire()
            if self._exit is not None:
                (error, close), self._exit = self._exit, None
                if close:
                    self.close()
                raise error
            if self._times:
                return self.now  # the next event lies beyond the deadline
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
        Called from a task, it returns at once, and that task dies at
        its next blocking call.
        """
        if self._closed:
            return
        self._closed = True
        me = get_ident()
        for task in self._tasks:
            if task.finished:
                continue
            task._kill = True
            if task._thread is None:
                # Lazily-started task that never got its first resume:
                # there is no thread to unwind.
                task.state = TaskState.KILLED
            elif task._thread.ident != me:
                task._gate.release()
        for task in self._tasks:
            thread = task._thread
            if thread is not None and thread.ident != me:
                if thread.done.acquire(timeout=5.0):
                    thread.done.release()

    def __enter__(self) -> "Simulator":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - GC safety net
        # AttributeError: __init__ failed part-way, or module globals
        # are already gone at interpreter shutdown.
        try:
            self.close()
        except AttributeError:
            pass
