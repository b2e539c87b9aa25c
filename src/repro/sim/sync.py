"""Coordination primitives in virtual time.

Everything here is built on :meth:`Simulator._block` / ``_wake`` and is
therefore safe under the one-runnable-task discipline: no real locking
is needed, only bookkeeping lists.

:class:`Future` is the workhorse — network completions, device events,
stream completions and ``join()`` are all Futures underneath.  The
remaining classes mirror the usual concurrency toolbox but advance the
*virtual* clock instead of wall time.  :class:`Rendezvous` is the one
payload-carrying all-member arrival point.
"""

from __future__ import annotations

import collections
import copy
from typing import Any, Callable, Deque, Dict, Hashable, List, NamedTuple, Optional, Union

from repro.sim.core import Simulator, Task
from repro.util.errors import SimulationError


class Future:
    """One-shot completion signal carrying an optional value.

    ``fire()`` may be called from a task or from a scheduler callback;
    ``wait()`` may only be called from a task.  Multiple tasks may wait
    on the same future (all are woken); waiting on an already-fired
    future returns immediately.  Firing twice is an error — completions
    in this library are unique events.

    A future may instead complete *exceptionally* via :meth:`fail`:
    every ``wait()`` then raises the supplied error in the waiting
    task's context (the mechanism by which injected transfer failures
    reach the conduit retry layer and, ultimately, ``ompx_fence``).
    """

    #: expected completion time, when the producer knows it (the fabric
    #: sets it on transfer completions): the hybrid polling hint
    eta: Optional[float] = None

    def __init__(
        self, sim: Simulator, description: Union[str, Callable[[], str]] = "future"
    ) -> None:
        self.sim = sim
        self._description = description
        self.fired = False
        self.value: Any = None
        #: the error this future completed with (None on success)
        self.error: Optional[BaseException] = None
        self._waiters: List[Task] = []
        self._callbacks: List[Any] = []

    @property
    def description(self) -> str:
        """What this future stands for; a hot-path producer passes a
        callable, so the text is built only when read."""
        desc = self._description
        return desc if isinstance(desc, str) else desc()

    def fire(self, value: Any = None, delay: float = 0.0) -> None:
        """Complete the future, waking all waiters after ``delay``.

        A *delayed* completion that loses the race to another path
        (e.g. a retry-timeout ``fail`` landing before a delayed success
        ``fire``) is silently dropped and counted in
        ``sim.suppressed_completions`` — only the first completion
        wins.  An *immediate* double completion is still an error.
        """
        if self.fired:
            raise SimulationError(f"{self.description}: fired twice")
        if delay > 0.0:
            self.sim.call_later(delay, lambda: self._deferred(self.fire, value))
            return
        self.fired = True
        self.value = value
        waiters, self._waiters = self._waiters, []
        for task in waiters:
            if not task.finished:
                self.sim._wake(task, value)
        self._run_callbacks()

    def fail(self, error: BaseException, delay: float = 0.0) -> None:
        """Complete the future exceptionally after ``delay``.

        Waiters (current and future) raise ``error`` from ``wait()``;
        ``poll()`` reports completion so hybrid polling loops still
        converge — callers distinguish the outcome via :attr:`error`.
        Delayed completions follow the same first-one-wins rule as
        :meth:`fire`.
        """
        if self.fired:
            raise SimulationError(f"{self.description}: fired twice")
        if delay > 0.0:
            self.sim.call_later(delay, lambda: self._deferred(self.fail, error))
            return
        self.fired = True
        self.error = error
        waiters, self._waiters = self._waiters, []
        for task in waiters:
            if not task.finished:
                self.sim._wake(task, None)
        self._run_callbacks()

    def _deferred(self, complete, payload) -> None:
        """Scheduler callback for a delayed completion: re-check the
        race before committing — the future may have completed through
        another path while the delay elapsed."""
        if self.fired:
            self.sim.suppressed_completions += 1
            return
        complete(payload)

    def add_done_callback(self, fn) -> None:
        """Run ``fn(self)`` once the future completes (success or
        failure); immediately if it already has.  Callbacks run in
        whatever context completes the future and must not block."""
        if self.fired:
            fn(self)
        else:
            self._callbacks.append(fn)

    def _run_callbacks(self) -> None:
        callbacks, self._callbacks = self._callbacks, []
        for fn in callbacks:
            fn(self)

    def wait(self) -> Any:
        """Block the calling task until fired; returns the fired value.

        Raises the failure error if the future completed via
        :meth:`fail`.
        """
        if not self.fired:
            self._waiters.append(self.sim.current_task)
            self.sim._block(f"wait({self.description})")
        if self.error is not None:
            raise self.error
        return self.value

    def poll(self) -> bool:
        """Non-blocking completion test (the building block for hybrid
        event polling in the DiOMP fence)."""
        return self.fired

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "fired" if self.fired else "pending"
        return f"<Future {self.description} {state}>"


class Channel:
    """FIFO message channel with optional capacity.

    ``put`` blocks when the channel is full (bounded channels model
    back-pressure, e.g. NIC injection queues); ``get`` blocks when it is
    empty.  Ordering is strict FIFO for both items and blocked tasks.
    """

    def __init__(self, sim: Simulator, capacity: Optional[int] = None, name: str = "chan") -> None:
        if capacity is not None and capacity <= 0:
            raise SimulationError(f"channel capacity must be positive, got {capacity}")
        self.sim = sim
        self.name = name
        self.capacity = capacity
        self._items: Deque[Any] = collections.deque()
        self._getters: Deque[Task] = collections.deque()
        self._putters: Deque[tuple] = collections.deque()  # (task, item)

    def __len__(self) -> int:
        return len(self._items)

    def put(self, item: Any) -> None:
        """Enqueue ``item``; blocks while the channel is at capacity."""
        if self._getters:
            # Hand directly to the longest-waiting getter.
            task = self._getters.popleft()
            self.sim._wake(task, item)
            return
        if self.capacity is not None and len(self._items) >= self.capacity:
            self._putters.append((self.sim.current_task, item))
            self.sim._block(f"{self.name}.put (full)")
            return
        self._items.append(item)

    def try_put(self, item: Any) -> bool:
        """Non-blocking put; returns False if the channel is full."""
        if self._getters:
            self.sim._wake(self._getters.popleft(), item)
            return True
        if self.capacity is not None and len(self._items) >= self.capacity:
            return False
        self._items.append(item)
        return True

    def get(self) -> Any:
        """Dequeue the oldest item; blocks while the channel is empty."""
        if self._items:
            item = self._items.popleft()
            if self._putters:
                task, pending = self._putters.popleft()
                self._items.append(pending)
                self.sim._wake(task)
            return item
        self._getters.append(self.sim.current_task)
        return self.sim._block(f"{self.name}.get (empty)")

    def try_get(self) -> tuple:
        """Non-blocking get; returns ``(ok, item)``."""
        if not self._items:
            return False, None
        return True, self.get()


class Semaphore:
    """Counting semaphore in virtual time (FIFO fairness)."""

    def __init__(self, sim: Simulator, value: int, name: str = "sem") -> None:
        if value < 0:
            raise SimulationError(f"semaphore value must be >= 0, got {value}")
        self.sim = sim
        self.name = name
        self._value = value
        self._waiters: Deque[Task] = collections.deque()

    @property
    def value(self) -> int:
        return self._value

    def acquire(self) -> None:
        if self._value > 0:
            self._value -= 1
            return
        self._waiters.append(self.sim.current_task)
        self.sim._block(f"{self.name}.acquire")

    def try_acquire(self) -> bool:
        if self._value > 0:
            self._value -= 1
            return True
        return False

    def release(self) -> None:
        if self._waiters:
            self.sim._wake(self._waiters.popleft())
            return
        self._value += 1


class Lock:
    """Mutex built on :class:`Semaphore`, with context-manager support."""

    def __init__(self, sim: Simulator, name: str = "lock") -> None:
        self._sem = Semaphore(sim, 1, name=name)
        self._owner: Optional[Task] = None
        self.sim = sim
        self.name = name

    @property
    def locked(self) -> bool:
        return self._owner is not None

    def acquire(self) -> None:
        task = self.sim.current_task
        if self._owner is task:
            raise SimulationError(f"{self.name}: non-reentrant lock re-acquired")
        self._sem.acquire()
        self._owner = task

    def release(self) -> None:
        if self._owner is not self.sim.current_task:
            raise SimulationError(f"{self.name}: released by non-owner")
        self._owner = None
        self._sem.release()

    def __enter__(self) -> "Lock":
        self.acquire()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.release()


class Release(NamedTuple):
    """A :meth:`Rendezvous.arrive` decision that times its own release:
    the release comes ``delay`` later than it would otherwise,
    ``action()`` (unless None) runs at the release instant, before any
    member resumes, and every member returns None (no member keeps the
    action, nor what it references, once released)."""

    delay: float
    action: Optional[Callable[[], None]]


class Rendezvous:
    """Keyed all-member arrival points carrying per-member payloads.

    The last of ``size`` members to arrive at a point runs ``decide``
    once over every payload (member -> payload); all leave together
    ``delay`` later.  A fixed cost every member would sleep before
    arriving is passed as ``delay`` instead: the release instant
    ``max(arrival) + delay`` is the same, reached with one block per
    member instead of two.  A cost the decision prices (and work due
    at the release instant) comes back from ``decide`` as a
    :class:`Release`.  Non-last members wait on the point's one shared
    :class:`Future`; the last sleeps the delay (when positive), runs
    the release action, then fires it, so it resumes first and the
    others in arrival order.
    """

    def __init__(self, sim: Simulator, name: str = "rendezvous") -> None:
        self.sim = sim
        self.name = name
        #: key -> (payloads, done) of points not every member reached
        self._points: Dict[Hashable, tuple] = {}

    def arrive(
        self,
        key: Hashable,
        member: Hashable,
        payload: Any,
        size: int,
        decide: Optional[Callable[[Dict[Hashable, Any]], Any]] = None,
        delay: float = 0.0,
    ) -> Any:
        """Return ``decide(payloads)`` (the payloads without ``decide``)
        on every member, or raise a copy of what ``decide`` or a release
        action raised on every member.  A member arriving twice at a
        point raises."""
        point = self._points.get(key)
        if point is None:
            point = self._points[key] = ({}, Future(self.sim, f"{self.name}{key!r}"))
        payloads, done = point
        if member in payloads:
            raise SimulationError(f"{member!r} arrived twice at {self.name} {key!r}")
        payloads[member] = payload
        if len(payloads) < size:
            result, error = done.wait()
        else:
            del self._points[key]
            result = error = action = None
            try:
                result = payloads if decide is None else decide(payloads)
            except Exception as exc:  # re-raised by every member below
                error = exc
            if type(result) is Release:
                delay += result.delay
                action = result.action
                result = None
            if delay > 0.0:
                self.sim.sleep(delay)
            if action is not None:
                try:
                    action()
                except Exception as exc:
                    error = exc
            done.fire((result, error))
        if error is not None:
            # A copy per member: each raise grows its own traceback.
            raise copy.copy(error).with_traceback(error.__traceback__)
        return result


class Barrier:
    """Reusable rendezvous for a fixed number of parties.

    The last arriving task releases everyone; ``wait`` returns the
    arrival index (0 for the first arrival, ``parties - 1`` for the
    releasing task), mirroring :class:`threading.Barrier`.
    """

    def __init__(self, sim: Simulator, parties: int, name: str = "barrier") -> None:
        if parties <= 0:
            raise SimulationError(f"barrier parties must be positive, got {parties}")
        self.sim = sim
        self.parties = parties
        self.name = name
        self._waiting: List[Task] = []
        self._generation = 0

    def wait(self) -> int:
        index = len(self._waiting)
        if index == self.parties - 1:
            waiting, self._waiting = self._waiting, []
            self._generation += 1
            for i, task in enumerate(waiting):
                self.sim._wake(task, i)
            return index
        self._waiting.append(self.sim.current_task)
        return self.sim._block(f"{self.name}.wait ({index + 1}/{self.parties})")
