"""Tests for virtual-time coordination primitives."""

import collections

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim import Barrier, Channel, Future, Lock, Release, Rendezvous, Semaphore, Simulator
from repro.util.errors import DeadlockError, SimulationError


class TestFuture:
    def test_wait_then_fire(self):
        sim = Simulator()
        fut = Future(sim, description="f")
        got = []

        def waiter():
            got.append(fut.wait())

        def firer():
            sim.sleep(1.0)
            fut.fire("value")

        sim.spawn(waiter)
        sim.spawn(firer)
        sim.run()
        assert got == ["value"]
        assert sim.now == 1.0

    def test_fire_before_wait_returns_immediately(self):
        sim = Simulator()
        fut = Future(sim)
        got = []

        def prog():
            fut.fire(99)
            got.append(fut.wait())

        sim.spawn(prog)
        sim.run()
        assert got == [99]

    def test_multiple_waiters_all_wake(self):
        sim = Simulator()
        fut = Future(sim)
        got = []

        def waiter(i):
            got.append((i, fut.wait()))

        for i in range(3):
            sim.spawn(waiter, i)
        sim.spawn(lambda: fut.fire("x"))
        sim.run()
        assert sorted(got) == [(0, "x"), (1, "x"), (2, "x")]

    def test_delayed_fire(self):
        sim = Simulator()
        fut = Future(sim)
        times = []

        def waiter():
            fut.wait()
            times.append(sim.now)

        sim.spawn(waiter)
        sim.spawn(lambda: fut.fire(delay=2.5))
        sim.run()
        assert times == [2.5]

    def test_double_fire_rejected(self):
        sim = Simulator()
        fut = Future(sim)

        def prog():
            fut.fire()
            fut.fire()

        sim.spawn(prog)
        with pytest.raises(SimulationError, match="twice"):
            sim.run()

    def test_poll(self):
        sim = Simulator()
        fut = Future(sim)
        observed = []

        def prog():
            observed.append(fut.poll())
            fut.fire()
            observed.append(fut.poll())

        sim.spawn(prog)
        sim.run()
        assert observed == [False, True]

    def test_fire_from_scheduler_callback(self):
        sim = Simulator()
        fut = Future(sim)
        times = []

        def waiter():
            fut.wait()
            times.append(sim.now)

        sim.spawn(waiter)
        sim.call_later(3.0, fut.fire)
        sim.run()
        assert times == [3.0]


class TestLazyDescription:
    """A callable description is formatted only when something reads
    it, and the text is the same as an eager one."""

    def test_not_formatted_unless_read(self):
        sim = Simulator()
        calls = []

        def describe():
            calls.append(1)
            return "xfer gpu0.0->gpu1.0 8B"

        fut = Future(sim, description=describe)
        sim.call_later(1.0, fut.fire)
        sim.spawn(lambda: (sim.sleep(2.0), fut.wait()))  # completed: no park
        sim.run()
        assert calls == []
        assert fut.description == "xfer gpu0.0->gpu1.0 8B"
        assert calls == [1]

    def test_deadlock_report_reads_it(self):
        sim = Simulator()
        fut = Future(sim, description=lambda: "xfer host0->gpu1.2 64B")
        sim.spawn(fut.wait, name="r0")
        with pytest.raises(DeadlockError, match=r"r0: wait\(xfer host0->gpu1\.2 64B\)"):
            sim.run()

    def test_fired_twice_reads_it(self):
        sim = Simulator()
        fut = Future(sim, description=lambda: "s3:diomp-put")

        def prog():
            fut.fire()
            fut.fire()

        sim.spawn(prog)
        with pytest.raises(SimulationError, match="s3:diomp-put: fired twice"):
            sim.run()


class TestChannel:
    def test_fifo_order(self):
        sim = Simulator()
        ch = Channel(sim)
        got = []

        def producer():
            for i in range(5):
                ch.put(i)

        def consumer():
            for _ in range(5):
                got.append(ch.get())

        sim.spawn(producer)
        sim.spawn(consumer)
        sim.run()
        assert got == [0, 1, 2, 3, 4]

    def test_get_blocks_until_put(self):
        sim = Simulator()
        ch = Channel(sim)
        got = []

        def consumer():
            got.append((ch.get(), sim.now))

        def producer():
            sim.sleep(2.0)
            ch.put("late")

        sim.spawn(consumer)
        sim.spawn(producer)
        sim.run()
        assert got == [("late", 2.0)]

    def test_bounded_put_blocks(self):
        sim = Simulator()
        ch = Channel(sim, capacity=1)
        log = []

        def producer():
            ch.put(1)
            log.append(("put1", sim.now))
            ch.put(2)  # blocks until consumer takes item 1
            log.append(("put2", sim.now))

        def consumer():
            sim.sleep(5.0)
            log.append(("got", ch.get(), sim.now))
            log.append(("got", ch.get(), sim.now))

        sim.spawn(producer)
        sim.spawn(consumer)
        sim.run()
        assert ("put1", 0.0) in log
        assert ("put2", 5.0) in log

    def test_try_put_try_get(self):
        sim = Simulator()
        ch = Channel(sim, capacity=1)
        results = []

        def prog():
            results.append(ch.try_put("a"))
            results.append(ch.try_put("b"))  # full
            results.append(ch.try_get())
            results.append(ch.try_get())  # empty

        sim.spawn(prog)
        sim.run()
        assert results == [True, False, (True, "a"), (False, None)]

    def test_invalid_capacity(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            Channel(sim, capacity=0)


class TestSemaphore:
    def test_acquire_release(self):
        sim = Simulator()
        sem = Semaphore(sim, 2)
        active = []
        peak = []

        def worker(i):
            sem.acquire()
            active.append(i)
            peak.append(len(active))
            sim.sleep(1.0)
            active.remove(i)
            sem.release()

        for i in range(5):
            sim.spawn(worker, i)
        sim.run()
        assert max(peak) <= 2

    def test_try_acquire(self):
        sim = Simulator()
        sem = Semaphore(sim, 1)
        results = []

        def prog():
            results.append(sem.try_acquire())
            results.append(sem.try_acquire())
            sem.release()
            results.append(sem.try_acquire())

        sim.spawn(prog)
        sim.run()
        assert results == [True, False, True]

    def test_negative_value_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            Semaphore(sim, -1)


class TestLock:
    def test_mutual_exclusion(self):
        sim = Simulator()
        lock = Lock(sim)
        log = []

        def worker(i):
            with lock:
                log.append(("enter", i, sim.now))
                sim.sleep(1.0)
                log.append(("exit", i, sim.now))

        sim.spawn(worker, 0)
        sim.spawn(worker, 1)
        sim.run()
        # Sections must not overlap: exit of 0 precedes enter of 1.
        assert log == [
            ("enter", 0, 0.0),
            ("exit", 0, 1.0),
            ("enter", 1, 1.0),
            ("exit", 1, 2.0),
        ]

    def test_release_by_non_owner_rejected(self):
        sim = Simulator()
        lock = Lock(sim)

        def owner():
            lock.acquire()
            sim.sleep(10.0)

        def thief():
            sim.sleep(1.0)
            lock.release()

        sim.spawn(owner)
        sim.spawn(thief)
        with pytest.raises(SimulationError, match="non-owner"):
            sim.run()

    def test_reacquire_rejected(self):
        sim = Simulator()
        lock = Lock(sim)

        def prog():
            lock.acquire()
            lock.acquire()

        sim.spawn(prog)
        with pytest.raises(SimulationError, match="re-acquired"):
            sim.run()


class TestBarrier:
    def test_all_parties_released_together(self):
        sim = Simulator()
        bar = Barrier(sim, 3)
        release_times = []

        def worker(i):
            sim.sleep(float(i))
            bar.wait()
            release_times.append(sim.now)

        for i in range(3):
            sim.spawn(worker, i)
        sim.run()
        assert release_times == [2.0, 2.0, 2.0]

    def test_reusable_generations(self):
        sim = Simulator()
        bar = Barrier(sim, 2)
        log = []

        def worker(i):
            for phase in range(3):
                sim.sleep(0.1 * (i + 1))
                bar.wait()
                log.append((phase, i, sim.now))

        sim.spawn(worker, 0)
        sim.spawn(worker, 1)
        sim.run()
        phases = [p for p, _, _ in log]
        assert phases == sorted(phases)  # no phase mixing

    def test_arrival_indices_unique(self):
        sim = Simulator()
        bar = Barrier(sim, 4)
        indices = []

        def worker(i):
            sim.sleep(float(i))
            indices.append(bar.wait())

        for i in range(4):
            sim.spawn(worker, i)
        sim.run()
        assert sorted(indices) == [0, 1, 2, 3]

    def test_invalid_parties(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            Barrier(sim, 0)


class TestDeferredCompletion:
    def test_delayed_fire_suppressed_after_fail(self):
        # Regression: a delayed fire landing on an already-failed
        # future used to raise "fired twice" inside the scheduler.
        sim = Simulator()
        fut = Future(sim, description="rendezvous")
        caught = []

        def proposer():
            fut.fire("late", delay=2.0)

        def canceller():
            sim.sleep(1.0)
            fut.fail(RuntimeError("timeout"))

        def waiter():
            try:
                fut.wait()
            except RuntimeError as exc:
                caught.append((sim.now, str(exc)))

        sim.spawn(proposer)
        sim.spawn(canceller)
        sim.spawn(waiter)
        sim.run()  # reaches t=2.0 without the double-completion error
        assert caught == [(1.0, "timeout")]
        assert sim.suppressed_completions == 1

    def test_delayed_fail_suppressed_after_fire(self):
        sim = Simulator()
        fut = Future(sim)
        seen = []

        def watchdog():
            fut.fail(RuntimeError("timeout"), delay=2.0)

        def producer():
            sim.sleep(1.0)
            fut.fire("fast")

        sim.spawn(watchdog)
        sim.spawn(producer)
        sim.spawn(lambda: seen.append(fut.wait()))
        sim.run()
        assert seen == ["fast"]
        assert sim.suppressed_completions == 1

    def test_slower_delayed_completion_suppressed(self):
        sim = Simulator()
        fut = Future(sim)
        seen = []
        fut.fire("first", delay=1.0)
        fut.fail(RuntimeError("second"), delay=2.0)
        sim.spawn(lambda: seen.append(fut.wait()))
        sim.run()
        assert seen == ["first"]
        assert sim.suppressed_completions == 1

    def test_immediate_double_completion_still_rejected(self):
        sim = Simulator()
        fut = Future(sim)
        fut.fire(1)
        with pytest.raises(SimulationError):
            fut.fail(RuntimeError("late"))
        assert sim.suppressed_completions == 0


def _count_blocks(sim):
    """Per-task block counts, taken by wrapping the one block point."""
    blocks = collections.Counter()
    real_block = sim._block

    def counting_block(reason):
        blocks[sim.current_task.name] += 1
        return real_block(reason)

    sim._block = counting_block
    return blocks


class TestRendezvous:
    @settings(max_examples=60, deadline=None)
    @given(
        sleeps=st.lists(
            st.floats(min_value=0.0, max_value=1e-3, allow_nan=False), min_size=1, max_size=8
        ),
        delay=st.one_of(st.just(0.0), st.floats(min_value=1e-9, max_value=1e-3)),
        fail=st.booleans(),
    )
    def test_release_decide_and_parks(self, sleeps, delay, fail):
        sim = Simulator()
        rdv = Rendezvous(sim, name="prop")
        blocks = _count_blocks(sim)
        decided = []
        released = []  # (member, time, outcome, blocks inside arrive)

        def decide(payloads):
            decided.append(dict(payloads))
            if fail:
                raise ValueError(f"bad payloads {sorted(payloads)}")
            return sum(payloads.values())

        def member(i):
            sim.sleep(sleeps[i])
            name = sim.current_task.name
            before = blocks[name]
            try:
                outcome = rdv.arrive("point", i, i * 10, len(sleeps), decide, delay)
            except ValueError as exc:
                outcome = exc
            released.append((i, sim.now, outcome, blocks[name] - before))

        for i in range(len(sleeps)):
            sim.spawn(member, i, name=f"m{i}")
        sim.run()

        # Released together at the old sleep-then-wait instant, bit for bit.
        expected = max(s + delay for s in sleeps)
        assert [t for _i, t, _o, _b in released] == [expected] * len(sleeps)
        # decide ran once, over every payload.
        assert decided == [{i: i * 10 for i in range(len(sleeps))}]
        outcomes = [o for _i, _t, o, _b in released]
        if fail:
            msg = f"bad payloads {list(range(len(sleeps)))}"
            assert all(type(o) is ValueError and str(o) == msg for o in outcomes)
            assert len({id(o) for o in outcomes}) == len(outcomes)  # a copy each
        else:
            assert outcomes == [10 * sum(range(len(sleeps)))] * len(sleeps)
        # The last arrival resumes first, the others follow in arrival order.
        arrival = sorted(range(len(sleeps)), key=lambda i: (sleeps[i], i))
        order = [i for i, _t, _o, _b in released]
        assert order == [arrival[-1]] + arrival[:-1]
        # One block per member: the waiters' shared future, the last
        # arrival's sleep (only when there is a delay).
        parks = {i: b for i, _t, _o, b in released}
        assert parks == {i: 1 if i != arrival[-1] or delay > 0 else 0 for i in arrival}
        assert sim.parks == sum(blocks.values())
        assert not rdv._points

    def test_without_decide_returns_payloads(self):
        sim = Simulator()
        rdv = Rendezvous(sim)
        got = []
        for i in range(3):
            sim.spawn(lambda i=i: got.append(rdv.arrive(("k", 0), i, -i, 3)))
        sim.run()
        assert got == [{0: 0, 1: -1, 2: -2}] * 3

    def test_points_are_independent(self):
        sim = Simulator()
        rdv = Rendezvous(sim)
        log = []

        def member(i):
            for seq in range(3):
                sim.sleep(0.1 * (i + 1))
                rdv.arrive(seq, i, None, 2, delay=1.0)
                log.append((seq, i, sim.now))

        sim.spawn(member, 0)
        sim.spawn(member, 1)
        sim.run()
        assert [(seq, t) for seq, _i, t in log] == [
            (0, 1.2), (0, 1.2), (1, 2.4), (1, 2.4), (2, 3.6), (2, 3.6)
        ]

    @pytest.mark.parametrize("fail", [False, True])
    def test_release_decision_times_and_acts(self, fail):
        """A :class:`Release` decision adds its delay to ``delay`` and
        runs its action at the release instant, before any member
        resumes; an action's error reaches every member."""
        sim = Simulator()
        rdv = Rendezvous(sim)
        log = []

        def act():
            log.append(("action", sim.now))
            if fail:
                raise ValueError("action failed")

        def decide(payloads):
            assert payloads == {0: 0, 1: 1, 2: 2}
            return Release(0.25, act)

        def member(i):
            sim.sleep(0.5 * i)
            try:
                outcome = rdv.arrive("p", i, i, 3, decide, delay=1.0)
            except ValueError as exc:
                outcome = str(exc)
            log.append((i, sim.now, outcome))

        for i in range(3):
            sim.spawn(member, i)
        sim.run()
        outcome = "action failed" if fail else None
        released = [(i, 2.25, outcome) for i in (2, 0, 1)]  # last arrival first
        assert log == [("action", 2.25)] + released
        assert sim.parks == 3 + 3  # each member's sleep, then one block in arrive

    def test_member_arriving_twice_raises(self):
        sim = Simulator()
        rdv = Rendezvous(sim, name="dup")
        caught = []

        def first():
            rdv.arrive("p", 0, "a", 2)

        def second():
            try:
                rdv.arrive("p", 0, "b", 2)
            except SimulationError as exc:
                caught.append(str(exc))
            rdv.arrive("p", 1, "c", 2)

        sim.spawn(first)
        sim.spawn(second)
        sim.run()
        assert caught == ["0 arrived twice at dup 'p'"]
        assert not rdv._points
