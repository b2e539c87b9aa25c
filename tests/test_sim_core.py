"""Tests for the discrete-event simulation kernel."""

import _thread
import os
import threading

import pytest

from repro.sim import Future, Simulator, TaskState
from repro.util.errors import DeadlockError, SimulationError


class TestClockAndSleep:
    def test_empty_run_keeps_time_zero(self):
        sim = Simulator()
        assert sim.run() == 0.0

    def test_single_sleep_advances_clock(self):
        sim = Simulator()
        times = []

        def prog():
            sim.sleep(1.5)
            times.append(sim.now)

        sim.spawn(prog)
        sim.run()
        assert times == [1.5]
        assert sim.now == 1.5

    def test_sleeps_accumulate(self):
        sim = Simulator()

        def prog():
            for _ in range(4):
                sim.sleep(0.25)

        sim.spawn(prog)
        assert sim.run() == 1.0

    def test_zero_sleep_allowed(self):
        sim = Simulator()
        sim.spawn(lambda: sim.sleep(0.0))
        assert sim.run() == 0.0

    def test_negative_sleep_rejected(self):
        sim = Simulator()

        def prog():
            sim.sleep(-1.0)

        sim.spawn(prog)
        with pytest.raises(SimulationError):
            sim.run()


class TestInterleaving:
    def test_two_tasks_interleave_by_time(self):
        sim = Simulator()
        order = []

        def a():
            sim.sleep(1.0)
            order.append(("a", sim.now))
            sim.sleep(2.0)
            order.append(("a", sim.now))

        def b():
            sim.sleep(2.0)
            order.append(("b", sim.now))

        sim.spawn(a, name="a")
        sim.spawn(b, name="b")
        sim.run()
        assert order == [("a", 1.0), ("b", 2.0), ("a", 3.0)]

    def test_same_time_events_run_in_spawn_order(self):
        sim = Simulator()
        order = []
        for i in range(5):
            sim.spawn(lambda i=i: order.append(i), name=f"t{i}")
        sim.run()
        assert order == [0, 1, 2, 3, 4]

    def test_determinism_across_runs(self):
        def build():
            sim = Simulator()
            log = []

            def worker(i):
                sim.sleep(0.1 * (i % 3))
                log.append(i)
                sim.sleep(0.05)
                log.append(10 + i)

            for i in range(8):
                sim.spawn(worker, i, name=f"w{i}")
            sim.run()
            return log

        assert build() == build()


class TestSpawnAndJoin:
    def test_result_available_after_run(self):
        sim = Simulator()
        t = sim.spawn(lambda: 42)
        sim.run()
        assert t.state is TaskState.DONE
        assert t.result == 42

    def test_join_returns_result(self):
        sim = Simulator()
        got = []

        def child():
            sim.sleep(1.0)
            return "payload"

        def parent():
            t = sim.spawn(child, name="child")
            got.append(t.join())
            got.append(sim.now)

        sim.spawn(parent, name="parent")
        sim.run()
        assert got == ["payload", 1.0]

    def test_join_finished_task_returns_immediately(self):
        sim = Simulator()
        results = []

        def parent():
            t = sim.spawn(lambda: 7, name="quick")
            sim.sleep(5.0)  # child completes long before
            results.append(t.join())

        sim.spawn(parent)
        sim.run()
        assert results == [7]

    def test_nested_spawns(self):
        sim = Simulator()
        seen = []

        def leaf(i):
            sim.sleep(0.1)
            seen.append(i)

        def mid():
            kids = [sim.spawn(leaf, i) for i in range(3)]
            for k in kids:
                k.join()

        sim.spawn(mid)
        sim.run()
        assert sorted(seen) == [0, 1, 2]


class TestCallLater:
    def test_callback_fires_at_time(self):
        sim = Simulator()
        fired = []
        sim.call_later(2.0, lambda: fired.append(sim.now))
        sim.spawn(lambda: sim.sleep(3.0))
        sim.run()
        assert fired == [2.0]

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.call_later(-0.5, lambda: None)


class TestErrors:
    def test_task_exception_propagates(self):
        sim = Simulator()

        def bad():
            raise ValueError("boom")

        sim.spawn(bad)
        with pytest.raises(ValueError, match="boom"):
            sim.run()

    def test_failure_kills_other_tasks(self):
        sim = Simulator()

        def sleeper():
            sim.sleep(100.0)

        def bad():
            sim.sleep(1.0)
            raise RuntimeError("abort")

        t = sim.spawn(sleeper)
        sim.spawn(bad)
        with pytest.raises(RuntimeError):
            sim.run()
        assert t.state is TaskState.KILLED

    def test_deadlock_detected(self):
        from repro.sim import Future

        sim = Simulator()

        def stuck():
            Future(sim, description="never").wait()

        sim.spawn(stuck, name="stuck")
        with pytest.raises(DeadlockError, match="stuck"):
            sim.run()

    def test_blocking_outside_task_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.sleep(1.0)

    def test_closed_simulator_rejects_spawn(self):
        sim = Simulator()
        sim.run()
        with pytest.raises(SimulationError):
            sim.spawn(lambda: None)


class TestBoundedRun:
    def test_run_until_pauses_and_resumes(self):
        sim = Simulator()
        marks = []

        def prog():
            sim.sleep(1.0)
            marks.append(sim.now)
            sim.sleep(1.0)
            marks.append(sim.now)

        sim.spawn(prog)
        sim.run(until=1.5)
        assert marks == [1.0]
        assert sim.now == 1.5
        sim.run()
        assert marks == [1.0, 2.0]

    def test_close_after_bounded_run(self):
        sim = Simulator()
        sim.spawn(lambda: sim.sleep(10.0))
        sim.run(until=1.0)
        sim.close()  # must not hang or raise

    def test_context_manager_closes(self):
        with Simulator() as sim:
            sim.spawn(lambda: sim.sleep(10.0))
            sim.run(until=1.0)
        # leaving the with-block kills the sleeper without error

    @staticmethod
    def _thread_errors(monkeypatch):
        errors = []
        monkeypatch.setattr(threading, "excepthook", errors.append)
        return errors

    def test_close_releases_many_blocked_tasks_cleanly(self, monkeypatch):
        # close() unblocks every parked thread at once; none of them
        # may hand control back to the (no longer waiting) scheduler.
        errors = self._thread_errors(monkeypatch)
        sim = Simulator()
        never = Future(sim, description="never")
        tasks = [sim.spawn(never.wait, name=f"w{i}") for i in range(32)]
        tasks += [sim.spawn(sim.sleep, 10.0, name=f"s{i}") for i in range(32)]
        sim.run(until=1.0)
        assert all(t.state is TaskState.BLOCKED for t in tasks)
        sim.close()
        assert all(t.state is TaskState.KILLED for t in tasks)
        assert not any(t._thread.is_alive() for t in tasks)
        assert errors == []

    def test_failure_with_blocked_peers_closes_cleanly(self, monkeypatch):
        errors = self._thread_errors(monkeypatch)
        sim = Simulator()
        never = Future(sim, description="never")
        peers = [sim.spawn(never.wait, name=f"p{i}") for i in range(32)]

        def failer():
            sim.sleep(0.5)
            raise ValueError("boom")

        sim.spawn(failer, name="failer")
        with pytest.raises(ValueError, match="boom"):
            sim.run()
        sim.close()  # idempotent after the aborting run
        assert all(t.state is TaskState.KILLED for t in peers)
        assert not any(t._thread.is_alive() for t in peers)
        assert errors == []


class TestJoinErrorPropagation:
    def test_join_raises_child_error_in_joiner(self):
        # Regression: join() on a task that fails *later* used to
        # return None; the error now propagates to the joiner.
        sim = Simulator()
        caught = []

        def child():
            sim.sleep(1.0)
            raise ValueError("boom")

        def parent():
            task = sim.spawn(child, name="child")
            try:
                task.join()
            except ValueError as exc:
                caught.append((sim.now, str(exc)))

        sim.spawn(parent, name="parent")
        sim.run()  # handled in the joiner: the run completes normally
        assert caught == [(1.0, "boom")]

    def test_unhandled_join_error_fails_joiner_too(self):
        sim = Simulator()

        def child():
            raise ValueError("boom")

        def parent():
            sim.spawn(child).join()  # no except: re-raised here

        sim.spawn(parent)
        with pytest.raises(ValueError, match="boom"):
            sim.run()

    def test_join_already_failed_task_raises(self):
        sim = Simulator()
        caught = []

        def child():
            sim.sleep(1.0)
            raise ValueError("boom")

        def supervisor(task):
            try:
                task.join()
            except ValueError:
                caught.append("supervisor")

        def late_joiner(task):
            sim.sleep(2.0)  # well after the failure
            try:
                task.join()
            except ValueError:
                caught.append("late")

        def root():
            task = sim.spawn(child)
            sim.spawn(supervisor, task)
            sim.spawn(late_joiner, task)

        sim.spawn(root)
        sim.run()
        assert sorted(caught) == ["late", "supervisor"]

    def test_unsupervised_failure_still_aborts_run(self):
        sim = Simulator()
        sim.spawn(lambda: (_ for _ in ()).throw(ValueError("boom")))
        with pytest.raises(ValueError, match="boom"):
            sim.run()


class TestKill:
    def test_kill_unblocks_joiners(self):
        # Regression: join-waiters of a killed task never fired.
        sim = Simulator()
        caught = []

        def victim():
            sim.sleep(100.0)

        def root():
            task = sim.spawn(victim, name="victim")

            def joiner():
                try:
                    task.join()
                except SimulationError as exc:
                    caught.append((sim.now, str(exc)))

            sim.spawn(joiner)
            sim.sleep(1.0)
            task.kill()

        sim.spawn(root)
        sim.run()
        assert len(caught) == 1
        when, message = caught[0]
        assert when == 1.0
        assert "killed" in message

    def test_kill_unblocks_joiner_in_bounded_run(self):
        # The bounded-session variant of the hang: run(until=) used to
        # park the joiner forever with no deadlock detection to save it.
        sim = Simulator()
        done = []

        def victim():
            sim.sleep(100.0)

        def root():
            task = sim.spawn(victim)

            def joiner():
                try:
                    task.join()
                except SimulationError:
                    done.append(sim.now)

            sim.spawn(joiner)
            sim.sleep(1.0)
            task.kill()

        sim.spawn(root)
        sim.run(until=5.0)
        assert done == [1.0]
        sim.close()

    def test_kill_unstarted_task_never_runs(self):
        sim = Simulator()
        ran = []
        task = sim.spawn(lambda: ran.append(1))
        task.kill()
        assert task.state is TaskState.KILLED
        assert task._thread is None  # never needed a thread
        sim.run()
        assert ran == []

    def test_kill_finished_task_is_noop(self):
        sim = Simulator()
        task = sim.spawn(lambda: 42)
        sim.run()
        task.kill()
        assert task.state is TaskState.DONE
        assert task.result == 42

    def test_self_kill_rejected(self):
        sim = Simulator()

        def prog():
            task.kill()

        task = sim.spawn(prog)
        with pytest.raises(SimulationError):
            sim.run()


class TestLazyThreads:
    def test_threads_start_only_on_first_resume(self):
        sim = Simulator()
        tasks = [sim.spawn(sim.sleep, 1.0) for _ in range(4)]
        assert all(t._thread is None for t in tasks)
        sim.run()
        assert all(t.state is TaskState.DONE for t in tasks)

    def test_close_reaps_unstarted_tasks_without_threads(self):
        # Task threads are raw _thread threads, which threading's own
        # count does not see.
        sim = Simulator()
        before = _thread._count()
        tasks = [sim.spawn(sim.sleep, 1.0) for _ in range(8)]
        assert _thread._count() == before  # spawn is thread-free
        sim.close()
        assert _thread._count() == before
        assert all(t.state is TaskState.KILLED for t in tasks)
        assert all(t._thread is None for t in tasks)


@pytest.mark.skipif(
    not hasattr(os, "sched_setaffinity"), reason="no per-thread CPU affinity"
)
class TestTaskThreadAffinity:
    def test_task_threads_share_the_lowest_cpu(self):
        """Every task thread runs on one CPU, the lowest the process
        may use; the thread that called run() keeps its affinity."""
        main_before = os.sched_getaffinity(0)
        sim = Simulator()
        seen = []

        def prog():
            seen.append(os.sched_getaffinity(0))
            sim.sleep(1.0)
            seen.append(os.sched_getaffinity(0))

        for _ in range(3):
            sim.spawn(prog)
        sim.run()
        assert seen == [{min(main_before)}] * 6
        assert os.sched_getaffinity(0) == main_before


class TestSchedulerScaling:
    def test_512_tasks_wall_bound(self):
        # Smoke test for the calendar-queue scheduler: 512 tasks
        # stepping in lockstep (every resume lands in a shared
        # same-timestamp bucket) must stay comfortably interactive.
        import time

        sim = Simulator()
        done = []

        def worker(i):
            for _ in range(4):
                sim.sleep(1.0)
            done.append(i)

        t0 = time.perf_counter()
        for i in range(512):
            sim.spawn(worker, i)
        sim.run()
        assert time.perf_counter() - t0 < 30.0
        assert len(done) == 512
        assert done == sorted(done)  # batched resumes keep spawn order
        assert sim.now == 4.0

    def test_handoff_order_under_frequent_thread_switches(self):
        # Stress the lock-gate hand-off: more task threads than cores
        # and a tiny interpreter switch interval, so the OS and the
        # interpreter preempt at every opportunity.  Exactly one task
        # may run at a time, and the interleaving must not change.
        import sys
        import time

        def trace():
            sim = Simulator()
            order = []
            running = []

            def worker(i):
                for step in range(6):
                    running.append(i)
                    assert running == [i], running  # never two at once
                    order.append((sim.now, i, step))
                    running.pop()
                    sim.sleep(((i * 7 + step) % 5) * 0.25)

            for i in range(48):
                sim.spawn(worker, i)
            sim.run()
            return order

        expected = trace()
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            t0 = time.perf_counter()
            assert trace() == expected
            assert time.perf_counter() - t0 < 30.0
        finally:
            sys.setswitchinterval(old)
        assert len(expected) == 48 * 6
