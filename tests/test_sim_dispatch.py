"""Tests for the simulator's hand-off: dispatch runs on whichever
thread gives control up, and the observable event order must be the
strict (time, seq) order whichever thread that is."""

import hashlib
import random
import threading
import time

import pytest

from repro.obs.selfprof import EngineProfiler
from repro.sim import Future, Simulator, TaskState
from repro.util.errors import SimulationError

#: sha256 of the random program's log, profiler counts and end state,
#: pinned while dispatch still ran on a dedicated run() thread: baton
#: passing must reproduce that order exactly
PINNED_DIGESTS = {
    1: "8bc20b1c53adabd7fa494f95cd9b101944a90ad1fa64842ac2b051d6d74736a6",
    7: "117574e1f0966995eed314c14773392723f7f60adf852de16baefe1f17cb9a23",
    23: "0d59e0478bf62f8755179d9ae87833e4e7417bf5fe301b1156e7f4a17422ac61",
}


def random_program(seed, deadlines=(0.5, 1.0, 1.0, 2.5, 3.75, 6.0)):
    """Run a seeded mix of sleeps, future fire/wait, callbacks, spawns,
    joins and kills in ``run(until=...)`` slices; return its digest
    and its log."""
    rng = random.Random(seed)
    prof = EngineProfiler()
    sim = Simulator(profiler=prof)
    log = []
    futures = [Future(sim, f"f{i}") for i in range(6)]
    tasks = []

    def note(*what):
        log.append((sim.now,) + what)

    def child(i, step):
        sim.sleep(rng.choice([0.0, 0.25, 0.5]))
        note("child", i, step)
        return i * 100 + step

    def worker(i):
        for step in range(16):
            op = rng.randrange(7)
            note("op", i, step, op)
            if op == 0:
                sim.sleep(rng.choice([0.0, 0.25, 0.5, 1.0]))
            elif op == 1:
                fut = rng.choice(futures)
                if not fut.fired:
                    fut.fire((i, step), delay=rng.choice([0.0, 0.0, 0.25]))
            elif op == 2:
                note("got", i, rng.choice(futures).wait())
            elif op == 3:
                delay = rng.choice([0.0, 0.25, 1.0])
                sim.call_later(delay, lambda i=i, step=step: note("cb", i, step))
            elif op == 4:
                kid = sim.spawn(child, i, step, name=f"c{i}.{step}")
                tasks.append(kid)
                if rng.random() < 0.5:
                    try:
                        note("joined", i, kid.join())
                    except SimulationError as exc:
                        note("join-failed", i, str(exc))
            elif op == 5:
                victim = rng.choice(tasks)
                if victim is not sim.current_task:
                    victim.kill()
                    note("kill", i, victim.name)
            else:
                fut = rng.choice(futures)
                fut.add_done_callback(lambda f, i=i: note("done", i, f.description))

    def fire_rest():
        for fut in futures:
            if not fut.fired:
                fut.fire("late")

    for i in range(8):
        tasks.append(sim.spawn(worker, i, name=f"w{i}"))
    sim.call_later(50.0, fire_rest)
    for until in deadlines:
        sim.run(until=until)
        note("slice", until)
    sim.run()
    end = (
        sim.now,
        sim.parks,
        sim.suppressed_completions,
        prof.events,
        prof.task_events,
        prof.callback_events,
        [(t.name, t.state.value, t.result) for t in tasks],
    )
    digest = hashlib.sha256(repr((log, end)).encode()).hexdigest()
    return digest, log


class TestEventOrder:
    @pytest.mark.parametrize("seed", sorted(PINNED_DIGESTS))
    def test_random_program_digest_is_pinned(self, seed):
        digest, log = random_program(seed)
        assert len(log) > 100
        assert digest == PINNED_DIGESTS[seed]

    @pytest.mark.parametrize("seed", [1, 7])
    def test_sliced_run_equals_single_run(self, seed):
        # Deadlines fall on event times, so a slice ends with the
        # same-time bucket drained and the next run() resumes after it.
        def task_log(deadlines):
            _digest, log = random_program(seed, deadlines)
            return [entry for entry in log if entry[1] != "slice"]

        single = task_log(())
        assert task_log((0.25, 0.5, 0.5, 0.75, 1.0, 1.25, 2.0, 3.0)) == single
        assert task_log((0.1, 0.3, 0.6, 1.1)) == single


class TestErrors:
    def test_callback_error_during_park_is_raised_by_run(self, monkeypatch):
        # The callback runs while the only task is parked, on that
        # task's thread; run() raises the very same object.
        errors = []
        monkeypatch.setattr(threading, "excepthook", errors.append)
        sim = Simulator()
        err = ValueError("callback failed")

        def fail():
            raise err

        def prog():
            sim.call_later(0.5, fail)
            sim.sleep(1.0)

        task = sim.spawn(prog, name="sleeper")
        with pytest.raises(ValueError) as info:
            sim.run()
        assert info.value is err
        assert sim.now == 0.5
        assert task.state is TaskState.BLOCKED
        sim.close()
        assert task.state is TaskState.KILLED
        assert not task._thread.is_alive()
        assert errors == []

    def test_exception_escaping_a_task_thread_reaches_excepthook(self, monkeypatch):
        errors = []
        monkeypatch.setattr(threading, "excepthook", errors.append)
        finished = Simulator._task_finished

        def finished_then_raise(sim, task):
            finished(sim, task)
            raise RuntimeError("escaped")

        monkeypatch.setattr(Simulator, "_task_finished", finished_then_raise)
        sim = Simulator()
        sim.spawn(lambda: None, name="t")
        sim.run()  # close() joins the thread, so its report is in
        assert [(type(e.exc_value), e.thread.name) for e in errors] == [
            (RuntimeError, "sim:t")
        ]


class TestTaskThreads:
    def test_close_from_a_task_returns_at_once(self):
        sim = Simulator()
        never = Future(sim, description="never")
        peers = [sim.spawn(never.wait, name=f"p{i}") for i in range(4)]
        seen = {}

        def closer():
            sim.sleep(1.0)
            t0 = time.perf_counter()
            sim.close()
            seen["close_s"] = time.perf_counter() - t0
            seen["peers"] = [t.state for t in peers]
            sim.sleep(1.0)  # a closed simulator kills its caller here
            seen["resumed"] = True

        task = sim.spawn(closer, name="closer")
        sim.run()
        assert seen["close_s"] < 1.0
        assert seen["peers"] == [TaskState.KILLED] * 4
        assert "resumed" not in seen
        assert task.state is TaskState.KILLED
        assert not any(t._thread.is_alive() for t in peers + [task])

    def test_profile_hook_sees_calls_inside_tasks(self):
        calls = []

        def marker():
            return 42

        def hook(frame, event, arg):
            if event == "call" and frame.f_code is marker.__code__:
                calls.append(threading.get_ident())

        sim = Simulator()
        sim.spawn(marker)
        threading.setprofile(hook)
        try:
            sim.run()
        finally:
            threading.setprofile(None)
        assert len(calls) == 1
        assert calls[0] != threading.get_ident()
