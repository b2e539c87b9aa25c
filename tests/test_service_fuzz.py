"""Seeded property tests of the cluster service's tenant scopes.

Each case draws its job mix, problem sizes, co-tenant fault plan and
SLO setting from ``random.Random(seed)``, so a failing case replays
from its seed alone.  The properties:

* a co-tenant's faults leave the victim's record, results and tenant
  registry bit-identical to the run without them;
* once ``run()`` returns, device capacity is conserved: free bytes
  plus the metered leak of failed jobs equal the total;
* no rank task is left unfinished (only a failed job's gang is killed);
* no device carries a tenant's fault plan after teardown;
* turning the SLOs off leaves the record list unchanged;
* with SLOs on, the offline replay of the run's export gives the live
  SLO timeline.
"""

import dataclasses
import json
import random

import numpy as np
import pytest

from repro.cluster import ClusterService, JobRequest, ServiceConfig, World, poisson_jobs
from repro.faults import FaultPlan, FaultSpec
from repro.hardware import platform_a
from repro.obs.report import _timeline_key, replay_service_export
from repro.util.units import KiB

KINDS = ("cannon", "minimod", "allreduce")
NUM_NODES = 4
RANKS_PER_NODE = 2


def random_size(rng, kind, nranks):
    if kind == "allreduce":
        return rng.choice((4, 16, 64)) * KiB
    # cannon: N divides by the gang; minimod: >= 4 planes per rank
    return 4 * nranks * rng.randint(1, 3)


def random_plan(rng):
    specs = []
    for site in ("conduit", "rma.intra", "stream.sync", "rank.stall", "fabric.transfer"):
        if rng.random() < 0.6:
            kind = rng.choice(("latency", "late", "transient", "stall"))
            specs.append(
                FaultSpec(
                    site=site,
                    kind=kind,
                    probability=rng.choice((0.1, 0.5, 1.0)),
                    latency=0.0 if kind == "transient" else rng.choice((5e-6, 50e-6)),
                    fatal=kind == "transient" and rng.random() < 0.2,
                )
            )
    if not specs:
        specs.append(FaultSpec(site="conduit.put", kind="transient", nth=1))
    return FaultPlan(specs, seed=rng.randrange(1 << 30))


def canonical(value):
    """``value`` with every array replaced by comparable bytes."""
    if isinstance(value, np.ndarray):
        return (value.dtype.str, value.shape, value.tobytes())
    if isinstance(value, dict):
        return {k: canonical(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [canonical(v) for v in value]
    return value


def records(res):
    return [canonical(dataclasses.asdict(r)) for r in res.records]


def victim(res):
    return canonical(dataclasses.asdict(res.record_of(0)))


def run_service(jobs, slos_on, queue_limit=8):
    """Run ``jobs`` on a fresh world; returns (result, world, tasks)."""
    world = World(platform_a(), num_nodes=NUM_NODES, ranks_per_node=RANKS_PER_NODE)
    tasks = []
    spawn = world.sim.spawn

    def recording_spawn(*args, **kwargs):
        task = spawn(*args, **kwargs)
        tasks.append(task)
        return task

    world.sim.spawn = recording_spawn
    config = ServiceConfig(queue_limit=queue_limit, slos=None if slos_on else ())
    return ClusterService(world, config).run(jobs), world, tasks


def check_teardown(res, world, tasks):
    failed = {f"job{r.job_id}" for r in res.failed}
    for task in tasks:
        assert task.finished, task.name
        if task.state.value != "done":
            # Only the reaper of a failed job kills rank tasks.
            assert task.name.split("-")[0] in failed, task.name
    assert world.fault_plan is None
    assert all(dev.faults is None for dev in world.devices.values())
    spaces = [dev.memory for dev in world.devices.values()]
    total = sum(space.capacity for space in spaces)
    free = sum(space.free_bytes for space in spaces)
    # No gang is running any more, so only failed jobs' metered
    # leaks may still hold device memory.
    assert free + world.obs.value("service.leaked_bytes") == total


def pair_case(seed):
    rng = random.Random(seed)
    shape = []
    for _ in range(2):
        kind = rng.choice(KINDS)
        nodes = rng.choice((1, 2))
        shape.append((kind, nodes, random_size(rng, kind, nodes * RANKS_PER_NODE)))
    return shape, random_plan(rng), rng.random() < 0.5


def pair_jobs(shape, co_tenant_faults):
    (vkind, vnodes, vsize), (ckind, cnodes, csize) = shape
    return [
        JobRequest(job_id=0, tenant="victim", kind=vkind, nodes=vnodes, size=vsize),
        JobRequest(
            job_id=1,
            tenant="chaotic",
            kind=ckind,
            nodes=cnodes,
            size=csize,
            faults=co_tenant_faults,
        ),
    ]


@pytest.mark.parametrize("seed", range(12))
def test_co_tenant_faults_never_reach_the_victim(seed):
    shape, plan, slos_on = pair_case(seed)
    clean, _, _ = run_service(pair_jobs(shape, None), slos_on)
    noisy, world, tasks = run_service(pair_jobs(shape, plan), slos_on)
    assert clean.record_of(0).outcome == "completed"
    assert victim(clean) == victim(noisy)
    assert (
        clean.tenant_obs["victim"].snapshot() == noisy.tenant_obs["victim"].snapshot()
    )
    check_teardown(noisy, world, tasks)


def stream_case(seed):
    rng = random.Random(1000 + seed)
    jobs = poisson_jobs(
        seed=rng.randrange(1 << 30),
        count=rng.randint(6, 14),
        rate=rng.choice((5000.0, 20000.0, 40000.0)),
        kinds=rng.sample(KINDS, rng.randint(1, 3)),
        node_choices=rng.choice(((1,), (1, 2), (1, 2, 4))),
        ranks_per_node=RANKS_PER_NODE,
    )
    jobs = tuple(
        dataclasses.replace(job, faults=random_plan(rng)) if job.tenant == "globex" else job
        for job in jobs
    )
    return jobs, rng.randint(2, 8)


def check_slo_replay(res, path):
    """Replay the run's export from disk, as ``python -m repro.obs slo``
    does, and compare it with the live timeline."""
    res.export(str(path))
    tracker = replay_service_export(json.loads(path.read_text()))
    assert _timeline_key(tracker.timeline) == _timeline_key(res.timeline)


@pytest.mark.parametrize("seed", range(6))
def test_random_streams_conserve_capacity_and_tear_down(seed, tmp_path):
    # Fault plans are stateful, so each run draws its own from the seed.
    jobs, queue_limit = stream_case(seed)
    on, world, tasks = run_service(jobs, True, queue_limit)
    check_teardown(on, world, tasks)
    check_slo_replay(on, tmp_path / "run.json")
    jobs, queue_limit = stream_case(seed)
    off, world, tasks = run_service(jobs, False, queue_limit)
    check_teardown(off, world, tasks)
    assert records(on) == records(off)
