"""1024-rank scaling sweeps: the engine-scalability benchmarks.

The paper's weak-scaling story stops at 64 GPUs; these sweeps drive
the simulator itself at 1024 ranks (platform A, 256 nodes x 4 GPUs)
and report the engine self-profiler's numbers alongside the modelled
collective times.  Both run in *analytic-rank* mode
(:meth:`~repro.cluster.world.World.enable_analytic`): allocations are
timing-only, so the sweep is data-free and the wall-clock cost is
pure scheduling + pricing.

Two workloads:

* :func:`allreduce_scale_stats` — the full-fidelity 1024-rank
  AllReduce rendezvous (every member arrives, the hierarchical ring is
  priced once, everyone completes together).
* :func:`cannon_scale_stats` — a *truncated* Cannon ring rotation.  A
  full 1024-rank rotation is O(P^2) simulated events (≈4M resumes);
  the steady-state per-step cost is measured over a few steps and the
  full rotation extrapolated — the ring steps are homogeneous
  (identical put/fence/barrier pattern per step), which
  ``tests/test_sim_scale.py`` verifies against a full small-scale run.

``scale_gate_metrics`` is the regression-gate hook: the event counts
and virtual times are deterministic (tolerance catches any scheduling
change), the throughput figure is wall-clock with a loose tolerance.
"""

from __future__ import annotations

from time import perf_counter
from typing import Dict, Optional

from repro.cluster.spmd import SpmdConfig, TelemetryConfig, run_spmd
from repro.cluster.world import World
from repro.core.runtime import DiompParams, DiompRuntime
from repro.hardware.platforms import PlatformSpec, get_platform
from repro.obs import Observability
from repro.obs.sampling import SpanBudget
from repro.util.units import KiB, MiB

#: platform A nodes for the 1024-rank configuration (256 x 4 GPUs)
SCALE_NODES = 256
SCALE_RANKS = 1024

#: span-memory ceiling for scale sweeps (the telemetry benchmark
#: exercises the budget machinery itself; here it just bounds memory)
SCALE_BUDGET = SpanBudget(max_bytes=1 * MiB, per_track_head=1, per_track_reservoir=4)

#: ring steps the truncated Cannon rotation simulates
CANNON_STEPS = 2

#: Cannon matrix size at 1024 ranks (stripe width 16)
CANNON_N = 16384


def _scale_world(platform: PlatformSpec, num_nodes: int) -> World:
    # 1024 ranks legitimately emit >1000 per-rank series; raise the
    # cardinality cap so the sweep is not measuring dropped-series
    # bookkeeping (the telemetry benchmark covers that regime).
    obs = Observability(max_series_per_metric=8192)
    return World(platform, num_nodes=num_nodes, obs=obs, analytic=True)


def allreduce_scale_stats(
    platform: PlatformSpec,
    num_nodes: int,
    size: int,
    reps: int = 2,
    span_budget: Optional[SpanBudget] = SCALE_BUDGET,
) -> Dict[str, float]:
    """Full-fidelity analytic AllReduce sweep at ``4 * num_nodes`` ranks.

    Returns the engine profiler's numbers plus ``allreduce_seconds``
    (modelled per-iteration latency, deterministic), ``ranks``, and
    ``wall_seconds`` (host cost of the whole sweep).
    """
    world = _scale_world(platform, num_nodes)
    DiompRuntime(world, DiompParams(segment_size=4 * size + (1 << 20)))

    def prog(ctx):
        # No virtual= flag: analytic mode forces it world-wide.
        send = ctx.diomp.alloc(size)
        recv = ctx.diomp.alloc(size)
        ctx.diomp.barrier()
        t0 = ctx.sim.now
        for _ in range(reps):
            ctx.diomp.allreduce(send, recv)
        latency = (ctx.sim.now - t0) / reps
        ctx.diomp.barrier()
        return latency

    config = SpmdConfig(telemetry=TelemetryConfig(span_budget=span_budget))
    wall_t0 = perf_counter()
    res = run_spmd(world, prog, config=config)
    stats: Dict[str, float] = world.obs.engine.to_dict()
    stats["wall_seconds"] = perf_counter() - wall_t0
    stats["ranks"] = world.nranks
    stats["allreduce_seconds"] = max(res.results)
    stats["parks"] = world.sim.parks
    stats["virtual_elapsed"] = res.elapsed
    stats["span_stats"] = world.obs.span_stats().to_dict()
    return stats


def cannon_scale_stats(
    platform: PlatformSpec,
    num_nodes: int,
    n: int = CANNON_N,
    steps: int = CANNON_STEPS,
    span_budget: Optional[SpanBudget] = SCALE_BUDGET,
) -> Dict[str, float]:
    """Truncated analytic Cannon rotation at ``4 * num_nodes`` ranks.

    Simulates ``steps`` ring steps in full fidelity (put + fence +
    barrier per step) and extrapolates the homogeneous rotation:
    ``predicted_full_seconds = per_step_seconds * P``.
    """
    from repro.apps.cannon import CannonConfig, run_cannon

    world = _scale_world(platform, num_nodes)
    if span_budget is not None:
        world.obs.set_span_budget(span_budget)
    cfg = CannonConfig(n=n, execute=False, steps=steps)
    wall_t0 = perf_counter()
    res = run_cannon(world, cfg)
    stats: Dict[str, float] = world.obs.engine.to_dict()
    stats["wall_seconds"] = perf_counter() - wall_t0
    stats["ranks"] = world.nranks
    per_step = max(r["elapsed"] for r in res.results) / steps
    stats["steps"] = steps
    stats["per_step_seconds"] = per_step
    stats["predicted_full_seconds"] = per_step * world.nranks
    return stats


def scale_gate_metrics() -> Dict[str, float]:
    """The ``scale.1024.*`` metrics for the regression gate."""
    spec = get_platform("A")
    ar = allreduce_scale_stats(spec, SCALE_NODES, 256 * KiB, reps=2)
    cn = cannon_scale_stats(spec, SCALE_NODES)
    return {
        "scale.1024.allreduce.256KiB": ar["allreduce_seconds"],
        "scale.1024.allreduce.events": float(ar["events"]),
        "scale.1024.allreduce.events_per_sec": ar["events_per_sec"],
        "scale.1024.allreduce.parks_per_rank": ar["parks"] / ar["ranks"],
        "scale.1024.cannon.per_step": cn["per_step_seconds"],
        "scale.1024.cannon.events": float(cn["events"]),
    }
