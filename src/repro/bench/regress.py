"""The benchmark regression gate: ``python -m repro.bench regress``.

The simulator is deterministic, so key benchmark figures are exactly
reproducible run-over-run; any drift is a *code* change.  This module
snapshots a small set of headline numbers — put/get latency and
bandwidth points from the Fig. 3/4 sweeps, the profiled Cannon
wall-clock, and its critical-path breakdown by category — to
``BENCH_<name>.json``, and compares a fresh collection against the
committed baseline with per-metric tolerances and directions.

Exit status is the CI contract: 0 when every metric is within
tolerance (improvements included), nonzero when any metric moved in
its *worse* direction by more than its threshold or disappeared.

Usage::

    python -m repro.bench regress                  # compare vs BENCH_baseline.json
    python -m repro.bench regress --write          # (re)write the baseline
    python -m repro.bench regress --out BENCH_pr.json   # also save this run
"""

from __future__ import annotations

import argparse
import dataclasses
import json
from typing import Dict, List, Optional, Tuple

from repro.util.units import KiB, MiB

#: default committed baseline, relative to the invoking directory
DEFAULT_BASELINE = "BENCH_baseline.json"


@dataclasses.dataclass(frozen=True)
class MetricSpec:
    """Tolerance contract for one gated metric."""

    #: relative tolerance before a *worsening* move fails the gate
    tolerance: float
    #: which direction is good: "lower" (times) or "higher" (bandwidth)
    better: str = "lower"

    def regressed(self, baseline: float, current: float) -> bool:
        if baseline == 0:
            return abs(current) > self.tolerance
        delta = (current - baseline) / abs(baseline)
        return delta > self.tolerance if self.better == "lower" else -delta > self.tolerance


#: the gate: metric name -> spec.  Times are seconds, bandwidth bytes/s.
GATED_METRICS: Dict[str, MetricSpec] = {
    "latency.put.4B": MetricSpec(0.05),
    "latency.put.8KiB": MetricSpec(0.05),
    "latency.get.4B": MetricSpec(0.05),
    "latency.get.8KiB": MetricSpec(0.05),
    "bandwidth.put.4MiB": MetricSpec(0.05, better="higher"),
    "bandwidth.get.4MiB": MetricSpec(0.05, better="higher"),
    "cannon.elapsed": MetricSpec(0.05),
    "cannon.cp.network": MetricSpec(0.10),
    "cannon.cp.device": MetricSpec(0.10),
    "cannon.cp.host": MetricSpec(0.10),
    "cannon.cp.wait": MetricSpec(0.15),
    "cannon.cp.imbalance": MetricSpec(0.10),
    "fig6.allreduce.64MiB": MetricSpec(0.05),
    "fig6.allreduce.64MiB.ring": MetricSpec(0.05),
    # 1.0 when the auto-selector picks the hierarchical ring on the
    # 2-node x 4-GPU slice; any drop to 0.0 fails the gate.
    "fig6.allreduce.hier_selected": MetricSpec(0.0, better="higher"),
    # Engine self-profiling (telemetry-on allreduce sweep).  The event
    # count is deterministic: zero tolerance, one extra park fails;
    # the throughput figures are host wall-clock and vary across
    # machines, so their tolerances only catch order-of-magnitude
    # slowdowns (an accidentally quadratic event loop), not noise.
    "engine.events": MetricSpec(0.0),
    "engine.events_per_sec": MetricSpec(0.90, better="higher"),
    "engine.wall_per_simsec": MetricSpec(4.0),
    # 1024-rank scale sweeps (repro.bench.scale, analytic-rank mode).
    # Event counts (zero tolerance) and modelled times are
    # deterministic; the throughput figure is wall-clock and only
    # guards against a quadratic regime at scale.
    "scale.1024.allreduce.256KiB": MetricSpec(0.02),
    "scale.1024.allreduce.events": MetricSpec(0.0),
    "scale.1024.allreduce.events_per_sec": MetricSpec(0.90, better="higher"),
    "scale.1024.cannon.per_step": MetricSpec(0.02),
    "scale.1024.cannon.events": MetricSpec(0.0),
    # Cluster-service points (repro.bench.service): seeded virtual-time
    # throughput/latency of the multi-tenant scheduler at an unloaded
    # and a saturated offered load.  Fully deterministic — drift means
    # the scheduler's placement or queueing behaviour changed.
    "service.idle.throughput": MetricSpec(0.02, better="higher"),
    "service.sat.throughput": MetricSpec(0.02, better="higher"),
    "service.sat.p99_queue_wait": MetricSpec(0.02),
    "service.sat.completed": MetricSpec(0.0, better="higher"),
    "service.sat.rejected": MetricSpec(0.0),
    # SLO burn-rate calibration (deterministic like the points above).
    # The idle sweep must stay silent — any alert at an unloaded rate
    # is a calibration regression; the saturated point must keep
    # paging, and its worst error-budget burn must not drift.
    "service.slo.idle.alerts": MetricSpec(0.0),
    "service.slo.sat.alerts": MetricSpec(0.0, better="higher"),
    "service.slo.sat.budget_burn": MetricSpec(0.02),
    # Plan-vs-hand application gate (repro.bench.planbench): optimized
    # plan-lowered Cannon/Minimod at the Fig. 7/8 problem sizes.  The
    # vs_hand ratios are exactly 1.0 (the optimizer derives the hand
    # schedule) and the pass counts are structural — zero tolerance,
    # any drift is a pipeline change.
    "plan.cannon.elapsed": MetricSpec(0.02),
    "plan.cannon.vs_hand": MetricSpec(0.0),
    "plan.minimod.elapsed": MetricSpec(0.02),
    "plan.minimod.vs_hand": MetricSpec(0.0),
    "plan.minimod.vs_naive": MetricSpec(0.02),
    "plan.minimod.ops_coalesced": MetricSpec(0.0, better="higher"),
    "plan.minimod.computes_overlapped": MetricSpec(0.0, better="higher"),
}


def collect() -> Dict[str, float]:
    """Run the gated benchmarks; returns metric name -> value.

    Kept deliberately small (seconds of wall time): two latency points
    and one windowed bandwidth point per op from the microbenchmark
    harness, plus one profiled Cannon run with its critical-path
    breakdown.
    """
    from repro.bench.microbench import diomp_p2p
    from repro.bench.profile import ProfileConfig, run_profiled_cannon
    from repro.hardware import platform_a

    platform = platform_a(with_quirk=False)
    out: Dict[str, float] = {}
    lat_sizes = [4, 8 * KiB]
    for op in ("put", "get"):
        for size, seconds in diomp_p2p(platform, op, lat_sizes, reps=3):
            label = "4B" if size == 4 else "8KiB"
            out[f"latency.{op}.{label}"] = seconds
        ((size, seconds),) = diomp_p2p(
            platform, op, [4 * MiB], reps=1, window=16
        )
        out[f"bandwidth.{op}.4MiB"] = size / seconds

    res = run_profiled_cannon(ProfileConfig(n=128))
    out["cannon.elapsed"] = res.elapsed
    summary = res.critical_path
    for category in ("network", "device", "host", "wait"):
        out[f"cannon.cp.{category}"] = summary.breakdown.get(category, 0.0)
    out["cannon.cp.imbalance"] = summary.imbalance

    # Fig. 6 collective gate: a 2-node x 4-GPU slice of platform A at
    # 64 MiB, where the hierarchical ring must be selected and must
    # hold its wall-clock advantage over the flat ring.
    from repro.bench.collective import allreduce_algorithm_ablation

    times, selected = allreduce_algorithm_ablation(
        platform, 2, 64 * MiB, reps=1, warmup=1
    )
    out["fig6.allreduce.64MiB"] = times["auto"]
    out["fig6.allreduce.64MiB.ring"] = times["ring"]
    out["fig6.allreduce.hier_selected"] = 1.0 if selected == "hier_ring" else 0.0

    # Engine throughput gate: one telemetry-on allreduce sweep on a
    # 2-node slice; events is deterministic, the throughput pair is
    # wall-clock (loose tolerances, see GATED_METRICS).
    from repro.bench.collective import allreduce_engine_stats

    engine = allreduce_engine_stats(platform, 2, 1 * MiB, reps=2)
    out["engine.events"] = float(engine["events"])
    out["engine.events_per_sec"] = engine["events_per_sec"]
    out["engine.wall_per_simsec"] = engine["wall_per_simsec"]

    # 1024-rank scale gate: analytic allreduce sweep plus truncated
    # Cannon rotation (see repro.bench.scale).
    from repro.bench.scale import scale_gate_metrics

    out.update(scale_gate_metrics())

    # Multi-tenant service gate: one unloaded and one saturated point
    # of the seeded job-stream sweep (see repro.bench.service).
    from repro.bench.service import service_gate_metrics

    out.update(service_gate_metrics())

    # Plan-vs-hand gate: optimized plan-lowered Cannon and Minimod at
    # figure scale must match the hand-written loops exactly (see
    # repro.bench.planbench and docs/PLAN.md).
    from repro.bench.planbench import plan_gate_metrics

    out.update(plan_gate_metrics())
    return out


def compare(
    current: Dict[str, float],
    baseline: Dict[str, float],
    specs: Optional[Dict[str, MetricSpec]] = None,
) -> List[Tuple[str, str, Optional[float], Optional[float]]]:
    """Per-metric verdicts: ``(name, status, baseline, current)``.

    Status is ``ok`` (within tolerance), ``improved`` (moved the good
    way beyond tolerance), ``regressed`` (moved the bad way beyond
    tolerance), ``missing`` (in baseline, absent now — fails), or
    ``new`` (absent from baseline — passes; refresh with ``--write``).
    """
    specs = GATED_METRICS if specs is None else specs
    rows: List[Tuple[str, str, Optional[float], Optional[float]]] = []
    for name in sorted(baseline):
        spec = specs.get(name, MetricSpec(0.05))
        base = baseline[name]
        cur = current.get(name)
        if cur is None:
            rows.append((name, "missing", base, None))
            continue
        if spec.regressed(base, cur):
            status = "regressed"
        elif spec.regressed(cur, base):
            # Symmetric check: the *baseline* is out-of-tolerance worse
            # than the current value, i.e. we improved beyond noise.
            status = "improved"
        else:
            status = "ok"
        rows.append((name, status, base, cur))
    for name in sorted(set(current) - set(baseline)):
        rows.append((name, "new", None, current[name]))
    return rows


def write_snapshot(path: str, metrics: Dict[str, float], name: str) -> None:
    doc = {
        "name": name,
        "workload": (
            "diomp-p2p microbench + profiled cannon (n=128) + "
            "fig6 allreduce algorithm ablation (64 MiB, 2 nodes) + "
            "1024-rank analytic allreduce/cannon scale sweeps + "
            "multi-tenant service idle/saturated load points with "
            "SLO burn-rate alert calibration + plan-vs-hand "
            "Cannon/Minimod comparison at figure scale"
        ),
        "metrics": metrics,
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_snapshot(path: str) -> Dict[str, float]:
    with open(path) as fh:
        doc = json.load(fh)
    return doc["metrics"]


def render_report(rows) -> str:
    from repro.bench.report import Table

    table = Table("Benchmark regression gate", ["metric", "baseline", "current", "delta", "status"])
    for name, status, base, cur in rows:
        if base is not None and cur is not None and base != 0:
            delta = f"{(cur - base) / abs(base) * 100:+.2f}%"
        else:
            delta = "n/a"
        fmt = lambda v: "n/a" if v is None else f"{v:.6g}"
        table.add_row(name, fmt(base), fmt(cur), delta, status)
    return table.render()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench regress",
        description="Benchmark regression gate against a committed baseline.",
    )
    parser.add_argument(
        "--baseline",
        default=DEFAULT_BASELINE,
        help=f"baseline snapshot to compare against (default {DEFAULT_BASELINE})",
    )
    parser.add_argument(
        "--write",
        action="store_true",
        help="write the collected metrics to the baseline path and exit 0",
    )
    parser.add_argument(
        "--out",
        metavar="BENCH_NAME.json",
        help="also write this run's snapshot to the given path",
    )
    args = parser.parse_args(argv)

    current = collect()
    if args.out:
        stem = args.out.rsplit("/", 1)[-1]
        write_snapshot(args.out, current, name=stem.replace(".json", ""))
        print(f"snapshot     : {args.out}")
    if args.write:
        write_snapshot(args.baseline, current, name="baseline")
        print(f"baseline     : {args.baseline} (rewritten)")
        return 0

    try:
        baseline = load_snapshot(args.baseline)
    except FileNotFoundError:
        print(
            f"no baseline at {args.baseline}; create one with "
            "`python -m repro.bench regress --write`"
        )
        return 2
    rows = compare(current, baseline)
    print(render_report(rows))
    failures = [r for r in rows if r[1] in ("regressed", "missing")]
    if failures:
        print(f"\nFAIL: {len(failures)} metric(s) regressed beyond tolerance")
        return 1
    print("\nPASS: all gated metrics within tolerance")
    return 0
