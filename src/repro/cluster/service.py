"""Multi-tenant job scheduler over one shared simulated cluster.

A :class:`World` is single-use: one SPMD program, one ``sim.run()``.
The service layer lifts that to a *cluster*: a stream of
:class:`~repro.cluster.jobs.JobRequest`\\ s from different tenants is
admitted through a bounded queue, gang-placed onto free nodes, run on
a :class:`TenantView` — a :class:`World` scope over the gang's nodes of
the shared world — and torn down so the nodes (and their device
memory) go back into the pool.

Isolation model
===============

Gangs are whole nodes, so two concurrent jobs never share a GPU, a
NIC, or an intra-node link.  Each job gets:

* fresh :class:`~repro.cluster.world.RankContext`\\ s with tenant-local
  ranks ``0..k-1`` (the job's program is unchanged from standalone
  ``run_spmd`` use),
* its own conduit/runtime/collective state (a new
  :class:`~repro.core.runtime.DiompRuntime` per job),
* its own :class:`~repro.obs.Observability` per *tenant*, so one
  tenant's metrics/spans never mix into another's registry — the
  service's own ``service.*`` metrics live on the world registry with
  a ``tenant`` label for cross-tenant rollups,
* its own :class:`~repro.faults.FaultPlan`: the plan is armed on the
  gang's devices, and every transfer the gang issues goes through
  :meth:`World.transfer`, which passes the issuing scope's plan to the
  shared ``Fabric.transfer`` as an argument.  The fabric stores no
  plan, so a chaos plan on tenant A cannot perturb tenant B's results
  *or timing* (the isolation property the tests assert bit-for-bit).

Scheduling is deterministic: admission order is (arrival, job_id),
placement takes the lowest free node indices, and the queue policy is
strict — the head job (FIFO) or the highest-priority job (priority
policy) blocks later jobs rather than being backfilled around.  With a
seeded job stream the whole service run replays exactly.
"""

from __future__ import annotations

import dataclasses
import json
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.cluster.jobs import JobRequest, build_job
from repro.cluster.world import RankContext, World, check_gang_shape
from repro.obs import Observability
from repro.obs.accounting import ChargebackReport, CostRates, chargeback_report
from repro.obs.rollup import exact_percentile
from repro.obs.slo import (
    SLO,
    Alert,
    BurnRateRule,
    SloStatus,
    SloTracker,
    availability_slo,
    incident_timeline,
    latency_slo,
)
from repro.obs.timeseries import TimeSeries, WindowSpec
from repro.sim import Future
from repro.util.errors import ConfigurationError
from repro.util.units import MiB


def default_service_slos() -> Tuple[SLO, ...]:
    """The stock service objectives (see ``docs/SLO.md``).

    Thresholds are calibrated to the saturation benchmark's offered-load
    sweep: an unsaturated service (every gang places immediately) emits
    zero alerts, while the saturated point breaches both objectives —
    queue waits blow through the latency budget and admission control
    starts shedding, burning the availability budget.
    """
    return (
        latency_slo(
            "queue-wait-p90",
            "service.queue_wait_seconds",
            threshold=250e-6,
            target=0.90,
            window=2e-3,
            rules=(
                BurnRateRule(
                    long_window=2e-3, short_window=5e-4, factor=2.0, severity="page"
                ),
            ),
            min_events=4,
            description="90% of admitted jobs wait < 250 us for placement",
        ),
        availability_slo(
            "job-success",
            "service.jobs",
            good={"outcome": "completed"},
            target=0.999,
            window=2e-3,
            rules=(
                BurnRateRule(
                    long_window=2e-3, short_window=5e-4, factor=10.0, severity="page"
                ),
            ),
            min_events=4,
            description="99.9% of submitted jobs complete (not rejected/failed)",
        ),
    )


class TenantView(World):
    """One job's gang: a :class:`World` scope over part of a shared one.

    Shares the parent world's simulator, topology, platform, tracer,
    fabric and device objects (hardware is real and shared); owns
    everything that must not leak across tenants — rank contexts,
    observability, peer access bookkeeping, the gang barrier, and the
    fault plan its transfers are handed (see :meth:`World.transfer`).
    """

    def __init__(
        self,
        world: World,
        nodes: Sequence[int],
        ranks_per_node: int,
        devices_per_rank: int = 1,
        obs: Optional[Observability] = None,
        tenant: str = "tenant",
    ) -> None:
        self.world = world
        self.tenant = tenant
        self.nodes = tuple(nodes)
        self.platform = world.platform
        self.sim = world.sim
        self.topology = world.topology
        self.tracer = world.tracer
        self.fabric = world.fabric
        self.analytic = world.analytic
        self.obs = obs if obs is not None else Observability()
        if obs is None:
            self.obs.bind_clock(lambda: self.sim.now)
        self._place(
            self.nodes, ranks_per_node, devices_per_rank, world.devices, f"{tenant}-barrier"
        )
        #: only the gang's devices, so install_fault_plan arms no others
        self.devices = {dev_id: world.devices[dev_id] for dev_id in self._device_owner}
        # A gang without a plan of its own runs under the parent's.
        self.fault_plan = world.fault_plan

    def restore(self) -> None:
        """Detach the tenant scope, handing devices back to the world's
        plan (usually None).  Called at job teardown."""
        self.fault_plan = None
        for dev in self.devices.values():
            dev.faults = self.world.fault_plan


@dataclasses.dataclass(frozen=True)
class ServiceConfig:
    """Scheduler knobs."""

    #: max jobs waiting; arrivals beyond it are rejected (admission
    #: control — the service degrades by shedding, not by unbounded
    #: queue growth)
    queue_limit: int = 16
    #: "fifo" (strict arrival order) or "priority" (highest
    #: :attr:`~repro.cluster.jobs.JobRequest.priority` first, FIFO ties)
    policy: str = "fifo"
    #: per-rank host segment for each job's runtime (jobs here use the
    #: device-side path; keep the host arena small)
    host_segment_size: int = 1 * MiB
    #: service-level objectives evaluated live while the service runs.
    #: ``None`` (the default) installs :func:`default_service_slos`;
    #: pass an empty tuple to disable SLO tracking entirely.
    slos: Optional[Tuple[SLO, ...]] = None
    #: windowing for the live ``service.*`` time series backing the
    #: SLO burn-rate math; ``None`` uses 100 us tumbling windows with a
    #: 64-deep ring (bounded memory regardless of run length)
    windows: Optional[WindowSpec] = None


@dataclasses.dataclass
class JobRecord:
    """One job's life, as the service saw it (all times virtual)."""

    job_id: int
    tenant: str
    kind: str
    #: "completed" | "failed" | "rejected"
    outcome: str
    submitted: float
    started: Optional[float]
    finished: float
    queue_wait: float
    service_time: float
    #: node indices the gang ran on (empty for rejections)
    nodes: Tuple[int, ...]
    #: per-rank program results ("completed" only)
    results: Optional[List[Any]] = None
    #: repr of the first rank error ("failed" only)
    error: Optional[str] = None
    #: why admission refused the job ("rejected" only)
    reason: Optional[str] = None


@dataclasses.dataclass
class ServiceResult:
    """Outcome of one service run over a job stream."""

    #: records in event order (rejections at submit, others at teardown)
    records: List[JobRecord]
    #: virtual seconds from service start to the last event
    elapsed: float
    world: World
    #: tenant -> that tenant's private Observability
    tenant_obs: Dict[str, Observability]
    #: the objectives that were live during the run (empty if disabled)
    slos: Tuple[SLO, ...] = ()
    #: every burn-rate alert that fired, in fire order (all resolved by
    #: end of run — an alert still breaching resolves at ``elapsed``)
    alerts: List[Alert] = dataclasses.field(default_factory=list)
    #: raw fire/resolve events, sim-timestamped, in event order
    timeline: List[Dict[str, Any]] = dataclasses.field(default_factory=list)
    #: end-of-run error-budget accounting per SLO
    slo_report: List[SloStatus] = dataclasses.field(default_factory=list)
    #: bounded windowed-series snapshot (``TimeSeries.snapshot()``)
    windows: Optional[Dict[str, Any]] = None

    def __post_init__(self) -> None:
        # Build the job-id and outcome indexes once: ``record_of`` and
        # ``by_outcome`` were O(n) scans per call.  A duplicate id
        # between *admitted* records is bookkeeping corruption and
        # fails loudly at construction (it used to silently resolve to
        # whichever record came first); a rejection record may share
        # the id of an admitted job — that is the admission layer
        # refusing a duplicate submission — and ``record_of`` then
        # resolves to the admitted record.
        self._by_id: Dict[int, JobRecord] = {}
        self._by_outcome: Dict[str, List[JobRecord]] = {}
        for r in self.records:
            held = self._by_id.get(r.job_id)
            if held is None:
                self._by_id[r.job_id] = r
            elif r.outcome != "rejected":
                if held.outcome != "rejected":
                    raise ConfigurationError(
                        f"duplicate job id {r.job_id} in service records: "
                        f"{held.outcome!r} and {r.outcome!r} records both "
                        "claim it"
                    )
                self._by_id[r.job_id] = r
            self._by_outcome.setdefault(r.outcome, []).append(r)

    def by_outcome(self, outcome: str) -> List[JobRecord]:
        return list(self._by_outcome.get(outcome, ()))

    @property
    def completed(self) -> List[JobRecord]:
        return self.by_outcome("completed")

    @property
    def failed(self) -> List[JobRecord]:
        return self.by_outcome("failed")

    @property
    def rejected(self) -> List[JobRecord]:
        return self.by_outcome("rejected")

    @property
    def throughput(self) -> float:
        """Completed jobs per virtual second.

        A zero-duration run (every job rejected at t=0, or an empty
        stream) has no meaningful rate: returns 0.0 rather than
        dividing by zero.
        """
        if self.elapsed <= 0:
            return 0.0
        return len(self.completed) / self.elapsed

    def queue_wait_percentile(self, q: float) -> float:
        """Exact queue-wait percentile (``q`` in [0, 1]) over completed
        and failed jobs — the latency an *admitted* job experienced.

        Raises :class:`~repro.util.errors.PercentileError` (a subclass
        of both :class:`ConfigurationError` and :class:`ValueError` —
        the unified taxonomy shared with
        :func:`repro.obs.rollup.exact_percentile`) when ``q`` is
        outside [0, 1].  Returns 0.0 (by definition, not by
        measurement) when no job was admitted — an all-rejected or
        empty run has no wait samples.
        """
        waits = [r.queue_wait for r in self.records if r.outcome != "rejected"]
        return exact_percentile(waits, q)

    def tenant_rollups(self) -> Dict[str, Any]:
        """Cross-tenant rollups of the ``service.*`` metrics."""
        return self.world.obs.rollup("tenant")

    def record_of(self, job_id: int) -> JobRecord:
        """The record for ``job_id`` (O(1) via the construction-time
        index).  When a duplicate submission was rejected, resolves to
        the admitted record, not the rejection stub."""
        try:
            return self._by_id[job_id]
        except KeyError:
            raise KeyError(f"no record for job {job_id}") from None

    # -- SLO / chargeback surface -------------------------------------------

    def incidents(self, findings: Optional[Sequence[Any]] = None) -> List[Dict[str, Any]]:
        """The incident timeline: burn-rate fire/resolve events merged
        with anomaly findings (``findings=None`` runs the stock anomaly
        rules over the world's spans and metrics)."""
        if findings is None:
            findings = self.world.obs.detect_anomalies().findings
        return incident_timeline(self.timeline, findings, end=self.elapsed)

    def chargeback(self, rates: Optional[CostRates] = None) -> ChargebackReport:
        """Per-tenant cost table from the metered ``service.*`` usage
        counters; rows sum to the whole-service totals row."""
        return chargeback_report(self.world.obs.registry, rates)

    def dashboard(
        self,
        title: str = "Cluster service dashboard",
        with_anomalies: bool = False,
        rates: Optional[CostRates] = None,
    ) -> str:
        """The world dashboard plus the service-level sections: live
        window summary, SLO error budgets with the incident timeline,
        and the per-tenant chargeback table."""
        from repro.obs.export import render_dashboard
        from repro.obs.slo import render_slo

        return render_dashboard(
            self.world.obs.registry,
            title,
            anomalies=self.world.obs.detect_anomalies() if with_anomalies else None,
            windows=self.windows,
            slo=render_slo(self.slo_report, self.timeline) if self.slos else None,
            chargeback=self.chargeback(rates),
        )

    def export(self, path: str, rates: Optional[CostRates] = None) -> Dict[str, Any]:
        """Write a JSON export that ``python -m repro.obs slo`` can
        replay offline; returns the exported document."""
        doc = {
            "elapsed": self.elapsed,
            "records": [
                {
                    "job_id": r.job_id,
                    "tenant": r.tenant,
                    "kind": r.kind,
                    "outcome": r.outcome,
                    "submitted": r.submitted,
                    "started": r.started,
                    "finished": r.finished,
                    "queue_wait": r.queue_wait,
                    "service_time": r.service_time,
                }
                for r in self.records
            ],
            "slos": [s.to_dict() for s in self.slos],
            "alerts": [a.to_dict() for a in self.alerts],
            "timeline": list(self.timeline),
            "slo_report": [s.to_dict() for s in self.slo_report],
            "chargeback": self.chargeback(rates).to_dict(),
            "windows": self.windows,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1)
        return doc


@dataclasses.dataclass
class _Pending:
    """A queued job plus its resolved program."""

    req: JobRequest
    submitted: float
    #: admission sequence number — the FIFO/priority tiebreaker
    seq: int
    program: Any
    args: Tuple[Any, ...]
    segment_size: int


class _RunningJob:
    """Shared state between a job's rank tasks and its reaper."""

    def __init__(self, pend: _Pending, view: TenantView, runtime, started: float) -> None:
        self.pend = pend
        self.view = view
        self.runtime = runtime
        self.started = started
        self.queue_wait = started - pend.submitted
        self.expected = view.nranks
        self.results: Dict[int, Any] = {}
        self.finished = 0
        self.error: Optional[BaseException] = None
        self.done = Future(view.sim, description=f"job{pend.req.job_id}-done")
        self.tasks: List[Any] = []


class ClusterService:
    """Admission control + gang placement + per-tenant isolation.

    Single-use like the world it drives: :meth:`run` consumes the
    world's one simulation.  The scheduler is a simulated task; it
    wakes on arrivals and completions (a pending-kick flag makes the
    wakeup race-free under the one-runnable-task discipline) and
    dispatches strictly in policy order — no backfilling, so placement
    is a pure function of the admitted sequence.
    """

    def __init__(self, world: World, config: Optional[ServiceConfig] = None) -> None:
        self.world = world
        self.config = config or ServiceConfig()
        if self.config.policy not in ("fifo", "priority"):
            raise ConfigurationError(
                f"unknown policy {self.config.policy!r} (fifo | priority)"
            )
        if self.config.queue_limit < 1:
            raise ConfigurationError("queue_limit must be >= 1")
        self._total_nodes = world.topology.num_nodes
        self._free_nodes: List[int] = list(range(self._total_nodes))
        self._queue: List[_Pending] = []
        self._running: Dict[int, _RunningJob] = {}
        self._records: List[JobRecord] = []
        self._tenant_obs: Dict[str, Observability] = {}
        self._arrivals_done = False
        self._kick: Optional[Future] = None
        self._kick_pending = False
        self._seq = 0
        self._used = False
        obs = world.obs
        self._c_jobs = obs.counter(
            "service.jobs", "jobs by tenant/kind/outcome"
        )
        self._h_wait = obs.histogram(
            "service.queue_wait_seconds", "admission-to-start wait"
        )
        self._h_service = obs.histogram(
            "service.service_seconds", "start-to-teardown runtime"
        )
        self._g_depth = obs.gauge("service.queue_depth", "jobs waiting")
        self._g_busy = obs.gauge("service.nodes_busy", "nodes placed")
        self._c_leaked = obs.counter(
            "service.leaked_bytes", "segment bytes leaked by failed jobs"
        )
        self._c_gpu = obs.counter(
            "service.gpu_seconds", "device-seconds held per tenant/kind"
        )
        self._c_net = obs.counter(
            "service.net_bytes", "fabric bytes moved per tenant"
        )
        #: last seen cumulative rma.bytes per tenant registry, so each
        #: teardown meters only the delta since the tenant's previous
        #: teardown (tenant totals stay exact even with concurrent
        #: same-tenant gangs sharing one tenant registry)
        self._net_baseline: Dict[str, float] = {}
        slos = self.config.slos
        self.slos: Tuple[SLO, ...] = (
            default_service_slos() if slos is None else tuple(slos)
        )
        self._timeseries: Optional[TimeSeries] = None
        self._tracker: Optional[SloTracker] = None
        if self.slos:
            label_keys = {"tenant"}
            for slo in self.slos:
                label_keys.update(slo.required_labels())
            self._timeseries = TimeSeries(
                clock=lambda: world.sim.now,
                spec=self.config.windows or WindowSpec(width=100e-6, history=64),
                group_by=tuple(sorted(label_keys)),
                metrics=("service.",),
            )
            self._timeseries.attach(obs.registry)
            self._tracker = SloTracker(self.slos, self._timeseries)

    # -- entry point ---------------------------------------------------------

    def run(self, jobs: Sequence[JobRequest]) -> ServiceResult:
        """Run the job stream to completion and return the records."""
        if self._used:
            raise ConfigurationError("service is single-use (like its world)")
        self._used = True
        if self.world.sim.closed:
            raise ConfigurationError(
                "world is single-use and already consumed; build a fresh "
                "World for each ClusterService"
            )
        stream = sorted(jobs, key=lambda r: (r.arrival, r.job_id))
        self.world.sim.spawn(self._arrivals, tuple(stream), name="svc-arrivals")
        self.world.sim.spawn(self._scheduler, name="svc-scheduler")
        elapsed = self.world.sim.run()
        alerts: List[Alert] = []
        timeline: List[Dict[str, Any]] = []
        slo_report: List[SloStatus] = []
        windows: Optional[Dict[str, Any]] = None
        if self._tracker is not None:
            self._tracker.finish(elapsed)
            alerts = list(self._tracker.alerts)
            timeline = list(self._tracker.timeline)
            slo_report = self._tracker.report(elapsed)
            windows = self._timeseries.snapshot()
            self._timeseries.detach(self.world.obs.registry)
        return ServiceResult(
            records=list(self._records),
            elapsed=elapsed,
            world=self.world,
            tenant_obs=dict(self._tenant_obs),
            slos=self.slos,
            alerts=alerts,
            timeline=timeline,
            slo_report=slo_report,
            windows=windows,
        )

    # -- arrivals ------------------------------------------------------------

    def _arrivals(self, stream: Tuple[JobRequest, ...]) -> None:
        sim = self.world.sim
        for req in stream:
            if req.arrival > sim.now:
                sim.sleep(req.arrival - sim.now)
            self._submit(req)
        self._arrivals_done = True
        self._kick_scheduler()

    def _reject(self, req: JobRequest, reason: str) -> None:
        now = self.world.sim.now
        self._c_jobs.inc(tenant=req.tenant, kind=req.kind, outcome="rejected")
        self._records.append(
            JobRecord(
                job_id=req.job_id,
                tenant=req.tenant,
                kind=req.kind,
                outcome="rejected",
                submitted=now,
                started=None,
                finished=now,
                queue_wait=0.0,
                service_time=0.0,
                nodes=(),
                reason=reason,
            )
        )
        self._evaluate_slos()

    def _submit(self, req: JobRequest) -> None:
        if req.job_id in self._running or any(
            p.req.job_id == req.job_id for p in self._queue
        ):
            self._reject(req, "duplicate job_id")
            return
        if req.nodes > self._total_nodes:
            self._reject(req, "infeasible")
            return
        try:
            # Validates gang shape and problem size up front, so a bad
            # request bounces at admission instead of mid-placement.
            check_gang_shape(
                self.world.platform, range(req.nodes), req.ranks_per_node, req.devices_per_rank
            )
            program, args, segment_size = build_job(req, req.nranks)
        except ConfigurationError:
            self._reject(req, "infeasible")
            return
        if len(self._queue) >= self.config.queue_limit:
            self._reject(req, "queue_full")
            return
        self._queue.append(
            _Pending(
                req=req,
                submitted=self.world.sim.now,
                seq=self._seq,
                program=program,
                args=args,
                segment_size=segment_size,
            )
        )
        self._seq += 1
        self._g_depth.set(len(self._queue))
        self._kick_scheduler()

    # -- live SLO evaluation -------------------------------------------------

    def _evaluate_slos(self) -> None:
        """Poke the burn-rate tracker at the current sim time.  Pure
        computation on the window ring — no simulated events are
        created, so enabling SLOs never perturbs scheduling or timing
        (the regress gate holds bit-identical with SLOs on or off)."""
        if self._tracker is not None:
            self._tracker.evaluate(self.world.sim.now)

    # -- scheduler -----------------------------------------------------------

    def _kick_scheduler(self) -> None:
        self._kick_pending = True
        if self._kick is not None and not self._kick.fired:
            self._kick.fire()

    def _wait_kick(self) -> None:
        # The pending flag closes the classic lost-wakeup window: a
        # kick raised while the scheduler was dispatching (which can
        # yield inside runtime setup) is consumed here instead of lost.
        if self._kick_pending:
            self._kick_pending = False
            return
        self._kick = Future(self.world.sim, description="svc-kick")
        self._kick.wait()
        self._kick = None
        self._kick_pending = False

    def _scheduler(self) -> None:
        while True:
            self._dispatch_all()
            if self._arrivals_done and not self._queue and not self._running:
                return
            self._wait_kick()

    def _pick(self) -> int:
        if self.config.policy == "fifo":
            return 0
        return min(
            range(len(self._queue)),
            key=lambda i: (-self._queue[i].req.priority, self._queue[i].seq),
        )

    def _dispatch_all(self) -> None:
        while self._queue:
            index = self._pick()
            pend = self._queue[index]
            if pend.req.nodes > len(self._free_nodes):
                # Strict policy order: the chosen job waits for nodes
                # rather than being backfilled around, keeping
                # placement a pure function of the admitted sequence.
                break
            self._queue.pop(index)
            self._g_depth.set(len(self._queue))
            self._launch(pend)

    def _tenant_observability(self, tenant: str) -> Observability:
        if tenant not in self._tenant_obs:
            obs = Observability()
            obs.bind_clock(lambda: self.world.sim.now)
            self._tenant_obs[tenant] = obs
        return self._tenant_obs[tenant]

    def _launch(self, pend: _Pending) -> None:
        from repro.core.runtime import DiompParams, DiompRuntime

        req = pend.req
        sim = self.world.sim
        nodes = tuple(self._free_nodes[: req.nodes])
        del self._free_nodes[: req.nodes]
        self._g_busy.set(self._total_nodes - len(self._free_nodes))
        view = TenantView(
            self.world,
            nodes,
            req.ranks_per_node,
            req.devices_per_rank,
            obs=self._tenant_observability(req.tenant),
            tenant=req.tenant,
        )
        if req.faults is not None:
            view.install_fault_plan(req.faults)
        runtime = DiompRuntime(
            view,
            DiompParams(
                segment_size=pend.segment_size,
                host_segment_size=self.config.host_segment_size,
            ),
        )
        run = _RunningJob(pend, view, runtime, started=sim.now)
        self._running[req.job_id] = run
        self._h_wait.observe(run.queue_wait, tenant=req.tenant, kind=req.kind)
        self._evaluate_slos()
        run.tasks = [
            sim.spawn(
                self._rank_body,
                run,
                ctx,
                name=f"job{req.job_id}-{req.tenant}-r{ctx.rank}",
            )
            for ctx in view.ranks
        ]
        sim.spawn(self._reaper, run, name=f"job{req.job_id}-reaper")

    # -- job lifecycle -------------------------------------------------------

    def _rank_body(self, run: _RunningJob, ctx: RankContext) -> None:
        try:
            result = run.pend.program(ctx, *run.pend.args)
        except Exception as exc:  # noqa: BLE001 - contained, job marked failed
            # Deliberately broad: the program is arbitrary tenant code,
            # and whatever it raises must fail only this job, never the
            # scheduler or another tenant's gang.  First error wins; the
            # reaper kills the surviving gang tasks (a partial gang
            # would deadlock on its barriers).
            if run.error is None:
                run.error = exc
                if not run.done.fired:
                    run.done.fire()
            return
        run.results[ctx.rank] = result
        run.finished += 1
        if run.finished == run.expected and not run.done.fired:
            run.done.fire()

    def _reaper(self, run: _RunningJob) -> None:
        run.done.wait()
        if run.error is not None:
            for task in run.tasks:
                if not task.finished:
                    task.kill()
        self._teardown(run)

    def _teardown(self, run: _RunningJob) -> None:
        req = run.pend.req
        sim = self.world.sim
        run.view.restore()
        outcome = "completed" if run.error is None else "failed"
        if run.error is None:
            # Hand the gang's device memory back so the nodes are
            # genuinely reusable (reservation release, not address
            # recycling — see DeviceMemorySpace.release).
            for seg in run.runtime.segments.values():
                seg.release()
        else:
            # A killed gang may still have transfer completions in
            # flight; leaking the segments keeps those landings on
            # live (if freed-flagged) memory instead of corrupting a
            # successor's reservation.  Leaks are metered, not hidden.
            leaked = sum(
                seg.size for seg in run.runtime.segments.values() if not seg.released
            )
            self._c_leaked.inc(leaked, tenant=req.tenant)
        self._free_nodes.extend(run.view.nodes)
        self._free_nodes.sort()
        self._g_busy.set(self._total_nodes - len(self._free_nodes))
        service_time = sim.now - run.started
        self._h_service.observe(service_time, tenant=req.tenant, kind=req.kind)
        self._c_jobs.inc(tenant=req.tenant, kind=req.kind, outcome=outcome)
        # Chargeback metering: the gang held its devices for the whole
        # service time (success or failure), and the tenant registry's
        # cumulative fabric-byte counter advanced by this job's traffic
        # (delta since the tenant's previous teardown).
        self._c_gpu.inc(
            len(run.view.devices) * service_time, tenant=req.tenant, kind=req.kind
        )
        tenant_bytes = run.view.obs.value("rma.bytes")
        prev_bytes = self._net_baseline.get(req.tenant, 0.0)
        if tenant_bytes > prev_bytes:
            self._c_net.inc(tenant_bytes - prev_bytes, tenant=req.tenant)
            self._net_baseline[req.tenant] = tenant_bytes
        self._evaluate_slos()
        self._records.append(
            JobRecord(
                job_id=req.job_id,
                tenant=req.tenant,
                kind=req.kind,
                outcome=outcome,
                submitted=run.pend.submitted,
                started=run.started,
                finished=sim.now,
                queue_wait=run.queue_wait,
                service_time=service_time,
                nodes=run.view.nodes,
                results=(
                    [run.results.get(r) for r in range(run.expected)]
                    if run.error is None
                    else None
                ),
                error=repr(run.error) if run.error is not None else None,
            )
        )
        del self._running[req.job_id]
        self._kick_scheduler()
