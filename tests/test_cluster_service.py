"""Multi-tenant cluster service: placement, admission, isolation."""

import numpy as np
import pytest

from repro.cluster import (
    ClusterService,
    JobRequest,
    ServiceConfig,
    TenantView,
    World,
    poisson_jobs,
)
from repro.cluster.jobs import build_job, default_size
from repro.faults import FaultPlan, FaultSpec
from repro.hardware import platform_a
from repro.util.errors import ConfigurationError


def make_world(nodes=2, rpn=2):
    return World(platform_a(), num_nodes=nodes, ranks_per_node=rpn)


def job(job_id, **kw):
    kw.setdefault("tenant", "t")
    kw.setdefault("kind", "allreduce")
    kw.setdefault("nodes", 1)
    return JobRequest(job_id=job_id, **kw)


def noisy_plan(seed=9):
    """Deterministic latency + transient injections on every site a
    gang exercises."""
    return FaultPlan(
        [
            FaultSpec(site="rma.intra", kind="latency", probability=1.0, latency=50e-6),
            FaultSpec(site="conduit.put", kind="transient", nth=1),
            FaultSpec(site="stream.sync", kind="latency", probability=1.0, latency=50e-6),
        ],
        seed=seed,
    )


class TestTenantView:
    def test_gang_shape_validation(self):
        w = make_world()
        with pytest.raises(ConfigurationError, match="exceed"):
            TenantView(w, (0,), ranks_per_node=3, devices_per_rank=2)
        with pytest.raises(ConfigurationError, match="at least one node"):
            TenantView(w, (), ranks_per_node=1)
        with pytest.raises(ConfigurationError, match="duplicate"):
            TenantView(w, (0, 0), ranks_per_node=1)

    def test_tenant_local_ranks_on_global_nodes(self):
        w = make_world(nodes=4)
        view = TenantView(w, (2, 3), ranks_per_node=2)
        assert [ctx.rank for ctx in view.ranks] == [0, 1, 2, 3]
        assert [ctx.node for ctx in view.ranks] == [2, 2, 3, 3]
        assert view.nranks == 4
        assert view.same_node(0, 1) and not view.same_node(1, 2)

    def test_shares_hardware_owns_isolation_state(self):
        w = make_world()
        view = TenantView(w, (1,), ranks_per_node=2)
        assert isinstance(view, World)
        assert view.sim is w.sim and view.topology is w.topology
        assert view.fabric is w.fabric
        gpu = w.topology.gpu(1, 0)
        assert view.devices[gpu] is w.devices[gpu]
        assert view.obs is not w.obs
        assert view.peer_access is not w.peer_access
        assert view.global_barrier is not w.global_barrier

    def test_device_owner_scoped_to_gang(self):
        w = make_world()
        view = TenantView(w, (1,), ranks_per_node=2)
        assert view.device_owner(w.topology.gpu(1, 0)) is view.ranks[0]
        with pytest.raises(ConfigurationError, match="not bound"):
            view.device_owner(w.topology.gpu(0, 0))

    def test_fault_plan_scoped_to_gang_devices(self):
        w = make_world()
        view = TenantView(w, (1,), ranks_per_node=2)
        plan = noisy_plan()
        view.install_fault_plan(plan)
        assert w.devices[w.topology.gpu(1, 0)].faults is plan
        assert w.devices[w.topology.gpu(0, 0)].faults is None
        view.restore()
        assert w.devices[w.topology.gpu(1, 0)].faults is None


class TestAdmission:
    def test_infeasible_gang_rejected(self):
        res = ClusterService(make_world()).run([job(0, nodes=5)])
        (rec,) = res.records
        assert rec.outcome == "rejected" and rec.reason == "infeasible"

    def test_infeasible_problem_size_rejected(self):
        # cannon N must divide by the gang size
        res = ClusterService(make_world()).run(
            [job(0, kind="cannon", size=7)]
        )
        assert res.records[0].reason == "infeasible"

    def test_oversubscribed_gang_shape_rejected(self):
        res = ClusterService(make_world()).run(
            [job(0, ranks_per_node=3, devices_per_rank=2)]
        )
        assert res.records[0].reason == "infeasible"

    def test_queue_full_sheds_load(self):
        # Simultaneous arrivals are all admitted before any dispatch
        # (same virtual instant), so exactly queue_limit jobs survive.
        w = World(platform_a(), num_nodes=1, ranks_per_node=2)
        jobs = [job(i) for i in range(8)]
        res = ClusterService(w, ServiceConfig(queue_limit=2)).run(jobs)
        assert len(res.completed) == 2
        assert len(res.rejected) == 6
        assert all(r.reason == "queue_full" for r in res.rejected)

    def test_duplicate_job_id_rejected(self):
        res = ClusterService(make_world()).run([job(0), job(0)])
        outcomes = sorted(r.outcome for r in res.records)
        assert outcomes == ["completed", "rejected"]
        assert res.rejected[0].reason == "duplicate job_id"

    def test_service_is_single_use(self):
        w = make_world()
        svc = ClusterService(w)
        svc.run([job(0)])
        with pytest.raises(ConfigurationError, match="single-use"):
            svc.run([job(1)])
        with pytest.raises(ConfigurationError, match="single-use"):
            ClusterService(w).run([job(1)])

    def test_bad_policy_rejected(self):
        with pytest.raises(ConfigurationError, match="policy"):
            ClusterService(make_world(), ServiceConfig(policy="lifo"))


class TestPlacement:
    def test_lowest_free_nodes_first(self):
        w = make_world(nodes=4)
        res = ClusterService(w).run(
            [job(0, nodes=2), job(1), job(2)]
        )
        assert res.record_of(0).nodes == (0, 1)
        assert res.record_of(1).nodes == (2,)
        assert res.record_of(2).nodes == (3,)

    def test_concurrent_gangs_never_share_nodes(self):
        w = make_world(nodes=4)
        jobs = poisson_jobs(seed=1, count=16, rate=8000.0, execute=False)
        res = ClusterService(w, ServiceConfig(queue_limit=16)).run(jobs)
        # Reconstruct intervals: no two overlapping jobs share a node.
        runs = [r for r in res.records if r.outcome == "completed"]
        for a in runs:
            for b in runs:
                if a.job_id < b.job_id and set(a.nodes) & set(b.nodes):
                    assert a.finished <= b.started or b.finished <= a.started

    def test_wide_gang_blocks_head_of_line(self):
        # FIFO is strict: a 2-node job at the head waits for both nodes
        # even while a later 1-node job could have run.
        w = make_world(nodes=2)
        jobs = [
            job(0, nodes=2),
            job(1, nodes=2, arrival=1e-6),
            job(2, nodes=1, arrival=2e-6),
        ]
        res = ClusterService(w, ServiceConfig(queue_limit=4)).run(jobs)
        assert res.record_of(2).started >= res.record_of(1).finished

    def test_priority_policy_overtakes_fifo(self):
        w = World(platform_a(), num_nodes=1, ranks_per_node=2)
        jobs = [
            job(0),  # occupies the node
            job(1, arrival=1e-6, priority=0),
            job(2, arrival=2e-6, priority=5),
        ]
        fifo = ClusterService(make_world(1), ServiceConfig(policy="fifo")).run(jobs)
        prio = ClusterService(w, ServiceConfig(policy="priority")).run(jobs)
        assert fifo.record_of(1).started < fifo.record_of(2).started
        assert prio.record_of(2).started < prio.record_of(1).started

    def test_nodes_recycled_after_completion(self):
        w = World(platform_a(), num_nodes=1, ranks_per_node=2)
        jobs = [job(i, kind="cannon", size=8) for i in range(6)]
        res = ClusterService(w, ServiceConfig(queue_limit=8)).run(jobs)
        assert len(res.completed) == 6
        assert all(r.nodes == (0,) for r in res.completed)

    def test_device_memory_returned_between_jobs(self):
        w = World(platform_a(), num_nodes=1, ranks_per_node=2)
        jobs = [job(i) for i in range(6)]
        res = ClusterService(w, ServiceConfig(queue_limit=8)).run(jobs)
        assert len(res.completed) == 6
        # Every completed job released its segments: nothing live.
        for dev in w.devices.values():
            assert dev.memory.live_bytes == 0


class TestDeterminism:
    def run_once(self):
        w = World(platform_a(), num_nodes=4, ranks_per_node=2)
        jobs = poisson_jobs(seed=11, count=12, rate=5000.0, execute=True)
        return ClusterService(w, ServiceConfig(queue_limit=8)).run(jobs)

    @staticmethod
    def fingerprint(res):
        return [
            (r.job_id, r.outcome, r.nodes, r.submitted, r.started, r.finished)
            for r in res.records
        ]

    def test_same_seed_replays_exactly(self):
        a, b = self.run_once(), self.run_once()
        assert self.fingerprint(a) == self.fingerprint(b)
        assert a.elapsed == b.elapsed

    def test_seed_changes_the_schedule(self):
        a = self.run_once()
        w = World(platform_a(), num_nodes=4, ranks_per_node=2)
        jobs = poisson_jobs(seed=12, count=12, rate=5000.0, execute=True)
        b = ClusterService(w, ServiceConfig(queue_limit=8)).run(jobs)
        assert self.fingerprint(a) != self.fingerprint(b)


class TestIsolation:
    def run_pair(self, co_tenant_faults):
        w = make_world()
        jobs = [
            JobRequest(job_id=0, tenant="victim", kind="cannon", nodes=1, size=8),
            JobRequest(
                job_id=1,
                tenant="chaotic",
                kind="cannon",
                nodes=1,
                size=8,
                faults=co_tenant_faults,
            ),
        ]
        return ClusterService(w).run(jobs)

    def test_co_tenant_faults_do_not_perturb_victim(self):
        clean = self.run_pair(None)
        noisy = self.run_pair(noisy_plan())
        v0, v1 = clean.record_of(0), noisy.record_of(0)
        # Bit-identical timing...
        assert (v0.started, v0.finished, v0.service_time, v0.queue_wait) == (
            v1.started,
            v1.finished,
            v1.service_time,
            v1.queue_wait,
        )
        # ...bit-identical results...
        for a, b in zip(v0.results, v1.results):
            assert a["elapsed"] == b["elapsed"]
            assert np.array_equal(a["C"], b["C"])
        # ...and a bit-identical tenant metrics registry.
        assert (
            clean.tenant_obs["victim"].snapshot()
            == noisy.tenant_obs["victim"].snapshot()
        )

    def test_faults_do_perturb_their_own_tenant(self):
        clean = self.run_pair(None)
        noisy = self.run_pair(noisy_plan())
        assert (
            noisy.record_of(1).service_time > clean.record_of(1).service_time
        )
        assert noisy.tenant_obs["chaotic"].value("faults.injected") > 0
        # Recovery still yields correct numerics under transients.
        for a, b in zip(clean.record_of(1).results, noisy.record_of(1).results):
            assert np.array_equal(a["C"], b["C"])

    def test_fault_scope_removed_at_teardown(self):
        res = self.run_pair(noisy_plan())
        assert all(dev.faults is None for dev in res.world.devices.values())
        assert res.world.fault_plan is None


class TestFailureContainment:
    def crashing_build(self, req, nranks):
        if req.kind == "cannon":

            def crashing(ctx):
                ctx.diomp.barrier()
                if ctx.rank == 1:
                    raise RuntimeError("boom at rank 1")
                ctx.world.global_barrier.wait()  # must be killed

            return crashing, (), 1 << 20
        return build_job(req, nranks)

    def test_failed_job_is_contained(self, monkeypatch):
        import repro.cluster.service as service_mod

        monkeypatch.setattr(service_mod, "build_job", self.crashing_build)
        w = World(platform_a(), num_nodes=1, ranks_per_node=2)
        jobs = [
            job(0, kind="cannon"),
            job(1, arrival=1e-4),
        ]
        res = ClusterService(w).run(jobs)
        failed = res.record_of(0)
        assert failed.outcome == "failed"
        assert "boom" in failed.error
        assert failed.results is None
        # The node came back and the next job ran to completion.
        assert res.record_of(1).outcome == "completed"

    def test_failed_job_leaks_are_metered(self, monkeypatch):
        import repro.cluster.service as service_mod

        monkeypatch.setattr(service_mod, "build_job", self.crashing_build)
        w = World(platform_a(), num_nodes=1, ranks_per_node=2)
        res = ClusterService(w).run([job(0, kind="cannon", tenant="t")])
        assert res.world.obs.value("service.leaked_bytes", tenant="t") > 0


class TestTelemetry:
    def run_mixed(self):
        w = World(platform_a(), num_nodes=4, ranks_per_node=2)
        jobs = poisson_jobs(seed=21, count=12, rate=4000.0, execute=False)
        return ClusterService(w, ServiceConfig(queue_limit=8)).run(jobs)

    def test_per_tenant_registries_are_private(self):
        res = self.run_mixed()
        assert set(res.tenant_obs) == {"acme", "globex", "initech"}
        for obs in res.tenant_obs.values():
            counters = obs.snapshot()["counters"]
            # Subsystem metrics land in the tenant registry...
            assert any(name.startswith("conduit.") for name in counters)
            # ...never the service's own accounting.
            assert not any(name.startswith("service.") for name in counters)
        # And the world registry holds only the service's accounting.
        world_counters = res.world.obs.snapshot()["counters"]
        assert all(name.startswith("service.") for name in world_counters)

    def test_service_metrics_roll_up_by_tenant(self):
        res = self.run_mixed()
        jobs = res.tenant_rollups()["service.jobs"]
        # Groups are keyed by the residual (kind, outcome) labels with
        # cross-tenant stats; the grand total covers every record.
        assert all(g["ranks"] >= 1 for g in jobs["groups"])
        assert sum(g["sum"] for g in jobs["groups"]) == len(res.records)

    def test_queue_metrics_published(self):
        res = self.run_mixed()
        obs = res.world.obs
        assert obs.value("service.queue_depth") == 0
        assert obs.value("service.nodes_busy") == 0
        assert res.queue_wait_percentile(1.0) >= res.queue_wait_percentile(0.5)

    def test_record_lookup(self):
        res = self.run_mixed()
        assert res.record_of(0).job_id == 0
        with pytest.raises(KeyError):
            res.record_of(999)


class TestResultEdges:
    def test_percentile_validates_q(self):
        res = ClusterService(make_world()).run([job(0)])
        for bad_q in (-0.01, 1.5, 2.0):
            with pytest.raises(ValueError, match=r"\[0, 1\]"):
                res.queue_wait_percentile(bad_q)

    def test_all_rejected_run_has_defined_edges(self):
        # Every job infeasible: no waits, no completions, zero elapsed.
        res = ClusterService(make_world()).run(
            [job(0, nodes=5), job(1, nodes=5)]
        )
        assert len(res.rejected) == 2
        assert res.queue_wait_percentile(0.99) == 0.0
        assert res.throughput == 0.0

    def test_empty_stream(self):
        res = ClusterService(make_world()).run([])
        assert res.records == []
        assert res.throughput == 0.0
        assert res.queue_wait_percentile(0.5) == 0.0


class TestChargeback:
    def test_zero_job_tenant_gets_explicit_zero_row(self):
        # A tenant whose only submission is shed still appears in the
        # chargeback with an all-zero usage row — billing shows the
        # tenant existed, not silence.
        res = ClusterService(make_world()).run(
            [job(0, tenant="busy"), job(1, tenant="idle", nodes=5)]
        )
        report = res.chargeback()
        idle = report.row_for("idle")
        assert idle is not None
        assert idle.jobs_rejected == 1 and idle.jobs_completed == 0
        assert idle.gpu_seconds == 0.0
        assert idle.network_bytes == 0.0
        assert idle.queue_wait_seconds == 0.0
        assert idle.cost(report.rates) == 0.0
        busy = report.row_for("busy")
        assert busy.jobs_completed == 1 and busy.gpu_seconds > 0.0

    def test_all_failed_tenant_attribution(self, monkeypatch):
        # A tenant whose every job crashes is still billed: the leaked
        # bytes and the GPU time burned before the crash land on *their*
        # row, and nothing bleeds onto other tenants.
        import repro.cluster.service as service_mod

        def crashing_build(req, nranks):
            def program(ctx):
                ctx.diomp.barrier()
                if ctx.rank == 1:
                    raise RuntimeError("boom at rank 1")
                ctx.world.global_barrier.wait()

            return program, (), 1 << 20

        monkeypatch.setattr(service_mod, "build_job", crashing_build)
        w = World(platform_a(), num_nodes=1, ranks_per_node=2)
        jobs = [
            job(0, kind="cannon", tenant="chaotic"),
            job(1, kind="cannon", tenant="chaotic", arrival=1e-4),
        ]
        res = ClusterService(w).run(jobs)
        assert len(res.failed) == 2
        report = res.chargeback()
        row = report.row_for("chaotic")
        assert row.jobs_failed == 2 and row.jobs_completed == 0
        assert row.leaked_bytes > 0
        assert row.gpu_seconds > 0
        # Sole tenant: their row carries the whole-service totals.
        assert row.leaked_bytes == report.total.leaked_bytes
        assert row.cost(report.rates) == pytest.approx(
            report.total.cost(report.rates)
        )

    def test_rows_sum_to_totals(self):
        w = World(platform_a(), num_nodes=4, ranks_per_node=2)
        jobs = poisson_jobs(seed=21, count=12, rate=4000.0, execute=False)
        res = ClusterService(w, ServiceConfig(queue_limit=8)).run(jobs)
        report = res.chargeback()
        total = report.total
        for field in ("jobs_completed", "gpu_seconds", "queue_wait_seconds"):
            assert sum(getattr(r, field) for r in report.rows) == pytest.approx(
                getattr(total, field)
            )
        assert total.jobs_completed == len(res.completed)


class TestServiceSlo:
    def stream(self, rate=16000.0):
        return poisson_jobs(seed=7, count=16, rate=rate, execute=False)

    def test_slos_do_not_perturb_the_schedule(self):
        # Burn-rate evaluation is pure computation on the window ring:
        # disabling it must not move a single timestamp.
        on = ClusterService(
            make_world(4), ServiceConfig(queue_limit=8)
        ).run(self.stream())
        off = ClusterService(
            make_world(4), ServiceConfig(queue_limit=8, slos=())
        ).run(self.stream())

        def fp(res):
            return [
                (r.job_id, r.outcome, r.started, r.finished)
                for r in res.records
            ]

        assert fp(on) == fp(off)
        assert off.slos == () and off.alerts == []
        assert off.windows is None

    def test_default_slos_installed(self):
        res = ClusterService(make_world()).run([job(0)])
        assert {s.name for s in res.slos} == {"queue-wait-p90", "job-success"}
        assert res.windows is not None
        assert res.slo_report  # evaluated even on a tiny clean run

    def test_custom_slo_fires_and_reports(self):
        from repro.obs.slo import BurnRateRule, availability_slo

        # 100% success required with a hair-trigger rule: the rejected
        # jobs of a saturated run must page.
        strict = availability_slo(
            "all-or-nothing",
            "service.jobs",
            good={"outcome": "completed"},
            target=0.5,
            window=1e-3,
            rules=(
                BurnRateRule(
                    long_window=2e-3, short_window=2e-3, factor=0.1
                ),
            ),
            min_events=1,
        )
        w = World(platform_a(), num_nodes=1, ranks_per_node=2)
        res = ClusterService(
            w, ServiceConfig(queue_limit=1, slos=(strict,))
        ).run([job(i) for i in range(6)])
        assert len(res.rejected) == 5
        assert res.alerts and res.alerts[0].slo == "all-or-nothing"
        (status,) = res.slo_report
        assert status.bad_fraction > 0.5

    def test_alerts_are_sim_timestamped(self):
        res = ClusterService(
            make_world(4), ServiceConfig(queue_limit=8)
        ).run(self.stream())
        for alert in res.alerts:
            assert 0.0 <= alert.fired_at <= res.elapsed
            assert alert.resolved_at is not None  # finish() closed it
        times = [e["time"] for e in res.timeline]
        assert times == sorted(times)

    def test_incidents_merge_anomaly_findings(self):
        res = ClusterService(make_world()).run([job(0)])
        merged = res.incidents(findings=[])
        assert all(e["kind"] != "anomaly" for e in merged)

    def test_export_replay_roundtrip(self, tmp_path):
        from repro.obs.report import _timeline_key, replay_service_export

        res = ClusterService(
            make_world(4), ServiceConfig(queue_limit=8)
        ).run(self.stream())
        path = tmp_path / "run.json"
        doc = res.export(str(path))
        import json

        on_disk = json.loads(path.read_text())
        tracker = replay_service_export(on_disk)
        assert _timeline_key(tracker.timeline) == _timeline_key(doc["timeline"])

    def test_slo_cli_replay(self, tmp_path, capsys):
        from repro.obs.report import main as obs_main

        res = ClusterService(
            make_world(4), ServiceConfig(queue_limit=8)
        ).run(self.stream())
        path = tmp_path / "run.json"
        res.export(str(path))
        out_json = tmp_path / "timeline.json"
        code = obs_main(["slo", str(path), "--json", str(out_json)])
        assert code == 0
        assert "replay matches the recorded timeline" in capsys.readouterr().out
        import json

        replayed = json.loads(out_json.read_text())
        assert replayed["matches_export"] is True
        # strict mode: nonzero exit when the run paged.
        expected = 1 if res.alerts else 0
        assert obs_main(["slo", str(path), "--strict"]) == expected

    def test_slo_cli_rejects_sloless_export(self, tmp_path):
        from repro.obs.report import main as obs_main

        res = ClusterService(
            make_world(), ServiceConfig(slos=())
        ).run([job(0)])
        path = tmp_path / "bare.json"
        res.export(str(path))
        assert obs_main(["slo", str(path)]) == 2

    def test_dashboard_has_service_sections(self):
        res = ClusterService(
            make_world(4), ServiceConfig(queue_limit=8)
        ).run(self.stream())
        text = res.dashboard()
        assert "SLO error budgets" in text
        assert "Windowed time series" in text
        assert "chargeback" in text.lower()


class TestJobStream:
    def test_poisson_stream_is_seeded(self):
        a = poisson_jobs(seed=3, count=10, rate=100.0)
        b = poisson_jobs(seed=3, count=10, rate=100.0)
        assert a == b
        c = poisson_jobs(seed=4, count=10, rate=100.0)
        assert a != c

    def test_arrivals_monotone_and_tenants_rotate(self):
        jobs = poisson_jobs(seed=3, count=9, rate=100.0)
        arrivals = [j.arrival for j in jobs]
        assert arrivals == sorted(arrivals)
        assert {j.tenant for j in jobs} == {"acme", "globex", "initech"}

    def test_default_sizes_are_valid(self):
        for kind in ("cannon", "minimod", "allreduce"):
            for nranks in (2, 4, 8):
                req = JobRequest(
                    job_id=0,
                    tenant="t",
                    kind=kind,
                    size=default_size(kind, nranks),
                )
                program, args, seg = build_job(req, nranks)
                assert callable(program) and seg > 0

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown job kind"):
            build_job(job(0, kind="sorting"), 2)

    def test_bad_rate_rejected(self):
        with pytest.raises(ConfigurationError, match="rate"):
            poisson_jobs(seed=1, count=1, rate=0.0)
