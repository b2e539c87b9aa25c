"""Tests for span profiling, Chrome-trace/JSONL export, and the
dashboard."""

import json

from repro.bench.profile import ProfileConfig, run_profiled_cannon, write_profile
from repro.obs import Observability
from repro.obs.export import (
    chrome_trace,
    chrome_trace_events,
    events_jsonl,
    render_dashboard,
    write_metrics_snapshot,
)
from repro.sim.trace import Tracer


def make_obs(times):
    """An Observability whose clock pops pre-baked timestamps."""
    it = iter(times)
    obs = Observability()
    obs.bind_clock(lambda: next(it))
    return obs


class TestSpans:
    def test_nesting_depth_and_duration(self):
        obs = make_obs([0.0, 1.0, 2.0, 5.0])
        with obs.span("outer", rank=0):
            with obs.span("inner", rank=0):
                pass
        inner, outer = obs.spans
        assert (inner.name, inner.depth) == ("inner", 1)
        assert (outer.name, outer.depth) == ("outer", 0)
        assert inner.duration == 1.0
        assert outer.duration == 5.0
        assert outer.category == "outer"

    def test_track_defaults(self):
        obs = make_obs([0.0, 1.0, 2.0, 3.0, 4.0, 5.0])
        with obs.span("a", rank=3):
            pass
        with obs.span("b"):
            pass
        with obs.span("c", track="custom"):
            pass
        assert [s.track for s in obs.spans] == ["rank3", "main", "custom"]

    def test_disabled_profiler_records_nothing(self):
        obs = Observability(enabled=False)
        with obs.span("x", rank=0):
            pass
        assert len(obs.spans) == 0

    def test_profiler_queries(self):
        obs = make_obs([0.0, 1.0, 1.0, 4.0])
        with obs.span("rma.put", rank=0):
            pass
        with obs.span("rma.put", rank=1):
            pass
        prof = obs.profiler
        assert prof.count("rma.put") == 2
        assert prof.total_time("rma.put") == 4.0
        assert len(prof.select(track="rank1")) == 1


class TestChromeTrace:
    def test_event_schema(self):
        obs = make_obs([0.0, 1e-6])
        with obs.span("rma.put", rank=0, target=1):
            pass
        tracer = Tracer(clock=lambda: 2e-6)
        tracer.emit("streams", "create", device="gpu0")
        doc = chrome_trace(obs.spans, tracer, metadata={"run": "test"})
        assert doc["displayTimeUnit"] == "ms"
        assert doc["otherData"] == {"run": "test"}
        events = doc["traceEvents"]
        by_ph = {}
        for e in events:
            by_ph.setdefault(e["ph"], []).append(e)
        # track-name metadata for rank0 and the tracer's events track
        names = [e["args"]["name"] for e in by_ph["M"]]
        assert names == ["rank0", "events"]
        (span_ev,) = by_ph["X"]
        assert span_ev["name"] == "rma.put"
        assert span_ev["ts"] == 0.0
        assert span_ev["dur"] == 1.0  # microseconds
        assert span_ev["args"] == {"rank": "0", "target": "1"}
        (inst,) = by_ph["i"]
        assert inst["name"] == "streams.create"
        assert inst["s"] == "t"
        # everything must be JSON-serializable
        json.dumps(doc)

    def test_rank_tracks_sorted_numerically(self):
        obs = make_obs([float(i) for i in range(22)])
        for r in (10, 2, 0, 1):
            with obs.span("x", rank=r):
                pass
        events = chrome_trace_events(obs.spans)
        names = [e["args"]["name"] for e in events if e["ph"] == "M"]
        assert names == ["rank0", "rank1", "rank2", "rank10"]

    def test_empty_inputs(self):
        assert chrome_trace_events([], None) == []
        doc = chrome_trace(None, None)
        assert doc["traceEvents"] == []


class TestJsonl:
    def test_tracer_to_jsonl_roundtrip(self):
        tracer = Tracer(clock=lambda: 1.5)
        tracer.emit("rma", "put", nbytes=64)
        tracer.emit("streams", "create")
        lines = events_jsonl(tracer).splitlines()
        assert len(lines) == 2
        first = json.loads(lines[0])
        assert first == {
            "time": 1.5,
            "category": "rma",
            "name": "put",
            "payload": {"nbytes": "64"},
        }

    def test_tracer_enable_filters(self):
        tracer = Tracer()
        tracer.enable("keep")
        tracer.emit("keep", "a")
        tracer.emit("drop", "b")
        assert [r.name for r in tracer] == ["a"]
        tracer.enable("also")
        tracer.emit("also", "c")
        assert [r.name for r in tracer] == ["a", "c"]
        tracer.enable_all()
        tracer.emit("drop", "d")
        assert [r.name for r in tracer] == ["a", "c", "d"]


class TestProfileRun:
    def test_profiled_cannon_outputs(self, tmp_path):
        out = tmp_path / "prof.json"
        write_profile(str(out), ProfileConfig(n=64))
        trace = json.loads(out.read_text())
        events = trace["traceEvents"]
        assert any(e["ph"] == "X" for e in events)
        tracks = {e["args"]["name"] for e in events if e["ph"] == "M"}
        assert {"rank0", "rank1", "rank2", "rank3"} <= tracks
        metrics = json.loads((tmp_path / "prof.metrics.json").read_text())
        assert metrics["nranks"] == 4
        families = metrics["metrics"]
        # the acceptance trio: per-path traffic, cache events, pool gauge
        assert "rma.bytes" in families["counters"]
        assert "rma.pointer_cache" in families["counters"]
        assert "streams.active" in families["gauges"]
        paths = {
            s["labels"]["path"]
            for s in families["counters"]["rma.bytes"]["series"]
        }
        assert {"conduit", "ipc"} <= paths

    def test_dashboard_renders(self):
        res = run_profiled_cannon(ProfileConfig(n=64))
        text = render_dashboard(res.world.obs.registry, title="test run")
        assert "RMA traffic by path" in text
        for path in ("conduit", "ipc", "p2p", "local"):
            assert path in text
        assert "Pointer cache" in text
        assert "Stream pools" in text
        assert "Metric catalog" in text

    def test_write_metrics_snapshot(self, tmp_path):
        obs = Observability()
        obs.counter("c").inc(rank=0)
        path = tmp_path / "m.json"
        doc = write_metrics_snapshot(str(path), obs.registry, extra={"k": 1})
        loaded = json.loads(path.read_text())
        assert loaded == doc
        assert loaded["k"] == 1
        assert loaded["metrics"]["counters"]["c"]["series"][0]["value"] == 1


class TestStreamingWriters:
    """S1: file exports stream events instead of buffering the doc."""

    def _populated(self):
        obs = make_obs([0.0, 1e-6, 2e-6, 3e-6])
        with obs.span("a", rank=0):
            pass
        with obs.span("b", rank=1):
            pass
        tracer = Tracer()
        tracer.bind_clock(lambda: 5e-6)
        tracer.emit("cat", "evt", k=1)
        return obs, tracer

    def test_streamed_trace_equals_buffered_doc(self, tmp_path):
        from repro.obs.export import write_chrome_trace

        obs, tracer = self._populated()
        path = tmp_path / "trace.json"
        n = write_chrome_trace(
            str(path), obs.spans, tracer, metadata={"run": "x"}
        )
        streamed = json.loads(path.read_text())
        buffered = chrome_trace(obs.spans, tracer, metadata={"run": "x"})
        assert streamed == buffered
        assert n == len(buffered["traceEvents"])
        assert streamed["otherData"] == {"run": "x"}

    def test_empty_trace_is_valid_json(self, tmp_path):
        from repro.obs.export import write_chrome_trace

        path = tmp_path / "empty.json"
        assert write_chrome_trace(str(path)) == 0
        assert json.loads(path.read_text())["traceEvents"] == []

    def test_iter_events_matches_list(self):
        from repro.obs.export import iter_chrome_trace_events

        obs, tracer = self._populated()
        assert list(iter_chrome_trace_events(obs.spans, tracer)) == (
            chrome_trace_events(obs.spans, tracer)
        )

    def test_write_events_jsonl(self, tmp_path):
        from repro.obs.export import write_events_jsonl

        tracer = Tracer()
        tracer.bind_clock(lambda: 1e-6)
        tracer.emit("cat", "one", a=1)
        tracer.emit("cat", "two", b=2)
        path = tmp_path / "events.jsonl"
        assert write_events_jsonl(str(path), tracer) == 2
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 2
        assert lines == events_jsonl(tracer).splitlines()
        assert json.loads(lines[1])["name"] == "two"


class TestHealthTable:
    """S3: dropped series and per-metric series counts are visible."""

    def test_health_in_dashboard(self):
        obs = Observability()
        obs.counter("a").inc(rank=0)
        obs.counter("a").inc(rank=1)
        text = render_dashboard(obs.registry)
        assert "Telemetry health" in text
        assert "a" in text

    def test_dropped_writes_called_out(self):
        import warnings

        from repro.obs.export import health_table
        from repro.obs.metrics import MetricsRegistry

        reg = MetricsRegistry(max_series_per_metric=2)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for r in range(5):
                reg.counter("a").inc(rank=r)
        text = health_table(reg).render()
        assert "dropped 3 write(s)" in text
        assert "yes" in text  # the overflowed column
