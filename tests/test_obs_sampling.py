"""Bounded-memory span collection: budgets, sampling, spill."""

import json
import random

import pytest

from repro.obs.sampling import (
    SPAN_COST_BYTES,
    SpanBudget,
    SpanStore,
    read_spill,
)
from repro.obs.spans import SpanProfiler, SpanRecord
from repro.util.errors import ConfigurationError


def span(i, track="rank0", name="op"):
    return SpanRecord(
        name=name,
        track=track,
        start=i * 1e-6,
        end=i * 1e-6 + 5e-7,
        depth=0,
        args={"i": i},
        span_id=i + 1,
    )


def budget(max_spans, **kw):
    return SpanBudget(max_bytes=max_spans * SPAN_COST_BYTES, **kw)


class TestBudgetValidation:
    def test_too_small_budget_rejected(self):
        with pytest.raises(ConfigurationError, match="span budget"):
            SpanBudget(max_bytes=SPAN_COST_BYTES - 1)

    def test_bad_shape_rejected(self):
        with pytest.raises(ConfigurationError, match="per_track"):
            SpanBudget(per_track_reservoir=0)
        with pytest.raises(ConfigurationError, match="per_track"):
            SpanBudget(per_track_head=-1)

    def test_max_spans_from_bytes(self):
        assert budget(10).max_spans == 10
        assert SpanBudget().max_spans == 64 * 1024 * 1024 // SPAN_COST_BYTES


class TestLosslessMode:
    def test_under_budget_keeps_everything_in_order(self):
        store = SpanStore(budget(100))
        recs = [span(i, track=f"rank{i % 4}") for i in range(50)]
        for r in recs:
            store.append(r)
        assert not store.sampling
        assert list(store) == recs  # exact append order, nothing lost
        assert len(store) == 50
        assert store.dropped == 0
        assert store.memory_bytes == 50 * SPAN_COST_BYTES

    def test_truthiness_and_clear(self):
        store = SpanStore(budget(10))
        assert not store
        store.append(span(0))
        assert store
        store.clear()
        assert not store and store.recorded == 0


class TestSamplingMode:
    def test_budget_is_a_hard_cap(self):
        store = SpanStore(budget(64, per_track_head=4, per_track_reservoir=8))
        for i in range(1000):
            store.append(span(i, track=f"rank{i % 8}"))
        assert store.sampling
        assert len(store) <= 64
        assert store.memory_bytes <= 64 * SPAN_COST_BYTES
        assert store.recorded == 1000
        assert store.dropped == 1000 - len(store)

    def test_heads_are_pinned(self):
        store = SpanStore(budget(64, per_track_head=4, per_track_reservoir=8))
        for i in range(1000):
            store.append(span(i, track=f"rank{i % 8}"))
        kept = list(store)
        # The first 4 spans of every track survive sampling.
        for rank in range(8):
            track_kept = [r for r in kept if r.track == f"rank{rank}"]
            firsts = [r for r in track_kept if r.args["i"] < 4 * 8]
            assert len(firsts) == 4

    def test_iteration_sorted_by_start(self):
        store = SpanStore(budget(32, per_track_head=2, per_track_reservoir=4))
        for i in range(500):
            store.append(span(i, track=f"rank{i % 8}"))
        starts = [r.start for r in store]
        assert starts == sorted(starts)

    def test_deterministic_given_seed(self):
        def fill(seed):
            store = SpanStore(budget(32, per_track_head=2, per_track_reservoir=4, seed=seed))
            for i in range(500):
                store.append(span(i, track=f"rank{i % 4}"))
            return [(r.track, r.args["i"]) for r in store]

        assert fill(7) == fill(7)
        assert fill(7) != fill(8)

    def test_many_tracks_tiny_budget_holds_cap(self):
        # More tracks x head than the cap: the head-trim fallback must
        # still enforce the hard budget.
        store = SpanStore(budget(10, per_track_head=4, per_track_reservoir=4))
        for i in range(400):
            store.append(span(i, track=f"rank{i % 40}"))
        assert len(store) <= 10

    def test_stats_consistency(self):
        store = SpanStore(budget(16, per_track_head=2, per_track_reservoir=4))
        for i in range(200):
            store.append(span(i, track=f"rank{i % 4}"))
        s = store.stats()
        assert s.recorded == 200
        assert s.recorded == s.kept + s.dropped
        assert s.kept == len(store)
        assert s.memory_bytes == s.kept * SPAN_COST_BYTES
        assert s.sampling
        assert s.to_dict()["kept"] == s.kept


class LinearScanStore(SpanStore):
    """Reference store: finds each eviction victim by scanning every
    track (first track in insertion order with the largest reservoir)."""

    def _index(self, sample):
        pass

    def _make_room(self, exempt=None):
        if self._kept < self.budget.max_spans:
            return True
        victim = None
        for sample in self._tracks.values():
            if sample is exempt or not sample.reservoir:
                continue
            if victim is None or len(sample.reservoir) > len(victim.reservoir):
                victim = sample
        if victim is None:
            return False
        victim.reservoir.pop(self._rng.randrange(len(victim.reservoir)))
        self._kept -= 1
        return True


class TestIndexedEviction:
    @staticmethod
    def snapshot(store):
        return [r.span_id for r in store], store.stats(), store._rng.getstate()

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_linear_scan(self, seed):
        rng = random.Random(seed)
        for _ in range(20):
            shape = dict(
                per_track_head=rng.randint(0, 2),
                per_track_reservoir=rng.choice((1, 2, 3, 6)),
                seed=rng.randrange(100),
            )
            cap = rng.choice((1, 2, 3, 5, 8, 13, 40))
            tracks = rng.randint(2, 60)
            stores = [cls(budget(cap, **shape)) for cls in (SpanStore, LinearScanStore)]
            # Tracks appear progressively and a few are much busier
            # than the rest, so reservoirs differ in size and tie.
            stream = [
                f"t{rng.randrange(min(tracks, 1 + i // 6))}" if rng.random() < 0.7
                else f"t{rng.randrange(3)}"
                for i in range(400)
            ]
            for i, track in enumerate(stream[:250]):
                for store in stores:
                    store.append(span(i, track=track))
                if i % 50 == 49:
                    assert self.snapshot(stores[0]) == self.snapshot(stores[1])
            smaller = budget(max(1, cap // 2), per_track_head=rng.randint(0, 2),
                             per_track_reservoir=rng.choice((1, 2, 4)))
            for store in stores:
                store.set_budget(smaller)
            assert self.snapshot(stores[0]) == self.snapshot(stores[1])
            for i, track in enumerate(stream[250:], start=250):
                for store in stores:
                    store.append(span(i, track=track))
            assert self.snapshot(stores[0]) == self.snapshot(stores[1])
            assert stores[0].sampling


class TestSetBudget:
    def test_shrinking_budget_readmits(self):
        store = SpanStore(budget(100))
        for i in range(80):
            store.append(span(i, track=f"rank{i % 4}"))
        store.set_budget(budget(20, per_track_head=2, per_track_reservoir=3))
        assert len(store) <= 20
        assert store.recorded == 80  # counters describe the whole run


class TestSpill:
    def test_every_span_spilled_and_readable(self, tmp_path):
        path = str(tmp_path / "spans.jsonl")
        store = SpanStore(budget(8, per_track_head=1, per_track_reservoir=2, spill_path=path))
        recs = [span(i, track=f"rank{i % 4}") for i in range(50)]
        for r in recs:
            store.append(r)
        store.close()
        assert len(store) <= 8  # RAM bounded...
        assert store.spilled == 50
        back = read_spill(path)  # ...full fidelity on disk
        assert len(back) == 50
        assert back[7].name == recs[7].name
        assert back[7].start == recs[7].start
        assert back[7].track == recs[7].track

    def test_spill_lines_are_json(self, tmp_path):
        path = str(tmp_path / "spans.jsonl")
        store = SpanStore(budget(8, spill_path=path))
        store.append(span(0))
        store.flush()
        doc = json.loads(open(path).read().strip())
        assert doc["name"] == "op" and doc["span_id"] == 1


class TestProfilerIntegration:
    def test_profiler_uses_budgeted_store(self):
        prof = SpanProfiler(clock=lambda: 0.0)
        assert isinstance(prof.records, SpanStore)
        with prof.span("x", rank=0):
            pass
        assert prof.count("x") == 1

    def test_set_budget_via_profiler(self):
        prof = SpanProfiler(clock=lambda: 0.0)
        for i in range(100):
            with prof.span("x", rank=i % 4):
                pass
        prof.set_budget(budget(16, per_track_head=2, per_track_reservoir=2))
        assert len(prof.records) <= 16

    def test_record_roundtrip_dict(self):
        rec = span(3)
        back = SpanRecord.from_dict(rec.to_dict())
        assert back.name == rec.name
        assert back.start == rec.start
        assert back.span_id == rec.span_id
        assert back.links == rec.links
