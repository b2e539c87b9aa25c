"""Bounded-memory span collection: budgets, sampling, and spill.

The original profiler kept every :class:`~repro.obs.spans.SpanRecord`
in one unbounded Python list — at 1024 ranks the observer itself
becomes the memory bottleneck.  :class:`SpanStore` replaces that list
with a drop-in sequence that enforces a **hard memory budget**:

* While the total stays under the budget, every span is kept and
  iteration order is exactly the old append order — small runs are
  lossless and bit-identical to the unbounded behavior.
* When the budget would be exceeded, the store switches to **per-track
  head + reservoir sampling**: the first ``per_track_head`` spans of
  each track are pinned (startup structure), and the remainder of each
  track is a fixed-size uniform reservoir (Algorithm R with a seeded
  RNG, so sampling is deterministic).  The total never exceeds the
  budget again — if a new track appears after saturation, room is made
  by shrinking the largest reservoir.  The tracks are indexed by
  reservoir size in one bit set per size (a bit per track), so finding
  that victim is the lowest set bit of the fullest nonempty size: a
  handful of integer operations per admission, not a scan of every
  track.
* Optionally every completed span is **spilled** to a JSONL file as it
  closes (``spill_path``), so full fidelity lives on disk while RAM
  holds the bounded sample.

Memory accounting uses a flat per-span estimate
(:data:`SPAN_COST_BYTES`); the budget is therefore a span-count cap
expressed in bytes, which is what operators actually configure.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import random
from typing import Any, Dict, Iterator, List, Optional

from repro.obs.spans import SpanRecord
from repro.util.errors import ConfigurationError

#: estimated resident cost of one kept SpanRecord (object header,
#: dataclass fields, small args dict) — deliberately a round, documented
#: figure so budgets translate predictably to span counts
SPAN_COST_BYTES = 512


@dataclasses.dataclass(frozen=True)
class SpanBudget:
    """Retention policy for one :class:`SpanStore`.

    ``max_bytes`` is the hard cap; ``per_track_head`` and
    ``per_track_reservoir`` shape what survives once sampling starts.
    """

    #: hard memory budget for kept spans (estimated, see SPAN_COST_BYTES)
    max_bytes: int = 64 * 1024 * 1024
    #: first N spans of each track are always kept once sampling starts
    per_track_head: int = 32
    #: reservoir size per track once sampling starts
    per_track_reservoir: int = 192
    #: JSONL path receiving every span as it completes (None = no spill)
    spill_path: Optional[str] = None
    #: seed for the deterministic sampling RNG
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_bytes < SPAN_COST_BYTES:
            raise ConfigurationError(
                f"span budget must be >= {SPAN_COST_BYTES} bytes, "
                f"got {self.max_bytes}"
            )
        if self.per_track_head < 0 or self.per_track_reservoir < 1:
            raise ConfigurationError(
                "per_track_head must be >= 0 and per_track_reservoir >= 1"
            )

    @functools.cached_property
    def max_spans(self) -> int:
        """The budget expressed as a kept-span cap."""
        return max(1, self.max_bytes // SPAN_COST_BYTES)


@dataclasses.dataclass
class SpanStoreStats:
    """Retention accounting of one store."""

    recorded: int
    kept: int
    dropped: int
    spilled: int
    memory_bytes: int
    sampling: bool

    def to_dict(self) -> Dict[str, Any]:
        return dataclasses.asdict(self)


class _TrackSample:
    """Head + reservoir sample of one track (sampling mode only)."""

    __slots__ = ("head", "reservoir", "tail_seen", "order")

    def __init__(self, order: int) -> None:
        self.head: List[SpanRecord] = []
        self.reservoir: List[SpanRecord] = []
        #: tail (non-head) spans observed so far, kept or not
        self.tail_seen = 0
        #: insertion rank of the track: breaks eviction ties, and is the
        #: track's bit in the store's size index
        self.order = order

    def __len__(self) -> int:
        return len(self.head) + len(self.reservoir)


class SpanStore:
    """A budgeted, list-like container of completed spans.

    Supports the exact surface the profiler and exporters use on the
    old plain list — ``append``, iteration, ``len``, truthiness,
    ``clear`` — plus retention statistics and budget control.
    """

    def __init__(self, budget: Optional[SpanBudget] = None) -> None:
        self.budget = budget or SpanBudget()
        #: lossless mode storage (append order)
        self._all: List[SpanRecord] = []
        #: sampling mode storage, keyed by track, and by insertion order
        self._tracks: Dict[str, _TrackSample] = {}
        self._ordered: List[_TrackSample] = []
        #: eviction index: bit ``order`` of ``_by_size[n]`` is set while
        #: that track's reservoir holds ``n`` spans (n >= 1); the victim
        #: is the lowest set bit of the largest nonempty size
        self._by_size: List[int] = []
        #: no size above this has a bit set
        self._top = 0
        self._sampling = False
        self._kept = 0
        self.recorded = 0
        self.spilled = 0
        self._rng = random.Random(self.budget.seed)
        self._spill_fh = None

    # -- list-like surface ------------------------------------------------------

    def append(self, rec: SpanRecord) -> None:
        self.recorded += 1
        if self.budget.spill_path is not None:
            self._spill(rec)
        if not self._sampling:
            if self._kept < self.budget.max_spans:
                self._all.append(rec)
                self._kept += 1
                return
            self._enter_sampling()
        self._admit(rec)

    def __iter__(self) -> Iterator[SpanRecord]:
        if not self._sampling:
            return iter(self._all)
        kept = [
            r
            for sample in self._tracks.values()
            for r in (*sample.head, *sample.reservoir)
        ]
        kept.sort(key=lambda r: (r.start, r.span_id))
        return iter(kept)

    def __len__(self) -> int:
        return self._kept

    def __bool__(self) -> bool:
        return self._kept > 0

    def clear(self) -> None:
        """Drop every kept span and reset the retention counters."""
        self._all.clear()
        self._tracks.clear()
        self._ordered = []
        self._by_size = []
        self._top = 0
        self._sampling = False
        self._kept = 0
        self.recorded = 0
        self.spilled = 0
        self._rng = random.Random(self.budget.seed)

    # -- budget control ---------------------------------------------------------

    def set_budget(self, budget: SpanBudget) -> None:
        """Install a new budget; existing spans are re-admitted under it."""
        kept = list(self)
        self._close_spill()
        recorded, spilled = self.recorded, self.spilled
        self.budget = budget
        self.clear()
        for rec in kept:
            self.append(rec)
        # Counters describe the whole run, not just the re-admission.
        self.recorded = recorded
        self.spilled = spilled

    @property
    def sampling(self) -> bool:
        """True once the budget forced the store into sampling mode."""
        return self._sampling

    @property
    def dropped(self) -> int:
        """Spans recorded but no longer resident (evicted or never kept)."""
        return self.recorded - self._kept

    @property
    def memory_bytes(self) -> int:
        """Estimated resident memory of the kept spans."""
        return self._kept * SPAN_COST_BYTES

    def stats(self) -> SpanStoreStats:
        return SpanStoreStats(
            recorded=self.recorded,
            kept=self._kept,
            dropped=self.dropped,
            spilled=self.spilled,
            memory_bytes=self.memory_bytes,
            sampling=self._sampling,
        )

    # -- sampling internals -----------------------------------------------------

    def _enter_sampling(self) -> None:
        """Downsample the lossless list into per-track head+reservoir."""
        self._sampling = True
        self._by_size = [0] * (self.budget.per_track_reservoir + 1)
        head_n = self.budget.per_track_head
        res_n = self.budget.per_track_reservoir
        for rec in self._all:
            sample = self._sample(rec.track)
            if len(sample.head) < head_n:
                sample.head.append(rec)
            else:
                sample.tail_seen += 1
                if len(sample.reservoir) < res_n:
                    sample.reservoir.append(rec)
                else:
                    j = self._rng.randrange(sample.tail_seen)
                    if j < res_n:
                        sample.reservoir[j] = rec
        self._all = []
        self._kept = sum(len(s) for s in self._tracks.values())
        for sample in self._tracks.values():
            size = len(sample.reservoir)
            if size:
                self._by_size[size] |= 1 << sample.order
                self._top = max(self._top, size)
        self._shrink_to_budget()

    def _sample(self, track: str) -> _TrackSample:
        sample = self._tracks.get(track)
        if sample is None:
            sample = self._tracks[track] = _TrackSample(len(self._ordered))
            self._ordered.append(sample)
        return sample

    def _admit(self, rec: SpanRecord) -> None:
        sample = self._tracks.get(rec.track)
        if sample is None:
            sample = self._sample(rec.track)
        if len(sample.head) < self.budget.per_track_head:
            if self._make_room(exempt=sample):
                sample.head.append(rec)
                self._kept += 1
            return
        sample.tail_seen += 1
        size = len(sample.reservoir)
        if size < self.budget.per_track_reservoir:
            if self._make_room(exempt=sample):
                sample.reservoir.append(rec)
                self._kept += 1
                # Move the track up one size in the eviction index.
                bit = 1 << sample.order
                if size:
                    self._by_size[size] ^= bit
                self._by_size[size + 1] |= bit
                if size >= self._top:
                    self._top = size + 1
            return
        # Algorithm R replacement: uniform over the track's tail.
        j = self._rng.randrange(sample.tail_seen)
        if j < size:
            sample.reservoir[j] = rec

    def _make_room(self, exempt: Optional[_TrackSample] = None) -> bool:
        """Ensure one admission slot exists under ``max_spans``.

        Evicts one element from the largest other reservoir (the first
        such track in insertion order) when saturated.  Returns False
        when no room can be made (every other track is down to its
        pinned head), in which case the span is dropped.
        """
        if self._kept < self.budget.max_spans:
            return True
        by_size = self._by_size
        skip = exempt.order if exempt is not None else -1
        size = self._top
        while size and not by_size[size]:
            size -= 1  # emptied since: lower the ceiling for good
        self._top = size
        while size:
            members = by_size[size]
            low = members & -members  # first track in insertion order
            if low.bit_length() - 1 == skip:
                members ^= low
                low = members & -members
            if members:
                break
            size -= 1
        else:
            return False
        victim = self._ordered[low.bit_length() - 1]
        victim.reservoir.pop(self._rng.randrange(size))
        self._kept -= 1
        # Move the victim down one size in the eviction index.
        by_size[size] ^= low
        if size > 1:
            by_size[size - 1] |= low
        return True

    def _shrink_to_budget(self) -> None:
        while self._kept > self.budget.max_spans:
            if self._make_room():
                continue  # freed one reservoir slot; loop until under cap
            # Last resort — every reservoir is empty (many tracks, tiny
            # budget): trim the largest pinned head so the hard cap holds.
            victim = max(
                (s for s in self._tracks.values() if s.head),
                key=lambda s: len(s.head),
                default=None,
            )
            if victim is None:
                break
            victim.head.pop()
            self._kept -= 1

    # -- spill ------------------------------------------------------------------

    def _spill(self, rec: SpanRecord) -> None:
        if self._spill_fh is None:
            self._spill_fh = open(self.budget.spill_path, "a")
        self._spill_fh.write(json.dumps(rec.to_dict()) + "\n")
        self.spilled += 1

    def flush(self) -> None:
        """Flush the spill file (if any) to disk."""
        if self._spill_fh is not None:
            self._spill_fh.flush()

    def _close_spill(self) -> None:
        if self._spill_fh is not None:
            self._spill_fh.close()
            self._spill_fh = None

    def close(self) -> None:
        """Close the spill file handle (kept spans stay readable)."""
        self._close_spill()

    def __del__(self) -> None:  # pragma: no cover - GC safety net
        # AttributeError: __init__ failed before the handle existed;
        # OSError: the final flush of the spill file failed.
        try:
            self._close_spill()
        except (AttributeError, OSError):
            pass

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<SpanStore kept={self._kept}/{self.budget.max_spans} "
            f"recorded={self.recorded} sampling={self._sampling}>"
        )


def read_spill(path: str) -> List[SpanRecord]:
    """Load spans back from a spill JSONL file."""
    out: List[SpanRecord] = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line:
                out.append(SpanRecord.from_dict(json.loads(line)))
    return out


__all__ = [
    "SPAN_COST_BYTES",
    "SpanBudget",
    "SpanStore",
    "SpanStoreStats",
    "read_spill",
]
